//! MICE — Multiple Imputation by Chained Equations.
//!
//! The radio map (RSSI columns plus the two RP coordinate columns) is treated
//! as a tabular dataset. Missing entries are initialised with column means and
//! then refined over several cycles: each column with missing values is
//! regressed (ridge regression) on the most-correlated other columns using the
//! rows where it is observed, and its missing entries are replaced by the
//! regression predictions.

use std::cmp::Ordering;

use rm_geometry::Point;
use rm_radiomap::{MaskMatrix, RadioMap, MNAR_FILL_VALUE};

use crate::{fill_mnars, gates, ImputedRadioMap, Imputer};

/// Configuration for [`Mice`].
#[derive(Debug, Clone)]
pub struct MiceConfig {
    /// Number of chained-equation cycles.
    pub cycles: usize,
    /// Number of predictor columns (most correlated) per regressed column.
    /// The full paper-faithful variant uses all columns; limiting the
    /// predictors keeps the normal equations small on wide radio maps.
    pub predictors_per_column: usize,
    /// Ridge regularisation strength.
    pub ridge_lambda: f64,
    /// Worker threads for the per-column fan-outs (`0` = auto, see
    /// [`rm_runtime::resolve_threads`]). The chained-equation *column order*
    /// stays strictly sequential — that is the algorithm — but the
    /// per-column work (correlation scan over all candidate predictors,
    /// predictions for the missing rows) is embarrassingly parallel and
    /// produces identical results at any thread count.
    pub threads: usize,
}

impl Default for MiceConfig {
    fn default() -> Self {
        Self {
            cycles: 3,
            predictors_per_column: 8,
            ridge_lambda: 1.0,
            threads: 0,
        }
    }
}

/// The MICE imputer.
#[derive(Debug, Clone, Default)]
pub struct Mice {
    /// Algorithm configuration.
    pub config: MiceConfig,
}

impl Mice {
    /// Creates a MICE imputer with the given configuration.
    pub fn new(config: MiceConfig) -> Self {
        Self { config }
    }
}

impl Imputer for Mice {
    fn impute(&self, map: &RadioMap, mask: &MaskMatrix) -> ImputedRadioMap {
        let n = map.len();
        let d = map.num_aps();
        if n == 0 {
            return ImputedRadioMap {
                fingerprints: Vec::new(),
                locations: Vec::new(),
            };
        }
        // Columns 0..d are RSSIs (MNARs already filled); columns d, d+1 are RP x/y.
        let rssi = fill_mnars(map, mask);
        let num_cols = d + 2;
        let mut observed = vec![vec![false; num_cols]; n];
        let mut data = vec![vec![0.0f64; num_cols]; n];
        for i in 0..n {
            for ap in 0..d {
                if let Some(v) = rssi[i][ap] {
                    data[i][ap] = v;
                    observed[i][ap] = true;
                }
            }
            if let Some(p) = map.record(i).rp {
                data[i][d] = p.x;
                data[i][d + 1] = p.y;
                observed[i][d] = true;
                observed[i][d + 1] = true;
            }
        }

        // Initialise missing entries with column means.
        let mut column_means = vec![0.0f64; num_cols];
        for c in 0..num_cols {
            let (sum, count) = (0..n).fold((0.0, 0usize), |(s, k), i| {
                if observed[i][c] {
                    (s + data[i][c], k + 1)
                } else {
                    (s, k)
                }
            });
            column_means[c] = if count > 0 {
                sum / count as f64
            } else if c < d {
                MNAR_FILL_VALUE
            } else {
                0.0
            };
            for i in 0..n {
                if !observed[i][c] {
                    data[i][c] = column_means[c];
                }
            }
        }

        // Chained-equation cycles.
        for _ in 0..self.config.cycles {
            for target in 0..num_cols {
                let missing_rows: Vec<usize> = (0..n).filter(|&i| !observed[i][target]).collect();
                if missing_rows.is_empty() {
                    continue;
                }
                let observed_rows: Vec<usize> = (0..n).filter(|&i| observed[i][target]).collect();
                if observed_rows.len() < 3 {
                    continue;
                }
                let predictors = select_predictors(
                    &data,
                    &observed_rows,
                    target,
                    num_cols,
                    self.config.predictors_per_column,
                    self.config.threads,
                );
                if predictors.is_empty() {
                    continue;
                }
                if let Some(weights) = ridge_regression(
                    &data,
                    &observed_rows,
                    &predictors,
                    target,
                    self.config.ridge_lambda,
                ) {
                    // Each missing row's prediction reads only frozen data, so
                    // the fan-out is order-preserving and deterministic; the
                    // writes happen serially afterwards. The fan-out is gated
                    // on a row count that amortises the dispatch cost (see
                    // [`crate::gates`]).
                    let threads = if missing_rows.len() < gates::MICE_PREDICTION_MIN_ROWS {
                        1
                    } else {
                        self.config.threads
                    };
                    let predictions = rm_runtime::par_map(threads, &missing_rows, |_, &row| {
                        let mut prediction = weights[0];
                        for (k, &p) in predictors.iter().enumerate() {
                            prediction += weights[k + 1] * data[row][p];
                        }
                        prediction
                    });
                    for (&row, &prediction) in missing_rows.iter().zip(predictions.iter()) {
                        data[row][target] = prediction;
                    }
                }
            }
        }

        // Assemble the result; clamp RSSIs into the physically valid range.
        let fingerprints: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|c| data[i][c].clamp(MNAR_FILL_VALUE, 0.0))
                    .collect()
            })
            .collect();
        let locations: Vec<Option<Point>> = (0..n)
            .map(|i| Some(Point::new(data[i][d], data[i][d + 1])))
            .collect();
        ImputedRadioMap {
            fingerprints,
            locations,
        }
    }

    fn name(&self) -> &'static str {
        "MICE"
    }
}

/// Picks the `limit` columns most correlated (in absolute value) with `target`
/// over the observed rows. The correlation scan — the hot loop of a MICE
/// cycle, `O(num_cols · rows)` per target column — fans out over the
/// candidate columns; the ranking itself stays serial and stable.
fn select_predictors(
    data: &[Vec<f64>],
    rows: &[usize],
    target: usize,
    num_cols: usize,
    limit: usize,
    threads: usize,
) -> Vec<usize> {
    let candidates: Vec<usize> = (0..num_cols).filter(|&c| c != target).collect();
    // Each correlation is an O(rows) scan; fan out only when the total work
    // amortises the pool's dispatch cost (see [`crate::gates`]).
    let threads = if candidates.len() * rows.len() < gates::MICE_PREDICTOR_SCAN_MIN_CELLS {
        1
    } else {
        threads
    };
    let mut correlations: Vec<(f64, usize)> = rm_runtime::par_map(threads, &candidates, |_, &c| {
        (correlation(data, rows, c, target).abs(), c)
    })
    .into_iter()
    .filter(|(r, _)| r.is_finite() && *r > 1e-6)
    .collect();
    correlations.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
    correlations
        .into_iter()
        .take(limit)
        .map(|(_, c)| c)
        .collect()
}

fn correlation(data: &[Vec<f64>], rows: &[usize], a: usize, b: usize) -> f64 {
    let n = rows.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean_a = rows.iter().map(|&i| data[i][a]).sum::<f64>() / n;
    let mean_b = rows.iter().map(|&i| data[i][b]).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for &i in rows {
        let da = data[i][a] - mean_a;
        let db = data[i][b] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a < 1e-12 || var_b < 1e-12 {
        0.0
    } else {
        cov / (var_a.sqrt() * var_b.sqrt())
    }
}

/// Solves a ridge regression of `target` on `predictors` (plus intercept) over
/// `rows` by Gaussian elimination on the normal equations. Returns
/// `[intercept, w_1, …, w_k]`.
fn ridge_regression(
    data: &[Vec<f64>],
    rows: &[usize],
    predictors: &[usize],
    target: usize,
    lambda: f64,
) -> Option<Vec<f64>> {
    let k = predictors.len() + 1; // intercept + predictors
    let mut xtx = vec![vec![0.0f64; k]; k];
    let mut xty = vec![0.0f64; k];
    for &row in rows {
        let mut x = Vec::with_capacity(k);
        x.push(1.0);
        for &p in predictors {
            x.push(data[row][p]);
        }
        let y = data[row][target];
        for i in 0..k {
            xty[i] += x[i] * y;
            for j in 0..k {
                xtx[i][j] += x[i] * x[j];
            }
        }
    }
    for (i, row) in xtx.iter_mut().enumerate().skip(1) {
        row[i] += lambda;
    }
    solve_linear_system(xtx, xty)
}

/// Gaussian elimination with partial pivoting.
fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(Ordering::Equal)
        })?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            for c in col..n {
                a[row][c] -= factor * a[col][c];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for c in (row + 1)..n {
            sum -= a[row][c] * x[c];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_radiomap::{EntryKind, Fingerprint, RadioMapRecord};

    /// Records where AP0 and AP1 are strongly correlated (AP1 = AP0 - 10), and
    /// some AP1 values are MAR-missing.
    fn correlated_map() -> (RadioMap, MaskMatrix) {
        let mut records = Vec::new();
        for i in 0..20 {
            let a = -50.0 - i as f64;
            let b = if i % 4 == 0 { None } else { Some(a - 10.0) };
            records.push(RadioMapRecord::new(
                Fingerprint::new(vec![Some(a), b]),
                Some(Point::new(i as f64, 0.0)),
                i as f64,
                0,
            ));
        }
        let map = RadioMap::new(records, 2);
        let mut mask = MaskMatrix::all_observed(20, 2);
        for i in (0..20).step_by(4) {
            mask.set(i, 1, EntryKind::Mar);
        }
        (map, mask)
    }

    #[test]
    fn mice_exploits_column_correlation() {
        let (map, mask) = correlated_map();
        let out = Mice::default().impute(&map, &mask);
        for i in (0..20).step_by(4) {
            let expected = -50.0 - i as f64 - 10.0;
            let got = out.rssi(i, 1);
            assert!(
                (got - expected).abs() < 3.0,
                "record {i}: imputed {got}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn mice_preserves_observed_values_and_clamps_range() {
        let (map, mask) = correlated_map();
        let out = Mice::default().impute(&map, &mask);
        assert_eq!(out.rssi(1, 0), -51.0);
        for row in &out.fingerprints {
            for &v in row {
                assert!((MNAR_FILL_VALUE..=0.0).contains(&v));
            }
        }
        assert_eq!(Mice::default().name(), "MICE");
    }

    #[test]
    fn mice_imputes_missing_rp_coordinates() {
        let (mut map, mask) = correlated_map();
        // Remove the RP of record 10; MICE should regress it from the RSSI
        // columns (location x correlates perfectly with AP0 here).
        map.records_mut()[10].rp = None;
        let out = Mice::default().impute(&map, &mask);
        let p = out.locations[10].unwrap();
        assert!((p.x - 10.0).abs() < 2.5, "imputed x = {}", p.x);
    }

    #[test]
    fn mice_on_empty_map() {
        let map = RadioMap::empty(3);
        let mask = MaskMatrix::all_observed(0, 3);
        let out = Mice::default().impute(&map, &mask);
        assert!(out.is_empty());
    }

    #[test]
    fn linear_solver_solves_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve_linear_system(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        // Singular system returns None.
        let singular = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert!(solve_linear_system(singular, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn correlation_detects_linear_relation() {
        let data = vec![
            vec![1.0, 2.0, 5.0],
            vec![2.0, 4.0, 1.0],
            vec![3.0, 6.0, 9.0],
            vec![4.0, 8.0, 2.0],
        ];
        let rows: Vec<usize> = (0..4).collect();
        assert!((correlation(&data, &rows, 0, 1) - 1.0).abs() < 1e-9);
        assert!(correlation(&data, &rows, 0, 2).abs() < 0.9);
    }
}
