//! Shared infrastructure for the experiment harness.
//!
//! Every table and figure of the paper's evaluation (Section V) has a binary
//! under `src/bin/` that regenerates it on the synthetic venues; this library
//! provides the common machinery: dataset construction, the evaluation
//! protocol with multiple estimators per imputation, and plain-text table
//! rendering.
//!
//! Scaling knobs (environment variables):
//!
//! * `RM_SCALE`  — venue scale factor in `(0, 1]` (default 0.15, `RM_QUICK=1`
//!   drops it to 0.08),
//! * `RM_EPOCHS` — training epochs of the neural imputers (default 30,
//!   `RM_QUICK=1` drops it to 8; floor of 1 — `RM_EPOCHS=0` is promoted
//!   with a warning),
//! * `RM_BATCH` — training mini-batch size of the recurrent imputers
//!   (default 1 — the classic per-sequence SGD trajectory; larger values
//!   let training fan out over the worker pool, bit-identically at any
//!   thread count, but change which model a fixed seed yields),
//! * `RM_SEED`   — base RNG seed (default 2023),
//! * `RM_PRECISION` — inference precision of the neural imputers: `f64`
//!   (default) or `f32` (single-precision SIMD kernels; see
//!   [`radiomap_core::Precision`]).

use std::sync::OnceLock;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use radiomap_core::prelude::*;
use radiomap_core::{DifferentiatorKind, ImputerKind, PipelineConfig};
use rm_radiomap::DenseRadioMap;

/// The base seed used by the experiment harness (override with `RM_SEED`).
///
/// Resolved **once per process** and cached, like every other env knob
/// (`RM_THREADS`, `RM_EPOCHS`, `RM_BATCH`, `RM_SCALE`): repeated calls can
/// never disagree, and a mid-run `set_var` can never split an experiment
/// across two seeds.
pub fn experiment_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_SEED
        std::env::var("RM_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2023)
    })
}

/// The inference precision used by the experiment harness: `RM_PRECISION`
/// (`f32`/`f64`, case-insensitive) if set and valid, else the `f64` default.
/// This is how CI runs the whole grid in single-precision mode without a
/// second binary. Resolved once per process and cached, like
/// [`experiment_seed`].
pub fn experiment_precision() -> Precision {
    static PRECISION: OnceLock<Precision> = OnceLock::new();
    *PRECISION.get_or_init(|| {
        // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_PRECISION
        std::env::var("RM_PRECISION")
            .ok()
            .and_then(|v| Precision::parse(&v))
            .unwrap_or(Precision::F64)
    })
}

/// Whether `run_all_experiments` should print the experiment index and exit
/// (`RM_INDEX_ONLY=1`). Resolved once per process and cached, like
/// [`experiment_seed`] — a binary-startup flag, but routed through the same
/// accessor pattern so no raw env read survives in the harness.
pub fn index_only() -> bool {
    static INDEX_ONLY: OnceLock<bool> = OnceLock::new();
    *INDEX_ONLY.get_or_init(|| {
        // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_INDEX_ONLY
        std::env::var("RM_INDEX_ONLY")
            .map(|v| v == "1")
            .unwrap_or(false)
    })
}

/// The training mini-batch size used by the experiment harness: the
/// process-cached `RM_BATCH` resolution of the sequence imputers
/// (default 1).
pub fn experiment_batch_size() -> usize {
    rm_imputers::driver::default_batch_size()
}

/// Builds the dataset for a venue preset at the harness scale.
pub fn experiment_dataset(preset: VenuePreset) -> Dataset {
    DatasetSpec::new(preset, experiment_seed()).build()
}

/// Builds the dataset with an RP-record probability override (Fig. 16).
pub fn experiment_dataset_with_rp_density(preset: VenuePreset, rp_probability: f64) -> Dataset {
    DatasetSpec::new(preset, experiment_seed())
        .with_rp_record_probability(rp_probability)
        .build()
}

/// The two Wi-Fi venues used by most experiments.
pub fn wifi_presets() -> [VenuePreset; 2] {
    [VenuePreset::KaideLike, VenuePreset::WandaLike]
}

/// The outcome of one pipeline cell: per-estimator APE plus stage timings.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// APE per estimator, in the order requested.
    pub ape_by_estimator: Vec<(EstimatorKind, f64)>,
    /// Differentiation wall-clock seconds.
    pub differentiation_seconds: f64,
    /// Imputation wall-clock seconds.
    pub imputation_seconds: f64,
    /// Fraction of missing RSSIs classified as MAR.
    pub mar_fraction: Option<f64>,
}

impl CellResult {
    /// The APE of a particular estimator (NaN if missing).
    pub fn ape(&self, kind: EstimatorKind) -> f64 {
        self.ape_by_estimator
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    }
}

/// Runs the Section V-A protocol for one (differentiator, imputer) pair and
/// evaluates *all* requested estimators on the same imputed map (Table VI
/// evaluates three estimators per imputer, so imputing once per estimator
/// would triple the cost for no benefit). Internal fan-outs (imputer column
/// loops, positioning queries) run at the default width (`RM_THREADS`, else
/// available parallelism); use [`run_cell_with_threads`] to bound them.
pub fn run_cell(
    dataset: &Dataset,
    differentiator: DifferentiatorKind,
    imputer: ImputerKind,
    estimators: &[EstimatorKind],
    attention: AttentionMode,
    time_lag: TimeLagMode,
    removal_ratio_alpha: f64,
    eta: f64,
) -> CellResult {
    run_cell_with_threads(
        dataset,
        differentiator,
        imputer,
        estimators,
        attention,
        time_lag,
        removal_ratio_alpha,
        eta,
        0,
    )
}

/// [`run_cell`] with an explicit thread count for the cell's internal
/// fan-outs (`0` = auto, `1` = fully serial). Results are bit-identical at
/// any value.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_with_threads(
    dataset: &Dataset,
    differentiator: DifferentiatorKind,
    imputer: ImputerKind,
    estimators: &[EstimatorKind],
    attention: AttentionMode,
    time_lag: TimeLagMode,
    removal_ratio_alpha: f64,
    eta: f64,
    threads: usize,
) -> CellResult {
    let seed = experiment_seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    // Optional α-removal (Fig. 12): nullify a fraction of the observed RSSIs
    // before differentiation.
    let map = if removal_ratio_alpha > 0.0 {
        remove_random_rssis(&dataset.radio_map, removal_ratio_alpha, &mut rng).0
    } else {
        dataset.radio_map.clone()
    };

    // Hold out 10 % of the RP-observed records as online test queries.
    let (_, test_indices) = rm_radiomap::split_test_records(&map, 0.1, &mut rng);
    let ground_truth: Vec<(usize, Point)> = test_indices
        .iter()
        .map(|&i| (i, map.record(i).rp.expect("test records have RPs")))
        .collect();
    let mut working = map.clone();
    for &(i, _) in &ground_truth {
        working.records_mut()[i].rp = None;
    }

    let config = PipelineConfig {
        differentiator,
        imputer,
        eta,
        attention,
        time_lag,
        seed,
        threads,
        precision: experiment_precision(),
        ..PipelineConfig::default()
    };
    let pipeline = radiomap_core::ImputationPipeline::new(config);

    let diff_start = Instant::now();
    let mask = pipeline.differentiate(&working, &dataset.venue.walls);
    let differentiation_seconds = diff_start.elapsed().as_secs_f64();
    let mar_fraction = mask.mar_fraction();

    let imputer_impl = imputer.build_with(&pipeline.build_options(seed));
    let imp_start = Instant::now();
    let imputed = imputer_impl.impute(&working, &mask);
    let imputation_seconds = imp_start.elapsed().as_secs_f64();

    // Training radio map: everything except the test records. Sorted-slice
    // membership instead of a hash set keeps the deterministic path free of
    // unordered structures (same O(log n) lookup).
    let mut test_set: Vec<usize> = test_indices.to_vec();
    test_set.sort_unstable();
    let mut fingerprints = Vec::new();
    let mut locations = Vec::new();
    for i in 0..imputed.len() {
        if test_set.binary_search(&i).is_ok() {
            continue;
        }
        if let Some(loc) = imputed.locations[i] {
            fingerprints.push(imputed.fingerprints[i].clone());
            locations.push(loc);
        }
    }
    let dense = DenseRadioMap::new(fingerprints, locations, map.num_aps());
    let queries: Vec<TestQuery> = ground_truth
        .iter()
        .map(|&(i, location)| TestQuery {
            fingerprint: imputed.fingerprints[i].clone(),
            location,
        })
        .collect();

    let ape_by_estimator = estimators
        .iter()
        .map(|&kind| {
            let estimator = kind.build_threads(dense.clone(), 3, threads);
            let ape =
                rm_positioning::evaluate_estimator_threads(estimator.as_ref(), &queries, threads)
                    .unwrap_or(f64::NAN);
            (kind, ape)
        })
        .collect();

    CellResult {
        ape_by_estimator,
        differentiation_seconds,
        imputation_seconds,
        mar_fraction,
    }
}

/// Runs a whole grid of `(differentiator, imputer)` cells through
/// [`run_cell_with_threads`], fanning the cells out over the deterministic
/// `rm-runtime` pool (`threads = 0` means auto — `RM_THREADS`, else
/// available parallelism). The same `threads` value bounds the per-cell
/// internal fan-outs, so `threads = 1` really is the fully serial path
/// (inside pool workers the inner fan-outs degrade to serial on their own).
/// Cells are independent experiments sharing one read-only dataset, so the
/// results are returned in cell order and are bit-identical to calling
/// [`run_cell`] serially for each cell.
pub fn run_grid(
    dataset: &Dataset,
    cells: &[(DifferentiatorKind, ImputerKind)],
    estimators: &[EstimatorKind],
    threads: usize,
) -> Vec<CellResult> {
    rm_runtime::par_map(threads, cells, |_, &(differentiator, imputer)| {
        run_cell_with_threads(
            dataset,
            differentiator,
            imputer,
            estimators,
            AttentionMode::SparsityFriendly,
            TimeLagMode::Encoder,
            0.0,
            0.1,
            threads,
        )
    })
}

/// Runs only differentiation + imputation on a perturbed map and returns the
/// imputed map (used by the β-removal experiments of Fig. 14/15).
pub fn impute_only(
    map: &RadioMap,
    topology: &MultiPolygon,
    differentiator: DifferentiatorKind,
    imputer: ImputerKind,
) -> ImputedRadioMap {
    let seed = experiment_seed();
    let config = PipelineConfig {
        differentiator,
        imputer,
        seed,
        ..PipelineConfig::default()
    };
    radiomap_core::ImputationPipeline::new(config)
        .impute(map, topology)
        .0
}

/// A simple fixed-width text table accumulated row by row and printed to
/// stdout; every experiment binary emits one (or more) of these, mirroring the
/// corresponding table or figure of the paper.
pub struct ReportTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ReportTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with two decimals, rendering NaN as `n/a`.
pub fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "n/a".to_string()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use super::*;

    /// Serialises the tests that mutate process-wide environment variables
    /// (`RM_SCALE`, `RM_QUICK`) so they cannot race each other under the
    /// parallel test runner.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Holds the lock and restores the captured variables on drop, so a
    /// failing assertion cannot leak quick-mode settings into later tests.
    struct EnvGuard {
        _lock: MutexGuard<'static, ()>,
        saved: Vec<(&'static str, Option<String>)>,
    }

    fn env_guard(vars: &[&'static str]) -> EnvGuard {
        EnvGuard {
            _lock: ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner),
            saved: vars
                .iter()
                // rm-lint: allow(no-raw-env-read): snapshots variables so the guard can restore them — not a knob resolution
                .map(|&name| (name, std::env::var(name).ok()))
                .collect(),
        }
    }

    impl Drop for EnvGuard {
        fn drop(&mut self) {
            for (name, value) in &self.saved {
                match value {
                    Some(v) => std::env::set_var(name, v),
                    None => std::env::remove_var(name),
                }
            }
        }
    }

    #[test]
    fn report_table_renders_all_rows() {
        let mut t = ReportTable::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into(), "2.50".into()]);
        t.add_row(vec!["long-name".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-name"));
        assert!(s.contains("2.50"));
    }

    #[test]
    fn fmt_handles_nan() {
        assert_eq!(fmt(f64::NAN), "n/a");
        assert_eq!(fmt(1.005), "1.00");
    }

    /// A small explicit scale keeps the test fast without mutating the
    /// process environment: `RM_SCALE` is resolved once per process and
    /// cached, so tests pass explicit values instead of `set_var`.
    fn test_dataset(preset: VenuePreset) -> Dataset {
        DatasetSpec::new(preset, experiment_seed())
            .with_scale(0.05)
            .build()
    }

    #[test]
    fn run_cell_with_fast_imputer() {
        let dataset = test_dataset(VenuePreset::KaideLike);
        let cell = run_cell(
            &dataset,
            DifferentiatorKind::MnarOnly,
            ImputerKind::LinearInterpolation,
            &[EstimatorKind::Wknn, EstimatorKind::Knn],
            AttentionMode::SparsityFriendly,
            TimeLagMode::Encoder,
            0.0,
            0.1,
        );
        assert_eq!(cell.ape_by_estimator.len(), 2);
        assert!(cell.ape(EstimatorKind::Wknn).is_finite());
        assert!(cell.ape(EstimatorKind::RandomForest).is_nan());
    }

    #[test]
    fn run_grid_is_bit_identical_to_serial_cells() {
        let dataset = test_dataset(VenuePreset::KaideLike);
        let cells = [
            (
                DifferentiatorKind::MnarOnly,
                ImputerKind::LinearInterpolation,
            ),
            (DifferentiatorKind::MarOnly, ImputerKind::CaseDeletion),
            (DifferentiatorKind::MnarOnly, ImputerKind::SemiSupervised),
        ];
        let estimators = [EstimatorKind::Wknn];
        let parallel = run_grid(&dataset, &cells, &estimators, 3);
        let serial = run_grid(&dataset, &cells, &estimators, 1);
        assert_eq!(parallel.len(), cells.len());
        for (p, s) in parallel.iter().zip(serial.iter()) {
            assert_eq!(
                p.ape(EstimatorKind::Wknn).to_bits(),
                s.ape(EstimatorKind::Wknn).to_bits()
            );
        }
    }

    /// Smoke test for the harness itself: under `RM_QUICK=1`, dataset
    /// construction and one full evaluate round (including a neural imputer at
    /// its quick epoch count) complete without panicking.
    ///
    /// `RM_QUICK` must be set *before* the first `default_epochs` resolution
    /// in this process — the knob is cached once, by design. This test is the
    /// only caller in the rm-bench test binary, so priming it under the guard
    /// here is sound; the dataset scale is passed explicitly (the scale cache
    /// may already be resolved by the other tests).
    #[test]
    fn quick_mode_dataset_and_evaluate_round_complete() {
        let _guard = env_guard(&["RM_QUICK"]);
        std::env::set_var("RM_QUICK", "1");

        let dataset = test_dataset(VenuePreset::KaideLike);
        assert!(
            !dataset.radio_map.is_empty(),
            "quick dataset must be non-empty"
        );
        assert!(dataset.radio_map.num_aps() > 0);

        let cell = run_cell(
            &dataset,
            DifferentiatorKind::MnarOnly,
            ImputerKind::Brits,
            &[EstimatorKind::Wknn],
            AttentionMode::SparsityFriendly,
            TimeLagMode::Encoder,
            0.0,
            0.1,
        );
        assert_eq!(cell.ape_by_estimator.len(), 1);
        assert!(cell.ape(EstimatorKind::Wknn).is_finite());
        assert!(cell.differentiation_seconds >= 0.0);
        assert!(cell.imputation_seconds >= 0.0);
    }
}
