//! Radio-map data imputers.
//!
//! Every imputer consumes a sparse [`RadioMap`] together with the
//! [`MaskMatrix`] produced by a missing-RSSI differentiator, fills the
//! MNAR entries with −100 dBm, and produces a fully dense radio map
//! (fingerprints and locations). The baselines of the paper's evaluation
//! (Section V-C) are implemented here:
//!
//! * [`CaseDeletion`] (CD), [`LinearInterpolation`] (LI) and
//!   [`SemiSupervised`] (SL) — traditional imputers used in fingerprinting,
//! * [`Mice`] and [`MatrixFactorization`] (MF) — autocorrelation-based
//!   imputers,
//! * [`Brits`] and [`Ssgan`] — neural sequence imputers.
//!
//! The paper's own model, BiSIM, lives in the `rm-bisim` crate and implements
//! the same [`Imputer`] trait. BRITS, SSGAN and BiSIM run cold training, warm
//! start and snapshot export through one driver ([`driver::run`]).

pub mod brits;
pub mod driver;
pub mod mf;
pub mod mice;
pub mod rits;
pub mod sequence;
pub mod simple;
pub mod snapshot;
pub mod ssgan;
pub mod train;

/// Minimum-work gates below which the imputers' internal fan-outs stay
/// serial.
///
/// A fan-out only pays off once the work per call amortises the dispatch
/// cost. The PR 2 gates were sized against *scoped thread spawning* (~24–48
/// µs round-trip for a small 2-wide `par_map`, `par_map_*_scoped_t2` in
/// `bench_runtime`); the persistent pool in `rm-runtime` cut that to ≤~3 µs
/// (`par_map_*_pool_t2`: 64-item map 38.91 → 3.06 µs, 8-item 33.31 → 0.96
/// µs on the shipped implementation — a ~13–35× reduction; all recorded
/// runs live in `BENCH_baseline.json` `pr4`), so each gate below is lowered
/// by roughly an order of magnitude, keeping the same safety margin of
/// ~5–10× dispatch cost worth of work behind every fork. Changing a gate never changes results, only
/// which side of the serial/parallel fork runs: both sides are bit-identical
/// by the `rm-runtime` determinism contract.
pub mod gates {
    /// [`Mice`](crate::Mice) predictor selection fans the per-candidate
    /// correlation scans out only when `candidate_columns × observed_rows`
    /// reaches this many cells (each cell is a handful of flops, ~2–5 ns;
    /// the product approximates the total scan work). 8_192 cells ≈ 20–40 µs
    /// of work ≈ 6–10× the ~3.7 µs pool dispatch; the scoped-spawn era value
    /// was 65_536.
    pub const MICE_PREDICTOR_SCAN_MIN_CELLS: usize = 8_192;

    /// [`Mice`](crate::Mice) fans the per-row ridge predictions out only for
    /// at least this many missing rows (a prediction is ~0.1 µs of
    /// multiply-adds). 128 rows ≈ 13 µs ≈ 3.5× the pool dispatch — the
    /// 2-wide break-even is ~2× — where the scoped-spawn era needed 512.
    pub const MICE_PREDICTION_MIN_ROWS: usize = 128;
}

pub use brits::{snapshot_resident_bytes, Brits, BritsConfig, BritsTape};
pub use mf::{MatrixFactorization, MatrixFactorizationConfig};
pub use mice::{Mice, MiceConfig};
pub use rits::{RecurrentImputerWeights, RitsTape, Schedule};
pub use sequence::{build_sequences, sweep, Normalization, PathSequence};
pub use simple::{CaseDeletion, LinearInterpolation, SemiSupervised};
pub use ssgan::{Ssgan, SsganConfig, SsganTape};
pub use train::{train_pairs, Adam, Gradients, Parameters, Training};

use rm_geometry::Point;
use rm_radiomap::{DenseRadioMap, EntryKind, MaskMatrix, RadioMap, MNAR_FILL_VALUE};

/// The output of an imputer: a dense fingerprint per input record and, where
/// the imputer supports it, a location per input record. Record indices match
/// the input radio map.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputedRadioMap {
    /// Dense fingerprints, one per input record.
    pub fingerprints: Vec<Vec<f64>>,
    /// Imputed (or passed-through) locations; `None` when the imputer does not
    /// impute that record's location (e.g. case deletion).
    pub locations: Vec<Option<Point>>,
}

impl ImputedRadioMap {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Returns `true` when there are no records.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// The imputed RSSI of `(record, ap)`.
    pub fn rssi(&self, record: usize, ap: usize) -> f64 {
        self.fingerprints[record][ap]
    }

    /// Converts the result into a [`DenseRadioMap`] containing only the
    /// records that have a location — the radio map used by the online
    /// location-estimation algorithms.
    pub fn to_dense(&self, num_aps: usize) -> DenseRadioMap {
        let mut fingerprints = Vec::new();
        let mut locations = Vec::new();
        for (f, l) in self.fingerprints.iter().zip(self.locations.iter()) {
            if let Some(loc) = l {
                fingerprints.push(f.clone());
                locations.push(*loc);
            }
        }
        DenseRadioMap::new(fingerprints, locations, num_aps)
    }
}

/// A radio-map data imputer.
pub trait Imputer {
    /// Imputes the missing RSSIs and reference points of `map`, guided by the
    /// differentiator's `mask` (MNAR entries are filled with −100 dBm, MAR
    /// entries with model predictions).
    fn impute(&self, map: &RadioMap, mask: &MaskMatrix) -> ImputedRadioMap;

    /// Like [`Imputer::impute`], but additionally exports the trained
    /// inference snapshot as a flat list of named tensors — the weights a
    /// serving artifact persists alongside the imputed map. Imputers without
    /// a trained snapshot (the traditional baselines) return an empty list;
    /// model-based imputers export exactly the bits their inference path
    /// keeps resident (at the configured precision), so a decoded artifact
    /// reproduces the serving model bit for bit.
    fn impute_with_snapshot(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
    ) -> (ImputedRadioMap, Vec<rm_tensor::NamedTensor>) {
        (self.impute(map, mask), Vec::new())
    }

    /// Warm-start hook next to [`Imputer::impute_with_snapshot`]: resumes
    /// from a previously exported tensor snapshot instead of training from
    /// scratch.
    ///
    /// `warm` is a snapshot previously returned by
    /// [`Imputer::impute_with_snapshot`] (or this method) for a model of the
    /// same architecture. `fine_tune_epochs` bounds the additional training:
    /// `0` means pure inference replay — decode the weights and impute with
    /// them as-is, bit-identical to the run that exported them when the map
    /// is unchanged — while `n > 0` resumes mini-batch training for `n`
    /// epochs from the imported weights (a fresh optimizer; cheap
    /// incremental refresh, not a bitwise replay of longer training).
    ///
    /// The default implementation — and any imputer handed an empty,
    /// foreign, or shape-incompatible snapshot — falls back to the cold
    /// [`Imputer::impute_with_snapshot`] path, so warm-starting is always
    /// safe to attempt.
    fn impute_warm(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
        warm: &[rm_tensor::NamedTensor],
        fine_tune_epochs: usize,
    ) -> (ImputedRadioMap, Vec<rm_tensor::NamedTensor>) {
        let _ = (warm, fine_tune_epochs);
        self.impute_with_snapshot(map, mask)
    }

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Fills the MNAR entries of every fingerprint with −100 dBm and returns the
/// resulting partially-dense matrix as `Option<f64>` values: MNARs and
/// observed entries are `Some`, MAR entries stay `None` for the model-based
/// imputers to predict.
pub fn fill_mnars(map: &RadioMap, mask: &MaskMatrix) -> Vec<Vec<Option<f64>>> {
    map.records()
        .iter()
        .enumerate()
        .map(|(i, record)| {
            (0..map.num_aps())
                .map(|ap| match record.fingerprint.get(ap) {
                    Some(v) => Some(v),
                    None => match mask.get(i, ap) {
                        EntryKind::Mnar => Some(MNAR_FILL_VALUE),
                        _ => None,
                    },
                })
                .collect()
        })
        .collect()
}

/// Fills every remaining missing entry of `values` with `fill` — the final
/// fallback used by imputers that do not predict certain entries.
pub fn densify(values: &[Vec<Option<f64>>], fill: f64) -> Vec<Vec<f64>> {
    values
        .iter()
        .map(|row| row.iter().map(|v| v.unwrap_or(fill)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_radiomap::{Fingerprint, RadioMapRecord};

    fn map_and_mask() -> (RadioMap, MaskMatrix) {
        let records = vec![
            RadioMapRecord::new(
                Fingerprint::new(vec![Some(-70.0), None]),
                Some(Point::new(0.0, 0.0)),
                0.0,
                0,
            ),
            RadioMapRecord::new(Fingerprint::new(vec![None, None]), None, 1.0, 0),
        ];
        let map = RadioMap::new(records, 2);
        let mut mask = MaskMatrix::all_observed(2, 2);
        mask.set(0, 1, EntryKind::Mar);
        mask.set(1, 0, EntryKind::Mnar);
        mask.set(1, 1, EntryKind::Mar);
        (map, mask)
    }

    #[test]
    fn fill_mnars_fills_only_mnars() {
        let (map, mask) = map_and_mask();
        let filled = fill_mnars(&map, &mask);
        assert_eq!(filled[0][0], Some(-70.0));
        assert_eq!(filled[0][1], None); // MAR stays open
        assert_eq!(filled[1][0], Some(MNAR_FILL_VALUE));
        assert_eq!(filled[1][1], None);
    }

    #[test]
    fn densify_fills_remaining_nulls() {
        let (map, mask) = map_and_mask();
        let dense = densify(&fill_mnars(&map, &mask), -88.0);
        assert_eq!(dense[0][1], -88.0);
        assert_eq!(dense[1][0], MNAR_FILL_VALUE);
    }

    #[test]
    fn imputed_map_to_dense_drops_locationless_records() {
        let imputed = ImputedRadioMap {
            fingerprints: vec![vec![-70.0, -80.0], vec![-60.0, -90.0]],
            locations: vec![Some(Point::new(1.0, 2.0)), None],
        };
        assert_eq!(imputed.len(), 2);
        assert_eq!(imputed.rssi(1, 0), -60.0);
        let dense = imputed.to_dense(2);
        assert_eq!(dense.len(), 1);
        assert_eq!(dense.locations()[0], Point::new(1.0, 2.0));
    }
}
