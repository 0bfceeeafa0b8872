//! The one cold/warm/export driver of the sequence imputers (BRITS, SSGAN
//! and BiSIM).
//!
//! A model says only what sets it apart ([`SequenceModel`]): its weights,
//! their fresh draw, import and export, the reversed sequences it reads,
//! and how it trains, infers and passes a map through. [`run`] holds the
//! policy they share:
//!
//! 1. slice the map into sequences; a map without a sequence or without an
//!    AP gets the model's passthrough and no tensors;
//! 2. import the warm snapshot when one is given and fits this map, else
//!    draw fresh weights (an unusable snapshot falls back to cold training);
//! 3. train for the configured epochs from fresh weights, or for the
//!    fine-tune epochs from imported ones (`0` replays the snapshot);
//! 4. impute with the weights and export them at the inference precision.
//!
//! Importing widens every stored dtype losslessly to `f64` and inference
//! re-applies the one-time rounding of the exporting run, so a replay on an
//! unchanged map is bit-identical to the run that exported the snapshot.

use std::sync::OnceLock;

use rm_radiomap::{MaskMatrix, RadioMap};
use rm_tensor::NamedTensor;

use crate::sequence::{build_sequences, Normalization, PathSequence};
use crate::ImputedRadioMap;

/// What one sequence imputer adds to the shared driver ([`run`]).
pub trait SequenceModel {
    /// The trained weights.
    type Weights;

    /// The length `T` the map's paths are sliced into.
    fn sequence_length(&self) -> usize;

    /// The training epochs from fresh weights.
    fn epochs(&self) -> usize;

    /// Fresh weights for a `num_aps`-AP map, drawn from
    /// `StdRng::seed_from_u64` of the configured seed.
    fn fresh(&self, num_aps: usize) -> Self::Weights;

    /// The weights of a snapshot, or `None` when it lacks a tensor or is
    /// shaped for another map or architecture.
    fn import(&self, warm: &[NamedTensor], num_aps: usize) -> Option<Self::Weights>;

    /// The weights as named tensors at the inference precision.
    fn export(&self, weights: &Self::Weights) -> Vec<NamedTensor>;

    /// The reversed sequences a backward direction reads; empty for a
    /// one-directional model.
    fn reverse(&self, sequences: &[PathSequence], norm: &Normalization) -> Vec<PathSequence>;

    /// Trains `weights` in place for `epochs` epochs under a fresh optimizer.
    fn train(&self, weights: &mut Self::Weights, inputs: &Inputs, epochs: usize);

    /// The imputed map from trained weights.
    fn infer(
        &self,
        weights: &Self::Weights,
        inputs: &Inputs,
        map: &RadioMap,
        mask: &MaskMatrix,
    ) -> ImputedRadioMap;

    /// The imputed map when there is nothing to train on.
    fn passthrough(map: &RadioMap) -> ImputedRadioMap;
}

/// What a model trains and infers on.
pub struct Inputs {
    /// The map's normalisation.
    pub norm: Normalization,
    /// The map's sequences.
    pub sequences: Vec<PathSequence>,
    /// [`SequenceModel::reverse`] of the sequences.
    pub reversed: Vec<PathSequence>,
}

/// Imputes `map` with `model` (see the module doc): cold when `warm` is
/// `None`, else from the snapshot `warm.0` with `warm.1` fine-tune epochs.
/// Returns the imputed map and the exported weights.
pub fn run<M: SequenceModel>(
    model: &M,
    map: &RadioMap,
    mask: &MaskMatrix,
    warm: Option<(&[NamedTensor], usize)>,
) -> (ImputedRadioMap, Vec<NamedTensor>) {
    let num_aps = map.num_aps();
    let norm = Normalization::from_map(map);
    let sequences = build_sequences(map, mask, model.sequence_length(), &norm);
    if sequences.is_empty() || num_aps == 0 {
        return (M::passthrough(map), Vec::new());
    }
    let imported =
        warm.and_then(|(tensors, epochs)| Some((model.import(tensors, num_aps)?, epochs)));
    let (mut weights, epochs) = imported.unwrap_or_else(|| (model.fresh(num_aps), model.epochs()));
    let reversed = model.reverse(&sequences, &norm);
    let inputs = Inputs {
        norm,
        sequences,
        reversed,
    };
    if epochs > 0 {
        model.train(&mut weights, &inputs, epochs);
    }
    (
        model.infer(&weights, &inputs, map, mask),
        model.export(&weights),
    )
}

/// Default epoch count for the neural imputers; honouring `RM_EPOCHS` lets the
/// experiment harness trade training time for accuracy, and `RM_QUICK=1`
/// selects a fast smoke-test setting.
///
/// The value is resolved **once per process** and cached (like the
/// `RM_THREADS` resolution in `rm-runtime`), so repeated calls can never
/// disagree and concurrent tests can never observe a mid-run environment
/// change. `RM_EPOCHS` has a floor of 1 — zero epochs would return an
/// untrained model — and a request of `0` is promoted to 1 with a one-time
/// warning on stderr.
#[allow(clippy::disallowed_methods)] // audited env reads; see the rm-lint allows inside
pub fn default_epochs() -> usize {
    static EPOCHS: OnceLock<usize> = OnceLock::new();
    *EPOCHS.get_or_init(|| {
        // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_EPOCHS
        if let Ok(v) = std::env::var("RM_EPOCHS") {
            if let Ok(parsed) = v.parse::<usize>() {
                if parsed == 0 {
                    eprintln!(
                        "[rm-imputers] warning: RM_EPOCHS=0 is below the floor of 1 \
                         training epoch; running 1 epoch instead"
                    );
                }
                return parsed.max(1);
            }
        }
        // rm-lint: allow(no-raw-env-read): RM_QUICK is folded into the same cached RM_EPOCHS resolution
        if std::env::var("RM_QUICK").map(|v| v == "1").unwrap_or(false) {
            8
        } else {
            30
        }
    })
}

/// Default training mini-batch size for the sequence imputers: the
/// `RM_BATCH` environment variable if set to a positive integer, else `1`
/// (the classic per-sequence SGD trajectory). Resolved once per process and
/// cached, like [`default_epochs`]; `RM_BATCH=0` is promoted to 1 with a
/// one-time warning.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn default_batch_size() -> usize {
    static BATCH: OnceLock<usize> = OnceLock::new();
    *BATCH.get_or_init(|| {
        // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_BATCH
        if let Ok(v) = std::env::var("RM_BATCH") {
            if let Ok(parsed) = v.parse::<usize>() {
                if parsed == 0 {
                    eprintln!(
                        "[rm-imputers] warning: RM_BATCH=0 is below the floor of a \
                         1-sequence training batch; using batch_size = 1 instead"
                    );
                }
                return parsed.max(1);
            }
        }
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brits::passthrough;
    use crate::brits::tests::smooth_map;
    use crate::{Brits, BritsConfig, Imputer, Ssgan, SsganConfig};
    use rm_geometry::Point;
    use rm_radiomap::{Fingerprint, RadioMapRecord};

    /// Every RSSI and location of an imputed map, as bits.
    fn bits(map: &ImputedRadioMap) -> (Vec<Vec<u64>>, Vec<Option<[u64; 2]>>) {
        let rows = map.fingerprints.iter();
        let point = |p: Point| [p.x.to_bits(), p.y.to_bits()];
        (
            rows.map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect(),
            map.locations.iter().map(|l| l.map(point)).collect(),
        )
    }

    /// Maps with nothing to train on: no record, and records without an AP
    /// (one of them missing its RP).
    fn nothing_to_train_on() -> [(RadioMap, MaskMatrix); 2] {
        let records = (0..6)
            .map(|i| {
                let rp = (i != 2).then(|| Point::new(i as f64, 0.0));
                RadioMapRecord::new(Fingerprint::new(Vec::new()), rp, i as f64, 0)
            })
            .collect();
        [
            (RadioMap::empty(2), MaskMatrix::all_observed(0, 2)),
            (RadioMap::new(records, 0), MaskMatrix::all_observed(6, 0)),
        ]
    }

    /// The driver's edges for BRITS and SSGAN: `impute` is
    /// `impute_with_snapshot`'s map bit for bit, and on a map with nothing
    /// to train on even a usable snapshot yields the cold passthrough and
    /// no tensors.
    #[test]
    fn driver_edges_hold_for_brits_and_ssgan() {
        let brits = Brits::new(BritsConfig {
            hidden_size: 8,
            epochs: 2,
            ..BritsConfig::default()
        });
        let ssgan = Ssgan::new(SsganConfig {
            hidden_size: 8,
            discriminator_hidden: 8,
            epochs: 2,
            ..SsganConfig::default()
        });
        let models: [&dyn Imputer; 2] = [&brits, &ssgan];
        let (map, mask) = smooth_map();
        for model in models {
            let name = model.name();
            let (cold, tensors) = model.impute_with_snapshot(&map, &mask);
            assert!(!tensors.is_empty(), "{name}");
            assert_eq!(bits(&model.impute(&map, &mask)), bits(&cold), "{name}");
            for (idle, idle_mask) in nothing_to_train_on() {
                let (out, exported) = model.impute_warm(&idle, &idle_mask, &tensors, 3);
                assert!(exported.is_empty(), "{name}");
                assert_eq!(out.len(), idle.len(), "{name}");
                assert_eq!(bits(&out), bits(&passthrough(&idle)), "{name}");
                let (cold, exported) = model.impute_with_snapshot(&idle, &idle_mask);
                assert!(exported.is_empty(), "{name}");
                assert_eq!(bits(&out), bits(&cold), "{name}");
            }
        }
    }

    #[test]
    fn default_epochs_respects_env() {
        // Just exercise the parsing path; the value depends on the environment.
        let e = default_epochs();
        assert!(e >= 1);
        // The process-level cache makes repeated reads agree by construction.
        assert_eq!(e, default_epochs());
        let b = default_batch_size();
        assert!(b >= 1);
        assert_eq!(b, default_batch_size());
    }
}
