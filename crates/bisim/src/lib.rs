//! BiSIM — the Bi-directional Sequence-to-Sequence Imputation Model
//! (Section IV of the paper).
//!
//! BiSIM jointly imputes MAR RSSIs (the source/fingerprint sequence) and
//! missing reference points (the target/RP sequence) for each survey path.
//! The encoder consumes the fingerprint sequence with a time-lag decay
//! mechanism; the decoder reconstructs the RP sequence with a
//! sparsity-friendly attention over the encoder latents; both directions of
//! each sequence are processed and averaged. Training minimises the
//! reconstruction error on observed values plus a forward/backward
//! cross-consistency term (Section IV-D).
//!
//! The [`Bisim`] type implements the same [`Imputer`] trait as the baselines
//! in `rm-imputers`, so the experiment harness can swap imputers freely.

pub mod model;

pub use model::{
    AttentionMode, BisimDirection, BisimDirectionWeights, BisimMatrixPass, BisimPass, TimeLagMode,
};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_geometry::Point;
use rm_imputers::brits::{default_batch_size, default_epochs};
use rm_imputers::{build_sequences, ImputedRadioMap, Imputer, Normalization, PathSequence};
use rm_nn::{loss, Adam};
use rm_radiomap::{EntryKind, MaskMatrix, RadioMap, MNAR_FILL_VALUE};
use rm_tensor::{Matrix, NamedTensor, Precision, Scalar, Var, Workspace};

/// Configuration of the BiSIM imputer.
#[derive(Debug, Clone)]
pub struct BisimConfig {
    /// Latent vector length of the encoder/decoder units (64 in the paper).
    pub hidden_size: usize,
    /// Number of training epochs (500 in the paper; reduced by default for the
    /// CPU-only reproduction, override with `RM_EPOCHS`).
    pub epochs: usize,
    /// Adam learning rate (0.001 in the paper; slightly higher here because
    /// the training sets are smaller).
    pub learning_rate: f64,
    /// Sequence length `T` (5 in the paper).
    pub sequence_length: usize,
    /// Attention variant (Fig. 17 ablation).
    pub attention: AttentionMode,
    /// Time-lag variant (Fig. 18 ablation).
    pub time_lag: TimeLagMode,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the training-batch fan-outs (`0` = auto). Results
    /// are bit-identical at any thread count.
    pub threads: usize,
    /// Mini-batch size of the training loop (see
    /// [`rm_imputers::BritsConfig::batch_size`] for the determinism
    /// contract). The default of 1 reproduces the classic per-sequence-pair
    /// trajectory bitwise.
    pub batch_size: usize,
    /// Precision of the inference pass. Training always runs at `f64`;
    /// [`Precision::F32`] rounds the trained snapshots to f32 once and runs
    /// every sequence pair through the f32 kernels. [`Precision::F64`] —
    /// the default — is bit-identical to the pre-precision-axis pipeline
    /// (the snapshot pass mirrors the graph pass operation for operation).
    /// Either setting is bit-identical across thread counts.
    pub precision: Precision,
}

impl Default for BisimConfig {
    fn default() -> Self {
        Self {
            hidden_size: 32,
            epochs: default_epochs(),
            learning_rate: 0.01,
            sequence_length: 5,
            attention: AttentionMode::SparsityFriendly,
            time_lag: TimeLagMode::Encoder,
            seed: 71,
            threads: 0,
            batch_size: default_batch_size(),
            precision: Precision::F64,
        }
    }
}

/// The BiSIM imputer.
#[derive(Default)]
pub struct Bisim {
    /// Training configuration.
    pub config: BisimConfig,
}

impl Bisim {
    /// Creates a BiSIM imputer with the given configuration.
    pub fn new(config: BisimConfig) -> Self {
        Self { config }
    }

    /// The overall loss of Section IV-D for one sequence pair:
    /// `L_forward + L_backward + L_cross`, each a masked MSE over observed
    /// fingerprints and RPs.
    fn sequence_loss(
        seq: &PathSequence,
        rev: &PathSequence,
        forward: &BisimPass,
        backward: &BisimPass,
    ) -> Var {
        let len = seq.len();
        let mut total = Var::scalar(0.0);
        for t in 0..len {
            let rt = len - 1 - t;
            let fp_target = Matrix::column(&seq.fingerprints[t]);
            let fp_mask = Matrix::column(&seq.fingerprint_masks[t]);
            let rp_target = Matrix::column(&[seq.rps[t].0, seq.rps[t].1]);
            let rp_mask = Matrix::column(&[seq.rp_masks[t], seq.rp_masks[t]]);

            // Forward reconstruction.
            total = total.add(&loss::masked_mse(
                &forward.fingerprint_estimates[t],
                &fp_target,
                &fp_mask,
            ));
            total = total.add(&loss::masked_mse(
                &forward.rp_estimates[t],
                &rp_target,
                &rp_mask,
            ));
            // Backward reconstruction (the reversed sequence's step rt is record t).
            let fp_target_b = Matrix::column(&rev.fingerprints[rt]);
            let fp_mask_b = Matrix::column(&rev.fingerprint_masks[rt]);
            let rp_target_b = Matrix::column(&[rev.rps[rt].0, rev.rps[rt].1]);
            let rp_mask_b = Matrix::column(&[rev.rp_masks[rt], rev.rp_masks[rt]]);
            total = total.add(&loss::masked_mse(
                &backward.fingerprint_estimates[rt],
                &fp_target_b,
                &fp_mask_b,
            ));
            total = total.add(&loss::masked_mse(
                &backward.rp_estimates[rt],
                &rp_target_b,
                &rp_mask_b,
            ));
            // Cross consistency between the two directions at the same record.
            total = total.add(&loss::masked_mse_between(
                &forward.fingerprint_estimates[t],
                &backward.fingerprint_estimates[rt],
                &fp_mask,
            ));
            total = total.add(&loss::masked_mse_between(
                &forward.rp_estimates[t],
                &backward.rp_estimates[rt],
                &rp_mask,
            ));
        }
        total.scale(1.0 / len.max(1) as f64)
    }
}

/// Differentiates the Section IV-D loss of one `(sequence, reversed)` pair,
/// accumulating into the models' parameter gradients, then returns the
/// pair's graph to the per-worker node arena. The gradient buffers must be
/// zero on entry: freshly rebuilt replicas
/// ([`BisimDirectionWeights::to_model`]) start zeroed, and the live-graph
/// path of `train_in_batches` zeroes through its optimizer.
fn pair_backward(
    forward: &BisimDirection,
    backward: &BisimDirection,
    seq: &PathSequence,
    rev: &PathSequence,
) {
    let fwd = forward.run(seq);
    let bwd = backward.run(rev);
    let loss = Bisim::sequence_loss(seq, rev, &fwd, &bwd);
    loss.backward();
    // Return the pair's graph — both passes, the loss chain and every
    // intermediate — to the per-worker node arena so the next pair rebuilds
    // on recycled storage. The parameter leaves, and the gradients they
    // hold, stay with the models and are skipped by the recycler.
    Var::recycle_all(
        fwd.into_vars()
            .chain(bwd.into_vars())
            .chain(std::iter::once(loss)),
    );
}

/// [`pair_backward`], then the per-parameter gradients read out in optimizer
/// order (forward-direction parameters, then backward-direction) — one
/// pair's share of a multi-sequence batch.
fn pair_gradients(
    forward: &BisimDirection,
    backward: &BisimDirection,
    seq: &PathSequence,
    rev: &PathSequence,
) -> Vec<Matrix<f64>> {
    pair_backward(forward, backward, seq, rev);
    forward
        .parameters()
        .iter()
        .chain(&backward.parameters())
        .map(|p| p.grad())
        .collect()
}

/// The per-record updates one `(sequence, reversed)` pair contributes to the
/// imputed radio map: `(record, ap, rssi)` triples for MAR fingerprints and
/// `(record, point)` pairs for initially-missing reference points.
type PairUpdates = (Vec<(usize, usize, f64)>, Vec<(usize, Point)>);

/// Runs every `(sequence, reversed)` pair through the shared graph-free
/// snapshots on the pool and averages the two directions (Eq. 13) at MAR
/// fingerprints and missing RPs. Denormalisation happens after widening back
/// to `f64`; at `T = f64` the arithmetic is bitwise identical to the classic
/// serial live-graph loop. Each task only reads the shared snapshots, so the
/// fan-out is order-preserving and bit-identical at any thread count.
#[allow(clippy::too_many_arguments)]
fn infer_pairs<T: Scalar>(
    forward: &BisimDirectionWeights<T>,
    backward: &BisimDirectionWeights<T>,
    pairs: &[(&PathSequence, &PathSequence)],
    mask: &MaskMatrix,
    norm: &Normalization,
    num_aps: usize,
    missing_rp: &[bool],
    threads: usize,
) -> Vec<PairUpdates> {
    rm_runtime::par_map(threads, pairs, |_, &(seq, rev)| {
        // Per-task scratch: the matrix buffers come from the worker's
        // thread-local pool, so steady-state inference allocates nothing.
        let mut ws = Workspace::new();
        let fwd = forward.run(seq, &mut ws);
        let bwd = backward.run(rev, &mut ws);
        let two = T::from_f64(2.0);
        let mut rssi_updates: Vec<(usize, usize, f64)> = Vec::new();
        let mut rp_updates: Vec<(usize, Point)> = Vec::new();
        for (t, &record) in seq.record_indices.iter().enumerate() {
            let rt = seq.len() - 1 - t;
            let f = &fwd.fingerprint_complements[t];
            let b = &bwd.fingerprint_complements[rt];
            for ap in 0..num_aps {
                if mask.get(record, ap) == EntryKind::Mar {
                    let avg = (f.get(ap, 0) + b.get(ap, 0)) / two;
                    rssi_updates.push((record, ap, norm.denormalize_rssi(avg.to_f64())));
                }
            }
            if missing_rp[record] {
                let lf = &fwd.rp_complements[t];
                let lb = &bwd.rp_complements[rt];
                let x = ((lf.get(0, 0) + lb.get(0, 0)) / two).to_f64();
                let y = ((lf.get(1, 0) + lb.get(1, 0)) / two).to_f64();
                rp_updates.push((record, norm.denormalize_point(x, y)));
            }
        }
        (rssi_updates, rp_updates)
    })
}

impl Bisim {
    /// The pass-through baseline BiSIM starts from: MNAR-filled dense
    /// fingerprints and the records' own RPs (BiSIM imputes the missing ones
    /// itself, unlike the interpolating baselines).
    fn passthrough(map: &RadioMap) -> (Vec<Vec<f64>>, Vec<Option<rm_geometry::Point>>) {
        (
            map.records()
                .iter()
                .map(|r| r.fingerprint.to_dense(MNAR_FILL_VALUE))
                .collect(),
            map.records().iter().map(|r| r.rp).collect(),
        )
    }

    /// Draws one freshly initialised direction from `rng`.
    fn new_direction(&self, num_aps: usize, rng: &mut StdRng) -> BisimDirection {
        BisimDirection::new(
            num_aps,
            self.config.hidden_size,
            self.config.attention,
            self.config.time_lag,
            rng,
        )
    }

    /// Trains the two live directions jointly for `epochs` epochs (Section
    /// IV-D), in deterministic mini-batches. Fixed-boundary chunks of
    /// sequence pairs; within a chunk each pair differentiates its own graph
    /// replica (rebuilt from a `Send + Sync` snapshot) on the worker pool,
    /// and the gradients reduce in sequence-index order — bitwise
    /// thread-count independent. Single-pair chunks (the `batch_size = 1`
    /// default) differentiate the live graphs directly, reproducing the
    /// classic serial trajectory bitwise.
    fn train_pair(
        &self,
        forward_model: &BisimDirection,
        backward_model: &BisimDirection,
        sequences: &[PathSequence],
        reversed: &[PathSequence],
        epochs: usize,
    ) {
        let mut params = forward_model.parameters();
        params.extend(backward_model.parameters());
        let mut optimizer = Adam::new(params, self.config.learning_rate).with_clip(5.0);
        let threads = self.config.threads;
        rm_imputers::brits::train_in_batches(
            &mut optimizer,
            epochs,
            sequences.len(),
            self.config.batch_size,
            |i| pair_backward(forward_model, backward_model, &sequences[i], &reversed[i]),
            |chunk| {
                let fw = forward_model.snapshot();
                let bw = backward_model.snapshot();
                rm_runtime::par_map(threads, chunk, |_, &i| {
                    pair_gradients(&fw.to_model(), &bw.to_model(), &sequences[i], &reversed[i])
                })
            },
        );
    }

    /// The imputation tail (Eq. 13): average the two directions at MARs and
    /// missing RPs, optionally exporting the trained snapshot as named
    /// tensors first. The weights are rounded once to f32 when the config
    /// asks — the export happens at that same resident precision — and every `(sequence, reversed)` pair fans out
    /// over the pool. The f64 snapshot pass mirrors the graph pass operation
    /// for operation, so this is bit-identical to the old serial live-graph
    /// inference (pinned by the serial-trajectory test below). Each task
    /// writes values for its own records; RP updates are merged in pair
    /// order, first writer wins, matching the serial `is_none` check.
    #[allow(clippy::too_many_arguments)]
    fn infer_and_export(
        &self,
        forward_weights: &BisimDirectionWeights,
        backward_weights: &BisimDirectionWeights,
        sequences: &[PathSequence],
        reversed: &[PathSequence],
        map: &RadioMap,
        mask: &MaskMatrix,
        norm: &Normalization,
        export_snapshot: bool,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        let num_aps = map.num_aps();
        let (mut fingerprints, mut locations) = Self::passthrough(map);
        let mut tensors = Vec::new();
        if export_snapshot {
            for (prefix, weights) in [
                ("bisim.forward", forward_weights),
                ("bisim.backward", backward_weights),
            ] {
                weights.export(prefix, self.config.precision, &mut tensors);
            }
        }
        let pairs: Vec<(&PathSequence, &PathSequence)> =
            sequences.iter().zip(reversed.iter()).collect();
        let missing_rp: Vec<bool> = locations.iter().map(Option::is_none).collect();
        let threads = self.config.threads;
        let results = match self.config.precision {
            Precision::F64 => infer_pairs(
                forward_weights,
                backward_weights,
                &pairs,
                mask,
                norm,
                num_aps,
                &missing_rp,
                threads,
            ),
            Precision::F32 => infer_pairs(
                &forward_weights.cast::<f32>(),
                &backward_weights.cast::<f32>(),
                &pairs,
                mask,
                norm,
                num_aps,
                &missing_rp,
                threads,
            ),
        };
        for (rssi_updates, rp_updates) in results {
            for (record, ap, value) in rssi_updates {
                fingerprints[record][ap] = value;
            }
            for (record, point) in rp_updates {
                if locations[record].is_none() {
                    locations[record] = Some(point);
                }
            }
        }
        (
            ImputedRadioMap {
                fingerprints,
                locations,
            },
            tensors,
        )
    }

    /// Cold path: train both directions from scratch, then impute (and
    /// optionally export the snapshot).
    fn impute_inner(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
        export_snapshot: bool,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        let num_aps = map.num_aps();
        let norm = Normalization::from_map(map);
        let sequences = build_sequences(map, mask, self.config.sequence_length, &norm);
        if sequences.is_empty() || num_aps == 0 {
            let (fingerprints, locations) = Self::passthrough(map);
            return (
                ImputedRadioMap {
                    fingerprints,
                    locations,
                },
                Vec::new(),
            );
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let forward_model = self.new_direction(num_aps, &mut rng);
        let backward_model = self.new_direction(num_aps, &mut rng);
        let reversed: Vec<PathSequence> = sequences.iter().map(|s| s.reversed(&norm)).collect();
        self.train_pair(
            &forward_model,
            &backward_model,
            &sequences,
            &reversed,
            self.config.epochs,
        );
        self.infer_and_export(
            &forward_model.snapshot(),
            &backward_model.snapshot(),
            &sequences,
            &reversed,
            map,
            mask,
            &norm,
            export_snapshot,
        )
    }

    /// Decodes both directions from a `bisim.{forward, backward}.*` snapshot,
    /// or `None` when either is missing or shaped for a different map.
    fn import_directions(
        &self,
        warm: &[NamedTensor],
        num_aps: usize,
    ) -> Option<(BisimDirectionWeights, BisimDirectionWeights)> {
        let forward = BisimDirectionWeights::import(
            "bisim.forward",
            warm,
            num_aps,
            self.config.attention,
            self.config.time_lag,
        )?;
        let backward = BisimDirectionWeights::import(
            "bisim.backward",
            warm,
            num_aps,
            self.config.attention,
            self.config.time_lag,
        )?;
        Some((forward, backward))
    }

    /// Warm path: `None` sends the caller back to cold training. With
    /// `fine_tune_epochs = 0` the imported weights impute directly —
    /// bit-identical to the exporting run on an unchanged map (the import
    /// widens losslessly and inference re-applies the identical one-time
    /// rounding). Otherwise the weights resume mini-batch training with a
    /// fresh optimizer before imputing.
    fn impute_warm_inner(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
        warm: &[NamedTensor],
        fine_tune_epochs: usize,
    ) -> Option<(ImputedRadioMap, Vec<NamedTensor>)> {
        let num_aps = map.num_aps();
        let norm = Normalization::from_map(map);
        let sequences = build_sequences(map, mask, self.config.sequence_length, &norm);
        if sequences.is_empty() || num_aps == 0 {
            return None;
        }
        let (forward_weights, backward_weights) = self.import_directions(warm, num_aps)?;
        let reversed: Vec<PathSequence> = sequences.iter().map(|s| s.reversed(&norm)).collect();
        if fine_tune_epochs == 0 {
            return Some(self.infer_and_export(
                &forward_weights,
                &backward_weights,
                &sequences,
                &reversed,
                map,
                mask,
                &norm,
                true,
            ));
        }
        let forward_model = forward_weights.to_model();
        let backward_model = backward_weights.to_model();
        self.train_pair(
            &forward_model,
            &backward_model,
            &sequences,
            &reversed,
            fine_tune_epochs,
        );
        Some(self.infer_and_export(
            &forward_model.snapshot(),
            &backward_model.snapshot(),
            &sequences,
            &reversed,
            map,
            mask,
            &norm,
            true,
        ))
    }
}

impl Imputer for Bisim {
    fn impute(&self, map: &RadioMap, mask: &MaskMatrix) -> ImputedRadioMap {
        self.impute_inner(map, mask, false).0
    }

    fn impute_with_snapshot(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        self.impute_inner(map, mask, true)
    }

    fn impute_warm(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
        warm: &[NamedTensor],
        fine_tune_epochs: usize,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        match self.impute_warm_inner(map, mask, warm, fine_tune_epochs) {
            Some(out) => out,
            None => self.impute_with_snapshot(map, mask),
        }
    }

    fn name(&self) -> &'static str {
        "BiSIM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_geometry::Point;
    use rm_nn::Optimizer;
    use rm_radiomap::{Fingerprint, RadioMapRecord};

    /// A survey path with smooth RSSIs and RPs; one MAR RSSI and one missing RP.
    fn smooth_map() -> (RadioMap, MaskMatrix) {
        let mut records = Vec::new();
        for i in 0..12 {
            let v = -55.0 - i as f64 * 2.0;
            let rssi0 = if i == 6 { None } else { Some(v) };
            let rp = if i == 4 {
                None
            } else {
                Some(Point::new(i as f64 * 2.0, 3.0))
            };
            records.push(RadioMapRecord::new(
                Fingerprint::new(vec![rssi0, Some(-70.0)]),
                rp,
                i as f64 * 2.0,
                0,
            ));
        }
        let map = RadioMap::new(records, 2);
        let mut mask = MaskMatrix::all_observed(12, 2);
        mask.set(6, 0, EntryKind::Mar);
        (map, mask)
    }

    fn quick_config() -> BisimConfig {
        BisimConfig {
            hidden_size: 16,
            epochs: 40,
            learning_rate: 0.02,
            sequence_length: 6,
            ..BisimConfig::default()
        }
    }

    #[test]
    fn bisim_imputes_mar_rssi_plausibly() {
        let (map, mask) = smooth_map();
        let out = Bisim::new(quick_config()).impute(&map, &mask);
        let imputed = out.rssi(6, 0);
        // Neighbouring values are -65 and -69; the imputation must be far from
        // the -100 floor.
        assert!(
            (-85.0..=-45.0).contains(&imputed),
            "imputed RSSI {imputed} is implausible"
        );
        // Observed entries and RPs are untouched.
        assert_eq!(out.rssi(0, 0), -55.0);
        assert_eq!(out.locations[0], Some(Point::new(0.0, 3.0)));
        assert_eq!(Bisim::default().name(), "BiSIM");
    }

    #[test]
    fn bisim_imputes_missing_rp_inside_the_venue() {
        let (map, mask) = smooth_map();
        let out = Bisim::new(quick_config()).impute(&map, &mask);
        let p = out.locations[4].expect("RP must be imputed");
        // The true position is (8, 3); require the imputation to land within
        // the venue extent and reasonably close.
        assert!(p.is_finite());
        assert!(
            p.distance(Point::new(8.0, 3.0)) < 12.0,
            "imputed RP {p:?} too far from ground truth"
        );
    }

    /// The size of one sequence pair's training graph at the default
    /// ablation and `T = 5` (the `e2ebench` sequence length), pinned so it
    /// only goes down: every node reachable from the pair's loss, leaves
    /// included (331 of them interior). Each encoder step is one
    /// `lstm_cell` node and each decoder step one `attention` and one
    /// `lstm_cell` node; with the chains they replaced written out, the same
    /// pair had 1000 nodes (871 interior).
    #[test]
    fn one_pair_builds_a_pinned_number_of_graph_nodes() {
        const NODES_PER_PAIR: usize = 438;
        let (map, mask) = smooth_map();
        let config = BisimConfig::default();
        let norm = Normalization::from_map(&map);
        let seq = build_sequences(&map, &mask, config.sequence_length, &norm).remove(0);
        assert_eq!(seq.len(), 5);
        let rev = seq.reversed(&norm);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut direction = || {
            BisimDirection::new(
                2,
                config.hidden_size,
                config.attention,
                config.time_lag,
                &mut rng,
            )
        };
        let (forward_model, backward_model) = (direction(), direction());
        let fwd = forward_model.run(&seq);
        let bwd = backward_model.run(&rev);
        let loss = Bisim::sequence_loss(&seq, &rev, &fwd, &bwd);
        assert_eq!(loss.graph_size(), NODES_PER_PAIR);
    }

    /// `batch_size = 1` (the default) reproduces the pre-batching serial
    /// trajectory bitwise: the reference below is the literal classic loop
    /// (`zero_grad → backward → step` per sequence pair on the live graph),
    /// followed by the same averaging inference pass.
    #[test]
    fn batch_size_one_reproduces_the_serial_trajectory() {
        let (map, mask) = smooth_map();
        let config = BisimConfig {
            epochs: 6,
            batch_size: 1,
            ..quick_config()
        };
        let batched = Bisim::new(config.clone()).impute(&map, &mask);

        let num_aps = 2;
        let norm = Normalization::from_map(&map);
        let sequences = build_sequences(&map, &mask, config.sequence_length, &norm);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let forward_model = BisimDirection::new(
            num_aps,
            config.hidden_size,
            config.attention,
            config.time_lag,
            &mut rng,
        );
        let backward_model = BisimDirection::new(
            num_aps,
            config.hidden_size,
            config.attention,
            config.time_lag,
            &mut rng,
        );
        let mut params = forward_model.parameters();
        params.extend(backward_model.parameters());
        let mut optimizer = Adam::new(params, config.learning_rate).with_clip(5.0);
        let reversed: Vec<PathSequence> = sequences.iter().map(|s| s.reversed(&norm)).collect();
        for _ in 0..config.epochs {
            for (seq, rev) in sequences.iter().zip(reversed.iter()) {
                optimizer.zero_grad();
                let fwd = forward_model.run(seq);
                let bwd = backward_model.run(rev);
                Bisim::sequence_loss(seq, rev, &fwd, &bwd).backward();
                optimizer.step();
            }
        }
        for (seq, rev) in sequences.iter().zip(reversed.iter()) {
            let fwd = forward_model.run(seq);
            let bwd = backward_model.run(rev);
            for (t, &record) in seq.record_indices.iter().enumerate() {
                let rt = seq.len() - 1 - t;
                let f = fwd.fingerprint_complements[t].value();
                let b = bwd.fingerprint_complements[rt].value();
                for ap in 0..num_aps {
                    if mask.get(record, ap) == EntryKind::Mar {
                        let avg = (f.get(ap, 0) + b.get(ap, 0)) / 2.0;
                        assert_eq!(
                            batched.rssi(record, ap).to_bits(),
                            norm.denormalize_rssi(avg).to_bits(),
                            "batch_size = 1 diverged from the serial reference at ({record}, {ap})"
                        );
                    }
                }
            }
        }
    }

    /// A fixed `batch_size > 1` yields a bitwise-identical BiSIM model at
    /// any thread count.
    #[test]
    fn batched_training_is_bit_identical_across_thread_counts() {
        let (map, mask) = smooth_map();
        let run = |threads: usize| {
            Bisim::new(BisimConfig {
                epochs: 4,
                batch_size: 2,
                threads,
                ..quick_config()
            })
            .impute(&map, &mask)
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            for (a, b) in serial
                .fingerprints
                .iter()
                .flatten()
                .zip(parallel.fingerprints.iter().flatten())
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "batched BiSIM differs at {threads} threads"
                );
            }
            for (la, lb) in serial.locations.iter().zip(parallel.locations.iter()) {
                match (la, lb) {
                    (Some(pa), Some(pb)) => {
                        assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                        assert_eq!(pa.y.to_bits(), pb.y.to_bits());
                    }
                    (None, None) => {}
                    _ => panic!("imputed-RP presence differs at {threads} threads"),
                }
            }
        }
    }

    /// The f32 inference path tracks the f64 result within a small
    /// epsilon, and stays bit-identical across thread counts.
    #[test]
    fn reduced_precision_inference_tracks_f64() {
        let (map, mask) = smooth_map();
        let run = |precision, threads| {
            Bisim::new(BisimConfig {
                epochs: 6,
                precision,
                threads,
                ..quick_config()
            })
            .impute(&map, &mask)
        };
        let base = run(Precision::F64, 1);
        let out = run(Precision::F32, 1);
        let tol = 0.5;
        let delta = (out.rssi(6, 0) - base.rssi(6, 0)).abs();
        assert!(delta < tol, "f32 imputed RSSI drifted {delta} dBm from f64");
        let pa = base.locations[4].expect("f64 RP must be imputed");
        let pb = out.locations[4].expect("f32 RP must be imputed");
        assert!(
            pa.distance(pb) < tol,
            "f32 imputed RP drifted {} m from f64",
            pa.distance(pb)
        );
        let repeat = run(Precision::F32, 3);
        assert_eq!(
            out.rssi(6, 0).to_bits(),
            repeat.rssi(6, 0).to_bits(),
            "f32 inference differs across thread counts"
        );
        let pr = repeat.locations[4].expect("repeat RP must be imputed");
        assert_eq!(pb.x.to_bits(), pr.x.to_bits());
        assert_eq!(pb.y.to_bits(), pr.y.to_bits());
    }

    /// `impute_warm` with `fine_tune_epochs = 0` on the unchanged map is a
    /// pure inference replay of the exporting run — bit-identical outputs
    /// and a bit-identical re-exported snapshot — at either precision.
    #[test]
    fn warm_replay_reproduces_the_exporting_run_bitwise() {
        let (map, mask) = smooth_map();
        for precision in [Precision::F64, Precision::F32] {
            let imputer = Bisim::new(BisimConfig {
                epochs: 4,
                precision,
                ..quick_config()
            });
            let (cold, tensors) = imputer.impute_with_snapshot(&map, &mask);
            // 30 tensors per direction: encoder 12, decoder 12, attention 6.
            assert_eq!(tensors.len(), 60);
            assert!(tensors
                .iter()
                .any(|t| t.name == "bisim.forward.encoder.estimate.weight"));
            assert!(tensors
                .iter()
                .any(|t| t.name == "bisim.backward.attention.align.1.bias"));

            let (warm, re_exported) = imputer.impute_warm(&map, &mask, &tensors, 0);
            for (a, b) in cold
                .fingerprints
                .iter()
                .flatten()
                .zip(warm.fingerprints.iter().flatten())
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "warm replay diverged at {precision:?}"
                );
            }
            for (la, lb) in cold.locations.iter().zip(warm.locations.iter()) {
                let (pa, pb) = (la.expect("cold RP"), lb.expect("warm RP"));
                assert_eq!(pa.x.to_bits(), pb.x.to_bits());
                assert_eq!(pa.y.to_bits(), pb.y.to_bits());
            }
            assert_eq!(re_exported.len(), tensors.len());
            for (a, b) in tensors.iter().zip(re_exported.iter()) {
                assert!(a.bits_eq(b), "{} drifted through the replay", a.name);
            }
        }
    }

    /// Fine-tuning moves both directions' weights and still produces a sane
    /// imputation plus a fresh full snapshot.
    #[test]
    fn warm_fine_tune_updates_both_directions() {
        let (map, mask) = smooth_map();
        let imputer = Bisim::new(BisimConfig {
            epochs: 3,
            ..quick_config()
        });
        let (_, tensors) = imputer.impute_with_snapshot(&map, &mask);
        let (out, re_exported) = imputer.impute_warm(&map, &mask, &tensors, 2);
        assert_eq!(re_exported.len(), 60);
        // Two extra epochs from a 3-epoch checkpoint need not land in the
        // converged band yet — just keep the value sane.
        assert!(out.rssi(6, 0).is_finite());
        for prefix in ["bisim.forward", "bisim.backward"] {
            let moved = tensors
                .iter()
                .zip(re_exported.iter())
                .filter(|(a, _)| a.name.starts_with(prefix))
                .any(|(a, b)| !a.bits_eq(b));
            assert!(moved, "fine-tuning left {prefix} untouched");
        }
    }

    /// An empty, foreign, or wrongly-shaped snapshot falls back to cold
    /// training — bit-identical to `impute_with_snapshot` from scratch.
    #[test]
    fn warm_with_unusable_snapshot_falls_back_to_cold_training() {
        let (map, mask) = smooth_map();
        let imputer = Bisim::new(BisimConfig {
            epochs: 3,
            ..quick_config()
        });
        let (cold, _) = imputer.impute_with_snapshot(&map, &mask);
        let foreign = vec![rm_tensor::NamedTensor::new(
            "bisim.forward.encoder.estimate.weight",
            Matrix::<f64>::filled(3, 7, 0.5),
        )];
        for warm in [&Vec::new(), &foreign] {
            let (out, tensors) = imputer.impute_warm(&map, &mask, warm, 0);
            assert_eq!(tensors.len(), 60);
            for (a, b) in cold
                .fingerprints
                .iter()
                .flatten()
                .zip(out.fingerprints.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn bisim_handles_empty_map() {
        let out =
            Bisim::new(quick_config()).impute(&RadioMap::empty(2), &MaskMatrix::all_observed(0, 2));
        assert!(out.is_empty());
    }

    #[test]
    fn ablation_variants_produce_valid_outputs() {
        let (map, mask) = smooth_map();
        for (attention, time_lag) in [
            (AttentionMode::Standard, TimeLagMode::Encoder),
            (AttentionMode::None, TimeLagMode::None),
            (AttentionMode::SparsityFriendly, TimeLagMode::Both),
        ] {
            let config = BisimConfig {
                epochs: 5,
                attention,
                time_lag,
                ..quick_config()
            };
            let out = Bisim::new(config).impute(&map, &mask);
            assert!(out.fingerprints.iter().flatten().all(|v| v.is_finite()));
            assert!(out
                .locations
                .iter()
                .all(|l| l.map(|p| p.is_finite()).unwrap_or(false)));
        }
    }
}
