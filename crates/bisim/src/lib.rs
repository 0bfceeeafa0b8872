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
//! Training runs on a tape ([`tape`]): each direction's forward records
//! what the backward reads, and a hand-written backward adds the loss's
//! gradient into plain buffers that the Adam kernel updates from — no
//! autodiff graph is built. The encoder unit is the RITS step BRITS runs
//! ([`rm_imputers::rits`]), and the trainer is the one BRITS trains with
//! ([`rm_imputers::train`]). The autodiff graph form of the model stays in
//! the tests as the tape's oracle, which the tape matches bit for bit.
//!
//! The [`Bisim`] type implements the same [`Imputer`] trait as the baselines
//! in `rm-imputers`, so the experiment harness can swap imputers freely.

#[cfg(test)]
mod graph;
pub mod model;
pub mod tape;

pub use model::{AttentionMode, BisimDirectionWeights, TimeLagMode};
pub use tape::{DirectionGrads, DirectionTape, PairTape};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_geometry::Point;
use rm_imputers::brits::{default_batch_size, default_epochs};
use rm_imputers::{
    build_sequences, train_pairs, ImputedRadioMap, Imputer, Normalization, PathSequence, Training,
};
use rm_radiomap::{EntryKind, MaskMatrix, RadioMap, MNAR_FILL_VALUE};
use rm_tensor::{NamedTensor, Precision, Scalar};

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
}

/// One update [`infer_pairs`] makes to the imputed radio map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// The RSSI of a MAR fingerprint entry: `(record, ap, rssi)`.
    Rssi(usize, usize, f64),
    /// The location of an initially missing reference point.
    Rp(usize, Point),
}

/// Runs every `(sequence, reversed)` pair through the shared weights'
/// forward ([`BisimDirectionWeights::forward`], the one training records
/// too) on the pool and averages the two directions (Eq. 13) at MAR
/// fingerprints and missing RPs, returning the updates of every pair in
/// pair order, as one list per [`rm_imputers::sweep`] run. Each run reuses
/// one tape per direction. Denormalisation happens after widening back to
/// `f64`. Each task only reads the shared weights, so the updates are
/// bit-identical at any thread count.
pub fn infer_pairs<T: Scalar>(
    forward: &BisimDirectionWeights<T>,
    backward: &BisimDirectionWeights<T>,
    pairs: &[(&PathSequence, &PathSequence)],
    mask: &MaskMatrix,
    norm: &Normalization,
    missing_rp: &[bool],
    threads: usize,
) -> Vec<Vec<Update>> {
    let num_aps = forward.num_aps;
    let per_record = |&record: &usize| {
        let mars = (0..num_aps).filter(|&ap| mask.get(record, ap) == EntryKind::Mar);
        mars.count() + usize::from(missing_rp[record])
    };
    let updates = |(seq, _): &(&PathSequence, &PathSequence)| -> usize {
        seq.record_indices.iter().map(per_record).sum()
    };
    rm_imputers::sweep(
        threads,
        pairs,
        updates,
        |[fwd, bwd]: &mut [DirectionTape<T>; 2], _, &(seq, rev), out| {
            forward.forward(seq, fwd);
            backward.forward(rev, bwd);
            let two = T::from_f64(2.0);
            for (t, &record) in seq.record_indices.iter().enumerate() {
                let rt = seq.len() - 1 - t;
                let f = fwd.fingerprint_complement(t);
                let b = bwd.fingerprint_complement(rt);
                for ap in 0..num_aps {
                    if mask.get(record, ap) == EntryKind::Mar {
                        let avg = (f[ap] + b[ap]) / two;
                        out.push(Update::Rssi(
                            record,
                            ap,
                            norm.denormalize_rssi(avg.to_f64()),
                        ));
                    }
                }
                if missing_rp[record] {
                    let lf = fwd.rp_complement(t);
                    let lb = bwd.rp_complement(rt);
                    let x = ((lf[0] + lb[0]) / two).to_f64();
                    let y = ((lf[1] + lb[1]) / two).to_f64();
                    out.push(Update::Rp(record, norm.denormalize_point(x, y)));
                }
            }
        },
    )
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

    /// Draws both freshly initialised directions from `rng`, forward first.
    fn new_directions(&self, num_aps: usize, rng: &mut StdRng) -> [BisimDirectionWeights; 2] {
        let mut direction = || {
            BisimDirectionWeights::new(
                num_aps,
                self.config.hidden_size,
                self.config.attention,
                self.config.time_lag,
                rng,
            )
        };
        [direction(), direction()]
    }

    /// Trains both directions jointly for `epochs` epochs (Section IV-D) on
    /// the training tape, through the trainer BRITS shares
    /// ([`rm_imputers::train_pairs`]).
    fn train(
        &self,
        weights: &mut [BisimDirectionWeights; 2],
        sequences: &[PathSequence],
        reversed: &[PathSequence],
        epochs: usize,
    ) {
        let training = Training {
            learning_rate: self.config.learning_rate,
            epochs,
            batch_size: self.config.batch_size,
            threads: self.config.threads,
        };
        train_pairs(
            weights,
            sequences.len(),
            training,
            |tape: &mut PairTape, w, i, grads| {
                tape.differentiate(w, &sequences[i], &reversed[i], grads);
            },
        );
    }

    /// The imputation tail (Eq. 13): average the two directions at MARs and
    /// missing RPs, optionally exporting the trained weights as named
    /// tensors first. The weights are rounded once to f32 when the config
    /// asks — the export happens at that same resident precision — and
    /// every `(sequence, reversed)` pair fans out over the pool. The f64
    /// forward performs the graph pass's operations in order, so this is
    /// bit-identical to serial live-graph inference (pinned by the
    /// serial-trajectory test below). Each task writes values for its own
    /// records; RP updates are merged in pair order, first writer wins,
    /// matching the serial `is_none` check.
    fn infer_and_export(
        &self,
        [forward_weights, backward_weights]: &[BisimDirectionWeights; 2],
        sequences: &[PathSequence],
        reversed: &[PathSequence],
        map: &RadioMap,
        mask: &MaskMatrix,
        norm: &Normalization,
        export_snapshot: bool,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
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
                &missing_rp,
                threads,
            ),
            Precision::F32 => infer_pairs(
                &forward_weights.cast::<f32>(),
                &backward_weights.cast::<f32>(),
                &pairs,
                mask,
                norm,
                &missing_rp,
                threads,
            ),
        };
        for update in results.into_iter().flatten() {
            match update {
                Update::Rssi(record, ap, value) => fingerprints[record][ap] = value,
                Update::Rp(record, point) => {
                    if locations[record].is_none() {
                        locations[record] = Some(point);
                    }
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
        let mut weights = self.new_directions(num_aps, &mut rng);
        let reversed: Vec<PathSequence> = sequences.iter().map(|s| s.reversed(&norm)).collect();
        self.train(&mut weights, &sequences, &reversed, self.config.epochs);
        self.infer_and_export(
            &weights,
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
    ) -> Option<[BisimDirectionWeights; 2]> {
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
        Some([forward, backward])
    }

    /// Warm path: `None` sends the caller back to cold training. With
    /// `fine_tune_epochs = 0` the imported weights impute directly —
    /// bit-identical to the exporting run on an unchanged map (the import
    /// widens losslessly and inference re-applies the identical one-time
    /// rounding). Otherwise the imported weights resume mini-batch training
    /// with a fresh optimizer before imputing.
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
        let mut weights = self.import_directions(warm, num_aps)?;
        let reversed: Vec<PathSequence> = sequences.iter().map(|s| s.reversed(&norm)).collect();
        if fine_tune_epochs > 0 {
            self.train(&mut weights, &sequences, &reversed, fine_tune_epochs);
        }
        Some(self.infer_and_export(&weights, &sequences, &reversed, map, mask, &norm, true))
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
    use crate::graph::{sequence_loss, BisimDirection};
    use rm_autodiff::Adam;
    use rm_geometry::Point;
    use rm_radiomap::{Fingerprint, RadioMapRecord};
    use rm_tensor::Matrix;

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
        let loss = sequence_loss(&seq, &rev, &fwd, &bwd);
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
                sequence_loss(seq, rev, &fwd, &bwd).backward();
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
    /// training — bit-identical to `impute_with_snapshot` from scratch. That
    /// includes alignment MLPs whose layers chain but which the attention
    /// step cannot run: a third layer, or a hidden layer narrower than the
    /// decoder state.
    #[test]
    fn warm_with_unusable_snapshot_falls_back_to_cold_training() {
        let (map, mask) = smooth_map();
        let imputer = Bisim::new(BisimConfig {
            epochs: 3,
            ..quick_config()
        });
        let (cold, tensors) = imputer.impute_with_snapshot(&map, &mask);
        let foreign = vec![NamedTensor::new(
            "bisim.forward.encoder.estimate.weight",
            Matrix::<f64>::filled(3, 7, 0.5),
        )];
        let align = |layer: &str| format!("bisim.forward.attention.align.{layer}");
        let mut deeper = tensors.clone();
        deeper.push(NamedTensor::new(
            align("2.weight"),
            Matrix::<f64>::filled(1, 1, 0.5),
        ));
        deeper.push(NamedTensor::new(
            align("2.bias"),
            Matrix::<f64>::zeros(1, 1),
        ));
        // Three hidden units against H = 16.
        let narrow: Vec<NamedTensor> = tensors
            .iter()
            .map(|t| {
                let shape = match t.name.strip_prefix(&align("")) {
                    Some("0.weight") => (3, t.payload.cols()),
                    Some("0.bias") => (3, 1),
                    Some("1.weight") => (1, 3),
                    _ => return t.clone(),
                };
                NamedTensor::new(t.name.clone(), Matrix::<f64>::filled(shape.0, shape.1, 0.1))
            })
            .collect();
        for warm in [&Vec::new(), &foreign, &deeper, &narrow] {
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

    /// Training carries no state from one run into the next — no tape,
    /// scratch, pool or optimizer state leaks through a thread: on one
    /// thread, train and export map A, then an unrelated map B of another
    /// shape, then A again, at batch sizes 1 and 4. A's tensors and imputed
    /// map are bitwise equal both times (`e2ebench`'s rebuild check in
    /// miniature).
    #[test]
    fn training_carries_no_state_between_runs() {
        let (map_a, mask_a) = smooth_map();
        let records = (0..9)
            .map(|i| {
                let rssi = |ap: usize| (i + ap) % 4 != 1;
                let values = (0..3)
                    .map(|ap| rssi(ap).then(|| -60.0 - (i * 3 + ap) as f64))
                    .collect();
                let rp = (i % 3 != 2).then(|| Point::new(i as f64, (i as f64 * 0.7).sin()));
                RadioMapRecord::new(Fingerprint::new(values), rp, i as f64 * 1.5, 0)
            })
            .collect();
        let map_b = RadioMap::new(records, 3);
        let mut mask_b = MaskMatrix::all_observed(9, 3);
        for i in 0..9 {
            for ap in 0..3 {
                if (i + ap) % 4 == 1 {
                    mask_b.set(i, ap, EntryKind::Mar);
                }
            }
        }
        for batch_size in [1, 4] {
            let imputer = Bisim::new(BisimConfig {
                epochs: 3,
                batch_size,
                threads: 1,
                ..quick_config()
            });
            let (first, first_tensors) = imputer.impute_with_snapshot(&map_a, &mask_a);
            let _ = imputer.impute_with_snapshot(&map_b, &mask_b);
            let (again, again_tensors) = imputer.impute_with_snapshot(&map_a, &mask_a);
            let bits = |out: &ImputedRadioMap| -> Vec<u64> {
                let points = out.locations.iter().flatten().flat_map(|p| [p.x, p.y]);
                out.fingerprints
                    .iter()
                    .flatten()
                    .copied()
                    .chain(points)
                    .map(f64::to_bits)
                    .collect()
            };
            assert_eq!(
                bits(&first),
                bits(&again),
                "batch {batch_size}: map drifted"
            );
            assert_eq!(first_tensors.len(), again_tensors.len());
            for (a, b) in first_tensors.iter().zip(&again_tensors) {
                assert!(a.bits_eq(b), "batch {batch_size}: {} drifted", a.name);
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
