//! SSGAN — semi-supervised GAN-style imputation for multivariate time series
//! (Miao et al.), adapted to radio maps.
//!
//! The generator is a recurrent imputer (the same architecture as one BRITS
//! direction); a discriminator MLP tries to tell observed entries from imputed
//! ones given the complemented vector. The generator is trained with a
//! reconstruction loss plus a least-squares adversarial term that pushes the
//! discriminator towards believing imputed entries are observed. Missing
//! reference points fall back to linear interpolation, as in BRITS.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_nn::{loss, Activation, Adam, GradientBatch, Mlp, MlpWeights, Optimizer};
use rm_radiomap::{MaskMatrix, RadioMap};
use rm_tensor::{Matrix, NamedTensor, Precision, Var};

use crate::brits::{default_batch_size, default_epochs, impute_mar, Brits, RecurrentImputer};
use crate::rits::{export_recurrent, import_recurrent, RecurrentImputerWeights, RitsTape};
use crate::sequence::{build_sequences, Normalization, PathSequence};
use crate::{snapshot, ImputedRadioMap, Imputer};

/// Configuration for [`Ssgan`].
#[derive(Debug, Clone)]
pub struct SsganConfig {
    /// Hidden state size of the generator's recurrent cell.
    pub hidden_size: usize,
    /// Hidden layer size of the discriminator MLP.
    pub discriminator_hidden: usize,
    /// Number of training epochs.
    pub epochs: usize,
    /// Adam learning rate (shared by generator and discriminator).
    pub learning_rate: f64,
    /// Sequence length `T`.
    pub sequence_length: usize,
    /// Weight of the adversarial term in the generator loss.
    pub adversarial_weight: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the per-sequence fan-outs (`0` = auto): the final
    /// inference pass and — when [`Self::batch_size`] is above 1 — the
    /// per-sequence passes inside each training batch. Results are
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Mini-batch size of the adversarial training loop (see
    /// [`crate::BritsConfig::batch_size`] for the determinism contract).
    /// Both phases of a batch — discriminator, then generator — consume the
    /// same fixed-boundary chunk of sequences, each against the weights its
    /// phase started from, so `batch_size = 1` (the default) reproduces the
    /// classic alternating per-sequence trajectory bitwise.
    pub batch_size: usize,
    /// Precision of the inference pass (training always runs at `f64`; see
    /// [`crate::BritsConfig::precision`] for the contract).
    pub precision: Precision,
}

impl Default for SsganConfig {
    fn default() -> Self {
        Self {
            hidden_size: 32,
            discriminator_hidden: 32,
            epochs: default_epochs(),
            learning_rate: 0.01,
            sequence_length: 5,
            adversarial_weight: 0.3,
            seed: 41,
            threads: 0,
            batch_size: default_batch_size(),
            precision: Precision::F64,
        }
    }
}

/// Differentiates the discriminator loss for one sequence — predict the
/// observation mask from the (detached) complemented vectors — and returns
/// the discriminator's per-parameter gradients. `complements` are the
/// generator outputs as plain values, from the RITS forward
/// ([`RecurrentImputerWeights::forward`], bit-identical to the graph
/// forward). The discriminator's gradient buffers must be zero on entry.
fn disc_gradients(
    discriminator: &Mlp,
    seq: &PathSequence,
    complements: &[Matrix<f64>],
) -> Vec<Matrix<f64>> {
    let mut disc_loss = Var::scalar(0.0);
    for t in 0..seq.len() {
        let m = Matrix::column(&seq.fingerprint_masks[t]);
        // Detach the generator output by rebuilding it as a constant.
        let detached = Var::constant(complements[t].clone());
        let predicted = discriminator.forward(&detached);
        disc_loss = disc_loss.add(&loss::mse(&predicted, &m));
    }
    let scaled = disc_loss.scale(1.0 / seq.len() as f64);
    scaled.backward();
    let grads = discriminator
        .parameters()
        .iter()
        .map(|p| p.grad())
        .collect();
    // Return the step's graph to the per-worker node arena (the
    // discriminator's parameter leaves are skipped by the recycler).
    Var::recycle_all([disc_loss, scaled]);
    grads
}

/// Differentiates the generator loss for one sequence — masked
/// reconstruction plus the least-squares adversarial term — and returns the
/// generator's per-parameter gradients. The generator's gradient buffers
/// must be zero on entry (the discriminator's need not be: its parameters
/// receive gradient here too, but only the generator slice is extracted,
/// mirroring the classic loop where `gen_opt.step()` ignored them).
fn gen_gradients(
    generator: &RecurrentImputer,
    discriminator: &Mlp,
    seq: &PathSequence,
    num_aps: usize,
    adversarial_weight: f64,
) -> Vec<Matrix<f64>> {
    let pass = generator.run(seq);
    let mut gen_loss = Var::scalar(0.0);
    for t in 0..seq.len() {
        let target = Matrix::column(&seq.fingerprints[t]);
        let m = Matrix::column(&seq.fingerprint_masks[t]);
        gen_loss = gen_loss.add(&loss::masked_mse(&pass.estimates[t], &target, &m));
        // Adversarial: imputed entries should look observed (1) to the
        // discriminator.
        let inverse_mask = m.map(|v| 1.0 - v);
        let predicted = discriminator.forward(&pass.complements[t]);
        let ones = Matrix::ones(num_aps, 1);
        let adv = loss::masked_mse(&predicted, &ones, &inverse_mask).scale(adversarial_weight);
        gen_loss = gen_loss.add(&adv);
    }
    let scaled = gen_loss.scale(1.0 / seq.len() as f64);
    scaled.backward();
    let grads = generator.parameters().iter().map(|p| p.grad()).collect();
    // Return the step's graph — the generator pass, the loss chain and every
    // intermediate — to the per-worker node arena; the generator and
    // discriminator parameter leaves are skipped by the recycler.
    Var::recycle_all(
        pass.estimates
            .into_iter()
            .chain(pass.complements)
            .chain([gen_loss, scaled]),
    );
    grads
}

/// The SSGAN imputer.
#[derive(Default)]
pub struct Ssgan {
    /// Training configuration.
    pub config: SsganConfig,
}

impl Ssgan {
    /// Creates an SSGAN imputer with the given configuration.
    pub fn new(config: SsganConfig) -> Self {
        Self { config }
    }

    /// Deterministic mini-batch adversarial training for `epochs` epochs:
    /// each fixed-boundary chunk of sequences runs two phases —
    /// discriminator, then generator against the just-updated discriminator
    /// — with the per-sequence gradients of a phase computed against that
    /// phase's starting weights, fanned out over the pool, and summed in
    /// sequence-index order. Single-sequence chunks (the `batch_size = 1`
    /// default) differentiate the live graphs directly, reproducing the
    /// classic alternating loop bitwise; larger chunks ship detached
    /// replicas (rebuilt from `Send + Sync` snapshots) to the workers, so
    /// only plain gradient matrices cross threads. Shared by cold training
    /// and warm fine-tuning, which differ only in the starting weights.
    fn train_adversarial(
        &self,
        generator: &RecurrentImputer,
        discriminator: &Mlp,
        sequences: &[PathSequence],
        num_aps: usize,
        epochs: usize,
    ) {
        let mut gen_opt =
            Adam::new(generator.parameters(), self.config.learning_rate).with_clip(5.0);
        let mut disc_opt =
            Adam::new(discriminator.parameters(), self.config.learning_rate).with_clip(5.0);
        let batch_size = self.config.batch_size.max(1);
        let threads = self.config.threads;
        let adversarial_weight = self.config.adversarial_weight;
        let indices: Vec<usize> = (0..sequences.len()).collect();
        let mut disc_batch = GradientBatch::zeros_like(disc_opt.parameters());
        let mut gen_batch = GradientBatch::zeros_like(gen_opt.parameters());
        for _ in 0..epochs {
            for chunk in indices.chunks(batch_size) {
                // ---- Discriminator phase: predict the observation mask. ----
                // The generator is only sampled here (its output is
                // detached), so its RITS forward — bit-identical to the graph
                // forward — serves directly.
                let gen_weights = generator.snapshot();
                let sample = |seq: &PathSequence| {
                    let mut tape = RitsTape::new();
                    gen_weights.forward(seq, true, &mut tape);
                    (0..seq.len())
                        .map(|t| Matrix::column(tape.complement(t)))
                        .collect::<Vec<Matrix<f64>>>()
                };
                let disc_grads: Vec<Vec<Matrix<f64>>> = if let [i] = *chunk {
                    for p in disc_opt.parameters() {
                        p.zero_grad();
                    }
                    let seq = &sequences[i];
                    vec![disc_gradients(discriminator, seq, &sample(seq))]
                } else {
                    let disc_weights = discriminator.snapshot();
                    rm_runtime::par_map(threads, chunk, |_, &i| {
                        let seq = &sequences[i];
                        disc_gradients(&disc_weights.to_mlp(), seq, &sample(seq))
                    })
                };
                disc_batch.clear();
                for g in &disc_grads {
                    disc_batch.accumulate(g);
                }
                disc_opt.apply_batch(&disc_batch);

                // ---- Generator phase: reconstruction + fooling the updated
                // discriminator. ----
                let gen_grads: Vec<Vec<Matrix<f64>>> = if let [i] = *chunk {
                    for p in gen_opt.parameters() {
                        p.zero_grad();
                    }
                    vec![gen_gradients(
                        generator,
                        discriminator,
                        &sequences[i],
                        num_aps,
                        adversarial_weight,
                    )]
                } else {
                    let gen_weights = generator.snapshot();
                    let disc_weights = discriminator.snapshot();
                    rm_runtime::par_map(threads, chunk, |_, &i| {
                        gen_gradients(
                            &gen_weights.to_model(),
                            &disc_weights.to_mlp(),
                            &sequences[i],
                            num_aps,
                            adversarial_weight,
                        )
                    })
                };
                gen_batch.clear();
                for g in &gen_grads {
                    gen_batch.accumulate(g);
                }
                gen_opt.apply_batch(&gen_batch);
            }
        }
    }

    /// Produces imputations from the trained generator's complements
    /// ([`impute_mar`], BRITS's inference with one direction) plus the
    /// optional tensor export: the generator under `ssgan.generator.*` and
    /// the discriminator under `ssgan.discriminator.N.*` (the discriminator
    /// does not impute, but warm fine-tuning resumes the adversarial game,
    /// so both players persist).
    fn infer_and_export(
        &self,
        generator_weights: &RecurrentImputerWeights,
        discriminator_weights: &MlpWeights<f64>,
        sequences: &[PathSequence],
        map: &RadioMap,
        mask: &MaskMatrix,
        norm: &Normalization,
        export_snapshot: bool,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        let precision = self.config.precision;
        let mut tensors = Vec::new();
        if export_snapshot {
            export_recurrent(
                "ssgan.generator",
                generator_weights,
                precision,
                &mut tensors,
            );
            snapshot::export_mlp(
                "ssgan.discriminator",
                discriminator_weights,
                precision,
                &mut tensors,
            );
        }
        let directions = [(generator_weights, sequences)];
        let imputed = impute_mar(map, mask, norm, &directions, precision, self.config.threads);
        (imputed, tensors)
    }

    /// The shared train-then-infer body behind the [`Imputer`] entry points.
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
            return (Brits::passthrough(map), Vec::new());
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let generator = RecurrentImputer::new(num_aps, self.config.hidden_size, &mut rng);
        let discriminator = Mlp::new(
            &[num_aps, self.config.discriminator_hidden, num_aps],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        self.train_adversarial(
            &generator,
            &discriminator,
            &sequences,
            num_aps,
            self.config.epochs,
        );
        self.infer_and_export(
            &generator.snapshot(),
            &discriminator.snapshot(),
            &sequences,
            map,
            mask,
            &norm,
            export_snapshot,
        )
    }

    /// Rebuilds both players from a warm snapshot, validating every shape
    /// against a `num_aps`-AP map; `None` falls back to cold training.
    fn import_players(
        &self,
        warm: &[NamedTensor],
        num_aps: usize,
    ) -> Option<(RecurrentImputerWeights, MlpWeights<f64>)> {
        let generator = import_recurrent("ssgan.generator", warm, num_aps)?;
        let discriminator = snapshot::import_mlp(
            warm,
            "ssgan.discriminator",
            Activation::Relu,
            Activation::Sigmoid,
        )?;
        let layers = discriminator.layers();
        if layers.first()?.weight().cols() != num_aps || layers.last()?.weight().rows() != num_aps {
            return None;
        }
        Some((generator, discriminator))
    }

    /// The warm-start body: `Some` when the snapshot round-trips into this
    /// map's architecture, `None` to fall back to the cold path. Replay and
    /// fine-tune semantics match BRITS ([`Brits::impute_warm_inner`]): with
    /// `fine_tune_epochs = 0` the imported generator runs inference as-is —
    /// bit-identical to the exporting run on an unchanged map — and with
    /// `fine_tune_epochs > 0` both players resume the adversarial game from
    /// their imported weights under a fresh optimizer pair.
    fn impute_warm_inner(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
        warm: &[NamedTensor],
        fine_tune_epochs: usize,
    ) -> Option<(ImputedRadioMap, Vec<NamedTensor>)> {
        let num_aps = map.num_aps();
        if num_aps == 0 {
            return None;
        }
        let (generator_weights, discriminator_weights) = self.import_players(warm, num_aps)?;

        let norm = Normalization::from_map(map);
        let sequences = build_sequences(map, mask, self.config.sequence_length, &norm);
        if sequences.is_empty() {
            return None;
        }

        let (generator_weights, discriminator_weights) = if fine_tune_epochs == 0 {
            (generator_weights, discriminator_weights)
        } else {
            let generator = generator_weights.to_model();
            let discriminator = discriminator_weights.to_mlp();
            self.train_adversarial(
                &generator,
                &discriminator,
                &sequences,
                num_aps,
                fine_tune_epochs,
            );
            (generator.snapshot(), discriminator.snapshot())
        };
        Some(self.infer_and_export(
            &generator_weights,
            &discriminator_weights,
            &sequences,
            map,
            mask,
            &norm,
            true,
        ))
    }
}

impl Imputer for Ssgan {
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
        "SSGAN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brits::tests::smooth_map;

    fn quick_config() -> SsganConfig {
        SsganConfig {
            hidden_size: 16,
            discriminator_hidden: 16,
            epochs: 15,
            learning_rate: 0.02,
            sequence_length: 5,
            adversarial_weight: 0.3,
            seed: 5,
            threads: 0,
            batch_size: 1,
            precision: Precision::F64,
        }
    }

    #[test]
    fn ssgan_imputes_a_plausible_mar_value() {
        let (map, mask) = smooth_map();
        let out = Ssgan::new(quick_config()).impute(&map, &mask);
        let imputed = out.rssi(5, 0);
        assert!(
            (-90.0..=-40.0).contains(&imputed),
            "imputed value {imputed} is implausible"
        );
        assert_eq!(out.rssi(0, 0), -60.0);
        assert_eq!(Ssgan::default().name(), "SSGAN");
    }

    #[test]
    fn ssgan_f32_inference_tracks_the_f64_path() {
        let (map, mask) = smooth_map();
        let f64_out = Ssgan::new(quick_config()).impute(&map, &mask);
        let f32_out = Ssgan::new(SsganConfig {
            precision: Precision::F32,
            ..quick_config()
        })
        .impute(&map, &mask);
        let a = f64_out.rssi(5, 0);
        let b = f32_out.rssi(5, 0);
        assert!(
            (a - b).abs() < 0.1,
            "f32 imputation {b} drifted from f64 imputation {a}"
        );
        assert_eq!(f32_out.rssi(0, 0).to_bits(), f64_out.rssi(0, 0).to_bits());
    }

    /// A fixed `batch_size > 1` yields a bitwise-identical SSGAN model at
    /// any thread count (both adversarial phases batch deterministically).
    #[test]
    fn batched_adversarial_training_is_bit_identical_across_thread_counts() {
        let (map, mask) = smooth_map();
        let run = |threads: usize| {
            Ssgan::new(SsganConfig {
                epochs: 5,
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
                    "batched SSGAN differs at {threads} threads"
                );
            }
        }
    }

    /// `batch_size = 1` reproduces the classic alternating per-sequence
    /// trajectory bitwise: the reference below is the literal pre-batching
    /// loop (disc `zero_grad → backward → step`, then gen, per sequence).
    #[test]
    fn batch_size_one_reproduces_the_alternating_trajectory() {
        let (map, mask) = smooth_map();
        let config = quick_config();
        let batched = Ssgan::new(config.clone()).impute(&map, &mask);

        let norm = Normalization::from_map(&map);
        let sequences = build_sequences(&map, &mask, config.sequence_length, &norm);
        let num_aps = 2;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let generator = RecurrentImputer::new(num_aps, config.hidden_size, &mut rng);
        let discriminator = Mlp::new(
            &[num_aps, config.discriminator_hidden, num_aps],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        let mut gen_opt = Adam::new(generator.parameters(), config.learning_rate).with_clip(5.0);
        let mut disc_opt =
            Adam::new(discriminator.parameters(), config.learning_rate).with_clip(5.0);
        for _ in 0..config.epochs {
            for seq in &sequences {
                disc_opt.zero_grad();
                let pass = generator.run(seq);
                let mut disc_loss = Var::scalar(0.0);
                for t in 0..seq.len() {
                    let m = Matrix::column(&seq.fingerprint_masks[t]);
                    let detached = Var::constant(pass.complements[t].value());
                    let predicted = discriminator.forward(&detached);
                    disc_loss = disc_loss.add(&loss::mse(&predicted, &m));
                }
                disc_loss.scale(1.0 / seq.len() as f64).backward();
                disc_opt.step();

                gen_opt.zero_grad();
                let pass = generator.run(seq);
                let mut gen_loss = Var::scalar(0.0);
                for t in 0..seq.len() {
                    let target = Matrix::column(&seq.fingerprints[t]);
                    let m = Matrix::column(&seq.fingerprint_masks[t]);
                    gen_loss = gen_loss.add(&loss::masked_mse(&pass.estimates[t], &target, &m));
                    let inverse_mask = m.map(|v| 1.0 - v);
                    let predicted = discriminator.forward(&pass.complements[t]);
                    let ones = Matrix::ones(num_aps, 1);
                    let adv = loss::masked_mse(&predicted, &ones, &inverse_mask)
                        .scale(config.adversarial_weight);
                    gen_loss = gen_loss.add(&adv);
                }
                gen_loss.scale(1.0 / seq.len() as f64).backward();
                gen_opt.step();
            }
        }
        let generator = generator.snapshot();
        let reference = impute_mar(
            &map,
            &mask,
            &norm,
            &[(&generator, &sequences)],
            Precision::F64,
            1,
        );
        for (record, (a, b)) in batched
            .fingerprints
            .iter()
            .zip(&reference.fingerprints)
            .enumerate()
        {
            for (ap, (a, b)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "batch_size = 1 diverged from the alternating reference at ({record}, {ap})"
                );
            }
        }
    }

    /// SSGAN now round-trips trained weights through named tensors like
    /// BRITS: both players export (generator 12 tensors, discriminator 4),
    /// and a `fine_tune_epochs = 0` warm replay on the unchanged map
    /// reproduces the exporting run bitwise at either precision.
    #[test]
    fn warm_replay_reproduces_the_exporting_run_bitwise() {
        let (map, mask) = smooth_map();
        for precision in [Precision::F64, Precision::F32] {
            let ssgan = Ssgan::new(SsganConfig {
                epochs: 3,
                precision,
                ..quick_config()
            });
            let (cold, tensors) = ssgan.impute_with_snapshot(&map, &mask);
            assert_eq!(tensors.len(), 16);
            assert!(tensors
                .iter()
                .any(|t| t.name == "ssgan.generator.estimate.weight"));
            assert!(tensors
                .iter()
                .any(|t| t.name == "ssgan.discriminator.1.bias"));
            let (warm, re_exported) = ssgan.impute_warm(&map, &mask, &tensors, 0);
            for (a, b) in cold
                .fingerprints
                .iter()
                .flatten()
                .zip(warm.fingerprints.iter().flatten())
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "warm replay drifted from cold run"
                );
            }
            for (a, b) in tensors.iter().zip(re_exported.iter()) {
                assert!(a.bits_eq(b), "re-exported tensor {} drifted", a.name);
            }
        }
    }

    /// Fine-tuning resumes the adversarial game from the imported weights:
    /// fresh tensors come back and the weights actually move.
    #[test]
    fn warm_fine_tune_updates_both_players() {
        let (map, mask) = smooth_map();
        let ssgan = Ssgan::new(SsganConfig {
            epochs: 3,
            ..quick_config()
        });
        let (_, tensors) = ssgan.impute_with_snapshot(&map, &mask);
        let (out, tuned) = ssgan.impute_warm(&map, &mask, &tensors, 2);
        assert_eq!(tuned.len(), 16);
        // Two extra adversarial epochs from a 3-epoch checkpoint need not
        // land in the converged band yet — just keep the value sane.
        assert!(out.rssi(5, 0).is_finite());
        let moved = |prefix: &str| {
            tensors
                .iter()
                .zip(tuned.iter())
                .filter(|(a, _)| a.name.starts_with(prefix))
                .any(|(a, b)| !a.bits_eq(b))
        };
        assert!(moved("ssgan.generator."), "generator never moved");
        assert!(moved("ssgan.discriminator."), "discriminator never moved");
    }

    /// Empty or foreign snapshots fall back to the cold path bitwise.
    #[test]
    fn warm_with_unusable_snapshot_falls_back_to_cold_training() {
        let (map, mask) = smooth_map();
        let ssgan = Ssgan::new(quick_config());
        let (cold, _) = ssgan.impute_with_snapshot(&map, &mask);
        let (out, tensors) = ssgan.impute_warm(&map, &mask, &[], 0);
        assert_eq!(tensors.len(), 16);
        for (a, b) in cold
            .fingerprints
            .iter()
            .flatten()
            .zip(out.fingerprints.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ssgan_interpolates_missing_rps() {
        let (mut map, mask) = smooth_map();
        map.records_mut()[6].rp = None;
        let out = Ssgan::new(quick_config()).impute(&map, &mask);
        let p = out.locations[6].unwrap();
        assert!((p.x - 6.0).abs() < 1e-6);
    }

    #[test]
    fn ssgan_handles_empty_map() {
        let out = Ssgan::new(quick_config()).impute(
            &rm_radiomap::RadioMap::empty(2),
            &MaskMatrix::all_observed(0, 2),
        );
        assert!(out.is_empty());
    }
}
