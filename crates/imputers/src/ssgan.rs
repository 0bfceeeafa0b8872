//! SSGAN — semi-supervised GAN-style imputation for multivariate time series
//! (Miao et al.), adapted to radio maps.
//!
//! The generator is a recurrent imputer: one RITS direction
//! ([`RecurrentImputerWeights`], the same unit as one BRITS direction). A
//! discriminator MLP (ReLU, then sigmoid) tries to tell observed entries
//! from imputed ones given the complemented vector. The generator is trained
//! with a reconstruction loss plus a least-squares adversarial term that
//! pushes the discriminator towards believing imputed entries are observed.
//! Missing reference points fall back to linear interpolation, as in BRITS.
//!
//! Both players train on a tape ([`SsganTape`]) through the shared trainer
//! ([`crate::train`]): each chunk of sequences runs the discriminator phase,
//! then the generator phase against the updated discriminator. The
//! generator's forward and backward are the RITS step's
//! ([`RecurrentImputerWeights::forward`] and
//! [`RecurrentImputerWeights::backward`]); the discriminator's are written
//! here. The tape is bitwise the autodiff graph, its test oracle:
//!
//! - the discriminator phase's loss sums one masked MSE per step from
//!   `+0.0`, so each discriminator parameter receives its terms in step
//!   order;
//! - in the generator phase the loss's DFS enters the generator through the
//!   last step's adversarial term, then through its complement's estimate:
//!   the same entry as BRITS's forward direction, so the generator runs
//!   [`Schedule::Forward`] (its last LSTM step feeds no loss term). Every
//!   discriminator step runs before the generator, so each complement holds
//!   its adversarial term (the discriminator's input gradient) when the
//!   RITS backward adds the LSTM's term and hands the sum's `(1 − m)` share
//!   to the estimate. The discriminator's own gradients of this phase are
//!   not needed, so they are not computed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_nn::{LinearWeights, MlpWeights};
use rm_radiomap::{MaskMatrix, RadioMap};
use rm_tensor::recurrent::GradTerm;
use rm_tensor::{Matrix, NamedTensor, Precision, Scalar};

use crate::brits::{impute_mar, passthrough};
use crate::driver::{self, default_batch_size, default_epochs, Inputs, SequenceModel};
use crate::rits::{
    column, export_recurrent, import_recurrent, masked_mse, zeroed, RecurrentImputerWeights,
    RitsTape, Schedule,
};
use crate::sequence::{Normalization, PathSequence};
use crate::train::{chunk_gradients, Adam, Gradients, Parameters};
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

impl<T: Scalar> Parameters<T> for MlpWeights<T> {
    /// Each layer's `(W, b)`, input to output.
    fn tensors(&self) -> Vec<&Matrix<T>> {
        self.layers()
            .iter()
            .flat_map(|layer| [layer.weight(), layer.bias()])
            .collect()
    }

    fn for_each_tensor_mut(&mut self, mut f: impl FnMut(&mut Matrix<T>)) {
        for layer in self.layers_mut() {
            let (w, b) = layer.parts_mut();
            f(w);
            f(b);
        }
    }
}

/// The discriminator's two layers: hidden (ReLU) and output (sigmoid).
fn layers<T: Scalar>(discriminator: &MlpWeights<T>) -> [&LinearWeights<T>; 2] {
    let [hidden, output] = discriminator.layers() else {
        unreachable!("the discriminator has two layers");
    };
    [hidden, output]
}

/// One SSGAN sequence's training tape: the generator's RITS record, the
/// discriminator's record of every step (its hidden pre-activations, ReLU
/// outputs and sigmoid outputs), the gradients the generator's backward
/// starts from, and one step's scratch, all reused from sequence to
/// sequence, so a warm tape allocates nothing.
#[derive(Default)]
pub struct SsganTape<T: Scalar = f64> {
    generator: RitsTape<T>,
    /// `len × D`, `len × D` and `len × APs`.
    pre: Vec<T>,
    hidden: Vec<T>,
    out: Vec<T>,
    /// `len × APs`, `len × APs` and `len × H`: the loss's terms for each
    /// estimate and complement, and the hidden states' gradients.
    d_estimates: Vec<T>,
    d_complements: Vec<T>,
    d_latents: Vec<T>,
    /// One step's output and hidden gradients, target column and ones.
    d_out: Vec<T>,
    d_hidden: Vec<T>,
    target: Vec<T>,
    ones: Vec<T>,
    /// The addresses of the generator and sequence the last discriminator
    /// phase sampled, until a generator phase reads that sample.
    sampled: Option<(usize, usize)>,
}

/// The identity of one generator sample: the weights' and the sequence's
/// addresses.
fn sample_key<T: Scalar>(
    generator: &RecurrentImputerWeights<T>,
    seq: &PathSequence,
) -> (usize, usize) {
    (
        std::ptr::from_ref(generator) as usize,
        std::ptr::from_ref(seq) as usize,
    )
}

impl<T: Scalar> SsganTape<T> {
    /// An empty tape; the first sequence sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The discriminator phase on one sequence: samples the generator's
    /// complements (its RITS forward, which the next generator phase on the
    /// same generator and sequence reads too), evaluates the
    /// discriminator's loss —
    /// per step the MSE of its prediction against the observation mask,
    /// summed and scaled by `1/T` — and adds its gradient into `grads`
    /// (shaped like the discriminator's tensors), returning the loss.
    pub fn discriminator_gradient(
        &mut self,
        generator: &RecurrentImputerWeights<T>,
        discriminator: &MlpWeights<T>,
        seq: &PathSequence,
        grads: &mut Gradients<T>,
    ) -> T {
        generator.forward(seq, true, &mut self.generator);
        self.sampled = Some(sample_key(generator, seq));
        self.record(discriminator);
        let (len, a) = (seq.len(), aps(generator));
        self.ones.clear();
        self.ones.resize(a, T::ONE);
        let scale = T::from_f64(1.0 / len as f64);
        let mut total = T::ZERO;
        for t in 0..len {
            column(&seq.fingerprint_masks[t], &mut self.target);
            zeroed(&mut self.d_out, a);
            let out = &self.out[t * a..(t + 1) * a];
            total += masked_mse(out, &self.target, &self.ones, scale, &mut self.d_out, None);
            self.discriminator_backward(discriminator, t, Some(grads), false);
        }
        grads.flush();
        total * scale
    }

    /// The generator phase on one sequence: evaluates the generator's loss
    /// — per step the masked MSE of its estimate against the observation,
    /// then `adversarial_weight` times the MSE of the discriminator's
    /// prediction on its complement against "observed" over the missing
    /// entries, summed and scaled by `1/T` — and adds its gradient into
    /// `grads` (shaped like the generator's tensors), returning the loss.
    ///
    /// Right after a discriminator phase on this tape for the same
    /// `generator` and `seq` (the same references), it reads that phase's
    /// sample instead of running the generator's forward again, so neither
    /// may change in between. The trainer's alternation keeps that: only
    /// the generator phase's own Adam step changes the generator. The
    /// discriminator's record is redone, since its Adam step ran.
    pub fn generator_gradient(
        &mut self,
        generator: &RecurrentImputerWeights<T>,
        discriminator: &MlpWeights<T>,
        seq: &PathSequence,
        adversarial_weight: T,
        grads: &mut Gradients<T>,
    ) -> T {
        if self.sampled.take() != Some(sample_key(generator, seq)) {
            generator.forward(seq, true, &mut self.generator);
        }
        self.record(discriminator);
        let (len, a) = (seq.len(), aps(generator));
        zeroed(&mut self.d_estimates, len * a);
        zeroed(&mut self.d_complements, len * a);
        zeroed(&mut self.d_latents, self.generator.latents().len());
        self.ones.clear();
        self.ones.resize(a, T::ONE);
        let scale = T::from_f64(1.0 / len as f64);
        let adversarial_scale = scale * adversarial_weight;
        let mut total = T::ZERO;
        for t in 0..len {
            let step = t * a..(t + 1) * a;
            let mask = self.generator.mask(t);
            column(&seq.fingerprints[t], &mut self.target);
            let d = &mut self.d_estimates[step.clone()];
            total += masked_mse(
                self.generator.estimate(t),
                &self.target,
                mask,
                scale,
                d,
                None,
            );
            // Imputed entries should look observed (1) to the discriminator.
            for (inverse, &m) in self.target.iter_mut().zip(mask) {
                *inverse = T::ONE - m;
            }
            zeroed(&mut self.d_out, a);
            let out = &self.out[step];
            let adversarial = masked_mse(
                out,
                &self.ones,
                &self.target,
                adversarial_scale,
                &mut self.d_out,
                None,
            );
            total += adversarial * adversarial_weight;
            self.discriminator_backward(discriminator, t, None, true);
        }
        generator.backward(
            &mut self.generator,
            seq,
            Schedule::Forward,
            &mut self.d_estimates,
            &mut self.d_complements,
            &mut self.d_latents,
            grads,
        );
        total * scale
    }

    /// Records the discriminator's forward on every recorded complement:
    /// `σ(W₂·relu(W₁·x^c + b₁) + b₂)`.
    fn record(&mut self, discriminator: &MlpWeights<T>) {
        let [hidden_layer, output_layer] = layers(discriminator);
        let (d, a) = (hidden_layer.weight().rows(), output_layer.weight().rows());
        let len = self.generator.estimates().len() / a;
        zeroed(&mut self.pre, len * d);
        zeroed(&mut self.hidden, len * d);
        zeroed(&mut self.out, len * a);
        for t in 0..len {
            let pre = &mut self.pre[t * d..(t + 1) * d];
            hidden_layer.affine(self.generator.complement(t), pre);
            let hidden = &mut self.hidden[t * d..(t + 1) * d];
            for (h, &p) in hidden.iter_mut().zip(pre.iter()) {
                *h = p.relu();
            }
            let out = &mut self.out[t * a..(t + 1) * a];
            output_layer.affine(hidden, out);
            for o in out.iter_mut() {
                *o = o.sigmoid();
            }
        }
    }

    /// The backward of the discriminator's step `t` for the output gradient
    /// in `d_out`, in the graph's order: the sigmoid, the output layer
    /// (`b₂`, `W₂`, then `W₂ᵀδ₂` into the hidden activations), the ReLU, the
    /// hidden layer (`b₁`, `W₁`). The parameters' terms go into `grads` when
    /// given; with `input`, the input's `W₁ᵀδ₁` becomes complement `t`'s
    /// gradient.
    fn discriminator_backward(
        &mut self,
        discriminator: &MlpWeights<T>,
        t: usize,
        mut grads: Option<&mut Gradients<T>>,
        input: bool,
    ) {
        let [hidden_layer, output_layer] = layers(discriminator);
        let (d, a) = (hidden_layer.weight().rows(), output_layer.weight().rows());
        let out = &self.out[t * a..(t + 1) * a];
        for (g, &y) in self.d_out.iter_mut().zip(out) {
            *g = T::ZERO + *g * (y * (T::ONE - y));
        }
        let hidden = &self.hidden[t * d..(t + 1) * d];
        if let Some(grads) = grads.as_deref_mut() {
            grads.add(3, GradTerm::Bias(&self.d_out));
            grads.add(2, GradTerm::Outer(&self.d_out, hidden));
        }
        zeroed(&mut self.d_hidden, d);
        let weight = output_layer.weight();
        weight.matmul_at_b_col_into(&self.d_out, 0..d, &mut self.d_hidden);
        let pre = &self.pre[t * d..(t + 1) * d];
        for (g, &p) in self.d_hidden.iter_mut().zip(pre) {
            *g = T::ZERO + *g * if p > T::ZERO { T::ONE } else { T::ZERO };
        }
        if let Some(grads) = grads {
            grads.add(1, GradTerm::Bias(&self.d_hidden));
            let x = self.generator.complement(t);
            grads.add(0, GradTerm::Outer(&self.d_hidden, x));
        }
        if input {
            let d_input = &mut self.d_complements[t * a..(t + 1) * a];
            let weight = hidden_layer.weight();
            weight.matmul_at_b_col_into(&self.d_hidden, 0..a, d_input);
        }
    }
}

/// The number of APs a generator imputes.
fn aps<T: Scalar>(generator: &RecurrentImputerWeights<T>) -> usize {
    generator.parts().0.weight().rows()
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
}

/// SSGAN in the shared driver: the generator under `ssgan.generator.*` and
/// the discriminator under `ssgan.discriminator.N.*`. The discriminator does
/// not impute, but warm fine-tuning resumes the adversarial game, so both
/// players persist.
impl SequenceModel for Ssgan {
    type Weights = (RecurrentImputerWeights, MlpWeights);

    fn sequence_length(&self) -> usize {
        self.config.sequence_length
    }

    fn epochs(&self) -> usize {
        self.config.epochs
    }

    /// The generator, then the discriminator.
    fn fresh(&self, num_aps: usize) -> Self::Weights {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let generator = RecurrentImputerWeights::new(num_aps, self.config.hidden_size, &mut rng);
        let sizes = [num_aps, self.config.discriminator_hidden, num_aps];
        (generator, MlpWeights::new(&sizes, &mut rng))
    }

    /// Both players, every shape checked against a `num_aps`-AP map and the
    /// discriminator's two layers.
    fn import(&self, warm: &[NamedTensor], num_aps: usize) -> Option<Self::Weights> {
        let generator = import_recurrent("ssgan.generator", warm, num_aps)?;
        let discriminator = snapshot::import_mlp(warm, "ssgan.discriminator")?;
        let [hidden, output] = discriminator.layers() else {
            return None;
        };
        if hidden.weight().cols() != num_aps || output.weight().rows() != num_aps {
            return None;
        }
        Some((generator, discriminator))
    }

    fn export(&self, (generator, discriminator): &Self::Weights) -> Vec<NamedTensor> {
        let precision = self.config.precision;
        let mut tensors = Vec::new();
        export_recurrent("ssgan.generator", generator, precision, &mut tensors);
        snapshot::export_mlp(
            "ssgan.discriminator",
            discriminator,
            precision,
            &mut tensors,
        );
        tensors
    }

    /// None: the generator runs forward only.
    fn reverse(&self, _: &[PathSequence], _: &Normalization) -> Vec<PathSequence> {
        Vec::new()
    }

    /// Deterministic mini-batch adversarial training of both players: each
    /// fixed-boundary chunk of sequences runs two phases through the shared
    /// trainer (`chunk_gradients`) —
    /// the discriminator's, then the generator's against the just-updated
    /// discriminator — each phase's gradients computed against the weights
    /// it started from and summed in sequence-index order, then one Adam
    /// step of that player. Single-sequence chunks (the `batch_size = 1`
    /// default) reproduce the classic alternating loop bitwise.
    fn train(
        &self,
        (generator, discriminator): &mut Self::Weights,
        inputs: &Inputs,
        epochs: usize,
    ) {
        let sequences = &inputs.sequences;
        let learning_rate = self.config.learning_rate;
        let (mut gen_adam, mut disc_adam) = (
            Adam::new(generator, learning_rate),
            Adam::new(discriminator, learning_rate),
        );
        let mut gen_grads = [Gradients::zeros_like(generator)];
        let mut disc_grads = [Gradients::zeros_like(discriminator)];
        let mut tape = SsganTape::new();
        let (threads, weight) = (self.config.threads, self.config.adversarial_weight);
        let indices: Vec<usize> = (0..sequences.len()).collect();
        for _ in 0..epochs {
            for chunk in indices.chunks(self.config.batch_size.max(1)) {
                let (g, d) = (&*generator, &*discriminator);
                chunk_gradients(
                    &mut disc_grads,
                    &mut tape,
                    chunk,
                    threads,
                    || [Gradients::zeros_like(d)],
                    |tape: &mut SsganTape, i, [grads]| {
                        tape.discriminator_gradient(g, d, &sequences[i], grads);
                    },
                );
                disc_adam.step(discriminator, &disc_grads[0]);

                let (g, d) = (&*generator, &*discriminator);
                chunk_gradients(
                    &mut gen_grads,
                    &mut tape,
                    chunk,
                    threads,
                    || [Gradients::zeros_like(g)],
                    |tape: &mut SsganTape, i, [grads]| {
                        tape.generator_gradient(g, d, &sequences[i], weight, grads);
                    },
                );
                gen_adam.step(generator, &gen_grads[0]);
            }
        }
    }

    /// The generator's complements at MAR positions ([`crate::brits::mar_values`], BRITS's
    /// inference with one direction).
    fn infer(
        &self,
        (generator, _): &Self::Weights,
        inputs: &Inputs,
        map: &RadioMap,
        mask: &MaskMatrix,
    ) -> ImputedRadioMap {
        let directions = [(generator, &inputs.sequences[..])];
        let (precision, threads) = (self.config.precision, self.config.threads);
        impute_mar(map, mask, &inputs.norm, &directions, precision, threads)
    }

    fn passthrough(map: &RadioMap) -> ImputedRadioMap {
        passthrough(map)
    }
}

impl Imputer for Ssgan {
    fn impute(&self, map: &RadioMap, mask: &MaskMatrix) -> ImputedRadioMap {
        self.impute_with_snapshot(map, mask).0
    }

    fn impute_with_snapshot(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        driver::run(self, map, mask, None)
    }

    fn impute_warm(
        &self,
        map: &RadioMap,
        mask: &MaskMatrix,
        warm: &[NamedTensor],
        fine_tune_epochs: usize,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        driver::run(self, map, mask, Some((warm, fine_tune_epochs)))
    }

    fn name(&self) -> &'static str {
        "SSGAN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brits::graph::RecurrentImputer;
    use crate::brits::tests::{sequence, shifted, smooth_map, Masks};
    use crate::sequence::build_sequences;
    use rm_autodiff::{loss, Mlp, Var};
    use rm_nn::Activation;

    /// The graph oracle of the discriminator phase on one sequence: the
    /// discriminator's loss on the generator's (detached) complements,
    /// differentiated into the discriminator's parameters. Returns the loss.
    fn graph_discriminator_phase(
        generator: &RecurrentImputer,
        discriminator: &Mlp,
        seq: &PathSequence,
    ) -> f64 {
        let pass = generator.run(seq);
        let mut disc_loss = Var::scalar(0.0);
        for t in 0..seq.len() {
            let m = Matrix::column(&seq.fingerprint_masks[t]);
            let detached = Var::constant(pass.complements[t].value());
            let predicted = discriminator.forward(&detached);
            disc_loss = disc_loss.add(&loss::mse(&predicted, &m));
        }
        let scaled = disc_loss.scale(1.0 / seq.len() as f64);
        scaled.backward();
        scaled.scalar_value()
    }

    /// The graph oracle of the generator phase on one sequence: masked
    /// reconstruction plus the least-squares adversarial term,
    /// differentiated into both players' parameters. Returns the loss.
    fn graph_generator_phase(
        generator: &RecurrentImputer,
        discriminator: &Mlp,
        seq: &PathSequence,
        adversarial_weight: f64,
    ) -> f64 {
        let pass = generator.run(seq);
        let mut gen_loss = Var::scalar(0.0);
        for t in 0..seq.len() {
            let target = Matrix::column(&seq.fingerprints[t]);
            let m = Matrix::column(&seq.fingerprint_masks[t]);
            gen_loss = gen_loss.add(&loss::masked_mse(&pass.estimates[t], &target, &m));
            let inverse_mask = m.map(|v| 1.0 - v);
            let predicted = discriminator.forward(&pass.complements[t]);
            let ones = Matrix::ones(m.rows(), 1);
            let adv = loss::masked_mse(&predicted, &ones, &inverse_mask).scale(adversarial_weight);
            gen_loss = gen_loss.add(&adv);
        }
        let scaled = gen_loss.scale(1.0 / seq.len() as f64);
        scaled.backward();
        scaled.scalar_value()
    }

    /// A graph discriminator holding copies of `weights`.
    fn graph_discriminator(weights: &MlpWeights) -> Mlp {
        Mlp::from_weights(weights, Activation::Relu, Activation::Sigmoid)
    }

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
        let adam = |params| rm_autodiff::Adam::new(params, config.learning_rate).with_clip(5.0);
        let mut gen_opt = adam(generator.parameters());
        let mut disc_opt = adam(discriminator.parameters());
        for _ in 0..config.epochs {
            for seq in &sequences {
                disc_opt.zero_grad();
                graph_discriminator_phase(&generator, &discriminator, seq);
                disc_opt.step();

                gen_opt.zero_grad();
                graph_generator_phase(&generator, &discriminator, seq, config.adversarial_weight);
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

    /// Empty snapshots, and discriminators of another depth than two
    /// layers (which the tape's discriminator backward cannot run), fall
    /// back to the cold path bitwise.
    #[test]
    fn warm_with_unusable_snapshot_falls_back_to_cold_training() {
        let (map, mask) = smooth_map();
        let ssgan = Ssgan::new(quick_config());
        let (cold, tensors) = ssgan.impute_with_snapshot(&map, &mask);
        let generator: Vec<NamedTensor> = tensors
            .iter()
            .filter(|t| t.name.starts_with("ssgan.generator."))
            .cloned()
            .collect();
        let layer = |i: usize, rows: usize, cols: usize| {
            let prefix = format!("ssgan.discriminator.{i}");
            [
                NamedTensor::new(
                    format!("{prefix}.weight"),
                    Matrix::<f64>::filled(rows, cols, 0.1),
                ),
                NamedTensor::new(format!("{prefix}.bias"), Matrix::<f64>::zeros(rows, 1)),
            ]
        };
        // One 2 → 2 layer, and three layers 2 → 16 → 16 → 2: each imports
        // as a chained MLP of the map's width.
        let one_layer: Vec<NamedTensor> = generator.iter().cloned().chain(layer(0, 2, 2)).collect();
        let three_layers: Vec<NamedTensor> = generator
            .iter()
            .cloned()
            .chain(layer(0, 16, 2))
            .chain(layer(1, 16, 16))
            .chain(layer(2, 2, 16))
            .collect();
        for warm in [&Vec::new(), &one_layer, &three_layers] {
            let (out, tensors) = ssgan.impute_warm(&map, &mask, warm, 2);
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
    }

    /// The tape against its oracle, the graph's two phases: both losses,
    /// all 4 discriminator gradient tensors of the discriminator phase and
    /// all 12 generator gradient tensors of the generator phase, bit for
    /// bit, for `T ∈ {1, 2, 5}`, masks observing every, some and no entry,
    /// inputs holding `±0.0`, and two shapes (the wider one runs the vector
    /// kernels). One tape serves every case, so a record or scratch buffer
    /// that leaked from one sequence into the next would show too.
    #[test]
    fn tape_matches_the_graph_oracle_bitwise() {
        let mut tape = SsganTape::new();
        let mut cases = 0;
        for (aps, hidden, disc_hidden) in [(5, 8, 6), (19, 17, 13)] {
            for len in [1, 2, 5] {
                for masks in [Masks::AllObserved, Masks::Mixed, Masks::AllMissing] {
                    let salt = cases;
                    let mut rng = StdRng::seed_from_u64(salt as u64);
                    let generator = shifted(RecurrentImputerWeights::new(aps, hidden, &mut rng));
                    let discriminator =
                        shifted(MlpWeights::new(&[aps, disc_hidden, aps], &mut rng));
                    let seq = sequence(len, aps, salt, masks);
                    let case = format!("T={len} {masks:?} A={aps} H={hidden}");

                    let (gm, dm) = (generator.to_model(), graph_discriminator(&discriminator));
                    let want = graph_discriminator_phase(&gm, &dm, &seq);
                    let mut grads = Gradients::zeros_like(&discriminator);
                    let loss =
                        tape.discriminator_gradient(&generator, &discriminator, &seq, &mut grads);
                    assert_eq!(loss.to_bits(), want.to_bits(), "{case}: discriminator loss");
                    let params = dm.parameters();
                    assert_eq!(params.len(), 4);
                    for (k, (p, g)) in params.iter().zip(grads.tensors()).enumerate() {
                        assert!(p.grad().bits_eq(g), "{case}: discriminator tensor {k}");
                    }

                    let (gm, dm) = (generator.to_model(), graph_discriminator(&discriminator));
                    let want = graph_generator_phase(&gm, &dm, &seq, 0.3);
                    let mut grads = Gradients::zeros_like(&generator);
                    let loss =
                        tape.generator_gradient(&generator, &discriminator, &seq, 0.3, &mut grads);
                    assert_eq!(loss.to_bits(), want.to_bits(), "{case}: generator loss");
                    let params = gm.parameters();
                    assert_eq!(params.len(), 12);
                    for (k, (p, g)) in params.iter().zip(grads.tensors()).enumerate() {
                        assert!(p.grad().bits_eq(g), "{case}: generator tensor {k}");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2 * 3 * 3);
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
