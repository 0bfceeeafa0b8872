//! BiSIM as an autodiff graph: the oracle the training tape ([`crate::tape`])
//! is held to bit for bit. Test-only: BiSIM trains and infers on plain
//! weights ([`BisimDirectionWeights`]).

use rand::rngs::StdRng;
use rm_autodiff::{loss, InputPart, Linear, LstmCell, LstmState, Mlp, Var};
use rm_imputers::{PathSequence, RecurrentImputerWeights};
use rm_nn::Activation;
use rm_tensor::Matrix;

use crate::model::{rp_time_lag, AttentionMode, BisimDirectionWeights, TimeLagMode};

/// The per-step outputs of one directional pass through BiSIM.
pub(crate) struct BisimPass {
    /// Predicted fingerprints `f′_i` (used by the loss).
    pub fingerprint_estimates: Vec<Var>,
    /// Complemented fingerprints `f^c_i` (the imputations).
    pub fingerprint_complements: Vec<Var>,
    /// Predicted RP vectors `l′_j` (used by the loss).
    pub rp_estimates: Vec<Var>,
    /// Complemented RP vectors `l^c_j` (the imputations).
    pub rp_complements: Vec<Var>,
}

/// One directional BiSIM model as an autodiff graph: an encoder stack over
/// the fingerprint sequence, a decoder stack over the RP sequence, and an
/// attention unit connecting them. BiSIM trains [`BisimDirectionWeights`]
/// on the tape; this graph form is the tape's oracle ([`sequence_loss`]).
pub(crate) struct BisimDirection {
    // Encoder unit parameters (Eq. 2–5).
    encoder_estimate: Linear,
    encoder_decay: Linear,
    encoder_cell: LstmCell,
    // Decoder unit parameters (Eq. 6–8).
    decoder_estimate: Linear,
    decoder_decay: Linear,
    decoder_cell: LstmCell,
    // Attention unit parameters (Eq. 9–12).
    attention_transform: Linear,
    attention_align: Mlp,
    hidden_size: usize,
    num_aps: usize,
    attention: AttentionMode,
    time_lag: TimeLagMode,
}

impl BisimDirection {
    /// Creates one directional model.
    pub(crate) fn new(
        num_aps: usize,
        hidden_size: usize,
        attention: AttentionMode,
        time_lag: TimeLagMode,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            encoder_estimate: Linear::new(hidden_size, num_aps, rng),
            encoder_decay: Linear::new(num_aps, hidden_size, rng),
            encoder_cell: LstmCell::new(num_aps * 2, hidden_size, rng),
            decoder_estimate: Linear::new(hidden_size, 2, rng),
            decoder_decay: Linear::new(2, hidden_size, rng),
            decoder_cell: LstmCell::new(2 + num_aps, hidden_size, rng),
            attention_transform: Linear::new(hidden_size, num_aps, rng),
            attention_align: Mlp::new(
                &[hidden_size + num_aps, hidden_size, 1],
                Activation::Tanh,
                Activation::Identity,
                rng,
            ),
            hidden_size,
            num_aps,
            attention,
            time_lag,
        }
    }

    /// All trainable parameters of this direction.
    pub(crate) fn parameters(&self) -> Vec<Var> {
        let mut params = self.encoder_estimate.parameters();
        params.extend(self.encoder_decay.parameters());
        params.extend(self.encoder_cell.parameters());
        params.extend(self.decoder_estimate.parameters());
        params.extend(self.decoder_decay.parameters());
        params.extend(self.decoder_cell.parameters());
        params.extend(self.attention_transform.parameters());
        params.extend(self.attention_align.parameters());
        params
    }

    /// Runs the encoder–decoder over one prepared sequence.
    pub(crate) fn run(&self, seq: &PathSequence) -> BisimPass {
        let len = seq.len();
        let mut fingerprint_estimates = Vec::with_capacity(len);
        let mut fingerprint_complements = Vec::with_capacity(len);
        let mut encoder_latents = Vec::with_capacity(len);
        let mut encoder_masks = Vec::with_capacity(len);

        // ---------------- Encoder stack (Eq. 2–5) ----------------
        let mut state = LstmState::zeros(self.hidden_size);
        for t in 0..len {
            let fingerprint = Var::constant(Matrix::column(&seq.fingerprints[t]));
            let mask = Matrix::column(&seq.fingerprint_masks[t]);
            let inverse_mask = mask.map(|m| 1.0 - m);

            // Eq. 2: estimate from the previous latent vector.
            let estimate = self.encoder_estimate.forward(&state.h);
            // Eq. 3: complement observed values with the estimate.
            let complement = fingerprint.mask(&mask).add(&estimate.mask(&inverse_mask));
            // Eq. 4: temporal decay factor from the time-lag vector.
            let decayed = if matches!(self.time_lag, TimeLagMode::Encoder | TimeLagMode::Both) {
                let lag = Var::constant(Matrix::column(&seq.time_lags[t]));
                let gamma = self.encoder_decay.forward(&lag).relu().scale(-1.0).exp();
                state.with_hidden(state.h.hadamard(&gamma))
            } else {
                state.clone()
            };
            // Eq. 5: LSTM over the complemented fingerprint concatenated with
            // the mask (a constant part: no node, no gradient).
            state = self.encoder_cell.step(
                &[InputPart::Node(&complement), InputPart::Const(&mask)],
                &decayed,
            );

            fingerprint_estimates.push(estimate);
            fingerprint_complements.push(complement);
            encoder_latents.push(state.h.clone());
            encoder_masks.push(mask);
        }

        // Pre-compute the (possibly masked) transformed latents h''_i (Eq. 9).
        let transformed: Vec<Var> = encoder_latents
            .iter()
            .zip(encoder_masks.iter())
            .map(|(h, m)| {
                let h_prime = self.attention_transform.forward(h);
                match self.attention {
                    AttentionMode::SparsityFriendly => h_prime.mask(m),
                    _ => h_prime,
                }
            })
            .collect();

        // ---------------- Decoder stack with attention (Eq. 6–12) ----------------
        // s_0 = h_T: the decoder starts from the final encoder latent vector.
        let mut decoder_state = LstmState::from_hidden(
            encoder_latents
                .last()
                .cloned()
                .unwrap_or_else(|| Var::constant(Matrix::zeros(self.hidden_size, 1))),
        );
        let rp_lags = rp_time_lags(seq);
        let mut rp_estimates = Vec::with_capacity(len);
        let mut rp_complements = Vec::with_capacity(len);
        for j in 0..len {
            let rp = Var::constant(Matrix::column(&[seq.rps[j].0, seq.rps[j].1]));
            let rp_mask = Matrix::column(&[seq.rp_masks[j], seq.rp_masks[j]]);
            let inverse_mask = rp_mask.map(|m| 1.0 - m);

            // Eq. 6: estimate the RP from the previous decoder latent vector.
            let estimate = self.decoder_estimate.forward(&decoder_state.h);
            // Eq. 7: complement.
            let complement = rp.mask(&rp_mask).add(&estimate.mask(&inverse_mask));
            // Attention (Eq. 10–12): context vector from the encoder latents.
            let context = self.context_vector(&decoder_state.h, &transformed);
            // Optional decoder-side time decay (ablation only).
            let decayed = if matches!(self.time_lag, TimeLagMode::Decoder | TimeLagMode::Both) {
                let lag = Var::constant(Matrix::column(&rp_lags[j]));
                let gamma = self.decoder_decay.forward(&lag).relu().scale(-1.0).exp();
                decoder_state.with_hidden(decoder_state.h.hadamard(&gamma))
            } else {
                decoder_state.clone()
            };
            // Eq. 8: LSTM over the complemented RP concatenated with the context.
            decoder_state = self.decoder_cell.step(
                &[InputPart::Node(&complement), InputPart::Node(&context)],
                &decayed,
            );

            rp_estimates.push(estimate);
            rp_complements.push(complement);
        }

        BisimPass {
            fingerprint_estimates,
            fingerprint_complements,
            rp_estimates,
            rp_complements,
        }
    }

    /// The attention context vector c_j for the current decoder latent
    /// vector (Eq. 10–12): one [`Var::attention`] node over the alignment
    /// MLP's two layers.
    fn context_vector(&self, decoder_hidden: &Var, transformed: &[Var]) -> Var {
        if matches!(self.attention, AttentionMode::None) || transformed.is_empty() {
            return Var::constant(Matrix::zeros(self.num_aps, 1));
        }
        let [hidden, energy] = self.attention_align.layers() else {
            unreachable!("the alignment MLP has one hidden layer");
        };
        decoder_hidden.attention(
            transformed,
            [
                hidden.weight(),
                hidden.bias(),
                energy.weight(),
                energy.bias(),
            ],
        )
    }

    /// Copies the current parameters into graph-free, `Send + Sync`
    /// [`BisimDirectionWeights`].
    pub(crate) fn snapshot(&self) -> BisimDirectionWeights {
        BisimDirectionWeights {
            encoder: RecurrentImputerWeights::from_parts(
                self.encoder_estimate.snapshot(),
                self.encoder_decay.snapshot(),
                self.encoder_cell.snapshot(),
            ),
            decoder_estimate: self.decoder_estimate.snapshot(),
            decoder_decay: self.decoder_decay.snapshot(),
            decoder_cell: self.decoder_cell.snapshot(),
            attention_transform: self.attention_transform.snapshot(),
            attention_align: self.attention_align.snapshot(),
            hidden_size: self.hidden_size,
            num_aps: self.num_aps,
            attention: self.attention,
            time_lag: self.time_lag,
        }
    }
}

/// Time-lag vectors for the RP sequence (2-dimensional, driven by the RP
/// masks), used only by the decoder-side ablations: the graph pass's list
/// ([`BisimDirection::run`]) of [`rp_time_lag`]'s steps.
fn rp_time_lags(seq: &PathSequence) -> Vec<[f64; 2]> {
    let mut lags: Vec<[f64; 2]> = Vec::with_capacity(seq.len());
    for j in 0..seq.len() {
        lags.push(rp_time_lag(
            seq,
            j,
            lags.last().copied().unwrap_or([0.0; 2]),
        ));
    }
    lags
}

impl BisimDirectionWeights {
    /// Rebuilds a graph [`BisimDirection`] from these weights (fresh
    /// parameter leaves holding copies of the matrices; the inverse of
    /// [`BisimDirection::snapshot`]): the oracle side of the tape tests.
    pub(crate) fn to_model(&self) -> BisimDirection {
        let (estimate, decay, cell) = self.encoder.parts();
        let align = &self.attention_align;
        BisimDirection {
            encoder_estimate: Linear::from_weights(estimate),
            encoder_decay: Linear::from_weights(decay),
            encoder_cell: LstmCell::from_weights(cell),
            decoder_estimate: Linear::from_weights(&self.decoder_estimate),
            decoder_decay: Linear::from_weights(&self.decoder_decay),
            decoder_cell: LstmCell::from_weights(&self.decoder_cell),
            attention_transform: Linear::from_weights(&self.attention_transform),
            attention_align: Mlp::from_weights(align, Activation::Tanh, Activation::Identity),
            hidden_size: self.hidden_size,
            num_aps: self.num_aps,
            attention: self.attention,
            time_lag: self.time_lag,
        }
    }
}

/// The overall loss of Section IV-D for one sequence pair as an autodiff
/// graph: `L_forward + L_backward + L_cross`, each a masked MSE over
/// observed fingerprints and RPs. The oracle of the training tape
/// ([`crate::PairTape::differentiate`]), which evaluates the same loss and its
/// gradient without a graph.
pub(crate) fn sequence_loss(
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

/// The graph oracle of one training step: differentiates the Section IV-D
/// loss of one `(sequence, reversed)` pair through the autodiff graph,
/// accumulating into the models' parameter gradients, and returns the
/// loss. Training runs the tape ([`crate::PairTape::differentiate`]), which
/// the tests hold to this bit for bit.
pub(crate) fn pair_backward(
    forward: &BisimDirection,
    backward: &BisimDirection,
    seq: &PathSequence,
    rev: &PathSequence,
) -> f64 {
    let fwd = forward.run(seq);
    let bwd = backward.run(rev);
    let loss = sequence_loss(seq, rev, &fwd, &bwd);
    loss.backward();
    loss.scalar_value()
}
