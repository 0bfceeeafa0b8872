//! The internals of BiSIM (Section IV-C): encoder units, decoder units and the
//! sparsity-friendly attention unit, assembled into one directional
//! sequence-to-sequence pass.

use rand::rngs::StdRng;
use rm_imputers::PathSequence;
use rm_nn::{
    Activation, Linear, LinearWeights, LinearWeightsBf16, LstmCell, LstmCellWeights,
    LstmCellWeightsBf16, LstmState, LstmStateMatrix, Mlp, MlpWeights, MlpWeightsBf16,
};
use rm_tensor::recurrent::attention_forward;
use rm_tensor::{InputPart, Matrix, NamedTensor, Precision, Scalar, SnapshotDtype, Var, Workspace};

/// Which attention mechanism the decoder uses (the Fig. 17 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionMode {
    /// The paper's sparsity-friendly adaptation of Bahdanau attention: only
    /// the observed part of each encoder latent vector participates.
    SparsityFriendly,
    /// Plain Bahdanau attention (no masking of the latent vectors).
    Standard,
    /// No attention: the context vector is all zeros.
    None,
}

/// Where the time-lag decay mechanism is applied (the Fig. 18 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeLagMode {
    /// Time lag in the encoder only — the paper's final design.
    Encoder,
    /// Time lag in the decoder only.
    Decoder,
    /// Time lag in both encoder and decoder.
    Both,
    /// No time-lag mechanism.
    None,
}

/// The per-step outputs of one directional pass through BiSIM.
pub struct BisimPass {
    /// Predicted fingerprints `f′_i` (used by the loss).
    pub fingerprint_estimates: Vec<Var>,
    /// Complemented fingerprints `f^c_i` (the imputations).
    pub fingerprint_complements: Vec<Var>,
    /// Predicted RP vectors `l′_j` (used by the loss).
    pub rp_estimates: Vec<Var>,
    /// Complemented RP vectors `l^c_j` (the imputations).
    pub rp_complements: Vec<Var>,
}

impl BisimPass {
    /// Consumes the pass into its output handles — the roots to hand to
    /// [`Var::recycle_all`] once the pass's values and gradients are no
    /// longer needed, returning the graph to the per-worker node arena.
    pub fn into_vars(self) -> impl Iterator<Item = Var> {
        self.fingerprint_estimates
            .into_iter()
            .chain(self.fingerprint_complements)
            .chain(self.rp_estimates)
            .chain(self.rp_complements)
    }
}

/// One directional BiSIM model: an encoder stack over the fingerprint
/// sequence, a decoder stack over the RP sequence, and an attention unit
/// connecting them.
pub struct BisimDirection {
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
    pub fn new(
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
    pub fn parameters(&self) -> Vec<Var> {
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
    pub fn run(&self, seq: &PathSequence) -> BisimPass {
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

    /// Copies the current parameters into a graph-free, `Send + Sync`
    /// [`BisimDirectionWeights`] snapshot, for worker-side graph rebuilds
    /// during batched training.
    pub fn snapshot(&self) -> BisimDirectionWeights {
        BisimDirectionWeights {
            encoder_estimate: self.encoder_estimate.snapshot(),
            encoder_decay: self.encoder_decay.snapshot(),
            encoder_cell: self.encoder_cell.snapshot(),
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
/// masks), used only by the decoder-side ablations. Shared by the graph pass
/// ([`BisimDirection::run`]) and the snapshot pass
/// ([`BisimDirectionWeights::run`]) so the two stay in lockstep.
fn rp_time_lags(seq: &PathSequence) -> Vec<Vec<f64>> {
    let len = seq.len();
    let mut lags = Vec::with_capacity(len);
    for j in 0..len {
        if j == 0 {
            lags.push(vec![0.0, 0.0]);
        } else {
            let dt = (seq.times[j] - seq.times[j - 1]).abs() / 10.0;
            let previous: &Vec<f64> = &lags[j - 1];
            let lag = if seq.rp_masks[j - 1] > 0.5 {
                vec![dt, dt]
            } else {
                vec![previous[0] + dt, previous[1] + dt]
            };
            lags.push(lag);
        }
    }
    lags
}

/// A graph-free snapshot of one [`BisimDirection`]: plain matrices plus the
/// ablation settings, so it is `Send + Sync` and can be shipped to worker
/// threads (unlike [`Var`], whose nodes are `Rc`-shared). Generic over the
/// [`Scalar`] precision: the `f64` snapshot serves batched training and the
/// bit-identical inference fan-out; [`BisimDirectionWeights::cast`] rounds
/// it once for the f32 inference path.
///
/// [`BisimDirectionWeights::to_model`] rebuilds a trainable direction whose
/// forward and backward passes are bit-identical to the original's — the
/// property that lets batched training differentiate per-sequence replicas
/// on the pool and ship only plain gradient matrices back.
/// [`BisimDirectionWeights::run`] mirrors [`BisimDirection::run`] operation
/// for operation, so snapshot inference is bit-identical to the graph
/// forward at the same precision (pinned by the serial-trajectory test in
/// the crate root).
#[derive(Clone)]
pub struct BisimDirectionWeights<T: Scalar = f64> {
    encoder_estimate: LinearWeights<T>,
    encoder_decay: LinearWeights<T>,
    encoder_cell: LstmCellWeights<T>,
    decoder_estimate: LinearWeights<T>,
    decoder_decay: LinearWeights<T>,
    decoder_cell: LstmCellWeights<T>,
    attention_transform: LinearWeights<T>,
    attention_align: MlpWeights<T>,
    hidden_size: usize,
    num_aps: usize,
    attention: AttentionMode,
    time_lag: TimeLagMode,
}

/// The per-step outputs of one matrix-level (graph-free) directional pass:
/// only the complements, which are all inference consumes.
pub struct BisimMatrixPass<T: Scalar = f64> {
    /// Complemented fingerprints `f^c_i`, one `(num_aps, 1)` column per step.
    pub fingerprint_complements: Vec<Matrix<T>>,
    /// Complemented RP vectors `l^c_j`, one `(2, 1)` column per step.
    pub rp_complements: Vec<Matrix<T>>,
}

impl BisimDirectionWeights {
    /// Exports this direction's weights as `{prefix}.*` named tensors at the
    /// dtype the inference path keeps resident (the shared
    /// [`rm_imputers::snapshot::export_linear`] contract: exported bits
    /// equal serving bits in every mode). Names mirror the unit structure:
    /// `encoder.{estimate, decay, cell.*}`, `decoder.{estimate, decay,
    /// cell.*}`, `attention.{transform, align.N}`.
    pub fn export(
        &self,
        prefix: &str,
        precision: Precision,
        snapshot_dtype: SnapshotDtype,
        tensors: &mut Vec<NamedTensor>,
    ) {
        use rm_imputers::snapshot::{export_linear, export_lstm_cell, export_mlp};
        export_linear(
            &format!("{prefix}.encoder.estimate"),
            &self.encoder_estimate,
            precision,
            snapshot_dtype,
            tensors,
        );
        export_linear(
            &format!("{prefix}.encoder.decay"),
            &self.encoder_decay,
            precision,
            snapshot_dtype,
            tensors,
        );
        export_lstm_cell(
            &format!("{prefix}.encoder"),
            &self.encoder_cell,
            precision,
            snapshot_dtype,
            tensors,
        );
        export_linear(
            &format!("{prefix}.decoder.estimate"),
            &self.decoder_estimate,
            precision,
            snapshot_dtype,
            tensors,
        );
        export_linear(
            &format!("{prefix}.decoder.decay"),
            &self.decoder_decay,
            precision,
            snapshot_dtype,
            tensors,
        );
        export_lstm_cell(
            &format!("{prefix}.decoder"),
            &self.decoder_cell,
            precision,
            snapshot_dtype,
            tensors,
        );
        export_linear(
            &format!("{prefix}.attention.transform"),
            &self.attention_transform,
            precision,
            snapshot_dtype,
            tensors,
        );
        export_mlp(
            &format!("{prefix}.attention.align"),
            &self.attention_align,
            precision,
            snapshot_dtype,
            tensors,
        );
    }

    /// Rebuilds one direction's weights from tensors exported by
    /// [`BisimDirectionWeights::export`] under `prefix`, validating every
    /// shape against a `num_aps`-AP map (the ablation settings are part of
    /// the architecture the caller fixes, like the MLP activations).
    /// Returns `None` — the caller then falls back to cold training — when
    /// a tensor is missing or the snapshot was trained for a different map
    /// shape.
    pub fn import(
        prefix: &str,
        tensors: &[NamedTensor],
        num_aps: usize,
        attention: AttentionMode,
        time_lag: TimeLagMode,
    ) -> Option<Self> {
        use rm_imputers::snapshot::{import_linear, import_lstm_cell, import_mlp};
        let encoder = format!("{prefix}.encoder");
        let decoder = format!("{prefix}.decoder");
        let encoder_estimate = import_linear(tensors, &encoder, "estimate")?;
        let encoder_decay = import_linear(tensors, &encoder, "decay")?;
        let encoder_cell = import_lstm_cell(tensors, &encoder)?;
        let decoder_estimate = import_linear(tensors, &decoder, "estimate")?;
        let decoder_decay = import_linear(tensors, &decoder, "decay")?;
        let decoder_cell = import_lstm_cell(tensors, &decoder)?;
        let attention_transform = import_linear(tensors, prefix, "attention.transform")?;
        let attention_align = import_mlp(
            tensors,
            &format!("{prefix}.attention.align"),
            Activation::Tanh,
            Activation::Identity,
        )?;

        // Validate every unit against the architecture of
        // [`BisimDirection::new`] before anything can panic downstream.
        let hidden_size = encoder_estimate.weight().cols();
        let align = attention_align.layers();
        if hidden_size == 0
            || encoder_estimate.weight().shape() != (num_aps, hidden_size)
            || encoder_decay.weight().shape() != (hidden_size, num_aps)
            || encoder_cell.gates()[0].weight().shape() != (hidden_size, num_aps * 2 + hidden_size)
            || decoder_estimate.weight().shape() != (2, hidden_size)
            || decoder_decay.weight().shape() != (hidden_size, 2)
            || decoder_cell.gates()[0].weight().shape() != (hidden_size, 2 + num_aps + hidden_size)
            || attention_transform.weight().shape() != (num_aps, hidden_size)
            || align.first()?.weight().cols() != hidden_size + num_aps
            || align.last()?.weight().rows() != 1
        {
            return None;
        }
        Some(Self {
            encoder_estimate,
            encoder_decay,
            encoder_cell,
            decoder_estimate,
            decoder_decay,
            decoder_cell,
            attention_transform,
            attention_align,
            hidden_size,
            num_aps,
            attention,
            time_lag,
        })
    }

    /// Rebuilds a trainable [`BisimDirection`] from this snapshot (fresh
    /// parameter leaves holding copies of the snapshotted matrices; the
    /// inverse of [`BisimDirection::snapshot`]).
    pub fn to_model(&self) -> BisimDirection {
        BisimDirection {
            encoder_estimate: self.encoder_estimate.to_linear(),
            encoder_decay: self.encoder_decay.to_linear(),
            encoder_cell: self.encoder_cell.to_cell(),
            decoder_estimate: self.decoder_estimate.to_linear(),
            decoder_decay: self.decoder_decay.to_linear(),
            decoder_cell: self.decoder_cell.to_cell(),
            attention_transform: self.attention_transform.to_linear(),
            attention_align: self.attention_align.to_mlp(),
            hidden_size: self.hidden_size,
            num_aps: self.num_aps,
            attention: self.attention,
            time_lag: self.time_lag,
        }
    }
}

impl<T: Scalar> BisimDirectionWeights<T> {
    /// Rounds the snapshot to another precision (the one-time `f64 → f32`
    /// weight rounding of the f32 inference path).
    pub fn cast<U: Scalar>(&self) -> BisimDirectionWeights<U> {
        BisimDirectionWeights {
            encoder_estimate: self.encoder_estimate.cast(),
            encoder_decay: self.encoder_decay.cast(),
            encoder_cell: self.encoder_cell.cast(),
            decoder_estimate: self.decoder_estimate.cast(),
            decoder_decay: self.decoder_decay.cast(),
            decoder_cell: self.decoder_cell.cast(),
            attention_transform: self.attention_transform.cast(),
            attention_align: self.attention_align.cast(),
            hidden_size: self.hidden_size,
            num_aps: self.num_aps,
            attention: self.attention,
            time_lag: self.time_lag,
        }
    }

    /// Bytes the snapshot keeps resident at precision `T`.
    pub fn resident_bytes(&self) -> usize {
        self.encoder_estimate.resident_bytes()
            + self.encoder_decay.resident_bytes()
            + self.encoder_cell.resident_bytes()
            + self.decoder_estimate.resident_bytes()
            + self.decoder_decay.resident_bytes()
            + self.decoder_cell.resident_bytes()
            + self.attention_transform.resident_bytes()
            + self.attention_align.resident_bytes()
    }

    /// Returns the snapshot's matrices to `ws` for capacity reuse — the
    /// give-back half of a per-task [`BisimDirectionWeightsBf16::decode_ws`]
    /// cycle.
    pub fn recycle(self, ws: &mut Workspace<T>) {
        self.encoder_estimate.recycle(ws);
        self.encoder_decay.recycle(ws);
        self.encoder_cell.recycle(ws);
        self.decoder_estimate.recycle(ws);
        self.decoder_decay.recycle(ws);
        self.decoder_cell.recycle(ws);
        self.attention_transform.recycle(ws);
        self.attention_align.recycle(ws);
    }

    /// Runs the encoder–decoder over one prepared sequence on plain matrices
    /// — the graph-free mirror of [`BisimDirection::run`], performing the
    /// same operations in the same order (same complements, same decay
    /// chain, same attention softmax and accumulation order), so at the same
    /// precision the complements are bit-identical to the graph pass's.
    /// Sequence data is stored in `f64` and rounded per step, so the kernels
    /// run entirely in `T`; intermediates cycle through the caller-owned
    /// workspace `ws`.
    pub fn run(&self, seq: &PathSequence, ws: &mut Workspace<T>) -> BisimMatrixPass<T> {
        let len = seq.len();
        let mut fingerprint_complements = Vec::with_capacity(len);
        let mut encoder_latents: Vec<Matrix<T>> = Vec::with_capacity(len);
        let mut encoder_masks = Vec::with_capacity(len);

        // ---------------- Encoder stack (Eq. 2–5) ----------------
        // Seed the state from the workspace (bitwise zeros).
        let mut state = LstmStateMatrix {
            h: ws.take(self.hidden_size, 1),
            c: ws.take(self.hidden_size, 1),
        };
        // Scratch reused across steps.
        let mut estimate_pre = Matrix::zeros(0, 0);
        let mut decay_pre = Matrix::zeros(0, 0);
        for t in 0..len {
            let fingerprint = Matrix::<T>::column_from_f64(&seq.fingerprints[t]);
            let mask = Matrix::<T>::column_from_f64(&seq.fingerprint_masks[t]);
            let inverse_mask = mask.map(|m| T::ONE - m);

            // Eq. 2–3: estimate, then complement observed values with it.
            self.encoder_estimate
                .forward_into(&state.h, &mut estimate_pre);
            let complement = &fingerprint.hadamard(&mask) + &estimate_pre.hadamard(&inverse_mask);
            // Eq. 4: γ = exp(-relu(W_γ δ + b_γ)), matching relu → scale(-1) → exp.
            let decayed_h = if matches!(self.time_lag, TimeLagMode::Encoder | TimeLagMode::Both) {
                let lag = Matrix::<T>::column_from_f64(&seq.time_lags[t]);
                self.encoder_decay.forward_into(&lag, &mut decay_pre);
                let gamma = decay_pre.map(Scalar::relu).scale(-T::ONE).map(Scalar::exp);
                state.h.hadamard(&gamma)
            } else {
                state.h.clone()
            };
            // Eq. 5: LSTM over the complemented fingerprint + mask.
            let input = complement.vstack(&mask);
            let decayed = LstmStateMatrix {
                h: decayed_h,
                c: state.c.clone(),
            };
            let next = self.encoder_cell.step_ws(&input, &decayed, ws);
            ws.give(state.h);
            ws.give(state.c);
            ws.give(decayed.h);
            ws.give(decayed.c);
            ws.give(input);
            state = next;

            fingerprint_complements.push(complement);
            encoder_latents.push(state.h.clone());
            encoder_masks.push(mask);
        }
        ws.give(state.h);
        ws.give(state.c);

        // Pre-compute the (possibly masked) transformed latents h''_i (Eq. 9).
        let transformed: Vec<Matrix<T>> = encoder_latents
            .iter()
            .zip(encoder_masks.iter())
            .map(|(h, m)| {
                let h_prime = self.attention_transform.forward(h);
                match self.attention {
                    AttentionMode::SparsityFriendly => h_prime.hadamard(m),
                    _ => h_prime,
                }
            })
            .collect();

        // -------- Decoder stack with attention (Eq. 6–12) --------
        // s_0 = h_T, with a zero cell state (mirrors `LstmState::from_hidden`).
        let mut decoder_state = LstmStateMatrix {
            h: encoder_latents
                .last()
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(self.hidden_size, 1)),
            c: Matrix::zeros(self.hidden_size, 1),
        };
        let rp_lags = rp_time_lags(seq);
        let mut rp_complements = Vec::with_capacity(len);
        for j in 0..len {
            let rp = Matrix::<T>::column_from_f64(&[seq.rps[j].0, seq.rps[j].1]);
            let rp_mask = Matrix::<T>::column_from_f64(&[seq.rp_masks[j], seq.rp_masks[j]]);
            let inverse_mask = rp_mask.map(|m| T::ONE - m);

            // Eq. 6–7: estimate the RP, then complement.
            self.decoder_estimate
                .forward_into(&decoder_state.h, &mut estimate_pre);
            let complement = &rp.hadamard(&rp_mask) + &estimate_pre.hadamard(&inverse_mask);
            // Attention (Eq. 10–12).
            let context = self.context_vector_matrix(&decoder_state.h, &transformed, ws);
            // Optional decoder-side time decay (ablation only).
            let decoder_h = if matches!(self.time_lag, TimeLagMode::Decoder | TimeLagMode::Both) {
                let lag = Matrix::<T>::column_from_f64(&rp_lags[j]);
                self.decoder_decay.forward_into(&lag, &mut decay_pre);
                let gamma = decay_pre.map(Scalar::relu).scale(-T::ONE).map(Scalar::exp);
                decoder_state.h.hadamard(&gamma)
            } else {
                decoder_state.h.clone()
            };
            // Eq. 8: LSTM over the complemented RP + context.
            let input = complement.vstack(&context);
            ws.give(context);
            let decayed = LstmStateMatrix {
                h: decoder_h,
                c: decoder_state.c.clone(),
            };
            let next = self.decoder_cell.step_ws(&input, &decayed, ws);
            ws.give(decoder_state.h);
            ws.give(decoder_state.c);
            ws.give(decayed.h);
            ws.give(decayed.c);
            ws.give(input);
            decoder_state = next;

            rp_complements.push(complement);
        }
        ws.give(decoder_state.h);
        ws.give(decoder_state.c);

        BisimMatrixPass {
            fingerprint_complements,
            rp_complements,
        }
    }

    /// The attention context vector c_j on plain matrices, drawn from `ws`:
    /// [`rm_tensor::recurrent::attention_forward`], the forward of the
    /// [`Var::attention`] node [`BisimDirection::context_vector`] builds, so
    /// the result is bit-identical at the same precision by construction.
    fn context_vector_matrix(
        &self,
        decoder_hidden: &Matrix<T>,
        transformed: &[Matrix<T>],
        ws: &mut Workspace<T>,
    ) -> Matrix<T> {
        let mut context = ws.take(self.num_aps, 1);
        if matches!(self.attention, AttentionMode::None) || transformed.is_empty() {
            return context;
        }
        let [hidden, energy] = self.attention_align.layers() else {
            unreachable!("the alignment MLP has one hidden layer");
        };
        let align = [
            hidden.weight(),
            hidden.bias(),
            energy.weight(),
            energy.bias(),
        ];
        let mut activations = ws.take(transformed.len(), self.hidden_size);
        let mut weights = ws.take(transformed.len(), 1);
        attention_forward(
            &align,
            decoder_hidden.data(),
            |i| transformed[i].data(),
            activations.data_mut(),
            weights.data_mut(),
            context.data_mut(),
        );
        ws.give(activations);
        ws.give(weights);
        context
    }
}

/// A [`BisimDirectionWeights<f32>`] snapshot stored as truncated bfloat16:
/// the `RM_SNAPSHOT_DTYPE=bf16` resident form — half the bytes of the f32
/// snapshot — decoded into pooled f32 scratch once per inference task.
#[derive(Clone)]
pub struct BisimDirectionWeightsBf16 {
    encoder_estimate: LinearWeightsBf16,
    encoder_decay: LinearWeightsBf16,
    encoder_cell: LstmCellWeightsBf16,
    decoder_estimate: LinearWeightsBf16,
    decoder_decay: LinearWeightsBf16,
    decoder_cell: LstmCellWeightsBf16,
    attention_transform: LinearWeightsBf16,
    attention_align: MlpWeightsBf16,
    hidden_size: usize,
    num_aps: usize,
    attention: AttentionMode,
    time_lag: TimeLagMode,
}

impl BisimDirectionWeightsBf16 {
    /// Encodes an f32 snapshot by truncating every weight to bfloat16.
    pub fn from_weights(w: &BisimDirectionWeights<f32>) -> Self {
        Self {
            encoder_estimate: LinearWeightsBf16::from_weights(&w.encoder_estimate),
            encoder_decay: LinearWeightsBf16::from_weights(&w.encoder_decay),
            encoder_cell: LstmCellWeightsBf16::from_weights(&w.encoder_cell),
            decoder_estimate: LinearWeightsBf16::from_weights(&w.decoder_estimate),
            decoder_decay: LinearWeightsBf16::from_weights(&w.decoder_decay),
            decoder_cell: LstmCellWeightsBf16::from_weights(&w.decoder_cell),
            attention_transform: LinearWeightsBf16::from_weights(&w.attention_transform),
            attention_align: MlpWeightsBf16::from_weights(&w.attention_align),
            hidden_size: w.hidden_size,
            num_aps: w.num_aps,
            attention: w.attention,
            time_lag: w.time_lag,
        }
    }

    /// Decodes into an f32 snapshot whose matrices are checked out of `ws`;
    /// pair with [`BisimDirectionWeights::recycle`] to return them.
    pub fn decode_ws(&self, ws: &mut Workspace<f32>) -> BisimDirectionWeights<f32> {
        BisimDirectionWeights {
            encoder_estimate: self.encoder_estimate.decode_ws(ws),
            encoder_decay: self.encoder_decay.decode_ws(ws),
            encoder_cell: self.encoder_cell.decode_ws(ws),
            decoder_estimate: self.decoder_estimate.decode_ws(ws),
            decoder_decay: self.decoder_decay.decode_ws(ws),
            decoder_cell: self.decoder_cell.decode_ws(ws),
            attention_transform: self.attention_transform.decode_ws(ws),
            attention_align: self.attention_align.decode_ws(ws),
            hidden_size: self.hidden_size,
            num_aps: self.num_aps,
            attention: self.attention,
            time_lag: self.time_lag,
        }
    }

    /// Bytes the snapshot keeps resident (2 per weight).
    pub fn resident_bytes(&self) -> usize {
        self.encoder_estimate.resident_bytes()
            + self.encoder_decay.resident_bytes()
            + self.encoder_cell.resident_bytes()
            + self.decoder_estimate.resident_bytes()
            + self.decoder_decay.resident_bytes()
            + self.decoder_cell.resident_bytes()
            + self.attention_transform.resident_bytes()
            + self.attention_align.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rm_geometry::Point;
    use rm_imputers::{build_sequences, Normalization};
    use rm_radiomap::{EntryKind, Fingerprint, MaskMatrix, RadioMap, RadioMapRecord};

    fn sequence() -> PathSequence {
        let mk = |values: Vec<Option<f64>>, rp: Option<Point>, t: f64| {
            RadioMapRecord::new(Fingerprint::new(values), rp, t, 0)
        };
        let map = RadioMap::new(
            vec![
                mk(
                    vec![Some(-70.0), Some(-80.0), None],
                    Some(Point::new(0.0, 0.0)),
                    0.0,
                ),
                mk(vec![Some(-71.0), None, None], None, 2.0),
                mk(
                    vec![None, Some(-75.0), Some(-90.0)],
                    Some(Point::new(4.0, 1.0)),
                    4.0,
                ),
                mk(vec![None, None, None], None, 6.0),
            ],
            3,
        );
        let mut mask = MaskMatrix::all_observed(4, 3);
        mask.set(0, 2, EntryKind::Mnar);
        mask.set(1, 1, EntryKind::Mar);
        mask.set(1, 2, EntryKind::Mnar);
        mask.set(2, 0, EntryKind::Mar);
        mask.set(3, 0, EntryKind::Mar);
        mask.set(3, 1, EntryKind::Mar);
        mask.set(3, 2, EntryKind::Mnar);
        let norm = Normalization::from_map(&map);
        build_sequences(&map, &mask, 5, &norm).remove(0)
    }

    fn direction(attention: AttentionMode, time_lag: TimeLagMode) -> BisimDirection {
        let mut rng = StdRng::seed_from_u64(9);
        BisimDirection::new(3, 8, attention, time_lag, &mut rng)
    }

    #[test]
    fn pass_produces_one_output_per_step() {
        let seq = sequence();
        let model = direction(AttentionMode::SparsityFriendly, TimeLagMode::Encoder);
        let pass = model.run(&seq);
        assert_eq!(pass.fingerprint_estimates.len(), 4);
        assert_eq!(pass.fingerprint_complements.len(), 4);
        assert_eq!(pass.rp_estimates.len(), 4);
        assert_eq!(pass.rp_complements.len(), 4);
        assert_eq!(pass.fingerprint_complements[0].shape(), (3, 1));
        assert_eq!(pass.rp_complements[0].shape(), (2, 1));
    }

    #[test]
    fn observed_values_pass_through_the_complement() {
        let seq = sequence();
        let model = direction(AttentionMode::SparsityFriendly, TimeLagMode::Encoder);
        let pass = model.run(&seq);
        // Step 0, AP 0 is observed: the complement must equal the input.
        let c = pass.fingerprint_complements[0].value();
        assert!((c.get(0, 0) - seq.fingerprints[0][0]).abs() < 1e-12);
        // Step 0's RP is observed: complement equals normalised RP.
        let rp = pass.rp_complements[0].value();
        assert!((rp.get(0, 0) - seq.rps[0].0).abs() < 1e-12);
        assert!((rp.get(1, 0) - seq.rps[0].1).abs() < 1e-12);
    }

    #[test]
    fn all_modes_run_and_produce_finite_outputs() {
        let seq = sequence();
        for attention in [
            AttentionMode::SparsityFriendly,
            AttentionMode::Standard,
            AttentionMode::None,
        ] {
            for time_lag in [
                TimeLagMode::Encoder,
                TimeLagMode::Decoder,
                TimeLagMode::Both,
                TimeLagMode::None,
            ] {
                let model = direction(attention, time_lag);
                let pass = model.run(&seq);
                for v in pass
                    .fingerprint_complements
                    .iter()
                    .chain(pass.rp_complements.iter())
                {
                    assert!(
                        v.value().is_finite(),
                        "{attention:?}/{time_lag:?} produced NaN"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_reach_encoder_and_decoder_parameters() {
        let seq = sequence();
        let model = direction(AttentionMode::SparsityFriendly, TimeLagMode::Encoder);
        let pass = model.run(&seq);
        let mut total = Var::scalar(0.0);
        for est in pass
            .fingerprint_estimates
            .iter()
            .chain(pass.rp_estimates.iter())
        {
            total = total.add(&est.square().sum());
        }
        total.backward();
        let with_grad = model
            .parameters()
            .iter()
            .filter(|p| p.grad().frobenius_norm() > 0.0)
            .count();
        assert!(
            with_grad > model.parameters().len() / 2,
            "only {with_grad} of {} parameters received gradient",
            model.parameters().len()
        );
    }

    /// The graph-free snapshot pass must reproduce the graph pass bit for
    /// bit at f64, across every attention/time-lag ablation — the property
    /// that lets `Bisim::impute` fan inference out over the pool without
    /// perturbing the pre-snapshot pipeline.
    #[test]
    fn snapshot_run_matches_graph_run_bitwise_across_ablations() {
        let seq = sequence();
        for attention in [
            AttentionMode::SparsityFriendly,
            AttentionMode::Standard,
            AttentionMode::None,
        ] {
            for time_lag in [
                TimeLagMode::Encoder,
                TimeLagMode::Decoder,
                TimeLagMode::Both,
                TimeLagMode::None,
            ] {
                let model = direction(attention, time_lag);
                let graph = model.run(&seq);
                let mut ws = Workspace::new();
                // Poison the pool so checkouts must reinitialise.
                ws.give(Matrix::filled(8, 1, f64::NAN));
                let snap = model.snapshot().run(&seq, &mut ws);
                for (g, s) in graph
                    .fingerprint_complements
                    .iter()
                    .zip(snap.fingerprint_complements.iter())
                {
                    assert!(
                        g.value().bits_eq(s),
                        "{attention:?}/{time_lag:?}: fingerprint complement drifted"
                    );
                }
                for (g, s) in graph.rp_complements.iter().zip(snap.rp_complements.iter()) {
                    assert!(
                        g.value().bits_eq(s),
                        "{attention:?}/{time_lag:?}: RP complement drifted"
                    );
                }
            }
        }
    }

    /// bf16 snapshots are half the resident bytes of f32 and their decoded
    /// pass stays epsilon-close to the native f32 pass.
    #[test]
    fn bf16_snapshot_halves_bytes_and_tracks_the_f32_pass() {
        let seq = sequence();
        let model = direction(AttentionMode::SparsityFriendly, TimeLagMode::Encoder);
        let w64 = model.snapshot();
        let w32 = w64.cast::<f32>();
        let packed = BisimDirectionWeightsBf16::from_weights(&w32);
        assert_eq!(packed.resident_bytes() * 2, w32.resident_bytes());
        assert_eq!(packed.resident_bytes() * 4, w64.resident_bytes());

        let mut ws = Workspace::new();
        let exact = w32.run(&seq, &mut ws);
        let decoded = packed.decode_ws(&mut ws);
        let approx = decoded.run(&seq, &mut ws);
        for (a, b) in exact
            .fingerprint_complements
            .iter()
            .chain(exact.rp_complements.iter())
            .zip(
                approx
                    .fingerprint_complements
                    .iter()
                    .chain(approx.rp_complements.iter()),
            )
        {
            // Complements mix raw observations (identical in both) with
            // squashed estimates, so a loose absolute bound pins the path.
            assert!(a.approx_eq(b, 0.2), "bf16 BiSIM pass drifted");
        }
        decoded.recycle(&mut ws);
    }
}
