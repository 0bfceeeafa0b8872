//! The internals of BiSIM (Section IV-C): encoder units, decoder units and the
//! sparsity-friendly attention unit, assembled into one directional
//! sequence-to-sequence pass — as plain weights with the forward training
//! and inference share ([`BisimDirectionWeights`]), and as the autodiff
//! graph that is the training tape's oracle ([`BisimDirection`]).

use rand::rngs::StdRng;
use rm_imputers::rits::{export_recurrent, import_recurrent};
use rm_imputers::{Parameters, PathSequence, RecurrentImputerWeights};
use rm_nn::{
    Activation, Linear, LinearWeights, LstmCell, LstmCellWeights, LstmState, Mlp, MlpWeights,
};
use rm_tensor::{InputPart, Matrix, NamedTensor, Precision, Scalar, Var};

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

/// One directional BiSIM model as an autodiff graph: an encoder stack over
/// the fingerprint sequence, a decoder stack over the RP sequence, and an
/// attention unit connecting them. Production trains
/// [`BisimDirectionWeights`] on the tape; this graph form is the tape's
/// oracle ([`crate::sequence_loss`]) for tests and benches.
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

    /// Copies the current parameters into graph-free, `Send + Sync`
    /// [`BisimDirectionWeights`].
    pub fn snapshot(&self) -> BisimDirectionWeights {
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

/// The RP time-lag vector of step `j` given step `j − 1`'s (ignored at
/// `j = 0`): the one definition the graph pass and the tape forward share.
pub(crate) fn rp_time_lag(seq: &PathSequence, j: usize, previous: [f64; 2]) -> [f64; 2] {
    if j == 0 {
        return [0.0, 0.0];
    }
    let dt = (seq.times[j] - seq.times[j - 1]).abs() / 10.0;
    if seq.rp_masks[j - 1] > 0.5 {
        [dt, dt]
    } else {
        [previous[0] + dt, previous[1] + dt]
    }
}

/// One BiSIM direction's weights: plain matrices plus the ablation
/// settings, so they are `Send + Sync` and can be shared with worker threads
/// (unlike [`Var`], whose nodes are `Rc`-shared). The encoder unit is one
/// RITS step ([`RecurrentImputerWeights`], BRITS's recurrent unit). Training
/// updates them in place on the training tape ([`crate::tape`]); their
/// [`BisimDirectionWeights::forward`] is the one forward of training and
/// inference, performing [`BisimDirection::run`]'s operations in order, so
/// it is bit-identical to the graph forward at the same precision. Generic
/// over the [`Scalar`] precision: [`BisimDirectionWeights::cast`] rounds the
/// `f64` weights once for the f32 inference path.
#[derive(Clone)]
pub struct BisimDirectionWeights<T: Scalar = f64> {
    pub(crate) encoder: RecurrentImputerWeights<T>,
    pub(crate) decoder_estimate: LinearWeights<T>,
    pub(crate) decoder_decay: LinearWeights<T>,
    pub(crate) decoder_cell: LstmCellWeights<T>,
    pub(crate) attention_transform: LinearWeights<T>,
    pub(crate) attention_align: MlpWeights<T>,
    pub(crate) hidden_size: usize,
    pub(crate) num_aps: usize,
    pub(crate) attention: AttentionMode,
    pub(crate) time_lag: TimeLagMode,
}

impl BisimDirectionWeights {
    /// One freshly initialised direction, drawn from `rng` exactly as
    /// [`BisimDirection::new`] draws its parameters.
    pub fn new(
        num_aps: usize,
        hidden_size: usize,
        attention: AttentionMode,
        time_lag: TimeLagMode,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            encoder: RecurrentImputerWeights::new(num_aps, hidden_size, rng),
            decoder_estimate: LinearWeights::new(hidden_size, 2, rng),
            decoder_decay: LinearWeights::new(2, hidden_size, rng),
            decoder_cell: LstmCellWeights::new(2 + num_aps, hidden_size, rng),
            attention_transform: LinearWeights::new(hidden_size, num_aps, rng),
            attention_align: MlpWeights::new(
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

    /// Exports this direction's weights as `{prefix}.*` named tensors at the
    /// precision the inference path keeps resident (the shared
    /// [`rm_imputers::snapshot::export_linear`] contract: exported bits
    /// equal serving bits at either precision). Names mirror the unit structure:
    /// `encoder.{estimate, decay, cell.*}`, `decoder.{estimate, decay,
    /// cell.*}`, `attention.{transform, align.N}`.
    pub fn export(&self, prefix: &str, precision: Precision, tensors: &mut Vec<NamedTensor>) {
        use rm_imputers::snapshot::{export_linear, export_lstm_cell, export_mlp};
        export_recurrent(
            &format!("{prefix}.encoder"),
            &self.encoder,
            precision,
            tensors,
        );
        export_linear(
            &format!("{prefix}.decoder.estimate"),
            &self.decoder_estimate,
            precision,
            tensors,
        );
        export_linear(
            &format!("{prefix}.decoder.decay"),
            &self.decoder_decay,
            precision,
            tensors,
        );
        export_lstm_cell(
            &format!("{prefix}.decoder"),
            &self.decoder_cell,
            precision,
            tensors,
        );
        export_linear(
            &format!("{prefix}.attention.transform"),
            &self.attention_transform,
            precision,
            tensors,
        );
        export_mlp(
            &format!("{prefix}.attention.align"),
            &self.attention_align,
            precision,
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
        let encoder = import_recurrent(&format!("{prefix}.encoder"), tensors, num_aps)?;
        let decoder = format!("{prefix}.decoder");
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
        // [`BisimDirection::new`] before anything can panic downstream
        // ([`import_recurrent`] has checked the encoder): the alignment MLP
        // is exactly one hidden layer of H units over `[s; h'']` and a
        // scalar energy, the shapes the attention step runs.
        let hidden_size = encoder.hidden_size();
        let [align_hidden, align_energy] = attention_align.layers() else {
            return None;
        };
        if decoder_estimate.weight().shape() != (2, hidden_size)
            || decoder_decay.weight().shape() != (hidden_size, 2)
            || decoder_cell.gates()[0].weight().shape() != (hidden_size, 2 + num_aps + hidden_size)
            || attention_transform.weight().shape() != (num_aps, hidden_size)
            || align_hidden.weight().shape() != (hidden_size, hidden_size + num_aps)
            || align_energy.weight().shape() != (1, hidden_size)
        {
            return None;
        }
        Some(Self {
            encoder,
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

    /// Rebuilds a graph [`BisimDirection`] from this snapshot (fresh
    /// parameter leaves holding copies of the snapshotted matrices; the
    /// inverse of [`BisimDirection::snapshot`]): the oracle side of the
    /// tape tests.
    #[cfg(test)]
    pub(crate) fn to_model(&self) -> BisimDirection {
        let (estimate, decay, cell) = self.encoder.parts();
        BisimDirection {
            encoder_estimate: estimate.to_linear(),
            encoder_decay: decay.to_linear(),
            encoder_cell: cell.to_cell(),
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
            encoder: self.encoder.cast(),
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
}

impl<T: Scalar> Parameters<T> for BisimDirectionWeights<T> {
    /// The 30 parameter tensors in [`BisimDirection::parameters`] order:
    /// the encoder's estimate, decay and cell (`(W, b)` per gate, in step
    /// order), the decoder's, then the attention transform and alignment.
    fn tensors(&self) -> Vec<&Matrix<T>> {
        let mut out = self.encoder.tensors();
        let decoder = [&self.decoder_estimate, &self.decoder_decay]
            .into_iter()
            .chain(self.decoder_cell.gates())
            .chain([&self.attention_transform])
            .chain(self.attention_align.layers());
        for layer in decoder {
            out.extend([layer.weight(), layer.bias()]);
        }
        out
    }

    fn for_each_tensor_mut(&mut self, mut f: impl FnMut(&mut Matrix<T>)) {
        self.encoder.for_each_tensor_mut(&mut f);
        let [i, fg, o, g] = self.decoder_cell.gates_mut();
        let decoder = [
            &mut self.decoder_estimate,
            &mut self.decoder_decay,
            i,
            fg,
            o,
            g,
        ]
        .into_iter()
        .chain([&mut self.attention_transform])
        .chain(self.attention_align.layers_mut());
        for layer in decoder {
            let (w, b) = layer.parts_mut();
            f(w);
            f(b);
        }
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

    /// The weights' forward ([`BisimDirectionWeights::forward`], which
    /// inference and the training tape share) must reproduce the graph pass
    /// bit for bit at f64, across every attention/time-lag ablation.
    #[test]
    fn snapshot_run_matches_graph_run_bitwise_across_ablations() {
        let seq = sequence();
        let mut tape = crate::DirectionTape::new();
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
                model.snapshot().forward(&seq, &mut tape);
                let bits = |m: &Matrix, s: &[f64]| {
                    m.data().len() == s.len()
                        && m.data()
                            .iter()
                            .zip(s)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                };
                for (t, g) in graph.fingerprint_complements.iter().enumerate() {
                    assert!(
                        bits(&g.value(), tape.fingerprint_complement(t)),
                        "{attention:?}/{time_lag:?}: fingerprint complement drifted"
                    );
                }
                for (j, g) in graph.rp_complements.iter().enumerate() {
                    assert!(
                        bits(&g.value(), tape.rp_complement(j)),
                        "{attention:?}/{time_lag:?}: RP complement drifted"
                    );
                }
            }
        }
    }

    /// [`BisimDirectionWeights::new`] draws the same parameters as
    /// [`BisimDirection::new`] from the same stream.
    #[test]
    fn weights_draw_what_the_graph_model_draws() {
        for attention in [AttentionMode::SparsityFriendly, AttentionMode::None] {
            let mut rng = StdRng::seed_from_u64(4);
            let graph = BisimDirection::new(3, 8, attention, TimeLagMode::Both, &mut rng);
            let mut rng = StdRng::seed_from_u64(4);
            let weights = BisimDirectionWeights::new(3, 8, attention, TimeLagMode::Both, &mut rng);
            let params = graph.parameters();
            assert_eq!(params.len(), weights.tensors().len());
            for (p, w) in params.iter().zip(weights.tensors()) {
                assert!(p.value().bits_eq(w));
            }
        }
    }
}
