//! The internals of BiSIM (Section IV-C): encoder units, decoder units and the
//! sparsity-friendly attention unit, assembled into one directional
//! sequence-to-sequence pass as plain weights with the forward training and
//! inference share ([`BisimDirectionWeights`]).

use rand::rngs::StdRng;
use rm_imputers::rits::{export_recurrent, import_recurrent};
use rm_imputers::{Parameters, PathSequence, RecurrentImputerWeights};
use rm_nn::{LinearWeights, LstmCellWeights, MlpWeights};
use rm_tensor::{Matrix, NamedTensor, Precision, Scalar};

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
/// settings, so they are `Send + Sync` and can be shared with worker
/// threads. The encoder unit is one RITS step ([`RecurrentImputerWeights`],
/// BRITS's recurrent unit). Training updates them in place on the training
/// tape ([`crate::tape`]); their [`BisimDirectionWeights::forward`] is the
/// one forward of training and inference, performing the autodiff graph
/// oracle's operations in order, so it is bit-identical to the graph
/// forward at the same precision. Generic
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
    /// One freshly initialised direction, drawn from `rng` in
    /// [`Parameters::tensors`] order: the encoder, the decoder's estimate,
    /// decay and cell, then the attention transform and alignment.
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
            attention_align: MlpWeights::new(&[hidden_size + num_aps, hidden_size, 1], rng),
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
        let attention_align = import_mlp(tensors, &format!("{prefix}.attention.align"))?;

        // Validate every unit against the architecture of
        // [`BisimDirectionWeights::new`] before anything can panic downstream
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
    /// The 30 parameter tensors in the graph oracle's parameter order:
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
    use crate::graph::BisimDirection;
    use rand::SeedableRng;
    use rm_autodiff::Var;
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
