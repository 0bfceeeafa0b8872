//! BRITS — Bidirectional Recurrent Imputation for Time Series (Cao et al.),
//! adapted to radio maps: it imputes MAR RSSIs from the temporal structure of
//! each survey path, and falls back to linear interpolation for missing RPs
//! (BRITS itself cannot impute labels).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_radiomap::{EntryKind, MaskMatrix, RadioMap, MNAR_FILL_VALUE};
use rm_tensor::{NamedTensor, Precision, Scalar};

use crate::rits::{
    column, export_recurrent, import_recurrent, masked_mse, zeroed, RecurrentImputerWeights,
    RitsTape, Schedule,
};
use crate::sequence::{build_sequences, Normalization, PathSequence};
use crate::train::{train_pairs, Gradients, Training};
use crate::{gates, ImputedRadioMap, Imputer};

/// Configuration shared by the recurrent imputers.
#[derive(Debug, Clone)]
pub struct BritsConfig {
    /// Hidden state size of the recurrent cell.
    pub hidden_size: usize,
    /// Number of training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Sequence length `T` (the paper tunes this to 5).
    pub sequence_length: usize,
    /// RNG seed for parameter initialisation.
    pub seed: u64,
    /// Worker threads for the per-sequence fan-outs (`0` = auto): sequence
    /// preparation, the final inference pass, and — when [`Self::batch_size`]
    /// is above 1 — the per-sequence forward/backward passes inside each
    /// training batch. All fan-outs are deterministic: results are
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Mini-batch size of the training loop. Batch boundaries are fixed by
    /// this value alone (never by the thread count), the per-sequence
    /// gradients inside a batch are computed against the batch-start
    /// weights, each pair on its own training tape ([`BritsTape`]) into its
    /// own zeroed buffers, and their sum is reduced in sequence-index order
    /// ([`crate::train_pairs`]) — so a fixed `batch_size` yields a
    /// bitwise-identical model at any thread count. The default of `1`
    /// reproduces the classic per-sequence SGD trajectory bitwise; larger
    /// batches take fewer, **summed-gradient** steps (a *different* — though
    /// equally deterministic — trajectory), letting training fan out across
    /// the worker pool. The sum is applied
    /// raw — no division by the batch size — so a `k`-sequence batch's
    /// gradient norm is roughly `k×` a per-sequence gradient's and the
    /// optimizer's fixed element-wise clip engages correspondingly more
    /// often; retune `learning_rate` rather than assume an averaged step
    /// when raising this.
    pub batch_size: usize,
    /// Precision of the inference pass. Training always runs at `f64`;
    /// [`Precision::F32`] rounds the trained weights to f32 once and runs
    /// every sequence through the f32 kernels (twice the SIMD lanes, half
    /// the memory traffic). [`Precision::F64`] — the default — is
    /// bit-identical to the pre-precision-axis pipeline. Either setting is
    /// bit-identical across thread counts.
    pub precision: Precision,
}

impl Default for BritsConfig {
    fn default() -> Self {
        Self {
            hidden_size: 32,
            epochs: default_epochs(),
            learning_rate: 0.01,
            sequence_length: 5,
            seed: 31,
            threads: 0,
            batch_size: default_batch_size(),
            precision: Precision::F64,
        }
    }
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

/// Default training mini-batch size for the recurrent imputers: the
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

/// Resident snapshot bytes of one recurrent-imputer direction with the
/// given shape, at each precision: `(f64, f32)`. The reporting hook behind
/// the `exp_snapshot_storage` experiment — it measures the actual
/// inference-path weight types, so the `f32 = f64 / 2` ratio it returns is
/// the ratio the serving path pays.
pub fn snapshot_resident_bytes(num_aps: usize, hidden_size: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(0);
    let w64 = RecurrentImputerWeights::new(num_aps, hidden_size, &mut rng);
    (w64.resident_bytes(), w64.cast::<f32>().resident_bytes())
}

/// The graph form of the RITS step, the tapes' test oracle.
#[cfg(test)]
pub(crate) mod graph {
    use rand::rngs::StdRng;
    use rm_autodiff::{InputPart, Linear, LstmCell, LstmState, Var};
    use rm_tensor::Matrix;

    use crate::rits::RecurrentImputerWeights;
    use crate::sequence::PathSequence;

    /// One RITS step as an autodiff graph: estimates each step's fingerprint
    /// from the hidden state, complements the observation, decays the hidden
    /// state and feeds `[x^c; m]` to an LSTM cell. It is the oracle of the
    /// training tapes of BRITS ([`BritsTape`]) and SSGAN's generator, whose
    /// forward ([`RecurrentImputerWeights::forward`]) records the same values
    /// bit for bit.
    pub(crate) struct RecurrentImputer {
        estimate: Linear,
        decay: Linear,
        cell: LstmCell,
    }

    /// The per-step outputs of one directional pass.
    pub(crate) struct DirectionalPass {
        /// Model estimates `x̂_t` (used by the reconstruction loss).
        pub estimates: Vec<Var>,
        /// Complemented vectors `x_c` (the imputations).
        pub complements: Vec<Var>,
    }

    impl RecurrentImputer {
        pub(crate) fn new(num_aps: usize, hidden_size: usize, rng: &mut StdRng) -> Self {
            RecurrentImputerWeights::new(num_aps, hidden_size, rng).to_model()
        }

        pub(crate) fn parameters(&self) -> Vec<Var> {
            let mut params = self.estimate.parameters();
            params.extend(self.decay.parameters());
            params.extend(self.cell.parameters());
            params
        }

        /// Runs the imputer over one (already ordered) sequence.
        pub(crate) fn run(&self, seq: &PathSequence) -> DirectionalPass {
            let mut state = LstmState::zeros(self.cell.hidden_size());
            let mut estimates = Vec::with_capacity(seq.len());
            let mut complements = Vec::with_capacity(seq.len());
            for t in 0..seq.len() {
                let x = Var::constant(Matrix::column(&seq.fingerprints[t]));
                let mask = Matrix::column(&seq.fingerprint_masks[t]);
                let lag = Var::constant(Matrix::column(&seq.time_lags[t]));

                // Estimate the fingerprint from the previous hidden state.
                let x_hat = self.estimate.forward(&state.h);
                // Complement: observed entries pass through, missing use the estimate.
                let inverse_mask = mask.map(|m| 1.0 - m);
                let x_c = x.mask(&mask).add(&x_hat.mask(&inverse_mask));
                // Temporal decay of the hidden state.
                let gamma = self.decay.forward(&lag).relu().scale(-1.0).exp();
                let decayed = state.with_hidden(state.h.hadamard(&gamma));
                state = self
                    .cell
                    .step(&[InputPart::Node(&x_c), InputPart::Const(&mask)], &decayed);

                estimates.push(x_hat);
                complements.push(x_c);
            }
            DirectionalPass {
                estimates,
                complements,
            }
        }

        /// Copies the trained parameters into graph-free, `Send + Sync` weights.
        pub(crate) fn snapshot(&self) -> RecurrentImputerWeights {
            RecurrentImputerWeights::from_parts(
                self.estimate.snapshot(),
                self.decay.snapshot(),
                self.cell.snapshot(),
            )
        }
    }

    impl RecurrentImputerWeights {
        /// Rebuilds a trainable graph [`RecurrentImputer`] from these weights:
        /// fresh parameter leaves holding copies of the matrices (the inverse of
        /// [`RecurrentImputer::snapshot`]).
        pub(crate) fn to_model(&self) -> RecurrentImputer {
            let (estimate, decay, cell) = self.parts();
            RecurrentImputer {
                estimate: Linear::from_weights(estimate),
                decay: Linear::from_weights(decay),
                cell: LstmCell::from_weights(cell),
            }
        }
    }
}

/// One BRITS sequence pair's training tape: both directions' RITS records,
/// each estimate's, complement's and hidden state's gradient and one target
/// column, all reused from pair to pair, so a warm
/// [`BritsTape::differentiate`] allocates nothing.
#[derive(Default)]
pub struct BritsTape<T: Scalar = f64> {
    directions: [RitsTape<T>; 2],
    d_estimates: [Vec<T>; 2],
    d_complements: [Vec<T>; 2],
    d_latents: [Vec<T>; 2],
    target: Vec<T>,
}

impl<T: Scalar> BritsTape<T> {
    /// An empty tape; the first pair sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs both directions over one `(sequence, reversed)` pair, evaluates
    /// the BRITS loss — each direction's reconstruction error at observed
    /// entries — and adds its gradient into `grads` (forward direction
    /// first), returning the loss. Bitwise the value and gradients of the
    /// graph oracle on zeroed gradients.
    ///
    /// There is no cross-direction consistency term. Compared under the
    /// observed mask, the two directions' complements both equal the
    /// observation, so such a term is identically zero. Cao et al.'s
    /// consistency loss compares the two imputations at every entry;
    /// adopting it changes the trained bits and is left to a fidelity
    /// change.
    pub fn differentiate(
        &mut self,
        weights: [&RecurrentImputerWeights<T>; 2],
        seq: &PathSequence,
        rev: &PathSequence,
        grads: [&mut Gradients<T>; 2],
    ) -> T {
        let [forward, backward] = weights;
        forward.forward(seq, true, &mut self.directions[0]);
        backward.forward(rev, true, &mut self.directions[1]);
        let loss = self.loss(seq, rev);
        let [ft, bt] = &mut self.directions;
        let ([fe, be], [fc, bc]) = (&mut self.d_estimates, &mut self.d_complements);
        let [fl, bl] = &mut self.d_latents;
        let [fg, bg] = grads;
        forward.backward(ft, seq, Schedule::Forward, fe, fc, fl, fg);
        backward.backward(bt, rev, Schedule::Backward, be, bc, bl, bg);
        loss
    }

    /// The graph oracle's loss: per record `t`, the forward direction's
    /// masked MSE at step `t` and the backward direction's at step
    /// `rt = T − 1 − t`, added to a running total from `+0.0` that is then
    /// scaled by `1/T`. Each term's gradient seeds its estimate's.
    fn loss(&mut self, seq: &PathSequence, rev: &PathSequence) -> T {
        let Self {
            directions: [fwd, bwd],
            d_estimates,
            d_complements,
            d_latents,
            target,
        } = self;
        for (k, tape) in [&*fwd, &*bwd].into_iter().enumerate() {
            zeroed(&mut d_estimates[k], tape.estimates().len());
            zeroed(&mut d_complements[k], tape.estimates().len());
            zeroed(&mut d_latents[k], tape.latents().len());
        }
        let [df, db] = d_estimates;
        let len = seq.len();
        let scale = T::from_f64(1.0 / len as f64);
        let mut total = T::ZERO;
        for t in 0..len {
            let rt = len - 1 - t;
            let a = fwd.estimate(t).len();
            column(&seq.fingerprints[t], target);
            let d = &mut df[t * a..(t + 1) * a];
            total += masked_mse(fwd.estimate(t), target, fwd.mask(t), scale, d, None);
            column(&rev.fingerprints[rt], target);
            let d = &mut db[rt * a..(rt + 1) * a];
            total += masked_mse(bwd.estimate(rt), target, bwd.mask(rt), scale, d, None);
        }
        total * scale
    }
}

/// The imputed map of a RITS imputer (BRITS, SSGAN): observed entries pass
/// through, MNARs take the fill floor and RPs interpolate
/// ([`Brits::passthrough`]); each MAR entry takes the mean of the
/// `directions`' complements for its record. Each direction runs the RITS
/// forward ([`RecurrentImputerWeights::forward`], the one training records
/// too) over its own sequences: the first over the sequences, a second
/// (BRITS's backward direction) over the reversed ones, whose step
/// `T − 1 − t` is record `t`. At [`Precision::F32`] the weights are rounded
/// once and the forwards run in f32; denormalisation happens after widening
/// back to `f64`. Every sequence fans out over the pool, each task only
/// reads the shared weights and writes its own records, so the map is
/// bit-identical at any thread count.
pub(crate) fn impute_mar(
    map: &RadioMap,
    mask: &MaskMatrix,
    norm: &Normalization,
    directions: &[(&RecurrentImputerWeights, &[PathSequence])],
    precision: Precision,
    threads: usize,
) -> ImputedRadioMap {
    let mut imputed = Brits::passthrough(map);
    let values = match precision {
        Precision::F64 => mar_values(directions, mask, norm, threads),
        Precision::F32 => {
            let rounded: Vec<RecurrentImputerWeights<f32>> =
                directions.iter().map(|(w, _)| w.cast()).collect();
            let directions: Vec<_> = rounded
                .iter()
                .zip(directions)
                .map(|(w, d)| (w, d.1))
                .collect();
            mar_values(&directions, mask, norm, threads)
        }
    };
    for (record, ap, value) in values.into_iter().flatten() {
        imputed.fingerprints[record][ap] = value;
    }
    imputed
}

/// The inference fan-out of BRITS and SSGAN at precision `T`: the
/// `(record, ap, rssi)` MAR values of every sequence (the mean of the
/// `directions`' complements, as `impute_mar` applies them), in sequence
/// order, as one list per [`sweep`](crate::sweep) run. Each run reuses one
/// tape per direction.
pub fn mar_values<T: Scalar>(
    directions: &[(&RecurrentImputerWeights<T>, &[PathSequence])],
    mask: &MaskMatrix,
    norm: &Normalization,
    threads: usize,
) -> Vec<Vec<(usize, usize, f64)>> {
    let count = T::from_f64(directions.len() as f64);
    let mars = |seq: &PathSequence| -> usize {
        let is_mar = |record: usize, ap: usize| mask.get(record, ap) == EntryKind::Mar;
        let per_record =
            |&record: &usize| (0..mask.cols()).filter(|&ap| is_mar(record, ap)).count();
        seq.record_indices.iter().map(per_record).sum()
    };
    crate::sweep(
        threads,
        directions[0].1,
        mars,
        |tapes: &mut Vec<RitsTape<T>>, i, seq, values| {
            tapes.resize_with(directions.len(), RitsTape::new);
            for ((w, sequences), tape) in directions.iter().zip(tapes.iter_mut()) {
                w.forward(&sequences[i], true, tape);
            }
            for (t, &record) in seq.record_indices.iter().enumerate() {
                let steps = [t, seq.len() - 1 - t];
                let complement = |k: usize| tapes[k].complement(steps[k.min(1)]);
                for ap in 0..complement(0).len() {
                    if mask.get(record, ap) == EntryKind::Mar {
                        let sum =
                            (1..tapes.len()).fold(complement(0)[ap], |s, k| s + complement(k)[ap]);
                        values.push((record, ap, norm.denormalize_rssi((sum / count).to_f64())));
                    }
                }
            }
        },
    )
}

/// The BRITS imputer.
#[derive(Default)]
pub struct Brits {
    /// Training configuration.
    pub config: BritsConfig,
}

impl Brits {
    /// Creates a BRITS imputer with the given configuration.
    pub fn new(config: BritsConfig) -> Self {
        Self { config }
    }

    /// The fallback result when there is nothing to train on: observed
    /// entries pass through, MNARs take the fill floor, RPs interpolate.
    /// (Shared with SSGAN, whose fallback is identical.)
    pub(crate) fn passthrough(map: &RadioMap) -> ImputedRadioMap {
        ImputedRadioMap {
            fingerprints: map
                .records()
                .iter()
                .map(|r| r.fingerprint.to_dense(MNAR_FILL_VALUE))
                .collect(),
            locations: map.interpolate_rps(),
        }
    }

    /// Prepares the backward-direction inputs. Reversing a sequence is pure,
    /// so they are prepared in parallel (serially below the sequence count
    /// that amortises the spawn cost — see [`crate::gates`]).
    fn reverse_sequences(
        &self,
        sequences: &[PathSequence],
        norm: &Normalization,
    ) -> Vec<PathSequence> {
        let reversal_threads = if sequences.len() < gates::brits_reversal_min_sequences() {
            1
        } else {
            self.config.threads
        };
        rm_runtime::par_map(reversal_threads, sequences, |_, s| s.reversed(norm))
    }

    /// Trains both directions in place for `epochs` epochs on the training
    /// tape through the shared trainer ([`train_pairs`]), from fresh
    /// weights ([`Brits::impute_inner`]) or imported ones
    /// ([`Brits::impute_warm_inner`]).
    fn train(
        &self,
        weights: &mut [RecurrentImputerWeights; 2],
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
            |tape: &mut BritsTape, w, i, grads| {
                tape.differentiate(w, &sequences[i], &reversed[i], grads);
            },
        );
    }

    /// Produces imputations from a trained weight pair — the average of
    /// forward and backward complements at MAR positions ([`impute_mar`]) —
    /// plus the optional tensor export at the inference precision.
    fn infer_and_export(
        &self,
        weights: &[RecurrentImputerWeights; 2],
        sequences: &[PathSequence],
        reversed: &[PathSequence],
        map: &RadioMap,
        mask: &MaskMatrix,
        norm: &Normalization,
        export_snapshot: bool,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        let mut tensors = Vec::new();
        if export_snapshot {
            for (prefix, w) in [
                ("brits.forward", &weights[0]),
                ("brits.backward", &weights[1]),
            ] {
                export_recurrent(prefix, w, self.config.precision, &mut tensors);
            }
        }
        let directions = [(&weights[0], sequences), (&weights[1], reversed)];
        let (precision, threads) = (self.config.precision, self.config.threads);
        let imputed = impute_mar(map, mask, norm, &directions, precision, threads);
        (imputed, tensors)
    }

    /// The shared train-then-infer body behind both [`Imputer`] entry
    /// points; `export_snapshot` additionally serializes the trained weights
    /// as named tensors (training and inference are unaffected by the flag).
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
            return (Self::passthrough(map), Vec::new());
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut direction =
            || RecurrentImputerWeights::new(num_aps, self.config.hidden_size, &mut rng);
        let mut weights = [direction(), direction()];
        let reversed = self.reverse_sequences(&sequences, &norm);
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

    /// The warm-start body: `Some` when the snapshot round-trips into this
    /// map's architecture, `None` to fall back to the cold path.
    ///
    /// With `fine_tune_epochs = 0` the imported weights run inference as-is:
    /// importing widens every storage dtype losslessly to `f64`, and the
    /// inference path re-applies the same one-time rounding the exporting
    /// run applied, so on an unchanged map the replay is bit-identical to
    /// the run that exported the snapshot. With `fine_tune_epochs > 0` the
    /// weights train under a fresh optimizer for that many additional
    /// mini-batch epochs — a cheap incremental refresh, not a replay.
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
        let mut weights = [
            import_recurrent("brits.forward", warm, num_aps)?,
            import_recurrent("brits.backward", warm, num_aps)?,
        ];

        let norm = Normalization::from_map(map);
        let sequences = build_sequences(map, mask, self.config.sequence_length, &norm);
        if sequences.is_empty() {
            return None;
        }
        let reversed = self.reverse_sequences(&sequences, &norm);

        if fine_tune_epochs > 0 {
            self.train(&mut weights, &sequences, &reversed, fine_tune_epochs);
        }
        Some(self.infer_and_export(&weights, &sequences, &reversed, map, mask, &norm, true))
    }
}

impl Imputer for Brits {
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
        "BRITS"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::graph::RecurrentImputer;
    use super::*;
    use crate::train::Parameters;
    use rm_autodiff::{loss, Adam, Var};
    use rm_geometry::Point;
    use rm_radiomap::{Fingerprint, RadioMapRecord};
    use rm_tensor::Matrix;

    /// The graph oracle of one BRITS training step: differentiates the
    /// pair's loss — the forward and backward reconstruction errors at
    /// observed entries — through the autodiff graph, accumulating into the
    /// models' parameter gradients, and returns the loss. The gradient
    /// buffers must be zero on entry for the result to be one pair's
    /// gradient.
    fn pair_backward(
        forward: &RecurrentImputer,
        backward: &RecurrentImputer,
        seq: &PathSequence,
        rev: &PathSequence,
    ) -> f64 {
        let fwd = forward.run(seq);
        let bwd = backward.run(rev);
        let mut total = Var::scalar(0.0);
        for t in 0..seq.len() {
            let target = Matrix::column(&seq.fingerprints[t]);
            let m = Matrix::column(&seq.fingerprint_masks[t]);
            total = total.add(&loss::masked_mse(&fwd.estimates[t], &target, &m));
            let rt = rev.len() - 1 - t;
            let target_b = Matrix::column(&rev.fingerprints[rt]);
            let m_b = Matrix::column(&rev.fingerprint_masks[rt]);
            total = total.add(&loss::masked_mse(&bwd.estimates[rt], &target_b, &m_b));
        }
        let loss = total.scale(1.0 / seq.len() as f64);
        loss.backward();
        loss.scalar_value()
    }

    /// [`pair_backward`], then the per-parameter gradients read out in
    /// optimizer order (forward-direction parameters, then backward).
    fn pair_gradients(
        forward: &RecurrentImputer,
        backward: &RecurrentImputer,
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

    /// A path whose AP0 RSSI varies smoothly in time; one value is MAR.
    pub(crate) fn smooth_map() -> (RadioMap, MaskMatrix) {
        let mut records = Vec::new();
        for i in 0..10 {
            let v = -60.0 - i as f64;
            let value = if i == 5 { None } else { Some(v) };
            records.push(RadioMapRecord::new(
                Fingerprint::new(vec![value, Some(-80.0)]),
                Some(Point::new(i as f64, 0.0)),
                i as f64 * 2.0,
                0,
            ));
        }
        let map = RadioMap::new(records, 2);
        let mut mask = MaskMatrix::all_observed(10, 2);
        mask.set(5, 0, EntryKind::Mar);
        (map, mask)
    }

    fn quick_config() -> BritsConfig {
        BritsConfig {
            hidden_size: 16,
            epochs: 30,
            learning_rate: 0.02,
            sequence_length: 5,
            seed: 3,
            threads: 0,
            batch_size: 1,
            precision: Precision::F64,
        }
    }

    #[test]
    fn brits_imputes_a_plausible_mar_value() {
        let (map, mask) = smooth_map();
        let out = Brits::new(quick_config()).impute(&map, &mask);
        let imputed = out.rssi(5, 0);
        // The surrounding observations are in [-69, -61]; the imputation must
        // land far from the -100 floor and inside the plausible band.
        assert!(
            (-80.0..=-50.0).contains(&imputed),
            "imputed value {imputed} is implausible"
        );
        // Observed entries pass through unchanged.
        assert_eq!(out.rssi(0, 0), -60.0);
        assert_eq!(out.rssi(3, 1), -80.0);
        assert_eq!(Brits::default().name(), "BRITS");
    }

    /// The f32 inference path must stay close to the f64 path: same trained
    /// weights, only the inference kernels rounded. On the smooth test map
    /// the two imputations agree to well under a tenth of a dBm.
    #[test]
    fn brits_f32_inference_tracks_the_f64_path() {
        let (map, mask) = smooth_map();
        let f64_out = Brits::new(quick_config()).impute(&map, &mask);
        let f32_out = Brits::new(BritsConfig {
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
        // Observed entries pass through identically at either precision.
        assert_eq!(f32_out.rssi(0, 0).to_bits(), f64_out.rssi(0, 0).to_bits());
    }

    /// The snapshot export carries exactly the bits the inference path keeps
    /// resident, at either precision, without perturbing the imputation
    /// itself.
    #[test]
    fn snapshot_export_matches_resident_dtype_and_leaves_imputation_unchanged() {
        let (map, mask) = smooth_map();
        for (precision, expected_dtype) in [(Precision::F64, "f64"), (Precision::F32, "f32")] {
            let config = BritsConfig {
                epochs: 3,
                precision,
                ..quick_config()
            };
            let (out, tensors) = Brits::new(config.clone()).impute_with_snapshot(&map, &mask);
            // 2 directions × (estimate + decay + 4 LSTM gates) × (weight, bias).
            assert_eq!(tensors.len(), 24);
            let mut names: Vec<&str> = tensors.iter().map(|t| t.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 24, "tensor names must be unique");
            for t in &tensors {
                assert_eq!(t.payload.dtype_name(), expected_dtype, "{}", t.name);
                assert!(t.payload.rows() > 0 && t.payload.cols() > 0);
            }
            // Export is observation-only: same imputation as plain impute().
            let plain = Brits::new(config).impute(&map, &mask);
            for (a, b) in plain
                .fingerprints
                .iter()
                .flatten()
                .zip(out.fingerprints.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // The precision axis halves the export payload: the f64 export is
        // 2× the bytes of the f32 export of the same weights.
        let export = |precision| {
            Brits::new(BritsConfig {
                epochs: 1,
                precision,
                ..quick_config()
            })
            .impute_with_snapshot(&map, &mask)
            .1
            .iter()
            .map(|t| t.payload.payload_bytes())
            .sum::<usize>()
        };
        assert_eq!(export(Precision::F64), export(Precision::F32) * 2);
    }

    /// Baselines without a trained snapshot fall back to the default hook:
    /// same imputation, empty tensor list.
    #[test]
    fn default_snapshot_hook_returns_no_tensors() {
        let (map, mask) = smooth_map();
        let li = crate::LinearInterpolation;
        let (out, tensors) = li.impute_with_snapshot(&map, &mask);
        assert!(tensors.is_empty());
        assert_eq!(out.fingerprints, li.impute(&map, &mask).fingerprints);
    }

    /// The warm-start replay contract: at either precision, importing a snapshot and re-running inference with
    /// `fine_tune_epochs = 0` on the unchanged map reproduces the exporting
    /// run's imputation — and re-exports the same tensor bits.
    #[test]
    fn warm_replay_reproduces_the_exporting_run_bitwise() {
        let (map, mask) = smooth_map();
        for precision in [Precision::F64, Precision::F32] {
            let brits = Brits::new(BritsConfig {
                epochs: 3,
                precision,
                ..quick_config()
            });
            let (cold, tensors) = brits.impute_with_snapshot(&map, &mask);
            let (warm, re_exported) = brits.impute_warm(&map, &mask, &tensors, 0);
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
            assert_eq!(re_exported.len(), tensors.len());
            for (a, b) in tensors.iter().zip(re_exported.iter()) {
                assert!(a.bits_eq(b), "re-exported tensor {} drifted", a.name);
            }
        }
    }

    /// Fine-tuning resumes training from the imported weights: the result
    /// stays plausible, fresh tensors come back, and the weights actually
    /// move (a fresh optimizer step is not a no-op).
    #[test]
    fn warm_fine_tune_updates_the_snapshot() {
        let (map, mask) = smooth_map();
        let brits = Brits::new(BritsConfig {
            epochs: 3,
            ..quick_config()
        });
        let (_, tensors) = brits.impute_with_snapshot(&map, &mask);
        let (out, tuned) = brits.impute_warm(&map, &mask, &tensors, 2);
        assert_eq!(tuned.len(), 24);
        assert!((-90.0..=-40.0).contains(&out.rssi(5, 0)));
        assert!(
            tensors.iter().zip(tuned.iter()).any(|(a, b)| !a.bits_eq(b)),
            "fine-tuning left every weight bit-unchanged"
        );
    }

    /// Empty, foreign, or shape-incompatible snapshots fall back to the cold
    /// path bitwise — warm-starting is always safe to attempt. That
    /// includes square LSTM gates, which leave the cell no input columns.
    #[test]
    fn warm_with_unusable_snapshot_falls_back_to_cold_training() {
        let (map, mask) = smooth_map();
        let brits = Brits::new(quick_config());
        let (cold, tensors) = brits.impute_with_snapshot(&map, &mask);
        let foreign = vec![NamedTensor::new(
            "brits.forward.estimate.weight",
            Matrix::<f64>::filled(3, 7, 0.5),
        )];
        let square: Vec<NamedTensor> = tensors
            .iter()
            .map(|t| match t.name.strip_prefix("brits.forward.cell.") {
                Some(gate) if gate.ends_with(".weight") => {
                    NamedTensor::new(t.name.clone(), Matrix::<f64>::filled(16, 16, 0.1))
                }
                _ => t.clone(),
            })
            .collect();
        for warm in [&Vec::new(), &foreign, &square] {
            let (out, tensors) = brits.impute_warm(&map, &mask, warm, 0);
            assert_eq!(tensors.len(), 24);
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
    fn brits_uses_linear_interpolation_for_rps() {
        let (mut map, mask) = smooth_map();
        map.records_mut()[4].rp = None;
        let out = Brits::new(quick_config()).impute(&map, &mask);
        let p = out.locations[4].unwrap();
        assert!((p.x - 4.0).abs() < 1e-6);
    }

    #[test]
    fn brits_handles_empty_map() {
        let out =
            Brits::new(quick_config()).impute(&RadioMap::empty(3), &MaskMatrix::all_observed(0, 3));
        assert!(out.is_empty());
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

    /// The graph rebuild must not perturb the trajectory: the gradients of
    /// a `(sequence, reversed)` pair computed on replicas rebuilt from
    /// weights ([`RecurrentImputerWeights::to_model`], which the tapes'
    /// oracles use) are bit-identical to gradients computed on the live
    /// graph.
    #[test]
    fn rebuilt_replica_gradients_match_live_graph_bitwise() {
        let (map, mask) = smooth_map();
        let norm = Normalization::from_map(&map);
        let sequences = build_sequences(&map, &mask, 5, &norm);
        let reversed: Vec<PathSequence> = sequences.iter().map(|s| s.reversed(&norm)).collect();
        let mut rng = StdRng::seed_from_u64(17);
        let forward = RecurrentImputer::new(2, 12, &mut rng);
        let backward = RecurrentImputer::new(2, 12, &mut rng);
        for (seq, rev) in sequences.iter().zip(reversed.iter()) {
            for p in forward.parameters().iter().chain(&backward.parameters()) {
                p.zero_grad();
            }
            let live = pair_gradients(&forward, &backward, seq, rev);
            let replica = pair_gradients(
                &forward.snapshot().to_model(),
                &backward.snapshot().to_model(),
                seq,
                rev,
            );
            assert_eq!(live.len(), replica.len());
            for (a, b) in live.iter().zip(replica.iter()) {
                assert!(a.bits_eq(b), "replica gradient drifted from live graph");
            }
        }
    }

    /// Which fingerprint entries a test sequence observes.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Masks {
        AllObserved,
        Mixed,
        AllMissing,
    }

    /// A value in `[-1, 1]` or an exact `±0.0`, from a salt.
    fn value(salt: usize) -> f64 {
        match salt % 7 {
            0 => 0.0,
            1 => -0.0,
            k => ((k * 31 + salt * 7) as f64 * 0.61).sin(),
        }
    }

    /// A prepared sequence of `len` steps over `aps` APs with `±0.0`
    /// entries and growing time lags.
    pub(crate) fn sequence(len: usize, aps: usize, salt: usize, masks: Masks) -> PathSequence {
        let observed = |t: usize, e: usize| match masks {
            Masks::AllObserved => 1.0,
            Masks::Mixed => f64::from(!(t + e * 2 + salt).is_multiple_of(4)),
            Masks::AllMissing => 0.0,
        };
        PathSequence {
            record_indices: (0..len).collect(),
            times: (0..len).map(|t| (t * 3) as f64).collect(),
            fingerprints: (0..len)
                .map(|t| (0..aps).map(|e| value(t * aps + e + salt)).collect())
                .collect(),
            fingerprint_masks: (0..len)
                .map(|t| (0..aps).map(|e| observed(t, e)).collect())
                .collect(),
            time_lags: (0..len)
                .map(|t| (0..aps).map(|e| (t * (e % 3 + 1)) as f64 * 0.05).collect())
                .collect(),
            rps: vec![(0.0, 0.0); len],
            rp_masks: vec![0.0; len],
        }
    }

    /// `w` with every tensor shifted off its initial value (the biases
    /// start at zero), so no gradient term is trivially zero.
    pub(crate) fn shifted<W: Parameters>(mut w: W) -> W {
        let mut k = 0;
        w.for_each_tensor_mut(|m| {
            for v in m.data_mut() {
                k += 1;
                *v += 0.3 * value(k + 2);
            }
        });
        w
    }

    /// Freshly drawn, [`shifted`] weights.
    fn weights(aps: usize, hidden: usize, rng: &mut StdRng) -> RecurrentImputerWeights {
        shifted(RecurrentImputerWeights::new(aps, hidden, rng))
    }

    /// The tape against its oracle, the graph's [`pair_backward`]: the loss
    /// value and all 24 gradient tensors of both directions, bit for bit,
    /// for `T ∈ {1, 2, 5}`, masks observing every, some and no entry,
    /// inputs holding `±0.0`, and two shapes (the wider one runs the vector
    /// kernels). One tape serves every case, so a record or scratch buffer
    /// that leaked from one pair into the next would show too.
    #[test]
    fn tape_matches_the_graph_oracle_bitwise() {
        let mut tape = BritsTape::new();
        let mut cases = 0;
        for (aps, hidden) in [(5, 8), (19, 17)] {
            for len in [1, 2, 5] {
                for masks in [Masks::AllObserved, Masks::Mixed, Masks::AllMissing] {
                    let salt = cases;
                    let mut rng = StdRng::seed_from_u64(salt as u64);
                    let fw = weights(aps, hidden, &mut rng);
                    let bw = weights(aps, hidden, &mut rng);
                    let seq = sequence(len, aps, salt, masks);
                    let rev = sequence(len, aps, salt + 11, masks);

                    let (fm, bm) = (fw.to_model(), bw.to_model());
                    let want_loss = pair_backward(&fm, &bm, &seq, &rev);
                    let mut grads = [&fw, &bw].map(Gradients::zeros_like);
                    let [f, b] = &mut grads;
                    let loss = tape.differentiate([&fw, &bw], &seq, &rev, [f, b]);

                    let case = format!("T={len} {masks:?} A={aps} H={hidden}");
                    assert_eq!(loss.to_bits(), want_loss.to_bits(), "{case}: loss");
                    let want = fm.parameters().into_iter().chain(bm.parameters());
                    let got = grads.iter().flat_map(|g| g.tensors());
                    let mut count = 0;
                    for (k, (p, g)) in want.zip(got).enumerate() {
                        assert!(p.grad().bits_eq(g), "{case}: gradient tensor {k}");
                        count += 1;
                    }
                    assert_eq!(count, 24, "{case}: tensor count");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2 * 3 * 3);
    }

    /// Gradients accumulate: differentiating two pairs into the same
    /// buffers equals the graph's two backward passes into the same
    /// parameters, as the graph's `zero_grad → backward → backward` does.
    #[test]
    fn tape_gradients_accumulate_like_the_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let (fw, bw) = (weights(4, 6, &mut rng), weights(4, 6, &mut rng));
        let pairs = [
            (
                sequence(5, 4, 1, Masks::Mixed),
                sequence(5, 4, 2, Masks::Mixed),
            ),
            (
                sequence(3, 4, 3, Masks::Mixed),
                sequence(3, 4, 4, Masks::Mixed),
            ),
        ];
        let (fm, bm) = (fw.to_model(), bw.to_model());
        let mut grads = [&fw, &bw].map(Gradients::zeros_like);
        let mut tape = BritsTape::new();
        for (seq, rev) in &pairs {
            pair_backward(&fm, &bm, seq, rev);
            let [f, b] = &mut grads;
            tape.differentiate([&fw, &bw], seq, rev, [f, b]);
        }
        let want = fm.parameters().into_iter().chain(bm.parameters());
        for (p, g) in want.zip(grads.iter().flat_map(|g| g.tensors())) {
            assert!(p.grad().bits_eq(g));
        }
    }

    /// The pre-batching reference: trains with the literal pre-PR-5 serial
    /// dependency-chain loop (`zero_grad → backward → step` per sequence on
    /// the live graph) and returns the inferred `(record, ap, rssi)` MAR
    /// values from the trained weights.
    fn serial_reference_values(
        config: &BritsConfig,
        map: &RadioMap,
        mask: &MaskMatrix,
    ) -> Vec<(usize, usize, f64)> {
        let num_aps = map.num_aps();
        let norm = Normalization::from_map(map);
        let sequences = build_sequences(map, mask, config.sequence_length, &norm);
        let reversed: Vec<PathSequence> = sequences.iter().map(|s| s.reversed(&norm)).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let forward = RecurrentImputer::new(num_aps, config.hidden_size, &mut rng);
        let backward = RecurrentImputer::new(num_aps, config.hidden_size, &mut rng);
        let mut params = forward.parameters();
        params.extend(backward.parameters());
        let mut optimizer = Adam::new(params, config.learning_rate).with_clip(5.0);
        for _ in 0..config.epochs {
            for (seq, rev) in sequences.iter().zip(reversed.iter()) {
                optimizer.zero_grad();
                let fwd = forward.run(seq);
                let bwd = backward.run(rev);
                let mut total = Var::scalar(0.0);
                for t in 0..seq.len() {
                    let target = Matrix::column(&seq.fingerprints[t]);
                    let m = Matrix::column(&seq.fingerprint_masks[t]);
                    total = total.add(&loss::masked_mse(&fwd.estimates[t], &target, &m));
                    let rt = rev.len() - 1 - t;
                    let target_b = Matrix::column(&rev.fingerprints[rt]);
                    let m_b = Matrix::column(&rev.fingerprint_masks[rt]);
                    total = total.add(&loss::masked_mse(&bwd.estimates[rt], &target_b, &m_b));
                    // The old consistency term, kept here only: it is
                    // identically zero, so training without it must match
                    // this reference bit for bit.
                    total = total.add(
                        &loss::masked_mse_between(&fwd.complements[t], &bwd.complements[rt], &m)
                            .scale(0.1),
                    );
                }
                total.scale(1.0 / seq.len() as f64).backward();
                optimizer.step();
            }
        }
        let (fw, bw) = (forward.snapshot(), backward.snapshot());
        mar_values(&[(&fw, &sequences), (&bw, &reversed)], mask, &norm, 1)
            .into_iter()
            .flatten()
            .collect()
    }

    /// `batch_size = 1` (the default) reproduces the pre-batching serial SGD
    /// trajectory bitwise.
    #[test]
    fn batch_size_one_reproduces_the_serial_sgd_trajectory() {
        let (map, mask) = smooth_map();
        let config = quick_config();
        let batched = Brits::new(config.clone()).impute(&map, &mask);
        let reference = serial_reference_values(&config, &map, &mask);
        assert!(!reference.is_empty());
        for (record, ap, value) in reference {
            assert_eq!(
                batched.rssi(record, ap).to_bits(),
                value.to_bits(),
                "batch_size = 1 diverged from the serial reference at ({record}, {ap})"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Property form of the trajectory-parity contract: over random path
        /// maps, missing patterns and training shapes, `batch_size = 1`
        /// reproduces the pre-PR-5 serial SGD trajectory bit for bit.
        #[test]
        fn batch_size_one_matches_serial_reference_on_random_maps(
            num_records in 6usize..14,
            num_aps in 2usize..4,
            missing_stride in 2usize..5,
            epochs in 1usize..4,
            seed in 0u64..1_000,
        ) {
            let mut records = Vec::new();
            for i in 0..num_records {
                let values: Vec<Option<f64>> = (0..num_aps)
                    .map(|ap| {
                        if (i + ap) % missing_stride == 0 {
                            None
                        } else {
                            Some(-50.0 - i as f64 - ap as f64 * 2.5)
                        }
                    })
                    .collect();
                records.push(rm_radiomap::RadioMapRecord::new(
                    Fingerprint::new(values),
                    Some(Point::new(i as f64, 0.5)),
                    i as f64 * 2.0,
                    0,
                ));
            }
            let map = RadioMap::new(records, num_aps);
            let mut mask = MaskMatrix::all_observed(num_records, num_aps);
            for i in 0..num_records {
                for ap in 0..num_aps {
                    if (i + ap) % missing_stride == 0 {
                        mask.set(i, ap, EntryKind::Mar);
                    }
                }
            }
            let config = BritsConfig {
                hidden_size: 8,
                epochs,
                sequence_length: 4,
                seed,
                batch_size: 1,
                ..quick_config()
            };
            let batched = Brits::new(config.clone()).impute(&map, &mask);
            for (record, ap, value) in serial_reference_values(&config, &map, &mask) {
                proptest::prop_assert_eq!(batched.rssi(record, ap).to_bits(), value.to_bits());
            }
        }
    }

    /// A fixed `batch_size > 1` yields a bitwise-identical model at any
    /// thread count: batch boundaries and reduction order are fixed by the
    /// batch size alone, and `par_map` hands back gradients in
    /// sequence-index order no matter which worker produced them.
    #[test]
    fn batched_training_is_bit_identical_across_thread_counts() {
        let (map, mask) = smooth_map();
        let run = |threads: usize| {
            Brits::new(BritsConfig {
                epochs: 8,
                batch_size: 3,
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
                    "batched BRITS differs at {threads} threads"
                );
            }
        }
    }
}
