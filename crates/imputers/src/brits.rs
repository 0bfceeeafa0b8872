//! BRITS — Bidirectional Recurrent Imputation for Time Series (Cao et al.),
//! adapted to radio maps: it imputes MAR RSSIs from the temporal structure of
//! each survey path, and falls back to linear interpolation for missing RPs
//! (BRITS itself cannot impute labels).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_nn::{
    loss, Adam, GradientBatch, Linear, LinearWeights, LstmCell, LstmCellWeights, LstmState,
    LstmStateMatrix, Optimizer,
};
use rm_radiomap::{EntryKind, MaskMatrix, RadioMap, MNAR_FILL_VALUE};
use rm_tensor::{InputPart, Matrix, NamedTensor, Precision, Scalar, Var, Workspace};

use crate::sequence::{build_sequences, Normalization, PathSequence};
use crate::{gates, snapshot, ImputedRadioMap, Imputer};

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
    /// weights, and their sum is reduced in sequence-index order — so a
    /// fixed `batch_size` yields a bitwise-identical model at any thread
    /// count. The default of `1` reproduces the classic per-sequence SGD
    /// trajectory bitwise; larger batches take fewer, **summed-gradient**
    /// steps (a *different* — though equally deterministic — trajectory),
    /// letting training fan out across the worker pool. The sum is applied
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

/// One direction of the recurrent imputer: estimates each step's fingerprint
/// from the decayed hidden state, complements the observation, and feeds the
/// complemented vector (concatenated with its mask) to an LSTM cell.
pub(crate) struct RecurrentImputer {
    estimate: Linear,
    decay: Linear,
    cell: LstmCell,
    hidden_size: usize,
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
        Self {
            estimate: Linear::new(hidden_size, num_aps, rng),
            decay: Linear::new(num_aps, hidden_size, rng),
            cell: LstmCell::new(num_aps * 2, hidden_size, rng),
            hidden_size,
        }
    }

    pub(crate) fn parameters(&self) -> Vec<Var> {
        let mut params = self.estimate.parameters();
        params.extend(self.decay.parameters());
        params.extend(self.cell.parameters());
        params
    }

    /// Runs the imputer over one (already ordered) sequence.
    pub(crate) fn run(&self, seq: &PathSequence) -> DirectionalPass {
        let mut state = LstmState::zeros(self.hidden_size);
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

    /// Copies the trained parameters into a graph-free, `Send + Sync`
    /// snapshot for the parallel inference pass. The snapshot is taken at
    /// the training precision (`f64`); round it with
    /// [`RecurrentImputerWeights::cast`] for the f32 inference path.
    pub(crate) fn snapshot(&self) -> RecurrentImputerWeights {
        RecurrentImputerWeights {
            estimate: self.estimate.snapshot(),
            decay: self.decay.snapshot(),
            cell: self.cell.snapshot(),
            hidden_size: self.hidden_size,
        }
    }
}

/// A graph-free snapshot of a trained [`RecurrentImputer`]. Unlike the
/// `Var`-based model (whose nodes are `Rc`-shared and thus thread-bound),
/// the snapshot holds plain matrices and can be shared by every worker of
/// the inference fan-out. [`RecurrentImputerWeights::run`] mirrors
/// [`RecurrentImputer::run`] operation for operation, so at `T = f64` the
/// imputations are bit-identical to running the autodiff graph forward; at
/// `T = f32` the same code runs through the single-precision kernels.
pub(crate) struct RecurrentImputerWeights<T: Scalar = f64> {
    estimate: LinearWeights<T>,
    decay: LinearWeights<T>,
    cell: LstmCellWeights<T>,
    hidden_size: usize,
}

impl RecurrentImputerWeights {
    /// Rebuilds a trainable [`RecurrentImputer`] from this snapshot: fresh
    /// parameter leaves holding copies of the snapshotted matrices, at the
    /// training precision (`f64`). This is the worker-side half of batched
    /// training — each sequence in a batch differentiates its own rebuilt
    /// replica, and only plain gradient matrices cross threads. The replica
    /// performs the same operations on the same values as the original, so
    /// its gradients are bit-identical to gradients computed on the live
    /// graph (see the parity tests below).
    pub(crate) fn to_model(&self) -> RecurrentImputer {
        RecurrentImputer {
            estimate: self.estimate.to_linear(),
            decay: self.decay.to_linear(),
            cell: self.cell.to_cell(),
            hidden_size: self.hidden_size,
        }
    }
}

impl<T: Scalar> RecurrentImputerWeights<T> {
    /// Rounds the snapshot to another precision (the one-time `f64 → f32`
    /// weight rounding of the f32 inference path).
    pub(crate) fn cast<U: Scalar>(&self) -> RecurrentImputerWeights<U> {
        RecurrentImputerWeights {
            estimate: self.estimate.cast(),
            decay: self.decay.cast(),
            cell: self.cell.cast(),
            hidden_size: self.hidden_size,
        }
    }

    /// Runs the imputer over one sequence, returning the complemented vector
    /// `x_c` of every step (the imputations; the reconstruction estimates are
    /// only needed for training). Sequence data is stored in `f64` and
    /// rounded per step, so the kernels — the hot path — run entirely in `T`.
    /// Every intermediate cycles through the caller-owned workspace `ws`
    /// (reuse is capacity-only — values are bit-identical to fresh buffers),
    /// so a steady-state inference step allocates nothing.
    pub(crate) fn run(&self, seq: &PathSequence, ws: &mut Workspace<T>) -> Vec<Matrix<T>> {
        // Seed the state from the workspace (bitwise zeros), so the buffers
        // retired at the end of one sequence serve the next.
        let mut state = LstmStateMatrix {
            h: ws.take(self.hidden_size, 1),
            c: ws.take(self.hidden_size, 1),
        };
        let mut complements = Vec::with_capacity(seq.len());
        // Scratch buffers reused across all steps of the sequence.
        let mut x_hat = Matrix::zeros(0, 0);
        let mut decay_pre = Matrix::zeros(0, 0);
        for t in 0..seq.len() {
            let x = Matrix::column_from_f64(&seq.fingerprints[t]);
            let mask = Matrix::<T>::column_from_f64(&seq.fingerprint_masks[t]);
            let lag = Matrix::column_from_f64(&seq.time_lags[t]);

            self.estimate.forward_into(&state.h, &mut x_hat);
            let inverse_mask = mask.map(|m| T::ONE - m);
            let x_c = &x.hadamard(&mask) + &x_hat.hadamard(&inverse_mask);
            // γ = exp(-relu(W_γ δ + b_γ)), matching relu → scale(-1) → exp.
            self.decay.forward_into(&lag, &mut decay_pre);
            let gamma = decay_pre.map(Scalar::relu).scale(-T::ONE).map(Scalar::exp);
            let decayed = LstmStateMatrix {
                h: state.h.hadamard(&gamma),
                c: state.c.clone(),
            };
            let input = x_c.vstack(&mask);
            let next = self.cell.step_ws(&input, &decayed, ws);
            ws.give(state.h);
            ws.give(state.c);
            ws.give(decayed.h);
            ws.give(decayed.c);
            ws.give(input);
            state = next;
            complements.push(x_c);
        }
        ws.give(state.h);
        ws.give(state.c);
        complements
    }

    /// Bytes the snapshot keeps resident at precision `T`.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.estimate.resident_bytes() + self.decay.resident_bytes() + self.cell.resident_bytes()
    }
}

/// Resident snapshot bytes of one recurrent-imputer direction with the
/// given shape, at each precision: `(f64, f32)`. The reporting hook behind
/// the `exp_snapshot_storage` experiment — it measures the actual
/// inference-path snapshot types, so the `f32 = f64 / 2` ratio it returns is
/// the ratio the serving path pays.
pub fn snapshot_resident_bytes(num_aps: usize, hidden_size: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(0);
    let model = RecurrentImputer::new(num_aps, hidden_size, &mut rng);
    let w64 = model.snapshot();
    (w64.resident_bytes(), w64.cast::<f32>().resident_bytes())
}

/// Differentiates the BRITS loss of one `(sequence, reversed)` pair — the
/// forward and backward reconstruction errors at observed entries —
/// accumulating into the models' parameter gradients, then returns the
/// pair's graph to the per-worker node arena.
///
/// There is no cross-direction consistency term. Compared under the
/// observed mask, as it once was, the two directions' complements both equal
/// the observation, so the term was identically zero. Cao et al.'s
/// consistency loss compares the two imputations at every entry; adopting
/// it changes the trained bits and is left to a fidelity change.
///
/// The caller must ensure the models' gradient buffers are zero on entry:
/// freshly rebuilt replicas ([`RecurrentImputerWeights::to_model`]) start
/// zeroed, and the live-graph path of [`train_in_batches`] zeroes through
/// its optimizer.
fn pair_backward(
    forward: &RecurrentImputer,
    backward: &RecurrentImputer,
    seq: &PathSequence,
    rev: &PathSequence,
) {
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
    // Return the step's graph — both passes, the loss chain and every
    // intermediate — to the per-worker node arena so the next sequence
    // rebuilds on recycled storage. The parameter leaves, and the gradients
    // they hold, stay with the models and are skipped by the recycler.
    Var::recycle_all(
        fwd.estimates
            .into_iter()
            .chain(fwd.complements)
            .chain(bwd.estimates)
            .chain(bwd.complements)
            .chain([total, loss]),
    );
}

/// [`pair_backward`], then the per-parameter gradients read out in optimizer
/// order (forward-direction parameters, then backward-direction) — one
/// sequence's share of a multi-sequence batch.
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

/// Runs the deterministic mini-batch training loop shared by the batched
/// recurrent trainers: the epoch is split into fixed-boundary chunks of
/// `batch_size` sequence indices, each chunk's per-sequence gradients are
/// produced by `grads` (fanned out by the caller where profitable), summed
/// in sequence-index order into a [`GradientBatch`], and applied as one
/// optimizer step.
///
/// A single-sequence chunk — every step at the `batch_size = 1` default —
/// takes the direct path instead: the optimizer's gradients are zeroed,
/// `live(i)` back-propagates sequence `i` through the live graph into them,
/// and the optimizer steps. That is bitwise the batch route: a gradient
/// buffer never holds `-0.0` (it starts at `+0.0` and only has values added
/// to it), so summing one gradient into a zeroed batch and loading it into
/// zeroed parameter gradients would reproduce it exactly.
///
/// `grads(chunk)` must return one gradient list per index in `chunk`, in
/// chunk order — [`rm_runtime::par_map`] over the chunk satisfies this by
/// construction. Because the boundaries depend only on `batch_size` and the
/// reduction order only on the sequence index, the resulting trajectory is
/// bitwise independent of the thread count.
pub fn train_in_batches<T: Scalar>(
    optimizer: &mut impl Optimizer<T>,
    epochs: usize,
    num_sequences: usize,
    batch_size: usize,
    mut live: impl FnMut(usize),
    mut grads: impl FnMut(&[usize]) -> Vec<Vec<Matrix<T>>>,
) {
    let batch_size = batch_size.max(1);
    let indices: Vec<usize> = (0..num_sequences).collect();
    // Built at the first multi-sequence chunk: no single-sequence step reads it.
    let mut batch: Option<GradientBatch<T>> = None;
    for _ in 0..epochs {
        for chunk in indices.chunks(batch_size) {
            if let [i] = *chunk {
                optimizer.zero_grad();
                live(i);
                optimizer.step();
                continue;
            }
            let per_sequence = grads(chunk);
            debug_assert_eq!(per_sequence.len(), chunk.len());
            let batch =
                batch.get_or_insert_with(|| GradientBatch::zeros_like(optimizer.parameters()));
            batch.clear();
            for sequence_grads in &per_sequence {
                batch.accumulate(sequence_grads);
            }
            optimizer.apply_batch(batch);
        }
    }
}

/// The bidirectional inference fan-out, generic over the kernel precision:
/// every `(sequence, reversed)` pair runs through the shared weight
/// snapshots on the pool, and the forward/backward complements are averaged
/// at MAR positions. Denormalisation happens after widening back to `f64`,
/// so the returned `(record, ap, rssi)` triples are precision-independent in
/// type (not in value). Each task only reads the shared snapshots, so the
/// fan-out is order-preserving and bit-identical at any thread count.
fn infer_mar_values<T: Scalar>(
    forward: &RecurrentImputerWeights<T>,
    backward: &RecurrentImputerWeights<T>,
    pairs: &[(&PathSequence, &PathSequence)],
    mask: &MaskMatrix,
    norm: &Normalization,
    num_aps: usize,
    threads: usize,
) -> Vec<Vec<(usize, usize, f64)>> {
    rm_runtime::par_map(threads, pairs, |_, &(seq, rev)| {
        // Per-task scratch: the workspace itself is cheap, and the matrix
        // buffers it hands out come from the worker's thread-local pool, so
        // steady-state inference tasks allocate nothing.
        let mut ws = Workspace::new();
        let fwd = forward.run(seq, &mut ws);
        let bwd = backward.run(rev, &mut ws);
        let mut values: Vec<(usize, usize, f64)> = Vec::new();
        for (t, &record) in seq.record_indices.iter().enumerate() {
            let rt = rev.len() - 1 - t;
            for ap in 0..num_aps {
                if mask.get(record, ap) == EntryKind::Mar {
                    let avg = (fwd[t].get(ap, 0) + bwd[rt].get(ap, 0)) / T::from_f64(2.0);
                    values.push((record, ap, norm.denormalize_rssi(avg.to_f64())));
                }
            }
        }
        values
    })
}

/// Exports one direction's trained snapshot as `brits.{prefix}.*` named
/// tensors at the precision the inference path keeps resident (see
/// [`crate::snapshot::export_linear`]: exported bits equal the serving bits
/// at either precision).
fn export_direction(
    prefix: &str,
    weights: &RecurrentImputerWeights,
    precision: Precision,
    tensors: &mut Vec<NamedTensor>,
) {
    export_recurrent(&format!("brits.{prefix}"), weights, precision, tensors);
}

/// Exports one direction's trained weights under `{prefix}.{layer}` names
/// via the shared [`crate::snapshot`] helpers (see [`export_direction`] for
/// the BRITS naming; SSGAN reuses this for its generator).
pub(crate) fn export_recurrent(
    prefix: &str,
    weights: &RecurrentImputerWeights,
    precision: Precision,
    tensors: &mut Vec<NamedTensor>,
) {
    snapshot::export_linear(
        &format!("{prefix}.estimate"),
        &weights.estimate,
        precision,
        tensors,
    );
    snapshot::export_linear(
        &format!("{prefix}.decay"),
        &weights.decay,
        precision,
        tensors,
    );
    snapshot::export_lstm_cell(prefix, &weights.cell, precision, tensors);
}

/// Rebuilds one direction's weights from the tensors exported by
/// [`export_recurrent`] under `prefix`, validating every shape against a
/// `num_aps`-AP map. Returns `None` — the caller then falls back to cold
/// training — when a tensor is missing or the snapshot was trained for a
/// different map shape.
pub(crate) fn import_recurrent(
    prefix: &str,
    tensors: &[NamedTensor],
    num_aps: usize,
) -> Option<RecurrentImputerWeights> {
    let estimate = snapshot::import_linear(tensors, prefix, "estimate")?;
    let decay = snapshot::import_linear(tensors, prefix, "decay")?;
    let cell = snapshot::import_lstm_cell(tensors, prefix)?;

    // `estimate` maps hidden → APs, `decay` maps APs → hidden, and each gate
    // maps the concatenated `[x_c; mask]` input plus the hidden state to the
    // hidden size — reject anything else before it can panic downstream.
    let hidden_size = estimate.weight().cols();
    if hidden_size == 0
        || estimate.weight().shape() != (num_aps, hidden_size)
        || decay.weight().shape() != (hidden_size, num_aps)
        || cell.gates()[0].weight().shape() != (hidden_size, num_aps * 2 + hidden_size)
    {
        return None;
    }
    Some(RecurrentImputerWeights {
        estimate,
        decay,
        cell,
        hidden_size,
    })
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

    /// Deterministic mini-batch training of one forward/backward model pair
    /// for `epochs` epochs: the epoch is chunked into fixed-boundary batches
    /// of `batch_size` sequences. Within a batch the per-sequence losses are
    /// independent given the batch-start weights, so each sequence
    /// differentiates its own detached graph replica (rebuilt from a
    /// `Send + Sync` weight snapshot) on the worker pool, and only the
    /// extracted gradient matrices cross threads; the sums reduce in
    /// sequence-index order, so the model is bitwise thread-count
    /// independent. Single-sequence batches — the `batch_size = 1` default
    /// in particular — skip the snapshot/rebuild round-trip and
    /// differentiate the live graph directly, reproducing the classic serial
    /// SGD trajectory bitwise (parity-tested below). Shared by cold training
    /// ([`Brits::impute_inner`]) and warm fine-tuning
    /// ([`Brits::impute_warm_inner`]), which differ only in where the
    /// starting weights come from.
    fn train_pair(
        &self,
        forward: &RecurrentImputer,
        backward: &RecurrentImputer,
        sequences: &[PathSequence],
        reversed: &[PathSequence],
        epochs: usize,
    ) {
        let mut params = forward.parameters();
        params.extend(backward.parameters());
        let mut optimizer = Adam::new(params, self.config.learning_rate).with_clip(5.0);
        let threads = self.config.threads;
        train_in_batches(
            &mut optimizer,
            epochs,
            sequences.len(),
            self.config.batch_size,
            |i| pair_backward(forward, backward, &sequences[i], &reversed[i]),
            |chunk| {
                let fw = forward.snapshot();
                let bw = backward.snapshot();
                rm_runtime::par_map(threads, chunk, |_, &i| {
                    pair_gradients(&fw.to_model(), &bw.to_model(), &sequences[i], &reversed[i])
                })
            },
        );
    }

    /// Produces imputations from a trained weight pair — average of forward
    /// and backward complements at MAR positions — plus the optional tensor
    /// export. The weights are rounded once to f32 when the config asks for
    /// single-precision inference, and every sequence's inference fans out
    /// over the pool; each task only reads the shared snapshot and writes
    /// values for its own (disjoint) records, so the merge is
    /// order-independent.
    fn infer_and_export(
        &self,
        forward_weights: &RecurrentImputerWeights,
        backward_weights: &RecurrentImputerWeights,
        sequences: &[PathSequence],
        reversed: &[PathSequence],
        map: &RadioMap,
        mask: &MaskMatrix,
        norm: &Normalization,
        export_snapshot: bool,
    ) -> (ImputedRadioMap, Vec<NamedTensor>) {
        let num_aps = map.num_aps();
        let ImputedRadioMap {
            mut fingerprints,
            locations,
        } = Self::passthrough(map);
        let tensors = if export_snapshot {
            let mut tensors = Vec::with_capacity(24);
            for (prefix, weights) in [("forward", forward_weights), ("backward", backward_weights)]
            {
                export_direction(prefix, weights, self.config.precision, &mut tensors);
            }
            tensors
        } else {
            Vec::new()
        };
        let pairs: Vec<(&PathSequence, &PathSequence)> =
            sequences.iter().zip(reversed.iter()).collect();
        let threads = self.config.threads;
        let imputations = match self.config.precision {
            Precision::F64 => infer_mar_values(
                forward_weights,
                backward_weights,
                &pairs,
                mask,
                norm,
                num_aps,
                threads,
            ),
            Precision::F32 => infer_mar_values(
                &forward_weights.cast::<f32>(),
                &backward_weights.cast::<f32>(),
                &pairs,
                mask,
                norm,
                num_aps,
                threads,
            ),
        };
        for values in imputations {
            for (record, ap, value) in values {
                fingerprints[record][ap] = value;
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
        let forward = RecurrentImputer::new(num_aps, self.config.hidden_size, &mut rng);
        let backward = RecurrentImputer::new(num_aps, self.config.hidden_size, &mut rng);
        let reversed = self.reverse_sequences(&sequences, &norm);
        self.train_pair(
            &forward,
            &backward,
            &sequences,
            &reversed,
            self.config.epochs,
        );
        self.infer_and_export(
            &forward.snapshot(),
            &backward.snapshot(),
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
    /// weights seed a fresh optimizer for that many additional mini-batch
    /// epochs — a cheap incremental refresh, not a replay.
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
        let forward_weights = import_recurrent("brits.forward", warm, num_aps)?;
        let backward_weights = import_recurrent("brits.backward", warm, num_aps)?;

        let norm = Normalization::from_map(map);
        let sequences = build_sequences(map, mask, self.config.sequence_length, &norm);
        if sequences.is_empty() {
            return None;
        }
        let reversed = self.reverse_sequences(&sequences, &norm);

        let (forward_weights, backward_weights) = if fine_tune_epochs == 0 {
            (forward_weights, backward_weights)
        } else {
            let forward = forward_weights.to_model();
            let backward = backward_weights.to_model();
            self.train_pair(&forward, &backward, &sequences, &reversed, fine_tune_epochs);
            (forward.snapshot(), backward.snapshot())
        };
        Some(self.infer_and_export(
            &forward_weights,
            &backward_weights,
            &sequences,
            &reversed,
            map,
            mask,
            &norm,
            true,
        ))
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
    use super::*;
    use rm_geometry::Point;
    use rm_radiomap::{Fingerprint, RadioMapRecord};

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
    /// path bitwise — warm-starting is always safe to attempt.
    #[test]
    fn warm_with_unusable_snapshot_falls_back_to_cold_training() {
        let (map, mask) = smooth_map();
        let brits = Brits::new(quick_config());
        let (cold, _) = brits.impute_with_snapshot(&map, &mask);
        let foreign = vec![NamedTensor::new(
            "brits.forward.estimate.weight",
            Matrix::<f64>::filled(3, 7, 0.5),
        )];
        for warm in [&Vec::new(), &foreign] {
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

    /// The worker-side graph rebuild must not perturb the trajectory: the
    /// gradients of a `(sequence, reversed)` pair computed on replicas
    /// rebuilt from weight snapshots are bit-identical to gradients computed
    /// on the live graph. This is the property that makes the snapshot
    /// fan-out of `batch_size > 1` and the live-graph fast path of
    /// single-sequence batches two schedules of the same computation.
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
        let pairs: Vec<(&PathSequence, &PathSequence)> =
            sequences.iter().zip(reversed.iter()).collect();
        infer_mar_values(
            &forward.snapshot(),
            &backward.snapshot(),
            &pairs,
            mask,
            &norm,
            num_aps,
            1,
        )
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
