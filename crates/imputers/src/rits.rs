//! One RITS step — the recurrent unit of BRITS (Cao et al., NeurIPS 2018),
//! which is also BiSIM's encoder unit (Eq. 2–5 of the paper): estimate the
//! step's fingerprint from the previous hidden state, complement the
//! observation with it, decay the hidden state by the time lag, and run one
//! LSTM step over `[x^c; m]`. It is written once, as plain weights
//! ([`RecurrentImputerWeights`]) with one forward that records into a
//! [`RitsTape`] and one hand-written backward; BRITS and SSGAN's generator
//! train and infer on it, and BiSIM runs it as its encoder.
//!
//! The graph form (`RecurrentImputer` in the tests) is the tape's oracle:
//! at the same precision
//! the forward records its values bit for bit, and the backward hands every
//! gradient its terms in the order the graph's backward — a reverse
//! post-order of the DFS from the loss — delivers them. Which order that is
//! depends on how the loss enters the steps, so the caller names it with a
//! [`Schedule`]:
//!
//! - every step runs its LSTM step first, then its estimate and decay; the
//!   decay parameters receive their terms last, in forward order
//!   ([`Schedule::Encoder`], BiSIM: its decoder reads the last hidden
//!   state, so every step's LSTM is reached);
//! - BRITS's loss reads only the estimates, so its last LSTM step (and that
//!   step's decay) feed no loss term: the graph never reaches them, and the
//!   tape skips them (running them would only add exact zeros, so the skip
//!   saves work and changes no bit). The loss's DFS enters the forward
//!   direction through its last estimate, which reaches the whole direction
//!   at once, so it runs the encoder's order ([`Schedule::Forward`]);
//! - it enters the backward direction one estimate at a time, from the
//!   first step up, so each step's decay chain is reached from its LSTM
//!   step before the estimate is: LSTM step, decay (its parameters' terms
//!   included), then the estimate ([`Schedule::Backward`]);
//! - SSGAN's generator loss enters the direction through its last
//!   complement's estimate, as BRITS's does through its last estimate, so
//!   it runs [`Schedule::Forward`] too.
//!
//! A hidden state's gradient takes two terms (from the next estimate and
//! the next decay), an estimate's two (its loss term and its complement)
//! and a complement's two (its LSTM step and, in SSGAN, the
//! discriminator's input), and two terms sum to the same bits in either
//! order, so only the parameters' orders need the schedule. A complement's
//! `(1 − m)` share reaches its estimate once both of its terms are in, even
//! at an unreached last step. Terms that are exact zeros in the graph (the
//! first step's decay and its estimate's weight, both against a zero state)
//! are skipped: adding `±0.0` to a gradient leaves it unchanged.

// rm-lint: hot-path
// Every BRITS, SSGAN and BiSIM training step and every inference step runs
// these loops; every buffer is owned by the tape and reused.

use rand::Rng;
use rm_nn::{LinearWeights, LstmCellWeights};
use rm_tensor::recurrent::{
    lstm_backward_scratch_len, lstm_cell_backward, lstm_cell_forward, GradTerm, LstmInput,
};
use rm_tensor::{Matrix, NamedTensor, Precision, Scalar};

use crate::sequence::PathSequence;
use crate::snapshot;
use crate::train::{Gradients, Parameters};

// Indices into [`RecurrentImputerWeights::tensors`].
const ESTIMATE: usize = 0;
const DECAY: usize = 2;
const CELL: usize = 4;

/// The weights of one RITS step: the estimate (`hidden → APs`), the decay
/// (`APs → hidden`) and the LSTM cell over `[x^c; m; h]`. Plain matrices,
/// so they are `Send + Sync` and shared by every worker; generic over the
/// [`Scalar`] precision ([`RecurrentImputerWeights::cast`] rounds the `f64`
/// training weights once for the f32 inference path).
#[derive(Clone)]
pub struct RecurrentImputerWeights<T: Scalar = f64> {
    estimate: LinearWeights<T>,
    decay: LinearWeights<T>,
    cell: LstmCellWeights<T>,
}

impl RecurrentImputerWeights {
    /// Freshly initialised weights for `num_aps` APs, drawn from `rng` in
    /// the order estimate, decay, cell.
    pub fn new(num_aps: usize, hidden_size: usize, rng: &mut impl Rng) -> Self {
        Self {
            estimate: LinearWeights::new(hidden_size, num_aps, rng),
            decay: LinearWeights::new(num_aps, hidden_size, rng),
            cell: LstmCellWeights::new(num_aps * 2, hidden_size, rng),
        }
    }
}

impl<T: Scalar> RecurrentImputerWeights<T> {
    /// Assembles the step from its layers.
    pub fn from_parts(
        estimate: LinearWeights<T>,
        decay: LinearWeights<T>,
        cell: LstmCellWeights<T>,
    ) -> Self {
        Self {
            estimate,
            decay,
            cell,
        }
    }

    /// The estimate, decay and cell layers.
    pub fn parts(&self) -> (&LinearWeights<T>, &LinearWeights<T>, &LstmCellWeights<T>) {
        (&self.estimate, &self.decay, &self.cell)
    }

    /// The hidden state size.
    pub fn hidden_size(&self) -> usize {
        self.cell.hidden_size()
    }

    /// Rounds the weights to another precision (the one-time `f64 → f32`
    /// weight rounding of the f32 inference path).
    pub fn cast<U: Scalar>(&self) -> RecurrentImputerWeights<U> {
        RecurrentImputerWeights {
            estimate: self.estimate.cast(),
            decay: self.decay.cast(),
            cell: self.cell.cast(),
        }
    }

    /// Bytes the weights keep resident at precision `T`.
    pub fn resident_bytes(&self) -> usize {
        self.estimate.resident_bytes() + self.decay.resident_bytes() + self.cell.resident_bytes()
    }

    /// Runs the step over one prepared sequence, recording every
    /// intermediate into `tape`: the one forward of training and inference.
    /// `decay` selects the time-lag decay of Eq. 4 (BRITS always decays;
    /// BiSIM's ablations may not). Sequence data is stored in `f64` and
    /// rounded per step, so the kernels run entirely in `T`.
    pub fn forward(&self, seq: &PathSequence, decay: bool, tape: &mut RitsTape<T>) {
        let (len, h, a) = (seq.len(), self.hidden_size(), self.estimate.weight().rows());
        tape.reset(len, h, a, decay);
        let stride = tape.stride();
        let cell = self.cell.gate_weights();
        let tp = tape;
        for t in 0..len {
            let (done, latents) = tp.latents.split_at_mut(t * h);
            let h_prev = if t == 0 {
                &tp.zeros[..]
            } else {
                &done[(t - 1) * h..]
            };
            // Eq. 2–3: estimate, then complement observed values with it.
            let estimate = &mut tp.estimates[t * a..(t + 1) * a];
            self.estimate.affine(h_prev, estimate);
            let (earlier, cache) = tp.cache.split_at_mut(t * stride);
            let (state, x) = cache[..stride].split_at_mut(8 * h);
            let (complement, rest) = x.split_at_mut(a);
            let (mask, x_h) = rest.split_at_mut(a);
            for e in 0..a {
                let m = T::from_f64(seq.fingerprint_masks[t][e]);
                let v = T::from_f64(seq.fingerprints[t][e]);
                complement[e] = v * m + estimate[e] * (T::ONE - m);
                mask[e] = m;
            }
            tp.complements[t * a..(t + 1) * a].copy_from_slice(complement);
            // Eq. 4: γ = exp(-relu(W_γ δ + b_γ)), then h ⊙ γ.
            if decay {
                for (l, &v) in tp.lag.iter_mut().zip(&seq.time_lags[t]) {
                    *l = T::from_f64(v);
                }
                let pre = &mut tp.decay_pre[t * h..(t + 1) * h];
                self.decay.affine(&tp.lag, pre);
                let gamma = &mut tp.gamma[t * h..(t + 1) * h];
                decay_forward(pre, gamma);
                for ((x, &hv), &g) in x_h.iter_mut().zip(h_prev).zip(gamma.iter()) {
                    *x = hv * g;
                }
            } else {
                x_h.copy_from_slice(h_prev);
            }
            // Eq. 5: one LSTM step over [complement; mask; h].
            let (acts, rest) = state.split_at_mut(4 * h);
            let (c, rest) = rest.split_at_mut(h);
            let (tanh_c, rest) = rest.split_at_mut(h);
            let c_prev = &mut rest[..h];
            if t > 0 {
                let prev = &earlier[(t - 1) * stride..];
                c_prev.copy_from_slice(&prev[4 * h..5 * h]);
            }
            lstm_cell_forward(&cell, x, c_prev, acts, c, tanh_c, &mut latents[..h]);
        }
    }

    /// Adds the gradient of one recorded forward into `grads` (whose first
    /// 12 tensors are shaped like [`RecurrentImputerWeights::tensors`]) and
    /// flushes them, in the graph's order for
    /// `schedule` (see the module doc). `d_estimates` and `d_complements`
    /// (`len × APs`) hold the loss's terms for each estimate and complement,
    /// and `d_latents` (`len × hidden`) what the caller's other consumers
    /// handed each hidden state; the backward adds the step's own terms to
    /// all three as it goes, and writes the carried cell-state gradients
    /// into the tape's LSTM caches.
    pub fn backward(
        &self,
        tape: &mut RitsTape<T>,
        seq: &PathSequence,
        schedule: Schedule,
        d_estimates: &mut [T],
        d_complements: &mut [T],
        d_latents: &mut [T],
        grads: &mut Gradients<T>,
    ) {
        let (len, h, a) = (tape.len, tape.hidden, tape.aps);
        if len == 0 {
            return;
        }
        let stride = tape.stride();
        let RitsTape {
            decayed,
            cache,
            latents,
            decay_pre,
            gamma,
            lag,
            d_decay,
            d_decayed,
            product,
            fused,
            ..
        } = tape;
        let decayed = *decayed;
        for (buffer, n) in [
            (&mut *d_decay, len * h),
            (&mut *d_decayed, h),
            (&mut *product, h),
            (&mut *fused, lstm_backward_scratch_len(h, 2 * a + h)),
        ] {
            zeroed(buffer, n);
        }
        let reached = |t: usize| t + 1 < len || schedule == Schedule::Encoder;
        let cell = self.cell.gates();
        for t in (0..len).rev() {
            let (earlier, step) = cache.split_at_mut(t * stride);
            let d_complement = &mut d_complements[t * a..(t + 1) * a];
            if reached(t) {
                let (lower, upper) = d_latents.split_at_mut(t * h);
                lstm_cell_backward(
                    |q| cell[q].weight(),
                    &upper[..h],
                    &step[..stride],
                    &[0, a],
                    // The first step's `h_prev` is the zero state (decayed
                    // or not), whose terms vanish.
                    |input| match input {
                        LstmInput::Carried | LstmInput::Hidden => t > 0,
                        _ => true,
                    },
                    fused,
                    |input, term| match input {
                        LstmInput::Weight(q) => grads.add(CELL + 2 * q, term),
                        LstmInput::Bias(q) => grads.add(CELL + 2 * q + 1, term),
                        LstmInput::Carried => {
                            let prev = (t - 1) * stride;
                            term.add_to_slice(&mut earlier[prev + 7 * h..prev + 8 * h]);
                        }
                        LstmInput::Hidden if decayed => set_term(d_decayed, term),
                        LstmInput::Hidden => term.add_to_slice(&mut lower[(t - 1) * h..]),
                        LstmInput::Part(_) => term.add_to_slice(d_complement),
                    },
                );
            }
            // The complement's estimate part: `∂x̂_t += ∂x^c_t ⊙ (1 − m_t)`,
            // once every consumer of `x^c_t` has added its term.
            let mask = &step[8 * h + a..8 * h + 2 * a];
            let d = &mut d_estimates[t * a..(t + 1) * a];
            for ((d, &g), &m) in d.iter_mut().zip(d_complement.iter()).zip(mask) {
                *d += g * (T::ONE - m);
            }
            let phases = match schedule {
                Schedule::Backward => [Phase::Decay, Phase::Estimate],
                _ => [Phase::Estimate, Phase::Decay],
            };
            for phase in phases {
                match phase {
                    Phase::Estimate => {
                        // The estimate `x̂_t = W·h_{t−1} + b`.
                        let d = &d_estimates[t * a..(t + 1) * a];
                        grads.add(ESTIMATE + 1, GradTerm::Bias(d));
                        if t == 0 {
                            continue;
                        }
                        let h_prev = &latents[(t - 1) * h..t * h];
                        grads.add(ESTIMATE, GradTerm::Outer(d, h_prev));
                        let weight = self.estimate.weight();
                        weight.matmul_at_b_col_into(d, 0..h, product);
                        GradTerm::Add(product).add_to_slice(&mut d_latents[(t - 1) * h..t * h]);
                    }
                    Phase::Decay if decayed && t > 0 && reached(t) => {
                        let step = t * h..(t + 1) * h;
                        decay_backward(
                            d_decayed,
                            &latents[(t - 1) * h..t * h],
                            &gamma[step.clone()],
                            &decay_pre[step.clone()],
                            &mut d_latents[(t - 1) * h..t * h],
                            &mut d_decay[step.clone()],
                        );
                        if schedule == Schedule::Backward {
                            let d = &d_decay[step];
                            column(&seq.time_lags[t], lag);
                            grads.add(DECAY + 1, GradTerm::Bias(d));
                            grads.add(DECAY, GradTerm::Outer(d, lag));
                        }
                    }
                    Phase::Decay => {}
                }
            }
        }
        // The decay parameters, in forward order.
        if decayed && schedule != Schedule::Backward {
            for t in (1..len).filter(|&t| reached(t)) {
                let d = &d_decay[t * h..(t + 1) * h];
                grads.add(DECAY + 1, GradTerm::Bias(d));
                column(&seq.time_lags[t], lag);
                grads.add(DECAY, GradTerm::Outer(d, lag));
            }
        }
        grads.flush();
    }
}

impl<T: Scalar> Parameters<T> for RecurrentImputerWeights<T> {
    /// The 12 tensors: the estimate's and the decay's `(W, b)`, then the
    /// cell's `(W, b)` per gate in step order.
    fn tensors(&self) -> Vec<&Matrix<T>> {
        let mut out = Vec::with_capacity(12);
        for layer in [&self.estimate, &self.decay]
            .into_iter()
            .chain(self.cell.gates())
        {
            out.extend([layer.weight(), layer.bias()]);
        }
        out
    }

    fn for_each_tensor_mut(&mut self, mut f: impl FnMut(&mut Matrix<T>)) {
        let [i, fg, o, g] = self.cell.gates_mut();
        for layer in [&mut self.estimate, &mut self.decay, i, fg, o, g] {
            let (w, b) = layer.parts_mut();
            f(w);
            f(b);
        }
    }
}

/// The order in which the graph's backward reaches one RITS direction (see
/// the module doc): it depends on how the loss enters the steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// BiSIM's encoder: every step is reached; per step the LSTM step, the
    /// estimate, the decay; the decay parameters last, in forward order.
    Encoder,
    /// BRITS's forward direction: as [`Schedule::Encoder`], without the
    /// last step's LSTM step and decay.
    Forward,
    /// BRITS's backward direction: without the last step's LSTM step and
    /// decay; per step the LSTM step, the decay with its parameters, the
    /// estimate.
    Backward,
}

/// The steps of one backward step after its LSTM step.
#[derive(Clone, Copy)]
enum Phase {
    Estimate,
    Decay,
}

/// What one RITS forward recorded — every intermediate the backward reads,
/// in flat step-major buffers — plus the backward's scratch, all reused
/// from sequence to sequence, so a warm tape allocates nothing.
#[derive(Default)]
pub struct RitsTape<T: Scalar = f64> {
    len: usize,
    hidden: usize,
    aps: usize,
    /// Whether the forward decayed the hidden state (Eq. 4).
    decayed: bool,
    /// `len × aps`: the estimates `x̂_t` and complements `x^c_t`.
    estimates: Vec<T>,
    complements: Vec<T>,
    /// `len × hidden`: the decay's pre-activation and `γ_t`.
    decay_pre: Vec<T>,
    gamma: Vec<T>,
    /// `len ×` [`RitsTape::stride`]: each LSTM step's cache.
    cache: Vec<T>,
    /// `len × hidden`: the hidden states `h_t`.
    latents: Vec<T>,
    /// `hidden` zeros (the initial state) and one lag column.
    zeros: Vec<T>,
    lag: Vec<T>,
    /// The backward's scratch: `len × hidden` decay pre-activation
    /// gradients, one step's decayed-state gradient, one `Wᵀ·g` product and
    /// the fused LSTM backward's scratch.
    d_decay: Vec<T>,
    d_decayed: Vec<T>,
    product: Vec<T>,
    fused: Vec<T>,
}

impl<T: Scalar> RitsTape<T> {
    /// An empty tape; the first forward sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The estimates `x̂_0 … x̂_{T−1}`, step-major.
    pub fn estimates(&self) -> &[T] {
        &self.estimates
    }

    /// The estimate `x̂_t`.
    pub fn estimate(&self, t: usize) -> &[T] {
        &self.estimates[t * self.aps..(t + 1) * self.aps]
    }

    /// The complemented vector `x^c_t` (the imputation).
    pub fn complement(&self, t: usize) -> &[T] {
        &self.complements[t * self.aps..(t + 1) * self.aps]
    }

    /// The mask `m_t` as the step recorded it.
    pub fn mask(&self, t: usize) -> &[T] {
        let start = t * self.stride() + 8 * self.hidden + self.aps;
        &self.cache[start..start + self.aps]
    }

    /// The hidden states `h_0 … h_{T−1}`, step-major.
    pub fn latents(&self) -> &[T] {
        &self.latents
    }

    /// Entries per LSTM cache: `[i f o g | c | tanh c | c_prev | dc]` (`8·H`)
    /// and the input `[x^c; m; h]`.
    fn stride(&self) -> usize {
        8 * self.hidden + 2 * self.aps + self.hidden
    }

    /// Sizes every record for `len` steps and zeroes it, so nothing of an
    /// earlier sequence survives into this one.
    fn reset(&mut self, len: usize, hidden: usize, aps: usize, decayed: bool) {
        (self.len, self.hidden, self.aps, self.decayed) = (len, hidden, aps, decayed);
        let stride = self.stride();
        for (buffer, n) in [
            (&mut self.estimates, len * aps),
            (&mut self.complements, len * aps),
            (&mut self.decay_pre, len * hidden),
            (&mut self.gamma, len * hidden),
            (&mut self.cache, len * stride),
            (&mut self.latents, len * hidden),
            (&mut self.zeros, hidden),
            (&mut self.lag, aps),
        ] {
            zeroed(buffer, n);
        }
    }
}

/// `γ = exp(−relu(pre))`, as `relu → scale(−1) → exp`, the `exp` as one
/// slice.
pub fn decay_forward<T: Scalar>(pre: &[T], gamma: &mut [T]) {
    assert_eq!(pre.len(), gamma.len(), "decay buffer length mismatch");
    for (g, &p) in gamma.iter_mut().zip(pre) {
        *g = p.relu() * -T::ONE;
    }
    T::exp_slice(gamma);
}

/// The backward of a decayed state `x ⊙ γ` with `γ = exp(−relu(pre))`, for
/// the gradient `g` of the product: `x`'s term `g ⊙ γ` into `x_grad`, and
/// the pre-activation's gradient through `exp`, `scale(−1)` and `relu` into
/// `d_pre`.
pub fn decay_backward<T: Scalar>(
    g: &[T],
    x: &[T],
    gamma: &[T],
    pre: &[T],
    x_grad: &mut [T],
    d_pre: &mut [T],
) {
    for e in 0..g.len() {
        x_grad[e] += g[e] * gamma[e];
        let step = if pre[e] > T::ZERO { T::ONE } else { T::ZERO };
        d_pre[e] = (((g[e] * x[e]) * gamma[e]) * -T::ONE) * step;
    }
}

/// One masked-MSE term `mean((p⊙m − q⊙m)²)` of a loss that scales its sum
/// by `scale`: returns the term and adds the gradient it hands `p`,
/// `(scale/n · 2(p⊙m − q⊙m)) ⊙ m` over its `n` entries, into `dp` — and its
/// negation into `dq` when `q` is a prediction too.
pub fn masked_mse<T: Scalar>(
    p: &[T],
    q: &[T],
    mask: &[T],
    scale: T,
    dp: &mut [T],
    mut dq: Option<&mut [T]>,
) -> T {
    let n = T::from_f64(p.len() as f64);
    let g = scale / n;
    let mut sum = T::ZERO;
    for e in 0..p.len() {
        let v = p[e] * mask[e] - q[e] * mask[e];
        sum += v * v;
        let dv = g * (v * T::from_f64(2.0));
        dp[e] += dv * mask[e];
        if let Some(dq) = dq.as_deref_mut() {
            dq[e] += (dv * -T::ONE) * mask[e];
        }
    }
    sum / n
}

/// `d = +0.0 + term`: a single-consumer gradient.
pub fn set_term<T: Scalar>(d: &mut [T], term: GradTerm<'_, T>) {
    d.fill(T::ZERO);
    term.add_to_slice(d);
}

/// Resizes `v` to `n` zeros.
pub fn zeroed<T: Scalar>(v: &mut Vec<T>, n: usize) {
    v.clear();
    v.resize(n, T::ZERO);
}

/// Rounds an `f64` column to `T` into `out`.
pub fn column<T: Scalar>(values: &[f64], out: &mut Vec<T>) {
    out.clear();
    out.extend(values.iter().map(|&v| T::from_f64(v)));
}

/// Exports one step's weights under `{prefix}.estimate`, `{prefix}.decay`
/// and `{prefix}.cell.*` via the shared [`crate::snapshot`] helpers, at the
/// precision the inference path keeps resident.
pub fn export_recurrent(
    prefix: &str,
    weights: &RecurrentImputerWeights,
    precision: Precision,
    tensors: &mut Vec<NamedTensor>,
) {
    for (name, layer) in [("estimate", &weights.estimate), ("decay", &weights.decay)] {
        snapshot::export_linear(&format!("{prefix}.{name}"), layer, precision, tensors);
    }
    snapshot::export_lstm_cell(prefix, &weights.cell, precision, tensors);
}

/// Rebuilds one step's weights from the tensors exported by
/// [`export_recurrent`] under `prefix`, validating every shape against a
/// `num_aps`-AP map. Returns `None` — the caller then falls back to cold
/// training — when a tensor is missing or the snapshot was trained for a
/// different map shape.
pub fn import_recurrent(
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
    Some(RecurrentImputerWeights::from_parts(estimate, decay, cell))
}
