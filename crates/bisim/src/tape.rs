//! BiSIM's training tape (Section IV-D): one recorded forward per direction
//! and a hand-written backward, in place of an autodiff graph per sequence
//! pair.
//!
//! The forward is the snapshot forward ([`BisimDirectionWeights::forward`],
//! which inference runs too), recording what the backward reads into a
//! [`DirectionTape`]: the encoder's RITS record ([`RitsTape`]: estimates,
//! complements, decay inputs and `γ`, each LSTM step's cache and the
//! latents), the transformed keys `h''` and the decoder's RP estimates,
//! complements, decay inputs, LSTM caches, states, and each attention step's
//! hidden activations and softmax weights. [`PairTape::differentiate`] then
//! evaluates the pair's loss and adds its gradient into plain
//! [`DirectionGrads`] buffers.
//!
//! The result is bitwise the gradient of the graph oracle
//! (`sequence_loss` in the tests). Every fused step's backward is the one
//! [`rm_tensor::recurrent`] definition the graph nodes call, the encoder's
//! is the one RITS backward
//! ([`rm_imputers::RecurrentImputerWeights::backward`]), and
//! every shared gradient — each parameter, each `h_t`, each decoder state
//! `s_j` and each key `h''_i` — receives its terms in the order the graph's
//! backward, a reverse post-order of the DFS from the loss, delivers them:
//!
//! - the decoder runs first, step `j = T − 1` down to `0`; only `DE_{T−1}`
//!   (the last RP estimate) at `j = T − 1`, since the last decoder step and
//!   its attention feed nothing the loss reads (the forward skips them
//!   too);
//! - at each `j < T − 1`: the LSTM step, then — in the direction the loss
//!   reads first, the forward one — the RP estimate, the attention and the
//!   decoder decay; in the backward direction the attention, the decay and
//!   then the estimate, whose RP complement's term arrives before the loss
//!   terms;
//! - the keys' transform, key by key in forward order, runs right after
//!   the first decoder step's attention;
//! - the encoder runs step `t = T − 1` down to `0` in
//!   [`Schedule::Encoder`]'s order: the LSTM step, the fingerprint
//!   estimate, the decay;
//! - the decay parameters receive their terms last, in forward order
//!   (the forward direction's decoder decay after the encoder's; the
//!   backward direction's decoder decay instead at each of its steps).
//!
//! Terms that are exact zeros in the graph (the first encoder step's decay
//! and its estimate's weight, both against a zero state) are skipped: adding
//! `±0.0` to a gradient leaves it unchanged.

// rm-lint: hot-path
// Every BiSIM training step runs through these loops; every buffer is owned
// by the tape and reused from pair to pair.

use rm_imputers::rits::{column, decay_backward, decay_forward, masked_mse, set_term, zeroed};
use rm_imputers::{PathSequence, RitsTape, Schedule};
use rm_tensor::recurrent::{
    attention_backward, attention_backward_scratch_len, attention_forward,
    lstm_backward_scratch_len, lstm_cell_backward, lstm_cell_forward, AttentionInput, GradTerm,
    LstmInput,
};
use rm_tensor::Scalar;
// The oracle tests perturb weights through the trainer's view of them.
#[cfg(test)]
use rm_imputers::Parameters;

use crate::model::{rp_time_lag, AttentionMode, BisimDirectionWeights, TimeLagMode};

/// One direction's gradient buffers: the shared trainer's [`rm_imputers::Gradients`].
pub use rm_imputers::Gradients as DirectionGrads;

// Indices into [`rm_imputers::Parameters::tensors`] of a direction: the
// encoder's 12 tensors come first.
const DECODER_ESTIMATE: usize = 12;
const DECODER_DECAY: usize = 14;
const DECODER_CELL: usize = 16;
const TRANSFORM: usize = 24;
const ALIGN: usize = 26;

/// What one directional forward recorded: the encoder's RITS record and
/// every decoder intermediate the backward reads, in flat step-major
/// buffers that the next forward reuses.
#[derive(Default)]
pub struct DirectionTape<T: Scalar = f64> {
    len: usize,
    hidden: usize,
    aps: usize,
    /// The encoder's record (Eq. 2–5).
    encoder: RitsTape<T>,
    /// `len × aps`: the transformed (masked) latents `h''_t`.
    keys: Vec<T>,
    /// `len × 2`: the RP estimates `l′_j`, complements and time lags.
    rp_estimates: Vec<T>,
    rp_complements: Vec<T>,
    rp_lags: Vec<T>,
    /// `len × hidden`: the decoder decay's pre-activation and `γ_j`.
    dec_decay: Vec<T>,
    dec_gamma: Vec<T>,
    /// `len ×` [`DirectionTape::decoder_stride`]: each decoder LSTM step's
    /// cache; its input holds `[l^c_j; c_j; s]`.
    dec_cache: Vec<T>,
    /// `len × hidden`: the decoder states `s_j`.
    states: Vec<T>,
    /// `len × len × hidden` and `len × len`: each decoder step's attention
    /// activations and softmax weights.
    attn_hidden: Vec<T>,
    attn_weights: Vec<T>,
    /// `hidden + aps`: the attention's joint column `[s; h''_i]`, scratch.
    attn_joint: Vec<T>,
}

impl<T: Scalar> DirectionTape<T> {
    /// An empty tape; the first forward sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The complemented fingerprint `f^c_t`.
    pub fn fingerprint_complement(&self, t: usize) -> &[T] {
        self.encoder.complement(t)
    }

    /// The complemented RP `l^c_j`.
    pub fn rp_complement(&self, j: usize) -> &[T] {
        &self.rp_complements[2 * j..2 * j + 2]
    }

    /// Entries per decoder LSTM cache: `8·H` state plus the input `[l^c;
    /// c; s]`.
    fn decoder_stride(&self) -> usize {
        8 * self.hidden + 2 + self.aps + self.hidden
    }

    /// Sizes every decoder buffer for `len` steps and zeroes it, so nothing
    /// of an earlier sequence survives into this one.
    fn reset(&mut self, len: usize, hidden: usize, aps: usize) {
        (self.len, self.hidden, self.aps) = (len, hidden, aps);
        let dec = self.decoder_stride();
        for (buffer, n) in [
            (&mut self.keys, len * aps),
            (&mut self.rp_estimates, 2 * len),
            (&mut self.rp_complements, 2 * len),
            (&mut self.rp_lags, 2 * len),
            (&mut self.dec_decay, len * hidden),
            (&mut self.dec_gamma, len * hidden),
            (&mut self.dec_cache, len * dec),
            (&mut self.states, len * hidden),
            (&mut self.attn_hidden, len * len * hidden),
            (&mut self.attn_weights, len * len),
            (&mut self.attn_joint, hidden + aps),
        ] {
            zeroed(buffer, n);
        }
    }
}

impl<T: Scalar> BisimDirectionWeights<T> {
    /// Runs the encoder–decoder over one prepared sequence (Eq. 2–12),
    /// recording every intermediate into `tape`: the one forward of both
    /// training and inference. It performs the operations of the graph pass
    /// (`BisimDirection::run` in the tests) in the same order — the same
    /// complements, decay chain and fused steps, whose forwards are
    /// [`rm_tensor::recurrent`]'s — so at the same precision every
    /// recorded value is bit-identical to the graph's. It stops after the
    /// last RP complement: the last decoder step's attention and LSTM step
    /// feed no output, so their records stay zero. Sequence data is
    /// stored in `f64` and rounded per step, so the kernels run entirely in
    /// `T`.
    pub fn forward(&self, seq: &PathSequence, tape: &mut DirectionTape<T>) {
        let (len, h, a) = (seq.len(), self.hidden_size, self.num_aps);
        // ---------------- Encoder stack (Eq. 2–5) ----------------
        let encoder_lag = matches!(self.time_lag, TimeLagMode::Encoder | TimeLagMode::Both);
        self.encoder.forward(seq, encoder_lag, &mut tape.encoder);
        tape.reset(len, h, a);
        let ds = tape.decoder_stride();
        let decoder_lag = matches!(self.time_lag, TimeLagMode::Decoder | TimeLagMode::Both);
        let tp = tape;
        let latents = tp.encoder.latents();

        // The (possibly masked) transformed latents h''_t (Eq. 9).
        if self.attention != AttentionMode::None {
            for t in 0..len {
                let key = &mut tp.keys[t * a..(t + 1) * a];
                self.attention_transform
                    .affine(&latents[t * h..(t + 1) * h], key);
                if self.attention == AttentionMode::SparsityFriendly {
                    for (k, &m) in key.iter_mut().zip(&seq.fingerprint_masks[t]) {
                        *k *= T::from_f64(m);
                    }
                }
            }
        }

        // -------- Decoder stack with attention (Eq. 6–12) --------
        // s_0 = h_T, with a zero cell state.
        let cell = self.decoder_cell.gate_weights();
        let [hidden_layer, energy] = self.attention_align.layers() else {
            unreachable!("the alignment MLP has one hidden layer");
        };
        let align = [
            hidden_layer.weight(),
            hidden_layer.bias(),
            energy.weight(),
            energy.bias(),
        ];
        let mut lag = [0.0; 2];
        for j in 0..len {
            let (done, states) = tp.states.split_at_mut(j * h);
            let s_prev = if j == 0 {
                &latents[(len - 1) * h..]
            } else {
                &done[(j - 1) * h..]
            };
            // Eq. 6–7: estimate the RP, then complement.
            let estimate = &mut tp.rp_estimates[2 * j..2 * j + 2];
            self.decoder_estimate.affine(s_prev, estimate);
            let (earlier, cache) = tp.dec_cache.split_at_mut(j * ds);
            let (state, x) = cache[..ds].split_at_mut(8 * h);
            let (complement, rest) = x.split_at_mut(2);
            let (context, x_s) = rest.split_at_mut(a);
            let m = T::from_f64(seq.rp_masks[j]);
            let rp = [T::from_f64(seq.rps[j].0), T::from_f64(seq.rps[j].1)];
            for e in 0..2 {
                complement[e] = rp[e] * m + estimate[e] * (T::ONE - m);
            }
            tp.rp_complements[2 * j..2 * j + 2].copy_from_slice(complement);
            // The last step's attention and LSTM step feed nothing that the
            // loss, the backward or inference reads.
            if j + 1 == len {
                break;
            }
            // Attention (Eq. 10–12): the context vector from the keys.
            if self.attention != AttentionMode::None {
                attention_forward(
                    &align,
                    s_prev,
                    |i| &tp.keys[i * a..(i + 1) * a],
                    &mut tp.attn_joint,
                    &mut tp.attn_hidden[j * len * h..(j + 1) * len * h],
                    &mut tp.attn_weights[j * len..(j + 1) * len],
                    context,
                );
            }
            // Optional decoder-side time decay (ablation only).
            if decoder_lag {
                lag = rp_time_lag(seq, j, lag);
                let column = &mut tp.rp_lags[2 * j..2 * j + 2];
                column[0] = T::from_f64(lag[0]);
                column[1] = T::from_f64(lag[1]);
                let pre = &mut tp.dec_decay[j * h..(j + 1) * h];
                self.decoder_decay.affine(column, pre);
                let gamma = &mut tp.dec_gamma[j * h..(j + 1) * h];
                decay_forward(pre, gamma);
                for ((x, &sv), &g) in x_s.iter_mut().zip(s_prev).zip(gamma.iter()) {
                    *x = sv * g;
                }
            } else {
                x_s.copy_from_slice(s_prev);
            }
            // Eq. 8: one LSTM step over [complement; context; s].
            let (acts, rest) = state.split_at_mut(4 * h);
            let (c, rest) = rest.split_at_mut(h);
            let (tanh_c, rest) = rest.split_at_mut(h);
            let c_prev = &mut rest[..h];
            if j > 0 {
                let prev = &earlier[(j - 1) * ds..];
                c_prev.copy_from_slice(&prev[4 * h..5 * h]);
            }
            lstm_cell_forward(&cell, x, c_prev, acts, c, tanh_c, &mut states[..h]);
        }
    }
}

/// The order in which the graph's backward reaches one direction's decoder:
/// it differs between the directions because the loss's DFS enters them
/// differently (see the module doc).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Forward,
    Backward,
}

/// One direction's loss terms: for each step, the masked-MSE term and the
/// cross-consistency term each estimate receives (`len × aps` for the
/// fingerprints, `len × 2` for the RPs).
#[derive(Default)]
struct LossTerms<T> {
    fp_mse: Vec<T>,
    fp_cross: Vec<T>,
    rp_mse: Vec<T>,
    rp_cross: Vec<T>,
}

/// One direction's backward scratch, reused from pair to pair.
#[derive(Default)]
struct Scratch<T> {
    /// `len × hidden`: `∂h_t` and `∂s_j`.
    d_latents: Vec<T>,
    d_states: Vec<T>,
    /// `len × aps` and `len × 2`: the estimates' gradients, and `len × aps`:
    /// the fingerprint complements'.
    d_fp: Vec<T>,
    d_rp: Vec<T>,
    d_fp_complements: Vec<T>,
    /// `len × aps`: the keys' gradients.
    d_keys: Vec<T>,
    /// `len × hidden`: each decoder decay's pre-activation gradient.
    d_dec_decay: Vec<T>,
    /// One decoder step's input-part gradients: the context, the decayed
    /// state.
    d_context: Vec<T>,
    d_decayed: Vec<T>,
    /// `Wᵀ·g` products and the fused backwards' scratch.
    product: Vec<T>,
    fused: Vec<T>,
}

/// One sequence pair's training tape: both directions' records, the loss
/// terms and the backward scratch, all reused from pair to pair, so a warm
/// [`PairTape::differentiate`] allocates nothing.
#[derive(Default)]
pub struct PairTape<T: Scalar = f64> {
    forward: DirectionTape<T>,
    backward: DirectionTape<T>,
    terms: [LossTerms<T>; 2],
    /// One target column, rounded to `T`.
    target: Vec<T>,
    scratch: Scratch<T>,
}

impl<T: Scalar> PairTape<T> {
    /// An empty tape; the first pair sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs both directions over one `(sequence, reversed)` pair, evaluates
    /// the Section IV-D loss `L_forward + L_backward + L_cross` and adds its
    /// gradient into `grads` (forward direction first), returning the loss.
    /// Bitwise the value and gradients of the graph oracle
    /// (`sequence_loss(..).backward()`) on zeroed gradients.
    pub fn differentiate(
        &mut self,
        weights: [&BisimDirectionWeights<T>; 2],
        seq: &PathSequence,
        rev: &PathSequence,
        grads: [&mut DirectionGrads<T>; 2],
    ) -> T {
        let [forward, backward] = weights;
        forward.forward(seq, &mut self.forward);
        backward.forward(rev, &mut self.backward);
        let loss = self.loss(seq, rev);
        let [forward_grads, backward_grads] = grads;
        self.scratch.backward(
            forward,
            &mut self.forward,
            seq,
            Role::Forward,
            &self.terms[0],
            forward_grads,
        );
        self.scratch.backward(
            backward,
            &mut self.backward,
            rev,
            Role::Backward,
            &self.terms[1],
            backward_grads,
        );
        loss
    }

    /// The loss of the graph oracle's `sequence_loss` and the terms its backward hands
    /// each estimate. Per record `t` (step `rt = T − 1 − t` of the reversed
    /// sequence) the graph adds six masked MSEs, each `mean((p⊙m − q⊙m)²)`,
    /// to a running total from `+0.0`, and scales the sum by `s = 1/T`; the
    /// gradient each term hands its prediction is `(s/n · 2(p⊙m − q⊙m)) ⊙
    /// m` over its `n` entries, negated for the second operand of a cross
    /// term.
    fn loss(&mut self, seq: &PathSequence, rev: &PathSequence) -> T {
        let (len, a) = (seq.len(), self.forward.aps);
        for terms in &mut self.terms {
            zeroed(&mut terms.fp_mse, len * a);
            zeroed(&mut terms.fp_cross, len * a);
            zeroed(&mut terms.rp_mse, 2 * len);
            zeroed(&mut terms.rp_cross, 2 * len);
        }
        let scale = T::from_f64(1.0 / len.max(1) as f64);
        let mse = |p: &[T], q: &[T], mask: &[T], dp: &mut [T], dq: Option<&mut [T]>| {
            masked_mse(p, q, mask, scale, dp, dq)
        };
        let (fwd, bwd) = (&self.forward, &self.backward);
        let [f, b] = &mut self.terms;
        let target = &mut self.target;
        let mut total = T::ZERO;
        for t in 0..len {
            let rt = len - 1 - t;
            let (fp, rp) = (t * a..(t + 1) * a, 2 * t..2 * t + 2);
            let (fp_b, rp_b) = (rt * a..(rt + 1) * a, 2 * rt..2 * rt + 2);
            let fp_mask = fwd.encoder.mask(t);
            let rp_mask = [T::from_f64(seq.rp_masks[t]); 2];
            let rp_target = [T::from_f64(seq.rps[t].0), T::from_f64(seq.rps[t].1)];
            let fp_mask_b = bwd.encoder.mask(rt);
            let rp_mask_b = [T::from_f64(rev.rp_masks[rt]); 2];
            let rp_target_b = [T::from_f64(rev.rps[rt].0), T::from_f64(rev.rps[rt].1)];

            // Forward reconstruction.
            column(&seq.fingerprints[t], target);
            let fp_est = fwd.encoder.estimate(t);
            total += mse(fp_est, target, fp_mask, &mut f.fp_mse[fp.clone()], None);
            let rp_est = &fwd.rp_estimates[rp.clone()];
            total += mse(
                rp_est,
                &rp_target,
                &rp_mask,
                &mut f.rp_mse[rp.clone()],
                None,
            );
            // Backward reconstruction (the reversed sequence's step rt is
            // record t).
            column(&rev.fingerprints[rt], target);
            let fp_est_b = bwd.encoder.estimate(rt);
            let dp = &mut b.fp_mse[fp_b.clone()];
            total += mse(fp_est_b, target, fp_mask_b, dp, None);
            let rp_est_b = &bwd.rp_estimates[rp_b.clone()];
            let dp = &mut b.rp_mse[rp_b.clone()];
            total += mse(rp_est_b, &rp_target_b, &rp_mask_b, dp, None);
            // Cross consistency between the two directions at record t.
            let (dp, dq) = (&mut f.fp_cross[fp], &mut b.fp_cross[fp_b]);
            total += mse(fp_est, fp_est_b, fp_mask, dp, Some(dq));
            let (dp, dq) = (&mut f.rp_cross[rp], &mut b.rp_cross[rp_b]);
            total += mse(rp_est, rp_est_b, &rp_mask, dp, Some(dq));
        }
        total * scale
    }
}

impl<T: Scalar> Scratch<T> {
    /// Adds one direction's gradient into `grads`, given its record `tp`,
    /// its sequence and its loss terms, in the graph's order for `role`
    /// (see the module doc). Writes the carried cell-state gradients into
    /// the record's LSTM caches.
    fn backward(
        &mut self,
        w: &BisimDirectionWeights<T>,
        tp: &mut DirectionTape<T>,
        seq: &PathSequence,
        role: Role,
        terms: &LossTerms<T>,
        grads: &mut DirectionGrads<T>,
    ) {
        let (len, h, a) = (tp.len, tp.hidden, tp.aps);
        if len == 0 {
            return;
        }
        let ds = tp.decoder_stride();
        let attention = w.attention != AttentionMode::None;
        let decoder_lag = matches!(w.time_lag, TimeLagMode::Decoder | TimeLagMode::Both);
        let Scratch {
            d_latents,
            d_states,
            d_fp,
            d_rp,
            d_fp_complements,
            d_keys,
            d_dec_decay,
            d_context,
            d_decayed,
            product,
            fused,
        } = self;
        for (buffer, n) in [
            (&mut *d_latents, len * h),
            (&mut *d_states, len * h),
            (&mut *d_fp, len * a),
            (&mut *d_rp, 2 * len),
            (&mut *d_fp_complements, len * a),
            (&mut *d_keys, len * a),
            (&mut *d_dec_decay, len * h),
            (&mut *d_context, a),
            (&mut *d_decayed, h),
            (&mut *product, h),
            (
                &mut *fused,
                lstm_backward_scratch_len(h, 2 + a + h)
                    .max(attention_backward_scratch_len(len, h, a)),
            ),
        ] {
            zeroed(buffer, n);
        }
        // Each estimate's loss terms: the MSE's, then the cross term's.
        let seed = |d: &mut [T], mse: &[T], cross: &[T]| {
            for ((d, &m), &c) in d.iter_mut().zip(mse).zip(cross) {
                *d += m;
                *d += c;
            }
        };
        seed(d_fp, &terms.fp_mse, &terms.fp_cross);
        if role == Role::Forward {
            seed(d_rp, &terms.rp_mse, &terms.rp_cross);
        }
        let [align_hidden, align_energy] = w.attention_align.layers() else {
            unreachable!("the alignment MLP has one hidden layer");
        };
        let last = len - 1;
        let latents = tp.encoder.latents();
        // `s_{j−1}`, with `s_{−1} = h_{T−1}`.
        let state = |j: usize| {
            if j == 0 {
                &latents[last * h..]
            } else {
                &tp.states[(j - 1) * h..j * h]
            }
        };

        // ---------------- Decoder, j = T − 1 down to 0 ----------------
        for j in (0..len).rev() {
            if j < last {
                // The LSTM step `s_j`.
                let (earlier, cache) = tp.dec_cache.split_at_mut(j * ds);
                let (lower, upper) = d_states.split_at_mut(j * h);
                let s_grad: &mut [T] = if j == 0 {
                    &mut d_latents[last * h..]
                } else {
                    &mut lower[(j - 1) * h..]
                };
                let mut d_rp_complement = [T::ZERO; 2];
                let cell = w.decoder_cell.gates();
                lstm_cell_backward(
                    |q| cell[q].weight(),
                    &upper[..h],
                    &cache[..ds],
                    &[0, 2, 2, a],
                    |input| match input {
                        LstmInput::Carried => j > 0,
                        LstmInput::Part(1) => attention,
                        _ => true,
                    },
                    fused,
                    |input, term| match input {
                        LstmInput::Weight(q) => grads.add(DECODER_CELL + 2 * q, term),
                        LstmInput::Bias(q) => grads.add(DECODER_CELL + 2 * q + 1, term),
                        LstmInput::Carried => {
                            let prev = (j - 1) * ds;
                            term.add_to_slice(&mut earlier[prev + 7 * h..prev + 8 * h]);
                        }
                        LstmInput::Hidden if decoder_lag => set_term(d_decayed, term),
                        LstmInput::Hidden => term.add_to_slice(s_grad),
                        LstmInput::Part(0) => set_term(&mut d_rp_complement, term),
                        LstmInput::Part(_) => set_term(d_context, term),
                    },
                );
                // The complement's estimate part: `∂l′_j += ∂l^c_j ⊙ (1 − k_j)`.
                let inverse = T::ONE - T::from_f64(seq.rp_masks[j]);
                for (d, &g) in d_rp[2 * j..2 * j + 2].iter_mut().zip(&d_rp_complement) {
                    *d += g * inverse;
                }
            }
            let s = state(j);
            let phases = match role {
                Role::Forward => [Phase::Estimate, Phase::Attention, Phase::Decay],
                Role::Backward => [Phase::Attention, Phase::Decay, Phase::Estimate],
            };
            for phase in phases {
                let s_grad = if j == 0 {
                    &mut d_latents[last * h..]
                } else {
                    &mut d_states[(j - 1) * h..j * h]
                };
                match phase {
                    Phase::Estimate => {
                        // The RP estimate `l′_j = W·s_{j−1} + b`.
                        let d = &mut d_rp[2 * j..2 * j + 2];
                        if role == Role::Backward {
                            seed(d, &terms.rp_mse[2 * j..], &terms.rp_cross[2 * j..]);
                        }
                        grads.add(DECODER_ESTIMATE + 1, GradTerm::Bias(d));
                        grads.add(DECODER_ESTIMATE, GradTerm::Outer(d, s));
                        let weight = w.decoder_estimate.weight();
                        weight.matmul_at_b_col_into(d, 0..h, product);
                        GradTerm::Add(product).add_to_slice(s_grad);
                    }
                    Phase::Attention if attention && j < last => {
                        attention_backward(
                            |input| match input {
                                AttentionInput::W1 => align_hidden.weight(),
                                _ => align_energy.weight(),
                            },
                            s,
                            |i| &tp.keys[i * a..(i + 1) * a],
                            &tp.attn_hidden[j * len * h..(j + 1) * len * h],
                            &tp.attn_weights[j * len..(j + 1) * len],
                            d_context,
                            |_| true,
                            fused,
                            |input, term| match input {
                                AttentionInput::Key(i) => {
                                    term.add_to_slice(&mut d_keys[i * a..(i + 1) * a]);
                                }
                                AttentionInput::State => term.add_to_slice(s_grad),
                                AttentionInput::W1 => grads.add(ALIGN, term),
                                AttentionInput::B1 => grads.add(ALIGN + 1, term),
                                AttentionInput::W2 => grads.add(ALIGN + 2, term),
                                AttentionInput::B2 => grads.add(ALIGN + 3, term),
                            },
                        );
                        if j > 0 {
                            continue;
                        }
                        // The keys `h''_i = (W·h_i + b) ⊙ m_i`, in forward
                        // order, once every attention step has added in.
                        for i in 0..len {
                            let d_key = &mut d_keys[i * a..(i + 1) * a];
                            if w.attention == AttentionMode::SparsityFriendly {
                                for (d, &m) in d_key.iter_mut().zip(tp.encoder.mask(i)) {
                                    *d *= m;
                                }
                            }
                            grads.add(TRANSFORM + 1, GradTerm::Bias(d_key));
                            let h_i = &latents[i * h..(i + 1) * h];
                            grads.add(TRANSFORM, GradTerm::Outer(d_key, h_i));
                            let weight = w.attention_transform.weight();
                            weight.matmul_at_b_col_into(d_key, 0..h, product);
                            GradTerm::Add(product).add_to_slice(&mut d_latents[i * h..(i + 1) * h]);
                        }
                    }
                    Phase::Decay if decoder_lag && j < last => {
                        // `s_{j−1} ⊙ γ_j`, then the decay chain.
                        let gamma = &tp.dec_gamma[j * h..(j + 1) * h];
                        decay_backward(
                            d_decayed,
                            s,
                            gamma,
                            &tp.dec_decay[j * h..(j + 1) * h],
                            s_grad,
                            &mut d_dec_decay[j * h..(j + 1) * h],
                        );
                        if role == Role::Backward {
                            let d = &d_dec_decay[j * h..(j + 1) * h];
                            grads.add(DECODER_DECAY + 1, GradTerm::Bias(d));
                            let lag = &tp.rp_lags[2 * j..2 * j + 2];
                            grads.add(DECODER_DECAY, GradTerm::Outer(d, lag));
                        }
                    }
                    _ => {}
                }
            }
        }

        // ---- The encoder, t = T − 1 down to 0, then its decay parameters ----
        // The encoder's 12 tensors are the direction's first 12.
        let schedule = Schedule::Encoder;
        let d_complements = d_fp_complements;
        w.encoder.backward(
            &mut tp.encoder,
            seq,
            schedule,
            d_fp,
            d_complements,
            d_latents,
            grads,
        );

        // ---------------- The decoder decay parameters, in forward order ----------------
        if decoder_lag && role == Role::Forward {
            for j in 0..last {
                let d = &d_dec_decay[j * h..(j + 1) * h];
                grads.add(DECODER_DECAY + 1, GradTerm::Bias(d));
                grads.add(
                    DECODER_DECAY,
                    GradTerm::Outer(d, &tp.rp_lags[2 * j..2 * j + 2]),
                );
            }
        }
        grads.flush();
    }
}

/// The steps of one decoder step's backward after its LSTM step, whose
/// order depends on the direction's [`Role`].
#[derive(Clone, Copy)]
enum Phase {
    Estimate,
    Attention,
    Decay,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::pair_backward;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Which reference points a test sequence observes.
    #[derive(Clone, Copy, Debug)]
    enum Rps {
        Mixed,
        AllMissing,
        AllPresent,
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
    /// entries, masks of both kinds and growing time lags.
    fn sequence(len: usize, aps: usize, salt: usize, rps: Rps) -> PathSequence {
        let observed = |t: usize| match rps {
            Rps::Mixed => (t + salt) % 3 != 1,
            Rps::AllMissing => false,
            Rps::AllPresent => true,
        };
        PathSequence {
            record_indices: (0..len).collect(),
            times: (0..len).map(|t| (t * 3 + salt % 2) as f64).collect(),
            fingerprints: (0..len)
                .map(|t| (0..aps).map(|e| value(t * aps + e + salt)).collect())
                .collect(),
            fingerprint_masks: (0..len)
                .map(|t| {
                    (0..aps)
                        .map(|e| f64::from(!(t + e * 2 + salt).is_multiple_of(4)))
                        .collect()
                })
                .collect(),
            time_lags: (0..len)
                .map(|t| (0..aps).map(|e| (t * (e % 3 + 1)) as f64 * 0.05).collect())
                .collect(),
            rps: (0..len)
                .map(|t| {
                    if observed(t) {
                        (value(t + salt + 3), value(t * 5 + salt))
                    } else {
                        (0.0, 0.0)
                    }
                })
                .collect(),
            rp_masks: (0..len).map(|t| f64::from(observed(t))).collect(),
        }
    }

    /// Freshly drawn weights with every tensor shifted off its initial
    /// value (the biases start at zero), so no gradient term is trivially
    /// zero.
    fn weights(
        aps: usize,
        hidden: usize,
        attention: AttentionMode,
        time_lag: TimeLagMode,
        rng: &mut StdRng,
    ) -> BisimDirectionWeights {
        let mut w = BisimDirectionWeights::new(aps, hidden, attention, time_lag, rng);
        let mut k = 0;
        w.for_each_tensor_mut(|m| {
            for v in m.data_mut() {
                k += 1;
                *v += 0.3 * value(k + 2);
            }
        });
        w
    }

    const ATTENTION: [AttentionMode; 3] = [
        AttentionMode::SparsityFriendly,
        AttentionMode::Standard,
        AttentionMode::None,
    ];
    const TIME_LAG: [TimeLagMode; 4] = [
        TimeLagMode::Encoder,
        TimeLagMode::Decoder,
        TimeLagMode::Both,
        TimeLagMode::None,
    ];

    /// The tape against its oracle, the graph's `sequence_loss(..)
    /// .backward()`: the loss value and every parameter gradient of both
    /// directions, bit for bit, for all 12 ablation combinations, `T ∈ {1,
    /// 2, 5}`, pairs observing some, none and all of their RPs, inputs
    /// holding `±0.0`, and two shapes (the wider one runs the vector
    /// kernels). One tape serves every case, so a record or scratch buffer
    /// that leaked from one pair into the next would show too.
    #[test]
    fn tape_matches_the_graph_oracle_bitwise() {
        let mut tape = PairTape::new();
        let mut cases = 0;
        for (aps, hidden) in [(5, 8), (19, 17)] {
            for attention in ATTENTION {
                for time_lag in TIME_LAG {
                    for len in [1, 2, 5] {
                        for rps in [Rps::Mixed, Rps::AllMissing, Rps::AllPresent] {
                            let salt = cases;
                            let mut rng = StdRng::seed_from_u64(salt as u64);
                            let fw = weights(aps, hidden, attention, time_lag, &mut rng);
                            let bw = weights(aps, hidden, attention, time_lag, &mut rng);
                            let seq = sequence(len, aps, salt, rps);
                            let rev = sequence(len, aps, salt + 11, rps);

                            let (fm, bm) = (fw.to_model(), bw.to_model());
                            let want_loss = pair_backward(&fm, &bm, &seq, &rev);
                            let mut grads = [&fw, &bw].map(DirectionGrads::zeros_like);
                            let [f, b] = &mut grads;
                            let loss = tape.differentiate([&fw, &bw], &seq, &rev, [f, b]);

                            let case = format!(
                                "{attention:?}/{time_lag:?} T={len} {rps:?} A={aps} H={hidden}"
                            );
                            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{case}: loss");
                            let want = fm.parameters().into_iter().chain(bm.parameters());
                            let got = grads.iter().flat_map(|g| g.tensors());
                            let mut count = 0;
                            for (k, (p, g)) in want.zip(got).enumerate() {
                                assert!(p.grad().bits_eq(g), "{case}: gradient tensor {k}");
                                count += 1;
                            }
                            assert_eq!(count, 60, "{case}: tensor count");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 12 * 3 * 3);
    }

    /// Gradients accumulate: differentiating two pairs into the same
    /// buffers equals the graph's two backward passes into the same
    /// parameters, as the graph's `zero_grad → backward → backward` does.
    #[test]
    fn tape_gradients_accumulate_like_the_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mode, lag) = (AttentionMode::SparsityFriendly, TimeLagMode::Encoder);
        let fw = weights(4, 6, mode, lag, &mut rng);
        let bw = weights(4, 6, mode, lag, &mut rng);
        let pairs = [
            (sequence(5, 4, 1, Rps::Mixed), sequence(5, 4, 2, Rps::Mixed)),
            (sequence(3, 4, 3, Rps::Mixed), sequence(3, 4, 4, Rps::Mixed)),
        ];
        let (fm, bm) = (fw.to_model(), bw.to_model());
        let mut grads = [&fw, &bw].map(DirectionGrads::zeros_like);
        let mut tape = PairTape::new();
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
}
