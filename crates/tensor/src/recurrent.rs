//! Forward and backward math of one LSTM step and one attention step on
//! plain slices: the recurrent layers of the training tapes and of
//! inference.
//!
//! Each forward function is the one definition of its layer's forward
//! pass: the training tapes and the inference of the recurrent imputers
//! call it on plain weights, and the fused LSTM and attention nodes of the
//! autodiff graph (`rm-autodiff`, the tapes' test oracle) call it on their
//! parents' values, so the two agree bit for bit by
//! construction. Both reproduce, operation for operation, the chain of
//! primitive graph nodes the fused nodes replace (affine maps through
//! [`Matrix::matvec_into`], the shared [`Scalar::sigmoid`]/[`Scalar::tanh`],
//! here through their bitwise-equal slice hooks, the stabilised column
//! softmax).
//!
//! Each backward function is likewise the one definition of its layer's
//! gradient: it computes every term and hands it, in the order the
//! replaced chain delivered it, to a caller's sink as a [`GradTerm`] for one
//! named input. A training tape adds each term into plain gradient buffers;
//! the graph node's sink adds it into a parent's gradient. So a tape that
//! calls these steps in the graph's order is bitwise the graph.

// rm-lint: hot-path
// Every BiSIM/BRITS/SSGAN training step and every inference step runs these
// loops; every buffer is caller-owned.

use std::ops::{Deref, Range};

use crate::{Matrix, Scalar};

/// One gradient term a fused backward hands to one of its inputs.
#[derive(Clone, Copy, Debug)]
pub enum GradTerm<'a, T: Scalar> {
    /// `d[j] += +0.0 + v[j]`: the row sums of a one-column gradient, the
    /// term of a bias.
    Bias(&'a [T]),
    /// `d += u·vᵀ`: the term of a weight against a column input. A
    /// training tape queues it in the weight's [`crate::OuterPanel`];
    /// [`GradTerm::add_to`] applies it at once through
    /// [`Matrix::add_outer`].
    Outer(&'a [T], &'a [T]),
    /// `d[j] += v[j]`, through `axpy` with `α = 1`: a materialised term.
    Add(&'a [T]),
    /// `d[j] += v[j]·s`.
    Scaled(&'a [T], T),
    /// `d[j] += (+0.0 + a[j])·b[j]`.
    Gated(&'a [T], &'a [T]),
}

impl<T: Scalar> GradTerm<'_, T> {
    /// Adds the term into the gradient buffer `d`.
    pub fn add_to(self, d: &mut Matrix<T>) {
        match self {
            GradTerm::Outer(u, v) => d.add_outer(u, v),
            term => term.add_to_slice(d.data_mut()),
        }
    }

    /// Adds the term into the gradient entries `d`.
    ///
    /// # Panics
    /// Panics on [`GradTerm::Outer`], which needs the matrix shape
    /// ([`GradTerm::add_to`]).
    pub fn add_to_slice(self, d: &mut [T]) {
        match self {
            GradTerm::Bias(v) => d.iter_mut().zip(v).for_each(|(e, &x)| *e += T::ZERO + x),
            GradTerm::Add(v) => crate::matrix::axpy_slice(T::ONE, v, d),
            GradTerm::Scaled(v, s) => d.iter_mut().zip(v).for_each(|(e, &x)| *e += x * s),
            GradTerm::Gated(a, b) => d
                .iter_mut()
                .zip(a.iter().zip(b))
                .for_each(|(e, (&x, &y))| *e += (T::ZERO + x) * y),
            GradTerm::Outer(..) => panic!("a weight term needs its matrix"),
        }
    }
}

/// The four gate layers of an LSTM cell, `(W, b)` per gate, in step order:
/// input, forget, output, candidate. Each `W` maps the concatenated
/// `[input; h]` column to the hidden size.
pub type LstmGates<'a, T> = [(&'a Matrix<T>, &'a Matrix<T>); 4];

/// One LSTM step on plain slices.
///
/// `x` is the concatenated input column `[input; h_prev]` and `c_prev` the
/// carried cell state. Writes the gate activations `i, f, o, g` into
/// `gates` (`4·H` entries, one gate after the other), the new cell state
/// into `c`, `tanh(c)` into `tanh_c` and the new hidden state
/// `h = o ⊙ tanh(c)` into `h`. Each gate is `act(W·x + b)`: the
/// single-column product ([`Matrix::matvec_into`]), then the bias, as in the
/// graph's affine node; `c = f ⊙ c_prev + i ⊙ g` multiplies before it adds. The
/// activations run as slices once every gate's `W·x + b` is in: one
/// sigmoid over the contiguous `i f o` block, one tanh over `g`, one over
/// `c`.
///
/// # Panics
/// Panics if a slice length disagrees with the gate shapes.
pub fn lstm_cell_forward<T: Scalar>(
    weights: &LstmGates<'_, T>,
    x: &[T],
    c_prev: &[T],
    gates: &mut [T],
    c: &mut [T],
    tanh_c: &mut [T],
    h: &mut [T],
) {
    let hidden = c_prev.len();
    assert_eq!(gates.len(), 4 * hidden, "LSTM gate buffer length mismatch");
    for ((w, b), act) in weights.iter().zip(gates.chunks_exact_mut(hidden)) {
        w.matvec_into(x, act);
        for (v, &bias) in act.iter_mut().zip(b.data()) {
            *v += bias;
        }
    }
    let (ifo, g) = gates.split_at_mut(3 * hidden);
    T::sigmoid_slice(ifo);
    T::tanh_slice(g);
    let (i, rest) = gates.split_at(hidden);
    let (f, rest) = rest.split_at(hidden);
    let (o, g) = rest.split_at(hidden);
    for j in 0..hidden {
        c[j] = f[j] * c_prev[j] + i[j] * g[j];
    }
    tanh_c.copy_from_slice(&c[..hidden]);
    T::tanh_slice(tanh_c);
    for j in 0..hidden {
        h[j] = o[j] * tanh_c[j];
    }
}

/// An input of one LSTM step that [`lstm_cell_backward`] hands terms to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LstmInput {
    /// The weight of gate `q` (step order: input, forget, output,
    /// candidate).
    Weight(usize),
    /// The bias of gate `q`.
    Bias(usize),
    /// The gradient of the previous step's cell state `c_prev`.
    Carried,
    /// The previous hidden state `h_prev`.
    Hidden,
    /// Node part `k` of the input column.
    Part(usize),
}

/// The gates in the order the replaced chain's backward reached them:
/// output, forget, input, candidate (as step-order indices).
const CHAIN_ORDER: [usize; 4] = [2, 1, 0, 3];

/// Scratch entries [`lstm_cell_backward`] needs for hidden size `hidden`
/// and an input column of `n` rows (`[input; h_prev]`).
pub fn lstm_backward_scratch_len(hidden: usize, n: usize) -> usize {
    5 * hidden + 2 * n
}

/// The backward pass of one LSTM step for the output gradient `g` (`∂h`),
/// in the order of the 14-node chain the graph's LSTM node replaced: `h = o ⊙
/// tanh(c)`, the output gate's affine map, `tanh(c)`, `c = f ⊙ c_prev + i ⊙
/// g`, then the forget, input and candidate gates' affine maps, and last
/// the input column `x`, whose gradient is `+0 + t_o + t_f + t_i + t_g`
/// (`t_q = W_qᵀδ_q`). Each intermediate gradient is the chain node's:
/// `+0.0` plus the term it received.
///
/// `cache` is `[i f o g | c | tanh c | c_prev | dc | x]` as the forward
/// left it (`dc` holding what the next step handed back into `c`), `spans`
/// the `(row offset, row count)` pairs of the node parts within `x`, and
/// `weight(q)` gate `q`'s weight. Terms go to `add`: the carried-state term
/// first (when `wants(Carried)`), each gate's bias then weight, then
/// `h_prev` and the parts — whose columns of `Wᵀδ` are computed only when
/// `wants` them.
///
/// # Panics
/// Panics if `scratch` is shorter than [`lstm_backward_scratch_len`] or a
/// length disagrees with the gate shapes.
pub fn lstm_cell_backward<T: Scalar, W: Deref<Target = Matrix<T>>>(
    weight: impl Fn(usize) -> W,
    g: &[T],
    cache: &[T],
    spans: &[usize],
    wants: impl Fn(LstmInput) -> bool,
    scratch: &mut [T],
    mut add: impl FnMut(LstmInput, GradTerm<'_, T>),
) {
    let hidden = g.len();
    let (acts, state) = cache.split_at(4 * hidden);
    let (i, rest) = acts.split_at(hidden);
    let (f, rest) = rest.split_at(hidden);
    let (o, gc) = rest.split_at(hidden);
    // Past the cell state itself, which only the forward needed.
    let (tanh_c, state) = state[hidden..].split_at(hidden);
    let (c_prev, state) = state.split_at(hidden);
    let (dc, x) = state.split_at(hidden);
    let n = x.len();
    let one = T::ONE;

    // Gate pre-activation gradients in the chain's order o, f, i, g, then
    // the gradient of c, the input column's and one product scratch.
    let (deltas, rest) = scratch.split_at_mut(4 * hidden);
    let (dcell, rest) = rest.split_at_mut(hidden);
    let (xg, rest) = rest.split_at_mut(n);
    let product = &mut rest[..n];
    {
        let (d_o, rest) = deltas.split_at_mut(hidden);
        let (d_f, rest) = rest.split_at_mut(hidden);
        let (d_i, d_g) = rest.split_at_mut(hidden);
        for j in 0..hidden {
            let go = T::ZERO + g[j] * tanh_c[j];
            let gtc = T::ZERO + g[j] * o[j];
            d_o[j] = T::ZERO + go * (o[j] * (one - o[j]));
            // The next step's `∂c` arrived first, then `tanh(c)`'s.
            dcell[j] = dc[j] + gtc * (one - tanh_c[j] * tanh_c[j]);
            let gfc = T::ZERO + dcell[j];
            let gig = T::ZERO + dcell[j];
            let gf = T::ZERO + gfc * c_prev[j];
            d_f[j] = T::ZERO + gf * (f[j] * (one - f[j]));
            let gi = T::ZERO + gig * gc[j];
            let gg = T::ZERO + gig * i[j];
            d_i[j] = T::ZERO + gi * (i[j] * (one - i[j]));
            d_g[j] = T::ZERO + gg * (one - gc[j] * gc[j]);
        }
    }
    if wants(LstmInput::Carried) {
        // `c_prev`'s term, before the previous step runs.
        add(LstmInput::Carried, GradTerm::Gated(dcell, f));
    }
    let deltas = &*deltas;
    for (&q, delta) in CHAIN_ORDER.iter().zip(deltas.chunks_exact(hidden)) {
        add(LstmInput::Bias(q), GradTerm::Bias(delta));
        add(LstmInput::Weight(q), GradTerm::Outer(delta, x));
    }
    // `x`'s gradient, only over the columns a wanted input owns, each run
    // of adjacent columns through the four gates in order.
    xg.fill(T::ZERO);
    let part_cols = |k: usize| spans[2 * k]..spans[2 * k] + spans[2 * k + 1];
    let segments = (0..spans.len() / 2)
        .map(|k| (part_cols(k), LstmInput::Part(k)))
        .chain(std::iter::once((n - hidden..n, LstmInput::Hidden)))
        .filter(|&(_, input)| wants(input))
        .map(|(cols, _)| cols);
    let mut flush = |cols: Range<usize>| {
        for (&q, delta) in CHAIN_ORDER.iter().zip(deltas.chunks_exact(hidden)) {
            let t = &mut product[..cols.len()];
            weight(q).matmul_at_b_col_into(delta, cols.clone(), t);
            crate::matrix::axpy_slice(T::ONE, t, &mut xg[cols.clone()]);
        }
    };
    let mut run: Option<Range<usize>> = None;
    for cols in segments {
        match &mut run {
            Some(r) if r.end == cols.start => r.end = cols.end,
            _ => {
                if let Some(r) = run.replace(cols) {
                    flush(r);
                }
            }
        }
    }
    if let Some(r) = run {
        flush(r);
    }
    // The concatenation's split: `h_prev`, then the node parts.
    if wants(LstmInput::Hidden) {
        add(LstmInput::Hidden, GradTerm::Add(&xg[n - hidden..]));
    }
    for k in 0..spans.len() / 2 {
        if wants(LstmInput::Part(k)) {
            add(LstmInput::Part(k), GradTerm::Add(&xg[part_cols(k)]));
        }
    }
}

/// The alignment MLP of a Bahdanau attention unit: `e = W2·tanh(W1·[s; k] +
/// b1) + b2` with a one-row `W2`, the `(W1, b1, W2, b2)` of BiSIM's
/// `attention_align` network.
pub type AlignWeights<'a, T> = [&'a Matrix<T>; 4];

/// The context vector of one decoder step on plain slices (BiSIM Eq. 10–12).
///
/// For the decoder state `s` (`H` entries) and the keys `k_1..k_T` (`A`
/// entries each, read through `key(i)`), the energy of key `i` is the
/// alignment MLP of `[s; k_i]`, the weights are the stabilised softmax of
/// the energies and the context is `Σ_i k_i · w_i`, accumulated in key
/// order from `+0.0` into `context`. Writes the hidden activations
/// `tanh(W1·[s; k_i] + b1)` into `hidden[i·H..(i+1)·H]` (`T·H` entries) and
/// the softmax weights into `weights` (`T` entries). Each `W1·[s; k_i]` is
/// one single-column product over the joint column, which the caller's
/// `joint` buffer (`H + A` entries) holds.
///
/// # Panics
/// Panics if a slice length disagrees with the weight shapes.
pub fn attention_forward<T: Scalar, K: std::ops::Deref<Target = [T]>>(
    align: &AlignWeights<'_, T>,
    s: &[T],
    key: impl Fn(usize) -> K,
    joint: &mut [T],
    hidden: &mut [T],
    weights: &mut [T],
    context: &mut [T],
) {
    let [w1, b1, w2, b2] = *align;
    let (h, t) = (s.len(), weights.len());
    assert_eq!(
        hidden.len(),
        h * t,
        "attention hidden buffer length mismatch"
    );
    assert_eq!(w1.rows(), h, "attention W1 row count mismatch");
    if t == 0 {
        context.fill(T::ZERO);
        return;
    }
    // Eq. 10: the alignment MLP's first layer over each `[s; k_i]`.
    joint[..h].copy_from_slice(s);
    for (i, a) in hidden.chunks_exact_mut(h).enumerate() {
        joint[h..].copy_from_slice(&key(i));
        w1.matvec_into(joint, a);
        for (v, &bias) in a.iter_mut().zip(b1.data()) {
            *v += bias;
        }
    }
    T::tanh_slice(hidden);
    for (a, e) in hidden.chunks_exact(h).zip(weights.iter_mut()) {
        let mut energy = [T::ZERO];
        w2.matvec_into(a, &mut energy);
        *e = energy[0] + b2.data()[0];
    }
    // Eq. 11: the graph's column softmax — max-shift, exp, normalise.
    let max = weights.iter().copied().fold(None, |acc: Option<T>, v| {
        Some(match acc {
            None => v,
            Some(m) => m.max(v),
        })
    });
    let max = max.unwrap_or(T::ZERO);
    weights.iter_mut().for_each(|e| *e -= max);
    T::exp_slice(weights);
    let total = weights.iter().fold(T::ZERO, |acc, &e| acc + e);
    weights.iter_mut().for_each(|e| *e /= total);
    // Eq. 12: the weighted sum in key order; each weight is read as the
    // graph's entry selection does, `+0.0 + w_i`.
    context.fill(T::ZERO);
    for (i, &w) in weights.iter().enumerate() {
        let wi = T::ZERO + w;
        for (c, &k) in context.iter_mut().zip(key(i).iter()) {
            *c += k * wi;
        }
    }
}

/// An input of one attention step that [`attention_backward`] hands terms
/// to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttentionInput {
    /// Key `i`.
    Key(usize),
    /// The decoder state `s`.
    State,
    /// The alignment MLP's first weight.
    W1,
    /// Its first bias.
    B1,
    /// Its one-row second weight.
    W2,
    /// Its second bias.
    B2,
}

/// Scratch entries [`attention_backward`] needs for `t` keys of `a`
/// entries and a state of `h` entries.
pub fn attention_backward_scratch_len(t: usize, h: usize, a: usize) -> usize {
    2 * t + 2 * h + 2 * (h + a)
}

/// The backward pass of one attention step for the output gradient `g`
/// (`∂ctx`), in the order of the chain the graph's attention node replaced:
///
/// 1. for each key `i`: `k_i += g·w_i` and `∂w_i = Σ_j g_j·k_i[j]` (the
///    `mul_scalar_var` nodes; every product node's gradient is `g`);
/// 2. the softmax backward into the energies;
/// 3. for each key `i`: `b2`, `W2` and the hidden activation's gradient,
///    `tanh`, then `b1`, `W1 += δ_i·[s; k_i]ᵀ` and `W1ᵀδ_i` split between
///    `s` and `k_i` (computed only when either is wanted).
///
/// `hidden` and `weights` are what [`attention_forward`] wrote; `weight`
/// gives the values of [`AttentionInput::W1`] and [`AttentionInput::W2`].
/// `state` is released before the first term is handed out, and each
/// `key(i)` before the next term.
///
/// # Panics
/// Panics if `scratch` is shorter than [`attention_backward_scratch_len`]
/// or a length disagrees with the weight shapes.
pub fn attention_backward<T, S, K, W>(
    weight: impl Fn(AttentionInput) -> W,
    state: S,
    key: impl Fn(usize) -> K,
    hidden: &[T],
    weights: &[T],
    g: &[T],
    wants: impl Fn(AttentionInput) -> bool,
    scratch: &mut [T],
    mut add: impl FnMut(AttentionInput, GradTerm<'_, T>),
) where
    T: Scalar,
    S: Deref<Target = [T]>,
    K: Deref<Target = [T]>,
    W: Deref<Target = Matrix<T>>,
{
    let (t, h, a_len) = (weights.len(), state.len(), g.len());
    assert_eq!(hidden.len(), t * h, "attention hidden length mismatch");
    let y = weights;
    let (gw, rest) = scratch.split_at_mut(t);
    let (ge, rest) = rest.split_at_mut(t);
    let (ga, rest) = rest.split_at_mut(h);
    let (delta, rest) = rest.split_at_mut(h);
    let (joint, rest) = rest.split_at_mut(h + a_len);
    let jt = &mut rest[..h + a_len];
    joint[..h].copy_from_slice(&state);
    drop(state);

    // 1. The weighted sum.
    for (i, gwi) in gw.iter_mut().enumerate() {
        let wi = T::ZERO + y[i];
        let ds = key(i)
            .iter()
            .zip(g)
            .fold(T::ZERO, |acc, (&kj, &gj)| acc + gj * kj);
        add(AttentionInput::Key(i), GradTerm::Scaled(g, wi));
        *gwi = T::ZERO + (T::ZERO + ds);
    }
    // 2. The softmax: `∂e_i = y_i·(∂w_i − Σ_j y_j·∂w_j)`.
    let dot = y
        .iter()
        .zip(gw.iter())
        .fold(T::ZERO, |acc, (&yi, &gi)| acc + yi * gi);
    for ((gei, &yi), &gi) in ge.iter_mut().zip(y).zip(gw.iter()) {
        *gei = T::ZERO + yi * (gi - dot);
    }
    // 3. The alignment MLP, key by key.
    let state_wanted = wants(AttentionInput::State);
    for (i, &gei) in ge.iter().enumerate() {
        let a = &hidden[i * h..(i + 1) * h];
        add(AttentionInput::B2, GradTerm::Bias(&[gei]));
        add(AttentionInput::W2, GradTerm::Outer(&[gei], a));
        weight(AttentionInput::W2).matmul_at_b_col_into(&[gei], 0..h, ga);
        for ((dj, &gaj), &aj) in delta.iter_mut().zip(ga.iter()).zip(a) {
            *dj = T::ZERO + (T::ZERO + gaj) * (T::ONE - aj * aj);
        }
        add(AttentionInput::B1, GradTerm::Bias(delta));
        joint[h..].copy_from_slice(&key(i));
        add(AttentionInput::W1, GradTerm::Outer(delta, joint));
        if state_wanted || wants(AttentionInput::Key(i)) {
            weight(AttentionInput::W1).matmul_at_b_col_into(delta, 0..h + a_len, jt);
            add(AttentionInput::State, GradTerm::Add(&jt[..h]));
            add(AttentionInput::Key(i), GradTerm::Add(&jt[h..]));
        }
    }
}
