//! Forward math of the fused recurrent nodes ([`Var::lstm_cell`] and
//! [`Var::attention`]), shared with the graph-free snapshot paths.
//!
//! Each function is the one definition of its layer's forward pass: the
//! autodiff node calls it on its parents' values, and the snapshot
//! inference of the recurrent imputers calls it on plain weights, so the
//! two agree bit for bit by construction. Both reproduce, operation for
//! operation, the chain of primitive graph nodes the fused nodes replace
//! (affine maps through [`Matrix::matvec_acc`], the shared
//! [`Scalar::sigmoid`]/[`Scalar::tanh`], the stabilised column softmax).
//!
//! [`Var::lstm_cell`]: crate::Var::lstm_cell
//! [`Var::attention`]: crate::Var::attention

// rm-lint: hot-path
// Every BiSIM/BRITS/SSGAN training step and every snapshot inference step
// runs these loops; every buffer is caller-owned.

use crate::{Matrix, Scalar};

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
/// `h = o ⊙ tanh(c)` into `h`. Each gate is `act(W·x + b)`: the product from
/// `+0.0` in increasing column order, then the bias, as in the graph's
/// affine node; `c = f ⊙ c_prev + i ⊙ g` multiplies before it adds.
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
    for (q, ((w, b), act)) in weights
        .iter()
        .zip(gates.chunks_exact_mut(hidden))
        .enumerate()
    {
        act.fill(T::ZERO);
        w.matvec_acc(0, x, act);
        for (v, &bias) in act.iter_mut().zip(b.data()) {
            *v += bias;
        }
        if q == 3 {
            act.iter_mut().for_each(|v| *v = v.tanh());
        } else {
            act.iter_mut().for_each(|v| *v = v.sigmoid());
        }
    }
    let (i, rest) = gates.split_at(hidden);
    let (f, rest) = rest.split_at(hidden);
    let (o, g) = rest.split_at(hidden);
    for j in 0..hidden {
        c[j] = f[j] * c_prev[j] + i[j] * g[j];
        tanh_c[j] = c[j].tanh();
        h[j] = o[j] * tanh_c[j];
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
/// the softmax weights into `weights` (`T` entries).
///
/// `W1·s` is computed once and each key's product continues from it
/// ([`Matrix::matvec_acc`]); a dot product continued from a prefix is
/// bitwise the whole one, so every energy is the MLP's own.
///
/// # Panics
/// Panics if a slice length disagrees with the weight shapes.
pub fn attention_forward<T: Scalar, K: std::ops::Deref<Target = [T]>>(
    align: &AlignWeights<'_, T>,
    s: &[T],
    key: impl Fn(usize) -> K,
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
    // Eq. 10: the shared prefix W1[:, ..H]·s lands in the first key's slot
    // and is copied to the others before any of them continues.
    let (first, rest) = hidden.split_at_mut(h);
    first.fill(T::ZERO);
    w1.matvec_acc(0, s, first);
    for slot in rest.chunks_exact_mut(h) {
        slot.copy_from_slice(first);
    }
    for (i, (a, e)) in hidden
        .chunks_exact_mut(h)
        .zip(weights.iter_mut())
        .enumerate()
    {
        w1.matvec_acc(h, &key(i), a);
        for (v, &bias) in a.iter_mut().zip(b1.data()) {
            *v = (*v + bias).tanh();
        }
        let mut energy = [T::ZERO];
        w2.matvec_acc(0, a, &mut energy);
        *e = energy[0] + b2.data()[0];
    }
    // Eq. 11: the softmax of `Var::softmax_col` — max-shift, exp, normalise.
    let max = weights.iter().copied().fold(None, |acc: Option<T>, v| {
        Some(match acc {
            None => v,
            Some(m) => m.max(v),
        })
    });
    let max = max.unwrap_or(T::ZERO);
    weights.iter_mut().for_each(|e| *e = (*e - max).exp());
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
