//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Var`] wraps a matrix value in a dynamically-built computation graph.
//! Calling [`Var::backward`] on a scalar output accumulates gradients into
//! every upstream variable created with `requires_grad = true`.
//!
//! The graph is generic over the [`Scalar`] precision with the same `f64`
//! default as [`Matrix`]; training in this workspace runs at `f64` (the
//! determinism-contract precision) while `Var<f32>` exists so the whole
//! operation set monomorphises for single precision too.
//!
//! The graph is the test oracle of the workspace's training tapes: BiSIM,
//! BRITS and SSGAN train on hand-written tapes (no graph), and their tests
//! hold each tape to this graph bit for bit. The operation set is what
//! those oracles need: matrix products (and the fused affine map `W·x + b`
//! of every linear layer), element-wise arithmetic, sigmoid/tanh/ReLU/exp
//! activations, masking by constant matrices, scalar reductions, and two
//! fused recurrent layers: one LSTM step ([`Var::lstm_cell`]) and one
//! decoder step of Bahdanau attention ([`Var::attention`]), whose forward
//! and backward math lives in [`rm_tensor::recurrent`] and is shared with
//! the tapes. The primitive ops the fused layers replaced (column softmax,
//! row concatenation, entry selection, products with a 1×1 variable) exist
//! only in this crate's tests, as the fused layers' oracles.
//!
//! Two rules keep the backward pass bitwise stable as it gets cheaper:
//!
//! * **In-place accumulation is exact.** Each op adds its per-element term
//!   straight into the parent's gradient buffer instead of materialising the
//!   term as a temporary matrix and adding that with `axpy(1, ·)`. The two
//!   are the same bits: `axpy` with `α = 1` adds `1·t`, and `1·t = t`
//!   exactly in IEEE arithmetic, so both compute `grad[j] + t[j]` with the
//!   term `t[j]` evaluated by the same expression. Terms that are sums of
//!   several products (the matrix-product gradients) are still summed from
//!   `+0.0` into a temporary first, because adding them one by one into the
//!   gradient would change the summation order. Parents that need no
//!   gradient (constant leaves) are skipped.
//! * **A fused node reproduces the chain it replaces.** The topological
//!   sort is a DFS that pushes each node's parents in list order and so
//!   enters them last to first; the order in which it first enters each
//!   node fixes the order in which gradients reach it, and with it every
//!   gradient's summation order. A fused node therefore lists its parents
//!   in the reverse of the order in which the chain's DFS first entered
//!   them. `Affine` replaces `matmul` then `add_broadcast_col`, whose DFS
//!   enters `b`, then `x`, then `W`: the list is `[W, x, b]`. (`Select`
//!   replaces `mask` then `sum`: `[v]`.) The LSTM step's 14 nodes give
//!   `[W_o, b_o, W_f, b_f, c_prev, W_i, b_i, W_g, parts…, h_prev, b_g]`, and
//!   the attention step's `7T + 3` nodes `[h''_1, …, h''_{T−1}, W2, W1, s,
//!   h''_T, b1, b2]`. The DFS then visits every other node in the old
//!   order, and the fused backward hands each parent its terms in the order
//!   the chain's nodes did, each intermediate gradient computed as the
//!   chain's node held it: `+0.0` plus the terms it received. The only
//!   difference is the sign of a zero where an interior node passed on
//!   `+0.0 + t` and the fused node passes `t`; no consumer sees it: a
//!   `±0.0` row is skipped, and a `±0.0` term is added to an accumulator
//!   that is never `-0.0`.
//!
//!   For a chain of many nodes one more fact is needed: in the chain, each
//!   parent received its terms as one contiguous run, so handing them all
//!   out at once changes no sum. A node that runs between two interior
//!   nodes of the chain was first entered through the chain, so it is an
//!   ancestor of it, and it writes only into its own parents. The ancestors
//!   that read a chain parent too — an earlier decoder step's attention
//!   reads the same keys — are ancestors of the decoder state `s` as well:
//!   they are explored with `s`'s subgraph and run after the whole chain.
//!   (Those between interior nodes, such as a key's own mask and transform
//!   at the first decoder step, write into nothing the chain writes into.)
//!   The parallel readers of `s` (the decoder's estimate and decay) run
//!   wholly before or wholly after it. An LSTM step's chain runs with no
//!   other node in between at all. The bitwise oracle tests below build
//!   both graphs from one scalar, so any other order shows in that
//!   scalar's gradient.
//!
//!   The LSTM cell state `c` is carried inside the step node, not in a node
//!   of its own. The next step lists the previous step's node as a parent
//!   and adds its `∂c_prev` into that node's op-held `c` gradient when it
//!   runs, which is before the previous node runs; the previous node then
//!   adds its own `tanh(c)` term. That is the chain's order: the next
//!   step's `f ⊙ c_prev` reached `c` before `tanh(c)` did.

use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use rm_tensor::recurrent::{self, GradTerm};
use rm_tensor::{Matrix, Scalar};

/// Stamp source of the backward passes' visit marks: every pass takes a
/// fresh, never-reused stamp, so a node's mark from an earlier pass can never
/// read as "visited" in a later one and no mark ever needs clearing.
static NEXT_PASS: AtomicU64 = AtomicU64::new(1);

/// An explicit DFS frame of the topological sort.
enum Frame<T: Scalar> {
    Enter(Var<T>),
    Exit(Var<T>),
}

/// The operation that produced a graph node.
enum Op<T: Scalar> {
    /// Leaf node (input or parameter).
    Leaf,
    /// Element-wise sum of two same-shape matrices.
    Add,
    /// `A + b` where `b` is a column vector broadcast across the columns of `A`.
    AddBroadcastCol,
    /// Element-wise difference.
    Sub,
    /// Element-wise (Hadamard) product of two variables.
    Hadamard,
    /// Matrix product.
    MatMul,
    /// Multiplication by a compile-time constant scalar.
    ScaleConst(T),
    /// Addition of a constant scalar to every entry. The offset does not
    /// influence the gradient, so it is not stored.
    AddConst,
    /// Element-wise product with a constant matrix (e.g. a mask).
    HadamardConst(Matrix<T>),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Element-wise exponential.
    Exp,
    /// Element-wise square.
    Square,
    /// Sum of all entries, producing a 1×1 matrix.
    Sum,
    /// Mean of all entries, producing a 1×1 matrix.
    Mean,
    /// Vertical concatenation of several matrices with the given row counts.
    #[cfg(test)]
    ConcatRows(Vec<usize>),
    /// Softmax over a column vector.
    #[cfg(test)]
    SoftmaxCol,
    /// Element-wise product with a broadcast 1×1 variable (second parent).
    #[cfg(test)]
    MulScalarVar,
    /// `W·x + b` with parents `[W, x, b]`: [`Var::matmul`] then
    /// [`Var::add_broadcast_col`] as one node.
    Affine,
    /// Entry `i` (row-major) of the parent as a 1×1 value.
    #[cfg(test)]
    Select(usize),
    /// One LSTM step ([`Var::lstm_cell`]); the node's value is `h`.
    LstmCell {
        /// `[i f o g | c | tanh c | c_prev | dc | x]` for hidden size `H`:
        /// the gate activations (`4·H`), the cell state, its `tanh`, the
        /// carried state read at the forward, the gradient the next step
        /// hands back into `c` (`H` each), and the concatenated input `x`.
        cache: Matrix<T>,
        /// `(row offset, row count)` within `x` of each node part, in
        /// parent order.
        spans: Vec<usize>,
        /// Whether the carried-state node is listed (after `b_f`).
        carried: bool,
    },
    /// One decoder step's attention context ([`Var::attention`]).
    Attention {
        /// The alignment MLP's hidden activations, one row per key.
        hidden: Matrix<T>,
        /// The softmax weights, one per key.
        weights: Matrix<T>,
    },
}

/// One part of an LSTM step's input column ([`Var::lstm_cell`]): a graph
/// node, or a constant the step reads without one.
#[derive(Clone, Copy)]
pub enum InputPart<'a, T: Scalar> {
    /// A node whose gradient the step feeds.
    Node(&'a Var<T>),
    /// A constant column: no node, and no gradient is computed for it.
    Const(&'a Matrix<T>),
}

impl<T: Scalar> InputPart<'_, T> {
    /// Number of rows this part adds to the input column.
    pub fn rows(&self) -> usize {
        match self {
            InputPart::Node(v) => v.shape().0,
            InputPart::Const(m) => m.rows(),
        }
    }
}

/// Parent index of key `i` of an attention node over `t` keys (see
/// [`Var::attention`] for the list).
fn attention_key(t: usize, i: usize) -> usize {
    if i + 1 < t {
        i
    } else {
        t + 2
    }
}

struct Node<T: Scalar> {
    value: Matrix<T>,
    grad: Matrix<T>,
    parents: Vec<Var<T>>,
    op: Op<T>,
    requires_grad: bool,
    /// Stamp of the last backward pass that visited this node.
    visit: u64,
}

impl<T: Scalar> Node<T> {
    /// Whether gradients reaching this node are kept: everything except a
    /// pure constant (a leaf without `requires_grad`), whose gradient nothing
    /// reads, so backward skips computing it.
    fn keeps_grad(&self) -> bool {
        self.requires_grad || !self.parents.is_empty()
    }
}

/// A node in the autodiff graph holding a matrix value.
///
/// `Var` is a cheap reference-counted handle; cloning it shares the underlying
/// node.
#[derive(Clone)]
pub struct Var<T: Scalar = f64> {
    node: Rc<RefCell<Node<T>>>,
}

impl<T: Scalar> std::fmt::Debug for Var<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.node.borrow();
        write!(f, "Var(shape={:?})", n.value.shape())
    }
}

impl<T: Scalar> Var<T> {
    /// Builds a node over `value` with the given parents.
    fn from_node(value: Matrix<T>, parents: &[&Var<T>], op: Op<T>) -> Var<T> {
        Self::from_node_with(value, parents.iter().copied(), op)
    }

    /// [`Var::from_node`] over any re-iterable listing of parents, so callers
    /// holding owned slices (e.g. the LSTM step's parents) need not collect a
    /// reference vector first.
    fn from_node_with<'a, I>(value: Matrix<T>, parents: I, op: Op<T>) -> Var<T>
    where
        T: 'a,
        I: Iterator<Item = &'a Var<T>> + Clone,
    {
        let requires_grad = parents.clone().any(|p| p.node.borrow().requires_grad);
        let (r, c) = value.shape();
        Var {
            node: Rc::new(RefCell::new(Node {
                grad: Matrix::zeros(r, c),
                value,
                parents: parents.cloned().collect(),
                op,
                requires_grad,
                visit: 0,
            })),
        }
    }

    /// Creates a constant (non-trainable) leaf.
    pub fn constant(value: Matrix<T>) -> Var<T> {
        Var::from_node(value, &[], Op::Leaf)
    }

    /// Creates a trainable parameter leaf that accumulates gradients.
    pub fn parameter(value: Matrix<T>) -> Var<T> {
        let v = Var::from_node(value, &[], Op::Leaf);
        v.node.borrow_mut().requires_grad = true;
        v
    }

    /// A 1×1 constant.
    pub fn scalar(value: T) -> Var<T> {
        Var::constant(Matrix::filled(1, 1, value))
    }

    /// Shape of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.node.borrow().value.shape()
    }

    /// Clones the current value out of the graph.
    pub fn value(&self) -> Matrix<T> {
        self.node.borrow().value.clone()
    }

    /// Borrow of the current value without cloning.
    pub fn value_ref(&self) -> Ref<'_, Matrix<T>> {
        Ref::map(self.node.borrow(), |n| &n.value)
    }

    /// The value of a 1×1 variable as a scalar.
    ///
    /// # Panics
    /// Panics if the variable is not 1×1.
    pub fn scalar_value(&self) -> T {
        let n = self.node.borrow();
        assert_eq!(n.value.shape(), (1, 1), "scalar_value on non-scalar Var");
        n.value.get(0, 0)
    }

    /// Clones the accumulated gradient.
    pub fn grad(&self) -> Matrix<T> {
        self.node.borrow().grad.clone()
    }

    /// Whether this variable participates in gradient accumulation.
    #[cfg(test)]
    pub fn requires_grad(&self) -> bool {
        self.node.borrow().requires_grad
    }

    /// Resets the accumulated gradient of this node to zero, in place.
    pub fn zero_grad(&self) {
        self.node.borrow_mut().grad.data_mut().fill(T::ZERO);
    }

    /// Adds `delta` into this node's gradient buffer, as [`Var::backward`]
    /// adds a materialised term.
    ///
    /// # Panics
    /// Panics if `delta`'s shape differs from the value's shape.
    pub fn add_grad(&self, delta: &Matrix<T>) {
        let mut n = self.node.borrow_mut();
        assert_eq!(n.value.shape(), delta.shape(), "add_grad shape mismatch");
        n.grad.axpy(T::ONE, delta);
    }

    /// Replaces the value of a leaf (used by optimizers).
    ///
    /// # Panics
    /// Panics if the new value has a different shape.
    #[cfg(test)]
    pub fn set_value(&self, value: Matrix<T>) {
        let mut n = self.node.borrow_mut();
        assert_eq!(n.value.shape(), value.shape(), "set_value shape mismatch");
        n.value = value;
    }

    /// Applies an in-place update `f(value, grad)` to the stored value.
    pub fn update_value(&self, f: impl FnOnce(&mut Matrix<T>, &Matrix<T>)) {
        let mut n = self.node.borrow_mut();
        // Split borrows: value and grad are disjoint fields of the node.
        let n = &mut *n;
        f(&mut n.value, &n.grad);
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Element-wise sum.
    pub fn add(&self, rhs: &Var<T>) -> Var<T> {
        let v = &*self.value_ref() + &*rhs.value_ref();
        Var::from_node(v, &[self, rhs], Op::Add)
    }

    /// Adds a column vector `rhs` (shape `(rows, 1)`) to every column of `self`.
    pub fn add_broadcast_col(&self, rhs: &Var<T>) -> Var<T> {
        let out = self.value_ref().add_broadcast_col(&rhs.value_ref());
        Var::from_node(out, &[self, rhs], Op::AddBroadcastCol)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Var<T>) -> Var<T> {
        let v = &*self.value_ref() - &*rhs.value_ref();
        Var::from_node(v, &[self, rhs], Op::Sub)
    }

    /// Element-wise product of two variables.
    pub fn hadamard(&self, rhs: &Var<T>) -> Var<T> {
        let v = self.value_ref().hadamard(&rhs.value_ref());
        Var::from_node(v, &[self, rhs], Op::Hadamard)
    }

    /// Matrix product `self · rhs`, computed through the blocked kernel into
    /// a fresh buffer (bitwise identical to [`Matrix::matmul`]).
    pub fn matmul(&self, rhs: &Var<T>) -> Var<T> {
        let mut v = Matrix::zeros(self.value_ref().rows(), rhs.value_ref().cols());
        self.value_ref().matmul_into(&rhs.value_ref(), &mut v);
        Var::from_node(v, &[self, rhs], Op::MatMul)
    }

    /// The affine map `self · x + b` of a linear layer (`self` is the
    /// weight, `b` a column bias broadcast across the columns of `x`) as one
    /// graph node: bitwise the same value and gradients as
    /// `self.matmul(x).add_broadcast_col(b)`, with one node, one value
    /// buffer and one gradient buffer fewer.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match or `b` is not a column
    /// vector with `self`'s row count.
    pub fn affine(&self, x: &Var<T>, b: &Var<T>) -> Var<T> {
        let w = self.value_ref();
        let mut v = Matrix::zeros(w.rows(), x.value_ref().cols());
        w.matmul_into(&x.value_ref(), &mut v);
        drop(w);
        v.add_broadcast_col_assign(&b.value_ref());
        Var::from_node(v, &[self, x, b], Op::Affine)
    }

    /// Entry `index` (row-major) of `self` as a 1×1 variable: bitwise the
    /// same value and gradients as multiplying by a one-hot mask and summing
    /// (`self.mask(&one_hot).sum()`) whenever every entry is finite. That
    /// sum is `+0.0 + v[index]` plus `±0.0` terms, so the value is
    /// `+0.0 + v[index]`, and the mask's backward adds `g·0 = ±0.0` to every
    /// other gradient entry, which leaves it unchanged.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[cfg(test)]
    pub fn select(&self, index: usize) -> Var<T> {
        let v = Matrix::filled(1, 1, T::ZERO + self.value_ref().data()[index]);
        Var::from_node(v, &[self], Op::Select(index))
    }

    /// Multiplies every entry by the constant `s`.
    pub fn scale(&self, s: T) -> Var<T> {
        let v = self.value_ref().scale(s);
        Var::from_node(v, &[self], Op::ScaleConst(s))
    }

    /// Adds the constant `s` to every entry.
    pub fn add_const(&self, s: T) -> Var<T> {
        let v = self.value_ref().map(|x| x + s);
        Var::from_node(v, &[self], Op::AddConst)
    }

    /// Element-wise product with a constant matrix (no gradient flows into the
    /// mask). This is the primitive behind masked losses and the
    /// sparsity-friendly attention of BiSIM.
    pub fn mask(&self, mask: &Matrix<T>) -> Var<T> {
        let v = self.value_ref().hadamard(mask);
        Var::from_node(v, &[self], Op::HadamardConst(mask.clone()))
    }

    /// Logistic sigmoid applied element-wise (the shared
    /// [`Scalar::sigmoid`] definition).
    pub fn sigmoid(&self) -> Var<T> {
        let v = self.value_ref().map(Scalar::sigmoid);
        Var::from_node(v, &[self], Op::Sigmoid)
    }

    /// Hyperbolic tangent applied element-wise.
    pub fn tanh(&self) -> Var<T> {
        let v = self.value_ref().map(Scalar::tanh);
        Var::from_node(v, &[self], Op::Tanh)
    }

    /// ReLU applied element-wise (the shared [`Scalar::relu`] definition).
    pub fn relu(&self) -> Var<T> {
        let v = self.value_ref().map(Scalar::relu);
        Var::from_node(v, &[self], Op::Relu)
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var<T> {
        let v = self.value_ref().map(Scalar::exp);
        Var::from_node(v, &[self], Op::Exp)
    }

    /// Element-wise square.
    pub fn square(&self) -> Var<T> {
        let v = self.value_ref().map(|x| x * x);
        Var::from_node(v, &[self], Op::Square)
    }

    /// Sum of all entries as a 1×1 variable.
    pub fn sum(&self) -> Var<T> {
        let v = Matrix::filled(1, 1, self.value_ref().sum());
        Var::from_node(v, &[self], Op::Sum)
    }

    /// Mean of all entries as a 1×1 variable.
    pub fn mean(&self) -> Var<T> {
        let v = Matrix::filled(1, 1, self.value_ref().mean());
        Var::from_node(v, &[self], Op::Mean)
    }

    /// Vertically concatenates several variables (all with the same column
    /// count) into one.
    ///
    /// # Panics
    /// Panics on an empty input or mismatching column counts.
    #[cfg(test)]
    pub fn concat_rows(vars: &[Var<T>]) -> Var<T> {
        assert!(!vars.is_empty(), "concat_rows needs at least one variable");
        let cols = vars[0].shape().1;
        let rows: usize = vars.iter().map(|v| v.shape().0).sum();
        // The per-parent row counts live in the op for the backward split.
        let mut counts = Vec::with_capacity(vars.len());
        let mut data = Vec::with_capacity(rows * cols);
        for v in vars {
            let m = v.value_ref();
            assert_eq!(m.cols(), cols, "concat_rows column mismatch");
            counts.push(m.rows());
            data.extend_from_slice(m.data());
        }
        let value = Matrix::from_vec(rows, cols, data);
        Var::from_node_with(value, vars.iter(), Op::ConcatRows(counts))
    }

    /// Softmax over a column vector (shape `(n, 1)`), numerically stabilised.
    ///
    /// # Panics
    /// Panics if the variable is not a column vector.
    #[cfg(test)]
    pub fn softmax_col(&self) -> Var<T> {
        let v = self.value_ref();
        assert_eq!(v.cols(), 1, "softmax_col expects a column vector");
        let max = v.max().unwrap_or(T::ZERO);
        let exps = v.map(|x| (x - max).exp());
        drop(v);
        let total = exps.sum();
        let out = exps.map(|e| e / total);
        Var::from_node(out, &[self], Op::SoftmaxCol)
    }

    /// Multiplies every entry of `self` by the 1×1 variable `s` (broadcast).
    #[cfg(test)]
    pub fn mul_scalar_var(&self, s: &Var<T>) -> Var<T> {
        assert_eq!(s.shape(), (1, 1), "mul_scalar_var expects a 1x1 scalar Var");
        let sv = s.scalar_value();
        let v = self.value_ref().scale(sv);
        Var::from_node(v, &[self, s], Op::MulScalarVar)
    }

    /// One LSTM step as one graph node: bitwise the value `h` and every
    /// gradient of the chain it replaces —
    ///
    /// ```text
    /// x = concat_rows([concat_rows(parts), h_prev])
    /// i = σ(W_i·x + b_i), f = σ(W_f·x + b_f), o = σ(W_o·x + b_o), g = tanh(W_g·x + b_g)
    /// c = f ⊙ c_prev + i ⊙ g,  h = o ⊙ tanh(c)
    /// ```
    ///
    /// with `gates = [(W_i, b_i), (W_f, b_f), (W_o, b_o), (W_g, b_g)]`. The
    /// cell state `c` stays inside the node: `carried` is the previous
    /// step's node (`None` for a zero state), whose `c` this step reads and
    /// to whose `c` gradient it adds `∂c_prev` during backward, before that
    /// node runs. Constant input parts get no node, and the columns of
    /// `Wᵀδ` that would feed them are never computed.
    ///
    /// The parents are, in order, `[W_o, b_o, W_f, b_f, carried, W_i, b_i,
    /// W_g, node parts…, h_prev, b_g]`: the reverse of the order in which
    /// the chain's DFS first enters them (see the module doc).
    ///
    /// # Panics
    /// Panics if `carried` is not an `lstm_cell` node or a shape disagrees.
    pub fn lstm_cell(
        parts: &[InputPart<'_, T>],
        h_prev: &Var<T>,
        carried: Option<&Var<T>>,
        gates: [(&Var<T>, &Var<T>); 4],
    ) -> Var<T> {
        let hidden = h_prev.shape().0;
        let n = parts.iter().map(InputPart::rows).sum::<usize>() + hidden;
        let mut cache = Matrix::zeros(8 * hidden + n, 1);
        let mut spans = Vec::new();
        let mut h = Matrix::zeros(hidden, 1);
        {
            let (state, x) = cache.data_mut().split_at_mut(8 * hidden);
            let mut offset = 0;
            for part in parts {
                let rows = part.rows();
                match part {
                    InputPart::Node(v) => {
                        x[offset..offset + rows].copy_from_slice(v.value_ref().data());
                        spans.extend([offset, rows]);
                    }
                    InputPart::Const(m) => x[offset..offset + rows].copy_from_slice(m.data()),
                }
                offset += rows;
            }
            x[offset..].copy_from_slice(h_prev.value_ref().data());
            let (acts, state) = state.split_at_mut(4 * hidden);
            let (c, state) = state.split_at_mut(hidden);
            let (tanh_c, state) = state.split_at_mut(hidden);
            let c_prev = &mut state[..hidden];
            if let Some(prev) = carried {
                c_prev.copy_from_slice(&prev.carried_state());
            }
            let values = gates.map(|(w, b)| (w.value_ref(), b.value_ref()));
            let weights: recurrent::LstmGates<'_, T> =
                std::array::from_fn(|q| (&*values[q].0, &*values[q].1));
            recurrent::lstm_cell_forward(&weights, x, c_prev, acts, c, tanh_c, h.data_mut());
        }
        let [(wi, bi), (wf, bf), (wo, bo), (wg, bg)] = gates;
        let nodes = parts.iter().filter_map(|part| match part {
            InputPart::Node(v) => Some(*v),
            InputPart::Const(_) => None,
        });
        let parents = [wo, bo, wf, bf]
            .into_iter()
            .chain(carried)
            .chain([wi, bi, wg])
            .chain(nodes)
            .chain([h_prev, bg]);
        let op = Op::LstmCell {
            cache,
            spans,
            carried: carried.is_some(),
        };
        Var::from_node_with(h, parents, op)
    }

    /// Borrow of the cell state of an `lstm_cell` node.
    fn carried_state(&self) -> Ref<'_, [T]> {
        Ref::map(self.node.borrow(), |n| match &n.op {
            Op::LstmCell { cache, .. } => {
                let hidden = n.value.rows();
                &cache.data()[4 * hidden..5 * hidden]
            }
            _ => panic!("the carried state must come from an lstm_cell node"),
        })
    }

    /// One decoder step of Bahdanau attention as one graph node (BiSIM Eq.
    /// 10–12): for the decoder state `self` and the keys `h''_1..h''_T`,
    /// bitwise the context vector and every gradient of the chain it
    /// replaces —
    ///
    /// ```text
    /// e_i = W2·tanh(W1·concat_rows([s, h''_i]) + b1) + b2    (one affine, tanh, affine per key)
    /// w   = softmax_col(concat_rows([e_1, …, e_T]))
    /// ctx = ((0 + h''_1·select(w, 1)) + h''_2·select(w, 2)) + …  (mul_scalar_var, add)
    /// ```
    ///
    /// with `align = [W1, b1, W2, b2]` (a one-row `W2`). The forward is
    /// [`recurrent::attention_forward`], which the tapes call too. The
    /// parents are, in order, `[h''_1, …, h''_{T−1}, W2, W1, s, h''_T, b1,
    /// b2]`: the reverse of the order in which the chain's DFS first enters
    /// them (see the module doc).
    ///
    /// # Panics
    /// Panics if `keys` is empty or a shape disagrees.
    pub fn attention(&self, keys: &[Var<T>], align: [&Var<T>; 4]) -> Var<T> {
        let t = keys.len();
        assert!(t > 0, "attention needs at least one key");
        let hidden_size = self.shape().0;
        let mut hidden = Matrix::zeros(t, hidden_size);
        let mut weights = Matrix::zeros(t, 1);
        let mut context = Matrix::zeros(keys[0].shape().0, 1);
        let mut joint = vec![T::ZERO; hidden_size + context.rows()];
        {
            let values = align.map(Var::value_ref);
            let align_values: recurrent::AlignWeights<'_, T> = std::array::from_fn(|q| &*values[q]);
            let key = |i: usize| Ref::map(keys[i].value_ref(), |m| m.data());
            recurrent::attention_forward(
                &align_values,
                self.value_ref().data(),
                key,
                &mut joint,
                hidden.data_mut(),
                weights.data_mut(),
                context.data_mut(),
            );
        }
        let [w1, b1, w2, b2] = align;
        let parents = keys[..t - 1]
            .iter()
            .chain([w2, w1, self, &keys[t - 1], b1, b2]);
        Var::from_node_with(context, parents, Op::Attention { hidden, weights })
    }

    // ------------------------------------------------------------------
    // Backward pass
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from this scalar output.
    ///
    /// Gradients are *accumulated* into every reachable node with
    /// `requires_grad = true`; call [`Var::zero_grad`] (or an optimizer's
    /// `zero_grad`) between steps.
    ///
    /// # Panics
    /// Panics if this variable is not 1×1.
    pub fn backward(&self) {
        assert_eq!(self.shape(), (1, 1), "backward() requires a scalar output");
        self.node.borrow_mut().grad.data_mut().fill(T::ONE);
        let (mut order, mut frames) = (Vec::new(), Vec::new());
        self.topological_order_into(&mut order, &mut frames);
        for var in order.iter().rev() {
            var.propagate();
        }
    }

    /// Collects the non-leaf nodes reachable from `self` in topological
    /// order (parents before children) into `order`, with `frames` as the
    /// DFS stack. Nodes are marked visited with this pass's fresh stamp.
    /// Leaves are marked but not listed: their `propagate` is a no-op.
    fn topological_order_into(&self, order: &mut Vec<Var<T>>, frames: &mut Vec<Frame<T>>) {
        debug_assert!(order.is_empty() && frames.is_empty());
        let pass = NEXT_PASS.fetch_add(1, Ordering::Relaxed);
        // Iterative DFS with an explicit stack to avoid recursion limits on
        // long unrolled sequences.
        frames.push(Frame::Enter(self.clone()));
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    let mut n = v.node.borrow_mut();
                    if n.visit == pass {
                        continue;
                    }
                    n.visit = pass;
                    if n.parents.is_empty() {
                        continue;
                    }
                    frames.push(Frame::Exit(v.clone()));
                    frames.extend(n.parents.iter().map(|p| Frame::Enter(p.clone())));
                }
                Frame::Exit(v) => order.push(v),
            }
        }
    }

    /// Number of distinct nodes reachable from this one through parent
    /// links — itself, every intermediate and every leaf: the size of the
    /// graph a backward pass from here walks.
    pub fn graph_size(&self) -> usize {
        let pass = NEXT_PASS.fetch_add(1, Ordering::Relaxed);
        let mut stack = vec![self.clone()];
        let mut count = 0;
        while let Some(v) = stack.pop() {
            let mut n = v.node.borrow_mut();
            if n.visit == pass {
                continue;
            }
            n.visit = pass;
            count += 1;
            stack.extend(n.parents.iter().cloned());
        }
        count
    }

    /// Propagates this node's gradient to its parents, adding each term in
    /// place (see the module doc for why that is exact).
    ///
    /// Holds a shared borrow of this node across the whole dispatch: a node
    /// is created strictly after its parents, so it can never be its own
    /// parent and the `borrow_mut` of a parent cannot alias it. A parent may
    /// appear twice (e.g. `x.hadamard(&x)`), so terms that read a parent's
    /// value go through [`Var::add_zip_value`], which splits the borrow when
    /// the value and the gradient belong to the same node.
    fn propagate(&self) {
        let node = self.node.borrow();
        let g = node.grad.data();
        let parents = &node.parents;
        match &node.op {
            Op::Leaf => {}
            Op::Add | Op::AddConst => {
                for p in parents {
                    p.add_into(|d| GradTerm::Add(g).add_to_slice(d));
                }
            }
            Op::AddBroadcastCol => {
                parents[0].add_into(|d| GradTerm::Add(g).add_to_slice(d));
                parents[1].add_into(|d| add_row_sums(d, &node.grad));
            }
            Op::Sub => {
                parents[0].add_into(|d| GradTerm::Add(g).add_to_slice(d));
                parents[1].add_into(|d| add_map(d, g, |gi| gi * -T::ONE));
            }
            Op::Hadamard => {
                parents[0].add_zip_value(&parents[1], g, |gi, b| gi * b);
                parents[1].add_zip_value(&parents[0], g, |gi, a| gi * a);
            }
            Op::MatMul => matmul_backward(&parents[0], &parents[1], &node.grad),
            Op::Affine => {
                // The order of `add_broadcast_col` then `matmul` backward.
                parents[2].add_into(|d| add_row_sums(d, &node.grad));
                matmul_backward(&parents[0], &parents[1], &node.grad);
            }
            Op::ScaleConst(s) => parents[0].add_into(|d| add_map(d, g, |gi| gi * *s)),
            Op::HadamardConst(mask) => {
                parents[0].add_into(|d| add_zip(d, g, mask.data(), |gi, m| gi * m));
            }
            Op::Sigmoid => parents[0].add_into(|d| {
                add_zip(d, g, node.value.data(), |gi, y| gi * (y * (T::ONE - y)));
            }),
            Op::Tanh => parents[0].add_into(|d| {
                add_zip(d, g, node.value.data(), |gi, y| gi * (T::ONE - y * y));
            }),
            Op::Relu => parents[0].add_zip_value(&parents[0], g, |gi, v| {
                gi * if v > T::ZERO { T::ONE } else { T::ZERO }
            }),
            Op::Exp => parents[0].add_into(|d| add_zip(d, g, node.value.data(), |gi, y| gi * y)),
            Op::Square => {
                let two = T::from_f64(2.0);
                parents[0].add_zip_value(&parents[0], g, |gi, v| gi * (v * two));
            }
            Op::Sum => parents[0].add_into(|d| d.iter_mut().for_each(|e| *e += g[0])),
            Op::Mean => parents[0].add_into(|d| {
                let gi = g[0] / T::from_f64(d.len() as f64);
                d.iter_mut().for_each(|e| *e += gi);
            }),
            #[cfg(test)]
            Op::Select(i) => parents[0].add_into(|d| d[*i] += g[0]),
            #[cfg(test)]
            Op::ConcatRows(counts) => {
                let cols = node.grad.cols();
                let mut start = 0;
                for (parent, count) in parents.iter().zip(counts.iter()) {
                    let part = &g[start * cols..(start + count) * cols];
                    parent.add_into(|d| GradTerm::Add(part).add_to_slice(d));
                    start += count;
                }
            }
            #[cfg(test)]
            Op::SoftmaxCol => {
                // dX_i = y_i * (dY_i - sum_j dY_j y_j)
                let y = node.value.data();
                let dot = y
                    .iter()
                    .zip(g.iter())
                    .fold(T::ZERO, |acc, (&yi, &gi)| acc + yi * gi);
                parents[0].add_into(|d| add_zip(d, y, g, |yi, gi| yi * (gi - dot)));
            }
            #[cfg(test)]
            Op::MulScalarVar => {
                let s = parents[1].value_ref().get(0, 0);
                let ds = {
                    let a = parents[0].value_ref();
                    g.iter()
                        .zip(a.data().iter())
                        .fold(T::ZERO, |acc, (&gi, &av)| acc + gi * av)
                };
                parents[0].add_into(|d| add_map(d, g, |gi| gi * s));
                parents[1].add_into(|d| d[0] += ds);
            }
            Op::LstmCell {
                cache,
                spans,
                carried,
            } => lstm_cell_backward(parents, g, cache, spans, *carried),
            Op::Attention { hidden, weights } => attention_backward(parents, g, hidden, weights),
        }
    }

    /// Runs `add` on this node's gradient entries, unless it keeps none
    /// (see [`Node::keeps_grad`]).
    fn add_into(&self, add: impl FnOnce(&mut [T])) {
        let mut n = self.node.borrow_mut();
        if n.keeps_grad() {
            add(n.grad.data_mut());
        }
    }

    /// `grad[j] += term(g[j], src.value[j])` into this node's gradient,
    /// where `src` may be this very node.
    fn add_zip_value(&self, src: &Var<T>, g: &[T], term: impl Fn(T, T) -> T) {
        if Rc::ptr_eq(&self.node, &src.node) {
            let mut n = self.node.borrow_mut();
            if n.keeps_grad() {
                let n = &mut *n;
                add_zip(n.grad.data_mut(), g, n.value.data(), term);
            }
        } else {
            let value = src.value_ref();
            self.add_into(|d| add_zip(d, g, value.data(), term));
        }
    }

    /// Whether gradients reaching this node are kept.
    fn needs_grad(&self) -> bool {
        self.node.borrow().keeps_grad()
    }

    /// Adds a materialised gradient term into this node's gradient.
    fn accumulate(&self, delta: &Matrix<T>) {
        self.add_into(|d| GradTerm::Add(delta.data()).add_to_slice(d));
    }

    /// Adds a fused backward's term into this node's gradient, unless it
    /// keeps none.
    fn add_term(&self, term: GradTerm<'_, T>) {
        let mut n = self.node.borrow_mut();
        if n.keeps_grad() {
            term.add_to(&mut n.grad);
        }
    }
}

/// `d[j] += term(a[j])`.
#[inline(always)]
fn add_map<T: Scalar>(d: &mut [T], a: &[T], term: impl Fn(T) -> T) {
    for (e, &ai) in d.iter_mut().zip(a) {
        *e += term(ai);
    }
}

/// `d[j] += term(a[j], b[j])`.
#[inline(always)]
fn add_zip<T: Scalar>(d: &mut [T], a: &[T], b: &[T], term: impl Fn(T, T) -> T) {
    for ((e, &ai), &bi) in d.iter_mut().zip(a).zip(b) {
        *e += term(ai, bi);
    }
}

/// `d[r] += Σ_c g[r, c]`, each row summed from `+0.0` in column order: the
/// gradient of a broadcast column.
fn add_row_sums<T: Scalar>(d: &mut [T], g: &Matrix<T>) {
    for (r, e) in d.iter_mut().enumerate() {
        *e += g.row(r).iter().fold(T::ZERO, |acc, &v| acc + v);
    }
}

/// The backward pass of `C = A · B` for the output gradient `grad`.
fn matmul_backward<T: Scalar>(a: &Var<T>, b: &Var<T>, grad: &Matrix<T>) {
    if a.needs_grad() {
        if b.shape().1 == 1 && !Rc::ptr_eq(&a.node, &b.node) {
            // dA = dC · Bᵀ is rank-1 against a column B: add it straight
            // into A's gradient buffer (bitwise the same as accumulating the
            // product; see `Matrix::add_outer`).
            let x = b.value_ref();
            a.node.borrow_mut().grad.add_outer(grad.data(), x.data());
        } else {
            // The blocked kernel into a fresh buffer: a one-off transpose
            // is cheaper than losing the vectorised inner loop.
            let bt = b.value_ref().transpose();
            let mut da = Matrix::zeros(grad.rows(), bt.cols());
            grad.matmul_into(&bt, &mut da);
            a.accumulate(&da);
        }
    }
    if b.needs_grad() {
        // dB = Aᵀ · dC through the transposed kernel, which is axpy-shaped
        // like the blocked one and skips the transpose.
        let db = a.value_ref().matmul_at_b(grad);
        b.accumulate(&db);
    }
}

/// The backward pass of [`Var::lstm_cell`] for the output gradient `g`
/// (`∂h`): [`recurrent::lstm_cell_backward`], each term added into
/// the parent it names (see there for the order).
fn lstm_cell_backward<T: Scalar>(
    parents: &[Var<T>],
    g: &[T],
    cache: &Matrix<T>,
    spans: &[usize],
    carried: bool,
) {
    use recurrent::LstmInput;
    let hidden = g.len();
    let n = cache.len() - 8 * hidden;
    let base = if carried { 5 } else { 4 };
    let parts = spans.len() / 2;
    let parent = move |input: LstmInput| match input {
        LstmInput::Weight(2) => &parents[0],
        LstmInput::Bias(2) => &parents[1],
        LstmInput::Weight(1) => &parents[2],
        LstmInput::Bias(1) => &parents[3],
        LstmInput::Carried => &parents[4],
        LstmInput::Weight(0) => &parents[base],
        LstmInput::Bias(0) => &parents[base + 1],
        LstmInput::Weight(_) => &parents[base + 2],
        LstmInput::Part(k) => &parents[base + 3 + k],
        LstmInput::Hidden => &parents[base + 3 + parts],
        LstmInput::Bias(_) => &parents[base + 4 + parts],
    };
    let mut scratch = Matrix::zeros(recurrent::lstm_backward_scratch_len(hidden, n), 1);
    recurrent::lstm_cell_backward(
        |q| parent(LstmInput::Weight(q)).value_ref(),
        g,
        cache.data(),
        spans,
        |input| match input {
            LstmInput::Carried => carried,
            _ => parent(input).needs_grad(),
        },
        scratch.data_mut(),
        |input, term| match input {
            LstmInput::Carried => {
                let mut prev = parents[4].node.borrow_mut();
                let Op::LstmCell { cache, .. } = &mut prev.op else {
                    unreachable!("the carried state comes from an lstm_cell node");
                };
                term.add_to_slice(&mut cache.data_mut()[7 * hidden..8 * hidden]);
            }
            _ => parent(input).add_term(term),
        },
    );
}

/// The backward pass of [`Var::attention`] for the output gradient `g`
/// (`∂ctx`): [`recurrent::attention_backward`], each term added into
/// the parent it names (see there for the order).
fn attention_backward<T: Scalar>(
    parents: &[Var<T>],
    g: &[T],
    hidden: &Matrix<T>,
    weights: &Matrix<T>,
) {
    use recurrent::AttentionInput;
    let (t, h) = hidden.shape();
    let parent = move |input: AttentionInput| match input {
        AttentionInput::Key(i) => &parents[attention_key(t, i)],
        AttentionInput::W2 => &parents[t - 1],
        AttentionInput::W1 => &parents[t],
        AttentionInput::State => &parents[t + 1],
        AttentionInput::B1 => &parents[t + 3],
        AttentionInput::B2 => &parents[t + 4],
    };
    let mut scratch = Matrix::zeros(recurrent::attention_backward_scratch_len(t, h, g.len()), 1);
    recurrent::attention_backward(
        |input| parent(input).value_ref(),
        Ref::map(parent(AttentionInput::State).value_ref(), Matrix::data),
        |i| Ref::map(parent(AttentionInput::Key(i)).value_ref(), Matrix::data),
        hidden.data(),
        weights.data(),
        g,
        |input| parent(input).needs_grad(),
        scratch.data_mut(),
        |input, term| parent(input).add_term(term),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backward pass of `W · x` against a column writes `dW += g·xᵀ` in
    /// place; it must equal the route it replaced — the product
    /// materialised from `+0.0` and accumulated — bit for bit, including
    /// over repeated uses of `W` (an unrolled recurrence) and `±0.0` in the
    /// column. The forward value the gradient reads is the single-column
    /// product. A constant column's gradient is never computed.
    #[test]
    fn matmul_backward_against_a_column_matches_the_materialised_route() {
        let w0 = Matrix::from_fn(5, 19, |r, c| ((r * 19 + c) as f64 * 0.37).sin());
        let xs: Vec<Matrix> = (0..3)
            .map(|t| {
                Matrix::from_fn(19, 1, |r, _| match (r + t) % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    k => (k as f64 - 2.5) * 0.3,
                })
            })
            .collect();
        let w = Var::parameter(w0.clone());
        let consts: Vec<Var> = xs.iter().map(|x| Var::constant(x.clone())).collect();
        let mut total = Var::scalar(0.0);
        for x in &consts {
            total = total.add(&w.matmul(x).tanh().sum());
        }
        total.backward();

        let mut want = Matrix::zeros(5, 19);
        for x in &xs {
            let g = w0.matmul(x).map(|y| {
                let t = y.tanh();
                1.0 - t * t
            });
            want = &want + &g.matmul_naive(&x.transpose());
        }
        assert!(
            w.grad().bits_eq(&want),
            "in-place dW drifted from the old route"
        );
        for x in &consts {
            assert!(x.grad().bits_eq(&Matrix::zeros(19, 1)));
        }
    }

    /// Entries with exact `+0.0` and `-0.0` mixed into smooth values, so the
    /// signed-zero side of the fused nodes' exactness arguments is hit.
    fn signed_zero_fill(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| match (r * cols + c + salt) % 7 {
            0 => 0.0,
            1 => -0.0,
            k => ((k * 31 + r * 7 + c * 3 + salt) as f64 * 0.61).sin(),
        })
    }

    #[track_caller]
    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert!(got.bits_eq(want), "{what}: {got:?} vs {want:?}");
    }

    /// `W.affine(x, b)` against `W.matmul(x).add_broadcast_col(b)`, bit for
    /// bit on the value and on every gradient: for a column `x`, a
    /// multi-column `x`, and an `x` that several consumers share (two affine
    /// maps and an element-wise op). In the `derived` runs `W`, `x` and `b`
    /// are computed from one scalar `s` that also scales the loss, so `s`
    /// gets three or more gradient terms whose summation order is the DFS
    /// order of the affine node's parents: a fused node that listed them in
    /// another order would change `s`'s gradient bits.
    #[test]
    fn affine_matches_matmul_then_broadcast_add_bitwise() {
        let shapes = [(5, 19, 1), (4, 6, 3), (17, 33, 1), (3, 2, 5)];
        for ((rows, inner, cols), salt) in
            shapes.into_iter().flat_map(|s| (0..4).map(move |k| (s, k)))
        {
            let w_val = [
                signed_zero_fill(rows, inner, salt + 1),
                signed_zero_fill(rows, inner, salt + 2),
            ];
            let b_val = [
                signed_zero_fill(rows, 1, salt + 3),
                signed_zero_fill(rows, 1, salt + 4),
            ];
            let x_val = signed_zero_fill(inner, cols, salt + 5);
            let run = |fused: bool, derived: bool| {
                let s = Var::parameter(Matrix::filled(1, 1, 0.7));
                let leaf = |m: &Matrix| {
                    let p = Var::parameter(m.clone());
                    let v = if derived {
                        p.mul_scalar_var(&s)
                    } else {
                        p.clone()
                    };
                    (p, v)
                };
                let (w, w_in): (Vec<Var>, Vec<Var>) = w_val.iter().map(leaf).unzip();
                let (b, b_in): (Vec<Var>, Vec<Var>) = b_val.iter().map(leaf).unzip();
                let (x, x_in) = leaf(&x_val);
                let layer = |i: usize| {
                    if fused {
                        w_in[i].affine(&x_in, &b_in[i])
                    } else {
                        w_in[i].matmul(&x_in).add_broadcast_col(&b_in[i])
                    }
                };
                let y0 = layer(0);
                let y1 = layer(1);
                let loss = y0
                    .tanh()
                    .hadamard(&y1.sigmoid())
                    .sum()
                    .add(&x.square().mean())
                    .add(&y0.sum())
                    .mul_scalar_var(&s);
                loss.backward();
                let mut out = vec![y0.value(), y1.value(), loss.value(), x.grad(), s.grad()];
                out.extend(w.iter().chain(&b).map(Var::grad));
                out
            };
            for derived in [false, true] {
                let (got, want) = (run(true, derived), run(false, derived));
                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                    let what = format!("{rows}x{inner}x{cols}/{salt} derived={derived} output {i}");
                    assert_bits(got, want, &what);
                }
            }
        }
    }

    /// `v.select(i)` against the chain it replaces, a one-hot mask then a
    /// sum (written out here as the oracle), bit for bit on the value and on
    /// the gradient, including a selected `-0.0` and a negative upstream
    /// gradient.
    #[test]
    fn select_matches_one_hot_mask_sum_bitwise() {
        let (rows, cols) = (3, 4);
        let v_val = signed_zero_fill(rows, cols, 0);
        for i in 0..rows * cols {
            let one_hot =
                Matrix::from_fn(rows, cols, |r, c| if r * cols + c == i { 1.0 } else { 0.0 });
            let run = |fused: bool| {
                let v = Var::parameter(v_val.clone());
                let picked = if fused {
                    v.select(i)
                } else {
                    v.mask(&one_hot).sum()
                };
                let loss = picked
                    .scale(-0.75)
                    .add(&picked.square())
                    .add(&v.tanh().sum());
                loss.backward();
                [picked.value(), loss.value(), v.grad()]
            };
            for (got, want) in run(true).iter().zip(&run(false)) {
                assert_bits(got, want, &format!("select({i})"));
            }
        }
    }

    /// The LSTM step [`Var::lstm_cell`] replaces, written out from public
    /// ops: the input parts and `h_prev` concatenated, four affine gates,
    /// `c = f ⊙ c_prev + i ⊙ g`, `h = o ⊙ tanh(c)`.
    fn lstm_chain(parts: &[Var], h_prev: &Var, c_prev: &Var, gates: &[(Var, Var)]) -> (Var, Var) {
        let input = match parts {
            [single] => single.clone(),
            _ => Var::concat_rows(parts),
        };
        let x = Var::concat_rows(&[input, h_prev.clone()]);
        let i = gates[0].0.affine(&x, &gates[0].1).sigmoid();
        let f = gates[1].0.affine(&x, &gates[1].1).sigmoid();
        let o = gates[2].0.affine(&x, &gates[2].1).sigmoid();
        let g = gates[3].0.affine(&x, &gates[3].1).tanh();
        let c = f.hadamard(c_prev).add(&i.hadamard(&g));
        let h = o.hadamard(&c.tanh());
        (h, c)
    }

    /// `Var::lstm_cell` against the chain it replaces ([`lstm_chain`]), bit
    /// for bit on every step's `h`, the loss and every gradient, over a
    /// 6-step recurrence through the carried `c`: encoder-shaped input (a
    /// node part and a constant mask part), decoder-shaped input (two node
    /// parts) and a single node part, each with and without a decayed `h`
    /// between steps. Every step's node parts are computed from the
    /// previous `h`, as BiSIM's estimate is, so `h` has several readers. In
    /// the `derived` runs every leaf is scaled by one scalar `s` that also
    /// scales the loss, so a term handed out in another order changes `s`'s
    /// gradient bits.
    #[test]
    fn lstm_cell_matches_the_primitive_chain_bitwise() {
        const STEPS: usize = 6;
        // (rows of each node part, rows of the constant part, hidden size)
        let shapes: [(&[usize], usize, usize); 3] = [(&[5], 5, 8), (&[2, 5], 0, 6), (&[4], 0, 17)];
        for (shape, decayed, derived) in shapes
            .into_iter()
            .flat_map(|sh| [false, true].map(move |d| (sh, d)))
            .flat_map(|(sh, d)| [false, true].map(move |v| (sh, d, v)))
        {
            let (node_rows, const_rows, hidden) = shape;
            let n = node_rows.iter().sum::<usize>() + const_rows + hidden;
            let run = |fused: bool| {
                let s = Var::parameter(Matrix::filled(1, 1, 0.7));
                let mut leaves = Vec::new();
                let mut leaf = |m: Matrix| {
                    let p = Var::parameter(m);
                    leaves.push(p.clone());
                    if derived {
                        p.mul_scalar_var(&s)
                    } else {
                        p
                    }
                };
                let gates: Vec<(Var, Var)> = (0..4)
                    .map(|q| {
                        (
                            leaf(signed_zero_fill(hidden, n, 10 + q)),
                            leaf(signed_zero_fill(hidden, 1, 20 + q)),
                        )
                    })
                    .collect();
                // One map per node part from the previous `h`.
                let reads: Vec<(Var, Var)> = node_rows
                    .iter()
                    .enumerate()
                    .map(|(k, &rows)| {
                        (
                            leaf(signed_zero_fill(rows, hidden, 30 + k)),
                            leaf(signed_zero_fill(rows, 1, 40 + k)),
                        )
                    })
                    .collect();
                let gammas: Vec<Var> = (0..STEPS)
                    .map(|t| leaf(signed_zero_fill(hidden, 1, 50 + t).map(|v| 0.5 + 0.4 * v)))
                    .collect();
                let mask =
                    signed_zero_fill(const_rows, 1, 3).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                let mut h = Var::constant(Matrix::zeros(hidden, 1));
                let mut c_chain = Var::constant(Matrix::zeros(hidden, 1));
                let mut carried: Option<Var> = None;
                let mut hs = Vec::new();
                let mut loss = Var::scalar(0.0);
                for gamma in &gammas {
                    let parts: Vec<Var> =
                        reads.iter().map(|(w, b)| w.affine(&h, b).tanh()).collect();
                    let h_in = if decayed {
                        h.hadamard(gamma)
                    } else {
                        h.clone()
                    };
                    h = if fused {
                        let mut input: Vec<InputPart<'_, f64>> =
                            parts.iter().map(InputPart::Node).collect();
                        if const_rows > 0 {
                            input.push(InputPart::Const(&mask));
                        }
                        let gate_refs: Vec<(&Var, &Var)> =
                            gates.iter().map(|(w, b)| (w, b)).collect();
                        let next = Var::lstm_cell(
                            &input,
                            &h_in,
                            carried.as_ref(),
                            [gate_refs[0], gate_refs[1], gate_refs[2], gate_refs[3]],
                        );
                        carried = Some(next.clone());
                        next
                    } else {
                        let mut input = parts.clone();
                        if const_rows > 0 {
                            input.push(Var::constant(mask.clone()));
                        }
                        let (next, c) = lstm_chain(&input, &h_in, &c_chain, &gates);
                        c_chain = c;
                        next
                    };
                    loss = loss.add(&h.tanh().sum()).add(&parts[0].square().mean());
                    hs.push(h.value());
                }
                let loss = loss.add(&h.square().sum()).mul_scalar_var(&s);
                loss.backward();
                let mut out = hs;
                out.push(loss.value());
                out.push(s.grad());
                out.extend(leaves.iter().map(Var::grad));
                out
            };
            let (got, want) = (run(true), run(false));
            assert_eq!(got.len(), want.len());
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let what = format!("{shape:?} decayed={decayed} derived={derived} output {i}");
                assert_bits(got, want, &what);
            }
        }
    }

    /// The attention step [`Var::attention`] replaces, written out from
    /// public ops: per key a joint concat, the two-layer alignment MLP, then
    /// the energies' softmax and the selected-weight sum from a zero
    /// constant.
    fn attention_chain(s: &Var, keys: &[Var], align: &[Var; 4]) -> Var {
        let [w1, b1, w2, b2] = align;
        let energies: Vec<Var> = keys
            .iter()
            .map(|k| {
                let joint = Var::concat_rows(&[s.clone(), k.clone()]);
                w2.affine(&w1.affine(&joint, b1).tanh(), b2)
            })
            .collect();
        let weights = Var::concat_rows(&energies).softmax_col();
        let mut context = Var::constant(Matrix::zeros(keys[0].shape().0, 1));
        for (i, k) in keys.iter().enumerate() {
            context = context.add(&k.mul_scalar_var(&weights.select(i)));
        }
        context
    }

    /// `Var::attention` against the chain it replaces ([`attention_chain`]),
    /// bit for bit on both contexts, the loss and every gradient, for
    /// `T ∈ {1, 2, 5}` keys and `H ∈ {8, 32}`, over two decoder-like steps:
    /// the second step's state is computed from the first step's context,
    /// and the keys (masked affine maps, as BiSIM's transformed latents are,
    /// so some entries are `±0.0`) have other readers too. In the `derived`
    /// runs every leaf is scaled by one scalar `s` that also scales the
    /// loss, so summation order shows in `s`'s gradient.
    #[test]
    fn attention_matches_the_primitive_chain_bitwise() {
        let aps = 7;
        for (t, hidden, derived) in [1, 2, 5]
            .into_iter()
            .flat_map(|t| [8, 32].map(move |h| (t, h)))
            .flat_map(|(t, h)| [false, true].map(move |d| (t, h, d)))
        {
            let run = |fused: bool| {
                let s = Var::parameter(Matrix::filled(1, 1, 0.7));
                let mut leaves = Vec::new();
                let mut leaf = |m: Matrix| {
                    let p = Var::parameter(m);
                    leaves.push(p.clone());
                    if derived {
                        p.mul_scalar_var(&s)
                    } else {
                        p
                    }
                };
                let align = [
                    leaf(signed_zero_fill(hidden, hidden + aps, 1)),
                    leaf(signed_zero_fill(hidden, 1, 2)),
                    leaf(signed_zero_fill(1, hidden, 3)),
                    leaf(signed_zero_fill(1, 1, 4)),
                ];
                let (wk, bk) = (
                    leaf(signed_zero_fill(aps, hidden, 5)),
                    leaf(signed_zero_fill(aps, 1, 6)),
                );
                let keys: Vec<Var> = (0..t)
                    .map(|i| {
                        let latent = leaf(signed_zero_fill(hidden, 1, 7 + i));
                        let mask =
                            signed_zero_fill(aps, 1, i).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                        wk.affine(&latent, &bk).mask(&mask)
                    })
                    .collect();
                let (ws, bs) = (
                    leaf(signed_zero_fill(hidden, aps + hidden, 20)),
                    leaf(signed_zero_fill(hidden, 1, 21)),
                );
                let s0 = leaf(signed_zero_fill(hidden, 1, 22));
                let attend = |state: &Var| {
                    if fused {
                        state.attention(&keys, [&align[0], &align[1], &align[2], &align[3]])
                    } else {
                        attention_chain(state, &keys, &align)
                    }
                };
                let ctx1 = attend(&s0);
                let s1 = ws
                    .affine(&Var::concat_rows(&[ctx1.clone(), s0.clone()]), &bs)
                    .tanh();
                let ctx2 = attend(&s1);
                // The loss's DFS enters the second attention node first, so
                // the order of its parent list decides which of its inputs'
                // subgraphs (`s1`, holding the first step, or the keys) is
                // explored first.
                let loss = keys[0]
                    .square()
                    .mean()
                    .add(&s1.sum())
                    .add(&ctx1.square().sum())
                    .add(&ctx2.tanh().sum())
                    .mul_scalar_var(&s);
                loss.backward();
                let mut out = vec![ctx1.value(), ctx2.value(), loss.value(), s.grad()];
                out.extend(leaves.iter().map(Var::grad));
                out
            };
            let (got, want) = (run(true), run(false));
            assert_eq!(got.len(), want.len());
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let what = format!("T={t} H={hidden} derived={derived} output {i}");
                assert_bits(got, want, &what);
            }
        }
    }

    /// A parent listed twice gets both terms, in order, against gradients
    /// computed by hand: `x ⊙ x` adds `g·x` twice, `x + x` adds `g` twice.
    #[test]
    fn a_parent_used_twice_gets_both_terms() {
        let x_val = signed_zero_fill(3, 5, 2);
        let g = 0.3;

        let x = Var::parameter(x_val.clone());
        x.hadamard(&x).scale(g).sum().backward();
        let want = x_val.map(|v| (0.0 + g * v) + g * v);
        assert_bits(&x.grad(), &want, "x.hadamard(&x)");

        let x = Var::parameter(x_val.clone());
        x.add(&x).scale(g).sum().backward();
        let want = Matrix::filled(3, 5, (0.0 + g) + g);
        assert_bits(&x.grad(), &want, "x.add(&x)");
    }

    /// Numerically checks `d loss / d param[idx]` against autodiff.
    fn numeric_grad(param: &Var, idx: (usize, usize), loss_fn: impl Fn() -> Var, eps: f64) -> f64 {
        let original = param.value();
        let mut plus = original.clone();
        plus[(idx.0, idx.1)] += eps;
        param.set_value(plus);
        let l_plus = loss_fn().scalar_value();

        let mut minus = original.clone();
        minus[(idx.0, idx.1)] -= eps;
        param.set_value(minus);
        let l_minus = loss_fn().scalar_value();

        param.set_value(original);
        (l_plus - l_minus) / (2.0 * eps)
    }

    #[test]
    fn add_and_sub_gradients() {
        let a = Var::parameter(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = Var::parameter(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let loss = a.add(&b).sub(&b).hadamard(&a).sum();
        loss.backward();
        // loss = sum(a * a) -> d/da = 2a
        assert!(a
            .grad()
            .approx_eq(&Matrix::from_vec(2, 2, vec![2.0, 4.0, 6.0, 8.0]), 1e-9));
    }

    #[test]
    fn matmul_gradient_matches_numeric() {
        let w = Var::parameter(Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]));
        let x = Var::constant(Matrix::from_vec(3, 1, vec![1.0, 2.0, -1.0]));
        let loss_fn = || w.matmul(&x).square().sum();
        let loss = loss_fn();
        loss.backward();
        let analytic = w.grad();
        for r in 0..2 {
            for c in 0..3 {
                let numeric = numeric_grad(&w, (r, c), loss_fn, 1e-6);
                assert!(
                    (analytic.get(r, c) - numeric).abs() < 1e-5,
                    "grad mismatch at ({r},{c}): {} vs {}",
                    analytic.get(r, c),
                    numeric
                );
            }
        }
    }

    #[test]
    fn sigmoid_tanh_relu_exp_gradients_match_numeric() {
        let x = Var::parameter(Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, -0.3]));
        let loss_fn = || {
            let s = x.sigmoid();
            let t = x.tanh();
            let r = x.relu();
            let e = x.scale(0.1).exp();
            s.add(&t).add(&r).add(&e).sum()
        };
        let loss = loss_fn();
        loss.backward();
        let analytic = x.grad();
        for r in 0..2 {
            for c in 0..2 {
                let numeric = numeric_grad(&x, (r, c), loss_fn, 1e-6);
                assert!(
                    (analytic.get(r, c) - numeric).abs() < 1e-5,
                    "grad mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn softmax_gradient_matches_numeric() {
        let x = Var::parameter(Matrix::column(&[0.1, 0.7, -0.4, 0.2]));
        let weights = Matrix::column(&[1.0, -2.0, 0.5, 3.0]);
        let loss_fn = || x.softmax_col().mask(&weights).sum();
        let loss = loss_fn();
        loss.backward();
        let analytic = x.grad();
        for r in 0..4 {
            let numeric = numeric_grad(&x, (r, 0), loss_fn, 1e-6);
            assert!(
                (analytic.get(r, 0) - numeric).abs() < 1e-6,
                "softmax grad mismatch at {r}: {} vs {}",
                analytic.get(r, 0),
                numeric
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn softmax_is_a_probability_vector(
            data in proptest::collection::vec(-20.0f64..20.0, 1..16),
        ) {
            let x = Var::constant(Matrix::column(&data));
            let y = x.softmax_col().value();
            proptest::prop_assert!((y.sum() - 1.0).abs() < 1e-9);
            proptest::prop_assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_output_sums_to_one() {
        let x = Var::constant(Matrix::column(&[10.0, 20.0, 30.0]));
        let y = x.softmax_col().value();
        assert!((y.sum() - 1.0).abs() < 1e-12);
        assert!(y.data().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn broadcast_add_gradient() {
        let w = Var::parameter(Matrix::from_vec(2, 3, vec![1.0; 6]));
        let b = Var::parameter(Matrix::column(&[0.5, -0.5]));
        let loss_fn = || w.add_broadcast_col(&b).square().sum();
        let loss = loss_fn();
        loss.backward();
        let analytic_b = b.grad();
        for r in 0..2 {
            let numeric = numeric_grad(&b, (r, 0), loss_fn, 1e-6);
            assert!((analytic_b.get(r, 0) - numeric).abs() < 1e-5);
        }
    }

    #[test]
    fn concat_rows_routes_gradients() {
        let a = Var::parameter(Matrix::column(&[1.0, 2.0]));
        let b = Var::parameter(Matrix::column(&[3.0]));
        let mask = Matrix::column(&[1.0, 0.0, 2.0]);
        let loss = Var::concat_rows(&[a.clone(), b.clone()]).mask(&mask).sum();
        loss.backward();
        assert!(a.grad().approx_eq(&Matrix::column(&[1.0, 0.0]), 1e-12));
        assert!(b.grad().approx_eq(&Matrix::column(&[2.0]), 1e-12));
    }

    #[test]
    fn mul_scalar_var_gradients() {
        let a = Var::parameter(Matrix::column(&[1.0, 2.0, 3.0]));
        let s = Var::parameter(Matrix::from_vec(1, 1, vec![0.5]));
        let loss_fn = || a.mul_scalar_var(&s).square().sum();
        let loss = loss_fn();
        loss.backward();
        let numeric_s = numeric_grad(&s, (0, 0), loss_fn, 1e-6);
        assert!((s.grad().get(0, 0) - numeric_s).abs() < 1e-5);
        let numeric_a0 = numeric_grad(&a, (0, 0), loss_fn, 1e-6);
        assert!((a.grad().get(0, 0) - numeric_a0).abs() < 1e-5);
    }

    #[test]
    fn mean_and_sum_gradients() {
        let x = Var::parameter(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let loss = x.mean();
        loss.backward();
        assert!(x.grad().approx_eq(&Matrix::filled(2, 2, 0.25), 1e-12));

        x.zero_grad();
        let loss = x.sum();
        loss.backward();
        assert!(x.grad().approx_eq(&Matrix::ones(2, 2), 1e-12));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let x = Var::parameter(Matrix::from_vec(1, 1, vec![3.0]));
        let loss1 = x.square().sum();
        loss1.backward();
        let loss2 = x.square().sum();
        loss2.backward();
        // Each backward adds 2*x = 6.
        assert!((x.grad().get(0, 0) - 12.0).abs() < 1e-12);
        x.zero_grad();
        assert_eq!(x.grad().get(0, 0), 0.0);
    }

    #[test]
    fn constants_do_not_accumulate_grad() {
        let c = Var::constant(Matrix::from_vec(1, 1, vec![2.0]));
        let x = Var::parameter(Matrix::from_vec(1, 1, vec![3.0]));
        let loss = x.hadamard(&c).sum();
        loss.backward();
        assert_eq!(c.grad().get(0, 0), 0.0);
        assert!((x.grad().get(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_subexpression_gradients_add_up() {
        // loss = sum(x*x + x*x) = 2 * sum(x^2) -> grad = 4x
        let x = Var::parameter(Matrix::from_vec(1, 1, vec![1.5]));
        let sq = x.square();
        let loss = sq.add(&sq).sum();
        loss.backward();
        assert!((x.grad().get(0, 0) - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backward() requires a scalar output")]
    fn backward_rejects_non_scalar() {
        let x = Var::parameter(Matrix::<f64>::ones(2, 2));
        x.backward();
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // A 2000-deep chain exercises the iterative topological sort.
        let x = Var::parameter(Matrix::from_vec(1, 1, vec![1.0]));
        let mut y = x.clone();
        for _ in 0..2000 {
            y = y.add_const(0.001);
        }
        let loss = y.sum();
        loss.backward();
        assert!((x.grad().get(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f32_graph_runs_end_to_end() {
        // The whole op set monomorphises for f32; a small forward/backward
        // sanity check keeps that instantiation exercised.
        let w: Var<f32> = Var::parameter(Matrix::from_vec(1, 2, vec![0.5f32, -0.25]));
        let x: Var<f32> = Var::constant(Matrix::column(&[1.0f32, 2.0]));
        let loss = w.matmul(&x).sigmoid().square().sum();
        loss.backward();
        assert!(loss.scalar_value().is_finite());
        assert!(w.grad().is_finite());
        assert!(w.grad().frobenius_norm() > 0.0);
    }
}
