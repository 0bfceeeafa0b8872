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
//! The operation set is the minimum needed by the sequence models in this
//! workspace (BiSIM, BRITS, SSGAN): matrix products, element-wise arithmetic,
//! sigmoid/tanh/ReLU/exp activations, masking by constant matrices, column
//! softmax, row concatenation and scalar reductions.
//!
//! Graph storage is arena-backed: nodes come out of a per-thread [`NodePool`]
//! and return to it through [`Var::recycle`], every matrix a node holds draws
//! its buffer from the per-thread pool in [`crate::workspace`], and
//! [`Var::backward`] parks its traversal scratch between calls. Reuse is
//! capacity-only — values are bitwise identical to the fresh-allocation
//! reference path that `RM_ARENA=0` restores.

// rm-lint: hot-path
// Every training step builds and walks this graph. Node storage, matrix
// buffers and traversal scratch are recycled through the per-worker arena
// (`crate::workspace` + the NodePool below); matmul outputs go through
// `matmul_into` into pooled buffers.

use std::cell::{Ref, RefCell};
// rm-lint: allow(no-unordered-iteration): visited-set membership only — topological order comes from the DFS stack below
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{Matrix, Scalar};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

fn fresh_id() -> usize {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Nodes kept on a thread's free list; overflow drops to the allocator so a
/// one-off huge graph cannot pin memory forever.
const NODE_POOL_CAP: usize = 1 << 15;

/// An explicit DFS frame of the topological sort (module-scoped so the
/// backward pass can park its stack in the [`NodePool`] between calls).
enum Frame<T: Scalar> {
    Enter(Var<T>),
    Exit(Var<T>),
}

/// Per-thread recycled autodiff storage: freed graph nodes plus the backward
/// pass's traversal scratch, reached through the sealed
/// [`Scalar`](crate::Scalar) trait exactly like the matrix buffer pool in
/// [`crate::workspace`].
///
/// Internal plumbing of the arena layer — public only because the sealed
/// trait's dispatch method names the type; not part of the stable API.
#[doc(hidden)]
pub struct NodePool<T: Scalar> {
    /// Recycled nodes, ready for `from_node` to reinitialise.
    free: Vec<Rc<RefCell<Node<T>>>>,
    // Traversal scratch for `backward`, parked here so steady-state training
    // steps reuse it instead of reallocating.
    // rm-lint: allow(no-unordered-iteration): visited-set membership only; iteration order never observed
    visited: HashSet<usize>,
    order: Vec<Var<T>>,
    frames: Vec<Frame<T>>,
    /// Worklist scratch for `recycle_all`.
    recycle_stack: Vec<Var<T>>,
    /// Recycled `ConcatRows` row-count vectors.
    counts: Vec<Vec<usize>>,
}

impl<T: Scalar> Default for NodePool<T> {
    fn default() -> Self {
        Self {
            free: Vec::new(),
            // rm-lint: allow(no-unordered-iteration): same membership-only visited set as above
            visited: HashSet::new(),
            order: Vec::new(),
            frames: Vec::new(),
            recycle_stack: Vec::new(),
            counts: Vec::new(),
        }
    }
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
    ConcatRows(Vec<usize>),
    /// Softmax over a column vector.
    SoftmaxCol,
    /// Element-wise product with a broadcast 1×1 variable (second parent).
    MulScalarVar,
}

struct Node<T: Scalar> {
    id: usize,
    value: Matrix<T>,
    grad: Matrix<T>,
    parents: Vec<Var<T>>,
    op: Op<T>,
    requires_grad: bool,
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
        write!(f, "Var(id={}, shape={:?})", n.id, n.value.shape())
    }
}

impl<T: Scalar> Var<T> {
    /// Builds a node over `value` with the given parents, reusing a recycled
    /// node from this thread's [`NodePool`] when the arena layer is active.
    /// Reuse is capacity-only: every field is reinitialised, so the graph is
    /// bitwise identical to the fresh-allocation path (`RM_ARENA=0`).
    fn from_node(value: Matrix<T>, parents: &[&Var<T>], op: Op<T>) -> Var<T> {
        Self::from_node_with(value, parents.iter().copied(), op)
    }

    /// [`Var::from_node`] over any re-iterable listing of parents, so callers
    /// holding owned slices (e.g. [`Var::concat_rows`]) need not collect a
    /// reference vector first.
    fn from_node_with<'a, I>(value: Matrix<T>, parents: I, op: Op<T>) -> Var<T>
    where
        T: 'a,
        I: Iterator<Item = &'a Var<T>> + Clone,
    {
        let requires_grad = parents.clone().any(|p| p.node.borrow().requires_grad);
        let (r, c) = value.shape();
        if crate::workspace::arena_enabled() {
            if let Some(node) = T::with_node_pool(|pool| pool.free.pop()) {
                {
                    let mut n = node.borrow_mut();
                    debug_assert!(n.parents.is_empty(), "recycled node still has parents");
                    n.id = fresh_id();
                    n.grad = Matrix::zeros(r, c);
                    n.value = value;
                    n.parents.extend(parents.cloned());
                    n.op = op;
                    n.requires_grad = requires_grad;
                }
                return Var { node };
            }
        }
        Var {
            node: Rc::new(RefCell::new(Node {
                id: fresh_id(),
                grad: Matrix::zeros(r, c),
                value,
                parents: parents.cloned().collect(),
                op,
                requires_grad,
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

    /// Unique node id (useful in tests and debugging).
    pub fn id(&self) -> usize {
        self.node.borrow().id
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
    pub fn requires_grad(&self) -> bool {
        self.node.borrow().requires_grad
    }

    /// Resets the accumulated gradient of this node to zero.
    pub fn zero_grad(&self) {
        let mut n = self.node.borrow_mut();
        let (r, c) = n.value.shape();
        n.grad = Matrix::zeros(r, c);
    }

    /// Adds `delta` into this node's gradient buffer.
    ///
    /// This is the leaf-side half of mini-batch gradient accumulation: an
    /// externally computed gradient (e.g. extracted from a worker's detached
    /// replica of the graph) is summed into the parameter exactly as
    /// [`Var::backward`] would have, so an optimizer step over the
    /// accumulated buffer is bitwise-indistinguishable from one computed on
    /// this graph directly.
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
    /// a pooled buffer (bitwise identical to [`Matrix::matmul`]).
    pub fn matmul(&self, rhs: &Var<T>) -> Var<T> {
        let mut v = Matrix::zeros(self.value_ref().rows(), rhs.value_ref().cols());
        self.value_ref().matmul_into(&rhs.value_ref(), &mut v);
        Var::from_node(v, &[self, rhs], Op::MatMul)
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
    pub fn concat_rows(vars: &[Var<T>]) -> Var<T> {
        assert!(!vars.is_empty(), "concat_rows needs at least one variable");
        let mut value = vars[0].value();
        // The per-parent row counts live in the op for the backward split;
        // recycled nodes park their vector in the pool for reuse here.
        let mut counts = T::with_node_pool(|pool| pool.counts.pop()).unwrap_or_default();
        counts.reserve(vars.len());
        counts.push(value.rows());
        for v in &vars[1..] {
            let m = v.value();
            counts.push(m.rows());
            value = value.vstack(&m);
        }
        Var::from_node_with(value, vars.iter(), Op::ConcatRows(counts))
    }

    /// Softmax over a column vector (shape `(n, 1)`), numerically stabilised.
    ///
    /// # Panics
    /// Panics if the variable is not a column vector.
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
    pub fn mul_scalar_var(&self, s: &Var<T>) -> Var<T> {
        assert_eq!(s.shape(), (1, 1), "mul_scalar_var expects a 1x1 scalar Var");
        let sv = s.scalar_value();
        let v = self.value_ref().scale(sv);
        Var::from_node(v, &[self, s], Op::MulScalarVar)
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
        {
            let mut n = self.node.borrow_mut();
            n.grad = Matrix::ones(1, 1);
        }
        // Park the traversal scratch in the thread's node pool between calls
        // so steady-state training steps reuse it instead of reallocating.
        let reuse_scratch = crate::workspace::arena_enabled();
        let (mut visited, mut order, mut frames) = if reuse_scratch {
            T::with_node_pool(|pool| {
                (
                    std::mem::take(&mut pool.visited),
                    std::mem::take(&mut pool.order),
                    std::mem::take(&mut pool.frames),
                )
            })
        } else {
            // rm-lint: allow(no-unordered-iteration): membership test on node ids; iteration order never observed
            (HashSet::new(), Vec::new(), Vec::new())
        };
        self.topological_order_into(&mut visited, &mut order, &mut frames);
        for var in order.iter().rev() {
            var.propagate();
        }
        if reuse_scratch {
            visited.clear();
            order.clear();
            frames.clear();
            T::with_node_pool(|pool| {
                pool.visited = visited;
                pool.order = order;
                pool.frames = frames;
            });
        }
    }

    /// Collects the nodes reachable from `self` in topological order
    /// (parents before children) into `order`, using caller-owned scratch.
    fn topological_order_into(
        &self,
        // rm-lint: allow(no-unordered-iteration): membership test on node ids; iteration order never observed
        visited: &mut HashSet<usize>,
        order: &mut Vec<Var<T>>,
        frames: &mut Vec<Frame<T>>,
    ) {
        debug_assert!(visited.is_empty() && order.is_empty() && frames.is_empty());
        // Iterative DFS with an explicit stack to avoid recursion limits on
        // long unrolled sequences.
        frames.push(Frame::Enter(self.clone()));
        while let Some(frame) = frames.pop() {
            match frame {
                Frame::Enter(v) => {
                    let id = v.id();
                    if !visited.insert(id) {
                        continue;
                    }
                    frames.push(Frame::Exit(v.clone()));
                    for p in v.node.borrow().parents.iter() {
                        frames.push(Frame::Enter(p.clone()));
                    }
                }
                Frame::Exit(v) => order.push(v),
            }
        }
    }

    /// Propagates this node's gradient to its parents.
    ///
    /// Holds a shared borrow of this node across the whole dispatch: a node
    /// is created strictly after its parents, so it can never be its own
    /// parent and the `borrow_mut` inside `accumulate` cannot alias it.
    /// Parent *values* are only borrowed in temporaries that end before the
    /// matching `accumulate`, because the same parent may appear twice
    /// (e.g. `x.hadamard(&x)`).
    fn propagate(&self) {
        let node = self.node.borrow();
        if node.parents.is_empty() {
            return;
        }
        let grad = &node.grad;
        let parents = &node.parents;
        match &node.op {
            Op::Leaf => {}
            Op::Add => {
                parents[0].accumulate(grad);
                parents[1].accumulate(grad);
            }
            Op::AddBroadcastCol => {
                parents[0].accumulate(grad);
                // Gradient of the broadcast column vector: row sums.
                let summed = Matrix::from_fn(grad.rows(), 1, |r, _| {
                    grad.row(r).iter().fold(T::ZERO, |acc, &v| acc + v)
                });
                parents[1].accumulate(&summed);
            }
            Op::Sub => {
                parents[0].accumulate(grad);
                parents[1].accumulate(&grad.scale(-T::ONE));
            }
            Op::Hadamard => {
                let da = grad.hadamard(&parents[1].value_ref());
                let db = grad.hadamard(&parents[0].value_ref());
                parents[0].accumulate(&da);
                parents[1].accumulate(&db);
            }
            Op::MatMul => {
                let (a, b) = (&parents[0], &parents[1]);
                if a.needs_grad() {
                    if b.shape().1 == 1 && !Rc::ptr_eq(&a.node, &b.node) {
                        // dA = dC · Bᵀ is rank-1 against a column B: add it
                        // straight into A's gradient buffer (bitwise the
                        // same as accumulating the product; see
                        // `Matrix::add_outer`).
                        let x = b.value_ref();
                        a.node.borrow_mut().grad.add_outer(grad.data(), x.data());
                    } else {
                        // The blocked kernel into a pooled buffer: a one-off
                        // transpose is cheaper than losing the vectorised
                        // inner loop.
                        let bt = b.value_ref().transpose();
                        let mut da = Matrix::zeros(grad.rows(), bt.cols());
                        grad.matmul_into(&bt, &mut da);
                        a.accumulate(&da);
                    }
                }
                if b.needs_grad() {
                    // dB = Aᵀ · dC through the transposed kernel, which is
                    // axpy-shaped like the blocked one and skips the
                    // transpose.
                    let db = a.value_ref().matmul_at_b(grad);
                    b.accumulate(&db);
                }
            }
            Op::ScaleConst(s) => parents[0].accumulate(&grad.scale(*s)),
            Op::AddConst => parents[0].accumulate(grad),
            Op::HadamardConst(mask) => parents[0].accumulate(&grad.hadamard(mask)),
            Op::Sigmoid => {
                let d = node.value.map(|y| y * (T::ONE - y));
                parents[0].accumulate(&grad.hadamard(&d));
            }
            Op::Tanh => {
                let d = node.value.map(|y| T::ONE - y * y);
                parents[0].accumulate(&grad.hadamard(&d));
            }
            Op::Relu => {
                let d = parents[0]
                    .value_ref()
                    .map(|v| if v > T::ZERO { T::ONE } else { T::ZERO });
                parents[0].accumulate(&grad.hadamard(&d));
            }
            Op::Exp => parents[0].accumulate(&grad.hadamard(&node.value)),
            Op::Square => {
                let scaled = parents[0].value_ref().scale(T::from_f64(2.0));
                parents[0].accumulate(&grad.hadamard(&scaled));
            }
            Op::Sum => {
                let g = grad.get(0, 0);
                let (r, c) = parents[0].shape();
                parents[0].accumulate(&Matrix::filled(r, c, g));
            }
            Op::Mean => {
                let (r, c) = parents[0].shape();
                let g = grad.get(0, 0) / T::from_f64((r * c) as f64);
                parents[0].accumulate(&Matrix::filled(r, c, g));
            }
            Op::ConcatRows(counts) => {
                let mut start = 0;
                for (parent, count) in parents.iter().zip(counts.iter()) {
                    parent.accumulate(&grad.slice_rows(start, *count));
                    start += count;
                }
            }
            Op::SoftmaxCol => {
                // dX_i = y_i * (dY_i - sum_j dY_j y_j)
                let y = &node.value;
                let dot = y
                    .data()
                    .iter()
                    .zip(grad.data().iter())
                    .fold(T::ZERO, |acc, (&yi, &gi)| acc + yi * gi);
                let dx = Matrix::from_fn(y.rows(), 1, |r, _| y.get(r, 0) * (grad.get(r, 0) - dot));
                parents[0].accumulate(&dx);
            }
            Op::MulScalarVar => {
                let s = parents[1].value_ref().get(0, 0);
                let ds = {
                    let a = parents[0].value_ref();
                    grad.data()
                        .iter()
                        .zip(a.data().iter())
                        .fold(T::ZERO, |acc, (&g, &av)| acc + g * av)
                };
                parents[0].accumulate(&grad.scale(s));
                parents[1].accumulate(&Matrix::filled(1, 1, ds));
            }
        }
    }

    /// Whether gradients reaching this node are kept: everything except a
    /// pure constant (a leaf without `requires_grad`), whose gradient nothing
    /// reads, so backward skips computing it.
    fn needs_grad(&self) -> bool {
        let n = self.node.borrow();
        n.requires_grad || !n.parents.is_empty()
    }

    fn accumulate(&self, delta: &Matrix<T>) {
        if !self.needs_grad() {
            return;
        }
        self.node.borrow_mut().grad.axpy(T::ONE, delta);
    }

    // ------------------------------------------------------------------
    // Node recycling
    // ------------------------------------------------------------------

    /// Returns this graph to the thread's node pool for reuse.
    ///
    /// Call this after a training step (or a discarded forward pass) once
    /// every gradient has been read out: the handle is consumed, every
    /// reachable node whose only owner was this graph is stripped and parked
    /// in the per-thread [`NodePool`], and its matrix buffers flow back to
    /// the buffer pool. Nodes still referenced elsewhere — model parameters,
    /// outputs the caller kept — are left untouched, so recycling is always
    /// safe. A no-op under `RM_ARENA=0`.
    pub fn recycle(self) {
        Var::recycle_all(std::iter::once(self));
    }

    /// [`Var::recycle`] over several roots at once (e.g. every output of an
    /// inference pass).
    pub fn recycle_all(roots: impl IntoIterator<Item = Var<T>>) {
        if !crate::workspace::arena_enabled() {
            return;
        }
        let mut stack = T::with_node_pool(|pool| std::mem::take(&mut pool.recycle_stack));
        stack.extend(roots);
        while let Some(var) = stack.pop() {
            let Var { node } = var;
            if Rc::strong_count(&node) != 1 {
                // Another handle (a parameter, a kept output) owns this node
                // too; dropping ours here leaves that graph intact. If the
                // other handle is itself pending on the stack, the node is
                // revisited — and then recycled — when it drains.
                continue;
            }
            let recovered_counts = {
                let mut n = node.borrow_mut();
                while let Some(parent) = n.parents.pop() {
                    stack.push(parent);
                }
                // Strip the node: matrix buffers return to the buffer pool
                // now; the parents Vec — and a ConcatRows op's row-count
                // vector, parked below — keep their capacity for the next
                // graph.
                n.value = Matrix::zeros(0, 0);
                n.grad = Matrix::zeros(0, 0);
                n.requires_grad = false;
                match std::mem::replace(&mut n.op, Op::Leaf) {
                    Op::ConcatRows(mut counts) => {
                        counts.clear();
                        Some(counts)
                    }
                    _ => None,
                }
            };
            T::with_node_pool(|pool| {
                if let Some(counts) = recovered_counts {
                    if pool.counts.len() < NODE_POOL_CAP {
                        pool.counts.push(counts);
                    }
                }
                if pool.free.len() < NODE_POOL_CAP {
                    pool.free.push(node);
                }
            });
        }
        T::with_node_pool(|pool| pool.recycle_stack = stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backward pass of `W · x` against a column writes `dW += g·xᵀ` in
    /// place; it must equal the route it replaced — the product
    /// materialised from `+0.0` and accumulated — bit for bit, including
    /// over repeated uses of `W` (an unrolled recurrence) and `±0.0` in the
    /// column. A constant column's gradient is never computed.
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
            // rm-lint: allow(prefer-matmul-into): test-only graph, not a hot loop
            total = total.add(&w.matmul(x).tanh().sum());
        }
        total.backward();

        let mut want = Matrix::zeros(5, 19);
        for x in &xs {
            let g = w0.matmul_naive(x).map(|y| {
                let t = y.tanh();
                1.0 - t * t
            });
            want = &want + &g.matmul_naive(&x.transpose());
        }
        if crate::simd::fma_enabled() {
            assert!(w.grad().approx_eq(&want, 1e-12));
        } else {
            assert!(
                w.grad().bits_eq(&want),
                "in-place dW drifted from the old route"
            );
        }
        for x in &consts {
            assert!(x.grad().bits_eq(&Matrix::zeros(19, 1)));
        }
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
        // rm-lint: allow(prefer-matmul-into): test-only graph, not a hot loop
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
    fn recycled_graphs_rebuild_bitwise_identical() {
        let w = Var::parameter(Matrix::from_vec(2, 2, vec![0.3, -0.1, 0.7, 0.2]));
        let x = Var::constant(Matrix::column(&[1.0, -2.0]));
        let build = || {
            // rm-lint: allow(prefer-matmul-into): test-only graph, not a hot loop
            let loss = w.matmul(&x).tanh().square().sum();
            loss.backward();
            loss
        };
        let loss1 = build();
        let l1: f64 = loss1.scalar_value();
        let g1 = w.grad();
        loss1.recycle();
        w.zero_grad();
        // Rebuilding the same graph on recycled nodes must be bit-identical.
        let loss2 = build();
        assert_eq!(loss2.scalar_value().to_bits(), l1.to_bits());
        assert!(w.grad().bits_eq(&g1));
        loss2.recycle();
        // The parameter leaf survives both recycles untouched.
        assert_eq!(w.shape(), (2, 2));
        assert!(w.value().is_finite());
    }

    #[test]
    fn recycle_parks_exclusive_nodes_and_skips_shared_handles() {
        if !crate::workspace::arena_enabled() {
            return; // RM_ARENA=0: recycling is a no-op by design.
        }
        let p = Var::<f64>::parameter(Matrix::ones(2, 2));
        let kept = p.square();
        let loss = kept.sum();
        loss.backward();
        let kept_id = kept.id();
        let before = f64::with_node_pool(|pool| pool.free.len());
        loss.recycle();
        let after = f64::with_node_pool(|pool| pool.free.len());
        // Only the loss node was exclusively owned by the recycled handle;
        // `kept` (still held here) and the parameter stay intact.
        assert_eq!(after, before + 1);
        assert_eq!(kept.id(), kept_id);
        assert_eq!(kept.shape(), (2, 2));
        assert_eq!(p.grad().get(0, 0), 2.0);
        // The next node built on this thread draws from the pool.
        let next = p.sum();
        assert_eq!(f64::with_node_pool(|pool| pool.free.len()), after - 1);
        assert_eq!(next.shape(), (1, 1));
    }

    #[test]
    fn f32_graph_runs_end_to_end() {
        // The whole op set monomorphises for f32; a small forward/backward
        // sanity check keeps that instantiation exercised.
        let w: Var<f32> = Var::parameter(Matrix::from_vec(1, 2, vec![0.5f32, -0.25]));
        let x: Var<f32> = Var::constant(Matrix::column(&[1.0f32, 2.0]));
        // rm-lint: allow(prefer-matmul-into): test-only graph, not a hot loop
        let loss = w.matmul(&x).sigmoid().square().sum();
        loss.backward();
        assert!(loss.scalar_value().is_finite());
        assert!(w.grad().is_finite());
        assert!(w.grad().frobenius_norm() > 0.0);
    }
}
