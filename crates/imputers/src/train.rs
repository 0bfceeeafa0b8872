//! The trainer of the tape-trained imputers (BRITS, SSGAN and BiSIM):
//! deterministic mini-batches over plain weights, with Adam applied through
//! [`AdamStep::update`].
//!
//! Each epoch is split into fixed-boundary chunks of `batch_size` sequence
//! indices (`chunk_gradients`). A one-sequence chunk (every step at the
//! `batch_size = 1` default) differentiates straight into the step's zeroed
//! gradients; a larger chunk differentiates each sequence on the worker pool
//! into its own zeroed gradients from the shared read-only weights, and
//! sums them in index order. The boundaries depend only on `batch_size` and
//! the reduction order only on the index, so the trained weights are
//! bitwise independent of the thread count. Both are bitwise the graph
//! trajectory (`zero_grad → backward → step` per chunk): a gradient buffer
//! never holds `-0.0`, so summing one sequence's gradient into zeroed
//! buffers reproduces it exactly. [`train_pairs`] runs this loop for the
//! bidirectional imputers; SSGAN runs it twice per chunk, once per player.

use rm_tensor::recurrent::GradTerm;
use rm_tensor::{AdamStep, Matrix, OuterPanel, Scalar};

/// Weights the trainer updates: plain matrices in a fixed order, which
/// their [`Gradients`] follow.
pub trait Parameters<T: Scalar = f64> {
    /// Every parameter tensor, in gradient order.
    fn tensors(&self) -> Vec<&Matrix<T>>;

    /// Visits [`Parameters::tensors`] mutably, in order.
    fn for_each_tensor_mut(&mut self, f: impl FnMut(&mut Matrix<T>));
}

/// Gradient buffers shaped like one direction's parameter tensors, in
/// [`Parameters::tensors`] order.
///
/// A weight's rank-1 terms ([`GradTerm::Outer`]) are queued in the
/// tensor's [`OuterPanel`] and applied together by [`Gradients::flush`],
/// which a backward calls before it returns. Each weight receives its terms
/// from one call site, in the order it would have added them, and nothing
/// reads it before the flush, so every entry sums its terms in the same
/// order as adding each at once would.
pub struct Gradients<T: Scalar = f64> {
    tensors: Vec<Matrix<T>>,
    /// One panel per tensor: the weight terms not yet applied.
    panels: Vec<OuterPanel<T>>,
}

impl<T: Scalar> Gradients<T> {
    /// Zeroed buffers shaped like `weights`' tensors.
    pub fn zeros_like(weights: &impl Parameters<T>) -> Self {
        let tensors: Vec<Matrix<T>> = weights
            .tensors()
            .into_iter()
            .map(|m| Matrix::zeros(m.rows(), m.cols()))
            .collect();
        let panels = tensors.iter().map(|_| OuterPanel::new()).collect();
        Self { tensors, panels }
    }

    /// Zeroes every buffer in place.
    pub fn clear(&mut self) {
        self.assert_flushed();
        for m in &mut self.tensors {
            m.data_mut().fill(T::ZERO);
        }
    }

    /// The gradient tensors.
    pub fn tensors(&self) -> &[Matrix<T>] {
        self.assert_flushed();
        &self.tensors
    }

    /// Adds `term` into tensor `index`; a weight's rank-1 term waits in its
    /// panel until [`Gradients::flush`].
    pub fn add(&mut self, index: usize, term: GradTerm<'_, T>) {
        match term {
            GradTerm::Outer(u, v) => self.panels[index].push(u, v),
            term => {
                assert!(
                    self.panels[index].is_empty(),
                    "tensor {index} takes a direct term while rank-1 terms are pending"
                );
                term.add_to_slice(self.tensors[index].data_mut());
            }
        }
    }

    /// Applies every pending rank-1 term, tensor by tensor.
    pub fn flush(&mut self) {
        for (panel, m) in self.panels.iter_mut().zip(&mut self.tensors) {
            panel.flush(m);
        }
    }

    /// Adds `other`'s gradients into these (`axpy` with `α = 1`): one
    /// pair's share of a multi-pair batch.
    pub fn accumulate(&mut self, other: &Self) {
        for (sum, g) in self.tensors.iter_mut().zip(other.tensors()) {
            sum.axpy(T::ONE, g);
        }
    }

    /// Every reader sees applied gradients only.
    fn assert_flushed(&self) {
        assert!(
            self.panels.iter().all(OuterPanel::is_empty),
            "gradients read with rank-1 terms pending"
        );
    }
}

/// One chunk's gradient (see the module doc) into `N` sets of weights'
/// gradients: `grads` is cleared, then a one-index chunk differentiates
/// into it on `tape`, and a larger chunk differentiates each index on the
/// pool into fresh `zeros()` on a fresh tape and sums them into `grads` in
/// index order.
pub(crate) fn chunk_gradients<const N: usize, P: Default>(
    grads: &mut [Gradients; N],
    tape: &mut P,
    chunk: &[usize],
    threads: usize,
    zeros: impl Fn() -> [Gradients; N] + Sync,
    differentiate: impl Fn(&mut P, usize, [&mut Gradients; N]) + Sync,
) {
    grads.iter_mut().for_each(Gradients::clear);
    if let [i] = *chunk {
        differentiate(tape, i, grads.each_mut());
    } else {
        let per_index = rm_runtime::par_map(threads, chunk, |_, &i| {
            let mut g = zeros();
            differentiate(&mut P::default(), i, g.each_mut());
            g
        });
        for g in &per_index {
            for (sum, g) in grads.iter_mut().zip(g) {
                sum.accumulate(g);
            }
        }
    }
}

/// Adam's state for one set of weights: the first and second moments of
/// every tensor and the step count (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 10⁻⁸`,
/// gradients clipped to `±5`).
pub struct Adam {
    moments: Vec<(Matrix, Matrix)>,
    learning_rate: f64,
    steps: u64,
}

impl Adam {
    /// Zero moments shaped like `weights`' tensors.
    pub fn new(weights: &impl Parameters, learning_rate: f64) -> Self {
        let zeros = |m: &Matrix| {
            (
                Matrix::zeros(m.rows(), m.cols()),
                Matrix::zeros(m.rows(), m.cols()),
            )
        };
        Self {
            moments: weights.tensors().into_iter().map(zeros).collect(),
            learning_rate,
            steps: 0,
        }
    }

    /// One Adam step of `weights` from `grads`, tensor by tensor.
    pub fn step(&mut self, weights: &mut impl Parameters, grads: &Gradients) {
        self.steps += 1;
        let step = AdamStep::new(0.9, 0.999, 1e-8, self.learning_rate, Some(5.0), self.steps);
        let mut tensors = grads.tensors().iter().zip(self.moments.iter_mut());
        weights.for_each_tensor_mut(|value| {
            let (grad, (m, v)) = tensors.next().expect("one gradient per tensor");
            step.update(value.data_mut(), grad.data(), m.data_mut(), v.data_mut());
        });
    }
}

/// How the trainer runs.
#[derive(Debug, Clone, Copy)]
pub struct Training {
    /// Adam learning rate (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 10⁻⁸`, gradients
    /// clipped to `±5`).
    pub learning_rate: f64,
    /// Passes over the pairs.
    pub epochs: usize,
    /// Pairs per chunk (at least 1).
    pub batch_size: usize,
    /// Worker threads for a multi-pair chunk (`0` = auto).
    pub threads: usize,
}

/// Trains both directions' `weights` in place over `pairs` sequence pairs
/// (see the module doc). `differentiate(tape, weights, i, grads)` adds pair
/// `i`'s loss gradient into `grads` (forward direction first); `tape` is
/// the caller's reusable tape type, one for the one-pair chunks and a fresh
/// one per pair of a larger chunk.
pub fn train_pairs<W, P>(
    weights: &mut [W; 2],
    pairs: usize,
    training: Training,
    differentiate: impl Fn(&mut P, [&W; 2], usize, [&mut Gradients; 2]) + Sync,
) where
    W: Parameters + Sync,
    P: Default,
{
    let zeros = |w: &[W; 2]| w.each_ref().map(Gradients::zeros_like);
    let mut grads = zeros(weights);
    let mut adam = weights
        .each_ref()
        .map(|w| Adam::new(w, training.learning_rate));
    let mut tape = P::default();
    let indices: Vec<usize> = (0..pairs).collect();
    for _ in 0..training.epochs {
        for chunk in indices.chunks(training.batch_size.max(1)) {
            let shared = &*weights;
            chunk_gradients(
                &mut grads,
                &mut tape,
                chunk,
                training.threads,
                || zeros(shared),
                |tape, i, g| differentiate(tape, [&shared[0], &shared[1]], i, g),
            );
            for ((w, g), adam) in weights.iter_mut().zip(&grads).zip(&mut adam) {
                adam.step(w, g);
            }
        }
    }
}
