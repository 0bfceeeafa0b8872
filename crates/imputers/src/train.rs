//! The one trainer of the tape-trained bidirectional imputers (BRITS and
//! BiSIM): deterministic mini-batches of `(sequence, reversed)` pairs over a
//! forward and a backward direction's plain weights, with Adam applied
//! through [`AdamStep::update`].
//!
//! Each epoch is split into fixed-boundary chunks of `batch_size` pair
//! indices. A one-pair chunk (every step at the `batch_size = 1` default)
//! differentiates straight into the step's zeroed gradients; a larger chunk
//! differentiates each pair on the worker pool into its own zeroed
//! gradients from the shared read-only weights, and sums them in pair
//! order. The boundaries depend only on `batch_size` and the reduction
//! order only on the pair index, so the trained weights are bitwise
//! independent of the thread count. Both are bitwise the graph trajectory
//! (`zero_grad → backward → step` per chunk): a gradient buffer never holds
//! `-0.0`, so summing one pair's gradient into zeroed buffers reproduces it
//! exactly.

use rm_tensor::recurrent::GradTerm;
use rm_tensor::{AdamStep, Matrix, Scalar};

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
pub struct Gradients<T: Scalar = f64> {
    tensors: Vec<Matrix<T>>,
}

impl<T: Scalar> Gradients<T> {
    /// Zeroed buffers shaped like `weights`' tensors.
    pub fn zeros_like(weights: &impl Parameters<T>) -> Self {
        Self {
            tensors: weights
                .tensors()
                .into_iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
        }
    }

    /// Zeroes every buffer in place.
    pub fn clear(&mut self) {
        for m in &mut self.tensors {
            m.data_mut().fill(T::ZERO);
        }
    }

    /// The gradient tensors.
    pub fn tensors(&self) -> &[Matrix<T>] {
        &self.tensors
    }

    /// The gradient tensors, mutably.
    pub fn tensors_mut(&mut self) -> &mut [Matrix<T>] {
        &mut self.tensors
    }

    /// Adds `term` into tensor `index`.
    pub fn add(&mut self, index: usize, term: GradTerm<'_, T>) {
        term.add_to(&mut self.tensors[index]);
    }

    /// Adds `other`'s gradients into these (`axpy` with `α = 1`): one
    /// pair's share of a multi-pair batch.
    pub fn accumulate(&mut self, other: &Self) {
        for (sum, g) in self.tensors.iter_mut().zip(&other.tensors) {
            sum.axpy(T::ONE, g);
        }
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
    let mut moments = weights.each_ref().map(|w| {
        w.tensors()
            .into_iter()
            .map(|m| {
                (
                    Matrix::zeros(m.rows(), m.cols()),
                    Matrix::zeros(m.rows(), m.cols()),
                )
            })
            .collect::<Vec<(Matrix, Matrix)>>()
    });
    let mut tape = P::default();
    let indices: Vec<usize> = (0..pairs).collect();
    let mut steps = 0;
    for _ in 0..training.epochs {
        for chunk in indices.chunks(training.batch_size.max(1)) {
            grads.iter_mut().for_each(Gradients::clear);
            if let [i] = *chunk {
                let [f, b] = &mut grads;
                differentiate(&mut tape, [&weights[0], &weights[1]], i, [f, b]);
            } else {
                let shared = &*weights;
                let per_pair = rm_runtime::par_map(training.threads, chunk, |_, &i| {
                    let mut pair = zeros(shared);
                    let [f, b] = &mut pair;
                    differentiate(&mut P::default(), [&shared[0], &shared[1]], i, [f, b]);
                    pair
                });
                for pair in &per_pair {
                    grads[0].accumulate(&pair[0]);
                    grads[1].accumulate(&pair[1]);
                }
            }
            steps += 1;
            let step = AdamStep::new(0.9, 0.999, 1e-8, training.learning_rate, Some(5.0), steps);
            for ((w, g), moments) in weights.iter_mut().zip(&grads).zip(&mut moments) {
                let mut tensors = g.tensors().iter().zip(moments.iter_mut());
                w.for_each_tensor_mut(|value| {
                    let (grad, (m, v)) = tensors.next().expect("one gradient per tensor");
                    step.update(value.data_mut(), grad.data(), m.data_mut(), v.data_mut());
                });
            }
        }
    }
}
