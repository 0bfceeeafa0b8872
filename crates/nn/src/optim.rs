//! Gradient-descent optimizers, generic over the [`Scalar`] precision.
//!
//! Training in this workspace runs at the default `f64` (the
//! determinism-contract precision); the generic instantiation exists so the
//! optimizer math monomorphises alongside `Var<f32>` graphs.
//!
//! # Mini-batch gradient accumulation
//!
//! The optimizer contract is split in two: gradients can be *accumulated*
//! into a [`GradientBatch`] (an ordered sum over per-example gradients,
//! independent of which thread produced each term) and then *applied* as one
//! [`Optimizer::step`] via [`Optimizer::apply_batch`]. A batch holding a
//! single example's gradient reproduces the plain
//! `zero_grad → backward → step` trajectory bitwise: summing one gradient
//! into a zeroed buffer and re-depositing it into the (zeroed) parameter
//! gradients is exactly the accumulation `backward` itself performs.

use rm_tensor::{AdamStep, Matrix, Scalar, Var};

/// A first-order optimizer over a fixed set of parameters.
pub trait Optimizer<T: Scalar = f64> {
    /// Applies one update step using the gradients currently accumulated in
    /// the parameters.
    fn step(&mut self);

    /// Clears the accumulated gradients of all managed parameters.
    fn zero_grad(&self);

    /// The parameters managed by this optimizer.
    fn parameters(&self) -> &[Var<T>];

    /// Applies one update step from an externally accumulated gradient
    /// batch: the parameters' gradient buffers are zeroed, the batch sums
    /// are deposited into them, and a single [`Optimizer::step`] runs.
    ///
    /// # Panics
    /// Panics if the batch was not built for this optimizer's parameter
    /// list (length or shape mismatch).
    fn apply_batch(&mut self, batch: &GradientBatch<T>) {
        batch.load_into(self.parameters());
        self.step();
    }
}

/// An ordered accumulator for mini-batch gradients, matching one optimizer's
/// parameter list tensor for tensor.
///
/// Per-example gradients — typically extracted from detached graph replicas
/// evaluated on worker threads — are summed with [`GradientBatch::accumulate`]
/// **in the order the calls are made**. Callers that fan the per-example
/// backward passes out in parallel must therefore accumulate the results in
/// example-index order (e.g. from an order-preserving `par_map`), which makes
/// the summed gradient — and thus the whole training trajectory — bitwise
/// independent of which worker produced each term.
pub struct GradientBatch<T: Scalar = f64> {
    grads: Vec<Matrix<T>>,
    examples: usize,
}

impl<T: Scalar> GradientBatch<T> {
    /// Creates a zeroed batch shaped like `params` (one gradient buffer per
    /// parameter tensor, in the same order).
    pub fn zeros_like(params: &[Var<T>]) -> Self {
        Self {
            grads: params
                .iter()
                .map(|p| {
                    let (r, c) = p.shape();
                    Matrix::zeros(r, c)
                })
                .collect(),
            examples: 0,
        }
    }

    /// Adds one example's per-parameter gradients into the running sums.
    ///
    /// # Panics
    /// Panics if `grads` does not match the batch's parameter list (length
    /// or shape).
    pub fn accumulate(&mut self, grads: &[Matrix<T>]) {
        assert_eq!(
            self.grads.len(),
            grads.len(),
            "gradient batch holds {} tensors, example provided {}",
            self.grads.len(),
            grads.len()
        );
        for (sum, g) in self.grads.iter_mut().zip(grads.iter()) {
            sum.axpy(T::ONE, g);
        }
        self.examples += 1;
    }

    /// Zeroes the running sums in place and resets the example count, so one
    /// batch serves every step of a training loop without reallocating.
    /// Bitwise the same as a fresh [`GradientBatch::zeros_like`].
    pub fn clear(&mut self) {
        for sum in &mut self.grads {
            sum.data_mut().fill(T::ZERO);
        }
        self.examples = 0;
    }

    /// Number of examples accumulated so far.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// The per-parameter gradient sums accumulated so far.
    pub fn sums(&self) -> &[Matrix<T>] {
        &self.grads
    }

    /// Zeroes `params`' gradient buffers and deposits the accumulated sums
    /// into them (the load half of [`Optimizer::apply_batch`]).
    ///
    /// # Panics
    /// Panics if `params` does not match the batch (length or shape).
    pub fn load_into(&self, params: &[Var<T>]) {
        assert_eq!(
            self.grads.len(),
            params.len(),
            "gradient batch holds {} tensors, optimizer manages {}",
            self.grads.len(),
            params.len()
        );
        for (p, sum) in params.iter().zip(self.grads.iter()) {
            p.zero_grad();
            p.add_grad(sum);
        }
    }
}

/// Plain stochastic gradient descent with optional gradient clipping.
pub struct Sgd<T: Scalar = f64> {
    params: Vec<Var<T>>,
    learning_rate: T,
    clip: Option<T>,
}

impl<T: Scalar> Sgd<T> {
    /// Creates an SGD optimizer.
    pub fn new(params: Vec<Var<T>>, learning_rate: T) -> Self {
        Self {
            params,
            learning_rate,
            clip: None,
        }
    }

    /// Enables element-wise gradient clipping to `[-clip, clip]`.
    pub fn with_clip(mut self, clip: T) -> Self {
        self.clip = Some(clip);
        self
    }
}

impl<T: Scalar> Optimizer<T> for Sgd<T> {
    fn step(&mut self) {
        let lr = self.learning_rate;
        let clip = self.clip;
        for p in &self.params {
            p.update_value(|value, grad| {
                for (v, g) in value.data_mut().iter_mut().zip(grad.data().iter()) {
                    let g = match clip {
                        Some(c) => g.clamp(-c, c),
                        None => *g,
                    };
                    *v -= lr * g;
                }
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn parameters(&self) -> &[Var<T>] {
        &self.params
    }
}

/// The Adam optimizer (Kingma & Ba), as used to train BiSIM and the neural
/// baselines in the paper (learning rate 0.001).
pub struct Adam<T: Scalar = f64> {
    params: Vec<Var<T>>,
    learning_rate: T,
    beta1: T,
    beta2: T,
    epsilon: T,
    clip: Option<T>,
    step_count: u64,
    first_moment: Vec<Matrix<T>>,
    second_moment: Vec<Matrix<T>>,
}

impl<T: Scalar> Adam<T> {
    /// Creates an Adam optimizer with the standard hyper-parameters
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `epsilon = 1e-8`).
    pub fn new(params: Vec<Var<T>>, learning_rate: T) -> Self {
        let first_moment = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        let second_moment = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Self {
            params,
            learning_rate,
            beta1: T::from_f64(0.9),
            beta2: T::from_f64(0.999),
            epsilon: T::from_f64(1e-8),
            clip: None,
            step_count: 0,
            first_moment,
            second_moment,
        }
    }

    /// Enables element-wise gradient clipping to `[-clip, clip]`.
    pub fn with_clip(mut self, clip: T) -> Self {
        self.clip = Some(clip);
        self
    }

    /// Number of update steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }
}

impl<T: Scalar> Optimizer<T> for Adam<T> {
    /// One [`AdamStep::update`] per parameter tensor. Per element this is
    /// the textbook update with the same operations in the same order —
    /// `m = β₁m + (1−β₁)g`, `v = β₂v + ((1−β₂)g)g`,
    /// `w −= (lr·m̂) / (√v̂ + ε)` with `m̂ = m/b₁`, `v̂ = v/b₂` — so it is
    /// bit-identical to an indexed loop. Without a clip the gradient is
    /// clamped to `[−∞, ∞]`, which returns every value (`-0.0` and NaN
    /// included) unchanged.
    ///
    /// At `f64` the update runs an AVX-512F (8 lanes) or AVX2+FMA (4 lanes)
    /// kernel when the host has one and `RM_SIMD` is not `0`; otherwise, and
    /// at `f32`, it runs the zipped-slice reference loop. The kernel keeps
    /// every operation and its rounding except the two bias-correction
    /// quotients, which divide by per-step constants. It takes `y = 1/b` once per step and
    /// per element corrects `q = a·y` twice by `q ← q + (a − b·q)·y` in
    /// fused operations. By Markstein's theorem (IBM J. Res. Dev. 34(1),
    /// 1990) the second correction yields exactly `a / b`, round to nearest,
    /// so the kernel is bit-identical to the reference. The theorem's
    /// conditions are checked, not assumed: a step whose `b₁` or `b₂` leaves
    /// `[2⁻²⁰, 1]` runs the reference, a zero numerator is its own quotient,
    /// and a vector holding a non-finite numerator or one of magnitude
    /// outside `[2⁻⁹⁰⁰, 2⁹⁰⁰]` uses the hardware division. Only the square
    /// root and the division by `√v̂ + ε` stay on the divider.
    fn step(&mut self) {
        self.step_count += 1;
        let step = AdamStep::new(
            self.beta1,
            self.beta2,
            self.epsilon,
            self.learning_rate,
            self.clip,
            self.step_count,
        );
        let moments = self.first_moment.iter_mut().zip(&mut self.second_moment);
        for (p, (m, v)) in self.params.iter().zip(moments) {
            p.update_value(|value, grad| {
                step.update(value.data_mut(), grad.data(), m.data_mut(), v.data_mut());
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn parameters(&self) -> &[Var<T>] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises (w - 3)^2 and checks convergence.
    fn optimise_quadratic(mut opt: impl Optimizer, steps: usize) -> f64 {
        for _ in 0..steps {
            let w = opt.parameters()[0].clone();
            opt.zero_grad();
            let loss = w.add_const(-3.0).square().sum();
            loss.backward();
            opt.step();
        }
        opt.parameters()[0].value().get(0, 0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let final_w = optimise_quadratic(Sgd::new(vec![w], 0.1), 200);
        assert!((final_w - 3.0).abs() < 1e-3, "w = {final_w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let final_w = optimise_quadratic(Adam::new(vec![w], 0.1), 500);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn adam_converges_at_f32_too() {
        let w: Var<f32> = Var::parameter(Matrix::from_vec(1, 1, vec![0.0f32]));
        let mut opt = Adam::new(vec![w.clone()], 0.1f32);
        for _ in 0..500 {
            opt.zero_grad();
            let loss = w.add_const(-3.0f32).square().sum();
            loss.backward();
            opt.step();
        }
        let final_w = w.value().get(0, 0);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn adam_tracks_step_count_and_zeroes_grads() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![1.0]));
        let mut adam = Adam::new(vec![w.clone()], 0.01);
        let loss = w.square().sum();
        loss.backward();
        assert!(w.grad().get(0, 0) != 0.0);
        adam.step();
        assert_eq!(adam.steps_taken(), 1);
        adam.zero_grad();
        assert_eq!(w.grad().get(0, 0), 0.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Sgd::new(vec![w.clone()], 1.0).with_clip(0.5);
        opt.zero_grad();
        // Gradient of 1000 * w at w=0 is 1000, clipped to 0.5.
        let big = w.scale(1000.0).sum();
        big.backward();
        opt.step();
        assert!((w.value().get(0, 0) + 0.5).abs() < 1e-12);
    }

    /// A single-example batch must reproduce the plain
    /// `zero_grad → backward → step` trajectory bitwise — the contract the
    /// batched trainers rely on for `batch_size = 1`.
    #[test]
    fn single_example_batch_matches_direct_step_bitwise() {
        let run = |batched: bool| -> Vec<u64> {
            let w = Var::parameter(Matrix::from_vec(2, 1, vec![0.3, -1.7]));
            let mut opt = Adam::new(vec![w.clone()], 0.05).with_clip(5.0);
            for step in 0..20 {
                let target = 1.0 + step as f64 * 0.1;
                if batched {
                    // Compute the gradient on a detached replica of the graph.
                    let replica = Var::parameter(w.value());
                    let loss = replica.add_const(-target).square().sum();
                    loss.backward();
                    let mut batch = GradientBatch::zeros_like(opt.parameters());
                    batch.accumulate(&[replica.grad()]);
                    assert_eq!(batch.examples(), 1);
                    opt.apply_batch(&batch);
                } else {
                    opt.zero_grad();
                    let loss = w.add_const(-target).square().sum();
                    loss.backward();
                    opt.step();
                }
            }
            w.value().data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(run(true), run(false));
    }

    /// Accumulating N per-example gradients and applying once equals one
    /// step over the manually summed gradient.
    #[test]
    fn batch_accumulation_sums_in_order() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![2.0]));
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        let mut batch = GradientBatch::zeros_like(opt.parameters());
        for g in [0.25, -1.5, 3.0] {
            batch.accumulate(&[Matrix::from_vec(1, 1, vec![g])]);
        }
        assert_eq!(batch.examples(), 3);
        assert_eq!(batch.sums()[0].get(0, 0), 0.25 - 1.5 + 3.0);
        opt.apply_batch(&batch);
        assert!((w.value().get(0, 0) - (2.0 - 0.1 * 1.75)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gradient batch holds")]
    fn batch_rejects_mismatched_example() {
        let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
        let mut batch = GradientBatch::zeros_like(&[w]);
        batch.accumulate(&[]);
    }

    /// The update `Adam::step` replaced: an indexed loop over the flat
    /// slices, clip applied per element when set. Kept here as the oracle
    /// of the slice pass.
    #[allow(clippy::too_many_arguments)]
    fn indexed_adam_reference<T: Scalar>(
        value: &mut [T],
        grad: &[T],
        m: &mut [T],
        v: &mut [T],
        step: u64,
        lr: T,
        clip: Option<T>,
    ) {
        let (beta1, beta2, eps) = (T::from_f64(0.9), T::from_f64(0.999), T::from_f64(1e-8));
        let t = T::from_f64(step as f64);
        let bias1 = T::ONE - beta1.powf(t);
        let bias2 = T::ONE - beta2.powf(t);
        for idx in 0..value.len() {
            let mut g = grad[idx];
            if let Some(c) = clip {
                g = g.clamp(-c, c);
            }
            let m_i = beta1 * m[idx] + (T::ONE - beta1) * g;
            let v_i = beta2 * v[idx] + (T::ONE - beta2) * g * g;
            m[idx] = m_i;
            v[idx] = v_i;
            let m_hat = m_i / bias1;
            let v_hat = v_i / bias2;
            value[idx] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    /// Adam's slice pass ≡ the indexed loop, bit for bit, at both
    /// precisions, with and without clipping, over tensors whose lengths
    /// are not multiples of the vector width and gradients holding exact
    /// `+0.0`, `-0.0` and clipped entries.
    fn adam_matches_indexed_reference<T: Scalar>(clip: Option<f64>) {
        let shapes = [(3, 5), (1, 1), (7, 3), (0, 4)];
        let entry = |i: usize, scale: f64| -> T {
            match i % 7 {
                0 => T::from_f64(0.0),
                1 => T::from_f64(-0.0),
                r => T::from_f64(scale * (r as f64 - 3.7) * (1.0 + i as f64 * 0.013)),
            }
        };
        let params: Vec<Var<T>> = shapes
            .iter()
            .map(|&(r, c)| Var::parameter(Matrix::from_fn(r, c, |i, j| entry(i * c + j + 2, 0.4))))
            .collect();
        let lr = T::from_f64(0.05);
        let mut adam = Adam::new(params.clone(), lr);
        if let Some(c) = clip {
            adam = adam.with_clip(T::from_f64(c));
        }
        let mut reference: Vec<(Vec<T>, Vec<T>, Vec<T>)> = params
            .iter()
            .map(|p| {
                let n = p.value_ref().len();
                (
                    p.value().data().to_vec(),
                    vec![T::ZERO; n],
                    vec![T::ZERO; n],
                )
            })
            .collect();
        for step in 1..=6u64 {
            adam.zero_grad();
            for (k, p) in params.iter().enumerate() {
                let (r, c) = p.shape();
                let g = Matrix::from_fn(r, c, |i, j| entry(i * c + j + k + step as usize, 3.0));
                p.add_grad(&g);
                let (w, m, v) = &mut reference[k];
                indexed_adam_reference(w, g.data(), m, v, step, lr, clip.map(T::from_f64));
            }
            adam.step();
            for (p, (w, _, _)) in params.iter().zip(&reference) {
                let got: Vec<u64> = p.value().data().iter().map(|x| x.to_bits_u64()).collect();
                let want: Vec<u64> = w.iter().map(|x| x.to_bits_u64()).collect();
                assert_eq!(got, want, "{} Adam drifted at step {step}", T::NAME);
            }
        }
    }

    #[test]
    fn adam_slice_pass_is_bit_identical_to_the_indexed_loop() {
        for clip in [None, Some(5.0), Some(0.5)] {
            adam_matches_indexed_reference::<f64>(clip);
            adam_matches_indexed_reference::<f32>(clip);
        }
    }

    /// A cleared batch is bitwise a fresh one, so a training loop can keep
    /// one batch for every step.
    #[test]
    fn cleared_batch_equals_a_fresh_batch() {
        let w = Var::parameter(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let mut batch = GradientBatch::zeros_like(std::slice::from_ref(&w));
        batch.accumulate(&[Matrix::from_vec(1, 2, vec![1.5, -2.0])]);
        batch.clear();
        assert_eq!(batch.examples(), 0);
        assert!(batch.sums()[0].bits_eq(&GradientBatch::zeros_like(&[w]).sums()[0]));
    }

    #[test]
    fn multi_parameter_update_touches_all() {
        let a = Var::parameter(Matrix::from_vec(1, 1, vec![1.0]));
        let b = Var::parameter(Matrix::from_vec(1, 1, vec![2.0]));
        let mut opt = Adam::new(vec![a.clone(), b.clone()], 0.05);
        for _ in 0..50 {
            opt.zero_grad();
            let loss = a.square().add(&b.square()).sum();
            loss.backward();
            opt.step();
        }
        assert!(a.value().get(0, 0).abs() < 1.0);
        assert!(b.value().get(0, 0).abs() < 2.0);
    }
}
