//! The Adam optimizer over graph parameters, generic over the [`Scalar`]
//! precision: the oracle trajectory of the training tapes, which update
//! plain weights through the same [`AdamStep::update`].

use rm_tensor::{AdamStep, Matrix, Scalar};

use crate::Var;

/// The Adam optimizer (Kingma & Ba), as used to train BiSIM and the neural
/// baselines in the paper.
pub struct Adam<T: Scalar = f64> {
    params: Vec<Var<T>>,
    learning_rate: T,
    clip: Option<T>,
    step_count: u64,
    first_moment: Vec<Matrix<T>>,
    second_moment: Vec<Matrix<T>>,
}

impl<T: Scalar> Adam<T> {
    /// Creates an Adam optimizer with the standard hyper-parameters
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `epsilon = 1e-8`).
    pub fn new(params: Vec<Var<T>>, learning_rate: T) -> Self {
        let zeros = |p: &Var<T>| {
            let (r, c) = p.shape();
            Matrix::zeros(r, c)
        };
        Self {
            first_moment: params.iter().map(zeros).collect(),
            second_moment: params.iter().map(zeros).collect(),
            params,
            learning_rate,
            clip: None,
            step_count: 0,
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

    /// The parameters managed by this optimizer.
    pub fn parameters(&self) -> &[Var<T>] {
        &self.params
    }

    /// One [`AdamStep::update`] per parameter tensor from the gradients
    /// accumulated in the parameters.
    pub fn step(&mut self) {
        self.step_count += 1;
        let step = AdamStep::new(
            T::from_f64(0.9),
            T::from_f64(0.999),
            T::from_f64(1e-8),
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

    /// Clears the accumulated gradients of all managed parameters.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises (w - 3)^2 and checks convergence.
    fn optimise_quadratic(mut opt: Adam, steps: usize) -> f64 {
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

    /// With a clip, a gradient beyond it moves the weight exactly as a
    /// gradient at the clip does.
    #[test]
    fn clipping_bounds_update_magnitude() {
        let run = |slope: f64| {
            let w = Var::parameter(Matrix::from_vec(1, 1, vec![0.0]));
            let mut opt = Adam::new(vec![w.clone()], 1.0).with_clip(0.5);
            for _ in 0..3 {
                opt.zero_grad();
                w.scale(slope).sum().backward();
                opt.step();
            }
            w.value().get(0, 0)
        };
        assert_eq!(run(1000.0).to_bits(), run(0.5).to_bits());
        assert!(run(1000.0) < 0.0);
    }

    /// The tapes' update route — one pair's gradient summed into zeroed
    /// buffers on a detached copy of the weights, then
    /// [`AdamStep::update`] on the plain slices — reproduces the graph's
    /// `zero_grad → backward → step` trajectory bitwise.
    #[test]
    fn single_example_batch_matches_direct_step_bitwise() {
        let w = Var::parameter(Matrix::from_vec(2, 1, vec![0.3, -1.7]));
        let mut opt = Adam::new(vec![w.clone()], 0.05).with_clip(5.0);
        let mut plain = w.value();
        let (mut m, mut v) = (Matrix::zeros(2, 1), Matrix::zeros(2, 1));
        for step in 1..=20u64 {
            let target = 1.0 + step as f64 * 0.1;
            opt.zero_grad();
            w.add_const(-target).square().sum().backward();
            opt.step();

            let replica = Var::parameter(plain.clone());
            replica.add_const(-target).square().sum().backward();
            let mut grad = Matrix::zeros(2, 1);
            grad.axpy(1.0, &replica.grad());
            let update = AdamStep::new(0.9, 0.999, 1e-8, 0.05, Some(5.0), step);
            update.update(plain.data_mut(), grad.data(), m.data_mut(), v.data_mut());
            assert!(w.value().bits_eq(&plain), "step {step} drifted");
        }
    }

    /// `base^t` by binary powering, lowest bit first.
    fn power<T: Scalar>(base: T, t: u64) -> T {
        let mut power = T::ONE;
        let mut square = base;
        for bit in 0..64 - t.leading_zeros() {
            if t >> bit & 1 == 1 {
                power *= square;
            }
            if t >> (bit + 1) != 0 {
                square *= square;
            }
        }
        power
    }

    /// Adam's update in Kingma & Ba's efficient form as an indexed loop over
    /// the flat slices, clip applied per element when set: the step size
    /// `α_t = (α·√(1 − β₂ᵗ)) / (1 − β₁ᵗ)` and the guard `ε̂ = ε·√(1 − β₂ᵗ)`
    /// once per step, then `w −= (α_t·m) / (√v + ε̂)`. Kept here as the
    /// oracle of the slice pass.
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
        let root = (T::ONE - power(beta2, step)).sqrt();
        let alpha = lr * root / (T::ONE - power(beta1, step));
        let eps_hat = eps * root;
        for idx in 0..value.len() {
            let mut g = grad[idx];
            if let Some(c) = clip {
                g = g.clamp(-c, c);
            }
            let m_i = beta1 * m[idx] + (T::ONE - beta1) * g;
            let v_i = beta2 * v[idx] + (T::ONE - beta2) * g * g;
            m[idx] = m_i;
            v[idx] = v_i;
            value[idx] -= alpha * m_i / (v_i.sqrt() + eps_hat);
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
