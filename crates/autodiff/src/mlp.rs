//! Multilayer perceptrons as graph nodes.

use rand::Rng;
use rm_nn::{Activation, MlpWeights};
use rm_tensor::Scalar;

use crate::{Linear, Var};

/// Applies `activation` to a variable at any precision.
fn activate<T: Scalar>(activation: Activation, x: &Var<T>) -> Var<T> {
    match activation {
        Activation::Tanh => x.tanh(),
        Activation::Sigmoid => x.sigmoid(),
        Activation::Relu => x.relu(),
        Activation::Identity => x.clone(),
    }
}

/// A feed-forward network of [`Linear`] layers with a hidden activation and an
/// optional output activation.
///
/// BiSIM's attention alignment function (`e_ji = MLP(s_{j-1}, h''_i)`, Eq. 10)
/// is an instance with a single hidden layer and a scalar output; SSGAN's
/// discriminator one with a ReLU hidden layer and a sigmoid output.
#[derive(Clone)]
pub struct Mlp<T: Scalar = f64> {
    layers: Vec<Linear<T>>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl<T: Scalar> Mlp<T> {
    /// The network of [`MlpWeights::new`]'s weights, e.g. `&[8, 16, 1]` for
    /// 8 inputs through one 16-unit hidden layer to 1 output, drawn from
    /// `rng`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = MlpWeights::new(sizes, rng);
        Self::from_weights(&weights, hidden_activation, output_activation)
    }

    /// A network of fresh parameter leaves holding copies of `weights`,
    /// with the given activations.
    pub fn from_weights(
        weights: &MlpWeights<T>,
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        Self {
            layers: weights.layers().iter().map(Linear::from_weights).collect(),
            hidden_activation,
            output_activation,
        }
    }

    /// Input feature size.
    pub fn in_features(&self) -> usize {
        self.layers.first().map(Linear::in_features).unwrap_or(0)
    }

    /// Output feature size.
    pub fn out_features(&self) -> usize {
        self.layers.last().map(Linear::out_features).unwrap_or(0)
    }

    /// Applies the network to a `(in_features, batch)` input.
    pub fn forward(&self, x: &Var<T>) -> Var<T> {
        let last = self.layers.len() - 1;
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            let activation = if i == last {
                self.output_activation
            } else {
                self.hidden_activation
            };
            h = activate(activation, &h);
        }
        h
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var<T>> {
        self.layers.iter().flat_map(Linear::parameters).collect()
    }

    /// The layers, input to output.
    pub fn layers(&self) -> &[Linear<T>] {
        &self.layers
    }

    /// Copies the current layer parameters into plain [`MlpWeights`].
    pub fn snapshot(&self) -> MlpWeights<T> {
        MlpWeights::from_layers(self.layers.iter().map(Linear::snapshot).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rm_tensor::Matrix;

    #[test]
    fn mlp_shapes_and_parameter_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[4, 8, 3], Activation::Tanh, Activation::Identity, &mut rng);
        assert_eq!(mlp.in_features(), 4);
        assert_eq!(mlp.out_features(), 3);
        // 2 layers x (weight + bias)
        assert_eq!(mlp.parameters().len(), 4);
        let x = Var::constant(Matrix::column(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(mlp.forward(&x).shape(), (3, 1));
    }

    #[test]
    fn sigmoid_output_is_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Sigmoid, &mut rng);
        let x = Var::constant(Matrix::column(&[100.0, -100.0]));
        let y = mlp.forward(&x).scalar_value();
        assert!((0.0..=1.0).contains(&y));
    }

    #[test]
    fn gradients_reach_first_layer() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[3, 5, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Var::constant(Matrix::column(&[0.5, -0.5, 1.0]));
        let loss = mlp.forward(&x).square().sum();
        loss.backward();
        let first_layer_grad = mlp.parameters()[0].grad();
        assert!(first_layer_grad.frobenius_norm() > 0.0);
    }

    #[test]
    fn activation_apply_matches_var_ops() {
        let x = Var::constant(Matrix::column(&[-1.0, 0.0, 2.0]));
        assert!(activate(Activation::Identity, &x)
            .value()
            .approx_eq(&x.value(), 0.0));
        assert!(activate(Activation::Relu, &x)
            .value()
            .approx_eq(&Matrix::column(&[0.0, 0.0, 2.0]), 0.0));
        let s = activate(Activation::Sigmoid, &x).value();
        assert!((s.get(1, 0) - 0.5).abs() < 1e-12);
    }

    /// Snapshot → rebuild round-trip: the rebuilt MLP forwards and
    /// back-propagates bit-identically to the original.
    #[test]
    fn rebuilt_mlp_matches_original_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let original = Mlp::new(&[3, 6, 2], Activation::Tanh, Activation::Sigmoid, &mut rng);
        let rebuilt =
            Mlp::from_weights(&original.snapshot(), Activation::Tanh, Activation::Sigmoid);
        let x = Matrix::column(&[0.4, -1.1, 0.9]);
        let run = |mlp: &Mlp| -> (Matrix<f64>, Vec<Matrix<f64>>) {
            let out = mlp.forward(&Var::constant(x.clone()));
            out.square().sum().backward();
            let grads = mlp.parameters().iter().map(|p| p.grad()).collect();
            (out.value(), grads)
        };
        let (out_a, grads_a) = run(&original);
        let (out_b, grads_b) = run(&rebuilt);
        assert!(out_a.bits_eq(&out_b));
        for (a, b) in grads_a.iter().zip(grads_b.iter()) {
            assert!(a.bits_eq(b), "rebuilt-MLP gradient drifted");
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let _: Mlp = Mlp::new(&[4], Activation::Tanh, Activation::Identity, &mut rng);
    }
}
