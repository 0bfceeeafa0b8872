//! Multilayer perceptrons.

// rm-lint: hot-path
// BiSIM's attention alignment MLP runs once per (reference point, access
// point) pair per step; products reach `matmul_into` through the Linear
// layers, and `forward_ws` keeps snapshot inference allocation-free.

use rand::Rng;
use rm_tensor::{Matrix, Scalar, Var, Workspace};

use crate::{Linear, LinearWeights};

/// Activation function applied between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// No activation (identity).
    Identity,
}

impl Activation {
    /// Applies the activation to a variable at any precision.
    pub fn apply<T: Scalar>(self, x: &Var<T>) -> Var<T> {
        match self {
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Relu => x.relu(),
            Activation::Identity => x.clone(),
        }
    }

    /// Applies the activation to a plain matrix in place — the graph-free
    /// counterpart of [`Activation::apply`], using the same [`Scalar`]
    /// definitions element for element, so snapshot inference stays
    /// bit-identical to the graph forward.
    pub fn apply_in_place<T: Scalar>(self, m: &mut Matrix<T>) {
        match self {
            Activation::Tanh => {
                for v in m.data_mut() {
                    *v = v.tanh();
                }
            }
            Activation::Sigmoid => {
                for v in m.data_mut() {
                    *v = v.sigmoid();
                }
            }
            Activation::Relu => {
                for v in m.data_mut() {
                    *v = v.relu();
                }
            }
            Activation::Identity => {}
        }
    }
}

/// A feed-forward network of [`Linear`] layers with a hidden activation and an
/// optional output activation.
///
/// BiSIM's attention alignment function (`e_ji = MLP(s_{j-1}, h''_i)`, Eq. 10)
/// is an instance with a single hidden layer and a scalar output.
#[derive(Clone)]
pub struct Mlp<T: Scalar = f64> {
    layers: Vec<Linear<T>>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl<T: Scalar> Mlp<T> {
    /// Creates an MLP with the given layer sizes, e.g. `&[8, 16, 1]` for a
    /// network mapping 8 inputs through one 16-unit hidden layer to 1 output.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self {
            layers,
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
            h = if i == last {
                self.output_activation.apply(&h)
            } else {
                self.hidden_activation.apply(&h)
            };
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

    /// Copies the current layer parameters into a graph-free [`MlpWeights`]
    /// snapshot (`Send + Sync`, for worker-side graph rebuilds).
    pub fn snapshot(&self) -> MlpWeights<T> {
        MlpWeights {
            layers: self.layers.iter().map(Linear::snapshot).collect(),
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }
}

/// A graph-free snapshot of an [`Mlp`]: plain matrices plus the activation
/// choices, so it is `Send + Sync` and can cross the deterministic thread
/// pool (unlike [`Var`], whose nodes are `Rc`-shared).
#[derive(Debug, Clone)]
pub struct MlpWeights<T: Scalar = f64> {
    layers: Vec<LinearWeights<T>>,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl<T: Scalar> MlpWeights<T> {
    /// Assembles a snapshot from per-layer weights — the import constructor
    /// for weights rebuilt from exported tensors (the inverse of
    /// [`MlpWeights::layers`], as [`LinearWeights::from_parts`]
    /// (crate::LinearWeights::from_parts) is for one layer).
    ///
    /// # Panics
    /// Panics if `layers` is empty or consecutive layer shapes disagree.
    pub fn from_layers(
        layers: Vec<LinearWeights<T>>,
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].weight().rows(),
                pair[1].weight().cols(),
                "consecutive MLP layer shapes disagree"
            );
        }
        Self {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// The per-layer weight snapshots, input to output.
    pub fn layers(&self) -> &[LinearWeights<T>] {
        &self.layers
    }

    /// Rounds the snapshot to another precision.
    pub fn cast<U: Scalar>(&self) -> MlpWeights<U> {
        MlpWeights {
            layers: self.layers.iter().map(LinearWeights::cast).collect(),
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }

    /// Rebuilds a trainable [`Mlp`] from this snapshot (the inverse of
    /// [`Mlp::snapshot`]; see [`LinearWeights::to_linear`] for the role this
    /// plays in mini-batch training).
    pub fn to_mlp(&self) -> Mlp<T> {
        Mlp {
            layers: self.layers.iter().map(LinearWeights::to_linear).collect(),
            hidden_activation: self.hidden_activation,
            output_activation: self.output_activation,
        }
    }

    /// Applies the network to a `(in_features, batch)` input on plain
    /// matrices — the same layers and activations in the same order as
    /// [`Mlp::forward`], so the output is bit-identical to the graph forward
    /// at the same precision.
    pub fn forward(&self, x: &Matrix<T>) -> Matrix<T> {
        let last = self.layers.len() - 1;
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = layer.forward(&h);
            let act = if i == last {
                self.output_activation
            } else {
                self.hidden_activation
            };
            act.apply_in_place(&mut out);
            h = out;
        }
        h
    }

    /// [`MlpWeights::forward`] with every intermediate drawn from `ws` — the
    /// workspace-backed variant for snapshot-inference loops. Bitwise
    /// identical to `forward` (reuse is capacity-only).
    pub fn forward_ws(&self, x: &Matrix<T>, ws: &mut Workspace<T>) -> Matrix<T> {
        let last = self.layers.len() - 1;
        let mut h: Option<Matrix<T>> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = layer.forward_ws(h.as_ref().unwrap_or(x), ws);
            let act = if i == last {
                self.output_activation
            } else {
                self.hidden_activation
            };
            act.apply_in_place(&mut out);
            if let Some(prev) = h.replace(out) {
                ws.give(prev);
            }
        }
        h.expect("an MLP always has at least one layer")
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
        assert!(Activation::Identity
            .apply(&x)
            .value()
            .approx_eq(&x.value(), 0.0));
        assert!(Activation::Relu
            .apply(&x)
            .value()
            .approx_eq(&Matrix::column(&[0.0, 0.0, 2.0]), 0.0));
        let s = Activation::Sigmoid.apply(&x).value();
        assert!((s.get(1, 0) - 0.5).abs() < 1e-12);
    }

    /// Snapshot → rebuild round-trip: the rebuilt MLP forwards and
    /// back-propagates bit-identically to the original.
    #[test]
    fn rebuilt_mlp_matches_original_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let original = Mlp::new(&[3, 6, 2], Activation::Tanh, Activation::Sigmoid, &mut rng);
        let rebuilt = original.snapshot().to_mlp();
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
    fn snapshot_forward_and_workspace_forward_match_graph_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        let mlp = Mlp::new(&[3, 6, 2], Activation::Tanh, Activation::Sigmoid, &mut rng);
        let weights = mlp.snapshot();
        let x = Matrix::column(&[0.4, -1.1, 0.9]);
        let graph = mlp.forward(&Var::constant(x.clone())).value();
        let snap = weights.forward(&x);
        assert!(graph.bits_eq(&snap));
        let mut ws = Workspace::new();
        // Poison the workspace so checkouts must reinitialise their buffers.
        ws.give(Matrix::filled(6, 1, f64::NAN));
        let pooled = weights.forward_ws(&x, &mut ws);
        assert!(graph.bits_eq(&pooled));
        ws.give(pooled);
        assert!(graph.bits_eq(&weights.forward_ws(&x, &mut ws)));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let _: Mlp = Mlp::new(&[4], Activation::Tanh, Activation::Identity, &mut rng);
    }
}
