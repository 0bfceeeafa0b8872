//! The fully-connected layer as graph nodes, generic over the [`Scalar`]
//! precision: the oracle of [`LinearWeights::affine`].

use rand::Rng;
use rm_nn::LinearWeights;
use rm_tensor::{Matrix, Scalar};

use crate::Var;

/// A linear layer computing `y = W x + b` for column-vector (or
/// column-batched) inputs. `T` defaults to `f64`, the training precision.
#[derive(Clone)]
pub struct Linear<T: Scalar = f64> {
    weight: Var<T>,
    bias: Var<T>,
    in_features: usize,
    out_features: usize,
}

impl<T: Scalar> Linear<T> {
    /// The layer of [`LinearWeights::new`]'s weights (Xavier weights, zero
    /// bias), drawn from `rng`.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Self::from_weights(&LinearWeights::new(in_features, out_features, rng))
    }

    /// A layer of fresh parameter leaves holding copies of `weights`.
    pub fn from_weights(weights: &LinearWeights<T>) -> Self {
        Self::from_parts(weights.weight().clone(), weights.bias().clone())
    }

    /// Builds a layer from explicit weight and bias matrices.
    ///
    /// # Panics
    /// Panics if `bias` is not a column vector matching `weight`'s row count.
    pub fn from_parts(weight: Matrix<T>, bias: Matrix<T>) -> Self {
        assert_eq!(bias.cols(), 1, "bias must be a column vector");
        assert_eq!(weight.rows(), bias.rows(), "weight/bias row mismatch");
        let (out_features, in_features) = weight.shape();
        Self {
            weight: Var::parameter(weight),
            bias: Var::parameter(bias),
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Applies the layer to a `(in_features, batch)` input: one graph node
    /// for `W·x + b`, bitwise the same as `matmul` then `add_broadcast_col`.
    pub fn forward(&self, x: &Var<T>) -> Var<T> {
        debug_assert_eq!(
            x.shape().0,
            self.in_features,
            "Linear input has {} rows, expected {}",
            x.shape().0,
            self.in_features
        );
        self.weight.affine(x, &self.bias)
    }

    /// The trainable parameters of this layer.
    pub fn parameters(&self) -> Vec<Var<T>> {
        vec![self.weight.clone(), self.bias.clone()]
    }

    /// The weight matrix variable.
    pub fn weight(&self) -> &Var<T> {
        &self.weight
    }

    /// The bias vector variable.
    pub fn bias(&self) -> &Var<T> {
        &self.bias
    }

    /// Copies the current parameter values into plain [`LinearWeights`].
    pub fn snapshot(&self) -> LinearWeights<T> {
        LinearWeights::from_parts(self.weight.value(), self.bias.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]);
        let b = Matrix::column(&[0.5, -0.5]);
        let layer = Linear::from_parts(w, b);
        let x = Var::constant(Matrix::column(&[1.0, 2.0, 3.0]));
        let y = layer.forward(&x).value();
        // Row 0: 1*1 + 0*2 + -1*3 + 0.5 = -1.5; Row 1: 2 + 2 + 1.5 - 0.5 = 5.0
        assert!((y.get(0, 0) + 1.5).abs() < 1e-12);
        assert!((y.get(1, 0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn forward_broadcasts_bias_over_batch() {
        let w = Matrix::identity(2);
        let b = Matrix::column(&[1.0, 2.0]);
        let layer = Linear::from_parts(w, b);
        let x = Var::constant(Matrix::from_vec(2, 3, vec![0.0; 6]));
        let y = layer.forward(&x).value();
        for c in 0..3 {
            assert_eq!(y.get(0, c), 1.0);
            assert_eq!(y.get(1, c), 2.0);
        }
    }

    #[test]
    fn parameters_receive_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer: Linear = Linear::new(3, 2, &mut rng);
        let x = Var::constant(Matrix::column(&[1.0, -1.0, 2.0]));
        let loss = layer.forward(&x).square().sum();
        loss.backward();
        let params = layer.parameters();
        assert_eq!(params.len(), 2);
        assert!(params.iter().any(|p| p.grad().frobenius_norm() > 0.0));
    }

    #[test]
    fn new_has_expected_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer: Linear = Linear::new(5, 7, &mut rng);
        assert_eq!(layer.in_features(), 5);
        assert_eq!(layer.out_features(), 7);
        assert_eq!(layer.weight().shape(), (7, 5));
        assert_eq!(layer.bias().shape(), (7, 1));
    }

    #[test]
    #[should_panic(expected = "bias must be a column vector")]
    fn from_parts_rejects_bad_bias() {
        let _ = Linear::from_parts(Matrix::<f64>::zeros(2, 2), Matrix::<f64>::zeros(2, 2));
    }

    /// [`LinearWeights::affine`] of every column of `x`, as a matrix.
    fn affine_columns<T: Scalar>(weights: &LinearWeights<T>, x: &Matrix<T>) -> Matrix<T> {
        let (rows, cols) = (weights.weight().rows(), x.cols());
        let mut out = Matrix::zeros(rows, cols);
        let mut column = vec![T::ZERO; x.rows()];
        // A poisoned output slice: `affine` must overwrite every entry.
        let mut y = vec![T::from_f64(777.0); rows];
        for c in 0..cols {
            for (r, v) in column.iter_mut().enumerate() {
                *v = x.get(r, c);
            }
            weights.affine(&column, &mut y);
            for (r, &v) in y.iter().enumerate() {
                out.set(r, c, v);
            }
        }
        out
    }

    /// The graph forward of each column on its own (a single-column
    /// product, as every training and inference step runs it) against the
    /// snapshot's `affine`.
    #[test]
    fn snapshot_forward_matches_graph_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer: Linear = Linear::new(4, 3, &mut rng);
        let weights = layer.snapshot();
        let x = Matrix::random_uniform(4, 2, 1.0, &mut rng);
        let columns = affine_columns(&weights, &x);
        for c in 0..x.cols() {
            let column = Matrix::from_fn(4, 1, |r, _| x.get(r, c));
            let graph = layer.forward(&Var::constant(column)).value();
            let want = Matrix::from_fn(3, 1, |r, _| columns.get(r, c));
            assert!(graph.bits_eq(&want), "column {c}");
        }
    }

    /// The weights → graph round trip must preserve the training
    /// trajectory: gradients computed on a layer rebuilt from the snapshot
    /// are bit-identical to gradients computed on the original graph (what
    /// the tape oracles rely on when they build graphs from plain weights).
    #[test]
    fn rebuilt_layer_gradients_match_original_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let original: Linear = Linear::new(4, 3, &mut rng);
        let rebuilt = Linear::from_weights(&original.snapshot());
        let x = Matrix::random_uniform(4, 1, 1.0, &mut rng);
        let grads = |layer: &Linear| -> Vec<Matrix<f64>> {
            let loss = layer.forward(&Var::constant(x.clone())).square().sum();
            loss.backward();
            layer.parameters().iter().map(|p| p.grad()).collect()
        };
        for (a, b) in grads(&original).iter().zip(grads(&rebuilt).iter()) {
            assert!(a.bits_eq(b), "rebuilt-layer gradient drifted");
        }
    }

    #[test]
    fn f32_snapshot_forward_matches_f32_graph_forward_bitwise() {
        // Graph-vs-snapshot parity at the second precision: the rounded f32
        // weights must produce the same bits whether evaluated through a
        // `Var<f32>` graph or through the graph-free snapshot.
        let mut rng = StdRng::seed_from_u64(10);
        let layer64: Linear = Linear::new(5, 4, &mut rng);
        let weights32 = layer64.snapshot().cast::<f32>();
        let layer32 = Linear::from_weights(&weights32);
        let x64 = Matrix::<f64>::random_uniform(5, 1, 1.0, &mut rng);
        let x32: Matrix<f32> = x64.cast();
        let graph = layer32.forward(&Var::constant(x32.clone())).value();
        assert!(graph.bits_eq(&affine_columns(&weights32, &x32)));
    }
}
