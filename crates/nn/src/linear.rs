//! Fully-connected (linear) layers, generic over the [`Scalar`] precision.

// rm-lint: hot-path
// Every per-step forward of the recurrent imputers funnels through these
// layers: the graph's products go into pooled node buffers, the weights'
// into caller-owned slices, so steady state allocates nothing.

use rand::Rng;
use rm_tensor::{Matrix, Scalar, Var};

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
    /// Creates a linear layer with Xavier-initialised weights and zero bias.
    ///
    /// The RNG stream is consumed in `f64` regardless of `T` (see
    /// [`Matrix::random_uniform`]), so an `f32` layer is the rounding of the
    /// `f64` layer initialised from the same seed.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        LinearWeights::new(in_features, out_features, rng).to_linear()
    }

    /// Builds a layer from explicit weight and bias matrices (useful in tests).
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

    /// Applies the layer to a `(in_features, batch)` input.
    pub fn forward(&self, x: &Var<T>) -> Var<T> {
        debug_assert_eq!(
            x.shape().0,
            self.in_features,
            "Linear input has {} rows, expected {}",
            x.shape().0,
            self.in_features
        );
        // One graph node for `W·x + b`, bitwise the same as `matmul` then
        // `add_broadcast_col`, computed into a pooled buffer, so the graph
        // forward is allocation-free in steady state (see
        // `rm_tensor::workspace`).
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

    /// Copies the current parameter values into a graph-free
    /// [`LinearWeights`] for inference on worker threads.
    pub fn snapshot(&self) -> LinearWeights<T> {
        LinearWeights {
            weight: self.weight.value(),
            bias: self.bias.value(),
        }
    }
}

/// A graph-free snapshot of a [`Linear`] layer: plain matrices, so it is
/// `Send + Sync` and can be shared across the deterministic thread pool
/// (unlike [`Var`], whose nodes are `Rc`-shared).
///
/// The forward pass performs the same operations in the same order as
/// [`Linear::forward`], so inference through a snapshot is bit-identical to
/// inference through the autodiff graph at the same precision.
#[derive(Debug, Clone)]
pub struct LinearWeights<T: Scalar = f64> {
    weight: Matrix<T>,
    bias: Matrix<T>,
}

impl<T: Scalar> LinearWeights<T> {
    /// Xavier-initialised weights and a zero bias drawn from `rng` (the
    /// weights of [`Linear::new`]).
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Matrix::xavier(out_features, in_features, rng),
            bias: Matrix::zeros(out_features, 1),
        }
    }

    /// The weight and bias, mutably: a graph-free trainer updates them in
    /// place and keeps its gradients in a layer of the same shape.
    pub fn parts_mut(&mut self) -> (&mut Matrix<T>, &mut Matrix<T>) {
        (&mut self.weight, &mut self.bias)
    }

    /// Rounds the snapshot to another precision — the one-time weight
    /// rounding of the f32 inference path.
    pub fn cast<U: Scalar>(&self) -> LinearWeights<U> {
        LinearWeights {
            weight: self.weight.cast(),
            bias: self.bias.cast(),
        }
    }

    /// Rebuilds a trainable [`Linear`] layer from this snapshot (fresh
    /// parameter leaves holding copies of the snapshotted matrices).
    ///
    /// This is the inverse of [`Linear::snapshot`] and the rebuild half of
    /// mini-batch training: a worker thread reconstructs the layer from the
    /// `Send + Sync` snapshot, runs forward/backward on its private graph
    /// replica, and ships the extracted gradients back as plain matrices.
    /// The rebuilt layer performs the same operations on the same values as
    /// the original, so its gradients are bit-identical to gradients
    /// computed on the original graph.
    pub fn to_linear(&self) -> Linear<T> {
        Linear::from_parts(self.weight.clone(), self.bias.clone())
    }

    /// Applies `W·x + b` to one column `x`, writing into `out`: the
    /// product from `+0.0` in increasing column order, then the bias — the
    /// operations of [`Linear::forward`]'s graph node, so the result is
    /// bit-identical to the graph forward at the same precision.
    pub fn affine(&self, x: &[T], out: &mut [T]) {
        out.fill(T::ZERO);
        self.weight.matvec_acc(0, x, out);
        for (v, &b) in out.iter_mut().zip(self.bias.data()) {
            *v += b;
        }
    }

    /// Bytes this snapshot keeps resident (weight + bias payloads at the
    /// compute precision `T`).
    pub fn resident_bytes(&self) -> usize {
        (self.weight.data().len() + self.bias.data().len()) * std::mem::size_of::<T>()
    }

    /// The `(out_features, in_features)` weight matrix — read access for
    /// snapshot export (the serving artifact persists these exact bits).
    pub fn weight(&self) -> &Matrix<T> {
        &self.weight
    }

    /// The `(out_features, 1)` bias column.
    pub fn bias(&self) -> &Matrix<T> {
        &self.bias
    }

    /// Rebuilds a snapshot from its raw matrices (the deserialization
    /// inverse of [`LinearWeights::weight`]/[`LinearWeights::bias`]): the
    /// loaded layer holds exactly the given bits, so persisted snapshots
    /// round-trip bitwise.
    ///
    /// # Panics
    /// Panics if `bias` is not an `(out_features, 1)` column matching
    /// `weight`.
    pub fn from_parts(weight: Matrix<T>, bias: Matrix<T>) -> Self {
        assert_eq!(
            (bias.rows(), bias.cols()),
            (weight.rows(), 1),
            "bias shape does not match weight"
        );
        Self { weight, bias }
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

    #[test]
    fn snapshot_forward_matches_graph_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer: Linear = Linear::new(4, 3, &mut rng);
        let weights = layer.snapshot();
        let x = Matrix::random_uniform(4, 2, 1.0, &mut rng);
        let graph = layer.forward(&Var::constant(x.clone())).value();
        assert!(graph.bits_eq(&affine_columns(&weights, &x)));
    }

    /// The snapshot → rebuild round-trip must preserve the training
    /// trajectory: gradients computed on the rebuilt layer are bit-identical
    /// to gradients computed on the original graph (the property the batched
    /// trainers rely on to ship backward passes to worker threads).
    #[test]
    fn rebuilt_layer_gradients_match_original_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let original: Linear = Linear::new(4, 3, &mut rng);
        let rebuilt = original.snapshot().to_linear();
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
        let layer32 = Linear::from_parts(
            layer64.weight().value().cast::<f32>(),
            layer64.bias().value().cast::<f32>(),
        );
        let x64 = Matrix::<f64>::random_uniform(5, 1, 1.0, &mut rng);
        let x32: Matrix<f32> = x64.cast();
        let graph = layer32.forward(&Var::constant(x32.clone())).value();
        assert!(graph.bits_eq(&affine_columns(&weights32, &x32)));
    }

    #[test]
    fn cast_roundtrip_through_f32_loses_only_rounding() {
        let mut rng = StdRng::seed_from_u64(11);
        let layer: Linear = Linear::new(3, 3, &mut rng);
        let w64 = layer.snapshot();
        let back = w64.cast::<f32>().cast::<f64>();
        let x = Matrix::<f64>::random_uniform(3, 1, 1.0, &mut rng);
        // f64 -> f32 -> f64 weights agree with the originals to f32 epsilon.
        assert!(affine_columns(&back, &x).approx_eq(&affine_columns(&w64, &x), 1e-5));
    }
}
