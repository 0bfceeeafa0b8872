//! Fully-connected (linear) layers, generic over the [`Scalar`] precision.

// rm-lint: hot-path
// Every per-step forward of the recurrent imputers funnels through these
// layers into caller-owned slices, so steady state allocates nothing.

use rand::Rng;
use rm_tensor::{Matrix, Scalar};

/// The weights of a linear layer `y = W x + b`: plain matrices, so they are
/// `Send + Sync` and shared across the deterministic thread pool.
/// [`LinearWeights::affine`] is the layer's one forward, which training
/// and inference both run.
#[derive(Debug, Clone)]
pub struct LinearWeights<T: Scalar = f64> {
    weight: Matrix<T>,
    bias: Matrix<T>,
}

impl<T: Scalar> LinearWeights<T> {
    /// Xavier-initialised weights and a zero bias drawn from `rng`.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Matrix::xavier(out_features, in_features, rng),
            bias: Matrix::zeros(out_features, 1),
        }
    }

    /// The weight and bias, mutably: the trainers update them in place.
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

    /// Applies `W·x + b` to one column `x`, writing into `out`: the
    /// single-column product ([`Matrix::matvec_into`]), then the bias — the
    /// operations of the graph's affine node on a column, so the result is
    /// bit-identical to the graph forward at the same precision.
    pub fn affine(&self, x: &[T], out: &mut [T]) {
        self.weight.matvec_into(x, out);
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

    /// [`LinearWeights::affine`] of every column of `x`, as a matrix.
    fn affine_columns<T: Scalar>(weights: &LinearWeights<T>, x: &Matrix<T>) -> Matrix<T> {
        let (rows, cols) = (weights.weight().rows(), x.cols());
        let mut out = Matrix::zeros(rows, cols);
        let mut column = vec![T::ZERO; x.rows()];
        let mut y = vec![T::ZERO; rows];
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
    fn cast_roundtrip_through_f32_loses_only_rounding() {
        let mut rng = StdRng::seed_from_u64(11);
        let w64: LinearWeights = LinearWeights::new(3, 3, &mut rng);
        let back = w64.cast::<f32>().cast::<f64>();
        let x = Matrix::<f64>::random_uniform(3, 1, 1.0, &mut rng);
        // f64 -> f32 -> f64 weights agree with the originals to f32 epsilon.
        assert!(affine_columns(&back, &x).approx_eq(&affine_columns(&w64, &x), 1e-5));
    }
}
