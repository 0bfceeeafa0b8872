//! Loss functions as graph nodes, generic over the [`Scalar`] precision:
//! the losses the training tapes' oracles build.
//!
//! The radio-map imputation models never observe ground truth for the values
//! they impute; instead they are trained on *reconstruction* error over the
//! observed entries only (Section IV-D of the paper). Every loss here is
//! therefore masked: entries whose mask is 0 contribute nothing to the loss
//! and receive no gradient.

use rm_tensor::{Matrix, Scalar};

use crate::Var;

/// Masked mean-squared error:
/// `MSE(mask ⊙ prediction, mask ⊙ target)`.
///
/// This is the `L(a, a′, mask)` function of the paper's loss definition. The
/// average is taken over *all* entries (matching an MSE over the masked
/// matrices), so fully-masked inputs simply produce a zero loss.
pub fn masked_mse<T: Scalar>(prediction: &Var<T>, target: &Matrix<T>, mask: &Matrix<T>) -> Var<T> {
    let target_var = Var::constant(target.hadamard(mask));
    prediction.mask(mask).sub(&target_var).square().mean()
}

/// Masked mean-squared error between two variables (both receive gradients).
/// Used for the cross-consistency term between forward and backward
/// imputations in BiSIM.
pub fn masked_mse_between<T: Scalar>(a: &Var<T>, b: &Var<T>, mask: &Matrix<T>) -> Var<T> {
    a.mask(mask).sub(&b.mask(mask)).square().mean()
}

/// Plain (unmasked) mean-squared error against a constant target.
pub fn mse<T: Scalar>(prediction: &Var<T>, target: &Matrix<T>) -> Var<T> {
    let ones = Matrix::ones(target.rows(), target.cols());
    masked_mse(prediction, target, &ones)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_mse_ignores_masked_entries() {
        let pred = Var::parameter(Matrix::column(&[1.0, 100.0, 3.0]));
        let target = Matrix::column(&[1.0, 0.0, 3.0]);
        let mask = Matrix::column(&[1.0, 0.0, 1.0]);
        let loss = masked_mse(&pred, &target, &mask);
        assert!(loss.scalar_value().abs() < 1e-12);
        loss.backward();
        // The masked entry receives no gradient.
        assert_eq!(pred.grad().get(1, 0), 0.0);
    }

    #[test]
    fn masked_mse_penalises_observed_errors() {
        let pred = Var::parameter(Matrix::column(&[2.0, 5.0]));
        let target = Matrix::column(&[0.0, 5.0]);
        let mask = Matrix::ones(2, 1);
        let loss = masked_mse(&pred, &target, &mask);
        // ((2-0)^2 + 0) / 2 = 2
        assert!((loss.scalar_value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mse_equals_masked_mse_with_full_mask() {
        let pred = Var::parameter(Matrix::column(&[1.0, 2.0, 3.0]));
        let target = Matrix::column(&[0.5, 2.5, 2.0]);
        let a = mse(&pred, &target).scalar_value();
        let b = masked_mse(&pred, &target, &Matrix::ones(3, 1)).scalar_value();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn masked_mse_between_is_symmetric_and_zero_on_equal() {
        let a = Var::parameter(Matrix::column(&[1.0, 2.0]));
        let b = Var::parameter(Matrix::column(&[1.0, 2.0]));
        let mask = Matrix::ones(2, 1);
        assert!(masked_mse_between(&a, &b, &mask).scalar_value().abs() < 1e-12);

        let c = Var::parameter(Matrix::column(&[3.0, 2.0]));
        let ab = masked_mse_between(&a, &c, &mask).scalar_value();
        let ba = masked_mse_between(&c, &a, &mask).scalar_value();
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.0);
    }

    #[test]
    fn masked_mse_works_at_f32() {
        let pred: Var<f32> = Var::parameter(Matrix::column(&[2.0f32, 5.0]));
        let target = Matrix::column(&[0.0f32, 5.0]);
        let mask = Matrix::ones(2, 1);
        let loss = masked_mse(&pred, &target, &mask);
        assert!((loss.scalar_value() - 2.0).abs() < 1e-6);
        loss.backward();
        assert!(pred.grad().is_finite());
    }
}
