//! Property-based tests of the autodiff graph's tensor ops.

use proptest::prelude::*;
use rm_autodiff::Var;
use rm_tensor::Matrix;

proptest! {
    #[test]
    fn autodiff_linear_gradient_is_input(w_data in prop::collection::vec(-2.0f64..2.0, 6), x_data in prop::collection::vec(-2.0f64..2.0, 3)) {
        // loss = sum(W x); dL/dW[i][j] = x[j]
        let w = Var::parameter(Matrix::from_vec(2, 3, w_data));
        let x = Var::constant(Matrix::column(&x_data));
        let loss = w.matmul(&x).sum();
        loss.backward();
        let grad = w.grad();
        for i in 0..2 {
            for j in 0..3 {
                prop_assert!((grad.get(i, j) - x_data[j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mask_zeroes_gradient_where_mask_is_zero(x_data in prop::collection::vec(-3.0f64..3.0, 6), mask_bits in prop::collection::vec(prop::bool::ANY, 6)) {
        let x = Var::parameter(Matrix::from_vec(2, 3, x_data));
        let mask = Matrix::from_vec(2, 3, mask_bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect());
        let loss = x.mask(&mask).square().sum();
        loss.backward();
        let grad = x.grad();
        for (i, &bit) in mask_bits.iter().enumerate() {
            let (r, c) = (i / 3, i % 3);
            if !bit {
                prop_assert_eq!(grad.get(r, c), 0.0);
            }
        }
    }
}
