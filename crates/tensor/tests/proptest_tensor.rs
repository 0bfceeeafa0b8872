//! Property-based tests for matrices.

use proptest::prelude::*;
use rm_tensor::Matrix;

/// The single-column product as its definition reads: lane `k mod 8` of
/// each row adds `W[r, k]·x[k]` from `−0.0` in increasing `k`, and the lanes
/// reduce as `(l0+l4, l1+l5, l2+l6, l3+l7)`, then `(s0+s2, s1+s3)`, then one
/// value.
fn column_product(w: &Matrix, x: &Matrix) -> Matrix {
    Matrix::from_fn(w.rows(), 1, |r, _| {
        let mut lanes = [-0.0f64; 8];
        for k in 0..w.cols() {
            lanes[k % 8] += w.get(r, k) * x.get(k, 0);
        }
        let s: [f64; 4] = std::array::from_fn(|j| lanes[j] + lanes[j + 4]);
        (s[0] + s[2]) + (s[1] + s[3])
    })
}

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn blocked_matmul_matches_naive_reference_on_random_shapes(
        m in 1usize..12,
        k in 1usize..140,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        // `k` crosses the MATMUL_BLOCK panel boundary, exercising both full
        // and ragged panels of the blocked kernel. The two kernels accumulate
        // in the same order, so equality is bitwise, not approximate. A
        // single column (`n = 1`) is the blocked single-column product, held
        // to its written-out definition instead.
        let mut data = seed;
        let mut next = || {
            // SplitMix64-ish stream, mapped into [-4, 4).
            data = data.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((data >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let blocked = a.matmul(&b);
        let naive = if n == 1 { column_product(&a, &b) } else { a.matmul_naive(&b) };
        prop_assert_eq!(blocked.shape(), naive.shape());
        for (x, y) in blocked.data().iter().zip(naive.data().iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn transposed_kernel_matches_explicit_transpose(a in arb_matrix(4, 6), c in arb_matrix(4, 5)) {
        prop_assert!(a.matmul_at_b(&c).approx_eq(&a.transpose().matmul(&c), 1e-9));
    }

    #[test]
    fn f32_and_f64_kernels_agree_within_epsilon(
        m in 1usize..10,
        k in 1usize..140,
        n in 1usize..10,
        seed in 0u64..1000,
    ) {
        // The f32 kernel is the same monomorphised code as the f64 kernel, so
        // on finite inputs its result must be the f64 result up to f32
        // rounding. Inputs are bounded by 4, so each of the k products is
        // bounded by 16 and the standard accumulated-rounding bound is
        // ~k² · 16 · ε_f32 (input rounding + k ordered additions), padded 2×.
        let mut data = seed;
        let mut next = || {
            data = data.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((data >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let a32: Matrix<f32> = a.cast();
        let b32: Matrix<f32> = b.cast();
        let tol = 32.0 * (k as f64) * (k as f64).max(8.0) * f32::EPSILON as f64;

        let c64 = a.matmul(&b);
        let c32 = a32.matmul(&b32);
        prop_assert_eq!(c64.shape(), c32.shape());
        for (x64, x32) in c64.data().iter().zip(c32.data().iter()) {
            prop_assert!(
                (x64 - *x32 as f64).abs() <= tol,
                "matmul f32 {} vs f64 {} (tol {})", x32, x64, tol
            );
        }

        // The transposed gradient kernel obeys the same bound (reduction
        // length is m here, which is ≤ 10 ≪ k, so the matmul tol covers it).
        let g = Matrix::from_fn(m, n, |_, _| next());
        let at64 = a.matmul_at_b(&g);
        let at32 = a32.matmul_at_b(&g.cast::<f32>());
        for (x64, x32) in at64.data().iter().zip(at32.data().iter()) {
            prop_assert!((x64 - *x32 as f64).abs() <= tol);
        }

        // axpy: one multiply-add per entry, so plain f32 epsilon scaled by
        // the value bound is enough.
        let mut y64 = Matrix::from_fn(1, k, |_, _| next());
        let mut y32: Matrix<f32> = y64.cast();
        let x_row = Matrix::from_fn(1, k, |_, _| next());
        y64.axpy(0.5, &x_row);
        y32.axpy(0.5f32, &x_row.cast::<f32>());
        for (v64, v32) in y64.data().iter().zip(y32.data().iter()) {
            prop_assert!((v64 - *v32 as f64).abs() <= 64.0 * f32::EPSILON as f64);
        }
    }

    #[test]
    fn matmul_is_associative(a in arb_matrix(3, 4), b in arb_matrix(4, 2), c in arb_matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn matmul_distributes_over_addition(a in arb_matrix(3, 3), b in arb_matrix(3, 3), c in arb_matrix(3, 3)) {
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn transpose_reverses_matmul(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn hadamard_is_commutative(a in arb_matrix(4, 4), b in arb_matrix(4, 4)) {
        prop_assert!(a.hadamard(&b).approx_eq(&b.hadamard(&a), 1e-12));
    }
}
