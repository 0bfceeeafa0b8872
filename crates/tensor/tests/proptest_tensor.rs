//! Property-based tests for matrices and autodiff.

use proptest::prelude::*;
use rm_tensor::{Matrix, Var, Workspace};

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
        // in the same order, so equality is bitwise, not approximate.
        let mut data = seed;
        let mut next = || {
            // SplitMix64-ish stream, mapped into [-4, 4).
            data = data.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((data >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let blocked = a.matmul(&b);
        let naive = a.matmul_naive(&b);
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

    #[test]
    fn vstack_then_slice_roundtrips(a in arb_matrix(2, 3), b in arb_matrix(4, 3)) {
        let stacked = a.vstack(&b);
        prop_assert!(stacked.slice_rows(0, 2).approx_eq(&a, 0.0));
        prop_assert!(stacked.slice_rows(2, 4).approx_eq(&b, 0.0));
    }

    #[test]
    fn softmax_is_a_probability_vector(data in prop::collection::vec(-20.0f64..20.0, 1..16)) {
        let x = Var::constant(Matrix::column(&data));
        let y = x.softmax_col().value();
        prop_assert!((y.sum() - 1.0).abs() < 1e-9);
        prop_assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

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
    fn workspace_matmul_matches_fresh_allocation_bitwise(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..10,
        seed in 0u64..1000,
    ) {
        // The workspace checkout is capacity-only reuse: the recycled buffer
        // is re-zeroed and the same kernel runs over it, so the result must
        // match a freshly allocated matmul bit for bit — including when the
        // checked-out buffer is a differently shaped leftover from an
        // earlier, larger product.
        let mut data = seed;
        let mut next = || {
            data = data.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((data >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let fresh = a.matmul(&b);

        let mut ws = Workspace::new();
        // Dirty the pool with a larger product first so the second checkout
        // reuses a buffer that held other values.
        let big_a = Matrix::from_fn(m + 2, k, |_, _| next());
        let scratch = big_a.matmul_ws(&b, &mut ws);
        ws.give(scratch);
        let pooled = a.matmul_ws(&b, &mut ws);

        prop_assert_eq!(fresh.shape(), pooled.shape());
        for (x, y) in fresh.data().iter().zip(pooled.data().iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn recycled_graphs_rebuild_bitwise_identical_under_proptest(
        w_data in prop::collection::vec(-2.0f64..2.0, 12),
        x_data in prop::collection::vec(-2.0f64..2.0, 4),
        rounds in 2usize..5,
    ) {
        // Arena parity for the live graph: after recycling a graph, a
        // rebuild of the same computation from pooled nodes and buffers must
        // reproduce every value and gradient bit for bit. With RM_ARENA=0
        // recycling is a no-op and the rebuilds are fresh allocations, so
        // this property pins arena ≡ no-arena as well.
        let w = Var::parameter(Matrix::from_vec(3, 4, w_data));
        let mut reference: Option<(f64, Vec<u64>)> = None;
        for _ in 0..rounds {
            let x = Var::constant(Matrix::column(&x_data));
            let h = w.matmul(&x).tanh();
            let loss = h.square().sum();
            loss.backward();
            let bits: Vec<u64> = w.grad().data().iter().map(|v| v.to_bits()).collect();
            let value = loss.scalar_value();
            match &reference {
                None => reference = Some((value, bits)),
                Some((v0, bits0)) => {
                    prop_assert_eq!(value.to_bits(), v0.to_bits());
                    prop_assert_eq!(&bits, bits0);
                }
            }
            w.zero_grad();
            Var::recycle_all([loss, h, x]);
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
