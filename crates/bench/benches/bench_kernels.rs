//! Micro-benchmarks of the numerical kernels underlying the neural imputers.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_bisim::{AttentionMode, BisimDirectionWeights, DirectionGrads, PairTape, TimeLagMode};
use rm_imputers::{BritsTape, Gradients, PathSequence, RecurrentImputerWeights, SsganTape};
use rm_nn::{LstmCellWeights, MlpWeights};
use rm_tensor::activation::Function;
use rm_tensor::recurrent::lstm_cell_forward;
use rm_tensor::simd::matvec_reference;
use rm_tensor::{AdamStep, Matrix, OuterPanel, Scalar};

fn bench_matmul(c: &mut Criterion) {
    // Stamp recorded runs with the axpy_row kernel this process resolved to
    // (scalar / avx2), so BENCH_baseline.json entries stay
    // attributable without renaming the cross-PR bench ids.
    eprintln!("axpy_row kernel: {}", rm_tensor::simd_kernel_name());
    let mut rng = StdRng::seed_from_u64(1);
    let a: Matrix = Matrix::random_uniform(64, 128, 1.0, &mut rng);
    let b: Matrix = Matrix::random_uniform(128, 64, 1.0, &mut rng);
    c.bench_function("matrix_matmul_64x128x64", |bencher| {
        bencher.iter(|| std::hint::black_box(a.matmul(&b)))
    });
    let mut out = Matrix::zeros(64, 64);
    c.bench_function("matrix_matmul_into_64x128x64", |bencher| {
        bencher.iter(|| {
            a.matmul_into(&b, &mut out);
            std::hint::black_box(out.get(0, 0))
        })
    });
    c.bench_function("matrix_matmul_naive_64x128x64", |bencher| {
        bencher.iter(|| std::hint::black_box(a.matmul_naive(&b)))
    });
    // The gradient kernels of a backward pass: dA = dC · Bᵀ via
    // explicit transpose + blocked matmul (the transpose is timed — it is
    // part of the path), dB = Aᵀ · dC via the transposed kernel.
    let grad = Matrix::random_uniform(64, 64, 1.0, &mut rng);
    let b_factor = a.transpose(); // plays B (128×64) in C = A·B
    c.bench_function("matrix_matmul_grad_a_64x64x128", |bencher| {
        bencher.iter(|| std::hint::black_box(grad.matmul(&b_factor.transpose())))
    });
    c.bench_function("matrix_matmul_at_b_64x128_64", |bencher| {
        bencher.iter(|| std::hint::black_box(a.matmul_at_b(&grad)))
    });
}

/// The single-column products of one BiSIM training step at the
/// `e2ebench` shape (53 APs, hidden size 32): an encoder LSTM gate over
/// `[x^c; m; h]` (32×138), a decoder gate over `[l^c; context; s]` (32×87),
/// the attention MLP's `W1·[s; k_i]` (32×85) and a latent-to-AP layer
/// (53×32). Each on the dispatched leg (`matvec_f64_*`) and on the scalar
/// reference (`matvec_reference_f64_*`); both give the same bits.
fn bench_matvec(c: &mut Criterion) {
    // Stamp recorded runs with the product's leg (scalar / avx2 / avx512f).
    eprintln!("matvec kernel: {}", rm_tensor::matvec_kernel_name());
    let mut rng = StdRng::seed_from_u64(4);
    for (rows, cols) in [(32, 138), (32, 87), (32, 85), (53, 32)] {
        let w: Matrix = Matrix::random_uniform(rows, cols, 1.0, &mut rng);
        let x: Matrix = Matrix::random_uniform(cols, 1, 1.0, &mut rng);
        let mut out = vec![0.0; rows];
        c.bench_function(&format!("matvec_f64_{rows}x{cols}"), |bencher| {
            bencher.iter(|| {
                w.matvec_into(x.data(), &mut out);
                std::hint::black_box(out[0])
            })
        });
        c.bench_function(&format!("matvec_reference_f64_{rows}x{cols}"), |bencher| {
            bencher.iter(|| {
                matvec_reference(w.data(), cols, x.data(), &mut out);
                std::hint::black_box(out[0])
            })
        });
    }
}

/// One Adam update over 80 000 parameters (four 100×200 tensors with a
/// fixed gradient), the optimizer half of every training step: one
/// [`AdamStep::update`] per tensor on plain slices, as the trainer runs it.
fn bench_adam_step(c: &mut Criterion) {
    // Stamp recorded runs with the Adam leg (scalar / avx2 / avx512f).
    eprintln!("adam kernel: {}", rm_tensor::adam_kernel_name());
    let mut rng = StdRng::seed_from_u64(5);
    let mut tensors: Vec<[Matrix; 4]> = (0..4)
        .map(|_| {
            [
                Matrix::random_uniform(100, 200, 1.0, &mut rng),
                Matrix::random_uniform(100, 200, 1.0, &mut rng),
                Matrix::zeros(100, 200),
                Matrix::zeros(100, 200),
            ]
        })
        .collect();
    let mut steps = 0;
    c.bench_function("adam_step_f64_80k", |bencher| {
        bencher.iter(|| {
            steps += 1;
            let step = AdamStep::new(0.9, 0.999, 1e-8, 1e-3, Some(5.0), steps);
            for [w, g, m, v] in &mut tensors {
                step.update(w.data_mut(), g.data(), m.data_mut(), v.data_mut());
            }
            std::hint::black_box(tensors[0][0].get(0, 0))
        })
    });
}

/// The activations of the recurrent steps as slices (32 values: one LSTM
/// gate or a decay vector at hidden size 32; 160: the attention MLP's
/// `T·H` at 5 keys): the dispatched leg (`*_slice`) against the reference
/// one value at a time (`*_reference`). Both give the same bits. Each
/// iteration restores the arguments first, so `exp` never runs away.
fn bench_activations(c: &mut Criterion) {
    // Stamp recorded runs with the activation leg (scalar / avx2 / avx512f).
    eprintln!("activation kernel: {}", rm_tensor::activation_kernel_name());
    let mut rng = StdRng::seed_from_u64(13);
    for n in [32, 160] {
        let args: Matrix = Matrix::random_uniform(n, 1, 4.0, &mut rng);
        let mut xs = vec![0.0; n];
        for (name, f) in [
            ("exp", Function::Exp),
            ("tanh", Function::Tanh),
            ("sigmoid", Function::Sigmoid),
        ] {
            c.bench_function(&format!("{name}_slice_{n}"), |bencher| {
                bencher.iter(|| {
                    xs.copy_from_slice(args.data());
                    match f {
                        Function::Exp => f64::exp_slice(&mut xs),
                        Function::Tanh => f64::tanh_slice(&mut xs),
                        Function::Sigmoid => f64::sigmoid_slice(&mut xs),
                    }
                    std::hint::black_box(xs[0])
                })
            });
            c.bench_function(&format!("{name}_reference_{n}"), |bencher| {
                bencher.iter(|| {
                    xs.copy_from_slice(args.data());
                    xs.iter_mut().for_each(|x| *x = f.reference(*x));
                    std::hint::black_box(xs[0])
                })
            });
        }
    }
}

/// The rank-1 weight gradients of one backward at the training tapes'
/// shapes (`rows × cols × terms`: an LSTM gate of BiSIM's encoder over 5
/// steps, the attention's `W1` over its 20 terms, a decoder gate over 4
/// steps, the fingerprint estimate over 5 steps): the terms queued in an
/// [`OuterPanel`] and applied in one flush, against the same terms applied
/// one by one with [`Matrix::add_outer`]. Both give the same bits.
fn bench_outer_panel(c: &mut Criterion) {
    // Stamp recorded runs with the panel leg (scalar / avx2 / avx512f).
    eprintln!("panel kernel: {}", rm_tensor::panel_kernel_name());
    let mut rng = StdRng::seed_from_u64(11);
    for (rows, cols, terms) in [(32, 138, 5), (32, 85, 20), (32, 87, 4), (53, 32, 5)] {
        let us: Matrix = Matrix::random_uniform(terms, rows, 1.0, &mut rng);
        let vs: Matrix = Matrix::random_uniform(terms, cols, 1.0, &mut rng);
        let mut d = Matrix::zeros(rows, cols);
        c.bench_function(&format!("add_outer_{rows}x{cols}x{terms}"), |bencher| {
            bencher.iter(|| {
                for t in 0..terms {
                    d.add_outer(us.row(t), vs.row(t));
                }
                std::hint::black_box(d.get(0, 0))
            })
        });
        let mut panel = OuterPanel::new();
        c.bench_function(&format!("outer_panel_{rows}x{cols}x{terms}"), |bencher| {
            bencher.iter(|| {
                for t in 0..terms {
                    panel.push(us.row(t), vs.row(t));
                }
                panel.flush(&mut d);
                std::hint::black_box(d.get(0, 0))
            })
        });
    }
}

/// The precision axis head-to-head: the same blocked kernel monomorphised
/// for f32 vs f64 on identical shapes (the f32 operands are the rounded f64
/// operands, so the work is identical except for lane width and memory
/// traffic). The acceptance bar for the precision-axis PR is f32 ≥ 1.8×
/// faster than f64 on the matmul shapes below.
fn bench_matmul_f32(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a: Matrix<f32> = Matrix::<f64>::random_uniform(64, 128, 1.0, &mut rng).cast();
    let b: Matrix<f32> = Matrix::<f64>::random_uniform(128, 64, 1.0, &mut rng).cast();
    c.bench_function("matrix_matmul_f32_64x128x64", |bencher| {
        bencher.iter(|| std::hint::black_box(a.matmul(&b)))
    });
    let mut out = Matrix::<f32>::zeros(64, 64);
    c.bench_function("matrix_matmul_into_f32_64x128x64", |bencher| {
        bencher.iter(|| {
            a.matmul_into(&b, &mut out);
            std::hint::black_box(out.get(0, 0))
        })
    });
    let grad: Matrix<f32> = Matrix::<f64>::random_uniform(64, 64, 1.0, &mut rng).cast();
    c.bench_function("matrix_matmul_at_b_f32_64x128_64", |bencher| {
        bencher.iter(|| std::hint::black_box(a.matmul_at_b(&grad)))
    });
}

/// One graph-free LSTM step of `weights` over the column `x` (`[input;
/// h]`) from a zero cell state, as [`lstm_cell_forward`] runs it for every
/// RITS and BiSIM step.
fn bench_snapshot_step<T: Scalar>(
    c: &mut Criterion,
    name: &str,
    weights: &LstmCellWeights<T>,
    x: &[T],
) {
    let hidden = weights.hidden_size();
    let c_prev = vec![T::ZERO; hidden];
    let mut gates = vec![T::ZERO; 4 * hidden];
    let (mut cell, mut tanh_c, mut h) = (c_prev.clone(), c_prev.clone(), c_prev.clone());
    let gate_weights = weights.gate_weights();
    c.bench_function(name, |bencher| {
        bencher.iter(|| {
            lstm_cell_forward(
                &gate_weights,
                x,
                &c_prev,
                &mut gates,
                &mut cell,
                &mut tanh_c,
                &mut h,
            );
            std::hint::black_box(h[0])
        })
    });
}

/// The imputer inference hot path at both precisions: one graph-free LSTM
/// step (the kernel the BRITS/SSGAN/BiSIM inference runs each step).
fn bench_lstm_snapshot_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let weights: LstmCellWeights = LstmCellWeights::new(96, 64, &mut rng);
    let input = Matrix::<f64>::random_uniform(96, 1, 1.0, &mut rng);
    let mut x = input.data().to_vec();
    x.resize(96 + 64, 0.0);
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    bench_snapshot_step(c, "lstm_snapshot_step_f64_96_to_64", &weights, &x);
    let weights32 = weights.cast::<f32>();
    bench_snapshot_step(c, "lstm_snapshot_step_f32_96_to_64", &weights32, &x32);
}

/// A deterministic BiSIM sequence of `len` steps over `aps` APs, with
/// masked entries and a missing RP.
fn path_sequence(len: usize, aps: usize, salt: usize) -> PathSequence {
    let value = |k: usize| ((k * 37 + salt * 11) as f64 * 0.173).sin();
    PathSequence {
        record_indices: (0..len).collect(),
        times: (0..len).map(|t| (2 * t) as f64).collect(),
        fingerprints: (0..len)
            .map(|t| (0..aps).map(|e| value(t * aps + e)).collect())
            .collect(),
        fingerprint_masks: (0..len)
            .map(|t| {
                (0..aps)
                    .map(|e| f64::from(!(t + e + salt).is_multiple_of(3)))
                    .collect()
            })
            .collect(),
        time_lags: (0..len)
            .map(|t| (0..aps).map(|e| (t * (1 + e % 2)) as f64 * 0.1).collect())
            .collect(),
        rps: (0..len).map(|t| (value(t), value(t + 9))).collect(),
        rp_masks: (0..len).map(|t| f64::from(t != 2)).collect(),
    }
}

/// One BiSIM sequence pair's training step without the optimizer, at the
/// `e2ebench` shape (`T = 5` steps of 53 APs, hidden size 32, the default
/// ablation): both directions' forward, the Section IV-D loss and its
/// backward into zeroed gradients, on the training tape.
fn bench_bisim_pair_step(c: &mut Criterion) {
    let (len, aps, hidden) = (5, 53, 32);
    let mut rng = StdRng::seed_from_u64(8);
    let mut direction = || {
        BisimDirectionWeights::new(
            aps,
            hidden,
            AttentionMode::SparsityFriendly,
            TimeLagMode::Encoder,
            &mut rng,
        )
    };
    let weights = [direction(), direction()];
    let (seq, rev) = (path_sequence(len, aps, 1), path_sequence(len, aps, 2));
    let mut grads = weights.each_ref().map(DirectionGrads::zeros_like);
    let mut tape = PairTape::new();
    c.bench_function("bisim_pair_tape_step_t5_h32_a53", |bencher| {
        bencher.iter(|| {
            grads.iter_mut().for_each(DirectionGrads::clear);
            let [f, b] = &mut grads;
            let shared = [&weights[0], &weights[1]];
            std::hint::black_box(tape.differentiate(shared, &seq, &rev, [f, b]))
        })
    });
}

/// One BRITS sequence pair's training step without the optimizer, at the
/// `e2ebench` shape (`T = 5` steps of 53 APs, hidden size 32): both
/// directions' forward, the reconstruction loss and its backward into
/// zeroed gradients, on the training tape.
fn bench_brits_pair_step(c: &mut Criterion) {
    let (len, aps, hidden) = (5, 53, 32);
    let mut rng = StdRng::seed_from_u64(9);
    let mut direction = || RecurrentImputerWeights::new(aps, hidden, &mut rng);
    let weights = [direction(), direction()];
    let (seq, rev) = (path_sequence(len, aps, 1), path_sequence(len, aps, 2));
    let mut grads = weights.each_ref().map(Gradients::zeros_like);
    let mut tape = BritsTape::new();
    c.bench_function("brits_pair_tape_step_t5_h32_a53", |bencher| {
        bencher.iter(|| {
            grads.iter_mut().for_each(Gradients::clear);
            let [f, b] = &mut grads;
            let shared = [&weights[0], &weights[1]];
            std::hint::black_box(tape.differentiate(shared, &seq, &rev, [f, b]))
        })
    });
}

/// One SSGAN sequence's two training phases without the optimizer, at the
/// `e2ebench` shape (`T = 5` steps of 53 APs, hidden size 32, a 32-unit
/// discriminator): the discriminator phase, then the generator phase, each
/// forward, loss and backward into zeroed gradients, on the training tape.
fn bench_ssgan_step(c: &mut Criterion) {
    let (len, aps, hidden) = (5, 53, 32);
    let mut rng = StdRng::seed_from_u64(10);
    let generator = RecurrentImputerWeights::new(aps, hidden, &mut rng);
    let discriminator = MlpWeights::new(&[aps, hidden, aps], &mut rng);
    let seq = path_sequence(len, aps, 1);
    let mut gen_grads = Gradients::zeros_like(&generator);
    let mut disc_grads = Gradients::zeros_like(&discriminator);
    let mut tape = SsganTape::new();
    c.bench_function("ssgan_pair_tape_step_t5_h32_a53", |bencher| {
        bencher.iter(|| {
            disc_grads.clear();
            gen_grads.clear();
            let d = tape.discriminator_gradient(&generator, &discriminator, &seq, &mut disc_grads);
            let g = tape.generator_gradient(&generator, &discriminator, &seq, 0.3, &mut gen_grads);
            std::hint::black_box(d + g)
        })
    });
}

criterion_group!(
    kernels,
    bench_matmul,
    bench_matvec,
    bench_adam_step,
    bench_activations,
    bench_outer_panel,
    bench_matmul_f32,
    bench_lstm_snapshot_step,
    bench_bisim_pair_step,
    bench_brits_pair_step,
    bench_ssgan_step
);
criterion_main!(kernels);
