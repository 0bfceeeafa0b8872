//! Micro-benchmarks of the numerical kernels underlying the neural imputers.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_bisim::{AttentionMode, BisimDirection, DirectionGrads, PairTape, TimeLagMode};
use rm_imputers::{BritsTape, Gradients, PathSequence, RecurrentImputerWeights};
use rm_nn::{loss, Adam, Linear, LstmCell, LstmCellWeights, LstmState, Optimizer};
use rm_tensor::recurrent::lstm_cell_forward;
use rm_tensor::{InputPart, Matrix, Scalar, Var};

fn bench_matmul(c: &mut Criterion) {
    // Stamp recorded runs with the axpy_row kernel this process resolved to
    // (scalar / avx2 / avx2+fma), so BENCH_baseline.json entries stay
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
    // The gradient kernels of the autodiff backward pass: dA = dC · Bᵀ via
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

/// The batch-1 training product: one LSTM gate block (`4·hidden` = 32 rows)
/// times the concatenated `[x; h]` column (138 = the KaideLike-scale AP
/// count plus hidden units), the shape every BiSIM forward step runs.
fn bench_matvec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let w: Matrix = Matrix::random_uniform(32, 138, 1.0, &mut rng);
    let x: Matrix = Matrix::random_uniform(138, 1, 1.0, &mut rng);
    let mut out = Matrix::zeros(32, 1);
    c.bench_function("matvec_f64_32x138", |bencher| {
        bencher.iter(|| {
            w.matmul_into(&x, &mut out);
            std::hint::black_box(out.get(0, 0))
        })
    });
}

/// One Adam update over 80 000 parameters (four 100×200 tensors with a
/// fixed gradient), the optimizer half of every training step.
fn bench_adam_step(c: &mut Criterion) {
    // Stamp recorded runs with the Adam leg (scalar / avx2+fma / avx512f).
    eprintln!("adam kernel: {}", rm_tensor::adam_kernel_name());
    let mut rng = StdRng::seed_from_u64(5);
    let params: Vec<Var> = (0..4)
        .map(|_| {
            let p = Var::parameter(Matrix::random_uniform(100, 200, 1.0, &mut rng));
            p.add_grad(&Matrix::random_uniform(100, 200, 1.0, &mut rng));
            p
        })
        .collect();
    let mut adam = Adam::new(params.clone(), 1e-3).with_clip(5.0);
    c.bench_function("adam_step_f64_80k", |bencher| {
        bencher.iter(|| {
            adam.step();
            std::hint::black_box(params[0].value_ref().get(0, 0))
        })
    });
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
    let cell: LstmCell = LstmCell::new(96, 64, &mut rng);
    let weights = cell.snapshot();
    let input = Matrix::<f64>::random_uniform(96, 1, 1.0, &mut rng);
    let mut x = input.data().to_vec();
    x.resize(96 + 64, 0.0);
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    bench_snapshot_step(c, "lstm_snapshot_step_f64_96_to_64", &weights, &x);
    let weights32 = weights.cast::<f32>();
    bench_snapshot_step(c, "lstm_snapshot_step_f32_96_to_64", &weights32, &x32);
}

fn bench_lstm_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let cell: LstmCell = LstmCell::new(96, 64, &mut rng);
    let input = Var::constant(Matrix::random_uniform(96, 1, 1.0, &mut rng));
    let state = LstmState::zeros(64);
    c.bench_function("lstm_cell_step_96_to_64", |bencher| {
        bencher
            .iter(|| std::hint::black_box(cell.step(&[InputPart::Node(&input)], &state).h.value()))
    });
}

/// One BiSIM decoder step's attention at the `e2ebench` shape (`T = 5`
/// keys of 53 APs, hidden size 32): the forward, the backward of a scalar
/// loss over the context and the graph's recycling, as a training step
/// runs them.
fn bench_attention_step(c: &mut Criterion) {
    let (t, hidden, aps) = (5, 32, 53);
    let mut rng = StdRng::seed_from_u64(6);
    let mut param = |rows, cols| Var::parameter(Matrix::random_uniform(rows, cols, 0.3, &mut rng));
    let align = [
        param(hidden, hidden + aps),
        param(hidden, 1),
        param(1, hidden),
        param(1, 1),
    ];
    let state = param(hidden, 1);
    let keys: Vec<Var> = (0..t).map(|_| param(aps, 1)).collect();
    let params: Vec<&Var> = align.iter().chain(&keys).chain([&state]).collect();
    c.bench_function("bisim_attention_step_t5_h32_a53", |bencher| {
        bencher.iter(|| {
            params.iter().for_each(|p| p.zero_grad());
            let loss = state
                .attention(&keys, [&align[0], &align[1], &align[2], &align[3]])
                .sum();
            loss.backward();
            let value = loss.scalar_value();
            loss.recycle();
            std::hint::black_box(value)
        })
    });
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
/// backward into zeroed gradients — on the autodiff graph (the oracle,
/// `rm_bisim::sequence_loss` over `BisimDirection::run`) and on the
/// training tape.
fn bench_bisim_pair_step(c: &mut Criterion) {
    let (len, aps, hidden) = (5, 53, 32);
    let mut rng = StdRng::seed_from_u64(8);
    let mut direction = || {
        BisimDirection::new(
            aps,
            hidden,
            AttentionMode::SparsityFriendly,
            TimeLagMode::Encoder,
            &mut rng,
        )
    };
    let (forward, backward) = (direction(), direction());
    let (seq, rev) = (path_sequence(len, aps, 1), path_sequence(len, aps, 2));
    let params: Vec<Var> = forward
        .parameters()
        .into_iter()
        .chain(backward.parameters())
        .collect();
    c.bench_function("bisim_pair_graph_step_t5_h32_a53", |bencher| {
        bencher.iter(|| {
            params.iter().for_each(Var::zero_grad);
            let (fwd, bwd) = (forward.run(&seq), backward.run(&rev));
            let loss = rm_bisim::sequence_loss(&seq, &rev, &fwd, &bwd);
            loss.backward();
            let value = loss.scalar_value();
            Var::recycle_all(
                fwd.into_vars()
                    .chain(bwd.into_vars())
                    .chain(std::iter::once(loss)),
            );
            std::hint::black_box(value)
        })
    });
    let weights = [forward.snapshot(), backward.snapshot()];
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

/// One BRITS direction as graph nodes — the operations of BRITS's graph
/// oracle, one RITS step per record — returning the estimates and
/// complements.
fn brits_graph_run(
    (estimate, decay, cell): &(Linear, Linear, LstmCell),
    seq: &PathSequence,
) -> (Vec<Var>, Vec<Var>) {
    let mut state = LstmState::zeros(cell.hidden_size());
    let (mut estimates, mut complements) = (Vec::new(), Vec::new());
    for t in 0..seq.len() {
        let x = Var::constant(Matrix::column(&seq.fingerprints[t]));
        let mask = Matrix::column(&seq.fingerprint_masks[t]);
        let lag = Var::constant(Matrix::column(&seq.time_lags[t]));
        let x_hat = estimate.forward(&state.h);
        let x_c = x.mask(&mask).add(&x_hat.mask(&mask.map(|m| 1.0 - m)));
        let gamma = decay.forward(&lag).relu().scale(-1.0).exp();
        let decayed = state.with_hidden(state.h.hadamard(&gamma));
        state = cell.step(&[InputPart::Node(&x_c), InputPart::Const(&mask)], &decayed);
        estimates.push(x_hat);
        complements.push(x_c);
    }
    (estimates, complements)
}

/// One BRITS sequence pair's training step without the optimizer, at the
/// `e2ebench` shape (`T = 5` steps of 53 APs, hidden size 32): both
/// directions' forward, the reconstruction loss and its backward into
/// zeroed gradients — on the autodiff graph (the oracle's operations) and
/// on the training tape.
fn bench_brits_pair_step(c: &mut Criterion) {
    let (len, aps, hidden) = (5, 53, 32);
    let mut rng = StdRng::seed_from_u64(9);
    let mut direction = || RecurrentImputerWeights::new(aps, hidden, &mut rng);
    let weights = [direction(), direction()];
    let (seq, rev) = (path_sequence(len, aps, 1), path_sequence(len, aps, 2));
    let layers = weights.each_ref().map(|w| {
        let (estimate, decay, cell) = w.parts();
        (estimate.to_linear(), decay.to_linear(), cell.to_cell())
    });
    let params: Vec<Var> = layers
        .iter()
        .flat_map(|(e, d, c)| [e.parameters(), d.parameters(), c.parameters()])
        .flatten()
        .collect();
    c.bench_function("brits_pair_graph_step_t5_h32_a53", |bencher| {
        bencher.iter(|| {
            params.iter().for_each(Var::zero_grad);
            let (fwd, fwd_c) = brits_graph_run(&layers[0], &seq);
            let (bwd, bwd_c) = brits_graph_run(&layers[1], &rev);
            let mut total = Var::scalar(0.0);
            for t in 0..len {
                let rt = len - 1 - t;
                for (est, s, k) in [(&fwd, &seq, t), (&bwd, &rev, rt)] {
                    let target = Matrix::column(&s.fingerprints[k]);
                    let mask = Matrix::column(&s.fingerprint_masks[k]);
                    total = total.add(&loss::masked_mse(&est[k], &target, &mask));
                }
            }
            let loss = total.scale(1.0 / len as f64);
            loss.backward();
            let value = loss.scalar_value();
            let roots = [fwd, fwd_c, bwd, bwd_c].into_iter().flatten();
            Var::recycle_all(roots.chain([total, loss]));
            std::hint::black_box(value)
        })
    });
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

fn bench_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let w: Var = Var::parameter(Matrix::random_uniform(64, 64, 0.1, &mut rng));
    let x = Var::constant(Matrix::random_uniform(64, 1, 1.0, &mut rng));
    c.bench_function("autodiff_forward_backward_64", |bencher| {
        bencher.iter(|| {
            w.zero_grad();
            let loss = w.matmul(&x).tanh().square().sum();
            loss.backward();
            std::hint::black_box(w.grad())
        })
    });
}

criterion_group!(
    kernels,
    bench_matmul,
    bench_matvec,
    bench_adam_step,
    bench_matmul_f32,
    bench_lstm_snapshot_step,
    bench_lstm_step,
    bench_attention_step,
    bench_bisim_pair_step,
    bench_brits_pair_step,
    bench_backward
);
criterion_main!(kernels);
