//! Allocator-budget harness for the training and inference hot loops.
//!
//! This binary installs a counting `#[global_allocator]` and drives, once
//! warm:
//!
//! - a recurrent training step on the autodiff graph (graph build →
//!   backward → gradient extraction → Adam batch step → recycle), as SSGAN
//!   trains. Matrix buffers cycle through the per-worker buffer pool and
//!   autodiff nodes through the node arena, so it allocates (near-)nothing;
//!   under the arena the harness also pins the exact number of pool
//!   checkouts one step makes, which the allocator cannot see;
//! - a sweep of the shared RITS forward (`RecurrentImputerWeights::forward`,
//!   the inference of BRITS, SSGAN and BiSIM's encoder) over one tape;
//! - BiSIM's and BRITS's training steps on their tapes.
//!
//! The tapes own their records and scratch, and the gradients and Adam
//! moments are plain matrices, so the last three allocate nothing and take
//! nothing from the pool, with or without the arena.
//!
//! With `RM_ARENA=0` the pools are disabled and every graph buffer and node
//! is a fresh heap allocation; the harness then only reports the graph
//! step's numbers (they are the baseline for the ≥10× reduction recorded in
//! `BENCH_baseline.json`). Run it directly to see both sides:
//!
//! ```text
//! cargo test -p rm-integration-tests --test allocations -- --nocapture
//! RM_ARENA=0 cargo test -p rm-integration-tests --test allocations -- --nocapture
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_bisim::{AttentionMode, BisimDirectionWeights, PairTape, TimeLagMode};
use rm_imputers::{
    BritsTape, Gradients, Parameters, PathSequence, RecurrentImputerWeights, RitsTape,
};
use rm_nn::{Adam, GradientBatch, Linear, LstmCell, LstmState, Optimizer};
use rm_runtime::alloc_counter::CountingAlloc;
use rm_tensor::{arena_enabled, buffer_pool_stats, AdamStep, InputPart, Matrix, Var};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const FEATURES: usize = 8;
const HIDDEN: usize = 16;
const STEPS: usize = 6;
const WARMUP: usize = 5;
const MEASURED: usize = 50;
/// Buffers one warm [`training_step`] checks out of the pool. Every node's
/// value and gradient, every backward temporary and every optimizer scratch
/// is one take, so this pins the graph's size and the backward pass's
/// temporaries: a change that adds a node or a temporary per step shows
/// here even when the arena hides it from the allocator.
const TAKES_PER_TRAINING_STEP: u64 = 106;
/// Buffers one warm tape step ([`TapeTrainer::step`]) or RITS sweep checks
/// out of the pool: none, since the tape owns its records and scratch and
/// the gradients and moments live in plain matrices. A change that routes a
/// tape step or the RITS forward through the pool (or the graph) shows
/// here.
const TAKES_PER_TAPE_STEP: u64 = 0;
/// The `e2ebench` shape of a sequence pair: `T = 5` steps of 53 APs,
/// hidden size 32.
const TAPE_SHAPE: (usize, usize, usize) = (5, 53, 32);

/// Deterministic per-step input vectors.
fn inputs() -> Vec<Vec<f64>> {
    (0..STEPS)
        .map(|t| {
            (0..FEATURES)
                .map(|f| -60.0 - (t as f64) * 1.5 - (f as f64) * 0.25)
                .collect()
        })
        .collect()
}

/// The optimizer half of a training step, held across steps the way
/// SSGAN's training loop holds it: one Adam and one [`GradientBatch`] for
/// the whole run, plus the reused list the step's
/// extracted gradients go into.
struct Trainer {
    params: Vec<Var>,
    adam: Adam,
    batch: GradientBatch,
    grads: Vec<Matrix>,
}

/// One training step over the live graph, shaped like the recurrent
/// imputers' inner loop: unroll an LSTM, read the states out, differentiate
/// a scalar loss, pull the gradients, apply them as one Adam batch step
/// (SSGAN's multi-sequence branch: clear the batch, accumulate,
/// `apply_batch`), and recycle the step's graph.
fn training_step(
    cell: &LstmCell,
    readout: &Linear,
    trainer: &mut Trainer,
    xs: &[Vec<f64>],
    grad_sink: &mut f64,
) -> f64 {
    let mut state = LstmState::zeros(HIDDEN);
    let mut total = Var::scalar(0.0);
    for raw in xs {
        let x = Var::constant(Matrix::column(raw));
        state = cell.step(&[InputPart::Node(&x)], &state);
        let est = readout.forward(&state.h);
        total = total.add(&est.square().sum());
    }
    let loss = total.scale(1.0 / xs.len() as f64);
    loss.backward();
    let value = loss.scalar_value();
    trainer.grads.clear();
    trainer
        .grads
        .extend(trainer.params.iter().map(|p| p.grad()));
    *grad_sink += trainer.grads.iter().map(|g| g.get(0, 0)).sum::<f64>();
    trainer.batch.clear();
    trainer.batch.accumulate(&trainer.grads);
    trainer.adam.apply_batch(&trainer.batch);
    trainer.adam.zero_grad();
    Var::recycle_all([loss, total].into_iter().chain(state.into_vars()));
    value
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

/// A tape-trained imputer's training state: both directions' weights,
/// gradients and Adam moments, and the pair tape.
struct TapeTrainer<W, P> {
    weights: [W; 2],
    grads: [Gradients; 2],
    moments: [Vec<(Matrix, Matrix)>; 2],
    tape: P,
    steps: u64,
}

impl<W: Parameters, P> TapeTrainer<W, P> {
    fn new(weights: [W; 2], tape: P) -> Self {
        let zeros = |w: &W| -> Vec<(Matrix, Matrix)> {
            w.tensors()
                .into_iter()
                .map(|m| {
                    (
                        Matrix::zeros(m.rows(), m.cols()),
                        Matrix::zeros(m.rows(), m.cols()),
                    )
                })
                .collect()
        };
        Self {
            grads: weights.each_ref().map(Gradients::zeros_like),
            moments: weights.each_ref().map(zeros),
            weights,
            tape,
            steps: 0,
        }
    }

    /// One training step on the tape, as the shared trainer runs a one-pair
    /// chunk: zero the gradients, differentiate the pair (both recorded
    /// forwards, the loss and the backward), one Adam update per tensor.
    fn step(
        &mut self,
        differentiate: impl FnOnce(&mut P, [&W; 2], [&mut Gradients; 2]) -> f64,
    ) -> f64 {
        self.grads.iter_mut().for_each(Gradients::clear);
        let [f, b] = &mut self.grads;
        let [fw, bw] = &self.weights;
        let loss = differentiate(&mut self.tape, [fw, bw], [f, b]);
        self.steps += 1;
        let step = AdamStep::new(0.9, 0.999, 1e-8, 0.01, Some(5.0), self.steps);
        for ((w, g), moments) in self
            .weights
            .iter_mut()
            .zip(&self.grads)
            .zip(&mut self.moments)
        {
            let mut tensors = g.tensors().iter().zip(moments.iter_mut());
            w.for_each_tensor_mut(|value| {
                let (grad, (m, v)) = tensors.next().expect("one gradient per tensor");
                step.update(value.data_mut(), grad.data(), m.data_mut(), v.data_mut());
            });
        }
        loss
    }
}

/// Allocations over [`MEASURED`] warm calls of `f`, then the pool takes of
/// one more.
fn steady_state(mut f: impl FnMut() -> f64) -> (u64, u64) {
    let mut sink = 0.0;
    for _ in 0..WARMUP {
        sink += f();
    }
    let before = ALLOC.allocations();
    for _ in 0..MEASURED {
        sink += f();
    }
    let allocs = ALLOC.allocations() - before;
    let takes_before = buffer_pool_stats::<f64>().takes;
    sink += f();
    let takes = buffer_pool_stats::<f64>().takes - takes_before;
    assert!(sink.is_finite());
    (allocs, takes)
}

/// Steady-state allocation budget of the hot loops. Every phase lives in
/// one `#[test]` so no concurrently running test pollutes the process-wide
/// counters between the before/after reads.
#[test]
fn steady_state_hot_loops_allocate_near_zero() {
    let mut rng = StdRng::seed_from_u64(7);
    let cell = LstmCell::new(FEATURES, HIDDEN, &mut rng);
    let readout = Linear::new(HIDDEN, FEATURES, &mut rng);
    let mut params = cell.parameters();
    params.extend(readout.parameters());
    let mut trainer = Trainer {
        adam: Adam::new(params.clone(), 1e-3).with_clip(5.0),
        batch: GradientBatch::zeros_like(&params),
        grads: Vec::with_capacity(params.len()),
        params,
    };
    let xs = inputs();

    // ---- Training loop ----
    let mut grad_sink = 0.0;
    let mut loss_sink = 0.0;
    for _ in 0..WARMUP {
        loss_sink += training_step(&cell, &readout, &mut trainer, &xs, &mut grad_sink);
    }
    let before = ALLOC.allocations();
    let bytes_before = ALLOC.allocated_bytes();
    for _ in 0..MEASURED {
        loss_sink += training_step(&cell, &readout, &mut trainer, &xs, &mut grad_sink);
    }
    let train_allocs = ALLOC.allocations() - before;
    let train_bytes = ALLOC.allocated_bytes() - bytes_before;
    let takes_before = buffer_pool_stats::<f64>().takes;
    loss_sink += training_step(&cell, &readout, &mut trainer, &xs, &mut grad_sink);
    let step_takes = buffer_pool_stats::<f64>().takes - takes_before;
    assert!(loss_sink.is_finite() && grad_sink.is_finite());

    // ---- The shared RITS forward, and the tape training steps ----
    let (len, aps, hidden) = TAPE_SHAPE;
    let (seq, rev) = (path_sequence(len, aps, 1), path_sequence(len, aps, 2));
    let rits = RecurrentImputerWeights::new(aps, hidden, &mut rng);
    let mut rits_tape = RitsTape::new();
    let (sweep_allocs, sweep_takes) = steady_state(|| {
        rits.forward(&seq, true, &mut rits_tape);
        rits.forward(&rev, true, &mut rits_tape);
        rits_tape.complement(len - 1).iter().sum()
    });

    let mut direction = || {
        BisimDirectionWeights::new(
            aps,
            hidden,
            AttentionMode::SparsityFriendly,
            TimeLagMode::Encoder,
            &mut rng,
        )
    };
    let mut bisim = TapeTrainer::new([direction(), direction()], PairTape::new());
    let (tape_allocs, tape_takes) =
        steady_state(|| bisim.step(|tape, w, g| tape.differentiate(w, &seq, &rev, g)));

    let mut direction = || RecurrentImputerWeights::new(aps, hidden, &mut rng);
    let mut brits = TapeTrainer::new([direction(), direction()], BritsTape::new());
    let (brits_allocs, brits_takes) =
        steady_state(|| brits.step(|tape, w, g| tape.differentiate(w, &seq, &rev, g)));

    eprintln!(
        "[alloc-harness] arena={} training: {} allocs / {} bytes over {} steps \
         ({:.1} allocs/step, {} pool takes/step); RITS sweep: {} allocs over {} sweeps \
         ({} pool takes/sweep); BiSIM tape: {} allocs over {} steps ({} pool takes/step); \
         BRITS tape: {} allocs over {} steps ({} pool takes/step)",
        if arena_enabled() { "on" } else { "off" },
        train_allocs,
        train_bytes,
        MEASURED,
        train_allocs as f64 / MEASURED as f64,
        step_takes,
        sweep_allocs,
        MEASURED,
        sweep_takes,
        tape_allocs,
        MEASURED,
        tape_takes,
        brits_allocs,
        MEASURED,
        brits_takes,
    );

    // The tapes own every buffer they touch, so they allocate nothing once
    // warm, with or without the arena.
    for (name, allocs, takes) in [
        ("RITS forward sweep", sweep_allocs, sweep_takes),
        ("BiSIM tape step", tape_allocs, tape_takes),
        ("BRITS tape step", brits_allocs, brits_takes),
    ] {
        assert_eq!(
            allocs, 0,
            "a warm {name} allocated {allocs} times in {MEASURED} calls"
        );
        assert_eq!(
            takes, TAKES_PER_TAPE_STEP,
            "a warm {name}'s pool traffic changed"
        );
    }

    if arena_enabled() {
        assert_eq!(
            step_takes, TAKES_PER_TRAINING_STEP,
            "a warm training step's pool traffic changed"
        );
        // Near-zero, not zero: the libtest harness itself may allocate a
        // handful of times on other threads while the loops run.
        assert!(
            train_allocs <= 8 * MEASURED as u64 / 10,
            "steady-state training allocated {train_allocs} times in {MEASURED} steps"
        );
    } else {
        // RM_ARENA=0 is the fresh-allocation reference: every node and
        // buffer hits the heap, so the loop must allocate heavily — this
        // guards the baseline the ≥10× reduction is measured against.
        assert!(
            train_allocs >= 10 * MEASURED as u64,
            "RM_ARENA=0 training allocated only {train_allocs} times — baseline invalid"
        );
    }
}
