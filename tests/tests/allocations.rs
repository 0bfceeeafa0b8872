//! Allocator-budget harness for the training and inference hot loops.
//!
//! This binary installs a counting `#[global_allocator]` and drives, once
//! warm:
//!
//! - a sweep of the shared RITS forward (`RecurrentImputerWeights::forward`,
//!   the inference of BRITS, SSGAN and BiSIM's encoder) over one tape;
//! - BiSIM's, BRITS's and SSGAN's training steps on their tapes, each with
//!   its Adam updates (SSGAN's covers both phases: the discriminator's,
//!   then the generator's).
//!
//! The tapes own their records and scratch, and the gradients (with their
//! rank-1 panels) and Adam moments are plain matrices, so every one of them
//! allocates nothing. It also drives the inference sweeps of BiSIM
//! (`infer_pairs`) and of BRITS and SSGAN (`mar_values`) over two numbers
//! of sequence pairs: each run of a sweep reuses its tapes and sizes its
//! output once, so a sweep allocates as often over many pairs as over few.
//! Run it directly to see the numbers:
//!
//! ```text
//! cargo test -p rm-integration-tests --test allocations -- --nocapture
//! ```

use radiomap_core::prelude::{EntryKind, MaskMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_bisim::{infer_pairs, AttentionMode, BisimDirectionWeights, PairTape, TimeLagMode};
use rm_imputers::brits::mar_values;
use rm_imputers::{
    Adam, BritsTape, Gradients, Normalization, Parameters, PathSequence, RecurrentImputerWeights,
    RitsTape, SsganTape,
};
use rm_nn::MlpWeights;
use rm_runtime::alloc_counter::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const WARMUP: usize = 5;
const MEASURED: usize = 50;
/// The `e2ebench` shape of a sequence pair: `T = 5` steps of 53 APs,
/// hidden size 32.
const TAPE_SHAPE: (usize, usize, usize) = (5, 53, 32);
/// The learning rate of every measured Adam step.
const LEARNING_RATE: f64 = 0.01;

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

/// `pairs` forward and reversed sequences of `len` steps over `aps` APs,
/// pair `k` on records `k·len..(k + 1)·len`, with a mask over those records
/// that marks every fifth entry MAR and every third record's RP missing.
fn inference_set(
    pairs: usize,
    len: usize,
    aps: usize,
) -> (Vec<PathSequence>, Vec<PathSequence>, MaskMatrix, Vec<bool>) {
    let on_records = |k: usize, mut seq: PathSequence| {
        seq.record_indices = (k * len..(k + 1) * len).collect();
        seq
    };
    let seqs = (0..pairs)
        .map(|k| on_records(k, path_sequence(len, aps, 2 * k + 1)))
        .collect();
    let revs = (0..pairs)
        .map(|k| on_records(k, path_sequence(len, aps, 2 * k + 2)))
        .collect();
    let mut mask = MaskMatrix::all_observed(pairs * len, aps);
    for record in 0..pairs * len {
        for ap in (record % 5..aps).step_by(5) {
            mask.set(record, ap, EntryKind::Mar);
        }
    }
    let missing_rp = (0..pairs * len).map(|r| r % 3 == 1).collect();
    (seqs, revs, mask, missing_rp)
}

/// Allocations of one sweep of `f`, after a first sweep; `f` returns how
/// many values it produced.
fn sweep_allocations(mut f: impl FnMut() -> usize) -> u64 {
    let warm = f();
    let before = ALLOC.allocations();
    let values = f();
    let allocs = ALLOC.allocations() - before;
    assert!(values > 0 && values == warm);
    allocs
}

/// One set of weights in training: the weights, their gradients and their
/// Adam state.
struct Player<W> {
    weights: W,
    grads: Gradients,
    adam: Adam,
}

impl<W: Parameters> Player<W> {
    fn new(weights: W) -> Self {
        Self {
            grads: Gradients::zeros_like(&weights),
            adam: Adam::new(&weights, LEARNING_RATE),
            weights,
        }
    }

    /// One Adam step from the gradients.
    fn step(&mut self) {
        self.adam.step(&mut self.weights, &self.grads);
    }
}

/// One training step of a bidirectional tape, as the shared trainer runs a
/// one-pair chunk: zero the gradients, differentiate the pair (both
/// recorded forwards, the loss and the backward), one Adam step per
/// direction.
fn pair_step<W: Parameters>(
    players: &mut [Player<W>; 2],
    differentiate: impl FnOnce([&W; 2], [&mut Gradients; 2]) -> f64,
) -> f64 {
    let [f, b] = players;
    f.grads.clear();
    b.grads.clear();
    let loss = differentiate([&f.weights, &b.weights], [&mut f.grads, &mut b.grads]);
    f.step();
    b.step();
    loss
}

/// Allocations over [`MEASURED`] warm calls of `f`.
fn steady_state(mut f: impl FnMut() -> f64) -> u64 {
    let mut sink = 0.0;
    for _ in 0..WARMUP {
        sink += f();
    }
    let before = ALLOC.allocations();
    for _ in 0..MEASURED {
        sink += f();
    }
    let allocs = ALLOC.allocations() - before;
    assert!(sink.is_finite());
    allocs
}

/// Steady-state allocation budget of the hot loops. Every phase lives in
/// one `#[test]` so no concurrently running test pollutes the process-wide
/// counters between the before/after reads.
#[test]
fn steady_state_hot_loops_allocate_near_zero() {
    let mut rng = StdRng::seed_from_u64(7);
    let (len, aps, hidden) = TAPE_SHAPE;
    let (seq, rev) = (path_sequence(len, aps, 1), path_sequence(len, aps, 2));

    // ---- The shared RITS forward ----
    let rits = RecurrentImputerWeights::new(aps, hidden, &mut rng);
    let mut rits_tape = RitsTape::new();
    let sweep_allocs = steady_state(|| {
        rits.forward(&seq, true, &mut rits_tape);
        rits.forward(&rev, true, &mut rits_tape);
        rits_tape.complement(len - 1).iter().sum()
    });

    // ---- The tape training steps ----
    let mut direction = || {
        Player::new(BisimDirectionWeights::new(
            aps,
            hidden,
            AttentionMode::SparsityFriendly,
            TimeLagMode::Encoder,
            &mut rng,
        ))
    };
    let mut bisim = [direction(), direction()];
    let mut tape = PairTape::new();
    let bisim_allocs =
        steady_state(|| pair_step(&mut bisim, |w, g| tape.differentiate(w, &seq, &rev, g)));

    let mut direction = || Player::new(RecurrentImputerWeights::new(aps, hidden, &mut rng));
    let mut brits = [direction(), direction()];
    let mut tape = BritsTape::new();
    let brits_allocs =
        steady_state(|| pair_step(&mut brits, |w, g| tape.differentiate(w, &seq, &rev, g)));

    let mut generator = Player::new(RecurrentImputerWeights::new(aps, hidden, &mut rng));
    let mut discriminator = Player::new(MlpWeights::new(&[aps, hidden, aps], &mut rng));
    let mut tape = SsganTape::new();
    let ssgan_allocs = steady_state(|| {
        discriminator.grads.clear();
        let (g, d) = (&generator.weights, &discriminator.weights);
        let disc_loss = tape.discriminator_gradient(g, d, &seq, &mut discriminator.grads);
        discriminator.step();
        generator.grads.clear();
        let (g, d) = (&generator.weights, &discriminator.weights);
        let gen_loss = tape.generator_gradient(g, d, &seq, 0.3, &mut generator.grads);
        generator.step();
        disc_loss + gen_loss
    });

    // ---- The inference sweeps, over 4 and then 16 pairs ----
    let norm = Normalization {
        x_offset: 0.0,
        y_offset: 0.0,
        location_scale: 10.0,
        time_scale: 1.0,
    };
    let (fw, bw) = (&bisim[0].weights, &bisim[1].weights);
    let (gf, gb) = (&brits[0].weights, &brits[1].weights);
    let inference = [4, 16].map(|pairs| {
        let (seqs, revs, mask, missing_rp) = inference_set(pairs, len, aps);
        let pair_refs: Vec<_> = seqs.iter().zip(&revs).collect();
        let bisim = sweep_allocations(|| {
            let runs = infer_pairs(fw, bw, &pair_refs, &mask, &norm, &missing_rp, 1);
            runs.iter().map(Vec::len).sum()
        });
        let directions = [(gf, &seqs[..]), (gb, &revs[..])];
        let brits = sweep_allocations(|| {
            let runs = mar_values(&directions, &mask, &norm, 1);
            runs.iter().map(Vec::len).sum()
        });
        (bisim, brits)
    });

    eprintln!(
        "[alloc-harness] over {MEASURED} warm calls: RITS sweep {sweep_allocs} allocs; \
         BiSIM tape step {bisim_allocs}; BRITS tape step {brits_allocs}; \
         SSGAN tape step (both phases) {ssgan_allocs}; per inference sweep over 4 / 16 \
         pairs: BiSIM {} / {}, BRITS {} / {}",
        inference[0].0, inference[1].0, inference[0].1, inference[1].1
    );
    let [few, many] = inference;
    assert_eq!(
        few, many,
        "an inference sweep's allocations grew with its pairs (BiSIM, BRITS)"
    );

    // The tapes own every buffer they touch, so they allocate nothing once
    // warm.
    for (name, allocs) in [
        ("RITS forward sweep", sweep_allocs),
        ("BiSIM tape step", bisim_allocs),
        ("BRITS tape step", brits_allocs),
        ("SSGAN tape step", ssgan_allocs),
    ] {
        assert_eq!(
            allocs, 0,
            "a warm {name} allocated {allocs} times in {MEASURED} calls"
        );
    }
}
