//! The determinism suite: the whole pipeline must produce **bit-identical**
//! results at any thread count.
//!
//! This is the contract that makes parallelism a pure wall-clock knob: the
//! `rm-runtime` primitives are order-preserving, chunk boundaries never
//! depend on the thread count, and RNG streams are derived from item indices
//! — so `threads = 1`, `2` and `available_parallelism` must agree down to
//! the last bit of every imputed RSSI, imputed RP and APE metric.

use radiomap_core::prelude::*;
use rm_integration_tests::{multi_path_map, straight_path_map, tiny_dataset};

/// Imputers with internal fan-outs plus a fast baseline; BiSIM is covered by
/// the integration tests and trains serially anyway.
fn imputers_under_test() -> [ImputerKind; 4] {
    [
        ImputerKind::Mice,
        ImputerKind::MatrixFactorization,
        ImputerKind::Brits,
        ImputerKind::LinearInterpolation,
    ]
}

fn bitwise_eq_maps(a: &ImputedRadioMap, b: &ImputedRadioMap) -> bool {
    a.fingerprints.len() == b.fingerprints.len()
        && a.fingerprints
            .iter()
            .zip(b.fingerprints.iter())
            .all(|(ra, rb)| {
                ra.len() == rb.len()
                    && ra
                        .iter()
                        .zip(rb.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
        && a.locations.len() == b.locations.len()
        && a.locations
            .iter()
            .zip(b.locations.iter())
            .all(|(la, lb)| match (la, lb) {
                (Some(pa), Some(pb)) => {
                    pa.x.to_bits() == pb.x.to_bits() && pa.y.to_bits() == pb.y.to_bits()
                }
                (None, None) => true,
                _ => false,
            })
}

/// Imputed maps (RSSIs and RPs) are bit-identical across thread counts for
/// every parallelised imputer.
#[test]
fn imputed_maps_are_bit_identical_across_thread_counts() {
    let map = straight_path_map(24, 8);
    let topology = MultiPolygon::empty();
    let thread_counts = [1, 2, rm_runtime::default_threads()];
    for imputer in imputers_under_test() {
        let runs: Vec<ImputedRadioMap> = thread_counts
            .iter()
            .map(|&threads| {
                ImputationPipeline::new(PipelineConfig {
                    differentiator: DifferentiatorKind::MarOnly,
                    imputer,
                    epochs: Some(3),
                    threads,
                    ..PipelineConfig::default()
                })
                .impute(&map, &topology)
                .0
            })
            .collect();
        for run in &runs[1..] {
            assert!(
                bitwise_eq_maps(&runs[0], run),
                "{} imputation differs across thread counts",
                imputer.name()
            );
        }
    }
}

/// Batched training (a fixed `batch_size > 1`) obeys the same contract for
/// all three recurrent imputers: batch boundaries are fixed by the batch
/// size alone, per-sequence gradients inside a batch are computed against
/// the batch-start weights on detached graph replicas, and the gradient sums
/// reduce in sequence-index order — so training itself is now a parallel
/// fan-out whose model (and therefore whose imputations) is bit-identical at
/// `RM_THREADS = 1 / 2 / available_parallelism`.
#[test]
fn batched_training_is_bit_identical_across_thread_counts() {
    let map = straight_path_map(24, 8);
    let topology = MultiPolygon::empty();
    let thread_counts = [1, 2, rm_runtime::default_threads()];
    for imputer in [ImputerKind::Brits, ImputerKind::Ssgan, ImputerKind::Bisim] {
        let runs: Vec<ImputedRadioMap> = thread_counts
            .iter()
            .map(|&threads| {
                ImputationPipeline::new(PipelineConfig {
                    differentiator: DifferentiatorKind::MarOnly,
                    imputer,
                    epochs: Some(2),
                    threads,
                    batch_size: Some(4),
                    ..PipelineConfig::default()
                })
                .impute(&map, &topology)
                .0
            })
            .collect();
        for run in &runs[1..] {
            assert!(
                bitwise_eq_maps(&runs[0], run),
                "{} batched training differs across thread counts",
                imputer.name()
            );
        }
    }
}

/// The arena layer (PR 7) must be invisible to the contract: buffer and
/// node reuse is capacity-only, so with arenas at their default (enabled)
/// the recurrent imputers — whose training recycles every step's graph into
/// the per-worker node arena and whose snapshot inference draws all scratch
/// from caller-owned workspaces — are still bit-identical at any thread
/// count. (The CI `RM_ARENA=0` leg runs this same suite against the
/// fresh-allocation reference, closing the loop from the other side.)
#[test]
fn arena_backed_training_and_inference_are_bit_identical_across_thread_counts() {
    let map = straight_path_map(24, 8);
    let topology = MultiPolygon::empty();
    let thread_counts = [1, 2, rm_runtime::default_threads()];
    for imputer in [ImputerKind::Brits, ImputerKind::Ssgan, ImputerKind::Bisim] {
        let runs: Vec<ImputedRadioMap> = thread_counts
            .iter()
            .map(|&threads| {
                ImputationPipeline::new(PipelineConfig {
                    differentiator: DifferentiatorKind::MarOnly,
                    imputer,
                    epochs: Some(2),
                    threads,
                    batch_size: Some(2),
                    ..PipelineConfig::default()
                })
                .impute(&map, &topology)
                .0
            })
            .collect();
        for run in &runs[1..] {
            assert!(
                bitwise_eq_maps(&runs[0], run),
                "{} arena-backed run differs across thread counts",
                imputer.name()
            );
        }
    }
}

/// The f32 inference mode obeys the same contract as the default pipeline:
/// **bit-identical at any thread count**, with the explicit-width SIMD
/// kernels active at their default (the CI `RM_SIMD=0` leg runs this same
/// suite against the scalar reference, which the SIMD kernels are bitwise
/// checked against — so this case plus that leg pin SIMD-on ≡ SIMD-off ≡
/// any thread count). Precision changes which kernels run (and therefore
/// the values — f32 rounds differently from f64); it must never
/// re-introduce scheduling sensitivity. The f64 suite in this file is
/// unchanged, which is itself the second half of the contract: the default
/// precision still produces the PR 2 bits. BiSIM joined the precision axis
/// in PR 8 (graph-free snapshot inference), so it is covered here too.
#[test]
fn f32_pipeline_is_bit_identical_across_thread_counts() {
    let map = straight_path_map(24, 8);
    let topology = MultiPolygon::empty();
    let thread_counts = [1, 2, rm_runtime::default_threads()];
    for imputer in [ImputerKind::Brits, ImputerKind::Ssgan, ImputerKind::Bisim] {
        let runs: Vec<ImputedRadioMap> = thread_counts
            .iter()
            .map(|&threads| {
                ImputationPipeline::new(PipelineConfig {
                    differentiator: DifferentiatorKind::MarOnly,
                    imputer,
                    epochs: Some(3),
                    threads,
                    precision: Precision::F32,
                    ..PipelineConfig::default()
                })
                .impute(&map, &topology)
                .0
            })
            .collect();
        for run in &runs[1..] {
            assert!(
                bitwise_eq_maps(&runs[0], run),
                "{} f32 imputation differs across thread counts",
                imputer.name()
            );
        }
    }
}

/// The full evaluation protocol (split → differentiate → impute → position)
/// yields bit-identical APE metrics across thread counts.
#[test]
fn full_evaluation_is_bit_identical_across_thread_counts() {
    let dataset = tiny_dataset(VenuePreset::KaideLike, 11);
    let thread_counts = [1, 2, rm_runtime::default_threads()];
    for imputer in [ImputerKind::Mice, ImputerKind::Brits] {
        let results: Vec<EvaluationResult> = thread_counts
            .iter()
            .map(|&threads| {
                ImputationPipeline::new(PipelineConfig {
                    differentiator: DifferentiatorKind::TopoAc,
                    imputer,
                    epochs: Some(2),
                    threads,
                    ..PipelineConfig::default()
                })
                .evaluate(&dataset.radio_map, &dataset.venue.walls)
            })
            .collect();
        for result in &results[1..] {
            assert_eq!(
                results[0].ape_m.to_bits(),
                result.ape_m.to_bits(),
                "{} APE differs across thread counts",
                imputer.name()
            );
            assert_eq!(results[0].num_test_queries, result.num_test_queries);
            assert_eq!(results[0].mar_fraction, result.mar_fraction);
        }
    }
}

/// The grid fan-out is bit-identical to serial per-cell evaluation and across
/// thread counts.
#[test]
fn evaluate_grid_is_bit_identical_across_thread_counts() {
    let dataset = tiny_dataset(VenuePreset::WandaLike, 5);
    let cells = [
        (
            DifferentiatorKind::MnarOnly,
            ImputerKind::LinearInterpolation,
        ),
        (DifferentiatorKind::TopoAc, ImputerKind::Mice),
        (
            DifferentiatorKind::MarOnly,
            ImputerKind::MatrixFactorization,
        ),
        (DifferentiatorKind::ElbowKm, ImputerKind::CaseDeletion),
    ];
    let run = |threads: usize| {
        ImputationPipeline::new(PipelineConfig {
            epochs: Some(2),
            threads,
            ..PipelineConfig::default()
        })
        .evaluate_grid(&dataset.radio_map, &dataset.venue.walls, &cells)
    };
    let serial = run(1);
    for threads in [2, rm_runtime::default_threads()] {
        let parallel = run(threads);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.ape_m.to_bits(), p.ape_m.to_bits());
            assert_eq!(s.num_test_queries, p.num_test_queries);
        }
    }
}

/// A deterministic synthetic dense map (no RNG involved) for the forest
/// cases: features 0/1 encode the location linearly, feature 2 is a
/// correlated distractor.
fn forest_training_map() -> DenseRadioMap {
    let mut fingerprints = Vec::new();
    let mut locations = Vec::new();
    for i in 0..90 {
        let x = (i % 9) as f64;
        let y = (i / 9) as f64;
        fingerprints.push(vec![
            -45.0 - x * 3.5,
            -45.0 - y * 3.5,
            -60.0 - ((i % 7) as f64) * 1.5,
        ]);
        locations.push(Point::new(x, y));
    }
    DenseRadioMap::new(fingerprints, locations, 3)
}

/// Random-forest training is bit-identical across thread counts: every tree
/// consumes only its own `derive_seed(seed, tree)` stream and trees are
/// collected in index order, so the forest is a pure function of
/// `(map, config)`. The serial (`threads = 1`) output is additionally pinned
/// to golden bits captured when per-tree seed streams were introduced (PR 4),
/// so the canonical forest for a fixed seed can never silently drift.
#[test]
fn random_forest_training_is_bit_identical_across_thread_counts() {
    use radiomap_core::positioning::{ForestConfig, RandomForest};

    let map = forest_training_map();
    let queries = [
        vec![-45.0, -45.0, -60.0],
        vec![-59.0, -52.0, -63.0],
        vec![-73.0, -76.0, -69.0],
    ];
    let estimate_bits = |threads: usize| -> Vec<(u64, u64)> {
        let forest = RandomForest::train(
            &map,
            &ForestConfig {
                threads,
                ..ForestConfig::default()
            },
        );
        queries
            .iter()
            .map(|q| {
                let p = forest.estimate(q).expect("forest answers every query");
                (p.x.to_bits(), p.y.to_bits())
            })
            .collect()
    };

    let serial = estimate_bits(1);
    for threads in [2, rm_runtime::default_threads(), 0] {
        assert_eq!(
            estimate_bits(threads),
            serial,
            "forest differs between threads=1 and threads={threads}"
        );
    }

    // The serial reference itself, pinned bit by bit (seed 17, 20 trees).
    let golden: Vec<(u64, u64)> = vec![
        (4609449230612460558, 4598775699495592482),
        (4616199000553982088, 4611836138414966920),
        (4619933235245010125, 4620392977706970862),
    ];
    assert_eq!(serial, golden, "the canonical seed-17 forest drifted");
}

/// The full evaluation protocol with the forest estimator is bit-identical
/// across thread counts — forest training now fans out per tree inside the
/// pipeline, which must stay a pure wall-clock knob.
#[test]
fn random_forest_evaluation_is_bit_identical_across_thread_counts() {
    let dataset = tiny_dataset(VenuePreset::KaideLike, 13);
    let thread_counts = [1, 2, rm_runtime::default_threads()];
    let results: Vec<EvaluationResult> = thread_counts
        .iter()
        .map(|&threads| {
            ImputationPipeline::new(PipelineConfig {
                differentiator: DifferentiatorKind::MarOnly,
                imputer: ImputerKind::LinearInterpolation,
                estimator: EstimatorKind::RandomForest,
                epochs: Some(2),
                threads,
                ..PipelineConfig::default()
            })
            .evaluate(&dataset.radio_map, &dataset.venue.walls)
        })
        .collect();
    for result in &results[1..] {
        assert_eq!(
            results[0].ape_m.to_bits(),
            result.ape_m.to_bits(),
            "RF APE differs across thread counts"
        );
        assert_eq!(results[0].num_test_queries, result.num_test_queries);
    }
}

/// Batched query serving joins the contract: a persisted artifact published
/// as a 1-shard venue and replayed through the `rm-serve` micro-batching
/// engine is bit-identical at `threads = 1 / 2 / available_parallelism`, and
/// every served position equals the offline `evaluate_estimator` path's
/// estimate on the same model — serving a persisted artifact is the same
/// pure function as evaluating in-process, batched or not.
#[test]
fn batched_serving_is_bit_identical_and_equals_the_offline_path() {
    use radiomap_core::ShardedVenueSnapshot;
    use rm_serve::{decode, encode, ModelRegistry, ShardedQueryEngine};

    let map = straight_path_map(24, 6);
    let topology = MultiPolygon::empty();
    let snapshot = ImputationPipeline::new(PipelineConfig {
        differentiator: DifferentiatorKind::MarOnly,
        imputer: ImputerKind::Mice,
        estimator: EstimatorKind::Wknn,
        epochs: Some(2),
        threads: 1,
        ..PipelineConfig::default()
    })
    .export_snapshot("det", &map, &topology);

    // The serving model comes from persisted bytes, not the live snapshot.
    let registry = ModelRegistry::new();
    let decoded = decode(&encode(&snapshot)).expect("artifact decodes");
    registry.publish_sharded(ShardedVenueSnapshot::from(decoded), 1);

    // A log long enough to span several 64-query micro-batches.
    let log: Vec<Vec<f64>> = (0..150)
        .map(|i| {
            let base = snapshot.map.fingerprints()[i % snapshot.map.len()].clone();
            base.iter().map(|v| v + (i as f64) * 0.11).collect()
        })
        .collect();

    let offline = snapshot
        .estimator
        .build_threads(snapshot.map.clone(), snapshot.knn_k, 1);
    let reference = ShardedQueryEngine::new(&registry, "det", 1).run_log(&log);
    assert_eq!(reference.len(), log.len());
    for (response, fingerprint) in reference.iter().zip(&log) {
        let served = response.position.expect("dense map answers");
        let expected = offline.estimate(fingerprint).expect("offline answers");
        assert_eq!(
            (served.x.to_bits(), served.y.to_bits()),
            (expected.x.to_bits(), expected.y.to_bits()),
            "serving diverged from the offline estimator"
        );
    }

    for threads in [2, rm_runtime::default_threads(), 0] {
        let responses = ShardedQueryEngine::new(&registry, "det", threads).run_log(&log);
        for (a, b) in reference.iter().zip(&responses) {
            let (pa, pb) = (a.position.unwrap(), b.position.unwrap());
            assert_eq!(a.index, b.index);
            assert_eq!(
                (pa.x.to_bits(), pa.y.to_bits()),
                (pb.x.to_bits(), pb.y.to_bits()),
                "serving differs between threads=1 and threads={threads}"
            );
        }
    }
}

/// The sharded pipeline joins the contract (PR 10): a fixed shard count
/// produces bit-identical per-shard snapshots at any thread count — the
/// shard fan-out, like every other fan-out, is a pure wall-clock knob.
#[test]
fn sharded_exports_are_bit_identical_across_thread_counts() {
    let map = multi_path_map(4, 6, 8);
    let topology = MultiPolygon::empty();
    let export = |threads: usize| {
        ImputationPipeline::new(PipelineConfig {
            differentiator: DifferentiatorKind::MarOnly,
            imputer: ImputerKind::Brits,
            epochs: Some(2),
            threads,
            shards: Some(3),
            ..PipelineConfig::default()
        })
        .export_sharded_snapshot("det", &map, &topology)
    };
    let reference = sharded_bits(&export(1));
    for threads in [2, rm_runtime::default_threads()] {
        assert_eq!(
            sharded_bits(&export(threads)),
            reference,
            "sharded export differs between threads=1 and threads={threads}"
        );
    }
}

/// A shard count of 1 reproduces the unsharded pipeline bitwise — sharding
/// is a pure partitioning knob, with no hidden perturbation of the seeds or
/// the imputation itself.
#[test]
fn a_shard_count_of_one_reproduces_the_unsharded_pipeline_bitwise() {
    let map = multi_path_map(3, 6, 6);
    let topology = MultiPolygon::empty();
    let config = || PipelineConfig {
        differentiator: DifferentiatorKind::MarOnly,
        imputer: ImputerKind::Brits,
        epochs: Some(2),
        threads: 1,
        shards: Some(1),
        ..PipelineConfig::default()
    };
    let whole = ImputationPipeline::new(config()).export_snapshot("det", &map, &topology);
    let sharded = ImputationPipeline::new(config()).export_sharded_snapshot("det", &map, &topology);
    assert_eq!(sharded.num_shards(), 1);
    assert_eq!(snapshot_bits(&sharded.snapshots[0]), snapshot_bits(&whole));
}

/// A fixed ingest log replayed through `LiveVenue` is bit-identical at any
/// thread count — dirty-shard routing, recomputation and generations
/// included — and the incremental snapshots equal a full recompute of the
/// final map bitwise (clean shards are untouched by construction).
#[test]
fn a_fixed_ingest_log_is_bit_identical_across_thread_counts() {
    let ingest_log = |path: usize, base_x: f64| -> Vec<RadioMapRecord> {
        (0..3)
            .map(|i| {
                let values: Vec<Option<f64>> = (0..8)
                    .map(|ap| {
                        if (i + ap) % 3 == 0 {
                            None
                        } else {
                            Some(-48.0 - i as f64 - ap as f64)
                        }
                    })
                    .collect();
                RadioMapRecord::new(
                    Fingerprint::new(values),
                    Some(Point::new(base_x + i as f64, 4.0)),
                    i as f64,
                    path,
                )
            })
            .collect()
    };

    let run = |threads: usize| {
        let mut live = LiveVenue::build(
            "live",
            multi_path_map(4, 6, 8),
            MultiPolygon::empty(),
            PipelineConfig {
                differentiator: DifferentiatorKind::MarOnly,
                imputer: ImputerKind::Brits,
                epochs: Some(2),
                threads,
                shards: Some(3),
                ..PipelineConfig::default()
            },
        );
        // Two ingest rounds: a new path spatially inside an existing shard's
        // region, then more records on that same path.
        let first = live.ingest(&ingest_log(100, 41.0));
        let second = live.ingest(&ingest_log(100, 44.0));
        (first, second, live)
    };

    let (first_1, second_1, live_1) = run(1);
    assert!(!first_1.is_empty(), "the log must dirty at least one shard");
    assert_eq!(first_1, second_1, "the same path routes to the same shard");

    // Incremental ≡ full: recomputing every shard of the final map with the
    // build-time seeds reproduces the incrementally maintained snapshots.
    for (incremental, full) in live_1.snapshots().iter().zip(live_1.recompute_all()) {
        assert_eq!(snapshot_bits(incremental), snapshot_bits(&full));
    }

    let reference = sharded_bits(&live_1.sharded_snapshot());
    for threads in [2, rm_runtime::default_threads()] {
        let (first, second, live) = run(threads);
        assert_eq!(first, first_1);
        assert_eq!(second, second_1);
        assert_eq!(live.generation(), live_1.generation());
        assert_eq!(live.shard_generations(), live_1.shard_generations());
        assert_eq!(
            sharded_bits(&live.sharded_snapshot()),
            reference,
            "ingest log differs between threads=1 and threads={threads}"
        );
    }
}

/// Seed derivation is a pure function of `(base, index)` — the property that
/// keeps RNG-consuming tasks reproducible regardless of scheduling.
#[test]
fn derived_seeds_are_scheduling_independent() {
    let base = 2023;
    let serial: Vec<u64> = (0..64).map(|i| rm_runtime::derive_seed(base, i)).collect();
    let indices: Vec<u64> = (0..64).collect();
    let parallel = rm_runtime::par_map(4, &indices, |_, &i| rm_runtime::derive_seed(base, i));
    assert_eq!(serial, parallel);
}

/// Every bit of a snapshot: its artifact bytes, plus the hash of its
/// weights, which the artifact does not carry.
fn snapshot_bits(snapshot: &VenueSnapshot) -> (Vec<u8>, u64) {
    (rm_serve::encode(snapshot), snapshot_bits_hash(snapshot))
}

/// Every bit of a sharded snapshot, as [`snapshot_bits`].
fn sharded_bits(snapshot: &radiomap_core::ShardedVenueSnapshot) -> (Vec<u8>, Vec<u64>) {
    (
        rm_serve::encode_sharded(snapshot),
        snapshot.snapshots.iter().map(snapshot_bits_hash).collect(),
    )
}

/// FNV-1a 64 over the bits of one exported snapshot: every named tensor
/// (name, shape, element bits at its storage dtype) and the imputed dense
/// map (each fingerprint entry and location coordinate).
fn snapshot_bits_hash(snapshot: &VenueSnapshot) -> u64 {
    use rm_tensor::TensorPayload;

    let mut bytes: Vec<u8> = Vec::new();
    let mut word = |w: u64| bytes.extend_from_slice(&w.to_le_bytes());
    for tensor in &snapshot.tensors {
        for b in tensor.name.bytes() {
            word(u64::from(b));
        }
        let payload = &tensor.payload;
        word(payload.rows() as u64);
        word(payload.cols() as u64);
        match payload {
            TensorPayload::F64(m) => m.data().iter().for_each(|v| word(v.to_bits())),
            TensorPayload::F32(m) => m.data().iter().for_each(|v| word(u64::from(v.to_bits()))),
        }
    }
    for row in snapshot.map.fingerprints() {
        row.iter().for_each(|v| word(v.to_bits()));
    }
    for p in snapshot.map.locations() {
        word(p.x.to_bits());
        word(p.y.to_bits());
    }
    rm_serve::artifact::fnv1a64(&bytes)
}

/// Golden bits for the neural imputers: a small fixed BiSIM, BRITS and SSGAN
/// train-and-export (f64, five survey paths, two epochs) at batch size 1 —
/// the live-graph serial trajectory — and 4 — detached replicas plus the
/// single-sequence tail chunk — pinned to FNV-1a hashes of the exported
/// tensors and the imputed map. The thread-count cases above only prove
/// self-consistency; these hashes pin the trajectory itself, so a kernel
/// rewrite (matmul, autodiff, optimizer) that is meant to be bitwise
/// invisible is checked, not asserted. Precision and batch size are pinned
/// so the env-knob CI legs (`RM_PRECISION`, `RM_BATCH`, `RM_SHARDS`) leave
/// the hashes unchanged, while the `RM_SIMD=0`, `RM_ARENA=0` and
/// `RM_THREADS` legs must reproduce them exactly.
#[test]
fn neural_imputer_snapshots_match_golden_bits() {
    let map = multi_path_map(5, 8, 8);
    let topology = MultiPolygon::empty();
    let mut hashes = Vec::new();
    for imputer in [ImputerKind::Bisim, ImputerKind::Brits, ImputerKind::Ssgan] {
        for batch_size in [1, 4] {
            let snapshot = ImputationPipeline::new(PipelineConfig {
                differentiator: DifferentiatorKind::MarOnly,
                imputer,
                epochs: Some(2),
                batch_size: Some(batch_size),
                precision: Precision::F64,
                ..PipelineConfig::default()
            })
            .export_snapshot("golden", &map, &topology);
            assert!(
                !snapshot.tensors.is_empty(),
                "{} exported no tensors",
                imputer.name()
            );
            hashes.push((imputer.name(), batch_size, snapshot_bits_hash(&snapshot)));
        }
    }
    let golden: Vec<(&str, usize, u64)> = vec![
        ("BiSIM", 1, 14116171749431466583),
        ("BiSIM", 4, 59013450081596456),
        ("BRITS", 1, 2728199384458798016),
        ("BRITS", 4, 17232699824342850479),
        ("SSGAN", 1, 5063492521175578383),
        ("SSGAN", 4, 17742609525868573118),
    ];
    assert_eq!(hashes, golden, "a neural imputer's trained bits drifted");
}
