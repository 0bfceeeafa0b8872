//! The end-to-end serving suite: offline pipeline → artifact → registry →
//! batched query engine, proving the three rm-serve contracts.
//!
//! 1. **Artifact fidelity** — every serialized field of any `VenueSnapshot`,
//!    including real pipeline exports at either precision, round-trips through the on-disk format bitwise
//!    (property-tested over arbitrary bit patterns: NaNs, −0.0,
//!    infinities); the imputer weights are never serialized.
//! 2. **Serving ≡ offline** — a persisted artifact published as a 1-shard
//!    venue answers every query bit-identically to the offline
//!    `evaluate_estimator` path, and a fixed query log is bit-identical at
//!    any thread count.
//! 3. **Hot reload under load** — concurrent publishes never tear a model:
//!    every response is attributable to exactly one generation, no query is
//!    dropped or duplicated, and retired generations are freed.

use proptest::prelude::*;
use radiomap_core::prelude::*;
use radiomap_core::{PipelineConfig, ShardedVenueSnapshot, VenueSnapshot};
use rm_positioning::{average_positioning_error, evaluate_estimator_threads};
use rm_serve::{
    decode, encode, ModelRegistry, ShardedQueryEngine, ShardedQueryResponse, ShardedVenueModel,
    MAX_MICRO_BATCH,
};
use rm_tensor::{Matrix, NamedTensor};
use std::sync::{Arc, Weak};

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A hand-built sparse survey on one path: deterministic missing pattern,
/// RPs every third record — enough structure for every imputer to train on.
fn survey_map(num_records: usize, num_aps: usize) -> RadioMap {
    let mut records = Vec::new();
    for i in 0..num_records {
        let values: Vec<Option<f64>> = (0..num_aps)
            .map(|ap| {
                if (i + ap) % 4 == 0 {
                    None
                } else {
                    Some(-50.0 - (i as f64) - (ap as f64) * 3.0)
                }
            })
            .collect();
        let rp = if i % 3 == 0 {
            Some(Point::new(i as f64 * 2.0, 1.0))
        } else {
            None
        };
        records.push(RadioMapRecord::new(
            Fingerprint::new(values),
            rp,
            i as f64 * 2.0,
            0,
        ));
    }
    RadioMap::new(records, num_aps)
}

fn pipeline(
    imputer: ImputerKind,
    estimator: EstimatorKind,
    precision: Precision,
) -> ImputationPipeline {
    ImputationPipeline::new(PipelineConfig {
        differentiator: DifferentiatorKind::MarOnly,
        imputer,
        estimator,
        epochs: Some(2),
        threads: 1,
        precision,
        ..PipelineConfig::default()
    })
}

fn bits_eq_snapshots(a: &VenueSnapshot, b: &VenueSnapshot) -> bool {
    // The codec is canonical (one encoding per snapshot), so byte equality
    // of re-encodings is exactly bitwise equality of the serialized fields
    // (everything but the weights).
    encode(a) == encode(b)
}

// ---------------------------------------------------------------------------
// 1. Artifact fidelity
// ---------------------------------------------------------------------------

/// Real pipeline exports round-trip bitwise at either precision; the
/// trained tensors stay behind.
#[test]
fn pipeline_exports_round_trip_bitwise_across_dtype_combos() {
    let map = survey_map(18, 5);
    let topology = MultiPolygon::empty();
    for precision in [Precision::F64, Precision::F32] {
        let snapshot = pipeline(ImputerKind::Brits, EstimatorKind::Knn, precision)
            .export_snapshot("e2e", &map, &topology);
        assert_eq!(
            snapshot.tensors.len(),
            24,
            "BRITS exports 24 weight tensors"
        );
        let bytes = encode(&snapshot);
        let decoded = decode(&bytes).expect("pipeline export decodes");
        assert!(
            bits_eq_snapshots(&snapshot, &decoded),
            "{precision:?} export did not round-trip bitwise"
        );
        assert!(decoded.tensors.is_empty(), "weights were deserialized");
    }
}

/// The weights never reach the bytes: a BiSIM or BRITS export encodes
/// exactly as its weightless copy.
#[test]
fn pipeline_exports_encode_without_their_weights() {
    let map = survey_map(18, 5);
    let topology = MultiPolygon::empty();
    for imputer in [ImputerKind::Bisim, ImputerKind::Brits] {
        let snapshot = pipeline(imputer, EstimatorKind::Knn, Precision::F64)
            .export_snapshot("e2e", &map, &topology);
        assert!(
            !snapshot.tensors.is_empty(),
            "{imputer:?} exported no weights"
        );
        let weightless = VenueSnapshot {
            tensors: Vec::new(),
            ..snapshot.clone()
        };
        assert_eq!(encode(&snapshot), encode(&weightless), "{imputer:?}");
    }
}

/// f32 snapshots keep their trained weights resident at 4 bytes/element
/// vs 8 for f64 — the tensor payload is exactly 2× smaller. (The artifact
/// carries no weights, so its size does not depend on the precision.)
#[test]
fn f32_weights_are_half_the_resident_payload_of_f64() {
    let map = survey_map(18, 5);
    let topology = MultiPolygon::empty();
    let f64_snapshot = pipeline(ImputerKind::Brits, EstimatorKind::Knn, Precision::F64)
        .export_snapshot("e2e", &map, &topology);
    let f32_snapshot = pipeline(ImputerKind::Brits, EstimatorKind::Knn, Precision::F32)
        .export_snapshot("e2e", &map, &topology);

    let payload =
        |s: &VenueSnapshot| -> usize { s.tensors.iter().map(|t| t.payload.payload_bytes()).sum() };
    let (f64_bytes, f32_bytes) = (payload(&f64_snapshot), payload(&f32_snapshot));
    assert!(f64_bytes > 0);
    assert_eq!(
        f64_bytes,
        2 * f32_bytes,
        "same shapes at 8 vs 4 bytes per element"
    );
}

/// Builds an arbitrary snapshot from one seed via `derive_seed` draws. All
/// floats come straight from raw u64/u32/u16 bits, so the generated payloads
/// cover NaN patterns, ±0.0, infinities and subnormals — the artifact
/// contract is about bits, not values.
fn build_snapshot(seed: u64) -> VenueSnapshot {
    let mut counter = 0u64;
    let mut draw = move || {
        counter += 1;
        rm_runtime::derive_seed(seed, counter)
    };

    let venue: String = (0..1 + draw() % 12)
        .map(|_| char::from(b'a' + (draw() % 26) as u8))
        .collect();
    let num_aps = 1 + (draw() % 3) as usize;
    let rows = 1 + (draw() % 4) as usize;
    let fingerprints: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..num_aps).map(|_| f64::from_bits(draw())).collect())
        .collect();
    let locations: Vec<Point> = (0..rows)
        .map(|_| Point::new(f64::from_bits(draw()), f64::from_bits(draw())))
        .collect();
    let mut mask = MaskMatrix::all_observed(rows, num_aps);
    for r in 0..rows {
        for c in 0..num_aps {
            mask.set(r, c, EntryKind::from_i8((draw() % 3) as i8 - 1));
        }
    }
    let tensors: Vec<NamedTensor> = (0..draw() % 3)
        .map(|i| {
            let (t_rows, t_cols) = (1 + (draw() % 3) as usize, 1 + (draw() % 3) as usize);
            let len = t_rows * t_cols;
            match draw() % 2 {
                0 => NamedTensor::new(
                    format!("t{i}.f64"),
                    Matrix::from_vec(
                        t_rows,
                        t_cols,
                        (0..len).map(|_| f64::from_bits(draw())).collect(),
                    ),
                ),
                _ => NamedTensor::new(
                    format!("t{i}.f32"),
                    Matrix::from_vec(
                        t_rows,
                        t_cols,
                        (0..len).map(|_| f32::from_bits(draw() as u32)).collect(),
                    ),
                ),
            }
        })
        .collect();
    VenueSnapshot {
        venue,
        map: DenseRadioMap::new(fingerprints, locations, num_aps),
        mask,
        estimator: match draw() % 3 {
            0 => EstimatorKind::Knn,
            1 => EstimatorKind::Wknn,
            _ => EstimatorKind::RandomForest,
        },
        knn_k: 1 + (draw() % 5) as usize,
        seed: draw(),
        precision: if draw() % 2 == 0 {
            Precision::F64
        } else {
            Precision::F32
        },
        snapshot_dtype: SnapshotDtype::Native,
        tensors,
    }
}

fn arb_snapshot() -> impl Strategy<Value = VenueSnapshot> {
    any::<u64>().prop_map(build_snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any snapshot — arbitrary float bits, any estimator/precision tag,
    /// any mask, any weights — survives encode → decode → encode with
    /// identical bytes, and decodes without its weights.
    #[test]
    fn any_snapshot_round_trips_bitwise(snapshot in arb_snapshot()) {
        let bytes = encode(&snapshot);
        let decoded = decode(&bytes).expect("every encoding decodes");
        prop_assert_eq!(&encode(&decoded), &bytes);
        prop_assert!(decoded.tensors.is_empty());
    }

    /// Corrupting any single byte of an artifact makes it fail decoding with
    /// a typed error — never a panic, never a silently-wrong snapshot.
    #[test]
    fn single_byte_corruption_never_panics(
        snapshot in arb_snapshot(),
        position_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode(&snapshot);
        let position = position_seed % bytes.len();
        bytes[position] ^= flip;
        match decode(&bytes) {
            // Flips inside a float payload (or a venue-name byte) keep the
            // artifact structurally valid only if the checksum catches them —
            // which it must, since we flipped after checksumming.
            Err(_) => {}
            Ok(reread) => {
                // The only way a flip decodes is if it produced a different
                // valid artifact — impossible without fixing up the checksum.
                prop_assert!(false, "corrupt artifact decoded: {:?}", reread.venue);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Serving ≡ offline
// ---------------------------------------------------------------------------

/// Queries for the serving-vs-offline comparisons: the map's own
/// fingerprints plus perturbed variants (so KNN faces both exact hits and
/// interpolation), each with its record's RP as ground truth.
fn query_log(snapshot: &VenueSnapshot) -> Vec<TestQuery> {
    let mut queries = Vec::new();
    for pass in 0..12 {
        for (i, (fingerprint, location)) in snapshot
            .map
            .fingerprints()
            .iter()
            .zip(snapshot.map.locations())
            .enumerate()
        {
            let jitter = (pass * 31 + i) as f64 * 0.17;
            queries.push(TestQuery {
                fingerprint: fingerprint.iter().map(|&v| v + jitter).collect(),
                location: *location,
            });
        }
    }
    queries
}

/// A model loaded from persisted bytes and published as a 1-shard venue
/// answers every query bit-identically to the offline `evaluate_estimator`
/// path over the same snapshot — both per query and in the aggregated APE
/// metric.
#[test]
fn serving_matches_the_offline_estimator_query_for_query() {
    let map = survey_map(24, 6);
    let topology = MultiPolygon::empty();
    for estimator_kind in [
        EstimatorKind::Knn,
        EstimatorKind::Wknn,
        EstimatorKind::RandomForest,
    ] {
        let snapshot = pipeline(ImputerKind::Mice, estimator_kind, Precision::F64).export_snapshot(
            "offline-parity",
            &map,
            &topology,
        );
        let queries = query_log(&snapshot);

        // Offline path: estimator built directly from the in-memory snapshot.
        let offline = snapshot
            .estimator
            .build_threads(snapshot.map.clone(), snapshot.knn_k, 1);
        let offline_ape = evaluate_estimator_threads(&*offline, &queries, 1);

        // Serving path: artifact bytes → registry → batched engine.
        let reloaded = decode(&encode(&snapshot)).expect("artifact decodes");
        let registry = ModelRegistry::new();
        registry.publish_sharded(ShardedVenueSnapshot::from(reloaded), 1);
        let mut engine = ShardedQueryEngine::new(&registry, "offline-parity", 1);
        let log: Vec<Vec<f64>> = queries.iter().map(|q| q.fingerprint.clone()).collect();
        let responses = engine.run_log(&log);

        assert_eq!(responses.len(), queries.len());
        let mut answered = Vec::new();
        let mut truths = Vec::new();
        for (response, query) in responses.iter().zip(&queries) {
            let served = response.position.expect("dense maps answer every query");
            let offline_estimate = offline
                .estimate(&query.fingerprint)
                .expect("offline answers every query");
            assert_eq!(
                (served.x.to_bits(), served.y.to_bits()),
                (offline_estimate.x.to_bits(), offline_estimate.y.to_bits()),
                "{} query diverged between serving and offline",
                estimator_kind.name()
            );
            answered.push(served);
            truths.push(query.location);
        }
        let served_ape = average_positioning_error(&answered, &truths);
        assert_eq!(
            served_ape.map(f64::to_bits),
            offline_ape.map(f64::to_bits),
            "{} APE diverged between serving and offline",
            estimator_kind.name()
        );
    }
}

/// A fixed query log yields bit-identical responses at any fan-out width —
/// serving inherits the determinism contract from `rm_runtime::par_map`.
#[test]
fn a_fixed_query_log_is_bit_identical_at_any_thread_count() {
    let map = survey_map(24, 6);
    let topology = MultiPolygon::empty();
    let snapshot = pipeline(
        ImputerKind::LinearInterpolation,
        EstimatorKind::Wknn,
        Precision::F64,
    )
    .export_snapshot("det", &map, &topology);
    let log: Vec<Vec<f64>> = query_log(&snapshot)
        .into_iter()
        .map(|q| q.fingerprint)
        .collect();
    assert!(log.len() > MAX_MICRO_BATCH, "log must span several batches");

    let registry = ModelRegistry::new();
    registry.publish_sharded(snapshot.into(), 1);
    let reference = ShardedQueryEngine::new(&registry, "det", 1).run_log(&log);
    for threads in [2, 8, rm_runtime::default_threads(), 0] {
        let responses = ShardedQueryEngine::new(&registry, "det", threads).run_log(&log);
        assert_eq!(responses.len(), reference.len());
        for (a, b) in reference.iter().zip(&responses) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.generation, b.generation);
            let (pa, pb) = (a.position.unwrap(), b.position.unwrap());
            assert_eq!(
                (pa.x.to_bits(), pa.y.to_bits()),
                (pb.x.to_bits(), pb.y.to_bits()),
                "query {} differs between threads=1 and threads={threads}",
                a.index
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Hot reload under load
// ---------------------------------------------------------------------------

/// A one-RP snapshot whose answer encodes its generation: the model for
/// generation `g` places its only reference point at `x = g`, so any query
/// answered by generation `g` must return exactly `Point::new(g, 0.0)` —
/// response attribution is checkable bit for bit.
fn generation_snapshot(generation: u64) -> VenueSnapshot {
    VenueSnapshot {
        venue: "hot".into(),
        map: DenseRadioMap::new(
            vec![vec![-50.0]],
            vec![Point::new(generation as f64, 0.0)],
            1,
        ),
        mask: MaskMatrix::all_observed(1, 1),
        estimator: EstimatorKind::Knn,
        knn_k: 1,
        seed: 0,
        precision: Precision::F64,
        snapshot_dtype: SnapshotDtype::Native,
        tensors: Vec::new(),
    }
}

/// Hot reload under live query load: one publisher swaps models while query
/// clients replay logs through batching engines. Every response must be
/// attributable to exactly one published generation (its position encodes
/// the generation that answered), no query may be dropped or duplicated,
/// and every retired generation must be freed once its last reader drops.
#[test]
fn hot_reload_under_load_never_tears_drops_or_leaks() {
    const SWAPS: u64 = 40;
    const QUERY_CLIENTS: usize = 6;
    const QUERIES_PER_CLIENT: usize = 512;

    let registry = ModelRegistry::new();
    registry.publish_sharded(generation_snapshot(1).into(), 1);

    enum ClientResult {
        Publisher(Vec<Weak<ShardedVenueModel>>),
        Queries(Vec<ShardedQueryResponse>),
    }

    let clients: Vec<usize> = (0..=QUERY_CLIENTS).collect();
    let results = rm_runtime::par_map(clients.len(), &clients, |_, &client| {
        if client == 0 {
            // The publisher: swap in SWAPS fresh generations, keeping only
            // Weak handles to the retired models.
            let mut retired_weaks = Vec::new();
            for g in 2..=(SWAPS + 1) {
                let retired = registry
                    .publish_sharded(generation_snapshot(g).into(), 1)
                    .expect("every publish after the first retires a model");
                retired_weaks.push(Arc::downgrade(&retired));
                drop(retired);
            }
            ClientResult::Publisher(retired_weaks)
        } else {
            // A query client: replay a fixed log in micro-batches while the
            // publisher races. Small batches maximise generation churn.
            let mut engine = ShardedQueryEngine::with_max_batch(
                &registry,
                "hot",
                1,
                1 + client % MAX_MICRO_BATCH,
            );
            let mut responses = Vec::with_capacity(QUERIES_PER_CLIENT);
            for i in 0..QUERIES_PER_CLIENT {
                engine.submit(vec![-50.0]);
                // Drain only occasionally so auto-flush at capacity does the
                // batching in between.
                if i % 37 == 36 {
                    responses.extend(engine.drain());
                }
            }
            responses.extend(engine.drain());
            ClientResult::Queries(responses)
        }
    });

    assert_eq!(registry.generation(), SWAPS + 1);
    let mut retired_weaks = Vec::new();
    for (client, result) in results.into_iter().enumerate() {
        match result {
            ClientResult::Publisher(weaks) => retired_weaks = weaks,
            ClientResult::Queries(responses) => {
                // Conservation: exactly one response per query, in order.
                assert_eq!(responses.len(), QUERIES_PER_CLIENT, "client {client}");
                let mut last_generation = 0;
                for (i, response) in responses.iter().enumerate() {
                    assert_eq!(response.index, i as u64, "client {client} reordered");
                    // Attribution: the answer's x-coordinate must equal the
                    // generation the response claims — a torn model would
                    // break this equality.
                    let position = response.position.expect("1-NN answers");
                    assert_eq!(
                        position.x.to_bits(),
                        (response.generation as f64).to_bits(),
                        "client {client} query {i}: response not attributable \
                         to its generation"
                    );
                    assert_eq!(position.y.to_bits(), 0.0f64.to_bits());
                    assert!(
                        (1..=SWAPS + 1).contains(&response.generation),
                        "unknown generation {}",
                        response.generation
                    );
                    // Generations are observed monotonically: a batch never
                    // travels back in time.
                    assert!(
                        response.generation >= last_generation,
                        "client {client} saw generation {} after {}",
                        response.generation,
                        last_generation
                    );
                    last_generation = response.generation;
                }
            }
        }
    }

    // Memory release: with every engine and retired Arc dropped, no retired
    // generation is reachable any more — only the live model survives.
    assert_eq!(retired_weaks.len(), SWAPS as usize);
    for (i, weak) in retired_weaks.iter().enumerate() {
        assert!(
            weak.upgrade().is_none(),
            "retired generation {} still reachable",
            i + 1
        );
    }
    assert_eq!(
        registry.sharded_model("hot").unwrap().generation(),
        SWAPS + 1
    );
}
