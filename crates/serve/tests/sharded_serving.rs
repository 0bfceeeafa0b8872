//! The sharded-serving suite: sharded pipeline export → sharded container →
//! registry → routed query engine, proving the per-shard serving contracts.
//!
//! 1. **Sharded ≡ whole-venue** — for the KNN-family estimators, a sharded
//!    model answers every query bit-identically to the offline whole-venue
//!    estimator over the same records (cross-shard re-rank), and a shard
//!    count of 1 reproduces the unsharded artifact byte for byte.
//! 2. **Incremental republish** — ingesting a survey log dirties exactly
//!    the shards it touches; republishing them swaps only those shards'
//!    `Arc`s and generations while the clean shards are carried over
//!    pointer-identically, and the incremental snapshots equal a full
//!    recompute bitwise.
//! 3. **Determinism** — a fixed query log through the sharded engine is
//!    bit-identical at any thread count.
//! 4. **Exact pruning** — the best-first search over shard bounding boxes
//!    answers bit-identically to merging every shard's candidates, and
//!    scans fewer shards than the venue has.
//! 5. **Query boundary** — malformed queries (wrong arity, NaN, ±∞) are
//!    rejected one by one with typed errors; the rest of their micro-batch
//!    is answered exactly as the offline whole-venue estimator answers.
//! 6. **Serving state only** — a sharded container carries no imputer
//!    weights, and a published shard keeps none resident, however it was
//!    published.

use std::sync::Arc;

use proptest::prelude::*;
use radiomap_core::prelude::*;
use radiomap_core::{LiveVenue, PipelineConfig, ShardedVenueSnapshot, VenueSnapshot};
use rm_positioning::{knn_estimate, merge_candidates, wknn_estimate};
use rm_radiomap::{DenseRadioMap, MaskMatrix, VenueShards, MNAR_FILL_VALUE};
use rm_serve::{
    decode_sharded, encode, encode_sharded, load_sharded_artifact, save_sharded_artifact,
    ModelRegistry, QueryError, ShardedQueryEngine, ShardedVenueModel,
};
use rm_tensor::{Precision, SnapshotDtype};

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const NUM_PATHS: usize = 4;
const RECORDS_PER_PATH: usize = 5;
const NUM_APS: usize = 8;

/// A venue surveyed along `NUM_PATHS` spatially separated paths: path `p`
/// lives around `x = 50 p` and hears APs `2p` and `2p + 1` (the rest are
/// missing → MAR → filled with the −100 floor). Every record carries its RP,
/// so the MAR-only + linear-interpolation pipeline is seed-free and
/// record-local — a per-shard imputation produces exactly the whole-venue
/// imputation restricted to the shard's members, which is what lets the
/// sharded-vs-whole comparisons below assert bitwise equality.
fn multi_path_map() -> RadioMap {
    let mut records = Vec::new();
    for path in 0..NUM_PATHS {
        for i in 0..RECORDS_PER_PATH {
            let values: Vec<Option<f64>> = (0..NUM_APS)
                .map(|ap| {
                    if ap / 2 == path {
                        Some(-45.0 - i as f64 - ap as f64 * 3.0)
                    } else {
                        None
                    }
                })
                .collect();
            let rp = Point::new(path as f64 * 50.0 + i as f64 * 2.0, path as f64 * 10.0);
            records.push(RadioMapRecord::new(
                Fingerprint::new(values),
                Some(rp),
                i as f64,
                path,
            ));
        }
    }
    RadioMap::new(records, NUM_APS)
}

/// A seed-free pipeline (see [`multi_path_map`]) with the paper's `k = 3`.
fn seedfree_config(estimator: EstimatorKind, shards: usize) -> PipelineConfig {
    PipelineConfig {
        differentiator: DifferentiatorKind::MarOnly,
        imputer: ImputerKind::LinearInterpolation,
        estimator,
        knn_k: 3,
        threads: 1,
        shards: Some(shards),
        ..PipelineConfig::default()
    }
}

/// Query log: every record's dense fingerprint plus jittered variants, so
/// the estimators face exact hits, near misses and cross-shard blends.
fn query_log(map: &RadioMap) -> Vec<Vec<f64>> {
    let mut log = Vec::new();
    for pass in 0..6 {
        for (i, record) in map.records().iter().enumerate() {
            let jitter = (pass * 17 + i) as f64 * 0.23;
            log.push(
                record
                    .fingerprint
                    .to_dense(MNAR_FILL_VALUE)
                    .iter()
                    .map(|&v| v + jitter)
                    .collect(),
            );
        }
    }
    log
}

// ---------------------------------------------------------------------------
// 1. Sharded ≡ whole-venue
// ---------------------------------------------------------------------------

/// For both KNN-family estimators, the sharded engine (serving a container
/// that went through the sharded codec) answers every query bit-identically
/// to the offline estimator built over the whole venue's records.
#[test]
fn sharded_serving_answers_match_whole_venue_serving_bitwise() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    for estimator in [EstimatorKind::Knn, EstimatorKind::Wknn] {
        let whole = ImputationPipeline::new(seedfree_config(estimator, 1))
            .export_snapshot("venue", &map, &topology);
        let sharded = ImputationPipeline::new(seedfree_config(estimator, NUM_PATHS))
            .export_sharded_snapshot("venue", &map, &topology);
        assert_eq!(sharded.num_shards(), NUM_PATHS);
        for shard in 0..NUM_PATHS {
            assert!(
                !sharded.shards.members_of(shard).is_empty(),
                "every shard must hold records"
            );
        }

        // The sharded model is published from bytes that round-tripped the
        // container codec, so the on-disk format is on the serving path.
        let reloaded = decode_sharded(&encode_sharded(&sharded)).expect("container decodes");
        let registry = ModelRegistry::new();
        registry.publish_sharded(reloaded, 1);
        let offline = whole.estimator.build_threads(whole.map, whole.knn_k, 1);

        let log = query_log(&map);
        let sharded_responses = ShardedQueryEngine::new(&registry, "venue", 1).run_log(&log);
        assert_eq!(log.len(), sharded_responses.len());
        for (query, sharded_response) in log.iter().zip(&sharded_responses) {
            assert!(sharded_response.shard < NUM_PATHS);
            let a = offline.estimate(query).expect("dense maps answer");
            let b = sharded_response.position.expect("dense maps answer");
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits()),
                "{} query {} diverged between sharded serving and the whole venue",
                estimator.name(),
                sharded_response.index
            );
        }
    }
}

/// Routing sends a query heard only on one shard's APs to that shard — the
/// response is attributable to the shard whose survey covers the query.
#[test]
fn queries_route_to_the_shard_covering_their_aps() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    let sharded = ImputationPipeline::new(seedfree_config(EstimatorKind::Knn, NUM_PATHS))
        .export_sharded_snapshot("venue", &map, &topology);
    let registry = ModelRegistry::new();
    registry.publish_sharded(sharded, 1);
    let model = registry.sharded_model("venue").expect("published");

    for path in 0..NUM_PATHS {
        // A query hearing exactly path `p`'s APs routes to the shard that
        // holds path `p` (the shard covering those APs).
        let mut fingerprint = vec![MNAR_FILL_VALUE; NUM_APS];
        fingerprint[2 * path] = -50.0;
        fingerprint[2 * path + 1] = -55.0;
        let routed = model.route(&fingerprint);
        let expected = model
            .shards()
            .shard_of_path(path)
            .expect("surveyed path is registered");
        assert_eq!(routed, expected, "path {path} query misrouted");
    }
}

/// A one-shard container reproduces the unsharded artifact byte for byte,
/// and the container codec round-trips through the filesystem.
#[test]
fn a_single_shard_container_reproduces_the_unsharded_artifact_bitwise() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    let whole = ImputationPipeline::new(seedfree_config(EstimatorKind::Wknn, 1))
        .export_snapshot("venue", &map, &topology);
    let sharded = ImputationPipeline::new(seedfree_config(EstimatorKind::Wknn, 1))
        .export_sharded_snapshot("venue", &map, &topology);
    assert_eq!(sharded.num_shards(), 1);
    assert_eq!(
        encode(&sharded.snapshots[0]),
        encode(&whole),
        "shard count 1 must reproduce the unsharded snapshot bitwise"
    );

    let dir = std::env::temp_dir().join(format!("rm-serve-sharded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("venue.rmvs");
    save_sharded_artifact(&path, &sharded).unwrap();
    let loaded = load_sharded_artifact(&path).unwrap();
    assert_eq!(encode_sharded(&loaded), encode_sharded(&sharded));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// 2. Incremental republish
// ---------------------------------------------------------------------------

/// The live-venue flow end to end: build → publish_sharded → ingest a log
/// touching one shard → republish exactly the dirty shard. The clean
/// shards' models must be carried over pointer-identically with their
/// generations untouched; the dirty shard gets a fresh model and
/// generation; the retired shard model is returned to the publisher; and
/// the incremental snapshots equal a full recompute bitwise.
#[test]
fn incremental_republish_swaps_only_the_dirty_shard() {
    let map = multi_path_map();
    let mut live = LiveVenue::build(
        "live",
        map,
        MultiPolygon::empty(),
        seedfree_config(EstimatorKind::Knn, NUM_PATHS),
    );
    assert_eq!(live.shards().num_shards(), NUM_PATHS);

    let registry = ModelRegistry::new();
    registry.publish_sharded(live.sharded_snapshot(), 1);
    let before = registry.sharded_model("live").expect("published");
    let generations_before = before.shard_generations();

    // A fresh survey pass on a new path spatially inside one existing
    // shard's region: routed by nearest centroid, it dirties exactly that
    // shard.
    let new_rp = Point::new(105.0, 21.0);
    let log: Vec<RadioMapRecord> = (0..3)
        .map(|i| {
            let values: Vec<Option<f64>> = (0..NUM_APS)
                .map(|ap| {
                    if ap / 2 == 2 {
                        Some(-40.0 - i as f64 - ap as f64)
                    } else {
                        None
                    }
                })
                .collect();
            RadioMapRecord::new(Fingerprint::new(values), Some(new_rp), i as f64, 99)
        })
        .collect();
    let dirty = live.ingest(&log);
    assert_eq!(dirty.len(), 1, "the log touches one shard's region");
    let dirty_shard = dirty[0];

    // Incremental ≡ full: every live snapshot (recomputed or carried) is
    // bitwise what a full rebuild from the current map would produce.
    for (incremental, full) in live.snapshots().iter().zip(live.recompute_all()) {
        assert_eq!(encode(incremental), encode(&full));
    }

    let retired = registry.publish_shard(
        "live",
        dirty_shard,
        live.snapshots()[dirty_shard].clone(),
        live.shards(),
        1,
    );
    assert!(
        Arc::ptr_eq(&retired, &before.models()[dirty_shard]),
        "the retired model is the dirty shard's previous model"
    );

    let after = registry.sharded_model("live").expect("still published");
    for shard in 0..NUM_PATHS {
        if shard == dirty_shard {
            assert!(
                !Arc::ptr_eq(&before.models()[shard], &after.models()[shard]),
                "dirty shard must be a fresh model"
            );
            assert!(
                after.models()[shard].generation() > generations_before[shard],
                "dirty shard must carry a fresh generation"
            );
        } else {
            assert!(
                Arc::ptr_eq(&before.models()[shard], &after.models()[shard]),
                "clean shard {shard} must be carried over pointer-identically"
            );
            assert_eq!(after.shard_generations()[shard], generations_before[shard]);
        }
    }
    assert_eq!(after.generation(), registry.generation());

    // The republished shard actually serves the ingested survey: with the
    // new record's exact fingerprint and k = 1 the answer is its RP.
    let probe = log[0].fingerprint.to_dense(MNAR_FILL_VALUE);
    let nearest = after.models()[dirty_shard]
        .snapshot()
        .map
        .fingerprints()
        .iter()
        .any(|f| {
            f.iter()
                .zip(&probe)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
    assert!(nearest, "ingested record must be in the republished shard");
    let answer = ShardedQueryEngine::new(&registry, "live", 1)
        .run_log(&[probe])
        .pop()
        .expect("one response");
    assert_eq!(answer.shard, dirty_shard, "probe routes to the dirty shard");
    assert_eq!(
        answer.generation,
        after.models()[dirty_shard].generation(),
        "response attributes to the republished generation"
    );
}

// ---------------------------------------------------------------------------
// 3. Determinism
// ---------------------------------------------------------------------------

/// A fixed query log through the sharded engine is bit-identical at any
/// thread count — routing, re-rank and generation attribution included.
#[test]
fn a_sharded_query_log_is_bit_identical_at_any_thread_count() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    let sharded = ImputationPipeline::new(seedfree_config(EstimatorKind::Wknn, NUM_PATHS))
        .export_sharded_snapshot("det", &map, &topology);
    let registry = ModelRegistry::new();
    registry.publish_sharded(sharded, 1);
    let log = query_log(&map);

    let reference = ShardedQueryEngine::new(&registry, "det", 1).run_log(&log);
    for threads in [2, 8, rm_runtime::default_threads(), 0] {
        let responses = ShardedQueryEngine::new(&registry, "det", threads).run_log(&log);
        assert_eq!(responses.len(), reference.len());
        for (a, b) in reference.iter().zip(&responses) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.shard, b.shard);
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
// 4. Exact pruning
// ---------------------------------------------------------------------------

/// The search the best-first one prunes: every shard's global candidates,
/// merged and folded exactly as the whole-venue scan would.
fn exhaustive_estimate(model: &ShardedVenueModel, fingerprint: &[f64]) -> Option<Point> {
    let k = model
        .models()
        .iter()
        .map(|m| m.snapshot().knn_k.max(1))
        .max()
        .unwrap_or(1);
    let mut pooled = Vec::new();
    for shard in model.models() {
        pooled.extend(
            shard
                .global_candidates(fingerprint)
                .expect("KNN-family shards rank"),
        );
    }
    let merged = merge_candidates(k, pooled);
    match model.models()[0].snapshot().estimator {
        EstimatorKind::Wknn => wknn_estimate(&merged),
        _ => knn_estimate(&merged),
    }
}

fn position_bits(p: Option<Point>) -> Option<(u64, u64)> {
    p.map(|p| (p.x.to_bits(), p.y.to_bits()))
}

/// A sharded snapshot built by hand: record `i` of `fingerprints` goes to
/// shard `assignments[i]` (so global indices interleave across shards),
/// and a shard with no records stays empty.
fn hand_sharded(
    num_aps: usize,
    fingerprints: &[Vec<f64>],
    locations: &[Point],
    assignments: Vec<usize>,
    num_shards: usize,
    estimator: EstimatorKind,
    knn_k: usize,
) -> ShardedVenueSnapshot {
    let shards =
        VenueShards::from_parts(assignments, vec![Point::origin(); num_shards], Vec::new())
            .expect("assignments reference existing shards");
    let snapshots = (0..num_shards)
        .map(|shard| {
            let members = shards.members_of(shard);
            VenueSnapshot {
                venue: "hand".into(),
                map: DenseRadioMap::new(
                    members.iter().map(|&i| fingerprints[i].clone()).collect(),
                    members.iter().map(|&i| locations[i]).collect(),
                    num_aps,
                ),
                mask: MaskMatrix::all_observed(members.len(), num_aps),
                estimator,
                knn_k,
                seed: 0,
                precision: Precision::F64,
                snapshot_dtype: SnapshotDtype::Native,
                tensors: Vec::new(),
            }
        })
        .collect();
    ShardedVenueSnapshot {
        venue: "hand".into(),
        snapshots,
        shards,
    }
}

/// One random pruning case: a sharded venue on a coarse RSSI grid (so
/// distances and bounds tie often), with empty shards, fingerprints
/// duplicated across shards, and `k` from 1 to beyond the shard size; plus
/// queries on the grid, exactly on records, on box faces and outside every
/// box.
fn pruning_case(seed: u64) -> (ShardedVenueSnapshot, Vec<Vec<f64>>) {
    let mut counter = 0u64;
    let mut draw = move || {
        counter += 1;
        rm_runtime::derive_seed(seed, counter)
    };
    let num_aps = 1 + (draw() % 5) as usize;
    let num_shards = 2 + (draw() % 5) as usize;
    let num_records = (draw() % 40) as usize;
    // Some shards never receive a record.
    let live_shards = 1 + (draw() % num_shards as u64) as usize;
    let grid = |v: u64| -100.0 + 5.0 * (v % 13) as f64;
    let mut fingerprints: Vec<Vec<f64>> = Vec::with_capacity(num_records);
    for _ in 0..num_records {
        let duplicate = !fingerprints.is_empty() && draw().is_multiple_of(4);
        let fingerprint = if duplicate {
            fingerprints[(draw() % fingerprints.len() as u64) as usize].clone()
        } else {
            (0..num_aps).map(|_| grid(draw())).collect()
        };
        fingerprints.push(fingerprint);
    }
    let locations: Vec<Point> = (0..num_records)
        .map(|_| Point::new((draw() % 1000) as f64 * 0.37, (draw() % 1000) as f64 * 0.53))
        .collect();
    let assignments: Vec<usize> = (0..num_records)
        .map(|_| (draw() % live_shards as u64) as usize)
        .collect();
    let largest = (0..num_shards)
        .map(|s| assignments.iter().filter(|&&a| a == s).count())
        .max()
        .unwrap_or(0);
    let knn_k = 1 + (draw() % (largest as u64 + 4)) as usize;
    let estimator = if draw().is_multiple_of(2) {
        EstimatorKind::Knn
    } else {
        EstimatorKind::Wknn
    };

    let mut queries: Vec<Vec<f64>> = Vec::new();
    for _ in 0..24 {
        let query = match draw() % 4 {
            // Anywhere on the grid.
            0 => (0..num_aps).map(|_| grid(draw())).collect(),
            // Exactly a record.
            1 if !fingerprints.is_empty() => {
                fingerprints[(draw() % fingerprints.len() as u64) as usize].clone()
            }
            // Outside every box: beyond the grid on every AP.
            2 => (0..num_aps)
                .map(|_| {
                    if draw().is_multiple_of(2) {
                        -130.0 - (draw() % 7) as f64
                    } else {
                        -30.0 + (draw() % 7) as f64
                    }
                })
                .collect(),
            // Half-way between grid levels: bounds and distances tie on
            // box faces (e.g. ±2.5 dB from two records in two shards).
            _ => (0..num_aps).map(|_| grid(draw()) + 2.5).collect(),
        };
        queries.push(query);
    }
    let snapshot = hand_sharded(
        num_aps,
        &fingerprints,
        &locations,
        assignments,
        num_shards,
        estimator,
        knn_k,
    );
    (snapshot, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The pruned best-first search is bit-identical to the exhaustive
    /// merge over every shard on random multi-shard venues, at KNN and
    /// WKNN, and never scans more shards than the venue has.
    #[test]
    fn pruned_search_matches_the_exhaustive_merge_bitwise(seed in any::<u64>()) {
        let (snapshot, queries) = pruning_case(seed);
        let num_shards = snapshot.num_shards();
        let registry = ModelRegistry::new();
        registry.publish_sharded(snapshot, 1);
        let model = registry.sharded_model("hand").expect("published");
        for query in &queries {
            let answer = model.query(query);
            let exhaustive = exhaustive_estimate(&model, query);
            prop_assert!(
                position_bits(answer.position) == position_bits(exhaustive),
                "query {:?}: pruned {:?}, exhaustive {:?}",
                query,
                answer.position,
                exhaustive
            );
            prop_assert_eq!(answer.shard, model.route(query));
            prop_assert!(answer.shards_scanned <= num_shards);
        }
    }
}

/// A bound equal to the k-th distance must not prune: the shard may hold a
/// record at that very distance with a lower global index. Here shard 0's
/// record (global 1) and shard 1's record (global 0) are both 5 dB from
/// the query; the tie goes to global index 0, in the shard visited second.
#[test]
fn a_bound_equal_to_the_kth_distance_is_still_scanned() {
    let fingerprints = vec![vec![-50.0], vec![-60.0]];
    let locations = vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
    for estimator in [EstimatorKind::Knn, EstimatorKind::Wknn] {
        let registry = ModelRegistry::new();
        registry.publish_sharded(
            hand_sharded(1, &fingerprints, &locations, vec![1, 0], 2, estimator, 1),
            1,
        );
        let model = registry.sharded_model("hand").expect("published");
        let answer = model.query(&[-55.0]);
        assert_eq!(answer.shards_scanned, 2, "the tied shard must be visited");
        assert_eq!(
            position_bits(answer.position),
            position_bits(Some(locations[0])),
            "ties break by global record index"
        );
    }
}

/// Shards scanned per query: on well-separated shards (the multi-path
/// venue queried at its own records, `k` no larger than a shard) the
/// search reads exactly the query's own shard; with `k` larger than a
/// shard it still skips shards on average.
#[test]
fn best_first_search_scans_fewer_shards_than_the_venue_has() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    let separated = PipelineConfig {
        knn_k: RECORDS_PER_PATH,
        ..seedfree_config(EstimatorKind::Wknn, NUM_PATHS)
    };
    let registry = ModelRegistry::new();
    registry.publish_sharded(
        ImputationPipeline::new(separated).export_sharded_snapshot("separated", &map, &topology),
        1,
    );
    registry.publish_sharded(
        ImputationPipeline::new(seedfree_config(EstimatorKind::Wknn, NUM_PATHS))
            .export_sharded_snapshot("multi", &map, &topology),
        1,
    );

    let separated = registry.sharded_model("separated").expect("published");
    for record in map.records() {
        let query = record.fingerprint.to_dense(MNAR_FILL_VALUE);
        assert_eq!(separated.query(&query).shards_scanned, 1);
    }

    let multi = registry.sharded_model("multi").expect("published");
    let log = query_log(&map);
    let scanned: usize = log.iter().map(|q| multi.query(q).shards_scanned).sum();
    let mean = scanned as f64 / log.len() as f64;
    assert!(
        mean < NUM_PATHS as f64,
        "mean shards scanned {mean} must stay below the shard count {NUM_PATHS}"
    );
}

// ---------------------------------------------------------------------------
// 5. Query boundary
// ---------------------------------------------------------------------------

/// A malformed query built from one seed, with the error it must draw.
fn malformed_query(draw: &mut impl FnMut() -> u64) -> (Vec<f64>, QueryError) {
    let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let len = (draw() % (2 * NUM_APS as u64 + 1)) as usize;
    let mut query: Vec<f64> = (0..len).map(|_| -90.0 + (draw() % 50) as f64).collect();
    if len != NUM_APS {
        if len > 0 && draw().is_multiple_of(2) {
            query[(draw() % len as u64) as usize] = poison[(draw() % 3) as usize];
        }
        return (
            query,
            QueryError::Arity {
                expected: NUM_APS,
                got: len,
            },
        );
    }
    for _ in 0..1 + draw() % 3 {
        query[(draw() % len as u64) as usize] = poison[(draw() % 3) as usize];
    }
    (query, QueryError::NonFinite)
}

/// Malformed queries — every length from 0 to twice the AP count, NaN and
/// ±∞ at random positions — mixed into valid micro-batches never panic a
/// batch: each draws its typed error with no position, and every valid
/// query in the same batches gets bit-identically the offline whole-venue
/// estimator's answer and the clean run's shard and generation, at any
/// batch capacity and thread count.
#[test]
fn malformed_queries_are_rejected_without_disturbing_their_batch() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    let whole = ImputationPipeline::new(seedfree_config(EstimatorKind::Wknn, 1))
        .export_snapshot("venue", &map, &topology);
    let offline = whole.estimator.build_threads(whole.map, whole.knn_k, 1);
    let registry = ModelRegistry::new();
    registry.publish_sharded(
        ImputationPipeline::new(seedfree_config(EstimatorKind::Wknn, NUM_PATHS))
            .export_sharded_snapshot("venue", &map, &topology),
        1,
    );
    let clean = query_log(&map);
    let sharded_clean = ShardedQueryEngine::new(&registry, "venue", 1).run_log(&clean);

    for seed in 0..8u64 {
        let mut counter = 0u64;
        let mut draw = move || {
            counter += 1;
            rm_runtime::derive_seed(seed, counter)
        };
        // Entry per submitted query: `Ok(clean index)` or the expected error.
        let mut log = Vec::new();
        let mut expected = Vec::new();
        for (i, query) in clean.iter().enumerate() {
            while draw().is_multiple_of(3) {
                let (bad, error) = malformed_query(&mut draw);
                log.push(bad);
                expected.push(Err(error));
            }
            log.push(query.clone());
            expected.push(Ok(i));
        }
        let capacity = 1 + (seed as usize * 9) % rm_serve::MAX_MICRO_BATCH;
        let threads = [1, 2, 8, 0][seed as usize % 4];

        let sharded =
            ShardedQueryEngine::with_max_batch(&registry, "venue", threads, capacity).run_log(&log);
        assert_eq!(sharded.len(), log.len());
        for (j, want) in expected.iter().enumerate() {
            match *want {
                Ok(i) => {
                    assert_eq!(sharded[j].error, None);
                    assert_eq!(
                        position_bits(sharded[j].position),
                        position_bits(offline.estimate(&clean[i]))
                    );
                    assert_eq!(sharded[j].shard, sharded_clean[i].shard);
                    assert_eq!(sharded[j].generation, sharded_clean[i].generation);
                }
                Err(error) => {
                    assert_eq!(sharded[j].error, Some(error), "query {:?}", log[j]);
                    assert_eq!(sharded[j].position, None);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 6. Serving state only
// ---------------------------------------------------------------------------

/// A two-shard BiSIM export of the multi-path venue: every shard snapshot
/// carries trained weights.
fn bisim_sharded_export() -> ShardedVenueSnapshot {
    let sharded = ImputationPipeline::new(PipelineConfig {
        imputer: ImputerKind::Bisim,
        epochs: Some(1),
        ..seedfree_config(EstimatorKind::Wknn, 2)
    })
    .export_sharded_snapshot("bisim", &multi_path_map(), &MultiPolygon::empty());
    assert_eq!(sharded.num_shards(), 2);
    for snapshot in &sharded.snapshots {
        assert!(!snapshot.tensors.is_empty(), "BiSIM shards export weights");
    }
    sharded
}

/// The container encodes exactly as its weightless copy.
#[test]
fn sharded_exports_encode_without_their_weights() {
    let sharded = bisim_sharded_export();
    let weightless = ShardedVenueSnapshot {
        snapshots: sharded
            .snapshots
            .iter()
            .map(|s| VenueSnapshot {
                tensors: Vec::new(),
                ..s.clone()
            })
            .collect(),
        ..sharded.clone()
    };
    assert_eq!(encode_sharded(&sharded), encode_sharded(&weightless));
}

/// An in-memory publish — no codec in between — still leaves no weights
/// resident, whether the whole venue or one shard is published.
#[test]
fn published_shards_hold_no_weights() {
    let sharded = bisim_sharded_export();
    let registry = ModelRegistry::new();
    registry.publish_sharded(sharded.clone(), 1);
    registry.publish_shard("bisim", 1, sharded.snapshots[1].clone(), &sharded.shards, 1);
    let model = registry.sharded_model("bisim").expect("published");
    assert_eq!(model.models().len(), 2);
    for shard in model.models() {
        assert!(shard.snapshot().tensors.is_empty());
    }
}
