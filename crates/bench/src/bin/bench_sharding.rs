//! Sharding harness: wall-clock cost of the sharded "live venue" pipeline
//! against its whole-venue equivalents.
//!
//! Four measurements on a 16-path synthetic venue (one spatial shard per
//! path):
//!
//! 1. **Sharded vs unsharded imputation** — `export_sharded_snapshot` at 16
//!    shards vs `export_snapshot`, same records, same imputer. Sharding
//!    bounds peak memory by the largest shard and makes each shard an
//!    independent publish unit; on a single core its wall-clock should stay
//!    near the unsharded run (the work is the same records, just
//!    partitioned).
//! 2. **Incremental vs full recompute** — a `LiveVenue` ingest that dirties
//!    one shard vs recomputing all 16. The dirty-shard path must be ≥5×
//!    cheaper (it recomputes 1/16 of the venue).
//! 3. **Per-shard vs whole-venue publish** — `ModelRegistry::publish_shard`
//!    (one estimator rebuild + Arc compose) vs `publish_sharded` (all 16).
//! 4. **Sharded query** — µs per query through `ShardedQueryEngine`, and
//!    the mean number of shards the best-first search scans per query,
//!    which must stay below the shard count.
//!
//! Determinism note: every measured path is pinned bit-identical across
//! thread counts by the determinism suite; these legs change wall-clock
//! only.

use std::hint::black_box;
use std::time::Instant;

use radiomap_core::prelude::*;
use radiomap_core::{LiveVenue, PipelineConfig};
use rm_bench::ReportTable;
use rm_radiomap::MNAR_FILL_VALUE;
use rm_serve::{ModelRegistry, ShardedQueryEngine};

const NUM_PATHS: usize = 16;
const RECORDS_PER_PATH: usize = 24;
const NUM_APS: usize = 32;
/// Passes over the query log in the sharded-query measurement.
const QUERY_PASSES: usize = 20;

/// A venue surveyed along `NUM_PATHS` spatially separated paths; path `p`
/// hears a sliding window of APs around `2p`, with a deterministic missing
/// pattern and an RP every third record.
fn survey_map() -> RadioMap {
    let mut records = Vec::new();
    for path in 0..NUM_PATHS {
        for i in 0..RECORDS_PER_PATH {
            let values: Vec<Option<f64>> = (0..NUM_APS)
                .map(|ap| {
                    let offset = (ap + NUM_APS - 2 * path) % NUM_APS;
                    if offset < 6 {
                        Some(-45.0 - offset as f64 * 5.0 - (i % 7) as f64)
                    } else if (i + ap) % 5 == 0 {
                        Some(-85.0 - ((i + ap) % 9) as f64)
                    } else {
                        None
                    }
                })
                .collect();
            let rp = if i % 3 == 0 {
                Some(Point::new(
                    path as f64 * 30.0 + i as f64 * 1.5,
                    (path % 4) as f64 * 12.0,
                ))
            } else {
                None
            };
            records.push(RadioMapRecord::new(
                Fingerprint::new(values),
                rp,
                i as f64,
                path,
            ));
        }
    }
    RadioMap::new(records, NUM_APS)
}

fn config(shards: usize) -> PipelineConfig {
    PipelineConfig {
        differentiator: DifferentiatorKind::MarOnly,
        imputer: ImputerKind::Brits,
        epochs: Some(2),
        threads: 1,
        shards: Some(shards),
        ..PipelineConfig::default()
    }
}

/// A fresh survey pass landing spatially inside one existing shard.
fn ingest_log() -> Vec<RadioMapRecord> {
    (0..4)
        .map(|i| {
            let values: Vec<Option<f64>> = (0..NUM_APS)
                .map(|ap| {
                    if (ap + NUM_APS - 10) % NUM_APS < 6 {
                        Some(-50.0 - i as f64 - ap as f64 * 0.5)
                    } else {
                        None
                    }
                })
                .collect();
            RadioMapRecord::new(
                Fingerprint::new(values),
                Some(Point::new(151.0 + i as f64, 12.0)),
                i as f64,
                1000,
            )
        })
        .collect()
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let map = survey_map();
    let topology = MultiPolygon::empty();

    let mut table = ReportTable::new(
        &format!(
            "Sharded pipeline, {} records x {NUM_APS} APs, {NUM_PATHS} paths, BRITS epochs=2",
            map.len()
        ),
        &["measurement", "ms", "vs reference"],
    );

    // 1. Sharded vs unsharded imputation.
    let (_, unsharded_ms) =
        time(|| ImputationPipeline::new(config(1)).export_snapshot("bench", &map, &topology));
    let (sharded, sharded_ms) = time(|| {
        ImputationPipeline::new(config(NUM_PATHS)).export_sharded_snapshot("bench", &map, &topology)
    });
    assert_eq!(sharded.num_shards(), NUM_PATHS);
    table.add_row(vec![
        "unsharded export".into(),
        format!("{unsharded_ms:.1}"),
        "1.00x".into(),
    ]);
    table.add_row(vec![
        format!("sharded export ({NUM_PATHS} shards)"),
        format!("{sharded_ms:.1}"),
        format!("{:.2}x", sharded_ms / unsharded_ms),
    ]);

    // 2. Incremental 1-dirty-shard ingest vs full recompute.
    let (mut live, _) = time(|| {
        LiveVenue::build(
            "bench",
            survey_map(),
            MultiPolygon::empty(),
            config(NUM_PATHS),
        )
    });
    let (_, full_ms) = time(|| live.recompute_all());
    let log = ingest_log();
    let (dirty, incremental_ms) = time(|| live.ingest(&log));
    assert_eq!(dirty.len(), 1, "the log must dirty exactly one shard");
    table.add_row(vec![
        format!("full recompute ({NUM_PATHS} shards)"),
        format!("{full_ms:.1}"),
        "1.00x".into(),
    ]);
    table.add_row(vec![
        "incremental ingest (1 dirty shard)".into(),
        format!("{incremental_ms:.1}"),
        format!("{:.2}x", incremental_ms / full_ms),
    ]);
    let speedup = full_ms / incremental_ms;
    table.add_row(vec![
        "incremental speedup".into(),
        format!("{speedup:.1}x"),
        if speedup >= 5.0 {
            "PASS (>=5x)"
        } else {
            "FAIL (<5x)"
        }
        .into(),
    ]);

    // 3. Per-shard vs whole-venue publish.
    let registry = ModelRegistry::new();
    let snapshot = live.sharded_snapshot();
    let (_, publish_all_ms) = time(|| registry.publish_sharded(snapshot, 1));
    let dirty_shard = dirty[0];
    let (_, publish_one_ms) = time(|| {
        registry.publish_shard(
            "bench",
            dirty_shard,
            live.snapshots()[dirty_shard].clone(),
            live.shards(),
            1,
        )
    });
    table.add_row(vec![
        format!("publish_sharded ({NUM_PATHS} shards)"),
        format!("{publish_all_ms:.2}"),
        "1.00x".into(),
    ]);
    table.add_row(vec![
        "publish_shard (1 shard)".into(),
        format!("{publish_one_ms:.2}"),
        format!("{:.2}x", publish_one_ms / publish_all_ms),
    ]);

    // 4. Sharded query: the survey's own fingerprints (missing APs at the
    // floor) as the query log.
    let queries: Vec<Vec<f64>> = map
        .records()
        .iter()
        .map(|r| r.fingerprint.to_dense(MNAR_FILL_VALUE))
        .collect();
    let model = registry.sharded_model("bench").expect("published above");
    let scanned: usize = queries.iter().map(|q| model.query(q).shards_scanned).sum();
    let mean_scanned = scanned as f64 / queries.len() as f64;
    let (_, query_ms) = time(|| {
        for _ in 0..QUERY_PASSES {
            black_box(ShardedQueryEngine::new(&registry, "bench", 1).run_log(black_box(&queries)));
        }
    });
    let query_us = query_ms * 1e3 / (QUERY_PASSES * queries.len()) as f64;
    table.add_row(vec![
        "sharded query (us/query)".into(),
        format!("{query_us:.2}"),
        String::new(),
    ]);
    table.add_row(vec![
        "shards scanned per query (mean)".into(),
        format!("{mean_scanned:.2}"),
        format!("{:.2}x of {NUM_PATHS}", mean_scanned / NUM_PATHS as f64),
    ]);

    table.print();
    assert!(
        mean_scanned < NUM_PATHS as f64,
        "the best-first search must skip shards (scanned {mean_scanned:.2} of {NUM_PATHS})"
    );
    assert!(
        speedup >= 5.0,
        "incremental ingest must be >=5x cheaper than a full recompute \
         (measured {speedup:.1}x)"
    );
}
