//! Serving-latency harness: p50/p99 per-query latency and sustained
//! queries/sec of the `rm-serve` batched front end at 1/4/8 fan-out threads.
//!
//! The measured path is the real serving loop — registry lookup, micro-batch
//! assembly, `par_map` fan-out over the persistent pool — against a
//! 500×60 dense map (the `bench_positioning` estimator scale) published as a
//! venue with one shard. Per-batch wall time is divided by the batch size to
//! report per-query latency, and the percentile spread comes from the
//! distribution of full-batch flushes, so queue time inside a batch is
//! included (a query's latency is the time until its whole batch returns,
//! which is what a caller observes).
//!
//! Determinism note: the thread axis changes wall-clock only — the suite
//! pins bit-identical responses at every width, so these legs all compute
//! the same answers.

use std::time::Instant;

use radiomap_core::ShardedVenueSnapshot;
use radiomap_core::{Precision, SnapshotDtype};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rm_bench::ReportTable;
use rm_geometry::Point;
use rm_positioning::EstimatorKind;
use rm_radiomap::{DenseRadioMap, MaskMatrix};
use rm_serve::{ModelRegistry, ShardedQueryEngine, MAX_MICRO_BATCH};

const MAP_RECORDS: usize = 500;
const NUM_APS: usize = 60;
const WARMUP_BATCHES: usize = 10;
const MEASURED_BATCHES: usize = 400;

fn synthetic_snapshot() -> radiomap_core::VenueSnapshot {
    let mut rng = StdRng::seed_from_u64(11);
    let fingerprints = (0..MAP_RECORDS)
        .map(|_| (0..NUM_APS).map(|_| rng.gen_range(-100.0..-40.0)).collect())
        .collect();
    let locations = (0..MAP_RECORDS)
        .map(|_| Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..40.0)))
        .collect();
    radiomap_core::VenueSnapshot {
        venue: "bench".into(),
        map: DenseRadioMap::new(fingerprints, locations, NUM_APS),
        mask: MaskMatrix::all_observed(MAP_RECORDS, NUM_APS),
        estimator: EstimatorKind::Wknn,
        knn_k: 3,
        seed: 11,
        precision: Precision::F64,
        snapshot_dtype: SnapshotDtype::Native,
        tensors: Vec::new(),
    }
}

fn query_log(batches: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(17);
    (0..batches * MAX_MICRO_BATCH)
        .map(|_| (0..NUM_APS).map(|_| rng.gen_range(-100.0..-40.0)).collect())
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index]
}

fn main() {
    let registry = ModelRegistry::new();
    registry.publish_sharded(ShardedVenueSnapshot::from(synthetic_snapshot()), 0);
    let log = query_log(WARMUP_BATCHES + MEASURED_BATCHES);

    let mut table = ReportTable::new(
        &format!(
            "Serving latency, {MAP_RECORDS}x{NUM_APS} WKNN map, \
             batch={MAX_MICRO_BATCH}, {MEASURED_BATCHES} batches"
        ),
        &["threads", "p50 us/query", "p99 us/query", "queries/sec"],
    );
    for threads in [1usize, 4, 8] {
        let mut engine = ShardedQueryEngine::new(&registry, "bench", threads);
        let mut batch_seconds = Vec::with_capacity(MEASURED_BATCHES);
        let mut measured_span = 0.0f64;
        for (batch_index, batch) in log.chunks(MAX_MICRO_BATCH).enumerate() {
            let start = Instant::now();
            for query in batch {
                engine.submit(query.clone());
            }
            let responses = engine.drain();
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(responses.len(), MAX_MICRO_BATCH);
            if batch_index >= WARMUP_BATCHES {
                batch_seconds.push(elapsed);
                measured_span += elapsed;
            }
        }
        batch_seconds.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let per_query_us = |batch_s: f64| batch_s / MAX_MICRO_BATCH as f64 * 1e6;
        let queries = (batch_seconds.len() * MAX_MICRO_BATCH) as f64;
        table.add_row(vec![
            threads.to_string(),
            format!("{:.2}", per_query_us(percentile(&batch_seconds, 0.50))),
            format!("{:.2}", per_query_us(percentile(&batch_seconds, 0.99))),
            format!("{:.0}", queries / measured_span),
        ]);
    }
    table.print();
}
