//! The live-venue ingest path: incremental re-imputation of a sharded venue.
//!
//! A [`LiveVenue`] is the operational form of the sharded pipeline: it holds
//! the venue's survey map, its fixed [`VenueShards`] partition, and one
//! [`VenueSnapshot`] per shard. New survey fingerprints arrive as a log of
//! [`RadioMapRecord`]s; [`LiveVenue::ingest`] routes each record to its
//! shard (same survey path → same shard; new paths → nearest shard
//! centroid; unlocatable paths → shard 0), computes the **dirty-shard set**,
//! and recomputes only those shards — clean shards are untouched, bit for
//! bit.
//!
//! # Determinism contract
//!
//! Every shard's snapshot is a pure function of `(shard sub-map, shard
//! seed, pipeline config)`; the shard seeds are fixed when the venue is
//! built ([`rm_runtime::derive_seed`] per shard). Therefore:
//!
//! * a fixed ingest log yields a bit-identical venue state at any
//!   `RM_THREADS` (the dirty-shard fan-out is an ordered `par_map`, and
//!   each shard computation is itself thread-count independent), and
//! * incremental ingest ≡ full recompute: recomputing a dirty shard from
//!   its updated sub-map produces exactly what a from-scratch rebuild of
//!   the whole venue (with the same partition) would produce for that
//!   shard ([`LiveVenue::recompute_all`] exists to assert this).

use rm_geometry::MultiPolygon;
use rm_radiomap::{RadioMap, RadioMapRecord, VenueShards};

use crate::pipeline::{ImputationPipeline, PipelineConfig, ShardedVenueSnapshot, VenueSnapshot};

/// A sharded venue kept live: ingest survey fingerprints, re-impute dirty
/// shards, republish per shard.
pub struct LiveVenue {
    pipeline: ImputationPipeline,
    venue: String,
    topology: MultiPolygon,
    map: RadioMap,
    shards: VenueShards,
    snapshots: Vec<VenueSnapshot>,
    /// Venue update counter: bumped once per ingest that dirties anything.
    generation: u64,
    /// Per-shard generation: the venue generation that last recomputed it.
    shard_generations: Vec<u64>,
}

impl LiveVenue {
    /// Builds the venue: partitions `map` at the pipeline's effective shard
    /// count ([`PipelineConfig::shards`], else `RM_SHARDS`) and computes
    /// every shard's snapshot. Generation starts at 1 for all shards.
    pub fn build(
        venue: impl Into<String>,
        map: RadioMap,
        topology: MultiPolygon,
        config: PipelineConfig,
    ) -> Self {
        let venue = venue.into();
        let pipeline = ImputationPipeline::new(config);
        let shards = pipeline.shard(&map);
        let n = shards.num_shards();
        let shard_ids: Vec<usize> = (0..n).collect();
        let snapshots = pipeline.compute_shards(&venue, &map, &shards, &topology, &shard_ids, None);
        Self {
            pipeline,
            venue,
            topology,
            map,
            shards,
            snapshots,
            generation: 1,
            shard_generations: vec![1; n],
        }
    }

    /// Ingests a log of new survey fingerprints: routes each record to its
    /// shard, recomputes exactly the dirty shards (fanned over the
    /// deterministic pool), and bumps the venue generation once. Returns the
    /// sorted dirty-shard set. An empty log is a no-op returning `[]`.
    pub fn ingest(&mut self, log: &[RadioMapRecord]) -> Vec<usize> {
        self.recompute_dirty(log, None)
    }

    /// [`LiveVenue::ingest`] with warm-started re-imputation: dirty shards
    /// resume from their previous tensor snapshots through
    /// [`Imputer::impute_warm`](rm_imputers::Imputer::impute_warm) with
    /// `fine_tune_epochs` of additional mini-batch training, instead of
    /// training from scratch. Cheaper than [`LiveVenue::ingest`] for the
    /// neural imputers but *not* equivalent to a full recompute (fine-tuning
    /// is a different training trajectory); imputers without warm-start
    /// support fall back to the cold path.
    pub fn ingest_warm(&mut self, log: &[RadioMapRecord], fine_tune_epochs: usize) -> Vec<usize> {
        self.recompute_dirty(log, Some(fine_tune_epochs))
    }

    /// The body of both ingest paths: routes the log, recomputes the dirty
    /// shards (warm from their current tensors when `fine_tune_epochs` is
    /// set), bumps the venue generation once and swaps the fresh snapshots
    /// in.
    fn recompute_dirty(
        &mut self,
        log: &[RadioMapRecord],
        fine_tune_epochs: Option<usize>,
    ) -> Vec<usize> {
        let dirty = self.route_and_append(log);
        if dirty.is_empty() {
            return dirty;
        }
        let warm = fine_tune_epochs.map(|epochs| (&self.snapshots[..], epochs));
        let fresh = self.pipeline.compute_shards(
            &self.venue,
            &self.map,
            &self.shards,
            &self.topology,
            &dirty,
            warm,
        );
        self.generation += 1;
        for (&shard, snapshot) in dirty.iter().zip(fresh) {
            self.snapshots[shard] = snapshot;
            self.shard_generations[shard] = self.generation;
        }
        dirty
    }

    /// Routes every log record to a shard, appends it to the map and the
    /// partition, and returns the sorted dirty-shard set.
    fn route_and_append(&mut self, log: &[RadioMapRecord]) -> Vec<usize> {
        let mut dirty: Vec<usize> = Vec::new();
        for record in log {
            let shard = match self.shards.shard_of_path(record.path_id) {
                Some(shard) => shard,
                None => {
                    let shard = match record.rp {
                        Some(rp) => self.shards.nearest_shard(rp),
                        // A new path with no location yet cannot be placed
                        // spatially; it joins shard 0 like the sharder's own
                        // unlocated-path rule.
                        None => 0,
                    };
                    self.shards.register_path(record.path_id, shard);
                    shard
                }
            };
            let index = self.map.len();
            self.map.push(record.clone());
            self.shards.push_record(index, shard);
            if let Err(i) = dirty.binary_search(&shard) {
                dirty.insert(i, shard);
            }
        }
        dirty
    }

    /// Recomputes **every** shard from the current map with the build-time
    /// seeds, without mutating the venue — the full-recompute reference the
    /// incremental path is tested against (incremental ≡ full on dirty
    /// shards; clean shards are bitwise untouched by construction).
    pub fn recompute_all(&self) -> Vec<VenueSnapshot> {
        let shard_ids: Vec<usize> = (0..self.shards.num_shards()).collect();
        self.pipeline.compute_shards(
            &self.venue,
            &self.map,
            &self.shards,
            &self.topology,
            &shard_ids,
            None,
        )
    }

    /// The venue identifier.
    pub fn venue(&self) -> &str {
        &self.venue
    }

    /// The current survey map (original records plus every ingested log).
    pub fn map(&self) -> &RadioMap {
        &self.map
    }

    /// The shard partition (fixed centroids; membership grows with ingest).
    pub fn shards(&self) -> &VenueShards {
        &self.shards
    }

    /// The per-shard seeds, derived from the pipeline seed at the build's
    /// shard count, which ingest never changes, so every recompute replays
    /// the stream the build used.
    pub fn seeds(&self) -> Vec<u64> {
        let n = self.shards.num_shards();
        (0..n).map(|s| self.pipeline.shard_seed(n, s)).collect()
    }

    /// The current per-shard snapshots, in shard-id order.
    pub fn snapshots(&self) -> &[VenueSnapshot] {
        &self.snapshots
    }

    /// The venue update generation (1 after build, +1 per dirtying ingest).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-shard generations: the venue generation that last recomputed each
    /// shard. Clean shards keep their old generation across ingests.
    pub fn shard_generations(&self) -> &[u64] {
        &self.shard_generations
    }

    /// Packages the current state as a [`ShardedVenueSnapshot`] for
    /// publishing.
    pub fn sharded_snapshot(&self) -> ShardedVenueSnapshot {
        ShardedVenueSnapshot {
            venue: self.venue.clone(),
            snapshots: self.snapshots.clone(),
            shards: self.shards.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DifferentiatorKind, ImputerKind};
    use rm_geometry::Point;
    use rm_radiomap::Fingerprint;

    fn record(x: f64, y: f64, path_id: usize, time: f64) -> RadioMapRecord {
        RadioMapRecord::new(
            Fingerprint::new(vec![Some(-40.0 - x), Some(-40.0 - y), None]),
            Some(Point::new(x, y)),
            time,
            path_id,
        )
    }

    fn venue_map() -> RadioMap {
        let mut records = Vec::new();
        for p in 0..4 {
            let base_x = if p < 2 { 0.0 } else { 60.0 };
            for s in 0..5 {
                records.push(record(base_x + s as f64, p as f64, p, s as f64));
            }
        }
        RadioMap::new(records, 3)
    }

    fn config() -> PipelineConfig {
        PipelineConfig {
            imputer: ImputerKind::LinearInterpolation,
            differentiator: DifferentiatorKind::MarOnly,
            shards: Some(2),
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn build_computes_one_snapshot_per_shard() {
        let live = LiveVenue::build("v", venue_map(), MultiPolygon::empty(), config());
        assert_eq!(live.shards().num_shards(), 2);
        assert_eq!(live.snapshots().len(), 2);
        assert_eq!(live.generation(), 1);
        assert_eq!(live.shard_generations(), &[1, 1]);
        assert!(live.snapshots().iter().all(|s| !s.map.is_empty()));
    }

    #[test]
    fn ingest_dirties_only_the_touched_shard() {
        let mut live = LiveVenue::build("v", venue_map(), MultiPolygon::empty(), config());
        let clean_before = live.snapshots()[1].clone();
        // Path 0 lives in the left clump → shard 0.
        let dirty = live.ingest(&[record(2.0, 0.5, 0, 9.0)]);
        assert_eq!(dirty, vec![0]);
        assert_eq!(live.generation(), 2);
        assert_eq!(live.shard_generations(), &[2, 1]);
        // The clean shard is bitwise untouched.
        let clean_after = &live.snapshots()[1];
        assert_eq!(clean_after.map, clean_before.map);
        assert_eq!(clean_after.seed, clean_before.seed);
    }

    #[test]
    fn new_paths_route_by_nearest_centroid_and_unlocated_to_shard_zero() {
        let mut live = LiveVenue::build("v", venue_map(), MultiPolygon::empty(), config());
        // A brand-new path near the right clump routes to shard 1.
        let dirty = live.ingest(&[record(61.0, 2.0, 77, 0.0)]);
        assert_eq!(dirty, vec![1]);
        assert_eq!(live.shards().shard_of_path(77), Some(1));
        // Later records on the same path follow it without a location.
        let mut no_rp = record(0.0, 0.0, 77, 1.0);
        no_rp.rp = None;
        assert_eq!(live.ingest(&[no_rp]), vec![1]);
        // An unlocatable new path lands in shard 0.
        let mut orphan = record(0.0, 0.0, 78, 0.0);
        orphan.rp = None;
        assert_eq!(live.ingest(&[orphan]), vec![0]);
    }

    #[test]
    fn empty_log_is_a_noop() {
        let mut live = LiveVenue::build("v", venue_map(), MultiPolygon::empty(), config());
        assert!(live.ingest(&[]).is_empty());
        assert_eq!(live.generation(), 1);
    }

    #[test]
    fn incremental_equals_full_recompute() {
        let mut live = LiveVenue::build("v", venue_map(), MultiPolygon::empty(), config());
        live.ingest(&[record(1.0, 1.5, 1, 9.0), record(62.0, 3.5, 3, 9.0)]);
        let full = live.recompute_all();
        for (incremental, reference) in live.snapshots().iter().zip(&full) {
            assert_eq!(incremental.map, reference.map);
            assert_eq!(incremental.mask, reference.mask);
            assert_eq!(incremental.seed, reference.seed);
        }
    }
}
