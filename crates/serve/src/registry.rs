//! The hot-swappable model registry: queries read an `Arc` snapshot of the
//! current model, publishers atomically replace it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use radiomap_core::{ShardedVenueSnapshot, VenueSnapshot};
use rm_radiomap::VenueShards;

use crate::model::{ShardModel, ShardedVenueModel};

/// A registry of live [`ShardedVenueModel`]s, one slot per venue, with
/// atomic-swap semantics:
///
/// * **No torn models.** A reader clones the venue's current
///   `Arc<ShardedVenueModel>` under a read lock and works against that
///   immutable model from then on; [`ModelRegistry::publish_sharded`] and
///   [`ModelRegistry::publish_shard`] build the replacement *outside* the
///   lock and swap the `Arc` in one write-locked assignment. Every query
///   therefore observes exactly one complete model — there is no
///   intermediate state to observe.
/// * **Monotonic generations.** Each shard model is stamped from a
///   process-wide counter, so any response can be attributed to exactly one
///   generation and swaps are totally ordered.
/// * **Prompt retirement.** The swapped-out `Arc` is returned to the
///   publisher; once the last in-flight batch drops its clone, the retired
///   model (radio maps, estimators) is freed — pinned by the
///   hot-reload stress test via a `Weak` upgrade.
///
/// A bare venue is published as a venue with one shard
/// (`ShardedVenueSnapshot::from`). Venue slots are kept sorted by name
/// (binary-searched, no unordered containers in the serving path).
#[derive(Default)]
pub struct ModelRegistry {
    /// Sorted by venue name. The swap unit is the composed venue `Arc`, but
    /// an incremental publish rebuilds only the dirty shard's
    /// [`ShardModel`] — the clean shards' `Arc`s (and generations) are
    /// carried over unchanged.
    models: RwLock<Vec<(String, Arc<ShardedVenueModel>)>>,
    /// Monotonic generation source; the first shard published is
    /// generation 1.
    generations: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds one [`ShardModel`] per shard of `snapshot` and publishes the
    /// composed [`ShardedVenueModel`] under the snapshot's venue name,
    /// replacing any current model for that venue. Every shard gets its own
    /// generation stamp (in shard-id order). Returns the retired venue model
    /// (`None` on first publish), whose memory is freed once the last
    /// in-flight reader drops its `Arc`.
    ///
    /// The expensive part — estimator construction — happens before the
    /// write lock is taken, so concurrent readers are only blocked for the
    /// duration of one pointer swap.
    pub fn publish_sharded(
        &self,
        snapshot: ShardedVenueSnapshot,
        threads: usize,
    ) -> Option<Arc<ShardedVenueModel>> {
        let generations: Vec<u64> = (0..snapshot.snapshots.len())
            .map(|_| self.generations.fetch_add(1, Ordering::Relaxed) + 1)
            .collect();
        let model = Arc::new(ShardedVenueModel::load(snapshot, &generations, threads));
        let venue = model.venue().to_string();
        let mut slots = self.models.write().expect("registry lock poisoned");
        match slots.binary_search_by(|(name, _)| name.as_str().cmp(&venue)) {
            Ok(i) => Some(std::mem::replace(&mut slots[i].1, model)),
            Err(i) => {
                slots.insert(i, (venue, model));
                None
            }
        }
    }

    /// Incrementally republishes **one** shard of an already-published
    /// sharded venue: builds the replacement [`ShardModel`] from
    /// `snapshot` (stamped with a fresh generation), carries every clean
    /// shard's `Arc` over untouched, and swaps the composed venue model.
    /// `shards` is the venue's current partition — ingest may have appended
    /// records, so the dirty shard's member list (and the routing centroids)
    /// ride along with the republish. Returns the retired shard model.
    ///
    /// # Panics
    /// Panics when the venue was never published or `shard` is out
    /// of range — republishing into the void is a deployment error.
    pub fn publish_shard(
        &self,
        venue: &str,
        shard: usize,
        snapshot: VenueSnapshot,
        shards: &VenueShards,
        threads: usize,
    ) -> Arc<ShardModel> {
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        // The expensive part — estimator construction — happens before the
        // lock; under the lock only the cheap slot-vector compose runs, and
        // it composes against whatever is current *at swap time*, so a
        // concurrent publish of another shard is never discarded.
        let replacement = Arc::new(ShardModel::load(
            snapshot,
            shards.members_of(shard).to_vec(),
            generation,
            threads,
        ));
        let mut slots = self.models.write().expect("registry lock poisoned");
        match slots.binary_search_by(|(name, _)| name.as_str().cmp(venue)) {
            Ok(i) => {
                let composed = Arc::new(slots[i].1.with_shard(shard, replacement, shards.clone()));
                let retired = std::mem::replace(&mut slots[i].1, composed);
                Arc::clone(&retired.models()[shard])
            }
            Err(_) => panic!("no sharded model published for venue `{venue}`"),
        }
    }

    /// The current model for `venue`, or `None` if nothing was published
    /// under that name. The returned `Arc` stays valid (and immutable) across
    /// any number of concurrent publishes — it just stops being current.
    pub fn sharded_model(&self, venue: &str) -> Option<Arc<ShardedVenueModel>> {
        let slots = self.models.read().expect("registry lock poisoned");
        slots
            .binary_search_by(|(name, _)| name.as_str().cmp(venue))
            .ok()
            .map(|i| Arc::clone(&slots[i].1))
    }

    /// The highest generation published so far (0 = none).
    pub fn generation(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Venue names currently served, in sorted order.
    pub fn venues(&self) -> Vec<String> {
        self.models
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radiomap_core::prelude::EstimatorKind;
    use rm_geometry::Point;
    use rm_radiomap::{DenseRadioMap, MaskMatrix};
    use rm_tensor::{Precision, SnapshotDtype};

    fn snapshot(venue: &str, x: f64) -> VenueSnapshot {
        VenueSnapshot {
            venue: venue.into(),
            map: DenseRadioMap::new(vec![vec![-50.0]], vec![Point::new(x, 0.0)], 1),
            mask: MaskMatrix::all_observed(1, 1),
            estimator: EstimatorKind::Knn,
            knn_k: 1,
            seed: 0,
            precision: Precision::F64,
            snapshot_dtype: SnapshotDtype::Native,
            tensors: Vec::new(),
        }
    }

    fn publish_venue(
        registry: &ModelRegistry,
        venue: &str,
        x: f64,
    ) -> Option<Arc<ShardedVenueModel>> {
        registry.publish_sharded(snapshot(venue, x).into(), 1)
    }

    #[test]
    fn publish_and_lookup_by_venue() {
        let registry = ModelRegistry::new();
        assert_eq!(registry.generation(), 0);
        assert!(registry.sharded_model("a").is_none());
        assert!(publish_venue(&registry, "b", 1.0).is_none());
        assert!(publish_venue(&registry, "a", 2.0).is_none());
        assert_eq!(registry.venues(), ["a", "b"]);
        assert_eq!(registry.sharded_model("a").unwrap().generation(), 2);
        assert_eq!(registry.sharded_model("b").unwrap().generation(), 1);
        assert_eq!(registry.generation(), 2);
    }

    #[test]
    fn venues_lists_each_published_venue_once() {
        let registry = ModelRegistry::new();
        assert!(registry.venues().is_empty());
        publish_venue(&registry, "c", 1.0);
        assert_eq!(registry.venues(), ["c"]);
        publish_venue(&registry, "b", 1.0);
        publish_venue(&registry, "a", 1.0);
        // Republished: still listed once.
        publish_venue(&registry, "c", 2.0);
        assert_eq!(registry.venues(), ["a", "b", "c"]);
    }

    #[test]
    fn republish_swaps_and_returns_the_retired_model() {
        let registry = ModelRegistry::new();
        publish_venue(&registry, "v", 1.0);
        let held = registry.sharded_model("v").unwrap();
        let retired = publish_venue(&registry, "v", 9.0).unwrap();
        assert_eq!(retired.generation(), 1);
        // The held Arc still answers from generation 1 — immutable, not torn.
        assert_eq!(held.generation(), 1);
        assert_eq!(held.estimate(&[-50.0]).unwrap().x, 1.0);
        // The current model is the new generation.
        let current = registry.sharded_model("v").unwrap();
        assert_eq!(current.generation(), 2);
        assert_eq!(current.estimate(&[-50.0]).unwrap().x, 9.0);
    }

    #[test]
    fn retired_models_are_freed_when_the_last_reader_drops() {
        let registry = ModelRegistry::new();
        publish_venue(&registry, "v", 1.0);
        let weak = Arc::downgrade(&registry.sharded_model("v").unwrap());
        assert!(weak.upgrade().is_some());
        let retired = publish_venue(&registry, "v", 2.0).unwrap();
        assert!(weak.upgrade().is_some(), "retired model still held");
        drop(retired);
        assert!(
            weak.upgrade().is_none(),
            "retired generation must be freed once unreferenced"
        );
    }
}
