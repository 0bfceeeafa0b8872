//! A loaded, immutable venue model: the unit the registry swaps and the
//! query engine estimates against. A venue loads one [`ShardModel`] per
//! spatial shard (a bare venue is one shard) and composes them into a
//! [`ShardedVenueModel`] whose answers match whole-venue estimation via an
//! exact best-first search over the shards.

use std::sync::Arc;

use radiomap_core::{ShardedVenueSnapshot, VenueSnapshot};
use rm_geometry::Point;
use rm_positioning::{
    knn_estimate, merge_candidates, wknn_estimate, EstimatorKind, Knn, KnnCandidate,
    LocationEstimator,
};
use rm_radiomap::{VenueShards, MNAR_FILL_VALUE};

/// The ranking core of one shard: KNN-family estimators keep the concrete
/// [`Knn`] so the venue model can merge their per-shard candidates exactly;
/// anything else serves through the trait object and answers shard-locally.
enum ShardEstimator {
    Knn(Knn),
    Wknn(Knn),
    Other(Box<dyn LocationEstimator>),
}

/// What one per-shard pass over a query learns: the routing key and the
/// lower bound on the distance to any of the shard's records.
struct ShardProbe {
    /// APs the query and the shard both cover.
    overlap: usize,
    /// Squared distance to the shard's signal centroid.
    centroid_sq: f64,
    /// Euclidean distance from the query to the shard's signal-space
    /// bounding box; `+∞` for an empty shard.
    bound: f64,
}

/// An immutable serving model for one spatial shard — the per-shard publish
/// unit. It is never mutated after construction: an incremental republish
/// swaps a single shard's `Arc` and leaves the clean shards' models (and
/// generations) untouched.
pub struct ShardModel {
    snapshot: VenueSnapshot,
    estimator: ShardEstimator,
    /// Global record index per shard-local row (the shard's sorted member
    /// list) — rewrites local candidate indices into the venue-wide space.
    global_indices: Vec<usize>,
    /// Per-AP coverage: `true` when any record in this shard hears the AP
    /// above the −100 dBm floor. Drives AP-overlap routing.
    ap_coverage: Vec<bool>,
    /// Mean fingerprint of the shard's records (the shard's signal
    /// centroid); routing tie-break for queries overlapping several shards
    /// equally.
    signal_centroid: Vec<f64>,
    /// Per-AP `(min, max)` over the shard's fingerprints: the signal-space
    /// bounding box the best-first search bounds distances with. An empty
    /// shard keeps `(+∞, −∞)`, which puts every query infinitely far away.
    signal_box: Vec<(f64, f64)>,
    generation: u64,
}

impl ShardModel {
    /// Builds the serving model for one shard under registry `generation`.
    /// `global_indices` is the shard's member list (shard-local row →
    /// global record index); `threads` bounds the estimator's training-time
    /// fan-out (`0` = auto; only the random forest trains), and the built
    /// model is bit-identical at any value. The snapshot's imputer weights
    /// are dropped: serving ranks from the map alone.
    pub fn load(
        mut snapshot: VenueSnapshot,
        global_indices: Vec<usize>,
        generation: u64,
        threads: usize,
    ) -> Self {
        assert_eq!(
            snapshot.map.len(),
            global_indices.len(),
            "shard member list does not match its snapshot"
        );
        snapshot.tensors = Vec::new();
        let estimator = match snapshot.estimator {
            EstimatorKind::Knn => {
                ShardEstimator::Knn(Knn::new(snapshot.map.clone(), snapshot.knn_k))
            }
            EstimatorKind::Wknn => {
                ShardEstimator::Wknn(Knn::new(snapshot.map.clone(), snapshot.knn_k))
            }
            other => ShardEstimator::Other(other.build_threads(
                snapshot.map.clone(),
                snapshot.knn_k,
                threads,
            )),
        };
        let num_aps = snapshot.map.num_aps();
        let mut ap_coverage = vec![false; num_aps];
        let mut signal_centroid = vec![0.0; num_aps];
        let mut signal_box = vec![(f64::INFINITY, f64::NEG_INFINITY); num_aps];
        for fingerprint in snapshot.map.fingerprints() {
            for (ap, &v) in fingerprint.iter().enumerate() {
                if v > MNAR_FILL_VALUE {
                    ap_coverage[ap] = true;
                }
                signal_centroid[ap] += v;
                let (lo, hi) = &mut signal_box[ap];
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        if !snapshot.map.is_empty() {
            let n = snapshot.map.len() as f64;
            for v in &mut signal_centroid {
                *v /= n;
            }
        }
        Self {
            snapshot,
            estimator,
            global_indices,
            ap_coverage,
            signal_centroid,
            signal_box,
            generation,
        }
    }

    /// The registry generation that published this shard.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shard's snapshot, without its imputer weights.
    pub fn snapshot(&self) -> &VenueSnapshot {
        &self.snapshot
    }

    /// Shard-local estimate (exactly the configured estimator over this
    /// shard's sub-map).
    pub fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        match &self.estimator {
            ShardEstimator::Knn(knn) => knn_estimate(&knn.candidates(fingerprint)),
            ShardEstimator::Wknn(knn) => wknn_estimate(&knn.candidates(fingerprint)),
            ShardEstimator::Other(e) => e.estimate(fingerprint),
        }
    }

    /// The neighbour count this shard ranks with, or `None` when the
    /// estimator has no KNN ranking core.
    fn ranking_k(&self) -> Option<usize> {
        match &self.estimator {
            ShardEstimator::Knn(knn) | ShardEstimator::Wknn(knn) => Some(knn.k()),
            ShardEstimator::Other(_) => None,
        }
    }

    /// This shard's top-`k` candidates with indices rewritten into the
    /// global record space, or `None` when the estimator has no KNN ranking
    /// core to merge. Merging every shard's list with
    /// [`merge_candidates`] is the exhaustive search that
    /// [`ShardedVenueModel::estimate`] prunes.
    pub fn global_candidates(&self, fingerprint: &[f64]) -> Option<Vec<KnnCandidate>> {
        let knn = match &self.estimator {
            ShardEstimator::Knn(knn) | ShardEstimator::Wknn(knn) => knn,
            ShardEstimator::Other(_) => return None,
        };
        Some(
            knn.candidates(fingerprint)
                .into_iter()
                .map(|c| KnnCandidate {
                    index: self.global_indices[c.index as usize] as u32,
                    ..c
                })
                .collect(),
        )
    }

    /// One pass over the query's APs: AP overlap with the shard's coverage,
    /// squared distance to its signal centroid, and the lower bound
    /// `sqrt(Σ gap²)`, where `gap` is the query's distance outside the
    /// shard's `[min, max]` on each AP. The bound is summed in AP order
    /// with the `(x − y)·(x − y)` terms of the exact distance (a left fold
    /// from `+0.0`, which equals `.sum()` over non-negative terms), so
    /// rounding never lifts it above the distance the shard reports for any
    /// of its records (see [`ShardedVenueModel`]).
    fn probe(&self, fingerprint: &[f64]) -> ShardProbe {
        let mut overlap = 0;
        let mut centroid_sq = 0.0;
        let mut bound_sq = 0.0;
        for (((&v, &covered), &c), &(lo, hi)) in fingerprint
            .iter()
            .zip(&self.ap_coverage)
            .zip(&self.signal_centroid)
            .zip(&self.signal_box)
        {
            if covered && v > MNAR_FILL_VALUE {
                overlap += 1;
            }
            centroid_sq += (v - c) * (v - c);
            // `clamp` by hand: an empty shard's box has `lo > hi`, which
            // makes the gap infinite instead of panicking.
            let nearest = v.max(lo).min(hi);
            bound_sq += (v - nearest) * (v - nearest);
        }
        ShardProbe {
            overlap,
            centroid_sq,
            bound: bound_sq.sqrt(),
        }
    }
}

/// One query answered by a [`ShardedVenueModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedAnswer {
    /// The estimated location (see [`ShardedVenueModel::estimate`]).
    pub position: Option<Point>,
    /// The primary shard the query routed to (see
    /// [`ShardedVenueModel::route`]).
    pub shard: usize,
    /// How many shards the search scanned: between 1 and the shard count
    /// for the KNN family (empty shards count when visited), 1 for an
    /// estimator answered by the primary shard alone.
    pub shards_scanned: usize,
}

/// A composed serving model for a sharded venue: one immutable
/// [`ShardModel`] per spatial shard plus the partition that produced them.
///
/// Queries are **routed** to a primary shard by AP overlap (the shard
/// hearing the most of the query's APs, ties broken by nearest signal
/// centroid, then lowest shard id) — that shard's generation stamps the
/// response.
///
/// For the KNN-family estimators the **answer** comes from a best-first
/// search over the shards (filter-and-refine with a lower-bounding
/// distance, as in GEMINI, Faloutsos et al., SIGMOD '94, visited by MINDIST
/// to a bounding box, as in Roussopoulos et al., SIGMOD '95). Every shard
/// keeps the per-AP `[min, max]` box of its fingerprints, and the query's
/// Euclidean distance to that box bounds its distance to every record in
/// the shard from below. Shards are visited in ascending `(bound, shard
/// id)` order; each visited shard's top-`k` candidates, with global record
/// indices, are merged into a running top-`k` (ascending exact distance,
/// ties by global index). The search stops once `k` candidates are held and
/// the next bound is **strictly greater** than the k-th exact distance.
///
/// The bound holds in floating point too, not only over the reals: for a
/// record value `x` inside `[lo, hi]`, `|x − q| ≥ |gap|`, and rounding is
/// monotone, so `fl(x − q)` is at least as far from zero as `fl(gap)`; the
/// squares, the in-order sum and the square root are monotone as well. So a
/// pruned shard's candidates all lie strictly beyond the final k-th
/// distance, and since tied bounds are still visited the index tie-break
/// is kept. The answer is therefore bit-identical to merging every shard's
/// candidates, without conditions. That merge in turn equals the
/// whole-venue estimator over the merged map, because every shard ranks its
/// records exactly. Non-ranking estimators (the forest) answer from the
/// primary shard alone.
pub struct ShardedVenueModel {
    venue: String,
    shards: VenueShards,
    models: Vec<Arc<ShardModel>>,
    /// Neighbour count of the cross-shard merge (the largest shard `k`), or
    /// `None` when some shard's estimator has no KNN ranking core.
    merge_k: Option<usize>,
    num_aps: usize,
}

impl ShardedVenueModel {
    /// Loads every shard of `snapshot`, stamping shard `i` with
    /// `generations[i]`.
    pub(crate) fn load(
        snapshot: ShardedVenueSnapshot,
        generations: &[u64],
        threads: usize,
    ) -> Self {
        let ShardedVenueSnapshot {
            venue,
            snapshots,
            shards,
        } = snapshot;
        assert_eq!(
            snapshots.len(),
            shards.num_shards(),
            "sharded snapshot is missing shards"
        );
        assert_eq!(snapshots.len(), generations.len());
        let models = snapshots
            .into_iter()
            .zip(generations)
            .enumerate()
            .map(|(shard, (snap, &generation))| {
                Arc::new(ShardModel::load(
                    snap,
                    shards.members_of(shard).to_vec(),
                    generation,
                    threads,
                ))
            })
            .collect();
        Self::compose(venue, shards, models)
    }

    fn compose(venue: String, shards: VenueShards, models: Vec<Arc<ShardModel>>) -> Self {
        let merge_k = models.iter().try_fold(1, |k, model| {
            model.ranking_k().map(|shard_k| k.max(shard_k))
        });
        let num_aps = models.first().map_or(0, |m| m.snapshot().map.num_aps());
        Self {
            venue,
            shards,
            models,
            merge_k,
            num_aps,
        }
    }

    /// Replaces one shard's model, leaving every other shard's `Arc` (and
    /// generation) untouched. The partition is replaced too — an incremental
    /// ingest may have appended records to the dirty shard's member list.
    pub(crate) fn with_shard(
        &self,
        shard: usize,
        model: Arc<ShardModel>,
        shards: VenueShards,
    ) -> Self {
        let mut models = self.models.clone();
        models[shard] = model;
        Self::compose(self.venue.clone(), shards, models)
    }

    /// The venue this model serves.
    pub fn venue(&self) -> &str {
        &self.venue
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.models.len()
    }

    /// Number of APs a query fingerprint must report.
    pub fn num_aps(&self) -> usize {
        self.num_aps
    }

    /// The partition this model serves under.
    pub fn shards(&self) -> &VenueShards {
        &self.shards
    }

    /// The shard models, in shard-id order.
    pub fn models(&self) -> &[Arc<ShardModel>] {
        &self.models
    }

    /// Per-shard generations, in shard-id order. After an incremental
    /// republish only the dirty shards' entries change.
    pub fn shard_generations(&self) -> Vec<u64> {
        self.models.iter().map(|m| m.generation()).collect()
    }

    /// The newest generation across shards — the venue's publish version.
    pub fn generation(&self) -> u64 {
        self.models
            .iter()
            .map(|m| m.generation())
            .max()
            .unwrap_or(0)
    }

    /// The primary shard for `fingerprint`: most APs in common, ties broken
    /// by nearest signal centroid, then lowest shard id.
    pub fn route(&self, fingerprint: &[f64]) -> usize {
        self.probe_all(fingerprint).0
    }

    /// Estimates the query's location (see the type docs for the best-first
    /// search and why it equals the exhaustive cross-shard merge).
    ///
    /// # Panics
    /// If `fingerprint.len() != self.num_aps()`; the query engine rejects
    /// such queries before they get here.
    pub fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        self.query(fingerprint).position
    }

    /// Routes and estimates in one pass over the shards, and reports how
    /// many shards the search scanned.
    ///
    /// # Panics
    /// As [`ShardedVenueModel::estimate`].
    pub fn query(&self, fingerprint: &[f64]) -> ShardedAnswer {
        let (primary, mut order) = self.probe_all(fingerprint);
        let Some(k) = self.merge_k else {
            // A non-ranking estimator: answer from the primary shard.
            return ShardedAnswer {
                position: self.models[primary].estimate(fingerprint),
                shard: primary,
                shards_scanned: 1,
            };
        };
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut held: Vec<KnnCandidate> = Vec::with_capacity(2 * k);
        let mut shards_scanned = 0;
        for &(bound, shard) in &order {
            if held.len() >= k && bound > held[k - 1].distance {
                break;
            }
            shards_scanned += 1;
            if let Some(candidates) = self.models[shard].global_candidates(fingerprint) {
                held.extend(candidates);
                held = merge_candidates(k, held);
            }
        }
        let position = match self.models.first().map(|m| m.snapshot().estimator) {
            Some(EstimatorKind::Wknn) => wknn_estimate(&held),
            _ => knn_estimate(&held),
        };
        ShardedAnswer {
            position,
            shard: primary,
            shards_scanned,
        }
    }

    /// Probes every shard: returns the primary shard and each shard's
    /// `(bound, shard id)`, in shard-id order.
    fn probe_all(&self, fingerprint: &[f64]) -> (usize, Vec<(f64, usize)>) {
        assert_eq!(
            fingerprint.len(),
            self.num_aps,
            "query arity mismatch: the venue has {} APs",
            self.num_aps
        );
        let mut primary = 0usize;
        let mut best_overlap = 0usize;
        let mut best_dist = f64::INFINITY;
        let mut bounds = Vec::with_capacity(self.models.len());
        for (shard, model) in self.models.iter().enumerate() {
            let probe = model.probe(fingerprint);
            if probe.overlap > best_overlap
                || (probe.overlap == best_overlap && probe.centroid_sq < best_dist)
            {
                primary = shard;
                best_overlap = probe.overlap;
                best_dist = probe.centroid_sq;
            }
            bounds.push((probe.bound, shard));
        }
        (primary, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radiomap_core::prelude::EstimatorKind;
    use radiomap_core::{Precision, SnapshotDtype};
    use rm_radiomap::{DenseRadioMap, MaskMatrix};

    fn snapshot() -> VenueSnapshot {
        VenueSnapshot {
            venue: "t".into(),
            map: DenseRadioMap::new(
                vec![vec![-50.0, -90.0], vec![-90.0, -50.0]],
                vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
                2,
            ),
            mask: MaskMatrix::all_observed(2, 2),
            estimator: EstimatorKind::Knn,
            knn_k: 1,
            seed: 7,
            precision: Precision::F64,
            snapshot_dtype: SnapshotDtype::Native,
            tensors: Vec::new(),
        }
    }

    #[test]
    fn load_builds_the_configured_estimator() {
        let model = ShardedVenueModel::load(ShardedVenueSnapshot::from(snapshot()), &[3], 1);
        assert_eq!(model.venue(), "t");
        assert_eq!(model.generation(), 3);
        assert_eq!(model.num_shards(), 1);
        assert_eq!(model.num_aps(), 2);
        assert_eq!(model.models()[0].snapshot().knn_k, 1);
        // 1-NN on an exact fingerprint returns its reference point.
        let p = model.estimate(&[-50.0, -90.0]).unwrap();
        assert_eq!((p.x, p.y), (0.0, 0.0));
    }

    /// The registry shares models across threads; the compiler must agree.
    #[test]
    fn sharded_venue_model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedVenueModel>();
    }
}
