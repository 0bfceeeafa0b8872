//! Deterministic spatial sharding of a venue's radio map.
//!
//! A shard is a spatially-coherent subset of survey **paths** (never a split
//! path: sequence imputers consume whole paths). Sharding is a pure function
//! of `(map, num_shards, seed)`:
//!
//! 1. every path gets a centroid — the mean of its (interpolated) reference
//!    points,
//! 2. the path centroids are clustered with seeded k-means
//!    ([`rm_clustering::kmeans()`], deterministic given its RNG),
//! 3. cluster labels are **relabelled** into stable shard ids by sorting the
//!    cluster centroids (x, then y, then lowest member path), so shard `0`
//!    is always the spatially-least cluster no matter what internal labels
//!    k-means produced.
//!
//! Paths with no observed reference point anywhere cannot be placed
//! spatially and are assigned to shard `0` (documented, deterministic).
//! The resulting [`VenueShards`] is a *partition*: every record belongs to
//! exactly one shard, and per-shard member lists are sorted ascending so
//! local record order preserves the global collection order.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_clustering::{kmeans, KMeansConfig};
use rm_geometry::Point;

use crate::mask::MaskMatrix;
use crate::radiomap::RadioMap;

/// A deterministic partition of a radio map's records into spatial shards.
#[derive(Debug, Clone, PartialEq)]
pub struct VenueShards {
    /// Shard id per record, parallel to `map.records()`.
    assignments: Vec<usize>,
    /// Record indices per shard, each sorted ascending.
    members: Vec<Vec<usize>>,
    /// Spatial centroid per shard (mean of the member paths' centroids).
    centroids: Vec<Point>,
    /// `(path_id, shard)` pairs sorted by path id, for ingest routing.
    path_shards: Vec<(usize, usize)>,
}

impl VenueShards {
    /// Partitions `map` into at most `num_shards` spatial shards.
    ///
    /// The result is a pure function of `(map, num_shards, seed)` — no
    /// thread-count or wall-clock dependence — and always a permutation:
    /// every record lands in exactly one shard. Fewer shards than requested
    /// are produced when the map has fewer located paths than `num_shards`.
    /// `num_shards <= 1` (or an empty map) yields the single trivial shard.
    pub fn compute(map: &RadioMap, num_shards: usize, seed: u64) -> Self {
        let paths = map.path_record_indices();
        if num_shards <= 1 || map.is_empty() || paths.len() <= 1 {
            return Self::single(map);
        }

        let interpolated = map.interpolate_rps();
        // Centroid per path: mean of its interpolated RPs, if any.
        let path_ids: Vec<usize> = paths.iter().map(|p| map.record(p[0]).path_id).collect();
        let mut located: Vec<usize> = Vec::new(); // indices into `paths`
        let mut samples: Vec<Vec<f64>> = Vec::new();
        for (pi, path) in paths.iter().enumerate() {
            let points: Vec<Point> = path.iter().filter_map(|&i| interpolated[i]).collect();
            if points.is_empty() {
                continue;
            }
            let n = points.len() as f64;
            let (sx, sy) = points
                .iter()
                .fold((0.0, 0.0), |(ax, ay), p| (ax + p.x, ay + p.y));
            located.push(pi);
            samples.push(vec![sx / n, sy / n]);
        }
        if located.len() <= 1 {
            return Self::single(map);
        }

        let k = num_shards.min(located.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let clustering = kmeans(&samples, &KMeansConfig::new(k), &mut rng);

        // Relabel cluster ids into stable shard ids by sorted centroid order
        // (x, then y, then the lowest member path as a total tie-break).
        let mut order: Vec<usize> = (0..clustering.num_clusters()).collect();
        let key = |c: usize| -> (f64, f64, usize) {
            let centroid = &clustering.centroids()[c];
            let first_member = clustering
                .assignments()
                .iter()
                .position(|&a| a == c)
                .unwrap_or(usize::MAX);
            (centroid[0], centroid[1], first_member)
        };
        order.sort_by(|&a, &b| {
            let (ax, ay, am) = key(a);
            let (bx, by, bm) = key(b);
            ax.total_cmp(&bx).then(ay.total_cmp(&by)).then(am.cmp(&bm))
        });
        // relabel[old cluster id] = stable shard id.
        let mut relabel = vec![0usize; clustering.num_clusters()];
        for (shard, &cluster) in order.iter().enumerate() {
            relabel[cluster] = shard;
        }

        // Shard per path (in `paths` order); unlocated paths go to shard 0.
        let mut shard_of_path = vec![0usize; paths.len()];
        for (si, &pi) in located.iter().enumerate() {
            shard_of_path[pi] = relabel[clustering.assignments()[si]];
        }

        let num = clustering.num_clusters();
        let mut assignments = vec![0usize; map.len()];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num];
        for (pi, path) in paths.iter().enumerate() {
            for &record in path {
                assignments[record] = shard_of_path[pi];
            }
        }
        for (record, &shard) in assignments.iter().enumerate() {
            members[shard].push(record);
        }

        let mut centroids = vec![Point::origin(); num];
        for (shard, &cluster) in order.iter().enumerate() {
            let c = &clustering.centroids()[cluster];
            centroids[shard] = Point::new(c[0], c[1]);
        }

        let mut path_shards: Vec<(usize, usize)> = path_ids
            .iter()
            .zip(&shard_of_path)
            .map(|(&id, &shard)| (id, shard))
            .collect();
        path_shards.sort_unstable();

        Self {
            assignments,
            members,
            centroids,
            path_shards,
        }
    }

    /// The trivial single-shard partition: everything in shard 0.
    pub fn single(map: &RadioMap) -> Self {
        let interpolated = map.interpolate_rps();
        let points: Vec<Point> = interpolated.iter().flatten().copied().collect();
        let centroid = if points.is_empty() {
            Point::origin()
        } else {
            let n = points.len() as f64;
            let (sx, sy) = points
                .iter()
                .fold((0.0, 0.0), |(ax, ay), p| (ax + p.x, ay + p.y));
            Point::new(sx / n, sy / n)
        };
        let mut path_shards: Vec<(usize, usize)> = map
            .path_record_indices()
            .iter()
            .map(|p| (map.record(p[0]).path_id, 0))
            .collect();
        path_shards.sort_unstable();
        Self {
            assignments: vec![0; map.len()],
            members: vec![(0..map.len()).collect()],
            centroids: vec![centroid],
            path_shards,
        }
    }

    /// Reassembles a partition from its serialized parts (the sharded
    /// serving artifact stores exactly these): shard id per record, one
    /// centroid per shard, and the `(path_id, shard)` routing pairs. Member
    /// lists are re-derived from `assignments`. Returns `None` — never
    /// panics — when the parts are inconsistent: no shards, an assignment or
    /// routing pair referencing a shard that doesn't exist.
    pub fn from_parts(
        assignments: Vec<usize>,
        centroids: Vec<Point>,
        mut path_shards: Vec<(usize, usize)>,
    ) -> Option<Self> {
        let num = centroids.len();
        if num == 0 {
            return None;
        }
        if assignments.iter().any(|&s| s >= num) || path_shards.iter().any(|&(_, s)| s >= num) {
            return None;
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num];
        for (record, &shard) in assignments.iter().enumerate() {
            members[shard].push(record);
        }
        path_shards.sort_unstable();
        Some(Self {
            assignments,
            members,
            centroids,
            path_shards,
        })
    }

    /// The `(path_id, shard)` routing pairs, sorted by path id (the
    /// serialized form consumed by [`VenueShards::from_parts`]).
    pub fn path_shards(&self) -> &[(usize, usize)] {
        &self.path_shards
    }

    /// Number of shards (≥ 1 for any non-degenerate map).
    pub fn num_shards(&self) -> usize {
        self.members.len()
    }

    /// Shard id per record, parallel to the map's records.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Record indices per shard, each sorted ascending.
    pub fn members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// The record indices of `shard`, sorted ascending.
    pub fn members_of(&self, shard: usize) -> &[usize] {
        &self.members[shard]
    }

    /// The spatial centroid of `shard`.
    pub fn centroids(&self) -> &[Point] {
        &self.centroids
    }

    /// The shard a record belongs to.
    pub fn shard_of_record(&self, record: usize) -> usize {
        self.assignments[record]
    }

    /// The shard that owns survey path `path_id`, if that path existed when
    /// the partition was computed.
    pub fn shard_of_path(&self, path_id: usize) -> Option<usize> {
        self.path_shards
            .binary_search_by_key(&path_id, |&(id, _)| id)
            .ok()
            .map(|i| self.path_shards[i].1)
    }

    /// The shard whose centroid is nearest to `point` (lowest id on ties) —
    /// the ingest route for records on previously-unseen paths.
    pub fn nearest_shard(&self, point: Point) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (shard, c) in self.centroids.iter().enumerate() {
            let d = (c.x - point.x).powi(2) + (c.y - point.y).powi(2);
            if d < best_d {
                best_d = d;
                best = shard;
            }
        }
        best
    }

    /// Extracts one shard's sub-map; records keep their relative
    /// (collection) order, so paths remain contiguous sequences.
    ///
    /// # Panics
    /// Panics if `map` is not the map this partition was computed over
    /// (record-count mismatch).
    pub fn submap(&self, map: &RadioMap, shard: usize) -> RadioMap {
        assert_eq!(
            map.len(),
            self.assignments.len(),
            "shard partition does not match this map"
        );
        let records = self.members[shard]
            .iter()
            .map(|&i| map.record(i).clone())
            .collect();
        RadioMap::new(records, map.num_aps())
    }

    /// Splits `map` into one sub-map per shard (see [`VenueShards::submap`]).
    pub fn split(&self, map: &RadioMap) -> Vec<RadioMap> {
        (0..self.num_shards())
            .map(|shard| self.submap(map, shard))
            .collect()
    }

    /// Appends a freshly-ingested record to `shard`. New records are always
    /// appended at the end of the map, so member lists stay sorted.
    ///
    /// # Panics
    /// Panics unless `record_index` is exactly the next record index (the
    /// ingest path appends to the map and the partition in lockstep).
    pub fn push_record(&mut self, record_index: usize, shard: usize) {
        assert_eq!(
            record_index,
            self.assignments.len(),
            "ingested records must be appended in order"
        );
        assert!(shard < self.num_shards(), "shard {shard} out of range");
        self.assignments.push(shard);
        self.members[shard].push(record_index);
    }

    /// Remembers that survey path `path_id` belongs to `shard`, so later
    /// records on the same path route to the same shard. A no-op when the
    /// path is already registered (the original assignment wins).
    pub fn register_path(&mut self, path_id: usize, shard: usize) {
        if let Err(i) = self
            .path_shards
            .binary_search_by_key(&path_id, |&(id, _)| id)
        {
            self.path_shards.insert(i, (path_id, shard));
        }
    }

    /// Reassembles per-shard mask matrices into one venue-wide mask in
    /// global record order.
    ///
    /// # Panics
    /// Panics on any per-shard shape mismatch.
    pub fn merge_masks(&self, per_shard: &[MaskMatrix], num_aps: usize) -> MaskMatrix {
        assert_eq!(per_shard.len(), self.num_shards(), "shard count mismatch");
        let mut mask = MaskMatrix::all_observed(self.assignments.len(), num_aps);
        for (shard, shard_mask) in per_shard.iter().enumerate() {
            let members = &self.members[shard];
            assert_eq!(
                shard_mask.rows(),
                members.len(),
                "shard {shard} mask row mismatch"
            );
            assert_eq!(
                shard_mask.cols(),
                num_aps,
                "shard {shard} mask col mismatch"
            );
            for (local, &record) in members.iter().enumerate() {
                for ap in 0..num_aps {
                    mask.set(record, ap, shard_mask.get(local, ap));
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use crate::radiomap::RadioMapRecord;

    fn record(x: f64, y: f64, path_id: usize, time: f64) -> RadioMapRecord {
        RadioMapRecord::new(
            Fingerprint::new(vec![Some(-60.0), Some(-70.0)]),
            Some(Point::new(x, y)),
            time,
            path_id,
        )
    }

    /// Two spatial clumps of paths, far apart.
    fn two_clump_map() -> RadioMap {
        let mut records = Vec::new();
        for p in 0..3 {
            for s in 0..4 {
                records.push(record(s as f64, p as f64, p, s as f64));
            }
        }
        for p in 3..6 {
            for s in 0..4 {
                records.push(record(100.0 + s as f64, p as f64, p, s as f64));
            }
        }
        RadioMap::new(records, 2)
    }

    #[test]
    fn sharding_is_a_partition_with_sorted_members() {
        let map = two_clump_map();
        let shards = VenueShards::compute(&map, 2, 7);
        assert_eq!(shards.num_shards(), 2);
        let mut seen = vec![false; map.len()];
        for shard in 0..shards.num_shards() {
            let members = shards.members_of(shard);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "unsorted members");
            for &i in members {
                assert!(!seen[i], "record {i} in two shards");
                seen[i] = true;
                assert_eq!(shards.shard_of_record(i), shard);
            }
        }
        assert!(seen.iter().all(|&s| s), "record missing from every shard");
    }

    #[test]
    fn clumps_land_in_different_shards_with_stable_ids() {
        let map = two_clump_map();
        let shards = VenueShards::compute(&map, 2, 7);
        // Stable relabelling: shard 0 is the spatially-least (x≈1.5) clump.
        assert_eq!(shards.shard_of_record(0), 0);
        assert_eq!(shards.shard_of_record(map.len() - 1), 1);
        assert!(shards.centroids()[0].x < shards.centroids()[1].x);
        // Whole paths stay together.
        for shard in 0..2 {
            for &i in shards.members_of(shard) {
                let path = map.record(i).path_id;
                assert_eq!(shards.shard_of_path(path), Some(shard));
            }
        }
    }

    #[test]
    fn sharding_is_deterministic_and_seed_sensitive_only_through_kmeans() {
        let map = two_clump_map();
        let a = VenueShards::compute(&map, 2, 7);
        let b = VenueShards::compute(&map, 2, 7);
        assert_eq!(a, b);
        // A different seed may pick different k-means starts, but the
        // relabelled partition of two well-separated clumps is identical.
        let c = VenueShards::compute(&map, 2, 1234);
        assert_eq!(a.assignments(), c.assignments());
    }

    #[test]
    fn single_shard_and_degenerate_requests_collapse_to_one() {
        let map = two_clump_map();
        for shards in [
            VenueShards::compute(&map, 1, 7),
            VenueShards::compute(&map, 0, 7),
            VenueShards::single(&map),
        ] {
            assert_eq!(shards.num_shards(), 1);
            assert_eq!(shards.members_of(0).len(), map.len());
        }
    }

    #[test]
    fn unlocated_paths_fall_back_to_shard_zero() {
        let mut map = two_clump_map();
        map.push(RadioMapRecord::new(Fingerprint::empty(2), None, 0.0, 9));
        map.push(RadioMapRecord::new(Fingerprint::empty(2), None, 1.0, 9));
        let shards = VenueShards::compute(&map, 2, 7);
        assert_eq!(shards.shard_of_path(9), Some(0));
        assert_eq!(shards.shard_of_record(map.len() - 1), 0);
    }

    #[test]
    fn more_shards_than_paths_caps_at_path_count() {
        let map = two_clump_map(); // 6 located paths
        let shards = VenueShards::compute(&map, 64, 7);
        assert!(shards.num_shards() <= 6);
        assert!(shards.num_shards() >= 2);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_inconsistency() {
        let map = two_clump_map();
        let shards = VenueShards::compute(&map, 2, 7);
        let rebuilt = VenueShards::from_parts(
            shards.assignments().to_vec(),
            shards.centroids().to_vec(),
            shards.path_shards().to_vec(),
        )
        .expect("consistent parts");
        assert_eq!(rebuilt, shards);
        assert!(VenueShards::from_parts(vec![0], Vec::new(), Vec::new()).is_none());
        assert!(
            VenueShards::from_parts(vec![5], vec![Point::origin()], Vec::new()).is_none(),
            "assignment to a nonexistent shard must be rejected"
        );
        assert!(
            VenueShards::from_parts(vec![0], vec![Point::origin()], vec![(0, 9)]).is_none(),
            "routing to a nonexistent shard must be rejected"
        );
    }

    #[test]
    fn nearest_shard_routes_by_centroid() {
        let map = two_clump_map();
        let shards = VenueShards::compute(&map, 2, 7);
        assert_eq!(shards.nearest_shard(Point::new(0.0, 0.0)), 0);
        assert_eq!(shards.nearest_shard(Point::new(100.0, 2.0)), 1);
    }

    #[test]
    fn split_preserves_order_and_merge_restores_it() {
        let map = two_clump_map();
        let shards = VenueShards::compute(&map, 2, 7);
        let parts = shards.split(&map);
        assert_eq!(parts.len(), 2);
        assert_eq!(
            parts.iter().map(RadioMap::len).sum::<usize>(),
            map.len(),
            "split must not lose records"
        );
        for (shard, part) in parts.iter().enumerate() {
            for (local, &global) in shards.members_of(shard).iter().enumerate() {
                assert_eq!(part.record(local), map.record(global));
            }
        }
        // Mask round-trip through split/merge.
        let masks: Vec<MaskMatrix> = (0..2)
            .map(|shard| {
                let mut m = MaskMatrix::all_observed(shards.members_of(shard).len(), 2);
                if shard == 1 {
                    m.set(0, 1, crate::mask::EntryKind::Mar);
                }
                m
            })
            .collect();
        let merged = shards.merge_masks(&masks, 2);
        let first_of_shard1 = shards.members_of(1)[0];
        assert_eq!(merged.get(first_of_shard1, 1), crate::mask::EntryKind::Mar);
        assert_eq!(merged.get(0, 0), crate::mask::EntryKind::Observed);
    }
}
