//! KNN and weighted-KNN location estimation.
//!
//! Every query scores every record exactly: [`Knn`] stores its fingerprints
//! AP-major, so one plain loop per AP adds `(q − x)²` into each record's
//! running sum. Each record's sum still runs in AP order, so its distance is
//! bitwise the row-wise Euclidean distance, and the top `k` are selected by
//! `(distance, index)` — the same order [`merge_candidates`] uses across
//! shards.

// rm-lint: hot-path

use std::cmp::Ordering;

use rm_geometry::Point;
use rm_radiomap::DenseRadioMap;

use crate::LocationEstimator;

/// One ranked KNN candidate: the exact f64 fingerprint distance, the record's
/// index within the ranking map, and its reference point. The index space is
/// the caller's map — shard-local for a per-shard scan; the sharded serving
/// layer rewrites it to the global record index before merging shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnCandidate {
    /// Exact f64 Euclidean distance between query and record fingerprint.
    pub distance: f64,
    /// Record index within the map the candidate was ranked against.
    pub index: u32,
    /// The record's reference point.
    pub location: Point,
}

/// Merges candidate lists from independent scans (e.g. one per spatial shard,
/// with indices rewritten to the global record space) into the overall top-`k`,
/// replicating the whole-map scan's order exactly: ascending exact distance,
/// ties broken by ascending index. Because each per-shard list holds that
/// shard's true top-`k`, the merged list equals the whole-map top-`k` — the
/// cross-shard re-rank that makes sharded serving answer like whole-venue
/// serving.
pub fn merge_candidates(k: usize, mut candidates: Vec<KnnCandidate>) -> Vec<KnnCandidate> {
    candidates.sort_by(|a, b| rank_order((a.distance, a.index), (b.distance, b.index)));
    candidates.truncate(k.max(1));
    candidates
}

/// The one ranking order, shared by the per-map scan and the cross-shard
/// merge: ascending distance, ties broken by ascending record index.
fn rank_order(a: (f64, u32), b: (f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Folds ranked neighbours into the unweighted KNN estimate (mean of the
/// reference points, in rank order). Extracted so the sharded serving path
/// applies bit-identical arithmetic to merged cross-shard candidates.
pub fn knn_estimate(neighbours: &[KnnCandidate]) -> Option<Point> {
    if neighbours.is_empty() {
        return None;
    }
    let sum = neighbours
        .iter()
        .fold(Point::origin(), |acc, c| acc + c.location);
    Some(sum / neighbours.len() as f64)
}

/// Folds ranked neighbours into the inverse-distance-weighted WKNN estimate,
/// in rank order (see [`knn_estimate`] for why this is a free function).
pub fn wknn_estimate(neighbours: &[KnnCandidate]) -> Option<Point> {
    if neighbours.is_empty() {
        return None;
    }
    let mut weight_sum = 0.0;
    let mut acc = Point::origin();
    for c in neighbours {
        let w = 1.0 / (c.distance + 1e-6);
        weight_sum += w;
        acc = acc + c.location * w;
    }
    Some(acc / weight_sum)
}

/// K-nearest-neighbour location estimation: the estimated location is the mean
/// of the reference points of the `k` radio-map fingerprints closest (in
/// Euclidean RSSI space) to the online fingerprint.
#[derive(Debug, Clone)]
pub struct Knn {
    /// Fingerprints AP-major: `by_ap[ap * len + record]`.
    by_ap: Vec<f64>,
    locations: Vec<Point>,
    k: usize,
}

impl Knn {
    /// Builds a KNN estimator over an imputed radio map, storing its
    /// fingerprints AP-major for the ranking scan. The paper uses `k = 3`
    /// for both KNN and WKNN-style estimators.
    ///
    /// # Panics
    /// If the map holds a non-finite fingerprint value.
    pub fn new(map: DenseRadioMap, k: usize) -> Self {
        let len = map.len();
        let mut by_ap = vec![0.0; len * map.num_aps()];
        for (record, row) in map.fingerprints().iter().enumerate() {
            for (ap, &v) in row.iter().enumerate() {
                assert!(v.is_finite(), "non-finite RSSI {v} in the radio map");
                by_ap[ap * len + record] = v;
            }
        }
        Self {
            by_ap,
            locations: map.locations().to_vec(),
            k: k.max(1),
        }
    }

    /// The neighbour count `k` this estimator ranks with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `k` nearest entries as ranked [`KnnCandidate`]s, sorted by
    /// increasing exact f64 distance, ties broken by record index.
    ///
    /// Every record is scored, so the result is the exact top-`k`, a pure
    /// function of `(map, fingerprint, k)`. Public so the sharded serving
    /// layer can merge per-shard candidates into a venue-wide top-`k`
    /// ([`merge_candidates`]).
    pub fn candidates(&self, fingerprint: &[f64]) -> Vec<KnnCandidate> {
        let len = self.locations.len();
        if len == 0 {
            return Vec::new();
        }
        assert_eq!(
            fingerprint.len() * len,
            self.by_ap.len(),
            "query arity mismatch"
        );
        let mut sq = vec![0.0f64; len];
        for (&q, column) in fingerprint.iter().zip(self.by_ap.chunks_exact(len)) {
            for (s, &x) in sq.iter_mut().zip(column) {
                let d = q - x;
                *s += d * d;
            }
        }
        let mut scored: Vec<(f64, u32)> = sq.into_iter().map(f64::sqrt).zip(0u32..).collect();
        if self.k < len {
            scored.select_nth_unstable_by(self.k - 1, |a, b| rank_order(*a, *b));
            scored.truncate(self.k);
        }
        scored.sort_by(|a, b| rank_order(*a, *b));
        scored
            .into_iter()
            .map(|(distance, index)| KnnCandidate {
                distance,
                index,
                location: self.locations[index as usize],
            })
            .collect()
    }
}

impl LocationEstimator for Knn {
    fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        knn_estimate(&self.candidates(fingerprint))
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

/// Weighted KNN: like [`Knn`] but the neighbours' reference points are averaged
/// with weights inversely proportional to their fingerprint distance.
#[derive(Debug, Clone)]
pub struct Wknn {
    knn: Knn,
}

impl Wknn {
    /// Builds a WKNN estimator over an imputed radio map.
    pub fn new(map: DenseRadioMap, k: usize) -> Self {
        Self {
            knn: Knn::new(map, k),
        }
    }

    /// The underlying ranking core (candidate generation is identical to
    /// [`Knn`]; only the fold differs).
    pub fn inner(&self) -> &Knn {
        &self.knn
    }
}

impl LocationEstimator for Wknn {
    fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        wknn_estimate(&self.knn.candidates(fingerprint))
    }

    fn name(&self) -> &'static str {
        "WKNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three fingerprints at distinct locations; fingerprints are orthogonal so
    /// the nearest neighbour is unambiguous.
    fn map() -> DenseRadioMap {
        DenseRadioMap::new(
            vec![
                vec![-50.0, -90.0, -90.0],
                vec![-90.0, -50.0, -90.0],
                vec![-90.0, -90.0, -50.0],
            ],
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(0.0, 10.0),
            ],
            3,
        )
    }

    #[test]
    fn knn_with_k1_returns_exact_match_location() {
        let knn = Knn::new(map(), 1);
        let est = knn.estimate(&[-50.0, -90.0, -90.0]).unwrap();
        assert_eq!(est, Point::new(0.0, 0.0));
        assert_eq!(knn.name(), "KNN");
    }

    #[test]
    fn knn_with_k3_returns_mean_of_all() {
        let knn = Knn::new(map(), 3);
        let est = knn.estimate(&[-70.0, -70.0, -70.0]).unwrap();
        assert!((est.x - 10.0 / 3.0).abs() < 1e-9);
        assert!((est.y - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn wknn_weights_towards_the_closest_fingerprint() {
        let wknn = Wknn::new(map(), 3);
        // A query close to fingerprint 0 but not identical.
        let est = wknn.estimate(&[-52.0, -88.0, -90.0]).unwrap();
        // The estimate must be pulled towards (0,0) compared to the unweighted mean.
        assert!(est.x < 10.0 / 3.0);
        assert!(est.y < 10.0 / 3.0);
        assert_eq!(wknn.name(), "WKNN");
    }

    #[test]
    fn wknn_exact_match_dominates() {
        let wknn = Wknn::new(map(), 3);
        let est = wknn.estimate(&[-90.0, -50.0, -90.0]).unwrap();
        assert!(est.distance(Point::new(10.0, 0.0)) < 0.1);
    }

    #[test]
    fn k_larger_than_map_uses_all_entries() {
        let knn = Knn::new(map(), 100);
        assert!(knn.estimate(&[-60.0, -60.0, -60.0]).is_some());
    }

    /// Splitting a map into two halves, taking per-half candidates with
    /// rewritten indices, and merging reproduces the whole-map ranking and
    /// both folds bitwise — the contract sharded serving relies on.
    #[test]
    fn merged_per_shard_candidates_equal_the_whole_map_scan() {
        let fingerprints: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![-50.0 - 3.0 * i as f64, -90.0 + 2.0 * i as f64, -70.0])
            .collect();
        let locations: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 2.0)).collect();
        let whole = Knn::new(
            DenseRadioMap::new(fingerprints.clone(), locations.clone(), 3),
            3,
        );
        // Interleaved "shards": evens and odds.
        let part = |parity: usize| -> (Knn, Vec<u32>) {
            let idx: Vec<usize> = (0..10).filter(|i| i % 2 == parity).collect();
            let knn = Knn::new(
                DenseRadioMap::new(
                    idx.iter().map(|&i| fingerprints[i].clone()).collect(),
                    idx.iter().map(|&i| locations[i]).collect(),
                    3,
                ),
                3,
            );
            (knn, idx.into_iter().map(|i| i as u32).collect())
        };
        let query = [-58.0, -85.0, -70.0];
        let mut pooled = Vec::new();
        for parity in 0..2 {
            let (knn, globals) = part(parity);
            pooled.extend(knn.candidates(&query).into_iter().map(|c| KnnCandidate {
                index: globals[c.index as usize],
                ..c
            }));
        }
        let merged = merge_candidates(3, pooled);
        let reference = whole.candidates(&query);
        assert_eq!(merged, reference);
        let ke = knn_estimate(&merged).unwrap();
        let we = wknn_estimate(&merged).unwrap();
        let kr = whole.estimate(&query).unwrap();
        assert_eq!(
            (ke.x.to_bits(), ke.y.to_bits()),
            (kr.x.to_bits(), kr.y.to_bits())
        );
        let wknn = Wknn::new(
            DenseRadioMap::new(fingerprints.clone(), locations.clone(), 3),
            3,
        );
        let wr = wknn.estimate(&query).unwrap();
        assert_eq!(
            (we.x.to_bits(), we.y.to_bits()),
            (wr.x.to_bits(), wr.y.to_bits())
        );
        assert_eq!(wknn.inner().k(), 3);
    }

    /// Ten records within 0.1 dB of each other on one AP, and the query
    /// itself stored as the last record: k = 1 must return that exact match,
    /// not a near neighbour that merely ties it at a coarser resolution.
    #[test]
    fn a_near_tie_still_returns_the_exact_match() {
        let mut fingerprints = vec![vec![-100.0, -100.0], vec![-40.0, -40.0]];
        fingerprints.extend((0..10).map(|j| vec![-69.95 + 0.01 * j as f64, -70.0]));
        fingerprints.push(vec![-69.855, -70.0]);
        let locations = (0..fingerprints.len())
            .map(|i| Point::new(i as f64, 0.0))
            .collect();
        let knn = Knn::new(DenseRadioMap::new(fingerprints, locations, 2), 1);
        let best = knn.candidates(&[-69.855, -70.0]);
        assert_eq!(best.len(), 1);
        assert_eq!((best[0].index, best[0].distance), (12, 0.0));
    }

    #[test]
    #[should_panic(expected = "non-finite RSSI")]
    fn a_non_finite_map_is_rejected_at_build() {
        let map = DenseRadioMap::new(vec![vec![-50.0, f64::NAN]], vec![Point::new(0.0, 0.0)], 2);
        let _ = Knn::new(map, 3);
    }

    #[test]
    fn empty_map_returns_none() {
        let empty = DenseRadioMap::new(vec![], vec![], 3);
        assert!(Knn::new(empty.clone(), 3)
            .estimate(&[-50.0, -50.0, -50.0])
            .is_none());
        assert!(Wknn::new(empty, 3)
            .estimate(&[-50.0, -50.0, -50.0])
            .is_none());
    }
}
