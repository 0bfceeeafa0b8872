//! Property-based tests for the exact KNN ranking path.

use proptest::prelude::*;
use rm_geometry::Point;
use rm_positioning::{knn_estimate, wknn_estimate, Knn, KnnCandidate, LocationEstimator, Wknn};
use rm_radiomap::DenseRadioMap;

/// SplitMix64-ish stream mapped into an RSSI-like range.
fn rssi_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        -100.0 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 60.0
    }
}

/// A map of `records` fingerprints drawn from `shape`: 0 = random rows,
/// 1 = random rows each stored twice, 2 = one constant value everywhere.
fn random_map(records: usize, num_aps: usize, shape: u8, seed: u64) -> DenseRadioMap {
    let mut next = rssi_stream(seed);
    let fingerprints: Vec<Vec<f64>> = match shape {
        0 => (0..records)
            .map(|_| (0..num_aps).map(|_| next()).collect())
            .collect(),
        1 => (0..records.div_ceil(2))
            .map(|_| (0..num_aps).map(|_| next()).collect::<Vec<f64>>())
            .flat_map(|row| [row.clone(), row])
            .take(records)
            .collect(),
        _ => vec![vec![next(); num_aps]; records],
    };
    let locations: Vec<Point> = (0..records)
        .map(|i| Point::new((i % 13) as f64, (i / 13) as f64))
        .collect();
    DenseRadioMap::new(fingerprints, locations, num_aps)
}

/// Brute force: every record's row-wise Euclidean distance, fully sorted by
/// `(distance, index)`, cut at `k`.
fn brute_force(map: &DenseRadioMap, query: &[f64], k: usize) -> Vec<KnnCandidate> {
    let mut all: Vec<KnnCandidate> = map
        .fingerprints()
        .iter()
        .zip(map.locations())
        .zip(0u32..)
        .map(|((row, &location), index)| KnnCandidate {
            distance: query
                .iter()
                .zip(row)
                .fold(0.0, |acc, (q, x)| acc + (q - x) * (q - x))
                .sqrt(),
            index,
            location,
        })
        .collect();
    all.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("finite distances")
            .then(a.index.cmp(&b.index))
    });
    all.truncate(k);
    all
}

fn bits(p: Option<Point>) -> Option<(u64, u64)> {
    p.map(|p| (p.x.to_bits(), p.y.to_bits()))
}

proptest! {
    /// `Knn::candidates` is the exact top-`k`: distance bits, index and
    /// location equal a brute-force sort by `(distance, index)`, and both
    /// estimators fold exactly those neighbours. Covers duplicate rows,
    /// constant maps, `k ≥ len`, the empty map and queries reaching outside
    /// the map's value range.
    #[test]
    fn knn_candidates_equal_a_brute_force_sort_bitwise(
        records in 0usize..60,
        num_aps in 1usize..40,
        k in 1usize..70,
        shape in 0u8..3,
        stretch in 1u8..4,
        seed in 0u64..500,
    ) {
        let map = random_map(records, num_aps, shape, seed);
        // Stretching by 2 or 3 spreads the query beyond the map's
        // [-100, -40] dB (up to [-160, 20] dB).
        let mut next = rssi_stream(seed ^ 0x9e3779b97f4a7c15);
        let query: Vec<f64> = (0..num_aps)
            .map(|_| (next() + 70.0) * f64::from(stretch) - 70.0)
            .collect();

        let knn = Knn::new(map.clone(), k);
        let got = knn.candidates(&query);
        let want = brute_force(&map, &query, k);
        prop_assert_eq!(got.len(), k.min(records));
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(
                (g.distance.to_bits(), g.index, g.location),
                (w.distance.to_bits(), w.index, w.location)
            );
        }
        prop_assert_eq!(bits(knn.estimate(&query)), bits(knn_estimate(&want)));
        prop_assert_eq!(
            bits(Wknn::new(map, k).estimate(&query)),
            bits(wknn_estimate(&want))
        );
    }

    /// The old quantized ranking allowed the i-th neighbour to exceed the
    /// true i-th smallest distance by a quantization slack. The scan is
    /// exact now, so the slack is zero: the i-th returned distance is the
    /// true i-th smallest, bit for bit.
    #[test]
    fn quantized_ranking_is_within_the_quantization_slack_of_exact(
        records in 1usize..60,
        num_aps in 1usize..40,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let map = random_map(records, num_aps, 0, seed);
        let mut next = rssi_stream(seed ^ 0x9e3779b97f4a7c15);
        let query: Vec<f64> = (0..num_aps).map(|_| next()).collect();

        let mut exact: Vec<f64> = brute_force(&map, &query, records)
            .iter()
            .map(|c| c.distance)
            .collect();
        exact.truncate(k);
        let selected: Vec<f64> = Knn::new(map, k)
            .candidates(&query)
            .iter()
            .map(|c| c.distance)
            .collect();
        prop_assert_eq!(selected.len(), exact.len());
        for (i, (d, e)) in selected.iter().zip(&exact).enumerate() {
            prop_assert!(d.to_bits() == e.to_bits(), "neighbour {i}: {d} vs exact {e}");
        }
    }

    /// The WKNN estimate equals one folded by hand from the exact top-k.
    /// The quantized ranking only guaranteed this when the k-th and
    /// (k+1)-th distances were separated by more than its slack; the exact
    /// scan needs no separation, so every case is checked.
    #[test]
    fn wknn_estimate_matches_exact_when_the_top_k_is_separated(
        records in 4usize..40,
        num_aps in 1usize..24,
        seed in 0u64..300,
    ) {
        let k = 3usize;
        let map = random_map(records, num_aps, 0, seed);
        let mut next = rssi_stream(seed ^ 0xdeadbeef);
        let query: Vec<f64> = (0..num_aps).map(|_| next()).collect();

        let estimate = Wknn::new(map.clone(), k)
            .estimate(&query)
            .expect("non-empty map");
        let mut weight_sum = 0.0;
        let mut acc = Point::origin();
        for c in brute_force(&map, &query, k) {
            let w = 1.0 / (c.distance + 1e-6);
            weight_sum += w;
            acc = acc + c.location * w;
        }
        let reference = acc / weight_sum;
        prop_assert!(
            estimate.distance(reference) < 1e-9,
            "WKNN estimate {estimate:?} drifted from exact reference {reference:?}"
        );
    }
}
