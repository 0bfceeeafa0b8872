//! Online location estimation and accuracy metrics (Section II-A and V-A).
//!
//! Given an imputed (dense) radio map, the online phase estimates a device's
//! location from its observed fingerprint. Three estimators from the paper are
//! provided:
//!
//! * [`Knn`] — mean of the `k` nearest fingerprints' reference points,
//! * [`Wknn`] — inverse-distance-weighted mean (the paper's best performer),
//! * [`RandomForest`] — a bagged CART regression forest.
//!
//! The [`metrics`] module implements APE, MAE and the RP Euclidean-distance
//! error used by the evaluation figures, and [`evaluate_estimator`] runs the
//! standard train/test protocol.

pub mod forest;
pub mod knn;
pub mod metrics;

pub use forest::{ForestConfig, RandomForest};
pub use knn::{knn_estimate, merge_candidates, wknn_estimate, Knn, KnnCandidate, Wknn};
pub use metrics::{
    average_positioning_error, error_percentile, mean_absolute_error, mean_rp_distance,
    root_mean_square_error,
};

use rm_geometry::Point;
use rm_radiomap::DenseRadioMap;

/// A fingerprint-based location estimator built over an imputed radio map.
///
/// Estimation is read-only (`&self`) and estimators hold plain data, so the
/// trait requires `Send + Sync`: a single estimator is shared by all workers
/// of the parallel query fan-out in [`evaluate_estimator_threads`], and a
/// serving process moves whole models (estimator included) between threads
/// when hot-swapping its `Arc`-held registry (`rm-serve`).
pub trait LocationEstimator: Send + Sync {
    /// Estimates the location of a device reporting `fingerprint` (a dense
    /// RSSI vector over the same AP set as the radio map). Returns `None` when
    /// the estimator has no usable training data.
    fn estimate(&self, fingerprint: &[f64]) -> Option<Point>;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Which location-estimation algorithm to use; mirrors the three columns of
/// Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Plain K-nearest neighbours.
    Knn,
    /// Weighted K-nearest neighbours.
    Wknn,
    /// Random-forest regression.
    RandomForest,
}

impl EstimatorKind {
    /// All estimator kinds, in the order of Table VI.
    pub fn all() -> [EstimatorKind; 3] {
        [
            EstimatorKind::Knn,
            EstimatorKind::Wknn,
            EstimatorKind::RandomForest,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Knn => "KNN",
            EstimatorKind::Wknn => "WKNN",
            EstimatorKind::RandomForest => "RF",
        }
    }

    /// Builds the estimator of this kind over `map`. `k` is the neighbour
    /// count for the KNN variants (the forest ignores it). Forest training
    /// fans out at the default thread width; use [`EstimatorKind::build_threads`]
    /// to bound it.
    pub fn build(self, map: DenseRadioMap, k: usize) -> Box<dyn LocationEstimator> {
        self.build_threads(map, k, 0)
    }

    /// [`EstimatorKind::build`] with an explicit thread count for the
    /// training-time fan-out (`0` = auto, `1` = serial; only the forest
    /// trains). The built estimator is bit-identical at any value.
    pub fn build_threads(
        self,
        map: DenseRadioMap,
        k: usize,
        threads: usize,
    ) -> Box<dyn LocationEstimator> {
        match self {
            EstimatorKind::Knn => Box::new(Knn::new(map, k)),
            EstimatorKind::Wknn => Box::new(Wknn::new(map, k)),
            EstimatorKind::RandomForest => Box::new(RandomForest::train(
                &map,
                &ForestConfig {
                    threads,
                    ..ForestConfig::default()
                },
            )),
        }
    }
}

/// One online test query: the device's fingerprint and its ground-truth
/// location.
#[derive(Debug, Clone, PartialEq)]
pub struct TestQuery {
    /// Dense fingerprint of the query.
    pub fingerprint: Vec<f64>,
    /// Ground-truth location.
    pub location: Point,
}

/// Minimum number of queries before [`evaluate_estimator_threads`] fans out;
/// below this the spawn overhead outweighs the per-query work.
const PARALLEL_QUERY_THRESHOLD: usize = 32;

/// Runs an estimator over a set of test queries and returns the average
/// positioning error in metres, evaluating the queries in parallel with the
/// default thread count (`RM_THREADS` override, else available parallelism).
/// Queries the estimator declines (returns `None`) are skipped; returns
/// `None` if no query could be answered.
pub fn evaluate_estimator(estimator: &dyn LocationEstimator, queries: &[TestQuery]) -> Option<f64> {
    evaluate_estimator_threads(estimator, queries, 0)
}

/// [`evaluate_estimator`] with an explicit thread count (`0` = auto, `1` =
/// serial). Each query is estimated independently and the per-query results
/// are collected in input order before the APE reduction, so the returned
/// error is bit-identical at any thread count.
pub fn evaluate_estimator_threads(
    estimator: &dyn LocationEstimator,
    queries: &[TestQuery],
    threads: usize,
) -> Option<f64> {
    let threads = if queries.len() < PARALLEL_QUERY_THRESHOLD {
        1
    } else {
        threads
    };
    let estimates =
        rm_runtime::par_map(threads, queries, |_, q| estimator.estimate(&q.fingerprint));
    let mut answered = Vec::new();
    let mut truths = Vec::new();
    for (estimate, q) in estimates.into_iter().zip(queries.iter()) {
        if let Some(est) = estimate {
            answered.push(est);
            truths.push(q.location);
        }
    }
    average_positioning_error(&answered, &truths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> DenseRadioMap {
        DenseRadioMap::new(
            vec![vec![-50.0, -90.0], vec![-90.0, -50.0], vec![-70.0, -70.0]],
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(5.0, 5.0),
            ],
            2,
        )
    }

    #[test]
    fn estimator_kind_builds_all_three() {
        for kind in EstimatorKind::all() {
            let estimator = kind.build(map(), 2);
            assert_eq!(estimator.name(), kind.name());
            assert!(estimator.estimate(&[-55.0, -85.0]).is_some());
        }
    }

    #[test]
    fn evaluate_estimator_computes_ape() {
        let estimator = EstimatorKind::Knn.build(map(), 1);
        let queries = vec![
            TestQuery {
                fingerprint: vec![-50.0, -90.0],
                location: Point::new(0.0, 0.0),
            },
            TestQuery {
                fingerprint: vec![-90.0, -50.0],
                location: Point::new(10.0, 2.0),
            },
        ];
        // First query exact (error 0), second off by 2 m vertically.
        let ape = evaluate_estimator(estimator.as_ref(), &queries).unwrap();
        assert!((ape - 1.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_estimator_with_no_queries_is_none() {
        let estimator = EstimatorKind::Wknn.build(map(), 3);
        assert_eq!(evaluate_estimator(estimator.as_ref(), &[]), None);
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_serial() {
        let estimator = EstimatorKind::Wknn.build(map(), 2);
        // Enough queries to clear PARALLEL_QUERY_THRESHOLD.
        let queries: Vec<TestQuery> = (0..100)
            .map(|i| TestQuery {
                fingerprint: vec![-50.0 - (i % 37) as f64, -90.0 + (i % 23) as f64],
                location: Point::new(i as f64 * 0.1, (i % 7) as f64),
            })
            .collect();
        let serial = evaluate_estimator_threads(estimator.as_ref(), &queries, 1).unwrap();
        for threads in [2, 4, 0] {
            let parallel =
                evaluate_estimator_threads(estimator.as_ref(), &queries, threads).unwrap();
            assert_eq!(serial.to_bits(), parallel.to_bits());
        }
    }
}

/// Edge cases first written for the int8 quantizer that once ranked KNN
/// candidates: a constant map, the empty map and a query outside the map's
/// value range. Nothing is quantized any more; these pin the same inputs on
/// the exact scan of [`Knn::candidates`].
#[cfg(test)]
mod quant {
    mod tests {
        use crate::{Knn, LocationEstimator};
        use rm_geometry::Point;
        use rm_radiomap::DenseRadioMap;

        fn map(rows: Vec<Vec<f64>>) -> DenseRadioMap {
            let n = rows.first().map(Vec::len).unwrap_or(0);
            let locations = (0..rows.len()).map(|i| Point::new(i as f64, 0.0)).collect();
            DenseRadioMap::new(rows, locations, n)
        }

        fn ranked(knn: &Knn, query: &[f64]) -> Vec<(u64, u32)> {
            knn.candidates(query)
                .iter()
                .map(|c| (c.distance.to_bits(), c.index))
                .collect()
        }

        /// The int8 encoder clamped such a query to the map's range, which
        /// would put record 1 at distance 0. The exact scan measures both
        /// records at their true distance, so nothing saturates.
        #[test]
        fn query_values_outside_the_map_range_clamp() {
            let knn = Knn::new(map(vec![vec![-50.0, -90.0], vec![-40.0, -100.0]]), 2);
            assert_eq!(
                ranked(&knn, &[-30.0, -120.0]),
                vec![
                    (500.0f64.sqrt().to_bits(), 1),
                    (1300.0f64.sqrt().to_bits(), 0)
                ]
            );
        }

        /// A constant map is not degenerate: its own value scores every
        /// record at exactly zero, and any other query at one positive
        /// distance, with ties broken by index.
        #[test]
        fn constant_map_has_positive_scale_and_zero_distances() {
            let knn = Knn::new(map(vec![vec![-70.0, -70.0], vec![-70.0, -70.0]]), 2);
            assert_eq!(
                ranked(&knn, &[-70.0, -70.0]),
                vec![(0.0f64.to_bits(), 0), (0.0f64.to_bits(), 1)]
            );
            assert_eq!(
                ranked(&knn, &[-73.0, -74.0]),
                vec![(5.0f64.to_bits(), 0), (5.0f64.to_bits(), 1)]
            );
        }

        #[test]
        fn empty_map_scans_to_nothing() {
            let knn = Knn::new(map(vec![]), 3);
            assert!(knn.candidates(&[]).is_empty());
            assert!(knn.estimate(&[]).is_none());
        }
    }
}
