//! Benchmarks of the online location-estimation algorithms.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rm_geometry::Point;
use rm_positioning::{ForestConfig, Knn, LocationEstimator, RandomForest, Wknn};
use rm_radiomap::DenseRadioMap;

fn synthetic_dense_map(n: usize, d: usize) -> DenseRadioMap {
    let mut rng = StdRng::seed_from_u64(11);
    let fingerprints = (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-100.0..-40.0)).collect())
        .collect();
    let locations = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..40.0)))
        .collect();
    DenseRadioMap::new(fingerprints, locations, d)
}

fn bench_estimators(c: &mut Criterion) {
    let map = synthetic_dense_map(500, 60);
    let query: Vec<f64> = (0..60).map(|i| -60.0 - i as f64 * 0.3).collect();

    let knn = Knn::new(map.clone(), 3);
    c.bench_function("knn_query_500x60", |b| {
        b.iter(|| std::hint::black_box(knn.estimate(&query)))
    });
    let wknn = Wknn::new(map.clone(), 3);
    c.bench_function("wknn_query_500x60", |b| {
        b.iter(|| std::hint::black_box(wknn.estimate(&query)))
    });
    let forest = RandomForest::train(&map, &ForestConfig::default());
    c.bench_function("random_forest_query_500x60", |b| {
        b.iter(|| std::hint::black_box(forest.estimate(&query)))
    });
}

fn bench_forest_training(c: &mut Criterion) {
    let map = synthetic_dense_map(300, 40);
    c.bench_function("random_forest_train_300x40", |b| {
        b.iter(|| std::hint::black_box(RandomForest::train(&map, &ForestConfig::default())))
    });
}

criterion_group!(positioning, bench_estimators, bench_forest_training);
criterion_main!(positioning);
