//! Criterion benches for the from-scratch learners (fit + predict).
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfheal_learn::{AdaBoost, Classifier, Dataset, Example, KMeans, NearestNeighbor};

fn blobs(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers = [(0.0, 0.0), (6.0, 6.0), (12.0, 0.0)];
    Dataset::from_examples(
        (0..n)
            .map(|i| {
                let (cx, cy) = centers[i % 3];
                Example::new(
                    vec![cx + rng.gen_range(-1.0..1.0), cy + rng.gen_range(-1.0..1.0)],
                    i % 3,
                )
            })
            .collect(),
    )
}

fn bench(c: &mut Criterion) {
    let train = blobs(300, 1);
    let probe = vec![6.1, 5.9];
    let mut group = c.benchmark_group("learners_fit");
    group.sample_size(20);
    group.bench_function("nearest_neighbor_fit", |b| {
        b.iter(|| {
            let mut m = NearestNeighbor::new();
            m.fit(&train);
            m.predict(&probe)
        })
    });
    group.bench_function("kmeans_fit", |b| {
        b.iter(|| {
            let mut m = KMeans::new();
            m.fit(&train);
            m.predict(&probe)
        })
    });
    group.bench_function("adaboost60_fit", |b| {
        b.iter(|| {
            let mut m = AdaBoost::new(60);
            m.fit(&train);
            m.predict(&probe)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
