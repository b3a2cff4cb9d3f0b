//! Criterion bench for the fleet engine: parallel vs sequential execution
//! and shared vs isolated learning, at reduced scale.  The full 32-replica ×
//! 5000-tick run with JSON output lives in the `fleet_scaling` binary.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use selfheal_bench::fleet::{cold_start, scaling_point};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_scaling");
    group.sample_size(10);
    for replicas in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("both_modes_200_ticks", replicas),
            &replicas,
            |b, &replicas| b.iter(|| scaling_point(replicas, 200, 42)),
        );
    }
    group.bench_function("cold_start_comparison_4_replicas", |b| {
        b.iter(|| cold_start(4, 42).compare())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
