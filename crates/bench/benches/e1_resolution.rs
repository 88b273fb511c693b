//! E1 — discovery time as constraints loosen.
//!
//! The paper's claim: execution time *"did not grow significantly as user
//! constraints became loose"*. One Criterion group, one benchmark per
//! resolution level, on a fixed set of synthesized Mondial tasks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prism_bench::task_constraints;
use prism_core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism_datasets::{mondial, Resolution, TaskGenConfig, TaskGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn bench_resolutions(c: &mut Criterion) {
    let engine = DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default());
    let taskgen = TaskGenerator::new(engine.database(), TaskGenConfig::default());
    let mut group = c.benchmark_group("e1_time_vs_resolution");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(12));
    for resolution in Resolution::ALL {
        // A fixed batch of 5 tasks per level; the benchmark measures the
        // whole batch so per-level numbers are comparable.
        let mut rng = StdRng::seed_from_u64(0xE1);
        let tasks: Vec<TargetConstraints> = taskgen
            .generate_many(resolution, 5, &mut rng)
            .iter()
            .map(task_constraints)
            .collect();
        assert!(!tasks.is_empty());
        group.bench_with_input(
            BenchmarkId::from_parameter(resolution.name()),
            &tasks,
            |b, tasks| {
                b.iter(|| {
                    let mut total = 0usize;
                    for t in tasks {
                        total += engine.run(t).queries.len();
                    }
                    total
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_resolutions);
criterion_main!(benches);
