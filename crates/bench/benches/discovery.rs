//! T1 — end-to-end discovery latency on the paper's walk-through and on
//! representative tasks of each demo database.
//!
//! The paper's interactive budget is 60 seconds per round; these benches
//! show the synthetic reproduction resolves the same workloads in
//! milliseconds, leaving the budget as slack for much larger databases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prism_core::{DiscoveryConfig, DiscoveryService, TargetConstraints};
use prism_datasets::{imdb, mondial, nba};
use std::sync::Arc;
use std::time::Duration;

fn walkthrough_constraints() -> TargetConstraints {
    TargetConstraints::parse(
        3,
        &[vec![
            Some("California || Nevada".to_string()),
            Some("Lake Tahoe".to_string()),
            None,
        ]],
        &[
            None,
            None,
            Some("DataType=='decimal' AND MinValue>='0'".to_string()),
        ],
    )
    .unwrap()
}

fn bench_table1(c: &mut Criterion) {
    let engine = DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default());
    let constraints = walkthrough_constraints();
    let mut group = c.benchmark_group("table1");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(8));
    group.bench_function("table1_motivating_example", |b| {
        b.iter(|| {
            let result = engine.run(&constraints);
            assert!(!result.queries.is_empty());
            result.queries.len()
        })
    });
    group.finish();
}

fn bench_per_database(c: &mut Criterion) {
    let mut group = c.benchmark_group("discovery_per_database");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(6));
    let cases = vec![
        (
            "Mondial",
            mondial(42, 1),
            TargetConstraints::parse(
                2,
                &[vec![
                    Some("Mississippi".into()),
                    Some("United States".into()),
                ]],
                &[],
            )
            .unwrap(),
        ),
        (
            "IMDB",
            imdb(42, 1),
            TargetConstraints::parse(
                2,
                &[vec![
                    Some("Seven Samurai || Casablanca".into()),
                    Some("Akira Kurosawa".into()),
                ]],
                &[],
            )
            .unwrap(),
        ),
        (
            "NBA",
            nba(42, 1),
            TargetConstraints::parse(
                2,
                &[vec![Some("Lakers".into()), None]],
                &[None, Some("DataType=='date'".into())],
            )
            .unwrap(),
        ),
    ];
    for (name, db, constraints) in cases {
        let engine = DiscoveryService::new(Arc::new(db), DiscoveryConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| engine.run(&constraints).queries.len())
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // Discovery latency versus database scale (the interactivity claim).
    let mut group = c.benchmark_group("discovery_vs_scale");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    for scale in [1usize, 2, 4] {
        let db = Arc::new(mondial(42, scale));
        let rows = db.total_rows();
        let engine = DiscoveryService::new(db, DiscoveryConfig::default());
        let constraints = walkthrough_constraints();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("scale{scale}_rows{rows}")),
            &scale,
            |b, _| b.iter(|| engine.run(&constraints).queries.len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table1, bench_per_database, bench_scaling);
criterion_main!(benches);
