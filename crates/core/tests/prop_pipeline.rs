//! Property: cross-round pipelining is a pure latency optimization — the
//! speculative scores it overlaps with the validation drain never change
//! *what* the scheduler decides. Across generated mapping tasks, failure
//! models, and thread counts, `Engine::Pipelined` accepts exactly the
//! phased engine's candidate set (which itself matches the ground-truth
//! oracle), and the overlap counters obey their invariants: wasted
//! speculation never exceeds speculation performed, and phased runs
//! report all-zero counters. A second property lifts the guarantee
//! through the service layer: N concurrent pipelined sessions accept
//! exactly the set a sequential, phased reference session accepts.
//!
//! `PRISM_SERVICE_SESSIONS` sizes the concurrent fan-out (default 2; CI's
//! multi-session smoke leg sets 4).

use prism_bayes::{BayesEstimator, TrainConfig};
use prism_core::scheduler::{
    oracle_schedule, BayesModel, Engine, FailureModel, PathLengthModel, SchedCtx, ScheduleOutcome,
    Scheduler, SchedulerKind,
};
use prism_core::{
    candidates::enumerate_candidates, filters::build_filters, related::find_related,
    DiscoveryConfig, DiscoveryService, SessionConfig, SessionHandle, TargetConstraints,
};
use prism_datasets::{mondial, MappingTask, Resolution, TaskGenConfig, TaskGenerator};
use prism_db::Database;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// The walkthrough database and its trained estimator, built once and
/// shared (as an `Arc` so the service property can clone it): the
/// properties quantify over *tasks*, not databases.
fn fixture() -> &'static (Arc<Database>, BayesEstimator) {
    static FIXTURE: OnceLock<(Arc<Database>, BayesEstimator)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = mondial(42, 1);
        let est = BayesEstimator::train(&db, &TrainConfig::default());
        (Arc::new(db), est)
    })
}

fn service_sessions() -> usize {
    std::env::var("PRISM_SERVICE_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

fn task_constraints(task: &MappingTask) -> TargetConstraints {
    TargetConstraints::parse(task.column_count, &task.samples, &task.metadata)
        .expect("taskgen emits parseable constraints")
}

fn generate_task(seed: u64, resolution: Resolution) -> Vec<MappingTask> {
    let taskgen = TaskGenerator::new(fixture().0.as_ref(), TaskGenConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    taskgen.generate_many(resolution, 1, &mut rng)
}

fn arb_resolution() -> impl Strategy<Value = Resolution> {
    prop_oneof![
        Just(Resolution::Exact),
        Just(Resolution::Disjunction),
        Just(Resolution::Range),
        Just(Resolution::Metadata),
    ]
}

fn run_pipelined(
    db: &Database,
    constraints: &TargetConstraints,
    fs: &prism_core::FilterSet,
    model: &dyn FailureModel,
    threads: usize,
) -> ScheduleOutcome {
    let ctx = SchedCtx::new(db, constraints, fs);
    Scheduler::run(&ctx, Engine::Pipelined { model, threads })
}

/// Session shaped like the generated task's constraint grid, through the
/// service layer.
fn task_session(
    svc: &DiscoveryService,
    task: &MappingTask,
    config: DiscoveryConfig,
) -> SessionHandle {
    let mut session = svc.open_session(SessionConfig {
        target_columns: task.column_count,
        sample_rows: task.samples.len(),
        with_metadata: true,
        discovery: config,
    });
    for (r, row) in task.samples.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if let Some(text) = cell {
                session.set_sample_cell(r, c, text.clone()).unwrap();
            }
        }
    }
    for (c, meta) in task.metadata.iter().enumerate() {
        if let Some(text) = meta {
            session.set_metadata_cell(c, text.clone()).unwrap();
        }
    }
    session
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scheduler level: pipelined == phased == oracle ground truth, for
    /// both failure models and threads ∈ {1, 2, 4}. The 1-thread
    /// pipelined run *is* the sequential loop (no pool to overlap with),
    /// so its overlap counters are zero; wider runs may overlap but the
    /// wasted count never exceeds the speculation count, and the phased
    /// engine never reports any speculation at all.
    #[test]
    fn pipelined_and_phased_schedulers_accept_the_same_set(
        seed in 0u64..1_000,
        resolution in arb_resolution(),
    ) {
        let (db, est) = fixture();
        let db = db.as_ref();
        let config = DiscoveryConfig::with_scheduler(SchedulerKind::Bayes);
        for task in &generate_task(seed, resolution) {
            let tc = task_constraints(task);
            let related = find_related(db, &tc, &config);
            let cands = enumerate_candidates(db, &related, &config, None).candidates;
            if cands.is_empty() {
                continue;
            }
            let fs = build_filters(db, &cands, &tc, None);
            let (_, truth) = oracle_schedule(db, &tc, &fs);
            let bayes_model = BayesModel::new(est, &tc);
            let models: [(&str, &dyn FailureModel); 2] =
                [("path-length", &PathLengthModel), ("bayes", &bayes_model)];
            for (name, model) in models {
                for threads in [1usize, 2, 4] {
                    let outcome = run_pipelined(db, &tc, &fs, model, threads);
                    prop_assert_eq!(
                        &outcome.accepted, &truth.accepted,
                        "pipelined {} @ {} threads diverged ({:?}/{})",
                        name, threads, resolution, seed
                    );
                    prop_assert!(!outcome.timed_out);
                    prop_assert!(
                        outcome.speculative_wasted <= outcome.speculative_scores,
                        "wasted ({}) > scored ({})",
                        outcome.speculative_wasted, outcome.speculative_scores
                    );
                    if threads == 1 {
                        prop_assert_eq!(outcome.rounds_overlapped, 0);
                        prop_assert_eq!(outcome.speculative_scores, 0);
                    }
                }
                // The phased engine never speculates, at any width.
                for threads in [1usize, 4] {
                    let ctx = SchedCtx::new(db, &tc, &fs);
                    let phased = Scheduler::run(&ctx, Engine::Greedy { model, threads });
                    prop_assert_eq!(&phased.accepted, &truth.accepted);
                    prop_assert_eq!(phased.rounds_overlapped, 0);
                    prop_assert_eq!(phased.speculative_scores, 0);
                    prop_assert_eq!(phased.speculative_wasted, 0);
                }
            }
        }
    }

    /// Service level: N sessions racing on one pipeline-enabled service
    /// (shared plan cache, shared thread budget, shared database) accept
    /// exactly the set a one-thread reference session accepts with the
    /// pipeline off.
    #[test]
    fn concurrent_pipelined_sessions_match_the_sequential_session(
        seed in 0u64..1_000,
        resolution in arb_resolution(),
    ) {
        let sessions = service_sessions();
        let (db, _) = fixture();
        for task in &generate_task(seed, resolution) {
            // Reference: a session on its own one-thread service, pipeline off.
            let seq_config = DiscoveryConfig {
                validation_threads: 1,
                pipeline: false,
                ..DiscoveryConfig::with_scheduler(SchedulerKind::PathLength)
            };
            let reference_svc = DiscoveryService::new(Arc::clone(db), seq_config.clone());
            let mut reference = task_session(&reference_svc, task, seq_config);
            let result = reference.start_searching().unwrap();
            let mut expected: Vec<String> =
                result.queries.iter().map(|q| q.key.clone()).collect();
            expected.sort();

            let pipelined_config = DiscoveryConfig {
                validation_threads: 4,
                pipeline: true,
                ..DiscoveryConfig::with_scheduler(SchedulerKind::PathLength)
            };
            let svc = DiscoveryService::new(Arc::clone(db), pipelined_config.clone());
            let handles: Vec<SessionHandle> = (0..sessions)
                .map(|_| task_session(&svc, task, pipelined_config.clone()))
                .collect();
            let accepted: Vec<Vec<String>> = std::thread::scope(|scope| {
                let joins: Vec<_> = handles
                    .into_iter()
                    .map(|mut session| {
                        scope.spawn(move || {
                            session.start_searching().unwrap();
                            let mut keys: Vec<String> = session
                                .result()
                                .expect("round ran")
                                .queries
                                .iter()
                                .map(|q| q.key.clone())
                                .collect();
                            keys.sort();
                            keys
                        })
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            prop_assert_eq!(svc.rounds_run(), sessions as u64);
            for (i, keys) in accepted.iter().enumerate() {
                prop_assert_eq!(
                    keys, &expected,
                    "pipelined session {} diverged from the sequential run ({:?}/{})",
                    i, resolution, seed
                );
            }
        }
    }
}
