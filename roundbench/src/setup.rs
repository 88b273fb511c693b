//! Set-up: CSV ingest, database build, and service construction, with
//! every configuration field pinned in code.

use crate::inputs::Workload;
use crate::wire::{Inputs, Task};
use prism_core::{DiscoveryConfig, DiscoveryService, SchedulerKind, SessionConfig};
use prism_db::{Database, DatabaseBuilder, DEFAULT_BLOCK_ROWS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CSV parse threads: the core count of the two-core deployment the
/// workloads model, pinned so the machine does not choose it.
const INGEST_THREADS: usize = 2;

/// A database loaded from CSV, with the time each step took.
pub struct Loaded {
    pub db: Database,
    pub ingest: Duration,
    pub build: Duration,
}

/// Load `inputs` through `add_table_from_csv` + `add_foreign_key` + `build`.
pub fn load(inputs: &Inputs) -> Result<Loaded, String> {
    let start = Instant::now();
    let mut b = DatabaseBuilder::new(inputs.db_name.as_str()).with_block_rows(DEFAULT_BLOCK_ROWS);
    for (name, csv) in &inputs.tables {
        b.add_table_from_csv_threads(name.as_str(), csv, INGEST_THREADS)
            .map_err(|e| format!("loading table {name}: {e}"))?;
    }
    for [ft, fc, tt, tc] in &inputs.foreign_keys {
        b.add_foreign_key(ft, fc, tt, tc)
            .map_err(|e| format!("foreign key {ft}.{fc} -> {tt}.{tc}: {e}"))?;
    }
    let ingest = start.elapsed();
    let start = Instant::now();
    let db = b.build();
    Ok(Loaded {
        db,
        ingest,
        build: start.elapsed(),
    })
}

/// The engine configuration of `workload`'s rounds. Every field is set
/// here: nothing is left to `Default`, which reads the environment.
pub fn discovery_config(workload: Workload) -> DiscoveryConfig {
    // `highres` runs the pool + pipelined engine a two-core deployment gets
    // by default; the Mondial workloads validate on the session's thread.
    let threads = match workload {
        Workload::Highres => 2,
        Workload::Lowres | Workload::Service => 1,
    };
    DiscoveryConfig {
        max_tables: 4,
        max_candidates: 20_000,
        max_related_per_column: 64,
        time_budget: Duration::from_secs(60),
        result_limit: 64,
        scheduler: SchedulerKind::Bayes,
        validation_threads: threads,
        pipeline: threads > 1,
        faults: None,
    }
}

/// Validation threads the service shares among its sessions.
pub fn thread_budget(workload: Workload) -> usize {
    match workload {
        Workload::Lowres => 1,
        Workload::Highres | Workload::Service => 2,
    }
}

/// Client threads driving sessions concurrently.
pub fn clients(workload: Workload) -> usize {
    match workload {
        Workload::Lowres | Workload::Highres => 1,
        Workload::Service => 2,
    }
}

/// How many times one run sets up; `setup_s` is the median.
pub fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Highres => 5,
        Workload::Lowres | Workload::Service => 51,
    }
}

/// Warm-up passes a run allows before it measures a program that is
/// still re-planning. A count, not a time, so that runs of one program and
/// seed stay comparable count for count.
pub fn max_warmup_passes(workload: Workload) -> usize {
    match workload {
        Workload::Highres => 8,
        Workload::Lowres | Workload::Service => 4,
    }
}

/// The grid shape of a session that runs `task`.
pub fn session_config(task: &Task, workload: Workload) -> SessionConfig {
    SessionConfig {
        target_columns: task.columns,
        sample_rows: task.samples.len(),
        with_metadata: true,
        discovery: discovery_config(workload),
    }
}

/// How long each step of one set-up took.
pub struct SetupTimes {
    pub ingest: Duration,
    pub build: Duration,
    /// `DiscoveryService` construction, which trains the Bayes estimator.
    pub train: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.ingest + self.build + self.train
    }
}

/// One set-up: the service ready for its first session.
pub fn stand_up(
    inputs: &Inputs,
    workload: Workload,
) -> Result<(DiscoveryService, SetupTimes), String> {
    let Loaded { db, ingest, build } = load(inputs)?;
    let start = Instant::now();
    let service = DiscoveryService::with_thread_budget(
        Arc::new(db),
        discovery_config(workload),
        thread_budget(workload),
    );
    let train = start.elapsed();
    Ok((
        service,
        SetupTimes {
            ingest,
            build,
            train,
        },
    ))
}
