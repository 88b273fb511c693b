//! Workload definitions and their seeded inputs.
//!
//! A workload's database comes from a `prism_datasets` generator at a fixed
//! generator seed and is rendered to CSV text, so that every workload loads
//! through the user's import path (`add_table_from_csv`). `TaskGenerator`
//! runs against the CSV-loaded database, so the tasks use the column types
//! the measured program actually sees.
//!
//! The tasks of a workload are a fixed set drawn at [`TASK_SEED`]; the
//! `--seed` argument shuffles the order in which they arrive. Round cost
//! varies over tasks far more than between runs (the coefficient of
//! variation of `lowres` round latency over tasks is about 1.4), so a run
//! that also drew its tasks from `--seed` would measure its draw, not the
//! program: at 48 tasks, seeds 1 and 2 gave `lowres` p50s of 31 and 50 ms.

use crate::setup;
use crate::wire::{Inputs, Task};
use prism_datasets::{imdb, mondial, MappingTask, Resolution, TaskGenConfig, TaskGenerator};
use prism_db::{ColumnRef, Database, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Seed of the database generators.
const DB_SEED: u64 = 42;

/// Seed of the task set. Tasks of one workload are the same in every run.
const TASK_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mondial, loose constraints, one client: scheduling dominates.
    Lowres,
    /// IMDB at scale 400, exact samples, two validation threads:
    /// validation and execution dominate.
    Highres,
    /// One service, two client threads running refinement chains.
    Service,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lowres" => Some(Workload::Lowres),
            "highres" => Some(Workload::Highres),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lowres => "lowres",
            Workload::Highres => "highres",
            Workload::Service => "service",
        }
    }

    /// Distinct tasks (refinement chains for `service`) in one pass.
    fn task_count(self) -> usize {
        match self {
            Workload::Lowres => 64,
            Workload::Highres => 40,
            Workload::Service => 16,
        }
    }
}

/// The levels a `lowres` pass cycles through.
const LOWRES_LEVELS: [Resolution; 4] = [
    Resolution::Disjunction,
    Resolution::Range,
    Resolution::Metadata,
    Resolution::Missing,
];

/// A refinement chain: the user starts with what they half remember and
/// sharpens the grid until they type exact values.
const CHAIN_LEVELS: [Resolution; 5] = [
    Resolution::Missing,
    Resolution::Metadata,
    Resolution::Range,
    Resolution::Disjunction,
    Resolution::Exact,
];

fn taskgen_config() -> TaskGenConfig {
    TaskGenConfig {
        max_tables: 3,
        min_columns: 2,
        max_columns: 3,
        sample_rows: 1,
        missing_cells: 1,
        max_attempts: 60,
    }
}

/// splitmix64: decorrelates the per-task RNG streams of nearby seeds.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate the inputs of `workload`, in the order `seed` gives.
pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let source = match workload {
        Workload::Lowres | Workload::Service => mondial(DB_SEED, 1),
        Workload::Highres => imdb(DB_SEED, 400),
    };
    let mut inputs = render(&source);
    drop(source);
    let db = setup::load(&inputs)?.db;
    let gen = TaskGenerator::new(&db, taskgen_config());
    let want = workload.task_count();
    let attempts = want * 20;
    let mut chains: Vec<Vec<Task>> = Vec::new();
    for i in 0..attempts as u64 {
        let chain = chains.len();
        if chain == want {
            break;
        }
        let levels: &[Resolution] = match workload {
            Workload::Lowres => &LOWRES_LEVELS[chain % LOWRES_LEVELS.len()..][..1],
            Workload::Highres => &[Resolution::Exact],
            Workload::Service => &CHAIN_LEVELS,
        };
        // Every level re-seeds the same stream, so a chain's levels share
        // their ground truth whenever the generator draws identically.
        let generated: Option<Vec<(Resolution, MappingTask)>> = levels
            .iter()
            .map(|&level| {
                let mut rng = StdRng::seed_from_u64(mix(TASK_SEED, i));
                Some((level, gen.generate(level, &mut rng)?))
            })
            .collect();
        let Some(generated) = generated else { continue };
        if generated
            .iter()
            .any(|(_, t)| t.truth_key != generated[0].1.truth_key)
        {
            continue;
        }
        let tasks = generated
            .into_iter()
            .map(|(level, t)| Task {
                chain,
                level: level.name().to_string(),
                columns: t.column_count,
                samples: t.samples,
                metadata: t.metadata,
            })
            .collect();
        chains.push(tasks);
    }
    if chains.len() < want {
        return Err(format!(
            "{}: generated {} of {want} tasks",
            workload.name(),
            chains.len()
        ));
    }
    chains.shuffle(&mut StdRng::seed_from_u64(mix(seed, u64::MAX)));
    for (chain, tasks) in chains.into_iter().enumerate() {
        inputs
            .tasks
            .extend(tasks.into_iter().map(|t| Task { chain, ..t }));
    }
    Ok(inputs)
}

/// Render every table of `db` as CSV text. Decimals keep a decimal point so
/// that type inference reads them back as decimals.
fn render(db: &Database) -> Inputs {
    let catalog = db.catalog();
    let tables = catalog
        .tables()
        .map(|(tid, schema)| {
            let mut csv = String::new();
            let header: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
            csv.push_str(&header.join(","));
            csv.push('\n');
            for row in 0..db.row_count(tid) as u32 {
                for c in 0..schema.arity() as u32 {
                    if c > 0 {
                        csv.push(',');
                    }
                    csv_field(&mut csv, &db.value(ColumnRef::new(tid, c), row));
                }
                csv.push('\n');
            }
            (schema.name.clone(), csv)
        })
        .collect();
    let name_of = |c: ColumnRef| {
        let t = catalog.table(c.table);
        [t.name.clone(), t.column(c.column).name.clone()]
    };
    let foreign_keys = catalog
        .foreign_keys()
        .iter()
        .map(|fk| {
            let [ft, fc] = name_of(fk.from);
            let [tt, tc] = name_of(fk.to);
            [ft, fc, tt, tc]
        })
        .collect();
    Inputs {
        db_name: db.name().to_string(),
        tables,
        foreign_keys,
        tasks: Vec::new(),
    }
}

fn csv_field(out: &mut String, v: &Value) {
    match v {
        Value::Null => {}
        Value::Decimal(d) => out.push_str(&format!("{d:?}")),
        Value::Text(s) => {
            let plain = !s.is_empty() && s.trim() == s && !s.contains([',', '"', '\n', '\r']);
            if plain {
                out.push_str(s);
            } else {
                out.push('"');
                out.push_str(&s.replace('"', "\"\""));
                out.push('"');
            }
        }
        other => out.push_str(&other.to_string()),
    }
}
