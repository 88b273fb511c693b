//! The traced run: spans recorded from the benchmark's own code around the
//! calls into each layer's public functions.
//!
//! After each untraced `start_searching` round, the same task goes once
//! more through the layers the round is made of — `TargetConstraints::parse`,
//! `find_related`, `enumerate_candidates`, `build_filters_with_cache`,
//! `Scheduler::run(Engine::Greedy { threads: 1 })` under a `FailureModel`
//! that wraps `BayesModel` and records each P_fail call as a child span,
//! and the ranking previews (`PjQuery::execute(db, 5)`). A separate replay
//! of the round's filters through `validate_filter_cached` prices one
//! validation. The traced path keeps its own plan cache, so tracing never
//! changes the plans the measured service uses.

use crate::check::Reference;
use crate::run::{Bench, Warmup, Window};
use prism_bayes::BayesEstimator;
use prism_core::candidates::enumerate_candidates;
use prism_core::filters::{build_filters_with_cache, FilterId, FilterSet, SharedPlanCache};
use prism_core::related::find_related;
use prism_core::scheduler::{BayesModel, FailureModel};
use prism_core::validate::validate_filter_cached;
use prism_core::{DiscoveryConfig, Engine, SchedCtx, Scheduler, TargetConstraints};
use prism_db::{canonical_key, render_sql, Database, ExecScratch, ExecStats};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Filters replayed per round, evenly strided over the filter set.
const REPLAY_MAX: usize = 64;

pub const ROUND: &str = "round";
pub const PARSE: &str = "constraints.parse";
pub const RELATED: &str = "related";
pub const CANDIDATES: &str = "candidates";
pub const FILTERS: &str = "filters";
pub const SCHEDULER: &str = "scheduler";
pub const PFAIL: &str = "scheduler.pfail";
pub const RANKING: &str = "ranking.preview";
pub const REPLAY: &str = "validate.replay";

/// One timed interval. `parent` indexes the round's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Everything recorded for one traced round.
#[derive(Debug, Default)]
pub struct RoundTrace {
    pub task: usize,
    /// The untraced `start_searching` latency of the same task.
    pub untraced: f64,
    pub spans: Vec<Span>,
    pub candidates: u64,
    pub filters: u64,
    pub validations: u64,
    pub implied: u64,
    pub replayed: u64,
    /// The traced scheduler's accept set differs from the reference.
    pub mismatch: Option<String>,
}

impl RoundTrace {
    fn open(&mut self, epoch: Instant, name: &'static str, parent: Option<usize>) -> usize {
        let now = epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, epoch: Instant, span: usize) {
        self.spans[span].end = epoch.elapsed();
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }
}

/// A `FailureModel` that times every call of the model it wraps.
struct TimedModel<'a> {
    inner: BayesModel<'a>,
    epoch: Instant,
    calls: RefCell<Vec<(Duration, Duration)>>,
}

impl FailureModel for TimedModel<'_> {
    fn failure_probability(&self, db: &Database, fs: &FilterSet, f: FilterId) -> f64 {
        let start = self.epoch.elapsed();
        let p = self.inner.failure_probability(db, fs, f);
        self.calls.borrow_mut().push((start, self.epoch.elapsed()));
        p
    }
}

/// What the traced path shares across rounds.
pub struct Tracer<'a> {
    pub db: &'a Database,
    pub config: DiscoveryConfig,
    pub estimator: BayesEstimator,
    pub plans: SharedPlanCache,
    pub epoch: Instant,
}

impl Tracer<'_> {
    /// Run `task` through the layers with spans around each call.
    pub fn trace(
        &self,
        task_index: usize,
        task: &crate::wire::Task,
        reference: &Reference,
    ) -> RoundTrace {
        let (db, config, epoch) = (self.db, &self.config, self.epoch);
        let mut t = RoundTrace {
            task: task_index,
            ..RoundTrace::default()
        };
        let deadline = Instant::now() + config.time_budget;
        let root = t.open(epoch, ROUND, None);
        let s = t.open(epoch, PARSE, Some(root));
        let parsed = TargetConstraints::parse(task.columns, &task.samples, &task.metadata);
        t.close(epoch, s);
        let tc = match parsed {
            Ok(tc) => tc,
            Err(e) => {
                t.mismatch = Some(format!("constraints: {e}"));
                t.close(epoch, root);
                return t;
            }
        };
        let s = t.open(epoch, RELATED, Some(root));
        let related = find_related(db, &tc, config);
        t.close(epoch, s);
        let s = t.open(epoch, CANDIDATES, Some(root));
        let cands = enumerate_candidates(db, &related, config, Some(deadline));
        t.close(epoch, s);
        t.candidates = cands.candidates.len() as u64;
        if cands.candidates.is_empty() {
            t.close(epoch, root);
            if !reference.is_empty() {
                t.mismatch = Some("no candidates".into());
            }
            return t;
        }
        let s = t.open(epoch, FILTERS, Some(root));
        let fs = build_filters_with_cache(
            db,
            &cands.candidates,
            &tc,
            Some(deadline),
            Some(&self.plans),
        );
        t.close(epoch, s);
        t.filters = fs.len() as u64;

        let sched = t.open(epoch, SCHEDULER, Some(root));
        let model = TimedModel {
            inner: BayesModel::new(&self.estimator, &tc),
            epoch,
            calls: RefCell::new(Vec::new()),
        };
        let ctx = SchedCtx::new(db, &tc, &fs)
            .with_deadline(Some(deadline))
            .with_faults(None);
        let outcome = Scheduler::run(
            &ctx,
            Engine::Greedy {
                model: &model,
                threads: 1,
            },
        );
        t.close(epoch, sched);
        for (start, end) in model.calls.into_inner() {
            t.spans.push(Span {
                name: PFAIL,
                start,
                end,
                parent: Some(sched),
            });
        }
        t.validations = outcome.validations;
        t.implied = outcome.implied_successes + outcome.implied_failures;

        // Rank as the Result section does (fewest joins first), then
        // render and preview what fits under the result limit.
        let s = t.open(epoch, RANKING, Some(root));
        let mut accepted: Vec<&prism_core::Candidate> = outcome
            .accepted
            .iter()
            .map(|&c| &cands.candidates[c as usize])
            .collect();
        accepted.sort_by_key(|c| c.query.join_count());
        let mut keys = Vec::new();
        for cand in accepted.iter().take(config.result_limit) {
            std::hint::black_box(render_sql(&cand.query, db));
            keys.push(canonical_key(&cand.query, db));
            std::hint::black_box(cand.query.execute(db, 5).ok());
        }
        t.close(epoch, s);
        t.close(epoch, root);

        let all: Reference = accepted
            .iter()
            .map(|c| canonical_key(&c.query, db))
            .collect();
        if outcome.timed_out || &all != reference {
            t.mismatch = Some(format!(
                "traced scheduler accepted {} queries, reference has {}",
                all.len(),
                reference.len()
            ));
        }

        let s = t.open(epoch, REPLAY, None);
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let stride = fs.len().div_ceil(REPLAY_MAX).max(1);
        for f in (0..fs.len()).step_by(stride) {
            let f = FilterId(f as u32);
            std::hint::black_box(validate_filter_cached(
                db,
                &fs,
                f,
                &tc,
                &mut scratch,
                &mut stats,
            ));
            t.replayed += 1;
        }
        t.close(epoch, s);
        t
    }
}

/// Total and self time per span name over `rounds`. A span's self time is
/// its duration minus its direct children's.
pub fn layer_times(rounds: &[&RoundTrace]) -> BTreeMap<&'static str, (Duration, Duration)> {
    let mut out: BTreeMap<&'static str, (Duration, Duration)> = BTreeMap::new();
    for r in rounds {
        let mut child = vec![Duration::ZERO; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        for (i, s) in r.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur();
            e.1 += s.dur().saturating_sub(child[i]);
        }
    }
    out
}

/// Write every span as a tab-separated line:
/// `round  span  parent  name  start_us  end_us`.
pub fn write_spans(path: &Path, rounds: &[&RoundTrace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "round\tspan\tparent\tname\tstart_us\tend_us")?;
    for (round, r) in rounds.iter().enumerate() {
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{round}\t{i}\t{parent}\t{}\t{:.3}\t{:.3}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
    }
    w.flush()
}

/// `(name, value, unit)` in output order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced run. Times are per traced round,
/// counts per pass (the first measured pass; later ones must repeat it),
/// plan counts cumulative since the service started.
pub fn metrics(
    bench: &Bench<'_>,
    warm: &Warmup,
    window: &Window<RoundTrace>,
    [ingest_ms, build_ms, train_ms]: [f64; 3],
) -> Metrics {
    let traced: Vec<&RoundTrace> = window.extra.iter().map(|(_, r)| r).collect();
    let first: Vec<&RoundTrace> = window
        .extra
        .iter()
        .filter(|(pass, _)| *pass == 0)
        .map(|(_, r)| r)
        .collect();
    let rounds = traced.len() as f64;
    let times = layer_times(&traced);
    let total_ms = |name: &str| times.get(name).map_or(0.0, |t| t.0.as_secs_f64() * 1e3);
    let per_round = |name: &str| ratio(total_ms(name), rounds);
    let pass_sum = |f: &dyn Fn(&RoundTrace) -> u64| first.iter().map(|r| f(r)).sum::<u64>() as f64;
    let pfail_calls = pass_sum(&|r| r.count(PFAIL));
    let validations = pass_sum(&|r| r.validations);
    let replayed = traced.iter().map(|r| r.replayed).sum::<u64>() as f64;
    let us_per_call = ratio(total_ms(REPLAY) * 1e3, replayed);
    let scheduler_ms = per_round(SCHEDULER);
    let pfail_ms = per_round(PFAIL);
    let validate_ms = ratio(validations, first.len() as f64) * us_per_call / 1e3;
    let c = window.counts[0];
    let all = window.counts.iter().fold(warm.totals, |acc, &c| acc + c);
    let cache = bench.service.plan_cache();
    let untraced: f64 = traced.iter().map(|r| r.untraced).sum();
    vec![
        ("db.ingest_ms", ingest_ms, "ms"),
        ("db.build_ms", build_ms, "ms"),
        ("bayes.train_ms", train_ms, "ms"),
        ("scheduler.pfail_ms", pfail_ms, "ms"),
        ("scheduler.pfail_calls", pfail_calls, "count"),
        ("scheduler.ms", scheduler_ms, "ms"),
        ("scheduler.validations", validations, "count"),
        ("scheduler.implied", pass_sum(&|r| r.implied), "count"),
        (
            "scheduler.pfail_per_validation",
            ratio(pfail_calls, validations),
            "ratio",
        ),
        (
            "scheduler.self_ms",
            scheduler_ms - pfail_ms - validate_ms,
            "ms",
        ),
        ("validate.us_per_call", us_per_call, "us"),
        ("exec.rows_examined", c.rows_examined as f64, "count"),
        ("exec.blocks_skipped", c.blocks_skipped as f64, "count"),
        ("exec.index_probes", c.index_probes as f64, "count"),
        (
            "exec.fanout",
            ratio(c.rows_examined as f64, c.rows_estimated as f64),
            "ratio",
        ),
        ("exec.plans_built", all.plans_built as f64, "count"),
        ("exec.plan_recompiles", all.plan_recompiles as f64, "count"),
        (
            "parallel.rounds_overlapped",
            c.rounds_overlapped as f64,
            "count",
        ),
        (
            "parallel.speculative_waste",
            ratio(c.speculative_wasted as f64, c.speculative_scores as f64),
            "ratio",
        ),
        (
            "service.plan_hit_frac",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        ("service.plan_entries", cache.entries as f64, "count"),
        ("related.ms", per_round(RELATED), "ms"),
        ("candidates.ms", per_round(CANDIDATES), "ms"),
        ("candidates.count", pass_sum(&|r| r.candidates), "count"),
        ("filters.ms", per_round(FILTERS), "ms"),
        ("filters.count", pass_sum(&|r| r.filters), "count"),
        ("constraints.parse_us", per_round(PARSE) * 1e3, "us"),
        ("ranking.preview_ms", per_round(RANKING), "ms"),
        (
            "trace.coverage",
            ratio(total_ms(ROUND) / 1e3, untraced),
            "ratio",
        ),
        ("warmup.passes", warm.per_pass.len() as f64, "count"),
    ]
}

/// Self time per span name, per traced round, largest first, as text.
/// The scheduler's self time is split into the validations it ran (priced
/// by the replay) and the rest; shares are of the traced round.
pub fn layer_table(window: &Window<RoundTrace>, m: &Metrics) -> String {
    let traced: Vec<&RoundTrace> = window.extra.iter().map(|(_, r)| r).collect();
    let per_round = |d: Duration| ratio(d.as_secs_f64() * 1e3, traced.len() as f64);
    let get = |name: &str| m.iter().find(|x| x.0 == name).map_or(0.0, |x| x.1);
    let validate_ms = get("scheduler.ms") - get("scheduler.pfail_ms") - get("scheduler.self_ms");
    let times = layer_times(&traced);
    let mut rows: Vec<(String, f64)> = Vec::new();
    for (&name, &(_, own)) in &times {
        match name {
            ROUND | REPLAY => {}
            SCHEDULER => {
                rows.push((
                    "scheduler: validations x validate.us_per_call".into(),
                    validate_ms,
                ));
                rows.push((
                    "scheduler: the rest (scheduler.self_ms)".into(),
                    per_round(own) - validate_ms,
                ));
            }
            _ => rows.push((name.to_string(), per_round(own))),
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let round_ms = times.get(ROUND).map_or(0.0, |t| per_round(t.0));
    let mut out = format!("roundbench: self time per traced round of {round_ms:.3} ms\n");
    for (name, ms) in rows {
        out.push_str(&format!(
            "  {ms:>10.3} ms  {:>5.1}%  {name}\n",
            ratio(ms, round_ms) * 100.0
        ));
    }
    out.push_str(&format!(
        "  trace.coverage {:.3} (traced round / untraced start_searching)\n",
        get("trace.coverage")
    ));
    out
}
