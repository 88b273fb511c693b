//! Closed-loop runs over a workload's tasks through the public API:
//! `DiscoveryService` + `SessionHandle::start_searching`.
//!
//! Client threads take chains from one shared queue that cycles through
//! the chain list; each chain opens a session and, per task, edits the
//! grid and presses "Start Searching!". A *pass* is one cycle. The queue
//! only stops at a cycle boundary, so every task runs equally often, and
//! has no barrier between cycles, so two clients never wait for each other
//! inside a measurement. Only `start_searching` is inside a round's
//! latency; the wall time (for `rounds_per_s`) covers everything.

use crate::check::{check_round, Reference};
use crate::inputs::Workload;
use crate::setup;
use crate::wire::{Inputs, Task};
use prism_core::{DiscoveryService, SessionHandle};
use std::ops::{Add, Range};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Measured rounds a run needs at least, so that ten lie beyond p95.
pub const MIN_ROUNDS: usize = 200;

/// Measured passes a run needs at least: each task's latency is its median
/// over the passes, which a burst of interference slowing one pass does
/// not move.
pub const MIN_PASSES: usize = 5;

/// Work counters summed over the rounds of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub rounds: u64,
    pub validations: u64,
    pub rows_examined: u64,
    pub rows_estimated: u64,
    pub blocks_skipped: u64,
    pub index_probes: u64,
    pub plans_built: u64,
    pub plan_recompiles: u64,
    pub rounds_overlapped: u64,
    pub speculative_scores: u64,
    pub speculative_wasted: u64,
}

impl Add for Counts {
    type Output = Counts;
    fn add(self, o: Counts) -> Counts {
        Counts {
            rounds: self.rounds + o.rounds,
            validations: self.validations + o.validations,
            rows_examined: self.rows_examined + o.rows_examined,
            rows_estimated: self.rows_estimated + o.rows_estimated,
            blocks_skipped: self.blocks_skipped + o.blocks_skipped,
            index_probes: self.index_probes + o.index_probes,
            plans_built: self.plans_built + o.plans_built,
            plan_recompiles: self.plan_recompiles + o.plan_recompiles,
            rounds_overlapped: self.rounds_overlapped + o.rounds_overlapped,
            speculative_scores: self.speculative_scores + o.speculative_scores,
            speculative_wasted: self.speculative_wasted + o.speculative_wasted,
        }
    }
}

impl Counts {
    /// The counts that must repeat exactly once the program has converged.
    pub fn fingerprint(&self) -> [u64; 4] {
        [
            self.validations,
            self.rows_examined,
            self.plans_built,
            self.plan_recompiles,
        ]
    }
}

/// One stretch of passes: its wall time, `(task, latency in seconds)` per
/// round, failures, the counts summed per pass, and `(pass, output)` of the
/// per-round hook.
pub struct Window<T> {
    pub wall: Duration,
    pub latencies: Vec<(usize, f64)>,
    pub failures: Vec<String>,
    pub counts: Vec<Counts>,
    pub extra: Vec<(usize, T)>,
}

impl<T> Window<T> {
    fn log(&self, kind: &str) {
        for (n, c) in self.counts.iter().enumerate() {
            eprintln!(
                "roundbench: {kind} pass {}: {} rounds; validations {}, rows examined {}, plans built {}, recompiles {}",
                n + 1,
                c.rounds,
                c.validations,
                c.rows_examined,
                c.plans_built,
                c.plan_recompiles
            );
        }
        eprintln!(
            "roundbench: {kind}: {} rounds in {:.2}s, {} failed",
            self.latencies.len(),
            self.wall.as_secs_f64(),
            self.failures.len()
        );
    }
}

/// A workload stood up and ready to run: the service, its tasks grouped
/// into chains, and a reference accept set per task.
pub struct Bench<'a> {
    pub workload: Workload,
    pub inputs: &'a Inputs,
    pub service: DiscoveryService,
    pub refs: Vec<Reference>,
    pub chains: Vec<Range<usize>>,
}

/// Called after each round with the task index and the round's latency in
/// seconds; runs on the client thread that ran the round.
pub type Hook<'h, T> = &'h (dyn Fn(usize, f64) -> T + Sync);

/// The shared chain queue: the next item, and whether the run stopped.
struct Queue {
    next: usize,
    stopped: bool,
}
impl<'a> Bench<'a> {
    pub fn new(
        workload: Workload,
        inputs: &'a Inputs,
        service: DiscoveryService,
    ) -> Result<Bench<'a>, String> {
        let config = setup::discovery_config(workload);
        let refs = inputs
            .tasks
            .iter()
            .map(|t| crate::check::reference(service.database(), &config, t))
            .collect::<Result<Vec<_>, _>>()?;
        let mut chains: Vec<Range<usize>> = Vec::new();
        for (i, t) in inputs.tasks.iter().enumerate() {
            match chains.last_mut() {
                Some(r) if inputs.tasks[r.start].chain == t.chain => r.end = i + 1,
                _ => chains.push(i..i + 1),
            }
        }
        Ok(Bench {
            workload,
            inputs,
            service,
            refs,
            chains,
        })
    }

    pub fn open(&self, task: &Task) -> SessionHandle {
        self.service
            .open_session(setup::session_config(task, self.workload))
    }

    /// Type `task` into the session's grid, clearing cells it leaves open.
    pub fn describe(session: &mut SessionHandle, task: &Task) -> Result<(), String> {
        for (r, row) in task.samples.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                let text = cell.clone().unwrap_or_default();
                session
                    .set_sample_cell(r, c, text)
                    .map_err(|e| e.to_string())?;
            }
        }
        for (c, cell) in task.metadata.iter().enumerate() {
            let text = cell.clone().unwrap_or_default();
            session
                .set_metadata_cell(c, text)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Run passes on `setup::clients` threads until, at a pass boundary,
    /// `stop(passes done, elapsed)` holds.
    fn run<T: Send>(
        &self,
        hook: Hook<'_, T>,
        stop: &(dyn Fn(usize, Duration) -> bool + Sync),
    ) -> Window<T> {
        let limit = setup::discovery_config(self.workload).result_limit;
        let n = self.chains.len();
        let queue = Mutex::new(Queue {
            next: 0,
            stopped: false,
        });
        let out = Mutex::new(Window {
            wall: Duration::ZERO,
            latencies: Vec::new(),
            failures: Vec::new(),
            counts: Vec::new(),
            extra: Vec::new(),
        });
        let start = Instant::now();
        let take = || {
            let mut q = queue.lock().expect("chain queue lock");
            if q.stopped || (q.next.is_multiple_of(n) && stop(q.next / n, start.elapsed())) {
                q.stopped = true;
                return None;
            }
            q.next += 1;
            Some(q.next - 1)
        };
        std::thread::scope(|scope| {
            for _ in 0..setup::clients(self.workload) {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    let mut failures = Vec::new();
                    let mut counts: Vec<Counts> = Vec::new();
                    let mut extra = Vec::new();
                    while let Some(item) = take() {
                        let pass = item / n;
                        if counts.len() <= pass {
                            counts.resize(pass + 1, Counts::default());
                        }
                        let chain = self.chains[item % n].clone();
                        let mut session = self.open(&self.inputs.tasks[chain.start]);
                        for i in chain {
                            let task = &self.inputs.tasks[i];
                            if let Err(e) = Self::describe(&mut session, task) {
                                failures.push(format!("task {i}: grid: {e}"));
                                continue;
                            }
                            let t0 = Instant::now();
                            let round = session.start_searching();
                            let latency = t0.elapsed().as_secs_f64();
                            mine.push((i, latency));
                            let verdict =
                                check_round(round.as_ref().map(|r| *r), &self.refs[i], limit);
                            if let Err(e) = verdict {
                                failures.push(format!("task {i} ({}): {e}", task.level));
                            }
                            if let Ok(r) = round {
                                let s = &r.stats;
                                counts[pass] = counts[pass]
                                    + Counts {
                                        rounds: 1,
                                        validations: s.validations,
                                        rows_examined: s.exec.rows_examined,
                                        rows_estimated: s.exec.rows_estimated,
                                        blocks_skipped: s.exec.blocks_skipped,
                                        index_probes: s.exec.index_probes,
                                        plans_built: s.exec.plans_built,
                                        plan_recompiles: s.exec.plan_recompiles,
                                        rounds_overlapped: s.rounds_overlapped,
                                        speculative_scores: s.speculative_scores,
                                        speculative_wasted: s.speculative_wasted,
                                    };
                            }
                            extra.push((pass, hook(i, latency)));
                        }
                    }
                    let mut out = out.lock().expect("run results lock");
                    out.latencies.extend(mine);
                    out.failures.extend(failures);
                    if out.counts.len() < counts.len() {
                        out.counts.resize(counts.len(), Counts::default());
                    }
                    for (total, c) in out.counts.iter_mut().zip(counts) {
                        *total = *total + c;
                    }
                    out.extra.extend(extra);
                });
            }
        });
        let mut out = out.into_inner().expect("run results lock");
        out.wall = start.elapsed();
        out
    }

    /// Run single passes until one has no plan recompiles and examines
    /// exactly the rows the previous one did, or until the workload's
    /// warm-up limit.
    pub fn warm_up<T: Send>(&self, hook: Hook<'_, T>) -> Warmup {
        let mut w = Warmup::default();
        while w.per_pass.len() < setup::max_warmup_passes(self.workload) {
            let p = self.run(hook, &|passes, _| passes == 1);
            p.log("warm-up");
            w.failures.extend(p.failures);
            let c = p.counts[0];
            let settled = c.plan_recompiles == 0
                && w.per_pass
                    .last()
                    .is_some_and(|q| q.rows_examined == c.rows_examined);
            w.totals = w.totals + c;
            w.per_pass.push(c);
            if settled {
                w.converged = true;
                break;
            }
        }
        w
    }

    /// Run passes until `seconds` of wall time, [`MIN_ROUNDS`] rounds and
    /// [`MIN_PASSES`] passes have all gone by.
    pub fn measure<T: Send>(&self, seconds: f64, hook: Hook<'_, T>) -> Window<T> {
        let per_pass = self.inputs.tasks.len();
        let w = self.run(hook, &|passes, elapsed| {
            passes >= MIN_PASSES
                && passes * per_pass >= MIN_ROUNDS
                && elapsed.as_secs_f64() >= seconds
        });
        w.log("measured");
        w
    }

    /// Run the task with the largest reference once and check that a
    /// corrupted reference is caught.
    pub fn self_test(&self) -> bool {
        let limit = setup::discovery_config(self.workload).result_limit;
        let Some(i) = (0..self.refs.len()).max_by_key(|&i| (self.refs[i].len(), usize::MAX - i))
        else {
            return false;
        };
        let task = &self.inputs.tasks[i];
        let mut session = self.open(task);
        if Self::describe(&mut session, task).is_err() {
            return false;
        }
        match session.start_searching() {
            Ok(result) => crate::check::self_test(result, &self.refs[i], limit),
            Err(_) => false,
        }
    }
}

#[derive(Default)]
pub struct Warmup {
    pub converged: bool,
    pub failures: Vec<String>,
    /// Counts over every warm-up pass (cold compiles land here).
    pub totals: Counts,
    pub per_pass: Vec<Counts>,
}
