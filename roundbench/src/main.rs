//! Round benchmark for Prism: end-to-end round latency, throughput, set-up
//! time and memory on three workloads, and a traced run that splits the
//! round into its layers. See `README.md` in this directory.
//!
//! ```text
//! roundbench --workload <lowres|highres|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process generates its inputs from the seed, then re-runs itself as a
//! measuring child that receives them on stdin, so that the child's peak
//! RSS counts the program and not the input generators. The last line of
//! stdout is the result object.

mod check;
mod inputs;
mod run;
mod setup;
mod trace;
mod wire;

use inputs::Workload;
use run::Bench;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Metrics;

/// Internal flag that selects the measuring child.
const CHILD_FLAG: &str = "--measure-stdin";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == CHILD_FLAG {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

/// The library reads `PRISM_*` variables (thread counts, pipelining, fault
/// injection, block size, join order, ingest threads, exact-stats rows) in
/// places a config cannot override. A run with any of them set would
/// measure a different program, so it refuses.
fn refuse_prism_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PRISM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: it changes the measured program",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        refuse_prism_env()?;
        if args.child {
            measure(&args)
        } else {
            orchestrate(&args)
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("roundbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Generate inputs, hand them to a measuring child, and pass on its exit.
fn orchestrate(args: &Args) -> Result<ExitCode, String> {
    let t0 = Instant::now();
    let bytes = inputs::generate(args.workload, args.seed)?.encode();
    eprintln!(
        "roundbench: {} inputs for seed {} generated in {:.2}s ({} bytes)",
        args.workload.name(),
        args.seed,
        t0.elapsed().as_secs_f64(),
        bytes.len()
    );
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(std::env::args().skip(1))
        .arg(CHILD_FLAG)
        .stdin(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the measuring process: {e}"))?;
    let written = child
        .stdin
        .take()
        .expect("stdin was piped")
        .write_all(&bytes);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the measuring process: {e}"))?;
    written.map_err(|e| format!("sending inputs: {e}"))?;
    match status.code() {
        Some(0) => Ok(ExitCode::SUCCESS),
        _ => Err(format!("measuring process failed: {status}")),
    }
}

/// Where runs leave span dumps, count records and result logs.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("roundbench")
}

fn median(mut xs: Vec<f64>) -> f64 {
    quantile(&mut xs, 0.5)
}

/// Linear interpolation between the order statistics around `q`.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
                    .ok_or(std::io::ErrorKind::NotFound.into())
            })
            .unwrap_or_else(|_: std::io::Error| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// A hash of the running executable: two runs measured the same program
/// exactly when these agree.
fn program_id() -> String {
    use std::hash::{Hash, Hasher};
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    format!("{:016x}", h.finish())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Compare this run's exact counts with an earlier run of the same
/// program, workload, mode and seed, recording them if there is none.
/// Returns a description of any drift.
fn cross_run_drift(args: &Args, program: &str, counts: &str) -> Option<String> {
    let dir = out_dir().join("counts");
    let mode = if args.trace { "trace" } else { "timed" };
    let path = dir.join(format!(
        "{}-{mode}-seed{}-{program}.txt",
        args.workload.name(),
        args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == counts => None,
        Ok(prev) => Some(format!(
            "counts {counts} differ from an earlier run's {}",
            prev.trim()
        )),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, counts));
            None
        }
    }
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let mut bytes = Vec::new();
    std::io::stdin()
        .read_to_end(&mut bytes)
        .map_err(|e| format!("reading inputs: {e}"))?;
    let inputs = wire::Inputs::decode(&bytes).map_err(|e| e.to_string())?;
    drop(bytes);

    // Set up several times; the last service is the one measured. Each
    // set-up's service is dropped before the next is built, so peak RSS
    // counts one database.
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..setup::setup_reps(w) {
        drop(service.take());
        let (s, times) = setup::stand_up(&inputs, w)?;
        setups.push(times);
        service = Some(s);
    }
    let secs = |f: &dyn Fn(&setup::SetupTimes) -> std::time::Duration| -> Vec<f64> {
        setups.iter().map(|s| f(s).as_secs_f64()).collect()
    };
    let setup_s = median(secs(&|s| s.total()));
    let spread = |mut xs: Vec<f64>| {
        let mut q = |p| quantile(&mut xs, p) * 1e3;
        format!("{:.3}/{:.3}/{:.3}", q(0.0), q(0.5), q(1.0))
    };
    eprintln!(
        "roundbench: {} set-ups, min/median/max ms: total {}, ingest {}, build {}, train {}",
        setups.len(),
        spread(secs(&|s| s.total())),
        spread(secs(&|s| s.ingest)),
        spread(secs(&|s| s.build)),
        spread(secs(&|s| s.train))
    );
    let ingest_ms = median(secs(&|s| s.ingest)) * 1e3;
    let build_ms = median(secs(&|s| s.build)) * 1e3;
    let train_ms = median(secs(&|s| s.train)) * 1e3;
    let service = service.expect("at least one set-up");

    let bench = Bench::new(w, &inputs, service)?;
    let self_test = bench.self_test();
    let mut notes: Vec<String> = Vec::new();
    if !self_test {
        notes.push("self-test: a corrupted reference was not caught".into());
    }

    let (metrics, warm, pass_counts, failed, attempted, traced_fp) = if args.trace {
        let tracer = trace::Tracer {
            db: bench.service.database(),
            config: setup::discovery_config(w),
            estimator: prism_bayes::BayesEstimator::train(
                bench.service.database(),
                &prism_bayes::TrainConfig::default(),
            ),
            plans: prism_core::filters::SharedPlanCache::new(),
            epoch: Instant::now(),
        };
        let hook = |i: usize, latency: f64| {
            let mut r = tracer.trace(i, &inputs.tasks[i], &bench.refs[i]);
            r.untraced = latency;
            r
        };
        let warm = bench.warm_up(&hook);
        let window = bench.measure(args.seconds, &hook);
        let traced: Vec<&trace::RoundTrace> = window.extra.iter().map(|(_, r)| r).collect();
        let mismatches: Vec<String> = traced
            .iter()
            .filter_map(|r| {
                let m = r.mismatch.as_ref()?;
                Some(format!("task {}: traced: {m}", r.task))
            })
            .collect();
        let span_path =
            out_dir()
                .join("traces")
                .join(format!("{}-seed{}.tsv", w.name(), args.seed));
        if let Err(e) = trace::write_spans(&span_path, &traced) {
            notes.push(format!("writing spans to {}: {e}", span_path.display()));
        }
        // P_fail calls, traced validations and candidates, per pass.
        let mut fps = vec![[0u64; 3]; window.counts.len()];
        for (pass, r) in &window.extra {
            let f = &mut fps[*pass];
            f[0] += r.count(trace::PFAIL);
            f[1] += r.validations;
            f[2] += r.candidates;
        }
        let layer = trace::metrics(&bench, &warm, &window, [ingest_ms, build_ms, train_ms]);
        eprint!("{}", trace::layer_table(&window, &layer));
        let failed = window.failures.len() + mismatches.len();
        notes.extend(mismatches.into_iter().take(5));
        notes.extend(window.failures.iter().take(5).cloned());
        (layer, warm, window.counts, failed, traced.len(), fps)
    } else {
        let hook = |_: usize, _: f64| ();
        let warm = bench.warm_up(&hook);
        let window = bench.measure(args.seconds, &hook);
        // A task's latency is its median over the measured passes, so a
        // burst of interference that slows one pass does not reach it;
        // the percentiles are over tasks.
        let mut per_task: Vec<Vec<f64>> = vec![Vec::new(); inputs.tasks.len()];
        for &(task, latency) in &window.latencies {
            per_task[task].push(latency);
        }
        let mut task_ms: Vec<f64> = per_task
            .into_iter()
            .filter(|l| !l.is_empty())
            .map(|l| median(l) * 1e3)
            .collect();
        let rounds = window.latencies.len();
        notes.extend(window.failures.iter().take(5).cloned());
        let metrics: Metrics = vec![
            ("setup_s", setup_s, "s"),
            ("round_p50_ms", quantile(&mut task_ms, 0.5), "ms"),
            ("round_p95_ms", quantile(&mut task_ms, 0.95), "ms"),
            (
                "rounds_per_s",
                rounds as f64 / window.wall.as_secs_f64(),
                "1/s",
            ),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        let failed = window.failures.len();
        (metrics, warm, window.counts, failed, rounds, Vec::new())
    };
    notes.extend(warm.failures.iter().take(5).cloned());

    // Exact-count determinism: the warm-up passes and the first measured
    // pass (a fixed amount of work) must repeat, count for count, what an
    // earlier run of the same program, workload, mode and seed did.
    let enforce = matches!(w, Workload::Lowres | Workload::Highres);
    let program = program_id();
    let fps: Vec<[u64; 4]> = warm
        .per_pass
        .iter()
        .chain(&pass_counts[..1])
        .map(|c| c.fingerprint())
        .collect();
    let record = format!(
        "{fps:?} {:?}",
        traced_fp.first().copied().unwrap_or_default()
    );
    let drift = cross_run_drift(args, &program, &record);
    if let Some(d) = &drift {
        notes.push(format!(
            "count drift{}: {d}",
            if enforce { "" } else { " (not enforced)" }
        ));
    }
    let counts_ok = !enforce || drift.is_none();
    if pass_counts
        .iter()
        .any(|c| c.fingerprint() != pass_counts[0].fingerprint())
        || traced_fp.iter().any(|f| f != &traced_fp[0])
    {
        notes.push("the program re-planned during measurement: per-pass counts changed".into());
    }
    if !warm.converged {
        notes.push(format!(
            "plans still changing after {} warm-up passes",
            warm.per_pass.len()
        ));
    }

    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!(
            "metric {name} is {value}; notes: {}",
            notes.join("; ")
        ));
    }
    let correct = failed == 0 && warm.failures.is_empty() && self_test && counts_ok;
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": {}, \"program\": {}, \
         \"warmup_passes\": {}, \"converged\": {}, \"measured_passes\": {}, \"counts\": {}, \"notes\": [{}]}}",
        json_str(w.name()),
        args.seed,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&commit()),
        json_str(&program),
        warm.per_pass.len(),
        warm.converged,
        pass_counts.len(),
        json_str(&record),
        notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", ")
    );
    let metrics_json = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics_json}}}}}"
    );
    let log = out_dir().join("results.jsonl");
    let _ = std::fs::create_dir_all(out_dir()).and_then(|_| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)?;
        writeln!(f, "{{\"run\": {meta}, \"result\": {result}}}")
    });
    println!("{{\"run\": {meta}}}");
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}
