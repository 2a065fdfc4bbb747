//! End-to-end and per-layer benchmark of the monitoring pipeline.
//!
//! ```text
//! perfbench --workload <collect|study|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it writes under `.perfbench/`). The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of the traced run with `--trace 1`. See `README.md`
//! next to this crate for the workloads and what each metric means.

mod collect;
mod digest;
mod service;
mod stats;
mod study;
mod trace;

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("entries_per_s", "1/s"),
    ("bytes_per_entry", "B"),
    ("peak_rss_mb", "MiB"),
    ("lag_p50_ms", "ms"),
    ("lag_p99_ms", "ms"),
    ("restart_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer that does no
/// work in a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.build_s", "s"),
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("collect.record_s", "s"),
    ("collect.records", "count"),
    ("store.checkpoint_s", "s"),
    ("store.checkpoints", "count"),
    ("store.finish_s", "s"),
    ("store.bytes_written", "B"),
    ("store.segments", "count"),
    ("read.open_s", "s"),
    ("read.decode_s", "s"),
    ("read.decode_mb_per_s", "MB/s"),
    ("read.merge_s", "s"),
    ("read.share", "frac"),
    ("analysis.preprocess_s", "s"),
    ("analysis.sinks_s", "s"),
    ("analysis.netsize_s", "s"),
    ("analysis.attacks_s", "s"),
    ("analysis.powerlaw_s", "s"),
    ("service.ingest_s", "s"),
    ("service.ingest_calls", "count"),
    ("service.checkpoint_s", "s"),
    ("service.checkpoint_calls", "count"),
    ("service.poll_s", "s"),
    ("service.poll_calls", "count"),
    ("service.finish_s", "s"),
    ("service.finish_calls", "count"),
    ("service.windows", "count"),
    ("service.busy_frac", "frac"),
    ("window.max_open", "count"),
    ("recover.truncated", "count"),
    ("recover.quarantined", "count"),
    ("recover.refed_entries", "count"),
    ("recover.outage_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("gen.late_max_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.sum_gap_frac", "frac"),
];

/// Share of the traced wall time the per-layer self times may miss.
const SUM_TOLERANCE: f64 = 0.10;

/// What one run passes to a workload.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
}

/// Operation accounting: every storage call and output check a workload
/// makes is attempted; a storage error or a mismatch is a failure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation with the outcome `result`.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.fail(format!("{what}: {error}"));
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("output check failed: {what}"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        eprintln!("FAILED {message}");
    }

    /// Adds `n` operations that succeeded (high-frequency calls counted
    /// in bulk).
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        assert!(value.is_finite(), "metric {name} = {value}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Runs `iteration` until `seconds` have passed since the first one began,
/// and at least `min` times. Stops at the first iteration that returns
/// false (one that failed).
pub fn repeat_for(seconds: f64, min: usize, mut iteration: impl FnMut(usize) -> bool) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed().as_secs_f64() < seconds {
        if !iteration(done) {
            break;
        }
        done += 1;
    }
}

/// Completes a traced run: checks that the per-layer self times in `rows`
/// add up to the traced wall time (the `timed` root spans), puts the
/// tracing metrics, and writes the spans under `.perfbench/`.
pub fn finish_trace(
    tracer: &trace::Tracer,
    rows: &[(&str, f64)],
    plain_walls: &[f64],
    traced_walls: &[f64],
    args: &Args,
    ops: &mut Ops,
    metrics: &mut Metrics,
) {
    let wall = tracer.total_s("timed");
    let sum: f64 = rows.iter().map(|(_, s)| s).sum();
    let within = trace::print_sum_check(rows, wall, SUM_TOLERANCE);
    ops.check("per-layer self times add up to the traced wall", within);
    metrics.put("trace.sum_gap_frac", (sum - wall).abs() / wall);
    if !plain_walls.is_empty() && !traced_walls.is_empty() {
        let overhead = stats::median(traced_walls) / stats::median(plain_walls) - 1.0;
        metrics.put("trace.overhead_frac", overhead);
    }
    let path = args
        .work
        .with_file_name(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    ops.op("write spans", tracer.write_jsonl(&path));
    println!("spans written to {}", path.display());
}

/// Runs `setup` `times` times and returns the last result with the median
/// wall time of one set-up.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut(bool) -> T) -> (T, f64) {
    let mut walls = Vec::new();
    let mut last = None;
    for i in 0..times {
        drop(last.take()); // free the previous set-up before building the next
        let start = Instant::now();
        last = Some(setup(i + 1 == times));
        walls.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&walls))
}

/// Total size of the regular files under `dir`, skipping directories named
/// in `skip`.
pub fn dir_bytes(dir: &Path, skip: &[&str]) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            if !skip.iter().any(|s| entry.file_name() == *s) {
                total += dir_bytes(&entry.path(), skip)?;
            }
        } else if kind.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Peak resident memory of each timed phase: free heap is returned to the
/// system and the kernel's high-water mark reset before the phase, and the
/// mark is read after it. The run reports the median phase, so memory left
/// by set-up or by earlier phases does not count.
#[derive(Default)]
pub struct PeakRss(Vec<f64>);

impl PeakRss {
    pub fn start(&self, ops: &mut Ops) {
        ops.op("reset peak RSS", stats::reset_peak_rss());
    }

    pub fn stop(&mut self, ops: &mut Ops) {
        let peak = stats::peak_rss_mb().ok_or("VmHWM unreadable");
        self.0.extend(ops.op("read peak RSS", peak));
    }

    pub fn put(&self, metrics: &mut Metrics) {
        if !self.0.is_empty() {
            metrics.put("peak_rss_mb", stats::median(&self.0));
        }
    }
}

/// Puts the lag metrics: the median and the 99th percentile of each
/// iteration's samples, each reported as its median over the iterations,
/// so one disturbed iteration does not move the result. Fails the check
/// when an iteration has too few samples for p99 to have ten beyond it.
pub fn put_lags(metrics: &mut Metrics, ops: &mut Ops, per_iteration: &[Vec<f64>]) {
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    for samples in per_iteration {
        let p99 = stats::supported_percentile(samples, 0.99, 10);
        ops.check(
            &format!("{} lag samples support p99", samples.len()),
            p99.is_some(),
        );
        p99s.extend(p99);
        p50s.extend(stats::supported_percentile(samples, 0.50, 10));
    }
    let counts: Vec<usize> = per_iteration.iter().map(Vec::len).collect();
    println!("lag samples per iteration: {counts:?}");
    println!("lag p50 per iteration (ms): {p50s:.2?}");
    println!("lag p99 per iteration (ms): {p99s:.2?}");
    if !p99s.is_empty() && p99s.len() == p50s.len() {
        metrics.put("lag_p50_ms", stats::median(&p50s));
        metrics.put("lag_p99_ms", stats::median(&p99s));
    }
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: perfbench --workload <collect|study|service> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let (workload, run): (&'static str, fn(&Args, &mut Ops) -> Metrics) =
        match cli.workload.as_str() {
            "collect" => ("collect", collect::run),
            "study" => ("study", study::run),
            "service" => ("service", service::run),
            other => {
                eprintln!("perfbench: unknown workload {other:?} (collect, study, service)");
                std::process::exit(2);
            }
        };
    let base = PathBuf::from(".perfbench");
    let work = base.join(format!("{}-{}", cli.workload, std::process::id()));
    if let Err(error) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {error}", work.display());
        std::process::exit(2);
    }
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        work: work.clone(),
    };
    let mut ops = Ops::default();
    let metrics = run(&args, &mut ops);
    std::fs::remove_dir_all(&work).ok();

    let catalog = if cli.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in catalog {
        let value = match metrics.get(name) {
            Some(value) => value,
            None if cli.trace => 0.0,
            None => {
                ops.fail(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = ops.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
