//! `study`: the paper's offline analysis suite over a stored dataset.

use crate::collect::{collect_once, Traced};
use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{Args, Metrics, Ops, PeakRss};
use ipfs_monitoring::analysis::{fit_power_law, PowerLawFit};
use ipfs_monitoring::core::{
    estimate_network_size_source, flag_source, run_attacks_source, run_sink, ActivityCounts,
    ActivityCountsSink, AttackSuiteReport, AttackTargets, EntryStatsSink, MonitorEntryStats,
    MonitoringDataset, PopularityScores, PopularitySink, PreprocessConfig, PreprocessStats,
    RequestTypeSeries, RequestTypeSink, TraceEntry, TraceSource,
};
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::{
    recover_dataset, AnalysisSink, ManifestReader, ReadOptions, SegmentError,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SETUPS: usize = 3;
const MIN_ITERATIONS: usize = 3;
/// The preprocessing pass is timed per block of this many entries, about
/// half of which include a chunk decode; the block times, pooled over the
/// iterations, are the `lag` sample of this workload. With 512-entry
/// blocks p99 fell on the few blocks that decode a chunk, and host
/// hiccups of a fraction of a millisecond moved it by 25 % between runs.
const LAG_BLOCK: u64 = 2048;
/// IDW and TNW targets: the most requested CIDs and most active peers.
const TARGETS: usize = 4;
/// Candidate cut-offs of the power-law fit.
const POWER_LAW_CANDIDATES: usize = 40;
/// The suite's calls, in order; also their span names.
const CALLS: [&str; 5] = ["preprocess", "sinks", "netsize", "attacks", "powerlaw"];

type SinkOutput = (
    (Vec<RequestTypeSeries>, PopularityScores),
    (ActivityCounts, Vec<MonitorEntryStats>),
);

/// Everything the suite computes; compared whole against the reference.
#[derive(Debug, PartialEq)]
struct Results {
    preprocess: (PreprocessStats, Digest),
    sinks: SinkOutput,
    /// `Debug` rendering: the report has no `PartialEq`.
    netsize: String,
    attacks: AttackSuiteReport,
    powerlaw: Option<PowerLawFit>,
}

fn sinks() -> (
    (RequestTypeSink, PopularitySink),
    (ActivityCountsSink, EntryStatsSink),
) {
    (
        (
            RequestTypeSink::new(SimDuration::from_hours(1)),
            PopularitySink::new(),
        ),
        (ActivityCountsSink::new(), EntryStatsSink::new()),
    )
}

/// Runs the suite over `source` with a span per call. `run_sinks` runs
/// the composed sinks the way the source allows; `targets` are derived
/// from the sink results when not given. Block times of the
/// preprocessing pass go to `block_ms`.
fn suite<S: TraceSource>(
    source: &S,
    horizon: SimDuration,
    targets: Option<&AttackTargets>,
    tracer: &mut Tracer,
    run_sinks: impl FnOnce(&S) -> Result<SinkOutput, SegmentError>,
    block_ms: &mut Vec<f64>,
) -> Result<(Results, AttackTargets), SegmentError> {
    let preprocess = tracer.span("suite", "preprocess", || {
        let mut stream = flag_source(source, PreprocessConfig::default());
        let mut digest = Digest::default();
        let mut block_start = Instant::now();
        for entry in &mut stream {
            digest.add(&entry, true);
            if digest.count.is_multiple_of(LAG_BLOCK) {
                let now = Instant::now();
                block_ms.push((now - block_start).as_secs_f64() * 1e3);
                block_start = now;
            }
        }
        match stream.take_source_error() {
            Some(error) => Err(error),
            None => Ok((stream.stats(), digest)),
        }
    })?;
    let sinks = tracer.span("suite", "sinks", || run_sinks(source))?;
    let (start, end, interval) = netsize_window(horizon);
    let netsize = tracer.span("suite", "netsize", || {
        estimate_network_size_source(source, start, end, interval)
    })?;
    let targets = targets.cloned().unwrap_or_else(|| AttackTargets {
        idw_cids: sinks
            .0
             .1
            .top_k(TARGETS, false)
            .into_iter()
            .map(|(c, _)| c)
            .collect(),
        tnw_peers: sinks
            .1
             .0
            .per_peer
            .iter()
            .take(TARGETS)
            .map(|(p, _)| *p)
            .collect(),
        tpi_probes: Vec::new(),
    });
    let attacks = tracer.span("suite", "attacks", || {
        run_attacks_source(source, PreprocessConfig::default(), &targets, None)
    })?;
    let powerlaw = tracer.span("suite", "powerlaw", || {
        let mut samples: Vec<f64> = sinks.0 .1.rrp.values().map(|&v| v as f64).collect();
        samples.sort_by(f64::total_cmp);
        fit_power_law(&samples, POWER_LAW_CANDIDATES)
    });
    let results = Results {
        preprocess,
        sinks,
        netsize: format!("{netsize:?}"),
        attacks,
        powerlaw,
    };
    Ok((results, targets))
}

/// Network-size estimation window: after a half-day warm-up, in half-day
/// snapshots to the end of the horizon.
fn netsize_window(horizon: SimDuration) -> (SimTime, SimTime, SimDuration) {
    (
        SimTime::ZERO + SimDuration::from_hours(12),
        SimTime::ZERO + horizon,
        SimDuration::from_hours(12),
    )
}

fn suite_in_memory(
    dataset: &MonitoringDataset,
    horizon: SimDuration,
    targets: Option<&AttackTargets>,
    tracer: &mut Tracer,
) -> Result<(Results, AttackTargets), SegmentError> {
    suite(
        dataset,
        horizon,
        targets,
        tracer,
        |d| run_sink(d, sinks()),
        &mut Vec::new(),
    )
}

struct Setup {
    horizon: SimDuration,
    dir: PathBuf,
    manifest: PathBuf,
    entries: u64,
    bytes: u64,
    reference: Results,
    targets: AttackTargets,
    dataset: Option<MonitoringDataset>,
    /// Counts of the set-up's collection.
    collected: Traced,
}

/// Writes the dataset `collect` writes for this seed, keeping an
/// in-memory copy, and computes the reference results from the copy.
fn setup(args: &Args, tracer: &mut Tracer, keep: bool) -> Result<Setup, String> {
    let dir = args.work.join("dataset");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let config = crate::collect::scenario(args.seed);
    let mut collected = collect_once(&config, &dir, tracer, true).map_err(|e| e.to_string())?;
    let dataset = collected
        .dataset
        .take()
        .expect("asked for the in-memory copy");
    let (reference, targets) =
        suite_in_memory(&dataset, config.horizon, None, &mut Tracer::new(false))
            .map_err(|e| e.to_string())?;
    let bytes = crate::dir_bytes(&dir, &[]).map_err(|e| e.to_string())?;
    let mut counts = Traced::default();
    counts.add(&collected, Duration::ZERO);
    Ok(Setup {
        horizon: config.horizon,
        dir,
        manifest: collected.summary.manifest_path,
        entries: collected.summary.total_entries,
        bytes,
        reference,
        targets,
        dataset: keep.then_some(dataset),
        collected: counts,
    })
}

/// Counts entries: a `run_parallel` pass that does no analysis.
#[derive(Clone, Default)]
struct CountSink(u64);

impl AnalysisSink for CountSink {
    type Output = u64;

    fn consume(&mut self, _: TraceEntry) {
        self.0 += 1;
    }

    fn combine(&mut self, other: Self) {
        self.0 += other.0;
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Wall times of the read path alone, with no analysis.
#[derive(Default)]
struct ReadPasses {
    /// Every monitor's sorted stream drained in turn.
    decode: Duration,
    /// The merged stream drained.
    merged: Duration,
    /// `run_parallel` with a counting sink.
    parallel: Duration,
}

fn read_passes(manifest: &Path, passes: &mut ReadPasses) -> Result<(), SegmentError> {
    let reader = ManifestReader::open_with(manifest, ReadOptions::default())?;
    let start = Instant::now();
    for monitor in 0..reader.monitor_count() {
        let mut stream = reader.stream_monitor_sorted(monitor);
        std::hint::black_box((&mut stream).count());
        if let Some(error) = stream.take_error() {
            return Err(error);
        }
    }
    passes.decode += start.elapsed();
    let start = Instant::now();
    let mut stream = reader.stream_merged();
    std::hint::black_box((&mut stream).count());
    if let Some(error) = stream.take_error() {
        return Err(error);
    }
    passes.merged += start.elapsed();
    let start = Instant::now();
    std::hint::black_box(reader.run_parallel(CountSink::default())?);
    passes.parallel += start.elapsed();
    Ok(())
}

pub fn run(args: &Args, ops: &mut Ops) -> Metrics {
    let mut metrics = Metrics::default();
    let mut setup_tracer = Tracer::new(args.trace);
    let (setup, setup_s) = crate::repeat_setup(SETUPS, |last| {
        let mut off = Tracer::new(false);
        let tracer = if last { &mut setup_tracer } else { &mut off };
        setup(args, tracer, args.trace && last)
    });
    metrics.put("setup_s", setup_s);
    let Some(setup) = ops.op("set up", setup) else {
        return metrics;
    };
    let mut rss = PeakRss::default();

    let mut rates = Vec::new();
    let mut restarts_ms = Vec::new();
    let mut block_ms = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut memory = Tracer::new(true);
    let mut passes = ReadPasses::default();
    let mut traced_iterations = 0u32;
    crate::repeat_for(
        args.seconds,
        MIN_ITERATIONS * (1 + args.trace as usize),
        |i| {
            let trace_this = args.trace && i % 2 == 1;
            let mut off = Tracer::new(false);
            let t = if trace_this { &mut tracer } else { &mut off };
            let mut blocks = Vec::new();
            rss.start(ops);
            let root = t.begin("bench", "timed");
            let start = Instant::now();
            let results = t
                .span("read", "open", || {
                    ManifestReader::open_with(&setup.manifest, ReadOptions::default())
                })
                .and_then(|reader| {
                    let targets = Some(&setup.targets);
                    suite(
                        &reader,
                        setup.horizon,
                        targets,
                        t,
                        |r| r.run_parallel(sinks()),
                        &mut blocks,
                    )
                });
            let wall = start.elapsed().as_secs_f64();
            t.end(root);
            rss.stop(ops);
            let Some((results, _)) = ops.op("suite over the manifest", results) else {
                return false;
            };
            ops.succeeded(CALLS.len() as u64);
            ops.check(
                "every result equals the in-memory reference",
                results == setup.reference,
            );
            rates.push(setup.entries as f64 / wall);
            if trace_this {
                traced_walls.push(wall);
            } else {
                plain_walls.push(wall);
                block_ms.extend(blocks);
            }

            // Untimed: a restart of the analysis host over the dataset.
            let start = Instant::now();
            let reopened = recover_dataset(&setup.dir)
                .and_then(|_| ManifestReader::open_with(&setup.manifest, ReadOptions::default()));
            restarts_ms.push(start.elapsed().as_secs_f64() * 1e3);
            ops.op("recover and reopen", reopened);

            if trace_this {
                // Untimed: the same calls over the in-memory dataset, and the
                // read path alone, to split the traced calls into layers.
                traced_iterations += 1;
                let dataset = setup.dataset.as_ref().expect("kept for the traced run");
                let again =
                    suite_in_memory(dataset, setup.horizon, Some(&setup.targets), &mut memory);
                if let Some((again, _)) = ops.op("suite in memory", again) {
                    ops.check(
                        "in-memory suite repeats the reference",
                        again == setup.reference,
                    );
                }
                ops.op("read passes", read_passes(&setup.manifest, &mut passes));
            }
            ops.failed == 0
        },
    );
    rss.put(&mut metrics);
    if rates.is_empty() {
        return metrics;
    }
    metrics.put("entries_per_s", crate::stats::median(&rates));
    metrics.put("bytes_per_entry", setup.bytes as f64 / setup.entries as f64);
    metrics.put("restart_ms", crate::stats::median(&restarts_ms));
    crate::put_lags(&mut metrics, ops, &[block_ms]);

    if args.trace && traced_iterations > 0 {
        let n = f64::from(traced_iterations);
        // The layers up to the store ran in the set-up's collection.
        setup.collected.put_layers(&setup_tracer, &mut metrics);
        let manifest_s: f64 = CALLS.iter().map(|c| tracer.total_s(c)).sum();
        let memory_s: f64 = CALLS.iter().map(|c| memory.total_s(c)).sum();
        for (call, name) in CALLS.iter().zip([
            "analysis.preprocess_s",
            "analysis.sinks_s",
            "analysis.netsize_s",
            "analysis.attacks_s",
            "analysis.powerlaw_s",
        ]) {
            metrics.put(name, memory.total_s(call) / n);
        }
        let open_s = tracer.total_s("open");
        let decode_s = passes.decode.as_secs_f64();
        metrics.put("read.open_s", open_s / n);
        metrics.put("read.decode_s", decode_s / n);
        metrics.put(
            "read.decode_mb_per_s",
            setup.bytes as f64 * n / 1e6 / decode_s,
        );
        metrics.put("read.merge_s", (passes.merged.as_secs_f64() - decode_s) / n);
        metrics.put("read.share", 1.0 - memory_s / manifest_s);
        println!(
            "read share: 1 - {memory_s:.4} s in memory / {manifest_s:.4} s over the manifest \
             ({traced_iterations} traced iterations)"
        );
        // Layer split of the traced suite: three calls stream the merged
        // entries (preprocess, netsize, attacks) and one runs per-monitor
        // workers (sinks); the read passes time exactly those reads alone.
        let read_s = 3.0 * passes.merged.as_secs_f64() + passes.parallel.as_secs_f64();
        let rows = [("read", open_s + read_s), ("analysis", manifest_s - read_s)];
        crate::finish_trace(
            &tracer,
            &rows,
            &plain_walls,
            &traced_walls,
            args,
            ops,
            &mut metrics,
        );
    }
    metrics
}
