//! `collect`: the monitors' long collection — simulate an analysis-week
//! style scenario and record every observation into a manifest dataset.

use crate::digest::Digest;
use crate::trace::{timed, Tracer};
use crate::{Args, Metrics, Ops, PeakRss};
use ipfs_monitoring::core::{ManifestCollector, MonitorCollector, MonitoringDataset, TraceEntry};
use ipfs_monitoring::node::{BitswapObservation, MonitorSink, Network};
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::{
    recover_dataset, DatasetConfig, DatasetSummary, EntryFlags, ManifestReader, SegmentError,
};
use ipfs_monitoring::types::{Multiaddr, PeerId};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Simulated population of the analysis-week preset.
const NODES: usize = 2_000;
/// Horizon of the pilot run that measures a seed's entry rate.
const PILOT_HOURS: u64 = 12;
/// The horizon is `PILOT_HOURS * PILOT_TARGET / pilot entries`, which
/// gives about 0.9 M entries for every seed — far more than the reader's
/// block cache holds.
const PILOT_TARGET: u64 = 1_200_000;
/// The collector checkpoints after every this many records.
const CHECKPOINT_EVERY: u64 = 100_000;
/// Every this many-th record is stamped for the durability-lag sample.
const LAG_SAMPLE_EVERY: u64 = 256;
const SETUPS: usize = 5;
const MIN_ITERATIONS: usize = 3;

/// Counts records: the pilot run's sink.
struct CountSink(u64);

impl MonitorSink for CountSink {
    fn record(&mut self, _: usize, _: BitswapObservation) {
        self.0 += 1;
    }
}

/// The scenario of `collect` and of `study`'s dataset: the analysis-week
/// preset, with the horizon set from a pilot run so that every seed yields
/// about the same number of entries. Per-node request rates are
/// heavy-tailed, so at a fixed horizon the entry count differs between
/// seeds by about ±20 %; equal volumes keep the seeds comparable.
pub fn scenario(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::analysis_week(seed, NODES);
    config.horizon = SimDuration::from_hours(PILOT_HOURS);
    let (pilot, sources) = build_scenario_lazy(&config);
    let mut count = CountSink(0);
    Network::with_sources(pilot, sources).run(&mut count);
    let minutes = PILOT_HOURS * 60 * PILOT_TARGET / count.0.max(1);
    config.horizon = SimDuration::from_mins(minutes);
    config
}

/// The benchmark's `MonitorSink`: forwards every callback to a
/// [`ManifestCollector`], checkpoints it every [`CHECKPOINT_EVERY`]
/// records, folds each forwarded record into a digest, and optionally
/// mirrors everything into an in-memory [`MonitorCollector`].
struct CollectSink {
    collector: ManifestCollector,
    mirror: Option<MonitorCollector>,
    digest: Digest,
    traced: bool,
    callbacks: u64,
    record_time: Duration,
    checkpoints: u64,
    checkpoint_time: Duration,
    checkpoint_error: Option<SegmentError>,
    /// Stamps of sampled records not yet covered by a checkpoint.
    pending: Vec<Instant>,
    lags_ms: Vec<f64>,
}

impl CollectSink {
    /// Records the durability lag of every pending sampled record.
    fn made_durable(&mut self) {
        let now = Instant::now();
        self.lags_ms.extend(
            self.pending
                .drain(..)
                .map(|at| now.duration_since(at).as_secs_f64() * 1e3),
        );
    }
}

impl MonitorSink for CollectSink {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        self.digest.add(
            &TraceEntry {
                timestamp: observation.timestamp,
                peer: observation.peer,
                address: observation.address,
                request_type: observation.request_type,
                cid: observation.cid.clone(),
                monitor,
                flags: EntryFlags::default(),
            },
            false,
        );
        if self.digest.count.is_multiple_of(LAG_SAMPLE_EVERY) {
            self.pending.push(Instant::now());
        }
        if let Some(mirror) = self.mirror.as_mut() {
            mirror.record(monitor, observation.clone());
        }
        self.callbacks += 1;
        timed(self.traced, &mut self.record_time, || {
            self.collector.record(monitor, observation)
        });
        if self.digest.count.is_multiple_of(CHECKPOINT_EVERY) && self.checkpoint_error.is_none() {
            self.checkpoints += 1;
            let result = timed(self.traced, &mut self.checkpoint_time, || {
                self.collector.checkpoint()
            });
            match result {
                Ok(()) => self.made_durable(),
                Err(error) => self.checkpoint_error = Some(error),
            }
        }
    }

    fn peer_connected(&mut self, monitor: usize, peer: PeerId, address: Multiaddr, at: SimTime) {
        if let Some(mirror) = self.mirror.as_mut() {
            mirror.peer_connected(monitor, peer, address, at);
        }
        self.callbacks += 1;
        timed(self.traced, &mut self.record_time, || {
            self.collector.peer_connected(monitor, peer, address, at)
        });
    }

    fn peer_disconnected(&mut self, monitor: usize, peer: PeerId, at: SimTime) {
        if let Some(mirror) = self.mirror.as_mut() {
            mirror.peer_disconnected(monitor, peer, at);
        }
        self.callbacks += 1;
        timed(self.traced, &mut self.record_time, || {
            self.collector.peer_disconnected(monitor, peer, at)
        });
    }
}

/// One collection into `dir`.
pub struct Collected {
    pub summary: DatasetSummary,
    pub digest: Digest,
    pub events: u64,
    pub checkpoints: u64,
    pub lags_ms: Vec<f64>,
    /// The in-memory copy, when asked for.
    pub dataset: Option<MonitoringDataset>,
}

/// Builds the scenario and the simulator, runs it into a manifest dataset
/// in `dir`, and finishes the dataset. Spans go to `tracer`; with
/// `in_memory` the entries are also kept as a [`MonitoringDataset`].
pub fn collect_once(
    config: &ScenarioConfig,
    dir: &Path,
    tracer: &mut Tracer,
    in_memory: bool,
) -> Result<Collected, SegmentError> {
    let (scenario, sources) = tracer.span("workload", "build", || build_scenario_lazy(config));
    let labels: Vec<String> = scenario.monitors.iter().map(|m| m.label.clone()).collect();
    let mut network = tracer.span("sim", "network", || {
        Network::with_sources(scenario, sources)
    });
    let mirror = in_memory.then(|| MonitorCollector::new(labels.clone()));
    let collector = tracer.span("store", "create", || {
        ManifestCollector::new(labels, dir, DatasetConfig::default())
    })?;
    let mut sink = CollectSink {
        collector,
        mirror,
        digest: Digest::default(),
        traced: tracer.enabled(),
        callbacks: 0,
        record_time: Duration::ZERO,
        checkpoints: 0,
        checkpoint_time: Duration::ZERO,
        checkpoint_error: None,
        pending: Vec::new(),
        lags_ms: Vec::new(),
    };
    let run = tracer.begin("sim", "run");
    let report = network.run(&mut sink);
    tracer.aggregate("collect", "record", sink.callbacks, sink.record_time);
    tracer.aggregate(
        "store",
        "checkpoint",
        sink.checkpoints,
        sink.checkpoint_time,
    );
    tracer.end(run);
    if let Some(error) = sink.checkpoint_error.take() {
        return Err(error);
    }
    let CollectSink {
        collector,
        digest,
        checkpoints,
        mut pending,
        mut lags_ms,
        mirror,
        ..
    } = sink;
    let summary = tracer.span("store", "finish", || collector.finish())?;
    let now = Instant::now();
    lags_ms.extend(
        pending
            .drain(..)
            .map(|at| now.duration_since(at).as_secs_f64() * 1e3),
    );
    Ok(Collected {
        summary,
        digest,
        events: report.events_processed,
        checkpoints,
        lags_ms,
        dataset: mirror.map(MonitorCollector::into_dataset),
    })
}

/// Reads the finished dataset back monitor by monitor; returns the digest
/// of every entry and the decode time.
pub fn read_back(manifest: &Path) -> Result<(Digest, Duration), SegmentError> {
    let reader = ManifestReader::open(manifest)?;
    let start = Instant::now();
    let mut digest = Digest::default();
    for monitor in 0..reader.monitor_count() {
        let mut stream = reader.stream_monitor_sorted(monitor);
        for entry in &mut stream {
            digest.add(&entry, false);
        }
        if let Some(error) = stream.take_error() {
            return Err(error);
        }
    }
    Ok((digest, start.elapsed()))
}

pub fn run(args: &Args, ops: &mut Ops) -> Metrics {
    let mut metrics = Metrics::default();
    // Set-up: the pilot run, then the scenario and the simulator, untimed;
    // the timed phase builds them again, so their cost shows in both.
    let (config, setup_s) = crate::repeat_setup(SETUPS, |_| {
        let config = scenario(args.seed);
        let (scenario, sources) = build_scenario_lazy(&config);
        std::hint::black_box(Network::with_sources(scenario, sources));
        config
    });
    metrics.put("setup_s", setup_s);
    let mut rss = PeakRss::default();

    let mut rates = Vec::new();
    let mut bytes_per_entry = Vec::new();
    let mut restarts_ms = Vec::new();
    let mut lags_ms = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut traced = Traced::default();
    crate::repeat_for(
        args.seconds,
        MIN_ITERATIONS * (1 + args.trace as usize),
        |i| {
            // A traced run alternates plain and traced iterations, so the
            // tracing overhead is measured on the same machine state.
            let trace_this = args.trace && i % 2 == 1;
            let dir = args.work.join(format!("iter-{i}"));
            let mut off = Tracer::new(false);
            let t = if trace_this { &mut tracer } else { &mut off };
            rss.start(ops);
            let root = t.begin("bench", "timed");
            let start = Instant::now();
            let collected = collect_once(&config, &dir, t, false);
            let wall = start.elapsed();
            t.end(root);
            rss.stop(ops);
            let Some(mut collected) = ops.op("collect", collected) else {
                return false;
            };
            ops.succeeded(collected.checkpoints + 1);
            let entries = collected.summary.total_entries;
            rates.push(entries as f64 / wall.as_secs_f64());
            lags_ms.push(std::mem::take(&mut collected.lags_ms));
            if trace_this {
                &mut traced_walls
            } else {
                &mut plain_walls
            }
            .push(wall.as_secs_f64());

            // Untimed: read the dataset back and compare, measure it on disk,
            // then time a restart over it.
            let Some((digest, decode)) =
                ops.op("read back", read_back(&collected.summary.manifest_path))
            else {
                return false;
            };
            ops.check(
                "entries read back equal the records forwarded",
                digest == collected.digest && digest.count == entries,
            );
            if let Some(bytes) = ops.op("measure dataset", crate::dir_bytes(&dir, &[])) {
                bytes_per_entry.push(bytes as f64 / entries as f64);
            }
            let start = Instant::now();
            let recovered = ops.op("recover", recover_dataset(&dir));
            restarts_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if let Some(report) = recovered {
                ops.check("restart finds a clean dataset", report.clean);
            }
            if trace_this {
                traced.add(&collected, decode);
            }
            ops.op("remove dataset", std::fs::remove_dir_all(&dir));
            ops.failed == 0
        },
    );
    rss.put(&mut metrics);
    if rates.is_empty() || bytes_per_entry.is_empty() {
        return metrics;
    }
    metrics.put("entries_per_s", crate::stats::median(&rates));
    metrics.put("bytes_per_entry", crate::stats::median(&bytes_per_entry));
    metrics.put("restart_ms", crate::stats::median(&restarts_ms));
    crate::put_lags(&mut metrics, ops, &lags_ms);
    if args.trace && traced.iterations > 0 {
        let rows = traced.put_layers(&tracer, &mut metrics);
        let decode_s = traced.decode.as_secs_f64();
        let n = traced.iterations as f64;
        metrics.put("read.decode_s", decode_s / n);
        metrics.put(
            "read.decode_mb_per_s",
            traced.bytes_written as f64 / 1e6 / decode_s,
        );
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

/// Counts of the traced collections, for the per-layer metrics.
#[derive(Default)]
pub struct Traced {
    iterations: u64,
    events: u64,
    records: u64,
    bytes_written: u64,
    segments: u64,
    decode: Duration,
}

impl Traced {
    pub fn add(&mut self, collected: &Collected, decode: Duration) {
        self.iterations += 1;
        self.events += collected.events;
        self.records += collected.digest.count;
        self.bytes_written += collected.summary.bytes_written;
        self.segments += collected.summary.segment_count as u64;
        self.decode += decode;
    }

    /// Puts the `workload`, `sim`, `collect` and `store` metrics, per
    /// collection, from the spans of `tracer`. Returns the self time of
    /// each of those layers.
    pub fn put_layers(&self, tracer: &Tracer, metrics: &mut Metrics) -> Vec<(&'static str, f64)> {
        let n = self.iterations as f64;
        let layers = tracer.layer_self_s();
        let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
        let (_, record_s) = tracer.aggregate_totals("record");
        let (checkpoints, checkpoint_s) = tracer.aggregate_totals("checkpoint");
        metrics.put("workload.build_s", tracer.total_s("build") / n);
        metrics.put("sim.self_s", layer("sim") / n);
        metrics.put("sim.events", self.events as f64 / n);
        metrics.put("sim.events_per_s", self.events as f64 / layer("sim"));
        metrics.put("collect.record_s", record_s / n);
        metrics.put("collect.records", self.records as f64 / n);
        metrics.put("store.checkpoint_s", checkpoint_s / n);
        metrics.put("store.checkpoints", checkpoints as f64 / n);
        metrics.put("store.finish_s", tracer.total_s("finish") / n);
        metrics.put("store.bytes_written", self.bytes_written as f64 / n);
        metrics.put("store.segments", self.segments as f64 / n);
        ["workload", "sim", "collect", "store"]
            .iter()
            .map(|&l| (l, layer(l)))
            .collect()
    }
}
