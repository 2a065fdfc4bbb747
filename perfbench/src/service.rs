//! `service`: the continuous monitor, fed in an open loop, killed halfway
//! and restarted.

use crate::stats::{window_lags, Schedule};
use crate::trace::{timed, Tracer};
use crate::{Args, Metrics, Ops, PeakRss};
use ipfs_monitoring::core::{
    MonitorCollector, MonitorService, ServiceConfig, TraceEntry, TraceSource, WINDOW_DIR_NAME,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::tracestore::{RecoveryReport, SegmentError, Storage, StorageFile};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Population of the simulated day of feed.
const NODES: usize = 2_000;
/// Entries kept of the simulated day. Entry rates differ between seeds by
/// about ±20 % (per-node request rates are heavy-tailed), so the day is
/// sampled down to a fixed count: every seed offers the same load, and the
/// seed decides which entries survive.
const FEED_ENTRIES: usize = 200_000;
/// Event time runs this many times faster than wall time during replay,
/// so a day takes 19.2 s. With [`TICK_MS`] it makes a window's lag mostly
/// the wait for the next tick (up to 67 ms) plus the tick's work, which
/// keeps lag steady against host hiccups of tens of milliseconds. The
/// service is then busy about a tenth of the time on a 2-vCPU x86-64 host
/// (`service.busy_frac`); at twice the speed and a 2-minute tick its lag
/// spread 0.2–0.5 between runs.
const SPEEDUP: f64 = 4_500.0;
/// The feeder checkpoints and polls the service every this many event
/// milliseconds (five one-minute windows).
const TICK_MS: u64 = 300_000;
const SETUPS: usize = 3;
/// Extra reopens per cycle, each over a copy of the killed service's
/// directory, so `restart_ms` is a median of several opens of the same
/// state rather than of one open per cycle.
const RESTART_PROBES: usize = 4;
/// Cycles per untraced run; `restart_ms` and the lag metrics are medians
/// over them, so one disturbed cycle (often the first) does not move them.
const MIN_CYCLES: usize = 3;

/// One simulated day of monitor feed and its fault-free window lines.
struct Feed {
    labels: Vec<String>,
    entries: Vec<TraceEntry>,
    reference: Vec<String>,
    events: u64,
}

fn setup(args: &Args, tracer: &mut Tracer) -> Result<Feed, SegmentError> {
    let mut config = ScenarioConfig::analysis_week(args.seed, NODES);
    config.horizon = SimDuration::from_days(1);
    let (scenario, sources) = tracer.span("workload", "build", || build_scenario_lazy(&config));
    let labels: Vec<String> = scenario.monitors.iter().map(|m| m.label.clone()).collect();
    let mut network = tracer.span("sim", "network", || {
        Network::with_sources(scenario, sources)
    });
    let mut collector = MonitorCollector::new(labels.clone());
    let report = tracer.span("sim", "run", || network.run(&mut collector));
    let dataset = collector.into_dataset();
    let entries = sample(dataset.merged_entries().collect(), args.seed);

    // The reference: the whole feed through one service that never dies.
    let dir = args.work.join("reference");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let (mut service, _) = open_service(&dir, &labels)?;
    for entry in &entries {
        service.ingest(entry)?;
    }
    let reference = service.finish()?.lines;
    std::fs::remove_dir_all(&dir)?;
    Ok(Feed {
        labels,
        entries,
        reference,
        events: report.events_processed,
    })
}

/// Keeps [`FEED_ENTRIES`] of `entries`, chosen by a seeded hash of their
/// position, in their original order.
fn sample(entries: Vec<TraceEntry>, seed: u64) -> Vec<TraceEntry> {
    if entries.len() <= FEED_ENTRIES {
        return entries;
    }
    let key = |i: usize| splitmix64(seed ^ splitmix64(i as u64));
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.select_nth_unstable_by_key(FEED_ENTRIES, |&i| key(i));
    let mut keep = vec![false; entries.len()];
    for &i in &order[..FEED_ENTRIES] {
        keep[i] = true;
    }
    let mut kept: Vec<TraceEntry> = entries
        .into_iter()
        .zip(keep)
        .filter_map(|(entry, keep)| keep.then_some(entry))
        .collect();
    // The collect reuses the day's allocation; give back what the sample
    // does not use, or resident memory would grow with the day's size.
    kept.shrink_to_fit();
    kept
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Real files whose `sync_all` and directory syncs return at once. The
/// service runs on it because fsync latency on a shared disk varies
/// several-fold from minute to minute, which swamps every lag the service
/// has; every other file operation is real. See `README.md`.
struct Unsynced;

struct UnsyncedFile(std::fs::File);

impl std::io::Write for UnsyncedFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl StorageFile for UnsyncedFile {
    fn sync_all(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Storage for Unsynced {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(UnsyncedFile(std::fs::File::create(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_dir(&self, _: &Path) -> std::io::Result<()> {
        Ok(())
    }
}

/// Opens the service over `dir` on [`Unsynced`] storage.
fn open_service(
    dir: &Path,
    labels: &[String],
) -> Result<(MonitorService, RecoveryReport), SegmentError> {
    let storage: Arc<dyn Storage> = Arc::new(Unsynced);
    MonitorService::open_with(dir, labels.to_vec(), ServiceConfig::default(), storage)
}

/// Copies a service directory for a probe reopen: the dataset files are
/// copied, since recovery rewrites them; the window files are hard-linked,
/// since reopening only lists them.
fn copy_dataset(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            std::fs::create_dir_all(&target)?;
            for file in std::fs::read_dir(entry.path())? {
                let file = file?;
                std::fs::hard_link(file.path(), target.join(file.file_name()))?;
            }
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Sleeps (then spins) until `due`; returns the instant it returned.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Window index in a line `{"index":N,...}`.
fn line_index(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"index\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Time spent in each kind of service call (measured when traced).
#[derive(Default)]
struct Calls {
    ingest: (u64, Duration),
    checkpoint: (u64, Duration),
    poll: (u64, Duration),
    finish: (u64, Duration),
    open: (u64, Duration),
    probe: (u64, Duration),
    idle: Duration,
}

impl Calls {
    fn count(&self) -> u64 {
        self.ingest.0 + self.checkpoint.0 + self.poll.0 + self.finish.0 + self.open.0 + self.probe.0
    }

    /// Time inside service calls.
    fn busy(&self) -> Duration {
        self.ingest.1 + self.checkpoint.1 + self.poll.1 + self.finish.1 + self.open.1
    }

    /// Adds the calls to `tracer` as aggregates of the innermost span.
    fn record(&self, tracer: &mut Tracer) {
        for (layer, name, (calls, total)) in [
            ("service", "ingest", self.ingest),
            ("service", "checkpoint", self.checkpoint),
            ("service", "poll", self.poll),
            ("service", "finish", self.finish),
            ("recover", "open", self.open),
            ("recover", "probe", self.probe),
            ("gen", "idle", (0, self.idle)),
        ] {
            tracer.aggregate(layer, name, calls, total);
        }
    }
}

/// What one feed cycle delivered and measured.
struct Cycle {
    wall: Duration,
    /// The reopen after the kill and the probe reopens, in milliseconds.
    restarts_ms: Vec<f64>,
    /// Reopen, re-feed and the replaying first poll.
    outage: Duration,
    lines: Vec<String>,
    lags_ms: Vec<f64>,
    late_ms: Vec<f64>,
    recovery: RecoveryReport,
    refed: u64,
    max_open_windows: usize,
}

/// The open-loop feeder: one thread replays entries at their due time,
/// checkpoints and polls every [`TICK_MS`] of event time, and records when
/// each window line came back.
struct Feeder<'f> {
    feed: &'f Feed,
    schedule: Schedule,
    traced: bool,
    calls: Calls,
    next_tick_ms: u64,
    lines: Vec<String>,
    delivered: Vec<(u64, Instant)>,
    late_ms: Vec<f64>,
}

impl Feeder<'_> {
    /// Waits until `due`, counting the wait as generator idle time and how
    /// late it returned.
    fn wait(&mut self, due: Instant) {
        let entered = Instant::now();
        let now = wait_until(due);
        if self.traced && entered < due {
            self.calls.idle += now - entered;
        }
        self.late_ms.push((now - due).as_secs_f64() * 1e3);
    }

    fn deliver(&mut self, lines: Vec<String>) {
        let now = Instant::now();
        for line in lines {
            if let Some(index) = line_index(&line) {
                self.delivered.push((index, now));
            }
            self.lines.push(line);
        }
    }

    /// Runs every tick due before event time `until_ms`.
    fn ticks_before(
        &mut self,
        service: &mut MonitorService,
        until_ms: u64,
    ) -> Result<(), SegmentError> {
        while self.next_tick_ms <= until_ms {
            self.wait(self.schedule.due(self.next_tick_ms));
            self.next_tick_ms += TICK_MS;
            let traced = self.traced;
            timed(traced, &mut self.calls.checkpoint.1, || {
                service.checkpoint()
            })?;
            self.calls.checkpoint.0 += 1;
            let lines = timed(traced, &mut self.calls.poll.1, || service.poll())?;
            self.calls.poll.0 += 1;
            self.deliver(lines);
        }
        Ok(())
    }

    /// Feeds `entries` on schedule.
    fn feed(
        &mut self,
        service: &mut MonitorService,
        entries: &[TraceEntry],
    ) -> Result<(), SegmentError> {
        for entry in entries {
            let ms = entry.timestamp.as_millis();
            self.ticks_before(service, ms)?;
            self.wait(self.schedule.due(ms));
            timed(self.traced, &mut self.calls.ingest.1, || {
                service.ingest(entry)
            })?;
            self.calls.ingest.0 += 1;
        }
        Ok(())
    }

    fn open(
        &mut self,
        dir: &Path,
    ) -> Result<(MonitorService, RecoveryReport, Duration), SegmentError> {
        let start = Instant::now();
        let (service, recovery) = open_service(dir, &self.feed.labels)?;
        let took = start.elapsed();
        self.calls.open.0 += 1;
        self.calls.open.1 += took;
        Ok((service, recovery, took))
    }
}

/// One cycle: feed the first half, abandon the service as a kill would,
/// reopen, re-feed what was not durable, feed the second half, finish.
///
/// The restart is an outage, not a stall of the running service: the
/// schedule of the second half is shifted by its length (the probe
/// reopens, then the reopen, re-feed and first poll, which replays the
/// recovered chains). `restart_ms` and `recover.outage_ms` report it;
/// without the shift its backlog would make lag p99 a second, noisier
/// restart metric.
fn cycle(feed: &Feed, dir: &Path, traced: bool, calls: &mut Calls) -> Result<Cycle, SegmentError> {
    let entries = &feed.entries;
    let origin_ms = entries.first().map_or(0, |e| e.timestamp.as_millis());
    let start = Instant::now();
    let first_half = Schedule {
        start,
        feed_origin_ms: origin_ms,
        speedup: SPEEDUP,
    };
    let mut feeder = Feeder {
        feed,
        schedule: first_half,
        traced,
        calls: std::mem::take(calls),
        next_tick_ms: (origin_ms / TICK_MS + 1) * TICK_MS,
        lines: Vec::new(),
        delivered: Vec::new(),
        late_ms: Vec::with_capacity(entries.len()),
    };
    let half = entries.len() / 2;

    let (mut service, _, _) = feeder.open(dir)?;
    feeder.feed(&mut service, &entries[..half])?;
    // Abandon without `finish`: buffers are lost and files stay open, as
    // when the process is killed.
    std::mem::forget(service);

    let pause_start = Instant::now();
    let mut restarts_ms = Vec::with_capacity(RESTART_PROBES + 1);
    for k in 0..RESTART_PROBES {
        let probe = dir.with_extension(format!("probe{k}"));
        copy_dataset(dir, &probe)?;
        let start = Instant::now();
        drop(open_service(&probe, &feed.labels)?);
        let took = start.elapsed();
        feeder.calls.probe.0 += 1;
        feeder.calls.probe.1 += took;
        restarts_ms.push(took.as_secs_f64() * 1e3);
        std::fs::remove_dir_all(&probe)?;
    }
    let outage_start = Instant::now();
    let (mut service, recovery, restart) = feeder.open(dir)?;
    restarts_ms.push(restart.as_secs_f64() * 1e3);
    let mut durable = vec![0u64; feed.labels.len()];
    for cursor in &recovery.resume {
        durable[cursor.monitor] = cursor.entries_durable;
    }
    let mut seen = vec![0u64; feed.labels.len()];
    let mut refed = 0;
    for entry in &entries[..half] {
        seen[entry.monitor] += 1;
        if seen[entry.monitor] > durable[entry.monitor] {
            timed(traced, &mut feeder.calls.ingest.1, || service.ingest(entry))?;
            feeder.calls.ingest.0 += 1;
            refed += 1;
        }
    }
    let lines = timed(traced, &mut feeder.calls.poll.1, || service.poll())?;
    feeder.calls.poll.0 += 1;
    feeder.deliver(lines);
    let outage = outage_start.elapsed();
    let second_half = Schedule {
        start: start + pause_start.elapsed(),
        ..first_half
    };
    feeder.schedule = second_half;

    feeder.feed(&mut service, &entries[half..])?;
    let report = timed(traced, &mut feeder.calls.finish.1, || service.finish())?;
    feeder.calls.finish.0 += 1;
    feeder.deliver(report.lines);
    let wall = start.elapsed();

    // Due time of each window's last entry, on the schedule that entry
    // was fed by.
    let window = ServiceConfig::default().window;
    let mut last_due: Vec<Option<Instant>> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let ms = entry.timestamp.as_millis();
        let due = if i < half {
            first_half.due(ms)
        } else {
            second_half.due(ms)
        };
        for index in window.windows_containing(entry.timestamp) {
            let index = index as usize;
            if last_due.len() <= index {
                last_due.resize(index + 1, None);
            }
            last_due[index] = Some(due);
        }
    }

    *calls = feeder.calls;
    Ok(Cycle {
        wall,
        restarts_ms,
        outage,
        lags_ms: window_lags(&last_due, &feeder.delivered),
        lines: feeder.lines,
        late_ms: feeder.late_ms,
        recovery,
        refed,
        max_open_windows: report.max_open_windows,
    })
}

pub fn run(args: &Args, ops: &mut Ops) -> Metrics {
    let mut metrics = Metrics::default();
    let mut setup_tracer = Tracer::new(args.trace);
    let (feed, setup_s) = crate::repeat_setup(SETUPS, |last| {
        let mut off = Tracer::new(false);
        setup(args, if last { &mut setup_tracer } else { &mut off })
    });
    metrics.put("setup_s", setup_s);
    let Some(feed) = ops.op("set up", feed) else {
        return metrics;
    };
    let mut rss = PeakRss::default();

    let entries = feed.entries.len() as f64;
    let mut rates = Vec::new();
    let mut bytes_per_entry = Vec::new();
    let mut restarts_ms = Vec::new();
    let mut lags_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut traced = TracedCycles::default();
    // A traced run needs one plain and one traced cycle.
    let min_cycles = if args.trace { 2 } else { MIN_CYCLES };
    crate::repeat_for(args.seconds, min_cycles, |i| {
        // A traced run alternates plain and traced cycles, so the tracing
        // overhead is measured on the same machine state.
        let trace_this = args.trace && i % 2 == 1;
        let dir = args.work.join(format!("cycle-{i}"));
        let mut calls = Calls::default();
        let root = if trace_this {
            Some(tracer.begin("bench", "timed"))
        } else {
            None
        };
        rss.start(ops);
        let out = cycle(&feed, &dir, trace_this, &mut calls);
        rss.stop(ops);
        if let Some(root) = root {
            calls.record(&mut tracer);
            tracer.end(root);
        }
        let Some(out) = ops.op("service cycle", out) else {
            return false;
        };
        ops.succeeded(calls.count());
        ops.check(
            "window lines across the kill equal the fault-free reference",
            out.lines == feed.reference,
        );
        let bytes = ops.op(
            "measure dataset",
            crate::dir_bytes(&dir, &[WINDOW_DIR_NAME]),
        );
        rates.push(entries / out.wall.as_secs_f64());
        bytes_per_entry.extend(bytes.map(|b| b as f64 / entries));
        if trace_this {
            traced_walls.push(out.wall.as_secs_f64());
            let segments = ops.op("count segments", count_segments(&dir));
            traced.add(&out, &calls, bytes.unwrap_or(0), segments.unwrap_or(0));
        } else {
            plain_walls.push(out.wall.as_secs_f64());
            restarts_ms.extend_from_slice(&out.restarts_ms);
            lags_ms.push(out.lags_ms);
            late_ms.extend_from_slice(&out.late_ms);
        }
        ops.op("remove dataset", std::fs::remove_dir_all(&dir));
        ops.failed == 0
    });
    rss.put(&mut metrics);
    if plain_walls.is_empty() || bytes_per_entry.is_empty() {
        return metrics;
    }
    metrics.put("entries_per_s", crate::stats::median(&rates));
    metrics.put("bytes_per_entry", crate::stats::median(&bytes_per_entry));
    metrics.put("restart_ms", crate::stats::median(&restarts_ms));
    crate::put_lags(&mut metrics, ops, &lags_ms);

    if args.trace && traced.cycles > 0 {
        let layers = setup_tracer.layer_self_s();
        let sim_self = layers.get("sim").copied().unwrap_or(0.0);
        metrics.put("workload.build_s", setup_tracer.total_s("build"));
        metrics.put("sim.self_s", sim_self);
        metrics.put("sim.events", feed.events as f64);
        metrics.put("sim.events_per_s", feed.events as f64 / sim_self);
        if let Some(p99) = crate::stats::supported_percentile(&late_ms, 0.99, 10) {
            metrics.put("gen.late_p99_ms", p99);
        }
        let late_max = late_ms.iter().copied().fold(0.0, f64::max);
        metrics.put("gen.late_max_ms", late_max);
        let rows = traced.put_layers(&tracer, &mut metrics);
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

fn count_segments(dir: &Path) -> std::io::Result<u64> {
    let mut count = 0;
    for entry in std::fs::read_dir(dir)? {
        if entry?.file_name().to_string_lossy().ends_with(".seg") {
            count += 1;
        }
    }
    Ok(count)
}

/// Totals over the traced cycles.
#[derive(Default)]
struct TracedCycles {
    cycles: u64,
    windows: u64,
    max_open_windows: usize,
    truncated: u64,
    quarantined: u64,
    refed: u64,
    outage: Duration,
    bytes: u64,
    segments: u64,
    busy: Duration,
    wall: Duration,
}

impl TracedCycles {
    fn add(&mut self, cycle: &Cycle, calls: &Calls, bytes: u64, segments: u64) {
        self.cycles += 1;
        self.windows += cycle.lines.len() as u64;
        self.max_open_windows = self.max_open_windows.max(cycle.max_open_windows);
        self.truncated += cycle.recovery.segments_truncated as u64;
        self.quarantined += cycle.recovery.quarantined.len() as u64;
        self.refed += cycle.refed;
        self.outage += cycle.outage;
        self.bytes += bytes;
        self.segments += segments;
        self.busy += calls.busy();
        self.wall += cycle.wall;
    }

    /// Puts the service-side metrics, per cycle. Appending and
    /// checkpointing go through the collection and store layers, so their
    /// metrics here are those of `ingest`, `checkpoint` and `finish`.
    fn put_layers(&self, tracer: &Tracer, metrics: &mut Metrics) -> Vec<(&'static str, f64)> {
        let n = self.cycles as f64;
        for (call, seconds, count) in [
            ("ingest", "service.ingest_s", "service.ingest_calls"),
            (
                "checkpoint",
                "service.checkpoint_s",
                "service.checkpoint_calls",
            ),
            ("poll", "service.poll_s", "service.poll_calls"),
            ("finish", "service.finish_s", "service.finish_calls"),
        ] {
            let (calls, total) = tracer.aggregate_totals(call);
            metrics.put(seconds, total / n);
            metrics.put(count, calls as f64 / n);
        }
        let (ingests, ingest_s) = tracer.aggregate_totals("ingest");
        let (checkpoints, checkpoint_s) = tracer.aggregate_totals("checkpoint");
        metrics.put("collect.record_s", ingest_s / n);
        metrics.put("collect.records", ingests as f64 / n);
        metrics.put("store.checkpoint_s", checkpoint_s / n);
        metrics.put("store.checkpoints", checkpoints as f64 / n);
        metrics.put("store.finish_s", tracer.aggregate_totals("finish").1 / n);
        metrics.put("store.bytes_written", self.bytes as f64 / n);
        metrics.put("store.segments", self.segments as f64 / n);
        metrics.put("service.windows", self.windows as f64 / n);
        metrics.put(
            "service.busy_frac",
            self.busy.as_secs_f64() / self.wall.as_secs_f64(),
        );
        metrics.put("window.max_open", self.max_open_windows as f64);
        metrics.put("recover.truncated", self.truncated as f64 / n);
        metrics.put("recover.quarantined", self.quarantined as f64 / n);
        metrics.put("recover.refed_entries", self.refed as f64 / n);
        metrics.put("recover.outage_ms", self.outage.as_secs_f64() * 1e3 / n);
        let layers = tracer.layer_self_s();
        ["service", "recover", "gen"]
            .iter()
            .map(|&l| (l, layers.get(l).copied().unwrap_or(0.0)))
            .collect()
    }
}
