//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions. A boundary crossed once per record (a `MonitorSink`
//! callback, a service `ingest`) is kept as an aggregate — call count plus
//! total time — attached to the span it ran inside, instead of one span
//! per call. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
}

#[derive(Debug, Clone)]
struct Aggregate {
    layer: &'static str,
    name: &'static str,
    parent: Option<usize>,
    calls: u64,
    total: Duration,
}

/// Records spans and aggregates; see the module docs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregates: Vec<Aggregate>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end = Some(self.origin.elapsed());
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `calls` calls totalling `total` at a high-frequency boundary
    /// inside the innermost open span.
    pub fn aggregate(
        &mut self,
        layer: &'static str,
        name: &'static str,
        calls: u64,
        total: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        match self
            .aggregates
            .iter_mut()
            .find(|a| a.layer == layer && a.name == name && a.parent == parent)
        {
            Some(a) => {
                a.calls += calls;
                a.total += total;
            }
            None => self.aggregates.push(Aggregate {
                layer,
                name,
                parent,
                calls,
                total,
            }),
        }
    }

    fn duration(&self, span: usize) -> Duration {
        let s = &self.spans[span];
        s.end.expect("span closed").saturating_sub(s.start)
    }

    /// A span's duration minus the time its child spans and the aggregates
    /// recorded inside it cover.
    fn self_time(&self, span: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(span))
            .map(|(i, _)| self.duration(i))
            .sum();
        let aggregates: Duration = self
            .aggregates
            .iter()
            .filter(|a| a.parent == Some(span))
            .map(|a| a.total)
            .sum();
        self.duration(span).saturating_sub(children + aggregates)
    }

    /// Self time per layer, in seconds, over every closed span and
    /// aggregate.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for i in 0..self.spans.len() {
            *out.entry(self.spans[i].layer).or_insert(0.0) += self.self_time(i).as_secs_f64();
        }
        for a in &self.aggregates {
            *out.entry(a.layer).or_insert(0.0) += a.total.as_secs_f64();
        }
        out
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration(i).as_secs_f64())
            .sum()
    }

    /// `(calls, total seconds)` of the aggregates named `name`.
    pub fn aggregate_totals(&self, name: &str) -> (u64, f64) {
        self.aggregates
            .iter()
            .filter(|a| a.name == name)
            .fold((0, 0.0), |(c, t), a| {
                (c + a.calls, t + a.total.as_secs_f64())
            })
    }

    /// Writes every span and aggregate as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{i},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.layer,
                s.name,
                s.start.as_micros(),
                s.end.map_or(0, |e| e.as_micros()),
            )?;
        }
        for a in &self.aggregates {
            writeln!(
                out,
                "{{\"aggregate\":\"{}\",\"parent\":{},\"layer\":\"{}\",\"calls\":{},\"total_us\":{}}}",
                a.name,
                a.parent.map_or("null".to_string(), |p| p.to_string()),
                a.layer,
                a.calls,
                a.total.as_micros(),
            )?;
        }
        out.flush()
    }
}

/// Times `f` when `on`, adding its duration to `acc`; no clock read
/// otherwise. For boundaries recorded as aggregates.
#[inline]
pub fn timed<R>(on: bool, acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    if on {
        let start = Instant::now();
        let out = f();
        *acc += start.elapsed();
        out
    } else {
        f()
    }
}

/// Prints the per-layer self-time table against the traced wall time and
/// returns whether the layers add up to within `tolerance` of it.
pub fn print_sum_check(rows: &[(&str, f64)], wall_s: f64, tolerance: f64) -> bool {
    let sum: f64 = rows.iter().map(|(_, s)| s).sum();
    println!("{:<12} {:>10} {:>7}", "layer", "self_s", "share");
    for (layer, s) in rows {
        println!("{layer:<12} {s:>10.4} {:>6.1}%", 100.0 * s / wall_s);
    }
    let gap = (sum - wall_s).abs() / wall_s;
    let ok = gap <= tolerance;
    println!(
        "{:<12} {sum:>10.4} vs traced wall {wall_s:.4} s: gap {:.1}% (limit {:.0}%) {}",
        "sum",
        100.0 * gap,
        100.0 * tolerance,
        if ok { "OK" } else { "FAIL" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn self_time_excludes_child_spans_and_aggregates() {
        let mut t = Tracer::new(true);
        let root = t.begin("bench", "phase");
        let run = t.begin("sim", "run");
        sleep(Duration::from_millis(20));
        t.aggregate("collect", "record", 1000, Duration::from_millis(30));
        let ckpt = t.begin("store", "checkpoint");
        sleep(Duration::from_millis(10));
        t.end(ckpt);
        sleep(Duration::from_millis(40));
        t.end(run);
        t.end(root);

        let layers = t.layer_self_s();
        // The aggregate was recorded inside `run` but claimed 30 ms that
        // never elapsed there; self time subtracts it all the same.
        let expected = t.total_s("run") - t.total_s("checkpoint") - 0.030;
        assert!((layers["sim"] - expected).abs() < 1e-9);
        assert!(layers["sim"] >= 0.055 - 0.030, "{}", layers["sim"]);
        assert!(layers["bench"] < 0.005, "root holds only glue");
        assert_eq!(t.aggregate_totals("record"), (1000, 0.030));
        assert!((layers["collect"] - 0.030).abs() < 1e-9);
        let sum: f64 = layers.values().sum();
        assert!(
            (sum - t.total_s("phase")).abs() < 1e-9,
            "self times partition the root"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("sim", "run");
        t.aggregate("collect", "record", 1, Duration::from_millis(1));
        t.end(id);
        assert!(t.layer_self_s().is_empty());
        let mut acc = Duration::ZERO;
        assert_eq!(timed(false, &mut acc, || 7), 7);
        assert_eq!(acc, Duration::ZERO);
    }
}
