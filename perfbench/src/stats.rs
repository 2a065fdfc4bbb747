//! Order statistics, open-loop lag and resident-memory probes.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` (nearest rank), but only when at least
/// `min_beyond` samples lie strictly above the selected rank: a tail
/// percentile read from fewer samples than that is noise.
pub fn supported_percentile(values: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= min_beyond).then(|| sorted[rank - 1])
}

/// The open-loop schedule of the `service` workload: event time divided by
/// a fixed speed-up, anchored at the wall instant the feed started.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub feed_origin_ms: u64,
    pub speedup: f64,
}

impl Schedule {
    /// Wall instant an entry stamped `event_ms` is due.
    pub fn due(&self, event_ms: u64) -> Instant {
        let event = event_ms.saturating_sub(self.feed_origin_ms) as f64 / 1000.0;
        self.start + Duration::from_secs_f64(event / self.speedup)
    }
}

/// Lag of each delivered window in milliseconds: the wall time from the
/// due time of the window's last entry to the return of the call that
/// delivered its line. Measured from the due time rather than from when
/// the entry was actually sent, so a stalled call delays every later
/// window and the stall is counted. Windows without entries have no due
/// time and give no sample.
pub fn window_lags(last_due: &[Option<Instant>], delivered: &[(u64, Instant)]) -> Vec<f64> {
    delivered
        .iter()
        .filter_map(|&(index, at)| {
            let due = (*last_due.get(index as usize)?)?;
            Some(at.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Peak resident set size of this process since the last [`reset_peak_rss`],
/// in MiB, from the kernel's `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the kernel's resident high-water mark to the current resident
/// size (`5` written to `/proc/self/clear_refs`), so [`peak_rss_mb`]
/// covers only what runs after this call. Memory the allocator kept from
/// freed set-up data is returned to the system first, or it would count
/// towards the peak by an amount that depends on the set-up's history.
pub fn reset_peak_rss() -> std::io::Result<()> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's thread-safe call that returns free
    // heap pages to the system; it takes no pointers and has no
    // precondition.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, with exactly ten samples above.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&values, 0.99, 10), Some(990.0));
        // 999 samples leave only nine above rank 990: not supported.
        assert_eq!(supported_percentile(&values[..999], 0.99, 10), None);
        // The median of a small sample is fine.
        assert_eq!(supported_percentile(&values[..21], 0.5, 10), Some(11.0));
        assert_eq!(supported_percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn lag_counts_a_stalled_poll_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule {
            start,
            feed_origin_ms: 60_000,
            speedup: 1000.0,
        };
        // Window 0's last entry is due 30 ms in, window 1's 60 ms in;
        // window 2 is empty.
        let last_due = vec![
            Some(schedule.due(90_000)),
            Some(schedule.due(120_000)),
            None,
        ];
        let ms = |v: u64| start + Duration::from_millis(v);
        // Window 0 arrives 5 ms after its due time. A poll stalls until
        // 100 ms, so window 1 is delivered 40 ms after its entry was due
        // even if that entry was only sent when the stall ended.
        let delivered = vec![(0, ms(35)), (1, ms(100)), (2, ms(100))];
        let lags = window_lags(&last_due, &delivered);
        assert_eq!(lags.len(), 2, "the empty window gives no sample");
        assert!((lags[0] - 5.0).abs() < 1e-6, "{lags:?}");
        assert!((lags[1] - 40.0).abs() < 1e-6, "{lags:?}");
    }

    #[test]
    fn peak_rss_reset_forgets_an_earlier_peak() {
        let before = peak_rss_mb().expect("VmHWM readable");
        // Touch 64 MiB so the high-water mark rises, then free it.
        let mut block = vec![0u8; 64 << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&block);
        let raised = peak_rss_mb().expect("VmHWM readable");
        assert!(raised >= before + 60.0, "{before} -> {raised}");
        drop(block);
        reset_peak_rss().expect("clear_refs writable");
        let after = peak_rss_mb().expect("VmHWM readable");
        assert!(after < raised - 60.0, "{raised} -> {after} after reset");
    }
}
