//! Host-time measurement: the only place the benchmark reads the host
//! clock, and the order statistics it reports.

use std::time::Instant;

/// A running host-clock interval.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        #[allow(clippy::disallowed_methods)]
        // es-allow(wall-clock): the benchmark measures host time around calls into the system; no reading feeds simulated state
        let now = Instant::now();
        Stopwatch(now)
    }

    /// Host seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.seconds())
}

/// Host nanoseconds per call of `f`, repeating it until at least
/// `budget_s` has passed (and at least once). `f` returns how many
/// calls one invocation made.
pub fn ns_per_call(budget_s: f64, mut f: impl FnMut() -> u64) -> f64 {
    let watch = Stopwatch::start();
    let mut calls = 0u64;
    loop {
        calls += f();
        let spent = watch.seconds();
        if spent >= budget_s {
            return spent * 1e9 / calls.max(1) as f64;
        }
    }
}

/// The median of `values` (the mean of the middle pair for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `pct` percentile of `values`.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (pct as usize * v.len()).div_ceil(100).max(1);
    v[rank.min(v.len()) - 1]
}

/// The highest whole percentile of `n` samples that leaves at least
/// `beyond` samples above its nearest rank.
pub fn tail_percentile(n: usize, beyond: usize) -> u32 {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= beyond)
        .unwrap_or(50)
}

/// Peak resident memory of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(100, 10), 90);
        assert_eq!(tail_percentile(160, 10), 93);
        assert_eq!(tail_percentile(240, 10), 95);
        for n in [20, 57, 160, 999] {
            let p = tail_percentile(n, 10);
            assert!(n - (p as usize * n).div_ceil(100) >= 10, "n={n} p={p}");
        }
    }
}
