//! Sample statistics and the metric record every workload reports.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

/// One reported number with the statistic and sample count behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
    /// How `value` was derived from the samples, e.g. `median of passes`.
    pub stat: String,
    /// Samples behind `value`; 0 marks a layer the workload never reaches.
    pub samples: usize,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &str,
        value: f64,
        stat: impl Into<String>,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_string(),
            value,
            stat: stat.into(),
            samples,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `e` of the
/// best fit `y ≈ c·x^e`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Passes every run makes at least: the second is the first repeat of
/// every key and, in a traced run, the first traced pass.
const MIN_PASSES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Runs `body` repeatedly until `window` has elapsed, at least
/// `MIN_PASSES` times. Each call receives its 0-based index.
pub fn for_window(window: Duration, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_PASSES || start.elapsed() < window {
        body(i);
        i += 1;
    }
}

/// Times `f` over enough calls to fill roughly `budget`, returning the
/// mean seconds per call and the call count.
pub fn time_per_call(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < budget {
        f();
        calls += 1;
    }
    (start.elapsed().as_secs_f64() / calls as f64, calls)
}

/// Runs `setup` `SETUPS` times, tearing down each instance but the last,
/// and returns the last instance with the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Metric) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    let metric = Metric::new(
        "setup_s",
        "s",
        median(&times),
        "median of set-ups",
        times.len(),
    );
    (last.expect("at least one set-up"), metric)
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.95), 4.0);
    }

    #[test]
    fn slope_recovers_exponent() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|k| (k as f64, 3.0 * (k as f64).powi(2)))
            .collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
