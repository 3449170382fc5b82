//! Timing, sample statistics, output checks and the metric rows both
//! runs emit.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Starts a host-time measurement.
pub fn now() -> Instant {
    // lint:allow(determinism) host-time measurement of the benchmark itself; never feeds simulator results
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated `q`-quantile of `xs` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of `n` samples that still has [`TAIL_SAMPLES`]
/// samples beyond it, as `(percentile, 1-based rank in ascending order)`
/// under the nearest-rank definition: rank `n - 10`, percentile
/// `100 * rank / n`. `None` below 11 samples.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    let rank = n.checked_sub(TAIL_SAMPLES).filter(|&r| r > 0)?;
    Some((100.0 * rank as f64 / n as f64, rank))
}

/// One metric row: a median (or exact value) with its unit and spread.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared.
    pub unit: String,
    /// The reported value: the median for a timing.
    pub value: f64,
    /// Samples behind the value (1 for an exact count).
    pub n: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// The value at the highest percentile with ten samples beyond it
    /// (see [`tail_percentile`]), 0 below 11 samples.
    pub tail: f64,
    /// That percentile, 0 below 11 samples.
    pub tail_pct: f64,
}

impl Metric {
    /// An exact value (a count or a derived ratio).
    pub fn exact(name: &str, unit: &str, value: f64) -> Metric {
        Metric::times(name, unit, &[value])
    }

    /// The median of time-like samples (larger is slower), with its
    /// spread; the tail is the `rank`-th smallest sample.
    pub fn times(name: &str, unit: &str, samples: &[f64]) -> Metric {
        Metric::summarise(name, unit, samples, false)
    }

    /// The median of rates (larger is faster). The tail percentile is
    /// taken on the replay times, so it is the `rank`-th largest rate.
    pub fn rates(name: &str, unit: &str, samples: &[f64]) -> Metric {
        Metric::summarise(name, unit, samples, true)
    }

    fn summarise(name: &str, unit: &str, samples: &[f64], rate: bool) -> Metric {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_pct, tail) = match tail_percentile(sorted.len()) {
            Some((pct, rank)) if rate => (pct, sorted[sorted.len() - rank]),
            Some((pct, rank)) => (pct, sorted[rank - 1]),
            None => (0.0, 0.0),
        };
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: finite(median(&sorted)),
            n: sorted.len() as u64,
            min: finite(sorted.first().copied().unwrap_or(0.0)),
            max: finite(sorted.last().copied().unwrap_or(0.0)),
            tail: finite(tail),
            tail_pct,
        }
    }

    /// The human-readable line: `workload metric value unit n=… …`.
    pub fn line(&self, workload: &str) -> String {
        let mut s = format!(
            "{workload} {} {} {} n={}",
            self.name,
            fmt_num(self.value),
            self.unit,
            self.n
        );
        if self.n > 1 {
            s.push_str(&format!(
                " min={} max={}",
                fmt_num(self.min),
                fmt_num(self.max)
            ));
        }
        if self.tail_pct > 0.0 {
            s.push_str(&format!(" p{:.1}={}", self.tail_pct, fmt_num(self.tail)));
        }
        s
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

/// Renders a JSON tree as text, on one line or indented.
pub fn json_text(v: serde::Value, pretty: bool) -> String {
    struct Raw(serde::Value);
    impl Serialize for Raw {
        fn to_value(&self) -> serde::Value {
            self.0.clone()
        }
    }
    let text = if pretty {
        serde_json::to_string_pretty(&Raw(v))
    } else {
        serde_json::to_string(&Raw(v))
    };
    text.expect("invariant: a Value tree serialises")
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Millions of references per second for `refs` replayed in `secs`.
pub fn mrefs_per_s(refs: usize, secs: f64) -> f64 {
    ratio(refs as f64, secs) / 1e6
}

/// Output checks: every comparison the run makes, and the ones that
/// failed, with a note each.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it for the failure note.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let note = what();
            eprintln!("benchmark: check failed: {note}");
            self.failures.push(note);
        }
    }

    /// Runs an engine self-check that reports by panicking.
    pub fn check_no_panic(&mut self, what: &str, f: impl FnOnce()) {
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_ok();
        self.check(ok, || format!("{what} panicked"));
    }

    /// Folds another run's checks into this one.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The cost of one `Instant::now()` + `elapsed()` pair, in ns: the median
/// of many back-to-back pairs. Subtracted from every sampled access time.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = Vec::with_capacity(20_001);
    for _ in 0..20_001 {
        let t = now();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// `d` in nanoseconds, saturating at `u32::MAX`.
pub fn nanos_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 9.0);
        assert_eq!(quantile(&xs, 0.25), 3.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.3), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        // With 11 samples only the extreme sample has ten beyond it.
        let (pct, rank) = tail_percentile(11).expect("11 samples");
        assert_eq!(rank, 1);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        let (pct, rank) = tail_percentile(1000).expect("1000 samples");
        assert_eq!(rank, 990);
        assert!((pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn metric_tail_follows_the_replay_times() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let m = Metric::rates("ulc_maps", "Mrefs/s", &xs);
        assert_eq!(m.value, 6.0);
        assert_eq!((m.min, m.max, m.n), (1.0, 11.0, 11));
        assert_eq!(m.tail, 11.0, "p9.1 of the times is the fastest replay");
        assert_eq!(
            m.line("w"),
            "w ulc_maps 6 Mrefs/s n=11 min=1 max=11 p9.1=11"
        );
        assert_eq!(Metric::times("setup_s", "s", &xs).tail, 1.0);
        let exact = Metric::exact("levels.ulc.miss", "count", 7.0);
        assert_eq!(exact.line("w"), "w levels.ulc.miss 7 count n=1");
        assert_eq!(Metric::exact("x", "ratio", f64::NAN).value, 0.0);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || "fine".into());
        c.check(false, || "broken".into());
        c.check_no_panic("quiet", || {});
        assert_eq!((c.attempted, c.failed), (3, 1));
        assert_eq!(c.failures, vec!["broken".to_string()]);
    }

    #[test]
    fn helpers_guard_zero_denominators() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mrefs_per_s(2_000_000, 0.5), 4.0);
        assert!(peak_rss_mib() >= 0.0);
    }
}
