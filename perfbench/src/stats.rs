//! Order statistics and `/proc` readings.

use std::time::Duration;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the kernel ABI
/// fixes at 100 per second on the architectures this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples strictly above the `q` quantile: the evidence behind a tail.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let cut = quantile(sorted, q);
    sorted.iter().filter(|&&x| x > cut).count()
}

/// Whole-process user+system CPU time of `pid` ("self" for this
/// process), summed over its threads.
pub fn cpu_time(pid: &str) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_secs_f64((tick(11) + tick(12)) as f64 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_readings_are_positive_for_this_process() {
        // Busy for several clock ticks, so the CPU counters must move.
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(100) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        assert!(peak_rss_mib("self") > 0.0);
        assert!(cpu_time("self") > Duration::ZERO);
    }
}
