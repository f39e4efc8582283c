//! What a run measured and how it is printed.

use crate::checks::Gate;
use crate::stats::{beyond, median, quantile};
use crate::trace::{Totals, Trace};
use apt_core::{CacheStats, ProverStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Length of one traced or untraced block in a traced run. The run
/// alternates blocks so that both see the same drift, and the difference
/// between their caller waits is the tracing overhead.
const BLOCK: Duration = Duration::from_millis(250);

/// Set-up repeats until it has run `MIN_SETUPS` times and for
/// `SETUP_WINDOW` in total. On a shared virtual machine the CPU's speed can
/// shift between two levels for fractions of a second at a time: a median
/// over one short burst of set-ups lands on whichever level the burst met,
/// while a median over a few seconds follows the level that prevails.
const MIN_SETUPS: usize = 3;
const SETUP_WINDOW: Duration = Duration::from_secs(2);

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The timed phase's clock: when it ends and, in a traced run, which
/// blocks record spans.
pub struct Clock {
    start: Instant,
    seconds: Duration,
    traced_run: bool,
}

impl Clock {
    /// Starts the timed phase.
    pub fn start(seconds: f64, traced_run: bool) -> Clock {
        Clock {
            start: Instant::now(),
            seconds: Duration::from_secs_f64(seconds),
            traced_run,
        }
    }

    /// Whether the phase is still running.
    pub fn running(&self) -> bool {
        self.start.elapsed() < self.seconds
    }

    /// Whether the current block records spans.
    pub fn traced_block(&self) -> bool {
        self.traced_run && (self.start.elapsed().as_nanos() / BLOCK.as_nanos()) % 2 == 1
    }

    /// Wall time since the phase began.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// The raw measurements of one run.
#[derive(Default)]
pub struct Measured {
    /// Set-up durations, one per repetition.
    pub setups: Vec<Duration>,
    /// Caller waits in untraced blocks, µs.
    pub waits_us: Vec<f64>,
    /// Caller waits in traced blocks, µs.
    pub traced_waits_us: Vec<f64>,
    /// Queries answered in the timed phase.
    pub answered: u64,
    /// Of those, answered `No` or `Yes`.
    pub definite: u64,
    /// Wall time the timed phase measured.
    pub timed: Duration,
    /// CPU time of the working process over the timed operations.
    pub cpu: Duration,
    /// Peak resident set of the working process, MiB.
    pub peak_rss_mib: f64,
    /// Prover counters summed over the timed phase.
    pub prover: ProverStats,
    /// Engine cache entries created in the timed phase.
    pub cache: CacheStats,
    /// Per-layer counters that only some workloads have.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Whether the set-up should run again.
    pub fn setup_more(&self) -> bool {
        self.setups.len() < MIN_SETUPS || self.setups.iter().sum::<Duration>() < SETUP_WINDOW
    }

    /// Records one caller wait.
    pub fn wait(&mut self, wait: Duration, traced: bool) {
        let us = wait.as_secs_f64() * 1e6;
        if traced {
            self.traced_waits_us.push(us);
        } else {
            self.waits_us.push(us);
        }
        self.timed += wait;
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let setups: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        let mut waits = self.waits_us.clone();
        waits.sort_by(f64::total_cmp);
        let answered = self.answered.max(1) as f64;
        eprintln!(
            "perfbench: {} caller waits; {} above p90, {} above p99; {} set-up repetitions",
            waits.len(),
            beyond(&waits, 0.90),
            beyond(&waits, 0.99),
            setups.len()
        );
        vec![
            metric("setup_s", median(&setups), "s"),
            metric(
                "throughput_qps",
                self.answered as f64 / self.timed.as_secs_f64().max(1e-9),
                "1/s",
            ),
            metric("latency_p50_us", quantile(&waits, 0.50), "us"),
            metric("latency_p90_us", quantile(&waits, 0.90), "us"),
            metric("latency_p99_us", quantile(&waits, 0.99), "us"),
            metric(
                "cpu_us_per_query",
                self.cpu.as_secs_f64() * 1e6 / answered,
                "us",
            ),
            metric("peak_rss_mb", self.peak_rss_mib, "MiB"),
            metric("definite_rate", self.definite as f64 / answered, "ratio"),
        ]
    }

    /// The per-layer metrics, from the counters and the trace.
    pub fn per_layer(&self, trace: &Trace) -> Vec<Metric> {
        let timed = trace.totals(true);
        let setup = trace.totals(false);
        // Traced caller units: the per-unit denominators for span times.
        let units = self.traced_waits_us.len().max(1) as f64;
        let per_unit = |name: &str| -> f64 {
            timed
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / units)
        };
        let per_call = |totals: &BTreeMap<&'static str, Totals>, name: &str| -> f64 {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
        };
        let per_setup = |name: &str| -> f64 {
            setup.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3)
                / self.setups.len().max(1) as f64
        };
        let q = self.answered.max(1) as f64;
        let p = &self.prover;
        let c = &self.cache;
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        let lookups = (p.cache_hits + p.goals_attempted).max(1) as f64;
        let base = median(&self.waits_us).max(1e-9);
        let overhead = (median(&self.traced_waits_us) - base) / base * 100.0;
        // The benchmark's own proof checks run in set-up and in the timed
        // phase alike; the per-call cost takes both.
        let mut checks = timed.get("check.proof").copied().unwrap_or_default();
        if let Some(s) = setup.get("check.proof") {
            checks.count += s.count;
            checks.self_ns += s.self_ns;
        }
        vec![
            metric("ir.parse_us", per_unit("ir.parse"), "us"),
            metric("setup.ir.parse_us", per_setup("ir.parse"), "us"),
            metric("paths.analyze_us", per_unit("paths.analyze"), "us"),
            metric("setup.paths.analyze_us", per_setup("paths.analyze"), "us"),
            metric("paths.queries", count("paths.queries"), "count"),
            metric("paths.run_us", per_unit("paths.run"), "us"),
            metric("paths.replayed", count("paths.replayed"), "count"),
            metric("paths.reproved", count("paths.reproved"), "count"),
            metric("paths.procs_reused", count("paths.procs_reused"), "count"),
            metric("paths.replay_ratio", count("paths.replay_ratio"), "ratio"),
            metric(
                "check.proof_us",
                checks.self_ns as f64 / 1e3 / checks.count.max(1) as f64,
                "us",
            ),
            metric("check.proofs", count("check.proofs"), "count"),
            metric(
                "prover.goals_attempted",
                p.goals_attempted as f64 / q,
                "count",
            ),
            metric("prover.cache_hits", p.cache_hits as f64 / q, "count"),
            metric("prover.shared_hits", p.shared_hits as f64 / q, "count"),
            metric(
                "prover.cache_hit_ratio",
                p.cache_hits as f64 / lookups,
                "ratio",
            ),
            metric("prover.neg_memo_hits", p.neg_memo_hits as f64 / q, "count"),
            metric("prover.dispatch_hits", p.dispatch_hits as f64 / q, "count"),
            metric(
                "prover.dispatch_misses",
                p.dispatch_misses as f64 / q,
                "count",
            ),
            metric("prover.cutoffs", p.cutoffs.total() as f64 / q, "count"),
            metric("engine.proved_goals", c.proved_goals as f64 / q, "count"),
            metric("engine.failed_goals", c.failed_goals as f64 / q, "count"),
            metric("regex.subset_checks", p.subset_checks as f64 / q, "count"),
            metric("regex.subset_results", c.subset_results as f64 / q, "count"),
            metric("regex.dfas", c.dfas as f64 / q, "count"),
            metric("regex.min_dfas", c.min_dfas as f64 / q, "count"),
            metric("regex.raw_dfa_states", c.raw_dfa_states as f64 / q, "count"),
            metric("regex.min_dfa_states", c.min_dfa_states as f64 / q, "count"),
            metric(
                "regex.arena_live_bytes",
                count("regex.arena_live_bytes"),
                "B",
            ),
            metric(
                "regex.arena_freed_total",
                count("regex.arena_freed_total"),
                "count",
            ),
            metric(
                "axioms.compile_us",
                per_call(&setup, "axioms.compile"),
                "us",
            ),
            metric("portfolio.run_us", per_unit("portfolio.run"), "us"),
            metric(
                "portfolio.wins.axiomatic",
                count("portfolio.wins.axiomatic"),
                "count",
            ),
            metric("portfolio.wins.dyck", count("portfolio.wins.dyck"), "count"),
            metric(
                "portfolio.wins.refuter",
                count("portfolio.wins.refuter"),
                "count",
            ),
            metric("portfolio.cancelled", count("portfolio.cancelled"), "count"),
            metric("portfolio.witnesses", count("portfolio.witnesses"), "count"),
            metric(
                "portfolio.useful_ratio",
                count("portfolio.useful_ratio"),
                "ratio",
            ),
            metric("serve.rtt_us", per_unit("serve.request"), "us"),
            metric(
                "serve.request_mean_us",
                count("serve.request_mean_us"),
                "us",
            ),
            metric(
                "serve.queue_wait_mean_us",
                count("serve.queue_wait_mean_us"),
                "us",
            ),
            metric(
                "serve.transport_us",
                if timed.contains_key("serve.request") {
                    per_unit("serve.request") - count("serve.request_mean_us")
                } else {
                    0.0
                },
                "us",
            ),
            metric("serve.daemon_cpu_us", count("serve.daemon_cpu_us"), "us"),
            metric(
                "serve.spawn_ready_us",
                per_call(&setup, "serve.spawn_ready"),
                "us",
            ),
            metric(
                "serve.open_session_us",
                per_call(&setup, "serve.open_session"),
                "us",
            ),
            metric("trace.overhead_pct", overhead, "%"),
            metric("trace.spans", trace.len() as f64, "count"),
        ]
    }
}

/// Cache entries added between two snapshots.
pub fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        proved_goals: after.proved_goals.saturating_sub(before.proved_goals),
        failed_goals: after.failed_goals.saturating_sub(before.failed_goals),
        subset_results: after.subset_results.saturating_sub(before.subset_results),
        dfas: after.dfas.saturating_sub(before.dfas),
        min_dfas: after.min_dfas.saturating_sub(before.min_dfas),
        raw_dfa_states: after.raw_dfa_states.saturating_sub(before.raw_dfa_states),
        min_dfa_states: after.min_dfa_states.saturating_sub(before.min_dfa_states),
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.failed == 0 && gate.attempted > 0,
        gate.attempted.max(1),
        if gate.attempted == 0 { 1 } else { gate.failed }
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
