//! Batched-engine throughput: sequential prover-per-query vs. the
//! [`DepEngine`] on the Figure 7 / sparse-matrix query suites.
//!
//! The sequential baseline is the pre-engine workflow: every query gets
//! its own [`Prover`], so nothing is reused between queries. The engine
//! runs the same suite as one batch per jobs level, sharing its
//! proof/subset/DFA caches across queries (and across threads when more
//! than one worker is available). The speedup reported against the
//! baseline therefore measures what the batch API buys on a real query
//! mix: cross-query proof reuse first, parallel fan-out second.
//!
//! Verdicts are compared query-by-query against the sequential baseline;
//! any divergence is a correctness bug and fails the run.

use apt_axioms::adds::sparse_matrix_axioms;
use apt_core::{Answer, DepEngine, DepQuery, MaybeReason, Origin, Prover, ProverConfig};
use apt_regex::Path;
use std::fmt::Write as _;
use std::time::Instant;

/// Configuration for the batch throughput run.
#[derive(Debug, Clone)]
pub struct BatchBenchConfig {
    /// Maximum chain depth of the generated query family; the suite holds
    /// `2·depth² + depth` queries.
    pub depth: usize,
    /// Timing repetitions per measurement (the best run is reported).
    pub reps: usize,
    /// Worker counts to measure.
    pub jobs: Vec<usize>,
}

impl Default for BatchBenchConfig {
    fn default() -> BatchBenchConfig {
        BatchBenchConfig {
            depth: 6,
            reps: 3,
            jobs: vec![1, 2, 4, 8],
        }
    }
}

impl BatchBenchConfig {
    /// The 1-repetition, small-suite configuration used by CI smoke runs.
    pub fn smoke() -> BatchBenchConfig {
        BatchBenchConfig {
            depth: 3,
            reps: 1,
            jobs: vec![1, 4],
        }
    }
}

/// The Figure 7 query family over the Appendix A sparse-matrix axioms:
/// concrete instances of Theorem T (`ncolE^i <> nrowE^j.ncolE+`), the
/// row-walk loop-carried shape (`ncolE^i <> ncolE+.ncolE^i`), and the
/// `nrowE`/`ncolE` equality probes the analysis phrases at loop heads.
pub fn figure7_suite(depth: usize) -> Vec<DepQuery> {
    let chain = |sym: &str, n: usize| vec![sym.to_owned(); n].join(".");
    let path = |s: &str| Path::parse(s).expect("suite path parses");
    let mut suite = Vec::new();
    for i in 1..=depth {
        for j in 1..=depth {
            // Theorem T, instantiated: row i's walk vs. a row j further on.
            suite.push(
                DepQuery::disjoint(
                    &path(&chain("ncolE", i)),
                    &path(&format!("{}.ncolE+", chain("nrowE", j))),
                )
                .origin(Origin::Same),
            );
            // Loop-carried row walk: iteration i vs. a later iteration.
            suite.push(
                DepQuery::disjoint(
                    &path(&chain("ncolE", i)),
                    &path(&format!("ncolE+.{}", chain("ncolE", j))),
                )
                .origin(Origin::Same),
            );
        }
        // Equality probes (all unprovable here — worst-case search).
        suite.push(DepQuery::equal(
            &path(&chain("ncolE", i)),
            &path(&chain("nrowE", i)),
        ));
    }
    suite
}

/// The verdict fingerprint compared across execution strategies.
pub type VerdictKey = (Answer, Option<MaybeReason>, bool);

fn fingerprint(outcome: &apt_core::Outcome) -> VerdictKey {
    (
        outcome.verdict.answer,
        outcome.verdict.reason,
        outcome.proof.is_some(),
    )
}

/// One measured jobs level.
#[derive(Debug, Clone)]
pub struct JobsRow {
    /// Worker threads used.
    pub jobs: usize,
    /// Best-of-reps wall time, microseconds.
    pub micros: u128,
    /// Queries per second at that time.
    pub throughput_qps: f64,
    /// Speedup over the sequential prover-per-query baseline.
    pub speedup: f64,
    /// Whether every verdict matched the sequential baseline.
    pub verdicts_identical: bool,
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct BatchBenchResult {
    /// Number of queries in the suite.
    pub queries: usize,
    /// Best-of-reps sequential wall time, microseconds.
    pub sequential_micros: u128,
    /// One row per measured jobs level.
    pub rows: Vec<JobsRow>,
}

impl BatchBenchResult {
    /// The speedup at the given jobs level, if measured.
    pub fn speedup_at(&self, jobs: usize) -> Option<f64> {
        self.rows.iter().find(|r| r.jobs == jobs).map(|r| r.speedup)
    }

    /// Whether every engine run reproduced the sequential verdicts.
    pub fn all_verdicts_identical(&self) -> bool {
        self.rows.iter().all(|r| r.verdicts_identical)
    }

    /// Renders the result as a JSON object (`BENCH_batch.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"suite\": \"figure7-sparse-matrix\",");
        let _ = writeln!(s, "  \"queries\": {},", self.queries);
        let _ = writeln!(s, "  \"sequential_micros\": {},", self.sequential_micros);
        let _ = writeln!(
            s,
            "  \"verdicts_identical\": {},",
            self.all_verdicts_identical()
        );
        s.push_str("  \"runs\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"jobs\": {}, \"micros\": {}, \"throughput_qps\": {:.1}, \
                 \"speedup_vs_sequential\": {:.2}, \"verdicts_identical\": {}}}",
                row.jobs, row.micros, row.throughput_qps, row.speedup, row.verdicts_identical
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Runs the suite sequentially (a fresh prover per query) and through the
/// engine at each configured jobs level, timing both and checking that
/// every engine verdict matches the sequential one.
pub fn run(config: &BatchBenchConfig) -> BatchBenchResult {
    let axioms = sparse_matrix_axioms();
    let suite = figure7_suite(config.depth);
    let reps = config.reps.max(1);

    // Sequential baseline: the pre-engine workflow, one prover per query.
    let mut baseline: Vec<VerdictKey> = Vec::new();
    let mut sequential_micros = u128::MAX;
    for rep in 0..reps {
        let started = Instant::now();
        let verdicts: Vec<VerdictKey> = suite
            .iter()
            .map(|q| {
                let mut prover = Prover::with_config(&axioms, ProverConfig::default());
                fingerprint(&q.clone().run_with(&mut prover))
            })
            .collect();
        sequential_micros = sequential_micros.min(started.elapsed().as_micros());
        if rep == 0 {
            baseline = verdicts;
        }
    }

    let mut rows = Vec::new();
    for &jobs in &config.jobs {
        let mut micros = u128::MAX;
        let mut verdicts_identical = true;
        for _ in 0..reps {
            // A fresh engine per repetition: every run pays its own
            // cache warm-up, so repetitions are comparable.
            let engine = DepEngine::with_config(axioms.clone(), ProverConfig::default());
            let started = Instant::now();
            let outcomes = engine.run_batch(&suite, jobs);
            micros = micros.min(started.elapsed().as_micros());
            verdicts_identical &= outcomes.len() == baseline.len()
                && outcomes
                    .iter()
                    .zip(&baseline)
                    .all(|(o, b)| fingerprint(o) == *b);
        }
        let secs = micros as f64 / 1e6;
        rows.push(JobsRow {
            jobs,
            micros,
            throughput_qps: if secs > 0.0 {
                suite.len() as f64 / secs
            } else {
                f64::INFINITY
            },
            speedup: sequential_micros as f64 / micros.max(1) as f64,
            verdicts_identical,
        });
    }
    BatchBenchResult {
        queries: suite.len(),
        sequential_micros,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_verdict_identical() {
        let result = run(&BatchBenchConfig::smoke());
        assert!(result.queries > 0);
        assert!(result.all_verdicts_identical());
        let json = result.to_json();
        assert!(json.contains("\"verdicts_identical\": true"), "{json}");
        assert!(json.contains("\"jobs\": 4"), "{json}");
    }
}
