//! Portfolio Maybe-rate: the axiomatic prover alone vs. the
//! prover-and-refuter race on the Figure 7 sparse-matrix suite plus a
//! family of overlapping-path queries the axioms alone can never settle.
//!
//! The axiomatic prover is refutation-free: a query whose paths *do*
//! collide (an identical-path self query, a chain walk against its own
//! transitive closure) exhausts the axioms and degrades to Maybe. The
//! portfolio's bounded concrete-heap refuter settles exactly those
//! queries with a definite Yes backed by a witness heap, so the headline
//! number here is the Maybe-rate collapse between the two columns.
//!
//! Soundness is checked, not assumed: on every query where both
//! strategies answer definitely the answers must agree, and every
//! witness the portfolio produces is independently re-validated against
//! the axiom set before it is counted. Any violation clears `behaved`
//! and fails the run.

use apt_axioms::adds::sparse_matrix_axioms;
use apt_core::{
    Answer, DepEngine, DepQuery, Origin, Portfolio, PortfolioConfig, PortfolioStats, ProverConfig,
};
use apt_regex::Path;
use std::fmt::Write as _;

/// Configuration for the portfolio Maybe-rate run.
#[derive(Debug, Clone)]
pub struct PortfolioBenchConfig {
    /// Maximum chain depth of the generated query family.
    pub depth: usize,
    /// Largest refuter candidate heap, in nodes.
    pub refuter_max_heap: usize,
}

impl Default for PortfolioBenchConfig {
    fn default() -> PortfolioBenchConfig {
        PortfolioBenchConfig {
            depth: 6,
            refuter_max_heap: 8,
        }
    }
}

impl PortfolioBenchConfig {
    /// The small-suite configuration used by CI smoke runs.
    pub fn smoke() -> PortfolioBenchConfig {
        PortfolioBenchConfig {
            depth: 3,
            refuter_max_heap: 6,
        }
    }
}

/// One suite query, kept as raw paths so a produced witness can be
/// re-validated against them.
#[derive(Debug, Clone)]
pub struct SuiteQuery {
    /// First access path.
    pub a: Path,
    /// Second access path.
    pub b: Path,
    /// Handle relation between the two paths' origins.
    pub origin: Origin,
    /// Query family, for the per-kind breakdown.
    pub kind: &'static str,
}

/// The query suite: the Figure 7 theorem/row-walk instances (provably
/// disjoint — the axiomatic prover's home turf) plus overlapping-path
/// queries (dependence exists — only the refuter can settle them).
pub fn suite(depth: usize) -> Vec<SuiteQuery> {
    let chain = |sym: &str, n: usize| vec![sym.to_owned(); n].join(".");
    let path = |s: &str| Path::parse(s).expect("suite path parses");
    let mut queries = Vec::new();
    for i in 1..=depth {
        for j in 1..=depth {
            queries.push(SuiteQuery {
                a: path(&chain("ncolE", i)),
                b: path(&format!("{}.ncolE+", chain("nrowE", j))),
                origin: Origin::Same,
                kind: "theorem-t",
            });
            queries.push(SuiteQuery {
                a: path(&chain("ncolE", i)),
                b: path(&format!("ncolE+.{}", chain("ncolE", j))),
                origin: Origin::Same,
                kind: "row-walk",
            });
        }
        // The axiomatically-unreachable family: these paths genuinely
        // collide, so no disjointness proof exists — the axiomatic
        // column answers Maybe on every one of them.
        queries.push(SuiteQuery {
            a: path(&chain("ncolE", i)),
            b: path(&chain("ncolE", i)),
            origin: Origin::Same,
            kind: "self-overlap",
        });
        queries.push(SuiteQuery {
            a: path(&chain("ncolE", i)),
            b: path("ncolE+"),
            origin: Origin::Same,
            kind: "suffix-overlap",
        });
    }
    queries
}

/// Per-strategy outcome counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Column {
    /// Definite No answers.
    pub no: usize,
    /// Definite Yes answers.
    pub yes: usize,
    /// Maybe answers.
    pub maybe: usize,
}

impl Column {
    fn bump(&mut self, answer: Answer) {
        match answer {
            Answer::No => self.no += 1,
            Answer::Yes => self.yes += 1,
            Answer::Maybe => self.maybe += 1,
        }
    }
}

/// The full benchmark result.
#[derive(Debug, Clone)]
pub struct PortfolioBenchResult {
    /// Number of queries in the suite.
    pub queries: usize,
    /// Axiomatic-prover-only outcome counts.
    pub axiomatic: Column,
    /// Portfolio outcome counts.
    pub portfolio: Column,
    /// Whether every query both strategies answered definitely agreed.
    pub definite_agreement: bool,
    /// Witness heaps the portfolio produced.
    pub witnesses_produced: usize,
    /// Of those, how many passed independent re-validation.
    pub witnesses_validated: usize,
    /// Per-engine race tallies from the portfolio column.
    pub stats: PortfolioStats,
}

impl PortfolioBenchResult {
    /// The gate the CI bench check enforces: definite verdicts agree,
    /// every witness re-validated, and the portfolio's Maybe count is
    /// strictly below the axiomatic prover's.
    pub fn behaved(&self) -> bool {
        self.definite_agreement
            && self.witnesses_produced == self.witnesses_validated
            && self.portfolio.maybe < self.axiomatic.maybe
    }

    /// Renders the result as a JSON object (`BENCH_portfolio.json`).
    pub fn to_json(&self) -> String {
        let rate = |maybe: usize| {
            if self.queries == 0 {
                0.0
            } else {
                maybe as f64 / self.queries as f64
            }
        };
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"suite\": \"figure7+overlap\",");
        let _ = writeln!(s, "  \"queries\": {},", self.queries);
        let _ = writeln!(
            s,
            "  \"axiomatic\": {{\"no\": {}, \"yes\": {}, \"maybe\": {}, \"maybe_rate\": {:.3}}},",
            self.axiomatic.no,
            self.axiomatic.yes,
            self.axiomatic.maybe,
            rate(self.axiomatic.maybe)
        );
        let _ = writeln!(
            s,
            "  \"portfolio\": {{\"no\": {}, \"yes\": {}, \"maybe\": {}, \"maybe_rate\": {:.3}}},",
            self.portfolio.no,
            self.portfolio.yes,
            self.portfolio.maybe,
            rate(self.portfolio.maybe)
        );
        let _ = writeln!(s, "  \"definite_agreement\": {},", self.definite_agreement);
        let _ = writeln!(s, "  \"witnesses_produced\": {},", self.witnesses_produced);
        let _ = writeln!(
            s,
            "  \"witnesses_validated\": {},",
            self.witnesses_validated
        );
        let _ = writeln!(
            s,
            "  \"wins\": {{\"axiomatic\": {}, \"refuter\": {}}},",
            self.stats.axiomatic.wins, self.stats.refuter.wins
        );
        let _ = writeln!(s, "  \"behaved\": {}", self.behaved());
        s.push_str("}\n");
        s
    }
}

/// Runs the suite twice — axiomatic prover alone, then the full
/// portfolio — and cross-checks the two columns.
pub fn run(config: &PortfolioBenchConfig) -> PortfolioBenchResult {
    let axioms = sparse_matrix_axioms();
    let queries = suite(config.depth);

    let solo = DepEngine::with_config(axioms.clone(), ProverConfig::default());
    let racer = Portfolio::new(
        DepEngine::with_config(axioms.clone(), ProverConfig::default()),
        PortfolioConfig {
            refuter_max_heap: config.refuter_max_heap,
            ..PortfolioConfig::default()
        },
    );

    let mut axiomatic = Column::default();
    let mut portfolio = Column::default();
    let mut definite_agreement = true;
    let mut witnesses_produced = 0usize;
    let mut witnesses_validated = 0usize;
    for q in &queries {
        let dep = DepQuery::disjoint(&q.a, &q.b).origin(q.origin);
        let base = solo.run(&dep);
        let raced = racer.run(&dep);
        axiomatic.bump(base.verdict.answer);
        portfolio.bump(raced.verdict.answer);
        if base.verdict.answer != Answer::Maybe
            && raced.verdict.answer != Answer::Maybe
            && base.verdict.answer != raced.verdict.answer
        {
            definite_agreement = false;
        }
        if let Some(witness) = &raced.witness {
            witnesses_produced += 1;
            if witness.validate(&axioms, q.origin, &q.a, &q.b).is_ok() {
                witnesses_validated += 1;
            }
        }
    }
    PortfolioBenchResult {
        queries: queries.len(),
        axiomatic,
        portfolio,
        definite_agreement,
        witnesses_produced,
        witnesses_validated,
        stats: racer.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_behaves_and_collapses_maybes() {
        let result = run(&PortfolioBenchConfig::smoke());
        assert!(result.queries > 0);
        assert!(result.definite_agreement, "definite verdicts diverged");
        assert_eq!(
            result.witnesses_produced, result.witnesses_validated,
            "a produced witness failed re-validation"
        );
        assert!(
            result.portfolio.maybe < result.axiomatic.maybe,
            "portfolio did not collapse the Maybe count: {} vs {}",
            result.portfolio.maybe,
            result.axiomatic.maybe
        );
        assert!(result.witnesses_produced > 0, "refuter never won");
        let json = result.to_json();
        assert!(json.contains("\"behaved\": true"), "{json}");
    }
}
