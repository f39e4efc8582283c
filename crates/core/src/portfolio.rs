//! Portfolio solving: the one query executor above the engine.
//!
//! Every dependence query — `apt prove`, `DepTest`, the whole-program
//! analysis, every serve verb — runs through a [`Portfolio`]. Its roster
//! decides what that costs:
//!
//! * **axiomatic** — the induction prover behind [`DepEngine`]; answers
//!   `No` (disjoint, with a machine-checkable [`crate::Proof`]) or `Yes`
//!   (equality queries). An axiomatic-only roster is the pre-portfolio
//!   query path.
//! * **refuter** — the [`crate::refuter`] bounded concrete-heap search;
//!   answers `Yes` (a definite dependence) with an attached [`Witness`]
//!   heap that re-validates independently.
//!
//! With both engines rostered a query runs staged, on the caller's
//! thread: the axiomatic prover first, and the refuter only on a
//! disjointness query the prover left `Maybe`, under what is left of the
//! query's deadline. Both stages read the caller's own budget, so its
//! cancel token reaches them directly. Engines never share mutable
//! state: the refuter holds no handle to the engine's shared proof cache,
//! and the axiomatic prover publishes definite results only, so a
//! cancelled run cannot pollute anything (`cancelled ⇒ Maybe ⇒` nothing
//! published).
//!
//! Every definite verdict carries a certificate: an engine-issued `No`
//! comes from the axiomatic prover with a checkable proof, and a refuter
//! `Yes` carries a concrete heap checked by [`apt_axioms::check_set`]
//! plus path re-execution. The two certificates exclude each other, so
//! definite verdicts can never disagree unless an engine is unsound.

use crate::config::{Budget, ProverStats};
use crate::deptest::Answer;
use crate::engine::{run_deduped, DepEngine, DepQuery, Outcome, QueryKind};
use crate::goal::Origin;
use crate::refuter::{self, RefuterConfig, RefuterOutcome};
use crate::verdict::{MaybeReason, SearchLimit, Verdict};
use apt_axioms::check::check_set;
use apt_axioms::graph::{HeapGraph, NodeId};
use apt_axioms::AxiomSet;
use apt_regex::{Path, Symbol};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which backend produced an [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The axiomatic induction prover (the default, proof-carrying path).
    Axiomatic,
    /// The bounded concrete-heap refuter.
    Refuter,
}

impl EngineKind {
    /// All engines, in reporting order.
    pub const ALL: [EngineKind; 2] = [EngineKind::Axiomatic, EngineKind::Refuter];

    /// Stable wire/persistence code; round-trips through
    /// [`EngineKind::from_code`].
    pub fn code(&self) -> &'static str {
        match self {
            EngineKind::Axiomatic => "axiomatic",
            EngineKind::Refuter => "refuter",
        }
    }

    /// Parses an [`EngineKind::code`] string.
    pub fn from_code(code: &str) -> Option<EngineKind> {
        Some(match code {
            "axiomatic" => EngineKind::Axiomatic,
            "refuter" => EngineKind::Refuter,
            _ => return None,
        })
    }

    /// Slot of this engine in the tally counters.
    fn index(self) -> usize {
        match self {
            EngineKind::Axiomatic => 0,
            EngineKind::Refuter => 1,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Which engines a portfolio run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSelection {
    /// Run the axiomatic prover.
    pub axiomatic: bool,
    /// Run the bounded-heap refuter.
    pub refuter: bool,
}

impl EngineSelection {
    /// Every engine.
    pub fn all() -> EngineSelection {
        EngineSelection {
            axiomatic: true,
            refuter: true,
        }
    }

    /// The axiomatic prover alone (pre-portfolio behavior).
    pub fn axiomatic_only() -> EngineSelection {
        EngineSelection {
            axiomatic: true,
            refuter: false,
        }
    }

    /// Parses a `--engines` spec: `all`, or a comma-separated subset of
    /// `axiomatic`, `refuter`.
    pub fn parse(spec: &str) -> Result<EngineSelection, String> {
        if spec.trim() == "all" {
            return Ok(EngineSelection::all());
        }
        let mut sel = EngineSelection {
            axiomatic: false,
            refuter: false,
        };
        for part in spec.split(',') {
            match part.trim() {
                "axiomatic" => sel.axiomatic = true,
                "refuter" => sel.refuter = true,
                "" => {}
                other => {
                    return Err(format!(
                        "unknown engine '{other}' (expected all, axiomatic, refuter)"
                    ))
                }
            }
        }
        if sel.count() == 0 {
            return Err("no engines selected".to_string());
        }
        Ok(sel)
    }

    /// Whether `kind` is selected.
    pub fn contains(&self, kind: EngineKind) -> bool {
        match kind {
            EngineKind::Axiomatic => self.axiomatic,
            EngineKind::Refuter => self.refuter,
        }
    }

    /// Number of selected engines.
    pub fn count(&self) -> usize {
        usize::from(self.axiomatic) + usize::from(self.refuter)
    }
}

impl fmt::Display for EngineSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == EngineSelection::all() {
            return f.write_str("all");
        }
        let mut first = true;
        for kind in EngineKind::ALL {
            if self.contains(kind) {
                if !first {
                    f.write_str(",")?;
                }
                f.write_str(kind.code())?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Portfolio tuning knobs.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Engines in play.
    pub engines: EngineSelection,
    /// Largest refuter candidate heap, in nodes (`--refuter-max-heap`).
    pub refuter_max_heap: usize,
}

impl PortfolioConfig {
    /// The axiomatic prover alone, with stock refuter tuning for any
    /// selection that later widens the roster.
    pub fn axiomatic_only() -> PortfolioConfig {
        PortfolioConfig {
            engines: EngineSelection::axiomatic_only(),
            ..PortfolioConfig::default()
        }
    }
}

impl Default for PortfolioConfig {
    /// Every engine.
    fn default() -> Self {
        PortfolioConfig {
            engines: EngineSelection::all(),
            refuter_max_heap: RefuterConfig::default().max_heap_nodes,
        }
    }
}

/// A concrete dependence witness: a small heap satisfying every axiom in
/// which both access paths reach the same node.
///
/// Witnesses are *evidence*, not trust: [`Witness::validate`] re-derives
/// the heap from the edge list, re-checks the axiom set with
/// [`apt_axioms::check_set`], and re-executes both path languages — the
/// same discipline applied to imported proofs (a forged witness is
/// rejected, never believed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Node count; nodes are `0..nodes`.
    pub nodes: usize,
    /// Single-valued field edges `(from, field, to)`.
    pub edges: Vec<(usize, String, usize)>,
    /// The node the first path starts from.
    pub p_origin: usize,
    /// The node the second path starts from (equals `p_origin` for
    /// same-origin queries).
    pub q_origin: usize,
    /// The node both paths reach.
    pub meet: usize,
}

impl Witness {
    /// Rebuilds the heap graph from the edge list.
    ///
    /// Fails on out-of-range nodes or a duplicated `(from, field)` edge
    /// (heaps are single-valued per field).
    pub fn to_heap(&self) -> Result<HeapGraph, String> {
        let mut heap = HeapGraph::new();
        heap.add_nodes(self.nodes);
        for (from, field, to) in &self.edges {
            if *from >= self.nodes || *to >= self.nodes {
                return Err(format!(
                    "witness edge n{from} -{field}-> n{to} out of range (heap has {} nodes)",
                    self.nodes
                ));
            }
            let sym = Symbol::intern(field);
            if heap.edge(NodeId(*from), sym).is_some() {
                return Err(format!("witness duplicates edge n{from}.{field}"));
            }
            heap.set_edge(NodeId(*from), sym, NodeId(*to));
        }
        Ok(heap)
    }

    /// The re-check available without the original query's access paths
    /// (the incremental table stores only the query's rendered key):
    /// structural sanity plus axiom conformance of the decoded heap.
    /// Mirrors the proof spot-check run on imported table entries.
    ///
    /// # Errors
    ///
    /// Describes the first structural or axiom violation found.
    pub fn check_heap(&self, axioms: &AxiomSet) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("witness heap has no nodes".to_string());
        }
        for (name, node) in [
            ("p", self.p_origin),
            ("q", self.q_origin),
            ("meet", self.meet),
        ] {
            if node >= self.nodes {
                return Err(format!("witness {name} node n{node} out of range"));
            }
        }
        let heap = self.to_heap()?;
        if let Err(v) = check_set(&heap, axioms) {
            return Err(format!("witness heap violates axiom {}", v.axiom));
        }
        Ok(())
    }

    /// Full independent validation against the query the witness claims
    /// to refute: structural sanity, origin relation, axiom conformance,
    /// and re-execution of both paths to the meet node.
    pub fn validate(
        &self,
        axioms: &AxiomSet,
        origin: Origin,
        a: &Path,
        b: &Path,
    ) -> Result<(), String> {
        self.check_heap(axioms)?;
        match origin {
            Origin::Same if self.p_origin != self.q_origin => {
                return Err("same-origin witness has distinct origins".to_string());
            }
            Origin::Distinct if self.p_origin == self.q_origin => {
                return Err("distinct-origin witness shares its origin".to_string());
            }
            _ => {}
        }
        let heap = self.to_heap()?;
        let meet = NodeId(self.meet);
        if !heap
            .targets(NodeId(self.p_origin), &a.to_regex())
            .contains(&meet)
        {
            return Err(format!(
                "path {a} does not reach n{} from n{}",
                self.meet, self.p_origin
            ));
        }
        if !heap
            .targets(NodeId(self.q_origin), &b.to_regex())
            .contains(&meet)
        {
            return Err(format!(
                "path {b} does not reach n{} from n{}",
                self.meet, self.q_origin
            ));
        }
        Ok(())
    }

    /// A stable single-line encoding for wire frames and snapshot rows.
    /// Round-trips through [`Witness::decode`].
    pub fn encode(&self) -> String {
        let edges: Vec<String> = self
            .edges
            .iter()
            .map(|(f, s, t)| format!("{f}:{s}:{t}"))
            .collect();
        format!(
            "n={};p={};q={};m={};e={}",
            self.nodes,
            self.p_origin,
            self.q_origin,
            self.meet,
            edges.join(",")
        )
    }

    /// Parses an [`Witness::encode`] string.
    pub fn decode(text: &str) -> Option<Witness> {
        let mut nodes = None;
        let mut p = None;
        let mut q = None;
        let mut m = None;
        let mut edges: Option<Vec<(usize, String, usize)>> = None;
        for part in text.trim().split(';') {
            let (key, value) = part.split_once('=')?;
            match key {
                "n" => nodes = Some(value.parse().ok()?),
                "p" => p = Some(value.parse().ok()?),
                "q" => q = Some(value.parse().ok()?),
                "m" => m = Some(value.parse().ok()?),
                "e" => {
                    let mut list = Vec::new();
                    if !value.is_empty() {
                        for edge in value.split(',') {
                            let mut it = edge.split(':');
                            let from = it.next()?.parse().ok()?;
                            let field = it.next()?.to_string();
                            let to = it.next()?.parse().ok()?;
                            if it.next().is_some() || field.is_empty() {
                                return None;
                            }
                            list.push((from, field, to));
                        }
                    }
                    edges = Some(list);
                }
                _ => return None,
            }
        }
        Some(Witness {
            nodes: nodes?,
            edges: edges?,
            p_origin: p?,
            q_origin: q?,
            meet: m?,
        })
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "heap of {} node{} [",
            self.nodes,
            if self.nodes == 1 { "" } else { "s" }
        )?;
        for (i, (from, field, to)) in self.edges.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "n{from} -{field}-> n{to}")?;
        }
        write!(
            f,
            "], p=n{}, q=n{}, meet=n{}",
            self.p_origin, self.q_origin, self.meet
        )
    }
}

/// Cumulative accounting for one engine: every run counts once, as a
/// win or a loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTally {
    /// Runs whose definite verdict was adopted.
    pub wins: u64,
    /// Runs that ended without settling their query.
    pub losses: u64,
    /// Losses that ended because the caller cancelled the query.
    pub cancelled: u64,
}

/// A snapshot of portfolio accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Axiomatic-prover tallies.
    pub axiomatic: EngineTally,
    /// Always zero: the Dyck engine this slot counted was retired. The
    /// field stays so existing readers of the struct keep compiling.
    pub dyck: EngineTally,
    /// Refuter tallies.
    pub refuter: EngineTally,
    /// Dependence witnesses produced (and validated).
    pub witnesses: u64,
}

impl PortfolioStats {
    /// The tally for one engine.
    pub fn tally(&self, kind: EngineKind) -> EngineTally {
        match kind {
            EngineKind::Axiomatic => self.axiomatic,
            EngineKind::Refuter => self.refuter,
        }
    }

    /// Merges another snapshot into this one.
    pub fn merge(&mut self, other: &PortfolioStats) {
        for (mine, theirs) in [
            (&mut self.axiomatic, other.axiomatic),
            (&mut self.refuter, other.refuter),
        ] {
            mine.wins += theirs.wins;
            mine.losses += theirs.losses;
            mine.cancelled += theirs.cancelled;
        }
        self.witnesses += other.witnesses;
    }
}

#[derive(Default)]
struct Counters {
    wins: [AtomicU64; 2],
    losses: [AtomicU64; 2],
    cancelled: [AtomicU64; 2],
    witnesses: AtomicU64,
}

/// A shareable, thread-safe tally store. Clones share the underlying
/// counters, so many portfolios — one per axiom-set group in a batch,
/// one per query in a report loop — aggregate into a single set of
/// per-engine totals that outlives any individual [`Portfolio`].
#[derive(Clone, Default)]
pub struct TallySink {
    counters: Arc<Counters>,
}

impl TallySink {
    /// A fresh sink with zeroed tallies.
    pub fn new() -> TallySink {
        TallySink::default()
    }

    /// A snapshot of the tallies recorded so far.
    pub fn stats(&self) -> PortfolioStats {
        let tally = |kind: EngineKind| {
            let i = kind.index();
            EngineTally {
                wins: self.counters.wins[i].load(Ordering::Relaxed),
                losses: self.counters.losses[i].load(Ordering::Relaxed),
                cancelled: self.counters.cancelled[i].load(Ordering::Relaxed),
            }
        };
        PortfolioStats {
            axiomatic: tally(EngineKind::Axiomatic),
            dyck: EngineTally::default(),
            refuter: tally(EngineKind::Refuter),
            witnesses: self.counters.witnesses.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for TallySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TallySink")
            .field("stats", &self.stats())
            .finish()
    }
}

/// The query executor over a [`DepEngine`]: runs each query on its
/// roster's engines and tallies every engine run.
///
/// Cloning shares the underlying engine caches *and* the portfolio
/// tallies.
#[derive(Clone)]
pub struct Portfolio {
    engine: DepEngine,
    config: PortfolioConfig,
    counters: Arc<Counters>,
}

impl Portfolio {
    /// A portfolio over `engine` with `config`.
    pub fn new(engine: DepEngine, config: PortfolioConfig) -> Portfolio {
        Portfolio {
            engine,
            config,
            counters: Arc::new(Counters::default()),
        }
    }

    /// A portfolio over `engine` with `config` that records its engine
    /// tallies into `sink`, shared with other portfolios and with the
    /// caller, instead of counters of its own.
    pub fn tallied(engine: DepEngine, config: PortfolioConfig, sink: &TallySink) -> Portfolio {
        Portfolio {
            engine,
            config,
            counters: Arc::clone(&sink.counters),
        }
    }

    /// The underlying axiomatic engine.
    pub fn engine(&self) -> &DepEngine {
        &self.engine
    }

    /// The portfolio configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// A sink handle sharing this portfolio's counters.
    pub fn tallies(&self) -> TallySink {
        TallySink {
            counters: Arc::clone(&self.counters),
        }
    }

    /// A snapshot of the cumulative per-engine tallies.
    pub fn stats(&self) -> PortfolioStats {
        self.tallies().stats()
    }

    /// Engines that can actually run `kind`: equality queries are the
    /// axiomatic prover's alone (the refuter decides disjointness), and
    /// a selection without any engine falls back to the axiomatic prover
    /// rather than answering nothing.
    fn roster(&self, kind: QueryKind) -> EngineSelection {
        let sel = self.config.engines;
        if kind == QueryKind::Equal || sel.count() == 0 {
            EngineSelection::axiomatic_only()
        } else {
            sel
        }
    }

    /// Runs `query` when the engine's shared proof cache settles it alone,
    /// giving the outcome and tally [`Portfolio::run`] would: a
    /// disjointness query on the axiomatic prover whose canonical root goal
    /// is cached as proved, or as cleanly failed with no refuter stage to
    /// follow. `None`, with nothing tallied, for every other query,
    /// including one whose budget is already spent (cancelled, or a zero
    /// deadline), since such a run stops before it reads the cache. Builds
    /// one goal and takes one shard lock; shared entries are never removed,
    /// so a query settled once stays settled.
    pub fn run_settled(&self, query: &DepQuery) -> Option<Outcome> {
        let roster = self.roster(query.kind());
        if !roster.axiomatic {
            return None;
        }
        let outcome = self.engine.settled_outcome(query)?;
        if !outcome.is_definite() && roster.refuter {
            return None;
        }
        self.record(EngineKind::Axiomatic, &outcome);
        Some(outcome)
    }

    /// The budget `query` runs under: its override, else the engine's.
    fn budget<'a>(&'a self, query: &'a DepQuery) -> &'a Budget {
        query
            .budget_override()
            .unwrap_or(&self.engine.config().budget)
    }

    /// Runs the refuter on `query` under `budget`.
    fn refute(&self, query: &DepQuery, budget: &Budget) -> Outcome {
        let config = RefuterConfig {
            max_heap_nodes: self.config.refuter_max_heap,
            ..RefuterConfig::default()
        };
        let outcome = refuter::search(
            self.engine.axioms(),
            query.origin_relation(),
            query.a(),
            query.b(),
            budget,
            &config,
        );
        let (verdict, witness) = match outcome {
            RefuterOutcome::Witness(w) => (Verdict::definite(Answer::Yes), Some(w)),
            RefuterOutcome::Exhausted => (
                Verdict::maybe(MaybeReason::SearchExhausted(SearchLimit::Fuel)),
                None,
            ),
            RefuterOutcome::Stopped(reason) => (Verdict::maybe(reason), None),
        };
        let mut stats = ProverStats::default();
        if let Some(reason) = verdict.reason {
            stats.cutoffs.record(reason);
        }
        Outcome {
            verdict,
            proof: None,
            stats,
            engine: EngineKind::Refuter,
            witness,
        }
    }

    /// Tallies one engine run: a win when its definite verdict settles
    /// the query, a loss otherwise.
    fn record(&self, kind: EngineKind, outcome: &Outcome) {
        let i = kind.index();
        if outcome.is_definite() {
            self.counters.wins[i].fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.losses[i].fetch_add(1, Ordering::Relaxed);
            if outcome.verdict.reason == Some(MaybeReason::Cancelled) {
                self.counters.cancelled[i].fetch_add(1, Ordering::Relaxed);
            }
        }
        if outcome.witness.is_some() {
            self.counters.witnesses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs one engine alone, inline, under the query's own budget.
    fn run_alone(&self, kind: EngineKind, query: &DepQuery) -> Outcome {
        let outcome = match kind {
            EngineKind::Axiomatic => self.engine.run(query),
            EngineKind::Refuter => self.refute(query, self.budget(query)),
        };
        self.record(kind, &outcome);
        outcome
    }

    /// Runs one query, staged, on the calling thread: the axiomatic
    /// prover first; a disjointness query it leaves `Maybe` then goes to
    /// the refuter, which gets what is left of the query's deadline. A
    /// refuter-only roster runs the refuter alone.
    pub fn run(&self, query: &DepQuery) -> Outcome {
        let roster = self.roster(query.kind());
        if !roster.axiomatic {
            return self.run_alone(EngineKind::Refuter, query);
        }
        let started = Instant::now();
        let mut outcome = self.run_alone(EngineKind::Axiomatic, query);
        if outcome.is_definite() || !roster.refuter {
            return outcome;
        }
        let budget = self.budget(query);
        let rest = budget.deadline.map(|d| Budget {
            deadline: Some(d.saturating_sub(started.elapsed())),
            ..budget.clone()
        });
        let followup = self.refute(query, rest.as_ref().unwrap_or(budget));
        self.record(EngineKind::Refuter, &followup);
        adopt(&mut outcome, followup);
        outcome
    }

    /// Runs a batch, staged, through the engine's one dedup/fan-out
    /// loop: the axiomatic engine (when selected) first answers every
    /// unique query on cache-shared worker provers, exactly as an
    /// axiomatic-only run would; the refuter then runs only on the
    /// unique disjointness queries left `Maybe`. Each engine run is
    /// tallied once, however many batch positions share it.
    pub fn run_batch(&self, queries: &[DepQuery], jobs: usize) -> Vec<Outcome> {
        let sel = self.config.engines;
        if !sel.axiomatic {
            return run_deduped(queries, jobs, |_| (), |(), q| self.run(q));
        }
        let mut outcomes = run_deduped(
            queries,
            jobs,
            |shares| self.engine.make_prover(shares),
            |(_, prover), q| {
                let outcome = q.run_with(prover);
                self.record(EngineKind::Axiomatic, &outcome);
                outcome
            },
        );
        if !sel.refuter {
            return outcomes;
        }
        let followups: Vec<usize> = (0..queries.len())
            .filter(|&i| !outcomes[i].is_definite() && queries[i].kind() == QueryKind::Disjoint)
            .collect();
        let asked: Vec<DepQuery> = followups.iter().map(|&i| queries[i].clone()).collect();
        let refuted = run_deduped(
            &asked,
            jobs,
            |_| (),
            |(), q| self.run_alone(EngineKind::Refuter, q),
        );
        for (slot, followup) in followups.into_iter().zip(refuted) {
            adopt(&mut outcomes[slot], followup);
        }
        outcomes
    }
}

/// The adoption rule for a refuter follow-up to an axiomatic `Maybe`: a
/// definite refutation replaces the axiomatic outcome. Otherwise the
/// axiomatic outcome stands, since its degradation pedigree is the
/// richest, except that a follow-up stopped by the caller's deadline or
/// cancellation passes on that reason: a retry with more budget could
/// still settle the query. Either way the adopted outcome's stats account
/// both runs.
fn adopt(axiomatic: &mut Outcome, mut followup: Outcome) {
    if followup.is_definite() {
        followup.stats.merge(&axiomatic.stats);
        *axiomatic = followup;
        return;
    }
    axiomatic.stats.merge(&followup.stats);
    if matches!(
        followup.verdict.reason,
        Some(MaybeReason::Cancelled | MaybeReason::DeadlineExceeded)
    ) {
        axiomatic.verdict = followup.verdict;
    }
}

impl fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Portfolio")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CancelToken;
    use apt_axioms::adds::leaf_linked_tree_axioms;
    use std::time::Duration;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn portfolio() -> Portfolio {
        Portfolio::new(
            DepEngine::new(leaf_linked_tree_axioms()),
            PortfolioConfig::default(),
        )
    }

    #[test]
    fn selection_parses_and_displays() {
        assert_eq!(
            EngineSelection::parse("all").unwrap(),
            EngineSelection::all()
        );
        let sel = EngineSelection::parse("refuter").unwrap();
        assert!(!sel.axiomatic && sel.refuter);
        assert_eq!(sel.to_string(), "refuter");
        assert_eq!(
            EngineSelection::parse("refuter, axiomatic").unwrap(),
            EngineSelection::all()
        );
        assert_eq!(EngineSelection::all().to_string(), "all");
        assert_eq!(EngineSelection::axiomatic_only().to_string(), "axiomatic");
        assert!(EngineSelection::parse("frobnicate").is_err());
        assert!(EngineSelection::parse("").is_err());
        // The retired Dyck engine is an unknown name like any other, and
        // the error lists what is left.
        let err = EngineSelection::parse("dyck").unwrap_err();
        assert!(err.contains("expected all, axiomatic, refuter"), "{err}");
    }

    #[test]
    fn engine_kind_codes_roundtrip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(EngineKind::from_code("nope"), None);
    }

    #[test]
    fn witness_encoding_roundtrips() {
        let w = Witness {
            nodes: 4,
            edges: vec![
                (0, "L".to_string(), 1),
                (1, "L".to_string(), 2),
                (2, "N".to_string(), 3),
            ],
            p_origin: 0,
            q_origin: 0,
            meet: 3,
        };
        let text = w.encode();
        assert_eq!(Witness::decode(&text), Some(w));
        assert_eq!(Witness::decode("garbage"), None);
        assert_eq!(
            Witness::decode("n=2;p=0;q=0;m=1;e=0:L:9"),
            Some(Witness {
                nodes: 2,
                edges: vec![(0, "L".into(), 9)],
                p_origin: 0,
                q_origin: 0,
                meet: 1
            })
        );
    }

    #[test]
    fn witness_validation_rejects_forgeries() {
        let axioms = leaf_linked_tree_axioms();
        // Out-of-range edge.
        let w = Witness::decode("n=2;p=0;q=0;m=1;e=0:L:9").unwrap();
        assert!(w.validate(&axioms, Origin::Same, &p("L"), &p("L")).is_err());
        // Axiom-violating heap: one node reached by both L and R.
        let w = Witness {
            nodes: 2,
            edges: vec![(0, "L".into(), 1), (0, "R".into(), 1)],
            p_origin: 0,
            q_origin: 0,
            meet: 1,
        };
        assert!(w.validate(&axioms, Origin::Same, &p("L"), &p("R")).is_err());
        // Paths that don't reach the claimed meet.
        let w = Witness {
            nodes: 2,
            edges: vec![(0, "L".into(), 1)],
            p_origin: 0,
            q_origin: 0,
            meet: 1,
        };
        assert!(w.validate(&axioms, Origin::Same, &p("R"), &p("R")).is_err());
    }

    #[test]
    fn staged_run_adopts_a_definite_verdict() {
        let portfolio = portfolio();
        // Provable disjointness: the axiomatic prover proves it; the
        // refuter cannot find a collision. The verdict must be No.
        let q = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")).origin(Origin::Same);
        let out = portfolio.run(&q);
        assert_eq!(out.verdict.answer, Answer::No);
        assert!(out.is_definite());
        assert_eq!(out.engine, EngineKind::Axiomatic);
        assert!(out.proof.is_some(), "an engine-issued No carries a proof");
    }

    #[test]
    fn refuter_stage_resolves_known_maybe_with_witness() {
        let portfolio = portfolio();
        // Identical overlapping paths: the prover can only say Maybe,
        // the refuter finds a concrete collision.
        let q = DepQuery::disjoint(&p("L.L.N"), &p("L.L.N")).origin(Origin::Same);
        let out = portfolio.run(&q);
        assert_eq!(out.verdict.answer, Answer::Yes);
        assert_eq!(out.engine, EngineKind::Refuter);
        let w = out.witness.expect("refuter verdicts carry witnesses");
        w.validate(
            portfolio.engine().axioms(),
            Origin::Same,
            &p("L.L.N"),
            &p("L.L.N"),
        )
        .expect("witness must re-validate");
        assert!(portfolio.stats().witnesses >= 1);
    }

    #[test]
    fn refuter_verdicts_do_not_depend_on_field_interning_order() {
        // One tree axiom set, written with its sibling fields in either
        // order. Each set uses fields no other test interns, so parsing
        // it decides their interning order: name order for the first,
        // reverse name order for the second.
        for (left, right) in [("ordA", "ordB"), ("ordD", "ordC")] {
            let text = format!(
                "A1: forall p, p.{left} <> p.{right}\n\
                 A2: forall p <> q, p.({left}|{right}) <> q.({left}|{right})\n\
                 A3: forall p, p.({left}|{right})+ <> p.eps"
            );
            let portfolio = Portfolio::new(
                DepEngine::new(AxiomSet::parse(&text).unwrap()),
                PortfolioConfig::default(),
            );
            // The larger-named field alone lies in the starred language,
            // so the shortest witness is a single edge.
            let larger = left.max(right);
            let q = DepQuery::disjoint(&p(&format!("({left}|{right})+")), &p(larger));
            let out = portfolio.run(&q);
            assert_eq!(out.verdict.answer, Answer::Yes, "{text}: {out:?}");
            assert_eq!(out.engine, EngineKind::Refuter, "{text}");
        }
    }

    #[test]
    fn equality_queries_stay_axiomatic() {
        let portfolio = portfolio();
        let q = DepQuery::equal(&p("L"), &p("L"));
        let out = portfolio.run(&q);
        assert_eq!(out.engine, EngineKind::Axiomatic);
        assert_eq!(out.verdict.answer, Answer::Yes);
    }

    #[test]
    fn batch_matches_solo_runs() {
        let portfolio = portfolio();
        let queries = vec![
            DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")),
            DepQuery::disjoint(&p("L.L.N"), &p("L.L.N")),
            DepQuery::disjoint(&p("L.N"), &p("R.N")),
            DepQuery::equal(&p("L"), &p("L")),
        ];
        let batch = portfolio.run_batch(&queries, 4);
        let solo = Portfolio::new(
            DepEngine::new(leaf_linked_tree_axioms()),
            PortfolioConfig::default(),
        );
        for (q, out) in queries.iter().zip(&batch) {
            let alone = solo.run(q);
            assert_eq!(
                alone.verdict.answer, out.verdict.answer,
                "batch/solo verdict flip on {q:?}"
            );
        }
    }

    #[test]
    fn proven_queries_never_start_the_refuter() {
        let portfolio = portfolio();
        let q = DepQuery::disjoint(&p("L.L*"), &p("R.R*")).origin(Origin::Same);
        let out = portfolio.run(&q);
        assert_eq!(out.verdict.answer, Answer::No);
        let stats = portfolio.stats();
        assert_eq!(
            stats.refuter,
            EngineTally::default(),
            "a proven query leaves the refuter unstarted: {stats:?}"
        );
        assert_eq!(out.stats.cutoffs, Default::default(), "{:?}", out.stats);
    }

    #[test]
    fn caller_cancellation_stops_the_refuter_stage_within_bounded_delay() {
        // Starved of fuel, the prover leaves the query Maybe at once; under
        // a 24-node cap the refuter then model-checks thousands of
        // candidate heaps, none a witness. A caller token cancelled from
        // another thread once the axiomatic run is tallied must stop it.
        let portfolio = Portfolio::new(
            DepEngine::new(leaf_linked_tree_axioms()),
            PortfolioConfig {
                refuter_max_heap: 24,
                ..PortfolioConfig::default()
            },
        );
        let token = CancelToken::new();
        let q = DepQuery::disjoint(&p("L.L*"), &p("R.R*"))
            .origin(Origin::Distinct)
            .with_budget(Budget::new().with_fuel(1).with_cancel(token.clone()));
        let tallies = portfolio.tallies();
        let canceller = std::thread::spawn(move || {
            while tallies.stats().axiomatic.losses == 0 {
                std::thread::yield_now();
            }
            token.cancel();
            Instant::now()
        });
        let out = portfolio.run(&q);
        let delay = canceller.join().unwrap().elapsed();
        assert!(
            delay < std::time::Duration::from_secs(5),
            "the refuter stage ran on {delay:?} after cancellation"
        );
        assert_eq!(out.verdict, Verdict::maybe(MaybeReason::Cancelled));
        let stats = portfolio.stats();
        assert_eq!(
            stats.refuter,
            EngineTally {
                wins: 0,
                losses: 1,
                cancelled: 1
            },
            "{stats:?}"
        );
        assert_eq!(stats.axiomatic.cancelled, 0, "{stats:?}");
    }

    #[test]
    fn refuter_stage_gets_only_what_is_left_of_the_deadline() {
        // A deadline the axiomatic stage has already spent: the refuter
        // stops at its first poll instead of settling this refutable
        // query.
        let portfolio = portfolio();
        let q = DepQuery::disjoint(&p("L.L.N"), &p("L.L.N"))
            .with_budget(Budget::new().with_deadline(std::time::Duration::ZERO));
        let out = portfolio.run(&q);
        assert_eq!(out.verdict, Verdict::maybe(MaybeReason::DeadlineExceeded));
        let stats = portfolio.stats();
        assert_eq!(
            stats.refuter,
            EngineTally {
                wins: 0,
                losses: 1,
                cancelled: 0
            },
            "{stats:?}"
        );
        assert_eq!(stats.witnesses, 0);
        assert_eq!(out.stats.cutoffs.fuel, 0, "the refuter never searched");
        // With time left over, the same refuter stage settles the query.
        let q = q.with_budget(Budget::new().with_deadline(std::time::Duration::from_secs(600)));
        assert_eq!(portfolio.run(&q).verdict.answer, Answer::Yes);
    }

    #[test]
    fn cancelled_runs_do_not_publish_into_the_shared_cache() {
        let engine = DepEngine::new(leaf_linked_tree_axioms());
        let token = CancelToken::new();
        token.cancel();
        let mut budget = engine.config().budget.clone();
        budget.cancel = Some(token);
        let q = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N"))
            .origin(Origin::Same)
            .with_budget(budget);
        let out = engine.run(&q);
        assert_eq!(out.verdict.reason, Some(MaybeReason::Cancelled));
        let cache = engine.cache_stats();
        assert_eq!(
            (cache.proved_goals, cache.failed_goals),
            (0, 0),
            "a cancelled run must not publish goal entries: {cache:?}"
        );
        // The same query re-proves cleanly afterwards — no poisoned entry.
        let clean = engine.run(&DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")).origin(Origin::Same));
        assert_eq!(clean.verdict.answer, Answer::No);
        assert!(clean.is_definite());
    }

    #[test]
    fn staged_runs_agree_with_solo_runs() {
        let queries = [
            DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")).origin(Origin::Same),
            DepQuery::disjoint(&p("L.L.N"), &p("L.L.N")).origin(Origin::Same),
        ];
        for q in &queries {
            let staged = portfolio().run(q);
            for kind in EngineKind::ALL {
                let solo = Portfolio::new(
                    DepEngine::new(leaf_linked_tree_axioms()),
                    PortfolioConfig {
                        engines: EngineSelection {
                            axiomatic: kind == EngineKind::Axiomatic,
                            refuter: kind == EngineKind::Refuter,
                        },
                        ..PortfolioConfig::default()
                    },
                )
                .run(q);
                if solo.is_definite() && staged.is_definite() {
                    assert_eq!(
                        solo.verdict.answer, staged.verdict.answer,
                        "solo {kind} disagrees with the staged run on {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tallies_accumulate() {
        // Proven: one axiomatic run, a win; the refuter never starts.
        let portfolio = portfolio();
        let _ = portfolio.run(&DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")));
        let stats = portfolio.stats();
        assert_eq!(
            stats.axiomatic,
            EngineTally {
                wins: 1,
                ..Default::default()
            }
        );
        assert_eq!(stats.refuter, EngineTally::default(), "{stats:?}");
        // Refuted: an axiomatic loss, then a refuter win.
        let _ = portfolio.run(&DepQuery::disjoint(&p("L.L.N"), &p("L.L.N")));
        let stats = portfolio.stats();
        assert_eq!(
            stats.axiomatic,
            EngineTally {
                wins: 1,
                losses: 1,
                cancelled: 0
            }
        );
        assert_eq!(
            stats.refuter,
            EngineTally {
                wins: 1,
                ..Default::default()
            }
        );
        assert_eq!(stats.witnesses, 1);
        assert_eq!(
            stats.dyck,
            EngineTally::default(),
            "the retired slot stays zero"
        );
    }

    #[test]
    fn batches_tally_each_engine_run_once() {
        let portfolio = portfolio();
        let overlap = DepQuery::disjoint(&p("L.L.N"), &p("L.L.N"));
        let queries = vec![
            overlap.clone(),
            overlap,
            // No equality axioms: L and R are never proved equal.
            DepQuery::equal(&p("L"), &p("R")),
        ];
        let outs = portfolio.run_batch(&queries, 2);
        assert_eq!(outs[0].verdict.answer, Answer::Yes);
        assert_eq!(outs[1].verdict.answer, Answer::Yes);
        assert_eq!(outs[2].verdict.answer, Answer::Maybe);
        let stats = portfolio.stats();
        assert_eq!(
            stats.refuter.wins + stats.refuter.losses,
            1,
            "the duplicated Maybe is refuted once: {stats:?}"
        );
        assert_eq!(
            stats.axiomatic.wins + stats.axiomatic.losses,
            2,
            "one axiomatic run per unique query: {stats:?}"
        );
        assert_eq!(stats.axiomatic.losses, 2, "{stats:?}");
        assert_eq!(stats.witnesses, 1, "{stats:?}");

        // Without the duplicate, the unsettled equality query must still
        // count: a disjoint follow-up does not hide it.
        let portfolio = self::portfolio();
        let _ = portfolio.run_batch(&queries[1..], 2);
        let stats = portfolio.stats();
        assert_eq!(
            stats.axiomatic.wins + stats.axiomatic.losses,
            2,
            "{stats:?}"
        );
    }

    #[test]
    fn settled_queries_are_answered_from_the_shared_cache_alone() {
        let engine = DepEngine::new(leaf_linked_tree_axioms());
        let solo = Portfolio::new(engine.clone(), PortfolioConfig::axiomatic_only());
        let all = Portfolio::new(engine, PortfolioConfig::default());
        let proved = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N"));
        // The canonical root is what the cache holds: the mirrored query
        // is the same goal.
        let mirrored = DepQuery::disjoint(&p("L.R.N"), &p("L.L.N"));
        let failed = DepQuery::disjoint(&p("L.L.N"), &p("L.L.N"));
        assert!(
            solo.run_settled(&proved).is_none(),
            "a cold engine settles nothing"
        );
        let cold = solo.run(&proved);
        assert_eq!(cold.verdict.answer, Answer::No);
        assert!(cold.stats.goals_attempted > 0);
        let settled = solo.run_settled(&mirrored).expect("the mirror is settled");
        assert!(
            all.run_settled(&proved).is_some(),
            "a proved root never reaches the refuter"
        );
        let warm = solo.run(&mirrored);
        assert_eq!(warm.verdict.answer, Answer::No);
        assert_eq!(
            (warm.stats.goals_attempted, warm.stats.shared_hits),
            (0, 1),
            "{:?}",
            warm.stats
        );
        assert_eq!(settled.verdict, warm.verdict);
        assert_eq!(settled.stats, warm.stats);
        assert_eq!(
            settled.proof.map(|p| p.to_string()),
            warm.proof.map(|p| p.to_string())
        );

        // A clean failure settles the prover alone; the refuter would
        // still follow it.
        let maybe = solo.run(&failed);
        assert_eq!(maybe.verdict, Verdict::maybe(MaybeReason::GenuinelyUnknown));
        assert!(solo.run_settled(&failed).is_some());
        assert!(all.run_settled(&failed).is_none());
        let again = solo.run(&failed);
        assert_eq!(again.verdict, maybe.verdict);
        assert_eq!(again.stats.goals_attempted, 0, "{:?}", again.stats);

        // Equality queries never read the goal cache, and a spent budget
        // stops the run before it does.
        assert!(solo
            .run_settled(&DepQuery::equal(&p("L"), &p("L")))
            .is_none());
        let token = CancelToken::new();
        token.cancel();
        for spent in [
            Budget::new().with_cancel(token),
            Budget::new().with_deadline(Duration::ZERO),
        ] {
            assert!(solo
                .run_settled(&proved.clone().with_budget(spent))
                .is_none());
        }
        assert!(solo
            .run_settled(&proved.with_budget(Budget::new().with_fuel(0)))
            .is_some());

        // A settled run is tallied as `run` tallies it; a declined one
        // not at all.
        let tally = |p: &Portfolio| (p.stats().axiomatic.wins, p.stats().axiomatic.losses);
        assert_eq!(tally(&solo), (4, 3));
        assert_eq!(tally(&all), (1, 0));
        assert_eq!(all.stats().refuter, EngineTally::default());
    }

    #[test]
    fn one_engine_rosters_run_inline_under_the_callers_budget() {
        let solo = || {
            Portfolio::new(
                DepEngine::new(leaf_linked_tree_axioms()),
                PortfolioConfig::axiomatic_only(),
            )
        };
        let engine = || DepEngine::new(leaf_linked_tree_axioms());
        let q = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N"));
        let warm = solo();
        let out = warm.run(&q);
        let alone = engine().run(&q);
        assert_eq!(out.verdict, alone.verdict);
        assert_eq!(
            out.proof.map(|p| p.to_string()),
            alone.proof.map(|p| p.to_string())
        );
        assert_eq!(out.stats, alone.stats);
        // A starved override degrades the inline run exactly as it
        // degrades the engine.
        let starved = q.clone().with_budget(Budget::new().with_fuel(1));
        let cold = solo();
        let out = cold.run(&starved);
        assert!(out.verdict.is_degraded(), "{:?}", out.verdict);
        assert_eq!(out.verdict, engine().run(&starved).verdict);
        for (portfolio, won) in [(warm, true), (cold, false)] {
            let stats = portfolio.stats();
            let expected = (u64::from(won), u64::from(!won));
            assert_eq!((stats.axiomatic.wins, stats.axiomatic.losses), expected);
            assert_eq!(stats.refuter, EngineTally::default());
        }
    }
}
