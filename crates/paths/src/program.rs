//! Whole-program incremental dependence analysis — the `apt analyze`
//! layer.
//!
//! [`analyze_program`] keys every procedure of a multi-procedure IR
//! program, and [`ProgramAnalysis::run`] derives the full dependence
//! table: each procedure's [`Analysis::all_queries`] workload
//! (loop-carried queries plus every pairwise conflict with at least one
//! write), with cross-procedure pairs arising naturally because calls are
//! inlined per call site — a callee's labeled accesses appear in the
//! caller's snapshot set under their `callee@site::label` namespace and
//! pair against the caller's own accesses like any other label.
//!
//! The incremental part is the [`DepTable`]: per procedure it records the
//! definite verdicts keyed by a stable rendering of each query, plus two
//! content hashes — one over the procedure body *and every transitively
//! reachable callee body* (inlining makes callee edits invalidate their
//! callers), one over the program's axiom set. [`ProgramAnalysis::run`]
//! replays a baseline entry only when both hashes match. Everything else
//! (changed procedures, `Maybe` results, rejected entries) is re-proved,
//! so a damaged table can cost warmth but never a wrong verdict:
//!
//! * hash match ⇒ identical procedure text, identical reachable callee
//!   texts, identical axiom text ⇒ the cold analysis would re-derive the
//!   exact same queries and answers (the analysis is a pure function of
//!   those inputs, and [`Analysis::all_queries`] ordering is
//!   deterministic);
//! * a definite verdict is only ever stored with the proofs that earned
//!   it, and an entry from outside the process is audited before any of
//!   it replays.
//!
//! Trust sits at the process boundary. A table [`ProgramAnalysis::run`]
//! returned holds only what this process proved or already audited, so
//! its entries replay with no checker call. A table built any other way
//! — a snapshot restore, a `--baseline` file, a test's hand-made entries,
//! all through [`DepTable::from_procs`] — is untrusted: each hash-matched
//! entry is audited on its first use (structure, [`REPLAY_PROOF_SAMPLE`]
//! stored proofs through [`check_proof`], every witness heap through
//! `check_heap`, the same forged-proof discipline the snapshot restore
//! tier uses), a failure discards the whole entry and the procedure
//! re-proves cold, and the table that run returns is trusted.
//!
//! A warm run pays only for what changed. A run proves every procedure's
//! queries on one [`apt_core::DepEngine`] per distinct valid axiom set,
//! and the table it returns keeps those engines, so the next run against
//! it answers edits, `Maybe`s and proof-less `No`s from their
//! settled-goal caches (§4.2) rather than compiling the axioms again and
//! searching cold. The table likewise keeps each procedure's plan: its
//! query list and keys, and the planned memory-reference pairs of every
//! query its entry cannot replay. The next run executes a carried plan
//! for a procedure whose hashes still match and never runs that
//! procedure's §3.3 analysis; only procedures without one are analyzed,
//! each at most once per [`ProgramAnalysis`]. Engines and plans never
//! reach a snapshot or a `--baseline` file, are carried only to a run
//! over the same axiom text (plans: the same procedure text too), and a
//! carried plan executes like a fresh one, under the current run's
//! rules, budget, roster and tallies.

use crate::analysis::{
    analyze_proc_under, Analysis, BatchOptions, BatchQuery, Engines, Executor, Planned,
};
use crate::QueryError;
use apt_axioms::AxiomSet;
use apt_core::{
    check_proof, Answer, CacheStats, PortfolioConfig, Proof, ProverConfig, TallySink, TestOutcome,
    Witness,
};
use apt_ir::{Block, Program, StmtKind};
use std::collections::{BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// How many stored proofs of a matched entry of an untrusted table are
/// re-verified through [`check_proof`] before the entry's verdicts are
/// replayed. One failure rejects the whole entry.
pub const REPLAY_PROOF_SAMPLE: usize = 8;

/// 64-bit FNV-1a over a byte string: a small, process-stable content
/// hash (no `DefaultHasher`, whose seeds vary per process) for keying
/// persisted table entries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.0
}

/// A running [`fnv1a`] that text can be formatted into directly, so a
/// procedure's hash costs no rendered copy of it.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The stable rendering of a [`BatchQuery`] used as the verdict key in a
/// [`DepTable`] — and as the row label in `apt analyze` output.
pub fn query_key(query: &BatchQuery) -> String {
    let mut key = String::new();
    write_key(&mut key, query);
    key
}

/// Appends the [`query_key`] of `query` to `out`.
fn write_key(out: &mut String, query: &BatchQuery) {
    // Writing to a `String` cannot fail.
    let _ = match query {
        BatchQuery::Sequential { from, to } => write!(out, "{from} vs {to}"),
        BatchQuery::LoopCarried { label, loop_label } => match loop_label {
            Some(l) => write!(out, "carried {label} @ {l}"),
            None => write!(out, "carried {label}"),
        },
    };
}

/// One persisted definite verdict: the query's stable key, the answer,
/// and the evidence that earned it — proof trees for a `No` (nonempty
/// exactly when the prover proved disjointness; a proof-less `No` is a
/// dispatch prune), a concrete dependence [`Witness`] heap for a `Yes`
/// settled by the portfolio's refuter (`None` for the identical-path
/// `Yes`, which needs no evidence).
#[derive(Debug, Clone)]
pub struct StoredVerdict {
    /// [`query_key`] rendering of the query.
    pub query: String,
    /// The definite answer (`Yes` or `No`; `Maybe` is never persisted).
    pub answer: Answer,
    /// The disjointness proofs backing a `No`.
    pub proofs: Vec<Proof>,
    /// The concrete-heap witness backing a refuter `Yes`.
    pub witness: Option<Witness>,
}

/// Whether an accepted entry replays a definite verdict with these
/// proofs. An unproven `No` is unverifiable and never replays; it
/// re-proves at dispatch-prune cost.
fn replays(answer: Answer, proofs: &[Proof]) -> bool {
    answer != Answer::No || !proofs.is_empty()
}

impl StoredVerdict {
    /// Whether an accepted entry replays this verdict (see [`replays`]).
    fn replays(&self) -> bool {
        replays(self.answer, &self.proofs)
    }
}

/// Whether the next run replays this answer from the table entry it goes
/// into.
fn outcome_replays(outcome: &TestOutcome) -> bool {
    outcome.answer != Answer::Maybe && replays(outcome.answer, &outcome.proofs)
}

/// The persisted verdicts of one procedure, keyed by content hashes of
/// everything the analysis depends on.
#[derive(Debug, Clone)]
pub struct ProcVerdicts {
    /// The procedure's name.
    pub proc_name: String,
    /// [`fnv1a`] over the procedure's rendered body plus the rendered
    /// bodies of every transitively reachable callee (sorted by name).
    pub body_hash: u64,
    /// [`fnv1a`] over the program's rendered axiom set.
    pub axioms_hash: u64,
    /// Definite verdicts, in query order.
    pub verdicts: Vec<StoredVerdict>,
}

/// A procedure's queries with their [`query_key`]s, held in one buffer:
/// the keys back to back, each query's labels read off the ends of its
/// key. A table keeps these across many runs, so it keeps them in few
/// allocations.
#[derive(Debug, Default)]
struct QueryList {
    text: String,
    queries: Vec<QueryShape>,
}

/// Where one query's key ends in [`QueryList::text`] (it starts where
/// the previous one ends), and the lengths of its labels.
#[derive(Debug)]
struct QueryShape {
    end: usize,
    /// `Sequential`: the lengths of `from` and `to`; `LoopCarried`: the
    /// lengths of `label` and of `loop_label`, if any.
    first: usize,
    second: Option<usize>,
    carried: bool,
}

impl QueryList {
    fn new(queries: &[BatchQuery]) -> QueryList {
        let mut list = QueryList::default();
        for query in queries {
            write_key(&mut list.text, query);
            let (first, second, carried) = match query {
                BatchQuery::Sequential { from, to } => (from.len(), Some(to.len()), false),
                BatchQuery::LoopCarried { label, loop_label } => {
                    (label.len(), loop_label.as_ref().map(String::len), true)
                }
            };
            list.queries.push(QueryShape {
                end: list.text.len(),
                first,
                second,
                carried,
            });
        }
        list
    }

    /// The keys, in query order.
    fn keys(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.queries.iter().map(|q| q.end));
        starts
            .zip(&self.queries)
            .map(|(start, q)| &self.text[start..q.end])
    }

    /// Each query with its key, in order.
    fn iter(&self) -> impl Iterator<Item = (BatchQuery, &str)> {
        self.keys().zip(&self.queries).map(|(key, q)| {
            // `query_key` renders "{from} vs {to}" and
            // "carried {label}[ @ {loop_label}]".
            let tail = |len: usize| key[key.len() - len..].to_owned();
            let query = if q.carried {
                let at = "carried ".len();
                BatchQuery::LoopCarried {
                    label: key[at..at + q.first].to_owned(),
                    loop_label: q.second.map(tail),
                }
            } else {
                BatchQuery::Sequential {
                    from: key[..q.first].to_owned(),
                    to: tail(q.second.expect("a sequential query has a `to`")),
                }
            };
            (query, key)
        })
    }
}

/// What a run keeps of one procedure, in place of its §3.3 analysis, for
/// the next run over the same text: the query list with its keys, and
/// the plan of every query the run's table entry cannot replay (`Maybe`s,
/// proof-less `No`s, unphrasable queries).
#[derive(Debug)]
struct ProcPlan {
    proc_name: String,
    body_hash: u64,
    axioms_hash: u64,
    queries: QueryList,
    /// Per query, in order: its plan, where the entry cannot replay it
    /// (boxed: most queries replay, and their slots stay one word wide).
    /// Filled in by the run that built the plan, once it knows which of
    /// its answers replay.
    unreplayable: Vec<Option<Box<Planned>>>,
}

/// The plans of `plan`'s queries that `replay` cannot answer, in query
/// order; `None` when the plan lacks one of them.
fn fresh_plans<'p>(
    plan: &'p ProcPlan,
    replay: &HashMap<&str, &StoredVerdict>,
) -> Option<Vec<&'p Planned>> {
    plan.queries
        .keys()
        .zip(&plan.unreplayable)
        .filter(|(key, _)| !replay.contains_key(key))
        .map(|(_, planned)| planned.as_deref())
        .collect()
}

/// A re-proved query's row outcome, and the verdict the table stores
/// for it when the answer is definite.
fn settle(
    key: &str,
    result: Result<TestOutcome, QueryError>,
) -> (RowOutcome, Option<StoredVerdict>) {
    match result {
        Ok(outcome) => {
            let verdict = (outcome.answer != Answer::Maybe).then(|| StoredVerdict {
                query: key.to_owned(),
                answer: outcome.answer,
                proofs: outcome.proofs.clone(),
                witness: outcome.witness.clone(),
            });
            (RowOutcome::Fresh(outcome), verdict)
        }
        Err(e) => (RowOutcome::Error(e), None),
    }
}

/// A whole-program dependence table: per-procedure definite verdicts plus
/// the content hashes that decide whether they may be replayed, and the
/// warm engines and query plans of the run that produced it.
#[derive(Debug, Clone, Default)]
pub struct DepTable {
    /// Per-procedure entries, in program order.
    procs: Vec<ProcVerdicts>,
    /// Whether [`ProgramAnalysis::run`] built this table, so its entries
    /// replay unaudited. Only `run` sets it.
    trusted: bool,
    /// The engines the next run against this table proves on. Memory
    /// only: snapshot sections and `--baseline` files hold the verdicts
    /// alone, and restoring one starts without engines.
    engines: Engines,
    /// Per-procedure plans of the run that built the table. Memory only,
    /// like the engines.
    plans: Vec<Arc<ProcPlan>>,
}

impl DepTable {
    /// An empty table (everything analyzes cold).
    pub fn new() -> DepTable {
        DepTable::default()
    }

    /// An untrusted table of persisted verdicts, with no warm engines and
    /// no plans: what a snapshot or `--baseline` file restores. The first
    /// run against it audits each hash-matched entry before replaying it
    /// (see [`ProgramAnalysis::run`]).
    pub fn from_procs(procs: Vec<ProcVerdicts>) -> DepTable {
        DepTable {
            procs,
            ..DepTable::default()
        }
    }

    /// Per-procedure entries, in program order.
    pub fn procs(&self) -> &[ProcVerdicts] {
        &self.procs
    }

    /// How many warm engines the table carries to the next run: one per
    /// distinct valid axiom set the run that produced it proved under.
    pub fn warm_engines(&self) -> usize {
        self.engines.len()
    }

    /// The entry for a procedure, if present.
    pub fn entry(&self, proc_name: &str) -> Option<&ProcVerdicts> {
        self.procs.iter().find(|p| p.proc_name == proc_name)
    }

    /// The plan carried for a procedure whose text and axioms hash as
    /// given.
    fn plan(&self, proc_name: &str, body_hash: u64, axioms_hash: u64) -> Option<&Arc<ProcPlan>> {
        self.plans.iter().find(|p| {
            p.proc_name == proc_name && p.body_hash == body_hash && p.axioms_hash == axioms_hash
        })
    }

    /// Drops a procedure's entry and plan; returns how many verdicts were
    /// dropped.
    pub fn invalidate_proc(&mut self, proc_name: &str) -> usize {
        let mut dropped = 0;
        self.procs.retain(|p| {
            if p.proc_name == proc_name {
                dropped += p.verdicts.len();
                false
            } else {
                true
            }
        });
        self.plans.retain(|p| p.proc_name != proc_name);
        dropped
    }

    /// Total persisted verdicts across all procedures.
    pub fn total_verdicts(&self) -> usize {
        self.procs.iter().map(|p| p.verdicts.len()).sum()
    }
}

/// One procedure of the program: its name, the content hash keying its
/// table entry, and its §3.3 analysis once a run has needed it.
#[derive(Debug, Clone)]
struct ProcUnit {
    name: String,
    body_hash: u64,
    analysis: OnceLock<Analysis>,
}

/// The whole-program analysis: every procedure keyed by content hash,
/// ready to run the full dependence-table workload — cold, or
/// incrementally against a baseline [`DepTable`].
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    program: Arc<Program>,
    procs: Vec<ProcUnit>,
    axioms: Arc<AxiomSet>,
    axioms_hash: u64,
    config: ProverConfig,
    portfolio: PortfolioConfig,
    tallies: TallySink,
}

/// Collects the procedure names transitively reachable from `block`
/// through `call` statements (the walker inlines them, so their text is
/// part of this procedure's analysis input).
fn reachable_callees(program: &Program, block: &Block, seen: &mut BTreeSet<String>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Call { callee, .. } if seen.insert(callee.clone()) => {
                if let Some(proc) = program.proc(callee) {
                    reachable_callees(program, &proc.body, seen);
                }
            }
            StmtKind::Loop { body } => reachable_callees(program, body, seen),
            StmtKind::If {
                then_branch,
                else_branch,
            } => {
                reachable_callees(program, then_branch, seen);
                reachable_callees(program, else_branch, seen);
            }
            _ => {}
        }
    }
}

/// [`fnv1a`] over a procedure's rendered text plus every transitively
/// reachable callee's rendered text (sorted by name, `0xFF`-separated so
/// unit boundaries cannot alias). Editing a callee therefore changes the
/// hash of each of its (transitive) callers — exactly the procedures
/// whose inlined analyses the edit invalidates.
fn body_hash_of(program: &Program, proc_name: &str) -> u64 {
    let Some(proc) = program.proc(proc_name) else {
        return fnv1a(proc_name.as_bytes());
    };
    let mut h = Fnv1a::new();
    // Formatting into the hasher cannot fail.
    let _ = write!(h, "{proc}");
    let mut callees = BTreeSet::new();
    reachable_callees(program, &proc.body, &mut callees);
    for callee in &callees {
        h.write(&[0xFF]);
        h.write(callee.as_bytes());
        h.write(&[0xFF]);
        if let Some(p) = program.proc(callee) {
            let _ = write!(h, "{p}");
        }
    }
    h.0
}

/// Prepares a program for the whole-program workload: hashes every
/// procedure's text and the axiom set, and keeps the program for the
/// analyses a run needs.
///
/// Procedures are analyzed lazily, by [`ProgramAnalysis::run`], in
/// program order; each analysis inlines the procedure's calls, so
/// cross-procedure dependence pairs at call sites appear in the caller's
/// query list under `callee@site::label` names.
pub fn analyze_program(program: &Program) -> ProgramAnalysis {
    let axioms = Arc::new(program.all_axioms());
    let mut h = Fnv1a::new();
    let _ = write!(h, "{axioms}");
    let axioms_hash = h.0;
    let procs = program
        .procs
        .iter()
        .map(|proc| ProcUnit {
            name: proc.name.clone(),
            body_hash: body_hash_of(program, &proc.name),
            analysis: OnceLock::new(),
        })
        .collect();
    ProgramAnalysis {
        program: Arc::new(program.clone()),
        procs,
        axioms,
        axioms_hash,
        config: ProverConfig::default(),
        portfolio: PortfolioConfig::axiomatic_only(),
        tallies: TallySink::new(),
    }
}

impl ProgramAnalysis {
    /// Sets the prover configuration for every procedure's queries.
    pub fn set_prover_config(&mut self, config: ProverConfig) {
        self.config = config;
    }

    /// Builder form of [`ProgramAnalysis::set_prover_config`].
    #[must_use]
    pub fn with_prover_config(mut self, config: ProverConfig) -> ProgramAnalysis {
        self.set_prover_config(config);
        self
    }

    /// Sets the engine roster every procedure's queries run through.
    pub fn set_portfolio_config(&mut self, config: PortfolioConfig) {
        self.portfolio = config;
    }

    /// Builder form of [`ProgramAnalysis::set_portfolio_config`].
    #[must_use]
    pub fn with_portfolio_config(mut self, config: PortfolioConfig) -> ProgramAnalysis {
        self.set_portfolio_config(config);
        self
    }

    /// Routes every procedure's engine tallies into `sink` (clones of a
    /// [`TallySink`] share counters, so all the program's queries
    /// aggregate into the caller's one total).
    pub fn set_portfolio_tallies(&mut self, sink: &TallySink) {
        self.tallies = sink.clone();
    }

    /// The procedure names, in program order.
    pub fn proc_names(&self) -> Vec<&str> {
        self.procs.iter().map(|u| u.name.as_str()).collect()
    }

    /// A procedure's §3.3 analysis (its labeled accesses, their matrices
    /// and loop nests), `None` when the program has no such procedure.
    /// Built on first need and at most once per `ProgramAnalysis`, so
    /// after a run planned the procedure this costs a lookup.
    pub fn analysis(&self, proc_name: &str) -> Option<&Analysis> {
        let unit = self.procs.iter().find(|u| u.name == proc_name)?;
        Some(self.analysis_of(unit))
    }

    fn analysis_of<'a>(&self, unit: &'a ProcUnit) -> &'a Analysis {
        unit.analysis.get_or_init(|| {
            analyze_proc_under(&self.program, &unit.name, Arc::clone(&self.axioms))
                .expect("procedure exists in its own program")
        })
    }

    /// The content hash of the program's axiom set.
    pub fn axioms_hash(&self) -> u64 {
        self.axioms_hash
    }

    /// The body hash (own text + reachable callee texts) of a procedure.
    pub fn body_hash(&self, proc_name: &str) -> Option<u64> {
        self.procs
            .iter()
            .find(|u| u.name == proc_name)
            .map(|u| u.body_hash)
    }

    /// Runs the whole-program workload, replaying from `baseline` where
    /// its entries' content hashes still match.
    ///
    /// Per procedure: a baseline entry whose `(body_hash, axioms_hash)`
    /// equals this analysis's is accepted outright when the baseline is
    /// a table `run` returned. An entry of an untrusted table (one built
    /// by [`DepTable::from_procs`]) is audited first: a structurally
    /// bogus verdict (a `Maybe`, a `Yes` carrying proofs, a `No` carrying
    /// a witness), a failing sample of [`REPLAY_PROOF_SAMPLE`] stored
    /// proofs (re-run through [`check_proof`] against the program's axiom
    /// set — proofs were built under a per-query *subset* of it, and a
    /// proof valid under a subset is valid under the full set) or a
    /// witness heap that fails the axioms discards the whole entry, and
    /// the procedure re-proves cold. [`ProcReport::audited`] counts what
    /// the audit re-checked. An accepted entry's definite verdicts replay
    /// without touching the prover, and only queries it does not cover
    /// (always including every `Maybe`, which is never persisted) are
    /// re-proved.
    ///
    /// A `No` with *no* proofs is legitimate — dispatch prunes queries
    /// whose access paths cannot meet (different final selectors, for
    /// one) and answers without engaging the prover — but it is also
    /// unverifiable, so it never replays: a `No` replays only on the
    /// strength of a checkable proof. Such verdicts re-prove each run,
    /// which costs what the dispatch prune costs — not a prover call.
    ///
    /// The queries to re-prove come from the plan the baseline carries
    /// for the procedure's text when its entry was accepted, and from the
    /// procedure's §3.3 analysis otherwise, built on first need and at
    /// most once per `ProgramAnalysis` ([`ProcReport::analyzed`]). Either
    /// way they run under this analysis's rules, budget, roster and
    /// tallies, on the baseline's warm engines when it carries engines
    /// for this program's axiom set and on engines built here otherwise.
    /// The returned table is trusted and carries the engines and every
    /// procedure's plan on (see the module docs).
    pub fn run(&self, baseline: Option<&DepTable>, options: &BatchOptions) -> ProgramReport {
        let executor = Executor {
            axioms: &self.axioms,
            config: &self.config,
            portfolio: &self.portfolio,
            tallies: &self.tallies,
        };
        let mut engines = Engines::carried(baseline.map(|t| &t.engines), self.axioms_hash);
        let trusted = baseline.is_some_and(|t| t.trusted);
        let mut procs = Vec::with_capacity(self.procs.len());
        let mut entries = Vec::with_capacity(self.procs.len());
        let mut plans = Vec::with_capacity(self.procs.len());
        for unit in &self.procs {
            let matched = baseline
                .and_then(|t| t.entry(&unit.name))
                .filter(|e| e.body_hash == unit.body_hash && e.axioms_hash == self.axioms_hash);
            let (entry, audited) = match matched {
                Some(e) if trusted => (Some(e), 0),
                Some(e) => {
                    let (passed, audited) = self.audit(e);
                    (passed.then_some(e), audited)
                }
                None => (None, 0),
            };
            let replay: HashMap<&str, &StoredVerdict> = entry
                .map(|e| {
                    e.verdicts
                        .iter()
                        .filter(|v| v.replays())
                        .map(|v| (v.query.as_str(), v))
                        .collect()
                })
                .unwrap_or_default();

            // Split the workload: replayable queries come straight from
            // the table, the rest execute their plans as one batch. The
            // plans come from the baseline's plan for this procedure text
            // when it covers them, else from the procedure's analysis.
            let carried = entry
                .and(baseline)
                .and_then(|t| t.plan(&unit.name, unit.body_hash, self.axioms_hash))
                .and_then(|plan| Some((plan, fresh_plans(plan, &replay)?)));
            let analyzed = carried.is_none();
            let (mut plan, mut fresh) = match carried {
                Some((plan, fresh)) => (Arc::clone(plan), fresh.into_iter().cloned().collect()),
                None => {
                    let (plan, fresh) = self.plan_proc(unit, &replay);
                    (Arc::new(plan), fresh)
                }
            };
            let (mut fresh_results, cache) = if fresh.is_empty() {
                (Vec::new().into_iter(), CacheStats::default())
            } else {
                // A plan built here keeps the pairs of the queries the
                // next run cannot replay; copied plans are dropped.
                let keep = |o: &TestOutcome| analyzed && !outcome_replays(o);
                let report = executor.execute(&mut fresh, options, &mut engines, keep);
                (report.results.into_iter(), report.cache)
            };

            let mut fresh = fresh.into_iter();
            let mut rows = Vec::with_capacity(plan.queries.queries.len());
            let mut verdicts = Vec::new();
            // A plan built here keeps the plans of the queries this run's
            // entry cannot replay, for the next run.
            let mut unreplayable = Vec::new();
            let (mut replayed, mut reproved) = (0, 0);
            for (query, key) in plan.queries.iter() {
                let (outcome, kept) = match replay.get(key) {
                    Some(stored) => {
                        replayed += 1;
                        verdicts.push((*stored).clone());
                        (RowOutcome::Replayed(stored.answer), None)
                    }
                    None => {
                        reproved += 1;
                        let planned = fresh.next().expect("one plan per fresh query");
                        let result = fresh_results.next().expect("one result per fresh query");
                        let replays = matches!(&result, Ok(o) if outcome_replays(o));
                        let (outcome, verdict) = settle(key, result);
                        verdicts.extend(verdict);
                        (outcome, (!replays).then_some(planned))
                    }
                };
                if analyzed {
                    unreplayable.push(kept.map(Box::new));
                }
                rows.push(ReportRow {
                    query,
                    key: key.to_owned(),
                    outcome,
                });
            }
            if analyzed {
                Arc::get_mut(&mut plan)
                    .expect("a plan built this run is unshared")
                    .unreplayable = unreplayable;
            }
            entries.push(ProcVerdicts {
                proc_name: unit.name.clone(),
                body_hash: unit.body_hash,
                axioms_hash: self.axioms_hash,
                verdicts,
            });
            plans.push(plan);
            procs.push(ProcReport {
                name: unit.name.clone(),
                reused: entry.is_some(),
                audited,
                analyzed,
                replayed,
                reproved,
                rows,
                cache,
            });
        }
        ProgramReport {
            procs,
            table: DepTable {
                procs: entries,
                trusted: true,
                engines,
                plans,
            },
        }
    }

    /// Plans a procedure from its §3.3 analysis, built on first need: its
    /// query list and keys, and the plans of the queries `replay` cannot
    /// answer, in order. The run fills in what the returned plan keeps of
    /// them.
    fn plan_proc(
        &self,
        unit: &ProcUnit,
        replay: &HashMap<&str, &StoredVerdict>,
    ) -> (ProcPlan, Vec<Planned>) {
        let analysis = self.analysis_of(unit);
        let all = analysis.all_queries();
        let queries = QueryList::new(&all);
        let fresh = all
            .iter()
            .zip(queries.keys())
            .filter(|(_, key)| !replay.contains_key(key))
            .map(|(query, _)| analysis.plan_query(query))
            .collect();
        let plan = ProcPlan {
            proc_name: unit.name.clone(),
            body_hash: unit.body_hash,
            axioms_hash: self.axioms_hash,
            queries,
            unreplayable: Vec::new(),
        };
        (plan, fresh)
    }

    /// Audits a hash-matched entry of an untrusted table: structure, then
    /// a sample of its proofs and every witness heap against the
    /// program's axioms. Returns whether it passed and how many proofs
    /// and witnesses it re-checked. Rejecting here sends the whole
    /// procedure down the cold path; nothing of a suspect entry is ever
    /// replayed.
    fn audit(&self, entry: &ProcVerdicts) -> (bool, usize) {
        for v in &entry.verdicts {
            match v.answer {
                // Proofs only ever back No verdicts: a Yes means
                // identical singleton paths (no evidence) or a refuter
                // dependence (a witness heap) and never carries any. A
                // No without proofs is allowed here (a dispatch prune)
                // but never replays. A witness only ever backs a Yes.
                Answer::Yes if v.proofs.is_empty() => {}
                Answer::No if v.witness.is_none() => {}
                _ => return (false, 0),
            }
        }
        let mut audited = 0;
        let proofs = entry.verdicts.iter().flat_map(|v| &v.proofs);
        for proof in proofs.take(REPLAY_PROOF_SAMPLE) {
            audited += 1;
            if check_proof(&self.axioms, proof).is_err() {
                return (false, audited);
            }
        }
        // Same forged-evidence discipline for witnesses: every stored
        // witness heap must decode and satisfy the program's axioms, or
        // the whole entry re-proves cold.
        for witness in entry.verdicts.iter().filter_map(|v| v.witness.as_ref()) {
            audited += 1;
            if witness.check_heap(&self.axioms).is_err() {
                return (false, audited);
            }
        }
        (true, audited)
    }
}

/// How one row of the program report was settled.
#[derive(Debug, Clone)]
pub enum RowOutcome {
    /// Proved live this run.
    Fresh(TestOutcome),
    /// Replayed from the baseline table (definite answers only).
    Replayed(Answer),
    /// The query could not be phrased against the analysis.
    Error(QueryError),
}

impl RowOutcome {
    /// The answer, treating unphrasable queries as `Maybe`.
    pub fn answer(&self) -> Answer {
        match self {
            RowOutcome::Fresh(o) => o.answer,
            RowOutcome::Replayed(a) => *a,
            RowOutcome::Error(_) => Answer::Maybe,
        }
    }

    /// Whether this row came from the baseline table.
    pub fn is_replayed(&self) -> bool {
        matches!(self, RowOutcome::Replayed(_))
    }
}

/// One query's row in a [`ProcReport`].
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// The query.
    pub query: BatchQuery,
    /// Its stable [`query_key`] rendering (the table key).
    pub key: String,
    /// How it was settled.
    pub outcome: RowOutcome,
}

/// One procedure's slice of a [`ProgramReport`].
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// The procedure's name.
    pub name: String,
    /// Whether a baseline entry was accepted for replay (hashes matched,
    /// and the audit passed where the baseline was untrusted).
    pub reused: bool,
    /// Stored proofs and witnesses the audit re-checked this run: 0 for
    /// an entry of a table [`ProgramAnalysis::run`] returned, at most
    /// [`REPLAY_PROOF_SAMPLE`] proofs plus every witness for one of an
    /// untrusted table.
    pub audited: usize,
    /// Whether this run planned the procedure's queries from its §3.3
    /// analysis (built by this run or an earlier run of the same
    /// [`ProgramAnalysis`]); `false` when the baseline's plan served.
    pub analyzed: bool,
    /// Queries answered straight from the table.
    pub replayed: usize,
    /// Queries sent through the prover this run.
    pub reproved: usize,
    /// Per-query rows, in [`Analysis::all_queries`] order.
    pub rows: Vec<ReportRow>,
    /// The cache entries this procedure's fresh batch added to the run's
    /// engines (all zeros when everything replayed — the assertion hook
    /// for "untouched procedures never touch the prover").
    pub cache: CacheStats,
}

/// The result of [`ProgramAnalysis::run`]: per-procedure reports plus the
/// updated table to persist for the next run.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Per-procedure reports, in program order.
    pub procs: Vec<ProcReport>,
    /// The refreshed dependence table (replayed entries carried forward,
    /// fresh definite verdicts added).
    pub table: DepTable,
}

impl ProgramReport {
    /// Total queries across all procedures.
    pub fn total_queries(&self) -> usize {
        self.procs.iter().map(|p| p.rows.len()).sum()
    }

    /// Queries answered from the table.
    pub fn replayed(&self) -> usize {
        self.procs.iter().map(|p| p.replayed).sum()
    }

    /// Queries proved live.
    pub fn reproved(&self) -> usize {
        self.procs.iter().map(|p| p.reproved).sum()
    }

    /// Procedures whose baseline entry was accepted for replay.
    pub fn procs_reused(&self) -> usize {
        self.procs.iter().filter(|p| p.reused).count()
    }

    /// Whether any answer was Maybe (or a query unphrasable).
    pub fn any_maybe(&self) -> bool {
        self.procs
            .iter()
            .flat_map(|p| p.rows.iter())
            .any(|r| r.outcome.answer() == Answer::Maybe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_ir::parse_program;

    const TWO_PROCS: &str = r"
        type List {
            ptr link: List;
            data f;
            axiom A1: forall p <> q, p.link <> q.link;
            axiom A2: forall p, p.link+ <> p.eps;
        }
        proc update(head: List) {
            q = head;
            loop {
            U:  q->f = fun();
                q = q->link;
            }
        }
        proc touch(h: List) {
        W:  h->f = 9;
        X:  v = h->f;
        }";

    fn answers(report: &ProgramReport) -> Vec<(String, String, Answer)> {
        report
            .procs
            .iter()
            .flat_map(|p| {
                p.rows
                    .iter()
                    .map(|r| (p.name.clone(), r.key.clone(), r.outcome.answer()))
            })
            .collect()
    }

    #[test]
    fn query_lists_give_back_every_query_and_key() {
        let label = |l: &str| l.to_owned();
        let queries = vec![
            BatchQuery::Sequential {
                from: label("S"),
                to: label("peek@1::P"),
            },
            BatchQuery::LoopCarried {
                label: label("U"),
                loop_label: None,
            },
            BatchQuery::LoopCarried {
                label: label("f@2::V"),
                loop_label: Some(label("outer")),
            },
        ];
        let list = QueryList::new(&queries);
        let back: Vec<(BatchQuery, String)> = list.iter().map(|(q, k)| (q, k.to_owned())).collect();
        let want: Vec<(BatchQuery, String)> =
            queries.iter().map(|q| (q.clone(), query_key(q))).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn cold_run_covers_every_procedure() {
        let program = parse_program(TWO_PROCS).unwrap();
        let pa = analyze_program(&program);
        assert_eq!(pa.proc_names(), vec!["update", "touch"]);
        let report = pa.run(None, &BatchOptions::new());
        assert_eq!(report.procs.len(), 2);
        assert_eq!(report.procs_reused(), 0);
        assert_eq!(report.replayed(), 0);
        assert!(report.procs.iter().all(|p| p.analyzed && p.audited == 0));
        assert!(report.total_queries() >= 2);
        // The table holds every definite verdict just proved.
        assert!(report.table.total_verdicts() > 0);
    }

    #[test]
    fn incremental_replays_unchanged_procs_and_reproves_edited_ones() {
        let program = parse_program(TWO_PROCS).unwrap();
        let pa = analyze_program(&program);
        let cold = pa.run(None, &BatchOptions::new());

        // Unedited re-run: everything definite replays, the prover is
        // never touched for fully-definite procedures.
        let warm = pa.run(Some(&cold.table), &BatchOptions::new());
        assert_eq!(answers(&warm), answers(&cold));
        assert_eq!(warm.procs_reused(), 2);
        for (w, c) in warm.procs.iter().zip(&cold.procs) {
            assert!(w.reused, "{}", w.name);
            // The table is one this process built: no audit, and the
            // carried plans stand in for the analyses.
            assert_eq!(w.audited, 0, "{}", w.name);
            assert!(!w.analyzed, "{}", w.name);
            // Only queries the table cannot cover (Maybes) re-prove.
            let cold_maybes = c
                .rows
                .iter()
                .filter(|r| r.outcome.answer() == Answer::Maybe)
                .count();
            assert_eq!(w.reproved, cold_maybes, "{}", w.name);
        }

        // Edit `touch`: it re-proves, `update` still replays.
        let edited_src = TWO_PROCS.replace("W:  h->f = 9;", "W:  h->f = 7;");
        let edited = parse_program(&edited_src).unwrap();
        let pa2 = analyze_program(&edited);
        assert_eq!(pa2.body_hash("update"), pa.body_hash("update"));
        assert_ne!(pa2.body_hash("touch"), pa.body_hash("touch"));
        let incr = pa2.run(Some(&cold.table), &BatchOptions::new());
        let from_scratch = pa2.run(None, &BatchOptions::new());
        assert_eq!(answers(&incr), answers(&from_scratch));
        let touch = incr.procs.iter().find(|p| p.name == "touch").unwrap();
        assert!(!touch.reused);
        assert!(touch.reproved > 0);
        assert!(touch.analyzed);
        let update = incr.procs.iter().find(|p| p.name == "update").unwrap();
        assert!(update.reused);
        assert!(!update.analyzed);
    }

    #[test]
    fn editing_a_callee_invalidates_its_callers() {
        let src = r"
            type List {
                ptr link: List;
                data f;
                axiom A1: forall p <> q, p.link <> q.link;
                axiom A2: forall p, p.link+ <> p.eps;
            }
            proc peek(t: List) {
            P:  v = t->f;
            }
            proc outer(h: List) {
            S:  h->f = 1;
                call peek(h);
            }";
        let pa = analyze_program(&parse_program(src).unwrap());
        let edited = src.replace("P:  v = t->f;", "P:  t->f = 2;");
        let pa2 = analyze_program(&parse_program(&edited).unwrap());
        // The caller's hash must change too: peek's body is inlined into
        // outer's analysis.
        assert_ne!(pa2.body_hash("peek"), pa.body_hash("peek"));
        assert_ne!(pa2.body_hash("outer"), pa.body_hash("outer"));
    }

    #[test]
    fn axiom_edits_invalidate_everything() {
        let program = parse_program(TWO_PROCS).unwrap();
        let pa = analyze_program(&program);
        let cold = pa.run(None, &BatchOptions::new());
        let edited = TWO_PROCS.replace(
            "axiom A2: forall p, p.link+ <> p.eps;",
            "axiom A2: forall p, p.link.link+ <> p.eps;",
        );
        let pa2 = analyze_program(&parse_program(&edited).unwrap());
        assert_ne!(pa2.axioms_hash(), pa.axioms_hash());
        let incr = pa2.run(Some(&cold.table), &BatchOptions::new());
        assert_eq!(incr.procs_reused(), 0);
    }

    #[test]
    fn tampered_entries_are_rejected_not_replayed() {
        let program = parse_program(TWO_PROCS).unwrap();
        let pa = analyze_program(&program);
        let cold = pa.run(None, &BatchOptions::new());

        // Flip a stored No to Yes (keeping its proofs): the structural
        // check cannot see this, but re-running still must not produce a
        // wrong verdict... it would replay the flipped answer, except a
        // Yes with proofs attached is structurally bogus and rejected.
        // Hand-edited entries enter only through `from_procs`, as an
        // untrusted table whose hash-matched entries are audited.
        let mut tampered = cold.table.procs().to_vec();
        let mut flipped = false;
        for entry in &mut tampered {
            for v in &mut entry.verdicts {
                if v.answer == Answer::No {
                    v.answer = Answer::Yes;
                    flipped = true;
                    break;
                }
            }
            if flipped {
                break;
            }
        }
        assert!(flipped, "workload should prove at least one No");
        // A Yes carrying proofs fails the structural validation (proofs
        // only back No verdicts), so the whole entry re-proves cold.
        let report = pa.run(Some(&DepTable::from_procs(tampered)), &BatchOptions::new());
        assert_eq!(
            answers(&report),
            answers(&pa.run(None, &BatchOptions::new()))
        );

        // Strip the proofs off every No: the entry still passes the
        // structural check (dispatch prunes legitimately store proof-less
        // Nos), but an unproven No never replays — each one re-proves,
        // so the tamper costs warmth, never a verdict.
        let mut stripped = cold.table.procs().to_vec();
        let entry = stripped
            .iter_mut()
            .find(|e| e.verdicts.iter().any(|v| v.answer == Answer::No))
            .unwrap();
        let name = entry.proc_name.clone();
        let nos = entry
            .verdicts
            .iter()
            .filter(|v| v.answer == Answer::No)
            .count();
        for v in &mut entry.verdicts {
            v.proofs.clear();
        }
        let report = pa.run(Some(&DepTable::from_procs(stripped)), &BatchOptions::new());
        let proc = report.procs.iter().find(|p| p.name == name).unwrap();
        let cold_proc = cold.procs.iter().find(|p| p.name == name).unwrap();
        let cold_maybes = cold_proc
            .rows
            .iter()
            .filter(|r| r.outcome.answer() == Answer::Maybe)
            .count();
        assert!(proc.reused);
        assert_eq!(proc.reproved, cold_maybes + nos, "{name}");
        assert!(proc
            .rows
            .iter()
            .all(|r| { r.outcome.answer() != Answer::No || !r.outcome.is_replayed() }));
        assert_eq!(
            answers(&report),
            answers(&pa.run(None, &BatchOptions::new()))
        );
    }

    #[test]
    fn invalidate_proc_drops_only_that_entry() {
        let program = parse_program(TWO_PROCS).unwrap();
        let pa = analyze_program(&program);
        let mut table = pa.run(None, &BatchOptions::new()).table;
        let before = table.total_verdicts();
        let dropped = table.invalidate_proc("touch");
        assert!(dropped > 0);
        assert_eq!(table.total_verdicts(), before - dropped);
        assert!(table.entry("touch").is_none());
        assert!(table.entry("update").is_some());
        assert_eq!(table.invalidate_proc("touch"), 0);
        // The next run re-derives the dropped procedure from its analysis.
        let report = pa.run(Some(&table), &BatchOptions::new());
        let touch = report.procs.iter().find(|p| p.name == "touch").unwrap();
        assert!(!touch.reused && touch.analyzed);
        let update = report.procs.iter().find(|p| p.name == "update").unwrap();
        assert!(update.reused && !update.analyzed);
    }
}
