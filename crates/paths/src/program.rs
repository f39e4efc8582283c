//! Whole-program incremental dependence analysis — the `apt analyze`
//! layer.
//!
//! [`analyze_program`] walks every procedure of a multi-procedure IR
//! program and derives the full dependence table: each procedure's
//! [`Analysis::all_queries`] workload (loop-carried queries plus every
//! pairwise conflict with at least one write), with cross-procedure pairs
//! arising naturally because calls are inlined per call site — a callee's
//! labeled accesses appear in the caller's snapshot set under their
//! `callee@site::label` namespace and pair against the caller's own
//! accesses like any other label.
//!
//! The incremental part is the [`DepTable`]: per procedure it records the
//! definite verdicts keyed by a stable rendering of each query, plus two
//! content hashes — one over the procedure body *and every transitively
//! reachable callee body* (inlining makes callee edits invalidate their
//! callers), one over the program's axiom set. [`ProgramAnalysis::run`]
//! replays a baseline entry only when both hashes match; replayed `No`
//! verdicts are spot-checked through [`check_proof`] before any of the
//! entry is trusted — the same forged-proof discipline the snapshot
//! restore tier uses. Everything else (changed procedures, `Maybe`
//! results, corrupt entries) is re-proved from scratch, so a damaged
//! table can cost warmth but never a wrong verdict:
//!
//! * hash match ⇒ identical procedure text, identical reachable callee
//!   texts, identical axiom text ⇒ the cold analysis would re-derive the
//!   exact same queries and answers (the analysis is a pure function of
//!   those inputs, and [`Analysis::all_queries`] ordering is
//!   deterministic);
//! * a definite verdict is only ever stored with the proofs that earned
//!   it, and a sample is re-checked on import — a tampered entry is
//!   discarded whole and the procedure re-proves cold.
//!
//! Queries that re-prove do so on warm engines. A run proves every
//! procedure's queries on one [`apt_core::DepEngine`] per distinct valid
//! axiom set, and the table it returns keeps those engines in memory, so
//! the next run against it answers edits, `Maybe`s and proof-less `No`s
//! from their settled-goal caches (§4.2) rather than compiling the axioms
//! again and searching cold. Engines never reach a snapshot or a
//! `--baseline` file, are carried only to a run over the same axiom text,
//! and are used only under identical prover rules; each run's own budget
//! and engine roster govern its queries.

use crate::analysis::{analyze_proc, Analysis, BatchOptions, BatchQuery, Engines, QueryError};
use apt_core::{
    check_proof, Answer, CacheStats, PortfolioConfig, Proof, ProverConfig, TallySink, TestOutcome,
    Witness,
};
use apt_ir::{Block, Program, StmtKind};
use std::collections::{BTreeSet, HashMap};

/// How many stored proofs of a matched table entry are re-verified
/// through [`check_proof`] before the entry's verdicts are replayed. One
/// failure rejects the whole entry.
pub const REPLAY_PROOF_SAMPLE: usize = 8;

/// 64-bit FNV-1a over a byte string: a small, process-stable content
/// hash (no `DefaultHasher`, whose seeds vary per process) for keying
/// persisted table entries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stable rendering of a [`BatchQuery`] used as the verdict key in a
/// [`DepTable`] — and as the row label in `apt analyze` output.
pub fn query_key(query: &BatchQuery) -> String {
    match query {
        BatchQuery::Sequential { from, to } => format!("{from} vs {to}"),
        BatchQuery::LoopCarried { label, loop_label } => match loop_label {
            Some(l) => format!("carried {label} @ {l}"),
            None => format!("carried {label}"),
        },
    }
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

/// A whole-program dependence table: per-procedure definite verdicts plus
/// the content hashes that decide whether they may be replayed, and the
/// warm engines the run that produced it proved on.
#[derive(Debug, Clone, Default)]
pub struct DepTable {
    /// Per-procedure entries, in program order.
    pub procs: Vec<ProcVerdicts>,
    /// The engines the next run against this table proves on. Memory
    /// only: snapshot sections and `--baseline` files hold the verdicts
    /// alone, and restoring one starts without engines.
    engines: Engines,
}

impl DepTable {
    /// An empty table (everything analyzes cold).
    pub fn new() -> DepTable {
        DepTable::default()
    }

    /// A table of persisted verdicts with no warm engines: what a
    /// snapshot or `--baseline` file restores.
    pub fn from_procs(procs: Vec<ProcVerdicts>) -> DepTable {
        DepTable {
            procs,
            engines: Engines::default(),
        }
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

    /// Drops a procedure's entry; returns how many verdicts were dropped.
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
        dropped
    }

    /// Total persisted verdicts across all procedures.
    pub fn total_verdicts(&self) -> usize {
        self.procs.iter().map(|p| p.verdicts.len()).sum()
    }
}

/// One analyzed procedure: its per-procedure [`Analysis`] plus the
/// content hashes keying its table entry.
#[derive(Debug, Clone)]
struct ProcUnit {
    name: String,
    analysis: Analysis,
    body_hash: u64,
}

/// The whole-program analysis: every procedure analyzed (calls inlined),
/// ready to run the full dependence-table workload — cold, or
/// incrementally against a baseline [`DepTable`].
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    procs: Vec<ProcUnit>,
    axioms_hash: u64,
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
    let mut text = Vec::new();
    let Some(proc) = program.proc(proc_name) else {
        return fnv1a(proc_name.as_bytes());
    };
    text.extend_from_slice(proc.to_string().as_bytes());
    let mut callees = BTreeSet::new();
    reachable_callees(program, &proc.body, &mut callees);
    for callee in &callees {
        text.push(0xFF);
        text.extend_from_slice(callee.as_bytes());
        text.push(0xFF);
        if let Some(p) = program.proc(callee) {
            text.extend_from_slice(p.to_string().as_bytes());
        }
    }
    fnv1a(&text)
}

/// Analyzes every procedure of a program for the whole-program workload.
///
/// Procedures are analyzed in program order; each analysis inlines the
/// procedure's calls, so cross-procedure dependence pairs at call sites
/// appear in the caller's query list under `callee@site::label` names.
pub fn analyze_program(program: &Program) -> ProgramAnalysis {
    let axioms_hash = fnv1a(program.all_axioms().to_string().as_bytes());
    let procs = program
        .procs
        .iter()
        .map(|proc| {
            let analysis =
                analyze_proc(program, &proc.name).expect("procedure exists in its own program");
            ProcUnit {
                name: proc.name.clone(),
                analysis,
                body_hash: body_hash_of(program, &proc.name),
            }
        })
        .collect();
    ProgramAnalysis { procs, axioms_hash }
}

impl ProgramAnalysis {
    /// Sets the prover configuration for every procedure's queries.
    pub fn set_prover_config(&mut self, config: ProverConfig) {
        for unit in &mut self.procs {
            unit.analysis.set_prover_config(config.clone());
        }
    }

    /// Builder form of [`ProgramAnalysis::set_prover_config`].
    #[must_use]
    pub fn with_prover_config(mut self, config: ProverConfig) -> ProgramAnalysis {
        self.set_prover_config(config);
        self
    }

    /// Sets the engine roster every procedure's queries run through.
    pub fn set_portfolio_config(&mut self, config: PortfolioConfig) {
        for unit in &mut self.procs {
            unit.analysis.set_portfolio_config(config.clone());
        }
    }

    /// Builder form of [`ProgramAnalysis::set_portfolio_config`].
    #[must_use]
    pub fn with_portfolio_config(mut self, config: PortfolioConfig) -> ProgramAnalysis {
        self.set_portfolio_config(config);
        self
    }

    /// Routes every procedure's engine tallies into `sink` (clones of a
    /// [`TallySink`] share counters, so the per-procedure analyses all
    /// aggregate into the caller's one total).
    pub fn set_portfolio_tallies(&mut self, sink: &TallySink) {
        for unit in &mut self.procs {
            unit.analysis.set_portfolio_tallies(sink.clone());
        }
    }

    /// The analyzed procedure names, in program order.
    pub fn proc_names(&self) -> Vec<&str> {
        self.procs.iter().map(|u| u.name.as_str()).collect()
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
    /// Per procedure: if the baseline holds an entry whose
    /// `(body_hash, axioms_hash)` equals this analysis's, the entry's
    /// stored proofs are spot-checked ([`REPLAY_PROOF_SAMPLE`] of them,
    /// through [`check_proof`] against the program's axiom set — proofs
    /// were built under a per-query *subset* of it, and a proof valid
    /// under a subset is valid under the full set); on success the
    /// entry's definite verdicts replay without touching the prover, and
    /// only queries it does not cover (always including every `Maybe`,
    /// which is never persisted) are re-proved. Any check failure, or a
    /// structurally bogus verdict (a `Maybe`, or a `Yes` carrying
    /// proofs), discards the whole entry and the procedure re-proves
    /// cold.
    ///
    /// A `No` with *no* proofs is legitimate — dispatch prunes queries
    /// whose access paths cannot meet (different final selectors, for
    /// one) and answers without engaging the prover — but it is also
    /// unverifiable, so it never replays: a `No` replays only on the
    /// strength of a checkable proof. Such verdicts re-prove each run,
    /// which costs what the dispatch prune costs — not a prover call.
    ///
    /// Every procedure's re-proved queries run on the baseline's warm
    /// engines when it carries engines for this program's axiom set, and
    /// on engines built here otherwise; the returned table carries them
    /// on (see the module docs).
    pub fn run(&self, baseline: Option<&DepTable>, options: &BatchOptions) -> ProgramReport {
        let mut procs = Vec::with_capacity(self.procs.len());
        let mut engines = Engines::carried(baseline.map(|t| &t.engines), self.axioms_hash);
        let mut entries = Vec::with_capacity(self.procs.len());
        for unit in &self.procs {
            let queries = unit.analysis.all_queries();
            let entry = baseline
                .and_then(|t| t.entry(&unit.name))
                .filter(|e| e.body_hash == unit.body_hash && e.axioms_hash == self.axioms_hash)
                .filter(|e| self.entry_checks_out(unit, e));
            let replay: HashMap<&str, &StoredVerdict> = entry
                .map(|e| {
                    e.verdicts
                        .iter()
                        // An unproven No is unverifiable and never
                        // replays (it re-proves at dispatch-prune cost).
                        .filter(|v| v.answer != Answer::No || !v.proofs.is_empty())
                        .map(|v| (v.query.as_str(), v))
                        .collect()
                })
                .unwrap_or_default();

            // Split the workload: replayable queries come straight from
            // the table, the rest go through the engine as one batch.
            let keys: Vec<String> = queries.iter().map(query_key).collect();
            let mut fresh = Vec::new();
            for (query, key) in queries.iter().zip(&keys) {
                if !replay.contains_key(key.as_str()) {
                    fresh.push(query.clone());
                }
            }
            let (mut fresh_results, cache) = if fresh.is_empty() {
                (Vec::new().into_iter(), CacheStats::default())
            } else {
                let report = unit.analysis.run_batch_on(&fresh, options, &mut engines);
                (report.results.into_iter(), report.cache)
            };

            let mut rows = Vec::with_capacity(queries.len());
            let mut verdicts = Vec::new();
            let (mut replayed, mut reproved) = (0, 0);
            for (query, key) in queries.into_iter().zip(keys) {
                let outcome = match replay.get(key.as_str()) {
                    Some(stored) => {
                        replayed += 1;
                        verdicts.push((*stored).clone());
                        RowOutcome::Replayed(stored.answer)
                    }
                    None => {
                        reproved += 1;
                        match fresh_results.next().expect("one result per fresh query") {
                            Ok(outcome) => {
                                if outcome.answer != Answer::Maybe {
                                    verdicts.push(StoredVerdict {
                                        query: key.clone(),
                                        answer: outcome.answer,
                                        proofs: outcome.proofs.clone(),
                                        witness: outcome.witness.clone(),
                                    });
                                }
                                RowOutcome::Fresh(outcome)
                            }
                            Err(e) => RowOutcome::Error(e),
                        }
                    }
                };
                rows.push(ReportRow {
                    query,
                    key,
                    outcome,
                });
            }
            entries.push(ProcVerdicts {
                proc_name: unit.name.clone(),
                body_hash: unit.body_hash,
                axioms_hash: self.axioms_hash,
                verdicts,
            });
            procs.push(ProcReport {
                name: unit.name.clone(),
                reused: entry.is_some(),
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
                engines,
            },
        }
    }

    /// Structural + proof-sample validation of a hash-matched baseline
    /// entry. Rejecting here sends the whole procedure down the cold
    /// path; nothing of a suspect entry is ever replayed.
    fn entry_checks_out(&self, unit: &ProcUnit, entry: &ProcVerdicts) -> bool {
        for v in &entry.verdicts {
            match v.answer {
                // Proofs only ever back No verdicts: a Yes means
                // identical singleton paths (no evidence) or a refuter
                // dependence (a witness heap) and never carries any. A
                // No without proofs is allowed here (a dispatch prune)
                // but is filtered out of the replay map by the caller.
                // A witness only ever backs a Yes.
                Answer::Yes if v.proofs.is_empty() => {}
                Answer::No if v.witness.is_none() => {}
                _ => return false,
            }
        }
        let axioms = unit.analysis.axioms();
        let proofs_ok = entry
            .verdicts
            .iter()
            .flat_map(|v| v.proofs.iter())
            .take(REPLAY_PROOF_SAMPLE)
            .all(|proof| check_proof(axioms, proof).is_ok());
        // Same forged-evidence discipline for witnesses: every stored
        // witness heap must decode and satisfy the program's axioms, or
        // the whole entry re-proves cold.
        let witnesses_ok = entry
            .verdicts
            .iter()
            .filter_map(|v| v.witness.as_ref())
            .all(|w| w.check_heap(axioms).is_ok());
        proofs_ok && witnesses_ok
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
    /// Whether a baseline entry was accepted for replay (hashes matched
    /// and the proof spot-check passed).
    pub reused: bool,
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
    fn cold_run_covers_every_procedure() {
        let program = parse_program(TWO_PROCS).unwrap();
        let pa = analyze_program(&program);
        assert_eq!(pa.proc_names(), vec!["update", "touch"]);
        let report = pa.run(None, &BatchOptions::new());
        assert_eq!(report.procs.len(), 2);
        assert_eq!(report.procs_reused(), 0);
        assert_eq!(report.replayed(), 0);
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
        let update = incr.procs.iter().find(|p| p.name == "update").unwrap();
        assert!(update.reused);
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
        let mut tampered = cold.table.clone();
        let mut flipped = false;
        for entry in &mut tampered.procs {
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
        let report = pa.run(Some(&tampered), &BatchOptions::new());
        assert_eq!(
            answers(&report),
            answers(&pa.run(None, &BatchOptions::new()))
        );

        // Strip the proofs off every No: the entry still passes the
        // structural check (dispatch prunes legitimately store proof-less
        // Nos), but an unproven No never replays — each one re-proves,
        // so the tamper costs warmth, never a verdict.
        let mut stripped = cold.table.clone();
        let entry = stripped
            .procs
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
        let report = pa.run(Some(&stripped), &BatchOptions::new());
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
    }
}
