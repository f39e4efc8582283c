//! The access-path collection analysis (§3.3) and its dependence queries.
//!
//! The analyzer walks a procedure maintaining an [`Apm`] per program point,
//! snapshotting the matrix at every labeled memory access. Loops are
//! handled with the paper's induction-variable treatment: a variable
//! updated only self-relatively (`r = r->nrowE`) keeps its handles, its
//! per-iteration growth `Δ` is detected, and its paths widen to `P·Δ*`.
//! Each loop additionally anchors its induction variables at a fresh
//! *iteration handle* denoting the variable's value at the start of an
//! arbitrary iteration `i` — the anchor the paper uses to phrase
//! loop-carried theorems (`hr.ncolE+ <> hr.nrowE+ncolE+`, §5).

use crate::apm::Apm;
use apt_axioms::AxiomSet;
use apt_core::{
    AccessPath, Answer, Budget, CacheStats, DepEngine, DepTest, Handle, HandleRelation, MemRef,
    Portfolio, PortfolioConfig, ProverConfig, TallySink, TestOutcome,
};
use apt_ir::{Block, Program, Stmt, StmtKind};
use apt_regex::{ArenaScope, Component, Path, Symbol};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// What a labeled statement does to memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The dereferenced pointer variable (`p` in `p->f`).
    pub ptr: String,
    /// The accessed field.
    pub field: Symbol,
    /// Whether the access writes.
    pub is_write: bool,
}

/// One loop the analysis passed through, innermost last.
#[derive(Debug, Clone)]
pub struct LoopFrame {
    /// The loop statement's label, if any.
    pub label: Option<String>,
    /// Iteration anchors: `var → (handle for the var's value at iteration
    /// start, per-iteration growth Δ)`.
    pub induction: BTreeMap<String, (Handle, Path)>,
    /// Pointer fields the loop body stores to. A loop-carried query whose
    /// paths or deltas traverse one of these cannot be phrased: the body
    /// may redirect the walk between the two iterations.
    pub stored_fields: std::collections::BTreeSet<apt_regex::Symbol>,
    /// Whether the body contains an opaque call that may store anything.
    pub wildcard_stores: bool,
}

/// The analysis state recorded at a labeled statement.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The label.
    pub label: String,
    /// Position of the statement in the walk order: 0 for the first
    /// recorded access, counting up through inlined callee bodies. Stable
    /// across runs for the same program text, and the sort key that makes
    /// [`Analysis::all_queries`] deterministic.
    pub stmt_index: usize,
    /// The matrix at the statement (paths traversed up to, but not
    /// including, the statement).
    pub apm: Apm,
    /// What the statement accesses.
    pub access: Access,
    /// Enclosing loops, outermost first.
    pub loops: Vec<LoopFrame>,
}

/// Error from a dependence query against an [`Analysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// No snapshot with this label (missing label, or the labeled statement
    /// does not access memory).
    NoSuchLabel(String),
    /// The two references share no handle, or loop context is missing.
    NoCommonAnchor,
    /// The label is not inside a loop (for loop-carried queries).
    NotInLoop(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoSuchLabel(l) => write!(f, "no memory-access snapshot labeled {l:?}"),
            QueryError::NoCommonAnchor => write!(f, "no common handle anchors the two references"),
            QueryError::NotInLoop(l) => write!(f, "statement {l:?} is not inside a loop"),
        }
    }
}

impl Error for QueryError {}

/// One dependence question against an [`Analysis`], addressed by label:
/// what [`Analysis::run_batch`] answers, one of which
/// [`Analysis::test_sequential`] and [`Analysis::test_loop_carried`] each
/// ask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchQuery {
    /// Sequential dependence between two labeled statements, `from → to`.
    Sequential {
        /// The earlier statement's label.
        from: String,
        /// The later statement's label.
        to: String,
    },
    /// Loop-carried self-dependence on a labeled statement.
    LoopCarried {
        /// The statement's label.
        label: String,
        /// The enclosing loop's label (`None` = innermost with an anchor).
        loop_label: Option<String>,
    },
}

/// Options for [`Analysis::run_batch`]. Today that is the worker-thread
/// fan-out; the struct exists so future knobs (per-query budgets, replay
/// hints) extend the API without another signature change.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads each shared engine fans its queries out over.
    pub jobs: usize,
}

impl BatchOptions {
    /// Defaults: single-threaded execution.
    pub fn new() -> BatchOptions {
        BatchOptions { jobs: 1 }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> BatchOptions {
        self.jobs = jobs.max(1);
        self
    }
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions::new()
    }
}

/// What [`Analysis::run_batch`] returns: one outcome (or [`QueryError`])
/// per input query, in order, plus the cache entries the batch added to
/// the engines of every axiom-set group it used — observability for
/// `apt batch` and the whole-program layer (proof/subset cache sizes,
/// raw vs minimized DFA states).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-query outcomes, in input order.
    pub results: Vec<Result<TestOutcome, QueryError>>,
    /// Cache entries the batch added, summed across its engines.
    pub cache: CacheStats,
}

/// Which of the program's axioms §3.4 suspends at a query's points: the
/// suspect fields some axiom mentions (sorted), or every axiom. Queries
/// with equal keys prove under the same axiom set, so the key groups a
/// batch onto engines and names the engines a run carries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Suspended {
    /// Every axiom is suspended (a call may have stored anything).
    All,
    /// The axioms mentioning any of these fields are suspended.
    Fields(Vec<Symbol>),
}

/// The declared `axioms` minus those `suspended` names.
fn axioms_under(axioms: &AxiomSet, suspended: &Suspended) -> AxiomSet {
    match suspended {
        Suspended::All => AxiomSet::new(),
        Suspended::Fields(dirty) if dirty.is_empty() => axioms.clone(),
        Suspended::Fields(dirty) => axioms
            .iter()
            .filter(|a| {
                let mut fields = a.lhs().symbols();
                fields.extend(a.rhs().symbols());
                fields.iter().all(|f| !dirty.contains(f))
            })
            .cloned()
            .collect(),
    }
}

/// One [`BatchQuery`] resolved against its procedure's analysis: the
/// memory-reference pairs to test and what §3.4 suspends at its points.
/// A plan depends on the program text alone, not on prover rules,
/// budget or roster, so a plan one run made executes under another
/// run's settings (see [`Executor`]).
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    pairs: Vec<(MemRef, MemRef)>,
    suspended: Suspended,
}

/// A planned query, or why it cannot be phrased.
pub(crate) type Planned = Result<QueryPlan, QueryError>;

/// What planned queries execute under: the program's axiom set (each
/// engine proves under the part its queries' points leave valid), the
/// prover rules and budget, the engine roster, and the sink the engine
/// tallies go to.
pub(crate) struct Executor<'a> {
    pub(crate) axioms: &'a AxiomSet,
    pub(crate) config: &'a ProverConfig,
    pub(crate) portfolio: &'a PortfolioConfig,
    pub(crate) tallies: &'a TallySink,
}

impl Executor<'_> {
    /// Runs planned queries as engine batches on the engines of
    /// `engines`, building the ones it lacks: the one grouping and engine
    /// path behind [`Analysis::run_batch`] and
    /// [`crate::ProgramAnalysis::run`].
    ///
    /// Queries whose points suspend the same axioms share one
    /// [`DepEngine`] and therefore one proof/subset/DFA cache; each shared
    /// engine fans its queries out over [`BatchOptions::jobs`] threads via
    /// [`DepTest::test_batch`]. Per query, the first definite answer among
    /// its pairs wins, otherwise the last `Maybe` is reported. One result is
    /// returned per plan, in order. The plans lend their pairs to the
    /// batch; a plan gets them back when `keep` holds for its outcome and
    /// is left without pairs otherwise.
    pub(crate) fn execute(
        &self,
        plans: &mut [Planned],
        options: &BatchOptions,
        engines: &mut Engines,
        keep: impl Fn(&TestOutcome) -> bool,
    ) -> BatchReport {
        struct Slot {
            group: usize,
            range: Range<usize>,
        }
        type Tasks = Vec<(MemRef, MemRef, HandleRelation)>;
        let mut groups: Vec<(Suspended, Tasks)> = Vec::new();
        let mut slots: Vec<Result<Slot, QueryError>> = Vec::with_capacity(plans.len());
        for planned in plans.iter_mut() {
            match planned {
                Err(e) => slots.push(Err(e.clone())),
                Ok(plan) => {
                    // A procedure's points suspend few distinct field sets.
                    let group = match groups.iter().position(|(s, _)| *s == plan.suspended) {
                        Some(group) => group,
                        None => {
                            groups.push((plan.suspended.clone(), Vec::new()));
                            groups.len() - 1
                        }
                    };
                    let tasks = &mut groups[group].1;
                    let start = tasks.len();
                    tasks.extend(
                        std::mem::take(&mut plan.pairs)
                            .into_iter()
                            .map(|(s, t)| (s, t, HandleRelation::Same)),
                    );
                    slots.push(Ok(Slot {
                        group,
                        range: start..tasks.len(),
                    }));
                }
            }
        }
        let mut cache = CacheStats::default();
        let outcomes: Vec<Vec<TestOutcome>> = groups
            .iter()
            .map(|(suspended, tasks)| {
                let engine = engines.engine(self.config, suspended, || {
                    axioms_under(self.axioms, suspended)
                });
                let before = engine.cache_stats();
                let tester = DepTest::with_portfolio(Portfolio::tallied(
                    engine,
                    self.portfolio.clone(),
                    self.tallies,
                ));
                let outcomes = tester.test_batch(tasks, options.jobs);
                cache.absorb(&tester.engine().cache_stats().since(&before));
                outcomes
            })
            .collect();
        // Per query, the first definite answer among its pairs wins,
        // otherwise the last Maybe is reported.
        let settled = |slot: &Slot| {
            let outs = &outcomes[slot.group][slot.range.clone()];
            outs.iter()
                .find(|o| matches!(o.answer, Answer::No | Answer::Yes))
                .or_else(|| outs.last())
                .expect("a plan holds at least one pair")
        };
        // Each group's tasks are its plans' pairs in plan order.
        let mut lent: Vec<_> = groups
            .into_iter()
            .map(|(_, tasks)| tasks.into_iter())
            .collect();
        for (planned, slot) in plans.iter_mut().zip(&slots) {
            if let (Ok(plan), Ok(slot)) = (planned, slot) {
                let pairs = lent[slot.group].by_ref().take(slot.range.len());
                if keep(settled(slot)) {
                    plan.pairs.extend(pairs.map(|(s, t, _)| (s, t)));
                } else {
                    pairs.for_each(drop);
                }
            }
        }
        let results = slots
            .into_iter()
            .map(|slot| Ok(settled(&slot?).clone()))
            .collect();
        BatchReport { results, cache }
    }
}

/// The dependence engines a run proves on: one [`DepEngine`] per distinct
/// valid axiom set of one program, all under one set of prover rules.
/// [`crate::ProgramAnalysis::run`] carries them from run to run in its
/// [`crate::DepTable`]; [`Analysis::run_batch`] starts from an empty set.
#[derive(Debug, Clone, Default)]
pub(crate) struct Engines {
    /// Content hash of the program axiom set the engines prove under.
    axioms_hash: u64,
    /// The rule settings every engine here was built with: a
    /// [`ProverConfig`] with the default budget, since each run applies
    /// its own.
    rules: ProverConfig,
    by_suspended: HashMap<Suspended, DepEngine>,
}

impl Engines {
    /// The set a run over a program whose axiom set hashes to
    /// `axioms_hash` starts from: `carried` when it was built for the same
    /// axioms, else an empty one.
    pub(crate) fn carried(carried: Option<&Engines>, axioms_hash: u64) -> Engines {
        match carried {
            Some(engines) if engines.axioms_hash == axioms_hash => engines.clone(),
            _ => Engines {
                axioms_hash,
                ..Engines::default()
            },
        }
    }

    /// How many engines the set holds.
    pub(crate) fn len(&self) -> usize {
        self.by_suspended.len()
    }

    /// A handle, under `config`'s budget, on the engine for queries whose
    /// points suspend `suspended`; the engine is built over `axioms()`
    /// when the set has none. Engines built under other rules are dropped
    /// first, so a set only ever holds one rule configuration.
    fn engine(
        &mut self,
        config: &ProverConfig,
        suspended: &Suspended,
        axioms: impl FnOnce() -> AxiomSet,
    ) -> DepEngine {
        let rules = ProverConfig {
            budget: Budget::new(),
            ..config.clone()
        };
        if rules != self.rules {
            self.by_suspended.clear();
            self.rules = rules.clone();
        }
        let engine = self
            .by_suspended
            .entry(suspended.clone())
            .or_insert_with(|| {
                // The engine outlives this call, so the building thread
                // enters its scope only to charge the axiom compile there.
                let scope = Arc::new(ArenaScope::detached());
                let _in_scope = scope.enter();
                DepEngine::from_arc_in(Arc::new(axioms()), rules, Arc::clone(&scope))
            });
        engine.with_budget(config.budget.clone())
    }
}

impl BatchReport {
    /// Whether any query answered Maybe or failed to be phrased.
    pub fn any_maybe(&self) -> bool {
        self.results
            .iter()
            .any(|r| !matches!(r, Ok(o) if o.answer != Answer::Maybe))
    }
}

/// The result of analyzing one procedure.
#[derive(Debug, Clone)]
pub struct Analysis {
    snapshots: BTreeMap<String, Snapshot>,
    exit: Apm,
    axioms: Arc<AxiomSet>,
    /// Every field some axiom mentions (sorted), computed on the first
    /// query that finds a suspect field.
    axiom_fields: OnceLock<Vec<Symbol>>,
    config: ProverConfig,
    /// The engine roster every query runs through (the axiomatic prover
    /// alone unless widened).
    portfolio: PortfolioConfig,
    /// Engine tallies, shared across every batch this analysis runs
    /// (clones of the analysis share it too).
    tallies: TallySink,
}

/// Analyzes one procedure of a program.
///
/// The axioms attached to the program's type declarations are assumed valid
/// on entry; structural modifications conservatively clear the matrix
/// (§3.4), so queries never cross them with stale paths.
///
/// # Errors
///
/// Returns `Err` if the procedure does not exist.
pub fn analyze_proc(program: &Program, proc_name: &str) -> Result<Analysis, QueryError> {
    analyze_proc_under(program, proc_name, Arc::new(program.all_axioms()))
}

/// [`analyze_proc`] with the program's axiom set already collected, so
/// the analyses of one program share it.
pub(crate) fn analyze_proc_under(
    program: &Program,
    proc_name: &str,
    axioms: Arc<AxiomSet>,
) -> Result<Analysis, QueryError> {
    let proc = program
        .proc(proc_name)
        .ok_or_else(|| QueryError::NoSuchLabel(proc_name.to_owned()))?;
    let mut apm = Apm::new();
    for (var, _ty) in &proc.params {
        apm.seed_var(var);
    }
    let mut snapshots = BTreeMap::new();
    let mut frames = Vec::new();
    let mut wctx = WalkCtx {
        program,
        call_stack: vec![proc_name.to_owned()],
        callsite: 0,
        next_index: 0,
    };
    walk_block(
        &proc.body,
        &mut apm,
        &mut frames,
        Some(&mut snapshots),
        &mut wctx,
    );
    Ok(Analysis {
        snapshots,
        exit: apm,
        axioms,
        axiom_fields: OnceLock::new(),
        config: ProverConfig::default(),
        portfolio: PortfolioConfig::axiomatic_only(),
        tallies: TallySink::new(),
    })
}

/// Interprocedural walking state: the program (for callee lookup), the
/// call stack (recursion guard), and a counter giving each inlined call
/// site a unique suffix.
struct WalkCtx<'a> {
    program: &'a Program,
    call_stack: Vec<String>,
    callsite: usize,
    /// Next [`Snapshot::stmt_index`]; bumped only when a snapshot is
    /// recorded (pass-A probe walks pass no snapshot map and do not
    /// advance it, so the numbering is the pass-B statement order).
    next_index: usize,
}

fn access_of(kind: &StmtKind) -> Option<Access> {
    match kind {
        StmtKind::ScalarWrite { ptr, field, .. } => Some(Access {
            ptr: ptr.clone(),
            field: *field,
            is_write: true,
        }),
        StmtKind::ScalarRead { ptr, field, .. } => Some(Access {
            ptr: ptr.clone(),
            field: *field,
            is_write: false,
        }),
        StmtKind::PtrStore { ptr, field, .. } => Some(Access {
            ptr: ptr.clone(),
            field: *field,
            is_write: true,
        }),
        StmtKind::PtrLoad { src, field, dst } if dst != src => Some(Access {
            ptr: src.clone(),
            field: *field,
            is_write: false,
        }),
        StmtKind::PtrLoad { src, field, .. } => Some(Access {
            ptr: src.clone(),
            field: *field,
            is_write: false,
        }),
        _ => None,
    }
}

fn walk_block(
    block: &Block,
    apm: &mut Apm,
    frames: &mut Vec<LoopFrame>,
    mut snapshots: Option<&mut BTreeMap<String, Snapshot>>,
    wctx: &mut WalkCtx<'_>,
) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Loop { body } => {
                walk_loop(stmt, body, apm, frames, snapshots.as_deref_mut(), wctx);
            }
            StmtKind::If {
                then_branch,
                else_branch,
            } => {
                let mut then_apm = apm.clone();
                let mut else_apm = apm.clone();
                walk_block(
                    then_branch,
                    &mut then_apm,
                    frames,
                    snapshots.as_deref_mut(),
                    wctx,
                );
                walk_block(
                    else_branch,
                    &mut else_apm,
                    frames,
                    snapshots.as_deref_mut(),
                    wctx,
                );
                *apm = then_apm.join(&else_apm);
            }
            StmtKind::Call { callee, args } => {
                walk_call(
                    stmt,
                    callee,
                    args,
                    apm,
                    frames,
                    snapshots.as_deref_mut(),
                    wctx,
                );
            }
            _ => {
                // Snapshot *before* the statement's own transfer.
                if let (Some(label), Some(snaps)) = (&stmt.label, snapshots.as_deref_mut()) {
                    if let Some(access) = access_of(&stmt.kind) {
                        let stmt_index = wctx.next_index;
                        wctx.next_index += 1;
                        snaps.insert(
                            label.clone(),
                            Snapshot {
                                label: label.clone(),
                                stmt_index,
                                apm: apm.clone(),
                                access,
                                loops: frames.clone(),
                            },
                        );
                    }
                }
                apm.transfer(stmt);
            }
        }
    }
}

fn walk_loop(
    stmt: &Stmt,
    body: &Block,
    apm: &mut Apm,
    frames: &mut Vec<LoopFrame>,
    snapshots: Option<&mut BTreeMap<String, Snapshot>>,
    wctx: &mut WalkCtx<'_>,
) {
    // Pass A: run the body once (without snapshots) to find per-iteration
    // growth.
    let entry = apm.clone();
    let mut probe = entry.clone();
    let mut probe_frames = frames.clone();
    walk_block(body, &mut probe, &mut probe_frames, None, wctx);

    // Widen: classify each variable.
    let mut widened = Apm::new();
    widened.inherit_modifications(&probe);
    // var → deltas seen across its handles (None = non-prefix change).
    let mut var_deltas: BTreeMap<String, Option<Vec<Path>>> = BTreeMap::new();
    for var in entry.vars() {
        let mut deltas: Option<Vec<Path>> = Some(Vec::new());
        for (h, before) in entry.paths_of(&var) {
            match probe.path_from(&h, &var) {
                Some(after) if component_prefix(&before, after) => {
                    let delta = suffix_after(&before, after);
                    if let Some(ds) = deltas.as_mut() {
                        ds.push(delta);
                    }
                }
                _ => deltas = None,
            }
        }
        var_deltas.insert(var, deltas);
    }
    let mut induction: BTreeMap<String, (Handle, Path)> = BTreeMap::new();
    let mut widened_inner = widened;
    for (var, deltas) in &var_deltas {
        let Some(deltas) = deltas else { continue };
        // All entries grew by a common delta?
        let first = deltas.first().cloned().unwrap_or_default();
        let uniform = deltas.iter().all(|d| *d == first);
        for (h, before) in entry.paths_of(var) {
            let path = if uniform && !first.is_epsilon() {
                let mut p = before.clone();
                p.push(Component::Star(first.clone()));
                p
            } else if uniform {
                before.clone()
            } else {
                // Non-uniform growth: widen each entry by its own delta.
                let after = probe.path_from(&h, var).expect("prefix-checked");
                let delta = suffix_after(&before, after);
                if delta.is_epsilon() {
                    before.clone()
                } else {
                    let mut p = before.clone();
                    p.push(Component::Star(delta));
                    p
                }
            };
            seed_entry(&mut widened_inner, &h, var, path);
        }
        if uniform && !first.is_epsilon() {
            // Induction variable: anchor its value at iteration start.
            let h_iter = Handle::new(format!("_h{var}_iter"));
            seed_entry(&mut widened_inner, &h_iter, var, Path::epsilon());
            induction.insert(var.clone(), (h_iter, first));
        }
    }
    let widened = widened_inner;

    // Pass B: walk the body from the widened state, recording snapshots.
    let (stored_fields, wildcard_stores) = probe.modified_fields_since(&entry);
    let mut pass_b = widened.clone();
    frames.push(LoopFrame {
        label: stmt.label.clone(),
        induction,
        stored_fields,
        wildcard_stores,
    });
    walk_block(body, &mut pass_b, frames, snapshots, wctx);
    frames.pop();

    // Post-loop state: any number (≥0) of iterations from entry = widened.
    *apm = widened;
}

/// Inlines a procedure call (§2's interprocedural setting, done
/// McCAT-style by substitution): parameters are bound to the argument
/// variables, the callee body is walked with its variables renamed to a
/// unique `callee::var@site` namespace (labels likewise), and the callee
/// locals are dropped afterwards. Recursive, unknown, or arity-mismatched
/// calls fall back to the conservative [`Apm::transfer`] treatment.
#[allow(clippy::too_many_arguments)]
fn walk_call(
    stmt: &Stmt,
    callee: &str,
    args: &[String],
    apm: &mut Apm,
    frames: &mut Vec<LoopFrame>,
    snapshots: Option<&mut BTreeMap<String, Snapshot>>,
    wctx: &mut WalkCtx<'_>,
) {
    let conservative = |apm: &mut Apm| apm.transfer(stmt);
    let Some(proc) = wctx.program.proc(callee) else {
        conservative(apm);
        return;
    };
    if wctx.call_stack.iter().any(|c| c == callee) || args.len() != proc.params.len() {
        conservative(apm);
        return;
    }
    wctx.callsite += 1;
    let site = wctx.callsite;
    let prefix = format!("{callee}@{site}");
    let rename = |v: &str| format!("{prefix}::{v}");

    // Scope bookkeeping: everything visible now survives the call.
    let caller_vars: std::collections::BTreeSet<String> = apm.vars().into_iter().collect();

    // Bind parameters by value.
    for ((param, _ty), arg) in proc.params.iter().zip(args) {
        apm.transfer(&Stmt::new(StmtKind::PtrCopy {
            dst: rename(param),
            src: arg.clone(),
        }));
    }
    let body = rename_block(&proc.body, &prefix);
    wctx.call_stack.push(callee.to_owned());
    walk_block(&body, apm, frames, snapshots, wctx);
    wctx.call_stack.pop();
    apm.retain_vars(&caller_vars);
}

/// Renames every variable and label of a callee body into the call-site
/// namespace.
fn rename_block(block: &Block, prefix: &str) -> Block {
    Block {
        stmts: block.stmts.iter().map(|s| rename_stmt(s, prefix)).collect(),
    }
}

fn rename_stmt(stmt: &Stmt, prefix: &str) -> Stmt {
    let r = |v: &String| format!("{prefix}::{v}");
    let kind = match &stmt.kind {
        StmtKind::PtrCopy { dst, src } => StmtKind::PtrCopy {
            dst: r(dst),
            src: r(src),
        },
        StmtKind::PtrLoad { dst, src, field } => StmtKind::PtrLoad {
            dst: r(dst),
            src: r(src),
            field: *field,
        },
        StmtKind::PtrNew { dst, ty } => StmtKind::PtrNew {
            dst: r(dst),
            ty: ty.clone(),
        },
        StmtKind::PtrNull { dst } => StmtKind::PtrNull { dst: r(dst) },
        StmtKind::PtrStore { ptr, field, src } => StmtKind::PtrStore {
            ptr: r(ptr),
            field: *field,
            src: src.as_ref().map(r),
        },
        StmtKind::ScalarWrite { ptr, field, value } => StmtKind::ScalarWrite {
            ptr: r(ptr),
            field: *field,
            value: value.clone(),
        },
        StmtKind::ScalarRead { var, ptr, field } => StmtKind::ScalarRead {
            var: r(var),
            ptr: r(ptr),
            field: *field,
        },
        StmtKind::ScalarAssign { var, value } => StmtKind::ScalarAssign {
            var: r(var),
            value: value.clone(),
        },
        StmtKind::Call { callee, args } => StmtKind::Call {
            callee: callee.clone(),
            args: args.iter().map(r).collect(),
        },
        StmtKind::Reassert => StmtKind::Reassert,
        StmtKind::Loop { body } => StmtKind::Loop {
            body: rename_block(body, prefix),
        },
        StmtKind::If {
            then_branch,
            else_branch,
        } => StmtKind::If {
            then_branch: rename_block(then_branch, prefix),
            else_branch: rename_block(else_branch, prefix),
        },
    };
    Stmt {
        label: stmt.label.as_ref().map(|l| format!("{prefix}::{l}")),
        kind,
    }
}

/// Inserts an entry into an APM. (The APM's public API is driven by
/// statement transfer; the analysis driver needs direct seeding for
/// widening, which this helper provides via a synthetic copy.)
fn seed_entry(apm: &mut Apm, handle: &Handle, var: &str, path: Path) {
    apm.insert_entry(handle.clone(), var.to_owned(), path);
}

/// Whether `long` extends `short` component-wise.
fn component_prefix(short: &Path, long: &Path) -> bool {
    long.len() >= short.len() && &long.components()[..short.len()] == short.components()
}

/// The components of `long` after the `short` prefix.
fn suffix_after(short: &Path, long: &Path) -> Path {
    Path::new(long.components()[short.len()..].to_vec())
}

impl Analysis {
    /// Sets the prover configuration (budget, rule switches) used by all
    /// subsequent dependence queries against this analysis.
    pub fn set_prover_config(&mut self, config: ProverConfig) {
        self.config = config;
    }

    /// Builder form of [`Analysis::set_prover_config`].
    #[must_use]
    pub fn with_prover_config(mut self, config: ProverConfig) -> Analysis {
        self.config = config;
        self
    }

    /// The prover configuration queries will run under.
    pub fn prover_config(&self) -> &ProverConfig {
        &self.config
    }

    /// Sets the engine roster all subsequent queries run through
    /// (axiomatic prover, concrete-heap refuter).
    pub fn set_portfolio_config(&mut self, config: PortfolioConfig) {
        self.portfolio = config;
    }

    /// Builder form of [`Analysis::set_portfolio_config`].
    #[must_use]
    pub fn with_portfolio_config(mut self, config: PortfolioConfig) -> Analysis {
        self.portfolio = config;
        self
    }

    /// The engine roster queries run through.
    pub fn portfolio_config(&self) -> &PortfolioConfig {
        &self.portfolio
    }

    /// Records this analysis's engine tallies into a caller-shared sink
    /// (clones of a [`TallySink`] share counters), e.g. the serve
    /// daemon's server-wide totals.
    pub fn set_portfolio_tallies(&mut self, sink: TallySink) {
        self.tallies = sink;
    }

    /// The snapshot at a label, if the statement accesses memory.
    pub fn snapshot(&self, label: &str) -> Option<&Snapshot> {
        self.snapshots.get(label)
    }

    /// Every labeled memory access, in label order.
    pub fn snapshots(&self) -> impl Iterator<Item = &Snapshot> {
        self.snapshots.values()
    }

    /// Every labeled memory access in statement order: sorted by
    /// `(stmt_index, label)`, the order [`Analysis::all_queries`] asks in.
    pub fn ordered_snapshots(&self) -> Vec<&Snapshot> {
        let mut snaps: Vec<&Snapshot> = self.snapshots().collect();
        snaps.sort_by_key(|s| (s.stmt_index, s.label.as_str()));
        snaps
    }

    /// The labels of every recorded memory access, in label order.
    pub fn labels(&self) -> Vec<&str> {
        self.snapshots.keys().map(String::as_str).collect()
    }

    /// The matrix at procedure exit.
    pub fn exit_apm(&self) -> &Apm {
        &self.exit
    }

    /// The axioms collected from the program's type declarations.
    pub fn axioms(&self) -> &AxiomSet {
        &self.axioms
    }

    /// The axioms usable for a query touching the given snapshots: the
    /// declared set minus any axiom mentioning a field whose invariants
    /// are suspect at either point (§3.4's intersection of the axiom sets
    /// valid before and after a modification).
    pub fn valid_axioms(&self, snaps: &[&Snapshot]) -> AxiomSet {
        axioms_under(&self.axioms, &self.suspended(snaps))
    }

    /// What §3.4 suspends at the given snapshots, as a key: suspect fields
    /// no axiom mentions change no axiom set, so they are left out.
    fn suspended(&self, snaps: &[&Snapshot]) -> Suspended {
        if snaps.iter().any(|s| s.apm.all_axioms_dirty()) {
            return Suspended::All;
        }
        let mut fields: Vec<Symbol> = Vec::new();
        for s in snaps {
            for f in s.apm.dirty_axiom_fields() {
                let mentioned = self
                    .axiom_fields
                    .get_or_init(|| self.axioms.symbols())
                    .binary_search(f)
                    .is_ok();
                if mentioned && !fields.contains(f) {
                    fields.push(*f);
                }
            }
        }
        fields.sort_unstable();
        Suspended::Fields(fields)
    }

    /// Builds the memory-reference pairs for a sequential dependence query
    /// `S → T`, one per common handle ("we scan the APMs at S and T,
    /// looking for a handle common to both p and q").
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn sequential_pairs(
        &self,
        s_label: &str,
        t_label: &str,
    ) -> Result<Vec<(MemRef, MemRef)>, QueryError> {
        let s = self
            .snapshot(s_label)
            .ok_or_else(|| QueryError::NoSuchLabel(s_label.to_owned()))?;
        let t = self
            .snapshot(t_label)
            .ok_or_else(|| QueryError::NoSuchLabel(t_label.to_owned()))?;
        // §3.4, field-sensitive: a pair is usable only when both paths'
        // traversed fields are unmodified between the two points, so each
        // path is valid at both statements.
        let mut pairs = Vec::new();
        for (hs, ps) in s.apm.paths_of(&s.access.ptr) {
            if !s.apm.path_valid_at(&ps, &t.apm) {
                continue;
            }
            for (ht, pt) in t.apm.paths_of(&t.access.ptr) {
                if hs != ht || !t.apm.path_valid_at(&pt, &s.apm) {
                    continue;
                }
                pairs.push((
                    MemRef::new(AccessPath::new(hs.clone(), ps.clone()), s.access.field),
                    MemRef::new(AccessPath::new(ht, pt), t.access.field),
                ));
            }
        }
        if pairs.is_empty() {
            return Err(QueryError::NoCommonAnchor);
        }
        Ok(pairs)
    }

    /// Builds the memory-reference pair for a loop-carried self-dependence
    /// query on the labeled statement: the access at iteration `i` versus
    /// the access at a later iteration `j > i`, both anchored at the
    /// induction variable's value at iteration `i` (the paper's §5
    /// formulation).
    ///
    /// `loop_label` selects the loop level; `None` means the innermost
    /// enclosing loop that has an induction anchor for the access.
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn loop_carried_pair(
        &self,
        label: &str,
        loop_label: Option<&str>,
    ) -> Result<(MemRef, MemRef), QueryError> {
        let snap = self
            .snapshot(label)
            .ok_or_else(|| QueryError::NoSuchLabel(label.to_owned()))?;
        if snap.loops.is_empty() {
            return Err(QueryError::NotInLoop(label.to_owned()));
        }
        let frames: Vec<&LoopFrame> = match loop_label {
            Some(l) => snap
                .loops
                .iter()
                .filter(|f| f.label.as_deref() == Some(l))
                .collect(),
            None => snap.loops.iter().rev().collect(),
        };
        for frame in frames {
            if frame.wildcard_stores {
                continue;
            }
            for (h_iter, delta) in frame.induction.values() {
                if let Some(path_i) = snap.apm.path_from(h_iter, &snap.access.ptr) {
                    // The iteration-relative formulation is only valid when
                    // the body leaves the traversed fields untouched: a
                    // store to one of them may redirect the walk between
                    // iterations i and j.
                    let mut fields = path_i.to_regex().symbols();
                    fields.extend(delta.to_regex().symbols());
                    if fields.iter().any(|f| frame.stored_fields.contains(f)) {
                        continue;
                    }
                    // iteration j = i + (≥1) applications of Δ
                    let mut path_j = Path::new(vec![Component::Plus(delta.clone())]);
                    path_j = path_j.concat(path_i);
                    let r_i = MemRef::new(
                        AccessPath::new(h_iter.clone(), path_i.clone()),
                        snap.access.field,
                    );
                    let r_j =
                        MemRef::new(AccessPath::new(h_iter.clone(), path_j), snap.access.field);
                    return Ok((r_i, r_j));
                }
            }
        }
        Err(QueryError::NoCommonAnchor)
    }

    /// Runs the full dependence test between two labeled statements, using
    /// the program's axioms: a one-query [`Analysis::run_batch`].
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn test_sequential(&self, s_label: &str, t_label: &str) -> Result<TestOutcome, QueryError> {
        self.test_one(BatchQuery::Sequential {
            from: s_label.to_owned(),
            to: t_label.to_owned(),
        })
    }

    /// Runs the loop-carried dependence test for the labeled statement: a
    /// one-query [`Analysis::run_batch`].
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn test_loop_carried(
        &self,
        label: &str,
        loop_label: Option<&str>,
    ) -> Result<TestOutcome, QueryError> {
        self.test_one(BatchQuery::LoopCarried {
            label: label.to_owned(),
            loop_label: loop_label.map(str::to_owned),
        })
    }

    fn test_one(&self, query: BatchQuery) -> Result<TestOutcome, QueryError> {
        let mut report = self.run_batch(&[query], &BatchOptions::new());
        report.results.pop().expect("one result per query")
    }

    /// Resolves one [`BatchQuery`] to its memory-reference pairs and what
    /// §3.4 suspends at the points it touches.
    pub(crate) fn plan_query(&self, query: &BatchQuery) -> Planned {
        let (pairs, suspended) = match query {
            BatchQuery::Sequential { from, to } => {
                let pairs = self.sequential_pairs(from, to)?;
                let s = self.snapshot(from).expect("checked above");
                let t = self.snapshot(to).expect("checked above");
                (pairs, self.suspended(&[s, t]))
            }
            BatchQuery::LoopCarried { label, loop_label } => {
                let pair = self.loop_carried_pair(label, loop_label.as_deref())?;
                let snap = self.snapshot(label).expect("checked above");
                (vec![pair], self.suspended(&[snap]))
            }
        };
        Ok(QueryPlan { pairs, suspended })
    }

    /// Runs many dependence queries as engine batches and reports the
    /// per-query outcomes together with the engine cache statistics.
    ///
    /// Each query's pairs are tested under the axioms valid at its points,
    /// and per query the first definite answer among its pairs wins,
    /// otherwise the last `Maybe` is reported. Queries whose points suspend the same axioms
    /// (§3.4 may suspend different axioms at different points) share one
    /// [`DepEngine`] and therefore one proof/subset/DFA cache; each shared
    /// engine fans its queries out over [`BatchOptions::jobs`] threads via
    /// [`DepTest::test_batch`].
    ///
    /// One outcome (or [`QueryError`]) is returned per input query, in
    /// order, in [`BatchReport::results`].
    pub fn run_batch(&self, queries: &[BatchQuery], options: &BatchOptions) -> BatchReport {
        let mut plans: Vec<Planned> = queries.iter().map(|q| self.plan_query(q)).collect();
        let executor = Executor {
            axioms: &self.axioms,
            config: &self.config,
            portfolio: &self.portfolio,
            tallies: &self.tallies,
        };
        executor.execute(&mut plans, options, &mut Engines::default(), |_| false)
    }

    /// The full query workload for this procedure, mirroring `apt report`:
    /// an (innermost) loop-carried query for every labeled access inside a
    /// loop, then a sequential query for every label pair where at least
    /// one side writes.
    ///
    /// The ordering is deterministic and part of the contract: snapshots
    /// are sorted by `(stmt_index, label)` — statement position in the
    /// walk order, label as tie-break — loop-carried queries come first in
    /// that order, then sequential pairs `(i, j)` with `i` before `j` in
    /// the same order. Two analyses of the same program text therefore
    /// produce the same query list, so table diffs between runs are
    /// stable and incremental caches keyed on the rendered queries are
    /// insensitive to container iteration order.
    pub fn all_queries(&self) -> Vec<BatchQuery> {
        let snaps = self.ordered_snapshots();
        let mut queries = Vec::new();
        for snap in &snaps {
            if !snap.loops.is_empty() {
                queries.push(BatchQuery::LoopCarried {
                    label: snap.label.clone(),
                    loop_label: None,
                });
            }
        }
        for (i, a) in snaps.iter().enumerate() {
            for b in snaps.iter().skip(i + 1) {
                if a.access.is_write || b.access.is_write {
                    queries.push(BatchQuery::Sequential {
                        from: a.label.clone(),
                        to: b.label.clone(),
                    });
                }
            }
        }
        queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_ir::parse_program;

    const TREE: &str = r"
        type LLBinaryTree {
            ptr L: LLBinaryTree;
            ptr R: LLBinaryTree;
            ptr N: LLBinaryTree;
            data d;
            axiom A1: forall p, p.L <> p.R;
            axiom A2: forall p <> q, p.(L|R) <> q.(L|R);
            axiom A3: forall p <> q, p.N <> q.N;
            axiom A4: forall p, p.(L|R|N)+ <> p.eps;
        }
    ";

    const LIST: &str = r"
        type List {
            ptr link: List;
            data f;
            axiom A1: forall p <> q, p.link <> q.link;
            axiom A2: forall p, p.link+ <> p.eps;
        }
    ";

    #[test]
    fn paper_subr_example_end_to_end() {
        // The exact code fragment of §3.3.
        let src = format!(
            "{TREE}
            proc subr(root: LLBinaryTree) {{
                root = root->L;
                p = root->L;
                p = p->N;
            S:  p->d = 100;
                p = root;
                q = root->R;
                q = q->N;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "subr").unwrap();
        // The snapshots hold the paper's paths.
        let s = analysis.snapshot("S").unwrap();
        let paths: Vec<String> = s
            .apm
            .paths_of("p")
            .into_iter()
            .map(|(_, p)| p.to_string())
            .collect();
        assert!(paths.contains(&"L.L.N".to_owned()), "got {paths:?}");
        // And the dependence test answers No, as the paper proves.
        let outcome = analysis.test_sequential("S", "T").unwrap();
        assert_eq!(outcome.answer, Answer::No);
    }

    #[test]
    fn figure1_loop_carried_output_dependence_is_broken() {
        // Figure 1's right fragment: U: q->f = fun(); q = q->link;
        // The loop-carried output dependence U→U is disproven by listness.
        let src = format!(
            "{LIST}
            proc fig1(head: List) {{
                q = head;
                loop {{
                U:  q->f = fun();
                    q = q->link;
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "fig1").unwrap();
        let (ri, rj) = analysis.loop_carried_pair("U", None).unwrap();
        assert_eq!(ri.access.path.to_string(), "eps");
        assert_eq!(rj.access.path.to_string(), "link+");
        let outcome = analysis.test_loop_carried("U", None).unwrap();
        assert_eq!(outcome.answer, Answer::No);
    }

    #[test]
    fn loop_carried_dependence_not_broken_without_axioms() {
        let src = r"
            type List { ptr link: List; data f; }
            proc fig1(head: List) {
                q = head;
                loop {
                U:  q->f = fun();
                    q = q->link;
                }
            }";
        let program = parse_program(src).unwrap();
        let analysis = analyze_proc(&program, "fig1").unwrap();
        let outcome = analysis.test_loop_carried("U", None).unwrap();
        assert_eq!(outcome.answer, Answer::Maybe);
    }

    #[test]
    fn widening_produces_star_paths() {
        let src = format!(
            "{LIST}
            proc walk(head: List) {{
                q = head;
                loop {{
                    q = q->link;
                }}
            V:  q->f = 1;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "walk").unwrap();
        let v = analysis.snapshot("V").unwrap();
        let paths: Vec<String> = v
            .apm
            .paths_of("q")
            .into_iter()
            .map(|(_, p)| p.to_string())
            .collect();
        assert!(
            paths.iter().any(|p| p.contains("link*")),
            "expected widened path, got {paths:?}"
        );
    }

    #[test]
    fn sequential_same_location_is_yes() {
        let src = format!(
            "{TREE}
            proc f(root: LLBinaryTree) {{
                p = root->L;
                q = root->L;
            S:  p->d = 1;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        let outcome = analysis.test_sequential("S", "T").unwrap();
        assert_eq!(outcome.answer, Answer::Yes);
    }

    #[test]
    fn structural_modification_is_field_sensitive() {
        // Store to root->R between S and T: p itself is untouched (its
        // own ε anchor survives), so the same-location dependence is
        // still seen — a Yes, where the coarse §3.4 treatment could only
        // say Maybe.
        let src = format!(
            "{TREE}
            proc f(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                n = malloc(LLBinaryTree);
                root->R = n;
            T:  t = p->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        let outcome = analysis.test_sequential("S", "T").unwrap();
        assert_eq!(outcome.answer, Answer::Yes);

        // But a cross-variable query whose paths traverse the stored
        // field is blocked: q re-walks root->L after L was modified, so
        // S's L-path is stale.
        let src = format!(
            "{TREE}
            proc g(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                n = malloc(LLBinaryTree);
                root->L = n;
                q = root->L;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "g").unwrap();
        assert!(matches!(
            analysis.sequential_pairs("S", "T"),
            Err(QueryError::NoCommonAnchor)
        ));
    }

    #[test]
    fn store_suspends_axioms_mentioning_the_field() {
        // After a store to N, axioms over N (A3, A4) are suspect; a
        // reassert restores them (§3.4).
        let src = format!(
            "{TREE}
            proc f(root: LLBinaryTree) {{
                p = root->L;
                q = root->R;
                n = malloc(LLBinaryTree);
                p->N = n;
            S:  p->d = 1;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        let s = analysis.snapshot("S").unwrap();
        let t = analysis.snapshot("T").unwrap();
        let valid = analysis.valid_axioms(&[s, t]);
        // A1, A2 survive (L/R only); A3, A4 mention N.
        assert!(valid.by_name("A1").is_some());
        assert!(valid.by_name("A2").is_some());
        assert!(valid.by_name("A3").is_none());
        assert!(valid.by_name("A4").is_none());
        // The L vs R query is still provable from the surviving axioms
        // (the paths don't traverse N, so they stayed valid too).
        let outcome = analysis.test_sequential("S", "T").unwrap();
        assert_eq!(outcome.answer, Answer::No);

        // With a reassert after the insertion, everything is usable again.
        let src = format!(
            "{TREE}
            proc g(root: LLBinaryTree) {{
                p = root->L;
                q = root->R;
                n = malloc(LLBinaryTree);
                p->N = n;
                reassert;
            S:  p->d = 1;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "g").unwrap();
        let s = analysis.snapshot("S").unwrap();
        let t = analysis.snapshot("T").unwrap();
        assert_eq!(analysis.valid_axioms(&[s, t]).len(), 4);
    }

    #[test]
    fn if_branches_join_conservatively() {
        let src = format!(
            "{TREE}
            proc f(root: LLBinaryTree) {{
                if {{ p = root->L; }} else {{ p = root->R; }}
            S:  p->d = 1;
            T:  t = root->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        // p's path differs between branches, so p has no anchor after the
        // join; the query cannot be phrased.
        assert!(analysis.sequential_pairs("S", "T").is_err());
    }

    #[test]
    fn nested_loops_give_paper_sparse_paths() {
        // The §5 factorization pattern: outer loop over rows (r induction),
        // inner loop over the row's elements (e induction).
        let src = r"
            type Elem {
                ptr nrowE: Elem;
                ptr ncolE: Elem;
                data val;
                axiom A1: forall p <> q, p.ncolE <> q.ncolE;
                axiom A2: forall p, p.ncolE+ <> p.nrowE+;
                axiom A3: forall p, p.(ncolE|nrowE)+ <> p.eps;
            }
            proc factor(row: Elem) {
                r = row;
                loop {
                    e = r->ncolE;
                    loop {
                    S:  e->val = fun();
                        e = e->ncolE;
                    }
                    r = r->nrowE;
                }
            }";
        let program = parse_program(src).unwrap();
        let analysis = analyze_proc(&program, "factor").unwrap();
        // Outer-loop carried dependence on S: iteration i accesses
        // hr.ncolE.ncolE*, iteration j accesses hr.nrowE+.ncolE.ncolE* —
        // the paper's Theorem T. APT breaks it.
        let (ri, rj) = analysis
            .loop_carried_pair("S", None)
            .or_else(|_| analysis.loop_carried_pair("S", Some("outer")))
            .unwrap();
        let _ = (&ri, &rj);
        let outcome = analysis.test_loop_carried("S", None).unwrap();
        assert_eq!(outcome.answer, Answer::No);
    }

    #[test]
    fn read_only_call_preserves_paths() {
        // A call that only reads must not invalidate the caller's paths:
        // S (before the call) and T (after) still share _hroot.
        let src = format!(
            "{TREE}
            proc peek(t: LLBinaryTree) {{
            P:  v = t->d;
            }}
            proc f(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                call peek(p);
                q = root->R;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        let outcome = analysis.test_sequential("S", "T").unwrap();
        assert_eq!(outcome.answer, Answer::No);
        // The callee's labeled access was recorded under its call-site
        // namespace, anchored at the caller's handle.
        let inner = analysis.snapshot("peek@1::P").expect("inlined label");
        let paths: Vec<String> = inner
            .apm
            .paths_of(&inner.access.ptr)
            .into_iter()
            .map(|(_, p)| p.to_string())
            .collect();
        assert!(paths.contains(&"L".to_owned()), "{paths:?}");
    }

    #[test]
    fn mutating_call_invalidates_traversing_paths() {
        // The inlined callee stores t->L: every L-traversing anchor dies,
        // but p's own ε anchor survives — the true p->d self-dependence
        // is still seen.
        let src = format!(
            "{TREE}
            proc grow(t: LLBinaryTree) {{
                n = malloc(LLBinaryTree);
                t->L = n;
            }}
            proc f(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                call grow(p);
            T:  t = p->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        let outcome = analysis.test_sequential("S", "T").unwrap();
        assert_eq!(outcome.answer, Answer::Yes);
        // A cross-variable L-path query across the same call is blocked.
        let src = format!(
            "{TREE}
            proc grow(t: LLBinaryTree) {{
                n = malloc(LLBinaryTree);
                t->L = n;
            }}
            proc g(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                call grow(root);
                q = root->L;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "g").unwrap();
        assert!(analysis.sequential_pairs("S", "T").is_err());
    }

    #[test]
    fn unknown_and_recursive_calls_are_conservative() {
        let src = format!(
            "{TREE}
            proc f(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                call mystery(p);
            T:  t = p->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        assert!(analysis.sequential_pairs("S", "T").is_err());

        let src = format!(
            "{TREE}
            proc f(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                call f(p);
            T:  t = p->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        assert!(analysis.sequential_pairs("S", "T").is_err());
    }

    #[test]
    fn nested_calls_get_distinct_namespaces() {
        let src = format!(
            "{TREE}
            proc peek(t: LLBinaryTree) {{
            P:  v = t->d;
            }}
            proc f(root: LLBinaryTree) {{
                p = root->L;
                call peek(p);
                q = root->R;
                call peek(q);
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        assert!(analysis.snapshot("peek@1::P").is_some());
        assert!(analysis.snapshot("peek@2::P").is_some());
        // The two inlined reads are anchored at different subtrees:
        // provably independent despite being the same source statement.
        let outcome = analysis.test_sequential("peek@1::P", "peek@2::P").unwrap();
        assert_eq!(outcome.answer, Answer::No);
    }

    #[test]
    fn stores_inside_loops_invalidate_paths_across_the_loop() {
        // Regression: the widened loop state must carry the body's store
        // bookkeeping, or S's L-path would wrongly count as valid at T.
        let src = format!(
            "{TREE}
            proc f(root: LLBinaryTree) {{
                p = root->L;
            S:  p->d = 1;
                loop {{
                    n = malloc(LLBinaryTree);
                    root->L = n;
                }}
                q = root->L;
            T:  t = q->d;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        assert!(
            analysis.sequential_pairs("S", "T").is_err(),
            "L-paths must not survive a loop that stores L"
        );
        // And axioms over L are suspect after the loop.
        let t = analysis.snapshot("T").unwrap();
        assert!(analysis.valid_axioms(&[t]).by_name("A1").is_none());
    }

    #[test]
    fn fillin_style_loop_with_reassert_keeps_axioms_usable() {
        // The §5 full-analysis pattern: each iteration inserts (stores)
        // and then reasserts the invariants; the per-iteration write
        // query is still provable at the loop head.
        let src = r"
            type Cell {
                ptr link: Cell;
                data f;
                axiom A1: forall p <> q, p.link <> q.link;
                axiom A2: forall p, p.link+ <> p.eps;
            }
            proc insert_sweep(head: Cell) {
                q = head;
                loop {
                U:  q->f = fun();
                    n = malloc(Cell);
                    n->link = q;
                    reassert;
                    q = q->link;
                }
            }";
        let program = parse_program(src).unwrap();
        let analysis = analyze_proc(&program, "insert_sweep").unwrap();
        // The store makes link-axioms suspect mid-iteration, but by U (top
        // of the next iteration, after the reassert) they are valid again…
        let u = analysis.snapshot("U").unwrap();
        assert_eq!(analysis.valid_axioms(&[u]).len(), 2);
        // …but the loop-carried query walks `link`, which the body stores:
        // the insertion could redirect the walk between iterations, so the
        // iteration-relative formulation is refused outright.
        assert!(matches!(
            analysis.loop_carried_pair("U", None),
            Err(QueryError::NoCommonAnchor)
        ));
    }

    /// The per-query path the dependence queries took before they became
    /// batches, kept as the reference the batch path is checked against:
    /// a fresh tester over the query's valid axioms, the query's pairs in
    /// order, the first definite answer or else the last `Maybe`.
    fn reference(analysis: &Analysis, query: &BatchQuery) -> Result<TestOutcome, QueryError> {
        let (pairs, labels) = match query {
            BatchQuery::Sequential { from, to } => {
                (analysis.sequential_pairs(from, to)?, vec![from, to])
            }
            BatchQuery::LoopCarried { label, loop_label } => (
                vec![analysis.loop_carried_pair(label, loop_label.as_deref())?],
                vec![label],
            ),
        };
        let snaps: Vec<&Snapshot> = labels
            .iter()
            .map(|l| {
                analysis
                    .snapshot(l)
                    .expect("a phrased query's labels exist")
            })
            .collect();
        let tester = DepTest::with_config(&analysis.valid_axioms(&snaps), analysis.config.clone());
        let mut last = None;
        for (s, t) in &pairs {
            let outcome = tester.test(s, t, HandleRelation::Same);
            if outcome.answer != Answer::Maybe {
                return Ok(outcome);
            }
            last = Some(outcome);
        }
        Ok(last.expect("a phrased query has at least one pair"))
    }

    #[test]
    fn batch_matches_sequential_queries() {
        // Mixed workload over the §3.3 tree example plus a loop: the
        // batched answers and proofs must equal the reference's
        // one-at-a-time ones, errors included, in order.
        let src = format!(
            "{TREE}
            proc subr(root: LLBinaryTree) {{
                root = root->L;
                p = root->L;
                p = p->N;
            S:  p->d = 100;
                p = root;
                q = root->R;
                q = q->N;
            T:  t = q->d;
                w = root;
                loop {{
                U:  w->d = 1;
                    w = w->N;
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "subr").unwrap();
        let queries = analysis.all_queries();
        assert!(queries.contains(&BatchQuery::LoopCarried {
            label: "U".to_owned(),
            loop_label: None,
        }));
        assert!(queries.contains(&BatchQuery::Sequential {
            from: "S".to_owned(),
            to: "T".to_owned(),
        }));
        // Proofs are compared as text: answer, reason and proof trees.
        let shown = |o: TestOutcome| {
            let proofs: Vec<String> = o.proofs.iter().map(ToString::to_string).collect();
            (o.answer, o.reason, proofs)
        };
        let want: Vec<_> = queries
            .iter()
            .map(|q| reference(&analysis, q).map(shown))
            .collect();
        assert!(want
            .iter()
            .any(|r| matches!(r, Ok((Answer::No, _, p)) if !p.is_empty())));
        for jobs in [1, 4] {
            let batched: Vec<_> = analysis
                .run_batch(&queries, &BatchOptions::new().with_jobs(jobs))
                .results
                .into_iter()
                .map(|r| r.map(shown))
                .collect();
            assert_eq!(batched, want, "jobs={jobs}");
        }
        // The one-query calls are batches of one.
        for (q, want) in queries.iter().zip(&want) {
            let one = match q {
                BatchQuery::Sequential { from, to } => analysis.test_sequential(from, to),
                BatchQuery::LoopCarried { label, loop_label } => {
                    analysis.test_loop_carried(label, loop_label.as_deref())
                }
            };
            assert_eq!(&one.map(shown), want, "{q:?}");
        }
    }

    #[test]
    fn all_queries_order_is_stable_and_statement_indexed() {
        // Labels chosen so lexicographic and statement order disagree: the
        // contract sorts by (stmt_index, label), i.e. program position.
        let src = format!(
            "{LIST}
            proc f(h: List) {{
            Z:  h->f = 1;
                loop {{
                A:  h->f = 2;
                    h = h->link;
                }}
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        assert_eq!(analysis.snapshot("Z").unwrap().stmt_index, 0);
        assert_eq!(analysis.snapshot("A").unwrap().stmt_index, 1);
        let queries = analysis.all_queries();
        assert_eq!(
            queries,
            vec![
                BatchQuery::LoopCarried {
                    label: "A".to_owned(),
                    loop_label: None,
                },
                BatchQuery::Sequential {
                    from: "Z".to_owned(),
                    to: "A".to_owned(),
                },
            ]
        );
        // Re-analyzing the identical text yields the identical list.
        let again = analyze_proc(&parse_program(&src).unwrap(), "f").unwrap();
        assert_eq!(again.all_queries(), queries);
    }

    #[test]
    fn batch_reports_errors_in_position() {
        let src = format!("{LIST} proc f(h: List) {{ S: h->f = 1; }}");
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        let queries = vec![
            BatchQuery::LoopCarried {
                label: "S".to_owned(),
                loop_label: None,
            },
            BatchQuery::Sequential {
                from: "S".to_owned(),
                to: "missing".to_owned(),
            },
        ];
        let report = analysis.run_batch(&queries, &BatchOptions::new().with_jobs(2));
        assert!(matches!(report.results[0], Err(QueryError::NotInLoop(_))));
        assert!(matches!(report.results[1], Err(QueryError::NoSuchLabel(_))));
        assert!(report.any_maybe());
    }

    #[test]
    fn missing_label_errors() {
        let src = format!("{LIST} proc f(h: List) {{ q = h; }}");
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        assert!(matches!(
            analysis.sequential_pairs("S", "T"),
            Err(QueryError::NoSuchLabel(_))
        ));
        assert!(matches!(
            analysis.loop_carried_pair("S", None),
            Err(QueryError::NoSuchLabel(_))
        ));
    }

    #[test]
    fn not_in_loop_errors() {
        let src = format!(
            "{LIST}
            proc f(h: List) {{
            S:  h->f = 1;
            }}"
        );
        let program = parse_program(&src).unwrap();
        let analysis = analyze_proc(&program, "f").unwrap();
        assert!(matches!(
            analysis.loop_carried_pair("S", None),
            Err(QueryError::NotInLoop(_))
        ));
    }
}
