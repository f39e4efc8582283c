//! The batched, multi-threaded dependence engine.
//!
//! §6 of the paper reports *per-query* proof times precisely because a
//! parallelizing compiler issues dependence queries in bulk — every pair of
//! memory references in a loop nest is a query. [`DepEngine`] is the bulk
//! entry point: it owns an [`Arc`]-shared, lock-sharded cache of settled
//! proof results, subset-test answers, and interned DFAs, and fans a
//! `Vec<DepQuery>` out over a scoped worker pool.
//!
//! # Soundness of sharing
//!
//! The shared cache stores **definite results only**, mirroring the
//! single-prover rule: a goal is published as proved only when its proof is
//! self-contained (no dangling induction targets), and as failed only when
//! the search completed with no resource degradation, consulted no
//! in-progress ancestor, and spent none of its rewrite allowance — a
//! failure that holds in *every* context, not just the one that observed
//! it. Subset answers are published only when the DFA construction
//! finished within its limits. Exhausted or cancelled runs publish
//! nothing, so a starved worker can never poison another worker's verdict
//! — at worst a result is recomputed.
//!
//! A cache is only meaningful for one (axiom set, rule configuration)
//! pair; [`DepEngine`] enforces this by construction — the cache is
//! private to the engine and every worker prover is built from the
//! engine's own axioms and configuration. Budgets may differ per query:
//! definite entries do not depend on the budget that produced them.
//!
//! # Budget split policy
//!
//! [`DepEngine::run_batch`] treats the configured [`Budget`]'s deadline as
//! an allowance for the *whole batch*: with `j` workers and `u` unique
//! queries, each worker runs about `⌈u/j⌉` queries in sequence, so each
//! query receives `deadline / ⌈u/j⌉` and every worker finishes within
//! roughly the configured allowance. Fuel and the DFA state budget are
//! already per-query brakes and are not divided. A per-query
//! [`DepQuery::with_budget`] override is honoured exactly as written. One
//! [`crate::CancelToken`] in the engine budget cancels the entire batch.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use apt_axioms::{AxiomSet, CompiledAxioms};
use apt_regex::cache::DfaCache;
use apt_regex::{ArenaScope, EnteredScope, FxBuildHasher, FxHashMap, Path, RegexId};

use crate::config::{Budget, ProverConfig, ProverStats};
use crate::deptest::Answer;
use crate::goal::{Goal, Origin};
use crate::portfolio::{EngineKind, Witness};
use crate::proof::Proof;
use crate::prover::Prover;
use crate::verdict::{MaybeReason, Verdict};

/// Lock shards for the settled-goal cache.
const GOAL_SHARDS: usize = 32;
/// Lock shards for the subset-answer cache.
const SUBSET_SHARDS: usize = 32;
/// Maximum settled goals per shard; further results are simply not shared.
const GOAL_SHARD_CAPACITY: usize = 4096;
/// Maximum subset answers per shard.
const SUBSET_SHARD_CAPACITY: usize = 16384;

/// Batches with fewer unique queries than this run inline on the calling
/// thread regardless of the requested `jobs`: spawning workers, splitting
/// the deadline, and bouncing the shared cache across threads costs more
/// than it buys until a batch carries real work (small fan-outs used to
/// *lose* throughput as `jobs` grew).
pub const INLINE_BATCH_THRESHOLD: usize = 128;

/// A settled, context-free result for one goal.
#[derive(Debug, Clone)]
pub(crate) enum SharedVerdict {
    /// The goal has a self-contained proof, shared by every prover that
    /// adopts it.
    Proved(Arc<Proof>),
    /// The search completed cleanly without a proof.
    Failed,
}

/// Entry and answer counts of a [`DepEngine`]'s shared cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Goals cached with a proof.
    pub proved_goals: usize,
    /// Goals cached as unprovable.
    pub failed_goals: usize,
    /// Memoized `L(a) ⊆ L(b)` answers.
    pub subset_results: usize,
    /// Interned raw (subset-construction) DFAs.
    pub dfas: usize,
    /// Interned minimized DFAs.
    pub min_dfas: usize,
    /// Total states across the interned raw DFAs.
    pub raw_dfa_states: usize,
    /// Total states across the interned minimized DFAs — compare with
    /// `raw_dfa_states` for how much Hopcroft-style minimization shrinks
    /// the product frontiers the subset checks walk.
    pub min_dfa_states: usize,
}

impl CacheStats {
    /// Adds `other`'s counts into `self` — summing statistics across the
    /// independent engines a multi-group batch (or a whole-program
    /// analysis) ran on.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.proved_goals += other.proved_goals;
        self.failed_goals += other.failed_goals;
        self.subset_results += other.subset_results;
        self.dfas += other.dfas;
        self.min_dfas += other.min_dfas;
        self.raw_dfa_states += other.raw_dfa_states;
        self.min_dfa_states += other.min_dfa_states;
    }

    /// What was added since an `earlier` reading of the same cache: the
    /// share of a long-lived engine's entries one batch contributed.
    /// Shared caches only grow, so no count goes negative; it saturates
    /// at zero all the same.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            proved_goals: self.proved_goals.saturating_sub(earlier.proved_goals),
            failed_goals: self.failed_goals.saturating_sub(earlier.failed_goals),
            subset_results: self.subset_results.saturating_sub(earlier.subset_results),
            dfas: self.dfas.saturating_sub(earlier.dfas),
            min_dfas: self.min_dfas.saturating_sub(earlier.min_dfas),
            raw_dfa_states: self.raw_dfa_states.saturating_sub(earlier.raw_dfa_states),
            min_dfa_states: self.min_dfa_states.saturating_sub(earlier.min_dfa_states),
        }
    }
}

/// The lock-sharded cross-prover cache: settled goals, subset answers, and
/// interned DFAs. Shared between worker provers via [`Arc`].
#[derive(Debug)]
pub struct SharedCache {
    goals: Vec<Mutex<FxHashMap<Goal, SharedVerdict>>>,
    /// `L(a) ⊆ L(b)` answers keyed on hash-consed ids — two machine words
    /// per lookup, no formatted strings anywhere on this path.
    subsets: Vec<Mutex<FxHashMap<(RegexId, RegexId), bool>>>,
    dfas: DfaCache,
    /// Live counts maintained at publication time so [`SharedCache::stats`]
    /// never walks the shards — the serving layer polls it under load.
    proved_count: AtomicUsize,
    failed_count: AtomicUsize,
    subset_count: AtomicUsize,
}

fn shard_index<K: Hash>(key: &K, shards: usize) -> usize {
    (FxBuildHasher::default().hash_one(key) as usize) % shards
}

impl SharedCache {
    pub(crate) fn new() -> SharedCache {
        SharedCache {
            goals: (0..GOAL_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            subsets: (0..SUBSET_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            dfas: DfaCache::new(),
            proved_count: AtomicUsize::new(0),
            failed_count: AtomicUsize::new(0),
            subset_count: AtomicUsize::new(0),
        }
    }

    pub(crate) fn lookup_goal(&self, goal: &Goal) -> Option<SharedVerdict> {
        let shard = &self.goals[shard_index(goal, GOAL_SHARDS)];
        let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        guard.get(goal).cloned()
    }

    pub(crate) fn publish_goal(&self, goal: &Goal, verdict: SharedVerdict) {
        let shard = &self.goals[shard_index(goal, GOAL_SHARDS)];
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.len() < GOAL_SHARD_CAPACITY || guard.contains_key(goal) {
            let fresh = matches!(verdict, SharedVerdict::Failed);
            match guard.insert(goal.clone(), verdict) {
                None if fresh => {
                    self.failed_count.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    self.proved_count.fetch_add(1, Ordering::Relaxed);
                }
                Some(old) => {
                    // Re-publication with the same variant is a no-op for
                    // the counters; a variant change (never expected —
                    // published results are definite) moves one count over.
                    let was_failed = matches!(old, SharedVerdict::Failed);
                    if was_failed != fresh {
                        if fresh {
                            self.failed_count.fetch_add(1, Ordering::Relaxed);
                            self.proved_count.fetch_sub(1, Ordering::Relaxed);
                        } else {
                            self.proved_count.fetch_add(1, Ordering::Relaxed);
                            self.failed_count.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn lookup_subset(&self, key: &(RegexId, RegexId)) -> Option<bool> {
        let shard = &self.subsets[shard_index(key, SUBSET_SHARDS)];
        let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        guard.get(key).copied()
    }

    pub(crate) fn publish_subset(&self, key: (RegexId, RegexId), result: bool) {
        let shard = &self.subsets[shard_index(&key, SUBSET_SHARDS)];
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if (guard.len() < SUBSET_SHARD_CAPACITY || guard.contains_key(&key))
            && guard.insert(key, result).is_none()
        {
            self.subset_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn dfas(&self) -> &DfaCache {
        &self.dfas
    }

    /// A bounded sample of goals currently published as
    /// [`SharedVerdict::Failed`], plus the exact total. The sample is
    /// capped at [`FAILED_SNAPSHOT_CAP`] so the observability path stays
    /// cheap no matter how full the shards are — the serving layer's
    /// `stats` verb and the negative-memo soundness suite (which
    /// re-verifies each sampled failure against an unbudgeted prover)
    /// both go through here.
    #[doc(hidden)]
    pub fn failed_goal_snapshot(&self) -> FailedGoalSample {
        let total = self.failed_count.load(Ordering::Relaxed);
        let mut sample = Vec::with_capacity(total.min(FAILED_SNAPSHOT_CAP));
        'shards: for shard in &self.goals {
            let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (goal, verdict) in guard.iter() {
                if matches!(verdict, SharedVerdict::Failed) {
                    if sample.len() >= FAILED_SNAPSHOT_CAP {
                        break 'shards;
                    }
                    sample.push(goal.clone());
                }
            }
        }
        FailedGoalSample { sample, total }
    }

    /// Entry counts across all shards. O(shards), not O(entries): the
    /// goal/subset counts are maintained at publication time, so polling
    /// this from a live server's `stats` verb costs a handful of atomic
    /// loads and the DFA interner's own counters.
    pub fn stats(&self) -> CacheStats {
        let (raw_dfa_states, min_dfa_states) = self.dfas.state_totals();
        CacheStats {
            proved_goals: self.proved_count.load(Ordering::Relaxed),
            failed_goals: self.failed_count.load(Ordering::Relaxed),
            subset_results: self.subset_count.load(Ordering::Relaxed),
            dfas: self.dfas.len(),
            min_dfas: self.dfas.len_minimized(),
            raw_dfa_states,
            min_dfa_states,
        }
    }
}

/// One exported settled goal: the goal plus its proof (`None` means the
/// goal was cached as cleanly failed — definitely unprovable under the
/// engine's axioms, in every context).
#[derive(Debug, Clone)]
pub struct GoalEntry {
    /// The settled goal.
    pub goal: Goal,
    /// Its self-contained proof, or `None` for a clean failure.
    pub proof: Option<Proof>,
}

/// One exported subset answer, with the regexes materialized out of the
/// process-local hash-consing arena — [`RegexId`]s depend on interning
/// order and are meaningless in another process, so the export carries
/// the trees themselves.
#[derive(Debug, Clone)]
pub struct SubsetEntry {
    /// Left-hand language.
    pub a: apt_regex::Regex,
    /// Right-hand language.
    pub b: apt_regex::Regex,
    /// Whether `L(a) ⊆ L(b)`.
    pub holds: bool,
}

/// A portable image of a [`DepEngine`]'s shared cache: every settled
/// goal (with its proof) and every memoized subset answer, in plain
/// tree form. This is what the serving layer's warm-state snapshots
/// persist; interned DFAs are deliberately *not* exported — they are
/// recomputed deterministically from the axioms and are cheap relative
/// to proof search.
///
/// An export is only meaningful for the exact axiom set (and rule
/// configuration) of the engine that produced it; importers must
/// guarantee that pairing themselves (the snapshot layer keys sections
/// by the axiom text it restores the engine from).
#[derive(Debug, Clone, Default)]
pub struct CacheExport {
    /// Settled goals, proved and cleanly failed.
    pub goals: Vec<GoalEntry>,
    /// Memoized `L(a) ⊆ L(b)` answers.
    pub subsets: Vec<SubsetEntry>,
}

impl CacheExport {
    /// Whether nothing was exported at all.
    pub fn is_empty(&self) -> bool {
        self.goals.is_empty() && self.subsets.is_empty()
    }
}

/// What [`DepEngine::import_cache`] accepted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Goal entries published into the shared cache.
    pub goals: usize,
    /// Subset entries published into the shared cache.
    pub subsets: usize,
    /// Proofs re-verified against the engine's axioms.
    pub proofs_checked: usize,
}

impl SharedCache {
    /// Exports every settled goal and subset answer as plain trees.
    /// O(entries); intended for the snapshot flusher, not the hot path.
    pub fn export(&self) -> CacheExport {
        let mut goals = Vec::new();
        for shard in &self.goals {
            let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (goal, verdict) in guard.iter() {
                goals.push(GoalEntry {
                    goal: goal.clone(),
                    proof: match verdict {
                        SharedVerdict::Proved(p) => Some(Proof::clone(p)),
                        SharedVerdict::Failed => None,
                    },
                });
            }
        }
        let mut subsets = Vec::new();
        for shard in &self.subsets {
            let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (&(a, b), &holds) in guard.iter() {
                subsets.push(SubsetEntry {
                    a: a.to_regex(),
                    b: b.to_regex(),
                    holds,
                });
            }
        }
        CacheExport { goals, subsets }
    }
}

impl DepEngine {
    /// Exports the shared cache as a portable [`CacheExport`].
    pub fn export_cache(&self) -> CacheExport {
        self.cache.export()
    }

    /// Imports a previously exported cache image, re-interning the
    /// subset regexes into this process's arena and publishing every
    /// entry into the shared cache.
    ///
    /// The first `verify_sample` proofs are re-checked against this
    /// engine's axioms with [`crate::check_proof`]; a single failing
    /// proof rejects the *entire* import — a snapshot whose proofs do
    /// not check against the axioms it claims to belong to is corrupt,
    /// and a corrupt import may only cost warmth, never correctness.
    /// Failed-goal and subset entries carry no checkable certificate;
    /// they are protected by the snapshot layer's checksums instead.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::check::ProofError`] of the first proof that
    /// does not check. Nothing is published in that case.
    pub fn import_cache(
        &self,
        export: &CacheExport,
        verify_sample: usize,
    ) -> Result<ImportStats, crate::check::ProofError> {
        let mut checked = 0usize;
        for entry in export.goals.iter().filter(|e| e.proof.is_some()) {
            if checked >= verify_sample {
                break;
            }
            if let Some(proof) = &entry.proof {
                crate::check_proof(&self.axioms, proof)?;
                checked += 1;
            }
        }
        for entry in &export.goals {
            let verdict = match &entry.proof {
                Some(p) => SharedVerdict::Proved(Arc::new(p.clone())),
                None => SharedVerdict::Failed,
            };
            self.cache.publish_goal(&entry.goal, verdict);
        }
        let _in_scope = self.arena.enter();
        for entry in &export.subsets {
            let key = (RegexId::intern(&entry.a), RegexId::intern(&entry.b));
            self.cache.publish_subset(key, entry.holds);
        }
        Ok(ImportStats {
            goals: export.goals.len(),
            subsets: export.subsets.len(),
            proofs_checked: checked,
        })
    }
}

/// Cap on the failed-goal sample returned by
/// [`SharedCache::failed_goal_snapshot`].
pub const FAILED_SNAPSHOT_CAP: usize = 256;

/// A capped sample of the shared cache's published failures, with the
/// exact total count (the total keeps O(1) meaning even when the sample
/// is truncated).
#[derive(Debug, Clone, Default)]
pub struct FailedGoalSample {
    /// Up to [`FAILED_SNAPSHOT_CAP`] failed goals.
    pub sample: Vec<Goal>,
    /// The exact number of failed goals published.
    pub total: usize,
}

impl FailedGoalSample {
    /// Whether no failures have been published at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// What a [`DepQuery`] asks of the prover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Prove the two paths disjoint (a definite *No* dependence).
    Disjoint,
    /// Prove the two paths denote the same single vertex (a definite
    /// *Yes*).
    Equal,
}

/// One dependence query, built fluently and run against a [`DepEngine`]
/// (or a caller-managed [`Prover`] via [`DepQuery::run_with`]).
///
/// This is the single entry point into the prover (the pre-0.2
/// `prove_disjoint`/`prove_equal` method family is gone).
///
/// ```
/// use apt_axioms::adds::leaf_linked_tree_axioms;
/// use apt_core::{Answer, DepEngine, DepQuery, Origin};
/// use apt_regex::Path;
///
/// let engine = DepEngine::new(leaf_linked_tree_axioms());
/// let p = Path::parse("L.L.N").unwrap();
/// let q = Path::parse("L.R.N").unwrap();
/// let outcome = DepQuery::disjoint(&p, &q).origin(Origin::Same).run(&engine);
/// assert_eq!(outcome.verdict.answer, Answer::No);
/// assert!(outcome.proof.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DepQuery {
    kind: QueryKind,
    origin: Origin,
    a: Path,
    b: Path,
    budget: Option<Budget>,
}

impl DepQuery {
    /// A disjointness query `origin ⊢ a <> b`, defaulting to
    /// [`Origin::Same`] (override with [`DepQuery::origin`]).
    pub fn disjoint(a: &Path, b: &Path) -> DepQuery {
        DepQuery {
            kind: QueryKind::Disjoint,
            origin: Origin::Same,
            a: a.clone(),
            b: b.clone(),
            budget: None,
        }
    }

    /// An equality query: do `a` and `b` denote the same single vertex
    /// from a common origin?
    pub fn equal(a: &Path, b: &Path) -> DepQuery {
        DepQuery {
            kind: QueryKind::Equal,
            origin: Origin::Same,
            a: a.clone(),
            b: b.clone(),
            budget: None,
        }
    }

    /// Sets the origin relation (disjointness queries only; equality is
    /// always asked from a common origin).
    #[must_use]
    pub fn origin(mut self, origin: Origin) -> DepQuery {
        self.origin = origin;
        self
    }

    /// Overrides the engine's [`Budget`] for this query alone. The
    /// override is used exactly as written — it is not subject to the
    /// batch deadline split.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> DepQuery {
        self.budget = Some(budget);
        self
    }

    /// What the query asks.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The origin relation the query is asked under.
    pub fn origin_relation(&self) -> Origin {
        self.origin
    }

    /// The per-query budget override, if one was set.
    pub fn budget_override(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// The first path of the query.
    pub fn a(&self) -> &Path {
        &self.a
    }

    /// The second path of the query.
    pub fn b(&self) -> &Path {
        &self.b
    }

    /// Runs the query against an engine (fresh prover, shared caches).
    pub fn run(&self, engine: &DepEngine) -> Outcome {
        engine.run(self)
    }

    /// Runs the query on a caller-managed prover. A budget override is
    /// applied for the duration of this query and then restored.
    pub fn run_with(&self, prover: &mut Prover<'_>) -> Outcome {
        let restore = self.budget.clone().map(|b| prover.swap_budget(b));
        let before = prover.stats();
        let (verdict, proof) = match self.kind {
            QueryKind::Disjoint => {
                let (proof, reason) = prover.run_disjoint(self.origin, &self.a, &self.b);
                match proof {
                    Some(p) => (Verdict::definite(Answer::No), Some(p)),
                    None => (
                        Verdict::maybe(reason.unwrap_or(MaybeReason::GenuinelyUnknown)),
                        None,
                    ),
                }
            }
            QueryKind::Equal => {
                let (equal, reason) = prover.run_equal(&self.a, &self.b);
                if equal {
                    (Verdict::definite(Answer::Yes), None)
                } else {
                    (
                        Verdict::maybe(reason.unwrap_or(MaybeReason::GenuinelyUnknown)),
                        None,
                    )
                }
            }
        };
        let stats = prover.stats().since(&before);
        if let Some(old) = restore {
            prover.set_budget(old);
        }
        Outcome {
            verdict,
            proof,
            stats,
            engine: EngineKind::Axiomatic,
            witness: None,
        }
    }

    /// Structural identity key: two queries with the same key (and equal
    /// budget overrides) are the same subgoal and run once per batch.
    /// Disjointness goals canonicalize through [`Goal::new`]'s symmetric
    /// path ordering; equality is symmetric by definition. Paths compare
    /// structurally — no query is ever formatted to dedup a batch.
    fn dedup_key(&self) -> (QueryKind, Option<Origin>, Path, Path) {
        match self.kind {
            QueryKind::Disjoint => {
                let g = Goal::new(self.origin, self.a.clone(), self.b.clone());
                (
                    QueryKind::Disjoint,
                    Some(self.origin),
                    g.a().clone(),
                    g.b().clone(),
                )
            }
            QueryKind::Equal => {
                let (x, y) = (self.a.clone(), self.b.clone());
                let (x, y) = if x <= y { (x, y) } else { (y, x) };
                (QueryKind::Equal, None, x, y)
            }
        }
    }
}

/// The unified result of one [`DepQuery`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The three-valued answer with its degradation pedigree. A proven
    /// disjointness query answers [`Answer::No`]; a proven equality query
    /// answers [`Answer::Yes`]; everything else is [`Answer::Maybe`].
    pub verdict: Verdict,
    /// The disjointness proof, when one was found.
    pub proof: Option<Proof>,
    /// Prover work counters for this query alone.
    pub stats: ProverStats,
    /// Which backend produced this outcome: [`EngineKind::Axiomatic`]
    /// unless a [`crate::Portfolio`] roster reaching the refuter settled
    /// the query.
    pub engine: EngineKind,
    /// The concrete dependence witness, when the refuter settled the
    /// query with [`Answer::Yes`].
    pub witness: Option<Witness>,
}

impl Outcome {
    /// Whether the query was established definitely (No-dependence for
    /// disjointness, Yes for equality).
    pub fn is_definite(&self) -> bool {
        self.verdict.reason.is_none()
    }
}

/// The batched dependence engine: one axiom set, one rule configuration,
/// and a shared cache that persists across queries and batches.
///
/// Cloning an engine is cheap and shares the cache.
#[derive(Debug, Clone)]
pub struct DepEngine {
    axioms: Arc<AxiomSet>,
    /// The dispatch index, compiled once per engine and shared by every
    /// worker prover.
    compiled: Arc<CompiledAxioms>,
    config: ProverConfig,
    cache: Arc<SharedCache>,
    /// The regex-arena retention epoch this engine's interned expressions
    /// are charged to. Held (shared across clones) for the engine's whole
    /// life; when the last clone drops, the scope closes and every arena
    /// entry only this engine touched is compacted. Long-lived callers
    /// (the serve sessions) open the scope *before* parsing their axiom
    /// text and pass it in via [`DepEngine::from_arc_in`], so parse-time
    /// interning is reclaimed on eviction too.
    arena: Arc<ArenaScope>,
}

impl DepEngine {
    /// An engine over `axioms` with the default configuration.
    pub fn new(axioms: AxiomSet) -> DepEngine {
        DepEngine::with_config(axioms, ProverConfig::default())
    }

    /// An engine with an explicit prover configuration.
    pub fn with_config(axioms: AxiomSet, config: ProverConfig) -> DepEngine {
        DepEngine::from_arc(Arc::new(axioms), config)
    }

    /// An engine over an already-shared axiom set, holding a fresh arena
    /// scope opened here (interning done *before* this call — notably the
    /// `AxiomSet` parse — is charged to the caller's scopes, or pinned).
    pub fn from_arc(axioms: Arc<AxiomSet>, config: ProverConfig) -> DepEngine {
        DepEngine::from_arc_in(axioms, config, Arc::new(ArenaScope::new()))
    }

    /// An engine over an already-shared axiom set, adopting `arena` as its
    /// retention scope. Callers that intern regexes beyond the engine's
    /// queries (parsing axiom text, pre-interning goals) open the scope
    /// first so all of it is reclaimed together when the engine dies.
    pub fn from_arc_in(
        axioms: Arc<AxiomSet>,
        config: ProverConfig,
        arena: Arc<ArenaScope>,
    ) -> DepEngine {
        let compiled = Arc::new(CompiledAxioms::compile(&axioms));
        DepEngine {
            axioms,
            compiled,
            config,
            cache: Arc::new(SharedCache::new()),
            arena,
        }
    }

    /// The arena retention scope this engine holds (shared by its clones).
    pub fn arena_scope(&self) -> &Arc<ArenaScope> {
        &self.arena
    }

    /// The engine's axioms.
    pub fn axioms(&self) -> &AxiomSet {
        &self.axioms
    }

    /// The compiled dispatch index shared by the engine's workers.
    pub fn compiled(&self) -> &Arc<CompiledAxioms> {
        &self.compiled
    }

    /// The shared cross-prover cache (test-only observability).
    #[doc(hidden)]
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// The configuration worker provers run under.
    pub fn config(&self) -> &ProverConfig {
        &self.config
    }

    /// A handle on this engine (its axioms, rules, shared cache and arena
    /// scope) whose queries run under `budget` instead of the engine's
    /// own. Definite cache entries do not depend on the budget that
    /// produced them, so every handle reads and warms the same cache; a
    /// caller that keeps an engine across requests gives each request its
    /// own fuel, deadline and cancel token this way.
    #[must_use]
    pub fn with_budget(&self, budget: Budget) -> DepEngine {
        let mut engine = self.clone();
        engine.config.budget = budget;
        engine
    }

    /// Entry counts of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A worker prover wired to the shared cache, with the engine deadline
    /// divided across `shares` sequential queries. The calling thread is in
    /// the engine's arena scope while the returned guard lives, so what the
    /// prover interns is charged to the engine (not pinned) and reclaimed
    /// with it.
    pub(crate) fn make_prover(&self, shares: usize) -> (EnteredScope<'_>, Prover<'_>) {
        let in_scope = self.arena.enter();
        let mut config = self.config.clone();
        if shares > 1 {
            if let Some(d) = config.budget.deadline {
                config.budget.deadline = Some(d / shares as u32);
            }
        }
        let mut prover = Prover::with_compiled(&self.axioms, config, Arc::clone(&self.compiled));
        prover.attach_shared(Arc::clone(&self.cache));
        (in_scope, prover)
    }

    /// Runs one query on a fresh prover backed by the shared cache. A
    /// query whose root goal the shared cache already settles is answered
    /// from that entry alone ([`DepEngine::settled_outcome`]), with no
    /// prover built and no arena scope entered.
    pub fn run(&self, query: &DepQuery) -> Outcome {
        if let Some(outcome) = self.settled_outcome(query) {
            return outcome;
        }
        let (_in_scope, mut prover) = self.make_prover(1);
        query.run_with(&mut prover)
    }

    /// The outcome a prover run gives `query` when the shared cache settles
    /// its canonical root goal. The run's first cache read finds the root,
    /// so the outcome is that entry alone: `No` with the cached proof, or a
    /// clean `Maybe` for a cached failure, counting one shared cache hit
    /// and no goal attempted. `None` where a run would do more: an
    /// equality query (which never reads the goal cache), a budget already
    /// spent (which stops the run before the read), or a root the cache
    /// has not settled. Builds one goal and takes one shard lock.
    pub(crate) fn settled_outcome(&self, query: &DepQuery) -> Option<Outcome> {
        let budget = query.budget_override().unwrap_or(&self.config.budget);
        if query.kind != QueryKind::Disjoint || budget.is_spent() {
            return None;
        }
        let root = Goal::new(query.origin, query.a.clone(), query.b.clone());
        let (verdict, proof) = match self.cache.lookup_goal(&root)? {
            SharedVerdict::Proved(p) => {
                (Verdict::definite(Answer::No), Some(Arc::unwrap_or_clone(p)))
            }
            SharedVerdict::Failed => (Verdict::maybe(MaybeReason::GenuinelyUnknown), None),
        };
        Some(Outcome {
            verdict,
            proof,
            stats: ProverStats {
                cache_hits: 1,
                shared_hits: 1,
                ..ProverStats::default()
            },
            engine: EngineKind::Axiomatic,
            witness: None,
        })
    }

    /// Runs a batch of queries over `jobs` worker threads.
    ///
    /// Structurally identical queries (same canonical goal, same budget
    /// override) are deduplicated and run once; every caller position in
    /// `queries` still receives its outcome, in order. Workers pull unique
    /// queries from a shared index, so an expensive query never stalls
    /// the rest of the batch behind it; each worker runs one prover wired
    /// to the shared cache.
    ///
    /// A query whose run panics answers `Maybe`
    /// ([`MaybeReason::Panicked`]); the rest of the batch still runs.
    ///
    /// `jobs == 1` runs inline on the calling thread (no spawn), still
    /// with dedup and the shared cache. Batches smaller than
    /// [`INLINE_BATCH_THRESHOLD`] unique queries are forced inline even
    /// when more jobs are requested — for little batches the spawn and
    /// deadline-split overhead exceeds the parallel win.
    pub fn run_batch(&self, queries: &[DepQuery], jobs: usize) -> Vec<Outcome> {
        run_deduped(
            queries,
            jobs,
            |shares| self.make_prover(shares),
            |(_, prover), q| q.run_with(prover),
        )
    }
}

/// The one dedup/fan-out loop behind every batch: [`DepEngine::run_batch`]
/// and both stages of [`crate::Portfolio::run_batch`] (see the former
/// for the dedup, ordering, and inline-threshold contract).
/// `worker(shares)` builds one worker's state, `shares` being how many
/// unique queries each worker runs in sequence; `run` answers one unique
/// query on that state.
///
/// Each unique query runs panic-isolated: a `run` that panics answers
/// `Maybe` ([`MaybeReason::Panicked`]) at every position deduplicated
/// onto that query, and its worker's state, which the panic may have
/// left half-updated, is rebuilt before the worker's next query.
pub(crate) fn run_deduped<W>(
    queries: &[DepQuery],
    jobs: usize,
    worker: impl Fn(usize) -> W + Sync,
    run: impl Fn(&mut W, &DepQuery) -> Outcome + Sync,
) -> Vec<Outcome> {
    if queries.is_empty() {
        return Vec::new();
    }
    // Dedup structurally identical subgoals.
    let mut unique: Vec<&DepQuery> = Vec::new();
    let mut owners: Vec<Vec<usize>> = Vec::new();
    let mut index: HashMap<(QueryKind, Option<Origin>, Path, Path), Vec<usize>> = HashMap::new();
    for (i, q) in queries.iter().enumerate() {
        let slots = index.entry(q.dedup_key()).or_default();
        match slots.iter().find(|&&u| unique[u].budget == q.budget) {
            Some(&u) => owners[u].push(i),
            None => {
                slots.push(unique.len());
                owners.push(vec![i]);
                unique.push(q);
            }
        }
    }
    // Small batches run inline: thread spawn + deadline splitting
    // overhead dominates until there is enough unique work to amortize
    // it (see [`INLINE_BATCH_THRESHOLD`]).
    let jobs = if unique.len() < INLINE_BATCH_THRESHOLD {
        1
    } else {
        jobs.clamp(1, unique.len())
    };
    let shares = unique.len().div_ceil(jobs);
    let answer = |state: &mut W, q: &DepQuery| {
        catch_unwind(AssertUnwindSafe(|| run(state, q))).unwrap_or_else(|_| {
            *state = worker(shares);
            Outcome {
                verdict: Verdict::maybe(MaybeReason::Panicked),
                proof: None,
                stats: ProverStats::default(),
                engine: EngineKind::Axiomatic,
                witness: None,
            }
        })
    };

    let mut settled: Vec<Option<Outcome>> = vec![None; unique.len()];
    if jobs == 1 {
        let mut state = worker(shares);
        for (slot, q) in settled.iter_mut().zip(&unique) {
            *slot = Some(answer(&mut state, q));
        }
    } else {
        let next = AtomicUsize::new(0);
        let (unique, worker, answer) = (&unique, &worker, &answer);
        let collected = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut state = worker(shares);
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            if i >= unique.len() {
                                break;
                            }
                            out.push((i, answer(&mut state, unique[i])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(v) => v,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect::<Vec<_>>()
        })
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (i, out) in collected {
            settled[i] = Some(out);
        }
    }

    // Scatter unique results back to every caller position.
    let mut results: Vec<Option<Outcome>> = vec![None; queries.len()];
    for (u, owner_list) in owners.iter().enumerate() {
        let out = settled[u].take().expect("every unique query ran");
        let (last, rest) = owner_list.split_last().expect("owners are non-empty");
        for &i in rest {
            results[i] = Some(out.clone());
        }
        results[*last] = Some(out);
    }
    results
        .into_iter()
        .map(|o| o.expect("every query position filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CancelToken;
    use apt_axioms::adds;
    use std::time::Duration;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn single_query_matches_prover() {
        let axioms = adds::leaf_linked_tree_axioms();
        let engine = DepEngine::new(axioms.clone());
        let out = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")).run(&engine);
        assert_eq!(out.verdict.answer, Answer::No);
        assert!(out.is_definite());
        assert!(out.proof.is_some());
        assert!(out.stats.goals_attempted > 0);

        let out = DepQuery::disjoint(&p("L.L.N"), &p("L.L.N")).run(&engine);
        assert_eq!(out.verdict.answer, Answer::Maybe);
        assert_eq!(out.verdict.reason, Some(MaybeReason::GenuinelyUnknown));
        assert!(out.proof.is_none());
    }

    #[test]
    fn equality_query_through_engine() {
        let axioms = AxiomSet::parse(
            "C1: forall p, p.next.prev = p.eps\n\
             C2: forall p, p.prev.next = p.eps",
        )
        .unwrap();
        let engine = DepEngine::new(axioms);
        let out = DepQuery::equal(&p("next.prev.next"), &p("next")).run(&engine);
        assert_eq!(out.verdict.answer, Answer::Yes);
        let out = DepQuery::equal(&p("next"), &p("prev")).run(&engine);
        assert_eq!(out.verdict.answer, Answer::Maybe);
    }

    #[test]
    fn batch_matches_sequential_and_warms_cache() {
        let axioms = adds::sparse_matrix_minimal_axioms();
        let engine = DepEngine::new(axioms.clone());
        let queries: Vec<DepQuery> = [
            ("ncolE+", "nrowE+.ncolE+"),
            ("ncolE", "nrowE.ncolE+"),
            ("ncolE+", "ncolE+"),
            ("ncolE.ncolE", "nrowE+.ncolE+"),
        ]
        .iter()
        .map(|(a, b)| DepQuery::disjoint(&p(a), &p(b)))
        .collect();

        let mut prover = Prover::new(&axioms);
        let sequential: Vec<Answer> = queries
            .iter()
            .map(|q| q.run_with(&mut prover).verdict.answer)
            .collect();
        for jobs in [1, 2, 4] {
            let batch: Vec<Answer> = engine
                .run_batch(&queries, jobs)
                .iter()
                .map(|o| o.verdict.answer)
                .collect();
            assert_eq!(batch, sequential, "jobs={jobs}");
        }
        let stats = engine.cache_stats();
        assert!(stats.proved_goals > 0);
        assert!(stats.subset_results > 0);
        assert!(stats.dfas > 0);
    }

    #[test]
    fn dedup_returns_an_outcome_per_position() {
        let axioms = adds::leaf_linked_tree_axioms();
        let engine = DepEngine::new(axioms);
        let a = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N"));
        // Symmetric duplicate: canonicalization must fold it.
        let b = DepQuery::disjoint(&p("L.R.N"), &p("L.L.N"));
        let c = DepQuery::disjoint(&p("L"), &p("R"));
        let outs = engine.run_batch(&[a, b, c], 2);
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].verdict.answer, Answer::No);
        assert_eq!(outs[1].verdict.answer, Answer::No);
        assert_eq!(outs[2].verdict.answer, Answer::No);
    }

    #[test]
    fn per_query_budget_override_is_restored() {
        let axioms = adds::sparse_matrix_minimal_axioms();
        let engine = DepEngine::new(axioms);
        let starved = DepQuery::disjoint(&p("ncolE+"), &p("nrowE+.ncolE+"))
            .with_budget(Budget::new().with_fuel(1));
        let out = starved.run(&engine);
        assert_eq!(out.verdict.answer, Answer::Maybe);
        assert!(out.verdict.is_degraded());
        // The starved run must not have poisoned the shared cache.
        let full = DepQuery::disjoint(&p("ncolE+"), &p("nrowE+.ncolE+")).run(&engine);
        assert_eq!(full.verdict.answer, Answer::No);
    }

    #[test]
    fn batch_deadline_is_divided_fairly() {
        let axioms = adds::sparse_matrix_minimal_axioms();
        let config =
            ProverConfig::with_budget(Budget::new().with_deadline(Duration::from_secs(400)));
        let engine = DepEngine::with_config(axioms, config);
        // 4 unique queries on 2 workers → 2 sequential queries per worker
        // → each query gets 200s. We can't observe the per-query deadline
        // directly, but the batch must complete and stay definite.
        let queries: Vec<DepQuery> = [
            ("ncolE+", "nrowE+.ncolE+"),
            ("ncolE", "nrowE.ncolE+"),
            ("ncolE.ncolE", "nrowE+.ncolE+"),
            ("ncolE.ncolE.ncolE", "nrowE+.ncolE+"),
        ]
        .iter()
        .map(|(a, b)| DepQuery::disjoint(&p(a), &p(b)))
        .collect();
        let outs = engine.run_batch(&queries, 2);
        assert!(outs.iter().all(|o| o.verdict.answer == Answer::No));
    }

    #[test]
    fn a_panicking_query_answers_maybe_and_its_worker_restarts_fresh() {
        use std::sync::Condvar;
        use std::thread::ThreadId;
        // One unique query per k: `L^k` against `R`.
        let query = |k: usize| DepQuery::disjoint(&p(&vec!["L"; k].join(".")), &p("R"));
        let answer_of = |q: &DepQuery| Outcome {
            verdict: Verdict::definite(Answer::No),
            proof: None,
            stats: ProverStats {
                goals_attempted: (q.a().len() + q.b().len()) as u64,
                ..ProverStats::default()
            },
            engine: EngineKind::Axiomatic,
            witness: None,
        };
        let target = query(1).dedup_key();
        // Inline, then threaded (enough unique queries to fan out).
        for (jobs, count) in [(1, 8), (2, INLINE_BATCH_THRESHOLD + 8)] {
            let mut queries: Vec<DepQuery> = (1..=count).map(query).collect();
            // Duplicates of the panicking query (one mirrored) and of another.
            queries.push(DepQuery::disjoint(&p("R"), &p("L")));
            queries.push(query(1));
            queries.push(query(2));
            // Per query run: its thread, how many queries its worker state
            // had run before, and whether it was the panicking one.
            let log: Mutex<Vec<(ThreadId, usize, bool)>> = Mutex::new(Vec::new());
            let panicker: Mutex<Option<ThreadId>> = Mutex::new(None);
            let recovered = (Mutex::new(false), Condvar::new());
            let outcomes = run_deduped(
                &queries,
                jobs,
                |_| 0usize,
                |ran: &mut usize, q| {
                    let me = std::thread::current().id();
                    let is_target = q.dedup_key() == target;
                    // Threaded, other workers wait until the panicking one has
                    // run its next query, so the test always sees it restart.
                    let panicked_here = || *panicker.lock().unwrap() == Some(me);
                    if jobs > 1 && !is_target && !panicked_here() {
                        let (done, woken) = &recovered;
                        let guard = done.lock().unwrap();
                        let _ = woken
                            .wait_timeout_while(guard, Duration::from_secs(10), |done| !*done)
                            .unwrap();
                    }
                    log.lock().unwrap().push((me, *ran, is_target));
                    *ran += 1;
                    if is_target {
                        *panicker.lock().unwrap() = Some(me);
                        panic!("injected fault in one batch query");
                    }
                    if panicked_here() {
                        *recovered.0.lock().unwrap() = true;
                        recovered.1.notify_all();
                    }
                    answer_of(q)
                },
            );
            let clean = run_deduped(&queries, jobs, |_| (), |(), q| answer_of(q));
            assert_eq!(outcomes.len(), queries.len(), "jobs={jobs}");
            let mut panicked = 0;
            for ((q, out), want) in queries.iter().zip(&outcomes).zip(&clean) {
                if q.dedup_key() == target {
                    panicked += 1;
                    assert_eq!(out.verdict, Verdict::maybe(MaybeReason::Panicked));
                    assert!(out.proof.is_none() && out.witness.is_none());
                } else {
                    assert_eq!(out.verdict, want.verdict, "jobs={jobs}");
                    assert_eq!(out.stats, want.stats, "jobs={jobs}");
                }
            }
            assert_eq!(panicked, 3, "jobs={jobs}");
            let log = log.into_inner().unwrap();
            let at = log.iter().position(|e| e.2).expect("the target ran");
            assert_eq!(log.iter().filter(|e| e.2).count(), 1, "deduplicated");
            let next = log[at + 1..]
                .iter()
                .find(|e| e.0 == log[at].0)
                .expect("the panicking worker ran another query");
            assert_eq!(next.1, 0, "jobs={jobs}: the worker restarts fresh");
        }
    }

    #[test]
    fn empty_batch() {
        let engine = DepEngine::new(AxiomSet::new());
        assert!(engine.run_batch(&[], 4).is_empty());
    }

    #[test]
    fn shared_cache_hits_share_the_cached_subproofs() {
        let engine = DepEngine::new(adds::leaf_linked_tree_axioms());
        let query = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N"));
        let cold = query.run(&engine);
        let root = Goal::new(Origin::Same, p("L.L.N"), p("L.R.N"));
        let Some(SharedVerdict::Proved(cached)) = engine.shared_cache().lookup_goal(&root) else {
            panic!("the proved root goal is published");
        };
        // A fresh prover answers from the shared cache alone, and the
        // proof it hands back points at the cached subproofs.
        let warm = query.run(&engine);
        assert_eq!(warm.stats.goals_attempted, 0);
        assert_eq!(warm.stats.shared_hits, 1);
        for outcome in [&cold, &warm] {
            let proof = outcome.proof.as_ref().expect("proved");
            assert!(!proof.children.is_empty());
            assert_eq!(proof.children.len(), cached.children.len());
            for (mine, theirs) in proof.children.iter().zip(&cached.children) {
                assert!(Arc::ptr_eq(mine, theirs));
            }
            assert_eq!(proof.to_string(), cached.to_string());
        }
    }

    #[test]
    fn a_settled_root_answers_exactly_as_a_prover_run() {
        let engine = DepEngine::new(adds::leaf_linked_tree_axioms());
        let proved = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N"));
        // Identical paths: the prover fails cleanly and caches the failure.
        let failed = DepQuery::disjoint(&p("L.L.N"), &p("L.L.N"));
        for q in [&proved, &failed] {
            assert!(
                engine.settled_outcome(q).is_none(),
                "a cold cache settles nothing"
            );
            let _ = engine.run(q);
        }
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let cases = [
            ("proved root", proved.clone(), true),
            (
                "mirrored proved root",
                DepQuery::disjoint(&p("L.R.N"), &p("L.L.N")),
                true,
            ),
            ("cleanly failed root", failed.clone(), true),
            (
                "spent budget",
                proved
                    .clone()
                    .with_budget(Budget::new().with_deadline(Duration::ZERO)),
                false,
            ),
            (
                "cancelled token",
                failed.with_budget(Budget::new().with_cancel(cancelled)),
                false,
            ),
            (
                "equality query",
                DepQuery::equal(&p("L.L.N"), &p("L.L.N")),
                false,
            ),
        ];
        for (what, query, settles) in cases {
            let prover_run = {
                let (_in_scope, mut prover) = engine.make_prover(1);
                query.run_with(&mut prover)
            };
            let shortcut = engine.settled_outcome(&query);
            assert_eq!(shortcut.is_some(), settles, "{what}");
            for outcome in shortcut.iter().chain([&engine.run(&query)]) {
                assert_eq!(outcome.verdict, prover_run.verdict, "{what}");
                assert_eq!(
                    outcome.proof.as_ref().map(Proof::to_string),
                    prover_run.proof.as_ref().map(Proof::to_string),
                    "{what}"
                );
                assert_eq!(outcome.stats, prover_run.stats, "{what}");
                assert_eq!(outcome.engine, prover_run.engine, "{what}");
                assert!(outcome.witness.is_none() && prover_run.witness.is_none());
            }
        }
    }

    #[test]
    fn a_rebudgeted_handle_shares_the_cache_but_not_the_budget() {
        let engine = DepEngine::new(adds::sparse_matrix_minimal_axioms());
        let query = DepQuery::disjoint(&p("ncolE+"), &p("nrowE+.ncolE+"));
        let starved = engine.with_budget(Budget::new().with_fuel(1));
        assert_eq!(starved.run(&query).verdict.answer, Answer::Maybe);
        assert_eq!(engine.config().budget, Budget::new());
        assert_eq!(engine.run(&query).verdict.answer, Answer::No);
        // The proof the full-budget run published is the starved
        // handle's cache too: it answers without spending fuel.
        let settled = starved.run(&query);
        assert_eq!(settled.verdict.answer, Answer::No);
        assert_eq!(settled.stats.goals_attempted, 0);
    }

    #[test]
    fn cache_stats_since_counts_what_was_added() {
        let engine = DepEngine::new(adds::leaf_linked_tree_axioms());
        let empty = engine.cache_stats();
        let _ = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")).run(&engine);
        let after = engine.cache_stats();
        assert_eq!(after.since(&empty), after);
        assert!(after.proved_goals > 0);
        let _ = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N")).run(&engine);
        assert_eq!(engine.cache_stats().since(&after), CacheStats::default());
    }
}
