//! Prover configuration, resource budgets, and statistics.
//!
//! §4.2 of the paper: "the proof process can be pruned heuristically and
//! cutoff points set, allowing a tradeoff between accuracy and efficiency.
//! This may even be user controllable, e.g. via a compiler option."
//! [`ProverConfig`] is that compiler option. The [`Budget`] half of it
//! unifies every resource brake the prover honours — search fuel,
//! wall-clock deadline, DFA state budget, proof-cache capacity, and a
//! cooperative cancellation token — so degradation is a single, uniformly
//! plumbed concept rather than a scatter of counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::verdict::MaybeReason;

/// A shareable cooperative cancellation flag.
///
/// Cloning yields a handle to the *same* flag; any holder may call
/// [`CancelToken::cancel`], and the prover polls it between goal attempts
/// and inside the DFA constructions. Cancellation is advisory and
/// monotonic: once set it stays set.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The underlying shared flag (for handing to `apt_regex::Limits`).
    pub fn as_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

/// Unified resource budget for one prover (or one query batch).
///
/// Every field is an independent brake; `None` (or `u64::MAX` fuel) means
/// "unbounded". Exhausting any brake degrades the answer to *Maybe* with
/// the corresponding [`MaybeReason`] — it never flips a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Total number of goal attempts per query before the prover gives up.
    pub fuel: u64,
    /// Wall-clock allowance per query (measured from the start of the
    /// query, not of the process).
    pub deadline: Option<Duration>,
    /// Maximum DFA states any single subset-construction may materialize.
    pub max_dfa_states: Option<usize>,
    /// Maximum number of settled entries kept in the proof cache; older
    /// unconditional entries are evicted first.
    pub cache_capacity: Option<usize>,
    /// Cooperative cancellation token polled during the search.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The default budget: generous fuel, everything else unbounded.
    pub fn new() -> Budget {
        Budget {
            fuel: 100_000,
            deadline: None,
            max_dfa_states: None,
            cache_capacity: None,
            cancel: None,
        }
    }

    /// A budget with no limits at all (even fuel).
    pub fn unlimited() -> Budget {
        Budget {
            fuel: u64::MAX,
            ..Budget::new()
        }
    }

    /// Whether a query run under this budget stops before it reads any
    /// cache: its token is already cancelled, or its deadline is zero.
    pub(crate) fn is_spent(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.deadline == Some(Duration::ZERO)
    }

    /// Sets the goal-attempt fuel.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Budget {
        self.fuel = fuel;
        self
    }

    /// Sets the per-query wall-clock allowance.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds DFA subset construction.
    #[must_use]
    pub fn with_max_dfa_states(mut self, max_states: usize) -> Budget {
        self.max_dfa_states = Some(max_states);
        self
    }

    /// Bounds the proof cache.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Budget {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Budget {
        self.cancel = Some(cancel);
        self
    }

    /// The requested budget clamped by a server-side `ceiling`: every
    /// brake becomes the tighter of the two, so an untrusted caller can
    /// shrink its allowance but never exceed the ceiling. The requested
    /// cancellation token is kept (the ceiling's is used only when the
    /// request carries none) — cancellation is a liveness device, not a
    /// resource grant.
    #[must_use]
    pub fn clamped_to(&self, ceiling: &Budget) -> Budget {
        fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) | (None, x) => x,
            }
        }
        Budget {
            fuel: self.fuel.min(ceiling.fuel),
            deadline: tighter(self.deadline, ceiling.deadline),
            max_dfa_states: tighter(self.max_dfa_states, ceiling.max_dfa_states),
            cache_capacity: tighter(self.cache_capacity, ceiling.cache_capacity),
            cancel: self.cancel.clone().or_else(|| ceiling.cancel.clone()),
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::new()
    }
}

/// Tunable limits and rule switches for the [`crate::Prover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProverConfig {
    /// Resource budget (fuel, deadline, DFA states, cache, cancellation).
    pub budget: Budget,
    /// Maximum proof-tree depth.
    pub max_depth: usize,
    /// Maximum number of equality-axiom rewrites along one branch.
    pub max_rewrites: usize,
    /// Enable the suffix-decomposition rule (the core of `proveDisj`).
    pub enable_decompose: bool,
    /// Enable single-field tail peeling via injectivity axioms.
    pub enable_tail_peel: bool,
    /// Enable head peeling of common definite fields.
    pub enable_head_peel: bool,
    /// Enable the Kleene-run induction rules (closure peels).
    pub enable_closure_peel: bool,
    /// Enable alternation splitting.
    pub enable_alt_split: bool,
    /// Enable rewriting with equality axioms.
    pub enable_rewrite: bool,
    /// Enable the compiled-axiom dispatch index: first-/last-symbol
    /// signature pruning before every axiom applicability check and the
    /// compile-time injectivity map. Dispatch only skips axioms whose
    /// subset checks were certain to fail, so verdicts and proofs are
    /// identical to the linear scan; disabling it restores the literal
    /// §4.2 "try every axiom" loop (the benchmarks' baseline).
    pub enable_axiom_dispatch: bool,
    /// Enable the context-aware negative memo: definite "no rule applies"
    /// failures are cached keyed on the canonical goal with the minimum
    /// rewrite depth they are valid for, instead of only in pristine
    /// root contexts. Budget- and depth-cutoff failures are never
    /// memoized under either setting.
    pub enable_negative_memo: bool,
}

impl ProverConfig {
    /// The default, fully-enabled configuration.
    pub fn new() -> ProverConfig {
        ProverConfig {
            budget: Budget::new(),
            max_depth: 64,
            max_rewrites: 4,
            enable_decompose: true,
            enable_tail_peel: true,
            enable_head_peel: true,
            enable_closure_peel: true,
            enable_alt_split: true,
            enable_rewrite: true,
            enable_axiom_dispatch: true,
            enable_negative_memo: true,
        }
    }

    /// The default rules under a caller-supplied budget.
    pub fn with_budget(budget: Budget) -> ProverConfig {
        ProverConfig {
            budget,
            ..ProverConfig::new()
        }
    }

    /// A configuration with every rule except direct axiom application
    /// disabled — approximates a pure "intersect the path expressions"
    /// tester and is used by the ablation benches.
    pub fn direct_only() -> ProverConfig {
        ProverConfig {
            enable_decompose: false,
            enable_tail_peel: false,
            enable_head_peel: false,
            enable_closure_peel: false,
            enable_alt_split: false,
            enable_rewrite: false,
            ..ProverConfig::new()
        }
    }
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig::new()
    }
}

/// Per-category cutoff counters: how often each resource brake fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutoffStats {
    /// Goals abandoned because fuel ran out.
    pub fuel: u64,
    /// Goals abandoned at the depth bound.
    pub depth: u64,
    /// Rewrite opportunities skipped at the rewrite bound.
    pub rewrites: u64,
    /// Searches stopped by the wall-clock deadline.
    pub deadline: u64,
    /// Subset checks abandoned at the DFA state budget.
    pub regex_budget: u64,
    /// Searches stopped by cooperative cancellation.
    pub cancelled: u64,
}

impl CutoffStats {
    /// The per-category difference since an `earlier` snapshot (saturating,
    /// so a reset prover never underflows).
    pub fn since(&self, earlier: &CutoffStats) -> CutoffStats {
        CutoffStats {
            fuel: self.fuel.saturating_sub(earlier.fuel),
            depth: self.depth.saturating_sub(earlier.depth),
            rewrites: self.rewrites.saturating_sub(earlier.rewrites),
            deadline: self.deadline.saturating_sub(earlier.deadline),
            regex_budget: self.regex_budget.saturating_sub(earlier.regex_budget),
            cancelled: self.cancelled.saturating_sub(earlier.cancelled),
        }
    }
}

impl CutoffStats {
    /// Total cutoffs across all categories.
    pub fn total(&self) -> u64 {
        self.fuel + self.depth + self.rewrites + self.deadline + self.regex_budget + self.cancelled
    }

    /// Bumps the counter matching `reason` (no-op for
    /// [`MaybeReason::GenuinelyUnknown`] and [`MaybeReason::Panicked`],
    /// which are not cutoffs).
    pub fn record(&mut self, reason: MaybeReason) {
        use crate::verdict::SearchLimit;
        match reason {
            MaybeReason::SearchExhausted(SearchLimit::Fuel) => self.fuel += 1,
            MaybeReason::SearchExhausted(SearchLimit::Depth) => self.depth += 1,
            MaybeReason::SearchExhausted(SearchLimit::Rewrites) => self.rewrites += 1,
            MaybeReason::DeadlineExceeded => self.deadline += 1,
            MaybeReason::RegexBudget => self.regex_budget += 1,
            MaybeReason::Cancelled => self.cancelled += 1,
            MaybeReason::GenuinelyUnknown | MaybeReason::Panicked => {}
        }
    }

    /// Adds another run's counters into this one.
    pub fn merge(&mut self, other: &CutoffStats) {
        self.fuel += other.fuel;
        self.depth += other.depth;
        self.rewrites += other.rewrites;
        self.deadline += other.deadline;
        self.regex_budget += other.regex_budget;
        self.cancelled += other.cancelled;
    }
}

/// Counters describing one prover run; the §4.2 complexity experiment
/// reports these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// Goals attempted (cache misses).
    pub goals_attempted: u64,
    /// Goals answered from the proof cache.
    pub cache_hits: u64,
    /// Goals answered from a [`crate::DepEngine`]'s shared cross-prover
    /// cache — a subset of `cache_hits`.
    pub shared_hits: u64,
    /// Regular-expression subset tests performed (the dominant cost per
    /// §4.2).
    pub subset_checks: u64,
    /// Axiom candidates admitted by the dispatch index (their subset
    /// checks actually ran).
    pub dispatch_hits: u64,
    /// Axiom candidates pruned by the dispatch index — each one a
    /// linear-scan applicability check (often several subset tests and a
    /// DFA build) that never happened.
    pub dispatch_misses: u64,
    /// Goal failures answered by the context-aware negative memo.
    pub neg_memo_hits: u64,
    /// Goals abandoned per resource category.
    pub cutoffs: CutoffStats,
}

impl ProverStats {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, other: &ProverStats) {
        self.goals_attempted += other.goals_attempted;
        self.cache_hits += other.cache_hits;
        self.shared_hits += other.shared_hits;
        self.subset_checks += other.subset_checks;
        self.dispatch_hits += other.dispatch_hits;
        self.dispatch_misses += other.dispatch_misses;
        self.neg_memo_hits += other.neg_memo_hits;
        self.cutoffs.merge(&other.cutoffs);
    }

    /// The difference since an `earlier` snapshot of the same prover —
    /// the cost of just the queries run in between.
    pub fn since(&self, earlier: &ProverStats) -> ProverStats {
        ProverStats {
            goals_attempted: self.goals_attempted.saturating_sub(earlier.goals_attempted),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            shared_hits: self.shared_hits.saturating_sub(earlier.shared_hits),
            subset_checks: self.subset_checks.saturating_sub(earlier.subset_checks),
            dispatch_hits: self.dispatch_hits.saturating_sub(earlier.dispatch_hits),
            dispatch_misses: self.dispatch_misses.saturating_sub(earlier.dispatch_misses),
            neg_memo_hits: self.neg_memo_hits.saturating_sub(earlier.neg_memo_hits),
            cutoffs: self.cutoffs.since(&earlier.cutoffs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::{MaybeReason, SearchLimit};

    #[test]
    fn default_enables_everything() {
        let c = ProverConfig::default();
        assert!(c.enable_decompose && c.enable_tail_peel && c.enable_closure_peel);
        assert!(c.budget.fuel > 0);
        assert!(c.budget.deadline.is_none());
    }

    #[test]
    fn direct_only_disables_structural_rules() {
        let c = ProverConfig::direct_only();
        assert!(!c.enable_decompose);
        assert!(!c.enable_tail_peel);
    }

    #[test]
    fn budget_builder_composes() {
        let token = CancelToken::new();
        let b = Budget::new()
            .with_fuel(7)
            .with_deadline(std::time::Duration::from_millis(5))
            .with_max_dfa_states(100)
            .with_cache_capacity(32)
            .with_cancel(token.clone());
        assert_eq!(b.fuel, 7);
        assert_eq!(b.max_dfa_states, Some(100));
        assert_eq!(b.cache_capacity, Some(32));
        assert_eq!(b.cancel, Some(token));
    }

    #[test]
    fn cancel_token_is_shared_and_monotonic() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::new());
    }

    #[test]
    fn stats_merge_adds_per_category() {
        let mut a = ProverStats {
            goals_attempted: 1,
            cache_hits: 2,
            shared_hits: 0,
            subset_checks: 3,
            ..ProverStats::default()
        };
        let mut other = ProverStats {
            goals_attempted: 10,
            cache_hits: 20,
            shared_hits: 1,
            subset_checks: 30,
            dispatch_hits: 4,
            dispatch_misses: 5,
            neg_memo_hits: 6,
            ..ProverStats::default()
        };
        other
            .cutoffs
            .record(MaybeReason::SearchExhausted(SearchLimit::Fuel));
        other.cutoffs.record(MaybeReason::DeadlineExceeded);
        a.merge(&other);
        assert_eq!(a.goals_attempted, 11);
        assert_eq!(a.cache_hits, 22);
        assert_eq!(a.shared_hits, 1);
        assert_eq!(a.subset_checks, 33);
        assert_eq!(a.dispatch_hits, 4);
        assert_eq!(a.dispatch_misses, 5);
        assert_eq!(a.neg_memo_hits, 6);
        assert_eq!(a.cutoffs.fuel, 1);
        assert_eq!(a.cutoffs.deadline, 1);
        assert_eq!(a.cutoffs.total(), 2);

        let delta = a.since(&other);
        assert_eq!(delta.goals_attempted, 1);
        assert_eq!(delta.cache_hits, 2);
        assert_eq!(delta.shared_hits, 0);
        // a absorbed other's cutoffs, so the delta cancels them out.
        assert_eq!(delta.cutoffs.total(), 0);
    }

    #[test]
    fn genuinely_unknown_is_not_a_cutoff() {
        let mut c = CutoffStats::default();
        c.record(MaybeReason::GenuinelyUnknown);
        assert_eq!(c.total(), 0);
    }
}
