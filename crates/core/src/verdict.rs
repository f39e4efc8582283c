//! Structured prover outcomes.
//!
//! A plain `Option<Proof>` cannot tell a caller *why* there is no proof —
//! a genuine "the axioms don't decide this" looks identical to "the fuel
//! ran out three levels deep". [`Verdict`] and [`MaybeReason`] make the
//! distinction explicit, which is what lets the CLI report degradation
//! honestly and lets callers retry with a bigger [`crate::Budget`] only
//! when retrying could help.

use crate::deptest::Answer;
use std::fmt;

/// Which search-shaped limit was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchLimit {
    /// The goal-attempt fuel ran out.
    Fuel,
    /// The proof-tree depth bound was reached.
    Depth,
    /// The equality-rewrite bound was reached.
    Rewrites,
}

impl fmt::Display for SearchLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchLimit::Fuel => write!(f, "fuel"),
            SearchLimit::Depth => write!(f, "depth"),
            SearchLimit::Rewrites => write!(f, "rewrites"),
        }
    }
}

/// Why an answer is *Maybe* rather than a definite Yes/No.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaybeReason {
    /// A search limit (fuel, depth, or rewrites) was exhausted; a larger
    /// budget might still decide the query.
    SearchExhausted(SearchLimit),
    /// The wall-clock deadline passed mid-search.
    DeadlineExceeded,
    /// The DFA state budget stopped a subset construction.
    RegexBudget,
    /// The caller cancelled the query.
    Cancelled,
    /// The search ran to completion without resource pressure: the axiom
    /// set simply does not decide the query.
    GenuinelyUnknown,
    /// The query panicked; the batch it ran in caught the panic and went
    /// on with its other queries.
    Panicked,
}

impl MaybeReason {
    /// Whether something other than the axioms forced the Maybe: a
    /// resource limit (a retry with a larger budget could change the
    /// answer), a cancellation, or a panicked query.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, MaybeReason::GenuinelyUnknown)
    }

    /// A stable machine-readable code for wire protocols (the serving
    /// layer's JSON frames); round-trips through
    /// [`MaybeReason::from_code`].
    pub fn code(&self) -> &'static str {
        match self {
            MaybeReason::SearchExhausted(SearchLimit::Fuel) => "fuel",
            MaybeReason::SearchExhausted(SearchLimit::Depth) => "depth",
            MaybeReason::SearchExhausted(SearchLimit::Rewrites) => "rewrites",
            MaybeReason::DeadlineExceeded => "deadline",
            MaybeReason::RegexBudget => "regex_budget",
            MaybeReason::Cancelled => "cancelled",
            MaybeReason::GenuinelyUnknown => "unknown",
            MaybeReason::Panicked => "panicked",
        }
    }

    /// Parses a [`MaybeReason::code`] string back to the reason.
    pub fn from_code(code: &str) -> Option<MaybeReason> {
        Some(match code {
            "fuel" => MaybeReason::SearchExhausted(SearchLimit::Fuel),
            "depth" => MaybeReason::SearchExhausted(SearchLimit::Depth),
            "rewrites" => MaybeReason::SearchExhausted(SearchLimit::Rewrites),
            "deadline" => MaybeReason::DeadlineExceeded,
            "regex_budget" => MaybeReason::RegexBudget,
            "cancelled" => MaybeReason::Cancelled,
            "unknown" => MaybeReason::GenuinelyUnknown,
            "panicked" => MaybeReason::Panicked,
            _ => return None,
        })
    }
}

impl fmt::Display for MaybeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaybeReason::SearchExhausted(limit) => write!(f, "search exhausted: {limit}"),
            MaybeReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            MaybeReason::RegexBudget => write!(f, "DFA state budget exhausted"),
            MaybeReason::Cancelled => write!(f, "cancelled"),
            MaybeReason::GenuinelyUnknown => write!(f, "axioms do not decide the query"),
            MaybeReason::Panicked => write!(f, "internal error: query panicked"),
        }
    }
}

/// A dependence answer together with its degradation pedigree.
///
/// The soundness contract: `reason` is `Some` **iff** `answer` is
/// [`Answer::Maybe`]; resource exhaustion can only ever weaken a verdict
/// to Maybe, never produce a wrong Yes/No.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The three-valued dependence answer.
    pub answer: Answer,
    /// For Maybe: why. `None` for definite answers.
    pub reason: Option<MaybeReason>,
}

impl Verdict {
    /// A definite answer (Yes or No).
    ///
    /// # Panics
    ///
    /// Panics if called with [`Answer::Maybe`] — use [`Verdict::maybe`].
    pub fn definite(answer: Answer) -> Verdict {
        assert!(
            answer != Answer::Maybe,
            "definite verdicts need a Yes/No answer"
        );
        Verdict {
            answer,
            reason: None,
        }
    }

    /// A Maybe with its reason.
    pub fn maybe(reason: MaybeReason) -> Verdict {
        Verdict {
            answer: Answer::Maybe,
            reason: Some(reason),
        }
    }

    /// Whether this Maybe was forced by resource exhaustion.
    pub fn is_degraded(&self) -> bool {
        self.reason.is_some_and(|r| r.is_degraded())
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            Some(reason) => write!(f, "{:?} ({reason})", self.answer),
            None => write!(f, "{:?}", self.answer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_invariant_and_display() {
        let v = Verdict::maybe(MaybeReason::DeadlineExceeded);
        assert_eq!(v.answer, Answer::Maybe);
        assert!(v.is_degraded());
        assert_eq!(v.to_string(), "Maybe (deadline exceeded)");

        let d = Verdict::definite(Answer::No);
        assert!(!d.is_degraded());
        assert_eq!(d.to_string(), "No");

        let u = Verdict::maybe(MaybeReason::GenuinelyUnknown);
        assert!(!u.is_degraded());
    }

    #[test]
    fn panicked_round_trips_through_its_code() {
        let reason = MaybeReason::Panicked;
        assert_eq!(reason.code(), "panicked");
        assert_eq!(MaybeReason::from_code(reason.code()), Some(reason));
        assert_eq!(reason.to_string(), "internal error: query panicked");
        assert!(reason.is_degraded());
    }

    #[test]
    #[should_panic(expected = "definite verdicts need")]
    fn definite_rejects_maybe() {
        let _ = Verdict::definite(Answer::Maybe);
    }
}
