//! Language-level decision procedures.
//!
//! These are the operations §4.1 of the paper relies on: the axiom
//! applicability check is a *subset* question (`S_p ⊆ RE1`), answered per
//! \[HU79\] as `M1 ∩ complement(M2) = ∅` over a common alphabet. Inclusion
//! over the union of the two expressions' alphabets coincides with inclusion
//! over any larger alphabet, so no "universe" alphabet is needed.

use crate::cache::DfaCache;
use crate::dfa::Dfa;
use crate::intern::RegexId;
use crate::limits::{LimitExceeded, Limits};
use crate::{Regex, Symbol};
use std::sync::Arc;

fn union_alphabet(a: &Regex, b: &Regex) -> Vec<Symbol> {
    let mut syms = a.symbols();
    syms.extend(b.symbols());
    syms.sort_unstable();
    syms.dedup();
    syms
}

/// `L(a) ⊆ L(b)`.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use apt_regex::{ops, parse};
/// assert!(ops::is_subset(&parse("L.L")?, &parse("L+")?));
/// assert!(!ops::is_subset(&parse("L+")?, &parse("L.L")?));
/// # Ok(())
/// # }
/// ```
pub fn is_subset(a: &Regex, b: &Regex) -> bool {
    match try_is_subset(a, b, &Limits::none()) {
        Ok(v) => v,
        Err(e) => unreachable!("unbounded subset test cannot trip a limit: {e}"),
    }
}

/// `L(a) ⊆ L(b)` under resource [`Limits`]: the DFA constructions stop at
/// the state budget / deadline / cancellation instead of blowing up.
///
/// # Errors
///
/// Returns the first [`LimitExceeded`] encountered. An `Err` means the
/// question was *not decided* — callers must treat it as "unknown", never
/// as `false`.
pub fn try_is_subset(a: &Regex, b: &Regex, limits: &Limits) -> Result<bool, LimitExceeded> {
    if a.is_empty_language() {
        return Ok(true);
    }
    let alpha = union_alphabet(a, b);
    let da = Dfa::try_build(a, &alpha, limits)?;
    let db = Dfa::try_build(b, &alpha, limits)?;
    da.try_subset_of(&db, limits)
}

/// `L(a) ⊆ L(b)` by the pre-arena kernel: build both DFAs, materialize the
/// complement and the full product, then ask emptiness.
///
/// Kept as an independent reference implementation for cross-validation:
/// the property suite pits [`try_is_subset`]'s early-exit walk against
/// it, and `tests/sparse_theorem.rs` checks [`try_is_subset_interned`]
/// against it on every Figure 7 subset pair.
///
/// # Errors
///
/// Returns the first [`LimitExceeded`] encountered (question undecided).
pub fn try_is_subset_materializing(
    a: &Regex,
    b: &Regex,
    limits: &Limits,
) -> Result<bool, LimitExceeded> {
    if a.is_empty_language() {
        return Ok(true);
    }
    let alpha = union_alphabet(a, b);
    let da = Dfa::try_build(a, &alpha, limits)?;
    let db = Dfa::try_build(b, &alpha, limits)?;
    Ok(da.try_intersect(&db.complement(), limits)?.is_empty())
}

/// `L(a) ⊆ L(b)` for interned expressions, under [`Limits`], reusing DFAs
/// from `cache` when one is provided.
///
/// This is the prover's hot path: the ids arrive pre-interned (axiom sides
/// are interned once per axiom set), structural equality is an integer
/// compare, and the DFA interner keys on `(RegexId, alphabet)` — no
/// `Display`-formatted string is ever built.
///
/// # Errors
///
/// Returns the first [`LimitExceeded`] encountered; the question is then
/// undecided and the caller must treat it as "unknown".
pub fn try_is_subset_ids(
    a: RegexId,
    b: RegexId,
    limits: &Limits,
    cache: Option<&DfaCache>,
) -> Result<bool, LimitExceeded> {
    if a.is_empty_language() || a == b {
        // Hash-consing makes structural equality O(1); equal expressions
        // denote equal languages.
        return Ok(true);
    }
    let ra = a.to_regex();
    let rb = b.to_regex();
    try_is_subset_interned(a, &ra, b, &rb, limits, cache)
}

/// As [`try_is_subset_ids`], for callers that already hold the trees next
/// to the ids (the prover keeps both), so no arena round-trip is needed:
/// `a_id`/`b_id` must be the interned forms of `a`/`b`.
///
/// # Errors
///
/// Returns the first [`LimitExceeded`] encountered (question undecided).
pub fn try_is_subset_interned(
    a_id: RegexId,
    a: &Regex,
    b_id: RegexId,
    b: &Regex,
    limits: &Limits,
    cache: Option<&DfaCache>,
) -> Result<bool, LimitExceeded> {
    if a_id.is_empty_language() || a_id == b_id {
        return Ok(true);
    }
    let alpha = union_alphabet(a, b);
    // With an interner available, walk the *minimized* automata: the lazy
    // product's pair-state frontier is bounded by the product of minimal
    // state counts, and the quotients are interned once per (id, alphabet).
    // Minimization preserves the language, so the verdict is identical.
    let (da, db) = match cache {
        Some(cache) => (
            cache.get_or_build_min_id(a_id, a, &alpha, limits)?,
            cache.get_or_build_min_id(b_id, b, &alpha, limits)?,
        ),
        None => (
            Arc::new(Dfa::try_build(a, &alpha, limits)?),
            Arc::new(Dfa::try_build(b, &alpha, limits)?),
        ),
    };
    da.try_subset_of(&db, limits)
}

/// `L(a) ⊆ L(b)` under [`Limits`], reusing interned DFAs from `cache` when
/// one is provided.
///
/// Semantically identical to [`try_is_subset`]: the cache only memoizes the
/// regex→DFA conversions (the dominant cost per §4.2 of the paper), never
/// the subset answer itself, and failed constructions are never interned.
///
/// # Errors
///
/// Returns the first [`LimitExceeded`] encountered; the question is then
/// undecided and the caller must treat it as "unknown".
pub fn try_is_subset_with(
    a: &Regex,
    b: &Regex,
    limits: &Limits,
    cache: Option<&DfaCache>,
) -> Result<bool, LimitExceeded> {
    let Some(cache) = cache else {
        return try_is_subset(a, b, limits);
    };
    if a.is_empty_language() {
        return Ok(true);
    }
    let alpha = union_alphabet(a, b);
    let da = cache.get_or_build(a, &alpha, limits)?;
    let db = cache.get_or_build(b, &alpha, limits)?;
    da.try_subset_of(&db, limits)
}

/// `L(a) ∩ L(b) = ∅`.
pub fn is_disjoint(a: &Regex, b: &Regex) -> bool {
    match try_is_disjoint(a, b, &Limits::none()) {
        Ok(v) => v,
        Err(e) => unreachable!("unbounded disjointness test cannot trip a limit: {e}"),
    }
}

/// `L(a) ∩ L(b) = ∅` under resource [`Limits`].
///
/// # Errors
///
/// Returns the first [`LimitExceeded`] encountered (the question is then
/// undecided).
pub fn try_is_disjoint(a: &Regex, b: &Regex, limits: &Limits) -> Result<bool, LimitExceeded> {
    let alpha = union_alphabet(a, b);
    let da = Dfa::try_build(a, &alpha, limits)?;
    let db = Dfa::try_build(b, &alpha, limits)?;
    Ok(!da.try_intersects(&db, limits)?)
}

/// `L(a) = L(b)`.
pub fn equivalent(a: &Regex, b: &Regex) -> bool {
    is_subset(a, b) && is_subset(b, a)
}

/// `L(a) = L(b)` under resource [`Limits`].
///
/// # Errors
///
/// Returns the first [`LimitExceeded`] encountered (the question is then
/// undecided).
pub fn try_equivalent(a: &Regex, b: &Regex, limits: &Limits) -> Result<bool, LimitExceeded> {
    Ok(try_is_subset(a, b, limits)? && try_is_subset(b, a, limits)?)
}

/// A shortest word in `L(a) ∩ L(b)`, if any — a concrete witness that two
/// path sets can denote the same vertex, used in diagnostics.
pub fn intersection_witness(a: &Regex, b: &Regex) -> Option<Vec<Symbol>> {
    let alpha = union_alphabet(a, b);
    Dfa::build(a, &alpha)
        .intersect(&Dfa::build(b, &alpha))
        .shortest_word()
}

/// Whether `L(a)` is empty.
pub fn is_empty(a: &Regex) -> bool {
    let alpha = a.symbols();
    Dfa::build(a, &alpha).is_empty()
}

/// Whether `L(a)` contains exactly one word.
///
/// This implements the cardinality-one check of `deptest` (§4.1): a definite
/// dependence needs `Path_p = Path_q` **and** `|Path_p| = 1`.
pub fn is_singleton(a: &Regex) -> bool {
    let alpha = a.symbols();
    let dfa = Dfa::build(a, &alpha);
    let Some(w) = dfa.shortest_word() else {
        return false;
    };
    // The language is a singleton iff removing the shortest word empties it.
    // Build "alphabet* minus {w}" as complement of the literal word DFA.
    let word_re = Regex::word(w);
    let alpha2 = union_alphabet(a, &word_re);
    let da = Dfa::build(a, &alpha2);
    let dw = Dfa::build(&word_re, &alpha2);
    da.intersect(&dw.complement()).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn subset_basic() {
        assert!(is_subset(&parse("L").unwrap(), &parse("L|R").unwrap()));
        assert!(!is_subset(&parse("L|R").unwrap(), &parse("L").unwrap()));
        assert!(is_subset(&parse("L.L.L").unwrap(), &parse("L*").unwrap()));
        assert!(is_subset(&Regex::empty(), &parse("L").unwrap()));
        assert!(is_subset(&parse("eps").unwrap(), &parse("L*").unwrap()));
        assert!(!is_subset(&parse("eps").unwrap(), &parse("L+").unwrap()));
    }

    #[test]
    fn subset_with_disjoint_alphabets() {
        assert!(!is_subset(&parse("L").unwrap(), &parse("R").unwrap()));
        assert!(is_subset(
            &parse("ncolE+").unwrap(),
            &parse("(ncolE|nrowE)+").unwrap()
        ));
    }

    #[test]
    fn disjointness() {
        assert!(is_disjoint(&parse("L+").unwrap(), &parse("R+").unwrap()));
        assert!(!is_disjoint(
            &parse("(L|R)+").unwrap(),
            &parse("L+").unwrap()
        ));
        // The paper's leaf-linked example: exact languages ARE disjoint...
        assert!(is_disjoint(
            &parse("L.L.N").unwrap(),
            &parse("L.R.N").unwrap()
        ));
        // ...but the conservative mappings are not (§2.4).
        assert!(!is_disjoint(
            &parse("(L|R)+.N+").unwrap(),
            &parse("(L|R)+.N+").unwrap()
        ));
    }

    #[test]
    fn equivalence() {
        assert!(equivalent(&parse("L.L*").unwrap(), &parse("L+").unwrap()));
        assert!(equivalent(
            &parse("(L|R)*").unwrap(),
            &parse("(R|L)*").unwrap()
        ));
        assert!(!equivalent(&parse("L*").unwrap(), &parse("L+").unwrap()));
    }

    #[test]
    fn witness_of_overlap() {
        let w = intersection_witness(&parse("L+.N").unwrap(), &parse("(L|N)+").unwrap());
        let w = w.expect("languages overlap");
        assert!(parse("L+.N").unwrap().matches(&w));
        assert!(parse("(L|N)+").unwrap().matches(&w));
        assert_eq!(
            intersection_witness(&parse("L").unwrap(), &parse("R").unwrap()),
            None
        );
    }

    #[test]
    fn emptiness() {
        assert!(is_empty(&Regex::empty()));
        assert!(!is_empty(&parse("eps").unwrap()));
        assert!(!is_empty(&parse("L*").unwrap()));
    }

    #[test]
    fn bounded_subset_degrades_instead_of_blowing_up() {
        // (a|b)*.a.(a|b)^n needs 2^n DFA states: the classic subset
        // construction bomb. A small state budget must stop it cleanly.
        let n = 18;
        let bomb = format!("(a|b)*.a{}", ".(a|b)".repeat(n));
        let a = parse(&bomb).unwrap();
        let b = parse("c").unwrap();
        let limits = Limits::none().with_max_states(500);
        assert_eq!(
            try_is_subset(&a, &b, &limits),
            Err(LimitExceeded::States { budget: 500 })
        );
        // With no limits the same query still decides (on a smaller bomb).
        let small = parse("(a|b)*.a.(a|b).(a|b)").unwrap();
        assert!(!is_subset(&small, &b));
        assert!(try_is_subset(&small, &b, &Limits::none().with_max_states(100_000)) == Ok(false));
    }

    #[test]
    fn bounded_ops_agree_with_unbounded_when_within_budget() {
        let roomy = Limits::none().with_max_states(10_000);
        let cases = [
            ("L.L", "L+"),
            ("L+", "L.L"),
            ("L|R", "L"),
            ("ncolE+", "(ncolE|nrowE)+"),
        ];
        for (x, y) in cases {
            let (rx, ry) = (parse(x).unwrap(), parse(y).unwrap());
            assert_eq!(try_is_subset(&rx, &ry, &roomy), Ok(is_subset(&rx, &ry)));
            assert_eq!(try_is_disjoint(&rx, &ry, &roomy), Ok(is_disjoint(&rx, &ry)));
            assert_eq!(try_equivalent(&rx, &ry, &roomy), Ok(equivalent(&rx, &ry)));
        }
    }

    #[test]
    fn cached_subset_agrees_with_uncached() {
        let cache = DfaCache::new();
        let cases = [
            ("L.L", "L+"),
            ("L+", "L.L"),
            ("L|R", "L"),
            ("ncolE+", "(ncolE|nrowE)+"),
            ("eps", "L*"),
        ];
        for (x, y) in cases {
            let (rx, ry) = (parse(x).unwrap(), parse(y).unwrap());
            let plain = is_subset(&rx, &ry);
            // Twice: once to populate, once to hit.
            for _ in 0..2 {
                assert_eq!(
                    try_is_subset_with(&rx, &ry, &Limits::none(), Some(&cache)),
                    Ok(plain)
                );
            }
        }
        assert!(!cache.is_empty());
    }

    #[test]
    fn lazy_and_materializing_kernels_agree() {
        let cases = [
            ("L.L", "L+"),
            ("L+", "L.L"),
            ("L|R", "L"),
            ("ncolE+", "(ncolE|nrowE)+"),
            ("eps", "L*"),
            ("eps", "L+"),
            ("(L|R)+.N+", "(L|R|N)+"),
        ];
        for (x, y) in cases {
            let (rx, ry) = (parse(x).unwrap(), parse(y).unwrap());
            assert_eq!(
                try_is_subset(&rx, &ry, &Limits::none()),
                try_is_subset_materializing(&rx, &ry, &Limits::none()),
                "{x} ⊆ {y}"
            );
        }
    }

    #[test]
    fn interned_subset_agrees_with_tree_subset() {
        let cache = DfaCache::new();
        let cases = [("L.L", "L+"), ("L+", "L.L"), ("empty", "L"), ("L*", "L*")];
        for (x, y) in cases {
            let (rx, ry) = (parse(x).unwrap(), parse(y).unwrap());
            let (ix, iy) = (RegexId::intern(&rx), RegexId::intern(&ry));
            let expect = Ok(is_subset(&rx, &ry));
            assert_eq!(try_is_subset_ids(ix, iy, &Limits::none(), None), expect);
            // Twice with the cache: populate, then hit.
            for _ in 0..2 {
                assert_eq!(
                    try_is_subset_ids(ix, iy, &Limits::none(), Some(&cache)),
                    expect,
                    "{x} ⊆ {y}"
                );
            }
        }
    }

    #[test]
    fn singleton_cardinality() {
        assert!(is_singleton(&parse("L.L.N").unwrap()));
        assert!(is_singleton(&parse("eps").unwrap()));
        assert!(!is_singleton(&parse("L|R").unwrap()));
        assert!(!is_singleton(&parse("L*").unwrap()));
        assert!(!is_singleton(&Regex::empty()));
        // alternation of identical branches collapses to a singleton
        assert!(is_singleton(&parse("L|L").unwrap()));
    }
}
