//! Parity of the indexed proof search against the linear axiom scan.
//!
//! The compiled dispatch index (first-/last-symbol bitsets, compile-time
//! injectivity, negative memo) is a pure pruning layer: every axiom
//! orientation it skips could not have produced a subset match, and every
//! failure it caches was established without consulting budget state or
//! in-progress ancestors. Consequently the indexed prover must return the
//! **identical** verdict, degradation reason, and proof text as a prover
//! running the literal linear scan (`enable_axiom_dispatch = false`,
//! `enable_negative_memo = false`) — on the Figure 3 leaf-linked tree,
//! the §5 minimal sparse-matrix set, and the full Appendix A set, over
//! random path goals.
//!
//! Under a tight fuel budget the two kernels may degrade at different
//! points (the index does strictly less work per goal), so there parity
//! is conditional: when *neither* run degraded, the outcomes are
//! identical, and any clean answer must match the unbudgeted truth.

use apt_axioms::adds::{
    leaf_linked_tree_axioms, sparse_matrix_axioms, sparse_matrix_minimal_axioms,
};
use apt_axioms::AxiomSet;
use apt_core::{Answer, Budget, DepQuery, MaybeReason, Origin, Outcome, Prover, ProverConfig};
use apt_regex::{Component, Path, Symbol};
use proptest::prelude::*;

/// The pre-index search: every axiom tried in set order, no failure memo.
fn linear_config() -> ProverConfig {
    ProverConfig {
        enable_axiom_dispatch: false,
        enable_negative_memo: false,
        ..ProverConfig::default()
    }
}

/// The three paper axiom sets the parity suite runs over.
fn axiom_set(which: usize) -> AxiomSet {
    match which % 3 {
        0 => leaf_linked_tree_axioms(),      // Figure 3
        1 => sparse_matrix_minimal_axioms(), // §5
        _ => sparse_matrix_axioms(),         // Appendix A
    }
}

/// Decodes a path spec against an alphabet: each element picks a symbol
/// by index and a decoration (plain field, `sym+`, or `sym*`).
fn decode_path(spec: &[(usize, u8)], alphabet: &[Symbol]) -> Path {
    let mut path = Path::new(Vec::new());
    for &(i, deco) in spec {
        let sym = alphabet[i % alphabet.len()];
        let unit = Path::new(vec![Component::Field(sym)]);
        path.push(match deco % 4 {
            0 | 1 => Component::Field(sym),
            2 => Component::Plus(unit),
            _ => Component::Star(unit),
        });
    }
    path
}

type Fingerprint = (Answer, Option<MaybeReason>, Option<String>);

/// Everything observable about an outcome: answer, degradation pedigree,
/// and the rendered proof (text equality means the same proof tree).
fn fingerprint(outcome: &Outcome) -> Fingerprint {
    (
        outcome.verdict.answer,
        outcome.verdict.reason,
        outcome.proof.as_ref().map(|p| p.to_string()),
    )
}

fn degraded(outcome: &Outcome) -> bool {
    outcome.verdict.reason.is_some_and(|r| r.is_degraded())
}

fn spec_strategy() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..8, any::<u8>()), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Disjointness: verdict, reason, and proof text all identical at the
    /// default budget.
    #[test]
    fn disjointness_scans_agree(
        which in 0usize..3,
        sa in spec_strategy(),
        sb in spec_strategy(),
        distinct in any::<bool>(),
    ) {
        let axioms = axiom_set(which);
        let alphabet = axioms.symbols();
        prop_assume!(!alphabet.is_empty());
        let a = decode_path(&sa, &alphabet);
        let b = decode_path(&sb, &alphabet);
        let origin = if distinct { Origin::Distinct } else { Origin::Same };
        let query = DepQuery::disjoint(&a, &b).origin(origin);
        let mut linear = Prover::with_config(&axioms, linear_config());
        let mut indexed = Prover::with_config(&axioms, ProverConfig::default());
        prop_assert_eq!(
            fingerprint(&query.run_with(&mut linear)),
            fingerprint(&query.run_with(&mut indexed)),
            "{} <> {} under {:?}", a, b, origin
        );
    }

    /// Equality queries (R9's customers) agree the same way.
    #[test]
    fn equality_scans_agree(
        which in 0usize..3,
        sa in spec_strategy(),
        sb in spec_strategy(),
    ) {
        let axioms = axiom_set(which);
        let alphabet = axioms.symbols();
        prop_assume!(!alphabet.is_empty());
        let a = decode_path(&sa, &alphabet);
        let b = decode_path(&sb, &alphabet);
        let query = DepQuery::equal(&a, &b);
        let mut linear = Prover::with_config(&axioms, linear_config());
        let mut indexed = Prover::with_config(&axioms, ProverConfig::default());
        prop_assert_eq!(
            fingerprint(&query.run_with(&mut linear)),
            fingerprint(&query.run_with(&mut indexed)),
            "{} = {}", a, b
        );
    }

    /// Budget-tripped parity: under a tight fuel budget, if neither kernel
    /// degraded the outcomes are identical, and any clean answer matches
    /// the unbudgeted truth (a budget may only degrade to Maybe, never
    /// flip a verdict).
    #[test]
    fn tight_budgets_keep_parity(
        which in 0usize..3,
        sa in spec_strategy(),
        sb in spec_strategy(),
        fuel in 1u64..64,
    ) {
        let axioms = axiom_set(which);
        let alphabet = axioms.symbols();
        prop_assume!(!alphabet.is_empty());
        let a = decode_path(&sa, &alphabet);
        let b = decode_path(&sb, &alphabet);
        let query = DepQuery::disjoint(&a, &b).origin(Origin::Same);
        let budget = Budget::new().with_fuel(fuel);
        let linear_cfg = ProverConfig { budget: budget.clone(), ..linear_config() };
        let indexed_cfg = ProverConfig { budget, ..ProverConfig::default() };
        let lo = query.run_with(&mut Prover::with_config(&axioms, linear_cfg));
        let io = query.run_with(&mut Prover::with_config(&axioms, indexed_cfg));
        if !degraded(&lo) && !degraded(&io) {
            prop_assert_eq!(
                fingerprint(&lo),
                fingerprint(&io),
                "clean runs diverged on {} <> {}", a, b
            );
        }
        let truth = query.run_with(&mut Prover::with_config(&axioms, linear_config()));
        for (name, o) in [("linear", &lo), ("indexed", &io)] {
            if !degraded(o) {
                prop_assert_eq!(
                    o.verdict.answer,
                    truth.verdict.answer,
                    "{} kernel's clean answer contradicts the truth on {} <> {}",
                    name, a, b
                );
            }
        }
    }
}

/// The §3.3 worked example must produce byte-identical proofs: the
/// dispatch index preserves axiom iteration order, so the first proof
/// found is the same proof.
#[test]
fn paper_example_proofs_are_byte_identical() {
    let axioms = leaf_linked_tree_axioms();
    let p = |s: &str| Path::parse(s).expect("example path parses");
    let examples = [
        ("L.L.N", "L.R.N"),
        ("L.N+", "R.N+"),
        ("L", "R"),
        ("N.N", "N"),
    ];
    for (a, b) in examples {
        let query = DepQuery::disjoint(&p(a), &p(b)).origin(Origin::Same);
        let linear = query.run_with(&mut Prover::with_config(&axioms, linear_config()));
        let indexed = query.run_with(&mut Prover::with_config(&axioms, ProverConfig::default()));
        assert_eq!(
            fingerprint(&linear),
            fingerprint(&indexed),
            "{a} <> {b} diverged"
        );
    }
}

/// Guard against the flag being plumbed but ignored: on the Figure 3 set
/// the dispatch signatures must actually prune orientations, and the
/// linear configuration must never touch the dispatch counters.
#[test]
fn dispatch_counters_separate_the_kernels() {
    let axioms = leaf_linked_tree_axioms();
    let p = |s: &str| Path::parse(s).expect("path parses");
    let queries = [("L.L.N", "L.R.N"), ("L.N+", "R.N+"), ("N.N", "N.N")];

    let mut indexed = Prover::with_config(&axioms, ProverConfig::default());
    let mut linear = Prover::with_config(&axioms, linear_config());
    for (a, b) in queries {
        let q = DepQuery::disjoint(&p(a), &p(b)).origin(Origin::Same);
        q.run_with(&mut indexed);
        q.run_with(&mut linear);
    }
    let is = indexed.stats();
    let ls = linear.stats();
    assert!(is.dispatch_hits > 0, "index never admitted an axiom");
    assert!(
        is.subset_checks <= ls.subset_checks,
        "indexed search did more subset work ({} > {})",
        is.subset_checks,
        ls.subset_checks
    );
    assert_eq!(ls.dispatch_hits, 0, "linear scan consulted the index");
    assert_eq!(ls.dispatch_misses, 0, "linear scan consulted the index");
    assert_eq!(ls.neg_memo_hits, 0, "linear scan consulted the memo");
}
