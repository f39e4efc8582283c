//! Degradation soundness: exhausting any resource budget (fuel, depth,
//! wall-clock deadline, DFA state budget, cancellation) must weaken an
//! answer to an explicit Maybe with the matching [`MaybeReason`] — it
//! must never flip a provable verdict, never crash, and never poison the
//! proof cache against a later, better-funded retry.

use apt_axioms::adds;
use apt_core::{check_proof, AccessPath};
use apt_core::{
    Answer, Budget, CancelToken, DepQuery, DepTest, Handle, HandleRelation, MaybeReason, MemRef,
    Origin, Prover, ProverConfig, SearchLimit,
};
use apt_regex::Path;
use std::time::{Duration, Instant};

fn p(s: &str) -> Path {
    Path::parse(s).expect("valid path")
}

/// The three proving suites of the paper, each with a query its axioms
/// decide: Fig. 3 (leaf-linked tree), §5 (minimal sparse matrix), and
/// Appendix A (full sparse matrix).
fn provable_suites() -> Vec<(apt_axioms::AxiomSet, Path, Path)> {
    vec![
        (adds::leaf_linked_tree_axioms(), p("L.L.N"), p("L.R.N")),
        (
            adds::sparse_matrix_minimal_axioms(),
            p("ncolE+"),
            p("nrowE+.ncolE+"),
        ),
        (
            adds::sparse_matrix_axioms(),
            p("ncolE+"),
            p("nrowE+.ncolE+"),
        ),
    ]
}

#[test]
fn starved_fuel_reports_fuel_not_a_wrong_answer() {
    for (axioms, a, b) in provable_suites() {
        let config = ProverConfig::with_budget(Budget::new().with_fuel(1));
        let mut prover = Prover::with_config(&axioms, config);
        let (proof, why) = {
            let out = DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut prover);
            (out.proof, out.verdict.reason)
        };
        // With one goal of fuel either the proof is trivially found or the
        // prover must degrade — it may never invent a bogus proof.
        match proof {
            Some(pf) => check_proof(&axioms, &pf).expect("found proof must check"),
            None => {
                assert_eq!(why, Some(MaybeReason::SearchExhausted(SearchLimit::Fuel)));
                assert!(prover.stats().cutoffs.fuel > 0);
            }
        }
    }
}

#[test]
fn expired_deadline_reports_deadline() {
    for (axioms, a, b) in provable_suites() {
        let config = ProverConfig::with_budget(Budget::new().with_deadline(Duration::ZERO));
        let mut prover = Prover::with_config(&axioms, config);
        let (proof, why) = {
            let out = DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut prover);
            (out.proof, out.verdict.reason)
        };
        assert!(proof.is_none(), "an already-expired deadline cannot prove");
        assert_eq!(why, Some(MaybeReason::DeadlineExceeded));
        assert!(prover.stats().cutoffs.deadline > 0);
    }
}

#[test]
fn tiny_dfa_budget_reports_regex_budget() {
    // One DFA state is never enough for a real automaton-backed subset
    // check. Proofs whose subset obligations all close on the hash-consing
    // fast paths (∅ ⊆ X, X ⊆ X) can still succeed — those decide without
    // building any DFA — but they must be genuine, checkable proofs; any
    // suite that does need an automaton must degrade with the RegexBudget
    // pedigree (never a wrong No).
    let mut degraded_at_least_once = false;
    for (axioms, a, b) in provable_suites() {
        let config = ProverConfig::with_budget(Budget::new().with_max_dfa_states(1));
        let mut prover = Prover::with_config(&axioms, config);
        let (proof, why) = {
            let out = DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut prover);
            (out.proof, out.verdict.reason)
        };
        match proof {
            Some(pf) => check_proof(&axioms, &pf).expect("DFA-free proof must check"),
            None => {
                assert_eq!(why, Some(MaybeReason::RegexBudget));
                assert!(prover.stats().cutoffs.regex_budget > 0);
                degraded_at_least_once = true;
            }
        }
    }
    assert!(
        degraded_at_least_once,
        "every suite proved DFA-free — the degradation leg never ran"
    );
}

#[test]
fn cancellation_reports_cancelled() {
    let axioms = adds::leaf_linked_tree_axioms();
    let token = CancelToken::new();
    token.cancel(); // cancelled before the query even starts
    let config = ProverConfig::with_budget(Budget::new().with_cancel(token));
    let mut prover = Prover::with_config(&axioms, config);
    let (proof, why) = {
        let out = DepQuery::disjoint(&p("L.L.N"), &p("L.R.N"))
            .origin(Origin::Same)
            .run_with(&mut prover);
        (out.proof, out.verdict.reason)
    };
    assert!(proof.is_none());
    assert_eq!(why, Some(MaybeReason::Cancelled));
    assert!(prover.stats().cutoffs.cancelled > 0);
}

#[test]
fn starved_then_refunded_prover_still_proves() {
    // The anti-poisoning property: a cache populated during an exhausted
    // run must not block the same prover from proving once re-funded.
    let mut starved_at_least_once = false;
    for (axioms, a, b) in provable_suites() {
        let config = ProverConfig::with_budget(Budget::new().with_fuel(2));
        let mut prover = Prover::with_config(&axioms, config);
        let (starved, _) = {
            let out = DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut prover);
            (out.proof, out.verdict.reason)
        };
        // Shallow proofs (Fig. 3 is one direct axiom hit) may fit in 2
        // goals; the deep sparse-matrix searches cannot.
        starved_at_least_once |= starved.is_none();

        prover.set_budget(Budget::new());
        let (proof, why) = {
            let out = DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut prover);
            (out.proof, out.verdict.reason)
        };
        let proof = proof.unwrap_or_else(|| panic!("refunded prover must prove ({why:?})"));
        check_proof(&axioms, &proof).expect("refunded proof checks");
    }
    assert!(
        starved_at_least_once,
        "2 fuel completed every suite — the starvation leg never ran"
    );
}

#[test]
fn deadline_starved_then_refunded_prover_still_proves() {
    let axioms = adds::sparse_matrix_minimal_axioms();
    let config = ProverConfig::with_budget(Budget::new().with_deadline(Duration::ZERO));
    let mut prover = Prover::with_config(&axioms, config);
    let (starved, why) = {
        let out = DepQuery::disjoint(&p("ncolE+"), &p("nrowE+.ncolE+"))
            .origin(Origin::Same)
            .run_with(&mut prover);
        (out.proof, out.verdict.reason)
    };
    assert!(starved.is_none());
    assert_eq!(why, Some(MaybeReason::DeadlineExceeded));

    prover.set_budget(Budget::new());
    let (proof, why) = {
        let out = DepQuery::disjoint(&p("ncolE+"), &p("nrowE+.ncolE+"))
            .origin(Origin::Same)
            .run_with(&mut prover);
        (out.proof, out.verdict.reason)
    };
    assert!(proof.is_some(), "deadline retry must prove ({why:?})");
}

#[test]
fn adversarial_nested_star_axioms_degrade_within_the_deadline() {
    // An axiom set engineered to detonate the subset construction: the
    // (a|b)*-then-discriminator family needs 2^n DFA states. Under a
    // wall-clock deadline plus a state budget the query must come back
    // quickly with an explicit degradation verdict.
    let n = 22;
    let bomb = format!("(a|b)*.a{}", ".(a|b)".repeat(n));
    let axioms = apt_axioms::AxiomSet::parse(&format!(
        "B1: forall x, x.{bomb} <> x.c\n\
         B2: forall x, x.(a|b)+ <> x.eps"
    ))
    .expect("bomb axioms parse");
    let deadline = Duration::from_millis(300);
    let config = ProverConfig::with_budget(
        Budget::new()
            .with_deadline(deadline)
            .with_max_dfa_states(2_000),
    );
    let mut prover = Prover::with_config(&axioms, config);
    let started = Instant::now();
    let (proof, why) = {
        let out = DepQuery::disjoint(&p(&bomb), &p("c.a"))
            .origin(Origin::Same)
            .run_with(&mut prover);
        (out.proof, out.verdict.reason)
    };
    let elapsed = started.elapsed();
    // Generous margin: the brakes poll every goal attempt and every 64
    // DFA states, so even slow CI should come in well under 10x.
    assert!(
        elapsed < deadline * 10,
        "degradation took {elapsed:?}, way past the {deadline:?} deadline"
    );
    if proof.is_none() {
        assert!(
            matches!(
                why,
                Some(MaybeReason::DeadlineExceeded | MaybeReason::RegexBudget)
            ) || matches!(why, Some(MaybeReason::SearchExhausted(_))),
            "expected a resource-degradation reason, got {why:?}"
        );
    }
}

#[test]
fn degraded_deptest_reports_reason_and_stays_sound() {
    // End-to-end through DepTest: the Maybe carries the pedigree, and the
    // same query under a generous budget gives the true No.
    let axioms = adds::leaf_linked_tree_axioms();
    let h = Handle::for_variable("root");
    let s = MemRef::new(AccessPath::new(h.clone(), p("L.L.N")), "d");
    let t = MemRef::new(AccessPath::new(h, p("L.R.N")), "d");

    let starved = DepTest::with_config(
        &axioms,
        ProverConfig::with_budget(Budget::new().with_fuel(1)),
    );
    let o = starved.test(&s, &t, HandleRelation::Same);
    assert_eq!(o.answer, Answer::Maybe);
    assert_eq!(
        o.maybe,
        Some(MaybeReason::SearchExhausted(SearchLimit::Fuel))
    );
    assert!(o.is_degraded());
    assert!(o.verdict().is_degraded());

    let funded = DepTest::new(&axioms);
    let o = funded.test(&s, &t, HandleRelation::Same);
    assert_eq!(o.answer, Answer::No);
    assert_eq!(o.maybe, None);
    assert!(!o.is_degraded());
}

#[test]
fn genuinely_unknown_is_not_flagged_as_degraded() {
    // No axioms at all: the Maybe is the axioms' fault, not a budget's.
    let axioms = apt_axioms::AxiomSet::new();
    let tester = DepTest::new(&axioms);
    let h = Handle::for_variable("x");
    let s = MemRef::new(AccessPath::new(h.clone(), p("L")), "d");
    let t = MemRef::new(AccessPath::new(h, p("R")), "d");
    let o = tester.test(&s, &t, HandleRelation::Same);
    assert_eq!(o.answer, Answer::Maybe);
    assert_eq!(o.maybe, Some(MaybeReason::GenuinelyUnknown));
    assert!(!o.is_degraded());
}

#[test]
fn bounded_cache_does_not_change_answers() {
    // A 4-entry proof cache forces constant eviction; answers must agree
    // with the unbounded prover on every suite.
    for (axioms, a, b) in provable_suites() {
        let config = ProverConfig::with_budget(Budget::new().with_cache_capacity(4));
        let mut bounded = Prover::with_config(&axioms, config);
        let (proof, why) = {
            let out = DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut bounded);
            (out.proof, out.verdict.reason)
        };
        let proof = proof.unwrap_or_else(|| panic!("bounded cache lost the proof ({why:?})"));
        check_proof(&axioms, &proof).expect("bounded-cache proof checks");
    }
}

mod soundness_properties {
    use super::*;
    use proptest::prelude::*;

    fn small_path() -> impl Strategy<Value = Path> {
        proptest::sample::select(vec![
            p("L"),
            p("R"),
            p("N"),
            p("L.L.N"),
            p("L.R.N"),
            p("L+"),
            p("(L|R)+"),
            p("(L|R)+.N+"),
            p("N*"),
            p("eps"),
        ])
    }

    fn tight_budgets() -> impl Strategy<Value = Budget> {
        prop_oneof![
            (1u64..6).prop_map(|f| Budget::new().with_fuel(f)),
            (1u64..40).prop_map(|s| Budget::new().with_max_dfa_states(s as usize)),
            Just(Budget::new().with_deadline(Duration::ZERO)),
            (1u64..4).prop_map(|c| Budget::new().with_cache_capacity(c as usize)),
        ]
    }

    proptest! {
        #[test]
        fn degraded_never_flips_a_verdict(a in small_path(), b in small_path(), budget in tight_budgets()) {
            let axioms = adds::leaf_linked_tree_axioms();
            for origin in [Origin::Same, Origin::Distinct] {
                // Ground truth from an effectively unbounded prover.
                let mut full = Prover::new(&axioms);
                let truth = DepQuery::disjoint(&a, &b).origin(origin).run_with(&mut full).proof;

                let mut tight = Prover::with_config(&axioms, ProverConfig::with_budget(budget.clone()));
                let (got, why) = { let out = DepQuery::disjoint(&a, &b).origin(origin).run_with(&mut tight); (out.proof, out.verdict.reason) };
                match got {
                    // A proof found under pressure must still be a real proof.
                    Some(pf) => {
                        check_proof(&axioms, &pf).expect("degraded-run proof must check");
                        prop_assert!(truth.is_some(), "tight budget proved what full search could not");
                    }
                    // No proof: the only allowed divergence is a degradation
                    // with a stated reason.
                    None => {
                        if truth.is_some() {
                            prop_assert!(
                                why.is_some_and(|r| r.is_degraded()),
                                "lost a provable verdict without a degradation reason"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn prove_equal_degrades_soundly(budget in tight_budgets()) {
            // Equality proving under pressure may only miss equalities —
            // never claim a false one.
            let axioms = apt_axioms::AxiomSet::parse(
                "C1: forall p, p.next.prev = p.eps\n\
                 C2: forall p, p.prev.next = p.eps",
            ).expect("cycle axioms");
            let a = p("next.prev.next");
            let b = p("next");
            let mut tight = Prover::with_config(&axioms, ProverConfig::with_budget(budget));
            let (equal, why) = { let out = DepQuery::equal(&a, &b).run_with(&mut tight); (out.is_definite(), out.verdict.reason) };
            if equal {
                // Cross-check against the unbounded prover.
                let mut full = Prover::new(&axioms);
                prop_assert!(DepQuery::equal(&a, &b).run_with(&mut full).is_definite());
            } else {
                prop_assert!(why.is_some(), "a failed equality must carry a reason");
            }
            // The definitely-unequal pair must never become equal.
            let (never, _) = { let out = DepQuery::equal(&p("next"), &p("prev")).run_with(&mut tight); (out.is_definite(), out.verdict.reason) };
            prop_assert!(!never);
        }
    }
}
