//! Engine-vs-single-prover equivalence: batched, multi-worker execution
//! through a [`DepEngine`] is an optimization, never a semantics change.
//! Any worker count must reproduce the sequential prover's verdicts
//! exactly, and a warmed shared cache must not flip later batches.
//!
//! Batches below [`INLINE_BATCH_THRESHOLD`] unique queries run inline
//! whatever the worker count, so one property draws batches past it to
//! reach the worker fan-out.

use apt_core::{
    Answer, DepEngine, DepQuery, MaybeReason, Origin, Prover, ProverConfig, INLINE_BATCH_THRESHOLD,
};
use apt_regex::Path;
use proptest::prelude::*;
use std::collections::HashSet;

/// The verdict fingerprint compared across execution strategies.
type Key = (Answer, Option<MaybeReason>, bool);

fn fingerprint(outcome: &apt_core::Outcome) -> Key {
    (
        outcome.verdict.answer,
        outcome.verdict.reason,
        outcome.proof.is_some(),
    )
}

/// Strategy: a random access path over the leaf-linked-tree alphabet,
/// mixing concrete steps with `+`/`*` closures.
fn path_strategy() -> BoxedStrategy<Path> {
    let component = prop_oneof![
        4 => prop::sample::select(vec!["L", "R", "N"]).prop_map(str::to_owned),
        2 => prop::sample::select(vec!["L+", "R+", "N+", "(L|R)+", "(L|R|N)+"])
            .prop_map(str::to_owned),
        1 => prop::sample::select(vec!["L*", "N*", "(L|R)*"]).prop_map(str::to_owned),
    ];
    prop::collection::vec(component, 1..4)
        .prop_map(|parts| Path::parse(&parts.join(".")).expect("generated path parses"))
        .boxed()
}

/// Strategy: one dependence query — disjointness under either origin, or
/// path equality.
fn query_strategy() -> BoxedStrategy<DepQuery> {
    (path_strategy(), path_strategy(), 0..3u8)
        .prop_map(|(a, b, kind)| match kind {
            0 => DepQuery::disjoint(&a, &b).origin(Origin::Same),
            1 => DepQuery::disjoint(&a, &b).origin(Origin::Distinct),
            _ => DepQuery::equal(&a, &b),
        })
        .boxed()
}

/// Strategy: a batch of pairwise distinct queries, more of them than
/// [`INLINE_BATCH_THRESHOLD`], so a multi-worker engine fans them out.
fn wide_batch_strategy() -> BoxedStrategy<Vec<DepQuery>> {
    let draws = INLINE_BATCH_THRESHOLD + 40..INLINE_BATCH_THRESHOLD + 80;
    prop::collection::vec((path_strategy(), path_strategy(), 0..3u8), draws)
        .prop_map(|triples| {
            let mut seen = HashSet::new();
            triples
                .into_iter()
                .filter(|t| seen.insert(t.clone()))
                .map(|(a, b, kind)| match kind {
                    0 => DepQuery::disjoint(&a, &b).origin(Origin::Same),
                    1 => DepQuery::disjoint(&a, &b).origin(Origin::Distinct),
                    _ => DepQuery::equal(&a, &b),
                })
                .collect()
        })
        .boxed()
}

fn sequential_verdicts(queries: &[DepQuery]) -> Vec<Key> {
    let axioms = apt_axioms::adds::leaf_linked_tree_axioms();
    queries
        .iter()
        .map(|q| {
            // The baseline the engine must reproduce: a fresh standalone
            // prover per query, no state shared with anything.
            let mut prover = Prover::with_config(&axioms, ProverConfig::default());
            fingerprint(&q.clone().run_with(&mut prover))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every worker count from 1 to 8 produces verdicts identical to the
    /// sequential prover, query for query.
    #[test]
    fn any_worker_count_matches_sequential_prover(
        queries in prop::collection::vec(query_strategy(), 1..8),
    ) {
        let expected = sequential_verdicts(&queries);
        for jobs in 1..=8usize {
            let engine = DepEngine::new(apt_axioms::adds::leaf_linked_tree_axioms());
            let outcomes = engine.run_batch(&queries, jobs);
            let got: Vec<Key> = outcomes.iter().map(fingerprint).collect();
            prop_assert_eq!(&got, &expected, "jobs={}", jobs);
        }
    }

    /// A cache warmed by a first batch must not change a second batch's
    /// verdicts: re-running batch 2 on the warmed engine equals running it
    /// on a fresh engine (and the sequential prover).
    #[test]
    fn warmed_cache_does_not_flip_verdicts(
        batch1 in prop::collection::vec(query_strategy(), 1..6),
        batch2 in prop::collection::vec(query_strategy(), 1..6),
    ) {
        let expected = sequential_verdicts(&batch2);
        let warmed = DepEngine::new(apt_axioms::adds::leaf_linked_tree_axioms());
        let _ = warmed.run_batch(&batch1, 2);
        let got: Vec<Key> = warmed
            .run_batch(&batch2, 2)
            .iter()
            .map(fingerprint)
            .collect();
        prop_assert_eq!(&got, &expected);
        // And the warm cache really is in play (not bypassed): stats must
        // show entries once any definite answer exists.
        let stats = warmed.cache_stats();
        let any_definite = expected.iter().any(|(a, _, _)| *a != Answer::Maybe);
        if any_definite {
            prop_assert!(
                stats.proved_goals + stats.failed_goals + stats.subset_results > 0,
                "shared cache unexpectedly empty: {:?}", stats
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Past the inline threshold the workers really run: one, two or
    /// eight of them still reproduce the sequential prover, query for
    /// query.
    #[test]
    fn worker_fan_out_matches_sequential_prover(queries in wide_batch_strategy()) {
        // Every query is distinct (no dedup shrinks the batch), so the
        // engine's unique count is the batch length.
        prop_assert!(
            queries.len() > INLINE_BATCH_THRESHOLD,
            "{} unique queries do not reach the fan-out",
            queries.len()
        );
        let expected = sequential_verdicts(&queries);
        for jobs in [1, 2, 8] {
            let engine = DepEngine::new(apt_axioms::adds::leaf_linked_tree_axioms());
            let outcomes = engine.run_batch(&queries, jobs);
            let got: Vec<Key> = outcomes.iter().map(fingerprint).collect();
            prop_assert_eq!(&got, &expected, "jobs={}", jobs);
        }
    }
}
