//! The §4.2 complexity study: prover cost as a function of path length.
//!
//! The paper argues the worst case is exponential but that in practice
//! paths are short and simple, making the test "O(n⁴) time and O(n²)
//! space" with the RE→DFA conversion dominating. This module measures
//! prover work counters and wall time for provable queries whose combined
//! component count `n` grows.

use apt_core::{DepQuery, Origin, Prover, ProverStats};
use apt_regex::Path;
use std::time::Instant;

/// One measurement point.
#[derive(Debug, Clone)]
pub struct ComplexityPoint {
    /// Combined component count of the two paths.
    pub n: usize,
    /// Whether the proof was found (all suite queries are provable).
    pub proven: bool,
    /// Wall time in microseconds.
    pub micros: u128,
    /// Prover counters.
    pub stats: ProverStats,
}

/// Builds the query pair for size `n` (`n ≥ 4`): on the Figure 3
/// leaf-linked tree, `L^k.N^m` vs `L^(k-1).R.N^m` with `k+m = n` —
/// provable for every size by tail/head peeling, like the paper's §3.3
/// example scaled up.
pub fn query_for(n: usize) -> (Path, Path) {
    assert!(n >= 4, "query needs at least 4 components");
    let k = n / 2;
    let m = n - k;
    let mut a = vec!["L"; k];
    a.extend(std::iter::repeat_n("N", m));
    let mut b = vec!["L"; k - 1];
    b.push("R");
    b.extend(std::iter::repeat_n("N", m));
    (Path::fields(a), Path::fields(b))
}

/// Runs the measurement at the given sizes (a fresh prover per point, so
/// cache effects do not leak across sizes). One untimed query at the
/// smallest size goes first, so the first point does not also time the
/// process's one-time set-up.
pub fn run(sizes: &[usize]) -> Vec<ComplexityPoint> {
    let axioms = apt_axioms::adds::leaf_linked_tree_axioms();
    if let Some(&n) = sizes.iter().min() {
        let (a, b) = query_for(n);
        let _ = DepQuery::disjoint(&a, &b)
            .origin(Origin::Same)
            .run_with(&mut Prover::new(&axioms));
    }
    sizes
        .iter()
        .map(|&n| {
            let (a, b) = query_for(n);
            let mut prover = Prover::new(&axioms);
            let start = Instant::now();
            let proof = DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut prover)
                .proof;
            let micros = start.elapsed().as_micros();
            ComplexityPoint {
                n,
                proven: proof.is_some(),
                micros,
                stats: prover.stats(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_provable_at_all_sizes() {
        for point in run(&[4, 8, 12, 16]) {
            assert!(point.proven, "n={} must be provable", point.n);
            assert!(point.stats.goals_attempted > 0);
        }
    }

    #[test]
    fn work_grows_polynomially_not_exponentially() {
        // Goal attempts are the work metric here: with the compiled
        // dispatch index, subset checks on this suite prune to zero (every
        // peel resolves through the compile-time injectivity map), which
        // would make a subset-check ratio 0/0.
        let points = run(&[8, 16, 32]);
        let w: Vec<f64> = points
            .iter()
            .map(|p| p.stats.goals_attempted.max(1) as f64)
            .collect();
        // Doubling n should multiply work by far less than 2^n would; allow
        // a generous polynomial envelope (×32 ≈ n^5) but reject exponential
        // blowup.
        assert!(
            w[1] / w[0] < 32.0 && w[2] / w[1] < 32.0,
            "goal attempts grew too fast: {w:?}"
        );
    }

    #[test]
    fn the_suite_builds_no_dfa() {
        // Dispatch settles every peel of this family, so no query reaches
        // a subset check and no DFA is built: the §4.2 claim that RE→DFA
        // conversion dominates is not what this table measures.
        let axioms = apt_axioms::adds::leaf_linked_tree_axioms();
        for n in [4, 16, 64] {
            let (a, b) = query_for(n);
            let engine = apt_core::DepEngine::new(axioms.clone());
            let outcome = engine.run(&DepQuery::disjoint(&a, &b).origin(Origin::Same));
            assert!(outcome.proof.is_some(), "n={n}");
            assert_eq!(outcome.stats.subset_checks, 0, "n={n}");
            assert_eq!(engine.cache_stats().dfas, 0, "n={n}");
        }
    }

    #[test]
    fn query_shape() {
        let (a, b) = query_for(6);
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 6);
        assert_ne!(a, b);
    }
}
