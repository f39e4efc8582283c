//! §5 and Appendix A as integration tests: Theorem T under both axiom
//! sets, the Appendix A axioms against real orthogonal-list matrices
//! (before and after factorization), the §5 access-path derivation
//! through the full IR pipeline, and the Figure 7 query family run
//! through every execution strategy that must agree on it.

use std::collections::HashSet;

use apt_axioms::{adds, check::check_set};
use apt_core::{
    Answer, DepEngine, DepQuery, MaybeReason, Origin, Outcome, Portfolio, PortfolioConfig, Prover,
    ProverConfig, QueryKind, INLINE_BATCH_THRESHOLD,
};
use apt_heaps::gen::random_sparse_matrix;
use apt_heaps::numeric::{factor, LoopClassification};
use apt_paths::analyze_proc;
use apt_regex::{ops, DfaCache, Limits, Path, RegexId};

fn theorem_t_paths() -> (Path, Path) {
    (
        Path::parse("ncolE+").expect("path"),
        Path::parse("nrowE+.ncolE+").expect("path"),
    )
}

#[test]
fn theorem_t_from_minimal_axioms() {
    let axioms = adds::sparse_matrix_minimal_axioms();
    let mut prover = Prover::new(&axioms);
    let (a, b) = theorem_t_paths();
    let proof = DepQuery::disjoint(&a, &b)
        .origin(Origin::Same)
        .run_with(&mut prover)
        .proof
        .expect("Theorem T");
    // The paper: "there are four initial cases since each access path ends
    // in '+', and many of these contain multiple sub-cases" — the proof is
    // certainly not a one-liner.
    assert!(proof.node_count() >= 4, "suspiciously small: {proof}");
    // All three §5 axioms participate.
    let used = proof.axioms_used();
    assert_eq!(used.len(), 3, "uses {used:?}");
}

#[test]
fn theorem_t_from_appendix_a() {
    let axioms = adds::sparse_matrix_axioms();
    let mut prover = Prover::new(&axioms);
    let (a, b) = theorem_t_paths();
    assert!(DepQuery::disjoint(&a, &b)
        .origin(Origin::Same)
        .run_with(&mut prover)
        .proof
        .is_some());
}

#[test]
fn theorem_t_fails_without_each_key_axiom() {
    // Drop each of the three §5 axioms in turn: the proof must disappear
    // (each is load-bearing).
    let all = [
        "A1: forall p <> q, p.ncolE <> q.ncolE",
        "A2: forall p, p.ncolE+ <> p.nrowE+",
        "A3: forall p, p.(ncolE|nrowE)+ <> p.eps",
    ];
    let (a, b) = theorem_t_paths();
    for drop in 0..3 {
        let text: Vec<&str> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, s)| *s)
            .collect();
        let axioms = apt_axioms::AxiomSet::parse(&text.join("\n")).expect("parses");
        let mut prover = Prover::new(&axioms);
        assert!(
            DepQuery::disjoint(&a, &b)
                .origin(Origin::Same)
                .run_with(&mut prover)
                .proof
                .is_none(),
            "dropping axiom {} should break the proof",
            drop + 1
        );
    }
}

#[test]
fn single_theorem_axiom_also_suffices() {
    // "note that a single axiom along the lines of Theorem T will also
    // suffice" (§5).
    let axioms =
        apt_axioms::AxiomSet::parse("T: forall p, p.ncolE+ <> p.nrowE+.ncolE+").expect("parses");
    let mut prover = Prover::new(&axioms);
    let (a, b) = theorem_t_paths();
    let proof = DepQuery::disjoint(&a, &b)
        .origin(Origin::Same)
        .run_with(&mut prover)
        .proof
        .expect("direct");
    assert_eq!(proof.axioms_used(), vec!["T".to_owned()]);
}

#[test]
fn appendix_a_axioms_hold_on_matrices_of_many_shapes() {
    let axioms = adds::sparse_matrix_axioms();
    for (n, extra, seed) in [(2, 0, 0), (4, 3, 1), (6, 10, 2), (8, 20, 3), (10, 35, 4)] {
        let m = random_sparse_matrix(n, extra, seed);
        let (g, _) = m.heap_graph();
        assert_eq!(check_set(&g, &axioms), Ok(()), "n={n} extra={extra}");
    }
}

#[test]
fn appendix_a_axioms_survive_factorization() {
    // Fillin insertion is a structural modification — but one that
    // *preserves* the sparse-matrix invariants, which is exactly why the
    // full analysis may re-validate the axioms after it (§3.4).
    let axioms = adds::sparse_matrix_axioms();
    for seed in 0..5 {
        let mut m = random_sparse_matrix(7, 12, seed);
        let before = m.nnz();
        let res = factor(&mut m, LoopClassification::sequential());
        let (g, _) = m.heap_graph();
        assert_eq!(check_set(&g, &axioms), Ok(()), "seed {seed}");
        assert_eq!(m.nnz(), before + res.fillins);
    }
}

#[test]
fn section_5_paths_derived_by_the_analysis() {
    // The paper derives iteration-i and iteration-j access paths
    // hr.ncolE(ncolE)* and hr.(nrowE)+ncolE(ncolE)* for the L1 loop; the
    // APM analysis must produce those shapes from the IR program alone.
    let src = r"
        type Elem {
            ptr nrowE: Elem;
            ptr ncolE: Elem;
            data val;
            axiom A1: forall p <> q, p.ncolE <> q.ncolE;
            axiom A2: forall p, p.ncolE+ <> p.nrowE+;
            axiom A3: forall p, p.(ncolE|nrowE)+ <> p.eps;
        }
        proc factor_sweep(sub: Elem) {
            r = sub;
        L1: loop {
                e = r->ncolE;
            L2: loop {
                S:  e->val = fun();
                    e = e->ncolE;
                }
                r = r->nrowE;
            }
        }";
    let program = apt_ir::parse_program(src).expect("parses");
    let analysis = analyze_proc(&program, "factor_sweep").expect("analyzes");
    let (ri, rj) = analysis.loop_carried_pair("S", Some("L1")).expect("pair");
    assert_eq!(ri.access.path.to_string(), "ncolE.ncolE*");
    assert_eq!(rj.access.path.to_string(), "nrowE+.ncolE.ncolE*");
    assert_eq!(
        analysis
            .test_loop_carried("S", Some("L1"))
            .expect("query")
            .answer,
        Answer::No
    );
    // Inner loop too.
    assert_eq!(
        analysis
            .test_loop_carried("S", Some("L2"))
            .expect("query")
            .answer,
        Answer::No
    );
}

#[test]
fn factorization_correctness_across_sizes() {
    // End to end: factor + solve on random circuit-like systems matches
    // the dense reference.
    use apt_heaps::dense::solve_dense;
    use apt_heaps::numeric::solve;
    for (n, seed) in [(10, 0), (20, 1), (30, 2), (50, 3)] {
        let m0 = random_sparse_matrix(n, 4 * n, seed);
        let dense = m0.to_dense();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        let expect = solve_dense(&dense, &b).expect("regular");
        let mut m = m0.clone();
        let fr = factor(&mut m, LoopClassification::full());
        let (x, _) = solve(&m, &fr.pivots, &b, LoopClassification::full());
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((xi - ei).abs() < 1e-6, "n={n} seed={seed}");
        }
    }
}

fn chain(field: &str, n: usize) -> String {
    vec![field; n].join(".")
}

fn path(text: &str) -> Path {
    Path::parse(text).expect("suite path parses")
}

/// The Figure 7 query family over the Appendix A axioms, `2·depth² +
/// depth` queries: Theorem T instances (`ncolE^i <> nrowE^j.ncolE+`),
/// the loop-carried row walk (`ncolE^i <> ncolE+.ncolE^j`), and the
/// `ncolE^i = nrowE^i` equality probes the analysis asks at loop heads,
/// which no axiom settles.
fn figure7_suite(depth: usize) -> Vec<DepQuery> {
    let mut suite = Vec::new();
    for i in 1..=depth {
        let row = path(&chain("ncolE", i));
        for j in 1..=depth {
            let later_row = path(&format!("{}.ncolE+", chain("nrowE", j)));
            suite.push(DepQuery::disjoint(&row, &later_row).origin(Origin::Same));
            let later_walk = path(&format!("ncolE+.{}", chain("ncolE", j)));
            suite.push(DepQuery::disjoint(&row, &later_walk).origin(Origin::Same));
        }
        suite.push(DepQuery::equal(&row, &path(&chain("nrowE", i))));
    }
    suite
}

/// What must agree across execution strategies: answer, degradation
/// reason, and whether a proof came with it.
type VerdictKey = (Answer, Option<MaybeReason>, bool);

fn fingerprint(outcome: &Outcome) -> VerdictKey {
    (
        outcome.verdict.answer,
        outcome.verdict.reason,
        outcome.proof.is_some(),
    )
}

#[test]
fn figure7_batches_match_a_fresh_prover_per_query() {
    // Depth 8 gives 136 queries: past the threshold below which a batch
    // runs inline whatever `jobs` asks, so `jobs = 4` really fans out.
    let axioms = adds::sparse_matrix_axioms();
    let suite = figure7_suite(8);
    assert!(
        suite.len() > INLINE_BATCH_THRESHOLD,
        "{} queries",
        suite.len()
    );
    let expected: Vec<VerdictKey> = suite
        .iter()
        .map(|q| fingerprint(&q.run_with(&mut Prover::new(&axioms))))
        .collect();
    for jobs in [1, 4] {
        let engine = DepEngine::new(axioms.clone());
        let got: Vec<VerdictKey> = engine
            .run_batch(&suite, jobs)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(got, expected, "jobs={jobs}");
    }
}

#[test]
fn figure7_indexed_search_matches_the_linear_scan() {
    // With the dispatch index and the negative memo off, the prover is
    // the literal §4.2 search that tries every axiom. The index may only
    // skip work whose outcome is already decided.
    let axioms = adds::sparse_matrix_axioms();
    let suite = figure7_suite(6);
    let run = |config: ProverConfig| {
        let mut prover = Prover::with_config(&axioms, config);
        let keys: Vec<VerdictKey> = suite
            .iter()
            .map(|q| fingerprint(&q.run_with(&mut prover)))
            .collect();
        (keys, prover.stats())
    };
    let (linear, linear_stats) = run(ProverConfig {
        enable_axiom_dispatch: false,
        enable_negative_memo: false,
        ..ProverConfig::default()
    });
    let (indexed, indexed_stats) = run(ProverConfig::default());
    assert_eq!(indexed, linear);
    assert!(indexed_stats.dispatch_misses > 0, "{indexed_stats:?}");
    assert!(
        indexed_stats.subset_checks <= linear_stats.subset_checks,
        "indexed {} vs linear {} subset checks",
        indexed_stats.subset_checks,
        linear_stats.subset_checks
    );
}

#[test]
fn figure7_subset_pairs_agree_with_the_materializing_kernel() {
    // Every distinct (query side, axiom side) pair the suite can pose to
    // the Appendix A and §5-minimal sets: the prover's interned kernel
    // with its DFA cache against the materializing reference.
    let mut axiom_sides = Vec::new();
    for set in [
        adds::sparse_matrix_axioms(),
        adds::sparse_matrix_minimal_axioms(),
    ] {
        for axiom in set.iter() {
            axiom_sides.push((axiom.lhs_id(), axiom.lhs().clone()));
            axiom_sides.push((axiom.rhs_id(), axiom.rhs().clone()));
        }
    }
    let dfas = DfaCache::new();
    let unbounded = Limits::none();
    let mut pairs = HashSet::new();
    for query in figure7_suite(6) {
        for side in [query.a(), query.b()] {
            let re = side.to_regex();
            let id = RegexId::intern(&re);
            for (axiom_id, axiom_re) in &axiom_sides {
                if !pairs.insert((id, *axiom_id)) {
                    continue;
                }
                let interned = ops::try_is_subset_interned(
                    id,
                    &re,
                    *axiom_id,
                    axiom_re,
                    &unbounded,
                    Some(&dfas),
                );
                let reference = ops::try_is_subset_materializing(&re, axiom_re, &unbounded);
                assert_eq!(
                    interned.expect("unbounded"),
                    reference.expect("unbounded"),
                    "{re} ⊆ {axiom_re}"
                );
            }
        }
    }
    assert_eq!(pairs.len(), 408);
}

#[test]
fn figure7_portfolio_settles_every_overlap_with_a_valid_witness() {
    // Figure 7's disjointness queries, which the prover proves, plus
    // paths that really collide (a row walk against itself and against
    // `ncolE+`), which it can only leave Maybe. The refuter settles every
    // one of those with a witness heap, and no definite answer moves.
    let axioms = adds::sparse_matrix_axioms();
    let mut suite: Vec<DepQuery> = figure7_suite(6)
        .into_iter()
        .filter(|q| q.kind() == QueryKind::Disjoint)
        .collect();
    for i in 1..=6 {
        let row = path(&chain("ncolE", i));
        suite.push(DepQuery::disjoint(&row, &row).origin(Origin::Same));
        suite.push(DepQuery::disjoint(&row, &path("ncolE+")).origin(Origin::Same));
    }
    let solo = DepEngine::new(axioms.clone());
    let portfolio = Portfolio::new(DepEngine::new(axioms.clone()), PortfolioConfig::default());
    let mut axiomatic = Vec::new();
    let mut staged = Vec::new();
    let mut witnesses = 0;
    for q in &suite {
        let base = solo.run(q).verdict.answer;
        let out = portfolio.run(q);
        if base != Answer::Maybe {
            assert_eq!(out.verdict.answer, base, "{q:?}");
        }
        if let Some(witness) = &out.witness {
            witness
                .validate(&axioms, q.origin_relation(), q.a(), q.b())
                .unwrap_or_else(|e| panic!("{q:?}: witness rejected: {e}"));
            witnesses += 1;
        }
        axiomatic.push(base);
        staged.push(out.verdict.answer);
    }
    let columns = |answers: &[Answer]| {
        [Answer::No, Answer::Yes, Answer::Maybe]
            .map(|a| answers.iter().filter(|&&x| x == a).count())
    };
    assert_eq!(columns(&axiomatic), [57, 0, 27], "axiomatic No/Yes/Maybe");
    assert_eq!(columns(&staged), [57, 27, 0], "portfolio No/Yes/Maybe");
    assert_eq!(witnesses, 27);
}
