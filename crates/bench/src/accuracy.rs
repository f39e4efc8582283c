//! The accuracy comparison of §2.4/§3.3: APT versus the baseline testers
//! on a suite of dependence queries with known ground truth.

use apt_axioms::{adds, AxiomSet};
use apt_baselines::{AptAdapter, HendrenNicolau, KLimited, LarusHilfinger, PathDependenceTest};
use apt_core::{Answer, Origin};
use apt_regex::Path;

/// What is actually true of the two references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundTruth {
    /// The references can never overlap: the ideal answer is `No`.
    Independent,
    /// The references can (or must) overlap: `Yes`/`Maybe` are correct,
    /// `No` would be unsound.
    Dependent,
}

/// The structure family a query lives in (decides baseline configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Pure binary tree over `L`/`R`.
    BinaryTree,
    /// Leaf-linked binary tree (Figure 3) — a DAG.
    LeafLinkedTree,
    /// Acyclic singly linked list over `link`.
    List,
    /// Orthogonal-list sparse matrix (Figure 6).
    SparseMatrix,
}

/// One query of the suite.
#[derive(Debug, Clone)]
pub struct Case {
    /// Short name for the table.
    pub name: &'static str,
    /// Structure family.
    pub family: Family,
    /// First access path.
    pub a: &'static str,
    /// Second access path.
    pub b: &'static str,
    /// Origin relation of the two anchors.
    pub origin: Origin,
    /// Ground truth.
    pub truth: GroundTruth,
}

/// The query suite: the paper's motivating examples plus stress cases.
pub fn suite() -> Vec<Case> {
    use Family::*;
    use GroundTruth::*;
    vec![
        Case {
            name: "tree siblings (L.L vs L.R)",
            family: BinaryTree,
            a: "L.L",
            b: "L.R",
            origin: Origin::Same,
            truth: Independent,
        },
        Case {
            name: "deep tree (L^4 vs L^3.R)",
            family: BinaryTree,
            a: "L.L.L.L",
            b: "L.L.L.R",
            origin: Origin::Same,
            truth: Independent,
        },
        Case {
            name: "same leaf twice (L.L vs L.L)",
            family: BinaryTree,
            a: "L.L",
            b: "L.L",
            origin: Origin::Same,
            truth: Dependent,
        },
        Case {
            name: "subtrees (L.(L|R)* vs R.(L|R)*)",
            family: BinaryTree,
            a: "L.(L|R)*",
            b: "R.(L|R)*",
            origin: Origin::Same,
            truth: Independent,
        },
        Case {
            name: "paper 3.3 (L.L.N vs L.R.N)",
            family: LeafLinkedTree,
            a: "L.L.N",
            b: "L.R.N",
            origin: Origin::Same,
            truth: Independent,
        },
        Case {
            name: "leaf-chain overlap (L.L.N.N vs L.R.N)",
            family: LeafLinkedTree,
            a: "L.L.N.N",
            b: "L.R.N",
            origin: Origin::Same,
            truth: Dependent,
        },
        Case {
            name: "list iter pair (eps vs link+)",
            family: List,
            a: "eps",
            b: "link+",
            origin: Origin::Same,
            truth: Independent,
        },
        Case {
            name: "list deep pair (link^4 vs link^5)",
            family: List,
            a: "link.link.link.link",
            b: "link.link.link.link.link",
            origin: Origin::Same,
            truth: Independent,
        },
        Case {
            name: "theorem T (ncolE+ vs nrowE+.ncolE+)",
            family: SparseMatrix,
            a: "ncolE+",
            b: "nrowE+.ncolE+",
            origin: Origin::Same,
            truth: Independent,
        },
        Case {
            name: "row vs same row (ncolE+ vs ncolE+)",
            family: SparseMatrix,
            a: "ncolE+",
            b: "ncolE+",
            origin: Origin::Same,
            truth: Dependent,
        },
        Case {
            name: "distinct rows (relem.ncolE* from p<>q)",
            family: SparseMatrix,
            a: "relem.ncolE*",
            b: "relem.ncolE*",
            origin: Origin::Distinct,
            truth: Independent,
        },
    ]
}

/// Axioms for each family (what the programmer would attach to the type).
pub fn family_axioms(family: Family) -> AxiomSet {
    match family {
        Family::BinaryTree => AxiomSet::parse(
            "A1: forall p, p.L <> p.R\n\
             A2: forall p <> q, p.(L|R) <> q.(L|R)\n\
             A3: forall p, p.(L|R)+ <> p.eps",
        )
        .expect("axioms parse"),
        Family::LeafLinkedTree => adds::leaf_linked_tree_axioms(),
        Family::List => AxiomSet::parse(
            "A1: forall p <> q, p.link <> q.link\n\
             A2: forall p, p.link+ <> p.eps",
        )
        .expect("axioms parse"),
        Family::SparseMatrix => adds::sparse_matrix_axioms(),
    }
}

/// One tester's answers over the suite.
#[derive(Debug, Clone)]
pub struct TesterColumn {
    /// Tester display name.
    pub tester: String,
    /// Per-case answers, in suite order.
    pub answers: Vec<Answer>,
    /// Number of independent cases correctly disproven.
    pub correct_no: usize,
    /// Number of unsound answers (No on a dependent case).
    pub unsound: usize,
}

fn baseline_for(family: Family) -> Vec<Box<dyn PathDependenceTest>> {
    match family {
        Family::BinaryTree => vec![
            Box::new(KLimited::new(2)),
            Box::new(KLimited::new(4)),
            Box::new(LarusHilfinger::new(["L", "R"], [vec!["L", "R"]])),
            Box::new(HendrenNicolau::new(["L", "R"])),
        ],
        Family::LeafLinkedTree => vec![
            Box::new(KLimited::for_dag(2)),
            Box::new(KLimited::for_dag(4)),
            Box::new(LarusHilfinger::new(["L", "R"], [vec!["L", "R"], vec!["N"]])),
            Box::new(HendrenNicolau::new(["L", "R"])),
        ],
        Family::List => vec![
            Box::new(KLimited::new(2)),
            Box::new(KLimited::new(4)),
            Box::new(LarusHilfinger::new(["link"], [vec!["link"]])),
            Box::new(HendrenNicolau::new(["link"])),
        ],
        Family::SparseMatrix => vec![
            Box::new(KLimited::for_dag(2)),
            Box::new(KLimited::for_dag(4)),
            Box::new(LarusHilfinger::new(
                Vec::<&str>::new(),
                [
                    vec!["ncolE", "nrowE"],
                    vec!["relem", "celem"],
                    vec!["nrowH", "ncolH"],
                    vec!["rows", "cols"],
                ],
            )),
            Box::new(HendrenNicolau::new(Vec::<&str>::new())),
        ],
    }
}

/// Tester identifiers in column order: k-lim(2), k-lim(4), LH, HN, APT.
pub fn tester_names() -> Vec<String> {
    vec![
        "k-limited (k=2)".to_owned(),
        "k-limited (k=4)".to_owned(),
        "Larus-Hilfinger".to_owned(),
        "Hendren-Nicolau".to_owned(),
        "APT".to_owned(),
    ]
}

/// Runs the whole suite; returns one column per tester.
pub fn run() -> Vec<TesterColumn> {
    let cases = suite();
    let names = tester_names();
    let mut columns: Vec<TesterColumn> = names
        .iter()
        .map(|n| TesterColumn {
            tester: n.clone(),
            answers: Vec::new(),
            correct_no: 0,
            unsound: 0,
        })
        .collect();

    for case in &cases {
        let a = Path::parse(case.a).expect("path parses");
        let b = Path::parse(case.b).expect("path parses");
        let axioms = family_axioms(case.family);
        let baselines = baseline_for(case.family);
        let apt = AptAdapter::new(&axioms);

        let mut answers: Vec<Answer> = baselines
            .iter()
            .map(|t| t.test_paths(&a, &b, case.origin))
            .collect();
        answers.push(apt.test_paths(&a, &b, case.origin));

        for (col, ans) in columns.iter_mut().zip(answers) {
            col.answers.push(ans);
            match (case.truth, ans) {
                (GroundTruth::Independent, Answer::No) => col.correct_no += 1,
                (GroundTruth::Dependent, Answer::No) => col.unsound += 1,
                _ => {}
            }
        }
    }
    columns
}

/// The §2.3 claim, made concrete: on the Figure 1 list-update loop, a
/// k-limited tester separates iterations `i < j` only while `j ≤ k`,
/// while APT separates all of them. Returns rows of
/// `(i, j, k-limited answers per k, APT answer)`.
pub fn klimited_iteration_table(
    ks: &[usize],
    max_iter: usize,
) -> Vec<(usize, usize, Vec<Answer>, Answer)> {
    use apt_baselines::KLimited;
    let axioms = family_axioms(Family::List);
    let apt = AptAdapter::new(&axioms);
    let mut rows = Vec::new();
    for i in 1..=max_iter {
        let j = i + 1;
        let a = Path::fields(std::iter::repeat_n("link", i));
        let b = Path::fields(std::iter::repeat_n("link", j));
        let kl: Vec<Answer> = ks
            .iter()
            .map(|&k| KLimited::new(k).test_paths(&a, &b, Origin::Same))
            .collect();
        let apt_ans = apt.test_paths(&a, &b, Origin::Same);
        rows.push((i, j, kl, apt_ans));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_consistent() {
        for case in suite() {
            assert!(Path::parse(case.a).is_ok(), "{}", case.name);
            assert!(Path::parse(case.b).is_ok(), "{}", case.name);
        }
    }

    #[test]
    fn suite_paths_parse_as_the_regex_route_does() {
        for case in suite() {
            for text in [case.a, case.b] {
                let re = apt_regex::parse(text).expect("the suite's paths parse");
                assert_eq!(
                    Path::parse(text),
                    Ok(Path::try_from(&re).expect("a path")),
                    "{}: {text}",
                    case.name
                );
            }
        }
    }

    #[test]
    fn no_tester_is_unsound_on_the_suite() {
        for col in run() {
            assert_eq!(
                col.unsound, 0,
                "{} answered No on a dependent case",
                col.tester
            );
        }
    }

    #[test]
    fn apt_dominates_every_baseline() {
        let columns = run();
        let apt = columns.last().expect("APT column");
        let independent_total = suite()
            .iter()
            .filter(|c| c.truth == GroundTruth::Independent)
            .count();
        // APT breaks every false dependence in the suite.
        assert_eq!(
            apt.correct_no, independent_total,
            "APT answers: {:?}",
            apt.answers
        );
        for col in &columns[..columns.len() - 1] {
            assert!(col.correct_no <= apt.correct_no, "{} beat APT?", col.tester);
        }
    }

    #[test]
    fn klimited_separates_only_the_first_k_iterations() {
        let rows = klimited_iteration_table(&[2, 4], 6);
        for (i, j, kl, apt) in rows {
            assert_eq!(apt, Answer::No, "APT separates iterations {i},{j}");
            // k-limited works iff the deeper path stays within k.
            assert_eq!(kl[0] == Answer::No, j <= 2, "k=2 at ({i},{j})");
            assert_eq!(kl[1] == Answer::No, j <= 4, "k=4 at ({i},{j})");
        }
    }

    #[test]
    fn paper_ordering_holds_on_flagship_cases() {
        let cases = suite();
        let columns = run();
        let idx = |name: &str| cases.iter().position(|c| c.name.starts_with(name)).unwrap();
        let col = |tester: &str| {
            columns
                .iter()
                .find(|c| c.tester.starts_with(tester))
                .unwrap()
        };

        // §3.3: only APT breaks the leaf-linked dependence.
        let i = idx("paper 3.3");
        assert_eq!(col("APT").answers[i], Answer::No);
        assert_eq!(col("Larus").answers[i], Answer::Maybe);
        assert_eq!(col("Hendren").answers[i], Answer::Maybe);
        assert_eq!(col("k-limited (k=4)").answers[i], Answer::Maybe);

        // §5: only APT proves Theorem T.
        let i = idx("theorem T");
        assert_eq!(col("APT").answers[i], Answer::No);
        assert_eq!(col("Larus").answers[i], Answer::Maybe);

        // k-limited catches shallow queries but not deep ones.
        let shallow = idx("tree siblings");
        let deep = idx("deep tree");
        assert_eq!(col("k-limited (k=2)").answers[shallow], Answer::No);
        assert_eq!(col("k-limited (k=2)").answers[deep], Answer::Maybe);
        assert_eq!(col("k-limited (k=4)").answers[deep], Answer::No);
    }
}
