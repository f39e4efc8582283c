//! An independent proof checker.
//!
//! [`check_proof`] re-validates every rule application of a [`Proof`]
//! against the axiom set, without re-running the search: each node's side
//! conditions (subset tests, injectivity, split consistency, induction
//! guardedness) are verified directly. The prover *finds* derivations;
//! the checker makes "machine-checkable proof" literal — and the tests
//! run every produced proof through it, so a prover bug cannot hide
//! behind its own bookkeeping.

use crate::goal::{Goal, Origin};
use crate::proof::{PrefixCase, Proof, Rule};
use crate::prover::{
    runs_can_be_equal, runs_can_exceed, strip_leading_run, strip_trailing_run, unfold_last_plus,
};
use apt_axioms::{Axiom, AxiomKind, AxiomSet};
use apt_regex::{ops, Component, Path, Regex};
use std::error::Error;
use std::fmt;

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofError {
    /// Rendering of the goal whose node failed.
    pub goal: String,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid proof at [{}]: {}", self.goal, self.message)
    }
}

impl Error for ProofError {}

fn err(goal: &Goal, message: impl Into<String>) -> ProofError {
    ProofError {
        goal: goal.to_string(),
        message: message.into(),
    }
}

/// One ancestor frame on the checking path, for induction validation.
#[derive(Debug, Clone)]
struct Frame {
    goal: String,
    shrinks: usize,
    rewrites: usize,
}

/// Verifies that `proof` is a valid derivation of its root goal from
/// `axioms`.
///
/// # Errors
///
/// Returns the first invalid node found.
pub fn check_proof(axioms: &AxiomSet, proof: &Proof) -> Result<(), ProofError> {
    let mut stack = Vec::new();
    check_node(axioms, proof, &mut stack, 0, 0)
}

/// Looks up an axiom by the label the proof cites.
fn axiom_by_label<'a>(axioms: &'a AxiomSet, label: &str) -> Option<&'a Axiom> {
    axioms
        .iter()
        .find(|a| a.label() == label || a.name() == Some(label))
}

/// Checks that `axiom` (of the form matching `origin`) covers the two path
/// languages, possibly swapped.
fn axiom_covers(axiom: &Axiom, origin: Origin, a: &Regex, b: &Regex, swapped: bool) -> bool {
    let expected_kind = match origin {
        Origin::Same => AxiomKind::DisjointSameOrigin,
        Origin::Distinct => AxiomKind::DisjointDistinctOrigins,
    };
    if axiom.kind() != expected_kind {
        return false;
    }
    let (lhs, rhs) = if swapped {
        (axiom.rhs(), axiom.lhs())
    } else {
        (axiom.lhs(), axiom.rhs())
    };
    ops::is_subset(a, lhs) && ops::is_subset(b, rhs)
}

/// Whether two goals are equal up to the canonical path order.
fn same_goal(a: &Goal, b: &Goal) -> bool {
    a == b
}

/// An injectivity axiom for `f`: `∀p<>q, p.f <> q.f` up to language
/// equality.
fn is_injectivity(axiom: &Axiom, f: apt_regex::Symbol) -> bool {
    let fre = Regex::field(f);
    axiom.kind() == AxiomKind::DisjointDistinctOrigins
        && ops::equivalent(axiom.lhs(), &fre)
        && ops::equivalent(axiom.rhs(), &fre)
}

fn check_node(
    axioms: &AxiomSet,
    node: &Proof,
    stack: &mut Vec<Frame>,
    shrinks: usize,
    rewrites: usize,
) -> Result<(), ProofError> {
    let goal = &node.goal;
    // Push the current frame; children see it as an ancestor.
    stack.push(Frame {
        goal: goal.to_string(),
        shrinks,
        rewrites,
    });
    let result = check_rule(axioms, node, stack, shrinks, rewrites);
    stack.pop();
    result
}

#[allow(clippy::too_many_lines)]
fn check_rule(
    axioms: &AxiomSet,
    node: &Proof,
    stack: &mut Vec<Frame>,
    shrinks: usize,
    rewrites: usize,
) -> Result<(), ProofError> {
    let goal = &node.goal;
    let children = &node.children;
    let expect_children = |n: usize| -> Result<(), ProofError> {
        if children.len() == n {
            Ok(())
        } else {
            Err(err(
                goal,
                format!("expected {n} premises, found {}", children.len()),
            ))
        }
    };
    // Checks one child both exists, proves the expected goal, and is
    // itself valid.
    let check_child = |idx: usize,
                       expected: &Goal,
                       stack: &mut Vec<Frame>,
                       shrinks: usize|
     -> Result<(), ProofError> {
        let child = children
            .get(idx)
            .ok_or_else(|| err(goal, format!("missing premise {idx}")))?;
        if !same_goal(&child.goal, expected) {
            return Err(err(
                goal,
                format!(
                    "premise {idx} proves [{}], expected [{expected}]",
                    child.goal
                ),
            ));
        }
        check_node(axioms, child, stack, shrinks, rewrites)
    };

    match &node.rule {
        Rule::Axiom { axiom, swapped } => {
            expect_children(0)?;
            let ax = axiom_by_label(axioms, axiom)
                .ok_or_else(|| err(goal, format!("cites unknown axiom {axiom:?}")))?;
            let a = goal.a().to_regex();
            let b = goal.b().to_regex();
            // The canonical goal order may not match the axiom's side
            // order, so accept either orientation regardless of the
            // recorded `swapped` flag — the flag is a display hint.
            if !axiom_covers(ax, goal.origin(), &a, &b, *swapped)
                && !axiom_covers(ax, goal.origin(), &a, &b, !*swapped)
            {
                return Err(err(goal, format!("axiom {axiom} does not cover the goal")));
            }
            Ok(())
        }
        Rule::TrivialDistinctEpsilon => {
            expect_children(0)?;
            if goal.origin() == Origin::Distinct && goal.a().is_epsilon() && goal.b().is_epsilon() {
                Ok(())
            } else {
                Err(err(
                    goal,
                    "trivial rule applies only to ε <> ε with distinct origins",
                ))
            }
        }
        Rule::HeadPeel { field } => {
            expect_children(1)?;
            if goal.origin() != Origin::Same {
                return Err(err(
                    goal,
                    "head peel without injectivity needs a common origin",
                ));
            }
            let (ha, ta) = goal
                .a()
                .split_first()
                .ok_or_else(|| err(goal, "left path has no head"))?;
            let (hb, tb) = goal
                .b()
                .split_first()
                .ok_or_else(|| err(goal, "right path has no head"))?;
            match (ha, hb) {
                (Component::Field(fa), Component::Field(fb))
                    if fa == fb && fa.as_str() == field =>
                {
                    check_child(0, &Goal::new(Origin::Same, ta, tb), stack, shrinks + 1)
                }
                _ => Err(err(goal, "paths do not share the recorded head field")),
            }
        }
        Rule::HeadPeelInjective { field, axiom } => {
            expect_children(1)?;
            if goal.origin() != Origin::Distinct {
                return Err(err(goal, "injective head peel applies to distinct origins"));
            }
            let (ha, ta) = goal
                .a()
                .split_first()
                .ok_or_else(|| err(goal, "left path has no head"))?;
            let (hb, tb) = goal
                .b()
                .split_first()
                .ok_or_else(|| err(goal, "right path has no head"))?;
            let (Component::Field(fa), Component::Field(fb)) = (ha, hb) else {
                return Err(err(goal, "heads are not plain fields"));
            };
            if fa != fb || fa.as_str() != field {
                return Err(err(goal, "paths do not share the recorded head field"));
            }
            let ax = axiom_by_label(axioms, axiom)
                .ok_or_else(|| err(goal, format!("cites unknown axiom {axiom:?}")))?;
            if !is_injectivity(ax, *fa) {
                return Err(err(
                    goal,
                    format!("axiom {axiom} is not injectivity of {field}"),
                ));
            }
            check_child(0, &Goal::new(Origin::Distinct, ta, tb), stack, shrinks + 1)
        }
        Rule::HeadPeelCases { field } => {
            expect_children(2)?;
            let (ha, ta) = goal
                .a()
                .split_first()
                .ok_or_else(|| err(goal, "left path has no head"))?;
            let (hb, tb) = goal
                .b()
                .split_first()
                .ok_or_else(|| err(goal, "right path has no head"))?;
            let (Component::Field(fa), Component::Field(fb)) = (ha, hb) else {
                return Err(err(goal, "heads are not plain fields"));
            };
            if fa != fb || fa.as_str() != field {
                return Err(err(goal, "paths do not share the recorded head field"));
            }
            check_child(
                0,
                &Goal::new(Origin::Distinct, ta.clone(), tb.clone()),
                stack,
                shrinks + 1,
            )?;
            check_child(1, &Goal::new(Origin::Same, ta, tb), stack, shrinks + 1)
        }
        Rule::TailPeel { field, axiom } => {
            expect_children(1)?;
            let (ia, ta) = goal
                .a()
                .split_last()
                .ok_or_else(|| err(goal, "left path has no tail"))?;
            let (ib, tb) = goal
                .b()
                .split_last()
                .ok_or_else(|| err(goal, "right path has no tail"))?;
            let (Component::Field(fa), Component::Field(fb)) = (ta, tb) else {
                return Err(err(goal, "tails are not plain fields"));
            };
            if fa != fb || fa.as_str() != field {
                return Err(err(goal, "paths do not share the recorded tail field"));
            }
            let ax = axiom_by_label(axioms, axiom)
                .ok_or_else(|| err(goal, format!("cites unknown axiom {axiom:?}")))?;
            if !is_injectivity(ax, *fa) {
                return Err(err(
                    goal,
                    format!("axiom {axiom} is not injectivity of {field}"),
                ));
            }
            check_child(0, &Goal::new(goal.origin(), ia, ib), stack, shrinks + 1)
        }
        Rule::ClosureTailPeel { field, axiom } => {
            let f = apt_regex::Symbol::intern(field);
            let (base_a, fa, min_a, ub_a) = strip_trailing_run(goal.a())
                .ok_or_else(|| err(goal, "left path has no trailing run"))?;
            let (base_b, fb, min_b, ub_b) = strip_trailing_run(goal.b())
                .ok_or_else(|| err(goal, "right path has no trailing run"))?;
            if fa != f || fb != f {
                return Err(err(goal, "trailing runs are not over the recorded field"));
            }
            let ax = axiom_by_label(axioms, axiom)
                .ok_or_else(|| err(goal, format!("cites unknown axiom {axiom:?}")))?;
            if !is_injectivity(ax, f) {
                return Err(err(
                    goal,
                    format!("axiom {axiom} is not injectivity of {field}"),
                ));
            }
            let with_plus = |base: &Path| {
                let mut p = base.clone();
                p.push(Component::Plus(Path::fields([field.as_str()])));
                p
            };
            let mut expected = Vec::new();
            if runs_can_be_equal(min_a, ub_a, min_b, ub_b) {
                expected.push((
                    Goal::new(goal.origin(), base_a.clone(), base_b.clone()),
                    min_a.max(min_b) >= 1,
                ));
            }
            if runs_can_exceed(min_a, ub_a, min_b, ub_b) {
                expected.push((
                    Goal::new(goal.origin(), with_plus(&base_a), base_b.clone()),
                    min_b >= 1,
                ));
            }
            if runs_can_exceed(min_b, ub_b, min_a, ub_a) {
                expected.push((
                    Goal::new(goal.origin(), base_a.clone(), with_plus(&base_b)),
                    min_a >= 1,
                ));
            }
            expect_children(expected.len())?;
            // Only guaranteed peels advance the induction measure (same
            // condition as the prover).
            for (i, (e, strict)) in expected.iter().enumerate() {
                check_child(i, e, stack, shrinks + usize::from(*strict))?;
            }
            Ok(())
        }
        Rule::ClosureHeadPeel { field } => {
            let f = apt_regex::Symbol::intern(field);
            let (base_a, fa, min_a, ub_a) = strip_leading_run(goal.a())
                .ok_or_else(|| err(goal, "left path has no leading run"))?;
            let (base_b, fb, min_b, ub_b) = strip_leading_run(goal.b())
                .ok_or_else(|| err(goal, "right path has no leading run"))?;
            if fa != f || fb != f {
                return Err(err(goal, "leading runs are not over the recorded field"));
            }
            // For distinct origins the peel additionally needs injectivity
            // of the run field.
            if goal.origin() == Origin::Distinct && !axioms.iter().any(|ax| is_injectivity(ax, f)) {
                return Err(err(
                    goal,
                    format!("distinct-origin head-run peel needs injectivity of {field}"),
                ));
            }
            let plus = |base: &Path| {
                let mut p = Path::new(vec![Component::Plus(Path::fields([field.as_str()]))]);
                p = p.concat(base);
                p
            };
            let mut expected = Vec::new();
            if runs_can_be_equal(min_a, ub_a, min_b, ub_b) {
                expected.push((
                    Goal::new(goal.origin(), base_a.clone(), base_b.clone()),
                    min_a.max(min_b) >= 1,
                ));
            }
            if runs_can_exceed(min_a, ub_a, min_b, ub_b) {
                expected.push((
                    Goal::new(goal.origin(), plus(&base_a), base_b.clone()),
                    min_b >= 1,
                ));
            }
            if runs_can_exceed(min_b, ub_b, min_a, ub_a) {
                expected.push((
                    Goal::new(goal.origin(), base_a.clone(), plus(&base_b)),
                    min_a >= 1,
                ));
            }
            expect_children(expected.len())?;
            for (i, (e, strict)) in expected.iter().enumerate() {
                check_child(i, e, stack, shrinks + usize::from(*strict))?;
            }
            Ok(())
        }
        Rule::Decompose { prefix_case, .. } => {
            // Recover the split from the premises (their goals carry the
            // actual suffix/prefix paths) and re-verify it against every
            // admissible split of the parent paths.
            let first = children
                .first()
                .ok_or_else(|| err(goal, "decompose needs at least one premise"))?;
            let (sa, sb) = (first.goal.a().clone(), first.goal.b().clone());
            let find_split = |path: &Path, suffix: &Path| -> Option<Path> {
                let mut variants = vec![path.clone()];
                if let Some(v) = unfold_last_plus(path) {
                    variants.push(v);
                }
                for v in variants {
                    for i in 0..=v.len() {
                        let s = v.suffix(i);
                        // The suffix goal canonicalizes order, so match
                        // either side.
                        if &s == suffix {
                            return Some(v.prefix(i));
                        }
                    }
                }
                None
            };
            // Suffix goals are canonicalized, so (sa, sb) may correspond to
            // (a, b) or (b, a); try both assignments.
            let assignments = [
                (find_split(goal.a(), &sa), find_split(goal.b(), &sb), false),
                (find_split(goal.a(), &sb), find_split(goal.b(), &sa), true),
            ];
            let (pa, pb, swapped) = assignments
                .iter()
                .find_map(|(x, y, sw)| match (x, y) {
                    (Some(x), Some(y)) => Some((x.clone(), y.clone(), *sw)),
                    _ => None,
                })
                .ok_or_else(|| err(goal, "premise suffixes are not suffixes of the goal paths"))?;
            let (sa, sb) = if swapped { (sb, sa) } else { (sa, sb) };
            if pa.len() + sa.len() == 0 || pb.len() + sb.len() == 0 {
                // (cannot happen: paths reconstruct fully)
            }
            if sa.is_epsilon() && sb.is_epsilon() {
                return Err(err(goal, "decompose must peel a non-empty suffix"));
            }
            match prefix_case {
                PrefixCase::BothOrigins => {
                    expect_children(2)?;
                    check_child(
                        0,
                        &Goal::new(Origin::Same, sa.clone(), sb.clone()),
                        stack,
                        shrinks,
                    )?;
                    check_child(1, &Goal::new(Origin::Distinct, sa, sb), stack, shrinks)
                }
                PrefixCase::PrefixesEqual => {
                    expect_children(1)?;
                    if goal.origin() != Origin::Same {
                        return Err(err(goal, "prefix-equality requires a common root"));
                    }
                    if !(pa == pb && pa.is_definite()) {
                        return Err(err(goal, "prefixes are not definitely equal"));
                    }
                    check_child(0, &Goal::new(Origin::Same, sa, sb), stack, shrinks)
                }
                PrefixCase::PrefixesDisjoint => {
                    // Same strict-descent condition as the prover: only a
                    // guaranteed-nonempty peeled suffix advances the
                    // induction measure.
                    let strict = !sa.to_regex().is_nullable() || !sb.to_regex().is_nullable();
                    check_child(0, &Goal::new(Origin::Distinct, sa, sb), stack, shrinks)?;
                    if goal.origin() == Origin::Distinct && pa.is_epsilon() && pb.is_epsilon() {
                        // Roots are distinct by quantification; T2 suffices.
                        expect_children(1)
                    } else {
                        expect_children(2)?;
                        if goal.origin() == Origin::Same && pa.is_epsilon() && pb.is_epsilon() {
                            return Err(err(goal, "equal roots cannot be distinct origins"));
                        }
                        check_child(
                            1,
                            &Goal::new(goal.origin(), pa, pb),
                            stack,
                            shrinks + usize::from(strict),
                        )
                    }
                }
            }
        }
        Rule::AltSplit => {
            expect_children(2)?;
            // Verify each premise is the parent with one alternation
            // component replaced by one alternative, same position for
            // both, covering both alternatives.
            let verify = |which_a: bool| -> bool {
                let path = if which_a { goal.a() } else { goal.b() };
                for (idx, c) in path.components().iter().enumerate().rev() {
                    if let Component::Alt(x, y) = c {
                        let splice = |alt: &Path| -> Path {
                            let mut comps: Vec<Component> = path.components()[..idx].to_vec();
                            comps.extend(alt.components().iter().cloned());
                            comps.extend(path.components()[idx + 1..].iter().cloned());
                            Path::new(comps)
                        };
                        let other = if which_a { goal.b() } else { goal.a() };
                        let g1 = Goal::new(goal.origin(), splice(x), other.clone());
                        let g2 = Goal::new(goal.origin(), splice(y), other.clone());
                        let found1 = children.iter().any(|ch| same_goal(&ch.goal, &g1));
                        let found2 = children.iter().any(|ch| same_goal(&ch.goal, &g2));
                        if found1 && found2 {
                            return true;
                        }
                    }
                }
                false
            };
            if !verify(true) && !verify(false) {
                return Err(err(
                    goal,
                    "premises do not split an alternation of the goal",
                ));
            }
            for (i, child) in children.iter().enumerate() {
                let _ = i;
                check_node(axioms, child, stack, shrinks, rewrites)?;
            }
            Ok(())
        }
        Rule::StarCases => {
            let tail_star = |p: &Path| -> Option<(Path, Path)> {
                let (init, last) = p.split_last()?;
                if let Component::Star(w) = last {
                    Some((init, w.clone()))
                } else {
                    None
                }
            };
            let sa = tail_star(goal.a());
            let sb = tail_star(goal.b());
            if sa.is_none() && sb.is_none() {
                return Err(err(goal, "no trailing star to case-split"));
            }
            let cases = |p: &Path, s: &Option<(Path, Path)>| -> Vec<Path> {
                match s {
                    Some((init, w)) => {
                        let mut plus = init.clone();
                        plus.push(Component::Plus(w.clone()));
                        vec![init.clone(), plus]
                    }
                    None => vec![p.clone()],
                }
            };
            let mut expected = Vec::new();
            for aa in cases(goal.a(), &sa) {
                for bb in cases(goal.b(), &sb) {
                    expected.push(Goal::new(goal.origin(), aa.clone(), bb));
                }
            }
            expect_children(expected.len())?;
            for (i, e) in expected.iter().enumerate() {
                check_child(i, e, stack, shrinks)?;
            }
            Ok(())
        }
        Rule::Rewrite { axiom } => {
            expect_children(1)?;
            let ax = axiom_by_label(axioms, axiom)
                .ok_or_else(|| err(goal, format!("cites unknown axiom {axiom:?}")))?;
            if ax.kind() != AxiomKind::Equal {
                return Err(err(goal, format!("axiom {axiom} is not an equality axiom")));
            }
            let child = &children[0];
            // Verify the child goal arises from the parent by rewriting a
            // prefix of one path with the axiom (either direction).
            let mut valid = false;
            'outer: for (path, other) in [
                (goal.a().clone(), goal.b().clone()),
                (goal.b().clone(), goal.a().clone()),
            ] {
                for k in 1..=path.len() {
                    let head = Path::new(path.components()[..k].to_vec());
                    let tail = Path::new(path.components()[k..].to_vec());
                    let head_re = head.to_regex();
                    for (from, to) in [(ax.lhs(), ax.rhs()), (ax.rhs(), ax.lhs())] {
                        if ops::equivalent(&head_re, from) {
                            if let Ok(to_path) = Path::try_from(to) {
                                let new_path = to_path.concat(&tail);
                                let g = Goal::new(goal.origin(), new_path, other.clone());
                                if same_goal(&child.goal, &g) {
                                    valid = true;
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
            if !valid {
                return Err(err(goal, "premise is not a prefix rewrite of the goal"));
            }
            check_node(axioms, child, stack, shrinks, rewrites + 1)
        }
        Rule::Induction { target } => {
            expect_children(0)?;
            if target != &goal.to_string() {
                return Err(err(goal, "induction target does not match the goal"));
            }
            // The target must appear as a *proper* ancestor, with at least
            // one shrinking rule and no rewrite in between.
            let hit = stack[..stack.len().saturating_sub(1)]
                .iter()
                .rev()
                .find(|f| f.goal == *target);
            match hit {
                Some(f) if shrinks > f.shrinks && rewrites == f.rewrites => Ok(()),
                Some(_) => Err(err(
                    goal,
                    "induction cycle is not guarded by a shrinking, rewrite-free path",
                )),
                None => Err(err(goal, "induction target is not an ancestor goal")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prover::Prover;
    use apt_axioms::adds;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn prove(axioms: &AxiomSet, origin: Origin, a: &str, b: &str) -> Proof {
        let mut prover = Prover::new(axioms);
        crate::DepQuery::disjoint(&p(a), &p(b))
            .origin(origin)
            .run_with(&mut prover)
            .proof
            .unwrap_or_else(|| panic!("{a} <> {b} should be provable"))
    }

    #[test]
    fn checks_paper_3_3_proof() {
        let axioms = adds::leaf_linked_tree_axioms();
        let proof = prove(&axioms, Origin::Same, "L.L.N", "L.R.N");
        check_proof(&axioms, &proof).expect("valid");
    }

    #[test]
    fn checks_theorem_t_proofs() {
        let axioms = adds::sparse_matrix_minimal_axioms();
        let proof = prove(&axioms, Origin::Same, "ncolE+", "nrowE+.ncolE+");
        check_proof(&axioms, &proof).expect("valid");
        let full = adds::sparse_matrix_axioms();
        let proof = prove(&full, Origin::Same, "ncolE+", "nrowE+.ncolE+");
        check_proof(&full, &proof).expect("valid");
    }

    #[test]
    fn checks_star_induction_proof() {
        let axioms = AxiomSet::parse(
            "A1: forall p, p.L <> p.R\n\
             A2: forall p <> q, p.(L|R) <> q.(L|R)\n\
             A3: forall p, p.(L|R)+ <> p.eps",
        )
        .unwrap();
        let proof = prove(&axioms, Origin::Same, "L.(L|R)*", "R.(L|R)*");
        check_proof(&axioms, &proof).expect("valid cyclic proof");
    }

    #[test]
    fn checks_rewrite_proof() {
        let axioms = AxiomSet::parse(
            "D1: forall p, p.next.prev = p.eps\n\
             D2: forall p, p.next+ <> p.eps",
        )
        .unwrap();
        let proof = prove(&axioms, Origin::Same, "next.prev.next", "eps");
        check_proof(&axioms, &proof).expect("valid");
    }

    #[test]
    fn rejects_fabricated_axiom_leaf() {
        let axioms = adds::leaf_linked_tree_axioms();
        // Claim L <> L.L by A1 — bogus.
        let fake = Proof::leaf(
            Goal::new(Origin::Same, p("L"), p("L.L")),
            Rule::Axiom {
                axiom: "A1".into(),
                swapped: false,
            },
        );
        let e = check_proof(&axioms, &fake).unwrap_err();
        assert!(e.message.contains("does not cover"), "{e}");
    }

    #[test]
    fn rejects_unknown_axiom_citation() {
        let axioms = adds::leaf_linked_tree_axioms();
        let fake = Proof::leaf(
            Goal::new(Origin::Same, p("L"), p("R")),
            Rule::Axiom {
                axiom: "A99".into(),
                swapped: false,
            },
        );
        assert!(check_proof(&axioms, &fake).is_err());
    }

    #[test]
    fn rejects_unguarded_induction() {
        let axioms = adds::leaf_linked_tree_axioms();
        let g = Goal::new(Origin::Same, p("L.(L|R)*"), p("R.(L|R)*"));
        // An induction leaf with itself as target but no ancestor chain.
        let fake = Proof::leaf(
            g.clone(),
            Rule::Induction {
                target: g.to_string(),
            },
        );
        let e = check_proof(&axioms, &fake).unwrap_err();
        assert!(e.message.contains("ancestor"), "{e}");
    }

    #[test]
    fn rejects_wrong_premise_goal() {
        let axioms = adds::leaf_linked_tree_axioms();
        // TailPeel that claims L.N <> R.N reduces to L <> L (wrong).
        let fake = Proof {
            goal: Goal::new(Origin::Same, p("L.N"), p("R.N")),
            rule: Rule::TailPeel {
                field: "N".into(),
                axiom: "A3".into(),
            },
            children: vec![std::sync::Arc::new(Proof::leaf(
                Goal::new(Origin::Same, p("L"), p("L")),
                Rule::Axiom {
                    axiom: "A1".into(),
                    swapped: false,
                },
            ))],
        };
        assert!(check_proof(&axioms, &fake).is_err());
    }

    #[test]
    fn rejects_trivial_rule_misuse() {
        let axioms = AxiomSet::new();
        let fake = Proof::leaf(
            Goal::new(Origin::Same, Path::epsilon(), Path::epsilon()),
            Rule::TrivialDistinctEpsilon,
        );
        assert!(check_proof(&axioms, &fake).is_err());
    }

    #[test]
    fn every_suite_proof_checks() {
        // All flagship proofs across axiom families pass the checker.
        let cases: Vec<(AxiomSet, Origin, &str, &str)> = vec![
            (
                adds::leaf_linked_tree_axioms(),
                Origin::Same,
                "L.L.N",
                "L.R.N",
            ),
            (
                adds::leaf_linked_tree_axioms(),
                Origin::Same,
                "eps",
                "(L|R|N)+",
            ),
            (
                adds::leaf_linked_tree_axioms(),
                Origin::Distinct,
                "N.N",
                "N.N",
            ),
            (
                adds::sparse_matrix_axioms(),
                Origin::Distinct,
                "relem.ncolE*",
                "relem.ncolE*",
            ),
            (
                adds::sparse_matrix_minimal_axioms(),
                Origin::Same,
                "ncolE+",
                "nrowE+.ncolE+",
            ),
        ];
        for (axioms, origin, a, b) in cases {
            let proof = prove(&axioms, origin, a, b);
            check_proof(&axioms, &proof).unwrap_or_else(|e| panic!("{a} <> {b}: {e}\n{proof}"));
        }
    }
}
