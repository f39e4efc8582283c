//! Proof trees.
//!
//! A successful `proveDisj` run yields a derivation tree whose rendering
//! mirrors the paper's "paraphrased proof" style (§3.3): each node says
//! which rule fired, which axiom (if any) was used, and lists the subproofs.

use crate::goal::Goal;
use std::fmt;
use std::sync::Arc;

/// The proof rule that discharged a goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rule {
    /// Direct application of a single axiom (steps A/B of `proveDisj`):
    /// each path's language is contained in one side of the axiom.
    Axiom {
        /// Label of the axiom used.
        axiom: String,
        /// Whether the goal's paths matched the axiom's sides swapped.
        swapped: bool,
    },
    /// `∀x<>y, x.ε <> y.ε` is trivially true.
    TrivialDistinctEpsilon,
    /// Peeled a common definite head field from both same-origin paths
    /// ("since both paths start from the same vertex and begin with L…").
    HeadPeel {
        /// The peeled field.
        field: String,
    },
    /// Peeled a common definite head field from distinct-origin paths using
    /// an injectivity axiom (`∀p<>q, p.f <> q.f`).
    HeadPeelInjective {
        /// The peeled field.
        field: String,
        /// The injectivity axiom used.
        axiom: String,
    },
    /// Peeled a common definite head field from distinct-origin paths
    /// without injectivity — requires both the same- and distinct-origin
    /// subgoals on the tails.
    HeadPeelCases {
        /// The peeled field.
        field: String,
    },
    /// Peeled a common trailing field from both paths using an injectivity
    /// axiom ("Applying A3, theorem is true if …").
    TailPeel {
        /// The peeled field.
        field: String,
        /// The injectivity axiom used.
        axiom: String,
    },
    /// Inductive peel of common trailing Kleene runs of one injective field
    /// (the paper's multi-case Kleene induction, collapsed through
    /// injectivity into the equal/left-extra/right-extra cases).
    ClosureTailPeel {
        /// The run field.
        field: String,
        /// The injectivity axiom used.
        axiom: String,
    },
    /// Case split on leading Kleene runs of a common head field for a
    /// same-origin goal (equal/left-extra/right-extra).
    ClosureHeadPeel {
        /// The run field.
        field: String,
    },
    /// The suffix-decomposition step of `proveDisj` (Figure 5): suffixes
    /// proven disjoint for both the same- and distinct-origin cases, or one
    /// case plus a prefix argument.
    Decompose {
        /// Rendering of the chosen suffix of the first path.
        suffix_a: String,
        /// Rendering of the chosen suffix of the second path.
        suffix_b: String,
        /// How the prefix pair was discharged.
        prefix_case: PrefixCase,
    },
    /// Split an alternation component; every branch proved separately.
    AltSplit,
    /// Rewrote a path prefix using an equality axiom (`∀p, p.RE1 = p.RE2`).
    Rewrite {
        /// The equality axiom used.
        axiom: String,
    },
    /// Case analysis on trailing Kleene-star components (step E of §4.1):
    /// each star is replaced by ε and by one-or-more repetitions; every
    /// case must prove.
    StarCases,
    /// Closed by the inductive hypothesis: this goal is an ancestor of
    /// itself across at least one witness-shrinking step, so a minimal
    /// counterexample would yield a strictly smaller one (the paper's
    /// "assume a*a and replace with a*aa" induction, as infinite descent).
    Induction {
        /// Rendering of the ancestor goal assumed as hypothesis.
        target: String,
    },
}

/// How the prefix pair of a [`Rule::Decompose`] step was discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixCase {
    /// Both suffix-origin cases (same and distinct) were proven directly,
    /// so the prefix relationship is irrelevant (steps A ∧ B).
    BothOrigins,
    /// Same-origin suffix case proven; prefixes are definitely equal
    /// (step C).
    PrefixesEqual,
    /// Distinct-origin suffix case proven; prefixes proven disjoint
    /// recursively (step D).
    PrefixesDisjoint,
}

/// A node of a proof tree: a goal, the rule that discharged it, and the
/// subproofs the rule required.
///
/// Subproofs are shared, not copied: the prover's caches hand out one
/// node per settled goal, and every proof citing that goal points at it.
/// A tree is immutable once built, so cloning a proof copies one node and
/// bumps its children's reference counts.
#[derive(Debug, Clone)]
pub struct Proof {
    /// The goal this node establishes.
    pub goal: Goal,
    /// The rule that fired.
    pub rule: Rule,
    /// Subproofs (rule premises), in rule-specific order.
    pub children: Vec<Arc<Proof>>,
}

impl Proof {
    /// Creates a leaf proof.
    pub fn leaf(goal: Goal, rule: Rule) -> Proof {
        Proof {
            goal,
            rule,
            children: Vec::new(),
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Depth of the tree.
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Every axiom label cited anywhere in the proof.
    pub fn axioms_used(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_axioms(&mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Renderings of every goal assumed by an [`Rule::Induction`] leaf in
    /// this tree. A proof is self-contained once this set is a subset of
    /// `{self.goal}`.
    pub fn induction_targets(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_targets(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_targets(&self, out: &mut Vec<String>) {
        if let Rule::Induction { target } = &self.rule {
            out.push(target.clone());
        }
        for c in &self.children {
            c.collect_targets(out);
        }
    }

    fn collect_axioms(&self, out: &mut Vec<String>) {
        match &self.rule {
            Rule::Axiom { axiom, .. }
            | Rule::TailPeel { axiom, .. }
            | Rule::ClosureTailPeel { axiom, .. }
            | Rule::HeadPeelInjective { axiom, .. }
            | Rule::Rewrite { axiom } => out.push(axiom.clone()),
            _ => {}
        }
        for c in &self.children {
            c.collect_axioms(out);
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        let explain = match &self.rule {
            Rule::Axiom { axiom, .. } => format!("by axiom {axiom}"),
            Rule::TrivialDistinctEpsilon => "trivially (distinct origins)".to_owned(),
            Rule::HeadPeel { field } => {
                format!("both paths start from the same vertex and begin with {field}; reduces to:")
            }
            Rule::HeadPeelInjective { field, axiom } => {
                format!("origins distinct and {field} is injective (axiom {axiom}); reduces to:")
            }
            Rule::HeadPeelCases { field } => {
                format!("peeling head {field} without injectivity; both origin cases required:")
            }
            Rule::TailPeel { field, axiom } => {
                format!("applying {axiom} (injectivity of {field}), theorem is true if:")
            }
            Rule::ClosureTailPeel { field, axiom } => format!(
                "induction on the trailing {field}-runs (injectivity axiom {axiom}); cases:"
            ),
            Rule::ClosureHeadPeel { field } => {
                format!("case split on the leading {field}-runs; cases:")
            }
            Rule::Decompose {
                suffix_a,
                suffix_b,
                prefix_case,
            } => {
                let pc = match prefix_case {
                    PrefixCase::BothOrigins => "suffixes disjoint from any origins",
                    PrefixCase::PrefixesEqual => {
                        "suffixes disjoint from a common origin; prefixes definitely equal"
                    }
                    PrefixCase::PrefixesDisjoint => {
                        "suffixes disjoint from distinct origins; prefixes proven disjoint"
                    }
                };
                format!("decompose with suffixes ({suffix_a}, {suffix_b}): {pc}:")
            }
            Rule::AltSplit => "splitting the alternatives; each case:".to_owned(),
            Rule::Rewrite { axiom } => format!("rewriting with equality axiom {axiom}:"),
            Rule::StarCases => "case analysis on the trailing kleene components; cases:".to_owned(),
            Rule::Induction { target } => {
                format!("by the inductive hypothesis [{target}]")
            }
        };
        writeln!(f, "{pad}- {}  [{explain}]", self.goal)?;
        for c in &self.children {
            c.fmt_indented(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Proof:")?;
        self.fmt_indented(f, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::Origin;
    use apt_regex::Path;

    fn goal(a: &str, b: &str) -> Goal {
        Goal::new(
            Origin::Same,
            Path::parse(a).unwrap(),
            Path::parse(b).unwrap(),
        )
    }

    #[test]
    fn node_count_and_depth() {
        let leaf = Proof::leaf(
            goal("L", "R"),
            Rule::Axiom {
                axiom: "A1".into(),
                swapped: false,
            },
        );
        let root = Proof {
            goal: goal("L.L", "L.R"),
            rule: Rule::HeadPeel { field: "L".into() },
            children: vec![Arc::new(leaf)],
        };
        assert_eq!(root.node_count(), 2);
        assert_eq!(root.depth(), 2);
    }

    #[test]
    fn axioms_used_deduplicates() {
        let leaf = |ax: &str| {
            Proof::leaf(
                goal("L", "R"),
                Rule::Axiom {
                    axiom: ax.into(),
                    swapped: false,
                },
            )
        };
        let root = Proof {
            goal: goal("L.L", "L.R"),
            rule: Rule::AltSplit,
            children: vec![leaf("A1"), leaf("A1"), leaf("A3")]
                .into_iter()
                .map(Arc::new)
                .collect(),
        };
        assert_eq!(root.axioms_used(), vec!["A1".to_owned(), "A3".to_owned()]);
    }

    #[test]
    fn display_contains_goal_and_axiom() {
        let p = Proof::leaf(
            goal("L", "R"),
            Rule::Axiom {
                axiom: "A1".into(),
                swapped: false,
            },
        );
        let s = p.to_string();
        assert!(s.contains("forall x, x.L <> x.R"));
        assert!(s.contains("by axiom A1"));
    }
}
