//! Output checks. They run outside the timed region; every answered query
//! is one attempted operation and fails if any check rejects it.

use crate::gen::Truth;
use apt_axioms::AxiomSet;
use apt_core::{check_proof, Answer, Origin, Proof, Witness};
use apt_regex::Path;

/// Failures reported on standard error before the rest are only counted.
const REPORTED: u64 = 5;

/// Counts attempted and failed operations.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Gate {
    /// Records one operation and the verdict of its checks.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failed <= REPORTED {
                eprintln!("perfbench: check failed: {why}");
            }
        }
    }

    /// Records one operation that could not complete at all.
    pub fn fail(&mut self, why: String) {
        self.record(Err(why));
    }
}

/// Every proof backing a `No` must pass [`check_proof`]. A `No` without a
/// proof (a dispatch prune, or a Dyck verdict) carries nothing to check.
pub fn proofs(axioms: &AxiomSet, answer: Answer, proofs: &[Proof]) -> Result<(), String> {
    if answer != Answer::No {
        return Ok(());
    }
    for proof in proofs {
        check_proof(axioms, proof).map_err(|e| format!("proof rejected: {e}"))?;
    }
    Ok(())
}

/// A `Yes` witness must validate against the query it claims to refute.
pub fn witness(
    axioms: &AxiomSet,
    answer: Answer,
    witness: Option<&Witness>,
    origin: Origin,
    a: &Path,
    b: &Path,
) -> Result<(), String> {
    match (answer, witness) {
        (Answer::Yes, Some(w)) => w
            .validate(axioms, origin, a, b)
            .map_err(|e| format!("witness rejected for {a} vs {b}: {e}")),
        (_, Some(_)) => Err(format!("witness attached to a {answer} for {a} vs {b}")),
        _ => Ok(()),
    }
}

/// A definite answer must agree with the truth label.
pub fn label(answer: Answer, truth: Truth, what: &str) -> Result<(), String> {
    match (answer, truth) {
        (Answer::No, Truth::Dependent) | (Answer::Yes, Truth::Independent) => {
            Err(format!("{what}: answered {answer}, labelled {truth:?}"))
        }
        _ => Ok(()),
    }
}

/// The answer must equal the run's first answer to the same query.
pub fn same(first: Answer, now: Answer, what: &str) -> Result<(), String> {
    if first == now {
        Ok(())
    } else {
        Err(format!("{what}: answered {now}, first pass said {first}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Set;
    use apt_core::{DepEngine, DepQuery, Goal, Portfolio, PortfolioConfig};

    fn path(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn a_forged_proof_is_rejected() {
        let _arena = crate::arena_lock();
        let axioms = Set::Tree.axioms();
        let outcome = DepEngine::new(axioms.clone())
            .run(&DepQuery::disjoint(&path("L.L"), &path("L.R")).origin(Origin::Same));
        let proof = outcome.proof.expect("siblings are provably disjoint");
        assert!(proofs(&axioms, Answer::No, std::slice::from_ref(&proof)).is_ok());
        // The same derivation relabelled to claim that a node is disjoint
        // from itself.
        let mut forged = proof;
        forged.goal = Goal::new(Origin::Same, path("L.L"), path("L.L"));
        assert!(proofs(&axioms, Answer::No, &[forged]).is_err());
    }

    #[test]
    fn a_mutated_witness_is_rejected() {
        let _arena = crate::arena_lock();
        let axioms = Set::Matrix.axioms();
        let (a, b) = (path("ncolE.ncolE"), path("ncolE+"));
        let outcome = Portfolio::new(DepEngine::new(axioms.clone()), PortfolioConfig::default())
            .run(&DepQuery::disjoint(&a, &b).origin(Origin::Same));
        assert_eq!(outcome.verdict.answer, Answer::Yes);
        let w = outcome.witness.expect("the refuter witnesses the overlap");
        assert!(witness(&axioms, Answer::Yes, Some(&w), Origin::Same, &a, &b).is_ok());
        let mut moved = w.clone();
        moved.meet = moved.p_origin;
        assert!(witness(&axioms, Answer::Yes, Some(&moved), Origin::Same, &a, &b).is_err());
        let mut cut = w;
        cut.edges.clear();
        assert!(witness(&axioms, Answer::Yes, Some(&cut), Origin::Same, &a, &b).is_err());
    }

    #[test]
    fn a_flipped_answer_is_rejected() {
        assert!(label(Answer::No, Truth::Independent, "q").is_ok());
        assert!(label(Answer::Maybe, Truth::Dependent, "q").is_ok());
        assert!(label(Answer::Yes, Truth::Independent, "q").is_err());
        assert!(label(Answer::No, Truth::Dependent, "q").is_err());
        assert!(same(Answer::No, Answer::No, "q").is_ok());
        assert!(same(Answer::No, Answer::Yes, "q").is_err());
        let mut gate = Gate::default();
        gate.record(same(Answer::No, Answer::Maybe, "q"));
        gate.record(Ok(()));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }
}
