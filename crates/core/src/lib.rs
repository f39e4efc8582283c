//! **APT** — the Axiom-based Pointer Test of Hummel, Hendren & Nicolau,
//! *A General Data Dependence Test for Dynamic, Pointer-Based Data
//! Structures* (PLDI 1994).
//!
//! APT decides whether two pointer-based memory references can touch the
//! same heap location. Its two inputs (§3) are:
//!
//! 1. **aliasing axioms** describing uniform properties of the data
//!    structure (`apt-axioms`), and
//! 2. **access paths** for the two references — regular expressions rooted
//!    at fixed *handle* vertices.
//!
//! The tester applies the axioms to the access paths, searching for a proof
//! that the paths can never reach the same vertex. It returns **No** with a
//! machine-checkable [`Proof`] when such a proof exists, **Yes** when the
//! references definitely coincide, and **Maybe** otherwise.
//!
//! # Quick start
//!
//! ```
//! use apt_axioms::adds::leaf_linked_tree_axioms;
//! use apt_core::{AccessPath, Answer, DepTest, Handle, HandleRelation, MemRef};
//! use apt_regex::Path;
//!
//! // The paper's §3.3 example on the Figure 3 leaf-linked binary tree:
//! // S: p->d = 100   where p = root.L.L.N
//! // T: return q->d  where q = root.R.N → anchored as root.L.R.N
//! let axioms = leaf_linked_tree_axioms();
//! let tester = DepTest::new(&axioms);
//! let hroot = Handle::for_variable("root");
//! let s = MemRef::new(AccessPath::new(hroot.clone(), Path::parse("L.L.N").unwrap()), "d");
//! let t = MemRef::new(AccessPath::new(hroot, Path::parse("L.R.N").unwrap()), "d");
//!
//! let outcome = tester.test(&s, &t, HandleRelation::Same);
//! assert_eq!(outcome.answer, Answer::No);
//! println!("{}", outcome.proofs[0]); // the paper's paraphrased proof
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod config;
mod deptest;
mod engine;
mod goal;
mod handle;
mod portfolio;
mod proof;
mod prover;
pub mod refuter;
pub mod telemetry;
mod verdict;

pub use check::{check_proof, ProofError};
pub use config::{Budget, CancelToken, CutoffStats, ProverConfig, ProverStats};
pub use deptest::{
    AccessPath, Answer, DepTest, FieldLayout, LayoutError, MemRef, Reason, TestOutcome,
};
pub use engine::{
    CacheExport, CacheStats, DepEngine, DepQuery, FailedGoalSample, GoalEntry, ImportStats,
    Outcome, QueryKind, SubsetEntry, FAILED_SNAPSHOT_CAP, INLINE_BATCH_THRESHOLD,
};
pub use goal::{Goal, Origin};
pub use handle::{Handle, HandleRelation};
pub use portfolio::{
    EngineKind, EngineSelection, EngineTally, Portfolio, PortfolioConfig, PortfolioStats,
    TallySink, Witness,
};
pub use proof::{PrefixCase, Proof, Rule};
pub use prover::Prover;
pub use telemetry::{peak_rss_kb, MemorySample};
pub use verdict::{MaybeReason, SearchLimit, Verdict};
