//! Regular expressions over pointer-field alphabets.
//!
//! This crate is the language-theoretic substrate of the APT reproduction
//! (Hummel, Hendren & Nicolau, *A General Data Dependence Test for Dynamic,
//! Pointer-Based Data Structures*, PLDI 1994). The paper names memory by
//! **access paths** — regular expressions over the pointer-field names of a
//! data structure — and decides axiom applicability with the classic
//! automata constructions (\[HU79\]): subset via `M1 ∩ ¬M2 = ∅`.
//!
//! Provided here:
//!
//! * [`Symbol`] — interned field names.
//! * [`Regex`] — the expression tree with simplifying constructors and a
//!   parser for the paper's concrete syntax ([`parse`]).
//! * [`RegexId`] — hash-consed expression handles with O(1) structural
//!   equality, the key type for every cache on the subset-test hot path.
//! * [`nfa`]/[`dfa`] — Thompson construction and subset construction with
//!   complement, product, emptiness, witnesses, and minimization.
//! * [`ops`] — the decision procedures (`is_subset`, `is_disjoint`,
//!   `equivalent`, `is_singleton`).
//! * [`derivative`] — an independent Brzozowski-derivative engine used for
//!   matching and cross-validation.
//! * [`path`] — the component-sequence view of a regex that the prover's
//!   suffix generation operates on (§4.1 of the paper).
//! * [`sample`] — finite enumeration of a language, used by the axiom
//!   model checker.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use apt_regex::{ops, parse};
//!
//! // The leaf-linked-tree example of the paper, §2.4: the exact access
//! // paths are disjoint...
//! let p = parse("L.L.N")?;
//! let q = parse("L.R.N")?;
//! assert!(ops::is_disjoint(&p, &q));
//!
//! // ...and both lie inside the conservative path expression that a
//! // Larus-style analysis must map them to.
//! let conservative = parse("(L|R)+.N+")?;
//! assert!(ops::is_subset(&p, &conservative));
//! assert!(ops::is_subset(&q, &conservative));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
pub mod bitset;
pub mod cache;
pub mod derivative;
pub mod dfa;
pub mod fx;
pub mod intern;
pub mod limits;
pub mod nfa;
pub mod ops;
mod parse;
pub mod path;
pub mod sample;
mod symbol;

pub use ast::Regex;
pub use cache::DfaCache;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{arena_stats, ArenaScope, ArenaStats, EnteredScope, RegexId};
pub use limits::{LimitExceeded, Limits};
pub use parse::{parse, ParseRegexError};
pub use path::{Component, Path};
pub use symbol::Symbol;
