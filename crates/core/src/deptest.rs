//! The `deptest` entry point (§4.1 of the paper).
//!
//! Given two memory references `S: … p->f …` and `T: … q->g …` (at least one
//! a write), their access paths, and a set of applicable axioms, `deptest`
//! answers:
//!
//! * **No** — the references provably never overlap;
//! * **Yes** — they definitely denote the same memory location;
//! * **Maybe** — neither could be proven.

use crate::engine::{DepEngine, DepQuery, Outcome};
use crate::goal::Origin;
use crate::handle::{Handle, HandleRelation};
use crate::portfolio::{EngineKind, Portfolio, PortfolioConfig, Witness};
use crate::proof::Proof;
use crate::verdict::{MaybeReason, Verdict};
use crate::ProverConfig;
use apt_axioms::AxiomSet;
use apt_regex::{Path, Symbol};
use std::fmt;

/// A handle-anchored access path `H.Path` (§3.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccessPath {
    /// The fixed anchor vertex.
    pub handle: Handle,
    /// The path from the handle to the referenced vertex.
    pub path: Path,
}

impl AccessPath {
    /// Creates `handle.path`.
    pub fn new(handle: Handle, path: Path) -> AccessPath {
        AccessPath { handle, path }
    }
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.handle, self.path)
    }
}

/// One side of a dependence query: the statement's reference `p->f`,
/// normalized per §4.1 (`S: … = p->f` / `S: p->f = …`).
#[derive(Debug, Clone)]
pub struct MemRef {
    /// The declared type of the pointed-to vertex, when known. Pointers of
    /// different structure types cannot alias (first test of `deptest`).
    pub type_name: Option<String>,
    /// The accessed field `f`.
    pub field: Symbol,
    /// The access path of the pointer `p`.
    pub access: AccessPath,
}

impl MemRef {
    /// A reference `p->field` where `p` is reached by `access`.
    pub fn new(access: AccessPath, field: impl Into<Symbol>) -> MemRef {
        MemRef {
            type_name: None,
            field: field.into(),
            access,
        }
    }

    /// Attaches the declared structure type.
    #[must_use]
    pub fn with_type(mut self, type_name: impl Into<String>) -> MemRef {
        self.type_name = Some(type_name.into());
        self
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})->{}", self.access, self.field)
    }
}

/// A rejected [`FieldLayout`] entry: the named field was declared with
/// zero size, so it could never overlap anything — almost certainly a
/// caller bug, reported as an error rather than silently weakening the
/// dependence test (or panicking in library code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutError {
    field: Symbol,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "field `{}` must occupy at least one byte",
            self.field.as_str()
        )
    }
}

impl std::error::Error for LayoutError {}

/// Byte-level field layout for one structure type, enabling the paper's
/// "if `f` and `g` do not overlap" test to handle C unions and other
/// overlapping fields precisely.
///
/// Fields without a registered range are assumed to occupy disjoint
/// storage unless they are the *same* field — the safe default for
/// ordinary struct declarations.
///
/// ```
/// # fn main() -> Result<(), apt_core::LayoutError> {
/// use apt_core::FieldLayout;
/// let mut layout = FieldLayout::new();
/// layout.set("as_int", 0, 4)?;
/// layout.set("as_float", 0, 4)?; // a union arm
/// layout.set("tag", 4, 1)?;
/// assert!(layout.overlaps("as_int", "as_float"));
/// assert!(!layout.overlaps("as_int", "tag"));
/// assert!(layout.set("bad", 0, 0).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FieldLayout {
    ranges: std::collections::HashMap<Symbol, (u64, u64)>,
}

impl FieldLayout {
    /// An empty layout (every distinct field disjoint).
    pub fn new() -> FieldLayout {
        FieldLayout::default()
    }

    /// Registers `field` at byte `offset` with the given `size`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] (and records nothing) when `size` is zero.
    pub fn set(
        &mut self,
        field: impl Into<Symbol>,
        offset: u64,
        size: u64,
    ) -> Result<(), LayoutError> {
        let field = field.into();
        if size == 0 {
            return Err(LayoutError { field });
        }
        self.ranges.insert(field, (offset, size));
        Ok(())
    }

    /// Whether the two fields can occupy a common byte.
    pub fn overlaps(&self, f: impl Into<Symbol>, g: impl Into<Symbol>) -> bool {
        let f = f.into();
        let g = g.into();
        if f == g {
            return true;
        }
        match (self.ranges.get(&f), self.ranges.get(&g)) {
            (Some(&(of, sf)), Some(&(og, sg))) => of < og + sg && og < of + sf,
            // Unknown layout: distinct named fields are disjoint (the
            // paper's default assumption for struct fields).
            _ => false,
        }
    }
}

/// The three possible answers of the dependence test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Answer {
    /// A data dependence definitely exists.
    Yes,
    /// No data dependence is possible.
    No,
    /// A dependence could not be proven or disproven.
    Maybe,
}

impl Answer {
    /// The stable wire spelling (`"Yes"`/`"No"`/`"Maybe"`), shared by
    /// [`fmt::Display`] and the serving layer's JSON frames.
    pub fn as_str(&self) -> &'static str {
        match self {
            Answer::Yes => "Yes",
            Answer::No => "No",
            Answer::Maybe => "Maybe",
        }
    }

    /// Parses the wire spelling back to an answer.
    pub fn from_str_opt(s: &str) -> Option<Answer> {
        Some(match s {
            "Yes" => Answer::Yes,
            "No" => Answer::No,
            "Maybe" => Answer::Maybe,
            _ => return None,
        })
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why `deptest` answered as it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// The two pointers have different structure types.
    TypeMismatch,
    /// The accessed fields do not overlap.
    FieldsDisjoint,
    /// The paths are identical and denote a single vertex.
    IdenticalSingletonPaths,
    /// The theorem prover established disjointness.
    ProvenDisjoint,
    /// The bounded-heap refuter produced a concrete axiom-satisfying
    /// heap in which both references touch the same node.
    WitnessedDependence,
    /// No proof was found.
    Unproven,
}

/// The full outcome of a dependence test.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// Yes / No / Maybe.
    pub answer: Answer,
    /// Why.
    pub reason: Reason,
    /// For a Maybe: whether the search genuinely exhausted the axioms or
    /// was degraded by a resource limit (and which one). `None` for
    /// definite answers.
    pub maybe: Option<MaybeReason>,
    /// The disjointness proof(s), when `reason` is
    /// [`Reason::ProvenDisjoint`]: one per origin case, so two appear
    /// when the handle relation was unknown and both cases were
    /// discharged.
    pub proofs: Vec<Proof>,
    /// Prover work counters.
    pub stats: crate::ProverStats,
    /// The concrete dependence witness, when `reason` is
    /// [`Reason::WitnessedDependence`].
    pub witness: Option<Witness>,
    /// The backend whose verdict settled the test, when a prover query
    /// (rather than a syntactic pre-check) decided it.
    pub engine: Option<EngineKind>,
}

impl TestOutcome {
    fn simple(answer: Answer, reason: Reason) -> TestOutcome {
        TestOutcome {
            answer,
            reason,
            maybe: None,
            proofs: Vec::new(),
            stats: crate::ProverStats::default(),
            witness: None,
            engine: None,
        }
    }

    /// The outcome as a [`Verdict`] (answer + degradation pedigree).
    pub fn verdict(&self) -> Verdict {
        match self.answer {
            Answer::Maybe => Verdict::maybe(self.maybe.unwrap_or(MaybeReason::GenuinelyUnknown)),
            definite => Verdict::definite(definite),
        }
    }

    /// Whether a resource limit (not the axioms) forced this answer.
    pub fn is_degraded(&self) -> bool {
        self.maybe.is_some_and(|r| r.is_degraded())
    }
}

/// What one dependence test needs from the prover, after the cheap
/// syntactic pre-checks ran.
enum TestPlan {
    /// Decided without the prover (type/field/syntactic short-circuits).
    Done(TestOutcome),
    /// Queries to run: at most one equality query, then one disjointness
    /// query per origin case, in order.
    Prove {
        equal: Option<DepQuery>,
        disjoint: Vec<DepQuery>,
    },
}

/// The APT dependence tester over one axiom set.
///
/// Every prover query runs through one [`Portfolio`] over a
/// [`DepEngine`], so every test run through one `DepTest` shares the
/// engine's proof/subset/DFA caches — including across threads in
/// [`DepTest::test_batch`].
#[derive(Debug, Clone)]
pub struct DepTest {
    portfolio: Portfolio,
    layout: FieldLayout,
}

impl DepTest {
    /// Creates a tester with the default prover configuration.
    pub fn new(axioms: &AxiomSet) -> DepTest {
        DepTest::with_config(axioms, ProverConfig::default())
    }

    /// Creates a tester with an explicit prover configuration.
    pub fn with_config(axioms: &AxiomSet, config: ProverConfig) -> DepTest {
        DepTest::with_engine(DepEngine::with_config(axioms.clone(), config))
    }

    /// Wraps an existing engine (sharing its caches with other users),
    /// running the axiomatic prover alone.
    pub fn with_engine(engine: DepEngine) -> DepTest {
        DepTest::with_portfolio(Portfolio::new(engine, PortfolioConfig::axiomatic_only()))
    }

    /// A tester whose prover queries run through `portfolio` — its
    /// roster, its engine's caches, and its tallies (share a
    /// [`crate::TallySink`] to aggregate many short-lived testers).
    pub fn with_portfolio(portfolio: Portfolio) -> DepTest {
        DepTest {
            portfolio,
            layout: FieldLayout::new(),
        }
    }

    /// The engine backing this tester.
    pub fn engine(&self) -> &DepEngine {
        self.portfolio.engine()
    }

    /// The portfolio every prover query runs through.
    pub fn portfolio(&self) -> &Portfolio {
        &self.portfolio
    }

    /// Attaches a byte-level [`FieldLayout`], refining the field-overlap
    /// test (unions, packed layouts).
    #[must_use]
    pub fn with_layout(mut self, layout: FieldLayout) -> DepTest {
        self.layout = layout;
        self
    }

    /// Runs the dependence test between references `s` (earlier statement)
    /// and `t` (later statement); at least one is assumed to be a write
    /// with no intervening write to `s`'s location.
    ///
    /// When the two access paths share a handle the origin relation is
    /// [`HandleRelation::Same`]; otherwise the caller-supplied `relation`
    /// describes what is known about the two handles (§4.1: "its accuracy
    /// depends on knowing the relationship between the two handles").
    ///
    /// ```
    /// use apt_axioms::adds::leaf_linked_tree_axioms;
    /// use apt_core::{AccessPath, Answer, DepTest, Handle, HandleRelation, MemRef};
    /// use apt_regex::Path;
    ///
    /// let axioms = leaf_linked_tree_axioms();
    /// let tester = DepTest::new(&axioms);
    /// let hroot = Handle::for_variable("root");
    /// let s = MemRef::new(
    ///     AccessPath::new(hroot.clone(), Path::parse("L.L.N").unwrap()),
    ///     "d",
    /// );
    /// let t = MemRef::new(
    ///     AccessPath::new(hroot, Path::parse("L.R.N").unwrap()),
    ///     "d",
    /// );
    /// let outcome = tester.test(&s, &t, HandleRelation::Unknown);
    /// assert_eq!(outcome.answer, Answer::No);
    /// ```
    pub fn test(&self, s: &MemRef, t: &MemRef, relation: HandleRelation) -> TestOutcome {
        match self.plan(s, t, relation) {
            TestPlan::Done(outcome) => outcome,
            TestPlan::Prove { equal, disjoint } => {
                // Sequential short-circuit: a proven equality settles the
                // test, and the first unproven disjointness case does too.
                let planned = disjoint.len();
                let equal_outcome = equal.map(|q| self.portfolio.run(&q));
                if let Some(eq) = &equal_outcome {
                    if eq.verdict.answer == Answer::Yes {
                        return Self::assemble(planned, equal_outcome.as_ref(), &[]);
                    }
                }
                let mut disjoint_outcomes = Vec::with_capacity(planned);
                for q in disjoint {
                    let out = self.portfolio.run(&q);
                    // Anything but a proven-disjoint case settles the
                    // test: a Maybe leaves it unproven, a witnessed
                    // dependence answers Yes outright.
                    let settled = out.verdict.answer != Answer::No;
                    disjoint_outcomes.push(out);
                    if settled {
                        break;
                    }
                }
                Self::assemble(planned, equal_outcome.as_ref(), &disjoint_outcomes)
            }
        }
    }

    /// Runs many dependence tests as one engine batch over `jobs` worker
    /// threads.
    ///
    /// Verdict-identical to calling [`DepTest::test`] per triple, but the
    /// prover work fans out in parallel, structurally identical subgoals
    /// across tests run once, and all tests share the engine caches. The
    /// only observable difference is in the work counters: batch execution
    /// is eager (no cross-query short-circuiting), so `stats` may count
    /// queries a sequential run would have skipped.
    pub fn test_batch(
        &self,
        tests: &[(MemRef, MemRef, HandleRelation)],
        jobs: usize,
    ) -> Vec<TestOutcome> {
        // Plan every test, flattening prover queries into one batch while
        // remembering which slots belong to whom.
        struct Slots {
            equal: Option<usize>,
            disjoint: std::ops::Range<usize>,
            planned: usize,
        }
        let mut plans = Vec::with_capacity(tests.len());
        let mut queries: Vec<DepQuery> = Vec::new();
        for (s, t, relation) in tests {
            match self.plan(s, t, *relation) {
                TestPlan::Done(outcome) => plans.push(Err(outcome)),
                TestPlan::Prove { equal, disjoint } => {
                    let equal_slot = equal.map(|q| {
                        queries.push(q);
                        queries.len() - 1
                    });
                    let start = queries.len();
                    let planned = disjoint.len();
                    queries.extend(disjoint);
                    plans.push(Ok(Slots {
                        equal: equal_slot,
                        disjoint: start..queries.len(),
                        planned,
                    }));
                }
            }
        }
        let outcomes = self.portfolio.run_batch(&queries, jobs);
        plans
            .into_iter()
            .map(|plan| match plan {
                Err(outcome) => outcome,
                Ok(slots) => Self::assemble(
                    slots.planned,
                    slots.equal.map(|i| &outcomes[i]),
                    &outcomes[slots.disjoint],
                ),
            })
            .collect()
    }

    /// The cheap pre-checks of `deptest`, and the prover queries to run
    /// when they don't settle the test.
    fn plan(&self, s: &MemRef, t: &MemRef, relation: HandleRelation) -> TestPlan {
        // Step 1: different structure types cannot overlap (safe in ANSI C
        // under the paper's casting assumptions).
        if let (Some(ts), Some(tt)) = (&s.type_name, &t.type_name) {
            if ts != tt {
                return TestPlan::Done(TestOutcome::simple(Answer::No, Reason::TypeMismatch));
            }
        }
        // Step 2: fields that occupy disjoint storage cannot conflict.
        if !self.layout.overlaps(s.field, t.field) {
            return TestPlan::Done(TestOutcome::simple(Answer::No, Reason::FieldsDisjoint));
        }

        let same_handle = s.access.handle == t.access.handle;
        let relation = if same_handle {
            HandleRelation::Same
        } else {
            relation
        };

        // Step 3: definite dependence — identical singleton paths from the
        // same vertex, or (via the prover) paths provably equal through
        // the equality axioms (cycles: `next.prev.next ≡ next`).
        let mut equal = None;
        if relation == HandleRelation::Same {
            let syntactic = s.access.path == t.access.path && s.access.path.is_definite();
            if syntactic {
                return TestPlan::Done(TestOutcome::simple(
                    Answer::Yes,
                    Reason::IdenticalSingletonPaths,
                ));
            }
            equal = Some(DepQuery::equal(&s.access.path, &t.access.path));
        }

        // Step 4: attempt to prove no dependence, per origin case.
        let origins: &[Origin] = match relation {
            HandleRelation::Same => &[Origin::Same],
            HandleRelation::Distinct => &[Origin::Distinct],
            HandleRelation::Unknown => &[Origin::Same, Origin::Distinct],
        };
        let disjoint = origins
            .iter()
            .map(|&origin| DepQuery::disjoint(&s.access.path, &t.access.path).origin(origin))
            .collect();
        TestPlan::Prove { equal, disjoint }
    }

    /// Combines query outcomes into the test verdict. `planned` is the
    /// number of disjointness cases the plan called for; `disjoint` may be
    /// shorter when a sequential run short-circuited at an unproven case.
    fn assemble(planned: usize, equal: Option<&Outcome>, disjoint: &[Outcome]) -> TestOutcome {
        let mut stats = crate::ProverStats::default();
        if let Some(eq) = equal {
            stats.merge(&eq.stats);
        }
        for out in disjoint {
            stats.merge(&out.stats);
        }
        // A degraded equality search can only miss a Yes; remember why so
        // a final Maybe reports the earliest resource pressure.
        let mut degraded: Option<MaybeReason> = None;
        if let Some(eq) = equal {
            if eq.verdict.answer == Answer::Yes {
                return TestOutcome {
                    answer: Answer::Yes,
                    reason: Reason::IdenticalSingletonPaths,
                    maybe: None,
                    proofs: Vec::new(),
                    stats,
                    witness: None,
                    engine: Some(eq.engine),
                };
            }
            degraded = eq.verdict.reason.filter(|r| r.is_degraded());
        }
        // Cases settle on the *verdict*: a proven case carries its proof,
        // and the refuter answers Yes with a witness heap instead.
        let mut proofs = Vec::new();
        let mut proven_cases = 0usize;
        let mut last_engine = None;
        for out in disjoint {
            match out.verdict.answer {
                Answer::No => {
                    proven_cases += 1;
                    last_engine = Some(out.engine);
                    if let Some(p) = &out.proof {
                        proofs.push(p.clone());
                    }
                }
                Answer::Yes => {
                    // A concrete dependence witness for one origin case
                    // settles the whole test: the witnessed heap is
                    // admissible, so no sound tester may answer No.
                    return TestOutcome {
                        answer: Answer::Yes,
                        reason: Reason::WitnessedDependence,
                        maybe: None,
                        proofs: Vec::new(),
                        stats,
                        witness: out.witness.clone(),
                        engine: Some(out.engine),
                    };
                }
                Answer::Maybe => {
                    let maybe = degraded
                        .or(out.verdict.reason)
                        .unwrap_or(MaybeReason::GenuinelyUnknown);
                    return TestOutcome {
                        answer: Answer::Maybe,
                        reason: Reason::Unproven,
                        maybe: Some(maybe),
                        proofs: Vec::new(),
                        stats,
                        witness: None,
                        engine: None,
                    };
                }
            }
        }
        if proven_cases == planned {
            TestOutcome {
                answer: Answer::No,
                reason: Reason::ProvenDisjoint,
                maybe: None,
                proofs,
                stats,
                witness: None,
                engine: last_engine,
            }
        } else {
            // Defensive: a plan that produced fewer outcomes than cases
            // (cannot happen through test/test_batch) stays conservative.
            TestOutcome {
                answer: Answer::Maybe,
                reason: Reason::Unproven,
                maybe: Some(MaybeReason::GenuinelyUnknown),
                proofs: Vec::new(),
                stats,
                witness: None,
                engine: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_axioms::adds;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn mem(handle: &Handle, path: &str, field: &str) -> MemRef {
        MemRef::new(AccessPath::new(handle.clone(), p(path)), field)
    }

    #[test]
    fn type_mismatch_is_no() {
        let axioms = AxiomSet::new();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("x");
        let s = mem(&h, "L", "d").with_type("Tree");
        let t = mem(&h, "L", "d").with_type("List");
        let o = tester.test(&s, &t, HandleRelation::Same);
        assert_eq!(o.answer, Answer::No);
        assert_eq!(o.reason, Reason::TypeMismatch);
    }

    #[test]
    fn union_fields_overlap_with_layout() {
        let axioms = adds::leaf_linked_tree_axioms();
        let mut layout = FieldLayout::new();
        layout.set("as_int", 0, 4).unwrap();
        layout.set("as_float", 0, 4).unwrap();
        layout.set("tag", 4, 1).unwrap();
        let tester = DepTest::new(&axioms).with_layout(layout);
        let h = Handle::for_variable("x");
        // Same vertex through overlapping union arms: a definite
        // dependence.
        let o = tester.test(
            &mem(&h, "L", "as_int"),
            &mem(&h, "L", "as_float"),
            HandleRelation::Same,
        );
        assert_eq!(o.answer, Answer::Yes);
        // Disjoint ranges still short-circuit to No.
        let o = tester.test(
            &mem(&h, "L", "as_int"),
            &mem(&h, "L", "tag"),
            HandleRelation::Same,
        );
        assert_eq!(o.answer, Answer::No);
        assert_eq!(o.reason, Reason::FieldsDisjoint);
    }

    #[test]
    fn layout_defaults_match_plain_field_test() {
        let mut layout = FieldLayout::new();
        layout.set("a", 0, 8).unwrap();
        assert!(layout.overlaps("a", "a"));
        assert!(layout.overlaps("unregistered", "unregistered"));
        assert!(!layout.overlaps("a", "unregistered"));
        assert!(!layout.overlaps("x", "y"));
    }

    #[test]
    fn zero_sized_field_is_rejected_not_recorded() {
        let mut layout = FieldLayout::new();
        let err = layout.set("ghost", 0, 0).unwrap_err();
        assert!(err.to_string().contains("ghost"));
        // The rejected field was not recorded: it behaves like any other
        // unregistered field (disjoint from everything but itself).
        assert!(layout.overlaps("ghost", "ghost"));
        assert!(!layout.overlaps("ghost", "other"));
    }

    #[test]
    fn batch_matches_sequential_tests() {
        let axioms = adds::leaf_linked_tree_axioms();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("root");
        let h2 = Handle::for_variable("q");
        let tests: Vec<(MemRef, MemRef, HandleRelation)> = vec![
            (
                mem(&h, "L.L.N", "d"),
                mem(&h, "L.R.N", "d"),
                HandleRelation::Same,
            ),
            (
                mem(&h, "L.L.N", "d"),
                mem(&h, "L.L.N", "d"),
                HandleRelation::Same,
            ),
            (mem(&h, "N*", "d"), mem(&h, "N*", "d"), HandleRelation::Same),
            (
                mem(&h, "N", "d"),
                mem(&h2, "N", "d"),
                HandleRelation::Distinct,
            ),
            (mem(&h, "L", "d"), mem(&h, "L", "e"), HandleRelation::Same),
        ];
        let sequential: Vec<(Answer, Reason)> = tests
            .iter()
            .map(|(s, t, r)| {
                let o = tester.test(s, t, *r);
                (o.answer, o.reason.clone())
            })
            .collect();
        for jobs in [1, 3] {
            let batch: Vec<(Answer, Reason)> = tester
                .test_batch(&tests, jobs)
                .into_iter()
                .map(|o| (o.answer, o.reason))
                .collect();
            assert_eq!(batch, sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn distinct_fields_is_no() {
        let axioms = AxiomSet::new();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("x");
        let o = tester.test(&mem(&h, "L", "d"), &mem(&h, "L", "e"), HandleRelation::Same);
        assert_eq!(o.answer, Answer::No);
        assert_eq!(o.reason, Reason::FieldsDisjoint);
    }

    #[test]
    fn identical_definite_paths_is_yes() {
        let axioms = adds::leaf_linked_tree_axioms();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("root");
        let o = tester.test(
            &mem(&h, "L.L.N", "d"),
            &mem(&h, "L.L.N", "d"),
            HandleRelation::Same,
        );
        assert_eq!(o.answer, Answer::Yes);
        assert_eq!(o.reason, Reason::IdenticalSingletonPaths);
    }

    #[test]
    fn identical_starred_paths_is_maybe() {
        // N* = N* is NOT a definite dependence: the sets have many members.
        let axioms = adds::leaf_linked_tree_axioms();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("root");
        let o = tester.test(
            &mem(&h, "N*", "d"),
            &mem(&h, "N*", "d"),
            HandleRelation::Same,
        );
        assert_eq!(o.answer, Answer::Maybe);
    }

    #[test]
    fn paper_example_no_dependence() {
        let axioms = adds::leaf_linked_tree_axioms();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("root");
        let o = tester.test(
            &mem(&h, "L.L.N", "d"),
            &mem(&h, "L.R.N", "d"),
            HandleRelation::Same,
        );
        assert_eq!(o.answer, Answer::No);
        assert_eq!(o.reason, Reason::ProvenDisjoint);
        assert_eq!(o.proofs.len(), 1);
        assert!(o.stats.goals_attempted > 0);
    }

    #[test]
    fn different_handles_unknown_requires_both_cases() {
        let axioms = adds::leaf_linked_tree_axioms();
        let tester = DepTest::new(&axioms);
        let h1 = Handle::for_variable("p");
        let h2 = Handle::for_variable("q");
        // N from two unknown handles: same-origin case fails (x.N vs x.N
        // can coincide)… wait, identical single path from same vertex DOES
        // coincide, so answer must be Maybe.
        let o = tester.test(
            &mem(&h1, "N", "d"),
            &mem(&h2, "N", "d"),
            HandleRelation::Unknown,
        );
        assert_eq!(o.answer, Answer::Maybe);
        // With the handles known distinct, A3 proves independence.
        let o = tester.test(
            &mem(&h1, "N", "d"),
            &mem(&h2, "N", "d"),
            HandleRelation::Distinct,
        );
        assert_eq!(o.answer, Answer::No);
        assert_eq!(o.proofs.len(), 1);
    }

    #[test]
    fn unknown_relation_provable_when_both_cases_hold() {
        let axioms = adds::leaf_linked_tree_axioms();
        let tester = DepTest::new(&axioms);
        let h1 = Handle::for_variable("p");
        let h2 = Handle::for_variable("q");
        // x.L vs y.R: same-origin by A1, distinct-origin by A2.
        let o = tester.test(
            &mem(&h1, "L", "d"),
            &mem(&h2, "R", "d"),
            HandleRelation::Unknown,
        );
        assert_eq!(o.answer, Answer::No);
        assert_eq!(o.proofs.len(), 2);
    }

    #[test]
    fn same_handle_overrides_relation_argument() {
        let axioms = adds::leaf_linked_tree_axioms();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("root");
        // Caller passes Distinct, but the handles are literally the same
        // handle — the tester must treat the origins as equal.
        let o = tester.test(
            &mem(&h, "L.L.N", "d"),
            &mem(&h, "L.L.N", "d"),
            HandleRelation::Distinct,
        );
        assert_eq!(o.answer, Answer::Yes);
    }

    #[test]
    fn equality_axioms_yield_definite_yes() {
        // Circular doubly-linked list: head.next.prev.next is head.next.
        let axioms = AxiomSet::parse(
            "C1: forall p, p.next.prev = p.eps\n\
             C2: forall p, p.prev.next = p.eps",
        )
        .unwrap();
        let tester = DepTest::new(&axioms);
        let h = Handle::for_variable("head");
        let o = tester.test(
            &mem(&h, "next.prev.next", "d"),
            &mem(&h, "next", "d"),
            HandleRelation::Same,
        );
        assert_eq!(o.answer, Answer::Yes);
        assert_eq!(o.reason, Reason::IdenticalSingletonPaths);
        // Without the cycle laws, the same query is only Maybe.
        let bare = AxiomSet::new();
        let tester = DepTest::new(&bare);
        let o = tester.test(
            &mem(&h, "next.prev.next", "d"),
            &mem(&h, "next", "d"),
            HandleRelation::Same,
        );
        assert_eq!(o.answer, Answer::Maybe);
    }

    #[test]
    fn display_of_refs() {
        let h = Handle::new("_hroot");
        let m = mem(&h, "L.R.N", "d");
        assert_eq!(m.to_string(), "(_hroot.L.R.N)->d");
    }
}
