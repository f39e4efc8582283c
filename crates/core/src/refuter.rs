//! The bounded concrete-heap refuter.
//!
//! "Bounded Model Checking of Pointer Programs Revisited" (Charatonik &
//! Witkowski) observes that for heap-manipulating programs a *small-heap
//! witness search* is a practical complement to a prover: when the
//! axiomatic engine gives up with `Maybe`, a concrete heap of a handful
//! of nodes frequently exists that satisfies every structure axiom and
//! makes the two access paths collide — a definite **dependence**
//! verdict, carrying evidence a client can re-check.
//!
//! Blind enumeration of k-node heaps is hopeless (heaps over `n` nodes
//! and `f` fields number `(n+1)^(n·f)`; 244 million at `n = 4, f = 3`),
//! so the search here is goal-directed: enumerate bounded *word pairs*
//! `(u, v) ∈ L(a) × L(b)` with [`shortest_words`], and for each pair
//! build only the candidate heaps in which `origin.u` and `origin.v` land
//! on the same node — chains, shared-prefix merges, and (for distinct
//! origins) placements of the second origin along the first chain. Words
//! come shortest first, ties by field name, so the `max_words` kept never
//! depend on the order fields were interned in. Each candidate is then
//! judged by the *existing* trusted machinery: [`check_set`] must accept
//! the heap under the full axiom set, and the collision is re-executed
//! with [`HeapGraph::targets`] before it is surfaced as a [`Witness`]. The
//! refuter can therefore never be wrong about a `Yes` — a bad candidate is
//! merely skipped — and its verdicts are re-validated downstream exactly
//! like proofs are re-checked under the forged-proof discipline.
//!
//! [`check_set`]: apt_axioms::check_set
//! [`shortest_words`]: apt_regex::sample::shortest_words

use crate::config::Budget;
use crate::goal::Origin;
use crate::portfolio::Witness;
use crate::verdict::{MaybeReason, SearchLimit};
use apt_axioms::check::check_set;
use apt_axioms::graph::{HeapGraph, NodeId};
use apt_axioms::AxiomSet;
use apt_regex::sample::shortest_words;
use apt_regex::{Path, Symbol};
use std::time::Instant;

/// Bounds for the witness search.
#[derive(Debug, Clone)]
pub struct RefuterConfig {
    /// Largest candidate heap, in nodes. Word lengths are derived from
    /// this (a chain of `ℓ` fields needs `ℓ + 1` nodes).
    pub max_heap_nodes: usize,
    /// Cap on enumerated words per path language.
    pub max_words: usize,
    /// Cap on candidate heaps tried before giving up.
    pub max_candidates: usize,
}

impl Default for RefuterConfig {
    fn default() -> Self {
        RefuterConfig {
            max_heap_nodes: 8,
            max_words: 64,
            max_candidates: 4096,
        }
    }
}

/// What the bounded search concluded.
#[derive(Debug, Clone)]
pub enum RefuterOutcome {
    /// A concrete axiom-satisfying heap in which the two paths collide.
    Witness(Witness),
    /// The bounded space was exhausted without a collision (says nothing
    /// about larger heaps).
    Exhausted,
    /// The search was stopped early by the budget.
    Stopped(MaybeReason),
}

/// How often deadline/cancellation are polled, in candidates.
const STOP_CHECK_INTERVAL: usize = 32;

struct Enumeration<'a> {
    axioms: &'a AxiomSet,
    origin: Origin,
    a: &'a Path,
    b: &'a Path,
    deadline: Option<Instant>,
    cancel: Option<crate::config::CancelToken>,
    max_nodes: usize,
    candidates_left: usize,
    tried: u64,
}

impl Enumeration<'_> {
    fn stop_reason(&self) -> Option<MaybeReason> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Some(MaybeReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(MaybeReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Judge one candidate: axioms must hold and the collision must
    /// survive re-execution of both full path languages.
    fn judge(
        &mut self,
        heap: &HeapGraph,
        p_origin: NodeId,
        q_origin: NodeId,
        meet: NodeId,
    ) -> Option<Witness> {
        self.tried += 1;
        if heap.len() > self.max_nodes {
            return None;
        }
        if check_set(heap, self.axioms).is_err() {
            return None;
        }
        let ra = self.a.to_regex();
        let rb = self.b.to_regex();
        if !heap.targets(p_origin, &ra).contains(&meet)
            || !heap.targets(q_origin, &rb).contains(&meet)
        {
            return None;
        }
        let witness = Witness {
            nodes: heap.len(),
            edges: heap
                .iter_edges()
                .map(|(f, s, t)| (f.0, s.as_str().to_string(), t.0))
                .collect(),
            p_origin: p_origin.0,
            q_origin: q_origin.0,
            meet: meet.0,
        };
        // Belt and braces: the downstream validator must accept exactly
        // what we publish (it re-derives the heap from the edge list).
        witness
            .validate(self.axioms, self.origin, self.a, self.b)
            .ok()?;
        Some(witness)
    }
}

/// Extend `heap` from `from` along `word`, reusing existing edges and
/// forcing the final step onto `target`. Returns the node reached, or
/// `None` when an existing single-valued edge contradicts the forcing.
fn lay_word(
    heap: &mut HeapGraph,
    from: NodeId,
    word: &[Symbol],
    target: Option<NodeId>,
) -> Option<NodeId> {
    let mut at = from;
    for (i, &sym) in word.iter().enumerate() {
        let last = i + 1 == word.len();
        let forced = if last { target } else { None };
        at = match (heap.edge(at, sym), forced) {
            (Some(existing), Some(want)) => {
                if existing != want {
                    return None;
                }
                existing
            }
            (Some(existing), None) => existing,
            (None, Some(want)) => {
                heap.set_edge(at, sym, want);
                want
            }
            (None, None) => {
                let fresh = heap.add_node();
                heap.set_edge(at, sym, fresh);
                fresh
            }
        };
    }
    Some(at)
}

/// Search bounded concrete heaps for a dependence witness for
/// `origin ⊢ a <> b`. Only meaningful for disjointness queries — a
/// returned [`Witness`] refutes disjointness outright.
pub fn search(
    axioms: &AxiomSet,
    origin: Origin,
    a: &Path,
    b: &Path,
    budget: &Budget,
    config: &RefuterConfig,
) -> RefuterOutcome {
    let max_nodes = config.max_heap_nodes.max(1);
    let max_len = max_nodes.saturating_sub(1);
    let words_a = shortest_words(&a.to_regex(), max_len, config.max_words);
    let words_b = shortest_words(&b.to_regex(), max_len, config.max_words);
    if words_a.is_empty() || words_b.is_empty() {
        // One language is empty below the bound: no collision witness
        // can exist at this size.
        return RefuterOutcome::Exhausted;
    }

    let mut en = Enumeration {
        axioms,
        origin,
        a,
        b,
        deadline: budget.deadline.map(|d| Instant::now() + d),
        cancel: budget.cancel.clone(),
        max_nodes,
        candidates_left: config.max_candidates,
        tried: 0,
    };

    // Poll on the very first candidate too: a pre-cancelled token must
    // stop even a single-pair search.
    let mut since_check = STOP_CHECK_INTERVAL - 1;
    for u in &words_a {
        for v in &words_b {
            since_check += 1;
            if since_check >= STOP_CHECK_INTERVAL {
                since_check = 0;
                if let Some(reason) = en.stop_reason() {
                    return RefuterOutcome::Stopped(reason);
                }
            }
            if en.candidates_left == 0 {
                return RefuterOutcome::Stopped(MaybeReason::SearchExhausted(SearchLimit::Fuel));
            }
            let found = match origin {
                Origin::Same => try_same_origin(&mut en, u, v),
                Origin::Distinct => try_distinct_origins(&mut en, u, v),
            };
            if let Some(w) = found {
                return RefuterOutcome::Witness(w);
            }
        }
    }
    RefuterOutcome::Exhausted
}

/// Same handle on both sides: build the `u`-chain from the shared
/// origin, then lay `v` over it, forcing `v`'s end onto `u`'s end.
fn try_same_origin(en: &mut Enumeration<'_>, u: &[Symbol], v: &[Symbol]) -> Option<Witness> {
    en.candidates_left = en.candidates_left.saturating_sub(1);
    let mut heap = HeapGraph::new();
    let origin = heap.add_node();
    let end_u = lay_word(&mut heap, origin, u, None)?;
    let meet = if v.is_empty() {
        // `v = ε` collides only if `u` also ends at the origin.
        if end_u != origin {
            return None;
        }
        origin
    } else {
        lay_word(&mut heap, origin, v, Some(end_u))?
    };
    en.judge(&heap, origin, origin, meet)
}

/// Distinct handles: build the `u`-chain from `p`, then try every
/// placement of `q` — a fresh node, or any node strictly inside `u`'s
/// chain — laying `v` from it onto `u`'s end.
fn try_distinct_origins(en: &mut Enumeration<'_>, u: &[Symbol], v: &[Symbol]) -> Option<Witness> {
    // Chain skeleton shared by all placements; rebuilt per placement
    // because forcing edges mutates it.
    let placements = 1 + u.len();
    for placement in 0..placements {
        if en.candidates_left == 0 {
            return None;
        }
        en.candidates_left -= 1;
        let mut heap = HeapGraph::new();
        let p_origin = heap.add_node();
        let end_u = match lay_word(&mut heap, p_origin, u, None) {
            Some(n) => n,
            None => continue,
        };
        let q_origin = if placement == 0 {
            heap.add_node()
        } else {
            // Node after `placement` steps of `u` (never the origin:
            // the handles must be distinct).
            match lay_word(&mut heap, p_origin, &u[..placement], None) {
                Some(n) => n,
                None => continue,
            }
        };
        if q_origin == p_origin {
            continue;
        }
        let meet = if v.is_empty() {
            if end_u != q_origin {
                continue;
            }
            q_origin
        } else {
            match lay_word(&mut heap, q_origin, v, Some(end_u)) {
                Some(n) => n,
                None => continue,
            }
        };
        if let Some(w) = en.judge(&heap, p_origin, q_origin, meet) {
            return Some(w);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_axioms::adds;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn run(axioms: &AxiomSet, origin: Origin, a: &str, b: &str) -> RefuterOutcome {
        search(
            axioms,
            origin,
            &p(a),
            &p(b),
            &Budget::new(),
            &RefuterConfig::default(),
        )
    }

    #[test]
    fn finds_overlapping_leaf_paths() {
        // L.L.N vs L.L.N is a genuine dependence the prover reports as
        // Maybe; a 4-node chain witnesses it.
        let axioms = adds::leaf_linked_tree_axioms();
        match run(&axioms, Origin::Same, "L.L.N", "L.L.N") {
            RefuterOutcome::Witness(w) => {
                assert!(w
                    .validate(&axioms, Origin::Same, &p("L.L.N"), &p("L.L.N"))
                    .is_ok());
                assert_eq!(w.p_origin, w.q_origin);
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn finds_distinct_origin_list_overlap() {
        // Two cursors into one list: q may sit one step down from p, so
        // p.N.N and q.N alias.
        let axioms = AxiomSet::parse(
            "A1: forall p <> q, p.N <> q.N\n\
             A2: forall p, p.N+ <> p.eps",
        )
        .unwrap();
        match run(&axioms, Origin::Distinct, "N.N", "N") {
            RefuterOutcome::Witness(w) => {
                assert_ne!(w.p_origin, w.q_origin);
                assert!(w
                    .validate(&axioms, Origin::Distinct, &p("N.N"), &p("N"))
                    .is_ok());
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn respects_axioms_when_rejecting() {
        // Sibling subtrees are genuinely disjoint: every candidate heap
        // violates an axiom, so the search must exhaust, not fabricate.
        let axioms = adds::leaf_linked_tree_axioms();
        match run(&axioms, Origin::Same, "L.L.N", "L.R.N") {
            RefuterOutcome::Exhausted => {}
            other => panic!("expected exhausted, got {other:?}"),
        }
    }

    #[test]
    fn epsilon_word_same_origin() {
        // a = eps, b = eps: both paths are the handle itself.
        let axioms = adds::leaf_linked_tree_axioms();
        match run(&axioms, Origin::Same, "eps", "eps") {
            RefuterOutcome::Witness(w) => {
                assert_eq!(w.meet, w.p_origin);
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stops_search() {
        let token = crate::config::CancelToken::new();
        token.cancel();
        let axioms = adds::leaf_linked_tree_axioms();
        let out = search(
            &axioms,
            Origin::Same,
            &p("L.L.N"),
            &p("L.R.N"),
            &Budget::new().with_cancel(token),
            &RefuterConfig::default(),
        );
        match out {
            RefuterOutcome::Stopped(MaybeReason::Cancelled) => {}
            other => panic!("expected cancelled, got {other:?}"),
        }
    }

    #[test]
    fn candidate_cap_degrades_to_fuel() {
        let axioms = adds::leaf_linked_tree_axioms();
        let out = search(
            &axioms,
            Origin::Same,
            &p("(L|R)+.N"),
            &p("(L|R)+.N"),
            &Budget::new(),
            &RefuterConfig {
                max_heap_nodes: 8,
                max_words: 64,
                max_candidates: 0,
            },
        );
        match out {
            RefuterOutcome::Stopped(MaybeReason::SearchExhausted(SearchLimit::Fuel)) => {}
            other => panic!("expected fuel stop, got {other:?}"),
        }
    }
}
