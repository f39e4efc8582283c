//! Hash-consed regular expressions with an epoch-scoped lifecycle.
//!
//! Every subset test the prover issues starts by asking "have I seen this
//! `(a, b)` pair before?". Keying those caches on `Display`-formatted
//! strings means two allocations and a full tree walk per lookup;
//! [`RegexId`] replaces that with a process-global hash-consing arena in
//! the style of [`crate::Symbol`]: structurally equal regexes intern to the
//! same small integer id, so cache keys are `(u32, u32)` pairs and
//! structural equality is one integer compare.
//!
//! # Lifecycle
//!
//! The arena used to be append-only — fine for a compiler pass, a real
//! leak for a resident daemon interning millions of distinct expressions.
//! Entries now carry a reference count of **live scopes** and the arena
//! reclaims slots when that count drains:
//!
//! * An [`ArenaScope`] is an epoch handle. A thread is *in* a scope from
//!   the moment it opens it until it drops it, and while it holds the
//!   guard of [`ArenaScope::enter`] (how an engine's worker threads join
//!   the engine's scope). Every intern (fresh insert *or* hash-cons hit)
//!   made by a thread that is in an open scope is charged to **all
//!   currently open scopes** — conservative over-retention, never
//!   under-retention. A per-entry generation marker dedupes the charge,
//!   so re-interning a hot expression a million times under a stable
//!   scope set records it once.
//! * Interning on a thread that is in **no open scope** pins the entry
//!   permanently — the pre-lifecycle behaviour, which is exactly right for
//!   CLI runs, standalone provers and tests. Whether *another* thread has
//!   a scope open does not matter: its scope would not outlive this
//!   thread's use of the id. [`RegexId::EMPTY`] and [`RegexId::EPSILON`]
//!   are pre-seeded pinned.
//! * Dropping a scope decrements its charged entries; entries reaching
//!   zero references (and not pinned) are compacted: their lookup key is
//!   removed, their slot goes on a free list for reuse, and
//!   [`arena_stats`] accounting shrinks. In `apt-serve`, each session's
//!   engine owns a scope, so LRU eviction *is* the compaction trigger and
//!   daemon RSS stays bounded under session churn.
//!
//! The validity contract follows: an id interned in a scope stays valid
//! while that scope (or any scope open at the time) lives; an id interned
//! outside every scope is valid forever. Because interning recurses through
//! children before the parent, a retained parent always retains its
//! children — no live entry can refer to a compacted slot. Using an id
//! after its last scope dropped panics with a "compacted" message rather
//! than returning garbage.

use crate::fx::FxHashMap;
use crate::{Regex, Symbol};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::mem::size_of;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Ids of the scopes this thread is in (opened here, or joined with
    /// [`ArenaScope::enter`]). A scope dropped on another thread lingers
    /// here until the next intern prunes it.
    static ENTERED: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An interned, hash-consed regular expression.
///
/// Two ids are equal iff the regexes are structurally equal (after the
/// smart-constructor simplifications already applied when the trees were
/// built). The derived `Ord` is the arena slot order — stable while the
/// ids live, but arbitrary; use it for dense keys, not for
/// canonicalization.
///
/// ```
/// use apt_regex::{parse, RegexId};
/// let a = RegexId::intern(&parse("(L|R)+.N").unwrap());
/// let b = RegexId::intern(&parse("(L|R)+.N").unwrap());
/// assert_eq!(a, b); // O(1) structural equality
/// assert_eq!(a.to_regex().to_string(), "(L|R)+.N");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegexId(u32);

/// One arena node, with children already interned. Hash-consing works on
/// this shallow shape: deep equality of trees reduces to shallow equality
/// of nodes over child ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Empty,
    Epsilon,
    Field(Symbol),
    Concat(RegexId, RegexId),
    Alt(RegexId, RegexId),
    Star(RegexId),
    Plus(RegexId),
}

struct Entry {
    /// The shallow shape, kept for reverse lookup removal on compaction.
    node: Node,
    /// The denoted tree, kept so `to_regex` is a clone of an `Arc`-shared
    /// top node rather than a rebuild.
    regex: Regex,
    nullable: bool,
    /// Symbols that can begin a word of the language (sorted, deduped).
    first: Box<[Symbol]>,
    /// Symbols that can end a word of the language (sorted, deduped).
    last: Box<[Symbol]>,
    /// Every symbol mentioned in the expression (sorted, deduped).
    symbols: Box<[Symbol]>,
    /// Outstanding scope charges (occurrences in scope charge logs).
    refs: u32,
    /// Permanently retained (interned outside any scope, or pre-seeded).
    pinned: bool,
    /// Scope-set generation of the last charge (dedup marker).
    touch_gen: u64,
}

enum Slot {
    Occupied(Box<Entry>),
    Vacant,
}

#[derive(Default)]
struct ScopeData {
    /// Entry slots charged to this scope. May contain duplicates when the
    /// active-scope set changed between charges; each occurrence matches
    /// exactly one `refs` increment, so drop decrements per occurrence.
    charged: Vec<u32>,
}

struct Arena {
    slots: Vec<Slot>,
    lookup: FxHashMap<Node, u32>,
    free: Vec<u32>,
    /// Open scopes by id (ordered for deterministic charging).
    scopes: BTreeMap<u64, ScopeData>,
    next_scope: u64,
    /// Bumped whenever the open-scope set changes; entries remember the
    /// generation of their last charge so a stable scope set charges each
    /// entry at most once.
    gen: u64,
    live_nodes: usize,
    live_bytes: usize,
    pinned_nodes: usize,
    freed_total: u64,
}

/// A point-in-time snapshot of the arena's occupancy, for memory
/// telemetry (`apt report`, the serve `stats` verb, bench JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Live interned nodes (occupied slots).
    pub live_nodes: usize,
    /// Approximate heap bytes behind the live nodes (slot + symbol-set
    /// storage; the shared `Regex` top nodes are counted shallowly).
    pub live_bytes: usize,
    /// Live nodes pinned forever (interned outside any scope).
    pub pinned_nodes: usize,
    /// Currently open [`ArenaScope`]s.
    pub active_scopes: usize,
    /// Nodes compacted over the process lifetime.
    pub freed_total: u64,
}

/// Sorted-set union of two symbol slices.
fn union_syms(a: &[Symbol], b: &[Symbol]) -> Box<[Symbol]> {
    let mut out: Vec<Symbol> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out.into_boxed_slice()
}

impl Arena {
    fn entry(&self, id: u32) -> &Entry {
        match &self.slots[id as usize] {
            Slot::Occupied(e) => e,
            Slot::Vacant => panic!(
                "RegexId({id}) used after its arena scope was compacted \
                 (ids are valid while the scope they were interned under lives)"
            ),
        }
    }

    /// Approximate heap footprint of one entry.
    fn entry_bytes(e: &Entry) -> usize {
        size_of::<Slot>()
            + size_of::<Entry>()
            + (e.first.len() + e.last.len() + e.symbols.len()) * size_of::<Symbol>()
            + size_of::<Regex>()
    }

    /// Charges `id` to the open scopes when the interning thread is in one
    /// (`scoped`), deduped per scope-set generation; pins it otherwise.
    fn touch(&mut self, id: u32, scoped: bool) {
        let gen = self.gen;
        let nscopes = self.scopes.len();
        let newly_pinned = {
            let Slot::Occupied(e) = &mut self.slots[id as usize] else {
                unreachable!("touch of vacant slot {id}");
            };
            if e.pinned {
                return;
            }
            if !scoped || nscopes == 0 {
                e.pinned = true;
                true
            } else {
                if e.touch_gen == gen {
                    return;
                }
                e.touch_gen = gen;
                e.refs += u32::try_from(nscopes).expect("scope count overflow");
                false
            }
        };
        if newly_pinned {
            self.pinned_nodes += 1;
        } else {
            for scope in self.scopes.values_mut() {
                scope.charged.push(id);
            }
        }
    }

    fn insert(&mut self, node: Node, regex: Regex, scoped: bool) -> RegexId {
        if let Some(&id) = self.lookup.get(&node) {
            self.touch(id, scoped);
            return RegexId(id);
        }
        let nullable = regex.is_nullable();
        // First/last/alphabet sets are assembled shallowly from the already
        // interned children — each node's sets are computed exactly once
        // for the node's lifetime, whatever the tree sharing looks like.
        let (first, last, symbols) = match node {
            Node::Empty | Node::Epsilon => {
                (Box::default(), Box::default(), Box::<[Symbol]>::default())
            }
            Node::Field(s) => {
                let one: Box<[Symbol]> = Box::new([s]);
                (one.clone(), one.clone(), one)
            }
            Node::Concat(a, b) => {
                let (ea, eb) = (self.entry(a.0), self.entry(b.0));
                let first = if ea.nullable {
                    union_syms(&ea.first, &eb.first)
                } else {
                    ea.first.clone()
                };
                let last = if eb.nullable {
                    union_syms(&eb.last, &ea.last)
                } else {
                    eb.last.clone()
                };
                (first, last, union_syms(&ea.symbols, &eb.symbols))
            }
            Node::Alt(a, b) => {
                let (ea, eb) = (self.entry(a.0), self.entry(b.0));
                (
                    union_syms(&ea.first, &eb.first),
                    union_syms(&ea.last, &eb.last),
                    union_syms(&ea.symbols, &eb.symbols),
                )
            }
            Node::Star(a) | Node::Plus(a) => {
                let ea = self.entry(a.0);
                (ea.first.clone(), ea.last.clone(), ea.symbols.clone())
            }
        };
        let entry = Box::new(Entry {
            node,
            regex,
            nullable,
            first,
            last,
            symbols,
            refs: 0,
            pinned: false,
            touch_gen: 0,
        });
        self.live_bytes += Self::entry_bytes(&entry);
        self.live_nodes += 1;
        let id = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Slot::Occupied(entry);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("regex interner overflow");
                self.slots.push(Slot::Occupied(entry));
                i
            }
        };
        self.lookup.insert(node, id);
        self.touch(id, scoped);
        RegexId(id)
    }

    fn intern(&mut self, re: &Regex, scoped: bool) -> RegexId {
        let node = match re {
            Regex::Empty => Node::Empty,
            Regex::Epsilon => Node::Epsilon,
            Regex::Field(s) => Node::Field(*s),
            Regex::Concat(a, b) => Node::Concat(self.intern(a, scoped), self.intern(b, scoped)),
            Regex::Alt(a, b) => Node::Alt(self.intern(a, scoped), self.intern(b, scoped)),
            Regex::Star(a) => Node::Star(self.intern(a, scoped)),
            Regex::Plus(a) => Node::Plus(self.intern(a, scoped)),
        };
        self.insert(node, re.clone(), scoped)
    }

    /// Whether the calling thread is in an open scope, dropping the ids
    /// of closed ones from its list.
    fn thread_in_scope(&self) -> bool {
        ENTERED
            .try_with(|entered| {
                let mut entered = entered.borrow_mut();
                entered.retain(|id| self.scopes.contains_key(id));
                !entered.is_empty()
            })
            .unwrap_or(false)
    }

    fn scope_open(&mut self) -> u64 {
        let id = self.next_scope;
        self.next_scope += 1;
        self.gen += 1;
        self.scopes.insert(id, ScopeData::default());
        id
    }

    fn scope_close(&mut self, scope: u64) {
        let Some(data) = self.scopes.remove(&scope) else {
            return;
        };
        self.gen += 1;
        for id in data.charged {
            let free_it = match &mut self.slots[id as usize] {
                Slot::Occupied(e) if !e.pinned => {
                    e.refs -= 1;
                    e.refs == 0
                }
                _ => false,
            };
            if free_it {
                self.free_entry(id);
            }
        }
    }

    fn free_entry(&mut self, id: u32) {
        let slot = std::mem::replace(&mut self.slots[id as usize], Slot::Vacant);
        let Slot::Occupied(e) = slot else {
            unreachable!("double free of arena slot {id}");
        };
        self.lookup.remove(&e.node);
        self.live_bytes = self.live_bytes.saturating_sub(Self::entry_bytes(&e));
        self.live_nodes -= 1;
        self.freed_total += 1;
        self.free.push(id);
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            live_nodes: self.live_nodes,
            live_bytes: self.live_bytes,
            pinned_nodes: self.pinned_nodes,
            active_scopes: self.scopes.len(),
            freed_total: self.freed_total,
        }
    }
}

fn arena() -> &'static Mutex<Arena> {
    static ARENA: OnceLock<Mutex<Arena>> = OnceLock::new();
    ARENA.get_or_init(|| {
        let mut arena = Arena {
            slots: Vec::new(),
            lookup: FxHashMap::default(),
            free: Vec::new(),
            scopes: BTreeMap::new(),
            next_scope: 0,
            gen: 1,
            live_nodes: 0,
            live_bytes: 0,
            pinned_nodes: 0,
            freed_total: 0,
        };
        // Pre-seed the two constants so RegexId::EMPTY / EPSILON are fixed
        // (inserted with no scope open, hence pinned forever).
        arena.insert(Node::Empty, Regex::Empty, false);
        arena.insert(Node::Epsilon, Regex::Epsilon, false);
        Mutex::new(arena)
    })
}

/// A point-in-time snapshot of arena occupancy.
pub fn arena_stats() -> ArenaStats {
    arena().lock().expect("regex interner poisoned").stats()
}

/// An open retention epoch on the global regex arena.
///
/// While the scope lives, every id interned by a thread in a scope (this
/// one or another) stays valid; dropping the scope releases its charges
/// and compacts entries no other scope (and no pin) still holds.
/// [`crate::Regex`] trees themselves are unaffected — only the id table
/// is scoped.
///
/// Typical ownership: one scope per long-lived engine, dropped when the
/// engine is evicted, so a daemon's arena footprint tracks its *resident*
/// sessions instead of its history.
#[derive(Debug)]
pub struct ArenaScope {
    id: u64,
}

impl ArenaScope {
    /// Opens a new retention epoch. The calling thread is in it until the
    /// scope drops.
    pub fn new() -> ArenaScope {
        let scope = ArenaScope::detached();
        ENTERED.with(|entered| entered.borrow_mut().push(scope.id));
        scope
    }

    /// Opens a new retention epoch that no thread is in until it
    /// [`ArenaScope::enter`]s. For a scope that outlives the call opening
    /// it, such as a warm engine kept for later requests: with
    /// [`ArenaScope::new`] the opening thread would stay in it, and all
    /// its later interning would be charged here instead of pinned.
    pub fn detached() -> ArenaScope {
        let id = arena()
            .lock()
            .expect("regex interner poisoned")
            .scope_open();
        ArenaScope { id }
    }

    /// Puts the calling thread in this scope until the guard drops, so
    /// what it interns meanwhile is charged here instead of pinned. An
    /// engine's worker threads enter the engine's scope this way.
    pub fn enter(&self) -> EnteredScope<'_> {
        ENTERED.with(|entered| entered.borrow_mut().push(self.id));
        EnteredScope {
            scope: self,
            _not_send: PhantomData,
        }
    }
}

/// Removes one entry for `id` from the calling thread's scope list.
fn leave(id: u64) {
    // Ignore a thread already tearing down its locals.
    let _ = ENTERED.try_with(|entered| {
        let mut entered = entered.borrow_mut();
        if let Some(pos) = entered.iter().rposition(|&e| e == id) {
            entered.remove(pos);
        }
    });
}

/// The calling thread's membership in an [`ArenaScope`], from
/// [`ArenaScope::enter`]. Bound to the thread that entered.
#[derive(Debug)]
pub struct EnteredScope<'a> {
    scope: &'a ArenaScope,
    _not_send: PhantomData<*const ()>,
}

impl Drop for EnteredScope<'_> {
    fn drop(&mut self) {
        leave(self.scope.id);
    }
}

impl Default for ArenaScope {
    fn default() -> ArenaScope {
        ArenaScope::new()
    }
}

impl Drop for ArenaScope {
    fn drop(&mut self) {
        leave(self.id);
        if let Ok(mut guard) = arena().lock() {
            guard.scope_close(self.id);
        }
    }
}

impl RegexId {
    /// The id of the empty language `∅`.
    pub const EMPTY: RegexId = RegexId(0);

    /// The id of the empty path `ε`.
    pub const EPSILON: RegexId = RegexId(1);

    /// Interns `re`, returning its canonical id. Structurally equal trees
    /// (from any allocation) intern to the same id. The id stays valid
    /// while any [`ArenaScope`] open right now lives when the calling
    /// thread is in one — forever, when it is in none.
    pub fn intern(re: &Regex) -> RegexId {
        let mut arena = arena().lock().expect("regex interner poisoned");
        let scoped = arena.thread_in_scope();
        arena.intern(re, scoped)
    }

    /// The interned expression tree (cheap: clones a shared top node).
    pub fn to_regex(self) -> Regex {
        arena()
            .lock()
            .expect("regex interner poisoned")
            .entry(self.0)
            .regex
            .clone()
    }

    /// Whether the denoted language is `∅`. O(1): `∅` has a fixed id and
    /// the smart constructors never bury `∅` inside a composite node.
    pub fn is_empty_language(self) -> bool {
        self == RegexId::EMPTY
    }

    /// Whether the language contains ε (memoized at intern time).
    pub fn is_nullable(self) -> bool {
        arena()
            .lock()
            .expect("regex interner poisoned")
            .entry(self.0)
            .nullable
    }

    /// The symbols that can begin a word of the language (memoized at
    /// intern time; sorted, deduplicated). Matches
    /// [`crate::Regex::first_symbols`].
    pub fn first_symbols(self) -> Vec<Symbol> {
        arena()
            .lock()
            .expect("regex interner poisoned")
            .entry(self.0)
            .first
            .to_vec()
    }

    /// The symbols that can end a word of the language (memoized at intern
    /// time; sorted, deduplicated). Matches [`crate::Regex::last_symbols`].
    pub fn last_symbols(self) -> Vec<Symbol> {
        arena()
            .lock()
            .expect("regex interner poisoned")
            .entry(self.0)
            .last
            .to_vec()
    }

    /// Every symbol mentioned in the expression (memoized at intern time;
    /// sorted, deduplicated). Matches [`crate::Regex::symbols`].
    pub fn symbols(self) -> Vec<Symbol> {
        arena()
            .lock()
            .expect("regex interner poisoned")
            .entry(self.0)
            .symbols
            .to_vec()
    }

    /// One locked probe returning the dispatch profile the prover needs:
    /// `(nullable, first, last, symbols)`.
    pub fn profile(self) -> (bool, Vec<Symbol>, Vec<Symbol>, Vec<Symbol>) {
        let guard = arena().lock().expect("regex interner poisoned");
        let e = guard.entry(self.0);
        (
            e.nullable,
            e.first.to_vec(),
            e.last.to_vec(),
            e.symbols.to_vec(),
        )
    }

    /// The raw arena slot index, useful as a dense array key while the id
    /// lives.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RegexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegexId({} = {})", self.0, self.to_regex())
    }
}

impl fmt::Display for RegexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_regex().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn intern_is_idempotent_and_structural() {
        let a = RegexId::intern(&parse("(L|R)+.N+").unwrap());
        let b = RegexId::intern(&parse("(L|R)+.N+").unwrap());
        assert_eq!(a, b);
        // Structurally different expression, even if language-equal:
        let c = RegexId::intern(&parse("(L|R)+.N.N*").unwrap());
        assert_ne!(a, c);
    }

    #[test]
    fn constants_are_fixed() {
        assert_eq!(RegexId::intern(&Regex::empty()), RegexId::EMPTY);
        assert_eq!(RegexId::intern(&Regex::epsilon()), RegexId::EPSILON);
        assert!(RegexId::EMPTY.is_empty_language());
        assert!(!RegexId::EPSILON.is_empty_language());
        assert!(RegexId::EPSILON.is_nullable());
        assert!(!RegexId::EMPTY.is_nullable());
    }

    #[test]
    fn round_trips_the_tree() {
        for text in ["L.L.N", "(L|R)+.N+", "N*", "eps", "empty", "(a.b)*|c+"] {
            let re = parse(text).unwrap();
            let id = RegexId::intern(&re);
            assert_eq!(id.to_regex(), re, "{text}");
            assert_eq!(id.to_string(), re.to_string());
            assert_eq!(id.is_nullable(), re.is_nullable());
        }
    }

    #[test]
    fn subterms_share_ids() {
        let whole = parse("(L|R).N").unwrap();
        let part = parse("L|R").unwrap();
        let _ = RegexId::intern(&whole);
        let before = RegexId::intern(&part);
        // Interning the subterm again allocates nothing new.
        assert_eq!(RegexId::intern(&part), before);
    }

    #[test]
    fn concurrent_interning_converges() {
        let re = parse("(x|y)+.z").unwrap();
        let ids: Vec<RegexId> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let re = re.clone();
                    scope.spawn(move || RegexId::intern(&re))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn unscoped_interns_are_pinned_and_stats_track_them() {
        let before = arena_stats();
        // A fresh expression interned with no scope open must stay live.
        let id = RegexId::intern(&parse("pinned0.pinned1.pinned2").unwrap());
        let after = arena_stats();
        assert!(after.live_nodes >= before.live_nodes);
        assert!(after.live_bytes > 0);
        assert_eq!(id.to_regex().to_string(), "pinned0.pinned1.pinned2");
    }

    #[test]
    fn scoped_entries_are_reclaimed_on_last_scope_drop() {
        // Serialized against other scope tests via unique symbols only —
        // concurrent tests may open their own scopes, which merely makes
        // retention conservative (never unsound), so only check that the
        // entry dies once every scope open during its life is gone.
        let scope = ArenaScope::new();
        let re = parse("lifecycleA.lifecycleB.lifecycleC").unwrap();
        let id = RegexId::intern(&re);
        assert_eq!(id.to_regex(), re);
        let live_before_drop = arena_stats().live_nodes;
        drop(scope);
        // Unless another concurrently open scope charged it, the entry is
        // gone; re-interning mints a fresh (possibly reused) slot either
        // way and the arena did not grow.
        let re2 = RegexId::intern(&re);
        assert_eq!(re2.to_regex(), re);
        assert!(arena_stats().live_nodes <= live_before_drop + 3);
    }

    #[test]
    fn overlapping_scopes_retain_shared_entries() {
        let a = ArenaScope::new();
        let id = RegexId::intern(&parse("sharedX.sharedY").unwrap());
        let b = ArenaScope::new();
        // Touch under the new scope set so `b` also charges it.
        let id2 = RegexId::intern(&parse("sharedX.sharedY").unwrap());
        assert_eq!(id, id2);
        drop(a);
        // Still valid: scope b holds it.
        assert_eq!(id.to_regex().to_string(), "sharedX.sharedY");
        drop(b);
    }

    #[test]
    fn freed_slots_are_reused() {
        let freed_before = arena_stats().freed_total;
        {
            let _scope = ArenaScope::new();
            let _ = RegexId::intern(&parse("reuse0.reuse1").unwrap());
        }
        let freed_after = arena_stats().freed_total;
        // The scope's private entries were compacted (other concurrently
        // open scopes can delay this; tolerate but don't require exact).
        assert!(freed_after >= freed_before);
    }
}
