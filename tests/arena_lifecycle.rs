//! Lifecycle tests for the epoch-scoped regex arena.
//!
//! The arena is process-global, so these tests serialize on one mutex:
//! a concurrently open scope from another test would (soundly but
//! unhelpfully) retain entries these assertions expect to see freed.
//! Each test also uses its own unique field symbols, so hash-consing
//! can never land its expressions on entries some other test pinned.

use apt::core::{Answer, DepEngine, DepQuery, MemorySample, Origin};
use apt::regex::{arena_stats, parse, ArenaScope, Path, RegexId};
use apt::serve::SessionRegistry;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn scoped_interns_are_reclaimed_and_pins_survive() {
    let _guard = serialize();
    let pinned = RegexId::intern(&parse("alcPinA.alcPinB").unwrap());
    let before = arena_stats();

    let scope = ArenaScope::new();
    let ids: Vec<RegexId> = (0..32)
        .map(|i| RegexId::intern(&parse(&format!("alcScopedA{i}.alcScopedB{i}")).unwrap()))
        .collect();
    let during = arena_stats();
    assert!(during.live_nodes > before.live_nodes);
    assert!(during.live_bytes > before.live_bytes);
    assert_eq!(during.active_scopes, before.active_scopes + 1);
    // Every scoped id is usable while the scope lives.
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(
            id.to_regex().to_string(),
            format!("alcScopedA{i}.alcScopedB{i}")
        );
    }

    drop(scope);
    let after = arena_stats();
    assert!(
        after.live_nodes < during.live_nodes,
        "dropping the only scope must compact its entries \
         ({} -> {})",
        during.live_nodes,
        after.live_nodes
    );
    assert!(after.live_bytes < during.live_bytes);
    assert!(after.freed_total > before.freed_total);
    // Entries interned outside any scope are pinned and stay valid.
    assert_eq!(pinned.to_regex().to_string(), "alcPinA.alcPinB");
}

#[test]
fn overlapping_scopes_keep_shared_ids_valid_across_compaction() {
    let _guard = serialize();
    let outer = ArenaScope::new();
    let shared = RegexId::intern(&parse("alcSharedX.alcSharedY+").unwrap());

    // Inner scopes churn through private expressions and die. Attribution
    // is conservative: while `outer` is open it is charged for every
    // intern too, so the churned entries are *retained* until the outer
    // epoch also closes — over-retention, never a dangle.
    let freed_before = arena_stats().freed_total;
    for round in 0..8 {
        let _inner = ArenaScope::new();
        // Re-touch the shared expression under the new scope set, then
        // intern round-private garbage.
        assert_eq!(
            RegexId::intern(&parse("alcSharedX.alcSharedY+").unwrap()),
            shared
        );
        for i in 0..16 {
            let _ = RegexId::intern(&parse(&format!("alcChurnR{round}n{i}.alcTail")).unwrap());
        }
    }
    let live_while_outer_held = arena_stats();
    // The shared id is valid throughout: some open scope always held it.
    assert_eq!(shared.to_regex().to_string(), "alcSharedX.alcSharedY+");
    assert!(!shared.is_nullable());

    // Closing the outer epoch releases its charges; everything the churn
    // created (shared expression included) is compacted now.
    drop(outer);
    let end = arena_stats();
    assert!(
        end.freed_total > freed_before,
        "closing the last holding epoch must compact the churned entries"
    );
    assert!(end.live_nodes < live_while_outer_held.live_nodes);
}

/// The serving-layer churn story end to end: sessions opened past the
/// registry cap evict LRU engines, each eviction drops the engine's
/// arena scope, and the arena footprint plateaus instead of growing with
/// the number of sets ever opened.
#[test]
fn session_churn_bounds_arena_growth() {
    let _guard = serialize();
    let registry = SessionRegistry::new(2);

    let axioms_for = |i: usize| {
        format!(
            "A1: forall p <> q, p.alcSesF{i} <> q.alcSesF{i}\n\
             A2: forall p, p.alcSesG{i}+ <> p.alcSesH{i}.alcSesG{i}*"
        )
    };

    // Warm-up: fill the registry to its cap, then record the footprint.
    for i in 0..2 {
        registry.open(&axioms_for(i)).expect("open");
    }
    let full = arena_stats();

    // Churn 24 more distinct sets through the 2-slot registry. Each open
    // beyond the cap evicts an engine, closing its scope.
    let mut peak = full.live_bytes;
    for i in 2..26 {
        let opened = registry.open(&axioms_for(i)).expect("open");
        assert!(!opened.deduped);
        peak = peak.max(arena_stats().live_bytes);
    }
    let end = arena_stats();
    assert!(
        end.freed_total > full.freed_total,
        "evictions must compact the evicted sessions' arena entries"
    );
    // Bounded growth: the resident footprint tracks the 2 live sessions,
    // not the 26 sets ever opened. Allow generous slack (3 sets' worth)
    // for the in-flight overlap window during each open.
    let per_set = (full.live_bytes.saturating_sub(0)) / 2;
    let slack = 3 * per_set.max(4096);
    assert!(
        end.live_bytes <= full.live_bytes + slack,
        "arena grew with churn: {} bytes after churn vs {} warm (peak {})",
        end.live_bytes,
        full.live_bytes,
        peak
    );

    // A session surviving the churn still answers queries — its ids were
    // charged to its own scope, which never closed.
    let last = registry.open(&axioms_for(25)).expect("reopen");
    assert!(last.deduped, "same text must dedupe onto the live session");
    let engine = registry.get(&last.session).expect("live engine");
    let p = Path::parse("alcSesF25").expect("path");
    let q = DepQuery::disjoint(&p, &p).origin(Origin::Distinct);
    let outcome = engine.run(&q);
    // A1 makes alcSesF25 injective, so distinct origins stay disjoint.
    assert_eq!(outcome.verdict.answer, Answer::No);
}

/// Ids held by a live engine never dangle, even while other engines are
/// created and destroyed in bulk around it.
#[test]
fn live_engine_ids_survive_neighbor_compaction() {
    let _guard = serialize();
    let set = apt::axioms::AxiomSet::parse(
        "K1: forall p <> q, p.alcLiveN <> q.alcLiveN\n\
         K2: forall p, p.alcLiveL+ <> p.alcLiveR+",
    )
    .expect("parse");
    let engine = DepEngine::new(set);
    let lhs_ids: Vec<RegexId> = engine.axioms().iter().map(|a| a.lhs_id()).collect();

    for i in 0..6 {
        let scratch = apt::axioms::AxiomSet::parse(&format!(
            "S1: forall p <> q, p.alcScratch{i} <> q.alcScratch{i}"
        ))
        .expect("parse");
        let neighbor = DepEngine::new(scratch);
        drop(neighbor);
    }

    // All of the engine's interned sides still resolve.
    for (axiom, id) in engine.axioms().iter().zip(&lhs_ids) {
        assert_eq!(id.to_regex(), axiom.lhs().clone());
    }
    let mem = MemorySample::take();
    assert!(mem.arena.live_nodes >= 2);
}

/// A scope belongs to the threads in it. An id interned on a thread in no
/// scope is pinned, even while another thread holds a scope open, so that
/// scope closing cannot compact it.
#[test]
fn unscoped_interns_survive_another_threads_scope() {
    let _guard = serialize();
    let (opened_tx, opened_rx) = std::sync::mpsc::channel();
    let (interned_tx, interned_rx) = std::sync::mpsc::channel::<()>();
    let id = std::thread::scope(|s| {
        s.spawn(move || {
            let scope = ArenaScope::new();
            opened_tx.send(()).expect("send");
            interned_rx.recv().expect("recv");
            drop(scope);
        });
        opened_rx.recv().expect("recv");
        let id = RegexId::intern(&parse("alcXthreadA.alcXthreadB+").unwrap());
        interned_tx.send(()).expect("send");
        id
    });
    assert_eq!(id.to_regex().to_string(), "alcXthreadA.alcXthreadB+");
    assert!(!id.is_nullable());
}

/// An engine's worker threads join its scope: what a parallel batch
/// interns is charged to the engine and reclaimed with it, never pinned.
#[test]
fn batch_worker_interns_are_charged_to_the_engine() {
    let _guard = serialize();
    let set =
        apt::axioms::AxiomSet::parse("W1: forall p, p.alcWorkL+ <> p.alcWorkR+").expect("parse");
    let pinned_before = arena_stats().pinned_nodes;
    let freed_before = arena_stats().freed_total;
    let engine = DepEngine::new(set);
    let queries: Vec<DepQuery> = (0..2 * apt::core::INLINE_BATCH_THRESHOLD)
        .map(|i| {
            let a = Path::parse(&format!("alcWorkL+.alcWorkQ{i}")).expect("path");
            let b = Path::parse(&format!("alcWorkR+.alcWorkQ{i}")).expect("path");
            DepQuery::disjoint(&a, &b).origin(Origin::Same)
        })
        .collect();
    assert_eq!(engine.run_batch(&queries, 4).len(), queries.len());
    drop(engine);
    assert_eq!(arena_stats().pinned_nodes, pinned_before);
    assert!(arena_stats().freed_total > freed_before);
}

/// A whole-program run leaves the engines it carries in its table, and
/// the thread that built them in none of their scopes: what it interns
/// afterwards is pinned, not charged to the table and compacted with it.
#[test]
fn an_analysis_run_leaves_its_carried_engines_scopes() {
    let _guard = serialize();
    let program = apt::ir::parse_program(
        "type AlcRun {\n    ptr alcRunNext: AlcRun;\n    data alcRunVal;\n    \
         axiom A1: forall p <> q, p.alcRunNext <> q.alcRunNext;\n    \
         axiom A2: forall p, p.alcRunNext+ <> p.eps;\n}\n\
         proc walk(h: AlcRun) {\n    q = h;\n    loop {\n    \
         U:  q->alcRunVal = 1;\n        q = q->alcRunNext->alcRunNext;\n    }\n}\n",
    )
    .expect("program parses");
    let scopes_before = arena_stats().active_scopes;
    let report = apt::paths::analyze_program(&program).run(None, &apt::paths::BatchOptions::new());
    assert!(report.table.warm_engines() > 0);
    assert_eq!(
        arena_stats().active_scopes,
        scopes_before + report.table.warm_engines(),
        "each carried engine holds its scope open"
    );

    let after_run = RegexId::intern(&parse("alcRunAfterA.alcRunAfterB+").unwrap());
    let freed_before = arena_stats().freed_total;
    drop(report);
    assert_eq!(arena_stats().active_scopes, scopes_before);
    assert!(
        arena_stats().freed_total > freed_before,
        "dropping the table compacts what its engines interned"
    );
    assert_eq!(
        after_run.to_regex().to_string(),
        "alcRunAfterA.alcRunAfterB+"
    );
    assert!(!after_run.is_nullable());
}
