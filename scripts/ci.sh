#!/usr/bin/env bash
# Local CI gate: build, full test suite, lint, formatting.
# Run from the repository root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# The run must leave every tracked file as it found it: compared at the
# end, so a tree with uncommitted edits can still be checked.
tracked_state() { git diff --binary HEAD | git hash-object --stdin; }
TRACKED_BEFORE=$(tracked_state)

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> perfbench builds and its unit tests pass"
# perfbench/ is the repository's benchmark, a Cargo package of its own
# outside the workspace; building it here makes an API change that
# breaks the benchmark fail CI instead of the next benchmark run.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> the DFA transition table must stay flat (no nested Vec rows)"
# The data-oriented refactor replaced the per-state Vec<Vec<usize>> rows
# with one contiguous row-major Box<[u32]>; a nested table reintroduces a
# pointer chase per state on the product-walk hot path.
nested_rows=$(grep -nE 'Vec<\s*Vec<\s*usize\s*>\s*>' crates/regex/src/dfa.rs 2>/dev/null || true)
if [[ -n "$nested_rows" ]]; then
    echo "error: nested Vec<Vec<usize>> transition rows in dfa.rs (use the flat table):" >&2
    echo "$nested_rows" >&2
    exit 1
fi

echo "==> proof search must go through the compiled dispatch index"
# The CompiledAxioms refactor removed every linear axiom scan (and the
# per-call eq-axiom cloning) from the prover hot path; reintroducing
# either form defeats the index.
linear_scans=$(grep -nE 'self\.axioms\.iter\(\)|of_kind\([^)]*\)\.cloned\(\)' \
    crates/core/src/prover.rs 2>/dev/null || true)
if [[ -n "$linear_scans" ]]; then
    echo "error: linear axiom scan on the prover hot path (use CompiledAxioms):" >&2
    echo "$linear_scans" >&2
    exit 1
fi

echo "==> subset caches in apt-core must key on RegexId, not strings"
# The arena refactor removed Display-formatted regex strings from every
# cache key on the subset hot path; a (String, String) key reintroduces
# the formatting cost and bypasses hash-consed equality.
string_keys=$(grep -rnE '\(String, *String\)' --include='*.rs' crates/core 2>/dev/null || true)
if [[ -n "$string_keys" ]]; then
    echo "error: string-keyed cache in crates/core (use (RegexId, RegexId)):" >&2
    echo "$string_keys" >&2
    exit 1
fi

# (The deprecated prove_* and Analysis::test_batch shim greps are gone: the
# shims themselves were removed from crates/core and crates/paths, so the
# compiler now enforces what the greps used to.)

echo "==> connections must be reactor state, never threads"
# The epoll rewrite removed the accept-loop's two-threads-per-connection
# design. The reactor module must never spawn a thread, and server.rs may
# spawn only its fixed set (pool workers, the snapshot flusher) — a spawn
# count above that means someone put a thread back on a per-connection
# path.
reactor_spawns=$(grep -n 'thread::spawn' crates/serve/src/reactor.rs 2>/dev/null || true)
if [[ -n "$reactor_spawns" ]]; then
    echo "error: thread::spawn in the reactor (connections are state, not threads):" >&2
    echo "$reactor_spawns" >&2
    exit 1
fi
server_spawns=$(grep -c 'thread::spawn' crates/serve/src/server.rs || true)
if [[ "${server_spawns:-0}" -gt 2 ]]; then
    echo "error: server.rs spawns $server_spawns threads (expected <=2:" \
        "pool workers + snapshot flusher); no per-connection threads" >&2
    exit 1
fi

echo "==> connection-scaling smoke: idle conns are state, not threads"
APT=target/release/apt
# Hold a thousand idle TCP connections (fewer under a small fd limit)
# against a live daemon: its thread count must not move, its RSS growth
# must stay bounded, and it must keep answering through the crowd.
NOFILE=$(ulimit -n)
CONNS=1000
if [[ "$NOFILE" != "unlimited" && $((NOFILE / 8)) -lt "$CONNS" ]]; then
    CONNS=$((NOFILE / 8))
fi
ERRLOG=$(mktemp /tmp/apt-serve-conns.XXXXXX.log)
"$APT" serve --addr 127.0.0.1:0 --workers 2 2>"$ERRLOG" &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -f "$ERRLOG"' EXIT
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*listening on tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$ERRLOG")
    [[ -n "$PORT" ]] && break
    sleep 0.05
done
if [[ -z "$PORT" ]]; then
    echo "error: apt serve never reported its TCP port" >&2
    cat "$ERRLOG" >&2
    exit 1
fi
"$APT" client --addr "127.0.0.1:$PORT" health >/dev/null
THREADS_BEFORE=$(awk '/Threads/{print $2}' "/proc/$SERVE_PID/status")
RSS_BEFORE=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status")
declare -a CONN_FDS=()
for _ in $(seq 1 "$CONNS"); do
    exec {fd}<>"/dev/tcp/127.0.0.1/$PORT"
    CONN_FDS+=("$fd")
done
sleep 0.3
THREADS_DURING=$(awk '/Threads/{print $2}' "/proc/$SERVE_PID/status")
RSS_DURING=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status")
if [[ "$THREADS_DURING" -ne "$THREADS_BEFORE" ]]; then
    echo "error: $CONNS idle connections moved the daemon's thread count" \
        "($THREADS_BEFORE -> $THREADS_DURING)" >&2
    exit 1
fi
RSS_CONN_GROWTH=$((RSS_DURING - RSS_BEFORE))
if [[ "$RSS_CONN_GROWTH" -gt 16384 ]]; then
    echo "error: $CONNS idle connections grew RSS by ${RSS_CONN_GROWTH} kB (>16 MiB)" >&2
    exit 1
fi
stats=$("$APT" client --addr "127.0.0.1:$PORT" stats)
active=$(sed -n 's/.*"connections_active":\([0-9]*\).*/\1/p' <<<"$stats")
if [[ -z "$active" || "$active" -lt "$CONNS" ]]; then
    echo "error: daemon reports ${active:-0} active connections, expected >= $CONNS" >&2
    exit 1
fi
# A canned prove through the crowd must get the one-shot CLI's answer.
sess=$("$APT" client --addr "127.0.0.1:$PORT" open examples/programs/llt.adds \
    | sed 's/^session: //')
served_rc=0; direct_rc=0
"$APT" client --addr "127.0.0.1:$PORT" prove "$sess" L.L.N L.R.N >/dev/null \
    || served_rc=$?
"$APT" prove examples/programs/llt.adds L.L.N L.R.N >/dev/null || direct_rc=$?
if [[ "$served_rc" -ne "$direct_rc" ]]; then
    echo "error: with $CONNS idle connections held, the daemon's prove exited" \
        "$served_rc, apt prove exited $direct_rc" >&2
    exit 1
fi
echo "    conns: $CONNS idle, threads $THREADS_BEFORE -> $THREADS_DURING," \
    "RSS growth ${RSS_CONN_GROWTH} kB"
for fd in "${CONN_FDS[@]}"; do
    exec {fd}>&-
done
"$APT" client --addr "127.0.0.1:$PORT" shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "error: apt serve exited nonzero after connection-scaling smoke" >&2
    exit 1
fi
trap - EXIT
rm -f "$ERRLOG"

echo "==> serve smoke: daemon on a Unix socket, verdict parity with apt prove"
SOCK="$(mktemp -u /tmp/apt-serve-ci.XXXXXX).sock"
"$APT" serve --socket "$SOCK" --workers 2 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT
for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
done
if [[ ! -S "$SOCK" ]]; then
    echo "error: apt serve did not create $SOCK" >&2
    exit 1
fi

# The daemon and the one-shot CLI must agree on every canned query:
# same answer, same exit-code convention (0 definite, 1 Maybe). The
# daemon is asked twice: the second ask finds the query settled in the
# session's proof cache and is answered on the reactor, and it must
# print exactly what the first (pooled) ask printed.
check_parity() {
    local axioms="$1" a="$2" b="$3"
    shift 3
    local sess first again direct_rc=0 served_rc=0 again_rc=0
    sess=$("$APT" client --socket "$SOCK" open "$axioms" | sed 's/^session: //')
    first=$("$APT" client --socket "$SOCK" prove "$sess" "$a" "$b" "$@") \
        || served_rc=$?
    again=$("$APT" client --socket "$SOCK" prove "$sess" "$a" "$b" "$@") \
        || again_rc=$?
    "$APT" prove "$axioms" "$a" "$b" "$@" >/dev/null || direct_rc=$?
    if [[ "$served_rc" -ne "$direct_rc" ]]; then
        echo "error: verdict mismatch for $a <> $b ($axioms $*):" \
            "daemon exit $served_rc, apt prove exit $direct_rc" >&2
        exit 1
    fi
    if [[ "$again" != "$first" || "$again_rc" -ne "$served_rc" ]]; then
        echo "error: asking the daemon $a <> $b ($axioms $*) twice changed" \
            "its answer: exit $served_rc then $again_rc" >&2
        diff <(echo "$first") <(echo "$again") >&2 || true
        exit 1
    fi
}
# Figure 3 leaf-linked tree: a provable pair and an unprovable one.
check_parity examples/programs/llt.adds L.L.N L.R.N
check_parity examples/programs/llt.adds L.N R.N
# §5 sparse matrix: a Theorem T instance and a distinct-origin probe.
check_parity examples/programs/sparse.axioms ncolE "nrowE.ncolE+"
check_parity examples/programs/sparse.axioms ncolE nrowE --distinct
# Settled second asks never queue: fewer pooled jobs than queries.
stats=$("$APT" client --socket "$SOCK" stats)
queue_waits=$(sed -n 's/.*"queue_wait_us":{"count":\([0-9]*\).*/\1/p' <<<"$stats")
queries=$(sed -n 's/.*"queries_total":\([0-9]*\).*/\1/p' <<<"$stats")
if [[ -z "$queue_waits" || -z "$queries" || "$queue_waits" -ge "$queries" ]]; then
    echo "error: ${queue_waits:-?} queued jobs for ${queries:-?} queries;" \
        "settled queries should be answered without the pool" >&2
    exit 1
fi

# Structural dedupe: reopening the same set must return the same session.
s1=$("$APT" client --socket "$SOCK" open examples/programs/llt.adds)
s2=$("$APT" client --socket "$SOCK" open examples/programs/llt.adds)
if [[ "$s1" != "$s2" ]]; then
    echo "error: reopening an identical axiom set did not dedupe: $s1 vs $s2" >&2
    exit 1
fi

# A field name past the symbol table's 256-byte cap is refused before it
# is interned: the prove frame earns bad_request (apt client exits 2),
# and the stats memory block counts the table in symbol_bytes.
long_field=$(printf '%0300d' 0 | tr 0 F)
raw_rc=0
raw_err=$("$APT" client --socket "$SOCK" raw \
    "{\"verb\":\"prove\",\"session\":\"${s1#session: }\",\"a\":\"L.$long_field\",\"b\":\"L\"}" \
    2>&1 >/dev/null) || raw_rc=$?
if [[ "$raw_rc" -ne 2 || "$raw_err" != *"[bad_request]"* \
    || "$raw_err" != *"exceeds the 256-byte limit"* ]]; then
    echo "error: a 300-byte field name was not refused as bad_request" \
        "(exit $raw_rc): $raw_err" >&2
    exit 1
fi
if ! "$APT" client --socket "$SOCK" stats | grep -q '"symbol_bytes":[0-9]'; then
    echo "error: stats memory block lacks symbol_bytes" >&2
    exit 1
fi

# Live metrics respond, then a clean shutdown: exit 0 and socket removed.
"$APT" client --socket "$SOCK" stats | grep -q '"ok":true'
"$APT" client --socket "$SOCK" shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "error: apt serve exited nonzero after shutdown" >&2
    exit 1
fi
trap - EXIT
if [[ -S "$SOCK" ]]; then
    echo "error: apt serve left its socket file behind" >&2
    exit 1
fi

echo "==> crash recovery smoke: SIGKILL a warm daemon, restart, answer warm"
SNAPDIR=$(mktemp -d /tmp/apt-serve-snap.XXXXXX)
SOCK="$(mktemp -u /tmp/apt-serve-crash.XXXXXX).sock"
"$APT" serve --socket "$SOCK" --workers 2 \
    --snapshot-dir "$SNAPDIR" --snapshot-interval-ms 100 &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$SNAPDIR" "$SOCK"' EXIT
for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
done
sess=$("$APT" client --socket "$SOCK" open examples/programs/llt.adds | sed 's/^session: //')
"$APT" client --socket "$SOCK" prove "$sess" L.L.N L.R.N >/dev/null || true
"$APT" client --socket "$SOCK" prove "$sess" L.N R.N >/dev/null || true
# Wait for a background flush that started strictly after the proves
# returned (a flush from before them would persist a not-yet-warm
# engine), then pull the plug: no drain, no graceful shutdown snapshot.
snap_writes() {
    "$APT" client --socket "$SOCK" stats \
        | sed -n 's/.*"writes_total":\([0-9]*\).*/\1/p'
}
w0=$(snap_writes)
for _ in $(seq 1 100); do
    w=$(snap_writes)
    [[ -n "$w" && "$w" -gt "${w0:-0}" ]] && break
    sleep 0.05
done
if [[ -z "$w" || "$w" -le "${w0:-0}" || ! -f "$SNAPDIR/apt-serve.snap" ]]; then
    echo "error: flusher never persisted the warm state to $SNAPDIR" >&2
    exit 1
fi
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f "$SOCK" # SIGKILL leaves the socket file behind; the operator sweeps it

"$APT" serve --socket "$SOCK" --workers 2 --snapshot-dir "$SNAPDIR" &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$SNAPDIR" "$SOCK"' EXIT
for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
done
# The restarted daemon must report a warm restore with real cache mass...
stats=$("$APT" client --socket "$SOCK" stats)
if ! grep -q '"last_restore":"warm"' <<<"$stats"; then
    echo "error: daemon did not restore warm after SIGKILL: $stats" >&2
    exit 1
fi
goals=$(sed -n 's/.*"restored_goals":\([0-9]*\).*/\1/p' <<<"$stats")
if [[ -z "$goals" || "$goals" -eq 0 ]]; then
    echo "error: warm restore restored no goal entries: $stats" >&2
    exit 1
fi
# ...and its answers must still match the one-shot CLI exactly.
check_parity examples/programs/llt.adds L.L.N L.R.N
check_parity examples/programs/llt.adds L.N R.N
"$APT" client --socket "$SOCK" shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "error: apt serve exited nonzero after crash-recovery shutdown" >&2
    exit 1
fi

echo "==> snapshot soak: rapid flush cycles with bounded RSS growth"
SOCK="$(mktemp -u /tmp/apt-serve-soak.XXXXXX).sock"
"$APT" serve --socket "$SOCK" --workers 2 \
    --snapshot-dir "$SNAPDIR" --snapshot-interval-ms 25 &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$SNAPDIR" "$SOCK"' EXIT
for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
done
sess=$("$APT" client --socket "$SOCK" open examples/programs/sparse.axioms | sed 's/^session: //')
"$APT" client --socket "$SOCK" prove "$sess" ncolE "nrowE.ncolE+" >/dev/null || true
sleep 0.5
RSS_START=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status" 2>/dev/null || echo 0)
sleep 2.5
RSS_END=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status" 2>/dev/null || echo 0)
stats=$("$APT" client --socket "$SOCK" stats)
writes=$(sed -n 's/.*"writes_total":\([0-9]*\).*/\1/p' <<<"$stats")
if [[ -z "$writes" || "$writes" -lt 20 ]]; then
    echo "error: soak expected >=20 snapshot writes, saw '${writes:-none}'" >&2
    exit 1
fi
if [[ "$RSS_START" -gt 0 && "$RSS_END" -gt 0 ]]; then
    RSS_GROWTH=$((RSS_END - RSS_START))
    if [[ "$RSS_GROWTH" -gt 32768 ]]; then
        echo "error: snapshot soak grew RSS by ${RSS_GROWTH} kB (>32 MiB)" >&2
        exit 1
    fi
    echo "    soak: $writes snapshot writes, RSS growth ${RSS_GROWTH} kB"
fi
"$APT" client --socket "$SOCK" shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "error: apt serve exited nonzero after soak shutdown" >&2
    exit 1
fi
trap - EXIT
rm -rf "$SNAPDIR"

echo "==> session-churn soak: LRU eviction compacts the arena, RSS bounded"
# Churn 40 distinct axiom sets through a 2-slot registry: each open past
# the cap evicts an engine, which closes its arena scope and compacts the
# evicted session's regex entries. The gate checks both signals — the
# stats memory block must report compaction work (arena_freed_total), and
# resident memory must plateau instead of growing with sets-ever-opened.
CHURNDIR=$(mktemp -d /tmp/apt-serve-churn.XXXXXX)
SOCK="$(mktemp -u /tmp/apt-serve-churn.XXXXXX).sock"
"$APT" serve --socket "$SOCK" --workers 2 --max-sessions 2 &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$CHURNDIR" "$SOCK"' EXIT
for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
done
for i in $(seq 1 40); do
    cat > "$CHURNDIR/set$i.axioms" <<EOF
A1: forall p <> q, p.churnF$i <> q.churnF$i
A2: forall p, p.churnG$i+ <> p.churnH$i.churnG$i*
EOF
done
# Warm-up opens fill the registry; record the baseline after they settle.
for i in 1 2; do
    "$APT" client --socket "$SOCK" open "$CHURNDIR/set$i.axioms" >/dev/null
done
CHURN_RSS_START=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status" 2>/dev/null || echo 0)
for i in $(seq 3 40); do
    sess=$("$APT" client --socket "$SOCK" open "$CHURNDIR/set$i.axioms" | sed 's/^session: //')
    "$APT" client --socket "$SOCK" prove "$sess" "churnF$i" "churnF$i" --distinct \
        >/dev/null || true
done
CHURN_RSS_END=$(awk '/VmRSS/{print $2}' "/proc/$SERVE_PID/status" 2>/dev/null || echo 0)
stats=$("$APT" client --socket "$SOCK" stats)
freed=$(sed -n 's/.*"arena_freed_total":\([0-9]*\).*/\1/p' <<<"$stats")
scopes=$(sed -n 's/.*"arena_scopes":\([0-9]*\).*/\1/p' <<<"$stats")
if [[ -z "$freed" || "$freed" -eq 0 ]]; then
    echo "error: churn soak never compacted the arena (arena_freed_total=${freed:-missing})" >&2
    echo "$stats" >&2
    exit 1
fi
if [[ -z "$scopes" || "$scopes" -gt 2 ]]; then
    echo "error: churn soak left ${scopes:-?} arena scopes open (cap is 2 sessions)" >&2
    exit 1
fi
if [[ "$CHURN_RSS_START" -gt 0 && "$CHURN_RSS_END" -gt 0 ]]; then
    CHURN_GROWTH=$((CHURN_RSS_END - CHURN_RSS_START))
    if [[ "$CHURN_GROWTH" -gt 16384 ]]; then
        echo "error: churning 38 evicted sessions grew RSS by ${CHURN_GROWTH} kB (>16 MiB)" >&2
        exit 1
    fi
    echo "    churn: arena_freed_total=$freed, RSS growth ${CHURN_GROWTH} kB over 38 evictions"
fi
"$APT" client --socket "$SOCK" shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "error: apt serve exited nonzero after churn soak shutdown" >&2
    exit 1
fi
trap - EXIT
rm -rf "$CHURNDIR"

echo "==> analyze smoke: one-procedure edit, incremental vs cold parity"
ANDIR=$(mktemp -d /tmp/apt-analyze-ci.XXXXXX)
trap 'rm -rf "$ANDIR"' EXIT
BASE="$ANDIR/base.snap"
# Cold run over the two-procedure example builds the baseline table.
cold0_rc=0
"$APT" analyze examples/programs/twoproc.apt --baseline "$BASE" >/dev/null \
    || cold0_rc=$?
if [[ ! -f "$BASE" ]]; then
    echo "error: apt analyze did not persist the baseline table" >&2
    exit 1
fi
# Touch exactly one procedure, then compare a cold run of the edited
# program against the incremental --changed-only run: the exit-code
# convention (0 definite, 1 any-Maybe) must agree, and only the edited
# procedure may re-prove.
sed 's/h->f = 9;/h->f = 7;/' examples/programs/twoproc.apt > "$ANDIR/edited.apt"
cold_rc=0
"$APT" analyze "$ANDIR/edited.apt" >/dev/null || cold_rc=$?
warm_rc=0
warm_out=$("$APT" analyze "$ANDIR/edited.apt" --baseline "$BASE" --changed-only) \
    || warm_rc=$?
if [[ "$warm_rc" -ne "$cold_rc" ]]; then
    echo "error: incremental analyze exit $warm_rc, cold exit $cold_rc" >&2
    exit 1
fi
if ! grep -q '1/2 procedures reused' <<<"$warm_out"; then
    echo "error: expected exactly the unedited procedure to replay:" >&2
    echo "$warm_out" >&2
    exit 1
fi
if grep -q 'procedure update' <<<"$warm_out"; then
    echo "error: --changed-only printed the untouched procedure:" >&2
    echo "$warm_out" >&2
    exit 1
fi

# The same analysis through an apt-serve session: cold then warm against
# one named table, same exit-code convention as the one-shot CLI.
SOCK="$(mktemp -u /tmp/apt-analyze-ci.XXXXXX).sock"
"$APT" serve --socket "$SOCK" --workers 2 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$ANDIR" "$SOCK"' EXIT
for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
done
served_cold_rc=0
"$APT" client --socket "$SOCK" analyze "$ANDIR/edited.apt" --name ci >/dev/null \
    || served_cold_rc=$?
served_warm_rc=0
served_out=$("$APT" client --socket "$SOCK" analyze "$ANDIR/edited.apt" --name ci) \
    || served_warm_rc=$?
if [[ "$served_cold_rc" -ne "$cold_rc" || "$served_warm_rc" -ne "$cold_rc" ]]; then
    echo "error: served analyze exits ($served_cold_rc cold, $served_warm_rc warm)" \
        "disagree with apt analyze exit $cold_rc" >&2
    exit 1
fi
if ! grep -q '"procs_reused":2' <<<"$served_out"; then
    echo "error: served warm analyze did not replay both procedures:" >&2
    echo "$served_out" >&2
    exit 1
fi
# Undo the edit through the same daemon-held table: the untouched
# procedure replays from the trusted table on its carried plan, the
# edited-back one is analyzed afresh, and the exit code matches a cold
# run of the original file.
undo_rc=0
undo_out=$("$APT" client --socket "$SOCK" analyze examples/programs/twoproc.apt --name ci) \
    || undo_rc=$?
if [[ "$undo_rc" -ne "$cold0_rc" ]]; then
    echo "error: served analyze of the original exit $undo_rc, cold exit $cold0_rc" >&2
    exit 1
fi
if ! grep -q '"procs_reused":1' <<<"$undo_out"; then
    echo "error: served analyze of the original did not replay exactly one procedure:" >&2
    echo "$undo_out" >&2
    exit 1
fi
"$APT" client --socket "$SOCK" shutdown >/dev/null
wait "$SERVE_PID" || {
    echo "error: apt serve exited nonzero after analyze smoke" >&2
    exit 1
}
trap - EXIT
rm -rf "$ANDIR"

echo "==> portfolio smoke: --engines all parity + refuter resolves a Maybe + one run per program + no dyck"
# Staging the engines must not change a definite answer: the provable
# Figure 3 pair stays No (exit 0) under --engines all.
solo_rc=0; staged_rc=0
"$APT" prove examples/programs/llt.adds L.L.N L.R.N >/dev/null || solo_rc=$?
"$APT" prove examples/programs/llt.adds L.L.N L.R.N --engines all >/dev/null \
    || staged_rc=$?
if [[ "$solo_rc" -ne 0 || "$staged_rc" -ne 0 ]]; then
    echo "error: --engines all changed a definite verdict" \
        "(solo exit $solo_rc, staged exit $staged_rc)" >&2
    exit 1
fi
# A known axiomatic Maybe (identical overlapping paths) must exit 1
# solo, and the refuter must settle it definitely (exit 0) with a
# re-validated witness heap.
maybe_rc=0
"$APT" prove examples/programs/llt.adds L.L.N L.L.N >/dev/null || maybe_rc=$?
if [[ "$maybe_rc" -ne 1 ]]; then
    echo "error: expected the axiomatic prover to answer Maybe (exit 1)," \
        "got exit $maybe_rc" >&2
    exit 1
fi
staged_out=$("$APT" prove examples/programs/llt.adds L.L.N L.L.N --engines all)
if ! grep -q 'engine: refuter' <<<"$staged_out" \
    || ! grep -q 're-validated' <<<"$staged_out"; then
    echo "error: the refuter did not resolve the known Maybe with a" \
        "validated witness:" >&2
    echo "$staged_out" >&2
    exit 1
fi
# The refuter starts only on queries the prover leaves Maybe, so the
# report footer is the same on every run, with no refuter runs.
footer() {
    "$APT" report examples/programs/factor.apt --engines all \
        | sed -n '/^-- portfolio: engine runs --$/,/^(dependence witnesses/p'
}
footer1=$(footer); footer2=$(footer)
if [[ "$footer1" != "$footer2" ]] \
    || ! grep -qx 'refuter    0 won, 0 lost, 0 cancelled' <<<"$footer1"; then
    echo "error: the --engines all report footer varies or runs the refuter:" >&2
    echo "$footer1" >&2
    echo "$footer2" >&2
    exit 1
fi
# report, batch and analyze render one whole-program run, so on every
# example program they print the same engine-run footer and exit alike.
for prog in examples/programs/*.apt; do
    first_cmd=""
    for cmd in report batch analyze; do
        rc=0
        out=$("$APT" "$cmd" "$prog" --engines all) || rc=$?
        foot=$(sed -n '/^-- portfolio: engine runs --$/,/^(dependence witnesses/p' <<<"$out")
        if [[ -z "$foot" ]]; then
            echo "error: apt $cmd $prog --engines all printed no engine-run footer" >&2
            exit 1
        fi
        if [[ -z "$first_cmd" ]]; then
            first_cmd=$cmd; first_foot=$foot; first_rc=$rc
        elif [[ "$foot" != "$first_foot" || "$rc" -ne "$first_rc" ]]; then
            echo "error: apt $cmd and apt $first_cmd disagree on $prog --engines all" \
                "(exit $rc vs $first_rc):" >&2
            diff <(echo "$first_foot") <(echo "$foot") >&2 || true
            exit 1
        fi
    done
done
# Refuter verdicts must not depend on the order fields were interned in:
# one tree axiom set with its sibling fields written either way round.
ORDERDIR=$(mktemp -d /tmp/apt-axiom-order.XXXXXX)
trap 'rm -rf "$ORDERDIR"' EXIT
for pair in "L R" "R L"; do
    read -r first second <<<"$pair"
    printf '%s\n' "A1: forall p, p.$first <> p.$second" \
        "A2: forall p <> q, p.(L|R) <> q.(L|R)" \
        "A3: forall p, p.(L|R)+ <> p.eps" >"$ORDERDIR/$first$second.ax"
    order_out=$("$APT" prove "$ORDERDIR/$first$second.ax" "(L|R)+" R --engines all \
        || true)
    if ! grep -q 'engine: refuter' <<<"$order_out"; then
        echo "error: written as p.$first <> p.$second, the tree axioms" \
            "left (L|R)+ vs R unrefuted" >&2
        exit 1
    fi
done
trap - EXIT
rm -rf "$ORDERDIR"
# The Dyck engine is retired: naming it is a usage error (exit 2).
dyck_rc=0
"$APT" prove examples/programs/llt.adds L.L.N L.R.N --engines dyck >/dev/null 2>&1 \
    || dyck_rc=$?
if [[ "$dyck_rc" -ne 2 ]]; then
    echo "error: --engines dyck should be a usage error (exit 2), got exit $dyck_rc" >&2
    exit 1
fi

echo "==> the run left every tracked file as it found it"
if [[ "$(tracked_state)" != "$TRACKED_BEFORE" ]]; then
    echo "error: the CI run changed tracked files:" >&2
    git diff --stat HEAD >&2
    exit 1
fi

echo "CI gate passed."
