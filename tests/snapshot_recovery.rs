//! End-to-end crash and corruption recovery for the snapshot tier.
//!
//! The contract under test: a damaged snapshot can cost warmth, never
//! correctness or availability. Every case here mangles persisted
//! state a different way — truncation, a flipped bit, a stale version
//! header, a crash-orphaned temp file, an injected torn write — and
//! then demands the same three things of the restarted daemon: it
//! starts, it serves, and its verdicts match a cold start bit for bit.
//!
//! The protocol-chaos half drives the other robustness surfaces: the
//! slow-loris read deadline, client reconnection across a daemon
//! restart, and the distinct give-up error when the daemon stays dead.
//!
//! All daemons here speak over Unix sockets: restart tests rebind the
//! same address immediately, which TCP's TIME_WAIT would make flaky.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apt_axioms::adds::leaf_linked_tree_axioms;
use apt_serve::json::{obj, parse, Json};
use apt_serve::{Client, ClientError, FaultPlan, RetryPolicy, ServeConfig, Server, ServerHandle};

const SNAP_FILE: &str = "apt-serve.snap";
const TMP_FILE: &str = "apt-serve.snap.tmp";

/// The parity suite: provable disjointness (caches proofs, so the
/// restore-time spot-check runs), a star tower that fails proof search
/// (caches a definite Maybe), and a distinct-origin probe.
const QUERIES: &[(&str, &str, bool)] = &[
    ("L.N", "R.N", false),
    ("L.L.N", "R.R.N", false),
    ("L.L.L.N", "R.R.R.N", false),
    ("L.L.L.L.L.L.L.L.N", "(L|R)+.(L|R)+.(L|R)+.(L|R)+.N", false),
    ("L", "R", true),
];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-snaprec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    dir
}

fn sock_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("apt-snaprec-{name}-{}.sock", std::process::id()))
}

struct Daemon {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    sock: PathBuf,
}

fn start(sock: &Path, config: ServeConfig) -> Daemon {
    let _ = std::fs::remove_file(sock);
    let mut server = Server::new(config);
    server.bind_unix(sock).expect("bind unix socket");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    Daemon {
        handle,
        thread,
        sock: sock.to_owned(),
    }
}

fn snapshot_config(dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::new();
    config.snapshot_dir = Some(dir.to_owned());
    config
}

impl Daemon {
    /// Graceful stop: the drain path is what writes the shutdown
    /// snapshot, so every test ends daemons this way.
    fn stop(self) {
        self.handle.stop();
        // stop() only flags the shutdown; a shutdown verb wakes the
        // accept loop so the drain actually runs.
        if let Ok(mut c) = Client::connect_unix(&self.sock) {
            let _ = c.shutdown();
        }
        self.thread.join().expect("server thread");
    }
}

/// Every suite query's `prove` result, via a fresh client.
fn prove_suite(sock: &Path) -> Vec<Json> {
    let mut client = Client::connect_unix(sock).expect("connect");
    let session = client
        .open_session(&leaf_linked_tree_axioms().to_string())
        .expect("open session");
    QUERIES
        .iter()
        .map(|&(a, b, distinct)| {
            client
                .prove_disjoint(&session, a, b, distinct)
                .expect("prove round-trip")
        })
        .collect()
}

/// A `prove` result's verdict fingerprint.
fn fingerprint(result: &Json) -> String {
    let verdict = apt_serve::proto::parse_verdict(result).expect("verdict parses");
    let has_proof = !matches!(result.get("proof"), None | Some(Json::Null));
    format!("{verdict:?} proof={has_proof}")
}

/// One verdict fingerprint per suite query, via a fresh client.
fn collect_verdicts(sock: &Path) -> Vec<String> {
    prove_suite(sock).iter().map(fingerprint).collect()
}

/// The `snapshot` block of the `stats` reply.
fn snapshot_stats(sock: &Path) -> Json {
    let mut client = Client::connect_unix(sock).expect("connect");
    let reply = client
        .roundtrip(obj(vec![("verb", "stats".into())]))
        .expect("stats round-trip");
    reply
        .get("server")
        .and_then(|s| s.get("snapshot"))
        .cloned()
        .expect("stats carries a snapshot block")
}

fn stat_str(snap: &Json, key: &str) -> String {
    snap.get(key)
        .and_then(Json::as_str)
        .unwrap_or("missing")
        .to_owned()
}

fn stat_u64(snap: &Json, key: &str) -> u64 {
    snap.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Warms a snapshotting daemon on the suite, stops it gracefully, and
/// returns the cold-start oracle verdicts alongside the snapshot path.
fn warm_snapshot(name: &str) -> (PathBuf, PathBuf, Vec<String>) {
    let dir = fresh_dir(name);
    let sock = sock_path(name);
    let daemon = start(&sock, snapshot_config(&dir));
    let oracle = collect_verdicts(&sock);
    daemon.stop();
    assert!(
        dir.join(SNAP_FILE).is_file(),
        "graceful shutdown must write {SNAP_FILE}"
    );
    (dir, sock, oracle)
}

/// Restarts against (possibly mangled) state in `dir` and asserts the
/// recovery contract: serving, verdict parity, expected restore kind.
fn assert_recovers(dir: &Path, sock: &Path, oracle: &[String], want_restore: &str) -> Json {
    let daemon = start(sock, snapshot_config(dir));
    let verdicts = collect_verdicts(sock);
    let snap = snapshot_stats(sock);
    daemon.stop();
    assert_eq!(verdicts, oracle, "verdicts must match a cold start");
    assert_eq!(stat_str(&snap, "last_restore"), want_restore, "{snap:?}");
    snap
}

#[test]
fn intact_snapshot_restores_warm() {
    let (dir, sock, oracle) = warm_snapshot("warm");
    let daemon = start(&sock, snapshot_config(&dir));
    let results = prove_suite(&sock);
    let snap = snapshot_stats(&sock);
    daemon.stop();
    let verdicts: Vec<String> = results.iter().map(fingerprint).collect();
    assert_eq!(verdicts, oracle, "verdicts must match a cold start");
    assert_eq!(stat_str(&snap, "last_restore"), "warm", "{snap:?}");
    assert!(stat_u64(&snap, "restored_goals") > 0, "{snap:?}");
    assert!(stat_u64(&snap, "restored_bytes") > 0, "{snap:?}");
    assert_eq!(stat_u64(&snap, "restored_sessions"), 1, "{snap:?}");
    // Warmth as a count, not a clock: every query is answered from the
    // restored cache without attempting a single goal. A cold restart
    // attempts at least one goal per query.
    for (result, query) in results.iter().zip(QUERIES) {
        let stats = result.get("stats").expect("prove result carries stats");
        assert_eq!(
            stat_u64(stats, "goals_attempted"),
            0,
            "{query:?}: {stats:?}"
        );
        assert!(stat_u64(stats, "shared_hits") >= 1, "{query:?}: {stats:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_recovers() {
    let (dir, sock, oracle) = warm_snapshot("trunc");
    let file = dir.join(SNAP_FILE);
    let bytes = std::fs::read(&file).expect("read snapshot");
    std::fs::write(&file, &bytes[..bytes.len() * 3 / 5]).expect("truncate snapshot");
    let snap = assert_recovers(&dir, &sock, &oracle, "cold");
    assert!(stat_u64(&snap, "corrupt_sections") >= 1, "{snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_section_recovers() {
    let (dir, sock, oracle) = warm_snapshot("flip");
    let file = dir.join(SNAP_FILE);
    let mut bytes = std::fs::read(&file).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&file, &bytes).expect("write flipped snapshot");
    let snap = assert_recovers(&dir, &sock, &oracle, "cold");
    assert!(stat_u64(&snap, "corrupt_sections") >= 1, "{snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_version_header_recovers() {
    let (dir, sock, oracle) = warm_snapshot("ver");
    let file = dir.join(SNAP_FILE);
    let mut bytes = std::fs::read(&file).expect("read snapshot");
    // The u32 version sits right after the 8-byte magic. A snapshot
    // from some future format must read as "no snapshot", not panic.
    bytes[8..12].copy_from_slice(&0xdead_beefu32.to_le_bytes());
    std::fs::write(&file, &bytes).expect("write future-version snapshot");
    assert_recovers(&dir, &sock, &oracle, "cold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphaned_tmp_file_is_swept_and_snapshot_restores() {
    // A kill -9 between temp-file write and rename leaves the temp
    // behind next to a good (older) snapshot. Restore must use the
    // snapshot and sweep the orphan.
    let (dir, sock, oracle) = warm_snapshot("tmp");
    std::fs::write(dir.join(TMP_FILE), b"half-written garbage").expect("plant orphan tmp");
    let snap = assert_recovers(&dir, &sock, &oracle, "warm");
    assert!(stat_u64(&snap, "restored_goals") > 0, "{snap:?}");
    assert!(
        !dir.join(TMP_FILE).exists(),
        "restore must remove the orphaned temp file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_shutdown_write_recovers() {
    // An injected torn write materializes the crash-after-rename-
    // before-flush state: the snapshot file exists but holds only a
    // prefix of the payload.
    let name = "torn";
    let dir = fresh_dir(name);
    let sock = sock_path(name);
    let mut config = snapshot_config(&dir);
    config.fault_plan = Some(Arc::new(FaultPlan::parse("torn=0.25").expect("fault spec")));
    let daemon = start(&sock, config);
    let oracle = collect_verdicts(&sock);
    daemon.stop();
    assert!(
        dir.join(SNAP_FILE).is_file(),
        "the torn write still renames into place"
    );
    let snap = assert_recovers(&dir, &sock, &oracle, "cold");
    assert!(stat_u64(&snap, "corrupt_sections") >= 1, "{snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flusher_survives_injected_write_error() {
    let name = "flush";
    let dir = fresh_dir(name);
    let sock = sock_path(name);
    let mut config = snapshot_config(&dir);
    config.snapshot_interval = Some(Duration::from_millis(50));
    config.fault_plan = Some(Arc::new(
        FaultPlan::parse("write_err=1").expect("fault spec"),
    ));
    let daemon = start(&sock, config);
    let oracle = collect_verdicts(&sock);

    // The first periodic flush eats the injected error; the fault is
    // one-shot, so a later flush must succeed while serving continues.
    let deadline = Instant::now() + Duration::from_secs(10);
    let healthy = loop {
        let snap = snapshot_stats(&sock);
        if stat_u64(&snap, "write_errors") >= 1 && stat_u64(&snap, "writes_total") >= 1 {
            break snap;
        }
        assert!(
            Instant::now() < deadline,
            "flusher never recovered: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(40));
    };
    assert!(stat_u64(&healthy, "last_write_bytes") > 0, "{healthy:?}");
    daemon.stop();

    // The flusher-written snapshot restores warm like a shutdown one.
    let snap = assert_recovers(&dir, &sock, &oracle, "warm");
    assert!(stat_u64(&snap, "restored_goals") > 0, "{snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_partial_frame_gets_timeout_frame() {
    let name = "loris";
    let sock = sock_path(name);
    let mut config = ServeConfig::new();
    config.idle_timeout = Some(Duration::from_millis(200));
    let daemon = start(&sock, config);

    let mut stream = UnixStream::connect(&sock).expect("connect raw");
    // A frame that never finishes: bytes but no newline.
    stream
        .write_all(br#"{"verb":"prove","session":"#)
        .expect("dribble bytes");
    stream.flush().expect("flush");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error frame");
    let frame = parse(line.trim()).expect("error frame parses");
    assert_eq!(
        frame.get("error").and_then(Json::as_str),
        Some("timeout"),
        "{line}"
    );
    // After the frame, the server hangs up.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("read EOF");
    assert_eq!(n, 0, "connection must close after the timeout frame");
    daemon.stop();
}

#[test]
fn client_rides_out_a_daemon_restart() {
    let name = "ride";
    let dir = fresh_dir(name);
    let sock = sock_path(name);
    let axioms = leaf_linked_tree_axioms().to_string();

    let first = start(&sock, snapshot_config(&dir));
    let mut client = Client::connect_unix(&sock)
        .expect("connect")
        .with_retry(RetryPolicy::new());
    let session = client.open_session(&axioms).expect("open session");
    let before = client
        .prove_disjoint(&session, "L.N", "R.N", false)
        .expect("prove before restart");
    first.stop();

    // Same socket path, new process-equivalent. The client's next
    // idempotent call fails on the dead connection, reconnects, and the
    // registry's structural dedupe lands it on the restored engine.
    let second = start(&sock, snapshot_config(&dir));
    let session = client
        .open_session(&axioms)
        .expect("open_session retries across the restart");
    let after = client
        .prove_disjoint(&session, "L.N", "R.N", false)
        .expect("prove after restart");
    assert_eq!(
        apt_serve::proto::parse_verdict(&before),
        apt_serve::proto::parse_verdict(&after)
    );
    let snap = snapshot_stats(&sock);
    assert_eq!(stat_str(&snap, "last_restore"), "warm", "{snap:?}");
    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retries_exhausted_when_the_daemon_stays_dead() {
    let name = "dead";
    let sock = sock_path(name);
    let daemon = start(&sock, ServeConfig::new());
    let policy = RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(20),
    };
    let mut client = Client::connect_unix(&sock)
        .expect("connect")
        .with_retry(policy);
    let session = client
        .open_session(&leaf_linked_tree_axioms().to_string())
        .expect("open session");
    daemon.stop();
    let _ = std::fs::remove_file(&sock);

    let err = client
        .prove_disjoint(&session, "L.N", "R.N", false)
        .expect_err("the daemon is gone for good");
    match err {
        ClientError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 2),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}
