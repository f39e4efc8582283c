//! Loopback integration tests for the `apt-serve` daemon.
//!
//! Everything runs against a real server on an ephemeral TCP port:
//! concurrent clients must see exactly the verdicts an in-process
//! [`DepEngine`] produces, a client vanishing mid-proof must cancel its
//! work without poisoning the session's shared caches, and malformed
//! frames must come back as structured errors — never a dropped
//! connection, never a server panic.

use apt::axioms::adds::{leaf_linked_tree_axioms, sparse_matrix_axioms};
use apt::prelude::*;
use apt::serve::json::{obj, Json};
use apt::serve::proto::parse_verdict;
use apt::serve::{Client, ClientError, ServeConfig, Server, ServerHandle};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Starts a server on an ephemeral port; returns its address, a stop
/// handle, and the join handle for its run loop.
fn start_server(config: ServeConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let mut server = Server::new(config);
    let addr = server.bind_tcp("127.0.0.1:0").expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, join)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_tcp(&addr.to_string()).expect("connect")
}

/// A disjointness query that takes O(seconds) of genuine search: a long
/// literal chain against a tower of `(L|R)+` components (unprovable, so
/// the prover exhausts its alternatives). `k` tunes the duration —
/// k=24 ≈ 0.9s, k=32 ≈ 2.6s on a warm machine.
fn blocker_paths(k: usize) -> (String, String) {
    (
        format!("{}.N", vec!["L"; 2 * k].join(".")),
        format!("{}.N", vec!["(L|R)+"; k].join(".")),
    )
}

fn llt_text() -> String {
    leaf_linked_tree_axioms().to_string()
}

#[test]
fn concurrent_clients_match_in_process_verdicts() {
    let (addr, handle, join) = start_server(ServeConfig::new());

    // The comparison oracle: a fresh in-process engine over the same set.
    let axioms_text = sparse_matrix_axioms().to_string();
    let engine = DepEngine::new(sparse_matrix_axioms());

    // A mixed suite: provable, unprovable, equality, both origins.
    let mut suite: Vec<(String, String, &str, &str)> = Vec::new();
    for i in 1..=3usize {
        for j in 1..=3usize {
            suite.push((
                vec!["ncolE"; i].join("."),
                format!("{}.ncolE+", vec!["nrowE"; j].join(".")),
                "disjoint",
                "same",
            ));
            suite.push((
                vec!["ncolE"; i].join("."),
                format!("ncolE+.{}", vec!["ncolE"; j].join(".")),
                "disjoint",
                "same",
            ));
            suite.push((
                vec!["ncolE"; i].join("."),
                vec!["nrowE"; j].join("."),
                "disjoint",
                "distinct",
            ));
        }
        suite.push((
            vec!["ncolE"; i].join("."),
            vec!["nrowE"; i].join("."),
            "equal",
            "same",
        ));
    }

    let expected: Vec<(Answer, Option<MaybeReason>)> = suite
        .iter()
        .map(|(a, b, kind, origin)| {
            let pa = Path::parse(a).expect("path");
            let pb = Path::parse(b).expect("path");
            let query = if *kind == "equal" {
                DepQuery::equal(&pa, &pb)
            } else {
                DepQuery::disjoint(&pa, &pb)
            };
            let query = query.origin(if *origin == "distinct" {
                Origin::Distinct
            } else {
                Origin::Same
            });
            let outcome = query.run(&engine);
            (outcome.verdict.answer, outcome.verdict.reason)
        })
        .collect();

    // Four clients hammer the same (deduped) session concurrently, each
    // walking the suite from a different offset.
    let workers: Vec<_> = (0..4)
        .map(|offset| {
            let suite = suite.clone();
            let expected = expected.clone();
            let axioms_text = axioms_text.clone();
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let session = client.open_session(&axioms_text).expect("open");
                for step in 0..suite.len() {
                    let idx = (step + offset * 7) % suite.len();
                    let (a, b, kind, origin) = &suite[idx];
                    let frame = client
                        .roundtrip(obj(vec![
                            ("verb", "prove".into()),
                            ("session", session.as_str().into()),
                            ("kind", (*kind).into()),
                            ("a", a.as_str().into()),
                            ("b", b.as_str().into()),
                            ("origin", (*origin).into()),
                        ]))
                        .expect("prove");
                    let result = frame.get("result").expect("result");
                    let got = parse_verdict(result).expect("verdict parses");
                    assert_eq!(
                        got, expected[idx],
                        "client {offset} query {idx} ({a} vs {b}, {kind}/{origin})"
                    );
                }
                session
            })
        })
        .collect();
    let sessions: Vec<String> = workers
        .into_iter()
        .map(|w| w.join().expect("client"))
        .collect();
    assert!(
        sessions.windows(2).all(|w| w[0] == w[1]),
        "all clients should have deduped onto one session: {sessions:?}"
    );

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn disconnect_mid_proof_cancels_without_poisoning_the_session() {
    let (addr, handle, join) = start_server(ServeConfig::new());
    let axioms_text = llt_text();

    let mut opener = connect(addr);
    let session = opener.open_session(&axioms_text).expect("open");

    // A raw connection fires a multi-second query, then vanishes.
    let (a, b) = blocker_paths(32);
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    let frame = obj(vec![
        ("verb", "prove".into()),
        ("session", session.as_str().into()),
        ("a", a.as_str().into()),
        ("b", b.as_str().into()),
        ("fuel", 5_000_000u64.into()),
    ]);
    let mut line = frame.render();
    line.push('\n');
    raw.write_all(line.as_bytes()).expect("send blocker");
    raw.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(300)); // let the proof start
    drop(raw); // disconnect mid-proof

    // The cancel must land well before the blocker's natural runtime
    // (~2.6s optimized, far longer in debug builds): poll `stats` until
    // disconnect_cancels ticks up. The bound is generous for debug
    // builds, where the prover's cancellation checks are further apart.
    let started = Instant::now();
    let deadline = Duration::from_millis(15_000);
    let cancels = loop {
        let stats = opener
            .roundtrip(obj(vec![("verb", "stats".into())]))
            .expect("stats");
        let cancels = stats
            .get("server")
            .and_then(|s| s.get("disconnect_cancels"))
            .and_then(Json::as_u64)
            .expect("disconnect_cancels counter");
        if cancels > 0 {
            break cancels;
        }
        assert!(
            started.elapsed() < deadline,
            "disconnect did not cancel the in-flight proof within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(cancels, 1);

    // The session still answers correctly afterwards: a cancelled run
    // must publish nothing, so this provable query gets its proof.
    let result = opener
        .prove_disjoint(&session, "L.L.N", "L.R.N", false)
        .expect("prove after disconnect");
    assert_eq!(
        parse_verdict(&result).expect("verdict"),
        (Answer::No, None),
        "session poisoned by the cancelled run: {result:?}"
    );
    // And the cancelled (unfinished) blocker must not have been cached
    // as a failure: re-running it with a tiny deadline degrades with a
    // *deadline* pedigree, proving the search really re-ran rather than
    // hitting a poisoned negative-cache entry. (A cancelled verdict was
    // never published; only this connection's token was cancelled.)
    let rerun = opener
        .roundtrip(obj(vec![
            ("verb", "prove".into()),
            ("session", session.as_str().into()),
            ("a", a.as_str().into()),
            ("b", b.as_str().into()),
            ("deadline_ms", 50u64.into()),
        ]))
        .expect("rerun blocker");
    let verdict = parse_verdict(rerun.get("result").expect("result")).expect("verdict");
    assert_eq!(verdict.0, Answer::Maybe);
    assert!(
        verdict.1.expect("maybe reason").is_degraded(),
        "expected a degraded Maybe from the deadline, got {verdict:?}"
    );

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    let (addr, handle, join) = start_server(ServeConfig::new());
    let mut client = connect(addr);
    let session = client.open_session(&llt_text()).expect("open");

    let expect_code = |client: &mut Client, raw: &str, want: &str| match client.roundtrip_raw(raw) {
        Err(ClientError::Server(code, _)) => {
            assert_eq!(code, want, "frame {raw:?}");
        }
        other => panic!("frame {raw:?}: expected {want} error, got {other:?}"),
    };

    expect_code(&mut client, "this is not json", "parse_error");
    expect_code(&mut client, "[1,2,3]", "parse_error");
    expect_code(&mut client, "{\"truncated\": ", "parse_error");
    expect_code(&mut client, &format!("{}1", "[".repeat(200)), "parse_error");
    expect_code(&mut client, r#"{"no":"verb"}"#, "bad_request");
    expect_code(&mut client, r#"{"verb":"frobnicate"}"#, "unsupported");
    expect_code(
        &mut client,
        r#"{"verb":"prove","session":"s0"}"#,
        "bad_request",
    );
    expect_code(
        &mut client,
        &format!(r#"{{"verb":"prove","session":"{session}","a":"L..L","b":"R"}}"#),
        "bad_request",
    );
    expect_code(
        &mut client,
        &format!(r#"{{"verb":"prove","session":"{session}","a":"L","b":"R","fuel":"lots"}}"#),
        "bad_request",
    );
    expect_code(
        &mut client,
        r#"{"verb":"prove","session":"nope","a":"L.L.N","b":"L.R.N"}"#,
        "no_such_session",
    );
    expect_code(
        &mut client,
        r#"{"verb":"open_session","axioms":"forall p, p.( <> q"}"#,
        "bad_request",
    );

    // After all that abuse, the same connection still proves correctly.
    let result = client
        .prove_disjoint(&session, "L.L.N", "L.R.N", false)
        .expect("prove after malformed frames");
    assert_eq!(parse_verdict(&result).expect("verdict"), (Answer::No, None));

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn versioned_protocol_hello_analyze_invalidate() {
    let (addr, handle, join) = start_server(ServeConfig::new());
    let mut client = connect(addr);

    // `hello` reports the protocol version and the full verb list, so a
    // client can feature-detect instead of probing.
    let hello = client
        .roundtrip(obj(vec![("verb", "hello".into())]))
        .expect("hello");
    assert_eq!(
        hello.get("proto_version").and_then(Json::as_u64),
        Some(apt::serve::PROTO_VERSION)
    );
    let verbs = match hello.get("verbs") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_owned)
            .collect::<Vec<_>>(),
        other => panic!("hello verbs missing: {other:?}"),
    };
    for verb in ["prove", "batch", "analyze", "invalidate", "stats"] {
        assert!(verbs.iter().any(|v| v == verb), "hello lacks {verb}");
    }

    // An unknown verb comes back machine-readable: code `unsupported`,
    // the rejected verb echoed, and the server's version — enough for an
    // old client talking to a new server (or vice versa) to explain
    // itself. Read the raw frame to see all three fields.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"{\"verb\":\"explain\"}\n").expect("send");
    raw.flush().expect("flush");
    let mut reader = std::io::BufReader::new(raw);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read");
    let frame = apt::serve::json::parse(line.trim()).expect("frame parses");
    assert_eq!(
        frame.get("error").and_then(Json::as_str),
        Some("unsupported")
    );
    assert_eq!(frame.get("verb").and_then(Json::as_str), Some("explain"));
    assert_eq!(
        frame.get("proto_version").and_then(Json::as_u64),
        Some(apt::serve::PROTO_VERSION)
    );

    // Whole-program analysis over the wire: a cold run proves, a warm
    // re-run of the identical program replays everything definite.
    let program = "type List {\n    ptr link: List;\n    data f;\n    \
         axiom A1: forall p <> q, p.link <> q.link;\n    \
         axiom A2: forall p, p.link+ <> p.eps;\n}\n\
         proc update(head: List) {\n    q = head;\n    loop {\n    \
         U:  q->f = fun();\n        q = q->link;\n    }\n}\n\
         proc touch(h: List) {\nW:  h->f = 9;\nX:  v = h->f;\n}\n";
    let analyze_frame = |name: &str| {
        obj(vec![
            ("verb", "analyze".into()),
            ("program", program.into()),
            ("name", name.into()),
        ])
    };
    let cold = client.roundtrip(analyze_frame("t1")).expect("cold analyze");
    assert_eq!(cold.get("replayed").and_then(Json::as_u64), Some(0));
    let cold_reproved = cold
        .get("reproved")
        .and_then(Json::as_u64)
        .expect("reproved");
    assert!(cold_reproved > 0);
    assert_eq!(cold.get("procs_reused").and_then(Json::as_u64), Some(0));

    let warm = client.roundtrip(analyze_frame("t1")).expect("warm analyze");
    assert_eq!(warm.get("procs_reused").and_then(Json::as_u64), Some(2));
    let warm_replayed = warm
        .get("replayed")
        .and_then(Json::as_u64)
        .expect("replayed");
    assert!(warm_replayed > 0, "warm run replayed nothing: {warm:?}");
    assert_eq!(
        warm.get("any_maybe"),
        cold.get("any_maybe"),
        "replay changed the overall verdict"
    );
    // Tables are per-name: a different name starts cold.
    let other = client.roundtrip(analyze_frame("t2")).expect("other table");
    assert_eq!(other.get("replayed").and_then(Json::as_u64), Some(0));

    // Invalidate one procedure: only it re-proves on the next run.
    let inv = client
        .roundtrip(obj(vec![
            ("verb", "invalidate".into()),
            ("name", "t1".into()),
            ("proc", "update".into()),
        ]))
        .expect("invalidate");
    assert!(
        inv.get("dropped_verdicts")
            .and_then(Json::as_u64)
            .expect("dropped")
            > 0
    );
    let after = client
        .roundtrip(analyze_frame("t1"))
        .expect("after invalidate");
    assert_eq!(after.get("procs_reused").and_then(Json::as_u64), Some(1));
    let procs = match after.get("procs") {
        Some(Json::Arr(items)) => items,
        other => panic!("procs missing: {other:?}"),
    };
    for proc in procs {
        let name = proc.get("proc").and_then(Json::as_str).expect("proc name");
        let reused = proc.get("reused").expect("reused flag");
        assert_eq!(
            reused,
            &Json::Bool(name != "update"),
            "only the invalidated procedure should re-prove"
        );
    }

    // `stats` carries the version too, and counted the analyze traffic.
    let stats = client
        .roundtrip(obj(vec![("verb", "stats".into())]))
        .expect("stats");
    assert_eq!(
        stats.get("proto_version").and_then(Json::as_u64),
        Some(apt::serve::PROTO_VERSION)
    );
    let server_stats = stats.get("server").expect("server stats");
    assert!(
        server_stats
            .get("analyze_replayed")
            .and_then(Json::as_u64)
            .expect("analyze_replayed")
            > 0
    );

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn structurally_equal_axiom_sets_dedupe_across_connections() {
    let (addr, handle, join) = start_server(ServeConfig::new());

    let mut c1 = connect(addr);
    let frame = c1
        .roundtrip(obj(vec![
            ("verb", "open_session".into()),
            ("axioms", llt_text().as_str().into()),
        ]))
        .expect("open 1");
    let s1 = frame
        .get("session")
        .and_then(Json::as_str)
        .expect("id")
        .to_owned();
    assert_eq!(frame.get("deduped"), Some(&Json::Bool(false)));

    // Same axioms, different connection, different text (extra comments
    // and whitespace) — must land on the same compiled session.
    let noisy = format!("# leaf-linked tree (Figure 3)\n\n  {}", llt_text());
    let mut c2 = connect(addr);
    let frame = c2
        .roundtrip(obj(vec![
            ("verb", "open_session".into()),
            ("axioms", noisy.as_str().into()),
        ]))
        .expect("open 2");
    assert_eq!(frame.get("deduped"), Some(&Json::Bool(true)));
    assert_eq!(
        frame.get("session").and_then(Json::as_str),
        Some(s1.as_str())
    );

    // A different set gets a fresh session.
    let frame = c2
        .roundtrip(obj(vec![
            ("verb", "open_session".into()),
            ("axioms", sparse_matrix_axioms().to_string().as_str().into()),
        ]))
        .expect("open 3");
    assert_eq!(frame.get("deduped"), Some(&Json::Bool(false)));
    assert_ne!(
        frame.get("session").and_then(Json::as_str),
        Some(s1.as_str())
    );

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn overload_refuses_instead_of_timing_out_or_crashing() {
    let mut config = ServeConfig::new();
    config.workers = 1;
    config.high_water = 1;
    let (addr, handle, join) = start_server(config);

    let mut opener = connect(addr);
    let session = opener.open_session(&llt_text()).expect("open");
    let (a, b) = blocker_paths(32);

    // Fire four concurrent slow queries. With one worker and one queue
    // slot, two get served (eventually) and the rest must be refused
    // with `overloaded` — quickly, not via timeout.
    let blocker_frame = |session: &str| {
        let mut line = obj(vec![
            ("verb", Json::from("prove")),
            ("session", session.into()),
            ("a", a.as_str().into()),
            ("b", b.as_str().into()),
            ("fuel", 5_000_000u64.into()),
            ("deadline_ms", 10_000u64.into()),
        ])
        .render();
        line.push('\n');
        line
    };
    let mut streams = Vec::new();
    for _ in 0..4 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(blocker_frame(&session).as_bytes())
            .expect("send");
        s.flush().expect("flush");
        streams.push(s);
        // Order the arrivals so exactly: run, queue, refuse, refuse.
        std::thread::sleep(Duration::from_millis(150));
    }

    // The refused connections answer fast; read with a short timeout.
    let mut refused = 0;
    let mut served = 0;
    for s in &streams {
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
    }
    for s in streams {
        let mut reader = std::io::BufReader::new(s);
        let mut line = String::new();
        match std::io::BufRead::read_line(&mut reader, &mut line) {
            Ok(n) if n > 0 => {
                let frame = apt::serve::json::parse(line.trim()).expect("response parses");
                if frame.get("ok") == Some(&Json::Bool(true)) {
                    served += 1;
                } else {
                    let code = frame.get("error").and_then(Json::as_str).unwrap_or("?");
                    assert_eq!(code, "overloaded", "unexpected error frame: {line}");
                    refused += 1;
                }
            }
            // Still proving (the served/queued connections): that's fine.
            _ => served += 1,
        }
    }
    assert_eq!(refused, 2, "expected exactly two overload refusals");
    assert_eq!(served, 2);

    // Metrics recorded the refusals, and the server is still healthy.
    let stats = opener
        .roundtrip(obj(vec![("verb", "stats".into())]))
        .expect("stats");
    let refusals = stats
        .get("server")
        .and_then(|s| s.get("overload_refusals"))
        .and_then(Json::as_u64)
        .expect("overload_refusals");
    assert_eq!(refusals, 2);

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn per_request_budgets_are_clamped_by_the_server_ceiling() {
    let mut config = ServeConfig::new();
    // A ceiling tight enough that the blocker cannot finish: 200ms.
    config.ceiling = Budget::new().with_deadline(Duration::from_millis(200));
    config.default_budget = config.ceiling.clone();
    let (addr, handle, join) = start_server(config);

    let mut client = connect(addr);
    let session = client.open_session(&llt_text()).expect("open");
    let (a, b) = blocker_paths(32);

    // The client asks for a 60-second deadline; the ceiling must win.
    let started = Instant::now();
    let frame = client
        .roundtrip(obj(vec![
            ("verb", "prove".into()),
            ("session", session.as_str().into()),
            ("a", a.as_str().into()),
            ("b", b.as_str().into()),
            ("deadline_ms", 60_000u64.into()),
        ]))
        .expect("prove");
    let elapsed = started.elapsed();
    let verdict = parse_verdict(frame.get("result").expect("result")).expect("verdict");
    assert_eq!(verdict.0, Answer::Maybe);
    assert!(
        verdict.1.expect("reason").is_degraded(),
        "ceiling should have degraded the answer: {verdict:?}"
    );
    // Generous bound (debug builds check the deadline less often), but
    // far below the requested 60s: the ceiling, not the request, won.
    assert!(
        elapsed < Duration::from_secs(20),
        "ceiling not enforced: query ran {elapsed:?}"
    );

    handle.stop();
    join.join().expect("server thread");
}

/// Reads one reply frame off a raw connection.
fn read_frame(reader: &mut std::io::BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    let n = std::io::BufRead::read_line(reader, &mut line).expect("read frame");
    assert!(n > 0, "connection closed while expecting a frame");
    apt::serve::json::parse(line.trim()).expect("frame parses")
}

fn stats(client: &mut Client) -> Json {
    client
        .roundtrip(obj(vec![("verb", "stats".into())]))
        .expect("stats")
}

/// A counter of the `stats` reply's `server` block, by its path.
fn server_stat(stats: &Json, path: &[&str]) -> u64 {
    let mut value = stats.get("server");
    for key in path {
        value = value.and_then(|v| v.get(key));
    }
    value
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lacks server.{}", path.join(".")))
}

const QUEUE_WAITS: &[&str] = &["latency", "queue_wait_us", "count"];

/// Polls `stats` until `ready` holds of the reply.
fn await_stats(client: &mut Client, ready: impl Fn(&Json) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = stats(client);
        if ready(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "the server never got there: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_settled_answer_waits_behind_its_connections_pooled_job() {
    let (addr, handle, join) = start_server(ServeConfig::new());
    let mut client = connect(addr);
    let session = client.open_session(&llt_text()).expect("open");
    // Settle the query, then pipeline a slow unsettled query and the
    // settled one in a single write.
    let warm = client
        .prove_disjoint(&session, "L.L.N", "L.R.N", false)
        .expect("warm-up prove");
    assert_eq!(parse_verdict(&warm).expect("verdict"), (Answer::No, None));
    let (a, b) = blocker_paths(24);
    let mut pipelined = String::new();
    for frame in [
        obj(vec![
            ("verb", "prove".into()),
            ("id", 1u64.into()),
            ("session", session.as_str().into()),
            ("a", a.as_str().into()),
            ("b", b.as_str().into()),
            ("deadline_ms", 300u64.into()),
        ]),
        obj(vec![
            ("verb", "prove".into()),
            ("id", 2u64.into()),
            ("session", session.as_str().into()),
            ("a", "L.L.N".into()),
            ("b", "L.R.N".into()),
        ]),
    ] {
        pipelined.push_str(&frame.render());
        pipelined.push('\n');
    }
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(pipelined.as_bytes()).expect("send");
    let mut reader = std::io::BufReader::new(raw);
    let first = read_frame(&mut reader);
    let second = read_frame(&mut reader);
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(1), "{first:?}");
    assert_eq!(
        second.get("id").and_then(Json::as_u64),
        Some(2),
        "{second:?}"
    );
    let verdict =
        |frame: &Json| parse_verdict(frame.get("result").expect("result")).expect("verdict");
    assert_eq!(verdict(&first).0, Answer::Maybe);
    assert_eq!(verdict(&second), (Answer::No, None));
    // Two pooled jobs (the warm-up and the slow query) for three
    // queries: the settled answer never went through the queue.
    let stats = stats(&mut client);
    assert_eq!(server_stat(&stats, QUEUE_WAITS), 2);
    assert_eq!(server_stat(&stats, &["queries_total"]), 3);

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn a_saturated_pool_still_answers_settled_queries() {
    let mut config = ServeConfig::new();
    config.workers = 1;
    config.high_water = 1;
    let (addr, handle, join) = start_server(config);
    let mut client = connect(addr);
    let session = client.open_session(&llt_text()).expect("open");
    client
        .prove_disjoint(&session, "L.L.N", "L.R.N", false)
        .expect("warm-up prove");

    // One slow query occupies the worker (its queue wait is recorded
    // when the worker picks it up), a second fills the queue.
    let (a, b) = blocker_paths(32);
    let mut line = obj(vec![
        ("verb", Json::from("prove")),
        ("session", session.as_str().into()),
        ("a", a.as_str().into()),
        ("b", b.as_str().into()),
        ("fuel", 5_000_000u64.into()),
        ("deadline_ms", 10_000u64.into()),
    ])
    .render();
    line.push('\n');
    let mut running = TcpStream::connect(addr).expect("connect");
    running.write_all(line.as_bytes()).expect("send");
    await_stats(&mut client, |s| server_stat(s, QUEUE_WAITS) == 2);
    let mut queued = TcpStream::connect(addr).expect("connect");
    queued.write_all(line.as_bytes()).expect("send");
    await_stats(&mut client, |s| {
        s.get("queue_depth").and_then(Json::as_u64) == Some(1)
    });

    // Unsettled work is refused...
    match client.prove_disjoint(&session, "L.L.L.N", "L.R.N", false) {
        Err(ClientError::Server(code, _)) => assert_eq!(code, "overloaded"),
        other => panic!("expected an overload refusal, got {other:?}"),
    }
    // ...but a settled query needs no worker and is answered.
    let result = client
        .prove_disjoint(&session, "L.L.N", "L.R.N", false)
        .expect("settled prove under overload");
    assert_eq!(parse_verdict(&result).expect("verdict"), (Answer::No, None));
    assert_eq!(server_stat(&stats(&mut client), &["overload_refusals"]), 1);

    drop((running, queued));
    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn report_replies_on_the_two_procedure_example_keep_their_bytes() {
    // The `report` verb renders one whole-program run; `proc` picks the
    // procedures the reply lists. These are the bytes the per-procedure
    // batches answered with before.
    let (addr, handle, join) = start_server(ServeConfig::new());
    let program = std::fs::read_to_string(format!(
        "{}/examples/programs/twoproc.apt",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("read twoproc.apt");
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    let cases: [(Option<&str>, &str); 3] = [
        (
            None,
            concat!(
                r#"{"ok":true,"procs":[{"proc":"update","queries":[{"query":"carried U","#,
                r#""answer":"No","reason":"ProvenDisjoint","maybe":null}]},"#,
                r#"{"proc":"touch","queries":[{"query":"W vs X","answer":"Yes","#,
                r#""reason":"IdenticalSingletonPaths","maybe":null}]}],"total_queries":2}"#,
                "\n"
            ),
        ),
        (
            Some("touch"),
            concat!(
                r#"{"ok":true,"procs":[{"proc":"touch","queries":[{"query":"W vs X","#,
                r#""answer":"Yes","reason":"IdenticalSingletonPaths","maybe":null}]}],"#,
                r#""total_queries":1}"#,
                "\n"
            ),
        ),
        (
            Some("nosuch"),
            concat!(
                r#"{"ok":true,"procs":[{"proc":"nosuch","#,
                r#""error":"no memory-access snapshot labeled \"nosuch\""}],"#,
                r#""total_queries":0}"#,
                "\n"
            ),
        ),
    ];
    for (proc, want) in cases {
        let mut frame = vec![
            ("verb", Json::from("report")),
            ("program", program.as_str().into()),
        ];
        if let Some(proc) = proc {
            frame.push(("proc", proc.into()));
        }
        writeln!(writer, "{}", obj(frame).render()).expect("send");
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).expect("read reply");
        assert_eq!(line, want, "proc {proc:?}");
    }
    handle.stop();
    join.join().expect("server thread");
}
