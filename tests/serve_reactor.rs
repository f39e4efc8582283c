//! Edge-case tests for the epoll reactor in `apt-serve`.
//!
//! The readiness loop replaces two threads per connection with per-fd
//! state machines, and every subtle behaviour of that machinery gets a
//! test here: frames split across arbitrarily small writes, pipelined
//! requests answered strictly in order, write backpressure against a
//! reader that never drains its socket, incremental enforcement of the
//! request-line cap, the timer wheel renewing deadlines under traffic
//! while still killing truly idle peers, the connection cap refusing
//! with a frame instead of `EMFILE`, and a few hundred idle
//! connections costing zero additional threads.

use apt::serve::json::{obj, parse, Json};
use apt::serve::{ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn start_server(config: ServeConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let mut server = Server::new(config);
    let addr = server.bind_tcp("127.0.0.1:0").expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, join)
}

/// Threads of *this test*: the calling thread and every thread started
/// from it, the in-process server's included, straight from /proc — the
/// property under test is that connections are state, not threads.
/// Linux gives a new thread its creator's name and the test harness
/// names each test's thread after the test, so the threads of tests
/// running alongside (their servers starting and stopping) do not count.
fn thread_count() -> usize {
    let own = std::fs::read_to_string("/proc/thread-self/comm").expect("/proc/thread-self/comm");
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| *name == own)
        .count()
}

fn read_frame(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read frame");
    assert!(n > 0, "connection closed while expecting a frame");
    parse(line.trim()).expect("frame parses")
}

const AXIOMS: &str = "structure T { tree L, R; list N; acyclic L, R, N; }";

#[test]
fn frames_split_across_tiny_writes_are_reassembled() {
    let (addr, handle, join) = start_server(ServeConfig::new());
    let mut stream = TcpStream::connect(addr).expect("connect");

    // An open_session followed by a prove, dribbled a few bytes at a
    // time — including across the newline between the two frames.
    let open = obj(vec![
        ("verb", "open_session".into()),
        ("axioms", AXIOMS.into()),
    ]);
    let mut bytes = open.render().into_bytes();
    bytes.push(b'\n');
    for chunk in bytes.chunks(3) {
        stream.write_all(chunk).expect("dribble");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let frame = read_frame(&mut reader);
    assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "open: {frame:?}");
    let session = frame
        .get("session")
        .and_then(Json::as_str)
        .expect("session id")
        .to_owned();

    let prove = obj(vec![
        ("verb", "prove".into()),
        ("session", session.as_str().into()),
        ("a", "L.L.N".into()),
        ("b", "L.R.N".into()),
    ]);
    let mut bytes = prove.render().into_bytes();
    bytes.push(b'\n');
    // Split exactly at the closing brace so the newline travels alone.
    let (head, tail) = bytes.split_at(bytes.len() - 1);
    stream.write_all(head).expect("head");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(tail).expect("tail newline");
    stream.flush().expect("flush");
    let frame = read_frame(&mut reader);
    assert_eq!(
        frame
            .get("result")
            .and_then(|r| r.get("answer"))
            .and_then(Json::as_str),
        Some("No"),
        "prove over split frames: {frame:?}"
    );

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let (addr, handle, join) = start_server(ServeConfig::new());
    let mut stream = TcpStream::connect(addr).expect("connect");

    // Open a session first (its reply keeps the id sequence honest too).
    let mut batch = String::new();
    let open = obj(vec![
        ("verb", "open_session".into()),
        ("axioms", AXIOMS.into()),
        ("id", 0u64.into()),
    ]);
    batch.push_str(&open.render());
    batch.push('\n');
    stream.write_all(batch.as_bytes()).expect("open");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let frame = read_frame(&mut reader);
    assert_eq!(frame.get("id").and_then(Json::as_u64), Some(0));
    let session = frame
        .get("session")
        .and_then(Json::as_str)
        .expect("session")
        .to_owned();

    // 30 frames in one write: pooled proves interleaved with inline
    // control verbs. Responses must come back 1..=30 in exact order —
    // the reactor keeps one pooled job in flight per connection and
    // never lets an inline reply overtake a queued prove.
    let mut batch = String::new();
    for id in 1..=30u64 {
        let frame = if id % 3 == 0 {
            obj(vec![("verb", "health".into()), ("id", id.into())])
        } else {
            obj(vec![
                ("verb", "prove".into()),
                ("session", session.as_str().into()),
                ("a", "L.L.N".into()),
                ("b", "L.R.N".into()),
                ("id", id.into()),
            ])
        };
        batch.push_str(&frame.render());
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).expect("pipeline");
    stream.flush().expect("flush");
    for want in 1..=30u64 {
        let frame = read_frame(&mut reader);
        assert_eq!(
            frame.get("id").and_then(Json::as_u64),
            Some(want),
            "responses out of order: {frame:?}"
        );
        assert_eq!(frame.get("ok"), Some(&Json::Bool(true)), "{frame:?}");
    }

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn write_backpressure_from_a_slow_reader_does_not_stall_others() {
    let (addr, handle, join) = start_server(ServeConfig::new());

    // Connection A stuffs ~2 MiB of requests down the pipe and reads
    // nothing. Each unsupported-verb error frame echoes its ~2 KiB verb
    // back, so the server's reply stream quickly overruns both the
    // socket buffer and the reactor's write high-water mark; the
    // reactor must park A (stop reading it) instead of blocking.
    const SLOW_FRAMES: usize = 1000;
    let fat_verb = "x".repeat(2048);
    let slow = TcpStream::connect(addr).expect("connect slow");
    let mut slow_writer = slow.try_clone().expect("clone");
    let frame = obj(vec![("verb", fat_verb.as_str().into())]);
    let line = {
        let mut l = frame.render();
        l.push('\n');
        l
    };
    let writer = std::thread::spawn(move || {
        for _ in 0..SLOW_FRAMES {
            // The kernel buffer fills once the reactor parks the
            // connection; this write then blocks until we drain below.
            if slow_writer.write_all(line.as_bytes()).is_err() {
                panic!("server closed the slow connection under backpressure");
            }
        }
        slow_writer.flush().expect("flush");
    });

    // Meanwhile connection B must see normal service.
    std::thread::sleep(Duration::from_millis(100));
    let mut live = TcpStream::connect(addr).expect("connect live");
    let mut live_reader = BufReader::new(live.try_clone().expect("clone"));
    let started = Instant::now();
    for id in 0..20u64 {
        let frame = obj(vec![("verb", "health".into()), ("id", id.into())]);
        let mut line = frame.render();
        line.push('\n');
        live.write_all(line.as_bytes()).expect("live write");
        let reply = read_frame(&mut live_reader);
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id));
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "healthy connection starved behind a slow reader: {:?}",
        started.elapsed()
    );

    // Now drain A: every one of the 1000 responses must arrive, each
    // echoing the fat verb — backpressure deferred them, lost nothing.
    let mut slow_reader = BufReader::new(slow);
    for i in 0..SLOW_FRAMES {
        let mut line = String::new();
        let n = slow_reader.read_line(&mut line).expect("drain slow");
        assert!(n > 0, "slow connection closed early at response {i}");
        let frame = parse(line.trim()).expect("frame parses");
        assert_eq!(
            frame.get("verb").and_then(Json::as_str),
            Some(fat_verb.as_str()),
            "response {i} mangled under backpressure"
        );
    }
    writer.join().expect("writer thread");

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn oversize_request_line_is_rejected_incrementally() {
    let (addr, handle, join) = start_server(ServeConfig::new());
    let mut stream = TcpStream::connect(addr).expect("connect");

    // 9 MiB with no newline. The 8 MiB cap must fire while the line is
    // still partial — the server responds and closes without ever
    // seeing a frame terminator. Late writes may hit a closed socket;
    // that is the cap working, not a failure.
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent < 9 * 1024 * 1024 {
        match stream.write(&chunk) {
            Ok(n) => sent += n,
            Err(_) => break,
        }
    }
    let _ = stream.flush();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read rejection");
    assert!(n > 0, "no rejection frame before close");
    let frame = parse(line.trim()).expect("frame parses");
    assert_eq!(
        frame.get("error").and_then(Json::as_str),
        Some("bad_request"),
        "oversize line: {frame:?}"
    );
    // Then the connection dies: clean EOF, or RST if the kernel still
    // held unread bytes from our aborted upload when the server closed.
    line.clear();
    match reader.read_line(&mut line) {
        Ok(n) => assert_eq!(n, 0, "connection stayed open after oversize line"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn timer_wheel_renews_active_connections_and_times_out_idle_ones() {
    let mut config = ServeConfig::new();
    config.idle_timeout = Some(Duration::from_millis(300));
    let (addr, handle, join) = start_server(config);

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Traffic every 100ms for ~1.2s: each completed frame renews the
    // 300ms deadline, so the connection must survive four times its
    // idle budget while active.
    for id in 0..12u64 {
        let frame = obj(vec![("verb", "health".into()), ("id", id.into())]);
        let mut line = frame.render();
        line.push('\n');
        stream.write_all(line.as_bytes()).expect("write");
        let reply = read_frame(&mut reader);
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id));
        std::thread::sleep(Duration::from_millis(100));
    }

    // Then silence: the wheel must fire with a machine-readable frame,
    // then close.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read timeout frame");
    assert!(n > 0, "no timeout frame before close");
    let frame = parse(line.trim()).expect("frame parses");
    assert_eq!(
        frame.get("error").and_then(Json::as_str),
        Some("timeout"),
        "idle connection: {frame:?}"
    );
    line.clear();
    let n = reader.read_line(&mut line).expect("read eof");
    assert_eq!(n, 0, "connection stayed open after idle timeout");

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn connection_cap_refuses_with_a_frame_not_emfile() {
    let mut config = ServeConfig::new();
    config.max_connections = 2;
    let (addr, handle, join) = start_server(config);

    // Two admitted connections; the first doubles as our stats client.
    let mut c1 = TcpStream::connect(addr).expect("connect 1");
    let mut c1_reader = BufReader::new(c1.try_clone().expect("clone"));
    let _c2 = TcpStream::connect(addr).expect("connect 2");
    std::thread::sleep(Duration::from_millis(100));

    // The third gets an overloaded frame and EOF, not a hang.
    let c3 = TcpStream::connect(addr).expect("connect 3");
    c3.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut c3_reader = BufReader::new(c3);
    let mut line = String::new();
    let n = c3_reader.read_line(&mut line).expect("read refusal");
    assert!(n > 0, "refused connection closed without a frame");
    let frame = parse(line.trim()).expect("frame parses");
    assert_eq!(
        frame.get("error").and_then(Json::as_str),
        Some("overloaded"),
        "refusal frame: {frame:?}"
    );
    line.clear();
    assert_eq!(c3_reader.read_line(&mut line).expect("eof"), 0);

    // The admitted connections still work, and the refusal is counted.
    let mut req = obj(vec![("verb", "stats".into())]).render();
    req.push('\n');
    c1.write_all(req.as_bytes()).expect("stats");
    let stats = read_frame(&mut c1_reader);
    let server = stats.get("server").expect("server block");
    assert_eq!(
        server.get("connection_refusals").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        server.get("connections_active").and_then(Json::as_u64),
        Some(2)
    );

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn hundreds_of_idle_connections_cost_no_extra_threads() {
    let (addr, handle, join) = start_server(ServeConfig::new());

    // Let the server reach steady state (reactor + pool + flusherless),
    // with one active client connected.
    let mut client = TcpStream::connect(addr).expect("connect client");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let mut req = obj(vec![("verb", "health".into())]).render();
    req.push('\n');
    client.write_all(req.as_bytes()).expect("warmup");
    let _ = read_frame(&mut reader);
    let baseline = thread_count();
    assert!(
        baseline > 1,
        "the server's threads must be among those counted"
    );

    // 300 idle connections. Under the old thread-per-connection design
    // this was 600 threads; under the reactor it must be zero.
    let idle: Vec<TcpStream> = (0..300)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(thread_count(), baseline, "idle connections spawned threads");

    // The server still answers promptly through the crowd, and all the
    // idle connections are registered, not silently dropped.
    let mut req = obj(vec![("verb", "stats".into())]).render();
    req.push('\n');
    let started = Instant::now();
    client.write_all(req.as_bytes()).expect("stats");
    let stats = read_frame(&mut reader);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "stats crawled behind idle connections: {:?}",
        started.elapsed()
    );
    let active = stats
        .get("server")
        .and_then(|s| s.get("connections_active"))
        .and_then(Json::as_u64)
        .expect("connections_active");
    assert_eq!(active, 301, "idle connections not all registered");

    drop(idle);
    handle.stop();
    join.join().expect("server thread");
}
