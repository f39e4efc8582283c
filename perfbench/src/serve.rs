//! serve-warm: build jobs querying a resident `apt serve` daemon over a
//! Unix socket, one closed-loop connection per core.

use crate::checks::{self, Gate};
use crate::gen::{corpus, CorpusQuery, Set};
use crate::report::{cache_delta, Clock, Measured};
use crate::rng::Rng;
use crate::stats::{cpu_time, peak_rss_mib};
use crate::trace::Recorder;
use crate::Ctx;
use apt_axioms::CompiledAxioms;
use apt_core::{Answer, CacheStats, DepEngine, DepQuery, ProverStats};
use apt_serve::json::Json;
use apt_serve::proto::parse_verdict;
use apt_serve::{Client, ClientError};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the daemon may take to accept connections or to exit.
const PATIENCE: Duration = Duration::from_secs(10);

/// A running daemon. Dropping it kills the process if it is still up,
/// waits for it, and removes the socket — also when a check failed.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `apt serve` and waits until the socket accepts; returns the
    /// daemon and the instant it became ready.
    fn spawn(apt: &Path, socket: &Path, workers: usize) -> Result<(Daemon, Instant), String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(apt)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", apt.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_owned(),
        };
        let deadline = Instant::now() + PATIENCE;
        loop {
            if std::os::unix::net::UnixStream::connect(socket).is_ok() {
                return Ok((daemon, Instant::now()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("apt serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("apt serve did not accept connections".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect_unix(&self.socket).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + PATIENCE;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map_err(|e| format!("shutdown: {e}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("apt serve did not exit after shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One `prove` round trip; the reply's `result` object.
fn prove(client: &mut Client, session: &str, q: &CorpusQuery, id: u64) -> Result<Json, String> {
    let origin = match q.origin {
        apt_core::Origin::Same => "same",
        _ => "distinct",
    };
    let line = format!(
        "{{\"verb\":\"prove\",\"id\":{id},\"session\":\"{session}\",\"a\":\"{}\",\"b\":\"{}\",\"origin\":\"{origin}\"}}",
        q.a, q.b
    );
    match client.roundtrip_raw(&line) {
        Ok(frame) => frame
            .get("result")
            .cloned()
            .ok_or_else(|| "prove reply lacks result".to_owned()),
        Err(ClientError::Server(code, message)) => Err(format!("{code} frame: {message}")),
        Err(e) => Err(format!("transport: {e}")),
    }
}

fn answer_of(result: &Json) -> Result<Answer, String> {
    parse_verdict(result)
        .map(|(a, _)| a)
        .ok_or_else(|| "unreadable verdict".to_owned())
}

/// Checks one wire answer: label, first pass, and a proof behind a `No`.
fn check_reply(q: &CorpusQuery, result: &Json, first: Answer) -> Result<Answer, String> {
    let answer = answer_of(result)?;
    let what = format!("{:?} {} vs {}", q.set, q.a, q.b);
    checks::label(answer, q.truth, &what)?;
    checks::same(first, answer, &what)?;
    if answer == Answer::No && matches!(result.get("proof"), None | Some(Json::Null)) {
        return Err(format!("{what}: No without a proof"));
    }
    Ok(answer)
}

fn prover_stats(result: &Json) -> ProverStats {
    let s = result.get("stats");
    let n = |k: &str| s.and_then(|s| s.get(k)).and_then(Json::as_u64).unwrap_or(0);
    ProverStats {
        goals_attempted: n("goals_attempted"),
        cache_hits: n("cache_hits"),
        shared_hits: n("shared_hits"),
        subset_checks: n("subset_checks"),
        dispatch_hits: n("dispatch_hits"),
        dispatch_misses: n("dispatch_misses"),
        neg_memo_hits: n("neg_memo_hits"),
        ..ProverStats::default()
    }
}

/// What the `stats` verb says, reduced to the numbers the benchmark uses.
#[derive(Default)]
struct DaemonStats {
    request_count: f64,
    request_sum_us: f64,
    queue_count: f64,
    queue_sum_us: f64,
    cache: CacheStats,
    arena_bytes: f64,
    arena_freed: f64,
}

fn daemon_stats(client: &mut Client) -> Result<DaemonStats, String> {
    let frame = client
        .roundtrip(apt_serve::json::obj(vec![("verb", "stats".into())]))
        .map_err(|e| format!("stats: {e}"))?;
    let num = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0) as f64;
    let server = frame.get("server");
    let hist = |name: &str| {
        let h = server
            .and_then(|s| s.get("latency"))
            .and_then(|l| l.get(name));
        let count = num(h.and_then(|h| h.get("count")));
        (count, count * num(h.and_then(|h| h.get("mean_us"))))
    };
    let (request_count, request_sum_us) = hist("request_us");
    let (queue_count, queue_sum_us) = hist("queue_wait_us");
    let mut cache = CacheStats::default();
    for s in frame
        .get("sessions")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let c = s.get("cache");
        let n = |k: &str| num(c.and_then(|c| c.get(k))) as usize;
        cache.proved_goals += n("proved_goals");
        cache.failed_goals += n("failed_goals");
        cache.subset_results += n("subset_results");
        cache.dfas += n("dfas");
        cache.min_dfas += n("min_dfas");
    }
    let memory = server.and_then(|s| s.get("memory"));
    Ok(DaemonStats {
        request_count,
        request_sum_us,
        queue_count,
        queue_sum_us,
        cache,
        arena_bytes: num(memory.and_then(|m| m.get("arena_bytes"))),
        arena_freed: num(memory.and_then(|m| m.get("arena_freed_total"))),
    })
}

/// One connection's share of the timed phase.
#[derive(Default)]
struct Share {
    waits: Vec<(Duration, bool)>,
    answered: u64,
    definite: u64,
    prover: ProverStats,
    gate: Gate,
}

pub fn warm(ctx: &Ctx) -> crate::Run {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, ctx.trace);
    let mut m = Measured::default();
    let mut gate = Gate::default();
    let corpus = corpus(ctx.seed);
    for set in Set::ALL {
        let axioms = set.axioms();
        rec.span("axioms.compile", |_| CompiledAxioms::compile(&axioms));
    }
    let _ = std::fs::create_dir_all(&ctx.out);
    let socket = ctx
        .out
        .join(format!("perfbench-{}.sock", std::process::id()));

    // Set-up: spawn the daemon, open one session per axiom set, make one
    // warm pass over the corpus. The last repetition's daemon serves the
    // timed phase.
    let mut daemon = None;
    let mut sessions: Vec<String> = Vec::new();
    let mut first: Vec<Answer> = Vec::new();
    while m.setup_more() {
        if let Some(d) = daemon.take() {
            if let Err(e) = Daemon::stop(d) {
                gate.fail(e);
            }
        }
        let started = Instant::now();
        let setup = (|| -> Result<(Daemon, Vec<String>, Vec<Answer>), String> {
            let (d, ready) = Daemon::spawn(&ctx.apt, &socket, ctx.jobs)?;
            rec.record("serve.spawn_ready", started, ready);
            let mut client = Client::connect_unix(&socket).map_err(|e| e.to_string())?;
            let mut ids = Vec::new();
            for set in Set::ALL {
                let t = Instant::now();
                let id = client
                    .open_session(&set.axioms_text())
                    .map_err(|e| format!("open_session: {e}"))?;
                rec.record("serve.open_session", t, Instant::now());
                ids.push(id);
            }
            let mut answers = Vec::new();
            for (i, q) in corpus.iter().enumerate() {
                let result = prove(&mut client, &ids[q.set.index()], q, i as u64)?;
                answers.push(answer_of(&result)?);
            }
            Ok((d, ids, answers))
        })();
        match setup {
            Ok((d, ids, answers)) => {
                m.setups.push(started.elapsed());
                daemon = Some(d);
                sessions = ids;
                first = answers;
            }
            Err(e) => {
                gate.fail(format!("set-up: {e}"));
                return crate::Run::new(ctx, m, gate, vec![(0, rec)]);
            }
        }
    }
    let daemon = daemon.expect("set-up ran");
    for (q, a) in corpus.iter().zip(&first) {
        gate.record(checks::label(
            *a,
            q.truth,
            &format!("{:?} {} vs {}", q.set, q.a, q.b),
        ));
    }

    let mut control = match Client::connect_unix(&socket) {
        Ok(c) => c,
        Err(e) => {
            gate.fail(format!("control connection: {e}"));
            return crate::Run::new(ctx, m, gate, vec![(0, rec)]);
        }
    };
    let mut clients = Vec::new();
    for _ in 0..ctx.jobs {
        match Client::connect_unix(&socket) {
            Ok(c) => clients.push(c),
            Err(e) => {
                gate.fail(format!("connect: {e}"));
                return crate::Run::new(ctx, m, gate, vec![(0, rec)]);
            }
        }
    }
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    Rng::new(ctx.seed ^ 0x5345_5256).shuffle(&mut order);
    let jobs = ctx.jobs;
    let before = daemon_stats(&mut control);
    let cpu0 = cpu_time(&daemon.pid());
    let clock = Clock::start(ctx.seconds, ctx.trace);
    let (corpus_ref, sessions_ref, first_ref, clock_ref, order_ref) =
        (&corpus, &sessions, &first, &clock, &order);
    let shares: Vec<(Share, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, mut client)| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, false);
                    rec.set_timed(true);
                    let mut share = Share::default();
                    let mut id = (t as u64 + 1) << 40;
                    // Each connection walks the shared seeded order from
                    // its own offset, so every query is asked equally often.
                    let offset = t * order_ref.len() / jobs;
                    for &i in order_ref.iter().cycle().skip(offset) {
                        if !clock_ref.running() {
                            break;
                        }
                        let q = &corpus_ref[i];
                        let traced = clock_ref.traced_block();
                        rec.set_enabled(traced);
                        id += 1;
                        let started = Instant::now();
                        let reply = rec.span_req("serve.request", id, |_| {
                            prove(&mut client, &sessions_ref[q.set.index()], q, id)
                        });
                        share.waits.push((started.elapsed(), traced));
                        share.answered += 1;
                        match reply.and_then(|r| {
                            share.prover.merge(&prover_stats(&r));
                            check_reply(q, &r, first_ref[i])
                        }) {
                            Ok(answer) => {
                                share.definite += u64::from(answer != Answer::Maybe);
                                share.gate.record(Ok(()));
                            }
                            Err(e) => share.gate.fail(e),
                        }
                    }
                    (share, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    m.cpu = cpu_time(&daemon.pid()).saturating_sub(cpu0);
    let wall = clock.elapsed();
    m.peak_rss_mib = peak_rss_mib(&daemon.pid());
    let after = daemon_stats(&mut control);
    drop(control);
    if let Err(e) = daemon.stop() {
        gate.fail(e);
    }

    let mut recorders = vec![(0, rec)];
    for (t, (share, rec)) in shares.into_iter().enumerate() {
        for (wait, traced) in share.waits {
            m.wait(wait, traced);
        }
        m.answered += share.answered;
        m.definite += share.definite;
        m.prover.merge(&share.prover);
        gate.attempted += share.gate.attempted;
        gate.failed += share.gate.failed;
        recorders.push((t as u32 + 1, rec));
    }
    // Concurrent connections: throughput is over the phase's wall time.
    m.timed = wall;

    match (before, after) {
        (Ok(b), Ok(a)) => {
            let mean = |sum: f64, count: f64| if count > 0.0 { sum / count } else { 0.0 };
            let q = m.answered.max(1) as f64;
            let counts = &mut m.counts;
            counts.insert(
                "serve.request_mean_us",
                mean(
                    a.request_sum_us - b.request_sum_us,
                    a.request_count - b.request_count,
                ),
            );
            counts.insert(
                "serve.queue_wait_mean_us",
                mean(
                    a.queue_sum_us - b.queue_sum_us,
                    a.queue_count - b.queue_count,
                ),
            );
            counts.insert("serve.daemon_cpu_us", m.cpu.as_secs_f64() * 1e6 / q);
            counts.insert("regex.arena_live_bytes", a.arena_bytes);
            counts.insert(
                "regex.arena_freed_total",
                (a.arena_freed - b.arena_freed) / q,
            );
            // The stats verb reports cache entry counts but not DFA
            // states, so the state metrics stay 0 on this workload.
            m.cache = cache_delta(&a.cache, &b.cache);
        }
        (b, a) => gate.fail(format!("stats verb: {:?} / {:?}", b.err(), a.err())),
    }

    // Certificates: the same queries proved in this process, every `No`
    // proof checked, and the answers equal to the daemon's.
    let engines: Vec<DepEngine> = Set::ALL
        .iter()
        .map(|s| DepEngine::new(s.axioms()))
        .collect();
    let mut final_gate = Gate::default();
    for (q, daemon_answer) in corpus.iter().zip(&first) {
        let engine = &engines[q.set.index()];
        let o = engine.run(&DepQuery::disjoint(&q.a, &q.b).origin(q.origin));
        let what = format!("{:?} {} vs {}", q.set, q.a, q.b);
        let proofs: Vec<_> = o.proof.into_iter().collect();
        let answer = o.verdict.answer;
        final_gate.record(checks::same(*daemon_answer, answer, &what).and_then(|()| {
            recorders[0].1.span("check.proof", |_| {
                checks::proofs(engine.axioms(), answer, &proofs)
            })
        }));
    }
    gate.failed += final_gate.failed;
    crate::Run::new(ctx, m, gate, recorders)
}
