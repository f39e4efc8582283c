//! The daemon: configuration, the worker pool, dispatch, snapshots.
//!
//! ## Threading model
//!
//! One **reactor** thread (the caller of [`Server::run`]) owns every
//! socket: nonblocking listeners and connections are driven by epoll
//! readiness through the per-connection state machines in
//! [`crate::reactor`]. Connections therefore cost a map entry and two
//! buffers, not threads — ten thousand idle clients are ten thousand
//! registered fds and nothing else.
//!
//! Proving happens on a fixed pool of **worker** threads behind a
//! bounded queue. The reactor parses a frame and either answers inline
//! or submits a job. It answers the cheap control verbs (`open_session`,
//! `stats`, …) itself, and also every `prove` whose query is already
//! settled in its session's shared proof cache: such a run only reads
//! that cache, so [`Portfolio::run_settled`] answers it with the outcome
//! and tally a worker's [`Portfolio::run`] would give, and the reactor
//! skips the pool round trip (a worker wake-up, the completion queue, an
//! eventfd write and a second `epoll_wait`). Everything else that proves goes to
//! the pool: an unsettled query, an equality query, a cached failure the
//! refuter would follow, a `prove` asking for proof text, and the
//! `batch`, `report` and `analyze` verbs. So the reactor never searches,
//! never runs the refuter and never formats a proof tree.
//!
//! The worker pushes the finished frame onto a completion queue and
//! rings the reactor's eventfd waker, which flushes it through the
//! connection's write buffer. When the queue is at its high-water mark
//! new pooled work is *refused* with an `overloaded` error frame instead
//! of being queued — under overload the daemon degrades to fast,
//! explicit refusals, never to unbounded memory growth or silent
//! timeouts. A settled answer needs no worker, so it is never refused.
//! Replies keep request order per connection: while a connection has a
//! job in flight, its later lines wait behind it, settled ones included.
//!
//! A disconnect cancels the connection-wide [`CancelToken`], which
//! aborts any proof currently running for that connection via the
//! prover's cooperative cancellation brake. Cancelled runs publish
//! nothing to the shared caches, so an abandoned query cannot poison a
//! session for later clients.
//!
//! ## Shutdown
//!
//! The `shutdown` verb answers `{"ok":true}`; once that reply is
//! flushed the reactor stops, closing every connection (cancelling
//! their tokens), the pool drains, and [`Server::run`] returns.
//! [`ServerHandle::stop`] does the same through the reactor's wakeup
//! fd — no polling loop, so stopping is immediate.
//!
//! ## Warm-state snapshots
//!
//! With a snapshot directory configured, [`Server::run`] first restores
//! whatever warm state a previous life left behind (per-section, under
//! checksums — see [`crate::snapshot`]), then serves; a dedicated
//! flusher thread blocks on a channel the reactor ticks at the
//! configured interval, and a final write happens on graceful
//! shutdown. Restore can only *add* warmth: any failure on this path
//! degrades to cold state for the affected sections and the daemon
//! serves regardless.
//!
//! ## Read deadlines
//!
//! The reactor's timer wheel enforces each connection's idle/read
//! deadline: a connection that sends nothing — or dribbles a partial
//! frame without ever finishing it (slow-loris) — past the deadline
//! receives a machine-readable `timeout` error frame and is closed, so
//! it cannot pin server state forever.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use apt_core::{
    Budget, CancelToken, DepEngine, DepQuery, EngineSelection, Origin, Outcome, Portfolio,
    PortfolioConfig, ProverConfig, ProverStats, TallySink,
};
use apt_paths::{
    analyze_program, BatchOptions, DepTable, ProcReport, QueryError, ReportRow, RowOutcome,
};

use crate::fault::FaultPlan;
use crate::json::{obj, Json};
use crate::metrics::{Metrics, RestoreOutcome};
use crate::poll::{nofile_limit, Waker};
use crate::proto::{
    error_frame, ok_frame, outcome_json, parse_request, portfolio_json, stats_json, ErrorCode,
    ProtoError, Request, WireQuery, PROTO_VERSION, SUPPORTED_VERBS,
};
use crate::reactor::{Listener, Reactor};
use crate::session::SessionRegistry;
use crate::snapshot::{self, AnalyzeSection, SectionOutcome, SessionSection, Snapshot};

/// Complete request lines a connection may queue behind its in-flight
/// request (pipelining depth); past this the reactor stops reading
/// from the socket until the queue drains.
pub(crate) const PIPELINE_DEPTH: usize = 8;
/// Hard cap on one request line, enforced incrementally while the
/// partial frame accumulates; crossing it gets a `bad_request` frame
/// and the connection closed (DoS guard — normal frames are a few KB).
pub(crate) const MAX_LINE: usize = 8 * 1024 * 1024;
/// Imported proofs spot-checked per restored section before the section
/// is trusted (one failure rejects the whole section's import).
const PROOF_VERIFY_SAMPLE: usize = 32;
/// Connection-cap headroom below the fd limit: listeners, the epoll
/// and event fds, snapshot files, stdio.
const FD_SLACK: u64 = 512;

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Prover worker threads (the pool that runs queries).
    pub workers: usize,
    /// Queue slots; at `high_water` queued jobs new work is refused.
    pub high_water: usize,
    /// Resident compiled sessions before LRU eviction.
    pub max_sessions: usize,
    /// Concurrent connections admitted; one past this is sent a
    /// best-effort `overloaded` frame and closed. Defaults to the
    /// process fd limit minus headroom, so the daemon refuses cleanly
    /// instead of hitting `EMFILE` mid-accept.
    pub max_connections: usize,
    /// Budget applied when a request carries no overrides.
    pub default_budget: Budget,
    /// Hard ceiling no per-request budget may exceed.
    pub ceiling: Budget,
    /// Directory for warm-state snapshots; `None` disables the tier.
    pub snapshot_dir: Option<PathBuf>,
    /// Background flusher period; `None` means snapshots are written
    /// only on graceful shutdown.
    pub snapshot_interval: Option<Duration>,
    /// Per-connection idle/read deadline; `None` disables it (a peer
    /// may then hold its connection slot indefinitely — test use only).
    pub idle_timeout: Option<Duration>,
    /// Injected faults for the snapshot path (dev/test only).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Default engine portfolio for proving verbs: the axiomatic prover
    /// alone unless widened. A proving frame's `"engines"` field
    /// overrides the selection per request (and a `batch` query's own
    /// field per query), keeping the rest of this tuning.
    pub portfolio: PortfolioConfig,
}

impl ServeConfig {
    /// Defaults: workers = available parallelism, 64-deep queue,
    /// 32 sessions, connections capped just under the fd limit, the
    /// prover's stock budget as both default and ceiling, a 120 s read
    /// deadline, snapshots disabled, the axiomatic prover alone.
    pub fn new() -> ServeConfig {
        let workers = thread::available_parallelism().map_or(4, usize::from);
        ServeConfig {
            workers,
            high_water: 64,
            max_sessions: 32,
            max_connections: ServeConfig::default_max_connections(),
            default_budget: Budget::new(),
            ceiling: Budget::new(),
            snapshot_dir: None,
            snapshot_interval: None,
            idle_timeout: Some(Duration::from_secs(120)),
            fault_plan: None,
            portfolio: PortfolioConfig::axiomatic_only(),
        }
    }

    /// The fd limit minus [`FD_SLACK`], floored at 64: as many
    /// connections as the kernel will let the process hold.
    pub fn default_max_connections() -> usize {
        let limit = nofile_limit().unwrap_or(1024);
        usize::try_from(limit.saturating_sub(FD_SLACK))
            .unwrap_or(usize::MAX)
            .max(64)
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig::new()
    }
}

// ---------------------------------------------------------------------------
// Worker pool with bounded-queue admission control.
// ---------------------------------------------------------------------------

/// A unit of pooled work (already wrapped: pushes its own completion).
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: std::collections::VecDeque<(Instant, Job)>,
    draining: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
    high_water: usize,
    metrics: Arc<Metrics>,
}

/// Fixed worker pool; `submit` refuses instead of queueing past the
/// high-water mark. Queue wait (submission to pickup) feeds the
/// `queue_wait_us` histogram, so it counts pooled jobs only.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Pool {
    fn new(workers: usize, high_water: usize, metrics: Arc<Metrics>) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: std::collections::VecDeque::new(),
                draining: false,
            }),
            wake: Condvar::new(),
            high_water: high_water.max(1),
            metrics,
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || loop {
                    let (queued_at, job) = {
                        let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                        loop {
                            if let Some(entry) = state.queue.pop_front() {
                                break entry;
                            }
                            if state.draining {
                                return;
                            }
                            state = shared
                                .wake
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    shared.metrics.latency_queue.record(queued_at.elapsed());
                    // A panicking job must not take the worker down.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                })
            })
            .collect();
        Pool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Queue depth right now (for `stats`).
    pub(crate) fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Admits `job` or refuses with `overloaded`.
    pub(crate) fn submit(&self, job: Job) -> Result<(), ProtoError> {
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.draining {
            return Err(ProtoError {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".to_owned(),
                verb: None,
            });
        }
        if state.queue.len() >= self.shared.high_water {
            return Err(ProtoError {
                code: ErrorCode::Overloaded,
                message: format!(
                    "work queue at high-water mark ({}); retry later",
                    self.shared.high_water
                ),
                verb: None,
            });
        }
        state.queue.push_back((Instant::now(), job));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Runs queued jobs to completion, then joins the workers.
    /// Idempotent: a second call finds no handles left to join.
    pub(crate) fn drain(&self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.draining = true;
        }
        self.shared.wake.notify_all();
        let handles =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

/// Ticks for the snapshot flusher thread, sent by the reactor.
pub(crate) enum FlushMsg {
    /// Write a snapshot now (the interval elapsed).
    Flush,
    /// The server is stopping; exit after the current write.
    Stop,
}

/// Shared state the reactor, the workers, and the stop handle all see.
pub(crate) struct Ctx {
    pub(crate) registry: SessionRegistry,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) pool: Pool,
    pub(crate) config: ServeConfig,
    pub(crate) shutdown: AtomicBool,
    /// The reactor's wakeup fd, set when the reactor starts; lets
    /// [`ServerHandle::stop`] interrupt a blocked `epoll_wait`.
    waker: Mutex<Option<Waker>>,
    /// Persisted whole-program dependence tables by name (the `analyze`
    /// verb's incremental state; snapshotted beside the sessions).
    pub(crate) tables: Mutex<HashMap<String, DepTable>>,
    /// Server-wide per-engine tallies (the `stats` verb's `portfolio`
    /// block); every portfolio any verb builds records here.
    pub(crate) tallies: TallySink,
}

impl Ctx {
    pub(crate) fn set_waker(&self, waker: Waker) {
        *self.waker.lock().unwrap_or_else(PoisonError::into_inner) = Some(waker);
    }

    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(waker) = &*self.waker.lock().unwrap_or_else(PoisonError::into_inner) {
            waker.wake();
        }
    }
}

/// A handle for stopping a running server from another thread (tests,
/// signal handlers).
#[derive(Clone)]
pub struct ServerHandle {
    ctx: Arc<Ctx>,
}

impl ServerHandle {
    /// Initiates the same graceful shutdown as the `shutdown` verb.
    /// Wakes the reactor immediately — no polling interval to ride out.
    pub fn stop(&self) {
        self.ctx.trigger_shutdown();
    }
}

/// The resident dependence-query daemon. Build with [`Server::new`],
/// bind one or more listeners, then [`Server::run`].
pub struct Server {
    ctx: Arc<Ctx>,
    listeners: Vec<Listener>,
}

impl Server {
    /// A server with no listeners yet.
    pub fn new(config: ServeConfig) -> Server {
        let metrics = Arc::new(Metrics::new());
        let ctx = Arc::new(Ctx {
            registry: SessionRegistry::new(config.max_sessions),
            metrics: Arc::clone(&metrics),
            pool: Pool::new(config.workers, config.high_water, metrics),
            config,
            shutdown: AtomicBool::new(false),
            waker: Mutex::new(None),
            tables: Mutex::new(HashMap::new()),
            tallies: TallySink::new(),
        });
        Server {
            ctx,
            listeners: Vec::new(),
        }
    }

    /// Binds a TCP listener; returns the actual address (use port 0 to
    /// let the OS pick).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_tcp(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        self.listeners.push(Listener::Tcp(listener));
        Ok(bound)
    }

    /// Binds a Unix-domain socket listener, replacing a stale socket
    /// file if one is present.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_unix(&mut self, path: &FsPath) -> io::Result<()> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        self.listeners
            .push(Listener::Unix(listener, path.to_owned()));
        Ok(())
    }

    /// A stop handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Serves until a `shutdown` request (or [`ServerHandle::stop`])
    /// arrives, then drains and returns. The calling thread *is* the
    /// reactor; worker count never varies with connection count.
    ///
    /// # Errors
    ///
    /// Returns an error when no listener was bound, or when the epoll
    /// instance cannot be created.
    pub fn run(self) -> io::Result<()> {
        if self.listeners.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no listener bound (need --addr and/or --socket)",
            ));
        }
        // Warm up from a previous life before accepting the first
        // connection, so early clients land on restored caches.
        restore_from_snapshot(&self.ctx);
        // The flusher blocks on a channel the reactor ticks — no
        // sleep-polling, and `Stop` (or the reactor dropping its
        // sender) ends it immediately.
        let flush_interval = match (
            &self.ctx.config.snapshot_dir,
            self.ctx.config.snapshot_interval,
        ) {
            (Some(_), Some(interval)) if !interval.is_zero() => Some(interval),
            _ => None,
        };
        let (flush_tx, flusher) = match flush_interval {
            Some(_) => {
                let (tx, rx) = channel::<FlushMsg>();
                let ctx = Arc::clone(&self.ctx);
                let handle = thread::spawn(move || loop {
                    match rx.recv() {
                        Ok(FlushMsg::Flush) => {
                            if let Err(e) = write_snapshot(&ctx) {
                                eprintln!("apt-serve: periodic snapshot failed: {e}");
                            }
                        }
                        Ok(FlushMsg::Stop) | Err(_) => return,
                    }
                });
                (Some(tx), Some(handle))
            }
            None => (None, None),
        };
        let socket_files: Vec<PathBuf> = self
            .listeners
            .iter()
            .filter_map(|l| match l {
                Listener::Unix(_, path) => Some(path.clone()),
                Listener::Tcp(_) => None,
            })
            .collect();
        let mut reactor = Reactor::new(
            Arc::clone(&self.ctx),
            self.listeners,
            flush_tx.clone(),
            flush_interval,
        )?;
        reactor.run();
        drop(reactor);
        // In-flight and queued jobs run to completion (their cancelled
        // tokens make them finish fast), then the workers join.
        self.ctx.pool.drain();
        if let Some(tx) = &flush_tx {
            let _ = tx.send(FlushMsg::Stop);
        }
        if let Some(handle) = flusher {
            let _ = handle.join();
        }
        // Graceful shutdown persists the warm state one last time. A
        // failure here (disk full, injected fault) costs the next
        // life's warmth, nothing else.
        if self.ctx.config.snapshot_dir.is_some() {
            if let Err(e) = write_snapshot(&self.ctx) {
                eprintln!("apt-serve: final snapshot failed: {e}");
            }
        }
        for path in socket_files {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Snapshot restore / flush.
// ---------------------------------------------------------------------------

/// Exports every resident session and writes the snapshot atomically.
/// Shared by the flusher thread and the graceful-shutdown path.
fn write_snapshot(ctx: &Ctx) -> io::Result<u64> {
    let Some(dir) = &ctx.config.snapshot_dir else {
        return Ok(0);
    };
    let sections: Vec<SessionSection> = ctx
        .registry
        .dump_sessions()
        .into_iter()
        .map(|dump| SessionSection {
            name: dump.session,
            axioms_text: dump.source,
            export: dump.engine.export_cache(),
        })
        .collect();
    let analyses: Vec<AnalyzeSection> = {
        let tables = ctx.tables.lock().unwrap_or_else(PoisonError::into_inner);
        let mut analyses: Vec<AnalyzeSection> = tables
            .iter()
            .map(|(name, table)| AnalyzeSection {
                name: name.clone(),
                table: table.clone(),
            })
            .collect();
        // Deterministic section order keeps repeat snapshots comparable.
        analyses.sort_by(|a, b| a.name.cmp(&b.name));
        analyses
    };
    let snap = Snapshot {
        created_unix_ms: snapshot::unix_ms_now(),
        sections,
        analyses,
    };
    match snapshot::write_atomic(dir, &snap, ctx.config.fault_plan.as_deref()) {
        Ok((_, bytes)) => {
            ctx.metrics.update_snapshot_status(|s| {
                s.writes_total += 1;
                s.last_write = Some(Instant::now());
                s.last_write_bytes = bytes;
            });
            Ok(bytes)
        }
        Err(e) => {
            ctx.metrics.update_snapshot_status(|s| s.write_errors += 1);
            Err(e)
        }
    }
}

/// Startup restore. Every failure mode on this path — missing file,
/// unreadable file, bad header, corrupt sections, unparsable axioms,
/// proofs that do not check — degrades to cold state for the affected
/// scope and the server starts anyway.
fn restore_from_snapshot(ctx: &Ctx) {
    let Some(dir) = &ctx.config.snapshot_dir else {
        return;
    };
    ctx.metrics.update_snapshot_status(|s| s.enabled = true);
    let faults = ctx.config.fault_plan.as_deref();
    let bytes = match snapshot::read_snapshot_bytes(dir, faults) {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return,
        Err(e) => {
            eprintln!("apt-serve: snapshot read failed ({e}); starting cold");
            return;
        }
    };
    let restored_bytes = bytes.len() as u64;
    let outcomes = match snapshot::decode(&bytes) {
        Ok((_, outcomes)) => outcomes,
        Err(e) => {
            eprintln!("apt-serve: snapshot unusable ({e}); starting cold");
            return;
        }
    };
    let (mut warm, mut corrupt, mut goals, mut subsets) = (0usize, 0usize, 0usize, 0usize);
    let mut tables = 0usize;
    for outcome in outcomes {
        match outcome {
            SectionOutcome::Restored(section) => match restore_section(ctx, &section) {
                Ok(stats) => {
                    warm += 1;
                    goals += stats.goals;
                    subsets += stats.subsets;
                }
                Err(reason) => {
                    corrupt += 1;
                    eprintln!(
                        "apt-serve: snapshot section [{}] rejected: {reason}",
                        section.name
                    );
                }
            },
            SectionOutcome::Analysis(analysis) => {
                // Table entries are *candidates*: the `analyze` verb
                // re-validates hashes and spot-checks stored proofs
                // before any verdict replays, so restoring here cannot
                // launder a forged table into answers.
                tables += 1;
                warm += 1;
                ctx.tables
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(analysis.name, analysis.table);
            }
            SectionOutcome::Corrupt { name, reason } => {
                corrupt += 1;
                eprintln!("apt-serve: snapshot section [{name}] corrupt: {reason}");
            }
        }
    }
    let outcome = match (warm, corrupt) {
        (0, _) => RestoreOutcome::Cold,
        (_, 0) => RestoreOutcome::Warm,
        _ => RestoreOutcome::Partial,
    };
    ctx.metrics.update_snapshot_status(|s| {
        s.last_restore = outcome;
        s.restored_bytes = restored_bytes;
        s.restored_sessions = warm - tables;
        s.corrupt_sections = corrupt;
        s.restored_goals = goals;
        s.restored_subsets = subsets;
        s.restored_tables = tables;
    });
}

/// Recompiles one section's axiom set into a fresh session and imports
/// its cache image (spot-checking proofs). Session ids do not survive a
/// restart — reconnecting clients re-`open_session` and the registry's
/// structural dedupe lands them on the restored warm engine.
fn restore_section(ctx: &Ctx, section: &SessionSection) -> Result<apt_core::ImportStats, String> {
    let opened = ctx
        .registry
        .open(&section.axioms_text)
        .map_err(|e| format!("axioms do not parse: {}", e.message))?;
    let engine = ctx.registry.get(&opened.session).map_err(|e| e.message)?;
    engine
        .import_cache(&section.export, PROOF_VERIFY_SAMPLE)
        .map_err(|e| {
            // A section whose proofs fail verification is corrupt; drop
            // the session it opened (unless an earlier section already
            // owned it) rather than serve from a suspect image.
            if !opened.deduped {
                ctx.registry.close(&opened.session);
            }
            format!("proof verification failed: {e}")
        })
}

// ---------------------------------------------------------------------------
// Request dispatch.
// ---------------------------------------------------------------------------

/// What one request line turns into: an immediate reply the reactor
/// writes itself, or a job for the worker pool whose finished frame
/// comes back through the completion queue.
pub(crate) enum LineOutcome {
    /// Answer now, on the reactor thread.
    Reply {
        /// The response frame.
        frame: Json,
        /// The connection asked the whole server to shut down; flush
        /// this reply, then stop.
        shutdown: bool,
    },
    /// Run on the pool; `work` renders the full response frame.
    Job {
        /// Request id, for the `internal` frame if the job panics or
        /// the refusal frame if admission declines it.
        id: Option<Json>,
        /// The deferred work, producing the response frame.
        work: Box<dyn FnOnce() -> Json + Send + 'static>,
    },
}

impl LineOutcome {
    fn reply(frame: Json) -> LineOutcome {
        LineOutcome::Reply {
            frame,
            shutdown: false,
        }
    }
}

/// Handles one request line: parse, admission, dispatch. Cheap control
/// verbs and cache-settled `prove` queries answer inline; the other
/// proving requests become pool jobs. Never blocks.
pub(crate) fn handle_line(ctx: &Arc<Ctx>, line: &str, cancel: &CancelToken) -> LineOutcome {
    let (id, request) = match parse_request(line) {
        Ok(parsed) => parsed,
        Err(e) => return LineOutcome::reply(error_frame(None, &e)),
    };
    // Probes answer even while draining: liveness must outlive admission.
    if ctx.shutdown.load(Ordering::SeqCst)
        && !matches!(
            request,
            Request::Shutdown | Request::Health | Request::Ready
        )
    {
        let e = ProtoError {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".to_owned(),
            verb: None,
        };
        return LineOutcome::reply(error_frame(id.as_ref(), &e));
    }
    match request {
        Request::Prove { session, query } => {
            let engine = match ctx.registry.get(&session) {
                Ok(engine) => engine,
                Err(e) => return LineOutcome::reply(error_frame(id.as_ref(), &e)),
            };
            let budget = resolved_budget(ctx, &query, cancel);
            let dep = wire_to_query(&query).with_budget(budget);
            let want_proof = query.want_proof;
            let portfolio = portfolio(ctx, &engine, query.engines);
            // A query settled in the session's shared cache costs one
            // cache read: answer it here instead of paying the pool round
            // trip. Proof text is still rendered on a worker.
            if !want_proof {
                if let Some(outcome) = portfolio.run_settled(&dep) {
                    return LineOutcome::reply(prove_frame(ctx, &outcome, want_proof, id.as_ref()));
                }
            }
            let ctx = Arc::clone(ctx);
            let frame_id = id.clone();
            LineOutcome::Job {
                id,
                work: Box::new(move || {
                    let outcome = portfolio.run(&dep);
                    prove_frame(&ctx, &outcome, want_proof, frame_id.as_ref())
                }),
            }
        }
        Request::Batch {
            session,
            queries,
            jobs,
            engines,
        } => {
            let engine = match ctx.registry.get(&session) {
                Ok(engine) => engine,
                Err(e) => return LineOutcome::reply(error_frame(id.as_ref(), &e)),
            };
            let jobs = jobs
                .unwrap_or(ctx.config.workers)
                .clamp(1, ctx.config.workers.max(1));
            let deps: Vec<DepQuery> = queries
                .iter()
                .map(|q| wire_to_query(q).with_budget(resolved_budget(ctx, q, cancel)))
                .collect();
            let want: Vec<bool> = queries.iter().map(|q| q.want_proof).collect();
            let rosters: Vec<Option<EngineSelection>> = queries.iter().map(|q| q.engines).collect();
            let ctx = Arc::clone(ctx);
            let frame_id = id.clone();
            LineOutcome::Job {
                id,
                work: Box::new(move || {
                    // The staged batch covers the common case; any
                    // per-query selection (which overrides the batch-level
                    // one) splits the queries out under their own rosters.
                    let outcomes: Vec<Outcome> = if rosters.iter().all(Option::is_none) {
                        portfolio(&ctx, &engine, engines).run_batch(&deps, jobs)
                    } else {
                        deps.iter()
                            .zip(&rosters)
                            .map(|(dep, sel)| portfolio(&ctx, &engine, sel.or(engines)).run(dep))
                            .collect()
                    };
                    Metrics::add(&ctx.metrics.queries_total, outcomes.len() as u64);
                    let mut merged = ProverStats::default();
                    let results: Vec<Json> = outcomes
                        .iter()
                        .zip(want.iter())
                        .map(|(o, &w)| {
                            merged.merge(&o.stats);
                            outcome_json(o, w)
                        })
                        .collect();
                    ok_frame(
                        frame_id.as_ref(),
                        vec![
                            ("results", Json::Arr(results)),
                            ("stats", stats_json(&merged)),
                        ],
                    )
                }),
            }
        }
        Request::Report {
            program,
            proc,
            budget,
            engines,
        } => {
            let ctx = Arc::clone(ctx);
            let cancel = cancel.clone();
            let frame_id = id.clone();
            LineOutcome::Job {
                id,
                work: Box::new(move || {
                    match run_report(&ctx, &program, proc.as_deref(), &budget, engines, &cancel) {
                        Ok(pairs) => ok_frame(frame_id.as_ref(), pairs),
                        Err(e) => error_frame(frame_id.as_ref(), &e),
                    }
                }),
            }
        }
        Request::Analyze {
            program,
            name,
            jobs,
            changed_only,
            budget,
            engines,
        } => {
            let ctx = Arc::clone(ctx);
            let cancel = cancel.clone();
            let frame_id = id.clone();
            LineOutcome::Job {
                id,
                work: Box::new(move || {
                    match run_analyze(
                        &ctx,
                        &program,
                        &name,
                        jobs,
                        changed_only,
                        &budget,
                        engines,
                        &cancel,
                    ) {
                        Ok(pairs) => ok_frame(frame_id.as_ref(), pairs),
                        Err(e) => error_frame(frame_id.as_ref(), &e),
                    }
                }),
            }
        }
        request => {
            let frame = match dispatch_inline(ctx, id.as_ref(), request) {
                Ok((frame, shutdown)) => return LineOutcome::Reply { frame, shutdown },
                Err(e) => error_frame(id.as_ref(), &e),
            };
            LineOutcome::reply(frame)
        }
    }
}

/// Counts one answered `prove` query and renders its reply frame: what
/// the reactor answers a settled query with, and what a pooled job
/// renders.
fn prove_frame(ctx: &Ctx, outcome: &Outcome, want_proof: bool, id: Option<&Json>) -> Json {
    Metrics::bump(&ctx.metrics.queries_total);
    ok_frame(id, vec![("result", outcome_json(outcome, want_proof))])
}

/// The cheap control verbs, answered on the reactor thread.
fn dispatch_inline(
    ctx: &Arc<Ctx>,
    id: Option<&Json>,
    request: Request,
) -> Result<(Json, bool), ProtoError> {
    match request {
        Request::Hello => {
            let verbs: Vec<Json> = SUPPORTED_VERBS
                .iter()
                .map(|&v| Json::Str(v.to_owned()))
                .collect();
            Ok((
                ok_frame(
                    id,
                    vec![
                        ("proto_version", PROTO_VERSION.into()),
                        ("verbs", Json::Arr(verbs)),
                    ],
                ),
                false,
            ))
        }
        Request::OpenSession { axioms } => {
            let opened = ctx.registry.open(&axioms)?;
            let evicted = match opened.evicted {
                Some(s) => Json::Str(s),
                None => Json::Null,
            };
            Ok((
                ok_frame(
                    id,
                    vec![
                        ("session", opened.session.as_str().into()),
                        ("deduped", opened.deduped.into()),
                        ("axioms", opened.axioms.into()),
                        ("evicted", evicted),
                    ],
                ),
                false,
            ))
        }
        Request::CloseSession { session } => {
            let closed = ctx.registry.close(&session);
            Ok((ok_frame(id, vec![("closed", closed.into())]), false))
        }
        Request::Invalidate { name, proc } => {
            let mut tables = ctx.tables.lock().unwrap_or_else(PoisonError::into_inner);
            let (dropped_procs, dropped_verdicts) = match proc.as_deref() {
                Some(proc_name) => match tables.get_mut(&name) {
                    Some(table) => {
                        let had = table.entry(proc_name).is_some();
                        let verdicts = table.invalidate_proc(proc_name);
                        (usize::from(had), verdicts)
                    }
                    None => (0, 0),
                },
                None => match tables.remove(&name) {
                    Some(table) => (table.procs().len(), table.total_verdicts()),
                    None => (0, 0),
                },
            };
            drop(tables);
            Ok((
                ok_frame(
                    id,
                    vec![
                        ("table", name.as_str().into()),
                        ("dropped_procs", dropped_procs.into()),
                        ("dropped_verdicts", dropped_verdicts.into()),
                    ],
                ),
                false,
            ))
        }
        Request::Stats => {
            let sessions: Vec<Json> = ctx
                .registry
                .snapshot()
                .into_iter()
                .map(|info| {
                    let cache =
                        ctx.registry
                            .peek_cache_stats(&info.session)
                            .map_or(Json::Null, |c| {
                                obj(vec![
                                    ("proved_goals", c.proved_goals.into()),
                                    ("failed_goals", c.failed_goals.into()),
                                    ("subset_results", c.subset_results.into()),
                                    ("dfas", c.dfas.into()),
                                    ("min_dfas", c.min_dfas.into()),
                                ])
                            });
                    obj(vec![
                        ("session", info.session.as_str().into()),
                        ("axioms", info.axioms.into()),
                        ("opens", info.opens.into()),
                        ("uses", info.uses.into()),
                        ("cache", cache),
                    ])
                })
                .collect();
            Ok((
                ok_frame(
                    id,
                    vec![
                        ("proto_version", PROTO_VERSION.into()),
                        ("server", ctx.metrics.to_json()),
                        ("queue_depth", ctx.pool.depth().into()),
                        ("workers", ctx.config.workers.into()),
                        ("max_connections", ctx.config.max_connections.into()),
                        ("portfolio", portfolio_json(&ctx.tallies.stats())),
                        ("sessions", Json::Arr(sessions)),
                    ],
                ),
                false,
            ))
        }
        Request::Health => Ok((ok_frame(id, vec![("healthy", true.into())]), false)),
        Request::Ready => {
            let draining = ctx.shutdown.load(Ordering::SeqCst);
            let status = ctx.metrics.snapshot_status();
            Ok((
                ok_frame(
                    id,
                    vec![
                        ("ready", (!draining).into()),
                        ("draining", draining.into()),
                        ("proto_version", PROTO_VERSION.into()),
                        ("restore", status.last_restore.as_str().into()),
                        ("sessions", ctx.registry.len().into()),
                    ],
                ),
                false,
            ))
        }
        Request::Shutdown => Ok((ok_frame(id, vec![("stopping", true.into())]), true)),
        // Proving verbs are dispatched by `handle_line`.
        Request::Prove { .. }
        | Request::Batch { .. }
        | Request::Report { .. }
        | Request::Analyze { .. } => Err(ProtoError {
            code: ErrorCode::Internal,
            message: "proving verb reached inline dispatch".to_owned(),
            verb: None,
        }),
    }
}

fn wire_to_query(q: &WireQuery) -> DepQuery {
    let dep = if q.equal {
        DepQuery::equal(&q.a, &q.b)
    } else {
        DepQuery::disjoint(&q.a, &q.b)
    };
    dep.origin(if q.distinct {
        Origin::Distinct
    } else {
        Origin::Same
    })
}

fn resolved_budget(ctx: &Ctx, q: &WireQuery, cancel: &CancelToken) -> Budget {
    q.budget
        .resolve(&ctx.config.default_budget, &ctx.config.ceiling)
        .with_cancel(cancel.clone())
}

/// The portfolio configuration a request runs under: a frame's
/// `engines` selection overrides the roster of the server's default
/// portfolio, keeping its other tuning.
fn effective_portfolio(ctx: &Ctx, engines: Option<EngineSelection>) -> PortfolioConfig {
    match engines {
        Some(engines) => PortfolioConfig {
            engines,
            ..ctx.config.portfolio.clone()
        },
        None => ctx.config.portfolio.clone(),
    }
}

/// A session engine's executor for one request, recording into the
/// server-wide tallies.
fn portfolio(ctx: &Ctx, engine: &DepEngine, engines: Option<EngineSelection>) -> Portfolio {
    Portfolio::tallied(
        engine.clone(),
        effective_portfolio(ctx, engines),
        &ctx.tallies,
    )
}

/// The `report` verb: the whole program's dependence workload (what
/// `apt batch` runs), one [`apt_paths::ProgramAnalysis::run`], listed per
/// query with its reason and maybe code. `proc` selects which procedures
/// the reply lists; the run still covers the program. Runs entirely on a
/// worker.
fn run_report(
    ctx: &Arc<Ctx>,
    program_text: &str,
    proc: Option<&str>,
    budget: &crate::proto::WireBudget,
    engines: Option<EngineSelection>,
    cancel: &CancelToken,
) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let program = apt_ir::parse_program(program_text)
        .map_err(|e| ProtoError::bad(format!("program: {e}")))?;
    if let Some(name) = proc.filter(|n| program.proc(n).is_none()) {
        let missing = QueryError::NoSuchLabel(name.to_owned()).to_string();
        return Ok(vec![
            (
                "procs",
                Json::Arr(vec![obj(vec![
                    ("proc", name.into()),
                    ("error", missing.as_str().into()),
                ])]),
            ),
            ("total_queries", 0usize.into()),
        ]);
    }
    if program.procs.is_empty() {
        return Err(ProtoError::bad("program has no procedures"));
    }
    let mut config = ProverConfig::new();
    config.budget = budget
        .resolve(&ctx.config.default_budget, &ctx.config.ceiling)
        .with_cancel(cancel.clone());
    let mut analysis = analyze_program(&program)
        .with_prover_config(config)
        .with_portfolio_config(effective_portfolio(ctx, engines));
    analysis.set_portfolio_tallies(&ctx.tallies);
    let report = analysis.run(None, &BatchOptions::new().with_jobs(ctx.config.workers));
    Metrics::add(&ctx.metrics.queries_total, report.total_queries() as u64);
    let listed: Vec<&ProcReport> = report
        .procs
        .iter()
        .filter(|p| proc.is_none_or(|n| p.name == n))
        .collect();
    let total: usize = listed.iter().map(|p| p.rows.len()).sum();
    let procs = listed
        .iter()
        .map(|p| {
            obj(vec![
                ("proc", p.name.as_str().into()),
                (
                    "queries",
                    Json::Arr(p.rows.iter().map(report_row).collect()),
                ),
            ])
        })
        .collect();
    Ok(vec![
        ("procs", Json::Arr(procs)),
        ("total_queries", total.into()),
    ])
}

/// The `analyze` verb: whole-program incremental dependence analysis.
/// The persisted table named `name` (if any) serves as the baseline;
/// the refreshed table is stored back under the same name, so repeated
/// `analyze` calls after small edits re-prove only what changed. Runs
/// entirely on a worker.
#[allow(clippy::too_many_arguments)]
fn run_analyze(
    ctx: &Arc<Ctx>,
    program_text: &str,
    name: &str,
    jobs: Option<usize>,
    changed_only: bool,
    budget: &crate::proto::WireBudget,
    engines: Option<EngineSelection>,
    cancel: &CancelToken,
) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let program = apt_ir::parse_program(program_text)
        .map_err(|e| ProtoError::bad(format!("program: {e}")))?;
    if program.procs.is_empty() {
        return Err(ProtoError::bad("program has no procedures"));
    }
    let jobs = jobs
        .unwrap_or(ctx.config.workers)
        .clamp(1, ctx.config.workers.max(1));
    let resolved = budget
        .resolve(&ctx.config.default_budget, &ctx.config.ceiling)
        .with_cancel(cancel.clone());
    let baseline = ctx
        .tables
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(name)
        .cloned();
    let mut config = ProverConfig::new();
    config.budget = resolved;
    let mut analysis = analyze_program(&program)
        .with_prover_config(config)
        .with_portfolio_config(effective_portfolio(ctx, engines));
    analysis.set_portfolio_tallies(&ctx.tallies);
    let report = analysis.run(baseline.as_ref(), &BatchOptions::new().with_jobs(jobs));
    Metrics::add(&ctx.metrics.queries_total, report.reproved() as u64);
    Metrics::add(&ctx.metrics.analyze_replayed, report.replayed() as u64);
    Metrics::add(&ctx.metrics.analyze_reproved, report.reproved() as u64);
    ctx.tables
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(name.to_owned(), report.table.clone());
    let procs: Vec<Json> = report
        .procs
        .iter()
        // `changed_only` trims the *display* to procedures that did
        // prover work; the totals below still cover every procedure.
        .filter(|p| !changed_only || p.reproved > 0)
        .map(|p| {
            let rows: Vec<Json> = p
                .rows
                .iter()
                .map(|row| {
                    let mut pairs = vec![
                        ("query", row.key.as_str().into()),
                        ("answer", row.outcome.answer().as_str().into()),
                        ("replayed", row.outcome.is_replayed().into()),
                    ];
                    if let RowOutcome::Error(e) = &row.outcome {
                        pairs.push(("error", e.to_string().as_str().into()));
                    }
                    obj(pairs)
                })
                .collect();
            obj(vec![
                ("proc", p.name.as_str().into()),
                ("reused", p.reused.into()),
                ("replayed", p.replayed.into()),
                ("reproved", p.reproved.into()),
                ("queries", Json::Arr(rows)),
            ])
        })
        .collect();
    Ok(vec![
        ("table", name.into()),
        ("procs", Json::Arr(procs)),
        ("total_queries", report.total_queries().into()),
        ("replayed", report.replayed().into()),
        ("reproved", report.reproved().into()),
        ("procs_reused", report.procs_reused().into()),
        ("any_maybe", report.any_maybe().into()),
    ])
}

fn report_row(row: &ReportRow) -> Json {
    let mut pairs = vec![("query", row.key.as_str().into())];
    match &row.outcome {
        RowOutcome::Fresh(outcome) => {
            let maybe = match outcome.maybe {
                Some(r) => Json::Str(r.code().to_owned()),
                None => Json::Null,
            };
            pairs.extend([
                ("answer", outcome.answer.as_str().into()),
                ("reason", format!("{:?}", outcome.reason).as_str().into()),
                ("maybe", maybe),
            ]);
        }
        // A run without a baseline replays nothing.
        RowOutcome::Replayed(answer) => pairs.push(("answer", answer.as_str().into())),
        RowOutcome::Error(e) => pairs.push(("error", e.to_string().as_str().into())),
    }
    obj(pairs)
}

/// A server's shared state with one worker and no reactor, for unit
/// tests that dispatch lines themselves.
#[cfg(test)]
pub(crate) fn test_ctx() -> Arc<Ctx> {
    let mut config = ServeConfig::new();
    config.workers = 1;
    Server::new(config).ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_axioms::adds::leaf_linked_tree_axioms;

    fn open(ctx: &Arc<Ctx>) -> String {
        let axioms = leaf_linked_tree_axioms().to_string();
        let line = obj(vec![
            ("verb", "open_session".into()),
            ("axioms", axioms.as_str().into()),
        ])
        .render();
        let LineOutcome::Reply { frame, .. } = handle_line(ctx, &line, &CancelToken::new()) else {
            panic!("open_session is answered inline");
        };
        frame
            .get("session")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    }

    fn prove(session: &str, a: &str, b: &str, extra: Vec<(&'static str, Json)>) -> String {
        let mut pairs = vec![
            ("verb", "prove".into()),
            ("id", 7u64.into()),
            ("session", session.into()),
            ("a", a.into()),
            ("b", b.into()),
        ];
        pairs.extend(extra);
        obj(pairs).render()
    }

    /// Whether dispatch answers `line` inline; a job is run to warm the
    /// session.
    fn inline(ctx: &Arc<Ctx>, line: &str) -> bool {
        match handle_line(ctx, line, &CancelToken::new()) {
            LineOutcome::Reply { .. } => true,
            LineOutcome::Job { work, .. } => {
                work();
                false
            }
        }
    }

    #[test]
    fn a_settled_prove_is_answered_inline_with_the_pooled_frame() {
        let ctx = test_ctx();
        let session = open(&ctx);
        let line = prove(&session, "L.L.N", "L.R.N", vec![]);
        let cancel = CancelToken::new();
        // Both dispatched while the session is cold, so both are pooled.
        let LineOutcome::Job { work: cold, .. } = handle_line(&ctx, &line, &cancel) else {
            panic!("a cold query goes to the pool");
        };
        let LineOutcome::Job { work: held, .. } = handle_line(&ctx, &line, &cancel) else {
            panic!("a cold query goes to the pool");
        };
        let cold = cold();
        let result = cold.get("result").unwrap();
        assert_eq!(result.get("answer").and_then(Json::as_str), Some("No"));
        let LineOutcome::Reply { frame, shutdown } = handle_line(&ctx, &line, &cancel) else {
            panic!("a settled query is answered inline");
        };
        assert!(!shutdown);
        // The held job runs on the same warm session: it renders the
        // inline frame byte for byte.
        assert_eq!(frame.render(), held().render());
        assert_ne!(frame.render(), cold.render(), "the cold run searched");
        assert_eq!(ctx.metrics.queries_total.load(Ordering::Relaxed), 3);
        ctx.pool.drain();
    }

    #[test]
    fn only_proves_answered_from_the_cache_alone_skip_the_pool() {
        let ctx = test_ctx();
        let session = open(&ctx);
        let proved = |extra| prove(&session, "L.L.N", "L.R.N", extra);
        // Identical paths: the prover fails cleanly and caches the failure.
        let failed = |extra| prove(&session, "L.L.N", "L.L.N", extra);
        assert!(!inline(&ctx, &proved(vec![])));
        assert!(!inline(&ctx, &failed(vec![])));
        assert!(inline(&ctx, &proved(vec![])));
        assert!(inline(&ctx, &failed(vec![])));
        assert!(inline(&ctx, &proved(vec![("engines", "all".into())])));

        assert!(!inline(&ctx, &prove(&session, "L.L.L.N", "L.R.N", vec![])));
        assert!(!inline(&ctx, &proved(vec![("origin", "distinct".into())])));
        assert!(!inline(&ctx, &proved(vec![("kind", "equal".into())])));
        assert!(!inline(&ctx, &proved(vec![("proof", true.into())])));
        // The refuter would follow a cached failure under every engine.
        assert!(!inline(&ctx, &failed(vec![("engines", "all".into())])));
        ctx.pool.drain();
    }

    #[test]
    fn prove_replies_and_error_frames_keep_their_exact_bytes() {
        let ctx = test_ctx();
        let session = open(&ctx);
        let settled = prove(&session, "L.L.N", "L.R.N", vec![]);
        assert!(!inline(&ctx, &settled));
        let wire = |line: &str| {
            let frame = match handle_line(&ctx, line, &CancelToken::new()) {
                LineOutcome::Reply { frame, .. } => frame,
                LineOutcome::Job { work, .. } => work(),
            };
            let mut bytes = Vec::new();
            frame.write_line(&mut bytes);
            String::from_utf8(bytes).expect("UTF-8 frame")
        };
        assert_eq!(
            wire(&settled),
            concat!(
                r#"{"ok":true,"id":7,"result":{"answer":"No","reason":null,"degraded":false,"#,
                r#""proof":true,"engine":"axiomatic","witness":null,"stats":{"goals_attempted":0,"#,
                r#""cache_hits":1,"shared_hits":1,"subset_checks":0,"dispatch_hits":0,"#,
                r#""dispatch_misses":0,"neg_memo_hits":0,"cutoffs":{"fuel":0,"depth":0,"#,
                r#""rewrites":0,"deadline":0,"regex_budget":0,"cancelled":0}}}}"#,
                "\n"
            )
        );
        assert_eq!(
            wire(&prove(&session, "L..R", "R", vec![])),
            concat!(
                r#"{"ok":false,"error":"bad_request","#,
                r#""message":"bad path \"a\": regex parse error at byte 3: unexpected token Dot"}"#,
                "\n"
            )
        );
        assert_eq!(
            wire(&prove(&session, "L", "L\u{e9}", vec![])),
            concat!(
                r#"{"ok":false,"error":"bad_request","#,
                r#""message":"bad path \"b\": regex parse error at byte 1: unexpected character '"#,
                "\u{c3}",
                r#"'"}"#,
                "\n"
            )
        );
        assert_eq!(
            wire(&prove("s\t9", "L", "R", vec![])),
            concat!(
                r#"{"ok":false,"id":7,"error":"no_such_session","#,
                r#""message":"no session \"s\\t9\" (evicted or never opened)"}"#,
                "\n"
            )
        );
        ctx.pool.drain();
    }

    #[test]
    fn every_key_the_protocol_writes_is_in_the_key_table() {
        fn owned_keys(value: &Json, out: &mut Vec<String>) {
            match value {
                Json::Obj(pairs) => {
                    for (k, v) in pairs {
                        if let std::borrow::Cow::Owned(k) = k {
                            out.push(k.clone());
                        }
                        owned_keys(v, out);
                    }
                }
                Json::Arr(items) => items.iter().for_each(|v| owned_keys(v, out)),
                _ => {}
            }
        }
        const PROGRAM: &str = "type T {\n    ptr L: T;\n    ptr R: T;\n    data d;\n    \
            axiom A1: forall p, p.L <> p.R;\n}\n\
            proc f(root: T) {\n    p = root->L;\nS:  p->d = 1;\n    q = root->R;\nT:  t = q->d;\n}\n";
        let ctx = test_ctx();
        let session = open(&ctx);
        let program =
            |verb: &str| obj(vec![("verb", verb.into()), ("program", PROGRAM.into())]).render();
        let lines = [
            r#"{"verb":"hello"}"#.to_owned(),
            prove(&session, "L.L.N", "L.R.N", vec![("proof", true.into())]),
            prove(&session, "L.L.N", "L.R.N", vec![]),
            prove(&session, "L.N", "R.N", vec![("engines", "all".into())]),
            obj(vec![
                ("verb", "batch".into()),
                ("session", session.as_str().into()),
                (
                    "queries",
                    Json::Arr(vec![obj(vec![("a", "L".into()), ("b", "R".into())])]),
                ),
            ])
            .render(),
            program("report"),
            program("analyze"),
            r#"{"verb":"invalidate","proc":"f"}"#.to_owned(),
            r#"{"verb":"stats"}"#.to_owned(),
            r#"{"verb":"ready"}"#.to_owned(),
            r#"{"verb":"health"}"#.to_owned(),
            r#"{"verb":"frobnicate"}"#.to_owned(),
            obj(vec![
                ("verb", "close_session".into()),
                ("session", session.as_str().into()),
            ])
            .render(),
            r#"{"verb":"shutdown"}"#.to_owned(),
        ];
        for line in lines {
            let frame = match handle_line(&ctx, &line, &CancelToken::new()) {
                LineOutcome::Reply { frame, .. } => frame,
                LineOutcome::Job { work, .. } => work(),
            };
            let mut owned = Vec::new();
            owned_keys(
                &crate::json::parse(&frame.render()).expect("a frame parses"),
                &mut owned,
            );
            assert!(
                owned.is_empty(),
                "{owned:?} missing from json::KEYS ({line})"
            );
        }
        ctx.pool.drain();
    }

    #[test]
    fn a_cancelled_analyze_leaves_a_table_that_answers_like_a_cold_one() {
        const PROGRAM: &str = "type T {\n    ptr L: T;\n    ptr R: T;\n    ptr N: T;\n    \
            data d;\n    axiom A1: forall p, p.L <> p.R;\n    \
            axiom A3: forall p <> q, p.N <> q.N;\n}\n\
            proc subr(root: T) {\n    p = root->L;\n    p = p->N;\nS:  p->d = 1;\n    \
            q = root->R;\n    q = q->N;\nT:  t = q->d;\n}\n";
        let ctx = test_ctx();
        let analyze = |name: &str, cancel: &CancelToken| {
            let line = obj(vec![
                ("verb", "analyze".into()),
                ("program", PROGRAM.into()),
                ("name", name.into()),
            ])
            .render();
            let LineOutcome::Job { work, .. } = handle_line(&ctx, &line, cancel) else {
                panic!("analyze runs on the pool");
            };
            let frame = work();
            let Some(Json::Arr(procs)) = frame.get("procs") else {
                panic!("procs missing: {frame:?}");
            };
            let mut answers = Vec::new();
            for proc in procs {
                let Some(Json::Arr(rows)) = proc.get("queries") else {
                    panic!("queries missing: {proc:?}");
                };
                for row in rows {
                    answers.push((row.get("query").cloned(), row.get("answer").cloned()));
                }
            }
            (answers, frame.get("any_maybe").cloned())
        };
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let (_, any_maybe) = analyze("t", &cancelled);
        assert_eq!(
            any_maybe,
            Some(Json::Bool(true)),
            "a cancelled run proves nothing"
        );
        let warm_engines = |name: &str| {
            let tables = ctx.tables.lock().unwrap_or_else(PoisonError::into_inner);
            tables.get(name).map_or(0, DepTable::warm_engines)
        };
        assert!(
            warm_engines("t") > 0,
            "the table keeps the cancelled run's engine"
        );
        let (fresh, fresh_maybe) = analyze("t", &CancelToken::new());
        let (cold, cold_maybe) = analyze("cold", &CancelToken::new());
        assert_eq!(fresh_maybe, Some(Json::Bool(false)));
        assert_eq!(fresh_maybe, cold_maybe);
        assert_eq!(fresh, cold);
        ctx.pool.drain();
    }
}
