//! The event loop: every connection is a state machine, no connection
//! is a thread.
//!
//! One reactor thread owns an epoll instance ([`crate::poll::Poller`]),
//! the nonblocking listeners, and a map of connection state machines.
//! Readiness drives everything:
//!
//! * **Reads** accumulate into a per-connection buffer with the
//!   [`crate::server::MAX_LINE`] frame cap enforced *incrementally* — a
//!   partial frame is rejected the moment it crosses the cap, not after
//!   the whole oversized line has been buffered. Complete lines queue
//!   (bounded by [`crate::server::PIPELINE_DEPTH`]) behind the single
//!   in-flight request each connection is allowed, preserving in-order
//!   responses and the pool's admission-control semantics.
//! * **Writes** go through a per-connection output buffer. `WouldBlock`
//!   arms write interest; a slow reader therefore never blocks a worker
//!   — the reply parks in the buffer and read interest is suspended
//!   once the buffer passes its high-water mark (backpressure), so a
//!   peer that stops reading also stops being read.
//! * **Deadlines** live on a timer wheel instead of per-socket
//!   `set_read_timeout`: an idle connection, or one dribbling a partial
//!   frame (slow-loris), gets a machine-readable `timeout` frame and is
//!   closed. The deadline renews on activity while the read buffer is
//!   empty; a partial frame must complete within one deadline of its
//!   first byte.
//! * **Workers** never touch sockets. The reactor parses a frame and
//!   either answers inline (control verbs, and `prove` queries already
//!   settled in the session's proof cache) or submits a job to the
//!   bounded pool; the worker pushes the finished frame onto a
//!   completion queue and rings the reactor's eventfd
//!   [`crate::poll::Waker`]. Disconnects cancel the connection's
//!   [`CancelToken`], aborting in-flight proofs exactly as the threaded
//!   implementation did.
//! * **Turns.** One read can queue hundreds of lines, and inline
//!   answers are reactor work, so a connection dispatches at most
//!   [`LINES_PER_TURN`] lines at a time; the rest wait in a turn queue
//!   until the other connections' events have been handled. A client
//!   pipelining a burst of settled queries cannot hold back everyone
//!   else's replies until its burst is done.
//!
//! Shutdown (the `shutdown` verb or
//! [`crate::server::ServerHandle::stop`]) also rides the waker: the
//! loop wakes immediately, flushes the shutdown reply, closes every
//! connection (cancelling their tokens), and returns — no sleep-polling
//! anywhere.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use apt_core::CancelToken;

use crate::json::Json;
use crate::metrics::Metrics;
use crate::poll::{Event, Interest, Poller, Waker};
use crate::proto::{error_frame, ErrorCode, ProtoError};
use crate::server::{handle_line, Ctx, FlushMsg, LineOutcome, MAX_LINE, PIPELINE_DEPTH};

/// Stop reading from a connection whose unsent replies exceed this;
/// resume below [`OUTBUF_LOW`]. A slow reader parks its own replies
/// here instead of blocking anyone.
const OUTBUF_HIGH: usize = 256 * 1024;
/// Resume reading once the output buffer drains under this.
const OUTBUF_LOW: usize = 64 * 1024;
/// Read chunk size per `read` call.
const READ_CHUNK: usize = 64 * 1024;
/// Lines one connection may have dispatched per turn of the event loop.
/// An inline answer (a control verb, a settled `prove`) is reactor work,
/// and one read can queue hundreds of lines: past this many, the
/// connection's remaining lines wait until every other ready connection
/// has had its turn.
const LINES_PER_TURN: usize = 8;
/// Timer-wheel slot granularity: deadlines fire within one tick of
/// expiry, which is plenty for idle timeouts measured in hundreds of
/// milliseconds to minutes.
const WHEEL_TICK: Duration = Duration::from_millis(50);
/// Timer-wheel slots; deadlines further out than `SLOTS × TICK` are
/// re-examined when their slot comes around.
const WHEEL_SLOTS: usize = 128;

/// Token of the reactor's eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// First connection token; listeners use `0..CONN_BASE`.
const CONN_BASE: u64 = 1024;

// ---------------------------------------------------------------------------
// Sockets.
// ---------------------------------------------------------------------------

/// A nonblocking accepted socket, TCP or Unix.
pub(crate) enum Stream {
    /// TCP connection (`TCP_NODELAY` set by the listener).
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => {
                let mut r: &TcpStream = s;
                r.read(buf)
            }
            Stream::Unix(s) => {
                let mut r: &UnixStream = s;
                r.read(buf)
            }
        }
    }

    fn write(&self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => {
                let mut w: &TcpStream = s;
                w.write(buf)
            }
            Stream::Unix(s) => {
                let mut w: &UnixStream = s;
                w.write(buf)
            }
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// A bound, nonblocking listener.
pub(crate) enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus its socket-file path (removed on
    /// shutdown).
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Accepts one pending connection, nonblocking.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                // One-line request/response frames: Nagle + delayed ACK
                // would add ~40ms per round-trip.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Stream::Unix(stream))
            }
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker → reactor completions.
// ---------------------------------------------------------------------------

/// A finished pooled job: the rendered response frame headed back to
/// its connection's write buffer.
pub(crate) struct Completion {
    /// Connection token the reply belongs to.
    pub(crate) conn: u64,
    /// The response frame.
    pub(crate) frame: Json,
    /// When the request line arrived (service-time histogram start).
    pub(crate) started: Instant,
    /// The connection's cancel token at submission time; cancelled
    /// here means the peer vanished mid-proof.
    pub(crate) cancel: CancelToken,
}

/// What worker threads share with the reactor: the completion queue and
/// the eventfd that interrupts a blocked `epoll_wait`.
pub(crate) struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    /// Rung by workers after pushing a completion and by
    /// [`crate::server::ServerHandle::stop`].
    pub(crate) waker: Waker,
}

impl ReactorShared {
    pub(crate) fn new(waker: Waker) -> ReactorShared {
        ReactorShared {
            completions: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Queues a finished reply and wakes the reactor.
    pub(crate) fn push(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        self.waker.wake();
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(
            &mut *self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

// ---------------------------------------------------------------------------
// Timer wheel.
// ---------------------------------------------------------------------------

/// A hashed timer wheel over connection tokens. Entries are *hints*:
/// each connection holds its authoritative deadline, the wheel only
/// schedules when to look. A deadline that moved later by the time its
/// slot fires is re-inserted; a connection holds at most one live wheel
/// entry (`Conn::in_wheel`), so re-arming on every request costs
/// nothing.
struct TimerWheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
    last_tick: Instant,
    armed: usize,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_tick: now,
            armed: 0,
        }
    }

    /// Schedules `token` to be examined no later than `deadline`.
    fn insert(&mut self, deadline: Instant, token: u64) {
        let ticks_away = deadline
            .saturating_duration_since(self.last_tick)
            .as_millis()
            .checked_div(WHEEL_TICK.as_millis())
            .unwrap_or(0) as usize;
        // At least one tick out (never the slot currently firing), at
        // most a full revolution (farther deadlines get re-inserted).
        let ticks_away = ticks_away.clamp(1, WHEEL_SLOTS - 1);
        let slot = (self.cursor + ticks_away) % WHEEL_SLOTS;
        self.slots[slot].push(token);
        self.armed += 1;
    }

    /// Advances to `now`, collecting tokens whose slot has come up.
    fn advance(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        let elapsed = now.saturating_duration_since(self.last_tick);
        let ticks = (elapsed.as_millis() / WHEEL_TICK.as_millis()) as usize;
        if ticks == 0 {
            return due;
        }
        if ticks >= WHEEL_SLOTS {
            // Slept a full revolution (or more): every slot is due.
            for slot in &mut self.slots {
                due.append(slot);
            }
            self.last_tick = now;
        } else {
            for _ in 0..ticks {
                self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
                self.last_tick += WHEEL_TICK;
                due.append(&mut self.slots[self.cursor]);
            }
        }
        self.armed -= due.len();
        due
    }

    /// How long `epoll_wait` may sleep before the next slot fires.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        let next = self.last_tick + WHEEL_TICK;
        Some(
            next.saturating_duration_since(now)
                .max(Duration::from_millis(1)),
        )
    }
}

// ---------------------------------------------------------------------------
// Per-connection state machine.
// ---------------------------------------------------------------------------

struct Conn {
    stream: Stream,
    fd: RawFd,
    /// Accumulating read buffer; at most one partial frame.
    inbuf: Vec<u8>,
    /// When the current partial frame started (slow-loris deadline).
    partial_since: Option<Instant>,
    /// Unsent reply bytes.
    outbuf: Vec<u8>,
    /// Complete lines waiting behind the in-flight request.
    pending: VecDeque<(String, Instant)>,
    /// A pooled job is running for this connection.
    busy: bool,
    /// Its turn ran out with lines still queued; it is in
    /// `Reactor::turns`.
    awaiting_turn: bool,
    /// Cancelled when the connection closes; aborts in-flight proofs.
    cancel: CancelToken,
    /// Authoritative read deadline (the wheel holds only hints).
    deadline: Option<Instant>,
    /// Whether a wheel entry is live for this connection.
    in_wheel: bool,
    /// Currently registered epoll interest.
    registered: Interest,
    /// Flush the output buffer, then close.
    closing: bool,
    /// The socket died (EOF, I/O error): close immediately.
    dead: bool,
    /// This connection's `shutdown` verb succeeded: once its reply is
    /// flushed (or the connection dies), stop the whole server.
    shutdown_after: bool,
}

impl Conn {
    fn new(stream: Stream, cancel: CancelToken) -> Conn {
        let fd = stream.fd();
        Conn {
            stream,
            fd,
            inbuf: Vec::new(),
            partial_since: None,
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            busy: false,
            awaiting_turn: false,
            cancel,
            deadline: None,
            in_wheel: false,
            registered: Interest::READ,
            closing: false,
            dead: false,
            shutdown_after: false,
        }
    }

    /// Backpressure: too many queued lines or too many unsent bytes.
    fn paused(&self) -> bool {
        self.pending.len() >= PIPELINE_DEPTH || self.outbuf.len() > OUTBUF_HIGH
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing && !self.dead && !self.paused(),
            writable: !self.outbuf.is_empty(),
        }
    }

    fn should_close(&self) -> bool {
        self.dead || (self.closing && self.outbuf.is_empty())
    }
}

/// Encodes `frame` straight into the connection's write buffer, counting
/// an error frame and, when `started` is known, recording service time
/// with the encoding in it; then attempts an immediate flush.
fn respond(metrics: &Metrics, conn: &mut Conn, frame: &Json, started: Option<Instant>) {
    if frame.get("ok") == Some(&Json::Bool(false)) {
        Metrics::bump(&metrics.errors_total);
    }
    frame.write_line(&mut conn.outbuf);
    if let Some(t) = started {
        metrics.latency_request.record(t.elapsed());
    }
    try_flush(conn);
}

/// Writes as much of the output buffer as the socket will take.
/// `WouldBlock` leaves the remainder for the next writable event; any
/// other error marks the connection dead.
fn try_flush(conn: &mut Conn) {
    let mut off = 0usize;
    while off < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[off..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if off == conn.outbuf.len() {
        conn.outbuf.clear();
    } else if off > 0 {
        conn.outbuf.drain(..off);
    }
}

// ---------------------------------------------------------------------------
// The reactor.
// ---------------------------------------------------------------------------

/// The event loop. Owns the poller, the listeners, and every
/// connection; runs on the thread that calls
/// [`crate::server::Server::run`].
pub(crate) struct Reactor {
    poller: Poller,
    shared: Arc<ReactorShared>,
    ctx: Arc<Ctx>,
    listeners: Vec<Listener>,
    conns: HashMap<u64, Conn>,
    /// Connections whose turn ran out with lines still queued, in the
    /// order they get their next one.
    turns: VecDeque<u64>,
    /// Scratch for `read` calls, shared by every connection; what it
    /// receives is copied into the connection's own buffer at once.
    read_buf: Box<[u8]>,
    wheel: TimerWheel,
    next_token: u64,
    flush_tx: Option<Sender<FlushMsg>>,
    flush_interval: Option<Duration>,
    last_flush: Instant,
}

impl Reactor {
    /// Builds the reactor and registers listeners and waker with the
    /// poller. The waker lands in `ctx` so [`ServerHandle::stop`]
    /// (and pool completions) can interrupt a blocked `epoll_wait`.
    ///
    /// [`ServerHandle::stop`]: crate::server::ServerHandle::stop
    pub(crate) fn new(
        ctx: Arc<Ctx>,
        listeners: Vec<Listener>,
        flush_tx: Option<Sender<FlushMsg>>,
        flush_interval: Option<Duration>,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        for (i, listener) in listeners.iter().enumerate() {
            poller.add(listener.fd(), i as u64, Interest::READ)?;
        }
        let shared = Arc::new(ReactorShared::new(waker.clone()));
        ctx.set_waker(waker);
        let now = Instant::now();
        Ok(Reactor {
            poller,
            shared,
            ctx,
            listeners,
            conns: HashMap::new(),
            turns: VecDeque::new(),
            read_buf: vec![0u8; READ_CHUNK].into_boxed_slice(),
            wheel: TimerWheel::new(now),
            next_token: CONN_BASE,
            flush_tx,
            flush_interval,
            last_flush: now,
        })
    }

    /// Serves until shutdown. On return every connection has been
    /// closed and every in-flight token cancelled; queued pool jobs are
    /// the caller's to drain.
    pub(crate) fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.ctx.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            self.maybe_flush(now);
            let timeout = self.wait_timeout(now);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                eprintln!("apt-serve: epoll_wait failed ({e}); shutting down");
                self.ctx.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                self.handle_event(ev);
            }
            events = batch;
            self.drain_completions();
            self.take_turns();
            self.fire_timers(Instant::now());
        }
        // Teardown: cancel every in-flight proof and close every
        // socket. Dropping the streams closes the fds; the kernel
        // detaches them from the (also dropped) epoll instance.
        for (_, conn) in self.conns.drain() {
            conn.cancel.cancel();
            self.ctx
                .metrics
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// How long the next `epoll_wait` may block: not at all while a
    /// connection awaits its next turn, else until the next timer tick or
    /// snapshot flush, or forever when neither is armed.
    fn wait_timeout(&self, now: Instant) -> Option<Duration> {
        if !self.turns.is_empty() {
            return Some(Duration::ZERO);
        }
        let mut timeout = self.wheel.next_timeout(now);
        if let (Some(_), Some(interval)) = (&self.flush_tx, self.flush_interval) {
            let due = (self.last_flush + interval).saturating_duration_since(now);
            let due = due.max(Duration::from_millis(1));
            timeout = Some(timeout.map_or(due, |t| t.min(due)));
        }
        timeout
    }

    /// Rings the snapshot flusher when its interval has elapsed.
    fn maybe_flush(&mut self, now: Instant) {
        if let (Some(tx), Some(interval)) = (&self.flush_tx, self.flush_interval) {
            if now.saturating_duration_since(self.last_flush) >= interval {
                let _ = tx.send(FlushMsg::Flush);
                self.last_flush = now;
            }
        }
    }

    fn handle_event(&mut self, ev: &Event) {
        if ev.token == WAKER_TOKEN {
            self.shared.waker.drain();
        } else if (ev.token as usize) < self.listeners.len() {
            self.on_accept(ev.token as usize);
        } else {
            self.on_conn_event(ev.token, ev);
        }
    }

    /// Drains the listener's accept backlog, admitting connections up
    /// to the configured cap.
    fn on_accept(&mut self, idx: usize) {
        loop {
            match self.listeners[idx].accept() {
                Ok(stream) => {
                    if self.conns.len() >= self.ctx.config.max_connections {
                        Metrics::bump(&self.ctx.metrics.connection_refusals);
                        let e = ProtoError {
                            code: ErrorCode::Overloaded,
                            message: format!(
                                "connection limit reached ({}); retry later",
                                self.ctx.config.max_connections
                            ),
                            verb: None,
                        };
                        let mut text = Vec::new();
                        error_frame(None, &e).write_line(&mut text);
                        // Best-effort refusal frame on a socket we are
                        // about to drop; a full buffer loses it.
                        let _ = stream.write(&text);
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let conn = Conn::new(stream, CancelToken::new());
                    if self.poller.add(conn.fd, token, Interest::READ).is_err() {
                        continue;
                    }
                    Metrics::bump(&self.ctx.metrics.connections_total);
                    Metrics::bump(&self.ctx.metrics.connections_active);
                    self.conns.insert(token, conn);
                    self.arm_deadline(token, Instant::now());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient accept errors (ECONNABORTED, EMFILE burst):
                // leave the listener registered; level-triggered epoll
                // re-reports any still-pending backlog.
                Err(_) => break,
            }
        }
    }

    /// (Re-)arms the connection's read deadline at `now + idle`.
    fn arm_deadline(&mut self, token: u64, now: Instant) {
        let Some(idle) = self.ctx.config.idle_timeout else {
            return;
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let deadline = now + idle;
        conn.deadline = Some(deadline);
        if !conn.in_wheel {
            conn.in_wheel = true;
            self.wheel.insert(deadline, token);
        }
    }

    fn on_conn_event(&mut self, token: u64, ev: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if ev.writable {
            try_flush(conn);
        }
        if ev.readable {
            self.on_readable(token);
        } else if ev.closed {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dead = true;
            }
        }
        self.process_pending(token);
        self.finalize(token);
    }

    /// Reads until a read comes back short of the chunk size, or
    /// `WouldBlock`, or backpressure pauses the connection; extracts
    /// complete lines and enforces the frame cap on the partial remainder
    /// as it grows. A short read has almost always drained the socket, so
    /// the loop stops there instead of paying one more `read` for the
    /// `EAGAIN`; the poller is level-triggered and reports any bytes that
    /// arrived meanwhile.
    fn on_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.closing || conn.dead {
            return;
        }
        let metrics = &self.ctx.metrics;
        let mut renew_deadline = false;
        loop {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    // Peer hung up: abort anything in flight for this
                    // connection. The threaded reader did exactly this
                    // on EOF.
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    // The buffered partial frame holds no newline, so only
                    // the new bytes are scanned; complete lines are split
                    // off and the remainder shifted down once.
                    let mut start = 0usize;
                    let mut scan_from = conn.inbuf.len();
                    conn.inbuf.extend_from_slice(&self.read_buf[..n]);
                    while let Some(pos) = conn.inbuf[scan_from..].iter().position(|&b| b == b'\n') {
                        let end = scan_from + pos + 1;
                        let text = String::from_utf8_lossy(&conn.inbuf[start..end]).into_owned();
                        conn.pending.push_back((text, Instant::now()));
                        start = end;
                        scan_from = end;
                    }
                    conn.inbuf.drain(..start);
                    if conn.inbuf.is_empty() {
                        conn.partial_since = None;
                        renew_deadline = true;
                    } else {
                        if conn.inbuf.len() > MAX_LINE {
                            // Satellite guarantee: the cap trips on the
                            // partial frame as soon as it is crossed.
                            let e = ProtoError::bad(format!(
                                "request line exceeds {MAX_LINE} bytes; closing connection"
                            ));
                            respond(metrics, conn, &error_frame(None, &e), None);
                            conn.closing = true;
                            break;
                        }
                        if conn.partial_since.is_none() {
                            // The slow-loris clock starts at the first
                            // byte of a partial frame and is *not*
                            // renewed by further dribble.
                            conn.partial_since = Some(Instant::now());
                            renew_deadline = true;
                        }
                    }
                    if conn.paused() || n < self.read_buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if renew_deadline && !conn.dead && !conn.closing {
            self.arm_deadline(token, Instant::now());
        }
    }

    /// Feeds queued lines through dispatch while the connection has no
    /// in-flight pooled job, at most [`LINES_PER_TURN`] of them. Inline
    /// verbs answer immediately; a pooled verb marks the connection busy
    /// until its completion arrives.
    fn process_pending(&mut self, token: u64) {
        for _ in 0..LINES_PER_TURN {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.busy || conn.closing || conn.dead {
                return;
            }
            let Some((line, arrived)) = conn.pending.pop_front() else {
                return;
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            Metrics::bump(&self.ctx.metrics.requests_total);
            let cancel = conn.cancel.clone();
            // Dispatch must not take the reactor down: a panic in an
            // inline verb becomes an `internal` error frame.
            let outcome = match catch_unwind(AssertUnwindSafe(|| {
                handle_line(&self.ctx, trimmed, &cancel)
            })) {
                Ok(outcome) => outcome,
                Err(_) => LineOutcome::Reply {
                    frame: error_frame(
                        None,
                        &ProtoError {
                            code: ErrorCode::Internal,
                            message: "request crashed; fault isolated to this request".to_owned(),
                            verb: None,
                        },
                    ),
                    shutdown: false,
                },
            };
            match outcome {
                LineOutcome::Reply { frame, shutdown } => {
                    let conn = match self.conns.get_mut(&token) {
                        Some(conn) => conn,
                        None => return,
                    };
                    respond(&self.ctx.metrics, conn, &frame, Some(arrived));
                    if shutdown {
                        // Flush the acknowledgement, then close this
                        // connection; closing it triggers the
                        // server-wide shutdown (see `close_conn`).
                        conn.shutdown_after = true;
                        conn.closing = true;
                        return;
                    }
                }
                LineOutcome::Job { id, work } => {
                    let shared = Arc::clone(&self.shared);
                    let job_cancel = cancel.clone();
                    let job_id = id.clone();
                    let submitted = self.ctx.pool.submit(Box::new(move || {
                        let frame = match catch_unwind(AssertUnwindSafe(work)) {
                            Ok(frame) => frame,
                            Err(_) => error_frame(
                                job_id.as_ref(),
                                &ProtoError {
                                    code: ErrorCode::Internal,
                                    message: "request crashed; fault isolated to this request"
                                        .to_owned(),
                                    verb: None,
                                },
                            ),
                        };
                        shared.push(Completion {
                            conn: token,
                            frame,
                            started: arrived,
                            cancel: job_cancel,
                        });
                    }));
                    match submitted {
                        Ok(()) => {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.busy = true;
                            }
                            return;
                        }
                        Err(e) => {
                            if e.code == ErrorCode::Overloaded {
                                Metrics::bump(&self.ctx.metrics.overload_refusals);
                            }
                            let conn = match self.conns.get_mut(&token) {
                                Some(conn) => conn,
                                None => return,
                            };
                            respond(
                                &self.ctx.metrics,
                                conn,
                                &error_frame(id.as_ref(), &e),
                                Some(arrived),
                            );
                        }
                    }
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.pending.is_empty() && !conn.awaiting_turn {
                conn.awaiting_turn = true;
                self.turns.push_back(token);
            }
        }
    }

    /// Gives each connection whose turn ran out its next one. A
    /// connection whose lines outlast this turn too goes to the back,
    /// behind the events of the next `epoll_wait`.
    fn take_turns(&mut self) {
        for _ in 0..self.turns.len() {
            let Some(token) = self.turns.pop_front() else {
                break;
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.awaiting_turn = false;
            self.process_pending(token);
            self.finalize(token);
        }
    }

    /// Applies finished pool jobs: reply, un-busy, continue the
    /// connection's pipeline.
    fn drain_completions(&mut self) {
        for completion in self.shared.take() {
            if completion.cancel.is_cancelled() {
                Metrics::bump(&self.ctx.metrics.disconnect_cancels);
            }
            let token = completion.conn;
            match self.conns.get_mut(&token) {
                Some(conn) => {
                    respond(
                        &self.ctx.metrics,
                        conn,
                        &completion.frame,
                        Some(completion.started),
                    );
                    conn.busy = false;
                }
                None => {
                    // The peer vanished before its answer was ready;
                    // error frames still count, as they did when the
                    // threaded handler built the frame before the
                    // doomed write.
                    if completion.frame.get("ok") == Some(&Json::Bool(false)) {
                        Metrics::bump(&self.ctx.metrics.errors_total);
                    }
                    continue;
                }
            }
            self.process_pending(token);
            self.finalize(token);
        }
    }

    /// Examines due wheel slots; fires, re-inserts, or forgets.
    fn fire_timers(&mut self, now: Instant) {
        for token in self.wheel.advance(now) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Some(deadline) = conn.deadline else {
                conn.in_wheel = false;
                continue;
            };
            if conn.paused() {
                // Backpressured connections are stalled on *us* (or on
                // their own unread replies); the threaded reader could
                // not time out while blocked handing off a line, so
                // neither do we. Check again next revolution.
                let renewed = now + self.ctx.config.idle_timeout.unwrap_or(WHEEL_TICK);
                conn.deadline = Some(renewed);
                self.wheel.insert(renewed, token);
                continue;
            }
            if deadline > now {
                self.wheel.insert(deadline, token);
                continue;
            }
            conn.in_wheel = false;
            if !conn.closing && !conn.dead {
                Metrics::bump(&self.ctx.metrics.read_timeouts);
                let e = ProtoError {
                    code: ErrorCode::Timeout,
                    message: "read deadline exceeded; closing connection".to_owned(),
                    verb: None,
                };
                respond(&self.ctx.metrics, conn, &error_frame(None, &e), None);
            }
            conn.closing = true;
            self.finalize(token);
        }
    }

    /// Settles a connection after any activity: close it if it is done
    /// for, otherwise reconcile its epoll interest with its state.
    fn finalize(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.should_close() {
            self.close_conn(token);
            return;
        }
        // Hysteresis: reads resume below OUTBUF_LOW, not the instant
        // the buffer dips under the high-water mark.
        let mut desired = conn.desired_interest();
        if desired.readable
            && conn.registered.readable != desired.readable
            && conn.outbuf.len() >= OUTBUF_LOW
        {
            desired.readable = false;
        }
        if desired != conn.registered {
            if self.poller.modify(conn.fd, token, desired).is_err() {
                conn.dead = true;
                self.close_conn(token);
                return;
            }
            conn.registered = desired;
        }
    }

    /// Removes and closes a connection: cancels its token (aborting any
    /// in-flight proof), deregisters, closes the socket; a connection
    /// carrying a flushed `shutdown` acknowledgement stops the server.
    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        conn.cancel.cancel();
        self.poller.remove(conn.fd);
        self.ctx
            .metrics
            .connections_active
            .fetch_sub(1, Ordering::Relaxed);
        if conn.shutdown_after {
            self.ctx.trigger_shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::test_ctx;

    #[test]
    fn wheel_fires_after_deadline_not_before() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        wheel.insert(start + Duration::from_millis(120), 7);
        // Nothing due in the first tick.
        assert!(wheel.advance(start + Duration::from_millis(40)).is_empty());
        // By 200ms the slot (120ms ≈ tick 3) has come up.
        let due = wheel.advance(start + Duration::from_millis(200));
        assert_eq!(due, vec![7]);
        assert_eq!(wheel.armed, 0);
        assert!(wheel
            .next_timeout(start + Duration::from_millis(200))
            .is_none());
    }

    #[test]
    fn wheel_survives_a_long_sleep() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        wheel.insert(start + Duration::from_millis(100), 1);
        wheel.insert(start + Duration::from_secs(3600), 2);
        // A sleep longer than a full revolution dumps every slot for
        // re-examination; the caller re-inserts unexpired deadlines.
        let due = wheel.advance(start + Duration::from_secs(30));
        assert_eq!(due.len(), 2);
    }

    #[test]
    fn wheel_clamps_far_deadlines_into_range() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(start);
        // A 2-minute deadline lands in the last slot, not out of
        // bounds; advancing one revolution surfaces it for re-insert.
        wheel.insert(start + Duration::from_secs(120), 9);
        assert!(wheel.next_timeout(start).is_some());
        let horizon = WHEEL_TICK * (WHEEL_SLOTS as u32);
        let due = wheel.advance(start + horizon);
        assert_eq!(due, vec![9]);
    }

    #[test]
    fn a_connection_dispatches_at_most_a_turn_of_lines_at_a_time() {
        let ctx = test_ctx();
        let mut reactor = Reactor::new(Arc::clone(&ctx), Vec::new(), None, None).expect("reactor");
        // Two connections over socket pairs; the far ends take the replies.
        let (flood, probe) = (CONN_BASE, CONN_BASE + 1);
        let mut far_ends = Vec::new();
        for token in [flood, probe] {
            let (near, far) = UnixStream::pair().expect("socket pair");
            near.set_nonblocking(true).expect("nonblocking");
            let conn = Conn::new(Stream::Unix(near), CancelToken::new());
            reactor
                .poller
                .add(conn.fd, token, Interest::READ)
                .expect("register");
            reactor.conns.insert(token, conn);
            far_ends.push(far);
        }
        let health = || ("{\"verb\":\"health\"}\n".to_owned(), Instant::now());
        let queued = |reactor: &Reactor, token: u64| reactor.conns[&token].pending.len();
        reactor
            .conns
            .get_mut(&flood)
            .expect("flood connection")
            .pending
            .extend((0..3 * LINES_PER_TURN).map(|_| health()));
        reactor.process_pending(flood);
        assert_eq!(queued(&reactor, flood), 2 * LINES_PER_TURN);
        assert_eq!(reactor.turns, [flood]);
        assert_eq!(reactor.wait_timeout(Instant::now()), Some(Duration::ZERO));
        // A line on another connection is answered on its own turn, ahead
        // of the flood's remainder.
        reactor
            .conns
            .get_mut(&probe)
            .expect("probe connection")
            .pending
            .push_back(health());
        reactor.process_pending(probe);
        assert_eq!(queued(&reactor, probe), 0);
        reactor.take_turns();
        assert_eq!(queued(&reactor, flood), LINES_PER_TURN);
        reactor.take_turns();
        assert_eq!(queued(&reactor, flood), 0);
        assert!(reactor.turns.is_empty());
        let dispatched = ctx.metrics.requests_total.load(Ordering::Relaxed);
        assert_eq!(dispatched, 3 * LINES_PER_TURN as u64 + 1);
        ctx.pool.drain();
    }
}
