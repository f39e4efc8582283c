//! A small synchronous client for the daemon's wire protocol.
//!
//! Used by `apt client`, the loopback test suite, and perfbench's
//! serve-warm workload. One [`Client`] owns one connection and
//! does strict request/response turns; open several clients for
//! concurrency.
//!
//! With a [`RetryPolicy`] attached, transport failures on *idempotent*
//! verbs (`hello`, `open_session`, `prove`, `batch`, `report`,
//! `analyze`, `invalidate`, `stats`, `health`, `ready`) reconnect and
//! retry with jittered exponential backoff — a daemon restart becomes a pause, not an error, and the
//! registry's structural dedupe lands re-opened sessions back on the
//! (possibly snapshot-restored) warm engine. Non-idempotent verbs
//! (`close_session`, `shutdown`) are never replayed. When every
//! attempt fails, the distinct [`ClientError::RetriesExhausted`] says
//! so — callers can tell "the server is gone" from a single hiccup.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path as FsPath, PathBuf};
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::{obj, parse, Json};

/// Where a client connects; kept so reconnection can re-dial.
#[derive(Debug, Clone)]
enum Endpoint {
    Tcp(String),
    Unix(PathBuf),
}

/// Reconnect-and-retry tuning for idempotent verbs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnect attempts after the initial failure.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// Defaults: 5 attempts, 25 ms base, 1 s cap — a daemon restart
    /// (sub-second) is ridden out, a dead one fails in ~2 s.
    pub fn new() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
        }
    }

    /// The sleep before retry number `attempt` (0-based): exponential,
    /// capped, with multiplicative jitter in [0.5, 1.0) so a fleet of
    /// clients does not reconnect in lockstep.
    fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        // xorshift64: no external RNG crates, and quality hardly
        // matters — this only de-synchronizes reconnect storms.
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let unit = (*rng >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * unit)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::new()
    }
}

/// Whether a verb can safely be replayed after a transport failure
/// (the failed attempt may or may not have been processed).
fn is_idempotent(verb: &str) -> bool {
    // `analyze` converges (same program + table → same verdicts and
    // final table) and `invalidate` is a no-op the second time, so both
    // replay safely after a transport failure.
    matches!(
        verb,
        "hello"
            | "open_session"
            | "prove"
            | "batch"
            | "report"
            | "analyze"
            | "invalidate"
            | "stats"
            | "health"
            | "ready"
    )
}

/// A connected protocol client.
pub struct Client {
    endpoint: Endpoint,
    writer: Box<dyn Write + Send>,
    reader: BufReader<Box<dyn io::Read + Send>>,
    next_id: u64,
    retry: Option<RetryPolicy>,
    rng: u64,
}

/// A client-side failure: transport trouble, unparsable response, or a
/// server error frame.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's line did not parse as JSON.
    BadResponse(String),
    /// The server answered `ok:false`; carries `(code, message)`.
    Server(String, String),
    /// Every reconnect attempt of the retry policy failed; carries the
    /// attempt count and the last transport error.
    RetriesExhausted {
        /// Reconnect attempts made (beyond the initial failure).
        attempts: u32,
        /// The transport error of the final attempt.
        last: io::Error,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
            ClientError::Server(code, m) => write!(f, "server error [{code}]: {m}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} reconnect attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

type Transport = (Box<dyn Write + Send>, BufReader<Box<dyn io::Read + Send>>);

fn dial(endpoint: &Endpoint) -> io::Result<Transport> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr.as_str())?;
            // Frames are tiny; without this, Nagle + delayed ACK costs
            // ~40ms per round-trip.
            stream.set_nodelay(true)?;
            let reader = stream.try_clone()?;
            Ok((
                Box::new(stream),
                BufReader::new(Box::new(reader) as Box<dyn io::Read + Send>),
            ))
        }
        Endpoint::Unix(path) => {
            let stream = UnixStream::connect(path)?;
            let reader = stream.try_clone()?;
            Ok((
                Box::new(stream),
                BufReader::new(Box::new(reader) as Box<dyn io::Read + Send>),
            ))
        }
    }
}

fn jitter_seed() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) ^ d.as_secs().rotate_left(32))
        .unwrap_or(0x9e37_79b9_7f4a_7c15)
        | 1
}

impl Client {
    fn connect(endpoint: Endpoint) -> Result<Client, ClientError> {
        let (writer, reader) = dial(&endpoint)?;
        Ok(Client {
            endpoint,
            writer,
            reader,
            next_id: 0,
            retry: None,
            rng: jitter_seed(),
        })
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        Client::connect(Endpoint::Tcp(addr.to_owned()))
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_unix(path: &FsPath) -> Result<Client, ClientError> {
        Client::connect(Endpoint::Unix(path.to_owned()))
    }

    /// Enables reconnect-with-backoff for idempotent verbs.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        self.retry = Some(policy);
        self
    }

    /// Drops the current socket and dials the endpoint again.
    fn reconnect(&mut self) -> io::Result<()> {
        let (writer, reader) = dial(&self.endpoint)?;
        self.writer = writer;
        self.reader = reader;
        Ok(())
    }

    /// Sends one frame and reads one response frame, auto-assigning an
    /// `id` when the caller gave none. Protocol-level errors
    /// (`ok:false`) become [`ClientError::Server`]. With a retry policy
    /// attached and an idempotent verb, transport failures reconnect
    /// and replay the frame.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn roundtrip(&mut self, mut frame: Json) -> Result<Json, ClientError> {
        if let Json::Obj(pairs) = &mut frame {
            if !pairs.iter().any(|(k, _)| k == "id") {
                self.next_id += 1;
                pairs.push(("id".to_owned(), Json::Num(self.next_id as f64)));
            }
        }
        let retryable = self.retry.is_some()
            && frame
                .get("verb")
                .and_then(Json::as_str)
                .is_some_and(is_idempotent);
        let line = frame.render();
        match self.roundtrip_raw(&line) {
            Err(ClientError::Io(e)) if retryable => self.retry_line(&line, e),
            other => other,
        }
    }

    fn retry_line(&mut self, line: &str, first: io::Error) -> Result<Json, ClientError> {
        let Some(policy) = self.retry.clone() else {
            return Err(ClientError::Io(first));
        };
        let mut last = first;
        for attempt in 0..policy.max_attempts {
            thread::sleep(policy.delay(attempt, &mut self.rng));
            if let Err(e) = self.reconnect() {
                last = e;
                continue;
            }
            match self.roundtrip_raw(line) {
                Err(ClientError::Io(e)) => last = e,
                other => return other,
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts: policy.max_attempts,
            last,
        })
    }

    /// Sends one pre-rendered request line and reads one response. A
    /// single attempt on the current connection — never retried, even
    /// with a policy attached (callers of the raw API own their frames'
    /// idempotency).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn roundtrip_raw(&mut self, line: &str) -> Result<Json, ClientError> {
        // One write per frame: the socket is unbuffered, and a separate
        // write for the newline would reach the daemon as a second piece.
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let frame =
            parse(response.trim_end()).map_err(|e| ClientError::BadResponse(e.to_string()))?;
        if frame.get("ok").and_then(Json::as_bool) == Some(false) {
            let code = frame
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned();
            let message = frame
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned();
            return Err(ClientError::Server(code, message));
        }
        Ok(frame)
    }

    /// `open_session` for `axioms` text; returns the session id.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn open_session(&mut self, axioms: &str) -> Result<String, ClientError> {
        let frame = self.roundtrip(obj(vec![
            ("verb", "open_session".into()),
            ("axioms", axioms.into()),
        ]))?;
        frame
            .get("session")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::BadResponse("open_session reply lacks session".to_owned()))
    }

    /// A disjointness `prove` with default budget; returns the full
    /// `result` object.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn prove_disjoint(
        &mut self,
        session: &str,
        a: &str,
        b: &str,
        distinct_origin: bool,
    ) -> Result<Json, ClientError> {
        let origin = if distinct_origin { "distinct" } else { "same" };
        let frame = self.roundtrip(obj(vec![
            ("verb", "prove".into()),
            ("session", session.into()),
            ("a", a.into()),
            ("b", b.into()),
            ("origin", origin.into()),
        ]))?;
        frame
            .get("result")
            .cloned()
            .ok_or_else(|| ClientError::BadResponse("prove reply lacks result".to_owned()))
    }

    /// `shutdown` — asks the daemon to stop.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(obj(vec![("verb", "shutdown".into())]))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotency_classification() {
        for verb in [
            "hello",
            "open_session",
            "prove",
            "batch",
            "report",
            "analyze",
            "invalidate",
            "stats",
            "health",
            "ready",
        ] {
            assert!(is_idempotent(verb), "{verb}");
        }
        for verb in ["close_session", "shutdown", "frobnicate"] {
            assert!(!is_idempotent(verb), "{verb}");
        }
    }

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
        };
        let mut rng = jitter_seed();
        for attempt in 0..8 {
            let d = policy.delay(attempt, &mut rng);
            let uncapped = policy
                .base_delay
                .saturating_mul(1 << attempt)
                .min(policy.max_delay);
            assert!(d >= uncapped.mul_f64(0.5), "attempt {attempt}: {d:?}");
            assert!(d <= uncapped, "attempt {attempt}: {d:?} above cap");
        }
    }
}
