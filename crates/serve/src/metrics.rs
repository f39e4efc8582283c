//! Server-wide counters behind the `stats` verb.
//!
//! Everything here is a relaxed atomic: the metrics path must never
//! contend with the proving path. The `stats` snapshot is advisory by
//! design — counters are read individually, so a snapshot taken while
//! requests are in flight can be momentarily inconsistent between
//! fields, which is fine for monitoring.
//!
//! The one exception is [`SnapshotStatus`]: restore outcome and flusher
//! progress are a handful of related fields an operator reads together
//! ("did this node come up warm, and how stale is its snapshot?"), so
//! they live behind a mutex updated only on restore and on each flush —
//! nowhere near the proving path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::json::{obj, Json};

// ---------------------------------------------------------------------------
// Log2 latency histograms.
// ---------------------------------------------------------------------------

/// Power-of-two buckets, enough for `u64` microseconds.
const HIST_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram of microsecond durations.
///
/// Bucket `i` counts samples in `(2^(i-1), 2^i]` microseconds (bucket 0
/// holds zeros and ones), so recording is a `leading_zeros` plus one
/// relaxed `fetch_add` — cheap enough for the reactor's per-request hot
/// path. Quantiles are read as the *upper bound* of the bucket holding
/// the target rank: a conservative estimate with at most 2x
/// overstatement, which is the right bias for latency SLO reporting.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    fn bucket_index(us: u64) -> usize {
        if us <= 1 {
            0
        } else {
            // floor(log2(us-1)) + 1 == index of the bucket whose upper
            // bound 2^i is the first >= us.
            (64 - (us - 1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Histogram::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one sample given as a [`std::time::Duration`].
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_us(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q <= 1) in microseconds, as the upper
    /// bound of the bucket containing that rank; `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        // ceil(q * total), clamped to [1, total].
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i >= 63 { u64::MAX } else { 1u64 << i });
            }
        }
        Some(u64::MAX)
    }

    /// Mean in microseconds; `None` when empty.
    pub fn mean_us(&self) -> Option<u64> {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count.load(Ordering::Relaxed))
    }

    /// The `stats`-verb rendering: count, mean, p50/p90/p99.
    pub fn to_json(&self) -> Json {
        let q = |q: f64| -> Json { self.quantile_us(q).map(Json::from).unwrap_or(Json::Null) };
        obj(vec![
            ("count", self.count().into()),
            (
                "mean_us",
                self.mean_us().map(Json::from).unwrap_or(Json::Null),
            ),
            ("p50_us", q(0.50)),
            ("p90_us", q(0.90)),
            ("p99_us", q(0.99)),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// How the daemon came up, per its last restore attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// No snapshot configured, none found, or nothing usable in it.
    Cold,
    /// Every snapshot section restored.
    Warm,
    /// Some sections restored, some were corrupt or unusable.
    Partial,
}

impl RestoreOutcome {
    /// The wire spelling, as reported by `stats` and `ready`.
    pub fn as_str(self) -> &'static str {
        match self {
            RestoreOutcome::Cold => "cold",
            RestoreOutcome::Warm => "warm",
            RestoreOutcome::Partial => "partial",
        }
    }
}

/// Snapshot-tier status: restore outcome at startup plus flusher
/// progress since. Shared so the `stats`/`ready` verbs can tell an
/// operator whether the node actually came up warm.
#[derive(Debug, Clone)]
pub struct SnapshotStatus {
    /// Whether a snapshot directory is configured at all.
    pub enabled: bool,
    /// Outcome of the startup restore.
    pub last_restore: RestoreOutcome,
    /// Bytes of the snapshot file the restore read.
    pub restored_bytes: u64,
    /// Sessions restored warm.
    pub restored_sessions: usize,
    /// Sections rejected (checksum/decode/import failure).
    pub corrupt_sections: usize,
    /// Goal-cache entries republished by the restore.
    pub restored_goals: usize,
    /// Subset-cache entries republished by the restore.
    pub restored_subsets: usize,
    /// Analyze tables restored (re-validated on first use, not here).
    pub restored_tables: usize,
    /// When the last successful snapshot write finished.
    pub last_write: Option<Instant>,
    /// Bytes of the last successful snapshot write.
    pub last_write_bytes: u64,
    /// Successful snapshot writes this process lifetime.
    pub writes_total: u64,
    /// Failed snapshot writes (real or injected I/O errors).
    pub write_errors: u64,
}

impl Default for SnapshotStatus {
    fn default() -> SnapshotStatus {
        SnapshotStatus {
            enabled: false,
            last_restore: RestoreOutcome::Cold,
            restored_bytes: 0,
            restored_sessions: 0,
            corrupt_sections: 0,
            restored_goals: 0,
            restored_subsets: 0,
            restored_tables: 0,
            last_write: None,
            last_write_bytes: 0,
            writes_total: 0,
            write_errors: 0,
        }
    }
}

impl SnapshotStatus {
    /// The `snapshot` block of the `stats` response.
    pub fn to_json(&self) -> Json {
        let age_ms = self
            .last_write
            .map(|t| u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX));
        obj(vec![
            ("enabled", self.enabled.into()),
            ("last_restore", self.last_restore.as_str().into()),
            ("restored_bytes", self.restored_bytes.into()),
            ("restored_sessions", (self.restored_sessions as u64).into()),
            ("corrupt_sections", (self.corrupt_sections as u64).into()),
            ("restored_goals", (self.restored_goals as u64).into()),
            ("restored_subsets", (self.restored_subsets as u64).into()),
            ("restored_tables", (self.restored_tables as u64).into()),
            (
                "snapshot_age_ms",
                age_ms.map(Json::from).unwrap_or(Json::Null),
            ),
            ("last_write_bytes", self.last_write_bytes.into()),
            ("writes_total", self.writes_total.into()),
            ("write_errors", self.write_errors.into()),
        ])
    }
}

/// Monotonic counters for the daemon's lifetime.
pub struct Metrics {
    started: Instant,
    /// Connections ever accepted.
    pub connections_total: AtomicU64,
    /// Connections currently open.
    pub connections_active: AtomicU64,
    /// Request frames parsed (including ones later refused).
    pub requests_total: AtomicU64,
    /// Individual dependence queries run (prove + batch items + report).
    pub queries_total: AtomicU64,
    /// Error frames sent, any code.
    pub errors_total: AtomicU64,
    /// Requests refused by admission control specifically.
    pub overload_refusals: AtomicU64,
    /// Requests whose connection vanished mid-proof (cancelled).
    pub disconnect_cancels: AtomicU64,
    /// Connections closed for exceeding the read deadline (idle or
    /// slow-loris).
    pub read_timeouts: AtomicU64,
    /// `analyze` queries answered straight from a persisted table.
    pub analyze_replayed: AtomicU64,
    /// `analyze` queries sent through the prover.
    pub analyze_reproved: AtomicU64,
    /// Connections refused at the `--max-connections` cap.
    pub connection_refusals: AtomicU64,
    /// Request service time: first byte of the frame parsed to response
    /// enqueued on the connection's write buffer.
    pub latency_request: Histogram,
    /// Queue wait: pooled-job submission to a worker picking it up.
    pub latency_queue: Histogram,
    snapshot: Mutex<SnapshotStatus>,
}

impl Metrics {
    /// Fresh counters, clock started now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            queries_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            overload_refusals: AtomicU64::new(0),
            disconnect_cancels: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            analyze_replayed: AtomicU64::new(0),
            analyze_reproved: AtomicU64::new(0),
            connection_refusals: AtomicU64::new(0),
            latency_request: Histogram::new(),
            latency_queue: Histogram::new(),
            snapshot: Mutex::new(SnapshotStatus::default()),
        }
    }

    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Mutates the snapshot-tier status under its lock.
    pub fn update_snapshot_status(&self, f: impl FnOnce(&mut SnapshotStatus)) {
        let mut status = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut status);
    }

    /// A copy of the snapshot-tier status.
    pub fn snapshot_status(&self) -> SnapshotStatus {
        self.snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The `memory` block of the `stats` response: regex-arena occupancy
    /// (the allocation pool bounded by session-scoped compaction), the
    /// interned field names (never freed; bounded per name by
    /// [`apt_regex::MAX_FIELD_NAME`]), plus the process peak RSS the CI
    /// soak gates on.
    pub fn memory_json() -> Json {
        let m = apt_core::MemorySample::take();
        obj(vec![
            ("arena_bytes", (m.arena.live_bytes as u64).into()),
            ("arena_nodes", (m.arena.live_nodes as u64).into()),
            ("arena_pinned_nodes", (m.arena.pinned_nodes as u64).into()),
            ("arena_scopes", (m.arena.active_scopes as u64).into()),
            ("arena_freed_total", m.arena.freed_total.into()),
            ("symbols", m.symbols.symbols.into()),
            ("symbol_bytes", m.symbols.bytes.into()),
            (
                "peak_rss_kb",
                m.peak_rss_kb.map(Json::from).unwrap_or(Json::Null),
            ),
        ])
    }

    /// The server-level block of the `stats` response.
    pub fn to_json(&self) -> Json {
        let read = |c: &AtomicU64| -> Json { c.load(Ordering::Relaxed).into() };
        obj(vec![
            (
                "uptime_ms",
                u64::try_from(self.started.elapsed().as_millis())
                    .unwrap_or(u64::MAX)
                    .into(),
            ),
            ("connections_total", read(&self.connections_total)),
            ("connections_active", read(&self.connections_active)),
            ("requests_total", read(&self.requests_total)),
            ("queries_total", read(&self.queries_total)),
            ("errors_total", read(&self.errors_total)),
            ("overload_refusals", read(&self.overload_refusals)),
            ("disconnect_cancels", read(&self.disconnect_cancels)),
            ("read_timeouts", read(&self.read_timeouts)),
            ("analyze_replayed", read(&self.analyze_replayed)),
            ("analyze_reproved", read(&self.analyze_reproved)),
            ("connection_refusals", read(&self.connection_refusals)),
            (
                "latency",
                obj(vec![
                    ("request_us", self.latency_request.to_json()),
                    ("queue_wait_us", self.latency_queue.to_json()),
                ]),
            ),
            ("memory", Metrics::memory_json()),
            ("snapshot", self.snapshot_status().to_json()),
        ])
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert!(h.quantile_us(0.5).is_none());
        assert!(h.mean_us().is_none());
        // Bucket boundaries: 0,1 -> bucket 0; 2 -> 1; 3,4 -> 2; 1025 -> 11.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(1025), 11);

        // 90 fast samples, 10 slow ones: p50 stays in the fast bucket,
        // p99 lands in the slow one; quantiles report upper bounds.
        for _ in 0..90 {
            h.record_us(100); // bucket 7, upper bound 128
        }
        for _ in 0..10 {
            h.record_us(5000); // bucket 13, upper bound 8192
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), Some(128));
        assert_eq!(h.quantile_us(0.90), Some(128));
        assert_eq!(h.quantile_us(0.99), Some(8192));
        assert_eq!(h.quantile_us(1.0), Some(8192));
        assert_eq!(h.mean_us(), Some((90 * 100 + 10 * 5000) / 100));

        let json = h.to_json();
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(100));
        assert_eq!(json.get("p50_us").and_then(Json::as_u64), Some(128));
        assert_eq!(json.get("p99_us").and_then(Json::as_u64), Some(8192));
    }

    #[test]
    fn latency_block_reaches_stats_json() {
        let m = Metrics::new();
        m.latency_request.record_us(40);
        m.latency_queue.record(std::time::Duration::from_micros(3));
        let json = m.to_json();
        let lat = json.get("latency").cloned().unwrap();
        let req = lat.get("request_us").cloned().unwrap();
        assert_eq!(req.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(req.get("p50_us").and_then(Json::as_u64), Some(64));
        let qw = lat.get("queue_wait_us").cloned().unwrap();
        assert_eq!(qw.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn counters_show_up_in_the_snapshot() {
        let m = Metrics::new();
        Metrics::bump(&m.requests_total);
        Metrics::add(&m.queries_total, 5);
        let json = m.to_json();
        assert_eq!(json.get("requests_total").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("queries_total").and_then(Json::as_u64), Some(5));
        assert_eq!(json.get("errors_total").and_then(Json::as_u64), Some(0));
        assert!(json.get("uptime_ms").is_some());
    }

    #[test]
    fn memory_block_reports_arena_and_rss() {
        let json = Metrics::new().to_json();
        let mem = json.get("memory").cloned().unwrap();
        // The arena always holds at least the pinned ∅/ε constants.
        assert!(mem.get("arena_nodes").and_then(Json::as_u64).unwrap() >= 2);
        assert!(mem.get("arena_bytes").and_then(Json::as_u64).unwrap() > 0);
        assert!(mem.get("arena_freed_total").is_some());
        assert!(mem.get("symbols").and_then(Json::as_u64).is_some());
        assert!(mem.get("symbol_bytes").and_then(Json::as_u64).is_some());
        if cfg!(target_os = "linux") {
            assert!(mem.get("peak_rss_kb").and_then(Json::as_u64).unwrap() > 0);
        }
    }

    #[test]
    fn snapshot_status_reports_restore_and_writes() {
        let m = Metrics::new();
        m.update_snapshot_status(|s| {
            s.enabled = true;
            s.last_restore = RestoreOutcome::Partial;
            s.restored_sessions = 2;
            s.corrupt_sections = 1;
            s.restored_bytes = 4096;
            s.writes_total = 3;
            s.last_write = Some(Instant::now());
            s.last_write_bytes = 2048;
        });
        let json = m.to_json();
        let snap = json.get("snapshot").cloned().unwrap();
        assert_eq!(
            snap.get("last_restore").and_then(Json::as_str),
            Some("partial")
        );
        assert_eq!(
            snap.get("restored_sessions").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(snap.get("corrupt_sections").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("writes_total").and_then(Json::as_u64), Some(3));
        assert!(snap.get("snapshot_age_ms").and_then(Json::as_u64).is_some());

        // Fresh metrics: cold, no write yet, null age.
        let fresh = Metrics::new().to_json();
        let snap = fresh.get("snapshot").cloned().unwrap();
        assert_eq!(
            snap.get("last_restore").and_then(Json::as_str),
            Some("cold")
        );
        assert!(snap
            .get("snapshot_age_ms")
            .map(Json::is_null)
            .unwrap_or(false));
    }
}
