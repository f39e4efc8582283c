//! Process-level memory telemetry for reports, bench artifacts, and the
//! serving layer.
//!
//! Three signals matter for the data-oriented prover core:
//!
//! * the **regex arena** footprint ([`apt_regex::arena_stats`]) — the one
//!   allocation pool that used to grow without bound in a resident
//!   daemon, now scoped per engine;
//! * the **symbol table** ([`apt_regex::Symbol::table_stats`]) — interned
//!   field names, which are never freed;
//! * the process **peak RSS** (`VmHWM` from `/proc/self/status` on
//!   Linux) — the external ground truth the CI soak gates on.
//!
//! [`MemorySample`] snapshots all three so every surface (`apt report`,
//! the serve `stats` verb, the bench JSON writers) reports the same
//! fields under the same names.

use apt_regex::{arena_stats, ArenaStats, Symbol, SymbolStats};

/// A point-in-time memory reading: arena occupancy, symbol-table size and
/// process peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct MemorySample {
    /// Regex-arena occupancy at sampling time.
    pub arena: ArenaStats,
    /// Interned field names and their bytes at sampling time.
    pub symbols: SymbolStats,
    /// Peak resident set size in KiB (`VmHWM`), when the platform exposes
    /// it (`None` off Linux or if `/proc` is unreadable).
    pub peak_rss_kb: Option<u64>,
}

impl MemorySample {
    /// Takes a fresh sample.
    pub fn take() -> MemorySample {
        MemorySample {
            arena: arena_stats(),
            symbols: Symbol::table_stats(),
            peak_rss_kb: peak_rss_kb(),
        }
    }
}

/// The process's peak resident set size in KiB, read from the kernel's
/// `VmHWM` accounting. Returns `None` where `/proc/self/status` is absent
/// or does not carry the field.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reads_arena_and_rss() {
        let s = MemorySample::take();
        // The arena always holds at least the pinned ∅/ε constants.
        assert!(s.arena.live_nodes >= 2);
        assert!(s.arena.live_bytes > 0);
        let _ = apt_regex::Symbol::intern("L");
        let s = MemorySample::take();
        assert!(s.symbols.symbols >= 1 && s.symbols.bytes >= 1);
        // On Linux (the only CI target) VmHWM must parse and be nonzero.
        if cfg!(target_os = "linux") {
            let kb = s.peak_rss_kb.expect("VmHWM present on Linux");
            assert!(kb > 0);
        }
    }
}
