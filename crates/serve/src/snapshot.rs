//! Crash-safe warm-state snapshots.
//!
//! The daemon's entire competitive advantage is warmth: compiled axiom
//! sets and the sharded definite proof/subset caches. All of it is
//! reconstructible — the caches memoize *theorems*, and the proofs are
//! machine-checkable — so the snapshot tier treats persistence as a
//! pure optimization with an asymmetric contract:
//!
//! > **Corruption can only cost warmth, never correctness or
//! > availability.**
//!
//! # File format (version 1)
//!
//! A snapshot is a single binary file, `apt-serve.snap`:
//!
//! ```text
//! magic      8  b"APTSNAP\x01"
//! version    u32-le
//! created    u64-le   unix milliseconds at write time
//! sections   u32-le   section count
//! section*:
//!   name     string   informational label (session id at write time)
//!   len      u64-le   payload byte length
//!   crc      u32-le   CRC-32 (IEEE) of the payload bytes
//!   payload  len bytes
//! ```
//!
//! Every section is independently length-prefixed and checksummed, so a
//! tear or bit-flip anywhere is confined to the sections it touches:
//! restore decodes each section under its CRC and falls back *per
//! section* to cold state on any mismatch. A bad header (magic,
//! version, truncation) costs the whole file — still only warmth.
//!
//! Each section payload is one session's warm state:
//!
//! ```text
//! axioms   string       the axiom-set source text
//! goals    u32-le, then per goal:
//!   origin u8            0 same, 1 distinct
//!   a, b   path
//!   proof  u8            0 failed; 1 proved, followed by a proof tree
//! subsets  u32-le, then per entry: regex a, regex b, holds u8
//! ```
//!
//! Strings are `u32-le` length + UTF-8 bytes. Paths, regexes, and
//! proofs are serialized *structurally* (field names as strings):
//! `RegexId`s and `Symbol`s are process-local arena indices and are
//! meaningless in another process, so the decoder re-interns on
//! restore. Compiled DFAs and axiom indexes are deliberately not
//! persisted — they are recomputed deterministically from the axiom
//! text, which is cheap relative to the proof search the caches avoid.
//!
//! # Atomicity
//!
//! [`write_atomic`] writes `apt-serve.snap.tmp`, fsyncs it, renames it
//! over `apt-serve.snap`, then fsyncs the directory. A crash at any
//! point leaves either the old snapshot or the new one — never a
//! half-visible file. (A stale `.tmp` left by a crash mid-write is
//! ignored and removed on the next restore.) The [`FaultPlan`] hooks
//! let tests drive every failure point on this path deterministically.

use crate::fault::FaultPlan;
use apt_core::{
    Answer, CacheExport, Goal, GoalEntry, Origin, PrefixCase, Proof, Rule, SubsetEntry, Witness,
};
use apt_paths::{DepTable, ProcVerdicts, StoredVerdict};
use apt_regex::{Component, Path, Regex};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// File name of the live snapshot inside the snapshot directory.
pub const SNAP_FILE: &str = "apt-serve.snap";
/// File name of the in-progress temporary file.
pub const TMP_FILE: &str = "apt-serve.snap.tmp";

const MAGIC: &[u8; 8] = b"APTSNAP\x01";
const VERSION: u32 = 2;
/// Chunk size for snapshot writes; small enough that `write_err=N`
/// fault plans can target a mid-file write on realistic snapshots.
const WRITE_CHUNK: usize = 64 * 1024;
/// Maximum nesting depth accepted for paths/regexes/proofs. Real
/// access paths nest a handful of levels; prover proofs are
/// fuel-bounded. Anything deeper is corruption, and rejecting it keeps
/// the recursive decoder off the guard page.
const MAX_DEPTH: usize = 512;
/// Hard cap on any single decoded section payload (bytes). The encoder
/// never approaches this; a length prefix beyond it is corruption.
const MAX_SECTION_LEN: u64 = 1 << 32;

/// A decode-side failure, also used for header-level load failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    message: String,
}

impl SnapshotError {
    fn new(message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// One session's warm state, as stored in a snapshot section.
#[derive(Debug, Clone)]
pub struct SessionSection {
    /// Informational label (the session id at write time; restore
    /// assigns fresh ids).
    pub name: String,
    /// The axiom-set source text the engine is recompiled from.
    pub axioms_text: String,
    /// The definite goal/subset cache image.
    pub export: CacheExport,
}

/// One named whole-program dependence table, as stored in a snapshot
/// section. Written with an `analyze:`-prefixed section name — session
/// ids are `s<n>`, so the namespaces cannot collide, and an older binary
/// that does not know the prefix simply fails the section's payload
/// decode and falls back per-section as it would for any corruption.
#[derive(Debug, Clone)]
pub struct AnalyzeSection {
    /// The table's name (the `analyze` verb's `name` field).
    pub name: String,
    /// The persisted per-procedure verdicts.
    pub table: DepTable,
}

/// A full snapshot image: what the flusher writes and restore reads.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Unix milliseconds at encode time.
    pub created_unix_ms: u64,
    /// One section per live session.
    pub sections: Vec<SessionSection>,
    /// One section per named whole-program dependence table.
    pub analyses: Vec<AnalyzeSection>,
}

/// The per-section result of decoding a snapshot file.
#[derive(Debug)]
pub enum SectionOutcome {
    /// The section's CRC matched and it decoded cleanly as a session.
    Restored(SessionSection),
    /// The section decoded cleanly as a whole-program dependence table.
    Analysis(AnalyzeSection),
    /// The section was damaged; restore proceeds without it.
    Corrupt {
        /// The section's label, when the name field itself survived.
        name: String,
        /// Why the section was rejected.
        reason: String,
    },
}

/// Section-name prefix marking an [`AnalyzeSection`].
const ANALYZE_PREFIX: &str = "analyze:";

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, std-only.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_path(out: &mut Vec<u8>, path: &Path) {
    let components = path.components();
    put_u32(out, components.len() as u32);
    for c in components {
        put_component(out, c);
    }
}

fn put_component(out: &mut Vec<u8>, c: &Component) {
    match c {
        Component::Field(s) => {
            out.push(0);
            put_str(out, s.as_str());
        }
        Component::Alt(a, b) => {
            out.push(1);
            put_path(out, a);
            put_path(out, b);
        }
        Component::Star(a) => {
            out.push(2);
            put_path(out, a);
        }
        Component::Plus(a) => {
            out.push(3);
            put_path(out, a);
        }
    }
}

fn put_regex(out: &mut Vec<u8>, r: &Regex) {
    match r {
        Regex::Empty => out.push(0),
        Regex::Epsilon => out.push(1),
        Regex::Field(s) => {
            out.push(2);
            put_str(out, s.as_str());
        }
        Regex::Concat(a, b) => {
            out.push(3);
            put_regex(out, a);
            put_regex(out, b);
        }
        Regex::Alt(a, b) => {
            out.push(4);
            put_regex(out, a);
            put_regex(out, b);
        }
        Regex::Star(a) => {
            out.push(5);
            put_regex(out, a);
        }
        Regex::Plus(a) => {
            out.push(6);
            put_regex(out, a);
        }
    }
}

fn put_goal(out: &mut Vec<u8>, goal: &Goal) {
    out.push(match goal.origin() {
        Origin::Same => 0,
        Origin::Distinct => 1,
    });
    put_path(out, goal.a());
    put_path(out, goal.b());
}

fn put_rule(out: &mut Vec<u8>, rule: &Rule) {
    match rule {
        Rule::Axiom { axiom, swapped } => {
            out.push(0);
            put_str(out, axiom);
            out.push(u8::from(*swapped));
        }
        Rule::TrivialDistinctEpsilon => out.push(1),
        Rule::HeadPeel { field } => {
            out.push(2);
            put_str(out, field);
        }
        Rule::HeadPeelInjective { field, axiom } => {
            out.push(3);
            put_str(out, field);
            put_str(out, axiom);
        }
        Rule::HeadPeelCases { field } => {
            out.push(4);
            put_str(out, field);
        }
        Rule::TailPeel { field, axiom } => {
            out.push(5);
            put_str(out, field);
            put_str(out, axiom);
        }
        Rule::ClosureTailPeel { field, axiom } => {
            out.push(6);
            put_str(out, field);
            put_str(out, axiom);
        }
        Rule::ClosureHeadPeel { field } => {
            out.push(7);
            put_str(out, field);
        }
        Rule::Decompose {
            suffix_a,
            suffix_b,
            prefix_case,
        } => {
            out.push(8);
            put_str(out, suffix_a);
            put_str(out, suffix_b);
            out.push(match prefix_case {
                PrefixCase::BothOrigins => 0,
                PrefixCase::PrefixesEqual => 1,
                PrefixCase::PrefixesDisjoint => 2,
            });
        }
        Rule::AltSplit => out.push(9),
        Rule::Rewrite { axiom } => {
            out.push(10);
            put_str(out, axiom);
        }
        Rule::StarCases => out.push(11),
        Rule::Induction { target } => {
            out.push(12);
            put_str(out, target);
        }
    }
}

fn put_proof(out: &mut Vec<u8>, proof: &Proof) {
    put_goal(out, &proof.goal);
    put_rule(out, &proof.rule);
    put_u32(out, proof.children.len() as u32);
    for c in &proof.children {
        put_proof(out, c);
    }
}

fn encode_section_payload(section: &SessionSection) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &section.axioms_text);
    put_u32(&mut out, section.export.goals.len() as u32);
    for entry in &section.export.goals {
        put_goal(&mut out, &entry.goal);
        match &entry.proof {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                put_proof(&mut out, p);
            }
        }
    }
    put_u32(&mut out, section.export.subsets.len() as u32);
    for entry in &section.export.subsets {
        put_regex(&mut out, &entry.a);
        put_regex(&mut out, &entry.b);
        out.push(u8::from(entry.holds));
    }
    out
}

fn encode_analyze_payload(table: &DepTable) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, table.procs().len() as u32);
    for entry in table.procs() {
        put_str(&mut out, &entry.proc_name);
        put_u64(&mut out, entry.body_hash);
        put_u64(&mut out, entry.axioms_hash);
        put_u32(&mut out, entry.verdicts.len() as u32);
        for v in &entry.verdicts {
            put_str(&mut out, &v.query);
            out.push(match v.answer {
                Answer::No => 0,
                // Maybe is never persisted; encoding one as a Yes would
                // be caught by the replay-side structural check, but the
                // writer simply never stores it.
                Answer::Yes | Answer::Maybe => 1,
            });
            put_u32(&mut out, v.proofs.len() as u32);
            for p in &v.proofs {
                put_proof(&mut out, p);
            }
            match &v.witness {
                None => out.push(0),
                Some(w) => {
                    out.push(1);
                    put_str(&mut out, &w.encode());
                }
            }
        }
    }
    out
}

/// Encodes a full snapshot image to its on-disk byte representation.
pub fn encode(snapshot: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, snapshot.created_unix_ms);
    put_u32(
        &mut out,
        (snapshot.sections.len() + snapshot.analyses.len()) as u32,
    );
    for section in &snapshot.sections {
        let payload = encode_section_payload(section);
        put_str(&mut out, &section.name);
        put_u64(&mut out, payload.len() as u64);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
    }
    for analysis in &snapshot.analyses {
        let payload = encode_analyze_payload(&analysis.table);
        put_str(&mut out, &format!("{ANALYZE_PREFIX}{}", analysis.name));
        put_u64(&mut out, payload.len() as u64);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::new(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::new("string is not valid UTF-8"))
    }

    /// Bounds a count prefix: each element costs at least `min_bytes`,
    /// so a count implying more bytes than remain is corruption. Keeps
    /// a flipped length prefix from provoking a huge allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(SnapshotError::new(format!(
                "implausible count {n} at offset {}",
                self.pos
            )));
        }
        Ok(n)
    }

    fn path(&mut self, depth: usize) -> Result<Path, SnapshotError> {
        if depth > MAX_DEPTH {
            return Err(SnapshotError::new("path nesting too deep"));
        }
        let n = self.count(1)?;
        let mut components = Vec::with_capacity(n);
        for _ in 0..n {
            components.push(self.component(depth + 1)?);
        }
        Ok(Path::new(components))
    }

    fn component(&mut self, depth: usize) -> Result<Component, SnapshotError> {
        match self.u8()? {
            0 => Ok(Component::Field(self.string()?.as_str().into())),
            1 => Ok(Component::Alt(self.path(depth)?, self.path(depth)?)),
            2 => Ok(Component::Star(self.path(depth)?)),
            3 => Ok(Component::Plus(self.path(depth)?)),
            t => Err(SnapshotError::new(format!("bad component tag {t}"))),
        }
    }

    fn regex(&mut self, depth: usize) -> Result<Regex, SnapshotError> {
        if depth > MAX_DEPTH {
            return Err(SnapshotError::new("regex nesting too deep"));
        }
        // Raw constructors, not the simplifying smart constructors: the
        // encoder wrote an already-simplified tree, and round-tripping
        // must preserve it byte-for-byte so the subset-cache keys
        // re-intern to the same structural regexes.
        match self.u8()? {
            0 => Ok(Regex::Empty),
            1 => Ok(Regex::Epsilon),
            2 => Ok(Regex::Field(self.string()?.as_str().into())),
            3 => Ok(Regex::Concat(
                Arc::new(self.regex(depth + 1)?),
                Arc::new(self.regex(depth + 1)?),
            )),
            4 => Ok(Regex::Alt(
                Arc::new(self.regex(depth + 1)?),
                Arc::new(self.regex(depth + 1)?),
            )),
            5 => Ok(Regex::Star(Arc::new(self.regex(depth + 1)?))),
            6 => Ok(Regex::Plus(Arc::new(self.regex(depth + 1)?))),
            t => Err(SnapshotError::new(format!("bad regex tag {t}"))),
        }
    }

    fn goal(&mut self) -> Result<Goal, SnapshotError> {
        let origin = match self.u8()? {
            0 => Origin::Same,
            1 => Origin::Distinct,
            t => return Err(SnapshotError::new(format!("bad origin tag {t}"))),
        };
        let a = self.path(0)?;
        let b = self.path(0)?;
        Ok(Goal::new(origin, a, b))
    }

    fn rule(&mut self) -> Result<Rule, SnapshotError> {
        Ok(match self.u8()? {
            0 => {
                let axiom = self.string()?;
                let swapped = self.u8()? != 0;
                Rule::Axiom { axiom, swapped }
            }
            1 => Rule::TrivialDistinctEpsilon,
            2 => Rule::HeadPeel {
                field: self.string()?,
            },
            3 => Rule::HeadPeelInjective {
                field: self.string()?,
                axiom: self.string()?,
            },
            4 => Rule::HeadPeelCases {
                field: self.string()?,
            },
            5 => Rule::TailPeel {
                field: self.string()?,
                axiom: self.string()?,
            },
            6 => Rule::ClosureTailPeel {
                field: self.string()?,
                axiom: self.string()?,
            },
            7 => Rule::ClosureHeadPeel {
                field: self.string()?,
            },
            8 => {
                let suffix_a = self.string()?;
                let suffix_b = self.string()?;
                let prefix_case = match self.u8()? {
                    0 => PrefixCase::BothOrigins,
                    1 => PrefixCase::PrefixesEqual,
                    2 => PrefixCase::PrefixesDisjoint,
                    t => return Err(SnapshotError::new(format!("bad prefix-case tag {t}"))),
                };
                Rule::Decompose {
                    suffix_a,
                    suffix_b,
                    prefix_case,
                }
            }
            9 => Rule::AltSplit,
            10 => Rule::Rewrite {
                axiom: self.string()?,
            },
            11 => Rule::StarCases,
            12 => Rule::Induction {
                target: self.string()?,
            },
            t => return Err(SnapshotError::new(format!("bad rule tag {t}"))),
        })
    }

    fn proof(&mut self, depth: usize) -> Result<Proof, SnapshotError> {
        if depth > MAX_DEPTH {
            return Err(SnapshotError::new("proof nesting too deep"));
        }
        let goal = self.goal()?;
        let rule = self.rule()?;
        let n = self.count(1)?;
        let mut children = Vec::with_capacity(n);
        for _ in 0..n {
            children.push(Arc::new(self.proof(depth + 1)?));
        }
        Ok(Proof {
            goal,
            rule,
            children,
        })
    }
}

fn decode_section_payload(payload: &[u8]) -> Result<(String, CacheExport), SnapshotError> {
    let mut cur = Cursor::new(payload);
    let axioms_text = cur.string()?;
    let goal_count = cur.count(3)?;
    let mut goals = Vec::with_capacity(goal_count);
    for _ in 0..goal_count {
        let goal = cur.goal()?;
        let proof = match cur.u8()? {
            0 => None,
            1 => Some(cur.proof(0)?),
            t => return Err(SnapshotError::new(format!("bad proof-presence tag {t}"))),
        };
        goals.push(GoalEntry { goal, proof });
    }
    let subset_count = cur.count(3)?;
    let mut subsets = Vec::with_capacity(subset_count);
    for _ in 0..subset_count {
        let a = cur.regex(0)?;
        let b = cur.regex(0)?;
        let holds = cur.u8()? != 0;
        subsets.push(SubsetEntry { a, b, holds });
    }
    if cur.remaining() != 0 {
        return Err(SnapshotError::new(format!(
            "{} trailing bytes after section payload",
            cur.remaining()
        )));
    }
    Ok((axioms_text, CacheExport { goals, subsets }))
}

fn decode_analyze_payload(payload: &[u8]) -> Result<DepTable, SnapshotError> {
    let mut cur = Cursor::new(payload);
    let proc_count = cur.count(8)?;
    let mut procs = Vec::with_capacity(proc_count);
    for _ in 0..proc_count {
        let proc_name = cur.string()?;
        let body_hash = cur.u64()?;
        let axioms_hash = cur.u64()?;
        let verdict_count = cur.count(5)?;
        let mut verdicts = Vec::with_capacity(verdict_count);
        for _ in 0..verdict_count {
            let query = cur.string()?;
            let answer = match cur.u8()? {
                0 => Answer::No,
                1 => Answer::Yes,
                t => return Err(SnapshotError::new(format!("bad answer tag {t}"))),
            };
            let proof_count = cur.count(3)?;
            let mut proofs = Vec::with_capacity(proof_count);
            for _ in 0..proof_count {
                proofs.push(cur.proof(0)?);
            }
            let witness = match cur.u8()? {
                0 => None,
                1 => {
                    let text = cur.string()?;
                    Some(Witness::decode(&text).ok_or_else(|| {
                        SnapshotError::new(format!("unparsable witness {text:?}"))
                    })?)
                }
                t => return Err(SnapshotError::new(format!("bad witness tag {t}"))),
            };
            verdicts.push(StoredVerdict {
                query,
                answer,
                proofs,
                witness,
            });
        }
        procs.push(ProcVerdicts {
            proc_name,
            body_hash,
            axioms_hash,
            verdicts,
        });
    }
    if cur.remaining() != 0 {
        return Err(SnapshotError::new(format!(
            "{} trailing bytes after analyze payload",
            cur.remaining()
        )));
    }
    Ok(DepTable::from_procs(procs))
}

/// Decodes a snapshot file image, yielding one outcome per section.
///
/// Header damage (bad magic, unknown version, truncated header) fails
/// the whole file; everything past the header degrades per section.
///
/// # Errors
///
/// Returns a [`SnapshotError`] describing the header-level problem.
pub fn decode(bytes: &[u8]) -> Result<(u64, Vec<SectionOutcome>), SnapshotError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::new("bad magic: not an apt-serve snapshot"));
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(SnapshotError::new(format!(
            "unsupported snapshot version {version} (this build reads {VERSION})"
        )));
    }
    let created_unix_ms = cur.u64()?;
    let section_count = cur.count(0)?;
    let mut outcomes = Vec::new();
    for index in 0..section_count {
        let corrupt = |name: String, reason: String| SectionOutcome::Corrupt { name, reason };
        // The section frame itself (name/len/crc) can be truncated by a
        // tear; that damages this and all later sections, since frame
        // boundaries are gone.
        let (name, len, crc) = match (|| {
            let name = cur.string()?;
            let len = cur.u64()?;
            if len > MAX_SECTION_LEN {
                return Err(SnapshotError::new(format!(
                    "implausible section length {len}"
                )));
            }
            let crc = cur.u32()?;
            Ok((name, len, crc))
        })() {
            Ok(frame) => frame,
            Err(e) => {
                outcomes.push(corrupt(
                    format!("#{index}"),
                    format!("section frame unreadable: {e}"),
                ));
                break;
            }
        };
        let payload = match cur.take(len as usize) {
            Ok(p) => p,
            Err(e) => {
                outcomes.push(corrupt(name, format!("payload truncated: {e}")));
                break;
            }
        };
        let actual = crc32(payload);
        if actual != crc {
            outcomes.push(corrupt(
                name,
                format!("crc mismatch: stored {crc:#010x}, computed {actual:#010x}"),
            ));
            continue;
        }
        if let Some(table_name) = name.strip_prefix(ANALYZE_PREFIX) {
            match decode_analyze_payload(payload) {
                Ok(table) => outcomes.push(SectionOutcome::Analysis(AnalyzeSection {
                    name: table_name.to_owned(),
                    table,
                })),
                Err(e) => outcomes.push(corrupt(name, format!("payload undecodable: {e}"))),
            }
            continue;
        }
        match decode_section_payload(payload) {
            Ok((axioms_text, export)) => outcomes.push(SectionOutcome::Restored(SessionSection {
                name,
                axioms_text,
                export,
            })),
            Err(e) => outcomes.push(corrupt(name, format!("payload undecodable: {e}"))),
        }
    }
    Ok((created_unix_ms, outcomes))
}

// ---------------------------------------------------------------------
// Atomic file I/O
// ---------------------------------------------------------------------

/// Current wall-clock time as unix milliseconds (0 if the clock is
/// before the epoch, which only matters cosmetically for snapshot age).
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Writes `snapshot` into `dir` atomically: temp file → fsync → rename
/// → directory fsync. Returns the published path and the byte count.
///
/// With a [`FaultPlan`], each step first consults the plan, and an
/// armed `torn=F` fault writes only fraction `F` of the bytes, skips
/// fsync, and renames anyway — materializing the exact on-disk state a
/// power loss after rename can leave.
///
/// # Errors
///
/// Any I/O failure (real or injected). On error the previously
/// published snapshot, if any, is untouched.
pub fn write_atomic(
    dir: &FsPath,
    snapshot: &Snapshot,
    faults: Option<&FaultPlan>,
) -> io::Result<(PathBuf, u64)> {
    fs::create_dir_all(dir)?;
    let bytes = encode(snapshot);
    let torn = faults.and_then(FaultPlan::take_torn_fraction);
    let write_len = match torn {
        Some(f) => ((bytes.len() as f64) * f) as usize,
        None => bytes.len(),
    };
    let tmp_path = dir.join(TMP_FILE);
    let final_path = dir.join(SNAP_FILE);
    {
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        for chunk in bytes[..write_len].chunks(WRITE_CHUNK.max(1)) {
            if let Some(plan) = faults {
                plan.check_write()?;
            }
            tmp.write_all(chunk)?;
        }
        if torn.is_none() {
            if let Some(plan) = faults {
                plan.check_fsync()?;
            }
            tmp.sync_all()?;
        }
    }
    if let Some(plan) = faults {
        plan.check_rename()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Make the rename itself durable. Failure here is not worth
    // surfacing: the data file is already synced and published.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok((final_path, bytes.len() as u64))
}

/// Reads the snapshot file from `dir`, removing any stale temp file a
/// crash mid-write left behind. Returns `None` when no snapshot exists.
///
/// # Errors
///
/// Any read failure (real or injected) other than the file being
/// absent.
pub fn read_snapshot_bytes(
    dir: &FsPath,
    faults: Option<&FaultPlan>,
) -> io::Result<Option<Vec<u8>>> {
    let tmp_path = dir.join(TMP_FILE);
    if tmp_path.exists() {
        // A leftover temp file is a crash artifact: never published, so
        // never trusted.
        let _ = fs::remove_file(&tmp_path);
    }
    let path = dir.join(SNAP_FILE);
    let mut file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if let Some(plan) = faults {
        plan.check_read()?;
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(Some(bytes))
}

/// Renders a human-readable summary of a snapshot file image, for
/// `apt snapshot inspect`. Corrupt sections are listed, not fatal.
///
/// # Errors
///
/// Returns a [`SnapshotError`] when the header itself is unreadable.
pub fn inspect(bytes: &[u8]) -> Result<String, SnapshotError> {
    use std::fmt::Write as _;
    let (created_unix_ms, outcomes) = decode(bytes)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "snapshot: version {VERSION}, {} bytes, created {created_unix_ms} (unix ms), {} section(s)",
        bytes.len(),
        outcomes.len()
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            SectionOutcome::Restored(s) => {
                let proved = s.export.goals.iter().filter(|g| g.proof.is_some()).count();
                let _ = writeln!(
                    out,
                    "  section {i} [{}]: ok — {} axiom bytes, {} goals ({} proved), {} subsets",
                    s.name,
                    s.axioms_text.len(),
                    s.export.goals.len(),
                    proved,
                    s.export.subsets.len()
                );
            }
            SectionOutcome::Analysis(a) => {
                let _ = writeln!(
                    out,
                    "  section {i} [analyze:{}]: ok — {} procedure(s), {} verdict(s)",
                    a.name,
                    a.table.procs().len(),
                    a.table.total_verdicts()
                );
            }
            SectionOutcome::Corrupt { name, reason } => {
                let _ = writeln!(out, "  section {i} [{name}]: CORRUPT — {reason}");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_core::Origin;

    fn sample_section() -> SessionSection {
        let goal = Goal::new(
            Origin::Same,
            Path::parse("L.L.N").unwrap(),
            Path::parse("L.R.N").unwrap(),
        );
        let proof = Proof {
            goal: goal.clone(),
            rule: Rule::HeadPeel { field: "L".into() },
            children: vec![Arc::new(Proof::leaf(
                goal.clone(),
                Rule::Axiom {
                    axiom: "A1".into(),
                    swapped: true,
                },
            ))],
        };
        let star_chain = Regex::concat(
            Regex::field("L"),
            Regex::star(Regex::alt(Regex::field("R"), Regex::field("N"))),
        );
        SessionSection {
            name: "s1".into(),
            axioms_text: "axiom A1: forall p, p.L* <> p.R ;".into(),
            export: CacheExport {
                goals: vec![
                    GoalEntry {
                        goal: goal.clone(),
                        proof: Some(proof),
                    },
                    GoalEntry { goal, proof: None },
                ],
                subsets: vec![SubsetEntry {
                    a: star_chain.clone(),
                    b: Regex::plus(star_chain),
                    holds: true,
                }],
            },
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            created_unix_ms: 1_700_000_000_000,
            sections: vec![sample_section()],
            analyses: Vec::new(),
        }
    }

    fn sample_analyze_section() -> AnalyzeSection {
        let goal = Goal::new(
            Origin::Same,
            Path::parse("link").unwrap(),
            Path::parse("link.link+").unwrap(),
        );
        let proof = Proof::leaf(
            goal,
            Rule::Axiom {
                axiom: "A2".into(),
                swapped: false,
            },
        );
        AnalyzeSection {
            name: "default".into(),
            table: DepTable::from_procs(vec![ProcVerdicts {
                proc_name: "update".into(),
                body_hash: 0xdead_beef_cafe_f00d,
                axioms_hash: 42,
                verdicts: vec![
                    StoredVerdict {
                        query: "carried U".into(),
                        answer: Answer::No,
                        proofs: vec![proof],
                        witness: None,
                    },
                    StoredVerdict {
                        query: "S vs T".into(),
                        answer: Answer::Yes,
                        proofs: Vec::new(),
                        witness: Some(Witness {
                            nodes: 3,
                            edges: vec![(0, "link".into(), 1), (1, "link".into(), 2)],
                            p_origin: 0,
                            q_origin: 0,
                            meet: 2,
                        }),
                    },
                ],
            }]),
        }
    }

    fn assert_roundtrips(snap: &Snapshot) {
        let bytes = encode(snap);
        let (created, outcomes) = decode(&bytes).unwrap();
        assert_eq!(created, snap.created_unix_ms);
        assert_eq!(outcomes.len(), snap.sections.len() + snap.analyses.len());
        // Session sections come first in file order; zip stops there.
        for (outcome, original) in outcomes.iter().zip(&snap.sections) {
            match outcome {
                SectionOutcome::Restored(s) => {
                    assert_eq!(s.name, original.name);
                    assert_eq!(s.axioms_text, original.axioms_text);
                    assert_eq!(s.export.goals.len(), original.export.goals.len());
                    for (a, b) in s.export.goals.iter().zip(&original.export.goals) {
                        assert_eq!(a.goal, b.goal);
                        match (&a.proof, &b.proof) {
                            (None, None) => {}
                            (Some(x), Some(y)) => {
                                assert_eq!(x.goal, y.goal);
                                assert_eq!(x.node_count(), y.node_count());
                            }
                            _ => panic!("proof presence did not round-trip"),
                        }
                    }
                    assert_eq!(s.export.subsets.len(), original.export.subsets.len());
                    for (a, b) in s.export.subsets.iter().zip(&original.export.subsets) {
                        assert_eq!(a.a, b.a);
                        assert_eq!(a.b, b.b);
                        assert_eq!(a.holds, b.holds);
                    }
                }
                SectionOutcome::Analysis(a) => {
                    panic!("session section [{}] decoded as analyze section", a.name)
                }
                SectionOutcome::Corrupt { reason, .. } => {
                    panic!("clean snapshot decoded as corrupt: {reason}")
                }
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        assert_roundtrips(&sample_snapshot());
        assert_roundtrips(&Snapshot::default());
    }

    #[test]
    fn analyze_sections_roundtrip_beside_sessions() {
        let snap = Snapshot {
            created_unix_ms: 7,
            sections: vec![sample_section()],
            analyses: vec![sample_analyze_section()],
        };
        let bytes = encode(&snap);
        let (_, outcomes) = decode(&bytes).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(outcomes[0], SectionOutcome::Restored(_)));
        let SectionOutcome::Analysis(restored) = &outcomes[1] else {
            panic!("analyze section did not decode: {:?}", outcomes[1]);
        };
        let original = sample_analyze_section();
        assert_eq!(restored.name, original.name);
        assert_eq!(restored.table.procs().len(), 1);
        let (got, want) = (&restored.table.procs()[0], &original.table.procs()[0]);
        assert_eq!(got.proc_name, want.proc_name);
        assert_eq!(got.body_hash, want.body_hash);
        assert_eq!(got.axioms_hash, want.axioms_hash);
        assert_eq!(got.verdicts.len(), want.verdicts.len());
        for (g, w) in got.verdicts.iter().zip(&want.verdicts) {
            assert_eq!(g.query, w.query);
            assert_eq!(g.answer, w.answer);
            assert_eq!(g.proofs.len(), w.proofs.len());
            for (gp, wp) in g.proofs.iter().zip(&w.proofs) {
                assert_eq!(gp.goal, wp.goal);
                assert_eq!(gp.node_count(), wp.node_count());
            }
            assert_eq!(g.witness, w.witness, "{}", g.query);
        }
        // Inspect names the table and its sizes.
        let report = inspect(&bytes).unwrap();
        assert!(report.contains("analyze:default"), "{report}");
        assert!(report.contains("2 verdict(s)"), "{report}");
    }

    #[test]
    fn corrupt_analyze_section_degrades_not_fails() {
        let snap = Snapshot {
            created_unix_ms: 7,
            sections: Vec::new(),
            analyses: vec![sample_analyze_section()],
        };
        let mut bytes = encode(&snap);
        let n = bytes.len();
        bytes[n - 2] ^= 0x10;
        let (_, outcomes) = decode(&bytes).unwrap();
        assert!(matches!(outcomes[0], SectionOutcome::Corrupt { .. }));
    }

    #[test]
    fn bit_flip_in_payload_corrupts_only_that_section() {
        let snap = Snapshot {
            created_unix_ms: 1,
            sections: vec![sample_section(), sample_section()],
            analyses: Vec::new(),
        };
        let mut bytes = encode(&snap);
        // Flip a byte near the end — inside the second section's payload.
        let n = bytes.len();
        bytes[n - 3] ^= 0x40;
        let (_, outcomes) = decode(&bytes).unwrap();
        assert!(matches!(outcomes[0], SectionOutcome::Restored(_)));
        assert!(matches!(outcomes[1], SectionOutcome::Corrupt { .. }));
    }

    #[test]
    fn truncation_degrades_not_fails() {
        let bytes = encode(&sample_snapshot());
        let (_, outcomes) = decode(&bytes[..bytes.len() / 2]).unwrap();
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, SectionOutcome::Corrupt { .. })));
    }

    #[test]
    fn bad_magic_and_version_fail_the_header() {
        let mut bytes = encode(&sample_snapshot());
        bytes[0] = b'X';
        assert!(decode(&bytes).is_err());

        let mut bytes = encode(&sample_snapshot());
        bytes[8] = 0xff; // version field
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn write_atomic_publishes_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("apt-snap-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (path, bytes) = write_atomic(&dir, &sample_snapshot(), None).unwrap();
        assert!(bytes > 0);
        assert!(path.ends_with(SNAP_FILE));
        assert!(!dir.join(TMP_FILE).exists());
        let read = read_snapshot_bytes(&dir, None).unwrap().unwrap();
        assert_eq!(read.len() as u64, bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_detected_on_read() {
        let dir = std::env::temp_dir().join(format!("apt-snap-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let plan = FaultPlan::parse("torn=0.5").unwrap();
        write_atomic(&dir, &sample_snapshot(), Some(&plan)).unwrap();
        let read = read_snapshot_bytes(&dir, None).unwrap().unwrap();
        // The torn file decodes (header survives) but every section is
        // rejected — warmth lost, correctness intact.
        let (_, outcomes) = decode(&read).unwrap();
        assert!(!outcomes.is_empty());
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, SectionOutcome::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_renders_ok_and_corrupt() {
        let bytes = encode(&sample_snapshot());
        let report = inspect(&bytes).unwrap();
        assert!(report.contains("ok"));
        let mut broken = bytes.clone();
        let n = broken.len();
        broken[n - 1] ^= 1;
        let report = inspect(&broken).unwrap();
        assert!(report.contains("CORRUPT"));
    }
}
