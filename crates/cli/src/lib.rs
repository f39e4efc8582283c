//! The `apt` command-line tool: run the APT dependence test from the
//! shell.
//!
//! ```text
//! apt prove  <axioms-file> <path1> <path2> [--distinct | --unknown]
//! apt apm    <program-file> --proc <name>
//! apt query  <program-file> --proc <name> --from <S> --to <T>
//! apt query  <program-file> --proc <name> --carried <U> [--loop <L>]
//! apt report <program-file> [--proc <name>]
//! apt batch  <program-file> [--proc <name>] [--jobs <n>]
//! apt analyze <program-file> [--baseline <file>] [--changed-only]
//! ```
//!
//! Every proving subcommand accepts resource-governance flags
//! (`--fuel <n>`, `--deadline-ms <n>`, `--max-dfa-states <n>`); running
//! out of any budget degrades the answer to an explicit Maybe — it never
//! crashes and never flips a verdict. Exit codes: `0` when every answer
//! was definite, `1` when some answer was Maybe (degraded or genuinely
//! unknown), `2` on usage or parse errors.
//!
//! Axiom files are either ADDS descriptions (`structure … { tree L, R; }`)
//! or one axiom per line (`A1: forall p, p.L <> p.R`); the format is
//! auto-detected. Program files use the `apt-ir` mini language.
//!
//! The library half exists so the subcommands are unit-testable; `main`
//! is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use apt_axioms::{adds, AxiomSet};
use apt_core::{
    check_proof, Answer, Budget, DepEngine, DepQuery, EngineKind, EngineSelection, MaybeReason,
    Origin, Portfolio, PortfolioConfig, PortfolioStats, ProverConfig, ProverStats, TallySink,
};
use apt_paths::{
    analyze_proc, analyze_program, Analysis, BatchOptions, BatchQuery, DepTable, ProgramAnalysis,
    QueryError, RowOutcome,
};
use apt_regex::Path;
use apt_serve::json::{obj, Json};
use apt_serve::{
    AnalyzeSection, Client, SectionOutcome, ServeConfig, Server, SessionSection, Snapshot,
};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A CLI failure: message for stderr, nonzero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The result of a successfully-dispatched subcommand: the text to print
/// plus whether any answer fell back to Maybe (which drives the exit
/// code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// Whether any query answered Maybe — degraded or genuinely unknown.
    pub any_maybe: bool,
}

impl CmdOutput {
    fn clean(text: String) -> CmdOutput {
        CmdOutput {
            text,
            any_maybe: false,
        }
    }

    /// Process exit code: `0` when every answer was definite, `1` when
    /// some answer was Maybe. (Usage/parse errors exit `2` via
    /// [`CliError`].)
    pub fn exit_code(&self) -> i32 {
        i32::from(self.any_maybe)
    }
}

impl std::ops::Deref for CmdOutput {
    type Target = String;
    fn deref(&self) -> &String {
        &self.text
    }
}

impl std::fmt::Display for CmdOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

#[doc(hidden)]
pub mod test_support {
    //! Internal fault-injection hooks for the robustness tests. Not part
    //! of the public interface.
    use std::cell::RefCell;

    thread_local! {
        static PANIC_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// Makes the per-loop report query for `label` panic (on this thread
    /// only). Pass `None` to clear.
    pub fn inject_report_panic(label: Option<&str>) {
        PANIC_LABEL.with(|c| *c.borrow_mut() = label.map(str::to_owned));
    }

    pub(crate) fn should_panic_for(label: &str) -> bool {
        PANIC_LABEL.with(|c| c.borrow().as_deref() == Some(label))
    }
}

/// Portfolio options shared by the proving subcommands: the engine
/// roster every query runs through (the axiomatic prover alone unless
/// `--engines` widens it) plus the tally sink every engine run reports
/// into, so one command's queries aggregate into one set of totals.
#[derive(Debug, Clone)]
pub struct PortfolioOpts {
    config: PortfolioConfig,
    tallies: TallySink,
}

impl Default for PortfolioOpts {
    fn default() -> PortfolioOpts {
        PortfolioOpts::off()
    }
}

impl PortfolioOpts {
    /// Parses `--engines <all|comma-list>` and `--refuter-max-heap <n>`.
    /// `--refuter-max-heap` without `--engines` implies `--engines all`.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] on a malformed flag value.
    pub fn from_flags(args: &[String]) -> Result<PortfolioOpts, CliError> {
        let value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        };
        let engines = match value("--engines") {
            Some(spec) => {
                Some(EngineSelection::parse(spec).map_err(|e| fail(format!("--engines: {e}")))?)
            }
            None => None,
        };
        let max_heap = match value("--refuter-max-heap") {
            Some(v) => Some(v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                fail(format!(
                    "--refuter-max-heap needs a positive integer, got {v:?}"
                ))
            })?),
            None => None,
        };
        let mut config = match (engines, max_heap) {
            (None, None) => PortfolioConfig::axiomatic_only(),
            _ => PortfolioConfig::default(),
        };
        if let Some(sel) = engines {
            config.engines = sel;
        }
        if let Some(heap) = max_heap {
            config.refuter_max_heap = heap;
        }
        Ok(PortfolioOpts {
            config,
            tallies: TallySink::new(),
        })
    }

    /// The axiomatic prover alone (the default).
    pub fn off() -> PortfolioOpts {
        PortfolioOpts {
            config: PortfolioConfig::axiomatic_only(),
            tallies: TallySink::new(),
        }
    }

    /// The parsed configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Whether the roster reaches past the axiomatic prover alone. Only
    /// then does output name the settling engine and print the
    /// per-engine footer; the axiomatic-only output is the
    /// pre-portfolio one.
    fn widened(&self) -> bool {
        self.config.engines != EngineSelection::axiomatic_only()
    }

    fn apply(&self, analysis: &mut Analysis) {
        analysis.set_portfolio_config(self.config.clone());
        analysis.set_portfolio_tallies(self.tallies.clone());
    }

    fn apply_program(&self, analysis: &mut ProgramAnalysis) {
        analysis.set_portfolio_config(self.config.clone());
        analysis.set_portfolio_tallies(&self.tallies);
    }

    fn stats(&self) -> Option<PortfolioStats> {
        self.widened().then(|| self.tallies.stats())
    }
}

/// Renders the per-engine run tallies (the `apt report` / `apt batch`
/// portfolio footer): each engine run counts once, as a win or a loss.
fn render_portfolio_stats(out: &mut String, stats: &PortfolioStats) {
    let _ = writeln!(out, "-- portfolio: engine runs --");
    for kind in EngineKind::ALL {
        let t = stats.tally(kind);
        let _ = writeln!(
            out,
            "{:<10} {} won, {} lost, {} cancelled",
            kind.code(),
            t.wins,
            t.losses,
            t.cancelled
        );
    }
    let _ = writeln!(out, "(dependence witnesses found: {})", stats.witnesses);
}

/// Parses an axiom file: ADDS syntax if any line starts with an ADDS
/// keyword, otherwise one axiom per line.
///
/// # Errors
///
/// Returns a [`CliError`] describing the parse failure.
pub fn load_axioms(text: &str) -> Result<AxiomSet, CliError> {
    adds::parse_axioms_auto(text).map_err(|e| fail(e.to_string()))
}

/// `apt prove`: tests two access paths under an axiom set.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input.
pub fn cmd_prove(
    axioms_text: &str,
    path_a: &str,
    path_b: &str,
    origin: Origin,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<CmdOutput, CliError> {
    let axioms = load_axioms(axioms_text)?;
    let a = Path::parse(path_a).map_err(|e| fail(e.to_string()))?;
    let b = Path::parse(path_b).map_err(|e| fail(e.to_string()))?;
    let mut out = String::new();
    let mut any_maybe = false;
    let _ = writeln!(out, "axioms:\n{axioms}");
    let widened = portfolio.widened();
    if widened {
        let _ = writeln!(out, "engines: {}", portfolio.config.engines);
    }
    let runner = Portfolio::new(
        DepEngine::with_config(axioms, config.clone()),
        portfolio.config.clone(),
    )
    .with_tallies(&portfolio.tallies);
    let axioms = runner.engine().axioms();
    let outcome = runner.run(&DepQuery::disjoint(&a, &b).origin(origin));
    match outcome.verdict.answer {
        Answer::No => {
            // Every engine-issued No comes from the axiomatic prover,
            // with a proof that is re-checked before it is printed.
            let proof = outcome
                .proof
                .as_ref()
                .ok_or_else(|| fail("internal: a No without a proof"))?;
            check_proof(axioms, proof).map_err(|e| fail(format!("internal: {e}")))?;
            let quant = match origin {
                Origin::Same => "forall x",
                Origin::Distinct => "forall x <> y",
            };
            let engine = if widened {
                format!(", engine: {}", outcome.engine)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{quant}: x.{a} <> y-or-x.{b} — No dependence (PROVEN{engine})"
            );
            let _ = writeln!(out, "\n{proof}");
            let stats = &outcome.stats;
            let _ = writeln!(
                out,
                "({} goals, {} subset checks, proof of {} nodes, checked)",
                stats.goals_attempted,
                stats.subset_checks,
                proof.node_count()
            );
            let _ = writeln!(
                out,
                "(dispatch: {} admitted, {} pruned; {} negative-memo hits)",
                stats.dispatch_hits, stats.dispatch_misses, stats.neg_memo_hits
            );
        }
        Answer::Yes => {
            let _ = writeln!(
                out,
                "{a} <> {b}: Yes — dependence exists (engine: {})",
                outcome.engine
            );
            if let Some(witness) = &outcome.witness {
                witness
                    .validate(axioms, origin, &a, &b)
                    .map_err(|e| fail(format!("internal: witness rejected: {e}")))?;
                let _ = writeln!(out, "witness: {witness} (re-validated)");
            }
        }
        Answer::Maybe => {
            any_maybe = true;
            let why = outcome
                .verdict
                .reason
                .unwrap_or(MaybeReason::GenuinelyUnknown);
            let _ = writeln!(out, "{a} <> {b}: Maybe ({why})");
            if why.is_degraded() {
                let _ = writeln!(
                    out,
                    "(resource limit reached — retry with a larger \
                     --fuel / --deadline-ms / --max-dfa-states)"
                );
            }
        }
    }
    Ok(CmdOutput {
        text: out,
        any_maybe,
    })
}

fn analyze(
    program_text: &str,
    proc_name: Option<&str>,
    config: &ProverConfig,
) -> Result<(String, Analysis), CliError> {
    let program = apt_ir::parse_program(program_text).map_err(|e| fail(e.to_string()))?;
    let name = match proc_name {
        Some(n) => n.to_owned(),
        None => program
            .procs
            .first()
            .map(|p| p.name.clone())
            .ok_or_else(|| fail("program has no procedures"))?,
    };
    let analysis =
        analyze_proc(&program, &name).map_err(|e| fail(format!("cannot analyze {name:?}: {e}")))?;
    Ok((name, analysis.with_prover_config(config.clone())))
}

/// `apt apm`: prints the access-path matrix at every labeled access.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input.
pub fn cmd_apm(program_text: &str, proc_name: Option<&str>) -> Result<CmdOutput, CliError> {
    let (name, analysis) = analyze(program_text, proc_name, &ProverConfig::default())?;
    let mut out = String::new();
    let _ = writeln!(out, "procedure {name}: access-path matrices\n");
    for snap in analysis.snapshots() {
        let kind = if snap.access.is_write {
            "write"
        } else {
            "read"
        };
        let _ = writeln!(
            out,
            "-- {}: {} of {}->{} --",
            snap.label, kind, snap.access.ptr, snap.access.field
        );
        let _ = writeln!(out, "{}", snap.apm);
    }
    if analysis.labels().is_empty() {
        let _ = writeln!(out, "(no labeled memory accesses)");
    }
    Ok(CmdOutput::clean(out))
}

/// Renders an outcome; returns whether it was a Maybe.
fn render_outcome(out: &mut String, outcome: &apt_core::TestOutcome) -> bool {
    let _ = writeln!(out, "answer: {}", outcome.verdict());
    if let Some(engine) = outcome.engine {
        if engine != EngineKind::Axiomatic {
            let _ = writeln!(out, "(settled by the {engine} engine)");
        }
    }
    if let Some(witness) = &outcome.witness {
        let _ = writeln!(out, "witness: {witness}");
    }
    for proof in &outcome.proofs {
        let _ = writeln!(out, "\n{proof}");
    }
    outcome.answer == Answer::Maybe
}

/// `apt query --from S --to T`: a sequential dependence query.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input or unknown labels.
pub fn cmd_query_sequential(
    program_text: &str,
    proc_name: Option<&str>,
    from: &str,
    to: &str,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<CmdOutput, CliError> {
    let (name, mut analysis) = analyze(program_text, proc_name, config)?;
    portfolio.apply(&mut analysis);
    let mut out = String::new();
    let mut any_maybe = true;
    let _ = writeln!(out, "procedure {name}: is {to} dependent on {from}?");
    match analysis.test_sequential(from, to) {
        Ok(outcome) => any_maybe = render_outcome(&mut out, &outcome),
        Err(e) => {
            let _ = writeln!(out, "answer: Maybe ({e})");
        }
    }
    Ok(CmdOutput {
        text: out,
        any_maybe,
    })
}

/// `apt query --carried U`: a loop-carried self-dependence query.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input or unknown labels.
pub fn cmd_query_carried(
    program_text: &str,
    proc_name: Option<&str>,
    label: &str,
    loop_label: Option<&str>,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<CmdOutput, CliError> {
    let (name, mut analysis) = analyze(program_text, proc_name, config)?;
    portfolio.apply(&mut analysis);
    let mut out = String::new();
    let mut any_maybe = true;
    match analysis.loop_carried_pair(label, loop_label) {
        Ok((ri, rj)) => {
            let _ = writeln!(
                out,
                "procedure {name}: loop-carried {label} (iteration i: {ri}, iteration j: {rj})"
            );
        }
        Err(e) => {
            let _ = writeln!(out, "procedure {name}: loop-carried {label}: Maybe ({e})");
            return Ok(CmdOutput {
                text: out,
                any_maybe,
            });
        }
    }
    match analysis.test_loop_carried(label, loop_label) {
        Ok(outcome) => any_maybe = render_outcome(&mut out, &outcome),
        Err(e) => {
            let _ = writeln!(out, "answer: Maybe ({e})");
        }
    }
    Ok(CmdOutput {
        text: out,
        any_maybe,
    })
}

/// One line of the parallelization report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportLine {
    /// The labeled statement.
    pub label: String,
    /// Loop nesting depth at the statement.
    pub loop_depth: usize,
    /// The loop-carried answer, if the statement sits in a loop.
    pub carried: Option<Answer>,
    /// For a Maybe: why (degradation pedigree, or genuinely unknown).
    pub maybe: Option<MaybeReason>,
    /// Whether the query panicked (isolated; counted as a Maybe).
    pub panicked: bool,
    /// Wall-clock budget spent on this label's query, in microseconds.
    pub micros: u128,
    /// Prover work counters for this label's query.
    pub stats: ProverStats,
}

/// One loop-carried query under its own sub-budget, panic-isolated: a
/// crash in the prover (or an injected test fault) degrades this one
/// line to Maybe instead of taking down the whole report.
fn carried_line(analysis: &Analysis, label: &str, sub: &ProverConfig) -> ReportLine {
    let depth = analysis.snapshot(label).map_or(0, |s| s.loops.len());
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if test_support::should_panic_for(label) {
            panic!("injected report fault for {label}");
        }
        let mut scoped = analysis.clone();
        scoped.set_prover_config(sub.clone());
        scoped.test_loop_carried(label, None)
    }));
    let micros = started.elapsed().as_micros();
    let (carried, maybe, panicked, stats) = match result {
        Ok(Ok(outcome)) => (Some(outcome.answer), outcome.maybe, false, outcome.stats),
        Ok(Err(
            QueryError::NoCommonAnchor | QueryError::NotInLoop(_) | QueryError::NoSuchLabel(_),
        )) => (
            Some(Answer::Maybe),
            Some(MaybeReason::GenuinelyUnknown),
            false,
            ProverStats::default(),
        ),
        Err(_) => (Some(Answer::Maybe), None, true, ProverStats::default()),
    };
    ReportLine {
        label: label.to_owned(),
        loop_depth: depth,
        carried,
        maybe,
        panicked,
        micros,
        stats,
    }
}

/// Splits the report's overall deadline evenly across its loop queries,
/// so one adversarial loop cannot starve the others.
fn sub_config(config: &ProverConfig, queries: usize) -> ProverConfig {
    let mut sub = config.clone();
    if let (Some(total), true) = (sub.budget.deadline, queries > 1) {
        sub.budget.deadline = Some(total / u32::try_from(queries).unwrap_or(u32::MAX));
    }
    sub
}

/// Computes the loop-parallelization report for one procedure: every
/// labeled access inside a loop gets a loop-carried dependence test
/// under its own sub-budget and panic isolation.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input.
pub fn report_lines(
    program_text: &str,
    proc_name: Option<&str>,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<Vec<ReportLine>, CliError> {
    let (_name, mut analysis) = analyze(program_text, proc_name, config)?;
    portfolio.apply(&mut analysis);
    Ok(lines_of(&analysis, config))
}

/// [`report_lines`] over an analysis already configured with `config`
/// and the report's roster.
fn lines_of(analysis: &Analysis, config: &ProverConfig) -> Vec<ReportLine> {
    let in_loop = analysis.snapshots().filter(|s| !s.loops.is_empty()).count();
    let sub = sub_config(config, in_loop);
    let mut lines = Vec::new();
    for snap in analysis.snapshots() {
        if snap.loops.is_empty() {
            lines.push(ReportLine {
                label: snap.label.clone(),
                loop_depth: 0,
                carried: None,
                maybe: None,
                panicked: false,
                micros: 0,
                stats: ProverStats::default(),
            });
        } else {
            lines.push(carried_line(analysis, &snap.label, &sub));
        }
    }
    lines
}

/// Renders the report for one procedure; returns whether any answer was
/// Maybe.
fn report_proc(
    program_text: &str,
    name: &str,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
    out: &mut String,
) -> Result<bool, CliError> {
    let (_name, mut analysis) = analyze(program_text, Some(name), config)?;
    portfolio.apply(&mut analysis);
    let lines = lines_of(&analysis, config);
    let mut any_maybe = false;
    let _ = writeln!(out, "== parallelization report: procedure {name} ==");
    let _ = writeln!(
        out,
        "{:<14} {:<26} {:<6} innermost loop-carried dependence",
        "label", "access", "depth"
    );
    for line in &lines {
        let access = match analysis.snapshot(&line.label) {
            Some(snap) => format!(
                "{}{}->{}",
                if snap.access.is_write {
                    "write "
                } else {
                    "read  "
                },
                snap.access.ptr,
                snap.access.field
            ),
            None => "?".to_owned(),
        };
        let verdict = match line.carried {
            None => "- (not in a loop)".to_owned(),
            Some(Answer::No) => format!("No  -> PARALLELIZABLE [{} us]", line.micros),
            Some(Answer::Yes) => format!("Yes -> keep sequential [{} us]", line.micros),
            Some(Answer::Maybe) => {
                any_maybe = true;
                let why = if line.panicked {
                    "internal error: query panicked".to_owned()
                } else {
                    line.maybe
                        .unwrap_or(MaybeReason::GenuinelyUnknown)
                        .to_string()
                };
                format!("Maybe ({why}) -> keep sequential [{} us]", line.micros)
            }
        };
        let _ = writeln!(
            out,
            "{:<14} {:<26} {:<6} {}",
            line.label, access, line.loop_depth, verdict
        );
    }
    if lines.is_empty() {
        let _ = writeln!(out, "(no labeled memory accesses)");
        return Ok(false);
    }
    let mut work = ProverStats::default();
    for line in &lines {
        work.merge(&line.stats);
    }
    let degraded = lines
        .iter()
        .filter(|l| l.panicked || l.maybe.is_some_and(|m| m.is_degraded()))
        .count();
    if degraded > 0 {
        let spent: u128 = lines.iter().map(|l| l.micros).sum();
        let _ = writeln!(
            out,
            "({degraded} degraded answer(s); {spent} us spent across {} loop queries)",
            lines.iter().filter(|l| l.carried.is_some()).count()
        );
    }

    // Pairwise conflicts between labeled accesses (at least one a write).
    let labels: Vec<String> = lines.iter().map(|l| l.label.clone()).collect();
    let mut pair_lines = Vec::new();
    for (i, a) in labels.iter().enumerate() {
        for b in labels.iter().skip(i + 1) {
            let (Some(sa), Some(sb)) = (analysis.snapshot(a), analysis.snapshot(b)) else {
                continue;
            };
            if !(sa.access.is_write || sb.access.is_write) {
                continue;
            }
            let verdict = match analysis.test_sequential(a, b) {
                Ok(o) => {
                    any_maybe = o.answer == Answer::Maybe || any_maybe;
                    work.merge(&o.stats);
                    o.verdict().to_string()
                }
                Err(_) => {
                    any_maybe = true;
                    "Maybe (no common anchor)".to_owned()
                }
            };
            pair_lines.push(format!("{a:<14} vs {b:<14} {verdict}"));
        }
    }
    if !pair_lines.is_empty() {
        let _ = writeln!(out, "-- pairwise conflicts (>=1 write) --");
        for l in pair_lines {
            let _ = writeln!(out, "{l}");
        }
    }
    let _ = writeln!(
        out,
        "(dispatch: {} admitted, {} pruned; {} negative-memo hits)",
        work.dispatch_hits, work.dispatch_misses, work.neg_memo_hits
    );
    Ok(any_maybe)
}

/// `apt report`: renders the parallelization report — for one procedure,
/// or for every procedure when none is named.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input.
pub fn cmd_report(
    program_text: &str,
    proc_name: Option<&str>,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<CmdOutput, CliError> {
    let program = apt_ir::parse_program(program_text).map_err(|e| fail(e.to_string()))?;
    let names: Vec<String> = match proc_name {
        Some(n) => vec![n.to_owned()],
        None => program.procs.iter().map(|p| p.name.clone()).collect(),
    };
    if names.is_empty() {
        return Err(fail("program has no procedures"));
    }
    let mut out = String::new();
    let mut any_maybe = false;
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out);
        }
        any_maybe |= report_proc(program_text, name, config, portfolio, &mut out)?;
    }
    if let Some(stats) = portfolio.stats() {
        render_portfolio_stats(&mut out, &stats);
    }
    let mem = apt_core::MemorySample::take();
    let _ = writeln!(
        out,
        "(memory: arena {} nodes / {} bytes{}; peak rss {})",
        mem.arena.live_nodes,
        mem.arena.live_bytes,
        if mem.arena.freed_total > 0 {
            format!(", {} freed", mem.arena.freed_total)
        } else {
            String::new()
        },
        match mem.peak_rss_kb {
            Some(kb) => format!("{kb} kb"),
            None => "unavailable".to_owned(),
        }
    );
    Ok(CmdOutput {
        text: out,
        any_maybe,
    })
}

/// `apt batch`: runs the full report workload (loop-carried queries plus
/// pairwise write conflicts) through the batched dependence engine, fanned
/// out over `jobs` worker threads with a shared proof cache. For one
/// procedure, or for every procedure when none is named.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input.
pub fn cmd_batch(
    program_text: &str,
    proc_name: Option<&str>,
    jobs: usize,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<CmdOutput, CliError> {
    let program = apt_ir::parse_program(program_text).map_err(|e| fail(e.to_string()))?;
    let names: Vec<String> = match proc_name {
        Some(n) => vec![n.to_owned()],
        None => program.procs.iter().map(|p| p.name.clone()).collect(),
    };
    if names.is_empty() {
        return Err(fail("program has no procedures"));
    }
    let mut out = String::new();
    let mut any_maybe = false;
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            let _ = writeln!(out);
        }
        let (_name, mut analysis) = analyze(program_text, Some(name), config)?;
        portfolio.apply(&mut analysis);
        let queries = analysis.all_queries();
        let _ = writeln!(
            out,
            "== batch: procedure {name} ({} queries, {jobs} jobs) ==",
            queries.len()
        );
        if queries.is_empty() {
            let _ = writeln!(out, "(no labeled memory accesses)");
            continue;
        }
        let batch = analysis.run_batch(&queries, &BatchOptions::new().with_jobs(jobs));
        let (results, cache) = (batch.results, batch.cache);
        let mut work = ProverStats::default();
        for (query, result) in queries.iter().zip(results) {
            let what = match query {
                BatchQuery::LoopCarried { label, .. } => format!("carried {label}"),
                BatchQuery::Sequential { from, to } => format!("{from} vs {to}"),
            };
            let verdict = match result {
                Ok(outcome) => {
                    any_maybe |= outcome.answer == Answer::Maybe;
                    work.merge(&outcome.stats);
                    outcome.verdict().to_string()
                }
                Err(e) => {
                    any_maybe = true;
                    format!("Maybe ({e})")
                }
            };
            let _ = writeln!(out, "{what:<30} {verdict}");
        }
        let _ = writeln!(
            out,
            "(dispatch: {} admitted, {} pruned; {} negative-memo hits)",
            work.dispatch_hits, work.dispatch_misses, work.neg_memo_hits
        );
        let _ = writeln!(
            out,
            "(cache: {} proved / {} failed goals, {} subset memos; \
             dfas: {} raw [{} states] -> {} minimized [{} states])",
            cache.proved_goals,
            cache.failed_goals,
            cache.subset_results,
            cache.dfas,
            cache.raw_dfa_states,
            cache.min_dfas,
            cache.min_dfa_states
        );
    }
    if let Some(stats) = portfolio.stats() {
        render_portfolio_stats(&mut out, &stats);
    }
    Ok(CmdOutput {
        text: out,
        any_maybe,
    })
}

/// What `--baseline` recovered from disk: the table to replay from (if
/// one named `default` was present and decodable) plus every other
/// decodable section, carried through so a rewrite never sheds them.
struct Baseline {
    table: Option<DepTable>,
    sessions: Vec<SessionSection>,
    other_analyses: Vec<AnalyzeSection>,
}

/// Reads a `--baseline` file through the snapshot codec. Every failure
/// mode — missing file, bad header, corrupt sections — degrades to a
/// cold (empty) baseline: a damaged table costs warmth, never a verdict.
fn load_baseline(path: &str) -> Baseline {
    let mut baseline = Baseline {
        table: None,
        sessions: Vec::new(),
        other_analyses: Vec::new(),
    };
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(_) => return baseline, // first run: nothing persisted yet
    };
    let outcomes = match apt_serve::snapshot::decode(&bytes) {
        Ok((_, outcomes)) => outcomes,
        Err(e) => {
            eprintln!("apt analyze: baseline {path} unusable ({e}); analyzing cold");
            return baseline;
        }
    };
    for outcome in outcomes {
        match outcome {
            SectionOutcome::Analysis(a) if a.name == "default" => baseline.table = Some(a.table),
            SectionOutcome::Analysis(a) => baseline.other_analyses.push(a),
            SectionOutcome::Restored(s) => baseline.sessions.push(s),
            SectionOutcome::Corrupt { name, reason } => {
                eprintln!("apt analyze: baseline section [{name}] corrupt ({reason}); dropped");
            }
        }
    }
    baseline
}

/// Writes the refreshed table (plus whatever else the baseline file
/// held) back through the snapshot codec, atomically.
fn save_baseline(path: &str, table: DepTable, rest: Baseline) -> Result<(), CliError> {
    let mut analyses = rest.other_analyses;
    analyses.push(AnalyzeSection {
        name: "default".to_owned(),
        table,
    });
    analyses.sort_by(|a, b| a.name.cmp(&b.name));
    let snap = Snapshot {
        created_unix_ms: apt_serve::snapshot::unix_ms_now(),
        sections: rest.sessions,
        analyses,
    };
    let bytes = apt_serve::snapshot::encode(&snap);
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| fail(format!("cannot write {tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| fail(format!("cannot rename {tmp} -> {path}: {e}")))
}

/// `apt analyze`: whole-program incremental dependence analysis. Every
/// procedure's full query workload runs through the batched engine; with
/// `--baseline <file>`, verdicts persisted by a previous run replay for
/// procedures whose content hashes (body + reachable callees + axioms)
/// are unchanged, and the refreshed table is written back to the file.
///
/// `changed_only` trims the *printout* to procedures that did prover
/// work; totals and the exit code still cover every procedure, so a
/// `--changed-only` run agrees with a cold one on exit status.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed input or an unwritable baseline.
pub fn cmd_analyze(
    program_text: &str,
    baseline_path: Option<&str>,
    jobs: usize,
    changed_only: bool,
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<CmdOutput, CliError> {
    let program = apt_ir::parse_program(program_text).map_err(|e| fail(e.to_string()))?;
    if program.procs.is_empty() {
        return Err(fail("program has no procedures"));
    }
    let baseline = match baseline_path {
        Some(path) => load_baseline(path),
        None => Baseline {
            table: None,
            sessions: Vec::new(),
            other_analyses: Vec::new(),
        },
    };
    let mut analysis = analyze_program(&program).with_prover_config(config.clone());
    portfolio.apply_program(&mut analysis);
    let report = analysis.run(
        baseline.table.as_ref(),
        &BatchOptions::new().with_jobs(jobs),
    );

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== analyze: {} procedure(s), {} jobs ==",
        report.procs.len(),
        jobs
    );
    for proc in &report.procs {
        if changed_only && proc.reproved == 0 {
            continue;
        }
        let how = if proc.reused { "incremental" } else { "cold" };
        let _ = writeln!(
            out,
            "procedure {} [{how}: {} replayed, {} reproved]",
            proc.name, proc.replayed, proc.reproved
        );
        for row in &proc.rows {
            let verdict = match &row.outcome {
                RowOutcome::Error(e) => format!("Maybe ({e})"),
                outcome => {
                    let suffix = if outcome.is_replayed() {
                        " (replayed)"
                    } else {
                        ""
                    };
                    format!("{}{suffix}", outcome.answer())
                }
            };
            let _ = writeln!(out, "  {:<30} {verdict}", row.key);
        }
    }
    let _ = writeln!(
        out,
        "totals: {} queries — {} replayed, {} reproved; {}/{} procedures reused",
        report.total_queries(),
        report.replayed(),
        report.reproved(),
        report.procs_reused(),
        report.procs.len()
    );
    let any_maybe = report.any_maybe();
    if let Some(stats) = portfolio.stats() {
        render_portfolio_stats(&mut out, &stats);
    }
    if let Some(path) = baseline_path {
        save_baseline(path, report.table, baseline)?;
        let _ = writeln!(out, "(table persisted to {path})");
    }
    Ok(CmdOutput {
        text: out,
        any_maybe,
    })
}

/// Usage text.
pub const USAGE: &str = "\
apt — the axiom-based pointer dependence test (PLDI 1994 reproduction)

USAGE:
  apt prove  <axioms-file> <path1> <path2> [--distinct | --unknown]
  apt apm    <program-file> [--proc <name>]
  apt query  <program-file> [--proc <name>] --from <S> --to <T>
  apt query  <program-file> [--proc <name>] --carried <U> [--loop <L>]
  apt report <program-file> [--proc <name>]
  apt batch  <program-file> [--proc <name>] [--jobs <n>]
  apt analyze <program-file> [--baseline <file>] [--changed-only]
              [--jobs <n>]
  apt serve  [--addr <host:port>] [--socket <path>] [--workers <n>]
             [--high-water <n>] [--max-sessions <m>]
             [--max-connections <n>] [--snapshot-dir <dir>]
             [--snapshot-interval-ms <n>] [--idle-timeout-ms <n>]
             [--fault-plan <spec>]
  apt client (--addr <host:port> | --socket <path>) <verb> …
      verbs: open <axioms-file> | prove <session> <p1> <p2> [--distinct]
             [--engines <spec>]
             analyze <program-file> [--name <t>] [--changed-only]
             invalidate [<proc>] [--name <t>] | hello
             stats | health | ready | shutdown | raw '<json-frame>'
  apt snapshot inspect <file>

PORTFOLIO FLAGS (prove / query / report / batch / analyze; on `serve`
they set the server's default engine roster):
  --engines <spec>        the engines a query may use: 'all', or a comma
                          list of axiomatic, refuter. The axiomatic
                          prover alone is the default; it answers
                          definite No with a checked proof. refuter
                          answers definite Yes with a concrete witness
                          heap (re-validated before it is believed), and
                          runs only on queries the prover leaves Maybe.
  --refuter-max-heap <n>  largest candidate heap the refuter enumerates,
                          in nodes (default 8); implies --engines all
                          when --engines is absent

ANALYZE (whole-program incremental mode):
  Runs every procedure's full dependence workload. With --baseline, the
  table persisted by the previous run replays the definite verdicts of
  procedures whose content hashes (own body + transitively reachable
  callees + axiom set) are unchanged — only edited procedures re-prove —
  and the refreshed table is written back. --changed-only trims the
  printout to procedures that did prover work; the exit code still
  covers everything, so it agrees with a cold run's.

SERVE PERSISTENCE FLAGS:
  --snapshot-dir <dir>         persist warm state (compiled axiom sets +
                               definite proof/subset caches) to
                               <dir>/apt-serve.snap; restored on startup
  --snapshot-interval-ms <n>   background flush period (default: only on
                               graceful shutdown)
  --idle-timeout-ms <n>        per-connection read deadline (default
                               120000; 0 disables)
  --max-connections <n>        concurrent connections admitted (default:
                               the process fd limit minus 512 headroom;
                               raise `ulimit -n` before raising this).
                               Connections past the cap get an
                               'overloaded' error frame, not a hang
  --fault-plan <spec>          DEV ONLY — inject snapshot I/O faults,
                               e.g. 'write_err=2,torn=0.5,fsync_err'

RESOURCE FLAGS (prove / query / report / batch; on `serve` they set the
per-request budget ceiling, on `client prove` the request's overrides):
  --fuel <n>            goal attempts per query (default 100000)
  --deadline-ms <n>     wall-clock budget per command; `report` splits it
                        evenly across its loop queries
  --max-dfa-states <n>  DFA states any one subset construction may build

Exhausting any budget degrades the affected answer to an explicit
'Maybe (<reason>)' — it never crashes and never flips a Yes/No.

EXIT CODES:
  0  every answer definite     1  some answer Maybe (degraded or unknown)
  2  usage or parse error

Axiom files hold either an ADDS description (structure { tree L, R; … })
or one 'forall …' axiom per line. Program files use the mini pointer
language (see the repository README).";

/// Parses the shared resource-governance flags into a [`ProverConfig`].
///
/// # Errors
///
/// Returns a [`CliError`] on a malformed flag value.
fn config_from_flags(args: &[String]) -> Result<ProverConfig, CliError> {
    let parse_u64 = |flag: &str| -> Result<Option<u64>, CliError> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let v = args
            .get(i + 1)
            .ok_or_else(|| fail(format!("{flag} needs a value")))?;
        v.parse::<u64>()
            .map(Some)
            .map_err(|_| fail(format!("{flag} needs a non-negative integer, got {v:?}")))
    };
    let mut budget = Budget::new();
    if let Some(fuel) = parse_u64("--fuel")? {
        budget = budget.with_fuel(fuel);
    }
    if let Some(ms) = parse_u64("--deadline-ms")? {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(states) = parse_u64("--max-dfa-states")? {
        let states = usize::try_from(states)
            .map_err(|_| fail("--max-dfa-states value does not fit in usize"))?;
        budget = budget.with_max_dfa_states(states);
    }
    Ok(ProverConfig::with_budget(budget))
}

/// Runs the CLI on the given argument list (everything after the program
/// name). Returns the text to print plus the exit code on success.
///
/// # Errors
///
/// Returns a [`CliError`] for the caller to print and exit with code 2.
pub fn run(args: &[String]) -> Result<CmdOutput, CliError> {
    let read = |path: &str| -> Result<String, CliError> {
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))
    };
    let flag_value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let config = config_from_flags(args)?;
    let portfolio = PortfolioOpts::from_flags(args)?;
    match args.first().map(String::as_str) {
        Some("prove") => {
            let file = args.get(1).ok_or_else(|| fail(USAGE))?;
            let a = args.get(2).ok_or_else(|| fail(USAGE))?;
            let b = args.get(3).ok_or_else(|| fail(USAGE))?;
            let origin = if args.iter().any(|x| x == "--distinct") {
                Origin::Distinct
            } else {
                Origin::Same
            };
            cmd_prove(&read(file)?, a, b, origin, &config, &portfolio)
        }
        Some("apm") => {
            let file = args.get(1).ok_or_else(|| fail(USAGE))?;
            cmd_apm(&read(file)?, flag_value("--proc"))
        }
        Some("query") => {
            let file = args.get(1).ok_or_else(|| fail(USAGE))?;
            let text = read(file)?;
            let proc = flag_value("--proc");
            if let Some(u) = flag_value("--carried") {
                cmd_query_carried(&text, proc, u, flag_value("--loop"), &config, &portfolio)
            } else {
                let from = flag_value("--from").ok_or_else(|| fail(USAGE))?;
                let to = flag_value("--to").ok_or_else(|| fail(USAGE))?;
                cmd_query_sequential(&text, proc, from, to, &config, &portfolio)
            }
        }
        Some("report") => {
            let file = args.get(1).ok_or_else(|| fail(USAGE))?;
            cmd_report(&read(file)?, flag_value("--proc"), &config, &portfolio)
        }
        Some("batch") => {
            let file = args.get(1).ok_or_else(|| fail(USAGE))?;
            let jobs =
                match flag_value("--jobs") {
                    Some(v) => v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        fail(format!("--jobs needs a positive integer, got {v:?}"))
                    })?,
                    None => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
                };
            cmd_batch(
                &read(file)?,
                flag_value("--proc"),
                jobs,
                &config,
                &portfolio,
            )
        }
        Some("analyze") => {
            let file = args.get(1).ok_or_else(|| fail(USAGE))?;
            let jobs =
                match flag_value("--jobs") {
                    Some(v) => v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        fail(format!("--jobs needs a positive integer, got {v:?}"))
                    })?,
                    None => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
                };
            cmd_analyze(
                &read(file)?,
                flag_value("--baseline"),
                jobs,
                args.iter().any(|x| x == "--changed-only"),
                &config,
                &portfolio,
            )
        }
        Some("serve") => cmd_serve(args, &config, &portfolio),
        Some("client") => cmd_client(args),
        Some("snapshot") => cmd_snapshot(args),
        _ => Err(fail(USAGE)),
    }
}

/// `apt snapshot inspect <file>`: prints a per-section summary of a
/// warm-state snapshot file, flagging corrupt sections.
///
/// # Errors
///
/// Returns a [`CliError`] on usage errors, unreadable files, or a
/// snapshot whose header is unusable.
pub fn cmd_snapshot(args: &[String]) -> Result<CmdOutput, CliError> {
    match args.get(1).map(String::as_str) {
        Some("inspect") => {
            let path = args.get(2).ok_or_else(|| fail(USAGE))?;
            let bytes =
                std::fs::read(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
            let report =
                apt_serve::snapshot::inspect(&bytes).map_err(|e| fail(format!("{path}: {e}")))?;
            // Corrupt sections are worth a nonzero exit so scripts can
            // gate on snapshot health, mirroring the Maybe convention.
            let any_maybe = report.contains("CORRUPT");
            Ok(CmdOutput {
                text: report,
                any_maybe,
            })
        }
        _ => Err(fail(USAGE)),
    }
}

/// `apt serve`: runs the resident dependence-query daemon until a
/// `shutdown` request arrives. The shared resource flags set the
/// server's per-request budget ceiling (clients may only tighten it).
///
/// # Errors
///
/// Returns a [`CliError`] on bad flags or bind failures.
pub fn cmd_serve(
    args: &[String],
    config: &ProverConfig,
    portfolio: &PortfolioOpts,
) -> Result<CmdOutput, CliError> {
    let flag_value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let usize_flag = |flag: &str| -> Result<Option<usize>, CliError> {
        match flag_value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(Some)
                .ok_or_else(|| fail(format!("{flag} needs a positive integer, got {v:?}"))),
        }
    };
    let mut serve_config = ServeConfig::new();
    serve_config.default_budget = config.budget.clone();
    serve_config.ceiling = config.budget.clone();
    serve_config.portfolio = portfolio.config().clone();
    if let Some(n) = usize_flag("--workers")? {
        serve_config.workers = n;
    }
    if let Some(n) = usize_flag("--high-water")? {
        serve_config.high_water = n;
    }
    if let Some(n) = usize_flag("--max-sessions")? {
        serve_config.max_sessions = n;
    }
    if let Some(n) = usize_flag("--max-connections")? {
        serve_config.max_connections = n;
    }
    let u64_flag = |flag: &str| -> Result<Option<u64>, CliError> {
        match flag_value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| fail(format!("{flag} needs a non-negative integer, got {v:?}"))),
        }
    };
    if let Some(dir) = flag_value("--snapshot-dir") {
        serve_config.snapshot_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(ms) = u64_flag("--snapshot-interval-ms")? {
        if ms > 0 {
            serve_config.snapshot_interval = Some(Duration::from_millis(ms));
        }
    }
    if let Some(ms) = u64_flag("--idle-timeout-ms")? {
        serve_config.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(spec) = flag_value("--fault-plan") {
        let plan =
            apt_serve::FaultPlan::parse(spec).map_err(|e| fail(format!("--fault-plan: {e}")))?;
        serve_config.fault_plan = Some(std::sync::Arc::new(plan));
        eprintln!("apt-serve: FAULT PLAN ARMED ({spec}) — dev/test use only");
    }
    let mut server = Server::new(serve_config);
    if let Some(addr) = flag_value("--addr") {
        let bound = server
            .bind_tcp(addr)
            .map_err(|e| fail(format!("cannot bind tcp {addr}: {e}")))?;
        eprintln!("apt-serve: listening on tcp {bound}");
    }
    if let Some(path) = flag_value("--socket") {
        server
            .bind_unix(std::path::Path::new(path))
            .map_err(|e| fail(format!("cannot bind unix socket {path}: {e}")))?;
        eprintln!("apt-serve: listening on unix {path}");
    }
    server.run().map_err(|e| fail(e.to_string()))?;
    Ok(CmdOutput::clean("apt-serve: stopped\n".to_owned()))
}

/// `apt client`: one request/response against a running daemon.
///
/// # Errors
///
/// Returns a [`CliError`] on bad flags, connection failures, or a
/// server-side error frame.
pub fn cmd_client(args: &[String]) -> Result<CmdOutput, CliError> {
    let flag_value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let mut client = match (flag_value("--addr"), flag_value("--socket")) {
        (Some(addr), _) => Client::connect_tcp(addr)
            .map_err(|e| fail(format!("cannot connect to tcp {addr}: {e}")))?,
        (None, Some(path)) => Client::connect_unix(std::path::Path::new(path))
            .map_err(|e| fail(format!("cannot connect to unix socket {path}: {e}")))?,
        (None, None) => return Err(fail("apt client needs --addr or --socket")),
    };
    // Positional arguments, with flag/value pairs skipped.
    let mut positional = Vec::new();
    let mut i = 1; // args[0] == "client"
    while let Some(a) = args.get(i) {
        if a.starts_with("--") {
            // Boolean flags consume one slot; the rest take a value.
            i += if a == "--distinct" || a == "--changed-only" {
                1
            } else {
                2
            };
            continue;
        }
        positional.push(a.as_str());
        i += 1;
    }
    let mut out = String::new();
    let mut any_maybe = false;
    match positional.first().copied() {
        Some("open") => {
            let file = positional.get(1).ok_or_else(|| fail(USAGE))?;
            let axioms = std::fs::read_to_string(file)
                .map_err(|e| fail(format!("cannot read {file}: {e}")))?;
            let session = client
                .open_session(&axioms)
                .map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "session: {session}");
        }
        Some("prove") => {
            let session = positional.get(1).ok_or_else(|| fail(USAGE))?;
            let a = positional.get(2).ok_or_else(|| fail(USAGE))?;
            let b = positional.get(3).ok_or_else(|| fail(USAGE))?;
            let origin = if args.iter().any(|x| x == "--distinct") {
                "distinct"
            } else {
                "same"
            };
            let mut pairs = vec![
                ("verb", Json::from("prove")),
                ("session", Json::from(*session)),
                ("a", Json::from(*a)),
                ("b", Json::from(*b)),
                ("origin", Json::from(origin)),
            ];
            if let Some(spec) = flag_value("--engines") {
                pairs.push(("engines", spec.into()));
            }
            for (flag, field) in [
                ("--fuel", "fuel"),
                ("--deadline-ms", "deadline_ms"),
                ("--max-dfa-states", "max_dfa_states"),
            ] {
                if let Some(v) = flag_value(flag) {
                    let n = v.parse::<u64>().map_err(|_| {
                        fail(format!("{flag} needs a non-negative integer, got {v:?}"))
                    })?;
                    pairs.push((field, n.into()));
                }
            }
            let frame = client
                .roundtrip(obj(pairs))
                .map_err(|e| fail(e.to_string()))?;
            let result = frame
                .get("result")
                .ok_or_else(|| fail("prove reply lacks result"))?;
            let answer = result.get("answer").and_then(Json::as_str).unwrap_or("?");
            match result.get("reason").and_then(Json::as_str) {
                Some(reason) => {
                    let _ = writeln!(out, "answer: {answer} ({reason})");
                }
                None => {
                    let _ = writeln!(out, "answer: {answer}");
                }
            }
            if let Some(engine) = result.get("engine").and_then(Json::as_str) {
                let _ = writeln!(out, "engine: {engine}");
            }
            if let Some(witness) = result.get("witness").and_then(Json::as_str) {
                let _ = writeln!(out, "witness: {witness}");
            }
            any_maybe = answer == "Maybe";
        }
        Some("analyze") => {
            let file = positional.get(1).ok_or_else(|| fail(USAGE))?;
            let program = std::fs::read_to_string(file)
                .map_err(|e| fail(format!("cannot read {file}: {e}")))?;
            let mut pairs = vec![
                ("verb", Json::from("analyze")),
                ("program", Json::from(program.as_str())),
            ];
            if let Some(name) = flag_value("--name") {
                pairs.push(("name", name.into()));
            }
            if args.iter().any(|x| x == "--changed-only") {
                pairs.push(("changed_only", true.into()));
            }
            for (flag, field) in [
                ("--jobs", "jobs"),
                ("--fuel", "fuel"),
                ("--deadline-ms", "deadline_ms"),
                ("--max-dfa-states", "max_dfa_states"),
            ] {
                if let Some(v) = flag_value(flag) {
                    let n = v.parse::<u64>().map_err(|_| {
                        fail(format!("{flag} needs a non-negative integer, got {v:?}"))
                    })?;
                    pairs.push((field, n.into()));
                }
            }
            let frame = client
                .roundtrip(obj(pairs))
                .map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "{}", frame.render());
            any_maybe = frame.get("any_maybe").and_then(Json::as_bool) == Some(true);
        }
        Some("invalidate") => {
            let mut pairs = vec![("verb", Json::from("invalidate"))];
            if let Some(name) = flag_value("--name") {
                pairs.push(("name", name.into()));
            }
            if let Some(proc) = positional.get(1) {
                pairs.push(("proc", Json::from(*proc)));
            }
            let frame = client
                .roundtrip(obj(pairs))
                .map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "{}", frame.render());
        }
        Some(verb @ ("stats" | "hello")) => {
            let frame = client
                .roundtrip(obj(vec![("verb", verb.into())]))
                .map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "{}", frame.render());
        }
        Some(verb @ ("health" | "ready")) => {
            let frame = client
                .roundtrip(obj(vec![("verb", verb.into())]))
                .map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "{}", frame.render());
        }
        Some("shutdown") => {
            client.shutdown().map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "ok");
        }
        Some("raw") => {
            let line = positional.get(1).ok_or_else(|| fail(USAGE))?;
            let frame = client
                .roundtrip_raw(line)
                .map_err(|e| fail(e.to_string()))?;
            let _ = writeln!(out, "{}", frame.render());
        }
        _ => return Err(fail(USAGE)),
    }
    Ok(CmdOutput {
        text: out,
        any_maybe,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIST_PROGRAM: &str = r"
        type List {
            ptr link: List;
            data f;
            axiom A1: forall p <> q, p.link <> q.link;
            axiom A2: forall p, p.link+ <> p.eps;
        }
        proc update(head: List) {
            q = head;
            loop {
            U:  q->f = fun();
                q = q->link;
            }
        V:  head->f = 0;
        }";

    #[test]
    fn load_axioms_autodetects_formats() {
        let adds = load_axioms("structure T { tree L, R; }").expect("adds");
        assert_eq!(adds.len(), 2);
        let plain = load_axioms("A1: forall p, p.L <> p.R").expect("plain");
        assert_eq!(plain.len(), 1);
        assert!(load_axioms("garbage here").is_err());
    }

    #[test]
    fn prove_command_proves_and_reports() {
        let out = cmd_prove(
            "structure T { tree L, R; list N; acyclic L, R, N; }",
            "L.L.N",
            "L.R.N",
            Origin::Same,
            &ProverConfig::default(),
            &PortfolioOpts::off(),
        )
        .expect("runs");
        assert!(out.contains("PROVEN"), "{out}");
        assert!(out.contains("checked"), "{out}");
        assert_eq!(out.exit_code(), 0);
        let out = cmd_prove(
            "structure T { tree L, R; }",
            "L.(L|R)*",
            "L",
            Origin::Same,
            &ProverConfig::default(),
            &PortfolioOpts::off(),
        )
        .expect("runs");
        assert!(out.contains("Maybe"), "{out}");
        assert_eq!(out.exit_code(), 1);
    }

    #[test]
    fn prove_under_starved_budget_names_the_limit() {
        // A provable query under 1 unit of fuel: the Maybe must carry a
        // fuel-exhaustion reason, not pretend the axioms were silent.
        let out = cmd_prove(
            "structure T { tree L, R; list N; acyclic L, R, N; }",
            "L.L.N",
            "L.R.N",
            Origin::Same,
            &ProverConfig::with_budget(Budget::new().with_fuel(1)),
            &PortfolioOpts::off(),
        )
        .expect("runs");
        assert!(out.contains("Maybe (search exhausted: fuel)"), "{out}");
        assert!(out.contains("resource limit reached"), "{out}");
        assert_eq!(out.exit_code(), 1);
    }

    #[test]
    fn apm_command_prints_matrices() {
        let out = cmd_apm(LIST_PROGRAM, None).expect("runs");
        assert!(out.contains("-- U: write of q->f --"), "{out}");
        assert!(out.contains("_hhead"), "{out}");
    }

    #[test]
    fn query_commands_answer() {
        let cfg = ProverConfig::default();
        let off = PortfolioOpts::off();
        let out =
            cmd_query_carried(LIST_PROGRAM, Some("update"), "U", None, &cfg, &off).expect("runs");
        assert!(out.contains("answer: No"), "{out}");
        assert_eq!(out.exit_code(), 0);
        let out = cmd_query_sequential(LIST_PROGRAM, None, "U", "V", &cfg, &off).expect("runs");
        // U's paths don't survive relative to head's handle… either way it
        // must answer, not crash.
        assert!(out.contains("answer:"), "{out}");
    }

    #[test]
    fn report_flags_parallelizable_loops() {
        let cfg = ProverConfig::default();
        let lines = report_lines(LIST_PROGRAM, None, &cfg, &PortfolioOpts::off()).expect("runs");
        let u = lines.iter().find(|l| l.label == "U").expect("U listed");
        assert_eq!(u.loop_depth, 1);
        assert_eq!(u.carried, Some(Answer::No));
        assert!(!u.panicked);
        let v = lines.iter().find(|l| l.label == "V").expect("V listed");
        assert_eq!(v.loop_depth, 0);
        assert_eq!(v.carried, None);
        let rendered =
            cmd_report(LIST_PROGRAM, None, &cfg, &PortfolioOpts::off()).expect("renders");
        assert!(rendered.contains("PARALLELIZABLE"), "{rendered}");
        assert!(rendered.contains("pairwise conflicts"), "{rendered}");
    }

    #[test]
    fn report_covers_all_procedures_by_default() {
        let two_procs = format!(
            "{LIST_PROGRAM}
            proc touch(h: List) {{
            W:  h->f = 9;
            }}"
        );
        let rendered = cmd_report(
            &two_procs,
            None,
            &ProverConfig::default(),
            &PortfolioOpts::off(),
        )
        .expect("renders");
        assert!(rendered.contains("procedure update"), "{rendered}");
        assert!(rendered.contains("procedure touch"), "{rendered}");
    }

    #[test]
    fn report_isolates_a_panicking_loop_query() {
        // Inject a panic into U's loop-carried query: the report must
        // still render, keep V's line intact, and mark U as a Maybe.
        test_support::inject_report_panic(Some("U"));
        let rendered = cmd_report(
            LIST_PROGRAM,
            None,
            &ProverConfig::default(),
            &PortfolioOpts::off(),
        );
        test_support::inject_report_panic(None);
        let rendered = rendered.expect("report survives the panic");
        assert!(rendered.contains("query panicked"), "{rendered}");
        assert!(rendered.contains("keep sequential"), "{rendered}");
        assert!(rendered.contains('V'), "{rendered}");
        assert_eq!(rendered.exit_code(), 1);
        // Without the injection the same report is clean again.
        let clean = cmd_report(
            LIST_PROGRAM,
            None,
            &ProverConfig::default(),
            &PortfolioOpts::off(),
        )
        .expect("renders");
        assert!(clean.contains("PARALLELIZABLE"), "{clean}");
    }

    #[test]
    fn batch_agrees_with_sequential_queries() {
        let cfg = ProverConfig::default();
        let rendered = cmd_batch(LIST_PROGRAM, None, 4, &cfg, &PortfolioOpts::off()).expect("runs");
        assert!(rendered.contains("carried U"), "{rendered}");
        assert!(rendered.contains("U vs V"), "{rendered}");
        // The loop-carried U dependence is broken by listness (as the
        // report shows), and U vs V conflict at head->f stays a Maybe/Yes
        // question answered identically to `apt query`.
        let lines = report_lines(LIST_PROGRAM, None, &cfg, &PortfolioOpts::off()).expect("runs");
        let u = lines.iter().find(|l| l.label == "U").expect("U listed");
        assert_eq!(u.carried, Some(Answer::No));
        assert!(
            rendered
                .lines()
                .any(|l| l.starts_with("carried U") && l.contains("No")),
            "{rendered}"
        );
    }

    #[test]
    fn batch_covers_all_procedures_and_validates_jobs() {
        let two_procs = format!(
            "{LIST_PROGRAM}
            proc touch(h: List) {{
            W:  h->f = 9;
            }}"
        );
        let rendered = cmd_batch(
            &two_procs,
            None,
            2,
            &ProverConfig::default(),
            &PortfolioOpts::off(),
        )
        .expect("renders");
        assert!(rendered.contains("procedure update"), "{rendered}");
        assert!(rendered.contains("procedure touch"), "{rendered}");
        let e = run(&["batch".into(), "f".into(), "--jobs".into(), "0".into()]).unwrap_err();
        assert!(e.0.contains("--jobs"), "{e}");
    }

    #[test]
    fn analyze_replays_from_a_baseline_file() {
        let two_procs = format!(
            "{LIST_PROGRAM}
            proc touch(h: List) {{
            W:  h->f = 9;
            X:  v = h->f;
            }}"
        );
        let dir = std::env::temp_dir().join(format!("apt-analyze-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline_path = dir.join("table.snap");
        let baseline = baseline_path.to_str().unwrap();
        let cfg = ProverConfig::default();
        let off = PortfolioOpts::off();

        let cold = cmd_analyze(&two_procs, Some(baseline), 2, false, &cfg, &off).expect("cold run");
        assert!(cold.contains("0/2 procedures reused"), "{cold}");
        assert!(cold.contains("(table persisted"), "{cold}");

        // Unedited re-run: both procedures replay from the table.
        let warm = cmd_analyze(&two_procs, Some(baseline), 2, false, &cfg, &off).expect("warm run");
        assert!(warm.contains("2/2 procedures reused"), "{warm}");
        assert!(warm.contains("(replayed)"), "{warm}");
        assert_eq!(warm.exit_code(), cold.exit_code(), "verdict parity");

        // --changed-only trims the printout, not the exit code.
        let trimmed =
            cmd_analyze(&two_procs, Some(baseline), 2, true, &cfg, &off).expect("trimmed");
        assert_eq!(trimmed.exit_code(), cold.exit_code());

        // A corrupted baseline degrades to a cold run, same verdicts.
        std::fs::write(&baseline_path, b"not a snapshot").unwrap();
        let recovered = cmd_analyze(&two_procs, Some(baseline), 2, false, &cfg, &off)
            .expect("corrupt fallback");
        assert!(recovered.contains("0/2 procedures reused"), "{recovered}");
        assert_eq!(recovered.exit_code(), cold.exit_code());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        let e = run(&[]).unwrap_err();
        assert!(e.0.contains("USAGE"));
        let e = run(&["bogus".into()]).unwrap_err();
        assert!(e.0.contains("USAGE"));
    }

    #[test]
    fn malformed_budget_flags_are_usage_errors() {
        let e = run(&["prove".into(), "f".into(), "--fuel".into(), "lots".into()]).unwrap_err();
        assert!(e.0.contains("--fuel"), "{e}");
        let e = run(&[
            "report".into(),
            "f".into(),
            "--deadline-ms".into(),
            "-3".into(),
        ])
        .unwrap_err();
        assert!(e.0.contains("--deadline-ms"), "{e}");
    }
}
