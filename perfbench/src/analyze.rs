//! analyze-edit: whole-program dependence analysis in a compiler's
//! edit-compile loop.

use crate::checks::{self, Gate};
use crate::gen::GenProgram;
use crate::report::{Clock, Measured};
use crate::stats::{cpu_time, peak_rss_mib};
use crate::trace::Recorder;
use crate::Ctx;
use apt_axioms::{AxiomSet, CompiledAxioms};
use apt_core::{Answer, CacheStats};
use apt_ir::{parse_program, Program};
use apt_paths::{
    analyze_program, BatchOptions, DepTable, ProgramAnalysis, ProgramReport, RowOutcome,
    REPLAY_PROOF_SAMPLE,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One pass's answers, in program order.
fn answers(report: &ProgramReport) -> Vec<Answer> {
    report
        .procs
        .iter()
        .flat_map(|p| p.rows.iter().map(|r| r.outcome.answer()))
        .collect()
}

/// Checks every proof a pass produced and compares its answers with the
/// reference; one operation per query.
fn check_pass(
    gate: &mut Gate,
    rec: &mut Recorder,
    axioms: &AxiomSet,
    report: &ProgramReport,
    reference: &[Answer],
) {
    let mut i = 0;
    for proc in &report.procs {
        for row in &proc.rows {
            let answer = row.outcome.answer();
            let what = format!("{}: {}", proc.name, row.key);
            let mut result = checks::same(
                reference.get(i).copied().unwrap_or(Answer::Maybe),
                answer,
                &what,
            );
            if let (Ok(()), RowOutcome::Fresh(outcome)) = (&result, &row.outcome) {
                result = rec.span("check.proof", |_| {
                    checks::proofs(axioms, answer, &outcome.proofs)
                });
                if result.is_ok() && outcome.witness.is_some() {
                    result = Err(format!("{what}: witness from the axiomatic engine"));
                }
            }
            gate.record(result);
            i += 1;
        }
    }
    if i != reference.len() {
        gate.fail(format!(
            "pass answered {i} queries, reference {}",
            reference.len()
        ));
    }
}

/// Adds one pass's prover and cache counters.
fn count_pass(m: &mut Measured, report: &ProgramReport) {
    let mut cache = CacheStats::default();
    for proc in &report.procs {
        cache.absorb(&proc.cache);
        for row in &proc.rows {
            if let RowOutcome::Fresh(o) = &row.outcome {
                m.prover.merge(&o.stats);
            }
        }
    }
    m.cache.absorb(&cache);
    let answers = answers(report);
    m.answered += answers.len() as u64;
    m.definite += answers.iter().filter(|a| **a != Answer::Maybe).count() as u64;
}

/// Proofs the replay spot-check re-verified in a pass: for each reused
/// procedure, the first `REPLAY_PROOF_SAMPLE` stored in its baseline entry.
fn spot_checked(baseline: &DepTable, report: &ProgramReport) -> usize {
    report
        .procs
        .iter()
        .filter(|p| p.reused)
        .filter_map(|p| baseline.entry(&p.name))
        .map(|e| {
            let stored: usize = e.verdicts.iter().map(|v| v.proofs.len()).sum();
            stored.min(REPLAY_PROOF_SAMPLE)
        })
        .sum()
}

fn front_end(rec: &mut Recorder, text: &str) -> (Program, ProgramAnalysis) {
    let program = rec
        .span("ir.parse", |_| parse_program(text))
        .expect("generated program parses");
    let analysis = rec.span("paths.analyze", |_| analyze_program(&program));
    (program, analysis)
}

/// analyze-edit: edit one procedure, re-parse, re-analyze and re-run
/// against the previous table.
pub fn edit(ctx: &Ctx) -> crate::Run {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, ctx.trace);
    let mut m = Measured::default();
    let mut gate = Gate::default();
    let program = GenProgram::generate(ctx.seed);
    let options = BatchOptions::new().with_jobs(ctx.jobs);
    let mut versions = vec![0u32; program.len()];

    // Set-up: one cold compile of the base program yields the table.
    let mut table = DepTable::new();
    let text = program.render(&versions);
    let mut axioms = AxiomSet::new();
    while m.setup_more() {
        let started = Instant::now();
        let (parsed, analysis) = front_end(&mut rec, &text);
        let report = rec.span("paths.run", |_| analysis.run(None, &options));
        m.setups.push(started.elapsed());
        table = report.table;
        axioms = parsed.all_axioms();
    }
    rec.span("axioms.compile", |_| CompiledAxioms::compile(&axioms));

    // The cold answers of every program version seen, computed untimed on
    // first sight: each incremental pass must match them exactly.
    let mut cold: HashMap<Vec<u32>, Vec<Answer>> = HashMap::new();
    let freed0 = apt_regex::arena_stats().freed_total;
    let clock = Clock::start(ctx.seconds, ctx.trace);
    let mut passes = 0u64;
    let mut step = 0usize;
    while clock.running() {
        // The edit: toggle one procedure's constant, in the seeded
        // rotation, so the sequence of versions repeats.
        let target = program.edit_order[step % program.len()];
        versions[target] ^= 1;
        step += 1;
        let text = program.render(&versions);
        let traced = clock.traced_block();
        rec.set_enabled(traced);
        rec.set_timed(true);
        let cpu0 = cpu_time("self");
        let started = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            rec.span("pass", |rec| {
                let (_, analysis) = front_end(rec, &text);
                rec.span("paths.run", |_| analysis.run(Some(&table), &options))
            })
        }));
        m.wait(started.elapsed(), traced);
        m.cpu += cpu_time("self").saturating_sub(cpu0);
        rec.set_timed(false);
        passes += 1;
        let Ok(report) = report else {
            gate.fail("a pass panicked".to_owned());
            continue;
        };

        let reference = cold.entry(versions.clone()).or_insert_with(|| {
            let program = parse_program(&text).expect("generated program parses");
            let fresh = analyze_program(&program).run(None, &options);
            let reference = answers(&fresh);
            let mut quiet = Recorder::new(epoch, false);
            check_pass(&mut gate, &mut quiet, &axioms, &fresh, &reference);
            reference
        });
        check_pass(&mut gate, &mut rec, &axioms, &report, reference);
        count_pass(&mut m, &report);
        let counts = &mut m.counts;
        *counts.entry("paths.queries").or_default() += report.total_queries() as f64;
        *counts.entry("paths.replayed").or_default() += report.replayed() as f64;
        *counts.entry("paths.reproved").or_default() += report.reproved() as f64;
        *counts.entry("paths.procs_reused").or_default() += report.procs_reused() as f64;
        *counts.entry("check.proofs").or_default() += spot_checked(&table, &report) as f64;
        table = report.table;
    }
    rec.set_enabled(ctx.trace);
    let arena = apt_regex::arena_stats();
    let counts = &mut m.counts;
    counts.insert(
        "regex.arena_freed_total",
        arena.freed_total.saturating_sub(freed0) as f64,
    );
    // Per-pass averages.
    for v in counts.values_mut() {
        *v /= passes.max(1) as f64;
    }
    counts.insert("regex.arena_live_bytes", arena.live_bytes as f64);
    let total = counts.get("paths.queries").copied().unwrap_or(0.0);
    let replayed = counts.get("paths.replayed").copied().unwrap_or(0.0);
    counts.insert(
        "paths.replay_ratio",
        if total > 0.0 { replayed / total } else { 0.0 },
    );
    m.peak_rss_mib = peak_rss_mib("self");
    crate::Run::new(ctx, m, gate, vec![(0, rec)])
}
