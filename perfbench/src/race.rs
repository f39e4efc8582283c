//! race-single: one-off `--engines all` queries, one `Portfolio::run`
//! per corpus query, one caller.

use crate::checks::{self, Gate};
use crate::gen::{corpus, CorpusQuery, Set};
use crate::report::{cache_delta, Clock, Measured};
use crate::rng::Rng;
use crate::stats::{cpu_time, peak_rss_mib};
use crate::trace::Recorder;
use crate::Ctx;
use apt_axioms::{AxiomSet, CompiledAxioms};
use apt_core::{
    Answer, CacheStats, DepEngine, DepQuery, Outcome, Portfolio, PortfolioConfig, PortfolioStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

fn query(q: &CorpusQuery) -> DepQuery {
    DepQuery::disjoint(&q.a, &q.b).origin(q.origin)
}

/// Every check of one outcome: certificate, label and first-pass answer.
fn check(
    axioms: &AxiomSet,
    q: &CorpusQuery,
    o: &Outcome,
    first: Answer,
    rec: &mut Recorder,
) -> Result<(), String> {
    let answer = o.verdict.answer;
    let what = format!("{:?} {} vs {}", q.set, q.a, q.b);
    checks::label(answer, q.truth, &what)?;
    checks::same(first, answer, &what)?;
    let proofs: Vec<_> = o.proof.iter().cloned().collect();
    rec.span("check.proof", |_| checks::proofs(axioms, answer, &proofs))?;
    checks::witness(axioms, answer, o.witness.as_ref(), q.origin, &q.a, &q.b)
}

fn tallies(portfolios: &[Portfolio]) -> PortfolioStats {
    let mut s = PortfolioStats::default();
    for p in portfolios {
        s.merge(&p.stats());
    }
    s
}

fn cache(portfolios: &[Portfolio]) -> CacheStats {
    let mut c = CacheStats::default();
    for p in portfolios {
        c.absorb(&p.engine().cache_stats());
    }
    c
}

pub fn single(ctx: &Ctx) -> crate::Run {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, ctx.trace);
    let mut m = Measured::default();
    let mut gate = Gate::default();
    let corpus = corpus(ctx.seed);
    let axioms: Vec<AxiomSet> = Set::ALL.iter().map(|s| s.axioms()).collect();
    for set in &axioms {
        rec.span("axioms.compile", |_| CompiledAxioms::compile(set));
    }

    // Set-up: one warm portfolio per axiom set — built, then one pass over
    // the corpus, whose answers are the run's first pass.
    let mut portfolios = Vec::new();
    let mut first = Vec::new();
    while m.setup_more() {
        let started = Instant::now();
        portfolios = axioms
            .iter()
            .map(|a| Portfolio::new(DepEngine::new(a.clone()), PortfolioConfig::default()))
            .collect();
        first = corpus
            .iter()
            .map(|q| portfolios[q.set.index()].run(&query(q)))
            .collect();
        m.setups.push(started.elapsed());
    }
    let first_answers: Vec<Answer> = first.iter().map(|o| o.verdict.answer).collect();
    for (q, o) in corpus.iter().zip(&first) {
        let result = check(&axioms[q.set.index()], q, o, o.verdict.answer, &mut rec);
        gate.record(result);
    }

    let mut last: Vec<Option<Outcome>> = vec![None; corpus.len()];
    // Every query equally often: a seeded order, repeated.
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    Rng::new(ctx.seed ^ 0x5241_4345).shuffle(&mut order);
    let tallies0 = tallies(&portfolios);
    let cache0 = cache(&portfolios);
    let clock = Clock::start(ctx.seconds, ctx.trace);
    rec.set_timed(true);
    let cpu0 = cpu_time("self");
    for &i in order.iter().cycle() {
        if !clock.running() {
            break;
        }
        let q = &corpus[i];
        let traced = clock.traced_block();
        rec.set_enabled(traced);
        let dq = query(q);
        let started = Instant::now();
        // A panic fails the run; the trace of a failed run is not used.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rec.span("query", |rec| {
                rec.span("portfolio.run", |_| portfolios[q.set.index()].run(&dq))
            })
        }));
        m.wait(started.elapsed(), traced);
        let Ok(outcome) = outcome else {
            m.answered += 1;
            gate.fail(format!("Portfolio::run panicked on {} vs {}", q.a, q.b));
            continue;
        };
        let answer = outcome.verdict.answer;
        m.answered += 1;
        m.definite += u64::from(answer != Answer::Maybe);
        m.prover.merge(&outcome.stats);
        let what = format!("{:?} {} vs {}", q.set, q.a, q.b);
        gate.record(
            checks::same(first_answers[i], answer, &what)
                .and_then(|()| checks::label(answer, q.truth, &what)),
        );
        last[i] = Some(outcome);
    }
    m.cpu = cpu_time("self").saturating_sub(cpu0);
    rec.set_timed(false);
    rec.set_enabled(ctx.trace);
    m.peak_rss_mib = peak_rss_mib("self");

    // Certificates of the last answer to each query; its answer was
    // already counted, so only failures carry over.
    let mut final_gate = Gate::default();
    for (i, o) in last.iter().enumerate() {
        if let Some(o) = o {
            let q = &corpus[i];
            final_gate.record(check(
                &axioms[q.set.index()],
                q,
                o,
                first_answers[i],
                &mut rec,
            ));
        }
    }
    gate.failed += final_gate.failed;

    m.cache = cache_delta(&cache(&portfolios), &cache0);
    let t0 = tallies0;
    let t = tallies(&portfolios);
    let q = m.answered.max(1) as f64;
    let wins = |a: u64, b: u64| a.saturating_sub(b) as f64 / q;
    let started: u64 = [t.axiomatic, t.dyck, t.refuter]
        .iter()
        .zip([t0.axiomatic, t0.dyck, t0.refuter])
        .map(|(now, then)| (now.wins + now.losses).saturating_sub(then.wins + then.losses))
        .sum();
    let counts = &mut m.counts;
    counts.insert(
        "portfolio.wins.axiomatic",
        wins(t.axiomatic.wins, t0.axiomatic.wins),
    );
    counts.insert("portfolio.wins.dyck", wins(t.dyck.wins, t0.dyck.wins));
    counts.insert(
        "portfolio.wins.refuter",
        wins(t.refuter.wins, t0.refuter.wins),
    );
    let cancelled = (t.axiomatic.cancelled + t.dyck.cancelled + t.refuter.cancelled)
        .saturating_sub(t0.axiomatic.cancelled + t0.dyck.cancelled + t0.refuter.cancelled);
    counts.insert("portfolio.cancelled", cancelled as f64 / q);
    counts.insert("portfolio.witnesses", wins(t.witnesses, t0.witnesses));
    counts.insert(
        "portfolio.useful_ratio",
        m.definite as f64 / started.max(1) as f64,
    );
    counts.insert(
        "regex.arena_live_bytes",
        apt_regex::arena_stats().live_bytes as f64,
    );
    crate::Run::new(ctx, m, gate, vec![(0, rec)])
}
