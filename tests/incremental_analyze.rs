//! Property suite for whole-program incremental analysis: random edit
//! sequences over randomly generated multi-procedure programs.
//!
//! Three properties, per the incremental contract:
//!
//! 1. **Parity** — after every edit, an incremental run replaying the
//!    previous run's table produces exactly the verdicts a from-scratch
//!    run produces.
//! 2. **Locality** — the edited procedure re-proves everything; an
//!    untouched procedure re-proves only what the table can never
//!    cover (Maybe verdicts, which are not persisted, and proof-less
//!    Nos, which are never replayed), is not audited (the table came
//!    from this process) and is not analyzed again (the table carries
//!    its plan).
//! 3. **Corruption safety** — a table that went through the snapshot
//!    codec and was bit-flipped or truncated either fails to decode
//!    (run falls back cold) or decodes to entries that are re-validated
//!    away; either way the verdicts still equal the cold run's.
//!
//! Randomness is a seeded xorshift so every failure reproduces.
//!
//! The table also carries the run's warm engines. The last tests pin
//! what they may and may not change: a re-run proves nothing new on them,
//! engines from other rules or a cancelled run cost nothing but warmth,
//! and what reaches a snapshot is the same bytes as without them.

use apt::core::{Budget, CacheStats, CancelToken, ProverConfig};
use apt::prelude::{analyze_program, parse_program, Answer, BatchOptions, RowOutcome};
use apt::serve::snapshot;
use apt::serve::{AnalyzeSection, SectionOutcome, Snapshot};
use apt_paths::{fnv1a, DepTable, ProgramReport, REPLAY_PROOF_SAMPLE};

/// Deterministic xorshift64* PRNG — no clock, no global state.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One procedure of a generated program: a shape plus the constant an
/// "edit" changes. The constant appears in the body text, so editing it
/// changes the procedure's content hash and nothing else's.
#[derive(Clone)]
struct ProcSpec {
    shape: usize,
    constant: u64,
}

fn render(specs: &[ProcSpec]) -> String {
    let mut s = String::from(
        "type List {\n    ptr link: List;\n    data f;\n    \
         axiom A1: forall p <> q, p.link <> q.link;\n    \
         axiom A2: forall p, p.link+ <> p.eps;\n}\n",
    );
    for (i, spec) in specs.iter().enumerate() {
        let c = spec.constant;
        s.push_str(&match spec.shape % 3 {
            // A list walk (carried No) plus a trailing store whose
            // conflict with the loop is not definite.
            0 => format!(
                "proc p{i}(h: List) {{\n    q = h;\n    loop {{\n    \
                 A{i}:  q->f = fun();\n        q = q->link;\n    }}\n\
                 B{i}:  h->f = {c};\n}}\n"
            ),
            // Straight-line store/load of the same cell: a definite Yes.
            1 => format!("proc p{i}(h: List) {{\nW{i}:  h->f = {c};\nX{i}:  v = h->f;\n}}\n"),
            // A stride-2 walk with two labeled stores: two carried Nos
            // and a same-iteration Yes, all definite.
            _ => format!(
                "proc p{i}(h: List) {{\n    q = h;\n    loop {{\n    \
                 C{i}:  q->f = fun();\n    D{i}:  q->f = {c};\n        \
                 q = q->link->link;\n    }}\n}}\n"
            ),
        });
    }
    s
}

fn run_specs(specs: &[ProcSpec], baseline: Option<&DepTable>) -> ProgramReport {
    let program = parse_program(&render(specs)).expect("generated program parses");
    analyze_program(&program).run(baseline, &BatchOptions::new())
}

fn answers(report: &ProgramReport) -> Vec<(String, String, Answer)> {
    report
        .procs
        .iter()
        .flat_map(|p| {
            p.rows
                .iter()
                .map(|r| (p.name.clone(), r.key.clone(), r.outcome.answer()))
        })
        .collect()
}

/// Queries of a procedure the table can never answer: Maybes (not
/// persisted) and proof-less Nos (persisted but never replayed).
fn never_replayable(report: &ProgramReport, proc_name: &str) -> usize {
    let proc = report
        .procs
        .iter()
        .find(|p| p.name == proc_name)
        .expect("procedure in report");
    proc.rows
        .iter()
        .filter(|r| match &r.outcome {
            RowOutcome::Fresh(o) => {
                o.answer == Answer::Maybe || o.proofs.is_empty() && o.answer == Answer::No
            }
            RowOutcome::Error(_) => true,
            RowOutcome::Replayed(_) => false,
        })
        .count()
}

fn random_specs(rng: &mut Rng) -> Vec<ProcSpec> {
    let n = 3 + rng.below(3);
    (0..n)
        .map(|_| ProcSpec {
            shape: rng.below(3),
            constant: rng.next() % 1000,
        })
        .collect()
}

#[test]
fn random_edit_sequences_preserve_parity_and_locality() {
    for seed in 1..=6u64 {
        let mut rng = Rng::new(seed * 0x9e37_79b9);
        let mut specs = random_specs(&mut rng);
        let mut table = run_specs(&specs, None).table;

        for _step in 0..4 {
            // Edit one procedure: change its constant (and sometimes its
            // whole shape) — every other procedure's text is unchanged.
            let edited = rng.below(specs.len());
            specs[edited].constant = specs[edited].constant.wrapping_add(1 + rng.next() % 500);
            if rng.below(4) == 0 {
                specs[edited].shape = rng.below(3);
            }

            let incremental = run_specs(&specs, Some(&table));
            let from_scratch = run_specs(&specs, None);

            // (1) Parity: replay never changes a verdict.
            assert_eq!(
                answers(&incremental),
                answers(&from_scratch),
                "seed {seed}: incremental diverged from from-scratch"
            );

            // (2) Locality: the edited procedure re-proves everything;
            // untouched procedures re-prove only never-replayable rows,
            // with no audit and no analysis.
            for (i, proc) in incremental.procs.iter().enumerate() {
                assert_eq!(proc.audited, 0, "seed {seed}: {} audited", proc.name);
                if i == edited {
                    assert!(!proc.reused, "seed {seed}: edited proc replayed");
                    assert!(proc.analyzed, "seed {seed}: edited proc not analyzed");
                    assert_eq!(proc.replayed, 0);
                    assert_eq!(proc.reproved, proc.rows.len());
                } else {
                    assert!(
                        !proc.analyzed,
                        "seed {seed}: untouched {} analyzed again",
                        proc.name
                    );
                    assert!(
                        proc.reused,
                        "seed {seed}: untouched {} re-proved",
                        proc.name
                    );
                    assert_eq!(
                        proc.reproved,
                        never_replayable(&from_scratch, &proc.name),
                        "seed {seed}: untouched {} re-proved a replayable verdict",
                        proc.name
                    );
                }
            }

            table = incremental.table;
        }
    }
}

#[test]
fn corrupted_snapshot_tables_fall_back_cold_never_wrong() {
    let mut rng = Rng::new(0xdead_beef);
    let specs = random_specs(&mut rng);
    let cold = run_specs(&specs, None);
    let want = answers(&cold);

    let snap = Snapshot {
        created_unix_ms: 1,
        sections: Vec::new(),
        analyses: vec![AnalyzeSection {
            name: "default".into(),
            table: cold.table.clone(),
        }],
    };
    let clean = snapshot::encode(&snap);

    // Sanity: the clean bytes round-trip to a fully-replaying baseline.
    let (_, outcomes) = snapshot::decode(&clean).expect("clean snapshot decodes");
    let restored = outcomes
        .into_iter()
        .find_map(|o| match o {
            SectionOutcome::Analysis(a) => Some(a.table),
            _ => None,
        })
        .expect("analyze section restored");
    let warm = run_specs(&specs, Some(&restored));
    assert_eq!(answers(&warm), want);
    assert_eq!(warm.procs_reused(), specs.len());

    // Bit flips and truncations anywhere in the byte stream: whatever
    // survives decoding is used as the baseline; verdicts must still
    // equal the cold run's (the damage may only cost warmth).
    for trial in 0..40 {
        let mut bytes = clean.clone();
        if trial % 4 == 3 {
            bytes.truncate(rng.below(bytes.len()));
        } else {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }

        let baseline = match snapshot::decode(&bytes) {
            Err(_) => None,
            Ok((_, outcomes)) => outcomes.into_iter().find_map(|o| match o {
                SectionOutcome::Analysis(a) => Some(a.table),
                _ => None,
            }),
        };
        let report = run_specs(&specs, baseline.as_ref());
        assert_eq!(
            answers(&report),
            want,
            "trial {trial}: corrupted table changed a verdict"
        );
    }
}

#[test]
fn a_restored_table_is_audited_on_first_use_only() {
    let mut rng = Rng::new(0x5eed_0a0d);
    let specs = random_specs(&mut rng);
    let cold = run_specs(&specs, None);
    let bytes = snapshot::encode(&Snapshot {
        created_unix_ms: 1,
        sections: Vec::new(),
        analyses: vec![AnalyzeSection {
            name: "default".into(),
            table: cold.table.clone(),
        }],
    });
    let (_, outcomes) = snapshot::decode(&bytes).expect("clean snapshot decodes");
    let restored = outcomes
        .into_iter()
        .find_map(|o| match o {
            SectionOutcome::Analysis(a) => Some(a.table),
            _ => None,
        })
        .expect("analyze section restored");

    // First use: every hash-matched entry is audited, a sample of its
    // proofs plus each witness, and its procedure analyzed (a restored
    // table carries no plans).
    let first = run_specs(&specs, Some(&restored));
    assert_eq!(answers(&first), answers(&cold));
    for (proc, entry) in first.procs.iter().zip(restored.procs()) {
        let proofs: usize = entry.verdicts.iter().map(|v| v.proofs.len()).sum();
        let witnesses = entry
            .verdicts
            .iter()
            .filter(|v| v.witness.is_some())
            .count();
        assert!(proc.reused, "{}", proc.name);
        assert!(proc.analyzed, "{}", proc.name);
        assert_eq!(
            proc.audited,
            proofs.min(REPLAY_PROOF_SAMPLE) + witnesses,
            "{}",
            proc.name
        );
    }
    assert!(first.procs.iter().any(|p| p.audited > 0));

    // The table that run returned is trusted: no audit, no analysis.
    let second = run_specs(&specs, Some(&first.table));
    assert_eq!(answers(&second), answers(&cold));
    for proc in &second.procs {
        assert!(proc.reused, "{}", proc.name);
        assert_eq!(proc.audited, 0, "{}", proc.name);
        assert!(!proc.analyzed, "{}", proc.name);
    }
}

/// A program whose proofs need the structural rules (tail and head
/// peels, Kleene induction): `direct_only` rules leave them `Maybe`.
const RULES_PROGRAM: &str = r"
    type LLBinaryTree {
        ptr L: LLBinaryTree;
        ptr R: LLBinaryTree;
        ptr N: LLBinaryTree;
        data d;
        axiom A1: forall p, p.L <> p.R;
        axiom A2: forall p <> q, p.(L|R) <> q.(L|R);
        axiom A3: forall p <> q, p.N <> q.N;
        axiom A4: forall p, p.(L|R|N)+ <> p.eps;
    }
    proc subr(root: LLBinaryTree) {
        root = root->L;
        p = root->L;
        p = p->N;
    S:  p->d = 100;
        p = root;
        q = root->R;
        q = q->N;
    T:  t = q->d;
    }
    proc walk(root: LLBinaryTree) {
        w = root;
        loop {
        U:  w->d = 1;
            w = w->N;
        }
    V:  root->d = 2;
    }";

fn run_text(text: &str, config: ProverConfig, baseline: Option<&DepTable>) -> ProgramReport {
    let program = parse_program(text).expect("program parses");
    analyze_program(&program)
        .with_prover_config(config)
        .run(baseline, &BatchOptions::new())
}

#[test]
fn an_unchanged_rerun_reproves_on_warm_engines_without_new_work() {
    let specs: Vec<ProcSpec> = (0..6)
        .map(|i| ProcSpec {
            shape: i,
            constant: 10 + i as u64,
        })
        .collect();
    for text in [render(&specs), RULES_PROGRAM.to_owned()] {
        let cold = run_text(&text, ProverConfig::default(), None);
        assert!(cold.table.warm_engines() > 0);
        let warm = run_text(&text, ProverConfig::default(), Some(&cold.table));
        assert_eq!(answers(&warm), answers(&cold));
        assert!(warm.reproved() > 0, "the fixture has Maybes to re-prove");
        for proc in &warm.procs {
            assert!(proc.reused, "{}", proc.name);
            assert_eq!(proc.cache, CacheStats::default(), "{}", proc.name);
            for row in &proc.rows {
                if let RowOutcome::Fresh(outcome) = &row.outcome {
                    assert_eq!(outcome.stats.goals_attempted, 0, "{}", row.key);
                    assert_eq!(outcome.stats.subset_checks, 0, "{}", row.key);
                }
            }
        }
        assert_eq!(warm.table.warm_engines(), cold.table.warm_engines());
    }
}

#[test]
fn engines_from_other_rules_or_a_cancelled_run_answer_like_a_cold_run() {
    let cold = run_text(RULES_PROGRAM, ProverConfig::default(), None);
    let want = answers(&cold);

    // An engine built under weaker rules caches failures those rules
    // could not avoid; reused by a full-rule run it would turn Nos into
    // Maybes.
    let weak = run_text(RULES_PROGRAM, ProverConfig::direct_only(), None);
    assert_ne!(answers(&weak), want, "direct_only rules must lose a proof");
    assert!(weak.table.warm_engines() > 0);
    let after = run_text(RULES_PROGRAM, ProverConfig::default(), Some(&weak.table));
    assert_eq!(answers(&after), want);

    // An engine built under a cancelled token: its run proved nothing,
    // and the next run must not inherit the token.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = run_text(
        RULES_PROGRAM,
        ProverConfig::with_budget(Budget::new().with_cancel(token)),
        None,
    );
    assert_ne!(answers(&cancelled), want, "a cancelled run proves nothing");
    assert!(cancelled.table.warm_engines() > 0);
    let after = run_text(
        RULES_PROGRAM,
        ProverConfig::default(),
        Some(&cancelled.table),
    );
    assert_eq!(answers(&after), want);
}

#[test]
fn an_axiom_edit_drops_the_warm_engines() {
    let cold = run_text(RULES_PROGRAM, ProverConfig::default(), None);
    let edited = RULES_PROGRAM.replace("axiom A1: forall p, p.L <> p.R;", "");
    let after = run_text(&edited, ProverConfig::default(), Some(&cold.table));
    assert_eq!(after.procs_reused(), 0);
    assert_eq!(
        answers(&after),
        answers(&run_text(&edited, ProverConfig::default(), None))
    );
    // Its engines are new ones, built for the edited axioms; none of
    // the old set's came along.
    assert!(after.procs.iter().any(|p| p.cache.proved_goals > 0));
}

#[test]
fn snapshot_bytes_and_proof_text_match_the_committed_fixtures() {
    // Digests of each shipped program's cold-table proof text and
    // snapshot bytes: shared subproofs must not change what is printed
    // or persisted.
    let fixtures = [
        ("factor", 0xcd91_8531_5a5e_a521, 147, 0xae81_0f6f_0f32_37f4),
        ("subr", 0x98f9_ad75_c116_561d, 240, 0x4df0_df89_c918_4f8e),
        ("twoproc", 0xee30_1f88_4e1f_cd9b, 188, 0x75ab_629b_aad6_72f1),
    ];
    for (name, text_digest, len, bytes_digest) in fixtures {
        let path = format!(
            "{}/examples/programs/{name}.apt",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("fixture");
        let report = run_text(&text, ProverConfig::default(), None);
        let proofs: String = report
            .table
            .procs()
            .iter()
            .flat_map(|e| &e.verdicts)
            .flat_map(|v| &v.proofs)
            .map(ToString::to_string)
            .collect();
        assert_eq!(fnv1a(proofs.as_bytes()), text_digest, "{name}: proof text");
        let bytes = snapshot::encode(&Snapshot {
            created_unix_ms: 1,
            sections: Vec::new(),
            analyses: vec![AnalyzeSection {
                name: "default".into(),
                table: report.table,
            }],
        });
        assert_eq!(bytes.len(), len, "{name}: snapshot length");
        assert_eq!(fnv1a(&bytes), bytes_digest, "{name}: snapshot bytes");
    }
}
