//! Drives the `apt` CLI subcommands over the shipped demo files in
//! `examples/programs/` — the exact flows a downstream user runs first.

use apt_cli::{
    cmd_apm, cmd_prove, cmd_query_carried, cmd_query_sequential, cmd_report, run, PortfolioOpts,
};
use apt_core::{Origin, ProverConfig};

fn cfg() -> ProverConfig {
    ProverConfig::default()
}

fn demo(name: &str) -> String {
    let path = format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn prove_on_shipped_adds_file() {
    let out = cmd_prove(
        &demo("llt.adds"),
        "L.L.N",
        "L.R.N",
        Origin::Same,
        &cfg(),
        &PortfolioOpts::off(),
    )
    .expect("runs");
    assert!(out.contains("PROVEN"), "{out}");
    assert!(out.contains("checked"), "{out}");
}

#[test]
fn prove_theorem_t_on_shipped_axiom_file() {
    let out = cmd_prove(
        &demo("sparse.axioms"),
        "ncolE+",
        "nrowE+.ncolE+",
        Origin::Same,
        &cfg(),
        &PortfolioOpts::off(),
    )
    .expect("runs");
    assert!(out.contains("PROVEN"), "{out}");
}

#[test]
fn query_subr_s_to_t() {
    let text = demo("subr.apt");
    let out =
        cmd_query_sequential(&text, None, "S", "T", &cfg(), &PortfolioOpts::off()).expect("runs");
    assert!(out.contains("answer: No"), "{out}");
    assert!(out.contains("by axiom A1"), "{out}");
}

#[test]
fn apm_shows_the_papers_matrices() {
    let out = cmd_apm(&demo("subr.apt"), None).expect("runs");
    assert!(out.contains("_hroot"), "{out}");
    assert!(out.contains("L.L.N"), "{out}");
    assert!(out.contains("L.R.N"), "{out}");
}

#[test]
fn factor_report_parallelizes_both_loops() {
    let text = demo("factor.apt");
    let report = cmd_report(&text, None, &cfg(), &PortfolioOpts::off()).expect("runs");
    assert!(report.contains("PARALLELIZABLE"), "{report}");
    // Both loop levels break.
    let l1 = cmd_query_carried(&text, None, "S", Some("L1"), &cfg(), &PortfolioOpts::off())
        .expect("runs");
    assert!(l1.contains("answer: No"), "{l1}");
    assert!(l1.contains("nrowE+"), "{l1}");
    let l2 = cmd_query_carried(&text, None, "S", Some("L2"), &cfg(), &PortfolioOpts::off())
        .expect("runs");
    assert!(l2.contains("answer: No"), "{l2}");
}

#[test]
fn retired_dyck_engine_is_a_usage_error() {
    let axioms = format!("{}/examples/programs/llt.adds", env!("CARGO_MANIFEST_DIR"));
    for spec in ["dyck", "axiomatic,dyck"] {
        let args: Vec<String> = ["prove", &axioms, "L.L.N", "L.R.N", "--engines", spec]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // An `Err` is what the binary turns into exit code 2.
        let err = run(&args).expect_err("dyck is no longer an engine");
        assert!(
            err.to_string().contains("all, axiomatic, refuter"),
            "the message lists the engines left: {err}"
        );
    }
}

#[test]
fn report_engine_footer_is_deterministic() {
    // Staged runs start the refuter only on a disjointness query the
    // prover leaves Maybe; these reports have none, so the refuter never
    // runs and the footer cannot vary from run to run.
    for program in ["factor.apt", "subr.apt", "twoproc.apt"] {
        let file = format!("{}/examples/programs/{program}", env!("CARGO_MANIFEST_DIR"));
        let args: Vec<String> = ["report", &file, "--engines", "all"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let footer = || {
            let text = run(&args).expect("runs").text;
            let start = text
                .find("-- portfolio: engine runs --")
                .unwrap_or_else(|| panic!("{program}: no footer in {text}"));
            text[start..]
                .lines()
                .take_while(|l| !l.starts_with("(dependence witnesses"))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        let first = footer();
        assert!(
            first
                .iter()
                .any(|l| l == "refuter    0 won, 0 lost, 0 cancelled"),
            "{program}: {first:?}"
        );
        for _ in 0..2 {
            assert_eq!(footer(), first, "{program}");
        }
    }
}

/// Stdout (or, for a usage error, the stderr message) and exit code of
/// `apt <args>`, a program name standing for its file in
/// `examples/programs/`. The memory line reads `(memory: MASKED)`: its
/// arena and RSS figures vary from run to run.
fn apt(args: &[&str]) -> (String, i32) {
    let args: Vec<String> = args
        .iter()
        .enumerate()
        .map(|(i, a)| match i {
            1 => format!("{}/examples/programs/{a}.apt", env!("CARGO_MANIFEST_DIR")),
            _ => (*a).to_owned(),
        })
        .collect();
    match run(&args) {
        Ok(out) => {
            let code = out.exit_code();
            let text = out
                .text
                .lines()
                .map(|l| {
                    if l.starts_with("(memory: ") {
                        "(memory: MASKED)"
                    } else {
                        l
                    }
                })
                .fold(String::new(), |text, l| text + l + "\n");
            (text, code)
        }
        Err(e) => (format!("{e}\n"), 2),
    }
}

/// `report`, `batch` and `analyze` render one whole-program run. Their
/// output on the shipped programs is pinned here byte for byte (bar the
/// memory line), as the per-query paths printed it before they became
/// renderings of that run, without the report's per-row timings.
const GOLDEN: &[(&[&str], i32, &str)] = &[
    (
        &["report", "factor"],
        0,
        r#"== parallelization report: procedure eliminate ==
label          access                     depth  innermost loop-carried dependence
S              write e->val               2      No  -> PARALLELIZABLE
(dispatch: 1 admitted, 3 pruned; 0 negative-memo hits)
(memory: MASKED)
"#,
    ),
    (
        &["report", "factor", "--engines", "all"],
        0,
        r#"== parallelization report: procedure eliminate ==
label          access                     depth  innermost loop-carried dependence
S              write e->val               2      No  -> PARALLELIZABLE
(dispatch: 1 admitted, 3 pruned; 0 negative-memo hits)
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
(memory: MASKED)
"#,
    ),
    (
        &["batch", "factor", "--jobs", "2"],
        0,
        r#"== batch: procedure eliminate (1 queries, 2 jobs) ==
carried S                      No
(dispatch: 1 admitted, 3 pruned; 0 negative-memo hits)
(cache: 1 proved / 0 failed goals, 1 subset memos; dfas: 2 raw [6 states] -> 0 minimized [0 states])
"#,
    ),
    (
        &["batch", "factor", "--jobs", "2", "--engines", "all"],
        0,
        r#"== batch: procedure eliminate (1 queries, 2 jobs) ==
carried S                      No
(dispatch: 1 admitted, 3 pruned; 0 negative-memo hits)
(cache: 1 proved / 0 failed goals, 1 subset memos; dfas: 2 raw [6 states] -> 0 minimized [0 states])
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
"#,
    ),
    (
        &["analyze", "factor", "--jobs", "2"],
        0,
        r#"== analyze: 1 procedure(s), 2 jobs ==
procedure eliminate [cold: 0 replayed, 1 reproved]
  carried S                      No
totals: 1 queries — 0 replayed, 1 reproved; 0/1 procedures reused
"#,
    ),
    (
        &["analyze", "factor", "--jobs", "2", "--engines", "all"],
        0,
        r#"== analyze: 1 procedure(s), 2 jobs ==
procedure eliminate [cold: 0 replayed, 1 reproved]
  carried S                      No
totals: 1 queries — 0 replayed, 1 reproved; 0/1 procedures reused
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
"#,
    ),
    (
        &["report", "subr"],
        0,
        r#"== parallelization report: procedure subr ==
label          access                     depth  innermost loop-carried dependence
S              write p->d                 0      - (not in a loop)
T              read  q->d                 0      - (not in a loop)
-- pairwise conflicts (>=1 write) --
S              vs T              No
(dispatch: 1 admitted, 8 pruned; 0 negative-memo hits)
(memory: MASKED)
"#,
    ),
    (
        &["report", "subr", "--engines", "all"],
        0,
        r#"== parallelization report: procedure subr ==
label          access                     depth  innermost loop-carried dependence
S              write p->d                 0      - (not in a loop)
T              read  q->d                 0      - (not in a loop)
-- pairwise conflicts (>=1 write) --
S              vs T              No
(dispatch: 1 admitted, 8 pruned; 0 negative-memo hits)
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
(memory: MASKED)
"#,
    ),
    (
        &["batch", "subr", "--jobs", "2"],
        0,
        r#"== batch: procedure subr (1 queries, 2 jobs) ==
S vs T                         No
(dispatch: 1 admitted, 8 pruned; 0 negative-memo hits)
(cache: 3 proved / 0 failed goals, 0 subset memos; dfas: 0 raw [0 states] -> 0 minimized [0 states])
"#,
    ),
    (
        &["batch", "subr", "--jobs", "2", "--engines", "all"],
        0,
        r#"== batch: procedure subr (1 queries, 2 jobs) ==
S vs T                         No
(dispatch: 1 admitted, 8 pruned; 0 negative-memo hits)
(cache: 3 proved / 0 failed goals, 0 subset memos; dfas: 0 raw [0 states] -> 0 minimized [0 states])
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
"#,
    ),
    (
        &["analyze", "subr", "--jobs", "2"],
        0,
        r#"== analyze: 1 procedure(s), 2 jobs ==
procedure subr [cold: 0 replayed, 1 reproved]
  S vs T                         No
totals: 1 queries — 0 replayed, 1 reproved; 0/1 procedures reused
"#,
    ),
    (
        &["analyze", "subr", "--jobs", "2", "--engines", "all"],
        0,
        r#"== analyze: 1 procedure(s), 2 jobs ==
procedure subr [cold: 0 replayed, 1 reproved]
  S vs T                         No
totals: 1 queries — 0 replayed, 1 reproved; 0/1 procedures reused
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
"#,
    ),
    (
        &["report", "twoproc"],
        0,
        r#"== parallelization report: procedure update ==
label          access                     depth  innermost loop-carried dependence
U              write q->f                 1      No  -> PARALLELIZABLE
(dispatch: 1 admitted, 1 pruned; 0 negative-memo hits)

== parallelization report: procedure touch ==
label          access                     depth  innermost loop-carried dependence
W              write h->f                 0      - (not in a loop)
X              read  h->f                 0      - (not in a loop)
-- pairwise conflicts (>=1 write) --
W              vs X              Yes
(dispatch: 0 admitted, 0 pruned; 0 negative-memo hits)
(memory: MASKED)
"#,
    ),
    (
        &["report", "twoproc", "--engines", "all"],
        0,
        r#"== parallelization report: procedure update ==
label          access                     depth  innermost loop-carried dependence
U              write q->f                 1      No  -> PARALLELIZABLE
(dispatch: 1 admitted, 1 pruned; 0 negative-memo hits)

== parallelization report: procedure touch ==
label          access                     depth  innermost loop-carried dependence
W              write h->f                 0      - (not in a loop)
X              read  h->f                 0      - (not in a loop)
-- pairwise conflicts (>=1 write) --
W              vs X              Yes
(dispatch: 0 admitted, 0 pruned; 0 negative-memo hits)
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
(memory: MASKED)
"#,
    ),
    (
        &["batch", "twoproc", "--jobs", "2"],
        0,
        r#"== batch: procedure update (1 queries, 2 jobs) ==
carried U                      No
(dispatch: 1 admitted, 1 pruned; 0 negative-memo hits)
(cache: 1 proved / 0 failed goals, 0 subset memos; dfas: 0 raw [0 states] -> 0 minimized [0 states])

== batch: procedure touch (1 queries, 2 jobs) ==
W vs X                         Yes
(dispatch: 0 admitted, 0 pruned; 0 negative-memo hits)
(cache: 0 proved / 0 failed goals, 0 subset memos; dfas: 0 raw [0 states] -> 0 minimized [0 states])
"#,
    ),
    (
        &["batch", "twoproc", "--jobs", "2", "--engines", "all"],
        0,
        r#"== batch: procedure update (1 queries, 2 jobs) ==
carried U                      No
(dispatch: 1 admitted, 1 pruned; 0 negative-memo hits)
(cache: 1 proved / 0 failed goals, 0 subset memos; dfas: 0 raw [0 states] -> 0 minimized [0 states])

== batch: procedure touch (1 queries, 2 jobs) ==
W vs X                         Yes
(dispatch: 0 admitted, 0 pruned; 0 negative-memo hits)
(cache: 0 proved / 0 failed goals, 0 subset memos; dfas: 0 raw [0 states] -> 0 minimized [0 states])
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
"#,
    ),
    (
        &["analyze", "twoproc", "--jobs", "2"],
        0,
        r#"== analyze: 2 procedure(s), 2 jobs ==
procedure update [cold: 0 replayed, 1 reproved]
  carried U                      No
procedure touch [cold: 0 replayed, 1 reproved]
  W vs X                         Yes
totals: 2 queries — 0 replayed, 2 reproved; 0/2 procedures reused
"#,
    ),
    (
        &["analyze", "twoproc", "--jobs", "2", "--engines", "all"],
        0,
        r#"== analyze: 2 procedure(s), 2 jobs ==
procedure update [cold: 0 replayed, 1 reproved]
  carried U                      No
procedure touch [cold: 0 replayed, 1 reproved]
  W vs X                         Yes
totals: 2 queries — 0 replayed, 2 reproved; 0/2 procedures reused
-- portfolio: engine runs --
axiomatic  1 won, 1 lost, 0 cancelled
refuter    0 won, 0 lost, 0 cancelled
(dependence witnesses found: 0)
"#,
    ),
    (
        &["report", "factor", "--deadline-ms", "0"],
        1,
        r#"== parallelization report: procedure eliminate ==
label          access                     depth  innermost loop-carried dependence
S              write e->val               2      Maybe (deadline exceeded) -> keep sequential
(1 degraded answer(s) across 1 loop queries)
(dispatch: 0 admitted, 0 pruned; 0 negative-memo hits)
(memory: MASKED)
"#,
    ),
    (
        &["report", "subr", "--deadline-ms", "0"],
        1,
        r#"== parallelization report: procedure subr ==
label          access                     depth  innermost loop-carried dependence
S              write p->d                 0      - (not in a loop)
T              read  q->d                 0      - (not in a loop)
-- pairwise conflicts (>=1 write) --
S              vs T              Maybe (deadline exceeded)
(dispatch: 0 admitted, 0 pruned; 0 negative-memo hits)
(memory: MASKED)
"#,
    ),
    (
        &["report", "twoproc", "--proc", "update"],
        0,
        r#"== parallelization report: procedure update ==
label          access                     depth  innermost loop-carried dependence
U              write q->f                 1      No  -> PARALLELIZABLE
(dispatch: 1 admitted, 1 pruned; 0 negative-memo hits)
(memory: MASKED)
"#,
    ),
    (
        &["report", "twoproc", "--proc", "touch"],
        0,
        r#"== parallelization report: procedure touch ==
label          access                     depth  innermost loop-carried dependence
W              write h->f                 0      - (not in a loop)
X              read  h->f                 0      - (not in a loop)
-- pairwise conflicts (>=1 write) --
W              vs X              Yes
(dispatch: 0 admitted, 0 pruned; 0 negative-memo hits)
(memory: MASKED)
"#,
    ),
    (
        &["report", "twoproc", "--proc", "nosuch"],
        2,
        r#"cannot analyze "nosuch": no memory-access snapshot labeled "nosuch"
"#,
    ),
];

#[test]
fn report_batch_and_analyze_print_the_pinned_outputs() {
    for (args, code, want) in GOLDEN {
        let (text, got) = apt(args);
        assert_eq!(text, *want, "apt {}", args.join(" "));
        assert_eq!(got, *code, "apt {}", args.join(" "));
    }
}
