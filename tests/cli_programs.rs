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
