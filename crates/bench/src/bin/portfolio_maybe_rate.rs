//! Measures the Maybe-rate collapse of the prover-and-refuter portfolio
//! against the axiomatic prover alone on the Figure 7 suite plus
//! overlapping-path queries, and writes `BENCH_portfolio.json` to the
//! current directory.
//!
//! ```text
//! cargo run --release -p apt-bench --bin portfolio_maybe_rate [--smoke] [depth]
//! ```
//!
//! `--smoke` runs a small suite (CI). Exits nonzero if a definite
//! verdict diverges between the two strategies, a witness fails
//! re-validation, or the portfolio fails to collapse any Maybe.

use apt_bench::portfolio::{run, PortfolioBenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut config = if smoke {
        PortfolioBenchConfig::smoke()
    } else {
        PortfolioBenchConfig::default()
    };
    if let Some(depth) = args.iter().find_map(|a| a.parse::<usize>().ok()) {
        config.depth = depth;
    }
    eprintln!(
        "running portfolio maybe-rate: depth {}, refuter max heap {} ...",
        config.depth, config.refuter_max_heap
    );
    let result = run(&config);

    println!("== portfolio solving: Maybe-rate vs. the axiomatic prover alone ==");
    println!("{} queries", result.queries);
    println!(
        "{:>12} {:>6} {:>6} {:>7} {:>11}",
        "strategy", "no", "yes", "maybe", "maybe rate"
    );
    for (name, col) in [
        ("axiomatic", result.axiomatic),
        ("portfolio", result.portfolio),
    ] {
        println!(
            "{:>12} {:>6} {:>6} {:>7} {:>10.1}%",
            name,
            col.no,
            col.yes,
            col.maybe,
            100.0 * col.maybe as f64 / result.queries.max(1) as f64
        );
    }
    println!(
        "wins: axiomatic {}, refuter {}",
        result.stats.axiomatic.wins, result.stats.refuter.wins
    );
    println!(
        "witnesses: {} produced, {} re-validated",
        result.witnesses_produced, result.witnesses_validated
    );

    let json = result.to_json();
    std::fs::write("BENCH_portfolio.json", &json).expect("write BENCH_portfolio.json");
    println!("\nwrote BENCH_portfolio.json");

    if !result.behaved() {
        eprintln!(
            "error: portfolio misbehaved (divergent verdict, bad witness, or no Maybe collapse)"
        );
        std::process::exit(1);
    }
}
