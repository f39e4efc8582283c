//! Regenerates the §4.2 practical-complexity observation: prover work and
//! wall time as the access-path length `n` grows (paper: ~O(n⁴) time in
//! practice, dominated by RE→DFA conversion; this suite builds no DFA).
//!
//! ```text
//! cargo run --release -p apt-bench --bin table_complexity
//! ```

use apt_bench::complexity::run;

fn main() {
    let sizes = [4, 6, 8, 12, 16, 24, 32, 48, 64];
    let points = run(&sizes);

    println!("== Prover cost vs path length (provable leaf-linked-tree queries) ==");
    println!(
        "{:>4} {:>8} {:>12} {:>14} {:>12} {:>6} {:>6} {:>4} {:>6} {:>6}",
        "n", "proven", "time (us)", "subset checks", "goals", "fuel", "depth", "rw", "ddl", "dfa"
    );
    for p in &points {
        let c = &p.stats.cutoffs;
        println!(
            "{:>4} {:>8} {:>12} {:>14} {:>12} {:>6} {:>6} {:>4} {:>6} {:>6}",
            p.n,
            p.proven,
            p.micros,
            p.stats.subset_checks,
            p.stats.goals_attempted,
            c.fuel,
            c.depth,
            c.rewrites,
            c.deadline,
            c.regex_budget
        );
    }
    println!();
    // Growth factors between successive sizes (exponential behaviour would
    // show factors exploding with n; the paper's practical claim is a
    // low-degree polynomial). Subset checks read 0 at every size (dispatch
    // settles each peel), so growth is taken over goals and time.
    println!("growth factors (goals attempted, time):");
    for w in points.windows(2) {
        let nr = (w[1].n as f64 / w[0].n as f64).ln();
        let goals = w[1].stats.goals_attempted as f64 / w[0].stats.goals_attempted.max(1) as f64;
        let time = w[1].micros as f64 / w[0].micros.max(1) as f64;
        println!(
            "  n {:>3} -> {:>3}: goals x{:>5.2} (degree {:.2}), time x{:>5.2} (degree {:.2})",
            w[0].n,
            w[1].n,
            goals,
            goals.ln() / nr,
            time,
            time.ln() / nr
        );
    }
}
