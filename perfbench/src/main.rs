//! The APT benchmark: four closed-loop workloads over seeded inputs.
//!
//! ```text
//! perfbench --workload <analyze-edit|serve-warm|race-single|all>
//!           --seed N --seconds S --trace 0|1 [--apt PATH] [--out DIR]
//! perfbench --profile --seed N
//! ```
//!
//! A workload runs in this process, which is fresh for it, and prints one
//! JSON result line last: the end-to-end metrics untraced, the per-layer
//! metrics traced. `--workload all` runs each workload in a fresh child
//! process and prints their lines in turn. `--profile` prints the input
//! properties recorded in `BENCHMARK.json`.

mod analyze;
mod checks;
mod gen;
mod race;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use checks::Gate;
use report::{result_line, Measured};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{Recorder, Trace};

/// Held by every test that interns regexes. The regex arena's scopes are
/// process-wide: an id interned by one test while another test's engine is
/// alive is charged to that engine's scope and freed when the engine drops.
#[cfg(test)]
fn arena_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["analyze-edit", "serve-warm", "race-single"];

/// Run settings shared by every workload.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads and connections: the machine's parallelism.
    pub jobs: usize,
    /// The release `apt` binary (serve-warm).
    pub apt: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

/// A finished run: its result line.
pub struct Run {
    line: String,
    correct: bool,
}

impl Run {
    /// Computes the metrics of a run and, when traced, writes its spans.
    pub fn new(ctx: &Ctx, m: Measured, gate: Gate, recorders: Vec<(u32, Recorder)>) -> Run {
        let mut trace = Trace::new();
        for (thread, rec) in recorders {
            trace.absorb(thread, rec);
        }
        let metrics = if ctx.trace {
            let path = ctx.out.join(format!("trace-{}.csv", ctx.workload));
            let written = std::fs::create_dir_all(&ctx.out)
                .and_then(|()| std::fs::File::create(&path))
                .and_then(|f| {
                    let mut w = std::io::BufWriter::new(f);
                    trace.write(&mut w)?;
                    std::io::Write::flush(&mut w)
                });
            match written {
                Ok(()) => eprintln!(
                    "perfbench: {} spans written to {}",
                    trace.len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
            m.per_layer(&trace)
        } else {
            m.end_to_end()
        };
        Run {
            correct: gate.failed == 0 && gate.attempted > 0,
            line: result_line(&gate, &metrics),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1 \
         [--apt PATH] [--out DIR]\n       perfbench --profile --seed N",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    if args.iter().any(|a| a == "--profile") {
        let p = gen::InputProfile::measure(seed);
        println!(
            "{{\"procs\": {}, \"queries\": {}, \"above_threshold\": {:.3}, \
             \"shapes_repeated\": {:.3}, \"corpus\": {}, \"dependent\": {:.3}}}",
            p.procs, p.queries, p.above_threshold, p.shapes_repeated, p.corpus, p.dependent
        );
        return ExitCode::SUCCESS;
    }
    let (Some(workload), Some(seconds), Some(trace)) = (
        value("--workload"),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()),
        value("--trace"),
    ) else {
        return usage();
    };
    let jobs = std::thread::available_parallelism().map_or(2, usize::from);
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace: trace == "1",
        jobs,
        apt: PathBuf::from(value("--apt").unwrap_or_else(|| "apt".to_owned())),
        out: PathBuf::from(value("--out").unwrap_or_else(|| ".".to_owned())),
    };
    let run = match workload.as_str() {
        "analyze-edit" => analyze::edit(&ctx),
        "serve-warm" => serve::warm(&ctx),
        "race-single" => race::single(&ctx),
        "all" => return run_all(&args),
        _ => return usage(),
    };
    println!("{}", run.line);
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a fresh child process, printing each result
/// line under its workload's name.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(me) = std::env::current_exe() else {
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = w.to_owned();
        }
        let out = std::process::Command::new(&me)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                let line = text.lines().last().unwrap_or("");
                println!("{w}: {line}");
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
