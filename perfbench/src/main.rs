//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-fanin8|serve-wal1|consult-paper|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on a one-worker `mnemo-par` pool from one thread.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it replays the workload untraced and traced and prints the per-layer
//! metrics plus the tracing overhead. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod consult;
mod expected;
mod host;
mod layers;
mod mirror;
mod report;
mod sched;
mod serve;
mod stats;
mod tracer;

use std::path::Path;

/// Scratch directory for the journal, relative to the working
/// directory (the checkout root).
const WORK_DIR: &str = ".bench_work";

/// Workload names, in `all` order.
const WORKLOADS: [&str; 3] = ["serve-fanin8", "serve-wal1", consult::NAME];

/// A per-input seed derived from the workload seed (splitmix64), so
/// every tenant or preset draws an independent stream.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: expected::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: need a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: need 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload `{}`: one of {} or all",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_one(name: &str, args: &Args, work: &Path) -> Result<report::Outcome, String> {
    println!(
        "# workload {name} seed {} seconds {} trace {} (mnemo-par pool: {} worker; host parallelism {})",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mnemo_par::effective_jobs(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match name {
        "serve-fanin8" => serve::run(&serve::FANIN8, args.seed, args.seconds, args.trace, work),
        "serve-wal1" => serve::run(&serve::WAL1, args.seed, args.seconds, args.trace, work),
        _ => consult::run(args.seed, args.seconds, args.trace),
    }
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs the selected workloads; `Ok(false)` when an output check failed.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    // One pool worker: per-tick scoped-thread spawns cost more than the
    // parallel drain saves on a small host (see README.md).
    mnemo_par::set_jobs(1);
    let work = Path::new(WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        let outcome = run_one(name, &args, work)?;
        outcome.print(args.trace)?;
        correct &= outcome.correct;
    }
    let _ = std::fs::remove_dir(work);
    Ok(correct)
}
