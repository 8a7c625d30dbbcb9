//! The repository's benchmark: one workload per invocation, its outputs
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! perfbench --workload <batch-corpus|serve-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           [--server-bin <path to skipflow>] [--out-dir <traces and inputs>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! (`--trace 0`) or the per-layer ones (`--trace 1`). A human-readable table
//! of everything measured goes to standard error. The exit code is non-zero
//! when an output check failed. `perfbench/run.py` builds this binary and
//! the `skipflow` server from source and runs it.

mod batch;
mod calib;
mod churn;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads (see `BENCHMARK.json` for why each was chosen).
const WORKLOADS: &[&str] = &["batch-corpus", "serve-churn"];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of a measured one.
    pub trace: bool,
    /// The `skipflow` binary `serve-churn` spawns.
    pub server_bin: PathBuf,
    /// Where traces and generated inputs go.
    pub out_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let flag = |name: &str| -> Option<&str> {
            argv.iter()
                .position(|a| a == name)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let need = |name: &str| flag(name).ok_or_else(|| format!("missing {name}"));
        let workload = need("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` ({})",
                WORKLOADS.join("|")
            ));
        }
        let num = |name: &str, default: u64| -> Result<u64, String> {
            flag(name).map_or(Ok(default), |v| {
                v.parse().map_err(|_| format!("bad {name} `{v}`"))
            })
        };
        let trace = match flag("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (0|1)")),
        };
        Ok(Args {
            workload,
            seed: num("--seed", 1)?,
            seconds: num("--seconds", 10)?.max(1),
            trace,
            server_bin: PathBuf::from(flag("--server-bin").unwrap_or("target/release/skipflow")),
            out_dir: PathBuf::from(flag("--out-dir").unwrap_or("perfbench/out")),
        })
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("trace-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-churn" => serve::run(&args),
        _ => Ok(batch::run(&args)),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if outcome.attempted == 0 {
        outcome.problem("no operation was attempted");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!("host: nproc={nproc}");
    eprint!("{}", outcome.table());
    println!("{}", outcome.json(args.trace));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
