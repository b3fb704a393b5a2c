//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --root <repo> --bin-dir <dir with tadfa, tadfa-serve>
//!           --workload <replay-warm|analyze-fresh|cli-cold>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `perfbench/run.py` builds the binaries and this program from source
//! and then runs it. With `--trace 0` the last stdout line holds the
//! end-to-end metrics of the workload, measured against the real
//! binaries; with `--trace 1` it holds the per-layer metrics of an
//! in-process traced replay of the same workload (after an untraced run
//! that the traced numbers are compared with). Every output is checked:
//! a fingerprint mismatch or a workload that did not measure what it
//! claims prints `"correct": false` and exits 1. Usage and set-up errors
//! exit 2 without a result line.

mod client;
mod host;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Ctx;

const WORKLOADS: [&str; 3] = ["replay-warm", "analyze-fresh", "cli-cold"];

struct Args {
    root: PathBuf,
    bin_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        root: PathBuf::from(get("--root")?),
        bin_dir: PathBuf::from(get("--bin-dir")?),
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed needs an unsigned integer")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    })
}

/// Removes the run's temporary directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: Args) -> Result<bool, String> {
    let specs = stream::enumerate_specs(&args.root)?;
    let stems: Vec<String> = specs.iter().map(|s| format!("\"{}\"", s.stem)).collect();
    let info = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"specs\": {}, \"stems\": [{}]}}",
        args.workload,
        args.seed,
        specs.len(),
        stems.join(", ")
    );
    let tmp = TmpDir(
        args.root
            .join(".bench_tmp")
            .join(format!("run-{}", std::process::id())),
    );
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;
    let ctx = Ctx {
        root: args.root,
        bin_dir: args.bin_dir,
        tmp: tmp.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        specs,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let (live, pool) = match args.workload.as_str() {
        "replay-warm" => (workloads::replay_warm(&ctx)?, Vec::new()),
        "analyze-fresh" => workloads::analyze_fresh(&ctx)?,
        _ => (workloads::cli_cold(&ctx)?, Vec::new()),
    };
    eprintln!(
        "perfbench: {} {} requests, {} failed, {} queue-full retries; {}",
        args.workload,
        live.attempted,
        live.failed,
        live.retries,
        live.raw_summary()
    );
    let mut problems = live.problems.clone();
    let (metrics, attempted) = if args.trace {
        let traced = trace::run(&ctx, &args.workload, &live, &pool)?;
        problems.extend(traced.problems);
        (traced.metrics, live.attempted + traced.requests)
    } else {
        (live.metrics(), live.attempted)
    };
    for p in problems.iter().take(20) {
        eprintln!("perfbench: FAIL: {p}");
    }
    let correct = problems.is_empty();
    println!("{info}");
    println!(
        "{}",
        stats::result_line(correct, attempted, live.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
