//! `tadfa-serve` — the persistent analysis service.
//!
//! Loads every scenario spec in a directory once, prepares a warm
//! engine + solve cache per scenario, and serves `run-scenario` /
//! `analyze` / `analyze-module` / `stats` requests over the
//! JSON-lines protocol until
//! EOF or a `shutdown` request. Pipe mode (stdin/stdout, the default)
//! is what CI and `tadfa-load --spawn` drive; `--listen` serves TCP
//! with one blocking thread per open connection.
//!
//! ```text
//! tadfa-serve [--scenarios <dir>] [--pipe | --listen <addr:port>]
//!             [--queue-capacity N] [--service-workers N] [--engine-workers N]
//!             [--cache-dir <dir>] [--warm-golden <dir>] [--shed-after-ms N]
//!             [--max-line-bytes N] [--stall-timeout-ms N] [--compact-cache]
//! ```
//!
//! `--cache-dir` turns on the persistent solve-cache tier (preload at
//! startup, spill new entries per request); `--warm-golden` runs every
//! scenario once at startup and fingerprint-verifies it against its
//! committed golden; `--shed-after-ms` is the queueing-latency SLO
//! beyond which waiting requests are shed instead of computed;
//! `--max-line-bytes` caps a request line on every front end;
//! `--stall-timeout-ms` reaps a TCP connection whose partial line
//! stalls that long; `--compact-cache` (with `--cache-dir`) compacts
//! every scenario's segment directory — dropping duplicate-key records
//! accumulated across process lifetimes — and exits instead of
//! serving.
//!
//! Exit codes: `0` clean shutdown, `2` usage or configuration error.
//! All diagnostics go to stderr — stdout is the protocol channel.

use std::path::PathBuf;
use std::process::ExitCode;
use tadfa_serve::{Server, ServerConfig};

const USAGE: &str = "\
tadfa-serve — persistent thermal-scenario analysis service

USAGE:
    tadfa-serve [--scenarios <dir>] [--pipe | --listen <addr:port>]
                [--queue-capacity N] [--service-workers N] [--engine-workers N]
                [--cache-dir <dir>] [--warm-golden <dir>] [--shed-after-ms N]
                [--max-line-bytes N] [--stall-timeout-ms N] [--compact-cache]

Loads every scenarios/*.toml|json spec once, then serves JSON-lines
requests ({\"id\": 1, \"op\": \"run-scenario\", \"scenario\": \"<stem>\"},
analyze, analyze-module, stats, reload, ping, shutdown) against warm
engines. Pipe mode (the
default) speaks the protocol on stdin/stdout; --listen serves TCP
with one thread per open connection (tested with 1-16 clients).
Requests beyond --queue-capacity are rejected with a queue-full error,
never buffered unboundedly; requests older than --shed-after-ms are
shed with an slo-shed error instead of computed late. --cache-dir
persists every solve-cache entry to checksummed segment files and
preloads them at the next start; --warm-golden <dir> runs each
scenario once at startup and refuses to serve on any fingerprint
mismatch with the committed goldens. A request line longer than
--max-line-bytes (default 1 MiB) is answered request-too-large and
ends the session; a TCP connection whose partial line sits silent for
--stall-timeout-ms (default 10000) is closed. --compact-cache
rewrites every scenario's segment directory under --cache-dir
dropping duplicate-key records, then exits without serving (safe: a
crash mid-compaction never loses pre-compaction data).";

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut listen: Option<String> = None;
    let mut pipe = false;
    let mut compact = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let usize_arg = |name: &str, v: Option<&String>| -> Result<usize, String> {
        v.ok_or_else(|| format!("{name} needs a value"))?
            .parse::<usize>()
            .map_err(|_| format!("{name} needs a non-negative integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenarios" => match it.next() {
                Some(dir) => cfg.scenario_dir = PathBuf::from(dir),
                None => return usage_error("--scenarios needs a directory"),
            },
            "--pipe" => pipe = true,
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => return usage_error("--listen needs an <addr:port>"),
            },
            "--queue-capacity" => match usize_arg(arg, it.next()) {
                Ok(v) => cfg.queue_capacity = v,
                Err(e) => return usage_error(&e),
            },
            "--service-workers" => match usize_arg(arg, it.next()) {
                Ok(v) => cfg.service_workers = v,
                Err(e) => return usage_error(&e),
            },
            "--engine-workers" => match usize_arg(arg, it.next()) {
                Ok(v) => cfg.engine_workers = Some(v),
                Err(e) => return usage_error(&e),
            },
            "--cache-dir" => match it.next() {
                Some(dir) => cfg.cache_dir = Some(PathBuf::from(dir)),
                None => return usage_error("--cache-dir needs a directory"),
            },
            "--warm-golden" => match it.next() {
                Some(dir) => cfg.warm_golden = Some(PathBuf::from(dir)),
                None => return usage_error("--warm-golden needs a directory"),
            },
            "--shed-after-ms" => match usize_arg(arg, it.next()) {
                Ok(v) => cfg.shed_after_ms = Some(v as u64),
                Err(e) => return usage_error(&e),
            },
            "--compact-cache" => compact = true,
            "--max-line-bytes" => match usize_arg(arg, it.next()) {
                Ok(v) => cfg.max_line_bytes = v,
                Err(e) => return usage_error(&e),
            },
            "--stall-timeout-ms" => match usize_arg(arg, it.next()) {
                Ok(v) => cfg.stall_timeout_ms = v as u64,
                Err(e) => return usage_error(&e),
            },
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if pipe && listen.is_some() {
        return usage_error("--pipe and --listen are mutually exclusive");
    }
    if compact {
        return compact_cache(&cfg);
    }

    let server = match Server::load(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tadfa-serve: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "tadfa-serve: loaded {} scenario(s) from {}: {}",
        server.scenario_names().len(),
        cfg.scenario_dir.display(),
        server.scenario_names().join(", ")
    );

    let result = match listen {
        Some(addr) => server.run_tcp(&addr),
        None => server.run_pipe(),
    };
    if let Err(e) = result {
        eprintln!("tadfa-serve: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// `--compact-cache`: compact every scenario segment directory under
/// `--cache-dir` and exit. Runs *instead of* serving — compaction must
/// never race a live appender on the same directory.
fn compact_cache(cfg: &ServerConfig) -> ExitCode {
    let Some(root) = &cfg.cache_dir else {
        return usage_error("--compact-cache needs --cache-dir");
    };
    let entries = match std::fs::read_dir(root) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("tadfa-serve: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        match tadfa_serve::persist::compact_dir(&dir) {
            Ok(r) => eprintln!(
                "tadfa-serve: compacted {}: {} unique record(s) kept, \
                 {} duplicate(s) dropped, {} corrupt skipped, {} -> 1 segment(s)",
                dir.display(),
                r.unique,
                r.duplicates,
                r.skipped,
                r.segments_before,
            ),
            Err(e) => {
                eprintln!("tadfa-serve: compaction of {} failed: {e}", dir.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::from(2)
}
