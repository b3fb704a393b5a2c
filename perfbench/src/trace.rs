//! The traced run: the workload's requests replayed in process, with a
//! span around each call into a layer's public functions.
//!
//! Every per-request time is the span's *self* time, ms:
//!
//! * `analyze` — the first analyze call on the benchmark's own
//!   `PreparedScenario` (the one the program itself makes);
//! * `die` — `run_with` after that call, minus a second, cache-hit
//!   analyze call timed just before it (the analysis `run_with` repeats);
//! * `persist` — `Server::handle` on an in-process server minus the
//!   replicated children of that request (ir, analyze, die, response);
//! * `protocol` — `parse_request` plus the response renderer;
//! * `unattributed` — the iteration's wall time, less the calls made
//!   only for attribution, minus every layer above.
//!
//! A layer that the workload's path never calls reports 0.

use crate::client::Stats;
use crate::stats::{median, ratio, Metrics};
use crate::stream::{self, FreshFunction};
use crate::workloads::{Ctx, E2e};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tadfa_core::{BatchOptions, CacheStats};
use tadfa_ir::Function;
use tadfa_sched::{hex_fingerprint, load_spec, render_report, PreparedScenario, ScenarioResult};
use tadfa_serve::protocol::{self, parse_request, parse_response, Op, Request};
use tadfa_serve::{Server, ServerConfig};

/// Environment loads (every spec parsed and prepared) per traced run
/// of a serve workload; its `spec.parse_ms` and `prepare.ms` are their
/// medians. On `cli-cold` they are means per CLI run.
const ENV_LOADS: usize = 5;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One traced request's layer self times, ms.
#[derive(Default, Clone, Copy, Debug)]
struct Row {
    spec: f64,
    prepare: f64,
    protocol: f64,
    ir: f64,
    analyze: f64,
    die: f64,
    render: f64,
    persist: f64,
    /// The request's own path: the iteration less attribution-only calls.
    whole: f64,
}

impl Row {
    fn layers(&self) -> f64 {
        self.spec
            + self.prepare
            + self.protocol
            + self.ir
            + self.analyze
            + self.die
            + self.render
            + self.persist
    }
}

/// Everything the traced pass accumulates.
#[derive(Default)]
struct Acc {
    rows: Vec<Row>,
    /// (rows, cols) of the analysis grid → (analyze ms, functions).
    analyze_by_grid: BTreeMap<(usize, usize), (f64, usize)>,
    hits: u64,
    misses: u64,
    rejected: u64,
    die_by_stem: BTreeMap<String, (f64, usize)>,
    die_runs: usize,
    steady_sweeps: f64,
    substeps: f64,
    dtm_events: f64,
    sim_s: f64,
    die_host_s: f64,
    render_bytes: f64,
    protocol_bytes: f64,
    persist_bytes: f64,
    persist_stores: f64,
    problems: Vec<String>,
}

/// The benchmark's own copy of one scenario.
struct Scenario {
    stem: String,
    golden: String,
    prepared: PreparedScenario,
    funcs: Vec<Function>,
}

impl Scenario {
    fn new(stem: &str, golden: &str, prepared: PreparedScenario) -> Scenario {
        let funcs = prepared
            .config()
            .tasks
            .iter()
            .map(|t| t.func.clone())
            .collect();
        Scenario {
            stem: stem.to_string(),
            golden: golden.to_string(),
            prepared,
            funcs,
        }
    }

    fn grid(&self) -> (usize, usize) {
        let die = &self.prepared.config().die;
        (die.rows(), die.cols())
    }
}

/// Analyzes `funcs` (or the scenario's module) on `p`'s engine.
/// Returns (ms, functions).
fn analyze(p: &PreparedScenario, funcs: &[Function]) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let n = match &p.config().module {
        Some(m) => {
            p.engine()
                .analyze_module_opts(m, &BatchOptions::default())
                .map_err(|e| e.to_string())?;
            m.len()
        }
        None => {
            for r in p
                .engine()
                .analyze_batch_parallel_opts(funcs, &BatchOptions::default())
            {
                r.map_err(|e| e.to_string())?;
            }
            funcs.len()
        }
    };
    Ok((ms(t), n))
}

impl Acc {
    /// Adds the cache counters one analyze call moved.
    fn count_cache(&mut self, before: CacheStats, after: CacheStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.rejected += after.rejected_stores - before.rejected_stores;
    }
}

/// The program's analyze call, then `run_with`, attributed to the
/// analyze and die layers. Returns the result and the ms of the
/// attribution-only second analyze call.
fn analyze_and_run(
    s: &Scenario,
    row: &mut Row,
    acc: &mut Acc,
) -> Result<(ScenarioResult, f64), String> {
    let before = s.prepared.cache_stats();
    let (first, n) = analyze(&s.prepared, &s.funcs)?;
    acc.count_cache(before, s.prepared.cache_stats());
    let slot = acc.analyze_by_grid.entry(s.grid()).or_default();
    slot.0 += first;
    slot.1 += n;
    // Only measures the cache-hit analysis run_with repeats.
    let (hit_path, _) = analyze(&s.prepared, &s.funcs)?;
    let t = Instant::now();
    let result = s
        .prepared
        .run_with(&BatchOptions::default())
        .map_err(|e| format!("{}: {e}", s.stem))?;
    let run = ms(t);
    row.analyze = first;
    row.die = run - hit_path;
    let fp = hex_fingerprint(result.fingerprint());
    if fp != s.golden {
        acc.problems.push(format!(
            "traced {}: fingerprint {fp} != golden {}",
            s.stem, s.golden
        ));
    }
    let d = &result.die;
    acc.die_runs += 1;
    acc.steady_sweeps += d.steady_sweeps as f64;
    acc.substeps += d.makespan / s.prepared.config().die.max_stable_dt();
    if let Some(dtm) = &result.dtm {
        acc.dtm_events += (dtm.level_changes + dtm.throttle_events + dtm.migrations) as f64;
    }
    acc.sim_s += d.makespan;
    acc.die_host_s += row.die / 1e3;
    let slot = acc.die_by_stem.entry(s.stem.clone()).or_default();
    slot.0 += row.die;
    slot.1 += 1;
    Ok((result, hit_path))
}

/// Loads and prepares every spec `ENV_LOADS` times; returns the median
/// (spec ms, prepare ms) per load and the last load's scenarios.
fn load_env(ctx: &Ctx) -> Result<(f64, f64, Vec<Scenario>), String> {
    let (mut spec_ms, mut prepare_ms, mut last) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ENV_LOADS {
        let (mut s_ms, mut p_ms, mut scenarios) = (0.0, 0.0, Vec::new());
        for spec in &ctx.specs {
            let t = Instant::now();
            let cfg = load_spec(&spec.path).map_err(|e| e.to_string())?;
            s_ms += ms(t);
            let t = Instant::now();
            let prepared = PreparedScenario::prepare(cfg).map_err(|e| e.to_string())?;
            p_ms += ms(t);
            scenarios.push(Scenario::new(&spec.stem, &spec.golden, prepared));
        }
        spec_ms.push(s_ms);
        prepare_ms.push(p_ms);
        last = scenarios;
    }
    Ok((median(&spec_ms), median(&prepare_ms), last))
}

fn in_process_server(ctx: &Ctx, cache_dir: Option<&Path>) -> Result<Server, String> {
    let cfg = ServerConfig {
        scenario_dir: ctx.root.join("scenarios"),
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    };
    Server::load(&cfg).map_err(|e| e.to_string())
}

fn server_stats(server: &Server) -> Result<Stats, String> {
    let line = server.handle(
        &Request {
            id: 0,
            op: Op::Stats,
        },
        Instant::now(),
    );
    Stats::from_line(&line)
}

fn dir_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len() as f64,
            Err(_) => 0.0,
        })
        .sum()
}

/// Replays `replay-warm` requests in process: parse, analyze, die,
/// response, then the same request through `Server::handle`.
fn trace_replay(ctx: &Ctx, scenarios: &[Scenario], acc: &mut Acc) -> Result<(), String> {
    let server = in_process_server(ctx, None)?;
    let n = scenarios.len();
    // The untimed warm-up round, on both copies.
    for (k, s) in scenarios.iter().enumerate() {
        s.prepared.run().map_err(|e| e.to_string())?;
        let req =
            parse_request(&stream::run_scenario_line(k as u64, &s.stem)).map_err(|e| e.message)?;
        server.handle(&req, Instant::now());
    }
    let window = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    let mut k = n;
    while t0.elapsed() < window {
        let s = &scenarios[stream::replay_item(ctx.seed, k, n)];
        let line = stream::run_scenario_line(k as u64, &s.stem);
        let mut row = Row::default();
        let iter = Instant::now();
        let t = Instant::now();
        let req = parse_request(&line).map_err(|e| e.message)?;
        let parse = ms(t);
        let (result, hit_path) = analyze_and_run(s, &mut row, acc)?;
        let t = Instant::now();
        let response = protocol::scenario_response(k as u64, &s.stem, &result);
        let respond = ms(t);
        let t = Instant::now();
        let handled = server.handle(&req, Instant::now());
        let handle = ms(t);
        // The benchmark's own analyze, hit-path analyze, run_with and response.
        let replicated = row.analyze + hit_path + (row.die + hit_path) + respond;
        row.whole = ms(iter) - replicated;
        row.protocol = parse + respond;
        row.persist = handle - (row.analyze + row.die + respond);
        acc.protocol_bytes += (line.len() + response.len() + 2) as f64;
        check_handled(&handled, &s.golden, &s.stem, acc);
        acc.rows.push(row);
        k += 1;
    }
    Ok(())
}

fn check_handled(handled: &str, want: &str, what: &str, acc: &mut Acc) {
    match parse_response(handled) {
        Ok(r) if r.fingerprint.as_deref() == Some(want) => {}
        Ok(r) => acc.problems.push(format!(
            "traced {what}: served fingerprint {:?} != {want} ({:?})",
            r.fingerprint, r.message
        )),
        Err(e) => acc
            .problems
            .push(format!("traced {what}: bad response: {e}")),
    }
}

/// Replays `analyze-fresh` requests in process: parse, ir, analyze on
/// the benchmark's own sessions, response, then `Server::handle` on a
/// server with a fresh cache directory.
fn trace_fresh(
    ctx: &Ctx,
    scenarios: &[Scenario],
    pool: &[FreshFunction],
    acc: &mut Acc,
) -> Result<(), String> {
    let cache_dir = ctx.tmp.join("trace-cache");
    let server = in_process_server(ctx, Some(&cache_dir))?;
    let stores_before = server_stats(&server)?.cache().appended;
    let bytes_before = dir_bytes(&cache_dir);
    let window = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    for (k, f) in pool.iter().enumerate() {
        if t0.elapsed() >= window {
            break;
        }
        let s = scenarios
            .iter()
            .find(|s| s.stem == f.session)
            .ok_or(format!("no spec {}", f.session))?;
        let line = stream::analyze_line(k as u64, f);
        let mut row = Row::default();
        let iter = Instant::now();
        let t = Instant::now();
        let req = parse_request(&line).map_err(|e| e.message)?;
        let parse = ms(t);
        let Op::Analyze { source, .. } = &req.op else {
            return Err("fresh stream holds a non-analyze request".into());
        };
        let t = Instant::now();
        let func = tadfa_ir::parse_function(source).map_err(|e| e.to_string())?;
        row.ir = ms(t);
        let before = s.prepared.cache_stats();
        let t = Instant::now();
        let mut reports = s
            .prepared
            .engine()
            .analyze_batch_parallel_opts(std::slice::from_ref(&func), &BatchOptions::default());
        row.analyze = ms(t);
        acc.count_cache(before, s.prepared.cache_stats());
        let slot = acc.analyze_by_grid.entry(s.grid()).or_default();
        slot.0 += row.analyze;
        slot.1 += 1;
        let report = reports
            .pop()
            .expect("one function in, one report out")
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let response = protocol::analyze_response(
            k as u64,
            &s.stem,
            func.name(),
            report.fingerprint(),
            report.peak_temperature(),
            report.convergence().is_converged(),
        );
        let respond = ms(t);
        let t = Instant::now();
        let handled = server.handle(&req, Instant::now());
        let handle = ms(t);
        row.whole = ms(iter) - (row.ir + row.analyze + respond);
        row.protocol = parse + respond;
        row.persist = handle - (row.ir + row.analyze + respond);
        acc.protocol_bytes += (line.len() + response.len() + 2) as f64;
        check_handled(
            &handled,
            &hex_fingerprint(report.fingerprint()),
            "analyze",
            acc,
        );
        acc.rows.push(row);
    }
    acc.persist_stores = server_stats(&server)?.cache().appended - stores_before;
    acc.persist_bytes = dir_bytes(&cache_dir) - bytes_before;
    drop(server);
    let _ = std::fs::remove_dir_all(&cache_dir);
    Ok(())
}

/// Replays `cli-cold` runs in process: load, prepare, analyze, die,
/// render and write, one spec after another.
fn trace_cli(ctx: &Ctx, acc: &mut Acc) -> Result<(), String> {
    let n = ctx.specs.len();
    let out = ctx.tmp.join("trace-report.json");
    let window = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    let mut k = 0;
    while t0.elapsed() < window {
        let spec = &ctx.specs[stream::replay_item(ctx.seed, k, n)];
        let mut row = Row::default();
        let iter = Instant::now();
        let t = Instant::now();
        let cfg = load_spec(&spec.path).map_err(|e| e.to_string())?;
        row.spec = ms(t);
        let t = Instant::now();
        let prepared = PreparedScenario::prepare(cfg).map_err(|e| e.to_string())?;
        row.prepare = ms(t);
        let s = Scenario::new(&spec.stem, &spec.golden, prepared);
        let (result, hit_path) = analyze_and_run(&s, &mut row, acc)?;
        let t = Instant::now();
        let report = render_report(&result);
        row.render = ms(t);
        acc.render_bytes += report.len() as f64;
        std::fs::write(&out, &report).map_err(|e| format!("{}: {e}", out.display()))?;
        // Less the attribution-only analyze call and the cache-hit analysis
        // run_with repeats after it; the program analyzes once.
        row.whole = ms(iter) - 2.0 * hit_path;
        acc.rows.push(row);
        k += 1;
    }
    let _ = std::fs::remove_file(&out);
    Ok(())
}

/// What the traced run reports.
pub struct Traced {
    pub metrics: Metrics,
    pub requests: u64,
    pub problems: Vec<String>,
}

/// Runs the traced pass of `workload` and derives every per-layer
/// metric; `live` is the untraced run made just before it.
pub fn run(
    ctx: &Ctx,
    workload: &str,
    live: &E2e,
    pool: &[FreshFunction],
) -> Result<Traced, String> {
    let mut acc = Acc::default();
    // The serve workloads load every spec once per server start, the CLI
    // one spec per run.
    let per_load = match workload {
        "cli-cold" => {
            trace_cli(ctx, &mut acc)?;
            None
        }
        _ => {
            let (spec_ms, prepare_ms, scenarios) = load_env(ctx)?;
            if workload == "replay-warm" {
                trace_replay(ctx, &scenarios, &mut acc)?;
            } else {
                trace_fresh(ctx, &scenarios, pool, &mut acc)?;
            }
            Some((spec_ms, prepare_ms))
        }
    };
    let serve = per_load.is_some();
    let rows = &acc.rows;
    let n = rows.len() as f64;
    let mean = |f: fn(&Row) -> f64| ratio(rows.iter().map(f).sum(), n);
    let (spec_ms, prepare_ms) = per_load.unwrap_or_else(|| (mean(|r| r.spec), mean(|r| r.prepare)));
    let per_func = |g: (usize, usize)| {
        let (t, k) = acc.analyze_by_grid.get(&g).copied().unwrap_or_default();
        ratio(t * 1e3, k as f64)
    };
    let sums: Vec<f64> = rows.iter().map(Row::layers).collect();
    let live_p50 = live.p50_ms();

    let mut m = Metrics::default();
    m.put("spec.parse_ms", spec_ms, "ms");
    m.put("prepare.ms", prepare_ms, "ms");
    m.put("analyze.ms", mean(|r| r.analyze), "ms");
    m.put("analyze.us_per_func.8x8", per_func((8, 8)), "us");
    m.put("analyze.us_per_func.6x6", per_func((6, 6)), "us");
    m.put(
        "cache.hit_ratio",
        ratio(acc.hits as f64, (acc.hits + acc.misses) as f64),
        "ratio",
    );
    m.put("cache.misses", ratio(acc.misses as f64, n), "count");
    m.put("cache.rejected", acc.rejected as f64, "count");
    m.put("die.ms", mean(|r| r.die), "ms");
    for spec in &ctx.specs {
        let (t, k) = acc.die_by_stem.get(&spec.stem).copied().unwrap_or_default();
        m.put(format!("die.ms.{}", spec.stem), ratio(t, k as f64), "ms");
    }
    let runs = acc.die_runs as f64;
    m.put("die.steady_sweeps", ratio(acc.steady_sweeps, runs), "count");
    m.put("die.substeps_est", ratio(acc.substeps, runs), "count");
    m.put("die.dtm_events", ratio(acc.dtm_events, runs), "count");
    m.put(
        "die.sim_s_per_host_s",
        ratio(acc.sim_s, acc.die_host_s),
        "ratio",
    );
    m.put("ir.parse_ms", mean(|r| r.ir), "ms");
    m.put("render.ms", mean(|r| r.render), "ms");
    m.put("render.bytes", ratio(acc.render_bytes, n), "bytes");
    m.put("protocol.ms", mean(|r| r.protocol), "ms");
    m.put("protocol.bytes", ratio(acc.protocol_bytes, n), "bytes");
    m.put("persist.ms", mean(|r| r.persist), "ms");
    m.put(
        "persist.bytes_per_store",
        ratio(acc.persist_bytes, acc.persist_stores),
        "bytes",
    );
    let wait = if serve {
        live_p50 - live.server_p50_ms
    } else {
        0.0
    };
    m.put("serve.wait_ms", wait, "ms");
    m.put("serve.queue_peak", live.queue_peak, "count");
    m.put("serve.retries", live.retries as f64, "count");
    m.put("unattributed.ms", mean(|r| r.whole - r.layers()), "ms");
    m.put("trace.gap_ms", live_p50 - median(&sums), "ms");

    let shares = [
        ("spec", mean(|r| r.spec)),
        ("prepare", mean(|r| r.prepare)),
        ("protocol", mean(|r| r.protocol)),
        ("ir", mean(|r| r.ir)),
        ("analyze", mean(|r| r.analyze)),
        ("die", mean(|r| r.die)),
        ("render", mean(|r| r.render)),
        ("persist", mean(|r| r.persist)),
    ];
    let total: f64 = shares.iter().map(|(_, v)| v).sum();
    let (top, top_ms) =
        shares
            .iter()
            .copied()
            .fold(("none", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    eprintln!(
        "perfbench: traced {} requests of {workload}; dominant layer {top} ({:.0}% of {:.3} ms/request)",
        rows.len(),
        100.0 * ratio(top_ms, total),
        total
    );
    let expected = match workload {
        "replay-warm" => Some("die"),
        "analyze-fresh" => Some("analyze"),
        _ => None,
    };
    if let Some(want) = expected.filter(|w| *w != top) {
        eprintln!("perfbench: NOTE: {workload} was meant to be dominated by {want}, not {top}");
    }
    Ok(Traced {
        metrics: m,
        requests: rows.len() as u64,
        problems: acc.problems,
    })
}
