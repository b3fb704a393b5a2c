//! The three workloads, run against the real binaries with tracing off.
//!
//! Their costs are CPU times, not wall times: the host is a few CPUs
//! shared with other machines, and time-sharing with them stretches
//! wall time from one run to the next by more than any bound worth
//! keeping, while the CPU time a request costs stays put (steal time is
//! not charged to a process). CPU times are scaled to the reference
//! host (see `host`). Wall-clock throughput and latency and the raw CPU
//! times are printed on stderr.

use crate::client::{self, wait_exit, Conn, ServeProcess};
use crate::host::{reference_loop_s, REFERENCE_LOOP_S};
use crate::stats::{median, quantile, ratio, Metrics};
use crate::stream::{self, FreshFunction, Spec, FRESH_GRIDS, FRESH_POOL};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tadfa_core::PolicyFactory;
use tadfa_sched::{hex_fingerprint, json, load_spec, PreparedScenario};

/// Points of the timed window, evenly spaced, at which the load pauses
/// for `SETUPS_PER_POINT` set-ups and `LOOPS_PER_POINT` reference
/// loops. A slow spell of the host shorter than half the window then
/// moves neither the median set-up nor the median loop.
const PROBE_POINTS: usize = 16;
const SETUPS_PER_POINT: usize = 2;
const LOOPS_PER_POINT: usize = 4;

/// `peak_rss_mb` of a server is read after this many timed responses,
/// so it measures a fixed amount of work: `analyze-fresh` grows the
/// cache with every request, and a faster server would otherwise read
/// as a larger one.
const RSS_AFTER: usize = 1000;

/// Everything a workload needs to know.
pub struct Ctx {
    pub root: PathBuf,
    pub bin_dir: PathBuf,
    /// A fresh directory for this run, removed when the run ends.
    pub tmp: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub specs: Vec<Spec>,
    /// Threads for untimed work (reference checks), `nproc`.
    pub threads: usize,
}

impl Ctx {
    fn serve_bin(&self) -> PathBuf {
        self.bin_dir.join("tadfa-serve")
    }

    fn cli_bin(&self) -> PathBuf {
        self.bin_dir.join("tadfa")
    }
}

/// One timed request (or CLI run).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub latency_ms: f64,
    pub ok: bool,
}

/// What one untraced run measured and checked.
#[derive(Default, Debug)]
pub struct E2e {
    pub timed: Vec<Timed>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU seconds the program under test used in the timed window.
    pub cpu_s: f64,
    /// The reference loop's median CPU time over the window ÷
    /// `REFERENCE_LOOP_S`: how much slower than the reference host
    /// this host ran.
    pub slowness: f64,
    /// Median CPU seconds of a start-up, as measured and scaled.
    pub raw_setup_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// `queue-full` retries.
    pub retries: u64,
    pub queue_peak: f64,
    /// The server's own admission → response p50, ms.
    pub server_p50_ms: f64,
    /// Fingerprint mismatches and workload-validity violations; any
    /// entry makes the run incorrect.
    pub problems: Vec<String>,
}

/// A failed request misses every latency limit.
fn latencies(timed: &[Timed]) -> Vec<f64> {
    timed
        .iter()
        .map(|t| if t.ok { t.latency_ms } else { f64::INFINITY })
        .collect()
}

impl E2e {
    /// Median client-observed wall latency, ms.
    pub fn p50_ms(&self) -> f64 {
        median(&latencies(&self.timed))
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let ok = self.attempted - self.failed;
        m.put(
            "cpu_ms_per_request",
            ratio(self.cpu_s * 1e3 / self.slowness, self.attempted as f64),
            "ms",
        );
        m.put(
            "success_ratio",
            ratio(ok as f64, self.attempted as f64),
            "ratio",
        );
        m.put("setup_s", self.setup_s, "s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MB");
        m
    }

    /// The raw CPU times and wall-clock throughput and latency, for
    /// stderr: they move with whatever else the host runs.
    pub fn raw_summary(&self) -> String {
        let lat = latencies(&self.timed);
        let ok = self.attempted - self.failed;
        let mut s = format!(
            "raw CPU {:.3} s ({:.4} ms/request), setup {:.6} s, host slowness {:.4}; \
             wall {:.2} s, {:.2} req/s, latency p50 {:.3} ms, p95 {:.3} ms",
            self.cpu_s,
            ratio(self.cpu_s * 1e3, self.attempted as f64),
            self.raw_setup_s,
            self.slowness,
            self.wall_s,
            ratio(ok as f64, self.wall_s),
            median(&lat),
            quantile(&lat, 0.95)
        );
        // p99 only when at least ten samples lie beyond it.
        if lat.len() >= 1000 {
            s += &format!(", p99 {:.3} ms", quantile(&lat, 0.99));
        }
        s
    }
}

/// The set-ups and reference loops of a run, taken while its window
/// runs.
struct Probes<'a> {
    setup: &'a dyn Fn() -> Result<f64, String>,
    every: Duration,
    next: Duration,
    points: usize,
    setups: Vec<f64>,
    loops: Vec<f64>,
}

impl<'a> Probes<'a> {
    fn new(ctx: &Ctx, setup: &'a dyn Fn() -> Result<f64, String>) -> Probes<'a> {
        Probes {
            setup,
            every: Duration::from_secs_f64(ctx.seconds) / PROBE_POINTS as u32,
            next: Duration::ZERO,
            points: 0,
            setups: Vec::new(),
            loops: Vec::new(),
        }
    }

    fn take(&mut self) -> Result<(), String> {
        for _ in 0..SETUPS_PER_POINT {
            self.setups.push((self.setup)()?);
        }
        for _ in 0..LOOPS_PER_POINT {
            self.loops.push(reference_loop_s());
        }
        self.points += 1;
        Ok(())
    }

    /// Takes the next point's probes once the window has run `elapsed`
    /// past its time.
    fn poll(&mut self, elapsed: Duration) -> Result<(), String> {
        if elapsed >= self.next && self.points < PROBE_POINTS {
            self.take()?;
            self.next += self.every;
        }
        Ok(())
    }

    /// Takes the points the window ended before, then records the
    /// host's slowness over the window and the median set-up, raw and
    /// scaled to the reference host.
    fn finish(mut self, out: &mut E2e) -> Result<(), String> {
        while self.points < PROBE_POINTS {
            self.take()?;
        }
        out.slowness = median(&self.loops) / REFERENCE_LOOP_S;
        out.raw_setup_s = median(&self.setups);
        out.setup_s = out.raw_setup_s / out.slowness;
        Ok(())
    }
}

/// One response of a closed loop.
struct Sample {
    index: usize,
    timed: Timed,
    fingerprint: Option<String>,
}

/// Drives one closed-loop connection until `ctx.seconds` have passed
/// and the requests sent since `first` make whole rounds of `round`;
/// item `k` of the stream is `line(k)` (`None` ends the stream). Records
/// the server's CPU time over the loop, the host's slowness and the
/// median CPU time of a `tadfa-serve` start-up.
fn closed_loop(
    ctx: &Ctx,
    server: &ServeProcess,
    first: usize,
    round: usize,
    line: &dyn Fn(usize) -> Option<String>,
    out: &mut E2e,
) -> Result<Vec<Sample>, String> {
    let mut conn = Conn::open(&server.addr)?;
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut samples = Vec::new();
    let mut rss = None;
    let setup = || client::setup_cpu_seconds(&ctx.serve_bin(), &ctx.root);
    let mut probes = Probes::new(ctx, &setup);
    let cpu0 = server.cpu_s()?;
    let t0 = Instant::now();
    let mut k = first;
    while t0.elapsed() < window || !(k - first).is_multiple_of(round) {
        probes.poll(t0.elapsed())?;
        let Some(req) = line(k) else { break };
        let t = Instant::now();
        let (r, tries) = conn.call_retrying(&req)?;
        let timed = Timed {
            latency_ms: t.elapsed().as_secs_f64() * 1e3,
            ok: r.ok,
        };
        out.retries += tries;
        samples.push(Sample {
            index: k,
            timed,
            fingerprint: r.fingerprint,
        });
        if samples.len() == RSS_AFTER {
            rss = Some(server.peak_rss_mb()?);
        }
        k += 1;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = server.cpu_s()? - cpu0;
    probes.finish(out)?;
    out.peak_rss_mb = match rss {
        Some(r) => r,
        None => server.peak_rss_mb()?,
    };
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.timed.ok).count() as u64;
    out.timed = samples.iter().map(|s| s.timed).collect();
    Ok(samples)
}

/// The directory, under the run's temporary directory, the measured
/// `analyze-fresh` server spills into.
const FRESH_CACHE: &str = "cache";

/// Starts the server the run measures, spilling into a fresh cache
/// directory when `cache` is set.
fn spawn_server(ctx: &Ctx, cache: bool) -> Result<ServeProcess, String> {
    let mut extra = Vec::new();
    if cache {
        extra.push("--cache-dir".to_string());
        extra.push(ctx.tmp.join(FRESH_CACHE).display().to_string());
    }
    ServeProcess::spawn(&ctx.serve_bin(), &ctx.root, &extra)
}

/// `replay-warm`: `run-scenario` over every spec in seeded shuffled
/// rounds, after one untimed warm-up round.
pub fn replay_warm(ctx: &Ctx) -> Result<E2e, String> {
    let mut out = E2e::default();
    let server = spawn_server(ctx, false)?;
    let n = ctx.specs.len();
    let stem = |k: usize| &ctx.specs[stream::replay_item(ctx.seed, k, n)];
    let mut conn = Conn::open(&server.addr)?;
    for k in 0..n {
        let r = conn.call(&stream::run_scenario_line(k as u64, &stem(k).stem))?;
        if r.fingerprint.as_deref() != Some(stem(k).golden.as_str()) {
            out.problems.push(format!(
                "warm-up {}: fingerprint {:?}",
                stem(k).stem,
                r.fingerprint
            ));
        }
    }
    let before = conn.stats()?;
    let line = |k: usize| Some(stream::run_scenario_line(k as u64, &stem(k).stem));
    let samples = closed_loop(ctx, &server, n, n, &line, &mut out)?;
    let after = conn.stats()?;
    for s in &samples {
        let spec = stem(s.index);
        if s.timed.ok && s.fingerprint.as_deref() != Some(spec.golden.as_str()) {
            out.problems.push(format!(
                "{}: fingerprint {:?} != golden {}",
                spec.stem, s.fingerprint, spec.golden
            ));
        }
    }
    let (b, a) = (before.cache(), after.cache());
    if a.misses != b.misses || a.hits == b.hits {
        out.problems.push(format!(
            "replay-warm is not all cache hits: {} hits, {} misses in the timed rounds",
            a.hits - b.hits,
            a.misses - b.misses
        ));
    }
    drop(conn);
    finish_server(server, &after, &mut out)?;
    Ok(out)
}

fn finish_server(server: ServeProcess, after: &client::Stats, out: &mut E2e) -> Result<(), String> {
    out.server_p50_ms = after.latency_p50_ms();
    out.queue_peak = after.queue_peak();
    server.shutdown()
}

/// The fresh functions an `analyze-fresh` run may send, in stream
/// order; made before the window opens.
pub fn fresh_pool(ctx: &Ctx) -> Vec<FreshFunction> {
    let chunk = FRESH_POOL.div_ceil(ctx.threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..FRESH_POOL)
            .step_by(chunk)
            .map(|lo| {
                s.spawn(move || {
                    (lo..(lo + chunk).min(FRESH_POOL))
                        .map(|k| stream::fresh_function(ctx.seed, k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator panicked"))
            .collect()
    })
}

/// `analyze-fresh`: one distinct generated function per `analyze`
/// request, alternating the 8×8 and 6×6 sessions, against a fresh
/// `--cache-dir`.
pub fn analyze_fresh(ctx: &Ctx) -> Result<(E2e, Vec<FreshFunction>), String> {
    let t = Instant::now();
    let pool = fresh_pool(ctx);
    eprintln!(
        "perfbench: generated {} fresh functions in {:.1} s",
        pool.len(),
        t.elapsed().as_secs_f64()
    );
    let mut out = E2e::default();
    let server = spawn_server(ctx, true)?;
    let mut conn = Conn::open(&server.addr)?;
    let before = conn.stats()?;
    let line = |k: usize| pool.get(k).map(|f| stream::analyze_line(k as u64, f));
    let samples = closed_loop(ctx, &server, 0, 1, &line, &mut out)?;
    let after = conn.stats()?;
    if samples.len() >= pool.len() {
        out.problems.push(format!(
            "analyze-fresh sent its whole pool of {} functions before --seconds ran out, \
             so the run was cut short",
            pool.len()
        ));
    }
    let (b, a) = (before.cache(), after.cache());
    if a.hits != b.hits || a.rejected != b.rejected {
        out.problems.push(format!(
            "analyze-fresh hit the cache: {} hits, {} rejected stores",
            a.hits - b.hits,
            a.rejected - b.rejected
        ));
    }
    drop(conn);
    finish_server(server, &after, &mut out)?;
    let _ = std::fs::remove_dir_all(ctx.tmp.join(FRESH_CACHE));
    let sent: Vec<(usize, String)> = samples
        .iter()
        .filter(|s| s.timed.ok)
        .map(|s| (s.index, s.fingerprint.clone().unwrap_or_default()))
        .collect();
    let t = Instant::now();
    out.problems.extend(check_reference(ctx, &pool, &sent)?);
    eprintln!(
        "perfbench: reference check of {} responses took {:.1} s",
        sent.len(),
        t.elapsed().as_secs_f64()
    );
    Ok((out, pool))
}

/// Recomputes each answered function's fingerprint with the retained
/// reference solver and lists every mismatch.
pub fn check_reference(
    ctx: &Ctx,
    pool: &[FreshFunction],
    answered: &[(usize, String)],
) -> Result<Vec<String>, String> {
    let sessions: BTreeMap<&str, (PreparedScenario, PolicyFactory)> = FRESH_GRIDS
        .iter()
        .flat_map(|grid| grid.iter())
        .map(|&stem| {
            let spec = ctx.specs.iter().find(|s| s.stem == *stem);
            let spec = spec.ok_or_else(|| format!("no spec {stem}"))?;
            let cfg = load_spec(&spec.path).map_err(|e| e.to_string())?;
            let factory = PolicyFactory::named(&cfg.assignment_policy, cfg.assignment_seed);
            let prepared = PreparedScenario::prepare(cfg).map_err(|e| e.to_string())?;
            Ok((stem, (prepared, factory)))
        })
        .collect::<Result<_, String>>()?;
    let workers = ctx.threads;
    let problems: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let sessions = &sessions;
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for (k, got) in answered.iter().skip(w).step_by(workers) {
                        let f = &pool[*k];
                        let (prepared, factory) = &sessions[f.session];
                        let core = prepared.engine().core();
                        let want = tadfa_ir::parse_function(&f.source)
                            .map_err(|e| e.to_string())
                            .and_then(|func| {
                                let mut policy = factory
                                    .instantiate(core.register_file())
                                    .map_err(|e| e.to_string())?;
                                core.analyze_with_reference_solver(&func, policy.as_mut())
                                    .map_err(|e| e.to_string())
                            })
                            .map(|r| hex_fingerprint(r.fingerprint()));
                        match want {
                            Ok(want) if &want == got => {}
                            Ok(want) => bad.push(format!(
                                "analyze #{k}: fingerprint {got} != reference {want}"
                            )),
                            Err(e) => bad.push(format!("analyze #{k}: reference failed: {e}")),
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference panicked"))
            .collect()
    });
    Ok(problems.into_iter().flatten().collect())
}

/// Runs `tadfa` with `args` to completion.
fn run_cli(ctx: &Ctx, args: &[&str]) -> Result<client::Exit, String> {
    let child = Command::new(ctx.cli_bin())
        .current_dir(&ctx.root)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", ctx.cli_bin().display()))?;
    wait_exit(child)
}

/// The `fingerprint` a report file records.
fn report_fingerprint(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&text).ok()?;
    doc.get("fingerprint")?.as_str().map(str::to_string)
}

/// `cli-cold`: `tadfa run <spec> --out <tmp>`, one process after
/// another, over every spec in seeded shuffled rounds; the window ends
/// on a whole round.
pub fn cli_cold(ctx: &Ctx) -> Result<E2e, String> {
    let mut out = E2e::default();
    let setup = || {
        let exit = run_cli(ctx, &["policies"])?;
        exit.success
            .then_some(exit.cpu_s)
            .ok_or_else(|| "tadfa policies failed".to_string())
    };
    let mut probes = Probes::new(ctx, &setup);
    let n = ctx.specs.len();
    let report = ctx.tmp.join("report.json");
    let report_arg = report.display().to_string();
    let window = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    let mut k: usize = 0;
    while t0.elapsed() < window || !k.is_multiple_of(n) {
        probes.poll(t0.elapsed())?;
        let spec = &ctx.specs[stream::replay_item(ctx.seed, k, n)];
        let _ = std::fs::remove_file(&report);
        let path = spec.path.display().to_string();
        let t = Instant::now();
        let exit = run_cli(ctx, &["run", &path, "--out", &report_arg])?;
        out.timed.push(Timed {
            latency_ms: t.elapsed().as_secs_f64() * 1e3,
            ok: exit.success,
        });
        out.cpu_s += exit.cpu_s;
        out.peak_rss_mb = out.peak_rss_mb.max(exit.peak_rss_mb);
        out.attempted += 1;
        if !exit.success {
            out.failed += 1;
        } else if report_fingerprint(&report).as_deref() != Some(spec.golden.as_str()) {
            out.problems.push(format!(
                "{}: report fingerprint {:?} != golden {}",
                spec.stem,
                report_fingerprint(&report),
                spec.golden
            ));
        }
        k += 1;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    probes.finish(&mut out)?;
    Ok(out)
}
