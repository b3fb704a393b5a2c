//! The persistent analysis service.
//!
//! A [`Server`] loads a scenario-spec environment **once** — every
//! `scenarios/*.toml|json` spec resolved through the same
//! [`load_spec_dir`] the offline CLI uses, each prepared into a
//! [`PreparedScenario`] holding a warm engine and solve cache — and
//! then serves `run-scenario` / `analyze` / `stats` requests against
//! that shared state for its whole lifetime. This is the cache-warm,
//! long-lived worker shape: request N+1 reuses every fixpoint request
//! N solved.
//!
//! # Request flow
//!
//! ```text
//! acceptor ──spawn──► connection thread (blocking reads, one per conn)
//!                          │ protocol::for_each_line → handle_line
//!                          │ parse, ping/shutdown inline
//!                          ▼
//!                    AdmissionQueue ──pop──► service worker
//!                       │ (bounded)            │ SLO check
//!                       │ full → queue-full    │ handle()
//!                       └── error, never block └──► sink
//! ```
//!
//! Every front end reads requests through one bounded line reader,
//! [`protocol::for_each_line`]: pipe mode ([`Server::run_pipe`]), each
//! TCP connection, and the fleet router. With `--listen`,
//! [`Server::serve_listener`] gives each accepted connection its own
//! thread running [`Server::attach`] over blocking reads. The
//! trade-off: each open connection costs one thread, which is cheap at
//! the tested 1–16 clients; nothing is tuned for far more.
//! Connection threads never compute: they parse, answer
//! `ping`/`shutdown` inline, and either admit the request into the
//! bounded [`AdmissionQueue`] or answer `queue-full` immediately —
//! overload degrades into clean rejections, not latency or memory.
//! Abusive input degrades the one connection, never the service: a
//! line exceeding [`ServerConfig::max_line_bytes`] gets
//! `request-too-large` and a close; a partial line stalled past
//! [`ServerConfig::stall_timeout_ms`] (the slow-loris shape, caught by
//! the socket's read timeout) gets an error and a close. An idle
//! connection with no partial line costs a blocked thread and nothing
//! else.
//!
//! Service workers ([`Server::start_workers`]) pop, execute, and write
//! the response to the request's connection sink (a mutex-serialized
//! writer, so concurrent responses interleave by whole lines). Before
//! executing, a worker checks the request's age against
//! [`ServerConfig::shed_after_ms`]: a request that already waited past
//! the SLO is answered `slo-shed` without computing — under sustained
//! overload the queue stays short and fresh requests still meet the
//! SLO, instead of every response arriving uselessly late. Every
//! response's admission→response latency lands in a
//! [`LatencyHistogram`] surfaced by `stats`.
//!
//! # The persistent cache tier
//!
//! With [`ServerConfig::cache_dir`] set, each scenario's solve cache
//! gains a disk life (see [`crate::persist`]): entries recovered from
//! the scenario's segment directory are preloaded at startup, and new
//! insertions are drained from the cache's spill log after each
//! request and appended as checksummed records. A restarted server
//! therefore answers its first replay with cache hits
//! ([`tadfa_core::CacheStats::preloaded`] > 0) and byte-identical
//! fingerprints. [`ServerConfig::warm_golden`] additionally runs every
//! scenario once at startup, verifying each fingerprint against its
//! committed golden before the first client connects.
//!
//! `reload` re-resolves the spec directory and atomically swaps the
//! environment map; requests already admitted keep the environment
//! they resolve at execution time, so nothing in flight is dropped.
//! The fresh environment re-preloads from disk, so a reload keeps the
//! cache warm too.
//!
//! # Determinism contract
//!
//! A `run-scenario` response's fingerprint is **byte-identical** to
//! the offline `tadfa run` golden for the same spec, no matter how
//! warm the cache is, how many requests run concurrently, what
//! per-request worker count was asked for — or whether the cache
//! entry was computed in this process or recovered from disk (the
//! spill codec round-trips exact bits). The solve cache keys on exact
//! bit patterns and scenario runs share no mutable state, so the
//! service cannot drift from the batch CLI — `tadfa-load` replays the
//! committed specs against a live server and CI fails if even one
//! byte of fingerprint moves.

use crate::latency::LatencyHistogram;
use crate::persist::SegmentStore;
use crate::protocol::{self, kind, LinesEnd, Op, Request};
use crate::queue::{AdmissionQueue, QueueStats, RejectReason};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use tadfa_core::TadfaError;
use tadfa_sched::json::{self, escape};
use tadfa_sched::spec::SpecError;
use tadfa_sched::{hex_fingerprint, load_spec_dir, PreparedScenario, RunOverrides};

/// How a [`Server`] is built: where the scenario environment lives and
/// how much concurrency/buffering it gets.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Directory of `*.toml` / `*.json` scenario specs to load once at
    /// startup.
    pub scenario_dir: PathBuf,
    /// Admission-queue slots; a request arriving with every slot taken
    /// is rejected with `queue-full` (never buffered unboundedly).
    pub queue_capacity: usize,
    /// Service worker threads executing admitted requests.
    pub service_workers: usize,
    /// Override every scenario's configured engine worker count (the
    /// deployment knob; per-request `workers` still wins per call).
    pub engine_workers: Option<usize>,
    /// Root of the persistent solve-cache tier; each scenario gets a
    /// segment directory under it. `None` keeps the cache
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// The queueing-latency SLO: a request still unstarted this many
    /// milliseconds after admission is answered `slo-shed` instead of
    /// computed. `None` never sheds.
    pub shed_after_ms: Option<u64>,
    /// Per-connection request-line size cap; a line growing past it is
    /// answered `request-too-large` and the connection closed.
    pub max_line_bytes: usize,
    /// How long a *partial* request line may sit without new bytes
    /// before the connection is closed as a slow-loris. Idle
    /// connections with no partial line are never reaped.
    pub stall_timeout_ms: u64,
    /// When set, run every scenario once at startup and verify its
    /// fingerprint against `<dir>/<stem>.json` before serving (also
    /// populates the cache — and, with `cache_dir`, the disk tier).
    pub warm_golden: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            scenario_dir: PathBuf::from("scenarios"),
            queue_capacity: 64,
            service_workers: 4,
            engine_workers: None,
            cache_dir: None,
            shed_after_ms: None,
            max_line_bytes: 1 << 20,
            stall_timeout_ms: 10_000,
            warm_golden: None,
        }
    }
}

/// A service startup failure.
#[derive(Debug)]
pub enum ServeError {
    /// The scenario environment failed to resolve.
    Spec(SpecError),
    /// A resolved scenario failed to prepare (engine/session build).
    Prepare {
        /// The failing scenario's stem.
        scenario: String,
        /// Why preparation failed.
        source: TadfaError,
    },
    /// The persistent cache tier failed to open (real I/O, not
    /// corruption — corrupt records are skipped, not raised).
    Persist {
        /// The scenario whose segment directory failed.
        scenario: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Startup warming found a scenario whose fingerprint does not
    /// match its committed golden — serving would violate the
    /// determinism contract, so the server refuses to start.
    Warm {
        /// The mismatching scenario's stem.
        scenario: String,
        /// What went wrong (mismatch, unreadable golden, run failure).
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Spec(e) => write!(f, "{e}"),
            ServeError::Prepare { scenario, source } => {
                write!(f, "cannot prepare scenario '{scenario}': {source}")
            }
            ServeError::Persist { scenario, source } => {
                write!(
                    f,
                    "cannot open cache tier for scenario '{scenario}': {source}"
                )
            }
            ServeError::Warm { scenario, message } => {
                write!(
                    f,
                    "golden warm-up failed for scenario '{scenario}': {message}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Spec(e) => Some(e),
            ServeError::Prepare { source, .. } => Some(source),
            ServeError::Persist { source, .. } => Some(source),
            ServeError::Warm { .. } => None,
        }
    }
}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> ServeError {
        ServeError::Spec(e)
    }
}

/// A connection's response sink: whole lines, serialized by the mutex.
pub type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wraps a writer into a [`Sink`].
pub fn sink(w: impl Write + Send + 'static) -> Sink {
    Arc::new(Mutex::new(Box::new(w)))
}

/// Writes one response line to a sink (errors ignored: a vanished
/// client must not take the service down).
pub fn write_line(out: &Sink, line: &str) {
    let mut w = out.lock().expect("sink poisoned");
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// One admitted unit of work: the request, when it was admitted (the
/// deadline/SLO epoch), and where its response goes.
struct Job {
    request: Request,
    admitted: Instant,
    out: Sink,
}

/// One loaded scenario environment plus its served-request counters
/// and (optionally) its slice of the persistent cache tier.
struct ScenarioEnv {
    prepared: PreparedScenario,
    store: Option<SegmentStore>,
    runs: AtomicU64,
    analyzes: AtomicU64,
    module_analyzes: AtomicU64,
}

/// The environment map: swapped whole on `reload`, so readers clone
/// the `Arc` and never see a half-built map; in-flight requests keep
/// whichever map they resolved.
type EnvMap = BTreeMap<String, Arc<ScenarioEnv>>;

/// The shared server state; [`Server`] handles are cheap clones.
struct Inner {
    cfg: ServerConfig,
    envs: RwLock<Arc<EnvMap>>,
    queue: AdmissionQueue<Job>,
    shutdown: AtomicBool,
    served_ok: AtomicU64,
    served_err: AtomicU64,
    shed: AtomicU64,
    persist_errors: AtomicU64,
    latency: LatencyHistogram,
}

/// The persistent analysis service. See the [module docs](self) for
/// the request flow and determinism contract.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("scenarios", &self.envs().len())
            .field("queue", &self.inner.queue.stats())
            .finish()
    }
}

impl Server {
    /// Loads the scenario environment and prepares every scenario's
    /// engine — the one-time startup cost a persistent service
    /// amortizes over its whole lifetime. With a cache directory
    /// configured, each cache is preloaded from its segment files;
    /// with a golden directory configured, every scenario is run once
    /// and fingerprint-verified before the server is handed back.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] for an unloadable spec directory, the
    /// first scenario that fails to prepare, an unopenable cache
    /// directory, or a golden-warming fingerprint mismatch.
    pub fn load(cfg: &ServerConfig) -> Result<Server, ServeError> {
        let envs = build_envs(cfg)?;
        let server = Server {
            inner: Arc::new(Inner {
                cfg: cfg.clone(),
                envs: RwLock::new(Arc::new(envs)),
                queue: AdmissionQueue::new(cfg.queue_capacity),
                shutdown: AtomicBool::new(false),
                served_ok: AtomicU64::new(0),
                served_err: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                persist_errors: AtomicU64::new(0),
                latency: LatencyHistogram::new(),
            }),
        };
        if let Some(golden) = cfg.warm_golden.clone() {
            server.warm_from_golden(&golden)?;
        }
        Ok(server)
    }

    /// The current environment map (a cheap snapshot; `reload` swaps
    /// the map under readers without blocking them).
    fn envs(&self) -> Arc<EnvMap> {
        Arc::clone(&self.inner.envs.read().expect("env map poisoned"))
    }

    /// The loaded scenario stems, sorted (the `scenario` values
    /// requests may name).
    pub fn scenario_names(&self) -> Vec<String> {
        self.envs().keys().cloned().collect()
    }

    /// Whether a `shutdown` request has been observed.
    pub fn shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Relaxed)
    }

    /// The admission queue's counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.inner.queue.stats()
    }

    /// Runs every scenario with a committed golden once, verifying the
    /// fingerprint — the startup self-check that a server about to
    /// receive traffic cannot violate the determinism contract. Also
    /// fills the caches (and through the spill path, the disk tier).
    fn warm_from_golden(&self, dir: &Path) -> Result<(), ServeError> {
        let envs = self.envs();
        for (stem, env) in envs.iter() {
            let path = dir.join(format!("{stem}.json"));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue; // scenario without a committed golden
            };
            let expected = json::parse(&text)
                .ok()
                .and_then(|d| {
                    d.get("fingerprint")
                        .and_then(|v| v.as_str().map(str::to_string))
                })
                .ok_or_else(|| ServeError::Warm {
                    scenario: stem.clone(),
                    message: format!("golden {} has no fingerprint", path.display()),
                })?;
            let result = env.prepared.run().map_err(|e| ServeError::Warm {
                scenario: stem.clone(),
                message: e.to_string(),
            })?;
            let got = hex_fingerprint(result.fingerprint());
            if got != expected {
                return Err(ServeError::Warm {
                    scenario: stem.clone(),
                    message: format!("fingerprint {got} does not match golden {expected}"),
                });
            }
        }
        self.persist_new_entries();
        Ok(())
    }

    /// Drains every scenario cache's spill log to its segment store —
    /// called after each handled request, so an entry is on disk (OS
    /// page cache at least) before the *next* response goes out.
    /// Append failures are counted, not raised: a full disk degrades
    /// persistence, not service.
    fn persist_new_entries(&self) {
        let envs = self.envs();
        for env in envs.values() {
            let Some(store) = &env.store else { continue };
            let entries = env.prepared.solve_cache().drain_spill_log();
            if entries.is_empty() {
                continue;
            }
            if store.append(&entries).is_err() {
                self.inner.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Executes one request synchronously and renders its response
    /// line. This is the computation the service workers run per
    /// admitted job; it is public so embedders and tests can drive the
    /// service without threads or sockets. Applies the shedding SLO
    /// (a request older than `shed_after_ms` is answered without
    /// computing), records the admission→response latency, and drains
    /// fresh cache entries to the persistent tier.
    pub fn handle(&self, req: &Request, admitted: Instant) -> String {
        let shed = self
            .inner
            .cfg
            .shed_after_ms
            .is_some_and(|ms| admitted.elapsed() >= Duration::from_millis(ms));
        let line = if shed {
            self.inner.shed.fetch_add(1, Ordering::Relaxed);
            self.inner.served_err.fetch_add(1, Ordering::Relaxed);
            protocol::error_response(
                Some(req.id),
                kind::SLO_SHED,
                &format!(
                    "request waited past the {} ms SLO; shed without computing — retry",
                    self.inner.cfg.shed_after_ms.unwrap_or_default()
                ),
            )
        } else {
            match self.dispatch(req, admitted) {
                Ok(line) => {
                    self.inner.served_ok.fetch_add(1, Ordering::Relaxed);
                    line
                }
                Err(line) => {
                    self.inner.served_err.fetch_add(1, Ordering::Relaxed);
                    line
                }
            }
        };
        let elapsed = admitted.elapsed();
        self.inner
            .latency
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        self.persist_new_entries();
        line
    }

    fn env<'e>(&self, envs: &'e EnvMap, id: u64, stem: &str) -> Result<&'e ScenarioEnv, String> {
        envs.get(stem).map(Arc::as_ref).ok_or_else(|| {
            protocol::error_response(
                Some(id),
                kind::UNKNOWN_SCENARIO,
                &format!(
                    "no scenario '{stem}' loaded (available: {})",
                    self.scenario_names().join(", ")
                ),
            )
        })
    }

    /// `Ok` carries a success line, `Err` an error line — the split
    /// the served-ok/served-err counters key on.
    fn dispatch(&self, req: &Request, admitted: Instant) -> Result<String, String> {
        let id = req.id;
        let envs = self.envs();
        let deadline = |ms: &Option<u64>| ms.map(|ms| admitted + Duration::from_millis(ms));
        match &req.op {
            Op::RunScenario {
                scenario,
                workers,
                deadline_ms,
            } => {
                let env = self.env(&envs, id, scenario)?;
                let over = RunOverrides {
                    workers: *workers,
                    deadline: deadline(deadline_ms),
                };
                match env.prepared.run_with(&over) {
                    Ok(result) => {
                        env.runs.fetch_add(1, Ordering::Relaxed);
                        Ok(protocol::scenario_response(id, scenario, &result))
                    }
                    Err(TadfaError::DeadlineExceeded) => Err(protocol::error_response(
                        Some(id),
                        kind::DEADLINE_EXCEEDED,
                        &format!("scenario '{scenario}' abandoned: deadline passed"),
                    )),
                    Err(e) => Err(protocol::error_response(
                        Some(id),
                        kind::ANALYSIS_FAILED,
                        &e.to_string(),
                    )),
                }
            }
            Op::Analyze {
                scenario,
                source,
                workers,
                deadline_ms,
            } => {
                let env = self.env(&envs, id, scenario)?;
                let func = tadfa_ir::parse_function(source).map_err(|e| {
                    protocol::error_response(
                        Some(id),
                        kind::ANALYSIS_FAILED,
                        &format!("source does not parse: {e}"),
                    )
                })?;
                let opts = RunOverrides {
                    workers: *workers,
                    deadline: deadline(deadline_ms),
                };
                let funcs = [func];
                let mut results = env
                    .prepared
                    .engine()
                    .analyze_batch_parallel_opts(&funcs, &opts);
                match results.pop().expect("one item in, one result out") {
                    Ok(report) => {
                        env.analyzes.fetch_add(1, Ordering::Relaxed);
                        Ok(protocol::analyze_response(
                            id,
                            scenario,
                            funcs[0].name(),
                            report.fingerprint(),
                            report.peak_temperature(),
                            report.convergence().is_converged(),
                        ))
                    }
                    Err(TadfaError::DeadlineExceeded) => Err(protocol::error_response(
                        Some(id),
                        kind::DEADLINE_EXCEEDED,
                        "analysis abandoned: deadline passed",
                    )),
                    Err(e) => Err(protocol::error_response(
                        Some(id),
                        kind::ANALYSIS_FAILED,
                        &e.to_string(),
                    )),
                }
            }
            Op::AnalyzeModule {
                scenario,
                source,
                workers,
                deadline_ms,
            } => {
                let env = self.env(&envs, id, scenario)?;
                let module = tadfa_ir::parse_module(source).map_err(|e| {
                    protocol::error_response(
                        Some(id),
                        kind::ANALYSIS_FAILED,
                        &format!("source does not parse: {e}"),
                    )
                })?;
                let opts = RunOverrides {
                    workers: *workers,
                    deadline: deadline(deadline_ms),
                };
                match env.prepared.engine().analyze_module_opts(&module, &opts) {
                    Ok(report) => {
                        env.module_analyzes.fetch_add(1, Ordering::Relaxed);
                        let names: Vec<&str> = report.names().collect();
                        let converged = report
                            .reports()
                            .iter()
                            .all(|r| r.convergence().is_converged());
                        Ok(protocol::analyze_module_response(
                            id,
                            scenario,
                            &names,
                            report.fingerprint(),
                            report.peak_temperature(),
                            converged,
                        ))
                    }
                    Err(TadfaError::DeadlineExceeded) => Err(protocol::error_response(
                        Some(id),
                        kind::DEADLINE_EXCEEDED,
                        "module analysis abandoned: deadline passed",
                    )),
                    Err(e) => Err(protocol::error_response(
                        Some(id),
                        kind::ANALYSIS_FAILED,
                        &e.to_string(),
                    )),
                }
            }
            Op::Stats => Ok(self.stats_response(id)),
            Op::Reload => self.reload(id),
            Op::Ping => Ok(protocol::pong_response(id)),
            Op::Shutdown => Ok(protocol::shutdown_response(id)),
        }
    }

    /// Re-resolves and re-prepares the scenario directory, swapping
    /// the environment map atomically on success. Requests admitted
    /// before the swap resolve their scenario at execution time —
    /// against whichever map is then current — so nothing in flight
    /// is dropped; on failure the previous environment stays in
    /// service untouched. The fresh environment preloads from the
    /// cache tier (new segment files, so old and new appends never
    /// interleave).
    fn reload(&self, id: u64) -> Result<String, String> {
        match build_envs(&self.inner.cfg) {
            Ok(envs) => {
                let n = envs.len();
                *self.inner.envs.write().expect("env map poisoned") = Arc::new(envs);
                Ok(protocol::reload_response(id, n))
            }
            Err(e) => Err(protocol::error_response(
                Some(id),
                kind::RELOAD_FAILED,
                &format!("environment unchanged: {e}"),
            )),
        }
    }

    /// Renders the `stats` response: per-scenario request, cache, and
    /// persistence counters (sorted by stem), queue admission
    /// counters, the latency histogram, and served totals. The
    /// `rejected_stores` field is the capacity-overflow signal the
    /// solve cache counts instead of dropping silently; `preloaded`
    /// and the `persist` block are the disk tier's health, `shed` the
    /// SLO policy's.
    fn stats_response(&self, id: u64) -> String {
        let envs = self.envs();
        let mut scenarios = String::new();
        for (i, (stem, env)) in envs.iter().enumerate() {
            let c = env.prepared.cache_stats();
            if i > 0 {
                scenarios.push_str(", ");
            }
            scenarios.push_str(&format!(
                "{{\"name\": {}, \"runs\": {}, \"analyzes\": {}, \
                 \"module_analyzes\": {}, \
                 \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \
                 \"rejected_stores\": {}, \"summary_hits\": {}, \"summary_stores\": {}, \
                 \"preloaded\": {}}}",
                escape(stem),
                env.runs.load(Ordering::Relaxed),
                env.analyzes.load(Ordering::Relaxed),
                env.module_analyzes.load(Ordering::Relaxed),
                c.hits,
                c.misses,
                c.entries,
                c.rejected_stores,
                c.summary_hits,
                c.summary_stores,
                c.preloaded,
            ));
            if let Some(store) = &env.store {
                let p = store.stats();
                scenarios.push_str(&format!(
                    ", \"persist\": {{\"loaded\": {}, \"skipped\": {}, \"appended\": {}, \
                     \"segments\": {}}}",
                    p.loaded, p.skipped, p.appended, p.segments,
                ));
            }
            scenarios.push('}');
        }
        let q = self.inner.queue.stats();
        let l = self.inner.latency.snapshot();
        format!(
            "{{\"id\": {id}, \"ok\": true, \"op\": \"stats\", \"scenarios\": [{scenarios}], \
             \"queue\": {{\"accepted\": {}, \"rejected\": {}, \"peak_depth\": {}, \
             \"depth\": {}, \"capacity\": {}}}, \
             \"latency\": {{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"max_ns\": {}}}, \
             \"requests\": {{\"ok\": {}, \"errors\": {}, \"shed\": {}, \"persist_errors\": {}}}}}",
            q.accepted,
            q.rejected,
            q.peak_depth,
            q.depth,
            q.capacity,
            l.count,
            l.mean_ns,
            l.p50_ns,
            l.p99_ns,
            l.p999_ns,
            l.max_ns,
            self.inner.served_ok.load(Ordering::Relaxed),
            self.inner.served_err.load(Ordering::Relaxed),
            self.inner.shed.load(Ordering::Relaxed),
            self.inner.persist_errors.load(Ordering::Relaxed),
        )
    }

    /// Spawns `n` service workers that pop admitted jobs, execute them,
    /// and write responses to each job's sink. Workers exit when the
    /// queue is closed and drained; join the handles to wait for that.
    pub fn start_workers(&self, n: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..n.max(1))
            .map(|_| {
                let server = self.clone();
                std::thread::spawn(move || {
                    while let Some(job) = server.inner.queue.pop() {
                        let line = server.handle(&job.request, job.admitted);
                        write_line(&job.out, &line);
                    }
                })
            })
            .collect()
    }

    /// Processes one complete request line: parse, answer
    /// `ping`/`shutdown` inline, admit everything else into the
    /// bounded queue — or answer `queue-full` immediately when no slot
    /// is free. Returns `true` when the line requested shutdown. This
    /// is the one request path pipe mode and TCP connections share.
    fn handle_line(&self, line: &str, out: &Sink) -> bool {
        match protocol::parse_request(line) {
            Err(e) => {
                write_line(
                    out,
                    &protocol::error_response(e.id, kind::BAD_REQUEST, &e.message),
                );
                false
            }
            Ok(req) => match req.op {
                // Liveness probes bypass the queue: a loaded
                // service must still answer "are you there".
                Op::Ping => {
                    write_line(out, &protocol::pong_response(req.id));
                    false
                }
                Op::Shutdown => {
                    self.inner.shutdown.store(true, Ordering::Relaxed);
                    self.inner.queue.close();
                    write_line(out, &protocol::shutdown_response(req.id));
                    true
                }
                _ => {
                    let job = Job {
                        request: req,
                        admitted: Instant::now(),
                        out: Arc::clone(out),
                    };
                    if let Err((job, reason)) = self.inner.queue.try_push(job) {
                        let (error_kind, message) = match reason {
                            RejectReason::Full => (
                                kind::QUEUE_FULL,
                                format!(
                                    "admission queue full (capacity {}); retry later",
                                    self.inner.queue.stats().capacity
                                ),
                            ),
                            RejectReason::Closed => (
                                kind::SHUTTING_DOWN,
                                "service is shutting down; do not retry here".to_string(),
                            ),
                        };
                        write_line(
                            out,
                            &protocol::error_response(Some(job.request.id), error_kind, &message),
                        );
                    }
                    false
                }
            },
        }
    }

    /// Runs one connection's request loop until EOF or `shutdown`,
    /// reading lines through [`protocol::for_each_line`] — the pipe
    /// mode and every TCP connection's thread. Returns `true` when the
    /// loop ended because this connection requested shutdown.
    ///
    /// A line over [`ServerConfig::max_line_bytes`] is answered
    /// `request-too-large`, and a partial line stalled past the
    /// reader's read timeout is answered `bad-request`; either ends the
    /// loop. A read timeout with no partial line is an idle keep-alive:
    /// the loop keeps waiting until the server shuts down.
    ///
    /// # Errors
    ///
    /// Propagates read errors from the connection; write errors are
    /// swallowed (a vanished client must not take the service down).
    pub fn attach(&self, mut reader: impl Read, out: &Sink) -> std::io::Result<bool> {
        let max_line = self.inner.cfg.max_line_bytes;
        let (error_kind, message) = loop {
            match protocol::for_each_line(&mut reader, max_line, |line| self.handle_line(line, out))
            {
                LinesEnd::Idle if !self.shutting_down() => {}
                LinesEnd::Eof | LinesEnd::Idle => return Ok(false),
                LinesEnd::Stopped => return Ok(true),
                LinesEnd::Io(e) => return Err(e),
                LinesEnd::TooLarge => {
                    break (
                        kind::REQUEST_TOO_LARGE,
                        format!("request line exceeds {max_line} bytes; closing connection"),
                    )
                }
                LinesEnd::Stalled => {
                    break (
                        kind::BAD_REQUEST,
                        "partial request line stalled; closing slow connection".to_string(),
                    )
                }
            }
        };
        write_line(out, &protocol::error_response(None, error_kind, &message));
        Ok(false)
    }

    /// Closes the admission queue (drain-and-exit signal for workers).
    pub fn close(&self) {
        self.inner.queue.close();
    }

    /// Serves one stdin/stdout session — the CI pipe mode. Workers are
    /// started, the read loop runs to EOF or `shutdown`, then the
    /// backlog drains and every worker is joined before returning.
    ///
    /// # Errors
    ///
    /// Propagates stdin read errors.
    pub fn run_pipe(&self) -> std::io::Result<()> {
        let workers = self.start_workers(self.inner.cfg.service_workers);
        let out = sink(std::io::stdout());
        let result = self.attach(std::io::stdin().lock(), &out);
        self.close();
        for w in workers {
            let _ = w.join();
        }
        result.map(|_| ())
    }

    /// Serves TCP connections on `addr` until a client sends
    /// `shutdown`. See [`serve_listener`](Server::serve_listener).
    ///
    /// # Errors
    ///
    /// Propagates bind errors and fatal accept errors.
    pub fn run_tcp(&self, addr: &str) -> std::io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        eprintln!(
            "tadfa-serve: listening on {} ({} scenarios loaded)",
            listener.local_addr()?,
            self.envs().len()
        );
        self.serve_listener(listener)
    }

    /// Serves an already-bound listener until a client sends
    /// `shutdown`: each accepted connection gets its own thread running
    /// [`attach`](Server::attach) over blocking reads, all feeding the
    /// one bounded queue and shared worker pool. The connection's read
    /// timeout is [`ServerConfig::stall_timeout_ms`], so a stalled
    /// partial line is reaped while an idle connection just waits.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept errors (per-connection failures are
    /// absorbed).
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let workers = self.start_workers(self.inner.cfg.service_workers);
        let accept_result = loop {
            if self.shutting_down() {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = self.clone();
                    std::thread::spawn(move || server.serve_conn(&stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    // A client that vanished mid-handshake is its
                    // problem, not the listener's.
                }
                Err(e) => break Err(e),
            }
        };
        // Shutdown (or a fatal accept error): stop admitting, let the
        // backlog drain, and join the workers before returning.
        // Connection threads end on their own at their next read.
        self.inner.shutdown.store(true, Ordering::Relaxed);
        self.close();
        for w in workers {
            let _ = w.join();
        }
        accept_result
    }

    /// One TCP connection's thread: blocking reads bounded by the stall
    /// timeout, writes bounded by [`WRITE_PATIENCE`], then the shared
    /// request loop. Responses to requests still queued when the loop
    /// ends go out through the sink's own handle on the socket.
    fn serve_conn(&self, stream: &TcpStream) {
        let stall = Duration::from_millis(self.inner.cfg.stall_timeout_ms.max(1));
        let setup = stream
            .set_nonblocking(false)
            // Request/response lines are small; Nagle queuing them
            // behind a delayed ACK costs ~40ms per hop.
            .and_then(|()| stream.set_nodelay(true))
            .and_then(|()| stream.set_read_timeout(Some(stall)))
            .and_then(|()| stream.set_write_timeout(Some(WRITE_PATIENCE)))
            .and_then(|()| stream.try_clone());
        if let Ok(write_half) = setup {
            let _ = self.attach(stream, &sink(write_half));
        }
    }
}

/// Builds the scenario environment map: resolve specs, prepare
/// engines, and (when configured) open each scenario's segment
/// directory, preload its records, and arm the spill log.
fn build_envs(cfg: &ServerConfig) -> Result<EnvMap, ServeError> {
    let mut envs = BTreeMap::new();
    for (stem, mut scenario_cfg) in load_spec_dir(&cfg.scenario_dir)? {
        if let Some(w) = cfg.engine_workers {
            scenario_cfg.workers = w.max(1);
        }
        let prepared =
            PreparedScenario::prepare(scenario_cfg).map_err(|source| ServeError::Prepare {
                scenario: stem.clone(),
                source,
            })?;
        let store = match &cfg.cache_dir {
            None => None,
            Some(dir) => {
                let (store, report) =
                    SegmentStore::open(&dir.join(&stem)).map_err(|source| ServeError::Persist {
                        scenario: stem.clone(),
                        source,
                    })?;
                let cache = prepared.solve_cache();
                cache.preload_entries(report.entries);
                cache.enable_spill_log();
                Some(store)
            }
        };
        envs.insert(
            stem,
            Arc::new(ScenarioEnv {
                prepared,
                store,
                runs: AtomicU64::new(0),
                analyzes: AtomicU64::new(0),
                module_analyzes: AtomicU64::new(0),
            }),
        );
    }
    Ok(envs)
}

/// How long a response write may block before the client is declared
/// stuck and the write abandoned (errors are swallowed at the sink).
/// Bounds how long one unread-ing client can hold a service worker.
const WRITE_PATIENCE: Duration = Duration::from_secs(5);
