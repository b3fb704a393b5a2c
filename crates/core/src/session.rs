//! The `Session` façade: one stable entry point for the whole pipeline.
//!
//! The paper's flow — allocate → thermal DFA → critical set → (optimize)
//! → re-analyse — used to require every caller to hand-wire five
//! objects (`RegisterFile`, `AnalysisGrid`, `PowerModel`,
//! `ThermalDfaConfig`, a policy) per call. A [`Session`] owns all of
//! that state once: the register file, the analysis grid (the expensive
//! RC model construction), the power model, and every config are chosen
//! in one place at build time and reused across [`Session::analyze`]
//! calls — the batch-oriented shape that production serving and every
//! future scaling change (sharding, caching, async) builds on.
//!
//! Internally a session is two halves:
//!
//! * a [`SessionCore`] — the validated, immutable analysis state
//!   (geometry, grid, power model, configs), held in an
//!   [`Arc`] so the parallel [`Engine`](crate::engine::Engine) can
//!   share it across worker threads without copying the RC model;
//! * per-call state — the assignment policy object and reusable
//!   scratch buffers — which stays private to the session (one logical
//!   thread of analysis).
//!
//! # Determinism contract
//!
//! [`Session::analyze`] is a pure function of the session configuration
//! and the input function: it does not retain state between calls
//! (allocation resets the policy, and every built-in policy's
//! [`reset`](tadfa_regalloc::AssignmentPolicy::reset) restores its
//! initial state). Consequently [`Session::analyze_batch`] is
//! order-stable: report `k` depends only on `funcs[k]`, never on the
//! other items, the batch size, or previous batches. The configuration
//! is fixed for the whole batch — `set_*` reconfiguration requires
//! `&mut self` and therefore cannot interleave with a running batch.
//! The regression tests in `tests/engine_parallel.rs` pin this down.
//!
//! All validation happens in [`SessionBuilder::build`] and the
//! `set_*` reconfiguration methods, and failures are reported as
//! [`TadfaError`] values — no panic is reachable through the façade.
//! Non-convergence of the fixpoint is *not* an error: it is reported as
//! data via [`Convergence`](crate::Convergence) on the returned
//! [`ThermalReport`].
//!
//! # Example
//!
//! ```
//! use tadfa_core::Session;
//!
//! let w = tadfa_workloads::fibonacci();
//! let mut session = Session::builder().floorplan(8, 8).build()?;
//! let report = session.analyze(&w.func)?;
//! assert!(report.convergence().is_converged());
//! assert!(report.peak_temperature() > report.ambient());
//! # Ok::<(), tadfa_core::TadfaError>(())
//! ```

use crate::cache::SolveCache;
use crate::config::{Convergence, ThermalDfaConfig};
use crate::critical::{CriticalConfig, CriticalSet};
use crate::dfa::{DfaScratch, ThermalDfa, ThermalDfaResult};
use crate::error::TadfaError;
use crate::grid::AnalysisGrid;
use crate::predictive::{PredictiveConfig, PredictiveDfa, PredictiveResult};
use crate::summary::ThermalSummary;
use std::collections::HashMap;
use std::sync::Arc;
use tadfa_ir::{CallGraph, Function, Module};
use tadfa_regalloc::{
    allocate_linear_scan, policy_by_name, AllocStats, AllocationResult, Assignment,
    AssignmentPolicy, RegAllocConfig,
};
use tadfa_thermal::hashing::Fnv128;
use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile, ThermalState};

/// Callee summaries by function name — what a module member's call
/// sites resolve against.
pub(crate) type Summaries = HashMap<String, Arc<ThermalSummary>>;

/// How the builder was asked to pick the assignment policy.
enum PolicySpec {
    /// Resolve a built-in policy by name at build time.
    Named(String, u64),
    /// Use this policy object directly.
    Boxed(Box<dyn AssignmentPolicy>),
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySpec::Named(name, seed) => write!(f, "Named({name:?}, {seed})"),
            PolicySpec::Boxed(p) => write!(f, "Boxed({})", p.name()),
        }
    }
}

/// Builder for a [`Session`].
///
/// Every knob has the paper's default; only the floorplan geometry is
/// required. Nothing is validated until [`SessionBuilder::build`], which
/// reports every problem as a [`TadfaError`].
#[derive(Debug)]
pub struct SessionBuilder {
    rows: usize,
    cols: usize,
    rc: RcParams,
    power: PowerModel,
    dfa: ThermalDfaConfig,
    alloc: RegAllocConfig,
    critical: CriticalConfig,
    predictive: PredictiveConfig,
    granularity: Option<(usize, usize)>,
    policy: PolicySpec,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder {
            rows: 8,
            cols: 8,
            rc: RcParams::default(),
            power: PowerModel::default(),
            dfa: ThermalDfaConfig::default(),
            alloc: RegAllocConfig::default(),
            critical: CriticalConfig::default(),
            predictive: PredictiveConfig::default(),
            granularity: None,
            // Named so that default sessions stay replicable across
            // engine workers (the compiler default of §2).
            policy: PolicySpec::Named("first-free".to_string(), 0),
        }
    }
}

impl SessionBuilder {
    /// Register-file geometry: a `rows × cols` grid of cells (default
    /// 8×8, the paper's Fig. 1 panel).
    pub fn floorplan(mut self, rows: usize, cols: usize) -> SessionBuilder {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// RC thermal-model parameters (default: the calibrated constants).
    pub fn rc(mut self, rc: RcParams) -> SessionBuilder {
        self.rc = rc;
        self
    }

    /// Access-energy and leakage model (default: calibrated constants).
    pub fn power(mut self, power: PowerModel) -> SessionBuilder {
        self.power = power;
        self
    }

    /// Thermal-DFA parameters: δ, iteration cap, merge rule, timing.
    pub fn dfa_config(mut self, dfa: ThermalDfaConfig) -> SessionBuilder {
        self.dfa = dfa;
        self
    }

    /// Register-allocator parameters (spill-round budget).
    pub fn alloc_config(mut self, alloc: RegAllocConfig) -> SessionBuilder {
        self.alloc = alloc;
        self
    }

    /// Criticality-threshold parameters.
    pub fn critical_config(mut self, critical: CriticalConfig) -> SessionBuilder {
        self.critical = critical;
        self
    }

    /// Predictive (pre-assignment) analysis parameters.
    pub fn predictive_config(mut self, predictive: PredictiveConfig) -> SessionBuilder {
        self.predictive = predictive;
        self
    }

    /// Analysis-grid granularity: `rows × cols` analysis points over the
    /// physical floorplan (§3's accuracy/cost knob). Default: full
    /// resolution, one point per register cell.
    pub fn granularity(mut self, rows: usize, cols: usize) -> SessionBuilder {
        self.granularity = Some((rows, cols));
        self
    }

    /// Register-assignment policy object (default: the first-free
    /// compiler default of §2). A session built from a policy *object*
    /// cannot be replicated across [`Engine`](crate::engine::Engine)
    /// workers — prefer [`SessionBuilder::policy_name`] where possible.
    pub fn policy(mut self, policy: Box<dyn AssignmentPolicy>) -> SessionBuilder {
        self.policy = PolicySpec::Boxed(policy);
        self
    }

    /// Register-assignment policy by built-in name (`"first-free"`,
    /// `"random"`, `"chessboard"`, `"round-robin"`, `"farthest-spread"`,
    /// `"coldest-first"`); seeded policies use `seed`.
    pub fn policy_name(mut self, name: &str, seed: u64) -> SessionBuilder {
        self.policy = PolicySpec::Named(name.to_string(), seed);
        self
    }

    /// Validates every setting, builds the shared state, and returns the
    /// ready [`Session`].
    ///
    /// # Errors
    ///
    /// * [`TadfaError::EmptyFloorplan`] for a zero-sized register file;
    /// * [`TadfaError::InvalidConfig`] for non-positive RC parameters,
    ///   invalid DFA parameters, a zero allocator round budget, a
    ///   criticality fraction outside `[0, 1]`, or bad predictive
    ///   parameters;
    /// * [`TadfaError::EmptyGrid`] / [`TadfaError::GridTooFine`] for a
    ///   degenerate analysis granularity;
    /// * [`TadfaError::UnknownPolicy`] for an unrecognised policy name.
    pub fn build(self) -> Result<Session, TadfaError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(TadfaError::EmptyFloorplan {
                rows: self.rows,
                cols: self.cols,
            });
        }
        validate_rc(&self.rc)?;
        self.dfa.validate()?;
        self.predictive.validate()?;
        if self.alloc.max_rounds == 0 {
            return Err(TadfaError::InvalidConfig {
                param: "max_rounds",
                value: 0.0,
                reason: "allocator needs at least one round",
            });
        }
        validate_critical(&self.critical)?;

        let rf = RegisterFile::new(Floorplan::grid(self.rows, self.cols));
        let grid = match self.granularity {
            Some((gr, gc)) => AnalysisGrid::coarsened(&rf, self.rc, gr, gc)?,
            None => AnalysisGrid::full(&rf, self.rc),
        };
        let (policy, policy_spec) = match self.policy {
            PolicySpec::Boxed(p) => (p, None),
            PolicySpec::Named(name, seed) => {
                let p = policy_by_name(&name, &rf, seed)
                    .ok_or_else(|| TadfaError::UnknownPolicy(name.clone()))?;
                (p, Some((name, seed)))
            }
        };

        Ok(Session {
            core: Arc::new(SessionCore {
                rf,
                rc: self.rc,
                grid,
                power: self.power,
                dfa: self.dfa,
                alloc: self.alloc,
                critical: self.critical,
                predictive: self.predictive,
            }),
            policy,
            policy_spec,
            scratch: DfaScratch::default(),
        })
    }
}

fn validate_critical(critical: &CriticalConfig) -> Result<(), TadfaError> {
    if !(0.0..=1.0).contains(&critical.temp_fraction) {
        return Err(TadfaError::InvalidConfig {
            param: "temp_fraction",
            value: critical.temp_fraction,
            reason: "must lie in [0, 1]",
        });
    }
    Ok(())
}

fn validate_rc(rc: &RcParams) -> Result<(), TadfaError> {
    // Delegates to the thermal crate's error-first validation; lifted
    // into the façade's `InvalidConfig` shape for uniform reporting.
    rc.checked().map_err(|e| match e {
        tadfa_thermal::ThermalError::InvalidParam {
            param,
            value,
            reason,
        } => TadfaError::InvalidConfig {
            param,
            value,
            reason,
        },
        other => TadfaError::Thermal(other),
    })
}

/// The immutable, shareable half of a [`Session`]: register file,
/// analysis grid (with its RC model), power model, and every config —
/// everything the per-function pipeline reads but never writes.
///
/// A `SessionCore` is validated at construction (only
/// [`SessionBuilder::build`] makes one) and is `Send + Sync`, so the
/// parallel [`Engine`](crate::engine::Engine) shares one core across
/// its worker threads behind an [`Arc`]. The mutable ingredients of an
/// analysis — the policy object and scratch buffers — are passed *into*
/// [`SessionCore::analyze_with`] per call instead of living here.
#[derive(Clone, Debug)]
pub struct SessionCore {
    rf: RegisterFile,
    rc: RcParams,
    grid: AnalysisGrid,
    power: PowerModel,
    dfa: ThermalDfaConfig,
    alloc: RegAllocConfig,
    critical: CriticalConfig,
    predictive: PredictiveConfig,
}

impl SessionCore {
    /// Runs the full per-function pipeline against this core: allocate
    /// under `policy`, run the thermal DFA (through `cache` when given),
    /// and identify the critical variables. This is the engine's
    /// worker-side entry point; [`Session::analyze`] is the same call
    /// with the session's own policy and scratch.
    ///
    /// `func` itself is untouched; the allocated form (spill code
    /// included) is returned in the report.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Alloc`] if register allocation fails.
    pub fn analyze_with(
        &self,
        func: &Function,
        policy: &mut dyn AssignmentPolicy,
        scratch: &mut DfaScratch,
        cache: Option<&SolveCache>,
    ) -> Result<ThermalReport, TadfaError> {
        self.analyze_with_summaries(func, None, policy, scratch, cache)
    }

    /// [`analyze_with`](SessionCore::analyze_with) driven through the
    /// retained naive reference solver
    /// ([`ThermalDfa::run_reference`]) — the pre-optimization analysis
    /// path. Exists so the solver quickbench has an honest cold
    /// baseline and the suite-wide bit-identity tests
    /// (`tests/solver_identity.rs`) can compare whole reports; never
    /// the path to use in production.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Alloc`] if register allocation fails.
    pub fn analyze_with_reference_solver(
        &self,
        func: &Function,
        policy: &mut dyn AssignmentPolicy,
    ) -> Result<ThermalReport, TadfaError> {
        let (allocated, alloc, dfa) =
            self.with_dfa(func, None, policy, |dfa| Arc::new(dfa.run_reference()))?;
        self.finish_report(allocated, alloc, dfa)
    }

    /// [`analyze_with`](SessionCore::analyze_with) for a function whose
    /// `call` sites resolve against already-computed callee `summaries`
    /// (`None`: calls are an error) — the engine's worker-side entry
    /// point for batch items and module members alike.
    pub(crate) fn analyze_with_summaries(
        &self,
        func: &Function,
        summaries: Option<&Summaries>,
        policy: &mut dyn AssignmentPolicy,
        scratch: &mut DfaScratch,
        cache: Option<&SolveCache>,
    ) -> Result<ThermalReport, TadfaError> {
        let (allocated, alloc, dfa) =
            self.with_dfa(func, summaries, policy, |dfa| dfa.run_with(scratch, cache))?;
        self.finish_report(allocated, alloc, dfa)
    }

    /// Allocates `func` and flattens its [`ThermalSummary`], resolving
    /// call sites against already-computed callee `summaries` and
    /// memoising the summary in `cache` (see
    /// [`memo_summary`](Self::memo_summary)).
    pub(crate) fn summarize_with(
        &self,
        func: &Function,
        summaries: &Summaries,
        policy: &mut dyn AssignmentPolicy,
        cache: Option<&SolveCache>,
    ) -> Result<Arc<ThermalSummary>, TadfaError> {
        let (_, _, summary) = self.with_dfa(func, Some(summaries), policy, |dfa| {
            self.memo_summary(dfa, cache)
        })?;
        Ok(summary)
    }

    /// Runs the whole interprocedural pipeline for a module: verify
    /// (unknown callees, arity mismatches, and recursive cycles are
    /// typed errors), build the call graph, then walk its condensation
    /// bottom-up — every callee is summarised before any caller — and
    /// analyze each function with callee summaries replayed at its call
    /// sites. This is the sequential reference the parallel
    /// [`Engine::analyze_module`](crate::engine::Engine::analyze_module)
    /// is byte-identical to.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Verify`] for a module that fails
    /// verification (including [recursion]) and [`TadfaError::Alloc`]
    /// if any member fails allocation; the first failing function
    /// aborts the module.
    ///
    /// [recursion]: tadfa_ir::VerifyError::RecursiveCall
    pub fn analyze_module_with(
        &self,
        module: &Module,
        policy: &mut dyn AssignmentPolicy,
        scratch: &mut DfaScratch,
        cache: Option<&SolveCache>,
    ) -> Result<ModuleReport, TadfaError> {
        tadfa_ir::verify_module(module)?;
        let cg = CallGraph::build(module);
        let mut summaries = Summaries::new();
        let mut reports: Vec<Option<ThermalReport>> = (0..module.len()).map(|_| None).collect();
        for idx in cg.bottom_up() {
            let func = &module.functions()[idx];
            // One allocation yields both the member's summary and its
            // report.
            let (allocated, alloc, (summary, dfa)) =
                self.with_dfa(func, Some(&summaries), policy, |dfa| {
                    (self.memo_summary(dfa, cache), dfa.run_with(scratch, cache))
                })?;
            reports[idx] = Some(self.finish_report(allocated, alloc, dfa)?);
            summaries.insert(func.name().to_string(), summary);
        }
        Ok(ModuleReport {
            names: module.names().map(String::from).collect(),
            reports: reports
                .into_iter()
                .map(|r| r.expect("bottom-up order covers every function"))
                .collect(),
        })
    }

    /// The allocate-and-build step every analysis path shares: clones
    /// `func`, allocates the clone under `policy`, builds its
    /// [`ThermalDfa`] (call sites resolved against `summaries`; `None`
    /// rejects calls), and runs `then` on it. Returns the allocated
    /// function and allocation alongside `then`'s output.
    ///
    /// # Errors
    ///
    /// [`TadfaError::Alloc`] if register allocation fails, and the
    /// [`ThermalDfa`] constructor errors for unresolvable calls.
    fn with_dfa<T>(
        &self,
        func: &Function,
        summaries: Option<&Summaries>,
        policy: &mut dyn AssignmentPolicy,
        then: impl FnOnce(&ThermalDfa<'_>) -> T,
    ) -> Result<(Function, AllocationResult, T), TadfaError> {
        let mut allocated = func.clone();
        let alloc = allocate_linear_scan(&mut allocated, &self.rf, policy, &self.alloc)?;
        let dfa = ThermalDfa::build(
            &allocated,
            &alloc.assignment,
            &self.grid,
            self.power,
            self.dfa,
            summaries,
        )?;
        let out = then(&dfa);
        Ok((allocated, alloc, out))
    }

    /// The summary for `dfa`'s function, answered from the cache's
    /// summary memo when an identical body (same signature) was
    /// flattened before: the flatten runs at most once per distinct
    /// function body per cache lifetime, no matter how many modules or
    /// callers share it.
    fn memo_summary(
        &self,
        dfa: &ThermalDfa<'_>,
        cache: Option<&SolveCache>,
    ) -> Arc<ThermalSummary> {
        let Some(cache) = cache else {
            return Arc::new(dfa.summarize());
        };
        let key = dfa.signature();
        if let Some(hit) = cache.fetch_summary(key) {
            return hit;
        }
        let sum = Arc::new(dfa.summarize());
        cache.store_summary(key, &sum);
        sum
    }

    /// The pipeline tail shared by every analysis entry point:
    /// criticality ranking and upsampling onto the physical floorplan.
    fn finish_report(
        &self,
        allocated: Function,
        alloc: AllocationResult,
        dfa: Arc<ThermalDfaResult>,
    ) -> Result<ThermalReport, TadfaError> {
        let critical = CriticalSet::identify(
            &allocated,
            &alloc.assignment,
            &self.grid,
            dfa.as_ref(),
            &self.power,
            self.critical,
        );
        let predicted = self.grid.upsample(&dfa.peak_map())?;
        Ok(ThermalReport {
            func: allocated,
            assignment: alloc.assignment,
            alloc_stats: alloc.stats,
            dfa,
            critical,
            predicted,
        })
    }

    /// Runs the pre-assignment predictive analysis (§4's "more ambitious
    /// possibility") for `func`.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Alloc`] if the placement rehearsal cannot
    /// allocate.
    pub fn predict(&self, func: &Function) -> Result<PredictiveResult, TadfaError> {
        PredictiveDfa::new(func, &self.rf, self.rc, self.power, self.predictive).run()
    }

    /// The register file.
    pub fn register_file(&self) -> &RegisterFile {
        &self.rf
    }

    /// The analysis grid.
    pub fn grid(&self) -> &AnalysisGrid {
        &self.grid
    }

    /// The RC parameters (unscaled, physical).
    pub fn rc_params(&self) -> RcParams {
        self.rc
    }

    /// The power model.
    pub fn power_model(&self) -> PowerModel {
        self.power
    }

    /// The thermal-DFA configuration.
    pub fn dfa_config(&self) -> ThermalDfaConfig {
        self.dfa
    }

    /// The register-allocator configuration.
    pub fn alloc_config(&self) -> RegAllocConfig {
        self.alloc
    }

    /// The criticality configuration.
    pub fn critical_config(&self) -> CriticalConfig {
        self.critical
    }

    /// The predictive-analysis configuration.
    pub fn predictive_config(&self) -> PredictiveConfig {
        self.predictive
    }

    /// A copy of this core with the given overrides applied, re-running
    /// the same validation as [`SessionBuilder::build`]. The sweep
    /// machinery uses this to derive one core per sweep configuration;
    /// only a granularity change rebuilds the grid.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] / grid errors exactly as
    /// the builder would.
    pub fn derived(
        &self,
        dfa: Option<ThermalDfaConfig>,
        critical: Option<CriticalConfig>,
        granularity: Option<(usize, usize)>,
    ) -> Result<SessionCore, TadfaError> {
        let mut core = self.clone();
        if let Some(dfa) = dfa {
            dfa.validate()?;
            core.dfa = dfa;
        }
        if let Some(critical) = critical {
            validate_critical(&critical)?;
            core.critical = critical;
        }
        if let Some((rows, cols)) = granularity {
            core.grid = AnalysisGrid::coarsened(&core.rf, core.rc, rows, cols)?;
        }
        Ok(core)
    }
}

/// The unified analysis façade: owns register file, analysis grid, power
/// model, policy, and all configs, and runs the paper's pipeline for any
/// number of functions.
///
/// Construct with [`Session::builder`]. The source module's docs cover
/// the rationale, the determinism contract, and an example. For
/// multi-core batches, share this session's core with an
/// [`Engine`](crate::engine::Engine).
#[derive(Debug)]
pub struct Session {
    core: Arc<SessionCore>,
    policy: Box<dyn AssignmentPolicy>,
    /// `(name, seed)` when the policy came from a built-in name and can
    /// therefore be recreated per engine worker.
    policy_spec: Option<(String, u64)>,
    scratch: DfaScratch,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Runs the full per-function pipeline: allocate (under the
    /// session's policy), run the thermal DFA on the session's grid, and
    /// identify the critical variables. `func` itself is untouched; the
    /// allocated form (spill code included) is returned in the report.
    ///
    /// The call is a pure function of the session configuration and
    /// `func` — no state carries over between calls (the determinism
    /// contract: allocation resets the policy, and every built-in
    /// policy's `reset` restores its initial state).
    ///
    /// Non-convergence is reported as data in
    /// [`ThermalReport::convergence`], not as an error.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Alloc`] if register allocation fails.
    pub fn analyze(&mut self, func: &Function) -> Result<ThermalReport, TadfaError> {
        self.core
            .analyze_with(func, self.policy.as_mut(), &mut self.scratch, None)
    }

    /// Runs the interprocedural pipeline for a whole module: verifies
    /// it (unknown callees, call arity mismatches, and recursive call
    /// cycles are typed [`TadfaError::Verify`] errors), walks the call
    /// graph's condensation bottom-up so every callee is summarised
    /// before its callers, and analyzes each function with callee
    /// [`ThermalSummary`] traces replayed at its call sites instead of
    /// stepping through callee bodies.
    ///
    /// Like [`Session::analyze`], the call is a pure function of the
    /// session configuration and the module: reports come back in
    /// module order with deterministic, worker-count-independent
    /// fingerprints (the parallel
    /// [`Engine::analyze_module`](crate::engine::Engine::analyze_module)
    /// is byte-identical).
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Verify`] if the module fails verification
    /// and [`TadfaError::Alloc`] if any member fails allocation.
    pub fn analyze_module(&mut self, module: &Module) -> Result<ModuleReport, TadfaError> {
        self.core
            .analyze_module_with(module, self.policy.as_mut(), &mut self.scratch, None)
    }

    /// Analyzes a batch of functions, reusing the session's grid, power
    /// model, and configs across all of them.
    ///
    /// Per-function failures do not abort the batch: each slot holds its
    /// own function's result. Reports are order-stable — slot `k` is a
    /// function of `funcs[k]` and the session configuration only, so
    /// reordering, splitting, or extending the batch never changes an
    /// individual report (the configuration cannot change mid-batch:
    /// every `set_*` method needs `&mut self`). The parallel equivalent
    /// is [`Engine::analyze_batch_parallel`](crate::engine::Engine::analyze_batch_parallel),
    /// which yields byte-identical reports in the same order.
    pub fn analyze_batch(&mut self, funcs: &[Function]) -> Vec<Result<ThermalReport, TadfaError>> {
        funcs.iter().map(|f| self.analyze(f)).collect()
    }

    /// Runs the pre-assignment predictive analysis (§4's "more ambitious
    /// possibility") for `func` against the session's register file,
    /// RC parameters, and power model.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::Alloc`] if the placement rehearsal cannot
    /// allocate.
    pub fn predict(&self, func: &Function) -> Result<PredictiveResult, TadfaError> {
        self.core.predict(func)
    }

    /// The session's immutable analysis core.
    pub fn core(&self) -> &SessionCore {
        &self.core
    }

    /// A shared handle to the analysis core — the engine's way of
    /// reusing this session's validated state across worker threads.
    /// The handle is a snapshot: later `set_*` calls on the session
    /// replace the session's core without affecting holders of earlier
    /// handles.
    pub fn shared_core(&self) -> Arc<SessionCore> {
        Arc::clone(&self.core)
    }

    /// The `(name, seed)` the session's policy was built from, if it
    /// came from [`SessionBuilder::policy_name`] /
    /// [`Session::set_policy_name`] and can be recreated per engine
    /// worker. `None` for policy objects installed directly.
    pub fn policy_spec(&self) -> Option<(&str, u64)> {
        self.policy_spec.as_ref().map(|(n, s)| (n.as_str(), *s))
    }

    /// The session's register file.
    pub fn register_file(&self) -> &RegisterFile {
        self.core.register_file()
    }

    /// The session's analysis grid.
    pub fn grid(&self) -> &AnalysisGrid {
        self.core.grid()
    }

    /// The session's RC parameters (unscaled, physical).
    pub fn rc_params(&self) -> RcParams {
        self.core.rc_params()
    }

    /// The session's power model.
    pub fn power_model(&self) -> PowerModel {
        self.core.power_model()
    }

    /// The session's thermal-DFA configuration.
    pub fn dfa_config(&self) -> ThermalDfaConfig {
        self.core.dfa_config()
    }

    /// The session's criticality configuration.
    pub fn critical_config(&self) -> CriticalConfig {
        self.core.critical_config()
    }

    /// The session's predictive-analysis configuration.
    pub fn predictive_config(&self) -> PredictiveConfig {
        self.core.predictive_config()
    }

    /// The name of the current assignment policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Exclusive access to the policy, for drivers that share it with
    /// other machinery (e.g. the optimization pipeline).
    pub fn policy_mut(&mut self) -> &mut dyn AssignmentPolicy {
        self.policy.as_mut()
    }

    /// Replaces the thermal-DFA configuration (validated) without
    /// rebuilding the grid — the cheap way to sweep δ or the merge rule.
    ///
    /// Engines holding a [`Session::shared_core`] snapshot keep the old
    /// configuration; take a new snapshot after reconfiguring.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] and leaves the session
    /// unchanged if `dfa` fails validation.
    pub fn set_dfa_config(&mut self, dfa: ThermalDfaConfig) -> Result<(), TadfaError> {
        dfa.validate()?;
        Arc::make_mut(&mut self.core).dfa = dfa;
        Ok(())
    }

    /// Replaces the power model.
    pub fn set_power(&mut self, power: PowerModel) {
        Arc::make_mut(&mut self.core).power = power;
    }

    /// Replaces the criticality configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] for a fraction outside
    /// `[0, 1]`.
    pub fn set_critical_config(&mut self, critical: CriticalConfig) -> Result<(), TadfaError> {
        validate_critical(&critical)?;
        Arc::make_mut(&mut self.core).critical = critical;
        Ok(())
    }

    /// Replaces the predictive-analysis configuration (validated).
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] if validation fails.
    pub fn set_predictive_config(
        &mut self,
        predictive: PredictiveConfig,
    ) -> Result<(), TadfaError> {
        predictive.validate()?;
        Arc::make_mut(&mut self.core).predictive = predictive;
        Ok(())
    }

    /// Replaces the assignment policy. The session stops being
    /// engine-replicable ([`Session::policy_spec`] returns `None`) —
    /// use [`Session::set_policy_name`] to keep it replicable.
    pub fn set_policy(&mut self, policy: Box<dyn AssignmentPolicy>) {
        self.policy = policy;
        self.policy_spec = None;
    }

    /// Replaces the assignment policy by built-in name.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::UnknownPolicy`] and leaves the session
    /// unchanged if `name` is not a built-in.
    pub fn set_policy_name(&mut self, name: &str, seed: u64) -> Result<(), TadfaError> {
        self.policy = policy_by_name(name, self.core.register_file(), seed)
            .ok_or_else(|| TadfaError::UnknownPolicy(name.to_string()))?;
        self.policy_spec = Some((name.to_string(), seed));
        Ok(())
    }
}

/// Everything one [`Session::analyze`] call produces.
#[derive(Clone, Debug)]
pub struct ThermalReport {
    /// The allocated form of the analyzed function (spill code included).
    pub func: Function,
    /// The final virtual→physical register assignment.
    pub assignment: Assignment,
    /// Allocation statistics (spills, rounds, spill code size).
    pub alloc_stats: AllocStats,
    /// The raw thermal-DFA result (per-instruction states, convergence
    /// diagnostics, residual history). Shared: on an engine cache hit
    /// this is the cached solve itself, not a copy.
    pub dfa: Arc<ThermalDfaResult>,
    /// The thermally critical variables.
    pub critical: CriticalSet,
    /// The DFA's worst-case map, upsampled onto the physical floorplan.
    pub predicted: ThermalState,
}

impl ThermalReport {
    /// How the fixpoint iteration ended (non-convergence is data, not an
    /// error).
    pub fn convergence(&self) -> Convergence {
        self.dfa.convergence
    }

    /// The hottest temperature predicted anywhere in the program, K.
    pub fn peak_temperature(&self) -> f64 {
        self.dfa.peak_temperature()
    }

    /// The ambient temperature of the model, K.
    pub fn ambient(&self) -> f64 {
        self.dfa.ambient()
    }

    /// A 128-bit digest of everything numeric in the report: the
    /// assignment, allocation statistics, convergence outcome, residual
    /// history (exact bits), and the predicted map (exact bits).
    ///
    /// Two reports fingerprint equal iff the analysis produced
    /// bit-identical results — the equality the engine's determinism
    /// guarantee is stated in (parallel == sequential, warm cache ==
    /// cold cache).
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write_u64(self.assignment.iter().count() as u64);
        for (v, p) in self.assignment.iter() {
            h.write_u64(v.index() as u64);
            h.write_u64(p.index() as u64);
        }
        h.write_u64(self.alloc_stats.spilled as u64);
        h.write_u64(self.alloc_stats.rounds as u64);
        match self.dfa.convergence {
            Convergence::Converged { iterations } => {
                h.write_u64(1);
                h.write_u64(iterations as u64);
            }
            Convergence::DidNotConverge {
                iterations,
                residual,
            } => {
                h.write_u64(0);
                h.write_u64(iterations as u64);
                h.write_f64(residual);
            }
        }
        h.write_f64s(&self.dfa.residual_history);
        h.write_f64s(self.predicted.temps());
        h.write_u64(self.critical.ranked().len() as u64);
        for &(v, t) in self.critical.ranked() {
            h.write_u64(v.index() as u64);
            h.write_f64(t);
        }
        h.finish()
    }
}

/// Everything one [`Session::analyze_module`] /
/// [`Engine::analyze_module`](crate::engine::Engine::analyze_module)
/// call produces: one [`ThermalReport`] per module function, in module
/// order.
#[derive(Clone, Debug)]
pub struct ModuleReport {
    names: Vec<String>,
    reports: Vec<ThermalReport>,
}

impl ModuleReport {
    pub(crate) fn from_parts(names: Vec<String>, reports: Vec<ThermalReport>) -> ModuleReport {
        ModuleReport { names, reports }
    }

    /// Number of functions analyzed.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the module was empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Per-function reports, in module order.
    pub fn reports(&self) -> &[ThermalReport] {
        &self.reports
    }

    /// Consumes the module report, yielding the per-function reports in
    /// module order (for callers that re-index them under their own
    /// scheme, like the scenario runner's task list).
    pub fn into_reports(self) -> Vec<ThermalReport> {
        self.reports
    }

    /// The report for the function named `name`, if present.
    pub fn report(&self, name: &str) -> Option<&ThermalReport> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.reports[i])
    }

    /// Function names, in module order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// The hottest temperature predicted anywhere in the module, K.
    pub fn peak_temperature(&self) -> f64 {
        self.reports
            .iter()
            .map(ThermalReport::peak_temperature)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// A 128-bit digest folding every member's
    /// [`ThermalReport::fingerprint`] together with its name, in module
    /// order — the equality the module-level determinism guarantees
    /// (parallel == sequential, warm cache == cold, any worker count)
    /// are stated in.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write_u64(self.reports.len() as u64);
        for (name, report) in self.names.iter().zip(&self.reports) {
            h.write_u64(name.len() as u64);
            for b in name.bytes() {
                h.write_u64(b as u64);
            }
            let fp = report.fingerprint();
            h.write_u64((fp >> 64) as u64);
            h.write_u64(fp as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MergeRule;
    use tadfa_ir::FunctionBuilder;
    use tadfa_regalloc::FirstFree;

    fn kernel() -> Function {
        let mut b = FunctionBuilder::new("k");
        let x = b.param();
        let mut v = x;
        for _ in 0..6 {
            v = b.mul(v, v);
        }
        b.ret(Some(v));
        b.finish()
    }

    #[test]
    fn builder_defaults_build_and_analyze() {
        let mut s = Session::builder().build().unwrap();
        let report = s.analyze(&kernel()).unwrap();
        assert!(report.convergence().is_converged());
        assert!(report.peak_temperature() > report.ambient());
        assert_eq!(report.predicted.len(), 64);
        assert!(!report.critical.ranked().is_empty());
    }

    #[test]
    fn empty_floorplan_is_an_error() {
        let e = Session::builder().floorplan(0, 8).build().unwrap_err();
        assert!(matches!(e, TadfaError::EmptyFloorplan { rows: 0, cols: 8 }));
    }

    #[test]
    fn invalid_delta_is_an_error() {
        let e = Session::builder()
            .dfa_config(ThermalDfaConfig::default().with_delta(-1.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            e,
            TadfaError::InvalidConfig { param: "delta", .. }
        ));
    }

    #[test]
    fn degenerate_granularity_is_an_error() {
        let e = Session::builder()
            .floorplan(4, 4)
            .granularity(8, 8)
            .build()
            .unwrap_err();
        assert!(matches!(e, TadfaError::GridTooFine { .. }));
        let e = Session::builder().granularity(0, 1).build().unwrap_err();
        assert!(matches!(e, TadfaError::EmptyGrid { .. }));
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let e = Session::builder()
            .policy_name("bogus", 1)
            .build()
            .unwrap_err();
        assert!(matches!(e, TadfaError::UnknownPolicy(ref n) if n == "bogus"));
        let mut s = Session::builder().build().unwrap();
        assert!(s.set_policy_name("nonsense", 1).is_err());
        assert_eq!(s.policy_name(), "first-free", "session unchanged");
    }

    #[test]
    fn coarse_session_uses_fewer_points() {
        let mut s = Session::builder().granularity(2, 2).build().unwrap();
        assert_eq!(s.grid().num_points(), 4);
        let report = s.analyze(&kernel()).unwrap();
        assert_eq!(report.predicted.len(), 64, "upsampled to physical cells");
    }

    #[test]
    fn batch_reuses_state_and_reports_per_function() {
        let mut s = Session::builder().build().unwrap();
        let funcs = vec![kernel(), kernel(), kernel()];
        let reports = s.analyze_batch(&funcs);
        assert_eq!(reports.len(), 3);
        for r in reports {
            assert!(r.unwrap().convergence().is_converged());
        }
    }

    #[test]
    fn reconfiguration_is_validated() {
        let mut s = Session::builder().build().unwrap();
        assert!(s
            .set_dfa_config(ThermalDfaConfig::default().with_delta(0.0))
            .is_err());
        assert!(
            (s.dfa_config().delta - 0.01).abs() < 1e-12,
            "config unchanged on error"
        );
        assert!(s
            .set_dfa_config(ThermalDfaConfig::default().with_merge(MergeRule::Average))
            .is_ok());
        assert_eq!(s.dfa_config().merge, MergeRule::Average);
    }

    #[test]
    fn predict_runs_through_the_session() {
        let s = Session::builder().build().unwrap();
        let pred = s.predict(&kernel()).unwrap();
        assert_eq!(pred.expected_map.len(), 64);
        assert!(!pred.ranked.is_empty());
    }

    #[test]
    fn shared_core_is_a_snapshot() {
        let mut s = Session::builder().build().unwrap();
        let snapshot = s.shared_core();
        s.set_dfa_config(ThermalDfaConfig::default().with_delta(0.5))
            .unwrap();
        assert!(
            (snapshot.dfa_config().delta - 0.01).abs() < 1e-12,
            "earlier handle keeps the old config"
        );
        assert!((s.dfa_config().delta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn policy_spec_tracks_replicability() {
        let s = Session::builder().build().unwrap();
        assert_eq!(s.policy_spec(), Some(("first-free", 0)));
        let mut s = Session::builder()
            .policy(Box::new(FirstFree))
            .build()
            .unwrap();
        assert_eq!(s.policy_spec(), None, "boxed policy is not replicable");
        s.set_policy_name("chessboard", 3).unwrap();
        assert_eq!(s.policy_spec(), Some(("chessboard", 3)));
        s.set_policy(Box::new(FirstFree));
        assert_eq!(s.policy_spec(), None);
    }

    fn leaf() -> Function {
        let mut b = FunctionBuilder::new("leaf");
        let x = b.param();
        let mut v = x;
        for _ in 0..4 {
            v = b.mul(v, v);
        }
        b.ret(Some(v));
        b.finish()
    }

    fn caller_of(name: &str, callee: &str) -> Function {
        let mut b = FunctionBuilder::new(name);
        let x = b.param();
        let y = b.add(x, x);
        let r = b.call(callee, &[y]);
        let z = b.add(r, y);
        b.ret(Some(z));
        b.finish()
    }

    #[test]
    fn analyze_rejects_functions_with_calls() {
        let mut s = Session::builder().build().unwrap();
        let e = s.analyze(&caller_of("main", "leaf")).unwrap_err();
        assert!(
            matches!(e, TadfaError::CallsRequireModule { ref function, ref callee }
                     if function == "main" && callee == "leaf"),
            "{e}"
        );
    }

    #[test]
    fn analyze_module_reports_every_function_in_order() {
        let module = Module::from_functions([leaf(), caller_of("main", "leaf")]).unwrap();
        let mut s = Session::builder().build().unwrap();
        let r = s.analyze_module(&module).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.names().collect::<Vec<_>>(), ["leaf", "main"]);
        for rep in r.reports() {
            assert!(rep.convergence().is_converged());
        }
        // The caller replays the callee's trace, so it ends hotter than
        // its own instructions alone would make it.
        let main = r.report("main").unwrap();
        let leaf = r.report("leaf").unwrap();
        assert!(main.peak_temperature() > main.ambient());
        assert!(r.peak_temperature() >= leaf.peak_temperature());
        // Pure function of (config, module): a fresh session agrees.
        let mut s2 = Session::builder().build().unwrap();
        assert_eq!(
            r.fingerprint(),
            s2.analyze_module(&module).unwrap().fingerprint()
        );
    }

    #[test]
    fn analyze_module_rejects_recursion_with_a_typed_error() {
        let module = Module::from_functions([caller_of("a", "b"), caller_of("b", "a")]).unwrap();
        let mut s = Session::builder().build().unwrap();
        let e = s.analyze_module(&module).unwrap_err();
        assert!(
            matches!(
                e,
                TadfaError::Verify(tadfa_ir::VerifyError::RecursiveCall { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn call_sites_make_callers_hotter_than_call_free_twins() {
        // Same caller body with the call replaced by a mov: the summary
        // replay must inject the callee's heat.
        let module = Module::from_functions([leaf(), caller_of("main", "leaf")]).unwrap();
        let mut s = Session::builder().build().unwrap();
        let with_call = s.analyze_module(&module).unwrap();
        let twin = {
            let mut b = FunctionBuilder::new("main");
            let x = b.param();
            let y = b.add(x, x);
            let r = b.mov(y);
            let z = b.add(r, y);
            b.ret(Some(z));
            b.finish()
        };
        let without = s.analyze(&twin).unwrap();
        assert!(
            with_call.report("main").unwrap().peak_temperature() > without.peak_temperature(),
            "callee heat must reach the caller"
        );
    }

    #[test]
    fn fingerprints_separate_different_analyses() {
        let mut s = Session::builder().build().unwrap();
        let r1 = s.analyze(&kernel()).unwrap();
        let r2 = s.analyze(&kernel()).unwrap();
        assert_eq!(r1.fingerprint(), r2.fingerprint(), "pure function");
        s.set_policy_name("round-robin", 0).unwrap();
        let r3 = s.analyze(&kernel()).unwrap();
        assert_ne!(r1.fingerprint(), r3.fingerprint(), "policy changes map");
    }
}
