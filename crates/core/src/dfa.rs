//! The thermal data flow analysis — a faithful implementation of the
//! paper's Fig. 2 pseudocode:
//!
//! ```text
//! Do
//!   Boolean: stop ← True
//!   For each basic block B
//!     For each instruction I ∈ B, taken in forward order
//!       Estimate thermal state after I
//!       If the change in I's thermal state exceeds δ
//!         stop ← False
//!       EndIf
//!     EndFor
//!   EndFor
//! While( stop = False )
//! Output the thermal state of each instruction
//! ```
//!
//! The per-instruction estimate advances the RC model by the
//! instruction's (scaled) duration under the power its register accesses
//! deposit; block entries merge predecessor exit states under the
//! configured [`MergeRule`](crate::MergeRule).

use crate::cache::SolveCache;
use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::config::{Convergence, MergeRule, ThermalDfaConfig};
use crate::error::TadfaError;
use crate::grid::AnalysisGrid;
use crate::summary::{SummaryStep, ThermalSummary};
use std::collections::HashMap;
use std::sync::Arc;
use tadfa_ir::{BlockId, Cfg, Function, Inst, InstId, Opcode, Terminator, VReg};
use tadfa_regalloc::Assignment;
use tadfa_thermal::{
    CompiledModel, LeakageParams, PowerModel, StepSchedule, StepScratch, ThermalState,
};

/// Reusable buffers for one worker's fixpoint runs.
///
/// Building the per-instruction access list and stepping the RC solver
/// would allocate per instruction, which is measurable on large
/// batches. Holding a [`DfaScratch`] per worker (the engine does) or per
/// session reuses the buffers — including the compiled solver's
/// [`StepScratch`] — across every instruction of every function.
#[derive(Debug, Default)]
pub struct DfaScratch {
    /// Per-instruction `(analysis point, energy)` access pairs.
    accesses: Vec<(usize, f64)>,
    /// Transient-solver scratch for the compiled kernels.
    step: StepScratch,
}

/// The iteration-invariant half of the fixpoint's inner loop, resolved
/// once per analysis instead of once per instruction per sweep: every
/// instruction's (analysis point, watts) deposits — energies already
/// divided by the natural duration — its step duration, and the
/// leakage coefficients in kernel form.
struct StepPlan {
    /// Per-instruction (arena-slot-indexed) deposit span + schedule.
    inst: Vec<PlanSpan>,
    /// Per-block-terminator deposit span + schedule.
    term: Vec<PlanSpan>,
    /// Flattened `(point, watts)` deposits, in program order; each
    /// instruction's span lists a point at most once (repeats
    /// pre-summed), as the sparse solver path requires.
    deposits: Vec<(u32, f64)>,
    leak: LeakageParams,
}

/// One instruction's slice of the [`StepPlan`].
#[derive(Copy, Clone)]
struct PlanSpan {
    start: u32,
    end: u32,
    sched: StepSchedule,
}

/// The fixpoint's accumulated result slots, shared by both sweep paths.
struct SweepState {
    after: Vec<Option<ThermalState>>,
    entry: Vec<Option<ThermalState>>,
    exit: Vec<Option<ThermalState>>,
}

impl SweepState {
    fn new(func: &Function) -> SweepState {
        SweepState {
            after: vec![None; func.arena_len()],
            entry: vec![None; func.num_blocks()],
            exit: vec![None; func.num_blocks()],
        }
    }
}

/// The compiled sweep's per-instruction state store: one flat
/// `arena_len × n` matrix instead of one heap allocation per
/// instruction, so consecutive visits walk contiguous memory.
struct AfterMatrix {
    data: Vec<f64>,
    init: Vec<bool>,
    n: usize,
}

impl AfterMatrix {
    /// Compare-and-remember for one instruction's row: returns the L∞
    /// change against the stored state and overwrites it (∞ on first
    /// visit). Value-identical to [`ThermalState::linf_update_from`].
    #[inline]
    fn update(&mut self, idx: usize, new: &ThermalState) -> f64 {
        let row = &mut self.data[idx * self.n..(idx + 1) * self.n];
        if !self.init[idx] {
            self.init[idx] = true;
            row.copy_from_slice(new.temps());
            return f64::INFINITY;
        }
        ThermalState::linf_update_slices(row, new.temps())
    }

    /// Materialises every visited row as its own state (unvisited —
    /// unreachable — instructions stay `None`).
    fn into_states(self) -> Vec<Option<ThermalState>> {
        let n = self.n;
        self.init
            .iter()
            .enumerate()
            .map(|(i, &init)| {
                init.then(|| ThermalState::from_vec(self.data[i * n..(i + 1) * n].to_vec()))
            })
            .collect()
    }

    /// One instruction's row plus whether it held a previous state,
    /// marking it visited. On `false` the row contents are garbage and
    /// the caller must overwrite them (first sweep); on `true` the row
    /// is the previous sweep's state and can feed the solver's fused
    /// change tracking directly.
    #[inline]
    fn visit_row(&mut self, idx: usize) -> (&mut [f64], bool) {
        let was_init = self.init[idx];
        self.init[idx] = true;
        (&mut self.data[idx * self.n..(idx + 1) * self.n], was_init)
    }
}

/// The thermal DFA over one function.
///
/// Requires a completed register [`Assignment`] ("the proposed thermal
/// analysis makes the most sense if applied after register assignment, as
/// the precise registers accessed by each instruction are known", §4).
/// The pre-assignment predictive variant lives in
/// [`crate::PredictiveDfa`].
///
/// # Examples
///
/// ```
/// use tadfa_ir::FunctionBuilder;
/// use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
/// use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile};
/// use tadfa_core::{AnalysisGrid, ThermalDfa, ThermalDfaConfig};
///
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.add(x, x);
/// let z = b.mul(y, y);
/// b.ret(Some(z));
/// let mut f = b.finish();
///
/// let rf = RegisterFile::new(Floorplan::grid(4, 4));
/// let alloc = allocate_linear_scan(
///     &mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
/// let grid = AnalysisGrid::full(&rf, RcParams::default());
///
/// let dfa = ThermalDfa::new(&f, &alloc.assignment, &grid,
///                           PowerModel::default(), ThermalDfaConfig::default())?;
/// let result = dfa.run();
/// assert!(result.convergence.is_converged());
/// assert!(result.peak_temperature() > grid.model().ambient());
/// # Ok::<(), tadfa_core::TadfaError>(())
/// ```
#[derive(Debug)]
pub struct ThermalDfa<'a> {
    func: &'a Function,
    assignment: &'a Assignment,
    grid: &'a AnalysisGrid,
    power_model: PowerModel,
    config: ThermalDfaConfig,
    /// Per-call-site callee summary, indexed by arena slot; empty for
    /// call-free functions (the intraprocedural common case).
    call_summaries: Vec<Option<Arc<ThermalSummary>>>,
}

impl<'a> ThermalDfa<'a> {
    /// Creates the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] if `config` fails
    /// validation, and [`TadfaError::CallsRequireModule`] if `func`
    /// contains `call` instructions — those need callee summaries,
    /// which only [`ThermalDfa::with_summaries`] (via the module-level
    /// entry points) supplies.
    pub fn new(
        func: &'a Function,
        assignment: &'a Assignment,
        grid: &'a AnalysisGrid,
        power_model: PowerModel,
        config: ThermalDfaConfig,
    ) -> Result<ThermalDfa<'a>, TadfaError> {
        ThermalDfa::build(func, assignment, grid, power_model, config, None)
    }

    /// Creates the call-aware analysis: every `call` in `func` is
    /// resolved to its callee's [`ThermalSummary`], which the fixpoint
    /// replays at the call site instead of stepping through the callee
    /// body.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] if `config` fails
    /// validation, [`TadfaError::MissingSummary`] if a callee has no
    /// summary in `summaries` (the module entry points summarise in
    /// bottom-up call-graph order, so this indicates misuse), and
    /// [`TadfaError::StateSizeMismatch`] if a summary was computed on a
    /// grid of a different size.
    pub fn with_summaries(
        func: &'a Function,
        assignment: &'a Assignment,
        grid: &'a AnalysisGrid,
        power_model: PowerModel,
        config: ThermalDfaConfig,
        summaries: &HashMap<String, Arc<ThermalSummary>>,
    ) -> Result<ThermalDfa<'a>, TadfaError> {
        ThermalDfa::build(func, assignment, grid, power_model, config, Some(summaries))
    }

    /// The one constructor body: validates `config` and resolves every
    /// call site against `summaries` (`None`: calls are not allowed).
    pub(crate) fn build(
        func: &'a Function,
        assignment: &'a Assignment,
        grid: &'a AnalysisGrid,
        power_model: PowerModel,
        config: ThermalDfaConfig,
        summaries: Option<&HashMap<String, Arc<ThermalSummary>>>,
    ) -> Result<ThermalDfa<'a>, TadfaError> {
        config.validate()?;
        let mut call_summaries: Vec<Option<Arc<ThermalSummary>>> = Vec::new();
        for (_bb, id) in func.inst_ids_in_layout_order() {
            let inst = func.inst(id);
            if inst.op != Opcode::Call {
                continue;
            }
            let callee = inst.callee_name().unwrap_or("?");
            let Some(summaries) = summaries else {
                return Err(TadfaError::CallsRequireModule {
                    function: func.name().to_string(),
                    callee: callee.to_string(),
                });
            };
            let sum = summaries
                .get(callee)
                .ok_or_else(|| TadfaError::MissingSummary {
                    function: func.name().to_string(),
                    callee: callee.to_string(),
                })?;
            if sum.num_points() != grid.num_points() {
                return Err(TadfaError::StateSizeMismatch {
                    expected: grid.num_points(),
                    got: sum.num_points(),
                });
            }
            if call_summaries.is_empty() {
                call_summaries.resize(func.arena_len(), None);
            }
            call_summaries[id.index()] = Some(Arc::clone(sum));
        }
        Ok(ThermalDfa {
            func,
            assignment,
            grid,
            power_model,
            config,
            call_summaries,
        })
    }

    /// The callee summary attached to a call site, if any.
    #[inline]
    fn call_summary(&self, id: InstId) -> Option<&Arc<ThermalSummary>> {
        self.call_summaries.get(id.index()).and_then(Option::as_ref)
    }

    /// The analysis-point/energy pairs an instruction's register accesses
    /// deposit per execution. Registers without an assignment (possible
    /// only mid-allocation) contribute nothing — their value lives in
    /// memory.
    pub fn access_energies(&self, inst: &Inst) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(inst.srcs.len() + 1);
        self.fill_access_energies(inst, &mut out);
        out
    }

    /// [`access_energies`](ThermalDfa::access_energies) into a reused
    /// buffer — the fixpoint's allocation-free path.
    fn fill_access_energies(&self, inst: &Inst, out: &mut Vec<(usize, f64)>) {
        out.clear();
        for &u in inst.uses() {
            if let Some(p) = self.assignment.preg_of(u) {
                out.push((self.grid.point_of(p), self.power_model.read_energy));
            }
        }
        if let Some(d) = inst.def() {
            if let Some(p) = self.assignment.preg_of(d) {
                out.push((self.grid.point_of(p), self.power_model.write_energy));
            }
        }
    }

    fn fill_term_energies(&self, term: &Terminator, out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend(
            term.uses()
                .iter()
                .filter_map(|&u: &VReg| self.assignment.preg_of(u))
                .map(|p| (self.grid.point_of(p), self.power_model.read_energy)),
        );
    }

    /// Resolves the iteration-invariant [`StepPlan`] for this analysis:
    /// one pass over the program in control-flow order, after which the
    /// fixpoint's sweeps never re-derive accesses, energies, or
    /// durations.
    fn build_plan(&self, cfg: &Cfg, accesses: &mut Vec<(usize, f64)>) -> StepPlan {
        let func = self.func;
        let empty = PlanSpan {
            start: 0,
            end: 0,
            sched: self.grid.compiled().schedule(0.0),
        };
        let mut plan = StepPlan {
            inst: vec![empty; func.arena_len()],
            term: vec![empty; func.num_blocks()],
            deposits: Vec::new(),
            leak: self.power_model.leakage_params(),
        };
        for &bb in cfg.rpo() {
            for &id in func.block(bb).insts() {
                let inst = func.inst(id);
                self.fill_access_energies(inst, accesses);
                plan.inst[id.index()] =
                    self.push_deposits(&mut plan.deposits, accesses, inst.op.latency());
            }
            if let Some(t) = func.terminator(bb) {
                self.fill_term_energies(t, accesses);
                plan.term[bb.index()] =
                    self.push_deposits(&mut plan.deposits, accesses, t.latency());
            }
        }
        plan
    }

    fn push_deposits(
        &self,
        deposits: &mut Vec<(u32, f64)>,
        accesses: &[(usize, f64)],
        latency: u32,
    ) -> PlanSpan {
        // Same expressions per access as the reference transfer
        // function, evaluated once instead of once per sweep. Repeated
        // points (a register read and written by one instruction)
        // pre-sum left to right — the same fold order the reference's
        // dense scatter performs — so the sparse solver path sees each
        // cell at most once.
        let natural = latency as f64 * self.config.seconds_per_cycle;
        let start = deposits.len();
        for &(p, e) in accesses {
            let w = e / natural;
            match deposits[start..].iter_mut().find(|(q, _)| *q == p as u32) {
                Some((_, acc)) => *acc += w,
                None => deposits.push((p as u32, w)),
            }
        }
        PlanSpan {
            start: start as u32,
            end: deposits.len() as u32,
            sched: self
                .grid
                .compiled()
                .schedule(self.config.step_duration(latency)),
        }
    }

    /// Advances `state` across one instruction (or terminator) via its
    /// precomputed plan span.
    ///
    /// Allocation-free and O(accesses) outside the solver: the sparse
    /// power buffer resets only its dirty indices (leakage never lands
    /// in it — the kernel fuses leakage itself), and the compiled
    /// kernel steps through caller-owned scratch. Bit-identical to
    /// [`advance_reference`](Self::advance_reference).
    #[inline]
    fn advance_planned(
        &self,
        state: &mut ThermalState,
        plan: &StepPlan,
        span: PlanSpan,
        step: &mut StepScratch,
        compiled: &CompiledModel,
    ) {
        let deposits = &plan.deposits[span.start as usize..span.end as usize];
        let leak = self.config.leakage_feedback.then_some(&plan.leak);
        compiled.step_sparse_into(state, deposits, &span.sched, leak, step, None);
    }

    /// [`advance_planned`](Self::advance_planned) with the change
    /// tracking fused into the kernel's store loop: `prev` holds the
    /// instruction's previous-sweep state, the return is the L∞ change
    /// against it, and `prev` is overwritten with the new state — all
    /// in the same pass that writes the solver output. Bit-identical
    /// (state, change, and `prev` contents) to `advance_planned`
    /// followed by [`ThermalState::linf_update_slices`].
    #[inline]
    fn advance_tracked(
        &self,
        state: &mut ThermalState,
        plan: &StepPlan,
        span: PlanSpan,
        step: &mut StepScratch,
        compiled: &CompiledModel,
        prev: &mut [f64],
    ) -> f64 {
        let deposits = &plan.deposits[span.start as usize..span.end as usize];
        let leak = self.config.leakage_feedback.then_some(&plan.leak);
        compiled.step_sparse_into(state, deposits, &span.sched, leak, step, Some(prev))
    }

    /// The pre-optimization transfer function, retained verbatim —
    /// dense power zeroing per instruction and the naive, per-call
    /// allocating [`tadfa_thermal::ThermalModel::step`] — as the
    /// bit-identity reference and the solver quickbench baseline.
    fn advance_reference(
        &self,
        state: &mut ThermalState,
        accesses: &[(usize, f64)],
        latency: u32,
        power: &mut Vec<f64>,
    ) {
        let n = self.grid.num_points();
        let natural = latency as f64 * self.config.seconds_per_cycle;
        let dt = self.config.step_duration(latency);
        power.clear();
        power.resize(n, 0.0);
        for &(p, e) in accesses {
            power[p] += e / natural;
        }
        if self.config.leakage_feedback {
            self.power_model.add_leakage(power, state);
        }
        self.grid.model().step(state, power, dt);
    }

    /// The power-profile hash of this analysis — the [`SolveCache`]
    /// key. Two analyses share a signature exactly when every input the
    /// fixpoint reads agrees: the grid's RC parameters and point count,
    /// the DFA configuration, the leakage model, and, instruction by
    /// instruction in control-flow order, which analysis points are
    /// touched with what energy for how long. Float inputs are keyed by
    /// their exact bit patterns, so equal signatures imply
    /// bit-identical fixpoint results.
    pub fn signature(&self) -> u128 {
        self.signature_with(&Cfg::compute(self.func))
    }

    /// [`signature`](ThermalDfa::signature) over a CFG the caller
    /// already computed (the fixpoint needs the same one).
    fn signature_with(&self, cfg: &Cfg) -> u128 {
        let mut h = tadfa_thermal::hashing::Fnv128::new();
        // Grid + RC model. The grid's shape (not just its point count)
        // is part of the key: two equal-area coarsenings (e.g. 2×8 and
        // 4×4 over an 8×8 file) share scaled RC parameters and point
        // count but differ in neighbour topology, hence in every
        // lateral heat flow.
        let fp = self.grid.model().floorplan();
        h.write_u64(fp.rows() as u64);
        h.write_u64(fp.cols() as u64);
        let params = self.grid.model().params();
        h.write_u64(self.grid.num_points() as u64);
        h.write_f64(params.cell_capacitance);
        h.write_f64(params.lateral_resistance);
        h.write_f64(params.vertical_resistance);
        h.write_f64(params.ambient);
        // DFA config.
        h.write_f64(self.config.delta);
        h.write_u64(self.config.max_iterations as u64);
        h.write_u64(match self.config.merge {
            MergeRule::Max => 0,
            MergeRule::Average => 1,
        });
        h.write_f64(self.config.seconds_per_cycle);
        h.write_f64(self.config.time_scale);
        h.write_u64(self.config.leakage_feedback as u64);
        // Leakage model (read/write energies are folded in per access).
        h.write_f64(self.power_model.leakage_per_cell);
        h.write_f64(self.power_model.leakage_temp_coeff);
        h.write_f64(self.power_model.reference_temp);
        // The power profile: result vectors are indexed by arena slot
        // and block id, so fold the ids in alongside the accesses.
        let func = self.func;
        let mut accesses: Vec<(usize, f64)> = Vec::new();
        h.write_u64(func.arena_len() as u64);
        h.write_u64(func.num_blocks() as u64);
        h.write_u64(func.entry().index() as u64);
        for &bb in cfg.rpo() {
            h.write_u64(bb.index() as u64);
            let preds = cfg.preds(bb);
            h.write_u64(preds.len() as u64);
            for p in preds {
                h.write_u64(p.index() as u64);
            }
            for &id in func.block(bb).insts() {
                let inst = func.inst(id);
                h.write_u64(id.index() as u64);
                h.write_u64(inst.op.latency() as u64);
                self.fill_access_energies(inst, &mut accesses);
                for &(point, energy) in &accesses {
                    h.write_u64(point as u64);
                    h.write_f64(energy);
                }
                // A call site's transfer function includes the callee's
                // replayed trace, so the callee summary's own signature
                // is part of this function's key: change the callee's
                // body and every (transitive) caller re-keys.
                if let Some(sum) = self.call_summary(id) {
                    let sig = sum.signature();
                    h.write_u64((sig >> 64) as u64);
                    h.write_u64(sig as u64);
                }
            }
            if let Some(t) = func.terminator(bb) {
                h.write_u64(t.latency() as u64);
                self.fill_term_energies(t, &mut accesses);
                for &(point, energy) in &accesses {
                    h.write_u64(point as u64);
                    h.write_f64(energy);
                }
            }
        }
        h.finish()
    }

    /// Flattens this function into a [`ThermalSummary`]: its blocks'
    /// instruction and terminator steps in reverse post-order (each
    /// block once — loop bodies contribute one iteration, matching the
    /// fixpoint's per-sweep walk), with every call site's callee
    /// summary spliced in transitively. Replaying the summary on a
    /// thermal state is exact for any entry state, including under
    /// leakage feedback, because it runs the same solver steps the
    /// sweeps run. The summary carries this function's
    /// [`signature`](ThermalDfa::signature).
    pub fn summarize(&self) -> ThermalSummary {
        let cfg = Cfg::compute(self.func);
        let mut accesses = Vec::new();
        let plan = self.build_plan(&cfg, &mut accesses);
        let mut steps: Vec<SummaryStep> = Vec::new();
        let mut deposits: Vec<(u32, f64)> = Vec::new();
        let push_span =
            |span: PlanSpan, steps: &mut Vec<SummaryStep>, deposits: &mut Vec<(u32, f64)>| {
                let start = deposits.len() as u32;
                deposits.extend_from_slice(&plan.deposits[span.start as usize..span.end as usize]);
                steps.push(SummaryStep {
                    start,
                    end: deposits.len() as u32,
                    sched: span.sched,
                });
            };
        let func = self.func;
        for &bb in cfg.rpo() {
            for &id in func.block(bb).insts() {
                push_span(plan.inst[id.index()], &mut steps, &mut deposits);
                if let Some(sum) = self.call_summary(id) {
                    sum.splice_into(&mut steps, &mut deposits);
                }
            }
            if func.terminator(bb).is_some() {
                push_span(plan.term[bb.index()], &mut steps, &mut deposits);
            }
        }
        ThermalSummary::from_parts(
            steps,
            deposits,
            plan.leak,
            self.config.leakage_feedback,
            self.grid.num_points(),
            self.signature_with(&cfg),
        )
    }

    fn merge(&self, states: &[&ThermalState]) -> ThermalState {
        debug_assert!(!states.is_empty());
        match self.config.merge {
            MergeRule::Max => {
                let mut acc = states[0].clone();
                for s in &states[1..] {
                    acc.max_with(s);
                }
                acc
            }
            MergeRule::Average => {
                let mut acc = ThermalState::uniform(states[0].len(), 0.0);
                let w = 1.0 / states.len() as f64;
                for s in states {
                    acc.add_scaled(s, w);
                }
                acc
            }
        }
    }

    /// Runs the fixpoint iteration of Fig. 2 and returns the thermal
    /// state following each instruction.
    pub fn run(&self) -> ThermalDfaResult {
        self.fixpoint(&Cfg::compute(self.func), &mut DfaScratch::default())
    }

    /// [`run`](ThermalDfa::run) driven through the retained naive
    /// reference solver (per-call allocations, dense power zeroing,
    /// neighbour-iterator stepping) — the pre-optimization path, with
    /// its own fixpoint loop and its own buffers, apart from the
    /// production one. Kept so bit-identity of the compiled kernels can
    /// be asserted end to end (`tests/solver_identity.rs`) and so the
    /// solver quickbench has an honest baseline; production callers
    /// want [`run`](ThermalDfa::run) / [`run_with`](ThermalDfa::run_with).
    pub fn run_reference(&self) -> ThermalDfaResult {
        let cfg = Cfg::compute(self.func);
        let initial = self.grid.model().ambient_state();
        let mut state = SweepState::new(self.func);
        let mut accesses = Vec::new();
        let mut power = Vec::new();
        let mut step = StepScratch::new();
        let (convergence, history) = self.iterate(|| {
            self.sweep_reference(
                &cfg,
                &initial,
                &mut state,
                &mut accesses,
                &mut power,
                &mut step,
            )
        });
        self.result(state, convergence, history)
    }

    /// [`run`](ThermalDfa::run) with caller-owned scratch buffers and an
    /// optional solve cache — the engine's entry point. With a cache,
    /// the whole fixpoint is answered from memo when an identical
    /// power profile (see [`ThermalDfa::signature`]) was solved before;
    /// a hit clones an [`Arc`], never the state vectors. Results are
    /// identical to [`run`](ThermalDfa::run), because only
    /// bit-identical profiles share a cache key.
    pub fn run_with(
        &self,
        scratch: &mut DfaScratch,
        cache: Option<&SolveCache>,
    ) -> Arc<ThermalDfaResult> {
        let cfg = Cfg::compute(self.func);
        let Some(cache) = cache else {
            return Arc::new(self.fixpoint(&cfg, scratch));
        };
        let key = self.signature_with(&cfg);
        if let Some(hit) = cache.fetch(key) {
            return hit;
        }
        let result = Arc::new(self.fixpoint(&cfg, scratch));
        cache.store(key, &result);
        result
    }

    /// The Fig. 2 iteration through the compiled sweep.
    fn fixpoint(&self, cfg: &Cfg, scratch: &mut DfaScratch) -> ThermalDfaResult {
        let func = self.func;
        let initial = self.grid.model().ambient_state();
        let n = self.grid.num_points();
        let DfaScratch { accesses, step } = scratch;
        // The per-instruction plan is resolved up front, plus a
        // reusable walker state (written into by merges, advanced by
        // the solver, copied into result slots; no allocation after the
        // first sweep) and a flat row-per-instruction state matrix
        // (contiguous and prefetch-friendly where one heap allocation
        // per instruction is pointer-chasing; materialised into result
        // slots at the end).
        let plan = self.build_plan(cfg, accesses);
        let mut walker = initial.clone();
        let mut after = AfterMatrix {
            data: vec![0.0; func.arena_len() * n],
            init: vec![false; func.arena_len()],
            n,
        };
        let mut state = SweepState::new(func);
        let (convergence, history) = self.iterate(|| {
            self.sweep_compiled(
                cfg,
                &plan,
                &initial,
                &mut walker,
                &mut after,
                &mut state,
                step,
            )
        });
        state.after = after.into_states();
        self.result(state, convergence, history)
    }

    /// The sweep count, δ test and residual history both fixpoint loops
    /// share: runs `sweep` (which returns the sweep's largest
    /// per-instruction change) until the change is within δ or the
    /// iteration budget runs out.
    fn iterate(&self, mut sweep: impl FnMut() -> f64) -> (Convergence, Vec<f64>) {
        let mut history: Vec<f64> = Vec::new();
        for iteration in 1..=self.config.max_iterations {
            let max_change = sweep();
            // The first sweep necessarily "changes" everything from
            // nothing; record it as infinite residual but never converge
            // on it.
            history.push(max_change);
            if iteration > 1 && max_change <= self.config.delta {
                let convergence = Convergence::Converged {
                    iterations: iteration,
                };
                return (convergence, history);
            }
        }
        let convergence = Convergence::DidNotConverge {
            iterations: self.config.max_iterations,
            residual: history.last().copied().unwrap_or(f64::INFINITY),
        };
        (convergence, history)
    }

    /// Packages a finished fixpoint's slots and convergence record.
    fn result(
        &self,
        state: SweepState,
        convergence: Convergence,
        residual_history: Vec<f64>,
    ) -> ThermalDfaResult {
        ThermalDfaResult {
            after: state.after,
            block_entry: state.entry,
            block_exit: state.exit,
            convergence,
            residual_history,
            ambient: self.grid.model().ambient(),
            num_points: self.grid.num_points(),
        }
    }

    /// One sweep over the program through the compiled solver plan —
    /// the production inner loop. Allocation-free from the second sweep
    /// on: block-entry states merge straight into the reusable walker,
    /// every result slot is updated by `clone_from` /
    /// [`ThermalState::linf_update_from`], and the solver steps through
    /// caller-owned scratch. Bit-identical to
    /// [`sweep_reference`](Self::sweep_reference).
    #[allow(clippy::too_many_arguments)]
    fn sweep_compiled(
        &self,
        cfg: &Cfg,
        plan: &StepPlan,
        initial: &ThermalState,
        walker: &mut ThermalState,
        after: &mut AfterMatrix,
        state: &mut SweepState,
        step: &mut StepScratch,
    ) -> f64 {
        let func = self.func;
        let compiled = self.grid.compiled();
        let mut max_change: f64 = 0.0;
        for &bb in cfg.rpo() {
            if bb == func.entry() {
                walker.clone_from(initial);
            } else {
                self.merge_into(walker, cfg.preds(bb), &state.exit, initial);
            }
            match &mut state.entry[bb.index()] {
                Some(prev) => prev.clone_from(walker),
                slot => *slot = Some(walker.clone()),
            }

            for &id in func.block(bb).insts() {
                // At a call site, advance untracked and replay the
                // callee's summarised trace (the state after the call
                // is the state after the callee returns), then
                // compare-and-remember separately: the summary replay
                // runs outside the tracked kernel.
                if let Some(sum) = self.call_summary(id) {
                    self.advance_planned(walker, plan, plan.inst[id.index()], step, compiled);
                    sum.apply(walker, compiled, step);
                    max_change = max_change.max(after.update(id.index(), walker));
                    continue;
                }
                // Non-call fast path: the change tracking is fused into
                // the explicit-lane kernel's store loop — the matrix
                // row is compared and overwritten in the same pass that
                // writes the new temperatures, so the old separate
                // compare-and-remember sweep over the row disappears.
                let (row, was_init) = after.visit_row(id.index());
                if was_init {
                    let change = self.advance_tracked(
                        walker,
                        plan,
                        plan.inst[id.index()],
                        step,
                        compiled,
                        row,
                    );
                    max_change = max_change.max(change);
                } else {
                    self.advance_planned(walker, plan, plan.inst[id.index()], step, compiled);
                    row.copy_from_slice(walker.temps());
                    max_change = f64::INFINITY;
                }
            }
            let exit_change = match (&mut state.exit[bb.index()], func.terminator(bb).is_some()) {
                // The terminator advance fuses its change tracking
                // against the block's previous exit state the same way.
                (Some(prev), true) => self.advance_tracked(
                    walker,
                    plan,
                    plan.term[bb.index()],
                    step,
                    compiled,
                    prev.temps_mut(),
                ),
                (Some(prev), false) => prev.linf_update_from(walker),
                (slot, has_term) => {
                    if has_term {
                        self.advance_planned(walker, plan, plan.term[bb.index()], step, compiled);
                    }
                    *slot = Some(walker.clone());
                    f64::INFINITY
                }
            };
            max_change = max_change.max(exit_change);
        }
        max_change
    }

    /// Merges the available predecessor exit states into `dst` without
    /// allocating — value-identical to [`merge`](Self::merge) over the
    /// same states (same accumulation order), falling back to the
    /// initial state when no predecessor has an exit yet.
    fn merge_into(
        &self,
        dst: &mut ThermalState,
        preds: &[BlockId],
        exit: &[Option<ThermalState>],
        initial: &ThermalState,
    ) {
        match self.config.merge {
            MergeRule::Max => {
                let mut first = true;
                for p in preds {
                    if let Some(s) = &exit[p.index()] {
                        if first {
                            dst.clone_from(s);
                            first = false;
                        } else {
                            dst.max_with(s);
                        }
                    }
                }
                if first {
                    dst.clone_from(initial);
                }
            }
            MergeRule::Average => {
                let available = preds.iter().filter(|p| exit[p.index()].is_some()).count();
                if available == 0 {
                    dst.clone_from(initial);
                    return;
                }
                let w = 1.0 / available as f64;
                dst.reset_uniform(initial.len(), 0.0);
                for p in preds {
                    if let Some(s) = &exit[p.index()] {
                        dst.add_scaled(s, w);
                    }
                }
            }
        }
    }

    /// One sweep over the program through the retained pre-optimization
    /// path, verbatim: per-sweep access resolution, per-visit state
    /// clones, dense power zeroing, the naive allocating solver.
    ///
    /// Call sites replay the callee summary through the very same
    /// routine the compiled sweep uses — summary replay *is* the
    /// definition of call thermal semantics, there is no "reference
    /// callee walk" — so the two paths stay bit-identical on modules
    /// too.
    fn sweep_reference(
        &self,
        cfg: &Cfg,
        initial: &ThermalState,
        state: &mut SweepState,
        accesses: &mut Vec<(usize, f64)>,
        power: &mut Vec<f64>,
        step: &mut StepScratch,
    ) -> f64 {
        let func = self.func;
        let mut max_change: f64 = 0.0;
        for &bb in cfg.rpo() {
            let s_in = if bb == func.entry() {
                initial.clone()
            } else {
                let preds: Vec<&ThermalState> = cfg
                    .preds(bb)
                    .iter()
                    .filter_map(|p| state.exit[p.index()].as_ref())
                    .collect();
                if preds.is_empty() {
                    initial.clone()
                } else {
                    self.merge(&preds)
                }
            };
            state.entry[bb.index()] = Some(s_in.clone());

            let mut s = s_in;
            for &id in func.block(bb).insts() {
                let inst = func.inst(id);
                self.fill_access_energies(inst, accesses);
                self.advance_reference(&mut s, accesses, inst.op.latency(), power);
                if let Some(sum) = self.call_summary(id) {
                    sum.apply(&mut s, self.grid.compiled(), step);
                }
                let change = match &state.after[id.index()] {
                    Some(prev) => prev.linf_distance(&s),
                    None => f64::INFINITY,
                };
                max_change = max_change.max(change);
                state.after[id.index()] = Some(s.clone());
            }
            if let Some(t) = func.terminator(bb) {
                self.fill_term_energies(t, accesses);
                self.advance_reference(&mut s, accesses, t.latency(), power);
            }
            let exit_change = match &state.exit[bb.index()] {
                Some(prev) => prev.linf_distance(&s),
                None => f64::INFINITY,
            };
            max_change = max_change.max(exit_change);
            state.exit[bb.index()] = Some(s);
        }
        max_change
    }
}

/// Output of the thermal DFA: "the thermal state following each
/// instruction" (Fig. 2) plus convergence diagnostics.
#[derive(Clone, Debug)]
pub struct ThermalDfaResult {
    after: Vec<Option<ThermalState>>,
    block_entry: Vec<Option<ThermalState>>,
    block_exit: Vec<Option<ThermalState>>,
    /// How the fixpoint iteration ended.
    pub convergence: Convergence,
    /// Largest per-instruction change in each iteration (first entry is
    /// ∞: everything changes from "unknown").
    pub residual_history: Vec<f64>,
    ambient: f64,
    num_points: usize,
}

impl ThermalDfaResult {
    /// The thermal state immediately after `inst`, if the instruction is
    /// reachable.
    pub fn state_after(&self, inst: InstId) -> Option<&ThermalState> {
        self.after.get(inst.index()).and_then(Option::as_ref)
    }

    /// The merged thermal state on entry to `bb`.
    pub fn block_entry(&self, bb: BlockId) -> Option<&ThermalState> {
        self.block_entry.get(bb.index()).and_then(Option::as_ref)
    }

    /// The thermal state on exit from `bb` (after its terminator).
    pub fn block_exit(&self, bb: BlockId) -> Option<&ThermalState> {
        self.block_exit.get(bb.index()).and_then(Option::as_ref)
    }

    /// Element-wise maximum over every per-instruction state: the "worst
    /// case anywhere in the program" map used for hot-spot reporting.
    pub fn peak_map(&self) -> ThermalState {
        let mut acc = ThermalState::uniform(self.num_points, self.ambient);
        for s in self.after.iter().flatten() {
            acc.max_with(s);
        }
        acc
    }

    /// The single hottest temperature predicted anywhere in the program.
    pub fn peak_temperature(&self) -> f64 {
        self.peak_map().peak()
    }

    /// The analysis point reaching the peak temperature.
    pub fn hottest_point(&self) -> usize {
        self.peak_map().argmax()
    }

    /// The ambient temperature of the underlying model.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Number of instructions with a computed state.
    pub fn num_states(&self) -> usize {
        self.after.iter().filter(|s| s.is_some()).count()
    }

    /// Serialises the result into the spill codec (exact `f64` bit
    /// patterns — see [`crate::codec`]). [`decode`](Self::decode)
    /// reconstructs a result that behaves identically, fingerprints and
    /// all.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(crate::codec::CODEC_VERSION);
        w.put_u64(self.num_points as u64);
        w.put_f64(self.ambient);
        for states in [&self.after, &self.block_entry, &self.block_exit] {
            w.put_u64(states.len() as u64);
            for s in states {
                match s {
                    None => w.put_u8(0),
                    Some(s) => {
                        w.put_u8(1);
                        w.put_u64(s.temps().len() as u64);
                        for &t in s.temps() {
                            w.put_f64(t);
                        }
                    }
                }
            }
        }
        match self.convergence {
            Convergence::Converged { iterations } => {
                w.put_u8(0);
                w.put_u64(iterations as u64);
                w.put_f64(0.0);
            }
            Convergence::DidNotConverge {
                iterations,
                residual,
            } => {
                w.put_u8(1);
                w.put_u64(iterations as u64);
                w.put_f64(residual);
            }
        }
        w.put_u64(self.residual_history.len() as u64);
        for &r in &self.residual_history {
            w.put_f64(r);
        }
        w.into_bytes()
    }

    /// Reconstructs a result from [`encode`](Self::encode)d bytes.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated, corrupted, or
    /// version-mismatched input — never panics, whatever the bytes.
    pub fn decode(bytes: &[u8]) -> Result<ThermalDfaResult, CodecError> {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8()?;
        if version != crate::codec::CODEC_VERSION {
            return Err(CodecError::Version(version));
        }
        let num_points = r.get_u64()? as usize;
        let ambient = r.get_f64()?;
        let mut vecs: Vec<Vec<Option<ThermalState>>> = Vec::with_capacity(3);
        for _ in 0..3 {
            let n = r.get_u64()?;
            let n = r.checked_len(n, 1)?;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                match r.get_u8()? {
                    0 => states.push(None),
                    1 => {
                        let len = r.get_u64()?;
                        let len = r.checked_len(len, 8)?;
                        let mut temps = Vec::with_capacity(len);
                        for _ in 0..len {
                            temps.push(r.get_f64()?);
                        }
                        states.push(Some(ThermalState::from_vec(temps)));
                    }
                    t => return Err(CodecError::BadTag(t)),
                }
            }
            vecs.push(states);
        }
        let block_exit = vecs.pop().expect("three state vectors");
        let block_entry = vecs.pop().expect("three state vectors");
        let after = vecs.pop().expect("three state vectors");
        let convergence = match r.get_u8()? {
            0 => {
                let iterations = r.get_u64()? as usize;
                let _ = r.get_f64()?;
                Convergence::Converged { iterations }
            }
            1 => Convergence::DidNotConverge {
                iterations: r.get_u64()? as usize,
                residual: r.get_f64()?,
            },
            t => return Err(CodecError::BadTag(t)),
        };
        let n = r.get_u64()?;
        let n = r.checked_len(n, 8)?;
        let mut residual_history = Vec::with_capacity(n);
        for _ in 0..n {
            residual_history.push(r.get_f64()?);
        }
        r.finish()?;
        Ok(ThermalDfaResult {
            after,
            block_entry,
            block_exit,
            convergence,
            residual_history,
            ambient,
            num_points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MergeRule;
    use tadfa_ir::FunctionBuilder;
    use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig, RoundRobin};
    use tadfa_thermal::{Floorplan, RcParams, RegisterFile};

    fn rf_4x4() -> RegisterFile {
        RegisterFile::new(Floorplan::grid(4, 4))
    }

    fn analyse(
        f: &mut Function,
        config: ThermalDfaConfig,
    ) -> (ThermalDfaResult, Assignment, AnalysisGrid) {
        let rf = rf_4x4();
        let alloc =
            allocate_linear_scan(f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let dfa =
            ThermalDfa::new(f, &alloc.assignment, &grid, PowerModel::default(), config).unwrap();
        let r = dfa.run();
        (r, alloc.assignment, grid)
    }

    fn straightline() -> Function {
        let mut b = FunctionBuilder::new("s");
        let x = b.param();
        let mut v = x;
        for _ in 0..6 {
            v = b.add(v, v);
        }
        b.ret(Some(v));
        b.finish()
    }

    use tadfa_ir::Function;

    fn loopy(iterish: i64) -> Function {
        let mut b = FunctionBuilder::new("l");
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let n = b.iconst(iterish);
        let i = b.iconst(0);
        let acc = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, exit, body);
        b.switch_to(body);
        let acc2 = b.mul(acc, i);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(acc, acc2);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.finish()
    }

    #[test]
    fn straightline_converges_quickly() {
        let mut f = straightline();
        let (r, _, _) = analyse(&mut f, ThermalDfaConfig::default());
        assert!(r.convergence.is_converged());
        // One sweep computes, the second confirms (no loops).
        assert_eq!(r.convergence.iterations(), 2);
        assert_eq!(r.num_states(), f.num_insts());
    }

    #[test]
    fn temperature_rises_along_straightline_execution() {
        let mut f = straightline();
        let (r, _, _) = analyse(&mut f, ThermalDfaConfig::default());
        let order = f.inst_ids_in_layout_order();
        let first = r.state_after(order[0].1).unwrap();
        let last = r.state_after(order.last().unwrap().1).unwrap();
        assert!(
            last.peak() > first.peak(),
            "sustained accesses heat the file: {} -> {}",
            first.peak(),
            last.peak()
        );
        assert!(last.peak() > r.ambient());
    }

    #[test]
    fn accessed_registers_are_the_hot_ones() {
        let mut f = straightline();
        let (r, assignment, grid) = analyse(&mut f, ThermalDfaConfig::default());
        let peak = r.peak_map();
        // The hottest point hosts one of the assigned registers.
        let assigned_points: Vec<usize> =
            assignment.iter().map(|(_, p)| grid.point_of(p)).collect();
        assert!(assigned_points.contains(&peak.argmax()));
        // A point with no assigned register stays cooler than the peak.
        let cold = (0..grid.num_points())
            .find(|p| !assigned_points.contains(p))
            .expect("first-free on a chain leaves most registers untouched");
        assert!(peak.get(cold) < peak.peak());
    }

    #[test]
    fn loop_saturates_and_converges() {
        let mut f = loopy(100);
        let (r, _, _) = analyse(&mut f, ThermalDfaConfig::default());
        assert!(r.convergence.is_converged());
        assert!(
            r.convergence.iterations() > 2,
            "loops need multiple sweeps: {}",
            r.convergence.iterations()
        );
        // Residuals decay monotonically after the first sweep (contracting
        // iteration).
        let h = &r.residual_history;
        assert!(h.len() >= 3);
        assert!(h[h.len() - 1] <= h[1], "residuals shrink: {h:?}");
    }

    #[test]
    fn smaller_delta_needs_more_iterations() {
        // A larger time scale speeds the contraction so the tight-delta
        // run converges well inside the default iteration budget.
        let base = ThermalDfaConfig {
            time_scale: 10_000.0,
            ..ThermalDfaConfig::default()
        };
        let mut f1 = loopy(100);
        let (r_loose, _, _) = analyse(&mut f1, base.with_delta(1.0));
        let mut f2 = loopy(100);
        let (r_tight, _, _) = analyse(&mut f2, base.with_delta(1e-4));
        assert!(r_loose.convergence.is_converged());
        assert!(r_tight.convergence.is_converged());
        assert!(
            r_tight.convergence.iterations() >= r_loose.convergence.iterations(),
            "tight {} vs loose {}",
            r_tight.convergence.iterations(),
            r_loose.convergence.iterations()
        );
    }

    #[test]
    fn iteration_cap_reports_non_convergence() {
        let mut f = loopy(100);
        let cfg = ThermalDfaConfig::default()
            .with_delta(1e-9)
            .with_max_iterations(3);
        let (r, _, _) = analyse(&mut f, cfg);
        assert!(!r.convergence.is_converged());
        match r.convergence {
            Convergence::DidNotConverge {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, 3);
                assert!(residual > 1e-9);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn thermal_runaway_never_converges() {
        // Leakage feedback strong enough that heating outpaces
        // dissipation: the paper's "no way to guarantee convergence" in
        // its physically honest form.
        let mut f = loopy(100);
        let rf = rf_4x4();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        // Loop gain = dP/dT · R_eff with R_eff = 1/(G_vert + 4·G_lat)
        // ≈ 5.2e3 K/W per cell; gain > 1 needs dP/dT > ~1.9e-4 W/K,
        // i.e. a coefficient above ~10/K at 20 µW of base leakage.
        let pm = PowerModel {
            leakage_temp_coeff: 60.0,
            ..PowerModel::default()
        };
        let cfg = ThermalDfaConfig {
            time_scale: 10_000.0,
            ..ThermalDfaConfig::default().with_max_iterations(30)
        };
        let dfa = ThermalDfa::new(&f, &alloc.assignment, &grid, pm, cfg).unwrap();
        let r = dfa.run();
        assert!(!r.convergence.is_converged(), "runaway must not converge");
        let h = &r.residual_history;
        assert!(
            h[h.len() - 1] > h[1],
            "residuals grow under runaway: {:?}",
            &h[1..]
        );
    }

    #[test]
    fn compiled_fixpoint_bit_identical_to_reference() {
        // The compiled stencil path must reproduce the naive reference
        // path bit for bit — states, residuals, convergence.
        for leakage in [true, false] {
            let mut f = loopy(80);
            let rf = rf_4x4();
            let alloc =
                allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
                    .unwrap();
            let grid = AnalysisGrid::full(&rf, RcParams::default());
            let cfg = ThermalDfaConfig {
                leakage_feedback: leakage,
                ..ThermalDfaConfig::default()
            };
            let dfa =
                ThermalDfa::new(&f, &alloc.assignment, &grid, PowerModel::default(), cfg).unwrap();
            let fast = dfa.run();
            let slow = dfa.run_reference();
            let bits = |r: &ThermalDfaResult| -> Vec<u64> {
                r.after
                    .iter()
                    .flatten()
                    .flat_map(|s| s.temps().iter().map(|t| t.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&fast), bits(&slow), "leakage={leakage}");
            assert_eq!(fast.residual_history, slow.residual_history);
            assert_eq!(fast.convergence, slow.convergence);
        }
    }

    #[test]
    fn scratch_survives_grid_size_changes() {
        // One worker scratch is reused across sweep cells with different
        // granularities; the dirty-index reset must stay correct.
        let rf = RegisterFile::new(Floorplan::grid(8, 8));
        let mut f = straightline();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let fine = AnalysisGrid::full(&rf, RcParams::default());
        let coarse = AnalysisGrid::coarsened(&rf, RcParams::default(), 2, 2).unwrap();
        let mut scratch = DfaScratch::default();
        let mut peaks = Vec::new();
        for grid in [&fine, &coarse, &fine, &coarse] {
            let dfa = ThermalDfa::new(
                &f,
                &alloc.assignment,
                grid,
                PowerModel::default(),
                ThermalDfaConfig::default(),
            )
            .unwrap();
            let shared = dfa.run_with(&mut scratch, None);
            peaks.push(shared.peak_temperature());
            // Reusing scratch must equal a fresh run.
            assert_eq!(shared.peak_temperature(), dfa.run().peak_temperature());
        }
        assert_eq!(peaks[0], peaks[2]);
        assert_eq!(peaks[1], peaks[3]);
    }

    #[test]
    fn cached_run_is_bit_identical_to_uncached() {
        let mut f = loopy(60);
        let rf = rf_4x4();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let dfa = ThermalDfa::new(
            &f,
            &alloc.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap();

        let plain = dfa.run();
        let cache = crate::cache::SolveCache::new();
        let mut scratch = DfaScratch::default();
        let cold = dfa.run_with(&mut scratch, Some(&cache));
        let warm = dfa.run_with(&mut scratch, Some(&cache));

        let bits = |r: &ThermalDfaResult| -> Vec<u64> {
            r.after
                .iter()
                .flatten()
                .flat_map(|s| s.temps().iter().map(|t| t.to_bits()))
                .collect()
        };
        assert_eq!(bits(&plain), bits(&cold), "cold cache changes nothing");
        assert_eq!(bits(&plain), bits(&warm), "warm cache changes nothing");
        assert_eq!(plain.residual_history, warm.residual_history);
        let s = cache.stats();
        assert!(s.hits > 0, "second run hits: {s:?}");
        assert!(s.entries > 0);
    }

    #[test]
    fn signature_distinguishes_equal_area_grid_shapes() {
        // 2×8 and 4×4 coarsenings of an 8×8 file share the scaled RC
        // parameters and point count but differ in neighbour topology;
        // their fixpoints differ, so their cache keys must too.
        let rf = RegisterFile::new(Floorplan::grid(8, 8));
        let mut f = straightline();
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let wide = AnalysisGrid::coarsened(&rf, RcParams::default(), 2, 8).unwrap();
        let square = AnalysisGrid::coarsened(&rf, RcParams::default(), 4, 4).unwrap();
        assert_eq!(wide.num_points(), square.num_points());
        let sig = |grid: &AnalysisGrid| {
            ThermalDfa::new(
                &f,
                &alloc.assignment,
                grid,
                PowerModel::default(),
                ThermalDfaConfig::default(),
            )
            .unwrap()
            .signature()
        };
        assert_ne!(sig(&wide), sig(&square));
    }

    /// Cache keys are persisted (`--cache-dir` segments), so their
    /// format is pinned: a leaf and a caller that replays the leaf's
    /// summary, both keyed as `signature()` and as the summary's
    /// embedded signature. Changing any literal here orphans every
    /// segment written by an earlier build.
    #[test]
    fn signature_and_summary_keys_are_pinned() {
        let rf = rf_4x4();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let mut leaf = straightline();
        let leaf_alloc =
            allocate_linear_scan(&mut leaf, &rf, &mut FirstFree, &RegAllocConfig::default())
                .unwrap();
        let leaf_dfa = ThermalDfa::new(
            &leaf,
            &leaf_alloc.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap();
        let leaf_key = 0x1289d6cc05c79d315538507a880a2d0d_u128;
        assert_eq!(leaf_dfa.signature(), leaf_key);
        let leaf_summary = leaf_dfa.summarize();
        assert_eq!(leaf_summary.signature(), leaf_key);

        let mut b = FunctionBuilder::new("main");
        let x = b.param();
        let y = b.add(x, x);
        let r = b.call("s", &[y]);
        let z = b.add(r, y);
        b.ret(Some(z));
        let mut main = b.finish();
        let main_alloc =
            allocate_linear_scan(&mut main, &rf, &mut FirstFree, &RegAllocConfig::default())
                .unwrap();
        let summaries = HashMap::from([("s".to_string(), Arc::new(leaf_summary))]);
        let main_dfa = ThermalDfa::with_summaries(
            &main,
            &main_alloc.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
            &summaries,
        )
        .unwrap();
        let main_key = 0xbc5c718fc054d2770c109805355d00aa_u128;
        assert_eq!(main_dfa.signature(), main_key);
        assert_eq!(main_dfa.summarize().signature(), main_key);
    }

    #[test]
    fn merge_rules_bound_each_other() {
        // Max merge is an upper bound on Average merge everywhere.
        let mut f1 = loopy(50);
        let (r_max, _, _) = analyse(
            &mut f1,
            ThermalDfaConfig::default().with_merge(MergeRule::Max),
        );
        let mut f2 = loopy(50);
        let (r_avg, _, _) = analyse(
            &mut f2,
            ThermalDfaConfig::default().with_merge(MergeRule::Average),
        );
        assert!(r_max.peak_temperature() >= r_avg.peak_temperature() - 1e-9);
    }

    #[test]
    fn block_entry_and_exit_states_exist_for_reachable_blocks() {
        let mut f = loopy(10);
        let (r, _, _) = analyse(&mut f, ThermalDfaConfig::default());
        for bb in f.block_ids() {
            assert!(r.block_entry(bb).is_some(), "{bb} entry");
            assert!(r.block_exit(bb).is_some(), "{bb} exit");
        }
    }

    #[test]
    fn policy_changes_the_predicted_map() {
        // Same program, two assignment policies: first-free should
        // concentrate heat more than round-robin.
        let rf = rf_4x4();
        let grid = AnalysisGrid::full(&rf, RcParams::default());

        let mut f1 = straightline();
        let a1 =
            allocate_linear_scan(&mut f1, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let r1 = ThermalDfa::new(
            &f1,
            &a1.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap()
        .run();

        let mut f2 = straightline();
        let a2 = allocate_linear_scan(
            &mut f2,
            &rf,
            &mut RoundRobin::default(),
            &RegAllocConfig::default(),
        )
        .unwrap();
        let r2 = ThermalDfa::new(
            &f2,
            &a2.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap()
        .run();

        let m1 = r1.peak_map();
        let m2 = r2.peak_map();
        assert!(
            m1.stddev() >= m2.stddev(),
            "first-free σ {} vs round-robin σ {}",
            m1.stddev(),
            m2.stddev()
        );
    }
}
