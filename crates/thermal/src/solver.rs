//! Compiled solver plans: allocation-free, stencil-specialized RC
//! stepping.
//!
//! [`ThermalModel::step`] and [`ThermalModel::steady_state`] are correct
//! but built for readability: every call heap-allocates its working
//! buffer, re-derives the conductances and the stability limit, and
//! walks [`Floorplan::neighbors`](crate::Floorplan::neighbors) — an
//! iterator that performs a division per cell to recover `(row, col)`.
//! Inside the thermal-DFA fixpoint those costs are paid once per
//! instruction per sweep and dominate whole-program analysis time.
//!
//! A [`CompiledModel`] is built **once** per model and amortizes all of
//! it:
//!
//! * per-cell coefficient tables (`g_vert`, `g_lat`, the Gauss–Seidel
//!   denominators) and the sub-step limit are precomputed;
//! * the 4-connected adjacency is flattened into a CSR table
//!   (`row_ptr`/`col_idx`) for the generic fallback kernel;
//! * on the rectangular grids every [`Floorplan`](crate::Floorplan)
//!   describes, the default **grid-stencil kernel** drops the adjacency
//!   table entirely: neighbours are `i ± 1` and `i ± cols`, and the
//!   interior/boundary loops are split so the interior loop is
//!   branch-free and auto-vectorizable;
//! * transient stepping is allocation-free: the caller owns a
//!   [`StepScratch`] whose buffer is recycled by pointer swap.
//!
//! # Bit-identity contract
//!
//! Every kernel preserves the *exact floating-point operation order* of
//! the naive solvers in [`crate::ThermalModel`]: neighbour contributions
//! accumulate in the same N/S/W/E order `neighbors` yields, the
//! Gauss–Seidel denominator is folded term by term at compile time the
//! way the naive sweep folds it per cell, and derived quantities
//! (`1/R`, the stability limit) are computed by the same expressions.
//! Consequently compiled results are **bit-identical** to the naive
//! solvers' — asserted cell-by-cell (`f64::to_bits`) by
//! `crates/thermal/tests/kernel_identity.rs` and suite-wide via
//! `ThermalReport::fingerprint` in `tests/solver_identity.rs`.
//!
//! # Example
//!
//! ```
//! use tadfa_thermal::{CompiledModel, Floorplan, RcParams, StepScratch, ThermalModel};
//!
//! let model = ThermalModel::new(Floorplan::grid(8, 8), RcParams::default());
//! let solver = model.compile();
//! let mut power = vec![0.0; 64];
//! power[27] = 1e-3;
//!
//! // Allocation-free stepping: the scratch buffer is reused forever.
//! let mut scratch = StepScratch::default();
//! let mut compiled = model.ambient_state();
//! let mut naive = model.ambient_state();
//! for _ in 0..10 {
//!     solver.step_into(&mut compiled, &power, 1e-4, &mut scratch);
//!     model.step(&mut naive, &power, 1e-4);
//! }
//! assert_eq!(compiled.temps(), naive.temps()); // bit-identical
//! ```

use crate::error::ThermalError;
use crate::lanes::{LANES, W8};
use crate::rc::{RcParams, ThermalModel};
use crate::state::ThermalState;

/// Which inner kernel a [`CompiledModel`] executes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum KernelKind {
    /// Grid-stencil kernel: neighbours addressed as `i ± 1` / `i ± cols`
    /// with split interior/boundary loops. The default — every
    /// [`Floorplan`](crate::Floorplan) is a rectangular grid.
    Stencil,
    /// Generic CSR kernel over the flattened adjacency table. The
    /// fallback for irregular topologies (and the cross-check in the
    /// bit-identity tests).
    Csr,
}

/// Caller-owned scratch for [`CompiledModel::step_into`] /
/// [`ThermalModel::step_into`].
///
/// Holds the transient solver's `next`-temperatures buffer (and, for
/// the sub-stepped sparse path, a dense power staging buffer) so
/// repeated stepping never allocates. One scratch serves models of any
/// size (buffers are resized on first use per size); the thermal DFA
/// keeps one inside its `DfaScratch` per worker.
#[derive(Clone, Debug, Default)]
pub struct StepScratch {
    pub(crate) next: Vec<f64>,
    /// Dense `access + leakage` staging for the sub-stepped sparse path.
    dense_power: Vec<f64>,
    /// Maintained-all-zero scatter target for the single-sub-step sparse
    /// path: deposits are scattered in, the fused kernel runs over it,
    /// and the touched cells are re-zeroed — O(accesses) bookkeeping for
    /// a dense-power kernel pass.
    sparse_power: Vec<f64>,
}

impl StepScratch {
    /// A fresh scratch (empty buffers; sized lazily on first use).
    pub fn new() -> StepScratch {
        StepScratch::default()
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        if self.next.len() != n {
            self.next.clear();
            self.next.resize(n, 0.0);
        }
    }
}

/// The linearised leakage model in kernel-ready form — the same
/// coefficients as `PowerModel`'s leakage, evaluated with the identical
/// expression (`(per_cell · (1 + coeff · (T − T_ref))).max(0)`), so the
/// fused leaky kernels stay bit-identical to "add leakage, then step".
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LeakageParams {
    /// Leakage power per cell at the reference temperature, W.
    pub per_cell: f64,
    /// Fractional leakage increase per Kelvin above the reference.
    pub temp_coeff: f64,
    /// Reference temperature of the linearisation, K.
    pub reference_temp: f64,
}

/// `PowerModel::leakage_at`, verbatim.
#[inline(always)]
fn leak_at(lp: &LeakageParams, t: f64) -> f64 {
    (lp.per_cell * (1.0 + lp.temp_coeff * (t - lp.reference_temp))).max(0.0)
}

/// The zero leakage model the non-leaky kernel instantiations take
/// (and, being `!LEAKY`, never read).
const NO_LEAK: LeakageParams = LeakageParams {
    per_cell: 0.0,
    temp_coeff: 0.0,
    reference_temp: 0.0,
};

/// A precomputed sub-step schedule: how many explicit-Euler sub-steps a
/// given `dt` needs under a model's stability limit, and their size.
/// Callers that step with the same `dt` many times (the thermal DFA
/// steps each instruction's `dt` once per sweep) build this once via
/// [`CompiledModel::schedule`] instead of re-deriving it per call.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct StepSchedule {
    /// Sub-steps to run (0 for `dt == 0`).
    n_sub: u32,
    /// Sub-step size, seconds.
    h: f64,
}

impl StepSchedule {
    /// Number of explicit-Euler sub-steps the schedule runs.
    pub fn n_sub(&self) -> u32 {
        self.n_sub
    }

    /// The sub-step size, seconds (0.0 when `n_sub` is 0).
    pub fn sub_step(&self) -> f64 {
        self.h
    }

    /// Reassembles a schedule from its raw parts — the persistence
    /// round-trip constructor. The parts must come from
    /// [`StepSchedule::n_sub`] / [`StepSchedule::sub_step`] of a
    /// schedule built for the *same* compiled model, or stepping with
    /// it can violate the model's stability limit.
    pub fn from_raw(n_sub: u32, sub_step: f64) -> StepSchedule {
        StepSchedule { n_sub, h: sub_step }
    }
}

/// Tolerance and sweep budget of the Gauss–Seidel steady-state solver.
///
/// The defaults reproduce the historical hard-coded values (1 µK L∞
/// update, 100 000 sweeps).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SteadyStateOptions {
    /// Stop once no cell's update exceeds this, Kelvin.
    pub tolerance: f64,
    /// Give up (reporting non-convergence) after this many sweeps.
    pub max_sweeps: usize,
}

impl Default for SteadyStateOptions {
    fn default() -> SteadyStateOptions {
        SteadyStateOptions {
            tolerance: 1e-6,
            max_sweeps: 100_000,
        }
    }
}

/// How a Gauss–Seidel steady-state solve ended.
///
/// Replaces the historical silent behaviour (a `debug_assert!` that
/// vanished in release builds): iteration count and convergence status
/// are always recorded and returned.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SteadyStateStats {
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the final sweep's L∞ update beat the tolerance.
    pub converged: bool,
    /// The final sweep's L∞ update, Kelvin (∞ if no sweep ran).
    pub residual: f64,
}

impl SteadyStateStats {
    /// The pre-iteration value: zero sweeps, unconverged, ∞ residual.
    pub(crate) fn start() -> SteadyStateStats {
        SteadyStateStats {
            sweeps: 0,
            converged: false,
            residual: f64::INFINITY,
        }
    }
}

/// A solver plan compiled from a [`ThermalModel`]: flattened CSR
/// adjacency, per-cell coefficient tables, and stencil-specialized
/// kernels. Build once (cheap, O(cells)), share behind an `Arc`, reuse
/// for every solve — see the [module docs](self).
#[derive(Clone, Debug)]
pub struct CompiledModel {
    rows: usize,
    cols: usize,
    n: usize,
    g_vert: f64,
    g_lat: f64,
    cap: f64,
    ambient: f64,
    max_stable_dt: f64,
    kernel: KernelKind,
    /// CSR row offsets into `col_idx`, `n + 1` entries.
    row_ptr: Vec<u32>,
    /// Flattened neighbour lists in the naive solver's N/S/W/E order.
    col_idx: Vec<u32>,
    /// Per-cell Gauss–Seidel denominator, folded term by term exactly
    /// as the naive sweep folds it (`g_vert`, then `+ g_lat` per
    /// neighbour) so quotients stay bit-identical.
    gs_den: Vec<f64>,
    /// Per-edge conductances parallel to `col_idx` — populated only by
    /// [`CompiledModel::from_weighted_graph`]. Empty means every edge
    /// carries the uniform `g_lat` (the grid constructors), and the
    /// kernels run their historical, bit-identical uniform loops.
    edge_g: Vec<f64>,
    /// Model-constant lane splats, broadcast once at compile time so
    /// per-step [`LaneCtx`] construction only splats the step- and
    /// leakage-dependent values.
    lanes: ModelLanes,
}

impl CompiledModel {
    /// Compiles `model` with the default (stencil) kernel.
    pub fn new(model: &ThermalModel) -> CompiledModel {
        CompiledModel::with_kernel(model, KernelKind::Stencil)
    }

    /// Compiles `model` with an explicit kernel — the hook the
    /// bit-identity tests and kernel benches use to force the CSR path.
    pub fn with_kernel(model: &ThermalModel, kernel: KernelKind) -> CompiledModel {
        let fp = model.floorplan();
        let params = model.params();
        let n = fp.num_cells();
        assert!(n < u32::MAX as usize, "floorplan too large for CSR plan");
        // Same expressions as the naive solvers, so the derived values
        // share their exact bit patterns.
        let g_vert = 1.0 / params.vertical_resistance;
        let g_lat = 1.0 / params.lateral_resistance;

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(4 * n);
        let mut gs_den = Vec::with_capacity(n);
        row_ptr.push(0u32);
        for i in 0..n {
            let mut den = g_vert;
            for j in fp.neighbors(i) {
                col_idx.push(j as u32);
                den += g_lat;
            }
            row_ptr.push(col_idx.len() as u32);
            gs_den.push(den);
        }

        CompiledModel {
            rows: fp.rows(),
            cols: fp.cols(),
            n,
            g_vert,
            g_lat,
            cap: params.cell_capacitance,
            ambient: params.ambient,
            max_stable_dt: model.max_stable_dt(),
            kernel,
            row_ptr,
            col_idx,
            gs_den,
            edge_g: Vec::new(),
            lanes: ModelLanes::new(g_vert, g_lat, params.ambient, params.cell_capacitance),
        }
    }

    /// Compiles a solver plan over an **explicit weighted graph**: cell
    /// `i`'s lateral neighbours are `neighbors[i]`, each `(cell,
    /// conductance)` pair folded in list order. This is how irregular
    /// topologies — multi-core dies whose inter-core coupling edges
    /// carry a different conductance than the intra-core lateral edges —
    /// reuse the CSR fallback kernel; the plan always executes
    /// [`KernelKind::Csr`].
    ///
    /// The caller owns the stability analysis: `max_stable_dt` must be
    /// at or below the true explicit-Euler limit `0.5·C / max_i(G_i)`
    /// of the weighted graph (the constructor checks positivity, not
    /// tightness). Passing the value derived from the same expressions
    /// as [`ThermalModel::max_stable_dt`] keeps sub-step schedules —
    /// and therefore results — bit-identical to per-component plans
    /// when the graph decomposes into uncoupled grids.
    ///
    /// Zero-conductance edges must be **omitted**, not listed with
    /// weight `0.0`: an absent edge contributes no floating-point
    /// operation, which is what makes an uncoupled multi-core plan
    /// bit-identical to independent single-core plans.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParam`] if `params` fail
    /// validation, `max_stable_dt` is non-positive/non-finite, a
    /// neighbour index is out of range, or an edge conductance is
    /// non-positive/non-finite; [`ThermalError::EmptyFloorplan`] for an
    /// empty graph.
    pub fn from_weighted_graph(
        params: &RcParams,
        neighbors: &[Vec<(u32, f64)>],
        max_stable_dt: f64,
    ) -> Result<CompiledModel, ThermalError> {
        params.checked()?;
        let n = neighbors.len();
        if n == 0 {
            return Err(ThermalError::EmptyFloorplan { rows: 0, cols: 0 });
        }
        assert!(n < u32::MAX as usize, "graph too large for CSR plan");
        if max_stable_dt <= 0.0 || !max_stable_dt.is_finite() {
            return Err(ThermalError::InvalidParam {
                param: "max_stable_dt",
                value: max_stable_dt,
                reason: "must be positive and finite",
            });
        }
        let g_vert = 1.0 / params.vertical_resistance;
        let g_lat = 1.0 / params.lateral_resistance;

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut edge_g = Vec::new();
        let mut gs_den = Vec::with_capacity(n);
        row_ptr.push(0u32);
        for adj in neighbors {
            let mut den = g_vert;
            for &(j, g) in adj {
                if (j as usize) >= n {
                    return Err(ThermalError::InvalidParam {
                        param: "neighbor",
                        value: j as f64,
                        reason: "edge endpoint out of range",
                    });
                }
                if g <= 0.0 || !g.is_finite() {
                    return Err(ThermalError::InvalidParam {
                        param: "edge_conductance",
                        value: g,
                        reason: "must be positive and finite (omit absent edges)",
                    });
                }
                col_idx.push(j);
                edge_g.push(g);
                den += g;
            }
            row_ptr.push(col_idx.len() as u32);
            gs_den.push(den);
        }

        Ok(CompiledModel {
            // The stencil kernel never runs on a weighted plan; the
            // nominal 1×n shape only satisfies the struct invariants.
            rows: 1,
            cols: n,
            n,
            g_vert,
            g_lat,
            cap: params.cell_capacitance,
            ambient: params.ambient,
            max_stable_dt,
            kernel: KernelKind::Csr,
            row_ptr,
            col_idx,
            gs_den,
            edge_g,
            lanes: ModelLanes::new(g_vert, g_lat, params.ambient, params.cell_capacitance),
        })
    }

    /// The kernel this plan executes.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.n
    }

    /// Ambient temperature, K.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// The precomputed explicit-Euler stability limit, seconds.
    pub fn max_stable_dt(&self) -> f64 {
        self.max_stable_dt
    }

    /// A state with every cell at ambient.
    pub fn ambient_state(&self) -> ThermalState {
        ThermalState::uniform(self.n, self.ambient)
    }

    /// Precomputes the sub-step schedule for `dt` — the exact `n_sub`
    /// and `h` [`step_into`](CompiledModel::step_into) would derive.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn schedule(&self, dt: f64) -> StepSchedule {
        assert!(dt >= 0.0, "negative time step");
        if dt == 0.0 {
            return StepSchedule { n_sub: 0, h: 0.0 };
        }
        let n_sub = (dt / self.max_stable_dt).ceil().max(1.0) as usize;
        StepSchedule {
            n_sub: n_sub.try_into().expect("sub-step count fits in u32"),
            h: dt / n_sub as f64,
        }
    }

    /// Advances `state` by `dt` seconds under dense `power`, sub-stepping
    /// as needed for stability — [`ThermalModel::step`] without the
    /// per-call allocation and neighbour-iterator overhead, bit-identical
    /// to it. The die simulation's and the co-simulation's call.
    ///
    /// # Panics
    ///
    /// Panics if `power`/`state` sizes mismatch the model or `dt` is
    /// negative.
    #[inline]
    pub fn step_into(
        &self,
        state: &mut ThermalState,
        power: &[f64],
        dt: f64,
        scratch: &mut StepScratch,
    ) {
        let sched = self.schedule(dt);
        assert_eq!(power.len(), self.n, "power vector size mismatch");
        assert_eq!(state.len(), self.n, "state size mismatch");
        debug_assert!(power.iter().all(|&p| p >= 0.0), "negative power");
        if sched.n_sub == 0 {
            return;
        }
        scratch.ensure(self.n);
        self.run_substeps(
            state,
            power,
            sched.n_sub as usize,
            sched.h,
            &mut scratch.next,
            None,
        );
    }

    /// Advances `state` under **sparse** access power: `deposits` lists
    /// the `(cell, watts)` pairs (each cell at most once, watts
    /// pre-summed); every unlisted cell has zero access power. With
    /// `leak`, temperature-dependent leakage of the pre-step
    /// temperatures is added to every cell — bit for bit as "add
    /// `PowerModel` leakage, then step" would.
    ///
    /// With `prev`, the fixpoint's compare-and-copy is **fused into the
    /// kernel**: the call returns the L∞ distance between the new
    /// temperatures and `prev` while overwriting `prev` with them, in
    /// the same pass over the grid. That is exactly equivalent (bit for
    /// bit, including the returned change) to stepping without `prev`
    /// and then calling
    /// [`ThermalState::linf_update_slices`]`(prev, state.temps())`: the
    /// per-lane `max` folds it splits off are exactly associative. With
    /// sub-stepping, only the final sub-step is tracked. Without `prev`
    /// the call returns `0.0`.
    ///
    /// This is the thermal DFA's innermost call: on the single-sub-step
    /// path the deposits are scattered into a maintained-all-zero dense
    /// buffer, one fused kernel pass runs over it, and the touched
    /// cells are re-zeroed — O(accesses) bookkeeping around a single
    /// grid pass. Bit-identical to scattering the deposits into a dense
    /// zero vector and stepping it, because `0.0 + x` is exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use tadfa_thermal::{Floorplan, RcParams, StepScratch, ThermalModel, ThermalState};
    ///
    /// let model = ThermalModel::new(Floorplan::grid(4, 4), RcParams::default());
    /// let solver = model.compile();
    /// let sched = solver.schedule(1e-4);
    /// let mut scratch = StepScratch::new();
    ///
    /// let mut tracked = model.ambient_state();
    /// let mut prev = vec![solver.ambient(); 16];
    /// let change = solver.step_sparse_into(
    ///     &mut tracked, &[(5, 1e-3)], &sched, None, &mut scratch, Some(&mut prev));
    ///
    /// // Bit-identical to stepping untracked and folding separately.
    /// let mut plain = model.ambient_state();
    /// let mut prev2 = vec![solver.ambient(); 16];
    /// solver.step_sparse_into(&mut plain, &[(5, 1e-3)], &sched, None, &mut scratch, None);
    /// let expect = ThermalState::linf_update_slices(&mut prev2, plain.temps());
    /// assert_eq!(tracked.temps(), plain.temps());
    /// assert_eq!(change.to_bits(), expect.to_bits());
    /// assert_eq!(prev, prev2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `state` or `prev` has the wrong size or a deposit cell
    /// is out of range.
    #[inline]
    pub fn step_sparse_into(
        &self,
        state: &mut ThermalState,
        deposits: &[(u32, f64)],
        sched: &StepSchedule,
        leak: Option<&LeakageParams>,
        scratch: &mut StepScratch,
        prev: Option<&mut [f64]>,
    ) -> f64 {
        match (leak, prev) {
            (Some(lp), Some(prev)) => {
                self.sparse_impl::<true, true>(state, deposits, sched, lp, scratch, prev)
            }
            (Some(lp), None) => {
                self.sparse_impl::<true, false>(state, deposits, sched, lp, scratch, &mut [])
            }
            (None, Some(prev)) => {
                self.sparse_impl::<false, true>(state, deposits, sched, &NO_LEAK, scratch, prev)
            }
            (None, None) => {
                self.sparse_impl::<false, false>(state, deposits, sched, &NO_LEAK, scratch, &mut [])
            }
        }
    }

    /// The one sparse-stepping implementation behind
    /// [`step_sparse_into`](CompiledModel::step_sparse_into),
    /// monomorphized over leakage and change tracking.
    fn sparse_impl<const LEAKY: bool, const TRACK: bool>(
        &self,
        state: &mut ThermalState,
        deposits: &[(u32, f64)],
        sched: &StepSchedule,
        leak: &LeakageParams,
        scratch: &mut StepScratch,
        prev: &mut [f64],
    ) -> f64 {
        assert_eq!(state.len(), self.n, "state size mismatch");
        if TRACK {
            assert_eq!(prev.len(), self.n, "prev size mismatch");
        }
        // Out-of-range deposit cells panic at the indexing site (the
        // scatter loops); no up-front scan needed.
        debug_assert!(deposits.iter().all(|&(_, w)| w >= 0.0), "negative power");
        if sched.n_sub == 0 {
            // A zero-dt step leaves the state untouched; tracking still
            // owes the caller the compare-and-copy against `prev`.
            return if TRACK {
                ThermalState::linf_update_slices(prev, state.temps())
            } else {
                0.0
            };
        }
        scratch.ensure(self.n);
        if sched.n_sub == 1 {
            // Scatter into the maintained-all-zero buffer, run ONE fused
            // kernel pass (step + leakage + power + change tracking),
            // then restore the zeros. `0.0 + w` is exact, so this is
            // bit-identical to a dense pass over the scattered vector.
            let StepScratch {
                next, sparse_power, ..
            } = scratch;
            if sparse_power.len() != self.n {
                sparse_power.clear();
                sparse_power.resize(self.n, 0.0);
            }
            for &(p, w) in deposits {
                sparse_power[p as usize] += w;
            }
            let change = self.substep_dispatch::<LEAKY, TRACK>(
                state.temps(),
                sparse_power,
                leak,
                next,
                prev,
                sched.h,
            );
            for &(p, _) in deposits {
                sparse_power[p as usize] = 0.0;
            }
            state.swap_buffer(next);
            return change;
        }
        // Sub-stepped: stage the dense power once (leakage frozen at the
        // pre-step temperatures, matching the reference semantics), then
        // run the dense kernel.
        let StepScratch {
            next, dense_power, ..
        } = scratch;
        dense_power.clear();
        dense_power.resize(self.n, 0.0);
        for &(p, w) in deposits {
            dense_power[p as usize] += w;
        }
        if LEAKY {
            for (pd, &t) in dense_power.iter_mut().zip(state.temps()) {
                *pd += leak_at(leak, t);
            }
        }
        self.run_substeps(
            state,
            dense_power,
            sched.n_sub as usize,
            sched.h,
            next,
            if TRACK { Some(prev) } else { None },
        )
    }

    /// One sub-step through the selected kernel. Returns the tracked L∞
    /// change (0.0 when `!TRACK`; `prev` must then be empty).
    #[inline]
    fn substep_dispatch<const LEAKY: bool, const TRACK: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        leak: &LeakageParams,
        next: &mut [f64],
        prev: &mut [f64],
        h: f64,
    ) -> f64 {
        match self.kernel {
            KernelKind::Stencil => {
                self.substep_stencil::<LEAKY, TRACK>(t, power, leak, next, prev, h)
            }
            KernelKind::Csr if self.edge_g.is_empty() => {
                self.substep_csr::<LEAKY, TRACK, false>(t, power, leak, next, prev, h)
            }
            KernelKind::Csr => {
                self.substep_csr::<LEAKY, TRACK, true>(t, power, leak, next, prev, h)
            }
        }
    }

    /// Executes `n_sub` Euler sub-steps of dense `power` through the
    /// selected kernel. With `track`, the **final** sub-step fuses the
    /// compare-and-copy against the given previous temperatures and the
    /// L∞ change is returned.
    #[inline]
    fn run_substeps(
        &self,
        state: &mut ThermalState,
        power: &[f64],
        n_sub: usize,
        h: f64,
        next: &mut Vec<f64>,
        mut track: Option<&mut [f64]>,
    ) -> f64 {
        let mut change = 0.0;
        for k in 0..n_sub {
            let tracked = if k + 1 == n_sub { track.take() } else { None };
            match tracked {
                Some(prev) => {
                    change = self.substep_dispatch::<false, true>(
                        state.temps(),
                        power,
                        &NO_LEAK,
                        next,
                        prev,
                        h,
                    );
                }
                None => {
                    self.substep_dispatch::<false, false>(
                        state.temps(),
                        power,
                        &NO_LEAK,
                        next,
                        &mut [],
                        h,
                    );
                }
            }
            // The freshly computed temperatures become the state by
            // pointer swap; the old state vector becomes next round's
            // scratch. No copy, no allocation, identical values.
            state.swap_buffer(next);
        }
        change
    }

    /// Solves the steady state into a caller-owned `out` state
    /// (re-initialized to ambient, resized if needed) and reports how
    /// the iteration ended. Bit-identical to
    /// [`ThermalModel::steady_state_with`] under equal options.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the cell count.
    pub fn steady_state_into(
        &self,
        power: &[f64],
        out: &mut ThermalState,
        opts: &SteadyStateOptions,
    ) -> SteadyStateStats {
        assert_eq!(power.len(), self.n, "power vector size mismatch");
        out.reset_uniform(self.n, self.ambient);
        let mut stats = SteadyStateStats::start();
        for _ in 0..opts.max_sweeps {
            let t = out.temps_mut();
            let max_delta = match self.kernel {
                KernelKind::Stencil => self.gs_sweep_stencil(t, power),
                KernelKind::Csr => self.gs_sweep_csr(t, power),
            };
            stats.sweeps += 1;
            stats.residual = max_delta;
            if max_delta < opts.tolerance {
                stats.converged = true;
                break;
            }
        }
        stats
    }

    /// Convenience wrapper over [`CompiledModel::steady_state_into`]
    /// with default options, matching [`ThermalModel::steady_state`].
    pub fn steady_state(&self, power: &[f64]) -> ThermalState {
        let mut out = ThermalState::uniform(self.n, self.ambient);
        self.steady_state_into(power, &mut out, &SteadyStateOptions::default());
        out
    }

    /// One explicit-Euler sub-step via the grid stencil, fully fused:
    /// power deposit + temperature-dependent leakage + Euler update +
    /// (optionally) the fixpoint's compare-and-copy, one pass over the
    /// grid in explicit 8-wide lanes ([`crate::lanes::W8`]). Rows come
    /// in three bands (first, interior, last), each monomorphized over
    /// its vertical-neighbour pattern by [`CompiledModel::stencil_row`].
    /// Returns the tracked L∞ change (0.0 when `!TRACK`).
    fn substep_stencil<const LEAKY: bool, const TRACK: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        leak: &LeakageParams,
        next: &mut [f64],
        prev: &mut [f64],
        h: f64,
    ) -> f64 {
        let ctx = LaneCtx::new(self, leak, h);
        let rows = self.rows;
        // Exactly-one-chunk rows (the 8-wide register files every
        // shipped floorplan uses) take the specialized whole-grid pass:
        // rolling row registers, no per-row slicing, masked vertical
        // edges — bit-identical by the same masked-conductance argument
        // as the lateral edges.
        if self.cols == LANES {
            return self.stencil_pass_w8::<LEAKY, TRACK>(t, power, next, prev, &ctx);
        }
        // Lane-wise change accumulators are folded across all rows and
        // reduced to a scalar exactly once — `max` is exactly
        // associative, so deferring the horizontal reduction cannot
        // change the result, and per-row `reduce_max` calls are the
        // single most expensive instruction sequence in the pass.
        let (mut vacc, mut sacc) = (ctx.zero, 0.0f64);
        if rows == 1 {
            let (v, s) = self
                .stencil_row::<LEAKY, false, false, TRACK>(t, power, leak, next, prev, 0, h, &ctx);
            vacc = v;
            sacc = s;
        } else {
            let (v, s) = self
                .stencil_row::<LEAKY, false, true, TRACK>(t, power, leak, next, prev, 0, h, &ctx);
            vacc = vacc.max(v);
            sacc = sacc.max(s);
            for r in 1..rows - 1 {
                let (v, s) = self.stencil_row::<LEAKY, true, true, TRACK>(
                    t, power, leak, next, prev, r, h, &ctx,
                );
                vacc = vacc.max(v);
                sacc = sacc.max(s);
            }
            let (v, s) = self.stencil_row::<LEAKY, true, false, TRACK>(
                t,
                power,
                leak,
                next,
                prev,
                rows - 1,
                h,
                &ctx,
            );
            vacc = vacc.max(v);
            sacc = sacc.max(s);
        }
        if TRACK {
            vacc.reduce_max().max(sacc)
        } else {
            0.0
        }
    }

    /// The whole-grid fused pass for grids exactly one chunk wide
    /// (`cols == LANES`) — the shipped 8-wide register files, hence the
    /// hottest loop in the repository.
    ///
    /// Compared with the generic per-row path it removes every per-row
    /// cost: function-call and slicing overhead, bounds-checked lane
    /// loads, and re-loading the three neighbour rows (the current row
    /// becomes the next row's `up` register, the prefetched row below
    /// becomes the next `ti`). The vertical edges use the same
    /// masked-conductance trick as the lateral ones: the first/last row
    /// reads *itself* as its missing neighbour against a conductance of
    /// `0.0`, so the masked term is exactly `(ti − ti)·0.0 = +0.0` and
    /// subtracting it reproduces the unmasked flow bit for bit.
    ///
    /// Returns the tracked L∞ change (0.0 when `!TRACK`); `prev`'s
    /// compare-and-overwrite semantics match
    /// [`stencil_row`](Self::stencil_row).
    #[inline(always)]
    fn stencil_pass_w8<const LEAKY: bool, const TRACK: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        next: &mut [f64],
        prev: &mut [f64],
        ctx: &LaneCtx,
    ) -> f64 {
        let rows = self.rows;
        let n = rows * LANES;
        assert!(t.len() >= n && power.len() >= n && next.len() >= n);
        if TRACK {
            assert!(prev.len() >= n);
        }
        let tp = t.as_ptr();
        let pp = power.as_ptr();
        let np = next.as_mut_ptr();
        let prevp = prev.as_mut_ptr();
        let mut acc = ctx.zero;
        // SAFETY: every `load`/`store` below reads or writes lanes
        // `[base, base + LANES)` with `base = r·LANES` and `r < rows`
        // (or the explicitly guarded `base + 2·LANES` prefetch with
        // `r + 2 < rows`), all `< n` — in range by the length asserts
        // above. `t`, `power`, `next`, and `prev` are distinct slices
        // (solver state, scratch power, scratch out-buffer, caller's
        // tracking row), so no load observes a store of this pass.
        unsafe {
            let mut ti = W8::load(tp);
            let mut down = if rows > 1 {
                W8::load(tp.add(LANES))
            } else {
                ti
            };
            let mut up = ti; // dummy: masked by gu = 0 on the first row
            for r in 0..rows {
                let base = r * LANES;
                let access = W8::load(pp.add(base));
                let pw = if LEAKY {
                    let lk = ctx
                        .pc
                        .mul(ctx.one.add(ctx.co.mul(ti.sub(ctx.tr))))
                        .max(ctx.zero);
                    access.add(lk)
                } else {
                    access
                };
                let gu = if r == 0 { ctx.zero } else { ctx.g };
                let gd = if r + 1 == rows { ctx.zero } else { ctx.g };
                let mut flow = pw.sub(ti.sub(ctx.amb).mul(ctx.gv));
                flow = flow.sub(ti.sub(up).mul(gu));
                flow = flow.sub(ti.sub(down).mul(gd));
                flow = flow.sub(ti.sub(ti.shift_head_dup()).mul(ctx.gl_first));
                flow = flow.sub(ti.sub(ti.shift_tail_dup()).mul(ctx.gr_last));
                let out_v = ti.add(ctx.h.mul(flow).div(ctx.cap));
                out_v.store(np.add(base));
                if TRACK {
                    let pv = W8::load(prevp.add(base));
                    acc = acc.max(out_v.sub(pv).abs());
                    out_v.store(prevp.add(base));
                }
                up = ti;
                ti = down;
                down = if r + 2 < rows {
                    W8::load(tp.add(base + 2 * LANES))
                } else {
                    ti // dummy: masked by gd = 0 on the last row
                };
            }
        }
        if TRACK {
            acc.reduce_max()
        } else {
            0.0
        }
    }

    /// One row of the fused stencil sub-step, monomorphized over whether
    /// the row above (`UP`) / below (`DOWN`) exists.
    ///
    /// Full 8-lane chunks run through [`W8`]; the missing left/right
    /// neighbour at a row edge is handled by the *masked-conductance*
    /// trick — the edge lane reads the cell itself as its neighbour and
    /// multiplies by a conductance lane of `0.0`, so the masked term is
    /// exactly `(ti − ti)·0.0 = +0.0` and `flow − (+0.0)` reproduces
    /// `flow` bit for bit (only a `−0.0 − (−0.0)` difference could
    /// perturb bits, and self-as-neighbour rules it out). The `cols %
    /// 8` tail — and every row of grids narrower than 8 — runs the
    /// scalar cell loop with the same fold order. Per-lane operation
    /// order matches the naive solver exactly: leakage
    /// `(pc·(1+co·(T−Tr))).max(0)`, then `flow = pw − (T−amb)·g_vert`,
    /// then the up/down/left/right conductance terms in
    /// `Floorplan::neighbors` order, then `T + h·flow/cap`.
    ///
    /// Returns this row's tracked change as a `(lane, scalar-tail)`
    /// accumulator pair — the caller folds rows lane-wise and performs
    /// the horizontal reduction once per sub-step (both zero when
    /// `!TRACK`). When `TRACK`, the row of `prev` is overwritten with
    /// the new temperatures (lane `max` folds are exactly associative,
    /// so the split accumulators cannot change the result).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn stencil_row<const LEAKY: bool, const UP: bool, const DOWN: bool, const TRACK: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        leak: &LeakageParams,
        next: &mut [f64],
        prev: &mut [f64],
        r: usize,
        h: f64,
        ctx: &LaneCtx,
    ) -> (W8, f64) {
        let cols = self.cols;
        let (g_vert, g_lat, amb, cap) = (self.g_vert, self.g_lat, self.ambient, self.cap);
        let base = r * cols;
        let row = &t[base..base + cols];
        // Never read when the corresponding neighbour row is absent
        // (`UP` / `DOWN` are compile-time constants).
        let up_row = if UP { &t[base - cols..base] } else { row };
        let down_row = if DOWN {
            &t[base + cols..base + 2 * cols]
        } else {
            row
        };
        let p = &power[base..base + cols];
        let out = &mut next[base..base + cols];
        let prow: &mut [f64] = if TRACK {
            &mut prev[base..base + cols]
        } else {
            &mut []
        };

        let mut acc = ctx.zero;
        let mut scalar_acc = 0.0f64;
        let mut c0 = 0;
        while c0 + LANES <= cols {
            let ti = W8::read(&row[c0..]);
            let access = W8::read(&p[c0..]);
            let pw = if LEAKY {
                // (pc · (1 + co·(ti − tr))).max(0), scalar op for op.
                let lk = ctx
                    .pc
                    .mul(ctx.one.add(ctx.co.mul(ti.sub(ctx.tr))))
                    .max(ctx.zero);
                access.add(lk)
            } else {
                access
            };
            let mut flow = pw.sub(ti.sub(ctx.amb).mul(ctx.gv));
            if UP {
                flow = flow.sub(ti.sub(W8::read(&up_row[c0..])).mul(ctx.g));
            }
            if DOWN {
                flow = flow.sub(ti.sub(W8::read(&down_row[c0..])).mul(ctx.g));
            }
            let first = c0 == 0;
            let last = c0 + LANES == cols;
            let left = if first {
                ti.shift_head_dup()
            } else {
                W8::read(&row[c0 - 1..])
            };
            let gl = if first { ctx.gl_first } else { ctx.g };
            flow = flow.sub(ti.sub(left).mul(gl));
            let right = if last {
                ti.shift_tail_dup()
            } else {
                W8::read(&row[c0 + 1..])
            };
            let gr = if last { ctx.gr_last } else { ctx.g };
            flow = flow.sub(ti.sub(right).mul(gr));
            let out_v = ti.add(ctx.h.mul(flow).div(ctx.cap));
            out_v.write(&mut out[c0..]);
            if TRACK {
                let pv = W8::read(&prow[c0..]);
                acc = acc.max(out_v.sub(pv).abs());
                out_v.write(&mut prow[c0..]);
            }
            c0 += LANES;
        }
        // Scalar tail (and whole rows of grids narrower than 8 lanes):
        // identical fold order, edge neighbours simply skipped.
        for c in c0..cols {
            let ti = row[c];
            let access = p[c];
            let pw = if LEAKY {
                access + leak_at(leak, ti)
            } else {
                access
            };
            let mut flow = pw - (ti - amb) * g_vert;
            if UP {
                flow -= (ti - up_row[c]) * g_lat;
            }
            if DOWN {
                flow -= (ti - down_row[c]) * g_lat;
            }
            if c > 0 {
                flow -= (ti - row[c - 1]) * g_lat;
            }
            if c + 1 < cols {
                flow -= (ti - row[c + 1]) * g_lat;
            }
            let nv = ti + h * flow / cap;
            out[c] = nv;
            if TRACK {
                scalar_acc = scalar_acc.max((nv - prow[c]).abs());
                prow[c] = nv;
            }
        }
        (acc, scalar_acc)
    }

    /// One explicit-Euler sub-step via the generic CSR adjacency. When
    /// `WEIGHTED`, each edge carries its own conductance from `edge_g`
    /// (the weighted-graph plans); otherwise every edge is the uniform
    /// `g_lat`, byte-for-byte the historical loop. Change tracking
    /// (`TRACK`) fuses exactly as in the stencil kernel; returns the
    /// tracked L∞ change (0.0 otherwise).
    fn substep_csr<const LEAKY: bool, const TRACK: bool, const WEIGHTED: bool>(
        &self,
        t: &[f64],
        power: &[f64],
        leak: &LeakageParams,
        next: &mut [f64],
        prev: &mut [f64],
        h: f64,
    ) -> f64 {
        let (g_vert, g_lat, amb, cap) = (self.g_vert, self.g_lat, self.ambient, self.cap);
        let mut change = 0.0f64;
        for i in 0..self.n {
            let ti = t[i];
            let access = power[i];
            let pw = if LEAKY {
                access + leak_at(leak, ti)
            } else {
                access
            };
            let mut flow = pw - (ti - amb) * g_vert;
            let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            if WEIGHTED {
                for (&j, &g) in self.col_idx[s..e].iter().zip(&self.edge_g[s..e]) {
                    flow -= (ti - t[j as usize]) * g;
                }
            } else {
                for &j in &self.col_idx[s..e] {
                    flow -= (ti - t[j as usize]) * g_lat;
                }
            }
            let nv = ti + h * flow / cap;
            next[i] = nv;
            if TRACK {
                change = change.max((nv - prev[i]).abs());
                prev[i] = nv;
            }
        }
        change
    }

    /// One Gauss–Seidel sweep via the grid stencil; returns the L∞
    /// update. Cells update in index order (N and W neighbours already
    /// carry this sweep's values), exactly like the naive sweep.
    ///
    /// This sweep stays deliberately **scalar and single-pass**: the
    /// west neighbour is this sweep's fresh value, so each cell's
    /// update chains through the previous cell's divide — the sweep is
    /// latency-bound on that recurrence, and the row-independent
    /// numerator terms execute for free in the divide's shadow.
    /// Widening them into a separate prefix pass was tried and
    /// **regressed** `steady/stencil/32x32` by ~30% (the extra buffer
    /// traffic is pure overhead; see docs/KERNEL_OPTIMIZATION_GUIDE.md,
    /// "rejected attempts").
    fn gs_sweep_stencil(&self, t: &mut [f64], power: &[f64]) -> f64 {
        let (rows, cols) = (self.rows, self.cols);
        let (g_vert, g_lat, amb) = (self.g_vert, self.g_lat, self.ambient);
        let mut max_delta: f64 = 0.0;
        for r in 0..rows {
            let up = r > 0;
            let down = r + 1 < rows;
            let base = r * cols;
            if cols == 1 {
                max_delta = max_delta.max(self.gs_cell(
                    t, power, base, cols, up, down, false, false, g_vert, g_lat, amb,
                ));
                continue;
            }
            max_delta = max_delta.max(self.gs_cell(
                t, power, base, cols, up, down, false, true, g_vert, g_lat, amb,
            ));
            if up && down {
                // Same slice-window trick as the transient kernel;
                // `split_at_mut` keeps the in-place (Gauss–Seidel)
                // update while the shared rows stay read-only.
                let (head, rest) = t.split_at_mut(base);
                let up_row = &head[base - cols..];
                let (row, tail) = rest.split_at_mut(cols);
                let down_row = &tail[..cols];
                let p = &power[base..base + cols];
                let den_row = &self.gs_den[base..base + cols];
                for c in 1..cols - 1 {
                    let mut num = p[c] + amb * g_vert;
                    num += up_row[c] * g_lat;
                    num += down_row[c] * g_lat;
                    num += row[c - 1] * g_lat;
                    num += row[c + 1] * g_lat;
                    let new = num / den_row[c];
                    max_delta = max_delta.max((new - row[c]).abs());
                    row[c] = new;
                }
            } else {
                #[allow(clippy::needless_range_loop)]
                for i in base + 1..base + cols - 1 {
                    max_delta = max_delta.max(
                        self.gs_cell(t, power, i, cols, up, down, true, true, g_vert, g_lat, amb),
                    );
                }
            }
            let i = base + cols - 1;
            max_delta = max_delta
                .max(self.gs_cell(t, power, i, cols, up, down, true, false, g_vert, g_lat, amb));
        }
        max_delta
    }

    /// One Gauss–Seidel cell update at flat index `i`, folding the
    /// neighbour terms in the naive sweep's exact order (up, down,
    /// left, right). Shared by the row-edge and degenerate-row paths of
    /// [`gs_sweep_stencil`](CompiledModel::gs_sweep_stencil).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn gs_cell(
        &self,
        t: &mut [f64],
        power: &[f64],
        i: usize,
        cols: usize,
        up: bool,
        down: bool,
        left: bool,
        right: bool,
        g_vert: f64,
        g_lat: f64,
        amb: f64,
    ) -> f64 {
        let mut num = power[i] + amb * g_vert;
        if up {
            num += t[i - cols] * g_lat;
        }
        if down {
            num += t[i + cols] * g_lat;
        }
        if left {
            num += t[i - 1] * g_lat;
        }
        if right {
            num += t[i + 1] * g_lat;
        }
        let new = num / self.gs_den[i];
        let delta = (new - t[i]).abs();
        t[i] = new;
        delta
    }

    /// One Gauss–Seidel sweep via the generic CSR adjacency (per-edge
    /// conductances when the plan is weighted).
    fn gs_sweep_csr(&self, t: &mut [f64], power: &[f64]) -> f64 {
        let (g_vert, g_lat, amb) = (self.g_vert, self.g_lat, self.ambient);
        let weighted = !self.edge_g.is_empty();
        let mut max_delta: f64 = 0.0;
        for i in 0..self.n {
            let mut num = power[i] + amb * g_vert;
            let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            if weighted {
                for (&j, &g) in self.col_idx[s..e].iter().zip(&self.edge_g[s..e]) {
                    num += t[j as usize] * g;
                }
            } else {
                for &j in &self.col_idx[s..e] {
                    num += t[j as usize] * g_lat;
                }
            }
            let new = num / self.gs_den[i];
            max_delta = max_delta.max((new - t[i]).abs());
            t[i] = new;
        }
        max_delta
    }
}

/// Per-sub-step splatted coefficients for the lane stencil kernel —
/// built once per [`CompiledModel::substep_stencil`] call.
#[derive(Copy, Clone)]
struct LaneCtx {
    /// `g_vert` splat.
    gv: W8,
    /// `g_lat` splat.
    g: W8,
    /// `g_lat` with lane 0 zeroed — the left-conductance mask of a
    /// row's first chunk (lane 0 has no west neighbour).
    gl_first: W8,
    /// `g_lat` with lane 7 zeroed — the right-conductance mask of a
    /// chunk ending exactly at the row edge.
    gr_last: W8,
    /// Ambient splat.
    amb: W8,
    /// Sub-step size splat (the update is `h·flow/cap`).
    h: W8,
    /// `cap` splat.
    cap: W8,
    /// Leakage `per_cell` splat.
    pc: W8,
    /// Leakage `temp_coeff` splat.
    co: W8,
    /// Leakage `reference_temp` splat.
    tr: W8,
    /// `1.0` splat.
    one: W8,
    /// `+0.0` splat (leak clamp + change accumulator seed).
    zero: W8,
}

impl LaneCtx {
    #[inline]
    fn new(m: &CompiledModel, leak: &LeakageParams, h: f64) -> LaneCtx {
        let l = &m.lanes;
        LaneCtx {
            gv: l.gv,
            g: l.g,
            gl_first: l.gl_first,
            gr_last: l.gr_last,
            amb: l.amb,
            h: W8::splat(h),
            cap: l.cap,
            pc: W8::splat(leak.per_cell),
            co: W8::splat(leak.temp_coeff),
            tr: W8::splat(leak.reference_temp),
            one: l.one,
            zero: l.zero,
        }
    }
}

/// The model-constant subset of [`LaneCtx`], broadcast once per
/// [`CompiledModel`] so the per-step context only splats the values
/// that actually vary between calls (step size and leakage
/// coefficients).
#[derive(Copy, Clone, Debug)]
struct ModelLanes {
    gv: W8,
    g: W8,
    gl_first: W8,
    gr_last: W8,
    amb: W8,
    cap: W8,
    one: W8,
    zero: W8,
}

impl ModelLanes {
    fn new(g_vert: f64, g_lat: f64, ambient: f64, cap: f64) -> ModelLanes {
        let mut gl = [g_lat; LANES];
        gl[0] = 0.0;
        let mut gr = [g_lat; LANES];
        gr[LANES - 1] = 0.0;
        ModelLanes {
            gv: W8::splat(g_vert),
            g: W8::splat(g_lat),
            gl_first: W8::from_array(gl),
            gr_last: W8::from_array(gr),
            amb: W8::splat(ambient),
            cap: W8::splat(cap),
            one: W8::splat(1.0),
            zero: W8::splat(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::rc::RcParams;

    fn model(rows: usize, cols: usize) -> ThermalModel {
        ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default())
    }

    fn hot_power(n: usize) -> Vec<f64> {
        let mut p = vec![0.0; n];
        p[0] = 1e-3;
        if n > 1 {
            p[n / 2] = 0.7e-3;
        }
        p
    }

    #[test]
    fn compiled_constants_match_model() {
        let m = model(4, 4);
        let c = m.compile();
        assert_eq!(c.num_cells(), 16);
        assert_eq!(c.ambient().to_bits(), m.ambient().to_bits());
        assert_eq!(c.max_stable_dt().to_bits(), m.max_stable_dt().to_bits());
        assert_eq!(c.kernel(), KernelKind::Stencil);
    }

    #[test]
    fn csr_adjacency_matches_neighbors() {
        let m = model(3, 5);
        let c = CompiledModel::with_kernel(&m, KernelKind::Csr);
        for i in 0..15 {
            let want: Vec<u32> = m.floorplan().neighbors(i).map(|j| j as u32).collect();
            let (s, e) = (c.row_ptr[i] as usize, c.row_ptr[i + 1] as usize);
            assert_eq!(&c.col_idx[s..e], &want[..], "cell {i}");
        }
    }

    #[test]
    fn step_bit_identical_to_naive_across_kernels() {
        for (rows, cols) in [(1, 1), (1, 6), (6, 1), (2, 2), (3, 4), (8, 8)] {
            let m = model(rows, cols);
            let power = hot_power(rows * cols);
            for kernel in [KernelKind::Stencil, KernelKind::Csr] {
                let c = CompiledModel::with_kernel(&m, kernel);
                let mut fast = m.ambient_state();
                let mut naive = m.ambient_state();
                let mut scratch = StepScratch::new();
                // Mixed dt: single sub-step and heavily sub-stepped.
                for dt in [2e-6, 1e-4, 3e-3] {
                    c.step_into(&mut fast, &power, dt, &mut scratch);
                    m.step(&mut naive, &power, dt);
                    let fast_bits: Vec<u64> = fast.temps().iter().map(|t| t.to_bits()).collect();
                    let naive_bits: Vec<u64> = naive.temps().iter().map(|t| t.to_bits()).collect();
                    assert_eq!(fast_bits, naive_bits, "{rows}x{cols} {kernel:?} dt={dt}");
                }
            }
        }
    }

    #[test]
    fn steady_state_bit_identical_to_naive_across_kernels() {
        for (rows, cols) in [(1, 1), (1, 7), (7, 1), (3, 3), (5, 4)] {
            let m = model(rows, cols);
            let power = hot_power(rows * cols);
            let naive = m.steady_state(&power);
            for kernel in [KernelKind::Stencil, KernelKind::Csr] {
                let c = CompiledModel::with_kernel(&m, kernel);
                let fast = c.steady_state(&power);
                let fast_bits: Vec<u64> = fast.temps().iter().map(|t| t.to_bits()).collect();
                let naive_bits: Vec<u64> = naive.temps().iter().map(|t| t.to_bits()).collect();
                assert_eq!(fast_bits, naive_bits, "{rows}x{cols} {kernel:?}");
            }
        }
    }

    #[test]
    fn sparse_step_bit_identical_to_dense_scatter() {
        use crate::power::PowerModel;
        let pm = PowerModel::default();
        let lp = pm.leakage_params();
        for (rows, cols) in [(1, 1), (1, 6), (4, 4), (8, 8)] {
            let m = model(rows, cols);
            let n = rows * cols;
            let deposits: Vec<(u32, f64)> = [(0u32, 1e-3), ((n as u32) / 2, 0.7e-3)]
                .into_iter()
                .take(if n > 1 { 2 } else { 1 })
                .collect();
            let mut dense = vec![0.0; n];
            for &(p, w) in &deposits {
                dense[p as usize] += w;
            }
            for kernel in [KernelKind::Stencil, KernelKind::Csr] {
                let c = CompiledModel::with_kernel(&m, kernel);
                // Single-sub-step (fixup path) and sub-stepped (dense
                // staging path), with and without fused leakage.
                for dt in [2e-6, 5e-3] {
                    let sched = c.schedule(dt);
                    for leaky in [false, true] {
                        let mut sparse_s = m.ambient_state();
                        let mut dense_s = m.ambient_state();
                        let mut scratch = StepScratch::new();
                        for _ in 0..4 {
                            c.step_sparse_into(
                                &mut sparse_s,
                                &deposits,
                                &sched,
                                leaky.then_some(&lp),
                                &mut scratch,
                                None,
                            );
                            if leaky {
                                let mut with_leak = dense.clone();
                                pm.add_leakage(&mut with_leak, &dense_s);
                                m.step(&mut dense_s, &with_leak, dt);
                            } else {
                                m.step(&mut dense_s, &dense, dt);
                            }
                        }
                        let a: Vec<u64> = sparse_s.temps().iter().map(|t| t.to_bits()).collect();
                        let b: Vec<u64> = dense_s.temps().iter().map(|t| t.to_bits()).collect();
                        assert_eq!(a, b, "{rows}x{cols} {kernel:?} dt={dt} leaky={leaky}");
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_matches_step_derivation() {
        let m = model(4, 4);
        let c = m.compile();
        let zero = c.schedule(0.0);
        let mut s = c.ambient_state();
        let before = s.clone();
        c.step_sparse_into(
            &mut s,
            &[(0, 1e-3)],
            &zero,
            None,
            &mut StepScratch::new(),
            None,
        );
        assert_eq!(s.temps(), before.temps(), "zero dt is a no-op");

        // Scheduled (sparse) and unscheduled (dense) stepping agree bit
        // for bit.
        let power = hot_power(16);
        let deposits: Vec<(u32, f64)> = power
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(i, &p)| (i as u32, p))
            .collect();
        for dt in [1e-6, 4e-4, 2e-3] {
            let sched = c.schedule(dt);
            let mut a = c.ambient_state();
            let mut b = c.ambient_state();
            let mut scratch = StepScratch::new();
            c.step_sparse_into(&mut a, &deposits, &sched, None, &mut scratch, None);
            c.step_into(&mut b, &power, dt, &mut scratch);
            assert_eq!(a.temps(), b.temps(), "dt={dt}");
        }
    }

    #[test]
    fn steady_state_reports_convergence() {
        let m = model(4, 4);
        let c = m.compile();
        let power = hot_power(16);
        let mut out = ThermalState::uniform(1, 0.0); // wrong size: resized
        let stats = c.steady_state_into(&power, &mut out, &SteadyStateOptions::default());
        assert!(stats.converged);
        assert!(stats.sweeps > 0 && stats.sweeps < 100_000);
        assert!(stats.residual < 1e-6);
        assert_eq!(out.len(), 16);
        assert!(out.peak() > c.ambient());
    }

    #[test]
    fn steady_state_reports_non_convergence_under_tight_budget() {
        let m = model(4, 4);
        let c = m.compile();
        let power = hot_power(16);
        let opts = SteadyStateOptions {
            tolerance: 1e-12,
            max_sweeps: 2,
        };
        let mut out = c.ambient_state();
        let stats = c.steady_state_into(&power, &mut out, &opts);
        assert!(!stats.converged);
        assert_eq!(stats.sweeps, 2);
        assert!(stats.residual > 1e-12);
    }

    #[test]
    fn scratch_is_reused_across_model_sizes() {
        let small = model(2, 2);
        let big = model(6, 6);
        let mut scratch = StepScratch::new();
        let mut s_small = small.ambient_state();
        let mut s_big = big.ambient_state();
        small
            .compile()
            .step_into(&mut s_small, &hot_power(4), 1e-4, &mut scratch);
        big.compile()
            .step_into(&mut s_big, &hot_power(36), 1e-4, &mut scratch);
        let mut naive = big.ambient_state();
        big.step(&mut naive, &hot_power(36), 1e-4);
        assert_eq!(s_big.temps(), naive.temps());
    }

    #[test]
    fn zero_dt_is_a_no_op() {
        let m = model(3, 3);
        let c = m.compile();
        let mut s = c.ambient_state();
        let before = s.clone();
        c.step_into(&mut s, &hot_power(9), 0.0, &mut StepScratch::new());
        assert_eq!(s.temps(), before.temps());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn power_size_mismatch_panics() {
        let m = model(3, 3);
        let c = m.compile();
        let mut s = c.ambient_state();
        c.step_into(&mut s, &[0.0; 4], 1e-4, &mut StepScratch::new());
    }

    /// A weighted graph that lists the grid's own adjacency with the
    /// uniform lateral conductance must reproduce the grid plan bit for
    /// bit — transient (dense, and sparse with leakage) and steady-state.
    #[test]
    fn uniform_weighted_graph_matches_grid_plan() {
        use crate::power::PowerModel;
        let m = model(3, 4);
        let n = 12;
        let g = 1.0 / m.params().lateral_resistance;
        let neighbors: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|i| m.floorplan().neighbors(i).map(|j| (j as u32, g)).collect())
            .collect();
        let w =
            CompiledModel::from_weighted_graph(m.params(), &neighbors, m.max_stable_dt()).unwrap();
        let c = CompiledModel::with_kernel(&m, KernelKind::Csr);
        assert_eq!(w.kernel(), KernelKind::Csr);
        assert_eq!(w.max_stable_dt().to_bits(), c.max_stable_dt().to_bits());

        let power = hot_power(n);
        let lp = PowerModel::default().leakage_params();
        let bits =
            |s: &ThermalState| -> Vec<u64> { s.temps().iter().map(|t| t.to_bits()).collect() };

        let mut a = w.ambient_state();
        let mut b = c.ambient_state();
        let mut scratch = StepScratch::new();
        for dt in [2e-6, 3e-3] {
            w.step_into(&mut a, &power, dt, &mut scratch);
            c.step_into(&mut b, &power, dt, &mut scratch);
            assert_eq!(bits(&a), bits(&b), "dense dt={dt}");
            let deposits = [(0u32, 1e-3), (5u32, 0.4e-3)];
            let (sw, sc) = (w.schedule(dt), c.schedule(dt));
            w.step_sparse_into(&mut a, &deposits, &sw, Some(&lp), &mut scratch, None);
            c.step_sparse_into(&mut b, &deposits, &sc, Some(&lp), &mut scratch, None);
            assert_eq!(bits(&a), bits(&b), "sparse dt={dt}");
        }
        assert_eq!(bits(&w.steady_state(&power)), bits(&c.steady_state(&power)));
    }

    /// A weighted graph with *no* edges decomposes into isolated cells:
    /// each cell settles at its own isolated rise, untouched by its
    /// (former) neighbours.
    #[test]
    fn edgeless_weighted_graph_is_isolated_cells() {
        let params = RcParams::default();
        let neighbors: Vec<Vec<(u32, f64)>> = vec![Vec::new(); 4];
        let limit = 0.5 * params.cell_capacitance / (1.0 / params.vertical_resistance);
        let w = CompiledModel::from_weighted_graph(&params, &neighbors, limit).unwrap();
        let mut power = vec![0.0; 4];
        power[1] = 1e-3;
        let ss = w.steady_state(&power);
        let expect = params.ambient + 1e-3 * params.vertical_resistance;
        assert!((ss.get(1) - expect).abs() < 1e-6, "{}", ss.get(1));
        for i in [0, 2, 3] {
            assert!((ss.get(i) - params.ambient).abs() < 1e-6, "cell {i}");
        }
    }

    #[test]
    fn weighted_graph_rejects_bad_input() {
        use crate::error::ThermalError;
        let params = RcParams::default();
        let ok = vec![vec![(1u32, 10.0)], vec![(0u32, 10.0)]];
        assert!(CompiledModel::from_weighted_graph(&params, &ok, 1e-6).is_ok());
        assert!(matches!(
            CompiledModel::from_weighted_graph(&params, &[], 1e-6),
            Err(ThermalError::EmptyFloorplan { .. })
        ));
        assert!(matches!(
            CompiledModel::from_weighted_graph(&params, &ok, 0.0),
            Err(ThermalError::InvalidParam {
                param: "max_stable_dt",
                ..
            })
        ));
        let oob = vec![vec![(5u32, 10.0)], Vec::new()];
        assert!(matches!(
            CompiledModel::from_weighted_graph(&params, &oob, 1e-6),
            Err(ThermalError::InvalidParam {
                param: "neighbor",
                ..
            })
        ));
        let zero_g = vec![vec![(1u32, 0.0)], Vec::new()];
        assert!(matches!(
            CompiledModel::from_weighted_graph(&params, &zero_g, 1e-6),
            Err(ThermalError::InvalidParam {
                param: "edge_conductance",
                ..
            })
        ));
        let bad_rc = RcParams {
            ambient: -1.0,
            ..RcParams::default()
        };
        assert!(CompiledModel::from_weighted_graph(&bad_rc, &ok, 1e-6).is_err());
    }
}
