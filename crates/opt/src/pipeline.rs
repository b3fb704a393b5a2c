//! The thermal optimization pipeline: analyse → transform → re-analyse.
//!
//! "The result of the analysis phase can be used to conduct the
//! compilation process achieving a temperature-aware compilation at
//! different stages" (§4). The driver consumes a
//! [`Session`](tadfa_core::Session) — allocation policy, grid
//! granularity, δ and merge rule are all the session's choices, made
//! once — wires the passes of this crate to the session's analysis, and
//! reports before/after thermal and performance summaries — the row
//! format of experiment E6.
//!
//! Call it either as the free function [`run_thermal_pipeline`] or via
//! the [`SessionOptimize`] extension trait
//! (`session.optimize(&mut func, &config)`).

use crate::cleanup::cleanup;
use crate::nop_insert::cooldown_pass;
use crate::promote::promote_scalar_slots;
use crate::schedule::spread_schedule;
use crate::spill_critical::spill_critical_variables;
use crate::split::split_hot_ranges;
use tadfa_core::{Session, TadfaError, ThermalDfa, ThermalReport};
use tadfa_ir::{Cfg, DomTree, Function, LoopInfo};
use tadfa_thermal::MapStats;

/// The §4 optimizations, applied in the order given.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OptKind {
    /// Spill the hottest critical variables to memory.
    SpillCritical,
    /// Split hot live ranges with copies.
    SplitHotRanges,
    /// Reschedule blocks to spread register accesses in time.
    SpreadSchedule,
    /// Promote scalar memory slots into registers.
    PromoteScalarSlots,
    /// Insert cool-down NOPs after predicted-hot instructions.
    CooldownNops,
    /// Constant propagation + dead-code elimination (strips the garbage
    /// other passes leave; dead defs still heat the file).
    Cleanup,
}

/// Pass-specific pipeline knobs. Everything the *analysis* needs —
/// policy, grid, δ, merge rule, criticality threshold — lives on the
/// [`Session`] instead, chosen once for every analysis the session runs.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Passes to apply, in order.
    pub opts: Vec<OptKind>,
    /// Maximum variables [`OptKind::SpillCritical`] may spill.
    pub spill_max: usize,
    /// Minimum segment uses for [`OptKind::SplitHotRanges`].
    pub split_min_uses: usize,
    /// Fractional temperature threshold for [`OptKind::CooldownNops`].
    pub nop_threshold_fraction: f64,
    /// NOPs inserted per hot site.
    pub nops_per_site: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            opts: vec![OptKind::SpillCritical],
            spill_max: 2,
            split_min_uses: 4,
            nop_threshold_fraction: 0.8,
            nops_per_site: 2,
        }
    }
}

/// Thermal and performance summary of one program version.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ThermalSummary {
    /// Statistics of the DFA's peak map.
    pub map: MapStats,
    /// Statically estimated cycles (latency × loop-depth weight, base
    /// 10) — the performance-cost axis of the §4 trade-offs.
    pub weighted_cycles: f64,
    /// Static instruction count.
    pub insts: usize,
}

/// Outcome of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineOutcome {
    /// Summary before any optimization (baseline allocation + DFA).
    pub before: ThermalSummary,
    /// Summary after all requested passes.
    pub after: ThermalSummary,
    /// `(pass, change count)` in application order.
    pub applied: Vec<(OptKind, usize)>,
}

/// Statically estimated weighted cycle count of a function.
pub fn weighted_cycles(func: &Function) -> f64 {
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(func, &cfg);
    let loops = LoopInfo::compute(func, &cfg, &dom);
    let mut cycles = 0.0;
    for bb in func.block_ids() {
        let w = loops.frequency_weight(bb, 10.0);
        for &id in func.block(bb).insts() {
            cycles += w * func.inst(id).op.latency() as f64;
        }
        if let Some(t) = func.terminator(bb) {
            cycles += w * t.latency() as f64;
        }
    }
    cycles
}

fn summary(session: &Session, report: &ThermalReport) -> ThermalSummary {
    ThermalSummary {
        map: MapStats::of(&report.predicted, session.register_file().floorplan()),
        weighted_cycles: weighted_cycles(&report.func),
        insts: report.func.num_insts(),
    }
}

/// Runs the full analyse→optimize→re-analyse pipeline on `func` through
/// `session`.
///
/// `func` is left in its optimized, allocated form (spill code
/// included).
///
/// # Errors
///
/// Propagates [`TadfaError`] (allocation failures; every config was
/// already validated when the session was built).
pub fn run_thermal_pipeline(
    session: &mut Session,
    func: &mut Function,
    config: &PipelineConfig,
) -> Result<PipelineOutcome, TadfaError> {
    // Baseline analysis; `analyze` works on a clone, so `func` is not
    // pre-spilled twice.
    let baseline = session.analyze(func)?;
    let before = summary(session, &baseline);

    // Working analysis for pass decisions; continue from the allocated
    // form so passes see the same program the analysis scored.
    let work = session.analyze(func)?;
    let critical = work.critical.clone();
    *func = work.func;

    let mut applied = Vec::new();
    let mut needs_cooldown = false;
    for &opt in &config.opts {
        let changes = match opt {
            OptKind::SpillCritical => {
                let (n, _) = spill_critical_variables(func, critical.critical(), config.spill_max);
                n
            }
            OptKind::SplitHotRanges => {
                split_hot_ranges(func, &critical.top(4), config.split_min_uses)
            }
            OptKind::SpreadSchedule => spread_schedule(func),
            OptKind::PromoteScalarSlots => promote_scalar_slots(func).0,
            OptKind::CooldownNops => {
                needs_cooldown = true;
                0 // applied after re-allocation below
            }
            OptKind::Cleanup => {
                let (folded, removed) = cleanup(func);
                folded + removed
            }
        };
        applied.push((opt, changes));
    }

    // Re-allocate and re-analyse the transformed program.
    let fin = session.analyze(func)?;
    *func = fin.func.clone();

    let after = if needs_cooldown {
        let n = cooldown_pass(
            func,
            &fin.assignment,
            session.grid(),
            session.power_model(),
            session.dfa_config(),
            config.nop_threshold_fraction,
            config.nops_per_site,
        )?;
        for entry in applied.iter_mut() {
            if entry.0 == OptKind::CooldownNops {
                entry.1 = n;
            }
        }
        // NOPs change timing, not allocation: re-run only the DFA under
        // the assignment the NOP sites were chosen for, so the final map
        // reflects exactly that placement.
        let result = ThermalDfa::new(
            func,
            &fin.assignment,
            session.grid(),
            session.power_model(),
            session.dfa_config(),
        )?
        .run();
        let predicted = session.grid().upsample(&result.peak_map())?;
        ThermalSummary {
            map: MapStats::of(&predicted, session.register_file().floorplan()),
            weighted_cycles: weighted_cycles(func),
            insts: func.num_insts(),
        }
    } else {
        summary(session, &fin)
    };
    Ok(PipelineOutcome {
        before,
        after,
        applied,
    })
}

/// Extension trait hanging the pipeline off [`Session`] —
/// `session.optimize(&mut func, &config)`.
///
/// (The pipeline lives in `tadfa-opt`, which depends on `tadfa-core`;
/// the trait closes the loop without a dependency cycle.)
pub trait SessionOptimize {
    /// Runs [`run_thermal_pipeline`] on `func` with this session's
    /// analysis state.
    ///
    /// # Errors
    ///
    /// Propagates [`TadfaError`] from analysis or allocation.
    fn optimize(
        &mut self,
        func: &mut Function,
        config: &PipelineConfig,
    ) -> Result<PipelineOutcome, TadfaError>;
}

impl SessionOptimize for Session {
    fn optimize(
        &mut self,
        func: &mut Function,
        config: &PipelineConfig,
    ) -> Result<PipelineOutcome, TadfaError> {
        run_thermal_pipeline(self, func, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::FunctionBuilder;

    fn hot_loop() -> Function {
        let mut b = FunctionBuilder::new("hot");
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let n = b.iconst(400);
        let acc = b.iconst(1);
        let i = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let done = b.cmpge(i, n);
        b.branch(done, exit, body);
        b.switch_to(body);
        let t = b.mul(acc, acc);
        let u = b.add(t, i);
        b.mov_into(acc, u);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.finish()
    }

    fn session_with(policy: &str) -> Session {
        Session::builder()
            .floorplan(4, 4)
            .policy_name(policy, 42)
            .build()
            .unwrap()
    }

    fn run_with(opts: Vec<OptKind>, policy: &str) -> PipelineOutcome {
        let mut f = hot_loop();
        let mut session = session_with(policy);
        let config = PipelineConfig {
            opts,
            ..PipelineConfig::default()
        };
        session.optimize(&mut f, &config).unwrap()
    }

    fn run(opts: Vec<OptKind>) -> PipelineOutcome {
        run_with(opts, "first-free")
    }

    #[test]
    fn spill_critical_with_spreading_policy_lowers_peak() {
        // Spilling moves the hot variable's traffic into short-lived
        // reload temporaries; with a spreading policy those rotate across
        // the file and the hot spot dissolves — the paper's §4 mechanism.
        let out = run_with(vec![OptKind::SpillCritical], "round-robin");
        assert!(out.applied[0].1 > 0, "something was spilled");
        assert!(
            out.after.map.peak < out.before.map.peak,
            "peak {} -> {}",
            out.before.map.peak,
            out.after.map.peak
        );
        // The compromise: spill code costs cycles.
        assert!(out.after.weighted_cycles > out.before.weighted_cycles);
    }

    #[test]
    fn spill_critical_under_first_free_does_not_help() {
        // Documented negative result: under the ordered first-free policy
        // the reload temporaries pile onto the same low registers, so
        // spilling alone cannot dissolve the hot spot. Spilling must be
        // paired with a spreading assignment policy.
        let out = run(vec![OptKind::SpillCritical]);
        assert!(out.applied[0].1 > 0);
        assert!(
            out.after.map.peak > out.before.map.peak - 1.0,
            "no meaningful peak reduction expected: {} -> {}",
            out.before.map.peak,
            out.after.map.peak
        );
    }

    #[test]
    fn cooldown_nops_lower_peak_and_cost_cycles() {
        let out = run(vec![OptKind::CooldownNops]);
        assert!(out.applied[0].1 > 0, "NOPs inserted");
        assert!(out.after.map.peak <= out.before.map.peak + 1e-9);
        assert!(out.after.weighted_cycles > out.before.weighted_cycles);
    }

    #[test]
    fn schedule_only_never_costs_cycles() {
        let out = run(vec![OptKind::SpreadSchedule]);
        assert!(
            (out.after.weighted_cycles - out.before.weighted_cycles).abs() < 1e-9,
            "rescheduling is free"
        );
    }

    #[test]
    fn empty_pipeline_changes_nothing_thermally() {
        let out = run(vec![]);
        assert!((out.after.map.peak - out.before.map.peak).abs() < 1e-6);
        assert!(out.applied.is_empty());
    }

    #[test]
    fn combined_pipeline_reports_all_passes() {
        let out = run_with(
            vec![
                OptKind::SpillCritical,
                OptKind::SpreadSchedule,
                OptKind::CooldownNops,
            ],
            "round-robin",
        );
        assert_eq!(out.applied.len(), 3);
        assert!(out.after.map.peak < out.before.map.peak);
    }

    #[test]
    fn weighted_cycles_reflects_loop_depth() {
        let f = hot_loop();
        let wc = weighted_cycles(&f);
        // Loop body (≈8 cycles incl. mul=3) weighted ×10 dominates.
        assert!(wc > 80.0, "weighted cycles {wc}");
    }
}
