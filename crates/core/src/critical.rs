//! Critical-variable identification.
//!
//! "The goal would be to determine precisely which parts of the program
//! are likely to exacerbate power density and thermal problems in the
//! RFs, and to determine which variables are most likely to be involved"
//! (§4). A variable is *critical* when its accesses repeatedly land on
//! cells that the analysis predicts to be hot; those are the candidates
//! for spilling, splitting, or relocation by `tadfa-opt`.

use crate::dfa::ThermalDfaResult;
use crate::grid::AnalysisGrid;
use tadfa_ir::{Function, VReg};
use tadfa_regalloc::Assignment;
use tadfa_thermal::PowerModel;

/// Configuration for criticality scoring.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CriticalConfig {
    /// A variable is critical if it has an access whose cell temperature
    /// exceeds `ambient + temp_fraction × (peak − ambient)`.
    pub temp_fraction: f64,
}

impl Default for CriticalConfig {
    fn default() -> CriticalConfig {
        CriticalConfig { temp_fraction: 0.8 }
    }
}

/// The ranked set of thermally critical variables.
#[derive(Clone, PartialEq, Debug)]
pub struct CriticalSet {
    /// `(variable, heat-exposure score)`, hottest first. The score is the
    /// sum over the variable's accesses of
    /// `access energy × (cell temperature − ambient)` — a heat-exposure
    /// integral in Joule-Kelvin.
    ranked: Vec<(VReg, f64)>,
    /// Variables crossing the criticality threshold.
    critical: Vec<VReg>,
    /// The temperature threshold used, K.
    threshold: f64,
}

impl CriticalSet {
    /// Identifies critical variables from a completed thermal DFA.
    ///
    /// For every register access of every instruction, the temperature of
    /// the accessed cell *after* that instruction weights the access
    /// energy; variables accumulate exposure over all their accesses.
    /// Variables with any access above the [`CriticalConfig`] threshold
    /// are critical, ranked by total exposure.
    pub fn identify(
        func: &Function,
        assignment: &Assignment,
        grid: &AnalysisGrid,
        result: &ThermalDfaResult,
        power_model: &PowerModel,
        config: CriticalConfig,
    ) -> CriticalSet {
        let ambient = result.ambient();
        let peak = result.peak_temperature();
        let threshold = ambient + config.temp_fraction * (peak - ambient);

        let nv = func.num_vregs();
        let mut exposure = vec![0.0f64; nv];
        let mut crosses = vec![false; nv];

        for (_bb, id) in func.inst_ids_in_layout_order() {
            let Some(state) = result.state_after(id) else {
                continue;
            };
            let inst = func.inst(id);
            let mut visit = |v: VReg, energy: f64| {
                let Some(p) = assignment.preg_of(v) else {
                    return;
                };
                let t = state.get(grid.point_of(p));
                exposure[v.index()] += energy * (t - ambient).max(0.0);
                if t >= threshold {
                    crosses[v.index()] = true;
                }
            };
            for &u in inst.uses() {
                visit(u, power_model.read_energy);
            }
            if let Some(d) = inst.def() {
                visit(d, power_model.write_energy);
            }
        }

        let mut ranked: Vec<(VReg, f64)> = (0..nv)
            .map(|i| (VReg::new(i as u32), exposure[i]))
            .filter(|&(_, e)| e > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

        let critical = ranked
            .iter()
            .map(|&(v, _)| v)
            .filter(|v| crosses[v.index()])
            .collect();

        CriticalSet {
            ranked,
            critical,
            threshold,
        }
    }

    /// All variables with nonzero heat exposure, hottest first.
    pub fn ranked(&self) -> &[(VReg, f64)] {
        &self.ranked
    }

    /// Variables crossing the criticality threshold, hottest first.
    pub fn critical(&self) -> &[VReg] {
        &self.critical
    }

    /// Whether `v` is critical.
    pub fn is_critical(&self, v: VReg) -> bool {
        self.critical.contains(&v)
    }

    /// The absolute temperature threshold used, K.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The top `n` variables by exposure regardless of threshold — the
    /// "if just two variables are involved, they can easily be assigned
    /// to registers in disparate regions" use case (§4).
    pub fn top(&self, n: usize) -> Vec<VReg> {
        self.ranked.iter().take(n).map(|&(v, _)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThermalDfaConfig;
    use crate::dfa::ThermalDfa;
    use tadfa_ir::FunctionBuilder;
    use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
    use tadfa_thermal::{Floorplan, RcParams, RegisterFile};

    /// A loop hammering `hot` while `cold` is touched once outside.
    fn hot_cold_function() -> (tadfa_ir::Function, VReg, VReg) {
        let mut b = FunctionBuilder::new("hc");
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let n = b.iconst(200);
        let cold = b.iconst(3);
        let cold2 = b.add(cold, cold); // cold's only uses
        let hot = b.mov(cold2);
        let i = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, exit, body);
        b.switch_to(body);
        let t1 = b.add(hot, hot);
        let t2 = b.add(t1, hot);
        b.mov_into(hot, t2);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(hot));
        (b.finish(), hot, cold)
    }

    fn run_critical(cfg: CriticalConfig) -> (CriticalSet, VReg, VReg) {
        let (mut f, hot, cold) = hot_cold_function();
        let rf = RegisterFile::new(Floorplan::grid(4, 4));
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let pm = PowerModel::default();
        let result = ThermalDfa::new(
            &f,
            &alloc.assignment,
            &grid,
            pm,
            ThermalDfaConfig::default(),
        )
        .unwrap()
        .run();
        let cs = CriticalSet::identify(&f, &alloc.assignment, &grid, &result, &pm, cfg);
        (cs, hot, cold)
    }

    #[test]
    fn hot_variable_outranks_cold() {
        let (cs, hot, cold) = run_critical(CriticalConfig::default());
        let pos = |v| cs.ranked().iter().position(|&(x, _)| x == v);
        let ph = pos(hot).expect("hot has exposure");
        if let Some(pc) = pos(cold) {
            // cold may also have zero exposure (absent) — that's fine too
            assert!(ph < pc, "hot ranked above cold");
        }
        assert!(cs.ranked()[0].1 > 0.0);
    }

    #[test]
    fn hot_variable_is_critical_cold_is_not() {
        // 0.6 of the peak rise: all loop-resident variables qualify, the
        // straight-line `cold` does not.
        let (cs, hot, cold) = run_critical(CriticalConfig { temp_fraction: 0.6 });
        assert!(cs.is_critical(hot), "loop-hammered variable is critical");
        assert!(!cs.is_critical(cold), "cold variable is not critical");
        assert!(!cs.critical().is_empty());
    }

    #[test]
    fn threshold_fraction_controls_set_size() {
        let (strict, ..) = run_critical(CriticalConfig {
            temp_fraction: 0.99,
        });
        let (lax, ..) = run_critical(CriticalConfig {
            temp_fraction: 0.01,
        });
        assert!(
            lax.critical().len() >= strict.critical().len(),
            "lax {} vs strict {}",
            lax.critical().len(),
            strict.critical().len()
        );
        assert!(lax.threshold() < strict.threshold());
    }

    #[test]
    fn top_n_returns_prefix() {
        let (cs, ..) = run_critical(CriticalConfig::default());
        let t2 = cs.top(2);
        assert!(t2.len() <= 2);
        if cs.ranked().len() >= 2 {
            assert_eq!(t2[0], cs.ranked()[0].0);
            assert_eq!(t2[1], cs.ranked()[1].0);
        }
        assert!(cs.top(1000).len() <= cs.ranked().len());
    }
}
