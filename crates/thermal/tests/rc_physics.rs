//! Physics oracles for the compiled solver: a 1×1 die is a single RC
//! node, `C·dT/dt = P − g_v·(T − T_amb)`, whose explicit-Euler iterate
//! and exact solution are both known in closed form.
//!
//! The bit-identity tests elsewhere compare two copies of the same
//! discretization, so a modelling error shared by both would pass them.
//! These tests compare [`CompiledModel::step_into`] and
//! [`CompiledModel::steady_state_into`] against the physics instead.

use tadfa_thermal::{
    CompiledModel, Floorplan, KernelKind, RcParams, SteadyStateOptions, StepScratch, ThermalModel,
};

const POWER: f64 = 1e-3;

fn single_node(kernel: KernelKind) -> (RcParams, CompiledModel) {
    let params = RcParams::default();
    let model = ThermalModel::new(Floorplan::grid(1, 1), params);
    (params, CompiledModel::with_kernel(&model, kernel))
}

/// Runs `n` sub-steps of size `h` (each call is one sub-step because
/// `h` is within the stability limit) and returns the final temperature.
fn euler(solver: &CompiledModel, h: f64, n: usize) -> f64 {
    assert!(h <= solver.max_stable_dt());
    let mut state = solver.ambient_state();
    let mut scratch = StepScratch::new();
    for _ in 0..n {
        solver.step_into(&mut state, &[POWER], h, &mut scratch);
    }
    state.get(0)
}

#[test]
fn step_into_matches_the_closed_form_euler_iterate() {
    for kernel in [KernelKind::Stencil, KernelKind::Csr] {
        let (p, solver) = single_node(kernel);
        let gv = 1.0 / p.vertical_resistance;
        let c = p.cell_capacitance;
        for h in [solver.max_stable_dt(), 0.3 * solver.max_stable_dt()] {
            for n in [1, 7, 50, 400] {
                let expect = p.ambient + (POWER / gv) * (1.0 - (1.0 - h * gv / c).powi(n as i32));
                let got = euler(&solver, h, n);
                assert!(
                    (got - expect).abs() <= 1e-11,
                    "{kernel:?} h={h:e} n={n}: {got} vs closed form {expect}"
                );
            }
        }
    }
}

#[test]
fn euler_error_against_the_analytic_solution_is_first_order() {
    for kernel in [KernelKind::Stencil, KernelKind::Csr] {
        let (p, solver) = single_node(kernel);
        let tau = p.vertical_resistance * p.cell_capacitance;
        let h0 = solver.max_stable_dt();
        // About one time constant, where the transient is steepest.
        let n0 = (tau / h0).round() as usize;
        let t = n0 as f64 * h0;
        let exact = p.ambient + POWER * p.vertical_resistance * (1.0 - (-t / tau).exp());

        let errors: Vec<f64> = (0..5)
            .map(|k| {
                let h = h0 / f64::from(1u32 << k);
                (euler(&solver, h, n0 << k) - exact).abs()
            })
            .collect();
        for pair in errors.windows(2) {
            let ratio = pair[0] / pair[1];
            assert!(
                (1.8..=2.25).contains(&ratio),
                "{kernel:?}: halving h shrank the error by {ratio:.3}, not ~2 ({errors:?})"
            );
        }
        assert!(
            errors[4] < 0.02 * POWER * p.vertical_resistance,
            "{errors:?}"
        );
    }
}

#[test]
fn steady_state_matches_the_analytic_rise() {
    for kernel in [KernelKind::Stencil, KernelKind::Csr] {
        let (p, solver) = single_node(kernel);
        let mut out = solver.ambient_state();
        let stats = solver.steady_state_into(&[POWER], &mut out, &SteadyStateOptions::default());
        assert!(stats.converged, "{kernel:?}: {stats:?}");
        let expect = p.ambient + POWER * p.vertical_resistance;
        assert!(
            (out.get(0) - expect).abs() <= 1e-9,
            "{kernel:?}: {} vs T_amb + P·R_v = {expect}",
            out.get(0)
        );
        assert_eq!(
            solver.steady_state(&[POWER]).get(0).to_bits(),
            out.get(0).to_bits()
        );
    }
}
