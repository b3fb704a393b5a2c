//! Physics oracles for the compiled solver: a 1×1 die is a single RC
//! node, `C·dT/dt = P − g_v·(T − T_amb)`, whose explicit-Euler iterate
//! and exact solution are both known in closed form. Larger networks
//! are checked against a direct solve of the steady-state equations
//! and against energy conservation over one step.
//!
//! The bit-identity tests elsewhere compare two copies of the same
//! discretization, so a modelling error shared by both would pass them.
//! These tests compare [`CompiledModel::step_into`] and
//! [`CompiledModel::steady_state_into`] against the physics instead.

use tadfa_thermal::{
    CompiledModel, Floorplan, KernelKind, RcParams, SteadyStateOptions, StepScratch, ThermalModel,
    ThermalState,
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

/// A network as the physics sees it: per-cell lateral edges
/// `(neighbour, conductance)`, listed from both ends.
type Adjacency = Vec<Vec<(usize, f64)>>;

/// The 3×3 grid's adjacency under uniform lateral conductance.
fn grid_adjacency(fp: &Floorplan, p: &RcParams) -> Adjacency {
    let g_lat = 1.0 / p.lateral_resistance;
    (0..fp.num_cells())
        .map(|i| fp.neighbors(i).map(|j| (j, g_lat)).collect())
        .collect()
}

/// Two 2×2 components (cells 0–3 and 4–7) joined by a single coupling
/// edge 1–4 whose conductance differs from the lateral one, compiled
/// through the weighted-graph (CSR) constructor.
fn coupled_pair(p: &RcParams) -> (Adjacency, CompiledModel) {
    let g_lat = 1.0 / p.lateral_resistance;
    let g_couple = 1.0 / 40.0e4;
    let mut adj: Adjacency = vec![Vec::new(); 8];
    let comp = Floorplan::grid(2, 2);
    for base in [0, 4] {
        for i in 0..4 {
            adj[base + i].extend(comp.neighbors(i).map(|j| (base + j, g_lat)));
        }
    }
    adj[1].push((4, g_couple));
    adj[4].push((1, g_couple));
    let g_max = adj
        .iter()
        .map(|a| 1.0 / p.vertical_resistance + a.iter().map(|&(_, g)| g).sum::<f64>())
        .fold(0.0, f64::max);
    let csr: Vec<Vec<(u32, f64)>> = adj
        .iter()
        .map(|a| a.iter().map(|&(j, g)| (j as u32, g)).collect())
        .collect();
    let solver = CompiledModel::from_weighted_graph(p, &csr, 0.5 * p.cell_capacitance / g_max)
        .expect("valid graph");
    assert_eq!(solver.kernel(), KernelKind::Csr);
    (adj, solver)
}

/// An uneven power map: every cell heated, no two alike.
fn uneven_power(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1e-4 * (1.0 + (i * 7 % n) as f64)).collect()
}

/// Solves `G·T = P + g_v·T_amb` directly, where `G` is the nodal
/// conductance matrix (`G_ii = g_v + Σ_j g_ij`, `G_ij = −g_ij`), by
/// Gaussian elimination with partial pivoting. Also returns the
/// matrix's largest off-diagonal row-sum ratio `q = max_i Σ_j g_ij /
/// G_ii < 1`.
fn direct_steady_state(adj: &Adjacency, p: &RcParams, power: &[f64]) -> (Vec<f64>, f64) {
    let n = adj.len();
    let g_v = 1.0 / p.vertical_resistance;
    let mut a = vec![vec![0.0; n + 1]; n];
    let mut q: f64 = 0.0;
    for (i, row) in a.iter_mut().enumerate() {
        let lateral: f64 = adj[i].iter().map(|&(_, g)| g).sum();
        row[i] = g_v + lateral;
        for &(j, g) in &adj[i] {
            row[j] -= g;
        }
        row[n] = power[i] + g_v * p.ambient;
        q = q.max(lateral / (g_v + lateral));
    }
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .unwrap();
        a.swap(col, pivot);
        let (top, below) = a.split_at_mut(col + 1);
        let pivot_row = &top[col];
        for row in below {
            let f = row[col] / pivot_row[col];
            for (x, &p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
        }
    }
    let mut t = vec![0.0; n];
    for i in (0..n).rev() {
        let tail: f64 = (i + 1..n).map(|j| a[i][j] * t[j]).sum();
        t[i] = (a[i][n] - tail) / a[i][i];
    }
    (t, q)
}

/// Bounds `steady_state_into` against the direct solve.
///
/// The Gauss–Seidel solve stops after the first sweep whose largest
/// update `‖x_k − x_{k−1}‖∞` is below `tol` (1 µK by default). `G` is
/// strictly diagonally dominant, so each sweep contracts the error in
/// the ∞-norm by at most `q` (the largest off-diagonal row-sum ratio:
/// Gauss–Seidel's factor `β_i / (1 − α_i)` never exceeds `α_i + β_i ≤
/// q`). Then `‖x_k − x*‖ ≤ q·‖x_{k−1} − x*‖ ≤ q·(‖x_{k−1} − x_k‖ +
/// ‖x_k − x*‖)`, so `‖x_k − x*‖ ≤ q/(1 − q)·tol`. A further 1 nK covers
/// rounding in both solves (relative error ~1e-15 at ~320 K).
fn assert_steady_state_within_the_stopping_bound(
    label: &str,
    adj: &Adjacency,
    p: &RcParams,
    solver: &CompiledModel,
) {
    let power = uneven_power(adj.len());
    let (exact, q) = direct_steady_state(adj, p, &power);
    let opts = SteadyStateOptions::default();
    let mut out = solver.ambient_state();
    let stats = solver.steady_state_into(&power, &mut out, &opts);
    assert!(stats.converged, "{label}: {stats:?}");
    assert!(q < 1.0, "{label}: diagonally dominant");
    let bound = q / (1.0 - q) * opts.tolerance + 1e-9;
    let max_rise = exact.iter().fold(0.0, |m: f64, t| m.max(t - p.ambient));
    assert!(
        max_rise > 1.0,
        "{label}: the test heats the die ({max_rise} K)"
    );
    for (i, (&got, &want)) in out.temps().iter().zip(&exact).enumerate() {
        assert!(
            (got - want).abs() <= bound,
            "{label}: cell {i}: {got} vs direct {want} (bound {bound:e} K)"
        );
    }
}

#[test]
fn steady_state_matches_a_direct_solve_of_the_conductance_equations() {
    let p = RcParams::default();
    let fp = Floorplan::grid(3, 3);
    let model = ThermalModel::new(fp.clone(), p);
    let stencil = CompiledModel::with_kernel(&model, KernelKind::Stencil);
    assert_steady_state_within_the_stopping_bound(
        "3x3 stencil",
        &grid_adjacency(&fp, &p),
        &p,
        &stencil,
    );
    let (adj, csr) = coupled_pair(&p);
    assert_steady_state_within_the_stopping_bound("coupled pair (CSR)", &adj, &p, &csr);
}

/// One explicit-Euler step conserves energy: with leakage off, the heat
/// stored, `Σ C·ΔT`, equals the step times the heat injected minus the
/// heat lost to ambient, `h·(ΣP − Σ g_v·(T_i − T_amb))` at the pre-step
/// temperatures — every lateral flow leaves one cell and enters its
/// neighbour, so the lateral terms cancel in pairs.
///
/// Tolerance: each cell's `ΔT = T' − T` is exact up to rounding of the
/// new temperature, `≤ ε·|T'|`, and each energy term is a handful of
/// roundings of magnitudes at most `h·|flow|`. So the two sides agree
/// to `16·ε·(C·Σ|T'_i| + h·Σ(P_i + g_v·|T_i − T_amb| + Σ_j g_ij·|T_i −
/// T_j|))` — about 1e-12 of the injected energy here (the observed
/// mismatch is below 1e-15 of it).
fn assert_one_step_conserves_energy(
    label: &str,
    adj: &Adjacency,
    p: &RcParams,
    solver: &CompiledModel,
) {
    let n = adj.len();
    let g_v = 1.0 / p.vertical_resistance;
    let c = p.cell_capacitance;
    let power = uneven_power(n);
    // A non-uniform start, so every lateral edge carries heat.
    let before: Vec<f64> = (0..n)
        .map(|i| p.ambient + 0.37 * (i * 5 % n) as f64)
        .collect();
    for h in [solver.max_stable_dt(), 0.5 * solver.max_stable_dt()] {
        let mut state = ThermalState::from_vec(before.clone());
        solver.step_into(&mut state, &power, h, &mut StepScratch::new());
        let after = state.temps();

        let stored: f64 = (0..n).map(|i| c * (after[i] - before[i])).sum();
        let injected: f64 = power.iter().sum();
        let lost: f64 = before.iter().map(|&t| g_v * (t - p.ambient)).sum();
        let balance = h * (injected - lost);

        let lateral: f64 = (0..n)
            .map(|i| {
                adj[i]
                    .iter()
                    .map(|&(j, g)| g * (before[i] - before[j]).abs())
                    .sum::<f64>()
            })
            .sum();
        let scale =
            c * after.iter().map(|t| t.abs()).sum::<f64>() + h * (injected + lost.abs() + lateral);
        let tol = 16.0 * f64::EPSILON * scale;
        assert!(
            (stored - balance).abs() <= tol,
            "{label} h={h:e}: stored {stored:e} J vs h·(ΣP − loss) {balance:e} J \
             (|diff| {:e} > tol {tol:e})",
            (stored - balance).abs()
        );
        assert!(
            tol < 1e-11 * h * injected,
            "{label}: tolerance stays near ε"
        );
    }
}

#[test]
fn one_step_conserves_energy() {
    let p = RcParams::default();
    let fp = Floorplan::grid(3, 3);
    let model = ThermalModel::new(fp.clone(), p);
    let adj = grid_adjacency(&fp, &p);
    for kernel in [KernelKind::Stencil, KernelKind::Csr] {
        let solver = CompiledModel::with_kernel(&model, kernel);
        assert_one_step_conserves_energy(&format!("3x3 {kernel:?}"), &adj, &p, &solver);
    }
    let (adj, csr) = coupled_pair(&p);
    assert_one_step_conserves_energy("coupled pair (CSR)", &adj, &p, &csr);
}
