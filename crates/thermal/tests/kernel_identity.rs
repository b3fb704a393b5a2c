//! Bit-identity property tests for the compiled solver kernels.
//!
//! The contract (see `tadfa_thermal::solver`): the stencil and CSR
//! kernels preserve the exact floating-point operation order of the
//! naive reference solvers in `ThermalModel`, so results must match
//! **bit for bit** (`f64::to_bits`) — on degenerate shapes (1×1, 1×N,
//! N×1), on random power vectors, across sub-stepping regimes, and
//! under steady-state iteration.

use tadfa_thermal::{
    CompiledModel, Floorplan, KernelKind, LeakageParams, RcParams, SteadyStateOptions, StepScratch,
    ThermalModel, ThermalState,
};

/// Deterministic xorshift64* generator — enough randomness for property
/// loops without a dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Degenerate shapes, odd row widths, and every dispatch tier of the
/// widened stencil: widths below one 8-lane chunk, exactly one chunk
/// (the whole-grid `stencil_pass_w8` specialization, single- and
/// multi-row), full-chunks-plus-tail, and multiple full chunks.
const SHAPES: &[(usize, usize)] = &[
    (1, 1),
    (1, 2),
    (2, 1),
    (1, 9),
    (9, 1),
    (2, 2),
    (2, 5),
    (5, 2),
    (3, 3),
    (4, 7),
    (1, 8),
    (2, 8),
    (5, 8),
    (8, 8),
    (16, 8),
    (3, 11),
    (7, 13),
    (2, 16),
];

fn random_power(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if rng.next_f64() < 0.4 {
                0.0 // sparse, like real access maps
            } else {
                rng.next_f64() * 2e-3
            }
        })
        .collect()
}

fn bits(temps: &[f64]) -> Vec<u64> {
    temps.iter().map(|t| t.to_bits()).collect()
}

#[test]
fn transient_kernels_bit_identical_on_random_powers() {
    let mut rng = Rng(0x5eed_1234_dead_beef);
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let stencil = CompiledModel::with_kernel(&model, KernelKind::Stencil);
        let csr = CompiledModel::with_kernel(&model, KernelKind::Csr);
        for trial in 0..8 {
            let power = random_power(&mut rng, rows * cols);
            // dt spanning one sub-step up to heavy sub-stepping.
            let dt = 10f64.powf(-6.0 + 4.0 * rng.next_f64());

            let mut naive = model.ambient_state();
            let mut s_stencil = model.ambient_state();
            let mut s_csr = model.ambient_state();
            let mut scratch = StepScratch::new();
            for _ in 0..3 {
                model.step(&mut naive, &power, dt);
                stencil.step_into(&mut s_stencil, &power, dt, &mut scratch);
                csr.step_into(&mut s_csr, &power, dt, &mut scratch);
            }
            assert_eq!(
                bits(naive.temps()),
                bits(s_stencil.temps()),
                "stencil {rows}x{cols} trial {trial} dt {dt}"
            );
            assert_eq!(
                bits(naive.temps()),
                bits(s_csr.temps()),
                "csr {rows}x{cols} trial {trial} dt {dt}"
            );
        }
    }
}

#[test]
fn steady_state_kernels_bit_identical_on_random_powers() {
    let mut rng = Rng(0xabcd_ef01_2345_6789);
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let stencil = CompiledModel::with_kernel(&model, KernelKind::Stencil);
        let csr = CompiledModel::with_kernel(&model, KernelKind::Csr);
        for trial in 0..4 {
            let power = random_power(&mut rng, rows * cols);
            let opts = SteadyStateOptions::default();
            let (naive, naive_stats) = model.steady_state_with(&power, &opts);

            let mut out = stencil.ambient_state();
            let stats = stencil.steady_state_into(&power, &mut out, &opts);
            assert_eq!(
                bits(naive.temps()),
                bits(out.temps()),
                "stencil {rows}x{cols} trial {trial}"
            );
            assert_eq!(stats, naive_stats, "stencil stats {rows}x{cols}");

            let stats = csr.steady_state_into(&power, &mut out, &opts);
            assert_eq!(
                bits(naive.temps()),
                bits(out.temps()),
                "csr {rows}x{cols} trial {trial}"
            );
            assert_eq!(stats, naive_stats, "csr stats {rows}x{cols}");
        }
    }
}

#[test]
fn step_into_scratch_reuse_never_changes_bits() {
    // One scratch reused across every shape, interleaved — stale buffer
    // contents must never leak into results.
    let mut rng = Rng(42);
    let mut scratch = StepScratch::new();
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let solver = model.compile();
        let power = random_power(&mut rng, rows * cols);
        let mut fresh = model.ambient_state();
        let mut reused = model.ambient_state();
        solver.step_into(&mut fresh, &power, 5e-4, &mut StepScratch::new());
        solver.step_into(&mut reused, &power, 5e-4, &mut scratch);
        assert_eq!(bits(fresh.temps()), bits(reused.temps()), "{rows}x{cols}");
    }
}

#[test]
fn tracked_sparse_path_matches_untracked_plus_separate_linf() {
    // The DFA's fused change-tracking entry: one kernel pass that steps
    // AND folds the L∞ delta against `prev` must produce the same
    // temperature bits and the same delta bits as stepping untracked
    // and diffing afterwards (max is exactly associative, so fusing the
    // fold into the store loop cannot move a bit).
    let mut rng = Rng(0x7721_aa00_17de_c0de);
    let leak = LeakageParams {
        per_cell: 1e-4,
        temp_coeff: 0.01,
        reference_temp: 300.0,
    };
    for &(rows, cols) in SHAPES {
        let model = ThermalModel::new(Floorplan::grid(rows, cols), RcParams::default());
        let solver = model.compile();
        let n = rows * cols;
        let deposits: Vec<(u32, f64)> = (0..n.min(5))
            .map(|i| (((i * 7) % n) as u32, rng.next_f64() * 1e-3))
            .collect();
        let sched = solver.schedule(5e-4);

        for leak_opt in [None, Some(&leak)] {
            let mut tracked = model.ambient_state();
            let mut untracked = model.ambient_state();
            let mut scratch = StepScratch::new();
            let mut prev_tracked = vec![solver.ambient() - 1.0; n];
            let mut prev_untracked = prev_tracked.clone();

            let delta_tracked = solver.step_sparse_into(
                &mut tracked,
                &deposits,
                &sched,
                leak_opt,
                &mut scratch,
                Some(&mut prev_tracked),
            );
            let untracked_return = solver.step_sparse_into(
                &mut untracked,
                &deposits,
                &sched,
                leak_opt,
                &mut scratch,
                None,
            );
            assert_eq!(untracked_return, 0.0, "untracked steps report no change");
            let delta_untracked =
                ThermalState::linf_update_slices(&mut prev_untracked, untracked.temps());

            assert_eq!(
                bits(tracked.temps()),
                bits(untracked.temps()),
                "temps {rows}x{cols} leak={}",
                leak_opt.is_some()
            );
            assert_eq!(
                delta_tracked.to_bits(),
                delta_untracked.to_bits(),
                "delta {rows}x{cols} leak={}",
                leak_opt.is_some()
            );
            assert_eq!(
                bits(&prev_tracked),
                bits(&prev_untracked),
                "prev {rows}x{cols} leak={}",
                leak_opt.is_some()
            );
        }
    }
}

#[test]
fn nonuniform_rc_parameters_stay_bit_identical() {
    // Coarsened analysis grids scale capacitance and vertical
    // resistance; the kernels must agree there too.
    let params = RcParams {
        cell_capacitance: 4.0 * RcParams::default().cell_capacitance,
        vertical_resistance: RcParams::default().vertical_resistance / 4.0,
        ..RcParams::default()
    };
    let model = ThermalModel::new(Floorplan::grid(4, 4), params);
    let solver = model.compile();
    let mut power = vec![0.0; 16];
    power[5] = 3e-3;

    let mut naive = model.ambient_state();
    let mut fast = model.ambient_state();
    let mut scratch = StepScratch::new();
    for _ in 0..10 {
        model.step(&mut naive, &power, 1e-3);
        solver.step_into(&mut fast, &power, 1e-3, &mut scratch);
    }
    assert_eq!(bits(naive.temps()), bits(fast.temps()));
    assert_eq!(
        bits(model.steady_state(&power).temps()),
        bits(solver.steady_state(&power).temps()),
    );
}
