//! Acceptance tests for the multi-core scenario subsystem:
//!
//! * **decomposition** — a K-core die with zero coupling reproduces K
//!   independent single-core solves bit-for-bit (the block-diagonal
//!   contract of `MultiCoreFloorplan`);
//! * **worker invariance** — scenario results (and their rendered JSON
//!   reports) are byte-identical at any engine worker count;
//! * **golden stability** — every committed `scenarios/` spec still
//!   produces its committed golden report, byte for byte (the same
//!   check CI's golden-report job runs via `tadfa check`);
//! * **physics** — inter-core coupling actually moves heat between
//!   cores and changes the scenario fingerprint.

use std::path::Path;
use tadfa::prelude::*;
use tadfa::sched::{
    load_spec, render_report, run_scenario, suite_tasks, MultiCoreFloorplan, ScenarioConfig,
};

/// With no coupling edges, per-core slices of a die transient are
/// bit-identical to independent single-core solves, for every core
/// count/shape tried and distinct per-core power patterns.
#[test]
fn zero_coupling_die_reproduces_independent_single_cores() {
    let rc = RcParams::default();
    for (cores, rows, cols) in [(2, 3, 4), (3, 4, 4), (5, 2, 3)] {
        let per = rows * cols;
        let die = MultiCoreFloorplan::new(cores, rows, cols, rc, None).unwrap();
        let solver = die.compile();
        let single_model = ThermalModel::new(Floorplan::grid(rows, cols), rc);
        let single = CompiledModel::with_kernel(&single_model, KernelKind::Csr);

        // A distinct deterministic power pattern per core.
        let mut die_power = vec![0.0; die.num_cells()];
        let mut core_powers: Vec<Vec<f64>> = Vec::new();
        for k in 0..cores {
            let mut p = vec![0.0; per];
            p[k % per] += 1e-3 * (k + 1) as f64;
            p[(3 * k + 1) % per] += 0.4e-3;
            for (i, &w) in p.iter().enumerate() {
                die_power[k * per + i] = w;
            }
            core_powers.push(p);
        }

        let mut die_state = die.ambient_state();
        let mut single_states: Vec<ThermalState> =
            (0..cores).map(|_| single.ambient_state()).collect();
        let mut die_scratch = StepScratch::new();
        let mut single_scratch = StepScratch::new();
        for dt in [2e-6, 1e-4, 3e-3] {
            solver.step_into(&mut die_state, &die_power, dt, &mut die_scratch);
            for (k, s) in single_states.iter_mut().enumerate() {
                single.step_into(s, &core_powers[k], dt, &mut single_scratch);
            }
            for (k, s) in single_states.iter().enumerate() {
                let a: Vec<u64> = die_state.temps()[k * per..(k + 1) * per]
                    .iter()
                    .map(|t| t.to_bits())
                    .collect();
                let b: Vec<u64> = s.temps().iter().map(|t| t.to_bits()).collect();
                assert_eq!(a, b, "{cores}x{rows}x{cols} core {k} dt={dt}");
            }
        }
    }
}

/// Steady state decomposes too when every core carries the same load:
/// the die-wide Gauss–Seidel residual then equals each core's own, so
/// sweep counts — and therefore every intermediate value — match the
/// single-core solve exactly.
#[test]
fn zero_coupling_steady_state_matches_replicated_single_core() {
    let rc = RcParams::default();
    let (cores, rows, cols) = (4, 3, 3);
    let per = rows * cols;
    let die = MultiCoreFloorplan::new(cores, rows, cols, rc, None).unwrap();
    let mut core_power = vec![0.0; per];
    core_power[1] = 1e-3;
    core_power[7] = 0.5e-3;
    let die_power: Vec<f64> = (0..cores).flat_map(|_| core_power.clone()).collect();

    let single_model = ThermalModel::new(Floorplan::grid(rows, cols), rc);
    let single =
        CompiledModel::with_kernel(&single_model, KernelKind::Csr).steady_state(&core_power);
    let die_ss = die.compile().steady_state(&die_power);
    let want: Vec<u64> = single.temps().iter().map(|t| t.to_bits()).collect();
    for k in 0..cores {
        let got: Vec<u64> = die_ss.temps()[k * per..(k + 1) * per]
            .iter()
            .map(|t| t.to_bits())
            .collect();
        assert_eq!(got, want, "core {k}");
    }
}

fn scenario(workers: usize, coupling: Option<f64>) -> ScenarioConfig {
    let die = MultiCoreFloorplan::new(4, 4, 4, RcParams::default(), coupling).unwrap();
    let mut cfg = ScenarioConfig::new(
        "invariance",
        die,
        suite_tasks(6, 5e-4, 1e-3),
        "thermal-balanced",
    );
    cfg.workers = workers;
    cfg
}

/// The acceptance criterion in executable form: the whole scenario —
/// scheduling decisions, migrations, die temperatures, and the rendered
/// JSON report — is byte-identical across runs and worker counts.
#[test]
fn scenario_reports_are_worker_count_invariant() {
    let base = run_scenario(&scenario(1, Some(40.0))).unwrap();
    let base_report = render_report(&base);
    for workers in [2, 4, 9] {
        let r = run_scenario(&scenario(workers, Some(40.0))).unwrap();
        assert_eq!(r.fingerprint(), base.fingerprint(), "workers={workers}");
        assert_eq!(render_report(&r), base_report, "workers={workers}");
        assert_eq!(r.assignments, base.assignments);
        assert_eq!(r.migrations, base.migrations);
    }
}

/// Coupling is not cosmetic: the same scenario with and without
/// inter-core coupling disagrees on die temperatures (heat crosses core
/// boundaries) and therefore on the scenario fingerprint.
#[test]
fn coupling_changes_the_die_outcome() {
    let coupled = run_scenario(&scenario(2, Some(10.0))).unwrap();
    let uncoupled = run_scenario(&scenario(2, None)).unwrap();
    // Same analysis and scheduling inputs...
    assert_eq!(coupled.assignments, uncoupled.assignments);
    // ...different die physics.
    assert!(coupled.die.transient_peak < uncoupled.die.transient_peak);
    assert_ne!(coupled.fingerprint(), uncoupled.fingerprint());
}

/// Every committed scenario spec reproduces its committed golden report
/// byte for byte — the in-tree twin of CI's golden-report job.
#[test]
fn committed_scenarios_match_their_golden_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if !matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("toml" | "json")
        ) {
            continue;
        }
        let cfg = load_spec(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let result = run_scenario(&cfg).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let golden = root.join("scenarios/golden").join(format!(
            "{}.json",
            path.file_stem().and_then(|s| s.to_str()).unwrap()
        ));
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
        assert_eq!(
            render_report(&result),
            expected,
            "golden drift for {} — regenerate with `tadfa run {} --out {}`",
            path.display(),
            path.display(),
            golden.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 10,
        "expected ≥10 committed scenarios (incl. covert/DTM family), found {checked}"
    );
}
