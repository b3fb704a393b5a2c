//! Trace-driven thermal co-simulation: the feedback path the paper wants
//! to replace.
//!
//! "State-of-the-art thermal emulation tools require compiled programs in
//! order to characterize the thermal state of the processor; this limits
//! their usage, in practice, to feedback-driven optimization frameworks"
//! (§1). This module is exactly such a tool — execute, trace, replay the
//! trace through the RC model — and serves as the ground truth the
//! compile-time analysis is scored against (experiment E4).

use crate::trace::AccessTrace;
use tadfa_thermal::{PowerModel, RegisterFile, StepScratch, ThermalModel, ThermalState};

/// Configuration of the co-simulation.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CosimConfig {
    /// Physical seconds per cycle.
    pub seconds_per_cycle: f64,
    /// Thermal acceleration factor (see
    /// [`tadfa_thermal::constants::DEFAULT_TIME_SCALE`]); must match the
    /// analysis configuration for apples-to-apples comparison.
    pub time_scale: f64,
    /// Trace window, in cycles, aggregated into one thermal step.
    pub window: u64,
    /// Record a state sample every this many windows (0 = only final).
    pub sample_every: usize,
    /// Whether to include temperature-dependent leakage.
    pub leakage_feedback: bool,
}

impl Default for CosimConfig {
    fn default() -> CosimConfig {
        CosimConfig {
            seconds_per_cycle: tadfa_thermal::constants::DEFAULT_SECONDS_PER_CYCLE,
            time_scale: tadfa_thermal::constants::DEFAULT_TIME_SCALE,
            window: 16,
            sample_every: 8,
            leakage_feedback: true,
        }
    }
}

/// The thermal history of one traced execution.
#[derive(Clone, Debug)]
pub struct ThermalTimeline {
    /// `(end cycle, state)` samples in chronological order.
    pub samples: Vec<(u64, ThermalState)>,
    /// State after the last trace event.
    pub final_state: ThermalState,
    /// Element-wise maximum over the whole run.
    pub peak_map: ThermalState,
}

impl ThermalTimeline {
    /// The single hottest temperature observed anywhere, any time.
    pub fn peak_temperature(&self) -> f64 {
        self.peak_map.peak()
    }
}

/// Replays `trace` through the RC model of `rf` and returns the thermal
/// timeline.
///
/// Each `window` cycles of trace become one transient step: the window's
/// accesses define the power vector (energy / window duration), applied
/// for the time-scaled window duration.
///
/// # Panics
///
/// Panics if the configuration has non-positive times or a zero window.
pub fn simulate_trace(
    trace: &AccessTrace,
    rf: &RegisterFile,
    model: &ThermalModel,
    power_model: &PowerModel,
    config: &CosimConfig,
) -> ThermalTimeline {
    assert!(
        config.seconds_per_cycle > 0.0,
        "seconds_per_cycle must be positive"
    );
    assert!(config.time_scale > 0.0, "time_scale must be positive");
    assert!(config.window > 0, "window must be positive");
    assert_eq!(
        model.num_cells(),
        rf.floorplan().num_cells(),
        "model and register file disagree on cell count"
    );

    let mut state = model.ambient_state();
    let mut peak_map = state.clone();
    let mut samples = Vec::new();

    let window_natural = config.window as f64 * config.seconds_per_cycle;
    let window_scaled = window_natural * config.time_scale;

    // One compiled plan + scratch for the whole trace: per-window steps
    // are allocation-free and bit-identical to `ThermalModel::step`.
    let solver = model.compile();
    let mut scratch = StepScratch::new();

    for (wi, w) in trace.windows(config.window, rf.num_regs()).enumerate() {
        let mut power = power_model.power_vector(rf, &w.reads, &w.writes, window_natural);
        if config.leakage_feedback {
            power_model.add_leakage(&mut power, &state);
        }
        solver.step_into(&mut state, &power, window_scaled, &mut scratch);
        peak_map.max_with(&state);
        if config.sample_every > 0 && wi % config.sample_every == 0 {
            samples.push((w.end, state.clone()));
        }
    }

    ThermalTimeline {
        final_state: state.clone(),
        peak_map,
        samples,
    }
}

/// Accuracy of a predicted map against a measured one — the E4 metrics.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AccuracyReport {
    /// Root-mean-square temperature error, K.
    pub rms: f64,
    /// Largest absolute per-cell error, K.
    pub linf: f64,
    /// Pearson correlation of the two maps (NaN for constant maps).
    pub pearson: f64,
    /// Error in the peak temperature, K (predicted − measured).
    pub peak_error: f64,
    /// Manhattan distance between the predicted and measured hottest
    /// cells, in cell units.
    pub hotspot_distance: usize,
}

/// Compares a predicted thermal map against a measured one over the same
/// floorplan.
///
/// # Panics
///
/// Panics if the maps have different sizes or do not match the floorplan.
pub fn compare_maps(
    predicted: &ThermalState,
    measured: &ThermalState,
    fp: &tadfa_thermal::Floorplan,
) -> AccuracyReport {
    assert_eq!(predicted.len(), measured.len(), "map size mismatch");
    assert_eq!(
        predicted.len(),
        fp.num_cells(),
        "maps do not match floorplan"
    );
    AccuracyReport {
        rms: predicted.rms_distance(measured),
        linf: predicted.linf_distance(measured),
        pearson: predicted.pearson(measured),
        peak_error: predicted.peak() - measured.peak(),
        hotspot_distance: fp.manhattan(predicted.argmax(), measured.argmax()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AccessEvent, AccessKind};
    use tadfa_ir::PReg;
    use tadfa_thermal::{Floorplan, RcParams};

    fn setup() -> (RegisterFile, ThermalModel, PowerModel) {
        let fp = Floorplan::grid(4, 4);
        let rf = RegisterFile::new(fp.clone());
        let model = ThermalModel::new(fp, RcParams::default());
        (rf, model, PowerModel::default())
    }

    fn hammer_trace(reg: u16, n: u64) -> AccessTrace {
        let mut t = AccessTrace::new();
        for c in 0..n {
            t.push(AccessEvent {
                cycle: c,
                reg: PReg::new(reg),
                kind: AccessKind::Read,
            });
            t.push(AccessEvent {
                cycle: c,
                reg: PReg::new(reg),
                kind: AccessKind::Write,
            });
        }
        t
    }

    #[test]
    fn hammered_register_heats_up() {
        let (rf, model, pm) = setup();
        let trace = hammer_trace(5, 2000);
        let tl = simulate_trace(&trace, &rf, &model, &pm, &CosimConfig::default());
        assert!(tl.final_state.get(5) > model.ambient() + 0.5);
        assert_eq!(tl.final_state.argmax(), 5);
        assert!(tl.peak_temperature() >= tl.final_state.peak());
        assert!(!tl.samples.is_empty());
    }

    #[test]
    fn empty_trace_stays_ambient() {
        let (rf, model, pm) = setup();
        let tl = simulate_trace(
            &AccessTrace::new(),
            &rf,
            &model,
            &pm,
            &CosimConfig::default(),
        );
        assert!((tl.final_state.peak() - model.ambient()).abs() < 1e-9);
        assert!(tl.samples.is_empty());
    }

    #[test]
    fn two_hammered_registers_both_hot() {
        let (rf, model, pm) = setup();
        let mut t = AccessTrace::new();
        for c in 0..2000 {
            let reg = if c % 2 == 0 { 0 } else { 15 };
            t.push(AccessEvent {
                cycle: c,
                reg: PReg::new(reg),
                kind: AccessKind::Write,
            });
        }
        let tl = simulate_trace(&t, &rf, &model, &pm, &CosimConfig::default());
        let amb = model.ambient();
        assert!(tl.final_state.get(0) > amb + 0.1);
        assert!(tl.final_state.get(15) > amb + 0.1);
        // The untouched middle is cooler than both sources.
        assert!(tl.final_state.get(5) < tl.final_state.get(0));
    }

    #[test]
    fn leakage_feedback_raises_temperatures() {
        let (rf, model, pm) = setup();
        let trace = hammer_trace(5, 2000);
        let with = simulate_trace(&trace, &rf, &model, &pm, &CosimConfig::default());
        let without = simulate_trace(
            &trace,
            &rf,
            &model,
            &pm,
            &CosimConfig {
                leakage_feedback: false,
                ..CosimConfig::default()
            },
        );
        assert!(with.final_state.mean() > without.final_state.mean());
    }

    #[test]
    fn compare_maps_identity_is_perfect() {
        let fp = Floorplan::grid(2, 2);
        let m = ThermalState::from_vec(vec![300.0, 305.0, 310.0, 320.0]);
        let r = compare_maps(&m, &m, &fp);
        assert_eq!(r.rms, 0.0);
        assert_eq!(r.linf, 0.0);
        assert!((r.pearson - 1.0).abs() < 1e-12);
        assert_eq!(r.peak_error, 0.0);
        assert_eq!(r.hotspot_distance, 0);
    }

    #[test]
    fn compare_maps_detects_shift() {
        let fp = Floorplan::grid(2, 2);
        let a = ThermalState::from_vec(vec![320.0, 300.0, 300.0, 300.0]);
        let b = ThermalState::from_vec(vec![300.0, 300.0, 300.0, 320.0]);
        let r = compare_maps(&a, &b, &fp);
        assert_eq!(r.hotspot_distance, 2);
        assert!(r.rms > 0.0);
        assert_eq!(r.peak_error, 0.0);
    }
}
