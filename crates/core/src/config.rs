//! Configuration of the thermal data flow analysis.

use crate::error::TadfaError;
use tadfa_thermal::constants;

/// How predecessor exit states merge at a block entry.
///
/// The paper does not fix the confluence operator; the choice decides
/// whether convergence is guaranteed (§4's "does not appear to be a way
/// to guarantee convergence" remark):
///
/// * [`MergeRule::Max`] — element-wise maximum: a conservative
///   "may-be-this-hot" lattice. The transfer function is monotone and the
///   state space bounded, so iteration converges for every δ > 0.
/// * [`MergeRule::Average`] — arithmetic mean of the predecessors: closer
///   to physical mixing, but **not** monotone over the join — programs
///   whose paths oscillate between hot and cold usage can keep the
///   fixpoint iteration oscillating forever. This reproduces the paper's
///   non-convergence caveat and is exercised by experiment E3.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MergeRule {
    /// Element-wise maximum (converges).
    Max,
    /// Element-wise average (may oscillate).
    Average,
}

/// Parameters of the thermal DFA (Fig. 2 of the paper).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ThermalDfaConfig {
    /// The convergence parameter δ, Kelvin: iteration stops when no
    /// instruction's thermal state changes by more than this (L∞).
    pub delta: f64,
    /// Iteration cap — the "reasonable number of iterations" after which
    /// non-convergence is reported (§4).
    pub max_iterations: usize,
    /// Confluence operator at block entries.
    pub merge: MergeRule,
    /// Physical seconds per clock cycle.
    pub seconds_per_cycle: f64,
    /// Thermal acceleration factor: one analysis step models the
    /// sustained execution of the instruction for
    /// `latency × seconds_per_cycle × time_scale` seconds at the
    /// instruction's natural power. See
    /// [`constants::DEFAULT_TIME_SCALE`].
    pub time_scale: f64,
    /// Whether to add temperature-dependent leakage to each step's power.
    pub leakage_feedback: bool,
}

impl Default for ThermalDfaConfig {
    fn default() -> ThermalDfaConfig {
        ThermalDfaConfig {
            delta: 0.01,
            max_iterations: 1000,
            merge: MergeRule::Max,
            seconds_per_cycle: constants::DEFAULT_SECONDS_PER_CYCLE,
            time_scale: constants::DEFAULT_TIME_SCALE,
            leakage_feedback: true,
        }
    }
}

impl ThermalDfaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TadfaError::InvalidConfig`] on non-positive δ, a zero
    /// iteration budget, or non-positive time parameters.
    pub fn validate(&self) -> Result<(), TadfaError> {
        if self.delta <= 0.0 || self.delta.is_nan() {
            return Err(TadfaError::InvalidConfig {
                param: "delta",
                value: self.delta,
                reason: "must be positive",
            });
        }
        if self.max_iterations == 0 {
            return Err(TadfaError::InvalidConfig {
                param: "max_iterations",
                value: 0.0,
                reason: "iteration budget must be positive",
            });
        }
        if self.seconds_per_cycle <= 0.0 || self.seconds_per_cycle.is_nan() {
            return Err(TadfaError::InvalidConfig {
                param: "seconds_per_cycle",
                value: self.seconds_per_cycle,
                reason: "must be positive",
            });
        }
        if self.time_scale <= 0.0 || self.time_scale.is_nan() {
            return Err(TadfaError::InvalidConfig {
                param: "time_scale",
                value: self.time_scale,
                reason: "must be positive",
            });
        }
        Ok(())
    }

    /// Builder-style: sets δ.
    pub fn with_delta(mut self, delta: f64) -> ThermalDfaConfig {
        self.delta = delta;
        self
    }

    /// Builder-style: sets the merge rule.
    pub fn with_merge(mut self, merge: MergeRule) -> ThermalDfaConfig {
        self.merge = merge;
        self
    }

    /// Builder-style: sets the iteration cap.
    pub fn with_max_iterations(mut self, max: usize) -> ThermalDfaConfig {
        self.max_iterations = max;
        self
    }

    /// Seconds of modelled time one execution of an instruction with the
    /// given latency represents.
    pub fn step_duration(&self, latency: u32) -> f64 {
        latency as f64 * self.seconds_per_cycle * self.time_scale
    }
}

/// Outcome of the fixpoint iteration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Convergence {
    /// All per-instruction changes fell below δ.
    Converged {
        /// Iterations used (≥ 1; iteration 1 always runs).
        iterations: usize,
    },
    /// The iteration cap was hit first — the paper's signal that "the
    /// thermal state of the program may be too difficult to predict at
    /// compile time" (§4).
    DidNotConverge {
        /// Iterations executed (= the cap).
        iterations: usize,
        /// Largest per-instruction change in the final iteration, K.
        residual: f64,
    },
}

impl Convergence {
    /// Whether the analysis converged.
    pub fn is_converged(&self) -> bool {
        matches!(self, Convergence::Converged { .. })
    }

    /// Iterations executed.
    pub fn iterations(&self) -> usize {
        match *self {
            Convergence::Converged { iterations }
            | Convergence::DidNotConverge { iterations, .. } => iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let c = ThermalDfaConfig::default();
        assert!(c.validate().is_ok());
        assert!(c.delta > 0.0);
        assert_eq!(c.merge, MergeRule::Max);
        assert!(c.leakage_feedback);
    }

    #[test]
    fn builder_methods() {
        let c = ThermalDfaConfig::default()
            .with_delta(0.5)
            .with_merge(MergeRule::Average)
            .with_max_iterations(7);
        assert_eq!(c.delta, 0.5);
        assert_eq!(c.merge, MergeRule::Average);
        assert_eq!(c.max_iterations, 7);
    }

    #[test]
    fn step_duration_scales_with_latency() {
        let c = ThermalDfaConfig::default();
        assert!((c.step_duration(3) - 3.0 * c.step_duration(1)).abs() < 1e-18);
        assert!(c.step_duration(1) > 0.0);
    }

    #[test]
    fn invalid_configs_are_reported_not_panicked() {
        let e = ThermalDfaConfig::default()
            .with_delta(0.0)
            .validate()
            .unwrap_err();
        assert!(matches!(
            e,
            TadfaError::InvalidConfig { param: "delta", .. }
        ));
        let e = ThermalDfaConfig::default()
            .with_max_iterations(0)
            .validate()
            .unwrap_err();
        assert!(matches!(
            e,
            TadfaError::InvalidConfig {
                param: "max_iterations",
                ..
            }
        ));
        let c = ThermalDfaConfig {
            time_scale: -1.0,
            ..ThermalDfaConfig::default()
        };
        let e = c.validate().unwrap_err();
        assert!(matches!(
            e,
            TadfaError::InvalidConfig {
                param: "time_scale",
                ..
            }
        ));
        let c = ThermalDfaConfig {
            seconds_per_cycle: 0.0,
            ..ThermalDfaConfig::default()
        };
        let e = c.validate().unwrap_err();
        assert!(matches!(
            e,
            TadfaError::InvalidConfig {
                param: "seconds_per_cycle",
                ..
            }
        ));
    }

    #[test]
    fn convergence_accessors() {
        let c = Convergence::Converged { iterations: 4 };
        assert!(c.is_converged());
        assert_eq!(c.iterations(), 4);
        let d = Convergence::DidNotConverge {
            iterations: 64,
            residual: 1.5,
        };
        assert!(!d.is_converged());
        assert_eq!(d.iterations(), 64);
    }
}
