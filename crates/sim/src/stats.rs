//! Performance and energy statistics of traced executions — the other
//! axis of every §4 trade-off.

use crate::trace::AccessTrace;
use tadfa_thermal::PowerModel;

/// Energy/performance summary of one traced run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RunStats {
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic instructions (terminators included).
    pub insts: u64,
    /// Register-file reads.
    pub rf_reads: u64,
    /// Register-file writes.
    pub rf_writes: u64,
    /// Dynamic register-file energy, Joules.
    pub rf_energy: f64,
    /// Wall-clock time at the given clock, seconds.
    pub runtime: f64,
    /// Average register-file power, Watts.
    pub avg_rf_power: f64,
}

impl RunStats {
    /// Summarises a trace under a power model and clock period.
    ///
    /// # Panics
    ///
    /// Panics if `seconds_per_cycle` is not positive.
    pub fn of(
        trace: &AccessTrace,
        cycles: u64,
        insts: u64,
        power_model: &PowerModel,
        seconds_per_cycle: f64,
    ) -> RunStats {
        assert!(
            seconds_per_cycle > 0.0,
            "seconds_per_cycle must be positive"
        );
        let (reads, writes) = trace.counts(0);
        let rf_reads: u64 = reads.iter().sum();
        let rf_writes: u64 = writes.iter().sum();
        let rf_energy =
            rf_reads as f64 * power_model.read_energy + rf_writes as f64 * power_model.write_energy;
        let runtime = cycles.max(1) as f64 * seconds_per_cycle;
        RunStats {
            cycles,
            insts,
            rf_reads,
            rf_writes,
            rf_energy,
            runtime,
            avg_rf_power: rf_energy / runtime,
        }
    }

    /// Energy–delay product (J·s) — the classic combined metric for the
    /// performance-vs-cooling compromise.
    pub fn energy_delay_product(&self) -> f64 {
        self.rf_energy * self.runtime
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.insts as f64 / self.cycles.max(1) as f64
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycles, {} insts (IPC {:.2}), RF {}r/{}w = {:.3e} J, avg {:.3e} W",
            self.cycles,
            self.insts,
            self.ipc(),
            self.rf_reads,
            self.rf_writes,
            self.rf_energy,
            self.avg_rf_power
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AccessEvent, AccessKind};
    use tadfa_ir::PReg;

    fn trace(reads: u64, writes: u64) -> AccessTrace {
        let mut t = AccessTrace::new();
        for c in 0..reads {
            t.push(AccessEvent {
                cycle: c,
                reg: PReg::new(0),
                kind: AccessKind::Read,
            });
        }
        for c in 0..writes {
            t.push(AccessEvent {
                cycle: reads + c,
                reg: PReg::new(1),
                kind: AccessKind::Write,
            });
        }
        t
    }

    #[test]
    fn counts_and_energy() {
        let pm = PowerModel::default();
        let s = RunStats::of(&trace(10, 5), 100, 40, &pm, 1e-9);
        assert_eq!(s.rf_reads, 10);
        assert_eq!(s.rf_writes, 5);
        let expected = 10.0 * pm.read_energy + 5.0 * pm.write_energy;
        assert!((s.rf_energy - expected).abs() < 1e-20);
        assert!((s.runtime - 100e-9).abs() < 1e-18);
        assert!((s.avg_rf_power - expected / 100e-9).abs() < 1e-9);
        assert!((s.ipc() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn edp_scales_with_both_axes() {
        let pm = PowerModel::default();
        let fast = RunStats::of(&trace(10, 10), 100, 50, &pm, 1e-9);
        let slow = RunStats::of(&trace(10, 10), 200, 50, &pm, 1e-9);
        assert!(slow.energy_delay_product() > fast.energy_delay_product());
    }

    #[test]
    fn empty_trace_is_fine() {
        let pm = PowerModel::default();
        let s = RunStats::of(&AccessTrace::new(), 10, 5, &pm, 1e-9);
        assert_eq!(s.rf_energy, 0.0);
        assert_eq!(s.avg_rf_power, 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let pm = PowerModel::default();
        let s = RunStats::of(&trace(3, 2), 10, 8, &pm, 1e-9);
        let text = s.to_string();
        assert!(text.contains("10 cycles"));
        assert!(text.contains("3r/2w"));
    }
}
