//! The result of register allocation: a virtual→physical register map.

use std::error::Error;
use std::fmt;
use tadfa_ir::{PReg, VReg};

/// A complete virtual→physical register assignment.
///
/// After allocation (including spill rewriting) every virtual register
/// that is still referenced by the function maps to exactly one physical
/// register for its whole lifetime.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Assignment {
    map: Vec<Option<PReg>>,
    num_regs: usize,
}

impl Assignment {
    /// An empty assignment over `num_vregs` virtual and `num_regs`
    /// physical registers.
    pub fn new(num_vregs: usize, num_regs: usize) -> Assignment {
        Assignment {
            map: vec![None; num_vregs],
            num_regs,
        }
    }

    /// Number of physical registers in the target file.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Number of virtual registers covered.
    pub fn num_vregs(&self) -> usize {
        self.map.len()
    }

    /// Records `v → r`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `r` is out of range.
    pub fn assign(&mut self, v: VReg, r: PReg) {
        assert!(r.index() < self.num_regs, "{r} out of range");
        assert!(v.index() < self.map.len(), "{v} out of range");
        self.map[v.index()] = Some(r);
    }

    /// The physical register of `v`, if assigned.
    pub fn preg_of(&self, v: VReg) -> Option<PReg> {
        self.map.get(v.index()).copied().flatten()
    }

    /// Grows the map to cover later-created virtual registers.
    pub fn grow(&mut self, num_vregs: usize) {
        if num_vregs > self.map.len() {
            self.map.resize(num_vregs, None);
        }
    }

    /// Iterates over `(VReg, PReg)` pairs that are assigned.
    pub fn iter(&self) -> impl Iterator<Item = (VReg, PReg)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (VReg::new(i as u32), r)))
    }

    /// How many distinct physical registers are used.
    pub fn distinct_pregs_used(&self) -> usize {
        let mut used = vec![false; self.num_regs];
        for (_, r) in self.iter() {
            used[r.index()] = true;
        }
        used.into_iter().filter(|&u| u).count()
    }

    /// Per-physical-register count of virtual registers mapped onto it.
    pub fn occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.num_regs];
        for (_, r) in self.iter() {
            occ[r.index()] += 1;
        }
        occ
    }
}

/// Errors produced by the allocators.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegAllocError {
    /// The register file has too few registers to hold even the spill
    /// temporaries (fewer than 2).
    TooFewRegisters {
        /// Registers available.
        available: usize,
    },
    /// Spill rewriting failed to reach an allocatable program within the
    /// round budget.
    DidNotTerminate {
        /// Rounds attempted.
        rounds: usize,
    },
    /// The function failed verification before allocation.
    InvalidFunction(String),
}

impl fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegAllocError::TooFewRegisters { available } => {
                write!(
                    f,
                    "register file too small: {available} register(s), need at least 2"
                )
            }
            RegAllocError::DidNotTerminate { rounds } => {
                write!(f, "spill rewriting did not converge after {rounds} rounds")
            }
            RegAllocError::InvalidFunction(msg) => {
                write!(f, "function failed pre-allocation verification: {msg}")
            }
        }
    }
}

impl Error for RegAllocError {}

/// Statistics of one allocation run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AllocStats {
    /// Virtual registers spilled to memory.
    pub spilled: usize,
    /// Spill-and-retry rounds used (1 = no spilling needed).
    pub rounds: usize,
    /// Spill loads/stores inserted.
    pub spill_code_insts: usize,
}

/// The full outcome of an allocation: the map plus bookkeeping.
#[derive(Clone, PartialEq, Debug)]
pub struct AllocationResult {
    /// The final assignment (total on all live vregs).
    pub assignment: Assignment,
    /// Run statistics.
    pub stats: AllocStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_query() {
        let mut a = Assignment::new(4, 8);
        a.assign(VReg::new(1), PReg::new(3));
        assert_eq!(a.preg_of(VReg::new(1)), Some(PReg::new(3)));
        assert_eq!(a.preg_of(VReg::new(0)), None);
        assert_eq!(a.num_regs(), 8);
        assert_eq!(a.num_vregs(), 4);
        assert_eq!(a.iter().count(), 1);
    }

    #[test]
    fn occupancy_and_distinct() {
        let mut a = Assignment::new(4, 4);
        a.assign(VReg::new(0), PReg::new(1));
        a.assign(VReg::new(1), PReg::new(1));
        a.assign(VReg::new(2), PReg::new(2));
        assert_eq!(a.distinct_pregs_used(), 2);
        assert_eq!(a.occupancy(), vec![0, 2, 1, 0]);
    }

    #[test]
    fn grow_preserves_existing() {
        let mut a = Assignment::new(2, 4);
        a.assign(VReg::new(0), PReg::new(0));
        a.grow(5);
        assert_eq!(a.num_vregs(), 5);
        assert_eq!(a.preg_of(VReg::new(0)), Some(PReg::new(0)));
        assert_eq!(a.preg_of(VReg::new(4)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_preg_rejected() {
        let mut a = Assignment::new(2, 2);
        a.assign(VReg::new(0), PReg::new(5));
    }

    #[test]
    fn errors_display() {
        let e = RegAllocError::TooFewRegisters { available: 1 };
        assert!(e.to_string().contains("too small"));
        let e = RegAllocError::DidNotTerminate { rounds: 10 };
        assert!(e.to_string().contains("10"));
    }
}
