//! Register access traces — the raw material of feedback-driven thermal
//! evaluation.

use tadfa_ir::PReg;

/// Direction of a register-file access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Register read (operand fetch).
    Read,
    /// Register write (result write-back).
    Write,
}

/// One register-file access at a specific cycle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AccessEvent {
    /// Cycle the access occurs in.
    pub cycle: u64,
    /// The physical register touched.
    pub reg: PReg,
    /// Read or write.
    pub kind: AccessKind,
}

/// A chronological register access trace.
///
/// # Examples
///
/// ```
/// use tadfa_sim::{AccessTrace, AccessEvent, AccessKind};
/// use tadfa_ir::PReg;
///
/// let mut t = AccessTrace::new();
/// t.push(AccessEvent { cycle: 0, reg: PReg::new(1), kind: AccessKind::Read });
/// t.push(AccessEvent { cycle: 3, reg: PReg::new(1), kind: AccessKind::Write });
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.reads_of(PReg::new(1)), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AccessTrace {
    events: Vec<AccessEvent>,
}

impl AccessTrace {
    /// An empty trace.
    pub fn new() -> AccessTrace {
        AccessTrace::default()
    }

    /// Appends an event. Events must be pushed in non-decreasing cycle
    /// order (the interpreter guarantees this).
    pub fn push(&mut self, event: AccessEvent) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.cycle <= event.cycle),
            "trace events out of order"
        );
        self.events.push(event);
    }

    /// All events in chronological order.
    pub fn events(&self) -> &[AccessEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last cycle mentioned, or 0 for an empty trace.
    pub fn last_cycle(&self) -> u64 {
        self.events.last().map_or(0, |e| e.cycle)
    }

    /// Read count of one register.
    pub fn reads_of(&self, reg: PReg) -> u64 {
        self.events
            .iter()
            .filter(|e| e.reg == reg && e.kind == AccessKind::Read)
            .count() as u64
    }

    /// Write count of one register.
    pub fn writes_of(&self, reg: PReg) -> u64 {
        self.events
            .iter()
            .filter(|e| e.reg == reg && e.kind == AccessKind::Write)
            .count() as u64
    }

    /// `(reads, writes)` per register index, sized to cover the largest
    /// register mentioned (or `num_regs` if larger).
    pub fn counts(&self, num_regs: usize) -> (Vec<u64>, Vec<u64>) {
        let max_reg = self
            .events
            .iter()
            .map(|e| e.reg.index() + 1)
            .max()
            .unwrap_or(0)
            .max(num_regs);
        let mut reads = vec![0u64; max_reg];
        let mut writes = vec![0u64; max_reg];
        for e in &self.events {
            match e.kind {
                AccessKind::Read => reads[e.reg.index()] += 1,
                AccessKind::Write => writes[e.reg.index()] += 1,
            }
        }
        (reads, writes)
    }

    /// Iterates over `[start, end)` cycle windows, yielding per-register
    /// `(reads, writes)` for each window — the co-simulator's input.
    pub fn windows(&self, window: u64, num_regs: usize) -> Windows<'_> {
        assert!(window > 0, "window must be positive");
        Windows {
            trace: self,
            window,
            num_regs,
            pos: 0,
            next_start: 0,
        }
    }

    /// The register with the most total accesses, if any.
    pub fn hottest_reg(&self) -> Option<PReg> {
        let (reads, writes) = self.counts(0);
        (0..reads.len())
            .max_by_key(|&i| reads[i] + writes[i])
            .filter(|&i| reads[i] + writes[i] > 0)
            .map(|i| PReg::new(i as u16))
    }
}

/// Iterator over fixed-size cycle windows of a trace, produced by
/// [`AccessTrace::windows`].
#[derive(Debug)]
pub struct Windows<'a> {
    trace: &'a AccessTrace,
    window: u64,
    num_regs: usize,
    pos: usize,
    next_start: u64,
}

/// Per-window access summary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowCounts {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// One past the last cycle of the window.
    pub end: u64,
    /// Reads per register index.
    pub reads: Vec<u64>,
    /// Writes per register index.
    pub writes: Vec<u64>,
}

impl Iterator for Windows<'_> {
    type Item = WindowCounts;

    fn next(&mut self) -> Option<WindowCounts> {
        if self.pos >= self.trace.events.len() {
            return None;
        }
        let start = self.next_start;
        let end = start + self.window;
        let mut reads = vec![0u64; self.num_regs];
        let mut writes = vec![0u64; self.num_regs];
        while self.pos < self.trace.events.len() {
            let e = self.trace.events[self.pos];
            if e.cycle >= end {
                break;
            }
            match e.kind {
                AccessKind::Read => reads[e.reg.index()] += 1,
                AccessKind::Write => writes[e.reg.index()] += 1,
            }
            self.pos += 1;
        }
        self.next_start = end;
        Some(WindowCounts {
            start,
            end,
            reads,
            writes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(cycle: u64, reg: u16, kind: AccessKind) -> AccessEvent {
        AccessEvent {
            cycle,
            reg: PReg::new(reg),
            kind,
        }
    }

    #[test]
    fn counts_per_register() {
        let mut t = AccessTrace::new();
        t.push(mk(0, 0, AccessKind::Read));
        t.push(mk(0, 0, AccessKind::Read));
        t.push(mk(1, 0, AccessKind::Write));
        t.push(mk(2, 3, AccessKind::Write));
        let (r, w) = t.counts(4);
        assert_eq!(r, vec![2, 0, 0, 0]);
        assert_eq!(w, vec![1, 0, 0, 1]);
        assert_eq!(t.reads_of(PReg::new(0)), 2);
        assert_eq!(t.writes_of(PReg::new(3)), 1);
        assert_eq!(t.last_cycle(), 2);
        assert_eq!(t.hottest_reg(), Some(PReg::new(0)));
    }

    #[test]
    fn windows_partition_the_trace() {
        let mut t = AccessTrace::new();
        for c in 0..10 {
            t.push(mk(c, (c % 2) as u16, AccessKind::Read));
        }
        let ws: Vec<WindowCounts> = t.windows(4, 2).collect();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].start, 0);
        assert_eq!(ws[0].end, 4);
        assert_eq!(ws[0].reads.iter().sum::<u64>(), 4);
        assert_eq!(ws[2].reads.iter().sum::<u64>(), 2);
        // Total events preserved.
        let total: u64 = ws.iter().map(|w| w.reads.iter().sum::<u64>()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = AccessTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.last_cycle(), 0);
        assert_eq!(t.hottest_reg(), None);
        assert_eq!(t.windows(10, 4).count(), 0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let t = AccessTrace::new();
        let _ = t.windows(0, 1);
    }
}
