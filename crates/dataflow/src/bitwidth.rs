//! Bitwidth (value-range) analysis, after Stephenson et al., PLDI 2000.
//!
//! The paper (§3) uses bitwidth analysis as its complexity yardstick: "a
//! single bit per variable" (liveness) < "an interval per variable"
//! (bitwidth) < "a floorplan-aware thermal state" (the thermal DFA). We
//! implement the middle rung faithfully: a forward interval analysis with
//! widening, from which the number of significant bits per variable falls
//! out.

use tadfa_ir::{BlockId, Cfg, Function, Opcode, VReg};

/// A signed 64-bit value interval `[lo, hi]`, with `Interval::BOTTOM`
/// denoting "no value yet" (unreached code).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The empty interval (unreached definition).
    pub const BOTTOM: Interval = Interval {
        lo: i64::MAX,
        hi: i64::MIN,
    };
    /// The full 64-bit range.
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// A single-value interval.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// An interval from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (use [`Interval::BOTTOM`] for emptiness).
    pub fn new(lo: i64, hi: i64) -> Interval {
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Whether this is the empty interval.
    pub fn is_bottom(self) -> bool {
        self.lo > self.hi
    }

    /// Whether this is the full range.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// Least upper bound (union hull).
    pub fn join(self, other: Interval) -> Interval {
        if self.is_bottom() {
            return other;
        }
        if other.is_bottom() {
            return self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widening: bounds still moving after the iteration budget jump to
    /// the 64-bit extremes.
    pub fn widen(self, previous: Interval) -> Interval {
        if previous.is_bottom() {
            return self;
        }
        if self.is_bottom() {
            return previous;
        }
        Interval {
            lo: if self.lo < previous.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if self.hi > previous.hi {
                i64::MAX
            } else {
                self.hi
            },
        }
    }

    /// Number of bits needed to represent every value in the interval in
    /// two's complement (including the sign bit for negative ranges).
    ///
    /// `BOTTOM` needs 0 bits; a `[0, 0]` interval needs 1.
    pub fn bits(self) -> u32 {
        if self.is_bottom() {
            return 0;
        }
        fn bits_for(v: i64) -> u32 {
            if v >= 0 {
                // Unsigned magnitude + we reserve no sign bit for
                // non-negative-only intervals handled below.
                64 - (v as u64).leading_zeros()
            } else {
                // Two's complement: need enough bits that MIN <= v.
                65 - (!(v as u64)).leading_zeros()
            }
        }
        if self.lo >= 0 {
            bits_for(self.hi).max(1)
        } else {
            // Signed: one sign bit plus magnitude bits of both ends.
            (bits_for(self.lo).max(bits_for(self.hi).saturating_add(1))).max(1)
        }
    }

    /// Corner evaluation with saturating arithmetic. Like most practical
    /// range analyses we assume computations do not wrap; a corner that
    /// would overflow saturates to the 64-bit extreme, which keeps the
    /// other bound tight (e.g. a loop counter keeps `lo = 0` even after
    /// its upper bound widens to `i64::MAX`).
    fn sat_binop(self, other: Interval, f: impl Fn(i64, i64) -> i64) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        let corners = [
            f(self.lo, other.lo),
            f(self.lo, other.hi),
            f(self.hi, other.lo),
            f(self.hi, other.hi),
        ];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for v in corners {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval { lo, hi }
    }
}

fn transfer_op(op: Opcode, imm: Option<i64>, srcs: &[Interval]) -> Interval {
    match op {
        Opcode::Const => Interval::point(imm.unwrap_or(0)),
        Opcode::Mov => srcs[0],
        Opcode::Add => srcs[0].sat_binop(srcs[1], i64::saturating_add),
        Opcode::Sub => srcs[0].sat_binop(srcs[1], i64::saturating_sub),
        Opcode::Mul => srcs[0].sat_binop(srcs[1], i64::saturating_mul),
        Opcode::Div | Opcode::Rem => {
            // Conservative: division by an interval containing 0 yields 0
            // in our semantics, so the result always fits the dividend's
            // magnitude for Div; keep TOP for simplicity except the
            // common non-negative case.
            let a = srcs[0];
            let b = srcs[1];
            if a.is_bottom() || b.is_bottom() {
                Interval::BOTTOM
            } else if a.lo >= 0 && b.lo >= 0 {
                if op == Opcode::Div {
                    Interval::new(0, a.hi)
                } else {
                    // rem result in [0, max(divisor-1, 0)]; divisor 0 -> 0.
                    Interval::new(0, b.hi.saturating_sub(1).max(0))
                }
            } else {
                Interval::TOP
            }
        }
        Opcode::And => {
            let (a, b) = (srcs[0], srcs[1]);
            if a.is_bottom() || b.is_bottom() {
                Interval::BOTTOM
            } else if a.lo >= 0 && b.lo >= 0 {
                Interval::new(0, a.hi.min(b.hi))
            } else if a.lo >= 0 {
                Interval::new(0, a.hi)
            } else if b.lo >= 0 {
                Interval::new(0, b.hi)
            } else {
                Interval::TOP
            }
        }
        Opcode::Or | Opcode::Xor => {
            let (a, b) = (srcs[0], srcs[1]);
            if a.is_bottom() || b.is_bottom() {
                Interval::BOTTOM
            } else if a.lo >= 0 && b.lo >= 0 {
                // Bounded by the next all-ones mask above both maxima.
                let m = mask_above(a.hi as u64 | b.hi as u64);
                Interval::new(0, m as i64)
            } else {
                Interval::TOP
            }
        }
        Opcode::Shl => {
            let (a, b) = (srcs[0], srcs[1]);
            if a.is_bottom() || b.is_bottom() {
                Interval::BOTTOM
            } else if a.lo >= 0 && b.lo >= 0 && b.hi < 63 {
                match a.hi.checked_shl(b.hi as u32) {
                    Some(hi) if hi >= 0 => Interval::new(0, hi),
                    _ => Interval::TOP,
                }
            } else {
                Interval::TOP
            }
        }
        Opcode::Shr => {
            let (a, b) = (srcs[0], srcs[1]);
            if a.is_bottom() || b.is_bottom() {
                Interval::BOTTOM
            } else if a.lo >= 0 && b.lo >= 0 {
                Interval::new(0, a.hi >> b.lo.min(63))
            } else {
                Interval::TOP
            }
        }
        Opcode::Neg => {
            let a = srcs[0];
            if a.is_bottom() {
                Interval::BOTTOM
            } else {
                a.sat_binop(Interval::point(0), |x, _| x.saturating_neg())
            }
        }
        Opcode::Not => {
            let a = srcs[0];
            if a.is_bottom() {
                Interval::BOTTOM
            } else {
                // !x = -x - 1, monotone decreasing.
                Interval::new(!a.hi, !a.lo)
            }
        }
        Opcode::CmpEq
        | Opcode::CmpNe
        | Opcode::CmpLt
        | Opcode::CmpLe
        | Opcode::CmpGt
        | Opcode::CmpGe => Interval::new(0, 1),
        Opcode::Select => srcs[1].join(srcs[2]),
        Opcode::Load => Interval::TOP,
        Opcode::Call => Interval::TOP, // callee result unknown intraprocedurally
        Opcode::Store | Opcode::Nop => Interval::BOTTOM, // no value produced
    }
}

fn mask_above(v: u64) -> u64 {
    if v == 0 {
        0
    } else {
        u64::MAX >> v.leading_zeros()
    }
}

/// Number of solver passes after which still-moving bounds are widened.
const WIDEN_AFTER: usize = 3;

/// Result of bitwidth analysis: a value interval per virtual register at
/// each block entry, plus a per-function summary.
///
/// # Examples
///
/// ```
/// use tadfa_ir::{FunctionBuilder, Cfg};
/// use tadfa_dataflow::Bitwidth;
///
/// let mut b = FunctionBuilder::new("f");
/// let k = b.iconst(200);
/// let s = b.add(k, k);
/// b.ret(Some(s));
/// let f = b.finish();
/// let cfg = Cfg::compute(&f);
/// let bw = Bitwidth::compute(&f, &cfg);
/// assert_eq!(bw.summary(s).bits(), 9); // 400 needs 9 bits
/// ```
#[derive(Clone, Debug)]
pub struct Bitwidth {
    entry_facts: Vec<Vec<Interval>>,
    summary: Vec<Interval>,
    /// Solver passes used (diagnostic).
    pub passes: usize,
}

impl Bitwidth {
    /// Runs the forward interval fixpoint with widening.
    ///
    /// Function parameters start at `TOP` (unknown caller values); every
    /// other register starts at `BOTTOM`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Bitwidth {
        let nv = func.num_vregs();
        let bottom_env = vec![Interval::BOTTOM; nv];
        let mut entry_env: Vec<Vec<Interval>> = vec![bottom_env.clone(); func.num_blocks()];
        let mut exit_env: Vec<Vec<Interval>> = vec![bottom_env.clone(); func.num_blocks()];

        let mut boundary = bottom_env.clone();
        for &p in func.params() {
            boundary[p.index()] = Interval::TOP;
        }

        let mut passes = 0;
        let mut changed = true;
        while changed {
            changed = false;
            passes += 1;
            for &bb in cfg.rpo() {
                let mut env = if bb == func.entry() {
                    boundary.clone()
                } else {
                    let mut acc = bottom_env.clone();
                    for &p in cfg.preds(bb) {
                        for (a, e) in acc.iter_mut().zip(&exit_env[p.index()]) {
                            *a = a.join(*e);
                        }
                    }
                    acc
                };
                if passes > WIDEN_AFTER {
                    for (new, old) in env.iter_mut().zip(&entry_env[bb.index()]) {
                        *new = new.widen(*old);
                    }
                }
                if env != entry_env[bb.index()] {
                    entry_env[bb.index()] = env.clone();
                    changed = true;
                }
                for &id in func.block(bb).insts() {
                    let inst = func.inst(id);
                    let srcs: Vec<Interval> = inst.uses().iter().map(|u| env[u.index()]).collect();
                    if let Some(d) = inst.def() {
                        env[d.index()] = transfer_op(inst.op, inst.imm, &srcs);
                    }
                }
                if env != exit_env[bb.index()] {
                    exit_env[bb.index()] = env;
                    changed = true;
                }
            }
            assert!(
                passes < 1000,
                "bitwidth analysis failed to stabilise — widening is broken"
            );
        }

        // Summary: union over every block exit (covers all definitions).
        let mut summary = boundary;
        for env in &exit_env {
            for (s, e) in summary.iter_mut().zip(env) {
                *s = s.join(*e);
            }
        }

        Bitwidth {
            entry_facts: entry_env,
            summary,
            passes,
        }
    }

    /// Interval of `v` on entry to `bb`.
    pub fn at_block_entry(&self, bb: BlockId, v: VReg) -> Interval {
        self.entry_facts[bb.index()][v.index()]
    }

    /// Function-wide interval of `v` (union over all program points).
    pub fn summary(&self, v: VReg) -> Interval {
        self.summary[v.index()]
    }

    /// Significant bits of `v` across the whole function.
    pub fn bits(&self, v: VReg) -> u32 {
        self.summary[v.index()].bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::FunctionBuilder;

    #[test]
    fn interval_algebra() {
        let a = Interval::new(1, 5);
        let b = Interval::new(3, 9);
        assert_eq!(a.join(b), Interval::new(1, 9));
        assert_eq!(a.join(Interval::BOTTOM), a);
        assert_eq!(Interval::BOTTOM.join(b), b);
        assert!(Interval::BOTTOM.is_bottom());
        assert!(Interval::TOP.is_top());
    }

    #[test]
    fn widen_freezes_stable_bounds() {
        let prev = Interval::new(0, 10);
        let grown = Interval::new(0, 12);
        let w = grown.widen(prev);
        assert_eq!(w.lo, 0, "stable bound kept");
        assert_eq!(w.hi, i64::MAX, "moving bound widened");
    }

    #[test]
    fn bits_computation() {
        assert_eq!(Interval::point(0).bits(), 1);
        assert_eq!(Interval::point(1).bits(), 1);
        assert_eq!(Interval::point(255).bits(), 8);
        assert_eq!(Interval::point(256).bits(), 9);
        assert_eq!(Interval::new(-1, 0).bits(), 1); // two's complement -1 fits in 1 bit? sign-only
        assert_eq!(Interval::new(-128, 127).bits(), 8);
        assert_eq!(Interval::BOTTOM.bits(), 0);
        assert_eq!(Interval::TOP.bits(), 64);
    }

    #[test]
    fn constants_and_arithmetic_propagate() {
        let mut b = FunctionBuilder::new("c");
        let k1 = b.iconst(100);
        let k2 = b.iconst(27);
        let s = b.add(k1, k2);
        let p = b.mul(s, k2);
        b.ret(Some(p));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let bw = Bitwidth::compute(&f, &cfg);
        assert_eq!(bw.summary(s), Interval::point(127));
        assert_eq!(bw.summary(p), Interval::point(127 * 27));
        assert_eq!(bw.bits(s), 7);
    }

    #[test]
    fn comparisons_are_single_bit() {
        let mut b = FunctionBuilder::new("cmp");
        let x = b.param();
        let y = b.param();
        let c = b.cmplt(x, y);
        b.ret(Some(c));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let bw = Bitwidth::compute(&f, &cfg);
        assert_eq!(bw.summary(c), Interval::new(0, 1));
        assert_eq!(bw.bits(c), 1);
    }

    #[test]
    fn params_are_unknown() {
        let mut b = FunctionBuilder::new("p");
        let x = b.param();
        b.ret(Some(x));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let bw = Bitwidth::compute(&f, &cfg);
        assert!(bw.summary(x).is_top());
    }

    #[test]
    fn loop_counter_widens_not_diverges() {
        // i grows each iteration: widening must terminate the analysis.
        let mut b = FunctionBuilder::new("l");
        let n = b.param();
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        let d = b.cmpge(i, n);
        b.branch(d, exit, body);
        b.switch_to(body);
        let one = b.iconst(1);
        let i2 = b.add(i, one);
        b.mov_into(i, i2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(i));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let bw = Bitwidth::compute(&f, &cfg);
        // Lower bound stays 0 (never decreases); upper bound widened.
        let iv = bw.summary(i);
        assert_eq!(iv.lo, 0);
        assert_eq!(iv.hi, i64::MAX);
        assert!(bw.passes < 1000);
    }

    #[test]
    fn select_joins_arms_and_masking_bounds() {
        let mut b = FunctionBuilder::new("s");
        let c = b.param();
        let x = b.param();
        let k255 = b.iconst(255);
        let masked = b.and(x, k255);
        let k10 = b.iconst(10);
        let sel = b.select(c, masked, k10);
        b.ret(Some(sel));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let bw = Bitwidth::compute(&f, &cfg);
        assert_eq!(bw.summary(masked), Interval::new(0, 255));
        assert_eq!(bw.summary(sel), Interval::new(0, 255));
        assert_eq!(bw.bits(sel), 8);
    }

    #[test]
    fn shifts_bound_when_safe() {
        let mut b = FunctionBuilder::new("sh");
        let k3 = b.iconst(3);
        let k5 = b.iconst(5);
        let l = b.shl(k5, k3);
        let r = b.shr(l, k3);
        b.ret(Some(r));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let bw = Bitwidth::compute(&f, &cfg);
        assert_eq!(bw.summary(l), Interval::new(0, 40));
        assert_eq!(bw.summary(r), Interval::new(0, 5));
    }
}
