//! Live intervals over a linearised instruction order, for linear-scan
//! register allocation.

use crate::liveness::Liveness;
use tadfa_ir::{BlockId, Cfg, Function, InstId, VReg};

/// Half-open live range `[start, end)` of one virtual register over the
/// linearised program-point numbering.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LiveInterval {
    /// The register this interval belongs to.
    pub vreg: VReg,
    /// First program point where the register is live.
    pub start: u32,
    /// One past the last program point where the register is live.
    pub end: u32,
}

impl LiveInterval {
    /// Whether two intervals overlap (share at least one point).
    pub fn overlaps(&self, other: &LiveInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Length of the interval in program points.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the interval is degenerate.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Live intervals for every virtual register plus the linearisation they
/// are expressed in.
///
/// Program points: walking blocks in layout order, each instruction gets
/// one point and each terminator one more. `point_of(inst)` maps back.
/// Cross-block liveness extends intervals to block boundaries, so the
/// result is a safe over-approximation (a single hull interval per
/// register, as in classic linear scan).
///
/// # Examples
///
/// ```
/// use tadfa_ir::{FunctionBuilder, Cfg};
/// use tadfa_dataflow::{Liveness, LiveIntervals};
///
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.add(x, x);
/// let z = b.add(y, y);
/// b.ret(Some(z));
/// let f = b.finish();
/// let cfg = Cfg::compute(&f);
/// let live = Liveness::compute(&f, &cfg);
/// let li = LiveIntervals::compute(&f, &cfg, &live);
/// let ix = li.interval(x).unwrap();
/// let iz = li.interval(z).unwrap();
/// assert!(ix.start < iz.start);
/// ```
#[derive(Clone, Debug)]
pub struct LiveIntervals {
    intervals: Vec<Option<LiveInterval>>,
    point_of_inst: Vec<u32>,
    block_range: Vec<(u32, u32)>,
    num_points: u32,
}

impl LiveIntervals {
    /// Builds intervals from per-block liveness.
    pub fn compute(func: &Function, _cfg: &Cfg, live: &Liveness) -> LiveIntervals {
        let nv = func.num_vregs();
        let mut point_of_inst = vec![u32::MAX; func.arena_len()];
        let mut block_range = vec![(0u32, 0u32); func.num_blocks()];

        // Assign program points in layout order.
        let mut p: u32 = 0;
        for bb in func.block_ids() {
            let start = p;
            for &id in func.block(bb).insts() {
                point_of_inst[id.index()] = p;
                p += 1;
            }
            // Terminator point.
            let term_point = p;
            p += 1;
            block_range[bb.index()] = (start, term_point);
        }
        let num_points = p;

        let mut intervals: Vec<Option<LiveInterval>> = vec![None; nv];
        let mut extend = |v: VReg, from: u32, to: u32| {
            let e = intervals[v.index()].get_or_insert(LiveInterval {
                vreg: v,
                start: from,
                end: to,
            });
            e.start = e.start.min(from);
            e.end = e.end.max(to);
        };

        // Params are live from point 0.
        for &v in func.params() {
            extend(v, 0, 1);
        }

        for bb in func.block_ids() {
            let (bstart, bterm) = block_range[bb.index()];
            // Live-in registers reach back to the block start.
            for vi in live.live_in(bb).iter() {
                extend(VReg::new(vi as u32), bstart, bstart + 1);
            }
            // Live-out registers reach past the terminator.
            for vi in live.live_out(bb).iter() {
                extend(VReg::new(vi as u32), bstart, bterm + 1);
            }
            for &id in func.block(bb).insts() {
                let pt = point_of_inst[id.index()];
                let inst = func.inst(id);
                if let Some(d) = inst.def() {
                    extend(d, pt, pt + 1);
                }
                for &u in inst.uses() {
                    extend(u, pt.saturating_sub(0), pt + 1);
                    // A use must be covered from its reaching def; the
                    // hull the caller gets already includes the def point
                    // because defs extend their own point.
                }
            }
            if let Some(t) = func.terminator(bb) {
                for u in t.uses() {
                    extend(u, bterm, bterm + 1);
                }
            }
        }

        // Second pass: connect each use back to the earliest def so holes
        // inside a block do not split the hull (hull semantics: one
        // interval covering everything).
        for iv in intervals.iter_mut().flatten() {
            debug_assert!(iv.start < iv.end);
        }

        LiveIntervals {
            intervals,
            point_of_inst,
            block_range,
            num_points,
        }
    }

    /// The interval of `v`, or `None` if `v` is never live (e.g. dead
    /// code that is also unused, or an unreferenced register number).
    pub fn interval(&self, v: VReg) -> Option<&LiveInterval> {
        self.intervals.get(v.index()).and_then(Option::as_ref)
    }

    /// All intervals sorted by increasing start point.
    pub fn sorted_by_start(&self) -> Vec<LiveInterval> {
        let mut out: Vec<LiveInterval> = self.intervals.iter().flatten().copied().collect();
        out.sort_by_key(|iv| (iv.start, iv.end, iv.vreg));
        out
    }

    /// Program point of an instruction, if it is attached to a block.
    pub fn point_of(&self, inst: InstId) -> Option<u32> {
        let p = *self.point_of_inst.get(inst.index())?;
        (p != u32::MAX).then_some(p)
    }

    /// `[start, terminator]` points of a block.
    pub fn block_range(&self, bb: BlockId) -> (u32, u32) {
        self.block_range[bb.index()]
    }

    /// Total number of program points.
    pub fn num_points(&self) -> u32 {
        self.num_points
    }

    /// Maximum number of overlapping intervals at any point — equals the
    /// linear-scan view of register pressure.
    pub fn max_overlap(&self) -> usize {
        let mut events: Vec<(u32, i32)> = Vec::new();
        for iv in self.intervals.iter().flatten() {
            events.push((iv.start, 1));
            events.push((iv.end, -1));
        }
        events.sort();
        let mut cur = 0i32;
        let mut max = 0i32;
        for (_, d) in events {
            cur += d;
            max = max.max(cur);
        }
        max as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tadfa_ir::FunctionBuilder;

    fn build_chain() -> (Function, Vec<VReg>) {
        let mut b = FunctionBuilder::new("c");
        let x = b.param();
        let y = b.add(x, x);
        let z = b.add(y, y);
        let w = b.add(z, x); // x stays live across y and z
        b.ret(Some(w));
        (b.finish(), vec![x, y, z, w])
    }

    fn intervals_for(f: &Function) -> LiveIntervals {
        let cfg = Cfg::compute(f);
        let live = Liveness::compute(f, &cfg);
        LiveIntervals::compute(f, &cfg, &live)
    }

    #[test]
    fn chain_intervals_are_ordered_and_overlapping_correctly() {
        let (f, vs) = build_chain();
        let li = intervals_for(&f);
        let (x, y, z, w) = (vs[0], vs[1], vs[2], vs[3]);
        let ix = *li.interval(x).unwrap();
        let iy = *li.interval(y).unwrap();
        let iz = *li.interval(z).unwrap();
        let iw = *li.interval(w).unwrap();
        // x lives until the last add: overlaps y and z.
        assert!(ix.overlaps(&iy));
        assert!(ix.overlaps(&iz));
        // y dies at z's def point+1; y and w should not overlap.
        assert!(!iy.overlaps(&iw));
        assert!(ix.len() > iy.len());
    }

    #[test]
    fn interval_overlap_is_symmetric_and_irreflexive_on_disjoint() {
        let a = LiveInterval {
            vreg: VReg::new(0),
            start: 0,
            end: 5,
        };
        let b = LiveInterval {
            vreg: VReg::new(1),
            start: 5,
            end: 9,
        };
        let c = LiveInterval {
            vreg: VReg::new(2),
            start: 4,
            end: 6,
        };
        assert!(!a.overlaps(&b), "half-open: touching is not overlapping");
        assert!(!b.overlaps(&a));
        assert!(a.overlaps(&c) && c.overlaps(&a));
        assert!(b.overlaps(&c) && c.overlaps(&b));
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn loop_variable_spans_the_whole_loop() {
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
        let li = intervals_for(&f);
        let ii = li.interval(i).unwrap();
        // i must cover from its def in entry through the exit block.
        let (_, exit_term) = li.block_range(exit);
        assert!(
            ii.end >= exit_term,
            "loop-carried var spans to the final use"
        );
        // And overlap everything defined inside the loop.
        let i2v = li.interval(i2).unwrap();
        assert!(ii.overlaps(i2v));
    }

    #[test]
    fn sorted_by_start_is_sorted_and_complete() {
        let (f, _) = build_chain();
        let li = intervals_for(&f);
        let sorted = li.sorted_by_start();
        assert!(sorted.windows(2).all(|w| w[0].start <= w[1].start));
        // x, y, z, w all have intervals.
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn max_overlap_matches_pressure() {
        let (f, _) = build_chain();
        let cfg = Cfg::compute(&f);
        let live = Liveness::compute(&f, &cfg);
        let li = LiveIntervals::compute(&f, &cfg, &live);
        // Hull-based overlap is an over-approximation of exact pressure.
        assert!(li.max_overlap() >= live.max_pressure(&f));
    }

    #[test]
    fn points_are_dense_and_strictly_increasing() {
        let (f, _) = build_chain();
        let li = intervals_for(&f);
        let mut prev = None;
        for (_, id) in f.inst_ids_in_layout_order() {
            let p = li.point_of(id).unwrap();
            if let Some(q) = prev {
                assert!(p > q);
            }
            prev = Some(p);
        }
        assert_eq!(
            li.num_points(),
            f.num_insts() as u32 + f.num_blocks() as u32
        );
    }
}
