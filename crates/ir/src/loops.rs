//! Natural-loop detection.
//!
//! Loop nesting depth weights the access frequencies used by the thermal
//! analysis' predictive mode: an access inside a doubly nested loop heats
//! its register far more than a straight-line access.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::entities::BlockId;
use crate::function::Function;
use std::collections::BTreeSet;

/// A single natural loop: all blocks that can reach a back edge's source
/// without passing through the header.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NaturalLoop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Every block in the loop, including the header.
    pub body: BTreeSet<BlockId>,
    /// Sources of the back edges into `header`.
    pub latches: Vec<BlockId>,
}

impl NaturalLoop {
    /// Whether `bb` belongs to this loop.
    pub fn contains(&self, bb: BlockId) -> bool {
        self.body.contains(&bb)
    }

    /// Number of blocks in the loop.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the loop body is empty (never true for a valid loop).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

/// All natural loops of a function plus per-block nesting depth.
///
/// # Examples
///
/// ```
/// use tadfa_ir::{FunctionBuilder, Cfg, DomTree, LoopInfo};
///
/// let mut b = FunctionBuilder::new("w");
/// let c = b.param();
/// let h = b.new_block();
/// let body = b.new_block();
/// let exit = b.new_block();
/// b.jump(h);
/// b.switch_to(h); b.branch(c, body, exit);
/// b.switch_to(body); b.jump(h);
/// b.switch_to(exit); b.ret(None);
/// let f = b.finish();
///
/// let cfg = Cfg::compute(&f);
/// let dom = DomTree::compute(&f, &cfg);
/// let li = LoopInfo::compute(&f, &cfg, &dom);
/// assert_eq!(li.loops().len(), 1);
/// assert_eq!(li.depth(body), 1);
/// assert_eq!(li.depth(exit), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopInfo {
    loops: Vec<NaturalLoop>,
    depth: Vec<u32>,
}

impl LoopInfo {
    /// Detects natural loops: for every CFG edge `n -> h` where `h`
    /// dominates `n`, collect the natural loop of that back edge. Loops
    /// sharing a header are merged.
    pub fn compute(func: &Function, cfg: &Cfg, dom: &DomTree) -> LoopInfo {
        let mut loops: Vec<NaturalLoop> = Vec::new();

        for &n in cfg.rpo() {
            for &h in cfg.succs(n) {
                if dom.dominates(h, n) {
                    // Back edge n -> h.
                    let body = Self::natural_loop_body(cfg, h, n);
                    if let Some(l) = loops.iter_mut().find(|l| l.header == h) {
                        l.body.extend(body);
                        l.latches.push(n);
                    } else {
                        loops.push(NaturalLoop {
                            header: h,
                            body,
                            latches: vec![n],
                        });
                    }
                }
            }
        }

        // Sort loops outermost-first (by body size, descending) for a
        // stable, intuitive ordering.
        loops.sort_by(|a, b| {
            b.body
                .len()
                .cmp(&a.body.len())
                .then(a.header.cmp(&b.header))
        });

        let mut depth = vec![0u32; func.num_blocks()];
        for l in &loops {
            for bb in &l.body {
                depth[bb.index()] += 1;
            }
        }

        LoopInfo { loops, depth }
    }

    fn natural_loop_body(cfg: &Cfg, header: BlockId, latch: BlockId) -> BTreeSet<BlockId> {
        let mut body: BTreeSet<BlockId> = BTreeSet::new();
        body.insert(header);
        let mut stack = vec![latch];
        while let Some(bb) = stack.pop() {
            if body.insert(bb) {
                for &p in cfg.preds(bb) {
                    stack.push(p);
                }
            }
        }
        body
    }

    /// Detected loops, outermost (largest) first.
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Loop nesting depth of `bb` (0 = not in any loop).
    pub fn depth(&self, bb: BlockId) -> u32 {
        self.depth[bb.index()]
    }

    /// Estimated execution frequency weight of a block: `base^depth`.
    ///
    /// This is the classic static frequency heuristic (each loop is
    /// presumed to run `base` times); the thermal analysis uses it to
    /// scale access power before any profile exists.
    pub fn frequency_weight(&self, bb: BlockId, base: f64) -> f64 {
        base.powi(self.depth(bb) as i32)
    }

    /// The innermost loop containing `bb`, if any.
    pub fn innermost_containing(&self, bb: BlockId) -> Option<&NaturalLoop> {
        self.loops
            .iter()
            .filter(|l| l.contains(bb))
            .min_by_key(|l| l.body.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    /// Two nested while loops.
    fn nested() -> (
        crate::function::Function,
        BlockId,
        BlockId,
        BlockId,
        BlockId,
    ) {
        let mut b = FunctionBuilder::new("n");
        let c = b.param();
        let oh = b.new_block(); // outer header
        let ih = b.new_block(); // inner header
        let ib = b.new_block(); // inner body
        let ol = b.new_block(); // outer latch
        let exit = b.new_block();
        b.jump(oh);
        b.switch_to(oh);
        b.branch(c, ih, exit);
        b.switch_to(ih);
        b.branch(c, ib, ol);
        b.switch_to(ib);
        b.jump(ih);
        b.switch_to(ol);
        b.jump(oh);
        b.switch_to(exit);
        b.ret(None);
        (b.finish(), oh, ih, ib, exit)
    }

    fn analyse(f: &crate::function::Function) -> (crate::cfg::Cfg, crate::dom::DomTree) {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        (cfg, dom)
    }

    #[test]
    fn nested_loops_found_with_correct_depths() {
        let (f, oh, ih, ib, exit) = nested();
        let (cfg, dom) = analyse(&f);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        assert_eq!(li.loops().len(), 2);
        assert_eq!(li.depth(oh), 1);
        assert_eq!(li.depth(ih), 2);
        assert_eq!(li.depth(ib), 2);
        assert_eq!(li.depth(exit), 0);
        // Outermost loop listed first.
        assert_eq!(li.loops()[0].header, oh);
        assert!(li.loops()[0].len() > li.loops()[1].len());
    }

    #[test]
    fn innermost_containing_picks_smallest() {
        let (f, _, ih, ib, _) = nested();
        let (cfg, dom) = analyse(&f);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        let inner = li.innermost_containing(ib).unwrap();
        assert_eq!(inner.header, ih);
        assert!(li.innermost_containing(f.entry()).is_none());
    }

    #[test]
    fn frequency_weight_grows_exponentially() {
        let (f, oh, ih, _, exit) = nested();
        let (cfg, dom) = analyse(&f);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        assert_eq!(li.frequency_weight(exit, 10.0), 1.0);
        assert_eq!(li.frequency_weight(oh, 10.0), 10.0);
        assert_eq!(li.frequency_weight(ih, 10.0), 100.0);
    }

    #[test]
    fn straightline_has_no_loops() {
        let mut b = FunctionBuilder::new("s");
        let x = b.param();
        let y = b.add(x, x);
        b.ret(Some(y));
        let f = b.finish();
        let (cfg, dom) = analyse(&f);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        assert!(li.loops().is_empty());
        assert_eq!(li.depth(f.entry()), 0);
    }

    #[test]
    fn self_loop_detected() {
        let mut b = FunctionBuilder::new("sl");
        let c = b.param();
        let entry = b.current_block();
        let exit = b.new_block();
        b.branch(c, entry, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let (cfg, dom) = analyse(&f);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        assert_eq!(li.loops().len(), 1);
        assert_eq!(li.loops()[0].header, entry);
        assert_eq!(li.loops()[0].latches, vec![entry]);
        assert_eq!(li.depth(entry), 1);
    }

    #[test]
    fn two_latches_merge_into_one_loop() {
        // h -> a, b; a -> h; b -> h (continue-style double latch)
        let mut bld = FunctionBuilder::new("dl");
        let c = bld.param();
        let h = bld.new_block();
        let a = bld.new_block();
        let b2 = bld.new_block();
        let exit = bld.new_block();
        bld.jump(h);
        bld.switch_to(h);
        bld.branch(c, a, b2);
        bld.switch_to(a);
        bld.branch(c, h, exit);
        bld.switch_to(b2);
        bld.jump(h);
        bld.switch_to(exit);
        bld.ret(None);
        let f = bld.finish();
        let (cfg, dom) = analyse(&f);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        assert_eq!(li.loops().len(), 1);
        assert_eq!(li.loops()[0].latches.len(), 2);
        assert_eq!(li.depth(h), 1);
    }
}
