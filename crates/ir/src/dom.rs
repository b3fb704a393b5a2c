//! Dominator tree (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg::Cfg;
use crate::entities::BlockId;
use crate::function::Function;

/// Immediate-dominator table over the reachable blocks of a function.
///
/// Unreachable blocks have no dominator information;
/// [`DomTree::idom`] returns `None` for them and for the entry block.
///
/// # Examples
///
/// ```
/// use tadfa_ir::{FunctionBuilder, Cfg, DomTree};
///
/// let mut b = FunctionBuilder::new("d");
/// let c = b.param();
/// let t = b.new_block();
/// let e = b.new_block();
/// let j = b.new_block();
/// b.branch(c, t, e);
/// b.switch_to(t); b.jump(j);
/// b.switch_to(e); b.jump(j);
/// b.switch_to(j); b.ret(None);
/// let f = b.finish();
/// let cfg = Cfg::compute(&f);
/// let dom = DomTree::compute(&f, &cfg);
/// assert_eq!(dom.idom(j), Some(f.entry()));
/// assert!(dom.dominates(f.entry(), j));
/// assert!(!dom.dominates(t, j));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for entry and unreachable).
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl DomTree {
    /// Computes immediate dominators with the CHK iterative algorithm,
    /// walking blocks in reverse post-order until a fixed point.
    pub fn compute(func: &Function, cfg: &Cfg) -> DomTree {
        let n = func.num_blocks();
        let entry = func.entry();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if n == 0 {
            return DomTree { idom, entry };
        }
        idom[entry.index()] = Some(entry); // sentinel: entry dominated by itself

        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.rpo() {
                if bb == entry {
                    continue;
                }
                // First processed predecessor.
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(bb) {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, cfg, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[bb.index()] != Some(ni) {
                        idom[bb.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Clear the sentinel so the public API reports entry as having no
        // immediate dominator.
        idom[entry.index()] = None;
        DomTree { idom, entry }
    }

    fn intersect(idom: &[Option<BlockId>], cfg: &Cfg, a: BlockId, b: BlockId) -> BlockId {
        let mut fa = a;
        let mut fb = b;
        // Walk up by RPO index; smaller index = closer to entry.
        while fa != fb {
            while cfg.rpo_index(fa).unwrap_or(usize::MAX) > cfg.rpo_index(fb).unwrap_or(usize::MAX)
            {
                fa = idom[fa.index()].expect("dominator walk fell off the tree");
            }
            while cfg.rpo_index(fb).unwrap_or(usize::MAX) > cfg.rpo_index(fa).unwrap_or(usize::MAX)
            {
                fb = idom[fb.index()].expect("dominator walk fell off the tree");
            }
        }
        fa
    }

    /// The immediate dominator of `bb`, or `None` for the entry block and
    /// unreachable blocks.
    pub fn idom(&self, bb: BlockId) -> Option<BlockId> {
        if bb == self.entry {
            None
        } else {
            self.idom[bb.index()]
        }
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates
    /// itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(next) => cur = next,
                None => return cur == a,
            }
        }
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The entry block this tree was computed from.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Dominance depth of `bb` (entry = 0), or `None` if unreachable.
    pub fn depth(&self, bb: BlockId) -> Option<usize> {
        if bb != self.entry && self.idom[bb.index()].is_none() {
            return None;
        }
        let mut d = 0;
        let mut cur = bb;
        while let Some(p) = self.idom(cur) {
            d += 1;
            cur = p;
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    /// entry -> h; h -> body, exit; body -> h   (while loop)
    fn while_loop() -> (crate::function::Function, BlockId, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("w");
        let c = b.param();
        let h = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(h);
        b.switch_to(h);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        (b.finish(), h, body, exit)
    }

    #[test]
    fn loop_dominators() {
        let (f, h, body, exit) = while_loop();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        assert_eq!(dom.idom(h), Some(f.entry()));
        assert_eq!(dom.idom(body), Some(h));
        assert_eq!(dom.idom(exit), Some(h));
        assert!(dom.dominates(h, body));
        assert!(dom.dominates(h, exit));
        assert!(!dom.dominates(body, exit));
        assert!(dom.strictly_dominates(f.entry(), exit));
        assert!(!dom.strictly_dominates(h, h));
    }

    #[test]
    fn entry_has_no_idom_and_depth_zero() {
        let (f, ..) = while_loop();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        assert_eq!(dom.idom(f.entry()), None);
        assert_eq!(dom.depth(f.entry()), Some(0));
    }

    #[test]
    fn depths_increase_down_the_tree() {
        let (f, h, body, _) = while_loop();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        assert_eq!(dom.depth(h), Some(1));
        assert_eq!(dom.depth(body), Some(2));
    }

    #[test]
    fn unreachable_block_has_no_info() {
        let mut b = FunctionBuilder::new("u");
        b.ret(None);
        let dead = b.new_block();
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        assert_eq!(dom.idom(dead), None);
        assert_eq!(dom.depth(dead), None);
    }

    #[test]
    fn irreducible_like_merge_still_terminates() {
        // entry branches to a and b; a -> b; b -> a and exit. Not a natural
        // loop nest, but CHK still converges to a valid dominator tree.
        let mut bld = FunctionBuilder::new("irr");
        let c = bld.param();
        let a = bld.new_block();
        let b = bld.new_block();
        let exit = bld.new_block();
        bld.branch(c, a, b);
        bld.switch_to(a);
        bld.jump(b);
        bld.switch_to(b);
        bld.branch(c, a, exit);
        bld.switch_to(exit);
        bld.ret(None);
        let f = bld.finish();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        // Both a and b are only guaranteed to be dominated by the entry.
        assert_eq!(dom.idom(a), Some(f.entry()));
        assert_eq!(dom.idom(b), Some(f.entry()));
        assert_eq!(dom.idom(exit), Some(b));
    }
}
