//! Control-flow graph derived from a [`Function`].

use crate::entities::BlockId;
use crate::function::Function;

/// Predecessor/successor lists plus traversal orders for a function.
///
/// The CFG is a snapshot: recompute it after mutating control flow.
///
/// # Examples
///
/// ```
/// use tadfa_ir::{FunctionBuilder, Cfg};
///
/// let mut b = FunctionBuilder::new("diamond");
/// let c = b.param();
/// let t = b.new_block();
/// let e = b.new_block();
/// let join = b.new_block();
/// b.branch(c, t, e);
/// b.switch_to(t);
/// b.jump(join);
/// b.switch_to(e);
/// b.jump(join);
/// b.switch_to(join);
/// b.ret(None);
/// let f = b.finish();
///
/// let cfg = Cfg::compute(&f);
/// assert_eq!(cfg.preds(join).len(), 2);
/// assert_eq!(cfg.succs(f.entry()).len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    /// `rpo_index[b] == usize::MAX` marks an unreachable block.
    rpo_index: Vec<usize>,
}

impl Cfg {
    /// Computes predecessor/successor lists and a reverse post-order from
    /// the function's entry.
    pub fn compute(func: &Function) -> Cfg {
        let n = func.num_blocks();
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];

        for bb in func.block_ids() {
            if let Some(term) = func.terminator(bb) {
                for s in term.successors() {
                    succs[bb.index()].push(s);
                    preds[s.index()].push(bb);
                }
            }
        }

        // Iterative DFS post-order from the entry block.
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        if n > 0 {
            // Stack of (block, next successor index to visit).
            let mut stack: Vec<(BlockId, usize)> = vec![(func.entry(), 0)];
            visited[func.entry().index()] = true;
            while let Some(&mut (bb, ref mut next)) = stack.last_mut() {
                let ss = &succs[bb.index()];
                if *next < ss.len() {
                    let s = ss[*next];
                    *next += 1;
                    if !visited[s.index()] {
                        visited[s.index()] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(bb);
                    stack.pop();
                }
            }
        }

        let mut rpo = post;
        rpo.reverse();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, bb) in rpo.iter().enumerate() {
            rpo_index[bb.index()] = i;
        }

        Cfg {
            preds,
            succs,
            rpo,
            rpo_index,
        }
    }

    /// Predecessors of `bb`, in terminator order of the predecessors.
    pub fn preds(&self, bb: BlockId) -> &[BlockId] {
        &self.preds[bb.index()]
    }

    /// Successors of `bb`.
    pub fn succs(&self, bb: BlockId) -> &[BlockId] {
        &self.succs[bb.index()]
    }

    /// Reverse post-order over reachable blocks (entry first).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Post-order over reachable blocks (entry last).
    pub fn postorder(&self) -> Vec<BlockId> {
        let mut po = self.rpo.clone();
        po.reverse();
        po
    }

    /// Position of `bb` in reverse post-order, or `None` if unreachable.
    pub fn rpo_index(&self, bb: BlockId) -> Option<usize> {
        let i = self.rpo_index[bb.index()];
        (i != usize::MAX).then_some(i)
    }

    /// Whether `bb` is reachable from the entry.
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.rpo_index(bb).is_some()
    }

    /// Number of reachable blocks.
    pub fn num_reachable(&self) -> usize {
        self.rpo.len()
    }

    /// Whether the edge `from -> to` exists.
    pub fn has_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.succs(from).contains(&to)
    }

    /// All edges of the reachable CFG.
    pub fn edges(&self) -> Vec<(BlockId, BlockId)> {
        let mut out = Vec::new();
        for &bb in &self.rpo {
            for &s in self.succs(bb) {
                out.push((bb, s));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn diamond() -> (Function, BlockId, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("d");
        let c = b.param();
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        (b.finish(), t, e, j)
    }

    use crate::function::Function;

    #[test]
    fn diamond_shape() {
        let (f, t, e, j) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(f.entry()), &[t, e]);
        assert_eq!(cfg.preds(j).len(), 2);
        assert_eq!(cfg.num_reachable(), 4);
        assert!(cfg.has_edge(f.entry(), t));
        assert!(!cfg.has_edge(t, e));
        assert_eq!(cfg.edges().len(), 4);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_topology() {
        let (f, _, _, j) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo()[0], f.entry());
        // Join must come after both branches in RPO.
        let ij = cfg.rpo_index(j).unwrap();
        for bb in f.block_ids() {
            if bb != j {
                assert!(cfg.rpo_index(bb).unwrap() < ij);
            }
        }
    }

    #[test]
    fn unreachable_block_detected() {
        let mut b = FunctionBuilder::new("u");
        b.ret(None);
        let dead = b.new_block();
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.num_reachable(), 1);
        assert_eq!(cfg.rpo_index(dead), None);
    }

    #[test]
    fn self_loop() {
        let mut b = FunctionBuilder::new("sl");
        let c = b.param();
        let entry = b.current_block();
        let exit = b.new_block();
        b.branch(c, entry, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert!(cfg.has_edge(entry, entry));
        assert!(cfg.preds(entry).contains(&entry));
    }

    #[test]
    fn postorder_is_reverse_of_rpo() {
        let (f, _, _, _) = diamond();
        let cfg = Cfg::compute(&f);
        let mut po = cfg.postorder();
        po.reverse();
        assert_eq!(po, cfg.rpo());
    }
}
