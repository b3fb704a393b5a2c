//! Functions and basic blocks.

use crate::entities::{BlockId, InstId, MemSlot, VReg};
use crate::inst::{Inst, Terminator};

/// A basic block: an ordered list of instruction handles plus a terminator.
///
/// The terminator is optional only while the block is under construction;
/// the [`crate::Verifier`] rejects functions containing unterminated blocks.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    insts: Vec<InstId>,
    term: Option<Terminator>,
}

impl Block {
    /// The instructions of the block, in execution order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }

    /// The block's terminator, if one has been set.
    pub fn terminator(&self) -> Option<&Terminator> {
        self.term.as_ref()
    }
}

/// Metadata for a symbolic memory slot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SlotInfo {
    /// Human-readable slot name (unique within the function).
    pub name: String,
    /// Number of 64-bit words in the slot.
    pub size: usize,
}

/// A single procedure: the unit the thermal data flow analysis operates on
/// (the paper describes the analysis "in the context of a single
/// procedure", §4).
///
/// Instructions live in an arena indexed by [`InstId`]; blocks hold ordered
/// lists of handles, so mid-block insertion (NOP insertion, spill code)
/// never invalidates analysis side tables.
///
/// # Examples
///
/// Build `f(a, b) = a + b` by hand (see [`crate::FunctionBuilder`] for the
/// ergonomic path):
///
/// ```
/// use tadfa_ir::{Function, Inst, Opcode, Terminator};
///
/// let mut f = Function::new("adder");
/// let a = f.new_vreg();
/// let b = f.new_vreg();
/// f.set_params(vec![a, b]);
/// let entry = f.add_block();
/// f.set_entry(entry);
/// let sum = f.new_vreg();
/// f.push_inst(entry, Inst::binary(Opcode::Add, sum, a, b));
/// f.set_terminator(entry, Terminator::Ret(Some(sum)));
/// assert_eq!(f.num_insts(), 1);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    name: String,
    params: Vec<VReg>,
    blocks: Vec<Block>,
    insts: Vec<Inst>,
    entry: BlockId,
    next_vreg: u32,
    slots: Vec<SlotInfo>,
}

impl Function {
    /// Creates an empty function with the given name.
    ///
    /// The function starts with no blocks; the entry defaults to the first
    /// block added.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: Vec::new(),
            insts: Vec::new(),
            entry: BlockId::new(0),
            next_vreg: 0,
            slots: Vec::new(),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter registers, defined on entry.
    pub fn params(&self) -> &[VReg] {
        &self.params
    }

    /// Declares the parameter list. Parameter registers must already have
    /// been created with [`Function::new_vreg`].
    pub fn set_params(&mut self, params: Vec<VReg>) {
        self.params = params;
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> VReg {
        let v = VReg::new(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Number of virtual registers allocated so far. Virtual registers are
    /// dense in `0..num_vregs()`.
    pub fn num_vregs(&self) -> usize {
        self.next_vreg as usize
    }

    /// Appends a new, empty basic block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId::new((self.blocks.len() - 1) as u32)
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over all block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId::new)
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Sets the entry block.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn set_entry(&mut self, entry: BlockId) {
        assert!(
            entry.index() < self.blocks.len(),
            "entry {entry} out of range"
        );
        self.entry = entry;
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `bb` is out of range.
    pub fn block(&self, bb: BlockId) -> &Block {
        &self.blocks[bb.index()]
    }

    /// Appends an instruction to `bb`, returning its arena handle.
    pub fn push_inst(&mut self, bb: BlockId, inst: Inst) -> InstId {
        let id = InstId::new(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[bb.index()].insts.push(id);
        id
    }

    /// Inserts an instruction into `bb` at position `pos` (0 = front).
    ///
    /// Existing [`InstId`]s remain valid; only the block-local order shifts.
    ///
    /// # Panics
    ///
    /// Panics if `pos > bb.insts().len()`.
    pub fn insert_inst(&mut self, bb: BlockId, pos: usize, inst: Inst) -> InstId {
        let id = InstId::new(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[bb.index()].insts.insert(pos, id);
        id
    }

    /// Removes the instruction at block-local position `pos` from `bb`'s
    /// order and returns its id. The instruction stays in the arena (ids
    /// are never reused) but no longer executes.
    pub fn remove_inst_at(&mut self, bb: BlockId, pos: usize) -> InstId {
        self.blocks[bb.index()].insts.remove(pos)
    }

    /// Replaces the instruction order of `bb` with a permutation of the
    /// current order (used by instruction scheduling).
    ///
    /// # Panics
    ///
    /// Panics if `new_order` is not a permutation of the block's current
    /// instruction list.
    pub fn reorder_insts(&mut self, bb: BlockId, new_order: Vec<InstId>) {
        let current = &self.blocks[bb.index()].insts;
        assert_eq!(
            new_order.len(),
            current.len(),
            "reorder changes instruction count"
        );
        let mut a = current.clone();
        let mut b = new_order.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "reorder is not a permutation of the block");
        self.blocks[bb.index()].insts = new_order;
    }

    /// Immutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// Mutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Total number of instructions currently reachable from block lists.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Size of the instruction arena (including detached instructions).
    pub fn arena_len(&self) -> usize {
        self.insts.len()
    }

    /// Sets (or replaces) the terminator of `bb`.
    pub fn set_terminator(&mut self, bb: BlockId, term: Terminator) {
        self.blocks[bb.index()].term = Some(term);
    }

    /// The terminator of `bb`, if set.
    pub fn terminator(&self, bb: BlockId) -> Option<&Terminator> {
        self.blocks[bb.index()].term.as_ref()
    }

    /// Mutable terminator access (used by rewriting passes).
    pub fn terminator_mut(&mut self, bb: BlockId) -> Option<&mut Terminator> {
        self.blocks[bb.index()].term.as_mut()
    }

    /// Declares a memory slot of `size` 64-bit words.
    pub fn add_slot(&mut self, name: impl Into<String>, size: usize) -> MemSlot {
        self.slots.push(SlotInfo {
            name: name.into(),
            size,
        });
        MemSlot::new((self.slots.len() - 1) as u32)
    }

    /// Metadata for a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_info(&self, slot: MemSlot) -> &SlotInfo {
        &self.slots[slot.index()]
    }

    /// All declared slots.
    pub fn slots(&self) -> &[SlotInfo] {
        &self.slots
    }

    /// Looks a slot up by name.
    pub fn slot_by_name(&self, name: &str) -> Option<MemSlot> {
        self.slots
            .iter()
            .position(|s| s.name == name)
            .map(|i| MemSlot::new(i as u32))
    }

    /// Iterates over `(BlockId, InstId)` pairs in block order then
    /// block-local order — the "forward order" of the paper's Fig. 2.
    pub fn inst_ids_in_layout_order(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::with_capacity(self.num_insts());
        for bb in self.block_ids() {
            for &id in self.block(bb).insts() {
                out.push((bb, id));
            }
        }
        out
    }

    /// Replaces every use of `from` with `to` across all instructions and
    /// terminators. Returns the number of rewritten operands.
    pub fn replace_all_uses(&mut self, from: VReg, to: VReg) -> usize {
        let mut n = 0;
        for inst in &mut self.insts {
            n += inst.replace_uses(from, to);
        }
        for block in &mut self.blocks {
            if let Some(t) = block.term.as_mut() {
                n += t.replace_uses(from, to);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Opcode;

    fn two_block_function() -> Function {
        let mut f = Function::new("t");
        let a = f.new_vreg();
        f.set_params(vec![a]);
        let b0 = f.add_block();
        let b1 = f.add_block();
        f.set_entry(b0);
        let c = f.new_vreg();
        f.push_inst(b0, Inst::konst(c, 1));
        f.set_terminator(b0, Terminator::Jump(b1));
        let d = f.new_vreg();
        f.push_inst(b1, Inst::binary(Opcode::Add, d, a, c));
        f.set_terminator(b1, Terminator::Ret(Some(d)));
        f
    }

    #[test]
    fn build_and_query() {
        let f = two_block_function();
        assert_eq!(f.name(), "t");
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.num_insts(), 2);
        assert_eq!(f.num_vregs(), 3);
        assert_eq!(f.params().len(), 1);
        let entry = f.entry();
        assert_eq!(f.block(entry).insts().len(), 1);
        assert!(matches!(f.terminator(entry), Some(Terminator::Jump(_))));
    }

    #[test]
    fn layout_order_covers_all_insts() {
        let f = two_block_function();
        let order = f.inst_ids_in_layout_order();
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].0, f.entry());
    }

    #[test]
    fn insert_and_remove_keep_ids_stable() {
        let mut f = two_block_function();
        let entry = f.entry();
        let first = f.block(entry).insts()[0];
        let nop = f.insert_inst(entry, 0, Inst::nop());
        assert_eq!(f.block(entry).insts()[0], nop);
        assert_eq!(f.block(entry).insts()[1], first);
        let removed = f.remove_inst_at(entry, 0);
        assert_eq!(removed, nop);
        // Arena still holds the detached instruction.
        assert_eq!(f.inst(nop).op, Opcode::Nop);
        assert_eq!(f.num_insts(), 2);
        assert_eq!(f.arena_len(), 3);
    }

    #[test]
    fn slots_by_name() {
        let mut f = Function::new("s");
        let a = f.add_slot("a", 16);
        let b = f.add_slot("b", 1);
        assert_eq!(f.slot_by_name("a"), Some(a));
        assert_eq!(f.slot_by_name("b"), Some(b));
        assert_eq!(f.slot_by_name("c"), None);
        assert_eq!(f.slot_info(a).size, 16);
        assert_eq!(f.slots().len(), 2);
    }

    #[test]
    fn replace_all_uses_rewrites_terminators_too() {
        let mut f = Function::new("r");
        let a = f.new_vreg();
        let b = f.new_vreg();
        let b0 = f.add_block();
        f.set_terminator(b0, Terminator::Ret(Some(a)));
        let n = f.replace_all_uses(a, b);
        assert_eq!(n, 1);
        assert_eq!(f.terminator(b0).unwrap().uses(), vec![b]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_entry_validates() {
        let mut f = Function::new("x");
        f.set_entry(BlockId::new(3));
    }
}
