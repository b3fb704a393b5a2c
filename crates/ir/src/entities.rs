//! Index newtypes for the entities of a [`Function`](crate::Function).
//!
//! Every IR entity is referred to by a small, `Copy` index newtype rather
//! than by reference, which keeps the IR freely mutable while analyses hold
//! onto entity handles. All newtypes implement the common ordering/hashing
//! traits so they can key maps and be stored in sorted containers.

use std::fmt;

/// A virtual register: the unbounded value namespace used before register
/// allocation.
///
/// Virtual registers are function-local and dense: a function with `n`
/// virtual registers uses indices `0..n`, so analyses can use `Vec`-indexed
/// side tables instead of hash maps.
///
/// # Examples
///
/// ```
/// use tadfa_ir::VReg;
/// let v = VReg::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "%3");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VReg(u32);

impl VReg {
    /// Creates a virtual register with the given dense index.
    pub fn new(index: u32) -> Self {
        VReg(index)
    }

    /// Returns the dense index of this virtual register.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` backing this register.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A physical register: an architectural register of the target register
/// file, produced by register allocation.
///
/// Physical registers map one-to-one onto cells of the register-file
/// floorplan (see `tadfa-thermal`), which is what makes register assignment
/// a thermal decision.
///
/// # Examples
///
/// ```
/// use tadfa_ir::PReg;
/// assert_eq!(PReg::new(7).to_string(), "r7");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PReg(u16);

impl PReg {
    /// Creates a physical register with the given index.
    pub fn new(index: u16) -> Self {
        PReg(index)
    }

    /// Returns the dense index of this physical register.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u16` backing this register.
    pub fn as_u16(self) -> u16 {
        self.0
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A basic block label.
///
/// # Examples
///
/// ```
/// use tadfa_ir::BlockId;
/// assert_eq!(BlockId::new(2).to_string(), "block2");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a block id with the given dense index.
    pub fn new(index: u32) -> Self {
        BlockId(index)
    }

    /// Returns the dense index of this block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block{}", self.0)
    }
}

/// A handle to an instruction in a function's instruction arena.
///
/// Instruction ids are stable across block-list edits (inserting or removing
/// an instruction from a block never invalidates other ids), which lets
/// analyses keyed by `InstId` survive rewriting passes.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstId(u32);

impl InstId {
    /// Creates an instruction id with the given arena index.
    pub fn new(index: u32) -> Self {
        InstId(index)
    }

    /// Returns the arena index of this instruction.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// A symbolic memory slot: a named, statically sized array of 64-bit words.
///
/// Slots are disjoint by construction — two distinct slots never alias —
/// which makes register promotion (`tadfa-opt`) decidable without a pointer
/// analysis. Spill code also targets slots.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemSlot(u32);

impl MemSlot {
    /// Creates a slot handle with the given dense index.
    pub fn new(index: u32) -> Self {
        MemSlot(index)
    }

    /// Returns the dense index of this slot.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MemSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn vreg_roundtrip() {
        let v = VReg::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.as_u32(), 42);
        assert_eq!(format!("{v}"), "%42");
    }

    #[test]
    fn preg_roundtrip() {
        let r = PReg::new(9);
        assert_eq!(r.index(), 9);
        assert_eq!(r.as_u16(), 9);
        assert_eq!(format!("{r}"), "r9");
    }

    #[test]
    fn block_and_inst_display() {
        assert_eq!(BlockId::new(0).to_string(), "block0");
        assert_eq!(InstId::new(17).to_string(), "inst17");
        assert_eq!(MemSlot::new(3).to_string(), "slot3");
    }

    #[test]
    fn entities_are_ordered_and_hashable() {
        let set: BTreeSet<VReg> = [VReg::new(2), VReg::new(0), VReg::new(1)]
            .into_iter()
            .collect();
        let ordered: Vec<usize> = set.into_iter().map(VReg::index).collect();
        assert_eq!(ordered, vec![0, 1, 2]);
    }

    #[test]
    fn debug_representation_is_nonempty() {
        // C-DEBUG-NONEMPTY: every entity has a useful Debug form.
        assert_eq!(format!("{:?}", VReg::new(5)), "VReg(5)");
        assert_eq!(format!("{:?}", PReg::new(5)), "PReg(5)");
        assert_eq!(format!("{:?}", BlockId::new(5)), "BlockId(5)");
    }
}
