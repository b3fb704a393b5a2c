//! Instructions, opcodes and terminators.
//!
//! The IR is a phi-free three-address code: every instruction has at most
//! one destination virtual register and a small list of source registers.
//! Control flow lives exclusively in per-block [`Terminator`]s.

use crate::entities::{BlockId, MemSlot, VReg};
use std::fmt;

/// Operation performed by an [`Inst`].
///
/// Opcodes are a flat enum (payloads such as immediates or slots live on
/// [`Inst`]) so that passes can match on the operation cheaply.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Opcode {
    /// `dst = imm` — load a 64-bit constant.
    Const,
    /// `dst = src` — register copy. Inserted by live-range splitting.
    Mov,
    /// `dst = a + b` (wrapping).
    Add,
    /// `dst = a - b` (wrapping).
    Sub,
    /// `dst = a * b` (wrapping).
    Mul,
    /// `dst = a / b`; division by zero yields 0 (documented interpreter
    /// semantics, keeps every program total).
    Div,
    /// `dst = a % b`; modulo by zero yields 0.
    Rem,
    /// `dst = a & b`.
    And,
    /// `dst = a | b`.
    Or,
    /// `dst = a ^ b`.
    Xor,
    /// `dst = a << (b & 63)`.
    Shl,
    /// `dst = a >> (b & 63)` (arithmetic).
    Shr,
    /// `dst = -a` (wrapping).
    Neg,
    /// `dst = !a` (bitwise).
    Not,
    /// `dst = (a == b) as i64`.
    CmpEq,
    /// `dst = (a != b) as i64`.
    CmpNe,
    /// `dst = (a < b) as i64` (signed).
    CmpLt,
    /// `dst = (a <= b) as i64` (signed).
    CmpLe,
    /// `dst = (a > b) as i64` (signed).
    CmpGt,
    /// `dst = (a >= b) as i64` (signed).
    CmpGe,
    /// `dst = if c != 0 { a } else { b }` with sources `[c, a, b]`.
    Select,
    /// `dst = slot[index]` with source `[index]`.
    Load,
    /// `slot[index] = value` with sources `[index, value]`; no destination.
    Store,
    /// No operation. Consumes one cycle; used for thermal cool-down
    /// insertion (§4 of the paper).
    Nop,
    /// `dst = call @callee(args…)` — direct call to a named function in
    /// the enclosing [`Module`](crate::Module). Variable arity: the
    /// sources are the argument registers in order, and the callee name
    /// lives on [`Inst::callee`]. Calls are only meaningful inside a
    /// module; the module verifier resolves the callee and checks arity.
    Call,
}

/// All opcodes, in declaration order. Useful for exhaustive tests.
pub const ALL_OPCODES: [Opcode; 25] = [
    Opcode::Const,
    Opcode::Mov,
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Div,
    Opcode::Rem,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::Neg,
    Opcode::Not,
    Opcode::CmpEq,
    Opcode::CmpNe,
    Opcode::CmpLt,
    Opcode::CmpLe,
    Opcode::CmpGt,
    Opcode::CmpGe,
    Opcode::Select,
    Opcode::Load,
    Opcode::Store,
    Opcode::Nop,
    Opcode::Call,
];

impl Opcode {
    /// Returns the textual mnemonic used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Const => "const",
            Opcode::Mov => "mov",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Rem => "rem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Neg => "neg",
            Opcode::Not => "not",
            Opcode::CmpEq => "cmpeq",
            Opcode::CmpNe => "cmpne",
            Opcode::CmpLt => "cmplt",
            Opcode::CmpLe => "cmple",
            Opcode::CmpGt => "cmpgt",
            Opcode::CmpGe => "cmpge",
            Opcode::Select => "select",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::Nop => "nop",
            Opcode::Call => "call",
        }
    }

    /// Parses a mnemonic back into an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Some(match s {
            "const" => Opcode::Const,
            "mov" => Opcode::Mov,
            "add" => Opcode::Add,
            "sub" => Opcode::Sub,
            "mul" => Opcode::Mul,
            "div" => Opcode::Div,
            "rem" => Opcode::Rem,
            "and" => Opcode::And,
            "or" => Opcode::Or,
            "xor" => Opcode::Xor,
            "shl" => Opcode::Shl,
            "shr" => Opcode::Shr,
            "neg" => Opcode::Neg,
            "not" => Opcode::Not,
            "cmpeq" => Opcode::CmpEq,
            "cmpne" => Opcode::CmpNe,
            "cmplt" => Opcode::CmpLt,
            "cmple" => Opcode::CmpLe,
            "cmpgt" => Opcode::CmpGt,
            "cmpge" => Opcode::CmpGe,
            "select" => Opcode::Select,
            "load" => Opcode::Load,
            "store" => Opcode::Store,
            "nop" => Opcode::Nop,
            "call" => Opcode::Call,
            _ => return None,
        })
    }

    /// Number of source registers the opcode requires. [`Opcode::Call`]
    /// is variable-arity (see [`Opcode::has_variable_srcs`]); its entry
    /// here is the minimum of zero arguments.
    pub fn num_srcs(self) -> usize {
        match self {
            Opcode::Const | Opcode::Nop | Opcode::Call => 0,
            Opcode::Mov | Opcode::Neg | Opcode::Not | Opcode::Load => 1,
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::Div
            | Opcode::Rem
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::CmpEq
            | Opcode::CmpNe
            | Opcode::CmpLt
            | Opcode::CmpLe
            | Opcode::CmpGt
            | Opcode::CmpGe
            | Opcode::Store => 2,
            Opcode::Select => 3,
        }
    }

    /// Whether the opcode's source-register count is not fixed (call
    /// arguments). Arity checks for these opcodes need the enclosing
    /// module (the callee's parameter list), not just the opcode.
    pub fn has_variable_srcs(self) -> bool {
        matches!(self, Opcode::Call)
    }

    /// Whether the opcode writes a destination register.
    pub fn has_dst(self) -> bool {
        !matches!(self, Opcode::Store | Opcode::Nop)
    }

    /// Whether the opcode carries an immediate payload.
    pub fn has_imm(self) -> bool {
        matches!(self, Opcode::Const)
    }

    /// Whether the opcode addresses a memory slot.
    pub fn has_slot(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Whether `op(a, b) == op(b, a)`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Mul
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::CmpEq
                | Opcode::CmpNe
        )
    }

    /// Whether the opcode has an observable side effect beyond its
    /// destination register (memory writes, transfers of control into a
    /// callee). Side-effecting instructions are never dead-code
    /// eliminated or reordered across each other.
    pub fn has_side_effect(self) -> bool {
        matches!(self, Opcode::Store | Opcode::Call)
    }

    /// Latency in cycles on the modelled in-order core.
    ///
    /// These are the technology coefficients that link "instruction
    /// execution" to time in the thermal transfer function (§4): longer
    /// latency means the deposited access energy is spread over more time.
    pub fn latency(self) -> u32 {
        match self {
            Opcode::Mul => 3,
            Opcode::Div | Opcode::Rem => 12,
            Opcode::Load | Opcode::Store => 2,
            _ => 1,
        }
    }

    /// Whether executing the opcode reads or writes the register file at
    /// all. `Nop` touches nothing, which is exactly why it cools.
    pub fn touches_register_file(self) -> bool {
        !matches!(self, Opcode::Nop)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single three-address instruction.
///
/// Construct instructions through the typed constructors ([`Inst::binary`],
/// [`Inst::konst`], …) which enforce the operand shape of each opcode; the
/// [`crate::Verifier`] re-checks the shape for instructions built by hand.
///
/// # Examples
///
/// ```
/// use tadfa_ir::{Inst, Opcode, VReg};
/// let add = Inst::binary(Opcode::Add, VReg::new(2), VReg::new(0), VReg::new(1));
/// assert_eq!(add.def(), Some(VReg::new(2)));
/// assert_eq!(add.uses(), &[VReg::new(0), VReg::new(1)]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Inst {
    /// The operation.
    pub op: Opcode,
    /// Destination register, present iff `op.has_dst()`.
    pub dst: Option<VReg>,
    /// Source registers, in opcode-defined order.
    pub srcs: Vec<VReg>,
    /// Immediate payload for `Const`.
    pub imm: Option<i64>,
    /// Memory slot for `Load`/`Store`.
    pub slot: Option<MemSlot>,
    /// Callee name for `Call`.
    pub callee: Option<String>,
}

impl Inst {
    /// `dst = imm`.
    pub fn konst(dst: VReg, imm: i64) -> Inst {
        Inst {
            op: Opcode::Const,
            dst: Some(dst),
            srcs: Vec::new(),
            imm: Some(imm),
            slot: None,
            callee: None,
        }
    }

    /// `dst = src` copy.
    pub fn mov(dst: VReg, src: VReg) -> Inst {
        Inst {
            op: Opcode::Mov,
            dst: Some(dst),
            srcs: vec![src],
            imm: None,
            slot: None,
            callee: None,
        }
    }

    /// A unary operation (`Neg`, `Not`, `Mov`).
    ///
    /// # Panics
    ///
    /// Panics if `op` does not take exactly one source and a destination.
    pub fn unary(op: Opcode, dst: VReg, src: VReg) -> Inst {
        assert_eq!(op.num_srcs(), 1, "{op} is not unary");
        assert!(op.has_dst(), "{op} has no destination");
        assert!(!op.has_slot(), "use Inst::load for memory ops");
        Inst {
            op,
            dst: Some(dst),
            srcs: vec![src],
            imm: None,
            slot: None,
            callee: None,
        }
    }

    /// A binary operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` does not take exactly two sources and a destination.
    pub fn binary(op: Opcode, dst: VReg, a: VReg, b: VReg) -> Inst {
        assert_eq!(op.num_srcs(), 2, "{op} is not binary");
        assert!(op.has_dst(), "{op} has no destination");
        Inst {
            op,
            dst: Some(dst),
            srcs: vec![a, b],
            imm: None,
            slot: None,
            callee: None,
        }
    }

    /// `dst = if c != 0 { a } else { b }`.
    pub fn select(dst: VReg, c: VReg, a: VReg, b: VReg) -> Inst {
        Inst {
            op: Opcode::Select,
            dst: Some(dst),
            srcs: vec![c, a, b],
            imm: None,
            slot: None,
            callee: None,
        }
    }

    /// `dst = slot[index]`.
    pub fn load(dst: VReg, slot: MemSlot, index: VReg) -> Inst {
        Inst {
            op: Opcode::Load,
            dst: Some(dst),
            srcs: vec![index],
            imm: None,
            slot: Some(slot),
            callee: None,
        }
    }

    /// `slot[index] = value`.
    pub fn store(slot: MemSlot, index: VReg, value: VReg) -> Inst {
        Inst {
            op: Opcode::Store,
            dst: None,
            srcs: vec![index, value],
            imm: None,
            slot: Some(slot),
            callee: None,
        }
    }

    /// A no-op (cool-down) instruction.
    pub fn nop() -> Inst {
        Inst {
            op: Opcode::Nop,
            dst: None,
            srcs: Vec::new(),
            imm: None,
            slot: None,
            callee: None,
        }
    }

    /// `dst = call @callee(args…)` — direct call to a named function.
    ///
    /// The callee is resolved by name against the enclosing
    /// [`Module`](crate::Module); the module verifier checks that it
    /// exists and that `args` matches its parameter count.
    pub fn call(dst: VReg, callee: impl Into<String>, args: Vec<VReg>) -> Inst {
        Inst {
            op: Opcode::Call,
            dst: Some(dst),
            srcs: args,
            imm: None,
            slot: None,
            callee: Some(callee.into()),
        }
    }

    /// The callee name of a `Call` instruction, if this is one.
    pub fn callee_name(&self) -> Option<&str> {
        self.callee.as_deref()
    }

    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        self.dst
    }

    /// The registers read by this instruction, in operand order.
    pub fn uses(&self) -> &[VReg] {
        &self.srcs
    }

    /// Total number of register-file accesses (reads + writes) this
    /// instruction performs. This is the activity factor of the thermal
    /// power model.
    pub fn rf_accesses(&self) -> usize {
        self.srcs.len() + usize::from(self.dst.is_some())
    }

    /// Rewrites every use of `from` into `to`. Returns how many operands
    /// changed.
    pub fn replace_uses(&mut self, from: VReg, to: VReg) -> usize {
        let mut n = 0;
        for s in &mut self.srcs {
            if *s == from {
                *s = to;
                n += 1;
            }
        }
        n
    }

    /// Rewrites the destination if it equals `from`.
    pub fn replace_def(&mut self, from: VReg, to: VReg) -> bool {
        if self.dst == Some(from) {
            self.dst = Some(to);
            true
        } else {
            false
        }
    }
}

/// Block-terminating control transfer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `cond != 0`.
    Branch {
        /// The branch condition register.
        cond: VReg,
        /// Target when `cond != 0`.
        then_dest: BlockId,
        /// Target when `cond == 0`.
        else_dest: BlockId,
    },
    /// Return from the function, optionally with a value.
    Ret(Option<VReg>),
}

impl Terminator {
    /// Successor blocks in evaluation order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                then_dest,
                else_dest,
                ..
            } => vec![*then_dest, *else_dest],
            Terminator::Ret(_) => Vec::new(),
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self) -> Vec<VReg> {
        match self {
            Terminator::Jump(_) => Vec::new(),
            Terminator::Branch { cond, .. } => vec![*cond],
            Terminator::Ret(Some(v)) => vec![*v],
            Terminator::Ret(None) => Vec::new(),
        }
    }

    /// Number of register-file reads the terminator performs.
    pub fn rf_accesses(&self) -> usize {
        self.uses().len()
    }

    /// Rewrites every use of `from` into `to`.
    pub fn replace_uses(&mut self, from: VReg, to: VReg) -> usize {
        match self {
            Terminator::Branch { cond, .. } if *cond == from => {
                *cond = to;
                1
            }
            Terminator::Ret(Some(v)) if *v == from => {
                *v = to;
                1
            }
            _ => 0,
        }
    }

    /// Latency in cycles (branches cost one cycle, returns one).
    pub fn latency(&self) -> u32 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip() {
        for op in crate::ALL_OPCODES {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op), "{op}");
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn call_shape() {
        let c = Inst::call(VReg::new(4), "helper", vec![VReg::new(0), VReg::new(1)]);
        assert_eq!(c.def(), Some(VReg::new(4)));
        assert_eq!(c.uses().len(), 2);
        assert_eq!(c.callee_name(), Some("helper"));
        assert_eq!(c.rf_accesses(), 3, "arg reads plus result write");
        assert!(Opcode::Call.has_variable_srcs());
        assert!(Opcode::Call.has_side_effect());
        assert!(Opcode::Call.has_dst());
        assert_eq!(Opcode::Call.latency(), 1);
    }

    #[test]
    fn operand_shapes() {
        assert_eq!(Opcode::Const.num_srcs(), 0);
        assert_eq!(Opcode::Select.num_srcs(), 3);
        assert!(Opcode::Add.has_dst());
        assert!(!Opcode::Store.has_dst());
        assert!(Opcode::Load.has_slot());
        assert!(!Opcode::Add.has_slot());
        assert!(Opcode::Add.is_commutative());
        assert!(!Opcode::Sub.is_commutative());
    }

    #[test]
    fn latencies_are_positive_and_div_is_slowest() {
        let ops = [
            Opcode::Add,
            Opcode::Mul,
            Opcode::Div,
            Opcode::Load,
            Opcode::Nop,
        ];
        for op in ops {
            assert!(op.latency() >= 1);
        }
        assert!(Opcode::Div.latency() > Opcode::Mul.latency());
        assert!(Opcode::Mul.latency() > Opcode::Add.latency());
    }

    #[test]
    fn nop_touches_nothing() {
        assert!(!Opcode::Nop.touches_register_file());
        assert_eq!(Inst::nop().rf_accesses(), 0);
    }

    #[test]
    fn inst_constructors() {
        let d = VReg::new(9);
        let a = VReg::new(1);
        let b = VReg::new(2);
        let k = Inst::konst(d, -7);
        assert_eq!(k.imm, Some(-7));
        assert_eq!(k.rf_accesses(), 1);

        let add = Inst::binary(Opcode::Add, d, a, b);
        assert_eq!(add.rf_accesses(), 3);

        let sel = Inst::select(d, a, b, d);
        assert_eq!(sel.uses().len(), 3);

        let slot = MemSlot::new(0);
        let ld = Inst::load(d, slot, a);
        assert_eq!(ld.slot, Some(slot));
        let st = Inst::store(slot, a, b);
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), &[a, b]);
    }

    #[test]
    #[should_panic(expected = "is not binary")]
    fn binary_rejects_unary_opcode() {
        let _ = Inst::binary(Opcode::Neg, VReg::new(0), VReg::new(1), VReg::new(2));
    }

    #[test]
    fn replace_uses_and_def() {
        let mut i = Inst::binary(Opcode::Add, VReg::new(3), VReg::new(1), VReg::new(1));
        assert_eq!(i.replace_uses(VReg::new(1), VReg::new(5)), 2);
        assert_eq!(i.uses(), &[VReg::new(5), VReg::new(5)]);
        assert!(i.replace_def(VReg::new(3), VReg::new(6)));
        assert!(!i.replace_def(VReg::new(3), VReg::new(7)));
    }

    #[test]
    fn terminator_successors_and_uses() {
        let j = Terminator::Jump(BlockId::new(4));
        assert_eq!(j.successors(), vec![BlockId::new(4)]);
        assert!(j.uses().is_empty());

        let b = Terminator::Branch {
            cond: VReg::new(2),
            then_dest: BlockId::new(1),
            else_dest: BlockId::new(2),
        };
        assert_eq!(b.successors().len(), 2);
        assert_eq!(b.uses(), vec![VReg::new(2)]);
        assert_eq!(b.rf_accesses(), 1);

        let r = Terminator::Ret(Some(VReg::new(0)));
        assert!(r.successors().is_empty());
        assert_eq!(r.uses(), vec![VReg::new(0)]);
    }

    #[test]
    fn terminator_replace_uses() {
        let mut b = Terminator::Branch {
            cond: VReg::new(2),
            then_dest: BlockId::new(1),
            else_dest: BlockId::new(2),
        };
        assert_eq!(b.replace_uses(VReg::new(2), VReg::new(9)), 1);
        assert_eq!(b.uses(), vec![VReg::new(9)]);
        let mut r = Terminator::Ret(None);
        assert_eq!(r.replace_uses(VReg::new(0), VReg::new(1)), 0);
    }
}
