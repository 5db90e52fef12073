//! Modules, functions, basic blocks, globals, and program-counter layout.
//!
//! A [`Module`] plays two roles, mirroring the paper's deployment model
//! (§5): it is the "bitcode" the server-side analyses consume, and its
//! program-counter layout is the "stripped binary" the client-side tracer
//! and VM execute. The [`Module::inst`] / [`Module::loc_of_pc`] maps are
//! the debug information that lets the server map a failing PC from a
//! production trace back to an IR instruction. The map is a dense table
//! indexed by [`Module::pc_slot`], so resolving a PC costs an index,
//! never a hash.

use crate::inst::{Inst, InstKind, ValueId};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// A virtual program counter (instruction address in the "binary").
///
/// Module layout assigns each instruction a unique address; instructions
/// are 4 "bytes" apart and each function starts at a 64-byte-aligned base,
/// so PCs look and behave like real code addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pc(pub u64);

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifies a function within a module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifies a global variable within a module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// A named struct definition: field names and types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructDef {
    /// The struct's name (`%struct.<name>`).
    pub name: String,
    /// Ordered `(field name, field type)` pairs.
    pub fields: Vec<(String, Type)>,
}

impl StructDef {
    /// Returns the index of the named field.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    /// Returns the type of field `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn field_type(&self, idx: usize) -> &Type {
        &self.fields[idx].1
    }
}

/// A global variable: a module-level memory location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Global {
    /// Identifier within the module.
    pub id: GlobalId,
    /// Human-readable name.
    pub name: String,
    /// The type of the value stored in the global.
    pub ty: Type,
    /// Initial slot values (zero-filled if shorter than the type's size).
    pub init: Vec<i64>,
}

/// A straight-line sequence of instructions ending in a terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// Identifier within the function.
    pub id: BlockId,
    /// Human-readable label.
    pub name: String,
    /// The block's instructions; the last one is the terminator.
    pub insts: Vec<Inst>,
}

impl BasicBlock {
    /// Returns the block's terminator instruction.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty (a verifier error).
    pub fn terminator(&self) -> &Inst {
        self.insts.last().expect("empty basic block")
    }
}

/// A function: parameters, blocks, and its PC range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Identifier within the module.
    pub id: FuncId,
    /// Human-readable name.
    pub name: String,
    /// Parameter registers and their types (parameters are registers
    /// `%0..%n-1`).
    pub params: Vec<(ValueId, Type)>,
    /// Return type.
    pub ret_ty: Type,
    /// Basic blocks; block 0 is the entry block.
    pub blocks: Vec<BasicBlock>,
    /// Number of virtual registers used (for frame allocation).
    pub reg_count: u32,
    /// First PC of the function after layout.
    pub base_pc: Pc,
}

impl Function {
    /// Returns the entry block.
    pub fn entry(&self) -> &BasicBlock {
        &self.blocks[0]
    }

    /// Returns a block by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this function.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Iterates over all instructions in block order.
    pub fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.blocks.iter().flat_map(|b| b.insts.iter())
    }

    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// The location of an instruction: function, block, and index within the
/// block. This is what the "debug information" resolves a PC to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InstLoc {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Index within the block's instruction list.
    pub idx: usize,
}

/// One entry of the dense PC table: where the instruction at a slot
/// sits. Alignment gaps between functions hold [`PcEntry::GAP`].
#[derive(Clone, Copy, Debug)]
struct PcEntry {
    func: u32,
    block: u32,
    idx: u32,
}

impl PcEntry {
    const GAP: PcEntry = PcEntry {
        func: u32::MAX,
        block: 0,
        idx: 0,
    };
}

/// A complete program: struct definitions, globals, and functions, with a
/// finalized PC layout.
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name (the "binary" name; workloads use the modelled
    /// system's name, e.g. `"mysql"`). Part of [`Module::fingerprint`],
    /// so renaming a module changes its identity.
    pub name: String,
    structs: HashMap<String, StructDef>,
    globals: Vec<Global>,
    functions: Vec<Function>,
    func_by_name: HashMap<String, FuncId>,
    /// The debug-info map, indexed by [`Module::pc_slot`].
    pc_map: Vec<PcEntry>,
    /// Per function, the first of its registers in the dense register
    /// numbering ([`Module::reg_slot`]); one extra entry holds the total.
    reg_base: Vec<u32>,
    max_pc: Pc,
    inst_count: usize,
}

impl Module {
    /// Spacing between consecutive instruction PCs.
    pub const PC_STRIDE: u64 = 4;
    /// Alignment of function base PCs.
    pub const FUNC_ALIGN: u64 = 64;
    /// Base address of the first function ("text segment" start).
    pub const TEXT_BASE: u64 = 0x40_0000;

    /// Assembles a module from parts, assigning the PC layout. Used by
    /// [`ModuleBuilder::finish`]; not intended for direct use.
    ///
    /// [`ModuleBuilder::finish`]: crate::builder::ModuleBuilder::finish
    pub(crate) fn assemble(
        name: String,
        structs: HashMap<String, StructDef>,
        globals: Vec<Global>,
        mut functions: Vec<Function>,
    ) -> Module {
        let mut pc_map = Vec::new();
        let mut reg_base = Vec::with_capacity(functions.len() + 1);
        let mut regs = 0u32;
        let mut next = Self::TEXT_BASE;
        for func in &mut functions {
            next = next.div_ceil(Self::FUNC_ALIGN) * Self::FUNC_ALIGN;
            func.base_pc = Pc(next);
            let first = Self::stride_slot(Pc(next)).expect("function bases lie on the stride");
            pc_map.resize(first, PcEntry::GAP);
            reg_base.push(regs);
            regs += func.reg_count;
            for block in &mut func.blocks {
                for (idx, inst) in block.insts.iter_mut().enumerate() {
                    inst.pc = Pc(next);
                    pc_map.push(PcEntry {
                        func: func.id.0,
                        block: block.id.0,
                        idx: idx as u32,
                    });
                    next += Self::PC_STRIDE;
                }
            }
        }
        reg_base.push(regs);
        let func_by_name = functions.iter().map(|f| (f.name.clone(), f.id)).collect();
        let inst_count = pc_map.iter().filter(|e| e.func != u32::MAX).count();
        Module {
            name,
            structs,
            globals,
            functions,
            func_by_name,
            pc_map,
            reg_base,
            max_pc: Pc(next),
            inst_count,
        }
    }

    /// The module's identity: FNV-1a over its name, function count,
    /// instruction count and PC layout extent. The counts are fixed at
    /// assembly; the name is read on every call, so it costs a pass over
    /// a short name. Stable across runs of the same build, and any
    /// rebuild that moves code changes it, which is exactly when cached
    /// analysis state must not be carried across binaries.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.name.as_bytes());
        eat(&(self.functions.len() as u64).to_le_bytes());
        eat(&(self.inst_count as u64).to_le_bytes());
        eat(&self.max_pc.0.to_le_bytes());
        h
    }

    /// All functions in the module.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Returns a function by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.func_by_name.get(name).map(|id| self.func(*id))
    }

    /// All globals in the module.
    pub fn globals(&self) -> &[Global] {
        &self.globals
    }

    /// Returns a global by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this module.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Looks up a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.get(name)
    }

    /// Iterates over all struct definitions, sorted by name (stable for
    /// printing).
    pub fn struct_defs(&self) -> Vec<&StructDef> {
        let mut v: Vec<&StructDef> = self.structs.values().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Number of slots a value of `ty` occupies, resolving struct field
    /// counts through this module's definitions.
    pub fn slot_count(&self, ty: &Type) -> u64 {
        let resolver = |name: &str| self.structs.get(name).map(|s| s.fields.len()).unwrap_or(1);
        ty.slot_count(&resolver)
    }

    /// The slot `(pc - TEXT_BASE) / PC_STRIDE` of a PC on the text
    /// layout's stride, or `None` below `TEXT_BASE` or off the stride.
    /// This is the one place the layout is turned into dense indices:
    /// every per-PC table, here and in the decoder, is indexed by it.
    /// It does not check that the slot holds an instruction of any
    /// module; [`Module::pc_slot`] does.
    #[inline]
    pub fn stride_slot(pc: Pc) -> Option<usize> {
        let off = pc.0.checked_sub(Self::TEXT_BASE)?;
        if !off.is_multiple_of(Self::PC_STRIDE) {
            return None;
        }
        usize::try_from(off / Self::PC_STRIDE).ok()
    }

    /// The PC at slot `slot`: the inverse of [`Module::stride_slot`].
    #[inline]
    pub fn slot_pc(slot: usize) -> Pc {
        Pc(Self::TEXT_BASE + slot as u64 * Self::PC_STRIDE)
    }

    /// The dense slot of an instruction PC ([`Module::stride_slot`]), or
    /// `None` when `pc` lies below `TEXT_BASE`, off the stride, in an
    /// alignment gap between functions, or at or past
    /// [`Module::max_pc`]. Distinct instructions get distinct slots below
    /// [`Module::pc_slot_count`].
    #[inline]
    pub fn pc_slot(&self, pc: Pc) -> Option<usize> {
        let slot = Self::stride_slot(pc)?;
        (self.pc_map.get(slot)?.func != u32::MAX).then_some(slot)
    }

    /// One past the largest [`Module::pc_slot`]: the number of stride
    /// slots from `TEXT_BASE` up to [`Module::max_pc`].
    pub fn pc_slot_count(&self) -> usize {
        self.pc_map.len()
    }

    /// The dense number of register `value` of function `func`: the
    /// function's registers follow those of every function before it,
    /// `reg_count` each. `None` when `func` is not in the module or
    /// `value` is not below its `reg_count`.
    #[inline]
    pub fn reg_slot(&self, func: FuncId, value: ValueId) -> Option<usize> {
        let f = func.0 as usize;
        let (base, end) = (*self.reg_base.get(f)?, *self.reg_base.get(f + 1)?);
        let slot = base.checked_add(value.0).filter(|&s| s < end)?;
        Some(slot as usize)
    }

    /// One past the largest [`Module::reg_slot`]: the module's register
    /// count.
    pub fn reg_slot_count(&self) -> usize {
        self.reg_base.last().map_or(0, |&n| n as usize)
    }

    /// Resolves a PC to its instruction location (the debug-info map).
    #[inline]
    pub fn loc_of_pc(&self, pc: Pc) -> Option<InstLoc> {
        let e = self.pc_map[self.pc_slot(pc)?];
        Some(InstLoc {
            func: FuncId(e.func),
            block: BlockId(e.block),
            idx: e.idx as usize,
        })
    }

    /// Resolves a PC directly to the instruction.
    #[inline]
    pub fn inst(&self, pc: Pc) -> Option<&Inst> {
        let e = self.pc_map[self.pc_slot(pc)?];
        Some(&self.functions[e.func as usize].blocks[e.block as usize].insts[e.idx as usize])
    }

    /// Returns the function containing `pc`, if any.
    pub fn func_of_pc(&self, pc: Pc) -> Option<&Function> {
        self.loc_of_pc(pc).map(|l| self.func(l.func))
    }

    /// One past the last assigned PC.
    pub fn max_pc(&self) -> Pc {
        self.max_pc
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.inst_count
    }

    /// Iterates over `(pc, inst, loc)` for every instruction in layout
    /// order.
    pub fn all_insts(&self) -> impl Iterator<Item = (&Inst, InstLoc)> {
        self.functions.iter().flat_map(|f| {
            f.blocks.iter().flat_map(move |b| {
                b.insts.iter().enumerate().map(move |(idx, inst)| {
                    (
                        inst,
                        InstLoc {
                            func: f.id,
                            block: b.id,
                            idx,
                        },
                    )
                })
            })
        })
    }

    /// Returns a human-readable description of the instruction at `pc`
    /// (function, block, and rendered instruction), like a symbolized
    /// stack frame.
    pub fn describe_pc(&self, pc: Pc) -> String {
        match self.loc_of_pc(pc) {
            Some(loc) => {
                let f = self.func(loc.func);
                let b = f.block(loc.block);
                format!(
                    "{pc} in {}::{} ({})",
                    f.name,
                    b.name,
                    crate::printer::render_inst(&b.insts[loc.idx])
                )
            }
            None => format!("{pc} <unknown>"),
        }
    }

    /// Returns the kind of the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not mapped; diagnosis code paths only look up PCs
    /// that came from traces of this module.
    pub fn kind_at(&self, pc: Pc) -> &InstKind {
        &self.inst(pc).expect("PC not mapped in module").kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::Operand;

    fn tiny_module() -> Module {
        let mut mb = ModuleBuilder::new("tiny");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let p = f.alloca(Type::I64);
        f.store(p.clone(), Operand::const_int(5), Type::I64);
        f.load(p, Type::I64);
        f.halt();
        f.finish();
        mb.finish().unwrap()
    }

    #[test]
    fn layout_assigns_monotonic_pcs() {
        let m = tiny_module();
        let f = &m.functions()[0];
        assert_eq!(f.base_pc.0 % Module::FUNC_ALIGN, 0);
        let pcs: Vec<u64> = f.insts().map(|i| i.pc.0).collect();
        for w in pcs.windows(2) {
            assert_eq!(w[1] - w[0], Module::PC_STRIDE);
        }
    }

    #[test]
    fn pc_map_roundtrips() {
        let m = tiny_module();
        for (inst, loc) in m.all_insts() {
            assert_eq!(m.loc_of_pc(inst.pc), Some(loc));
            assert_eq!(m.inst(inst.pc).unwrap().pc, inst.pc);
        }
        assert!(m.loc_of_pc(Pc(1)).is_none());
    }

    /// The dense PC table answers exactly the instruction PCs: below
    /// `TEXT_BASE`, off the stride, in the alignment gap between two
    /// functions and at `max_pc` it answers `None`, and every slot it
    /// hands out is distinct and in range.
    #[test]
    fn dense_pc_table_places_only_instruction_pcs() {
        let mut mb = ModuleBuilder::new("two");
        let callee = mb.declare("callee", vec![], Type::Void);
        {
            let mut f = mb.define(callee);
            let e = f.entry();
            f.switch_to(e);
            f.ret(None);
            f.finish();
        }
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        f.alloca(Type::I64);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let (first, second) = (&m.functions()[0], &m.functions()[1]);
        let first_end = first.base_pc.0 + first.inst_count() as u64 * Module::PC_STRIDE;
        assert!(first_end < second.base_pc.0, "an alignment gap exists");

        let mut slots = std::collections::HashSet::new();
        for (inst, loc) in m.all_insts() {
            let slot = m.pc_slot(inst.pc).expect("instruction PCs are placed");
            assert!(slot < m.pc_slot_count());
            assert!(slots.insert(slot), "slots are distinct");
            assert_eq!(Module::slot_pc(slot), inst.pc, "slot_pc inverts the slot");
            assert_eq!(m.loc_of_pc(inst.pc), Some(loc));
        }
        let unplaced = [
            Pc(0),
            Pc(Module::TEXT_BASE - Module::PC_STRIDE),
            Pc(Module::TEXT_BASE + 1),
            Pc(second.base_pc.0 + 2),
            Pc(first_end),
            Pc(second.base_pc.0 - Module::PC_STRIDE),
            m.max_pc(),
            Pc(m.max_pc().0 + Module::PC_STRIDE),
            Pc(u64::MAX),
        ];
        for pc in unplaced {
            assert_eq!(m.pc_slot(pc), None, "{pc} is not an instruction");
            if pc.0 % Module::PC_STRIDE != 0 || pc.0 < Module::TEXT_BASE {
                assert_eq!(Module::stride_slot(pc), None, "{pc} is off the stride");
            }
            assert_eq!(m.loc_of_pc(pc), None, "{pc}");
            assert!(m.inst(pc).is_none(), "{pc}");
        }
    }

    /// The fingerprint follows the name: a module renamed after
    /// assembly gets a new identity, and the same shape under the same
    /// name hashes the same.
    #[test]
    fn fingerprint_reads_the_current_name() {
        let mut m = tiny_module();
        let fp = m.fingerprint();
        assert_eq!(tiny_module().fingerprint(), fp);
        m.name.push_str("-v2");
        assert_ne!(m.fingerprint(), fp);
    }

    /// Registers number densely, function after function, and only
    /// registers below a function's `reg_count` get a number.
    #[test]
    fn registers_number_densely_per_function() {
        let m = tiny_module();
        let main = &m.functions()[0];
        assert_eq!(m.reg_slot_count(), main.reg_count as usize);
        for v in 0..main.reg_count {
            assert_eq!(m.reg_slot(main.id, ValueId(v)), Some(v as usize));
        }
        assert_eq!(m.reg_slot(main.id, ValueId(main.reg_count)), None);
        assert_eq!(m.reg_slot(FuncId(7), ValueId(0)), None);
    }

    #[test]
    fn func_lookup_by_name() {
        let m = tiny_module();
        assert!(m.func_by_name("main").is_some());
        assert!(m.func_by_name("absent").is_none());
    }

    #[test]
    fn describe_unknown_pc() {
        let m = tiny_module();
        assert!(m.describe_pc(Pc(0xdead)).contains("<unknown>"));
        let pc = m.functions()[0].entry().insts[0].pc;
        let d = m.describe_pc(pc);
        assert!(d.contains("main"), "{d}");
    }

    #[test]
    fn slot_count_resolves_structs() {
        let mut mb = ModuleBuilder::new("s");
        mb.struct_def(
            "Pair",
            vec![("a".into(), Type::I64), ("b".into(), Type::I64)],
        );
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        assert_eq!(m.slot_count(&Type::Struct("Pair".into())), 2);
        assert_eq!(m.slot_count(&Type::I64), 1);
    }
}
