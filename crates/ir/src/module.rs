//! Module, function, block and global containers.

use crate::entities::{BlockId, FuncId, GlobalId, InstId, QueueId, SemId};
use crate::inst::{Op, Value};
use std::fmt;

/// Integer-only type system. The Twill thesis explicitly does not support
/// values wider than 32 bits (64-bit CHStone benchmarks are excluded), so
/// neither do we. Pointers are 32-bit flat addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Ty {
    Void,
    I1,
    I8,
    I16,
    I32,
    /// 32-bit flat address into the unified memory space.
    Ptr,
}

impl Ty {
    /// Width in bits (pointers are 32-bit).
    pub fn bits(self) -> u32 {
        match self {
            Ty::Void => 0,
            Ty::I1 => 1,
            Ty::I8 => 8,
            Ty::I16 => 16,
            Ty::I32 | Ty::Ptr => 32,
        }
    }

    /// Width in bytes as stored in memory (i1 occupies one byte).
    pub fn bytes(self) -> u32 {
        match self {
            Ty::Void => 0,
            Ty::I1 | Ty::I8 => 1,
            Ty::I16 => 2,
            Ty::I32 | Ty::Ptr => 4,
        }
    }

    /// Mask a raw i64 to this type's width, zero-extended.
    pub fn mask(self, v: i64) -> i64 {
        match self {
            Ty::Void => 0,
            Ty::I1 => v & 1,
            Ty::I8 => v & 0xff,
            Ty::I16 => v & 0xffff,
            Ty::I32 | Ty::Ptr => v & 0xffff_ffff,
        }
    }

    /// Sign-extend a raw value of this width into i64.
    pub fn sext(self, v: i64) -> i64 {
        let b = self.bits();
        if b == 0 || b >= 64 {
            return v;
        }
        let shift = 64 - b;
        (v << shift) >> shift
    }

    pub fn is_int(self) -> bool {
        matches!(self, Ty::I1 | Ty::I8 | Ty::I16 | Ty::I32)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Void => "void",
            Ty::I1 => "i1",
            Ty::I8 => "i8",
            Ty::I16 => "i16",
            Ty::I32 => "i32",
            Ty::Ptr => "ptr",
        };
        f.write_str(s)
    }
}

/// A basic block: an ordered list of instruction ids whose last element is a
/// terminator. PHI instructions, when present, are a prefix of the list.
#[derive(Clone, Debug, Default)]
pub struct Block {
    pub name: String,
    pub insts: Vec<InstId>,
}

impl Block {
    pub fn terminator(&self) -> Option<InstId> {
        self.insts.last().copied()
    }
}

/// One instruction: opcode plus result type (`Ty::Void` for valueless ops).
#[derive(Clone, Debug)]
pub struct InstData {
    pub op: Op,
    pub ty: Ty,
}

/// Source location of an instruction: the 1-based line of the C statement
/// or expression it was lowered from. Line 0 ([`SrcLoc::NONE`]) marks
/// compiler-synthesized instructions (edge splits, runtime plumbing).
///
/// Locations live in a side table on [`Function`] parallel to the `insts`
/// arena rather than in [`InstData`], so passes that clone or rewrite
/// `InstData` in place inherit the location for free and only *new*
/// instructions need an explicit decision (DESIGN.md §10).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SrcLoc {
    pub line: u32,
}

impl SrcLoc {
    /// "No location": synthesized by the compiler, not traceable to source.
    pub const NONE: SrcLoc = SrcLoc { line: 0 };

    pub fn new(line: u32) -> SrcLoc {
        SrcLoc { line }
    }

    pub fn is_none(self) -> bool {
        self.line == 0
    }

    pub fn is_some(self) -> bool {
        self.line != 0
    }
}

/// A function definition. Instructions live in the `insts` arena and are
/// referenced from blocks by id; dead arena slots (after edits) are tolerated
/// and skipped by iteration helpers.
#[derive(Clone, Debug)]
pub struct Function {
    pub name: String,
    pub params: Vec<Ty>,
    pub ret: Ty,
    pub blocks: Vec<Block>,
    pub insts: Vec<InstData>,
    /// Source-location side table, parallel to `insts` (same indices).
    /// May lag `insts` in length for hand-built functions; [`Function::loc`]
    /// treats missing entries as [`SrcLoc::NONE`].
    pub locs: Vec<SrcLoc>,
    pub entry: BlockId,
}

impl Function {
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Ty) -> Self {
        Function {
            name: name.into(),
            params,
            ret,
            blocks: Vec::new(),
            insts: Vec::new(),
            locs: Vec::new(),
            entry: BlockId(0),
        }
    }

    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.index()]
    }

    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        &mut self.insts[id.index()]
    }

    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Ids of all blocks in arena order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Iterate `(BlockId, InstId)` over every instruction in layout order.
    pub fn inst_ids_in_layout(&self) -> Vec<(BlockId, InstId)> {
        let mut v = Vec::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            for &i in &b.insts {
                v.push((BlockId::new(bi), i));
            }
        }
        v
    }

    /// The type of a value in the context of this function.
    pub fn value_ty(&self, v: Value) -> Ty {
        match v {
            Value::Inst(i) => self.inst(i).ty,
            Value::Arg(n) => self.params.get(n as usize).copied().unwrap_or(Ty::I32),
            Value::Imm(_, t) => t,
        }
    }

    /// Successor blocks of `b` (from its terminator).
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match self.block(b).terminator() {
            Some(t) => self.inst(t).op.successors(),
            None => Vec::new(),
        }
    }

    /// Compute the full predecessor table (index = block id).
    ///
    /// A block appears once per incoming *edge*, so a `condbr` with both
    /// targets equal contributes two entries.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = Vec::new();
        self.fill_predecessors(&mut preds);
        preds
    }

    /// [`Function::predecessors`] into `preds`, reusing its buffers (for
    /// passes that recompute the table after every edit). Each list is in
    /// block order; a block without a terminator contributes no edges.
    pub fn fill_predecessors(&self, preds: &mut Vec<Vec<BlockId>>) {
        preds.resize_with(self.blocks.len(), Vec::new);
        preds.iter_mut().for_each(Vec::clear);
        for (b, blk) in self.blocks.iter().enumerate() {
            if let Some(t) = blk.terminator() {
                self.inst(t).op.for_each_successor(|s| preds[s.index()].push(BlockId::new(b)));
            }
        }
    }

    /// Which block contains each live instruction (index = inst id).
    pub fn inst_blocks(&self) -> Vec<Option<BlockId>> {
        let mut owner = vec![None; self.insts.len()];
        for (b, i) in self.inst_ids_in_layout() {
            owner[i.index()] = Some(b);
        }
        owner
    }

    /// Append a fresh instruction to the arena (not yet placed in a block).
    /// The instruction starts with no source location; use
    /// [`Function::create_inst_at`] or [`Function::set_loc`] to attach one.
    pub fn create_inst(&mut self, op: Op, ty: Ty) -> InstId {
        self.create_inst_at(op, ty, SrcLoc::NONE)
    }

    /// [`Function::create_inst`] with an explicit source location.
    pub fn create_inst_at(&mut self, op: Op, ty: Ty, loc: SrcLoc) -> InstId {
        let id = InstId::new(self.insts.len());
        self.insts.push(InstData { op, ty });
        self.locs.resize(self.insts.len() - 1, SrcLoc::NONE);
        self.locs.push(loc);
        id
    }

    /// Source location of an instruction ([`SrcLoc::NONE`] if untracked).
    pub fn loc(&self, id: InstId) -> SrcLoc {
        self.locs.get(id.index()).copied().unwrap_or(SrcLoc::NONE)
    }

    /// Set an instruction's source location (grows the side table if the
    /// function was built without one).
    pub fn set_loc(&mut self, id: InstId, loc: SrcLoc) {
        if self.locs.len() < self.insts.len() {
            self.locs.resize(self.insts.len(), SrcLoc::NONE);
        }
        self.locs[id.index()] = loc;
    }

    /// The set of distinct source lines referenced by live instructions
    /// (used by tests to check that passes never invent locations).
    pub fn live_loc_lines(&self) -> std::collections::BTreeSet<u32> {
        self.inst_ids_in_layout()
            .into_iter()
            .map(|(_, i)| self.loc(i).line)
            .filter(|&l| l != 0)
            .collect()
    }

    /// Append a fresh empty block.
    pub fn create_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(Block { name: name.into(), insts: Vec::new() });
        id
    }

    /// Replace every use of value `from` with `to` across all instructions.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        for inst in &mut self.insts {
            inst.op.for_each_value_mut(|v| {
                if *v == from {
                    *v = to;
                }
            });
        }
    }

    /// Number of live (block-resident) instructions.
    pub fn live_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// Queue element width + depth, configured statically by the DSWP pass
/// (thesis §4.3: widths 1/8/16/32 bits, per-queue depth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueDecl {
    pub width: Ty,
    pub depth: u32,
}

/// Counting semaphore configuration (thesis §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SemDecl {
    pub max: u32,
    pub initial: u32,
}

/// A module global: raw bytes plus assigned address after layout.
#[derive(Clone, Debug)]
pub struct Global {
    pub name: String,
    pub size: u32,
    /// Initial bytes; zero-filled to `size` if shorter.
    pub init: Vec<u8>,
    /// Flat address assigned by [`crate::layout::assign_global_addrs`].
    pub addr: u32,
    pub is_const: bool,
}

/// A whole program: functions, globals, and the statically-declared runtime
/// resources (queues/semaphores created by DSWP).
#[derive(Clone, Debug, Default)]
pub struct Module {
    pub name: String,
    pub funcs: Vec<Function>,
    pub globals: Vec<Global>,
    pub queues: Vec<QueueDecl>,
    pub sems: Vec<SemDecl>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), ..Default::default() }
    }

    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.funcs.len()).map(FuncId::new)
    }

    pub fn find_func(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(FuncId::new)
    }

    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId::new(self.funcs.len());
        self.funcs.push(f);
        id
    }

    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId::new(self.globals.len());
        self.globals.push(g);
        id
    }

    pub fn find_global(&self, name: &str) -> Option<GlobalId> {
        self.globals.iter().position(|g| g.name == name).map(GlobalId::new)
    }

    pub fn add_queue(&mut self, q: QueueDecl) -> QueueId {
        let id = QueueId::new(self.queues.len());
        self.queues.push(q);
        id
    }

    pub fn add_sem(&mut self, s: SemDecl) -> SemId {
        let id = SemId::new(self.sems.len());
        self.sems.push(s);
        id
    }

    /// Total live instructions across all functions (program size metric).
    pub fn total_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.live_inst_count()).sum()
    }

    /// If `addr` provably addresses a constant global (directly or through
    /// gep/cast/pointer-add chains), return it. Constant globals stay local
    /// to each hardware thread as ROMs (thesis §5.2's constant-global
    /// exemption from the unified address space).
    pub fn const_global_base(&self, f: &Function, addr: Value) -> Option<GlobalId> {
        let mut v = addr;
        for _ in 0..16 {
            match v {
                Value::Inst(i) => match &f.inst(i).op {
                    Op::GlobalAddr(g) => {
                        return if self.global(*g).is_const { Some(*g) } else { None };
                    }
                    Op::Gep(base, _, _) => v = *base,
                    Op::Cast(_, inner) => v = *inner,
                    Op::Bin(crate::inst::BinOp::Add | crate::inst::BinOp::Sub, a, b) => {
                        // Pointer arithmetic: follow the pointer side.
                        if f.value_ty(*a) == Ty::Ptr {
                            v = *a;
                        } else if f.value_ty(*b) == Ty::Ptr {
                            v = *b;
                        } else {
                            return None;
                        }
                    }
                    _ => return None,
                },
                _ => return None,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Op, Value};

    #[test]
    fn ty_mask_and_sext() {
        assert_eq!(Ty::I8.mask(0x1ff), 0xff);
        assert_eq!(Ty::I8.sext(0xff), -1);
        assert_eq!(Ty::I16.sext(0x8000), -32768);
        assert_eq!(Ty::I32.mask(-1), 0xffff_ffff);
        assert_eq!(Ty::I32.sext(0xffff_ffff), -1);
        assert_eq!(Ty::I1.mask(3), 1);
        assert_eq!(Ty::I1.sext(1), -1);
    }

    #[test]
    fn ty_sizes() {
        assert_eq!(Ty::I1.bytes(), 1);
        assert_eq!(Ty::I16.bytes(), 2);
        assert_eq!(Ty::Ptr.bytes(), 4);
        assert_eq!(Ty::Ptr.bits(), 32);
        assert_eq!(Ty::Void.bytes(), 0);
    }

    fn tiny_fn() -> Function {
        let mut f = Function::new("t", vec![Ty::I32], Ty::I32);
        let b0 = f.create_block("entry");
        let b1 = f.create_block("exit");
        let add = f.create_inst(Op::Bin(BinOp::Add, Value::Arg(0), Value::imm32(1)), Ty::I32);
        let br = f.create_inst(Op::Br(b1), Ty::Void);
        let ret = f.create_inst(Op::Ret(Some(Value::Inst(add))), Ty::Void);
        f.block_mut(b0).insts = vec![add, br];
        f.block_mut(b1).insts = vec![ret];
        f
    }

    #[test]
    fn cfg_queries() {
        let f = tiny_fn();
        assert_eq!(f.successors(BlockId(0)), vec![BlockId(1)]);
        let preds = f.predecessors();
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert!(preds[0].is_empty());
        assert_eq!(f.live_inst_count(), 3);
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = tiny_fn();
        f.replace_all_uses(Value::Arg(0), Value::imm32(7));
        let add = &f.inst(InstId(0)).op;
        assert_eq!(add.values()[0], Value::imm32(7));
    }

    #[test]
    fn condbr_same_target_counts_two_pred_edges() {
        let mut f = Function::new("t", vec![], Ty::Void);
        let b0 = f.create_block("entry");
        let b1 = f.create_block("next");
        let cb = f.create_inst(Op::CondBr(Value::imm1(true), b1, b1), Ty::Void);
        let ret = f.create_inst(Op::Ret(None), Ty::Void);
        f.block_mut(b0).insts = vec![cb];
        f.block_mut(b1).insts = vec![ret];
        let preds = f.predecessors();
        assert_eq!(preds[1].len(), 2);
    }

    #[test]
    fn loc_side_table_tracks_arena() {
        let mut f = Function::new("t", vec![], Ty::Void);
        let a = f.create_inst(Op::Ret(None), Ty::Void);
        let b = f.create_inst_at(Op::Ret(None), Ty::Void, SrcLoc::new(7));
        assert!(f.loc(a).is_none());
        assert_eq!(f.loc(b).line, 7);
        f.set_loc(a, SrcLoc::new(3));
        assert_eq!(f.loc(a).line, 3);
        // A function built without a table tolerates queries and late sets.
        let mut bare = Function::new("u", vec![], Ty::Void);
        bare.insts.push(InstData { op: Op::Ret(None), ty: Ty::Void });
        assert!(bare.loc(InstId(0)).is_none());
        bare.set_loc(InstId(0), SrcLoc::new(9));
        assert_eq!(bare.loc(InstId(0)).line, 9);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new("m");
        let f = Function::new("main", vec![], Ty::Void);
        let id = m.add_func(f);
        assert_eq!(m.find_func("main"), Some(id));
        assert_eq!(m.find_func("nope"), None);
        let g = m.add_global(Global {
            name: "tbl".into(),
            size: 16,
            init: vec![1, 2],
            addr: 0,
            is_const: true,
        });
        assert_eq!(m.find_global("tbl"), Some(g));
        let q = m.add_queue(QueueDecl { width: Ty::I32, depth: 8 });
        assert_eq!(q.index(), 0);
    }
}
