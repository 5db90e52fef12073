//! Inclusion-based (Andersen-style) points-to analysis.
//!
//! Implements the constraint rules of the paper's Figure 3, extended
//! with field sensitivity, interprocedural parameter/return flow, and
//! on-the-fly resolution of indirect calls through function-pointer
//! points-to sets. The analysis is *flow insensitive* by design: in a
//! multithreaded program instructions from different threads interleave
//! arbitrarily, so instruction order cannot be trusted (§4.2); Lazy
//! Diagnosis reintroduces order only between target events, later, from
//! trace timing.
//!
//! **Scope restriction**: when given the executed-instruction set from a
//! control-flow trace, constraints are generated only from executed
//! instructions. This is the "hybrid" in hybrid points-to analysis — the
//! solved system is roughly an order of magnitude smaller (the paper
//! reports 9× on average) while remaining sound *for the executions
//! observed*, which is what root-cause diagnosis needs.
//!
//! Constraint generation is factored into a *pure* per-instruction step
//! ([`inst_constraint_ops`]) producing module-independent
//! [`ConstraintOp`]s, so the incremental cache in
//! [`crate::incremental`] can memoize per-function constraint recipes
//! and replay only a scope *delta* on top of a previously solved
//! system. Because the solved system is the least fixpoint of a
//! monotone constraint set, replaying a delta over a solved base yields
//! exactly the sets a from-scratch solve of the union produces.
//!
//! **Representation.** A scoped solve is small (a benchmark report's
//! ~355 executed PCs give ~180 variables and a few dozen propagations),
//! so its cost is bookkeeping, not the fixpoint. Variables the module
//! can number densely (registers by [`Module::reg_slot`], allocation
//! sites by [`Module::pc_slot`], globals and functions by id) index a
//! flat table; the rest (field locations) go through a multiply-rotate
//! hash map. The flat table is lent from one per thread whose entries
//! are all unset between solves, and a solver unsets only the entries
//! it set, so a solve costs what its scope costs, whatever the module's
//! size. Points-to sets, pending deltas and successor lists are
//! sorted vectors that stay inline while they hold one element, complex
//! constraints live in one arena, and each instruction's ops go into one
//! reused buffer. The solved [`PointsTo`] is flat: one index of
//! registers with their offsets, one buffer of locations.

use crate::fasthash::FastMap;
use crate::loc::{Loc, PtsSet, PtsView};
use lazy_ir::{BinOp, FuncId, Inst, InstKind, Module, Operand, Pc, ValueId};
use std::cell::Cell;
use std::collections::HashSet;

/// A constraint variable. Identified by program structure only (no
/// solver-run-local ids), so constraint recipes can be cached across
/// independent solver runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Var {
    /// A virtual register of a function.
    Reg(FuncId, ValueId),
    /// The contents of an abstract location (what is stored there).
    Contents(Loc),
    /// A function's return value.
    Ret(FuncId),
    /// A synthetic variable pre-seeded with one location (for non-
    /// register operands such as `@global` or `@func`).
    Const(Loc),
}

/// One primitive constraint, in variable (not solver-id) terms — the
/// unit the per-function recipe cache stores and replays.
#[derive(Clone, Debug)]
pub(crate) enum ConstraintOp {
    /// `v ∋ loc` from an allocation site — rule (1) of Figure 3.
    AddrOf(Var, Loc),
    /// `v ∋ loc` seeded structurally (field of a global); not counted
    /// as a generated constraint, matching the direct path.
    SeedLoc(Var, Loc),
    /// `dst ⊇ src` — rule (2) of Figure 3.
    Edge(Var, Var),
    /// `dst ⊇ *ptr` — rule (4).
    Load(Var, Var),
    /// `*ptr ⊇ src` — rule (3).
    Store(Var, Var),
    /// `dst ⊇ base.field(offset)` — field-sensitive addressing.
    Field(Var, Var, usize),
    /// Indirect call through a function pointer.
    CallThrough {
        /// The callee function-pointer variable.
        callee: Var,
        /// Argument variables (`None` for non-pointer constants).
        args: Vec<Option<Var>>,
        /// The call's result variable.
        result: Var,
    },
}

/// Maps an operand to a constraint variable (`None` for non-pointer
/// constants).
fn op_as_var(func: FuncId, op: &Operand) -> Option<Var> {
    match op {
        Operand::Reg(v) => Some(Var::Reg(func, *v)),
        Operand::Global(g) => Some(Var::Const(Loc::Global(*g))),
        Operand::Func(f) => Some(Var::Const(Loc::Func(*f))),
        Operand::ConstInt(_) | Operand::Null => None,
    }
}

fn field_offset_slots(module: &Module, strukt: &str, field: usize) -> usize {
    let def = module.struct_def(strukt).expect("verified struct");
    def.fields[..field]
        .iter()
        .map(|(_, t)| module.slot_count(t) as usize)
        .sum()
}

/// The pure constraint-generation step for one instruction: appends its
/// ops to `ops`.
///
/// Returns `false` when the instruction is irrelevant to points-to
/// analysis (nothing appended); `true` (with possibly no ops) when it is
/// analyzed. The ops depend only on the instruction and the module's
/// type table, never on solver state or scope — which is what makes
/// per-function memoization sound.
pub(crate) fn inst_constraint_ops(
    module: &Module,
    fid: FuncId,
    inst: &Inst,
    ops: &mut Vec<ConstraintOp>,
) -> bool {
    let res = || Var::Reg(fid, inst.result.expect("result"));
    let flow = |ops: &mut Vec<ConstraintOp>, src: &Operand, dst: Var| {
        if let Some(s) = op_as_var(fid, src) {
            ops.push(ConstraintOp::Edge(s, dst));
        }
    };
    match &inst.kind {
        InstKind::Alloca { .. } | InstKind::HeapAlloc { .. } => {
            ops.push(ConstraintOp::AddrOf(res(), Loc::Site(inst.pc)));
        }
        InstKind::Copy { src } => flow(ops, src, res()),
        InstKind::IndexAddr { base, .. } => flow(ops, base, res()),
        InstKind::FieldAddr {
            base,
            strukt,
            field,
        } => {
            let off = field_offset_slots(module, strukt, *field);
            match base {
                Operand::Reg(v) => {
                    ops.push(ConstraintOp::Field(Var::Reg(fid, *v), res(), off));
                }
                Operand::Global(g) => {
                    ops.push(ConstraintOp::SeedLoc(res(), Loc::Global(*g).offset_by(off)));
                }
                _ => {}
            }
        }
        InstKind::Bin {
            op: BinOp::Add | BinOp::Sub,
            lhs,
            rhs,
        } => {
            // Pointer arithmetic: conservative flow from both sides.
            flow(ops, lhs, res());
            flow(ops, rhs, res());
        }
        InstKind::Load { ptr, .. } => match ptr {
            Operand::Reg(v) => ops.push(ConstraintOp::Load(Var::Reg(fid, *v), res())),
            Operand::Global(g) => {
                ops.push(ConstraintOp::Edge(Var::Contents(Loc::Global(*g)), res()));
            }
            _ => {}
        },
        InstKind::Store { ptr, value, .. } => {
            if let Some(val) = op_as_var(fid, value) {
                match ptr {
                    Operand::Reg(v) => ops.push(ConstraintOp::Store(Var::Reg(fid, *v), val)),
                    Operand::Global(g) => {
                        ops.push(ConstraintOp::Edge(val, Var::Contents(Loc::Global(*g))));
                    }
                    _ => {}
                }
            }
        }
        InstKind::Call { callee, args } => {
            for (i, a) in args.iter().enumerate() {
                flow(ops, a, Var::Reg(*callee, ValueId(i as u32)));
            }
            ops.push(ConstraintOp::Edge(Var::Ret(*callee), res()));
        }
        InstKind::CallIndirect { callee, args } => match callee {
            Operand::Reg(v) => ops.push(ConstraintOp::CallThrough {
                callee: Var::Reg(fid, *v),
                args: args.iter().map(|a| op_as_var(fid, a)).collect(),
                result: res(),
            }),
            Operand::Func(f) => {
                for (i, a) in args.iter().enumerate() {
                    flow(ops, a, Var::Reg(*f, ValueId(i as u32)));
                }
                ops.push(ConstraintOp::Edge(Var::Ret(*f), res()));
            }
            _ => {}
        },
        InstKind::Ret { value: Some(v) } => flow(ops, v, Var::Ret(fid)),
        InstKind::ThreadSpawn { func: f, arg } => {
            flow(ops, arg, Var::Reg(*f, ValueId(0)));
        }
        _ => return false,
    }
    true
}

/// End of a list in the complex-constraint arena, and an unnumbered
/// slot in the dense variable table.
const NIL: u32 = u32::MAX;

/// A complex (pointer-indirected) constraint attached to a variable.
#[derive(Clone, Copy, Debug)]
enum Complex {
    /// `dst ⊇ *v` — rule (4) of Figure 3.
    LoadInto(u32),
    /// `*v ⊇ src` — rule (3) of Figure 3.
    StoreFrom(u32),
    /// `dst ⊇ v.field(offset)` — field-sensitive address computation.
    FieldInto(u32, usize),
    /// Indirect call through `v`: wire arguments and result to each
    /// function location that flows into `v`. The arguments are
    /// `call_args[start..start + len]` of the solver state.
    CallThrough { start: u32, len: u32, result: u32 },
}

/// A sorted set of `Copy` elements that stays inline while it holds at
/// most one: most of a scoped solve's points-to sets, deltas and
/// successor lists never hold more, so they never allocate.
#[derive(Clone, Debug, Default)]
enum SmallSet<T> {
    #[default]
    Empty,
    One(T),
    Many(Vec<T>),
}

impl<T: Copy + Ord> SmallSet<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            SmallSet::Empty => &[],
            SmallSet::One(x) => std::slice::from_ref(x),
            SmallSet::Many(xs) => xs,
        }
    }

    /// Inserts `x`; returns whether it was new.
    fn insert(&mut self, x: T) -> bool {
        match self {
            SmallSet::Empty => *self = SmallSet::One(x),
            SmallSet::One(y) => {
                if *y == x {
                    return false;
                }
                let y = *y;
                *self = SmallSet::Many(if y < x { vec![y, x] } else { vec![x, y] });
            }
            SmallSet::Many(xs) => match xs.binary_search(&x) {
                Ok(_) => return false,
                Err(at) => xs.insert(at, x),
            },
        }
        true
    }

    /// Appends to `out` the elements of ascending `add` missing from the
    /// set, in one merge walk.
    fn missing(&self, add: &[T], out: &mut Vec<T>) {
        let mut rest = self.as_slice().iter().peekable();
        for &x in add {
            while rest.next_if(|&&h| h < x).is_some() {}
            if rest.peek() != Some(&&x) {
                out.push(x);
            }
        }
    }

    /// Merges ascending `add`, none of whose elements is in the set, in
    /// one backward pass.
    fn merge_disjoint(&mut self, add: &[T]) {
        match (&mut *self, add) {
            (_, []) => {}
            (SmallSet::Empty, &[x]) => *self = SmallSet::One(x),
            (SmallSet::Many(have), _) => {
                let (mut i, mut j) = (have.len(), add.len());
                have.extend_from_slice(add);
                while j > 0 {
                    let w = i + j - 1;
                    if i > 0 && have[i - 1] > add[j - 1] {
                        have[w] = have[i - 1];
                        i -= 1;
                    } else {
                        have[w] = add[j - 1];
                        j -= 1;
                    }
                }
            }
            _ => {
                let mut all = Vec::with_capacity(self.as_slice().len() + add.len());
                all.extend_from_slice(self.as_slice());
                all.extend_from_slice(add);
                all.sort_unstable();
                *self = SmallSet::Many(all);
            }
        }
    }

    /// Moves the elements into `out` and empties the set, keeping a
    /// spilled buffer's capacity.
    fn drain_into(&mut self, out: &mut Vec<T>) {
        match self {
            SmallSet::Empty => {}
            SmallSet::One(x) => {
                out.push(*x);
                *self = SmallSet::Empty;
            }
            SmallSet::Many(xs) => {
                out.extend_from_slice(xs);
                xs.clear();
            }
        }
    }
}

/// One constraint variable's solver state.
#[derive(Clone, Debug)]
struct Node {
    pts: SmallSet<Loc>,
    /// Locations in `pts` not yet propagated (difference propagation).
    dirty: SmallSet<Loc>,
    succs: SmallSet<u32>,
    /// Head of this variable's list in [`SolverState::complex`].
    complex: u32,
    queued: bool,
}

impl Node {
    const NEW: Node = Node {
        pts: SmallSet::Empty,
        dirty: SmallSet::Empty,
        succs: SmallSet::Empty,
        complex: NIL,
        queued: false,
    };
}

/// Counters describing one analysis run (used by Table 4 / Figure 7
/// harnesses to report work reduction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Instructions that generated constraints.
    pub insts_analyzed: usize,
    /// Constraint variables created.
    pub vars: usize,
    /// Base constraints generated (copy edges + complex + addr-of).
    pub constraints: usize,
    /// Location propagations performed by the solver (work measure).
    pub propagations: u64,
}

/// A solved points-to analysis: each register's set, flat. `index`
/// lists the registers with a nonempty set, ascending by
/// `(func << 32) | value`, each with the end of its run in `locs`; the
/// run starts where the previous register's ends. Cloning or dropping
/// one costs two buffers however many variables were solved.
#[derive(Clone, Debug)]
pub struct PointsTo {
    index: Vec<(u64, u32)>,
    locs: Vec<Loc>,
    stats: AnalysisStats,
}

/// The resting state of a solved (or about-to-be-solved) constraint
/// system, detached from the module borrow so the incremental cache can
/// store and clone it between solver runs. The worklist is not part of
/// the state: a solved system's worklist is empty and its dirty sets
/// are drained. Nor is the variable table, which a resumed solver
/// rebuilds from `vars`.
#[derive(Clone, Default)]
pub(crate) struct SolverState {
    /// Solver id → variable.
    vars: Vec<Var>,
    nodes: Vec<Node>,
    /// Complex constraints, each with the index of the next one on its
    /// variable's list.
    complex: Vec<(Complex, u32)>,
    /// Argument variables of the `CallThrough` constraints.
    call_args: Vec<Option<u32>>,
    stats: AnalysisStats,
}

thread_local! {
    /// The dense half of the [`VarTable`]s built on this thread, lent to
    /// one table at a time. Between solves every entry is [`NIL`]: a
    /// table clears exactly the entries it set when it is dropped. So a
    /// solve pays for the variables its scope makes, not for the size
    /// of the module, once the thread has grown the buffer to the
    /// largest module it has solved over.
    static DENSE: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// Variable → solver id. The variables a module places index `dense`
/// (see [`VarTable::dense_index`]); the others, field contents and
/// registers past their function's `reg_count`, go through `sparse`.
struct VarTable {
    /// Borrowed from [`DENSE`] and given back on drop.
    dense: Vec<u32>,
    /// The entries of `dense` this table has set, unset again on drop.
    touched: Vec<u32>,
    sparse: FastMap<Var, u32>,
    regs: usize,
    funcs: usize,
    globals: usize,
}

impl VarTable {
    /// An empty table with room for about `vars` dense variables.
    fn new(module: &Module, vars: usize) -> VarTable {
        let (regs, funcs, globals) = (
            module.reg_slot_count(),
            module.functions().len(),
            module.globals().len(),
        );
        let size = regs + 3 * funcs + 2 * globals + module.pc_slot_count();
        let mut dense = DENSE.try_with(Cell::take).unwrap_or_default();
        if dense.len() < size {
            dense.resize(size, NIL);
        }
        VarTable {
            dense,
            touched: Vec::with_capacity(vars),
            sparse: FastMap::default(),
            regs,
            funcs,
            globals,
        }
    }

    /// Numbers dense entry `i` as `id`.
    #[inline]
    fn set_dense(&mut self, i: usize, id: u32) {
        self.dense[i] = id;
        self.touched.push(i as u32);
    }

    /// The dense number of `v`, laid out as registers, returns,
    /// function and global constants, then the contents of functions,
    /// globals and allocation sites.
    #[inline]
    fn dense_index(&self, module: &Module, v: Var) -> Option<usize> {
        let (r, f, g) = (self.regs, self.funcs, self.globals);
        let below = |id: u32, n: usize| ((id as usize) < n).then_some(id as usize);
        match v {
            Var::Reg(func, value) => module.reg_slot(func, value),
            Var::Ret(func) => below(func.0, f).map(|i| r + i),
            Var::Const(Loc::Func(func)) => below(func.0, f).map(|i| r + f + i),
            Var::Const(Loc::Global(gid)) => below(gid.0, g).map(|i| r + 2 * f + i),
            Var::Contents(Loc::Func(func)) => below(func.0, f).map(|i| r + 2 * f + g + i),
            Var::Contents(Loc::Global(gid)) => below(gid.0, g).map(|i| r + 3 * f + g + i),
            Var::Contents(Loc::Site(pc)) => module.pc_slot(pc).map(|s| r + 3 * f + 2 * g + s),
            _ => None,
        }
    }
}

impl Drop for VarTable {
    fn drop(&mut self) {
        for &i in &self.touched {
            self.dense[i as usize] = NIL;
        }
        let dense = std::mem::take(&mut self.dense);
        let _ = DENSE.try_with(|lent| lent.set(dense));
    }
}

pub(crate) struct Solver<'m> {
    module: &'m Module,
    table: VarTable,
    st: SolverState,
    /// Variables with pending deltas, popped last-in first-out: a
    /// location arriving at the head of a copy chain then travels down
    /// it together with the others that arrive meanwhile, where
    /// first-in first-out sends each down on its own (one pop per
    /// propagation on whole-program `mysql-3596`, against one per 70).
    /// The fixpoint and every counter are the same either way.
    worklist: Vec<u32>,
    /// The delta being propagated, reused across worklist pops.
    delta: Vec<Loc>,
    /// Known locations a new constraint applies to, reused.
    known: Vec<Loc>,
    /// A new edge's source set, reused.
    flowing: Vec<Loc>,
    /// The locations one propagation adds, reused.
    fresh: Vec<Loc>,
    /// One instruction's constraint ops, reused across instructions.
    ops: Vec<ConstraintOp>,
}

impl<'m> Solver<'m> {
    /// A solver with room for about `vars` variables before it grows.
    pub(crate) fn new(module: &'m Module, vars: usize) -> Solver<'m> {
        let mut st = SolverState::default();
        st.vars.reserve(vars);
        st.nodes.reserve(vars);
        Solver::with_table(module, VarTable::new(module, vars), st)
    }

    /// Resumes a solver over a previously solved state (the incremental
    /// path). New constraints may be applied on top; monotonicity makes
    /// the final fixpoint identical to a from-scratch solve of the
    /// union.
    pub(crate) fn from_state(module: &'m Module, st: SolverState) -> Solver<'m> {
        let mut table = VarTable::new(module, st.vars.len());
        for (id, &v) in st.vars.iter().enumerate() {
            match table.dense_index(module, v) {
                Some(i) => table.set_dense(i, id as u32),
                None => {
                    table.sparse.insert(v, id as u32);
                }
            }
        }
        Solver::with_table(module, table, st)
    }

    fn with_table(module: &'m Module, table: VarTable, st: SolverState) -> Solver<'m> {
        Solver {
            module,
            table,
            st,
            worklist: Vec::new(),
            delta: Vec::new(),
            known: Vec::new(),
            flowing: Vec::new(),
            fresh: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Detaches the solved state for caching. Must be called only after
    /// [`Solver::solve`] (the worklist must be empty).
    pub(crate) fn into_state(self) -> SolverState {
        debug_assert!(self.worklist.is_empty(), "state captured mid-solve");
        self.st
    }

    fn var(&mut self, v: Var) -> u32 {
        let next = self.st.vars.len() as u32;
        // One match with early returns: the same lookup behind a
        // `VarTable` method returning the id for this caller to compare
        // made a benchmark scoped solve ~20% slower.
        match self.table.dense_index(self.module, v) {
            Some(i) if self.table.dense[i] != NIL => return self.table.dense[i],
            Some(i) => self.table.set_dense(i, next),
            None => {
                let id = *self.table.sparse.entry(v).or_insert(next);
                if id != next {
                    return id;
                }
            }
        }
        self.st.vars.push(v);
        self.st.nodes.push(Node::NEW);
        if let Var::Const(loc) = v {
            self.add_loc(next, loc);
        }
        next
    }

    fn add_loc(&mut self, v: u32, loc: Loc) {
        let node = &mut self.st.nodes[v as usize];
        if node.pts.insert(loc) {
            node.dirty.insert(loc);
            self.st.stats.propagations += 1;
            if !node.queued {
                node.queued = true;
                self.worklist.push(v);
            }
        }
    }

    /// Adds the ascending locations `locs` to `v`'s set as one merge,
    /// counting and queueing those that are new.
    fn add_locs(&mut self, v: u32, locs: &[Loc]) {
        let node = &mut self.st.nodes[v as usize];
        self.fresh.clear();
        node.pts.missing(locs, &mut self.fresh);
        if self.fresh.is_empty() {
            return;
        }
        node.pts.merge_disjoint(&self.fresh);
        node.dirty.merge_disjoint(&self.fresh);
        self.st.stats.propagations += self.fresh.len() as u64;
        if !node.queued {
            node.queued = true;
            self.worklist.push(v);
        }
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        if from == to || !self.st.nodes[from as usize].succs.insert(to) {
            return;
        }
        self.st.stats.constraints += 1;
        // Propagate everything already known.
        let mut flowing = std::mem::take(&mut self.flowing);
        flowing.clear();
        flowing.extend_from_slice(self.st.nodes[from as usize].pts.as_slice());
        self.add_locs(to, &flowing);
        self.flowing = flowing;
    }

    fn add_complex(&mut self, on: u32, c: Complex) {
        self.st.stats.constraints += 1;
        // Apply retroactively to already-known locations: a snapshot,
        // since applying may grow `on`'s own set.
        let mut known = std::mem::take(&mut self.known);
        known.clear();
        known.extend_from_slice(self.st.nodes[on as usize].pts.as_slice());
        for &l in &known {
            self.apply_complex(c, l);
        }
        self.known = known;
        let node = &mut self.st.nodes[on as usize];
        self.st.complex.push((c, node.complex));
        node.complex = (self.st.complex.len() - 1) as u32;
    }

    fn apply_complex(&mut self, c: Complex, loc: Loc) {
        match c {
            Complex::LoadInto(dst) => {
                let contents = self.var(Var::Contents(loc));
                self.add_edge(contents, dst);
            }
            Complex::StoreFrom(src) => {
                let contents = self.var(Var::Contents(loc));
                self.add_edge(src, contents);
            }
            Complex::FieldInto(dst, offset) => {
                self.add_loc(dst, loc.offset_by(offset));
            }
            Complex::CallThrough { start, len, result } => {
                let Some(fid) = loc.as_func() else {
                    return;
                };
                if self.module.func(fid).params.len() != len as usize {
                    return;
                }
                for i in 0..len {
                    if let Some(a) = self.st.call_args[(start + i) as usize] {
                        let p = self.var(Var::Reg(fid, ValueId(i)));
                        self.add_edge(a, p);
                    }
                }
                let ret = self.var(Var::Ret(fid));
                self.add_edge(ret, result);
            }
        }
    }

    /// Installs one recipe op into the live constraint system.
    pub(crate) fn apply_op(&mut self, op: &ConstraintOp) {
        match op {
            ConstraintOp::AddrOf(v, loc) => {
                let id = self.var(*v);
                self.st.stats.constraints += 1;
                self.add_loc(id, *loc);
            }
            ConstraintOp::SeedLoc(v, loc) => {
                let id = self.var(*v);
                self.add_loc(id, *loc);
            }
            ConstraintOp::Edge(src, dst) => {
                let s = self.var(*src);
                let d = self.var(*dst);
                self.add_edge(s, d);
            }
            ConstraintOp::Load(ptr, dst) => {
                let p = self.var(*ptr);
                let d = self.var(*dst);
                self.add_complex(p, Complex::LoadInto(d));
            }
            ConstraintOp::Store(ptr, src) => {
                let p = self.var(*ptr);
                let s = self.var(*src);
                self.add_complex(p, Complex::StoreFrom(s));
            }
            ConstraintOp::Field(base, dst, off) => {
                let b = self.var(*base);
                let d = self.var(*dst);
                self.add_complex(b, Complex::FieldInto(d, *off));
            }
            ConstraintOp::CallThrough {
                callee,
                args,
                result,
            } => {
                let c = self.var(*callee);
                let start = self.st.call_args.len() as u32;
                for a in args {
                    let id = a.map(|v| self.var(v));
                    self.st.call_args.push(id);
                }
                let result = self.var(*result);
                let len = args.len() as u32;
                self.add_complex(c, Complex::CallThrough { start, len, result });
            }
        }
    }

    /// Generates and installs constraints for one instruction; returns
    /// `true` if the instruction was analyzed.
    pub(crate) fn gen_inst(&mut self, fid: FuncId, inst: &Inst) -> bool {
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        let analyzed = inst_constraint_ops(self.module, fid, inst, &mut ops);
        if analyzed {
            self.st.stats.insts_analyzed += 1;
            for op in &ops {
                self.apply_op(op);
            }
        }
        self.ops = ops;
        analyzed
    }

    /// Installs the constraints of every instruction in `scope` (the
    /// whole module for `None`). A scope is walked in the order given
    /// through the PC map, so its cost follows the scope, not the
    /// module; ascending PC order is the module's own layout order and
    /// the order `PointsToCache` replays in.
    fn gen_constraints(&mut self, scope: Option<&[Pc]>) {
        let module = self.module;
        let Some(scope) = scope else {
            for func in module.functions() {
                for inst in func.insts() {
                    self.gen_inst(func.id, inst);
                }
            }
            return;
        };
        for &pc in scope {
            if let (Some(loc), Some(inst)) = (module.loc_of_pc(pc), module.inst(pc)) {
                self.gen_inst(loc.func, inst);
            }
        }
    }

    pub(crate) fn solve(&mut self) {
        let mut delta = std::mem::take(&mut self.delta);
        while let Some(v) = self.worklist.pop() {
            let node = &mut self.st.nodes[v as usize];
            node.queued = false;
            delta.clear();
            node.dirty.drain_into(&mut delta);
            if delta.is_empty() {
                continue;
            }
            // Apply complex constraints to the new locations. Applying
            // one never adds a complex constraint, so the list can be
            // walked while the system grows.
            let mut c = node.complex;
            while c != NIL {
                let (cx, next) = self.st.complex[c as usize];
                for &l in &delta {
                    self.apply_complex(cx, l);
                }
                c = next;
            }
            // Propagate along copy edges. Adding locations adds no
            // edge, so the list is stable while it is walked.
            for i in 0..self.st.nodes[v as usize].succs.as_slice().len() {
                let s = self.st.nodes[v as usize].succs.as_slice()[i];
                self.add_locs(s, &delta);
            }
        }
        self.delta = delta;
    }

    /// Counts the instructions this solver has analyzed so far.
    pub(crate) fn note_analyzed(&mut self, n: usize) {
        self.st.stats.insts_analyzed += n;
    }
}

/// The index key of register `value` of `func`.
fn reg_key(func: FuncId, value: ValueId) -> u64 {
    (u64::from(func.0) << 32) | u64::from(value.0)
}

impl SolverState {
    /// Builds the queryable result (shared between the direct and
    /// incremental paths); the state stays usable as a delta base.
    pub(crate) fn points_to(&self) -> PointsTo {
        let mut stats = self.stats;
        stats.vars = self.vars.len();
        // Pass 1 lists each register with a nonempty set by solver id;
        // pass 2 replaces the id with the end of its run of locations.
        let mut index: Vec<(u64, u32)> = self
            .vars
            .iter()
            .zip(&self.nodes)
            .enumerate()
            .filter_map(|(id, (v, node))| match v {
                Var::Reg(f, r) if !node.pts.as_slice().is_empty() => {
                    Some((reg_key(*f, *r), id as u32))
                }
                _ => None,
            })
            .collect();
        index.sort_unstable_by_key(|&(key, _)| key);
        let total = index
            .iter()
            .map(|&(_, id)| self.nodes[id as usize].pts.as_slice().len())
            .sum();
        let mut locs = Vec::with_capacity(total);
        for entry in &mut index {
            locs.extend_from_slice(self.nodes[entry.1 as usize].pts.as_slice());
            entry.1 = locs.len() as u32;
        }
        PointsTo { index, locs, stats }
    }
}

impl PointsTo {
    /// Whole-program analysis: constraints from every instruction.
    ///
    /// # Examples
    ///
    /// ```
    /// use lazy_analysis::{loc::sets_intersect, PointsTo};
    /// use lazy_ir::{ModuleBuilder, Type};
    ///
    /// let mut mb = ModuleBuilder::new("m");
    /// let mut f = mb.function("main", vec![], Type::Void);
    /// let entry = f.entry();
    /// f.switch_to(entry);
    /// let a = f.alloca(Type::I64);
    /// let b = f.alloca(Type::I64);
    /// let alias_of_a = f.copy(a.clone());
    /// f.halt();
    /// f.finish();
    /// let module = mb.finish().unwrap();
    ///
    /// let pts = PointsTo::analyze(&module);
    /// let fid = module.func_by_name("main").unwrap().id;
    /// let pa = pts.pts_of_operand(fid, &a);
    /// assert_eq!(pa, pts.pts_of_operand(fid, &alias_of_a));
    /// assert!(!sets_intersect(&pa, &pts.pts_of_operand(fid, &b)));
    /// ```
    pub fn analyze(module: &Module) -> PointsTo {
        Self::analyze_impl(module, None)
    }

    /// Scope-restricted analysis: constraints only from instructions in
    /// `scope` (the executed set from trace processing).
    pub fn analyze_scoped(module: &Module, scope: &HashSet<Pc>) -> PointsTo {
        let mut pcs: Vec<Pc> = scope.iter().copied().collect();
        pcs.sort_unstable();
        Self::analyze_sorted_scope(module, &pcs)
    }

    /// [`PointsTo::analyze_scoped`] over a scope already listed in
    /// ascending PC order, without a set to build: the same fixpoint
    /// and the same counters.
    pub fn analyze_sorted_scope(module: &Module, scope: &[Pc]) -> PointsTo {
        debug_assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope not ascending");
        let _span = lazy_obs::span!("pointsto.solve");
        lazy_obs::counter!("pointsto.scope_insts_total", scope.len());
        Self::analyze_impl(module, Some(scope))
    }

    fn analyze_impl(module: &Module, scope: Option<&[Pc]>) -> PointsTo {
        // A solve makes about one variable per analyzed instruction.
        let vars = scope.map_or_else(|| module.inst_count(), <[Pc]>::len);
        let mut solver = Solver::new(module, vars);
        solver.gen_constraints(scope);
        solver.solve();
        solver.into_state().points_to()
    }

    /// Analysis counters.
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// The solved set of register `value` of `func`, ascending.
    fn reg_locs(&self, func: FuncId, value: ValueId) -> &[Loc] {
        let key = reg_key(func, value);
        match self.index.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                let start = if i == 0 { 0 } else { self.index[i - 1].1 };
                &self.locs[start as usize..self.index[i].1 as usize]
            }
            Err(_) => &[],
        }
    }

    /// The points-to set of an operand evaluated in `func`, borrowed:
    /// the allocation-free form of [`PointsTo::pts_of_operand`].
    pub fn pts_view_of_operand(&self, func: FuncId, op: &Operand) -> PtsView<'_> {
        match op {
            Operand::Reg(v) => PtsView::Solved(self.reg_locs(func, *v)),
            Operand::Global(g) => PtsView::Named(Loc::Global(*g)),
            Operand::Func(f) => PtsView::Named(Loc::Func(*f)),
            Operand::ConstInt(_) | Operand::Null => PtsView::EMPTY,
        }
    }

    /// The points-to set of an operand evaluated in `func`.
    pub fn pts_of_operand(&self, func: FuncId, op: &Operand) -> PtsSet {
        self.pts_view_of_operand(func, op).to_set()
    }

    /// The points-to set of the pointer operand of the instruction at
    /// `pc`, borrowed: the allocation-free form of
    /// [`PointsTo::pts_of_pointer_at`].
    pub fn pts_view_of_pointer_at(&self, module: &Module, pc: Pc) -> Option<PtsView<'_>> {
        let loc = module.loc_of_pc(pc)?;
        let op = module.inst(pc)?.kind.pointer_operand()?;
        Some(self.pts_view_of_operand(loc.func, op))
    }

    /// The points-to set of the *pointer operand* of the instruction at
    /// `pc` (the operand type-based ranking and candidate selection key
    /// on). Returns `None` for instructions without a pointer operand.
    pub fn pts_of_pointer_at(&self, module: &Module, pc: Pc) -> Option<PtsSet> {
        self.pts_view_of_pointer_at(module, pc).map(|v| v.to_set())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_ir::{ModuleBuilder, Type};

    /// p = &a; q = p; r = &b — pts(q) == {a}, disjoint from pts(r).
    #[test]
    fn addr_of_and_copy() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let a = f.alloca(Type::I64);
        let b = f.alloca(Type::I64);
        let q = f.copy(a.clone());
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pt = PointsTo::analyze(&m);
        let fid = m.func_by_name("main").unwrap().id;
        let pa = pt.pts_of_operand(fid, &a);
        let pq = pt.pts_of_operand(fid, &q);
        let pb = pt.pts_of_operand(fid, &b);
        assert_eq!(pa, pq);
        assert_eq!(pa.len(), 1);
        assert!(!crate::loc::sets_intersect(&pa, &pb));
    }

    /// Store/load through a pointer-to-pointer: q = *pp where *pp = &x.
    #[test]
    fn load_store_indirection() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let x = f.alloca(Type::I64);
        let pp = f.alloca(Type::I64.ptr_to());
        f.store(pp.clone(), x.clone(), Type::I64.ptr_to());
        let q = f.load(pp.clone(), Type::I64.ptr_to());
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pt = PointsTo::analyze(&m);
        let fid = m.func_by_name("main").unwrap().id;
        assert_eq!(pt.pts_of_operand(fid, &q), pt.pts_of_operand(fid, &x));
    }

    /// Field sensitivity: &s.a and &s.b do not alias; &s.a aliases s.
    #[test]
    fn field_sensitivity() {
        let mut mb = ModuleBuilder::new("m");
        mb.struct_def("S", vec![("a".into(), Type::I64), ("b".into(), Type::I64)]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let s = f.alloca(Type::Struct("S".into()));
        let pa = f.field_addr(s.clone(), "S", "a");
        let pb = f.field_addr(s.clone(), "S", "b");
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pt = PointsTo::analyze(&m);
        let fid = m.func_by_name("main").unwrap().id;
        let sa = pt.pts_of_operand(fid, &pa);
        let sb = pt.pts_of_operand(fid, &pb);
        let ss = pt.pts_of_operand(fid, &s);
        assert!(!crate::loc::sets_intersect(&sa, &sb), "{sa:?} vs {sb:?}");
        // Field 0 is identified with the object base.
        assert!(crate::loc::sets_intersect(&sa, &ss));
    }

    /// Interprocedural flow through parameters and returns.
    #[test]
    fn call_param_and_return_flow() {
        let mut mb = ModuleBuilder::new("m");
        let id_fn = mb.declare("identity", vec![Type::I64.ptr_to()], Type::I64.ptr_to());
        {
            let mut f = mb.define(id_fn);
            let e = f.entry();
            f.switch_to(e);
            let p = f.param(0);
            f.ret(Some(p));
            f.finish();
        }
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let x = f.alloca(Type::I64);
        let r = f.call(id_fn, vec![x.clone()]);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pt = PointsTo::analyze(&m);
        let fid = m.func_by_name("main").unwrap().id;
        assert_eq!(pt.pts_of_operand(fid, &r), pt.pts_of_operand(fid, &x));
    }

    /// Indirect calls resolve through function-pointer points-to sets.
    #[test]
    fn indirect_call_resolution() {
        let mut mb = ModuleBuilder::new("m");
        let target = mb.declare("target", vec![Type::I64.ptr_to()], Type::I64.ptr_to());
        {
            let mut f = mb.define(target);
            let e = f.entry();
            f.switch_to(e);
            let p = f.param(0);
            f.ret(Some(p));
            f.finish();
        }
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let x = f.alloca(Type::I64);
        let fp = f.copy(Operand::Func(target));
        let r = f.call_indirect(fp, vec![x.clone()]);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pt = PointsTo::analyze(&m);
        let fid = m.func_by_name("main").unwrap().id;
        assert_eq!(pt.pts_of_operand(fid, &r), pt.pts_of_operand(fid, &x));
    }

    /// Globals: the same global flows to two functions' loads.
    #[test]
    fn global_flow_across_threads() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("shared", Type::I64.ptr_to(), vec![]);
        let worker = mb.declare("worker", vec![Type::I64], Type::Void);
        {
            let mut f = mb.define(worker);
            let e = f.entry();
            f.switch_to(e);
            f.load(g.clone(), Type::I64.ptr_to());
            f.ret(None);
            f.finish();
        }
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let x = f.alloca(Type::I64);
        f.store(g.clone(), x.clone(), Type::I64.ptr_to());
        let t = f.spawn(worker, Operand::ConstInt(0));
        f.join(t);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pt = PointsTo::analyze(&m);
        let wid = m.func_by_name("worker").unwrap().id;
        let mid = m.func_by_name("main").unwrap().id;
        // The load's result register in worker points to x's site.
        let load_inst = m
            .func_by_name("worker")
            .unwrap()
            .insts()
            .find(|i| matches!(i.kind, InstKind::Load { .. }))
            .unwrap();
        let lr = Operand::Reg(load_inst.result.unwrap());
        assert_eq!(pt.pts_of_operand(wid, &lr), pt.pts_of_operand(mid, &x));
    }

    /// Scope restriction removes constraints from unexecuted code.
    #[test]
    fn scope_restriction_prunes() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("shared", Type::I64.ptr_to(), vec![]);
        let cold = mb.declare("cold", vec![Type::I64], Type::Void);
        {
            let mut f = mb.define(cold);
            let e = f.entry();
            f.switch_to(e);
            let y = f.alloca(Type::I64);
            f.store(g.clone(), y, Type::I64.ptr_to());
            f.ret(None);
            f.finish();
        }
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let x = f.alloca(Type::I64);
        f.store(g.clone(), x, Type::I64.ptr_to());
        let q = f.load(g.clone(), Type::I64.ptr_to());
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let whole = PointsTo::analyze(&m);
        // Scope = only main's instructions.
        let scope: HashSet<Pc> = m
            .func_by_name("main")
            .unwrap()
            .insts()
            .map(|i| i.pc)
            .collect();
        let scoped = PointsTo::analyze_scoped(&m, &scope);
        let mid = m.func_by_name("main").unwrap().id;
        let whole_q = whole.pts_of_operand(mid, &q);
        let scoped_q = scoped.pts_of_operand(mid, &q);
        assert_eq!(whole_q.len(), 2, "whole program sees both stores");
        assert_eq!(
            scoped_q.len(),
            1,
            "scoped analysis sees only the executed store"
        );
        assert!(scoped.stats().insts_analyzed < whole.stats().insts_analyzed);

        // A listed scope solves to the same sets and counters.
        let mut listed: Vec<Pc> = scope.iter().copied().collect();
        listed.sort_unstable();
        let via_list = PointsTo::analyze_sorted_scope(&m, &listed);
        assert_eq!(via_list.stats(), scoped.stats());
        assert_eq!(via_list.pts_of_operand(mid, &q), scoped_q);
        // Ascending PC order is the module's layout order: a scope of
        // every PC replays the whole-module walk exactly.
        let all: HashSet<Pc> = m.all_insts().map(|(i, _)| i.pc).collect();
        assert_eq!(PointsTo::analyze_scoped(&m, &all).stats(), whole.stats());
    }

    /// This thread's lent dense table: where its buffer lives, its
    /// length, and whether every entry is unset.
    fn lent_table() -> (*const u32, usize, bool) {
        DENSE.with(|lent| {
            let dense = lent.take();
            let seen = (dense.as_ptr(), dense.len(), dense.iter().all(|&e| e == NIL));
            lent.set(dense);
            seen
        })
    }

    /// A solver borrows this thread's dense table and gives it back
    /// with every entry unset, whether it ends in a result or in a
    /// state kept as a delta base, so the next solve, on this module or
    /// a smaller one, reuses the buffer instead of filling a new one.
    #[test]
    fn dense_table_is_lent_and_given_back_unset() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("shared", Type::I64.ptr_to(), vec![]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let x = f.alloca(Type::I64);
        f.store(g.clone(), x.clone(), Type::I64.ptr_to());
        let q = f.load(g, Type::I64.ptr_to());
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let fid = m.func_by_name("main").unwrap().id;

        let whole = PointsTo::analyze(&m);
        let (buffer, len, unset) = lent_table();
        assert!(len > 0 && unset, "a solve gives the table back unset");

        let scope: Vec<Pc> = m.all_insts().map(|(i, _)| i.pc).collect();
        let scoped = PointsTo::analyze_sorted_scope(&m, &scope);
        assert_eq!(
            scoped.pts_of_operand(fid, &q),
            whole.pts_of_operand(fid, &q)
        );
        assert_eq!(lent_table(), (buffer, len, true), "the same buffer, unset");

        let mut solver = Solver::new(&m, 4);
        solver.gen_constraints(Some(&scope[..2]));
        solver.solve();
        let base = solver.into_state();
        assert_eq!(
            lent_table(),
            (buffer, len, true),
            "a kept state holds no entry"
        );
        let mut resumed = Solver::from_state(&m, base);
        resumed.gen_constraints(Some(&scope[2..]));
        resumed.solve();
        let delta = resumed.into_state().points_to();
        assert_eq!(delta.pts_of_operand(fid, &q), whole.pts_of_operand(fid, &q));
        assert_eq!(lent_table(), (buffer, len, true));
    }

    proptest::proptest! {
        /// Every way a `SmallSet` grows (single inserts and merges) and
        /// drains keeps it equal to a `BTreeSet` fed the same elements,
        /// and `missing` names exactly the elements the set lacks.
        #[test]
        fn small_sets_track_a_btreeset(
            batches in proptest::collection::vec(
                proptest::collection::vec(0u32..400, 0..40), 0..24),
            drain_at in 0usize..24,
        ) {
            let mut set = SmallSet::default();
            let mut reference = std::collections::BTreeSet::new();
            for (i, batch) in batches.iter().enumerate() {
                if i == drain_at {
                    let mut out = Vec::new();
                    set.drain_into(&mut out);
                    proptest::prop_assert_eq!(&out, &reference.iter().copied().collect::<Vec<_>>());
                    reference.clear();
                }
                if let [x] = batch[..] {
                    proptest::prop_assert_eq!(set.insert(x), reference.insert(x));
                    continue;
                }
                let mut add = batch.clone();
                add.sort_unstable();
                add.dedup();
                let mut fresh = Vec::new();
                set.missing(&add, &mut fresh);
                let expected: Vec<u32> =
                    add.iter().copied().filter(|x| !reference.contains(x)).collect();
                proptest::prop_assert_eq!(&fresh, &expected);
                set.merge_disjoint(&fresh);
                reference.extend(fresh);
                proptest::prop_assert_eq!(
                    set.as_slice(),
                    &reference.iter().copied().collect::<Vec<_>>()[..]
                );
            }
        }
    }

    /// The pointer-operand lookup used by the diagnosis pipeline.
    #[test]
    fn pts_of_pointer_at_failing_instruction() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let x = f.alloca(Type::I64);
        f.load(x.clone(), Type::I64);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pt = PointsTo::analyze(&m);
        let load_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Load { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        let pts = pt.pts_of_pointer_at(&m, load_pc).unwrap();
        assert_eq!(pts.len(), 1);
        // Halt has no pointer operand.
        let halt_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Halt))
            .map(|(i, _)| i.pc)
            .unwrap();
        assert!(pt.pts_of_pointer_at(&m, halt_pc).is_none());
    }
}
