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

use crate::loc::{Loc, PtsSet};
use lazy_ir::{BinOp, FuncId, Inst, InstKind, Module, Operand, Pc, ValueId};
use std::collections::{HashMap, HashSet, VecDeque};

/// A constraint variable. Identified by program structure only (no
/// solver-run-local ids), so constraint recipes can be cached across
/// independent solver runs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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

/// The pure constraint-generation step for one instruction.
///
/// Returns `None` when the instruction is irrelevant to points-to
/// analysis; `Some(ops)` (possibly empty) when it is analyzed. The
/// result depends only on the instruction and the module's type table,
/// never on solver state or scope — which is what makes per-function
/// memoization sound.
pub(crate) fn inst_constraint_ops(
    module: &Module,
    fid: FuncId,
    inst: &Inst,
) -> Option<Vec<ConstraintOp>> {
    let mut ops = Vec::new();
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
        InstKind::Copy { src } => flow(&mut ops, src, res()),
        InstKind::IndexAddr { base, .. } => flow(&mut ops, base, res()),
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
            flow(&mut ops, lhs, res());
            flow(&mut ops, rhs, res());
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
                flow(&mut ops, a, Var::Reg(*callee, ValueId(i as u32)));
            }
            ops.push(ConstraintOp::Edge(Var::Ret(*callee), res()));
        }
        InstKind::CallIndirect { callee, args } => {
            let argv: Vec<Option<Var>> = args.iter().map(|a| op_as_var(fid, a)).collect();
            match callee {
                Operand::Reg(v) => ops.push(ConstraintOp::CallThrough {
                    callee: Var::Reg(fid, *v),
                    args: argv,
                    result: res(),
                }),
                Operand::Func(f) => {
                    for (i, a) in argv.into_iter().enumerate() {
                        if let Some(a) = a {
                            ops.push(ConstraintOp::Edge(a, Var::Reg(*f, ValueId(i as u32))));
                        }
                    }
                    ops.push(ConstraintOp::Edge(Var::Ret(*f), res()));
                }
                _ => {}
            }
        }
        InstKind::Ret { value: Some(v) } => flow(&mut ops, v, Var::Ret(fid)),
        InstKind::ThreadSpawn { func: f, arg } => {
            flow(&mut ops, arg, Var::Reg(*f, ValueId(0)));
        }
        _ => return None,
    }
    Some(ops)
}

/// A complex (pointer-indirected) constraint attached to a variable.
#[derive(Clone, Debug)]
enum Complex {
    /// `dst ⊇ *v` — rule (4) of Figure 3.
    LoadInto(u32),
    /// `*v ⊇ src` — rule (3) of Figure 3.
    StoreFrom(u32),
    /// `dst ⊇ v.field(offset)` — field-sensitive address computation.
    FieldInto(u32, usize),
    /// Indirect call through `v`: wire arguments and result to each
    /// function location that flows into `v`.
    CallThrough { args: Vec<Option<u32>>, result: u32 },
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

/// The analysis engine and its solved result.
pub struct PointsTo {
    interner: HashMap<Var, u32>,
    pts: Vec<PtsSet>,
    stats: AnalysisStats,
}

/// The resting state of a solved (or about-to-be-solved) constraint
/// system, detached from the module borrow so the incremental cache can
/// store and clone it between solver runs. The worklist is not part of
/// the state: a solved system's worklist is empty and its dirty sets
/// are drained.
#[derive(Clone, Default)]
pub(crate) struct SolverState {
    interner: HashMap<Var, u32>,
    vars: Vec<Var>,
    pts: Vec<PtsSet>,
    dirty: Vec<PtsSet>,
    succs: Vec<HashSet<u32>>,
    complex: Vec<Vec<Complex>>,
    queued: Vec<bool>,
    stats: AnalysisStats,
}

pub(crate) struct Solver<'m> {
    module: &'m Module,
    st: SolverState,
    worklist: VecDeque<u32>,
}

impl<'m> Solver<'m> {
    pub(crate) fn new(module: &'m Module) -> Solver<'m> {
        Solver::from_state(module, SolverState::default())
    }

    /// Resumes a solver over a previously solved state (the incremental
    /// path). New constraints may be applied on top; monotonicity makes
    /// the final fixpoint identical to a from-scratch solve of the
    /// union.
    pub(crate) fn from_state(module: &'m Module, st: SolverState) -> Solver<'m> {
        Solver {
            module,
            st,
            worklist: VecDeque::new(),
        }
    }

    /// Detaches the solved state for caching. Must be called only after
    /// [`Solver::solve`] (the worklist must be empty).
    pub(crate) fn into_state(self) -> SolverState {
        debug_assert!(self.worklist.is_empty(), "state captured mid-solve");
        self.st
    }

    fn var(&mut self, v: Var) -> u32 {
        if let Some(&id) = self.st.interner.get(&v) {
            return id;
        }
        let id = self.st.vars.len() as u32;
        self.st.interner.insert(v.clone(), id);
        self.st.vars.push(v.clone());
        self.st.pts.push(PtsSet::new());
        self.st.dirty.push(PtsSet::new());
        self.st.succs.push(HashSet::new());
        self.st.complex.push(Vec::new());
        self.st.queued.push(false);
        if let Var::Const(loc) = v {
            self.add_loc(id, loc);
        }
        id
    }

    fn enqueue(&mut self, v: u32) {
        if !self.st.queued[v as usize] {
            self.st.queued[v as usize] = true;
            self.worklist.push_back(v);
        }
    }

    fn add_loc(&mut self, v: u32, loc: Loc) {
        if self.st.pts[v as usize].insert(loc) {
            self.st.dirty[v as usize].insert(loc);
            self.st.stats.propagations += 1;
            self.enqueue(v);
        }
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        if from == to {
            return;
        }
        if self.st.succs[from as usize].insert(to) {
            self.st.stats.constraints += 1;
            // Propagate everything already known.
            let known: Vec<Loc> = self.st.pts[from as usize].iter().copied().collect();
            for l in known {
                self.add_loc(to, l);
            }
        }
    }

    fn add_complex(&mut self, on: u32, c: Complex) {
        self.st.stats.constraints += 1;
        // Apply retroactively to already-known locations.
        let known: Vec<Loc> = self.st.pts[on as usize].iter().copied().collect();
        for l in &known {
            self.apply_complex(&c, *l);
        }
        self.st.complex[on as usize].push(c);
    }

    fn apply_complex(&mut self, c: &Complex, loc: Loc) {
        match c {
            Complex::LoadInto(dst) => {
                let contents = self.var(Var::Contents(loc));
                self.add_edge(contents, *dst);
            }
            Complex::StoreFrom(src) => {
                let contents = self.var(Var::Contents(loc));
                self.add_edge(*src, contents);
            }
            Complex::FieldInto(dst, offset) => {
                self.add_loc(*dst, loc.offset_by(*offset));
            }
            Complex::CallThrough { args, result } => {
                if let Some(fid) = loc.as_func() {
                    let callee = self.module.func(fid);
                    if callee.params.len() == args.len() {
                        for (i, arg) in args.iter().enumerate() {
                            if let Some(a) = arg {
                                let p = self.var(Var::Reg(fid, ValueId(i as u32)));
                                self.add_edge(*a, p);
                            }
                        }
                        let ret = self.var(Var::Ret(fid));
                        self.add_edge(ret, *result);
                    }
                }
            }
        }
    }

    /// Installs one recipe op into the live constraint system.
    pub(crate) fn apply_op(&mut self, op: &ConstraintOp) {
        match op {
            ConstraintOp::AddrOf(v, loc) => {
                let id = self.var(v.clone());
                self.st.stats.constraints += 1;
                self.add_loc(id, *loc);
            }
            ConstraintOp::SeedLoc(v, loc) => {
                let id = self.var(v.clone());
                self.add_loc(id, *loc);
            }
            ConstraintOp::Edge(src, dst) => {
                let s = self.var(src.clone());
                let d = self.var(dst.clone());
                self.add_edge(s, d);
            }
            ConstraintOp::Load(ptr, dst) => {
                let p = self.var(ptr.clone());
                let d = self.var(dst.clone());
                self.add_complex(p, Complex::LoadInto(d));
            }
            ConstraintOp::Store(ptr, src) => {
                let p = self.var(ptr.clone());
                let s = self.var(src.clone());
                self.add_complex(p, Complex::StoreFrom(s));
            }
            ConstraintOp::Field(base, dst, off) => {
                let b = self.var(base.clone());
                let d = self.var(dst.clone());
                self.add_complex(b, Complex::FieldInto(d, *off));
            }
            ConstraintOp::CallThrough {
                callee,
                args,
                result,
            } => {
                let c = self.var(callee.clone());
                let argv: Vec<Option<u32>> = args
                    .iter()
                    .map(|a| a.as_ref().map(|v| self.var(v.clone())))
                    .collect();
                let r = self.var(result.clone());
                self.add_complex(
                    c,
                    Complex::CallThrough {
                        args: argv,
                        result: r,
                    },
                );
            }
        }
    }

    /// Generates and installs constraints for one instruction; returns
    /// `true` if the instruction was analyzed.
    pub(crate) fn gen_inst(&mut self, fid: FuncId, inst: &Inst) -> bool {
        match inst_constraint_ops(self.module, fid, inst) {
            Some(ops) => {
                self.st.stats.insts_analyzed += 1;
                for op in &ops {
                    self.apply_op(op);
                }
                true
            }
            None => false,
        }
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
            if let Some(loc) = module.loc_of_pc(pc) {
                let inst = &module.func(loc.func).block(loc.block).insts[loc.idx];
                self.gen_inst(loc.func, inst);
            }
        }
    }

    pub(crate) fn solve(&mut self) {
        while let Some(v) = self.worklist.pop_front() {
            self.st.queued[v as usize] = false;
            let delta: Vec<Loc> = std::mem::take(&mut self.st.dirty[v as usize])
                .into_iter()
                .collect();
            if delta.is_empty() {
                continue;
            }
            // Apply complex constraints to the new locations. Applying
            // one never adds a complex constraint, so the list can be
            // lent out for the loop instead of cloned.
            let cs = std::mem::take(&mut self.st.complex[v as usize]);
            for c in &cs {
                for l in &delta {
                    self.apply_complex(c, *l);
                }
            }
            self.st.complex[v as usize] = cs;
            // Propagate along copy edges.
            let succs: Vec<u32> = self.st.succs[v as usize].iter().copied().collect();
            for s in succs {
                for l in &delta {
                    self.add_loc(s, *l);
                }
            }
        }
    }

    /// Counts the instructions this solver has analyzed so far.
    pub(crate) fn note_analyzed(&mut self, n: usize) {
        self.st.stats.insts_analyzed += n;
    }
}

impl SolverState {
    /// Extracts the queryable result (shared between the direct and
    /// incremental paths).
    pub(crate) fn into_points_to(self) -> PointsTo {
        let mut stats = self.stats;
        stats.vars = self.vars.len();
        PointsTo {
            interner: self.interner,
            pts: self.pts,
            stats,
        }
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
        let mut solver = Solver::new(module);
        solver.gen_constraints(scope);
        solver.solve();
        solver.into_state().into_points_to()
    }

    /// Analysis counters.
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    fn var_pts(&self, v: &Var) -> PtsSet {
        self.interner
            .get(v)
            .map(|id| self.pts[*id as usize].clone())
            .unwrap_or_default()
    }

    /// The points-to set of an operand evaluated in `func`.
    pub fn pts_of_operand(&self, func: FuncId, op: &Operand) -> PtsSet {
        match op {
            Operand::Reg(v) => self.var_pts(&Var::Reg(func, *v)),
            Operand::Global(g) => [Loc::Global(*g)].into_iter().collect(),
            Operand::Func(f) => [Loc::Func(*f)].into_iter().collect(),
            Operand::ConstInt(_) | Operand::Null => PtsSet::new(),
        }
    }

    /// The points-to set of the *pointer operand* of the instruction at
    /// `pc` (the operand type-based ranking and candidate selection key
    /// on). Returns `None` for instructions without a pointer operand.
    pub fn pts_of_pointer_at(&self, module: &Module, pc: Pc) -> Option<PtsSet> {
        let loc = module.loc_of_pc(pc)?;
        let inst = module.inst(pc)?;
        let op = inst.kind.pointer_operand()?;
        Some(self.pts_of_operand(loc.func, op))
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
