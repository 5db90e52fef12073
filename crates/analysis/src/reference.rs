//! The differential reference for [`crate::andersen`]: the solver as it
//! was before its sets became sorted vectors and its variables dense
//! numbers, with a SipHash interner, `BTreeSet` points-to and delta
//! sets, `HashSet` successor lists and per-variable constraint `Vec`s.
//! It shares only constraint generation ([`inst_constraint_ops`]) with
//! the production solver, and lives in tests, where every set and
//! counter the production solver reports is checked against it.

use crate::andersen::{inst_constraint_ops, AnalysisStats, ConstraintOp, Var};
use crate::loc::{Loc, PtsSet};
use lazy_ir::{FuncId, Module, Operand, Pc, ValueId};
use std::collections::{HashMap, HashSet, VecDeque};

#[derive(Clone, Debug)]
enum Complex {
    LoadInto(u32),
    StoreFrom(u32),
    FieldInto(u32, usize),
    CallThrough { args: Vec<Option<u32>>, result: u32 },
}

/// A solved reference system.
pub(crate) struct Reference {
    interner: HashMap<Var, u32>,
    pts: Vec<PtsSet>,
    stats: AnalysisStats,
}

struct Solver<'m> {
    module: &'m Module,
    interner: HashMap<Var, u32>,
    vars: usize,
    pts: Vec<PtsSet>,
    dirty: Vec<PtsSet>,
    succs: Vec<HashSet<u32>>,
    complex: Vec<Vec<Complex>>,
    queued: Vec<bool>,
    stats: AnalysisStats,
    worklist: VecDeque<u32>,
}

impl Solver<'_> {
    fn var(&mut self, v: Var) -> u32 {
        if let Some(&id) = self.interner.get(&v) {
            return id;
        }
        let id = self.vars as u32;
        self.vars += 1;
        self.interner.insert(v, id);
        self.pts.push(PtsSet::new());
        self.dirty.push(PtsSet::new());
        self.succs.push(HashSet::new());
        self.complex.push(Vec::new());
        self.queued.push(false);
        if let Var::Const(loc) = v {
            self.add_loc(id, loc);
        }
        id
    }

    fn add_loc(&mut self, v: u32, loc: Loc) {
        if self.pts[v as usize].insert(loc) {
            self.dirty[v as usize].insert(loc);
            self.stats.propagations += 1;
            if !self.queued[v as usize] {
                self.queued[v as usize] = true;
                self.worklist.push_back(v);
            }
        }
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        if from != to && self.succs[from as usize].insert(to) {
            self.stats.constraints += 1;
            let known: Vec<Loc> = self.pts[from as usize].iter().copied().collect();
            for l in known {
                self.add_loc(to, l);
            }
        }
    }

    fn add_complex(&mut self, on: u32, c: Complex) {
        self.stats.constraints += 1;
        let known: Vec<Loc> = self.pts[on as usize].iter().copied().collect();
        for l in known {
            self.apply_complex(&c, l);
        }
        self.complex[on as usize].push(c);
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
            Complex::FieldInto(dst, offset) => self.add_loc(*dst, loc.offset_by(*offset)),
            Complex::CallThrough { args, result } => {
                let Some(fid) = loc.as_func() else {
                    return;
                };
                if self.module.func(fid).params.len() == args.len() {
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

    fn apply_op(&mut self, op: &ConstraintOp) {
        match op {
            ConstraintOp::AddrOf(v, loc) => {
                let id = self.var(*v);
                self.stats.constraints += 1;
                self.add_loc(id, *loc);
            }
            ConstraintOp::SeedLoc(v, loc) => {
                let id = self.var(*v);
                self.add_loc(id, *loc);
            }
            ConstraintOp::Edge(src, dst) => {
                let (s, d) = (self.var(*src), self.var(*dst));
                self.add_edge(s, d);
            }
            ConstraintOp::Load(ptr, dst) => {
                let (p, d) = (self.var(*ptr), self.var(*dst));
                self.add_complex(p, Complex::LoadInto(d));
            }
            ConstraintOp::Store(ptr, src) => {
                let (p, s) = (self.var(*ptr), self.var(*src));
                self.add_complex(p, Complex::StoreFrom(s));
            }
            ConstraintOp::Field(base, dst, off) => {
                let (b, d) = (self.var(*base), self.var(*dst));
                self.add_complex(b, Complex::FieldInto(d, *off));
            }
            ConstraintOp::CallThrough {
                callee,
                args,
                result,
            } => {
                let c = self.var(*callee);
                let args: Vec<Option<u32>> = args.iter().map(|a| a.map(|v| self.var(v))).collect();
                let result = self.var(*result);
                self.add_complex(c, Complex::CallThrough { args, result });
            }
        }
    }

    fn solve(&mut self) {
        while let Some(v) = self.worklist.pop_front() {
            self.queued[v as usize] = false;
            let delta: Vec<Loc> = std::mem::take(&mut self.dirty[v as usize])
                .into_iter()
                .collect();
            let cs = self.complex[v as usize].clone();
            for c in &cs {
                for l in &delta {
                    self.apply_complex(c, *l);
                }
            }
            let succs: Vec<u32> = self.succs[v as usize].iter().copied().collect();
            for s in succs {
                for l in &delta {
                    self.add_loc(s, *l);
                }
            }
        }
    }
}

impl Reference {
    /// Solves `scope` (every instruction for `None`), walking it in the
    /// order given.
    pub(crate) fn analyze(module: &Module, scope: Option<&[Pc]>) -> Reference {
        let mut s = Solver {
            module,
            interner: HashMap::new(),
            vars: 0,
            pts: Vec::new(),
            dirty: Vec::new(),
            succs: Vec::new(),
            complex: Vec::new(),
            queued: Vec::new(),
            stats: AnalysisStats::default(),
            worklist: VecDeque::new(),
        };
        let pcs: Vec<Pc> = match scope {
            Some(pcs) => pcs.to_vec(),
            None => module.all_insts().map(|(i, _)| i.pc).collect(),
        };
        let mut ops = Vec::new();
        for pc in pcs {
            let (Some(loc), Some(inst)) = (module.loc_of_pc(pc), module.inst(pc)) else {
                continue;
            };
            ops.clear();
            if inst_constraint_ops(module, loc.func, inst, &mut ops) {
                s.stats.insts_analyzed += 1;
                for op in &ops {
                    s.apply_op(op);
                }
            }
        }
        s.solve();
        let mut stats = s.stats;
        stats.vars = s.vars;
        Reference {
            interner: s.interner,
            pts: s.pts,
            stats,
        }
    }

    /// The reference counters.
    pub(crate) fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// The reference set of an operand evaluated in `func`.
    pub(crate) fn pts_of_operand(&self, func: FuncId, op: &Operand) -> PtsSet {
        match op {
            Operand::Reg(v) => self
                .interner
                .get(&Var::Reg(func, *v))
                .map(|id| self.pts[*id as usize].clone())
                .unwrap_or_default(),
            Operand::Global(g) => [Loc::Global(*g)].into_iter().collect(),
            Operand::Func(f) => [Loc::Func(*f)].into_iter().collect(),
            Operand::ConstInt(_) | Operand::Null => PtsSet::new(),
        }
    }
}

mod tests {
    use super::*;
    use crate::incremental::PointsToCache;
    use crate::PointsTo;
    use lazy_ir::{FuncId, ModuleBuilder, Type};
    use proptest::prelude::*;

    /// One step of a generated function body over four register slots
    /// and two field-address slots. Field addresses are only ever
    /// loaded from, stored through or offset again, never stored or
    /// passed on themselves: a field address flowing back into its own
    /// base would give the (flow-insensitive) analysis an infinite
    /// chain of offsets, in the reference and the solver alike.
    #[derive(Clone, Debug)]
    enum Step {
        /// slot[d] = an allocation of kind `k` (stack i64, stack S,
        /// heap T, stack pointer cell).
        Alloc(u8, u8),
        Copy(u8, u8),
        /// slot[d] = slot[s] + 8 (pointer arithmetic).
        Offset(u8, u8),
        StoreGlobal(u8, u8),
        LoadGlobal(u8, u8),
        /// *slot[p] = slot[s]
        StorePtr(u8, u8),
        /// slot[d] = *slot[p]
        LoadPtr(u8, u8),
        /// field[k] = &slot[s]->field `f` (of S, or of T's nested S).
        Field(u8, u8, u8),
        /// field[k] = &field[j]->field `f`
        FieldOfField(u8, u8, u8),
        /// field[k] = &@gs.field `f`
        FieldGlobal(u8, u8),
        /// *field[k] = slot[s]
        StoreField(u8, u8),
        /// slot[d] = *field[k]
        LoadField(u8, u8),
        /// slot[d] = callee `c`(slot[s])
        Call(u8, u8, u8),
        /// slot[d] = @callee `c`
        FuncPtr(u8, u8),
        /// slot[d] = (*slot[fp])(slot[s])
        CallPtr(u8, u8, u8),
        /// spawn callee `c`(slot[s])
        Spawn(u8, u8),
    }

    const SLOTS: u8 = 4;
    const FIELDS: u8 = 2;

    fn arb_step() -> impl Strategy<Value = Step> {
        let s = || 0..SLOTS;
        prop_oneof![
            (s(), 0u8..4).prop_map(|(d, k)| Step::Alloc(d, k)),
            (s(), s()).prop_map(|(d, x)| Step::Copy(d, x)),
            (s(), s()).prop_map(|(d, x)| Step::Offset(d, x)),
            (0u8..3, s()).prop_map(|(g, x)| Step::StoreGlobal(g, x)),
            (s(), 0u8..3).prop_map(|(d, g)| Step::LoadGlobal(d, g)),
            (s(), s()).prop_map(|(p, x)| Step::StorePtr(p, x)),
            (s(), s()).prop_map(|(d, p)| Step::LoadPtr(d, p)),
            (0..FIELDS, s(), 0u8..5).prop_map(|(k, x, f)| Step::Field(k, x, f)),
            (0..FIELDS, 0..FIELDS, 0u8..5).prop_map(|(k, j, f)| Step::FieldOfField(k, j, f)),
            (0..FIELDS, 0u8..3).prop_map(|(k, f)| Step::FieldGlobal(k, f)),
            (0..FIELDS, s()).prop_map(|(k, x)| Step::StoreField(k, x)),
            (s(), 0..FIELDS).prop_map(|(d, k)| Step::LoadField(d, k)),
            (s(), 0u8..2, s()).prop_map(|(d, c, x)| Step::Call(d, c, x)),
            (s(), 0u8..2).prop_map(|(d, c)| Step::FuncPtr(d, c)),
            (s(), s(), s()).prop_map(|(d, fp, x)| Step::CallPtr(d, fp, x)),
            (0u8..2, s()).prop_map(|(c, x)| Step::Spawn(c, x)),
        ]
    }

    /// A three-function module: two one-parameter callees that return a
    /// slot and call each other, and `main`; globals include a struct.
    fn build(bodies: &[Vec<Step>; 3]) -> Module {
        let mut mb = ModuleBuilder::new("diff");
        let ptr = || Type::I64.ptr_to();
        mb.struct_def(
            "S",
            vec![
                ("a".into(), Type::I64),
                ("b".into(), ptr()),
                ("c".into(), ptr()),
            ],
        );
        mb.struct_def(
            "T",
            vec![
                ("x".into(), Type::I64),
                ("s".into(), Type::Struct("S".into())),
            ],
        );
        let globals: Vec<Operand> = (0..3)
            .map(|i| mb.global(format!("g{i}"), ptr(), vec![]))
            .collect();
        let gs = mb.global("gs", Type::Struct("S".into()), vec![]);
        let callees = [
            mb.declare("left", vec![ptr()], ptr()),
            mb.declare("right", vec![ptr()], ptr()),
        ];
        for (i, body) in bodies.iter().enumerate() {
            let mut f = match i {
                0 | 1 => mb.define(callees[i]),
                _ => mb.function("main", vec![], Type::Void),
            };
            let e = f.entry();
            f.switch_to(e);
            let init = if i < 2 { f.param(0) } else { Operand::Null };
            let mut slot: Vec<Operand> = vec![init; SLOTS as usize];
            let mut field: Vec<Operand> = vec![Operand::Null; FIELDS as usize];
            let field_of = |f: &mut lazy_ir::FunctionBuilder<'_>, base: Operand, which: u8| {
                let (strukt, name) =
                    [("S", "a"), ("S", "b"), ("S", "c"), ("T", "x"), ("T", "s")][which as usize];
                f.field_addr(base, strukt, name)
            };
            for step in body {
                let at = |x: &u8| slot[*x as usize].clone();
                match step {
                    Step::Alloc(d, k) => {
                        slot[*d as usize] = match k {
                            0 => f.alloca(Type::I64),
                            1 => f.alloca(Type::Struct("S".into())),
                            2 => f.heap_alloc(Type::Struct("T".into()), Operand::const_int(1)),
                            _ => f.alloca(ptr()),
                        }
                    }
                    Step::Copy(d, x) => slot[*d as usize] = f.copy(at(x)),
                    Step::Offset(d, x) => slot[*d as usize] = f.add(at(x), Operand::const_int(8)),
                    Step::StoreGlobal(g, x) => f.store(globals[*g as usize].clone(), at(x), ptr()),
                    Step::LoadGlobal(d, g) => {
                        slot[*d as usize] = f.load(globals[*g as usize].clone(), ptr());
                    }
                    Step::StorePtr(p, x) => f.store(at(p), at(x), ptr()),
                    Step::LoadPtr(d, p) => slot[*d as usize] = f.load(at(p), ptr()),
                    Step::Field(k, x, which) => {
                        field[*k as usize] = field_of(&mut f, at(x), *which)
                    }
                    Step::FieldOfField(k, j, which) => {
                        let base = field[*j as usize].clone();
                        field[*k as usize] = field_of(&mut f, base, *which);
                    }
                    Step::FieldGlobal(k, which) => {
                        field[*k as usize] = field_of(&mut f, gs.clone(), *which);
                    }
                    Step::StoreField(k, x) => f.store(field[*k as usize].clone(), at(x), ptr()),
                    Step::LoadField(d, k) => {
                        slot[*d as usize] = f.load(field[*k as usize].clone(), ptr());
                    }
                    Step::Call(d, c, x) => {
                        slot[*d as usize] = f.call(callees[*c as usize], vec![at(x)]);
                    }
                    Step::FuncPtr(d, c) => {
                        slot[*d as usize] = f.copy(Operand::Func(callees[*c as usize]));
                    }
                    Step::CallPtr(d, fp, x) => {
                        slot[*d as usize] = f.call_indirect(at(fp), vec![at(x)]);
                    }
                    Step::Spawn(c, x) => {
                        f.spawn(callees[*c as usize], at(x));
                    }
                }
            }
            if i < 2 {
                f.ret(Some(slot[0].clone()));
            } else {
                f.halt();
            }
            f.finish();
        }
        mb.finish().expect("generated module verifies")
    }

    /// Every register of every function and every operand of every
    /// instruction, with the function it is evaluated in.
    fn operands(m: &Module) -> Vec<(FuncId, Operand)> {
        let mut out = Vec::new();
        for f in m.functions() {
            out.extend((0..f.reg_count).map(|v| (f.id, Operand::Reg(lazy_ir::ValueId(v)))));
            for inst in f.insts() {
                out.extend(inst.kind.operands().into_iter().map(|o| (f.id, o.clone())));
            }
        }
        out
    }

    /// `pts` agrees with the reference on every operand and counter,
    /// and its borrowed queries agree with its owned ones.
    fn check(m: &Module, pts: &PointsTo, reference: &Reference) -> Result<(), TestCaseError> {
        prop_assert_eq!(pts.stats(), reference.stats());
        for (f, op) in operands(m) {
            let owned = pts.pts_of_operand(f, &op);
            prop_assert_eq!(
                &owned,
                &reference.pts_of_operand(f, &op),
                "{:?} in {:?}",
                op,
                f
            );
            prop_assert_eq!(pts.pts_view_of_operand(f, &op).to_set(), owned);
        }
        for (inst, _) in m.all_insts() {
            prop_assert_eq!(
                pts.pts_view_of_pointer_at(m, inst.pc).map(|v| v.to_set()),
                pts.pts_of_pointer_at(m, inst.pc)
            );
        }
        Ok(())
    }

    fn masked(pcs: &[Pc], mask: &[bool]) -> Vec<Pc> {
        pcs.iter()
            .enumerate()
            .filter(|(i, _)| mask[i % mask.len()])
            .map(|(_, pc)| *pc)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The production solver matches the reference on every set and
        /// counter: whole-program, scoped from scratch, and through the
        /// cache's scratch, delta and exact-hit paths.
        #[test]
        fn solver_matches_the_reference_on_every_path(
            left in prop::collection::vec(arb_step(), 0..16),
            right in prop::collection::vec(arb_step(), 0..16),
            main in prop::collection::vec(arb_step(), 0..24),
            base_mask in prop::collection::vec(any::<bool>(), 1..48),
            extra_mask in prop::collection::vec(any::<bool>(), 1..48),
        ) {
            let m = build(&[left, right, main]);
            let all: Vec<Pc> = m.all_insts().map(|(i, _)| i.pc).collect();
            let base = masked(&all, &base_mask);
            let full: Vec<Pc> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| base_mask[i % base_mask.len()] || extra_mask[i % extra_mask.len()])
                .map(|(_, pc)| *pc)
                .collect();
            let ref_base = Reference::analyze(&m, Some(&base));
            let ref_full = Reference::analyze(&m, Some(&full));

            check(&m, &PointsTo::analyze(&m), &Reference::analyze(&m, None))?;
            check(&m, &PointsTo::analyze_sorted_scope(&m, &full), &ref_full)?;

            let mut cache = PointsToCache::new();
            check(&m, &cache.analyze_sorted_scope(&m, &base), &ref_base)?;
            check(&m, &cache.analyze_sorted_scope(&m, &full), &ref_full)?;
            check(&m, &cache.analyze_sorted_scope(&m, &full), &ref_full)?;
            let s = cache.stats();
            prop_assert_eq!(s.scratch_solves, 1);
            prop_assert_eq!(s.delta_solves, u64::from(base.len() < full.len()));
            prop_assert_eq!(s.exact_hits, 1 + u64::from(base.len() == full.len()));
        }
    }
}
