//! Incremental scoped points-to analysis.
//!
//! Scope-restricted Andersen analysis ([`crate::PointsTo::analyze_scoped`])
//! re-derives everything from scratch for every snapshot. In a batch
//! diagnosis server the snapshots of one failure corpus run the *same*
//! module with heavily overlapping executed-instruction sets — most
//! snapshots execute the same startup and steady-state code and differ
//! only in a small tail around the failure. [`PointsToCache`] exploits
//! that two ways:
//!
//! 1. **Per-function constraint recipes.** Constraint generation for an
//!    instruction ([`ConstraintOp`]s) depends only on the instruction
//!    and the module's type table — never on scope or solver state — so
//!    it is memoized once per function and replayed per scope.
//! 2. **Delta solving over cached solutions.** A solved constraint
//!    system is the least fixpoint of a monotone transfer; adding
//!    constraints and resuming the worklist from a solved state reaches
//!    exactly the fixpoint a from-scratch solve of the union reaches.
//!    So when a new scope is a superset of a previously solved scope,
//!    the cache clones that solution and replays only the scope *delta*
//!    (sorted by pc for determinism) instead of the whole scope.
//!
//! **Cache key**: the exact executed-`Pc` set, kept as an ascending
//! list. Exact-match scopes reuse the stored solution outright (a clone
//! of its flat [`PointsTo`]); otherwise the largest cached scope that is
//! a *subset* of the request seeds a delta solve.
//!
//! **Invalidation**: the module is immutable for a cache's lifetime. A
//! cache is bound to one module; the module's fingerprint
//! ([`Module::fingerprint`], computed once at assembly) is checked on
//! every call and a mismatch flushes all entries — callers that juggle
//! several modules should keep one cache per module (as the batch
//! server does).
//!
//! **Determinism / equivalence**: a points-to set is the set of
//! locations at the unique least fixpoint, stored in ascending order,
//! so cached, delta-solved, and from-scratch analyses return
//! byte-identical points-to sets and identical counters — the property
//! `crates/analysis/tests/proptests.rs` and the crate's differential
//! tests check and the batch-vs-sequential corpus test relies on.

use crate::andersen::{inst_constraint_ops, ConstraintOp, PointsTo, Solver, SolverState};
use lazy_ir::{Module, Pc};
use std::collections::{HashSet, VecDeque};

/// Counters describing how a [`PointsToCache`] resolved its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total `analyze_scoped` calls.
    pub lookups: u64,
    /// Requests whose scope exactly matched a cached solution.
    pub exact_hits: u64,
    /// Requests served by replaying a delta over a cached base.
    pub delta_solves: u64,
    /// Requests solved from scratch (no usable base).
    pub scratch_solves: u64,
    /// Instructions replayed on the delta path.
    pub delta_insts: u64,
    /// Instructions whose constraints were reused from a base solution
    /// instead of being regenerated (the saved work).
    pub reused_insts: u64,
    /// Solutions dropped to respect the capacity bound.
    pub evictions: u64,
    /// Cache flushes caused by a module-fingerprint change.
    pub flushes: u64,
}

struct CachedSolution {
    /// The solved scope, ascending.
    scope: Vec<Pc>,
    /// How many of the scope's pcs were analyzed (generated
    /// constraints) — the work a reuse of this entry saves.
    analyzed: usize,
    /// The solver's resting state, the base of later delta solves.
    state: SolverState,
    /// The queryable result an exact hit clones.
    result: PointsTo,
}

/// Whether every element of ascending `small` is in ascending `big`.
fn is_sorted_subset(small: &[Pc], big: &[Pc]) -> bool {
    let mut rest = big.iter();
    small.iter().all(|pc| rest.any(|b| b == pc))
}

/// The elements of ascending `scope` missing from ascending `base`, in
/// order.
fn sorted_difference(scope: &[Pc], base: &[Pc]) -> Vec<Pc> {
    let mut rest = base.iter().peekable();
    scope
        .iter()
        .filter(|pc| {
            while rest.next_if(|b| b < pc).is_some() {}
            rest.peek() != Some(pc)
        })
        .copied()
        .collect()
}

/// A reusable, incrementally updated scoped points-to analyzer for one
/// module. See the module docs for the caching and equivalence story.
///
/// # Examples
///
/// ```
/// use lazy_analysis::{incremental::PointsToCache, PointsTo};
/// use lazy_ir::{ModuleBuilder, Pc, Type};
/// use std::collections::HashSet;
///
/// let mut mb = ModuleBuilder::new("m");
/// let mut f = mb.function("main", vec![], Type::Void);
/// let e = f.entry();
/// f.switch_to(e);
/// let a = f.alloca(Type::I64);
/// let q = f.copy(a.clone());
/// f.halt();
/// f.finish();
/// let module = mb.finish().unwrap();
/// let all: HashSet<Pc> = module.all_insts().map(|(i, _)| i.pc).collect();
///
/// let mut cache = PointsToCache::new();
/// let warm = cache.analyze_scoped(&module, &all);
/// let hit = cache.analyze_scoped(&module, &all); // exact hit
/// let fid = module.func_by_name("main").unwrap().id;
/// assert_eq!(warm.pts_of_operand(fid, &q), hit.pts_of_operand(fid, &q));
/// assert_eq!(cache.stats().exact_hits, 1);
/// ```
pub struct PointsToCache {
    /// The bound module's [`Module::fingerprint`].
    fingerprint: Option<u64>,
    /// Memoized constraint recipes, flat: the ops of the instruction at
    /// PC slot `s` are `recipe_ops[recipes[s].0..recipes[s].1]`, for
    /// every *analyzed* instruction of every prepared function. An
    /// empty range after preparation means the instruction is
    /// irrelevant to points-to.
    recipes: Vec<(u32, u32)>,
    recipe_ops: Vec<ConstraintOp>,
    /// Per function id: its recipes are memoized.
    prepared: Vec<bool>,
    /// Solved scopes, oldest first (evicted from the front).
    solutions: VecDeque<CachedSolution>,
    capacity: usize,
    stats: CacheStats,
}

/// A recipe slot whose instruction generates no constraints.
const NO_RECIPE: (u32, u32) = (u32::MAX, u32::MAX);

impl Default for PointsToCache {
    fn default() -> PointsToCache {
        PointsToCache::new()
    }
}

impl PointsToCache {
    /// Default number of cached solutions (recipes are unbounded; they
    /// are small and bounded by module size).
    pub const DEFAULT_CAPACITY: usize = 32;

    /// Creates an empty cache with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> PointsToCache {
        PointsToCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache retaining at most `capacity` solved
    /// scopes (minimum 1).
    pub fn with_capacity(capacity: usize) -> PointsToCache {
        PointsToCache {
            fingerprint: None,
            recipes: Vec::new(),
            recipe_ops: Vec::new(),
            prepared: Vec::new(),
            solutions: VecDeque::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Resolution counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached solved scopes.
    pub fn cached_solutions(&self) -> usize {
        self.solutions.len()
    }

    /// Drops all cached recipes and solutions (counters survive).
    pub fn clear(&mut self) {
        self.fingerprint = None;
        self.recipes.clear();
        self.recipe_ops.clear();
        self.prepared.clear();
        self.solutions.clear();
    }

    fn rebind(&mut self, module: &Module) {
        let fp = module.fingerprint();
        if self.fingerprint != Some(fp) {
            if self.fingerprint.is_some() {
                self.stats.flushes += 1;
            }
            self.clear();
            self.fingerprint = Some(fp);
            self.recipes.resize(module.pc_slot_count(), NO_RECIPE);
            self.prepared.resize(module.functions().len(), false);
        }
    }

    /// Memoizes the constraint recipes of every function a PC of `pcs`
    /// lies in (each function once).
    fn prepare_pcs(&mut self, module: &Module, pcs: &[Pc]) {
        for &pc in pcs {
            let Some(loc) = module.loc_of_pc(pc) else {
                continue;
            };
            let done = &mut self.prepared[loc.func.0 as usize];
            if std::mem::replace(done, true) {
                continue;
            }
            for inst in module.func(loc.func).insts() {
                let start = self.recipe_ops.len();
                if inst_constraint_ops(module, loc.func, inst, &mut self.recipe_ops) {
                    let slot = module.pc_slot(inst.pc).expect("an instruction PC");
                    self.recipes[slot] = (start as u32, self.recipe_ops.len() as u32);
                }
            }
        }
    }

    /// Applies the memoized recipes of `pcs` (sorted by caller) to the
    /// solver; returns how many instructions were analyzed.
    fn replay(&self, module: &Module, solver: &mut Solver<'_>, pcs: &[Pc]) -> usize {
        let mut analyzed = 0;
        for &pc in pcs {
            let Some(slot) = module.pc_slot(pc) else {
                continue;
            };
            let (start, end) = self.recipes[slot];
            if (start, end) == NO_RECIPE {
                continue;
            }
            analyzed += 1;
            solver.note_analyzed(1);
            for op in &self.recipe_ops[start as usize..end as usize] {
                solver.apply_op(op);
            }
        }
        analyzed
    }

    /// Index of the cached scope equal to `scope`, else of the largest
    /// cached scope that is a subset of it (`true` = exact match).
    fn best_base(&self, scope: &[Pc]) -> Option<(usize, bool)> {
        let mut best: Option<(usize, usize)> = None;
        for (i, sol) in self.solutions.iter().enumerate() {
            if sol.scope == scope {
                return Some((i, true));
            }
            if sol.scope.len() < scope.len()
                && best.is_none_or(|(_, n)| sol.scope.len() > n)
                && is_sorted_subset(&sol.scope, scope)
            {
                best = Some((i, sol.scope.len()));
            }
        }
        best.map(|(i, _)| (i, false))
    }

    fn store(&mut self, scope: &[Pc], analyzed: usize, state: SolverState) -> PointsTo {
        let result = state.points_to();
        self.solutions.push_back(CachedSolution {
            scope: scope.to_vec(),
            analyzed,
            state,
            result: result.clone(),
        });
        while self.solutions.len() > self.capacity {
            self.solutions.pop_front();
            self.stats.evictions += 1;
        }
        result
    }

    /// Scope-restricted points-to analysis through the cache. Returns
    /// sets byte-identical to `PointsTo::analyze_scoped(module, scope)`.
    pub fn analyze_scoped(&mut self, module: &Module, scope: &HashSet<Pc>) -> PointsTo {
        let mut pcs: Vec<Pc> = scope.iter().copied().collect();
        pcs.sort_unstable();
        self.analyze_sorted_scope(module, &pcs)
    }

    /// [`PointsToCache::analyze_scoped`] over a scope already listed in
    /// ascending PC order, without a set to build.
    pub fn analyze_sorted_scope(&mut self, module: &Module, scope: &[Pc]) -> PointsTo {
        debug_assert!(scope.windows(2).all(|w| w[0] < w[1]), "scope not ascending");
        let _span = lazy_obs::span!("pointsto.cache.solve");
        self.rebind(module);
        self.stats.lookups += 1;

        match self.best_base(scope) {
            Some((i, true)) => {
                self.stats.exact_hits += 1;
                lazy_obs::counter!("pointsto.cache.exact_hits_total", 1u64);
                self.stats.reused_insts += self.solutions[i].analyzed as u64;
                // Refresh recency: an exact hit is the entry most worth
                // keeping.
                let sol = self.solutions.remove(i).expect("index from best_base");
                let result = sol.result.clone();
                self.solutions.push_back(sol);
                result
            }
            Some((i, false)) => {
                self.stats.delta_solves += 1;
                lazy_obs::counter!("pointsto.cache.delta_solves_total", 1u64);
                let _delta_span = lazy_obs::span!("pointsto.cache.delta");
                let base = &self.solutions[i];
                let delta = sorted_difference(scope, &base.scope);
                self.stats.reused_insts += base.analyzed as u64;
                self.stats.delta_insts += delta.len() as u64;
                let base_state = base.state.clone();
                let base_analyzed = base.analyzed;
                self.prepare_pcs(module, &delta);
                let mut solver = Solver::from_state(module, base_state);
                let analyzed = self.replay(module, &mut solver, &delta);
                solver.solve();
                self.store(scope, base_analyzed + analyzed, solver.into_state())
            }
            None => {
                self.stats.scratch_solves += 1;
                lazy_obs::counter!("pointsto.cache.scratch_solves_total", 1u64);
                let _scratch_span = lazy_obs::span!("pointsto.cache.scratch");
                self.prepare_pcs(module, scope);
                let mut solver = Solver::new(module, scope.len());
                let analyzed = self.replay(module, &mut solver, scope);
                solver.solve();
                self.store(scope, analyzed, solver.into_state())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_ir::{ModuleBuilder, Operand, Type};

    /// Two-function module: main stores &x to a global, cold stores &y.
    fn sample_module() -> Module {
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
        f.load(g.clone(), Type::I64.ptr_to());
        f.halt();
        f.finish();
        mb.finish().unwrap()
    }

    fn func_scope(m: &Module, name: &str) -> HashSet<Pc> {
        m.func_by_name(name)
            .unwrap()
            .insts()
            .map(|i| i.pc)
            .collect()
    }

    fn all_pointer_sets(m: &Module, pt: &PointsTo) -> Vec<crate::PtsSet> {
        m.all_insts()
            .filter_map(|(i, _)| pt.pts_of_pointer_at(m, i.pc))
            .collect()
    }

    #[test]
    fn scratch_then_exact_hit() {
        let m = sample_module();
        let scope = func_scope(&m, "main");
        let mut cache = PointsToCache::new();
        let a = cache.analyze_scoped(&m, &scope);
        let b = cache.analyze_scoped(&m, &scope);
        assert_eq!(all_pointer_sets(&m, &a), all_pointer_sets(&m, &b));
        let s = cache.stats();
        assert_eq!((s.scratch_solves, s.exact_hits, s.delta_solves), (1, 1, 0));
    }

    #[test]
    fn delta_solve_matches_from_scratch() {
        let m = sample_module();
        let small = func_scope(&m, "main");
        let mut big = small.clone();
        big.extend(func_scope(&m, "cold"));
        let mut cache = PointsToCache::new();
        cache.analyze_scoped(&m, &small);
        let inc = cache.analyze_scoped(&m, &big);
        let scratch = PointsTo::analyze_scoped(&m, &big);
        assert_eq!(all_pointer_sets(&m, &inc), all_pointer_sets(&m, &scratch));
        assert_eq!(inc.stats(), scratch.stats(), "even the counters agree");
        assert_eq!(cache.stats().delta_solves, 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let m = sample_module();
        let main = func_scope(&m, "main");
        let cold = func_scope(&m, "cold");
        let mut cache = PointsToCache::with_capacity(1);
        cache.analyze_scoped(&m, &main);
        cache.analyze_scoped(&m, &cold); // evicts main's solution
        assert_eq!(cache.cached_solutions(), 1);
        assert_eq!(cache.stats().evictions, 1);
        cache.analyze_scoped(&m, &main); // must re-solve from scratch
        assert_eq!(cache.stats().scratch_solves, 3);
    }

    #[test]
    fn module_change_flushes() {
        let m1 = sample_module();
        let mut mb = ModuleBuilder::new("other");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        f.alloca(Type::I64);
        f.halt();
        f.finish();
        let m2 = mb.finish().unwrap();

        let mut cache = PointsToCache::new();
        cache.analyze_scoped(&m1, &func_scope(&m1, "main"));
        cache.analyze_scoped(&m2, &func_scope(&m2, "main"));
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.cached_solutions(), 1);
    }

    #[test]
    fn irrelevant_instructions_do_not_break_replay() {
        // A scope containing only pcs with no points-to relevance (the
        // halt) still solves and returns empty sets.
        let m = sample_module();
        let halt_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, lazy_ir::InstKind::Halt))
            .map(|(i, _)| i.pc)
            .unwrap();
        let scope: HashSet<Pc> = [halt_pc].into_iter().collect();
        let mut cache = PointsToCache::new();
        let pt = cache.analyze_scoped(&m, &scope);
        let fid = m.func_by_name("main").unwrap().id;
        assert!(pt
            .pts_of_operand(fid, &Operand::Reg(lazy_ir::ValueId(0)))
            .is_empty());
    }
}
