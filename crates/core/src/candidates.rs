//! Candidate selection (steps 4 and 5 of the pipeline).
//!
//! The hybrid points-to analysis (Andersen scoped to executed code) maps
//! the failing instruction's pointer operand to its abstract locations;
//! the candidate set is every *executed* memory or synchronization
//! instruction whose own pointer operand may reference one of those
//! locations. Type-based ranking then orders the candidates.
//!
//! When the failing instruction carries no pointer operand (a failed
//! assertion, the paper's custom fail-stop mode), the effective failing
//! access is recovered with a short backward data-flow walk to the load
//! feeding the assert — the same move RETracer makes from a corrupt
//! value (§2.2 of the paper discusses this lineage).

use lazy_analysis::{rank_candidates, PointsTo, PtsSet, PtsView, RankedInst};
use lazy_ir::{InstKind, Module, Pc};
use std::collections::HashSet;

/// The selected and ranked candidates for one failure.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// The effective failing access (the failing PC itself, or the load
    /// feeding a failed assertion).
    pub failing_pc: Pc,
    /// The failing operand's points-to set.
    pub failing_pts: PtsSet,
    /// Ranked candidates, best first; includes the failing PC.
    pub ranked: Vec<RankedInst>,
    /// How many executed instructions had a pointer operand at all
    /// (pre-aliasing population, for stage-reduction stats).
    pub pointer_insts_executed: usize,
}

impl CandidateSet {
    /// Candidate PCs in rank order.
    pub fn pcs(&self) -> Vec<Pc> {
        self.ranked.iter().map(|r| r.pc).collect()
    }

    /// Candidates with rank 1 (exact type match).
    pub fn rank1_count(&self) -> usize {
        self.ranked.iter().filter(|r| r.rank == 1).count()
    }
}

/// Finds the memory access whose value feeds the instruction at `pc`
/// (re-exported from [`lazy_analysis::dataflow`]; see there).
pub use lazy_analysis::effective_failing_access;

/// Selects and ranks candidates (pipeline steps 4–5).
///
/// `deadlock` switches the candidate universe: for deadlock failures the
/// interesting instructions are lock operations (all of them — the
/// cycle involves several distinct lock objects, not just the one the
/// failing thread blocked on); for crashes they are the memory accesses
/// aliasing the failing operand.
pub fn select_candidates(
    module: &Module,
    pts: &PointsTo,
    executed: &HashSet<Pc>,
    raw_failing_pc: Pc,
    deadlock: bool,
) -> CandidateSet {
    let executed: Vec<Pc> = executed.iter().copied().collect();
    select_candidates_in(module, pts, &executed, raw_failing_pc, deadlock)
}

/// [`select_candidates`] over the executed instructions as a list, in
/// any order: the server passes its ascending executed list, with no
/// set to build. Aliasing is tested on borrowed points-to views, so an
/// executed instruction costs no allocation.
pub(crate) fn select_candidates_in(
    module: &Module,
    pts: &PointsTo,
    executed: &[Pc],
    raw_failing_pc: Pc,
    deadlock: bool,
) -> CandidateSet {
    let failing_pc = effective_failing_access(module, raw_failing_pc);
    let failing = pts
        .pts_view_of_pointer_at(module, failing_pc)
        .unwrap_or(PtsView::EMPTY);

    let mut pointer_insts_executed = 0usize;
    let mut chosen: Vec<Pc> = Vec::new();
    for &pc in executed {
        let Some(inst) = module.inst(pc) else {
            continue;
        };
        let Some(op) = inst.kind.pointer_operand() else {
            continue;
        };
        pointer_insts_executed += 1;
        let keep = if deadlock {
            // Lock operations participate in lock-order cycles.
            inst.kind.is_lock_acquire() || inst.kind.is_lock_release()
        } else {
            if !(inst.kind.is_memory_access()
                || matches!(inst.kind, InstKind::Free { .. })
                || inst.kind.is_lock_acquire())
            {
                false
            } else if pc == failing_pc {
                true
            } else {
                let Some(loc) = module.loc_of_pc(pc) else {
                    continue;
                };
                pts.pts_view_of_operand(loc.func, op).intersects(&failing)
            }
        };
        if keep {
            chosen.push(pc);
        }
    }
    if !chosen.contains(&failing_pc) && executed.contains(&failing_pc) {
        chosen.push(failing_pc);
    }
    let ranked = rank_candidates(module, failing_pc, &chosen);
    CandidateSet {
        failing_pc,
        failing_pts: failing.to_set(),
        ranked,
        pointer_insts_executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_ir::{ModuleBuilder, Operand, Type};

    /// Two shared objects; a crash on one must not pull in accesses to
    /// the other.
    #[test]
    fn aliasing_filters_candidates() {
        let mut mb = ModuleBuilder::new("m");
        let ga = mb.global("a", Type::I64, vec![0]);
        let gb = mb.global("b", Type::I64, vec![0]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        f.store(ga.clone(), Operand::const_int(1), Type::I64);
        f.store(gb.clone(), Operand::const_int(2), Type::I64);
        let fail = f.load(ga.clone(), Type::I64);
        let _ = fail;
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pts = PointsTo::analyze(&m);
        let executed: HashSet<Pc> = m.all_insts().map(|(i, _)| i.pc).collect();
        let load_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Load { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        let cs = select_candidates(&m, &pts, &executed, load_pc, false);
        let store_a = m
            .all_insts()
            .find(|(i, _)| i.kind.is_write())
            .map(|(i, _)| i.pc)
            .unwrap();
        let store_b = m
            .all_insts()
            .filter(|(i, _)| i.kind.is_write())
            .map(|(i, _)| i.pc)
            .nth(1)
            .unwrap();
        let pcs = cs.pcs();
        assert!(pcs.contains(&store_a), "aliasing store selected");
        assert!(!pcs.contains(&store_b), "non-aliasing store excluded");
        assert!(pcs.contains(&load_pc), "failing instruction included");
        assert_eq!(cs.failing_pc, load_pc);
    }

    /// A failed assert's effective access is the load feeding it.
    #[test]
    fn assert_failure_maps_to_feeding_load() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", Type::I64, vec![0]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let v = f.load(g.clone(), Type::I64);
        let c = f.eq(v, Operand::const_int(1));
        f.assert(c, "g must be 1");
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let assert_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Assert { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        let load_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Load { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        assert_eq!(effective_failing_access(&m, assert_pc), load_pc);
        // A load is its own effective access.
        assert_eq!(effective_failing_access(&m, load_pc), load_pc);
    }

    /// Deadlock mode selects lock operations.
    #[test]
    fn deadlock_mode_selects_lock_ops() {
        let mut mb = ModuleBuilder::new("m");
        let ma = mb.global("ma", Type::Mutex, vec![]);
        let g = mb.global("g", Type::I64, vec![0]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        f.lock(ma.clone());
        f.store(g.clone(), Operand::const_int(1), Type::I64);
        f.unlock(ma.clone());
        f.lock(ma.clone());
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pts = PointsTo::analyze(&m);
        let executed: HashSet<Pc> = m.all_insts().map(|(i, _)| i.pc).collect();
        let fail_pc = m
            .all_insts()
            .filter(|(i, _)| i.kind.is_lock_acquire())
            .map(|(i, _)| i.pc)
            .last()
            .unwrap();
        let cs = select_candidates(&m, &pts, &executed, fail_pc, true);
        for r in &cs.ranked {
            let k = &m.inst(r.pc).unwrap().kind;
            assert!(
                k.is_lock_acquire() || matches!(k, InstKind::MutexUnlock { .. }),
                "non-lock candidate {k:?}"
            );
        }
        assert!(cs.ranked.len() >= 3);
    }

    /// Ranking puts exact type matches first.
    #[test]
    fn ranked_order_respects_types() {
        let mut mb = ModuleBuilder::new("m");
        mb.struct_def("Q", vec![("x".into(), Type::I64)]);
        let qty = Type::Struct("Q".into());
        let gq = mb.global("q", qty.clone().ptr_to(), vec![]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let obj = f.heap_alloc(qty.clone(), Operand::const_int(1));
        // Store the same pointer twice: once typed Q*, once as i64.
        f.store(gq.clone(), obj.clone(), qty.clone().ptr_to());
        f.store(gq.clone(), obj, Type::I64);
        f.load(gq.clone(), qty.ptr_to());
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let pts = PointsTo::analyze(&m);
        let executed: HashSet<Pc> = m.all_insts().map(|(i, _)| i.pc).collect();
        let load_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Load { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        let cs = select_candidates(&m, &pts, &executed, load_pc, false);
        assert!(cs.rank1_count() >= 2, "Q* store and Q* load are rank 1");
        // Ranked order: all rank-1 before rank-2.
        let ranks: Vec<u32> = cs.ranked.iter().map(|r| r.rank).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted);
    }
}
