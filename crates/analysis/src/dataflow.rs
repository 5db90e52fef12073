//! Short backward data-flow walks.
//!
//! When a failure manifests at an instruction without a pointer operand
//! (a failed assertion — the paper's custom fail-stop mode, §7), the
//! diagnosis must recover the memory access whose value fed it. This is
//! the same move RETracer (the paper's §2 lineage) makes from a corrupt
//! value: walk register definitions backward until a load is found.

use crate::fasthash::{FastMap, FastSet};
use lazy_ir::{InstKind, Module, Operand, Pc, ValueId};

/// Finds every memory access whose value feeds the instruction at
/// `pc`, walking register defs backward within the function (bounded),
/// in program order.
///
/// Returns `[pc]` when the instruction already has a pointer operand.
/// A failed assertion comparing *two* loaded values yields both loads —
/// the entry point of multi-variable atomicity diagnosis (the paper's
/// §7 future work, implemented here as an extension).
pub fn effective_failing_accesses(module: &Module, pc: Pc) -> Vec<Pc> {
    let Some(inst) = module.inst(pc) else {
        return vec![pc];
    };
    if inst.kind.pointer_operand().is_some() {
        return vec![pc];
    }
    let Some(loc) = module.loc_of_pc(pc) else {
        return vec![pc];
    };
    let func = module.func(loc.func);
    // Def map of the function (registers are defined once).
    let defs: FastMap<ValueId, Pc> = func
        .insts()
        .filter_map(|i| i.result.map(|r| (r, i.pc)))
        .collect();
    // Backward walk through operand registers collecting loads.
    let mut queue: Vec<ValueId> = inst
        .kind
        .operands()
        .iter()
        .filter_map(|o| o.as_reg())
        .collect();
    let mut seen: FastSet<ValueId> = queue.iter().copied().collect();
    let mut loads: Vec<Pc> = Vec::new();
    let mut fuel = 256;
    while let Some(v) = queue.pop() {
        fuel -= 1;
        if fuel == 0 {
            break;
        }
        let Some(&def_pc) = defs.get(&v) else {
            continue;
        };
        let Some(def) = module.inst(def_pc) else {
            continue;
        };
        if matches!(def.kind, InstKind::Load { .. }) {
            if !loads.contains(&def_pc) {
                loads.push(def_pc);
            }
            continue;
        }
        for o in def.kind.operands() {
            if let Operand::Reg(r) = o {
                if seen.insert(*r) {
                    queue.push(*r);
                }
            }
        }
    }
    if loads.is_empty() {
        return vec![pc];
    }
    loads.sort();
    loads
}

/// Finds the *primary* memory access feeding the instruction at `pc`:
/// the last (failure-nearest) of [`effective_failing_accesses`], or
/// `pc` itself when it has a pointer operand.
pub fn effective_failing_access(module: &Module, pc: Pc) -> Pc {
    *effective_failing_accesses(module, pc)
        .last()
        .expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_ir::{ModuleBuilder, Type};

    #[test]
    fn walks_back_to_the_feeding_load() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", Type::I64, vec![0]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let v = f.load(g, Type::I64);
        let c = f.eq(v, Operand::ConstInt(1));
        f.assert(c, "check");
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
        assert_eq!(effective_failing_access(&m, load_pc), load_pc);
    }

    #[test]
    fn two_feeding_loads_are_both_found() {
        let mut mb = ModuleBuilder::new("m");
        let ga = mb.global("a", Type::I64, vec![0]);
        let gb = mb.global("b", Type::I64, vec![0]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let va = f.load(ga, Type::I64);
        let vb = f.load(gb, Type::I64);
        let c = f.eq(va, vb);
        f.assert(c, "pair consistent");
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let assert_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Assert { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        let loads: Vec<Pc> = m
            .all_insts()
            .filter(|(i, _)| matches!(i.kind, InstKind::Load { .. }))
            .map(|(i, _)| i.pc)
            .collect();
        assert_eq!(effective_failing_accesses(&m, assert_pc), loads);
        // The primary access is the failure-nearest load.
        assert_eq!(effective_failing_access(&m, assert_pc), loads[1]);
    }
}
