//! Multi-variable atomicity violations — the §7 extension.
//!
//! The paper scopes Lazy Diagnosis to *single-variable* atomicity
//! violations and leaves multi-variable cases to future work, noting
//! they would need data-flow information. The missing ingredient is
//! available statically: when a failed assertion's condition feeds from
//! **two loads of non-aliasing locations** (a consistency check over a
//! variable pair, e.g. MySQL's `HOT_LOG`/`LOG_TO_BE_OPENED` pair in the
//! §7 citation \[56\]), the failure itself names the variable pair. The
//! diagnosis then looks for a *remote update pair* to the same two
//! variables whose window the reader pair straddles — the torn-snapshot
//! interleaving:
//!
//! ```text
//!   updater:  W(A) ............ W(B)      (intended atomic)
//!   reader:          R(A)  R(B)           torn: sees new A, old B
//! ```
//!
//! or the mirrored case (reader window contains the whole update).
//! Statistical diagnosis then separates the torn interleaving from the
//! benign orders exactly as for single-variable patterns.

use crate::candidates::CandidateSet;
use crate::patterns::{access_kind, AccessKind, BugPattern, PatternEvent};
use crate::processing::ProcessedTrace;
use lazy_analysis::{effective_failing_accesses, PointsTo, PtsView};
use lazy_ir::{InstKind, Module, Pc};
use std::collections::HashSet;

/// Generates multi-variable atomicity patterns for a crash whose
/// failing value feeds from two (or more) loads of disjoint locations.
///
/// Returns an empty vector when the failure is single-variable (the
/// regular pipeline handles it).
pub fn multivar_patterns(
    module: &Module,
    pts: &PointsTo,
    executed: &HashSet<Pc>,
    raw_failing_pc: Pc,
    trace: &ProcessedTrace,
    cands: &CandidateSet,
) -> Vec<BugPattern> {
    let executed: Vec<Pc> = executed.iter().copied().collect();
    multivar_patterns_in(module, pts, &executed, raw_failing_pc, trace, cands)
}

/// [`multivar_patterns`] over the executed instructions as a list, in
/// any order (the server's ascending executed list).
pub(crate) fn multivar_patterns_in(
    module: &Module,
    pts: &PointsTo,
    executed: &[Pc],
    raw_failing_pc: Pc,
    trace: &ProcessedTrace,
    cands: &CandidateSet,
) -> Vec<BugPattern> {
    let feeds = effective_failing_accesses(module, raw_failing_pc);
    if feeds.len() < 2 {
        return Vec::new();
    }
    // Take the first pair of feeding loads whose points-to sets are
    // disjoint: a genuine variable *pair*.
    let mut pair: Option<(Pc, Pc)> = None;
    'outer: for i in 0..feeds.len() {
        for j in (i + 1)..feeds.len() {
            let (a, b) = (feeds[i], feeds[j]);
            let (Some(pa), Some(pb)) = (
                pts.pts_view_of_pointer_at(module, a),
                pts.pts_view_of_pointer_at(module, b),
            ) else {
                continue;
            };
            if !pa.is_empty() && !pb.is_empty() && !pa.intersects(&pb) {
                pair = Some((a, b));
                break 'outer;
            }
        }
    }
    let Some((ra_pc, rb_pc)) = pair else {
        return Vec::new();
    };
    let view = |pc| {
        pts.pts_view_of_pointer_at(module, pc)
            .unwrap_or(PtsView::EMPTY)
    };
    let (pts_a, pts_b) = (view(ra_pc), view(rb_pc));

    // The reader pair's last instances in the failing thread.
    let Some(ra) = trace.last_instance_in_thread(ra_pc, trace.trigger_tid) else {
        return Vec::new();
    };
    let Some(rb) = trace.last_instance_in_thread(rb_pc, trace.trigger_tid) else {
        return Vec::new();
    };
    if ra.seq >= rb.seq {
        return Vec::new();
    }
    let reader_tid = trace.trigger_tid;

    // Remote update candidates per variable: executed writes aliasing
    // each location.
    let writes_to = |target: &PtsView<'_>| -> Vec<Pc> {
        executed
            .iter()
            .filter(|pc| {
                let Some(inst) = module.inst(**pc) else {
                    return false;
                };
                if !inst.kind.is_write() && !matches!(inst.kind, InstKind::Free { .. }) {
                    return false;
                }
                let Some(loc) = module.loc_of_pc(**pc) else {
                    return false;
                };
                let Some(op) = inst.kind.pointer_operand() else {
                    return false;
                };
                pts.pts_view_of_operand(loc.func, op).intersects(target)
            })
            .copied()
            .collect()
    };
    let wa_cands = writes_to(&pts_a);
    let wb_cands = writes_to(&pts_b);

    let ev = |pc: Pc| -> Option<PatternEvent> {
        Some(PatternEvent {
            pc,
            kind: access_kind(&module.inst(pc)?.kind)?,
        })
    };

    let mut out = Vec::new();
    for &wa_pc in &wa_cands {
        for &wb_pc in &wb_cands {
            if wa_pc == wb_pc {
                continue;
            }
            for wa in trace.instances_of(wa_pc) {
                if wa.tid == reader_tid {
                    continue;
                }
                for wb in trace.instances_of(wb_pc) {
                    if wb.tid != wa.tid || wa.seq >= wb.seq {
                        continue;
                    }
                    let torn_new_old = wa.definitely_before(&ra) && rb.definitely_before(wb);
                    let torn_old_new = ra.definitely_before(wa) && wb.definitely_before(&rb);
                    if !(torn_new_old || torn_old_new) {
                        continue;
                    }
                    let (Some(w1), Some(w2), Some(r1), Some(r2)) =
                        (ev(wa_pc), ev(wb_pc), ev(ra_pc), ev(rb_pc))
                    else {
                        continue;
                    };
                    if w1.kind != AccessKind::Write && w2.kind != AccessKind::Write {
                        continue;
                    }
                    out.push(BugPattern::MultiVarAtomicity {
                        w_first: w1,
                        w_second: w2,
                        r_first: r1,
                        r_second: r2,
                    });
                }
            }
        }
    }
    let _ = cands;
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processing::DynInstance;
    use lazy_trace::TimeBounds;

    fn trace_with(trigger: (u32, u64), instances: Vec<(u64, Vec<DynInstance>)>) -> ProcessedTrace {
        ProcessedTrace::from_instances(
            trigger.0,
            Pc(trigger.1),
            u64::MAX,
            instances
                .into_iter()
                .flat_map(|(pc, is)| is.into_iter().map(move |i| (Pc(pc), i))),
        )
    }

    /// An instance; `from_instances` derives its resume bound.
    fn inst(tid: u32, seq: usize, lo: u64) -> DynInstance {
        DynInstance {
            tid,
            seq,
            time: TimeBounds { lo, hi: lo + 10 },
            resume: 0,
        }
    }

    #[test]
    fn torn_snapshot_presence_detected() {
        use crate::patterns::pattern_present;
        let p = BugPattern::MultiVarAtomicity {
            w_first: PatternEvent {
                pc: Pc(10),
                kind: AccessKind::Write,
            },
            w_second: PatternEvent {
                pc: Pc(20),
                kind: AccessKind::Write,
            },
            r_first: PatternEvent {
                pc: Pc(30),
                kind: AccessKind::Read,
            },
            r_second: PatternEvent {
                pc: Pc(40),
                kind: AccessKind::Read,
            },
        };
        // Torn: W(A) < R(A), R(B) < W(B).
        let t = trace_with(
            (2, 40),
            vec![
                (10, vec![inst(1, 0, 100)]),
                (20, vec![inst(1, 1, 900)]),
                (30, vec![inst(2, 0, 400)]),
                (40, vec![inst(2, 1, 600)]),
            ],
        );
        assert!(pattern_present(&p, &t));
        // Consistent: reads entirely before the update pair.
        let t = trace_with(
            (2, 40),
            vec![
                (10, vec![inst(1, 0, 700)]),
                (20, vec![inst(1, 1, 900)]),
                (30, vec![inst(2, 0, 100)]),
                (40, vec![inst(2, 1, 300)]),
            ],
        );
        assert!(!pattern_present(&p, &t));
        // Consistent: reads entirely after.
        let t = trace_with(
            (2, 40),
            vec![
                (10, vec![inst(1, 0, 100)]),
                (20, vec![inst(1, 1, 200)]),
                (30, vec![inst(2, 0, 700)]),
                (40, vec![inst(2, 1, 900)]),
            ],
        );
        assert!(!pattern_present(&p, &t));
        // Mirrored torn case: reads contain the whole update window.
        let t = trace_with(
            (2, 40),
            vec![
                (10, vec![inst(1, 0, 400)]),
                (20, vec![inst(1, 1, 600)]),
                (30, vec![inst(2, 0, 100)]),
                (40, vec![inst(2, 1, 900)]),
            ],
        );
        assert!(pattern_present(&p, &t));
    }
}
