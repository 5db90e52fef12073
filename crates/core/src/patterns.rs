//! Bug-pattern computation (step 6 of the pipeline).
//!
//! Combines the type-ranked candidate instructions with the
//! partially-ordered dynamic trace to generate the concurrency-bug
//! patterns of the paper's Figure 1:
//!
//! * **deadlocks** — lock-order cycles across threads, reconstructed
//!   from each thread's lock/unlock instruction stream and the abstract
//!   lock objects their operands may point to;
//! * **order violations** — cross-thread access pairs to the same
//!   abstract location, at least one a write, with an observed
//!   executes-before order;
//! * **single-variable atomicity violations** — local-remote-local
//!   triples (RWR, WWR, RWW, WRW) where a remote access interleaves a
//!   local pair.
//!
//! Partial flow sensitivity: order between dynamic instances comes only
//! from the coarse trace timing ([`DynInstance::definitely_before`]);
//! when the windows of the target events overlap, no order is claimed —
//! the pattern degrades to [`BugPattern::UnorderedTargets`] (§7's
//! honest fallback) instead of guessing.

use crate::candidates::CandidateSet;
use crate::processing::{DynInstance, ProcessedTrace};
use lazy_analysis::{PointsTo, PtsView};
use lazy_ir::{InstKind, Module, Pc};

/// The access kind of a pattern event, as rendered in reports
/// (`R`/`W`/`L` for lock).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// A read (load, or read-like use such as a lock of an object).
    Read,
    /// A write (store or free).
    Write,
    /// A lock acquisition.
    Lock,
}

impl AccessKind {
    fn letter(self) -> char {
        match self {
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
            AccessKind::Lock => 'L',
        }
    }
}

/// Classifies an instruction as a pattern event kind.
pub fn access_kind(kind: &InstKind) -> Option<AccessKind> {
    match kind {
        InstKind::Load { .. } => Some(AccessKind::Read),
        InstKind::Store { .. } | InstKind::Free { .. } => Some(AccessKind::Write),
        InstKind::MutexLock { .. }
        | InstKind::MutexTryLock { .. }
        | InstKind::RwLockRead { .. }
        | InstKind::RwLockWrite { .. } => Some(AccessKind::Lock),
        // A lock release or condvar use reads the object.
        InstKind::MutexUnlock { .. }
        | InstKind::RwUnlock { .. }
        | InstKind::CondWait { .. }
        | InstKind::CondSignal { .. }
        | InstKind::CondBroadcast { .. } => Some(AccessKind::Read),
        _ => None,
    }
}

/// One static event of a pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternEvent {
    /// The instruction.
    pub pc: Pc,
    /// Its access kind.
    pub kind: AccessKind,
}

/// The atomicity-violation shapes of Figure 1(c).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AtomKind {
    /// Read, remote write, read.
    Rwr,
    /// Write, remote write, read.
    Wwr,
    /// Read, remote write, write.
    Rww,
    /// Write, remote read, write.
    Wrw,
}

impl AtomKind {
    /// Derives the shape from the three access kinds (local, remote,
    /// local); `None` if the combination is not one of the four
    /// single-variable shapes.
    pub fn from_kinds(a: AccessKind, b: AccessKind, c: AccessKind) -> Option<AtomKind> {
        use AccessKind::{Read, Write};
        match (a, b, c) {
            (Read, Write, Read) => Some(AtomKind::Rwr),
            (Write, Write, Read) => Some(AtomKind::Wwr),
            (Read, Write, Write) => Some(AtomKind::Rww),
            (Write, Read, Write) => Some(AtomKind::Wrw),
            _ => None,
        }
    }

    /// The shape's conventional name.
    pub fn name(self) -> &'static str {
        match self {
            AtomKind::Rwr => "RWR",
            AtomKind::Wwr => "WWR",
            AtomKind::Rww => "RWW",
            AtomKind::Wrw => "WRW",
        }
    }
}

/// One held-lock → wanted-lock edge of a deadlock pattern.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeadlockEdge {
    /// PC of the acquisition of the held lock.
    pub hold_pc: Pc,
    /// PC of the blocking acquisition attempt.
    pub want_pc: Pc,
}

/// A candidate root-cause pattern.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugPattern {
    /// Cross-thread ordered access pair (Figure 1b).
    OrderViolation {
        /// The earlier access.
        first: PatternEvent,
        /// The later access (in crashes, usually the failing one).
        second: PatternEvent,
    },
    /// Local-remote-local interleaving (Figure 1c).
    AtomicityViolation {
        /// The shape (RWR/WWR/RWW/WRW).
        kind: AtomKind,
        /// First local access.
        first: PatternEvent,
        /// The interleaved remote access.
        second: PatternEvent,
        /// Second local access (the failing one in crashes).
        third: PatternEvent,
    },
    /// A lock-order cycle (Figure 1a); one edge per participating
    /// thread, sorted for canonical identity.
    Deadlock {
        /// The cycle's hold→want edges.
        edges: Vec<DeadlockEdge>,
    },
    /// A multi-variable atomicity violation (the paper's §7 future
    /// work, implemented as an extension; see [`crate::multivar`]): a
    /// local pair of updates to *different* variables, straddled by a
    /// remote pair of accesses that observed an inconsistent snapshot.
    MultiVarAtomicity {
        /// First local update (program order).
        w_first: PatternEvent,
        /// Second local update.
        w_second: PatternEvent,
        /// First remote access.
        r_first: PatternEvent,
        /// Second remote access (in crashes, the failure feeds from
        /// these).
        r_second: PatternEvent,
    },
    /// The §7 fallback: the target events likely involved in the bug,
    /// reported *without* ordering because the coarse timing could not
    /// order them.
    UnorderedTargets {
        /// The unordered target events.
        events: Vec<PatternEvent>,
    },
}

impl BugPattern {
    /// A short human-readable signature, e.g. `W->R`, `RWR`, `deadlock/2`.
    pub fn signature(&self) -> String {
        match self {
            BugPattern::OrderViolation { first, second } => {
                format!("{}->{}", first.kind.letter(), second.kind.letter())
            }
            BugPattern::AtomicityViolation { kind, .. } => kind.name().to_string(),
            BugPattern::Deadlock { edges } => format!("deadlock/{}", edges.len()),
            BugPattern::MultiVarAtomicity {
                w_first,
                w_second,
                r_first,
                r_second,
            } => {
                format!(
                    "mv-{}{}|{}{}",
                    w_first.kind.letter(),
                    w_second.kind.letter(),
                    r_first.kind.letter(),
                    r_second.kind.letter()
                )
            }
            BugPattern::UnorderedTargets { events } => {
                format!("unordered/{}", events.len())
            }
        }
    }

    /// The PCs participating in the pattern, in pattern order.
    pub fn pcs(&self) -> Vec<Pc> {
        match self {
            BugPattern::OrderViolation { first, second } => vec![first.pc, second.pc],
            BugPattern::AtomicityViolation {
                first,
                second,
                third,
                ..
            } => {
                vec![first.pc, second.pc, third.pc]
            }
            BugPattern::Deadlock { edges } => {
                edges.iter().flat_map(|e| [e.hold_pc, e.want_pc]).collect()
            }
            BugPattern::MultiVarAtomicity {
                w_first,
                w_second,
                r_first,
                r_second,
            } => {
                vec![w_first.pc, w_second.pc, r_first.pc, r_second.pc]
            }
            BugPattern::UnorderedTargets { events } => events.iter().map(|e| e.pc).collect(),
        }
    }
}

/// One candidate's alias information in a [`PatternContext`].
struct CandInfo<'a> {
    pc: Pc,
    kind: Option<AccessKind>,
    /// The points-to set of its pointer operand, borrowed from the
    /// solved analysis.
    pts: PtsView<'a>,
}

/// Per-candidate alias information used during generation and presence
/// checking: each candidate's access kind and borrowed points-to set,
/// so an alias question costs a lookup and a merge walk, no allocation.
pub struct PatternContext<'a> {
    module: &'a Module,
    /// The candidates with a pointer operand, ascending by PC.
    cands: Vec<CandInfo<'a>>,
}

impl<'a> PatternContext<'a> {
    /// Builds the context for a candidate set.
    pub fn new(module: &'a Module, pts: &'a PointsTo, cands: &CandidateSet) -> PatternContext<'a> {
        let mut infos: Vec<CandInfo<'a>> = cands
            .ranked
            .iter()
            .filter_map(|r| {
                Some(CandInfo {
                    pc: r.pc,
                    kind: access_kind(&module.inst(r.pc)?.kind),
                    pts: pts.pts_view_of_pointer_at(module, r.pc)?,
                })
            })
            .collect();
        infos.sort_unstable_by_key(|c| c.pc);
        infos.dedup_by_key(|c| c.pc);
        PatternContext {
            module,
            cands: infos,
        }
    }

    fn cand(&self, pc: Pc) -> Option<&CandInfo<'a>> {
        let i = self.cands.binary_search_by_key(&pc, |c| c.pc).ok()?;
        Some(&self.cands[i])
    }

    fn kind_of(&self, pc: Pc) -> Option<AccessKind> {
        match self.cand(pc) {
            Some(c) => c.kind,
            None => self.module.inst(pc).and_then(|i| access_kind(&i.kind)),
        }
    }

    /// The candidate's points-to set (empty for a non-candidate).
    fn pts_of(&self, pc: Pc) -> PtsView<'a> {
        self.cand(pc).map_or(PtsView::EMPTY, |c| c.pts)
    }

    fn may_alias(&self, a: Pc, b: Pc) -> bool {
        match (self.cand(a), self.cand(b)) {
            (Some(ca), Some(cb)) => ca.pts.intersects(&cb.pts),
            _ => false,
        }
    }
}

/// Generates candidate patterns for a *crash* failure from the failing
/// trace (order violations and atomicity violations involving the
/// failing access).
pub fn crash_patterns(
    ctx: &PatternContext<'_>,
    cands: &CandidateSet,
    trace: &ProcessedTrace,
) -> Vec<BugPattern> {
    let fail_pc = cands.failing_pc;
    let Some(fail_kind) = ctx.kind_of(fail_pc) else {
        return Vec::new();
    };
    let fail_ev = PatternEvent {
        pc: fail_pc,
        kind: fail_kind,
    };
    let Some(f_inst) = trace.trigger_fallback(fail_pc) else {
        return Vec::new();
    };

    let mut out = Vec::new();
    let mut unordered: Vec<PatternEvent> = Vec::new();
    // The candidates that may alias the failing access, in rank order:
    // every pair and triple below draws its other events from these.
    let aliasing: Vec<PatternEvent> = cands
        .ranked
        .iter()
        .filter_map(|r| {
            let kind = ctx.kind_of(r.pc)?;
            ctx.may_alias(r.pc, fail_pc)
                .then_some(PatternEvent { pc: r.pc, kind })
        })
        .collect();

    for &c_ev in &aliasing {
        let (c, ckind) = (c_ev.pc, c_ev.kind);
        if c == fail_pc {
            continue;
        }
        // A race needs a write somewhere in the pair (lock uses count as
        // reads of the object).
        let write_involved =
            matches!(ckind, AccessKind::Write) || matches!(fail_kind, AccessKind::Write);

        // Remote instances: order-violation pairs with the failing
        // access.
        let mut any_remote = false;
        for x in trace.instances_of(c) {
            if x.tid == f_inst.tid {
                continue;
            }
            any_remote = true;
            if !write_involved {
                continue;
            }
            if x.definitely_before(&f_inst) {
                out.push(BugPattern::OrderViolation {
                    first: c_ev,
                    second: fail_ev,
                });
            } else if f_inst.definitely_before(x) {
                out.push(BugPattern::OrderViolation {
                    first: fail_ev,
                    second: c_ev,
                });
            } else {
                // Overlapping windows: the coarse interleaving
                // hypothesis failed for this pair — report without
                // order rather than mislead (§7).
                unordered.push(c_ev);
            }
        }
        // The aliasing candidate never executed remotely in the failing
        // trace at all: the failure proves the failing access ran
        // *before* it would have (a late-publish order violation, e.g.
        // Transmission #1818's use-before-assignment).
        if !any_remote && write_involved {
            out.push(BugPattern::OrderViolation {
                first: fail_ev,
                second: c_ev,
            });
        }

        // Atomicity triples with the failing access in the *middle*
        // (e.g. WRW: a remote reader faults on the intermediate state
        // between a local write pair): candidates `c` then `y` in one
        // remote thread bracketing the failing access.
        for &y_ev in &aliasing {
            let Some(shape) = AtomKind::from_kinds(ckind, fail_kind, y_ev.kind) else {
                continue;
            };
            let y_pc = y_ev.pc;
            for x in trace.instances_of(c) {
                if x.tid == f_inst.tid {
                    continue;
                }
                for y in trace.instances_of(y_pc) {
                    if y.tid != x.tid || y.seq <= x.seq {
                        continue;
                    }
                    if x.definitely_before(&f_inst) && f_inst.definitely_before(y) {
                        out.push(BugPattern::AtomicityViolation {
                            kind: shape,
                            first: c_ev,
                            second: fail_ev,
                            third: y_ev,
                        });
                    }
                }
            }
        }

        // Atomicity triples: a local access `a` before the failure, a
        // remote access `x` in between.
        for &a_ev in &aliasing {
            let Some(shape) = AtomKind::from_kinds(a_ev.kind, ckind, fail_kind) else {
                continue;
            };
            for a in trace.instances_of(a_ev.pc) {
                if a.tid != f_inst.tid || a.seq >= f_inst.seq {
                    continue;
                }
                for x in trace.instances_of(c) {
                    if x.tid == f_inst.tid {
                        continue;
                    }
                    if a.definitely_before(x) && x.definitely_before(&f_inst) {
                        out.push(BugPattern::AtomicityViolation {
                            kind: shape,
                            first: a_ev,
                            second: c_ev,
                            third: fail_ev,
                        });
                    }
                }
            }
        }
    }

    out.sort();
    out.dedup();
    if out.is_empty() && !unordered.is_empty() {
        unordered.push(fail_ev);
        unordered.sort();
        unordered.dedup();
        out.push(BugPattern::UnorderedTargets { events: unordered });
    }
    out
}

/// Generates candidate deadlock patterns: per-thread hold→want lock
/// edges whose hold windows overlap across threads and whose abstract
/// lock objects form a cycle.
pub fn deadlock_patterns(
    ctx: &PatternContext<'_>,
    cands: &CandidateSet,
    trace: &ProcessedTrace,
) -> Vec<BugPattern> {
    // Reconstruct, per thread, the lock events in order.
    struct LockEv<'p> {
        pc: Pc,
        inst: DynInstance,
        acquire: bool,
        pts: PtsView<'p>,
    }
    let mut events: Vec<LockEv<'_>> = Vec::new();
    for r in &cands.ranked {
        let Some(inst) = ctx.module.inst(r.pc) else {
            continue;
        };
        let acquire = inst.kind.is_lock_acquire();
        let release = inst.kind.is_lock_release();
        if !acquire && !release {
            continue;
        }
        let pts = ctx.pts_of(r.pc);
        events.extend(trace.instances_of(r.pc).iter().map(|i| LockEv {
            pc: r.pc,
            inst: *i,
            acquire,
            pts,
        }));
    }
    events.sort_by_key(|e| (e.inst.tid, e.inst.seq));
    // Per thread: scan in program order, tracking held locks; each
    // acquire while holding yields a hold→want edge. The edge's *want
    // window* — when the thread was waiting at the acquisition — runs
    // from the attempt to the thread's next event (a thread that never
    // ran again was blocked there until the snapshot). Coexisting want
    // windows across the cycle are what distinguish an actual deadlock
    // from the same lock-order edges executing at different times.
    struct Edge<'p> {
        hold_pc: Pc,
        want_pc: Pc,
        hold_pts: PtsView<'p>,
        want_pts: PtsView<'p>,
        want_lo: u64,
        want_hi: u64,
        tid: u32,
    }
    let mut edges: Vec<Edge<'_>> = Vec::new();
    let mut held: Vec<&LockEv<'_>> = Vec::new();
    for evs in events.chunk_by(|a, b| a.inst.tid == b.inst.tid) {
        held.clear();
        for e in evs {
            if e.acquire {
                for h in &held {
                    edges.push(Edge {
                        hold_pc: h.pc,
                        want_pc: e.pc,
                        hold_pts: h.pts,
                        want_pts: e.pts,
                        want_lo: e.inst.time.lo,
                        want_hi: e.inst.resume,
                        tid: e.inst.tid,
                    });
                }
                held.push(e);
            } else {
                // Release: drop the most recent held lock aliasing it.
                if let Some(i) = held.iter().rposition(|h| h.pts.intersects(&e.pts)) {
                    held.remove(i);
                }
            }
        }
    }
    // Find lock-order cycles whose want windows pairwise coexist. The
    // paper's examples are two-thread cycles but the technique "is not
    // limited to deadlocks with two threads" (§3.1): length-2 and
    // length-3 cycles are generated here.
    let overlap = |a: &Edge, b: &Edge| a.want_lo <= b.want_hi && b.want_lo <= a.want_hi;
    let feeds = |a: &Edge, b: &Edge| a.want_pts.intersects(&b.hold_pts);
    let sane = |a: &Edge| !a.hold_pts.intersects(&a.want_pts);
    let mut out = Vec::new();
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            let (a, b) = (&edges[i], &edges[j]);
            if a.tid == b.tid || !sane(a) || !sane(b) {
                continue;
            }
            // Two-thread cycle: A→B with B→A.
            if feeds(a, b) && feeds(b, a) && overlap(a, b) {
                let mut es = vec![
                    DeadlockEdge {
                        hold_pc: a.hold_pc,
                        want_pc: a.want_pc,
                    },
                    DeadlockEdge {
                        hold_pc: b.hold_pc,
                        want_pc: b.want_pc,
                    },
                ];
                es.sort();
                out.push(BugPattern::Deadlock { edges: es });
            }
            // Three-thread cycles through a third edge.
            for c in edges.iter().skip(j + 1) {
                if c.tid == a.tid || c.tid == b.tid || !sane(c) {
                    continue;
                }
                if !(overlap(a, b) && overlap(b, c) && overlap(a, c)) {
                    continue;
                }
                // Either rotation of the cycle.
                let cycle = (feeds(a, b) && feeds(b, c) && feeds(c, a))
                    || (feeds(a, c) && feeds(c, b) && feeds(b, a));
                if cycle {
                    let mut es = vec![
                        DeadlockEdge {
                            hold_pc: a.hold_pc,
                            want_pc: a.want_pc,
                        },
                        DeadlockEdge {
                            hold_pc: b.hold_pc,
                            want_pc: b.want_pc,
                        },
                        DeadlockEdge {
                            hold_pc: c.hold_pc,
                            want_pc: c.want_pc,
                        },
                    ];
                    es.sort();
                    out.push(BugPattern::Deadlock { edges: es });
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Checks whether `pattern` is present (with the same ordering) in a
/// processed trace — the predicate statistical diagnosis evaluates on
/// failing and successful traces alike.
pub fn pattern_present(pattern: &BugPattern, trace: &ProcessedTrace) -> bool {
    match pattern {
        BugPattern::OrderViolation { first, second } => {
            let firsts = trace.instances_of(first.pc);
            let seconds = trace.instances_of(second.pc);
            // Standard case: an ordered cross-thread pair.
            if firsts.iter().any(|a| {
                seconds
                    .iter()
                    .any(|b| a.tid != b.tid && a.definitely_before(b))
            }) {
                return true;
            }
            // Truncated case: the first access ran but the second never
            // did before the snapshot — the first-before-second order is
            // witnessed by the second's absence (crash cut the run
            // short, or the late event simply had not happened yet).
            !firsts.is_empty() && seconds.is_empty()
        }
        BugPattern::AtomicityViolation {
            first,
            second,
            third,
            ..
        } => {
            for a in trace.instances_of(first.pc) {
                for f in trace.instances_of(third.pc) {
                    if a.tid != f.tid || a.seq >= f.seq {
                        continue;
                    }
                    for x in trace.instances_of(second.pc) {
                        if x.tid != a.tid && a.definitely_before(x) && x.definitely_before(f) {
                            return true;
                        }
                    }
                }
            }
            false
        }
        BugPattern::Deadlock { edges } => {
            // Each edge must occur in some thread (hold then want), all
            // in distinct threads, with pairwise coexisting *want*
            // windows (attempt → thread's next event or snapshot).
            let mut windows: Vec<(u32, u64, u64)> = Vec::new();
            for e in edges {
                let mut found = None;
                for h in trace.instances_of(e.hold_pc) {
                    for w in trace.instances_of(e.want_pc) {
                        if h.tid == w.tid && h.seq < w.seq {
                            found = Some((w.tid, w.time.lo, w.resume));
                        }
                    }
                }
                match found {
                    Some(w) => windows.push(w),
                    None => return false,
                }
            }
            for i in 0..windows.len() {
                for j in (i + 1)..windows.len() {
                    let (ti, li, hi_) = windows[i];
                    let (tj, lj, hj) = windows[j];
                    if ti == tj || li > hj || lj > hi_ {
                        return false;
                    }
                }
            }
            true
        }
        BugPattern::MultiVarAtomicity {
            w_first,
            w_second,
            r_first,
            r_second,
        } => {
            for wa in trace.instances_of(w_first.pc) {
                for wb in trace.instances_of(w_second.pc) {
                    if wa.tid != wb.tid || wa.seq >= wb.seq {
                        continue;
                    }
                    for ra in trace.instances_of(r_first.pc) {
                        for rb in trace.instances_of(r_second.pc) {
                            if ra.tid != rb.tid || ra.seq >= rb.seq || ra.tid == wa.tid {
                                continue;
                            }
                            // The remote pair sees a torn snapshot when
                            // it lands strictly between the two local
                            // updates in either direction.
                            let torn_new_old = wa.definitely_before(ra) && rb.definitely_before(wb);
                            let torn_old_new = ra.definitely_before(wa) && wb.definitely_before(rb);
                            if torn_new_old || torn_old_new {
                                return true;
                            }
                        }
                    }
                }
            }
            false
        }
        BugPattern::UnorderedTargets { events } => {
            events.iter().all(|e| !trace.instances_of(e.pc).is_empty())
        }
    }
}

impl ProcessedTrace {
    /// The failure-adjacent instance of the failing access: the trigger
    /// instance when the failing PC is the trigger, otherwise the last
    /// instance of `pc` in the trigger thread (asserts map to their
    /// feeding load, which is not the trigger PC).
    pub(crate) fn trigger_fallback(&self, pc: Pc) -> Option<DynInstance> {
        if pc == self.trigger_pc {
            self.trigger_instance()
        } else {
            self.last_instance_in_thread(pc, self.trigger_tid)
                .or_else(|| self.instances_of(pc).last().copied())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_trace::TimeBounds;

    fn ev(pc: u64, kind: AccessKind) -> PatternEvent {
        PatternEvent { pc: Pc(pc), kind }
    }

    /// An instance; `from_instances` derives its resume bound.
    fn inst(tid: u32, seq: usize, lo: u64, hi: u64) -> DynInstance {
        DynInstance {
            tid,
            seq,
            time: TimeBounds { lo, hi },
            resume: 0,
        }
    }

    fn trace_with(instances: Vec<(u64, Vec<DynInstance>)>) -> ProcessedTrace {
        ProcessedTrace::from_instances(
            0,
            Pc(0),
            1_000_000,
            instances
                .into_iter()
                .flat_map(|(pc, is)| is.into_iter().map(move |i| (Pc(pc), i))),
        )
    }

    #[test]
    fn atom_kind_shapes() {
        use AccessKind::{Lock, Read, Write};
        assert_eq!(AtomKind::from_kinds(Read, Write, Read), Some(AtomKind::Rwr));
        assert_eq!(
            AtomKind::from_kinds(Write, Write, Read),
            Some(AtomKind::Wwr)
        );
        assert_eq!(
            AtomKind::from_kinds(Read, Write, Write),
            Some(AtomKind::Rww)
        );
        assert_eq!(
            AtomKind::from_kinds(Write, Read, Write),
            Some(AtomKind::Wrw)
        );
        assert_eq!(AtomKind::from_kinds(Read, Read, Read), None);
        assert_eq!(AtomKind::from_kinds(Lock, Write, Read), None);
    }

    #[test]
    fn order_violation_presence_requires_cross_thread_order() {
        let p = BugPattern::OrderViolation {
            first: ev(100, AccessKind::Write),
            second: ev(200, AccessKind::Read),
        };
        // Ordered across threads: present.
        let t = trace_with(vec![
            (100, vec![inst(1, 0, 0, 10)]),
            (200, vec![inst(2, 0, 50, 60)]),
        ]);
        assert!(pattern_present(&p, &t));
        // Reversed: absent.
        let t = trace_with(vec![
            (100, vec![inst(1, 0, 50, 60)]),
            (200, vec![inst(2, 0, 0, 10)]),
        ]);
        assert!(!pattern_present(&p, &t));
        // Same thread: absent (order violations are cross-thread).
        let t = trace_with(vec![
            (100, vec![inst(1, 0, 0, 10)]),
            (200, vec![inst(1, 1, 50, 60)]),
        ]);
        assert!(!pattern_present(&p, &t));
        // Overlapping windows: absent (no order claimable).
        let t = trace_with(vec![
            (100, vec![inst(1, 0, 0, 100)]),
            (200, vec![inst(2, 0, 50, 160)]),
        ]);
        assert!(!pattern_present(&p, &t));
    }

    #[test]
    fn atomicity_presence_needs_remote_between_local_pair() {
        let p = BugPattern::AtomicityViolation {
            kind: AtomKind::Rwr,
            first: ev(10, AccessKind::Read),
            second: ev(20, AccessKind::Write),
            third: ev(30, AccessKind::Read),
        };
        // Interleaved: present.
        let t = trace_with(vec![
            (10, vec![inst(1, 0, 0, 10)]),
            (20, vec![inst(2, 0, 100, 110)]),
            (30, vec![inst(1, 1, 200, 210)]),
        ]);
        assert!(pattern_present(&p, &t));
        // Remote after both locals: absent.
        let t = trace_with(vec![
            (10, vec![inst(1, 0, 0, 10)]),
            (20, vec![inst(2, 0, 400, 410)]),
            (30, vec![inst(1, 1, 200, 210)]),
        ]);
        assert!(!pattern_present(&p, &t));
        // Remote before both locals: absent.
        let t = trace_with(vec![
            (10, vec![inst(1, 1, 100, 110)]),
            (20, vec![inst(2, 0, 0, 10)]),
            (30, vec![inst(1, 2, 200, 210)]),
        ]);
        assert!(!pattern_present(&p, &t));
    }

    #[test]
    fn deadlock_presence_requires_overlapping_hold_windows() {
        let p = BugPattern::Deadlock {
            edges: vec![
                DeadlockEdge {
                    hold_pc: Pc(1),
                    want_pc: Pc(2),
                },
                DeadlockEdge {
                    hold_pc: Pc(3),
                    want_pc: Pc(4),
                },
            ],
        };
        // Overlapping windows in two threads: present.
        let t = trace_with(vec![
            (1, vec![inst(1, 0, 0, 10)]),
            (2, vec![inst(1, 1, 100, 110)]),
            (3, vec![inst(2, 0, 20, 30)]),
            (4, vec![inst(2, 1, 120, 130)]),
        ]);
        assert!(pattern_present(&p, &t));
        // Disjoint want windows (each thread resumed right after its
        // second acquisition — no one was blocked): absent. The dummy
        // PCs 98/99 mark the resumptions.
        let t = trace_with(vec![
            (1, vec![inst(1, 0, 0, 10)]),
            (2, vec![inst(1, 1, 20, 30)]),
            (99, vec![inst(1, 2, 35, 40)]),
            (3, vec![inst(2, 0, 500, 510)]),
            (4, vec![inst(2, 1, 520, 530)]),
            (98, vec![inst(2, 2, 535, 540)]),
        ]);
        assert!(!pattern_present(&p, &t));
        // Missing an edge: absent.
        let t = trace_with(vec![
            (1, vec![inst(1, 0, 0, 10)]),
            (2, vec![inst(1, 1, 100, 110)]),
        ]);
        assert!(!pattern_present(&p, &t));
    }

    #[test]
    fn signatures_render() {
        let ov = BugPattern::OrderViolation {
            first: ev(1, AccessKind::Write),
            second: ev(2, AccessKind::Read),
        };
        assert_eq!(ov.signature(), "W->R");
        let av = BugPattern::AtomicityViolation {
            kind: AtomKind::Wwr,
            first: ev(1, AccessKind::Write),
            second: ev(2, AccessKind::Write),
            third: ev(3, AccessKind::Read),
        };
        assert_eq!(av.signature(), "WWR");
        let dl = BugPattern::Deadlock {
            edges: vec![
                DeadlockEdge {
                    hold_pc: Pc(1),
                    want_pc: Pc(2),
                },
                DeadlockEdge {
                    hold_pc: Pc(3),
                    want_pc: Pc(4),
                },
            ],
        };
        assert_eq!(dl.signature(), "deadlock/2");
        assert_eq!(dl.pcs().len(), 4);
    }
}
