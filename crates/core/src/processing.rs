//! Trace processing (steps 2 and 3 of the pipeline).
//!
//! Turns a raw multi-thread [`TraceSnapshot`] into the two artifacts the
//! rest of the pipeline consumes:
//!
//! * the **executed-instruction set** — each instruction counted once no
//!   matter how often it ran (step 2); this is what scope-restricts the
//!   hybrid points-to analysis;
//! * the **partially-ordered dynamic instruction trace** — per-thread
//!   instruction instances, each with a coarse [`TimeBounds`] window;
//!   instances in different threads are ordered only when their windows
//!   do not overlap (step 3). Per the coarse interleaving hypothesis,
//!   that partial order suffices for the target events of real bugs.
//!   Only instructions with a pointer operand keep instances: the
//!   pattern events of Figure 1 (R, W, L) are exactly those, and no
//!   later step reads the instances of any other instruction.

use crate::error::DiagnosisError;
use lazy_ir::{Module, Pc};
use lazy_trace::{
    decode_thread_trace_adaptive, fan_out, recycle_events, DecodeError, DecodedTrace, ExecIndex,
    SnapshotView, TimeBounds, TraceConfig, TraceSnapshot, WalkTable,
};
use std::collections::HashMap;

/// One dynamic instance of an instruction in a processed trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynInstance {
    /// The executing thread.
    pub tid: u32,
    /// Index of the event within its thread's trace (program order).
    pub seq: usize,
    /// The coarse execution-time window.
    pub time: TimeBounds,
    /// Upper bound on when the thread left the instruction: the window
    /// end of the next event in its thread record, or the snapshot time
    /// if the thread executed nothing afterwards (it was blocked there
    /// when the snapshot was taken — the signature of a deadlocked
    /// waiter).
    pub resume: u64,
}

impl DynInstance {
    /// Cross-thread "executes before": windows strictly ordered
    /// (Figure 5's relation). Same-thread instances use `seq` instead.
    pub fn definitely_before(&self, other: &DynInstance) -> bool {
        if self.tid == other.tid {
            self.seq < other.seq
        } else {
            self.time.definitely_before(&other.time)
        }
    }
}

/// A fully processed snapshot, stored flat: the sorted executed set
/// doubles as the index into one buffer of retained instances, so a
/// trace owns three heap blocks however many instructions it executed.
///
/// **Retention rule.** Every executed PC enters `executed`, but only
/// instructions with a pointer operand keep dynamic instances: loads,
/// stores, frees and mutex, rwlock and condvar operations — exactly
/// what [`lazy_ir::InstKind::pointer_operand`] and
/// [`crate::patterns::access_kind`] accept. Every reader of instances
/// (pattern generation and presence, the trigger fallback, event
/// ordering, replay recording) asks only about such PCs, so the rule
/// loses nothing diagnosis can see.
#[derive(Clone, Debug)]
pub struct ProcessedTrace {
    /// Executed-instruction set (step 2), ascending.
    pub executed: Vec<Pc>,
    /// `executed[i]`'s instances are `instances[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Dynamic instances (step 3) grouped by instruction in `executed`
    /// order; empty for instructions without a pointer operand. Within
    /// an instruction: thread records in snapshot order, each record's
    /// instances in program order, capped per record to the most recent
    /// [`ProcessedTrace::MAX_INSTANCES_PER_PC`].
    instances: Vec<DynInstance>,
    /// The thread that triggered the snapshot.
    pub trigger_tid: u32,
    /// The PC that triggered the snapshot (failure PC or breakpoint).
    pub trigger_pc: Pc,
    /// Virtual time the snapshot was taken.
    pub taken_at: u64,
    /// Total decoded events across threads, every instruction counted.
    pub event_count: usize,
    /// Per-thread decode resynchronization counts (diagnostic).
    pub resyncs: u32,
    /// `CYC` deltas dropped for want of a time anchor, summed across
    /// threads (diagnostic: time silently lost at wrapped-buffer heads).
    pub cyc_dropped: u64,
    /// Duplicated `MTC` coarse-counter bytes ignored during decode,
    /// summed across threads (diagnostic: repeated packets after
    /// corruption or a PSB splice).
    pub mtc_dups: u64,
}

impl ProcessedTrace {
    /// Cap on retained dynamic instances per (pc, thread): diagnosis
    /// needs the instances *near the failure*, and the ring buffer
    /// already bounds history; this bounds pattern enumeration.
    pub const MAX_INSTANCES_PER_PC: usize = 64;

    /// A trace holding exactly the given instances, for tests and tools
    /// that build traces by hand. Each `(pc, instance)` counts as one
    /// decoded event, and a PC's instances keep the order given. The
    /// executed set is the PCs given. Each instance's
    /// [`DynInstance::resume`] is recomputed: the window end of the
    /// instance given at `(tid, seq + 1)` (the last one given wins),
    /// else `taken_at`.
    pub fn from_instances(
        trigger_tid: u32,
        trigger_pc: Pc,
        taken_at: u64,
        instances: impl IntoIterator<Item = (Pc, DynInstance)>,
    ) -> ProcessedTrace {
        let mut given: Vec<(Pc, DynInstance)> = instances.into_iter().collect();
        let times: HashMap<(u32, usize), TimeBounds> = given
            .iter()
            .map(|(_, i)| ((i.tid, i.seq), i.time))
            .collect();
        for (_, i) in &mut given {
            i.resume = i
                .seq
                .checked_add(1)
                .and_then(|next| times.get(&(i.tid, next)))
                .map_or(taken_at, |t| t.hi);
        }
        // Stable: a PC's instances keep the order given.
        given.sort_by_key(|(pc, _)| *pc);
        let mut executed: Vec<Pc> = Vec::new();
        let mut offsets = vec![0];
        for (k, (pc, _)) in given.iter().enumerate() {
            if executed.last() != Some(pc) {
                if k > 0 {
                    offsets.push(k);
                }
                executed.push(*pc);
            }
        }
        if !given.is_empty() {
            offsets.push(given.len());
        }
        ProcessedTrace {
            executed,
            offsets,
            event_count: given.len(),
            instances: given.into_iter().map(|(_, i)| i).collect(),
            trigger_tid,
            trigger_pc,
            taken_at,
            resyncs: 0,
            cyc_dropped: 0,
            mtc_dups: 0,
        }
    }

    /// The dynamic instances of `pc`: empty if `pc` never executed, and
    /// also if its instruction has no pointer operand (the retention
    /// rule above; such a PC is still in [`ProcessedTrace::executed`]).
    pub fn instances_of(&self, pc: Pc) -> &[DynInstance] {
        let Ok(i) = self.executed.binary_search(&pc) else {
            return &[];
        };
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => self.instances.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// The last instance of `pc` executed by `tid`, if any.
    pub fn last_instance_in_thread(&self, pc: Pc, tid: u32) -> Option<DynInstance> {
        self.instances_of(pc)
            .iter()
            .rev()
            .find(|i| i.tid == tid)
            .copied()
    }

    /// The final (failure-adjacent) instance of the trigger PC in the
    /// trigger thread. `None` when the trigger instruction has no
    /// pointer operand (a breakpoint on a branch, say): diagnosis asks
    /// only for the trigger instance of a failing access.
    pub fn trigger_instance(&self) -> Option<DynInstance> {
        self.last_instance_in_thread(self.trigger_pc, self.trigger_tid)
    }

    /// The latest observed time (`time.lo`) of any instance of `pc`:
    /// the key that orders a root cause's events (`O_S`), wherever the
    /// trace lives. `None` for a PC without instances, which includes
    /// every instruction without a pointer operand; pattern events all
    /// have one.
    pub fn last_time(&self, pc: Pc) -> Option<u64> {
        self.instances_of(pc).iter().map(|i| i.time.lo).max()
    }

    /// Bytes this trace keeps alive: the struct plus the capacity of its
    /// three buffers.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<ProcessedTrace>()
            + self.executed.capacity() * std::mem::size_of::<Pc>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.instances.capacity() * std::mem::size_of::<DynInstance>()
    }
}

/// Steps 2–3 over one snapshot's decoded thread records, hashing
/// nothing per event. Each PC's dense slot comes from the
/// [`ExecIndex`]; one reverse pass per record notes each slot the
/// record executed and marks as kept the last
/// [`ProcessedTrace::MAX_INSTANCES_PER_PC`] events of each slot whose
/// instruction has a pointer operand (the retention rule of
/// [`ProcessedTrace`]); [`Aggregator::finish`] then lays the kept
/// instances out flat with one counting sort by slot, reading each
/// one's window and resume bound from its record.
struct Aggregator<'i> {
    index: &'i ExecIndex,
    taken_at: u64,
    /// Per slot: the stamp of the record that last touched it and how
    /// many more of its events that record may keep (0 for a slot
    /// without a pointer operand).
    seen: Vec<(u32, u32)>,
    /// Records offered so far, rejected ones included: each record's
    /// stamp, so 0 in `seen` means no record yet.
    stamp: u32,
    /// The slots each record executed, once per record; a rejected
    /// record's are dropped with it.
    touched: Vec<usize>,
    /// Kept events as `(slot, seq)`: records in snapshot order, each in
    /// program order.
    kept: Vec<(usize, usize)>,
    /// Accepted records: thread id, decoded trace, and where the
    /// record's run of `kept` ends.
    records: Vec<(u32, DecodedTrace, usize)>,
}

impl<'i> Aggregator<'i> {
    fn new(index: &'i ExecIndex, taken_at: u64) -> Aggregator<'i> {
        Aggregator {
            index,
            taken_at,
            seen: vec![(0, 0); index.slot_count()],
            stamp: 0,
            touched: Vec::new(),
            kept: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Folds in one thread record. An event whose PC has no slot
    /// rejects the whole record, leaving the aggregate as it was; the
    /// record's buffer goes back to the event pool either way.
    fn push_record(&mut self, tid: u32, trace: DecodedTrace) -> Result<(), DecodeError> {
        self.stamp = self.stamp.wrapping_add(1);
        let record = self.stamp;
        let (start, touched_start) = (self.kept.len(), self.touched.len());
        for (seq, e) in trace.events.iter().enumerate().rev() {
            let seen = &mut self.seen;
            let Some((slot, cell)) = self
                .index
                .slot(e.pc)
                .and_then(|slot| Some((slot, seen.get_mut(slot)?)))
            else {
                self.kept.truncate(start);
                self.touched.truncate(touched_start);
                let pc = e.pc;
                recycle_events(trace);
                return Err(DecodeError::Desync(format!(
                    "decoded pc {pc} lies outside the module's text"
                )));
            };
            if cell.0 != record {
                let cap = if self.index.has_pointer_operand(slot) {
                    ProcessedTrace::MAX_INSTANCES_PER_PC as u32
                } else {
                    0
                };
                *cell = (record, cap);
                self.touched.push(slot);
            }
            if cell.1 > 0 {
                cell.1 -= 1;
                self.kept.push((slot, seq));
            }
        }
        self.kept[start..].reverse();
        self.records.push((tid, trace, self.kept.len()));
        Ok(())
    }

    /// The executed set, the offsets and the instance buffer of a
    /// [`ProcessedTrace`]. The counting sort is stable, so each PC's
    /// instances keep record order, then program order.
    fn finish(self) -> (Vec<Pc>, Vec<usize>, Vec<DynInstance>) {
        // Per slot: `usize::MAX` until an accepted record executed it,
        // then its kept count, then where its instances start.
        let mut cursor = vec![usize::MAX; self.seen.len()];
        for &slot in &self.touched {
            cursor[slot] = 0;
        }
        for &(slot, _) in &self.kept {
            cursor[slot] += 1;
        }
        let mut executed = Vec::new();
        let mut offsets = vec![0];
        let mut total = 0;
        for (slot, n) in cursor.iter_mut().enumerate() {
            if *n != usize::MAX {
                executed.push(Module::slot_pc(slot));
                let count = *n;
                *n = total;
                total += count;
                offsets.push(total);
            }
        }
        let blank = DynInstance {
            tid: 0,
            seq: 0,
            time: TimeBounds { lo: 0, hi: 0 },
            resume: 0,
        };
        let mut instances = vec![blank; self.kept.len()];
        let mut start = 0;
        for (tid, trace, end) in self.records {
            let events = &trace.events;
            for &(slot, seq) in &self.kept[start..end] {
                instances[cursor[slot]] = DynInstance {
                    tid,
                    seq,
                    time: events[seq].time,
                    resume: events.get(seq + 1).map_or(self.taken_at, |e| e.time.hi),
                };
                cursor[slot] += 1;
            }
            start = end;
            // This record is fully aggregated; hand the buffer back so
            // the next decode reuses its warm pages.
            recycle_events(trace);
        }
        (executed, offsets, instances)
    }
}

/// Decodes and processes a snapshot against the module (steps 2–3),
/// one decode thread, no [`WalkTable`].
///
/// Threads whose buffers cannot be decoded at all (e.g. an empty buffer
/// from a thread that never branched) are skipped rather than failing
/// the whole snapshot; a snapshot with *no* decodable thread is an
/// error.
///
/// # Errors
///
/// Returns [`DiagnosisError::Processing`] (wrapping the last per-thread
/// [`DecodeError`]) if no thread decodes, or
/// [`DiagnosisError::WorkerPanic`] if a decode worker panicked.
pub fn process_snapshot(
    module: &Module,
    index: &ExecIndex,
    config: &TraceConfig,
    snapshot: &TraceSnapshot,
) -> Result<ProcessedTrace, DiagnosisError> {
    process_snapshot_view(module, index, None, config, &snapshot.view(), 1)
}

/// [`process_snapshot`] over a borrowed [`SnapshotView`] — the
/// zero-copy ingest path — with up to `workers` decode threads and an
/// optional compiled [`WalkTable`] (the server threads its cross-job
/// cache through here). Thread trace bytes are decoded straight out of
/// whatever buffer the view borrows from (a connection's read buffer, a
/// wire payload); nothing is copied on the way in.
///
/// Thread streams decode concurrently on [`fan_out`] (for `workers ==
/// 0`, on the idle cores); each stream is then routed by
/// [`decode_thread_trace_adaptive`] — large streams additionally use
/// PSB-sharded decode internally, small ones take the fused pass with
/// zero sharding overhead. Aggregation runs
/// sequentially in thread order over the (bit-identical) per-thread
/// decodes, so the result is byte-for-byte the same as `workers == 1`.
///
/// A thread record holding a PC the [`ExecIndex`] cannot place is
/// skipped like one that fails to decode.
///
/// # Errors
///
/// Same contract as [`process_snapshot`].
pub fn process_snapshot_view(
    _module: &Module,
    index: &ExecIndex,
    table: Option<&WalkTable>,
    config: &TraceConfig,
    snapshot: &SnapshotView<'_>,
    workers: usize,
) -> Result<ProcessedTrace, DiagnosisError> {
    let _span = lazy_obs::span!("decode.snapshot");
    lazy_obs::counter!("decode.threads_total", snapshot.threads.len());
    // A decoder panic fails this snapshot with a typed WorkerPanic
    // instead of unwinding through the whole diagnosis (or batch).
    let decoded = fan_out(&snapshot.threads, workers, |thread| {
        decode_thread_trace_adaptive(
            index,
            table,
            config,
            thread.bytes,
            snapshot.taken_at,
            workers,
        )
    });

    let aggregate_span = lazy_obs::span!("process.aggregate");
    let mut aggregator = Aggregator::new(index, snapshot.taken_at);
    let mut event_count = 0usize;
    let mut resyncs = 0u32;
    let mut cyc_dropped = 0u64;
    let mut mtc_dups = 0u64;
    let mut decoded_any = false;
    let mut last_err = DecodeError::NoSync;

    for (thread, result) in snapshot.threads.iter().zip(decoded) {
        let trace: DecodedTrace = match result {
            Ok(Ok(t)) => t,
            // A plain decode failure degrades: skip this thread, keep
            // the rest. A worker panic fails the snapshot — losing a
            // worker is an internal fault, not a property of one
            // thread's bytes.
            Ok(Err(e)) => {
                lazy_obs::counter!("decode.threads_skipped_total", 1u64);
                last_err = e;
                continue;
            }
            Err(payload) => return Err(DiagnosisError::from_panic("decode", payload)),
        };
        let (events, thread_resyncs, thread_cyc, thread_mtc) = (
            trace.events.len(),
            trace.resyncs,
            trace.cyc_dropped,
            trace.mtc_dups,
        );
        if let Err(e) = aggregator.push_record(thread.tid, trace) {
            lazy_obs::counter!("decode.threads_skipped_total", 1u64);
            last_err = e;
            continue;
        }
        decoded_any = true;
        resyncs += thread_resyncs;
        cyc_dropped += thread_cyc;
        mtc_dups += thread_mtc;
        event_count += events;
    }
    if !decoded_any {
        lazy_obs::counter!("decode.snapshots_rejected_total", 1u64);
        return Err(DiagnosisError::Processing {
            threads: snapshot.threads.len(),
            source: last_err,
        });
    }
    let (executed, offsets, instances) = aggregator.finish();
    aggregate_span.end();
    // Counted here — once per *distinct* processed snapshot — so batch
    // memo hits do not inflate the totals (telemetry reconciles with the
    // per-snapshot `event_count` sums exactly when dedup hits are zero).
    lazy_obs::counter!("decode.snapshots_total", 1u64);
    lazy_obs::counter!("decode.events_total", event_count);
    lazy_obs::counter!("process.instances_retained_total", instances.len());
    lazy_obs::counter!("decode.resyncs_total", resyncs);
    lazy_obs::histogram!("decode.snapshot_events", event_count);
    Ok(ProcessedTrace {
        executed,
        offsets,
        instances,
        trigger_tid: snapshot.trigger_tid,
        trigger_pc: Pc(snapshot.trigger_pc),
        taken_at: snapshot.taken_at,
        event_count,
        resyncs,
        cyc_dropped,
        mtc_dups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_ir::{InstKind, ModuleBuilder, Operand, Type};
    use lazy_vm::{Vm, VmConfig};

    fn traced_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let nop = mb.declare("nop", vec![], Type::I64);
        {
            let mut f = mb.define(nop);
            let e = f.entry();
            f.switch_to(e);
            f.ret(Some(Operand::const_int(0)));
            f.finish();
        }
        let worker = mb.declare("worker", vec![Type::I64], Type::Void);
        let g = mb.global("shared", Type::I64, vec![0]);
        {
            let mut f = mb.define(worker);
            let e = f.entry();
            f.switch_to(e);
            f.io("setup", 50_000);
            f.store(g.clone(), Operand::const_int(7), Type::I64);
            f.ret(None);
            f.finish();
        }
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let t = f.spawn(worker, Operand::const_int(0));
        f.io("main-work", 150_000);
        // A call between the I/O and the load gives the decoder a
        // control packet (the callee's return) that time-bounds the
        // following straight-line stretch — as the branch-dense code of
        // real systems does naturally.
        f.call(nop, vec![]);
        f.load(g, Type::I64);
        f.join(t);
        f.halt();
        f.finish();
        mb.finish().unwrap()
    }

    fn run_to_breakpoint(m: &Module, bp: Pc) -> TraceSnapshot {
        let out = Vm::run(
            m,
            VmConfig {
                breakpoints: vec![bp],
                ..VmConfig::default()
            },
        );
        out.snapshot.expect("breakpoint snapshot")
    }

    #[test]
    fn executed_set_counts_each_pc_once() {
        let m = traced_module();
        let halt_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Halt))
            .map(|(i, _)| i.pc)
            .unwrap();
        let snap = run_to_breakpoint(&m, halt_pc);
        let index = ExecIndex::build(&m);
        let p = process_snapshot(&m, &index, &TraceConfig::default(), &snap).unwrap();
        assert!(p.executed.len() <= m.inst_count());
        assert!(p.executed.contains(&halt_pc));
        // The store in worker and the load in main both executed.
        for (i, _) in m.all_insts() {
            if i.kind.is_memory_access() {
                assert!(p.executed.contains(&i.pc), "{} missing", i.pc);
            }
        }
    }

    #[test]
    fn cross_thread_events_are_ordered_by_coarse_time() {
        let m = traced_module();
        let halt_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Halt))
            .map(|(i, _)| i.pc)
            .unwrap();
        let snap = run_to_breakpoint(&m, halt_pc);
        let index = ExecIndex::build(&m);
        let p = process_snapshot(&m, &index, &TraceConfig::default(), &snap).unwrap();
        let store_pc = m
            .all_insts()
            .find(|(i, _)| i.kind.is_write())
            .map(|(i, _)| i.pc)
            .unwrap();
        let load_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Load { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        let store = p.instances_of(store_pc);
        let load = p.instances_of(load_pc);
        assert_eq!(store.len(), 1);
        assert_eq!(load.len(), 1);
        assert_ne!(store[0].tid, load[0].tid);
        // Worker stores at ~50 µs; main loads at ~150 µs: the coarse
        // windows must order them (this is the hypothesis in action).
        assert!(store[0].definitely_before(&load[0]));
        assert!(!load[0].definitely_before(&store[0]));
    }

    #[test]
    fn trigger_instance_is_found() {
        let m = traced_module();
        let load_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, InstKind::Load { .. }))
            .map(|(i, _)| i.pc)
            .unwrap();
        let snap = run_to_breakpoint(&m, load_pc);
        let index = ExecIndex::build(&m);
        let p = process_snapshot(&m, &index, &TraceConfig::default(), &snap).unwrap();
        assert_eq!(p.trigger_pc, load_pc);
        let ti = p.trigger_instance().expect("trigger decoded");
        assert_eq!(ti.tid, p.trigger_tid);
    }

    #[test]
    fn same_thread_order_uses_sequence() {
        let a = DynInstance {
            tid: 1,
            seq: 3,
            time: TimeBounds { lo: 0, hi: 100 },
            resume: 100,
        };
        let b = DynInstance {
            tid: 1,
            seq: 5,
            time: TimeBounds { lo: 0, hi: 100 },
            resume: 100,
        };
        assert!(
            a.definitely_before(&b),
            "same-thread order ignores overlapping windows"
        );
        assert!(!b.definitely_before(&a));
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;
    use lazy_ir::{ModuleBuilder, Operand, Type};
    use lazy_vm::{Vm, VmConfig};

    /// A hot instruction executed thousands of times keeps only the
    /// most recent MAX_INSTANCES_PER_PC instances (the failure-adjacent
    /// ones), while the executed set still records it once.
    #[test]
    fn per_pc_instances_are_capped_to_the_most_recent() {
        let mut mb = ModuleBuilder::new("hot");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        let head = f.block("head");
        let body = f.block("body");
        let done = f.block("done");
        f.switch_to(e);
        let ctr = f.alloca(Type::I64);
        f.store(ctr.clone(), Operand::const_int(0), Type::I64);
        f.br(head);
        f.switch_to(head);
        let v = f.load(ctr.clone(), Type::I64);
        let c = f.lt(v, Operand::const_int(500));
        f.cond_br(c, body, done);
        f.switch_to(body);
        let v = f.load(ctr.clone(), Type::I64);
        let v1 = f.add(v, Operand::const_int(1));
        f.store(ctr.clone(), v1, Type::I64);
        f.br(head);
        f.switch_to(done);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let halt_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, lazy_ir::InstKind::Halt))
            .map(|(i, _)| i.pc)
            .unwrap();
        let hot_store = m
            .all_insts()
            .filter(|(i, _)| i.kind.is_write())
            .map(|(i, _)| i.pc)
            .nth(1)
            .unwrap();
        let out = Vm::run(
            &m,
            VmConfig {
                breakpoints: vec![halt_pc],
                ..VmConfig::default()
            },
        );
        let snap = out.snapshot.unwrap();
        let index = lazy_trace::ExecIndex::build(&m);
        let pt = process_snapshot(&m, &index, &TraceConfig::default(), &snap).unwrap();
        let instances = pt.instances_of(hot_store);
        assert_eq!(instances.len(), ProcessedTrace::MAX_INSTANCES_PER_PC);
        // They are the LAST instances: strictly increasing seq, ending
        // near the trace end (one thread, so its last seq is the event
        // count less one).
        assert!(instances.windows(2).all(|w| w[0].seq < w[1].seq));
        let max_seq = pt.event_count - 1;
        assert!(instances.last().unwrap().seq + 16 > max_seq - 8);
        assert!(pt.executed.contains(&hot_store));
    }
}

/// The per-event-hash aggregation the dense pass replaced, kept as the
/// differential reference: an executed `HashSet`, per-thread `HashMap`
/// counters, and a `(tid, seq)`-keyed time map read by resume-bound
/// lookups.
#[cfg(test)]
mod reference {
    use super::*;
    use lazy_trace::DecodedEvent;
    use std::collections::HashSet;

    pub(super) struct Reference {
        pub(super) executed: HashSet<Pc>,
        /// Instances as `(tid, seq, time)`; the reference derives resume
        /// bounds by lookup instead of storing them.
        pub(super) instances: HashMap<Pc, Vec<(u32, usize, TimeBounds)>>,
        event_time: HashMap<(u32, usize), TimeBounds>,
        taken_at: u64,
    }

    impl Reference {
        pub(super) fn resume_bound(&self, tid: u32, seq: usize) -> u64 {
            self.event_time
                .get(&(tid, seq + 1))
                .map(|t| t.hi)
                .unwrap_or(self.taken_at)
        }
    }

    pub(super) fn aggregate(records: &[(u32, Vec<DecodedEvent>)], taken_at: u64) -> Reference {
        let mut executed = HashSet::new();
        let mut instances: HashMap<Pc, Vec<(u32, usize, TimeBounds)>> = HashMap::new();
        let mut event_time: HashMap<(u32, usize), TimeBounds> = HashMap::new();
        for (tid, events) in records {
            let mut per_pc_counts: HashMap<Pc, usize> = HashMap::new();
            for e in events {
                executed.insert(e.pc);
                *per_pc_counts.entry(e.pc).or_default() += 1;
            }
            let mut seen: HashMap<Pc, usize> = HashMap::new();
            for (seq, e) in events.iter().enumerate() {
                event_time.insert((*tid, seq), e.time);
                let total = per_pc_counts[&e.pc];
                let n = seen.entry(e.pc).or_default();
                *n += 1;
                if total - *n < ProcessedTrace::MAX_INSTANCES_PER_PC {
                    instances.entry(e.pc).or_default().push((*tid, seq, e.time));
                }
            }
        }
        Reference {
            executed,
            instances,
            event_time,
            taken_at,
        }
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;
    use lazy_ir::{ModuleBuilder, Operand, Type};
    use lazy_trace::DecodedEvent;
    use proptest::prelude::*;

    /// A straight-line module with `n` instructions (then a halt) that
    /// cycles load, copy, store, add, lock, unlock: every other
    /// instruction has a pointer operand, so PCs that keep instances
    /// sit between PCs that only enter the executed set.
    fn mixed_module(n: usize) -> Module {
        let mut mb = ModuleBuilder::new("mixed");
        let g = mb.global("g", Type::I64, vec![0]);
        let mu = mb.global("mu", Type::Mutex, vec![]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        let mut v = Operand::const_int(0);
        for k in 0..n {
            match k % 6 {
                0 => v = f.load(g.clone(), Type::I64),
                1 => v = f.copy(v),
                2 => f.store(g.clone(), v.clone(), Type::I64),
                3 => v = f.add(v, Operand::const_int(1)),
                4 => f.lock(mu.clone()),
                _ => f.unlock(mu.clone()),
            }
        }
        f.halt();
        f.finish();
        mb.finish().unwrap()
    }

    fn pcs_of(m: &Module) -> Vec<Pc> {
        m.all_insts().map(|(i, _)| i.pc).collect()
    }

    fn has_pointer_operand(m: &Module, pc: Pc) -> bool {
        m.inst(pc)
            .is_some_and(|i| i.kind.pointer_operand().is_some())
    }

    /// The module's PCs split into those with a pointer operand and the
    /// rest, each ascending.
    fn split_pcs(m: &Module) -> (Vec<Pc>, Vec<Pc>) {
        pcs_of(m)
            .into_iter()
            .partition(|&pc| has_pointer_operand(m, pc))
    }

    fn trace_of(
        index: &ExecIndex,
        records: &[(u32, Vec<DecodedEvent>)],
        taken_at: u64,
    ) -> Result<ProcessedTrace, DecodeError> {
        let mut agg = Aggregator::new(index, taken_at);
        for (tid, events) in records {
            let trace = DecodedTrace {
                events: events.clone(),
                ..DecodedTrace::default()
            };
            agg.push_record(*tid, trace)?;
        }
        let (executed, offsets, instances) = agg.finish();
        Ok(ProcessedTrace {
            executed,
            offsets,
            instances,
            trigger_tid: 0,
            trigger_pc: Pc(0),
            taken_at,
            event_count: records.iter().map(|(_, e)| e.len()).sum(),
            resyncs: 0,
            cyc_dropped: 0,
            mtc_dups: 0,
        })
    }

    /// Per record: events as (pc choice, window start, window width).
    /// Three in four events draw from three hot PCs (a load, a copy and
    /// a store), so long records push a PC past the 64-instance cap;
    /// records may be empty.
    fn arb_records() -> impl Strategy<Value = Vec<Vec<(usize, u64, u64)>>> {
        let event = (0usize..4, 0usize..24, 0u64..10_000, 0u64..500)
            .prop_map(|(hot, pc, lo, w)| (if hot < 3 { hot } else { pc }, lo, w));
        prop::collection::vec(prop::collection::vec(event, 0..300), 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reference keeps every PC's instances; the dense pass must
        /// agree with it on the executed set and, for PCs with a pointer
        /// operand, on instances and resume bounds, and keep no
        /// instances for any other PC.
        #[test]
        fn dense_pass_matches_per_event_hash_reference(
            raw in arb_records(),
            taken_at in 0u64..20_000,
        ) {
            let m = mixed_module(24);
            let index = ExecIndex::build(&m);
            let pcs = pcs_of(&m);
            // Distinct thread ids, not in record order.
            let records: Vec<(u32, Vec<DecodedEvent>)> = raw
                .iter()
                .enumerate()
                .map(|(r, events)| {
                    let tid = (r as u32 * 7 + 3) % 11;
                    let events = events
                        .iter()
                        .map(|&(pc, lo, w)| DecodedEvent {
                            pc: pcs[pc],
                            time: TimeBounds { lo, hi: lo + w },
                        })
                        .collect();
                    (tid, events)
                })
                .collect();
            let reference = reference::aggregate(&records, taken_at);
            let got = trace_of(&index, &records, taken_at).unwrap();

            let mut want_executed: Vec<Pc> = reference.executed.iter().copied().collect();
            want_executed.sort_unstable();
            prop_assert_eq!(&got.executed, &want_executed);
            for &pc in &pcs {
                if !has_pointer_operand(&m, pc) {
                    prop_assert!(
                        got.instances_of(pc).is_empty(),
                        "{} has no pointer operand but kept instances", pc
                    );
                    continue;
                }
                let want = reference.instances.get(&pc).cloned().unwrap_or_default();
                let have: Vec<(u32, usize, TimeBounds)> = got
                    .instances_of(pc)
                    .iter()
                    .map(|i| (i.tid, i.seq, i.time))
                    .collect();
                prop_assert_eq!(&have, &want, "instances of {}", pc);
                for i in got.instances_of(pc) {
                    prop_assert_eq!(
                        i.resume,
                        reference.resume_bound(i.tid, i.seq),
                        "resume of {} at ({}, {})", pc, i.tid, i.seq
                    );
                }
            }
        }
    }

    fn ev(pc: Pc, lo: u64, hi: u64) -> DecodedEvent {
        DecodedEvent {
            pc,
            time: TimeBounds { lo, hi },
        }
    }

    /// The wire format lets a snapshot repeat a thread id. Each record
    /// resolves resume bounds within itself and is capped on its own;
    /// the `(tid, seq)`-keyed reference let the later record's times
    /// overwrite the earlier one's, so this is pinned here rather than
    /// against it. A resume bound is the next event of any kind, so an
    /// instruction that keeps no instances still bounds its
    /// predecessor.
    #[test]
    fn repeated_thread_id_records_resolve_resume_bounds_per_record() {
        let m = mixed_module(6);
        let index = ExecIndex::build(&m);
        let (ptr, other) = split_pcs(&m);
        let first = vec![ev(ptr[0], 10, 20), ev(ptr[1], 30, 40)];
        let second = vec![
            ev(other[0], 100, 200),
            ev(ptr[1], 300, 400),
            ev(other[1], 500, 600),
        ];
        let t = trace_of(&index, &[(7, first.clone()), (7, second.clone())], 9_000).unwrap();
        let a = t.instances_of(ptr[0]);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].resume, 40, "next event of the same record");
        let b = t.instances_of(ptr[1]);
        assert_eq!(
            b.iter().map(|i| (i.seq, i.resume)).collect::<Vec<_>>(),
            vec![(1, 9_000), (1, 600)],
            "record order; the first record's last event resumes at the snapshot time"
        );
        assert_eq!(t.executed, vec![ptr[0], other[0], ptr[1], other[1]]);
        assert!(t.instances_of(other[0]).is_empty() && t.instances_of(other[1]).is_empty());
        let reference = reference::aggregate(&[(7, first), (7, second)], 9_000);
        assert_eq!(
            reference.resume_bound(7, 0),
            400,
            "the reference mixed in the second record's time"
        );
    }

    fn record(events: Vec<DecodedEvent>) -> DecodedTrace {
        DecodedTrace {
            events,
            ..DecodedTrace::default()
        }
    }

    #[test]
    fn unplaceable_pc_rejects_its_record_only() {
        let m = mixed_module(6);
        let index = ExecIndex::build(&m);
        let (pcs, _) = split_pcs(&m);
        let mut agg = Aggregator::new(&index, 50);
        agg.push_record(1, record(vec![ev(pcs[0], 1, 2)])).unwrap();
        let stray = Pc(pcs[0].0 + 1);
        let err = agg
            .push_record(2, record(vec![ev(stray, 3, 4), ev(pcs[1], 5, 6)]))
            .unwrap_err();
        assert!(matches!(err, DecodeError::Desync(_)), "{err:?}");
        // The next record counts its instances anew, though the
        // rejected one touched the same slot before failing.
        let hot: Vec<DecodedEvent> = (0..70).map(|k| ev(pcs[1], k, k + 1)).collect();
        agg.push_record(3, record(hot)).unwrap();
        let (executed, offsets, instances) = agg.finish();
        assert_eq!(executed, vec![pcs[0], pcs[1]]);
        assert_eq!(
            offsets,
            vec![0, 1, 1 + ProcessedTrace::MAX_INSTANCES_PER_PC]
        );
        assert_eq!(instances[0].tid, 1);
        assert!(instances[1..].iter().all(|i| i.tid == 3));
        assert_eq!(instances[1].seq, 70 - ProcessedTrace::MAX_INSTANCES_PER_PC);
    }

    /// A rejected record adds nothing to the executed set, neither the
    /// PCs that keep instances nor those that only count as executed,
    /// though the reverse pass met both before the unplaceable PC.
    #[test]
    fn rejected_record_leaves_no_executed_pc() {
        let m = mixed_module(6);
        let index = ExecIndex::build(&m);
        let (ptr, other) = split_pcs(&m);
        let mut agg = Aggregator::new(&index, 50);
        agg.push_record(1, record(vec![ev(ptr[0], 1, 2)])).unwrap();
        let stray = Pc(ptr[0].0 + 1);
        let err = agg
            .push_record(
                2,
                record(vec![ev(stray, 3, 4), ev(other[0], 5, 6), ev(ptr[1], 7, 8)]),
            )
            .unwrap_err();
        assert!(matches!(err, DecodeError::Desync(_)), "{err:?}");
        let (executed, offsets, instances) = agg.finish();
        assert_eq!(executed, vec![ptr[0]]);
        assert_eq!(offsets, vec![0, 1]);
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].tid, 1);
    }

    #[test]
    fn from_instances_derives_resume_bounds_like_event_time_lookups() {
        let inst = |tid, seq, lo, hi| DynInstance {
            tid,
            seq,
            time: TimeBounds { lo, hi },
            resume: 0,
        };
        let t = ProcessedTrace::from_instances(
            1,
            Pc(8),
            777,
            [
                (Pc(8), inst(1, 0, 0, 5)),
                (Pc(4), inst(1, 1, 6, 9)),
                (Pc(8), inst(2, 3, 1, 2)),
            ],
        );
        assert_eq!(t.executed, vec![Pc(4), Pc(8)]);
        assert_eq!(t.event_count, 3);
        let at8: Vec<(u32, u64)> = t
            .instances_of(Pc(8))
            .iter()
            .map(|i| (i.tid, i.resume))
            .collect();
        assert_eq!(
            at8,
            vec![(1, 9), (2, 777)],
            "given order, resume from (tid, seq + 1)"
        );
        assert_eq!(t.instances_of(Pc(4))[0].resume, 777);
        assert!(t.instances_of(Pc(12)).is_empty());
        let empty = ProcessedTrace::from_instances(0, Pc(0), 0, []);
        assert!(empty.executed.is_empty() && empty.instances_of(Pc(0)).is_empty());
    }
}
