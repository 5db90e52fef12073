//! The trace-driver facade.
//!
//! Models the paper's loadable kernel module (§5): it owns one trace
//! encoder (and ring buffer) per thread, exposes the ioctl-style control
//! surface — arm a hardware breakpoint at a PC and snapshot when any
//! thread reaches it, or snapshot on a fail-stop event — and hands the
//! collected per-thread buffers to the diagnosis server.

use crate::config::TraceConfig;
use crate::encoder::Encoder;
use crate::stats::TraceStats;
use std::collections::{BTreeMap, HashSet};

/// One thread's contribution to a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The thread's identifier (assigned by the execution substrate).
    pub tid: u32,
    /// Raw ring-buffer bytes, oldest first.
    pub bytes: Vec<u8>,
    /// Encoder statistics at snapshot time.
    pub stats: TraceStats,
    /// Whether the ring buffer had overwritten old data.
    pub wrapped: bool,
}

/// What triggered a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SnapshotTrigger {
    /// A fail-stop event (crash, deadlock, failed assertion).
    Failure,
    /// A breakpoint armed at a previous failure's PC fired (used to
    /// collect traces from successful executions, step 8).
    Breakpoint,
    /// An explicit on-demand request.
    OnDemand,
}

/// A full multi-thread trace snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Per-thread trace buffers.
    pub threads: Vec<ThreadTrace>,
    /// Virtual TSC when the snapshot was taken.
    pub taken_at: u64,
    /// The thread that triggered the snapshot.
    pub trigger_tid: u32,
    /// The PC that triggered the snapshot.
    pub trigger_pc: u64,
    /// Why the snapshot was taken.
    pub trigger: SnapshotTrigger,
}

impl TraceSnapshot {
    /// Aggregate statistics across all threads.
    pub fn total_stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for t in &self.threads {
            s.merge(&t.stats);
        }
        s
    }

    /// A borrowed view of this snapshot (zero-copy ingest path).
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            threads: self
                .threads
                .iter()
                .map(|t| ThreadTraceView {
                    tid: t.tid,
                    bytes: &t.bytes,
                    stats: t.stats,
                    wrapped: t.wrapped,
                })
                .collect(),
            taken_at: self.taken_at,
            trigger_tid: self.trigger_tid,
            trigger_pc: self.trigger_pc,
            trigger: self.trigger,
        }
    }
}

/// One thread's contribution to a snapshot, borrowing its ring-buffer
/// bytes from a caller-owned buffer (typically a connection's read
/// buffer) instead of owning a copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ThreadTraceView<'a> {
    /// The thread's identifier (assigned by the execution substrate).
    pub tid: u32,
    /// Raw ring-buffer bytes, oldest first — borrowed, not copied.
    pub bytes: &'a [u8],
    /// Encoder statistics at snapshot time.
    pub stats: TraceStats,
    /// Whether the ring buffer had overwritten old data.
    pub wrapped: bool,
}

impl ThreadTraceView<'_> {
    /// Materializes an owned [`ThreadTrace`] (copies the bytes).
    pub fn to_thread_trace(&self) -> ThreadTrace {
        ThreadTrace {
            tid: self.tid,
            bytes: self.bytes.to_vec(),
            stats: self.stats,
            wrapped: self.wrapped,
        }
    }
}

/// A borrowed view of a [`TraceSnapshot`]: the zero-copy ingest shape.
///
/// Wire decode ([`crate::wire::decode_snapshot_view`]) produces these
/// directly over a request payload, so per-thread trace bytes are never
/// copied between the socket read buffer and the decoder.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotView<'a> {
    /// Per-thread trace buffers (borrowed).
    pub threads: Vec<ThreadTraceView<'a>>,
    /// Virtual TSC when the snapshot was taken.
    pub taken_at: u64,
    /// The thread that triggered the snapshot.
    pub trigger_tid: u32,
    /// The PC that triggered the snapshot.
    pub trigger_pc: u64,
    /// Why the snapshot was taken.
    pub trigger: SnapshotTrigger,
}

impl SnapshotView<'_> {
    /// Materializes an owned [`TraceSnapshot`] (copies all bytes).
    pub fn to_snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            threads: self.threads.iter().map(|t| t.to_thread_trace()).collect(),
            taken_at: self.taken_at,
            trigger_tid: self.trigger_tid,
            trigger_pc: self.trigger_pc,
            trigger: self.trigger,
        }
    }

    /// Aggregate statistics across all threads.
    pub fn total_stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for t in &self.threads {
            s.merge(&t.stats);
        }
        s
    }
}

/// Per-thread trace encoders plus the breakpoint control surface.
#[derive(Clone, Debug)]
pub struct TraceDriver {
    config: TraceConfig,
    threads: BTreeMap<u32, Encoder>,
    breakpoints: HashSet<u64>,
    enabled: bool,
}

impl TraceDriver {
    /// Creates a driver with the given configuration.
    pub fn new(config: TraceConfig) -> TraceDriver {
        TraceDriver {
            config,
            threads: BTreeMap::new(),
            breakpoints: HashSet::new(),
            enabled: true,
        }
    }

    /// The driver's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Enables or disables tracing (disabled = baseline runs for
    /// overhead measurement).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Returns `true` if tracing is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Arms a snapshot breakpoint at `pc` (the ioctl interface: "save the
    /// trace when the program executes a specific instruction").
    pub fn add_breakpoint(&mut self, pc: u64) {
        self.breakpoints.insert(pc);
    }

    /// Disarms all breakpoints.
    pub fn clear_breakpoints(&mut self) {
        self.breakpoints.clear();
    }

    /// Returns `true` if a breakpoint is armed at `pc`.
    pub fn is_breakpoint(&self, pc: u64) -> bool {
        !self.breakpoints.is_empty() && self.breakpoints.contains(&pc)
    }

    /// Registers a new thread and starts its trace at `pc`.
    pub fn thread_start(&mut self, tid: u32, pc: u64, tsc: u64) {
        if !self.enabled {
            return;
        }
        let mut enc = Encoder::new(self.config.clone());
        enc.start(pc, tsc);
        self.threads.insert(tid, enc);
    }

    /// Records a conditional-branch outcome.
    pub fn on_branch(&mut self, tid: u32, pc: u64, taken: bool, tsc: u64) {
        if !self.enabled {
            return;
        }
        if let Some(enc) = self.threads.get_mut(&tid) {
            enc.branch(pc, taken, tsc);
        }
    }

    /// Records an indirect transfer (indirect call or return) to
    /// `target`.
    pub fn on_indirect(&mut self, tid: u32, pc: u64, target: u64, tsc: u64) {
        if !self.enabled {
            return;
        }
        if let Some(enc) = self.threads.get_mut(&tid) {
            enc.indirect(pc, target, tsc);
        }
    }

    /// Advances a thread's timing stream without a control event.
    pub fn on_tick(&mut self, tid: u32, tsc: u64) {
        if !self.enabled {
            return;
        }
        if let Some(enc) = self.threads.get_mut(&tid) {
            enc.tick(tsc);
        }
    }

    /// Total bytes written across all threads (the execution substrate
    /// charges the modelled hardware cost from deltas of this value).
    pub fn total_bytes(&self) -> u64 {
        self.threads.values().map(Encoder::total_bytes).sum()
    }

    /// Total spill flushes across all threads (spill mode); the
    /// execution substrate charges storage-I/O time per flush.
    pub fn total_spill_flushes(&self) -> u64 {
        self.threads.values().map(Encoder::spill_flushes).sum()
    }

    /// Takes a snapshot of every thread's buffer.
    ///
    /// `positions` carries each live thread's current PC and local clock;
    /// every listed thread gets an async `FUP` so the decoder can walk
    /// its trace precisely to where the thread was at snapshot time
    /// (without this, a thread blocked on a lock would never have its
    /// blocking lock-acquisition instruction decoded — that instruction
    /// generates no control packet of its own).
    pub fn snapshot(
        &mut self,
        trigger_tid: u32,
        trigger_pc: u64,
        positions: &[(u32, u64, u64)],
        tsc: u64,
        trigger: SnapshotTrigger,
    ) -> TraceSnapshot {
        for (tid, pc, thread_tsc) in positions {
            if let Some(enc) = self.threads.get_mut(tid) {
                enc.async_fup(*pc, *thread_tsc);
            }
        }
        let threads = self
            .threads
            .iter_mut()
            .map(|(tid, enc)| ThreadTrace {
                tid: *tid,
                bytes: enc.snapshot(),
                stats: *enc.stats(),
                wrapped: enc.wrapped(),
            })
            .collect();
        TraceSnapshot {
            threads,
            taken_at: tsc,
            trigger_tid,
            trigger_pc,
            trigger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakpoints_arm_and_clear() {
        let mut d = TraceDriver::new(TraceConfig::default());
        assert!(!d.is_breakpoint(0x40_0000));
        d.add_breakpoint(0x40_0000);
        assert!(d.is_breakpoint(0x40_0000));
        assert!(!d.is_breakpoint(0x40_0004));
        d.clear_breakpoints();
        assert!(!d.is_breakpoint(0x40_0000));
    }

    #[test]
    fn disabled_driver_records_nothing() {
        let mut d = TraceDriver::new(TraceConfig::default());
        d.set_enabled(false);
        d.thread_start(1, 0x40_0000, 0);
        d.on_branch(1, 0x40_0004, true, 10);
        assert_eq!(d.total_bytes(), 0);
        let snap = d.snapshot(
            1,
            0x40_0004,
            &[(1, 0x40_0004, 20)],
            20,
            SnapshotTrigger::Failure,
        );
        assert!(snap.threads.is_empty());
    }

    #[test]
    fn snapshot_collects_all_threads() {
        let mut d = TraceDriver::new(TraceConfig::default());
        d.thread_start(1, 0x40_0000, 0);
        d.thread_start(2, 0x41_0000, 5);
        d.on_branch(1, 0x40_0004, true, 10);
        d.on_branch(2, 0x41_0004, false, 12);
        let snap = d.snapshot(
            1,
            0x40_0008,
            &[(1, 0x40_0008, 20), (2, 0x41_0004, 15)],
            20,
            SnapshotTrigger::Failure,
        );
        assert_eq!(snap.threads.len(), 2);
        assert_eq!(snap.trigger_tid, 1);
        assert_eq!(snap.trigger, SnapshotTrigger::Failure);
        assert!(snap.total_stats().bytes > 0);
        // Both threads have nonempty buffers.
        assert!(snap.threads.iter().all(|t| !t.bytes.is_empty()));
    }

    #[test]
    fn per_thread_stats_are_isolated() {
        let mut d = TraceDriver::new(TraceConfig::default());
        d.thread_start(1, 0x40_0000, 0);
        d.thread_start(2, 0x41_0000, 0);
        for i in 0..10 {
            d.on_branch(1, 0x40_0004, true, i * 100);
        }
        let snap = d.snapshot(2, 0x41_0000, &[], 2000, SnapshotTrigger::OnDemand);
        let t1 = snap.threads.iter().find(|t| t.tid == 1).unwrap();
        let t2 = snap.threads.iter().find(|t| t.tid == 2).unwrap();
        assert_eq!(t1.stats.control_events, 10);
        assert_eq!(t2.stats.control_events, 0);
    }
}
