#![warn(missing_docs)]

//! # lazy-replay — record/replay from coarse timestamps
//!
//! The paper's §3.3 argues its finding generalizes beyond diagnosis:
//! "the coarse interleaving hypothesis can be used to efficiently
//! record the order of racing accesses, thereby enabling the design of
//! efficient record/replay engines that can work in the presence of
//! data races" (it cites Castor's hardware-timestamp recording as a
//! sibling). This crate is that demonstrator:
//!
//! * **Record**: extract the cross-thread order of a chosen set of
//!   racing instructions from an ordinary (coarse!) trace snapshot —
//!   the same decoded, partially-ordered trace Lazy Diagnosis uses. No
//!   per-access logging, no synchronization: the order falls out of the
//!   MTC/CYC timestamps.
//! * **Replay**: impose the recorded order on a later execution through
//!   a [`ScheduleGate`]: a thread about to execute a recorded racing
//!   access waits until every earlier recorded access has run. The
//!   non-racing bulk of the execution stays free (the efficient part —
//!   only racing accesses are ordered, exactly the division of labor
//!   the paper proposes for race-tolerant record/replay).
//!
//! A failing interleaving recorded once therefore reproduces
//! deterministically on any seed — and a *successful* recording can
//! force a bug-prone program through a safe schedule.
//!
//! [`ScheduleGate`]: lazy_vm::ScheduleGate

use lazy_ir::Pc;
use lazy_snorlax::processing::ProcessedTrace;
use lazy_vm::{RecordedEvent, ScheduleGate};
use std::collections::HashSet;

/// A recorded total order over racing-access executions.
///
/// Entries are `(thread, pc)` in execution order; the same pair appears
/// once per dynamic occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recording {
    order: Vec<(u32, Pc)>,
    watched: HashSet<Pc>,
}

/// Why a coarse trace could not be turned into a recording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Two cross-thread accesses have overlapping time windows: the
    /// coarse interleaving hypothesis does not hold for this pair, so
    /// no order can be recorded (§7's boundary applies to recording
    /// exactly as to diagnosis).
    Unordered {
        /// One of the unorderable accesses.
        a: Pc,
        /// The other access.
        b: Pc,
    },
    /// No watched access appears in the trace.
    Empty,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Unordered { a, b } => {
                write!(f, "racing accesses {a} and {b} are not coarsely ordered")
            }
            RecordError::Empty => write!(f, "no watched access in the trace"),
        }
    }
}

impl std::error::Error for RecordError {}

impl Recording {
    /// Records from exact ground-truth events (the VM recorder) — the
    /// oracle variant used to validate the coarse one.
    pub fn from_ground_truth(events: &[RecordedEvent], racing: &HashSet<Pc>) -> Recording {
        let mut order: Vec<(u64, u32, Pc)> = events
            .iter()
            .filter(|e| racing.contains(&e.pc))
            .map(|e| (e.at_ns, e.tid, e.pc))
            .collect();
        order.sort();
        Recording {
            order: order.into_iter().map(|(_, tid, pc)| (tid, pc)).collect(),
            watched: racing.clone(),
        }
    }

    /// Records from a decoded coarse trace: the racing accesses'
    /// instances, ordered by their time windows.
    ///
    /// # Errors
    ///
    /// Fails with [`RecordError::Unordered`] when two cross-thread
    /// instances overlap (no order recoverable), or
    /// [`RecordError::Empty`] when nothing matched.
    pub fn from_processed_trace(
        trace: &ProcessedTrace,
        racing: &HashSet<Pc>,
    ) -> Result<Recording, RecordError> {
        let mut instances: Vec<(Pc, lazy_snorlax::processing::DynInstance)> = Vec::new();
        for &pc in racing {
            for inst in trace.instances_of(pc) {
                instances.push((pc, *inst));
            }
        }
        if instances.is_empty() {
            return Err(RecordError::Empty);
        }
        // Sort by window, same-thread ties by sequence.
        instances.sort_by_key(|(_, i)| (i.time.lo, i.time.hi, i.tid, i.seq));
        // Verify the order is real: cross-thread neighbors must be
        // strictly ordered.
        for w in instances.windows(2) {
            let (pa, a) = &w[0];
            let (pb, b) = &w[1];
            if a.tid != b.tid && !a.definitely_before(b) {
                return Err(RecordError::Unordered { a: *pa, b: *pb });
            }
        }
        Ok(Recording {
            order: instances.into_iter().map(|(pc, i)| (i.tid, pc)).collect(),
            watched: racing.clone(),
        })
    }

    /// The recorded `(thread, pc)` sequence.
    pub fn order(&self) -> &[(u32, Pc)] {
        &self.order
    }

    /// Builds the replay gate imposing this order. Thread ids are
    /// assigned deterministically by spawn order in the VM, so a
    /// recording replays against any seed of the same program without
    /// id translation.
    pub fn gate(&self) -> ReplayGate {
        ReplayGate {
            order: self.order.clone(),
            watched: self.watched.clone(),
            cursor: 0,
            divergences: 0,
            tail_executions: 0,
        }
    }
}

/// A [`ScheduleGate`] that enforces a [`Recording`]'s order.
#[derive(Clone, Debug)]
pub struct ReplayGate {
    order: Vec<(u32, Pc)>,
    watched: HashSet<Pc>,
    cursor: usize,
    divergences: u32,
    tail_executions: u32,
}

impl ReplayGate {
    /// Number of forced steps where the replayed run could not follow
    /// the recording (0 = faithful replay).
    pub fn divergences(&self) -> u32 {
        self.divergences
    }

    /// Watched executions beyond the end of the recording.
    pub fn tail_executions(&self) -> u32 {
        self.tail_executions
    }

    /// How many recorded accesses were replayed in order.
    pub fn replayed(&self) -> usize {
        self.cursor
    }
}

impl ScheduleGate for ReplayGate {
    fn watches(&self, pc: Pc) -> bool {
        self.watched.contains(&pc)
    }

    fn may_execute(&mut self, tid: u32, pc: Pc) -> bool {
        match self.order.get(self.cursor) {
            Some(&(want_tid, want_pc)) => want_tid == tid && want_pc == pc,
            // Past the recording: no constraint.
            None => true,
        }
    }

    fn on_executed(&mut self, tid: u32, pc: Pc) {
        match self.order.get(self.cursor) {
            Some(&(want_tid, want_pc)) if want_tid == tid && want_pc == pc => {
                self.cursor += 1;
            }
            Some(_) => self.divergences += 1,
            None => self.tail_executions += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_snorlax::{DiagnosisServer, ServerConfig};
    use lazy_vm::{Vm, VmConfig};
    use lazy_workloads::scenario_by_id;

    /// End-to-end: record the failing interleaving of the pbzip2 bug
    /// from its *coarse trace*, then replay it on seeds that would
    /// otherwise succeed — the failure reproduces deterministically.
    #[test]
    fn coarse_recording_replays_the_failure_on_any_seed() {
        let s = scenario_by_id("pbzip2-na-1").unwrap();
        let racing: HashSet<Pc> = s.targets.iter().copied().collect();

        // Find a failing seed and a few succeeding seeds.
        let mut failing_seed = None;
        let mut good_seeds = Vec::new();
        for seed in 0..200 {
            let out = Vm::run(
                &s.module,
                VmConfig {
                    seed,
                    ..VmConfig::default()
                },
            );
            if out.is_failure() {
                failing_seed.get_or_insert(seed);
            } else if good_seeds.len() < 3 {
                good_seeds.push(seed);
            }
            if failing_seed.is_some() && good_seeds.len() >= 3 {
                break;
            }
        }
        let failing_seed = failing_seed.expect("bug manifests");

        // Record from the failing run's coarse trace snapshot.
        let out = Vm::run(
            &s.module,
            VmConfig {
                seed: failing_seed,
                ..VmConfig::default()
            },
        );
        let failure = out.failure().unwrap().clone();
        let server = DiagnosisServer::new(&s.module, ServerConfig::default());
        let trace = server.process(out.snapshot.as_ref().unwrap()).unwrap();
        let rec = Recording::from_processed_trace(&trace, &racing).expect("coarsely ordered");
        assert!(rec.order().len() >= 2);

        // Replaying on succeeding seeds reproduces the same failure.
        for seed in good_seeds {
            let mut gate = rec.gate();
            let replayed = Vm::run_gated(
                &s.module,
                VmConfig {
                    seed,
                    ..VmConfig::default()
                },
                &mut gate,
            );
            let f = replayed
                .failure()
                .unwrap_or_else(|| panic!("seed {seed}: replay must reproduce the failure"));
            assert_eq!(f.pc, failure.pc, "same failing instruction");
            assert_eq!(gate.divergences(), 0, "faithful replay");
        }
    }

    /// The dual: a recording of a *successful* order forces failing
    /// seeds through the safe schedule.
    ///
    /// Shielding (unlike reproduction) must order *every* access to the
    /// shared object, not just the two headline events — otherwise the
    /// freed object races with the consumer's remaining critical
    /// section. That full set is exactly the diagnosis candidate set:
    /// here, every consumer access to the queue plus the free.
    #[test]
    fn successful_recording_shields_failing_seeds() {
        let s = scenario_by_id("pbzip2-na-1").unwrap();
        let mut racing: HashSet<Pc> = s.targets.iter().copied().collect();
        let consumer = s
            .module
            .func_by_name("fifo_consumer")
            .expect("consumer function");
        for inst in consumer.insts() {
            if inst.kind.pointer_operand().is_some()
                && (inst.kind.is_memory_access()
                    || inst.kind.is_lock_acquire()
                    || matches!(inst.kind, lazy_ir::InstKind::MutexUnlock { .. }))
            {
                racing.insert(inst.pc);
            }
        }
        let watch: Vec<Pc> = racing.iter().copied().collect();
        let mut good = None;
        let mut bad_seeds = Vec::new();
        for seed in 0..200 {
            let out = Vm::run(
                &s.module,
                VmConfig {
                    seed,
                    watch_pcs: watch.clone(),
                    ..VmConfig::default()
                },
            );
            if out.is_failure() {
                if bad_seeds.len() < 3 {
                    bad_seeds.push(seed);
                }
            } else if good.is_none() {
                good = Some(out);
            }
            if good.is_some() && bad_seeds.len() >= 3 {
                break;
            }
        }
        // Record the safe order from ground truth (both orders work;
        // this also exercises the oracle constructor).
        let rec = Recording::from_ground_truth(&good.expect("a safe run").events, &racing);
        for seed in bad_seeds {
            let mut gate = rec.gate();
            let replayed = Vm::run_gated(
                &s.module,
                VmConfig {
                    seed,
                    ..VmConfig::default()
                },
                &mut gate,
            );
            assert!(
                !replayed.is_failure(),
                "seed {seed}: the safe schedule must complete ({:?})",
                replayed.failure()
            );
            assert_eq!(gate.divergences(), 0);
        }
    }

    /// Coarse and ground-truth recordings agree on the racing order.
    #[test]
    fn coarse_recording_matches_ground_truth() {
        let s = scenario_by_id("transmission-1818").unwrap();
        let racing: HashSet<Pc> = s.targets.iter().copied().collect();
        let (out, _) = s.reproduce(0, 300).expect("manifests");
        let truth = Recording::from_ground_truth(&out.events, &racing);
        let server = DiagnosisServer::new(&s.module, ServerConfig::default());
        let trace = server.process(out.snapshot.as_ref().unwrap()).unwrap();
        let coarse = Recording::from_processed_trace(&trace, &racing).expect("ordered");
        assert_eq!(coarse.order(), truth.order());
    }

    #[test]
    fn overlapping_windows_refuse_to_record() {
        use lazy_snorlax::processing::DynInstance;
        use lazy_trace::TimeBounds;
        let inst = |tid, lo, hi| DynInstance {
            tid,
            seq: 0,
            time: TimeBounds { lo, hi },
            resume: 0,
        };
        let trace = ProcessedTrace::from_instances(
            1,
            Pc(4),
            1000,
            [(Pc(4), inst(1, 0, 100)), (Pc(8), inst(2, 50, 150))],
        );
        let racing: HashSet<Pc> = [Pc(4), Pc(8)].into_iter().collect();
        let err = Recording::from_processed_trace(&trace, &racing).unwrap_err();
        assert!(matches!(err, RecordError::Unordered { .. }));
    }
}
