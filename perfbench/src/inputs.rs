//! Seeded input generation and the input properties each run reports.
//!
//! Every generated unit (a report, a batch, a stream session) draws its
//! VM runs from its own range of 4096 VM seeds, derived from the
//! workload seed, so units are independent, reproducible and can be
//! generated in parallel. Distinct VM seeds give distinct snapshots;
//! [`Distinct`] checks that no snapshot is repeated across requests.

use lazy_ir::Module;
use lazy_snorlax::{CollectionClient, DiagnosisServer, ServerConfig};
use lazy_trace::{encode_snapshot, TraceSnapshot};
use lazy_vm::{Failure, Vm, VmConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// VM runs a collection may spend looking for the failure and the
/// successful traces (as the CLI and the other harnesses use).
const MAX_RUNS: usize = 1000;

/// One failure report: the failure plus its snapshots.
#[derive(Clone)]
pub struct Report {
    pub failure: Failure,
    pub failing: Vec<TraceSnapshot>,
    pub successful: Vec<TraceSnapshot>,
}

impl Report {
    pub fn snapshots(&self) -> impl Iterator<Item = &TraceSnapshot> {
        self.failing.iter().chain(&self.successful)
    }
}

/// Input streams: measured inputs and warm-up inputs never share VM
/// seeds.
#[derive(Clone, Copy)]
pub enum Stream {
    Measured = 0,
    Warmup = 1,
}

/// First VM seed of unit `i` of `stream` under workload seed `seed`.
pub fn vm_seed(seed: u64, stream: Stream, i: usize) -> u64 {
    (seed << 32) | ((stream as u64) << 28) | ((i as u64) << 12)
}

/// Generator threads: never more than the machine's cores.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f(0..n)` on at most [`threads`] threads, in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let v = f(i);
        *slots[i].lock().expect("slot lock") = Some(v);
    };
    std::thread::scope(|s| {
        for _ in 1..threads().min(n.max(1)) {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("slot filled"))
        .collect()
}

/// One failure report: the first failure from `first_seed` on, plus 10
/// successful snapshots at its breakpoint.
pub fn collect_report(module: &Module, first_seed: u64) -> Report {
    let server = DiagnosisServer::new(module, ServerConfig::default());
    let col = CollectionClient::new(&server, VmConfig::default())
        .collect(first_seed, MAX_RUNS, 10, 0)
        .expect("the bug manifests within the run budget");
    Report {
        failure: col.failure,
        failing: col.failing,
        successful: col.successful,
    }
}

/// The first failing run from `first_seed` on, with the same VM
/// configuration a collection uses.
pub fn failing_snapshot(module: &Module, first_seed: u64) -> (Failure, TraceSnapshot) {
    for seed in first_seed..first_seed + MAX_RUNS as u64 {
        let out = Vm::run(
            module,
            VmConfig {
                seed,
                ..VmConfig::default()
            },
        );
        if let (Some(f), Some(s)) = (out.failure().cloned(), out.snapshot) {
            return (f, s);
        }
    }
    panic!("the bug manifests within the run budget");
}

/// Reports `units` of `stream`, all distinct.
pub fn reports(module: &Module, seed: u64, stream: Stream, units: Range<usize>) -> Vec<Report> {
    par_map(units.len(), |k| {
        collect_report(module, vm_seed(seed, stream, units.start + k))
    })
}

/// Batches `units` of `stream`, each of `size` reports: every report has
/// its own failing snapshot and all of them attach one shared success
/// corpus.
pub fn batches(
    module: &Module,
    seed: u64,
    stream: Stream,
    units: Range<usize>,
    size: usize,
) -> Vec<Vec<Report>> {
    par_map(units.len(), |k| {
        let i = units.start + k;
        let mut batch = vec![collect_report(module, vm_seed(seed, stream, i * size))];
        for k in 1..size {
            let (failure, snap) = failing_snapshot(module, vm_seed(seed, stream, i * size + k));
            batch.push(Report {
                failure,
                failing: vec![snap],
                successful: batch[0].successful.clone(),
            });
        }
        batch
    })
}

fn snapshot_key(s: &TraceSnapshot) -> u64 {
    let mut h = DefaultHasher::new();
    encode_snapshot(s).hash(&mut h);
    h.finish()
}

/// Counts snapshot repeats within each request and across a run.
#[derive(Default)]
pub struct Distinct {
    seen: HashSet<u64>,
    pub offered: usize,
    pub repeats_in_request: usize,
    pub repeats_across: usize,
}

impl Distinct {
    /// Records one request's snapshots.
    pub fn request<'a>(&mut self, snaps: impl IntoIterator<Item = &'a TraceSnapshot>) {
        let mut here = HashSet::new();
        let mut fresh = Vec::new();
        for s in snaps {
            let k = snapshot_key(s);
            self.offered += 1;
            if !here.insert(k) {
                self.repeats_in_request += 1;
            } else if self.seen.contains(&k) {
                self.repeats_across += 1;
            } else {
                fresh.push(k);
            }
        }
        self.seen.extend(fresh);
    }

    pub fn share_in_request(&self) -> f64 {
        crate::stats::ratio(self.repeats_in_request as f64, self.offered as f64)
    }

    pub fn share_across(&self) -> f64 {
        crate::stats::ratio(self.repeats_across as f64, self.offered as f64)
    }
}
