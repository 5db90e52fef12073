//! The idle-core rule of the fan-out helper, end to end: with every
//! core held by a busy pipeline thread, a `diagnose` and a stream fold
//! spawn no helper at all, and both render byte-identically to the same
//! calls made in an idle process.
//!
//! Spawns are counted by the `fanout.helpers_spawned_total` counter and
//! the busy count is process-wide, so this file is its own test binary
//! with one test: nothing else in the process spawns helpers or holds
//! cores while it measures.

#![cfg(feature = "telemetry")]

use lazy_diagnosis::snorlax::{
    interleave_reports, CollectionClient, CollectionOutcome, DiagnosisServer, ServerConfig,
    StreamingDiagnoser,
};
use lazy_diagnosis::trace::{core_count, BusyMark};
use lazy_diagnosis::vm::VmConfig;
use std::sync::{mpsc, Barrier, Mutex, PoisonError};

/// Runs `f` and returns its result with the helpers spawned meanwhile.
fn spawns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = lazy_obs::snapshot();
    let r = f();
    let spawned = lazy_obs::snapshot()
        .since(&before)
        .counter("fanout.helpers_spawned_total");
    (r, spawned)
}

/// Runs `f` on the calling thread while every core is held busy: the
/// caller holds one mark and `core_count() - 1` parked threads the rest.
fn with_every_core_busy<R>(f: impl FnOnce() -> R) -> R {
    let others = core_count() - 1;
    let marked = Barrier::new(others + 1);
    let (release, parked) = mpsc::channel::<()>();
    let parked = Mutex::new(parked);
    std::thread::scope(|scope| {
        for _ in 0..others {
            scope.spawn(|| {
                let _busy = BusyMark::new();
                marked.wait();
                // Held until the sender drops.
                let _ = parked.lock().unwrap_or_else(PoisonError::into_inner).recv();
            });
        }
        let _busy = BusyMark::new();
        marked.wait();
        let r = f();
        drop(release);
        r
    })
}

/// A diagnosis render and a fold-by-fold stream render of one report.
fn diagnose_and_fold(server: &DiagnosisServer<'_>, c: &CollectionOutcome) -> (String, String) {
    let module = server.module();
    let diagnosis = server
        .diagnose(&c.failure, &c.failing, &c.successful)
        .expect("diagnosis");
    let mut stream = StreamingDiagnoser::new(server, &c.failure);
    for report in interleave_reports(&c.failing, &c.successful) {
        stream.fold(&report).expect("corpus reports decode");
    }
    let outcome = stream.finish().expect("stream diagnosis");
    (diagnosis.render(module), outcome.diagnosis.render(module))
}

#[test]
fn a_fully_loaded_process_spawns_no_helper_and_renders_identically() {
    let s = lazy_workloads::scenario_by_id("mysql-3596").expect("corpus bug");
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let c = CollectionClient::new(&server, VmConfig::default())
        .collect(0, 800, 10, 0)
        .expect("bug manifests within the budget");
    let (idle, idle_spawns) = spawns(|| diagnose_and_fold(&server, &c));
    let (loaded, loaded_spawns) =
        spawns(|| with_every_core_busy(|| diagnose_and_fold(&server, &c)));
    assert_eq!(loaded_spawns, 0, "every core was busy, yet helpers spawned");
    assert_eq!(idle.0, loaded.0, "diagnose renders differ loaded vs idle");
    assert_eq!(idle.1, loaded.1, "stream renders differ loaded vs idle");
    // Idle, the report's snapshots split over the free cores, so the
    // loaded run is not vacuously inline.
    if core_count() >= 2 {
        assert!(
            idle_spawns > 0,
            "an idle multi-core process spawned nothing"
        );
    }
}
