//! Allocation pins for steps 4–5 on a benchmark-shaped scope.
//!
//! A scoped points-to solve over one `mysql-3596` report's executed set
//! is small (a few hundred PCs, under two hundred variables), so what
//! it costs is bookkeeping: hashing and heap traffic, not the fixpoint.
//! A counting global allocator pins how many allocations a solve and
//! the candidate selection after it make, so a per-variable or
//! per-instruction allocation cannot creep back in unnoticed.
//!
//! The binary holds one test: the counters are per thread, but a second
//! test would still share the process's one-time telemetry set-up.

use lazy_diagnosis::analysis::PointsTo;
use lazy_diagnosis::ir::Pc;
use lazy_diagnosis::snorlax::{select_candidates, CollectionClient, DiagnosisServer, ServerConfig};
use lazy_diagnosis::vm::VmConfig;
use lazy_workloads::scenario_by_id;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

/// The system allocator, counting per thread the calls that hand out
/// memory (`alloc`, `alloc_zeroed` and `realloc`).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // A const-initialized `Cell` has no destructor, so this access never
    // allocates and stays valid while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations one scoped solve may make. It makes 53 on this scope;
/// the solver before dense variables and sorted-vector sets made 514:
/// a set, a delta set, a successor set and a constraint list per
/// variable, and an op list per instruction.
const SOLVE_BOUND: u64 = 200;
/// Allocations one candidate selection may make. It makes 17; before
/// borrowed alias queries it made 151, a set per executed pointer
/// instruction.
const SELECT_BOUND: u64 = 20;

#[test]
fn a_scoped_solve_and_candidate_selection_stay_under_their_allocation_bounds() {
    let s = scenario_by_id("mysql-3596").expect("corpus bug");
    let server = DiagnosisServer::new(
        &s.module,
        ServerConfig {
            decode_workers: 1,
            ..ServerConfig::default()
        },
    );
    let report = CollectionClient::new(&server, VmConfig::default())
        .collect(7919, 800, 10, 0)
        .expect("the bug manifests within the budget");
    let mut executed: HashSet<Pc> = HashSet::new();
    for snap in report.failing.iter().chain(&report.successful) {
        let trace = server.process(snap).expect("corpus snapshots decode");
        executed.extend(trace.executed.iter().copied());
    }
    let mut scope: Vec<Pc> = executed.iter().copied().collect();
    scope.sort_unstable();
    assert!(
        scope.len() > 200,
        "a benchmark-sized scope: {}",
        scope.len()
    );

    // Warm the telemetry sites, which register once per process.
    let warm = PointsTo::analyze_scoped(&s.module, &executed);
    let _ = select_candidates(&s.module, &warm, &executed, report.failure.pc, false);

    let (listed, listed_allocs) = counted(|| PointsTo::analyze_sorted_scope(&s.module, &scope));
    let (pts, set_allocs) = counted(|| PointsTo::analyze_scoped(&s.module, &executed));
    assert_eq!(listed.stats(), pts.stats());
    assert!(pts.stats().vars > 100, "a real solve: {:?}", pts.stats());
    let (cands, select_allocs) =
        counted(|| select_candidates(&s.module, &pts, &executed, report.failure.pc, false));
    assert!(!cands.ranked.is_empty());
    eprintln!(
        "{} executed PCs of {} instructions ({} PC slots, {} registers), {:?}: \
         sorted-scope solve {listed_allocs}, set-scope solve {set_allocs}, \
         candidate selection {select_allocs} allocations",
        scope.len(),
        s.module.inst_count(),
        s.module.pc_slot_count(),
        s.module.reg_slot_count(),
        pts.stats()
    );
    assert!(
        listed_allocs <= SOLVE_BOUND && set_allocs <= SOLVE_BOUND,
        "a scoped solve made {listed_allocs} (sorted) / {set_allocs} (set) allocations, \
         beyond {SOLVE_BOUND}"
    );
    assert!(
        select_allocs <= SELECT_BOUND,
        "candidate selection made {select_allocs} allocations, beyond {SELECT_BOUND}"
    );
}
