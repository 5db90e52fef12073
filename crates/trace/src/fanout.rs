//! The one fan-out helper every parallel stage of the pipeline runs on.
//!
//! Snapshot decode, PSB-sharded stream decode, batch jobs and the
//! fleet's rounds all have the same shape: a short list of independent
//! tasks, each borrowing the caller's data (often a connection's read
//! buffer), whose results must come back in input order and whose
//! panics must fail their own task only. [`fan_out`] is that shape.
//!
//! The threads are scoped, not pooled: a task may borrow anything the
//! caller can, with no lifetime erasure. The caller is one of the
//! workers, so a call with `workers` workers spawns `workers - 1`
//! threads, and none at all for one worker or one task.
//!
//! A spawn is not free (a scoped spawn plus join costs 47–94 µs on a
//! 2-vCPU VM, plus the helper's own kernel time), so an automatic
//! worker count (`0`) spawns only onto idle cores: the process keeps
//! one count of busy pipeline threads ([`BusyMark`]: a daemon worker
//! serving a request, a fan-out's caller and helpers until the fan-out
//! joins), and [`resolve_workers`] turns `0` into the idle cores
//! plus the caller's own. A fan-out nested inside a helper therefore
//! sees its parent's helpers as busy and runs inline once the cores
//! are taken. An explicit count is always taken as given.

use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The cores this process may run on, read once: every later call is
/// a load, not the syscalls behind `available_parallelism`.
#[must_use]
pub fn core_count() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Busy pipeline threads in this process, each held by one [`Claim`].
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is counted in [`BUSY`].
    static MARKED: Cell<bool> = const { Cell::new(false) };
}

/// One thread's share of [`BUSY`], released on drop. A fan-out takes
/// its helpers' claims before spawning them, so a fan-out that starts
/// a moment later (the caller's own first task) already counts them,
/// and drops them once it has joined them.
struct Claim;

impl Claim {
    fn take() -> Claim {
        BUSY.fetch_add(1, Ordering::Relaxed);
        Claim
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Counts the calling thread as a busy pipeline thread until dropped.
///
/// A daemon worker holds one while it serves a request, and a fan-out
/// holds one for its caller until it has joined its helpers (which are
/// counted as long). Marks nest: a thread already marked is counted
/// once, and only its outermost mark releases it.
#[must_use = "the thread counts as busy only while the mark is held"]
pub struct BusyMark {
    claim: Option<Claim>,
    /// The mark is this thread's: it must drop where it was taken.
    _thread: PhantomData<*const ()>,
}

impl BusyMark {
    /// Marks the calling thread busy.
    pub fn new() -> BusyMark {
        BusyMark {
            claim: (!MARKED.replace(true)).then(Claim::take),
            _thread: PhantomData,
        }
    }
}

impl Default for BusyMark {
    fn default() -> BusyMark {
        BusyMark::new()
    }
}

impl Drop for BusyMark {
    fn drop(&mut self) {
        if self.claim.take().is_some() {
            MARKED.set(false);
        }
    }
}

/// The workers an automatic fan-out may use: the cores no other busy
/// pipeline thread holds, where the caller's own core counts as free
/// to it. `busy` counts the caller when `caller_marked`; the result is
/// at least 1, so a fully loaded process runs the work inline.
fn idle_budget(cores: usize, busy: usize, caller_marked: bool) -> usize {
    (cores + usize::from(caller_marked))
        .saturating_sub(busy)
        .max(1)
}

/// A worker count where `0` means one per idle core, the caller's own
/// included (`max(1, cores + caller's mark − busy threads)`). A
/// process with no busy mark sees every core idle.
#[must_use]
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        idle_budget(
            core_count(),
            BUSY.load(Ordering::Relaxed),
            MARKED.with(Cell::get),
        )
    } else {
        workers
    }
}

/// Runs `f` over every item on up to `workers` threads, the caller's
/// included, and returns the results index-aligned with `items`.
///
/// `workers == 0` resolves through [`resolve_workers`] when the call
/// starts. Workers pull the next unclaimed item until none is left, so
/// with `workers >= items.len()` every task gets a thread of its own
/// and all of them run at once (a task that blocks on a peer never
/// starves a sibling). With one worker or a single item every task
/// runs on the caller's thread and nothing is spawned.
///
/// Each task runs under its own `catch_unwind`: a panic becomes the
/// `Err` payload at that task's index and its siblings still run.
pub fn fan_out<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<std::thread::Result<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item)));
    let threads = resolve_workers(workers).min(items.len());
    // Added once per call, zero included, so the counter exists
    // wherever a fan-out ran.
    lazy_obs::counter!("fanout.helpers_spawned_total", threads.saturating_sub(1));
    if threads <= 1 {
        return items.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let r = run(item);
        // A slot is written once, by the worker that claimed its index.
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
    };
    // The caller and every helper stay counted until the fan-out joins,
    // so a helper that ran out of items does not free its core for the
    // nested fan-outs of the tasks still running.
    let _caller = BusyMark::new();
    let _helpers: Vec<Claim> = (1..threads).map(|_| Claim::take()).collect();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                MARKED.set(true);
                drain();
            });
        }
        drain();
    });
    slots
        .into_iter()
        .map(|s| {
            // Every claimed index is filled before its worker moves on,
            // and the scope joins every worker, so an empty slot would
            // mean a worker died outside its task: fail that task.
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| Err(Box::new("fan-out worker produced no result")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn results_stay_index_aligned_when_tasks_finish_out_of_order() {
        // Early items sleep longest, so later items finish first.
        let items: Vec<u64> = (0..8).collect();
        let out = fan_out(&items, 4, |&i| {
            std::thread::sleep(Duration::from_millis(2 * (8 - i)));
            i * 10
        });
        let got: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(got, (0..8).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_task_fails_only_its_own_index() {
        let items: Vec<usize> = (0..6).collect();
        for workers in [1, 3, 6] {
            let out = fan_out(&items, workers, |&i| {
                assert!(i != 2, "task {i} fails");
                i + 100
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.into_iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!((i, v), (i, i + 100)),
                    Err(payload) => {
                        assert_eq!(i, 2, "only task 2 panics (workers {workers})");
                        let msg = payload.downcast_ref::<String>().unwrap();
                        assert_eq!(msg, "task 2 fails");
                    }
                }
            }
        }
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let on = |items: &[u8], workers: usize| -> Vec<ThreadId> {
            fan_out(items, workers, |_| std::thread::current().id())
                .into_iter()
                .map(Result::unwrap)
                .collect()
        };
        assert!(on(&[1, 2, 3, 4], 1).iter().all(|&t| t == caller));
        assert_eq!(on(&[1], 8), vec![caller]);
        assert!(on(&[], 8).is_empty());
    }

    #[test]
    fn n_workers_run_n_tasks_at_once() {
        // Every task waits for all n: the call returns only if the
        // caller and n - 1 helpers each hold a task at the same time.
        // It runs on a watched thread, so a regression fails the test
        // instead of hanging it.
        for n in [2, 3, 5] {
            let (tx, rx) = mpsc::channel();
            let watched = std::thread::spawn(move || {
                let barrier = Barrier::new(n);
                let items: Vec<usize> = (0..n).collect();
                let out = fan_out(&items, n, |_| {
                    barrier.wait();
                    std::thread::current().id()
                });
                let threads: HashSet<ThreadId> = out.into_iter().map(Result::unwrap).collect();
                let _ = tx.send((
                    threads.contains(&std::thread::current().id()),
                    threads.len(),
                ));
            });
            let (caller_ran_one, distinct) = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{n} tasks never all ran at once"));
            watched.join().unwrap();
            assert!(caller_ran_one, "the caller is one of the {n} workers");
            assert_eq!(distinct, n, "{n} tasks on {n} distinct threads");
        }
    }

    #[test]
    fn the_idle_budget_is_the_free_cores_plus_the_callers_own() {
        // An unmarked caller (the CLI, a test) in an idle process gets
        // every core; a marked one is counted in `busy` and gets its
        // own core back.
        assert_eq!(idle_budget(4, 0, false), 4);
        assert_eq!(idle_budget(4, 1, true), 4);
        // Other busy threads take their cores.
        assert_eq!(idle_budget(4, 1, false), 3);
        assert_eq!(idle_budget(4, 3, true), 2);
        // A full or oversubscribed process runs the work inline.
        assert_eq!(idle_budget(4, 4, true), 1);
        assert_eq!(idle_budget(2, 9, false), 1);
        assert_eq!(idle_budget(2, 9, true), 1);
        assert_eq!(idle_budget(1, 0, false), 1);
    }

    #[test]
    fn explicit_counts_are_taken_as_given() {
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(3), 3);
        // `0` never resolves below one worker, however busy the process.
        assert!(resolve_workers(0) >= 1);
    }

    #[test]
    fn every_thread_of_a_spawning_fan_out_is_marked_busy() {
        // The caller and each helper hold a mark while the tasks run,
        // so a fan-out nested in any task counts them all.
        let out = fan_out(&[0u8, 1, 2], 3, |_| MARKED.with(Cell::get));
        assert!(out.into_iter().all(Result::unwrap));
        assert!(
            !MARKED.with(Cell::get),
            "the caller's mark ends with the call"
        );
    }

    #[test]
    fn a_thread_is_counted_once_however_deeply_its_marks_nest() {
        // The thread-local flag is this thread's alone, whatever the
        // sibling tests do to the process-wide count.
        assert!(!MARKED.with(Cell::get));
        let outer = BusyMark::new();
        assert!(outer.claim.is_some() && MARKED.with(Cell::get));
        let inner = BusyMark::new();
        assert!(
            inner.claim.is_none(),
            "a marked thread is not counted again"
        );
        drop(inner);
        assert!(MARKED.with(Cell::get), "only the outermost mark releases");
        drop(outer);
        assert!(!MARKED.with(Cell::get));
    }
}
