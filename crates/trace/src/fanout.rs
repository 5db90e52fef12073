//! The one fan-out helper every parallel stage of the pipeline runs on.
//!
//! Snapshot decode, PSB-sharded stream decode, batch jobs and the
//! fleet's rounds all have the same shape: a short list of independent
//! tasks, each borrowing the caller's data (often a connection's read
//! buffer), whose results must come back in input order and whose
//! panics must fail their own task only. [`fan_out`] is that shape.
//!
//! The threads are scoped, not pooled: a task may borrow anything the
//! caller can, with no lifetime erasure, and a spawn plus join costs
//! tens of microseconds against the milliseconds a task takes. The
//! caller is one of the workers, so a call with `workers` workers
//! spawns `workers - 1` threads, and none at all for one worker or one
//! task.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A worker count where `0` means one per available core.
#[must_use]
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    }
}

/// Runs `f` over every item on up to `workers` threads, the caller's
/// included, and returns the results index-aligned with `items`.
///
/// Workers pull the next unclaimed item until none is left, so with
/// `workers >= items.len()` every task gets a thread of its own and
/// all of them run at once (a task that blocks on a peer never starves
/// a sibling). With `workers <= 1` or a single item every task runs on
/// the caller's thread and nothing is spawned.
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
    let threads = workers.min(items.len());
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
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(drain);
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
        for workers in [0, 1] {
            assert!(on(&[1, 2, 3, 4], workers).iter().all(|&t| t == caller));
        }
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
    fn zero_workers_resolves_to_the_core_count() {
        let cores = std::thread::available_parallelism().unwrap().get();
        assert_eq!(resolve_workers(0), cores);
        assert_eq!(resolve_workers(3), 3);
    }
}
