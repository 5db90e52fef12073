//! The daemon's session table: one bounded, idle-expiring store behind
//! both stateful protocols — [`StreamHub`](crate::StreamHub) stream
//! sessions and [`FleetShard`](crate::FleetShard) round-to-round
//! sessions.
//!
//! A session is keyed by a client-chosen id and holds decoded traces
//! between requests, so the table bounds what clients can pin: at most
//! [`MAX_SESSIONS`] live sessions, each evicted once idle longer than
//! the configured TTL ([`ServerConfig::session_ttl`](crate::ServerConfig::session_ttl)).
//! Admission sweeps expired sessions, checks the cap and inserts under
//! one lock, so concurrent admissions on a multi-worker daemon can
//! never overshoot the cap.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Cap on sessions one table holds open at once: a client that abandons
/// sessions cannot leak unbounded decoded traces.
pub(crate) const MAX_SESSIONS: usize = 64;

/// Admission refused: the table already holds [`MAX_SESSIONS`] live
/// sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AtCapacity;

/// One session plus the last time a client touched it.
struct Slot<T> {
    value: T,
    touched: Instant,
}

/// A bounded map from session id to `T` whose idle entries expire.
pub(crate) struct SessionTable<T> {
    slots: Mutex<HashMap<u64, Slot<T>>>,
    ttl: Duration,
    evicted: AtomicU64,
    /// Telemetry counter fed with every eviction.
    evicted_counter: &'static lazy_obs::Counter,
}

impl<T> SessionTable<T> {
    /// An empty table whose sessions expire after `ttl` idle.
    pub(crate) fn new(ttl: Duration, evicted_counter: &'static lazy_obs::Counter) -> Self {
        SessionTable {
            slots: Mutex::new(HashMap::new()),
            ttl,
            evicted: AtomicU64::new(0),
            evicted_counter,
        }
    }

    /// Every operation leaves the map whole (no panic can interrupt a
    /// mutation halfway), so a poisoned lock is safe to recover.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Slot<T>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sweep_locked(&self, slots: &mut HashMap<u64, Slot<T>>) -> usize {
        let now = Instant::now();
        let before = slots.len();
        slots.retain(|_, s| now.duration_since(s.touched) < self.ttl);
        let evicted = before - slots.len();
        if evicted > 0 {
            self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
            self.evicted_counter.add(evicted as u64);
        }
        evicted
    }

    /// Admits `value` as session `id`, replacing a live session of the
    /// same id (a repeated admission supersedes the earlier one even at
    /// capacity).
    pub(crate) fn insert(&self, id: u64, value: T) -> Result<(), AtCapacity> {
        let mut slots = self.lock();
        self.sweep_locked(&mut slots);
        if slots.len() >= MAX_SESSIONS && !slots.contains_key(&id) {
            return Err(AtCapacity);
        }
        let touched = Instant::now();
        slots.insert(id, Slot { value, touched });
        Ok(())
    }

    /// The live session `id` (refreshed), or — admitted like
    /// [`SessionTable::insert`] — a new one built by `open`, which runs
    /// only once the session is sure to be admitted.
    pub(crate) fn get_or_insert_with(
        &self,
        id: u64,
        open: impl FnOnce() -> T,
    ) -> Result<T, AtCapacity>
    where
        T: Clone,
    {
        let mut slots = self.lock();
        if let Some(slot) = slots.get_mut(&id) {
            slot.touched = Instant::now();
            return Ok(slot.value.clone());
        }
        self.sweep_locked(&mut slots);
        if slots.len() >= MAX_SESSIONS {
            return Err(AtCapacity);
        }
        let value = open();
        let touched = Instant::now();
        slots.insert(
            id,
            Slot {
                value: value.clone(),
                touched,
            },
        );
        Ok(value)
    }

    /// Runs `f` on the live session `id`, refreshing it; `None` when no
    /// such session is open.
    pub(crate) fn with<R>(&self, id: u64, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let mut slots = self.lock();
        let slot = slots.get_mut(&id)?;
        slot.touched = Instant::now();
        Some(f(&mut slot.value))
    }

    /// Closes session `id`, handing back its value.
    pub(crate) fn remove(&self, id: u64) -> Option<T> {
        self.lock().remove(&id).map(|s| s.value)
    }

    /// Evicts every session idle past the TTL; returns how many went.
    pub(crate) fn sweep(&self) -> usize {
        self.sweep_locked(&mut self.lock())
    }

    /// Sessions currently open.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Sessions ever evicted by the idle TTL.
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    static EVICTED: lazy_obs::Counter = lazy_obs::Counter::new("test.sessions_evicted_total");

    fn table(ttl: Duration) -> SessionTable<u32> {
        SessionTable::new(ttl, &EVICTED)
    }

    fn full_table() -> SessionTable<u32> {
        let t = table(Duration::from_secs(300));
        for id in 0..MAX_SESSIONS as u64 {
            t.insert(id, 0).unwrap();
        }
        t
    }

    #[test]
    fn concurrent_admissions_never_exceed_the_cap() {
        for round in 0..20u64 {
            let t = table(Duration::from_secs(300));
            for id in 0..MAX_SESSIONS as u64 - 1 {
                t.insert(id, 0).unwrap();
            }
            let gate = Barrier::new(8);
            let admitted: usize = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8u64)
                    .map(|k| {
                        let (t, gate) = (&t, &gate);
                        scope.spawn(move || {
                            gate.wait();
                            let id = 1_000 + k;
                            // Both admission paths race for the one slot.
                            let ok = if (k + round) % 2 == 0 {
                                t.insert(id, 1).is_ok()
                            } else {
                                t.get_or_insert_with(id, || 1).is_ok()
                            };
                            usize::from(ok)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(admitted, 1, "exactly one racer takes the last slot");
            assert_eq!(t.len(), MAX_SESSIONS);
        }
    }

    #[test]
    fn readmitting_a_live_id_at_capacity_replaces_it() {
        let t = full_table();
        assert_eq!(t.insert(MAX_SESSIONS as u64, 0), Err(AtCapacity));
        assert_eq!(t.insert(3, 7), Ok(()), "a live id is replaced, not refused");
        assert_eq!(t.with(3, |v| *v), Some(7));
        assert_eq!(t.len(), MAX_SESSIONS);
    }

    #[test]
    fn get_or_insert_keeps_a_live_session_and_refuses_new_ones_at_capacity() {
        let t = full_table();
        t.with(5, |v| *v = 9).unwrap();
        assert_eq!(t.get_or_insert_with(5, || 1), Ok(9), "live session kept");
        let opened = std::cell::Cell::new(false);
        let r = t.get_or_insert_with(MAX_SESSIONS as u64, || {
            opened.set(true);
            1
        });
        assert_eq!(r, Err(AtCapacity));
        assert!(!opened.get(), "a refused session is never built");
        assert_eq!(t.remove(5), Some(9));
        assert_eq!(t.get_or_insert_with(MAX_SESSIONS as u64, || 1), Ok(1));
        assert_eq!(t.with(5, |v| *v), None, "removed sessions are gone");
    }

    #[test]
    fn idle_sessions_expire_and_free_their_slots() {
        let t = table(Duration::from_millis(1));
        for id in 0..MAX_SESSIONS as u64 {
            t.insert(id, 0).unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
        // Admission sweeps on its own: the abandoned sessions go first.
        t.insert(u64::MAX, 0).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.evicted(), MAX_SESSIONS as u64);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(t.sweep(), 1);
        assert_eq!(t.len(), 0);
        assert_eq!(t.evicted(), MAX_SESSIONS as u64 + 1);
    }
}
