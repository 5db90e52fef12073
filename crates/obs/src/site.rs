//! The live (`enabled`) implementation: per-site atomics, per-thread
//! span buffers, and the global registry the snapshot walks.
//!
//! Hot-path cost model (the "leave it on in production" budget):
//!
//! * a counter add is one relaxed `fetch_add` plus one relaxed load for
//!   the registration flag;
//! * a histogram observation is three relaxed `fetch_add`s;
//! * a span is an `Instant::now` pair, four relaxed RMWs on its site,
//!   one bucket `fetch_add`, and a push onto the executing thread's own
//!   record buffer — no cross-thread lock is ever contended on the hot
//!   path (each thread locks only its own buffer; the snapshotting
//!   thread is the only other party, and snapshots are rare).
//!
//! Sites register themselves with the global registry on first touch
//! (a single swap on an `AtomicBool`), so unreached instrumentation
//! costs nothing and the registry never needs a static list.

use crate::report::{
    bucket_index, CounterSnapshot, HistogramSnapshot, PipelineTelemetry, SpanSnapshot, BUCKETS,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A monotonic counter. Declare through [`crate::counter!`], which
/// gives each call site its own static and hands increments to it.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A fresh zero counter (const so it can back a site static).
    #[must_use]
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n`. Counters are add-only: there is no way to decrement or
    /// reset, which is what makes snapshots monotone.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            lock(&registry().counters).push(self);
        }
    }
}

/// A fixed-bucket histogram (power-of-two bucket bounds, see
/// [`crate::report::bucket_bound`]). Declare through
/// [`crate::histogram!`].
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// A fresh empty histogram.
    #[must_use]
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            lock(&registry().histograms).push(self);
        }
    }

    fn snapshot_into(&self, out: &mut BTreeMap<&'static str, HistogramSnapshot>) {
        let e = out.entry(self.name).or_insert_with(|| HistogramSnapshot {
            name: self.name.to_string(),
            buckets: vec![0; BUCKETS],
            sum: 0,
            count: 0,
        });
        for (i, b) in self.buckets.iter().enumerate() {
            e.buckets[i] += b.load(Ordering::Relaxed);
        }
        e.sum += self.sum.load(Ordering::Relaxed);
        e.count += self.count.load(Ordering::Relaxed);
    }
}

/// One `span!` call site: aggregates count/total/min/max and a
/// microsecond duration histogram, all updated lock-free on span drop.
pub struct SpanSite {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    dur_us: [AtomicU64; BUCKETS],
    registered: AtomicBool,
}

impl SpanSite {
    /// A fresh site (const so it can back a site static).
    #[must_use]
    pub const fn new(name: &'static str) -> SpanSite {
        SpanSite {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            dur_us: [const { AtomicU64::new(0) }; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// Opens a span; the returned guard records the wall time from now
    /// until it drops, attributed to this site and the current thread.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        let start_ns = now_ns();
        let _ = THREAD.try_with(|t| t.depth.set(t.depth.get() + 1));
        SpanGuard {
            site: self,
            start: Instant::now(),
            start_ns,
        }
    }

    /// Completed spans at this site.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            lock(&registry().spans).push(self);
        }
    }

    fn record(&self, dur_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(dur_ns, Ordering::Relaxed);
        self.min_ns.fetch_min(dur_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(dur_ns, Ordering::Relaxed);
        self.dur_us[bucket_index(dur_ns / 1_000)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot_into(&self, out: &mut BTreeMap<&'static str, SpanSnapshot>) {
        let e = out.entry(self.name).or_insert_with(|| SpanSnapshot {
            name: self.name.to_string(),
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: vec![0; BUCKETS],
        });
        e.count += self.count.load(Ordering::Relaxed);
        e.total_ns += self.total_ns.load(Ordering::Relaxed);
        e.min_ns = e.min_ns.min(self.min_ns.load(Ordering::Relaxed));
        e.max_ns = e.max_ns.max(self.max_ns.load(Ordering::Relaxed));
        for (i, b) in self.dur_us.iter().enumerate() {
            e.buckets[i] += b.load(Ordering::Relaxed);
        }
    }
}

/// RAII guard returned by [`SpanSite::enter`] / [`crate::span!`]. On
/// drop it updates the site aggregates and appends a [`SpanRecord`] to
/// the executing thread's buffer.
pub struct SpanGuard {
    site: &'static SpanSite,
    start: Instant,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.site.record(dur_ns);
        // TLS may already be torn down during thread exit; the site
        // aggregate above is the part that must never be lost.
        let _ = THREAD.try_with(|t| {
            let depth = t.depth.get().saturating_sub(1);
            t.depth.set(depth);
            t.push(SpanRecord {
                name: self.site.name,
                tid: t.tid,
                depth,
                start_ns: self.start_ns,
                dur_ns,
            });
        });
    }
}

/// One completed span, as recorded in its thread's buffer. `depth` is
/// the number of enclosing spans still open on the same thread when
/// this one closed (0 = top level), which is what lets tests rebuild
/// the span tree and check nesting invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span site's name.
    pub name: &'static str,
    /// Telemetry-internal id of the recording thread (assigned in
    /// first-use order, not the OS tid).
    pub tid: u64,
    /// Enclosing open spans on this thread at close time.
    pub depth: u32,
    /// Start time, nanoseconds since the process's telemetry epoch.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub dur_ns: u64,
}

/// Cap on buffered span records per live thread, and on the one
/// buffer that holds the records of every exited thread; beyond it,
/// records are dropped (counted in `obs.span_records_dropped_total`)
/// while site aggregates keep accumulating.
pub const MAX_THREAD_RECORDS: usize = 8192;

static DROPPED: Counter = Counter::new("obs.span_records_dropped_total");

struct ThreadRecords {
    records: Mutex<Vec<SpanRecord>>,
}

struct ThreadState {
    tid: u64,
    depth: Cell<u32>,
    shared: Arc<ThreadRecords>,
}

impl ThreadState {
    fn push(&self, r: SpanRecord) {
        let mut buf = lock(&self.shared.records);
        if buf.len() < MAX_THREAD_RECORDS {
            buf.push(r);
        } else {
            drop(buf);
            DROPPED.add(1);
        }
    }
}

/// A thread that exits leaves the registry, so a process that spawns
/// threads per request holds one buffer per *live* thread, not one per
/// thread it ever ran. Its undrained records move to the shared
/// retired buffer, which [`drain_span_records`] also drains.
impl Drop for ThreadState {
    fn drop(&mut self) {
        let reg = registry();
        let mut threads = lock(&reg.threads);
        threads.retain(|b| !Arc::ptr_eq(b, &self.shared));
        let mut records = std::mem::take(&mut *lock(&self.shared.records));
        let mut retired = lock(&reg.retired);
        let room = MAX_THREAD_RECORDS.saturating_sub(retired.len());
        let dropped = records.len().saturating_sub(room);
        records.truncate(room);
        retired.append(&mut records);
        drop(retired);
        drop(threads);
        if dropped > 0 {
            DROPPED.add(dropped as u64);
        }
    }
}

thread_local! {
    static THREAD: ThreadState = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(ThreadRecords {
            records: Mutex::new(Vec::new()),
        });
        lock(&registry().threads).push(Arc::clone(&shared));
        ThreadState { tid, depth: Cell::new(0), shared }
    };
}

/// The global registry of every touched site and every live thread's
/// buffer. Lock order: `threads`, then a thread's `records`, then
/// `retired`.
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    spans: Mutex<Vec<&'static SpanSite>>,
    threads: Mutex<Vec<Arc<ThreadRecords>>>,
    /// Undrained records of exited threads, at most
    /// [`MAX_THREAD_RECORDS`].
    retired: Mutex<Vec<SpanRecord>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
        retired: Mutex::new(Vec::new()),
    })
}

/// Telemetry never panics the pipeline: a poisoned registry lock only
/// means some thread panicked mid-push, and a `Vec` push leaves the
/// collection well-formed, so recovering the guard is always safe.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Nanoseconds since the process-wide telemetry epoch (the first
/// observation anywhere).
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Takes an aggregated snapshot of every registered counter, histogram,
/// and span site, merged by name and sorted by name.
#[must_use]
pub fn snapshot() -> PipelineTelemetry {
    let reg = registry();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    for c in lock(&reg.counters).iter() {
        *counters.entry(c.name).or_default() += c.get();
    }
    let mut histograms: BTreeMap<&'static str, HistogramSnapshot> = BTreeMap::new();
    for h in lock(&reg.histograms).iter() {
        h.snapshot_into(&mut histograms);
    }
    let mut spans: BTreeMap<&'static str, SpanSnapshot> = BTreeMap::new();
    for s in lock(&reg.spans).iter() {
        s.snapshot_into(&mut spans);
    }
    PipelineTelemetry {
        counters: counters
            .into_iter()
            .map(|(name, value)| CounterSnapshot {
                name: name.to_string(),
                value,
            })
            .collect(),
        histograms: histograms.into_values().collect(),
        spans: spans
            .into_values()
            .map(|mut s| {
                if s.count == 0 {
                    s.min_ns = 0;
                }
                s
            })
            .collect(),
    }
}

/// Drains every thread's span-record buffer, including the records
/// finished threads left behind (up to [`MAX_THREAD_RECORDS`] of them
/// between drains). Records are returned grouped by thread, each
/// thread's records in completion order. Meant for tests and offline
/// span-tree analysis, not the hot path.
#[must_use]
pub fn drain_span_records() -> Vec<SpanRecord> {
    let reg = registry();
    let threads = lock(&reg.threads);
    let mut out = Vec::new();
    for buf in threads.iter() {
        out.append(&mut lock(&buf.records));
    }
    out.append(&mut lock(&reg.retired));
    out
}

/// Drains only the calling thread's span records (deterministic in
/// single-threaded tests even when other tests run concurrently).
#[must_use]
pub fn drain_current_thread_records() -> Vec<SpanRecord> {
    THREAD
        .try_with(|t| std::mem::take(&mut *lock(&t.shared.records)))
        .unwrap_or_default()
}

/// The telemetry-internal id of the calling thread.
#[must_use]
pub fn current_thread_tid() -> u64 {
    THREAD.try_with(|t| t.tid).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread_buffers() -> usize {
        lock(&registry().threads).len()
    }

    fn count(records: &[SpanRecord], name: &str) -> usize {
        records.iter().filter(|r| r.name == name).count()
    }

    /// The only test in this crate that records spans or spawns
    /// threads, so the registry's counts are exact here.
    #[test]
    fn exited_threads_leave_the_registry_and_their_records_stay_drainable() {
        // Register this thread's own buffer and start from empty buffers.
        drop(crate::span!("registry.caller"));
        let _ = drain_span_records();
        let before = thread_buffers();

        // 1,000 short-lived threads, one after another, each closing
        // one span. Joining a thread runs its exit, so none of them is
        // alive when the count is read.
        for _ in 0..1_000 {
            std::thread::spawn(|| drop(crate::span!("registry.short_lived")))
                .join()
                .unwrap();
            assert_eq!(thread_buffers(), before, "an exited thread left its buffer");
        }
        let records = drain_span_records();
        assert_eq!(count(&records, "registry.short_lived"), 1_000);

        // Past the cap, exited threads' records are dropped and counted.
        let dropped_before = DROPPED.get();
        let (threads, spans) = (10, 1_000);
        for _ in 0..threads {
            std::thread::spawn(move || {
                for _ in 0..spans {
                    drop(crate::span!("registry.chatty"));
                }
            })
            .join()
            .unwrap();
        }
        let records = drain_span_records();
        assert_eq!(count(&records, "registry.chatty"), MAX_THREAD_RECORDS);
        assert_eq!(
            DROPPED.get() - dropped_before,
            (threads * spans - MAX_THREAD_RECORDS) as u64
        );
        assert_eq!(thread_buffers(), before);
    }
}
