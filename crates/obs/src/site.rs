//! The live (`enabled`) implementation: per-site atomics and the
//! global registry of sites the snapshot walks. Nothing is kept per
//! thread.
//!
//! Hot-path cost model (the "leave it on in production" budget):
//!
//! * a counter add is one relaxed `fetch_add` plus one relaxed load for
//!   the registration flag;
//! * a histogram observation is three relaxed `fetch_add`s;
//! * a span is an `Instant::now` pair, four relaxed RMWs on its site
//!   and one bucket `fetch_add` — no lock is taken on the hot path.
//!
//! Sites register themselves with the global registry on first touch
//! (a single swap on an `AtomicBool`), so unreached instrumentation
//! costs nothing and the registry never needs a static list.

use crate::report::{
    bucket_index, CounterSnapshot, HistogramSnapshot, PipelineTelemetry, SpanSnapshot, BUCKETS,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
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
    /// until it drops, attributed to this site.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        SpanGuard {
            site: self,
            start: Instant::now(),
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
/// drop it updates the site aggregates.
pub struct SpanGuard {
    site: &'static SpanSite,
    start: Instant,
}

impl SpanGuard {
    /// Closes the span before its scope ends. The same call compiles in
    /// the disabled build, whose guard has no `Drop` to call `drop` on.
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.site.record(dur_ns);
    }
}

/// The global registry of every touched site.
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    spans: Mutex<Vec<&'static SpanSite>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
    })
}

/// Telemetry never panics the pipeline: a poisoned registry lock only
/// means some thread panicked mid-push, and a `Vec` push leaves the
/// collection well-formed, so recovering the guard is always safe.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(name: &str) -> u64 {
        snapshot().span(name).map_or(0, |s| s.count)
    }

    /// The only test in this crate that records these span names, so
    /// their counts are exact here. A span closed on any thread, live
    /// or since exited, is counted once in its site's aggregate: there
    /// is no per-thread cap and nothing is dropped.
    #[test]
    fn spans_on_every_thread_reach_their_site_aggregate() {
        // 1,000 short-lived threads, one after another, each closing
        // one span and exiting before the next starts.
        for _ in 0..1_000 {
            std::thread::spawn(|| drop(crate::span!("aggregate.short_lived")))
                .join()
                .unwrap();
        }
        assert_eq!(closed("aggregate.short_lived"), 1_000);

        // Ten chatty threads at once, 1,000 spans each, released
        // together so they race to register the site on first touch.
        let (threads, spans) = (10, 1_000);
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..spans {
                        drop(crate::span!("aggregate.chatty"));
                    }
                });
            }
        });
        let t = snapshot();
        let chatty = t.span("aggregate.chatty").unwrap();
        assert_eq!(chatty.count, (threads * spans) as u64);
        assert_eq!(chatty.buckets.iter().sum::<u64>(), chatty.count);
        assert!(chatty.min_ns <= chatty.max_ns && chatty.max_ns <= chatty.total_ns);
        let sites = lock(&registry().spans)
            .iter()
            .filter(|s| s.name == "aggregate.chatty")
            .count();
        assert_eq!(
            sites, 1,
            "a site registers once, however many threads touch it"
        );
    }
}
