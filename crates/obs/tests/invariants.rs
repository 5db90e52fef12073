//! Metrics-invariant property tests (enabled build):
//!
//! * counters are monotone under any add sequence;
//! * a histogram's bucket counts always sum to its observation count,
//!   its sum to the sum of observed values, and every observation lands
//!   in a bucket whose bound admits it;
//! * span trees nest in the aggregates — over any nesting shape, each
//!   level's span count is the product of the widths at and above it,
//!   and each level's total time is at most its parent level's;
//! * snapshots merge same-named sites and stay sorted by name.
//!
//! Telemetry state is global to the process, so every test here uses
//! metric names unique to itself and asserts only on those.
#![cfg(feature = "enabled")]

use lazy_obs::{snapshot, Counter, Histogram, PipelineTelemetry, BUCKETS};
use proptest::prelude::*;

proptest! {
    /// A counter only ever moves up, by exactly what was added.
    #[test]
    fn counters_are_monotone(adds in prop::collection::vec(0u64..1 << 40, 1..64)) {
        static C: Counter = Counter::new("test.invariants.monotone_total");
        let mut prev = C.get();
        for &n in &adds {
            C.add(n);
            let now = C.get();
            prop_assert!(now >= prev, "counter moved backwards: {prev} -> {now}");
            prop_assert!(now - prev >= n, "add of {n} lost increments");
            prev = now;
        }
    }

    /// Bucket counts sum to the observation count; the sum field sums
    /// the observed values; every value fits its bucket's bound.
    #[test]
    fn histogram_buckets_reconcile(values in prop::collection::vec(0u64..1 << 30, 1..128)) {
        static H: Histogram = Histogram::new("test.invariants.hist");
        let before = histogram_of(&snapshot());
        for &v in &values {
            H.observe(v);
        }
        let after = histogram_of(&snapshot());
        let d_count = after.1 - before.1;
        let d_sum = after.2 - before.2;
        let d_buckets: u64 = after
            .0
            .iter()
            .zip(&before.0)
            .map(|(a, b)| a - b)
            .sum();
        // Other proptest cases in this same test run serially (one
        // runner per test), so the delta is exactly this case's.
        prop_assert_eq!(d_count, values.len() as u64);
        prop_assert_eq!(d_buckets, d_count, "bucket sum != observation count");
        prop_assert_eq!(d_sum, values.iter().sum::<u64>());
        for i in 0..BUCKETS {
            if let Some(bound) = lazy_obs::report::bucket_bound(i) {
                let land_here = values
                    .iter()
                    .filter(|&&v| lazy_obs::report::bucket_index(v) == i)
                    .all(|&v| v <= bound);
                prop_assert!(land_here, "a value exceeded its bucket bound");
            }
        }
    }

    /// Nested spans nest in the aggregates: `shape[l]` spans open at
    /// level `l` inside each level-`l - 1` span, so level `l` closes
    /// the product of the widths at and above it, and its children run
    /// one after another inside their parent, so its total time is at
    /// most its parent level's.
    #[test]
    fn span_trees_nest(shape in prop::collection::vec(1usize..4, 1..=LEVELS.len())) {
        let before = snapshot();
        nest(&shape, 0);
        let delta = snapshot().since(&before);
        let (mut expected, mut parent_total) = (1u64, u64::MAX);
        for (&width, name) in shape.iter().zip(LEVELS) {
            expected *= width as u64;
            let Some(level) = delta.span(name) else {
                return Err(TestCaseError::fail(format!("no spans recorded under {name}")));
            };
            prop_assert_eq!(level.count, expected, "span count at {}", name);
            prop_assert!(
                level.total_ns <= parent_total,
                "{} totals {} ns, more than its parent level's {} ns",
                name,
                level.total_ns,
                parent_total
            );
            parent_total = level.total_ns;
        }
    }
}

/// One span name per nesting level.
const LEVELS: [&str; 5] = [
    "test.nest.level0",
    "test.nest.level1",
    "test.nest.level2",
    "test.nest.level3",
    "test.nest.level4",
];

/// Builds `shape[level]` sibling spans at each level, recursing one
/// level deeper inside each.
fn nest(shape: &[usize], level: usize) {
    let Some(&width) = shape.get(level) else {
        return;
    };
    for _ in 0..width {
        let _g = match level {
            0 => lazy_obs::span!("test.nest.level0"),
            1 => lazy_obs::span!("test.nest.level1"),
            2 => lazy_obs::span!("test.nest.level2"),
            3 => lazy_obs::span!("test.nest.level3"),
            _ => lazy_obs::span!("test.nest.level4"),
        };
        // A sliver of work so durations are nonzero on coarse clocks.
        std::hint::black_box((0..64).sum::<u64>());
        nest(shape, level + 1);
    }
}

/// (buckets, count, sum) of the invariants histogram in a snapshot.
fn histogram_of(t: &PipelineTelemetry) -> (Vec<u64>, u64, u64) {
    t.histogram("test.invariants.hist")
        .map_or((vec![0; BUCKETS], 0, 0), |h| {
            (h.buckets.clone(), h.count, h.sum)
        })
}

/// Snapshot-level invariants that don't need proptest: merged names,
/// sorted order, span aggregates reconciling with their own histogram.
#[test]
fn snapshot_is_sorted_and_merged() {
    lazy_obs::counter!("test.invariants.sorted_a", 1u64);
    lazy_obs::counter!("test.invariants.sorted_b", 2u64);
    {
        let _g = lazy_obs::span!("test.invariants.span");
    }
    let t = snapshot();
    let names: Vec<&str> = t.counters.iter().map(|c| c.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "counter snapshot must be name-sorted");
    assert!(t.counter("test.invariants.sorted_a") >= 1);
    assert!(t.counter("test.invariants.sorted_b") >= 2);
    let s = t.span("test.invariants.span").expect("span recorded");
    assert!(s.count >= 1);
    assert_eq!(
        s.buckets.iter().sum::<u64>(),
        s.count,
        "span duration buckets must sum to the span count"
    );
    assert!(s.min_ns <= s.max_ns);
    assert!(s.total_ns >= s.max_ns);
}

/// Same counter name at two call sites: the snapshot merges them.
#[test]
fn same_name_sites_merge() {
    lazy_obs::counter!("test.invariants.merged_total", 3u64);
    lazy_obs::counter!("test.invariants.merged_total", 4u64);
    let t = snapshot();
    assert!(
        t.counter("test.invariants.merged_total") >= 7,
        "two sites with one name must aggregate"
    );
    let occurrences = t
        .counters
        .iter()
        .filter(|c| c.name == "test.invariants.merged_total")
        .count();
    assert_eq!(occurrences, 1, "merged name must appear once");
}
