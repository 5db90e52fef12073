//! Aggregated telemetry snapshots and their renderings.
//!
//! Everything in this module is plain data: it compiles identically
//! with the `enabled` feature on or off, so downstream code can embed a
//! [`PipelineTelemetry`] in its result types unconditionally. A
//! disabled build simply produces empty snapshots.

use std::fmt::Write as _;

/// Number of fixed histogram buckets. Bucket `i < BUCKETS - 1` counts
/// observations `<= 2^i` (microseconds for latency histograms); the
/// last bucket is the overflow (`+Inf`) bucket.
pub const BUCKETS: usize = 22;

/// The bucket a value falls into: the smallest `i` with `v <= 2^i`,
/// clamped to the overflow bucket.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    let i = (u64::BITS - (v - 1).leading_zeros()) as usize;
    i.min(BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i`, or `None` for the overflow
/// bucket.
#[must_use]
pub fn bucket_bound(i: usize) -> Option<u64> {
    (i < BUCKETS - 1).then(|| 1u64 << i)
}

/// The inclusive nanosecond range a span duration must lie in to land
/// in microsecond bucket `i` (spans bucket `dur_ns / 1000`).
fn span_bucket_ns(i: usize) -> (u64, u64) {
    let lo = match i.checked_sub(1).and_then(bucket_bound) {
        Some(below) => (below + 1).saturating_mul(1000),
        None => 0,
    };
    let hi = bucket_bound(i).map_or(u64::MAX, |b| b.saturating_mul(1000).saturating_add(999));
    (lo, hi)
}

/// One monotonic counter's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted metric name, e.g. `decode.events_total`.
    pub name: String,
    /// The accumulated value.
    pub value: u64,
}

/// One fixed-bucket histogram at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Per-bucket observation counts (length [`BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations (equals the bucket sum by construction).
    pub count: u64,
}

/// One span site's aggregate at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Dotted span name, e.g. `decode.shard.stitch`.
    pub name: String,
    /// Completed spans.
    pub count: u64,
    /// Total wall time across completed spans, nanoseconds.
    pub total_ns: u64,
    /// Shortest completed span, nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest completed span, nanoseconds.
    pub max_ns: u64,
    /// Duration histogram in microsecond buckets (length [`BUCKETS`]).
    pub buckets: Vec<u64>,
}

/// An aggregated view of every counter, histogram, and span site,
/// merged by name and sorted by name — the pipeline's telemetry
/// snapshot. Obtained from [`crate::snapshot`]; two snapshots can be
/// differenced with [`PipelineTelemetry::since`] to isolate one
/// operation's contribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineTelemetry {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Standalone histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
}

/// The telemetry attachment embedded in pipeline results (e.g.
/// `BatchOutcome`): the delta accumulated over one operation.
pub type TelemetryReport = PipelineTelemetry;

impl PipelineTelemetry {
    /// The named counter's value (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// The named span aggregate, if any spans completed under it.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The delta from `baseline` to `self`: counter values, histogram
    /// buckets, and span counts/totals are subtracted name-wise
    /// (saturating, so a fresh name simply keeps its value). Span
    /// `min_ns`/`max_ns` are not differentiable: a window with no
    /// completed span reports 0 for both, and otherwise each is the
    /// absolute value clamped to the nanosecond range of the window's
    /// lowest (for `min_ns`) or highest (for `max_ns`) non-empty
    /// duration bucket, then kept consistent with the window's count
    /// and total (`min <= mean <= max <= total`; a one-span window
    /// reports its total for both). Entries that did not change still
    /// appear, with zero counts — coverage is visible even for idle
    /// stages.
    #[must_use]
    pub fn since(&self, baseline: &PipelineTelemetry) -> PipelineTelemetry {
        let base_counter = |name: &str| baseline.counter(name);
        let counters = self
            .counters
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name.clone(),
                value: c.value.saturating_sub(base_counter(&c.name)),
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let base = baseline.histogram(&h.name);
                HistogramSnapshot {
                    name: h.name.clone(),
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, b)| {
                            b.saturating_sub(
                                base.map_or(0, |bh| bh.buckets.get(i).copied().unwrap_or(0)),
                            )
                        })
                        .collect(),
                    sum: h.sum.saturating_sub(base.map_or(0, |b| b.sum)),
                    count: h.count.saturating_sub(base.map_or(0, |b| b.count)),
                }
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let base = baseline.span(&s.name);
                let buckets: Vec<u64> = s
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        b.saturating_sub(
                            base.map_or(0, |bs| bs.buckets.get(i).copied().unwrap_or(0)),
                        )
                    })
                    .collect();
                let count = s.count.saturating_sub(base.map_or(0, |b| b.count));
                let total_ns = s.total_ns.saturating_sub(base.map_or(0, |b| b.total_ns));
                let lowest = buckets.iter().position(|&b| b > 0);
                let highest = buckets.iter().rposition(|&b| b > 0);
                let (min_ns, max_ns) = match (lowest, highest) {
                    (Some(lo), Some(hi)) if count > 0 => {
                        let (lo_min, lo_max) = span_bucket_ns(lo);
                        let (hi_min, hi_max) = span_bucket_ns(hi);
                        // Then keep min <= mean <= max <= total, and the
                        // minimum no lower than what the other count - 1
                        // spans, at most `max` each, leave of the total.
                        let mean = total_ns / count;
                        let max = s.max_ns.clamp(hi_min, hi_max).clamp(mean, total_ns);
                        let min = s.min_ns.clamp(lo_min, lo_max).min(mean);
                        let floor = total_ns.saturating_sub((count - 1).saturating_mul(max));
                        (min.max(floor), max)
                    }
                    // No span completed in the window.
                    _ => (0, 0),
                };
                SpanSnapshot {
                    name: s.name.clone(),
                    count,
                    total_ns,
                    min_ns,
                    max_ns,
                    buckets,
                }
            })
            .collect();
        PipelineTelemetry {
            counters,
            histograms,
            spans,
        }
    }

    /// Renders the snapshot as stable, hand-rolled JSON (names sorted;
    /// no external serializer by design).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", c.name, c.value);
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"spans\": {");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"buckets_us\": {} }}",
                s.name,
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                json_buckets(&s.buckets)
            );
        }
        out.push_str(if self.spans.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": {} }}",
                h.name,
                h.count,
                h.sum,
                json_buckets(&h.buckets)
            );
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out.push('\n');
        out
    }

    /// Renders a human-readable table: spans with count/total/mean,
    /// then counters, then histograms.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== pipeline telemetry ===");
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<28}{:>10}{:>14}{:>12}{:>12}",
                "span", "count", "total", "mean", "max"
            );
            for s in &self.spans {
                let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "{:<28}{:>10}{:>14}{:>12}{:>12}",
                    s.name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(mean),
                    fmt_ns(s.max_ns)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<42}{:>12}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(out, "{:<42}{:>12}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "histogram {} — {} observations, sum {}",
                    h.name, h.count, h.sum
                );
                for (i, &b) in h.buckets.iter().enumerate() {
                    if b == 0 {
                        continue;
                    }
                    match bucket_bound(i) {
                        Some(hi) => {
                            let _ = writeln!(out, "  <= {hi:>8}: {b}");
                        }
                        None => {
                            let _ = writeln!(out, "  +Inf      : {b}");
                        }
                    }
                }
            }
        }
        if self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "(no telemetry recorded — built without `lazy-obs/enabled`?)"
            );
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (metric names have dots replaced by underscores; span durations
    /// are exposed as `<name>_duration_microseconds` histograms).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let n = prom_name(&c.name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {}", c.value);
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            prom_buckets(&mut out, &n, &h.buckets);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        for s in &self.spans {
            let n = format!("{}_duration_microseconds", prom_name(&s.name));
            let _ = writeln!(out, "# TYPE {n} histogram");
            prom_buckets(&mut out, &n, &s.buckets);
            let _ = writeln!(out, "{n}_sum {}", s.total_ns / 1_000);
            let _ = writeln!(out, "{n}_count {}", s.count);
        }
        out
    }
}

fn json_buckets(buckets: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, b) in buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{b}");
    }
    out.push(']');
    out
}

fn prom_name(name: &str) -> String {
    name.replace(['.', '-'], "_")
}

/// Writes cumulative `_bucket{le="..."}` lines from per-bucket counts.
fn prom_buckets(out: &mut String, name: &str, buckets: &[u64]) {
    let mut cum = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        cum += b;
        match bucket_bound(i) {
            Some(hi) => {
                let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cum}");
            }
            None => {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            }
        }
    }
}

/// Compact duration formatting for the pretty table.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let mut prev = 0;
        for v in [0u64, 1, 2, 7, 63, 64, 65, 1 << 20, 1 << 40] {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index must be monotone in the value");
            assert!(i < BUCKETS);
            if let Some(hi) = bucket_bound(i) {
                assert!(v <= hi, "value {v} must fit its bucket bound {hi}");
            }
            prev = i;
        }
    }

    #[test]
    fn since_subtracts_namewise() {
        let base = PipelineTelemetry {
            counters: vec![CounterSnapshot {
                name: "a".into(),
                value: 3,
            }],
            histograms: vec![],
            spans: vec![],
        };
        let now = PipelineTelemetry {
            counters: vec![
                CounterSnapshot {
                    name: "a".into(),
                    value: 10,
                },
                CounterSnapshot {
                    name: "b".into(),
                    value: 4,
                },
            ],
            histograms: vec![],
            spans: vec![],
        };
        let d = now.since(&base);
        assert_eq!(d.counter("a"), 7);
        assert_eq!(d.counter("b"), 4);
    }

    fn span(count: u64, total_ns: u64, min_ns: u64, max_ns: u64, durs_ns: &[u64]) -> SpanSnapshot {
        let mut buckets = vec![0; BUCKETS];
        for &d in durs_ns {
            buckets[bucket_index(d / 1000)] += 1;
        }
        SpanSnapshot {
            name: "s".into(),
            count,
            total_ns,
            min_ns,
            max_ns,
            buckets,
        }
    }

    fn with_span(s: SpanSnapshot) -> PipelineTelemetry {
        PipelineTelemetry {
            counters: vec![],
            histograms: vec![],
            spans: vec![s],
        }
    }

    /// Regression: delta windows used to carry the absolute `min_ns` /
    /// `max_ns`, so a window in which the span never ran reported the
    /// lifetime minimum (a 12 ms "minimum" on a count of zero).
    #[test]
    fn since_window_bounds_come_from_delta_buckets() {
        // Lifetime: one 12 ms span and one 300 µs span.
        let base = with_span(span(
            2,
            12_300_000,
            300_000,
            12_000_000,
            &[300_000, 12_000_000],
        ));

        // Nothing ran in the window: both bounds are 0.
        let d = base.since(&base);
        let s = d.span("s").unwrap();
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (0, 0, 0, 0));

        // The window holds a 5 µs and a 40 µs span. The absolute
        // maximum (12 ms) lies far outside the window's highest bucket,
        // (32, 64] µs: it clamps to that bucket, then to the window's
        // 45 µs total.
        let now = with_span(span(
            4,
            12_345_000,
            5_000,
            12_000_000,
            &[300_000, 12_000_000, 5_000, 40_000],
        ));
        let d = now.since(&base);
        let s = d.span("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 45_000);
        assert_eq!(s.min_ns, 5_000, "the true minimum lies inside (4, 8] µs");
        assert_eq!(s.max_ns, 45_000);

        // A window whose lowest bucket sits above the absolute minimum
        // raises the minimum to that bucket's lower edge, (64, 128] µs
        // starting at 65 µs, and the total lifts it further: with at
        // most 110 µs in the other span, the first took 100 µs.
        let base = with_span(span(1, 1_000, 1_000, 1_000, &[1_000]));
        let now = with_span(span(3, 211_000, 1_000, 110_000, &[1_000, 100_000, 110_000]));
        let s = now.since(&base).span("s").cloned().unwrap();
        assert_eq!((s.count, s.total_ns), (2, 210_000));
        assert_eq!((s.min_ns, s.max_ns), (100_000, 110_000));

        // One span in the window: both bounds are its duration.
        let now = with_span(span(2, 101_000, 1_000, 100_000, &[1_000, 100_000]));
        let s = now.since(&base).span("s").cloned().unwrap();
        assert_eq!((s.count, s.min_ns, s.max_ns), (1, 100_000, 100_000));

        // The overflow bucket has no upper edge: the absolute maximum
        // stands.
        let huge = 10_000_000_000_000;
        let s = with_span(span(1, huge, huge, huge, &[huge]))
            .since(&PipelineTelemetry::default())
            .span("s")
            .cloned()
            .unwrap();
        assert_eq!((s.min_ns, s.max_ns), (huge, huge));
    }

    #[test]
    fn renders_are_wellformed_on_empty() {
        let t = PipelineTelemetry::default();
        assert!(t.to_json().contains("\"counters\""));
        assert!(t.render_pretty().contains("telemetry"));
        assert_eq!(t.render_prometheus(), "");
    }
}
