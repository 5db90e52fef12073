#![warn(missing_docs)]
// Telemetry must never panic the pipeline it observes.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lazy-obs — pipeline observability with a production cost budget
//!
//! Snorlax diagnoses *in-production* failures at <1% overhead; its own
//! diagnosis pipeline deserves telemetry held to the same discipline.
//! This crate provides the three primitives the pipeline is
//! instrumented with, all zero-dependency and feature-gated:
//!
//! * [`span!`] — an RAII wall-time span. Each call site owns one static
//!   [`SpanSite`]; closing a span updates only the site's lock-free
//!   aggregates (count, total, min, max, a fixed-bucket microsecond
//!   duration histogram). No lock is taken on the hot path and nothing
//!   is kept per thread.
//! * [`counter!`] — a monotonic [`Counter`] (one relaxed `fetch_add`).
//! * [`histogram!`] — a fixed-bucket [`Histogram`] with power-of-two
//!   bounds ([`report::bucket_bound`]), so bucket math is a
//!   leading-zeros instruction, not a search.
//!
//! [`snapshot`] aggregates every touched site into a
//! [`PipelineTelemetry`], which renders as hand-rolled JSON
//! ([`PipelineTelemetry::to_json`]), a human table
//! ([`PipelineTelemetry::render_pretty`]), or the Prometheus text
//! exposition format ([`PipelineTelemetry::render_prometheus`] /
//! [`render_prometheus`]). Two snapshots difference with
//! [`PipelineTelemetry::since`] to isolate one operation (this is how
//! `BatchOutcome` embeds its per-batch [`TelemetryReport`]).
//!
//! ## The `enabled` feature
//!
//! With `--no-default-features` every type in this crate becomes a ZST
//! and every method an empty `#[inline(always)]` body — instrumentation
//! sites compile to nothing, guards have no `Drop`, and [`snapshot`]
//! returns an empty [`PipelineTelemetry`]. Downstream crates therefore
//! never need `cfg` at a call site; the single `lazy-obs/enabled`
//! feature is the global telemetry switch.

pub mod report;

#[cfg(feature = "enabled")]
mod site;
#[cfg(feature = "enabled")]
pub use site::{snapshot, Counter, Histogram, SpanGuard, SpanSite};

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::{snapshot, Counter, Histogram, SpanGuard, SpanSite};

pub use report::{
    CounterSnapshot, HistogramSnapshot, PipelineTelemetry, SpanSnapshot, TelemetryReport, BUCKETS,
};

/// Renders the current global telemetry in the Prometheus text
/// exposition format — the scrape endpoint's body.
#[must_use]
pub fn render_prometheus() -> String {
    snapshot().render_prometheus()
}

/// Opens a wall-time span tied to this call site; returns a guard that
/// records on drop.
///
/// ```
/// let _g = lazy_obs::span!("decode.shard");
/// // ... the work being measured ...
/// _g.end(); // or let it fall out of scope
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __OBS_SPAN_SITE: $crate::SpanSite = $crate::SpanSite::new($name);
        __OBS_SPAN_SITE.enter()
    }};
}

/// Adds to a monotonic counter tied to this call site.
///
/// ```
/// lazy_obs::counter!("decode.events_total", 128usize);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        static __OBS_COUNTER: $crate::Counter = $crate::Counter::new($name);
        #[allow(
            clippy::cast_lossless,
            clippy::cast_possible_truncation,
            clippy::unnecessary_cast
        )]
        __OBS_COUNTER.add(($n) as u64);
    }};
}

/// Records one observation in a fixed-bucket histogram tied to this
/// call site.
///
/// ```
/// lazy_obs::histogram!("batch.job_micros", 1500u128);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {{
        static __OBS_HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        #[allow(
            clippy::cast_lossless,
            clippy::cast_possible_truncation,
            clippy::unnecessary_cast
        )]
        __OBS_HISTOGRAM.observe(($v) as u64);
    }};
}
