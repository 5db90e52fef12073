//! The disabled build: every type is zero-sized, every method an
//! `#[inline(always)]` empty body, every macro expansion a no-op the
//! optimizer deletes outright. The API surface is kept identical to
//! [`crate::site`] so instrumentation sites compile unchanged either
//! way — the compiled-to-nothing property is asserted by
//! `tests/disabled.rs` (ZST checks) and by CI's
//! `--no-default-features` test pass.

use crate::report::PipelineTelemetry;

/// A monotonic counter (no-op build: zero-sized, never counts).
pub struct Counter(());

impl Counter {
    /// A fresh counter (carries nothing).
    #[must_use]
    pub const fn new(_name: &'static str) -> Counter {
        Counter(())
    }

    /// No-op.
    #[inline(always)]
    pub fn add(&'static self, _n: u64) {}

    /// Always 0.
    #[must_use]
    pub fn get(&self) -> u64 {
        0
    }
}

/// A fixed-bucket histogram (no-op build: zero-sized, never observes).
pub struct Histogram(());

impl Histogram {
    /// A fresh histogram (carries nothing).
    #[must_use]
    pub const fn new(_name: &'static str) -> Histogram {
        Histogram(())
    }

    /// No-op.
    #[inline(always)]
    pub fn observe(&'static self, _v: u64) {}

    /// Always 0.
    #[must_use]
    pub fn count(&self) -> u64 {
        0
    }
}

/// A span site (no-op build: zero-sized).
pub struct SpanSite(());

impl SpanSite {
    /// A fresh site (carries nothing).
    #[must_use]
    pub const fn new(_name: &'static str) -> SpanSite {
        SpanSite(())
    }

    /// Returns a guard that does nothing and has no `Drop`.
    #[inline(always)]
    #[must_use]
    pub fn enter(&'static self) -> SpanGuard {
        SpanGuard(())
    }

    /// Always 0.
    #[must_use]
    pub fn count(&self) -> u64 {
        0
    }
}

/// Span guard (no-op build: zero-sized, no `Drop` impl, so holding one
/// costs literally nothing).
pub struct SpanGuard(());

impl SpanGuard {
    /// Closes the span before its scope ends (a no-op here).
    #[inline(always)]
    pub fn end(self) {}
}

/// Always the empty snapshot.
#[must_use]
pub fn snapshot() -> PipelineTelemetry {
    PipelineTelemetry::default()
}
