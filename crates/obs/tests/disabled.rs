//! The zero-cost contract of the disabled build: with
//! `--no-default-features`, every instrumentation primitive is a ZST,
//! span guards have no destructor, and a program full of
//! instrumentation records nothing. CI runs this suite via
//! `cargo test -p lazy-obs --no-default-features`.
#![cfg(not(feature = "enabled"))]

use lazy_obs::{snapshot, Counter, Histogram, SpanGuard, SpanSite};

#[test]
fn every_primitive_is_zero_sized() {
    assert_eq!(std::mem::size_of::<Counter>(), 0);
    assert_eq!(std::mem::size_of::<Histogram>(), 0);
    assert_eq!(std::mem::size_of::<SpanSite>(), 0);
    assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
    assert!(
        !std::mem::needs_drop::<SpanGuard>(),
        "a disabled span guard must not even have a destructor"
    );
}

#[test]
fn instrumentation_sites_record_nothing() {
    for i in 0..100u64 {
        let _g = lazy_obs::span!("disabled.span");
        lazy_obs::counter!("disabled.counter_total", i);
        lazy_obs::histogram!("disabled.hist", i * 3);
    }
    let t = snapshot();
    assert!(t.counters.is_empty());
    assert!(t.histograms.is_empty());
    assert!(t.spans.is_empty());
    assert_eq!(t.counter("disabled.counter_total"), 0);
    // The report renderers still work on the empty snapshot, so a
    // disabled binary can keep its --telemetry flag wired up.
    assert!(t.to_json().contains("\"counters\""));
    assert!(t.render_pretty().contains("no telemetry recorded"));
    assert_eq!(t.render_prometheus(), "");
}
