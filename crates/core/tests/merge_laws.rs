//! Property tests for the algebra behind fleet-sharded diagnosis:
//! ([`PatternStats`], `merge`, `empty`) is a commutative monoid, and
//! `collect` distributes over *any* partition of the trace corpus —
//! merging per-shard statistics yields exactly the single-node
//! statistics, which is what makes the sharded pipeline provably
//! byte-identical to a single server (finalize consumes only these
//! integer counts, so identical inputs give bit-identical floats).

use lazy_ir::Pc;
use lazy_snorlax::patterns::{AccessKind, AtomKind, BugPattern, PatternEvent};
use lazy_snorlax::processing::{DynInstance, ProcessedTrace};
use lazy_snorlax::statistics::{PatternCounts, PatternStats};
use lazy_trace::TimeBounds;
use proptest::prelude::*;
use std::collections::HashMap;

fn event(pc: u64, write: bool) -> PatternEvent {
    PatternEvent {
        pc: Pc(pc),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    }
}

/// Patterns drawn from a small key space so that independently
/// generated statistics overlap — the interesting merge cases are
/// shared keys, not disjoint unions.
fn arb_pattern() -> impl Strategy<Value = BugPattern> {
    prop_oneof![
        (0u64..6, any::<bool>(), 0u64..6, any::<bool>()).prop_map(|(a, aw, b, bw)| {
            BugPattern::OrderViolation {
                first: event(a, aw),
                second: event(b, bw),
            }
        }),
        (0u64..6, 0u64..6, 0u64..6, 0u8..4).prop_map(|(a, b, c, k)| {
            let kind = match k {
                0 => AtomKind::Rwr,
                1 => AtomKind::Wwr,
                2 => AtomKind::Rww,
                _ => AtomKind::Wrw,
            };
            let (fw, tw) = match kind {
                AtomKind::Rwr => (false, false),
                AtomKind::Wwr => (true, false),
                AtomKind::Rww => (false, true),
                AtomKind::Wrw => (true, true),
            };
            BugPattern::AtomicityViolation {
                kind,
                first: event(a, fw),
                second: event(b, !matches!(kind, AtomKind::Wrw)),
                third: event(c, tw),
            }
        }),
    ]
}

/// Arbitrary statistics built directly from parts: entries over the
/// shared pattern key space plus trace totals.
fn arb_stats() -> impl Strategy<Value = PatternStats> {
    (
        prop::collection::vec((arb_pattern(), 1u32..5, 0usize..8, 0usize..8), 0..8),
        0usize..8,
        0usize..16,
    )
        .prop_map(|(entries, failing, successful)| {
            PatternStats::from_parts(
                entries
                    .into_iter()
                    .map(|(p, rank, fail, success)| {
                        (
                            p,
                            PatternCounts {
                                type_rank: rank,
                                fail_support: fail,
                                success_support: success,
                            },
                        )
                    })
                    .collect(),
                failing,
                successful,
            )
        })
}

fn merged(a: &PatternStats, b: &PatternStats) -> PatternStats {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Same trace constructor as `proptests.rs`: a bag of dynamic
/// instances keyed by (pc, tid, seq, t_lo, t_span).
fn trace_from(instances: Vec<(u64, u32, usize, u64, u64)>) -> ProcessedTrace {
    ProcessedTrace::from_instances(
        0,
        Pc(0),
        u64::MAX,
        instances.into_iter().map(|(pc, tid, seq, lo, hi)| {
            let time = TimeBounds { lo, hi: lo + hi };
            let resume = 0;
            (
                Pc(pc),
                DynInstance {
                    tid,
                    seq,
                    time,
                    resume,
                },
            )
        }),
    )
}

fn arb_trace() -> impl Strategy<Value = ProcessedTrace> {
    prop::collection::vec(
        (0u64..6, 0u32..3, 0usize..12, 0u64..10_000, 1u64..500),
        0..16,
    )
    .prop_map(trace_from)
}

/// Splits `traces` into `n` shards by each trace's assignment label.
fn split<'a>(
    traces: &'a [ProcessedTrace],
    labels: &[usize],
    n: usize,
) -> Vec<Vec<&'a ProcessedTrace>> {
    let mut shards: Vec<Vec<&ProcessedTrace>> = vec![Vec::new(); n];
    for (t, &l) in traces.iter().zip(labels) {
        shards[l % n].push(t);
    }
    shards
}

proptest! {
    /// merge is commutative: a ⊕ b == b ⊕ a.
    #[test]
    fn merge_is_commutative(a in arb_stats(), b in arb_stats()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_is_associative(a in arb_stats(), b in arb_stats(), c in arb_stats()) {
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    /// empty is a two-sided identity: a ⊕ 0 == 0 ⊕ a == a.
    #[test]
    fn empty_is_identity(a in arb_stats()) {
        prop_assert_eq!(merged(&a, &PatternStats::empty()), a.clone());
        prop_assert_eq!(merged(&PatternStats::empty(), &a), a.clone());
    }

    /// The fleet theorem: for ANY partition of the failing and
    /// successful corpora across n shards, merging the per-shard
    /// collects equals collecting the whole corpus on one node — and
    /// the finalized scores are bit-identical floats.
    #[test]
    fn merge_of_partition_equals_whole(
        patterns in prop::collection::vec(arb_pattern(), 0..6),
        failing in prop::collection::vec(arb_trace(), 0..5),
        successful in prop::collection::vec(arb_trace(), 0..8),
        fail_labels in prop::collection::vec(0usize..4, 5),
        succ_labels in prop::collection::vec(0usize..4, 8),
        ranks in prop::collection::vec((0u64..6, 1u32..4), 0..6),
        n in 1usize..4,
    ) {
        let rank_of: HashMap<Pc, u32> =
            ranks.into_iter().map(|(pc, r)| (Pc(pc), r)).collect();
        let whole = PatternStats::collect(&patterns, &failing, &successful, &rank_of);

        let fail_shards = split(&failing, &fail_labels, n);
        let succ_shards = split(&successful, &succ_labels, n);
        let mut fleet = PatternStats::empty();
        for (f, s) in fail_shards.iter().zip(&succ_shards) {
            fleet.merge(&PatternStats::collect(&patterns, f, s, &rank_of));
        }

        prop_assert_eq!(&fleet, &whole);
        let (a, b) = (fleet.finalize(), whole.finalize());
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.pattern, &y.pattern);
            prop_assert_eq!(x.f1.to_bits(), y.f1.to_bits());
            prop_assert_eq!(x.precision.to_bits(), y.precision.to_bits());
            prop_assert_eq!(x.recall.to_bits(), y.recall.to_bits());
        }
    }
}
