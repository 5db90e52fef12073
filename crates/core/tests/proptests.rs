//! Property-based tests of the diagnosis metrics: Kendall-tau ordering
//! accuracy and F1 scoring invariants.

use lazy_ir::Pc;
use lazy_snorlax::patterns::{AccessKind, BugPattern, PatternEvent};
use lazy_snorlax::processing::{DynInstance, ProcessedTrace};
use lazy_snorlax::statistics::score_patterns;
use lazy_snorlax::{kendall_tau_distance, ordering_accuracy};
use lazy_trace::TimeBounds;
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_pc_list() -> impl Strategy<Value = Vec<Pc>> {
    prop::collection::hash_set(0u64..24, 0..10)
        .prop_flat_map(|set| Just(set.into_iter().map(Pc).collect::<Vec<_>>()).prop_shuffle())
}

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

proptest! {
    /// A_O is 100 for identical lists, symmetric-ish bounds hold, and
    /// the result is always within [0, 100].
    #[test]
    fn ordering_accuracy_bounds(a in arb_pc_list(), b in arb_pc_list()) {
        let acc = ordering_accuracy(&a, &b);
        prop_assert!((0.0..=100.0).contains(&acc), "{acc}");
        prop_assert_eq!(ordering_accuracy(&a, &a), 100.0);
        prop_assert_eq!(
            kendall_tau_distance(&a, &b),
            kendall_tau_distance(&b, &a)
        );
    }

    /// Reversing a list of n >= 2 distinct elements gives the maximum
    /// distance over common pairs.
    #[test]
    fn reversal_is_maximal(a in arb_pc_list()) {
        prop_assume!(a.len() >= 2);
        let mut rev = a.clone();
        rev.reverse();
        let n = a.len();
        prop_assert_eq!(kendall_tau_distance(&a, &rev), n * (n - 1) / 2);
    }

    /// F1/precision/recall are bounded and consistent for arbitrary
    /// traces and patterns.
    #[test]
    fn scores_are_bounded(
        failing in prop::collection::vec(arb_trace(), 0..4),
        successful in prop::collection::vec(arb_trace(), 0..6),
        first_pc in 0u64..6,
        second_pc in 0u64..6,
    ) {
        let pattern = BugPattern::OrderViolation {
            first: PatternEvent { pc: Pc(first_pc), kind: AccessKind::Write },
            second: PatternEvent { pc: Pc(second_pc), kind: AccessKind::Read },
        };
        let scores = score_patterns(&[pattern], &failing, &successful, &HashMap::new());
        let s = &scores[0];
        prop_assert!((0.0..=1.0).contains(&s.f1));
        prop_assert!((0.0..=1.0).contains(&s.precision));
        prop_assert!((0.0..=1.0).contains(&s.recall));
        prop_assert!(s.fail_support <= failing.len());
        prop_assert!(s.success_support <= successful.len());
        // F1 is zero iff precision or recall is zero.
        prop_assert_eq!(s.f1 == 0.0, s.precision == 0.0 || s.recall == 0.0);
    }
}
