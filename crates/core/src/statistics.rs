//! Statistical diagnosis (step 7 of the pipeline).
//!
//! Scores every candidate pattern by the F1 measure over the collected
//! traces (§4.5): *precision* is the fraction of pattern-bearing traces
//! that actually failed, *recall* the fraction of failing traces that
//! bear the pattern. A pattern that appears in every failing trace and
//! no successful one scores F1 = 1 and is, with the paper's evidence,
//! the root cause. Successful traces are what separate the true root
//! cause from benign patterns that occur in every execution.
//!
//! ## Mergeable sufficient statistics
//!
//! The F1 computation needs only *counts* — per-pattern fail/success
//! support plus the failing/successful trace totals — never the traces
//! themselves. [`PatternStats`] captures exactly those counts, and its
//! [`merge`](PatternStats::merge) is associative, commutative, and has
//! [`PatternStats::empty`] as identity (the algebraic-law proptest
//! suite in `crates/core/tests/merge_laws.rs` pins this). That algebra
//! is what makes fleet-scale diagnosis possible: every shard runs
//! [`PatternStats::collect`] over the traces *it* holds, ships the
//! counts (never the raw traces), and the coordinator's merge +
//! [`finalize`](PatternStats::finalize) is bit-identical to scoring
//! the union corpus on one node. The classic single-node entry point
//! [`score_patterns`] is re-expressed as collect-then-finalize over
//! one "shard" holding everything.

use crate::patterns::{pattern_present, BugPattern};
use crate::processing::ProcessedTrace;
use lazy_ir::Pc;
use std::collections::{BTreeMap, HashMap};

/// Type rank assumed for a pattern PC that the candidate ranking did
/// not cover (rank 1 = exact operand-type match, 2 = the conservative
/// default). One named constant shared by every ranking site — the
/// shard-side [`PatternStats::collect`] and any finalize-side consumer
/// — so the default cannot drift between them.
pub const DEFAULT_TYPE_RANK: u32 = 2;

/// A pattern with its statistical score.
#[derive(Clone, Debug)]
pub struct PatternScore {
    /// The pattern.
    pub pattern: BugPattern,
    /// The pattern's type rank: the worst (highest) type-based rank of
    /// its events (1 = every event's operand type matches the failing
    /// operand's).
    pub type_rank: u32,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// |present ∧ failing| / |present|.
    pub precision: f64,
    /// |present ∧ failing| / |failing|.
    pub recall: f64,
    /// Failing traces bearing the pattern.
    pub fail_support: usize,
    /// Successful traces bearing the pattern.
    pub success_support: usize,
}

/// One pattern's sufficient statistics: its supports plus the §4.3
/// type-rank tie-break input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternCounts {
    /// Worst type rank across the pattern's events.
    pub type_rank: u32,
    /// Failing traces bearing the pattern.
    pub fail_support: usize,
    /// Successful traces bearing the pattern.
    pub success_support: usize,
}

/// Mergeable sufficient statistics for a set of candidate patterns
/// over a (possibly sharded) trace corpus.
///
/// The merge operation forms a commutative monoid: for any stats `a`,
/// `b`, `c` built over the *same* candidate pattern set,
///
/// * `merge(a, b) == merge(b, a)` (commutativity),
/// * `merge(merge(a, b), c) == merge(a, merge(b, c))` (associativity),
/// * `merge(a, empty()) == a` (identity),
///
/// and for any partition of a trace corpus into shards, merging the
/// per-shard [`collect`](PatternStats::collect) results equals
/// collecting over the whole corpus at once. `finalize` is therefore
/// invariant under sharding — the contract behind
/// [`crate::fleet::FleetRouter`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PatternStats {
    /// Per-pattern counts, keyed canonically (`BTreeMap` so iteration
    /// order — and thus every downstream computation — is deterministic
    /// regardless of merge order).
    per_pattern: BTreeMap<BugPattern, PatternCounts>,
    /// Failing traces counted into the supports.
    failing_traces: usize,
    /// Successful traces counted into the supports.
    successful_traces: usize,
}

impl PatternStats {
    /// The merge identity: no patterns, no traces.
    pub fn empty() -> PatternStats {
        PatternStats::default()
    }

    /// Collects sufficient statistics for `patterns` over one shard's
    /// failing and successful traces. Duplicate patterns in the input
    /// collapse to one entry (their counts are identical by
    /// construction).
    ///
    /// `rank_of` maps candidate PCs to their type-based rank; missing
    /// PCs default to [`DEFAULT_TYPE_RANK`].
    pub fn collect<T: std::borrow::Borrow<ProcessedTrace>>(
        patterns: &[BugPattern],
        failing: &[T],
        successful: &[T],
        rank_of: &HashMap<Pc, u32>,
    ) -> PatternStats {
        let mut per_pattern = BTreeMap::new();
        for p in patterns {
            let type_rank = p
                .pcs()
                .iter()
                .map(|pc| rank_of.get(pc).copied().unwrap_or(DEFAULT_TYPE_RANK))
                .max()
                .unwrap_or(DEFAULT_TYPE_RANK);
            let fail_support = failing
                .iter()
                .filter(|t| pattern_present(p, (*t).borrow()))
                .count();
            let success_support = successful
                .iter()
                .filter(|t| pattern_present(p, (*t).borrow()))
                .count();
            per_pattern.insert(
                p.clone(),
                PatternCounts {
                    type_rank,
                    fail_support,
                    success_support,
                },
            );
        }
        PatternStats {
            per_pattern,
            failing_traces: failing.len(),
            successful_traces: successful.len(),
        }
    }

    /// Folds another shard's statistics into this one: supports and
    /// trace totals add; a pattern's type rank takes the minimum (the
    /// better rank) — shards ranking against the same global candidate
    /// set always agree, so this is a no-op there, and `min` keeps the
    /// operation associative and commutative even for foreign inputs.
    pub fn merge(&mut self, other: &PatternStats) {
        self.failing_traces += other.failing_traces;
        self.successful_traces += other.successful_traces;
        for (p, c) in &other.per_pattern {
            match self.per_pattern.get_mut(p) {
                Some(mine) => {
                    mine.fail_support += c.fail_support;
                    mine.success_support += c.success_support;
                    mine.type_rank = mine.type_rank.min(c.type_rank);
                }
                None => {
                    self.per_pattern.insert(p.clone(), *c);
                }
            }
        }
    }

    /// Turns the accumulated counts into scored patterns, sorted
    /// best-first: by descending F1, then ascending type rank (the §4.3
    /// heuristic: exact-type patterns are likelier root causes), then
    /// descending specificity, then deterministic pattern order.
    pub fn finalize(&self) -> Vec<PatternScore> {
        let mut out: Vec<PatternScore> = self
            .per_pattern
            .iter()
            .map(|(p, c)| {
                let predicted = c.fail_support + c.success_support;
                let precision = if predicted == 0 {
                    0.0
                } else {
                    c.fail_support as f64 / predicted as f64
                };
                let recall = if self.failing_traces == 0 {
                    0.0
                } else {
                    c.fail_support as f64 / self.failing_traces as f64
                };
                let f1 = if precision + recall == 0.0 {
                    0.0
                } else {
                    2.0 * precision * recall / (precision + recall)
                };
                PatternScore {
                    pattern: p.clone(),
                    type_rank: c.type_rank,
                    f1,
                    precision,
                    recall,
                    fail_support: c.fail_support,
                    success_support: c.success_support,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            // Equal F1 scores are broken first by type rank (the §4.3
            // heuristic), then toward the more *specific* pattern (more
            // correlated events): an atomicity triple that ties with its
            // embedded order pair explains strictly more of the failing
            // interleaving. `total_cmp` keeps the comparator a total
            // order even if a NaN ever slips into a score —
            // `partial_cmp + unwrap_or(Equal)` silently broke
            // transitivity there, making the ranking nondeterministic.
            b.f1.total_cmp(&a.f1)
                .then_with(|| a.type_rank.cmp(&b.type_rank))
                .then_with(|| b.pattern.pcs().len().cmp(&a.pattern.pcs().len()))
                .then_with(|| a.pattern.cmp(&b.pattern))
        });
        out
    }

    /// Failing traces counted into these statistics.
    pub fn failing_traces(&self) -> usize {
        self.failing_traces
    }

    /// Successful traces counted into these statistics.
    pub fn successful_traces(&self) -> usize {
        self.successful_traces
    }

    /// Number of distinct patterns tracked.
    pub fn len(&self) -> usize {
        self.per_pattern.len()
    }

    /// `true` when no patterns are tracked.
    pub fn is_empty(&self) -> bool {
        self.per_pattern.is_empty()
    }

    /// Iterates the per-pattern counts in canonical order (the wire
    /// codec in [`crate::fleet`] serializes exactly this view).
    pub fn entries(&self) -> impl Iterator<Item = (&BugPattern, &PatternCounts)> {
        self.per_pattern.iter()
    }

    /// Rebuilds statistics from decoded parts (the wire codec's
    /// inverse of [`PatternStats::entries`]). A duplicated pattern keeps
    /// the last entry, mirroring `BTreeMap` insertion.
    pub fn from_parts(
        entries: Vec<(BugPattern, PatternCounts)>,
        failing_traces: usize,
        successful_traces: usize,
    ) -> PatternStats {
        PatternStats {
            per_pattern: entries.into_iter().collect(),
            failing_traces,
            successful_traces,
        }
    }
}

/// How many of the sorted `scores` tie with the best on the full
/// (F1, type rank, specificity) key — the `top_patterns` pipeline stat.
/// Shared by the single-node and fleet paths so the two cannot drift.
pub fn top_pattern_count(scores: &[PatternScore]) -> usize {
    match scores.first() {
        Some(t) => scores
            .iter()
            .filter(|s| {
                (s.f1 - t.f1).abs() < 1e-12
                    && s.type_rank == t.type_rank
                    && s.pattern.pcs().len() == t.pattern.pcs().len()
            })
            .count(),
        None => 0,
    }
}

/// Scores `patterns` over failing and successful traces, returning them
/// sorted best-first — collect-then-finalize over one shard holding
/// every trace. Duplicate input patterns collapse to one score.
///
/// `rank_of` maps candidate PCs to their type-based rank (missing PCs
/// default to [`DEFAULT_TYPE_RANK`]).
pub fn score_patterns<T: std::borrow::Borrow<ProcessedTrace>>(
    patterns: &[BugPattern],
    failing: &[T],
    successful: &[T],
    rank_of: &HashMap<Pc, u32>,
) -> Vec<PatternScore> {
    PatternStats::collect(patterns, failing, successful, rank_of).finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{AccessKind, PatternEvent};
    use crate::processing::DynInstance;
    use lazy_ir::Pc;
    use lazy_trace::TimeBounds;
    use std::collections::HashMap;

    fn trace_with(instances: Vec<(u64, Vec<DynInstance>)>) -> ProcessedTrace {
        ProcessedTrace::from_instances(
            0,
            Pc(0),
            1_000_000,
            instances
                .into_iter()
                .flat_map(|(pc, is)| is.into_iter().map(move |i| (Pc(pc), i))),
        )
    }

    /// An instance; `from_instances` derives its resume bound.
    fn inst(tid: u32, seq: usize, lo: u64, hi: u64) -> DynInstance {
        DynInstance {
            tid,
            seq,
            time: TimeBounds { lo, hi },
            resume: 0,
        }
    }

    fn wr_pattern() -> BugPattern {
        BugPattern::OrderViolation {
            first: PatternEvent {
                pc: Pc(100),
                kind: AccessKind::Write,
            },
            second: PatternEvent {
                pc: Pc(200),
                kind: AccessKind::Read,
            },
        }
    }

    /// Bad-order trace (pattern present).
    fn bad_trace() -> ProcessedTrace {
        trace_with(vec![
            (100, vec![inst(1, 0, 0, 10)]),
            (200, vec![inst(2, 0, 50, 60)]),
        ])
    }

    /// Good-order trace (pattern absent).
    fn good_trace() -> ProcessedTrace {
        trace_with(vec![
            (100, vec![inst(1, 0, 50, 60)]),
            (200, vec![inst(2, 0, 0, 10)]),
        ])
    }

    #[test]
    fn perfect_pattern_scores_one() {
        let failing = vec![bad_trace()];
        let successful = vec![good_trace(), good_trace(), good_trace()];
        let scores = score_patterns(&[wr_pattern()], &failing, &successful, &HashMap::new());
        assert_eq!(scores.len(), 1);
        assert!((scores[0].f1 - 1.0).abs() < 1e-9, "{}", scores[0].f1);
        assert_eq!(scores[0].fail_support, 1);
        assert_eq!(scores[0].success_support, 0);
    }

    #[test]
    fn ubiquitous_pattern_scores_low_precision() {
        // Pattern present in the failing trace AND all successful ones.
        let failing = vec![bad_trace()];
        let successful = vec![bad_trace(), bad_trace(), bad_trace()];
        let scores = score_patterns(&[wr_pattern()], &failing, &successful, &HashMap::new());
        assert!((scores[0].precision - 0.25).abs() < 1e-9);
        assert!((scores[0].recall - 1.0).abs() < 1e-9);
        assert!(scores[0].f1 < 0.5);
    }

    #[test]
    fn absent_pattern_scores_zero() {
        let failing = vec![good_trace()];
        let successful = vec![good_trace()];
        let scores = score_patterns(&[wr_pattern()], &failing, &successful, &HashMap::new());
        assert_eq!(scores[0].f1, 0.0);
    }

    #[test]
    fn sorting_puts_best_first() {
        let good = wr_pattern();
        let decoy = BugPattern::OrderViolation {
            first: PatternEvent {
                pc: Pc(200),
                kind: AccessKind::Read,
            },
            second: PatternEvent {
                pc: Pc(100),
                kind: AccessKind::Write,
            },
        };
        // decoy (R before W) is present in the GOOD traces.
        let failing = vec![bad_trace()];
        let successful = vec![good_trace(), good_trace()];
        let scores = score_patterns(
            &[decoy, good.clone()],
            &failing,
            &successful,
            &HashMap::new(),
        );
        assert_eq!(scores[0].pattern, good);
        assert!(scores[0].f1 > scores[1].f1);
    }

    /// Regression: with zero failing traces (or a zero-support pattern)
    /// every ratio has a zero denominator. The scores must be defined
    /// as 0.0 — NaN would make the ranking comparator non-transitive
    /// and the output order nondeterministic.
    #[test]
    fn zero_failing_traces_score_zero_not_nan() {
        let failing: Vec<ProcessedTrace> = vec![];
        let successful = vec![good_trace()];
        let scores = score_patterns(&[wr_pattern()], &failing, &successful, &HashMap::new());
        assert_eq!(scores.len(), 1);
        let s = &scores[0];
        for (name, v) in [
            ("precision", s.precision),
            ("recall", s.recall),
            ("f1", s.f1),
        ] {
            assert!(!v.is_nan(), "{name} is NaN");
            assert_eq!(v, 0.0, "{name}");
        }
        // No traces at all: zero support on both sides, still finite.
        let scores = score_patterns::<ProcessedTrace>(&[wr_pattern()], &[], &[], &HashMap::new());
        assert_eq!(scores[0].f1, 0.0);
        assert_eq!(scores[0].precision, 0.0);
        assert_eq!(scores[0].recall, 0.0);
    }

    #[test]
    fn multiple_failing_traces_increase_recall_confidence() {
        let failing = vec![bad_trace(), bad_trace(), good_trace()];
        let successful = vec![good_trace()];
        let scores = score_patterns(&[wr_pattern()], &failing, &successful, &HashMap::new());
        assert!((scores[0].recall - 2.0 / 3.0).abs() < 1e-9);
        assert!((scores[0].precision - 1.0).abs() < 1e-9);
    }

    /// Splitting the corpus across two shards and merging their
    /// collected statistics scores identically to single-node scoring —
    /// the smallest instance of the law the proptest suite generalizes.
    #[test]
    fn two_shard_merge_matches_single_node() {
        let patterns = [wr_pattern()];
        let failing = vec![bad_trace(), bad_trace(), good_trace()];
        let successful = vec![good_trace(), bad_trace()];
        let rank_of = HashMap::new();

        let mut merged =
            PatternStats::collect(&patterns, &failing[..1], &successful[..1], &rank_of);
        merged.merge(&PatternStats::collect(
            &patterns,
            &failing[1..],
            &successful[1..],
            &rank_of,
        ));
        let whole = PatternStats::collect(&patterns, &failing, &successful, &rank_of);
        assert_eq!(merged, whole);

        let a = merged.finalize();
        let b = score_patterns(&patterns, &failing, &successful, &rank_of);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pattern, y.pattern);
            assert_eq!(x.f1.to_bits(), y.f1.to_bits(), "bit-identical F1");
            assert_eq!(x.fail_support, y.fail_support);
            assert_eq!(x.success_support, y.success_support);
        }
    }

    #[test]
    fn merge_identity_and_top_count() {
        let patterns = [wr_pattern()];
        let failing = vec![bad_trace()];
        let successful = vec![good_trace()];
        let stats = PatternStats::collect(&patterns, &failing, &successful, &HashMap::new());
        let mut with_identity = stats.clone();
        with_identity.merge(&PatternStats::empty());
        assert_eq!(with_identity, stats);
        let mut from_identity = PatternStats::empty();
        from_identity.merge(&stats);
        assert_eq!(from_identity, stats);
        assert_eq!(top_pattern_count(&stats.finalize()), 1);
        assert_eq!(top_pattern_count(&[]), 0);
    }
}
