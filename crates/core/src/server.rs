//! The diagnosis server: orchestrates pipeline steps 2–7.
//!
//! The server receives trace snapshots from clients — one (or more) from
//! failing executions, plus up to 10× as many from successful
//! executions collected at the failure PC — and runs the full Lazy
//! Diagnosis pipeline. The paper's headline properties hold by
//! construction here: the analysis is a function of the *trace* size,
//! not the program size (hybrid points-to is scoped to executed code),
//! and a single failure is enough to produce a diagnosis (no sampling).

use crate::candidates::{select_candidates_in, CandidateSet};
use crate::error::DiagnosisError;
use crate::multivar::multivar_patterns_in;
use crate::patterns::{crash_patterns, deadlock_patterns, BugPattern, PatternContext};
use crate::processing::{process_snapshot_view, ProcessedTrace};
use crate::statistics::{score_patterns, top_pattern_count, PatternScore};
use lazy_analysis::{CacheStats, PointsTo, PointsToCache};
use lazy_ir::{Cfg, Module, Pc};
use lazy_trace::{fan_out, ExecIndex, SnapshotView, TraceConfig, TraceSnapshot, WalkTable};
use lazy_vm::{Failure, FailureKind};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Server-side configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Trace decode configuration (must match the clients').
    pub trace: TraceConfig,
    /// Cap on successful traces used, as a multiple of failing traces
    /// (the paper empirically fixes 10×, §5).
    pub success_factor: usize,
    /// Cap on ranked candidates carried into pattern computation.
    pub max_candidates: usize,
    /// Worker threads for snapshot decode (steps 2–3): snapshots of one
    /// report decode concurrently, each snapshot's threads too, and
    /// large thread streams additionally use PSB-sharded decode. `0`
    /// means one per idle core, resolved at each of those fan-outs
    /// (`lazy_trace::resolve_workers`), so a loaded daemon decodes
    /// inline. `n > 0` gives each of them `n` workers; `1` decodes
    /// sequentially. The result is bit-identical regardless of the
    /// setting.
    pub decode_workers: usize,
    /// Daemon session stores (`StreamHub`, `FleetShard`): sessions idle
    /// longer than this are evicted on the next admission or sweep, so
    /// an abandoned client cannot permanently occupy a capacity slot.
    pub session_ttl: std::time::Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            trace: TraceConfig::default(),
            success_factor: 10,
            max_candidates: 128,
            decode_workers: 0,
            session_ttl: std::time::Duration::from_secs(300),
        }
    }
}

/// Per-stage instruction counts, the measure behind the paper's
/// Figure 7 (each stage's contribution to accuracy is its reduction of
/// the instruction population the next stage must consider) and
/// Table 4 (analysis time).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    /// Static instructions in the module.
    pub static_insts: usize,
    /// Distinct instructions executed per the traces (after step 2).
    pub executed_insts: usize,
    /// Executed instructions with pointer operands (points-to
    /// population).
    pub pointer_insts: usize,
    /// Candidates after hybrid points-to aliasing (step 4).
    pub candidates: usize,
    /// Candidates with rank 1 after type ranking (step 5).
    pub rank1_candidates: usize,
    /// Patterns generated (step 6).
    pub patterns: usize,
    /// Patterns with the top F1 (step 7).
    pub top_patterns: usize,
    /// Total decoded events across every trace this diagnosis used
    /// (failing + retained successful). Batch jobs sharing a snapshot
    /// each count the shared trace's events here, so summing
    /// across jobs can exceed the decoder's own per-snapshot totals by
    /// exactly the dedup hits.
    pub events_total: usize,
    /// Server-side analysis wall time, microseconds (total; the
    /// per-stage fields below sum to roughly this).
    pub analysis_micros: u128,
    /// Snapshot decode + trace processing time (steps 2–3).
    pub decode_micros: u128,
    /// Scoped points-to analysis time (step 4). For batch jobs served
    /// from the incremental cache this includes lock wait.
    pub points_to_micros: u128,
    /// Candidate/pattern/scoring time (steps 4–7 after points-to).
    pub pattern_micros: u128,
    /// Packet-level resynchronizations across every decoded snapshot
    /// (failing + successful) — nonzero when ring buffers wrapped
    /// mid-packet or packets were lost.
    pub decode_resyncs: u32,
    /// `CYC` timing deltas dropped for want of a time anchor across
    /// every decoded snapshot — time silently lost at wrapped-buffer
    /// heads.
    pub cyc_dropped: u64,
    /// Duplicated `MTC` coarse-counter bytes ignored across every
    /// decoded snapshot — repeated packets (after corruption or a PSB
    /// splice) that would otherwise have advanced virtual time by a
    /// spurious 256-tick wrap each.
    pub mtc_dups: u64,
}

/// The server's verdict for one failure.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// All scored patterns, best first.
    pub scores: Vec<PatternScore>,
    /// Stage statistics.
    pub stats: PipelineStats,
    /// The effective failing access the pipeline keyed on.
    pub failing_pc: Pc,
    /// Whether the deadlock path was taken.
    pub is_deadlock: bool,
    /// The root-cause pattern's instructions ordered by their observed
    /// execution time in the failing trace (events the failure
    /// pre-empted come last). This is `O_S` for the A_O metric.
    pub ordered_events: Vec<Pc>,
}

/// Human-readable label for the `i`-th party of a rendered pattern:
/// `A`..`Z` for the first 26, then `T26`, `T27`, … — deadlock cycles
/// are unbounded in party count, so the label must be too.
fn thread_label(i: usize) -> String {
    if i < 26 {
        char::from(b'A' + i as u8).to_string()
    } else {
        format!("T{i}")
    }
}

impl Diagnosis {
    /// The top-scoring pattern, if any pattern scored above zero.
    pub fn root_cause(&self) -> Option<&PatternScore> {
        self.scores.first().filter(|s| s.f1 > 0.0)
    }

    /// The diagnosed target instructions in observed execution order
    /// (for the A_O accuracy metric).
    pub fn diagnosed_order(&self) -> Vec<Pc> {
        self.ordered_events.clone()
    }

    /// Returns `true` if the diagnosis fell back to unordered target
    /// reporting (the coarse interleaving hypothesis did not hold).
    pub fn is_unordered_fallback(&self) -> bool {
        matches!(
            self.root_cause().map(|s| &s.pattern),
            Some(BugPattern::UnorderedTargets { .. })
        )
    }

    /// Renders a human-readable report.
    pub fn render(&self, module: &Module) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== Lazy Diagnosis report ===");
        let _ = writeln!(
            out,
            "failing access: {}",
            module.describe_pc(self.failing_pc)
        );
        let _ = writeln!(
            out,
            "pipeline: {} static -> {} executed -> {} candidates -> {} rank-1 -> {} patterns",
            self.stats.static_insts,
            self.stats.executed_insts,
            self.stats.candidates,
            self.stats.rank1_candidates,
            self.stats.patterns
        );
        match self.root_cause() {
            Some(top) => {
                let _ = writeln!(
                    out,
                    "root cause [{}] F1={:.3} (precision {:.3}, recall {:.3}):",
                    top.pattern.signature(),
                    top.f1,
                    top.precision,
                    top.recall
                );
                match &top.pattern {
                    BugPattern::Deadlock { edges } => {
                        for (i, e) in edges.iter().enumerate() {
                            let _ = writeln!(out, "  thread {}:", thread_label(i));
                            let _ = writeln!(out, "    holds  {}", module.describe_pc(e.hold_pc));
                            let _ = writeln!(out, "    wants  {}", module.describe_pc(e.want_pc));
                        }
                    }
                    _ => {
                        for pc in top.pattern.pcs() {
                            let _ = writeln!(out, "  {}", module.describe_pc(pc));
                        }
                    }
                }
                // Runner-up patterns, for the developer's context.
                let runners: Vec<&PatternScore> = self
                    .scores
                    .iter()
                    .skip(1)
                    .take(3)
                    .filter(|s| s.f1 > 0.0)
                    .collect();
                if !runners.is_empty() {
                    let _ = writeln!(out, "runners-up:");
                    for r in runners {
                        let _ = writeln!(
                            out,
                            "  [{}] F1={:.3} over {:?}",
                            r.pattern.signature(),
                            r.f1,
                            r.pattern.pcs()
                        );
                    }
                }
            }
            None => {
                let _ = writeln!(out, "no pattern correlated with the failure");
            }
        }
        out
    }
}

/// The diagnosis server for one module.
pub struct DiagnosisServer<'m> {
    module: &'m Module,
    /// The module's decode tables, shared by every server
    /// [`DiagnosisServer::share`] makes from this one.
    tables: Arc<DecodeTables>,
    cfg: ServerConfig,
}

/// The read-only tables steps 2–3 decode against, built once per
/// module: a daemon's workers, its fleet shard and its stream hub all
/// read one copy.
struct DecodeTables {
    index: ExecIndex,
    /// Cross-job compiled walk table: built lazily at the first decode
    /// (or by a fleet shard or stream hub at start-up), then shared
    /// read-only by every subsequent job, fan-out worker, and fleet
    /// round.
    walk_table: OnceLock<WalkTable>,
}

impl<'m> DiagnosisServer<'m> {
    /// Creates a server for `module` ("the bitcode file used by the
    /// server-side analysis", §5).
    pub fn new(module: &'m Module, cfg: ServerConfig) -> DiagnosisServer<'m> {
        DiagnosisServer {
            module,
            tables: Arc::new(DecodeTables {
                index: ExecIndex::build(module),
                walk_table: OnceLock::new(),
            }),
            cfg,
        }
    }

    /// Another server for the same module and configuration that reads
    /// this server's decode tables instead of building its own.
    pub(crate) fn share(&self) -> DiagnosisServer<'m> {
        DiagnosisServer {
            module: self.module,
            tables: Arc::clone(&self.tables),
            cfg: self.cfg.clone(),
        }
    }

    /// The module this server diagnoses.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The server's configuration (streaming folds read the sequential
    /// test and reservoir knobs from here).
    pub(crate) fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The server's compiled [`WalkTable`], building (and caching) it
    /// on first use. Fleet shards call this at construction to move the
    /// one-time build cost out of round-1 latency.
    pub(crate) fn walk_table(&self) -> &WalkTable {
        self.tables
            .walk_table
            .get_or_init(|| WalkTable::build(self.module))
    }

    /// Decodes and processes one snapshot (steps 2–3).
    ///
    /// # Errors
    ///
    /// Propagates decode failures as [`DiagnosisError`].
    pub fn process(&self, snapshot: &TraceSnapshot) -> Result<ProcessedTrace, DiagnosisError> {
        process_snapshot_view(
            self.module,
            &self.tables.index,
            Some(self.walk_table()),
            &self.cfg.trace,
            &snapshot.view(),
            self.cfg.decode_workers,
        )
    }

    /// The breakpoint PCs a client should try, in order, to capture
    /// successful traces for a failure at `failing_pc`: the failure PC
    /// itself, then the first instruction of each predecessor basic
    /// block by increasing distance (§4.1's fallback).
    pub fn breakpoint_plan(&self, failing_pc: Pc) -> Vec<Pc> {
        let mut plan = vec![failing_pc];
        if let Some(loc) = self.module.loc_of_pc(failing_pc) {
            let func = self.module.func(loc.func);
            let cfg = Cfg::build(func);
            for b in cfg.predecessor_walk(loc.block) {
                // An empty predecessor block has no PC to break on.
                if let Some(first) = func.block(b).insts.first() {
                    plan.push(first.pc);
                }
            }
        }
        plan
    }

    /// Runs the full pipeline (steps 2–7) over already-collected
    /// snapshots.
    ///
    /// # Errors
    ///
    /// Fails with the error of the first failing snapshot that does not
    /// decode, or with [`DiagnosisError::EmptyReport`] when `failing` is
    /// empty. Successful snapshots that do not decode are skipped.
    pub fn diagnose(
        &self,
        failure: &Failure,
        failing: &[TraceSnapshot],
        successful: &[TraceSnapshot],
    ) -> Result<Diagnosis, DiagnosisError> {
        let failing: Vec<SnapshotView<'_>> = failing.iter().map(TraceSnapshot::view).collect();
        let successful: Vec<SnapshotView<'_>> =
            successful.iter().map(TraceSnapshot::view).collect();
        self.diagnose_views(failure, &failing, &successful)
    }

    /// [`DiagnosisServer::diagnose`] over borrowed [`SnapshotView`]s —
    /// the zero-copy ingest path. The daemon hands request payloads
    /// straight from its connection read buffers through here; trace
    /// bytes are never copied between the socket and the decoder.
    ///
    /// # Errors
    ///
    /// Same contract as [`DiagnosisServer::diagnose`].
    pub fn diagnose_views(
        &self,
        failure: &Failure,
        failing: &[SnapshotView<'_>],
        successful: &[SnapshotView<'_>],
    ) -> Result<Diagnosis, DiagnosisError> {
        let _span = lazy_obs::span!("diagnose.job");
        let successful = self.capped_successes(failing, successful)?;
        let started = Instant::now();
        let (failing_traces, success_traces) = self.prepare_traces(failing, successful)?;
        let times = StageTimes {
            decode_micros: started.elapsed().as_micros(),
            started: Instant::now(),
        };
        let diagnosis = self.analyze(failure, &failing_traces, &success_traces, None, times);
        lazy_obs::histogram!("diagnose.analysis_us", diagnosis.stats.analysis_micros);
        Ok(diagnosis)
    }

    /// The successful snapshots a report uses: the first
    /// `success_factor` per failing snapshot.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::EmptyReport`] when `failing` is empty: there is
    /// nothing to diagnose, so nothing of the report is decoded.
    pub(crate) fn capped_successes<'s, T>(
        &self,
        failing: &[T],
        successful: &'s [T],
    ) -> Result<&'s [T], DiagnosisError> {
        if failing.is_empty() {
            return Err(DiagnosisError::EmptyReport);
        }
        let cap = self.cfg.success_factor * failing.len();
        Ok(&successful[..successful.len().min(cap)])
    }

    /// Steps 2–3 over snapshots the caller has already capped: a
    /// report (`diagnose`), one fleet shard's partition, or one
    /// streamed report. The fleet coordinator applies the global
    /// success cap *before* routing (a per-shard cap would depend on
    /// the shard count and break byte-identity with single-node), a
    /// stream caps its retained corpus at every rescore, and a shard
    /// may legitimately hold zero failing traces when there are fewer
    /// failing reports than shards — so neither the cap nor the
    /// `EmptyReport` check applies here.
    ///
    /// # Errors
    ///
    /// The first failing snapshot's decode failure. Success-side decode
    /// failures are skipped, mirroring a production server that cannot
    /// hold up a diagnosis for one corrupt success trace.
    pub(crate) fn prepare_traces(
        &self,
        failing: &[SnapshotView<'_>],
        successful: &[SnapshotView<'_>],
    ) -> Result<Prepared, DiagnosisError> {
        let snapshots: Vec<&SnapshotView<'_>> = failing.iter().chain(successful).collect();
        let mut results = self.process_all(&snapshots).into_iter();
        let failing_traces = results
            .by_ref()
            .take(failing.len())
            .collect::<Result<Vec<_>, _>>()?;
        let success_traces: Vec<Arc<ProcessedTrace>> = results.filter_map(Result::ok).collect();
        Ok((failing_traces, success_traces))
    }

    /// Steps 2–3 for each of `snapshots`, index-aligned. Snapshots are
    /// processed concurrently under the server's decode budget (`0`:
    /// the idle cores), and each snapshot's threads decode
    /// concurrently too ([`process_snapshot_view`]), resolving their
    /// own budget once the snapshot helpers count as busy; aggregation
    /// order is fixed, so every result is bit-identical to sequential
    /// processing. A panicking snapshot is a
    /// [`DiagnosisError::WorkerPanic`] at its own index only.
    pub(crate) fn process_all(&self, snapshots: &[&SnapshotView<'_>]) -> Vec<Processed> {
        let workers = self.cfg.decode_workers;
        // Build the walk table before fanning out: get_or_init inside
        // the workers would serialize their first decodes on it.
        let table = Some(self.walk_table());
        fan_out(snapshots, workers, |s| {
            process_snapshot_view(
                self.module,
                &self.tables.index,
                table,
                &self.cfg.trace,
                s,
                workers,
            )
            .map(Arc::new)
        })
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| Err(DiagnosisError::from_panic("process", p))))
        .collect()
    }

    /// Step 2's executed set: the union of `traces`' executed
    /// instructions, yielded in ascending PC order into any collection.
    /// It is built on a bitmap over the module's dense PC slots, so a
    /// PC costs one bit per trace and one insert into the result, never
    /// a hash per trace. The traces come from [`process_snapshot_view`]
    /// against this server's module, which places every executed PC.
    /// The union is step 4's scope, timed as `pointsto.scope`.
    pub(crate) fn executed_union<'t, C: FromIterator<Pc>>(
        &self,
        traces: impl IntoIterator<Item = &'t Arc<ProcessedTrace>>,
    ) -> C {
        let _span = lazy_obs::span!("pointsto.scope");
        let module = self.module;
        let mut bits = vec![0u64; module.pc_slot_count().div_ceil(64)];
        for t in traces {
            for slot in t.executed.iter().filter_map(|&pc| module.pc_slot(pc)) {
                bits[slot / 64] |= 1 << (slot % 64);
            }
        }
        let placed: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut pcs = Vec::with_capacity(placed);
        for (w, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                pcs.push(Module::slot_pc(w * 64 + rest.trailing_zeros() as usize));
                rest &= rest - 1;
            }
        }
        // An exact-size source, so a set collects without rehashing.
        pcs.into_iter().collect()
    }

    /// Step 4: hybrid (scope-restricted) points-to analysis over
    /// `executed` — through the shared `cache` when one is given, from
    /// scratch otherwise. Either way the result is the scope's unique
    /// least fixpoint, so the choice changes timing, never a diagnosis.
    ///
    /// The poison rule: a cache whose lock is poisoned may hold state a
    /// panicked solve left half-written, so it is never solved from.
    /// The solve falls back to scratch and the fallback is counted.
    ///
    /// `executed` is ascending ([`DiagnosisServer::executed_union`]),
    /// and the cache keys its solutions by the same ascending list.
    fn points_to(&self, executed: &[Pc], cache: Option<&SharedCache>) -> PointsTo {
        if let Some(shared) = cache {
            match shared.cache.lock() {
                Ok(mut cache) => return cache.analyze_sorted_scope(self.module, executed),
                Err(_) => {
                    shared.poison_fallbacks.fetch_add(1, Ordering::Relaxed);
                    lazy_obs::counter!("pointsto.cache.poison_fallbacks_total", 1u64);
                }
            }
        }
        PointsTo::analyze_sorted_scope(self.module, executed)
    }

    /// Steps 4–6 against an executed-instruction scope: points-to,
    /// candidate selection with type ranking and truncation, then the
    /// bug patterns of every failing trace, sorted and deduplicated.
    /// A fleet shard runs exactly this in round 2, against the global
    /// executed set and its warm cache.
    pub(crate) fn patterns(
        &self,
        failure: &Failure,
        failing_traces: &[Arc<ProcessedTrace>],
        executed: &[Pc],
        cache: Option<&SharedCache>,
    ) -> PatternSet {
        let pts_started = Instant::now();
        let pts = self.points_to(executed, cache);
        let points_to_micros = pts_started.elapsed().as_micros();

        // Steps 4–5: candidate selection + type ranking.
        let deadlock = is_deadlock(failure);
        let rank_span = lazy_obs::span!("rank.candidates");
        let mut cands = select_candidates_in(self.module, &pts, executed, failure.pc, deadlock);
        cands.ranked.truncate(self.cfg.max_candidates);
        rank_span.end();
        lazy_obs::counter!("rank.candidates_total", cands.ranked.len());
        lazy_obs::counter!("rank.rank1_total", cands.rank1_count());

        // Step 6: bug-pattern computation on each failing trace (plus
        // the multi-variable extension for crashes feeding from a
        // variable pair — the paper's §7 future work).
        let patterns_span = lazy_obs::span!("patterns.compute");
        let ctx = PatternContext::new(self.module, &pts, &cands);
        let mut patterns: Vec<BugPattern> = Vec::new();
        for t in failing_traces {
            if deadlock {
                patterns.extend(deadlock_patterns(&ctx, &cands, t));
            } else {
                patterns.extend(crash_patterns(&ctx, &cands, t));
                patterns.extend(multivar_patterns_in(
                    self.module,
                    &pts,
                    executed,
                    failure.pc,
                    t,
                    &cands,
                ));
            }
        }
        patterns.sort();
        patterns.dedup();
        // The points-to result is step 4–6's working state: free it
        // inside the stage that last reads it.
        drop(ctx);
        drop(pts);
        patterns_span.end();
        lazy_obs::counter!("patterns.generated_total", patterns.len());
        PatternSet {
            cands,
            patterns,
            points_to_micros,
        }
    }

    /// Steps 4–7 over decoded traces: the one staged pipeline behind
    /// `diagnose`, every batch job, and a stream's per-fold rescore and
    /// final render. The points-to scope is the traces' executed set.
    pub(crate) fn analyze(
        &self,
        failure: &Failure,
        failing_traces: &[Arc<ProcessedTrace>],
        success_traces: &[Arc<ProcessedTrace>],
        cache: Option<&SharedCache>,
        times: StageTimes,
    ) -> Diagnosis {
        let all_traces = || failing_traces.iter().chain(success_traces);
        let executed: Vec<Pc> = self.executed_union(all_traces());
        let steps_started = Instant::now();
        let found = self.patterns(failure, failing_traces, &executed, cache);

        // Step 7: statistical diagnosis (with the §4.3 type ranks as
        // the tie-break).
        let stats_span = lazy_obs::span!("stats.score");
        let scores = score_patterns(
            &found.patterns,
            failing_traces,
            success_traces,
            &found.rank_of(),
        );
        let top_patterns = top_pattern_count(&scores);
        stats_span.end();
        lazy_obs::counter!("stats.patterns_scored_total", scores.len());

        // Order the root cause's events by observed time in the first
        // failing trace (never-executed late events sort last).
        let ordered_events = match (
            scores.first().filter(|s| s.f1 > 0.0),
            failing_traces.first(),
        ) {
            (Some(top), Some(t0)) => ordered_events_for(top, |pc| t0.last_time(pc)),
            _ => Vec::new(),
        };

        let cands = &found.cands;
        let stats = PipelineStats {
            static_insts: self.module.inst_count(),
            executed_insts: executed.len(),
            pointer_insts: cands.pointer_insts_executed,
            candidates: cands.ranked.len(),
            rank1_candidates: cands.rank1_count(),
            patterns: found.patterns.len(),
            top_patterns: if found.patterns.is_empty() {
                0
            } else {
                top_patterns
            },
            events_total: all_traces().map(|t| t.event_count).sum(),
            analysis_micros: times.decode_micros + times.started.elapsed().as_micros(),
            decode_micros: times.decode_micros,
            points_to_micros: found.points_to_micros,
            pattern_micros: steps_started
                .elapsed()
                .as_micros()
                .saturating_sub(found.points_to_micros),
            decode_resyncs: all_traces().map(|t| t.resyncs).sum(),
            cyc_dropped: all_traces().map(|t| t.cyc_dropped).sum(),
            mtc_dups: all_traces().map(|t| t.mtc_dups).sum(),
        };
        Diagnosis {
            scores,
            stats,
            failing_pc: cands.failing_pc,
            is_deadlock: is_deadlock(failure),
            ordered_events,
        }
    }
}

/// Whether `failure` takes the deadlock path (lock-cycle patterns over
/// lock candidates) rather than the crash path.
pub(crate) fn is_deadlock(failure: &Failure) -> bool {
    matches!(
        failure.kind,
        FailureKind::Deadlock { .. } | FailureKind::Hang
    )
}

/// Steps 4–6's result for one failure: the ranked candidates and the
/// sorted, deduplicated patterns of its failing traces.
pub(crate) struct PatternSet {
    /// Ranked candidates after truncation.
    pub(crate) cands: CandidateSet,
    /// Every failing trace's patterns, sorted and deduplicated.
    pub(crate) patterns: Vec<BugPattern>,
    /// Microseconds step 4 (points-to) took.
    pub(crate) points_to_micros: u128,
}

impl PatternSet {
    /// Candidate PC → type rank: step 7's tie-break input.
    pub(crate) fn rank_of(&self) -> HashMap<Pc, u32> {
        self.cands.ranked.iter().map(|r| (r.pc, r.rank)).collect()
    }
}

/// A [`PointsToCache`] shared by many diagnoses (the jobs of one batch,
/// every session of a fleet shard), with the count of solves that the
/// poison rule of step 4 (`DiagnosisServer::points_to`) sent to
/// scratch.
pub(crate) struct SharedCache {
    cache: Mutex<PointsToCache>,
    poison_fallbacks: AtomicUsize,
}

impl SharedCache {
    /// An empty cache retaining up to `capacity` solved scopes.
    pub(crate) fn with_capacity(capacity: usize) -> SharedCache {
        SharedCache {
            cache: Mutex::new(PointsToCache::with_capacity(capacity)),
            poison_fallbacks: AtomicUsize::new(0),
        }
    }

    /// The cache's lookup counters. Reading counters from a poisoned
    /// cache is safe: only solving from it is not.
    pub(crate) fn stats(&self) -> CacheStats {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Solves that found the cache poisoned and ran from scratch.
    pub(crate) fn poison_fallbacks(&self) -> usize {
        self.poison_fallbacks.load(Ordering::Relaxed)
    }
}

/// Orders the root-cause pattern's instructions by observed execution
/// time: `time_of` maps a PC to its last observed `time.lo` in the
/// reference failing trace (`None` when the failure pre-empted the
/// event, which sorts last). Consecutive duplicates collapse first so a
/// pattern revisiting a PC reports it once per visit site, and ties
/// keep pattern order. Shared verbatim by the in-process path and the
/// fleet coordinator (which receives `time_of` over the wire) — the
/// `O_S` ordering must not depend on where the trace lives.
pub(crate) fn ordered_events_for(
    top: &PatternScore,
    time_of: impl Fn(Pc) -> Option<u64>,
) -> Vec<Pc> {
    let mut pcs: Vec<Pc> = top.pattern.pcs();
    pcs.dedup();
    let mut keyed: Vec<(u64, usize, Pc)> = pcs
        .into_iter()
        .enumerate()
        .map(|(i, pc)| (time_of(pc).unwrap_or(u64::MAX), i, pc))
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, _, pc)| pc).collect()
}

/// Decoded failing traces and decoded successful traces — the output
/// of [`DiagnosisServer::prepare_traces`]. Traces are `Arc`-shared so
/// the jobs of a batch can read one decode of a snapshot they share.
pub(crate) type Prepared = (Vec<Arc<ProcessedTrace>>, Vec<Arc<ProcessedTrace>>);

/// One snapshot's decode+processing outcome, `Arc`-shared for reuse.
pub(crate) type Processed = Result<Arc<ProcessedTrace>, DiagnosisError>;

/// Wall-clock bookkeeping threaded from the pipeline's front half into
/// [`DiagnosisServer::analyze`].
pub(crate) struct StageTimes {
    /// When steps 4–7 started.
    pub(crate) started: Instant,
    /// Microseconds spent in steps 2–3 before that; the diagnosis'
    /// total is this plus steps 4–7.
    pub(crate) decode_micros: u128,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_ir::{ModuleBuilder, Operand, Type};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn breakpoint_plan_walks_predecessors() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        let mid = f.block("mid");
        let tail = f.block("tail");
        f.switch_to(e);
        f.br(mid);
        f.switch_to(mid);
        f.br(tail);
        f.switch_to(tail);
        let g = f.copy(Operand::const_int(0));
        let _ = g;
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let server = DiagnosisServer::new(&m, ServerConfig::default());
        let halt_pc = m
            .all_insts()
            .find(|(i, _)| matches!(i.kind, lazy_ir::InstKind::Halt))
            .map(|(i, _)| i.pc)
            .unwrap();
        let plan = server.breakpoint_plan(halt_pc);
        assert_eq!(plan[0], halt_pc);
        assert!(plan.len() >= 3, "predecessor blocks included: {plan:?}");
    }

    /// The poison rule: once a solve panics while holding the shared
    /// cache, later solves never read the cache's state again — they
    /// run from scratch, agree with a scratch solve, and are counted.
    #[test]
    fn poisoned_shared_cache_falls_back_to_scratch() {
        let mut mb = ModuleBuilder::new("m");
        let ga = mb.global("a", Type::I64, vec![0]);
        let gb = mb.global("b", Type::I64, vec![0]);
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        f.store(ga.clone(), Operand::const_int(1), Type::I64);
        f.store(gb, Operand::const_int(2), Type::I64);
        let _ = f.load(ga, Type::I64);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let server = DiagnosisServer::new(&m, ServerConfig::default());
        let executed: Vec<Pc> = m.all_insts().map(|(i, _)| i.pc).collect();
        let scratch = PointsTo::analyze_sorted_scope(&m, &executed);
        let same_as_scratch = |pts: &PointsTo| {
            m.all_insts().all(|(i, _)| {
                pts.pts_of_pointer_at(&m, i.pc) == scratch.pts_of_pointer_at(&m, i.pc)
            })
        };

        let cache = SharedCache::with_capacity(4);
        assert!(same_as_scratch(&server.points_to(&executed, Some(&cache))));
        assert_eq!(cache.stats().lookups, 1);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _held = cache.cache.lock();
            panic!("a solve dies holding the cache");
        }));
        assert!(cache.cache.is_poisoned());

        assert!(same_as_scratch(&server.points_to(&executed, Some(&cache))));
        assert_eq!(cache.poison_fallbacks(), 1);
        assert_eq!(
            cache.stats().lookups,
            1,
            "the poisoned cache is never solved from"
        );
    }

    /// Regression: deadlock rendering used `(b'A' + i) as char`, which
    /// prints punctuation past party 25 and overflows `u8` (a debug
    /// panic) past ~57 parties. Labels must stay readable and total:
    /// `A`..`Z`, then `T26`, `T27`, ….
    #[test]
    fn render_labels_more_than_26_deadlock_parties() {
        use crate::patterns::DeadlockEdge;

        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Type::Void);
        let e = f.entry();
        f.switch_to(e);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();

        let parties = 60usize;
        let edges: Vec<DeadlockEdge> = (0..parties)
            .map(|i| DeadlockEdge {
                hold_pc: Pc(0x1000 + i as u64),
                want_pc: Pc(0x2000 + i as u64),
            })
            .collect();
        let d = Diagnosis {
            scores: vec![PatternScore {
                pattern: BugPattern::Deadlock { edges },
                type_rank: 1,
                f1: 1.0,
                precision: 1.0,
                recall: 1.0,
                fail_support: 1,
                success_support: 0,
            }],
            stats: PipelineStats::default(),
            failing_pc: Pc(0x1000),
            is_deadlock: true,
            ordered_events: Vec::new(),
        };
        let report = d.render(&m);
        assert!(report.contains("  thread A:"), "first party keeps A");
        assert!(report.contains("  thread Z:"), "party 25 keeps Z");
        assert!(report.contains("  thread T26:"), "party 26 is T26");
        assert!(
            report.contains(&format!("  thread T{}:", parties - 1)),
            "last party labeled numerically"
        );
        // Nothing outside the ASCII printable range leaked in.
        assert!(report
            .chars()
            .all(|c| c == '\n' || (' '..='~').contains(&c)));
    }
}
