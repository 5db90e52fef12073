//! Batched multi-snapshot diagnosis.
//!
//! A production fleet does not report failures one at a time: when a
//! concurrency bug ships, the server receives *many* snapshots of the
//! same failure (plus their success corpora) in bursts. This module
//! adds a batch front end to [`DiagnosisServer`] that
//!
//! 1. decodes each distinct snapshot the jobs read once (steps 2–3):
//!    jobs scored against the same breakpoints carry the same success
//!    corpus, so the batch first groups its snapshot references by a
//!    structural key confirmed by full equality, then decodes the
//!    distinct ones on one [`lazy_trace::fan_out`] and `Arc`-shares
//!    each trace with every job that reads it;
//! 2. fans the per-job steps 4–7 — scoped points-to, pattern
//!    computation and scoring — across worker threads (the calling
//!    thread is one of them; the VM stays single-threaded, only the
//!    server parallelizes), and
//! 3. shares one [`PointsToCache`] across all jobs, so snapshots with
//!    identical executed sets hit a solved fixpoint outright and
//!    superset scopes are solved by replaying only their delta.
//!
//! **Determinism**: results come back indexed by job, decoding is a
//! pure function of a snapshot's bytes, each job's steps 4–7 are
//! self-contained, and cached points-to returns the same unique least
//! fixpoint a from-scratch solve produces — so a batch diagnosis
//! renders byte-identical to running [`DiagnosisServer::diagnose`]
//! sequentially on each job (the corpus regression test in
//! `tests/batch.rs` asserts exactly this). Only the timing fields of
//! [`PipelineStats`](crate::PipelineStats) differ.

use crate::error::DiagnosisError;
use crate::server::{DiagnosisServer, Processed, SharedCache, StageTimes};
use crate::Diagnosis;
use lazy_analysis::{CacheStats, PointsToCache};
use lazy_trace::{fan_out, resolve_workers, SnapshotView, TraceSnapshot};
use lazy_vm::Failure;
use std::ops::Range;
use std::time::Instant;

/// One diagnosis request: a failure with its collected snapshots.
#[derive(Clone, Copy)]
pub struct BatchJob<'a> {
    /// The failure the client observed.
    pub failure: &'a Failure,
    /// Snapshots from failing executions (at least one must decode).
    pub failing: &'a [TraceSnapshot],
    /// Snapshots from successful executions at the failure breakpoint.
    pub successful: &'a [TraceSnapshot],
}

/// [`BatchJob`] over borrowed snapshot views — the zero-copy ingest
/// shape. The daemon builds these directly over a request payload
/// still sitting in the connection's read buffer; per-thread trace
/// bytes are never copied. The `Failure` is owned because the view
/// path decodes it from the wire (it is a few words, not trace bytes).
#[derive(Clone)]
pub struct BatchJobView<'a> {
    /// The failure the client observed.
    pub failure: Failure,
    /// Snapshot views from failing executions.
    pub failing: Vec<SnapshotView<'a>>,
    /// Snapshot views from successful executions.
    pub successful: Vec<SnapshotView<'a>>,
}

/// Batch execution knobs.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads for the jobs' steps 4–7; `0` means one per idle
    /// core (`lazy_trace::resolve_workers`), so a batch served by a
    /// busy daemon runs its jobs on the cores nobody else holds. The
    /// decode pass runs under the server's own
    /// [`decode_workers`](crate::ServerConfig::decode_workers).
    pub workers: usize,
    /// Share an incremental points-to cache across jobs. Off, every
    /// job solves its scope from scratch (still in parallel).
    pub use_cache: bool,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 0,
            use_cache: true,
        }
    }
}

impl BatchConfig {
    fn resolved_workers(&self, jobs: usize) -> usize {
        resolve_workers(self.workers).clamp(1, jobs.max(1))
    }
}

/// What one [`DiagnosisServer::diagnose_batch`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Threads that ran jobs, the calling thread included (the fan-out
    /// spawns one fewer).
    pub workers: usize,
    /// Batch wall time, microseconds.
    pub wall_micros: u128,
    /// Shared points-to cache counters (zeroes when the cache is off).
    pub cache: CacheStats,
    /// Snapshot references the batch did not decode again: the jobs'
    /// references (failing plus capped successful snapshots) minus the
    /// distinct snapshots among them. Each distinct snapshot decodes
    /// once and its trace is `Arc`-shared by every job that reads it.
    pub snapshot_dedup_hits: usize,
    /// Jobs that returned an error (corrupt snapshot, decode failure,
    /// worker panic — any [`DiagnosisError`]). The rest of the batch is
    /// unaffected.
    pub failed_jobs: usize,
    /// The subset of `failed_jobs` that failed because a pipeline
    /// worker panicked (rather than a typed input rejection).
    pub panicked_jobs: usize,
    /// Jobs that found the shared points-to cache poisoned and solved
    /// their scope from scratch instead. The fixpoint is identical, so
    /// only the job's points-to timing degrades.
    pub cache_poison_fallbacks: usize,
}

/// The diagnoses of one batch, in job order.
pub struct BatchOutcome {
    /// Per-job results, index-aligned with the submitted jobs. A failed
    /// job carries its [`DiagnosisError`]; it never fails the batch.
    pub diagnoses: Vec<Result<Diagnosis, DiagnosisError>>,
    /// Execution counters.
    pub stats: BatchStats,
    /// Telemetry delta covering this batch: every counter, histogram
    /// and span the pipeline recorded between batch start and batch
    /// end. Empty (but well-formed) when the `telemetry` feature is
    /// off, so consumers need no `cfg`.
    pub telemetry: lazy_obs::TelemetryReport,
}

impl<'m> DiagnosisServer<'m> {
    /// Diagnoses a batch of failure reports against this server's
    /// module, fanning jobs across worker threads and (optionally)
    /// sharing an incremental points-to cache between them.
    ///
    /// Each returned diagnosis is identical — up to timing counters —
    /// to what [`DiagnosisServer::diagnose`] returns for the same job.
    pub fn diagnose_batch<'a>(&self, jobs: &[BatchJob<'a>], cfg: &BatchConfig) -> BatchOutcome {
        let views: Vec<BatchJobView<'a>> = jobs
            .iter()
            .map(|j| BatchJobView {
                failure: j.failure.clone(),
                failing: j.failing.iter().map(TraceSnapshot::view).collect(),
                successful: j.successful.iter().map(TraceSnapshot::view).collect(),
            })
            .collect();
        self.diagnose_batch_views(&views, cfg)
    }

    /// [`DiagnosisServer::diagnose_batch`] over [`BatchJobView`]s — the
    /// zero-copy ingest path the daemon feeds from its connection read
    /// buffers. Semantics (dedup, fan-out, shared cache, degradation)
    /// are identical to the owned entry point.
    pub fn diagnose_batch_views<'a>(
        &self,
        jobs: &[BatchJobView<'a>],
        cfg: &BatchConfig,
    ) -> BatchOutcome {
        let started = Instant::now();
        let telemetry_baseline = lazy_obs::snapshot();
        let batch_span = lazy_obs::span!("batch.run");
        lazy_obs::counter!("batch.jobs_total", jobs.len());
        let workers = cfg.resolved_workers(jobs.len());
        let cache = cfg
            .use_cache
            .then(|| SharedCache::with_capacity(PointsToCache::DEFAULT_CAPACITY));

        // Steps 2–3 once per distinct snapshot the jobs read. A job with
        // no failing snapshot reads nothing: it fails with EmptyReport,
        // as `diagnose` does, before anything of it decodes.
        let decode_started = Instant::now();
        let mut reads: Vec<&SnapshotView<'a>> = Vec::new();
        let planned: Vec<PlannedJob<'_>> = jobs
            .iter()
            .map(|job| PlannedJob {
                failure: &job.failure,
                reads: self
                    .capped_successes(&job.failing, &job.successful)
                    .map(|successful| {
                        let start = reads.len();
                        reads.extend(&job.failing);
                        let mid = reads.len();
                        reads.extend(successful);
                        (start..mid, mid..reads.len())
                    }),
            })
            .collect();
        let distinct = Distinct::of(&reads);
        let decoded = self.process_all(&distinct.snapshots);
        let decode_micros = decode_started.elapsed().as_micros();
        let snapshot_dedup_hits = reads.len() - distinct.snapshots.len();
        lazy_obs::counter!("batch.snapshot_dedup_hits_total", snapshot_dedup_hits);

        // Steps 4–7 per job over the shared traces. A panicking job
        // records a typed error at its own index instead of unwinding
        // through the fan-out and aborting its siblings.
        let diagnoses: Vec<Result<Diagnosis, DiagnosisError>> = fan_out(&planned, workers, |job| {
            self.run_job(
                job,
                &distinct.index,
                &decoded,
                cache.as_ref(),
                decode_micros,
            )
        })
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| Err(DiagnosisError::from_panic("diagnose", p))))
        .collect();
        let cache_stats = cache
            .as_ref()
            .map_or(CacheStats::default(), SharedCache::stats);
        let failed_jobs = diagnoses.iter().filter(|d| d.is_err()).count();
        let panicked_jobs = diagnoses
            .iter()
            .filter(|d| matches!(d, Err(DiagnosisError::WorkerPanic { .. })))
            .count();
        let cache_poison_fallbacks = cache.as_ref().map_or(0, SharedCache::poison_fallbacks);
        lazy_obs::counter!("batch.jobs_failed", failed_jobs);
        lazy_obs::counter!("batch.jobs_panicked", panicked_jobs);
        lazy_obs::counter!("batch.cache_poison_fallbacks", cache_poison_fallbacks);
        // Close the batch span before the delta snapshot so the report
        // covers the fan-out span itself.
        batch_span.end();
        BatchOutcome {
            diagnoses,
            stats: BatchStats {
                jobs: jobs.len(),
                workers,
                wall_micros: started.elapsed().as_micros(),
                cache: cache_stats,
                snapshot_dedup_hits,
                failed_jobs,
                panicked_jobs,
                cache_poison_fallbacks,
            },
            telemetry: lazy_obs::snapshot().since(&telemetry_baseline),
        }
    }

    /// Steps 4–7 of one job over the batch's decoded snapshots, which
    /// it finds through `index` (a read's distinct snapshot). The job
    /// fails on its first failing snapshot that did not decode, as
    /// `diagnose` does, and skips its successes that did not.
    fn run_job(
        &self,
        job: &PlannedJob<'_>,
        index: &[usize],
        decoded: &[Processed],
        cache: Option<&SharedCache>,
        decode_micros: u128,
    ) -> Result<Diagnosis, DiagnosisError> {
        let _span = lazy_obs::span!("batch.job");
        let (failing, successful) = job.reads.clone()?;
        let failing = index[failing]
            .iter()
            .map(|&i| decoded[i].clone())
            .collect::<Result<Vec<_>, _>>()?;
        let successful: Vec<_> = index[successful]
            .iter()
            .filter_map(|&i| decoded[i].as_ref().ok().cloned())
            .collect();
        let times = StageTimes {
            started: Instant::now(),
            decode_micros,
        };
        let diagnosis = self.analyze(job.failure, &failing, &successful, cache, times);
        lazy_obs::histogram!("diagnose.analysis_us", diagnosis.stats.analysis_micros);
        Ok(diagnosis)
    }
}

/// One job of a batch and the snapshots it reads.
struct PlannedJob<'j> {
    failure: &'j Failure,
    /// The job's failing snapshots and its capped successful ones, as
    /// ranges of the batch's reads; `Err(EmptyReport)` for a job with
    /// no failing snapshot.
    reads: Result<(Range<usize>, Range<usize>), DiagnosisError>,
}

/// A batch's snapshot reads grouped into distinct snapshots.
struct Distinct<'v, 'a> {
    /// Each distinct snapshot once.
    snapshots: Vec<&'v SnapshotView<'a>>,
    /// For each read, the index of its snapshot in `snapshots`.
    index: Vec<usize>,
}

impl<'v, 'a> Distinct<'v, 'a> {
    fn of(reads: &[&'v SnapshotView<'a>]) -> Distinct<'v, 'a> {
        let shapes: Vec<Shape> = reads.iter().map(|s| Shape::of(s)).collect();
        let mut order: Vec<usize> = (0..reads.len()).collect();
        // The shape settles most comparisons without reading trace
        // bytes. Where shapes tie, the order over everything equality
        // compares decides, so equal snapshots end up side by side and
        // are never aliased by their shape alone, in n log n
        // comparisons however many snapshots share a shape: a batch
        // crafted to collide on the key costs no more than any other.
        order.sort_unstable_by(|&i, &j| {
            shapes[i]
                .cmp(&shapes[j])
                .then_with(|| reads[i].cmp(reads[j]))
        });
        let mut snapshots = Vec::new();
        let mut index = vec![0; reads.len()];
        for equal in order.chunk_by(|&i, &j| reads[i] == reads[j]) {
            for &r in equal {
                index[r] = snapshots.len();
            }
            snapshots.push(reads[equal[0]]);
        }
        Distinct { snapshots, index }
    }
}

/// A snapshot's structural key: what equal snapshots share that costs
/// no pass over their trace bytes (the trigger, and each thread's id,
/// wrap flag and byte length).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Shape {
    taken_at: u64,
    trigger_tid: u32,
    trigger_pc: u64,
    threads: Vec<(u32, bool, usize)>,
}

impl Shape {
    fn of(s: &SnapshotView<'_>) -> Shape {
        Shape {
            taken_at: s.taken_at,
            trigger_tid: s.trigger_tid,
            trigger_pc: s.trigger_pc,
            threads: s
                .threads
                .iter()
                .map(|t| (t.tid, t.wrapped, t.bytes.len()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_trace::{SnapshotTrigger, ThreadTraceView, TraceStats};

    fn view(taken_at: u64, bytes: &[u8], control_events: u64) -> SnapshotView<'_> {
        SnapshotView {
            threads: vec![ThreadTraceView {
                tid: 1,
                bytes,
                stats: TraceStats {
                    control_events,
                    ..TraceStats::default()
                },
                wrapped: false,
            }],
            taken_at,
            trigger_tid: 1,
            trigger_pc: 0x40,
            trigger: SnapshotTrigger::Breakpoint,
        }
    }

    /// Reads of equal snapshots share one distinct snapshot and reads of
    /// unequal ones never do, also where their shapes tie: same trigger,
    /// thread ids, wrap flags and lengths, but other bytes or stats.
    #[test]
    fn reads_group_by_full_equality_not_by_shape() {
        let bytes: Vec<[u8; 4]> = (0..3).map(|b| [0x02, 0x82, 0x02, b]).collect();
        let views: Vec<SnapshotView<'_>> = [7, 9]
            .into_iter()
            .flat_map(|at| {
                bytes
                    .iter()
                    .flat_map(move |b| [view(at, b, 0), view(at, b, 1)])
            })
            .collect();
        // Every snapshot read twice, the second time in reverse order.
        let reads: Vec<&SnapshotView<'_>> = views.iter().chain(views.iter().rev()).collect();
        let distinct = Distinct::of(&reads);
        assert_eq!(distinct.snapshots.len(), views.len());
        for (a, &i) in reads.iter().zip(&distinct.index) {
            assert_eq!(distinct.snapshots[i], *a, "a read maps to its own snapshot");
            for (b, &j) in reads.iter().zip(&distinct.index) {
                assert_eq!(i == j, a == b);
            }
        }
    }
}
