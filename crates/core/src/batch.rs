//! Batched multi-snapshot diagnosis.
//!
//! A production fleet does not report failures one at a time: when a
//! concurrency bug ships, the server receives *many* snapshots of the
//! same failure (plus their success corpora) in bursts. This module
//! adds a batch front end to [`DiagnosisServer`] that
//!
//! 1. fans the per-job pipeline — snapshot decode + trace processing,
//!    scoped points-to, pattern computation and scoring — across
//!    worker threads with [`lazy_trace::fan_out`] (the calling thread
//!    is one of them; the VM stays single-threaded, only the server
//!    parallelizes), and
//! 2. shares one [`PointsToCache`] across all jobs, so snapshots with
//!    identical executed sets hit a solved fixpoint outright and
//!    superset scopes are solved by replaying only their delta.
//!
//! **Determinism**: results come back indexed by job, each job's
//! pipeline is self-contained, and cached points-to returns the same
//! unique least fixpoint a from-scratch solve produces — so a batch
//! diagnosis renders byte-identical to running [`DiagnosisServer::
//! diagnose`] sequentially on each job (the corpus regression test in
//! `tests/batch.rs` asserts exactly this). Only the timing fields of
//! [`PipelineStats`](crate::PipelineStats) differ.

use crate::error::DiagnosisError;
use crate::server::{DiagnosisServer, SharedCache, SnapshotMemo};
use crate::Diagnosis;
use lazy_analysis::{CacheStats, PointsToCache};
use lazy_trace::{fan_out, resolve_workers, SnapshotView, TraceSnapshot};
use lazy_vm::Failure;
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
    /// Worker threads; `0` means one per idle core
    /// (`lazy_trace::resolve_workers`), so a batch served by a busy
    /// daemon runs its jobs on the cores nobody else holds.
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
    /// Snapshots served from the cross-job memo instead of being
    /// decoded again (identical success-corpus snapshots attached to
    /// several jobs are processed once and `Arc`-shared).
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
    /// buffers. Semantics (fan-out, shared cache, memo, degradation)
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
        // Jobs of one batch typically share success corpora; the memo
        // processes each distinct snapshot once across the whole batch.
        let memo = SnapshotMemo::new();
        // A panicking job records a typed error at its own index instead
        // of unwinding through the fan-out and aborting its siblings.
        let diagnoses: Vec<Result<Diagnosis, DiagnosisError>> = fan_out(jobs, workers, |job| {
            self.run_job(job, cache.as_ref(), &memo)
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
                snapshot_dedup_hits: memo.hits(),
                failed_jobs,
                panicked_jobs,
                cache_poison_fallbacks,
            },
            telemetry: lazy_obs::snapshot().since(&telemetry_baseline),
        }
    }

    fn run_job<'a>(
        &self,
        job: &BatchJobView<'a>,
        cache: Option<&SharedCache>,
        memo: &SnapshotMemo<'a>,
    ) -> Result<Diagnosis, DiagnosisError> {
        let _span = lazy_obs::span!("batch.job");
        // The job's decode fan-outs resolve their own budget: the batch
        // workers are busy, so they run inline unless a core is idle.
        self.diagnose_job(
            &job.failure,
            &job.failing,
            &job.successful,
            Some(memo),
            cache,
            self.config().decode_workers,
        )
    }
}
