//! Telemetry-consistency integration test: the observability layer must
//! *reconcile exactly* with the pipeline's own statistics — a counter
//! that drifts from the stats it shadows is worse than no counter.
//!
//! Everything lives in ONE `#[test]` function on purpose: telemetry
//! sites are process-global, and `BatchOutcome::telemetry` is a delta
//! over the batch's wall-clock window, so a concurrently running test
//! in the same binary would bleed its increments into our delta.

#![cfg(feature = "telemetry")]

use lazy_diagnosis::snorlax::{
    interleave_reports, BatchConfig, BatchJob, CollectionClient, CollectionOutcome,
    DiagnosisServer, ServerConfig, StreamingDiagnoser,
};
use lazy_diagnosis::vm::VmConfig;

fn collect_reports(server: &DiagnosisServer<'_>, reports: usize) -> Vec<CollectionOutcome> {
    let client = CollectionClient::new(server, VmConfig::default());
    let mut out = Vec::new();
    let mut seed = 0u64;
    while out.len() < reports {
        let col = client
            .collect(seed, 800, 10, 0)
            .expect("bug manifests within the budget");
        seed = col.failing_seeds.last().copied().unwrap_or(seed) + 1;
        out.push(col);
    }
    out
}

fn jobs_of<'a>(collections: &'a [CollectionOutcome]) -> Vec<BatchJob<'a>> {
    collections
        .iter()
        .map(|c| BatchJob {
            failure: &c.failure,
            failing: &c.failing,
            successful: &c.successful,
        })
        .collect()
}

/// Share of `total` that `parts` leave unexplained, either way.
fn unexplained(parts: f64, total: f64) -> f64 {
    (1.0 - parts / total).abs()
}

#[test]
fn telemetry_reconciles_with_pipeline_stats() {
    let s = lazy_workloads::scenario_by_id("mysql-3596").expect("corpus bug");
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let collections = collect_reports(&server, 2);

    // --- stage reconciliation --------------------------------------
    // With one decode worker every stage of `diagnose` runs on the
    // calling thread, so the stage spans must account for the
    // `diagnose.job` total, and inside `decode.snapshot` the stream
    // decoder plus aggregation must account for the snapshot's. A
    // stage missing a span shows up as unexplained time.
    const STAGE_TOLERANCE: f64 = 0.10;
    let single = DiagnosisServer::new(
        &s.module,
        ServerConfig {
            decode_workers: 1,
            ..ServerConfig::default()
        },
    );
    let diagnose_all = || {
        for c in &collections {
            single
                .diagnose(&c.failure, &c.failing, &c.successful)
                .expect("diagnosis");
        }
    };
    // The first call builds the walk table, a one-off outside every
    // stage; reconcile the calls after it.
    diagnose_all();
    let before = lazy_obs::snapshot();
    diagnose_all();
    let window = lazy_obs::snapshot().since(&before);
    let total = |name: &str| window.span(name).map_or(0, |s| s.total_ns) as f64;
    let job = total("diagnose.job");
    assert_eq!(
        window.span("diagnose.job").map(|s| s.count),
        Some(collections.len() as u64)
    );
    let stages: f64 = [
        "decode.snapshot",
        "pointsto.scope",
        "pointsto.solve",
        "rank.candidates",
        "patterns.compute",
        "stats.score",
    ]
    .iter()
    .map(|name| total(name))
    .sum();
    eprintln!(
        "diagnose.job: stage spans leave {:.1}% unexplained",
        100.0 * unexplained(stages, job)
    );
    assert!(
        unexplained(stages, job) <= STAGE_TOLERANCE,
        "stage spans explain {stages} of {job} ns of diagnose.job, beyond {STAGE_TOLERANCE}"
    );
    let snapshot = total("decode.snapshot");
    let inner = total("decode.stream") + total("process.aggregate");
    assert!(
        unexplained(inner, snapshot) <= STAGE_TOLERANCE,
        "decode.stream + process.aggregate explain {inner} of {snapshot} ns of \
         decode.snapshot, beyond {STAGE_TOLERANCE}"
    );

    // --- stream fold reconciliation --------------------------------
    // A fold decodes its report and rescores the retained corpus
    // through the same staged steps 4–7 as `diagnose`, so the same
    // stage spans must account for `stream.fold` — and a fold is not a
    // diagnosis: it records neither `diagnose.job` nor the per-job
    // analysis histogram.
    let c = &collections[0];
    let reports = interleave_reports(&c.failing, &c.successful);
    let mut stream = StreamingDiagnoser::new(&single, &c.failure);
    let before = lazy_obs::snapshot();
    for report in &reports {
        stream.fold(report).expect("corpus reports decode");
    }
    let window = lazy_obs::snapshot().since(&before);
    let total = |name: &str| window.span(name).map_or(0, |s| s.total_ns) as f64;
    assert_eq!(
        window.span("stream.fold").map(|s| s.count),
        Some(reports.len() as u64)
    );
    let fold = total("stream.fold");
    let stages: f64 = [
        "decode.snapshot",
        "pointsto.scope",
        "pointsto.solve",
        "rank.candidates",
        "patterns.compute",
        "stats.score",
    ]
    .iter()
    .map(|name| total(name))
    .sum();
    eprintln!(
        "stream.fold: stage spans leave {:.1}% unexplained",
        100.0 * unexplained(stages, fold)
    );
    assert!(
        unexplained(stages, fold) <= STAGE_TOLERANCE,
        "stage spans explain {stages} of {fold} ns of stream.fold, beyond {STAGE_TOLERANCE}"
    );
    assert_eq!(window.span("diagnose.job").map_or(0, |s| s.count), 0);
    assert_eq!(
        window
            .histogram("diagnose.analysis_us")
            .map_or(0, |h| h.count),
        0,
        "folds record no per-diagnosis analysis latency"
    );

    // A single-job batch first: with one job the cross-job memo has
    // nothing to dedup (sibling collections DO share success-corpus
    // snapshots, so a multi-job batch decodes fewer snapshots than its
    // jobs' stats sum — exactly the discrepancy this test must not
    // tolerate unexplained).
    let jobs = jobs_of(&collections[..1]);
    let out = server.diagnose_batch(&jobs, &BatchConfig::default());
    let t = &out.telemetry;

    // --- decode reconciliation -------------------------------------
    // `decode.events_total` counts each *distinct* processed snapshot
    // once; the job's `PipelineStats::events_total` sums the event
    // counts of the traces it used. The two agree exactly when no
    // snapshot was deduped — which we assert rather than assume.
    assert_eq!(
        out.stats.snapshot_dedup_hits, 0,
        "a single-job batch has no cross-job snapshots to dedup"
    );
    let stats_events: usize = out
        .diagnoses
        .iter()
        .map(|d| d.as_ref().expect("diagnosis").stats.events_total)
        .sum();
    assert!(stats_events > 0, "corpus jobs decode a nonzero event count");
    assert_eq!(
        t.counter("decode.events_total"),
        stats_events as u64,
        "decode.events_total must equal the summed per-job event counts"
    );
    let snapshots: usize = jobs
        .iter()
        .map(|j| {
            let cap = 10 * j.failing.len(); // ServerConfig::success_factor
            j.failing.len() + j.successful.len().min(cap)
        })
        .sum();
    assert_eq!(
        t.counter("decode.snapshots_total"),
        snapshots as u64,
        "every submitted snapshot decodes exactly once"
    );

    // --- stage coverage --------------------------------------------
    // The batch report must carry a completed span for every pipeline
    // stage the acceptance criteria name: decode, points-to, ranking,
    // patterns, statistics, and the batch fan-out itself.
    for span in [
        "batch.run",
        "batch.job",
        "decode.snapshot",
        "decode.stream",
        "process.aggregate",
        "pointsto.cache.solve",
        "rank.candidates",
        "patterns.compute",
        "stats.score",
    ] {
        let snap = t
            .span(span)
            .unwrap_or_else(|| panic!("span {span:?} missing from the batch telemetry"));
        assert!(snap.count > 0, "span {span:?} never completed");
        assert!(
            snap.min_ns <= snap.max_ns && snap.total_ns >= snap.max_ns,
            "span {span:?} aggregates are inconsistent: {snap:?}"
        );
    }
    assert_eq!(
        t.span("batch.job").map(|s| s.count),
        Some(jobs.len() as u64),
        "one batch.job span per job"
    );

    // --- cross-job dedup reconciliation ----------------------------
    // Both collections batched together: the memo serves the shared
    // success snapshots, and the dedup counter mirrors BatchStats.
    let both = jobs_of(&collections);
    let two = server.diagnose_batch(&both, &BatchConfig::default());
    assert_eq!(
        two.telemetry.counter("batch.snapshot_dedup_hits_total"),
        two.stats.snapshot_dedup_hits as u64,
        "memo-hit counter must equal BatchStats::snapshot_dedup_hits"
    );
    assert_eq!(
        two.telemetry.span("batch.job").map(|s| s.count),
        Some(both.len() as u64),
        "one batch.job span per job in the two-job batch"
    );

    // --- points-to cache reconciliation ----------------------------
    let c = out.stats.cache;
    assert_eq!(
        t.counter("pointsto.cache.exact_hits_total"),
        c.exact_hits as u64
    );
    assert_eq!(
        t.counter("pointsto.cache.delta_solves_total"),
        c.delta_solves as u64
    );
    assert_eq!(
        t.counter("pointsto.cache.scratch_solves_total"),
        c.scratch_solves as u64
    );

    // --- batch degradation reconciliation --------------------------
    // A healthy batch first: zero failures on both sides of the ledger.
    assert_eq!(out.stats.failed_jobs, 0);
    assert_eq!(t.counter("batch.jobs_failed"), 0);
    assert_eq!(t.counter("batch.jobs_total"), jobs.len() as u64);

    // Now a batch with one unservable job (no failing snapshot): the
    // counter and BatchStats::failed_jobs must move in lockstep.
    let failure = &collections[0].failure;
    let degraded_jobs = vec![
        jobs[0],
        BatchJob {
            failure,
            failing: &[],
            successful: &collections[0].successful,
        },
    ];
    let degraded = server.diagnose_batch(&degraded_jobs, &BatchConfig::default());
    assert_eq!(degraded.stats.failed_jobs, 1);
    assert_eq!(
        degraded.telemetry.counter("batch.jobs_failed"),
        degraded.stats.failed_jobs as u64,
        "batch.jobs_failed must equal BatchStats::failed_jobs"
    );
    assert_eq!(
        degraded.telemetry.counter("batch.jobs_panicked"),
        degraded.stats.panicked_jobs as u64
    );

    // --- per-job analysis histogram --------------------------------
    let hist = t
        .histogram("diagnose.analysis_us")
        .expect("analysis-latency histogram present");
    assert_eq!(
        hist.count,
        jobs.len() as u64,
        "one analysis-latency observation per successful job"
    );
    assert_eq!(
        hist.buckets.iter().sum::<u64>(),
        hist.count,
        "histogram buckets account for every observation"
    );
}
