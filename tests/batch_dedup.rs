//! Batch dedup under parallelism: a batch decodes each distinct
//! snapshot its jobs read exactly once, on every run, however its four
//! workers interleave, and every job renders as the sequential
//! `diagnose` of the same report.
//!
//! Decodes are counted by the process-wide `decode.snapshots_total` and
//! `decode.snapshots_rejected_total` counters, so this file is its own
//! test binary with one test: nothing else in the process decodes while
//! a batch's telemetry window is open.

#![cfg(feature = "telemetry")]

use lazy_diagnosis::snorlax::{
    BatchConfig, BatchJob, CollectionClient, CollectionOutcome, DiagnosisError, DiagnosisServer,
    ServerConfig,
};
use lazy_diagnosis::trace::{CorruptionOp, Corruptor, TraceSnapshot};
use lazy_diagnosis::vm::VmConfig;

/// Runs per batch: enough interleavings of the four workers that two
/// jobs decoding one shared snapshot at once would show.
const RUNS: usize = 20;

/// `ServerConfig::default().success_factor`.
const SUCCESS_FACTOR: usize = 10;

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

/// The snapshots `diagnose` would decode for `jobs`, counted with
/// repeats (`references`) and without (`distinct`): each job with a
/// failing snapshot reads its failing ones and its first
/// `SUCCESS_FACTOR` successes per failing one.
fn references_and_distinct(jobs: &[BatchJob<'_>]) -> (usize, usize) {
    let mut seen: Vec<&TraceSnapshot> = Vec::new();
    let mut references = 0;
    for job in jobs.iter().filter(|j| !j.failing.is_empty()) {
        let cap = SUCCESS_FACTOR * job.failing.len();
        let successful = &job.successful[..job.successful.len().min(cap)];
        for s in job.failing.iter().chain(successful) {
            references += 1;
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
    }
    (references, seen.len())
}

/// Every run of `jobs` decodes each distinct snapshot once and renders
/// each job as sequential `diagnose` does.
fn check_runs(server: &DiagnosisServer<'_>, jobs: &[BatchJob<'_>], label: &str) {
    let module = server.module();
    let sequential: Vec<Result<String, DiagnosisError>> = jobs
        .iter()
        .map(|j| {
            server
                .diagnose(j.failure, j.failing, j.successful)
                .map(|d| d.render(module))
        })
        .collect();
    let (references, distinct) = references_and_distinct(jobs);
    assert!(references > distinct, "{label}: the jobs share no snapshot");
    let cfg = BatchConfig {
        workers: 4,
        ..BatchConfig::default()
    };
    for run in 0..RUNS {
        let out = server.diagnose_batch(jobs, &cfg);
        let t = &out.telemetry;
        let decodes =
            t.counter("decode.snapshots_total") + t.counter("decode.snapshots_rejected_total");
        assert_eq!(
            decodes, distinct as u64,
            "{label} run {run}: {decodes} decodes for {distinct} distinct snapshots"
        );
        assert_eq!(
            t.span("decode.snapshot").map_or(0, |s| s.count),
            distinct as u64,
            "{label} run {run}: one decode.snapshot span per distinct snapshot"
        );
        assert_eq!(
            out.stats.snapshot_dedup_hits,
            references - distinct,
            "{label} run {run}: dedup hits are references minus distinct"
        );
        assert_eq!(
            t.counter("batch.snapshot_dedup_hits_total"),
            out.stats.snapshot_dedup_hits as u64,
            "{label} run {run}: the dedup counter mirrors BatchStats"
        );
        for (i, (batch, seq)) in out.diagnoses.iter().zip(&sequential).enumerate() {
            let batch = batch
                .as_ref()
                .map(|d| d.render(module))
                .map_err(Clone::clone);
            assert_eq!(
                &batch, seq,
                "{label} run {run} job {i}: batch diverged from sequential diagnose"
            );
        }
    }
}

/// A job of `r`'s first failing snapshot against `successful`.
fn job<'a>(r: &'a CollectionOutcome, successful: &'a [TraceSnapshot]) -> BatchJob<'a> {
    BatchJob {
        failure: &r.failure,
        failing: &r.failing[..1],
        successful,
    }
}

#[test]
fn each_distinct_snapshot_decodes_once_on_every_parallel_run() {
    let s = lazy_workloads::scenario_by_id("mysql-3596").expect("corpus bug");
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let reports = collect_reports(&server, 8);
    // One success corpus, shared by every job, as when one bug's
    // failing reports are scored against the same breakpoints.
    let corpus = &reports[0].successful;
    assert_eq!(corpus.len(), SUCCESS_FACTOR, "a full success corpus");

    // Two successes outside the corpus (collections share some), which
    // only the jobs below list.
    let mut unread = reports[1..]
        .iter()
        .flat_map(|r| &r.successful)
        .filter(|s| !corpus.contains(s));
    let beyond_cap = unread.next().expect("a success outside the corpus");
    let lone = unread
        .find(|s| *s != beyond_cap)
        .expect("a second success outside the corpus");
    // Past its cap a job's successes are never decoded: one more than
    // the cap.
    let mut over_cap = corpus.clone();
    over_cap.push(beyond_cap.clone());
    let mut clean: Vec<BatchJob<'_>> = reports[..6].iter().map(|r| job(r, corpus)).collect();
    clean[0].successful = &over_cap;
    // A job with no failing snapshot fails with EmptyReport and decodes
    // nothing.
    let lone_success = std::slice::from_ref(lone);
    clean.push(BatchJob {
        failure: &reports[2].failure,
        failing: &[],
        successful: lone_success,
    });
    check_runs(&server, &clean, "clean batch");

    // A mangled success shared by two jobs: one flipped bit per thread
    // keeps its shape (trigger, thread ids, wrap flags and lengths)
    // equal to the snapshot it came from, so only full equality tells
    // them apart.
    let corruptor = Corruptor::new();
    let mut mangled = corpus[0].clone();
    for t in &mut mangled.threads {
        t.bytes = corruptor.apply(&t.bytes, &CorruptionOp::BitFlip { offset: 0, bit: 3 });
    }
    let mut mangled_corpus = vec![mangled];
    mangled_corpus.extend_from_slice(&corpus[..SUCCESS_FACTOR - 1]);
    // A failing snapshot no thread of which decodes.
    let mut corrupt = reports[0].failing[0].clone();
    for t in &mut corrupt.threads {
        t.bytes = corruptor.apply(&t.bytes, &CorruptionOp::Truncate { keep: 3 });
    }
    let corrupt = [corrupt];
    let mut mixed = clean.clone();
    mixed.push(job(&reports[6], &mangled_corpus));
    mixed.push(job(&reports[7], &mangled_corpus));
    mixed.push(BatchJob {
        failure: &reports[0].failure,
        failing: &corrupt,
        successful: corpus,
    });
    check_runs(&server, &mixed, "mixed batch");

    // The corrupt job fails alone, with the typed error `diagnose`
    // gives (`check_runs` compared it), and every sibling still
    // diagnoses.
    let out = server.diagnose_batch(&mixed, &BatchConfig::default());
    let corrupt_job = mixed.len() - 1;
    assert!(matches!(
        out.diagnoses[corrupt_job],
        Err(DiagnosisError::Processing { .. })
    ));
    let empty_job = clean.len() - 1;
    assert!(matches!(
        out.diagnoses[empty_job],
        Err(DiagnosisError::EmptyReport)
    ));
    assert_eq!(
        out.stats.failed_jobs, 2,
        "only the corrupt and the empty job fail"
    );
}
