//! Batch diagnosis throughput: sequential vs batched vs batched+cached.
//!
//! Models the in-production burst case: a fleet hits one shipped
//! concurrency bug repeatedly, and the server receives a corpus of
//! failure reports (each a failing snapshot plus its successful-trace
//! corpus) for the same module. Three ways to drain the corpus:
//!
//! * **sequential** — `DiagnosisServer::diagnose` per report, in order;
//! * **batched** — `diagnose_batch` with the shared points-to cache
//!   off: worker threads fan out per-report decode/analysis;
//! * **batched+cached** — `diagnose_batch` with the shared incremental
//!   points-to cache: sibling reports with identical executed scopes
//!   hit a solved fixpoint, supersets replay only their delta.
//!
//! The acceptance target is ≥2× wall-clock for batched+cached over
//! sequential on a 16-report corpus with ≥4 cores; on smaller machines
//! the parallel term shrinks toward 1× and the check is reported as
//! skipped rather than failed.
//!
//! Usage: `batch [bug-id] [--reports N] [--rounds N] [--out PATH]`

use lazy_bench::{collect_corpus, server_for, stats};
use lazy_snorlax::{BatchConfig, BatchJob, Diagnosis};
use lazy_workloads::scenario_by_id;
use std::time::Instant;

fn opt(args: &[String], flag: &str, default: usize) -> usize {
    args.windows(2)
        .find(|w| w[0] == flag)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

fn opt_str(args: &[String], flag: &str, default: &str) -> String {
    args.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].clone())
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bug = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "mysql-3596".to_string());
    let reports = opt(&args, "--reports", 16);
    let rounds = opt(&args, "--rounds", 3);
    let out_path = opt_str(&args, "--out", "BENCH_batch.json");
    let cores = lazy_trace::core_count();

    let s = scenario_by_id(&bug).expect("known bug id");
    let server = server_for(&s);
    println!(
        "batch diagnosis: {} — {} reports, {} rounds, {} cores",
        s.id, reports, rounds, cores
    );
    let corpus = collect_corpus(&server, reports, 1000);
    let jobs: Vec<BatchJob<'_>> = corpus
        .iter()
        .map(|c| BatchJob {
            failure: &c.failure,
            failing: &c.failing,
            successful: &c.successful,
        })
        .collect();

    // Reference output: the sequential diagnoses (also warms caches of
    // the OS/allocator kind so round 1 is not penalized).
    let reference: Vec<Diagnosis> = jobs
        .iter()
        .map(|j| {
            server
                .diagnose(j.failure, j.failing, j.successful)
                .expect("diagnosis")
        })
        .collect();

    let mut seq = Vec::new();
    let mut par = Vec::new();
    let mut cached = Vec::new();
    let mut last_batch_telemetry = None;
    for _ in 0..rounds {
        let t = Instant::now();
        for j in &jobs {
            let _ = server
                .diagnose(j.failure, j.failing, j.successful)
                .expect("diagnosis");
        }
        seq.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let out = server.diagnose_batch(
            &jobs,
            &BatchConfig {
                use_cache: false,
                ..BatchConfig::default()
            },
        );
        par.push(t.elapsed().as_secs_f64());
        assert!(out.diagnoses.iter().all(Result::is_ok));

        let t = Instant::now();
        let out = server.diagnose_batch(&jobs, &BatchConfig::default());
        cached.push(t.elapsed().as_secs_f64());
        last_batch_telemetry = Some(out.telemetry.clone());
        // Batch output must match the sequential reference exactly.
        for (d, r) in out.diagnoses.iter().zip(&reference) {
            let d = d.as_ref().expect("diagnosis");
            assert_eq!(
                d.render(&s.module),
                r.render(&s.module),
                "batched diagnosis diverged from sequential"
            );
        }
        let c = out.stats.cache;
        println!(
            "  cache round: {} exact hits, {} delta, {} scratch ({} insts reused)",
            c.exact_hits, c.delta_solves, c.scratch_solves, c.reused_insts
        );
    }

    let (seq_s, par_s, cached_s) = (stats::mean(&seq), stats::mean(&par), stats::mean(&cached));
    println!("--");
    println!("sequential      {:>9.1} ms", seq_s * 1000.0);
    println!(
        "batched         {:>9.1} ms   ({:.2}x)",
        par_s * 1000.0,
        seq_s / par_s
    );
    println!(
        "batched+cached  {:>9.1} ms   ({:.2}x)",
        cached_s * 1000.0,
        seq_s / cached_s
    );
    let speedup = seq_s / cached_s;
    let gate_status = if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "acceptance: batched+cached must be >=2x sequential on >=4 cores (got {speedup:.2}x)"
        );
        println!("acceptance (>=2x on >=4 cores): PASS ({speedup:.2}x)");
        "pass"
    } else {
        println!(
            "acceptance (>=2x on >=4 cores): SKIPPED — {cores} core(s) available, \
             parallel term absent ({speedup:.2}x measured)"
        );
        "skipped"
    };

    // The last cached batch's own telemetry delta (from
    // BatchOutcome::telemetry): per-stage spans and counters for one
    // representative batch, not the whole bench run.
    let telemetry = last_batch_telemetry.unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"batch\",\n  \"workload\": {{\n    \"bug\": \"{bug}\",\n    \
         \"reports\": {reports}\n  }},\n  \"machine\": {{ \"cores\": {cores} }},\n  \
         \"rounds\": {rounds},\n  \"seconds\": {{\n    \"sequential\": {seq_s:.6},\n    \
         \"batched\": {par_s:.6},\n    \"batched_cached\": {cached_s:.6}\n  }},\n  \
         \"speedup\": {{\n    \"batched_vs_sequential\": {p_vs_s:.3},\n    \
         \"cached_vs_sequential\": {speedup:.3}\n  }},\n  \
         \"gate\": {{\n    \"required\": \">=2x batched+cached vs sequential on >=4 cores\",\n    \
         \"status\": \"{gate_status}\"\n  }},\n  \
         \"telemetry_enabled\": {telemetry_enabled},\n  \"telemetry\": {telemetry_json}\n}}\n",
        p_vs_s = seq_s / par_s,
        telemetry_enabled = cfg!(feature = "telemetry"),
        telemetry_json = telemetry.to_json().trim_end(),
    );
    std::fs::write(&out_path, json).expect("write bench output");
    println!("wrote {out_path}");
}
