//! Criterion benchmarks of the performance-sensitive kernels: points-to
//! solving (scoped vs whole-program), trace decoding, and the
//! end-to-end server analysis per trace set.

use criterion::{criterion_group, criterion_main, Criterion};
use lazy_analysis::PointsTo;
use lazy_bench::synth::{drive, looped_module};
use lazy_snorlax::{CollectionClient, DiagnosisServer, ServerConfig};
use lazy_trace::{
    decode_thread_trace, decode_thread_trace_compiled, decode_thread_trace_legacy,
    decode_thread_trace_sharded, drain_event_pool, find_psb, find_psb_scalar, recycle_events,
    ExecIndex, TraceConfig, WalkTable,
};
use lazy_vm::VmConfig;
use std::hint::black_box;

fn bench_points_to(c: &mut Criterion) {
    let s = lazy_workloads::scenario_by_id("mysql-3596").expect("scenario");
    let module = &s.module;
    let server = DiagnosisServer::new(module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let col = client.collect(0, 400, 10, 0).expect("collect");
    let executed: std::collections::HashSet<_> = server
        .process(&col.failing[0])
        .expect("decode")
        .executed
        .into_iter()
        .collect();

    let mut g = c.benchmark_group("points-to");
    g.bench_function("whole-program (mysql)", |b| {
        b.iter(|| black_box(PointsTo::analyze(module)))
    });
    g.bench_function("scoped-to-trace (mysql)", |b| {
        b.iter(|| black_box(PointsTo::analyze_scoped(module, &executed)))
    });
    g.finish();
}

fn bench_trace_decode(c: &mut Criterion) {
    let s = lazy_workloads::scenario_by_id("mysql-3596").expect("scenario");
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let col = client.collect(0, 400, 10, 0).expect("collect");
    let snap = &col.failing[0];
    let index = ExecIndex::build(&s.module);
    let cfg = TraceConfig::default();
    let biggest = snap
        .threads
        .iter()
        .max_by_key(|t| t.bytes.len())
        .expect("threads");

    c.bench_function("trace decode (one thread buffer)", |b| {
        b.iter(|| {
            black_box(
                decode_thread_trace(&index, &cfg, &biggest.bytes, snap.taken_at).expect("decode"),
            )
        })
    });
}

/// Sequential (three-pass and fused) vs PSB-sharded decode of one
/// synthetic multi-megabyte stream — the kernel behind the
/// `lazy-bench --bin decode` acceptance numbers.
fn bench_decode_paths(c: &mut Criterion) {
    let module = looped_module();
    let index = ExecIndex::build(&module);
    let cfg = TraceConfig {
        buffer_size: TraceConfig::MAX_BUFFER,
        ..TraceConfig::default()
    };
    let (bytes, taken_at) = drive(&module, 100_000, cfg.clone());
    let cores = lazy_trace::core_count();

    let mut g = c.benchmark_group("decode-paths");
    g.bench_function("legacy three-pass", |b| {
        b.iter(|| {
            black_box(decode_thread_trace_legacy(&index, &cfg, &bytes, taken_at).expect("decode"))
        })
    });
    g.bench_function("fused streaming", |b| {
        b.iter(|| black_box(decode_thread_trace(&index, &cfg, &bytes, taken_at).expect("decode")))
    });
    g.bench_function(&format!("sharded ({cores} workers)"), |b| {
        b.iter(|| {
            black_box(
                decode_thread_trace_sharded(&index, &cfg, &bytes, taken_at, cores).expect("decode"),
            )
        })
    });
    g.finish();
}

/// SWAR vs scalar `PSB` scan over a real encoder stream — the packet
/// layer's resync kernel (`sync_to_psb` and the shard skim both sit on
/// `find_psb`).
fn bench_decode_scan(c: &mut Criterion) {
    let module = looped_module();
    let cfg = TraceConfig {
        buffer_size: TraceConfig::MAX_BUFFER,
        ..TraceConfig::default()
    };
    let (bytes, _) = drive(&module, 100_000, cfg);

    let mut g = c.benchmark_group("decode-scan");
    g.bench_function("find_psb (SWAR u64)", |b| {
        b.iter(|| {
            let mut at = 0usize;
            let mut hits = 0u32;
            while let Some(p) = find_psb(&bytes, at) {
                hits += 1;
                at = p + 4;
            }
            black_box(hits)
        })
    });
    g.bench_function("find_psb_scalar", |b| {
        b.iter(|| {
            let mut at = 0usize;
            let mut hits = 0u32;
            while let Some(p) = find_psb_scalar(&bytes, at) {
                hits += 1;
                at = p + 4;
            }
            black_box(hits)
        })
    });
    g.finish();
}

/// Interpreted vs compiled CFG walk at both operating points (empty and
/// primed event-buffer pool) — the kernels behind the `walk_table`
/// acceptance gate.
fn bench_walk_table(c: &mut Criterion) {
    let module = looped_module();
    let index = ExecIndex::build(&module);
    let cfg = TraceConfig {
        buffer_size: TraceConfig::MAX_BUFFER,
        ..TraceConfig::default()
    };
    let (bytes, taken_at) = drive(&module, 100_000, cfg.clone());
    let table = WalkTable::build(&module);

    let mut g = c.benchmark_group("walk-table");
    g.bench_function("table build", |b| {
        b.iter(|| black_box(WalkTable::build(&module)))
    });
    g.bench_function("interpreted one-shot (pool drained)", |b| {
        b.iter(|| {
            drain_event_pool();
            black_box(decode_thread_trace(&index, &cfg, &bytes, taken_at).expect("decode"))
        })
    });
    g.bench_function("compiled one-shot (pool drained)", |b| {
        b.iter(|| {
            drain_event_pool();
            black_box(
                decode_thread_trace_compiled(&index, &table, &cfg, &bytes, taken_at)
                    .expect("decode"),
            )
        })
    });
    g.bench_function("interpreted steady (recycled buffers)", |b| {
        b.iter(|| {
            let t = decode_thread_trace(&index, &cfg, &bytes, taken_at).expect("decode");
            let n = t.events.len();
            recycle_events(t);
            black_box(n)
        })
    });
    g.bench_function("compiled steady (warm table, recycled buffers)", |b| {
        b.iter(|| {
            let t = decode_thread_trace_compiled(&index, &table, &cfg, &bytes, taken_at)
                .expect("decode");
            let n = t.events.len();
            recycle_events(t);
            black_box(n)
        })
    });
    g.finish();
}

fn bench_diagnose(c: &mut Criterion) {
    let s = lazy_workloads::scenario_by_id("pbzip2-na-1").expect("scenario");
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let col = client.collect(0, 400, 10, 0).expect("collect");

    c.bench_function("end-to-end diagnose (1 failing + 10 successful)", |b| {
        b.iter(|| {
            black_box(
                server
                    .diagnose(&col.failure, &col.failing, &col.successful)
                    .expect("diagnose"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_points_to, bench_trace_decode, bench_decode_paths, bench_decode_scan,
        bench_walk_table, bench_diagnose
}
criterion_main!(benches);
