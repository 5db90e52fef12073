//! Trace-decode throughput: legacy vs fused vs compiled vs adaptive.
//!
//! The diagnosis pipeline spends its first stage turning raw per-thread
//! packet bytes into [`DecodedTrace`]s. This bench measures that stage
//! in isolation on a synthetic multi-megabyte, multi-thread snapshot
//! (the large-buffer driver regime; corpus snapshots are capped at the
//! paper's 64 KB rings and too small to show shard-level parallelism).
//!
//! Two operating points are measured, because the decoder's cost is
//! dominated by *event output* (the decoded event vectors are tens of
//! megabytes; faulting fresh pages for them every decode is ~40% of
//! decode time on this workload):
//!
//! * **one-shot** — a cold decode with nothing cached: no walk table,
//!   an empty event-buffer pool. This is exactly the pre-walk-table
//!   decoder, and the baseline every gate compares against.
//! * **steady state** — the server's serving-loop regime: the
//!   per-module [`WalkTable`] already built (the cross-job cache), and
//!   the event-buffer pool primed because every consumed trace was
//!   recycled ([`recycle_events`]), exactly as `process_snapshot_view`
//!   does after aggregating each thread's events.
//!
//! Measurements per round:
//!
//! * **sequential (legacy)** — the original three-pass decoder
//!   (packetize, clock recovery, CFG walk), one stream at a time;
//! * **sequential (fused)** — the one-shot single streaming pass with
//!   the interpreted walk — the gate baseline;
//! * **compiled cold** — walk-table build plus a first (pool-empty)
//!   compiled decode: the price of the first job on a fresh server;
//! * **fused steady / compiled warm** — the interpreted and compiled
//!   passes in steady state, adjacent so their ratio isolates the walk
//!   table itself from buffer reuse;
//! * **sharded adaptive** — the production path: thread streams fanned
//!   out on `lazy_trace::fan_out` exactly as `process_snapshot_view`
//!   does, each stream routed by `decode_thread_trace_adaptive`
//!   (fused for small inputs and lone cores, PSB-sharded otherwise);
//! * **sharded forced** — adaptive with a shard target small enough
//!   that every stream actually shards, so the shard machinery and its
//!   counters are exercised even on a 1-core box.
//!
//! Every decode is checked against the legacy reference — identical
//! events, resync counts, and dropped-CYC counts — so the numbers are
//! for a decoder that is *provably* a pure optimization.
//!
//! Three gates, written to `BENCH_decode.json` under `gates` with the
//! detected core count (min-of-rounds times throughout):
//!
//! * **one_core** (always enforced): the adaptive production path must
//!   not lose to the fused pass *at the same operating point* —
//!   `sharded_adaptive >= fused_steady` within a small documented
//!   noise floor, evaluated as the median of per-rep adjacent paired
//!   ratios with the measurement order alternated, so both cross-round
//!   machine drift and within-round position bias cancel. On a 1-core
//!   box adaptive routes every stream to the fused pass (and bypasses
//!   an unprofitable walk table), so this pins the routing overhead at
//!   zero; on a multi-core box sharding must still win.
//! * **multi_core** (enforced at >= 4 cores, else skipped): adaptive
//!   must reach >= 2x over the one-shot fused baseline.
//! * **walk_table** (always enforced): steady-state compiled decode
//!   (warm table + primed pool) must reach >= 1.3x over the one-shot
//!   interpreted fused baseline — the before/after of this
//!   optimization as a server experiences it. The same-operating-point
//!   ratio (`compiled_warm` vs `fused_steady`) is reported unguarded
//!   in `speedup.warm_vs_fused_steady` for honesty: buffer reuse
//!   contributes the larger share on this short-block workload.
//!
//! A second, **corpus-shaped** lane measures what the daemon actually
//! decodes: `mysql-3596` reports (11 snapshots of 4 threads, a few
//! hundred bytes and ~2k events per thread). It times the per-thread
//! stream decoder alone and full snapshot processing (decode plus
//! aggregation) over the same snapshots, one worker, warm walk table
//! and primed pool, and reports both per decoded event under `corpus`.
//! On this input aggregation, not the stream decoder, is the stage to
//! watch.
//!
//! Usage: `decode [--threads N] [--iters N] [--rounds N] [--out PATH] [--fast]`

use lazy_bench::synth::{drive, looped_module};
use lazy_bench::{collect_corpus, server_for, stats};
use lazy_snorlax::processing::process_snapshot_view;
use lazy_snorlax::ServerConfig;
use lazy_trace::{
    decode_thread_trace, decode_thread_trace_adaptive, decode_thread_trace_compiled,
    decode_thread_trace_legacy, drain_event_pool, fan_out, recycle_events, DecodedTrace, ExecIndex,
    SnapshotView, TraceConfig, TraceSnapshot, WalkTable,
};
use std::time::Instant;

/// Parity tolerance for the `one_core` gate. On one core the adaptive
/// router and the fused pass call the *same* `#[inline(never)]`
/// `decode_stream` copy, so the true ratio is 1.0 by construction; at
/// bench measurement durations (a few ms per sample in `--fast` mode)
/// scheduler jitter moves individual paired ratios by +/-10% and the
/// median of ~20 of them still wanders a couple of percent around
/// parity. The gate therefore requires parity within this floor. Any
/// real routing regression — sharding a 1-core box, walking an
/// unprofitable table — costs far more than 3% and still trips it.
const ONE_CORE_NOISE_FLOOR: f64 = 0.97;

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

/// Decodes all thread streams the way the server's
/// `process_snapshot_view` does: whole streams fan out over the idle
/// cores (the caller is one of them, and a lone core never spawns),
/// and each stream routes adaptively across the budget it finds idle
/// when it starts (`inner == 0`) or across exactly `inner` workers.
fn decode_parallel(
    index: &ExecIndex,
    table: Option<&WalkTable>,
    cfg: &TraceConfig,
    streams: &[(Vec<u8>, u64)],
    inner: usize,
) -> Vec<DecodedTrace> {
    fan_out(streams, 0, |(bytes, taken_at)| {
        decode_thread_trace_adaptive(index, table, cfg, bytes, *taken_at, inner)
    })
    .into_iter()
    .map(|r| {
        r.expect("decode worker panicked")
            .expect("synthetic stream decodes")
    })
    .collect()
}

/// Compares against the legacy reference, then recycles the decoded
/// buffers — the consume-then-recycle step of the serving loop.
fn assert_matches(reference: &[DecodedTrace], got: Vec<DecodedTrace>, label: &str) {
    for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
        assert_eq!(r.events, g.events, "{label}: thread {i} events diverged");
        assert_eq!(r.resyncs, g.resyncs, "{label}: thread {i} resyncs diverged");
        assert_eq!(
            r.cyc_dropped, g.cyc_dropped,
            "{label}: thread {i} dropped-CYC diverged"
        );
    }
    for g in got {
        recycle_events(g);
    }
}

/// What the corpus-shaped lane measured.
struct CorpusLane {
    snapshots: usize,
    threads_per_snapshot: f64,
    bytes_per_thread: f64,
    events_per_thread: f64,
    decode_ns_per_event: f64,
    aggregate_ns_per_event: f64,
    retained_bytes_per_trace: f64,
}

/// Times the stream decoder alone against `process_snapshot_view` over
/// `reports` collected `mysql-3596` reports: `reps` passes over every
/// snapshot per measurement, min of `rounds`, with the order of the
/// two measurements alternating per round.
fn corpus_lane(reports: usize, reps: usize, rounds: usize) -> CorpusLane {
    let s = lazy_workloads::scenario_by_id("mysql-3596").expect("corpus bug");
    let server = server_for(&s);
    let collections = collect_corpus(&server, reports, 600);
    let reports: Vec<Vec<SnapshotView<'_>>> = collections
        .iter()
        .map(|c| {
            c.failing
                .iter()
                .chain(&c.successful)
                .map(TraceSnapshot::view)
                .collect()
        })
        .collect();
    let views: Vec<&SnapshotView<'_>> = reports.iter().flatten().collect();
    let cfg = ServerConfig::default().trace;
    let index = ExecIndex::build(&s.module);
    let table = WalkTable::build(&s.module);

    let decode_pass = || {
        let mut events = 0usize;
        for v in &views {
            for t in &v.threads {
                let d = decode_thread_trace_adaptive(
                    &index,
                    Some(&table),
                    &cfg,
                    t.bytes,
                    v.taken_at,
                    1,
                )
                .expect("corpus stream decodes");
                events += d.events.len();
                recycle_events(d);
            }
        }
        events
    };
    // Like the daemon, a report's traces stay alive together and are
    // dropped when the next report starts.
    let process_report = |views: &[SnapshotView<'_>]| {
        views
            .iter()
            .map(|v| {
                process_snapshot_view(&s.module, &index, Some(&table), &cfg, v, 1)
                    .expect("corpus snapshot processes")
            })
            .collect::<Vec<_>>()
    };
    let process_pass = || {
        for r in &reports {
            drop(process_report(r));
        }
    };
    let traces: Vec<_> = reports.iter().flat_map(|r| process_report(r)).collect();
    let events = decode_pass();
    assert_eq!(
        events,
        traces.iter().map(|t| t.event_count).sum::<usize>(),
        "processing keeps every decoded event"
    );
    let retained: usize = traces.iter().map(|t| t.retained_bytes()).sum();
    drop(traces);

    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    let (mut decode_s, mut process_s) = (f64::INFINITY, f64::INFINITY);
    let decode_only = || {
        decode_pass();
    };
    for round in 0..rounds {
        if round % 2 == 0 {
            decode_s = decode_s.min(time(&decode_only));
            process_s = process_s.min(time(&process_pass));
        } else {
            process_s = process_s.min(time(&process_pass));
            decode_s = decode_s.min(time(&decode_only));
        }
    }
    let threads: usize = views.iter().map(|v| v.threads.len()).sum();
    let bytes: usize = views
        .iter()
        .flat_map(|v| &v.threads)
        .map(|t| t.bytes.len())
        .sum();
    let per_event = |secs: f64| secs * 1e9 / (reps * events) as f64;
    CorpusLane {
        snapshots: views.len(),
        threads_per_snapshot: threads as f64 / views.len() as f64,
        bytes_per_thread: bytes as f64 / threads as f64,
        events_per_thread: events as f64 / threads as f64,
        decode_ns_per_event: per_event(decode_s),
        aggregate_ns_per_event: per_event(process_s - decode_s),
        retained_bytes_per_trace: retained as f64 / views.len() as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let threads = opt(&args, "--threads", 4);
    let iters = opt(&args, "--iters", if fast { 20_000 } else { 400_000 });
    // Fast mode's streams are small enough that scheduler noise swamps
    // single measurements; more (cheap) rounds let min-of-rounds
    // converge for the like-for-like one_core gate.
    let rounds = opt(&args, "--rounds", if fast { 6 } else { 4 });
    let out_path = opt_str(&args, "--out", "BENCH_decode.json");
    let cores = lazy_trace::core_count();

    let module = looped_module();
    let index = ExecIndex::build(&module);
    let cfg = TraceConfig {
        // Large-buffer driver regime: keep the whole stream.
        buffer_size: TraceConfig::MAX_BUFFER,
        ..TraceConfig::default()
    };
    // The forced variant shrinks the shard target so even the fast
    // workload's streams split — shard routing parameters do not affect
    // decode output, only which machinery produces it.
    let cfg_forced = TraceConfig {
        decode_shard_min_bytes: 1024,
        decode_shard_target_bytes: 16 * 1024,
        ..cfg.clone()
    };
    // Slightly different lengths per thread so the pool sees the
    // uneven stream sizes a real snapshot has.
    let streams: Vec<(Vec<u8>, u64)> = (0..threads)
        .map(|tid| drive(&module, iters as u64 + tid as u64 * 97, cfg.clone()))
        .collect();
    let total_bytes: usize = streams.iter().map(|(b, _)| b.len()).sum();
    println!(
        "trace decode: {} threads x {} iters = {:.1} MB total, {} rounds, {} cores",
        threads,
        iters,
        total_bytes as f64 / (1024.0 * 1024.0),
        rounds,
        cores
    );

    // Reference output (also warms the allocator so round 1 is not
    // penalized).
    let reference: Vec<DecodedTrace> = streams
        .iter()
        .map(|(b, t)| decode_thread_trace_legacy(&index, &cfg, b, *t).expect("decode"))
        .collect();
    // The warm table the steady-state measurements share — built once,
    // as in the server's cross-job cache.
    let table = WalkTable::build(&module);

    let mut legacy = Vec::new();
    let mut fused = Vec::new();
    let mut build = Vec::new();
    let mut cold = Vec::new();
    let mut fused_steady = Vec::new();
    let mut warm = Vec::new();
    let mut adaptive = Vec::new();
    let mut forced = Vec::new();
    // Per-rep adjacent fused/adaptive ratios for the one_core gate.
    let mut paired: Vec<f64> = Vec::new();
    for round in 0..rounds {
        // --- One-shot operating point: nothing cached. -------------
        let t = Instant::now();
        let out: Vec<DecodedTrace> = streams
            .iter()
            .map(|(b, at)| decode_thread_trace_legacy(&index, &cfg, b, *at).expect("decode"))
            .collect();
        legacy.push(t.elapsed().as_secs_f64());
        for (r, g) in reference.iter().zip(&out) {
            assert_eq!(r.events, g.events, "legacy self-check");
        }
        drop(out); // the legacy pass pre-dates the pool: no recycle

        drain_event_pool();
        let t = Instant::now();
        let out: Vec<DecodedTrace> = streams
            .iter()
            .map(|(b, at)| decode_thread_trace(&index, &cfg, b, *at).expect("decode"))
            .collect();
        fused.push(t.elapsed().as_secs_f64());
        for (r, g) in reference.iter().zip(&out) {
            assert_eq!(r.events, g.events, "fused one-shot");
        }
        drop(out); // one-shot: buffers are not recycled

        let t = Instant::now();
        let fresh = WalkTable::build(&module);
        build.push(t.elapsed().as_secs_f64());
        drain_event_pool();
        let out: Vec<DecodedTrace> = streams
            .iter()
            .map(|(b, at)| {
                decode_thread_trace_compiled(&index, &fresh, &cfg, b, *at).expect("decode")
            })
            .collect();
        cold.push(t.elapsed().as_secs_f64());
        assert_matches(&reference, out, "compiled cold");

        // --- Steady state: warm table, primed pool. ----------------
        // (The compiled-cold decodes above already recycled their
        // buffers, priming the pool as a serving loop would.)
        //
        // The one_core gate pairs the fused-steady and adaptive samples
        // from the same round so slow machine drift cancels out of
        // their ratio — and alternates which runs first, because with
        // hundreds of megabytes of event buffers churning per
        // measurement, the *position* in the round carries its own
        // allocator/reclaim bias that pairing alone cannot cancel.
        let run_fused_steady = || {
            let t = Instant::now();
            let out: Vec<DecodedTrace> = streams
                .iter()
                .map(|(b, at)| decode_thread_trace(&index, &cfg, b, *at).expect("decode"))
                .collect();
            let dt = t.elapsed().as_secs_f64();
            assert_matches(&reference, out, "fused steady");
            dt
        };
        let run_adaptive = || {
            let t = Instant::now();
            let out = decode_parallel(&index, Some(&table), &cfg, &streams, 0);
            let dt = t.elapsed().as_secs_f64();
            assert_matches(&reference, out, "sharded adaptive");
            dt
        };
        // K paired reps per round, order alternating per rep. Each
        // rep's two measurements are adjacent (milliseconds apart), so
        // one rep's f/a ratio carries almost no machine drift; the
        // ratio — never the sides independently — is what enters the
        // gate, and alternation makes the residual first-vs-second
        // position bias cancel in the median over all reps. Min-of-reps
        // per side is kept only for the reported absolute seconds.
        const PAIR_REPS: usize = 3;
        let mut best_f = f64::INFINITY;
        let mut best_a = f64::INFINITY;
        for rep in 0..PAIR_REPS {
            let (f, a) = if (round + rep) % 2 == 0 {
                let f = run_fused_steady();
                let a = run_adaptive();
                (f, a)
            } else {
                let a = run_adaptive();
                let f = run_fused_steady();
                (f, a)
            };
            paired.push(f / a);
            best_f = best_f.min(f);
            best_a = best_a.min(a);
        }
        fused_steady.push(best_f);
        adaptive.push(best_a);

        let t = Instant::now();
        let out: Vec<DecodedTrace> = streams
            .iter()
            .map(|(b, at)| {
                decode_thread_trace_compiled(&index, &table, &cfg, b, *at).expect("decode")
            })
            .collect();
        warm.push(t.elapsed().as_secs_f64());
        assert_matches(&reference, out, "compiled warm");

        let t = Instant::now();
        let out = decode_parallel(&index, Some(&table), &cfg_forced, &streams, 2);
        forced.push(t.elapsed().as_secs_f64());
        assert_matches(&reference, out, "sharded forced");
    }

    let (legacy_s, fused_s, build_s, cold_s, fsteady_s, warm_s, adaptive_s, forced_s) = (
        stats::mean(&legacy),
        stats::mean(&fused),
        stats::mean(&build),
        stats::mean(&cold),
        stats::mean(&fused_steady),
        stats::mean(&warm),
        stats::mean(&adaptive),
        stats::mean(&forced),
    );
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let mb = total_bytes as f64 / (1024.0 * 1024.0);
    println!("--");
    println!(
        "sequential (legacy)  {:>9.1} ms   {:>7.1} MB/s",
        legacy_s * 1000.0,
        mb / legacy_s
    );
    println!(
        "sequential (fused)   {:>9.1} ms   {:>7.1} MB/s   ({:.2}x vs legacy)",
        fused_s * 1000.0,
        mb / fused_s,
        legacy_s / fused_s
    );
    println!(
        "compiled (cold)      {:>9.1} ms   {:>7.1} MB/s   (table build {:.2} ms)",
        cold_s * 1000.0,
        mb / cold_s,
        build_s * 1000.0
    );
    println!(
        "fused (steady)       {:>9.1} ms   {:>7.1} MB/s   (pool primed)",
        fsteady_s * 1000.0,
        mb / fsteady_s
    );
    println!(
        "compiled (warm)      {:>9.1} ms   {:>7.1} MB/s   ({:.2}x vs one-shot fused)",
        warm_s * 1000.0,
        mb / warm_s,
        fused_s / warm_s
    );
    println!(
        "sharded adaptive     {:>9.1} ms   {:>7.1} MB/s   ({:.2}x vs one-shot fused)",
        adaptive_s * 1000.0,
        mb / adaptive_s,
        fused_s / adaptive_s
    );
    println!(
        "sharded forced       {:>9.1} ms   {:>7.1} MB/s   ({:.2}x vs one-shot fused)",
        forced_s * 1000.0,
        mb / forced_s,
        fused_s / forced_s
    );

    let corpus = if fast {
        corpus_lane(1, 5, 3)
    } else {
        corpus_lane(4, 20, 5)
    };
    println!("--");
    println!(
        "corpus lane (mysql-3596): {} snapshots x {:.1} threads, {:.0} B and {:.0} events per thread",
        corpus.snapshots,
        corpus.threads_per_snapshot,
        corpus.bytes_per_thread,
        corpus.events_per_thread
    );
    println!(
        "  decode {:.1} ns/event, aggregation {:.1} ns/event, {:.0} B retained per trace",
        corpus.decode_ns_per_event, corpus.aggregate_ns_per_event, corpus.retained_bytes_per_trace
    );

    // Gates evaluate on min-of-rounds (the standard anti-noise choice).
    // The one_core gate compares two runs of the *same* code path
    // (adaptive routes to fused on one core), so independent mins still
    // carry cross-round drift; it uses the median of the per-rep
    // adjacent paired ratios instead (mean of the middle two for even
    // counts, so the alternating-order bias cancels exactly).
    // `seconds` reports means for continuity with earlier artifacts.
    let raw_paired = paired.clone();
    paired.sort_by(f64::total_cmp);
    let m = paired.len() / 2;
    let one_core_x = if paired.len().is_multiple_of(2) {
        (paired[m - 1] + paired[m]) / 2.0
    } else {
        paired[m]
    };
    assert!(
        one_core_x >= ONE_CORE_NOISE_FLOOR,
        "gate one_core: adaptive decode must hold parity with the fused pass at the same \
         operating point, >= {ONE_CORE_NOISE_FLOOR}x within the measurement noise floor \
         (got {one_core_x:.3}x median paired ratio; per-rep {raw_paired:.3?})"
    );
    println!(
        "gate one_core (adaptive >= {ONE_CORE_NOISE_FLOOR}x fused steady, any core count): \
         PASS ({one_core_x:.2}x median, per-rep {raw_paired:.3?})"
    );
    let multi_x = min(&fused) / min(&adaptive);
    let multi_status = if cores >= 4 {
        assert!(
            multi_x >= 2.0,
            "gate multi_core: sharded adaptive must be >=2x one-shot fused on >=4 cores \
             (got {multi_x:.2}x)"
        );
        println!("gate multi_core (>=2x on >=4 cores): PASS ({multi_x:.2}x)");
        "pass"
    } else {
        println!(
            "gate multi_core (>=2x on >=4 cores): SKIPPED — {cores} core(s) available, \
             parallel term absent ({multi_x:.2}x measured)"
        );
        "skipped"
    };
    let table_x = min(&fused) / min(&warm);
    // The ratio's numerator (one-shot fused, drained pool) is dominated
    // by fresh page allocation, which carries run-level allocator noise
    // that min-of-rounds cannot average away at fast mode's ~10 ms
    // measurements; the full workload measures this gate with ~20x the
    // signal. The smoke keeps a floor that still catches a broken pool
    // or a deoptimized compiled walk.
    let table_floor = if fast { 1.1 } else { 1.3 };
    assert!(
        table_x >= table_floor,
        "gate walk_table: steady-state compiled decode must be >={table_floor}x one-shot \
         interpreted fused (got {table_x:.3}x)"
    );
    println!(
        "gate walk_table (compiled warm >= {table_floor}x one-shot fused): PASS ({table_x:.2}x)"
    );

    // Per-stage telemetry accumulated over every decode above: the
    // decoder's own spans (decode.stream, decode.shard.skim /
    // .speculate / .stitch), the adaptive routing counters
    // (decode.shard.routed_fused / routed_sharded), and the walk-table
    // counters (decode.walk_table.build / hit). Empty object when built
    // with --no-default-features — that build measures the zero-cost
    // path.
    let telemetry = lazy_obs::snapshot();
    let telemetry_enabled = cfg!(feature = "telemetry");
    let json = format!(
        "{{\n  \"bench\": \"decode\",\n  \"workload\": {{\n    \"threads\": {threads},\n    \
         \"iters_per_thread\": {iters},\n    \"total_bytes\": {total_bytes},\n    \
         \"psb_period_bytes\": {psb}\n  }},\n  \"machine\": {{ \"cores\": {cores} }},\n  \
         \"rounds\": {rounds},\n  \"seconds\": {{\n    \"sequential_legacy\": {legacy_s:.6},\n    \
         \"sequential_fused\": {fused_s:.6},\n    \"walk_table_build\": {build_s:.6},\n    \
         \"compiled_cold\": {cold_s:.6},\n    \"fused_steady\": {fsteady_s:.6},\n    \
         \"compiled_warm\": {warm_s:.6},\n    \
         \"sharded_adaptive\": {adaptive_s:.6},\n    \"sharded_forced\": {forced_s:.6}\n  }},\n  \
         \"speedup\": {{\n    \"fused_vs_legacy\": {f_vs_l:.3},\n    \
         \"compiled_vs_fused\": {c_vs_f:.3},\n    \"warm_vs_fused_steady\": {w_vs_fs:.3},\n    \
         \"sharded_vs_fused\": {s_vs_f:.3},\n    \
         \"forced_vs_fused\": {fo_vs_f:.3},\n    \"sharded_vs_legacy\": {s_vs_l:.3}\n  }},\n  \
         \"gates\": {{\n    \"cores_detected\": {cores},\n    \
         \"one_core\": {{\n      \"required\": \"sharded_adaptive >= \
         {ONE_CORE_NOISE_FLOOR}x fused_steady (median of order-alternated per-rep \
         paired ratios, parity within noise floor, any core count)\",\n      \
         \"status\": \"pass\",\n      \
         \"measured\": {one_core_x:.3}\n    }},\n    \
         \"multi_core\": {{\n      \"required\": \">=2x sharded_adaptive vs one-shot \
         sequential_fused on >=4 cores\",\n      \"status\": \"{multi_status}\",\n      \
         \"measured\": {multi_x:.3}\n    }},\n    \
         \"walk_table\": {{\n      \"required\": \">={table_floor}x compiled_warm (steady \
         state) vs one-shot sequential_fused (min-of-rounds)\",\n      \"status\": \"pass\",\n      \
         \"measured\": {table_x:.3}\n    }}\n  }},\n  \
         \"corpus\": {{\n    \"bug\": \"mysql-3596\",\n    \"snapshots\": {c_snaps},\n    \
         \"threads_per_snapshot\": {c_threads:.2},\n    \"bytes_per_thread\": {c_bytes:.1},\n    \
         \"events_per_thread\": {c_events:.1},\n    \"decode_ns_per_event\": {c_decode:.2},\n    \
         \"aggregate_ns_per_event\": {c_agg:.2},\n    \
         \"retained_bytes_per_trace\": {c_retained:.0}\n  }},\n  \
         \"telemetry_enabled\": {telemetry_enabled},\n  \"telemetry\": {telemetry_json}\n}}\n",
        psb = cfg.psb_period_bytes,
        f_vs_l = legacy_s / fused_s,
        c_vs_f = fused_s / warm_s,
        w_vs_fs = fsteady_s / warm_s,
        s_vs_f = fused_s / adaptive_s,
        fo_vs_f = fused_s / forced_s,
        s_vs_l = legacy_s / adaptive_s,
        c_snaps = corpus.snapshots,
        c_threads = corpus.threads_per_snapshot,
        c_bytes = corpus.bytes_per_thread,
        c_events = corpus.events_per_thread,
        c_decode = corpus.decode_ns_per_event,
        c_agg = corpus.aggregate_ns_per_event,
        c_retained = corpus.retained_bytes_per_trace,
        telemetry_json = telemetry.to_json().trim_end(),
    );
    std::fs::write(&out_path, json).expect("write bench output");
    println!("wrote {out_path}");
}
