//! The repository's benchmark: three serving workloads driven against
//! `snorlax serve` daemons in their own processes, every reply checked,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced in-process replay of the same inputs. See `README.md` beside
//! this package for the workloads, metrics and how to run it.
//!
//! ```text
//! perfbench --snorlax PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --snorlax PATH --workload all --seed N --seconds S
//! perfbench --snorlax PATH --selftest
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod daemon;
mod inputs;
mod replay;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["diagnose-open", "batch-shared", "stream-converge"];

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports all of them. Latency, throughput and time to a diagnosis are
/// per-layer metrics of the load generator (see `workloads::EndToEnd`).
const END_TO_END: [(&str, &str); 5] = [
    ("server_cpu_ms_per_report", "ms"),
    ("reports_to_converge", "count"),
    ("root_cause_accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units. A layer the workload
/// does not exercise reports 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("daemon.wait_p50_ms", "ms"),
    ("daemon.wait_p90_ms", "ms"),
    ("daemon.busy_total", "count"),
    ("daemon.timeouts_total", "count"),
    ("daemon.corrupt_total", "count"),
    ("wire.decode_us", "us"),
    ("wire.bytes", "B"),
    ("decoder.busy_us", "us"),
    ("decoder.events", "count"),
    ("decoder.failed_threads", "count"),
    ("decoder.walk_table_hit_ratio", "ratio"),
    ("decoder.sharded_share", "ratio"),
    ("processing.busy_us", "us"),
    ("processing.aggregate_us", "us"),
    ("processing.share", "ratio"),
    ("pointsto.busy_us", "us"),
    ("pointsto.scope_insts", "count"),
    ("pointsto.cache_exact_ratio", "ratio"),
    ("candidates.busy_us", "us"),
    ("candidates.ranked", "count"),
    ("patterns.busy_us", "us"),
    ("patterns.generated", "count"),
    ("statistics.busy_us", "us"),
    ("statistics.merge_us", "us"),
    ("server.busy_us", "us"),
    ("server.unexplained_share", "ratio"),
    ("batch.busy_us", "us"),
    ("batch.failed_jobs", "count"),
    ("batch.dedup_ratio", "ratio"),
    ("batch.cache_exact_ratio", "ratio"),
    ("streaming.fold_us", "us"),
    ("streaming.rescore_us", "us"),
    ("streaming.finish_us", "us"),
    ("streaming.rejected", "count"),
    ("streaming.retained_traces", "count"),
    ("streaming.early_exit_share", "ratio"),
    ("fleet.route_us", "us"),
    ("fleet.collect_us", "us"),
    ("fleet.patterns_us", "us"),
    ("fleet.finalize_us", "us"),
    ("fleet.failed_shards", "count"),
    ("fleet.wire_overhead_ms", "ms"),
    ("fleet.cache_exact_ratio", "ratio"),
    ("loadgen.latency_p50_ms", "ms"),
    ("loadgen.latency_p90_ms", "ms"),
    ("loadgen.throughput_rps", "1/s"),
    ("loadgen.diagnosis_time_p50_ms", "ms"),
    ("loadgen.diagnosis_time_p90_ms", "ms"),
    ("loadgen.setup_wall_s", "s"),
    ("loadgen.late_p90_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.requests", "count"),
    ("input.events_per_report", "count"),
    ("input.bytes_per_report", "B"),
    ("input.repeat_share_request", "ratio"),
    ("input.repeat_share_run", "ratio"),
    ("input.executed_repeat_share", "ratio"),
];

fn run(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "diagnose-open" => workloads::diagnose_open(ctx),
        "batch-shared" => workloads::batch_shared(ctx),
        "stream-converge" => workloads::stream_converge(ctx),
        other => Err(format!(
            "unknown workload {other:?} (one of {WORKLOADS:?} or all)"
        )),
    }
}

/// The result line: every metric of the run's kind, by name and unit.
fn result_json(out: &Outcome, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// The load generator's figures (wall-clock latency, throughput and time
/// to a diagnosis among them), which the traced run reports as per-layer
/// metrics: shown on every run, so an untraced run shows them too.
fn load_generator(out: &Outcome) -> String {
    PER_LAYER
        .iter()
        .filter(|(name, _)| name.starts_with("loadgen."))
        .filter_map(|(name, unit)| Some(format!("{name} {:.4} {unit}", out.metrics.get(name)?)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Short runs of every workload that prove the harness works: each
/// completes, prints every named metric with its unit and the request
/// counts, and counts a deliberately altered render as failed.
fn selftest(snorlax: PathBuf) -> Result<(), String> {
    let manifest =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !manifest.contains(&declared) {
            return Err(format!("BENCHMARK.json does not declare {name} in {unit}"));
        }
    }
    for w in WORKLOADS {
        if !manifest.contains(&format!("\"name\": \"{w}\"")) {
            return Err(format!("BENCHMARK.json does not declare workload {w}"));
        }
        let ctx = Ctx {
            snorlax: snorlax.clone(),
            seed: 1,
            seconds: 1.5,
            trace: true,
            spans_dir: None,
            tamper: true,
        };
        let out = run(&ctx, w)?;
        for trace in [false, true] {
            let line = result_json(&out, trace);
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in names {
                let printed = format!("\"{name}\": {{\"value\": ");
                if !line.contains(&printed) || !line.contains(&format!("\"unit\": \"{unit}\"")) {
                    return Err(format!("{w}: {name} is not printed with unit {unit}"));
                }
                if !out.metrics.contains_key(name) && !trace {
                    return Err(format!("{w}: end-to-end metric {name} was not measured"));
                }
            }
            if !line.contains("\"attempted\": ") || !line.contains("\"failed\": ") {
                return Err(format!("{w}: request counts missing"));
            }
        }
        if out.attempted < 2 || out.failed != 1 {
            return Err(format!(
                "{w}: expected exactly the altered reply of {} to fail, {} failed",
                out.attempted, out.failed
            ));
        }
        eprintln!(
            "selftest {w}: ok ({} requests, the altered render failed)",
            out.attempted
        );
    }
    Ok(())
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(snorlax) = arg(&args, "--snorlax").map(PathBuf::from) else {
        eprintln!("usage: perfbench --snorlax PATH (--selftest | --workload NAME --seed N --seconds S --trace 0|1)");
        return ExitCode::from(2);
    };
    if args.iter().any(|a| a == "--selftest") {
        return match selftest(snorlax) {
            Ok(()) => {
                println!("selftest: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("selftest failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = (|| -> Result<(String, Ctx), String> {
        let workload = arg(&args, "--workload")
            .ok_or("--workload is required")?
            .to_string();
        let num = |name: &str, default: &str| -> Result<f64, String> {
            arg(&args, name)
                .unwrap_or(default)
                .parse::<f64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        let seed = num("--seed", "1")?;
        let seconds = num("--seconds", "8")?;
        if !(0.0..4_294_967_296.0).contains(&seed) || seed.fract() != 0.0 {
            return Err("--seed must be a whole number below 2^32".into());
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok((
            workload,
            Ctx {
                spans_dir: snorlax.parent().map(|d| d.join("perfbench-spans")),
                snorlax,
                seed: seed as u64,
                seconds,
                trace: num("--trace", "0")? != 0.0,
                tamper: false,
            },
        ))
    })();
    let (workload, ctx) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut correct = true;
    for w in names {
        match run(&ctx, w) {
            Ok(out) => {
                if !ctx.trace {
                    eprintln!(
                        "perfbench: {w} load generator (unbounded): {}",
                        load_generator(&out)
                    );
                }
                let line = result_json(&out, ctx.trace);
                if workload == "all" {
                    println!("{w}: {line}");
                } else {
                    println!("{line}");
                }
                correct &= out.correct();
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // A failed operation or an invalid run is reported, then fails the
    // command.
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the run is not correct");
        ExitCode::FAILURE
    }
}
