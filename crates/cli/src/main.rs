//! `snorlax` — command-line front end for the Lazy Diagnosis
//! reproduction.
//!
//! ```text
//! snorlax corpus                      list the bug corpus
//! snorlax diagnose <bug-id> [--seed N]   collect traces and diagnose
//! snorlax replay <bug-id> [--runs N]     record once, replay deterministically
//! snorlax hypothesis <bug-id> [--samples N]   measure inter-event ΔT
//! snorlax trace <bug-id>              dump the failing trace (packets + events)
//! snorlax batch <bug-id> [--reports N]   diagnose many reports of one bug at once
//! ```

use lazy_ir::{parse_module, printer::render_module};
use lazy_replay::Recording;
use lazy_snorlax::{
    interleave_reports, next_stream_session, serve, BatchConfig, BatchJob, CollectionClient,
    CollectionOutcome, DaemonConfig, DiagnosisServer, FleetReport, FleetRouter, RemoteClient,
    ServerConfig, ShardConn, StreamReport,
};
use lazy_vm::{Vm, VmConfig};
use lazy_workloads::{all_scenarios, extension_scenarios, scenario_by_id, BugScenario};
use std::collections::HashSet;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: snorlax <command> [args]\n\n\
         commands:\n\
           corpus                         list the bug corpus\n\
           diagnose <bug-id> [--seed N] [--decode-workers N]\n\
                                          collect traces and print the root cause\n\
                                          (--decode-workers 0 = one per idle core, 1 = sequential)\n\
           replay <bug-id> [--runs N]     record a failing order, replay it deterministically\n\
           hypothesis <bug-id> [--samples N]  measure the inter-event times (coarse hypothesis)\n\
           trace <bug-id>                 dump the failing trace's packets and decoded events\n\
           dump <bug-id>                  print a corpus module in textual IR form\n\
           diagnose-file <path.ir> [--seed N]  diagnose a user-supplied textual IR program\n\
           batch <bug-id> [--reports N] [--seed N] [--workers N] [--no-cache]\n\
                 [--telemetry json|pretty|prom]\n\
                                          collect N failure reports and diagnose them as one batch;\n\
                                          --telemetry prints the batch's per-stage pipeline\n\
                                          telemetry (spans, counters, histograms)\n\
           serve <bug-id> [--port N] [--workers N] [--queue-depth N] [--max-conns N]\n\
                 [--timeout-ms N]\n\
                                          run snorlaxd: serve diagnosis for the bug's module over\n\
                                          TCP (port 0 = ephemeral; the bound address is printed)\n\
           submit <bug-id> --addr HOST:PORT [--reports N] [--seed N]\n\
                                          collect N failure reports and submit them to a running\n\
                                          snorlaxd as one batch\n\
           submit --addr HOST:PORT --health|--shutdown\n\
                                          probe a running snorlaxd, or drain and stop it\n\
           fleet serve-shard <bug-id> [--port N]\n\
                                          run one snorlaxd shard (same daemon, fleet frames on)\n\
           fleet route <bug-id> [--reports K] [--shards N | --addrs H:P,...] [--seed N]\n\
                                          collect K reports of the bug (default 4) and route them\n\
                                          concurrently across N in-process shards (default 2) or\n\
                                          running snorlaxd shards; verifies each report against\n\
                                          single-node diagnosis, prints its failed-shard count and\n\
                                          the per-shard warm-cache statistics, and exits non-zero\n\
                                          when any report diverged or any shard failed\n\
           stream submit <bug-id> --addr HOST:PORT [--seed N] [--session ID] [--keep-open]\n\
                                          collect one failure report locally and stream it to a\n\
                                          snorlaxd session one trace at a time; stops as soon as\n\
                                          the sequential confidence test converges, then\n\
                                          finalizes the session and prints the diagnosis\n\
           stream status --addr HOST:PORT --session ID\n\
                                          probe an open stream session's convergence state\n\
           stream finish --addr HOST:PORT --session ID\n\
                                          finalize a stream session and print its diagnosis"
    );
    ExitCode::from(2)
}

/// Parses `--flag N` style options from the tail of the argument list.
fn opt_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.windows(2)
        .find(|w| w[0] == flag)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

/// Parses a `--flag value` style string option.
fn opt_str<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].as_str())
}

fn find_scenario(id: &str) -> Option<BugScenario> {
    scenario_by_id(id).or_else(|| extension_scenarios().into_iter().find(|s| s.id == id))
}

fn cmd_corpus() -> ExitCode {
    println!("{:<22}{:<14}{:<11}description", "id", "system", "class");
    for s in all_scenarios().iter().chain(extension_scenarios().iter()) {
        println!(
            "{:<22}{:<14}{:<11}{}",
            s.id,
            s.system,
            s.class.label(),
            s.description
        );
    }
    ExitCode::SUCCESS
}

fn cmd_diagnose(id: &str, first_seed: u64, decode_workers: u64) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id} (see `snorlax corpus`)");
        return ExitCode::FAILURE;
    };
    println!("bug: {} — {}\n", s.id, s.description);
    let server = DiagnosisServer::new(
        &s.module,
        ServerConfig {
            decode_workers: decode_workers as usize,
            ..ServerConfig::default()
        },
    );
    let client = CollectionClient::new(&server, VmConfig::default());
    let Some(col) = client.collect(first_seed, 1000, 10, 0) else {
        eprintln!("the bug did not manifest within the run budget");
        return ExitCode::FAILURE;
    };
    println!(
        "observed: {} (run {} of {})",
        col.failure,
        col.failing_seeds[0] - first_seed + 1,
        col.runs
    );
    println!("successful traces collected: {}\n", col.successful.len());
    match server.diagnose(&col.failure, &col.failing, &col.successful) {
        Ok(d) => {
            print!("{}", d.render(&s.module));
            println!("\nserver analysis time: {} µs", d.stats.analysis_micros);
            println!(
                "decode health: {} resyncs, {} CYC deltas dropped before an anchor",
                d.stats.decode_resyncs, d.stats.cyc_dropped
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("diagnosis failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_batch(
    id: &str,
    reports: u64,
    first_seed: u64,
    workers: u64,
    use_cache: bool,
    telemetry: Option<&str>,
) -> ExitCode {
    if let Some(fmt) = telemetry {
        if !matches!(fmt, "json" | "pretty" | "prom") {
            eprintln!("unknown --telemetry format {fmt:?} (expected json, pretty, or prom)");
            return ExitCode::from(2);
        }
    }
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id} (see `snorlax corpus`)");
        return ExitCode::FAILURE;
    };
    println!("bug: {} — {}", s.id, s.description);
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let mut collections: Vec<CollectionOutcome> = Vec::new();
    let mut seed = first_seed;
    while (collections.len() as u64) < reports {
        let Some(col) = client.collect(seed, 1000, 10, 0) else {
            break;
        };
        seed = col.failing_seeds.last().copied().unwrap_or(seed) + 1;
        collections.push(col);
    }
    if collections.is_empty() {
        eprintln!("the bug did not manifest within the run budget");
        return ExitCode::FAILURE;
    }
    println!("collected {} failure reports\n", collections.len());

    let jobs: Vec<BatchJob<'_>> = collections
        .iter()
        .map(|c| BatchJob {
            failure: &c.failure,
            failing: &c.failing,
            successful: &c.successful,
        })
        .collect();
    let cfg = BatchConfig {
        workers: workers as usize,
        use_cache,
    };
    let out = server.diagnose_batch(&jobs, &cfg);
    for (i, d) in out.diagnoses.iter().enumerate() {
        match d {
            Ok(d) => println!(
                "report {i}: root cause [{}] in {} µs (decode {} / points-to {} / patterns {})",
                d.root_cause()
                    .map_or_else(|| "none".to_string(), |s| s.pattern.signature()),
                d.stats.analysis_micros,
                d.stats.decode_micros,
                d.stats.points_to_micros,
                d.stats.pattern_micros
            ),
            Err(e) => println!("report {i}: failed ({e})"),
        }
    }
    let c = out.stats.cache;
    println!(
        "\nbatch: {} jobs on {} workers in {} µs",
        out.stats.jobs, out.stats.workers, out.stats.wall_micros
    );
    if out.stats.failed_jobs > 0 || out.stats.cache_poison_fallbacks > 0 {
        println!(
            "degraded: {} failed jobs ({} from worker panics), \
             {} cache-poison fallback solves",
            out.stats.failed_jobs, out.stats.panicked_jobs, out.stats.cache_poison_fallbacks
        );
    }
    if use_cache {
        println!(
            "points-to cache: {} exact hits, {} delta solves, {} scratch solves \
             ({} insts reused, {} replayed)",
            c.exact_hits, c.delta_solves, c.scratch_solves, c.reused_insts, c.delta_insts
        );
    }
    if let Some(Ok(first)) = out.diagnoses.first() {
        print!("\n{}", first.render(&s.module));
    }
    match telemetry {
        Some("json") => println!("{}", out.telemetry.to_json()),
        Some("pretty") => print!("\n{}", out.telemetry.render_pretty()),
        Some("prom") => print!("\n{}", out.telemetry.render_prometheus()),
        _ => {}
    }
    ExitCode::SUCCESS
}

fn cmd_replay(id: &str, runs: u64) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id}");
        return ExitCode::FAILURE;
    };
    let racing: HashSet<_> = s.targets.iter().copied().collect();
    let Some((out, seed)) = (0..500).find_map(|seed| {
        let out = Vm::run(
            &s.module,
            VmConfig {
                seed,
                ..VmConfig::default()
            },
        );
        out.is_failure().then_some((out, seed))
    }) else {
        eprintln!("the bug did not manifest");
        return ExitCode::FAILURE;
    };
    let Some(failure) = out.failure().cloned() else {
        eprintln!("run reported failure but carried no failure record");
        return ExitCode::FAILURE;
    };
    println!("recorded failing run (seed {seed}): {failure}");
    let Some(snap) = out.snapshot.as_ref() else {
        eprintln!("failing run produced no trace snapshot");
        return ExitCode::FAILURE;
    };
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let trace = match server.process(snap) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot decode the failing snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rec = match Recording::from_processed_trace(&trace, &racing) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot record: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (tid, pc) in rec.order() {
        println!("  thread {tid}: {}", s.module.describe_pc(*pc));
    }
    let mut reproduced = 0u64;
    for replay_seed in (seed + 1)..=(seed + runs) {
        let mut gate = rec.gate();
        let rep = Vm::run_gated(
            &s.module,
            VmConfig {
                seed: replay_seed,
                ..VmConfig::default()
            },
            &mut gate,
        );
        if rep.failure().map(|f| f.pc) == Some(failure.pc) {
            reproduced += 1;
        }
    }
    println!("replayed {runs} fresh seeds: {reproduced} reproduced the exact failure");
    ExitCode::SUCCESS
}

fn cmd_hypothesis(id: &str, samples: u64) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id}");
        return ExitCode::FAILURE;
    };
    let mut deltas = Vec::new();
    let mut seed = 0;
    while (deltas.len() as u64) < samples {
        let Some((out, used)) = s.reproduce(seed, 500) else {
            break;
        };
        seed = used + 1;
        deltas.extend(s.relevant_deltas(&out));
    }
    if deltas.is_empty() {
        eprintln!("no failing runs with complete target events");
        return ExitCode::FAILURE;
    }
    let avg = deltas.iter().sum::<u64>() as f64 / deltas.len() as f64;
    let min = deltas.iter().copied().min().unwrap_or(0);
    println!(
        "{}: {} ΔT samples — avg {:.1} µs, min {:.1} µs (fine-grained recording would need ~1 ns)",
        s.id,
        deltas.len(),
        avg / 1000.0,
        min as f64 / 1000.0
    );
    ExitCode::SUCCESS
}

fn cmd_trace(id: &str) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id}");
        return ExitCode::FAILURE;
    };
    let Some((out, _)) = s.reproduce(0, 500) else {
        eprintln!("the bug did not manifest");
        return ExitCode::FAILURE;
    };
    let Some(failure) = out.failure().cloned() else {
        eprintln!("run reported failure but carried no failure record");
        return ExitCode::FAILURE;
    };
    let Some(snap) = out.snapshot else {
        eprintln!("failing run produced no trace snapshot");
        return ExitCode::FAILURE;
    };
    let wire = lazy_trace::encode_snapshot(&snap);
    println!(
        "failure: {}\nsnapshot: {} threads, {} bytes on the wire\n",
        failure,
        snap.threads.len(),
        wire.len()
    );
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let pt = match server.process(&snap) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot decode the failing snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "decoded: {} events, {} distinct instructions (of {} static), \
         {} resyncs, {} CYC deltas dropped",
        pt.event_count,
        pt.executed.len(),
        s.module.inst_count(),
        pt.resyncs,
        pt.cyc_dropped
    );
    for t in &snap.threads {
        println!(
            "  thread {}: {} control events, {} timing packets, wrapped={}",
            t.tid, t.stats.control_events, t.stats.timing_packets, t.wrapped
        );
    }
    ExitCode::SUCCESS
}

fn cmd_dump(id: &str) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id}");
        return ExitCode::FAILURE;
    };
    print!("{}", render_module(&s.module));
    ExitCode::SUCCESS
}

fn cmd_diagnose_file(path: &str, first_seed: u64) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let module = match parse_module(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if module.func_by_name("main").is_none() {
        eprintln!("{path}: the program needs a zero-argument @main");
        return ExitCode::FAILURE;
    }
    println!(
        "loaded {} ({} instructions)\n",
        module.name,
        module.inst_count()
    );
    let server = DiagnosisServer::new(&module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let Some(col) = client.collect(first_seed, 1000, 10, 0) else {
        eprintln!("no failure manifested within the run budget");
        return ExitCode::FAILURE;
    };
    println!("observed: {}", col.failure);
    match server.diagnose(&col.failure, &col.failing, &col.successful) {
        Ok(d) => {
            print!("{}", d.render(&module));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("diagnosis failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(id: &str, args: &[String]) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id} (see `snorlax corpus`)");
        return ExitCode::FAILURE;
    };
    let port = opt_u64(args, "--port", 0);
    let cfg = DaemonConfig {
        workers: opt_u64(args, "--workers", 0) as usize,
        queue_depth: opt_u64(args, "--queue-depth", 64) as usize,
        max_connections: opt_u64(args, "--max-conns", 64) as usize,
        request_timeout: std::time::Duration::from_millis(opt_u64(args, "--timeout-ms", 30_000)),
        ..DaemonConfig::default()
    };
    let listener = match std::net::TcpListener::bind(("127.0.0.1", port as u16)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind 127.0.0.1:{port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        // The exact phrasing is load-bearing: scripts/ci.sh greps the
        // bound address out of this line to find the ephemeral port.
        Ok(addr) => println!("snorlaxd listening on {addr} (module {})", s.id),
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The accept loop below blocks; make sure the address line is out.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match serve(&listener, &s.module, &cfg) {
        Ok(stats) => {
            println!(
                "snorlaxd drained: {} connections, {} requests, {} busy-rejected, \
                 {} timeouts, {} corrupt frames",
                stats.connections,
                stats.requests,
                stats.rejected_busy,
                stats.timeouts,
                stats.frames_corrupt
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("snorlaxd failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let Some(addr) = opt_str(args, "--addr") else {
        eprintln!("submit needs --addr HOST:PORT (start one with `snorlax serve <bug-id>`)");
        return ExitCode::from(2);
    };
    let mut client = match RemoteClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to snorlaxd at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--health") {
        return match client.health() {
            Ok(status) => {
                println!("{status}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("health probe failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--shutdown") {
        return match client.shutdown() {
            Ok(()) => {
                println!("snorlaxd drained and stopped");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(id) = args.get(1).filter(|a| !a.starts_with("--")) else {
        eprintln!("submit needs a bug id (or --health / --shutdown)");
        return ExitCode::from(2);
    };
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id} (see `snorlax corpus`)");
        return ExitCode::FAILURE;
    };
    let reports = opt_u64(args, "--reports", 1);
    let first_seed = opt_u64(args, "--seed", 0);
    println!("bug: {} — {}", s.id, s.description);
    // Collection stays local (it *is* the production client); only the
    // diagnosis crosses the wire.
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let collector = CollectionClient::new(&server, VmConfig::default());
    let mut collections: Vec<CollectionOutcome> = Vec::new();
    let mut seed = first_seed;
    while (collections.len() as u64) < reports {
        let Some(col) = collector.collect(seed, 1000, 10, 0) else {
            break;
        };
        seed = col.failing_seeds.last().copied().unwrap_or(seed) + 1;
        collections.push(col);
    }
    if collections.is_empty() {
        eprintln!("the bug did not manifest within the run budget");
        return ExitCode::FAILURE;
    }
    println!(
        "collected {} failure reports, submitting to {addr}\n",
        collections.len()
    );
    let jobs: Vec<BatchJob<'_>> = collections
        .iter()
        .map(|c| BatchJob {
            failure: &c.failure,
            failing: &c.failing,
            successful: &c.successful,
        })
        .collect();
    match client.diagnose_batch(&jobs) {
        Ok(results) => {
            let mut failed = 0u64;
            for (i, r) in results.iter().enumerate() {
                match r {
                    Ok(report) => {
                        println!("report {i}:");
                        print!("{report}");
                    }
                    Err(e) => {
                        failed += 1;
                        println!("report {i}: failed ({e})");
                    }
                }
            }
            if failed > 0 {
                eprintln!("{failed} of {} reports failed remotely", results.len());
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("remote batch failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `snorlax fleet …` — sharded diagnosis across snorlaxd shards.
fn cmd_fleet(args: &[String]) -> ExitCode {
    match args.get(1).map(String::as_str) {
        // A shard *is* a snorlaxd: the daemon answers the fleet frames
        // alongside ordinary diagnose/batch traffic. The subcommand
        // exists so fleet deployments read as what they are.
        Some("serve-shard") if args.len() >= 3 => cmd_serve(&args[2], args),
        Some("route") if args.len() >= 3 => cmd_fleet_route(&args[2], args),
        _ => usage(),
    }
}

fn cmd_fleet_route(id: &str, args: &[String]) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id} (see `snorlax corpus`)");
        return ExitCode::FAILURE;
    };
    let reports = opt_u64(args, "--reports", 4).max(1);
    let first_seed = opt_u64(args, "--seed", 0);
    println!("bug: {} — {}", s.id, s.description);

    // Collection stays local, as with batch: each report is one
    // independent failure observation of the same bug.
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let collector = CollectionClient::new(&server, VmConfig::default());
    let mut collections: Vec<CollectionOutcome> = Vec::new();
    let mut seed = first_seed;
    while (collections.len() as u64) < reports {
        let Some(col) = collector.collect(seed, 1000, 10, 0) else {
            break;
        };
        seed = col.failing_seeds.last().copied().unwrap_or(seed) + 1;
        collections.push(col);
    }
    if collections.is_empty() {
        eprintln!("the bug did not manifest within the run budget");
        return ExitCode::FAILURE;
    }

    let router = if let Some(addrs) = opt_str(args, "--addrs") {
        let mut shards: Vec<ShardConn<'_>> = Vec::new();
        for addr in addrs.split(',').filter(|a| !a.is_empty()) {
            match RemoteClient::connect(addr) {
                Ok(c) => shards.push(ShardConn::Remote(c)),
                Err(e) => {
                    eprintln!("cannot connect to shard at {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if shards.is_empty() {
            eprintln!("--addrs named no shards");
            return ExitCode::from(2);
        }
        FleetRouter::new(&s.module, ServerConfig::default(), shards)
    } else {
        let n = opt_u64(args, "--shards", 2).max(1) as usize;
        FleetRouter::in_process(&s.module, ServerConfig::default(), n)
    };
    println!(
        "routing {} reports concurrently across {} warm shards\n",
        collections.len(),
        router.shard_count()
    );

    let fleet_reports: Vec<FleetReport> = collections
        .iter()
        .map(|c| FleetReport {
            failure: c.failure.clone(),
            failing: c.failing.clone(),
            successful: c.successful.clone(),
        })
        .collect();
    let outcomes = router.route_all(&fleet_reports);

    let mut failed = false;
    for (i, (out, col)) in outcomes.iter().zip(&collections).enumerate() {
        match out {
            Ok(o) => {
                for r in &o.shard_reports {
                    if let Some((round, e)) = &r.error {
                        println!(
                            "report {i}: shard {} FAILED in {round} round ({e})",
                            r.shard
                        );
                    }
                }
                // A degraded route can still render like single-node,
                // so a failed shard fails the command on its own.
                let shards_failed = o.failed_shards();
                failed |= shards_failed > 0;
                let root = o
                    .diagnosis
                    .root_cause()
                    .map_or_else(|| "none".to_string(), |sc| sc.pattern.signature());
                print!("report {i}: root cause [{root}], {shards_failed} shard(s) failed, ");
                // Determinism is the whole point: every routed report
                // must match what a single node would have said.
                match server.diagnose(&col.failure, &col.failing, &col.successful) {
                    Ok(single) if single.render(&s.module) == o.diagnosis.render(&s.module) => {
                        println!("byte-identical to single-node: yes");
                    }
                    Ok(_) => {
                        println!("DIVERGED from single-node diagnosis");
                        failed = true;
                    }
                    Err(e) => {
                        println!("single-node cross-check failed ({e})");
                        failed = true;
                    }
                }
            }
            Err(e) => {
                println!("report {i}: failed ({e})");
                failed = true;
            }
        }
    }
    for (key, n) in router.known_bugs() {
        println!(
            "\nbug key: failure pc {} / module fp {:#018x} — {n} reports routed",
            key.failure_pc.0, key.module_fp
        );
    }
    for (k, st) in router.shard_stats().iter().enumerate() {
        match st {
            Ok(st) => println!(
                "shard {k}: {} open sessions, {} evicted; points-to cache \
                 {} lookups = {} exact + {} delta + {} scratch ({} warm)",
                st.open_sessions,
                st.sessions_evicted,
                st.cache_lookups,
                st.cache_exact_hits,
                st.cache_delta_solves,
                st.cache_scratch_solves,
                st.warm_solves()
            ),
            Err(e) => println!("shard {k}: stats unavailable ({e})"),
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `snorlax stream …` — incremental diagnosis over a daemon session.
fn cmd_stream(args: &[String]) -> ExitCode {
    match args.get(1).map(String::as_str) {
        Some("submit") if args.len() >= 3 => cmd_stream_submit(&args[2], args),
        Some("status") => cmd_stream_probe(args, false),
        Some("finish") => cmd_stream_probe(args, true),
        _ => usage(),
    }
}

/// Session ids print as hex; accept both hex and decimal on the way in
/// so the printed id can be pasted straight back.
fn parse_session(s: &str) -> Option<u64> {
    s.strip_prefix("0x")
        .map_or_else(|| s.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
}

fn cmd_stream_submit(id: &str, args: &[String]) -> ExitCode {
    let Some(s) = find_scenario(id) else {
        eprintln!("unknown bug id {id} (see `snorlax corpus`)");
        return ExitCode::FAILURE;
    };
    let Some(addr) = opt_str(args, "--addr") else {
        eprintln!("stream submit needs --addr HOST:PORT (start one with `snorlax serve <bug-id>`)");
        return ExitCode::from(2);
    };
    let first_seed = opt_u64(args, "--seed", 0);
    let keep_open = args.iter().any(|a| a == "--keep-open");
    let session = opt_str(args, "--session")
        .and_then(parse_session)
        .unwrap_or_else(next_stream_session);
    println!("bug: {} — {}", s.id, s.description);
    // Collection stays local (it *is* the production client); each
    // report then crosses the wire by itself, the way a fleet node
    // trickles evidence into a long-lived diagnosis session.
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let collector = CollectionClient::new(&server, VmConfig::default());
    let Some(col) = collector.collect(first_seed, 1000, 10, 0) else {
        eprintln!("the bug did not manifest within the run budget");
        return ExitCode::FAILURE;
    };
    let reports = interleave_reports(&col.failing, &col.successful);
    let mut client = match RemoteClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to snorlaxd at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "streaming {} reports to {addr} as session {session:#x}\n",
        reports.len()
    );
    let mut converged = false;
    for (i, r) in reports.iter().enumerate() {
        let status = match r {
            StreamReport::Failing(snap) => {
                client.stream_submit_failing(session, &col.failure, snap)
            }
            StreamReport::Success(snap) => client.stream_submit_success(session, snap),
        };
        match status {
            Ok(st) => {
                println!(
                    "report {i}: consumed={} failing={} successes={} lead={:.3}{}",
                    st.reports_consumed,
                    st.failing,
                    st.successes,
                    st.lead,
                    if st.converged { "  CONVERGED" } else { "" }
                );
                if st.converged {
                    converged = true;
                    break;
                }
            }
            Err(e) => println!("report {i}: rejected ({e})"),
        }
    }
    if !converged {
        println!("stream exhausted without early convergence");
    }
    if keep_open {
        println!(
            "\nsession {session:#x} left open on {addr} \
             (finish with `snorlax stream finish --addr {addr} --session {session:#x}`)"
        );
        return ExitCode::SUCCESS;
    }
    match client.stream_finish(session) {
        Ok(fin) => {
            println!(
                "\nfinished after {} reports ({} rejected), converged_early={}",
                fin.reports_consumed, fin.reports_rejected, fin.converged_early
            );
            print!("{}", fin.report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stream finish failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_stream_probe(args: &[String], finish: bool) -> ExitCode {
    let verb = if finish { "finish" } else { "status" };
    let Some(addr) = opt_str(args, "--addr") else {
        eprintln!("stream {verb} needs --addr HOST:PORT");
        return ExitCode::from(2);
    };
    let Some(session) = opt_str(args, "--session").and_then(parse_session) else {
        eprintln!("stream {verb} needs --session ID (printed by `snorlax stream submit`)");
        return ExitCode::from(2);
    };
    let mut client = match RemoteClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to snorlaxd at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if finish {
        match client.stream_finish(session) {
            Ok(fin) => {
                println!(
                    "session {session:#x}: {} reports consumed ({} rejected), converged_early={}\n",
                    fin.reports_consumed, fin.reports_rejected, fin.converged_early
                );
                print!("{}", fin.report);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("stream finish failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match client.stream_status(session) {
            Ok(st) => {
                println!(
                    "session {session:#x}: consumed={} rejected={} failing={} successes={} \
                     lead={:.3} converged={}",
                    st.reports_consumed,
                    st.reports_rejected,
                    st.failing,
                    st.successes,
                    st.lead,
                    st.converged
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("stream status failed: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("corpus") => cmd_corpus(),
        Some("diagnose") if args.len() >= 2 => cmd_diagnose(
            &args[1],
            opt_u64(&args, "--seed", 0),
            opt_u64(&args, "--decode-workers", 0),
        ),
        Some("replay") if args.len() >= 2 => cmd_replay(&args[1], opt_u64(&args, "--runs", 10)),
        Some("hypothesis") if args.len() >= 2 => {
            cmd_hypothesis(&args[1], opt_u64(&args, "--samples", 10))
        }
        Some("trace") if args.len() >= 2 => cmd_trace(&args[1]),
        Some("dump") if args.len() >= 2 => cmd_dump(&args[1]),
        Some("diagnose-file") if args.len() >= 2 => {
            cmd_diagnose_file(&args[1], opt_u64(&args, "--seed", 0))
        }
        Some("serve") if args.len() >= 2 => cmd_serve(&args[1], &args),
        Some("submit") => cmd_submit(&args),
        Some("fleet") => cmd_fleet(&args),
        Some("stream") => cmd_stream(&args),
        Some("batch") if args.len() >= 2 => cmd_batch(
            &args[1],
            opt_u64(&args, "--reports", 8),
            opt_u64(&args, "--seed", 0),
            opt_u64(&args, "--workers", 0),
            !args.iter().any(|a| a == "--no-cache"),
            opt_str(&args, "--telemetry"),
        ),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_parsing() {
        let args: Vec<String> = ["diagnose", "x", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt_u64(&args, "--seed", 0), 7);
        assert_eq!(opt_u64(&args, "--runs", 10), 10);
        let bad: Vec<String> = ["--seed", "zz"].iter().map(|s| s.to_string()).collect();
        assert_eq!(opt_u64(&bad, "--seed", 3), 3);
    }

    #[test]
    fn string_opt_parsing() {
        let args: Vec<String> = ["batch", "x", "--telemetry", "json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt_str(&args, "--telemetry"), Some("json"));
        assert_eq!(opt_str(&args, "--format"), None);
    }

    #[test]
    fn session_id_roundtrips_hex_and_decimal() {
        assert_eq!(parse_session("42"), Some(42));
        assert_eq!(parse_session("0x2a"), Some(42));
        assert_eq!(
            parse_session(&format!("{:#x}", 0xdead_beefu64)),
            Some(0xdead_beef)
        );
        assert_eq!(parse_session("zz"), None);
        assert_eq!(parse_session("0x"), None);
    }

    #[test]
    fn scenario_lookup_covers_extensions() {
        assert!(find_scenario("pbzip2-na-1").is_some());
        assert!(find_scenario("mysql-ext-hotlog").is_some());
        assert!(find_scenario("nope").is_none());
    }
}
