//! `snorlaxd` loopback throughput: in-process batch vs the TCP daemon.
//!
//! Models the paper's deployment split: the diagnosis server runs as a
//! long-lived daemon and production endpoints submit failure reports
//! over the network. This bench stands the daemon up on an ephemeral
//! loopback port and drains the same report corpus three ways:
//!
//! * **in-process** — `diagnose_batch` directly, no transport;
//! * **loopback batch** — one `Batch` frame per round through
//!   `RemoteClient`, so framing + snapshot wire encode/decode cost is
//!   paid once per corpus;
//! * **loopback sequential** — one `Diagnose` frame per report, the
//!   worst-case per-request framing overhead;
//! * **slow writer** — one report dribbled in 8 chunks with pauses, so
//!   the daemon's partial-frame resume path registers in telemetry;
//! * **256 concurrent submitters** — every submitter holds its own
//!   connection and races the admission queue, retrying typed `Busy`
//!   rejections with linear backoff until served.
//!
//! The acceptance gate is correctness, not speed (loopback timing is
//! too machine-dependent to gate on): every report the daemon renders
//! must be byte-identical to the in-process batch output. The emitted
//! JSON carries the daemon's own telemetry delta (`daemon.request`
//! span, admission/corruption counters) for the CI grep gates.
//!
//! Usage: `daemon [bug-id] [--reports N] [--rounds N] [--out PATH]`

use lazy_bench::{collect_corpus, server_for, stats};
use lazy_snorlax::daemon::{encode_diagnose_request, encode_frame, read_frame};
use lazy_snorlax::{serve, BatchConfig, BatchJob, DaemonConfig, FrameKind, RemoteClient};
use lazy_workloads::scenario_by_id;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Submitters in the contention lane — the many-connection gate.
const SUBMITTERS: usize = 256;

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
    let out_path = opt_str(&args, "--out", "BENCH_daemon.json");
    let cores = lazy_trace::core_count();

    let s = scenario_by_id(&bug).expect("known bug id");
    println!(
        "daemon loopback: {} — {} reports, {} rounds, {} cores",
        s.id, reports, rounds, cores
    );
    let server = server_for(&s);
    let corpus = collect_corpus(&server, reports, 1000);
    let jobs: Vec<BatchJob<'_>> = corpus
        .iter()
        .map(|c| BatchJob {
            failure: &c.failure,
            failing: &c.failing,
            successful: &c.successful,
        })
        .collect();

    // Reference output and the in-process timing baseline.
    let reference: Vec<String> = server
        .diagnose_batch(&jobs, &BatchConfig::default())
        .diagnoses
        .iter()
        .map(|d| d.as_ref().expect("reference diagnosis").render(&s.module))
        .collect();
    let mut inproc = Vec::new();
    for _ in 0..rounds {
        let t = Instant::now();
        let out = server.diagnose_batch(&jobs, &BatchConfig::default());
        inproc.push(t.elapsed().as_secs_f64());
        assert!(out.diagnoses.iter().all(Result::is_ok));
    }
    drop(server);

    // Isolate the daemon's telemetry contribution from the in-process
    // warmup rounds above.
    let telemetry_base = lazy_obs::snapshot();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    // The contention lane holds every submitter connection open at
    // once, so the connection cap must clear SUBMITTERS; the admission
    // queue stays at its default depth — Busy retries are the point.
    let cfg = DaemonConfig {
        max_connections: SUBMITTERS * 2,
        ..DaemonConfig::default()
    };
    let mut loop_batch = Vec::new();
    let mut loop_seq = Vec::new();
    let mut concurrent = Vec::new();
    let busy_retries = AtomicUsize::new(0);
    let daemon_stats = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve(&listener, &s.module, &cfg));
        let mut client = RemoteClient::connect(addr).expect("connect to daemon");
        for _ in 0..rounds {
            let t = Instant::now();
            let results = client.diagnose_batch(&jobs).expect("loopback batch");
            loop_batch.push(t.elapsed().as_secs_f64());
            assert_eq!(results.len(), reference.len());
            for (r, expect) in results.iter().zip(&reference) {
                let r = r.as_deref().expect("loopback job");
                assert_eq!(r, expect, "loopback report diverged from in-process");
            }

            let t = Instant::now();
            for j in &jobs {
                let r = client
                    .diagnose(j.failure, j.failing, j.successful)
                    .expect("loopback diagnose");
                let _ = r;
            }
            loop_seq.push(t.elapsed().as_secs_f64());
        }

        // Slow-writer sub-lane: one report in 8 chunks with pauses
        // between the segments. The reply must still be byte-identical;
        // the daemon's partial-frame resume counter self-registers for
        // the CI telemetry gate.
        {
            let j = &jobs[0];
            let payload = encode_diagnose_request(j.failure, j.failing, j.successful);
            let frame = encode_frame(FrameKind::Diagnose, &payload);
            let mut stream = TcpStream::connect(addr).expect("slow-writer connect");
            stream.set_nodelay(true).expect("nodelay");
            let chunk = frame.len().div_ceil(8).max(1);
            for (i, piece) in frame.chunks(chunk).enumerate() {
                if i > 0 {
                    std::thread::sleep(Duration::from_millis(3));
                }
                stream.write_all(piece).expect("slow-writer write");
            }
            let (kind, body) = read_frame(&mut stream).expect("slow-writer reply");
            assert_eq!(kind, FrameKind::Report, "slow writer must be served");
            assert_eq!(
                String::from_utf8(body).expect("report utf-8"),
                reference[0],
                "slow-writer report diverged from in-process"
            );
        }

        // Contention lane: SUBMITTERS threads, one connection each, all
        // racing the default-depth admission queue at once. Typed Busy
        // rejections retry with linear backoff until served; every
        // served report must match the in-process reference.
        let barrier = Barrier::new(SUBMITTERS + 1);
        let lane = std::thread::scope(|inner| {
            let workers: Vec<_> = (0..SUBMITTERS)
                .map(|i| {
                    let barrier = &barrier;
                    let jobs = &jobs;
                    let reference = &reference;
                    let busy_retries = &busy_retries;
                    inner.spawn(move || {
                        let j = &jobs[i % jobs.len()];
                        let mut client = RemoteClient::connect(addr).expect("submitter connect");
                        barrier.wait();
                        let (report, retries) = client
                            .diagnose_retrying(
                                j.failure,
                                j.failing,
                                j.successful,
                                1000,
                                Duration::from_millis(2),
                            )
                            .expect("submitter served");
                        busy_retries.fetch_add(retries, Ordering::Relaxed);
                        assert_eq!(
                            report,
                            reference[i % reference.len()],
                            "concurrent report diverged from in-process"
                        );
                    })
                })
                .collect();
            barrier.wait();
            let t = Instant::now();
            for w in workers {
                w.join().expect("submitter thread");
            }
            t.elapsed().as_secs_f64()
        });
        concurrent.push(lane);

        println!("  health: {}", client.health().expect("health probe"));
        client.shutdown().expect("graceful drain");
        daemon.join().expect("daemon thread").expect("serve")
    });
    let telemetry = lazy_obs::snapshot().since(&telemetry_base);

    let (in_s, lb_s, ls_s) = (
        stats::mean(&inproc),
        stats::mean(&loop_batch),
        stats::mean(&loop_seq),
    );
    let conc_s = stats::mean(&concurrent);
    let retries = busy_retries.into_inner();
    println!("--");
    println!("in-process batch    {:>9.1} ms", in_s * 1000.0);
    println!(
        "loopback batch      {:>9.1} ms   ({:.2}x in-process)",
        lb_s * 1000.0,
        lb_s / in_s
    );
    println!(
        "loopback sequential {:>9.1} ms   ({:.2}x in-process)",
        ls_s * 1000.0,
        ls_s / in_s
    );
    println!(
        "concurrent x{SUBMITTERS}     {:>9.1} ms   ({:.1} reports/s, {} busy retries)",
        conc_s * 1000.0,
        SUBMITTERS as f64 / conc_s,
        retries
    );
    println!(
        "daemon: {} requests over {} connections, {} busy, {} timeouts, {} corrupt, {} partial-frame resumes",
        daemon_stats.requests,
        daemon_stats.connections,
        daemon_stats.rejected_busy,
        daemon_stats.timeouts,
        daemon_stats.frames_corrupt,
        daemon_stats.partial_frame_resumes
    );
    // Correctness gate: reaching this point means every loopback report
    // matched the in-process reference byte-for-byte.
    println!("acceptance (loopback byte-identical to in-process): PASS");

    let json = format!(
        "{{\n  \"bench\": \"daemon\",\n  \"workload\": {{\n    \"bug\": \"{bug}\",\n    \
         \"reports\": {reports}\n  }},\n  \"machine\": {{ \"cores\": {cores} }},\n  \
         \"rounds\": {rounds},\n  \"seconds\": {{\n    \"inprocess_batch\": {in_s:.6},\n    \
         \"loopback_batch\": {lb_s:.6},\n    \"loopback_sequential\": {ls_s:.6},\n    \
         \"concurrent_submitters\": {conc_s:.6}\n  }},\n  \
         \"overhead\": {{\n    \"loopback_batch_vs_inprocess\": {lb_o:.3},\n    \
         \"loopback_sequential_vs_inprocess\": {ls_o:.3}\n  }},\n  \
         \"concurrent\": {{\n    \"submitters\": {submitters},\n    \
         \"seconds\": {conc_s:.6},\n    \"reports_per_second\": {conc_rps:.1},\n    \
         \"busy_retries\": {retries}\n  }},\n  \
         \"daemon\": {{\n    \"connections\": {conns},\n    \"requests\": {reqs},\n    \
         \"rejected_busy\": {busy},\n    \"timeouts\": {tos},\n    \
         \"frames_corrupt\": {corrupt},\n    \
         \"partial_frame_resumes\": {resumes}\n  }},\n  \
         \"gate\": {{\n    \"required\": \"loopback reports byte-identical to in-process batch\",\n    \
         \"status\": \"pass\"\n  }},\n  \
         \"telemetry_enabled\": {telemetry_enabled},\n  \"telemetry\": {telemetry_json}\n}}\n",
        lb_o = lb_s / in_s,
        ls_o = ls_s / in_s,
        submitters = SUBMITTERS,
        conc_rps = SUBMITTERS as f64 / conc_s,
        conns = daemon_stats.connections,
        reqs = daemon_stats.requests,
        busy = daemon_stats.rejected_busy,
        tos = daemon_stats.timeouts,
        corrupt = daemon_stats.frames_corrupt,
        resumes = daemon_stats.partial_frame_resumes,
        telemetry_enabled = cfg!(feature = "telemetry"),
        telemetry_json = telemetry.to_json().trim_end(),
    );
    std::fs::write(&out_path, json).expect("write bench output");
    println!("wrote {out_path}");
}
