//! Fleet-sharding determinism suite.
//!
//! The contract under test: a [`FleetRouter`] that routes one failure
//! report across N shards — in-process or over real loopback TCP —
//! renders a diagnosis **byte-identical** to a single
//! [`DiagnosisServer`] fed the same report, for every bug in the
//! corpus and for awkward shard counts (2, 3, 7 — most shards see
//! zero failing traces). On top of determinism, the degradation
//! contract: a shard that answers garbage in round 1 is excluded and
//! the survivors' result equals single-node over the surviving
//! partition; a Corruptor-mangled `PartialStats` frame in round 3
//! surfaces as a typed [`DiagnosisError::Frame`] in that shard's
//! report while the router still diagnoses from the survivors, and so
//! do partial statistics no shard could have produced.

mod util;

use lazy_diagnosis::ir::Module;
use lazy_diagnosis::snorlax::daemon::{encode_frame, read_frame, serve, DaemonConfig, FrameKind};
use lazy_diagnosis::snorlax::fleet::{
    decode_fleet_collect_view, decode_fleet_finalize, decode_fleet_patterns, encode_collect_reply,
    encode_finalize_reply, encode_patterns_reply, FinalizeReply,
};
use lazy_diagnosis::snorlax::statistics::PatternCounts;
use lazy_diagnosis::snorlax::{
    BugKey, CollectionClient, CollectionOutcome, DiagnosisError, DiagnosisServer, FleetOutcome,
    FleetReport, FleetRouter, FleetShard, PatternStats, RemoteClient, ServerConfig, ShardConn,
    ShardStats,
};
use lazy_diagnosis::trace::{CorruptionOp, Corruptor};
use lazy_diagnosis::vm::VmConfig;
use lazy_diagnosis::workloads::BugScenario;
use lazy_workloads::{all_scenarios, scenario_by_id, systems::eval_scenarios};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Barrier;
use std::thread::JoinHandle;
use util::DaemonGuard;

/// One multi-trace failure report: `reports` independent collections
/// of the same bug folded into a single (failure, failing, successful)
/// triple, so shard routing has more than one failing trace to split.
fn combined_report(s: &BugScenario, reports: usize) -> FleetReport {
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let mut failure = None;
    let mut failing = Vec::new();
    let mut successful = Vec::new();
    let mut seed = 0u64;
    let mut collected = 0usize;
    while collected < reports {
        let col: CollectionOutcome = client
            .collect(seed, 800, 10, 0)
            .unwrap_or_else(|| panic!("{}: bug did not manifest", s.id));
        seed = col.failing_seeds.last().copied().unwrap_or(seed) + 1;
        failure.get_or_insert(col.failure);
        failing.extend(col.failing);
        successful.extend(col.successful);
        collected += 1;
    }
    FleetReport {
        failure: failure.unwrap(),
        failing,
        successful,
    }
}

fn single_node_render(s: &BugScenario, r: &FleetReport) -> String {
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    server
        .diagnose(&r.failure, &r.failing, &r.successful)
        .unwrap_or_else(|e| panic!("{}: single-node diagnosis failed: {e}", s.id))
        .render(&s.module)
}

/// Routes `report` through a fresh one-report router over `shards`.
fn route_once(s: &BugScenario, shards: Vec<ShardConn<'_>>, report: &FleetReport) -> FleetOutcome {
    FleetRouter::new(&s.module, ServerConfig::default(), shards)
        .route(report)
        .unwrap_or_else(|e| panic!("{}: fleet diagnosis failed: {e}", s.id))
}

/// The determinism kernel shared by the default and slow corpus
/// sweeps: for each scenario, sharded diagnosis at 2, 3 and 7
/// in-process shards must render byte-identical to single-node.
fn assert_sharded_matches_single_node(scenarios: Vec<BugScenario>) {
    for s in scenarios {
        let report = combined_report(&s, 2);
        let expected = single_node_render(&s, &report);
        for shards in [2usize, 3, 7] {
            let outcome = FleetRouter::in_process(&s.module, ServerConfig::default(), shards)
                .route(&report)
                .unwrap_or_else(|e| panic!("{} @ {shards} shards: fleet failed: {e}", s.id));
            assert_eq!(
                outcome.failed_shards(),
                0,
                "{} @ {shards} shards: no shard may fail",
                s.id
            );
            assert_eq!(
                outcome.diagnosis.render(&s.module),
                expected,
                "{} @ {shards} shards: sharded render diverged from single-node",
                s.id
            );
            assert_eq!(
                outcome.merged_stats.failing_traces(),
                report.failing.len(),
                "{} @ {shards} shards: merged stats must cover every failing trace",
                s.id
            );
        }
        println!("{}: ok (2, 3 and 7 shards byte-identical)", s.id);
    }
}

/// The 11-bug evaluation corpus, sharded 2/3/7 ways in-process.
#[test]
fn eval_corpus_sharded_is_byte_identical() {
    assert_sharded_matches_single_node(eval_scenarios());
}

/// The full 54-bug corpus under the same contract; heavy, so it rides
/// the `slow-tests` feature like the degradation sweep.
#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "heavy: shards all 54 corpus bugs 2/3/7 ways (enable with --features slow-tests)"
)]
fn full_corpus_sharded_is_byte_identical() {
    assert_sharded_matches_single_node(all_scenarios());
}

/// Binds an ephemeral loopback port and serves a real snorlaxd shard,
/// guard-scoped so a panicking test still drains the listener.
fn spawn_shard_daemon(module: Module) -> (SocketAddr, DaemonGuard<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        serve(&listener, &module, &DaemonConfig::default()).unwrap();
    });
    (addr, DaemonGuard::new(addr, handle))
}

/// Real TCP: two snorlaxd daemons as remote shards must also be
/// byte-identical to single-node — the wire codecs add nothing and
/// lose nothing.
#[test]
fn loopback_tcp_shards_are_byte_identical() {
    let s = eval_scenarios().into_iter().next().unwrap();
    let report = combined_report(&s, 2);
    let expected = single_node_render(&s, &report);

    let (addr_a, handle_a) = spawn_shard_daemon(s.module.clone());
    let (addr_b, handle_b) = spawn_shard_daemon(s.module.clone());
    let shards = vec![
        ShardConn::Remote(RemoteClient::connect(addr_a).unwrap()),
        ShardConn::Remote(RemoteClient::connect(addr_b).unwrap()),
    ];
    // The router (and with it the shard connections) is dropped before
    // the daemons drain.
    let outcome = route_once(&s, shards, &report);
    assert_eq!(outcome.failed_shards(), 0, "clean shards must not fail");
    assert_eq!(
        outcome.diagnosis.render(&s.module),
        expected,
        "TCP-sharded render diverged from single-node"
    );

    for addr in [addr_a, addr_b] {
        let mut probe = RemoteClient::connect(addr).unwrap();
        // The stats probe must travel the wire (FleetStats frame) and
        // account for the diagnosis that just ran on this daemon.
        let stats = probe.fleet_stats().expect("fleet stats over TCP");
        assert!(stats.cache_lookups > 0, "the shard solved at least once");
        assert_eq!(
            stats.cache_lookups,
            stats.cache_exact_hits + stats.cache_delta_solves + stats.cache_scratch_solves,
            "every lookup is an exact hit, a delta solve, or a scratch solve"
        );
        probe.shutdown().unwrap();
    }
    handle_a.join();
    handle_b.join();
}

/// Builds the `snorlax` CLI with this suite's profile and returns its
/// path. The CLI is its own package, so Cargo gives this suite no
/// `CARGO_BIN_EXE_` path; the build's artifact message names the
/// executable.
fn snorlax_bin() -> PathBuf {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Command::new(cargo);
    build
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["build", "-q", "-p", "lazy-cli", "--bin", "snorlax"])
        .arg("--message-format=json");
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    let out = build.output().expect("cargo runs");
    assert!(
        out.status.success(),
        "building snorlax failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    const KEY: &str = "\"executable\":\"";
    let stdout = String::from_utf8_lossy(&out.stdout);
    let path = stdout
        .lines()
        .filter(|l| l.contains("\"name\":\"snorlax\""))
        .find_map(|l| {
            let rest = &l[l.find(KEY)? + KEY.len()..];
            Some(rest[..rest.find('"')?].to_owned())
        })
        .expect("cargo names the snorlax executable");
    PathBuf::from(path)
}

/// A shard serving another module must not answer: routing
/// `mysql-3596` reports over one `mysql-3596` shard daemon and one
/// `mysql-59464` shard daemon fails the second in round 1 with an
/// error naming the mismatch, an in-process shard for the other module
/// fails the same way, and `snorlax fleet route` exits non-zero.
#[test]
fn shard_serving_another_module_fails_round_one() {
    let s = scenario_by_id("mysql-3596").unwrap();
    let other = scenario_by_id("mysql-59464").unwrap();
    let report = combined_report(&s, 1);
    let (addr_a, handle_a) = spawn_shard_daemon(s.module.clone());
    let (addr_b, handle_b) = spawn_shard_daemon(other.module.clone());

    let remote = vec![
        ShardConn::Remote(RemoteClient::connect(addr_a).unwrap()),
        ShardConn::Remote(RemoteClient::connect(addr_b).unwrap()),
    ];
    let local = vec![
        ShardConn::local(&s.module, ServerConfig::default()),
        ShardConn::local(&other.module, ServerConfig::default()),
    ];
    for (shards, over) in [(remote, "TCP"), (local, "in-process")] {
        let outcome = route_once(&s, shards, &report);
        assert_eq!(outcome.failed_shards(), 1, "{over}: the mismatched shard");
        match &outcome.shard_reports[1].error {
            Some(("collect", e)) if e.to_string().contains("module fingerprint mismatch") => {}
            other => panic!("{over}: expected a round-1 module mismatch, got {other:?}"),
        }
        assert!(outcome.shard_reports[0].error.is_none(), "{over}");
    }

    let route = Command::new(snorlax_bin())
        .args(["fleet", "route", "mysql-3596", "--reports", "1", "--addrs"])
        .arg(format!("{addr_a},{addr_b}"))
        .output()
        .expect("snorlax runs");
    let stdout = String::from_utf8_lossy(&route.stdout);
    assert!(!route.status.success(), "fleet route must fail:\n{stdout}");
    assert!(
        stdout.contains("FAILED in collect round")
            && stdout.contains("module fingerprint mismatch"),
        "the CLI names the mismatch:\n{stdout}"
    );

    for addr in [addr_a, addr_b] {
        RemoteClient::connect(addr).unwrap().shutdown().unwrap();
    }
    handle_a.join();
    handle_b.join();
}

/// A "shard" that answers the first frame with a Corruptor-mangled
/// reply: the coordinator must fail it in round 1 with a typed frame
/// error and never speak to it again.
fn spawn_garbage_shard() -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let Ok((_, payload)) = read_frame(&mut conn) else {
            return;
        };
        // A plausible ack frame with its magic bit-flipped: the client
        // sees a desynchronized stream, a typed FrameError.
        let frame = encode_frame(FrameKind::FleetCollectAck, &payload);
        let mangled = Corruptor::new().apply(&frame, &CorruptionOp::BitFlip { offset: 1, bit: 4 });
        let _ = conn.write_all(&mangled);
    });
    (addr, handle)
}

/// Round-1 degradation: the garbage shard is excluded up front, so the
/// survivors' diagnosis equals single-node over exactly the partition
/// that was routed to them — the strongest statement possible once a
/// shard's traces are gone.
#[test]
fn round1_failure_excludes_shard_and_matches_survivor_partition() {
    let s = eval_scenarios().into_iter().next().unwrap();
    let report = combined_report(&s, 2);

    // Replicate the router's partition: global cap, then round-robin —
    // shard 0 (the survivor) gets every even index.
    let cap = ServerConfig::default().success_factor * report.failing.len().max(1);
    let capped = &report.successful[..report.successful.len().min(cap)];
    let survivor = FleetReport {
        failure: report.failure.clone(),
        failing: report.failing.iter().step_by(2).cloned().collect(),
        successful: capped.iter().step_by(2).cloned().collect(),
    };
    let expected = single_node_render(&s, &survivor);

    let (addr, handle) = spawn_garbage_shard();
    let shards = vec![
        ShardConn::local(&s.module, ServerConfig::default()),
        ShardConn::Remote(RemoteClient::connect(addr).unwrap()),
    ];
    let outcome = route_once(&s, shards, &report);

    assert_eq!(outcome.failed_shards(), 1, "exactly the garbage shard");
    let bad = &outcome.shard_reports[1];
    match &bad.error {
        Some(("collect", DiagnosisError::Frame(_))) => {}
        other => panic!("expected a round-1 typed frame error, got {other:?}"),
    }
    assert_eq!(
        outcome.diagnosis.render(&s.module),
        expected,
        "degraded render must equal single-node over the survivor partition"
    );
    handle.join().unwrap();
}

/// A protocol-fluent shard that answers rounds 1 and 2 honestly (via a
/// real in-process [`FleetShard`]) and then answers round 3 with the
/// `PartialStats` frame `evil` makes of its honest reply.
fn spawn_evil_finalize_shard(
    module: Module,
    evil: fn(FinalizeReply) -> Vec<u8>,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let shard = FleetShard::new(&module, ServerConfig::default());
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        loop {
            let Ok((kind, payload)) = read_frame(&mut conn) else {
                return;
            };
            let reply = match kind {
                FrameKind::FleetCollect => {
                    let (session, _, req) = decode_fleet_collect_view(&payload).unwrap();
                    let r = shard
                        .collect_views(session, &req.failure, &req.failing, &req.successful)
                        .unwrap();
                    encode_frame(FrameKind::FleetCollectAck, &encode_collect_reply(&r))
                }
                FrameKind::FleetPatterns => {
                    let (session, executed) = decode_fleet_patterns(&payload).unwrap();
                    let r = shard.patterns(session, &executed).unwrap();
                    encode_frame(FrameKind::FleetPatternSet, &encode_patterns_reply(&r))
                }
                FrameKind::FleetFinalize => {
                    let (session, patterns) = decode_fleet_finalize(&payload).unwrap();
                    evil(shard.finalize(session, &patterns).unwrap())
                }
                _ => return,
            };
            if conn.write_all(&reply).is_err() {
                return;
            }
        }
    });
    (addr, handle)
}

/// Routes a two-collection report over one honest local shard and one
/// evil-finalize shard; the evil shard must fail round 3 alone, and the
/// honest survivor — which holds the globally-first failing trace —
/// must still name the bug's root cause.
fn route_past_evil_finalize(evil: fn(FinalizeReply) -> Vec<u8>) -> DiagnosisError {
    let s = eval_scenarios().into_iter().next().unwrap();
    let report = combined_report(&s, 2);
    let (addr, handle) = spawn_evil_finalize_shard(s.module.clone(), evil);
    let shards = vec![
        ShardConn::local(&s.module, ServerConfig::default()),
        ShardConn::Remote(RemoteClient::connect(addr).unwrap()),
    ];
    let outcome = route_once(&s, shards, &report);
    handle.join().unwrap();

    assert_eq!(outcome.failed_shards(), 1, "exactly the evil shard");
    let (round, err) = outcome.shard_reports[1]
        .error
        .clone()
        .expect("the evil shard is in shard_reports");
    assert_eq!(round, "finalize", "the evil shard fails round 3: {err}");
    let rendered = outcome.diagnosis.render(&s.module);
    let top = outcome
        .diagnosis
        .root_cause()
        .unwrap_or_else(|| panic!("degraded diagnosis still names a root cause:\n{rendered}"));
    assert!(
        top.pattern.pcs().iter().all(|pc| s.targets.contains(pc)),
        "the root cause is the bug's own:\n{rendered}"
    );
    assert_eq!(
        outcome.merged_stats.failing_traces(),
        outcome.shard_reports[0].failing_routed,
        "merged statistics cover exactly the surviving shard's traces"
    );
    err
}

/// Round-3 degradation (the fault-injection contract): a mangled
/// `PartialStats` frame draws `DiagnosisError::Frame` into that shard's
/// report, and the router still diagnoses from the surviving shard's
/// statistics.
#[test]
fn corrupt_partial_stats_frame_is_typed_and_diagnosis_degrades() {
    let err = route_past_evil_finalize(|r| {
        let frame = encode_frame(FrameKind::PartialStats, &encode_finalize_reply(&r));
        // Flip a payload bit: the frame checksum catches it on the
        // router side as a typed Frame error.
        Corruptor::new().apply(
            &frame,
            &CorruptionOp::BitFlip {
                offset: frame.len() / 2,
                bit: 3,
            },
        )
    });
    assert!(matches!(err, DiagnosisError::Frame(_)), "typed: {err:?}");
}

/// Well-formed `PartialStats` that no shard can produce are rejected
/// too: a support above the shard's trace total fails the decoder, and
/// trace totals other than the shard's round-1 counts (here `u64::MAX`,
/// which would overflow the merge) fail the router's cross-check.
/// Either way the shard is excluded like any failed round.
#[test]
fn partial_stats_no_shard_can_produce_are_rejected() {
    let err = route_past_evil_finalize(|r| {
        let total = r.stats.failing_traces();
        let mut entries: Vec<(_, PatternCounts)> =
            r.stats.entries().map(|(p, c)| (p.clone(), *c)).collect();
        entries[0].1.fail_support = total + 4;
        let stats = PatternStats::from_parts(entries, total, r.stats.successful_traces());
        let forged = FinalizeReply { stats, ..r };
        encode_frame(FrameKind::PartialStats, &encode_finalize_reply(&forged))
    });
    assert!(
        matches!(err, DiagnosisError::Frame(_)),
        "an inflated support is a typed frame error: {err:?}"
    );

    let err = route_past_evil_finalize(|r| {
        let entries = r.stats.entries().map(|(p, c)| (p.clone(), *c)).collect();
        let stats = PatternStats::from_parts(entries, usize::MAX, usize::MAX);
        let forged = FinalizeReply { stats, ..r };
        encode_frame(FrameKind::PartialStats, &encode_finalize_reply(&forged))
    });
    assert!(
        matches!(err, DiagnosisError::Fleet { .. }),
        "totals unlike round 1's are rejected: {err:?}"
    );
}

/// `k` independent endpoint reports of the same bug: one collection
/// each, seed-chained so every report carries distinct traces.
fn fleet_reports(s: &BugScenario, k: usize) -> Vec<FleetReport> {
    let server = DiagnosisServer::new(&s.module, ServerConfig::default());
    let client = CollectionClient::new(&server, VmConfig::default());
    let mut seed = 0u64;
    (0..k)
        .map(|_| {
            let col = client
                .collect(seed, 800, 10, 0)
                .unwrap_or_else(|| panic!("{}: bug did not manifest", s.id));
            seed = col.failing_seeds.last().copied().unwrap_or(seed) + 1;
            FleetReport {
                failure: col.failure,
                failing: col.failing,
                successful: col.successful,
            }
        })
        .collect()
}

/// The tentpole's concurrency contract: K reports routed *in parallel*
/// (one OS thread per report, `route` called directly so the
/// interleaving is genuine even on one core) through a shared warm
/// router must each render byte-identical to a serial single-node
/// diagnosis of that report alone — at 2 and at 3 shards. A second
/// wave over the same router must then answer from the persistent
/// points-to caches: exact hits > 0 is the proof the shards stayed
/// warm across reports.
#[test]
fn concurrent_routing_is_byte_identical_and_warms_caches() {
    let s = eval_scenarios().into_iter().next().unwrap();
    let reports = fleet_reports(&s, 4);
    let expected: Vec<String> = reports.iter().map(|r| single_node_render(&s, r)).collect();

    for shards in [2usize, 3] {
        let router = FleetRouter::in_process(&s.module, ServerConfig::default(), shards);
        let renders: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = reports
                .iter()
                .map(|r| {
                    scope.spawn(|| {
                        let out = router.route(r).expect("concurrently routed report");
                        assert_eq!(out.failed_shards(), 0, "no shard may fail a clean report");
                        out.diagnosis.render(&s.module)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("route thread"))
                .collect()
        });
        for (i, (got, want)) in renders.iter().zip(&expected).enumerate() {
            assert_eq!(
                got, want,
                "{} @ {shards} shards: report {i} diverged under concurrent routing",
                s.id
            );
        }

        // All K reports key to the one bug (same failure PC, same
        // module fingerprint).
        let key = BugKey::of(&s.module, &reports[0].failure);
        assert_eq!(
            router.reports_routed(&key),
            reports.len() as u64,
            "{} @ {shards} shards: every report keys to the same bug",
            s.id
        );
        assert_eq!(router.known_bugs().len(), 1, "exactly one bug known");

        // Second wave over the same warm shards: identity holds and
        // the persistent caches answer warm.
        for (i, r) in router.route_all(&reports).iter().enumerate() {
            let out = r.as_ref().expect("second-wave report");
            assert_eq!(
                out.diagnosis.render(&s.module),
                expected[i],
                "{} @ {shards} shards: report {i} diverged on warm shards",
                s.id
            );
        }
        let stats: Vec<ShardStats> = router
            .shard_stats()
            .into_iter()
            .map(|r| r.expect("shard stats"))
            .collect();
        let exact: u64 = stats.iter().map(|st| st.cache_exact_hits).sum();
        assert!(
            exact > 0,
            "{} @ {shards} shards: warm shards must hit the points-to cache",
            s.id
        );
        for (i, st) in stats.iter().enumerate() {
            assert_eq!(
                st.cache_lookups,
                st.cache_exact_hits + st.cache_delta_solves + st.cache_scratch_solves,
                "shard {i}: every lookup is an exact hit, a delta solve, or a scratch solve"
            );
        }
        println!(
            "{} @ {shards} shards: ok (4 concurrent + 4 warm reports, {exact} exact cache hits)",
            s.id
        );
    }
}

/// Fault isolation on shared warm shards: a report whose failing
/// snapshots are Corruptor-mangled fails alone — its siblings, routed
/// concurrently through the *same* shards, stay byte-identical to
/// single-node, and the shards remain warm and usable afterwards.
#[test]
fn corrupt_report_fails_alone_while_siblings_stay_clean() {
    let s = eval_scenarios().into_iter().next().unwrap();
    let mut reports = fleet_reports(&s, 3);
    let expected: Vec<String> = reports.iter().map(|r| single_node_render(&s, r)).collect();

    // Mangle the middle report so no thread decodes, with one corrupt
    // failing trace per shard (round-robin puts one on each): every
    // shard fails its round 1, so the report itself errors instead of
    // degrading to a survivor partition.
    let corruptor = Corruptor::new();
    let dup = reports[1].failing[0].clone();
    reports[1].failing.push(dup);
    for snap in &mut reports[1].failing {
        for t in &mut snap.threads {
            t.bytes = corruptor.apply(&t.bytes, &CorruptionOp::Truncate { keep: 3 });
        }
    }

    let router = FleetRouter::in_process(&s.module, ServerConfig::default(), 2);
    let results = router.route_all(&reports);
    assert!(
        results[1].is_err(),
        "the corrupt report must fail: {:?}",
        results[1].as_ref().map(|o| o.failed_shards())
    );
    for i in [0usize, 2] {
        let out = results[i]
            .as_ref()
            .unwrap_or_else(|e| panic!("sibling report {i} must survive: {e}"));
        assert_eq!(out.failed_shards(), 0, "sibling {i} sees no shard failure");
        assert_eq!(
            out.diagnosis.render(&s.module),
            expected[i],
            "sibling report {i} diverged from single-node beside a corrupt report"
        );
    }

    // The shards stayed warm and serviceable: re-routing a clean
    // report still renders identically.
    let again = router
        .route(&reports[0])
        .expect("shards survive the corrupt report");
    assert_eq!(
        again.diagnosis.render(&s.module),
        expected[0],
        "warm re-route after a corrupt report diverged"
    );
}

/// The shard session lifecycle (idle-TTL eviction): abandoned
/// coordinator sessions first exhaust the shard's capacity, and with a
/// short TTL the admission sweep reclaims them — new sessions admit
/// again and the evictions are counted in [`ShardStats`].
#[test]
fn shard_capacity_recovers_after_session_ttl() {
    let s = eval_scenarios().into_iter().next().unwrap();
    let report = combined_report(&s, 1);
    let (failure, failing) = (&report.failure, &report.failing[..1]); // one trace keeps the fill cheap

    // Default TTL (minutes): 64 abandoned round-1 sessions exhaust the
    // shard, and the 65th open is refused with a typed error.
    let shard = FleetShard::new(&s.module, ServerConfig::default());
    for session in 1..=64u64 {
        shard
            .collect(session, failure, failing, &[])
            .unwrap_or_else(|e| panic!("session {session} admits below capacity: {e}"));
    }
    assert_eq!(shard.open_sessions(), 64);
    let err = shard.collect(65, failure, failing, &[]).unwrap_err();
    assert!(
        err.to_string().contains("at capacity"),
        "the 65th session is refused while all slots are live: {err}"
    );
    assert_eq!(shard.stats().sessions_evicted, 0, "nothing expired yet");

    // Short TTL: the same abandonment self-heals. Admission sweeps may
    // already fire during the fill (each decode outlasts the TTL), so
    // the contract is the cumulative eviction counter plus a
    // successful new admission — not any single sweep's return value.
    let tiny = ServerConfig {
        session_ttl: std::time::Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let shard = FleetShard::new(&s.module, tiny);
    for session in 1..=64u64 {
        shard
            .collect(session, failure, failing, &[])
            .unwrap_or_else(|e| panic!("session {session} admits (sweeps reclaim idle): {e}"));
    }
    std::thread::sleep(std::time::Duration::from_millis(10));
    shard.sweep_expired();
    let stats = shard.stats();
    assert!(
        stats.sessions_evicted >= 64,
        "all 64 abandoned sessions are eventually evicted (got {})",
        stats.sessions_evicted
    );
    assert_eq!(stats.open_sessions, 0, "the sweep leaves no idle session");
    shard
        .collect(65, failure, failing, &[])
        .expect("capacity recovered: a new session admits after the TTL");
}

/// The shard admission race: round-1 collects of new sessions arriving
/// concurrently on a multi-worker daemon must not overshoot the
/// 64-session cap. With 63 sessions open, 8 racing collects leave at
/// most 64 open, and exactly one of them is admitted.
#[test]
fn concurrent_collects_cannot_overshoot_shard_capacity() {
    let s = eval_scenarios().into_iter().next().unwrap();
    let report = combined_report(&s, 1);
    let (failure, failing) = (&report.failure, &report.failing[..1]);
    let shard = FleetShard::new(&s.module, ServerConfig::default());
    for session in 1..=63u64 {
        shard.collect(session, failure, failing, &[]).unwrap();
    }
    let racers = 8u64;
    let gate = Barrier::new(racers as usize);
    let admitted: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..racers)
            .map(|k| {
                let (shard, gate) = (&shard, &gate);
                scope.spawn(move || {
                    gate.wait();
                    usize::from(shard.collect(100 + k, failure, failing, &[]).is_ok())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(
        shard.open_sessions() <= 64,
        "{} sessions open past the cap",
        shard.open_sessions()
    );
    assert_eq!(admitted, 1, "exactly one racer takes the last slot");
    assert_eq!(shard.open_sessions(), 64);
}
