//! Payload fuzzing for every public SNRF payload decoder.
//!
//! The daemon, the fleet router and the stream client parse each
//! other's request and reply payloads, so every payload is untrusted
//! input. For each public payload decoder this suite checks that:
//!
//! * arbitrary bytes decode to `Ok` or a typed error, never a panic;
//! * a valid payload cut short, with one bit flipped, or with a count
//!   word forged to `u32::MAX` does the same;
//! * a valid payload round-trips exactly: decoding it gives back the
//!   values encoded, and encoding the result again the same bytes;
//! * a decoder errs only with a frame or wire error;
//! * decoding allocates only within its clamps: no single allocation
//!   while decoding an `n`-byte payload exceeds [`clamp`]`(n)`, which a
//!   counting global allocator checks, so no declared count can size a
//!   buffer by itself.

use lazy_ir::Pc;
use lazy_snorlax::daemon::{
    decode_batch_report, decode_batch_request_views, decode_diagnose_request_view,
    encode_batch_report, encode_batch_request, encode_diagnose_request,
};
use lazy_snorlax::fleet::{
    decode_collect_reply, decode_finalize_reply, decode_fleet_collect_view, decode_fleet_finalize,
    decode_fleet_patterns, decode_fleet_stats, decode_patterns_reply, decode_shard_stats,
    encode_collect_reply, encode_finalize_reply, encode_fleet_collect, encode_fleet_finalize,
    encode_fleet_patterns, encode_fleet_stats, encode_patterns_reply, encode_shard_stats,
    CollectReply, FinalizeReply, PatternsReply,
};
use lazy_snorlax::patterns::{AccessKind, AtomKind, BugPattern, DeadlockEdge, PatternEvent};
use lazy_snorlax::statistics::{PatternCounts, PatternStats};
use lazy_snorlax::streaming::{
    decode_stream_finish_reply, decode_stream_session, decode_stream_status,
    decode_stream_submit_view, encode_stream_finish_reply, encode_stream_session,
    encode_stream_status, encode_stream_submit_failing, encode_stream_submit_success,
    StreamFinishReply, StreamSubmitView,
};
use lazy_snorlax::{BatchJob, DiagnosisError, ShardStats, StreamStatus};
use lazy_trace::driver::{SnapshotTrigger, ThreadTrace};
use lazy_trace::stats::TraceStats;
use lazy_trace::{SnapshotView, TraceSnapshot};
use lazy_vm::{DeadlockParty, Failure, FailureKind};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------
// Allocation tracking.

/// The system allocator, noting the largest single request per thread.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A const-initialized `Cell` has no destructor, so this access never
    // allocates and stays valid while the thread exits.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// The largest single allocation decoding an `n`-byte payload may make.
/// Every count a decoder sizes a buffer by is clamped to what the rest
/// of the payload can hold, each element it admits costs at least one
/// payload byte, and no decoded element is 128 bytes wide.
fn clamp(n: usize) -> usize {
    128 * n + 4096
}

// ---------------------------------------------------------------------
// The decoders under test.

/// Decodes one payload and, on success, encodes the result again.
type Roundtrip = fn(&[u8]) -> Result<Vec<u8>, DiagnosisError>;

/// Encodes a valid payload for one decoder from a generated sample.
type Encode = fn(&Sample) -> Vec<u8>;

/// Every public payload decoder, with the encoder that inverts it.
const CODECS: [(&str, Encode, Roundtrip); 15] = [
    (
        "decode_diagnose_request_view",
        |s| encode_diagnose_request(&s.failure, &s.failing, &s.successful),
        |p| {
            let r = decode_diagnose_request_view(p)?;
            Ok(encode_diagnose_request(
                &r.failure,
                &owned(&r.failing),
                &owned(&r.successful),
            ))
        },
    ),
    (
        "decode_batch_request_views",
        |s| {
            let job = BatchJob {
                failure: &s.failure,
                failing: &s.failing,
                successful: &s.successful,
            };
            encode_batch_request(&vec![job; s.jobs])
        },
        |p| {
            let jobs = decode_batch_request_views(p)?;
            let owned: Vec<_> = jobs
                .iter()
                .map(|j| (owned(&j.failing), owned(&j.successful)))
                .collect();
            let back: Vec<BatchJob<'_>> = jobs
                .iter()
                .zip(&owned)
                .map(|(j, (failing, successful))| BatchJob {
                    failure: &j.failure,
                    failing,
                    successful,
                })
                .collect();
            Ok(encode_batch_request(&back))
        },
    ),
    (
        "decode_batch_report",
        |s| encode_batch_report(&s.results),
        |p| {
            let results = decode_batch_report(p)?
                .into_iter()
                .map(|r| {
                    r.map_err(|e| match e {
                        DiagnosisError::Remote { detail } => detail,
                        other => other.to_string(),
                    })
                })
                .collect::<Vec<_>>();
            Ok(encode_batch_report(&results))
        },
    ),
    (
        "decode_fleet_collect_view",
        |s| {
            encode_fleet_collect(
                s.session,
                s.module_fp,
                &s.failure,
                &s.failing,
                &s.successful,
            )
        },
        |p| {
            let (session, module_fp, r) = decode_fleet_collect_view(p)?;
            Ok(encode_fleet_collect(
                session,
                module_fp,
                &r.failure,
                &owned(&r.failing),
                &owned(&r.successful),
            ))
        },
    ),
    (
        "decode_collect_reply",
        |s| encode_collect_reply(&s.collect),
        |p| Ok(encode_collect_reply(&decode_collect_reply(p)?)),
    ),
    (
        "decode_fleet_patterns",
        |s| encode_fleet_patterns(s.session, &s.collect.executed),
        |p| {
            let (session, executed) = decode_fleet_patterns(p)?;
            Ok(encode_fleet_patterns(session, &executed))
        },
    ),
    (
        "decode_patterns_reply",
        |s| encode_patterns_reply(&s.patterns),
        |p| Ok(encode_patterns_reply(&decode_patterns_reply(p)?)),
    ),
    (
        "decode_fleet_finalize",
        |s| encode_fleet_finalize(s.session, &s.patterns.patterns),
        |p| {
            let (session, patterns) = decode_fleet_finalize(p)?;
            Ok(encode_fleet_finalize(session, &patterns))
        },
    ),
    (
        "decode_finalize_reply",
        |s| encode_finalize_reply(&s.finalize),
        |p| Ok(encode_finalize_reply(&decode_finalize_reply(p)?)),
    ),
    (
        "decode_fleet_stats",
        |_| encode_fleet_stats(),
        |p| {
            decode_fleet_stats(p)?;
            Ok(encode_fleet_stats())
        },
    ),
    (
        "decode_shard_stats",
        |s| encode_shard_stats(&s.shard),
        |p| Ok(encode_shard_stats(&decode_shard_stats(p)?)),
    ),
    (
        "decode_stream_submit_view",
        |s| match s.failing.first() {
            Some(snap) => encode_stream_submit_failing(s.session, &s.failure, snap),
            None => encode_stream_submit_success(s.session, &empty_snapshot()),
        },
        |p| {
            Ok(match decode_stream_submit_view(p)? {
                (session, StreamSubmitView::Failing { failure, snap }) => {
                    encode_stream_submit_failing(session, &failure, &snap.to_snapshot())
                }
                (session, StreamSubmitView::Success { snap }) => {
                    encode_stream_submit_success(session, &snap.to_snapshot())
                }
            })
        },
    ),
    (
        "decode_stream_session",
        |s| encode_stream_session(s.session),
        |p| Ok(encode_stream_session(decode_stream_session(p)?)),
    ),
    (
        "decode_stream_status",
        |s| encode_stream_status(&s.status),
        |p| Ok(encode_stream_status(&decode_stream_status(p)?)),
    ),
    (
        "decode_stream_finish_reply",
        |s| encode_stream_finish_reply(&s.finish),
        |p| Ok(encode_stream_finish_reply(&decode_stream_finish_reply(p)?)),
    ),
];

fn owned(views: &[SnapshotView<'_>]) -> Vec<TraceSnapshot> {
    views.iter().map(SnapshotView::to_snapshot).collect()
}

fn empty_snapshot() -> TraceSnapshot {
    TraceSnapshot {
        threads: Vec::new(),
        taken_at: 0,
        trigger_tid: 0,
        trigger_pc: 0,
        trigger: SnapshotTrigger::Breakpoint,
    }
}

/// Runs one decoder over `bytes`. Fails the case if it panicked, erred
/// with anything but a frame or wire error, or made an allocation past
/// [`clamp`]; otherwise returns the re-encoded payload, if it decoded.
fn run(name: &str, roundtrip: Roundtrip, bytes: &[u8]) -> Result<Option<Vec<u8>>, TestCaseError> {
    LARGEST.with(|m| m.set(0));
    let out = catch_unwind(AssertUnwindSafe(|| roundtrip(bytes)));
    let largest = LARGEST.with(Cell::get);
    let Ok(out) = out else {
        return Err(TestCaseError::fail(format!(
            "{name} panicked on {bytes:02x?}"
        )));
    };
    prop_assert!(
        largest <= clamp(bytes.len()),
        "{} allocated {} bytes at once for a {}-byte payload",
        name,
        largest,
        bytes.len()
    );
    match out {
        Ok(again) => Ok(Some(again)),
        Err(DiagnosisError::Frame(_) | DiagnosisError::Wire(_)) => Ok(None),
        Err(e) => Err(TestCaseError::fail(format!(
            "{name} failed with a non-wire error: {e:?}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Valid payloads.

/// The parts every valid payload in one case is encoded from.
struct Sample {
    session: u64,
    module_fp: u64,
    failure: Failure,
    failing: Vec<TraceSnapshot>,
    successful: Vec<TraceSnapshot>,
    jobs: usize,
    results: Vec<Result<String, String>>,
    collect: CollectReply,
    patterns: PatternsReply,
    finalize: FinalizeReply,
    shard: ShardStats,
    status: StreamStatus,
    finish: StreamFinishReply,
}

fn arb_text() -> impl Strategy<Value = String> {
    // Multi-byte characters included: a cut or flip can split one.
    prop::collection::vec(any::<u32>(), 0..12).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect()
    })
}

fn arb_snapshot() -> impl Strategy<Value = TraceSnapshot> {
    let thread = (
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..24),
        any::<[u64; 7]>(),
        any::<bool>(),
    )
        .prop_map(|(tid, bytes, s, wrapped)| ThreadTrace {
            tid,
            bytes,
            stats: TraceStats {
                control_events: s[0],
                control_packets: s[1],
                timing_packets: s[2],
                timing_bytes: s[3],
                sync_packets: s[4],
                bytes: s[5],
                cyc_dropped: s[6],
            },
            wrapped,
        });
    (
        prop::collection::vec(thread, 0..3),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        0u8..3,
    )
        .prop_map(
            |(threads, taken_at, trigger_tid, trigger_pc, trigger)| TraceSnapshot {
                threads,
                taken_at,
                trigger_tid,
                trigger_pc,
                trigger: match trigger {
                    0 => SnapshotTrigger::Failure,
                    1 => SnapshotTrigger::Breakpoint,
                    _ => SnapshotTrigger::OnDemand,
                },
            },
        )
}

fn arb_failure() -> impl Strategy<Value = Failure> {
    let parties = prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..4);
    (
        0u8..12,
        any::<u64>(),
        arb_text(),
        parties,
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(code, addr, msg, parties, pc, tid, at_ns)| Failure {
            kind: match code {
                0 => FailureKind::NullDeref { addr },
                1 => FailureKind::UseAfterFree { addr },
                2 => FailureKind::WildAccess { addr },
                3 => FailureKind::BadFree { addr },
                4 => FailureKind::DivByZero,
                5 => FailureKind::StackOverflow,
                6 => FailureKind::AssertFailed { msg },
                7 => FailureKind::BadUnlock { addr },
                8 => FailureKind::BadIndirectCall { target: addr },
                9 => FailureKind::Deadlock {
                    parties: parties
                        .into_iter()
                        .map(|(tid, pc, mutex_addr)| DeadlockParty {
                            tid,
                            pc: Pc(pc),
                            mutex_addr,
                        })
                        .collect(),
                },
                10 => FailureKind::Hang,
                _ => FailureKind::Timeout,
            },
            pc: Pc(pc),
            tid,
            at_ns,
        })
}

fn arb_event() -> impl Strategy<Value = PatternEvent> {
    (any::<u64>(), 0u8..3).prop_map(|(pc, kind)| PatternEvent {
        pc: Pc(pc),
        kind: match kind {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            _ => AccessKind::Lock,
        },
    })
}

fn arb_pattern() -> BoxedStrategy<BugPattern> {
    prop_oneof![
        (arb_event(), arb_event())
            .prop_map(|(first, second)| BugPattern::OrderViolation { first, second }),
        (0u8..4, arb_event(), arb_event(), arb_event()).prop_map(|(kind, first, second, third)| {
            BugPattern::AtomicityViolation {
                kind: match kind {
                    0 => AtomKind::Rwr,
                    1 => AtomKind::Wwr,
                    2 => AtomKind::Rww,
                    _ => AtomKind::Wrw,
                },
                first,
                second,
                third,
            }
        }),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..4).prop_map(|edges| {
            BugPattern::Deadlock {
                edges: edges
                    .into_iter()
                    .map(|(hold, want)| DeadlockEdge {
                        hold_pc: Pc(hold),
                        want_pc: Pc(want),
                    })
                    .collect(),
            }
        }),
        (arb_event(), arb_event(), arb_event(), arb_event()).prop_map(
            |(w_first, w_second, r_first, r_second)| BugPattern::MultiVarAtomicity {
                w_first,
                w_second,
                r_first,
                r_second,
            }
        ),
        prop::collection::vec(arb_event(), 0..4)
            .prop_map(|events| BugPattern::UnorderedTargets { events }),
    ]
    .boxed()
}

fn arb_pcs() -> impl Strategy<Value = Vec<Pc>> {
    prop::collection::vec(any::<u64>().prop_map(Pc), 0..6)
}

fn arb_replies() -> impl Strategy<Value = (CollectReply, PatternsReply, FinalizeReply)> {
    let collect = (arb_pcs(), any::<[u32; 3]>(), any::<[u64; 3]>()).prop_map(|(executed, n, w)| {
        CollectReply {
            executed,
            failing: n[0],
            successful: n[1],
            events_total: w[0],
            resyncs: n[2],
            cyc_dropped: w[1],
            mtc_dups: w[2],
        }
    });
    let patterns = (
        prop::collection::vec(arb_pattern(), 0..4),
        any::<u64>(),
        any::<u64>(),
        any::<[u32; 2]>(),
    )
        .prop_map(|(patterns, pc, pointer_insts, n)| PatternsReply {
            patterns,
            failing_pc: Pc(pc),
            pointer_insts,
            candidates: n[0],
            rank1_candidates: n[1],
        });
    // No shard sees a pattern in more traces than it holds, and supports
    // travel as u32 words.
    let entries = prop::collection::vec((arb_pattern(), any::<u32>(), any::<[u32; 2]>()), 0..4);
    let finalize = (
        entries,
        any::<[u32; 2]>(),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
    )
        .prop_map(|(entries, totals, times)| {
            let (failing, successful) = (totals[0] as usize, totals[1] as usize);
            let entries = entries
                .into_iter()
                .map(|(p, type_rank, s)| {
                    let counts = PatternCounts {
                        type_rank,
                        fail_support: s[0] as usize % (failing + 1),
                        success_support: s[1] as usize % (successful + 1),
                    };
                    (p, counts)
                })
                .collect();
            FinalizeReply {
                stats: PatternStats::from_parts(entries, failing, successful),
                event_times: times.into_iter().map(|(pc, t)| (Pc(pc), t)).collect(),
            }
        });
    (collect, patterns, finalize)
}

fn arb_stream() -> impl Strategy<Value = (ShardStats, StreamStatus, StreamFinishReply)> {
    let shard = any::<[u64; 6]>().prop_map(|w| ShardStats {
        open_sessions: w[0],
        sessions_evicted: w[1],
        cache_lookups: w[2],
        cache_exact_hits: w[3],
        cache_delta_solves: w[4],
        cache_scratch_solves: w[5],
    });
    let status =
        (any::<[u64; 3]>(), any::<bool>(), any::<[u32; 2]>()).prop_map(|(w, c, n)| StreamStatus {
            reports_consumed: w[0],
            reports_rejected: w[1],
            converged: c,
            lead: f64::from_bits(w[2]),
            failing: n[0],
            successes: n[1],
        });
    let finish = (
        any::<[u64; 2]>(),
        any::<bool>(),
        arb_text(),
        prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 0..6),
    )
        .prop_map(
            |(w, converged_early, report, lead_history)| StreamFinishReply {
                reports_consumed: w[0],
                reports_rejected: w[1],
                converged_early,
                report,
                lead_history,
            },
        );
    (shard, status, finish)
}

fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        any::<[u64; 2]>(),
        arb_failure(),
        prop::collection::vec(arb_snapshot(), 0..3),
        prop::collection::vec(arb_snapshot(), 0..3),
        0usize..3,
        prop::collection::vec(
            (any::<bool>(), arb_text()).prop_map(|(ok, t)| if ok { Ok(t) } else { Err(t) }),
            0..4,
        ),
        arb_replies(),
        arb_stream(),
    )
        .prop_map(
            |(ids, failure, failing, successful, jobs, results, replies, stream)| Sample {
                session: ids[0],
                module_fp: ids[1],
                failure,
                failing,
                successful,
                jobs,
                results,
                collect: replies.0,
                patterns: replies.1,
                finalize: replies.2,
                shard: stream.0,
                status: stream.1,
                finish: stream.2,
            },
        )
}

/// `bytes` with bit `at` (taken modulo its length) flipped.
fn flip_bit(bytes: &[u8], at: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let bit = (at % (out.len() as u64 * 8)) as usize;
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

/// `bytes` with a `u32::MAX` count word written at `at` (taken modulo
/// the places one fits).
fn forge_count(bytes: &[u8], at: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.len() >= 4 {
        let i = (at % (out.len() as u64 - 3)) as usize;
        out[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    }
    out
}

proptest! {
    /// Arbitrary bytes: every decoder answers `Ok` or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        for (name, _, roundtrip) in CODECS {
            run(name, roundtrip, &bytes)?;
        }
    }

    /// Valid payloads round-trip exactly; cut short, bit-flipped or
    /// with a forged count word they still answer `Ok` or a typed
    /// error within the clamps.
    #[test]
    fn valid_payloads_roundtrip_and_mutants_fail_typed(
        sample in arb_sample(),
        cut in any::<u64>(),
        flip in any::<u64>(),
        forge in any::<u64>(),
    ) {
        for (name, encode, roundtrip) in CODECS {
            let valid = encode(&sample);
            let again = run(name, roundtrip, &valid)?;
            prop_assert_eq!(again.as_ref(), Some(&valid), "{} did not round-trip", name);
            let cut = (cut % (valid.len() as u64 + 1)) as usize;
            run(name, roundtrip, &valid[..cut])?;
            run(name, roundtrip, &flip_bit(&valid, flip))?;
            run(name, roundtrip, &forge_count(&valid, forge))?;
        }
    }
}

/// A stream status with its float as bits, so NaN leads compare equal.
fn status_bits(s: &StreamStatus) -> (u64, u64, bool, u64, u32, u32) {
    (
        s.reports_consumed,
        s.reports_rejected,
        s.converged,
        s.lead.to_bits(),
        s.failing,
        s.successes,
    )
}

/// A finish reply with its floats as bits.
fn finish_bits(r: &StreamFinishReply) -> (u64, u64, bool, &str, Vec<u64>) {
    let leads = r.lead_history.iter().map(|l| l.to_bits()).collect();
    (
        r.reports_consumed,
        r.reports_rejected,
        r.converged_early,
        &r.report,
        leads,
    )
}

/// Decodes every valid payload of `s` and compares each value with
/// the one it was encoded from.
fn decodes_to_what_was_encoded(s: &Sample) -> Result<(), TestCaseError> {
    let request = (s.failure.clone(), s.failing.clone(), s.successful.clone());
    let [diagnose, batch, report, collect, collect_reply, patterns, patterns_reply, finalize, finalize_reply, _, shard, submit, session, status, finish] =
        CODECS.map(|(_, encode, _)| encode(s));
    let r = decode_diagnose_request_view(&diagnose).unwrap();
    let back = (r.failure, owned(&r.failing), owned(&r.successful));
    prop_assert_eq!(back, request.clone());
    let jobs = decode_batch_request_views(&batch).unwrap();
    prop_assert_eq!(jobs.len(), s.jobs);
    for j in jobs {
        let back = (j.failure, owned(&j.failing), owned(&j.successful));
        prop_assert_eq!(back, request.clone());
    }
    let results: Vec<_> = s
        .results
        .iter()
        .map(|r| {
            r.clone()
                .map_err(|detail| DiagnosisError::Remote { detail })
        })
        .collect();
    prop_assert_eq!(decode_batch_report(&report).unwrap(), results);
    let (id, module_fp, r) = decode_fleet_collect_view(&collect).unwrap();
    let back = (r.failure, owned(&r.failing), owned(&r.successful));
    prop_assert_eq!((id, module_fp, back), (s.session, s.module_fp, request));
    let executed = (s.session, s.collect.executed.clone());
    prop_assert_eq!(
        decode_collect_reply(&collect_reply).unwrap(),
        s.collect.clone()
    );
    prop_assert_eq!(decode_fleet_patterns(&patterns).unwrap(), executed);
    let sent = (s.session, s.patterns.patterns.clone());
    prop_assert_eq!(
        decode_patterns_reply(&patterns_reply).unwrap(),
        s.patterns.clone()
    );
    prop_assert_eq!(decode_fleet_finalize(&finalize).unwrap(), sent);
    prop_assert_eq!(
        decode_finalize_reply(&finalize_reply).unwrap(),
        s.finalize.clone()
    );
    prop_assert_eq!(decode_shard_stats(&shard).unwrap(), s.shard);
    let back = match decode_stream_submit_view(&submit).unwrap() {
        (id, StreamSubmitView::Failing { failure, snap }) => {
            (id, Some(failure), snap.to_snapshot())
        }
        (id, StreamSubmitView::Success { snap }) => (id, None, snap.to_snapshot()),
    };
    let sent = match s.failing.first() {
        Some(snap) => (s.session, Some(s.failure.clone()), snap.clone()),
        None => (s.session, None, empty_snapshot()),
    };
    prop_assert_eq!(back, sent);
    prop_assert_eq!(decode_stream_session(&session).unwrap(), s.session);
    let back = decode_stream_status(&status).unwrap();
    prop_assert_eq!(status_bits(&back), status_bits(&s.status));
    let back = decode_stream_finish_reply(&finish).unwrap();
    prop_assert_eq!(finish_bits(&back), finish_bits(&s.finish));
    Ok(())
}

proptest! {
    /// Decoding a valid payload gives back exactly the values encoded
    /// (the byte round-trip alone would miss an encoder that drops a
    /// field: the decoder reads back the same constant it wrote).
    #[test]
    fn valid_payloads_decode_to_what_was_encoded(s in arb_sample()) {
        decodes_to_what_was_encoded(&s)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every strict prefix of a valid payload is rejected, never
    /// accepted: each decoder consumes exactly its whole payload.
    #[test]
    fn every_strict_prefix_is_rejected(sample in arb_sample()) {
        for (name, encode, roundtrip) in CODECS {
            let valid = encode(&sample);
            for cut in 0..valid.len() {
                let out = run(name, roundtrip, &valid[..cut])?;
                prop_assert!(
                    out.is_none(),
                    "{} accepted a {}-byte prefix of a {}-byte payload",
                    name,
                    cut,
                    valid.len()
                );
            }
        }
    }
}
