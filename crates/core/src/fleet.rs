//! Fleet-scale sharded diagnosis.
//!
//! The paper's deployment model aggregates evidence from *many*
//! production endpoints (§3): one failing trace plus up to 10×
//! successful traces. At fleet scale the trace corpus for a hot failure
//! outgrows one diagnosis site, so this module shards it: N `snorlaxd`
//! shards each hold a partition of the snapshots, and a
//! [`FleetRouter`] merges their *sufficient statistics*
//! ([`PatternStats`]) — never the raw traces — into one diagnosis that
//! is **byte-identical** to running single-node over the union corpus
//! (`tests/fleet.rs` proves this for 2/3/7 shards, in-process and over
//! loopback TCP).
//!
//! ## The three-round protocol
//!
//! Byte-identity forces the round structure, because two pipeline
//! stages are functions of *global* state:
//!
//! 1. **Collect** ([`FrameKind::FleetCollect`]): each shard decodes its
//!    partition (steps 2–3) and reports its executed-instruction set.
//!    The points-to scope is the *union* executed set, so candidate
//!    selection cannot start until every shard has reported.
//! 2. **Patterns** ([`FrameKind::FleetPatterns`]): the coordinator
//!    broadcasts the merged executed set; each shard runs the
//!    single-node steps 4–6 ([`DiagnosisServer`]'s own staged
//!    pipeline) against it — every shard derives the *same* candidates
//!    — and generates bug patterns from its local failing traces.
//!    Support counting needs the global pattern union, hence the third
//!    round.
//! 3. **Finalize** ([`FrameKind::FleetFinalize`]): the coordinator
//!    broadcasts the merged pattern set; each shard counts supports
//!    over its local traces and returns a serialized [`PatternStats`]
//!    ([`FrameKind::PartialStats`]). Merging those and running
//!    [`PatternStats::finalize`] is bit-identical to scoring the whole
//!    corpus at once — the merge laws pinned by
//!    `crates/core/tests/merge_laws.rs`.
//!
//! The coordinator applies the global 10× success cap *before* routing
//! and routes snapshots round-robin, so the shard partition of the
//! capped corpus is a pure function of the input — another byte-identity
//! requirement.
//!
//! ## Degradation
//!
//! A shard that fails a round (transport error, corrupt frame, typed
//! server error, or round-3 statistics over other trace totals than it
//! reported in round 1) is excluded from that round onward and
//! reported in [`FleetOutcome::shard_reports`]; the diagnosis proceeds
//! from the survivors' statistics. Only when *every* shard fails does
//! the coordinator raise [`DiagnosisError::Fleet`].
//!
//! ## Warm sessions and multi-report routing
//!
//! A fleet does not report one failure and stop. [`FleetRouter`]
//! accepts many in-flight reports, keys each by bug ([`BugKey`]:
//! failure PC + module fingerprint), and runs every report's rounds
//! over one shared, *warm* shard set: each shard's compiled walk
//! table and keyed [`PointsToCache`] persist across sessions, so the
//! second report for a bug reuses the solved points-to scope (the
//! `pointsto.cache.*` counters, surfaced per shard as [`ShardStats`],
//! prove the reuse). Sessions live in the daemon's session table, at
//! most 64 per shard and bounded by an idle TTL
//! ([`ServerConfig::session_ttl`]): a coordinator that dies
//! mid-protocol is swept on the next admission instead of pinning a
//! slot until daemon restart.

use crate::daemon::{
    encode_failure, encode_snapshots, push_u32, push_u64, Cursor, FrameError, FrameKind,
};
use crate::error::DiagnosisError;
use crate::patterns::{AccessKind, AtomKind, BugPattern, DeadlockEdge, PatternEvent};
use crate::processing::ProcessedTrace;
use crate::remote::RemoteClient;
use crate::server::{
    is_deadlock, ordered_events_for, Diagnosis, DiagnosisServer, PipelineStats, ServerConfig,
    SharedCache,
};
use crate::session::{AtCapacity, SessionTable, MAX_SESSIONS};
use crate::statistics::{top_pattern_count, PatternCounts, PatternStats};
use lazy_analysis::PointsToCache;
use lazy_ir::{Module, Pc};
use lazy_trace::{fan_out, SnapshotView, TraceSnapshot};
use lazy_vm::Failure;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Telemetry for shard sessions the idle TTL evicted.
static FLEET_SESSIONS_EVICTED: lazy_obs::Counter =
    lazy_obs::Counter::new("fleet.sessions_evicted_total");

/// One encoded pattern event: pc + access kind.
const EVENT_BYTES: usize = 8 + 1;

/// One encoded deadlock edge: hold pc + want pc.
const EDGE_BYTES: usize = 8 + 8;

// ---------------------------------------------------------------------
// Shard side.

/// Per-session state a shard holds between protocol rounds.
struct ShardSession {
    failure: Failure,
    failing: Vec<Arc<ProcessedTrace>>,
    successful: Vec<Arc<ProcessedTrace>>,
    /// Candidate PC → type rank, derived in round 2 (empty before).
    rank_of: HashMap<Pc, u32>,
}

/// A shard's warm-state and lifecycle counters — what `snorlax fleet
/// route` and the concurrent bench read to prove sessions stay warm
/// ([`FrameKind::FleetStats`] on the wire).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Sessions currently open between protocol rounds.
    pub open_sessions: u64,
    /// Sessions ever evicted by the idle TTL.
    pub sessions_evicted: u64,
    /// Scoped points-to solves requested of the warm cache.
    pub cache_lookups: u64,
    /// Solves answered verbatim from a cached solution (same scope).
    pub cache_exact_hits: u64,
    /// Solves that extended a cached subset solution incrementally.
    pub cache_delta_solves: u64,
    /// Solves that ran from scratch (cold scope).
    pub cache_scratch_solves: u64,
}

impl ShardStats {
    /// Solves served at least partly from warm state.
    pub fn warm_solves(&self) -> u64 {
        self.cache_exact_hits + self.cache_delta_solves
    }
}

/// The shard side of the fleet protocol: holds one module, decodes its
/// partition of the trace corpus, and answers the three coordinator
/// rounds. Embedded in every `snorlaxd` (the daemon dispatches fleet
/// frames here) and usable in-process via [`ShardConn::Local`].
///
/// A shard is *warm*: its compiled walk table and its keyed
/// [`PointsToCache`] persist across sessions, so a second report whose
/// executed scope matches (or extends) an earlier one reuses the
/// solved points-to state instead of re-solving from scratch.
pub struct FleetShard<'m> {
    server: DiagnosisServer<'m>,
    /// Sessions between protocol rounds. A coordinator that dies
    /// mid-protocol cannot pin a capacity slot until daemon restart:
    /// idle sessions expire.
    sessions: SessionTable<ShardSession>,
    /// Persistent scoped points-to cache, shared by every session this
    /// shard ever serves. Cached solves are byte-identical to scratch
    /// solves (the least-fixpoint solution is unique), so warm reuse
    /// never perturbs a diagnosis.
    pts_cache: SharedCache,
}

/// A shard's round-1 answer: its executed set plus decode-health sums.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectReply {
    /// Executed PCs across the shard's decoded traces, sorted.
    pub executed: Vec<Pc>,
    /// Failing traces decoded (equals the routed count — a failing
    /// snapshot that does not decode fails the round).
    pub failing: u32,
    /// Successful traces decoded (undecodable successes are dropped,
    /// exactly as single-node `prepare` drops them).
    pub successful: u32,
    /// Decoded events across the shard's retained traces.
    pub events_total: u64,
    /// Packet-level resynchronizations summed over retained traces.
    pub resyncs: u32,
    /// `CYC` deltas dropped, summed.
    pub cyc_dropped: u64,
    /// `MTC` duplicate bytes ignored, summed.
    pub mtc_dups: u64,
}

/// A shard's round-2 answer: its locally generated patterns plus the
/// candidate statistics every shard derives identically from the global
/// executed set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternsReply {
    /// Patterns generated from the shard's local failing traces,
    /// sorted + deduplicated.
    pub patterns: Vec<BugPattern>,
    /// The effective failing access (identical on every shard).
    pub failing_pc: Pc,
    /// Executed instructions with pointer operands (identical).
    pub pointer_insts: u64,
    /// Ranked candidates after truncation (identical).
    pub candidates: u32,
    /// Rank-1 candidates (identical).
    pub rank1_candidates: u32,
}

/// A shard's round-3 answer: its partial sufficient statistics plus
/// the event times the coordinator needs to order the root cause's
/// events (`O_S`) without ever seeing the shard's traces.
#[derive(Clone, Debug, PartialEq)]
pub struct FinalizeReply {
    /// Supports counted over the shard's local traces.
    pub stats: PatternStats,
    /// For the shard's *first* failing trace: pattern PC → last
    /// observed `time.lo`. PCs the trace never executed are absent.
    pub event_times: Vec<(Pc, u64)>,
}

impl<'m> FleetShard<'m> {
    /// Creates a shard for `module`.
    pub fn new(module: &'m Module, cfg: ServerConfig) -> FleetShard<'m> {
        let shard = FleetShard {
            sessions: SessionTable::new(cfg.session_ttl, &FLEET_SESSIONS_EVICTED),
            server: DiagnosisServer::new(module, cfg),
            pts_cache: SharedCache::with_capacity(PointsToCache::DEFAULT_CAPACITY),
        };
        // Compile the walk table now, while the shard is idle: round-1
        // collect latency must not pay the one-time build cost.
        let _ = shard.server.walk_table();
        shard
    }

    /// Evicts sessions idle past the configured TTL (the daemon calls
    /// this from its periodic sweep; admissions sweep on their own).
    /// Returns how many sessions were evicted.
    pub fn sweep_expired(&self) -> usize {
        self.sessions.sweep()
    }

    /// Total sessions ever evicted by the idle TTL.
    pub fn sessions_evicted(&self) -> u64 {
        self.sessions.evicted()
    }

    /// Checks that a router's report is for the module this shard
    /// serves, before round 1 decodes any of its snapshots: a shard
    /// started for another module would otherwise answer every round.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Fleet`] naming both fingerprints on a mismatch.
    pub(crate) fn check_module(&self, module_fp: u64) -> Result<(), DiagnosisError> {
        let module = self.server.module();
        let served = module.fingerprint();
        if module_fp == served {
            return Ok(());
        }
        Err(DiagnosisError::Fleet {
            detail: format!(
                "module fingerprint mismatch: the report is for module {module_fp:#018x}, \
                 this shard serves {} ({served:#018x})",
                module.name
            ),
        })
    }

    /// A snapshot of the shard's lifecycle and warm-cache counters.
    pub fn stats(&self) -> ShardStats {
        let cache = self.pts_cache.stats();
        ShardStats {
            open_sessions: self.sessions.len() as u64,
            sessions_evicted: self.sessions.evicted(),
            cache_lookups: cache.lookups,
            cache_exact_hits: cache.exact_hits,
            cache_delta_solves: cache.delta_solves,
            cache_scratch_solves: cache.scratch_solves,
        }
    }

    /// Round 1: decode this shard's partition and report its executed
    /// set. Opens (or replaces) session `session`.
    ///
    /// # Errors
    ///
    /// Fails when a failing snapshot does not decode, or when the shard
    /// already holds its cap of other sessions.
    pub fn collect(
        &self,
        session: u64,
        failure: &Failure,
        failing: &[TraceSnapshot],
        successful: &[TraceSnapshot],
    ) -> Result<CollectReply, DiagnosisError> {
        let failing: Vec<SnapshotView<'_>> = failing.iter().map(TraceSnapshot::view).collect();
        let successful: Vec<SnapshotView<'_>> =
            successful.iter().map(TraceSnapshot::view).collect();
        self.collect_views(session, failure, &failing, &successful)
    }

    /// [`FleetShard::collect`] over borrowed [`SnapshotView`]s — the
    /// zero-copy ingest path the daemon's fleet frame handler feeds
    /// straight from a connection read buffer. Processed traces are
    /// owned by the session, so the borrow ends when this returns.
    ///
    /// # Errors
    ///
    /// Same contract as [`FleetShard::collect`].
    pub fn collect_views(
        &self,
        session: u64,
        failure: &Failure,
        failing: &[SnapshotView<'_>],
        successful: &[SnapshotView<'_>],
    ) -> Result<CollectReply, DiagnosisError> {
        let _span = lazy_obs::span!("fleet.shard.collect");
        let workers = self.server.config().decode_workers;
        let (failing_traces, success_traces) = self
            .server
            .prepare_traces(failing, successful, None, workers)?;
        let all = || failing_traces.iter().chain(success_traces.iter());
        let reply = CollectReply {
            executed: self.server.executed_union(all()),
            failing: failing_traces.len() as u32,
            successful: success_traces.len() as u32,
            events_total: all().map(|t| t.event_count as u64).sum(),
            resyncs: all().map(|t| t.resyncs).sum(),
            cyc_dropped: all().map(|t| t.cyc_dropped).sum(),
            mtc_dups: all().map(|t| t.mtc_dups).sum(),
        };
        // Admission sweeps expired sessions, checks the cap and inserts
        // under one lock: an abandoned coordinator cannot brick the
        // shard, and concurrent collects cannot overshoot the cap.
        let opened = ShardSession {
            failure: failure.clone(),
            failing: failing_traces,
            successful: success_traces,
            rank_of: HashMap::new(),
        };
        self.sessions
            .insert(session, opened)
            .map_err(|AtCapacity| DiagnosisError::Fleet {
                detail: format!("shard at capacity: {MAX_SESSIONS} open sessions"),
            })?;
        Ok(reply)
    }

    /// Round 2: run the single-node steps 4–6 against the *global*
    /// executed set — every shard derives the same candidates — and
    /// generate patterns from the local failing traces. The points-to
    /// step goes through the shard's warm cache: a repeat scope is an
    /// exact hit, a grown scope a delta solve, both byte-identical to
    /// a scratch solve.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Fleet`] when `session` was never opened here.
    pub fn patterns(&self, session: u64, executed: &[Pc]) -> Result<PatternsReply, DiagnosisError> {
        let _span = lazy_obs::span!("fleet.shard.patterns");
        let (failure, failing) = self
            .sessions
            .with(session, |s| (s.failure.clone(), s.failing.clone()))
            .ok_or_else(|| unknown(session))?;
        // The list may come off the wire: put it in the ascending,
        // duplicate-free form the server's own union has.
        let mut executed = executed.to_vec();
        executed.sort_unstable();
        executed.dedup();
        let found = self
            .server
            .patterns(&failure, &failing, &executed, Some(&self.pts_cache));
        let rank_of = found.rank_of();
        self.sessions.with(session, |s| s.rank_of = rank_of);
        Ok(PatternsReply {
            failing_pc: found.cands.failing_pc,
            pointer_insts: found.cands.pointer_insts_executed as u64,
            candidates: found.cands.ranked.len() as u32,
            rank1_candidates: found.cands.rank1_count() as u32,
            patterns: found.patterns,
        })
    }

    /// Round 3: count supports for the *global* pattern set over the
    /// local traces and close the session.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Fleet`] when `session` was never opened here.
    pub fn finalize(
        &self,
        session: u64,
        patterns: &[BugPattern],
    ) -> Result<FinalizeReply, DiagnosisError> {
        let _span = lazy_obs::span!("fleet.shard.finalize");
        let sess = self
            .sessions
            .remove(session)
            .ok_or_else(|| unknown(session))?;
        let stats = PatternStats::collect(patterns, &sess.failing, &sess.successful, &sess.rank_of);
        let event_times = match sess.failing.first() {
            Some(t0) => {
                let pcs: BTreeSet<Pc> = patterns.iter().flat_map(|p| p.pcs()).collect();
                pcs.into_iter()
                    .filter_map(|pc| t0.last_time(pc).map(|t| (pc, t)))
                    .collect()
            }
            None => Vec::new(),
        };
        Ok(FinalizeReply { stats, event_times })
    }

    /// Sessions currently open (abandoned coordinators show up here).
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }
}

fn unknown(session: u64) -> DiagnosisError {
    DiagnosisError::Fleet {
        detail: format!("unknown fleet session {session}"),
    }
}

// ---------------------------------------------------------------------
// Coordinator side.

/// A coordinator's connection to one shard: in-process (sharing the
/// coordinator's address space) or a `snorlaxd` over TCP.
pub enum ShardConn<'m> {
    /// An in-process shard (boxed: a shard embeds a whole
    /// `DiagnosisServer` and would dwarf the `Remote` variant).
    Local(Box<FleetShard<'m>>),
    /// A remote `snorlaxd` speaking the fleet frames.
    Remote(RemoteClient),
}

impl<'m> ShardConn<'m> {
    /// An in-process shard over `module`.
    pub fn local(module: &'m Module, cfg: ServerConfig) -> ShardConn<'m> {
        ShardConn::Local(Box::new(FleetShard::new(module, cfg)))
    }
    /// Round 1; the shard first checks `module_fp` against its module
    /// ([`FleetShard::check_module`], on either side of the wire).
    fn collect(
        &mut self,
        session: u64,
        module_fp: u64,
        failure: &Failure,
        failing: &[TraceSnapshot],
        successful: &[TraceSnapshot],
    ) -> Result<CollectReply, DiagnosisError> {
        match self {
            ShardConn::Local(s) => {
                s.check_module(module_fp)?;
                s.collect(session, failure, failing, successful)
            }
            ShardConn::Remote(c) => {
                c.fleet_collect(session, module_fp, failure, failing, successful)
            }
        }
    }

    fn patterns(&mut self, session: u64, executed: &[Pc]) -> Result<PatternsReply, DiagnosisError> {
        match self {
            ShardConn::Local(s) => s.patterns(session, executed),
            ShardConn::Remote(c) => c.fleet_patterns(session, executed),
        }
    }

    fn finalize(
        &mut self,
        session: u64,
        patterns: &[BugPattern],
    ) -> Result<FinalizeReply, DiagnosisError> {
        match self {
            ShardConn::Local(s) => s.finalize(session, patterns),
            ShardConn::Remote(c) => c.fleet_finalize(session, patterns),
        }
    }

    /// The shard's lifecycle and warm-cache counters
    /// ([`FrameKind::FleetStats`] for a remote shard).
    ///
    /// # Errors
    ///
    /// Transport or frame errors from a remote shard.
    pub fn stats(&mut self) -> Result<ShardStats, DiagnosisError> {
        match self {
            ShardConn::Local(s) => Ok(s.stats()),
            ShardConn::Remote(c) => c.fleet_stats(),
        }
    }
}

/// What happened on one shard during a fleet diagnosis.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index in the coordinator's shard list.
    pub shard: usize,
    /// Failing snapshots routed to this shard.
    pub failing_routed: usize,
    /// Successful snapshots routed (after the global cap).
    pub successful_routed: usize,
    /// `None` for a survivor; otherwise the protocol round that failed
    /// ("collect", "patterns", "finalize") and the typed error.
    pub error: Option<(&'static str, DiagnosisError)>,
}

/// A fleet-wide diagnosis plus its provenance.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The merged diagnosis — byte-identical (via
    /// [`Diagnosis::render`]) to single-node when every shard survives.
    pub diagnosis: Diagnosis,
    /// Per-shard routing counts and failures.
    pub shard_reports: Vec<ShardReport>,
    /// The merged sufficient statistics the scores came from.
    pub merged_stats: PatternStats,
}

impl FleetOutcome {
    /// Shards that failed a protocol round.
    pub fn failed_shards(&self) -> usize {
        self.shard_reports
            .iter()
            .filter(|r| r.error.is_some())
            .count()
    }
}

/// Session-id source: unique within this process; the process id is
/// mixed in so concurrent coordinator *processes* sharing one daemon
/// cannot collide.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

fn next_session() -> u64 {
    let n = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) ^ n
}

/// The identity the router keys reports by: the failure PC plus a
/// structural fingerprint of the module it manifested in. Two
/// endpoints reporting the same crash site of the same binary hash to
/// the same bug, so their reports warm the same cached scopes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BugKey {
    /// PC of the failing instruction.
    pub failure_pc: Pc,
    /// [`Module::fingerprint`] of the module the failure was observed
    /// in.
    pub module_fp: u64,
}

impl BugKey {
    /// The key for `failure` observed in `module`.
    pub fn of(module: &Module, failure: &Failure) -> BugKey {
        BugKey {
            failure_pc: failure.pc,
            module_fp: module.fingerprint(),
        }
    }
}

/// One endpoint's failure report, as submitted to the router.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The failure the endpoint observed.
    pub failure: Failure,
    /// Snapshots from failing executions.
    pub failing: Vec<TraceSnapshot>,
    /// Snapshots from successful executions past the breakpoint.
    pub successful: Vec<TraceSnapshot>,
}

/// Concurrent multi-report fleet diagnosis: accepts many in-flight
/// reports, keys each by bug ([`BugKey`]), and runs every report's
/// three-round protocol over one *shared* set of warm shards. Shards
/// persist across reports — their compiled walk tables and keyed
/// [`PointsToCache`]s survive — so the second report for a bug reuses
/// the solved points-to scope (exact hit or delta solve) instead of
/// re-solving from scratch, while each report's diagnosis stays
/// byte-identical to running it alone on a single node.
pub struct FleetRouter<'m> {
    module: &'m Module,
    cfg: ServerConfig,
    shards: Vec<Mutex<ShardConn<'m>>>,
    routes: Mutex<BTreeMap<BugKey, u64>>,
}

impl<'m> FleetRouter<'m> {
    /// A router over `shards`. `cfg` governs the global success cap
    /// (`success_factor`) and must match the shards' configuration for
    /// candidate truncation to agree. A shard, local or remote, that
    /// serves another module than `module` fails every report's round 1
    /// with a typed [`DiagnosisError::Fleet`].
    pub fn new(
        module: &'m Module,
        cfg: ServerConfig,
        shards: Vec<ShardConn<'m>>,
    ) -> FleetRouter<'m> {
        FleetRouter {
            module,
            cfg,
            shards: shards.into_iter().map(Mutex::new).collect(),
            routes: Mutex::new(BTreeMap::new()),
        }
    }

    /// A router over `n` in-process warm shards — the pure sharded
    /// dataflow with no transport, used by determinism tests and by
    /// `snorlax fleet route --shards N`.
    pub fn in_process(module: &'m Module, cfg: ServerConfig, n: usize) -> FleetRouter<'m> {
        let shards = (0..n)
            .map(|_| ShardConn::local(module, cfg.clone()))
            .collect();
        FleetRouter::new(module, cfg, shards)
    }

    /// Shards configured.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Routes one report: keys it by bug, partitions its snapshots
    /// round-robin across the shared shards, runs the three-round
    /// protocol and merges the shards' partial statistics. The result
    /// is byte-identical to a single-node diagnosis of the same report
    /// — warm state only changes *how fast* the shards answer, never
    /// what they answer.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::EmptyReport`] with no failing snapshots,
    /// [`DiagnosisError::Fleet`] when no shards are configured or every
    /// shard fails a round. A *subset* of shards failing degrades
    /// instead: see [`FleetOutcome::shard_reports`]. An error fails
    /// this report alone and leaves the shards warm for siblings.
    pub fn route(&self, report: &FleetReport) -> Result<FleetOutcome, DiagnosisError> {
        let key = BugKey::of(self.module, &report.failure);
        {
            let mut routes = self.routes.lock().unwrap_or_else(PoisonError::into_inner);
            let seen = routes.entry(key).or_insert(0);
            if *seen == 0 {
                lazy_obs::counter!("fleet.router.bugs_total", 1u64);
            }
            *seen += 1;
        }
        lazy_obs::counter!("fleet.router.reports_total", 1u64);
        run_rounds(
            self.module,
            key.module_fp,
            &self.cfg,
            &self.shards,
            &report.failure,
            &report.failing,
            &report.successful,
        )
    }

    /// Routes many in-flight reports concurrently on
    /// [`lazy_trace::fan_out`]; rounds interleave across the shared
    /// shards. In-flight reports are bounded by the idle cores, the
    /// calling thread's included: an unbounded
    /// thread-per-report fan-out just multiplies contention on the
    /// per-shard mutexes (and evicts each other's decode working set)
    /// without adding wall-clock overlap. On one core every report
    /// routes on the calling thread, warm and sequential, which is the
    /// throughput optimum there. Results come back in input order; each
    /// report succeeds or fails alone — interleaving safety is carried
    /// by the per-shard mutexes, not by the fan-out (concurrent `route`
    /// calls from arbitrary threads are equally fine).
    pub fn route_all(&self, reports: &[FleetReport]) -> Vec<Result<FleetOutcome, DiagnosisError>> {
        fan_out(reports, 0, |report| self.route(report))
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| Err(DiagnosisError::from_panic("fleet", p))))
            .collect()
    }

    /// Reports routed so far for `key`.
    pub fn reports_routed(&self, key: &BugKey) -> u64 {
        self.routes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    /// Every bug the router has seen, with its report count.
    pub fn known_bugs(&self) -> Vec<(BugKey, u64)> {
        self.routes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, n)| (*k, *n))
            .collect()
    }

    /// Per-shard lifecycle and warm-cache counters, in shard order —
    /// the proof the shards actually stayed warm.
    pub fn shard_stats(&self) -> Vec<Result<ShardStats, DiagnosisError>> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).stats())
            .collect()
    }
}

/// The three-round fleet protocol over a shared shard set, behind
/// [`FleetRouter::route`]: shards are shared by concurrent reports, and
/// per-shard mutexes serialize individual rounds.
fn run_rounds(
    module: &Module,
    module_fp: u64,
    cfg: &ServerConfig,
    shards: &[Mutex<ShardConn<'_>>],
    failure: &Failure,
    failing: &[TraceSnapshot],
    successful: &[TraceSnapshot],
) -> Result<FleetOutcome, DiagnosisError> {
    let _span = lazy_obs::span!("fleet.diagnose");
    let started = Instant::now();
    if shards.is_empty() {
        return Err(DiagnosisError::Fleet {
            detail: "no shards configured".to_owned(),
        });
    }
    if failing.is_empty() {
        return Err(DiagnosisError::EmptyReport);
    }
    let n = shards.len();
    lazy_obs::counter!("fleet.shards_total", n);

    // The global success cap applies BEFORE routing: a per-shard
    // cap would depend on n and break equality with single-node.
    let cap = cfg.success_factor * failing.len().max(1);
    let successful = &successful[..successful.len().min(cap)];

    // Round-robin routing: shard k gets failing traces k, k+n, …
    // — a pure function of the input, and shard 0 always holds the
    // globally-first failing trace (the `ordered_events` source).
    let mut parts: Vec<(Vec<TraceSnapshot>, Vec<TraceSnapshot>)> =
        (0..n).map(|_| (Vec::new(), Vec::new())).collect();
    for (i, s) in failing.iter().enumerate() {
        parts[i % n].0.push(s.clone());
    }
    for (j, s) in successful.iter().enumerate() {
        parts[j % n].1.push(s.clone());
    }
    let mut reports: Vec<ShardReport> = parts
        .iter()
        .enumerate()
        .map(|(k, (f, s))| ShardReport {
            shard: k,
            failing_routed: f.len(),
            successful_routed: s.len(),
            error: None,
        })
        .collect();

    let session = next_session();

    // Round 1: collect.
    let round_started = Instant::now();
    let collected: Vec<Option<CollectReply>> = {
        let _round = lazy_obs::span!("fleet.collect");
        let alive = vec![true; n];
        record_round(
            "collect",
            &mut reports,
            on_live_shards(shards, &alive, |k, shard| {
                shard.collect(session, module_fp, failure, &parts[k].0, &parts[k].1)
            }),
        )
    };
    let mut alive: Vec<bool> = collected.iter().map(Option::is_some).collect();
    require_survivors(&alive, &reports)?;
    let decode_micros = round_started.elapsed().as_micros();

    let executed_union: BTreeSet<Pc> = collected
        .iter()
        .flatten()
        .flat_map(|r| r.executed.iter().copied())
        .collect();
    let executed: Vec<Pc> = executed_union.into_iter().collect();

    // Round 2: patterns against the global executed set.
    let round_started = Instant::now();
    let pattern_sets: Vec<Option<PatternsReply>> = {
        let _round = lazy_obs::span!("fleet.patterns");
        record_round(
            "patterns",
            &mut reports,
            on_live_shards(shards, &alive, |_, shard| {
                shard.patterns(session, &executed)
            }),
        )
    };
    for (a, r) in alive.iter_mut().zip(&pattern_sets) {
        *a = *a && r.is_some();
    }
    require_survivors(&alive, &reports)?;
    let points_to_micros = round_started.elapsed().as_micros();

    // Union the shards' sorted+deduped sets: identical to the
    // single-node sort+dedup over the concatenated per-trace runs.
    let pattern_union: BTreeSet<BugPattern> = pattern_sets
        .iter()
        .flatten()
        .flat_map(|r| r.patterns.iter().cloned())
        .collect();
    let patterns: Vec<BugPattern> = pattern_union.into_iter().collect();
    lazy_obs::counter!("fleet.patterns_merged_total", patterns.len());
    // Every shard derives these from the same global executed set;
    // take the first survivor's.
    let cand_info = pattern_sets
        .iter()
        .flatten()
        .next()
        .cloned()
        .ok_or_else(|| DiagnosisError::Fleet {
            detail: "no surviving shard reported candidates".to_owned(),
        })?;

    // Round 3: finalize — gather and merge partial statistics.
    let round_started = Instant::now();
    let finals: Vec<Option<FinalizeReply>> = {
        let _round = lazy_obs::span!("fleet.finalize");
        let results = on_live_shards(shards, &alive, |k, shard| {
            let reply = shard.finalize(session, &patterns)?;
            check_totals(&reply.stats, collected[k].as_ref())?;
            Ok(reply)
        });
        record_round("finalize", &mut reports, results)
    };
    for (a, r) in alive.iter_mut().zip(&finals) {
        *a = *a && r.is_some();
    }
    require_survivors(&alive, &reports)?;

    let mut merged = PatternStats::empty();
    for r in finals.iter().flatten() {
        merged.merge(&r.stats);
    }
    lazy_obs::counter!(
        "fleet.partial_stats_merged_total",
        finals.iter().flatten().count()
    );
    let failed = reports.iter().filter(|r| r.error.is_some()).count();
    lazy_obs::counter!("fleet.shard_failures_total", failed);

    let scores = merged.finalize();
    let top_patterns = if patterns.is_empty() {
        0
    } else {
        top_pattern_count(&scores)
    };

    // Order the root cause's events using the earliest surviving
    // shard that holds a failing trace — with full survival that is
    // shard 0, whose first local failing trace IS the global first.
    let time_map: BTreeMap<Pc, u64> = finals
        .iter()
        .enumerate()
        .find(|(k, r)| r.is_some() && reports[*k].failing_routed > 0)
        .and_then(|(_, r)| r.as_ref())
        .map(|r| r.event_times.iter().copied().collect())
        .unwrap_or_default();
    let ordered_events = match scores.first().filter(|s| s.f1 > 0.0) {
        Some(top) => ordered_events_for(top, |pc| time_map.get(&pc).copied()),
        None => Vec::new(),
    };

    let sum_collected =
        |f: &dyn Fn(&CollectReply) -> u64| -> u64 { collected.iter().flatten().map(f).sum() };
    let stats = PipelineStats {
        static_insts: module.inst_count(),
        executed_insts: executed.len(),
        pointer_insts: cand_info.pointer_insts as usize,
        candidates: cand_info.candidates as usize,
        rank1_candidates: cand_info.rank1_candidates as usize,
        patterns: patterns.len(),
        top_patterns,
        events_total: sum_collected(&|r| r.events_total) as usize,
        analysis_micros: started.elapsed().as_micros(),
        decode_micros,
        points_to_micros,
        pattern_micros: round_started.elapsed().as_micros(),
        decode_resyncs: collected.iter().flatten().map(|r| r.resyncs).sum(),
        cyc_dropped: sum_collected(&|r| r.cyc_dropped),
        mtc_dups: sum_collected(&|r| r.mtc_dups),
    };
    lazy_obs::histogram!("fleet.diagnose_us", stats.analysis_micros);
    Ok(FleetOutcome {
        diagnosis: Diagnosis {
            scores,
            stats,
            failing_pc: cand_info.failing_pc,
            is_deadlock: is_deadlock(failure),
            ordered_events,
        },
        shard_reports: reports,
        merged_stats: merged,
    })
}

/// Runs `f` concurrently against every still-alive shard, one worker
/// each (a shard is one network peer, so a round blocked on one shard
/// must not hold up the others). Each worker locks exactly its own
/// shard for the duration of the round — that per-shard mutex is what
/// lets a [`FleetRouter`] interleave many reports over one shard set
/// without interleaving bytes on a connection. A panic inside a shard
/// call degrades that shard. Results are index-aligned with `shards`;
/// a dead shard's slot is `None`.
fn on_live_shards<R: Send>(
    shards: &[Mutex<ShardConn<'_>>],
    alive: &[bool],
    f: impl Fn(usize, &mut ShardConn<'_>) -> Result<R, DiagnosisError> + Sync,
) -> Vec<Option<Result<R, DiagnosisError>>> {
    let live: Vec<usize> = (0..shards.len()).filter(|&k| alive[k]).collect();
    let results = fan_out(&live, live.len(), |&k| {
        f(
            k,
            &mut shards[k].lock().unwrap_or_else(PoisonError::into_inner),
        )
    });
    let mut slots: Vec<Option<Result<R, DiagnosisError>>> = shards.iter().map(|_| None).collect();
    for (&k, r) in live.iter().zip(results) {
        slots[k] = Some(r.unwrap_or_else(|p| Err(DiagnosisError::from_panic("fleet", p))));
    }
    slots
}

/// Files each shard's round result: errors land in `reports`, values
/// pass through.
fn record_round<R>(
    round: &'static str,
    reports: &mut [ShardReport],
    results: Vec<Option<Result<R, DiagnosisError>>>,
) -> Vec<Option<R>> {
    results
        .into_iter()
        .enumerate()
        .map(|(k, r)| match r {
            Some(Ok(v)) => Some(v),
            Some(Err(e)) => {
                reports[k].error = Some((round, e));
                None
            }
            None => None,
        })
        .collect()
}

/// A round-3 reply must count exactly the traces the same shard
/// decoded in round 1: statistics over any other corpus are not this
/// report's, and inflated totals would overflow the merge.
fn check_totals(stats: &PatternStats, round1: Option<&CollectReply>) -> Result<(), DiagnosisError> {
    let counted = (stats.failing_traces(), stats.successful_traces());
    match round1 {
        Some(r) if counted == (r.failing as usize, r.successful as usize) => Ok(()),
        _ => Err(DiagnosisError::Fleet {
            detail: format!(
                "partial statistics cover {} failing + {} successful traces, \
                 not the traces the shard collected",
                counted.0, counted.1
            ),
        }),
    }
}

/// All-shards-failed is the one fleet-fatal condition.
fn require_survivors(alive: &[bool], reports: &[ShardReport]) -> Result<(), DiagnosisError> {
    if alive.iter().any(|a| *a) {
        return Ok(());
    }
    let last = reports
        .iter()
        .rev()
        .find_map(|r| r.error.as_ref())
        .map(|(round, e)| format!("last failure in {round}: {e}"))
        .unwrap_or_else(|| "no shards answered".to_owned());
    Err(DiagnosisError::Fleet {
        detail: format!("every shard failed; {last}"),
    })
}

// ---------------------------------------------------------------------
// Wire codecs for the fleet frames.

fn encode_event(out: &mut Vec<u8>, e: &PatternEvent) {
    push_u64(out, e.pc.0);
    out.push(match e.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::Lock => 2,
    });
}

fn decode_event(c: &mut Cursor<'_>) -> Result<PatternEvent, FrameError> {
    let pc = Pc(c.u64()?);
    let kind = match c.u8()? {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        2 => AccessKind::Lock,
        _ => return Err(FrameError::BadPayload("access kind")),
    };
    Ok(PatternEvent { pc, kind })
}

fn encode_pattern(out: &mut Vec<u8>, p: &BugPattern) {
    match p {
        BugPattern::OrderViolation { first, second } => {
            out.push(0);
            encode_event(out, first);
            encode_event(out, second);
        }
        BugPattern::AtomicityViolation {
            kind,
            first,
            second,
            third,
        } => {
            out.push(1);
            out.push(match kind {
                AtomKind::Rwr => 0,
                AtomKind::Wwr => 1,
                AtomKind::Rww => 2,
                AtomKind::Wrw => 3,
            });
            encode_event(out, first);
            encode_event(out, second);
            encode_event(out, third);
        }
        BugPattern::Deadlock { edges } => {
            out.push(2);
            push_u32(out, edges.len() as u32);
            for e in edges {
                push_u64(out, e.hold_pc.0);
                push_u64(out, e.want_pc.0);
            }
        }
        BugPattern::MultiVarAtomicity {
            w_first,
            w_second,
            r_first,
            r_second,
        } => {
            out.push(3);
            encode_event(out, w_first);
            encode_event(out, w_second);
            encode_event(out, r_first);
            encode_event(out, r_second);
        }
        BugPattern::UnorderedTargets { events } => {
            out.push(4);
            push_u32(out, events.len() as u32);
            for e in events {
                encode_event(out, e);
            }
        }
    }
}

fn decode_pattern(c: &mut Cursor<'_>) -> Result<BugPattern, FrameError> {
    Ok(match c.u8()? {
        0 => BugPattern::OrderViolation {
            first: decode_event(c)?,
            second: decode_event(c)?,
        },
        1 => {
            let kind = match c.u8()? {
                0 => AtomKind::Rwr,
                1 => AtomKind::Wwr,
                2 => AtomKind::Rww,
                3 => AtomKind::Wrw,
                _ => return Err(FrameError::BadPayload("atomicity kind")),
            };
            BugPattern::AtomicityViolation {
                kind,
                first: decode_event(c)?,
                second: decode_event(c)?,
                third: decode_event(c)?,
            }
        }
        2 => {
            let n = c.u32()? as usize;
            if n > c.remaining() / EDGE_BYTES {
                return Err(FrameError::BadPayload("deadlock edge count"));
            }
            let mut edges = Vec::with_capacity(n);
            for _ in 0..n {
                edges.push(DeadlockEdge {
                    hold_pc: Pc(c.u64()?),
                    want_pc: Pc(c.u64()?),
                });
            }
            BugPattern::Deadlock { edges }
        }
        3 => BugPattern::MultiVarAtomicity {
            w_first: decode_event(c)?,
            w_second: decode_event(c)?,
            r_first: decode_event(c)?,
            r_second: decode_event(c)?,
        },
        4 => {
            let n = c.u32()? as usize;
            if n > c.remaining() / EVENT_BYTES {
                return Err(FrameError::BadPayload("unordered event count"));
            }
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(decode_event(c)?);
            }
            BugPattern::UnorderedTargets { events }
        }
        _ => return Err(FrameError::BadPayload("pattern tag")),
    })
}

fn encode_patterns(out: &mut Vec<u8>, patterns: &[BugPattern]) {
    push_u32(out, patterns.len() as u32);
    for p in patterns {
        encode_pattern(out, p);
    }
}

fn decode_patterns(c: &mut Cursor<'_>) -> Result<Vec<BugPattern>, FrameError> {
    let n = c.u32()? as usize;
    // Every pattern costs at least its tag byte.
    if n > c.remaining() {
        return Err(FrameError::BadPayload("pattern count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_pattern(c)?);
    }
    Ok(out)
}

fn encode_pcs(out: &mut Vec<u8>, pcs: &[Pc]) {
    push_u32(out, pcs.len() as u32);
    for pc in pcs {
        push_u64(out, pc.0);
    }
}

fn decode_pcs(c: &mut Cursor<'_>) -> Result<Vec<Pc>, FrameError> {
    let n = c.u32()? as usize;
    if n > c.remaining() / 8 {
        return Err(FrameError::BadPayload("pc count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Pc(c.u64()?));
    }
    Ok(out)
}

/// Encodes a [`FrameKind::FleetCollect`] payload: the session, the
/// router's module fingerprint ([`Module::fingerprint`]), then the
/// report.
pub fn encode_fleet_collect(
    session: u64,
    module_fp: u64,
    failure: &Failure,
    failing: &[TraceSnapshot],
    successful: &[TraceSnapshot],
) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, session);
    push_u64(&mut out, module_fp);
    encode_failure(&mut out, failure);
    encode_snapshots(&mut out, failing);
    encode_snapshots(&mut out, successful);
    out
}

/// Decodes a [`FrameKind::FleetCollect`] payload into the session, the
/// router's module fingerprint and the report, without copying trace
/// bytes: the returned views borrow from `payload`.
///
/// # Errors
///
/// Frame errors for structural corruption; wire errors when an embedded
/// snapshot fails its own checksum.
pub fn decode_fleet_collect_view(
    payload: &[u8],
) -> Result<(u64, u64, crate::daemon::DiagnoseRequestView<'_>), DiagnosisError> {
    let mut c = Cursor::new(payload);
    let session = c.u64().map_err(DiagnosisError::Frame)?;
    let module_fp = c.u64().map_err(DiagnosisError::Frame)?;
    let request = crate::daemon::decode_diagnose_view_cursor(&mut c)?;
    c.done().map_err(DiagnosisError::Frame)?;
    Ok((session, module_fp, request))
}

/// Encodes a [`FrameKind::FleetCollectAck`] payload.
pub fn encode_collect_reply(r: &CollectReply) -> Vec<u8> {
    let mut out = Vec::new();
    encode_pcs(&mut out, &r.executed);
    push_u32(&mut out, r.failing);
    push_u32(&mut out, r.successful);
    push_u64(&mut out, r.events_total);
    push_u32(&mut out, r.resyncs);
    push_u64(&mut out, r.cyc_dropped);
    push_u64(&mut out, r.mtc_dups);
    out
}

/// Decodes a [`FrameKind::FleetCollectAck`] payload.
///
/// # Errors
///
/// [`FrameError::BadPayload`] / [`FrameError::Truncated`] on structural
/// corruption.
pub fn decode_collect_reply(payload: &[u8]) -> Result<CollectReply, FrameError> {
    let mut c = Cursor::new(payload);
    let r = CollectReply {
        executed: decode_pcs(&mut c)?,
        failing: c.u32()?,
        successful: c.u32()?,
        events_total: c.u64()?,
        resyncs: c.u32()?,
        cyc_dropped: c.u64()?,
        mtc_dups: c.u64()?,
    };
    c.done()?;
    Ok(r)
}

/// Encodes a [`FrameKind::FleetPatterns`] payload.
pub fn encode_fleet_patterns(session: u64, executed: &[Pc]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, session);
    encode_pcs(&mut out, executed);
    out
}

/// Decodes a [`FrameKind::FleetPatterns`] payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_fleet_patterns(payload: &[u8]) -> Result<(u64, Vec<Pc>), FrameError> {
    let mut c = Cursor::new(payload);
    let session = c.u64()?;
    let executed = decode_pcs(&mut c)?;
    c.done()?;
    Ok((session, executed))
}

/// Encodes a [`FrameKind::FleetPatternSet`] payload.
pub fn encode_patterns_reply(r: &PatternsReply) -> Vec<u8> {
    let mut out = Vec::new();
    encode_patterns(&mut out, &r.patterns);
    push_u64(&mut out, r.failing_pc.0);
    push_u64(&mut out, r.pointer_insts);
    push_u32(&mut out, r.candidates);
    push_u32(&mut out, r.rank1_candidates);
    out
}

/// Decodes a [`FrameKind::FleetPatternSet`] payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_patterns_reply(payload: &[u8]) -> Result<PatternsReply, FrameError> {
    let mut c = Cursor::new(payload);
    let r = PatternsReply {
        patterns: decode_patterns(&mut c)?,
        failing_pc: Pc(c.u64()?),
        pointer_insts: c.u64()?,
        candidates: c.u32()?,
        rank1_candidates: c.u32()?,
    };
    c.done()?;
    Ok(r)
}

/// Encodes a [`FrameKind::FleetFinalize`] payload.
pub fn encode_fleet_finalize(session: u64, patterns: &[BugPattern]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, session);
    encode_patterns(&mut out, patterns);
    out
}

/// Decodes a [`FrameKind::FleetFinalize`] payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_fleet_finalize(payload: &[u8]) -> Result<(u64, Vec<BugPattern>), FrameError> {
    let mut c = Cursor::new(payload);
    let session = c.u64()?;
    let patterns = decode_patterns(&mut c)?;
    c.done()?;
    Ok((session, patterns))
}

/// Encodes a [`FrameKind::PartialStats`] payload: the serialized
/// sufficient statistics plus the event-time map.
pub fn encode_finalize_reply(r: &FinalizeReply) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, r.stats.failing_traces() as u64);
    push_u64(&mut out, r.stats.successful_traces() as u64);
    push_u32(&mut out, r.stats.len() as u32);
    for (p, c) in r.stats.entries() {
        encode_pattern(&mut out, p);
        push_u32(&mut out, c.type_rank);
        push_u32(&mut out, c.fail_support as u32);
        push_u32(&mut out, c.success_support as u32);
    }
    push_u32(&mut out, r.event_times.len() as u32);
    for (pc, t) in &r.event_times {
        push_u64(&mut out, pc.0);
        push_u64(&mut out, *t);
    }
    out
}

/// Decodes a [`FrameKind::PartialStats`] payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_finalize_reply(payload: &[u8]) -> Result<FinalizeReply, FrameError> {
    let mut c = Cursor::new(payload);
    let failing = c.u64()? as usize;
    let successful = c.u64()? as usize;
    let n = c.u32()? as usize;
    // Each entry costs at least a pattern tag plus three count words.
    if n > c.remaining() / 13 {
        return Err(FrameError::BadPayload("stats entry count"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let p = decode_pattern(&mut c)?;
        let counts = PatternCounts {
            type_rank: c.u32()?,
            fail_support: c.u32()? as usize,
            success_support: c.u32()? as usize,
        };
        // No shard can see a pattern in more traces than it holds.
        if counts.fail_support > failing || counts.success_support > successful {
            return Err(FrameError::BadPayload("support exceeds trace total"));
        }
        entries.push((p, counts));
    }
    let m = c.u32()? as usize;
    if m > c.remaining() / 16 {
        return Err(FrameError::BadPayload("event time count"));
    }
    let mut event_times = Vec::with_capacity(m);
    for _ in 0..m {
        event_times.push((Pc(c.u64()?), c.u64()?));
    }
    c.done()?;
    Ok(FinalizeReply {
        stats: PatternStats::from_parts(entries, failing, successful),
        event_times,
    })
}

/// Encodes a [`FrameKind::FleetStats`] request payload. The request
/// targets the daemon's one shard state, so it carries nothing.
pub fn encode_fleet_stats() -> Vec<u8> {
    Vec::new()
}

/// Decodes a [`FrameKind::FleetStats`] request payload.
///
/// # Errors
///
/// [`FrameError::BadPayload`] when the payload is not empty.
pub fn decode_fleet_stats(payload: &[u8]) -> Result<(), FrameError> {
    if payload.is_empty() {
        Ok(())
    } else {
        Err(FrameError::BadPayload("trailing bytes"))
    }
}

/// Encodes a [`FrameKind::FleetStatsAck`] payload.
pub fn encode_shard_stats(s: &ShardStats) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, s.open_sessions);
    push_u64(&mut out, s.sessions_evicted);
    push_u64(&mut out, s.cache_lookups);
    push_u64(&mut out, s.cache_exact_hits);
    push_u64(&mut out, s.cache_delta_solves);
    push_u64(&mut out, s.cache_scratch_solves);
    out
}

/// Decodes a [`FrameKind::FleetStatsAck`] payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_shard_stats(payload: &[u8]) -> Result<ShardStats, FrameError> {
    let mut c = Cursor::new(payload);
    let s = ShardStats {
        open_sessions: c.u64()?,
        sessions_evicted: c.u64()?,
        cache_lookups: c.u64()?,
        cache_exact_hits: c.u64()?,
        cache_delta_solves: c.u64()?,
        cache_scratch_solves: c.u64()?,
    };
    c.done()?;
    Ok(s)
}

/// Response-kind mapping for the fleet requests — the daemon uses
/// this to pick the ack kind, the client to validate it.
pub fn fleet_response_kind(request: FrameKind) -> Option<FrameKind> {
    match request {
        FrameKind::FleetCollect => Some(FrameKind::FleetCollectAck),
        FrameKind::FleetPatterns => Some(FrameKind::FleetPatternSet),
        FrameKind::FleetFinalize => Some(FrameKind::PartialStats),
        FrameKind::FleetStats => Some(FrameKind::FleetStatsAck),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u64, kind: AccessKind) -> PatternEvent {
        PatternEvent { pc: Pc(pc), kind }
    }

    fn sample_patterns() -> Vec<BugPattern> {
        vec![
            BugPattern::OrderViolation {
                first: ev(0x10, AccessKind::Write),
                second: ev(0x20, AccessKind::Read),
            },
            BugPattern::AtomicityViolation {
                kind: AtomKind::Rwr,
                first: ev(1, AccessKind::Read),
                second: ev(2, AccessKind::Write),
                third: ev(3, AccessKind::Read),
            },
            BugPattern::Deadlock {
                edges: vec![
                    DeadlockEdge {
                        hold_pc: Pc(5),
                        want_pc: Pc(6),
                    },
                    DeadlockEdge {
                        hold_pc: Pc(7),
                        want_pc: Pc(8),
                    },
                ],
            },
            BugPattern::MultiVarAtomicity {
                w_first: ev(11, AccessKind::Write),
                w_second: ev(12, AccessKind::Write),
                r_first: ev(13, AccessKind::Read),
                r_second: ev(14, AccessKind::Read),
            },
            BugPattern::UnorderedTargets {
                events: vec![ev(21, AccessKind::Lock), ev(22, AccessKind::Write)],
            },
        ]
    }

    #[test]
    fn pattern_codec_roundtrips_every_variant() {
        let patterns = sample_patterns();
        let mut out = Vec::new();
        encode_patterns(&mut out, &patterns);
        let mut c = Cursor::new(&out);
        let back = decode_patterns(&mut c).unwrap();
        assert_eq!(back, patterns);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn finalize_reply_codec_roundtrips() {
        let entries: Vec<(BugPattern, PatternCounts)> = sample_patterns()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p,
                    PatternCounts {
                        type_rank: 1 + (i as u32 % 2),
                        fail_support: i,
                        success_support: 2 * i,
                    },
                )
            })
            .collect();
        let reply = FinalizeReply {
            stats: PatternStats::from_parts(entries, 7, 70),
            event_times: vec![(Pc(0x10), 42), (Pc(0x20), u64::MAX - 1)],
        };
        let wire = encode_finalize_reply(&reply);
        let back = decode_finalize_reply(&wire).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn collect_and_patterns_codecs_roundtrip() {
        let collect = CollectReply {
            executed: vec![Pc(1), Pc(2), Pc(900)],
            failing: 3,
            successful: 30,
            events_total: 123_456,
            resyncs: 2,
            cyc_dropped: 9,
            mtc_dups: 1,
        };
        let wire = encode_collect_reply(&collect);
        assert_eq!(decode_collect_reply(&wire).unwrap(), collect);

        let reply = PatternsReply {
            patterns: sample_patterns(),
            failing_pc: Pc(0x40),
            pointer_insts: 512,
            candidates: 17,
            rank1_candidates: 4,
        };
        let wire = encode_patterns_reply(&reply);
        assert_eq!(decode_patterns_reply(&wire).unwrap(), reply);

        let (s, pcs) = decode_fleet_patterns(&encode_fleet_patterns(9, &collect.executed)).unwrap();
        assert_eq!((s, pcs), (9, collect.executed.clone()));
        let (s, ps) = decode_fleet_finalize(&encode_fleet_finalize(11, &reply.patterns)).unwrap();
        assert_eq!(s, 11);
        assert_eq!(ps, reply.patterns);
    }

    #[test]
    fn corrupt_payloads_are_typed_not_panics() {
        let reply = FinalizeReply {
            stats: PatternStats::from_parts(
                vec![(
                    sample_patterns().remove(0),
                    PatternCounts {
                        type_rank: 1,
                        fail_support: 1,
                        success_support: 0,
                    },
                )],
                1,
                10,
            ),
            event_times: vec![(Pc(0x10), 42)],
        };
        let wire = encode_finalize_reply(&reply);
        // Truncation at every prefix is a typed error.
        for cut in 0..wire.len() {
            assert!(decode_finalize_reply(&wire[..cut]).is_err(), "cut {cut}");
        }
        // An inflated entry count is rejected before allocation.
        let mut inflated = wire.clone();
        inflated[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_finalize_reply(&inflated).is_err());
        // Trailing garbage is rejected.
        let mut trailing = wire;
        trailing.push(0);
        assert_eq!(
            decode_finalize_reply(&trailing),
            Err(FrameError::BadPayload("trailing bytes"))
        );
    }

    /// A shard cannot see a pattern in more traces than it holds, so a
    /// well-formed reply claiming it is rejected before it can outrank
    /// every real pattern.
    #[test]
    fn finalize_reply_rejects_support_beyond_trace_total() {
        let reply = |fail_support, success_support| FinalizeReply {
            stats: PatternStats::from_parts(
                vec![(
                    sample_patterns().remove(0),
                    PatternCounts {
                        type_rank: 1,
                        fail_support,
                        success_support,
                    },
                )],
                1,
                10,
            ),
            event_times: Vec::new(),
        };
        assert!(decode_finalize_reply(&encode_finalize_reply(&reply(1, 10))).is_ok());
        for (fail, success) in [(5, 0), (1, 11)] {
            assert_eq!(
                decode_finalize_reply(&encode_finalize_reply(&reply(fail, success))),
                Err(FrameError::BadPayload("support exceeds trace total")),
                "{fail} failing / {success} successful supports over 1 / 10 traces"
            );
        }
    }

    #[test]
    fn shard_stats_codec_roundtrips() {
        let s = ShardStats {
            open_sessions: 3,
            sessions_evicted: 7,
            cache_lookups: 40,
            cache_exact_hits: 21,
            cache_delta_solves: 4,
            cache_scratch_solves: 15,
        };
        assert_eq!(s.warm_solves(), 25);
        let wire = encode_shard_stats(&s);
        assert_eq!(decode_shard_stats(&wire).unwrap(), s);
        for cut in 0..wire.len() {
            assert!(decode_shard_stats(&wire[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = wire;
        trailing.push(0);
        assert_eq!(
            decode_shard_stats(&trailing),
            Err(FrameError::BadPayload("trailing bytes"))
        );
        // The request payload is empty by contract.
        assert!(decode_fleet_stats(&encode_fleet_stats()).is_ok());
        assert!(decode_fleet_stats(&[0]).is_err());
    }

    #[test]
    fn response_kind_mapping_covers_the_three_rounds() {
        assert_eq!(
            fleet_response_kind(FrameKind::FleetCollect),
            Some(FrameKind::FleetCollectAck)
        );
        assert_eq!(
            fleet_response_kind(FrameKind::FleetPatterns),
            Some(FrameKind::FleetPatternSet)
        );
        assert_eq!(
            fleet_response_kind(FrameKind::FleetFinalize),
            Some(FrameKind::PartialStats)
        );
        assert_eq!(
            fleet_response_kind(FrameKind::FleetStats),
            Some(FrameKind::FleetStatsAck)
        );
        assert_eq!(fleet_response_kind(FrameKind::Diagnose), None);
    }

    #[test]
    fn session_ids_are_process_unique() {
        let a = next_session();
        let b = next_session();
        assert_ne!(a, b);
    }
}
