//! Streaming diagnosis with sequential early-exit confidence.
//!
//! The paper's workflow is batch-shaped: collect every report, then
//! diagnose. Its own data shows the cost — MySQL bug 3596 needed 470
//! reports before the root-cause pattern won (§5). This module is the
//! production shape of that workflow: reports stream in one at a time,
//! fold into the mergeable [`PatternStats`](crate::statistics::PatternStats)
//! machinery (streaming is `merge` of singleton collects), and after
//! each fold a *sequential hypothesis test* decides whether the top
//! pattern's F1 lead is already statistically safe to emit.
//!
//! ## The stopping rule
//!
//! After every folded report (failing or successful), the accumulated
//! corpus is rescored exactly as batch diagnosis would score it. Let
//! `top` be the best-ranked pattern and `lead` the gap between its F1
//! and the first score *not* tied with it (ties per
//! [`top_pattern_count`] — measuring the lead against a tied twin would
//! be measuring the lead against itself). The stream converges when,
//! simultaneously:
//!
//! 1. the same `top` pattern has won `stability_window` consecutive
//!    rescoring rounds,
//! 2. `lead > 0`, and
//! 3. `lead >= sqrt(ln(1/(1-confidence)) / (2n))` — a Hoeffding-style
//!    bound with `n` the traces actually scored — so early exits get
//!    rarer exactly when the evidence is thin.
//!
//! An F1 lead can sit at *exactly* zero forever: a runner-up with the
//! same F1 but a different type rank or specificity is not a full-key
//! tie, so it is the measured runner, yet `lead > 0` can never hold.
//! For that case the rule carries a secondary tie-break statistic —
//! the normalized *event-time margin* between the top pattern and the
//! runner in the first failing trace: how much *narrower* the top
//! pattern's tightest inter-event window is than the runner's. The
//! racing window of a real root cause is tight by construction (the
//! interloper squeezed between the coupled accesses), so among
//! F1-tied leaders the tightly-coupled one is the credible root
//! cause. When the lead is exactly zero, a positive tie margin
//! clearing the same Hoeffding bound substitutes for it, so
//! exactly-tied F1 leaders can still converge.
//!
//! Both knobs are constants beside the stream state that uses them
//! (`STABILITY_WINDOW` = 3, `CONFIDENCE` = 0.95). The rule itself is
//! exposed as [`SequentialRule`], with both as parameters, so the law
//! "early exit never fires before `stability_window` observations" can
//! be property-tested without building trace corpora.
//!
//! ## Memory bound
//!
//! Long-running streams see unbounded success runs. A seeded
//! reservoir sampler ([`Reservoir`], Algorithm R over a fixed
//! [`XorShift64`]) bounds the retained success corpus at
//! `STREAM_RESERVOIR` (256) traces. While the stream fits the
//! reservoir the retained set is the exact arrival-order prefix, so
//! streaming diagnosis is *byte-identical* to batch diagnosis over the
//! consumed reports (`tests/streaming.rs` pins this on the corpus);
//! past the capacity it degrades gracefully into uniform sampling.
//!
//! ## Three front doors
//!
//! * In-process: [`DiagnosisServer::diagnose_streaming`] /
//!   [`StreamingDiagnoser`].
//! * Daemon: the [`StreamSubmit`](crate::daemon::FrameKind::StreamSubmit)
//!   / [`StreamStatus`](crate::daemon::FrameKind::StreamStatus) /
//!   [`StreamFinish`](crate::daemon::FrameKind::StreamFinish) frames,
//!   served by a [`StreamHub`] whose sessions accumulate reports
//!   across connections.
//! * CLI: `snorlax stream submit/status/finish`.

use crate::daemon::{
    decode_failure, decode_snapshots_view, encode_failure, encode_snapshots, push_u32, push_u64,
    Cursor, FrameError,
};
use crate::error::DiagnosisError;
use crate::patterns::BugPattern;
use crate::processing::ProcessedTrace;
use crate::server::{Diagnosis, DiagnosisServer, ServerConfig, StageTimes};
use crate::session::{AtCapacity, SessionTable, MAX_SESSIONS};
use crate::statistics::top_pattern_count;
use lazy_ir::Module;
use lazy_trace::{SnapshotView, TraceSnapshot};
use lazy_vm::Failure;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------
// Seeded PRNG + reservoir sampler.

/// A tiny deterministic xorshift* PRNG. Not cryptographic — it only has
/// to make the reservoir's replacement choices uniform and replayable.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from `seed` (zero is mapped away — an
    /// all-zero xorshift state is a fixed point).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 { state: seed | 1 }
    }

    /// Next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A seeded reservoir sampler (Algorithm R): holds at most `capacity`
/// items drawn uniformly from everything ever offered, with a fully
/// deterministic replacement sequence for a given seed.
///
/// Until the reservoir first overflows, the retained items are the
/// exact arrival-order prefix — the property the byte-identity tests
/// lean on.
#[derive(Clone, Debug)]
pub struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
    rng: XorShift64,
}

impl<T> Reservoir<T> {
    /// An empty reservoir of `capacity` slots seeded with `seed`. A
    /// zero capacity is clamped to one slot — a reservoir that can
    /// never hold anything would silently discard the whole corpus.
    pub fn new(capacity: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            items: Vec::new(),
            capacity: capacity.max(1),
            seen: 0,
            rng: XorShift64::new(seed),
        }
    }

    /// Offers one item; returns whether it was retained. The first
    /// `capacity` offers always retain (in arrival order); offer `i`
    /// past that retains with probability `capacity / i`, evicting a
    /// uniformly chosen incumbent.
    pub fn offer(&mut self, item: T) -> bool {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return true;
        }
        // Uniform j in [0, seen): retain iff j lands in the reservoir.
        let j = self.rng.next_u64() % self.seen;
        if (j as usize) < self.capacity {
            self.items[j as usize] = item;
            true
        } else {
            false
        }
    }

    /// The retained items (arrival order until the first eviction).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Items currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The slot bound this reservoir was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items ever offered (retained or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

// ---------------------------------------------------------------------
// The sequential stopping rule.

/// The Hoeffding-style bound the lead must clear before an early exit:
/// `sqrt(ln(1/(1-confidence)) / (2n))` for `n` scored traces. Infinite
/// when `n == 0` (no evidence admits no exit); `confidence` is clamped
/// below 1 so the bound stays finite and positive.
pub fn hoeffding_lead_bound(confidence: f64, n: usize) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let c = confidence.clamp(0.0, 1.0 - 1e-12);
    ((1.0 / (1.0 - c)).ln() / (2.0 * n as f64)).sqrt()
}

/// The sequential early-exit test, factored out of the streaming fold
/// so its laws can be property-tested in isolation: convergence
/// requires the *same* top pattern to hold a positive lead for
/// `window` consecutive observations, with the lead clearing
/// [`hoeffding_lead_bound`] at the current sample count.
#[derive(Clone, Debug)]
pub struct SequentialRule {
    window: usize,
    confidence: f64,
    streak: usize,
    observations: usize,
    last_top: Option<BugPattern>,
}

impl SequentialRule {
    /// A rule requiring `window` consecutive stable rounds (clamped to
    /// at least one — a zero window would permit an exit with no
    /// evidence at all) at `confidence`.
    pub fn new(window: usize, confidence: f64) -> SequentialRule {
        SequentialRule {
            window: window.max(1),
            confidence,
            streak: 0,
            observations: 0,
            last_top: None,
        }
    }

    /// Feeds one rescoring round: the current top pattern (`None` when
    /// nothing scored above zero), its lead over the first non-tied
    /// runner-up, the normalized event-time tie margin (only consulted
    /// when the lead is exactly zero), and the number of traces
    /// scored. Returns `true` when the stream may exit early.
    pub fn observe(
        &mut self,
        top: Option<&BugPattern>,
        lead: f64,
        tie_margin: f64,
        n: usize,
    ) -> bool {
        self.observations += 1;
        match top {
            Some(t) if self.last_top.as_ref() == Some(t) => self.streak += 1,
            Some(t) => {
                self.last_top = Some(t.clone());
                self.streak = 1;
            }
            None => {
                self.last_top = None;
                self.streak = 0;
            }
        }
        if self.streak < self.window {
            return false;
        }
        let bound = hoeffding_lead_bound(self.confidence, n);
        if lead > 0.0 {
            return lead >= bound;
        }
        // Exact F1 tie with the runner: the lead is pinned at zero and
        // the primary test can never fire. Fall back to the secondary
        // statistic — a positive event-time margin clearing the same
        // bound means the top pattern's events are measurably more
        // separated in time than the runner's, which the F1 tie alone
        // could not distinguish.
        lead == 0.0 && tie_margin > 0.0 && tie_margin >= bound
    }

    /// Rounds observed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Consecutive rounds the current top pattern has held.
    pub fn streak(&self) -> usize {
        self.streak
    }

    /// The configured stability window (post-clamp).
    pub fn window(&self) -> usize {
        self.window
    }
}

// ---------------------------------------------------------------------
// Stream reports and outcomes.

/// One report in a diagnosis stream.
#[derive(Clone, Debug)]
pub enum StreamReport {
    /// A snapshot captured at a failing execution.
    Failing(TraceSnapshot),
    /// A snapshot captured at a successful run past the breakpoint.
    Success(TraceSnapshot),
}

/// What a finished (or early-exited) streaming diagnosis produced.
#[derive(Clone, Debug)]
pub struct StreamingOutcome {
    /// The diagnosis — byte-identical (via
    /// [`Diagnosis::render`]) to batch diagnosis over the consumed
    /// reports while the success stream fits the reservoir.
    pub diagnosis: Diagnosis,
    /// Reports folded (including rejected ones).
    pub reports_consumed: usize,
    /// Reports that failed to decode and were rejected alone.
    pub reports_rejected: usize,
    /// Whether the sequential test fired before the stream ran dry.
    pub converged_early: bool,
    /// The lead after each scored fold — the convergence trajectory.
    pub lead_history: Vec<f64>,
}

/// A live snapshot of one stream's progress — the `StreamStatus` /
/// `StreamSubmitAck` wire payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamStatus {
    /// Reports folded so far (including rejected ones).
    pub reports_consumed: u64,
    /// Reports rejected as undecodable.
    pub reports_rejected: u64,
    /// Whether the sequential test has fired.
    pub converged: bool,
    /// The most recent lead (0 before the first scored fold).
    pub lead: f64,
    /// Failing traces retained.
    pub failing: u32,
    /// Successful traces currently retained in the reservoir.
    pub successes: u32,
}

// ---------------------------------------------------------------------
// The accumulating stream state (shared by diagnoser and hub).

/// Everything one stream accumulates: decoded traces, counters, and
/// the sequential rule's state. Fold methods borrow the server they
/// score against so the in-process diagnoser and the daemon hub share
/// one implementation.
struct StreamState {
    failure: Option<Failure>,
    failing: Vec<Arc<ProcessedTrace>>,
    successes: Reservoir<Arc<ProcessedTrace>>,
    reports_consumed: usize,
    reports_rejected: usize,
    lead_history: Vec<f64>,
    rule: SequentialRule,
    converged: bool,
}

/// Consecutive scored folds the same top pattern must lead before the
/// sequential test may declare convergence.
const STABILITY_WINDOW: usize = 3;

/// Fixed confidence for the early-exit bound: the top pattern's lead
/// must clear [`hoeffding_lead_bound`] at this confidence.
const CONFIDENCE: f64 = 0.95;

/// Capacity of the seeded reservoir that bounds a stream's retained
/// success corpus.
const STREAM_RESERVOIR: usize = 256;

/// Seed of the reservoir sampler, so replaying the same report order
/// reproduces the same retained corpus bit for bit.
const STREAM_SEED: u64 = 0x5eed_5eed_5eed_5eed;

impl StreamState {
    fn new() -> StreamState {
        StreamState {
            failure: None,
            failing: Vec::new(),
            successes: Reservoir::new(STREAM_RESERVOIR, STREAM_SEED),
            reports_consumed: 0,
            reports_rejected: 0,
            lead_history: Vec::new(),
            rule: SequentialRule::new(STABILITY_WINDOW, CONFIDENCE),
            converged: false,
        }
    }

    fn status(&self) -> StreamStatus {
        StreamStatus {
            reports_consumed: self.reports_consumed as u64,
            reports_rejected: self.reports_rejected as u64,
            converged: self.converged,
            lead: self.lead_history.last().copied().unwrap_or(0.0),
            failing: self.failing.len() as u32,
            successes: self.successes.len() as u32,
        }
    }

    /// Folds one failing snapshot. A snapshot that does not decode is
    /// counted consumed *and* rejected, fails alone, and leaves the
    /// accumulated state untouched.
    fn fold_failing(
        &mut self,
        server: &DiagnosisServer<'_>,
        failure: &Failure,
        view: &SnapshotView<'_>,
    ) -> Result<(), DiagnosisError> {
        let _span = lazy_obs::span!("stream.fold");
        let started = Instant::now();
        self.reports_consumed += 1;
        lazy_obs::counter!("stream.reports_total", 1u64);
        let workers = server.config().decode_workers;
        let (mut failing, _) =
            match server.prepare_traces(std::slice::from_ref(view), &[], None, workers) {
                Ok(p) => p,
                Err(e) => {
                    self.reports_rejected += 1;
                    lazy_obs::counter!("stream.rejected_total", 1u64);
                    return Err(e);
                }
            };
        if self.failure.is_none() {
            self.failure = Some(failure.clone());
        }
        self.failing.append(&mut failing);
        self.rescore(server);
        lazy_obs::histogram!("stream.fold_us", started.elapsed().as_micros());
        Ok(())
    }

    /// Folds one success snapshot. Mirroring batch `prepare` (which
    /// drops undecodable success traces rather than holding up the
    /// diagnosis), a corrupt success is counted rejected but is not an
    /// error.
    fn fold_success(&mut self, server: &DiagnosisServer<'_>, view: &SnapshotView<'_>) {
        let _span = lazy_obs::span!("stream.fold");
        let started = Instant::now();
        self.reports_consumed += 1;
        lazy_obs::counter!("stream.reports_total", 1u64);
        let workers = server.config().decode_workers;
        let retained = match server.prepare_traces(&[], std::slice::from_ref(view), None, workers) {
            Ok((_, mut successes)) => successes.pop(),
            Err(_) => None,
        };
        match retained {
            Some(t) => {
                let _ = self.successes.offer(t);
            }
            None => {
                self.reports_rejected += 1;
                lazy_obs::counter!("stream.rejected_total", 1u64);
            }
        }
        self.rescore(server);
        lazy_obs::histogram!("stream.fold_us", started.elapsed().as_micros());
    }

    /// Rescores the accumulated corpus through the same steps 4–7 the
    /// final render runs, then feeds the sequential rule — so a fold's
    /// lead is measured on exactly the scores `finish` reports. No-op
    /// until the first failing trace arrives (there is nothing to
    /// diagnose yet).
    fn rescore(&mut self, server: &DiagnosisServer<'_>) {
        let Some(diagnosis) = self.analyze(server) else {
            return;
        };
        let scores = &diagnosis.scores;
        let n = self.failing.len() + self.scored_successes(server.config()).len();
        let tied = top_pattern_count(scores);
        let (top, lead, tie_margin) = match scores.first().filter(|s| s.f1 > 0.0) {
            Some(t) => {
                // The runner-up is the first score NOT tied with the
                // top (same F1 + type rank + specificity): an exact
                // multi-pattern tie must not be measured against
                // itself, or tied corpora could never converge.
                let runner = scores.get(tied);
                let lead = t.f1 - runner.map_or(0.0, |s| s.f1);
                // Only an exact F1 tie needs the secondary statistic.
                let tie_margin = match runner {
                    Some(r) if lead == 0.0 => self
                        .failing
                        .first()
                        .map_or(0.0, |t0| tie_break_margin(t0, &t.pattern, &r.pattern)),
                    _ => 0.0,
                };
                (Some(&t.pattern), lead, tie_margin)
            }
            None => (None, 0.0, 0.0),
        };
        self.lead_history.push(lead);
        if self.rule.observe(top, lead, tie_margin, n) && !self.converged {
            self.converged = true;
            lazy_obs::counter!("stream.converged_total", 1u64);
        }
    }

    /// Steps 4–7 over the accumulated corpus, its successes capped as
    /// batch `diagnose` caps them; `None` before the first failing
    /// trace. Points-to solves from scratch, as `diagnose` does.
    fn analyze(&self, server: &DiagnosisServer<'_>) -> Option<Diagnosis> {
        let failure = self.failure.as_ref().filter(|_| !self.failing.is_empty())?;
        let successes = self.scored_successes(server.config());
        let times = StageTimes {
            started: Instant::now(),
            decode_micros: 0,
        };
        Some(server.analyze(failure, &self.failing, successes, None, times))
    }

    /// The retained successes a rescore scores, in retention order —
    /// the streaming analogue of batch `diagnose`'s `success_factor`
    /// cap.
    fn scored_successes(&self, cfg: &ServerConfig) -> &[Arc<ProcessedTrace>] {
        let cap = cfg.success_factor * self.failing.len().max(1);
        let retained = self.successes.items();
        &retained[..retained.len().min(cap)]
    }

    /// Renders the final diagnosis over the accumulated (capped)
    /// corpus — the same steps 4–7 the batch path runs, so the render
    /// is byte-identical to batch over the consumed reports.
    fn finish(&self, server: &DiagnosisServer<'_>) -> Result<StreamingOutcome, DiagnosisError> {
        let diagnosis = self.analyze(server).ok_or(DiagnosisError::EmptyReport)?;
        lazy_obs::histogram!("diagnose.analysis_us", diagnosis.stats.analysis_micros);
        Ok(StreamingOutcome {
            diagnosis,
            reports_consumed: self.reports_consumed,
            reports_rejected: self.reports_rejected,
            converged_early: self.converged,
            lead_history: self.lead_history.clone(),
        })
    }
}

/// A pattern's event-time margin in one trace: the smallest gap
/// between the last-observed times (`time.lo` of the latest dynamic
/// instance) of the pattern's pcs. Patterns whose events are widely
/// separated in time carry a large margin; fewer than two of the
/// pattern's pcs present in the trace yields zero (no temporal
/// evidence at all).
pub fn event_time_margin(trace: &ProcessedTrace, pattern: &BugPattern) -> f64 {
    let mut times: Vec<u64> = pattern
        .pcs()
        .iter()
        .filter_map(|pc| trace.last_time(*pc))
        .collect();
    if times.len() < 2 {
        return 0.0;
    }
    times.sort_unstable();
    times.windows(2).map(|w| w[1] - w[0]).min().unwrap_or(0) as f64
}

/// The normalized tie-break statistic fed to [`SequentialRule`] when
/// the F1 lead is exactly zero: how much *smaller* the top pattern's
/// [`event_time_margin`] is than the runner's, scaled into `[-1, 1]`
/// so it is comparable to an F1 lead and to the Hoeffding bound.
/// Positive means the top pattern's events are the more tightly
/// coupled in time — the coarse-interleaving signature of a real
/// racing window, where the interloper squeezed between the coupled
/// accesses. Zero when neither pattern has temporal evidence in the
/// trace.
fn tie_break_margin(trace: &ProcessedTrace, top: &BugPattern, runner: &BugPattern) -> f64 {
    let m_top = event_time_margin(trace, top);
    let m_runner = event_time_margin(trace, runner);
    let denom = m_top.max(m_runner);
    if denom <= 0.0 {
        return 0.0;
    }
    (m_runner - m_top) / denom
}

// ---------------------------------------------------------------------
// The in-process streaming diagnoser.

/// Ingests one report at a time and exits the moment the sequential
/// test is satisfied — the in-process face of streaming diagnosis.
pub struct StreamingDiagnoser<'s, 'm> {
    server: &'s DiagnosisServer<'m>,
    state: StreamState,
}

impl<'s, 'm> StreamingDiagnoser<'s, 'm> {
    /// A fresh stream for `failure`, scoring against `server`.
    pub fn new(server: &'s DiagnosisServer<'m>, failure: &Failure) -> StreamingDiagnoser<'s, 'm> {
        let mut state = StreamState::new();
        state.failure = Some(failure.clone());
        StreamingDiagnoser { server, state }
    }

    /// Folds one report and reports whether the stream has converged.
    ///
    /// # Errors
    ///
    /// A failing report that does not decode is rejected alone: the
    /// error describes that report, the accumulated state is untouched,
    /// and the stream continues to accept reports.
    pub fn fold(&mut self, report: &StreamReport) -> Result<bool, DiagnosisError> {
        match report {
            StreamReport::Failing(snap) => {
                let failure = self
                    .state
                    .failure
                    .clone()
                    .ok_or(DiagnosisError::EmptyReport)?;
                self.state
                    .fold_failing(self.server, &failure, &snap.view())?;
            }
            StreamReport::Success(snap) => {
                self.state.fold_success(self.server, &snap.view());
            }
        }
        Ok(self.state.converged)
    }

    /// Whether the sequential test has fired.
    pub fn converged(&self) -> bool {
        self.state.converged
    }

    /// A live progress snapshot.
    pub fn status(&self) -> StreamStatus {
        self.state.status()
    }

    /// Finalizes the stream into a diagnosis.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::EmptyReport`] when no failing report decoded.
    pub fn finish(self) -> Result<StreamingOutcome, DiagnosisError> {
        self.state.finish(self.server)
    }
}

impl<'m> DiagnosisServer<'m> {
    /// Streams `reports` through a [`StreamingDiagnoser`], stopping at
    /// the first report after which the sequential test is satisfied
    /// (the early exit: later reports are never consumed), and returns
    /// the finalized outcome. Corrupt failing reports are rejected
    /// alone and counted in
    /// [`StreamingOutcome::reports_rejected`]; the stream proceeds.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::EmptyReport`] when no failing report decoded
    /// by the time the stream ends.
    pub fn diagnose_streaming<I>(
        &self,
        failure: &Failure,
        reports: I,
    ) -> Result<StreamingOutcome, DiagnosisError>
    where
        I: IntoIterator<Item = StreamReport>,
    {
        let mut diag = StreamingDiagnoser::new(self, failure);
        for report in reports {
            // A rejected report fails alone; everything else streams on.
            if let Ok(true) = diag.fold(&report) {
                break;
            }
        }
        diag.finish()
    }
}

/// Deterministically interleaves failing and successful snapshots into
/// one stream: reports are merged by fractional position (cross-
/// multiplied, no floats) so the mix is even, and the first report is
/// always the first failing snapshot (a stream cannot score before its
/// first failure). Shared by the CLI, bench, and tests so "the same
/// report order" means one thing everywhere.
pub fn interleave_reports(
    failing: &[TraceSnapshot],
    successful: &[TraceSnapshot],
) -> Vec<StreamReport> {
    let (f, s) = (failing.len(), successful.len());
    let mut out = Vec::with_capacity(f + s);
    let (mut fi, mut si) = (0usize, 0usize);
    while fi < f || si < s {
        // Pick the side whose next report sits earlier in its own
        // stream, scaled to a common denominator; ties go failing-first.
        if fi < f && (si >= s || fi * s <= si * f) {
            out.push(StreamReport::Failing(failing[fi].clone()));
            fi += 1;
        } else {
            out.push(StreamReport::Success(successful[si].clone()));
            si += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------
// The daemon-side stream hub.

/// Session-id source for stream clients: unique within this process,
/// with the process id mixed in so concurrent client *processes*
/// sharing one daemon cannot collide.
static NEXT_STREAM_SESSION: AtomicU64 = AtomicU64::new(1);

/// A fresh client-chosen stream session id.
pub fn next_stream_session() -> u64 {
    let n = NEXT_STREAM_SESSION.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) ^ n
}

/// Telemetry for stream sessions the idle TTL evicted.
static STREAM_SESSIONS_EVICTED: lazy_obs::Counter =
    lazy_obs::Counter::new("stream.sessions_evicted_total");

/// The daemon side of streaming diagnosis: sessions keyed by a
/// client-chosen id accumulate reports *across connections* and answer
/// "converged yet?" probes. One hub lives per daemon (like the fleet
/// shard state), so a session survives its submitting connections.
pub struct StreamHub<'m> {
    server: DiagnosisServer<'m>,
    /// Folds run under the per-session mutex, so concurrent sessions
    /// proceed in parallel while same-session submits serialize.
    sessions: SessionTable<Arc<Mutex<StreamState>>>,
}

impl<'m> StreamHub<'m> {
    /// Creates a hub for `module`, pre-warming the walk table so the
    /// first submit does not pay the one-time build cost.
    pub fn new(module: &'m Module, cfg: ServerConfig) -> StreamHub<'m> {
        let hub = StreamHub {
            sessions: SessionTable::new(cfg.session_ttl, &STREAM_SESSIONS_EVICTED),
            server: DiagnosisServer::new(module, cfg),
        };
        let _ = hub.server.walk_table();
        hub
    }

    /// Evicts sessions idle past the configured TTL (the daemon calls
    /// this from its periodic sweep; admissions sweep on their own).
    /// A submit already in flight on an evicted session finishes
    /// against its own `Arc`; the *next* submit reopens a fresh
    /// session. Returns how many sessions were evicted.
    pub fn sweep_expired(&self) -> usize {
        self.sessions.sweep()
    }

    /// Total sessions ever evicted by the idle TTL.
    pub fn sessions_evicted(&self) -> u64 {
        self.sessions.evicted()
    }

    /// Fetches (or opens) `session`, refreshing its idle timestamp.
    fn open(&self, session: u64) -> Result<Arc<Mutex<StreamState>>, DiagnosisError> {
        self.sessions
            .get_or_insert_with(session, || {
                lazy_obs::counter!("stream.sessions_total", 1u64);
                Arc::new(Mutex::new(StreamState::new()))
            })
            .map_err(|AtCapacity| DiagnosisError::Remote {
                detail: format!("stream hub at capacity: {MAX_SESSIONS} open sessions"),
            })
    }

    /// Submits one failing report to `session` (opening it on first
    /// use).
    ///
    /// # Errors
    ///
    /// The report's decode failure (the report is still counted as
    /// consumed + rejected — the stream continues), or capacity
    /// exhaustion for a brand-new session.
    pub fn submit_failing(
        &self,
        session: u64,
        failure: &Failure,
        snap: &SnapshotView<'_>,
    ) -> Result<StreamStatus, DiagnosisError> {
        let state = self.open(session)?;
        let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
        state.fold_failing(&self.server, failure, snap)?;
        Ok(state.status())
    }

    /// Submits one success report to `session` (opening it on first
    /// use). An undecodable success is counted rejected, never an
    /// error — mirroring batch `prepare`.
    ///
    /// # Errors
    ///
    /// Capacity exhaustion for a brand-new session.
    pub fn submit_success(
        &self,
        session: u64,
        snap: &SnapshotView<'_>,
    ) -> Result<StreamStatus, DiagnosisError> {
        let state = self.open(session)?;
        let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
        state.fold_success(&self.server, snap);
        Ok(state.status())
    }

    /// Answers a "converged yet?" probe for `session`.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the session was never opened.
    pub fn status(&self, session: u64) -> Result<StreamStatus, DiagnosisError> {
        let state = self
            .sessions
            .with(session, |s| Arc::clone(s))
            .ok_or_else(|| unknown_session(session))?;
        let state = state.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(state.status())
    }

    /// Finalizes and closes `session`, returning the outcome plus its
    /// rendered report.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] for an unknown session;
    /// [`DiagnosisError::EmptyReport`] when it never received a
    /// decodable failing report (the session closes either way).
    pub fn finish(&self, session: u64) -> Result<(StreamingOutcome, String), DiagnosisError> {
        let state = self
            .sessions
            .remove(session)
            .ok_or_else(|| unknown_session(session))?;
        let state = state.lock().unwrap_or_else(PoisonError::into_inner);
        let outcome = state.finish(&self.server)?;
        let report = outcome.diagnosis.render(self.server.module());
        Ok((outcome, report))
    }

    /// Sessions currently open (abandoned clients show up here).
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }
}

fn unknown_session(session: u64) -> DiagnosisError {
    DiagnosisError::Remote {
        detail: format!("unknown stream session {session}"),
    }
}

// ---------------------------------------------------------------------
// Wire codecs for the stream frames.

/// One decoded `StreamSubmit` payload, borrowing its trace bytes.
pub enum StreamSubmitView<'a> {
    /// A failing report: the observed failure plus its snapshot.
    Failing {
        /// The failure the client observed.
        failure: Failure,
        /// The failing execution's snapshot.
        snap: SnapshotView<'a>,
    },
    /// A success report: one snapshot from a successful run.
    Success {
        /// The successful execution's snapshot.
        snap: SnapshotView<'a>,
    },
}

/// Encodes a [`FrameKind::StreamSubmit`](crate::daemon::FrameKind::StreamSubmit)
/// payload carrying one failing report.
pub fn encode_stream_submit_failing(
    session: u64,
    failure: &Failure,
    snap: &TraceSnapshot,
) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, session);
    out.push(0);
    encode_failure(&mut out, failure);
    encode_snapshots(&mut out, std::slice::from_ref(snap));
    out
}

/// Encodes a [`FrameKind::StreamSubmit`](crate::daemon::FrameKind::StreamSubmit)
/// payload carrying one success report.
pub fn encode_stream_submit_success(session: u64, snap: &TraceSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, session);
    out.push(1);
    encode_snapshots(&mut out, std::slice::from_ref(snap));
    out
}

/// Decodes a `StreamSubmit` payload without copying trace bytes.
///
/// # Errors
///
/// Frame errors for structural corruption (including a report carrying
/// anything other than exactly one snapshot); wire errors when the
/// embedded snapshot fails its own checksum.
pub fn decode_stream_submit_view(
    payload: &[u8],
) -> Result<(u64, StreamSubmitView<'_>), DiagnosisError> {
    let mut c = Cursor::new(payload);
    let session = c.u64().map_err(DiagnosisError::Frame)?;
    let tag = c.u8().map_err(DiagnosisError::Frame)?;
    let view = match tag {
        0 => {
            let failure = decode_failure(&mut c).map_err(DiagnosisError::Frame)?;
            let snap = one_snapshot(&mut c)?;
            StreamSubmitView::Failing { failure, snap }
        }
        1 => StreamSubmitView::Success {
            snap: one_snapshot(&mut c)?,
        },
        _ => {
            return Err(DiagnosisError::Frame(FrameError::BadPayload(
                "stream submit tag",
            )))
        }
    };
    c.done().map_err(DiagnosisError::Frame)?;
    Ok((session, view))
}

fn one_snapshot<'a>(c: &mut Cursor<'a>) -> Result<SnapshotView<'a>, DiagnosisError> {
    let mut snaps = decode_snapshots_view(c)?;
    if snaps.len() != 1 {
        return Err(DiagnosisError::Frame(FrameError::BadPayload(
            "stream submit snapshot count",
        )));
    }
    // len() == 1 was just checked; pop cannot fail.
    snaps
        .pop()
        .ok_or(DiagnosisError::Frame(FrameError::BadPayload(
            "stream submit snapshot count",
        )))
}

/// Encodes a `StreamStatus` / `StreamFinish` request payload (just the
/// session id).
pub fn encode_stream_session(session: u64) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, session);
    out
}

/// Decodes a `StreamStatus` / `StreamFinish` request payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_stream_session(payload: &[u8]) -> Result<u64, FrameError> {
    let mut c = Cursor::new(payload);
    let session = c.u64()?;
    c.done()?;
    Ok(session)
}

/// Encodes a `StreamSubmitAck` / `StreamStatusReply` payload.
pub fn encode_stream_status(s: &StreamStatus) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, s.reports_consumed);
    push_u64(&mut out, s.reports_rejected);
    out.push(u8::from(s.converged));
    push_u64(&mut out, s.lead.to_bits());
    push_u32(&mut out, s.failing);
    push_u32(&mut out, s.successes);
    out
}

/// Decodes a `StreamSubmitAck` / `StreamStatusReply` payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_stream_status(payload: &[u8]) -> Result<StreamStatus, FrameError> {
    let mut c = Cursor::new(payload);
    let s = StreamStatus {
        reports_consumed: c.u64()?,
        reports_rejected: c.u64()?,
        converged: match c.u8()? {
            0 => false,
            1 => true,
            _ => return Err(FrameError::BadPayload("converged flag")),
        },
        lead: f64::from_bits(c.u64()?),
        failing: c.u32()?,
        successes: c.u32()?,
    };
    c.done()?;
    Ok(s)
}

/// A finished stream's wire-friendly summary — the `StreamFinishAck`
/// payload.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamFinishReply {
    /// Reports folded (including rejected ones).
    pub reports_consumed: u64,
    /// Reports rejected as undecodable.
    pub reports_rejected: u64,
    /// Whether the sequential test fired before the finish.
    pub converged_early: bool,
    /// The rendered diagnosis report.
    pub report: String,
    /// The lead after each scored fold.
    pub lead_history: Vec<f64>,
}

/// Encodes a `StreamFinishAck` payload.
pub fn encode_stream_finish_reply(r: &StreamFinishReply) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, r.reports_consumed);
    push_u64(&mut out, r.reports_rejected);
    out.push(u8::from(r.converged_early));
    push_u32(&mut out, r.report.len() as u32);
    out.extend_from_slice(r.report.as_bytes());
    push_u32(&mut out, r.lead_history.len() as u32);
    for lead in &r.lead_history {
        push_u64(&mut out, lead.to_bits());
    }
    out
}

/// Decodes a `StreamFinishAck` payload.
///
/// # Errors
///
/// Frame errors on structural corruption.
pub fn decode_stream_finish_reply(payload: &[u8]) -> Result<StreamFinishReply, FrameError> {
    let mut c = Cursor::new(payload);
    let reports_consumed = c.u64()?;
    let reports_rejected = c.u64()?;
    let converged_early = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(FrameError::BadPayload("converged flag")),
    };
    let len = c.u32()? as usize;
    let report = String::from_utf8(c.take(len)?.to_vec())
        .map_err(|_| FrameError::BadPayload("report utf-8"))?;
    let n = c.u32()? as usize;
    if n > c.remaining() / 8 {
        return Err(FrameError::BadPayload("lead history count"));
    }
    let mut lead_history = Vec::with_capacity(n);
    for _ in 0..n {
        lead_history.push(f64::from_bits(c.u64()?));
    }
    c.done()?;
    Ok(StreamFinishReply {
        reports_consumed,
        reports_rejected,
        converged_early,
        report,
        lead_history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{AccessKind, PatternEvent};
    use lazy_ir::Pc;

    fn pattern(pc: u64) -> BugPattern {
        BugPattern::OrderViolation {
            first: PatternEvent {
                pc: Pc(pc),
                kind: AccessKind::Write,
            },
            second: PatternEvent {
                pc: Pc(pc + 1),
                kind: AccessKind::Read,
            },
        }
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
        // Seed zero is mapped away from the all-zero fixed point.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn reservoir_prefix_is_arrival_order_until_overflow() {
        let mut r = Reservoir::new(4, 7);
        for i in 0..4 {
            assert!(r.offer(i));
        }
        assert_eq!(r.items(), &[0, 1, 2, 3]);
        for i in 4..100 {
            let _ = r.offer(i);
            assert_eq!(r.len(), 4);
        }
        assert_eq!(r.seen(), 100);
    }

    #[test]
    fn zero_capacity_reservoir_is_clamped() {
        let mut r: Reservoir<u32> = Reservoir::new(0, 1);
        assert_eq!(r.capacity(), 1);
        assert!(r.offer(9));
        assert_eq!(r.items(), &[9]);
    }

    #[test]
    fn hoeffding_bound_shrinks_with_evidence() {
        assert!(hoeffding_lead_bound(0.95, 0).is_infinite());
        let a = hoeffding_lead_bound(0.95, 5);
        let b = hoeffding_lead_bound(0.95, 50);
        assert!(a > b && b > 0.0);
        // Higher confidence demands a larger lead.
        assert!(hoeffding_lead_bound(0.99, 10) > hoeffding_lead_bound(0.9, 10));
        // A degenerate confidence of 1.0 stays finite via the clamp.
        assert!(hoeffding_lead_bound(1.0, 10).is_finite());
    }

    #[test]
    fn rule_requires_window_and_bound() {
        let mut rule = SequentialRule::new(3, 0.95);
        let p = pattern(0x10);
        // Huge lead, big n: still cannot fire before 3 observations.
        assert!(!rule.observe(Some(&p), 1.0, 0.0, 1000));
        assert!(!rule.observe(Some(&p), 1.0, 0.0, 1000));
        assert!(rule.observe(Some(&p), 1.0, 0.0, 1000));
        // A top switch resets the streak.
        let q = pattern(0x20);
        assert!(!rule.observe(Some(&q), 1.0, 0.0, 1000));
        assert!(!rule.observe(Some(&q), 1.0, 0.0, 1000));
        assert!(rule.observe(Some(&q), 1.0, 0.0, 1000));
        // A lead below the bound blocks the exit even on a long streak.
        let mut weak = SequentialRule::new(1, 0.95);
        assert!(!weak.observe(Some(&p), 0.01, 0.0, 3));
        // Zero lead with no tie margin never exits.
        let mut tied = SequentialRule::new(1, 0.95);
        assert!(!tied.observe(Some(&p), 0.0, 0.0, 1000));
    }

    #[test]
    fn rule_tie_margin_breaks_exact_f1_ties() {
        let p = pattern(0x10);
        // Exactly-tied F1 (lead 0) with a strong positive tie margin:
        // the secondary statistic converges once the streak holds.
        let mut rule = SequentialRule::new(2, 0.95);
        assert!(!rule.observe(Some(&p), 0.0, 0.9, 1000));
        assert!(rule.observe(Some(&p), 0.0, 0.9, 1000));
        // The margin obeys the same Hoeffding bound: thin evidence
        // blocks the tie path exactly as it blocks the lead path.
        let mut thin = SequentialRule::new(1, 0.95);
        assert!(!thin.observe(Some(&p), 0.0, 0.01, 3));
        // A runner with the *larger* margin (negative statistic) never
        // converges the tie.
        let mut neg = SequentialRule::new(1, 0.95);
        assert!(!neg.observe(Some(&p), 0.0, -0.9, 1000));
        // A genuinely positive lead ignores the margin entirely.
        let mut led = SequentialRule::new(1, 0.95);
        assert!(led.observe(Some(&p), 1.0, -0.9, 1000));
    }

    #[test]
    fn stream_status_codec_roundtrips() {
        let s = StreamStatus {
            reports_consumed: 12,
            reports_rejected: 1,
            converged: true,
            lead: 0.375,
            failing: 2,
            successes: 9,
        };
        let wire = encode_stream_status(&s);
        assert_eq!(decode_stream_status(&wire).unwrap(), s);
        for cut in 0..wire.len() {
            assert!(decode_stream_status(&wire[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = wire;
        trailing.push(0);
        assert_eq!(
            decode_stream_status(&trailing),
            Err(FrameError::BadPayload("trailing bytes"))
        );
    }

    #[test]
    fn stream_finish_reply_codec_roundtrips() {
        let r = StreamFinishReply {
            reports_consumed: 40,
            reports_rejected: 2,
            converged_early: true,
            report: "=== Lazy Diagnosis report ===\n".to_owned(),
            lead_history: vec![0.0, 0.25, 0.8125],
        };
        let wire = encode_stream_finish_reply(&r);
        assert_eq!(decode_stream_finish_reply(&wire).unwrap(), r);
        for cut in 0..wire.len() {
            assert!(
                decode_stream_finish_reply(&wire[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // An inflated lead-history count is rejected before allocation.
        let mut inflated = encode_stream_finish_reply(&r);
        let at = inflated.len() - 3 * 8 - 4;
        inflated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_stream_finish_reply(&inflated).is_err());
    }

    #[test]
    fn stream_session_ids_are_process_unique() {
        let a = next_stream_session();
        let b = next_stream_session();
        assert_ne!(a, b);
    }

    #[test]
    fn interleave_is_deterministic_and_failing_first() {
        let snap = |tag: u64| TraceSnapshot {
            taken_at: tag,
            trigger_tid: 0,
            trigger_pc: 0,
            trigger: lazy_trace::SnapshotTrigger::Failure,
            threads: Vec::new(),
        };
        let failing = vec![snap(1), snap(2)];
        let successful = vec![snap(10), snap(11), snap(12), snap(13)];
        let a = interleave_reports(&failing, &successful);
        let b = interleave_reports(&failing, &successful);
        assert_eq!(a.len(), 6);
        assert!(matches!(a[0], StreamReport::Failing(_)));
        let shape = |r: &[StreamReport]| -> Vec<(bool, u64)> {
            r.iter()
                .map(|x| match x {
                    StreamReport::Failing(s) => (true, s.taken_at),
                    StreamReport::Success(s) => (false, s.taken_at),
                })
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
        // Every input appears exactly once.
        let mut tags: Vec<u64> = shape(&a).iter().map(|(_, t)| *t).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2, 10, 11, 12, 13]);
    }
}
