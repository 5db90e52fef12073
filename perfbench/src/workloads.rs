//! The workloads, driven end to end against `snorlax serve`
//! daemons in their own processes, with every reply checked against an
//! in-process reference computed from the same bytes after the timed
//! window.

use crate::daemon::{Daemon, Drained};
use crate::inputs::{self, par_map, Distinct, Report, Stream};
use crate::replay;
use crate::stats::{mean, ms, percentile, ratio};
use lazy_ir::{Module, Pc};
use lazy_snorlax::daemon::{
    decode_batch_report, encode_batch_request, encode_diagnose_request, encode_frame,
};
use lazy_snorlax::streaming::{
    decode_stream_finish_reply, decode_stream_status, encode_stream_session,
    encode_stream_submit_failing, encode_stream_submit_success, StreamFinishReply,
};
use lazy_snorlax::{
    interleave_reports, next_stream_session, BatchConfig, BatchJob, Diagnosis, DiagnosisServer,
    FrameKind, RemoteClient, ServerConfig, StreamReport,
};
use lazy_workloads::BugScenario;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Bug served by `diagnose-open` and `batch-shared`, and by the fleet
/// shards of `diagnose-open`'s traced run.
pub const MYSQL: &str = "mysql-3596";
/// Bug served by `stream-converge`: one of the modules whose compiled
/// walk table is profitable, so decoder changes show there.
pub const AGET: &str = "aget-na-2";

/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Measured windows per run. Each is preceded by generating its inputs
/// and followed by checking its replies, so the windows sample the
/// machine at moments spread over the whole run instead of in one
/// burst; the run's metrics pool every window's samples.
const SEGMENTS: usize = 4;
/// Requests per connection in the warm-up's cold pass.
const WARM: usize = 4;
/// Open-loop arrival rate of `diagnose-open`: under a quarter of the
/// two-worker daemon's capacity on this bug, so a slower machine
/// lengthens the latency tail without building a queue.
const OPEN_RATE: f64 = 16.0;
/// Share of `diagnose-open`'s window spent in the open loop (about 130
/// arrivals a run, so a p90 nearly always has ten beyond it); the rest is
/// the closed-loop throughput phase.
const OPEN_SHARE: f64 = 0.8;
/// Reports per `batch-shared` batch.
const BATCH: usize = 8;
/// Collections a `stream-converge` session interleaves.
const STREAM_COLLECTIONS: usize = 3;
/// Inputs generated per second of a run's first closed-loop window:
/// headroom over the rates this code reaches on two cores. Later windows
/// get [`POOL_HEADROOM`] over what the window before used. A window that
/// runs out of inputs ends early, and its rates stay exact.
const DIAGNOSE_POOL_RPS: f64 = 90.0;
const BATCH_POOL_PER_S: f64 = 36.0;
const STREAM_POOL_PER_S: f64 = 120.0;
const POOL_HEADROOM: f64 = 1.4;

pub type Metrics = BTreeMap<&'static str, f64>;

/// How one run is driven.
pub struct Ctx {
    pub snorlax: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_dir: Option<PathBuf>,
    /// Self-test: alter one reply before it is checked, to prove the
    /// check can fail.
    pub tamper: bool,
}

/// What a run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when the run cannot be trusted: the open loop fell behind,
    /// or the inputs did not have their designed properties.
    pub valid: bool,
    pub metrics: Metrics,
}

impl Outcome {
    /// No operation failed and the run is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.valid
    }

    /// Adds the traced run's own checks.
    fn absorb(&mut self, checked: &replay::Checked) {
        self.attempted += checked.attempted;
        self.failed += checked.failed;
        self.valid &= checked.reconciled;
    }
}

/// Client connections (and generator threads): at most the machine's
/// cores, and two for the workloads that use two.
fn conns() -> usize {
    inputs::threads().min(2)
}

fn scenario(id: &str) -> (BugScenario, BTreeSet<Pc>) {
    let s = lazy_workloads::scenario_by_id(id).expect("bug id is in the corpus");
    let targets = s.targets.iter().copied().collect();
    (s, targets)
}

/// Length of one measured window.
fn window(ctx: &Ctx) -> f64 {
    ctx.seconds / SEGMENTS as f64
}

/// Inputs to generate for a closed-loop window of `seconds`, given how
/// many the previous window used.
fn pool(per_second: f64, seconds: f64, last_used: Option<usize>) -> usize {
    match last_used {
        None => (per_second * seconds).ceil() as usize,
        Some(used) => (used as f64 * POOL_HEADROOM).ceil() as usize + 2,
    }
}

/// What set-up costs, from launching the daemon to the end of its
/// warm-up pass: the median over [`SETUPS`] starts.
struct Setup {
    /// CPU time the daemon spent.
    cpu_s: f64,
    /// Wall time.
    wall_s: f64,
}

/// Starts a daemon for `bug` and warms it, [`SETUPS`] times; keeps the
/// last one.
fn setup(
    ctx: &Ctx,
    bug: &str,
    mut warm: impl FnMut(&Daemon) -> Result<(), String>,
) -> Result<(Daemon, Setup), String> {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    for round in 0..SETUPS {
        let started = Instant::now();
        let d = Daemon::spawn(&ctx.snorlax, bug)?;
        d.wait_ready()?;
        warm(&d)?;
        wall.push(started.elapsed().as_secs_f64());
        cpu.push(d.cpu_s());
        if round + 1 == SETUPS {
            let cost = Setup {
                cpu_s: crate::stats::median(&cpu),
                wall_s: crate::stats::median(&wall),
            };
            return Ok((d, cost));
        }
        d.shutdown()?;
    }
    unreachable!("SETUPS > 0")
}

/// What the daemon spends on the measured windows.
#[derive(Default)]
struct ServerCost {
    cpu_s: f64,
    /// Each window's peak resident set, in MiB.
    peaks_mb: Vec<f64>,
}

impl ServerCost {
    /// Runs one measured window and charges the daemon's CPU time and
    /// peak memory over it.
    fn window<T>(
        &mut self,
        d: &Daemon,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        d.reset_peak_rss()?;
        let cpu = d.cpu_s();
        let out = f()?;
        self.cpu_s += d.cpu_s() - cpu;
        self.peaks_mb.push(d.peak_rss_mb());
        Ok(out)
    }
}

/// Sends one pre-encoded frame and returns the reply's kind and payload.
fn roundtrip(c: &mut RemoteClient, frame: &[u8]) -> Result<(FrameKind, Vec<u8>), String> {
    c.send_raw(frame).map_err(|e| e.to_string())
}

fn expect(kind: FrameKind, want: FrameKind, payload: Vec<u8>) -> Result<Vec<u8>, String> {
    if kind == want {
        Ok(payload)
    } else {
        Err(format!("{kind:?}: {}", String::from_utf8_lossy(&payload)))
    }
}

fn text(payload: Vec<u8>) -> Result<String, String> {
    String::from_utf8(payload).map_err(|_| "reply is not utf-8".to_string())
}

/// One request the closed or open loop completed.
struct Done<T> {
    idx: usize,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    finished: Instant,
    reply: Result<T, String>,
}

impl<T> Done<T> {
    fn latency_ms(&self) -> f64 {
        ms(self.finished - self.due)
    }
}

/// Closed loop: `clients` connections, each sending its next request
/// when the previous one returns, until `seconds` pass or the window's
/// `pool` of inputs runs out.
fn closed_loop<T: Send>(
    d: &Daemon,
    clients: usize,
    pool: usize,
    seconds: f64,
    send: impl Fn(&mut RemoteClient, usize) -> Result<T, String> + Sync,
) -> Result<(Vec<Done<T>>, f64), String> {
    let next = AtomicUsize::new(0);
    let conns: Vec<std::sync::Mutex<RemoteClient>> = (0..clients)
        .map(|_| d.connect().map(std::sync::Mutex::new))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per: Vec<Vec<Done<T>>> = par_map(clients, |k| {
        let mut c = conns[k].lock().expect("client lock");
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= pool {
                eprintln!("perfbench: the window's {pool} inputs ran out before it ended");
                break;
            }
            let sent = Instant::now();
            let reply = send(&mut c, i);
            out.push(Done {
                idx: i,
                due: sent,
                sent,
                finished: Instant::now(),
                reply,
            });
        }
        out
    });
    let done: Vec<Done<T>> = per.into_iter().flatten().collect();
    let end = done.iter().map(|d| d.finished).max().unwrap_or(start);
    Ok((done, (end - start).as_secs_f64()))
}

/// Seeded Poisson arrival offsets (seconds) at `rate` over `seconds`.
fn poisson(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // xorshift64*
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let u = ((x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// What every workload measures. The wall-clock figures are reported by
/// the traced run (`loadgen.*`), unbounded: on a shared machine they
/// follow the host's load (time the hypervisor gives other guests stalls
/// them) more than the program. CPU time is not charged for that time,
/// so the daemon's CPU per report and per set-up are the bounded
/// measures of speed.
struct EndToEnd<'a> {
    latency: &'a [f64],
    throughput_rps: f64,
    /// Reports served in the measured windows.
    served: usize,
    cost: ServerCost,
    diagnosis_time: &'a [f64],
    reports_per_diagnosis: f64,
    accuracy: f64,
    setup: Setup,
}

impl EndToEnd<'_> {
    fn into_metrics(self, m: &mut Metrics) {
        m.insert("loadgen.latency_p50_ms", percentile(self.latency, 50.0));
        m.insert("loadgen.latency_p90_ms", percentile(self.latency, 90.0));
        m.insert("loadgen.throughput_rps", self.throughput_rps);
        m.insert(
            "server_cpu_ms_per_report",
            1e3 * ratio(self.cost.cpu_s, self.served as f64),
        );
        m.insert(
            "loadgen.diagnosis_time_p50_ms",
            percentile(self.diagnosis_time, 50.0),
        );
        m.insert(
            "loadgen.diagnosis_time_p90_ms",
            percentile(self.diagnosis_time, 90.0),
        );
        m.insert("reports_to_converge", self.reports_per_diagnosis);
        m.insert("root_cause_accuracy", self.accuracy);
        m.insert("setup_s", self.setup.cpu_s);
        m.insert("loadgen.setup_wall_s", self.setup.wall_s);
        // The median window's peak: one window in which two large
        // requests happened to overlap does not decide the run.
        m.insert("peak_rss_mb", crate::stats::median(&self.cost.peaks_mb));
        for (name, n) in [
            ("latency", self.latency.len()),
            ("diagnosis_time", self.diagnosis_time.len()),
        ] {
            if n < 100 {
                eprintln!("perfbench: only {n} {name} samples; p90 needs 100 for ten beyond it");
            }
        }
    }
}

/// The checks of every reply in a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Diagnoses whose root cause is exactly the bug's target
    /// instructions.
    on_target: u64,
    events: Vec<f64>,
}

impl Tally {
    /// Checks one reply against its in-process reference: the render
    /// must be byte-identical, or the operation failed. Whether the
    /// reference's root cause is the scenario's target instructions is
    /// counted as accuracy.
    fn check(
        &mut self,
        what: &str,
        reply: Result<&str, &str>,
        reference: &Result<Diagnosis, String>,
        module: &Module,
        targets: &BTreeSet<Pc>,
    ) {
        self.attempted += 1;
        let verdict = match (reply, reference) {
            (Ok(r), Ok(d)) => {
                self.events.push(d.stats.events_total as f64);
                let root: BTreeSet<Pc> = d
                    .root_cause()
                    .map(|s| s.pattern.pcs().into_iter().collect())
                    .unwrap_or_default();
                self.on_target += u64::from(&root == targets);
                if r == d.render(module) {
                    Ok(())
                } else {
                    Err("reply differs from the in-process render".to_string())
                }
            }
            (Err(e), _) => Err(e.to_string()),
            (_, Err(e)) => Err(format!("in-process reference: {e}")),
        };
        if let Err(e) = verdict {
            self.fail(what, &e);
        }
    }

    /// Counts a failed operation with its reason.
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {why}");
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            valid: true,
            metrics: Metrics::new(),
        }
    }

    fn accuracy(&self) -> f64 {
        ratio(self.on_target as f64, self.attempted as f64)
    }
}

/// Self-test: alters one successful reply so its check must fail.
fn tamper(reply: Option<&mut Result<String, String>>) {
    if let Some(Ok(r)) = reply {
        r.push('!');
    }
}

/// Wall time a run spends in each phase, reported on stderr.
struct Phases {
    workload: &'static str,
    last: Instant,
    totals: BTreeMap<&'static str, f64>,
}

impl Phases {
    fn new(workload: &'static str) -> Phases {
        Phases {
            workload,
            last: Instant::now(),
            totals: BTreeMap::new(),
        }
    }

    /// Charges the time since the previous lap to `phase`.
    fn lap(&mut self, phase: &'static str) {
        *self.totals.entry(phase).or_default() += self.last.elapsed().as_secs_f64();
        self.last = Instant::now();
    }
}

impl Drop for Phases {
    fn drop(&mut self) {
        let parts: Vec<String> = self
            .totals
            .iter()
            .map(|(p, s)| format!("{p} {s:.1}s"))
            .collect();
        eprintln!(
            "perfbench: {} wall time: {}",
            self.workload,
            parts.join(", ")
        );
    }
}

fn single_threaded(module: &Module) -> DiagnosisServer<'_> {
    DiagnosisServer::new(
        module,
        ServerConfig {
            decode_workers: 1,
            ..ServerConfig::default()
        },
    )
}

fn reference(module: &Module, r: &Report) -> Result<Diagnosis, String> {
    single_threaded(module)
        .diagnose(&r.failure, &r.failing, &r.successful)
        .map_err(|e| e.to_string())
}

fn report_input_props(m: &mut Metrics, d: &Distinct, bytes: f64) {
    m.insert("input.repeat_share_request", d.share_in_request());
    m.insert("input.repeat_share_run", d.share_across());
    m.insert("input.bytes_per_report", bytes);
}

// ---------------------------------------------------------------------
// diagnose-open

fn diagnose_frame(r: &Report) -> Vec<u8> {
    encode_frame(
        FrameKind::Diagnose,
        &encode_diagnose_request(&r.failure, &r.failing, &r.successful),
    )
}

fn diagnose(c: &mut RemoteClient, frame: &[u8]) -> Result<String, String> {
    let (kind, p) = roundtrip(c, frame)?;
    text(expect(kind, FrameKind::Report, p)?)
}

/// One open-loop window: each request is sent when due on the first free
/// connection and timed from when it was due.
fn open_loop(
    d: &Daemon,
    frames: &[Vec<u8>],
    schedule: &[f64],
) -> Result<Vec<Done<String>>, String> {
    let next = AtomicUsize::new(0);
    let clients: Vec<std::sync::Mutex<RemoteClient>> = (0..conns())
        .map(|_| d.connect().map(std::sync::Mutex::new))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let done = par_map(conns(), |k| {
        let mut c = clients[k].lock().expect("client lock");
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(at) = schedule.get(i) else {
                return out;
            };
            let due = t0 + Duration::from_secs_f64(*at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let reply = diagnose(&mut c, &frames[i]);
            out.push(Done {
                idx: i,
                due,
                sent,
                finished: Instant::now(),
                reply,
            });
        }
    });
    Ok(done.into_iter().flatten().collect())
}

pub fn diagnose_open(ctx: &Ctx) -> Result<Outcome, String> {
    let mut phases = Phases::new("diagnose-open");
    let (s, targets) = scenario(MYSQL);
    let warm: Vec<Vec<u8>> =
        inputs::reports(&s.module, ctx.seed, Stream::Warmup, 0..WARM * conns())
            .iter()
            .map(diagnose_frame)
            .collect();
    phases.lap("inputs");
    let (d, setup_cost) = setup(ctx, MYSQL, |d| {
        let warmed = par_map(conns(), |k| -> Result<(), String> {
            let mut c = d.connect()?;
            warm.iter()
                .skip(k)
                .step_by(conns())
                .try_for_each(|f| diagnose(&mut c, f).map(drop))
        });
        warmed.into_iter().collect()
    })?;
    phases.lap("setup");

    let open_s = window(ctx) * OPEN_SHARE;
    let closed_s = window(ctx) - open_s;
    let mut reports: Vec<Report> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut tally = Tally::default();
    let (mut open, mut closed, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let (mut closed_done, mut closed_elapsed, mut backlog_end) = (0usize, 0.0, 0usize);
    let (mut cost, mut served) = (ServerCost::default(), 0usize);
    let mut last_used = None;
    for seg in 0..SEGMENTS {
        let schedule = poisson(ctx.seed ^ ((seg as u64) << 40), OPEN_RATE, open_s);
        let n_open = schedule.len();
        let base = reports.len();
        let n = n_open + pool(DIAGNOSE_POOL_RPS, closed_s, last_used);
        reports.extend(inputs::reports(
            &s.module,
            ctx.seed,
            Stream::Measured,
            base..base + n,
        ));
        payloads.extend(
            reports[base..]
                .iter()
                .map(|r| encode_diagnose_request(&r.failure, &r.failing, &r.successful)),
        );
        let frames: Vec<Vec<u8>> = payloads[base..]
            .iter()
            .map(|p| encode_frame(FrameKind::Diagnose, p))
            .collect();
        phases.lap("inputs");

        let (opened, (shut, secs)) = cost.window(&d, || {
            let opened = open_loop(&d, &frames, &schedule)?;
            let shut = closed_loop(&d, conns(), n - n_open, closed_s, |c, i| {
                diagnose(c, &frames[n_open + i])
            })?;
            Ok((opened, shut))
        })?;
        let window_end = opened
            .iter()
            .map(|o| o.due)
            .max()
            .unwrap_or_else(Instant::now);
        backlog_end = backlog_end.max(
            opened
                .iter()
                .filter(|o| o.due <= window_end && o.sent > window_end)
                .count(),
        );
        served += opened.len() + shut.len();
        closed_done += shut.len();
        closed_elapsed += secs;
        last_used = Some(shut.len());
        phases.lap("measure");

        let mut replies: Vec<(usize, Result<String, String>)> = opened
            .iter()
            .map(|o| (base + o.idx, o.reply.clone()))
            .chain(
                shut.iter()
                    .map(|c| (base + n_open + c.idx, c.reply.clone())),
            )
            .collect();
        if ctx.tamper && seg == 0 {
            tamper(replies.first_mut().map(|r| &mut r.1));
        }
        let refs = par_map(replies.len(), |k| {
            reference(&s.module, &reports[replies[k].0])
        });
        for ((i, reply), reference) in replies.iter().zip(&refs) {
            tally.check(
                &format!("request {i}"),
                reply.as_deref().map_err(String::as_str),
                reference,
                &s.module,
                &targets,
            );
        }
        late.extend(opened.iter().map(|o| ms(o.sent - o.due)));
        open.extend(opened.iter().map(|o| (base + o.idx, o.latency_ms())));
        closed.extend(shut.iter().map(Done::latency_ms));
        phases.lap("verify");
    }
    let drained = d.shutdown()?;

    let mut out = tally.outcome();
    // Half a second of arrivals still waiting when the last one is due
    // is a queue that no longer drains: the offered rate exceeded what
    // the system served, and the latencies describe the queue.
    if backlog_end as f64 > OPEN_RATE / 2.0 {
        eprintln!("perfbench: the open loop fell behind: {backlog_end} requests due but unsent at a window's end");
        out.valid = false;
    }
    let mut distinct = Distinct::default();
    for r in &reports {
        distinct.request(r.snapshots());
    }
    out.valid &= distinct_across(&distinct);
    let latency: Vec<f64> = open.iter().map(|o| o.1).collect();
    EndToEnd {
        latency: &latency,
        throughput_rps: closed_done as f64 / closed_elapsed,
        cost,
        served,
        diagnosis_time: &closed,
        reports_per_diagnosis: mean(
            &reports
                .iter()
                .map(|r| r.snapshots().count() as f64)
                .collect::<Vec<_>>(),
        ),
        accuracy: tally.accuracy(),
        setup: setup_cost,
    }
    .into_metrics(&mut out.metrics);
    let m = &mut out.metrics;
    report_input_props(
        m,
        &distinct,
        mean(&payloads.iter().map(|p| p.len() as f64).collect::<Vec<_>>()),
    );
    m.insert("input.events_per_report", mean(&tally.events));
    m.insert("loadgen.late_p90_ms", percentile(&late, 90.0));
    m.insert("loadgen.backlog_end", backlog_end as f64);
    daemon_counts(m, &drained);
    if ctx.trace {
        let used: Vec<usize> = open.iter().map(|o| o.0).collect();
        let checked =
            replay::diagnose_open(ctx, &s.module, &reports, &payloads, &used, &latency, m)?;
        out.absorb(&checked);
        phases.lap("trace");
    }
    Ok(out)
}

/// The designed property of every workload: no snapshot repeats across
/// requests.
fn distinct_across(d: &Distinct) -> bool {
    if d.repeats_across > 0 {
        eprintln!(
            "perfbench: {} snapshots repeat across requests",
            d.repeats_across
        );
    }
    d.repeats_across == 0
}

fn daemon_counts(m: &mut Metrics, d: &Drained) {
    m.insert("daemon.busy_total", d.busy as f64);
    m.insert("daemon.timeouts_total", d.timeouts as f64);
    m.insert("daemon.corrupt_total", d.corrupt as f64);
}

// ---------------------------------------------------------------------
// batch-shared

/// A batch's reports as borrowed batch jobs.
pub fn jobs_of(batch: &[Report]) -> Vec<BatchJob<'_>> {
    batch
        .iter()
        .map(|r| BatchJob {
            failure: &r.failure,
            failing: &r.failing,
            successful: &r.successful,
        })
        .collect()
}

fn batch(c: &mut RemoteClient, frame: &[u8]) -> Result<Vec<Result<String, String>>, String> {
    let (kind, p) = roundtrip(c, frame)?;
    let jobs = decode_batch_report(&expect(kind, FrameKind::BatchReport, p)?)
        .map_err(|e| e.to_string())?;
    Ok(jobs
        .into_iter()
        .map(|j| j.map_err(|e| e.to_string()))
        .collect())
}

/// The job of batch `b` checked against the independent `diagnose`.
fn rotating_job(b: usize) -> usize {
    b % BATCH
}

pub fn batch_shared(ctx: &Ctx) -> Result<Outcome, String> {
    let mut phases = Phases::new("batch-shared");
    let (s, targets) = scenario(MYSQL);
    let warm: Vec<Vec<u8>> = inputs::batches(&s.module, ctx.seed, Stream::Warmup, 0..WARM, BATCH)
        .iter()
        .map(|b| encode_frame(FrameKind::Batch, &encode_batch_request(&jobs_of(b))))
        .collect();
    phases.lap("inputs");
    let (d, setup_cost) = setup(ctx, MYSQL, |d| {
        let mut c = d.connect()?;
        warm.iter().try_for_each(|f| batch(&mut c, f).map(drop))
    })?;
    phases.lap("setup");

    let mut batches: Vec<Vec<Report>> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut served: Vec<(usize, f64)> = Vec::new();
    let mut tally = Tally::default();
    let (mut elapsed, mut cost) = (0.0, ServerCost::default());
    let mut last_used = None;
    let single = BatchConfig {
        workers: 1,
        ..BatchConfig::default()
    };
    for seg in 0..SEGMENTS {
        let base = batches.len();
        let n = pool(BATCH_POOL_PER_S, window(ctx), last_used);
        batches.extend(inputs::batches(
            &s.module,
            ctx.seed,
            Stream::Measured,
            base..base + n,
            BATCH,
        ));
        payloads.extend(
            batches[base..]
                .iter()
                .map(|b| encode_batch_request(&jobs_of(b))),
        );
        let frames: Vec<Vec<u8>> = payloads[base..]
            .iter()
            .map(|p| encode_frame(FrameKind::Batch, p))
            .collect();
        phases.lap("inputs");
        let (done, secs) = cost.window(&d, || {
            closed_loop(&d, 1, n, window(ctx), |c, i| batch(c, &frames[i]))
        })?;
        elapsed += secs;
        last_used = Some(done.len());
        phases.lap("measure");

        // Every job is checked against in-process `diagnose_batch` over
        // the same reports, and one job per batch also against the
        // independent `diagnose`: job `b % 8` of batch `b`, so the check
        // rotates over the fresh job and the jobs the snapshot memo and
        // points-to cache serve. (A `diagnose` per job would decode the
        // shared corpus eight times and triple the check's cost.)
        let refs = par_map(done.len(), |k| {
            let b = &batches[base + done[k].idx];
            let out = single_threaded(&s.module).diagnose_batch(&jobs_of(b), &single);
            let diagnoses: Vec<Result<Diagnosis, String>> = out
                .diagnoses
                .into_iter()
                .map(|d| d.map_err(|e| e.to_string()))
                .collect();
            let probe = rotating_job(base + done[k].idx);
            (
                diagnoses,
                reference(&s.module, &b[probe]).map(|d| d.render(&s.module)),
            )
        });
        for (k, (dn, (diagnoses, independent))) in done.iter().zip(&refs).enumerate() {
            let mut replies: Vec<Result<String, String>> = match &dn.reply {
                Ok(rs) if rs.len() == BATCH => rs.clone(),
                Ok(rs) => vec![Err(format!("{} job results for {BATCH} jobs", rs.len())); BATCH],
                Err(e) => vec![Err(e.clone()); BATCH],
            };
            if ctx.tamper && seg == 0 && k == 0 {
                tamper(replies.first_mut());
            }
            let probe = rotating_job(base + dn.idx);
            for (j, (reply, reference)) in replies.iter().zip(diagnoses).enumerate() {
                let what = format!("batch {} job {j}", base + dn.idx);
                let before = tally.failed;
                tally.check(
                    &what,
                    reply.as_deref().map_err(String::as_str),
                    reference,
                    &s.module,
                    &targets,
                );
                // A job fails at most once.
                if j == probe
                    && tally.failed == before
                    && independent.as_ref().ok() != reply.as_ref().ok()
                {
                    tally.fail(&what, "reply differs from the in-process diagnose render");
                }
            }
        }
        served.extend(done.iter().map(|d| (base + d.idx, d.latency_ms())));
        phases.lap("verify");
    }
    let drained = d.shutdown()?;

    let mut out = tally.outcome();
    let mut distinct = Distinct::default();
    for b in &batches {
        distinct.request(b.iter().flat_map(Report::snapshots));
    }
    // Eight failing snapshots plus one shared 10-snapshot corpus, offered
    // with every job: 70 of 88 snapshots repeat inside the batch.
    let designed = (BATCH * 11 - (BATCH + 10)) as f64 / (BATCH * 11) as f64;
    if (distinct.share_in_request() - designed).abs() > 1e-9 {
        eprintln!(
            "perfbench: in-batch repeat share {} is not the designed {designed}",
            distinct.share_in_request()
        );
        out.valid = false;
    }
    out.valid &= distinct_across(&distinct);
    let latency: Vec<f64> = served.iter().map(|s| s.1).collect();
    // A `Batch` reply carries all eight diagnoses at once, so the time to
    // a diagnosis is the batch latency.
    EndToEnd {
        latency: &latency,
        throughput_rps: (served.len() * BATCH) as f64 / elapsed,
        cost,
        served: served.len() * BATCH,
        diagnosis_time: &latency,
        reports_per_diagnosis: mean(
            &batches
                .iter()
                .flatten()
                .map(|r| r.snapshots().count() as f64)
                .collect::<Vec<_>>(),
        ),
        accuracy: tally.accuracy(),
        setup: setup_cost,
    }
    .into_metrics(&mut out.metrics);
    let m = &mut out.metrics;
    report_input_props(
        m,
        &distinct,
        mean(
            &payloads
                .iter()
                .map(|p| p.len() as f64 / BATCH as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert("input.events_per_report", mean(&tally.events));
    daemon_counts(m, &drained);
    if ctx.trace {
        let used: Vec<usize> = served.iter().map(|s| s.0).collect();
        let checked = replay::batch_shared(ctx, &s.module, &batches, &payloads, &used, &latency, m);
        out.absorb(&checked);
        phases.lap("trace");
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// stream-converge

/// One streaming session's inputs, and what the in-process stream did
/// with them.
pub struct Session {
    pub id: u64,
    pub failure: lazy_vm::Failure,
    pub reports: Vec<StreamReport>,
    /// Reports an in-process `diagnose_streaming` consumes.
    pub consumed: usize,
}

/// Builds session `i`: the interleave of [`STREAM_COLLECTIONS`]
/// collections. The interleave's first 11 reports are the first
/// collection's, so the later collections are generated only when the
/// in-process stream needs a 12th report.
fn session(module: &Module, seed: u64, stream: Stream, i: usize) -> Session {
    let unit = |k: usize| {
        inputs::collect_report(
            module,
            inputs::vm_seed(seed, stream, i * STREAM_COLLECTIONS + k),
        )
    };
    let first = unit(0);
    let server = single_threaded(module);
    let consumed = |reports: &[StreamReport]| {
        server
            .diagnose_streaming(&first.failure, reports.iter().cloned())
            .map_or(0, |o| o.reports_consumed)
    };
    let mut reports = interleave_reports(&first.failing, &first.successful);
    let mut n = consumed(&reports);
    if n == reports.len() {
        let cols: Vec<Report> = std::iter::once(first.clone())
            .chain((1..STREAM_COLLECTIONS).map(unit))
            .collect();
        let failing: Vec<_> = cols
            .iter()
            .flat_map(|c| c.failing.iter().cloned())
            .collect();
        let successful: Vec<_> = cols
            .iter()
            .flat_map(|c| c.successful.iter().cloned())
            .collect();
        let full = interleave_reports(&failing, &successful);
        assert!(
            full.iter()
                .zip(&reports)
                .all(|(a, b)| snap_of(a) == snap_of(b)),
            "the first collection is the interleave's prefix"
        );
        reports = full;
        n = consumed(&reports);
    }
    Session {
        id: next_stream_session(),
        failure: first.failure,
        reports,
        consumed: n,
    }
}

pub fn snap_of(r: &StreamReport) -> &lazy_trace::TraceSnapshot {
    match r {
        StreamReport::Failing(s) | StreamReport::Success(s) => s,
    }
}

/// Splits stream reports into failing and successful snapshots.
pub fn split(
    reports: &[StreamReport],
) -> (
    Vec<lazy_trace::TraceSnapshot>,
    Vec<lazy_trace::TraceSnapshot>,
) {
    let mut failing = Vec::new();
    let mut successful = Vec::new();
    for r in reports {
        match r {
            StreamReport::Failing(s) => failing.push(s.clone()),
            StreamReport::Success(s) => successful.push(s.clone()),
        }
    }
    (failing, successful)
}

fn submit_frames(s: &Session) -> Vec<Vec<u8>> {
    s.reports
        .iter()
        .map(|r| match r {
            StreamReport::Failing(snap) => encode_stream_submit_failing(s.id, &s.failure, snap),
            StreamReport::Success(snap) => encode_stream_submit_success(s.id, snap),
        })
        .map(|p| encode_frame(FrameKind::StreamSubmit, &p))
        .collect()
}

/// One session over the wire: per-submit latencies and the finish reply.
struct SessionRun {
    submits_ms: Vec<f64>,
    reply: Result<StreamFinishReply, String>,
}

/// Submits one report at a time until the status reports convergence
/// (or the reports run out), then finishes the session.
fn run_session(c: &mut RemoteClient, s: &Session, frames: &[Vec<u8>]) -> SessionRun {
    let mut submits_ms = Vec::new();
    let mut go = || -> Result<StreamFinishReply, String> {
        for f in frames {
            let t = Instant::now();
            let (kind, p) = roundtrip(c, f)?;
            submits_ms.push(ms(t.elapsed()));
            let status = decode_stream_status(&expect(kind, FrameKind::StreamSubmitAck, p)?)
                .map_err(|e| e.to_string())?;
            if status.converged {
                break;
            }
        }
        let (kind, p) = roundtrip(
            c,
            &encode_frame(FrameKind::StreamFinish, &encode_stream_session(s.id)),
        )?;
        decode_stream_finish_reply(&expect(kind, FrameKind::StreamFinishAck, p)?)
            .map_err(|e| e.to_string())
    };
    let reply = go();
    SessionRun { submits_ms, reply }
}

pub fn stream_converge(ctx: &Ctx) -> Result<Outcome, String> {
    let mut phases = Phases::new("stream-converge");
    let (s, targets) = scenario(AGET);
    let warm = par_map(WARM * conns(), |i| {
        session(&s.module, ctx.seed, Stream::Warmup, i)
    });
    phases.lap("inputs");
    let (d, setup_cost) = setup(ctx, AGET, |d| {
        // Warm-up sessions run once per daemon start, so each start needs
        // fresh session ids.
        let fresh: Vec<Session> = warm
            .iter()
            .map(|w| Session {
                id: next_stream_session(),
                failure: w.failure.clone(),
                reports: w.reports.clone(),
                consumed: w.consumed,
            })
            .collect();
        let runs = par_map(conns(), |k| -> Result<(), String> {
            let mut c = d.connect()?;
            fresh
                .iter()
                .skip(k)
                .step_by(conns())
                .try_for_each(|w| run_session(&mut c, w, &submit_frames(w)).reply.map(drop))
        });
        runs.into_iter().collect()
    })?;
    phases.lap("setup");

    let mut sessions: Vec<Session> = Vec::new();
    let mut bytes = Vec::new();
    let mut tally = Tally::default();
    let (mut submits, mut diag_time, mut consumed) = (Vec::new(), Vec::new(), Vec::new());
    let mut used: Vec<(usize, Vec<f64>)> = Vec::new();
    let (mut elapsed, mut cost) = (0.0, ServerCost::default());
    let mut last_used = None;
    for seg in 0..SEGMENTS {
        let base = sessions.len();
        let n = pool(STREAM_POOL_PER_S, window(ctx), last_used);
        sessions.extend(par_map(n, |k| {
            session(&s.module, ctx.seed, Stream::Measured, base + k)
        }));
        let frames: Vec<Vec<Vec<u8>>> = sessions[base..].iter().map(submit_frames).collect();
        bytes.extend(frames.iter().flatten().map(|f| f.len() as f64));
        phases.lap("inputs");
        let (done, secs) = cost.window(&d, || {
            closed_loop(&d, conns(), n, window(ctx), |c, i| {
                Ok(run_session(c, &sessions[base + i], &frames[i]))
            })
        })?;
        elapsed += secs;
        last_used = Some(done.len());
        phases.lap("measure");

        let mut finishes: Vec<(usize, Result<String, String>, usize)> = done
            .iter()
            .map(|dn| match &dn.reply {
                Ok(SessionRun { reply: Ok(f), .. }) => (
                    base + dn.idx,
                    Ok(f.report.clone()),
                    f.reports_consumed as usize,
                ),
                Ok(SessionRun { reply: Err(e), .. }) | Err(e) => (base + dn.idx, Err(e.clone()), 0),
            })
            .collect();
        if ctx.tamper && seg == 0 {
            tamper(finishes.first_mut().map(|f| &mut f.1));
        }
        // The finished render must equal `diagnose` over the consumed
        // prefix, and the consumed count the in-process stream's.
        let refs = par_map(finishes.len(), |k| {
            let sess = &sessions[finishes[k].0];
            let (failing, successful) = split(&sess.reports[..sess.consumed]);
            single_threaded(&s.module)
                .diagnose(&sess.failure, &failing, &successful)
                .map_err(|e| e.to_string())
        });
        for ((i, reply, n), reference) in finishes.iter().zip(&refs) {
            let what = format!("session {i}");
            tally.check(
                &what,
                reply.as_deref().map_err(String::as_str),
                reference,
                &s.module,
                &targets,
            );
            if reply.is_ok() {
                consumed.push(*n as f64);
                if *n != sessions[*i].consumed {
                    let why = format!(
                        "consumed {n} reports, the in-process stream {}",
                        sessions[*i].consumed
                    );
                    tally.fail(&what, &why);
                }
            }
        }
        for dn in &done {
            let ms = dn
                .reply
                .as_ref()
                .map(|r| r.submits_ms.clone())
                .unwrap_or_default();
            submits.extend(ms.iter().copied());
            diag_time.push(dn.latency_ms());
            used.push((base + dn.idx, ms));
        }
        phases.lap("verify");
    }
    let drained = d.shutdown()?;

    let mut out = tally.outcome();
    let mut distinct = Distinct::default();
    for sess in &sessions {
        for r in &sess.reports {
            distinct.request([snap_of(r)]);
        }
    }
    out.valid &= distinct_across(&distinct);
    EndToEnd {
        latency: &submits,
        throughput_rps: submits.len() as f64 / elapsed,
        cost,
        served: submits.len(),
        diagnosis_time: &diag_time,
        reports_per_diagnosis: mean(&consumed),
        accuracy: tally.accuracy(),
        setup: setup_cost,
    }
    .into_metrics(&mut out.metrics);
    let m = &mut out.metrics;
    report_input_props(m, &distinct, mean(&bytes));
    m.insert(
        "input.events_per_report",
        ratio(tally.events.iter().sum(), consumed.iter().sum()),
    );
    daemon_counts(m, &drained);
    if ctx.trace {
        let checked = replay::stream_converge(ctx, &s.module, &sessions, &used, m);
        out.absorb(&checked);
        phases.lap("trace");
    }
    Ok(out)
}
