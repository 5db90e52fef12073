//! The traced run: replays a workload's served inputs in-process, on
//! one thread, through the layers' public functions, and times every
//! call in a span recorded by this file (the program itself carries no
//! benchmark spans).
//!
//! Each request replays three ways:
//!
//! * probes — the per-thread decoder alone, and path entry points
//!   (`diagnose_batch`, `StreamingDiagnoser::fold`/`finish`,
//!   `FleetShard` rounds, `FleetRouter::route`);
//! * the `pipeline` — `DiagnosisServer::diagnose`'s steps 2–7 called
//!   stage by stage (`process_snapshot_view`, `PointsTo::analyze_scoped`,
//!   `select_candidates`, pattern generation, `score_patterns`);
//! * `server` — the untraced `DiagnosisServer::diagnose` with one decode
//!   worker, on the same views.
//!
//! The pipeline's stage self times must account for the `server` total
//! within [`RECONCILE_TOLERANCE`] (on `stream-converge`, for the `fold`
//! total, since a session is a sequence of folds), and its scores must
//! equal the entry point's. A report whose staged scores differ, or a
//! failed direct shard round, is a failed operation; stages that do not
//! reconcile make the run invalid.
//!
//! The decoder's routing and walk-table decisions are the program's own
//! `lazy_obs` counters, read around the unloaded default-config calls.

use crate::daemon::Daemon;
use crate::inputs::Report;
use crate::stats::{median, ms, ratio, us};
use crate::workloads::{jobs_of, snap_of, split, Ctx, Metrics, Session, MYSQL};
use lazy_analysis::PointsTo;
use lazy_ir::{Module, Pc};
use lazy_snorlax::daemon::{decode_batch_request_views, decode_diagnose_request_view};
use lazy_snorlax::patterns::{crash_patterns, deadlock_patterns, PatternContext};
use lazy_snorlax::processing::process_snapshot_view;
use lazy_snorlax::streaming::{
    decode_stream_submit_view, encode_stream_submit_failing, encode_stream_submit_success,
};
use lazy_snorlax::{
    multivar_patterns, score_patterns, select_candidates, BatchConfig, BugPattern, DiagnosisServer,
    FleetReport, FleetRouter, FleetShard, PatternScore, PatternStats, ProcessedTrace, ServerConfig,
    ShardConn, StreamReport, StreamingDiagnoser,
};
use lazy_trace::decoder::{decode_thread_trace_adaptive, recycle_events, ExecIndex, WalkTable};
use lazy_trace::SnapshotView;
use lazy_vm::{Failure, FailureKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::time::{Duration, Instant};

/// Largest share of the `diagnose` (or `fold`) total that the stage self
/// times may leave unexplained, either way.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// The stages whose self times must add up to the entry point's total.
const STAGES: [&str; 5] = [
    "processing",
    "pointsto",
    "candidates",
    "patterns",
    "statistics",
];

struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder; written out when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    /// Each span's self time: the span minus the time its child spans
    /// cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Per span name: (total µs, self µs, count).
    fn totals(&self) -> HashMap<&'static str, (f64, f64, usize)> {
        let mut out: HashMap<&'static str, (f64, f64, usize)> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += us(s.end - s.start);
            e.1 += us(own);
            e.2 += 1;
        }
        out
    }

    /// Per request that ran `entry`: the share of its `entry` total that
    /// the self times of [`STAGES`] leave unexplained.
    fn unexplained_by_request(&self, entry: &str) -> Vec<f64> {
        let mut per: HashMap<u64, (f64, f64)> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = per.entry(s.request).or_default();
            if STAGES.contains(&s.name) {
                e.0 += us(own);
            } else if s.name == entry {
                e.1 += us(s.end - s.start);
            }
        }
        per.values()
            .filter(|(_, total)| *total > 0.0)
            .map(|(stages, total)| 1.0 - stages / total)
            .collect()
    }

    /// Writes one line per span: request, id, parent, name, start and
    /// end (ns since the replay began).
    fn write(&self, ctx: &Ctx, workload: &str) {
        let Some(dir) = ctx.spans_dir.as_ref() else {
            return;
        };
        let path = dir.join(format!("{workload}-seed{}.tsv", ctx.seed));
        let body = self.spans.iter().enumerate().fold(
            String::from("request\tid\tparent\tname\tstart_ns\tend_ns\n"),
            |mut s, (i, sp)| {
                let parent = sp.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
                s.push_str(&format!(
                    "{}\t{i}\t{parent}\t{}\t{}\t{}\n",
                    sp.request,
                    sp.name,
                    sp.start.as_nanos(),
                    sp.end.as_nanos()
                ));
                s
            },
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|mut f| f.write_all(body.as_bytes()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
}

/// Counts read from the layers' return values.
#[derive(Default)]
struct Counts {
    events: usize,
    failed_threads: usize,
    scope_insts: usize,
    ranked: usize,
    generated: usize,
    executed_seen: HashSet<u64>,
    executed_sets: usize,
    executed_repeats: usize,
    compared: usize,
    disagreed: usize,
}

impl Counts {
    fn executed(&mut self, set: &HashSet<Pc>) {
        let mut pcs: Vec<Pc> = set.iter().copied().collect();
        pcs.sort_unstable();
        let mut h = DefaultHasher::new();
        pcs.hash(&mut h);
        self.executed_sets += 1;
        if !self.executed_seen.insert(h.finish()) {
            self.executed_repeats += 1;
        }
    }

    /// Records a report the staged pipeline could not compare.
    fn mismatch(&mut self) {
        self.compared += 1;
        self.disagreed += 1;
    }

    fn compare(&mut self, shadow: &[PatternScore], real: &[PatternScore]) {
        self.compared += 1;
        let same = shadow.len() == real.len()
            && shadow.iter().zip(real).all(|(a, b)| {
                a.pattern == b.pattern
                    && a.type_rank == b.type_rank
                    && a.f1.to_bits() == b.f1.to_bits()
                    && (a.fail_support, a.success_support) == (b.fail_support, b.success_support)
            });
        if !same {
            self.disagreed += 1;
        }
    }
}

/// What the traced run's own checks found. `attempted` and `failed`
/// count operations (reports whose staged scores were compared, shard
/// rounds); `reconciled` is whether the stage self times account for the
/// entry point's total within [`RECONCILE_TOLERANCE`].
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub reconciled: bool,
}

/// The decoder's counters of its per-thread-stream decisions.
const DECISIONS: [&str; 4] = [
    "decode.walk_table.hit",
    "decode.walk_table.bypass",
    "decode.shard.routed_fused",
    "decode.shard.routed_sharded",
];

/// The decoder's decisions (in [`DECISIONS`] order), summed over the
/// calls run through [`Decisions::count`].
#[derive(Default)]
struct Decisions([u64; 4]);

impl Decisions {
    /// Runs `f` and adds what the decoder counted while it ran.
    fn count<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let read = || {
            let s = lazy_obs::snapshot();
            DECISIONS.map(|name| s.counter(name))
        };
        let before = read();
        let out = f();
        for ((sum, a), b) in self.0.iter_mut().zip(read()).zip(before) {
            *sum += a - b;
        }
        out
    }

    fn insert(&self, m: &mut Metrics) {
        let [hit, bypass, fused, sharded] = self.0.map(|v| v as f64);
        m.insert("decoder.walk_table_hit_ratio", ratio(hit, hit + bypass));
        m.insert("decoder.sharded_share", ratio(sharded, fused + sharded));
    }
}

/// What every replay shares: the module's decode tables and servers.
struct Env<'m> {
    module: &'m Module,
    index: ExecIndex,
    table: WalkTable,
    cfg: ServerConfig,
    /// `DiagnosisServer` with one decode worker: the reconciliation target.
    single: DiagnosisServer<'m>,
    /// `DiagnosisServer` as configured by default: unloaded reference
    /// for queue wait.
    default: DiagnosisServer<'m>,
}

impl<'m> Env<'m> {
    fn new(module: &'m Module) -> Env<'m> {
        let cfg = ServerConfig {
            decode_workers: 1,
            ..ServerConfig::default()
        };
        Env {
            module,
            index: ExecIndex::build(module),
            table: WalkTable::build(module),
            single: DiagnosisServer::new(module, cfg.clone()),
            default: DiagnosisServer::new(module, ServerConfig::default()),
            cfg,
        }
    }
}

/// Runs `f` on each unit in order until the replay has used `seconds`
/// (at least one unit); returns how many ran.
fn budgeted(seconds: f64, units: usize, mut f: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut n = 0;
    while n < units && (n == 0 || started.elapsed().as_secs_f64() < seconds) {
        f(n);
        n += 1;
    }
    n
}

/// Every thread stream of `s` through the per-thread decoder alone.
fn decoder_probe(tr: &mut Tracer, env: &Env<'_>, s: &SnapshotView<'_>, c: &mut Counts) {
    for t in &s.threads {
        let decoded = tr.span("decoder", |_| {
            decode_thread_trace_adaptive(
                &env.index,
                Some(&env.table),
                &env.cfg.trace,
                t.bytes,
                s.taken_at,
                1,
            )
        });
        match decoded {
            Ok(d) => {
                c.events += d.events.len();
                recycle_events(d);
            }
            Err(_) => c.failed_threads += 1,
        }
    }
}

fn process(tr: &mut Tracer, env: &Env<'_>, s: &SnapshotView<'_>) -> Option<ProcessedTrace> {
    tr.span("processing", |_| {
        process_snapshot_view(
            env.module,
            &env.index,
            Some(&env.table),
            &env.cfg.trace,
            s,
            1,
        )
        .ok()
    })
}

/// Steps 4–7 over processed traces, stage by stage, as
/// `DiagnosisServer::diagnose` and the stream's per-fold rescore run
/// them.
fn rescore(
    tr: &mut Tracer,
    env: &Env<'_>,
    failure: &Failure,
    failing: &[ProcessedTrace],
    successes: &[ProcessedTrace],
    c: &mut Counts,
) -> (Vec<PatternScore>, HashSet<Pc>) {
    let module = env.module;
    let mut executed: HashSet<Pc> = HashSet::new();
    for t in failing.iter().chain(successes) {
        executed.extend(t.executed.iter().copied());
    }
    c.scope_insts += executed.len();
    let deadlock = matches!(
        failure.kind,
        FailureKind::Deadlock { .. } | FailureKind::Hang
    );
    let pts = tr.span("pointsto", |_| PointsTo::analyze_scoped(module, &executed));
    let cands = tr.span("candidates", |_| {
        let mut cands = select_candidates(module, &pts, &executed, failure.pc, deadlock);
        cands.ranked.truncate(env.cfg.max_candidates);
        cands
    });
    c.ranked += cands.ranked.len();
    let patterns = tr.span("patterns", |_| {
        let ctx = PatternContext::new(module, &pts, &cands);
        let mut patterns: Vec<BugPattern> = Vec::new();
        for t in failing {
            if deadlock {
                patterns.extend(deadlock_patterns(&ctx, &cands, t));
            } else {
                patterns.extend(crash_patterns(&ctx, &cands, t));
                patterns.extend(multivar_patterns(
                    module, &pts, &executed, failure.pc, t, &cands,
                ));
            }
        }
        patterns.sort();
        patterns.dedup();
        patterns
    });
    c.generated += patterns.len();
    let scores = tr.span("statistics", |_| {
        let rank_of: HashMap<Pc, u32> = cands.ranked.iter().map(|r| (r.pc, r.rank)).collect();
        score_patterns(&patterns, failing, successes, &rank_of)
    });
    (scores, executed)
}

/// `DiagnosisServer::diagnose`, stage by stage (the `pipeline` span),
/// then the real call (the `server` span) on the same views; checks the
/// two agree.
fn reconcile(
    tr: &mut Tracer,
    env: &Env<'_>,
    failure: &Failure,
    failing: &[SnapshotView<'_>],
    successful: &[SnapshotView<'_>],
    c: &mut Counts,
) {
    let cap = env.cfg.success_factor * failing.len().max(1);
    let successful = &successful[..successful.len().min(cap)];
    for s in failing.iter().chain(successful) {
        decoder_probe(tr, env, s, c);
    }
    // Every other request runs the real call first, so what the first of
    // the two leaves warm for the second cancels out.
    let server = |tr: &mut Tracer| {
        tr.span("server", |_| {
            env.single.diagnose_views(failure, failing, successful)
        })
    };
    let first = (tr.request % 2 == 1).then(|| server(tr));
    let shadow = tr.span("pipeline", |tr| {
        let failing: Option<Vec<ProcessedTrace>> =
            failing.iter().map(|s| process(tr, env, s)).collect();
        let successes: Vec<ProcessedTrace> = successful
            .iter()
            .filter_map(|s| process(tr, env, s))
            .collect();
        failing.map(|f| rescore(tr, env, failure, &f, &successes, c))
    });
    let real = first.unwrap_or_else(|| server(tr));
    match (shadow, real) {
        (Some((scores, executed)), Ok(d)) => {
            c.executed(&executed);
            c.compare(&scores, &d.scores);
        }
        _ => c.mismatch(),
    }
}

/// The per-layer metrics shared by every workload, from the spans and
/// counts of `n` replayed requests; `entry` names the span the stages
/// must reconcile with.
fn common(
    tr: &Tracer,
    c: &Counts,
    decisions: &Decisions,
    n: usize,
    entry: &str,
    m: &mut Metrics,
) -> Checked {
    let t = tr.totals();
    let total = |name: &str| t.get(name).map_or(0.0, |v| v.0);
    let own = |name: &str| t.get(name).map_or(0.0, |v| v.1);
    let per = |v: f64| v / n as f64;
    let entry_total = total(entry);
    // The median over requests, so one request the machine slowed in
    // only one of its two runs does not decide the run.
    let unexplained = median(&tr.unexplained_by_request(entry));
    m.insert("trace.requests", n as f64);
    m.insert("wire.decode_us", per(own("wire")));
    m.insert("decoder.busy_us", per(own("decoder")));
    m.insert("decoder.events", per(c.events as f64));
    m.insert("decoder.failed_threads", c.failed_threads as f64);
    decisions.insert(m);
    m.insert("processing.busy_us", per(own("processing")));
    m.insert(
        "processing.aggregate_us",
        per(own("processing") - own("decoder")),
    );
    m.insert("processing.share", ratio(own("processing"), entry_total));
    m.insert("pointsto.busy_us", per(own("pointsto")));
    m.insert(
        "pointsto.scope_insts",
        ratio(
            c.scope_insts as f64,
            t.get("pointsto").map_or(0.0, |v| v.2 as f64),
        ),
    );
    m.insert("candidates.busy_us", per(own("candidates")));
    m.insert(
        "candidates.ranked",
        ratio(
            c.ranked as f64,
            t.get("candidates").map_or(0.0, |v| v.2 as f64),
        ),
    );
    m.insert("patterns.busy_us", per(own("patterns")));
    m.insert(
        "patterns.generated",
        ratio(
            c.generated as f64,
            t.get("patterns").map_or(0.0, |v| v.2 as f64),
        ),
    );
    m.insert("statistics.busy_us", per(own("statistics")));
    m.insert("server.busy_us", per(total("server")));
    m.insert("server.unexplained_share", unexplained);
    m.insert(
        "trace.overhead_share",
        ratio(total("pipeline"), entry_total) - 1.0,
    );
    m.insert(
        "input.executed_repeat_share",
        ratio(c.executed_repeats as f64, c.executed_sets as f64),
    );
    if c.disagreed > 0 {
        eprintln!(
            "perfbench: the staged pipeline disagreed with the entry point on {} of {} reports (failed)",
            c.disagreed, c.compared
        );
    }
    let reconciled = unexplained.abs() <= RECONCILE_TOLERANCE;
    if !reconciled {
        eprintln!(
            "perfbench: stage self times leave {:.1}% of the median request's {entry} total unexplained, beyond the {:.0}% tolerance: the run is invalid",
            unexplained * 100.0,
            RECONCILE_TOLERANCE * 100.0
        );
    }
    eprintln!(
        "perfbench: traced {n} requests; stages explain {:.1}% of the median request's {entry}; staged pipeline agreed on {}/{}",
        (1.0 - unexplained) * 100.0,
        c.compared - c.disagreed,
        c.compared
    );
    Checked {
        attempted: c.compared as u64,
        failed: c.disagreed as u64,
        reconciled,
    }
}

/// Queue wait: served latency minus the unloaded in-process time of the
/// same request.
fn wait(m: &mut Metrics, served_ms: &[f64], unloaded_ms: &[f64]) {
    let w: Vec<f64> = served_ms
        .iter()
        .zip(unloaded_ms)
        .map(|(s, u)| s - u)
        .collect();
    m.insert("daemon.wait_p50_ms", crate::stats::percentile(&w, 50.0));
    m.insert("daemon.wait_p90_ms", crate::stats::percentile(&w, 90.0));
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, ms(t.elapsed()))
}

pub fn diagnose_open(
    ctx: &Ctx,
    module: &Module,
    reports: &[Report],
    payloads: &[Vec<u8>],
    used: &[usize],
    served_ms: &[f64],
    m: &mut Metrics,
) -> Result<Checked, String> {
    let env = Env::new(module);
    let mut tr = Tracer::new();
    let mut c = Counts::default();
    let mut decisions = Decisions::default();
    let mut unloaded = Vec::new();
    let mut bytes = 0usize;
    let n = budgeted(ctx.seconds / 2.0, used.len(), |k| {
        let i = used[k];
        tr.request = k as u64;
        let r = &reports[i];
        bytes += payloads[i].len();
        let ok = tr.span("request", |tr| {
            let Ok(req) = tr.span("wire", |_| decode_diagnose_request_view(&payloads[i])) else {
                return false;
            };
            reconcile(
                tr,
                &env,
                &req.failure,
                &req.failing,
                &req.successful,
                &mut c,
            );
            true
        });
        if !ok {
            c.mismatch();
        }
        let (_, t) = decisions
            .count(|| timed(|| env.default.diagnose(&r.failure, &r.failing, &r.successful)));
        unloaded.push(t);
    });
    let mut checked = common(&tr, &c, &decisions, n, "server", m);
    m.insert("wire.bytes", ratio(bytes as f64, n as f64));
    wait(m, &served_ms[..n], &unloaded);
    let (attempted, failed) = fleet(ctx, &env, &mut tr, reports, used, m)?;
    checked.attempted += attempted;
    checked.failed += failed;
    tr.write(ctx, "diagnose-open");
    Ok(checked)
}

pub fn batch_shared(
    ctx: &Ctx,
    module: &Module,
    batches: &[Vec<Report>],
    payloads: &[Vec<u8>],
    used: &[usize],
    served_ms: &[f64],
    m: &mut Metrics,
) -> Checked {
    let env = Env::new(module);
    let mut tr = Tracer::new();
    let mut c = Counts::default();
    let mut decisions = Decisions::default();
    let mut unloaded = Vec::new();
    let (mut bytes, mut failed_jobs, mut dedup_hits, mut offered_repeats) =
        (0usize, 0usize, 0usize, 0usize);
    let (mut exact, mut lookups) = (0u64, 0u64);
    let single = BatchConfig {
        workers: 1,
        ..BatchConfig::default()
    };
    let n = budgeted(ctx.seconds, used.len(), |k| {
        let i = used[k];
        tr.request = k as u64;
        bytes += payloads[i].len();
        let jobs = jobs_of(&batches[i]);
        let snaps: Vec<_> = batches[i].iter().flat_map(Report::snapshots).collect();
        let distinct: HashSet<Vec<u8>> = snaps
            .iter()
            .map(|s| lazy_trace::encode_snapshot(s))
            .collect();
        offered_repeats += snaps.len() - distinct.len();
        tr.span("request", |tr| {
            let views = tr.span("wire", |_| decode_batch_request_views(&payloads[i]));
            tr.span("batch", |_| env.single.diagnose_batch(&jobs, &single));
            // One job per batch reconciles: every job runs the same
            // `diagnose` steps, and all eight would triple the replay.
            match views.ok().and_then(|v| v.into_iter().next()) {
                Some(job) => reconcile(
                    tr,
                    &env,
                    &job.failure,
                    &job.failing,
                    &job.successful,
                    &mut c,
                ),
                None => c.mismatch(),
            }
        });
        // The daemon's own batch configuration, unloaded: the queue-wait
        // reference, and the memo and cache counts production sees.
        let (out, t) = decisions
            .count(|| timed(|| env.default.diagnose_batch(&jobs, &BatchConfig::default())));
        unloaded.push(t);
        failed_jobs += out.stats.failed_jobs;
        dedup_hits += out.stats.snapshot_dedup_hits;
        exact += out.stats.cache.exact_hits;
        lookups += out.stats.cache.lookups;
    });
    tr.write(ctx, "batch-shared");
    let busy = tr.totals().get("batch").map_or(0.0, |v| v.0);
    m.insert("wire.bytes", ratio(bytes as f64, n as f64));
    m.insert("batch.busy_us", busy / n as f64);
    m.insert("batch.failed_jobs", failed_jobs as f64);
    m.insert(
        "batch.dedup_ratio",
        ratio(dedup_hits as f64, offered_repeats as f64),
    );
    m.insert(
        "batch.cache_exact_ratio",
        ratio(exact as f64, lookups as f64),
    );
    m.insert(
        "pointsto.cache_exact_ratio",
        ratio(exact as f64, lookups as f64),
    );
    wait(m, &served_ms[..n], &unloaded);
    common(&tr, &c, &decisions, n, "server", m)
}

pub fn stream_converge(
    ctx: &Ctx,
    module: &Module,
    sessions: &[Session],
    used: &[(usize, Vec<f64>)],
    m: &mut Metrics,
) -> Checked {
    let env = Env::new(module);
    let mut tr = Tracer::new();
    let mut c = Counts::default();
    let mut decisions = Decisions::default();
    let (mut folds, mut bytes, mut rejected, mut retained, mut early) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let (mut served, mut unloaded) = (Vec::new(), Vec::new());
    let n = budgeted(ctx.seconds, used.len(), |k| {
        let (i, submits_ms) = &used[k];
        let sess = &sessions[*i];
        tr.request = k as u64;
        let mut diag = StreamingDiagnoser::new(&env.single, &sess.failure);
        // The daemon's own configuration, unloaded: the queue-wait
        // reference, and the decoder decisions production sees.
        let mut unloaded_diag = StreamingDiagnoser::new(&env.default, &sess.failure);
        let (mut failing, mut successes): (Vec<ProcessedTrace>, Vec<ProcessedTrace>) =
            (Vec::new(), Vec::new());
        let mut last = (Vec::new(), HashSet::new());
        for (j, report) in sess.reports.iter().enumerate() {
            let payload = match report {
                StreamReport::Failing(s) => encode_stream_submit_failing(sess.id, &sess.failure, s),
                StreamReport::Success(s) => encode_stream_submit_success(sess.id, s),
            };
            bytes += payload.len();
            folds += 1;
            let (_, fold_ms) = decisions.count(|| timed(|| unloaded_diag.fold(report)));
            served.push(submits_ms.get(j).copied().unwrap_or(f64::NAN));
            unloaded.push(fold_ms);
            let converged = tr.span("request", |tr| {
                let _ = tr.span("wire", |_| decode_stream_submit_view(&payload));
                // Every other fold runs before its staged steps, as in
                // `reconcile`.
                let first =
                    (folds % 2 == 1).then(|| tr.span("streaming.fold", |_| diag.fold(report)));
                let view = snap_of(report).view();
                decoder_probe(tr, &env, &view, &mut c);
                // The fold's steps, stage by stage: process the new
                // snapshot, then rescore the retained corpus.
                tr.span("pipeline", |tr| {
                    if let Some(t) = process(tr, &env, &view) {
                        match report {
                            StreamReport::Failing(_) => failing.push(t),
                            StreamReport::Success(_) => successes.push(t),
                        }
                    }
                    if !failing.is_empty() {
                        let cap = env.cfg.success_factor * failing.len();
                        last = rescore(
                            tr,
                            &env,
                            &sess.failure,
                            &failing,
                            &successes[..successes.len().min(cap)],
                            &mut c,
                        );
                    }
                });
                first.unwrap_or_else(|| tr.span("streaming.fold", |_| diag.fold(report)))
            });
            if matches!(converged, Ok(true)) {
                break;
            }
        }
        let status = diag.status();
        retained += (status.failing + status.successes) as usize;
        let outcome = tr.span("streaming.finish", |_| diag.finish());
        c.executed(&last.1);
        match outcome {
            Ok(o) => {
                rejected += o.reports_rejected;
                early += usize::from(o.converged_early);
                c.compare(&last.0, &o.diagnosis.scores);
                let (f, s) = split(&sess.reports[..o.reports_consumed]);
                let _ = tr.span("server", |_| env.single.diagnose(&sess.failure, &f, &s));
            }
            Err(_) => c.mismatch(),
        }
    });
    tr.write(ctx, "stream-converge");
    let t = tr.totals();
    let total = |name: &str| t.get(name).map_or(0.0, |v| v.0);
    m.insert("wire.bytes", ratio(bytes as f64, folds as f64));
    m.insert(
        "streaming.fold_us",
        ratio(total("streaming.fold"), folds as f64),
    );
    m.insert(
        "streaming.rescore_us",
        ratio(
            total("streaming.fold") - t.get("processing").map_or(0.0, |v| v.1),
            folds as f64,
        ),
    );
    m.insert("streaming.finish_us", total("streaming.finish") / n as f64);
    m.insert("streaming.rejected", rejected as f64);
    m.insert(
        "streaming.retained_traces",
        ratio(retained as f64, n as f64),
    );
    m.insert("streaming.early_exit_share", ratio(early as f64, n as f64));
    wait(m, &served, &unloaded);
    // A session is a run of folds: the stages reconcile with their total,
    // and every stage metric is per fold.
    common(&tr, &c, &decisions, folds, "streaming.fold", m)
}

/// The fleet layer over diagnose-open's reports, one report at a time:
/// an in-process `FleetRouter` over two local shards, the three
/// `FleetShard` rounds called directly, and a `FleetRouter` over two
/// shard daemons, whose renders are checked against `diagnose`. Returns
/// the operations attempted and failed: each remote route, and each
/// report's direct shard rounds.
fn fleet(
    ctx: &Ctx,
    env: &Env<'_>,
    tr: &mut Tracer,
    reports: &[Report],
    used: &[usize],
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let module = env.module;
    let local = FleetRouter::in_process(module, ServerConfig::default(), 2);
    let shards = [
        FleetShard::new(module, env.cfg.clone()),
        FleetShard::new(module, env.cfg.clone()),
    ];
    let daemons = [
        Daemon::spawn(&ctx.snorlax, MYSQL)?,
        Daemon::spawn(&ctx.snorlax, MYSQL)?,
    ];
    for d in &daemons {
        d.wait_ready()?;
    }
    let conns = daemons
        .iter()
        .map(|d| d.connect().map(ShardConn::Remote))
        .collect::<Result<Vec<_>, _>>()?;
    let remote = FleetRouter::new(module, ServerConfig::default(), conns);
    let (mut overhead, mut failed_shards) = (Vec::new(), 0usize);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let n = budgeted(ctx.seconds / 2.0, used.len(), |k| {
        let r = &reports[used[k]];
        tr.request = (used.len() + k) as u64;
        let fleet = FleetReport {
            failure: r.failure.clone(),
            failing: r.failing.clone(),
            successful: r.successful.clone(),
        };
        tr.span("request", |tr| {
            let (_, local_ms) = tr.span("fleet.route", |_| timed(|| local.route(&fleet)));
            let (routed, remote_ms) = tr.span("fleet.remote", |_| timed(|| remote.route(&fleet)));
            overhead.push(remote_ms - local_ms);
            // Fleet renders must equal single-node, with every shard up.
            attempted += 1;
            let single = env
                .single
                .diagnose(&r.failure, &r.failing, &r.successful)
                .map(|d| d.render(module));
            match (routed, single) {
                (Ok(o), Ok(want))
                    if o.failed_shards() == 0 && o.diagnosis.render(module) == want => {}
                (Ok(o), _) => {
                    failed_shards += o.failed_shards();
                    failed += 1;
                    eprintln!(
                        "perfbench: remote route {k} differs from single-node ({} shards failed)",
                        o.failed_shards()
                    );
                }
                (Err(e), _) => {
                    failed += 1;
                    eprintln!("perfbench: remote route {k} failed: {e}");
                }
            }
            // The three shard rounds, called directly: round-robin
            // partition, executed union, pattern union, merged stats.
            let session = k as u64 + 1;
            let cap = env.cfg.success_factor * r.failing.len().max(1);
            let part =
                |of: &[lazy_trace::TraceSnapshot], s: usize| -> Vec<lazy_trace::TraceSnapshot> {
                    of.iter().skip(s).step_by(shards.len()).cloned().collect()
                };
            let successful = &r.successful[..r.successful.len().min(cap)];
            let mut failed_rounds = 0usize;
            let mut executed = BTreeSet::new();
            for (s, shard) in shards.iter().enumerate() {
                match tr.span("fleet.collect", |_| {
                    shard.collect(
                        session,
                        &r.failure,
                        &part(&r.failing, s),
                        &part(successful, s),
                    )
                }) {
                    Ok(reply) => executed.extend(reply.executed),
                    Err(_) => failed_rounds += 1,
                }
            }
            let executed: Vec<Pc> = executed.into_iter().collect();
            let mut patterns = BTreeSet::new();
            for shard in &shards {
                match tr.span("fleet.patterns", |_| shard.patterns(session, &executed)) {
                    Ok(reply) => patterns.extend(reply.patterns),
                    Err(_) => failed_rounds += 1,
                }
            }
            let patterns: Vec<BugPattern> = patterns.into_iter().collect();
            let mut partials = Vec::new();
            for shard in &shards {
                match tr.span("fleet.finalize", |_| shard.finalize(session, &patterns)) {
                    Ok(reply) => partials.push(reply.stats),
                    Err(_) => failed_rounds += 1,
                }
            }
            tr.span("statistics.merge", |_| {
                let mut merged = PatternStats::empty();
                for p in &partials {
                    merged.merge(p);
                }
                merged.finalize()
            });
            attempted += 1;
            if failed_rounds > 0 {
                failed += 1;
                eprintln!("perfbench: {failed_rounds} direct shard rounds of report {k} failed");
            }
        });
    });
    let cache = remote
        .shard_stats()
        .into_iter()
        .try_fold((0u64, 0u64), |(h, l), s| {
            s.map(|s| (h + s.cache_exact_hits, l + s.cache_lookups))
                .map_err(|e| e.to_string())
        })?;
    drop(remote);
    for d in daemons {
        d.shutdown()?;
    }
    let t = tr.totals();
    let per = |name: &str| t.get(name).map_or(0.0, |v| v.0) / n as f64;
    m.insert("fleet.route_us", per("fleet.route"));
    m.insert("fleet.collect_us", per("fleet.collect"));
    m.insert("fleet.patterns_us", per("fleet.patterns"));
    m.insert("fleet.finalize_us", per("fleet.finalize"));
    m.insert("statistics.merge_us", per("statistics.merge"));
    m.insert("fleet.wire_overhead_ms", median(&overhead));
    m.insert("fleet.failed_shards", failed_shards as f64);
    m.insert(
        "fleet.cache_exact_ratio",
        ratio(cache.0 as f64, cache.1 as f64),
    );
    Ok((attempted, failed))
}
