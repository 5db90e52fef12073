#![warn(missing_docs)]
// Panic-freedom policy: pipeline code must surface typed errors, never
// unwrap its way past them. Tests keep the ergonomic forms.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lazy-snorlax — Lazy Diagnosis of in-production concurrency bugs
//!
//! The paper's primary contribution (SOSP 2017): a hybrid dynamic-static
//! root-cause diagnosis pipeline that binds cheap, coarse control-flow +
//! timing traces (collected continuously in production by Intel-PT-style
//! hardware) to an interprocedural points-to and type analysis run
//! lazily on a server. The pipeline follows Figure 2 of the paper:
//!
//! 1. a failure (crash/deadlock/assert) triggers a trace snapshot on the
//!    client ([`lazy_vm`] + [`lazy_trace`] in this reproduction);
//! 2. **trace processing** ([`processing`]) identifies executed
//!    instructions and builds a partially-ordered dynamic instruction
//!    trace from the coarse timing packets;
//! 3. **hybrid points-to analysis** ([`lazy_analysis::andersen`] scoped
//!    to executed code) maps the failing operand to candidate
//!    instructions ([`candidates`]);
//! 4. **type-based ranking** ([`lazy_analysis::ranking`]) prioritizes
//!    candidates whose operand types match the failing operand;
//! 5. **bug-pattern computation** ([`patterns`]) generates deadlock,
//!    order-violation, and single-variable atomicity-violation patterns
//!    with partial flow sensitivity (executes-before from timing);
//! 6. **statistical diagnosis** ([`statistics`]) scores each pattern's
//!    F1 over the failing trace plus up to 10× successful traces
//!    collected at the failure PC (with predecessor-block fallback), and
//!    the top-scoring pattern is reported as the root cause.
//!
//! The [`server::DiagnosisServer`] orchestrates steps 2–7 (and
//! [`batch`] fans many failure reports across worker threads behind a
//! shared incremental points-to cache);
//! [`client::CollectionClient`] plays the production fleet, re-running
//! the workload to harvest failing and successful snapshots; and
//! [`accuracy`] computes the paper's ordering-accuracy metric A_O
//! (normalized Kendall tau) against VM ground truth.
//!
//! When the coarse interleaving hypothesis does not hold for a bug (the
//! target events' time windows overlap), the pipeline does not guess:
//! it reports the target events *without* ordering (§7), which is
//! surfaced as [`patterns::BugPattern::UnorderedTargets`].

pub mod accuracy;
pub mod batch;
pub mod candidates;
pub mod client;
pub mod daemon;
pub mod error;
pub mod fleet;
pub mod multivar;
pub mod patterns;
pub mod processing;
pub mod reactor;
pub mod remote;
pub mod server;
mod session;
pub mod statistics;
pub mod streaming;

pub use accuracy::{kendall_tau_distance, ordering_accuracy};
pub use batch::{BatchConfig, BatchJob, BatchJobView, BatchOutcome, BatchStats};
pub use candidates::{select_candidates, CandidateSet};
pub use client::{CollectionClient, CollectionOutcome};
pub use daemon::{serve, DaemonConfig, DaemonStats, FrameError, FrameKind};
pub use error::DiagnosisError;
pub use fleet::{
    BugKey, FleetOutcome, FleetReport, FleetRouter, FleetShard, ShardConn, ShardReport, ShardStats,
};
pub use multivar::multivar_patterns;
pub use patterns::{AtomKind, BugPattern, DeadlockEdge, PatternEvent};
pub use processing::{process_snapshot, DynInstance, ProcessedTrace};
pub use remote::RemoteClient;
pub use server::{Diagnosis, DiagnosisServer, PipelineStats, ServerConfig};
pub use statistics::{score_patterns, PatternScore, PatternStats, DEFAULT_TYPE_RANK};
pub use streaming::{
    event_time_margin, hoeffding_lead_bound, interleave_reports, next_stream_session, Reservoir,
    SequentialRule, StreamHub, StreamReport, StreamStatus, StreamingDiagnoser, StreamingOutcome,
};
