//! Client side of the `snorlaxd` protocol.
//!
//! A [`RemoteClient`] plays the production endpoint of the paper's
//! deployment model: it holds one TCP connection to a
//! [`serve`](crate::daemon::serve)-ing daemon and submits failure
//! reports — single or batched — receiving the server's rendered
//! diagnosis reports back. Framing, payload encoding and the typed
//! error mapping live in [`crate::daemon`]; this module owns only the
//! connection and the request/response choreography.
//!
//! Server-side rejections come back typed: an `Error` frame (or a
//! failed batch job) surfaces as [`DiagnosisError::Remote`] carrying
//! the server's error text, a `Busy` frame as a `Remote` error naming
//! the admission rejection, and transport failures as
//! [`DiagnosisError::Frame`].

use crate::batch::BatchJob;
use crate::daemon::{
    decode_batch_report, encode_batch_request, encode_diagnose_request, encode_frame, read_frame,
    FrameError, FrameKind,
};
use crate::error::DiagnosisError;
use crate::fleet::{
    decode_collect_reply, decode_finalize_reply, decode_patterns_reply, decode_shard_stats,
    encode_fleet_collect, encode_fleet_finalize, encode_fleet_patterns, encode_fleet_stats,
    CollectReply, FinalizeReply, PatternsReply, ShardStats,
};
use crate::patterns::BugPattern;
use crate::streaming::{
    decode_stream_finish_reply, decode_stream_status, encode_stream_session,
    encode_stream_submit_failing, encode_stream_submit_success, StreamFinishReply, StreamStatus,
};
use lazy_ir::Pc;
use lazy_trace::TraceSnapshot;
use lazy_vm::Failure;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

fn io_err(e: &std::io::Error) -> DiagnosisError {
    DiagnosisError::Frame(FrameError::Io(e.to_string()))
}

/// One connection to a running `snorlaxd`.
pub struct RemoteClient {
    stream: TcpStream,
}

impl RemoteClient {
    /// Connects to a daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`DiagnosisError::Frame`] if the TCP connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<RemoteClient, DiagnosisError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err(&e))?;
        let _ = stream.set_nodelay(true);
        Ok(RemoteClient { stream })
    }

    /// Sends raw bytes down the connection and reads one response
    /// frame. This is the fault-injection door: integration tests mangle
    /// an encoded frame and prove the daemon answers a typed error
    /// while the connection survives.
    ///
    /// # Errors
    ///
    /// Returns [`DiagnosisError::Frame`] on transport failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(FrameKind, Vec<u8>), DiagnosisError> {
        self.stream.write_all(bytes).map_err(|e| io_err(&e))?;
        read_frame(&mut self.stream).map_err(DiagnosisError::Frame)
    }

    fn roundtrip(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<(FrameKind, Vec<u8>), DiagnosisError> {
        self.send_raw(&encode_frame(kind, payload))
    }

    fn reject((kind, payload): (FrameKind, Vec<u8>)) -> DiagnosisError {
        match kind {
            FrameKind::Error => DiagnosisError::Remote {
                detail: String::from_utf8_lossy(&payload).into_owned(),
            },
            FrameKind::Busy => DiagnosisError::Remote {
                detail: "server busy: admission queue full, retry later".to_string(),
            },
            other => DiagnosisError::Remote {
                detail: format!("unexpected response frame {other:?}"),
            },
        }
    }

    fn text(payload: Vec<u8>) -> Result<String, DiagnosisError> {
        String::from_utf8(payload)
            .map_err(|_| DiagnosisError::Frame(FrameError::BadPayload("report utf-8")))
    }

    /// Submits one failure report; returns the server's rendered
    /// diagnosis report.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the server rejects or fails the
    /// request, [`DiagnosisError::Frame`] on transport failure.
    pub fn diagnose(
        &mut self,
        failure: &Failure,
        failing: &[TraceSnapshot],
        successful: &[TraceSnapshot],
    ) -> Result<String, DiagnosisError> {
        let payload = encode_diagnose_request(failure, failing, successful);
        match self.roundtrip(FrameKind::Diagnose, &payload)? {
            (FrameKind::Report, p) => Self::text(p),
            other => Err(Self::reject(other)),
        }
    }

    /// [`RemoteClient::diagnose`] with admission-rejection retries: a
    /// `Busy` reply backs off (linearly: `backoff`, 2×`backoff`, …) and
    /// resubmits, up to `attempts` total tries. Every other outcome —
    /// success, typed server error, transport failure — passes straight
    /// through. Returns the retries spent alongside the report so
    /// callers (the contention bench) can account for them.
    ///
    /// # Errors
    ///
    /// The final [`DiagnosisError::Remote`] busy rejection once
    /// `attempts` is exhausted; otherwise as [`RemoteClient::diagnose`].
    pub fn diagnose_retrying(
        &mut self,
        failure: &Failure,
        failing: &[TraceSnapshot],
        successful: &[TraceSnapshot],
        attempts: usize,
        backoff: std::time::Duration,
    ) -> Result<(String, usize), DiagnosisError> {
        let mut retries = 0usize;
        loop {
            match self.diagnose(failure, failing, successful) {
                Ok(report) => return Ok((report, retries)),
                Err(DiagnosisError::Remote { detail })
                    if detail.contains("busy") && retries + 1 < attempts.max(1) =>
                {
                    retries += 1;
                    std::thread::sleep(backoff.saturating_mul(retries as u32));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits a batch of failure reports; returns per-job results in
    /// job order — the rendered report, or the job's server-side error
    /// as [`DiagnosisError::Remote`].
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the whole batch is rejected,
    /// [`DiagnosisError::Frame`] on transport failure.
    pub fn diagnose_batch(
        &mut self,
        jobs: &[BatchJob<'_>],
    ) -> Result<Vec<Result<String, DiagnosisError>>, DiagnosisError> {
        let payload = encode_batch_request(jobs);
        match self.roundtrip(FrameKind::Batch, &payload)? {
            (FrameKind::BatchReport, p) => decode_batch_report(&p).map_err(DiagnosisError::Frame),
            other => Err(Self::reject(other)),
        }
    }

    /// Fleet round 1: opens shard session `session` on this daemon with
    /// the routed trace partition; returns the shard's executed set.
    /// `module_fp` is the router's module fingerprint
    /// ([`lazy_ir::Module::fingerprint`]), which the shard checks before
    /// it decodes anything.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the shard rejects or fails the
    /// round (a module mismatch included), [`DiagnosisError::Frame`] on
    /// transport failure.
    pub fn fleet_collect(
        &mut self,
        session: u64,
        module_fp: u64,
        failure: &Failure,
        failing: &[TraceSnapshot],
        successful: &[TraceSnapshot],
    ) -> Result<CollectReply, DiagnosisError> {
        let payload = encode_fleet_collect(session, module_fp, failure, failing, successful);
        match self.roundtrip(FrameKind::FleetCollect, &payload)? {
            (FrameKind::FleetCollectAck, p) => {
                decode_collect_reply(&p).map_err(DiagnosisError::Frame)
            }
            other => Err(Self::reject(other)),
        }
    }

    /// Fleet round 2: broadcasts the merged global executed set;
    /// returns the shard's locally generated pattern set.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the shard rejects or fails the
    /// round, [`DiagnosisError::Frame`] on transport failure.
    pub fn fleet_patterns(
        &mut self,
        session: u64,
        executed: &[Pc],
    ) -> Result<PatternsReply, DiagnosisError> {
        let payload = encode_fleet_patterns(session, executed);
        match self.roundtrip(FrameKind::FleetPatterns, &payload)? {
            (FrameKind::FleetPatternSet, p) => {
                decode_patterns_reply(&p).map_err(DiagnosisError::Frame)
            }
            other => Err(Self::reject(other)),
        }
    }

    /// Fleet round 3: broadcasts the merged global pattern set; returns
    /// the shard's partial statistics and closes the session.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the shard rejects or fails the
    /// round, [`DiagnosisError::Frame`] on transport failure.
    pub fn fleet_finalize(
        &mut self,
        session: u64,
        patterns: &[BugPattern],
    ) -> Result<FinalizeReply, DiagnosisError> {
        let payload = encode_fleet_finalize(session, patterns);
        match self.roundtrip(FrameKind::FleetFinalize, &payload)? {
            (FrameKind::PartialStats, p) => {
                decode_finalize_reply(&p).map_err(DiagnosisError::Frame)
            }
            other => Err(Self::reject(other)),
        }
    }

    /// Probes the shard's session-lifecycle and warm-cache counters.
    /// Side effect by protocol: the daemon runs its idle-session sweep
    /// before answering, so the reported numbers are post-eviction.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the daemon rejects the probe,
    /// [`DiagnosisError::Frame`] on transport failure.
    pub fn fleet_stats(&mut self) -> Result<ShardStats, DiagnosisError> {
        let payload = encode_fleet_stats();
        match self.roundtrip(FrameKind::FleetStats, &payload)? {
            (FrameKind::FleetStatsAck, p) => decode_shard_stats(&p).map_err(DiagnosisError::Frame),
            other => Err(Self::reject(other)),
        }
    }

    /// Streaming: folds one failing report into stream `session` on the
    /// daemon (opening the session on first use); returns the session's
    /// status after the fold.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the server rejects or fails the
    /// fold, [`DiagnosisError::Frame`] on transport failure.
    pub fn stream_submit_failing(
        &mut self,
        session: u64,
        failure: &Failure,
        snap: &TraceSnapshot,
    ) -> Result<StreamStatus, DiagnosisError> {
        let payload = encode_stream_submit_failing(session, failure, snap);
        match self.roundtrip(FrameKind::StreamSubmit, &payload)? {
            (FrameKind::StreamSubmitAck, p) => {
                decode_stream_status(&p).map_err(DiagnosisError::Frame)
            }
            other => Err(Self::reject(other)),
        }
    }

    /// Streaming: folds one success report into stream `session` on the
    /// daemon (opening the session on first use); returns the session's
    /// status after the fold.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] when the server rejects or fails the
    /// fold, [`DiagnosisError::Frame`] on transport failure.
    pub fn stream_submit_success(
        &mut self,
        session: u64,
        snap: &TraceSnapshot,
    ) -> Result<StreamStatus, DiagnosisError> {
        let payload = encode_stream_submit_success(session, snap);
        match self.roundtrip(FrameKind::StreamSubmit, &payload)? {
            (FrameKind::StreamSubmitAck, p) => {
                decode_stream_status(&p).map_err(DiagnosisError::Frame)
            }
            other => Err(Self::reject(other)),
        }
    }

    /// Streaming: asks stream `session` "converged yet?".
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] for an unknown session,
    /// [`DiagnosisError::Frame`] on transport failure.
    pub fn stream_status(&mut self, session: u64) -> Result<StreamStatus, DiagnosisError> {
        let payload = encode_stream_session(session);
        match self.roundtrip(FrameKind::StreamStatus, &payload)? {
            (FrameKind::StreamStatusReply, p) => {
                decode_stream_status(&p).map_err(DiagnosisError::Frame)
            }
            other => Err(Self::reject(other)),
        }
    }

    /// Streaming: finalizes and closes stream `session`, returning its
    /// outcome summary plus the rendered diagnosis report.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] for an unknown session or a session
    /// that never received a decodable failing report,
    /// [`DiagnosisError::Frame`] on transport failure.
    pub fn stream_finish(&mut self, session: u64) -> Result<StreamFinishReply, DiagnosisError> {
        let payload = encode_stream_session(session);
        match self.roundtrip(FrameKind::StreamFinish, &payload)? {
            (FrameKind::StreamFinishAck, p) => {
                decode_stream_finish_reply(&p).map_err(DiagnosisError::Frame)
            }
            other => Err(Self::reject(other)),
        }
    }

    /// Probes the daemon; returns its status line.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] on rejection, [`DiagnosisError::Frame`]
    /// on transport failure.
    pub fn health(&mut self) -> Result<String, DiagnosisError> {
        match self.roundtrip(FrameKind::Health, b"")? {
            (FrameKind::HealthOk, p) => Self::text(p),
            other => Err(Self::reject(other)),
        }
    }

    /// Asks the daemon to drain and stop. Blocks until the daemon acks
    /// — by protocol, only after every queued and in-flight job has
    /// completed.
    ///
    /// # Errors
    ///
    /// [`DiagnosisError::Remote`] on rejection, [`DiagnosisError::Frame`]
    /// on transport failure.
    pub fn shutdown(&mut self) -> Result<(), DiagnosisError> {
        match self.roundtrip(FrameKind::Shutdown, b"")? {
            (FrameKind::ShutdownAck, _) => Ok(()),
            other => Err(Self::reject(other)),
        }
    }
}
