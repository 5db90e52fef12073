//! `snorlaxd` — the diagnosis daemon.
//!
//! The paper's deployment model is client-server: production endpoints
//! ship trace snapshots to an offline diagnosis site (§3, §5). This
//! module is that site's front door — a std-only TCP daemon (threads +
//! [`TcpListener`], zero dependencies, like the rest of the repo) that
//! serves [`DiagnosisServer`] over a length-prefixed framed protocol
//! wrapping the existing checksummed snapshot wire format
//! (`lazy_trace::wire`).
//!
//! ## Frame layout
//!
//! Every message in either direction is one frame (integers
//! little-endian):
//!
//! ```text
//! magic "SNRF" | kind u8 | payload_len u32 | payload | fnv1a32
//! ```
//!
//! where the trailing checksum covers everything before it. The
//! declared length is clamped against [`MAX_FRAME_PAYLOAD`] *before*
//! any allocation — the same clamp-before-allocate hardening the
//! snapshot wire format applies to its attacker-controlled lengths.
//! Request payloads (`Diagnose`, `Batch`) embed snapshots in their
//! `LZTR` wire form, so a snapshot corrupted in transit is caught by
//! its own checksum even when the frame around it survives.
//!
//! ## Robustness contract
//!
//! * **Backpressure** — admission is a bounded queue
//!   ([`DaemonConfig::queue_depth`]); a request that would exceed it is
//!   rejected immediately with a typed [`FrameKind::Busy`] response,
//!   never queued unboundedly. The connection count is bounded the same
//!   way ([`DaemonConfig::max_connections`]).
//! * **Deadlines** — each admitted request has
//!   [`DaemonConfig::request_timeout`] to complete; past it the client
//!   gets a typed error response and the worker's eventual result is
//!   discarded.
//! * **Error isolation** — a frame whose checksum fails is consumed in
//!   full (the stream stays in sync), answered with an error response,
//!   and the connection *continues*; a request whose inner snapshot is
//!   corrupt fails with that request's typed error alone. Only frames
//!   that desynchronize the stream (bad magic, truncation, oversized
//!   length) close the connection — and only that connection.
//! * **Graceful drain** — a `Shutdown` frame stops admission, lets
//!   queued and in-flight jobs finish, and acks only once the daemon is
//!   idle; [`serve`] then returns.

use crate::batch::{BatchConfig, BatchJob, BatchJobView};
use crate::error::DiagnosisError;
use crate::fleet::{
    decode_fleet_collect_view, decode_fleet_finalize, decode_fleet_patterns, decode_fleet_stats,
    encode_collect_reply, encode_finalize_reply, encode_patterns_reply, encode_shard_stats,
    FleetShard,
};
use crate::reactor;
use crate::server::{DiagnosisServer, ServerConfig};
use crate::streaming::{
    decode_stream_session, decode_stream_submit_view, encode_stream_finish_reply,
    encode_stream_status, StreamFinishReply, StreamHub, StreamSubmitView,
};
use lazy_ir::{Module, Pc};
use lazy_trace::wire::{fnv1a32, fnv1a32_with};
use lazy_trace::{
    core_count, decode_snapshot_view, encode_snapshot, BusyMark, SnapshotView, TraceSnapshot,
};
use lazy_vm::{DeadlockParty, Failure, FailureKind};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Leading bytes of every frame.
pub const FRAME_MAGIC: &[u8; 4] = b"SNRF";

/// Hard cap on a frame's declared payload length; anything larger is
/// rejected before a single byte of it is allocated or read.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// magic + kind + payload_len.
const HEADER_LEN: usize = 4 + 1 + 4;

/// Frame discriminants. Requests are low, responses high, so a peer
/// echoing a request back is caught as a protocol error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Request: diagnose one failure report.
    Diagnose = 0,
    /// Request: diagnose a batch of failure reports.
    Batch = 1,
    /// Request: liveness / load probe.
    Health = 2,
    /// Request: drain in-flight work, then stop serving.
    Shutdown = 3,
    /// Request (fleet round 1): open a shard session — decode this
    /// shard's trace partition, report its executed set.
    FleetCollect = 4,
    /// Request (fleet round 2): the merged global executed set; the
    /// shard computes candidates against it and generates patterns from
    /// its local failing traces.
    FleetPatterns = 5,
    /// Request (fleet round 3): the merged global pattern set; the
    /// shard returns its partial sufficient statistics and closes the
    /// session.
    FleetFinalize = 6,
    /// Request (streaming): fold one report (failing or success) into a
    /// stream session's incremental statistics.
    StreamSubmit = 7,
    /// Request (streaming): probe a stream session — "converged yet?".
    StreamStatus = 8,
    /// Request (streaming): close a stream session and return its final
    /// diagnosis.
    StreamFinish = 9,
    /// Request (fleet): the shard's lifecycle and warm-cache counters —
    /// how `snorlax fleet route` proves remote shards stayed warm.
    FleetStats = 10,
    /// Response: the rendered diagnosis report (UTF-8).
    Report = 16,
    /// Response: per-job reports for a batch request.
    BatchReport = 17,
    /// Response: this request failed; payload is the error text.
    Error = 18,
    /// Response: rejected by admission control; retry later.
    Busy = 19,
    /// Response: health probe answer (UTF-8 status line).
    HealthOk = 20,
    /// Response: drain complete, the daemon is exiting.
    ShutdownAck = 21,
    /// Response to [`FrameKind::FleetCollect`]: the shard's executed
    /// set and decode-health sums.
    FleetCollectAck = 22,
    /// Response to [`FrameKind::FleetPatterns`]: the shard's locally
    /// generated pattern set plus candidate statistics.
    FleetPatternSet = 23,
    /// Response to [`FrameKind::FleetFinalize`]: the shard's serialized
    /// partial [`crate::statistics::PatternStats`] and event times.
    PartialStats = 24,
    /// Response to [`FrameKind::StreamSubmit`]: the session's status
    /// after the fold.
    StreamSubmitAck = 25,
    /// Response to [`FrameKind::StreamStatus`]: the session's current
    /// status.
    StreamStatusReply = 26,
    /// Response to [`FrameKind::StreamFinish`]: the session's final
    /// outcome and rendered report.
    StreamFinishAck = 27,
    /// Response to [`FrameKind::FleetStats`]: the serialized
    /// [`crate::fleet::ShardStats`].
    FleetStatsAck = 28,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<FrameKind, FrameError> {
        Ok(match b {
            0 => FrameKind::Diagnose,
            1 => FrameKind::Batch,
            2 => FrameKind::Health,
            3 => FrameKind::Shutdown,
            4 => FrameKind::FleetCollect,
            5 => FrameKind::FleetPatterns,
            6 => FrameKind::FleetFinalize,
            7 => FrameKind::StreamSubmit,
            8 => FrameKind::StreamStatus,
            9 => FrameKind::StreamFinish,
            10 => FrameKind::FleetStats,
            16 => FrameKind::Report,
            17 => FrameKind::BatchReport,
            18 => FrameKind::Error,
            19 => FrameKind::Busy,
            20 => FrameKind::HealthOk,
            21 => FrameKind::ShutdownAck,
            22 => FrameKind::FleetCollectAck,
            23 => FrameKind::FleetPatternSet,
            24 => FrameKind::PartialStats,
            25 => FrameKind::StreamSubmitAck,
            26 => FrameKind::StreamStatusReply,
            27 => FrameKind::StreamFinishAck,
            28 => FrameKind::FleetStatsAck,
            other => return Err(FrameError::BadKind(other)),
        })
    }
}

/// A failure of the framed transport layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not begin with the frame magic.
    BadMagic,
    /// The frame kind discriminant is unknown (frame fully consumed —
    /// the stream is still in sync).
    BadKind(u8),
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    TooLarge(u32),
    /// The stream ended mid-frame.
    Truncated,
    /// The frame checksum does not match (frame fully consumed — the
    /// stream is still in sync).
    BadChecksum,
    /// A request or response payload is structurally malformed.
    BadPayload(&'static str),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// A read deadline elapsed at a frame boundary.
    TimedOut,
    /// Socket I/O failed.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not a snorlaxd frame (bad magic)"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "socket i/o failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn io_error(e: &std::io::Error) -> FrameError {
    match e.kind() {
        ErrorKind::UnexpectedEof => FrameError::Truncated,
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e.to_string()),
    }
}

/// Encodes one frame: header, payload, trailing checksum.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(FRAME_MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a32(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Fills `buf` completely, treating a read timeout as a *wait* rather
/// than a failure: the caller is mid-frame, so bytes already consumed
/// stay consumed and the read simply resumes. Only a true EOF
/// ([`FrameError::Truncated`]) or a hard I/O error aborts.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            // Mid-frame, a timeout must not desynchronize the stream:
            // the header bytes read so far would be lost and the next
            // read_frame would land mid-frame and report BadMagic.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(io_error(&e)),
        }
    }
    Ok(())
}

/// Reads one frame, validating checksum before interpreting the kind —
/// so recoverable rejections ([`FrameError::BadChecksum`],
/// [`FrameError::BadKind`]) always leave the stream positioned at the
/// next frame boundary.
///
/// A read timeout is only reported at a frame *boundary* (before the
/// first byte); once a frame has started, timeouts resume the read,
/// because a slow writer mid-frame is a wait, not a protocol error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // The first byte read distinguishes a clean close (EOF at a frame
    // boundary) and an idle-poll timeout from mid-frame truncation.
    match r.read(&mut header[..1]) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => {}
        Err(e) => return Err(io_error(&e)),
    }
    read_full(r, &mut header[1..])?;
    if &header[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let declared = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    let len = declared as usize;
    // Clamp before the payload Vec exists: a corrupt length field must
    // not drive a giant allocation.
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::TooLarge(declared));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload)?;
    let mut trailer = [0u8; 4];
    read_full(r, &mut trailer)?;
    let expect = u32::from_le_bytes(trailer);
    if fnv1a32_with(fnv1a32(&header), &payload) != expect {
        return Err(FrameError::BadChecksum);
    }
    let kind = FrameKind::from_u8(header[4])?;
    Ok((kind, payload))
}

/// Writes one frame.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(kind, payload))
        .map_err(|e| io_error(&e))
}

// ---------------------------------------------------------------------
// Streaming frame assembly.

/// How many bytes one readiness event reads per `read(2)` call.
const READ_CHUNK: usize = 64 << 10;

/// Largest single read when a frame's total size is already known.
const READ_MAX: usize = 4 << 20;

/// An owned frame payload carved out of a connection's read buffer.
///
/// When a frame arrives alone (the common case), the assembler hands
/// its entire buffer over instead of copying the payload out — request
/// decoding then borrows [`SnapshotView`]s straight from these bytes,
/// so trace payloads are copied zero times between socket and decoder.
pub(crate) struct FrameBytes {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBytes {
    fn from_vec(buf: Vec<u8>) -> FrameBytes {
        FrameBytes {
            start: 0,
            end: buf.len(),
            buf,
        }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

/// What [`FrameAssembler::next_frame`] found at the current parse
/// position.
enum FrameStatus {
    /// A partial frame: keep the bytes, wait for more. Explicitly *not*
    /// an error — a timeout mid-frame is a wait, never a desync.
    NeedMore,
    /// One whole, checksum-valid frame.
    Frame {
        kind: FrameKind,
        payload: FrameBytes,
    },
    /// The frame was consumed in full but rejected
    /// ([`FrameError::BadChecksum`] / [`FrameError::BadKind`]); the
    /// stream is still in sync at the next frame boundary.
    Recoverable(FrameError),
    /// The stream position is no longer trustworthy
    /// ([`FrameError::BadMagic`] / [`FrameError::TooLarge`]).
    Fatal(FrameError),
}

/// Incremental frame parser: feeds on whatever bytes the socket has,
/// retains partial frames across readiness events, and yields whole
/// frames without re-scanning consumed input.
struct FrameAssembler {
    /// Raw bytes; `pos..` is unconsumed.
    buf: Vec<u8>,
    /// Parse offset of the next frame boundary.
    pos: usize,
    /// Total size of the frame being assembled once its header is
    /// known; sizes the next read so big frames don't arrive in
    /// `READ_CHUNK` nibbles.
    want: usize,
}

impl FrameAssembler {
    fn new() -> FrameAssembler {
        FrameAssembler {
            buf: Vec::new(),
            pos: 0,
            want: 0,
        }
    }

    /// Bytes held beyond the last consumed frame boundary.
    fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when a frame is mid-assembly (or pipelined bytes wait).
    fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= READ_CHUNK {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Appends one `read(2)`'s worth of bytes from `r`. Returns the
    /// raw read result; `Ok(0)` is EOF.
    fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.compact();
        let chunk = self
            .want
            .saturating_sub(self.pending_bytes())
            .clamp(READ_CHUNK, READ_MAX);
        let old = self.buf.len();
        self.buf.resize(old + chunk, 0);
        let res = r.read(&mut self.buf[old..]);
        let n = *res.as_ref().unwrap_or(&0);
        self.buf.truncate(old + n);
        res
    }

    /// Parses the next frame out of the buffered bytes.
    fn next_frame(&mut self) -> FrameStatus {
        self.want = 0;
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            // Garbage is detected from the very first byte; a true
            // magic prefix waits for the rest of the header.
            if !FRAME_MAGIC.starts_with(avail) {
                return FrameStatus::Fatal(FrameError::BadMagic);
            }
            return FrameStatus::NeedMore;
        }
        if &avail[..4] != FRAME_MAGIC {
            return FrameStatus::Fatal(FrameError::BadMagic);
        }
        if avail.len() < HEADER_LEN {
            return FrameStatus::NeedMore;
        }
        let declared = u32::from_le_bytes([avail[5], avail[6], avail[7], avail[8]]);
        let len = declared as usize;
        // Clamp before the buffer ever grows toward it: a corrupt
        // length field must not drive a giant allocation.
        if len > MAX_FRAME_PAYLOAD {
            return FrameStatus::Fatal(FrameError::TooLarge(declared));
        }
        let total = HEADER_LEN + len + 4;
        if avail.len() < total {
            self.want = total;
            return FrameStatus::NeedMore;
        }
        let expect = u32::from_le_bytes([
            avail[HEADER_LEN + len],
            avail[HEADER_LEN + len + 1],
            avail[HEADER_LEN + len + 2],
            avail[HEADER_LEN + len + 3],
        ]);
        // Checksum before kind: a recoverable rejection must consume
        // the whole frame either way, and corruption is the likelier
        // cause of a weird kind byte.
        if fnv1a32(&avail[..HEADER_LEN + len]) != expect {
            self.pos += total;
            return FrameStatus::Recoverable(FrameError::BadChecksum);
        }
        let kind = match FrameKind::from_u8(avail[4]) {
            Ok(kind) => kind,
            Err(e) => {
                self.pos += total;
                return FrameStatus::Recoverable(e);
            }
        };
        let payload = if self.pos == 0 && self.buf.len() == total {
            // The frame is alone in the buffer: hand the whole buffer
            // over (zero-copy) instead of copying the payload out.
            let buf = std::mem::take(&mut self.buf);
            FrameBytes {
                buf,
                start: HEADER_LEN,
                end: HEADER_LEN + len,
            }
        } else {
            // Pipelined frames share the buffer; this one is copied
            // out so the remainder keeps assembling in place.
            let start = self.pos + HEADER_LEN;
            let body = self.buf[start..start + len].to_vec();
            self.pos += total;
            FrameBytes::from_vec(body)
        };
        FrameStatus::Frame { kind, payload }
    }
}

// ---------------------------------------------------------------------
// Request/response payload codec.

/// A bounds-checked reader over one request or reply payload: every
/// read returns a typed [`FrameError`] instead of running past the end.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// A payload must end where its last field does.
    pub(crate) fn done(&self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::BadPayload("trailing bytes"));
        }
        Ok(())
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        // Declared lengths are attacker-controlled: compare against the
        // remainder, never compute `pos + n`.
        if n > self.remaining() {
            return Err(FrameError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn kind_code(kind: &FailureKind) -> (u8, u64) {
    match kind {
        FailureKind::NullDeref { addr } => (0, *addr),
        FailureKind::UseAfterFree { addr } => (1, *addr),
        FailureKind::WildAccess { addr } => (2, *addr),
        FailureKind::BadFree { addr } => (3, *addr),
        FailureKind::DivByZero => (4, 0),
        FailureKind::StackOverflow => (5, 0),
        FailureKind::AssertFailed { .. } => (6, 0),
        FailureKind::BadUnlock { addr } => (7, *addr),
        FailureKind::BadIndirectCall { target } => (8, *target),
        FailureKind::Deadlock { .. } => (9, 0),
        FailureKind::Hang => (10, 0),
        FailureKind::Timeout => (11, 0),
    }
}

pub(crate) fn encode_failure(out: &mut Vec<u8>, failure: &Failure) {
    let (code, addr) = kind_code(&failure.kind);
    out.push(code);
    out.extend_from_slice(&failure.pc.0.to_le_bytes());
    out.extend_from_slice(&failure.tid.to_le_bytes());
    out.extend_from_slice(&failure.at_ns.to_le_bytes());
    out.extend_from_slice(&addr.to_le_bytes());
    match &failure.kind {
        FailureKind::AssertFailed { msg } => {
            out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            out.extend_from_slice(msg.as_bytes());
        }
        FailureKind::Deadlock { parties } => {
            out.extend_from_slice(&(parties.len() as u32).to_le_bytes());
            for p in parties {
                out.extend_from_slice(&p.tid.to_le_bytes());
                out.extend_from_slice(&p.pc.0.to_le_bytes());
                out.extend_from_slice(&p.mutex_addr.to_le_bytes());
            }
        }
        _ => {}
    }
}

/// One encoded deadlock party: tid + pc + mutex address.
const PARTY_BYTES: usize = 4 + 8 + 8;

pub(crate) fn decode_failure(c: &mut Cursor<'_>) -> Result<Failure, FrameError> {
    let code = c.u8()?;
    let pc = Pc(c.u64()?);
    let tid = c.u32()?;
    let at_ns = c.u64()?;
    let addr = c.u64()?;
    let kind = match code {
        0 => FailureKind::NullDeref { addr },
        1 => FailureKind::UseAfterFree { addr },
        2 => FailureKind::WildAccess { addr },
        3 => FailureKind::BadFree { addr },
        4 => FailureKind::DivByZero,
        5 => FailureKind::StackOverflow,
        6 => {
            let len = c.u32()? as usize;
            let msg = String::from_utf8(c.take(len)?.to_vec())
                .map_err(|_| FrameError::BadPayload("assert message utf-8"))?;
            FailureKind::AssertFailed { msg }
        }
        7 => FailureKind::BadUnlock { addr },
        8 => FailureKind::BadIndirectCall { target: addr },
        9 => {
            let n = c.u32()? as usize;
            if n > c.remaining() / PARTY_BYTES {
                return Err(FrameError::BadPayload("deadlock party count"));
            }
            let mut parties = Vec::with_capacity(n);
            for _ in 0..n {
                parties.push(DeadlockParty {
                    tid: c.u32()?,
                    pc: Pc(c.u64()?),
                    mutex_addr: c.u64()?,
                });
            }
            FailureKind::Deadlock { parties }
        }
        10 => FailureKind::Hang,
        11 => FailureKind::Timeout,
        _ => return Err(FrameError::BadPayload("failure kind")),
    };
    Ok(Failure {
        kind,
        pc,
        tid,
        at_ns,
    })
}

pub(crate) fn encode_snapshots(out: &mut Vec<u8>, snaps: &[TraceSnapshot]) {
    out.extend_from_slice(&(snaps.len() as u32).to_le_bytes());
    for s in snaps {
        let wire = encode_snapshot(s);
        out.extend_from_slice(&(wire.len() as u32).to_le_bytes());
        out.extend_from_slice(&wire);
    }
}

/// Decodes a snapshot list into borrowed [`SnapshotView`]s. Thread
/// trace bytes stay in `c`'s underlying buffer; nothing is copied.
pub(crate) fn decode_snapshots_view<'a>(
    c: &mut Cursor<'a>,
) -> Result<Vec<SnapshotView<'a>>, DiagnosisError> {
    let n = c.u32().map_err(DiagnosisError::Frame)? as usize;
    // Each snapshot record carries at least its length word: clamp the
    // declared count before sizing anything by it.
    if n > c.remaining() / 4 {
        return Err(DiagnosisError::Frame(FrameError::BadPayload(
            "snapshot count",
        )));
    }
    let mut snaps = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.u32().map_err(DiagnosisError::Frame)? as usize;
        let wire = c.take(len).map_err(DiagnosisError::Frame)?;
        // The embedded `LZTR` encoding is self-validating; corruption
        // that survived the frame checksum is caught here as a typed
        // wire error for *this* request alone.
        snaps.push(decode_snapshot_view(wire)?);
    }
    Ok(snaps)
}

/// One decoded diagnosis request: the failure is owned (a few words),
/// the snapshot views borrow their trace bytes from the request
/// frame's payload.
pub struct DiagnoseRequestView<'a> {
    /// The failure the client observed.
    pub failure: Failure,
    /// Snapshot views from failing executions.
    pub failing: Vec<SnapshotView<'a>>,
    /// Snapshot views from successful executions.
    pub successful: Vec<SnapshotView<'a>>,
}

pub(crate) fn decode_diagnose_view_cursor<'a>(
    c: &mut Cursor<'a>,
) -> Result<DiagnoseRequestView<'a>, DiagnosisError> {
    let failure = decode_failure(c).map_err(DiagnosisError::Frame)?;
    let failing = decode_snapshots_view(c)?;
    let successful = decode_snapshots_view(c)?;
    Ok(DiagnoseRequestView {
        failure,
        failing,
        successful,
    })
}

/// Decodes a [`FrameKind::Diagnose`] payload without copying trace
/// bytes: the returned views borrow from `payload`.
pub fn decode_diagnose_request_view(
    payload: &[u8],
) -> Result<DiagnoseRequestView<'_>, DiagnosisError> {
    let mut c = Cursor::new(payload);
    let req = decode_diagnose_view_cursor(&mut c)?;
    c.done().map_err(DiagnosisError::Frame)?;
    Ok(req)
}

/// Decodes a [`FrameKind::Batch`] payload without copying trace bytes.
pub fn decode_batch_request_views(payload: &[u8]) -> Result<Vec<BatchJobView<'_>>, DiagnosisError> {
    let mut c = Cursor::new(payload);
    let n = c.u32().map_err(DiagnosisError::Frame)? as usize;
    if n > c.remaining() / 4 {
        return Err(DiagnosisError::Frame(FrameError::BadPayload("job count")));
    }
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        let len = c.u32().map_err(DiagnosisError::Frame)? as usize;
        let body = c.take(len).map_err(DiagnosisError::Frame)?;
        let req = decode_diagnose_request_view(body)?;
        jobs.push(BatchJobView {
            failure: req.failure,
            failing: req.failing,
            successful: req.successful,
        });
    }
    c.done().map_err(DiagnosisError::Frame)?;
    Ok(jobs)
}

/// Encodes a [`FrameKind::Diagnose`] request payload.
pub fn encode_diagnose_request(
    failure: &Failure,
    failing: &[TraceSnapshot],
    successful: &[TraceSnapshot],
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_failure(&mut out, failure);
    encode_snapshots(&mut out, failing);
    encode_snapshots(&mut out, successful);
    out
}

/// Encodes a [`FrameKind::Batch`] request payload from borrowed jobs.
pub fn encode_batch_request(jobs: &[BatchJob<'_>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(jobs.len() as u32).to_le_bytes());
    for j in jobs {
        let body = encode_diagnose_request(j.failure, j.failing, j.successful);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// Encodes a [`FrameKind::BatchReport`] payload: per job, an ok flag
/// plus either the rendered report or the error text.
pub fn encode_batch_report(results: &[Result<String, String>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for r in results {
        let (ok, text) = match r {
            Ok(t) => (1u8, t.as_str()),
            Err(t) => (0u8, t.as_str()),
        };
        out.push(ok);
        out.extend_from_slice(&(text.len() as u32).to_le_bytes());
        out.extend_from_slice(text.as_bytes());
    }
    out
}

/// Decodes a [`FrameKind::BatchReport`] payload into per-job results;
/// a failed job surfaces as [`DiagnosisError::Remote`] carrying the
/// server's error text.
pub fn decode_batch_report(
    payload: &[u8],
) -> Result<Vec<Result<String, DiagnosisError>>, FrameError> {
    let mut c = Cursor::new(payload);
    let n = c.u32()? as usize;
    // Each record is at least flag + length word.
    if n > c.remaining() / 5 {
        return Err(FrameError::BadPayload("batch report count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let ok = c.u8()?;
        let len = c.u32()? as usize;
        let text = String::from_utf8(c.take(len)?.to_vec())
            .map_err(|_| FrameError::BadPayload("report utf-8"))?;
        out.push(match ok {
            1 => Ok(text),
            0 => Err(DiagnosisError::Remote { detail: text }),
            _ => return Err(FrameError::BadPayload("ok flag")),
        });
    }
    c.done()?;
    Ok(out)
}

// ---------------------------------------------------------------------
// The daemon.

/// `snorlaxd` runtime knobs.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Diagnosis worker threads; `0` means one per core. They are a
    /// persistent pool, not a fan-out: each counts as busy only while
    /// it serves a request, so the fan-outs inside a request spawn
    /// helpers only onto the cores the other workers leave idle.
    pub workers: usize,
    /// Admission bound: maximum requests queued or in flight; a request
    /// beyond it gets [`FrameKind::Busy`] instead of queueing.
    pub queue_depth: usize,
    /// Maximum concurrently served connections; excess connections are
    /// answered [`FrameKind::Busy`] and closed at accept.
    pub max_connections: usize,
    /// Deadline for an admitted request to complete; past it the client
    /// receives a typed error and the result is discarded.
    pub request_timeout: Duration,
    /// Batch execution knobs for [`FrameKind::Batch`] requests.
    pub batch: BatchConfig,
    /// Diagnosis server configuration (the workers' shared server, the
    /// fleet shard state and the stream hub).
    pub server: ServerConfig,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 0,
            queue_depth: 64,
            max_connections: 64,
            request_timeout: Duration::from_secs(30),
            batch: BatchConfig::default(),
            server: ServerConfig::default(),
        }
    }
}

/// What one [`serve`] run did, returned once the daemon drains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections accepted and served.
    pub connections: u64,
    /// Requests admitted past backpressure.
    pub requests: u64,
    /// Requests (or connections) rejected with `Busy`.
    pub rejected_busy: u64,
    /// Admitted requests that missed their deadline.
    pub timeouts: u64,
    /// Frames rejected by the transport layer (checksum, magic, kind,
    /// length, truncation).
    pub frames_corrupt: u64,
    /// Readiness events that resumed a partially assembled frame —
    /// each one is a slow or chunked writer the old blocking reader
    /// would have desynchronized on.
    pub partial_frame_resumes: u64,
}

/// One admitted request: the undecoded frame payload plus the routing
/// coordinates of the connection slot awaiting the reply. Decoding
/// happens in the worker, borrowing [`SnapshotView`]s from `payload` —
/// the event loop never does per-request parsing.
struct Job {
    token: usize,
    gen: u64,
    seq: u64,
    kind: FrameKind,
    payload: FrameBytes,
}

/// A finished job's reply, routed back to `(token, gen)` by the event
/// loop. A stale generation (the connection died and its slot was
/// reused) is discarded.
struct Completion {
    token: usize,
    gen: u64,
    seq: u64,
    kind: FrameKind,
    payload: Vec<u8>,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    draining: AtomicBool,
    inflight: AtomicUsize,
    completions: Mutex<Vec<Completion>>,
    connections: AtomicU64,
    requests: AtomicU64,
    rejected_busy: AtomicU64,
    timeouts: AtomicU64,
    frames_corrupt: AtomicU64,
    partial_frame_resumes: AtomicU64,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check-and-push in one critical section: the admission bound is
    /// hard. N connections racing an almost-full queue cannot overshoot
    /// `depth`, because the worker flips queued → in-flight under this
    /// same lock and the check and the push happen under one guard.
    fn try_admit(&self, job: Job, depth: usize) -> bool {
        let mut q = self.lock_queue();
        if q.len() + self.inflight.load(Ordering::Acquire) >= depth {
            return false;
        }
        q.push_back(job);
        true
    }

    fn idle(&self) -> bool {
        self.lock_queue().is_empty() && self.inflight.load(Ordering::Acquire) == 0
    }

    fn push_completion(&self, c: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(c);
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(
            &mut self
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn reject_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::AcqRel);
        lazy_obs::counter!("daemon.rejected_busy_total", 1u64);
    }

    fn count_corrupt(&self) {
        self.frames_corrupt.fetch_add(1, Ordering::AcqRel);
        lazy_obs::counter!("daemon.frames_corrupt_total", 1u64);
    }

    fn stats(&self) -> DaemonStats {
        DaemonStats {
            connections: self.connections.load(Ordering::Acquire),
            requests: self.requests.load(Ordering::Acquire),
            rejected_busy: self.rejected_busy.load(Ordering::Acquire),
            timeouts: self.timeouts.load(Ordering::Acquire),
            frames_corrupt: self.frames_corrupt.load(Ordering::Acquire),
            partial_frame_resumes: self.partial_frame_resumes.load(Ordering::Acquire),
        }
    }
}

/// The health status line. The first token is the daemon's lifecycle
/// state — `ok` serving, `draining` once a shutdown began — so
/// monitoring can tell "up" from "up but refusing work" without
/// parsing counters.
fn status_line(draining: bool, queued: usize, inflight: usize, accepted: u64) -> String {
    let state = if draining { "draining" } else { "ok" };
    format!("{state} queued={queued} inflight={inflight} accepted={accepted}")
}

/// Serves diagnosis for `module` on `listener` until a `Shutdown`
/// frame drains it. Blocking: the caller's thread runs the readiness
/// event loop (`poll(2)` over every connection) while scoped worker
/// threads execute diagnoses.
///
/// # Errors
///
/// Returns [`DiagnosisError::Frame`] if the listener cannot be made
/// non-blocking or the self-wake channel cannot be created.
pub fn serve(
    listener: &TcpListener,
    module: &Module,
    cfg: &DaemonConfig,
) -> Result<DaemonStats, DiagnosisError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| DiagnosisError::Frame(FrameError::Io(e.to_string())))?;
    let (waker, wake_rx) =
        reactor::wake_pair().map_err(|e| DiagnosisError::Frame(FrameError::Io(e.to_string())))?;
    let shared = Shared::default();
    let workers = match cfg.workers {
        0 => core_count(),
        n => n,
    };
    // One diagnosis server shared by every worker: its index and walk
    // table are read-only once built, so workers need no copy of their
    // own, and the fleet shard and stream hub read the same tables.
    let server = DiagnosisServer::new(module, cfg.server.clone());
    // One fleet-shard state for the whole daemon: a coordinator's
    // three protocol rounds may arrive on any worker, so the session
    // store must outlive any single request.
    let fleet = FleetShard::with_server(server.share());
    // Likewise one stream hub: a streaming session accumulates reports
    // across connections, so its state must be daemon-wide too.
    let hub = StreamHub::with_server(server.share());
    std::thread::scope(|scope| {
        let shared = &shared;
        let server = &server;
        let fleet = &fleet;
        let hub = &hub;
        let waker = &waker;
        for _ in 0..workers {
            scope.spawn(move || worker(shared, server, cfg, fleet, hub, waker));
        }
        event_loop(listener, &wake_rx, shared, cfg, fleet, hub);
        // The loop only returns fully drained; release any worker
        // still parked on the condvar so the scope can close.
        shared.draining.store(true, Ordering::Release);
        shared.available.notify_all();
    });
    Ok(shared.stats())
}

fn worker(
    shared: &Shared,
    server: &DiagnosisServer<'_>,
    cfg: &DaemonConfig,
    fleet: &FleetShard<'_>,
    hub: &StreamHub<'_>,
    waker: &reactor::Waker,
) {
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(j) = q.pop_front() {
                    // Flip queued → in-flight while still holding the
                    // queue lock, so the drain check (`queue empty AND
                    // nothing in flight`) can never observe the job in
                    // neither state — and so the admission bound's
                    // `len + inflight` cannot double-count.
                    shared.inflight.fetch_add(1, Ordering::AcqRel);
                    break Some(j);
                }
                if shared.draining.load(Ordering::Acquire) {
                    break None;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { break };
        lazy_obs::histogram!("daemon.inflight", shared.inflight.load(Ordering::Acquire));
        let reply = {
            let _span = lazy_obs::span!("daemon.request");
            let _busy = BusyMark::new();
            // The request decodes here, in the worker, as borrowed
            // views over the frame payload — the event loop stays free
            // to service other connections, and trace bytes go from
            // socket buffer to decoder with zero intervening copies.
            catch_unwind(AssertUnwindSafe(|| {
                process(server, cfg, fleet, hub, job.kind, job.payload.as_slice())
            }))
            .unwrap_or_else(|p| {
                let e = DiagnosisError::from_panic("daemon", p);
                (FrameKind::Error, e.to_string().into_bytes())
            })
        };
        // Leave in-flight before publishing the completion: once the
        // event loop routes the reply (emptying the slot's pending
        // list), the drain check must already see this job retired.
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.push_completion(Completion {
            token: job.token,
            gen: job.gen,
            seq: job.seq,
            kind: reply.0,
            payload: reply.1,
        });
        waker.wake();
    }
}

fn process(
    server: &DiagnosisServer<'_>,
    cfg: &DaemonConfig,
    fleet: &FleetShard<'_>,
    hub: &StreamHub<'_>,
    kind: FrameKind,
    payload: &[u8],
) -> (FrameKind, Vec<u8>) {
    let error = |e: DiagnosisError| (FrameKind::Error, e.to_string().into_bytes());
    let module = server.module();
    match kind {
        FrameKind::Diagnose => match decode_diagnose_request_view(payload) {
            Ok(req) => match server.diagnose_views(&req.failure, &req.failing, &req.successful) {
                Ok(d) => (FrameKind::Report, d.render(module).into_bytes()),
                Err(e) => error(e),
            },
            Err(e) => error(e),
        },
        FrameKind::Batch => match decode_batch_request_views(payload) {
            Ok(jobs) => {
                let out = server.diagnose_batch_views(&jobs, &cfg.batch);
                let results: Vec<Result<String, String>> = out
                    .diagnoses
                    .iter()
                    .map(|d| match d {
                        Ok(d) => Ok(d.render(module)),
                        Err(e) => Err(e.to_string()),
                    })
                    .collect();
                (FrameKind::BatchReport, encode_batch_report(&results))
            }
            Err(e) => error(e),
        },
        FrameKind::FleetCollect => match decode_fleet_collect_view(payload) {
            Ok((session, module_fp, req)) => match fleet.check_module(module_fp).and_then(|()| {
                fleet.collect_views(session, &req.failure, &req.failing, &req.successful)
            }) {
                Ok(r) => (FrameKind::FleetCollectAck, encode_collect_reply(&r)),
                Err(e) => error(e),
            },
            Err(e) => error(e),
        },
        FrameKind::FleetPatterns => match decode_fleet_patterns(payload) {
            Ok((session, executed)) => match fleet.patterns(session, &executed) {
                Ok(r) => (FrameKind::FleetPatternSet, encode_patterns_reply(&r)),
                Err(e) => error(e),
            },
            Err(e) => error(DiagnosisError::Frame(e)),
        },
        FrameKind::FleetFinalize => match decode_fleet_finalize(payload) {
            Ok((session, patterns)) => match fleet.finalize(session, &patterns) {
                Ok(r) => (FrameKind::PartialStats, encode_finalize_reply(&r)),
                Err(e) => error(e),
            },
            Err(e) => error(DiagnosisError::Frame(e)),
        },
        FrameKind::StreamSubmit => match decode_stream_submit_view(payload) {
            Ok((session, StreamSubmitView::Failing { failure, snap })) => {
                match hub.submit_failing(session, &failure, &snap) {
                    Ok(s) => (FrameKind::StreamSubmitAck, encode_stream_status(&s)),
                    Err(e) => error(e),
                }
            }
            Ok((session, StreamSubmitView::Success { snap })) => {
                match hub.submit_success(session, &snap) {
                    Ok(s) => (FrameKind::StreamSubmitAck, encode_stream_status(&s)),
                    Err(e) => error(e),
                }
            }
            Err(e) => error(e),
        },
        FrameKind::StreamStatus => match decode_stream_session(payload) {
            Ok(session) => match hub.status(session) {
                Ok(s) => (FrameKind::StreamStatusReply, encode_stream_status(&s)),
                Err(e) => error(e),
            },
            Err(e) => error(DiagnosisError::Frame(e)),
        },
        FrameKind::StreamFinish => match decode_stream_session(payload) {
            Ok(session) => match hub.finish(session) {
                Ok((outcome, report)) => {
                    let reply = StreamFinishReply {
                        reports_consumed: outcome.reports_consumed as u64,
                        reports_rejected: outcome.reports_rejected as u64,
                        converged_early: outcome.converged_early,
                        report,
                        lead_history: outcome.lead_history,
                    };
                    (
                        FrameKind::StreamFinishAck,
                        encode_stream_finish_reply(&reply),
                    )
                }
                Err(e) => error(e),
            },
            Err(e) => error(DiagnosisError::Frame(e)),
        },
        FrameKind::FleetStats => match decode_fleet_stats(payload) {
            Ok(()) => {
                // A stats probe doubles as the daemon's periodic
                // lifecycle sweep: abandoned fleet and stream sessions
                // are evicted here even if no new session ever tries
                // to admit.
                fleet.sweep_expired();
                hub.sweep_expired();
                (FrameKind::FleetStatsAck, encode_shard_stats(&fleet.stats()))
            }
            Err(e) => error(DiagnosisError::Frame(e)),
        },
        other => {
            let msg = format!("frame kind {other:?} is not a request");
            (FrameKind::Error, msg.into_bytes())
        }
    }
}

// ---------------------------------------------------------------------
// Connection state machine.

/// Write backlog above which a connection stops reading new requests —
/// backpressure propagates to the peer's TCP window instead of growing
/// an unbounded reply buffer.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Poll timeout ceiling: a lost wakeup costs at most this much latency.
const POLL_CAP: Duration = Duration::from_millis(200);

/// Reads drained per readiness event per connection, so one firehose
/// peer cannot starve the rest of the poll set.
const MAX_READS_PER_EVENT: usize = 4;

/// An in-order reply obligation: request `seq` was admitted (or
/// answered inline) and its reply must ship in sequence. `deadline` is
/// `None` for inline replies, which complete in the same dispatch.
struct PendingReply {
    seq: u64,
    deadline: Option<Instant>,
}

/// Per-connection state: streaming frame assembly in, buffered
/// non-blocking writes out, plus the in-order reply ledger.
struct Conn {
    stream: TcpStream,
    fd: i32,
    asm: FrameAssembler,
    out: WriteBuf,
    /// Replies owed, in request order.
    pending: VecDeque<PendingReply>,
    /// Completed replies that arrived out of order, keyed by seq.
    ready: HashMap<u64, (FrameKind, Vec<u8>)>,
    /// Seqs whose deadline fired; the worker's eventual completion is
    /// discarded instead of replied.
    abandoned: HashSet<u64>,
    next_seq: u64,
    /// This connection sent `Shutdown` and is owed the ack once the
    /// daemon is fully drained.
    wants_shutdown_ack: bool,
    /// No more reads; close once `out` and `pending` are empty.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Conn {
        Conn {
            stream,
            fd,
            asm: FrameAssembler::new(),
            out: WriteBuf::default(),
            pending: VecDeque::new(),
            ready: HashMap::new(),
            abandoned: HashSet::new(),
            next_seq: 0,
            wants_shutdown_ack: false,
            closing: false,
        }
    }

    fn queue_frame(&mut self, kind: FrameKind, payload: &[u8]) {
        self.out.queue(&encode_frame(kind, payload));
    }

    /// Answers a frame immediately, still honoring reply order behind
    /// any outstanding admitted requests.
    fn reply_now(&mut self, kind: FrameKind, payload: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(PendingReply {
            seq,
            deadline: None,
        });
        self.complete(seq, kind, payload);
    }

    /// Routes a finished reply; ships it (and any now-unblocked
    /// successors) if it is next in order.
    fn complete(&mut self, seq: u64, kind: FrameKind, payload: Vec<u8>) {
        if self.abandoned.remove(&seq) {
            // Deadline already answered this seq; drop the late result.
            return;
        }
        self.ready.insert(seq, (kind, payload));
        self.drain_ready();
    }

    fn drain_ready(&mut self) {
        while let Some(front) = self.pending.front() {
            match self.ready.remove(&front.seq) {
                Some((kind, payload)) => {
                    self.pending.pop_front();
                    self.queue_frame(kind, &payload);
                }
                None => break,
            }
        }
    }

    /// Expires overdue requests. Deadlines are uniform and seqs are
    /// FIFO, so only the front can be overdue; each expiry answers
    /// with the typed deadline error and abandons the worker's result.
    fn sweep_deadlines(&mut self, now: Instant, cfg: &DaemonConfig, shared: &Shared) {
        while let Some(front) = self.pending.front() {
            let Some(deadline) = front.deadline else {
                break;
            };
            if now < deadline {
                break;
            }
            let seq = front.seq;
            self.pending.pop_front();
            self.abandoned.insert(seq);
            shared.timeouts.fetch_add(1, Ordering::AcqRel);
            lazy_obs::counter!("daemon.timeouts_total", 1u64);
            let msg = format!(
                "deadline exceeded ({} ms); request abandoned",
                cfg.request_timeout.as_millis()
            );
            self.queue_frame(FrameKind::Error, msg.as_bytes());
            self.drain_ready();
        }
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.pending.front().and_then(|p| p.deadline)
    }

    /// Drains readable bytes into the assembler and dispatches every
    /// whole frame found.
    fn handle_readable(&mut self, token: usize, gen: u64, shared: &Shared, cfg: &DaemonConfig) {
        if self.closing {
            return;
        }
        if self.asm.has_partial() {
            // A frame paused mid-assembly is resuming: under the old
            // blocking reader this readiness gap was a desync.
            shared.partial_frame_resumes.fetch_add(1, Ordering::AcqRel);
            lazy_obs::counter!("daemon.partial_frame_resumes_total", 1u64);
        }
        let mut reads = 0;
        loop {
            match self.asm.read_from(&mut self.stream) {
                Ok(0) => {
                    if self.asm.has_partial() {
                        // EOF mid-frame: genuine truncation.
                        shared.count_corrupt();
                        self.reply_now(
                            FrameKind::Error,
                            FrameError::Truncated.to_string().into_bytes(),
                        );
                    }
                    self.closing = true;
                    return;
                }
                Ok(_) => {
                    if !self.parse_frames(token, gen, shared, cfg) {
                        return;
                    }
                    reads += 1;
                    if reads >= MAX_READS_PER_EVENT {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    shared.count_corrupt();
                    self.reply_now(
                        FrameKind::Error,
                        FrameError::Io(e.to_string()).to_string().into_bytes(),
                    );
                    self.closing = true;
                    return;
                }
            }
        }
    }

    /// Dispatches every complete frame in the assembler. Returns false
    /// when the stream desynchronized and reading must stop.
    fn parse_frames(
        &mut self,
        token: usize,
        gen: u64,
        shared: &Shared,
        cfg: &DaemonConfig,
    ) -> bool {
        loop {
            match self.asm.next_frame() {
                FrameStatus::NeedMore => return true,
                FrameStatus::Frame { kind, payload } => {
                    self.on_frame(token, gen, kind, payload, shared, cfg);
                }
                FrameStatus::Recoverable(e) => {
                    // Frame consumed in full; the stream is still at a
                    // boundary. Fail this frame, keep the connection.
                    shared.count_corrupt();
                    self.reply_now(FrameKind::Error, e.to_string().into_bytes());
                }
                FrameStatus::Fatal(e) => {
                    // The stream position is no longer trustworthy:
                    // answer best-effort, then close after flushing.
                    shared.count_corrupt();
                    self.reply_now(FrameKind::Error, e.to_string().into_bytes());
                    self.closing = true;
                    return false;
                }
            }
        }
    }

    fn on_frame(
        &mut self,
        token: usize,
        gen: u64,
        kind: FrameKind,
        payload: FrameBytes,
        shared: &Shared,
        cfg: &DaemonConfig,
    ) {
        match kind {
            FrameKind::Health => {
                let status = status_line(
                    shared.draining.load(Ordering::Acquire),
                    shared.lock_queue().len(),
                    shared.inflight.load(Ordering::Acquire),
                    shared.connections.load(Ordering::Acquire),
                );
                self.reply_now(FrameKind::HealthOk, status.into_bytes());
            }
            FrameKind::Shutdown => {
                shared.draining.store(true, Ordering::Release);
                shared.available.notify_all();
                // The ack is deferred: the event loop sends it once the
                // queue is empty, nothing is in flight, and every
                // admitted reply has been routed.
                self.wants_shutdown_ack = true;
            }
            FrameKind::Diagnose
            | FrameKind::Batch
            | FrameKind::FleetCollect
            | FrameKind::FleetPatterns
            | FrameKind::FleetFinalize
            | FrameKind::FleetStats
            | FrameKind::StreamSubmit
            | FrameKind::StreamStatus
            | FrameKind::StreamFinish => {
                if shared.draining.load(Ordering::Acquire) {
                    shared.reject_busy();
                    self.reply_now(FrameKind::Busy, Vec::new());
                    return;
                }
                let seq = self.next_seq;
                let job = Job {
                    token,
                    gen,
                    seq,
                    kind,
                    payload,
                };
                if shared.try_admit(job, cfg.queue_depth) {
                    self.next_seq += 1;
                    self.pending.push_back(PendingReply {
                        seq,
                        deadline: Some(Instant::now() + cfg.request_timeout),
                    });
                    shared.requests.fetch_add(1, Ordering::AcqRel);
                    lazy_obs::counter!("daemon.requests_total", 1u64);
                    shared.available.notify_one();
                } else {
                    shared.reject_busy();
                    self.reply_now(FrameKind::Busy, Vec::new());
                }
            }
            other => {
                // A response kind arriving at the server: protocol
                // misuse, but the frame was whole — answer, carry on.
                let msg = format!("unexpected frame kind {other:?} in a request stream");
                self.reply_now(FrameKind::Error, msg.into_bytes());
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush(&mut self.stream)
    }

    fn finished(&self) -> bool {
        self.closing && self.out.is_empty() && self.pending.is_empty()
    }
}

/// A non-blocking write buffer: frames queue here and drain as the
/// socket accepts them; `WouldBlock` simply leaves the tail for the
/// next `POLLOUT`.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    fn queue(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= READ_CHUNK {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn flush<W: Write>(&mut self, w: &mut W) -> std::io::Result<()> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The event loop.

/// A connection slot; the generation counter invalidates completions
/// addressed to a connection that died while its job was in flight.
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

const TOKEN_LISTENER: usize = usize::MAX;
const TOKEN_WAKER: usize = usize::MAX - 1;

fn event_loop(
    listener: &TcpListener,
    wake_rx: &reactor::WakeReceiver,
    shared: &Shared,
    cfg: &DaemonConfig,
    fleet: &FleetShard<'_>,
    hub: &StreamHub<'_>,
) {
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut open: usize = 0;
    let mut drain_acked = false;
    let mut fds: Vec<reactor::PollFd> = Vec::new();
    let mut tokens: Vec<usize> = Vec::new();
    loop {
        // Route worker completions to their connections.
        for c in shared.take_completions() {
            if let Some(slot) = slots.get_mut(c.token) {
                if slot.gen == c.gen {
                    if let Some(conn) = slot.conn.as_mut() {
                        conn.complete(c.seq, c.kind, c.payload);
                    }
                }
            }
        }
        // Expire overdue requests.
        let now = Instant::now();
        for slot in &mut slots {
            if let Some(conn) = slot.conn.as_mut() {
                conn.sweep_deadlines(now, cfg, shared);
            }
        }
        // Expire idle fleet/stream sessions alongside the request
        // deadlines: an abandoned client's capacity slots recover on
        // the daemon's own clock, not only when a new session tries to
        // admit. Both stores hold at most 64 entries, so the sweep is
        // cheap enough to run every loop turn.
        fleet.sweep_expired();
        hub.sweep_expired();
        // Drain convergence: queue empty, nothing in flight, every
        // admitted reply routed → ack the shutdown, close everything.
        let draining = shared.draining.load(Ordering::Acquire);
        if draining
            && !drain_acked
            && shared.idle()
            && slots
                .iter()
                .all(|s| s.conn.as_ref().is_none_or(|c| c.pending.is_empty()))
        {
            for slot in &mut slots {
                if let Some(conn) = slot.conn.as_mut() {
                    if conn.wants_shutdown_ack {
                        conn.queue_frame(FrameKind::ShutdownAck, b"");
                    }
                    conn.closing = true;
                }
            }
            drain_acked = true;
        }
        // Flush and reap.
        for (i, slot) in slots.iter_mut().enumerate() {
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            let dead = conn.flush().is_err();
            if dead || conn.finished() {
                slot.conn = None;
                slot.gen += 1;
                free.push(i);
                open -= 1;
                lazy_obs::counter!("daemon.conn.closed_total", 1u64);
                lazy_obs::histogram!("daemon.conn.open", open);
            }
        }
        if drain_acked && open == 0 {
            return;
        }
        if !draining {
            accept_ready(listener, &mut slots, &mut free, &mut open, shared, cfg);
        }
        // Build the poll set.
        fds.clear();
        tokens.clear();
        if !draining {
            fds.push(reactor::PollFd::new(listener.as_raw_fd(), reactor::POLLIN));
            tokens.push(TOKEN_LISTENER);
        }
        fds.push(reactor::PollFd::new(wake_rx.fd(), reactor::POLLIN));
        tokens.push(TOKEN_WAKER);
        let mut timeout = POLL_CAP;
        let now = Instant::now();
        for (i, slot) in slots.iter().enumerate() {
            let Some(conn) = slot.conn.as_ref() else {
                continue;
            };
            if let Some(deadline) = conn.next_deadline() {
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
            let mut events = 0i16;
            // Backpressure: past the high-water mark the connection
            // stops reading; the peer blocks on its own send buffer
            // instead of growing ours.
            if !conn.closing && conn.out.len() < WRITE_HIGH_WATER {
                events |= reactor::POLLIN;
            }
            if !conn.out.is_empty() {
                events |= reactor::POLLOUT;
            }
            if events != 0 {
                fds.push(reactor::PollFd::new(conn.fd, events));
                tokens.push(i);
            }
        }
        reactor::poll(&mut fds, timeout);
        // Dispatch readiness.
        for (fd, &token) in fds.iter().zip(tokens.iter()) {
            match token {
                TOKEN_WAKER => {
                    if fd.readable() {
                        wake_rx.drain();
                    }
                }
                TOKEN_LISTENER => {}
                i => {
                    let Some(slot) = slots.get_mut(i) else {
                        continue;
                    };
                    let gen = slot.gen;
                    let Some(conn) = slot.conn.as_mut() else {
                        continue;
                    };
                    if fd.readable() {
                        conn.handle_readable(i, gen, shared, cfg);
                    }
                    if fd.writable() {
                        // A hard write error is reaped by the next
                        // iteration's flush pass.
                        let _ = conn.flush();
                    }
                }
            }
        }
    }
}

fn accept_ready(
    listener: &TcpListener,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    open: &mut usize,
    shared: &Shared,
    cfg: &DaemonConfig,
) {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if *open >= cfg.max_connections {
            shared.reject_busy();
            lazy_obs::counter!("daemon.conn.rejected_total", 1u64);
            let mut stream = stream;
            let _ = write_frame(&mut stream, FrameKind::Busy, b"");
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let conn = Conn::new(stream, fd);
        let i = free.pop().unwrap_or_else(|| {
            slots.push(Slot { gen: 0, conn: None });
            slots.len() - 1
        });
        slots[i].conn = Some(conn);
        *open += 1;
        shared.connections.fetch_add(1, Ordering::AcqRel);
        lazy_obs::counter!("daemon.accepted_total", 1u64);
        lazy_obs::counter!("daemon.conn.accepted_total", 1u64);
        lazy_obs::histogram!("daemon.conn.open", *open);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazy_trace::driver::{SnapshotTrigger, ThreadTrace};
    use lazy_trace::stats::TraceStats;

    fn sample_snapshot() -> TraceSnapshot {
        TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 1,
                bytes: vec![1, 2, 3],
                stats: TraceStats::default(),
                wrapped: false,
            }],
            taken_at: 42,
            trigger_tid: 1,
            trigger_pc: 0x40_0000,
            trigger: SnapshotTrigger::Failure,
        }
    }

    fn sample_failure() -> Failure {
        Failure {
            kind: FailureKind::UseAfterFree { addr: 0x2000_0010 },
            pc: Pc(0x40_0004),
            tid: 3,
            at_ns: 12345,
        }
    }

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(FrameKind::Diagnose, b"hello");
        let (kind, payload) = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(kind, FrameKind::Diagnose);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn frame_checksum_flip_is_detected() {
        let mut frame = encode_frame(FrameKind::Batch, b"payload-bytes");
        let mid = HEADER_LEN + 4;
        frame[mid] ^= 0x20;
        assert_eq!(
            read_frame(&mut frame.as_slice()),
            Err(FrameError::BadChecksum)
        );
    }

    #[test]
    fn frame_bad_magic_and_truncation() {
        let mut frame = encode_frame(FrameKind::Health, b"");
        frame[0] = b'X';
        assert_eq!(read_frame(&mut frame.as_slice()), Err(FrameError::BadMagic));
        let frame = encode_frame(FrameKind::Health, b"abc");
        for cut in 1..frame.len() {
            let err = read_frame(&mut &frame[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated | FrameError::BadChecksum),
                "cut {cut}: {err}"
            );
        }
        assert_eq!(read_frame(&mut &frame[..0]), Err(FrameError::Closed));
    }

    #[test]
    fn frame_oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(FrameKind::Diagnose, b"x");
        frame[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut frame.as_slice()),
            Err(FrameError::TooLarge(u32::MAX))
        );
    }

    #[test]
    fn frame_unknown_kind_is_recoverable() {
        // Build a frame with kind 99 and a correct checksum: the reader
        // must consume it fully and report BadKind (stream in sync).
        let mut frame = encode_frame(FrameKind::Diagnose, b"zz");
        frame[4] = 99;
        let n = frame.len();
        let sum = fnv1a32(&frame[..n - 4]);
        frame[n - 4..].copy_from_slice(&sum.to_le_bytes());
        let mut stream = frame.clone();
        stream.extend_from_slice(&encode_frame(FrameKind::Health, b""));
        let mut r = stream.as_slice();
        assert_eq!(read_frame(&mut r), Err(FrameError::BadKind(99)));
        // The next frame parses cleanly from the same stream.
        assert_eq!(read_frame(&mut r).unwrap().0, FrameKind::Health);
    }

    #[test]
    fn diagnose_request_roundtrip() {
        let failure = sample_failure();
        let snaps = vec![sample_snapshot(), sample_snapshot()];
        let payload = encode_diagnose_request(&failure, &snaps, &snaps[..1]);
        let req = decode_diagnose_request_view(&payload).unwrap();
        assert_eq!(req.failure, failure);
        assert_eq!(req.failing.len(), 2);
        assert_eq!(req.successful.len(), 1);
        assert_eq!(req.failing[0], snaps[0].view());
        assert_eq!(req.failing[0].threads[0].bytes, [1, 2, 3]);
        // The views borrow the trace bytes from the payload itself.
        let bytes = req.successful[0].threads[0].bytes.as_ptr_range();
        assert!(payload.as_ptr_range().contains(&bytes.start));
    }

    #[test]
    fn failure_kinds_roundtrip() {
        let kinds = [
            FailureKind::NullDeref { addr: 7 },
            FailureKind::DivByZero,
            FailureKind::StackOverflow,
            FailureKind::AssertFailed {
                msg: "x > 0".into(),
            },
            FailureKind::BadUnlock { addr: 0x99 },
            FailureKind::BadIndirectCall { target: 0xdead },
            FailureKind::Deadlock {
                parties: vec![
                    DeadlockParty {
                        tid: 1,
                        pc: Pc(10),
                        mutex_addr: 0x100,
                    },
                    DeadlockParty {
                        tid: 2,
                        pc: Pc(20),
                        mutex_addr: 0x200,
                    },
                ],
            },
            FailureKind::Hang,
            FailureKind::Timeout,
        ];
        for kind in kinds {
            let f = Failure {
                kind,
                pc: Pc(0x10),
                tid: 9,
                at_ns: 1,
            };
            let payload = encode_diagnose_request(&f, &[], &[]);
            let back = decode_diagnose_request_view(&payload).unwrap();
            assert_eq!(back.failure, f);
        }
    }

    #[test]
    fn batch_report_roundtrip() {
        let results = vec![
            Ok("report one".to_string()),
            Err("decode failed".to_string()),
        ];
        let payload = encode_batch_report(&results);
        let back = decode_batch_report(&payload).unwrap();
        assert_eq!(back[0], Ok("report one".to_string()));
        assert_eq!(
            back[1],
            Err(DiagnosisError::Remote {
                detail: "decode failed".to_string()
            })
        );
    }

    #[test]
    fn corrupt_inner_snapshot_is_a_typed_wire_error() {
        let failure = sample_failure();
        let snaps = vec![sample_snapshot()];
        let mut payload = encode_diagnose_request(&failure, &snaps, &[]);
        // Flip a byte inside the embedded LZTR body (past the failure
        // record and the two count/length words).
        let n = payload.len();
        payload[n - 10] ^= 0x40;
        match decode_diagnose_request_view(&payload) {
            Err(DiagnosisError::Wire(_)) => {}
            Err(e) => panic!("expected a wire error, got {e:?}"),
            Ok(_) => panic!("expected a wire error, got a decoded request"),
        }
    }

    /// A reader that serves the source in fixed-size chunks and, when
    /// `timeouts` is set, fails with `WouldBlock` between chunks — the
    /// socket-level shape of a slow writer under a read timeout.
    struct ChunkedReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        timeouts: bool,
        primed: bool,
    }

    impl ChunkedReader {
        fn new(data: Vec<u8>, chunk: usize, timeouts: bool) -> ChunkedReader {
            ChunkedReader {
                data,
                pos: 0,
                chunk,
                timeouts,
                primed: false,
            }
        }
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.timeouts && !self.primed {
                self.primed = true;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.primed = false;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            if n == 0 {
                return Ok(0);
            }
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_frame_survives_mid_frame_timeouts() {
        // The regression this PR fixes: a frame arriving in several
        // chunks with read timeouts between them must parse — the old
        // reader lost the first header byte to the idle-poll read and
        // reported BadMagic, killing the (merely slow) client.
        let frame = encode_frame(FrameKind::Diagnose, b"slow but valid");
        let mut r = ChunkedReader::new(frame, 3, true);
        // The first byte arrives promptly; the rest dribbles in with a
        // timeout before every later chunk.
        r.primed = true;
        let (kind, payload) = read_frame(&mut r).unwrap();
        assert_eq!(kind, FrameKind::Diagnose);
        assert_eq!(payload, b"slow but valid");
    }

    #[test]
    fn read_frame_still_times_out_at_frame_boundary() {
        // Before the first byte, a timeout is a poll signal, not a
        // wait: idle connections must still surface TimedOut.
        let mut r = ChunkedReader::new(encode_frame(FrameKind::Health, b""), 4, true);
        assert_eq!(read_frame(&mut r), Err(FrameError::TimedOut));
        // The stream was not consumed; the retry reads the full frame.
        assert_eq!(read_frame(&mut r).unwrap().0, FrameKind::Health);
    }

    fn feed(asm: &mut FrameAssembler, bytes: &[u8], chunk: usize) -> Vec<FrameStatus> {
        let mut r = ChunkedReader::new(bytes.to_vec(), chunk, false);
        let mut out = Vec::new();
        loop {
            match asm.read_from(&mut r) {
                Ok(0) => break,
                Ok(_) => loop {
                    match asm.next_frame() {
                        FrameStatus::NeedMore => break,
                        status @ FrameStatus::Fatal(_) => {
                            out.push(status);
                            return out;
                        }
                        status => out.push(status),
                    }
                },
                Err(_) => break,
            }
        }
        out
    }

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let frame = encode_frame(FrameKind::Diagnose, b"dribbled payload");
        let mut asm = FrameAssembler::new();
        let got = feed(&mut asm, &frame, 1);
        assert_eq!(got.len(), 1);
        match &got[0] {
            FrameStatus::Frame { kind, payload } => {
                assert_eq!(*kind, FrameKind::Diagnose);
                assert_eq!(payload.as_slice(), b"dribbled payload");
            }
            _ => panic!("expected a whole frame"),
        }
        assert!(!asm.has_partial());
    }

    #[test]
    fn assembler_parses_pipelined_frames_and_keeps_the_tail() {
        let mut bytes = encode_frame(FrameKind::Health, b"");
        bytes.extend_from_slice(&encode_frame(FrameKind::Diagnose, b"second"));
        let second = encode_frame(FrameKind::Batch, b"third");
        bytes.extend_from_slice(&second[..5]); // partial third frame
        let mut asm = FrameAssembler::new();
        let got = feed(&mut asm, &bytes, usize::MAX);
        assert_eq!(got.len(), 2);
        assert!(matches!(
            got[0],
            FrameStatus::Frame {
                kind: FrameKind::Health,
                ..
            }
        ));
        assert!(matches!(
            got[1],
            FrameStatus::Frame {
                kind: FrameKind::Diagnose,
                ..
            }
        ));
        // The partial third frame is retained, not an error.
        assert!(asm.has_partial());
        assert_eq!(asm.pending_bytes(), 5);
    }

    #[test]
    fn assembler_recovers_from_bad_checksum_and_bad_kind() {
        let mut flipped = encode_frame(FrameKind::Diagnose, b"payload-bytes");
        flipped[HEADER_LEN + 4] ^= 0x20;
        let mut unknown = encode_frame(FrameKind::Diagnose, b"zz");
        unknown[4] = 99;
        let n = unknown.len();
        let sum = fnv1a32(&unknown[..n - 4]);
        unknown[n - 4..].copy_from_slice(&sum.to_le_bytes());
        let mut bytes = flipped;
        bytes.extend_from_slice(&unknown);
        bytes.extend_from_slice(&encode_frame(FrameKind::Health, b""));
        let mut asm = FrameAssembler::new();
        let got = feed(&mut asm, &bytes, 7);
        assert_eq!(got.len(), 3);
        assert!(matches!(
            got[0],
            FrameStatus::Recoverable(FrameError::BadChecksum)
        ));
        assert!(matches!(
            got[1],
            FrameStatus::Recoverable(FrameError::BadKind(99))
        ));
        // Both bad frames were consumed in full: the stream stayed in
        // sync and the trailing good frame parses.
        assert!(matches!(
            got[2],
            FrameStatus::Frame {
                kind: FrameKind::Health,
                ..
            }
        ));
    }

    #[test]
    fn assembler_fatal_on_bad_magic_and_oversize() {
        let mut asm = FrameAssembler::new();
        let got = feed(&mut asm, b"GET / HTTP/1.1\r\n", usize::MAX);
        assert!(matches!(got[0], FrameStatus::Fatal(FrameError::BadMagic)));
        // Garbage is caught from the very first byte, before a full
        // header accumulates.
        let mut asm = FrameAssembler::new();
        let got = feed(&mut asm, b"X", usize::MAX);
        assert!(matches!(got[0], FrameStatus::Fatal(FrameError::BadMagic)));
        let mut oversized = encode_frame(FrameKind::Diagnose, b"x");
        oversized[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut asm = FrameAssembler::new();
        let got = feed(&mut asm, &oversized, usize::MAX);
        assert!(matches!(
            got[0],
            FrameStatus::Fatal(FrameError::TooLarge(u32::MAX))
        ));
    }

    #[test]
    fn assembler_detaches_lone_frames_without_copying() {
        // A frame alone in the buffer is handed over wholesale: the
        // assembler's buffer moves into the FrameBytes and the payload
        // is a window into it — the zero-copy ingest path.
        let frame = encode_frame(FrameKind::Diagnose, b"zero copy body");
        let mut asm = FrameAssembler::new();
        let mut r = ChunkedReader::new(frame, usize::MAX, false);
        asm.read_from(&mut r).unwrap();
        match asm.next_frame() {
            FrameStatus::Frame { payload, .. } => {
                assert_eq!(payload.as_slice(), b"zero copy body");
                assert_eq!(payload.start, HEADER_LEN);
            }
            _ => panic!("expected a frame"),
        }
        assert!(asm.buf.is_empty(), "buffer should have been detached");
    }

    #[test]
    fn admission_check_and_push_is_atomic_under_contention() {
        // 16 threads race one admission slot table with depth 4 and no
        // consumer: exactly 4 must win. The old check-then-push (bound
        // read under the lock, push after re-acquiring) let racing
        // connections overshoot the queue depth.
        let shared = Shared::default();
        let depth = 4;
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for seq in 0..8 {
                        let job = Job {
                            token: 0,
                            gen: 0,
                            seq,
                            kind: FrameKind::Diagnose,
                            payload: FrameBytes::from_vec(Vec::new()),
                        };
                        if shared.try_admit(job, depth) {
                            admitted.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Acquire), depth);
        assert_eq!(shared.lock_queue().len(), depth);
    }

    #[test]
    fn status_line_reports_drain_state() {
        assert_eq!(
            status_line(false, 2, 1, 7),
            "ok queued=2 inflight=1 accepted=7"
        );
        let draining = status_line(true, 0, 3, 9);
        assert!(draining.starts_with("draining "), "{draining}");
        assert_eq!(draining, "draining queued=0 inflight=3 accepted=9");
    }

    #[test]
    fn replies_ship_in_request_order() {
        // Out-of-order completions (seq 1 before seq 0) must not
        // reorder the wire: the connection holds seq 1 until seq 0
        // lands.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let fd = stream.as_raw_fd();
        let mut conn = Conn::new(stream, fd);
        let s0 = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.push_back(PendingReply {
            seq: s0,
            deadline: None,
        });
        let s1 = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.push_back(PendingReply {
            seq: s1,
            deadline: None,
        });
        conn.complete(s1, FrameKind::Report, b"second".to_vec());
        assert!(conn.out.is_empty(), "seq 1 must wait for seq 0");
        conn.complete(s0, FrameKind::Report, b"first".to_vec());
        assert!(!conn.out.is_empty());
        conn.flush().unwrap();
        drop(conn);
        let mut peer = peer;
        assert_eq!(read_frame(&mut peer).unwrap().1, b"first");
        assert_eq!(read_frame(&mut peer).unwrap().1, b"second");
    }

    #[test]
    fn inflated_counts_are_rejected_before_allocation() {
        let mut payload = encode_diagnose_request(&sample_failure(), &[], &[]);
        // failing-count word sits right after the failure record.
        let off = payload.len() - 8;
        payload[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_diagnose_request_view(&payload).is_err());
        let mut batch = encode_batch_request(&[]);
        batch[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch_request_views(&batch).is_err());
    }
}
