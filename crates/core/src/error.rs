//! The diagnosis pipeline's typed error taxonomy.
//!
//! Snorlax ingests snapshots from live, failing deployments, so every
//! stage of decode → processing → diagnosis must turn malformed input
//! into a *typed* error rather than a panic. [`DiagnosisError`] is that
//! one enum, threaded from the wire layer through processing and the
//! server to the CLI, with a variant per stage so callers can tell a
//! corrupt transport buffer from an undecodable trace from an internal
//! worker failure.
//!
//! Degradation policy (see DESIGN.md): an error fails exactly the unit
//! it describes. A thread that fails to decode degrades its snapshot
//! (the remaining threads still process); a snapshot whose every thread
//! fails — or whose decode worker panics — fails its *job*; a failed
//! job never fails the batch, which reports per-job
//! `Ok`/`Err(DiagnosisError)` plus degradation counters.

use crate::daemon::FrameError;
use lazy_trace::decoder::DecodeError;
use lazy_trace::wire::WireError;
use std::fmt;

/// A typed failure from any stage of the diagnosis pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiagnosisError {
    /// The snapshot's wire encoding was rejected (bad magic/version,
    /// truncation, checksum mismatch, corrupt field).
    Wire(WireError),
    /// A single thread's packet stream could not be decoded.
    Decode(DecodeError),
    /// No thread in the snapshot produced a decodable trace; `source`
    /// is the last per-thread decode failure seen.
    Processing {
        /// How many threads the snapshot carried.
        threads: usize,
        /// The last per-thread decode error.
        source: DecodeError,
    },
    /// Diagnosis was asked to run with no failing snapshots at all.
    EmptyReport,
    /// The points-to stage failed (e.g. an unresolvable scope).
    PointsTo {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A pipeline worker panicked or its lock was poisoned; the job it
    /// was carrying is failed, the rest of the batch proceeds.
    WorkerPanic {
        /// Which stage's worker failed ("decode", "process", "diagnose").
        stage: &'static str,
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The daemon's framed transport rejected a frame or payload (bad
    /// magic, kind, length, checksum, truncation, or socket I/O).
    Frame(FrameError),
    /// The remote diagnosis daemon reported a failure for this request:
    /// a typed error response, an admission (`Busy`) rejection, or a
    /// deadline timeout. `detail` is the server's message.
    Remote {
        /// The server's error text.
        detail: String,
    },
    /// The fleet coordination layer failed as a whole: no shards were
    /// configured, every shard failed a protocol round, or a shard was
    /// asked to continue a session it never started. Single-shard
    /// failures do *not* raise this — the coordinator degrades and
    /// diagnoses from the survivors, reporting the casualties in
    /// [`crate::fleet::FleetOutcome::shard_reports`].
    Fleet {
        /// Human-readable description of the coordination failure.
        detail: String,
    },
}

impl fmt::Display for DiagnosisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosisError::Wire(e) => write!(f, "wire decode failed: {e}"),
            DiagnosisError::Decode(e) => write!(f, "trace decode failed: {e}"),
            DiagnosisError::Processing { threads, source } => {
                write!(f, "no decodable thread among {threads}: {source}")
            }
            DiagnosisError::EmptyReport => {
                write!(f, "no failing snapshots to diagnose")
            }
            DiagnosisError::PointsTo { detail } => {
                write!(f, "points-to analysis failed: {detail}")
            }
            DiagnosisError::WorkerPanic { stage, detail } => {
                write!(f, "{stage} worker panicked: {detail}")
            }
            DiagnosisError::Frame(e) => write!(f, "frame transport failed: {e}"),
            DiagnosisError::Remote { detail } => {
                write!(f, "remote diagnosis failed: {detail}")
            }
            DiagnosisError::Fleet { detail } => {
                write!(f, "fleet coordination failed: {detail}")
            }
        }
    }
}

impl std::error::Error for DiagnosisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiagnosisError::Wire(e) => Some(e),
            DiagnosisError::Decode(e) | DiagnosisError::Processing { source: e, .. } => Some(e),
            DiagnosisError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for DiagnosisError {
    fn from(e: WireError) -> Self {
        DiagnosisError::Wire(e)
    }
}

impl From<DecodeError> for DiagnosisError {
    fn from(e: DecodeError) -> Self {
        DiagnosisError::Decode(e)
    }
}

impl From<FrameError> for DiagnosisError {
    fn from(e: FrameError) -> Self {
        DiagnosisError::Frame(e)
    }
}

impl DiagnosisError {
    /// Builds a [`DiagnosisError::WorkerPanic`] from a caught panic
    /// payload, extracting the message when the payload is a string
    /// (the overwhelmingly common case for `panic!`/`unwrap`).
    pub fn from_panic(stage: &'static str, payload: Box<dyn std::any::Any + Send>) -> Self {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        DiagnosisError::WorkerPanic { stage, detail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_and_decode_errors_convert() {
        let e: DiagnosisError = WireError::Truncated.into();
        assert_eq!(e, DiagnosisError::Wire(WireError::Truncated));
        let e: DiagnosisError = DecodeError::NoSync.into();
        assert_eq!(e, DiagnosisError::Decode(DecodeError::NoSync));
    }

    #[test]
    fn from_panic_extracts_string_payloads() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        match DiagnosisError::from_panic("decode", p) {
            DiagnosisError::WorkerPanic { stage, detail } => {
                assert_eq!(stage, "decode");
                assert_eq!(detail, "boom 7");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn display_is_stage_prefixed() {
        let e = DiagnosisError::Processing {
            threads: 4,
            source: DecodeError::NoSync,
        };
        assert!(e.to_string().contains("no decodable thread among 4"));
        let e = DiagnosisError::from(WireError::BadChecksum);
        assert!(e.to_string().starts_with("wire decode failed"));
    }
}
