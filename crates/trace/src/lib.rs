#![warn(missing_docs)]
// Panic-freedom policy: pipeline code must surface typed errors, never
// unwrap its way past them. Tests keep the ergonomic forms.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lazy-trace — hardware-style control-flow tracing
//!
//! This crate models the Intel Processor Trace (PT) capability that
//! Snorlax's client side depends on (§5 of the paper), at the level of
//! fidelity the diagnosis server actually observes:
//!
//! * **Packets** ([`packet`]): a byte-level packet protocol mirroring PT's
//!   — `PSB` sync points, `TNT` packed taken/not-taken conditional-branch
//!   bits, `TIP` indirect-target packets with last-IP compression, `FUP`
//!   flow updates, and the timing packets `TSC`, `MTC`, and `CYC`. Timing
//!   packets are *coarse and quantized*; this is the crate-level
//!   embodiment of the coarse interleaving hypothesis: the decoder can
//!   recover only a partial order of instructions.
//! * **Ring buffers** ([`ring`]): per-thread fixed-size buffers with
//!   overwrite-oldest semantics (the paper's 64 KB default), so a
//!   snapshot may begin mid-packet and the decoder must re-synchronize at
//!   the first `PSB`.
//! * **Encoder/decoder** ([`encoder`], [`decoder`]): the encoder is fed by
//!   the execution substrate (branch outcomes, indirect targets, virtual
//!   TSC); the decoder replays the module CFG against the packet stream
//!   and produces a [`DecodedTrace`] of executed instructions with
//!   [`TimeBounds`] windows between timing packets.
//! * **Driver** ([`driver`]): the kernel-driver facade — per-thread
//!   buffers, snapshot-on-failure, and breakpoint-PC-triggered snapshots
//!   (the paper's ioctl interface used to collect traces from *successful*
//!   executions at a previous failure's location).
//! * **Fan-out** ([`fanout`]): the one scoped worker helper that every
//!   parallel stage, from PSB-sharded decode up to the fleet's rounds,
//!   runs its tasks on.

pub mod config;
pub mod corrupt;
pub mod decoder;
pub mod driver;
pub mod encoder;
pub mod fanout;
pub mod packet;
pub mod ring;
pub mod stats;
pub mod wire;

pub use config::TraceConfig;
pub use corrupt::{CorruptionOp, Corruptor};
pub use decoder::{
    decode_thread_trace, decode_thread_trace_adaptive, decode_thread_trace_compiled,
    decode_thread_trace_legacy, decode_thread_trace_sharded, drain_event_pool, recycle_events,
    DecodeError, DecodedEvent, DecodedTrace, ExecIndex, TimeBounds, WalkTable, EXIT_TARGET,
};
pub use driver::{
    SnapshotTrigger, SnapshotView, ThreadTrace, ThreadTraceView, TraceDriver, TraceSnapshot,
};
pub use encoder::Encoder;
pub use fanout::{core_count, fan_out, resolve_workers, BusyMark};
pub use packet::{find_psb, find_psb_scalar, Packet, PacketDecoder, PacketEncoder, PSB_MARKER};
pub use ring::RingBuffer;
pub use stats::TraceStats;
pub use wire::{
    decode_snapshot, decode_snapshot_view, encode_snapshot, fnv1a32, WireError, WIRE_VERSION,
};
