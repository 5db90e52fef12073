//! Trace decoding: packet stream + module CFG → executed instructions
//! with coarse time windows.
//!
//! Decoding mirrors a real Intel PT software decoder (the paper uses
//! Intel's stock decoder, §5): synchronize at a `PSB`, anchor the clock
//! from the following `TSC`, anchor the instruction pointer from the
//! following `FUP`, then *walk the program's control-flow graph*,
//! consuming a TNT bit at each conditional branch and a TIP packet at
//! each indirect transfer or return. Timing packets interleaved with the
//! control packets bound each decoded instruction inside a coarse
//! [`TimeBounds`] window — the partial order of the paper's step 3.
//!
//! # Decode strategies
//!
//! Three entry points produce bit-identical [`DecodedTrace`]s:
//!
//! * [`decode_thread_trace`] — the production path: a **single fused
//!   streaming pass**. Packets are parsed, clocked, and walked one at a
//!   time; no intermediate `Vec<Packet>` or per-packet timestamp vector
//!   is ever materialized.
//! * [`decode_thread_trace_sharded`] — splits the byte stream at `PSB`
//!   boundaries and decodes the shards on worker threads. A `PSB`
//!   resets last-IP compression and (with timing on) is followed by a
//!   full `TSC` re-anchor, so a shard's packet and clock reconstruction
//!   is independent of its predecessors; only the tiny CFG-walk carry
//!   state (current PC + last control time) crosses the boundary, and a
//!   cheap sequential *stitch* recomputes each shard's head region with
//!   the true carried state, validates that the speculative decode
//!   converged, and falls back to sequential decode of a shard when it
//!   did not. See `DESIGN.md` ("Parallel trace decode") for the
//!   soundness argument.
//! * [`decode_thread_trace_legacy`] — the original three-pass decoder
//!   (packet vec → timestamp vec → CFG walk), kept as the differential
//!   baseline for tests and benches.

use crate::config::TraceConfig;
use crate::fanout::{fan_out, resolve_workers};
use crate::packet::{Packet, PacketDecoder};
use lazy_ir::{InstKind, Module, Pc};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Sentinel TIP target meaning "execution left traced code" (thread
/// exit). The VM emits it when a thread's entry function returns.
pub const EXIT_TARGET: u64 = 0;

/// A coarse time window `[lo, hi]` (virtual nanoseconds) within which an
/// instruction executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeBounds {
    /// Time of the last timing packet preceding the instruction.
    pub lo: u64,
    /// Time of the first timing packet following it (or the snapshot
    /// time).
    pub hi: u64,
}

impl TimeBounds {
    /// Returns `true` if this window is entirely before `other` — the
    /// "executes before" relation of the paper's Figure 5. Windows that
    /// overlap are *unordered*: the coarse interleaving hypothesis says
    /// target events of real bugs won't overlap.
    pub fn definitely_before(&self, other: &TimeBounds) -> bool {
        self.hi < other.lo
    }

    /// Returns `true` if the two windows overlap (no order recoverable).
    pub fn overlaps(&self, other: &TimeBounds) -> bool {
        !self.definitely_before(other) && !other.definitely_before(self)
    }

    /// Window width in nanoseconds.
    pub fn width(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }
}

/// One executed-instruction record in a decoded trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodedEvent {
    /// The instruction's program counter.
    pub pc: Pc,
    /// The coarse execution-time window.
    pub time: TimeBounds,
}

/// A decoded per-thread trace: executed instructions in program order
/// with coarse time windows.
#[derive(Clone, Debug, Default)]
pub struct DecodedTrace {
    /// Executed instructions, oldest first.
    pub events: Vec<DecodedEvent>,
    /// Number of packet-level resynchronizations performed (nonzero when
    /// the ring buffer wrapped mid-packet or packets were lost).
    pub resyncs: u32,
    /// `CYC` deltas dropped because no time anchor (`TSC`/`MTC`)
    /// preceded them — time information silently lost at the head of a
    /// wrapped buffer or after corruption.
    pub cyc_dropped: u64,
    /// `MTC` packets carrying a coarse byte identical to the current
    /// counter — duplicated packets (corruption, a PSB splice) that a
    /// naive unwrap would misread as a full 8-bit wrap, advancing
    /// virtual time by a spurious 256 ticks. Counted, not applied.
    pub mtc_dups: u64,
}

impl DecodedTrace {
    /// Iterates over the distinct PCs that appear in the trace.
    pub fn executed_pcs(&self) -> impl Iterator<Item = Pc> + '_ {
        let mut seen = std::collections::HashSet::new();
        self.events
            .iter()
            .filter_map(move |e| seen.insert(e.pc).then_some(e.pc))
    }
}

/// A decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The snapshot contains no `PSB`; nothing can be decoded.
    NoSync,
    /// The CFG walk and the packet stream disagree (corrupt trace or
    /// wrong module).
    Desync(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::NoSync => write!(f, "no PSB sync point in trace"),
            DecodeError::Desync(msg) => write!(f, "decoder desynchronized: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// How control leaves an instruction, precomputed for the decode walk.
#[derive(Clone, Copy, Debug)]
enum Transfer {
    /// Falls through to `pc + 4`.
    Linear,
    /// Unconditional branch to a block entry.
    Br { target: u64 },
    /// Conditional branch; consumes one TNT bit.
    CondBr { then_pc: u64, else_pc: u64 },
    /// Direct call; target is statically known.
    Call { callee: u64 },
    /// Indirect call; consumes a TIP packet.
    ICall,
    /// Return; consumes a TIP packet (the driver traces returns as
    /// indirect transfers, like PT without RET compression).
    Ret,
    /// Whole-program halt; the walk ends.
    Halt,
    /// A PC-stride slot with no instruction (function-alignment gap).
    Unmapped,
}

/// A precomputed walk table for a module: PC → outgoing transfer.
///
/// Build once per module, reuse across every decode. The table is a
/// **dense** `Vec` indexed by the module's PC slot
/// ([`Module::stride_slot`], `(pc - TEXT_BASE) / PC_STRIDE`) — the walk
/// probes it once per decoded instruction, and a bounds-checked array
/// load beats a `HashMap` probe by an order of magnitude on that path.
/// Function-alignment gaps hold [`Transfer::Unmapped`]. Beside each
/// step the index records whether the slot's instruction has a pointer
/// operand ([`ExecIndex::has_pointer_operand`]).
#[derive(Clone, Debug)]
pub struct ExecIndex {
    steps: Vec<Transfer>,
    /// Per slot: the instruction has a pointer operand
    /// ([`InstKind::pointer_operand`]).
    pointer: Vec<bool>,
}

impl ExecIndex {
    /// Builds the walk table for `module`.
    pub fn build(module: &Module) -> ExecIndex {
        let slots = module.pc_slot_count();
        let mut steps = vec![Transfer::Unmapped; slots];
        let mut pointer = vec![false; slots];
        for func in module.functions() {
            // Empty blocks have no entry PC; a branch into one resolves
            // to NO_ENTRY, which sits below TEXT_BASE and therefore
            // walks to a clean `Desync` instead of panicking here. A
            // well-formed module never hits this, but `build` must be
            // total over whatever IR reaches it.
            const NO_ENTRY: u64 = 0;
            let entry_pc: HashMap<_, _> = func
                .blocks
                .iter()
                .filter_map(|b| b.insts.first().map(|i| (b.id, i.pc.0)))
                .collect();
            let entry = |id| entry_pc.get(id).copied().unwrap_or(NO_ENTRY);
            for block in &func.blocks {
                for inst in &block.insts {
                    let t = match &inst.kind {
                        InstKind::Br { target } => Transfer::Br {
                            target: entry(target),
                        },
                        InstKind::CondBr {
                            then_bb, else_bb, ..
                        } => Transfer::CondBr {
                            then_pc: entry(then_bb),
                            else_pc: entry(else_bb),
                        },
                        InstKind::Call { callee, .. } => Transfer::Call {
                            callee: module.func(*callee).base_pc.0,
                        },
                        InstKind::CallIndirect { .. } => Transfer::ICall,
                        InstKind::Ret { .. } => Transfer::Ret,
                        InstKind::Halt => Transfer::Halt,
                        _ => Transfer::Linear,
                    };
                    if let Some(slot) = module.pc_slot(inst.pc) {
                        steps[slot] = t;
                        pointer[slot] = inst.kind.pointer_operand().is_some();
                    }
                }
            }
        }
        ExecIndex { steps, pointer }
    }

    /// Number of dense PC slots, the module's
    /// [`Module::pc_slot_count`]. Every PC the decoder emits has a slot
    /// below this bound.
    pub fn slot_count(&self) -> usize {
        self.steps.len()
    }

    /// The module's dense slot of `pc` ([`Module::stride_slot`]), or
    /// `None` when `pc` is below `TEXT_BASE`, off the stride, or past
    /// the module's last instruction. Distinct placeable PCs get
    /// distinct slots, and [`Module::slot_pc`] inverts the mapping.
    #[inline]
    pub fn slot(&self, pc: Pc) -> Option<usize> {
        Module::stride_slot(pc).filter(|&slot| slot < self.steps.len())
    }

    /// Whether the instruction at dense slot `slot` has a pointer
    /// operand: a load, store or free, or a mutex, rwlock or condvar
    /// operation. `false` for gaps and out-of-range slots.
    #[inline]
    pub fn has_pointer_operand(&self, slot: usize) -> bool {
        self.pointer.get(slot).copied().unwrap_or(false)
    }

    #[inline]
    fn get(&self, pc: u64) -> Option<Transfer> {
        match self.steps.get(Module::stride_slot(Pc(pc))?) {
            None | Some(Transfer::Unmapped) => None,
            Some(t) => Some(*t),
        }
    }
}

/// Cap on pooled event buffers (see [`recycle_events`]). Eight covers
/// a full outer×inner decode fan-out's steady state without hoarding.
const EVENT_POOL_MAX: usize = 8;

/// Recycled event buffers. Decoded traces are multi-megabyte `Vec`s;
/// allocating one per decode makes the decoder fault every output page
/// on first touch, which profiles as ~a third of total decode time on
/// large streams. The serving loop decodes continuously, so buffers
/// whose events have been consumed are parked here and reused — warm
/// pages, no faults. Buffers enter via [`recycle_events`] (callers) and
/// the sharded stitch (speculative shard buffers it has spliced out).
static EVENT_POOL: std::sync::Mutex<Vec<Vec<DecodedEvent>>> = std::sync::Mutex::new(Vec::new());

/// An empty events buffer, reusing pooled (already-faulted) capacity
/// when available.
fn pool_take() -> Vec<DecodedEvent> {
    match EVENT_POOL.lock() {
        Ok(mut pool) => pool.pop().unwrap_or_default(),
        Err(_) => Vec::new(),
    }
}

fn pool_put(mut buf: Vec<DecodedEvent>) {
    if buf.capacity() == 0 {
        return;
    }
    if let Ok(mut pool) = EVENT_POOL.lock() {
        if pool.len() < EVENT_POOL_MAX {
            buf.clear();
            pool.push(buf);
        }
    }
}

/// Returns a consumed trace's event buffer to the decoder's reuse pool.
///
/// Call this once a [`DecodedTrace`]'s events have been fully consumed
/// (aggregated, compared, rendered). Entirely optional — it only makes
/// the *next* decode cheaper by handing it an already-faulted buffer.
pub fn recycle_events(trace: DecodedTrace) {
    pool_put(trace.events);
}

/// Frees every pooled event buffer.
///
/// For benchmarks that need a cold one-shot baseline, and for callers
/// that want the retained capacity back after a decode burst.
pub fn drain_event_pool() {
    if let Ok(mut pool) = EVENT_POOL.lock() {
        pool.clear();
    }
}

/// Walk fuel: the interpreted and compiled walks must apply exactly the
/// same budget for their "walk did not terminate" errors to coincide.
const WALK_FUEL: u64 = 10_000_000;

fn walk_fuel_exhausted() -> DecodeError {
    DecodeError::Desync("walk did not terminate".into())
}

/// How a compiled straight-line run ends.
#[derive(Clone, Copy, Debug)]
enum RunEnd {
    /// The run's last body instruction transfers unconditionally to
    /// `next` (an unconditional branch, a direct call, or straight-line
    /// fallthrough off the block end).
    Jump {
        /// PC the walk continues at.
        next: u64,
    },
    /// Conditional branch at `pc` — consumes a TNT bit.
    CondBr {
        /// The branch instruction's PC (not part of the body).
        pc: u64,
        /// Taken target.
        then_pc: u64,
        /// Not-taken target.
        else_pc: u64,
    },
    /// Indirect call or return at `pc` — consumes a TIP packet. A TNT
    /// walk passes through it linearly (`pc + stride`); a TIP walk
    /// stops on it.
    Indirect {
        /// The transfer instruction's PC (not part of the body).
        pc: u64,
    },
    /// Whole-program halt at `pc`; the walk ends.
    Halt {
        /// The halt instruction's PC (not part of the body).
        pc: u64,
    },
}

/// One compiled straight-line run: `body_len` consecutive instructions
/// from `start_pc` (spaced `Module::PC_STRIDE` apart), then `end`.
#[derive(Clone, Copy, Debug)]
struct Run {
    start_pc: u64,
    body_len: u32,
    end: RunEnd,
}

/// Cap on flattened jump-chain hops. A decision-free jump cycle would
/// otherwise never terminate at build time; a capped chain simply ends
/// in [`ChainEnd::Next`] and the walk loop re-probes from there.
const CHAIN_MAX_HOPS: u32 = 64;

/// Minimum mean run-body length (events per decision) for the compiled
/// walk to pay for itself. Each compiled step replaces per-instruction
/// index probes with one run probe plus a chain load — a win when runs
/// carry a few events each, a small constant loss on degenerate modules
/// whose blocks are one or two instructions long (the bulk extends
/// degenerate to single pushes while the chain bookkeeping remains).
/// Measured crossover on the bench corpus sits between ~1.8 (compiled
/// loses a few percent) and ~4.5 (compiled wins ~1.1x) events/decision.
const PROFITABLE_MEAN_BODY: f64 = 3.0;

/// One flattened run body inside a jump chain: `len` consecutive
/// instructions from `start_pc`.
#[derive(Clone, Copy, Debug)]
struct Seg {
    start_pc: u64,
    len: u32,
}

/// Where a flattened jump chain lands.
#[derive(Clone, Copy, Debug)]
enum ChainEnd {
    /// Same decision semantics as the matching [`RunEnd`] variants.
    CondBr {
        pc: u64,
        then_pc: u64,
        else_pc: u64,
    },
    Indirect {
        pc: u64,
    },
    Halt {
        pc: u64,
    },
    /// The chain stopped without reaching a decision (unmapped or
    /// mid-run jump target, thread-exit sentinel, or hop cap): the walk
    /// continues interpreting from `pc`.
    Next {
        pc: u64,
    },
}

/// The flattened continuation of a [`RunEnd::Jump`] run: every body the
/// walk is guaranteed to traverse after the run's own, following
/// unconditional transfers until the next decision point. Turns a
/// jump-linked sequence of runs (block → called leaf → …) into one
/// probe, a handful of bulk emits, and a single precomputed fuel check
/// (`segs_total`).
#[derive(Clone, Copy, Debug)]
struct Chain {
    seg_lo: u32,
    seg_hi: u32,
    /// Total events across the chain's segments — the originating
    /// run's own (offset-dependent) body is accounted separately.
    segs_total: u64,
    end: ChainEnd,
}

/// A compiled per-module walk specialization.
///
/// [`ExecIndex`] answers "how does control leave *this instruction*";
/// the decode walk interprets it one instruction at a time — a
/// bounds-checked load and an 8-way match per decoded event. A
/// `WalkTable` precomputes the module's **straight-line runs** (maximal
/// stretches the walk always traverses whole: within a basic block,
/// split at call sites because a callee's return re-enters mid-block)
/// so the hot TNT/TIP walks advance a run at a time: bulk-append the
/// run body (consecutive PCs, constant time window — a loop the
/// compiler vectorizes) and switch once on the run's end.
///
/// Every mapped PC belongs to exactly one run (decision instructions
/// carry offset == `body_len`), so compiled walks never fall back
/// mid-walk. The table is built once per module — typically at a
/// server's first decode — and shared read-only across every decode
/// job, thread, shard, and fleet round thereafter.
///
/// Byte-identity with the interpreted walk (events, time windows, error
/// messages, and the [`WALK_FUEL`] budget) is pinned by the decoder's
/// differential tests, `tests/proptests.rs`, and the full-corpus suite.
#[derive(Clone, Debug)]
pub struct WalkTable {
    /// Module PC slot ([`Module::stride_slot`]) → run id + 1; 0 =
    /// unmapped.
    slot_run: Vec<u32>,
    runs: Vec<Run>,
    /// Per-run flattened jump chains (parallel to `runs`; only
    /// meaningful for [`RunEnd::Jump`] runs).
    chains: Vec<Chain>,
    /// Segment pool the chains index into.
    segs: Vec<Seg>,
    /// Whether the module's runs are long enough for the compiled walk
    /// to beat the interpreted one (see [`PROFITABLE_MEAN_BODY`]).
    profitable: bool,
}

impl WalkTable {
    /// Compiles the walk table for `module`.
    ///
    /// Mirrors [`ExecIndex::build`]'s iteration exactly so both cover
    /// the same PC set; assumes each PC belongs to at most one
    /// instruction (the module builder's layout guarantee).
    pub fn build(module: &Module) -> WalkTable {
        lazy_obs::counter!("decode.walk_table.build", 1u64);
        let mut slot_run = vec![0u32; module.pc_slot_count()];
        let mut runs: Vec<Run> = Vec::new();
        for func in module.functions() {
            // NO_ENTRY mirrors ExecIndex::build: a branch into an empty
            // block resolves below TEXT_BASE and the walk surfaces a
            // clean Desync (or thread exit, since NO_ENTRY == 0).
            const NO_ENTRY: u64 = 0;
            let entry_pc: HashMap<_, _> = func
                .blocks
                .iter()
                .filter_map(|b| b.insts.first().map(|i| (b.id, i.pc.0)))
                .collect();
            let entry = |id| entry_pc.get(id).copied().unwrap_or(NO_ENTRY);
            for block in &func.blocks {
                let mut i = 0usize;
                while i < block.insts.len() {
                    let start_pc = block.insts[i].pc.0;
                    let mut body = 0u32;
                    let mut expect = start_pc;
                    let end = loop {
                        let Some(inst) = block.insts.get(i) else {
                            // Ran off the block without a terminator:
                            // the interpreted walk falls through
                            // linearly to the next PC.
                            break RunEnd::Jump { next: expect };
                        };
                        let pc = inst.pc.0;
                        if pc != expect {
                            // Non-contiguous layout inside a block —
                            // end the run where interpreted fallthrough
                            // would land (usually unmapped → Desync).
                            break RunEnd::Jump { next: expect };
                        }
                        i += 1;
                        match &inst.kind {
                            InstKind::Br { target } => {
                                body += 1;
                                break RunEnd::Jump {
                                    next: entry(target),
                                };
                            }
                            InstKind::CondBr {
                                then_bb, else_bb, ..
                            } => {
                                break RunEnd::CondBr {
                                    pc,
                                    then_pc: entry(then_bb),
                                    else_pc: entry(else_bb),
                                }
                            }
                            InstKind::Call { callee, .. } => {
                                body += 1;
                                break RunEnd::Jump {
                                    next: module.func(*callee).base_pc.0,
                                };
                            }
                            InstKind::CallIndirect { .. } | InstKind::Ret { .. } => {
                                break RunEnd::Indirect { pc }
                            }
                            InstKind::Halt => break RunEnd::Halt { pc },
                            _ => {
                                body += 1;
                                expect = pc + Module::PC_STRIDE;
                            }
                        }
                    };
                    let id = runs.len() as u32;
                    let mut claim = |pc: u64| {
                        if let Some(slot) = module.pc_slot(Pc(pc)) {
                            slot_run[slot] = id + 1;
                        }
                    };
                    for k in 0..u64::from(body) {
                        claim(start_pc + k * Module::PC_STRIDE);
                    }
                    if let RunEnd::CondBr { pc, .. }
                    | RunEnd::Indirect { pc }
                    | RunEnd::Halt { pc } = end
                    {
                        claim(pc);
                    }
                    runs.push(Run {
                        start_pc,
                        body_len: body,
                        end,
                    });
                }
            }
        }
        // Second pass: flatten each Jump run's unconditional
        // continuation into a chain of whole-run segments ending at the
        // next decision point. Chains only extend through targets that
        // are run *starts*; anything else (mid-run landing, unmapped PC,
        // thread-exit sentinel) ends the chain and the walk loop
        // re-probes from there, so flattening never changes semantics.
        let run_at = |pc: u64| -> Option<(Run, u32)> {
            let id = *slot_run.get(Module::stride_slot(Pc(pc))?)?;
            let run = *runs.get(id.checked_sub(1)? as usize)?;
            Some((run, ((pc - run.start_pc) / Module::PC_STRIDE) as u32))
        };
        let mut chains = Vec::with_capacity(runs.len());
        let mut segs: Vec<Seg> = Vec::new();
        for r in &runs {
            let seg_lo = segs.len() as u32;
            let mut total = 0u64;
            let mut end = ChainEnd::Next { pc: 0 };
            if let RunEnd::Jump { next } = r.end {
                let mut next = next;
                let mut hops = 0u32;
                loop {
                    let Some((nr, 0)) = run_at(next) else {
                        end = ChainEnd::Next { pc: next };
                        break;
                    };
                    if nr.body_len > 0 {
                        segs.push(Seg {
                            start_pc: nr.start_pc,
                            len: nr.body_len,
                        });
                        total += u64::from(nr.body_len);
                    }
                    match nr.end {
                        RunEnd::Jump { next: n2 } => {
                            hops += 1;
                            if hops >= CHAIN_MAX_HOPS {
                                end = ChainEnd::Next { pc: n2 };
                                break;
                            }
                            next = n2;
                        }
                        RunEnd::CondBr {
                            pc,
                            then_pc,
                            else_pc,
                        } => {
                            end = ChainEnd::CondBr {
                                pc,
                                then_pc,
                                else_pc,
                            };
                            break;
                        }
                        RunEnd::Indirect { pc } => {
                            end = ChainEnd::Indirect { pc };
                            break;
                        }
                        RunEnd::Halt { pc } => {
                            end = ChainEnd::Halt { pc };
                            break;
                        }
                    }
                }
            }
            chains.push(Chain {
                seg_lo,
                seg_hi: segs.len() as u32,
                segs_total: total,
                end,
            });
        }
        let bodies: u64 = runs.iter().map(|r| u64::from(r.body_len)).sum();
        let profitable =
            !runs.is_empty() && bodies as f64 / runs.len() as f64 >= PROFITABLE_MEAN_BODY;
        WalkTable {
            slot_run,
            runs,
            chains,
            segs,
            profitable,
        }
    }

    /// Whether the compiled walk is expected to beat the interpreted
    /// one on this module (mean run body ≥ [`PROFITABLE_MEAN_BODY`]
    /// events per decision). The adaptive decoder consults this to
    /// decide whether a cached table is worth engaging; forcing the
    /// table via [`decode_thread_trace_compiled`] ignores it.
    #[inline]
    #[must_use]
    pub fn is_profitable(&self) -> bool {
        self.profitable
    }

    /// The run containing `pc`, with `pc`'s offset into it (equal to
    /// `body_len` when `pc` is the run's decision instruction) and the
    /// run's id (the index into `chains`).
    #[inline]
    fn run_of(&self, pc: u64) -> Option<(Run, u32, u32)> {
        let id = *self.slot_run.get(Module::stride_slot(Pc(pc))?)?;
        if id == 0 {
            return None;
        }
        let run = *self.runs.get((id - 1) as usize)?;
        let run_off = (pc.wrapping_sub(run.start_pc) / Module::PC_STRIDE) as u32;
        Some((run, run_off, id - 1))
    }

    /// Appends every segment of `chain` (bodies the walk traverses
    /// whole, each a bulk extend with one constant time window).
    #[inline]
    fn emit_chain(&self, events: &mut Vec<DecodedEvent>, chain: &Chain, time: TimeBounds) {
        for seg in &self.segs[chain.seg_lo as usize..chain.seg_hi as usize] {
            emit_span(events, seg.start_pc, seg.len, time);
        }
    }

    /// Compiled twin of [`walk`] with stop = "is a conditional branch".
    ///
    /// Returns the branch's `(then, else)` targets, or `None` when the
    /// walk ended without one (halt / thread exit). Event emission,
    /// time-window choice, fuel accounting, and error text are
    /// byte-identical to the interpreted walk.
    fn walk_to_condbr(
        &self,
        cur: &mut Option<u64>,
        events: &mut Vec<DecodedEvent>,
        stretch: TimeBounds,
        tight: TimeBounds,
    ) -> Result<Option<(u64, u64)>, DecodeError> {
        let mut fuel = WALK_FUEL;
        while let Some(pc) = *cur {
            let Some((run, off, id)) = self.run_of(pc) else {
                if pc == EXIT_TARGET {
                    *cur = None;
                    return Ok(None);
                }
                return Err(DecodeError::Desync(format!(
                    "walked to unmapped pc {pc:#x}"
                )));
            };
            let body = u64::from(run.body_len - off);
            match run.end {
                RunEnd::Jump { .. } => {
                    // Take the precomputed chain: the run's own body
                    // plus every jump-linked body through to the next
                    // decision, one fuel check for the lot. The
                    // interpreted walk burns one fuel per emitted
                    // (non-stopping) event; erroring at >= keeps the
                    // exhaustion point identical (events emitted before
                    // a walk error are unobservable — the decode
                    // returns `Err`).
                    let chain = self.chains[id as usize];
                    let total = body + chain.segs_total;
                    match chain.end {
                        ChainEnd::CondBr {
                            pc: dec,
                            then_pc,
                            else_pc,
                        } => {
                            if total >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            events.push(DecodedEvent {
                                pc: Pc(dec),
                                time: tight,
                            });
                            *cur = Some(dec);
                            return Ok(Some((then_pc, else_pc)));
                        }
                        ChainEnd::Indirect { pc: dec } => {
                            if total + 1 >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            fuel -= total + 1;
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            events.push(DecodedEvent {
                                pc: Pc(dec),
                                time: stretch,
                            });
                            *cur = Some(dec + Module::PC_STRIDE);
                        }
                        ChainEnd::Halt { pc: dec } => {
                            if total + 1 >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            events.push(DecodedEvent {
                                pc: Pc(dec),
                                time: stretch,
                            });
                            *cur = None;
                        }
                        ChainEnd::Next { pc: next } => {
                            if total >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            fuel -= total;
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            *cur = Some(next);
                        }
                    }
                }
                RunEnd::CondBr {
                    pc: dec,
                    then_pc,
                    else_pc,
                } => {
                    if body >= fuel {
                        return Err(walk_fuel_exhausted());
                    }
                    emit_run_body(events, &run, off, stretch);
                    events.push(DecodedEvent {
                        pc: Pc(dec),
                        time: tight,
                    });
                    *cur = Some(dec);
                    return Ok(Some((then_pc, else_pc)));
                }
                RunEnd::Indirect { pc: dec } => {
                    // Not a stop for this predicate: the transfer is
                    // emitted like a body event and the walk continues
                    // past it linearly.
                    if body + 1 >= fuel {
                        return Err(walk_fuel_exhausted());
                    }
                    fuel -= body + 1;
                    emit_run_body(events, &run, off, stretch);
                    events.push(DecodedEvent {
                        pc: Pc(dec),
                        time: stretch,
                    });
                    *cur = Some(dec + Module::PC_STRIDE);
                }
                RunEnd::Halt { pc: dec } => {
                    if body + 1 >= fuel {
                        return Err(walk_fuel_exhausted());
                    }
                    emit_run_body(events, &run, off, stretch);
                    events.push(DecodedEvent {
                        pc: Pc(dec),
                        time: stretch,
                    });
                    *cur = None;
                }
            }
        }
        Ok(None)
    }

    /// Compiled twin of [`walk`] with stop = "is an indirect transfer".
    ///
    /// Returns `true` when the walk stopped at an indirect call/return
    /// (`cur` stays on it), `false` when it ended without one.
    fn walk_to_indirect(
        &self,
        cur: &mut Option<u64>,
        events: &mut Vec<DecodedEvent>,
        stretch: TimeBounds,
        tight: TimeBounds,
    ) -> Result<bool, DecodeError> {
        let mut fuel = WALK_FUEL;
        while let Some(pc) = *cur {
            let Some((run, off, id)) = self.run_of(pc) else {
                if pc == EXIT_TARGET {
                    *cur = None;
                    return Ok(false);
                }
                return Err(DecodeError::Desync(format!(
                    "walked to unmapped pc {pc:#x}"
                )));
            };
            let body = u64::from(run.body_len - off);
            match run.end {
                RunEnd::Jump { .. } => {
                    let chain = self.chains[id as usize];
                    let total = body + chain.segs_total;
                    match chain.end {
                        ChainEnd::Indirect { pc: dec } => {
                            if total >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            events.push(DecodedEvent {
                                pc: Pc(dec),
                                time: tight,
                            });
                            *cur = Some(dec);
                            return Ok(true);
                        }
                        ChainEnd::CondBr { pc: dec, .. } => {
                            // See the direct `RunEnd::CondBr` arm: the
                            // branch is emitted (stretch window), then
                            // the transfer resolution errors.
                            if total >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            events.push(DecodedEvent {
                                pc: Pc(dec),
                                time: stretch,
                            });
                            return Err(DecodeError::Desync(format!(
                                "unexpected conditional branch at {dec:#x} without a TNT bit"
                            )));
                        }
                        ChainEnd::Halt { pc: dec } => {
                            if total + 1 >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            events.push(DecodedEvent {
                                pc: Pc(dec),
                                time: stretch,
                            });
                            *cur = None;
                        }
                        ChainEnd::Next { pc: next } => {
                            if total >= fuel {
                                return Err(walk_fuel_exhausted());
                            }
                            fuel -= total;
                            emit_run_body(events, &run, off, stretch);
                            self.emit_chain(events, &chain, stretch);
                            *cur = Some(next);
                        }
                    }
                }
                RunEnd::Indirect { pc: dec } => {
                    if body >= fuel {
                        return Err(walk_fuel_exhausted());
                    }
                    emit_run_body(events, &run, off, stretch);
                    events.push(DecodedEvent {
                        pc: Pc(dec),
                        time: tight,
                    });
                    *cur = Some(dec);
                    return Ok(true);
                }
                RunEnd::CondBr { pc: dec, .. } => {
                    // The interpreted walk emits the branch (stretch
                    // window — not a stop for this predicate) and then
                    // errors while resolving the transfer.
                    if body >= fuel {
                        return Err(walk_fuel_exhausted());
                    }
                    emit_run_body(events, &run, off, stretch);
                    events.push(DecodedEvent {
                        pc: Pc(dec),
                        time: stretch,
                    });
                    return Err(DecodeError::Desync(format!(
                        "unexpected conditional branch at {dec:#x} without a TNT bit"
                    )));
                }
                RunEnd::Halt { pc: dec } => {
                    if body + 1 >= fuel {
                        return Err(walk_fuel_exhausted());
                    }
                    emit_run_body(events, &run, off, stretch);
                    events.push(DecodedEvent {
                        pc: Pc(dec),
                        time: stretch,
                    });
                    *cur = None;
                }
            }
        }
        Ok(false)
    }
}

/// Appends a run's body events from offset `off`: consecutive PCs, one
/// constant time window — a bulk extend the optimizer unrolls, versus
/// the interpreted walk's per-event index probe + transfer match.
#[inline]
fn emit_run_body(events: &mut Vec<DecodedEvent>, run: &Run, off: u32, time: TimeBounds) {
    let start = run.start_pc + u64::from(off) * Module::PC_STRIDE;
    emit_span(events, start, run.body_len - off, time);
}

/// Appends `len` consecutive-PC events. Short spans (the common case on
/// modules with small basic blocks) take plain pushes — iterator-extend
/// setup costs more than the events themselves below a handful.
#[inline]
fn emit_span(events: &mut Vec<DecodedEvent>, start: u64, len: u32, time: TimeBounds) {
    if len <= 4 {
        for k in 0..u64::from(len) {
            events.push(DecodedEvent {
                pc: Pc(start + k * Module::PC_STRIDE),
                time,
            });
        }
    } else {
        events.extend((0..u64::from(len)).map(|k| DecodedEvent {
            pc: Pc(start + k * Module::PC_STRIDE),
            time,
        }));
    }
}

/// The walk backend one decode uses: the interpreted [`ExecIndex`] is
/// always present (rare paths — async FUP target walks, mapped-PC
/// probes — stay interpreted); the hot TNT/TIP walks dispatch to the
/// compiled [`WalkTable`] when one is attached.
#[derive(Clone, Copy)]
struct Walker<'a> {
    index: &'a ExecIndex,
    table: Option<&'a WalkTable>,
}

/// Snapshot of the clock-reconstruction state at a stream position —
/// what a shard needs to reconstruct time exactly as the sequential
/// decoder would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ClockSeed {
    time: Option<u64>,
    ctc_full: u64,
}

impl ClockSeed {
    const INITIAL: ClockSeed = ClockSeed {
        time: None,
        ctc_full: 0,
    };
}

/// Reconstructed clock while scanning the packet stream.
struct Clock {
    time: Option<u64>,
    ctc_full: u64,
    period: u64,
    shift: u32,
    /// `CYC` deltas discarded for want of a preceding anchor.
    cyc_dropped: u64,
    /// `MTC` packets whose coarse byte equaled the current counter — a
    /// duplicated packet (corruption, a PSB splice), not a wrap.
    mtc_dups: u64,
}

impl Clock {
    fn seeded(config: &TraceConfig, seed: ClockSeed) -> Clock {
        Clock {
            time: seed.time,
            ctc_full: seed.ctc_full,
            period: config.ctc_period_ns.max(1),
            shift: config.cyc_shift,
            cyc_dropped: 0,
            mtc_dups: 0,
        }
    }

    fn seed(&self) -> ClockSeed {
        ClockSeed {
            time: self.time,
            ctc_full: self.ctc_full,
        }
    }

    fn apply(&mut self, p: &Packet) {
        match p {
            Packet::Tsc { tsc } => {
                self.time = Some(*tsc);
                self.ctc_full = tsc / self.period;
            }
            Packet::Mtc { ctc } => {
                // Unwrap the 8-bit coarse counter against the last known
                // full counter value. Only a *strictly smaller* coarse
                // byte means the 8-bit counter wrapped; an identical
                // byte is a duplicated packet (after corruption or a
                // PSB splice) and must not advance virtual time by a
                // spurious 256 ticks.
                let base = self.ctc_full & !0xff;
                let mut cand = base | u64::from(*ctc);
                if cand == self.ctc_full {
                    self.mtc_dups += 1;
                    return;
                }
                if cand < self.ctc_full {
                    cand += 0x100;
                }
                self.ctc_full = cand;
                self.time = Some(cand * self.period);
            }
            Packet::Cyc { delta } => {
                if let Some(t) = self.time {
                    self.time = Some(t + (delta << self.shift));
                } else {
                    self.cyc_dropped += 1;
                }
            }
            _ => {}
        }
    }
}

/// The CFG-walk state that flows across packets (and, in sharded
/// decode, across shard boundaries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WalkState {
    /// The walk's current PC (`None` while desynchronized).
    cur: Option<u64>,
    /// Lower bound on the previous control packet's time.
    last_ctrl_lo: Option<u64>,
    /// After a PSB, the next FUP re-anchors rather than being treated
    /// as an async marker.
    expect_anchor: bool,
}

impl WalkState {
    const INITIAL: WalkState = WalkState {
        cur: None,
        last_ctrl_lo: None,
        expect_anchor: true,
    };
}

/// Walks from `cur`, emitting events, until `stop` says to pause; the
/// instruction that satisfies `stop` is emitted (with the tight window)
/// and `cur` stays on it.
fn walk(
    index: &ExecIndex,
    cur: &mut Option<u64>,
    events: &mut Vec<DecodedEvent>,
    stretch: TimeBounds,
    tight: TimeBounds,
    stop: impl Fn(Transfer, u64) -> bool,
) -> Result<Option<Transfer>, DecodeError> {
    let mut fuel = 10_000_000u64;
    while let Some(pc) = *cur {
        let Some(t) = index.get(pc) else {
            if pc == EXIT_TARGET {
                *cur = None;
                return Ok(None);
            }
            return Err(DecodeError::Desync(format!(
                "walked to unmapped pc {pc:#x}"
            )));
        };
        let stopping = stop(t, pc);
        events.push(DecodedEvent {
            pc: Pc(pc),
            time: if stopping { tight } else { stretch },
        });
        if stopping {
            return Ok(Some(t));
        }
        *cur = match t {
            Transfer::Linear | Transfer::ICall | Transfer::Ret => Some(pc + 4),
            Transfer::Br { target } => Some(target),
            Transfer::Call { callee } => Some(callee),
            Transfer::CondBr { .. } => {
                return Err(DecodeError::Desync(format!(
                    "unexpected conditional branch at {pc:#x} without a TNT bit"
                )))
            }
            Transfer::Halt | Transfer::Unmapped => None,
        };
        fuel -= 1;
        if fuel == 0 {
            return Err(DecodeError::Desync("walk did not terminate".into()));
        }
    }
    Ok(None)
}

/// Applies one packet to the walk state, emitting decoded events.
///
/// `time_now` is the reconstructed clock *after* the packet (timing
/// packets change the clock before the walk sees them; control packets
/// leave it untouched).
///
/// Window assignment leans on an encoder invariant: a timing packet is
/// emitted immediately before any control packet once more than one
/// quantum of time has passed, so the reconstructed time at a control
/// packet lags the true time of its transfer by less than one quantum.
/// Events decoded at a control packet therefore executed within
/// `[time of previous control packet, time at this packet + quantum]`;
/// the transfer instruction itself gets the tight window `[time at
/// this packet, time at this packet + quantum]`.
fn step(
    walker: Walker<'_>,
    st: &mut WalkState,
    events: &mut Vec<DecodedEvent>,
    p: &Packet,
    time_now: Option<u64>,
    quantum: u64,
    snapshot_time: u64,
) -> Result<(), DecodeError> {
    let index = walker.index;
    let hi = time_now
        .map(|t| (t + quantum).min(snapshot_time))
        .unwrap_or(snapshot_time);
    let stretch = TimeBounds {
        lo: st.last_ctrl_lo.unwrap_or(0),
        hi,
    };
    let tight = TimeBounds {
        lo: time_now.unwrap_or(0),
        hi,
    };
    match p {
        Packet::Psb => {
            // A PSB mid-stream (while in sync) is ignorable, exactly
            // as in real PT decode: resetting here would drop the
            // straight-line instructions between the last decision
            // point and the sync anchor. Only an out-of-sync decoder
            // anchors at the PSB's FUP.
            st.expect_anchor = true;
        }
        Packet::Ovf => {
            st.cur = None;
            st.expect_anchor = true;
            st.last_ctrl_lo = None;
        }
        Packet::Tsc { .. } | Packet::Mtc { .. } | Packet::Cyc { .. } => {}
        Packet::Fup { pc } => {
            if st.expect_anchor {
                if st.cur.is_none() {
                    st.cur = Some(*pc);
                    // The thread was at the anchor when the PSB's
                    // TSC was stamped.
                    st.last_ctrl_lo = time_now.or(st.last_ctrl_lo);
                }
                st.expect_anchor = false;
            } else if st.cur.is_none() {
                st.cur = Some(*pc);
                st.last_ctrl_lo = time_now.or(st.last_ctrl_lo);
            } else {
                // Async FUP (snapshot marker): walk up to and
                // including the marked instruction.
                let target = *pc;
                if st.cur == Some(target) {
                    // Walk would stop immediately; emit the marked
                    // instruction (tightly timed) if it is mapped.
                    if index.get(target).is_some() {
                        events.push(DecodedEvent {
                            pc: Pc(target),
                            time: tight,
                        });
                        // Leave `cur` in place: the marked
                        // instruction is the point of interest.
                    }
                } else {
                    walk(index, &mut st.cur, events, stretch, tight, |_, pc| {
                        pc == target
                    })?;
                }
                st.last_ctrl_lo = time_now.or(st.last_ctrl_lo);
            }
        }
        Packet::Tnt { bits, count } => {
            for b in 0..*count {
                if st.cur.is_none() {
                    // Lost sync (e.g. OVF); skip bits until re-anchor.
                    break;
                }
                let resolved = match walker.table {
                    Some(tab) => tab.walk_to_condbr(&mut st.cur, events, stretch, tight)?,
                    None => {
                        match walk(index, &mut st.cur, events, stretch, tight, |t, _| {
                            matches!(t, Transfer::CondBr { .. })
                        })? {
                            Some(Transfer::CondBr { then_pc, else_pc }) => Some((then_pc, else_pc)),
                            _ => None,
                        }
                    }
                };
                match resolved {
                    Some((then_pc, else_pc)) => {
                        let taken = bits >> b & 1 == 1;
                        st.cur = Some(if taken { then_pc } else { else_pc });
                    }
                    None => {
                        return Err(DecodeError::Desync(
                            "TNT bit with no conditional branch reachable".into(),
                        ))
                    }
                }
            }
            st.last_ctrl_lo = time_now.or(st.last_ctrl_lo);
        }
        Packet::Tip { pc } => {
            if st.cur.is_some() {
                let found = match walker.table {
                    Some(tab) => tab.walk_to_indirect(&mut st.cur, events, stretch, tight)?,
                    None => walk(index, &mut st.cur, events, stretch, tight, |t, _| {
                        matches!(t, Transfer::ICall | Transfer::Ret)
                    })?
                    .is_some(),
                };
                if !found && st.cur.is_some() {
                    return Err(DecodeError::Desync(
                        "TIP with no indirect transfer reachable".into(),
                    ));
                }
            }
            st.cur = if *pc == EXIT_TARGET { None } else { Some(*pc) };
            st.last_ctrl_lo = time_now.or(st.last_ctrl_lo);
        }
    }
    Ok(())
}

/// Decodes one thread's snapshot bytes against the module walk table —
/// the fused single-pass production decoder.
///
/// Packets are parsed, clocked, and walked in one streaming pass; no
/// packet vector is materialized. `snapshot_time` is the virtual TSC at
/// which the snapshot was taken; it upper-bounds the time window of
/// trailing events.
///
/// # Errors
///
/// Returns [`DecodeError::NoSync`] when no `PSB` is present, or
/// [`DecodeError::Desync`] when the packet stream is inconsistent with
/// the module's control flow.
pub fn decode_thread_trace(
    index: &ExecIndex,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
) -> Result<DecodedTrace, DecodeError> {
    decode_stream(Walker { index, table: None }, config, bytes, snapshot_time)
}

/// [`decode_thread_trace`] with a compiled [`WalkTable`] driving the
/// hot TNT/TIP walks. Byte-identical output, built for the warm path
/// where the table already exists in a cross-job cache.
///
/// # Errors
///
/// Same contract as [`decode_thread_trace`].
pub fn decode_thread_trace_compiled(
    index: &ExecIndex,
    table: &WalkTable,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
) -> Result<DecodedTrace, DecodeError> {
    lazy_obs::counter!("decode.walk_table.hit", 1u64);
    decode_stream(
        Walker {
            index,
            table: Some(table),
        },
        config,
        bytes,
        snapshot_time,
    )
}

// Exactly two machine-code copies of the hot loop, split on the one
// thing worth specializing: whether a compiled walk table drives the
// TNT/TIP walks. Every *interpreted* sequential entry point (fused,
// adaptive-routed-fused, shard fallback) shares one outlined copy —
// letting rustc inline the loop per call site lands duplicates with
// different code alignment and measurably different throughput, which
// the one_core bench gate (adaptive == fused on 1 core) would report
// as routing overhead. The *tabled* copy is outlined separately so the
// `Option<&WalkTable>` discriminant constant-folds out of the walk.
fn decode_stream(
    walker: Walker<'_>,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
) -> Result<DecodedTrace, DecodeError> {
    match walker.table {
        None => decode_stream_interpreted(walker.index, config, bytes, snapshot_time),
        Some(table) => decode_stream_tabled(walker.index, table, config, bytes, snapshot_time),
    }
}

#[inline(never)]
fn decode_stream_interpreted(
    index: &ExecIndex,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
) -> Result<DecodedTrace, DecodeError> {
    decode_stream_core(Walker { index, table: None }, config, bytes, snapshot_time)
}

#[inline(never)]
fn decode_stream_tabled(
    index: &ExecIndex,
    table: &WalkTable,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
) -> Result<DecodedTrace, DecodeError> {
    decode_stream_core(
        Walker {
            index,
            table: Some(table),
        },
        config,
        bytes,
        snapshot_time,
    )
}

#[inline(always)]
fn decode_stream_core(
    walker: Walker<'_>,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
) -> Result<DecodedTrace, DecodeError> {
    let _span = lazy_obs::span!("decode.stream");
    lazy_obs::counter!("decode.stream_bytes_total", bytes.len());
    let mut pdec = PacketDecoder::new(bytes);
    if !pdec.sync_to_psb() {
        return Err(DecodeError::NoSync);
    }
    let quantum = config.time_quantum_ns();
    let mut clock = Clock::seeded(config, ClockSeed::INITIAL);
    let mut st = WalkState::INITIAL;
    let mut events = pool_take();
    let mut resyncs = 0u32;
    loop {
        match pdec.next_packet() {
            Ok(Some(p)) => {
                clock.apply(&p);
                step(
                    walker,
                    &mut st,
                    &mut events,
                    &p,
                    clock.time,
                    quantum,
                    snapshot_time,
                )?;
            }
            Ok(None) => break,
            Err(_) => {
                resyncs += 1;
                if !pdec.sync_to_psb() {
                    break;
                }
            }
        }
    }
    Ok(DecodedTrace {
        events,
        resyncs,
        cyc_dropped: clock.cyc_dropped,
        mtc_dups: clock.mtc_dups,
    })
}

/// The original three-pass decoder (packet vec → per-packet timestamp
/// vec → CFG walk), kept as the differential-testing and benchmark
/// baseline for the fused and sharded paths.
///
/// # Errors
///
/// Same contract as [`decode_thread_trace`].
pub fn decode_thread_trace_legacy(
    index: &ExecIndex,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
) -> Result<DecodedTrace, DecodeError> {
    // Pass 1: parse packets, resynchronizing at the next PSB on error
    // (a wrapped ring snapshot usually starts mid-packet).
    let mut pdec = PacketDecoder::new(bytes);
    let mut resyncs = 0u32;
    if !pdec.sync_to_psb() {
        return Err(DecodeError::NoSync);
    }
    let mut packets = Vec::new();
    loop {
        match pdec.next_packet() {
            Ok(Some(p)) => packets.push(p),
            Ok(None) => break,
            Err(_) => {
                resyncs += 1;
                if !pdec.sync_to_psb() {
                    break;
                }
            }
        }
    }

    // Pass 2: reconstruct the last-known time at each packet.
    let mut clock = Clock::seeded(config, ClockSeed::INITIAL);
    let mut prev_time: Vec<Option<u64>> = Vec::with_capacity(packets.len());
    for p in &packets {
        clock.apply(p);
        prev_time.push(clock.time);
    }

    // Pass 3: CFG walk.
    let quantum = config.time_quantum_ns();
    let mut st = WalkState::INITIAL;
    let mut events = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        step(
            Walker { index, table: None },
            &mut st,
            &mut events,
            p,
            prev_time[i],
            quantum,
            snapshot_time,
        )?;
    }
    Ok(DecodedTrace {
        events,
        resyncs,
        cyc_dropped: clock.cyc_dropped,
        mtc_dups: clock.mtc_dups,
    })
}

/// One `PSB` landing found by the skim pass, with the exact clock state
/// on entry (a `PSB` packet itself never changes the clock).
#[derive(Clone, Copy, Debug)]
struct Boundary {
    offset: usize,
    clock: ClockSeed,
}

/// The skim pass: a lightweight sequential scan that finds every `PSB`
/// the sequential decoder would decode (payload bytes that merely *look*
/// like a `PSB` marker are skipped exactly as the sequential packet
/// trajectory skips them), tracks the reconstructed clock at each, and
/// performs the authoritative resync / dropped-`CYC` accounting.
struct Skim {
    boundaries: Vec<Boundary>,
    resyncs: u32,
    cyc_dropped: u64,
    mtc_dups: u64,
}

fn skim_psb_sections(config: &TraceConfig, bytes: &[u8]) -> Option<Skim> {
    let mut pdec = PacketDecoder::new(bytes);
    if !pdec.sync_to_psb() {
        return None;
    }
    let mut clock = Clock::seeded(config, ClockSeed::INITIAL);
    let mut resyncs = 0u32;
    let mut boundaries = Vec::new();
    loop {
        let at = pdec.position();
        match pdec.next_packet() {
            Ok(Some(p)) => {
                if matches!(p, Packet::Psb) {
                    boundaries.push(Boundary {
                        offset: at,
                        clock: clock.seed(),
                    });
                }
                clock.apply(&p);
            }
            Ok(None) => break,
            Err(_) => {
                resyncs += 1;
                if !pdec.sync_to_psb() {
                    break;
                }
            }
        }
    }
    Some(Skim {
        boundaries,
        resyncs,
        cyc_dropped: clock.cyc_dropped,
        mtc_dups: clock.mtc_dups,
    })
}

/// Sequentially decodes `range` (which must start at a packet boundary)
/// with exact seeded clock and walk state, appending decoded events to
/// `events` in place — the stitch decodes straight into the final
/// buffer instead of materializing per-shard vectors it would then
/// copy. Resync/CYC accounting is the skim's job, not this function's.
#[allow(clippy::too_many_arguments)] // internal: a seeded decode is this wide
fn run_range(
    walker: Walker<'_>,
    config: &TraceConfig,
    bytes: &[u8],
    range: Range<usize>,
    seed: ClockSeed,
    mut st: WalkState,
    events: &mut Vec<DecodedEvent>,
    snapshot_time: u64,
) -> Result<WalkState, DecodeError> {
    let mut pdec = PacketDecoder::new(&bytes[range]);
    let quantum = config.time_quantum_ns();
    let mut clock = Clock::seeded(config, seed);
    loop {
        match pdec.next_packet() {
            Ok(Some(p)) => {
                clock.apply(&p);
                step(
                    walker,
                    &mut st,
                    events,
                    &p,
                    clock.time,
                    quantum,
                    snapshot_time,
                )?;
            }
            Ok(None) => break,
            Err(_) => {
                if !pdec.sync_to_psb() {
                    break;
                }
            }
        }
    }
    Ok(st)
}

/// The result of speculatively decoding one shard with an unknown
/// carried-in walk state.
struct ShardOutcome {
    /// All events the speculative decode produced.
    events: Vec<DecodedEvent>,
    /// How many of `events` belong to the *head* — emitted before the
    /// walk state provably converged; the stitch recomputes them.
    head_events: usize,
    /// Whether a convergence point was reached.
    converged: bool,
    /// Absolute byte offset just past the packet that established
    /// convergence (shard end when `!converged`).
    converged_at: usize,
    /// Speculative walk state right after the convergence packet; the
    /// stitch accepts the tail only if the true state matches exactly.
    post_head: WalkState,
    /// Walk state at shard end. Authoritative when `converged`, or when
    /// the true carried-in state turns out to equal the speculative
    /// premise ([`WalkState::INITIAL`]) — then the whole speculative
    /// decode *was* the sequential decode.
    end_state: WalkState,
    /// The walk error that stopped the speculation, if any.
    /// Authoritative after convergence (post-convergence decode is
    /// exactly what the sequential decoder would do from the same
    /// state) or when the carried-in premise proves true; a
    /// pre-convergence error under a false premise is speculative noise
    /// and the stitch's recompute supersedes it.
    error: Option<DecodeError>,
}

/// Speculatively decodes one shard assuming it starts desynchronized
/// (`cur = None`), recording where the walk state stops depending on
/// the unknown carry-in:
///
/// * an `OVF` wipes the walk state — convergence regardless of carry;
/// * a `TNT` leaves the walk at a CFG-determined conditional branch,
///   and a `TIP` sets the current PC from the packet itself — both
///   converge *if* the speculative anchor walked to the same place the
///   true state would have (validated by the stitch).
///
/// Events emitted before convergence (and by the converging packet's
/// own walk) are speculative; the stitch recomputes them from the true
/// carried state. A walk error before convergence simply ends the
/// speculation — the stitch's recompute of the whole region surfaces
/// the authoritative outcome.
fn decode_shard(
    walker: Walker<'_>,
    config: &TraceConfig,
    bytes: &[u8],
    range: Range<usize>,
    seed: ClockSeed,
    snapshot_time: u64,
) -> ShardOutcome {
    let mut pdec = PacketDecoder::new(&bytes[range.clone()]);
    let quantum = config.time_quantum_ns();
    let mut clock = Clock::seeded(config, seed);
    let mut st = WalkState::INITIAL;
    let mut events = pool_take();
    let mut converged = false;
    let mut head_events = 0usize;
    let mut converged_at = range.end;
    let mut post_head = st;
    let mut error = None;
    loop {
        match pdec.next_packet() {
            Ok(Some(p)) => {
                clock.apply(&p);
                let converging = !converged
                    && matches!(p, Packet::Tnt { .. } | Packet::Tip { .. } | Packet::Ovf);
                match step(
                    walker,
                    &mut st,
                    &mut events,
                    &p,
                    clock.time,
                    quantum,
                    snapshot_time,
                ) {
                    Ok(()) => {}
                    Err(e) => {
                        // Record the error regardless of convergence:
                        // the stitch decides whether it is
                        // authoritative (see `ShardOutcome::error`).
                        // Either way the speculation stops here.
                        error = Some(e);
                        break;
                    }
                }
                if converging {
                    converged = true;
                    head_events = events.len();
                    converged_at = range.start + pdec.position();
                    post_head = st;
                }
            }
            Ok(None) => break,
            Err(_) => {
                if !pdec.sync_to_psb() {
                    break;
                }
            }
        }
    }
    if !converged {
        head_events = events.len();
        converged_at = range.end;
        post_head = st;
    }
    ShardOutcome {
        events,
        head_events,
        converged,
        converged_at,
        post_head,
        end_state: st,
        error,
    }
}

/// Decodes one thread's snapshot bytes by sharding the stream at `PSB`
/// boundaries and decoding shards on up to `workers` threads, then
/// stitching. Produces a [`DecodedTrace`] **bit-identical** to
/// [`decode_thread_trace`] (and the legacy decoder) for every input,
/// including corrupt and truncated streams — speculation failures fall
/// back to sequential decode of the affected shard.
///
/// # Errors
///
/// Same contract as [`decode_thread_trace`].
pub fn decode_thread_trace_sharded(
    index: &ExecIndex,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
    workers: usize,
) -> Result<DecodedTrace, DecodeError> {
    decode_sharded(
        Walker { index, table: None },
        config,
        bytes,
        snapshot_time,
        workers,
    )
}

/// The adaptive production decoder: routes each input to whichever
/// decode strategy wins for its size and the machine's parallelism.
///
/// * `table` — optional compiled [`WalkTable`] (from the server's
///   cross-job cache); when present **and profitable for the module**
///   ([`WalkTable::is_profitable`]), every routed path uses the
///   compiled hot walks; otherwise the table is bypassed and the
///   interpreted walk runs (`decode.walk_table.{hit,bypass}` count the
///   outcomes).
/// * `worker_budget` — the parallelism available to *this* decode;
///   `0` means one per idle core when the decode starts
///   ([`resolve_workers`]).
///
/// Routing: the shard count is the worker budget capped by
/// `len / decode_shard_target_bytes` (each shard must be big enough to
/// amortize skim + stitch), and inputs under `decode_shard_min_bytes`
/// — or any routing that leaves ≤ 1 shard, e.g. every input on a
/// 1-core box — take the fused sequential pass with zero sharding
/// overhead. The `decode.shard.routed_{fused,sharded}` counters record
/// each routing decision.
///
/// # Errors
///
/// Same contract as [`decode_thread_trace`].
pub fn decode_thread_trace_adaptive(
    index: &ExecIndex,
    table: Option<&WalkTable>,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
    worker_budget: usize,
) -> Result<DecodedTrace, DecodeError> {
    // Engage a cached table only where the compiled walk actually wins:
    // on degenerate short-run modules the interpreted walk is a few
    // percent faster, and "adaptive" means picking the faster path, not
    // the fancier one.
    let table = table.filter(|t| t.is_profitable());
    if table.is_some() {
        lazy_obs::counter!("decode.walk_table.hit", 1u64);
    } else {
        lazy_obs::counter!("decode.walk_table.bypass", 1u64);
    }
    let walker = Walker { index, table };
    let shards =
        resolve_workers(worker_budget).min(bytes.len() / config.decode_shard_target_bytes.max(1));
    if shards <= 1 || bytes.len() < config.decode_shard_min_bytes {
        lazy_obs::counter!("decode.shard.routed_fused", 1u64);
        decode_stream(walker, config, bytes, snapshot_time)
    } else {
        lazy_obs::counter!("decode.shard.routed_sharded", 1u64);
        decode_sharded(walker, config, bytes, snapshot_time, shards)
    }
}

fn decode_sharded(
    walker: Walker<'_>,
    config: &TraceConfig,
    bytes: &[u8],
    snapshot_time: u64,
    workers: usize,
) -> Result<DecodedTrace, DecodeError> {
    if workers <= 1 {
        return decode_stream(walker, config, bytes, snapshot_time);
    }
    let skimmed = {
        let _span = lazy_obs::span!("decode.shard.skim");
        skim_psb_sections(config, bytes)
    };
    let Some(skim) = skimmed else {
        return Err(DecodeError::NoSync);
    };

    // Partition the PSB sections into byte-balanced shards.
    let first = skim.boundaries[0].offset;
    let n = workers.min(skim.boundaries.len());
    let target = (bytes.len() - first).div_ceil(n);
    let mut starts: Vec<usize> = vec![0];
    let mut shard_start = first;
    for (i, b) in skim.boundaries.iter().enumerate().skip(1) {
        if b.offset - shard_start >= target && starts.len() < n {
            starts.push(i);
            shard_start = b.offset;
        }
    }
    let shards: Vec<(Range<usize>, ClockSeed)> = starts
        .iter()
        .enumerate()
        .map(|(k, &bi)| {
            let start = skim.boundaries[bi].offset;
            let end = starts
                .get(k + 1)
                .map_or(bytes.len(), |&bj| skim.boundaries[bj].offset);
            (start..end, skim.boundaries[bi].clock)
        })
        .collect();

    lazy_obs::counter!("decode.shards_total", shards.len());
    let speculate_span = lazy_obs::span!("decode.shard.speculate");
    // The sharded path is an optimization over the fused sequential
    // decoder, so a panic in any shard discards all speculation and
    // falls back to the sequential path: same result, just slower.
    let speculated = fan_out(&shards, shards.len(), |(r, seed)| {
        decode_shard(walker, config, bytes, r.clone(), *seed, snapshot_time)
    });
    let Ok(outcomes) = speculated
        .into_iter()
        .collect::<Result<Vec<ShardOutcome>, _>>()
    else {
        return decode_stream(walker, config, bytes, snapshot_time);
    };

    speculate_span.end();
    // Stitch: recompute each shard's head with the true carried state,
    // validate convergence, splice the speculative tail (or redecode
    // the shard sequentially when speculation failed). Heads and
    // redecodes stream straight into the final pre-sized buffer;
    // accepted tails are one bulk `extend_from_slice` — no per-shard
    // intermediate vectors.
    let _stitch_span = lazy_obs::span!("decode.shard.stitch");
    let mut events: Vec<DecodedEvent> = pool_take();
    events.reserve(outcomes.iter().map(|o| o.events.len()).sum());
    let mut carry = WalkState::INITIAL;
    for ((range, seed), out) in shards.iter().zip(outcomes) {
        if carry == WalkState::INITIAL {
            // The speculative premise (`WalkState::INITIAL` carry-in)
            // turned out to be exactly true — always for shard 0, and
            // for any shard whose predecessor ended e.g. right after
            // an OVF. The speculation *was* the sequential decode:
            // splice it whole, zero recompute.
            events.extend_from_slice(&out.events);
            if let Some(e) = out.error {
                return Err(e);
            }
            carry = out.end_state;
            pool_put(out.events);
            continue;
        }
        let base = events.len();
        let head_end = run_range(
            walker,
            config,
            bytes,
            range.start..out.converged_at,
            *seed,
            carry,
            &mut events,
            snapshot_time,
        )?;
        if !out.converged {
            // The "head" was the entire shard; the recompute above is
            // its authoritative sequential decode.
            carry = head_end;
            pool_put(out.events);
            continue;
        }
        if head_end == out.post_head {
            events.extend_from_slice(&out.events[out.head_events..]);
            if let Some(e) = out.error {
                return Err(e);
            }
            carry = out.end_state;
            pool_put(out.events);
        } else {
            // Speculation diverged (e.g. an async FUP whose target sat
            // inside the carried straight-line stretch): redecode the
            // whole shard from the true state.
            events.truncate(base);
            pool_put(out.events);
            carry = run_range(
                walker,
                config,
                bytes,
                range.clone(),
                *seed,
                carry,
                &mut events,
                snapshot_time,
            )?;
        }
    }
    Ok(DecodedTrace {
        events,
        resyncs: skim.resyncs,
        cyc_dropped: skim.cyc_dropped,
        mtc_dups: skim.mtc_dups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use lazy_ir::{ModuleBuilder, Operand, Type};

    /// Builds a module with a loop and a call, plus a tiny callee.
    ///
    /// main: entry -> loop(cond) -> body(call leaf) -> loop -> exit(halt)
    fn looped_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        let leaf = mb.declare("leaf", vec![], Type::Void);
        let mut lf = mb.define(leaf);
        let e = lf.entry();
        lf.switch_to(e);
        lf.copy(Operand::const_int(7));
        lf.ret(None);
        lf.finish();

        let mut f = mb.function("main", vec![], Type::Void);
        let entry = f.entry();
        let head = f.block("head");
        let body = f.block("body");
        let exit = f.block("exit");
        f.switch_to(entry);
        let n = f.alloca(Type::I64);
        f.store(n.clone(), Operand::const_int(0), Type::I64);
        f.br(head);
        f.switch_to(head);
        let v = f.load(n.clone(), Type::I64);
        let c = f.lt(v.clone(), Operand::const_int(3));
        f.cond_br(c, body, exit);
        f.switch_to(body);
        f.call(leaf, vec![]);
        let v2 = f.load(n.clone(), Type::I64);
        let v3 = f.add(v2, Operand::const_int(1));
        f.store(n, v3, Type::I64);
        f.br(head);
        f.switch_to(exit);
        f.halt();
        f.finish();
        mb.finish().unwrap()
    }

    /// Simulates execution of `looped_module` for `iters` loop
    /// iterations, feeding the encoder exactly as the VM would, and
    /// returns (expected executed PCs, encoder).
    fn simulate(module: &Module, iters: u64, cfg: TraceConfig) -> (Vec<u64>, Encoder) {
        let main = module.func_by_name("main").unwrap();
        let leaf = module.func_by_name("leaf").unwrap();
        let blocks = &main.blocks;
        let pcs = |bi: usize| blocks[bi].insts.iter().map(|i| i.pc.0).collect::<Vec<_>>();
        let entry = pcs(0);
        let head = pcs(1);
        let body = pcs(2);
        let exit = pcs(3);
        let leaf_pcs: Vec<u64> = leaf.entry().insts.iter().map(|i| i.pc.0).collect();

        let mut enc = Encoder::new(cfg);
        let mut t = 1_000u64;
        let mut expected = Vec::new();
        enc.start(entry[0], t);
        let step = |pcs: &[u64], expected: &mut Vec<u64>, t: &mut u64| {
            for &pc in pcs {
                expected.push(pc);
                *t += 10;
            }
        };
        step(&entry, &mut expected, &mut t);
        for i in 0..=iters {
            step(&head, &mut expected, &mut t);
            // head ends with cond_br; taken while i < iters.
            let taken = i < iters;
            enc.branch(head[head.len() - 1], taken, t);
            if !taken {
                break;
            }
            // body: call leaf (direct, no packet), leaf runs, returns
            // (TIP back to after the call).
            expected.push(body[0]); // The call instruction.
            t += 10;
            step(&leaf_pcs, &mut expected, &mut t);
            // leaf's ret produces a TIP to the instruction after call.
            enc.indirect(leaf_pcs[leaf_pcs.len() - 1], body[1], t);
            step(&body[1..], &mut expected, &mut t);
        }
        // The run ends with a snapshot at the halt instruction: the
        // driver emits an async FUP there, which lets the decoder walk
        // the final straight-line stretch.
        step(&exit, &mut expected, &mut t);
        enc.async_fup(exit[exit.len() - 1], t);
        (expected, enc)
    }

    #[test]
    fn decode_reconstructs_exact_instruction_sequence() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig::default();
        let (expected, mut enc) = simulate(&module, 3, cfg.clone());
        let bytes = enc.snapshot();
        let trace = decode_thread_trace(&index, &cfg, &bytes, 1_000_000).unwrap();
        let got: Vec<u64> = trace.events.iter().map(|e| e.pc.0).collect();
        assert_eq!(got, expected);
        assert_eq!(trace.resyncs, 0);
    }

    #[test]
    fn decode_without_timing_still_reconstructs_control_flow() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig {
            timing_enabled: false,
            ..TraceConfig::default()
        };
        let (expected, mut enc) = simulate(&module, 2, cfg.clone());
        let bytes = enc.snapshot();
        let trace = decode_thread_trace(&index, &cfg, &bytes, 1_000_000).unwrap();
        let got: Vec<u64> = trace.events.iter().map(|e| e.pc.0).collect();
        assert_eq!(got, expected);
        // With no timing packets every window spans the whole trace:
        // nothing is ordered.
        for w in trace.events.windows(2) {
            assert!(w[0].time.overlaps(&w[1].time));
        }
    }

    #[test]
    fn time_windows_are_monotonic_and_bounded() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig {
            ctc_period_ns: 64,
            cyc_shift: 4,
            ..TraceConfig::default()
        };
        let (_, mut enc) = simulate(&module, 3, cfg.clone());
        let bytes = enc.snapshot();
        let snapshot_time = 1_000_000;
        let trace = decode_thread_trace(&index, &cfg, &bytes, snapshot_time).unwrap();
        let mut last_lo = 0;
        for e in &trace.events {
            assert!(e.time.lo <= e.time.hi, "lo>{:?}", e.time);
            assert!(e.time.hi <= snapshot_time);
            assert!(e.time.lo >= last_lo, "windows went backwards");
            last_lo = e.time.lo;
        }
        // With fine timing, early and late events must be ordered.
        let first = trace.events.first().unwrap();
        let last = trace.events.last().unwrap();
        assert!(first.time.definitely_before(&last.time));
    }

    #[test]
    fn wrapped_buffer_resyncs_and_decodes_suffix() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        // Tiny buffer to force wrapping.
        let cfg = TraceConfig {
            buffer_size: 96,
            psb_period_bytes: 24,
            ..TraceConfig::default()
        };
        let (expected, mut enc) = simulate(&module, 40, cfg.clone());
        assert!(enc.wrapped());
        let bytes = enc.snapshot();
        let trace = decode_thread_trace(&index, &cfg, &bytes, 10_000_000).unwrap();
        // The decoded events must be a suffix-aligned subsequence of the
        // expected execution: specifically the decoded PC sequence must
        // appear as a contiguous run ending at the end of `expected`.
        let got: Vec<u64> = trace.events.iter().map(|e| e.pc.0).collect();
        assert!(!got.is_empty());
        let tail = &expected[expected.len() - got.len()..];
        assert_eq!(got, tail, "decoded suffix disagrees with execution");
    }

    #[test]
    fn no_psb_is_an_error() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig::default();
        let err = decode_thread_trace(&index, &cfg, &[0x40, 0x01], 10).unwrap_err();
        assert_eq!(err, DecodeError::NoSync);
        let err = decode_thread_trace_sharded(&index, &cfg, &[0x40, 0x01], 10, 4).unwrap_err();
        assert_eq!(err, DecodeError::NoSync);
    }

    #[test]
    fn async_fup_walks_to_failure_point() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig::default();
        let main = module.func_by_name("main").unwrap();
        let entry_pcs: Vec<u64> = main.entry().insts.iter().map(|i| i.pc.0).collect();
        let mut enc = Encoder::new(cfg.clone());
        enc.start(entry_pcs[0], 100);
        // "Crash" at the second instruction of entry: emit async FUP.
        enc.async_fup(entry_pcs[1], 250);
        let bytes = enc.snapshot();
        let trace = decode_thread_trace(&index, &cfg, &bytes, 300).unwrap();
        let got: Vec<u64> = trace.events.iter().map(|e| e.pc.0).collect();
        assert_eq!(got, vec![entry_pcs[0], entry_pcs[1]]);
    }

    #[test]
    fn exec_index_covers_every_instruction() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        for f in module.functions() {
            for inst in f.insts() {
                assert!(index.get(inst.pc.0).is_some(), "missing {:?}", inst.pc);
            }
        }
    }

    #[test]
    fn exec_index_rejects_gaps_and_unaligned_pcs() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        // Below the text base, above the last instruction, unaligned.
        assert!(index.get(0).is_none());
        assert!(index.get(Module::TEXT_BASE - 4).is_none());
        assert!(index.get(module.max_pc().0 + 4096).is_none());
        assert!(index.get(Module::TEXT_BASE + 1).is_none());
        // Function-alignment gap: the leaf function is padded to 64
        // bytes; the slot right after its last instruction is a gap.
        let leaf = module.func_by_name("leaf").unwrap();
        let last = leaf.insts().last().unwrap().pc.0;
        let next_base = module.func_by_name("main").unwrap().base_pc.0;
        if last + Module::PC_STRIDE < next_base {
            assert!(index.get(last + Module::PC_STRIDE).is_none());
        }
    }

    #[test]
    fn exec_index_slots_are_dense_and_invertible() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let mut prev = None;
        for f in module.functions() {
            for inst in f.insts() {
                let slot = index.slot(inst.pc).expect("every instruction has a slot");
                assert!(slot < index.slot_count());
                assert_eq!(
                    Some(slot),
                    module.pc_slot(inst.pc),
                    "the module's numbering"
                );
                assert_eq!(Module::slot_pc(slot), inst.pc);
                assert_eq!(
                    index.has_pointer_operand(slot),
                    inst.kind.pointer_operand().is_some(),
                    "pointer flag of {:?}",
                    inst.pc
                );
                assert!(prev.is_none_or(|p| p < slot), "slots ascend with pcs");
                prev = Some(slot);
            }
        }
        assert_eq!(index.slot(Pc(Module::TEXT_BASE)), Some(0));
        assert_eq!(index.slot(Pc(Module::TEXT_BASE - 4)), None);
        assert_eq!(index.slot(Pc(Module::TEXT_BASE + 2)), None);
        assert_eq!(index.slot(module.max_pc()), None);
        assert_eq!(index.slot(Pc(u64::MAX - 3)), None);
        assert!(!index.has_pointer_operand(index.slot_count()));
        assert_eq!(index.slot_count(), module.pc_slot_count());
    }

    /// Asserts all three decoders agree exactly on `bytes`.
    fn assert_all_paths_agree(
        module: &Module,
        index: &ExecIndex,
        cfg: &TraceConfig,
        bytes: &[u8],
        snapshot_time: u64,
    ) {
        let table = WalkTable::build(module);
        let legacy = decode_thread_trace_legacy(index, cfg, bytes, snapshot_time);
        let check = |label: &str, got: &Result<DecodedTrace, DecodeError>| match (&legacy, got) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.events, b.events, "{label} events diverged");
                assert_eq!(a.resyncs, b.resyncs, "{label} resyncs");
                assert_eq!(a.cyc_dropped, b.cyc_dropped, "{label} cyc");
                assert_eq!(a.mtc_dups, b.mtc_dups, "{label} mtc dups");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{label} error diverged"),
            _ => panic!("{label} disagrees on success: {legacy:?} vs {got:?}"),
        };
        check(
            "fused",
            &decode_thread_trace(index, cfg, bytes, snapshot_time),
        );
        check(
            "compiled",
            &decode_thread_trace_compiled(index, &table, cfg, bytes, snapshot_time),
        );
        for workers in [2, 3, 5, 16] {
            check(
                &format!("sharded({workers})"),
                &decode_thread_trace_sharded(index, cfg, bytes, snapshot_time, workers),
            );
            check(
                &format!("sharded+table({workers})"),
                &decode_sharded(
                    Walker {
                        index,
                        table: Some(&table),
                    },
                    cfg,
                    bytes,
                    snapshot_time,
                    workers,
                ),
            );
        }
        for budget in [1, 3] {
            check(
                &format!("adaptive({budget})"),
                &decode_thread_trace_adaptive(
                    index,
                    Some(&table),
                    cfg,
                    bytes,
                    snapshot_time,
                    budget,
                ),
            );
        }
    }

    #[test]
    fn sharded_decode_matches_sequential_on_long_stream() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        // Small PSB period: many shard boundaries.
        let cfg = TraceConfig {
            psb_period_bytes: 32,
            buffer_size: 1 << 20,
            ..TraceConfig::default()
        };
        let (_, mut enc) = simulate(&module, 200, cfg.clone());
        let bytes = enc.snapshot();
        assert_all_paths_agree(&module, &index, &cfg, &bytes, 10_000_000);
    }

    #[test]
    fn sharded_decode_matches_sequential_on_wrapped_buffer() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig {
            buffer_size: 256,
            psb_period_bytes: 24,
            ..TraceConfig::default()
        };
        let (_, mut enc) = simulate(&module, 300, cfg.clone());
        assert!(enc.wrapped());
        let bytes = enc.snapshot();
        assert_all_paths_agree(&module, &index, &cfg, &bytes, 10_000_000);
    }

    #[test]
    fn sharded_decode_matches_sequential_without_timing() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig {
            timing_enabled: false,
            psb_period_bytes: 24,
            ..TraceConfig::default()
        };
        let (_, mut enc) = simulate(&module, 100, cfg.clone());
        let bytes = enc.snapshot();
        assert_all_paths_agree(&module, &index, &cfg, &bytes, 10_000_000);
    }

    #[test]
    fn cyc_before_any_anchor_is_counted_as_dropped() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig::default();
        // Hand-assemble: PSB, CYC (no anchor yet: dropped), TSC, CYC
        // (anchored: applied).
        let mut enc = crate::packet::PacketEncoder::new();
        let mut bytes = Vec::new();
        for p in [
            Packet::Psb,
            Packet::Cyc { delta: 3 },
            Packet::Tsc { tsc: 1_000 },
            Packet::Cyc { delta: 2 },
        ] {
            enc.encode(&p, &mut bytes);
        }
        let trace = decode_thread_trace(&index, &cfg, &bytes, 10_000).unwrap();
        assert_eq!(trace.cyc_dropped, 1);
        assert_all_paths_agree(&module, &index, &cfg, &bytes, 10_000);
    }

    /// Regression: a duplicated *identical* MTC coarse-counter byte (a
    /// repeated packet after corruption or a PSB splice) used to be
    /// treated as a full 8-bit wrap, advancing virtual time by 256
    /// coarse ticks. It must leave the clock untouched and be counted
    /// in [`DecodedTrace::mtc_dups`] instead.
    #[test]
    fn duplicated_mtc_byte_does_not_advance_time() {
        let module = looped_module();
        let index = ExecIndex::build(&module);
        let cfg = TraceConfig::default();
        let main = module.func_by_name("main").unwrap();
        let entry_pcs: Vec<u64> = main.entry().insts.iter().map(|i| i.pc.0).collect();
        let period = cfg.ctc_period_ns.max(1);
        let t0 = 64 * period; // anchor on a coarse-tick boundary
        let ctc = (t0 / period + 1) as u8; // one legitimate coarse tick
        let stream = |dups: usize| {
            let mut enc = crate::packet::PacketEncoder::new();
            let mut bytes = Vec::new();
            enc.encode(&Packet::Psb, &mut bytes);
            enc.encode(&Packet::Tsc { tsc: t0 }, &mut bytes);
            enc.encode(&Packet::Fup { pc: entry_pcs[0] }, &mut bytes);
            for _ in 0..=dups {
                enc.encode(&Packet::Mtc { ctc }, &mut bytes);
            }
            // Async FUP forces a walk, landing the MTC time in the
            // emitted events' windows.
            enc.encode(&Packet::Fup { pc: entry_pcs[1] }, &mut bytes);
            bytes
        };
        let snapshot_time = t0 + 10 * period;
        let clean = decode_thread_trace(&index, &cfg, &stream(0), snapshot_time).unwrap();
        let duped = decode_thread_trace(&index, &cfg, &stream(2), snapshot_time).unwrap();
        // The duplicates change no event and no window...
        assert_eq!(clean.events, duped.events);
        // ...they are accounted...
        assert_eq!(clean.mtc_dups, 0);
        assert_eq!(duped.mtc_dups, 2);
        // ...and the post-MTC window sits one coarse tick after the
        // anchor, not 256.
        let last = duped.events.last().unwrap();
        assert_eq!(last.time.lo, t0 + period);
        assert!(last.time.lo < t0 + 0x100 * period);
        assert_all_paths_agree(&module, &index, &cfg, &stream(2), snapshot_time);
    }
}

#[cfg(test)]
mod ovf_tests {
    use super::*;
    use crate::packet::PacketEncoder;
    use lazy_ir::{ModuleBuilder, Operand, Type};

    /// An OVF mid-stream desynchronizes the walk until the next PSB
    /// anchor; events before the OVF and after the re-anchor survive.
    #[test]
    fn overflow_resyncs_at_next_psb() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", vec![], Type::Void);
        let entry = f.entry();
        let a = f.block("a");
        let b = f.block("b");
        f.switch_to(entry);
        let x = f.alloca(Type::I64);
        f.store(x.clone(), Operand::const_int(0), Type::I64);
        let c = f.eq(Operand::const_int(1), Operand::const_int(1));
        f.cond_br(c, a, b);
        f.switch_to(a);
        f.load(x.clone(), Type::I64);
        f.halt();
        f.switch_to(b);
        f.halt();
        f.finish();
        let m = mb.finish().unwrap();
        let index = ExecIndex::build(&m);
        let main = m.func_by_name("main").unwrap();
        let entry_pc = main.blocks[0].insts[0].pc.0;
        let a_load = main.blocks[1].insts[0].pc;
        let a_halt = main.blocks[1].insts[1].pc;

        // Hand-assemble: PSB TSC FUP(entry) OVF PSB TSC FUP(a_load)
        // FUP(a_halt as async marker).
        let mut enc = PacketEncoder::new();
        let mut bytes = Vec::new();
        for p in [
            Packet::Psb,
            Packet::Tsc { tsc: 100 },
            Packet::Fup { pc: entry_pc },
            Packet::Ovf,
            Packet::Psb,
            Packet::Tsc { tsc: 500 },
            Packet::Fup { pc: a_load.0 },
            Packet::Fup { pc: a_halt.0 },
        ] {
            enc.encode(&p, &mut bytes);
        }
        let trace = decode_thread_trace(&index, &TraceConfig::default(), &bytes, 1000).unwrap();
        // The post-resync events decode; nothing from before the OVF
        // (no control packet arrived to walk them).
        let pcs: Vec<u64> = trace.events.iter().map(|e| e.pc.0).collect();
        assert_eq!(pcs, vec![a_load.0, a_halt.0]);
        // Times re-anchored after the OVF.
        assert!(trace.events[0].time.lo >= 500);
        // Sharded decode handles the OVF + re-anchor identically.
        let sharded =
            decode_thread_trace_sharded(&index, &TraceConfig::default(), &bytes, 1000, 4).unwrap();
        assert_eq!(sharded.events, trace.events);
        assert_eq!(sharded.resyncs, trace.resyncs);
    }
}
