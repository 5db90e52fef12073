#![warn(missing_docs)]

//! # lazy-analysis — interprocedural static analyses
//!
//! The server-side program analyses of the reproduction:
//!
//! * [`andersen`] — inclusion-based points-to analysis (Andersen style),
//!   the paper's choice for its higher accuracy (§4.2, Figure 3 rules),
//!   with optional *scope restriction* to an executed-instruction set —
//!   the "hybrid" ingredient of Lazy Diagnosis that shrinks the analyzed
//!   code by ~9× and makes interprocedural inclusion-based analysis
//!   affordable online.
//! * [`incremental`] — a reusable scoped points-to cache for batch
//!   diagnosis: per-function constraint recipes are memoized, and a
//!   scope that extends a previously solved scope is solved by
//!   replaying only the delta over the cached fixpoint.
//! * [`steensgaard`] — unification-based points-to analysis, the cheaper
//!   and less precise comparator the paper discusses; used by ablation
//!   benches to show why inclusion-based was worth it.
//! * [`callgraph`] — call-graph construction (direct edges plus indirect
//!   edges resolved through points-to results).
//! * [`ranking`] — type-based ranking of candidate instructions (§4.3):
//!   instructions whose operand type matches the failing operand's type
//!   are prioritized, without discarding mismatches (casts exist).
//! * [`mod@slice`] — static backward slicing (data, memory, and control
//!   dependences), the substrate of the Gist baseline.

pub mod andersen;
pub mod callgraph;
pub mod dataflow;
mod fasthash;
pub mod incremental;
pub mod loc;
pub mod ranking;
#[cfg(test)]
mod reference;
pub mod slice;
pub mod steensgaard;

pub use andersen::{AnalysisStats, PointsTo};
pub use callgraph::CallGraph;
pub use dataflow::{effective_failing_access, effective_failing_accesses};
pub use incremental::{CacheStats, PointsToCache};
pub use loc::{Loc, PtsSet, PtsView};
pub use ranking::{operand_pointee_type, rank_candidates, RankedInst};
pub use slice::backward_slice;
pub use steensgaard::SteensgaardPointsTo;
