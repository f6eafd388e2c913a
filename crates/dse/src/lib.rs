//! # omnisim-dse
//!
//! The compiled design-space-exploration engine for the OmniSim workspace.
//!
//! OmniSim's incremental re-simulation (§7.2 of the paper) answers one
//! FIFO-depth query without re-running the design — but the uncompiled
//! path re-allocates the write-after-read overlay and re-runs a cold
//! longest-path pass for *every* point, so a 10k-point grid does 10k
//! allocations and 10k full traversals. Following the LightningSimV2
//! insight that compiling the trace into a static CSR graph is what turns
//! per-query analysis into microseconds, this crate freezes a baseline run
//! **once** and then answers points from the frozen form:
//!
//! * [`SweepPlan`] — the lowering IR: the baseline
//!   [`IncrementalState`](omnisim::IncrementalState) frozen into a CSR
//!   graph + transpose, per-FIFO access lanes, one cached topological order
//!   valid for every depth vector ≥ 1, and a flat constraint table;
//! * [`CompiledPlan`] — the evaluator: the plan lowered into
//!   register-allocated bytecode ([`SweepPlan::compile_bytecode`]), a
//!   linear program over a flat `u64` time tape executed by a tight VM
//!   loop ([`CompiledVm`]) with **delta evaluation** between consecutive
//!   points, serial or chunked multi-threaded batches
//!   ([`CompiledPlan::evaluate_batch`]), and serialization via
//!   `omnisim-codec` for artifact-store persistence;
//! * [`SweepPlan::min_depths`] — the inverse query: per-FIFO binary search
//!   for the smallest depths whose certified latency meets a target,
//!   probed on one warm VM;
//! * [`Sweep`] — the batch DSE driver: a thin loop over one
//!   [`CompiledOmni`](omnisim::CompiledOmni) session, answering every point
//!   in one VM batch and re-simulating constraint-violating points in
//!   parallel through [`CompiledOmni::resimulate`](omnisim::CompiledOmni::resimulate).
//!
//! Answers are bit-identical to
//! [`IncrementalState::try_with_depths`](omnisim::IncrementalState::try_with_depths),
//! the engine's independent uncompiled oracle, and to full re-simulation
//! wherever the recorded constraints hold; the differential suite in
//! `tests/compiled_dse.rs` (workspace root) pins the VM against both on
//! randomized grids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bytecode;
pub mod min_depths;
pub mod plan;
pub mod pool;
pub mod sweep;

pub use bytecode::{CompiledPlan, CompiledVm};
pub use min_depths::MinDepthsReport;
pub use omnisim::IncrementalOutcome;
pub use plan::{PlanError, SweepPlan};
pub use sweep::{Sweep, SweepMethod, SweepPoint, SweepReport};
