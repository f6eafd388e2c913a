//! The sweep plan: a baseline run frozen into a CSR graph — the lowering
//! IR of the compiled DSE engine.
//!
//! [`SweepPlan::compile`] is run **once** per baseline
//! [`IncrementalState`]. It freezes the engine's online
//! [`EventGraph`](omnisim_graph::EventGraph) into a [`CsrGraph`] (plus its
//! transpose, whose rows become the bytecode's gather-form instruction
//! runs), records each FIFO's commit-ordered access lanes, caches one
//! topological order that stays valid for *every* depth vector with depths
//! ≥ 1, and compiles the recorded query constraints into a flat table. The
//! plan evaluates nothing itself: [`SweepPlan::compile_bytecode`] lowers
//! it into a [`CompiledPlan`](crate::CompiledPlan), whose VM answers every
//! point.
//!
//! The depth-1 lower bound exists because the cached topological order must
//! anticipate every WAR edge any depth vector can introduce: for depth `S`,
//! the *w*-th blocking write gains an edge from the *(w − S)*-th read, and
//! all of those are covered by ordering each FIFO's reads in commit order
//! plus one read-before-next-write skeleton edge — but only for `S ≥ 1`.
//! A depth-0 FIFO is not a design point at all (the resized design would
//! not validate), so the VM rejects it with [`PlanError::ZeroDepth`], which
//! maps to [`OmniError::ZeroDepth`] — the same answer every cycle-accurate
//! entry point gives.

use omnisim::{CompiledOmni, IncrementalState, OmniError};
use omnisim_api::CompiledSim;
use omnisim_graph::{CsrGraph, CsrGraphBuilder, CycleError, Edge, NodeId};
use std::error::Error;
use std::fmt;

/// Per-FIFO access lanes, frozen from the baseline run's commit order.
#[derive(Debug, Clone)]
pub(crate) struct FifoLane {
    /// Node of each committed write, in commit order.
    pub(crate) writes: Vec<u32>,
    /// Blocking flag of each committed write (only blocking writes stall,
    /// so only they receive WAR edges).
    pub(crate) write_blocking: Vec<bool>,
    /// Node of each committed read, in commit order.
    pub(crate) reads: Vec<u32>,
}

/// A recorded query outcome in flat form, re-checked per point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledConstraint {
    /// True for write-side queries (Table 2 rows 1–2).
    pub(crate) write_side: bool,
    /// FIFO index.
    pub(crate) fifo: u32,
    /// 1-based access ordinal.
    pub(crate) ordinal: u32,
    /// Node representing the query itself.
    pub(crate) node: u32,
    /// Outcome observed during the baseline run.
    pub(crate) outcome: bool,
}

/// Errors returned when evaluating points against a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The depth vector's length does not match the design's FIFO count.
    DepthMismatch {
        /// Number of FIFOs the plan was compiled for.
        expected: usize,
        /// Number of depths supplied.
        got: usize,
    },
    /// A depth of zero was supplied. FIFO depths start at 1 (the cached
    /// topological order covers exactly those), so this is a caller error;
    /// it converts to [`OmniError::ZeroDepth`].
    ZeroDepth {
        /// Index of the FIFO with the zero depth.
        fifo: usize,
    },
    /// A zero search bound was passed to `SweepPlan::min_depths`; FIFO
    /// depths start at 1, so there is nothing to search.
    ZeroBound,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DepthMismatch { expected, got } => write!(
                f,
                "depth vector has {got} entries but the plan was compiled for {expected} fifos"
            ),
            PlanError::ZeroDepth { fifo } => write!(
                f,
                "fifo {fifo} has depth 0, which the compiled plan does not evaluate"
            ),
            PlanError::ZeroBound => write!(
                f,
                "min_depths search bound is 0, but fifo depths start at 1"
            ),
        }
    }
}

impl Error for PlanError {}

impl From<PlanError> for OmniError {
    fn from(error: PlanError) -> OmniError {
        match error {
            PlanError::DepthMismatch { expected, got } => {
                OmniError::DepthMismatch { expected, got }
            }
            PlanError::ZeroDepth { fifo } => OmniError::ZeroDepth { fifo },
            PlanError::ZeroBound => OmniError::Internal(error.to_string()),
        }
    }
}

/// A baseline run frozen for repeated FIFO-depth evaluation.
///
/// See the [module docs](self) for the design. Build one with
/// [`SweepPlan::compile`] or [`SweepPlan::from_compiled`], then lower it
/// with [`SweepPlan::compile_bytecode`]; the program's answers are
/// bit-identical to [`IncrementalState::try_with_depths`] — same
/// latencies, same first-violated-constraint indices — just without the
/// per-point overlay allocation and graph rebuild.
#[derive(Debug)]
pub struct SweepPlan {
    /// The frozen baseline graph (bases + successor lists).
    pub(crate) fwd: CsrGraph,
    /// Its transpose: each node's incoming edges, lowered into its
    /// instruction run.
    pub(crate) rev: CsrGraph,
    /// Topological order valid for the base edges plus any WAR overlay
    /// with all depths ≥ 1.
    pub(crate) topo: Vec<u32>,
    /// Node → position in `topo`.
    pub(crate) topo_rank: Vec<u32>,
    /// Per-FIFO access lanes.
    pub(crate) lanes: Vec<FifoLane>,
    /// Flat constraint table, in the baseline's recording order.
    pub(crate) constraints: Vec<CompiledConstraint>,
    /// End node of every task that finished.
    pub(crate) end_nodes: Vec<u32>,
    /// FIFO depths of the baseline run.
    pub(crate) original_depths: Vec<usize>,
    /// Per-FIFO minimum depth the cached topological order supports. For
    /// single-rate pipelines this is 1 everywhere; multi-rate reconvergence
    /// can make the depth-1 overlay genuinely cyclic (the design would
    /// deadlock at depth 1), in which case the skeleton is relaxed and
    /// points probing below this bound take the VM's allocating slow path.
    pub(crate) supported_min_depth: Vec<usize>,
}

impl SweepPlan {
    /// Compiles a baseline run into a frozen sweep plan.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if no topological order covering every
    /// depth-parameterized WAR overlay exists (callers should fall back to
    /// [`IncrementalState::try_with_depths`]; well-formed runs of the
    /// engine always compile).
    pub fn compile(state: &IncrementalState) -> Result<SweepPlan, CycleError> {
        let n = state.graph.len();
        let mut builder = CsrGraphBuilder::new();
        for i in 0..n {
            builder.add_node(state.graph.base(NodeId::from_index(i)));
        }
        for e in state.graph.edges() {
            builder.add_edge(e.from, e.to, e.weight);
        }
        let fwd = builder.build();
        let rev = fwd.transpose();

        let lanes: Vec<FifoLane> = state
            .fifo_write_nodes
            .iter()
            .zip(&state.fifo_write_blocking)
            .zip(&state.fifo_read_nodes)
            .map(|((writes, blocking), reads)| FifoLane {
                writes: writes.iter().map(|n| n.0).collect(),
                write_blocking: blocking.clone(),
                reads: reads.iter().map(|n| n.0).collect(),
            })
            .collect();

        // Ordering skeleton: one order that dominates every overlay with
        // depths ≥ `supported_min_depth`. Chaining each FIFO's reads in
        // commit order and ordering write w after read min(w−m, last)
        // covers the WAR edge read(w−S) → write(w) for every S ≥ m,
        // because the source read is always at or before the skeleton read
        // in the chain. Non-blocking writes never receive WAR edges, so
        // constraining them here would only risk a spurious cycle.
        //
        // `m` starts at 1 per FIFO. When the combined skeleton is cyclic —
        // which happens exactly when a depth-m assignment deadlocks, e.g.
        // multi-rate reconvergent pipelines at depth 1 — the anchors are
        // relaxed one depth at a time until an order exists; points below
        // the supported bound are answered by the VM's slow path.
        let build_skeleton = |bounds: &[usize]| {
            let mut skeleton: Vec<Edge> = Vec::new();
            for (f, lane) in lanes.iter().enumerate() {
                for pair in lane.reads.windows(2) {
                    skeleton.push(Edge::new(NodeId(pair[0]), NodeId(pair[1]), 0));
                }
                if lane.reads.is_empty() {
                    continue;
                }
                let m = bounds[f];
                for (iw, &write) in lane.writes.iter().enumerate().skip(m) {
                    if !lane.write_blocking[iw] {
                        continue;
                    }
                    let anchor = lane.reads[(iw - m).min(lane.reads.len() - 1)];
                    skeleton.push(Edge::new(NodeId(anchor), NodeId(write), 0));
                }
            }
            skeleton
        };
        let mut supported_min_depth = vec![1usize; lanes.len()];
        let mut topo: Vec<u32> = loop {
            match fwd.topo_order_with(build_skeleton(&supported_min_depth).iter().copied()) {
                Ok(order) => break order.into_iter().map(|n| n.0).collect(),
                Err(e) => {
                    let mut relaxed = false;
                    for (f, lane) in lanes.iter().enumerate() {
                        if !lane.reads.is_empty() && supported_min_depth[f] < lane.writes.len() {
                            supported_min_depth[f] += 1;
                            relaxed = true;
                        }
                    }
                    if !relaxed {
                        // No anchors left to relax: the base graph itself is
                        // cyclic, which is an engine bug.
                        return Err(e);
                    }
                }
            }
        };
        // The relaxation loop bumps every FIFO; most are innocent of the
        // cycle. Re-tighten each back to 1 where an order still exists, so
        // their depth-1 probes keep the allocation-free fast path.
        if supported_min_depth.iter().any(|&m| m > 1) {
            for f in 0..lanes.len() {
                if supported_min_depth[f] == 1 {
                    continue;
                }
                let mut trial = supported_min_depth.clone();
                trial[f] = 1;
                if let Ok(order) = fwd.topo_order_with(build_skeleton(&trial).iter().copied()) {
                    supported_min_depth = trial;
                    topo = order.into_iter().map(|n| n.0).collect();
                }
            }
        }
        let mut topo_rank = vec![0u32; n];
        for (rank, &node) in topo.iter().enumerate() {
            topo_rank[node as usize] = rank as u32;
        }

        let constraints = state
            .constraints
            .iter()
            .map(|c| CompiledConstraint {
                write_side: c.kind.is_write_side(),
                fifo: c.fifo.index() as u32,
                ordinal: c.ordinal as u32,
                node: c.node.0,
                outcome: c.outcome,
            })
            .collect();

        Ok(SweepPlan {
            fwd,
            rev,
            topo,
            topo_rank,
            lanes,
            constraints,
            end_nodes: state.end_nodes.iter().flatten().map(|n| n.0).collect(),
            original_depths: state.original_depths.clone(),
            supported_min_depth,
        })
    }

    /// Compiles a plan from a [`CompiledSim`] session artifact, if it is
    /// the OmniSim engine's (see `Capabilities::compiled_dse`). This is the
    /// canonical way to upgrade a compile-once session into the batch DSE
    /// engine: the artifact's frozen
    /// [`IncrementalState`](omnisim::IncrementalState) is compiled directly,
    /// no type-erased extras involved.
    pub fn from_compiled(compiled: &dyn CompiledSim) -> Option<Result<SweepPlan, CycleError>> {
        compiled
            .as_any()
            .downcast_ref::<CompiledOmni>()
            .map(|omni| SweepPlan::compile(omni.state()))
    }

    /// Lowers the frozen plan into a register-allocated bytecode program —
    /// see [`crate::bytecode::CompiledPlan`]. The lowering is total: every
    /// compiled plan has a bytecode form, and the program answers every
    /// depth vector bit-identically to
    /// [`IncrementalState::try_with_depths`].
    pub fn compile_bytecode(&self) -> crate::bytecode::CompiledPlan {
        crate::bytecode::CompiledPlan::lower(self)
    }

    /// Number of FIFOs the plan was compiled for.
    pub fn fifo_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of nodes in the frozen graph.
    pub fn node_count(&self) -> usize {
        self.fwd.len()
    }

    /// Number of edges in the frozen graph (excluding the WAR overlay).
    pub fn edge_count(&self) -> usize {
        self.fwd.edge_count()
    }

    /// Number of recorded constraints re-checked per point.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// FIFO depths of the baseline run the plan was compiled from.
    pub fn original_depths(&self) -> &[usize] {
        &self.original_depths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim::test_fixtures::{nb_drop_counter, producer_consumer};
    use omnisim::{OmniBackend, OmniSimulator};
    use omnisim_api::{SimReport, Simulator};

    #[test]
    fn plan_compiles_from_a_session_artifact() {
        let design = producer_consumer(16, 2, 1);
        let backend = OmniBackend::default();
        assert!(
            backend.capabilities().compiled_dse,
            "the omnisim backend advertises a plan-compilable session"
        );
        let compiled = backend.compile(&design).unwrap();
        let plan = SweepPlan::from_compiled(compiled.as_ref())
            .expect("the omnisim artifact downcasts")
            .expect("plan compiles");
        assert_eq!(plan.fifo_count(), 1);
        assert_eq!(plan.original_depths(), &[2]);
        assert!(plan.node_count() > 0);
        assert!(plan.edge_count() > 0);
        assert!(plan.constraint_count() <= plan.node_count());

        // Non-omnisim artifacts do not downcast.
        let rtl = omnisim_rtlsim::RtlBackend::default()
            .compile(&design)
            .unwrap();
        assert!(SweepPlan::from_compiled(rtl.as_ref()).is_none());
    }

    /// A one-shot report's extras payload (`IncrementalState`) and the
    /// session artifact built around the *same* baseline run must compile
    /// to the identical plan (`SweepPlan::from_report` is gone; extras
    /// consumers call [`SweepPlan::compile`] on the state directly).
    #[test]
    fn extras_state_compiles_identical_plan_to_session_artifact() {
        use omnisim::{CompiledOmni, OmniOutcome, OmniReport, SimConfig, SimStats};

        let design = nb_drop_counter(32, 2, 3);
        let native = OmniSimulator::new(&design).run().unwrap();
        assert!(native.outcome.is_completed());
        let mut report: SimReport = native.into();
        let via_report = SweepPlan::compile(
            report
                .extras
                .get::<IncrementalState>()
                .expect("one-shot reports still ship the extras payload"),
        )
        .expect("plan compiles");

        // Rebuild the session artifact around the very same baseline.
        let stats = *report.extras.get::<SimStats>().unwrap();
        let incremental = report.extras.take::<IncrementalState>().unwrap();
        let baseline = OmniReport {
            outcome: OmniOutcome::Completed,
            outputs: report.outputs.clone(),
            total_cycles: report.total_cycles.unwrap(),
            timings: report.timings,
            stats,
            incremental,
        };
        let session = CompiledOmni::from_baseline(&design, SimConfig::default(), baseline);
        let via_session = SweepPlan::from_compiled(&session)
            .expect("artifact downcasts")
            .expect("plan compiles");

        assert_eq!(via_report.fifo_count(), via_session.fifo_count());
        assert_eq!(via_report.node_count(), via_session.node_count());
        assert_eq!(via_report.edge_count(), via_session.edge_count());
        assert_eq!(
            via_report.constraint_count(),
            via_session.constraint_count()
        );
        assert_eq!(via_report.original_depths(), via_session.original_depths());
        // …and they lower to the identical program.
        assert_eq!(
            via_report.compile_bytecode(),
            via_session.compile_bytecode()
        );
    }
}
