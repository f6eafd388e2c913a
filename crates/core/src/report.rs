//! Simulation results, statistics and errors reported by the engine.

use crate::incremental::IncrementalState;
use omnisim_graph::CycleError;
use omnisim_interp::SimError;
use omnisim_ir::design::OutputMap;
use std::error::Error;
use std::fmt;

/// How an OmniSim run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmniOutcome {
    /// Every Func Sim thread ran to completion.
    Completed,
    /// A true design-level deadlock was detected (§7.1): every thread was
    /// paused, no query was pending, and no FIFO access could ever commit.
    Deadlock {
        /// One human-readable entry per blocked task/FIFO pair.
        blocked: Vec<String>,
    },
}

impl OmniOutcome {
    /// True if the run completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, OmniOutcome::Completed)
    }

    /// True if a design deadlock was detected.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, OmniOutcome::Deadlock { .. })
    }

    /// A one-line description of a deadlock (empty for completed runs).
    pub fn deadlock_detail(&self) -> String {
        match self {
            OmniOutcome::Completed => String::new(),
            OmniOutcome::Deadlock { blocked } => blocked.join("; "),
        }
    }
}

/// Wall-clock time breakdown of a run, mirroring Fig. 8(c) of the paper.
///
/// This is the workspace-wide unified type: `front_end` covers elaboration,
/// `execution` the multi-threaded run, `finalize` the write-after-read
/// overlay and longest-path analysis.
pub use omnisim_api::SimTimings;

/// Counters describing the size of the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of Func Sim threads (dataflow tasks).
    pub threads: usize,
    /// Nodes in the partial simulation graph.
    pub graph_nodes: usize,
    /// Edges in the partial simulation graph (excluding the WAR overlay).
    pub graph_edges: usize,
    /// Committed FIFO accesses (reads + writes).
    pub fifo_accesses: u64,
    /// Total queries created for non-blocking accesses and status checks.
    pub queries: usize,
    /// Queries resolved by the forward-progress rule of §7.1.
    pub queries_forced_false: usize,
    /// Constraints recorded for incremental re-simulation.
    pub constraints: usize,
    /// Total interpreter operations executed across all threads.
    pub ops_executed: u64,
}

/// The result of an OmniSim run.
#[derive(Debug)]
pub struct OmniReport {
    /// How the run ended.
    pub outcome: OmniOutcome,
    /// Final value of every testbench-visible output that was written.
    pub outputs: OutputMap,
    /// End-to-end latency in clock cycles (for deadlocks, the latest
    /// committed event).
    pub total_cycles: u64,
    /// Wall-clock time breakdown.
    pub timings: SimTimings,
    /// Size counters.
    pub stats: SimStats,
    /// Everything needed to re-evaluate the run under different FIFO depths
    /// without re-simulating (§7.2).
    pub incremental: IncrementalState,
}

impl OmniReport {
    /// Convenience accessor: value of a named output, if written.
    pub fn output(&self, name: &str) -> Option<i64> {
        self.outputs.get(name).copied()
    }
}

/// Errors returned by the engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OmniError {
    /// A Func Sim thread failed (array out of bounds, fuel exhausted, …).
    Task {
        /// Name of the failed task's module.
        task: String,
        /// The underlying error.
        error: SimError,
    },
    /// The simulation graph was cyclic (indicates an engine bug).
    Graph(CycleError),
    /// A Func Sim thread panicked.
    ThreadPanic,
    /// A caller supplied a FIFO-depth vector of the wrong length to the
    /// sweep/DSE API (a usage error, not an engine bug).
    DepthMismatch {
        /// Number of FIFOs in the design.
        expected: usize,
        /// Number of depths supplied.
        got: usize,
    },
    /// A caller supplied an empty axis to a sweep grid. The cartesian
    /// product of anything with an empty axis is empty, so accepting it
    /// would make the whole grid silently vanish (a usage error, not an
    /// engine bug).
    EmptyGridAxis {
        /// Zero-based index of the offending axis.
        axis: usize,
    },
    /// A caller supplied a FIFO depth of zero, which is not a design point
    /// (a usage error, not an engine bug).
    ZeroDepth {
        /// Index of the first FIFO with depth zero.
        fifo: usize,
    },
    /// Phase-agnostic invariant violation inside the engine.
    Internal(String),
}

impl fmt::Display for OmniError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmniError::Task { task, error } => write!(f, "task '{task}' failed: {error}"),
            OmniError::Graph(e) => write!(f, "simulation graph error: {e}"),
            OmniError::ThreadPanic => write!(f, "a functionality-simulation thread panicked"),
            OmniError::DepthMismatch { expected, got } => write!(
                f,
                "depth vector has {got} entries but the design has {expected} fifos"
            ),
            OmniError::EmptyGridAxis { axis } => write!(
                f,
                "sweep grid axis {axis} is empty, so the grid would produce no points"
            ),
            OmniError::ZeroDepth { fifo } => {
                write!(f, "fifo {fifo} has depth 0, but fifo depths start at 1")
            }
            OmniError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl Error for OmniError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OmniError::Task { error, .. } => Some(error),
            OmniError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CycleError> for OmniError {
    fn from(value: CycleError) -> Self {
        OmniError::Graph(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates() {
        assert!(OmniOutcome::Completed.is_completed());
        let d = OmniOutcome::Deadlock {
            blocked: vec!["t1 waits on f0".into(), "t2 waits on f1".into()],
        };
        assert!(d.is_deadlock());
        assert!(!d.is_completed());
        assert_eq!(d.deadlock_detail(), "t1 waits on f0; t2 waits on f1");
        assert_eq!(OmniOutcome::Completed.deadlock_detail(), "");
    }

    #[test]
    fn errors_format_and_are_std_errors() {
        let e = OmniError::Task {
            task: "producer".into(),
            error: SimError::OutOfFuel {
                module: omnisim_ir::ModuleId(0),
            },
        };
        assert!(e.to_string().contains("producer"));
        fn assert_err<E: Error + Send + Sync + 'static>(_: &E) {}
        assert_err(&e);
    }
}
