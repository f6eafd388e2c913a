//! Unified-API adapter: the LightningSim baseline as a [`Simulator`]
//! backend, its [`CompiledSim`] session artifact, and the conversions from
//! the native report and error types.

use crate::error::LightningError;
use crate::report::LightningReport;
use crate::simulator::LightningSimulator;
use crate::trace::LightningTrace;
use omnisim_api::{
    Capabilities, CompiledSim, RunConfig, RunPath, SimFailure, SimOutcome, SimReport, SimTimings,
    Simulator,
};
use omnisim_ir::Design;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The decoupled two-phase LightningSim baseline as a unified [`Simulator`]
/// backend.
///
/// Cycle-accurate, but only for Type A designs: Type B/C designs are
/// rejected with [`SimFailure::Unsupported`], mirroring the "not supported"
/// cells of the paper's comparison tables. The two phases map directly onto
/// the session lifecycle: [`Simulator::compile`] runs Phase 1 once (trace
/// generation and simulation-graph construction), and every
/// [`CompiledSim::run`] is a Phase 2 analysis — LightningSim's incremental
/// DSE mode, now a first-class session instead of an extras payload.
#[derive(Debug, Default, Clone, Copy)]
pub struct LightningBackend;

impl Simulator for LightningBackend {
    fn name(&self) -> &'static str {
        "lightning"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            cycle_accurate: true,
            handles_type_b: false,
            handles_type_c: false,
            produces_timings: true,
            incremental_dse: true,
            // The trace payload answers depth queries but is not an
            // `IncrementalState`, so it cannot compile into a `SweepPlan`.
            compiled_dse: false,
            compiled_run: true,
            serializable_artifact: true,
        }
    }

    fn compile(&self, design: &Design) -> Result<Box<dyn CompiledSim>, SimFailure> {
        let started = Instant::now();
        let mut simulator = LightningSimulator::new(design)?;
        simulator.trace()?;
        let front_end = started.elapsed();
        let trace = simulator
            .into_trace()
            .expect("trace generated by the call above");
        let declared_depths = design.fifo_depths();
        // Pre-analyze the declared depths so default runs replay the cached
        // baseline instead of re-finalizing. A Phase 2 failure here (the
        // overlay diagnosis) is not a compile failure — it is re-derived,
        // and surfaced, by the run that asks for those depths.
        let started_baseline = Instant::now();
        let baseline_cycles = trace.analyze(&declared_depths).ok();
        let finalize = started_baseline.elapsed();
        Ok(Box::new(CompiledLightning {
            design_name: design.name.clone(),
            declared_depths,
            baseline_cycles,
            trace,
            compile_timings: SimTimings {
                front_end,
                finalize,
                ..SimTimings::default()
            },
            replays: AtomicU64::new(0),
            reanalyses: AtomicU64::new(0),
        }))
    }

    fn decode_artifact(
        &self,
        design: &Design,
        bytes: &[u8],
    ) -> Result<Box<dyn CompiledSim>, SimFailure> {
        crate::artifact::decode_compiled(design, bytes)
            .map(|compiled| Box::new(compiled) as Box<dyn CompiledSim>)
            .map_err(|error| {
                SimFailure::internal("lightning", format!("artifact decode failed: {error}"))
            })
    }
}

/// The LightningSim baseline compiled for repeated runs: the Phase 1 trace
/// plus the cached declared-depth analysis; depth-override runs re-run
/// Phase 2 only.
#[derive(Debug)]
pub struct CompiledLightning {
    pub(crate) design_name: String,
    pub(crate) declared_depths: Vec<usize>,
    /// Phase 2 answer for the declared depths, pre-computed at compile
    /// time (`None` if that analysis failed; the failure is reproduced by
    /// the run that requests it).
    pub(crate) baseline_cycles: Option<u64>,
    pub(crate) trace: LightningTrace,
    pub(crate) compile_timings: SimTimings,
    // Which path answered each run — scraped by the serving tier through
    // `CompiledSim::counters`.
    pub(crate) replays: AtomicU64,
    pub(crate) reanalyses: AtomicU64,
}

impl CompiledLightning {
    /// The cached Phase 1 trace the runs are answered from.
    pub fn trace(&self) -> &LightningTrace {
        &self.trace
    }
}

impl CompiledSim for CompiledLightning {
    fn backend(&self) -> &'static str {
        "lightning"
    }

    fn design_name(&self) -> &str {
        &self.design_name
    }

    fn compile_timings(&self) -> SimTimings {
        self.compile_timings
    }

    fn run(&self, config: &RunConfig) -> Result<SimReport, SimFailure> {
        let started = Instant::now();
        let depths = config
            .fifo_depths
            .as_deref()
            .unwrap_or(&self.declared_depths);
        // A depth-0 FIFO is not a design point; the graph analysis would
        // certify it (no traffic on that FIFO) or report a cycle.
        if depths.contains(&0) {
            return Err(SimFailure::execution(
                "lightning",
                "FIFO depths must be at least one",
            ));
        }
        let (total_cycles, path) = match self.baseline_cycles {
            // The compiled depths replay the cached baseline analysis.
            Some(cached) if depths == self.declared_depths => {
                self.replays.fetch_add(1, Ordering::Relaxed);
                (cached, RunPath("baseline_replay"))
            }
            _ => {
                self.reanalyses.fetch_add(1, Ordering::Relaxed);
                (self.trace.analyze(depths)?, RunPath("reanalysis"))
            }
        };
        let phase2_time = started.elapsed();
        let mut unified = SimReport::new("lightning", SimOutcome::Completed);
        unified.outputs = self.trace.outputs.clone();
        unified.total_cycles = Some(total_cycles);
        unified.timings.finalize = phase2_time;
        unified.extras.insert(path);
        unified.extras.insert(LightningReport {
            outputs: self.trace.outputs.clone(),
            total_cycles,
            // Phase 1 was paid at compile time, not by this run.
            phase1_time: std::time::Duration::ZERO,
            phase2_time,
            node_count: self.trace.node_count(),
            edge_count: self.trace.edge_count(),
        });
        Ok(unified)
    }

    fn encode(&self) -> Option<Vec<u8>> {
        Some(crate::artifact::encode_compiled(self))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("baseline_replays", self.replays.load(Ordering::Relaxed)),
            ("reanalyses", self.reanalyses.load(Ordering::Relaxed)),
        ]
    }
}

impl From<LightningReport> for SimReport {
    fn from(report: LightningReport) -> SimReport {
        // A LightningReport only exists for completed runs; unsupported
        // designs and execution failures never produce one. Phase 1 is the
        // baseline's front end (trace generation), Phase 2 its analysis.
        let mut unified = SimReport::new("lightning", SimOutcome::Completed);
        unified.outputs = report.outputs.clone();
        unified.total_cycles = Some(report.total_cycles);
        unified.timings.front_end = report.phase1_time;
        unified.timings.finalize = report.phase2_time;
        unified.extras.insert(report);
        unified
    }
}

impl From<LightningError> for SimFailure {
    fn from(error: LightningError) -> SimFailure {
        match &error {
            LightningError::Unsupported { .. } => {
                SimFailure::unsupported("lightning", error.to_string())
            }
            LightningError::Graph(_) => SimFailure::internal("lightning", error.to_string()),
            _ => SimFailure::execution("lightning", error.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim_graph::CycleError;
    use omnisim_ir::design::OutputMap;
    use omnisim_ir::{DesignBuilder, DesignClass, Expr};
    use std::time::Duration;

    #[test]
    fn report_converts_with_phase_timings() {
        let mut outputs = OutputMap::new();
        outputs.insert("sum".into(), 136);
        let report = LightningReport {
            outputs,
            total_cycles: 21,
            phase1_time: Duration::from_millis(5),
            phase2_time: Duration::from_millis(1),
            node_count: 32,
            edge_count: 31,
        };
        let unified: SimReport = report.into();
        assert_eq!(unified.backend, "lightning");
        assert!(unified.outcome.is_completed());
        assert_eq!(unified.total_cycles, Some(21));
        // Phase 1 is front-end (compile-phase) work, Phase 2 finalization.
        assert_eq!(unified.timings.front_end, Duration::from_millis(5));
        assert_eq!(unified.timings.finalize, Duration::from_millis(1));
        assert_eq!(unified.timings.total(), Duration::from_millis(6));
        let native = unified.extras.get::<LightningReport>().unwrap();
        assert_eq!(native.node_count, 32);
    }

    fn producer_consumer(n: i64, depth: usize) -> Design {
        let mut d = DesignBuilder::new("pc");
        let out = d.output("sum");
        let q = d.fifo("q", depth);
        let p = d.function("p", |m| {
            m.counted_loop("i", n, 1, |b| {
                let i = b.var_expr("i");
                b.fifo_write(q, i.add(Expr::imm(1)));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", n, 2, |b| {
                let v = b.fifo_read(q);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        d.dataflow_top("top", [p, c]);
        d.build().unwrap()
    }

    #[test]
    fn compiled_sessions_refinalize_per_run() {
        let design = producer_consumer(32, 2);
        let backend = LightningBackend;
        let one_shot = backend.simulate(&design).unwrap();
        let compiled = backend.compile(&design).unwrap();

        // Default run reproduces the one-shot results.
        let replay = compiled.run(&RunConfig::default()).unwrap();
        assert_eq!(replay.outputs, one_shot.outputs);
        assert_eq!(replay.total_cycles, one_shot.total_cycles);

        // Depth overrides re-run Phase 2 only, matching a fresh full run on
        // the resized design.
        for depth in [1usize, 4, 64] {
            let session = compiled
                .run(&RunConfig::new().with_fifo_depths([depth]))
                .unwrap();
            let fresh = backend
                .simulate(&design.with_fifo_depths(&[depth]))
                .unwrap();
            assert_eq!(session.total_cycles, fresh.total_cycles, "depth {depth}");
            assert_eq!(session.outputs, fresh.outputs);
        }

        // Wrong-arity overrides are caller errors.
        let failure = compiled
            .run(&RunConfig::new().with_fifo_depths([1usize, 2]))
            .unwrap_err();
        assert!(matches!(failure, SimFailure::Execution { .. }));

        // One cached replay; the three overrides plus the failed
        // wrong-arity attempt each count as a Phase 2 re-analysis.
        let counters: std::collections::BTreeMap<_, _> = compiled.counters().into_iter().collect();
        assert_eq!(counters["baseline_replays"], 1);
        assert_eq!(counters["reanalyses"], 4);
    }

    #[test]
    fn unsupported_designs_map_to_unsupported_failures() {
        let failure: SimFailure = LightningError::Unsupported {
            class: DesignClass::TypeC,
            reason: "non-blocking FIFO accesses".into(),
        }
        .into();
        assert!(failure.is_unsupported());
        assert_eq!(failure.backend(), "lightning");
        assert!(failure.to_string().contains("non-blocking"));
    }

    #[test]
    fn graph_bugs_map_to_internal_failures() {
        let failure: SimFailure = LightningError::Graph(CycleError).into();
        assert!(matches!(failure, SimFailure::Internal { .. }));
    }

    #[test]
    fn other_errors_map_to_execution_failures() {
        let failure: SimFailure = LightningError::TraceMissing.into();
        assert!(matches!(failure, SimFailure::Execution { .. }));
    }
}
