//! Unified-API adapter: the OmniSim engine as a [`Simulator`] backend, the
//! engine's [`CompiledSim`] session artifact, and the conversions from the
//! native report, outcome and error types.
//!
//! [`CompiledOmni`] is the compile-once / run-many form of the engine: one
//! full simulation (elaboration + multi-threaded execution + finalization)
//! freezes the event/Perf graph into an
//! [`IncrementalState`](crate::IncrementalState), and every subsequent
//! [`CompiledSim::run`] is answered from that frozen state — a
//! microsecond-scale re-finalization for FIFO-depth overrides whose
//! recorded constraints hold (§7.2), a cached replay for the compiled
//! depths, and a transparent full re-simulation only where a constraint
//! flips. `omnisim-dse` upgrades the same artifact into its `SweepPlan`
//! (CSR compilation, delta evaluation) by downcasting through
//! [`CompiledSim::as_any`].
//!
//! The one-shot [`Simulator::simulate`] stays a native end-to-end run, so
//! every [`SimReport`] it produces still carries the run's
//! [`SimStats`](crate::SimStats) and [`IncrementalState`](crate::IncrementalState)
//! as extras.

use crate::config::SimConfig;
use crate::engine::OmniSimulator;
use crate::incremental::IncrementalOutcome;
use crate::report::{OmniError, OmniOutcome, OmniReport};
use omnisim_api::{
    Capabilities, CompiledSim, RunConfig, RunPath, SimFailure, SimOutcome, SimReport, SimTimings,
    Simulator,
};
use omnisim_ir::Design;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The OmniSim engine as a unified [`Simulator`] backend: cycle-accurate on
/// every taxonomy class, with per-phase timings and incremental-DSE state.
#[derive(Debug, Default, Clone, Copy)]
pub struct OmniBackend {
    /// Configuration used for every run.
    pub config: SimConfig,
}

impl OmniBackend {
    /// Creates a backend with an explicit configuration.
    pub fn with_config(config: SimConfig) -> Self {
        OmniBackend { config }
    }
}

impl Simulator for OmniBackend {
    fn name(&self) -> &'static str {
        "omnisim"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            cycle_accurate: true,
            handles_type_b: true,
            handles_type_c: true,
            produces_timings: true,
            incremental_dse: true,
            compiled_dse: true,
            compiled_run: true,
            serializable_artifact: true,
        }
    }

    fn compile(&self, design: &Design) -> Result<Box<dyn CompiledSim>, SimFailure> {
        CompiledOmni::compile(design, self.config)
            .map(|compiled| Box::new(compiled) as Box<dyn CompiledSim>)
            .map_err(SimFailure::from)
    }

    fn decode_artifact(
        &self,
        design: &Design,
        bytes: &[u8],
    ) -> Result<Box<dyn CompiledSim>, SimFailure> {
        crate::artifact::decode_compiled(design, bytes)
            .map(|compiled| Box::new(compiled) as Box<dyn CompiledSim>)
            .map_err(|error| {
                SimFailure::internal("omnisim", format!("artifact decode failed: {error}"))
            })
    }

    // One-shot runs stay native: the report hands its `IncrementalState`
    // and `SimStats` to the caller by value (through the extras), which a
    // session artifact must keep for itself.
    fn simulate(&self, design: &Design) -> Result<SimReport, SimFailure> {
        OmniSimulator::with_config(design, self.config)
            .run()
            .map(SimReport::from)
            .map_err(SimFailure::from)
    }
}

/// The OmniSim engine compiled for repeated runs: a baseline simulation
/// frozen into its [`IncrementalState`](crate::IncrementalState).
///
/// Constructed by [`OmniBackend::compile`] (unified) or
/// [`CompiledOmni::compile`] (native, typed errors). Every [`RunConfig`]
/// FIFO-depth override is first tried against the recorded constraints —
/// bit-identical to
/// [`IncrementalState::try_with_depths`](crate::IncrementalState::try_with_depths)
/// — and only falls back to a full re-simulation of the resized design when
/// a constraint flips (or the depths are infeasible/cyclic for the frozen
/// graph). Runs take `&self` and the artifact is `Send + Sync`, so one
/// compiled design serves concurrent sessions.
#[derive(Debug)]
pub struct CompiledOmni {
    design: Design,
    config: SimConfig,
    baseline: OmniReport,
    compile_timings: SimTimings,
    // Which path answered each run — scraped by the serving tier through
    // `CompiledSim::counters`.
    replays: AtomicU64,
    refinalizes: AtomicU64,
    resim_fallbacks: AtomicU64,
}

impl CompiledOmni {
    /// Compiles a design by running it once under `config` and freezing the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates the baseline run's [`OmniError`].
    pub fn compile(design: &Design, config: SimConfig) -> Result<CompiledOmni, OmniError> {
        let baseline = OmniSimulator::with_config(design, config).run()?;
        Ok(CompiledOmni::from_baseline(design, config, baseline))
    }

    /// Adopts an already-run baseline as a session artifact, skipping the
    /// compile-phase execution. `baseline` must be the result of running
    /// `design` under `config`; the artifact answers runs from it exactly
    /// as a fresh [`CompiledOmni::compile`] would.
    pub fn from_baseline(design: &Design, config: SimConfig, baseline: OmniReport) -> CompiledOmni {
        // The baseline's finalization is compile-phase work too (it is what
        // freezes the graph), so the whole native breakdown moves under the
        // compile timings; per-run reports start from zero.
        let compile_timings = baseline.timings;
        CompiledOmni {
            design: design.clone(),
            config,
            baseline,
            compile_timings,
            replays: AtomicU64::new(0),
            refinalizes: AtomicU64::new(0),
            resim_fallbacks: AtomicU64::new(0),
        }
    }

    /// The design the artifact was compiled from (as supplied, before
    /// elaboration).
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The engine configuration of the baseline run (and of re-simulation
    /// fallbacks, unless overridden per run).
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// The frozen baseline report.
    pub fn baseline(&self) -> &OmniReport {
        &self.baseline
    }

    /// The frozen incremental state — the §7.2 machinery the runs are
    /// answered from. `omnisim-dse` compiles its `SweepPlan` from this.
    pub fn state(&self) -> &crate::IncrementalState {
        &self.baseline.incremental
    }

    /// Consumes the artifact, returning the baseline report (used by batch
    /// drivers that compile a session, answer their points, and keep the
    /// baseline).
    pub fn into_baseline(self) -> OmniReport {
        self.baseline
    }

    /// A unified report replaying the frozen baseline (outputs, outcome and
    /// stats; the incremental state stays with the artifact).
    fn materialize_baseline(&self) -> SimReport {
        let mut report = SimReport::new("omnisim", self.baseline.outcome.clone().into());
        report.outputs = self.baseline.outputs.clone();
        report.total_cycles = Some(self.baseline.total_cycles);
        report.extras.insert(self.baseline.stats);
        report
    }

    /// Checks a depth override: one entry per FIFO, none zero. Runs before
    /// any answering path, because on a FIFO with no recorded blocking
    /// traffic the constraint check alone would certify depth 0.
    fn check_depths(&self, depths: &[usize]) -> Result<(), OmniError> {
        let expected = self.baseline.incremental.original_depths.len();
        if depths.len() != expected {
            return Err(OmniError::DepthMismatch {
                expected,
                got: depths.len(),
            });
        }
        match depths.iter().position(|&depth| depth == 0) {
            Some(fifo) => Err(OmniError::ZeroDepth { fifo }),
            None => Ok(()),
        }
    }

    /// Fully re-simulates the design resized to `depths`: the one fallback
    /// for depth vectors the frozen graph cannot certify, shared by
    /// [`CompiledOmni::run_native`] and `omnisim-dse`'s `Sweep`. Runs under
    /// the compiled configuration (`fuel` overrides its fuel) and counts
    /// one `resim_fallbacks` event.
    ///
    /// # Errors
    ///
    /// Returns [`OmniError::DepthMismatch`] for a wrong-arity vector,
    /// [`OmniError::ZeroDepth`] for a zero depth, and the re-simulation's
    /// own error otherwise.
    pub fn resimulate(&self, depths: &[usize], fuel: Option<u64>) -> Result<OmniReport, OmniError> {
        self.check_depths(depths)?;
        self.resim_fallbacks.fetch_add(1, Ordering::Relaxed);
        let resized = self.design.with_fifo_depths(depths);
        let config = fuel.map_or(self.config, |fuel| self.config.with_fuel(fuel));
        OmniSimulator::with_config(&resized, config).run()
    }

    /// Native-typed run: the unified [`CompiledSim::run`] minus the error
    /// conversion.
    ///
    /// # Errors
    ///
    /// Returns [`OmniError::DepthMismatch`] for wrong-arity depth overrides,
    /// [`OmniError::ZeroDepth`] for any zero-depth probe, and any
    /// re-simulation fallback's error.
    pub fn run_native(&self, config: &RunConfig) -> Result<SimReport, OmniError> {
        let run_start = Instant::now();
        let original = &self.baseline.incremental.original_depths;
        let depths = match &config.fifo_depths {
            Some(depths) if depths != original => depths.as_slice(),
            _ => {
                // The compiled depths: replay the frozen baseline.
                self.replays.fetch_add(1, Ordering::Relaxed);
                let mut report = self.materialize_baseline();
                report.timings.finalize = run_start.elapsed();
                report.extras.insert(RunPath("baseline_replay"));
                return Ok(report);
            }
        };
        self.check_depths(depths)?;
        match self.baseline.incremental.try_with_depths(depths)? {
            IncrementalOutcome::Valid { total_cycles } => {
                // Every recorded constraint holds: behaviour is unchanged
                // from the baseline, only the latency moves.
                self.refinalizes.fetch_add(1, Ordering::Relaxed);
                let mut report = self.materialize_baseline();
                report.total_cycles = Some(total_cycles);
                report.timings.finalize = run_start.elapsed();
                report.extras.insert(RunPath("refinalize"));
                Ok(report)
            }
            IncrementalOutcome::ConstraintViolated { .. }
            | IncrementalOutcome::DepthInfeasible { .. }
            | IncrementalOutcome::DepthCyclic => {
                // The frozen graph cannot certify these depths: a full
                // re-simulation of the resized design answers instead.
                let mut report = SimReport::from(self.resimulate(depths, config.fuel)?);
                report.extras.insert(RunPath("resim_fallback"));
                Ok(report)
            }
        }
    }
}

impl CompiledSim for CompiledOmni {
    fn backend(&self) -> &'static str {
        "omnisim"
    }

    fn design_name(&self) -> &str {
        &self.design.name
    }

    fn compile_timings(&self) -> SimTimings {
        self.compile_timings
    }

    fn run(&self, config: &RunConfig) -> Result<SimReport, SimFailure> {
        self.run_native(config).map_err(SimFailure::from)
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
            ("refinalizes", self.refinalizes.load(Ordering::Relaxed)),
            (
                "resim_fallbacks",
                self.resim_fallbacks.load(Ordering::Relaxed),
            ),
        ]
    }
}

impl From<OmniOutcome> for SimOutcome {
    fn from(outcome: OmniOutcome) -> SimOutcome {
        match outcome {
            OmniOutcome::Completed => SimOutcome::Completed,
            OmniOutcome::Deadlock { blocked } => SimOutcome::Deadlock { blocked },
        }
    }
}

impl From<OmniReport> for SimReport {
    fn from(report: OmniReport) -> SimReport {
        let OmniReport {
            outcome,
            outputs,
            total_cycles,
            timings,
            stats,
            incremental,
        } = report;
        let mut unified = SimReport::new("omnisim", outcome.into());
        unified.outputs = outputs;
        unified.total_cycles = Some(total_cycles);
        unified.timings = timings;
        unified.extras.insert(stats);
        unified.extras.insert(incremental);
        unified
    }
}

impl From<OmniError> for SimFailure {
    fn from(error: OmniError) -> SimFailure {
        match &error {
            // Task failures and malformed depth vectors or grids are the
            // caller's design/input going wrong; everything else is an
            // engine bug.
            OmniError::Task { .. }
            | OmniError::DepthMismatch { .. }
            | OmniError::ZeroDepth { .. }
            | OmniError::EmptyGridAxis { .. } => {
                SimFailure::execution("omnisim", error.to_string())
            }
            _ => SimFailure::internal("omnisim", error.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalState;
    use crate::report::SimStats;
    use crate::test_fixtures::{nb_drop_counter, producer_consumer};
    use omnisim_interp::SimError;
    use omnisim_ir::ModuleId;

    #[test]
    fn report_conversion_preserves_results_and_extras() {
        let design = producer_consumer(10, 2, 1);
        let native = OmniSimulator::new(&design).run().unwrap();
        let native_cycles = native.total_cycles;
        let native_threads = native.stats.threads;
        let unified: SimReport = native.into();

        assert_eq!(unified.backend, "omnisim");
        assert!(unified.outcome.is_completed());
        assert_eq!(unified.output("sum"), Some(55));
        assert_eq!(unified.total_cycles, Some(native_cycles));
        // Stats and incremental state ride along as extras.
        assert_eq!(
            unified.extras.get::<SimStats>().unwrap().threads,
            native_threads
        );
        let incremental = unified.extras.get::<IncrementalState>().unwrap();
        assert_eq!(incremental.original_depths, vec![2]);
    }

    #[test]
    fn incremental_state_still_answers_dse_through_extras() {
        let design = producer_consumer(16, 2, 1);
        let unified = OmniBackend::default().simulate(&design).unwrap();
        let incremental = unified.extras.get::<IncrementalState>().unwrap();
        let outcome = incremental.try_with_depths(&[32]).unwrap();
        assert!(
            outcome.is_valid(),
            "growing the only FIFO stays incremental"
        );
    }

    #[test]
    fn compiled_runs_replay_the_baseline_and_answer_depth_overrides() {
        let design = producer_consumer(16, 2, 1);
        let one_shot = OmniBackend::default().simulate(&design).unwrap();
        let compiled = CompiledOmni::compile(&design, SimConfig::default()).unwrap();
        assert_eq!(compiled.design_name(), "pc");

        // Default run == baseline == one-shot simulate.
        let replay = compiled.run(&RunConfig::default()).unwrap();
        assert_eq!(replay.outcome, one_shot.outcome);
        assert_eq!(replay.outputs, one_shot.outputs);
        assert_eq!(replay.total_cycles, one_shot.total_cycles);

        // A certified depth override moves only the latency.
        let expected = match compiled.state().try_with_depths(&[32]).unwrap() {
            IncrementalOutcome::Valid { total_cycles } => total_cycles,
            other => panic!("expected valid, got {other:?}"),
        };
        let widened = compiled
            .run(&RunConfig::new().with_fifo_depths([32usize]))
            .unwrap();
        assert_eq!(widened.total_cycles, Some(expected));
        assert_eq!(widened.outputs, one_shot.outputs);
    }

    #[test]
    fn constraint_violating_overrides_fall_back_to_full_resimulation() {
        // Growing the FIFO flips recorded non-blocking outcomes, so the
        // session must transparently re-simulate the resized design.
        let design = nb_drop_counter(48, 2, 3);
        let compiled = CompiledOmni::compile(&design, SimConfig::default()).unwrap();
        assert!(matches!(
            compiled.state().try_with_depths(&[128]).unwrap(),
            IncrementalOutcome::ConstraintViolated { .. }
        ));
        let run = compiled
            .run(&RunConfig::new().with_fifo_depths([128usize]))
            .unwrap();
        let full = OmniSimulator::new(&design.with_fifo_depths(&[128]))
            .run()
            .unwrap();
        assert_eq!(run.total_cycles, Some(full.total_cycles));
        assert_eq!(run.outputs, full.outputs);
    }

    #[test]
    fn compiled_run_rejects_bad_depth_vectors() {
        let design = producer_consumer(8, 2, 1);
        let compiled = CompiledOmni::compile(&design, SimConfig::default()).unwrap();
        let err = compiled
            .run_native(&RunConfig::new().with_fifo_depths([1usize, 2]))
            .unwrap_err();
        assert_eq!(
            err,
            OmniError::DepthMismatch {
                expected: 1,
                got: 2
            }
        );
        // A zero depth is a caller error, not a resim candidate.
        let err = compiled
            .run_native(&RunConfig::new().with_fifo_depths([0usize]))
            .unwrap_err();
        assert_eq!(err, OmniError::ZeroDepth { fifo: 0 });
    }

    #[test]
    fn counters_track_which_path_answered_each_run() {
        // A certified depth change on a blocking-only design re-finalizes.
        let design = producer_consumer(16, 2, 1);
        let compiled = CompiledOmni::compile(&design, SimConfig::default()).unwrap();
        assert!(compiled.counters().iter().all(|&(_, count)| count == 0));
        compiled.run(&RunConfig::default()).unwrap();
        compiled
            .run(&RunConfig::new().with_fifo_depths([32usize]))
            .unwrap();
        let counters: std::collections::BTreeMap<_, _> = compiled.counters().into_iter().collect();
        assert_eq!(counters["baseline_replays"], 1);
        assert_eq!(counters["refinalizes"], 1);
        assert_eq!(counters["resim_fallbacks"], 0);

        // Growing an NB design's FIFO flips recorded outcomes: fallback.
        let nb = nb_drop_counter(48, 2, 3);
        let compiled = CompiledOmni::compile(&nb, SimConfig::default()).unwrap();
        compiled
            .run(&RunConfig::new().with_fifo_depths([128usize]))
            .unwrap();
        let counters: std::collections::BTreeMap<_, _> = compiled.counters().into_iter().collect();
        assert_eq!(counters["resim_fallbacks"], 1);
        assert_eq!(counters.values().sum::<u64>(), 1, "counted exactly once");
    }

    #[test]
    fn deadlock_blocked_list_passes_through_structurally() {
        // The engine reports one entry per blocked task/FIFO pair; the
        // conversion must preserve the list as-is, even when user-chosen
        // names contain separator-looking substrings.
        let outcome = OmniOutcome::Deadlock {
            blocked: vec![
                "task 'a' blocked reading fifo 'req; ack' since cycle 1".to_owned(),
                "task 'b' blocked reading fifo 'y' since cycle 1".to_owned(),
            ],
        };
        match SimOutcome::from(outcome) {
            SimOutcome::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked[0].contains("'req; ack'"));
                assert!(blocked[1].contains("task 'b'"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn task_errors_become_execution_failures() {
        let failure: SimFailure = OmniError::Task {
            task: "producer".into(),
            error: SimError::OutOfFuel {
                module: ModuleId(0),
            },
        }
        .into();
        assert!(matches!(failure, SimFailure::Execution { .. }));
        assert!(failure.to_string().contains("producer"));

        let internal: SimFailure = OmniError::ThreadPanic.into();
        assert!(matches!(internal, SimFailure::Internal { .. }));
    }
}
