//! The cross-backend differential oracle.
//!
//! One generated design, every claim the workspace makes about it:
//!
//! * **omnisim == rtl, bit for bit** — same outcome kind, same outputs, and
//!   (for completed runs) the same total cycle count. This is the paper's
//!   headline claim, checked on an unbounded design population instead of a
//!   dozen hand-written fixtures.
//! * **lightning is right on Type A and honest elsewhere** — on Type A it
//!   must complete with the reference's outputs and cycle count; on Type B/C
//!   it must reject the design as unsupported (accepting one would silently
//!   produce wrong numbers, the exact failure mode of the paper's Table 5
//!   comparison).
//! * **csim diverges exactly where the paper says it does** — correct on
//!   Type A, wrong or crashing on most Type B/C designs; the oracle records
//!   the expected-divergence bookkeeping instead of asserting equality.
//! * **compiled DSE is exact** — bytecode-VM answers == uncompiled
//!   `try_with_depths` answers on random depth vectors (the VM running a
//!   codec-roundtripped program), and certified answers == a full
//!   re-simulation of the resized design.
//!
//! [`differential_check`] returns a [`DiffReport`]; an empty
//! [`DiffReport::failures`] means every claim held.

use crate::rng::Rng;
use omnisim::{CompiledOmni, IncrementalOutcome, OmniSimulator, SimConfig};
use omnisim_analyze::DeadlockVerdict;
use omnisim_api::{RunConfig, Simulator};
use omnisim_csim::CsimBackend;
use omnisim_dse::{CompiledPlan, CompiledVm, MinDepthsReport, SweepPlan};
use omnisim_ir::taxonomy::classify;
use omnisim_ir::{Design, DesignClass};
use omnisim_lightning::{LightningError, LightningSimulator};
use omnisim_rtlsim::{RtlConfig, RtlOutcome, RtlSimulator};

/// Knobs of the differential check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffConfig {
    /// Random FIFO-depth vectors evaluated per design by the DSE
    /// consistency check.
    pub dse_points: usize,
    /// Maximum depth of those vectors.
    pub dse_max_depth: usize,
    /// Verify certified DSE answers against a full re-simulation.
    pub dse_resim: bool,
    /// Run the `min_depths` inverse query on every completed baseline (with
    /// the baseline latency as target) and cross-check its combined verdict
    /// against `try_with_depths`.
    pub min_depths: bool,
    /// Search bound of that query.
    pub min_depths_bound: usize,
    /// Tightness oracle: ground-truth the `min_depths` certificate with
    /// full re-simulations — each certified per-FIFO minimum must simulate
    /// within the target, and one depth shallower must certifiably fail
    /// (higher latency, matched by re-simulation, or an infeasible depth
    /// that deadlocks). Costs up to two extra full runs per FIFO, so it is
    /// off by default and enabled by the dedicated tightness suite and the
    /// fuzz CLI's `--min-depths`.
    pub min_depths_resim: bool,
    /// Run the static analyzer on every design and check its certificates
    /// against the reference outcome: a `CertifiedFree` design must
    /// complete, a `CertifiedDeadlock` design must not, and the static
    /// depth lower bound must never exceed a declared depth the design
    /// completes at, nor a certified `min_depths` minimum. On by default —
    /// the analyzer is pure CPU work, orders of magnitude cheaper than the
    /// simulations around it; the fuzz CLI's `--no-analyze` disables it.
    pub analyze: bool,
    /// Cycle budget for the cycle-stepped reference (a generated design
    /// exceeding it counts as a hang, which is itself a failure).
    pub rtl_max_cycles: u64,
    /// Per-thread operation budget for the OmniSim engine — a backstop so a
    /// runaway generated design aborts with an error instead of hanging the
    /// fuzzer.
    pub omni_fuel: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            dse_points: 3,
            dse_max_depth: 16,
            dse_resim: true,
            min_depths: true,
            min_depths_bound: 12,
            min_depths_resim: false,
            analyze: true,
            rtl_max_cycles: 500_000,
            omni_fuel: 10_000_000,
        }
    }
}

/// How naive C simulation fared against the reference, for the
/// expected-divergence bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsimAgreement {
    /// Completed with exactly the reference's outputs.
    Agreed,
    /// Completed with different outputs (wrong drop counts, zero-cycle
    /// timers, …).
    Diverged,
    /// Crashed (the paper's `SIGSEGV` rows).
    Crashed,
}

/// The outcome of one differential check.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Taxonomy class of the checked design.
    pub class: DesignClass,
    /// True if both cycle-accurate backends completed the run (as opposed
    /// to agreeing on a deadlock).
    pub completed: bool,
    /// Agreed total cycle count, when completed.
    pub total_cycles: Option<u64>,
    /// C-simulation bookkeeping (`None` when the check aborted before csim
    /// ran).
    pub csim: Option<CsimAgreement>,
    /// Number of DSE depth vectors checked.
    pub dse_points_checked: usize,
    /// Number of compile-once session `run()`s cross-checked against the
    /// incremental ground truth.
    pub session_runs_checked: usize,
    /// Number of compiled evaluations the `min_depths` search spent
    /// (0 when the leg was skipped).
    pub min_depths_probes: usize,
    /// Static analyzer verdict (`None` when the leg was skipped or the
    /// check aborted before it ran).
    pub analysis: Option<DeadlockVerdict>,
    /// Every violated claim, human-readable. Empty means the design passed.
    pub failures: Vec<String>,
}

impl DiffReport {
    /// True if every differential claim held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Salt mixed into a fuzz seed to derive the DSE depth-vector generator, so
/// that a failing seed reproduces bit-identically in the test harness, the
/// `fuzz` CLI and CI.
pub const DSE_RNG_SALT: u64 = 0x0d5e_5eed_f022_ce00;

/// Generates the design for `seed` and differential-checks it, deriving the
/// DSE depth vectors deterministically from the same seed.
pub fn fuzz_seed(
    gen_cfg: &crate::config::GenConfig,
    diff: &DiffConfig,
    seed: u64,
) -> (crate::generate::Generated, DiffReport) {
    let generated = crate::generate::generate(gen_cfg, seed);
    let report = check_seeded(&generated.design, diff, seed);
    (generated, report)
}

/// Differential-checks one design with the deterministic DSE vectors for
/// `seed` — the reproduction (and shrinking) entry point behind
/// [`fuzz_seed`].
pub fn check_seeded(design: &Design, diff: &DiffConfig, seed: u64) -> DiffReport {
    differential_check(design, diff, &mut Rng::new(seed ^ DSE_RNG_SALT))
}

/// Runs every backend on `design` and cross-checks the results.
///
/// The `rng` drives only the DSE depth vectors; pass a freshly seeded
/// generator for reproducible checks.
pub fn differential_check(design: &Design, cfg: &DiffConfig, rng: &mut Rng) -> DiffReport {
    let class = classify(design).class;
    let mut failures = Vec::new();

    // --- omnisim vs the cycle-stepped reference --------------------------
    // The engine runs through the compile-once session API: the baseline
    // run is the compile phase, and the DSE legs below double as session
    // `run()` coverage.
    let omni_config = SimConfig::default().with_fuel(cfg.omni_fuel);
    let session = match CompiledOmni::compile(design, omni_config) {
        Ok(session) => session,
        Err(e) => {
            return DiffReport {
                class,
                completed: false,
                total_cycles: None,
                csim: None,
                dse_points_checked: 0,
                session_runs_checked: 0,
                min_depths_probes: 0,
                analysis: None,
                failures: vec![format!("omnisim failed to run: {e}")],
            };
        }
    };
    let omni = session.baseline();
    let rtl = match RtlSimulator::with_config(
        design,
        RtlConfig {
            max_cycles: cfg.rtl_max_cycles,
        },
    )
    .run()
    {
        Ok(report) => report,
        Err(e) => {
            return DiffReport {
                class,
                completed: false,
                total_cycles: None,
                csim: None,
                dse_points_checked: 0,
                session_runs_checked: 0,
                min_depths_probes: 0,
                analysis: None,
                failures: vec![format!("reference simulator failed to run: {e}")],
            };
        }
    };

    if let RtlOutcome::CycleLimit { limit } = rtl.outcome {
        failures.push(format!(
            "reference hit its {limit}-cycle budget: generated design does not terminate"
        ));
    }
    match (omni.outcome.is_completed(), rtl.outcome.is_completed()) {
        (true, true) | (false, false) => {}
        (o, _) => failures.push(format!(
            "outcome mismatch: omnisim {} but reference {:?}",
            if o { "completed" } else { "deadlocked" },
            rtl.outcome
        )),
    }
    let completed = omni.outcome.is_completed() && rtl.outcome.is_completed();
    // Outputs are compared only for completed runs: on a deadlock, OmniSim's
    // optimistic functional threads (blocking writes never pause, §7.1) may
    // have run tasks to completion that real hardware leaves stalled, so the
    // partial output sets are incomparable by design.
    if completed && omni.outputs != rtl.outputs {
        failures.push(format!(
            "output mismatch: omnisim {:?} vs reference {:?}",
            omni.outputs, rtl.outputs
        ));
    }
    if completed && omni.total_cycles != rtl.total_cycles {
        failures.push(format!(
            "cycle mismatch: omnisim {} vs reference {}",
            omni.total_cycles, rtl.total_cycles
        ));
    }

    // --- static analyzer certificates vs the reference -------------------
    // The analyzer's claims are schedule-independent, so the cycle-stepped
    // reference is a ground truth for them: a `CertifiedFree` design must
    // complete (a hung reference is inconclusive — that failure is already
    // recorded above), a `CertifiedDeadlock` design must never complete,
    // and the necessity depth bound must be satisfied by any depth vector
    // the design completes at — in particular the declared one.
    let analysis = cfg.analyze.then(|| omnisim_analyze::analyze(design));
    if let Some(report) = &analysis {
        let rtl_definitive = !matches!(rtl.outcome, RtlOutcome::CycleLimit { .. });
        match report.verdict {
            DeadlockVerdict::CertifiedFree => {
                if rtl_definitive && !rtl.outcome.is_completed() {
                    failures.push(format!(
                        "analyzer certified the design deadlock-free, but the reference \
                         reports {:?}",
                        rtl.outcome
                    ));
                }
            }
            DeadlockVerdict::CertifiedDeadlock => {
                if rtl.outcome.is_completed() {
                    failures
                        .push("analyzer certified a deadlock, but the reference completed".into());
                }
            }
            DeadlockVerdict::Unknown => {}
        }
        if rtl.outcome.is_completed() {
            for (f, b) in report.depth_bounds.iter().enumerate() {
                if b.bound > design.fifos[f].depth {
                    failures.push(format!(
                        "static depth bound {} for fifo {f} exceeds the declared depth {} \
                         of a completing design",
                        b.bound, design.fifos[f].depth
                    ));
                }
            }
        }
    }

    // --- lightning: correct on Type A, honest rejection on B/C -----------
    match class {
        DesignClass::TypeA => {
            match LightningSimulator::new(design).and_then(|mut s| s.simulate()) {
                Ok(light) => {
                    if !completed {
                        // A blocking-only design deadlocks exactly when the
                        // depth overlay is cyclic, so a successful analysis
                        // of a deadlocked design is a wrong answer (this is
                        // how multi-rate reconvergence with undersized
                        // FIFOs would silently mis-simulate on a decoupled
                        // two-phase tool).
                        failures.push(format!(
                            "lightning reported {} cycles for a Type A design that \
                             deadlocks in hardware",
                            light.total_cycles
                        ));
                    } else {
                        if light.outputs != rtl.outputs {
                            failures.push(format!(
                                "lightning output mismatch on Type A: {:?} vs {:?}",
                                light.outputs, rtl.outputs
                            ));
                        }
                        if light.total_cycles != rtl.total_cycles {
                            failures.push(format!(
                                "lightning cycle mismatch on Type A: {} vs {}",
                                light.total_cycles, rtl.total_cycles
                            ));
                        }
                    }
                }
                Err(e) => {
                    // On a deadlocked Type A design, lightning's Phase 2
                    // overlay is cyclic; the graph error *is* its honest
                    // deadlock diagnosis.
                    if completed {
                        failures.push(format!("lightning failed on a Type A design: {e}"));
                    }
                }
            }
        }
        DesignClass::TypeB | DesignClass::TypeC => {
            match LightningSimulator::new(design).and_then(|mut s| s.simulate()) {
                Ok(_) => failures.push(format!(
                    "lightning accepted a Type {class} design instead of rejecting it"
                )),
                Err(LightningError::Unsupported { .. }) => {}
                Err(e) => failures.push(format!(
                    "lightning rejected a Type {class} design with the wrong error: {e}"
                )),
            }
        }
    }

    // --- csim bookkeeping -------------------------------------------------
    let csim = match CsimBackend::default().simulate(design) {
        Ok(report) if report.outcome.is_crashed() => Some(CsimAgreement::Crashed),
        Ok(report) if report.outcome.is_completed() && report.outputs == rtl.outputs => {
            Some(CsimAgreement::Agreed)
        }
        Ok(_) => Some(CsimAgreement::Diverged),
        Err(e) => {
            failures.push(format!("csim refused to run: {e}"));
            None
        }
    };
    // C simulation has unbounded FIFOs and no hardware time, so it cannot
    // see a deadlock: its exactness claim only covers completed runs (on a
    // deadlocked design its full outputs against the reference's partial
    // ones are a *documented* divergence, Table 3).
    if class == DesignClass::TypeA && completed && csim != Some(CsimAgreement::Agreed) {
        failures.push(format!(
            "csim must reproduce Type A behaviour exactly, got {csim:?}"
        ));
    }

    // --- bytecode VM == incremental == full re-simulation ----------------
    let mut dse_points_checked = 0;
    let mut session_runs_checked = 0;
    let mut min_depths_probes = 0;
    if !design.fifos.is_empty() && (cfg.dse_points > 0 || cfg.min_depths) {
        match SweepPlan::compile(&omni.incremental) {
            Ok(plan) => {
                // One warm VM across the design's depth vectors, so the
                // delta/worklist paths fuzz too — and the program it runs
                // has been through one codec roundtrip, pinning the
                // persisted form as well.
                let lowered = plan.compile_bytecode();
                let program = match CompiledPlan::decode(&lowered.encode()) {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        failures.push(format!("bytecode program failed to roundtrip: {e}"));
                        lowered
                    }
                };
                let mut vm = program.vm();
                for _ in 0..cfg.dse_points {
                    let depths: Vec<usize> = (0..design.fifos.len())
                        .map(|_| rng.depth(cfg.dse_max_depth))
                        .collect();
                    let compiled = match vm.evaluate(&depths) {
                        Ok(o) => o,
                        Err(e) => {
                            failures
                                .push(format!("bytecode VM evaluation failed at {depths:?}: {e}"));
                            continue;
                        }
                    };
                    let incremental = match omni.incremental.try_with_depths(&depths) {
                        Ok(o) => o,
                        Err(e) => {
                            failures.push(format!("incremental pass failed at {depths:?}: {e}"));
                            continue;
                        }
                    };
                    dse_points_checked += 1;
                    if compiled != incremental {
                        failures.push(format!(
                            "bytecode VM disagrees with try_with_depths at {depths:?}: \
                             {compiled:?} vs {incremental:?}"
                        ));
                        continue;
                    }
                    // Session leg: a compile-once `run()` with these depth
                    // overrides must report the certified latency through
                    // the unified report — the wiring from incremental
                    // verdict to `SimReport`. (Its outputs are the
                    // baseline's by construction, so only the resim leg
                    // below can check outputs against reality.)
                    if let IncrementalOutcome::Valid { total_cycles } = compiled {
                        match session.run_native(&RunConfig::new().with_fifo_depths(depths.clone()))
                        {
                            Ok(run) => {
                                session_runs_checked += 1;
                                if run.total_cycles != Some(total_cycles) {
                                    failures.push(format!(
                                        "session run at {depths:?} reports {:?} cycles, but \
                                         the incremental path certifies {total_cycles}",
                                        run.total_cycles
                                    ));
                                }
                            }
                            Err(e) => {
                                failures.push(format!("session run failed at {depths:?}: {e}"))
                            }
                        }
                    }
                    if cfg.dse_resim && completed {
                        if let IncrementalOutcome::Valid { total_cycles } = compiled {
                            match OmniSimulator::with_config(
                                &design.with_fifo_depths(&depths),
                                omni_config,
                            )
                            .run()
                            {
                                Ok(full) => {
                                    if full.total_cycles != total_cycles {
                                        failures.push(format!(
                                            "certified DSE answer {total_cycles} diverges from \
                                             full re-simulation {} at {depths:?}",
                                            full.total_cycles
                                        ));
                                    }
                                    // Constraints holding is the §7.2 claim
                                    // that behaviour is unchanged, so the
                                    // resized design's *real* outputs must
                                    // equal the baseline's — exactly what a
                                    // certified session run replays.
                                    if full.outputs != omni.outputs {
                                        failures.push(format!(
                                            "certified point {depths:?} changes functional \
                                             outputs: {:?} vs baseline {:?}",
                                            full.outputs, omni.outputs
                                        ));
                                    }
                                }
                                Err(e) => failures
                                    .push(format!("full re-simulation failed at {depths:?}: {e}")),
                            }
                        }
                    }
                }

                // --- min_depths: the inverse DSE query, searched on every
                // completed baseline with the baseline latency as target,
                // its combined verdict cross-checked against the uncompiled
                // path and (optionally) its certificate ground-truthed for
                // tightness against full re-simulations.
                if cfg.min_depths && completed {
                    let target = omni.total_cycles;
                    match plan.min_depths(target, cfg.min_depths_bound) {
                        Ok(md) => {
                            min_depths_probes = md.probes;
                            // The static bound is necessary for completion
                            // while the certified minimum is sufficient for
                            // the latency target, so bound <= minimum.
                            if let Some(analysis) = &analysis {
                                for (f, (b, m)) in analysis
                                    .depth_bounds
                                    .iter()
                                    .zip(md.per_fifo.iter())
                                    .enumerate()
                                {
                                    if let Some(m) = m {
                                        if b.bound > *m {
                                            failures.push(format!(
                                                "static depth bound {} for fifo {f} exceeds \
                                                 the certified min_depths minimum {m}",
                                                b.bound
                                            ));
                                        }
                                    }
                                }
                            }
                            match omni.incremental.try_with_depths(&md.depths) {
                                Ok(outcome) if outcome == md.combined => {}
                                Ok(outcome) => failures.push(format!(
                                    "min_depths combined verdict diverges from try_with_depths \
                                     at {:?}: {:?} vs {outcome:?}",
                                    md.depths, md.combined
                                )),
                                Err(e) => failures.push(format!(
                                    "try_with_depths failed on the min_depths vector {:?}: {e}",
                                    md.depths
                                )),
                            }
                            if cfg.min_depths_resim {
                                check_min_depths_tightness(
                                    design,
                                    omni_config,
                                    target,
                                    &plan,
                                    cfg.min_depths_bound,
                                    &md,
                                    &mut vm,
                                    &mut failures,
                                );
                            }
                        }
                        Err(e) => failures.push(format!("min_depths search failed: {e}")),
                    }
                }
            }
            Err(e) => {
                // A deadlocked baseline's partial event graph need not
                // admit a depth-independent topological order; completed
                // runs always must.
                if completed {
                    failures.push(format!("sweep plan failed to compile: {e}"));
                }
            }
        }
    }

    DiffReport {
        class,
        completed,
        total_cycles: completed.then_some(omni.total_cycles),
        csim,
        dse_points_checked,
        session_runs_checked,
        min_depths_probes,
        analysis: analysis.map(|a| a.verdict),
        failures,
    }
}

/// The tightness oracle behind [`DiffConfig::min_depths_resim`]: every
/// certified per-FIFO minimum must actually simulate within the target
/// (holding the other FIFOs at their anchors), and one depth shallower must
/// certifiably fail — either the VM certifies a latency above the target
/// (which full re-simulation must reproduce exactly), or the depth is
/// infeasible (which full re-simulation must confirm as a non-completion).
/// A constraint flip one depth shallower proves nothing either way (validity
/// is not monotone), so it is skipped.
#[allow(clippy::too_many_arguments)]
fn check_min_depths_tightness(
    design: &Design,
    omni_config: SimConfig,
    target: u64,
    plan: &SweepPlan,
    bound: usize,
    md: &MinDepthsReport,
    vm: &mut CompiledVm<'_>,
    failures: &mut Vec<String>,
) {
    let anchors: Vec<usize> = plan
        .original_depths()
        .iter()
        .map(|&d| d.clamp(1, bound))
        .collect();
    let resim = |depths: &[usize]| {
        OmniSimulator::with_config(&design.with_fifo_depths(depths), omni_config).run()
    };
    for (f, min) in md.per_fifo.iter().enumerate() {
        let Some(min) = *min else { continue };
        let mut probe = anchors.clone();
        probe[f] = min;
        match resim(&probe) {
            Ok(full) if full.outcome.is_completed() && full.total_cycles <= target => {}
            Ok(full) => failures.push(format!(
                "min_depths certified fifo {f} at depth {min}, but full re-simulation \
                 gives {} cycles (completed: {}) against target {target} at {probe:?}",
                full.total_cycles,
                full.outcome.is_completed()
            )),
            Err(e) => failures.push(format!("full re-simulation failed at {probe:?}: {e}")),
        }
        if min == 1 {
            continue;
        }
        probe[f] = min - 1;
        match vm.evaluate(&probe) {
            Ok(IncrementalOutcome::Valid { total_cycles }) => {
                if total_cycles <= target {
                    failures.push(format!(
                        "min_depths reported {min} for fifo {f}, but the VM certifies \
                         {total_cycles} <= {target} one depth shallower"
                    ));
                } else {
                    match resim(&probe) {
                        Ok(full)
                            if full.outcome.is_completed() && full.total_cycles == total_cycles => {
                        }
                        Ok(full) => failures.push(format!(
                            "certified min_depths boundary {total_cycles} diverges from full \
                             re-simulation {} (completed: {}) at {probe:?}",
                            full.total_cycles,
                            full.outcome.is_completed()
                        )),
                        Err(e) => {
                            failures.push(format!("full re-simulation failed at {probe:?}: {e}"))
                        }
                    }
                }
            }
            Ok(IncrementalOutcome::DepthInfeasible { .. } | IncrementalOutcome::DepthCyclic) => {
                match resim(&probe) {
                    Ok(full) if !full.outcome.is_completed() => {}
                    Ok(_) => failures.push(format!(
                        "the VM calls {probe:?} infeasible, but the resized design completes"
                    )),
                    Err(e) => failures.push(format!("full re-simulation failed at {probe:?}: {e}")),
                }
            }
            Ok(IncrementalOutcome::ConstraintViolated { .. }) => {}
            Err(e) => failures.push(format!("bytecode VM evaluation failed at {probe:?}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;
    use crate::generate::generate;

    #[test]
    fn every_class_passes_on_a_small_seed_window() {
        let diff = DiffConfig::default();
        for class in [DesignClass::TypeA, DesignClass::TypeB, DesignClass::TypeC] {
            let cfg = GenConfig::for_class(class);
            for seed in 0..8 {
                let g = generate(&cfg, seed);
                let mut rng = Rng::new(seed ^ 0xdeed);
                let report = differential_check(&g.design, &diff, &mut rng);
                assert_eq!(report.class, class);
                assert!(
                    report.passed(),
                    "class {class:?} seed {seed} failed:\n  {}\nblueprint: {:#?}",
                    report.failures.join("\n  "),
                    g.blueprint
                );
            }
        }
    }

    #[test]
    fn forced_deadlocks_are_diagnosed_identically() {
        let cfg = GenConfig::type_b().with_tasks(2, 4).with_deadlocks(100);
        let diff = DiffConfig::default();
        let mut saw_deadlock = false;
        for seed in 0..12 {
            let g = generate(&cfg, seed);
            if !g.blueprint.has_forced_deadlock() {
                continue;
            }
            saw_deadlock = true;
            let mut rng = Rng::new(seed);
            let report = differential_check(&g.design, &diff, &mut rng);
            assert!(
                report.passed(),
                "seed {seed} failed:\n  {}",
                report.failures.join("\n  ")
            );
            assert!(!report.completed, "forced deadlock must not complete");
        }
        assert!(saw_deadlock, "no forced deadlock in 12 seeds at 100%");
    }
}
