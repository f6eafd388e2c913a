//! Conformance tests for the unified `Simulator` API: every registered
//! backend is driven through `dyn Simulator` on the same designs and the
//! reports are cross-checked; the compile-once / run-many session lifecycle
//! (`compile` + `CompiledSim::run`) is verified for bit-identical replays,
//! concurrent shared-artifact runs and `RunConfig` depth-override
//! agreement; and the `Sweep` batch DSE driver is verified against the
//! manual incremental/full-re-simulation workflow it replaces.

use omnisim_suite::designs::fig4;
use omnisim_suite::ir::taxonomy::classify;
use omnisim_suite::ir::{Design, DesignBuilder, Expr};
use omnisim_suite::omnisim::{
    CompiledOmni, IncrementalOutcome, IncrementalState, OmniSimulator, SimStats,
};
use omnisim_suite::{all_backends, backend, RunConfig, SimReport, SimService, Sweep, SweepMethod};
use std::sync::Arc;
use std::time::Duration;

/// A small Type A producer/consumer design every backend can simulate.
fn type_a_design(n: i64) -> Design {
    let mut d = DesignBuilder::new("conformance");
    let data = d.array("data", (1..=n).collect::<Vec<i64>>());
    let out = d.output("sum");
    let q = d.fifo("q", 2);
    let p = d.function("producer", |m| {
        m.counted_loop("i", n, 1, |b| {
            let i = b.var_expr("i");
            let v = b.array_load(data, i);
            b.fifo_write(q, Expr::var(v));
        });
    });
    let c = d.function("consumer", |m| {
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
fn every_registered_backend_agrees_on_a_type_a_design() {
    let n = 48;
    let design = type_a_design(n);
    let expected_sum = n * (n + 1) / 2;
    let mut cycle_counts = Vec::new();

    for sim in all_backends() {
        let report = sim
            .simulate(&design)
            .unwrap_or_else(|e| panic!("{} rejected a Type A design: {e}", sim.name()));
        assert_eq!(report.backend, sim.name(), "report names its backend");
        assert!(
            report.outcome.is_completed(),
            "{} did not complete: {:?}",
            sim.name(),
            report.outcome
        );
        assert_eq!(
            report.output("sum"),
            Some(expected_sum),
            "{} got the functional result wrong",
            sim.name()
        );
        let caps = sim.capabilities();
        match report.total_cycles {
            Some(cycles) => {
                assert!(
                    caps.cycle_accurate,
                    "{} reports cycles without claiming cycle accuracy",
                    sim.name()
                );
                cycle_counts.push((sim.name(), cycles));
            }
            None => assert!(
                !caps.cycle_accurate,
                "{} claims cycle accuracy but reported no cycles",
                sim.name()
            ),
        }
    }

    // All cycle-accurate backends agree exactly on Type A designs.
    assert!(
        cycle_counts.len() >= 3,
        "rtl, lightning and omnisim report cycles"
    );
    let (first_name, first_cycles) = cycle_counts[0];
    for (name, cycles) in &cycle_counts[1..] {
        assert_eq!(
            *cycles, first_cycles,
            "{name} and {first_name} disagree on cycle count"
        );
    }
}

#[test]
fn capabilities_predict_type_c_support() {
    let design = fig4::ex5_with_depths(128, 2, 2);
    let class = classify(&design).class;
    for sim in all_backends() {
        let caps = sim.capabilities();
        let result = sim.simulate(&design);
        if sim.name() == "lightning" {
            // The only backend that *rejects* out-of-scope designs.
            assert!(!caps.supports(class));
            let failure = result.expect_err("lightning must reject Type C designs");
            assert!(failure.is_unsupported(), "got {failure:?}");
        } else {
            assert!(result.is_ok(), "{} errored: {:?}", sim.name(), result.err());
        }
    }
}

#[test]
fn incremental_capability_matches_shipped_extras() {
    let design = type_a_design(16);
    for sim in all_backends() {
        let Ok(report) = sim.simulate(&design) else {
            continue;
        };
        if sim.name() == "omnisim" {
            assert!(sim.capabilities().incremental_dse);
            assert!(report.extras.get::<IncrementalState>().is_some());
            assert!(report.extras.get::<SimStats>().is_some());
        }
        if !sim.capabilities().incremental_dse {
            assert!(report.extras.get::<IncrementalState>().is_none());
        }
    }
}

/// The `Sweep` API must reproduce the `fifo_sizing_dse` example's
/// incremental-hit/full-rerun split with identical cycle counts.
#[test]
fn sweep_reproduces_the_manual_dse_workflow() {
    let n = 256;
    let design = fig4::ex5_with_depths(n, 2, 2);
    let depth1_axis = [1usize, 2, 4, 16];
    let depth2_axis = [1usize, 2, 100];

    // The manual workflow the example used before the Sweep API existed.
    let baseline = OmniSimulator::new(&design).run().expect("baseline run");
    let mut manual: Vec<(Vec<usize>, u64, SweepMethod)> = Vec::new();
    for &d1 in &depth1_axis {
        for &d2 in &depth2_axis {
            match baseline.incremental.try_with_depths(&[d1, d2]).unwrap() {
                IncrementalOutcome::Valid { total_cycles } => {
                    manual.push((vec![d1, d2], total_cycles, SweepMethod::Incremental));
                }
                IncrementalOutcome::ConstraintViolated { .. }
                | IncrementalOutcome::DepthInfeasible { .. }
                | IncrementalOutcome::DepthCyclic => {
                    let resized = fig4::ex5_with_depths(n, d1, d2);
                    let full = OmniSimulator::new(&resized).run().unwrap();
                    manual.push((vec![d1, d2], full.total_cycles, SweepMethod::FullResim));
                }
            }
        }
    }

    let sweep = Sweep::new(&design)
        .grid(&[&depth1_axis, &depth2_axis])
        .run()
        .expect("sweep succeeds");

    assert_eq!(sweep.points.len(), manual.len());
    for (point, (depths, cycles, method)) in sweep.points.iter().zip(&manual) {
        assert_eq!(&point.depths, depths);
        assert_eq!(point.total_cycles, *cycles, "depths {depths:?}");
        assert_eq!(point.method, *method, "depths {depths:?}");
    }
    let manual_hits = manual
        .iter()
        .filter(|(_, _, m)| *m == SweepMethod::Incremental)
        .count();
    assert_eq!(sweep.incremental_hits(), manual_hits);
    assert_eq!(sweep.full_resims(), manual.len() - manual_hits);
    assert!(
        sweep.full_resims() > 0,
        "the grid must exercise the fallback"
    );
    assert!(
        sweep.incremental_hits() > 0,
        "the grid must exercise the fast path"
    );
}

/// The observable result fields of a report — everything that must be
/// bit-identical between a fresh `simulate` and a session `run` (timings
/// and extras are run-specific by design).
type ReportResults = (
    String,
    Vec<(String, i64)>,
    Option<u64>,
    Vec<(String, usize)>,
);

fn results_of(report: &SimReport) -> ReportResults {
    (
        format!("{:?}", report.outcome),
        report
            .outputs
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        report.total_cycles,
        report
            .warnings
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
    )
}

/// Session semantics, claim 1: compile-once/run-twice is bit-identical to
/// two fresh `simulate` calls, on every backend.
#[test]
fn compile_once_run_twice_matches_two_fresh_simulates_on_every_backend() {
    let design = type_a_design(24);
    for sim in all_backends() {
        let fresh_a = results_of(&sim.simulate(&design).unwrap());
        let fresh_b = results_of(&sim.simulate(&design).unwrap());
        assert_eq!(
            fresh_a,
            fresh_b,
            "{} one-shots are deterministic",
            sim.name()
        );

        let compiled = sim.compile(&design).unwrap();
        assert_eq!(compiled.backend(), sim.name());
        let run_a = compiled.run(&RunConfig::default()).unwrap();
        let run_b = compiled.run(&RunConfig::default()).unwrap();
        assert_eq!(
            results_of(&run_a),
            fresh_a,
            "{}: session run diverges from a fresh simulate",
            sim.name()
        );
        assert_eq!(
            results_of(&run_b),
            fresh_a,
            "{}: second session run diverges",
            sim.name()
        );
        // Per-run reports never charge front-end time; the one-shot path
        // folds the compile phase back in, keeping total() end-to-end.
        assert_eq!(
            run_a.timings.front_end,
            Duration::ZERO,
            "{}: runs must not re-pay the front end",
            sim.name()
        );
    }
}

/// Session semantics, claim 2: eight threads hammering one shared
/// `Arc<dyn CompiledSim>` — mixed default and depth-override requests —
/// observe exactly the single-threaded answers.
#[test]
fn concurrent_runs_on_a_shared_artifact_are_deterministic() {
    // Type C fixture so overrides exercise both the incremental path and
    // the full re-simulation fallback concurrently.
    let design = fig4::ex5_with_depths(64, 2, 2);
    for name in ["omnisim", "lightning", "rtl", "csim"] {
        let sim = backend(name).unwrap();
        let design = if name == "lightning" {
            type_a_design(32) // lightning rejects the Type C fixture
        } else {
            design.clone()
        };
        let compiled: Arc<dyn omnisim_suite::CompiledSim> =
            Arc::from(sim.compile(&design).unwrap());
        let configs: Vec<RunConfig> = std::iter::once(RunConfig::default())
            .chain(
                (1..=3).map(|d| RunConfig::new().with_fifo_depths(vec![d * 2; design.fifos.len()])),
            )
            .collect();
        let reference: Vec<_> = configs
            .iter()
            .map(|c| results_of(&compiled.run(c).unwrap()))
            .collect();

        std::thread::scope(|scope| {
            for thread in 0..8 {
                let shared = Arc::clone(&compiled);
                let configs = &configs;
                let reference = &reference;
                scope.spawn(move || {
                    // Each thread walks the configs in a different order.
                    for step in 0..configs.len() {
                        let index = (step + thread) % configs.len();
                        let report = shared.run(&configs[index]).unwrap();
                        assert_eq!(
                            results_of(&report),
                            reference[index],
                            "{name}: thread {thread} step {step} diverged"
                        );
                    }
                });
            }
        });
    }
}

/// Session semantics, claim 3: `RunConfig` depth overrides agree with the
/// incremental ground truth — certified answers match `try_with_depths`
/// bit for bit, uncertified ones match a full re-simulation.
#[test]
fn run_config_depth_overrides_agree_with_try_with_depths() {
    let design = fig4::ex5_with_depths(96, 2, 2);
    let compiled = backend("omnisim").unwrap().compile(&design).unwrap();
    let state = compiled
        .as_any()
        .downcast_ref::<CompiledOmni>()
        .expect("the omnisim artifact")
        .state();
    let baseline_outputs = compiled.run(&RunConfig::default()).unwrap().outputs;

    let mut certified = 0usize;
    let mut resimulated = 0usize;
    for depths in [
        vec![1usize, 1],
        vec![2, 2],
        vec![2, 100],
        vec![4, 16],
        vec![100, 2],
        vec![16, 100],
    ] {
        let run = compiled
            .run(&RunConfig::new().with_fifo_depths(depths.clone()))
            .unwrap();
        match state.try_with_depths(&depths).unwrap() {
            IncrementalOutcome::Valid { total_cycles } => {
                certified += 1;
                assert_eq!(
                    run.total_cycles,
                    Some(total_cycles),
                    "certified cycles diverge at {depths:?}"
                );
                assert_eq!(
                    run.outputs, baseline_outputs,
                    "certified runs replay baseline outputs at {depths:?}"
                );
            }
            _ => {
                resimulated += 1;
                let full = OmniSimulator::new(&design.with_fifo_depths(&depths))
                    .run()
                    .unwrap();
                assert_eq!(
                    run.total_cycles,
                    Some(full.total_cycles),
                    "fallback cycles diverge at {depths:?}"
                );
                assert_eq!(run.outputs, full.outputs, "fallback outputs at {depths:?}");
            }
        }
    }
    assert!(certified > 0, "the grid must exercise the certified path");
    assert!(resimulated > 0, "the grid must exercise the fallback");
}

/// The serving layer: one `SimService` per backend, a shared design, and a
/// mixed batch — all cycle-accurate backends agree, and a pinned
/// single-worker service answers identically to the parallel default.
#[test]
fn sim_service_serves_identical_answers_at_every_worker_count() {
    let design = type_a_design(32);
    let mut cycle_counts: Vec<(String, Option<u64>)> = Vec::new();
    for sim in all_backends() {
        let name = sim.name().to_owned();
        let cycle_accurate = sim.capabilities().cycle_accurate;
        let service = SimService::new(sim);
        let key = service.register(&design).unwrap();
        assert_eq!(service.register(&design).unwrap(), key, "{name}: cache hit");
        assert_eq!(service.compiles(), 1, "{name}: one compile");

        let requests: Vec<_> = (0..6).map(|_| (key, RunConfig::default())).collect();
        let parallel: Vec<_> = service
            .run_batch(&requests)
            .into_iter()
            .map(|r| results_of(&r.unwrap()))
            .collect();
        // Regression: a single-worker service must be answer-identical.
        let single = SimService::new(backend(&name).unwrap()).with_workers(1);
        let key1 = single.register(&design).unwrap();
        let sequential: Vec<_> = single
            .run_batch(
                &(0..6)
                    .map(|_| (key1, RunConfig::default()))
                    .collect::<Vec<_>>(),
            )
            .into_iter()
            .map(|r| results_of(&r.unwrap()))
            .collect();
        assert_eq!(parallel, sequential, "{name}: workers=1 changes answers");
        if cycle_accurate {
            cycle_counts.push((name, parallel[0].2));
        }
    }
    assert!(cycle_counts.len() >= 3);
    for (name, cycles) in &cycle_counts[1..] {
        assert_eq!(
            *cycles, cycle_counts[0].1,
            "{name} and {} disagree through the service",
            cycle_counts[0].0
        );
    }
}

#[test]
fn deadlocks_surface_uniformly_across_cycle_accurate_backends() {
    let design = omnisim_suite::designs::misc::deadlock();
    for name in ["omnisim", "rtl"] {
        let report = backend(name).unwrap().simulate(&design).unwrap();
        assert!(
            report.outcome.is_deadlock(),
            "{name} must detect the deadlock, got {:?}",
            report.outcome
        );
        match &report.outcome {
            omnisim_suite::SimOutcome::Deadlock { blocked } => {
                assert!(!blocked.is_empty(), "{name} must name the blocked tasks");
            }
            _ => unreachable!(),
        }
    }
}

/// A depth-0 FIFO is not a design point, so every cycle-accurate compiled
/// run rejects it as a caller error — also on a FIFO with no recorded
/// traffic, where the recorded constraints alone would certify it — and
/// the serving tier's DSE batch agrees.
#[test]
fn zero_depth_overrides_are_execution_failures_on_every_cycle_accurate_backend() {
    let design = omnisim_suite::omnisim::test_fixtures::producer_consumer_with_idle_fifo(8, 2, 1);
    for name in ["omnisim", "rtl", "lightning"] {
        let compiled = backend(name).unwrap().compile(&design).unwrap();
        for depths in [[2usize, 0], [0, 2]] {
            let failure = compiled
                .run(&RunConfig::new().with_fifo_depths(depths))
                .unwrap_err();
            assert!(
                matches!(failure, omnisim_suite::SimFailure::Execution { .. }),
                "{name} at {depths:?}: got {failure:?}"
            );
        }
    }
    let service = SimService::new(backend("omnisim").unwrap());
    let key = service.register(&design).unwrap();
    for depths in [[2usize, 0], [0, 2]] {
        let failure = service.dse_batch(key, &[depths]).unwrap_err();
        assert!(
            matches!(failure, omnisim_suite::SimFailure::Execution { .. }),
            "dse_batch at {depths:?}: got {failure:?}"
        );
    }
}
