//! Differential suite for the compiled DSE engine: on every Type A/B/C
//! fixture design, the bytecode VM must agree **exactly** with the
//! uncompiled `IncrementalState::try_with_depths` path (same verdicts,
//! same latencies, same first-violated-constraint indices) across
//! randomized depth grids, and both must agree with a full re-simulation
//! of the resized design wherever an answer is certified.

use omnisim_suite::designs::{table4_designs_with_n, typea};
use omnisim_suite::ir::{Design, DesignClass};
use omnisim_suite::omnisim::test_fixtures::{nb_drop_counter, producer_consumer};
use omnisim_suite::omnisim::{IncrementalOutcome, OmniSimulator};
use omnisim_suite::{all_backends, CompiledPlan, Sweep, SweepPlan};

use omnisim_suite::gen::Rng;

/// Every fixture design the differential suite runs on, with a label for
/// failure messages and the declared taxonomy class for coverage checks.
fn fixture_designs() -> Vec<(String, Design, DesignClass)> {
    let n: i64 = 40;
    let mut designs: Vec<(String, Design, DesignClass)> = vec![
        (
            "producer_consumer".into(),
            producer_consumer(n, 2, 2),
            DesignClass::TypeA,
        ),
        (
            "nb_drop_counter".into(),
            nb_drop_counter(n, 2, 3),
            DesignClass::TypeC,
        ),
        (
            "vecadd_stream".into(),
            typea::vecadd_stream(n, 2),
            DesignClass::TypeA,
        ),
    ];
    designs.extend(
        table4_designs_with_n(n)
            .into_iter()
            .map(|bench| (bench.name.to_owned(), bench.design, bench.declared_class)),
    );
    designs
}

#[test]
fn fixture_set_covers_all_three_taxonomy_classes() {
    let designs = fixture_designs();
    for class in [DesignClass::TypeA, DesignClass::TypeB, DesignClass::TypeC] {
        assert!(
            designs.iter().any(|(_, _, c)| *c == class),
            "no fixture of class {class:?}"
        );
    }
}

/// The core differential claim: compiled == uncompiled == re-simulated.
#[test]
fn compiled_plan_matches_incremental_and_full_resimulation_on_random_grids() {
    let mut rng = Rng::new(0x0a51_51ca_5eed_0001);
    for (name, design, _) in fixture_designs() {
        let baseline = OmniSimulator::new(&design)
            .run()
            .unwrap_or_else(|e| panic!("{name}: baseline failed: {e}"));
        let plan = SweepPlan::compile(&baseline.incremental)
            .unwrap_or_else(|e| panic!("{name}: plan must compile: {e}"));
        assert_eq!(plan.fifo_count(), design.fifos.len(), "{name}");
        let program = plan.compile_bytecode();
        let mut vm = program.vm();

        for round in 0..12 {
            let depths: Vec<usize> = (0..plan.fifo_count()).map(|_| rng.depth(100)).collect();
            let compiled = vm
                .evaluate(&depths)
                .unwrap_or_else(|e| panic!("{name}: VM evaluation failed: {e}"));
            let incremental = baseline
                .incremental
                .try_with_depths(&depths)
                .unwrap_or_else(|e| panic!("{name}: incremental pass failed: {e}"));
            assert_eq!(
                compiled, incremental,
                "{name} round {round}: compiled and incremental disagree at {depths:?}"
            );

            // Certified answers must also match reality: a complete
            // re-simulation of the resized design (checked on half the
            // rounds to keep debug-build runtime in bounds). Deadlocked
            // baselines are excluded: their recorded graph is partial, so
            // the incremental path — compiled or not — reports the stall
            // horizon of the *original* deadlock, which need not equal the
            // resized run's (a pre-existing property of `try_with_depths`,
            // faithfully reproduced by the VM and pinned above).
            if round % 2 == 0 && baseline.outcome.is_completed() {
                let resized = design.with_fifo_depths(&depths);
                let full = OmniSimulator::new(&resized)
                    .run()
                    .unwrap_or_else(|e| panic!("{name}: full re-sim failed: {e}"));
                if let IncrementalOutcome::Valid { total_cycles } = compiled {
                    assert_eq!(
                        total_cycles, full.total_cycles,
                        "{name} round {round}: certified latency diverges from \
                         re-simulation at {depths:?}"
                    );
                }
            }
        }
    }
}

/// The bytecode VM must answer bit-identically to the uncompiled
/// incremental relaxation (`try_with_depths`, which interprets the recorded
/// graph directly) on every fixture — warm (delta) and cold, through the
/// codec roundtrip, and through every batch entry point.
#[test]
fn bytecode_vm_matches_interpreter_and_incremental_on_every_fixture() {
    let mut rng = Rng::new(0xb17e_c0de_5eed_0003);
    for (name, design, _) in fixture_designs() {
        let baseline = OmniSimulator::new(&design)
            .run()
            .unwrap_or_else(|e| panic!("{name}: baseline failed: {e}"));
        let plan = SweepPlan::compile(&baseline.incremental)
            .unwrap_or_else(|e| panic!("{name}: plan must compile: {e}"));
        let program = plan.compile_bytecode();
        let decoded = CompiledPlan::decode(&program.encode())
            .unwrap_or_else(|e| panic!("{name}: program must roundtrip: {e}"));
        let mut vm = program.vm();
        let mut decoded_vm = decoded.vm();
        let fifos = plan.fifo_count();

        let mut grid: Vec<Vec<usize>> = (0..16)
            .map(|_| (0..fifos).map(|_| rng.depth(100)).collect())
            .collect();
        // All-shallow vectors drive the DepthInfeasible / DepthCyclic
        // routing through the VM's Kahn slow path on blocking designs.
        grid.push(vec![1; fifos]);
        grid.push(vec![2; fifos]);

        let mut expected = Vec::with_capacity(grid.len());
        for depths in &grid {
            let outcome = vm
                .evaluate(depths)
                .unwrap_or_else(|e| panic!("{name}: VM evaluation failed: {e}"));
            assert_eq!(
                decoded_vm.evaluate(depths).unwrap(),
                outcome,
                "{name}: decoded program diverges at {depths:?}"
            );
            let incremental = baseline
                .incremental
                .try_with_depths(depths)
                .unwrap_or_else(|e| panic!("{name}: incremental pass failed: {e}"));
            assert_eq!(
                outcome, incremental,
                "{name}: VM and incremental disagree at {depths:?}"
            );
            expected.push(outcome);
        }

        // Every batch entry point answers like the per-point loop —
        // including an explicit worker count above the cutoff decision.
        assert_eq!(
            program.evaluate_batch(&grid, false).unwrap(),
            expected,
            "{name}"
        );
        assert_eq!(
            program.evaluate_batch(&grid, true).unwrap(),
            expected,
            "{name}"
        );
        assert_eq!(
            program.evaluate_batch_workers(&grid, 3).unwrap(),
            expected,
            "{name}"
        );
    }
}

/// The `Sweep` driver (plan fast path + re-simulation fallback) must report
/// re-simulation ground truth for every point, whichever path answered it.
#[test]
fn sweep_answers_equal_full_resimulation_on_every_fixture() {
    let mut rng = Rng::new(0xd5e_5eed_0000_0002);
    for (name, design, _) in fixture_designs() {
        let points: Vec<Vec<usize>> = (0..6)
            .map(|_| (0..design.fifos.len()).map(|_| rng.depth(64)).collect())
            .collect();
        let sweep = Sweep::new(&design)
            .points(points)
            .run()
            .unwrap_or_else(|e| panic!("{name}: sweep failed: {e}"));
        assert_eq!(
            sweep.plan.fifo_count(),
            design.fifos.len(),
            "{name}: the compiled plan rides on the report"
        );
        if !sweep.baseline.outcome.is_completed() {
            // See the note in the random-grid test: a deadlocked baseline's
            // incremental answers are stall horizons, not re-simulation
            // latencies, so re-sim equality is not the contract here.
            continue;
        }
        for point in &sweep.points {
            let resized = design.with_fifo_depths(&point.depths);
            let full = OmniSimulator::new(&resized)
                .run()
                .unwrap_or_else(|e| panic!("{name}: full re-sim failed: {e}"));
            assert_eq!(
                point.total_cycles,
                full.total_cycles,
                "{name}: sweep answer diverges at {:?} ({})",
                point.depths,
                point.method.label()
            );
        }
    }
}

/// Delta evaluation must be path-independent: visiting the same grid in
/// different orders (and from cold evaluators) gives identical answers.
#[test]
fn delta_evaluation_is_path_independent() {
    let design = table4_designs_with_n(40)
        .into_iter()
        .find(|b| b.name == "fig4_ex5")
        .expect("fig4_ex5 is in the fixture inventory")
        .design;
    let baseline = OmniSimulator::new(&design).run().unwrap();
    let program = SweepPlan::compile(&baseline.incremental)
        .unwrap()
        .compile_bytecode();

    let grid: Vec<Vec<usize>> = (1..=8)
        .flat_map(|d1| (1..=8).map(move |d2| vec![d1, d2]))
        .collect();
    let mut reversed = grid.clone();
    reversed.reverse();

    let forward = program.evaluate_batch(&grid, false).unwrap();
    let mut backward = program.evaluate_batch(&reversed, false).unwrap();
    backward.reverse();
    assert_eq!(forward, backward, "evaluation order must not matter");

    let parallel = program.evaluate_batch_workers(&grid, 3).unwrap();
    assert_eq!(forward, parallel, "chunked parallel solving must agree");
}

/// `min_depths` answers must be tight: the found depth meets the target,
/// one less does not — verified against the uncompiled ground truth.
#[test]
fn min_depths_search_is_tight_against_ground_truth() {
    let design = producer_consumer(48, 2, 1);
    let baseline = OmniSimulator::new(&design).run().unwrap();
    let plan = SweepPlan::compile(&baseline.incremental).unwrap();
    let max_depth = 64;
    let relaxed = match baseline.incremental.try_with_depths(&[max_depth]).unwrap() {
        IncrementalOutcome::Valid { total_cycles } => total_cycles,
        other => panic!("expected valid at max depth, got {other:?}"),
    };

    let meets = |depth: usize, target: u64| -> bool {
        matches!(
            baseline.incremental.try_with_depths(&[depth]).unwrap(),
            IncrementalOutcome::Valid { total_cycles } if total_cycles <= target
        )
    };
    for target in [relaxed, relaxed + 2, relaxed + 8] {
        let report = plan.min_depths(target, max_depth).unwrap();
        assert!(report.combined_meets_target(), "target {target}");
        let found = report.per_fifo[0].expect("search must certify a depth");
        assert!(meets(found, target), "found depth misses target {target}");
        if found > 1 {
            assert!(
                !meets(found - 1, target),
                "depth {} below the found minimum also meets target {target}",
                found - 1
            );
        }
        assert!(report.probes <= 16, "binary search, not a scan");
    }
}

/// Regression: on non-blocking designs, constraint validity is not
/// monotone in depth — the search bound itself often violates recorded
/// constraints even though the baseline certifies trivially. The search
/// must anchor at the baseline and still find a certified answer instead
/// of reporting `None`.
#[test]
fn min_depths_certifies_from_the_baseline_anchor_on_nonblocking_designs() {
    let design = nb_drop_counter(48, 2, 3);
    let baseline = OmniSimulator::new(&design).run().unwrap();
    let plan = SweepPlan::compile(&baseline.incremental).unwrap();
    let target = baseline.total_cycles;
    // The bound violates the recorded non-blocking outcomes (a deeper FIFO
    // would have accepted writes that failed in the baseline run)...
    assert!(matches!(
        baseline.incremental.try_with_depths(&[128]).unwrap(),
        IncrementalOutcome::ConstraintViolated { .. }
    ));
    // ...but the anchored search still certifies a depth at or below the
    // baseline's.
    let report = plan.min_depths(target, 128).unwrap();
    let found = report.per_fifo[0].expect("the baseline anchor must certify");
    assert!(
        found <= 2,
        "found {found}, expected at most the baseline depth"
    );
    assert!(report.combined_meets_target());
}

/// The `compiled_dse` capability flag must predict whether a backend's
/// compile-once session artifact actually compiles into a plan.
#[test]
fn compiled_dse_capability_predicts_from_compiled() {
    let design = producer_consumer(16, 2, 1);
    for sim in all_backends() {
        let Ok(compiled) = sim.compile(&design) else {
            continue;
        };
        let caps = sim.capabilities();
        match SweepPlan::from_compiled(compiled.as_ref()) {
            Some(Ok(plan)) => {
                assert!(
                    caps.compiled_dse,
                    "{} shipped a compilable artifact without advertising it",
                    sim.name()
                );
                assert_eq!(plan.fifo_count(), 1);
            }
            Some(Err(e)) => panic!("{}: artifact failed to compile: {e}", sim.name()),
            None => assert!(
                !caps.compiled_dse,
                "{} advertises compiled DSE but its artifact does not downcast",
                sim.name()
            ),
        }
    }
}
