//! Regenerates **Table 6**: incremental re-simulation of `fig4_ex5` under
//! changed FIFO depths, through the unified compile-once session API — the
//! initial run *is* `Simulator::compile`, and the `IncrementalState` lives
//! on the session artifact.
//!
//! * `(2, 2) -> (2, 100)`: constraints hold, so the incremental path answers
//!   in microseconds.
//! * `(2, 2) -> (100, 2)`: constraints are violated (the congestion pattern
//!   changes), so a full re-simulation is required; the already-elaborated
//!   design still makes it cheaper than the initial run.
//!
//! The batch equivalent of this workflow is `omnisim_suite::Sweep`, shown at
//! the end together with the compiled `SweepPlan` it runs on (the plan is
//! compiled straight from the session artifact via `from_compiled`).

use omnisim_bench::secs;
use omnisim_designs::{fig4, DEFAULT_N};
use omnisim_suite::omnisim::{CompiledOmni, IncrementalOutcome};
use omnisim_suite::{backend, RunConfig, Sweep, SweepPlan};
use std::time::Instant;

fn main() {
    let n = DEFAULT_N;
    println!("Table 6: evaluating fig4_ex5 under different FIFO depths (N = {n})\n");

    let omni = backend("omnisim").expect("registered");
    let initial_start = Instant::now();
    let design = fig4::ex5_with_depths(n, 2, 2);
    let session = omni.compile(&design).expect("initial run (compile phase)");
    let initial_time = initial_start.elapsed();
    let report = session.run(&RunConfig::default()).expect("baseline replay");
    let incremental = session
        .as_any()
        .downcast_ref::<CompiledOmni>()
        .expect("the omnisim artifact")
        .state();

    println!(
        "{:<18} {:>10} {:>14} {:>8} {:>12} {:>12}",
        "description", "depths", "incr. time", "ok?", "total time", "speedup"
    );
    omnisim_bench::rule(82);
    println!(
        "{:<18} {:>10} {:>14} {:>8} {:>12} {:>12}",
        "initial run",
        "(2, 2)",
        "-",
        "-",
        secs(initial_time),
        "-"
    );

    // Case 1: growing the uncontended FIFO — incremental analysis succeeds.
    let start = Instant::now();
    let outcome = incremental
        .try_with_depths(&[2, 100])
        .expect("finalization succeeds");
    let incr_time = start.elapsed();
    match outcome {
        IncrementalOutcome::Valid { total_cycles } => {
            let speedup = initial_time.as_secs_f64() / incr_time.as_secs_f64().max(1e-9);
            println!(
                "{:<18} {:>10} {:>13.1?} {:>8} {:>12} {:>11.0}x",
                "incremental",
                "(2, 100)",
                incr_time,
                "yes",
                format!("{:.1?}", incr_time),
                speedup
            );
            println!("                   -> latency under (2, 100): {total_cycles} cycles");
        }
        other => panic!("expected the (2, 100) case to be incremental, got {other:?}"),
    }

    // Case 2: growing the contended FIFO — constraints violated, full re-run.
    let start = Instant::now();
    let outcome = incremental
        .try_with_depths(&[100, 2])
        .expect("finalization succeeds");
    let check_time = start.elapsed();
    match outcome {
        IncrementalOutcome::ConstraintViolated { constraint } => {
            let rerun_start = Instant::now();
            let resized = fig4::ex5_with_depths(n, 100, 2);
            let rerun = omni.simulate(&resized).expect("full re-simulation");
            let rerun_time = rerun_start.elapsed();
            let total = check_time + rerun_time;
            let speedup = initial_time.as_secs_f64() / total.as_secs_f64().max(1e-9);
            println!(
                "{:<18} {:>10} {:>13.1?} {:>8} {:>12} {:>11.2}x",
                "non-incremental",
                "(100, 2)",
                check_time,
                "no",
                secs(total),
                speedup
            );
            println!(
                "                   -> constraint #{constraint} violated; full re-simulation gives {} cycles, \
                 work split changes to P1={:?} / P2={:?}",
                rerun.total_cycles.unwrap(),
                rerun.output("processed_by_p1"),
                rerun.output("processed_by_p2"),
            );
        }
        other => panic!("expected the (100, 2) case to violate constraints, got {other:?}"),
    }

    omnisim_bench::rule(82);
    println!(
        "\noriginal run: {} cycles, P1={:?}, P2={:?}",
        report.total_cycles.unwrap(),
        report.output("processed_by_p1"),
        report.output("processed_by_p2"),
    );

    // The same two queries against the *compiled* plan: the session
    // artifact's frozen incremental state compiles into a CSR sweep plan,
    // lowered to a bytecode program whose per-point evaluation allocates
    // nothing.
    let start = Instant::now();
    let plan = SweepPlan::from_compiled(session.as_ref())
        .expect("the omnisim artifact compiles into a plan")
        .expect("plan compiles");
    let program = plan.compile_bytecode();
    let compile_time = start.elapsed();
    let start = Instant::now();
    let mut vm = program.vm();
    let compiled_a = vm.evaluate(&[2, 100]).expect("VM evaluates");
    let compiled_b = vm.evaluate(&[100, 2]).expect("VM evaluates");
    let eval_time = start.elapsed();
    assert_eq!(compiled_a, incremental.try_with_depths(&[2, 100]).unwrap());
    assert_eq!(compiled_b, incremental.try_with_depths(&[100, 2]).unwrap());
    println!(
        "\ncompiled plan: {} nodes compiled and lowered in {}, both queries re-answered in {:.1?} \
         (identical verdicts)",
        plan.node_count(),
        secs(compile_time),
        eval_time
    );

    // The same workflow in batch form: one Sweep call covers both rows and
    // compiles this plan internally.
    let start = Instant::now();
    let sweep = Sweep::new(&design)
        .point([2usize, 100])
        .point([100usize, 2])
        .run()
        .expect("sweep succeeds");
    println!(
        "batch Sweep over the same two points: {} incremental / {} full re-sim in {}",
        sweep.incremental_hits(),
        sweep.full_resims(),
        secs(start.elapsed())
    );
}
