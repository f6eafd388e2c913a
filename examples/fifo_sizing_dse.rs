//! FIFO-sizing design-space exploration on the congestion-aware dispatcher
//! of Fig. 4 Ex. 5 — the workflow behind Table 6 of the paper.
//!
//! The batch [`Sweep`] API runs the baseline once as a `CompiledOmni`
//! session, lowers it into a [`SweepPlan`] and bytecode, and answers every
//! candidate (depth1, depth2) pair in one VM batch — falling back to the
//! session's parallel full re-simulation only where the recorded
//! constraints are violated (asserted to happen at least once each way).
//! The compiled plan rides on the report, so follow-up queries (here: a
//! min-depth search) reuse the same baseline for free.
//!
//! Run with: `cargo run --release --example fifo_sizing_dse`

use omnisim_suite::designs::fig4;
use omnisim_suite::Sweep;

fn main() {
    let design = fig4::ex5_with_depths(1024, 2, 2);
    let sweep = Sweep::new(&design)
        .grid(&[&[1, 2, 4, 8, 16, 100], &[1, 2, 4, 16, 100]])
        .run()
        .expect("sweep succeeds");

    println!("baseline (2, 2): {} cycles\n", sweep.baseline.total_cycles);
    for p in &sweep.points {
        let label = p.method.label();
        println!("{:?}: {} cycles ({label})", p.depths, p.total_cycles);
    }
    let (hits, full) = (sweep.incremental_hits(), sweep.full_resims());
    println!("\n{hits} configurations answered from the compiled plan, {full} full re-simulations");
    assert!(
        hits > 0 && full > 0,
        "the grid must exercise both the VM and the re-simulation fallback"
    );

    // The compiled plan is retained on the report: ask the inverse question
    // ("smallest depths within 1% of the baseline latency") without
    // re-simulating anything.
    let plan = &sweep.plan;
    println!(
        "\ncompiled plan: {} nodes, {} edges, {} constraints",
        plan.node_count(),
        plan.edge_count(),
        plan.constraint_count()
    );
    let target = sweep.baseline.total_cycles + sweep.baseline.total_cycles / 100;
    let search = plan.min_depths(target, 64).expect("search succeeds");
    println!(
        "smallest certified depths for <= {target} cycles: {:?} ({} probes, combined {})",
        search.depths,
        search.probes,
        if search.combined_meets_target() {
            "meets the target"
        } else {
            "needs a full re-sim to certify"
        }
    );
}
