//! Batch FIFO-depth design-space exploration — the Table 6 workflow as a
//! first-class API, now backed by the compiled [`SweepPlan`].
//!
//! [`Sweep`] is a thin loop over the shared compile-once path: one
//! [`CompiledOmni`] session (the baseline run), its [`SweepPlan`] lowered to
//! bytecode, and one VM batch (delta evaluation, no per-point allocation)
//! answering every depth vector whose recorded constraints still hold
//! (§7.2). The rest go through [`CompiledOmni::resimulate`], the one full
//! re-simulation fallback. Both phases run on scoped threads by default;
//! [`Sweep::workers`]`(1)` serializes them for deterministic profiling. A
//! zero depth is rejected with [`OmniError::ZeroDepth`], as on every
//! cycle-accurate entry point.
//!
//! ```
//! use omnisim_dse::Sweep;
//! use omnisim_ir::{DesignBuilder, Expr};
//!
//! let mut d = DesignBuilder::new("pc");
//! let out = d.output("sum");
//! let q = d.fifo("q", 2);
//! let p = d.function("p", |m| {
//!     m.counted_loop("i", 16, 1, |b| {
//!         let i = b.var_expr("i");
//!         b.fifo_write(q, i.add(Expr::imm(1)));
//!     });
//! });
//! let c = d.function("c", |m| {
//!     let acc = m.var("acc");
//!     m.entry(|b| { b.assign(acc, Expr::imm(0)); });
//!     m.counted_loop("i", 16, 2, |b| {
//!         let v = b.fifo_read(q);
//!         b.assign(acc, Expr::var(acc).add(Expr::var(v)));
//!     });
//!     m.exit(|b| { b.output(out, Expr::var(acc)); });
//! });
//! d.dataflow_top("top", [p, c]);
//! let design = d.build().unwrap();
//!
//! let sweep = Sweep::new(&design).grid(&[&[1, 2, 4, 8]]).run().unwrap();
//! assert_eq!(sweep.points.len(), 4);
//! assert!(sweep.incremental_hits() + sweep.full_resims() == 4);
//! assert_eq!(sweep.plan.fifo_count(), 1, "the compiled plan rides on the report");
//! ```

use crate::bytecode::CompiledPlan;
use crate::plan::SweepPlan;
use crate::pool;
use omnisim::{CompiledOmni, IncrementalOutcome, OmniError, OmniReport, SimConfig};
use omnisim_ir::design::OutputMap;
use omnisim_ir::Design;

/// How one sweep point was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMethod {
    /// Answered on the bytecode VM from the baseline run's recorded
    /// constraints, without re-simulating (microseconds).
    Incremental,
    /// The VM could not certify the new depths (a recorded constraint was
    /// violated, or the depths are infeasible or cyclic for the frozen
    /// graph), so the resized design was fully re-simulated.
    FullResim,
}

impl SweepMethod {
    /// Short label for tables (`"incremental"` / `"full re-sim"`).
    pub fn label(&self) -> &'static str {
        match self {
            SweepMethod::Incremental => "incremental",
            SweepMethod::FullResim => "full re-sim",
        }
    }
}

/// The answer for one candidate depth vector.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The FIFO depths of this design point (one entry per FIFO).
    pub depths: Vec<usize>,
    /// End-to-end latency under these depths.
    pub total_cycles: u64,
    /// How the point was answered.
    pub method: SweepMethod,
    /// Functional outputs of the full re-simulation. `None` for incremental
    /// answers: the constraints held, so behaviour is unchanged from
    /// [`SweepReport::baseline`].
    pub outputs: Option<OutputMap>,
}

/// The result of a [`Sweep`] run.
#[derive(Debug)]
pub struct SweepReport {
    /// The initial full run at the design's declared depths.
    pub baseline: OmniReport,
    /// One answer per requested point, in request order.
    pub points: Vec<SweepPoint>,
    /// The compiled plan the points were answered from, reusable for
    /// follow-up queries ([`SweepPlan::min_depths`]).
    pub plan: SweepPlan,
    /// The plan lowered to register-allocated bytecode — the program the
    /// points were actually executed through. Reusable for follow-up
    /// batches and persistable via [`CompiledPlan::encode`].
    pub bytecode: CompiledPlan,
}

impl SweepReport {
    /// Number of points answered incrementally (without re-simulation).
    pub fn incremental_hits(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.method == SweepMethod::Incremental)
            .count()
    }

    /// Number of points that required a full re-simulation.
    pub fn full_resims(&self) -> usize {
        self.points.len() - self.incremental_hits()
    }
}

/// Builder for a batch FIFO-depth design-space exploration.
#[derive(Debug)]
pub struct Sweep<'d> {
    design: &'d Design,
    config: SimConfig,
    points: Vec<Vec<usize>>,
    workers: Option<usize>,
    grid_error: Option<OmniError>,
}

impl<'d> Sweep<'d> {
    /// Creates a sweep over `design` with the default engine configuration.
    pub fn new(design: &'d Design) -> Self {
        Sweep {
            design,
            config: SimConfig::default(),
            points: Vec::new(),
            workers: None,
            grid_error: None,
        }
    }

    /// Uses an explicit engine configuration for the baseline run and every
    /// full re-simulation.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Pins the number of worker threads used for plan-evaluation chunks
    /// and full-re-simulation fallbacks (clamped to at least one). The
    /// default is one worker per core.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Adds one candidate depth vector (one entry per FIFO of the design).
    pub fn point(mut self, depths: impl Into<Vec<usize>>) -> Self {
        self.points.push(depths.into());
        self
    }

    /// Adds many candidate depth vectors.
    pub fn points<I, D>(mut self, points: I) -> Self
    where
        I: IntoIterator<Item = D>,
        D: Into<Vec<usize>>,
    {
        self.points.extend(points.into_iter().map(Into::into));
        self
    }

    /// Adds the cartesian product of per-FIFO candidate depths: `axes[i]`
    /// lists the depths to try for FIFO *i*. Points are generated with the
    /// last axis varying fastest, matching a nested-loop sweep.
    ///
    /// An empty axis would make the whole product empty — the grid would
    /// silently vanish — so it is rejected:
    /// [`Sweep::run`] reports [`OmniError::EmptyGridAxis`] naming the first
    /// empty axis.
    pub fn grid(mut self, axes: &[&[usize]]) -> Self {
        if let Some(axis) = axes.iter().position(|axis| axis.is_empty()) {
            self.grid_error
                .get_or_insert(OmniError::EmptyGridAxis { axis });
            return self;
        }
        let mut acc: Vec<Vec<usize>> = vec![Vec::new()];
        for axis in axes {
            let mut next = Vec::with_capacity(acc.len() * axis.len());
            for prefix in &acc {
                for &depth in *axis {
                    let mut point = prefix.clone();
                    point.push(depth);
                    next.push(point);
                }
            }
            acc = next;
        }
        self.points.extend(acc);
        self
    }

    /// Runs the baseline simulation and answers every requested point:
    /// one VM batch over the compiled [`SweepPlan`], then parallel
    /// [`CompiledOmni::resimulate`] runs for the points whose recorded
    /// constraints do not hold.
    ///
    /// # Errors
    ///
    /// Returns [`OmniError::EmptyGridAxis`] if a [`Sweep::grid`] axis was
    /// empty, the baseline run's error if it fails, [`OmniError::Graph`]
    /// if the baseline graph admits no topological order (an engine bug),
    /// [`OmniError::DepthMismatch`] if a point's depth vector has the wrong
    /// length, [`OmniError::ZeroDepth`] if it contains a zero depth, and
    /// any full re-simulation's error otherwise.
    pub fn run(self) -> Result<SweepReport, OmniError> {
        let Sweep {
            design,
            config,
            points,
            workers,
            grid_error,
        } = self;
        if let Some(error) = grid_error {
            return Err(error);
        }
        let session = CompiledOmni::compile(design, config)?;
        let plan = SweepPlan::compile(session.state())?;
        let bytecode = plan.compile_bytecode();
        // A pinned worker count is honored unconditionally; otherwise the
        // VM's estimated-work cutoff decides whether the batch is worth
        // parallelizing at all.
        let outcomes = match workers {
            Some(count) => bytecode.evaluate_batch_workers(&points, count),
            None => bytecode.evaluate_batch(&points, true),
        }?;

        let uncertified: Vec<usize> = (0..points.len())
            .filter(|&index| !outcomes[index].is_valid())
            .collect();
        let mut resims =
            pool::parallel_map(&uncertified, pool::resolve_workers(workers), |&index| {
                session.resimulate(&points[index], None)
            })
            .into_iter();
        let points = points
            .into_iter()
            .zip(outcomes)
            .map(|(depths, outcome)| match outcome {
                IncrementalOutcome::Valid { total_cycles } => Ok(SweepPoint {
                    depths,
                    total_cycles,
                    method: SweepMethod::Incremental,
                    outputs: None,
                }),
                IncrementalOutcome::ConstraintViolated { .. }
                | IncrementalOutcome::DepthInfeasible { .. }
                | IncrementalOutcome::DepthCyclic => {
                    let report = resims
                        .next()
                        .expect("one re-simulation per uncertified point")?;
                    Ok(SweepPoint {
                        depths,
                        total_cycles: report.total_cycles,
                        method: SweepMethod::FullResim,
                        outputs: Some(report.outputs),
                    })
                }
            })
            .collect::<Result<Vec<_>, OmniError>>()?;

        Ok(SweepReport {
            baseline: session.into_baseline(),
            points,
            plan,
            bytecode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim::test_fixtures::{
        nb_drop_counter, producer_consumer, producer_consumer_with_idle_fifo,
    };
    use omnisim::OmniSimulator;

    #[test]
    fn all_incremental_sweep_matches_manual_analysis() {
        let design = producer_consumer(64, 2, 2);
        let sweep = Sweep::new(&design).grid(&[&[1, 2, 4, 16]]).run().unwrap();
        assert_eq!(sweep.points.len(), 4);
        assert_eq!(sweep.incremental_hits(), 4);
        for point in &sweep.points {
            let manual = sweep
                .baseline
                .incremental
                .try_with_depths(&point.depths)
                .unwrap();
            match manual {
                IncrementalOutcome::Valid { total_cycles } => {
                    assert_eq!(point.total_cycles, total_cycles);
                }
                other => panic!("expected valid, got {other:?}"),
            }
            assert!(point.outputs.is_none(), "incremental points reuse baseline");
        }
    }

    #[test]
    fn fallback_points_match_full_resimulation() {
        let design = nb_drop_counter(48, 2, 3);
        let sweep = Sweep::new(&design).grid(&[&[1, 2, 64, 128]]).run().unwrap();
        assert!(
            sweep.full_resims() >= 1,
            "growing depths must flip outcomes"
        );
        for point in &sweep.points {
            let resized = design.with_fifo_depths(&point.depths);
            let full = OmniSimulator::new(&resized).run().unwrap();
            assert_eq!(
                point.total_cycles, full.total_cycles,
                "depths {:?}",
                point.depths
            );
            if let Some(outputs) = &point.outputs {
                assert_eq!(outputs, &full.outputs, "depths {:?}", point.depths);
            }
        }
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let design = nb_drop_counter(40, 1, 4);
        let grid: &[&[usize]] = &[&[1, 8, 32, 64, 128]];
        let parallel = Sweep::new(&design).grid(grid).run().unwrap();
        let sequential = Sweep::new(&design).grid(grid).workers(1).run().unwrap();
        assert_eq!(parallel.points.len(), sequential.points.len());
        for (p, s) in parallel.points.iter().zip(&sequential.points) {
            assert_eq!(p.depths, s.depths);
            assert_eq!(p.total_cycles, s.total_cycles);
            assert_eq!(p.method, s.method);
            assert_eq!(p.outputs, s.outputs);
        }
    }

    #[test]
    fn explicit_worker_counts_change_nothing() {
        // Worker counts are a throughput knob, never a semantics knob: one
        // worker (the sequential degenerate case), a deliberately odd
        // count, and the per-core default must answer identically.
        let design = nb_drop_counter(40, 1, 4);
        let grid: &[&[usize]] = &[&[1, 8, 32, 64, 128]];
        let default = Sweep::new(&design).grid(grid).run().unwrap();
        let one = Sweep::new(&design).grid(grid).workers(1).run().unwrap();
        let three = Sweep::new(&design).grid(grid).workers(3).run().unwrap();
        for (label, other) in [("workers(1)", &one), ("workers(3)", &three)] {
            assert_eq!(default.points.len(), other.points.len(), "{label}");
            for (p, s) in default.points.iter().zip(&other.points) {
                assert_eq!(p.depths, s.depths, "{label}");
                assert_eq!(p.total_cycles, s.total_cycles, "{label}");
                assert_eq!(p.method, s.method, "{label}");
                assert_eq!(p.outputs, s.outputs, "{label}");
            }
        }
        // workers(0) clamps to one instead of deadlocking or panicking.
        let clamped = Sweep::new(&design).grid(grid).workers(0).run().unwrap();
        assert_eq!(clamped.points.len(), default.points.len());
    }

    #[test]
    fn wrong_length_point_is_rejected_as_caller_error() {
        let design = producer_consumer(8, 2, 1);
        let err = Sweep::new(&design).point([1, 2]).run().unwrap_err();
        assert_eq!(
            err,
            OmniError::DepthMismatch {
                expected: 1,
                got: 2
            }
        );
        assert!(err.to_string().contains("2 entries"));
        assert!(err.to_string().contains("1 fifos"));
    }

    #[test]
    fn grid_generates_cartesian_product_in_nested_loop_order() {
        let design = producer_consumer(8, 2, 1);
        let sweep = Sweep::new(&design);
        let sweep = sweep.grid(&[&[1, 2]]);
        assert_eq!(sweep.points, vec![vec![1], vec![2]]);
        // Two axes: last axis varies fastest.
        let mut two_axis = Sweep::new(&design);
        two_axis = two_axis.grid(&[&[1, 2], &[7, 9]]);
        assert_eq!(
            two_axis.points,
            vec![vec![1, 7], vec![1, 9], vec![2, 7], vec![2, 9]]
        );
    }

    #[test]
    fn empty_grid_axis_is_rejected_not_swallowed() {
        // Regression: an empty axis used to annihilate the whole cartesian
        // product, so the sweep silently answered zero points.
        let design = producer_consumer(8, 2, 1);
        let err = Sweep::new(&design).grid(&[&[1, 2], &[]]).run().unwrap_err();
        assert_eq!(err, OmniError::EmptyGridAxis { axis: 1 });
        assert!(err.to_string().contains("axis 1"));

        // The first offending axis is reported even when several grids are
        // stacked, and valid points added before the bad grid don't save it.
        let err = Sweep::new(&design)
            .point([1usize])
            .grid(&[&[], &[3]])
            .grid(&[&[]])
            .run()
            .unwrap_err();
        assert_eq!(err, OmniError::EmptyGridAxis { axis: 0 });
    }

    #[test]
    fn depth_zero_points_take_the_uncompiled_path() {
        // A depth-0 FIFO is not a design point, so the VM rejects it up
        // front and the sweep reports ZeroDepth — whatever the uncompiled
        // path would have said. For a blocking design it would have called
        // depth 0 cyclic (the w-th write must follow the w-th read which
        // must follow the w-th write).
        let design = producer_consumer(12, 2, 1);
        let err = Sweep::new(&design).point([0usize]).run().unwrap_err();
        assert_eq!(err, OmniError::ZeroDepth { fifo: 0 });
        let manual = design;
        let baseline = OmniSimulator::new(&manual).run().unwrap();
        assert_eq!(
            baseline.incremental.try_with_depths(&[0]).unwrap(),
            IncrementalOutcome::DepthCyclic,
            "the uncompiled path agrees that depth 0 is cyclic here"
        );

        // On a FIFO with no recorded traffic the uncompiled path would
        // certify depth 0; the sweep still rejects it.
        let idle = producer_consumer_with_idle_fifo(12, 2, 1);
        let baseline = OmniSimulator::new(&idle).run().unwrap();
        assert!(baseline
            .incremental
            .try_with_depths(&[2, 0])
            .unwrap()
            .is_valid());
        let err = Sweep::new(&idle).point([2usize, 0]).run().unwrap_err();
        assert_eq!(err, OmniError::ZeroDepth { fifo: 1 });
    }

    #[test]
    fn depth_zero_on_an_infeasible_fifo_errors_instead_of_resimulating() {
        // A producer that leaves surplus data in the FIFO: depth 0 is
        // DepthInfeasible (not DepthCyclic) for the uncompiled path, and
        // must still surface as ZeroDepth — routing it to the resim
        // fallback would panic on `with_fifo_depths`'s zero-depth assertion.
        let mut d = omnisim_ir::DesignBuilder::new("surplus");
        let q = d.fifo("q", 2);
        let out = d.output("sum");
        let p = d.function("p", |m| {
            m.counted_loop("i", 4, 1, |b| {
                let i = b.var_expr("i");
                b.fifo_write(q, i);
            });
            m.exit(|b| {
                b.fifo_write(q, omnisim_ir::Expr::imm(99));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, omnisim_ir::Expr::imm(0));
            });
            m.counted_loop("i", 4, 1, |b| {
                let v = b.fifo_read(q);
                b.assign(
                    acc,
                    omnisim_ir::Expr::var(acc).add(omnisim_ir::Expr::var(v)),
                );
            });
            m.exit(|b| {
                b.output(out, omnisim_ir::Expr::var(acc));
            });
        });
        d.dataflow_top("top", [p, c]);
        let design = d.build().unwrap();
        let baseline = OmniSimulator::new(&design).run().unwrap();
        assert_eq!(
            baseline.incremental.try_with_depths(&[0]).unwrap(),
            IncrementalOutcome::DepthInfeasible { fifo: 0 }
        );
        let err = Sweep::new(&design).point([0usize]).run().unwrap_err();
        assert_eq!(err, OmniError::ZeroDepth { fifo: 0 });
    }

    #[test]
    fn report_retains_the_compiled_plan_for_follow_up_queries() {
        let design = producer_consumer(32, 2, 2);
        let sweep = Sweep::new(&design).grid(&[&[1, 2, 8]]).run().unwrap();
        let plan = &sweep.plan;
        assert_eq!(plan.fifo_count(), 1);
        // The lowered program rides on the report too, identical to a
        // fresh lowering of the retained plan.
        let program = &sweep.bytecode;
        assert_eq!(*program, plan.compile_bytecode());
        let outcome = program.vm().evaluate(&[8]).unwrap();
        let expected = sweep
            .points
            .iter()
            .find(|p| p.depths == [8])
            .unwrap()
            .total_cycles;
        match outcome {
            IncrementalOutcome::Valid { total_cycles } => {
                assert_eq!(total_cycles, expected)
            }
            other => panic!("expected valid, got {other:?}"),
        }
    }
}
