//! The evaluator of the compiled DSE engine: a [`SweepPlan`] lowered into
//! a register-allocated linear program executed by a tight
//! zero-dependency VM loop.
//!
//! [`SweepPlan::compile_bytecode`] resolves the frozen CSR graph's
//! indirections ahead of time, so a point never walks edge lists, scans a
//! FIFO's writes for its depth-parameterized WAR edge, or orders a
//! worklist by heap:
//!
//! * **Register allocation** — nodes are renumbered by topological rank,
//!   so register `r`'s value depends only on registers `< r` and the whole
//!   program is one forward sweep over a flat `u64` time tape.
//! * **Linear program** — each register's incoming edges become a
//!   contiguous run of `RELAX dst, src, weight` instructions (gather form:
//!   the run *computes* `dst` from already-final registers), and each
//!   blocking write's depth-parameterized edge becomes one
//!   `WAR dst, fifo, slot` instruction that resolves `reads[slot − depth]`
//!   against the current depth vector at run time.
//! * **Per-FIFO dirty-set entry points** — the WAR instructions of each
//!   FIFO double as the delta-evaluation entry points: when a depth
//!   changes, evaluation jumps straight to the affected instruction runs
//!   (there is one per *blocking* write, typically a handful) instead of
//!   scanning every write of the FIFO, then propagates through a bitset
//!   worklist in register order, stopping wherever a recomputed register
//!   is unchanged.
//!
//! Outcomes are **bit-identical** to
//! [`IncrementalState::try_with_depths`](omnisim::IncrementalState::try_with_depths):
//! infeasible depths are rejected in the same order
//! ([`IncrementalOutcome::DepthInfeasible`]), points below the cached
//! order's supported bound take an allocating Kahn slow path (reporting
//! [`IncrementalOutcome::DepthCyclic`] when no order exists), constraints
//! are re-checked in recording order, and the latency formula is
//! unchanged. The differential fuzz oracle pins `VM == try_with_depths`
//! across every generator preset.
//!
//! Programs serialize through `omnisim-codec` ([`CompiledPlan::encode`] /
//! [`CompiledPlan::decode`], magic `OSBC`), so a serving tier can persist
//! them in its `ArtifactStore` next to the session artifacts they were
//! lowered from and warm-start the DSE fast path across process restarts.

use crate::plan::{PlanError, SweepPlan};
use omnisim::IncrementalOutcome;
use omnisim_codec::{frame, unframe, ByteReader, ByteWriter, CodecError};
use omnisim_graph::NodeId;

/// Sentinel for "this register is not a FIFO access" in the lookup tables.
const NONE: u32 = u32::MAX;

/// Magic bytes of the encoded bytecode program ("OmniSim Bytecode").
pub const BYTECODE_MAGIC: [u8; 4] = *b"OSBC";

/// Version of the encoded bytecode program format.
pub const BYTECODE_VERSION: u16 = 1;

/// One 16-byte `RELAX dst, src, weight` instruction of the linear
/// program: `a` is the source register, `b` the edge weight, and the
/// effect is `tape[dst] = max(tape[dst], tape[src] + weight)`.
///
/// `dst` is implicit: instructions are grouped by destination register in
/// ascending order ([`CompiledPlan::group_start`]). The depth-dependent
/// `WAR dst, fifo, slot` instruction is not in the stream — a register has
/// at most one (its node is at most one FIFO's blocking write), so it
/// lives in the per-register side table [`CompiledPlan::war_of`], applied
/// after the register's `RELAX` run. That factoring is also what gives
/// delta evaluation its fast path: the `RELAX` prefix of a run changes
/// only when a source register changes, so a pure depth change re-applies
/// just the `WAR` tail against the cached prefix value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    a: u32,
    b: i64,
}

/// Per-FIFO access lane in register space (the plan's node-space lane,
/// renumbered).
#[derive(Debug, Clone, PartialEq, Eq)]
struct VmLane {
    /// Register of each committed write, in commit order.
    writes: Vec<u32>,
    /// Blocking flag of each committed write.
    write_blocking: Vec<bool>,
    /// Register of each committed read, in commit order.
    reads: Vec<u32>,
}

/// A recorded query constraint with its node rewritten to register space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VmConstraint {
    write_side: bool,
    fifo: u32,
    ordinal: u32,
    reg: u32,
    outcome: bool,
}

/// One WAR instruction's location: the occupancy slot (write index) and
/// the destination register whose instruction run it lives in. Each FIFO's
/// list of these is its **dirty-set entry table**: a depth change seeds
/// delta evaluation with exactly these registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WarEntry {
    slot: u32,
    dst: u32,
}

/// A write-side constraint of one FIFO, carrying its recording index so a
/// per-FIFO scan still reports the global first-mismatch position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WsConstraint {
    index: u32,
    ordinal: u32,
    reg: u32,
    outcome: bool,
}

/// A read-side constraint: depth-independent, so its result is fixed for a
/// given tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RsConstraint {
    index: u32,
    fifo: u32,
    ordinal: u32,
    reg: u32,
    outcome: bool,
}

/// A [`SweepPlan`] lowered to a register-allocated linear program.
///
/// Self-contained (it embeds everything evaluation needs, including the
/// forward graph for the sub-minimum-depth slow path), `Send + Sync`, and
/// serializable with [`CompiledPlan::encode`] / [`CompiledPlan::decode`].
/// Build one with [`SweepPlan::compile_bytecode`]; evaluate with
/// [`CompiledPlan::evaluate`] / [`CompiledPlan::evaluate_batch`] or a
/// reusable [`CompiledVm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPlan {
    /// Number of registers (= plan nodes); the time tape's length.
    regs: u32,
    /// Base time of every register (its node's base, in register order).
    base: Vec<u64>,
    /// The linear program, grouped by destination register ascending.
    ops: Vec<Op>,
    /// Register → first instruction of its run (`regs + 1` entries).
    group_start: Vec<u32>,
    /// Forward successors in register space (CSR rows), for worklist
    /// propagation and the slow path's Kahn pass.
    fwd_row: Vec<u32>,
    fwd_col: Vec<u32>,
    fwd_weight: Vec<i64>,
    /// Per-FIFO access lanes in register space.
    lanes: Vec<VmLane>,
    /// Per-FIFO dirty-set entry points: one per blocking write.
    war_entries: Vec<Vec<WarEntry>>,
    /// Per-FIFO clamp for the delta-probe memo: beyond the FIFO's highest
    /// entry slot every `WAR` tail is gone, so all deeper depths share one
    /// memo slot.
    probe_clamp: Vec<u32>,
    /// Register → its `WAR` instruction `(fifo, occupancy slot)`, or
    /// `(NONE, NONE)` — at most one per register, applied after its
    /// `RELAX` run.
    war_of: Vec<(u32, u32)>,
    /// Per-FIFO infeasibility threshold (highest blocking-write slot minus
    /// the read count): the depth is infeasible iff it is ≤ this, with 0
    /// meaning no validated depth can be, since depths are ≥ 1.
    infeasible_thr: Vec<u32>,
    /// Register → `(fifo, read index)` when it is a committed read.
    read_of: Vec<(u32, u32)>,
    /// Flat constraint table, in the baseline's recording order.
    constraints: Vec<VmConstraint>,
    /// The write-side constraints bucketed per FIFO (recording order
    /// within each bucket): for a fixed tape, a bucket's first mismatch
    /// depends only on that FIFO's depth, which is what lets the VM
    /// memoize verdicts.
    ws_by_fifo: Vec<Vec<WsConstraint>>,
    /// Per-FIFO start offsets (last entry = total size) into the VM's flat
    /// verdict memo: FIFO `f` owns `ws_memo_off[f] + 0..=max ordinal`.
    ws_memo_off: Vec<u32>,
    /// Per-FIFO start offsets into the VM's flat delta-probe memo: FIFO
    /// `f` owns `probe_off[f] + 0..=probe_clamp[f]`.
    probe_off: Vec<u32>,
    /// The read-side constraints: their results depend on the tape alone.
    read_side: Vec<RsConstraint>,
    /// True when every supported minimum depth is ≤ 1, letting the hot
    /// path skip the slow-path routing check entirely (validation already
    /// guarantees depths ≥ 1).
    min_depth_trivial: bool,
    /// End register of every task that finished.
    end_regs: Vec<u32>,
    /// FIFO depths of the baseline run.
    original_depths: Vec<usize>,
    /// Per-FIFO minimum depth the register order supports; probes below it
    /// take the allocating slow path.
    supported_min_depth: Vec<usize>,
}

impl CompiledPlan {
    /// Lowers a frozen plan into its bytecode program. Total: every
    /// successfully compiled [`SweepPlan`] lowers.
    pub(crate) fn lower(plan: &SweepPlan) -> CompiledPlan {
        let n = plan.fwd.len();
        assert!(
            (n as u64) < NONE as u64 && (plan.lanes.len() as u64) < NONE as u64,
            "plan size exceeds the bytecode register space"
        );
        let reg_of = |node: u32| plan.topo_rank[node as usize];

        let mut base = Vec::with_capacity(n);
        let mut ops = Vec::new();
        let mut group_start = Vec::with_capacity(n + 1);
        let mut fwd_row = Vec::with_capacity(n + 1);
        let mut fwd_col = Vec::new();
        let mut fwd_weight = Vec::new();
        for r in 0..n {
            let node = plan.topo[r];
            base.push(plan.fwd.base(NodeId(node)));
            group_start.push(ops.len() as u32);
            for (pred, weight) in plan.rev.successors(NodeId(node)) {
                ops.push(Op {
                    a: reg_of(pred.0),
                    b: weight,
                });
            }
            fwd_row.push(fwd_col.len() as u32);
            for (succ, weight) in plan.fwd.successors(NodeId(node)) {
                fwd_col.push(reg_of(succ.0));
                fwd_weight.push(weight);
            }
        }
        group_start.push(ops.len() as u32);
        fwd_row.push(fwd_col.len() as u32);

        let lanes: Vec<VmLane> = plan
            .lanes
            .iter()
            .map(|lane| VmLane {
                writes: lane.writes.iter().map(|&w| reg_of(w)).collect(),
                write_blocking: lane.write_blocking.clone(),
                reads: lane.reads.iter().map(|&r| reg_of(r)).collect(),
            })
            .collect();
        let constraints = plan
            .constraints
            .iter()
            .map(|c| VmConstraint {
                write_side: c.write_side,
                fifo: c.fifo,
                ordinal: c.ordinal,
                reg: reg_of(c.node),
                outcome: c.outcome,
            })
            .collect();
        let end_regs = plan.end_nodes.iter().map(|&node| reg_of(node)).collect();

        CompiledPlan::assemble(
            n as u32,
            base,
            ops,
            group_start,
            fwd_row,
            fwd_col,
            fwd_weight,
            lanes,
            constraints,
            end_regs,
            plan.original_depths.clone(),
            plan.supported_min_depth.clone(),
        )
    }

    /// Builds a program from its serialized fields, computing every
    /// derived table (dirty-set entries, feasibility bounds, read lookup,
    /// verdict buckets) — shared by [`CompiledPlan::lower`] and
    /// [`CompiledPlan::decode`] so both paths agree structurally.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        regs: u32,
        base: Vec<u64>,
        ops: Vec<Op>,
        group_start: Vec<u32>,
        fwd_row: Vec<u32>,
        fwd_col: Vec<u32>,
        fwd_weight: Vec<i64>,
        lanes: Vec<VmLane>,
        constraints: Vec<VmConstraint>,
        end_regs: Vec<u32>,
        original_depths: Vec<usize>,
        supported_min_depth: Vec<usize>,
    ) -> CompiledPlan {
        let mut ws_by_fifo: Vec<Vec<WsConstraint>> = vec![Vec::new(); lanes.len()];
        let mut read_side = Vec::new();
        for (index, c) in constraints.iter().enumerate() {
            if c.write_side {
                ws_by_fifo[c.fifo as usize].push(WsConstraint {
                    index: index as u32,
                    ordinal: c.ordinal,
                    reg: c.reg,
                    outcome: c.outcome,
                });
            } else {
                read_side.push(RsConstraint {
                    index: index as u32,
                    fifo: c.fifo,
                    ordinal: c.ordinal,
                    reg: c.reg,
                    outcome: c.outcome,
                });
            }
        }
        let war_entries = derive_war_entries(&lanes);
        let probe_clamp: Vec<u32> = war_entries
            .iter()
            .map(|entries| entries.iter().map(|e| e.slot + 1).max().unwrap_or(0))
            .collect();
        let mut probe_off = Vec::with_capacity(lanes.len() + 1);
        let mut total = 0u32;
        for &clamp in &probe_clamp {
            probe_off.push(total);
            total += clamp + 1;
        }
        probe_off.push(total);
        let mut ws_memo_off = Vec::with_capacity(lanes.len() + 1);
        let mut total = 0u32;
        for bucket in &ws_by_fifo {
            ws_memo_off.push(total);
            total += bucket.iter().map(|c| c.ordinal + 1).max().unwrap_or(0);
        }
        ws_memo_off.push(total);
        CompiledPlan {
            regs,
            base,
            ops,
            group_start,
            fwd_row,
            fwd_col,
            fwd_weight,
            probe_clamp,
            probe_off,
            ws_memo_off,
            war_entries,
            war_of: derive_war_of(&lanes, regs as usize),
            infeasible_thr: derive_max_blocking(&lanes)
                .iter()
                .zip(&lanes)
                .map(|(&max, lane)| {
                    if max == NONE {
                        0
                    } else {
                        (max as usize).saturating_sub(lane.reads.len()) as u32
                    }
                })
                .collect(),
            read_of: derive_read_of(&lanes, regs as usize),
            lanes,
            constraints,
            ws_by_fifo,
            read_side,
            min_depth_trivial: supported_min_depth.iter().all(|&m| m <= 1),
            end_regs,
            original_depths,
            supported_min_depth,
        }
    }

    /// Number of FIFOs the program was compiled for.
    pub fn fifo_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of registers on the time tape (= plan nodes).
    pub fn register_count(&self) -> usize {
        self.regs as usize
    }

    /// Number of instructions in the linear program.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of recorded constraints re-checked per point.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// FIFO depths of the baseline run the program was lowered from.
    pub fn original_depths(&self) -> &[usize] {
        &self.original_depths
    }

    /// Creates a fresh VM with its own time tape and worklist; reuse it
    /// across points to keep delta evaluation.
    pub fn vm(&self) -> CompiledVm<'_> {
        let ws_memo = vec![MEMO_UNSET; *self.ws_memo_off.last().unwrap_or(&0) as usize];
        CompiledVm {
            plan: self,
            tape: Vec::with_capacity(self.regs as usize),
            relax_part: Vec::with_capacity(self.regs as usize),
            depths: Vec::new(),
            dirty: vec![0u64; (self.regs as usize).div_ceil(64)],
            full_dirty: vec![0u64; (self.regs as usize).div_ceil(64)],
            tape_dirty: true,
            fixed_first: MEMO_CLEAN,
            latency_memo: 0,
            ws_memo,
            memo_touched: Vec::new(),
            probe_memo: vec![PROBE_UNSET; *self.probe_off.last().unwrap_or(&0) as usize],
            probe_touched: Vec::new(),
        }
    }

    /// Validates one depth vector against the program: arity must match,
    /// depths must be ≥ 1.
    fn validate(&self, depths: &[usize]) -> Result<(), PlanError> {
        if depths.len() != self.lanes.len() {
            return Err(PlanError::DepthMismatch {
                expected: self.lanes.len(),
                got: depths.len(),
            });
        }
        if let Some(fifo) = depths.iter().position(|&d| d == 0) {
            return Err(PlanError::ZeroDepth { fifo });
        }
        Ok(())
    }

    /// Evaluates one depth vector on a fresh VM (one full program run).
    /// For sequences of related points, hold a [`CompiledPlan::vm`] instead
    /// and let delta evaluation skip the unaffected instruction runs.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for wrong-arity or zero-depth vectors.
    pub fn evaluate(&self, depths: &[usize]) -> Result<IncrementalOutcome, PlanError> {
        self.vm().evaluate(depths)
    }

    /// Estimated-work cutoff (points × registers) below which
    /// [`CompiledPlan::evaluate_batch`]`(…, parallel = true)` stays serial:
    /// a warm VM answers most points in nanoseconds, so the fixed parallel
    /// costs (thread spawn/join, one cold full program run per chunk,
    /// chunks losing the warm VM's memo locality) amortize only on large
    /// batches.
    pub(crate) const PARALLEL_WORK_CUTOFF: usize = 128_000_000;

    fn auto_workers(&self, points: usize) -> usize {
        if points.saturating_mul(self.regs as usize) < Self::PARALLEL_WORK_CUTOFF {
            1
        } else {
            crate::pool::default_workers()
        }
    }

    /// Evaluates every point, in order, chunking across scoped worker
    /// threads when `parallel` is set and the batch's estimated work
    /// (points × registers) clears the VM's parallel cutoff — small
    /// batches stay serial, where one warm VM beats per-chunk cold starts.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if any point has the wrong arity or contains
    /// a zero depth; no evaluation happens in that case.
    pub fn evaluate_batch<P>(
        &self,
        points: &[P],
        parallel: bool,
    ) -> Result<Vec<IncrementalOutcome>, PlanError>
    where
        P: AsRef<[usize]> + Sync,
    {
        let workers = if parallel {
            self.auto_workers(points.len())
        } else {
            1
        };
        self.evaluate_batch_workers(points, workers)
    }

    /// [`CompiledPlan::evaluate_batch`] with an explicit worker count
    /// (clamped to at least one and honored unconditionally).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if any point has the wrong arity or contains
    /// a zero depth; no evaluation happens in that case.
    pub fn evaluate_batch_workers<P>(
        &self,
        points: &[P],
        workers: usize,
    ) -> Result<Vec<IncrementalOutcome>, PlanError>
    where
        P: AsRef<[usize]> + Sync,
    {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        let workers = workers.max(1).min(points.len());
        if workers == 1 {
            // Serial: one warm VM, one pass — validation folds into the
            // per-point call and any error fails the batch as a whole.
            let mut vm = self.vm();
            let mut out = Vec::with_capacity(points.len());
            for point in points {
                out.push(vm.evaluate(point.as_ref())?);
            }
            return Ok(out);
        }
        for point in points {
            self.validate(point.as_ref())?;
        }
        let chunk_size = points.len().div_ceil(workers);
        let chunks: Vec<&[P]> = points.chunks(chunk_size).collect();
        let per_chunk = crate::pool::parallel_map(&chunks, workers, |chunk| {
            let mut vm = self.vm();
            chunk
                .iter()
                .map(|p| vm.evaluate_validated(p.as_ref()))
                .collect::<Vec<IncrementalOutcome>>()
        });
        Ok(per_chunk.into_iter().flatten().collect())
    }

    /// Serializes the program into a framed, checksummed, versioned byte
    /// stream (magic [`BYTECODE_MAGIC`], version [`BYTECODE_VERSION`]) —
    /// the same `omnisim-codec` discipline as the backend artifacts, so a
    /// serving tier can persist lowered programs in its store.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(self.regs);
        w.seq(self.base.iter(), |w, &t| w.u64(t));
        w.seq(self.ops.iter(), |w, op| {
            w.u32(op.a);
            w.i64(op.b);
        });
        w.seq(self.group_start.iter(), |w, &g| w.u32(g));
        w.seq(self.fwd_row.iter(), |w, &r| w.u32(r));
        w.seq(self.fwd_col.iter(), |w, &c| w.u32(c));
        w.seq(self.fwd_weight.iter(), |w, &x| w.i64(x));
        w.seq(self.lanes.iter(), |w, lane| {
            w.seq(lane.writes.iter(), |w, &r| w.u32(r));
            w.seq(lane.write_blocking.iter(), |w, &b| w.bool(b));
            w.seq(lane.reads.iter(), |w, &r| w.u32(r));
        });
        w.seq(self.constraints.iter(), |w, c| {
            w.bool(c.write_side);
            w.u32(c.fifo);
            w.u32(c.ordinal);
            w.u32(c.reg);
            w.bool(c.outcome);
        });
        w.seq(self.end_regs.iter(), |w, &r| w.u32(r));
        w.seq(self.original_depths.iter(), |w, &d| w.usize(d));
        w.seq(self.supported_min_depth.iter(), |w, &d| w.usize(d));
        frame(BYTECODE_MAGIC, BYTECODE_VERSION, &w.into_bytes())
    }

    /// Decodes a program from [`CompiledPlan::encode`]'s byte stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a bad frame (wrong magic, unsupported
    /// version, checksum mismatch) or a structurally invalid payload —
    /// corrupted files degrade to a re-lowering, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<CompiledPlan, CodecError> {
        let payload = unframe(BYTECODE_MAGIC, BYTECODE_VERSION, bytes)?;
        let mut r = ByteReader::new(payload);
        let regs = r.u32()?;
        let base = r.seq(|r| r.u64())?;
        let ops = r.seq(|r| {
            Ok(Op {
                a: r.u32()?,
                b: r.i64()?,
            })
        })?;
        let group_start = r.seq(|r| r.u32())?;
        let fwd_row = r.seq(|r| r.u32())?;
        let fwd_col = r.seq(|r| r.u32())?;
        let fwd_weight = r.seq(|r| r.i64())?;
        let lanes: Vec<VmLane> = r.seq(|r| {
            Ok(VmLane {
                writes: r.seq(|r| r.u32())?,
                write_blocking: r.seq(|r| r.bool())?,
                reads: r.seq(|r| r.u32())?,
            })
        })?;
        let constraints = r.seq(|r| {
            Ok(VmConstraint {
                write_side: r.bool()?,
                fifo: r.u32()?,
                ordinal: r.u32()?,
                reg: r.u32()?,
                outcome: r.bool()?,
            })
        })?;
        let end_regs = r.seq(|r| r.u32())?;
        let original_depths = r.seq(|r| r.usize())?;
        let supported_min_depth = r.seq(|r| r.usize())?;
        r.finish()?;

        let n = regs as usize;
        let in_regs = |xs: &[u32]| xs.iter().all(|&x| (x as usize) < n);
        let monotone_to = |xs: &[u32], limit: usize| {
            xs.len() == n + 1
                && xs.first() == Some(&0)
                && xs.windows(2).all(|w| w[0] <= w[1])
                && xs.last().copied() == Some(limit as u32)
        };
        let structure_ok = base.len() == n
            && monotone_to(&group_start, ops.len())
            && monotone_to(&fwd_row, fwd_col.len())
            && fwd_weight.len() == fwd_col.len()
            && in_regs(&fwd_col)
            && in_regs(&end_regs)
            && ops.iter().all(|op| (op.a as usize) < n)
            && lanes.iter().all(|lane| {
                lane.write_blocking.len() == lane.writes.len()
                    && in_regs(&lane.writes)
                    && in_regs(&lane.reads)
            })
            && constraints.iter().all(|c| {
                // The engine numbers each query's access as the committed
                // count + 1, so an ordinal past that is corrupt — and would
                // size the VM's verdict memo from untrusted input.
                lanes.get(c.fifo as usize).is_some_and(|lane| {
                    let accesses = if c.write_side {
                        lane.writes.len()
                    } else {
                        lane.reads.len()
                    };
                    (c.reg as usize) < n && c.ordinal as usize <= accesses + 1
                })
            })
            && original_depths.len() == lanes.len()
            && supported_min_depth.len() == lanes.len();
        if !structure_ok {
            return Err(CodecError::Invalid(
                "bytecode program structure is inconsistent".into(),
            ));
        }
        Ok(CompiledPlan::assemble(
            regs,
            base,
            ops,
            group_start,
            fwd_row,
            fwd_col,
            fwd_weight,
            lanes,
            constraints,
            end_regs,
            original_depths,
            supported_min_depth,
        ))
    }

    /// Replicates `IncrementalState::first_infeasible_fifo` so rejection
    /// order is bit-identical: "some blocking write sits at slot ≥ depth +
    /// reads" is exactly "the highest blocking slot does", i.e.
    /// `depth ≤ max − reads`, so the per-point check is one precomputed
    /// threshold compare per FIFO instead of a bool-slice scan.
    #[inline]
    fn first_infeasible_fifo(&self, depths: &[usize]) -> Option<usize> {
        depths
            .iter()
            .zip(&self.infeasible_thr)
            .position(|(&depth, &thr)| depth <= thr as usize)
    }
}

/// Per-FIFO highest blocking-write slot, [`NONE`] when there is none.
fn derive_max_blocking(lanes: &[VmLane]) -> Vec<u32> {
    lanes
        .iter()
        .map(|lane| {
            lane.write_blocking
                .iter()
                .rposition(|&blocking| blocking)
                .map_or(NONE, |slot| slot as u32)
        })
        .collect()
}

/// The per-FIFO dirty-set entry tables: one entry per blocking write.
fn derive_war_entries(lanes: &[VmLane]) -> Vec<Vec<WarEntry>> {
    lanes
        .iter()
        .map(|lane| {
            lane.writes
                .iter()
                .zip(&lane.write_blocking)
                .enumerate()
                .filter(|(_, (_, &blocking))| blocking)
                .map(|(slot, (&dst, _))| WarEntry {
                    slot: slot as u32,
                    dst,
                })
                .collect()
        })
        .collect()
}

/// Register → its `WAR` instruction `(fifo, occupancy slot)`; every
/// blocking write carries exactly one.
fn derive_war_of(lanes: &[VmLane], regs: usize) -> Vec<(u32, u32)> {
    let mut war_of = vec![(NONE, NONE); regs];
    for (f, lane) in lanes.iter().enumerate() {
        for (slot, (&reg, &blocking)) in lane.writes.iter().zip(&lane.write_blocking).enumerate() {
            if blocking {
                war_of[reg as usize] = (f as u32, slot as u32);
            }
        }
    }
    war_of
}

/// Register → `(fifo, read index)` lookup for WAR-successor propagation.
fn derive_read_of(lanes: &[VmLane], regs: usize) -> Vec<(u32, u32)> {
    let mut read_of = vec![(NONE, NONE); regs];
    for (f, lane) in lanes.iter().enumerate() {
        for (j, &reg) in lane.reads.iter().enumerate() {
            read_of[reg as usize] = (f as u32, j as u32);
        }
    }
    read_of
}

/// Memo slot not yet computed for the current tape.
const MEMO_UNSET: u32 = u32::MAX;
/// Memo slot computed: no mismatching constraint in this bucket.
const MEMO_CLEAN: u32 = u32::MAX - 1;

/// Delta-probe memo slot not yet computed for the current tape.
const PROBE_UNSET: u8 = 0;
/// Switching this FIFO to this (clamped) depth leaves the tape unchanged.
const PROBE_UNCHANGED: u8 = 1;
/// Switching this FIFO to this (clamped) depth moves at least one register.
const PROBE_CHANGED: u8 = 2;

/// The value a register's `WAR` tail contributes under `depths`: the
/// matching read's time + 1, or `None` when the write's occupancy slot is
/// below the depth or the read never commits.
#[inline]
fn war_time(
    plan: &CompiledPlan,
    tape: &[u64],
    fifo: usize,
    slot: usize,
    depths: &[usize],
) -> Option<u64> {
    let depth = depths[fifo];
    if slot < depth {
        return None;
    }
    plan.lanes[fifo]
        .reads
        .get(slot - depth)
        .map(|&read| tape[read as usize].saturating_add(1))
}

/// First mismatching write-side constraint of FIFO `f` under depth `d`
/// over `tape` ([`MEMO_CLEAN`] when the whole bucket holds). Replicates
/// `IncrementalState::evaluate_constraint`'s write side, scanning in
/// recording order with an early exit.
fn ws_first_mismatch(plan: &CompiledPlan, tape: &[u64], f: usize, d: usize) -> u32 {
    let lane = &plan.lanes[f];
    for c in &plan.ws_by_fifo[f] {
        let result = if c.ordinal as usize <= d {
            true
        } else {
            match lane.reads.get(c.ordinal as usize - d - 1) {
                Some(&read) => tape[read as usize] < tape[c.reg as usize],
                None => false,
            }
        };
        if result != c.outcome {
            return c.index;
        }
    }
    MEMO_CLEAN
}

/// First mismatching read-side constraint over `tape` ([`MEMO_CLEAN`]
/// when they all hold); read-side checks are depth-independent.
fn first_fixed_mismatch(plan: &CompiledPlan, tape: &[u64]) -> u32 {
    for c in &plan.read_side {
        let lane = &plan.lanes[c.fifo as usize];
        let result = match c
            .ordinal
            .checked_sub(1)
            .and_then(|i| lane.writes.get(i as usize))
        {
            Some(&write) => tape[write as usize] < tape[c.reg as usize],
            None => false,
        };
        if result != c.outcome {
            return c.index;
        }
    }
    MEMO_CLEAN
}

/// Reusable per-thread execution state for one [`CompiledPlan`]: the flat
/// `u64` time tape, the depth vector it reflects, the bitset worklist
/// delta evaluation propagates through, and the verdict memo.
///
/// The first [`CompiledVm::evaluate`] runs the full program; subsequent
/// calls jump straight to the changed FIFOs' WAR entry points and
/// re-execute only the instruction runs whose registers actually move.
/// When none do — the overwhelmingly common case in a dense sweep — the
/// verdict is answered from the memo: for a fixed tape, each FIFO's
/// write-side first mismatch is a function of that FIFO's depth alone,
/// read-side results and latency are functions of the tape alone, and the
/// recording-order first mismatch is the minimum over those buckets.
#[derive(Debug)]
pub struct CompiledVm<'p> {
    plan: &'p CompiledPlan,
    /// Longest-path time of every register under `depths` (valid once
    /// `depths` is non-empty).
    tape: Vec<u64>,
    /// Each register's value from its base and `RELAX` run only (no `WAR`
    /// tail) — valid whenever `tape` is, because any source change forces
    /// a full re-execution of the register's run. A depth-only change can
    /// then re-apply just the `WAR` tail against this cached prefix.
    relax_part: Vec<u64>,
    /// Depth vector `tape` currently reflects; empty before the first
    /// evaluation.
    depths: Vec<usize>,
    /// Bitset worklist over registers; processed in ascending register
    /// order, which is topological order by construction.
    dirty: Vec<u64>,
    /// Subset of `dirty` whose registers need their full `RELAX` run
    /// re-executed (a source changed), not just the `WAR` tail.
    full_dirty: Vec<u64>,
    /// Set whenever the tape changes; the next verdict refreshes the
    /// tape-dependent memo state below before using it.
    tape_dirty: bool,
    /// First mismatching read-side constraint for the current tape
    /// ([`MEMO_CLEAN`] when none).
    fixed_first: u32,
    /// Latency of the current tape.
    latency_memo: u64,
    /// Flat verdict memo, FIFO-partitioned by the plan's `ws_memo_off`:
    /// clamped depth → first mismatching write-side constraint of that
    /// FIFO ([`MEMO_UNSET`] until computed for the current tape).
    ws_memo: Vec<u32>,
    /// The memo slots computed since the last tape change, so invalidation
    /// clears exactly what was touched.
    memo_touched: Vec<u32>,
    /// Flat delta-probe memo, FIFO-partitioned by the plan's `probe_off`:
    /// clamped depth → whether switching that FIFO there (with the current
    /// tape) moves any register. Like the verdict memo this is a pure
    /// function of (tape, that FIFO's depth): the probe compares
    /// `max(relax_part, war_time)` against the tape, and `war_time` reads
    /// only the probed FIFO's own depth.
    probe_memo: Vec<u8>,
    /// The probe-memo slots computed since the last tape change.
    probe_touched: Vec<u32>,
}

impl CompiledVm<'_> {
    /// The program this VM executes.
    pub fn plan(&self) -> &CompiledPlan {
        self.plan
    }

    /// Evaluates one depth vector, bit-identically to
    /// [`IncrementalState::try_with_depths`](omnisim::IncrementalState::try_with_depths).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for wrong-arity or zero-depth vectors.
    pub fn evaluate(&mut self, depths: &[usize]) -> Result<IncrementalOutcome, PlanError> {
        self.plan.validate(depths)?;
        Ok(self.evaluate_validated(depths))
    }

    /// Evaluation core; `depths` must already be validated.
    #[inline]
    fn evaluate_validated(&mut self, depths: &[usize]) -> IncrementalOutcome {
        if let Some(fifo) = self.plan.first_infeasible_fifo(depths) {
            return IncrementalOutcome::DepthInfeasible { fifo };
        }
        if !self.plan.min_depth_trivial
            && depths
                .iter()
                .zip(&self.plan.supported_min_depth)
                .any(|(&d, &m)| d < m)
        {
            return self.evaluate_slow(depths);
        }
        if self.depths.is_empty() {
            self.run_full(depths);
            self.tape_dirty = true;
        } else if self.run_delta(depths) {
            self.tape_dirty = true;
        }
        self.depths.clear();
        self.depths.extend_from_slice(depths);
        self.verdict()
    }

    /// Executes one register's full instruction run — its `RELAX` run from
    /// already-final lower registers (caching the prefix value), then its
    /// `WAR` tail if any.
    #[inline]
    fn exec_group(&mut self, r: usize, depths: &[usize]) -> u64 {
        let plan = self.plan;
        let mut t = plan.base[r];
        let run = &plan.ops[plan.group_start[r] as usize..plan.group_start[r + 1] as usize];
        for op in run {
            let cand = self.tape[op.a as usize].saturating_add_signed(op.b);
            if cand > t {
                t = cand;
            }
        }
        self.relax_part[r] = t;
        let (fifo, slot) = plan.war_of[r];
        if fifo != NONE {
            if let Some(w) = war_time(plan, &self.tape, fifo as usize, slot as usize, depths) {
                if w > t {
                    t = w;
                }
            }
        }
        t
    }

    /// One forward sweep over the whole program.
    fn run_full(&mut self, depths: &[usize]) {
        self.tape.clear();
        self.tape.extend_from_slice(&self.plan.base);
        self.relax_part.clear();
        self.relax_part.extend_from_slice(&self.plan.base);
        for r in 0..self.plan.regs as usize {
            let t = self.exec_group(r, depths);
            self.tape[r] = t;
        }
    }

    /// Delta execution. A depth change can only enter the tape through the
    /// changed FIFOs' blocking writes — their dirty-set entry tables — so
    /// probing exactly those registers (no state writes) decides whether
    /// the tape moves at all. Each FIFO's probe result is a pure function
    /// of (tape, that FIFO's depth) and is memoized like the verdict; on a
    /// hit the whole decision is one table load. When every probed FIFO
    /// reports no change — the overwhelmingly common case in a dense
    /// sweep — the tape is proven unchanged and evaluation is done.
    /// Otherwise fall back to the exact worklist pass. Returns whether any
    /// tape value changed.
    #[inline]
    fn run_delta(&mut self, depths: &[usize]) -> bool {
        let plan = self.plan;
        let mut fallback = false;
        for f in 0..depths.len() {
            if self.depths[f] == depths[f] {
                continue;
            }
            // Beyond the FIFO's highest entry slot every `WAR` tail is
            // gone, so all deeper depths share one memo slot.
            let idx = plan.probe_off[f] as usize + depths[f].min(plan.probe_clamp[f] as usize);
            let changed = match self.probe_memo[idx] {
                PROBE_UNCHANGED => false,
                PROBE_CHANGED => true,
                _ => {
                    let changed = self.probe_fifo(f, depths);
                    self.probe_memo[idx] = if changed {
                        PROBE_CHANGED
                    } else {
                        PROBE_UNCHANGED
                    };
                    self.probe_touched.push(idx as u32);
                    changed
                }
            };
            if changed {
                fallback = true;
                break;
            }
        }
        if !fallback {
            return false;
        }
        self.run_delta_worklist(depths)
    }

    /// Whether switching FIFO `f` to `depths[f]` (current tape) moves any
    /// of its entry registers: recompute each as cached `RELAX` prefix +
    /// `WAR` tail, no state writes.
    fn probe_fifo(&self, f: usize, depths: &[usize]) -> bool {
        let plan = self.plan;
        for entry in &plan.war_entries[f] {
            let r = entry.dst as usize;
            let mut t = self.relax_part[r];
            if let Some(w) = war_time(plan, &self.tape, f, entry.slot as usize, depths) {
                if w > t {
                    t = w;
                }
            }
            if t != self.tape[r] {
                return true;
            }
        }
        false
    }

    /// The exact delta pass: seed every entry of every changed FIFO into
    /// the bitset worklist, then re-execute dirty instruction runs in
    /// register order, propagating only where a register's recomputed
    /// value moved. Returns whether any tape value changed (the caller
    /// has already proven at least one will).
    fn run_delta_worklist(&mut self, depths: &[usize]) -> bool {
        let plan = self.plan;
        let mut pending = 0usize;
        let mut min_word = usize::MAX;
        for (f, entries) in plan.war_entries.iter().enumerate() {
            if self.depths[f] == depths[f] {
                continue;
            }
            for entry in entries {
                let (word, bit) = (entry.dst as usize / 64, 1u64 << (entry.dst % 64));
                if self.dirty[word] & bit == 0 {
                    self.dirty[word] |= bit;
                    pending += 1;
                    min_word = min_word.min(word);
                }
            }
        }
        if pending == 0 {
            return false;
        }
        let mut changed = false;
        let mut word = min_word;
        loop {
            let bits = self.dirty[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            // Pop the lowest dirty register; everything marked while
            // processing it is strictly higher, so this sweep is a single
            // forward pass in topological order.
            self.dirty[word] = bits & (bits - 1);
            pending -= 1;
            let bit = bits & bits.wrapping_neg();
            let r = word * 64 + bits.trailing_zeros() as usize;
            let t = if self.full_dirty[word] & bit != 0 {
                // A source register moved: re-execute the whole run.
                self.full_dirty[word] &= !bit;
                self.exec_group(r, depths)
            } else {
                // Seeded by a depth change alone: the `RELAX` prefix is
                // untouched, so re-apply just the `WAR` tail against its
                // cached value.
                let mut t = self.relax_part[r];
                let (fifo, slot) = plan.war_of[r];
                if let Some(w) = war_time(plan, &self.tape, fifo as usize, slot as usize, depths) {
                    if w > t {
                        t = w;
                    }
                }
                t
            };
            if t != self.tape[r] {
                self.tape[r] = t;
                changed = true;
                for i in plan.fwd_row[r] as usize..plan.fwd_row[r + 1] as usize {
                    let succ = plan.fwd_col[i] as usize;
                    let (word, bit) = (succ / 64, 1u64 << (succ % 64));
                    if self.dirty[word] & bit == 0 {
                        self.dirty[word] |= bit;
                        pending += 1;
                    }
                    self.full_dirty[word] |= bit;
                }
                let (f, j) = plan.read_of[r];
                if f != NONE {
                    let lane = &plan.lanes[f as usize];
                    if let Some(slot) = (j as usize).checked_add(depths[f as usize]) {
                        if slot < lane.writes.len() && lane.write_blocking[slot] {
                            let succ = lane.writes[slot] as usize;
                            let (word, bit) = (succ / 64, 1u64 << (succ % 64));
                            if self.dirty[word] & bit == 0 {
                                self.dirty[word] |= bit;
                                pending += 1;
                            }
                        }
                    }
                }
            }
            if pending == 0 {
                return changed;
            }
        }
    }

    /// The allocating path for depths below the register order's bound: a
    /// fresh Kahn pass over base + overlay edges (reporting
    /// [`IncrementalOutcome::DepthCyclic`] when none exists), then a
    /// relaxation in that order. The tape it leaves behind is exact, so
    /// later fast-path points still delta-execute.
    fn evaluate_slow(&mut self, depths: &[usize]) -> IncrementalOutcome {
        let plan = self.plan;
        let n = plan.regs as usize;
        let mut overlay: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (f, lane) in plan.lanes.iter().enumerate() {
            let depth = depths[f];
            for iw in depth..lane.writes.len() {
                if !lane.write_blocking[iw] {
                    continue;
                }
                if let Some(&read) = lane.reads.get(iw - depth) {
                    overlay[read as usize].push(lane.writes[iw]);
                }
            }
        }
        let successors = |u: usize| {
            (plan.fwd_row[u] as usize..plan.fwd_row[u + 1] as usize)
                .map(|i| (plan.fwd_col[i], plan.fwd_weight[i]))
        };
        let mut indegree = vec![0u32; n];
        for (u, over) in overlay.iter().enumerate() {
            for (v, _) in successors(u) {
                indegree[v as usize] += 1;
            }
            for &v in over {
                indegree[v as usize] += 1;
            }
        }
        let mut ready: Vec<u32> = (0..n as u32)
            .filter(|&u| indegree[u as usize] == 0)
            .collect();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        while let Some(u) = ready.pop() {
            order.push(u);
            for (v, _) in successors(u as usize) {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    ready.push(v);
                }
            }
            for &v in &overlay[u as usize] {
                indegree[v as usize] -= 1;
                if indegree[v as usize] == 0 {
                    ready.push(v);
                }
            }
        }
        if order.len() != n {
            return IncrementalOutcome::DepthCyclic;
        }
        self.tape_dirty = true;
        self.tape.clear();
        self.tape.extend_from_slice(&plan.base);
        self.relax_part.clear();
        self.relax_part.extend_from_slice(&plan.base);
        for &u in &order {
            let tu = self.tape[u as usize];
            for (v, w) in successors(u as usize) {
                let cand = tu.saturating_add_signed(w);
                if cand > self.tape[v as usize] {
                    self.tape[v as usize] = cand;
                }
                // Base edges are the `RELAX` runs, so the prefix cache
                // stays consistent for later fast-path deltas.
                if cand > self.relax_part[v as usize] {
                    self.relax_part[v as usize] = cand;
                }
            }
            for &v in &overlay[u as usize] {
                let cand = tu.saturating_add(1);
                if cand > self.tape[v as usize] {
                    self.tape[v as usize] = cand;
                }
            }
        }
        self.depths.clear();
        self.depths.extend_from_slice(depths);
        self.verdict()
    }

    /// Constraint re-check (recording order, first mismatch wins) plus the
    /// latency formula, over the current tape — answered from the memo.
    ///
    /// The recording-order first mismatch decomposes exactly: every
    /// constraint is in the read-side bucket or one FIFO's write-side
    /// bucket, each bucket scan returns *its* minimum recording index, and
    /// the global first mismatch is the minimum over buckets. Bucket
    /// results are pure functions of (tape) resp. (tape, that FIFO's
    /// depth), so they are cached until the tape changes.
    #[inline]
    fn verdict(&mut self) -> IncrementalOutcome {
        if self.tape_dirty {
            self.tape_dirty = false;
            for slot in self.memo_touched.drain(..) {
                self.ws_memo[slot as usize] = MEMO_UNSET;
            }
            for slot in self.probe_touched.drain(..) {
                self.probe_memo[slot as usize] = PROBE_UNSET;
            }
            self.fixed_first = first_fixed_mismatch(self.plan, &self.tape);
            self.latency_memo = self.latency();
        }
        let mut first = self.fixed_first;
        let off = &self.plan.ws_memo_off;
        for f in 0..off.len() - 1 {
            let (start, end) = (off[f] as usize, off[f + 1] as usize);
            if start == end {
                continue;
            }
            // Beyond the bucket's highest ordinal every write-side check
            // degenerates to `ordinal <= depth`, so deeper depths share
            // one memo slot.
            let d = self.depths[f].min(end - start - 1);
            let mut m = self.ws_memo[start + d];
            if m == MEMO_UNSET {
                m = ws_first_mismatch(self.plan, &self.tape, f, d);
                self.ws_memo[start + d] = m;
                self.memo_touched.push((start + d) as u32);
            }
            first = first.min(m);
        }
        if first == MEMO_CLEAN {
            IncrementalOutcome::Valid {
                total_cycles: self.latency_memo,
            }
        } else {
            IncrementalOutcome::ConstraintViolated {
                constraint: first as usize,
            }
        }
    }

    /// Replicates `IncrementalState::latency_from_times`.
    fn latency(&self) -> u64 {
        let end = self
            .plan
            .end_regs
            .iter()
            .map(|&r| self.tape[r as usize])
            .max();
        match end {
            Some(t) => t + 1,
            None => self.tape.iter().copied().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim::test_fixtures::{nb_drop_counter, producer_consumer};
    use omnisim::OmniSimulator;

    /// Deterministic xorshift64* so the randomized grids are reproducible.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn depth(&mut self, max: usize) -> usize {
            1 + (self.next() as usize) % max
        }
    }

    #[test]
    fn vm_matches_interpreter_and_try_with_depths_on_random_walks() {
        for design in [nb_drop_counter(48, 2, 3), producer_consumer(48, 3, 2)] {
            let baseline = OmniSimulator::new(&design).run().unwrap();
            let program = SweepPlan::compile(&baseline.incremental)
                .unwrap()
                .compile_bytecode();
            let mut vm = program.vm();
            let mut rng = Rng(0xb17e_c0de_5eed_0001);
            let mut depths = vec![1usize; program.fifo_count()];
            for step in 0..120 {
                // Mostly single-axis deltas (the delta path), occasionally
                // a jump (bigger dirty sets), rarely a repeat (no-op path).
                if step % 11 != 0 {
                    let axis = rng.next() as usize % depths.len();
                    depths[axis] = if step % 5 == 0 {
                        rng.depth(130)
                    } else {
                        (depths[axis] + rng.depth(3)).saturating_sub(1).max(1)
                    };
                }
                let expected = baseline.incremental.try_with_depths(&depths).unwrap();
                let from_vm = vm.evaluate(&depths).unwrap();
                assert_eq!(from_vm, expected, "step {step} depths {depths:?}");
            }
        }
    }

    #[test]
    fn one_shot_and_warm_vm_answers_agree() {
        let design = nb_drop_counter(40, 2, 3);
        let baseline = OmniSimulator::new(&design).run().unwrap();
        let program = SweepPlan::compile(&baseline.incremental)
            .unwrap()
            .compile_bytecode();
        let mut warm = program.vm();
        let mut rng = Rng(0xb17e_c0de_5eed_0002);
        for _ in 0..40 {
            let depths = vec![rng.depth(128)];
            assert_eq!(
                warm.evaluate(&depths).unwrap(),
                program.evaluate(&depths).unwrap(),
                "depths {depths:?}"
            );
        }
    }

    #[test]
    fn batch_serial_parallel_and_pinned_workers_agree() {
        let design = nb_drop_counter(32, 1, 4);
        let baseline = OmniSimulator::new(&design).run().unwrap();
        let program = SweepPlan::compile(&baseline.incremental)
            .unwrap()
            .compile_bytecode();
        let points: Vec<Vec<usize>> = (1..=96).map(|d| vec![d]).collect();
        let serial = program.evaluate_batch(&points, false).unwrap();
        let auto = program.evaluate_batch(&points, true).unwrap();
        let pinned = program.evaluate_batch_workers(&points, 3).unwrap();
        assert_eq!(serial, auto);
        assert_eq!(serial, pinned);
        for (point, outcome) in points.iter().zip(&serial) {
            let expected = baseline.incremental.try_with_depths(point).unwrap();
            assert_eq!(*outcome, expected, "depths {point:?}");
        }
    }

    #[test]
    fn validation_matches_the_interpreter() {
        let design = producer_consumer(8, 2, 1);
        let baseline = OmniSimulator::new(&design).run().unwrap();
        let program = SweepPlan::compile(&baseline.incremental)
            .unwrap()
            .compile_bytecode();
        assert_eq!(
            program.evaluate(&[1, 2]).unwrap_err(),
            PlanError::DepthMismatch {
                expected: 1,
                got: 2
            }
        );
        assert_eq!(
            program.evaluate(&[0]).unwrap_err(),
            PlanError::ZeroDepth { fifo: 0 }
        );
        assert_eq!(
            program
                .evaluate_batch(&[vec![1], vec![0]], true)
                .unwrap_err(),
            PlanError::ZeroDepth { fifo: 0 }
        );
        let omni: omnisim::OmniError = PlanError::DepthMismatch {
            expected: 1,
            got: 2,
        }
        .into();
        assert_eq!(
            omni,
            omnisim::OmniError::DepthMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let design = nb_drop_counter(48, 2, 3);
        let baseline = OmniSimulator::new(&design).run().unwrap();
        let program = SweepPlan::compile(&baseline.incremental)
            .unwrap()
            .compile_bytecode();
        let bytes = program.encode();
        let decoded = CompiledPlan::decode(&bytes).unwrap();
        assert_eq!(decoded, program, "decoded program is structurally equal");
        let mut rng = Rng(0xb17e_c0de_5eed_0003);
        let mut vm = program.vm();
        let mut dvm = decoded.vm();
        for _ in 0..40 {
            let depths = vec![rng.depth(130)];
            assert_eq!(
                vm.evaluate(&depths).unwrap(),
                dvm.evaluate(&depths).unwrap()
            );
        }
    }

    #[test]
    fn corrupted_encodings_are_rejected_not_panicking() {
        let design = producer_consumer(16, 2, 1);
        let baseline = OmniSimulator::new(&design).run().unwrap();
        let program = SweepPlan::compile(&baseline.incremental)
            .unwrap()
            .compile_bytecode();
        let good = program.encode();
        assert!(CompiledPlan::decode(&good[..good.len() / 2]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            CompiledPlan::decode(&bad_magic),
            Err(CodecError::BadMagic { .. })
        ));
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x55;
        assert!(CompiledPlan::decode(&flipped).is_err());

        // A correctly checksummed program whose constraint ordinal lies
        // past its FIFO's committed accesses: rejected, not summed into an
        // overflowing (debug) or gigabyte-sized (release) verdict memo.
        let lane = &program.lanes[0];
        for (write_side, accesses) in [(true, lane.writes.len()), (false, lane.reads.len())] {
            let with_ordinal = |ordinal: u32| {
                let mut crafted = program.clone();
                crafted.constraints = vec![VmConstraint {
                    write_side,
                    fifo: 0,
                    ordinal,
                    reg: 0,
                    outcome: true,
                }];
                CompiledPlan::decode(&crafted.encode())
            };
            assert!(with_ordinal(accesses as u32 + 1).is_ok());
            for ordinal in [accesses as u32 + 2, 1 << 28, u32::MAX] {
                assert!(
                    matches!(with_ordinal(ordinal), Err(CodecError::Invalid(_))),
                    "write side {write_side}, ordinal {ordinal}"
                );
            }
        }
    }
}
