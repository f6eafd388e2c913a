//! One-shot simulation workloads (`typea_dataflow`, `typebc_nb`).
//!
//! A request is one one-shot OmniSim simulation of one design:
//! `OmniSimulator::with_config` (front end) then `run` (Func Sim threads,
//! the Func↔Perf channel, Perf Sim and finalize). A pass sends one request
//! per design of the workload, in a fixed order; the timed phase runs whole
//! passes until the time budget is spent.
//!
//! Correctness gate, per request: the outcome, the outputs and
//! `total_cycles` equal the reference (`rtl`, or `lightning` on the Type A
//! designs `rtl` cannot run); `deadlock` reports a deadlock; and the
//! `SimStats` counts and cycles equal those of the design's warm-up run.

use crate::cases::{self, Case, Reference};
use crate::host::{peak_rss_mb, Stopwatch};
use crate::phase::{self, Phase};
use crate::report::{Layers, RunResult};
use crate::spans::SpanLog;
use crate::stats::{geomean, median, quantile, ratio};
use crate::{Args, Workload};
use omnisim::{OmniSimulator, SimConfig, SimStats};
use omnisim_analyze::{analyze, DeadlockVerdict};
use omnisim_api::{SimOutcome, Simulator};
use omnisim_csim::CsimBackend;
use omnisim_ir::design::OutputMap;
use omnisim_ir::DesignClass;
use omnisim_lightning::LightningBackend;
use omnisim_obs::trace::Tracer;
use omnisim_rtlsim::RtlBackend;
use std::hint::black_box;
use std::time::Duration;

/// Timed repetitions of each baseline simulator per design (traced run).
const BASELINE_REPS: usize = 3;

/// What a correct run of a design produces, according to its reference.
struct Expected {
    deadlock: bool,
    outputs: OutputMap,
    cycles: u64,
}

/// The part of a one-shot report that the checks and metrics read.
struct Summary {
    deadlock: bool,
    outputs: OutputMap,
    cycles: u64,
    stats: SimStats,
    finalize: Duration,
}

/// A request's time in seconds (see `Stopwatch`) and its result.
type Timed = (f64, Result<Summary, String>);

struct Sample {
    pass: usize,
    case: usize,
    secs: f64,
    result: Result<Summary, String>,
}

fn summarize(report: omnisim::OmniReport) -> Summary {
    Summary {
        deadlock: report.outcome.is_deadlock(),
        outputs: report.outputs,
        cycles: report.total_cycles,
        stats: report.stats,
        finalize: report.timings.finalize,
    }
}

/// One request: the front end, then the run. With a tracer, a span
/// surrounds the request and each layer call. The report (with its frozen
/// simulation graph) is dropped inside the timed region: releasing it is
/// part of the call.
fn one_shot(case: &Case, tracer: Option<&Tracer>) -> Timed {
    let span = |name: &'static str| tracer.map(|t| t.span(name));
    let start = Stopwatch::start();
    let request = span("request");
    let front_end = span("ir.front_end");
    let sim = OmniSimulator::with_config(&case.design, SimConfig::default());
    drop(front_end);
    let run = span("core.run");
    let result = sim.run().map(summarize).map_err(|e| e.to_string());
    drop(run);
    drop(sim);
    drop(request);
    (start.secs(), result)
}

/// One pass: one request per design, in order.
fn pass(cases: &[Case], tracer: Option<&Tracer>, pass: usize, samples: &mut Vec<Sample>) {
    for (case, design) in cases.iter().enumerate() {
        let (secs, result) = one_shot(design, tracer);
        samples.push(Sample {
            pass,
            case,
            secs,
            result,
        });
    }
}

fn reference(case: &Case) -> Result<Expected, String> {
    let report = match case.reference {
        Reference::Rtl => RtlBackend::default().simulate(&case.design),
        Reference::Lightning => LightningBackend.simulate(&case.design),
    }
    .map_err(|e| format!("reference failed: {e}"))?;
    let deadlock = match report.outcome {
        SimOutcome::Completed => false,
        SimOutcome::Deadlock { .. } => true,
        other => return Err(format!("reference ended with {other:?}")),
    };
    Ok(Expected {
        deadlock,
        outputs: report.outputs,
        cycles: report
            .total_cycles
            .ok_or("reference reported no cycle count")?,
    })
}

struct Prepared {
    cases: Vec<Case>,
    expected: Vec<Result<Expected, String>>,
}

/// Set-up: generate the designs, validate and classify them, and compute
/// every design's reference answer.
fn setup(workload: Workload, seed: u64) -> Prepared {
    let cases = match workload {
        Workload::TypeADataflow => cases::typea_dataflow(seed),
        Workload::TypeBcNb => cases::typebc_nb(seed),
        Workload::DseSizing => unreachable!("dse_sizing is served by dse.rs"),
    };
    cases::validate(&cases, |class| {
        (class == DesignClass::TypeA) == (workload == Workload::TypeADataflow)
    });
    let expected = cases.iter().map(reference).collect();
    Prepared { cases, expected }
}

/// The verdict on one request.
struct Verdict {
    /// The outcome matches the reference and, on a completed run, so does
    /// `total_cycles`.
    cycles_exact: bool,
    /// |total_cycles error| in percent of the reference, on completed runs.
    error_pct: Option<f64>,
    failure: Option<String>,
}

/// Checks one request against the reference and the warm-up run.
///
/// As in the differential fuzz oracle, outputs and cycles are compared on
/// completed runs only: on a deadlock OmniSim's optimistic Func Sim
/// threads may run further than stalled hardware, so partial outputs and
/// the last committed cycle are not comparable; the outcome is.
fn check(
    case: &Case,
    expected: &Result<Expected, String>,
    warm: &Result<Summary, String>,
    got: &Result<Summary, String>,
) -> Verdict {
    let fail = |why: String| Some(format!("{}: {why}", case.name));
    let (expected, got) = match (expected, got) {
        (Ok(x), Ok(g)) => (x, g),
        (Err(e), _) => {
            return Verdict {
                cycles_exact: false,
                error_pct: None,
                failure: fail(e.clone()),
            }
        }
        (_, Err(e)) => {
            let failure = fail(format!("omnisim failed: {e}"));
            return Verdict {
                cycles_exact: false,
                error_pct: None,
                failure,
            };
        }
    };
    let completed = !got.deadlock && !expected.deadlock;
    let error_pct = completed.then(|| {
        (got.cycles as f64 - expected.cycles as f64).abs() / expected.cycles.max(1) as f64 * 100.0
    });
    let failure = if got.deadlock != expected.deadlock || (case.name == "deadlock" && !got.deadlock)
    {
        fail(format!(
            "deadlock {} but reference says {}",
            got.deadlock, expected.deadlock
        ))
    } else if completed && got.outputs != expected.outputs {
        fail(format!(
            "outputs {:?} differ from reference {:?}",
            got.outputs, expected.outputs
        ))
    } else if completed && got.cycles != expected.cycles {
        fail(format!(
            "total_cycles {} but reference {}",
            got.cycles, expected.cycles
        ))
    } else {
        match warm {
            Ok(w) if w.stats == got.stats && w.cycles == got.cycles => None,
            Ok(w) => fail(format!(
                "stats {:?} / cycles {} differ from the warm-up run's {:?} / {}",
                got.stats, got.cycles, w.stats, w.cycles
            )),
            Err(e) => fail(format!("warm-up run failed: {e}")),
        }
    };
    Verdict {
        cycles_exact: got.deadlock == expected.deadlock && error_pct.is_none_or(|e| e == 0.0),
        error_pct,
        failure,
    }
}

/// Checks every sample, filling `attempted`/`failed`; returns the number
/// whose cycles equal the reference, and the largest |cycle error| in %.
fn check_all(
    prepared: &Prepared,
    warm: &[Result<Summary, String>],
    samples: &[Sample],
    result: &mut RunResult,
) -> (usize, f64) {
    let (mut exact, mut worst) = (0, 0.0f64);
    for s in samples {
        result.attempted += 1;
        let v = check(
            &prepared.cases[s.case],
            &prepared.expected[s.case],
            &warm[s.case],
            &s.result,
        );
        exact += usize::from(v.cycles_exact);
        worst = worst.max(v.error_pct.unwrap_or(0.0));
        if let Some(why) = v.failure {
            result.fail(why);
        }
    }
    (exact, worst)
}

pub fn run(args: &Args) -> RunResult {
    let start = Stopwatch::start();
    let prepared = setup(args.workload, args.seed);
    let mut setup_secs = vec![start.secs()];
    let cases = &prepared.cases;

    // Warm-up: one untimed request per design lets lazy set-up finish and
    // records the counts every later request must repeat.
    let warm: Vec<Result<Summary, String>> = cases.iter().map(|c| one_shot(c, None).1).collect();
    // Peak memory of set-up plus one pass: a fixed amount of work, so the
    // figure does not grow with how many requests fit in the budget.
    let peak_mb = peak_rss_mb();

    let mut result = RunResult::default();
    if args.trace {
        per_layer(args, &prepared, &warm, &mut result);
        return result;
    }
    let mut samples = Vec::new();
    let phase = phase::run(
        args.budget,
        cases.len(),
        |p| pass(cases, None, p, &mut samples),
        || {
            let start = Stopwatch::start();
            let again = black_box(setup(args.workload, args.seed));
            setup_secs.push(start.secs());
            drop(again);
        },
    );
    let (exact, _) = check_all(&prepared, &warm, &samples, &mut result);
    per_design(cases, &warm, &samples);
    end_to_end(&mut result, &setup_secs, &samples, &phase, exact);
    result.metric("peak_rss_mb", peak_mb, "MB", 1);
    result
}

/// Prints each design's median request time and size.
fn per_design(cases: &[Case], warm: &[Result<Summary, String>], samples: &[Sample]) {
    for (i, case) in cases.iter().enumerate() {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.case == i)
            .map(|s| s.secs * 1e3)
            .collect();
        let (ops, queries) = warm[i]
            .as_ref()
            .map_or((0, 0), |w| (w.stats.fifo_accesses, w.stats.queries));
        println!(
            "  {:<34} {:>10.3} ms  fifo_ops {:>8}  queries {:>8}",
            case.name,
            median(&ms),
            ops,
            queries
        );
    }
}

fn end_to_end(
    result: &mut RunResult,
    setup_secs: &[f64],
    samples: &[Sample],
    phase: &Phase,
    exact: usize,
) {
    let passes = phase.passes;
    let n = samples.len();
    // Throughputs are taken per pass and reported as the median pass, so
    // a burst of interference from outside moves one pass, not the result.
    let (mut ops_per_s, mut requests_per_s) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        let in_pass = samples.iter().filter(|s| s.pass == pass);
        let busy: f64 = in_pass.clone().map(|s| s.secs).sum();
        let ops: u64 = in_pass
            .clone()
            .filter_map(|s| s.result.as_ref().ok())
            .map(|r| r.stats.fifo_accesses)
            .sum();
        ops_per_s.push(ops as f64 / busy);
        requests_per_s.push(in_pass.count() as f64 / busy);
    }
    let ms: Vec<f64> = samples.iter().map(|s| s.secs * 1e3).collect();
    result.metric("setup_s", median(setup_secs), "s", setup_secs.len());
    result.metric("sim_fifo_ops_per_s", median(&ops_per_s), "1/s", passes);
    result.metric("dse_points_per_s", median(&requests_per_s), "1/s", passes);
    result.metric("request_ms_p50", quantile(&ms, 0.5), "ms", n);
    result.metric("request_ms_p90", quantile(&ms, 0.9), "ms", n);
    result.metric("cycle_exact_pct", 100.0 * exact as f64 / n as f64, "%", n);
    result.metric("cpu_s", phase.cpu.total() / passes as f64, "s", passes);
}

fn per_layer(
    args: &Args,
    prepared: &Prepared,
    warm: &[Result<Summary, String>],
    result: &mut RunResult,
) {
    let cases = &prepared.cases;
    let log = SpanLog::new();
    let tracer = &log.tracer;

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let plain_cpu = phase::alternate(args.budget, |p, trace| {
        if trace {
            pass(cases, Some(tracer), p, &mut traced);
        } else {
            pass(cases, None, p, &mut plain);
        }
    });
    let (_, plain_worst) = check_all(prepared, warm, &plain, result);
    let (_, traced_worst) = check_all(prepared, warm, &traced, result);

    let mut layers = Layers::default();
    let nt = traced.len();
    let self_secs = log.self_seconds();
    let own = |name: &str| self_secs.get(name).copied().unwrap_or(0.0);
    let traced_ok: Vec<&Summary> = traced
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    let finalize: f64 = traced_ok.iter().map(|r| r.finalize.as_secs_f64()).sum();
    let traced_fifo_ops: u64 = traced_ok.iter().map(|r| r.stats.fifo_accesses).sum();
    let traced_nodes: usize = traced_ok.iter().map(|r| r.stats.graph_nodes).sum();
    let exec = own("core.run") - finalize;
    let request = log.total_seconds("request");

    // Self times per traced request: front end + exec + finalize + the
    // request span's own remainder add up to the request span.
    layers.set("ir.front_end_ms", own("ir.front_end") / nt as f64 * 1e3, nt);
    layers.set("core.exec_ms", exec / nt as f64 * 1e3, nt);
    layers.set("graph.finalize_ms", finalize / nt as f64 * 1e3, nt);
    layers.set("trace.harness_ms", own("request") / nt as f64 * 1e3, nt);
    layers.set("trace.request_ms", request / nt as f64 * 1e3, nt);
    layers.set(
        "core.exec_ns_per_fifo_op",
        exec / traced_fifo_ops as f64 * 1e9,
        nt,
    );
    layers.set(
        "graph.finalize_ns_per_node",
        finalize / traced_nodes as f64 * 1e9,
        nt,
    );
    let plain_mean = plain.iter().map(|s| s.secs).sum::<f64>() / plain.len() as f64;
    let traced_mean = traced.iter().map(|s| s.secs).sum::<f64>() / nt as f64;
    layers.set("trace.overhead_ratio", traced_mean / plain_mean, nt);

    let warm_stats: Vec<SimStats> = warm
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|w| w.stats))
        .collect();
    engine_counts(&warm_stats, &mut layers);
    layers.set(
        "core.sys_cpu_share",
        ratio(plain_cpu.sys, plain_cpu.total()),
        plain.len(),
    );
    layers.set(
        "accuracy.cycle_error_pct",
        plain_worst.max(traced_worst),
        plain.len() + traced.len(),
    );

    let refs: Vec<&Case> = cases.iter().collect();
    analyze_layer(&refs, tracer, &log, &mut layers);
    let omni: Vec<f64> = (0..cases.len())
        .map(|i| {
            median(
                &plain
                    .iter()
                    .filter(|s| s.case == i)
                    .map(|s| s.secs)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let ops: Vec<Option<u64>> = warm
        .iter()
        .map(|w| w.as_ref().ok().map(|w| w.stats.ops_executed))
        .collect();
    baselines(&refs, &omni, &ops, &mut layers);
    layers.emit(result);

    if let Err(e) = log.export(&args.trace_path()) {
        eprintln!("could not write {}: {e}", args.trace_path().display());
    }
}

/// The static analyzer, off the request path: one call per design.
pub fn analyze_layer(cases: &[&Case], tracer: &Tracer, log: &SpanLog, layers: &mut Layers) {
    let mut unknown = 0usize;
    for case in cases {
        let span = tracer.span("analyze");
        let report = analyze(&case.design);
        span.finish();
        if report.verdict == DeadlockVerdict::Unknown {
            unknown += 1;
        }
    }
    let n = cases.len();
    layers.set(
        "analyze.ms_per_design",
        log.total_seconds("analyze") / n as f64 * 1e3,
        n,
    );
    layers.set("analyze.unknown_ratio", unknown as f64 / n as f64, n);
}

/// Median time of `BASELINE_REPS` one-shot runs of `sim`.
fn baseline_secs(sim: &dyn Simulator, case: &Case) -> Option<f64> {
    let mut secs = Vec::with_capacity(BASELINE_REPS);
    for _ in 0..BASELINE_REPS {
        let start = Stopwatch::start();
        let report = sim.simulate(&case.design).ok()?;
        secs.push(start.secs());
        drop(black_box(report));
    }
    Some(median(&secs))
}

/// Engine counts summed over one request per design.
pub fn engine_counts(stats: &[SimStats], layers: &mut Layers) {
    let sum = |f: fn(&SimStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let d = stats.len();
    let fifo_ops = sum(|s| s.fifo_accesses);
    let queries = sum(|s| s.queries as u64);
    layers.set("interp.ops", sum(|s| s.ops_executed), d);
    layers.set("core.fifo_ops", fifo_ops, d);
    layers.set("core.queries", queries, d);
    layers.set("core.query_ratio", ratio(queries, fifo_ops), d);
    layers.set(
        "core.forced_false_ratio",
        ratio(sum(|s| s.queries_forced_false as u64), queries),
        d,
    );
    layers.set("core.threads", sum(|s| s.threads as u64), d);
    layers.set("graph.nodes", sum(|s| s.graph_nodes as u64), d);
    layers.set("graph.edges", sum(|s| s.graph_edges as u64), d);
}

/// Speed-ups of one-shot OmniSim over the `rtl` reference, the
/// `lightning` baseline and naive `csim` (geomean over designs of baseline
/// time / OmniSim time `omni[i]`), and the C floor: csim time per
/// interpreter op that OmniSim executed on the same design (`ops[i]`).
pub fn baselines(cases: &[&Case], omni: &[f64], ops: &[Option<u64>], layers: &mut Layers) {
    let (mut vs_rtl, mut vs_lightning, mut vs_csim) = (Vec::new(), Vec::new(), Vec::new());
    let (mut csim_secs, mut csim_ops) = (0.0, 0u64);
    for (i, case) in cases.iter().enumerate() {
        if case.reference == Reference::Rtl {
            if let Some(t) = baseline_secs(&RtlBackend::default(), case) {
                vs_rtl.push(t / omni[i]);
            }
        }
        if case.class == DesignClass::TypeA {
            if let Some(t) = baseline_secs(&LightningBackend, case) {
                vs_lightning.push(t / omni[i]);
            }
            if let (Some(t), Some(n)) = (baseline_secs(&CsimBackend::default(), case), ops[i]) {
                vs_csim.push(t / omni[i]);
                csim_secs += t;
                csim_ops += n;
            }
        }
    }
    layers.set("baseline.vs_rtl_x", geomean(&vs_rtl), vs_rtl.len());
    layers.set(
        "baseline.vs_lightning_x",
        geomean(&vs_lightning),
        vs_lightning.len(),
    );
    layers.set("baseline.vs_csim_x", geomean(&vs_csim), vs_csim.len());
    layers.set(
        "interp.csim_ns_per_op",
        ratio(csim_secs * 1e9, csim_ops as f64),
        vs_csim.len(),
    );
}
