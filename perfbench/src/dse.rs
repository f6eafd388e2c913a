//! Compile-once FIFO sizing (`dse_sizing`).
//!
//! Set-up compiles every design once (one one-shot OmniSim run each) and
//! draws the seeded request stream. A pass then, per design, lowers the
//! compiled run to bytecode (`SweepPlan::from_compiled` +
//! `compile_bytecode`) and serves its requests:
//!
//! * depth-point batches through `CompiledPlan::evaluate_batch` — on Type A
//!   designs, points at or above the compiled depths, which all certify
//!   (the fast path); on Type C designs, random points, which mostly do not
//!   (the slow path);
//! * `SweepPlan::min_depths` searches with latency targets between the
//!   compiled latency and a relaxed bound.
//!
//! Every answer comes from the compiled program; the engine never
//! re-simulates. Correctness gate: a seeded sample of every batch's
//! outcomes, and every search's joint answer, equal
//! `IncrementalState::try_with_depths` (the independent oracle), and every
//! pass answers exactly as the first.

use crate::cases::{self, Case};
use crate::host::{peak_rss_mb, Stopwatch};
use crate::phase::{self, SETUP_REPS};
use crate::report::{Layers, RunResult};
use crate::sim::{analyze_layer, baselines, engine_counts};
use crate::spans::SpanLog;
use crate::stats::{median, quantile, ratio};
use crate::Args;
use omnisim::{CompiledOmni, IncrementalOutcome, OmniSimulator, SimConfig, SimStats};
use omnisim_dse::{CompiledPlan, SweepPlan};
use omnisim_gen::Rng;
use omnisim_ir::DesignClass;
use omnisim_obs::trace::Tracer;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;

/// Depth-point batches per paper design per pass (generated designs get
/// one), and points per batch by design role. Sized so that the fast and
/// the slow path each take over a quarter of the timed work, and so that
/// the median and 90th-percentile requests fall on paper designs (the
/// Type A sweeps and the `fig4_ex5` batches) whatever the seed.
const PAPER_SWEEP_BATCHES: usize = 8;
const PAPER_RANDOM_BATCHES: usize = 8;
const PAPER_SWEEP_POINTS: usize = 50_000;
const PAPER_RANDOM_POINTS: usize = 4_000;
const GEN_SWEEP_POINTS: usize = 1_000;
const GEN_RANDOM_POINTS: usize = 40;
/// `min_depths` searches per paper design per pass (generated designs get
/// one).
const PAPER_SEARCHES: usize = 3;
/// Depths each FIFO sweeps through in a sweep batch.
const SWEEP_SPAN: usize = 16;
/// Outcomes per batch checked against the oracle.
const CHECKED_PER_BATCH: usize = 4;

/// A depth-point batch, drawn from its own seed when it is served (and
/// again when it is checked), so no batch is held in memory between
/// requests.
struct Batch {
    seed: u64,
    points: usize,
    /// Random points on a Type C design (mostly uncertified: the slow
    /// path) rather than per-FIFO sweeps on a Type A design (all certify).
    slow: bool,
}

struct Search {
    target: u64,
    max_depth: usize,
}

struct Sized {
    case: Case,
    compiled: CompiledOmni,
    compile_secs: f64,
    batches: Vec<Batch>,
    searches: Vec<Search>,
}

/// What one request answered; compared across passes and with the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    /// The checked outcomes of a batch, and how many points certified.
    Batch {
        checked: Vec<IncrementalOutcome>,
        certified: usize,
    },
    /// A search's joint depths, their verdict and the probes it spent.
    Search {
        depths: Vec<usize>,
        combined: IncrementalOutcome,
        probes: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Batch(usize, usize),
    Search(usize, usize),
}

impl Key {
    fn design(self) -> usize {
        match self {
            Key::Batch(d, _) | Key::Search(d, _) => d,
        }
    }
}

/// The first answer to each request, from the warm-up pass: every later
/// answer must equal it, and it is the one checked against the oracle.
type FirstAnswers = HashMap<Key, Answer>;

/// One served request. Only a problem is kept, not the answer, so memory
/// does not grow with the number of requests served.
struct Request {
    key: Key,
    secs: f64,
    /// The request's error, or its answer where it differs from the first.
    problem: Option<String>,
}

/// Compares an answer with the first answer to the same request.
fn record(first: &mut FirstAnswers, key: Key, answer: Result<Answer, String>) -> Option<String> {
    let answer = match answer {
        Ok(answer) => answer,
        Err(e) => return Some(e),
    };
    match first.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(answer);
            None
        }
        Entry::Occupied(seen) => (*seen.get() != answer)
            .then(|| format!("{answer:?} differs from the first answer {:?}", seen.get())),
    }
}

/// Compiles a design: one one-shot OmniSim run, frozen for DSE — what
/// `CompiledOmni::compile` does, with a span around each layer call when
/// traced.
fn compile(case: &Case, tracer: Option<&Tracer>) -> (CompiledOmni, f64) {
    let start = Stopwatch::start();
    let span = |name: &'static str| tracer.map(|t| t.span(name));
    let root = span("compile");
    let front_end = span("ir.front_end");
    let sim = OmniSimulator::with_config(&case.design, SimConfig::default());
    drop(front_end);
    let run = span("core.run");
    let baseline = sim
        .run()
        .unwrap_or_else(|e| panic!("{} does not compile: {e}", case.name));
    drop(run);
    let compiled = CompiledOmni::from_baseline(&case.design, SimConfig::default(), baseline);
    drop(root);
    (compiled, start.secs())
}

/// Set-up: generate and validate the designs, compile each once, and draw
/// the request stream.
fn setup(seed: u64, tracer: Option<&Tracer>) -> Vec<Sized> {
    let cases = cases::dse_sizing(seed);
    cases::validate(&cases, |_| true);
    let mut rng = Rng::new(seed ^ 0x05ee_dd5e);
    cases
        .into_iter()
        .map(|case| {
            let (compiled, compile_secs) = compile(&case, tracer);
            let base = compiled.design().fifo_depths();
            assert!(!base.is_empty(), "{} has no FIFO to size", case.name);
            let slow = case.class != DesignClass::TypeA;
            let (count, points) = match (case.generated, slow) {
                (false, false) => (PAPER_SWEEP_BATCHES, PAPER_SWEEP_POINTS),
                (false, true) => (PAPER_RANDOM_BATCHES, PAPER_RANDOM_POINTS),
                (true, false) => (1, GEN_SWEEP_POINTS),
                (true, true) => (1, GEN_RANDOM_POINTS),
            };
            let batches = (0..count)
                .map(|_| Batch {
                    seed: rng.next(),
                    points,
                    slow,
                })
                .collect();
            let latency = compiled.baseline().total_cycles;
            // Targets are stratified over (latency, 1.5 * latency], one per
            // stratum, so the seed moves where in each stratum a target
            // falls but not the spread of targets.
            let strata = if case.generated { 1 } else { PAPER_SEARCHES };
            let max_depth = base.iter().copied().max().unwrap_or(1) * 2 + 4;
            let searches = (0..strata)
                .map(|k| {
                    let slack = (latency / 2) * (k as u64 * 1000 + rng.range(0, 1000))
                        / (strata as u64 * 1000);
                    Search {
                        target: latency + slack,
                        max_depth,
                    }
                })
                .collect();
            Sized {
                case,
                compiled,
                compile_secs,
                batches,
                searches,
            }
        })
        .collect()
}

/// Draws a batch's points, flattened (`base.len()` depths per point).
/// Sweeps: each FIFO in turn walks `SWEEP_SPAN` depths up from an anchor
/// at or above the compiled depths — a sensitivity study, consecutive
/// points differing in one FIFO. Random: independent depths up to twice
/// the compiled ones.
fn draw(base: &[usize], batch: &Batch) -> Vec<usize> {
    let mut rng = Rng::new(batch.seed);
    let mut flat = Vec::with_capacity(batch.points * base.len());
    if batch.slow {
        for _ in 0..batch.points {
            flat.extend(base.iter().map(|&d| rng.range_usize(1, 2 * d + 2)));
        }
    } else {
        let anchor: Vec<usize> = base.iter().map(|&d| rng.range_usize(d, d + 4)).collect();
        for k in 0..batch.points {
            let start = flat.len();
            flat.extend_from_slice(&anchor);
            flat[start + (k / SWEEP_SPAN) % base.len()] += k % SWEEP_SPAN;
        }
    }
    flat
}

/// Indices of the points of a batch checked against the oracle.
fn checked(batch: &Batch) -> Vec<usize> {
    let mut rng = Rng::new(batch.seed ^ 0xc4ec);
    (0..CHECKED_PER_BATCH)
        .map(|_| rng.range_usize(0, batch.points - 1))
        .collect()
}

fn lower(sized: &Sized) -> (SweepPlan, CompiledPlan) {
    let plan = SweepPlan::from_compiled(&sized.compiled)
        .expect("an OmniSim artifact")
        .unwrap_or_else(|e| panic!("{}: plan does not compile: {e}", sized.case.name));
    let program = plan.compile_bytecode();
    (plan, program)
}

/// Serves one batch on one thread (`parallel = false`): one request, one
/// core, as in the rest of the closed loop.
fn serve_batch(
    program: &CompiledPlan,
    points: &[&[usize]],
    checked: &[usize],
) -> Result<Answer, String> {
    let outcomes = program
        .evaluate_batch(points, false)
        .map_err(|e| e.to_string())?;
    Ok(Answer::Batch {
        checked: checked.iter().map(|&i| outcomes[i].clone()).collect(),
        certified: outcomes.iter().filter(|o| o.is_valid()).count(),
    })
}

fn serve_search(plan: &SweepPlan, search: &Search) -> Result<Answer, String> {
    let report = plan
        .min_depths(search.target, search.max_depth)
        .map_err(|e| e.to_string())?;
    Ok(Answer::Search {
        depths: report.depths,
        combined: report.combined,
        probes: report.probes,
    })
}

/// Time spent per kind of work in a set of passes.
#[derive(Debug, Default)]
struct Work {
    lower_secs: f64,
    lowerings: usize,
    fast_secs: f64,
    fast_points: usize,
    slow_secs: f64,
    slow_points: usize,
    search_secs: f64,
    searches: usize,
}

impl Work {
    fn total(&self) -> f64 {
        self.lower_secs + self.fast_secs + self.slow_secs + self.search_secs
    }
}

/// One pass over every design, untraced or with spans.
fn pass(
    designs: &[Sized],
    tracer: Option<&Tracer>,
    first: &mut FirstAnswers,
    requests: &mut Vec<Request>,
    work: &mut Work,
) {
    let span = |name: &'static str| tracer.map(|t| t.span(name));
    for (d, sized) in designs.iter().enumerate() {
        let start = Stopwatch::start();
        let lowering = span("dse.lower");
        let (plan, program) = lower(sized);
        drop(lowering);
        work.lower_secs += start.secs();
        work.lowerings += 1;
        let fifos = sized.compiled.design().fifos.len();
        for (b, batch) in sized.batches.iter().enumerate() {
            // Drawing the points is the client's work, outside the request.
            let flat = draw(&sized.compiled.design().fifo_depths(), batch);
            let points: Vec<&[usize]> = flat.chunks_exact(fifos).collect();
            let checked = checked(batch);
            let start = Stopwatch::start();
            let request = span("request");
            let inner = span(if batch.slow {
                "dse.slow_batch"
            } else {
                "dse.fast_batch"
            });
            let answer = serve_batch(&program, &points, &checked);
            drop(inner);
            drop(request);
            let secs = start.secs();
            if batch.slow {
                work.slow_secs += secs;
                work.slow_points += batch.points;
            } else {
                work.fast_secs += secs;
                work.fast_points += batch.points;
            }
            let key = Key::Batch(d, b);
            requests.push(Request {
                key,
                secs,
                problem: record(first, key, answer),
            });
        }
        for (k, search) in sized.searches.iter().enumerate() {
            let start = Stopwatch::start();
            let request = span("request");
            let inner = span("dse.min_depths");
            let answer = serve_search(&plan, search);
            drop(inner);
            drop(request);
            let secs = start.secs();
            work.search_secs += secs;
            work.searches += 1;
            let key = Key::Search(d, k);
            requests.push(Request {
                key,
                secs,
                problem: record(first, key, answer),
            });
        }
        drop(black_box((plan, program)));
    }
}

/// The oracle's answer for a request key.
fn oracle(designs: &[Sized], key: Key, answer: &Answer) -> Result<Answer, String> {
    let oracle_outcome = |d: usize, depths: &[usize]| {
        designs[d]
            .compiled
            .state()
            .try_with_depths(depths)
            .map_err(|e| format!("oracle failed: {e}"))
    };
    match (key, answer) {
        (Key::Batch(d, b), Answer::Batch { certified, .. }) => {
            let sized = &designs[d];
            let batch = &sized.batches[b];
            let base = sized.compiled.design().fifo_depths();
            let flat = draw(&base, batch);
            let checked = checked(batch)
                .into_iter()
                .map(|i| oracle_outcome(d, &flat[i * base.len()..(i + 1) * base.len()]))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Answer::Batch {
                checked,
                certified: *certified,
            })
        }
        (Key::Search(d, _), Answer::Search { depths, probes, .. }) => Ok(Answer::Search {
            depths: depths.clone(),
            combined: oracle_outcome(d, depths)?,
            probes: *probes,
        }),
        _ => Err("request key and answer kinds differ".into()),
    }
}

/// The outcomes an answer carries: a batch's checked points, or a
/// search's joint verdict.
fn outcomes(answer: &Answer) -> &[IncrementalOutcome] {
    match answer {
        Answer::Batch { checked, .. } => checked,
        Answer::Search { combined, .. } => std::slice::from_ref(combined),
    }
}

/// Largest |total_cycles error| in percent between the certified outcomes
/// of an answer and the oracle's.
fn cycle_error_pct(got: &Answer, want: &Answer) -> f64 {
    outcomes(got)
        .iter()
        .zip(outcomes(want))
        .filter_map(|pair| match pair {
            (
                IncrementalOutcome::Valid { total_cycles: g },
                IncrementalOutcome::Valid { total_cycles: w },
            ) => Some((*g as f64 - *w as f64).abs() / (*w).max(1) as f64 * 100.0),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// Checks every request: it answered as the first time, and the first
/// answer equals the oracle's for the checked outcomes. Returns how many
/// requests passed, and the largest cycle error in %.
fn check_all<'r>(
    designs: &[Sized],
    first: &FirstAnswers,
    requests: impl IntoIterator<Item = &'r Request>,
    result: &mut RunResult,
) -> (usize, f64) {
    let mut worst = 0.0f64;
    let verdicts: HashMap<Key, Option<String>> = first
        .iter()
        .map(|(&key, answer)| {
            let verdict = match oracle(designs, key, answer) {
                Ok(x) if x == *answer => None,
                Ok(x) => {
                    worst = worst.max(cycle_error_pct(answer, &x));
                    Some(format!("{answer:?} but the oracle gives {x:?}"))
                }
                Err(e) => Some(e),
            };
            (key, verdict)
        })
        .collect();
    let mut exact = 0;
    for r in requests {
        result.attempted += 1;
        match r
            .problem
            .as_ref()
            .or(verdicts.get(&r.key).and_then(Option::as_ref))
        {
            None => exact += 1,
            Some(why) => result.fail(format!(
                "{} {:?}: {why}",
                designs[r.key.design()].case.name,
                r.key
            )),
        }
    }
    (exact, worst)
}

fn per_design(designs: &[Sized], requests: &[Request]) {
    for (d, sized) in designs.iter().enumerate() {
        let ms = |search: bool| -> f64 {
            median(
                &requests
                    .iter()
                    .filter(|r| r.key.design() == d && matches!(r.key, Key::Search(..)) == search)
                    .map(|r| r.secs * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "  {:<34} {:>5} fifos  {:>7} nodes  compile {:>8.3} ms  batch {:>8.3} ms  min_depths {:>8.3} ms",
            sized.case.name,
            sized.compiled.design().fifos.len(),
            sized.compiled.state().graph.len(),
            sized.compile_secs * 1e3,
            ms(false),
            ms(true),
        );
    }
}

pub fn run(args: &Args) -> RunResult {
    if args.trace {
        return per_layer(args);
    }
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut compile_ops_per_s = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = || {
        let start = Stopwatch::start();
        let designs = black_box(setup(args.seed, None));
        setup_secs.push(start.secs());
        // Taken on the paper designs, which the seed does not change.
        let paper = || designs.iter().filter(|s| !s.case.generated);
        let ops: u64 = paper()
            .map(|s| s.compiled.baseline().stats.fifo_accesses)
            .sum();
        let secs: f64 = paper().map(|s| s.compile_secs).sum();
        compile_ops_per_s.push(ops as f64 / secs);
        designs
    };
    let designs = timed_setup();
    // Warm-up pass: lazy set-up finishes before timing, and the first
    // answers are recorded.
    let mut first = FirstAnswers::new();
    pass(
        &designs,
        None,
        &mut first,
        &mut Vec::new(),
        &mut Work::default(),
    );
    // Peak memory of set-up plus one pass: a fixed amount of work, so the
    // figure does not grow with how many requests fit in the budget.
    let peak_mb = peak_rss_mb();

    let mut requests = Vec::new();
    // Throughput is taken per pass and reported as the median pass, so a
    // burst of interference from outside moves one pass, not the result.
    let mut points_per_s = Vec::new();
    let per_pass = designs
        .iter()
        .map(|s| s.batches.len() + s.searches.len())
        .sum();
    let phase = phase::run(
        args.budget,
        per_pass,
        |_| {
            let mut work = Work::default();
            pass(&designs, None, &mut first, &mut requests, &mut work);
            points_per_s
                .push((work.fast_points + work.slow_points + work.searches) as f64 / work.total());
        },
        || drop(timed_setup()),
    );
    let passes = phase.passes;

    let mut result = RunResult::default();
    let (exact, _) = check_all(&designs, &first, &requests, &mut result);
    per_design(&designs, &requests);
    let n = requests.len();
    let ms: Vec<f64> = requests.iter().map(|r| r.secs * 1e3).collect();
    result.metric("setup_s", median(&setup_secs), "s", setup_secs.len());
    // The engine runs here only in set-up, once per design per repetition.
    result.metric(
        "sim_fifo_ops_per_s",
        median(&compile_ops_per_s),
        "1/s",
        SETUP_REPS,
    );
    result.metric("dse_points_per_s", median(&points_per_s), "1/s", passes);
    result.metric("request_ms_p50", quantile(&ms, 0.5), "ms", n);
    result.metric("request_ms_p90", quantile(&ms, 0.9), "ms", n);
    result.metric("cycle_exact_pct", 100.0 * exact as f64 / n as f64, "%", n);
    result.metric("cpu_s", phase.cpu.total() / passes as f64, "s", passes);
    result.metric("peak_rss_mb", peak_mb, "MB", 1);
    result
}

fn per_layer(args: &Args) -> RunResult {
    let log = SpanLog::new();
    let tracer = &log.tracer;
    let designs = setup(args.seed, Some(tracer));
    let mut first = FirstAnswers::new();
    pass(
        &designs,
        None,
        &mut first,
        &mut Vec::new(),
        &mut Work::default(),
    );

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traced_work = Work::default();
    let plain_cpu = phase::alternate(args.budget, |_, trace| {
        if trace {
            pass(
                &designs,
                Some(tracer),
                &mut first,
                &mut traced,
                &mut traced_work,
            );
        } else {
            pass(&designs, None, &mut first, &mut plain, &mut Work::default());
        }
    });
    let mut result = RunResult::default();
    let (_, worst) = check_all(&designs, &first, plain.iter().chain(&traced), &mut result);

    let mut layers = Layers::default();
    let self_secs = log.self_seconds();
    let own = |name: &str| self_secs.get(name).copied().unwrap_or(0.0);
    let nd = designs.len();
    let stats: Vec<SimStats> = designs
        .iter()
        .map(|s| s.compiled.baseline().stats)
        .collect();
    let finalize: f64 = designs
        .iter()
        .map(|s| s.compiled.baseline().timings.finalize.as_secs_f64())
        .sum();
    let fifo_ops: u64 = stats.iter().map(|s| s.fifo_accesses).sum();
    let nodes: usize = stats.iter().map(|s| s.graph_nodes).sum();
    let exec = own("core.run") - finalize;
    layers.set("ir.front_end_ms", own("ir.front_end") / nd as f64 * 1e3, nd);
    layers.set("core.exec_ms", exec / nd as f64 * 1e3, nd);
    layers.set("graph.finalize_ms", finalize / nd as f64 * 1e3, nd);
    layers.set(
        "core.exec_ns_per_fifo_op",
        ratio(exec * 1e9, fifo_ops as f64),
        nd,
    );
    layers.set(
        "graph.finalize_ns_per_node",
        ratio(finalize * 1e9, nodes as f64),
        nd,
    );
    engine_counts(&stats, &mut layers);
    layers.set(
        "core.sys_cpu_share",
        ratio(plain_cpu.sys, plain_cpu.total()),
        plain.len(),
    );

    let w = &traced_work;
    let nt = traced.len();
    let vm_points = w.fast_points + w.slow_points;
    let certified: usize = traced
        .iter()
        .filter_map(|r| match first.get(&r.key) {
            Some(Answer::Batch { certified, .. }) => Some(*certified),
            _ => None,
        })
        .sum();
    layers.set(
        "dse.lower_ms",
        log.total_seconds("dse.lower") / w.lowerings as f64 * 1e3,
        w.lowerings,
    );
    layers.set(
        "dse.fast_ns_per_point",
        ratio(own("dse.fast_batch") * 1e9, w.fast_points as f64),
        w.fast_points,
    );
    layers.set(
        "dse.slow_ns_per_point",
        ratio(own("dse.slow_batch") * 1e9, w.slow_points as f64),
        w.slow_points,
    );
    layers.set(
        "dse.certified_ratio",
        ratio(certified as f64, vm_points as f64),
        vm_points,
    );
    layers.set("dse.fast_ratio", w.fast_secs / w.total(), nt);
    layers.set("dse.slow_ratio", w.slow_secs / w.total(), nt);
    layers.set(
        "dse.min_depths_ms",
        own("dse.min_depths") / w.searches as f64 * 1e3,
        w.searches,
    );
    let probes: usize = traced
        .iter()
        .filter_map(|r| match first.get(&r.key) {
            Some(Answer::Search { probes, .. }) => Some(*probes),
            _ => None,
        })
        .sum();
    layers.set(
        "dse.min_depths_probes",
        ratio(probes as f64, w.searches as f64),
        w.searches,
    );
    layers.set("accuracy.cycle_error_pct", worst, first.len());
    let request = log.total_seconds("request");
    layers.set("trace.request_ms", request / nt as f64 * 1e3, nt);
    layers.set("trace.harness_ms", own("request") / nt as f64 * 1e3, nt);
    let mean = |rs: &[Request]| rs.iter().map(|r| r.secs).sum::<f64>() / rs.len() as f64;
    layers.set("trace.overhead_ratio", mean(&traced) / mean(&plain), nt);

    let cases: Vec<&Case> = designs.iter().map(|s| &s.case).collect();
    analyze_layer(&cases, tracer, &log, &mut layers);
    let omni: Vec<f64> = designs.iter().map(|s| s.compile_secs).collect();
    let ops: Vec<Option<u64>> = stats.iter().map(|s| Some(s.ops_executed)).collect();
    baselines(&cases, &omni, &ops, &mut layers);
    layers.emit(&mut result);
    if let Err(e) = log.export(&args.trace_path()) {
        eprintln!("could not write {}: {e}", args.trace_path().display());
    }
    result
}
