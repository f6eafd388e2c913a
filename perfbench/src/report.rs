//! The run's result: a human-readable table, then one JSON line.

use std::fmt::Write as _;

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (requests, designs, passes).
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per failed check, naming the request and what differed.
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Prints the table and failures, then the JSON object as the last
    /// line of standard output.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!(
            "workload {workload}  seed {seed}  trace {}",
            u8::from(trace)
        );
        for m in &self.metrics {
            println!(
                "  {:<30} {:>18.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "  requests attempted {}  failed {}",
            self.attempted, self.failed
        );
        for f in self.failures.iter().take(20) {
            println!("  FAILED {f}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Every per-layer metric, with its unit, in output order. A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("ir.front_end_ms", "ms"),
    ("interp.ops", "count"),
    ("interp.csim_ns_per_op", "ns"),
    ("core.exec_ms", "ms"),
    ("core.exec_ns_per_fifo_op", "ns"),
    ("core.fifo_ops", "count"),
    ("core.queries", "count"),
    ("core.query_ratio", "ratio"),
    ("core.forced_false_ratio", "ratio"),
    ("core.threads", "count"),
    ("core.sys_cpu_share", "ratio"),
    ("graph.finalize_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.finalize_ns_per_node", "ns"),
    ("dse.lower_ms", "ms"),
    ("dse.fast_ns_per_point", "ns"),
    ("dse.slow_ns_per_point", "ns"),
    ("dse.certified_ratio", "ratio"),
    ("dse.slow_ratio", "ratio"),
    ("dse.fast_ratio", "ratio"),
    ("dse.min_depths_ms", "ms"),
    ("dse.min_depths_probes", "count"),
    ("analyze.ms_per_design", "ms"),
    ("analyze.unknown_ratio", "ratio"),
    ("baseline.vs_rtl_x", "x"),
    ("baseline.vs_lightning_x", "x"),
    ("baseline.vs_csim_x", "x"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.request_ms", "ms"),
    ("trace.harness_ms", "ms"),
    ("accuracy.cycle_error_pct", "%"),
];

/// Per-layer values by name: `(value, samples)`.
#[derive(Debug, Default)]
pub struct Layers(std::collections::HashMap<&'static str, (f64, usize)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, (value, samples));
    }

    /// Appends every per-layer metric to `result`, 0 where unset.
    pub fn emit(&self, result: &mut RunResult) {
        for (name, unit) in PER_LAYER {
            let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
            result.metric(name, value, unit, samples);
        }
    }
}
