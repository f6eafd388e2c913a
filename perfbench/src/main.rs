//! Seeded end-to-end and per-layer benchmark of the OmniSim workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <typea_dataflow|typebc_nb|dse_sizing> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Load shape: a closed loop with one client. One request is in flight at
//! a time and the benchmark starts no threads of its own; the engine's
//! per-task threads belong to the program under test. The process runs
//! on one CPU, and every time is taken on the process CPU clock (see
//! `host.rs`), so that the host's other guests do not show in the figures.
//!
//! * `--trace 0` measures the end-to-end metrics untraced.
//! * `--trace 1` alternates untraced and traced passes, records spans
//!   around every call into a layer, and reports the per-layer metrics;
//!   the spans are also written as a Chrome trace under `perfbench/out/`.
//!
//! Every request is checked (see `sim.rs` and `dse.rs`); a mismatch counts
//! as a failed request. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod cases;
mod dse;
mod host;
mod phase;
mod report;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <typea_dataflow|typebc_nb|dse_sizing> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TypeADataflow,
    TypeBcNb,
    DseSizing,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "typea_dataflow" => Some(Workload::TypeADataflow),
            "typebc_nb" => Some(Workload::TypeBcNb),
            "dse_sizing" => Some(Workload::DseSizing),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TypeADataflow => "typea_dataflow",
            Workload::TypeBcNb => "typebc_nb",
            Workload::DseSizing => "dse_sizing",
        }
    }
}

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

impl Args {
    /// Where the traced run writes its Chrome trace.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "{}-seed{}.trace.json",
                self.workload.name(),
                self.seed
            ))
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match host::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}"),
        Err(e) => {
            eprintln!("cannot pin the benchmark to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match args.workload {
        Workload::TypeADataflow | Workload::TypeBcNb => sim::run(&args),
        Workload::DseSizing => dse::run(&args),
    };
    result.print(args.workload.name(), args.seed, args.trace);
    ExitCode::SUCCESS
}
