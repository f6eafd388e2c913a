//! The timed phase shared by every workload.

use crate::host::Cpu;
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 25;
/// Requests a timed phase serves at least, so that `request_ms_p90` has
/// ten samples above it.
const MIN_REQUESTS: usize = 100;

/// What the timed phase measured besides the requests themselves.
pub struct Phase {
    pub passes: usize,
    /// CPU spent inside passes (not in the set-up repetitions).
    pub cpu: Cpu,
}

/// Runs whole passes of `per_pass` requests until `budget` is spent and
/// at least `MIN_REQUESTS` requests were served.
///
/// Set-up runs `SETUP_REPS - 1` more times, at evenly spaced moments
/// between passes (the rest after the last pass), so an episode of
/// interference from other processes on the host moves only some of the
/// repetitions whose median is reported, not all of them.
pub fn run(
    budget: Duration,
    per_pass: usize,
    mut pass: impl FnMut(usize),
    mut setup_again: impl FnMut(),
) -> Phase {
    let min_passes = MIN_REQUESTS.div_ceil(per_pass.max(1));
    let start = Instant::now();
    let mut phase = Phase {
        passes: 0,
        cpu: Cpu::default(),
    };
    let mut reps = 1;
    while phase.passes < min_passes || start.elapsed() < budget {
        let cpu_start = Cpu::now();
        pass(phase.passes);
        phase.cpu.add(Cpu::now().since(cpu_start));
        phase.passes += 1;
        if reps < SETUP_REPS && start.elapsed() >= budget.mul_f64(reps as f64 / SETUP_REPS as f64) {
            setup_again();
            reps += 1;
        }
    }
    for _ in reps..SETUP_REPS {
        setup_again();
    }
    phase
}

/// Alternates untraced (even) and traced (odd) passes until `budget` is
/// spent, at least one of each, so drift from outside hits both alike.
/// Returns the CPU spent in the untraced passes.
pub fn alternate(budget: Duration, mut pass: impl FnMut(usize, bool)) -> Cpu {
    let start = Instant::now();
    let mut cpu = Cpu::default();
    let mut passes = 0;
    while passes < 2 || start.elapsed() < budget {
        let traced = passes % 2 == 1;
        let cpu_start = Cpu::now();
        pass(passes, traced);
        if !traced {
            cpu.add(Cpu::now().since(cpu_start));
        }
        passes += 1;
    }
    cpu
}
