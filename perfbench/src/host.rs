//! Host counters read from outside the program under test: process CPU
//! time from `/proc/self/stat` and peak resident memory from
//! `/proc/self/status`; the process CPU clock every timing is taken on;
//! and the pinning of the process to one CPU.

use std::fs;
use std::io;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every mainstream Linux target).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Process-wide CPU time in seconds, split into user and system time.
///
/// The counts cover every thread of the process, including threads that
/// have already exited, so they include the engine's per-task threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user: f64,
    pub sys: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // The command name (field 2) is parenthesised and may hold spaces;
        // the numeric fields start after the last ')'. `utime` and `stime`
        // are fields 14 and 15, i.e. the 12th and 13th after field 2.
        let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
        let mut fields = rest.split_whitespace().skip(11);
        let mut tick = || -> f64 {
            fields
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .expect("stat has numeric utime/stime") as f64
                / CLOCK_TICKS_PER_SEC
        };
        let user = tick();
        let sys = tick();
        Cpu { user, sys }
    }

    /// CPU spent between `earlier` and `self`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    pub fn add(&mut self, other: Cpu) {
        self.user += other.user;
        self.sys += other.sys;
    }

    pub fn total(self) -> f64 {
        self.user + self.sys
    }
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line");
    kib / 1024.0
}

/// Linux `clockid_t` of the clock that counts the CPU time of every thread
/// of the process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// 64-bit words in the CPU mask passed to `sched_{get,set}affinity`
/// (1024 CPUs, the size of glibc's `cpu_set_t`).
const CPU_MASK_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confines the process, and every thread it starts from now on, to one
/// of the CPUs it may run on (the highest-numbered, as CPU 0 tends to take
/// device interrupts); returns that CPU.
///
/// The engine hands every blocking FIFO access between its Func Sim
/// threads and its Perf Sim thread. Spread over the cores of a virtual
/// machine, each hand-over may wake an idle virtual CPU, which waits for
/// the host to schedule it, so request times measure the host's scheduler.
/// On one CPU a hand-over is a local context switch.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Times work on the process CPU clock, with nanosecond resolution.
///
/// With the process pinned to one CPU and a request never waiting on
/// anything outside the process, a request's wall time is this clock's
/// reading plus the time the CPU ran something else: another process, or
/// another guest of the host (steal time). Those belong to the host, and
/// are what made wall times of the same build differ by over a third
/// between two sets of runs, so the benchmark leaves them out.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(f64);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(process_cpu_secs())
    }

    /// Seconds on the clock since `start`.
    pub fn secs(self) -> f64 {
        process_cpu_secs() - self.0
    }
}

fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
