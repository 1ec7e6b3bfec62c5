//! The OS boundary: CPU placement, process accounting, the clock and the
//! environment header. Linux on an LP64 target only — the layouts below
//! are the kernel's `cpu_set_t` and `struct rusage` there. `std` already
//! links libc, so the four calls are declared, not imported from a crate.

use std::ffi::{c_int, c_long};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// 1024 CPUs, glibc's fixed `cpu_set_t`.
const MASK_WORDS: usize = 16;
const RUSAGE_SELF: c_int = 0;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` .. `ru_nivcsw`, in declaration order.
    longs: [c_long; 14],
}

extern "C" {
    fn sched_setaffinity(pid: c_int, len: usize, mask: *const u64) -> c_int;
    fn sched_getaffinity(pid: c_int, len: usize, mask: *mut u64) -> c_int;
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

/// Nanoseconds since the first call in this process. One monotonic
/// clock for every thread, so stamps compare across threads.
#[inline]
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Mean cost of one [`now_ns`] call: the floor under every span.
pub fn clock_read_ns() -> f64 {
    const READS: u64 = 200_000;
    let start = now_ns();
    let mut sink = 0u64;
    for _ in 0..READS {
        sink = sink.wrapping_add(std::hint::black_box(now_ns()));
    }
    std::hint::black_box(sink);
    (now_ns() - start) as f64 / (READS + 1) as f64
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the length passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert!(rc == 0, "sched_getaffinity failed");
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`.
pub fn pin_to(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert!(rc == 0, "sched_setaffinity({cpu}) failed");
}

/// Puts the calling thread under `SCHED_BATCH`: it still shares the CPU
/// fairly, but when it is woken it no longer preempts the thread that
/// woke it. Where the kernel refuses, the thread keeps its policy and
/// the run goes on; the refusal is printed once.
pub fn no_wakeup_preemption() {
    const SCHED_BATCH: c_int = 3;
    // `struct sched_param` is its one `int`; non-realtime policies
    // require priority 0.
    let priority: c_int = 0;
    // SAFETY: `priority` is a readable `struct sched_param`; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) };
    if rc != 0 {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!("  sched_setscheduler(SCHED_BATCH) refused: wakeups will preempt")
        });
    }
}

/// Where a cell's threads run. Blocking workloads put every worker on
/// `worker` (the last allowed CPU); the harness thread, and the second
/// thread of the one parallel workload, sit on `harness` (the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpus {
    pub harness: usize,
    pub worker: usize,
}

impl Cpus {
    /// # Errors
    ///
    /// Fails with fewer than two allowed CPUs: the harness would share
    /// the workers' CPU and its wake-ups would be charged to them.
    pub fn detect() -> Result<Cpus, String> {
        let cpus = allowed_cpus();
        match (cpus.first(), cpus.last()) {
            (Some(&harness), Some(&worker)) if harness != worker => Ok(Cpus { harness, worker }),
            _ => Err(format!("need at least 2 CPUs, allowed: {cpus:?}")),
        }
    }
}

/// Process-wide CPU time and context switches, every thread included —
/// unlike `/proc/self/status`, whose switch counts are the leader
/// thread's alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub cpu_ns: u64,
    pub voluntary: u64,
    pub involuntary: u64,
}

impl Rusage {
    pub fn now() -> Rusage {
        let mut raw = std::mem::MaybeUninit::<RawRusage>::zeroed();
        // SAFETY: `raw` is a writable `struct rusage`; zeroed is a valid
        // value for its all-integer fields whatever the call writes.
        let raw = unsafe {
            let rc = getrusage(RUSAGE_SELF, raw.as_mut_ptr());
            assert!(rc == 0, "getrusage failed");
            raw.assume_init()
        };
        let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
        Rusage {
            cpu_ns: ns(&raw.utime) + ns(&raw.stime),
            voluntary: raw.longs[12] as u64,
            involuntary: raw.longs[13] as u64,
        }
    }

    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_default()
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment header printed with every report: enough to tell
/// whether two reports may be compared.
pub fn environment(cpus: Cpus) -> Json {
    let nproc = allowed_cpus().len();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let loadavg: f64 = first_line("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "kernel",
            Json::Str(first_line("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_sha",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("harness_cpu", Json::Num(cpus.harness as f64)),
        ("worker_cpu", Json::Num(cpus.worker as f64)),
        ("loadavg_1m", Json::Num(loadavg)),
        ("noisy", Json::Bool(loadavg > nproc as f64 / 2.0)),
    ])
}
