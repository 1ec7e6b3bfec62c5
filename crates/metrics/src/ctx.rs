//! Kernel context-switch sampling (Linux only).
//!
//! Fig. 15 of the paper plots OS context-switch counts. Our primary metric
//! is the wakeup counter in [`crate::counters`] (one wakeup = one voluntary
//! context switch of a blocked thread), but on Linux we can also read the
//! kernel's own `voluntary_ctxt_switches` from `/proc/thread-self/status`
//! to calibrate the proxy, and the process-wide totals from
//! `getrusage(RUSAGE_SELF)`. On other platforms the readers return `None`
//! and the harness falls back to the proxy alone.

use std::fmt;

/// A per-thread context-switch sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtxSwitches {
    /// Voluntary context switches (blocking waits).
    pub voluntary: u64,
    /// Involuntary context switches (preemptions).
    pub involuntary: u64,
}

impl CtxSwitches {
    /// Difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }

    /// Sum of voluntary and involuntary switches.
    pub fn total(&self) -> u64 {
        self.voluntary + self.involuntary
    }
}

impl fmt::Display for CtxSwitches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "voluntary={} involuntary={}",
            self.voluntary, self.involuntary
        )
    }
}

/// Reads the calling thread's context-switch counters from the kernel.
///
/// Returns `None` when the platform has no `/proc/thread-self/status` or it
/// cannot be parsed.
pub fn current_thread() -> Option<CtxSwitches> {
    read_status_file("/proc/thread-self/status")
}

/// Reads the whole process's context-switch counters from the kernel:
/// every thread's, including threads that have already exited — a
/// harness that samples after joining its workers still sees their
/// switches. (`/proc/self/status` would not do: its two lines describe
/// the thread-group leader alone.)
pub fn current_process() -> Option<CtxSwitches> {
    rusage_self()
}

/// `getrusage(RUSAGE_SELF)`, declared rather than imported: `std`
/// already links libc. The layout below is the kernel's `struct rusage`
/// on Linux LP64 targets, the only ones this is compiled for.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_self() -> Option<CtxSwitches> {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Rusage {
        /// `ru_utime`, `ru_stime`: two `struct timeval` of two longs.
        times: [c_long; 4],
        /// `ru_maxrss` .. `ru_nivcsw`, in declaration order.
        longs: [c_long; 14],
    }
    const RUSAGE_SELF: c_int = 0;
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }

    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` for the
    // duration of the call, which writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then(|| CtxSwitches {
        voluntary: usage.longs[12] as u64,   // ru_nvcsw
        involuntary: usage.longs[13] as u64, // ru_nivcsw
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_self() -> Option<CtxSwitches> {
    None
}

fn read_status_file(path: &str) -> Option<CtxSwitches> {
    let text = std::fs::read_to_string(path).ok()?;
    parse_status(&text)
}

/// Parses the `voluntary_ctxt_switches` / `nonvoluntary_ctxt_switches`
/// lines of a `/proc/*/status` document.
fn parse_status(text: &str) -> Option<CtxSwitches> {
    let mut voluntary = None;
    let mut involuntary = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("voluntary_ctxt_switches:") {
            voluntary = rest.trim().parse::<u64>().ok();
        } else if let Some(rest) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
            involuntary = rest.trim().parse::<u64>().ok();
        }
    }
    Some(CtxSwitches {
        voluntary: voluntary?,
        involuntary: involuntary?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
Name:\tcat
State:\tR (running)
voluntary_ctxt_switches:\t42
nonvoluntary_ctxt_switches:\t7
";

    #[test]
    fn parses_status_document() {
        let s = parse_status(SAMPLE).unwrap();
        assert_eq!(s.voluntary, 42);
        assert_eq!(s.involuntary, 7);
        assert_eq!(s.total(), 49);
    }

    #[test]
    fn missing_fields_yield_none() {
        assert_eq!(parse_status("Name: x\n"), None);
        assert_eq!(parse_status("voluntary_ctxt_switches: 3\n"), None);
    }

    #[test]
    fn malformed_numbers_yield_none() {
        let text = "voluntary_ctxt_switches: many\nnonvoluntary_ctxt_switches: 1\n";
        assert_eq!(parse_status(text), None);
    }

    #[test]
    fn since_saturates() {
        let a = CtxSwitches {
            voluntary: 10,
            involuntary: 1,
        };
        let b = CtxSwitches {
            voluntary: 4,
            involuntary: 5,
        };
        let d = a.since(&b);
        assert_eq!(d.voluntary, 6);
        assert_eq!(d.involuntary, 0);
    }

    #[test]
    fn blocking_increases_voluntary_switches_on_linux() {
        // Only meaningful where /proc exists; skip silently elsewhere.
        let Some(before) = current_thread() else {
            return;
        };
        // A sleep forces at least one voluntary switch.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let after = current_thread().unwrap();
        assert!(after.voluntary >= before.voluntary);
    }

    #[test]
    fn process_counts_cover_threads_that_have_exited() {
        // Skip silently where the reader is unsupported.
        let Some(before) = current_process() else {
            return;
        };
        // More blocks than the harness's own threads can plausibly make
        // meanwhile: the leader thread alone (what `/proc/self/status`
        // reports) wakes at most once per finished test.
        const BLOCKS: u64 = 400;
        std::thread::spawn(|| {
            for _ in 0..BLOCKS {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        })
        .join()
        .unwrap();
        let delta = current_process().unwrap().since(&before);
        assert!(
            delta.voluntary >= BLOCKS,
            "a joined thread blocked {BLOCKS} times, the process-wide delta reads {}",
            delta.voluntary
        );
    }

    #[test]
    fn display_is_nonempty() {
        let s = CtxSwitches {
            voluntary: 1,
            involuntary: 2,
        };
        assert!(s.to_string().contains("voluntary=1"));
    }
}
