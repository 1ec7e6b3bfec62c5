//! Shared harness vocabulary: the four signaling mechanisms and the
//! saturation-test runner.
//!
//! §6.1: "Our experiments are saturation tests, in which only monitor
//! accessing function is performed. That is, no extra work is in the
//! monitor or out of the monitor." Every problem driver follows that
//! recipe: N threads, a start barrier, a fixed number of monitor
//! operations per thread, wall-clock around the whole thing.

use std::fmt;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use autosynch::config::{MonitorConfig, SignalMode};
use autosynch::stats::StatsSnapshot;
use autosynch_metrics::ctx::{self, CtxSwitches};

/// The four signaling mechanisms compared in §6.2, plus the
/// change-driven and routed extensions this reproduction adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Hand-written condition variables with `signal`/`signalAll`.
    Explicit,
    /// One condition variable, broadcast on every change (the folklore
    /// "slow automatic monitor").
    Baseline,
    /// Relay signaling without predicate tags.
    AutoSynchT,
    /// Full AutoSynch: relay signaling plus predicate tags.
    AutoSynch,
    /// Change-driven AutoSynch (`autosynch_cd`): predicate tags plus
    /// expression versioning and dependency-indexed probing — an
    /// extension beyond the paper, benchmarked as an ablation.
    AutoSynchCD,
    /// Routed-wake AutoSynch (`SignalMode::Routed`): waiters park on
    /// slot-bucketed per-gate wait queues and re-check their own
    /// predicates against the snapshot ring without the monitor lock;
    /// a signaler's exit only publishes the diff epoch and announces
    /// targeted wakes — per-bucket token sweeps (waiter-forwarded,
    /// claimer-re-injected) and eq-index-directed single unparks for
    /// equivalence-shaped compiled conditions. The
    /// critical-section-shrinking extension layered on top of
    /// AutoSynch-CD's snapshot diff.
    AutoSynchRoute,
}

impl Mechanism {
    /// Every mechanism, in legend order: the paper's four followed by
    /// this reproduction's extensions. Sweeps and cross-mechanism tests
    /// iterate this — extensions must appear here or they are silently
    /// skipped. For exactly the paper's legend use [`Mechanism::PAPER`].
    pub const ALL: [Mechanism; 6] = [
        Mechanism::Explicit,
        Mechanism::Baseline,
        Mechanism::AutoSynchT,
        Mechanism::AutoSynch,
        Mechanism::AutoSynchCD,
        Mechanism::AutoSynchRoute,
    ];

    /// The paper's four mechanisms, in legend order — the Figs. 8–15
    /// comparisons exactly as published, extensions excluded.
    pub const PAPER: [Mechanism; 4] = [
        Mechanism::Explicit,
        Mechanism::Baseline,
        Mechanism::AutoSynchT,
        Mechanism::AutoSynch,
    ];

    /// Everything plotted in Figs. 11–13 (baseline off the chart), plus
    /// the extensions.
    pub const WITHOUT_BASELINE: [Mechanism; 5] = [
        Mechanism::Explicit,
        Mechanism::AutoSynchT,
        Mechanism::AutoSynch,
        Mechanism::AutoSynchCD,
        Mechanism::AutoSynchRoute,
    ];

    /// The automatic-signal family the runtime implements.
    pub const AUTOMATIC: [Mechanism; 4] = [
        Mechanism::AutoSynchT,
        Mechanism::AutoSynch,
        Mechanism::AutoSynchCD,
        Mechanism::AutoSynchRoute,
    ];

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Explicit => "explicit",
            Mechanism::Baseline => "baseline",
            Mechanism::AutoSynchT => "AutoSynch-T",
            Mechanism::AutoSynch => "AutoSynch",
            Mechanism::AutoSynchCD => "AutoSynch-CD",
            Mechanism::AutoSynchRoute => "AutoSynch-Route",
        }
    }

    /// The monitor configuration for the automatic mechanisms; `None`
    /// for mechanisms that do not use the AutoSynch runtime.
    ///
    /// Two environment variables adjust the preset, so the whole bench
    /// and test surface can be re-run under a different discipline
    /// without code changes (the core config stays deterministic —
    /// only this harness-side constructor reads the environment):
    ///
    /// * `AUTOSYNCH_VALIDATE=1` arms the relay validator on every run
    ///   (the cross-mechanism equivalence sweeps set this);
    /// * `AUTOSYNCH_NO_SWEEP_CURSORS=1` disables per-bucket sweep
    ///   cursors in routed mode, forcing every token forward back to a
    ///   FIFO head scan — the ablation the cursor-equivalence tests
    ///   diff against;
    /// * `AUTOSYNCH_NO_FAST_PATH=1` disables the uncontended enter/exit
    ///   fast path (CAS lock elision + flat combining), forcing every
    ///   occupancy through the mutex — the ablation the fast-path
    ///   latency rows in the api table diff against;
    /// * `AUTOSYNCH_TRACE=1` switches on the flight recorder
    ///   (`autosynch::telemetry`) for the whole process, so any run
    ///   constructed through this hook can be drained into a
    ///   Chrome-trace file afterwards.
    pub fn monitor_config(self) -> Option<MonitorConfig> {
        self.signal_mode().map(|mode| {
            let mut config = MonitorConfig::preset(mode);
            if env_flag("AUTOSYNCH_TRACE") {
                autosynch::telemetry::set_enabled(true);
            }
            if env_flag("AUTOSYNCH_VALIDATE") {
                config = config.validate_relay(true);
            }
            if env_flag("AUTOSYNCH_NO_SWEEP_CURSORS") {
                config = config.sweep_cursors(false);
            }
            if env_flag("AUTOSYNCH_NO_FAST_PATH") {
                config = config.fast_path(false);
            }
            config
        })
    }

    /// The v2 signaling mode for the automatic mechanisms; `None` for
    /// mechanisms that do not use the AutoSynch runtime.
    pub fn signal_mode(self) -> Option<SignalMode> {
        match self {
            Mechanism::AutoSynch => Some(SignalMode::Tagged),
            Mechanism::AutoSynchT => Some(SignalMode::Untagged),
            Mechanism::AutoSynchCD => Some(SignalMode::ChangeDriven),
            Mechanism::AutoSynchRoute => Some(SignalMode::Routed),
            Mechanism::Explicit | Mechanism::Baseline => None,
        }
    }
}

/// `true` when `name` is set to anything but the empty string or `0`.
fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of one saturation run.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Which mechanism ran.
    pub mechanism: Mechanism,
    /// Total threads that participated.
    pub threads: usize,
    /// Wall-clock time of the whole run (barrier release to last join).
    pub elapsed: Duration,
    /// Monitor instrumentation accumulated during the run.
    pub stats: StatsSnapshot,
    /// Kernel context-switch delta for the process, when available.
    pub ctx: Option<CtxSwitches>,
}

impl RunReport {
    /// Operations-per-second style throughput for `total_ops` operations.
    pub fn throughput(&self, total_ops: u64) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            total_ops as f64 / self.elapsed.as_secs_f64()
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} threads={:<4} elapsed={:>8.3}s  {}",
            self.mechanism,
            self.threads,
            self.elapsed.as_secs_f64(),
            self.stats.counters
        )
    }
}

/// Runs `n` worker closures (each receiving its thread index `0..n`),
/// released together by a start barrier, and measures barrier-release →
/// all-joined. This is the measurement used by every figure; the kernel
/// context-switch delta feeds Fig. 15.
pub fn timed_run(n: usize, f: impl Fn(usize) + Sync) -> (Duration, Option<CtxSwitches>) {
    let before_ctx = ctx::current_process();
    let barrier = Barrier::new(n + 1);
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let barrier = &barrier;
            let f = &f;
            handles.push(scope.spawn(move || {
                barrier.wait();
                f(i);
            }));
        }
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
        elapsed = start.elapsed();
    });
    let ctx_delta = match (before_ctx, ctx::current_process()) {
        (Some(before), Some(after)) => Some(after.since(&before)),
        _ => None,
    };
    (elapsed, ctx_delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = Mechanism::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Mechanism::ALL.len());
    }

    #[test]
    fn all_includes_every_extension() {
        // The regression this guards: sweeps iterating ALL must not
        // silently skip the extension mechanisms.
        assert!(Mechanism::ALL.contains(&Mechanism::AutoSynchCD));
        assert!(Mechanism::ALL.contains(&Mechanism::AutoSynchRoute));
        assert!(Mechanism::WITHOUT_BASELINE.contains(&Mechanism::AutoSynchCD));
        assert!(Mechanism::WITHOUT_BASELINE.contains(&Mechanism::AutoSynchRoute));
        assert!(!Mechanism::WITHOUT_BASELINE.contains(&Mechanism::Baseline));
        assert_eq!(Mechanism::PAPER.len(), 4, "the paper's legend is fixed");
        assert!(Mechanism::AUTOMATIC
            .iter()
            .all(|m| m.monitor_config().is_some()));
    }

    /// Every signaling mode the runtime implements, spelled out through
    /// an **exhaustive match**: adding a `SignalMode` variant fails to
    /// compile here until it is listed — the PR-2-era footgun (a new
    /// mode silently absent from `Mechanism::ALL` and every sweep)
    /// becomes a compile error instead of a quiet coverage gap.
    fn every_signal_mode() -> Vec<SignalMode> {
        let all = [
            SignalMode::Tagged,
            SignalMode::Untagged,
            SignalMode::ChangeDriven,
            SignalMode::Routed,
        ];
        for mode in all {
            // No wildcard arm: a new variant breaks this match (and so
            // this test file) at compile time.
            match mode {
                SignalMode::Tagged
                | SignalMode::Untagged
                | SignalMode::ChangeDriven
                | SignalMode::Routed => {}
            }
        }
        all.to_vec()
    }

    #[test]
    fn mechanism_arrays_stay_exhaustive_over_signal_modes() {
        // Every implemented mode must be reachable from the sweeps: one
        // mechanism in ALL (and, for the automatic family, in
        // WITHOUT_BASELINE and AUTOMATIC) must map to it via
        // signal_mode(). A mode threaded through the runtime but absent
        // here would silently vanish from every benchmark and
        // cross-mechanism test — the exact regression PR 2 shipped.
        for mode in every_signal_mode() {
            let in_all = Mechanism::ALL
                .iter()
                .filter(|m| m.signal_mode() == Some(mode))
                .count();
            assert_eq!(
                in_all, 1,
                "SignalMode::{mode:?} needs exactly one Mechanism in ALL"
            );
            assert_eq!(
                Mechanism::WITHOUT_BASELINE
                    .iter()
                    .filter(|m| m.signal_mode() == Some(mode))
                    .count(),
                1,
                "SignalMode::{mode:?} missing from WITHOUT_BASELINE"
            );
            assert_eq!(
                Mechanism::AUTOMATIC
                    .iter()
                    .filter(|m| m.signal_mode() == Some(mode))
                    .count(),
                1,
                "SignalMode::{mode:?} missing from AUTOMATIC"
            );
        }
        // And the converse: every automatic mechanism maps to a mode,
        // distinct mechanisms to distinct modes.
        let mut modes: Vec<SignalMode> = Mechanism::AUTOMATIC
            .iter()
            .map(|m| m.signal_mode().expect("automatic mechanisms have a mode"))
            .collect();
        let n = modes.len();
        modes.sort_by_key(|m| format!("{m:?}"));
        modes.dedup();
        assert_eq!(modes.len(), n, "two mechanisms share a signal mode");
        assert_eq!(
            n,
            every_signal_mode().len(),
            "AUTOMATIC and SignalMode must stay in bijection"
        );
    }

    #[test]
    fn monitor_configs_match_modes() {
        use autosynch::config::SignalMode;
        assert_eq!(
            Mechanism::AutoSynch.monitor_config().unwrap().signal_mode(),
            SignalMode::Tagged
        );
        assert_eq!(
            Mechanism::AutoSynchT
                .monitor_config()
                .unwrap()
                .signal_mode(),
            SignalMode::Untagged
        );
        assert_eq!(
            Mechanism::AutoSynchCD
                .monitor_config()
                .unwrap()
                .signal_mode(),
            SignalMode::ChangeDriven
        );
        assert!(Mechanism::Explicit.monitor_config().is_none());
        assert!(Mechanism::Baseline.monitor_config().is_none());
    }

    #[test]
    fn timed_run_runs_every_index_once() {
        let counter = AtomicUsize::new(0);
        let seen = [const { AtomicUsize::new(0) }; 8];
        let (elapsed, _) = timed_run(8, |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            seen[i].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        for s in &seen {
            assert_eq!(s.load(Ordering::SeqCst), 1);
        }
        assert!(elapsed < Duration::from_secs(5));
    }

    #[test]
    fn throughput_computation() {
        let report = RunReport {
            mechanism: Mechanism::AutoSynch,
            threads: 2,
            elapsed: Duration::from_secs(2),
            stats: StatsSnapshot::default(),
            ctx: None,
        };
        assert!((report.throughput(100) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_mechanism() {
        let report = RunReport {
            mechanism: Mechanism::Baseline,
            threads: 4,
            elapsed: Duration::from_millis(10),
            stats: StatsSnapshot::default(),
            ctx: None,
        };
        assert!(report.to_string().contains("baseline"));
    }
}
