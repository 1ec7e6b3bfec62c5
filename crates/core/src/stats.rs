//! Per-monitor instrumentation bundle.
//!
//! Every monitor (automatic, explicit, baseline) owns a [`MonitorStats`]
//! so the harness compares the mechanisms with identical bookkeeping.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use autosynch_metrics::counters::{CounterSnapshot, SyncCounters};
use autosynch_metrics::hist::LogLinearHist;
use autosynch_metrics::phase::{PhaseSnapshot, PhaseTimes};

/// Shared counters and phase timers for one monitor instance.
#[derive(Debug)]
pub struct MonitorStats {
    /// Event counters (signals, wakeups, predicate evaluations, ...).
    pub counters: SyncCounters,
    /// Per-phase wall-clock accumulators (Table 1).
    pub phases: PhaseTimes,
    /// Signaler-lock hold times: how long each relay call keeps the
    /// monitor lock busy doing signaling work. Recorded only while
    /// `phases` timing is enabled (clock reads are not free).
    pub hold: HoldTimes,
    /// Whole-occupancy enter→exit wall times: what a `Monitor::enter`
    /// (or `with`) costs end to end, the number the uncontended
    /// fast-path lane exists to shrink. Recorded only while timing is
    /// enabled, same as [`MonitorStats::hold`].
    pub enter_exit: HoldTimes,
    /// Wait latencies: registration→satisfied wall time of every
    /// `wait`/`wait_transient` call, the production tail-latency
    /// metric. Recorded only while timing is enabled.
    pub wait: HoldTimes,
    timed: bool,
}

impl MonitorStats {
    /// Creates a stats bundle; `timing` enables the phase accumulators.
    pub fn new(timing: bool) -> Arc<Self> {
        Arc::new(MonitorStats {
            counters: SyncCounters::new(),
            phases: if timing {
                PhaseTimes::enabled()
            } else {
                PhaseTimes::disabled()
            },
            hold: HoldTimes::new(),
            enter_exit: HoldTimes::new(),
            wait: HoldTimes::new(),
            timed: timing,
        })
    }

    /// Whether per-phase/latency timing was enabled at construction.
    pub fn timing_enabled(&self) -> bool {
        self.timed
    }

    /// Captures both counter and phase snapshots.
    ///
    /// **Consistency contract:** the snapshot is per-field atomic but
    /// not globally consistent — fields recorded by concurrently
    /// running threads may be captured mid-update relative to each
    /// other. For the harness's before/after pattern this is benign
    /// (quiesce the workload, or accept one boundary event of skew);
    /// when an exact final reading *and* a zeroed restart are needed in
    /// one step, use [`MonitorStats::reset`], which drains instead of
    /// reading-then-zeroing.
    ///
    /// The counters an automatic-signal monitor owns (those of
    /// [`OccupancyTally`](autosynch_metrics::counters::OccupancyTally))
    /// reach the shared counters when an occupancy flushes its tally —
    /// before each block and at exit — so a snapshot taken while a thread
    /// is inside the monitor lags by what that occupancy has counted so
    /// far; it is exact once the monitor is quiescent.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self.counters.snapshot(),
            phases: self.phases.snapshot(),
            hold: self.hold.snapshot(),
            enter_exit: self.enter_exit.snapshot(),
            wait: self.wait.snapshot(),
        }
    }

    /// Resets counters and phase accumulators, returning the final
    /// values as of the reset.
    ///
    /// Unlike `snapshot()` followed by a zeroing pass — which loses any
    /// event recorded between the read and the zero — every field is
    /// drained by a single atomic swap, so each concurrent `fetch_add`
    /// record lands in exactly one of {the returned snapshot, the zeroed
    /// stats}. A `snapshot().since(&earlier)` whose `earlier` straddles
    /// a concurrent `reset` would mix pre- and post-reset readings;
    /// prefer the drain pattern (`let final_ = stats.reset();`) at
    /// run boundaries.
    ///
    /// **The exactly-once guarantee does not cover the counters an
    /// automatic-signal monitor owns** (those of
    /// [`OccupancyTally`](autosynch_metrics::counters::OccupancyTally):
    /// `waits`, `signals`, `pred_evals`, `relay_calls`, the tag counts,
    /// …). An occupancy adds its tally with a load and a store under the
    /// monitor's exclusion, which `reset` does not take: a drain that
    /// lands between the two returns the old total and the store then
    /// puts it back, so the events before the reset are counted on both
    /// sides of it. Reset a monitor's stats while no thread is inside
    /// it (every harness in this repo resets between runs, after the
    /// workers have joined) and the reading is exact for every field.
    pub fn reset(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: self.counters.drain(),
            phases: self.phases.drain(),
            hold: self.hold.drain(),
            enter_exit: self.enter_exit.drain(),
            wait: self.wait.drain(),
        }
    }
}

/// Accumulated signaler-lock hold time: the in-lock duration of every
/// relay call (snapshot diffing, index probing, queue wakes — everything
/// the signaler does for *other* threads while occupying the monitor).
/// The routed mode exists to shrink this number: its relay neither
/// probes indexes nor evaluates waiters' predicates.
///
/// Besides the mean (`nanos`/`holds`), every record also lands in a
/// log-linear histogram so snapshots carry p50/p90/p99/p999 quantiles —
/// recording is three relaxed `fetch_add`s plus one histogram-bucket
/// `fetch_add`, still lock-free from any thread.
#[derive(Debug, Default)]
pub struct HoldTimes {
    nanos: AtomicU64,
    holds: AtomicU64,
    hist: LogLinearHist,
}

impl HoldTimes {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one relay's in-lock duration.
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.holds.fetch_add(1, Ordering::Relaxed);
        self.hist.record(ns);
    }

    /// Captures the accumulated totals and distribution quantiles.
    pub fn snapshot(&self) -> HoldSnapshot {
        let h = self.hist.snapshot();
        HoldSnapshot {
            nanos: self.nanos.load(Ordering::Relaxed),
            holds: self.holds.load(Ordering::Relaxed),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }

    /// Resets the accumulator to zero.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
        self.holds.store(0, Ordering::Relaxed);
        self.hist.reset();
    }

    /// Atomically swaps the accumulator to zero and returns the final
    /// reading (totals and quantiles). Per-field atomic; see
    /// [`MonitorStats::reset`] for the contract.
    pub fn drain(&self) -> HoldSnapshot {
        let h = self.hist.drain();
        HoldSnapshot {
            nanos: self.nanos.swap(0, Ordering::Relaxed),
            holds: self.holds.swap(0, Ordering::Relaxed),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
        }
    }
}

/// A point-in-time copy of [`HoldTimes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HoldSnapshot {
    /// Total nanoseconds the signaler's relay work held the lock.
    pub nanos: u64,
    /// Number of recorded relay calls.
    pub holds: u64,
    /// Median recorded duration (ns, log-linear bucket upper bound —
    /// within ~3.1% above the exact order statistic, never below).
    pub p50: u64,
    /// 90th-percentile recorded duration (ns, same bounding).
    pub p90: u64,
    /// 99th-percentile recorded duration (ns, same bounding).
    pub p99: u64,
    /// 99.9th-percentile recorded duration (ns, same bounding).
    pub p999: u64,
}

impl HoldSnapshot {
    /// Mean in-lock nanoseconds per relay call; `0` with no records.
    pub fn mean_nanos(&self) -> f64 {
        if self.holds == 0 {
            0.0
        } else {
            self.nanos as f64 / self.holds as f64
        }
    }

    /// Component-wise difference `self - earlier` for the additive
    /// totals (`nanos`, `holds`), saturating at zero. Quantiles are
    /// order statistics, not additive — the difference keeps `self`'s
    /// values, i.e. the quantiles over the *whole* window ending at
    /// `self`. For window-exact quantiles, drain at the window start
    /// with [`MonitorStats::reset`] and snapshot at the end.
    pub fn since(&self, earlier: &HoldSnapshot) -> HoldSnapshot {
        HoldSnapshot {
            nanos: self.nanos.saturating_sub(earlier.nanos),
            holds: self.holds.saturating_sub(earlier.holds),
            p50: self.p50,
            p90: self.p90,
            p99: self.p99,
            p999: self.p999,
        }
    }
}

/// A point-in-time copy of [`MonitorStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Counter values.
    pub counters: CounterSnapshot,
    /// Phase times.
    pub phases: PhaseSnapshot,
    /// Signaler-lock hold times (zero unless timing was enabled).
    pub hold: HoldSnapshot,
    /// Whole-occupancy enter→exit wall times (zero unless timing was
    /// enabled).
    pub enter_exit: HoldSnapshot,
    /// Wait latencies, registration→satisfied (zero unless timing was
    /// enabled).
    pub wait: HoldSnapshot,
}

impl StatsSnapshot {
    /// Component-wise difference `self - earlier` (quantile fields keep
    /// `self`'s whole-window values; see [`HoldSnapshot::since`]).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            counters: self.counters.since(&earlier.counters),
            phases: self.phases.since(&earlier.phases),
            hold: self.hold.since(&earlier.hold),
            enter_exit: self.enter_exit.since(&earlier.enter_exit),
            wait: self.wait.since(&earlier.wait),
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} | {}", self.counters, self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosynch_metrics::phase::Phase;
    use std::time::Duration;

    #[test]
    fn timing_flag_controls_phases() {
        let on = MonitorStats::new(true);
        on.phases.add(Phase::Lock, Duration::from_nanos(5));
        assert_eq!(on.snapshot().phases.nanos(Phase::Lock), 5);

        let off = MonitorStats::new(false);
        off.phases.add(Phase::Lock, Duration::from_nanos(5));
        assert_eq!(off.snapshot().phases.nanos(Phase::Lock), 0);
    }

    #[test]
    fn snapshot_and_since() {
        let s = MonitorStats::new(false);
        s.counters.record_signal();
        let first = s.snapshot();
        s.counters.record_signal();
        s.counters.record_wakeup();
        let diff = s.snapshot().since(&first);
        assert_eq!(diff.counters.signals, 1);
        assert_eq!(diff.counters.wakeups, 1);
    }

    #[test]
    fn reset_clears_both() {
        let s = MonitorStats::new(true);
        s.counters.record_signal();
        s.phases.add(Phase::Await, Duration::from_nanos(9));
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn reset_returns_the_final_reading() {
        let s = MonitorStats::new(true);
        s.counters.record_signal();
        s.counters.record_signal();
        s.hold.record(Duration::from_nanos(128));
        s.wait.record(Duration::from_nanos(640));
        let final_ = s.reset();
        assert_eq!(final_.counters.signals, 2);
        assert_eq!(final_.hold.holds, 1);
        assert_eq!(final_.wait.holds, 1);
        assert!(final_.wait.p999 >= 640);
        // Drained: the live stats restart from zero.
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn enter_exit_times_accumulate() {
        let s = MonitorStats::new(true);
        assert!(s.timing_enabled());
        s.enter_exit.record(Duration::from_nanos(40));
        s.enter_exit.record(Duration::from_nanos(60));
        let snap = s.snapshot().enter_exit;
        assert_eq!(snap.holds, 2);
        assert!((snap.mean_nanos() - 50.0).abs() < 1e-9);
        s.reset();
        assert_eq!(s.snapshot().enter_exit, HoldSnapshot::default());
        assert!(!MonitorStats::new(false).timing_enabled());
    }

    #[test]
    fn hold_times_accumulate_and_average() {
        let s = MonitorStats::new(true);
        s.hold.record(Duration::from_nanos(100));
        s.hold.record(Duration::from_nanos(300));
        let snap = s.snapshot().hold;
        assert_eq!(snap.nanos, 400);
        assert_eq!(snap.holds, 2);
        assert!((snap.mean_nanos() - 200.0).abs() < 1e-9);
        s.reset();
        assert_eq!(s.snapshot().hold, HoldSnapshot::default());
        assert_eq!(HoldSnapshot::default().mean_nanos(), 0.0);
    }

    #[test]
    fn hold_snapshots_carry_quantiles() {
        let h = HoldTimes::new();
        for ns in 1..=1000u64 {
            h.record(Duration::from_nanos(ns));
        }
        let snap = h.snapshot();
        assert_eq!(snap.holds, 1000);
        // Upper-bound reporting: each quantile is at least the exact
        // order statistic and within the histogram's ~3.1% bucket.
        assert!(snap.p50 >= 500 && snap.p50 <= 520);
        assert!(snap.p90 >= 900 && snap.p90 <= 936);
        assert!(snap.p99 >= 990 && snap.p99 <= 1030);
        assert!(snap.p999 >= 999 && snap.p999 <= 1040);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.p999);
    }

    #[test]
    fn hold_since_is_component_wise() {
        let a = HoldSnapshot {
            nanos: 500,
            holds: 5,
            ..HoldSnapshot::default()
        };
        let b = HoldSnapshot {
            nanos: 200,
            holds: 2,
            ..HoldSnapshot::default()
        };
        let d = a.since(&b);
        assert_eq!(d.nanos, 300);
        assert_eq!(d.holds, 3);
    }

    #[test]
    fn since_keeps_latest_window_quantiles() {
        let h = HoldTimes::new();
        h.record(Duration::from_nanos(100));
        let first = h.snapshot();
        h.record(Duration::from_nanos(900));
        let diff = h.snapshot().since(&first);
        assert_eq!(diff.holds, 1);
        // Quantiles are whole-window (not subtractable): p999 covers
        // both records.
        assert!(diff.p999 >= 900);
    }

    #[test]
    fn display_combines_parts() {
        let s = MonitorStats::new(false);
        let text = s.snapshot().to_string();
        assert!(text.contains("signals="));
        assert!(text.contains("total="));
    }
}
