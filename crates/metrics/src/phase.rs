//! Per-phase time attribution — the Table 1 substitute.
//!
//! The paper profiles CPU usage of the round-robin access pattern with
//! YourKit and attributes it to `await`, `lock`, `relaySignal`, tag
//! management and "others". We reproduce the attribution with wall-clock
//! accumulators: the monitor runtime brackets each activity with
//! [`PhaseTimes::start`]/[`PhaseGuard::finish`] (or the closure helper
//! [`PhaseTimes::time`]) and the harness renders the same five-column table.
//!
//! Accounting is optional: constructing the accumulator `disabled()` turns
//! every operation into a no-op branch so benchmark figures are not
//! distorted when the breakdown is not requested.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The activities distinguished by Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Blocked in `Condvar::wait` (the paper's `await` column).
    Await,
    /// Acquiring the monitor lock.
    Lock,
    /// Running the relay-signaling rule (deciding whom to signal).
    RelaySignal,
    /// Maintaining predicate tags (inserting/removing from indexes).
    TagManager,
    /// Diffing the shared-expression snapshot against fresh values to
    /// compute the changed set (change-driven relay only; an extension
    /// column beyond the paper's Table 1).
    SnapshotDiff,
    /// A parked waiter re-checking its own predicate against the
    /// lock-free snapshot ring (routed mode only) — the predicate work
    /// waiter-side parking moves *out* of the signaler's critical
    /// section and onto the waiter.
    ParkRecheck,
    /// Everything else spent inside monitor functions.
    Other,
}

impl Phase {
    /// All phases in Table 1 column order (with the change-driven
    /// snapshot-diff and routed self-check extensions inserted before
    /// "others").
    pub const ALL: [Phase; 7] = [
        Phase::Await,
        Phase::Lock,
        Phase::RelaySignal,
        Phase::TagManager,
        Phase::SnapshotDiff,
        Phase::ParkRecheck,
        Phase::Other,
    ];

    /// The paper's column header for this phase.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Await => "await",
            Phase::Lock => "lock",
            Phase::RelaySignal => "relaySignal",
            Phase::TagManager => "tagMgr",
            Phase::SnapshotDiff => "snapDiff",
            Phase::ParkRecheck => "parkRecheck",
            Phase::Other => "others",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Await => 0,
            Phase::Lock => 1,
            Phase::RelaySignal => 2,
            Phase::TagManager => 3,
            Phase::SnapshotDiff => 4,
            Phase::ParkRecheck => 5,
            Phase::Other => 6,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Atomic nanosecond accumulators, one per [`Phase`].
///
/// # Examples
///
/// ```
/// use autosynch_metrics::phase::{Phase, PhaseTimes};
///
/// let times = PhaseTimes::enabled();
/// times.time(Phase::RelaySignal, || std::thread::sleep(std::time::Duration::from_millis(1)));
/// assert!(times.snapshot().nanos(Phase::RelaySignal) > 0);
/// ```
#[derive(Debug)]
pub struct PhaseTimes {
    nanos: [AtomicU64; 7],
    enabled: AtomicBool,
}

impl Default for PhaseTimes {
    fn default() -> Self {
        Self::disabled()
    }
}

impl PhaseTimes {
    /// Creates an accumulator that records every phase.
    pub fn enabled() -> Self {
        Self {
            nanos: Default::default(),
            enabled: AtomicBool::new(true),
        }
    }

    /// Creates a no-op accumulator (every `start`/`time` is a cheap branch).
    pub fn disabled() -> Self {
        Self {
            nanos: Default::default(),
            enabled: AtomicBool::new(false),
        }
    }

    /// Whether timing is currently recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Starts timing `phase`; call [`PhaseGuard::finish`] (or drop the
    /// guard) to add the elapsed time.
    #[inline]
    pub fn start(&self, phase: Phase) -> PhaseGuard<'_> {
        let started = if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        PhaseGuard {
            times: self,
            phase,
            started,
        }
    }

    /// Times a closure and attributes it to `phase`.
    #[inline]
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let guard = self.start(phase);
        let r = f();
        guard.finish();
        r
    }

    /// Adds a pre-measured duration to `phase`.
    #[inline]
    pub fn add(&self, phase: Phase, elapsed: Duration) {
        if self.is_enabled() {
            self.nanos[phase.index()].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Captures the accumulated times.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let mut nanos = [0u64; 7];
        for (slot, atomic) in nanos.iter_mut().zip(&self.nanos) {
            *slot = atomic.load(Ordering::Relaxed);
        }
        PhaseSnapshot { nanos }
    }

    /// Resets all accumulators to zero.
    pub fn reset(&self) {
        for atomic in &self.nanos {
            atomic.store(0, Ordering::Relaxed);
        }
    }

    /// Atomically swaps every accumulator to zero and returns the final
    /// values — `reset` with a reading. Per-phase atomic: a concurrent
    /// `add` lands in exactly one of {returned snapshot, post-drain
    /// accumulators}.
    pub fn drain(&self) -> PhaseSnapshot {
        let mut nanos = [0u64; 7];
        for (slot, atomic) in nanos.iter_mut().zip(&self.nanos) {
            *slot = atomic.swap(0, Ordering::Relaxed);
        }
        PhaseSnapshot { nanos }
    }
}

/// RAII guard returned by [`PhaseTimes::start`].
///
/// Dropping the guard records the elapsed time; [`PhaseGuard::finish`] does
/// the same but reads more clearly at call sites.
#[derive(Debug)]
#[must_use = "dropping immediately records ~0ns"]
pub struct PhaseGuard<'a> {
    times: &'a PhaseTimes,
    phase: Phase,
    started: Option<Instant>,
}

impl PhaseGuard<'_> {
    /// Stops the clock and records the elapsed time.
    #[inline]
    pub fn finish(self) {
        // Work happens in Drop.
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.times.add(self.phase, started.elapsed());
        }
    }
}

/// A point-in-time copy of [`PhaseTimes`], renderable as a Table 1 row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    nanos: [u64; 7],
}

impl PhaseSnapshot {
    /// Nanoseconds attributed to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Duration attributed to `phase`.
    pub fn duration(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos(phase))
    }

    /// Sum over all phases (the paper's `total` column).
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Share of `phase` in the total, in `[0, 1]`; `0` for an empty total.
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos(phase) as f64 / total as f64
        }
    }

    /// Phase-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &PhaseSnapshot) -> PhaseSnapshot {
        let mut nanos = [0u64; 7];
        for (i, slot) in nanos.iter_mut().enumerate() {
            *slot = self.nanos[i].saturating_sub(earlier.nanos[i]);
        }
        PhaseSnapshot { nanos }
    }

    /// Renders a `label: T ms (p%)` sequence matching Table 1's layout.
    pub fn table_row(&self) -> String {
        let mut out = String::new();
        for phase in Phase::ALL {
            let ms = self.nanos(phase) as f64 / 1e6;
            let pct = self.share(phase) * 100.0;
            out.push_str(&format!("{}={ms:.1}ms({pct:.1}%) ", phase.label()));
        }
        out.push_str(&format!("total={:.1}ms", self.total_nanos() as f64 / 1e6));
        out
    }
}

impl fmt::Display for PhaseSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = PhaseTimes::disabled();
        t.time(Phase::Lock, || std::thread::sleep(Duration::from_millis(2)));
        assert_eq!(t.snapshot().total_nanos(), 0);
    }

    #[test]
    fn enabled_records_elapsed_time() {
        let t = PhaseTimes::enabled();
        t.time(Phase::Await, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let snap = t.snapshot();
        assert!(snap.nanos(Phase::Await) >= 1_000_000);
        assert_eq!(snap.nanos(Phase::Lock), 0);
    }

    #[test]
    fn add_accumulates_manually() {
        let t = PhaseTimes::enabled();
        t.add(Phase::TagManager, Duration::from_nanos(500));
        t.add(Phase::TagManager, Duration::from_nanos(250));
        assert_eq!(t.snapshot().nanos(Phase::TagManager), 750);
    }

    #[test]
    fn toggling_enabled_at_runtime() {
        let t = PhaseTimes::disabled();
        t.add(Phase::Other, Duration::from_nanos(10));
        assert_eq!(t.snapshot().total_nanos(), 0);
        t.set_enabled(true);
        t.add(Phase::Other, Duration::from_nanos(10));
        assert_eq!(t.snapshot().nanos(Phase::Other), 10);
    }

    #[test]
    fn shares_sum_to_one() {
        let t = PhaseTimes::enabled();
        t.add(Phase::Await, Duration::from_nanos(600));
        t.add(Phase::Lock, Duration::from_nanos(300));
        t.add(Phase::Other, Duration::from_nanos(100));
        let snap = t.snapshot();
        let sum: f64 = Phase::ALL.iter().map(|&p| snap.share(p)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn share_of_empty_total_is_zero() {
        let snap = PhaseSnapshot::default();
        assert_eq!(snap.share(Phase::Await), 0.0);
    }

    #[test]
    fn since_is_phase_wise() {
        let t = PhaseTimes::enabled();
        t.add(Phase::Lock, Duration::from_nanos(100));
        let first = t.snapshot();
        t.add(Phase::Lock, Duration::from_nanos(50));
        t.add(Phase::Await, Duration::from_nanos(70));
        let diff = t.snapshot().since(&first);
        assert_eq!(diff.nanos(Phase::Lock), 50);
        assert_eq!(diff.nanos(Phase::Await), 70);
    }

    #[test]
    fn reset_zeroes() {
        let t = PhaseTimes::enabled();
        t.add(Phase::Await, Duration::from_nanos(10));
        t.reset();
        assert_eq!(t.snapshot().total_nanos(), 0);
    }

    #[test]
    fn table_row_mentions_every_label() {
        let snap = PhaseTimes::enabled().snapshot();
        let row = snap.table_row();
        for phase in Phase::ALL {
            assert!(row.contains(phase.label()), "missing {}", phase.label());
        }
        assert!(row.contains("total="));
    }

    #[test]
    fn phase_labels_are_unique() {
        let mut labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::ALL.len());
    }
}
