//! The watchtower: continuous per-monitor health signals and live
//! pathology detection.
//!
//! The flight recorder and [`span`](super::span) stitcher answer deep
//! *post-hoc* questions; the watcher answers the cheap *continuous*
//! one — "is this monitor healthy right now?" — without ever touching
//! the monitor lock. A sampler thread (the bench harness's, or any
//! embedder's) calls [`crate::Monitor::observe_health`] on a fixed
//! cadence; each call snapshots the monitor's relaxed counters and
//! latency histograms, derives windowed rates from the deltas, smooths
//! them through EWMAs ([`autosynch_metrics::ewma`]), pushes a
//! [`HealthSample`] into a bounded history ring, and runs the pathology
//! detectors.
//!
//! **Lock discipline.** Sampling reads only `SyncCounters::snapshot`
//! (relaxed atomic loads), `HoldTimes::snapshot` (atomic loads plus a
//! histogram scan) and [`crate::Monitor::parked_waiters`] (per-shard
//! gate locks, never the monitor mutex) — a sampler can run at kHz
//! cadence against a saturated monitor without perturbing relay
//! ordering or lengthening any critical section. The watcher's own
//! state sits behind its private mutex, contended only by the sampler
//! and diagnostics readers.
//!
//! **Hysteresis.** Every detector arms only after
//! [`WatchConfig::arm_after`] *consecutive* windows over its high
//! threshold and clears only after [`WatchConfig::clear_after`]
//! consecutive windows under its low threshold, with a minimum-activity
//! guard counting an idle window as a clearing one — a single
//! anomalous window can neither raise nor silence an alarm, and alarms
//! quench when the workload drains. The detectors and their engineered
//! positive/control shapes are exercised by the `reproduce -- watch`
//! harness and pinned by CI.

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use autosynch_metrics::counters::CounterSnapshot;
use autosynch_metrics::ewma::Ewma;
use parking_lot::Mutex;

use crate::stats::HoldSnapshot;

/// Thresholds and smoothing for one monitor's watcher. The defaults
/// are the production profile; tests tighten them to make engineered
/// shapes deterministic.
#[derive(Debug, Clone, Copy)]
pub struct WatchConfig {
    /// EWMA smoothing factor for every derived signal.
    pub ewma_alpha: f64,
    /// Consecutive over-threshold windows before a detector arms.
    pub arm_after: u32,
    /// Consecutive under-threshold windows before an armed detector
    /// clears.
    pub clear_after: u32,
    /// Samples retained in the history ring.
    pub history_cap: usize,
    /// [`Pathology::WakeHerd`] arms above this smoothed herd factor
    /// (waiters woken per productive wake)…
    pub herd_hi: f64,
    /// …and clears below this.
    pub herd_lo: f64,
    /// Wake-herd activity guard: windows waking fewer waiters than
    /// this count as clearing.
    pub herd_min_woken: u64,
    /// [`Pathology::RelayStorm`] arms above this smoothed relay rate
    /// (calls/second)…
    pub storm_relay_hz_hi: f64,
    /// …and clears below this rate…
    pub storm_relay_hz_lo: f64,
    /// …but only while the smoothed wake yield (wakes delivered per
    /// relay call) stays below this — a busy relay that *delivers* is
    /// not a storm.
    pub storm_yield_max: f64,
    /// Relay-storm activity guard: windows with fewer relay calls
    /// count as clearing.
    pub storm_min_relays: u64,
    /// [`Pathology::ConvoyStarvation`] arms above this enter/exit
    /// p99:p50 tail ratio…
    pub convoy_tail_hi: f64,
    /// …and clears below this…
    pub convoy_tail_lo: f64,
    /// …but only while smoothed flat-combining adoption (combined
    /// exits per enter) stays below this — a convoy the combiner is
    /// absorbing is handled, not a pathology.
    pub convoy_fc_max: f64,
    /// Convoy activity guard: windows with fewer enters count as
    /// clearing.
    pub convoy_min_enters: u64,
    /// [`Pathology::StrandedTail`] arms above this wait p999:p50
    /// ratio…
    pub tail_ratio_hi: f64,
    /// …and clears below this.
    pub tail_ratio_lo: f64,
    /// Stranded-tail activity guard: fewer recorded waits (cumulative)
    /// count as clearing.
    pub tail_min_waits: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            ewma_alpha: 0.3,
            arm_after: 3,
            clear_after: 3,
            history_cap: 256,
            herd_hi: 3.0,
            herd_lo: 2.0,
            herd_min_woken: 16,
            storm_relay_hz_hi: 50_000.0,
            storm_relay_hz_lo: 25_000.0,
            storm_yield_max: 0.05,
            storm_min_relays: 64,
            convoy_tail_hi: 50.0,
            convoy_tail_lo: 20.0,
            convoy_fc_max: 0.01,
            convoy_min_enters: 64,
            tail_ratio_hi: 100.0,
            tail_ratio_lo: 50.0,
            tail_min_waits: 16,
        }
    }
}

/// The smoothed per-window health signals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthSignals {
    /// Fraction of waiter wakes (condvar returns and routed wake
    /// deliveries) whose predicate was still false.
    pub false_wakeup_rate: f64,
    /// Unparks issued per relay call — the fan-out each signaling pass
    /// pays.
    pub unparks_per_relay: f64,
    /// Waiters woken per productive wake — 1.0 is perfect targeting,
    /// large is a thundering herd.
    pub herd_factor: f64,
    /// Fraction of enters that took the CAS lock-elision lane.
    pub fast_path_rate: f64,
    /// Combined (flat-combining-adopted) exits per enter.
    pub fc_adoption: f64,
    /// Relay-signaling passes per second.
    pub relay_hz: f64,
    /// Wakes delivered (unparks + signals) per relay call — a relay
    /// churning without delivering has a yield near zero.
    pub wake_yield: f64,
    /// Wait-latency p999:p50 ratio (cumulative histogram) — a handful
    /// of stranded waiters drag this, not the median.
    pub wait_tail_ratio: f64,
}

/// One watcher sample: the raw window plus the smoothed signals.
#[derive(Debug, Clone, Copy)]
pub struct HealthSample {
    /// Monotonic sample number (1-based).
    pub seq: u64,
    /// Window length.
    pub window: Duration,
    /// Counter deltas over the window.
    pub delta: CounterSnapshot,
    /// Smoothed signals as of this sample.
    pub signals: HealthSignals,
    /// Waiters blocked in park/wake gates at sample time.
    pub parked: usize,
    /// Cumulative wait-latency snapshot at sample time.
    pub wait: HoldSnapshot,
    /// Cumulative enter→exit occupancy snapshot at sample time.
    pub enter_exit: HoldSnapshot,
}

/// The pathologies the watcher detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Pathology {
    /// Thundering herd: each productive wake drags several futile
    /// ones — broadcast-shaped wakes over predicate-shaped waiters.
    WakeHerd = 0,
    /// Relay churn: signaling passes at high rate delivering almost no
    /// wakes — exits paying the relay audit for nobody.
    RelayStorm = 1,
    /// Lock convoy: occupancy tail latency two orders over the median
    /// while flat combining sits unused — queued-up enters serialized
    /// through the mutex.
    ConvoyStarvation = 2,
    /// Stranded waiters: the wait p999 detached from the median —
    /// a few waits parked far past everyone else.
    StrandedTail = 3,
}

/// Number of [`Pathology`] variants.
pub const PATHOLOGY_COUNT: usize = 4;

impl Pathology {
    /// Every pathology, in discriminant order.
    pub const ALL: [Pathology; PATHOLOGY_COUNT] = [
        Pathology::WakeHerd,
        Pathology::RelayStorm,
        Pathology::ConvoyStarvation,
        Pathology::StrandedTail,
    ];

    /// Stable snake_case name (JSON field / report key).
    pub fn name(self) -> &'static str {
        match self {
            Pathology::WakeHerd => "wake_herd",
            Pathology::RelayStorm => "relay_storm",
            Pathology::ConvoyStarvation => "convoy_starvation",
            Pathology::StrandedTail => "stranded_tail",
        }
    }

    /// One-line operator-facing description.
    pub fn describe(self) -> &'static str {
        match self {
            Pathology::WakeHerd => "thundering herd: several waiters woken per productive wake",
            Pathology::RelayStorm => {
                "relay storm: signaling passes churning with near-zero wake yield"
            }
            Pathology::ConvoyStarvation => {
                "lock convoy: occupancy tail far above median with flat combining unused"
            }
            Pathology::StrandedTail => "stranded tail: wait p999 detached from the median wait",
        }
    }
}

/// Which edge a [`HealthReport`] announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The pathology's hysteresis just armed.
    Armed,
    /// A previously armed pathology just cleared.
    Cleared,
}

/// One detector edge: a pathology arming or clearing, with the signal
/// snapshot that drove it.
#[derive(Debug, Clone, Copy)]
pub struct HealthReport {
    /// The monitor's identity token.
    pub monitor: u64,
    /// Which pathology.
    pub pathology: Pathology,
    /// Armed or cleared.
    pub edge: Edge,
    /// The sample sequence number at the edge.
    pub seq: u64,
    /// The smoothed signals at the edge.
    pub signals: HealthSignals,
}

impl HealthReport {
    /// Machine-readable single-line JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"monitor\":{},\"pathology\":\"{}\",\"edge\":\"{}\",\"seq\":{},\
             \"herd_factor\":{:.3},\"relay_hz\":{:.1},\"wake_yield\":{:.4},\
             \"false_wakeup_rate\":{:.4},\"fc_adoption\":{:.4},\
             \"fast_path_rate\":{:.4},\"wait_tail_ratio\":{:.1}}}",
            self.monitor,
            self.pathology.name(),
            match self.edge {
                Edge::Armed => "armed",
                Edge::Cleared => "cleared",
            },
            self.seq,
            self.signals.herd_factor,
            self.signals.relay_hz,
            self.signals.wake_yield,
            self.signals.false_wakeup_rate,
            self.signals.fc_adoption,
            self.signals.fast_path_rate,
            self.signals.wait_tail_ratio,
        )
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[monitor {} sample {}] {} {}: {}",
            self.monitor,
            self.seq,
            self.pathology.name(),
            match self.edge {
                Edge::Armed => "ARMED",
                Edge::Cleared => "cleared",
            },
            self.pathology.describe(),
        )
    }
}

/// One detector's hysteresis: consecutive-window counting on both
/// edges.
#[derive(Debug, Clone, Copy, Default)]
struct Hysteresis {
    armed: bool,
    streak: u32,
}

impl Hysteresis {
    /// Feeds one window's verdicts; returns the edge crossed, if any.
    /// `over` and `under` come from the high and low thresholds — a
    /// window between them (or failing both) resets the streak without
    /// crossing.
    fn update(&mut self, over: bool, under: bool, cfg: &WatchConfig) -> Option<Edge> {
        if self.armed {
            if under {
                self.streak += 1;
                if self.streak >= cfg.clear_after {
                    self.armed = false;
                    self.streak = 0;
                    return Some(Edge::Cleared);
                }
            } else {
                self.streak = 0;
            }
        } else if over {
            self.streak += 1;
            if self.streak >= cfg.arm_after {
                self.armed = true;
                self.streak = 0;
                return Some(Edge::Armed);
            }
        } else {
            self.streak = 0;
        }
        None
    }
}

#[derive(Debug)]
struct WatchState {
    seq: u64,
    last_at: Option<Instant>,
    last_counters: CounterSnapshot,
    false_wakeup_rate: Ewma,
    unparks_per_relay: Ewma,
    herd_factor: Ewma,
    fast_path_rate: Ewma,
    fc_adoption: Ewma,
    relay_hz: Ewma,
    wake_yield: Ewma,
    wait_tail_ratio: Ewma,
    detectors: [Hysteresis; PATHOLOGY_COUNT],
    history: VecDeque<HealthSample>,
    reports: Vec<HealthReport>,
}

/// One monitor's continuous health watcher. Owned by the
/// [`Monitor`](crate::Monitor); embedders drive it through
/// [`Monitor::observe_health`](crate::Monitor::observe_health) and read
/// it through [`Monitor::diagnostics`](crate::Monitor::diagnostics).
#[derive(Debug)]
pub struct Watcher {
    monitor: u64,
    config: WatchConfig,
    state: Mutex<WatchState>,
}

/// Everything a sampler feeds into one [`Watcher::observe`] call — the
/// raw monitor readings, all obtainable without the monitor lock.
#[derive(Debug, Clone, Copy)]
pub struct RawSample {
    /// Cumulative counter snapshot.
    pub counters: CounterSnapshot,
    /// Cumulative wait-latency snapshot.
    pub wait: HoldSnapshot,
    /// Cumulative enter→exit occupancy snapshot.
    pub enter_exit: HoldSnapshot,
    /// Waiters currently blocked in the park/wake gates.
    pub parked: usize,
}

impl Watcher {
    /// Creates a watcher for the monitor with identity `monitor`.
    pub fn new(monitor: u64, config: WatchConfig) -> Self {
        let e = || Ewma::new(config.ewma_alpha);
        Watcher {
            monitor,
            config,
            state: Mutex::new(WatchState {
                seq: 0,
                last_at: None,
                last_counters: CounterSnapshot::default(),
                false_wakeup_rate: e(),
                unparks_per_relay: e(),
                herd_factor: e(),
                fast_path_rate: e(),
                fc_adoption: e(),
                relay_hz: e(),
                wake_yield: e(),
                wait_tail_ratio: e(),
                detectors: [Hysteresis::default(); PATHOLOGY_COUNT],
                history: VecDeque::new(),
                reports: Vec::new(),
            }),
        }
    }

    /// The watcher's configuration.
    pub fn config(&self) -> &WatchConfig {
        &self.config
    }

    /// Folds in one sample on the wall clock: the window is the time
    /// since the previous call (the first call's window is measured
    /// from nothing and treated as 1ms for rate purposes).
    pub fn observe(&self, raw: RawSample) -> Vec<HealthReport> {
        let now = Instant::now();
        let mut state = self.state.lock();
        let window = state
            .last_at
            .map(|last| now.saturating_duration_since(last))
            .unwrap_or(Duration::from_millis(1));
        state.last_at = Some(now);
        self.observe_locked(&mut state, window, raw)
    }

    /// Folds in one sample with an explicit window — the deterministic
    /// entry the tests and synthetic drivers use.
    pub fn observe_window(&self, window: Duration, raw: RawSample) -> Vec<HealthReport> {
        let mut state = self.state.lock();
        state.last_at = Some(Instant::now());
        self.observe_locked(&mut state, window, raw)
    }

    fn observe_locked(
        &self,
        state: &mut WatchState,
        window: Duration,
        raw: RawSample,
    ) -> Vec<HealthReport> {
        let cfg = &self.config;
        let delta = raw.counters.since(&state.last_counters);
        state.last_counters = raw.counters;
        state.seq += 1;
        let seq = state.seq;

        // Windowed rates. `wakeups` already counts every wake in every
        // discipline — condvar returns and routed wake deliveries
        // both record it (the latter additionally record a
        // waiter self-check, so adding `waiter_self_checks` here would
        // double-count parked wakes and cap the herd factor near 2).
        let dt = window.as_secs_f64().max(1e-6);
        let woken = delta.wakeups;
        let futile = delta.futile_wakeups + delta.false_wakeups;
        let productive = woken.saturating_sub(futile);
        let delivered = delta.unparks + delta.signals;
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

        let signals = HealthSignals {
            false_wakeup_rate: state.false_wakeup_rate.update(ratio(futile, woken)),
            unparks_per_relay: state
                .unparks_per_relay
                .update(ratio(delta.unparks, delta.relay_calls)),
            herd_factor: state.herd_factor.update(if woken == 0 {
                1.0
            } else {
                ratio(woken, productive)
            }),
            fast_path_rate: state
                .fast_path_rate
                .update(ratio(delta.fast_path_enters, delta.enters)),
            fc_adoption: state
                .fc_adoption
                .update(ratio(delta.combined_exits, delta.enters)),
            relay_hz: state.relay_hz.update(delta.relay_calls as f64 / dt),
            wake_yield: state.wake_yield.update(ratio(delivered, delta.relay_calls)),
            wait_tail_ratio: state
                .wait_tail_ratio
                .update(ratio(raw.wait.p999, raw.wait.p50.max(1))),
        };

        let sample = HealthSample {
            seq,
            window,
            delta,
            signals,
            parked: raw.parked,
            wait: raw.wait,
            enter_exit: raw.enter_exit,
        };
        if state.history.len() >= cfg.history_cap.max(1) {
            state.history.pop_front();
        }
        state.history.push_back(sample);

        // Detector verdicts: `over` requires the activity guard;
        // an idle window is a clearing one.
        let enter_tail = ratio(raw.enter_exit.p99, raw.enter_exit.p50.max(1));
        let verdicts: [(bool, bool); PATHOLOGY_COUNT] = [
            (
                signals.herd_factor > cfg.herd_hi && woken >= cfg.herd_min_woken,
                signals.herd_factor < cfg.herd_lo || woken < cfg.herd_min_woken,
            ),
            (
                signals.relay_hz > cfg.storm_relay_hz_hi
                    && signals.wake_yield < cfg.storm_yield_max
                    && delta.relay_calls >= cfg.storm_min_relays,
                signals.relay_hz < cfg.storm_relay_hz_lo
                    || signals.wake_yield > 2.0 * cfg.storm_yield_max
                    || delta.relay_calls < cfg.storm_min_relays,
            ),
            (
                enter_tail > cfg.convoy_tail_hi
                    && signals.fc_adoption < cfg.convoy_fc_max
                    && delta.enters >= cfg.convoy_min_enters,
                enter_tail < cfg.convoy_tail_lo
                    || signals.fc_adoption > 5.0 * cfg.convoy_fc_max
                    || delta.enters < cfg.convoy_min_enters,
            ),
            (
                signals.wait_tail_ratio > cfg.tail_ratio_hi && raw.wait.holds >= cfg.tail_min_waits,
                signals.wait_tail_ratio < cfg.tail_ratio_lo || raw.wait.holds < cfg.tail_min_waits,
            ),
        ];

        let mut edges = Vec::new();
        for (i, pathology) in Pathology::ALL.into_iter().enumerate() {
            let (over, under) = verdicts[i];
            if let Some(edge) = state.detectors[i].update(over, under, cfg) {
                edges.push(HealthReport {
                    monitor: self.monitor,
                    pathology,
                    edge,
                    seq,
                    signals,
                });
            }
        }
        state.reports.extend_from_slice(&edges);
        // The report log is diagnostics, not an unbounded audit trail.
        let excess = state.reports.len().saturating_sub(cfg.history_cap.max(1));
        if excess > 0 {
            state.reports.drain(..excess);
        }
        edges
    }

    /// The currently armed pathologies.
    pub fn active(&self) -> Vec<Pathology> {
        let state = self.state.lock();
        Pathology::ALL
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| state.detectors[i].armed)
            .map(|(_, p)| p)
            .collect()
    }

    /// A copy of the retained sample history, oldest first.
    pub fn history(&self) -> Vec<HealthSample> {
        self.state.lock().history.iter().copied().collect()
    }

    /// A copy of the retained detector-edge reports, oldest first.
    pub fn reports(&self) -> Vec<HealthReport> {
        self.state.lock().reports.clone()
    }
}

/// A point-in-time diagnostics bundle: the latest sample, the armed
/// pathologies, and the retained detector edges. Render with
/// [`Diagnostics::to_json`] (machine) or `Display` (human).
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// The monitor's identity token.
    pub monitor: u64,
    /// The most recent sample, if any were taken.
    pub latest: Option<HealthSample>,
    /// Currently armed pathologies.
    pub active: Vec<Pathology>,
    /// Retained detector edges, oldest first.
    pub reports: Vec<HealthReport>,
}

impl Diagnostics {
    /// Machine-readable JSON (single object; reports inline).
    pub fn to_json(&self) -> String {
        let signals = self.latest.map(|s| s.signals).unwrap_or_default();
        let mut out = format!(
            "{{\"monitor\":{},\"samples\":{},\"active\":[",
            self.monitor,
            self.latest.map_or(0, |s| s.seq),
        );
        for (i, p) in self.active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(p.name());
            out.push('"');
        }
        out.push_str("],\"signals\":{");
        let fields = [
            ("false_wakeup_rate", signals.false_wakeup_rate),
            ("unparks_per_relay", signals.unparks_per_relay),
            ("herd_factor", signals.herd_factor),
            ("fast_path_rate", signals.fast_path_rate),
            ("fc_adoption", signals.fc_adoption),
            ("relay_hz", signals.relay_hz),
            ("wake_yield", signals.wake_yield),
            ("wait_tail_ratio", signals.wait_tail_ratio),
        ];
        for (i, (name, value)) in fields.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value:.4}"));
        }
        out.push_str("},\"reports\":[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "monitor {} watchtower:", self.monitor)?;
        match self.latest {
            None => writeln!(f, "  (no samples)")?,
            Some(s) => {
                writeln!(
                    f,
                    "  sample {} (window {:?}): parked={} herd={:.2} \
                     false_wakeup={:.3} relay_hz={:.0} yield={:.3} \
                     fast_path={:.3} fc={:.3} tail_ratio={:.1}",
                    s.seq,
                    s.window,
                    s.parked,
                    s.signals.herd_factor,
                    s.signals.false_wakeup_rate,
                    s.signals.relay_hz,
                    s.signals.wake_yield,
                    s.signals.fast_path_rate,
                    s.signals.fc_adoption,
                    s.signals.wait_tail_ratio,
                )?;
            }
        }
        if self.active.is_empty() {
            writeln!(f, "  healthy: no pathologies armed")?;
        } else {
            for p in &self.active {
                writeln!(f, "  ARMED {}: {}", p.name(), p.describe())?;
            }
        }
        for r in &self.reports {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> WatchConfig {
        WatchConfig {
            ewma_alpha: 1.0, // track exactly: deterministic thresholds
            arm_after: 2,
            clear_after: 2,
            ..WatchConfig::default()
        }
    }

    fn herd_raw(wakeups: u64, futile: u64) -> RawSample {
        RawSample {
            counters: CounterSnapshot {
                wakeups,
                futile_wakeups: futile,
                ..CounterSnapshot::default()
            },
            wait: HoldSnapshot::default(),
            enter_exit: HoldSnapshot::default(),
            parked: 0,
        }
    }

    #[test]
    fn herd_arms_after_consecutive_hot_windows_and_clears() {
        let w = Watcher::new(7, tight());
        let ms = Duration::from_millis(10);
        // Window 1: 40 wakeups, 36 futile → herd 10x. Arms only after 2.
        assert!(w.observe_window(ms, herd_raw(40, 36)).is_empty());
        let edges = w.observe_window(ms, herd_raw(80, 72));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].pathology, Pathology::WakeHerd);
        assert_eq!(edges[0].edge, Edge::Armed);
        assert_eq!(edges[0].monitor, 7);
        assert_eq!(w.active(), vec![Pathology::WakeHerd]);
        // Healthy windows: clears after 2.
        assert!(w.observe_window(ms, herd_raw(120, 73)).is_empty());
        let edges = w.observe_window(ms, herd_raw(160, 74));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].edge, Edge::Cleared);
        assert!(w.active().is_empty());
    }

    #[test]
    fn idle_windows_count_as_clearing_not_arming() {
        let w = Watcher::new(1, tight());
        let ms = Duration::from_millis(10);
        // Herd-shaped but below the activity guard: 4 wakeups.
        for _ in 0..10 {
            assert!(w.observe_window(ms, herd_raw(4, 3)).is_empty());
        }
        assert!(w.active().is_empty());
    }

    #[test]
    fn one_anomalous_window_does_not_arm() {
        let w = Watcher::new(1, tight());
        let ms = Duration::from_millis(10);
        assert!(w.observe_window(ms, herd_raw(40, 36)).is_empty());
        // Healthy window resets the streak…
        assert!(w.observe_window(ms, herd_raw(80, 37)).is_empty());
        // …so another single hot window still does not arm.
        assert!(w.observe_window(ms, herd_raw(120, 73)).is_empty());
        assert!(w.active().is_empty());
    }

    #[test]
    fn relay_storm_needs_low_yield() {
        let w = Watcher::new(1, tight());
        let ms = Duration::from_millis(10);
        let raw = |relays: u64, unparks: u64| RawSample {
            counters: CounterSnapshot {
                relay_calls: relays,
                unparks,
                ..CounterSnapshot::default()
            },
            wait: HoldSnapshot::default(),
            enter_exit: HoldSnapshot::default(),
            parked: 0,
        };
        // 1000 relays / 10ms = 100k Hz, zero delivery: storm.
        assert!(w.observe_window(ms, raw(1000, 0)).is_empty());
        let edges = w.observe_window(ms, raw(2000, 0));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].pathology, Pathology::RelayStorm);

        // Same rate but every relay delivers: never arms.
        let w2 = Watcher::new(2, tight());
        for i in 1..=10u64 {
            assert!(w2.observe_window(ms, raw(1000 * i, 1000 * i)).is_empty());
        }
        assert!(w2.active().is_empty());
    }

    #[test]
    fn convoy_needs_absent_flat_combining() {
        let w = Watcher::new(1, tight());
        let ms = Duration::from_millis(10);
        let raw = |enters: u64, combined: u64| RawSample {
            counters: CounterSnapshot {
                enters,
                combined_exits: combined,
                ..CounterSnapshot::default()
            },
            wait: HoldSnapshot::default(),
            enter_exit: HoldSnapshot {
                nanos: 1,
                holds: enters,
                p50: 1_000,
                p90: 40_000,
                p99: 90_000,
                p999: 95_000,
            },
            parked: 0,
        };
        assert!(w.observe_window(ms, raw(100, 0)).is_empty());
        let edges = w.observe_window(ms, raw(200, 0));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].pathology, Pathology::ConvoyStarvation);

        // Same tail, but the combiner is absorbing: control stays silent.
        let w2 = Watcher::new(2, tight());
        for i in 1..=10u64 {
            assert!(w2.observe_window(ms, raw(100 * i, 50 * i)).is_empty());
        }
        assert!(w2.active().is_empty());
    }

    #[test]
    fn stranded_tail_arms_on_detached_p999() {
        let w = Watcher::new(1, tight());
        let ms = Duration::from_millis(10);
        let raw = |p999: u64| RawSample {
            counters: CounterSnapshot::default(),
            wait: HoldSnapshot {
                nanos: 1,
                holds: 100,
                p50: 1_000,
                p90: 2_000,
                p99: 4_000,
                p999,
            },
            enter_exit: HoldSnapshot::default(),
            parked: 0,
        };
        assert!(w.observe_window(ms, raw(500_000)).is_empty());
        let edges = w.observe_window(ms, raw(500_000));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].pathology, Pathology::StrandedTail);
        // A healthy tail clears it.
        assert!(w.observe_window(ms, raw(3_000)).is_empty());
        assert!(!w.observe_window(ms, raw(3_000)).is_empty());
        assert!(w.active().is_empty());
    }

    #[test]
    fn history_ring_is_bounded_and_ordered() {
        let cfg = WatchConfig {
            history_cap: 4,
            ..tight()
        };
        let w = Watcher::new(1, cfg);
        for _ in 0..10 {
            w.observe_window(Duration::from_millis(1), herd_raw(0, 0));
        }
        let history = w.history();
        assert_eq!(history.len(), 4);
        assert_eq!(history.first().unwrap().seq, 7);
        assert_eq!(history.last().unwrap().seq, 10);
    }

    #[test]
    fn deltas_are_windowed_not_cumulative() {
        let w = Watcher::new(1, tight());
        w.observe_window(Duration::from_millis(1), herd_raw(100, 10));
        w.observe_window(Duration::from_millis(1), herd_raw(150, 15));
        let history = w.history();
        assert_eq!(history[0].delta.wakeups, 100);
        assert_eq!(history[1].delta.wakeups, 50);
        assert_eq!(history[1].delta.futile_wakeups, 5);
    }

    #[test]
    fn reports_render_json_and_text() {
        let report = HealthReport {
            monitor: 9,
            pathology: Pathology::WakeHerd,
            edge: Edge::Armed,
            seq: 3,
            signals: HealthSignals::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"pathology\":\"wake_herd\""));
        assert!(json.contains("\"edge\":\"armed\""));
        assert!(report.to_string().contains("wake_herd ARMED"));

        let diag = Diagnostics {
            monitor: 9,
            latest: None,
            active: vec![Pathology::RelayStorm],
            reports: vec![report],
        };
        let json = diag.to_json();
        assert!(json.contains("\"active\":[\"relay_storm\"]"));
        assert!(json.contains("wake_herd"));
        assert!(diag.to_string().contains("ARMED relay_storm"));
    }
}
