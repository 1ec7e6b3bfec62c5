//! The one-lane bridge problem (Magee & Kramer's classic) — an
//! extension workload whose waiting condition is a disjunction where
//! one conjunction mixes a **globalized equivalence with a shared
//! threshold**: `waituntil(on == 0 || (dir == d && on < cap))`.
//!
//! Cars cross a bridge wide enough for one direction at a time and at
//! most `capacity` cars. A car headed in direction `d` may enter when
//! the bridge is empty (it claims the direction) or when traffic
//! already flows its way and there is room. Fig. 3's priority rule
//! picks the *equivalence* conjunct (`dir == d`) as the tag of the
//! second conjunction even though a threshold conjunct is present.
//!
//! The explicit version must broadcast the opposite queue when the
//! bridge drains (it cannot know how many are waiting or will fit) —
//! the same §3 pathology as the parameterized bounded buffer.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Travel directions over the bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Direction code 0.
    East,
    /// Direction code 1.
    West,
}

impl Direction {
    /// The direction code used in predicates.
    pub fn code(self) -> i64 {
        match self {
            Direction::East => 0,
            Direction::West => 1,
        }
    }
}

/// Bridge state shared by every implementation.
#[derive(Debug)]
pub struct BridgeState {
    on_bridge: Tracked<i64>,
    dir: Tracked<i64>,
    crossings: u64,
    peak: i64,
    /// Set if cars in both directions were ever on the bridge at once.
    violation: bool,
}

impl Default for BridgeState {
    fn default() -> Self {
        BridgeState {
            on_bridge: Tracked::new(0),
            dir: Tracked::new(-1),
            crossings: 0,
            peak: 0,
            violation: false,
        }
    }
}

impl TrackedState for BridgeState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.on_bridge);
        f(&mut self.dir);
    }
}

impl BridgeState {
    fn admit(&mut self, dir: i64) {
        if *self.on_bridge > 0 && *self.dir != dir {
            self.violation = true;
        }
        *self.dir = dir;
        *self.on_bridge += 1;
        self.peak = self.peak.max(*self.on_bridge);
    }

    fn release(&mut self) {
        *self.on_bridge -= 1;
        self.crossings += 1;
        if *self.on_bridge == 0 {
            *self.dir = -1;
        }
    }
}

/// Outcome snapshot used by the invariant checks.
#[derive(Debug, Clone, Copy)]
pub struct BridgeOutcome {
    /// Completed crossings.
    pub crossings: u64,
    /// Peak simultaneous cars.
    pub peak: i64,
    /// Whether opposite directions ever overlapped.
    pub violation: bool,
}

/// The bridge operations.
pub trait Bridge: Send + Sync {
    /// Blocks until a car headed `dir` may drive on.
    fn enter(&self, dir: Direction);
    /// Drives off the far end.
    fn exit(&self);
    /// Final outcome for invariant checking.
    fn outcome(&self) -> BridgeOutcome;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal bridge: a condvar per direction; the drain must
/// `signal_all` the opposite queue.
#[derive(Debug)]
pub struct ExplicitBridge {
    monitor: ExplicitMonitor<BridgeState>,
    queue: [CondId; 2],
    capacity: i64,
}

impl ExplicitBridge {
    /// Creates a bridge carrying at most `capacity` cars.
    pub fn new(capacity: i64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        let mut monitor = ExplicitMonitor::new(BridgeState::default());
        let queue = [monitor.add_condition(), monitor.add_condition()];
        ExplicitBridge {
            monitor,
            queue,
            capacity,
        }
    }
}

impl Bridge for ExplicitBridge {
    fn enter(&self, dir: Direction) {
        let d = dir.code();
        let cap = self.capacity;
        self.monitor.enter(|g| {
            g.wait_while(self.queue[d as usize], move |s| {
                !(*s.on_bridge == 0 || (*s.dir == d && *s.on_bridge < cap))
            });
            g.state_mut().admit(d);
            // Room may remain for a same-direction follower.
            g.signal(self.queue[d as usize]);
        });
    }

    fn exit(&self) {
        self.monitor.enter(|g| {
            g.state_mut().release();
            let state = g.state();
            if *state.on_bridge == 0 {
                // Drained: either direction could go, and any number up
                // to capacity — broadcast both queues (§3).
                g.signal_all(self.queue[0]);
                g.signal_all(self.queue[1]);
            } else {
                // A slot opened for the current direction.
                g.signal(self.queue[*state.dir as usize]);
            }
        });
    }

    fn outcome(&self) -> BridgeOutcome {
        self.monitor.enter(|g| BridgeOutcome {
            crossings: g.state().crossings,
            peak: g.state().peak,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline bridge: single condvar, broadcast on every change.
#[derive(Debug)]
pub struct BaselineBridge {
    monitor: BaselineMonitor<BridgeState>,
    capacity: i64,
}

impl BaselineBridge {
    /// Creates a bridge carrying at most `capacity` cars.
    pub fn new(capacity: i64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        BaselineBridge {
            monitor: BaselineMonitor::new(BridgeState::default()),
            capacity,
        }
    }
}

impl Bridge for BaselineBridge {
    fn enter(&self, dir: Direction) {
        let d = dir.code();
        let cap = self.capacity;
        self.monitor.enter(|g| {
            g.wait_until(move |s: &BridgeState| {
                *s.on_bridge == 0 || (*s.dir == d && *s.on_bridge < cap)
            });
            g.state_mut().admit(d);
        });
    }

    fn exit(&self) {
        self.monitor.enter(|g| g.state_mut().release());
    }

    fn outcome(&self) -> BridgeOutcome {
        self.monitor.enter(|g| BridgeOutcome {
            crossings: g.state().crossings,
            peak: g.state().peak,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch bridge:
/// `waituntil(on == 0 || (dir == d && on < cap))` with thread-local `d`
/// globalized at wait time.
#[derive(Debug)]
pub struct AutoSynchBridge {
    monitor: Monitor<BridgeState>,
    /// `on_bridge == 0 || (dir == d && on_bridge < cap)` per direction,
    /// compiled once.
    may_enter: [Cond<BridgeState>; 2],
}

impl AutoSynchBridge {
    /// Creates a bridge carrying at most `capacity` cars under the
    /// mechanism's monitor configuration.
    pub fn new(capacity: i64, mechanism: Mechanism) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchBridge requires an automatic mechanism");
        let monitor = Monitor::with_config(BridgeState::default(), config);
        let on_bridge = monitor.register_expr("on_bridge", |s| *s.on_bridge);
        let dir = monitor.register_expr("dir", |s| *s.dir);
        monitor.bind(|s| &mut s.on_bridge, &[on_bridge]);
        monitor.bind(|s| &mut s.dir, &[dir]);
        let may_enter = [0, 1]
            .map(|d| monitor.compile(on_bridge.eq(0).or(dir.eq(d).and(on_bridge.lt(capacity)))));
        AutoSynchBridge { monitor, may_enter }
    }
}

impl Bridge for AutoSynchBridge {
    fn enter(&self, dir: Direction) {
        let d = dir.code();
        self.monitor.enter_tracked(|g| {
            g.wait(&self.may_enter[d as usize]);
            g.state_mut().admit(d);
        });
    }

    fn exit(&self) {
        self.monitor.enter_tracked(|g| g.state_mut().release());
    }

    fn outcome(&self) -> BridgeOutcome {
        self.monitor.enter(|g| BridgeOutcome {
            crossings: g.state().crossings,
            peak: g.state().peak,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_bridge(mechanism: Mechanism, capacity: i64) -> Arc<dyn Bridge> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitBridge::new(capacity)),
        Mechanism::Baseline => Arc::new(BaselineBridge::new(capacity)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchBridge::new(capacity, mechanism)),
    }
}

/// Parameters of a bridge run.
#[derive(Debug, Clone, Copy)]
pub struct BridgeConfig {
    /// Threads per direction.
    pub per_direction: usize,
    /// Crossings per thread.
    pub crossings: usize,
    /// Simultaneous-car limit.
    pub capacity: i64,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            per_direction: 4,
            crossings: 200,
            capacity: 3,
        }
    }
}

/// Runs the saturation test and checks the one-direction and capacity
/// invariants.
///
/// # Panics
///
/// Panics when the crossing count is wrong, both directions ever
/// overlapped, or occupancy exceeded capacity.
pub fn run(mechanism: Mechanism, config: BridgeConfig) -> RunReport {
    let bridge = make_bridge(mechanism, config.capacity);
    let threads = config.per_direction * 2;

    let (elapsed, ctx) = timed_run(threads, |i| {
        let dir = if i % 2 == 0 {
            Direction::East
        } else {
            Direction::West
        };
        for _ in 0..config.crossings {
            bridge.enter(dir);
            bridge.exit();
        }
    });

    let outcome = bridge.outcome();
    assert_eq!(
        outcome.crossings,
        (threads * config.crossings) as u64,
        "{mechanism}: crossing count mismatch"
    );
    assert!(
        !outcome.violation,
        "{mechanism}: head-on traffic on the bridge"
    );
    assert!(
        outcome.peak <= config.capacity,
        "{mechanism}: {} cars on a capacity-{} bridge",
        outcome.peak,
        config.capacity
    );

    RunReport {
        mechanism,
        threads,
        elapsed,
        stats: bridge.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            BridgeConfig {
                per_direction: 3,
                crossings: 80,
                capacity: 2,
            },
        )
    }

    #[test]
    fn all_mechanisms_respect_the_invariants() {
        for mechanism in Mechanism::ALL {
            small(mechanism);
        }
    }

    #[test]
    fn autosynch_never_broadcasts_but_explicit_does() {
        let auto = small(Mechanism::AutoSynch);
        assert_eq!(auto.stats.counters.broadcasts, 0);
        let explicit = small(Mechanism::Explicit);
        assert!(
            explicit.stats.counters.broadcasts > 0,
            "the explicit drain path must have broadcast at least once"
        );
    }

    #[test]
    fn direction_codes_are_stable() {
        assert_eq!(Direction::East.code(), 0);
        assert_eq!(Direction::West.code(), 1);
    }

    #[test]
    fn capacity_one_bridge_is_a_mutex() {
        let report = run(
            Mechanism::AutoSynch,
            BridgeConfig {
                per_direction: 2,
                crossings: 60,
                capacity: 1,
            },
        );
        assert_eq!(report.threads, 4);
    }

    #[test]
    fn one_direction_only_fills_to_capacity() {
        let bridge = make_bridge(Mechanism::AutoSynch, 3);
        let (_, _) = timed_run(5, |_| {
            for _ in 0..60 {
                bridge.enter(Direction::East);
                bridge.exit();
            }
        });
        let outcome = bridge.outcome();
        assert_eq!(outcome.crossings, 300);
        assert!(outcome.peak <= 3);
        assert!(!outcome.violation);
    }
}
