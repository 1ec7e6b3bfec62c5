//! The H2O (water-building) problem (§6.3.1, Fig. 9).
//!
//! "Every H atom waits if there is no O atom or another H atom. Every O
//! atom waits if the number of H atoms is less than 2." The paper runs
//! **one** O thread and scales the number of H threads.
//!
//! Model with fungible atoms: `h_free` counts hydrogens that announced
//! themselves and are not yet bonded; the O thread waits for two, claims
//! them and opens two *bond slots*; each waiting hydrogen takes one
//! slot. Both waiting conditions — `h_free >= 2` and `slots > 0` — are
//! shared threshold predicates, which is why the paper files H2O under
//! the shared-predicate problems.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Reaction-vessel state shared by every implementation. The two
/// expression-feeding counters are [`Tracked`] cells; `water` is
/// verification bookkeeping no waiting condition reads.
#[derive(Debug, Default)]
pub struct VesselState {
    h_free: Tracked<i64>,
    slots: Tracked<i64>,
    water: u64,
}

impl TrackedState for VesselState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.h_free);
        f(&mut self.slots);
    }
}

/// The two atom roles.
pub trait WaterVessel: Send + Sync {
    /// One hydrogen event: announce, wait for a bond slot.
    fn hydrogen(&self);
    /// One oxygen event: wait for two hydrogens, form a water molecule.
    fn oxygen(&self);
    /// Molecules formed so far.
    fn water_count(&self) -> u64;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal vessel.
#[derive(Debug)]
pub struct ExplicitVessel {
    monitor: ExplicitMonitor<VesselState>,
    o_cv: CondId,
    h_cv: CondId,
}

impl ExplicitVessel {
    /// Creates the vessel.
    pub fn new() -> Self {
        let mut monitor = ExplicitMonitor::new(VesselState::default());
        let o_cv = monitor.add_condition();
        let h_cv = monitor.add_condition();
        ExplicitVessel {
            monitor,
            o_cv,
            h_cv,
        }
    }
}

impl Default for ExplicitVessel {
    fn default() -> Self {
        Self::new()
    }
}

impl WaterVessel for ExplicitVessel {
    fn hydrogen(&self) {
        self.monitor.enter(|g| {
            *g.state_mut().h_free += 1;
            if *g.state().h_free >= 2 {
                g.signal(self.o_cv);
            }
            g.wait_while(self.h_cv, |s| *s.slots == 0);
            *g.state_mut().slots -= 1;
        });
    }

    fn oxygen(&self) {
        self.monitor.enter(|g| {
            g.wait_while(self.o_cv, |s| *s.h_free < 2);
            let state = g.state_mut();
            *state.h_free -= 2;
            *state.slots += 2;
            state.water += 1;
            // Two bond slots, two targeted signals.
            g.signal(self.h_cv);
            g.signal(self.h_cv);
        });
    }

    fn water_count(&self) -> u64 {
        self.monitor.enter(|g| g.state().water)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline vessel: broadcasts.
#[derive(Debug)]
pub struct BaselineVessel {
    monitor: BaselineMonitor<VesselState>,
}

impl BaselineVessel {
    /// Creates the vessel.
    pub fn new() -> Self {
        BaselineVessel {
            monitor: BaselineMonitor::new(VesselState::default()),
        }
    }
}

impl Default for BaselineVessel {
    fn default() -> Self {
        Self::new()
    }
}

impl WaterVessel for BaselineVessel {
    fn hydrogen(&self) {
        self.monitor.enter(|g| {
            *g.state_mut().h_free += 1;
            g.wait_until(|s: &VesselState| *s.slots > 0);
            *g.state_mut().slots -= 1;
        });
    }

    fn oxygen(&self) {
        self.monitor.enter(|g| {
            g.wait_until(|s: &VesselState| *s.h_free >= 2);
            let state = g.state_mut();
            *state.h_free -= 2;
            *state.slots += 2;
            state.water += 1;
        });
    }

    fn water_count(&self) -> u64 {
        self.monitor.enter(|g| g.state().water)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch vessel: two shared `waituntil` thresholds, compiled once.
#[derive(Debug)]
pub struct AutoSynchVessel {
    monitor: Monitor<VesselState>,
    two_hydrogens: Cond<VesselState>,
    open_slot: Cond<VesselState>,
}

impl AutoSynchVessel {
    /// Creates the vessel under the mechanism's monitor configuration.
    pub fn new(mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchVessel requires an automatic mechanism");
        let monitor = Monitor::with_config(VesselState::default(), config);
        let h_free = monitor.register_expr("h_free", |s| *s.h_free);
        let slots = monitor.register_expr("slots", |s| *s.slots);
        monitor.bind(|s| &mut s.h_free, &[h_free]);
        monitor.bind(|s| &mut s.slots, &[slots]);
        let two_hydrogens = monitor.compile(h_free.ge(2));
        let open_slot = monitor.compile(slots.gt(0));
        AutoSynchVessel {
            monitor,
            two_hydrogens,
            open_slot,
        }
    }
}

impl WaterVessel for AutoSynchVessel {
    fn hydrogen(&self) {
        self.monitor.enter_tracked(|g| {
            *g.state_mut().h_free += 1;
            g.wait(&self.open_slot);
            *g.state_mut().slots -= 1;
        });
    }

    fn oxygen(&self) {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.two_hydrogens);
            let state = g.state_mut();
            *state.h_free -= 2;
            *state.slots += 2;
            state.water += 1;
        });
    }

    fn water_count(&self) -> u64 {
        self.monitor.enter(|g| g.state().water)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_vessel(mechanism: Mechanism) -> Arc<dyn WaterVessel> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitVessel::new()),
        Mechanism::Baseline => Arc::new(BaselineVessel::new()),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchVessel::new(mechanism)),
    }
}

/// Parameters of a Fig. 9 run: `h_threads` hydrogens (the x-axis), one
/// oxygen thread.
#[derive(Debug, Clone, Copy)]
pub struct H2oConfig {
    /// Hydrogen thread count.
    pub h_threads: usize,
    /// Hydrogen events per thread (on average). The total
    /// `h_threads * events_per_h` must be even (each water takes two).
    pub events_per_h: usize,
}

impl Default for H2oConfig {
    fn default() -> Self {
        H2oConfig {
            h_threads: 4,
            events_per_h: 500,
        }
    }
}

/// Runs the saturation test and checks the stoichiometry.
///
/// Hydrogen threads draw events from a **shared pool** rather than a
/// per-thread quota. This matters for termination: with fixed quotas, a
/// single laggard thread whose remaining events exceed one can be
/// stranded once everyone else finishes (one lone hydrogen can never
/// reach `h_free >= 2`). With a pool, any unblocked thread issues the
/// remaining announcements, and a counting argument shows the system can
/// never block with fewer than two free hydrogens while work remains.
///
/// # Panics
///
/// Panics when fewer than two H threads are configured, the total event
/// count is odd, or the final molecule count is wrong.
pub fn run(mechanism: Mechanism, config: H2oConfig) -> RunReport {
    assert!(
        config.h_threads >= 2,
        "a molecule needs two concurrently blocked hydrogens; one H \
         thread alone deadlocks (the paper's x-axis starts at 2)"
    );
    let total_h = (config.h_threads * config.events_per_h) as u64;
    assert_eq!(total_h % 2, 0, "need an even number of hydrogen events");
    let expected_water = total_h / 2;
    let vessel = make_vessel(mechanism);
    let total_threads = config.h_threads + 1;
    let pool = std::sync::atomic::AtomicU64::new(0);

    let (elapsed, ctx) = timed_run(total_threads, |i| {
        if i == 0 {
            for _ in 0..expected_water {
                vessel.oxygen();
            }
        } else {
            while pool.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < total_h {
                vessel.hydrogen();
            }
        }
    });

    assert_eq!(
        vessel.water_count(),
        expected_water,
        "{mechanism}: wrong amount of water"
    );

    RunReport {
        mechanism,
        threads: total_threads,
        elapsed,
        stats: vessel.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            H2oConfig {
                h_threads: 4,
                events_per_h: 100,
            },
        )
    }

    #[test]
    fn all_mechanisms_make_the_right_amount_of_water() {
        for mechanism in Mechanism::ALL {
            small(mechanism);
        }
    }

    #[test]
    fn autosynch_never_broadcasts() {
        let report = small(Mechanism::AutoSynch);
        assert_eq!(report.stats.counters.broadcasts, 0);
    }

    #[test]
    fn odd_totals_are_rejected() {
        let result = std::panic::catch_unwind(|| {
            run(
                Mechanism::AutoSynch,
                H2oConfig {
                    h_threads: 3,
                    events_per_h: 3,
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn single_h_thread_is_rejected() {
        let result = std::panic::catch_unwind(|| {
            run(
                Mechanism::AutoSynch,
                H2oConfig {
                    h_threads: 1,
                    events_per_h: 2,
                },
            )
        });
        assert!(result.is_err(), "one H thread cannot ever bond");
    }
}
