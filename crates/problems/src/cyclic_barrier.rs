//! A cyclic barrier — an extension workload that is the cleanest
//! real-world case of the paper's §3 argument: the explicit version
//! **must** `signalAll` (the last arrival releases everyone), while
//! AutoSynch relays one waiter at a time and each released thread's
//! exit wakes the next.
//!
//! The waiting condition is `waituntil(generation > my_gen)` where
//! `my_gen` is read *inside* the monitor just before waiting — a
//! textbook globalization (§4.1): the local snapshot becomes the
//! threshold key, and all per-generation predicates (`generation > 0`,
//! `generation > 1`, ...) land in the same threshold heap.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Barrier state shared by every implementation. Both fields feed the
/// waiting conditions, so both are [`Tracked`] cells.
#[derive(Debug, Default)]
pub struct BarrierState {
    generation: Tracked<i64>,
    arrived: Tracked<i64>,
}

impl TrackedState for BarrierState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.generation);
        f(&mut self.arrived);
    }
}

/// The barrier operation.
pub trait CyclicBarrier: Send + Sync {
    /// Blocks until all `parties` threads of the current generation
    /// arrive; the last arrival advances the generation and releases
    /// the rest.
    fn arrive(&self);
    /// Completed generations.
    fn generation(&self) -> i64;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal barrier: the classic single condvar whose last
/// arrival calls `signal_all` — there is no way around the broadcast
/// because every waiter must go.
#[derive(Debug)]
pub struct ExplicitBarrier {
    monitor: ExplicitMonitor<BarrierState>,
    released: CondId,
    parties: i64,
}

impl ExplicitBarrier {
    /// Creates a barrier for `parties` threads.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        let mut monitor = ExplicitMonitor::new(BarrierState::default());
        let released = monitor.add_condition();
        ExplicitBarrier {
            monitor,
            released,
            parties: parties as i64,
        }
    }
}

impl CyclicBarrier for ExplicitBarrier {
    fn arrive(&self) {
        self.monitor.enter(|g| {
            let my_gen = *g.state().generation;
            *g.state_mut().arrived += 1;
            if *g.state().arrived == self.parties {
                let state = g.state_mut();
                *state.arrived = 0;
                *state.generation += 1;
                // Everyone must go: signalAll is unavoidable here.
                g.signal_all(self.released);
            } else {
                g.wait_while(self.released, move |s| *s.generation == my_gen);
            }
        });
    }

    fn generation(&self) -> i64 {
        self.monitor.enter(|g| *g.state().generation)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline barrier: broadcast on every change (here the broadcast
/// happens to be the right call — cf. the sleeping-barber discussion in
/// §6.4 where the baseline is competitive).
#[derive(Debug)]
pub struct BaselineBarrier {
    monitor: BaselineMonitor<BarrierState>,
    parties: i64,
}

impl BaselineBarrier {
    /// Creates a barrier for `parties` threads.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        BaselineBarrier {
            monitor: BaselineMonitor::new(BarrierState::default()),
            parties: parties as i64,
        }
    }
}

impl CyclicBarrier for BaselineBarrier {
    fn arrive(&self) {
        self.monitor.enter(|g| {
            let my_gen = *g.state().generation;
            *g.state_mut().arrived += 1;
            if *g.state().arrived == self.parties {
                let state = g.state_mut();
                *state.arrived = 0;
                *state.generation += 1;
            } else {
                g.wait_until(move |s: &BarrierState| *s.generation > my_gen);
            }
        });
    }

    fn generation(&self) -> i64 {
        self.monitor.enter(|g| *g.state().generation)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch barrier: `waituntil(generation > my_gen)` with `my_gen`
/// globalized from the in-monitor snapshot. Release is a relay chain:
/// the generation bump wakes one waiter, whose exit wakes the next.
/// Generations never repeat, so the waits are **transient** (per-wait
/// analysis, LRU-evicted) rather than compiled-and-pinned.
#[derive(Debug)]
pub struct AutoSynchBarrier {
    monitor: Monitor<BarrierState>,
    generation: autosynch::ExprHandle<BarrierState>,
    parties: i64,
}

impl AutoSynchBarrier {
    /// Creates a barrier for `parties` threads under the mechanism's
    /// monitor configuration.
    pub fn new(parties: usize, mechanism: Mechanism) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchBarrier requires an automatic mechanism");
        let monitor = Monitor::with_config(BarrierState::default(), config);
        let generation = monitor.register_expr("generation", |s| *s.generation);
        let arrived = monitor.register_expr("arrived", |s| *s.arrived);
        monitor.bind(|s| &mut s.generation, &[generation]);
        monitor.bind(|s| &mut s.arrived, &[arrived]);
        AutoSynchBarrier {
            monitor,
            generation,
            parties: parties as i64,
        }
    }
}

impl CyclicBarrier for AutoSynchBarrier {
    fn arrive(&self) {
        self.monitor.enter_tracked(|g| {
            let my_gen = *g.state().generation; // globalization snapshot
            *g.state_mut().arrived += 1;
            if *g.state().arrived == self.parties {
                let state = g.state_mut();
                *state.arrived = 0;
                *state.generation += 1;
                // No signal call: the exit relay releases the first
                // waiter, and each waiter's own exit relays onward.
            } else {
                g.wait_transient(self.generation.gt(my_gen));
            }
        });
    }

    fn generation(&self) -> i64 {
        self.monitor.enter(|g| *g.state().generation)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_barrier(mechanism: Mechanism, parties: usize) -> Arc<dyn CyclicBarrier> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitBarrier::new(parties)),
        Mechanism::Baseline => Arc::new(BaselineBarrier::new(parties)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchBarrier::new(parties, mechanism)),
    }
}

/// Parameters of a barrier run.
#[derive(Debug, Clone, Copy)]
pub struct BarrierConfig {
    /// Threads (= parties of the barrier).
    pub parties: usize,
    /// Generations to cross.
    pub generations: usize,
}

impl Default for BarrierConfig {
    fn default() -> Self {
        BarrierConfig {
            parties: 8,
            generations: 200,
        }
    }
}

/// Runs the saturation test: all parties cross `generations` barriers
/// in lockstep.
///
/// # Panics
///
/// Panics when the final generation count is wrong.
pub fn run(mechanism: Mechanism, config: BarrierConfig) -> RunReport {
    let barrier = make_barrier(mechanism, config.parties);

    let (elapsed, ctx) = timed_run(config.parties, |_| {
        for _ in 0..config.generations {
            barrier.arrive();
        }
    });

    assert_eq!(
        barrier.generation(),
        config.generations as i64,
        "{mechanism}: generation count mismatch"
    );

    RunReport {
        mechanism,
        threads: config.parties,
        elapsed,
        stats: barrier.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            BarrierConfig {
                parties: 6,
                generations: 100,
            },
        )
    }

    #[test]
    fn all_mechanisms_cross_every_generation() {
        for mechanism in Mechanism::ALL {
            small(mechanism);
        }
    }

    #[test]
    fn explicit_broadcasts_autosynch_does_not() {
        let explicit = small(Mechanism::Explicit);
        assert!(
            explicit.stats.counters.broadcasts as usize >= 100,
            "one signalAll per generation"
        );
        let auto = small(Mechanism::AutoSynch);
        assert_eq!(auto.stats.counters.broadcasts, 0);
        // Relay released every waiter individually: ~(parties-1) signals
        // per generation.
        assert!(auto.stats.counters.signals >= 5 * 100);
    }

    #[test]
    fn lockstep_is_enforced() {
        // With 2 parties and an odd/even split of arrivals, neither
        // thread can run ahead: after the run both saw every generation.
        let barrier = make_barrier(Mechanism::AutoSynch, 2);
        let b2 = Arc::clone(&barrier);
        let t = std::thread::spawn(move || {
            for _ in 0..200 {
                b2.arrive();
            }
        });
        for _ in 0..200 {
            barrier.arrive();
        }
        t.join().unwrap();
        assert_eq!(barrier.generation(), 200);
    }

    #[test]
    fn single_party_barrier_never_waits() {
        let barrier = make_barrier(Mechanism::AutoSynch, 1);
        for _ in 0..50 {
            barrier.arrive();
        }
        assert_eq!(barrier.generation(), 50);
        assert_eq!(barrier.stats().counters.waits, 0);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_is_rejected() {
        let _ = AutoSynchBarrier::new(0, Mechanism::AutoSynch);
    }
}
