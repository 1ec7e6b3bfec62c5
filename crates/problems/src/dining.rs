//! The dining philosophers problem (§6.3.2, Fig. 13).
//!
//! N philosophers, N forks, each needs both adjacent forks and takes
//! them **atomically** inside the monitor (no hold-and-wait, hence no
//! deadlock). Philosopher `i` waits on "both my forks are free" — a
//! per-philosopher shared expression, so AutoSynch maintains N distinct
//! expressions each carrying one equivalence tag. The paper notes the
//! explicit version gains little here because a philosopher only
//! competes with two neighbours regardless of N.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Table state: fork ownership plus eating flags for the invariant
/// check (updated only inside the monitor, so it is exact). Each fork
/// is its own [`Tracked`] cell: picking up forks `l`/`r` names exactly
/// the (at most three) `forks_free_*` expressions that read them.
#[derive(Debug)]
pub struct TableState {
    forks: Vec<Tracked<bool>>,
    eating: Vec<bool>,
    meals: u64,
}

impl TrackedState for TableState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        for fork in &mut self.forks {
            f(fork);
        }
    }
}

impl TableState {
    fn new(n: usize) -> Self {
        TableState {
            forks: (0..n).map(|_| Tracked::new(false)).collect(),
            eating: vec![false; n],
            meals: 0,
        }
    }

    fn left(&self, i: usize) -> usize {
        i
    }

    fn right(&self, i: usize) -> usize {
        (i + 1) % self.forks.len()
    }

    /// Takes both forks; panics if a neighbour is eating (would mean a
    /// fork was double-booked).
    fn pick_up(&mut self, i: usize) {
        let (l, r) = (self.left(i), self.right(i));
        assert!(!*self.forks[l] && !*self.forks[r], "fork already taken");
        let n = self.forks.len();
        let left_neighbor = (i + n - 1) % n;
        let right_neighbor = (i + 1) % n;
        if n > 1 {
            assert!(
                !self.eating[left_neighbor] && !self.eating[right_neighbor],
                "philosopher {i} eats while a neighbour eats"
            );
        }
        *self.forks[l] = true;
        *self.forks[r] = true;
        self.eating[i] = true;
    }

    fn put_down(&mut self, i: usize) {
        let (l, r) = (self.left(i), self.right(i));
        *self.forks[l] = false;
        *self.forks[r] = false;
        self.eating[i] = false;
        self.meals += 1;
    }
}

/// The dining-table operations.
pub trait DiningTable: Send + Sync {
    /// One meal for philosopher `i`: wait for both forks, eat, release.
    fn dine(&self, i: usize);
    /// Total meals eaten.
    fn meals(&self) -> u64;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal table: one condvar per philosopher; a philosopher
/// putting down forks signals the two neighbours.
#[derive(Debug)]
pub struct ExplicitTable {
    monitor: ExplicitMonitor<TableState>,
    conds: Vec<CondId>,
}

impl ExplicitTable {
    /// Seats `n` philosophers.
    pub fn new(n: usize) -> Self {
        let mut monitor = ExplicitMonitor::new(TableState::new(n));
        let conds = monitor.add_conditions(n);
        ExplicitTable { monitor, conds }
    }
}

impl DiningTable for ExplicitTable {
    fn dine(&self, i: usize) {
        let n = self.conds.len();
        self.monitor.enter(|g| {
            g.wait_while(self.conds[i], move |s| {
                *s.forks[s.left(i)] || *s.forks[s.right(i)]
            });
            g.state_mut().pick_up(i);
        });
        // "Eating" needs no work in a saturation test (§6.1).
        self.monitor.enter(|g| {
            g.state_mut().put_down(i);
            g.signal(self.conds[(i + n - 1) % n]);
            g.signal(self.conds[(i + 1) % n]);
        });
    }

    fn meals(&self) -> u64 {
        self.monitor.enter(|g| g.state().meals)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline table: broadcast on every fork release.
#[derive(Debug)]
pub struct BaselineTable {
    monitor: BaselineMonitor<TableState>,
}

impl BaselineTable {
    /// Seats `n` philosophers.
    pub fn new(n: usize) -> Self {
        BaselineTable {
            monitor: BaselineMonitor::new(TableState::new(n)),
        }
    }
}

impl DiningTable for BaselineTable {
    fn dine(&self, i: usize) {
        self.monitor.enter(|g| {
            g.wait_until(move |s: &TableState| !*s.forks[s.left(i)] && !*s.forks[s.right(i)]);
            g.state_mut().pick_up(i);
        });
        self.monitor.enter(|g| g.state_mut().put_down(i));
    }

    fn meals(&self) -> u64 {
        self.monitor.enter(|g| g.state().meals)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch table: `waituntil(forks_free(i) == 2)` per philosopher,
/// compiled once per seat at construction.
#[derive(Debug)]
pub struct AutoSynchTable {
    monitor: Monitor<TableState>,
    both_free: Vec<Cond<TableState>>,
}

impl AutoSynchTable {
    /// Seats `n` philosophers under the mechanism's configuration.
    pub fn new(n: usize, mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchTable requires an automatic mechanism");
        let monitor = Monitor::with_config(TableState::new(n), config);
        let both_free = (0..n)
            .map(|i| {
                let forks_free =
                    monitor.register_expr(format!("forks_free_{i}"), move |s: &TableState| {
                        i64::from(!*s.forks[s.left(i)]) + i64::from(!*s.forks[s.right(i)])
                    });
                // Fork j feeds the free-count of seats j-1 and j: bind
                // this seat's expression to both forks it reads.
                monitor.bind(|s| &mut s.forks[i], &[forks_free]);
                monitor.bind(|s| &mut s.forks[(i + 1) % n], &[forks_free]);
                monitor.compile(forks_free.eq(2))
            })
            .collect();
        AutoSynchTable { monitor, both_free }
    }
}

impl DiningTable for AutoSynchTable {
    fn dine(&self, i: usize) {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.both_free[i]);
            g.state_mut().pick_up(i);
        });
        self.monitor.enter_tracked(|g| g.state_mut().put_down(i));
    }

    fn meals(&self) -> u64 {
        self.monitor.enter(|g| g.state().meals)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_table(mechanism: Mechanism, n: usize) -> Arc<dyn DiningTable> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitTable::new(n)),
        Mechanism::Baseline => Arc::new(BaselineTable::new(n)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchTable::new(n, mechanism)),
    }
}

/// Parameters of a Fig. 13 run.
#[derive(Debug, Clone, Copy)]
pub struct DiningConfig {
    /// Philosopher count (the x-axis). Needs at least 2 (with one
    /// philosopher the two forks are the same fork).
    pub philosophers: usize,
    /// Meals per philosopher.
    pub meals_per_philosopher: usize,
}

impl Default for DiningConfig {
    fn default() -> Self {
        DiningConfig {
            philosophers: 5,
            meals_per_philosopher: 200,
        }
    }
}

/// Runs the saturation test; neighbour exclusion is asserted inside the
/// monitor on every pick-up.
///
/// # Panics
///
/// Panics on a fork double-booking or a wrong final meal count.
pub fn run(mechanism: Mechanism, config: DiningConfig) -> RunReport {
    assert!(config.philosophers >= 2, "need at least two philosophers");
    let table = make_table(mechanism, config.philosophers);

    let (elapsed, ctx) = timed_run(config.philosophers, |i| {
        for _ in 0..config.meals_per_philosopher {
            table.dine(i);
        }
    });

    let expected = (config.philosophers * config.meals_per_philosopher) as u64;
    assert_eq!(table.meals(), expected, "{mechanism}: meal count");

    RunReport {
        mechanism,
        threads: config.philosophers,
        elapsed,
        stats: table.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            DiningConfig {
                philosophers: 5,
                meals_per_philosopher: 100,
            },
        )
    }

    #[test]
    fn all_mechanisms_feed_everyone() {
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
    fn two_philosophers_share_both_forks() {
        // Degenerate ring: both philosophers need both forks, so meals
        // strictly alternate possession.
        run(
            Mechanism::AutoSynch,
            DiningConfig {
                philosophers: 2,
                meals_per_philosopher: 100,
            },
        );
    }

    #[test]
    fn large_table_smoke() {
        run(
            Mechanism::AutoSynch,
            DiningConfig {
                philosophers: 16,
                meals_per_philosopher: 50,
            },
        );
    }
}
