//! The cigarette smokers problem (Patil, 1971) — an extension workload
//! beyond the paper's seven, exercising the **equivalence hash index**
//! with three distinct keys over one shared expression.
//!
//! An agent owns infinite supplies of tobacco, paper and matches. Each
//! round it places two of the three on the table; the one smoker who
//! owns the *third* ingredient picks them up, rolls and smokes, and the
//! agent refills. Every smoker therefore waits on
//! `waituntil(table == ALL ^ (1 << mine))` — an equivalence predicate
//! whose key differs per smoker, so the AutoSynch relay finds the one
//! eligible smoker with a single O(1) hash probe. The explicit version
//! can target the right smoker only because the agent *remembers which
//! pair it placed*; forgetting that is exactly the kind of bookkeeping
//! bug automatic signaling removes.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// The three ingredients as bitmask bits.
pub const INGREDIENTS: usize = 3;
const ALL: i64 = 0b111;

/// The bitmask a smoker holding ingredient `mine` waits for: the other
/// two ingredients on the table.
pub fn complement(mine: usize) -> i64 {
    assert!(mine < INGREDIENTS, "ingredient index out of range");
    ALL ^ (1 << mine)
}

/// Table state shared by every implementation. The bitmask is the one
/// expression-feeding field, so it lives in a [`Tracked`] cell.
#[derive(Debug, Default)]
pub struct TableState {
    /// Bitmask of ingredients currently on the table (0 or two bits).
    table: Tracked<i64>,
    /// Cigarettes smoked, per smoker.
    smoked: [u64; INGREDIENTS],
}

impl TrackedState for TableState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.table);
    }
}

/// The agent/smoker operations.
pub trait SmokersTable: Send + Sync {
    /// Agent: wait for an empty table, place the two ingredients that
    /// `smoker` lacks.
    fn place_for(&self, smoker: usize);
    /// Smoker `mine`: wait until the two missing ingredients appear,
    /// take them and smoke.
    fn smoke(&self, mine: usize);
    /// Per-smoker smoke counts.
    fn smoked(&self) -> [u64; INGREDIENTS];
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal table: one condvar for the agent, one per smoker.
/// The agent must remember which pair it placed to signal the right
/// smoker.
#[derive(Debug)]
pub struct ExplicitTable {
    monitor: ExplicitMonitor<TableState>,
    agent_cv: CondId,
    smoker_cv: [CondId; INGREDIENTS],
}

impl ExplicitTable {
    /// Creates the table.
    pub fn new() -> Self {
        let mut monitor = ExplicitMonitor::new(TableState::default());
        let agent_cv = monitor.add_condition();
        let smoker_cv = [
            monitor.add_condition(),
            monitor.add_condition(),
            monitor.add_condition(),
        ];
        ExplicitTable {
            monitor,
            agent_cv,
            smoker_cv,
        }
    }
}

impl Default for ExplicitTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SmokersTable for ExplicitTable {
    fn place_for(&self, smoker: usize) {
        self.monitor.enter(|g| {
            g.wait_while(self.agent_cv, |s| *s.table != 0);
            *g.state_mut().table = complement(smoker);
            // The explicit agent knows whom to wake only because it
            // chose the pair itself.
            g.signal(self.smoker_cv[smoker]);
        });
    }

    fn smoke(&self, mine: usize) {
        let want = complement(mine);
        self.monitor.enter(|g| {
            g.wait_while(self.smoker_cv[mine], move |s| *s.table != want);
            let state = g.state_mut();
            *state.table = 0;
            state.smoked[mine] += 1;
            g.signal(self.agent_cv);
        });
    }

    fn smoked(&self) -> [u64; INGREDIENTS] {
        self.monitor.enter(|g| g.state().smoked)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline table: a single condvar, broadcast on every change.
#[derive(Debug)]
pub struct BaselineTable {
    monitor: BaselineMonitor<TableState>,
}

impl BaselineTable {
    /// Creates the table.
    pub fn new() -> Self {
        BaselineTable {
            monitor: BaselineMonitor::new(TableState::default()),
        }
    }
}

impl Default for BaselineTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SmokersTable for BaselineTable {
    fn place_for(&self, smoker: usize) {
        self.monitor.enter(|g| {
            g.wait_until(|s: &TableState| *s.table == 0);
            *g.state_mut().table = complement(smoker);
        });
    }

    fn smoke(&self, mine: usize) {
        let want = complement(mine);
        self.monitor.enter(|g| {
            g.wait_until(move |s: &TableState| *s.table == want);
            let state = g.state_mut();
            *state.table = 0;
            state.smoked[mine] += 1;
        });
    }

    fn smoked(&self) -> [u64; INGREDIENTS] {
        self.monitor.enter(|g| g.state().smoked)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch table: four equivalence predicates over the one shared
/// expression `table` (keys 0, 0b011, 0b101, 0b110) — at most one can
/// be true at a time, the textbook case for the equivalence hash table
/// of §4.3.2.
#[derive(Debug)]
pub struct AutoSynchTable {
    monitor: Monitor<TableState>,
    empty: Cond<TableState>,
    my_pair: [Cond<TableState>; INGREDIENTS],
}

impl AutoSynchTable {
    /// Creates the table under the mechanism's monitor configuration.
    /// All four equivalence conditions are compiled once here.
    pub fn new(mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchTable requires an automatic mechanism");
        let monitor = Monitor::with_config(TableState::default(), config);
        let table = monitor.register_expr("table", |s| *s.table);
        monitor.bind(|s| &mut s.table, &[table]);
        let empty = monitor.compile(table.eq(0));
        let my_pair = [0, 1, 2].map(|mine| monitor.compile(table.eq(complement(mine))));
        AutoSynchTable {
            monitor,
            empty,
            my_pair,
        }
    }
}

impl SmokersTable for AutoSynchTable {
    fn place_for(&self, smoker: usize) {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.empty);
            *g.state_mut().table = complement(smoker);
        });
    }

    fn smoke(&self, mine: usize) {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.my_pair[mine]);
            let state = g.state_mut();
            *state.table = 0;
            state.smoked[mine] += 1;
        });
    }

    fn smoked(&self) -> [u64; INGREDIENTS] {
        self.monitor.enter(|g| g.state().smoked)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_table(mechanism: Mechanism) -> Arc<dyn SmokersTable> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitTable::new()),
        Mechanism::Baseline => Arc::new(BaselineTable::new()),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchTable::new(mechanism)),
    }
}

/// Parameters of a smokers run.
#[derive(Debug, Clone, Copy)]
pub struct SmokersConfig {
    /// Total agent rounds (cigarettes smoked overall).
    pub rounds: usize,
    /// RNG seed choosing which smoker each round serves.
    pub seed: u64,
}

impl Default for SmokersConfig {
    fn default() -> Self {
        SmokersConfig {
            rounds: 300,
            seed: 0xC19A_8E77,
        }
    }
}

/// Runs the saturation test: one agent thread and three smoker threads.
///
/// The round schedule (which smoker each round serves) is drawn up
/// front from a seeded RNG so each smoker knows its quota and the run
/// is reproducible across mechanisms.
///
/// # Panics
///
/// Panics when any smoker's final count differs from its quota.
pub fn run(mechanism: Mechanism, config: SmokersConfig) -> RunReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schedule: Vec<usize> = (0..config.rounds)
        .map(|_| rng.gen_range(0..INGREDIENTS))
        .collect();
    let mut quota = [0u64; INGREDIENTS];
    for &s in &schedule {
        quota[s] += 1;
    }

    let table = make_table(mechanism);
    let (elapsed, ctx) = timed_run(1 + INGREDIENTS, |i| {
        if i == 0 {
            for &smoker in &schedule {
                table.place_for(smoker);
            }
        } else {
            let mine = i - 1;
            for _ in 0..quota[mine] {
                table.smoke(mine);
            }
        }
    });

    assert_eq!(
        table.smoked(),
        quota,
        "{mechanism}: smoke counts diverge from the agent's schedule"
    );

    RunReport {
        mechanism,
        threads: 1 + INGREDIENTS,
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
            SmokersConfig {
                rounds: 120,
                seed: 7,
            },
        )
    }

    #[test]
    fn complement_masks_are_two_bit() {
        for mine in 0..INGREDIENTS {
            let mask = complement(mine);
            assert_eq!(mask.count_ones(), 2);
            assert_eq!(mask & (1 << mine), 0, "smoker's own bit must be absent");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn complement_rejects_bad_index() {
        let _ = complement(3);
    }

    #[test]
    fn all_mechanisms_smoke_their_quota() {
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
    fn equivalence_tagging_prunes_evaluations() {
        // Four equivalence keys over one expression: the hash probe
        // evaluates ~1 predicate per relay; the untagged scan churns
        // through all active entries.
        let cfg = SmokersConfig {
            rounds: 200,
            seed: 11,
        };
        let tagged = run(Mechanism::AutoSynch, cfg);
        let untagged = run(Mechanism::AutoSynchT, cfg);
        assert!(
            untagged.stats.counters.pred_evals > tagged.stats.counters.pred_evals,
            "untagged {} should exceed tagged {}",
            untagged.stats.counters.pred_evals,
            tagged.stats.counters.pred_evals
        );
    }

    #[test]
    fn schedule_is_reproducible() {
        let a = run(
            Mechanism::AutoSynch,
            SmokersConfig {
                rounds: 60,
                seed: 3,
            },
        );
        let b = run(
            Mechanism::AutoSynch,
            SmokersConfig {
                rounds: 60,
                seed: 3,
            },
        );
        // Same seed, same quotas — the assertion inside run() already
        // checked both against the same schedule.
        assert_eq!(a.threads, b.threads);
    }
}
