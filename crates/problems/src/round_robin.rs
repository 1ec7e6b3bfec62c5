//! The round-robin access pattern (§6.3.2, Fig. 11 and Table 1).
//!
//! N threads take turns entering the monitor in a fixed cyclic order:
//! thread `i` waits for `turn == i` and then advances `turn`. The
//! waiting condition is a **complex equivalence predicate** — `turn`
//! is shared, `i` is thread-local — so this is the showcase for
//! globalization plus the equivalence hash table: AutoSynch finds the
//! one signalable thread with an O(1) probe, AutoSynch-T scans all N
//! predicates (its Fig. 11 curve grows with N), and the explicit
//! version needs a manually managed array of condition variables.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::kessels::{KesselsCond, KesselsMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Monitor state: whose turn it is and a pass counter for verification.
/// `turn` is the one expression-feeding field, so it lives in a
/// [`Tracked`] cell; `passes` is bookkeeping no waiting condition reads.
#[derive(Debug, Default)]
pub struct TurnState {
    turn: Tracked<i64>,
    passes: u64,
}

impl TrackedState for TurnState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.turn);
    }
}

/// The round-robin token operations.
pub trait RoundRobin: Send + Sync {
    /// Blocks until it is `id`'s turn, then passes the turn on.
    fn pass(&self, id: usize);
    /// Total completed passes.
    fn passes(&self) -> u64;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
    /// Turns on per-phase timing (for the Table 1 reproduction).
    fn enable_timing(&self);
}

/// Explicit-signal round-robin: one condition variable per thread, the
/// leaving thread signals exactly the next one.
#[derive(Debug)]
pub struct ExplicitRoundRobin {
    monitor: ExplicitMonitor<TurnState>,
    conds: Vec<CondId>,
}

impl ExplicitRoundRobin {
    /// Creates the token ring for `n` threads.
    pub fn new(n: usize) -> Self {
        let mut monitor = ExplicitMonitor::new(TurnState::default());
        let conds = monitor.add_conditions(n);
        ExplicitRoundRobin { monitor, conds }
    }
}

impl RoundRobin for ExplicitRoundRobin {
    fn pass(&self, id: usize) {
        let n = self.conds.len() as i64;
        self.monitor.enter(|g| {
            g.wait_while(self.conds[id], |s| *s.turn != id as i64);
            let state = g.state_mut();
            *state.turn = (*state.turn + 1) % n;
            state.passes += 1;
            let next = *state.turn as usize;
            g.signal(self.conds[next]);
        });
    }

    fn passes(&self) -> u64 {
        self.monitor.enter(|g| g.state().passes)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.enable_timing();
    }
}

/// Baseline round-robin: broadcast and let everyone re-check.
#[derive(Debug)]
pub struct BaselineRoundRobin {
    monitor: BaselineMonitor<TurnState>,
    n: usize,
}

impl BaselineRoundRobin {
    /// Creates the token ring for `n` threads.
    pub fn new(n: usize) -> Self {
        BaselineRoundRobin {
            monitor: BaselineMonitor::new(TurnState::default()),
            n,
        }
    }
}

impl RoundRobin for BaselineRoundRobin {
    fn pass(&self, id: usize) {
        let me = id as i64;
        let n = self.n as i64;
        self.monitor.enter(|g| {
            g.wait_until(move |s: &TurnState| *s.turn == me);
            let state = g.state_mut();
            *state.turn = (*state.turn + 1) % n;
            state.passes += 1;
        });
    }

    fn passes(&self) -> u64 {
        self.monitor.enter(|g| g.state().passes)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.enable_timing();
    }
}

/// AutoSynch round-robin: `waituntil(turn == id)` — the globalized
/// equivalence predicate of Table 1. Each thread's condition is
/// compiled **once** at ring construction; `pass` re-runs none of the
/// DNF/tag/key analysis, which previously happened on every single
/// wait of this workload's hot loop.
#[derive(Debug)]
pub struct AutoSynchRoundRobin {
    monitor: Monitor<TurnState>,
    my_turn: Vec<Cond<TurnState>>,
    n: usize,
}

impl AutoSynchRoundRobin {
    /// Creates the token ring for `n` threads under the mechanism's
    /// monitor configuration.
    pub fn new(n: usize, mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchRoundRobin requires an automatic mechanism");
        let monitor = Monitor::with_config(TurnState::default(), config);
        let turn = monitor.register_expr("turn", |s| *s.turn);
        monitor.bind(|s| &mut s.turn, &[turn]);
        let my_turn = (0..n as i64)
            .map(|id| monitor.compile(turn.eq(id)))
            .collect();
        AutoSynchRoundRobin {
            monitor,
            my_turn,
            n,
        }
    }
}

impl RoundRobin for AutoSynchRoundRobin {
    fn pass(&self, id: usize) {
        let n = self.n as i64;
        self.monitor.enter_tracked(|g| {
            g.wait(&self.my_turn[id]); // waituntil(turn == id)
            let state = g.state_mut();
            *state.turn = (*state.turn + 1) % n;
            state.passes += 1;
        });
    }

    fn passes(&self) -> u64 {
        self.monitor.enter(|g| g.state().passes)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.stats().phases.set_enabled(true);
    }
}

/// Kessels-restricted round-robin: the fixed-condition-set model
/// *can* express `turn == id`, but only by declaring one condition per
/// thread up front — the paper's "complicated code that associates
/// different conditions to different condition variables" (§3). The
/// consequence is architectural: every relay scans the declared set, so
/// the signaling cost grows with N exactly like AutoSynch-T's, whereas
/// full AutoSynch's equivalence hash probe stays O(1). This type exists
/// to measure that contrast (`ablation_restricted_round_robin`).
#[derive(Debug)]
pub struct KesselsRoundRobin {
    monitor: KesselsMonitor<TurnState>,
    conds: Vec<KesselsCond>,
}

impl KesselsRoundRobin {
    /// Creates the token ring for `n` threads, declaring one `turn == i`
    /// condition per thread.
    pub fn new(n: usize) -> Self {
        let mut monitor = KesselsMonitor::new(TurnState::default());
        let conds = (0..n as i64)
            .map(|id| monitor.declare(format!("turn=={id}"), move |s: &TurnState| *s.turn == id))
            .collect();
        KesselsRoundRobin { monitor, conds }
    }
}

impl RoundRobin for KesselsRoundRobin {
    fn pass(&self, id: usize) {
        let n = self.conds.len() as i64;
        self.monitor.enter(|g| {
            g.wait(self.conds[id]);
            let state = g.state_mut();
            *state.turn = (*state.turn + 1) % n;
            state.passes += 1;
        });
    }

    fn passes(&self) -> u64 {
        self.monitor.enter(|g| g.state().passes)
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.enable_timing();
    }
}

/// Runs the Fig. 11 workload on the Kessels-restricted monitor.
///
/// # Panics
///
/// Panics when the total pass count is wrong.
pub fn run_kessels(config: RoundRobinConfig) -> RunReport {
    let ring = Arc::new(KesselsRoundRobin::new(config.threads));
    let (elapsed, ctx) = timed_run(config.threads, |i| {
        for _ in 0..config.rounds {
            ring.pass(i);
        }
    });
    let expected = (config.threads * config.rounds) as u64;
    assert_eq!(ring.passes(), expected, "kessels: pass count mismatch");
    RunReport {
        mechanism: Mechanism::AutoSynch, // closest label for reporting
        threads: config.threads,
        elapsed,
        stats: ring.stats(),
        ctx,
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_ring(mechanism: Mechanism, n: usize) -> Arc<dyn RoundRobin> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitRoundRobin::new(n)),
        Mechanism::Baseline => Arc::new(BaselineRoundRobin::new(n)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchRoundRobin::new(n, mechanism)),
    }
}

/// Parameters of a Fig. 11 run.
#[derive(Debug, Clone, Copy)]
pub struct RoundRobinConfig {
    /// Thread count (the x-axis).
    pub threads: usize,
    /// Full rounds each thread completes.
    pub rounds: usize,
}

impl Default for RoundRobinConfig {
    fn default() -> Self {
        RoundRobinConfig {
            threads: 8,
            rounds: 200,
        }
    }
}

/// Runs the saturation test; the turn counter itself verifies the order
/// (a thread can only advance from its own slot).
///
/// # Panics
///
/// Panics when the total pass count is wrong.
pub fn run(mechanism: Mechanism, config: RoundRobinConfig) -> RunReport {
    run_inner(mechanism, config, false)
}

/// Like [`run`] but with per-phase timing enabled — the Table 1 setup.
pub fn run_timed(mechanism: Mechanism, config: RoundRobinConfig) -> RunReport {
    run_inner(mechanism, config, true)
}

fn run_inner(mechanism: Mechanism, config: RoundRobinConfig, timed: bool) -> RunReport {
    let ring = make_ring(mechanism, config.threads);
    if timed {
        ring.enable_timing();
    }

    let (elapsed, ctx) = timed_run(config.threads, |i| {
        for _ in 0..config.rounds {
            ring.pass(i);
        }
    });

    let expected = (config.threads * config.rounds) as u64;
    assert_eq!(ring.passes(), expected, "{mechanism}: pass count mismatch");

    RunReport {
        mechanism,
        threads: config.threads,
        elapsed,
        stats: ring.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            RoundRobinConfig {
                threads: 6,
                rounds: 100,
            },
        )
    }

    #[test]
    fn all_mechanisms_complete_the_rounds() {
        for mechanism in Mechanism::ALL {
            small(mechanism);
        }
    }

    #[test]
    fn autosynch_uses_targeted_signals_only() {
        let report = small(Mechanism::AutoSynch);
        assert_eq!(report.stats.counters.broadcasts, 0);
        assert!(report.stats.counters.signals > 0);
    }

    #[test]
    fn tagging_prunes_predicate_evaluations() {
        // The Table 1 effect: with the equivalence hash table the relay
        // evaluates ~1 predicate per call; the untagged scan evaluates
        // ~N/2.
        let cfg = RoundRobinConfig {
            threads: 12,
            rounds: 100,
        };
        let tagged = run(Mechanism::AutoSynch, cfg);
        let untagged = run(Mechanism::AutoSynchT, cfg);
        assert!(
            untagged.stats.counters.pred_evals > 2 * tagged.stats.counters.pred_evals,
            "untagged {} should be well above tagged {}",
            untagged.stats.counters.pred_evals,
            tagged.stats.counters.pred_evals
        );
    }

    #[test]
    fn kessels_completes_the_rounds_with_declared_conditions() {
        let report = run_kessels(RoundRobinConfig {
            threads: 6,
            rounds: 100,
        });
        assert_eq!(report.stats.counters.broadcasts, 0);
        assert!(report.stats.counters.signals > 0);
    }

    #[test]
    fn kessels_scan_grows_with_thread_count_but_autosynch_probe_does_not() {
        // The §3 architectural contrast: the restricted model's relay
        // evaluates O(N) declared conditions per pass, the equivalence
        // hash probe O(1). Compare predicate evaluations per completed
        // pass at two ring sizes.
        let evals_per_pass = |n: usize, kessels: bool| {
            let cfg = RoundRobinConfig {
                threads: n,
                rounds: 50,
            };
            let report = if kessels {
                run_kessels(cfg)
            } else {
                run(Mechanism::AutoSynch, cfg)
            };
            report.stats.counters.pred_evals as f64 / (n * 50) as f64
        };
        let kessels_growth = evals_per_pass(16, true) / evals_per_pass(4, true);
        let tagged_growth = evals_per_pass(16, false) / evals_per_pass(4, false);
        assert!(
            kessels_growth > 2.0,
            "kessels evals/pass should grow ~4x from 4->16 threads, grew {kessels_growth:.2}x"
        );
        assert!(
            tagged_growth < 2.0,
            "tagged evals/pass should stay near-flat, grew {tagged_growth:.2}x"
        );
    }

    #[test]
    fn two_threads_alternate() {
        let ring = make_ring(Mechanism::AutoSynch, 2);
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || {
            for _ in 0..50 {
                r2.pass(1);
            }
        });
        for _ in 0..50 {
            ring.pass(0);
        }
        t.join().unwrap();
        assert_eq!(ring.passes(), 100);
    }
}
