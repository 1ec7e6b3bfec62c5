//! The wake-storm pattern: K hot expressions, N waiters each,
//! adversarial signal order — the shape where gate-broadcast wakes are
//! worst and wake routing should shine (an extension beyond the
//! paper's seven problems).
//!
//! Each of `K` channels runs an independent round-robin: waiter `j` of
//! channel `k` blocks on the complex equivalence predicate
//! `chan_k == j` and then advances `chan_k`. All channels progress
//! concurrently and out of phase, so the signal order seen by any one
//! gate is adversarial: under a gate-broadcast wake every advance of
//! channel `k` would wake its whole gate — not only the `N - 1`
//! wrong-turn waiters of channel `k` but also every waiter of the
//! *other* channels that hash to the same gate (with `K` above the
//! shard count some gates always host several channels). The herd is
//! `O(K · N)` self-checks per wave of advances for exactly `K` threads
//! that can proceed.
//!
//! `AutoSynch-Route` collapses the herd twice over: the eq-route maps
//! each published `chan_k` value to the one slot whose waiter can have
//! flipped (one targeted unpark per advance), and unrelated channels
//! sharing the gate are never touched because wakes name buckets, not
//! gates. The `reproduce -- wake` experiment records the margin in
//! `BENCH_wake.json`.
//!
//! The explicit-signal version needs a `K × N` array of condition
//! variables and signals exactly the next waiter; the baseline
//! broadcasts its single condvar on every advance, waking all `K · N`
//! threads.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Monitor state: one turn counter per channel plus per-channel pass
/// counts for verification. Each channel's turn is its own [`Tracked`]
/// cell bound to its expression, so an advance of channel `k`
/// automatically names exactly `chan_k`.
#[derive(Debug)]
pub struct StormState {
    chans: Vec<Tracked<i64>>,
    passes: Vec<u64>,
}

impl StormState {
    fn new(channels: usize) -> Self {
        StormState {
            chans: (0..channels).map(|_| Tracked::new(0)).collect(),
            passes: vec![0; channels],
        }
    }
}

impl TrackedState for StormState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        for chan in &mut self.chans {
            f(chan);
        }
    }
}

/// The wake-storm operations.
pub trait WakeStorm: Send + Sync {
    /// Blocks until it is waiter `id`'s turn on `chan`, then advances
    /// the channel.
    fn pass(&self, chan: usize, id: usize);
    /// Completed passes of `chan`.
    fn passes(&self, chan: usize) -> u64;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
    /// Turns on per-phase timing (hold-time experiments).
    fn enable_timing(&self) {}
}

/// Explicit-signal wake storm: one condition variable per `(channel,
/// waiter)` pair, the advancing thread signals exactly the next one.
#[derive(Debug)]
pub struct ExplicitWakeStorm {
    monitor: ExplicitMonitor<StormState>,
    conds: Vec<CondId>,
    waiters: usize,
}

impl ExplicitWakeStorm {
    /// Creates the storm for `channels × waiters` threads.
    pub fn new(channels: usize, waiters: usize) -> Self {
        let mut monitor = ExplicitMonitor::new(StormState::new(channels));
        let conds = monitor.add_conditions(channels * waiters);
        ExplicitWakeStorm {
            monitor,
            conds,
            waiters,
        }
    }
}

impl WakeStorm for ExplicitWakeStorm {
    fn pass(&self, chan: usize, id: usize) {
        let n = self.waiters as i64;
        self.monitor.enter(|g| {
            g.wait_while(self.conds[chan * self.waiters + id], |s| {
                *s.chans[chan] != id as i64
            });
            let state = g.state_mut();
            *state.chans[chan] = (*state.chans[chan] + 1) % n;
            state.passes[chan] += 1;
            let next = *state.chans[chan] as usize;
            g.signal(self.conds[chan * self.waiters + next]);
        });
    }

    fn passes(&self, chan: usize) -> u64 {
        self.monitor.enter(|g| g.state().passes[chan])
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.enable_timing();
    }
}

/// Baseline wake storm: broadcast on every advance of any channel and
/// let all `K · N` waiters re-check.
#[derive(Debug)]
pub struct BaselineWakeStorm {
    monitor: BaselineMonitor<StormState>,
    waiters: usize,
}

impl BaselineWakeStorm {
    /// Creates the storm for `channels × waiters` threads.
    pub fn new(channels: usize, waiters: usize) -> Self {
        BaselineWakeStorm {
            monitor: BaselineMonitor::new(StormState::new(channels)),
            waiters,
        }
    }
}

impl WakeStorm for BaselineWakeStorm {
    fn pass(&self, chan: usize, id: usize) {
        let me = id as i64;
        let n = self.waiters as i64;
        self.monitor.enter(|g| {
            g.wait_until(move |s: &StormState| *s.chans[chan] == me);
            let state = g.state_mut();
            *state.chans[chan] = (*state.chans[chan] + 1) % n;
            state.passes[chan] += 1;
        });
    }

    fn passes(&self, chan: usize) -> u64 {
        self.monitor.enter(|g| g.state().passes[chan])
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.enable_timing();
    }
}

/// AutoSynch wake storm: `waituntil(chan_k == id)` — `K × N` compiled
/// equivalence conditions over `K` hot expressions. Compiled once at
/// construction; every channel cell is bound to its expression, so
/// advances name exactly the touched channel.
#[derive(Debug)]
pub struct AutoSynchWakeStorm {
    monitor: Monitor<StormState>,
    my_turn: Vec<Cond<StormState>>,
    waiters: usize,
}

impl AutoSynchWakeStorm {
    /// Creates the storm for `channels × waiters` threads under the
    /// mechanism's monitor configuration.
    pub fn new(channels: usize, waiters: usize, mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchWakeStorm requires an automatic mechanism");
        let monitor = Monitor::with_config(StormState::new(channels), config);
        let mut my_turn = Vec::with_capacity(channels * waiters);
        for k in 0..channels {
            let chan = monitor.register_expr(format!("chan_{k}"), move |s| *s.chans[k]);
            monitor.bind(|s| &mut s.chans[k], &[chan]);
            for id in 0..waiters as i64 {
                my_turn.push(monitor.compile(chan.eq(id)));
            }
        }
        AutoSynchWakeStorm {
            monitor,
            my_turn,
            waiters,
        }
    }
}

impl WakeStorm for AutoSynchWakeStorm {
    fn pass(&self, chan: usize, id: usize) {
        let n = self.waiters as i64;
        self.monitor.enter_tracked(|g| {
            g.wait(&self.my_turn[chan * self.waiters + id]);
            let state = g.state_mut();
            *state.chans[chan] = (*state.chans[chan] + 1) % n;
            state.passes[chan] += 1;
        });
    }

    fn passes(&self, chan: usize) -> u64 {
        self.monitor.enter(|g| g.state().passes[chan])
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.stats().phases.set_enabled(true);
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_storm(mechanism: Mechanism, channels: usize, waiters: usize) -> Arc<dyn WakeStorm> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitWakeStorm::new(channels, waiters)),
        Mechanism::Baseline => Arc::new(BaselineWakeStorm::new(channels, waiters)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => {
            Arc::new(AutoSynchWakeStorm::new(channels, waiters, mechanism))
        }
    }
}

/// Parameters of a wake-storm run.
#[derive(Debug, Clone, Copy)]
pub struct WakeStormConfig {
    /// Number of hot expressions (independent round-robin channels).
    pub channels: usize,
    /// Waiters per channel (`channels × waiters` threads total).
    pub waiters: usize,
    /// Full rounds each waiter completes on its channel.
    pub rounds: usize,
}

impl Default for WakeStormConfig {
    fn default() -> Self {
        WakeStormConfig {
            channels: 4,
            waiters: 4,
            rounds: 100,
        }
    }
}

/// Runs the saturation test; each channel's turn counter verifies its
/// own order (a waiter can only advance from its own slot), and the
/// per-channel pass counts must balance.
///
/// # Panics
///
/// Panics when any channel's pass count is wrong.
pub fn run(mechanism: Mechanism, config: WakeStormConfig) -> RunReport {
    run_inner(mechanism, config, false)
}

/// Like [`run`] but with per-phase timing enabled — the
/// `reproduce -- wake` setup.
pub fn run_timed(mechanism: Mechanism, config: WakeStormConfig) -> RunReport {
    run_inner(mechanism, config, true)
}

fn run_inner(mechanism: Mechanism, config: WakeStormConfig, timed: bool) -> RunReport {
    let storm = make_storm(mechanism, config.channels, config.waiters);
    if timed {
        storm.enable_timing();
    }
    let threads = config.channels * config.waiters;

    let (elapsed, ctx) = timed_run(threads, |t| {
        let chan = t / config.waiters;
        let id = t % config.waiters;
        for _ in 0..config.rounds {
            storm.pass(chan, id);
        }
    });

    let expected = (config.waiters * config.rounds) as u64;
    for chan in 0..config.channels {
        assert_eq!(
            storm.passes(chan),
            expected,
            "{mechanism}: channel {chan} pass count mismatch"
        );
    }

    RunReport {
        mechanism,
        threads,
        elapsed,
        stats: storm.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            WakeStormConfig {
                channels: 3,
                waiters: 3,
                rounds: 60,
            },
        )
    }

    #[test]
    fn all_mechanisms_complete_the_storm() {
        for mechanism in Mechanism::ALL {
            let report = small(mechanism);
            assert_eq!(report.threads, 9, "{mechanism}");
            if mechanism != Mechanism::Baseline {
                assert_eq!(
                    report.stats.counters.broadcasts, 0,
                    "{mechanism} must never signalAll"
                );
            }
        }
    }

    #[test]
    fn routed_storm_uses_eq_directed_wakes() {
        let report = small(Mechanism::AutoSynchRoute);
        let c = report.stats.counters;
        assert!(
            c.eq_routed_wakes > 0,
            "chan_k == id predicates must ride the eq route ({c:?})"
        );
        assert_eq!(c.signals, 0, "routed signalers only unpark");
        assert_eq!(c.broadcasts, 0);
    }

    #[test]
    fn single_waiter_channels_degenerate_cleanly() {
        // waiters == 1: every pass is the waiter's own turn; no parking
        // at all is required.
        run(
            Mechanism::AutoSynchRoute,
            WakeStormConfig {
                channels: 2,
                waiters: 1,
                rounds: 50,
            },
        );
    }
}
