//! Many independent work queues behind one monitor — a many-queue
//! `None`-tag workload (an extension beyond the paper's seven problems).
//!
//! `N` bounded queues share a single monitor; each queue has one
//! producer and one consumer, and an operation on queue `i` touches no
//! state of queue `j`. The waiting conditions are *disequalities*
//! (`items_i != 0`, `space_i != 0`), which tag as `None` — the class
//! with no index to prune the relay search. Every relay that is not
//! skipped probes the `None` candidates of the queues it cannot rule
//! out, so the workload measures what the change-driven filter (probe
//! only candidates whose dependencies changed) and the routed mode's
//! per-gate wakes save over a plain scan as `N` grows.
//!
//! The explicit-signal version knows each queue's two condition
//! variables and is the latency yardstick; the baseline broadcasts its
//! single condvar on every change, waking all `2N` threads.

use std::collections::VecDeque;
use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// State shared by every implementation: `N` bounded queues. Each queue
/// is its own [`Tracked`] cell bound to its `items_i`/`space_i`
/// expressions, so an operation on queue `i` automatically names
/// exactly those two — the diff v1 callers once spelled out by hand.
#[derive(Debug)]
pub struct QueuesState {
    queues: Vec<Tracked<VecDeque<u64>>>,
    capacity: usize,
}

impl QueuesState {
    fn new(queues: usize, capacity: usize) -> Self {
        QueuesState {
            queues: (0..queues)
                .map(|_| Tracked::new(VecDeque::with_capacity(capacity)))
                .collect(),
            capacity,
        }
    }
}

impl TrackedState for QueuesState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        for queue in &mut self.queues {
            f(queue);
        }
    }
}

/// A bank of blocking bounded queues behind one monitor.
pub trait ShardedQueues: Send + Sync {
    /// Blocks until queue `queue` has space, then enqueues `item`.
    fn put(&self, queue: usize, item: u64);
    /// Blocks until queue `queue` has an item, then dequeues one.
    fn take(&self, queue: usize) -> u64;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
    /// Turns on per-phase timing (for the hold-time experiments).
    fn enable_timing(&self) {}
}

/// Explicit-signal implementation: two condition variables per queue,
/// one targeted `signal` per operation.
#[derive(Debug)]
pub struct ExplicitShardedQueues {
    monitor: ExplicitMonitor<QueuesState>,
    not_full: Vec<CondId>,
    not_empty: Vec<CondId>,
}

impl ExplicitShardedQueues {
    /// Creates `queues` bounded queues of the given capacity.
    pub fn new(queues: usize, capacity: usize) -> Self {
        let mut monitor = ExplicitMonitor::new(QueuesState::new(queues, capacity));
        let not_full = (0..queues).map(|_| monitor.add_condition()).collect();
        let not_empty = (0..queues).map(|_| monitor.add_condition()).collect();
        ExplicitShardedQueues {
            monitor,
            not_full,
            not_empty,
        }
    }
}

impl ShardedQueues for ExplicitShardedQueues {
    fn put(&self, queue: usize, item: u64) {
        self.monitor.enter(|g| {
            g.wait_while(self.not_full[queue], |s| {
                s.queues[queue].len() == s.capacity
            });
            g.state_mut().queues[queue].push_back(item);
            g.signal(self.not_empty[queue]);
        });
    }

    fn take(&self, queue: usize) -> u64 {
        self.monitor.enter(|g| {
            g.wait_while(self.not_empty[queue], |s| s.queues[queue].is_empty());
            let item = g.state_mut().queues[queue].pop_front().expect("non-empty");
            g.signal(self.not_full[queue]);
            item
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline implementation: one condvar, broadcast on every change —
/// every operation on any queue wakes every waiter of all queues.
#[derive(Debug)]
pub struct BaselineShardedQueues {
    monitor: BaselineMonitor<QueuesState>,
}

impl BaselineShardedQueues {
    /// Creates `queues` bounded queues of the given capacity.
    pub fn new(queues: usize, capacity: usize) -> Self {
        BaselineShardedQueues {
            monitor: BaselineMonitor::new(QueuesState::new(queues, capacity)),
        }
    }
}

impl ShardedQueues for BaselineShardedQueues {
    fn put(&self, queue: usize, item: u64) {
        self.monitor.enter(|g| {
            g.wait_until(|s| s.queues[queue].len() < s.capacity);
            g.state_mut().queues[queue].push_back(item);
        });
    }

    fn take(&self, queue: usize) -> u64 {
        self.monitor.enter(|g| {
            g.wait_until(|s| !s.queues[queue].is_empty());
            g.state_mut().queues[queue].pop_front().expect("non-empty")
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch-family implementation: two shared expressions per queue
/// (`items_i`, `space_i`) and disequality `waituntil` predicates, so
/// every waiting condition carries a `None` tag with a singleton
/// dependency set — the class no tag index can prune.
#[derive(Debug)]
pub struct AutoSynchShardedQueues {
    monitor: Monitor<QueuesState>,
    not_empty: Vec<Cond<QueuesState>>,
    not_full: Vec<Cond<QueuesState>>,
}

impl AutoSynchShardedQueues {
    /// Creates `queues` bounded queues of the given capacity under the
    /// mechanism's monitor configuration. Every waiting condition is
    /// compiled once here; every queue cell is bound to its two
    /// expressions, so writes are named automatically.
    pub fn new(queues: usize, capacity: usize, mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchShardedQueues requires an automatic mechanism");
        let monitor = Monitor::with_config(QueuesState::new(queues, capacity), config);
        let mut not_empty = Vec::with_capacity(queues);
        let mut not_full = Vec::with_capacity(queues);
        for i in 0..queues {
            let items =
                monitor.register_expr(format!("items_{i}"), move |s| s.queues[i].len() as i64);
            let space = monitor.register_expr(format!("space_{i}"), move |s| {
                (s.capacity - s.queues[i].len()) as i64
            });
            monitor.bind(|s| &mut s.queues[i], &[items, space]);
            not_empty.push(monitor.compile(items.ne(0)));
            not_full.push(monitor.compile(space.ne(0)));
        }
        AutoSynchShardedQueues {
            monitor,
            not_empty,
            not_full,
        }
    }
}

impl ShardedQueues for AutoSynchShardedQueues {
    fn put(&self, queue: usize, item: u64) {
        // Tracked mutation: an operation on queue `i` dirties only that
        // queue's cell, so the snapshot diff evaluates just `items_i`
        // and `space_i` — the signaler's critical section no longer
        // scales with the number of queues, and no caller has to spell
        // the touched set out.
        self.monitor.enter_tracked(|g| {
            g.wait(&self.not_full[queue]);
            g.state_mut().queues[queue].push_back(item);
        });
    }

    fn take(&self, queue: usize) -> u64 {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.not_empty[queue]);
            g.state_mut().queues[queue].pop_front().expect("non-empty")
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    fn enable_timing(&self) {
        self.monitor.stats().phases.set_enabled(true);
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_queues(mechanism: Mechanism, queues: usize, capacity: usize) -> Arc<dyn ShardedQueues> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitShardedQueues::new(queues, capacity)),
        Mechanism::Baseline => Arc::new(BaselineShardedQueues::new(queues, capacity)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => {
            Arc::new(AutoSynchShardedQueues::new(queues, capacity, mechanism))
        }
    }
}

/// Parameters of a many-queue saturation run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedQueuesConfig {
    /// Number of independent queues (one producer + one consumer each,
    /// so `2 * queues` threads).
    pub queues: usize,
    /// Items pushed through each queue.
    pub ops_per_queue: usize,
    /// Per-queue capacity.
    pub capacity: usize,
}

impl Default for ShardedQueuesConfig {
    fn default() -> Self {
        ShardedQueuesConfig {
            queues: 8,
            ops_per_queue: 500,
            capacity: 4,
        }
    }
}

/// Runs the saturation test: each queue's producer pushes
/// `ops_per_queue` uniquely-tagged items, each consumer drains exactly
/// that many, and the per-queue checksums must balance — an item that
/// leaks between queues or a lost/duplicated wakeup breaks the sum.
///
/// # Panics
///
/// Panics when any queue's item accounting does not balance.
pub fn run(mechanism: Mechanism, config: ShardedQueuesConfig) -> RunReport {
    run_inner(mechanism, config, false)
}

/// Like [`run`] but with per-phase timing (and the signaler-lock
/// hold-time stat) enabled — the setup of the phase-reading figures.
pub fn run_timed(mechanism: Mechanism, config: ShardedQueuesConfig) -> RunReport {
    run_inner(mechanism, config, true)
}

fn run_inner(mechanism: Mechanism, config: ShardedQueuesConfig, timed: bool) -> RunReport {
    let bank = make_queues(mechanism, config.queues, config.capacity);
    if timed {
        bank.enable_timing();
    }
    let threads = config.queues * 2;
    let sums: Vec<std::sync::atomic::AtomicU64> = (0..config.queues)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();

    let (elapsed, ctx) = timed_run(threads, |t| {
        let queue = t % config.queues;
        if t < config.queues {
            for k in 0..config.ops_per_queue {
                // Tag items with their queue so cross-queue leaks are
                // caught by the per-queue checksum.
                bank.put(queue, (queue * config.ops_per_queue + k) as u64);
            }
        } else {
            let mut sum = 0u64;
            for _ in 0..config.ops_per_queue {
                sum = sum.wrapping_add(bank.take(queue));
            }
            sums[queue].fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
        }
    });

    for (queue, sum) in sums.iter().enumerate() {
        let base = (queue * config.ops_per_queue) as u64;
        let expected: u64 = (0..config.ops_per_queue as u64).map(|k| base + k).sum();
        assert_eq!(
            sum.load(std::sync::atomic::Ordering::Relaxed),
            expected,
            "{mechanism}: queue {queue} checksum mismatch (lost, duplicated \
             or cross-queue items)"
        );
    }

    RunReport {
        mechanism,
        threads,
        elapsed,
        stats: bank.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            ShardedQueuesConfig {
                queues: 4,
                ops_per_queue: 200,
                capacity: 2,
            },
        )
    }

    #[test]
    fn every_mechanism_balances() {
        for mechanism in Mechanism::ALL {
            let report = small(mechanism);
            assert_eq!(report.threads, 8, "{mechanism}");
            match mechanism {
                Mechanism::Baseline => assert_eq!(report.stats.counters.signals, 0),
                Mechanism::Explicit => assert!(report.stats.counters.signals > 0),
                _ => assert_eq!(
                    report.stats.counters.broadcasts, 0,
                    "{mechanism} must never signalAll"
                ),
            }
        }
    }

    #[test]
    fn single_threaded_roundtrip_per_queue() {
        for mechanism in Mechanism::ALL {
            let bank = make_queues(mechanism, 3, 2);
            bank.put(0, 10);
            bank.put(2, 30);
            bank.put(0, 11);
            assert_eq!(bank.take(0), 10, "{mechanism}");
            assert_eq!(bank.take(2), 30, "{mechanism}");
            assert_eq!(bank.take(0), 11, "{mechanism}");
        }
    }
}
