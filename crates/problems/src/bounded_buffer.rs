//! The classic bounded-buffer problem (§6.3.1, Fig. 8).
//!
//! One-item `put`/`take` with shared predicates only: a producer waits
//! until `count < capacity`, a consumer until `count > 0`. Because the
//! waiting conditions are shared (no thread-local inputs), every
//! mechanism has a constant number of distinct predicates and the paper
//! expects explicit, AutoSynch-T and AutoSynch to coincide, with the
//! broadcast baseline far slower.

use std::collections::VecDeque;
use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::kessels::{KesselsCond, KesselsMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// State shared by every implementation.
#[derive(Debug)]
pub struct BufferState {
    queue: Tracked<VecDeque<u64>>,
    capacity: usize,
}

impl BufferState {
    fn new(capacity: usize) -> Self {
        BufferState {
            queue: Tracked::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }
}

impl TrackedState for BufferState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.queue);
    }
}

/// A blocking single-item bounded buffer.
pub trait BoundedBuffer: Send + Sync {
    /// Blocks until there is space, then enqueues `item`.
    fn put(&self, item: u64);
    /// Blocks until there is an item, then dequeues one.
    fn take(&self) -> u64;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal implementation: two condition variables, single
/// `signal` per operation (Fig. 1's classic one-item variant).
#[derive(Debug)]
pub struct ExplicitBoundedBuffer {
    monitor: ExplicitMonitor<BufferState>,
    not_full: CondId,
    not_empty: CondId,
}

impl ExplicitBoundedBuffer {
    /// Creates a buffer with the given capacity.
    pub fn new(capacity: usize) -> Self {
        let mut monitor = ExplicitMonitor::new(BufferState::new(capacity));
        let not_full = monitor.add_condition();
        let not_empty = monitor.add_condition();
        ExplicitBoundedBuffer {
            monitor,
            not_full,
            not_empty,
        }
    }
}

impl BoundedBuffer for ExplicitBoundedBuffer {
    fn put(&self, item: u64) {
        self.monitor.enter(|g| {
            g.wait_while(self.not_full, |s| s.queue.len() == s.capacity);
            g.state_mut().queue.push_back(item);
            g.signal(self.not_empty);
        });
    }

    fn take(&self) -> u64 {
        self.monitor.enter(|g| {
            g.wait_while(self.not_empty, |s| s.queue.is_empty());
            let item = g.state_mut().queue.pop_front().expect("non-empty");
            g.signal(self.not_full);
            item
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline implementation: one condvar, broadcast on every change.
#[derive(Debug)]
pub struct BaselineBoundedBuffer {
    monitor: BaselineMonitor<BufferState>,
}

impl BaselineBoundedBuffer {
    /// Creates a buffer with the given capacity.
    pub fn new(capacity: usize) -> Self {
        BaselineBoundedBuffer {
            monitor: BaselineMonitor::new(BufferState::new(capacity)),
        }
    }
}

impl BoundedBuffer for BaselineBoundedBuffer {
    fn put(&self, item: u64) {
        self.monitor.enter(|g| {
            g.wait_until(|s| s.queue.len() < s.capacity);
            g.state_mut().queue.push_back(item);
        });
    }

    fn take(&self) -> u64 {
        self.monitor.enter(|g| {
            g.wait_until(|s| !s.queue.is_empty());
            g.state_mut().queue.pop_front().expect("non-empty")
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch / AutoSynch-T implementation: two `waituntil` conditions,
/// `count > 0` and `count < capacity`, compiled **once** at
/// construction (§5.1's persistent shared predicates are exactly what
/// `Monitor::compile` generalizes). Writes go through the [`Tracked`]
/// queue cell, so every mutation names `count` automatically.
#[derive(Debug)]
pub struct AutoSynchBoundedBuffer {
    monitor: Monitor<BufferState>,
    not_empty: Cond<BufferState>,
    not_full: Cond<BufferState>,
}

impl AutoSynchBoundedBuffer {
    /// Creates a buffer with the given capacity under the mechanism's
    /// monitor configuration.
    pub fn new(capacity: usize, mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchBoundedBuffer requires an automatic mechanism");
        let monitor = Monitor::with_config(BufferState::new(capacity), config);
        let count = monitor.register_expr("count", |s| s.queue.len() as i64);
        monitor.bind(|s| &mut s.queue, &[count]);
        let not_empty = monitor.compile(count.gt(0));
        let not_full = monitor.compile(count.lt(capacity as i64));
        AutoSynchBoundedBuffer {
            monitor,
            not_empty,
            not_full,
        }
    }
}

impl BoundedBuffer for AutoSynchBoundedBuffer {
    fn put(&self, item: u64) {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.not_full);
            g.state_mut().queue.push_back(item);
        });
    }

    fn take(&self) -> u64 {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.not_empty);
            g.state_mut().queue.pop_front().expect("non-empty")
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Kessels-restricted implementation (paper ref \[16\]): the same two
/// shared conditions, but declared up front as the monitor's *fixed*
/// condition set. This problem is entirely inside the restricted
/// model — it is the common ground for the `restricted_vs_full`
/// comparison; the parameterized buffer (Fig. 14) is the problem the
/// restriction cannot express.
#[derive(Debug)]
pub struct KesselsBoundedBuffer {
    monitor: KesselsMonitor<BufferState>,
    not_full: KesselsCond,
    not_empty: KesselsCond,
}

impl KesselsBoundedBuffer {
    /// Creates a buffer with the given capacity.
    pub fn new(capacity: usize) -> Self {
        let mut monitor = KesselsMonitor::new(BufferState::new(capacity));
        let not_full = monitor.declare("not_full", |s: &BufferState| s.queue.len() < s.capacity);
        let not_empty = monitor.declare("not_empty", |s: &BufferState| !s.queue.is_empty());
        KesselsBoundedBuffer {
            monitor,
            not_full,
            not_empty,
        }
    }
}

impl BoundedBuffer for KesselsBoundedBuffer {
    fn put(&self, item: u64) {
        self.monitor.enter(|g| {
            g.wait(self.not_full);
            g.state_mut().queue.push_back(item);
        });
    }

    fn take(&self) -> u64 {
        self.monitor.enter(|g| {
            g.wait(self.not_empty);
            g.state_mut().queue.pop_front().expect("non-empty")
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Runs the Fig. 8 saturation workload on the Kessels-restricted
/// monitor — the fifth mechanism, reported outside [`Mechanism`]
/// because it exists only for problems expressible with a fixed shared
/// condition set.
///
/// # Panics
///
/// Panics on the same accounting violations as [`run`].
pub fn run_kessels(config: BoundedBufferConfig) -> RunReport {
    run_on(
        Arc::new(KesselsBoundedBuffer::new(config.capacity)),
        Mechanism::AutoSynch, // closest label for reporting purposes
        config,
    )
}

/// Instantiates the implementation for `mechanism`.
pub fn make_buffer(mechanism: Mechanism, capacity: usize) -> Arc<dyn BoundedBuffer> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitBoundedBuffer::new(capacity)),
        Mechanism::Baseline => Arc::new(BaselineBoundedBuffer::new(capacity)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchBoundedBuffer::new(capacity, mechanism)),
    }
}

/// Parameters of a Fig. 8 saturation run.
#[derive(Debug, Clone, Copy)]
pub struct BoundedBufferConfig {
    /// Producer thread count (equals consumer count in the figure).
    pub producers: usize,
    /// Consumer thread count.
    pub consumers: usize,
    /// Operations per thread.
    pub ops_per_thread: usize,
    /// Buffer capacity.
    pub capacity: usize,
}

impl Default for BoundedBufferConfig {
    fn default() -> Self {
        BoundedBufferConfig {
            producers: 4,
            consumers: 4,
            ops_per_thread: 1_000,
            capacity: 16,
        }
    }
}

/// Runs the saturation test and verifies that every produced item is
/// consumed exactly once.
///
/// # Panics
///
/// Panics when the item accounting does not balance — that would be a
/// lost or duplicated wakeup.
pub fn run(mechanism: Mechanism, config: BoundedBufferConfig) -> RunReport {
    run_on(make_buffer(mechanism, config.capacity), mechanism, config)
}

fn run_on(
    buffer: Arc<dyn BoundedBuffer>,
    mechanism: Mechanism,
    config: BoundedBufferConfig,
) -> RunReport {
    assert_eq!(
        config.producers, config.consumers,
        "Fig. 8 uses equal producer and consumer counts, so puts == takes"
    );
    let total_threads = config.producers + config.consumers;
    let consumed_sum = std::sync::atomic::AtomicU64::new(0);
    let consumed_count = std::sync::atomic::AtomicU64::new(0);

    let (elapsed, ctx) = timed_run(total_threads, |i| {
        if i < config.producers {
            for k in 0..config.ops_per_thread {
                // Unique item ids let the checksum detect duplication.
                buffer.put((i * config.ops_per_thread + k) as u64);
            }
        } else {
            let mut sum = 0u64;
            for _ in 0..config.ops_per_thread {
                sum = sum.wrapping_add(buffer.take());
            }
            consumed_sum.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
            consumed_count.fetch_add(
                config.ops_per_thread as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
        }
    });

    let total_items = (config.producers * config.ops_per_thread) as u64;
    let expected_sum: u64 = (0..total_items).sum();
    assert_eq!(
        consumed_count.load(std::sync::atomic::Ordering::Relaxed),
        total_items,
        "{mechanism}: consumed count mismatch"
    );
    assert_eq!(
        consumed_sum.load(std::sync::atomic::Ordering::Relaxed),
        expected_sum,
        "{mechanism}: consumed checksum mismatch (lost or duplicated items)"
    );

    RunReport {
        mechanism,
        threads: total_threads,
        elapsed,
        stats: buffer.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            BoundedBufferConfig {
                producers: 3,
                consumers: 3,
                ops_per_thread: 400,
                capacity: 4,
            },
        )
    }

    #[test]
    fn explicit_balances() {
        let report = small(Mechanism::Explicit);
        assert!(report.stats.counters.signals > 0);
        assert_eq!(report.stats.counters.broadcasts, 0);
    }

    #[test]
    fn baseline_balances_with_broadcasts() {
        let report = small(Mechanism::Baseline);
        assert_eq!(report.stats.counters.signals, 0);
    }

    #[test]
    fn autosynch_t_balances() {
        let report = small(Mechanism::AutoSynchT);
        assert_eq!(report.stats.counters.broadcasts, 0);
    }

    #[test]
    fn autosynch_balances_and_never_broadcasts() {
        let report = small(Mechanism::AutoSynch);
        assert_eq!(
            report.stats.counters.broadcasts, 0,
            "AutoSynch must never signalAll"
        );
    }

    #[test]
    fn single_threaded_put_take_roundtrip() {
        for mechanism in Mechanism::ALL {
            let buffer = make_buffer(mechanism, 2);
            buffer.put(10);
            buffer.put(20);
            assert_eq!(buffer.take(), 10, "{mechanism}");
            assert_eq!(buffer.take(), 20, "{mechanism}");
        }
    }

    #[test]
    fn kessels_balances_and_never_broadcasts() {
        let report = run_kessels(BoundedBufferConfig {
            producers: 3,
            consumers: 3,
            ops_per_thread: 400,
            capacity: 4,
        });
        assert_eq!(report.stats.counters.broadcasts, 0);
        assert!(report.stats.counters.signals > 0);
    }

    #[test]
    fn kessels_single_threaded_roundtrip() {
        let buffer = KesselsBoundedBuffer::new(2);
        buffer.put(10);
        buffer.put(20);
        assert_eq!(buffer.take(), 10);
        assert_eq!(buffer.take(), 20);
    }

    #[test]
    fn capacity_one_forces_strict_alternation() {
        for mechanism in Mechanism::ALL {
            let report = run(
                mechanism,
                BoundedBufferConfig {
                    producers: 2,
                    consumers: 2,
                    ops_per_thread: 200,
                    capacity: 1,
                },
            );
            assert_eq!(report.threads, 4, "{mechanism}");
        }
    }
}
