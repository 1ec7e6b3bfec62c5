//! `pbb` — the paper's Figs. 14/15 parameterized bounded buffer: one
//! producer and 64 consumers on one CPU, batch sizes uniform in 1..=128
//! drawn from the seed, capacity 256. Every caller waits on its own
//! globalized threshold (`count >= n`, `free >= n`), so the explicit
//! version cannot know whom to signal and must `signalAll` on both
//! condition variables; the automatic monitors pick one waiter whose
//! condition holds. Several waiters can be true at once and wakeups can
//! be futile: the one workload where the relay's *choice* matters.
//!
//! Deadlock freedom (capacity ≥ 2 × the largest batch): a blocked put
//! of `n` means `count > 256 − n ≥ 128`, which satisfies every take; a
//! blocked take of `n` means `count < n ≤ 128`, which leaves room for
//! every put.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use autosynch::{
    Cond, CondId, ExplicitMonitor, Monitor, MonitorConfig, Tracked, TrackedCell, TrackedState,
};
use autosynch_metrics::counters::CounterSnapshot;

use super::{timed, warmup_ops, CellKind, PerPhase, Rng};
use crate::harness::{drive, Built, Instance, Op, Phase, ThreadCtx};
use crate::trace::{Marks, Stamp, Tracer};

pub const CONSUMERS: usize = 64;
pub const MAX_BATCH: usize = 128;
pub const CAPACITY: usize = 2 * MAX_BATCH;
/// The producer is the last thread.
const PRODUCER: usize = CONSUMERS;

/// One phase's batches. A phase is balanced: the puts add up to the
/// takes, so it ends with the buffer empty.
#[derive(Debug, Default)]
struct Batches {
    /// `takes[c]` are consumer `c`'s sizes, in order.
    takes: Vec<Vec<u8>>,
    puts: Vec<u8>,
    items: u64,
}

impl Batches {
    /// `ops` puts and takes together, split evenly: the expected batch
    /// is the same on both sides, so there are about as many of each.
    fn new(ops: u64, rng: &mut Rng) -> Batches {
        let per_consumer = (ops / 2 / CONSUMERS as u64).max(1);
        let mut batch = || rng.below(MAX_BATCH as u64) as u8 + 1;
        let takes: Vec<Vec<u8>> = (0..CONSUMERS)
            .map(|_| (0..per_consumer).map(|_| batch()).collect())
            .collect();
        let items: u64 = takes.iter().flatten().map(|&n| n as u64).sum();
        let mut puts = Vec::new();
        let mut left = items;
        while left > 0 {
            let n = (batch() as u64).min(left);
            puts.push(n as u8);
            left -= n;
        }
        Batches { takes, puts, items }
    }

    fn ops(&self) -> u64 {
        (self.takes.iter().map(Vec::len).sum::<usize>() + self.puts.len()) as u64
    }
}

#[derive(Debug)]
struct Plan {
    batches: PerPhase<Batches>,
    /// First item number of each phase: items are numbered 1, 2, 3, …
    /// across the phases in production order.
    first_item: PerPhase<u64>,
}

impl Plan {
    fn new(ops: u64, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let warm = Batches::new(warmup_ops(ops), &mut rng);
        let timed = Batches::new(ops, &mut rng);
        let first_item = PerPhase([1, 1 + warm.items]);
        Plan {
            batches: PerPhase([warm, timed]),
            first_item,
        }
    }

    fn items(&self) -> u64 {
        self.batches.0.iter().map(|b| b.items).sum()
    }
}

/// What the consumers took, summed over all of them.
#[derive(Debug, Default)]
struct Taken {
    items: AtomicU64,
    checksum: AtomicU64,
}

/// Failed ops the totals show. The per-take check (a take returns `n`
/// consecutive item numbers) is made where the take returns; this is
/// the check that nothing was lost, duplicated or invented overall.
pub fn check(items_put: u64, items_taken: u64, checksum: u64) -> u64 {
    let expected = items_put * (items_put + 1) / 2;
    items_put.abs_diff(items_taken) + (checksum != expected) as u64
}

/// `n` consecutive numbers starting at `first` sum to `sum`.
fn consecutive(first: u64, n: u64, sum: u64) -> bool {
    sum == n * first + n * (n - 1) / 2
}

#[derive(Debug)]
struct State<Queue> {
    queue: Queue,
    stamp: Stamp,
}

impl TrackedState for State<Tracked<VecDeque<u64>>> {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.queue);
    }
}

fn put_items(queue: &mut VecDeque<u64>, first: u64, n: usize) {
    queue.extend(first..first + n as u64);
}

/// Takes `n` items; returns the first one and the sum of all.
fn take_items(queue: &mut VecDeque<u64>, n: usize) -> (u64, u64) {
    let first = queue.front().copied().unwrap_or(0);
    (first, queue.drain(..n).sum())
}

trait Backend: Send + Sync {
    fn put<T: Tracer>(&self, first: u64, n: usize, seq: u64, tr: &mut T);
    /// Returns `(first item, sum of the items)`.
    fn take<T: Tracer>(&self, n: usize, seq: u64, tr: &mut T) -> (u64, u64);
    fn counters(&self) -> Option<CounterSnapshot>;
}

struct Pbb<B> {
    plan: Plan,
    taken: Taken,
    backend: B,
}

/// One thread's ops in one phase. The producer keeps its place in the
/// item numbering between ops, so it is driven by a cursor of its own.
struct PhaseOps<'a, B> {
    pbb: &'a Pbb<B>,
    batches: &'a Batches,
    next_item: std::cell::Cell<u64>,
}

impl<B: Backend> Op for PhaseOps<'_, B> {
    fn op<T: Tracer>(&self, tid: usize, seq: u64, tr: &mut T) -> bool {
        if tid == PRODUCER {
            let n = self.batches.puts[seq as usize] as usize;
            let first = self.next_item.replace(self.next_item.get() + n as u64);
            self.pbb.backend.put(first, n, seq, tr);
            return true;
        }
        let n = self.batches.takes[tid][seq as usize] as u64;
        let (first, sum) = self.pbb.backend.take(n as usize, seq, tr);
        self.pbb.taken.items.fetch_add(n, Ordering::Relaxed);
        self.pbb.taken.checksum.fetch_add(sum, Ordering::Relaxed);
        consecutive(first, n, sum)
    }
}

impl<B: Backend> Instance for Pbb<B> {
    fn threads(&self) -> usize {
        CONSUMERS + 1
    }

    fn no_wakeup_preemption(&self) -> bool {
        true
    }

    fn ops(&self, phase: Phase) -> u64 {
        self.plan.batches.get(phase).ops()
    }

    fn run(&self, phase: Phase, ctx: &mut ThreadCtx<'_>) {
        let batches = self.plan.batches.get(phase);
        let ops = PhaseOps {
            pbb: self,
            batches,
            next_item: std::cell::Cell::new(*self.plan.first_item.get(phase)),
        };
        let count = if ctx.tid == PRODUCER {
            batches.puts.len()
        } else {
            batches.takes[ctx.tid].len()
        };
        drive(&ops, ctx, 0..count as u64);
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        self.backend.counters()
    }

    fn finish(&self, _: Duration) -> u64 {
        check(
            self.plan.items(),
            self.taken.items.load(Ordering::Relaxed),
            self.taken.checksum.load(Ordering::Relaxed),
        )
    }
}

type AutoState = State<Tracked<VecDeque<u64>>>;

struct Auto {
    monitor: Monitor<AutoState>,
    /// `free >= n` at index `n - 1`.
    room_for: Vec<Cond<AutoState>>,
    /// `count >= n` at index `n - 1`.
    at_least: Vec<Cond<AutoState>>,
}

impl Backend for Auto {
    fn put<T: Tracer>(&self, first: u64, n: usize, seq: u64, tr: &mut T) {
        let called = tr.now();
        let marks = self.monitor.enter_tracked(|g| {
            let entered = tr.now();
            let blocked = T::ON && g.state().queue.len() + n > CAPACITY;
            g.wait(&self.room_for[n - 1]); // waituntil(free >= n)
            let waited = tr.now();
            let s = g.state_mut();
            let cause = s.stamp;
            put_items(&mut s.queue, first, n);
            let body_end = tr.now();
            if let Some(stamp) = tr.stamp(seq, body_end) {
                s.stamp = stamp;
            }
            Marks {
                entered,
                waited,
                body_end,
                blocked,
                cause,
            }
        });
        tr.finish("put", seq, called, marks);
    }

    fn take<T: Tracer>(&self, n: usize, seq: u64, tr: &mut T) -> (u64, u64) {
        let called = tr.now();
        let (marks, out) = self.monitor.enter_tracked(|g| {
            let entered = tr.now();
            let blocked = T::ON && g.state().queue.len() < n;
            g.wait(&self.at_least[n - 1]); // waituntil(count >= n)
            let waited = tr.now();
            let s = g.state_mut();
            let cause = s.stamp;
            let out = take_items(&mut s.queue, n);
            let body_end = tr.now();
            if let Some(stamp) = tr.stamp(seq, body_end) {
                s.stamp = stamp;
            }
            let marks = Marks {
                entered,
                waited,
                body_end,
                blocked,
                cause,
            };
            (marks, out)
        });
        tr.finish("take", seq, called, marks);
        out
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }
}

/// Fig. 1, left column: two condition variables, `signalAll` on both.
struct Explicit {
    monitor: ExplicitMonitor<State<VecDeque<u64>>>,
    insufficient_space: CondId,
    insufficient_items: CondId,
}

impl Backend for Explicit {
    fn put<T: Tracer>(&self, first: u64, n: usize, seq: u64, tr: &mut T) {
        let called = tr.now();
        let marks = self.monitor.enter(|g| {
            let entered = tr.now();
            let blocked = T::ON && g.state().queue.len() + n > CAPACITY;
            g.wait_while(self.insufficient_space, |s| s.queue.len() + n > CAPACITY);
            let waited = tr.now();
            let s = g.state_mut();
            let cause = s.stamp;
            put_items(&mut s.queue, first, n);
            let body_end = tr.now();
            if let Some(stamp) = tr.stamp(seq, body_end) {
                s.stamp = stamp;
            }
            // The programmer cannot know which taker can now proceed.
            g.signal_all(self.insufficient_items);
            Marks {
                entered,
                waited,
                body_end,
                blocked,
                cause,
            }
        });
        tr.finish("put", seq, called, marks);
    }

    fn take<T: Tracer>(&self, n: usize, seq: u64, tr: &mut T) -> (u64, u64) {
        let called = tr.now();
        let (marks, out) = self.monitor.enter(|g| {
            let entered = tr.now();
            let blocked = T::ON && g.state().queue.len() < n;
            g.wait_while(self.insufficient_items, |s| s.queue.len() < n);
            let waited = tr.now();
            let s = g.state_mut();
            let cause = s.stamp;
            let out = take_items(&mut s.queue, n);
            let body_end = tr.now();
            if let Some(stamp) = tr.stamp(seq, body_end) {
                s.stamp = stamp;
            }
            g.signal_all(self.insufficient_space);
            let marks = Marks {
                entered,
                waited,
                body_end,
                blocked,
                cause,
            };
            (marks, out)
        });
        tr.finish("take", seq, called, marks);
        out
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }
}

struct Bare {
    state: Mutex<State<VecDeque<u64>>>,
    insufficient_space: Condvar,
    insufficient_items: Condvar,
}

impl Backend for Bare {
    fn put<T: Tracer>(&self, first: u64, n: usize, seq: u64, tr: &mut T) {
        let called = tr.now();
        let mut s = self.state.lock().expect("no op panics under the lock");
        let entered = tr.now();
        let blocked = T::ON && s.queue.len() + n > CAPACITY;
        while s.queue.len() + n > CAPACITY {
            s = self
                .insufficient_space
                .wait(s)
                .expect("no op panics under the lock");
        }
        let waited = tr.now();
        let cause = s.stamp;
        put_items(&mut s.queue, first, n);
        let body_end = tr.now();
        if let Some(stamp) = tr.stamp(seq, body_end) {
            s.stamp = stamp;
        }
        self.insufficient_items.notify_all();
        drop(s);
        let marks = Marks {
            entered,
            waited,
            body_end,
            blocked,
            cause,
        };
        tr.finish("put", seq, called, marks);
    }

    fn take<T: Tracer>(&self, n: usize, seq: u64, tr: &mut T) -> (u64, u64) {
        let called = tr.now();
        let mut s = self.state.lock().expect("no op panics under the lock");
        let entered = tr.now();
        let blocked = T::ON && s.queue.len() < n;
        while s.queue.len() < n {
            s = self
                .insufficient_items
                .wait(s)
                .expect("no op panics under the lock");
        }
        let waited = tr.now();
        let cause = s.stamp;
        let out = take_items(&mut s.queue, n);
        let body_end = tr.now();
        if let Some(stamp) = tr.stamp(seq, body_end) {
            s.stamp = stamp;
        }
        self.insufficient_space.notify_all();
        drop(s);
        let marks = Marks {
            entered,
            waited,
            body_end,
            blocked,
            cause,
        };
        tr.finish("take", seq, called, marks);
        out
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        None
    }
}

pub fn build(kind: CellKind, config: Option<MonitorConfig>, ops: u64, seed: u64) -> Built {
    let plan = Plan::new(ops, seed);
    let taken = Taken::default();
    let queue = VecDeque::with_capacity(CAPACITY);
    if let Some(config) = config {
        let ((monitor, count, free), construct_ns) = timed(|| {
            let state = State {
                queue: Tracked::new(queue),
                stamp: Stamp::default(),
            };
            let monitor = Monitor::with_config(state, config);
            let count = monitor.register_expr("count", |s: &AutoState| s.queue.len() as i64);
            let free =
                monitor.register_expr("free", |s: &AutoState| (CAPACITY - s.queue.len()) as i64);
            monitor.bind(|s| &mut s.queue, &[count, free]);
            (monitor, count, free)
        });
        // Compile once per distinct globalized value, at set-up.
        let ((room_for, at_least), compile_ns) = timed(|| {
            let sizes = 1..=MAX_BATCH as i64;
            let room_for = sizes.clone().map(|n| monitor.compile(free.ge(n))).collect();
            let at_least = sizes.map(|n| monitor.compile(count.ge(n))).collect();
            (room_for, at_least)
        });
        return Built {
            instance: Arc::new(Pbb {
                plan,
                taken,
                backend: Auto {
                    monitor,
                    room_for,
                    at_least,
                },
            }),
            construct_ns,
            compile_ns,
            conds: 2 * MAX_BATCH as u64,
        };
    }
    let state = State {
        queue,
        stamp: Stamp::default(),
    };
    let (instance, construct_ns): (Arc<dyn Instance>, u64) = match kind {
        CellKind::Bare => timed(|| {
            Arc::new(Pbb {
                plan,
                taken,
                backend: Bare {
                    state: Mutex::new(state),
                    insufficient_space: Condvar::new(),
                    insufficient_items: Condvar::new(),
                },
            }) as Arc<dyn Instance>
        }),
        _ => timed(|| {
            let mut monitor = ExplicitMonitor::new(state);
            let insufficient_space = monitor.add_condition();
            let insufficient_items = monitor.add_condition();
            Arc::new(Pbb {
                plan,
                taken,
                backend: Explicit {
                    monitor,
                    insufficient_space,
                    insufficient_items,
                },
            }) as Arc<dyn Instance>
        }),
    };
    Built {
        instance,
        construct_ns,
        compile_ns: 0,
        conds: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_is_balanced_and_sized_from_the_seed() {
        let a = Plan::new(4000, 7);
        let b = Plan::new(4000, 7);
        let c = Plan::new(4000, 8);
        for batches in &a.batches.0 {
            let put: u64 = batches.puts.iter().map(|&n| n as u64).sum();
            assert_eq!(put, batches.items);
            assert!(batches
                .puts
                .iter()
                .all(|&n| (1..=MAX_BATCH as u8).contains(&n)));
        }
        assert_eq!(a.batches.0[1].takes, b.batches.0[1].takes);
        assert_ne!(a.batches.0[1].takes, c.batches.0[1].takes);
        assert_eq!(*a.first_item.get(Phase::Timed), 1 + a.batches.0[0].items);
    }

    #[test]
    fn consecutive_runs_are_recognised() {
        assert!(consecutive(5, 3, 5 + 6 + 7));
        assert!(!consecutive(5, 3, 5 + 6 + 8));
    }
}
