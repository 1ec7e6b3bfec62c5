//! The restricted automatic-signal monitor of Kessels (CACM 1977) —
//! reference \[16\] of the paper, the design §4.1 positions AutoSynch
//! against.
//!
//! Kessels keeps automatic signaling cheap by **restricting waiting
//! conditions to a fixed set of pre-declared shared predicates**: the
//! monitor author writes every condition down at construction time, and
//! the runtime's exit-time search is a scan of that fixed set — O(#
//! declared conditions), independent of how many threads wait. The
//! price is expressiveness: a condition may mention only shared state,
//! never a thread-local value. The parameterized bounded buffer
//! (`count >= num` for a caller-supplied `num`) is *inexpressible*
//! here short of declaring one condition per possible value — exactly
//! the restriction the paper's globalization (§4.1) removes. This
//! implementation exists as the literature baseline for that argument
//! and for the `restricted_vs_full` ablation bench.
//!
//! Signaling follows the same relay discipline as the main monitor
//! (one targeted wake per relay point, never a broadcast), so the
//! comparison isolates the *predicate model*, not the signal policy.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use autosynch::kessels::KesselsMonitor;
//!
//! let mut monitor = KesselsMonitor::new(0i64);
//! let nonzero = monitor.declare("nonzero", |v: &i64| *v != 0);
//! let monitor = Arc::new(monitor);
//!
//! let m2 = Arc::clone(&monitor);
//! let t = std::thread::spawn(move || m2.enter(|g| {
//!     g.wait(nonzero);
//!     *g.state()
//! }));
//! monitor.enter(|g| *g.state_mut() = 7);
//! assert_eq!(t.join().unwrap(), 7);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use autosynch_metrics::phase::Phase;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::stats::{MonitorStats, StatsSnapshot};

/// Handle to a condition declared with [`KesselsMonitor::declare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KesselsCond(usize);

struct CondSlot<S> {
    name: String,
    pred: Box<dyn Fn(&S) -> bool + Send + Sync>,
    condvar: Arc<Condvar>,
    waiting: u32,
    signaled: u32,
}

struct Inner<S> {
    state: S,
    conds: Vec<CondSlot<S>>,
}

mod thread_id {
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }

    pub fn current() -> u64 {
        ID.with(|id| *id)
    }
}

/// The Kessels-style restricted automatic-signal monitor: waiting is
/// possible only on conditions declared up front, and every condition
/// is a pure function of the shared state.
pub struct KesselsMonitor<S> {
    inner: Mutex<Inner<S>>,
    stats: Arc<MonitorStats>,
    owner: AtomicU64,
}

impl<S> std::fmt::Debug for KesselsMonitor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KesselsMonitor")
            .field("conditions", &self.inner.lock().conds.len())
            .finish()
    }
}

impl<S> KesselsMonitor<S> {
    /// Creates a monitor with no conditions declared yet.
    pub fn new(state: S) -> Self {
        KesselsMonitor {
            inner: Mutex::new(Inner {
                state,
                conds: Vec::new(),
            }),
            stats: MonitorStats::new(false),
            owner: AtomicU64::new(0),
        }
    }

    /// Declares a waiting condition. All conditions must be declared
    /// before the monitor is shared (this takes `&mut self`), mirroring
    /// Kessels' static condition set.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        pred: impl Fn(&S) -> bool + Send + Sync + 'static,
    ) -> KesselsCond {
        let conds = &mut self.inner.get_mut().conds;
        conds.push(CondSlot {
            name: name.into(),
            pred: Box::new(pred),
            condvar: Arc::new(Condvar::new()),
            waiting: 0,
            signaled: 0,
        });
        KesselsCond(conds.len() - 1)
    }

    /// The number of declared conditions.
    pub fn condition_count(&self) -> usize {
        self.inner.lock().conds.len()
    }

    /// The name a condition was declared under (diagnostics).
    ///
    /// # Panics
    ///
    /// Panics when `cond` was not declared on this monitor.
    pub fn condition_name(&self, cond: KesselsCond) -> String {
        self.inner.lock().conds[cond.0].name.clone()
    }

    /// Enables per-phase timing.
    pub fn enable_timing(&self) {
        self.stats.phases.set_enabled(true);
    }

    /// Enters the monitor and runs `f` under mutual exclusion; on exit
    /// the relay rule scans the declared conditions and wakes at most
    /// one eligible waiter.
    ///
    /// # Panics
    ///
    /// Panics when called re-entrantly from the same thread.
    pub fn enter<R>(&self, f: impl FnOnce(&mut KesselsGuard<'_, S>) -> R) -> R {
        let me = thread_id::current();
        assert_ne!(
            self.owner.load(Ordering::Relaxed),
            me,
            "KesselsMonitor::enter called re-entrantly from the same thread"
        );
        self.stats.counters.record_enter();
        let lock_timer = self.stats.phases.start(Phase::Lock);
        let guard = self.inner.lock();
        lock_timer.finish();
        self.owner.store(me, Ordering::Relaxed);
        let mut g = KesselsGuard {
            monitor: self,
            inner: Some(guard),
        };
        let r = f(&mut g);
        drop(g);
        r
    }

    /// Convenience: enter and mutate the state.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        self.enter(|g| f(g.state_mut()))
    }

    /// The instrumentation bundle.
    pub fn stats(&self) -> &Arc<MonitorStats> {
        &self.stats
    }

    /// A point-in-time snapshot of the instrumentation.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The relay rule over the fixed condition set: evaluate each
    /// declared condition with unsignaled waiters (at most one
    /// evaluation per condition — the set is static, which is the whole
    /// Kessels trade) and signal one waiter of the first true one.
    fn relay(&self, inner: &mut Inner<S>) {
        self.stats.counters.record_relay_call();
        let timer = self.stats.phases.start(Phase::RelaySignal);
        let Inner { state, conds } = inner;
        for slot in conds.iter_mut() {
            if slot.waiting == 0 {
                continue;
            }
            self.stats.counters.record_pred_eval();
            if (slot.pred)(state) {
                slot.waiting -= 1;
                slot.signaled += 1;
                self.stats.counters.record_signal();
                slot.condvar.notify_one();
                break;
            }
        }
        timer.finish();
    }
}

/// The in-monitor view for [`KesselsMonitor::enter`] closures.
pub struct KesselsGuard<'a, S> {
    monitor: &'a KesselsMonitor<S>,
    inner: Option<MutexGuard<'a, Inner<S>>>,
}

impl<S> std::fmt::Debug for KesselsGuard<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KesselsGuard")
            .field("held", &self.inner.is_some())
            .finish()
    }
}

impl<S> KesselsGuard<'_, S> {
    fn inner_mut(&mut self) -> &mut Inner<S> {
        self.inner.as_mut().expect("guard released")
    }

    /// Shared access to the monitor state.
    pub fn state(&self) -> &S {
        &self.inner.as_ref().expect("guard released").state
    }

    /// Mutable access to the monitor state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.inner_mut().state
    }

    /// Evaluates a declared condition right now (never blocks).
    ///
    /// # Panics
    ///
    /// Panics when `cond` was not declared on this monitor.
    pub fn holds(&self, cond: KesselsCond) -> bool {
        let inner = self.inner.as_ref().expect("guard released");
        let slot = &inner.conds[cond.0];
        self.monitor.stats.counters.record_pred_eval();
        (slot.pred)(&inner.state)
    }

    /// Blocks until the declared condition holds, releasing the monitor
    /// while blocked — Kessels' `wait B`. Runs the relay rule before
    /// blocking (the going-to-wait relay point).
    ///
    /// # Panics
    ///
    /// Panics when `cond` was not declared on this monitor.
    pub fn wait(&mut self, cond: KesselsCond) {
        let monitor = self.monitor;
        if self.holds(cond) {
            return;
        }
        monitor.stats.counters.record_wait();
        loop {
            let cv = {
                let inner = self.inner_mut();
                monitor.relay(inner);
                let slot = &mut inner.conds[cond.0];
                slot.waiting += 1;
                Arc::clone(&slot.condvar)
            };
            // A condvar may return without a notify. Such a spurious
            // wakeup finds no signal to consume: the thread is still
            // counted in `waiting`, so it blocks again without relaying.
            loop {
                monitor.owner.store(0, Ordering::Relaxed);
                let timer = monitor.stats.phases.start(Phase::Await);
                cv.wait(self.inner.as_mut().expect("guard released"));
                timer.finish();
                monitor.owner.store(thread_id::current(), Ordering::Relaxed);
                monitor.stats.counters.record_wakeup();
                let slot = &mut self.inner_mut().conds[cond.0];
                if slot.signaled > 0 {
                    slot.signaled -= 1;
                    break;
                }
            }

            let Inner { state, conds } = self.inner_mut();
            let slot = &mut conds[cond.0];
            monitor.stats.counters.record_pred_eval();
            if (slot.pred)(state) {
                return;
            }
            // Barged: someone falsified the condition between the
            // signal and our wakeup.
            monitor.stats.counters.record_futile_wakeup();
        }
    }
}

impl<S> Drop for KesselsGuard<'_, S> {
    fn drop(&mut self) {
        if let Some(mut inner) = self.inner.take() {
            self.monitor.relay(&mut inner);
            self.monitor.owner.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    struct Buf {
        count: i64,
        cap: i64,
    }

    fn buffer_monitor() -> (KesselsMonitor<Buf>, KesselsCond, KesselsCond) {
        let mut m = KesselsMonitor::new(Buf { count: 0, cap: 4 });
        let not_full = m.declare("not_full", |b: &Buf| b.count < b.cap);
        let not_empty = m.declare("not_empty", |b: &Buf| b.count > 0);
        (m, not_full, not_empty)
    }

    #[test]
    fn declared_conditions_are_counted_and_named() {
        let (m, not_full, not_empty) = buffer_monitor();
        assert_eq!(m.condition_count(), 2);
        assert_ne!(not_full, not_empty);
        assert_eq!(m.condition_name(not_full), "not_full");
        assert_eq!(m.condition_name(not_empty), "not_empty");
    }

    #[test]
    fn immediate_truth_skips_waiting() {
        let (m, not_full, _) = buffer_monitor();
        m.enter(|g| g.wait(not_full));
        assert_eq!(m.stats_snapshot().counters.waits, 0);
    }

    #[test]
    fn bounded_buffer_runs_under_contention() {
        let (m, not_full, not_empty) = buffer_monitor();
        let m = Arc::new(m);
        const OPS: usize = 500;
        thread::scope(|scope| {
            for _ in 0..2 {
                let producer = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..OPS {
                        producer.enter(|g| {
                            g.wait(not_full);
                            g.state_mut().count += 1;
                        });
                    }
                });
                let consumer = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..OPS {
                        consumer.enter(|g| {
                            g.wait(not_empty);
                            g.state_mut().count -= 1;
                        });
                    }
                });
            }
        });
        assert_eq!(m.with(|b| b.count), 0);
        let snap = m.stats_snapshot();
        assert_eq!(snap.counters.broadcasts, 0, "Kessels never broadcasts");
    }

    #[test]
    fn relay_scan_cost_is_bounded_by_condition_count() {
        // One relay evaluates each waited-on condition at most once —
        // the fixed-set economy that made Kessels practical in 1977.
        let (m, not_full, _) = buffer_monitor();
        let m = Arc::new(m);
        let m2 = Arc::clone(&m);
        m.with(|b| b.count = b.cap); // full: producers must wait
        let t = thread::spawn(move || {
            m2.enter(|g| {
                g.wait(not_full);
                g.state_mut().count += 1;
            });
        });
        thread::sleep(Duration::from_millis(20));
        let before = m.stats_snapshot().counters.pred_evals;
        // A read-only occupancy relays once: ≤2 condition evaluations.
        m.enter(|g| {
            let _ = g.state().count;
        });
        let scan_evals = m.stats_snapshot().counters.pred_evals - before;
        assert!(
            scan_evals <= 2,
            "scan cost {scan_evals} exceeds the declared set"
        );
        m.with(|b| b.count = 0);
        t.join().unwrap();
    }

    #[test]
    fn futile_wakeup_rejoins_the_wait() {
        // Two consumers race for one item; the loser must re-wait and
        // be released by the second item.
        let (m, _, not_empty) = buffer_monitor();
        let m = Arc::new(m);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                m.enter(|g| {
                    g.wait(not_empty);
                    g.state_mut().count -= 1;
                });
            }));
        }
        thread::sleep(Duration::from_millis(20));
        m.with(|b| b.count = 1);
        thread::sleep(Duration::from_millis(20));
        m.with(|b| b.count += 1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.with(|b| b.count), 0);
    }

    #[test]
    fn mutate_then_wait_relays_before_blocking() {
        // A thread that satisfies someone else's condition and then
        // waits itself must not strand that thread.
        let mut m = KesselsMonitor::new((0i64, 0i64));
        let first_ready = m.declare("first", |s: &(i64, i64)| s.0 > 0);
        let second_ready = m.declare("second", |s: &(i64, i64)| s.1 > 0);
        let m = Arc::new(m);
        let m2 = Arc::clone(&m);
        let first = thread::spawn(move || {
            m2.enter(|g| {
                g.wait(first_ready);
                g.state_mut().1 = 1;
            });
        });
        thread::sleep(Duration::from_millis(20));
        let m3 = Arc::clone(&m);
        let second = thread::spawn(move || {
            m3.enter(|g| {
                g.state_mut().0 = 1; // satisfies `first`
                g.wait(second_ready); // then blocks on `first`'s move
            });
        });
        first.join().unwrap();
        second.join().unwrap();
    }

    #[test]
    fn spurious_wakeup_waits_again_without_a_signal() {
        let (m, _, not_empty) = buffer_monitor();
        let m = Arc::new(m);
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| {
                g.wait(not_empty);
                g.state_mut().count -= 1;
            });
        });
        // `waiting` is raised under the lock the condvar wait releases,
        // so once it reads 1 the waiter is blocked.
        while m.inner.lock().conds[not_empty.0].waiting == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // A notify with no signal behind it: the waiter wakes, counts
        // the wakeup under the lock and must block again.
        let cv = Arc::clone(&m.inner.lock().conds[not_empty.0].condvar);
        cv.notify_one();
        while m.stats_snapshot().counters.wakeups == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        {
            let inner = m.inner.lock();
            let slot = &inner.conds[not_empty.0];
            assert_eq!((slot.waiting, slot.signaled), (1, 0));
        }
        // A normal exit makes the condition true and signals the waiter.
        m.with(|b| b.count = 1);
        waiter.join().expect("the waiter must not panic");
        let inner = m.inner.lock();
        let slot = &inner.conds[not_empty.0];
        assert_eq!((slot.waiting, slot.signaled), (0, 0));
        assert_eq!(inner.state.count, 0);
        drop(inner);
        assert_eq!(m.stats_snapshot().counters.signals, 1);
    }

    #[test]
    fn holds_is_a_nonblocking_probe() {
        let (m, not_full, not_empty) = buffer_monitor();
        m.enter(|g| {
            assert!(g.holds(not_full));
            assert!(!g.holds(not_empty));
        });
    }

    #[test]
    #[should_panic(expected = "re-entrantly")]
    fn reentrant_enter_panics() {
        let m = KesselsMonitor::new(());
        m.enter(|_| m.enter(|_| {}));
    }
}
