//! The readers/writers problem, ticketed Buhr-style (§6.3.2, Fig. 12).
//!
//! "A ticket is used to maintain the accessing order of readers and
//! writers. Every reader and writer gets a ticket number indicating its
//! arrival order" — FIFO service, no starvation. A reader with ticket
//! `t` waits for `serving == t && !writer_active`; a writer additionally
//! waits for `readers_active == 0`. `serving == t` is a complex
//! equivalence predicate (the ticket is thread-local), so AutoSynch
//! indexes all waiters in one hash table keyed by ticket.
//!
//! The explicit version multiplexes tickets onto a pool of condition
//! variables (`cv[t % pool]`); with a pool at least as large as the
//! thread count, no two concurrent waiters collide, so each `signal` is
//! exactly targeted — this is the "complicated code" §3 alludes to.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// Monitor state for the ticket lock. The three expression-feeding
/// fields are [`Tracked`] cells; ticket issuance and the done-counters
/// feed no waiting condition.
#[derive(Debug, Default)]
pub struct RwState {
    next_ticket: i64,
    serving: Tracked<i64>,
    readers_active: Tracked<i64>,
    writer_active: Tracked<bool>,
    reads_done: u64,
    writes_done: u64,
}

impl TrackedState for RwState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.serving);
        f(&mut self.readers_active);
        f(&mut self.writer_active);
    }
}

/// The reader/writer lock operations.
pub trait ReadersWriters: Send + Sync {
    /// Acquires read access (FIFO by ticket).
    fn start_read(&self);
    /// Releases read access.
    fn end_read(&self);
    /// Acquires exclusive write access (FIFO by ticket).
    fn start_write(&self);
    /// Releases write access.
    fn end_write(&self);
    /// `(reads_done, writes_done)`.
    fn totals(&self) -> (u64, u64);
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

// --- Explicit ------------------------------------------------------------

/// Explicit-signal ticketed readers/writers.
#[derive(Debug)]
pub struct ExplicitRw {
    monitor: ExplicitMonitor<RwState>,
    conds: Vec<CondId>,
}

impl ExplicitRw {
    /// Creates the lock with a condvar pool of size `pool` (must be at
    /// least the total thread count to avoid collisions).
    pub fn new(pool: usize) -> Self {
        let mut monitor = ExplicitMonitor::new(RwState::default());
        let conds = monitor.add_conditions(pool.max(1));
        ExplicitRw { monitor, conds }
    }

    fn cv(&self, ticket: i64) -> CondId {
        self.conds[(ticket as usize) % self.conds.len()]
    }
}

impl ReadersWriters for ExplicitRw {
    fn start_read(&self) {
        self.monitor.enter(|g| {
            let t = g.state().next_ticket;
            g.state_mut().next_ticket += 1;
            g.wait_while(self.cv(t), move |s| *s.serving != t || *s.writer_active);
            let state = g.state_mut();
            *state.readers_active += 1;
            *state.serving += 1;
            // Let the next ticket holder in (readers overlap).
            let next = *state.serving;
            g.signal(self.cv(next));
        });
    }

    fn end_read(&self) {
        self.monitor.enter(|g| {
            let state = g.state_mut();
            *state.readers_active -= 1;
            state.reads_done += 1;
            if *state.readers_active == 0 {
                // A writer at the head of the queue may be draining us.
                let head = *state.serving;
                g.signal(self.cv(head));
            }
        });
    }

    fn start_write(&self) {
        self.monitor.enter(|g| {
            let t = g.state().next_ticket;
            g.state_mut().next_ticket += 1;
            g.wait_while(self.cv(t), move |s| {
                *s.serving != t || *s.writer_active || *s.readers_active > 0
            });
            let state = g.state_mut();
            *state.writer_active = true;
            *state.serving += 1;
        });
    }

    fn end_write(&self) {
        self.monitor.enter(|g| {
            let state = g.state_mut();
            *state.writer_active = false;
            state.writes_done += 1;
            let head = *state.serving;
            g.signal(self.cv(head));
        });
    }

    fn totals(&self) -> (u64, u64) {
        self.monitor
            .enter(|g| (g.state().reads_done, g.state().writes_done))
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

// --- Baseline ------------------------------------------------------------

/// Baseline ticketed readers/writers: broadcast on every release.
#[derive(Debug)]
pub struct BaselineRw {
    monitor: BaselineMonitor<RwState>,
}

impl BaselineRw {
    /// Creates the lock.
    pub fn new() -> Self {
        BaselineRw {
            monitor: BaselineMonitor::new(RwState::default()),
        }
    }
}

impl Default for BaselineRw {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadersWriters for BaselineRw {
    fn start_read(&self) {
        self.monitor.enter(|g| {
            let t = g.state().next_ticket;
            g.state_mut().next_ticket += 1;
            g.wait_until(move |s: &RwState| *s.serving == t && !*s.writer_active);
            let state = g.state_mut();
            *state.readers_active += 1;
            *state.serving += 1;
        });
    }

    fn end_read(&self) {
        self.monitor.enter(|g| {
            let state = g.state_mut();
            *state.readers_active -= 1;
            state.reads_done += 1;
        });
    }

    fn start_write(&self) {
        self.monitor.enter(|g| {
            let t = g.state().next_ticket;
            g.state_mut().next_ticket += 1;
            g.wait_until(move |s: &RwState| {
                *s.serving == t && !*s.writer_active && *s.readers_active == 0
            });
            let state = g.state_mut();
            *state.writer_active = true;
            *state.serving += 1;
        });
    }

    fn end_write(&self) {
        self.monitor.enter(|g| {
            let state = g.state_mut();
            *state.writer_active = false;
            state.writes_done += 1;
        });
    }

    fn totals(&self) -> (u64, u64) {
        self.monitor
            .enter(|g| (g.state().reads_done, g.state().writes_done))
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

// --- AutoSynch -----------------------------------------------------------

/// AutoSynch ticketed readers/writers: `waituntil` with a complex
/// equivalence conjunct. Ticket numbers never repeat, so these are the
/// canonical **transient** conditions — analyzed per wait and
/// LRU-evicted, not pinned in the compile table; writes still go
/// through [`Tracked`] cells so every mutation is named.
#[derive(Debug)]
pub struct AutoSynchRw {
    monitor: Monitor<RwState>,
    serving: autosynch::ExprHandle<RwState>,
    readers: autosynch::ExprHandle<RwState>,
    writer: autosynch::ExprHandle<RwState>,
}

impl AutoSynchRw {
    /// Creates the lock under the mechanism's monitor configuration.
    pub fn new(mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchRw requires an automatic mechanism");
        let monitor = Monitor::with_config(RwState::default(), config);
        let serving = monitor.register_expr("serving", |s| *s.serving);
        let readers = monitor.register_expr("readers_active", |s| *s.readers_active);
        let writer = monitor.register_expr("writer_active", |s| *s.writer_active as i64);
        monitor.bind(|s| &mut s.serving, &[serving]);
        monitor.bind(|s| &mut s.readers_active, &[readers]);
        monitor.bind(|s| &mut s.writer_active, &[writer]);
        AutoSynchRw {
            monitor,
            serving,
            readers,
            writer,
        }
    }
}

impl ReadersWriters for AutoSynchRw {
    fn start_read(&self) {
        self.monitor.enter_tracked(|g| {
            let t = g.state().next_ticket;
            g.state_mut().next_ticket += 1;
            // waituntil(serving == t && !writer_active): `t` globalizes
            // into the equivalence key — one-shot, hence transient.
            g.wait_transient(self.serving.eq(t).and(self.writer.eq(0)));
            let state = g.state_mut();
            *state.readers_active += 1;
            *state.serving += 1;
        });
    }

    fn end_read(&self) {
        self.monitor.enter_tracked(|g| {
            let state = g.state_mut();
            *state.readers_active -= 1;
            state.reads_done += 1;
        });
    }

    fn start_write(&self) {
        self.monitor.enter_tracked(|g| {
            let t = g.state().next_ticket;
            g.state_mut().next_ticket += 1;
            g.wait_transient(
                self.serving
                    .eq(t)
                    .and(self.writer.eq(0))
                    .and(self.readers.eq(0)),
            );
            let state = g.state_mut();
            *state.writer_active = true;
            *state.serving += 1;
        });
    }

    fn end_write(&self) {
        self.monitor.enter_tracked(|g| {
            let state = g.state_mut();
            *state.writer_active = false;
            state.writes_done += 1;
        });
    }

    fn totals(&self) -> (u64, u64) {
        self.monitor
            .enter(|g| (g.state().reads_done, g.state().writes_done))
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`; `threads` sizes the
/// explicit condvar pool.
pub fn make_rw(mechanism: Mechanism, threads: usize) -> Arc<dyn ReadersWriters> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitRw::new(threads)),
        Mechanism::Baseline => Arc::new(BaselineRw::new()),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchRw::new(mechanism)),
    }
}

/// Parameters of a Fig. 12 run (the paper's x-axis pairs, 2/10 .. 64/320,
/// keep `readers = 5 × writers`).
#[derive(Debug, Clone, Copy)]
pub struct ReadersWritersConfig {
    /// Writer thread count.
    pub writers: usize,
    /// Reader thread count.
    pub readers: usize,
    /// Lock acquisitions per thread.
    pub ops_per_thread: usize,
}

impl Default for ReadersWritersConfig {
    fn default() -> Self {
        ReadersWritersConfig {
            writers: 2,
            readers: 10,
            ops_per_thread: 200,
        }
    }
}

/// Runs the saturation test while checking mutual exclusion from outside
/// the monitor.
///
/// # Panics
///
/// Panics when a writer overlaps a reader or another writer, or when the
/// operation totals are wrong.
pub fn run(mechanism: Mechanism, config: ReadersWritersConfig) -> RunReport {
    let total_threads = config.writers + config.readers;
    let rw = make_rw(mechanism, total_threads);
    // External truth: counters updated strictly inside the acquired
    // sections. `cs_readers <= monitor readers_active` and likewise for
    // writers, so violations observed here are real.
    let cs_readers = AtomicI64::new(0);
    let cs_writers = AtomicI64::new(0);

    let (elapsed, ctx) = timed_run(total_threads, |i| {
        if i < config.writers {
            for _ in 0..config.ops_per_thread {
                rw.start_write();
                let w = cs_writers.fetch_add(1, Ordering::SeqCst);
                let r = cs_readers.load(Ordering::SeqCst);
                assert_eq!(w, 0, "two writers in the critical section");
                assert_eq!(r, 0, "writer overlaps {r} readers");
                cs_writers.fetch_sub(1, Ordering::SeqCst);
                rw.end_write();
            }
        } else {
            for _ in 0..config.ops_per_thread {
                rw.start_read();
                cs_readers.fetch_add(1, Ordering::SeqCst);
                let w = cs_writers.load(Ordering::SeqCst);
                assert_eq!(w, 0, "reader overlaps a writer");
                cs_readers.fetch_sub(1, Ordering::SeqCst);
                rw.end_read();
            }
        }
    });

    let (reads, writes) = rw.totals();
    assert_eq!(
        reads,
        (config.readers * config.ops_per_thread) as u64,
        "{mechanism}: read count"
    );
    assert_eq!(
        writes,
        (config.writers * config.ops_per_thread) as u64,
        "{mechanism}: write count"
    );

    RunReport {
        mechanism,
        threads: total_threads,
        elapsed,
        stats: rw.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            ReadersWritersConfig {
                writers: 2,
                readers: 6,
                ops_per_thread: 100,
            },
        )
    }

    #[test]
    fn all_mechanisms_preserve_exclusion() {
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
    fn explicit_uses_targeted_signals() {
        let report = small(Mechanism::Explicit);
        assert_eq!(
            report.stats.counters.broadcasts, 0,
            "the ticketed explicit version should never need signalAll"
        );
    }

    #[test]
    fn writers_only_workload() {
        run(
            Mechanism::AutoSynch,
            ReadersWritersConfig {
                writers: 4,
                readers: 1,
                ops_per_thread: 100,
            },
        );
    }

    #[test]
    fn readers_can_overlap() {
        // Sequential smoke test of the API: two reads may be held at
        // once.
        let rw = make_rw(Mechanism::AutoSynch, 4);
        rw.start_read();
        rw.start_read();
        rw.end_read();
        rw.end_read();
        rw.start_write();
        rw.end_write();
        assert_eq!(rw.totals(), (2, 1));
    }
}
