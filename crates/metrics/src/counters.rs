//! Event counters shared by every signaling mechanism.
//!
//! All four mechanisms of the paper (explicit, baseline, AutoSynch-T,
//! AutoSynch) are instrumented with the same counter set so their numbers
//! are directly comparable. Counters are monotonically increasing event
//! tallies read with relaxed loads, never used for synchronization.
//!
//! They are written in one of two ways. **Shared** counters are bumped
//! from anywhere with a relaxed `fetch_add`. **Owned** counters are the
//! ones an automatic-signal monitor only ever moves while it holds its
//! own exclusion (the mutex or the elided lane): the occupancy counts
//! them in an [`OccupancyTally`] of plain integers and
//! [`SyncCounters::flush`] adds the lot with a load and a store each —
//! the lock already serialises every writer, so a locked read-modify-write
//! would buy nothing. The explicit-signal mechanisms have no tally; each
//! owns its `SyncCounters` outright and bumps the same fields per event
//! with `record_*`. What must never happen is one `SyncCounters` written
//! both ways on one field: the flush's store would lose the `fetch_add`s
//! that landed between its load and its store.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic event counters for one monitor instance.
///
/// Increment methods are `record_*`; [`SyncCounters::snapshot`] captures a
/// consistent-enough copy for reporting (individual loads are relaxed, which
/// is fine for quiescent reads after a run has joined its threads).
///
/// # Examples
///
/// ```
/// use autosynch_metrics::counters::SyncCounters;
///
/// let c = SyncCounters::default();
/// c.record_wakeup();
/// c.record_futile_wakeup();
/// assert_eq!(c.snapshot().productive_wakeups(), 0);
/// ```
#[derive(Debug, Default)]
pub struct SyncCounters {
    // Declaration order is kept as it has always been, not grouped by
    // kind: it decides which fields share a cache line, and the first
    // line holds what the explicit-signal yardstick bumps on every op.
    // Which fields are owned is the `owned_counters!` list below; every
    // other field is shared.
    enters: AtomicU64,
    waits: AtomicU64,
    signals: AtomicU64,
    broadcasts: AtomicU64,
    // Shared although the condvar wait loop counts it under the mutex:
    // the routed loop counts it after `park` returns, without
    // the monitor, and one field takes one kind of write.
    wakeups: AtomicU64,
    futile_wakeups: AtomicU64,
    timeouts: AtomicU64,
    pred_evals: AtomicU64,
    expr_evals: AtomicU64,
    tag_inserts: AtomicU64,
    tag_removes: AtomicU64,
    relay_calls: AtomicU64,
    relay_hits: AtomicU64,
    relay_skips: AtomicU64,
    probes_skipped: AtomicU64,
    unchanged_exprs: AtomicU64,
    cross_shard_preds: AtomicU64,
    ring_retries: AtomicU64,
    unparks: AtomicU64,
    waiter_self_checks: AtomicU64,
    false_wakeups: AtomicU64,
    named_mutations: AtomicU64,
    routed_unparks: AtomicU64,
    token_forwards: AtomicU64,
    eq_routed_wakes: AtomicU64,
    ladder_skips: AtomicU64,
    cursor_resumes: AtomicU64,
    transient_cache_hits: AtomicU64,
    fast_path_enters: AtomicU64,
    combined_exits: AtomicU64,
    fc_publishes: AtomicU64,
}

macro_rules! counter_methods {
    ($($(#[$doc:meta])* $record:ident => $field:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $record(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )+
    };
}

/// Declares the owned counters once: the fields of [`OccupancyTally`] and
/// the flush that adds them to the [`SyncCounters`] fields of the same
/// names.
macro_rules! owned_counters {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// What one monitor occupancy counts, in plain integers.
        ///
        /// Everything here happens under the monitor's exclusion, often
        /// many times per occupancy (a relay examines a candidate per
        /// waiter); the occupancy counts into this struct, which lives
        /// behind the same exclusion, and [`SyncCounters::flush`] adds it
        /// to the shared counters where the exclusion ends — before each
        /// block and at exit.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OccupancyTally {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl SyncCounters {
            /// Adds everything `tally` counted and zeroes it: a load and
            /// a store per field that moved, none for one that did not.
            ///
            /// The caller must hold the exclusion that serialises every
            /// other flush into `self`; readers need none.
            pub fn flush(&self, tally: &mut OccupancyTally) {
                $(
                    if tally.$field != 0 {
                        let total = self.$field.load(Ordering::Relaxed) + tally.$field;
                        self.$field.store(total, Ordering::Relaxed);
                        tally.$field = 0;
                    }
                )+
            }
        }
    };
}

owned_counters! {
    /// A thread blocked in `waituntil` / `await` (one per actual block,
    /// not per re-check).
    waits,
    /// The runtime issued a single-thread signal (`notify_one`).
    signals,
    /// A wakeup whose predicate was still false, forcing the thread
    /// back to sleep (the "redundant context switches" of §3).
    futile_wakeups,
    /// A timed wait elapsed without a signal.
    timeouts,
    /// One waiting-condition evaluation (a conjunction or whole
    /// predicate, depending on mechanism).
    pred_evals,
    /// One shared-expression evaluation during relay signaling.
    expr_evals,
    /// A tag was inserted into an index (hash table or heap).
    tag_inserts,
    /// A tag was removed from an index.
    tag_removes,
    /// One execution of the relay signaling rule.
    relay_calls,
    /// A relay call that found and signaled a thread.
    relay_hits,
    /// A relay call the change-driven mode skipped outright: the
    /// state was unmutated since the last relay and every waiting
    /// conjunction was already known false.
    relay_skips,
    /// A tag-index candidate the change-driven probe skipped because
    /// none of its dependencies changed since the last relay.
    probes_skipped,
    /// A snapshot-diff expression evaluation whose value matched the
    /// cached snapshot (no dependents need probing on its account).
    unchanged_exprs,
    /// A conjunction whose dependency set spans several gates (or is
    /// opaque) and therefore routed to the global gate (routed mode).
    cross_shard_preds,
    /// A wake the routed relay resolved through the equivalence
    /// route: the published value of an eq-tagged expression named
    /// the single slot whose waiters can have flipped, so exactly
    /// one bucket was swept instead of the whole gate.
    eq_routed_wakes,
    /// A threshold-ladder rung the routed relay proved false at the
    /// published value and skipped without waking: the rung's key
    /// sits above (min side) or below (max side) the fresh value,
    /// so its waiters' predicates cannot have become true.
    ladder_skips,
    /// A transient (uncompiled) wait whose interned predicate
    /// already had a graduated per-predicate bucket in the gate's
    /// LRU: the waiter joined the targeted token-sweep discipline
    /// instead of the per-gate broadcast bucket.
    transient_cache_hits,
}

impl SyncCounters {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    // Per-event increments of owned counters, for the explicit-signal
    // mechanisms (explicit, baseline, Kessels): they keep no occupancy
    // tally, and never share a `SyncCounters` with a monitor that does.
    // `tests/owned_counters.rs` fails if the automatic monitor's sources
    // ever name one of them.
    counter_methods! {
        /// A thread blocked (see [`OccupancyTally::waits`]).
        record_wait => waits,
        /// A `notify_one` (see [`OccupancyTally::signals`]).
        record_signal => signals,
        /// A futile wakeup (see [`OccupancyTally::futile_wakeups`]).
        record_futile_wakeup => futile_wakeups,
        /// A timed wait elapsed (see [`OccupancyTally::timeouts`]).
        record_timeout => timeouts,
        /// One condition evaluation (see [`OccupancyTally::pred_evals`]).
        record_pred_eval => pred_evals,
        /// One relay execution (see [`OccupancyTally::relay_calls`]).
        record_relay_call => relay_calls,
    }

    counter_methods! {
        /// A thread entered the monitor (acquired the lock from outside).
        record_enter => enters,
        /// The runtime issued a broadcast (`notify_all` / `signalAll`).
        /// AutoSynch never increments this — that is the paper's claim.
        record_broadcast => broadcasts,
        /// A blocked thread returned from `Condvar::wait` or `park`. This
        /// is the context-switch proxy used for Fig. 15.
        record_wakeup => wakeups,
        /// A lock-free snapshot-ring read whose seqlock validation failed
        /// and had to retry (a writer published mid-read).
        record_ring_retry => ring_retries,
        /// A parked waiter was unparked by a signaler's exit path (routed
        /// mode). Unlike `signals`, the signaler did not evaluate the
        /// waiter's predicate — the waiter re-checks it itself.
        record_unpark => unparks,
        /// A parked waiter re-evaluated its own predicate against the
        /// lock-free snapshot ring after an unpark (routed mode) — work
        /// that every other mode performs inside the signaler's critical
        /// section.
        record_waiter_self_check => waiter_self_checks,
        /// A waiter-side self-check concluded the predicate is still
        /// false, so the waiter re-parked without touching the monitor
        /// lock (the cheap cousin of a futile wakeup).
        record_false_wakeup => false_wakeups,
        /// An occupancy whose writes named their touched expressions —
        /// a tracked-cell drain or a `state_mut_touching` call — so the
        /// snapshot diff can skip every other expression.
        record_named_mutation => named_mutations,
        /// A *targeted* unpark in routed mode: the wake named one
        /// `Cond`-slot bucket (sweep start, token forward or baton
        /// re-injection) instead of broadcasting a whole gate. Every
        /// routed unpark is also counted in `unparks`.
        record_routed_unpark => routed_unparks,
        /// A sweep token handoff in routed mode: a waiter whose
        /// self-check came back false (or whose claim proved futile)
        /// passed the wake on to the next unobserved waiter of its
        /// bucket, or a claimer re-injected the baton at monitor exit.
        record_token_forward => token_forwards,
        /// A token sweep that resumed from its bucket's saved cursor
        /// instead of rescanning from the FIFO head — the already-swept
        /// prefix of the bucket was skipped in O(1).
        record_cursor_resume => cursor_resumes,
        /// An enter that took the CAS lock-elision lane: the monitor
        /// word was fully quiescent (no occupant, no waiter, no pending
        /// relay work), so the occupancy ran without the mutex.
        record_fast_path_enter => fast_path_enters,
        /// A published enter/exit record a combiner adopted: the lock
        /// holder ran the occupancy on the publisher's behalf and folded
        /// its mutation diff into one batched relay pass.
        record_combined_exit => combined_exits,
        /// A contended `with`/`with_tracked` that published its
        /// occupancy into the flat-combining slab instead of queueing on
        /// the monitor mutex.
        record_fc_publish => fc_publishes,
    }

    /// Adds `n` unparks at once (broadcast deliveries count their whole
    /// gate in one add), none for zero.
    #[inline]
    pub fn record_unparks(&self, n: u64) {
        if n != 0 {
            self.unparks.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Captures the current counter values.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            enters: self.enters.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            signals: self.signals.load(Ordering::Relaxed),
            broadcasts: self.broadcasts.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            futile_wakeups: self.futile_wakeups.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            pred_evals: self.pred_evals.load(Ordering::Relaxed),
            expr_evals: self.expr_evals.load(Ordering::Relaxed),
            tag_inserts: self.tag_inserts.load(Ordering::Relaxed),
            tag_removes: self.tag_removes.load(Ordering::Relaxed),
            relay_calls: self.relay_calls.load(Ordering::Relaxed),
            relay_hits: self.relay_hits.load(Ordering::Relaxed),
            relay_skips: self.relay_skips.load(Ordering::Relaxed),
            probes_skipped: self.probes_skipped.load(Ordering::Relaxed),
            unchanged_exprs: self.unchanged_exprs.load(Ordering::Relaxed),
            cross_shard_preds: self.cross_shard_preds.load(Ordering::Relaxed),
            ring_retries: self.ring_retries.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            waiter_self_checks: self.waiter_self_checks.load(Ordering::Relaxed),
            false_wakeups: self.false_wakeups.load(Ordering::Relaxed),
            named_mutations: self.named_mutations.load(Ordering::Relaxed),
            routed_unparks: self.routed_unparks.load(Ordering::Relaxed),
            token_forwards: self.token_forwards.load(Ordering::Relaxed),
            eq_routed_wakes: self.eq_routed_wakes.load(Ordering::Relaxed),
            ladder_skips: self.ladder_skips.load(Ordering::Relaxed),
            cursor_resumes: self.cursor_resumes.load(Ordering::Relaxed),
            transient_cache_hits: self.transient_cache_hits.load(Ordering::Relaxed),
            fast_path_enters: self.fast_path_enters.load(Ordering::Relaxed),
            combined_exits: self.combined_exits.load(Ordering::Relaxed),
            fc_publishes: self.fc_publishes.load(Ordering::Relaxed),
        }
    }

    /// Atomically swaps every counter to zero and returns the final
    /// values — `reset` with a reading. Each field is drained by one
    /// atomic `swap`, so an event recorded concurrently lands in
    /// exactly one of {returned snapshot, post-drain counters}; the
    /// snapshot is per-field atomic, not globally consistent across
    /// fields (see `MonitorStats::reset` for the contract this backs).
    /// A [`SyncCounters::flush`] is a load and a store, not one atomic
    /// step: a drain that lands between them is overwritten, so drain the
    /// owned counters of a tallying monitor only while it is quiescent.
    pub fn drain(&self) -> CounterSnapshot {
        CounterSnapshot {
            enters: self.enters.swap(0, Ordering::Relaxed),
            waits: self.waits.swap(0, Ordering::Relaxed),
            signals: self.signals.swap(0, Ordering::Relaxed),
            broadcasts: self.broadcasts.swap(0, Ordering::Relaxed),
            wakeups: self.wakeups.swap(0, Ordering::Relaxed),
            futile_wakeups: self.futile_wakeups.swap(0, Ordering::Relaxed),
            timeouts: self.timeouts.swap(0, Ordering::Relaxed),
            pred_evals: self.pred_evals.swap(0, Ordering::Relaxed),
            expr_evals: self.expr_evals.swap(0, Ordering::Relaxed),
            tag_inserts: self.tag_inserts.swap(0, Ordering::Relaxed),
            tag_removes: self.tag_removes.swap(0, Ordering::Relaxed),
            relay_calls: self.relay_calls.swap(0, Ordering::Relaxed),
            relay_hits: self.relay_hits.swap(0, Ordering::Relaxed),
            relay_skips: self.relay_skips.swap(0, Ordering::Relaxed),
            probes_skipped: self.probes_skipped.swap(0, Ordering::Relaxed),
            unchanged_exprs: self.unchanged_exprs.swap(0, Ordering::Relaxed),
            cross_shard_preds: self.cross_shard_preds.swap(0, Ordering::Relaxed),
            ring_retries: self.ring_retries.swap(0, Ordering::Relaxed),
            unparks: self.unparks.swap(0, Ordering::Relaxed),
            waiter_self_checks: self.waiter_self_checks.swap(0, Ordering::Relaxed),
            false_wakeups: self.false_wakeups.swap(0, Ordering::Relaxed),
            named_mutations: self.named_mutations.swap(0, Ordering::Relaxed),
            routed_unparks: self.routed_unparks.swap(0, Ordering::Relaxed),
            token_forwards: self.token_forwards.swap(0, Ordering::Relaxed),
            eq_routed_wakes: self.eq_routed_wakes.swap(0, Ordering::Relaxed),
            ladder_skips: self.ladder_skips.swap(0, Ordering::Relaxed),
            cursor_resumes: self.cursor_resumes.swap(0, Ordering::Relaxed),
            transient_cache_hits: self.transient_cache_hits.swap(0, Ordering::Relaxed),
            fast_path_enters: self.fast_path_enters.swap(0, Ordering::Relaxed),
            combined_exits: self.combined_exits.swap(0, Ordering::Relaxed),
            fc_publishes: self.fc_publishes.swap(0, Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (between benchmark iterations).
    pub fn reset(&self) {
        for field in [
            &self.enters,
            &self.waits,
            &self.signals,
            &self.broadcasts,
            &self.wakeups,
            &self.futile_wakeups,
            &self.timeouts,
            &self.pred_evals,
            &self.expr_evals,
            &self.tag_inserts,
            &self.tag_removes,
            &self.relay_calls,
            &self.relay_hits,
            &self.relay_skips,
            &self.probes_skipped,
            &self.unchanged_exprs,
            &self.cross_shard_preds,
            &self.ring_retries,
            &self.unparks,
            &self.waiter_self_checks,
            &self.false_wakeups,
            &self.named_mutations,
            &self.routed_unparks,
            &self.token_forwards,
            &self.eq_routed_wakes,
            &self.ladder_skips,
            &self.cursor_resumes,
            &self.transient_cache_hits,
            &self.fast_path_enters,
            &self.combined_exits,
            &self.fc_publishes,
        ] {
            field.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of [`SyncCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // fields mirror the documented record_* methods
pub struct CounterSnapshot {
    pub enters: u64,
    pub waits: u64,
    pub signals: u64,
    pub broadcasts: u64,
    pub wakeups: u64,
    pub futile_wakeups: u64,
    pub timeouts: u64,
    pub pred_evals: u64,
    pub expr_evals: u64,
    pub tag_inserts: u64,
    pub tag_removes: u64,
    pub relay_calls: u64,
    pub relay_hits: u64,
    pub relay_skips: u64,
    pub probes_skipped: u64,
    pub unchanged_exprs: u64,
    pub cross_shard_preds: u64,
    pub ring_retries: u64,
    pub unparks: u64,
    pub waiter_self_checks: u64,
    pub false_wakeups: u64,
    pub named_mutations: u64,
    pub routed_unparks: u64,
    pub token_forwards: u64,
    pub eq_routed_wakes: u64,
    pub ladder_skips: u64,
    pub cursor_resumes: u64,
    pub transient_cache_hits: u64,
    pub fast_path_enters: u64,
    pub combined_exits: u64,
    pub fc_publishes: u64,
}

impl CounterSnapshot {
    /// Wakeups whose predicate held, i.e. that led to progress.
    pub fn productive_wakeups(&self) -> u64 {
        self.wakeups.saturating_sub(self.futile_wakeups)
    }

    /// Fraction of wakeups that were futile, in `[0, 1]`; `0` when no
    /// wakeups occurred.
    pub fn futile_ratio(&self) -> f64 {
        if self.wakeups == 0 {
            0.0
        } else {
            self.futile_wakeups as f64 / self.wakeups as f64
        }
    }

    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            enters: self.enters.saturating_sub(earlier.enters),
            waits: self.waits.saturating_sub(earlier.waits),
            signals: self.signals.saturating_sub(earlier.signals),
            broadcasts: self.broadcasts.saturating_sub(earlier.broadcasts),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            futile_wakeups: self.futile_wakeups.saturating_sub(earlier.futile_wakeups),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            pred_evals: self.pred_evals.saturating_sub(earlier.pred_evals),
            expr_evals: self.expr_evals.saturating_sub(earlier.expr_evals),
            tag_inserts: self.tag_inserts.saturating_sub(earlier.tag_inserts),
            tag_removes: self.tag_removes.saturating_sub(earlier.tag_removes),
            relay_calls: self.relay_calls.saturating_sub(earlier.relay_calls),
            relay_hits: self.relay_hits.saturating_sub(earlier.relay_hits),
            relay_skips: self.relay_skips.saturating_sub(earlier.relay_skips),
            probes_skipped: self.probes_skipped.saturating_sub(earlier.probes_skipped),
            unchanged_exprs: self.unchanged_exprs.saturating_sub(earlier.unchanged_exprs),
            cross_shard_preds: self
                .cross_shard_preds
                .saturating_sub(earlier.cross_shard_preds),
            ring_retries: self.ring_retries.saturating_sub(earlier.ring_retries),
            unparks: self.unparks.saturating_sub(earlier.unparks),
            waiter_self_checks: self
                .waiter_self_checks
                .saturating_sub(earlier.waiter_self_checks),
            false_wakeups: self.false_wakeups.saturating_sub(earlier.false_wakeups),
            named_mutations: self.named_mutations.saturating_sub(earlier.named_mutations),
            routed_unparks: self.routed_unparks.saturating_sub(earlier.routed_unparks),
            token_forwards: self.token_forwards.saturating_sub(earlier.token_forwards),
            eq_routed_wakes: self.eq_routed_wakes.saturating_sub(earlier.eq_routed_wakes),
            ladder_skips: self.ladder_skips.saturating_sub(earlier.ladder_skips),
            cursor_resumes: self.cursor_resumes.saturating_sub(earlier.cursor_resumes),
            transient_cache_hits: self
                .transient_cache_hits
                .saturating_sub(earlier.transient_cache_hits),
            fast_path_enters: self
                .fast_path_enters
                .saturating_sub(earlier.fast_path_enters),
            combined_exits: self.combined_exits.saturating_sub(earlier.combined_exits),
            fc_publishes: self.fc_publishes.saturating_sub(earlier.fc_publishes),
        }
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "enters={} waits={} signals={} broadcasts={} wakeups={} \
             futile={} pred_evals={} expr_evals={} relay={}/{} \
             skipped={}p/{}r",
            self.enters,
            self.waits,
            self.signals,
            self.broadcasts,
            self.wakeups,
            self.futile_wakeups,
            self.pred_evals,
            self.expr_evals,
            self.relay_hits,
            self.relay_calls,
            self.probes_skipped,
            self.relay_skips,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_start_at_zero() {
        let snap = SyncCounters::new().snapshot();
        assert_eq!(snap, CounterSnapshot::default());
    }

    #[test]
    fn record_methods_increment_their_field() {
        let c = SyncCounters::new();
        c.record_enter();
        c.record_enter();
        c.record_wait();
        c.record_signal();
        c.record_broadcast();
        c.record_wakeup();
        c.record_futile_wakeup();
        c.record_timeout();
        c.record_pred_eval();
        c.record_relay_call();
        c.record_ring_retry();
        c.record_unpark();
        c.record_unparks(0);
        c.record_unparks(3);
        c.record_waiter_self_check();
        c.record_false_wakeup();
        c.record_named_mutation();
        c.record_routed_unpark();
        c.record_token_forward();
        c.record_cursor_resume();
        c.record_fast_path_enter();
        c.record_combined_exit();
        c.record_fc_publish();
        let expected = CounterSnapshot {
            enters: 2,
            waits: 1,
            signals: 1,
            broadcasts: 1,
            wakeups: 1,
            futile_wakeups: 1,
            timeouts: 1,
            pred_evals: 1,
            relay_calls: 1,
            ring_retries: 1,
            unparks: 4,
            waiter_self_checks: 1,
            false_wakeups: 1,
            named_mutations: 1,
            routed_unparks: 1,
            token_forwards: 1,
            cursor_resumes: 1,
            fast_path_enters: 1,
            combined_exits: 1,
            fc_publishes: 1,
            ..CounterSnapshot::default()
        };
        assert_eq!(c.snapshot(), expected);
    }

    #[test]
    fn a_tally_adds_to_exactly_its_own_counters() {
        let c = SyncCounters::new();
        c.record_pred_eval();
        c.record_wakeup();
        let mut tally = OccupancyTally {
            waits: 1,
            signals: 2,
            futile_wakeups: 3,
            timeouts: 4,
            pred_evals: 5,
            expr_evals: 6,
            tag_inserts: 7,
            tag_removes: 8,
            relay_calls: 9,
            relay_hits: 10,
            relay_skips: 11,
            probes_skipped: 12,
            unchanged_exprs: 13,
            cross_shard_preds: 14,
            eq_routed_wakes: 15,
            ladder_skips: 16,
            transient_cache_hits: 17,
        };
        c.flush(&mut tally);
        assert_eq!(
            tally,
            OccupancyTally::default(),
            "a flush empties the tally"
        );
        c.flush(&mut tally);
        let expected = CounterSnapshot {
            waits: 1,
            signals: 2,
            wakeups: 1,
            futile_wakeups: 3,
            timeouts: 4,
            pred_evals: 6,
            expr_evals: 6,
            tag_inserts: 7,
            tag_removes: 8,
            relay_calls: 9,
            relay_hits: 10,
            relay_skips: 11,
            probes_skipped: 12,
            unchanged_exprs: 13,
            cross_shard_preds: 14,
            eq_routed_wakes: 15,
            ladder_skips: 16,
            transient_cache_hits: 17,
            ..CounterSnapshot::default()
        };
        assert_eq!(c.snapshot(), expected);
    }

    #[test]
    fn productive_wakeups_and_ratio() {
        let c = SyncCounters::new();
        for _ in 0..10 {
            c.record_wakeup();
        }
        for _ in 0..4 {
            c.record_futile_wakeup();
        }
        let s = c.snapshot();
        assert_eq!(s.productive_wakeups(), 6);
        assert!((s.futile_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn futile_ratio_zero_without_wakeups() {
        assert_eq!(CounterSnapshot::default().futile_ratio(), 0.0);
    }

    #[test]
    fn since_subtracts_saturating() {
        let mut a = CounterSnapshot::default();
        let mut b = CounterSnapshot::default();
        a.signals = 10;
        b.signals = 3;
        b.wakeups = 5; // b has more than a: saturates
        let d = a.since(&b);
        assert_eq!(d.signals, 7);
        assert_eq!(d.wakeups, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = SyncCounters::new();
        c.record_signal();
        c.record_wakeup();
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Arc::new(SyncCounters::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record_wakeup();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.snapshot().wakeups, 8000);
    }

    #[test]
    fn display_is_nonempty_and_mentions_counts() {
        let c = SyncCounters::new();
        c.record_signal();
        let text = c.snapshot().to_string();
        assert!(text.contains("signals=1"));
    }
}
