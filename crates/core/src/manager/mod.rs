//! The condition manager (§5.2): predicate table, waiter bookkeeping and
//! the relay-signaling search.
//!
//! One manager lives inside each monitor's mutex. It owns:
//!
//! * a **slab of predicate entries** — each entry is one globalized
//!   predicate with its own condition variable, shared by every thread
//!   waiting on a syntax-equivalent condition;
//! * the **predicate table** mapping structural keys to entries, so
//!   syntax-equivalent predicates reuse one condition variable;
//! * the **tag index** (`shard::Shard`): equivalence hash table,
//!   threshold heaps and `None` lists, searched by the `Tagged` and
//!   `ChangeDriven` relays;
//! * the **router** (`router::GateRouter`), which partitions the
//!   expression space into the `Routed` mode's wake gates by
//!   dependency footprint;
//! * the **snapshot ring** (`snapshot_ring::SnapshotRing`) — a
//!   lock-free seqlock ring the change-driven diff publishes into, so
//!   observers read the latest expression values without the monitor
//!   lock;
//! * the **inactive list** — an LRU of predicates with no waiters, kept
//!   around for reuse and evicted beyond a cap (§5.2); explicitly
//!   registered shared predicates are persistent and never evicted
//!   (§5.1).
//!
//! Waiter lifecycle per entry: `waiting` counts blocked, unsignaled
//! threads; `signaled` counts threads that have been picked by the relay
//! rule but have not yet resumed (the paper's *active* threads). Tags are
//! live exactly while `waiting > 0` — a fully signaled entry must not be
//! signaled again.

mod router;
mod shard;
mod snapshot_ring;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use autosynch_metrics::counters::OccupancyTally;
use autosynch_metrics::phase::Phase;
use autosynch_predicate::cond::CondTable;
use autosynch_predicate::expr::{ExprId, ExprTable};
use autosynch_predicate::key::PredKey;
use autosynch_predicate::predicate::Predicate;
use autosynch_predicate::tag::Tag;
use parking_lot::Condvar;

use crate::config::{MonitorConfig, SignalMode};
use crate::dense::{slot_mut, LiveExprs};
use crate::eq_index::PredId;
use crate::slab::Slab;
use crate::stats::MonitorStats;
use crate::wake::{BucketKey, RoutedWake, SlotRoute, WakeLot, WakeRouter};

use router::GateRouter;
use shard::{Shard, ValueCache};
pub(crate) use snapshot_ring::SnapshotRing;

/// One predicate entry: the globalized condition, its condition variable
/// and the waiter counters. The predicate is `Arc`-shared so compiled
/// conditions (`Cond`) and parked waiters hold it without deep-cloning
/// the DNF.
pub(crate) struct PredEntry<S> {
    pred: Arc<Predicate<S>>,
    condvar: Arc<Condvar>,
    waiting: u32,
    signaled: u32,
    tags_active: bool,
    persistent: bool,
    in_inactive: bool,
    /// Per-conjunction gate assignment, recorded at tag activation
    /// (`Routed` mode only; empty otherwise). The entry's waiters park
    /// on the gate these routes confine it to, and the wake-routing
    /// checker re-derives every route to verify the partition stayed
    /// total and deterministic.
    routes: Vec<u32>,
    /// The compiled-condition slot pinned to this entry, when one
    /// exists (`Monitor::compile` interned it). Slots and keyed entries
    /// are 1:1, and the slot is the `Routed` mode's bucket identity:
    /// waiters of a slotted entry park in their slot's bucket and are
    /// woken by targeted sweeps; slotless entries (transient waits)
    /// park in the gate's broadcast bucket.
    slot: Option<u32>,
}

/// How many active conjunctions depend on each expression: a count per
/// `ExprId::index()` (grown on first use — expressions may be registered
/// late) and the list of expressions whose count is non-zero, which is
/// what the snapshot diff walks.
#[derive(Debug, Default)]
struct DepRefs {
    counts: Vec<u32>,
    live: LiveExprs,
}

impl DepRefs {
    fn acquire(&mut self, expr: ExprId) {
        let count = slot_mut(&mut self.counts, expr, || 0);
        if *count == 0 {
            self.live.insert(expr);
        }
        *count += 1;
    }

    /// Undoes one `acquire`; an expression that was never acquired is
    /// left alone.
    fn release(&mut self, expr: ExprId) {
        let Some(count) = self.counts.get_mut(expr.index()).filter(|c| **c > 0) else {
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.live.remove(expr);
        }
    }
}

/// The per-monitor condition manager.
pub(crate) struct ConditionManager<S> {
    entries: Slab<PredEntry<S>>,
    table: HashMap<PredKey, PredId>,
    /// The compiled-condition intern table (`Monitor::compile`): one
    /// slot per distinct `PredKey`, pinned for the monitor's lifetime.
    conds: CondTable<S>,
    /// Slot → predicate-table entry, aligned with `conds`. Compiled
    /// entries are persistent, so these ids never dangle.
    cond_pids: Vec<PredId>,
    /// Every active entry, for the untagged linear scan.
    scan_list: Vec<PredId>,
    /// The tag index the `Tagged` and `ChangeDriven` relays search.
    shard: Shard,
    /// The `Routed` mode's gate partition.
    router: GateRouter,
    inactive: VecDeque<PredId>,
    config: MonitorConfig,
    // --- relay working set: reused by every pass, never reallocated
    // while the `ExprTable` keeps its size --------------------------------
    /// The relay's expression values. In the change-driven modes this is
    /// the diff snapshot: `cache.epoch` is the monotonic diff counter and
    /// a slot's stamp the diff that last evaluated it. A slot that
    /// skipped a diff (its expression had no active dependents) has a
    /// gap; comparing across a gap is unsound — the value could have
    /// changed and coincidentally returned — so a non-contiguous slot is
    /// reported changed regardless of its cached value.
    cache: ValueCache,
    /// What this occupancy has counted so far, in plain integers: the
    /// manager's own counts (relay, tags) and the monitor's wait path
    /// alike. It lives here because the manager sits inside the monitor's
    /// exclusion — counting needs `&mut` to it, which only an occupant
    /// has — and the monitor flushes it to the shared counters wherever
    /// it gives the exclusion up.
    pub(crate) tally: OccupancyTally,
    // --- change-driven relay state (ChangeDriven + Routed) --------------
    /// How many active conjunctions depend on each expression — the set
    /// the snapshot diff evaluates.
    dep_refs: DepRefs,
    /// Scratch bitmap: expressions whose value changed in this relay's
    /// snapshot diff.
    changed: Vec<bool>,
    /// Reusable staging buffer for ring publishes: the slice of
    /// `cache.values` restricted to the expressions this diff evaluated.
    publish_scratch: Vec<Option<i64>>,
    /// The state was mutated since the last snapshot diff (fed by
    /// [`ConditionManager::note_mutation`]).
    state_dirty: bool,
    /// All mutations since the last diff came through the named API and
    /// touched only the expressions in `named` — the diff may carry the
    /// rest forward as unchanged. Cleared by any blanket mutation.
    named_only: bool,
    /// The union of named-mutation expression sets since the last diff.
    named: Vec<ExprId>,
    /// Scratch bitmap over `named`, rebuilt per named diff.
    named_scratch: Vec<bool>,
    /// Scratch bitmap: gates a routed relay's changed set touches.
    gate_scratch: Vec<bool>,
    /// Lock-free publication of the diff snapshot.
    ring: Arc<SnapshotRing>,
    /// Per-shard slot-bucketed gates (`Routed` mode only; empty
    /// otherwise): waiters park per `Cond`-slot bucket and wakes are
    /// targeted sweeps instead of gate broadcasts.
    wake: Arc<WakeLot>,
    /// The routed mode's slot index: eq-routes (value-directed) and
    /// dependency routes (change-directed) for every active slotted
    /// entry parked on a data gate.
    wake_router: WakeRouter,
    /// Routed wakes this relay announced but has not delivered: the
    /// monitor drains this right before releasing the lock and
    /// performs the unparks outside the critical section.
    pending_routed: Vec<RoutedWake>,
    /// Scratch bitmap over compiled slots: buckets already announced in
    /// this relay (a slot with several changed dependencies is swept
    /// once).
    slot_seen: Vec<bool>,
}

impl<S> ConditionManager<S> {
    pub(crate) fn new(config: MonitorConfig) -> Self {
        let router = GateRouter::new(config.shard_count());
        let wake_gates = match config.signal_mode() {
            SignalMode::Routed => router.shard_count(),
            _ => 0,
        };
        ConditionManager {
            entries: Slab::new(),
            table: HashMap::new(),
            conds: CondTable::new(),
            cond_pids: Vec::new(),
            scan_list: Vec::new(),
            shard: Shard::new(config.threshold_index_kind()),
            router,
            inactive: VecDeque::new(),
            config,
            cache: ValueCache::default(),
            tally: OccupancyTally::default(),
            dep_refs: DepRefs::default(),
            changed: Vec::new(),
            publish_scratch: Vec::new(),
            state_dirty: true,
            named_only: false,
            named: Vec::new(),
            named_scratch: Vec::new(),
            gate_scratch: Vec::new(),
            ring: Arc::new(SnapshotRing::new()),
            wake: Arc::new(WakeLot::with_config(
                wake_gates,
                config.transient_bucket_capacity(),
                config.sweep_cursors_enabled(),
            )),
            wake_router: WakeRouter::new(),
            pending_routed: Vec::new(),
            slot_seen: Vec::new(),
        }
    }

    /// Records that the monitor state was mutated. Change-driven relays
    /// diff the expression snapshot only when this has been called since
    /// the previous diff; callers that mutate the state without
    /// announcing it here would make the change-driven mode miss
    /// wakeups. The monitor runtime calls it from `state_mut`.
    pub(crate) fn note_mutation(&mut self) {
        self.state_dirty = true;
        // A blanket mutation poisons any named-only window: the next
        // diff must evaluate every live dependency.
        self.named_only = false;
        self.named.clear();
    }

    /// Whether a mutation has been announced that no snapshot diff has
    /// seen yet (always `false` in the modes that keep no snapshot).
    ///
    /// An occupancy that finds this set owes a relay even if it is clean
    /// itself. Mutations made over the elided lane are announced but not
    /// diffed — nobody waited, so no relay ran. The diff's "unchanged"
    /// verdict compares against the previous diff's state and prunes
    /// probes on the strength of "every active conjunction was false
    /// *there*"; a waiter that registers later found its predicate false
    /// against the *current* state. The relay it runs before blocking is
    /// what makes the two states one.
    pub(crate) fn has_undiffed_mutation(&self) -> bool {
        self.state_dirty
            && !matches!(
                self.config.signal_mode(),
                SignalMode::Tagged | SignalMode::Untagged
            )
    }

    /// Records a mutation whose writes, by the caller's contract
    /// (a tracked-cell drain or `MonitorGuard::state_mut_touching`),
    /// can only have changed the named expressions. The next snapshot
    /// diff evaluates the intersection of `touched` with the live
    /// dependency set and carries every other contiguous slot forward
    /// as unchanged.
    pub(crate) fn note_mutation_named(&mut self, touched: &[ExprId]) {
        if self.state_dirty && !self.named_only {
            return; // already inside a blanket window: stay blanket
        }
        if !self.state_dirty {
            self.state_dirty = true;
            self.named_only = true;
            self.named.clear();
        }
        for &expr in touched {
            if !self.named.contains(&expr) {
                self.named.push(expr);
            }
        }
    }

    /// The lock-free snapshot ring this manager publishes diffs into.
    pub(crate) fn ring(&self) -> Arc<SnapshotRing> {
        Arc::clone(&self.ring)
    }

    /// The per-shard slot-bucketed wake gates (`Routed` mode).
    pub(crate) fn wake_lot(&self) -> Arc<WakeLot> {
        Arc::clone(&self.wake)
    }

    /// The current diff epoch (the stamp of the newest published
    /// snapshot). A routed futile claimer forwards its sweep token at
    /// this epoch: its monitor-lock confirm just evaluated the live
    /// state, which is at least as new as any published cut.
    pub(crate) fn current_epoch(&self) -> u64 {
        self.cache.epoch
    }

    /// The gate the recorded routes confine a waiter to: the data gate
    /// owning the whole dependency footprint when every conjunction
    /// routes there, else the global gate (the conservative home of
    /// cross-shard and opaque predicates).
    fn gate_of_routes(router: &GateRouter, routes: &[u32]) -> usize {
        match routes {
            [] => router.global(),
            [first, rest @ ..] if rest.iter().all(|r| r == first) => *first as usize,
            _ => router.global(),
        }
    }

    /// The gate a `Routed`-mode waiter of `pid` enqueues on (see
    /// [`ConditionManager::gate_of_routes`]).
    pub(crate) fn park_gate(&self, pid: PredId) -> usize {
        debug_assert_eq!(self.config.signal_mode(), SignalMode::Routed);
        Self::gate_of_routes(&self.router, &self.entries[pid].routes)
    }

    /// Interns a predicate: returns the existing entry for a
    /// syntax-equivalent predicate or creates a new one.
    fn find_or_create(&mut self, pred: Arc<Predicate<S>>, persistent: bool) -> PredId {
        if let Some(key) = pred.key() {
            if let Some(&pid) = self.table.get(key) {
                if persistent {
                    self.entries[pid].persistent = true;
                }
                return pid;
            }
        }
        let key = pred.key().cloned();
        let pid = self.entries.insert(PredEntry {
            pred,
            condvar: Arc::new(Condvar::new()),
            waiting: 0,
            signaled: 0,
            tags_active: false,
            persistent,
            in_inactive: false,
            routes: Vec::new(),
            slot: None,
        });
        if let Some(key) = key {
            self.table.insert(key, pid);
        }
        pid
    }

    /// Pre-registers a shared predicate (§5.1: shared predicates are added
    /// in the constructor and never removed).
    #[cfg(test)]
    pub(crate) fn register_persistent(&mut self, pred: Predicate<S>) -> PredId {
        let pid = self.find_or_create(Arc::new(pred), true);
        self.unlink_inactive(pid);
        pid
    }

    /// Compiles a predicate into a condition slot: the analysis is
    /// interned by structural key in the [`CondTable`], the predicate
    /// table gets (or reuses) a **persistent** entry for it, and the
    /// returned slot resolves to that entry in O(1) forever after —
    /// `register_waiter_slot` is the allocation- and hash-free wait
    /// path built on top. The entry's condition variable is returned
    /// with it: the compiled handle carries it, so a wait blocks without
    /// cloning it out of the entry.
    ///
    /// Persistence is what keeps slots valid: compiled conditions are
    /// the paper's §5.1 shared predicates ("added in the constructor
    /// and never removed"), generalized to any key.
    pub(crate) fn compile(&mut self, pred: Predicate<S>) -> (u32, Arc<Predicate<S>>, Arc<Condvar>) {
        let (slot, arc) = self.conds.intern(pred);
        if slot as usize == self.cond_pids.len() {
            let pid = self.find_or_create(Arc::clone(&arc), true);
            self.unlink_inactive(pid);
            self.cond_pids.push(pid);
            let entry = &mut self.entries[pid];
            entry.slot = Some(slot);
            // The entry may predate the compile (a transient wait
            // interned it first) and already be active: register its
            // freshly assigned slot with the wake router now, so routed
            // bucket wakes cover compiled waiters that arrive while the
            // transient ones are still parked.
            if self.config.signal_mode() == SignalMode::Routed && entry.tags_active {
                let gate = Self::gate_of_routes(&self.router, &entry.routes);
                let route = WakeRouter::classify(&entry.pred, gate, self.router.global());
                self.wake_router.register(slot, gate, route);
            }
        }
        let condvar = Arc::clone(&self.entries[self.cond_pids[slot as usize]].condvar);
        (slot, arc, condvar)
    }

    /// Registers the calling thread as a waiter on the compiled
    /// condition at `slot` and activates the entry's tags — no key
    /// hashing, no interning, no allocation. The predicate handle is
    /// cross-checked against the slot's entry, so a hand-forged `Cond`
    /// (constructed via `Cond::new` instead of `Monitor::compile`)
    /// fails loudly instead of registering on the wrong entry.
    pub(crate) fn register_waiter_slot(
        &mut self,
        slot: u32,
        pred: &Arc<Predicate<S>>,
        stats: &MonitorStats,
    ) -> PredId {
        let timer = stats.phases.start(Phase::TagManager);
        let pid = *self
            .cond_pids
            .get(slot as usize)
            .expect("Cond slot was not issued by this monitor's compile table");
        let entry = &mut self.entries[pid];
        // A compiled cond usually shares the entry's Arc; when the
        // entry predates the compile (a v1 shim wait interned it
        // first), the two are distinct allocations of syntax-equivalent
        // predicates — equal structural keys. Keyless conditions are
        // never interned by key, so for them only pointer identity
        // proves the pairing.
        let matches = Arc::ptr_eq(&entry.pred, pred)
            || (entry.pred.key().is_some() && entry.pred.key() == pred.key());
        assert!(
            matches,
            "Cond predicate does not match its slot — construct Conds via Monitor::compile"
        );
        entry.waiting += 1;
        if !entry.tags_active {
            self.activate_tags(pid);
        }
        timer.finish();
        pid
    }

    /// Registers the calling thread as a waiter on `pred` and activates
    /// the entry's tags. Returns the entry id the waiter keeps for the
    /// rest of its `waituntil`. (The per-wait interning path — compiled
    /// conditions use [`ConditionManager::register_waiter_slot`].)
    pub(crate) fn register_waiter(&mut self, pred: Predicate<S>, stats: &MonitorStats) -> PredId {
        let timer = stats.phases.start(Phase::TagManager);
        let pid = self.find_or_create(Arc::new(pred), false);
        self.unlink_inactive(pid);
        let entry = &mut self.entries[pid];
        entry.waiting += 1;
        if !entry.tags_active {
            self.activate_tags(pid);
        }
        timer.finish();
        pid
    }

    /// The condition variable of an entry, cloned so a transient waiter
    /// can block on it without borrowing the manager (compiled conditions
    /// carry theirs).
    pub(crate) fn condvar(&self, pid: PredId) -> Arc<Condvar> {
        Arc::clone(&self.entries[pid].condvar)
    }

    /// The entry's predicate, for re-evaluation after a wakeup.
    pub(crate) fn entry_pred(&self, pid: PredId) -> &Predicate<S> {
        &self.entries[pid].pred
    }

    /// The entry's predicate by shared handle (parked waiters keep it
    /// across lock releases without deep-cloning the DNF).
    pub(crate) fn entry_pred_arc(&self, pid: PredId) -> Arc<Predicate<S>> {
        Arc::clone(&self.entries[pid].pred)
    }

    /// Number of compiled-condition slots (diagnostics and tests).
    pub(crate) fn compiled_count(&self) -> usize {
        self.conds.len()
    }

    /// A woken thread found its predicate false (another thread barged in
    /// and falsified it): it returns to the waiting pool.
    ///
    /// Signals are anonymous per-entry tokens, so a *spurious* wakeup
    /// (possible with a std-backed condvar, unlike `parking_lot`'s) is
    /// indistinguishable from a signaled one at the call site. With no
    /// token outstanding the thread's unit never left `waiting` and
    /// nothing moves; with a token outstanding the thread absorbs it on
    /// behalf of the entry — either way `waiting + signaled` keeps
    /// counting exactly the blocked threads, and the caller re-runs the
    /// relay rule before blocking again.
    pub(crate) fn mark_futile(&mut self, pid: PredId, stats: &MonitorStats) {
        let entry = &mut self.entries[pid];
        if entry.signaled == 0 {
            // Spurious wakeup: the thread is still accounted in
            // `waiting` and its tags are still live.
            debug_assert!(entry.waiting > 0);
            debug_assert!(entry.tags_active);
            return;
        }
        entry.signaled -= 1;
        entry.waiting += 1;
        if !entry.tags_active {
            let timer = stats.phases.start(Phase::TagManager);
            self.activate_tags(pid);
            timer.finish();
        }
    }

    /// A woken thread found its predicate true and proceeds: its unit
    /// leaves the entry — from `signaled` when a token is outstanding,
    /// else from `waiting` (a spurious wakeup that happened to find the
    /// predicate true, or a signal token absorbed by a futile peer). An
    /// entry with no threads left is retired to the inactive list.
    pub(crate) fn consume_signal(&mut self, pid: PredId, stats: &MonitorStats) {
        let entry = &mut self.entries[pid];
        if entry.signaled > 0 {
            entry.signaled -= 1;
        } else {
            debug_assert!(entry.waiting > 0, "consuming thread was not accounted");
            entry.waiting -= 1;
            if entry.waiting == 0 && entry.tags_active {
                let timer = stats.phases.start(Phase::TagManager);
                self.deactivate_tags(pid);
                timer.finish();
            }
        }
        self.maybe_retire(pid, stats);
    }

    /// A timed wait elapsed. Returns `true` when the thread absorbed a
    /// pending signal, in which case the caller must run the relay rule
    /// to pass the baton onward (otherwise relay invariance could break).
    pub(crate) fn on_timeout(&mut self, pid: PredId, stats: &MonitorStats) -> bool {
        let entry = &mut self.entries[pid];
        if entry.waiting > 0 {
            // The normal case: we were still an unsignaled waiter. Any
            // `signaled` tokens belong to threads that really were woken.
            entry.waiting -= 1;
            if entry.waiting == 0 && entry.tags_active {
                let timer = stats.phases.start(Phase::TagManager);
                self.deactivate_tags(pid);
                timer.finish();
            }
            self.maybe_retire(pid, stats);
            false
        } else {
            // All remaining slots of this entry are "signaled": one of
            // those notifications was aimed at us and is now orphaned.
            debug_assert!(entry.signaled > 0);
            entry.signaled -= 1;
            self.maybe_retire(pid, stats);
            true
        }
    }

    /// The relay signaling rule (§4.2): find one waiting thread whose
    /// predicate is true and signal it. Called whenever a thread exits
    /// the monitor or goes to wait.
    pub(crate) fn relay_signal(
        &mut self,
        state: &S,
        exprs: &ExprTable<S>,
        stats: &MonitorStats,
    ) -> Option<PredId> {
        self.tally.relay_calls += 1;
        // The signaler-lock hold-time stat: everything a relay does
        // happens under the monitor lock on behalf of other threads, so
        // its duration is the signaling share of the critical section.
        let hold_start = stats.phases.is_enabled().then(Instant::now);
        // The flight recorder's summary of the pass is what the pass
        // added to the occupancy's tally.
        let pass_summary = |t: &OccupancyTally| (t.pred_evals, t.probes_skipped + t.relay_skips);
        let before = pass_summary(&self.tally);
        let result = self.relay_dispatch(state, exprs, stats);
        let after = pass_summary(&self.tally);
        crate::telemetry::record(
            crate::telemetry::EventKind::RelayPass,
            after.0 - before.0,
            after.1 - before.1,
        );
        if let Some(start) = hold_start {
            stats.hold.record(start.elapsed());
        }
        result
    }

    fn relay_dispatch(
        &mut self,
        state: &S,
        exprs: &ExprTable<S>,
        stats: &MonitorStats,
    ) -> Option<PredId> {
        let mode = self.config.signal_mode();
        if mode == SignalMode::Routed {
            return self.relay_routed(state, exprs, stats);
        }
        // Change-driven: refresh the changed-expression bitmap once per
        // relay call; when the state is unmutated and every active
        // conjunction is known false, the whole search is skipped.
        if mode == SignalMode::ChangeDriven && self.refresh_changed_set(state, exprs, stats) {
            self.tally.relay_skips += 1;
            if self.config.validates_relay() {
                self.check_relay_invariance(state, exprs);
            }
            return None;
        }
        // The paper's relay: one search, at most one signal.
        let timer = stats.phases.start(Phase::RelaySignal);
        let found = match mode {
            SignalMode::Untagged => self.find_untagged(state, exprs),
            SignalMode::Tagged => {
                // No diff feeds the cache here: each search opens its
                // own epoch, so every shared expression is evaluated at
                // most once per search.
                self.cache.epoch += 1;
                self.probe_shard(state, exprs, false)
            }
            SignalMode::ChangeDriven => {
                let filtered = !self.shard.probe_all;
                self.probe_shard(state, exprs, filtered)
            }
            SignalMode::Routed => unreachable!("dispatched above"),
        };
        timer.finish();
        // A search that ran dry certifies every still-waiting conjunction
        // false (probed false or skipped as unchanged-since-false).
        self.shard.all_false = found.is_none();
        if let Some(pid) = found {
            self.tally.relay_hits += 1;
            self.signal_entry(pid, stats);
        }
        if self.config.validates_relay() {
            self.check_relay_invariance(state, exprs);
        }
        found
    }

    /// Searches the tag index for a signalable waiter; `filtered`
    /// restricts the search to candidates the last diff's changed set
    /// can have flipped.
    fn probe_shard(&mut self, state: &S, exprs: &ExprTable<S>, filtered: bool) -> Option<PredId> {
        let ConditionManager {
            entries,
            shard,
            cache,
            changed,
            tally,
            ..
        } = self;
        let changed = filtered.then_some(changed.as_slice());
        shard.probe(entries, state, exprs, cache, changed, tally)
    }

    /// The routed relay: the signaler's whole exit path. No index is
    /// probed, no waiter predicate is evaluated and no token is handed
    /// off under the lock — the relay diffs the expression snapshot,
    /// publishes the new epoch into the lock-free ring, and announces
    /// **targeted** wakes, which the monitor delivers after releasing
    /// the lock:
    ///
    /// * changed expressions with equivalence routes wake exactly the
    ///   slot registered under the freshly published value (every other
    ///   eq key is provably false at the cut);
    /// * changed expressions with threshold-ladder rungs wake only the
    ///   rungs the published value crosses; the provably-false
    ///   remainder is pruned in one ordered-range scan and counted as
    ///   `ladder_skips` (an unknown value conservatively wakes every
    ///   rung);
    /// * changed expressions wake each dependency-routed slot
    ///   registered under them — one token sweep per bucket, started at
    ///   the bucket head and forwarded waiter-side;
    /// * affected gates' transient buckets are broadcast, and each
    ///   graduated (LRU-admitted) per-predicate bucket gets a targeted
    ///   token sweep instead (see `wait_transient`);
    /// * the global gate (cross-shard, opaque and shard-spanning
    ///   conditions, which may depend on anything) is broadcast on any
    ///   mutation.
    ///
    /// Soundness of the skip: a predicate can only flip false→true via
    /// a state mutation, so an unmutated exit publishes nothing and
    /// wakes no one. Soundness of the slot filter: a data-gate slot's dependencies
    /// are confined to its gate's shard (route validator), its
    /// predicate can only flip via a dependency change, and the diff's
    /// epoch-contiguity rule reports gaps as changed — so a slot none
    /// of whose dependencies changed cannot have flipped. The eq prune
    /// additionally uses tag necessity: an eq-shaped predicate is true
    /// only while `expr == key`, so a published value `v` rules out
    /// every bucket with `key != v` at that cut, and any later flip
    /// comes with a later publish that re-runs this filter.
    fn relay_routed(
        &mut self,
        state: &S,
        exprs: &ExprTable<S>,
        stats: &MonitorStats,
    ) -> Option<PredId> {
        if !self.state_dirty {
            self.tally.relay_skips += 1;
            if self.config.validates_relay() {
                self.check_wake_routing(state, exprs);
            }
            return None;
        }
        self.diff_snapshot(state, exprs, stats);
        self.state_dirty = false;
        let timer = stats.phases.start(Phase::RelaySignal);
        let gates = self.wake.gate_count();
        self.gate_scratch.clear();
        self.gate_scratch.resize(gates, false);
        self.slot_seen.clear();
        self.slot_seen.resize(self.conds.len(), false);
        {
            let ConditionManager {
                changed,
                cache,
                tally,
                router,
                wake_router,
                wake,
                pending_routed,
                gate_scratch,
                slot_seen,
                ..
            } = self;
            for (idx, &was_changed) in changed.iter().enumerate() {
                if !was_changed {
                    continue;
                }
                let expr = ExprId::from_raw(idx as u32);
                gate_scratch[router.shard_of_expr(expr)] = true;
                // Value-directed: only the slot whose eq key equals the
                // published value can have flipped true.
                if wake_router.has_eq(expr) {
                    if let Some(value) = cache.values[idx] {
                        for &(slot, gate) in wake_router.eq_slots(expr, value) {
                            if !slot_seen[slot as usize] {
                                slot_seen[slot as usize] = true;
                                tally.eq_routed_wakes += 1;
                                wake.announce(gate as usize);
                                pending_routed.push(RoutedWake::Bucket { gate, slot });
                            }
                        }
                    }
                }
                // Order-directed: wake only the rungs the published
                // value crosses; the rungs above the crossing bound are
                // provably false at the cut and pruned as skips.
                if wake_router.has_ladder(expr) {
                    let skipped =
                        wake_router.ladder_probe(expr, cache.values[idx], |slot, gate| {
                            if !slot_seen[slot as usize] {
                                slot_seen[slot as usize] = true;
                                wake.announce(gate as usize);
                                pending_routed.push(RoutedWake::Bucket { gate, slot });
                            }
                        });
                    tally.ladder_skips += skipped;
                    if skipped > 0 {
                        crate::telemetry::record(
                            crate::telemetry::EventKind::LadderSkip,
                            skipped,
                            0,
                        );
                    }
                }
                // Change-directed: sweep every dependent slot once.
                for &(slot, gate) in wake_router.dep_slots(expr) {
                    if !slot_seen[slot as usize] {
                        slot_seen[slot as usize] = true;
                        wake.announce(gate as usize);
                        pending_routed.push(RoutedWake::Bucket { gate, slot });
                    }
                }
            }
        }
        // Transient buckets of affected data gates (slotless waiters
        // get a gate-wide broadcast), skipped lock-free when empty.
        let global = self.router.global();
        for gate in 0..gates {
            if gate != global && self.gate_scratch[gate] && self.wake.has_transient(gate) {
                self.wake.announce(gate);
                self.pending_routed.push(RoutedWake::Transient(gate as u32));
            }
        }
        // Any mutation can have flipped a global-gate predicate.
        if self.wake.has_waiters(global) {
            self.wake.announce(global);
            self.pending_routed.push(RoutedWake::Gate(global as u32));
        }
        timer.finish();
        if self.config.validates_relay() {
            self.check_wake_routing(state, exprs);
        }
        None
    }

    /// Moves the routed relay's announced-but-undelivered wakes into
    /// `out` (cleared first) and returns the epoch to stamp them with.
    /// The monitor calls this right before releasing the lock and
    /// delivers each wake outside the critical section.
    pub(crate) fn drain_routed_wakes(&mut self, out: &mut Vec<RoutedWake>) -> u64 {
        out.clear();
        out.append(&mut self.pending_routed);
        self.cache.epoch
    }

    /// Announces a claimed token's re-injection into its bucket (the
    /// `signaled` baton rule, waiter-side): called under the monitor
    /// lock by a routed claimer whose confirm succeeded; the monitor
    /// drains and delivers it after the lock is released, waking the
    /// next unobserved bucket peer to confirm against the post-claim
    /// state. The announcement covers the bucket's waiters for the
    /// protocol validator across the claimer's occupancy.
    pub(crate) fn note_reinject(&mut self, gate: usize, bucket: BucketKey) {
        debug_assert_eq!(self.config.signal_mode(), SignalMode::Routed);
        debug_assert!(bucket.is_swept(), "only swept buckets carry batons");
        self.wake.announce(gate);
        self.pending_routed.push(RoutedWake::Reinject {
            gate: gate as u32,
            bucket,
        });
    }

    /// Ground-truth check of the wake-routing protocol (armed by
    /// `validate_relay`):
    ///
    /// 1. re-derives every live route: the recorded gate of each
    ///    conjunction matches a fresh route computation (the partition
    ///    is total and deterministic), data-gate conjunctions are fully
    ///    confined (every dependency owned by their gate), and
    ///    cross-shard, opaque or dependency-free conjunctions sit on
    ///    the global gate;
    /// 2. **route soundness vs. a full probe**: every active slotted
    ///    entry's router registration must byte-match a fresh
    ///    classification of its predicate — a slot registered under the
    ///    wrong eq key, the wrong ladder rung, the wrong gate, or a
    ///    stale dependency set would mis-aim its wakes — and a
    ///    threshold registration must additionally sit on its
    ///    expression's ladder exactly once (a missing rung loses wakes,
    ///    a duplicated one double-sweeps);
    /// 3. **no-lost-token audit**: every enqueued waiter whose
    ///    predicate is currently true must hold a pending unpark token,
    ///    share its bucket with an in-flight sweep (a covered peer), be
    ///    named by an undelivered announcement for its gate, or be
    ///    awake. A bare parked waiter with a true predicate is a lost
    ///    wake.
    fn check_wake_routing(&self, state: &S, exprs: &ExprTable<S>) {
        for (pid, entry) in self.entries.iter() {
            if !entry.tags_active {
                continue;
            }
            let deps_per_conj = entry.pred.conj_deps();
            assert_eq!(
                entry.routes.len(),
                deps_per_conj.len(),
                "entry {pid:?} has {} recorded routes for {} conjunctions",
                entry.routes.len(),
                deps_per_conj.len(),
            );
            for (conj, deps) in deps_per_conj.iter().enumerate() {
                let recorded = entry.routes[conj] as usize;
                let derived = self.router.route(deps);
                if recorded != derived {
                    panic!(
                        "shard routing violated: conjunction {conj} of predicate {} \
                         (entry {pid:?}) is registered in shard {recorded} but routes \
                         to shard {derived}",
                        entry.pred
                    );
                }
                if recorded == self.router.global() {
                    continue;
                }
                assert!(
                    !deps.is_opaque() && !deps.exprs().is_empty(),
                    "opaque or dependency-free conjunction escaped the global shard"
                );
                for &expr in deps.exprs() {
                    assert_eq!(
                        self.router.shard_of_expr(expr),
                        recorded,
                        "conjunction {conj} of predicate {} spans shards but sits in \
                         data shard {recorded}",
                        entry.pred
                    );
                }
            }
            if let Some(slot) = entry.slot {
                let gate = Self::gate_of_routes(&self.router, &entry.routes);
                let expected = WakeRouter::classify(&entry.pred, gate, self.router.global());
                let actual = self.wake_router.registration(slot);
                assert!(
                    actual == Some(&expected),
                    "wake routing violated: slot {slot} of predicate {} (entry {pid:?}) \
                     is registered as {actual:?} but classifies as {expected:?}",
                    entry.pred
                );
                if let SlotRoute::Threshold { expr, key, op } = expected {
                    let rungs = self.wake_router.ladder_count_of(expr, key, op, slot);
                    assert!(
                        rungs == 1,
                        "wake routing violated: slot {slot} of predicate {} (entry {pid:?}) \
                         sits on its threshold ladder {rungs} times instead of once",
                        entry.pred
                    );
                }
            }
        }
        for (pid, entry) in self.entries.iter() {
            if entry.waiting == 0 || !entry.pred.eval(state, exprs) {
                continue;
            }
            if let Some(gate) = self.wake.uncovered(pid) {
                panic!(
                    "wake routing violated: predicate {} (entry {pid:?}, \
                     {} waiting) is true but a waiter parked in gate {gate} \
                     holds no token and no sweep or announcement covers it",
                    entry.pred, entry.waiting
                );
            }
        }
    }

    /// Diffs the expression snapshot against fresh evaluations, filling
    /// the changed bitmap, and publishes the new snapshot to the
    /// lock-free ring (the publish only in the modes with ring readers).
    /// Shared by the `ChangeDriven` and `Routed` modes.
    fn diff_snapshot(&mut self, state: &S, exprs: &ExprTable<S>, stats: &MonitorStats) {
        let timer = stats.phases.start(Phase::SnapshotDiff);
        self.cache.epoch += 1;
        self.changed.clear();
        self.changed.resize(exprs.len(), false);
        self.cache.cover(exprs.len());
        // A named-only window lets the diff skip every dependency the
        // caller's contract guarantees untouched: the cached value is
        // carried forward into this epoch as unchanged. Carrying
        // forward still requires slot contiguity — across a gap the
        // cached value may predate mutations the contract says nothing
        // about, so gapped slots are re-evaluated regardless.
        let named_only = self.named_only && !self.named.is_empty();
        if named_only {
            self.named_scratch.clear();
            self.named_scratch.resize(exprs.len(), false);
            for expr in &self.named {
                if expr.index() < exprs.len() {
                    self.named_scratch[expr.index()] = true;
                }
            }
        }
        let ConditionManager {
            dep_refs,
            cache,
            changed,
            named_scratch,
            tally,
            ..
        } = self;
        let epoch = cache.epoch;
        for &expr in dep_refs.live.as_slice() {
            let idx = expr.index();
            // "Unchanged" is only meaningful against the immediately
            // preceding diff; a slot with a gap is treated as changed.
            let contiguous = cache.epochs[idx] + 1 == epoch;
            if named_only && contiguous && !named_scratch[idx] && cache.values[idx].is_some() {
                tally.unchanged_exprs += 1;
                cache.epochs[idx] = epoch;
                continue;
            }
            tally.expr_evals += 1;
            let fresh = exprs.eval(expr, state);
            if contiguous && cache.values[idx] == Some(fresh) {
                tally.unchanged_exprs += 1;
            } else {
                cache.values[idx] = Some(fresh);
                changed[idx] = true;
            }
            cache.epochs[idx] = epoch;
        }
        self.named_only = false;
        self.named.clear();
        // Publish only the values this diff evaluated (or carried
        // forward into this epoch under a named-mutation contract): a
        // snapshot is a consistent cut of the state under one lock
        // hold, never a mix of epochs (expressions with no active
        // dependents are `None`). Routed mode only — plain
        // change-driven monitors have no ring readers, and the staging
        // + atomic stores would tax their diff hot path for nothing
        // (BENCH tracks CD's snapDiff trajectory). Routed waiters rely
        // on the publish: their self-checks read the ring.
        if self.config.signal_mode() == SignalMode::Routed {
            let epoch = self.cache.epoch;
            self.publish_scratch.clear();
            self.publish_scratch.extend(
                self.cache
                    .values
                    .iter()
                    .zip(&self.cache.epochs)
                    .map(|(&value, &slot_epoch)| value.filter(|_| slot_epoch == epoch)),
            );
            self.ring.publish(epoch, &self.publish_scratch);
        }
        timer.finish();
    }

    /// Prepares the change-driven relay: diffs the expression snapshot
    /// when the state was mutated, or decides that the whole search can
    /// be skipped (returns `true`).
    ///
    /// Soundness of the skip: a conjunction can only flip false→true via
    /// a state mutation (predicates are pure functions of the state), a
    /// waiter only (re-)registers when its predicate just evaluated
    /// false, and `all_false` certifies that the previous search left no
    /// true-but-unsignaled waiter behind. With no mutation since, every
    /// active conjunction is still false and relay invariance (Def. 4)
    /// holds vacuously — `validate_relay` re-proves this on every call in
    /// the test suites.
    fn refresh_changed_set(
        &mut self,
        state: &S,
        exprs: &ExprTable<S>,
        stats: &MonitorStats,
    ) -> bool {
        if !self.state_dirty {
            if self.shard.all_false {
                return true;
            }
            // A relay that stopped on a hit may have left signalable
            // waiters behind; probe everything, reusing the cached values.
            self.shard.probe_all = true;
            return false;
        }
        self.diff_snapshot(state, exprs, stats);
        self.state_dirty = false;
        // The changed-set prune is only sound against a baseline where
        // every active conjunction was known false. A previous relay
        // that stopped on a hit may have left true-but-unsignaled
        // waiters whose dependencies this diff sees as unchanged —
        // probe everything until a search runs dry again.
        self.shard.probe_all = !self.shard.all_false;
        false
    }

    /// Ground-truth check of relay invariance (Def. 4): immediately
    /// after a relay, if any waiting thread's predicate is true then
    /// some thread must be signaled (active). A violation means the tag
    /// indexes missed a signalable thread — the exact bug class the
    /// §4.3 machinery must not have.
    ///
    /// # Panics
    ///
    /// Panics on a violation; enabled by
    /// [`MonitorConfig::validate_relay`](crate::config::MonitorConfig::validate_relay).
    fn check_relay_invariance(&self, state: &S, exprs: &ExprTable<S>) {
        if self.entries.iter().any(|(_, e)| e.signaled > 0) {
            return; // an active thread exists; the invariance holds
        }
        for (pid, entry) in self.entries.iter() {
            if entry.waiting > 0 && entry.pred.eval(state, exprs) {
                panic!(
                    "relay invariance violated: predicate {} (entry {pid:?}, \
                     {} waiting) is true but the relay signaled no one",
                    entry.pred, entry.waiting
                );
            }
        }
    }

    /// Ground-truth audit of a relay the monitor did **not** run because
    /// the occupancy owed none (armed by `validate_relay`): the mode's
    /// own checker, against the live state, at the point the relay would
    /// have run. It must pass exactly as it would after a relay — that
    /// is the claim that the relay was not owed.
    pub(crate) fn audit_skipped_relay(&self, state: &S, exprs: &ExprTable<S>) {
        match self.config.signal_mode() {
            SignalMode::Routed => self.check_wake_routing(state, exprs),
            _ => self.check_relay_invariance(state, exprs),
        }
    }

    /// AutoSynch-T: evaluate every active predicate until one is true.
    fn find_untagged(&mut self, state: &S, exprs: &ExprTable<S>) -> Option<PredId> {
        for &pid in &self.scan_list {
            let entry = &self.entries[pid];
            debug_assert!(entry.waiting > 0, "scan list holds only active entries");
            self.tally.pred_evals += 1;
            if entry.pred.eval(state, exprs) {
                return Some(pid);
            }
        }
        None
    }

    /// Moves one waiter of `pid` from waiting to signaled and notifies the
    /// entry's condition variable. Only a relay pass signals, so the
    /// count goes to its tally.
    fn signal_entry(&mut self, pid: PredId, stats: &MonitorStats) {
        let entry = &mut self.entries[pid];
        debug_assert!(entry.waiting > 0, "signaled an entry with no waiters");
        entry.waiting -= 1;
        entry.signaled += 1;
        self.tally.signals += 1;
        // Notify before the tag bookkeeping: both happen under the
        // monitor mutex, so the woken thread cannot run until the relay
        // is done either way, and the condvar need not be cloned out of
        // the entry first.
        entry.condvar.notify_one();
        if entry.waiting == 0 {
            let timer = stats.phases.start(Phase::TagManager);
            self.deactivate_tags(pid);
            timer.finish();
        }
    }

    fn activate_tags(&mut self, pid: PredId) {
        let entry = &mut self.entries[pid];
        debug_assert!(!entry.tags_active);
        entry.tags_active = true;
        match self.config.signal_mode() {
            SignalMode::Untagged => {
                self.tally.tag_inserts += 1;
                self.scan_list.push(pid);
            }
            SignalMode::Tagged => {
                let shard = &mut self.shard;
                self.tally.tag_inserts += entry.pred.tags().len() as u64;
                for (conj, &tag) in entry.pred.tags().iter().enumerate() {
                    let conj = conj as u32;
                    match tag {
                        Tag::Equivalence { expr, key } => {
                            shard.eq_index.insert(expr, key, (pid, conj));
                        }
                        Tag::Threshold { expr, key, op } => {
                            shard.thresholds.insert(expr, key, op, (pid, conj));
                        }
                        Tag::None => shard.none_list.push((pid, conj)),
                    }
                }
            }
            SignalMode::ChangeDriven => {
                let shard = &mut self.shard;
                let deps_per_conj = entry.pred.conj_deps();
                self.tally.tag_inserts += entry.pred.tags().len() as u64;
                for (conj, &tag) in entry.pred.tags().iter().enumerate() {
                    let deps = &deps_per_conj[conj];
                    let conj = conj as u32;
                    for &expr in deps.exprs() {
                        self.dep_refs.acquire(expr);
                    }
                    match tag {
                        Tag::Equivalence { expr, key } => {
                            shard.eq_index.insert(expr, key, (pid, conj));
                        }
                        Tag::Threshold { expr, key, op } => {
                            shard.thresholds.insert(expr, key, op, (pid, conj));
                        }
                        Tag::None => {
                            shard.none_count += 1;
                            if deps.is_opaque() || deps.exprs().is_empty() {
                                shard.opaque_list.push((pid, conj));
                            } else {
                                for &expr in deps.exprs() {
                                    shard.none_index_insert(expr, (pid, conj));
                                }
                            }
                        }
                    }
                }
            }
            SignalMode::Routed => {
                // No probe index to maintain: routed waiters re-check
                // their own predicates, so activation only
                // records routes (for gate placement and the validator)
                // and dependency references (so the diff evaluates the
                // right expressions and the wake filter covers this
                // waiter's gate).
                let deps_per_conj = entry.pred.conj_deps();
                entry.routes.clear();
                self.tally.tag_inserts += deps_per_conj.len() as u64;
                let mut cross_shard = 0;
                for deps in deps_per_conj {
                    let sid = self.router.route(deps);
                    entry.routes.push(sid as u32);
                    cross_shard += u64::from(sid == self.router.global());
                    for &expr in deps.exprs() {
                        self.dep_refs.acquire(expr);
                    }
                }
                self.tally.cross_shard_preds += cross_shard;
                // Slotted entries are indexed for wake routing: eq
                // route when the predicate has one, dependency route
                // otherwise, nothing for global-gate populations (the
                // gate broadcast covers them).
                if let Some(slot) = entry.slot {
                    let gate = Self::gate_of_routes(&self.router, &entry.routes);
                    let route = WakeRouter::classify(&entry.pred, gate, self.router.global());
                    self.wake_router.register(slot, gate, route);
                }
            }
        }
    }

    fn deactivate_tags(&mut self, pid: PredId) {
        let entry = &mut self.entries[pid];
        debug_assert!(entry.tags_active);
        entry.tags_active = false;
        match self.config.signal_mode() {
            SignalMode::Untagged => {
                self.tally.tag_removes += 1;
                if let Some(pos) = self.scan_list.iter().position(|&p| p == pid) {
                    self.scan_list.swap_remove(pos);
                }
            }
            SignalMode::Tagged => {
                let shard = &mut self.shard;
                self.tally.tag_removes += entry.pred.tags().len() as u64;
                for (conj, &tag) in entry.pred.tags().iter().enumerate() {
                    let conj = conj as u32;
                    match tag {
                        Tag::Equivalence { expr, key } => {
                            shard.eq_index.remove(expr, key, (pid, conj));
                        }
                        Tag::Threshold { expr, key, op } => {
                            shard.thresholds.remove(expr, key, op, (pid, conj));
                        }
                        Tag::None => {
                            if let Some(pos) =
                                shard.none_list.iter().position(|&e| e == (pid, conj))
                            {
                                shard.none_list.swap_remove(pos);
                            }
                        }
                    }
                }
            }
            SignalMode::Routed => {
                let deps_per_conj = entry.pred.conj_deps();
                debug_assert_eq!(entry.routes.len(), deps_per_conj.len());
                self.tally.tag_removes += deps_per_conj.len() as u64;
                for deps in deps_per_conj {
                    for &expr in deps.exprs() {
                        self.dep_refs.release(expr);
                    }
                }
                if let Some(slot) = entry.slot {
                    self.wake_router.unregister(slot);
                }
            }
            SignalMode::ChangeDriven => {
                let shard = &mut self.shard;
                let deps_per_conj = entry.pred.conj_deps();
                self.tally.tag_removes += entry.pred.tags().len() as u64;
                for (conj, &tag) in entry.pred.tags().iter().enumerate() {
                    let deps = &deps_per_conj[conj];
                    let conj = conj as u32;
                    for &expr in deps.exprs() {
                        self.dep_refs.release(expr);
                    }
                    match tag {
                        Tag::Equivalence { expr, key } => {
                            shard.eq_index.remove(expr, key, (pid, conj));
                        }
                        Tag::Threshold { expr, key, op } => {
                            shard.thresholds.remove(expr, key, op, (pid, conj));
                        }
                        Tag::None => {
                            shard.none_count -= 1;
                            if deps.is_opaque() || deps.exprs().is_empty() {
                                if let Some(pos) =
                                    shard.opaque_list.iter().position(|&e| e == (pid, conj))
                                {
                                    shard.opaque_list.swap_remove(pos);
                                }
                            } else {
                                for &expr in deps.exprs() {
                                    shard.none_index_remove(expr, (pid, conj));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Retires an entry with no threads to the inactive LRU and evicts
    /// beyond the configured cap (§5.2).
    fn maybe_retire(&mut self, pid: PredId, stats: &MonitorStats) {
        let entry = &self.entries[pid];
        if entry.waiting > 0 || entry.signaled > 0 || entry.persistent || entry.in_inactive {
            return;
        }
        debug_assert!(!entry.tags_active);
        self.entries[pid].in_inactive = true;
        self.inactive.push_back(pid);
        while self.inactive.len() > self.config.inactive_capacity() {
            let victim = self.inactive.pop_front().expect("inactive list non-empty");
            let timer = stats.phases.start(Phase::TagManager);
            let removed = self.entries.remove(victim);
            if let Some(key) = removed.pred.key() {
                if self.table.get(key) == Some(&victim) {
                    self.table.remove(key);
                }
            }
            timer.finish();
        }
    }

    /// Removes `pid` from the inactive LRU when it is being reused.
    fn unlink_inactive(&mut self, pid: PredId) {
        if self.entries.get(pid).is_some_and(|entry| entry.in_inactive) {
            self.entries[pid].in_inactive = false;
            if let Some(pos) = self.inactive.iter().position(|&p| p == pid) {
                self.inactive.remove(pos);
            }
        }
    }

    // --- introspection for tests and diagnostics -------------------------

    /// Number of live predicate entries (active + inactive).
    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries currently parked on the inactive LRU.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn inactive_count(&self) -> usize {
        self.inactive.len()
    }

    /// Total waiting (unsignaled) threads across entries.
    pub(crate) fn waiting_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.waiting as usize).sum()
    }

    /// Total signaled-but-not-resumed threads across entries.
    pub(crate) fn signaled_count(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.signaled as usize).sum()
    }

    /// Validator hook for the no-lost-relay audit: an elided (fast-lane)
    /// exit skips the relay call entirely, which is sound only when the
    /// manager certifies there was nobody to relay *to*. The fast lane's
    /// own admission check — the monitor word's presence count — already
    /// guarantees this (every waiter holds presence from enter to exit,
    /// including while blocked), so a failure here means the word
    /// protocol leaked a waiter. Called only under `validate_relay`.
    ///
    /// # Panics
    ///
    /// Panics when any thread is waiting or signaled at the audited exit.
    pub(crate) fn audit_fast_exit(&self) {
        let waiting = self.waiting_count();
        let signaled = self.signaled_count();
        assert!(
            waiting == 0 && signaled == 0,
            "fast-path exit with {waiting} waiting / {signaled} signaled \
             threads: the monitor-word presence count admitted a fast \
             acquire while the relay rule was still owed"
        );
    }

    /// Live tags in the tag index (tagged modes) or the scan list
    /// (untagged mode).
    pub(crate) fn live_tag_count(&self) -> usize {
        match self.config.signal_mode() {
            SignalMode::Untagged => self.scan_list.len(),
            _ => self.shard.live_tag_count(),
        }
    }
}

impl<S> std::fmt::Debug for ConditionManager<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConditionManager")
            .field("entries", &self.entries.len())
            .field("waiting", &self.waiting_count())
            .field("signaled", &self.signaled_count())
            .field("inactive", &self.inactive.len())
            .field("tags", &self.live_tag_count())
            .finish()
    }
}

#[cfg(test)]
mod tests;
