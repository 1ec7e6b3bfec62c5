//! The automatic-signal monitor: `enter` + `waituntil` with relay
//! signaling.
//!
//! A [`Monitor<S>`] plays the role of the paper's `AutoSynch class`: every
//! [`Monitor::enter`] section is mutually exclusive, and inside it a
//! thread may block on [`MonitorGuard::wait`] — the `waituntil(P)`
//! statement. There are **no condition variables and no signal calls in
//! user code**; the condition manager signals exactly one appropriate
//! thread whenever the monitor is exited or a thread goes to wait (the
//! relay signaling rule, §4.2).
//!
//! Mutual exclusion itself is two-lane. A packed per-monitor word
//! (`word::MonitorWord`) is checked before the mutex: when the monitor is fully quiescent (no
//! occupant, no slow-lane presence — and presence covers every blocked
//! waiter), an entry takes the **elided lane** with one CAS and releases
//! with one atomic AND, never touching the mutex, the relay or the
//! snapshot ring; quiescence proves all three had nothing to do. Any
//! contention falls through to the mutex, and contended [`Monitor::with`]
//! callers go one step further: they publish their whole occupancy into
//! a flat-combining slab and let the current holder run it at exit,
//! folding a batch of occupancies into one lock handoff and one relay
//! pass. `MonitorConfig::fast_path(false)` restores the mutex-only
//! behaviour.
//!
//! Globalization (§4.1) falls out of the API: predicates are built from
//! registered shared expressions compared against plain `i64` values, and
//! those values are snapshots of the caller's locals taken at
//! construction time.
//!
//! # The v2 API: compile once, wait many
//!
//! [`Monitor::compile`] runs the whole predicate analysis (DNF, tags,
//! dependency sets, structural key, shard route) exactly once and
//! returns a reusable [`Cond`] handle; [`MonitorGuard::wait`] on that
//! handle is allocation- and hash-free. [`Tracked`](crate::tracked)
//! state cells paired with [`Monitor::enter_tracked`] make every write
//! name the touched shared expressions automatically, so the precise
//! change-driven diffs never depend on caller discipline.
//!
//! # Examples
//!
//! The parameterized bounded buffer of Fig. 1, whose explicit-signal
//! version needs `signalAll`:
//!
//! ```
//! use std::sync::Arc;
//! use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
//! use autosynch::Monitor;
//!
//! struct Buffer { items: Tracked<Vec<u64>>, cap: usize }
//! impl TrackedState for Buffer {
//!     fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
//!         f(&mut self.items);
//!     }
//! }
//!
//! let monitor = Arc::new(Monitor::new(Buffer { items: Tracked::new(Vec::new()), cap: 8 }));
//! let count = monitor.register_expr("count", |b| b.items.len() as i64);
//! let free = monitor.register_expr("free", |b| (b.cap - b.items.len()) as i64);
//! monitor.bind(|b| &mut b.items, &[count, free]);
//!
//! // Producer: waituntil(count + n <= cap), i.e. cap - count >= n.
//! let n = 3; // a "local variable"; its value globalizes into the condition
//! let has_room = monitor.compile(free.ge(n)); // analyzed exactly once
//! monitor.enter_tracked(|g| {
//!     g.wait(&has_room);
//!     for i in 0..n {
//!         g.state_mut().items.push(i as u64); // write names `count`/`free`
//!     }
//! });
//! assert_eq!(monitor.with_tracked(|b| b.items.len()), 3);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use autosynch_metrics::phase::Phase;
use autosynch_predicate::expr::{ExprHandle, ExprId, ExprTable};
use autosynch_predicate::predicate::{IntoPredicate, Predicate};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::asynch::WakerSlot;
use crate::config::{MonitorConfig, SignalMode};
use crate::eq_index::PredId;
use crate::fc::{FcOutcome, FcSlab};
use crate::manager::{ConditionManager, SnapshotRing};
use crate::parking::{snapshot_verdict, ParkOutcome, ParkSlot, Verdict};
use crate::stats::{MonitorStats, StatsSnapshot};
use crate::telemetry;
use crate::tracked::{MutationSink, TrackedState};
use crate::wake::{BucketKey, RoutedWake, SweepToken, WakeLot, WakeTicket};
use crate::word::MonitorWord;

mod thread_id {
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }

    /// A small, process-unique id for the current thread.
    pub fn current() -> u64 {
        ID.with(|id| *id)
    }
}

/// Named diagnostic counts of a monitor's condition manager, read with
/// [`Monitor::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManagerCounts {
    /// Live predicate-table entries (active + inactive).
    pub entries: usize,
    /// Blocked, unsignaled waiters across all entries.
    pub waiting: usize,
    /// Signaled-but-not-yet-resumed threads (the paper's *active* set).
    pub signaled: usize,
    /// Live tags across the tag indexes (or the untagged scan list).
    pub live_tags: usize,
    /// Compiled-condition slots pinned in the monitor's `CondTable`.
    pub compiled: usize,
    /// Cumulative slot buckets skipped by the threshold ladder —
    /// publishes whose value crossed none of the bucket's rungs
    /// (routed mode only; `0` elsewhere).
    pub ladder_skips: u64,
    /// Cumulative token forwards that resumed a bucket sweep from a
    /// saved cursor instead of rescanning from the FIFO head.
    pub cursor_resumes: u64,
    /// Cumulative transient admissions that hit the bounded LRU and
    /// graduated to (or stayed in) a swept per-predicate bucket.
    pub transient_cache_hits: u64,
    /// Cumulative monitor entries that took the elided (CAS) fast lane,
    /// skipping the mutex, the relay and the snapshot publish.
    pub fast_path_enters: u64,
    /// Cumulative published occupancies a combining exit adopted from
    /// the flat-combining slab.
    pub combined_exits: u64,
}

/// A compiled waiting condition of a [`Monitor<S>`], produced by
/// [`Monitor::compile`]: the shared analysis
/// ([`autosynch_predicate::cond::Cond`]) plus the condition variable of
/// the predicate-table entry it is pinned to, so a wait blocks on the
/// handle it was given instead of fetching one from the table.
pub type Cond<S> = autosynch_predicate::cond::Cond<S, Arc<Condvar>>;

/// The monomorphized cell-drain hook installed by
/// [`Monitor::enter_tracked`]: a plain function pointer, so the guard
/// stays object-free and `Copy`-cheap for non-tracked entries.
type DrainFn<S> = fn(&mut S, &mut MutationSink);

fn drain_cells<S: TrackedState>(state: &mut S, sink: &mut MutationSink) {
    state.for_each_cell(&mut |cell| cell.drain_touched(sink));
}

/// A published occupancy in the flat-combining slab: the whole body of a
/// contended [`Monitor::with`]/[`Monitor::with_tracked`] call, boxed and
/// type-erased. The `*mut ()` is really `*mut Inner<S>` — erased so the
/// slab field on `Monitor<S>` does not force `S: 'static`. The combiner
/// runs the op under the monitor lock, which re-establishes the type.
type FcOp = Box<dyn FnOnce(*mut ()) + Send>;

/// Moves a raw pointer across the combiner boundary. The publisher
/// blocks until its op is consumed or withdrawn, so the pointee (a stack
/// slot for the closure result) strictly outlives every dereference.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}

struct Inner<S> {
    state: S,
    mgr: ConditionManager<S>,
    // The occupant's private copy of the monitor's expression table,
    // re-cloned from the registration-side master only when that grew
    // (`Inner::sync_exprs`), so the relay and every predicate evaluation
    // read it without a lock.
    exprs: ExprTable<S>,
    // This occupancy mutated the state since its last relay: some
    // waiter's predicate may have become true, so it owes a relay.
    dirty: bool,
    // This occupancy holds the baton — it consumed a relay signal (or a
    // wakeup that may have been one) and has not relayed since. It owes a
    // relay even if it never mutates: the signal is what keeps the relay
    // chain (§4.2) alive, and absorbing it without passing it on would
    // strand other waiters whose predicates are already true.
    signaled: bool,
    // A tracked occupancy touched `state_mut` and the dirty cells have
    // not yet been drained into the condition manager; the guard
    // flushes right before every relay.
    tracked_pending: bool,
    // Reusable touched-expression accumulator for tracked flushes.
    sink: MutationSink,
}

impl<S> Inner<S> {
    /// Brings the occupant's copy of the expression table up to date.
    /// Called immediately before each use, not once per occupancy: the
    /// occupant itself may register an expression mid-occupancy (the
    /// DSL interns while it holds the guard) and then evaluate a
    /// predicate over it.
    fn sync_exprs(&mut self, monitor: &Monitor<S>) {
        // Pairs with the `Release` store in `Monitor::register_in`: a
        // length seen here is backed by a master at least that long.
        // The table only grows, so its length is its version.
        if monitor.exprs_len.load(Ordering::Acquire) != self.exprs.len() {
            self.exprs = monitor.exprs.read().clone();
        }
    }

    /// Evaluates `pred` against the live state, counting the evaluation.
    fn eval(&mut self, monitor: &Monitor<S>, pred: &Predicate<S>) -> bool {
        self.sync_exprs(monitor);
        self.mgr.tally.pred_evals += 1;
        pred.eval(&self.state, &self.exprs)
    }

    /// Evaluates the predicate of entry `pid` against the live state,
    /// counting the evaluation — a woken waiter's re-check.
    fn eval_entry(&mut self, monitor: &Monitor<S>, pid: PredId) -> bool {
        self.sync_exprs(monitor);
        self.mgr.tally.pred_evals += 1;
        self.mgr.entry_pred(pid).eval(&self.state, &self.exprs)
    }

    /// Whether this occupancy owes the relay signaling rule a run: it
    /// mutated the state, it holds the baton, or mutations are pending
    /// that no snapshot diff has seen. An occupancy that owes nothing
    /// leaves the set of true waiters and the set of signaled threads
    /// exactly as it found them, so whatever kept relay invariance
    /// (Def. 4) before it entered still does (DESIGN.md, "When a relay
    /// is owed").
    fn owes_relay(&self) -> bool {
        self.dirty || self.signaled || self.mgr.has_undiffed_mutation()
    }

    /// Runs the relay signaling rule (§4.2), which settles everything
    /// [`Inner::owes_relay`] looks at.
    fn relay(&mut self, monitor: &Monitor<S>) {
        self.sync_exprs(monitor);
        let Inner {
            state, mgr, exprs, ..
        } = self;
        mgr.relay_signal(state, exprs, &monitor.stats);
        self.dirty = false;
        self.signaled = false;
    }

    /// Adds what the occupancy counted to the shared counters. Call
    /// wherever the occupant is about to give up the monitor's exclusion
    /// — before it blocks, before it leaves; the exclusion is what makes
    /// the flush's plain load-and-store sound.
    fn flush_tally(&mut self, monitor: &Monitor<S>) {
        monitor.stats.counters.flush(&mut self.mgr.tally);
    }

    /// The relay rule at one of its two points — leaving the monitor,
    /// going to wait — for an occupancy that may owe nothing. Under
    /// `validate_relay` a skipped relay is audited against the live
    /// state instead.
    fn relay_if_owed(&mut self, monitor: &Monitor<S>) {
        if self.owes_relay() {
            self.relay(monitor);
        } else if monitor.config.validates_relay() {
            self.sync_exprs(monitor);
            self.mgr.audit_skipped_relay(&self.state, &self.exprs);
        }
    }
}

/// An automatic-signal monitor protecting shared state `S`.
///
/// See the [module documentation](self) for an example. Construction and
/// shared-expression registration normally happen before the monitor is
/// shared between threads; registration afterwards is allowed but
/// briefly contends with running relays.
pub struct Monitor<S> {
    inner: Mutex<Inner<S>>,
    /// The registration-side master of the expression table. Occupants
    /// never lock it on the hot path: each works on the copy in `Inner`.
    exprs: RwLock<ExprTable<S>>,
    /// `exprs.len()`, stored under the write lock: what an occupant
    /// compares its copy against before each use.
    exprs_len: AtomicUsize,
    stats: Arc<MonitorStats>,
    config: MonitorConfig,
    owner: AtomicU64,
    /// The packed occupancy word gating the elided (CAS) enter/exit
    /// lane: `[fast-epoch:32][presence:31][occupied:1]`. Presence counts
    /// every thread inside the slow-lane protocol — including blocked
    /// waiters — so `presence == 0` certifies that no relay can be owed
    /// and no waiter can be starved by skipping the mutex.
    word: MonitorWord,
    /// The flat-combining publication slab: contended `with` callers
    /// park their whole occupancy here and the current holder drains
    /// the batch at exit, under its own lock hold and relay pass.
    fc: FcSlab<FcOp>,
    /// Process-unique identity token stamped into every [`Cond`] this
    /// monitor compiles, so waits reject foreign conditions.
    token: u64,
    /// The condition manager's lock-free snapshot ring, held outside the
    /// mutex so [`Monitor::latest_expr_snapshot`] never contends with
    /// occupants.
    ring: Arc<SnapshotRing>,
    /// The slot-bucketed wake gates (`Routed` mode), held outside the
    /// mutex: routed waiters park per-`Cond` bucket, service token
    /// sweeps and claim without touching the monitor lock.
    wake: Arc<WakeLot>,
}

impl<S> std::fmt::Debug for Monitor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("config", &self.config)
            .field("exprs", &self.exprs_len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<S> Monitor<S> {
    /// Creates a monitor with the paper-default configuration.
    pub fn new(state: S) -> Self {
        Self::with_config(state, MonitorConfig::default())
    }

    /// Creates a monitor with an explicit configuration (AutoSynch-T,
    /// timing, ablations).
    pub fn with_config(state: S, config: MonitorConfig) -> Self {
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
        let mgr = ConditionManager::new(config);
        let ring = mgr.ring();
        let wake = mgr.wake_lot();
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        Monitor {
            inner: Mutex::new(Inner {
                state,
                mgr,
                exprs: ExprTable::new(),
                dirty: false,
                signaled: false,
                tracked_pending: false,
                sink: MutationSink::new(),
            }),
            exprs: RwLock::new(ExprTable::new()),
            exprs_len: AtomicUsize::new(0),
            stats: MonitorStats::new(config.timing_enabled()),
            config,
            owner: AtomicU64::new(0),
            word: MonitorWord::new(),
            fc: FcSlab::new(),
            token,
            ring,
            wake,
        }
    }

    /// Registers a shared expression (Def. 5) used to build taggable
    /// predicates. The closure is evaluated under the monitor lock during
    /// relay signaling, so it must be cheap and must not block.
    pub fn register_expr(
        &self,
        name: impl Into<String>,
        f: impl Fn(&S) -> i64 + Send + Sync + 'static,
    ) -> ExprHandle<S> {
        self.register_in(|table| table.register(name, f))
    }

    /// Runs a registration against the master table and publishes its
    /// new length to the occupants.
    fn register_in(
        &self,
        register: impl FnOnce(&mut ExprTable<S>) -> ExprHandle<S>,
    ) -> ExprHandle<S> {
        let mut table = self.exprs.write();
        let handle = register(&mut table);
        self.exprs_len.store(table.len(), Ordering::Release);
        handle
    }

    /// Finds a previously registered shared expression by name — useful
    /// when building conditions far from the registration site without
    /// threading handles around.
    pub fn lookup_expr(&self, name: &str) -> Option<ExprHandle<S>> {
        self.exprs.read().lookup(name)
    }

    /// Returns the handle registered under `name`, registering `f` if
    /// absent — interning for dynamically generated expressions (the DSL
    /// path).
    pub fn register_expr_or_get(
        &self,
        name: impl Into<String>,
        f: impl Fn(&S) -> i64 + Send + Sync + 'static,
    ) -> ExprHandle<S> {
        self.register_in(|table| table.register_or_get(name, f))
    }

    /// Compiles a waiting condition: the whole predicate analysis (DNF
    /// conversion, tag assignment, dependency extraction, structural
    /// key, shard-route derivation) runs **once**, the result is
    /// interned by key in the monitor's condition table, and the
    /// returned [`Cond`] makes every subsequent [`MonitorGuard::wait`]
    /// an allocation- and hash-free, probe-ready wait.
    ///
    /// Compiling a syntax-equivalent condition twice returns handles to
    /// the same slot (and the same shared analysis). Compiled
    /// conditions are pinned for the monitor's lifetime — they are the
    /// §5.1 persistent shared predicates, generalized to any key — so
    /// compile in setup code or once per distinct globalized value, not
    /// in an unbounded-key loop.
    ///
    /// # Panics
    ///
    /// Panics when called from inside the monitor (the compile takes
    /// the monitor lock) or when the condition overflows the DNF limit.
    pub fn compile(&self, cond: impl IntoPredicate<S>) -> Cond<S> {
        assert_ne!(
            self.owner.load(Ordering::Relaxed),
            thread_id::current(),
            "Monitor::compile called from inside the monitor"
        );
        let pred = cond.into_predicate();
        let (slot, arc, condvar) = self.lock_slow().mgr.compile(pred);
        self.unlock_slow();
        Cond::new(arc, slot, self.token, condvar)
    }

    /// Binds the [`Tracked`](crate::tracked::Tracked) cell selected by
    /// `cell` to the shared expressions that read it, so writes to the
    /// cell automatically name those expressions under
    /// [`Monitor::enter_tracked`]. Call once per cell at setup time,
    /// after registering the expressions.
    ///
    /// # Panics
    ///
    /// Panics when called from inside the monitor.
    pub fn bind<T>(
        &self,
        cell: impl FnOnce(&mut S) -> &mut crate::tracked::Tracked<T>,
        deps: &[ExprHandle<S>],
    ) {
        assert_ne!(
            self.owner.load(Ordering::Relaxed),
            thread_id::current(),
            "Monitor::bind called from inside the monitor"
        );
        let mut inner = self.lock_slow();
        // Binding only touches cell metadata, but announce a blanket
        // mutation anyway: setup-time conservatism is free.
        inner.mgr.note_mutation();
        let tracked = cell(&mut inner.state);
        for handle in deps {
            tracked.bind(handle.id());
        }
        drop(inner);
        self.unlock_slow();
    }

    /// Enters the monitor (mutual exclusion) and runs `f` with a guard
    /// that can access the state and [`MonitorGuard::wait`]. On return
    /// the relay signaling rule runs and the monitor is released. When
    /// the monitor is fully quiescent the entry is a single CAS on the
    /// monitor word (no mutex, no relay work — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when called re-entrantly from the same thread: the monitor
    /// lock is not reentrant, and recursing would deadlock.
    pub fn enter<R>(&self, f: impl FnOnce(&mut MonitorGuard<'_, S>) -> R) -> R {
        self.enter_inner(None, f)
    }

    /// Like [`Monitor::enter`], for state types whose expression-feeding
    /// fields live in [`Tracked`](crate::tracked::Tracked) cells: every
    /// write inside the occupancy automatically names the touched
    /// shared expressions, so the change-driven snapshot diff evaluates
    /// only those — PR-3's precise named-mutation diffs without the
    /// manual slice-of-ids contract. A write to a cell with no bound
    /// expressions conservatively downgrades the occupancy to a blanket
    /// mutation; under-reporting is impossible by construction.
    pub fn enter_tracked<R>(&self, f: impl FnOnce(&mut MonitorGuard<'_, S>) -> R) -> R
    where
        S: TrackedState,
    {
        self.enter_inner(Some(drain_cells::<S>), f)
    }

    /// Enters the monitor for an occupancy that may register async
    /// waits. Unlike [`Monitor::enter`] — whose closure takes a guard of
    /// a caller-opaque lifetime — the guard's lifetime here is pinned to
    /// this monitor borrow, so the closure can *return* a value that
    /// borrows the monitor: the [`WaitAsync`](crate::asynch::WaitAsync)
    /// future from [`MonitorGuard::wait_async`]. The occupancy itself is
    /// synchronous (the guard is dropped, relay and all, before this
    /// returns); only the returned future outlives it.
    ///
    /// Registration always takes the slow lane: a `wait_async` must
    /// downgrade an elided occupancy anyway (its waiter joins the mutex
    /// protocol and holds slow-lane presence for its whole pending
    /// life), so the CAS lane has nothing to offer here.
    ///
    /// # Panics
    ///
    /// Panics when called re-entrantly from the same thread.
    pub fn enter_async<'m, R>(&'m self, f: impl FnOnce(&mut MonitorGuard<'m, S>) -> R) -> R {
        self.enter_async_inner(None, f)
    }

    /// [`Monitor::enter_async`] for [`Tracked`](crate::tracked::Tracked)
    /// state: writes inside the occupancy (and inside any occupancy a
    /// returned wait future resolves into) name the touched expressions
    /// automatically, exactly as [`Monitor::enter_tracked`] does.
    pub fn enter_async_tracked<'m, R>(&'m self, f: impl FnOnce(&mut MonitorGuard<'m, S>) -> R) -> R
    where
        S: TrackedState,
    {
        self.enter_async_inner(Some(drain_cells::<S>), f)
    }

    fn enter_async_inner<'m, R>(
        &'m self,
        drain: Option<DrainFn<S>>,
        f: impl FnOnce(&mut MonitorGuard<'m, S>) -> R,
    ) -> R {
        let me = thread_id::current();
        assert_ne!(
            self.owner.load(Ordering::Relaxed),
            me,
            "Monitor::enter_async called re-entrantly from the same thread"
        );
        self.stats.counters.record_enter();
        let started = self.stats.timing_enabled().then(Instant::now);
        let tctx = telemetry::context_enter(self.token);
        let lock_timer = self.stats.phases.start(Phase::Lock);
        let mut inner = self.lock_slow();
        lock_timer.finish();
        telemetry::record(telemetry::EventKind::EnterSlow, 0, 0);
        self.owner.store(me, Ordering::Relaxed);
        inner.dirty = false;
        inner.signaled = false;
        inner.tracked_pending = false;
        let mut guard = MonitorGuard {
            monitor: self,
            inner: Some(inner),
            started,
            elided: false,
            drain,
            tctx,
        };
        let result = f(&mut guard);
        drop(guard);
        result
    }

    /// Joins the slow lane: announce presence on the monitor word (which
    /// permanently blocks new elided acquires until we leave), wait out
    /// any in-flight elided holder, then take the mutex.
    fn lock_slow(&self) -> MutexGuard<'_, Inner<S>> {
        if self.config.fast_path_enabled() {
            self.word.join_slow();
            self.word.await_fast_clear();
        }
        self.inner.lock()
    }

    /// Leaves the slow lane. Call only after the matching `lock_slow`
    /// guard has been dropped: presence must outlive the mutex hold, or
    /// a fast CAS could slip in while the caller still occupies.
    fn unlock_slow(&self) {
        if self.config.fast_path_enabled() {
            self.word.leave_slow();
        }
    }

    /// Adopts every occupancy currently published in the flat-combining
    /// slab, running each against `inner` under this thread's exclusive
    /// hold. A panicking op is forwarded to its publisher, not to the
    /// combiner. Near-free when nothing is published (one relaxed load).
    fn combine_published(&self, inner: &mut Inner<S>) {
        if !self.config.fast_path_enabled() {
            return;
        }
        let ptr = inner as *mut Inner<S> as *mut ();
        self.fc.drain(|op| {
            self.stats.counters.record_combined_exit();
            catch_unwind(AssertUnwindSafe(|| op(ptr))).err()
        });
    }

    fn enter_inner<R>(
        &self,
        drain: Option<DrainFn<S>>,
        f: impl FnOnce(&mut MonitorGuard<'_, S>) -> R,
    ) -> R {
        let me = thread_id::current();
        assert_ne!(
            self.owner.load(Ordering::Relaxed),
            me,
            "Monitor::enter called re-entrantly from the same thread"
        );
        self.stats.counters.record_enter();
        let started = self.stats.timing_enabled().then(Instant::now);
        if self.config.fast_path_enabled() && self.word.try_acquire_fast() {
            let tctx = telemetry::context_enter(self.token);
            return self.run_elided(me, started, tctx, drain, f);
        }
        self.enter_slow(me, started, drain, f)
    }

    /// The slow-lane half of an enter, for a caller that has already
    /// identified itself, ruled out re-entrancy, counted the enter and
    /// found the elided lane shut.
    fn enter_slow<R>(
        &self,
        me: u64,
        started: Option<Instant>,
        drain: Option<DrainFn<S>>,
        f: impl FnOnce(&mut MonitorGuard<'_, S>) -> R,
    ) -> R {
        let tctx = telemetry::context_enter(self.token);
        let lock_timer = self.stats.phases.start(Phase::Lock);
        let mut inner = self.lock_slow();
        lock_timer.finish();
        telemetry::record(telemetry::EventKind::EnterSlow, 0, 0);
        self.owner.store(me, Ordering::Relaxed);
        inner.dirty = false;
        inner.signaled = false;
        inner.tracked_pending = false;
        let mut guard = MonitorGuard {
            monitor: self,
            inner: Some(inner),
            started,
            elided: false,
            drain,
            tctx,
        };
        let result = f(&mut guard);
        drop(guard);
        result
    }

    /// Runs one occupancy over the elided lane: the CAS already granted
    /// exclusive ownership, so the guard works on the mutex's payload
    /// through a raw pointer and exit is a single atomic AND. Sound
    /// because `try_acquire_fast` only succeeds at `presence == 0` —
    /// nobody holds or awaits the mutex, and (since blocked waiters keep
    /// presence) nobody is waiting, so no relay can be owed.
    fn run_elided<R>(
        &self,
        me: u64,
        started: Option<Instant>,
        tctx: Option<u64>,
        drain: Option<DrainFn<S>>,
        f: impl FnOnce(&mut MonitorGuard<'_, S>) -> R,
    ) -> R {
        self.stats.counters.record_fast_path_enter();
        telemetry::record(telemetry::EventKind::EnterElided, 0, 0);
        self.owner.store(me, Ordering::Relaxed);
        {
            let inner = unsafe { &mut *self.inner.data_ptr() };
            inner.dirty = false;
            inner.signaled = false;
            inner.tracked_pending = false;
        }
        let mut guard = MonitorGuard {
            monitor: self,
            inner: None,
            started,
            elided: true,
            drain,
            tctx,
        };
        let result = f(&mut guard);
        drop(guard);
        result
    }

    /// Convenience: enter, mutate the state, exit (relaying as always).
    ///
    /// Unlike [`Monitor::enter`], a `with` that finds another thread
    /// *inside* the monitor publishes the whole occupancy into the
    /// monitor's flat-combining slab and the holder runs it at exit. The
    /// extra `Send` bounds let the closure and its result cross to the
    /// combining thread. Publishing is an optimisation, not a promise:
    /// when the monitor is merely kept off the elided lane by parked
    /// waiters, when no holder is left to combine, or when the slab is
    /// full, the call queues on the mutex like `enter`.
    pub fn with<R: Send>(&self, f: impl FnOnce(&mut S) -> R + Send) -> R {
        self.with_combinable(None, f)
    }

    /// Convenience: [`Monitor::enter_tracked`], mutate, exit — combined
    /// under contention exactly like [`Monitor::with`].
    pub fn with_tracked<R: Send>(&self, f: impl FnOnce(&mut S) -> R + Send) -> R
    where
        S: TrackedState,
    {
        self.with_combinable(Some(drain_cells::<S>), f)
    }

    /// The shared `with`/`with_tracked` engine: elided lane when
    /// quiescent, flat-combining publication when another thread holds
    /// the monitor, plain slow lane when nobody does (only waiters'
    /// presence shut the lane), the fast path is off or the slab is
    /// full.
    fn with_combinable<R: Send>(
        &self,
        drain: Option<DrainFn<S>>,
        f: impl FnOnce(&mut S) -> R + Send,
    ) -> R {
        if !self.config.fast_path_enabled() {
            return self.enter_inner(drain, |g| f(g.state_mut()));
        }
        let me = thread_id::current();
        assert_ne!(
            self.owner.load(Ordering::Relaxed),
            me,
            "Monitor::with called re-entrantly from the same thread"
        );
        let started = self.stats.timing_enabled().then(Instant::now);
        if self.word.try_acquire_fast() {
            self.stats.counters.record_enter();
            let tctx = telemetry::context_enter(self.token);
            return self.run_elided(me, started, tctx, drain, |g| f(g.state_mut()));
        }
        // The lane is shut but nobody holds the monitor: parked waiters
        // keep their presence while they sleep. There is no combiner to
        // publish to, so take the slow lane like `enter`. The read may be
        // stale either way without harm — seen free while held, this
        // caller queues on the mutex; seen held while free, it publishes
        // below and `await_done` hands the op straight back.
        if self.owner.load(Ordering::Relaxed) == 0 {
            self.stats.counters.record_enter();
            return self.enter_slow(me, started, drain, |g| f(g.state_mut()));
        }
        // Contended: publish the occupancy and let the current holder
        // combine it into its own exit. The op writes its result into
        // `result` on this stack frame; `await_done` blocks until the
        // op was consumed (or withdrawn back to us), so the frame
        // outlives every access.
        let mut result: Option<R> = None;
        let out = SendPtr(&mut result as *mut Option<R>);
        let stats = &self.stats;
        let op: Box<dyn FnOnce(*mut ()) + Send> = Box::new(move |ptr: *mut ()| {
            // Move the whole `SendPtr` in (not just its pointer field),
            // so the closure's `Send` comes from the wrapper.
            let out = out;
            let inner = unsafe { &mut *(ptr as *mut Inner<S>) };
            let value = f(&mut inner.state);
            inner.dirty = true;
            match drain {
                None => inner.mgr.note_mutation(),
                Some(drain) => {
                    // Inline tracked flush: name exactly the expressions
                    // this op's cell writes touched, as flush_tracked
                    // would for a first-class occupancy.
                    let Inner {
                        state, mgr, sink, ..
                    } = &mut *inner;
                    sink.reset();
                    drain(state, sink);
                    if sink.is_blanket() || sink.touched().is_empty() {
                        mgr.note_mutation();
                    } else {
                        stats.counters.record_named_mutation();
                        mgr.note_mutation_named(sink.touched());
                    }
                }
            }
            unsafe { *out.0 = Some(value) };
        });
        // The op borrows `f`'s captures for this call's lifetime only;
        // the slab stores it as `'static`. Sound: every path below
        // blocks until the op is consumed, withdrawn, or run locally —
        // it cannot outlive this frame.
        let op: FcOp = unsafe { std::mem::transmute(op) };
        match self.fc.publish(op) {
            Ok(ticket) => {
                self.stats.counters.record_fc_publish();
                let outcome = self
                    .fc
                    .await_done(ticket, || self.owner.load(Ordering::Relaxed) != 0);
                match outcome {
                    FcOutcome::Done => {
                        // The combiner ran us as one occupancy: count it
                        // here, on the thread that owns the semantics.
                        self.stats.counters.record_enter();
                        telemetry::record_for(
                            self.token,
                            telemetry::EventKind::EnterCombined,
                            0,
                            0,
                        );
                        if let Some(started) = started {
                            self.stats.enter_exit.record(started.elapsed());
                        }
                        result.expect("combined op finished without a result")
                    }
                    FcOutcome::Panicked(payload) => {
                        self.stats.counters.record_enter();
                        resume_unwind(payload)
                    }
                    FcOutcome::Withdrawn(op) => {
                        // Nobody was left to combine for us — run the op
                        // as a first-class slow-lane occupancy. The op
                        // does its own mutation naming, so no guard-level
                        // drain hook.
                        self.enter_inner(None, |g| g.apply_fc(op));
                        result.expect("withdrawn op ran without a result")
                    }
                }
            }
            Err(op) => {
                // Slab full: overload means combining is already paying
                // for itself elsewhere; just take the slow lane.
                self.enter_inner(None, |g| g.apply_fc(op));
                result.expect("fallback op ran without a result")
            }
        }
    }

    /// The instrumentation bundle shared by all users of this monitor.
    pub fn stats(&self) -> &Arc<MonitorStats> {
        &self.stats
    }

    /// A point-in-time snapshot of the instrumentation.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Drains the flight recorder and returns the events attributed to
    /// *this* monitor, oldest first.
    ///
    /// The recorder is process-global and consuming: events belonging
    /// to other monitors drained here are discarded, so interleave
    /// `drain_trace` calls across monitors only if that loss is
    /// acceptable (the bench harness traces one monitor at a time).
    /// Returns an empty vector unless recording was enabled via
    /// [`telemetry::set_enabled`] (or `AUTOSYNCH_TRACE=1` through the
    /// bench harness) while the traced section ran.
    pub fn drain_trace(&self) -> Vec<telemetry::TraceEvent> {
        let mut events = telemetry::drain_all().events;
        events.retain(|e| e.monitor == self.token);
        events
    }

    /// The monitor's configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Consumes the monitor and returns the protected state. Safe by
    /// construction: ownership proves no thread can be inside.
    pub fn into_inner(self) -> S {
        self.inner.into_inner().state
    }

    /// Whether the monitor is quiescent: no thread waiting, no signal
    /// in flight, no live tag. True between well-formed runs; the test
    /// suites use it to detect leaked waiters.
    pub fn is_quiescent(&self) -> bool {
        let counts = self.counts();
        counts.waiting == 0 && counts.signaled == 0 && counts.live_tags == 0
    }

    /// The most recent shared-expression snapshot the change-driven
    /// diff published, **read without taking the monitor lock**: the
    /// diff epoch plus one `Option<i64>` per registered expression.
    /// `Some` values form a *consistent cut* — they were all evaluated
    /// against the same state under one lock hold; `None` marks
    /// expressions that diff did not evaluate (no active dependents at
    /// the time). Returns `None` when no diff has been published (only
    /// the `Routed` mode publishes), when the monitor
    /// outgrew the ring's per-slot capacity, or when a validate-retry
    /// read could not complete. `Routed`-mode waiters run their
    /// lock-free self-checks against exactly this read.
    ///
    /// The read follows the seqlock protocol of the manager's snapshot
    /// ring: copy, then validate the slot's sequence; a torn copy is
    /// detected and retried (counted in the `ring_retries` counter),
    /// never returned.
    pub fn latest_expr_snapshot(&self) -> Option<(u64, Vec<Option<i64>>)> {
        self.ring.read_latest(&self.stats.counters)
    }

    /// Number of waiters currently enqueued on the slot-bucketed wake
    /// gates (`Routed` mode); always 0 in the other modes. Takes only
    /// the gate locks, never the monitor lock — usable by observers
    /// while the monitor is occupied.
    pub fn parked_waiters(&self) -> usize {
        self.wake.queued_total()
    }

    /// Delivers previously announced routed-mode wakes (gate/transient
    /// broadcasts, bucket sweep starts, baton re-injections), stamped
    /// with the publishing epoch. Must be called **after** the monitor
    /// lock is released — the announce (under the lock) / deliver
    /// (after it) pairing is the routed protocol's contract.
    fn deliver_routed_wakes(&self, wakes: &[RoutedWake], epoch: u64) {
        for &wake in wakes {
            self.wake.deliver(wake, epoch, &self.stats.counters);
        }
    }

    /// Diagnostic counts of the condition manager, by name.
    pub fn counts(&self) -> ManagerCounts {
        let inner = self.lock_slow();
        let counters = self.stats.counters.snapshot();
        let counts = ManagerCounts {
            entries: inner.mgr.entry_count(),
            waiting: inner.mgr.waiting_count(),
            signaled: inner.mgr.signaled_count(),
            live_tags: inner.mgr.live_tag_count(),
            compiled: inner.mgr.compiled_count(),
            ladder_skips: counters.ladder_skips,
            cursor_resumes: counters.cursor_resumes,
            transient_cache_hits: counters.transient_cache_hits,
            fast_path_enters: counters.fast_path_enters,
            combined_exits: counters.combined_exits,
        };
        drop(inner);
        self.unlock_slow();
        counts
    }
}

/// The in-monitor view handed to [`Monitor::enter`] closures.
///
/// Dropping the guard (or returning from the closure) runs the relay
/// signaling rule and releases the monitor.
pub struct MonitorGuard<'a, S> {
    monitor: &'a Monitor<S>,
    inner: Option<MutexGuard<'a, Inner<S>>>,
    /// Entry timestamp for the `enter_exit` latency stat; `None` when
    /// timing is disabled.
    started: Option<Instant>,
    /// This occupancy holds the monitor through the elided (CAS) lane:
    /// `inner` is `None` and the payload is reached through the mutex's
    /// raw data pointer — sound because the monitor-word CAS granted
    /// the same exclusivity the mutex would. A wait downgrades the
    /// occupancy to the slow lane first.
    elided: bool,
    /// The tracked-cell drain hook, when entered via
    /// [`Monitor::enter_tracked`]. Writes defer their naming to a flush
    /// right before each relay, where the dirty cells report exactly
    /// the touched expressions.
    drain: Option<DrainFn<S>>,
    /// The previous flight-recorder monitor context, restored at exit;
    /// `None` when tracing was off at enter (no TLS traffic then).
    tctx: Option<u64>,
}

impl<S> std::fmt::Debug for MonitorGuard<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorGuard")
            .field("held", &(self.elided || self.inner.is_some()))
            .field("elided", &self.elided)
            .finish()
    }
}

impl<S> MonitorGuard<'_, S> {
    fn inner(&self) -> &Inner<S> {
        if self.elided {
            // Exclusive by the monitor-word protocol: the CAS set
            // OCCUPIED at presence 0, and both block any other access.
            return unsafe { &*self.monitor.inner.data_ptr() };
        }
        self.inner.as_ref().expect("monitor guard already released")
    }

    fn inner_mut(&mut self) -> &mut Inner<S> {
        if self.elided {
            return unsafe { &mut *self.monitor.inner.data_ptr() };
        }
        self.inner.as_mut().expect("monitor guard already released")
    }

    /// Moves an elided occupancy onto the slow lane: announce presence,
    /// take the mutex (uncontended by protocol — presence was 0 and
    /// OCCUPIED blocks newcomers from passing `await_fast_clear`), then
    /// clear OCCUPIED. Required before any blocking wait: waiters must
    /// be on the mutex/condvar protocol, and must hold presence so
    /// other threads' fast acquires stay rejected while they sleep.
    fn downgrade_if_elided(&mut self) {
        if !self.elided {
            return;
        }
        self.monitor.word.join_slow();
        let inner = self.monitor.inner.lock();
        self.inner = Some(inner);
        self.elided = false;
        self.monitor.word.release_fast();
    }

    /// Runs a flat-combining op against this occupancy's `Inner` — the
    /// local-execution path for ops that could not stay published
    /// (withdrawn, or the slab was full).
    fn apply_fc(&mut self, op: FcOp) {
        let inner = self.inner_mut();
        op(inner as *mut Inner<S> as *mut ());
    }

    /// Shared access to the monitor state.
    ///
    /// Reading is all this is for. The monitor learns of a mutation only
    /// through [`MonitorGuard::state_mut`],
    /// [`MonitorGuard::state_mut_touching`] or a
    /// [`Tracked`](crate::tracked::Tracked) cell, and an occupancy that
    /// used none of them owes no relay: a write smuggled through interior
    /// mutability behind this reference is invisible to every signaling
    /// mode, and waiters it satisfies are not woken.
    pub fn state(&self) -> &S {
        &self.inner().state
    }

    /// Mutable access to the monitor state. Marks the occupancy dirty:
    /// it now owes a relay, at exit or before it next blocks, and the
    /// change-driven relay re-diffs the expression snapshot. In a tracked
    /// occupancy
    /// ([`Monitor::enter_tracked`]) the mutation's naming is deferred:
    /// the dirty cells are drained right before the next relay.
    pub fn state_mut(&mut self) -> &mut S {
        let tracked = self.drain.is_some();
        let inner = self.inner_mut();
        inner.dirty = true;
        if tracked {
            inner.tracked_pending = true;
        } else {
            inner.mgr.note_mutation();
        }
        &mut inner.state
    }

    /// Mutable access that **names the touched shared expressions** for
    /// this write: the dynamic counterpart of
    /// [`Tracked`](crate::tracked::Tracked) cells, for callers (like the
    /// DSL runtime) that know per-write which expressions a mutation
    /// can affect but cannot restructure their state into cells. The
    /// same contract as `Tracked` binding applies: `touched` must cover
    /// every expression whose value the write can change, or wakeups
    /// can be lost (the `validate_relay` checker catches violations).
    pub fn state_mut_touching(&mut self, touched: &[ExprId]) -> &mut S {
        self.monitor.stats.counters.record_named_mutation();
        let inner = self.inner_mut();
        inner.dirty = true;
        inner.mgr.note_mutation_named(touched);
        &mut inner.state
    }

    /// Compiles a condition **from inside the monitor** — the in-guard
    /// counterpart of [`Monitor::compile`], for runtimes (like the DSL
    /// interpreter) that discover conditions while already holding the
    /// lock. Interns into the same table; the returned handle is valid
    /// on this monitor forever.
    pub fn compile(&mut self, cond: impl IntoPredicate<S>) -> Cond<S> {
        let pred = cond.into_predicate();
        let token = self.monitor.token;
        let (slot, arc, condvar) = self.inner_mut().mgr.compile(pred);
        Cond::new(arc, slot, token, condvar)
    }

    /// Drains pending tracked-cell dirt into the condition manager.
    /// Must run before every relay of a tracked occupancy — a relay
    /// that misses a mutation would skip the diff and lose wakeups.
    fn flush_tracked(&mut self) {
        let Some(drain) = self.drain else { return };
        let monitor = self.monitor;
        let stats = &monitor.stats;
        let inner: &mut Inner<S> = if self.elided {
            unsafe { &mut *monitor.inner.data_ptr() }
        } else {
            match self.inner.as_mut() {
                Some(inner) => inner,
                None => return,
            }
        };
        if !inner.tracked_pending {
            return;
        }
        inner.tracked_pending = false;
        let Inner {
            state, mgr, sink, ..
        } = inner;
        sink.reset();
        drain(state, sink);
        if sink.is_blanket() || sink.touched().is_empty() {
            // A dirty unbound cell, or `state_mut` taken without
            // dirtying any cell: assume anything changed.
            mgr.note_mutation();
        } else {
            stats.counters.record_named_mutation();
            mgr.note_mutation_named(sink.touched());
        }
    }

    /// The paper's `waituntil(P)` on a **compiled** condition: blocks
    /// until `cond` holds, releasing the monitor while blocked. On
    /// return the condition is true and the monitor is held.
    ///
    /// The condition's analysis ran once, inside [`Monitor::compile`];
    /// this call performs no allocation, normalization or key hashing —
    /// just a fast-path evaluation and, if false, an O(1) registration
    /// on the precompiled predicate-table entry.
    ///
    /// # Panics
    ///
    /// Panics when `cond` was compiled by a different monitor.
    pub fn wait(&mut self, cond: &Cond<S>) {
        self.wait_cond(cond, None);
    }

    /// Like [`MonitorGuard::wait`] with a timeout. Returns `true` when
    /// the condition held within the timeout, `false` otherwise. (An
    /// extension over the paper, which has no timed waituntil.)
    ///
    /// # Panics
    ///
    /// Panics when `cond` was compiled by a different monitor.
    pub fn wait_timeout(&mut self, cond: &Cond<S>, timeout: Duration) -> bool {
        self.wait_cond(cond, Some(Instant::now() + timeout))
    }

    fn wait_cond(&mut self, cond: &Cond<S>, deadline: Option<Instant>) -> bool {
        let monitor = self.monitor;
        assert_eq!(
            cond.owner(),
            monitor.token,
            "waited on a Cond compiled by a different monitor"
        );
        // Fig. 6: "if P is false ..." — the fast path avoids registration.
        let inner = self.inner_mut();
        if inner.eval(monitor, cond.predicate()) {
            return true;
        }
        inner.mgr.tally.waits += 1;
        let pid = inner
            .mgr
            .register_waiter_slot(cond.slot(), cond.predicate_arc(), &monitor.stats);
        self.wait_registered(pid, Some(cond), deadline)
    }

    /// The paper's `waituntil(P)` for **transient** conditions — ones
    /// whose globalized constants never repeat (ticket numbers, barrier
    /// generations), so compiling them would pin an unbounded set of
    /// conditions in the [`Monitor::compile`] table. The analysis runs
    /// per call and the predicate-table entry is LRU-evictable (§5.2's
    /// inactive list), exactly what one-shot conditions need.
    ///
    /// **Wake routing trade-off** (`SignalMode::Routed`): slot-targeted
    /// wakes need a stable bucket identity, and a transient entry has
    /// no compiled slot — but its *interned predicate* is still an
    /// identity, and a repeating one earns the targeted treatment. Each
    /// gate keeps a bounded **LRU of graduated per-predicate buckets**
    /// ([`MonitorConfig::transient_bucket_cap`], default 16): a
    /// transient waiter whose interned predicate owns (or is granted)
    /// a graduated bucket parks there and gets the full token-sweep
    /// discipline — one targeted unpark per transient wake instead of
    /// the herd (the `transient_cache_hits` counter reports repeat
    /// admissions). Only the overflow parks in the gate's **broadcast
    /// bucket** and is woken by the PR-3-style gate broadcast whenever
    /// any expression the gate owns changes (the global gate broadcasts
    /// on every mutation).
    ///
    /// **Capacity/eviction contract**: graduation is strictly an
    /// admission-time decision. The LRU only ever evicts an *idle*
    /// bucket — no linked waiters and no in-flight claimer — so an
    /// evicted key can have no parked waiter to lose; its *next* waiter
    /// simply re-applies and, if the cache is full of occupied buckets,
    /// falls back to the broadcast bucket. Evicted keys fall back,
    /// never strand: every slotless waiter is counted by the gate's
    /// transient mirror, so the relay announces the gate's transient
    /// wake (broadcast + one sweep per graduated bucket) exactly as if
    /// no graduation existed. For any condition whose key repeats
    /// predictably, prefer [`Monitor::compile`] + [`MonitorGuard::wait`]
    /// and get both the cheap wait path and the value-directed wakes.
    pub fn wait_transient(&mut self, cond: impl IntoPredicate<S>) {
        self.wait_until_predicate(cond.into_predicate(), None);
    }

    /// Like [`MonitorGuard::wait_transient`] with a timeout. Returns
    /// `true` when the condition held within the timeout.
    pub fn wait_transient_timeout(
        &mut self,
        cond: impl IntoPredicate<S>,
        timeout: Duration,
    ) -> bool {
        self.wait_until_predicate(cond.into_predicate(), Some(Instant::now() + timeout))
    }

    /// Non-blocking check: whether `cond` holds right now. Never waits
    /// and never registers anything with the condition manager.
    pub fn holds(&mut self, cond: impl IntoPredicate<S>) -> bool {
        let pred = cond.into_predicate();
        let monitor = self.monitor;
        self.inner_mut().eval(monitor, &pred)
    }

    fn wait_until_predicate(&mut self, pred: Predicate<S>, deadline: Option<Instant>) -> bool {
        let monitor = self.monitor;
        // Fig. 6: "if P is false ..." — the fast path avoids registration.
        let inner = self.inner_mut();
        if inner.eval(monitor, &pred) {
            return true;
        }
        inner.mgr.tally.waits += 1;
        let pid = inner.mgr.register_waiter(pred, &monitor.stats);
        self.wait_registered(pid, None, deadline)
    }

    /// The shared wait loop: both the compiled (`wait`) and per-call
    /// (`wait_transient`) paths land here once the waiter is registered.
    /// `cond` is the compiled condition when the wait came through one:
    /// its slot is the `Routed` mode's bucket identity (per-call waits
    /// have none and fall back to the broadcast bucket), and the condvar
    /// modes block on the condition variable it carries.
    fn wait_registered(
        &mut self,
        pid: PredId,
        cond: Option<&Cond<S>>,
        deadline: Option<Instant>,
    ) -> bool {
        // Wait latency brackets the whole blocked span (registration to
        // return), feeding the `wait` histogram the tail-latency rows
        // the obs harness reports. Gated like the signaler hold stat on
        // the runtime phase switch (which run-timed harnesses flip
        // after construction), so the clock read is skipped when
        // timing is off.
        let started = self.monitor.stats.phases.is_enabled().then(Instant::now);
        let wait_id = if telemetry::enabled() {
            telemetry::next_wait_id()
        } else {
            0
        };
        telemetry::record(
            telemetry::EventKind::WaitRegistered,
            cond.map_or(u64::MAX, |c| u64::from(c.slot())),
            wait_id << 1,
        );
        let satisfied = self.wait_registered_inner(pid, cond, deadline, wait_id);
        let elapsed_ns = started.map_or(0, |started| {
            let elapsed = started.elapsed();
            self.monitor.stats.wait.record(elapsed);
            elapsed.as_nanos() as u64
        });
        telemetry::record(
            telemetry::EventKind::WaitResolved,
            wait_id,
            (elapsed_ns << 1) | u64::from(satisfied),
        );
        satisfied
    }

    fn wait_registered_inner(
        &mut self,
        pid: PredId,
        cond: Option<&Cond<S>>,
        deadline: Option<Instant>,
        wait_id: u64,
    ) -> bool {
        // Borrowed through the `Copy` monitor reference, not through
        // `self`: the stats outlive every `&mut self` use below.
        let monitor = self.monitor;
        let stats = &monitor.stats;

        // An elided occupancy is about to block: move onto the mutex
        // protocol (keeping word presence, so fast acquires stay
        // rejected for as long as this waiter exists).
        self.downgrade_if_elided();

        // Any tracked writes of this occupancy must reach the manager
        // before the relay below runs its diff.
        self.flush_tracked();

        if monitor.config.signal_mode() == SignalMode::Routed {
            return self.wait_routed(pid, cond.map(Cond::slot), deadline, wait_id, stats);
        }

        // A compiled condition carries its entry's condition variable; a
        // transient wait clones it out of the entry, once.
        let transient_cv;
        let cv: &Condvar = match cond {
            Some(cond) => cond.wake(),
            None => {
                transient_cv = self.inner().mgr.condvar(pid);
                &transient_cv
            }
        };

        loop {
            // "condMgr.relaySignal(); wait C" — if this occupancy owes a
            // relay, run it (which passes on any baton it holds), then
            // block. A first pass that neither mutated nor was signaled
            // owes nothing; every later pass holds the baton its futile
            // wakeup absorbed.
            {
                let inner = self.inner_mut();
                inner.relay_if_owed(monitor);
                inner.flush_tally(monitor);
            }

            monitor.owner.store(0, Ordering::Relaxed);
            // Condvar mode has no park slot, but the commit-to-block /
            // post-wake-check pair is the same causal shape the span
            // stitcher consumes: `Park` (a = 0, no published epochs
            // here) before the block, `SelfCheck` (b = 0, the check
            // reads the live state under the lock) after it.
            telemetry::record(telemetry::EventKind::Park, 0, wait_id);
            let await_timer = stats.phases.start(Phase::Await);
            let timed_out = match deadline {
                None => {
                    cv.wait(self.inner.as_mut().expect("guard released"));
                    false
                }
                Some(deadline) => cv
                    .wait_until(self.inner.as_mut().expect("guard released"), deadline)
                    .timed_out(),
            };
            await_timer.finish();
            monitor.owner.store(thread_id::current(), Ordering::Relaxed);
            stats.counters.record_wakeup();

            let inner = self.inner_mut();
            let holds = inner.eval_entry(monitor, pid);
            telemetry::record(telemetry::EventKind::SelfCheck, u64::from(holds), 0);

            if holds {
                inner.mgr.consume_signal(pid, stats);
                inner.signaled = true;
                return true;
            }

            if timed_out {
                inner.mgr.tally.timeouts += 1;
                if inner.mgr.on_timeout(pid, stats) {
                    // We absorbed a signal meant for someone: pass it on.
                    inner.relay(monitor);
                }
                return false;
            }

            // Futile wakeup: another thread barged in and falsified the
            // condition; rejoin the waiting pool. The wakeup's token is
            // the baton now (a spurious wakeup cannot be told apart here
            // and relays too, which is harmless).
            inner.mgr.tally.futile_wakeups += 1;
            inner.mgr.mark_futile(pid, stats);
            inner.signaled = true;
        }
    }

    /// The `Routed`-mode wait: instead of blocking on a per-entry
    /// condition variable under the monitor mutex, the waiter enqueues
    /// in its slot bucket, parks on a private token, and services its
    /// own wakeups — re-checking its predicate against the lock-free
    /// snapshot ring and re-parking, without any lock, while the
    /// snapshot rules the predicate out. Only a maybe-true verdict
    /// leaves the bucket (gate lock) and takes the monitor lock to
    /// confirm-and-claim; that confirm is also the fallback for
    /// predicates the snapshot cannot decide (opaque/global-gate).
    ///
    /// Invariants: the waiter stays enqueued for the whole park/re-check
    /// loop (a publish during a re-check re-arms the sticky,
    /// epoch-stamped token, so the loop cannot sleep through it), and
    /// enqueue/re-enqueue happen under the monitor lock, serializing
    /// with every publish-and-announce. The token rules:
    ///
    /// * a consumed unpark in a slot bucket is a **sweep token**; a
    ///   false self-check marks this waiter observed and forwards it to
    ///   the next unobserved bucket peer (gate lock only);
    /// * a successful claim carries the token into the monitor and
    ///   re-injects it at exit (the `signaled` baton, waiter-side) —
    ///   bucket peers wait on the same compiled predicate, which may
    ///   still be true after this occupancy;
    /// * a futile claim re-enqueues, marks itself observed at the
    ///   manager's current epoch (its confirm just read the live
    ///   state), and forwards;
    /// * any dequeue drains a residual (unconsumed) token from the park
    ///   slot and folds it into the held token — tokens belong to the
    ///   bucket, never to the leaver.
    fn wait_routed(
        &mut self,
        pid: PredId,
        slot: Option<u32>,
        deadline: Option<Instant>,
        wait_id: u64,
        stats: &Arc<MonitorStats>,
    ) -> bool {
        let monitor = self.monitor;
        let (wake, pred, gate) = {
            let inner = self.inner();
            (
                inner.mgr.wake_lot(),
                inner.mgr.entry_pred_arc(pid),
                inner.mgr.park_gate(pid),
            )
        };
        let park = Arc::new(ParkSlot::new());
        park.set_trace_id(wait_id);
        // A compiled waiter goes straight to its slot bucket. A
        // slotless one runs the transient admission gate: repeat
        // `PredKey`s graduate to a swept per-predicate bucket (LRU,
        // bounded), first-timers and overflow land on the broadcast
        // bucket.
        let (mut ticket, bucket) = match slot {
            Some(s) => {
                let bucket = BucketKey::Slot(s);
                (wake.enqueue(gate, bucket, Arc::clone(&park), pid), bucket)
            }
            None => {
                let (ticket, bucket, hit) = wake.enqueue_transient(gate, Arc::clone(&park), pid);
                if hit {
                    self.inner_mut().mgr.tally.transient_cache_hits += 1;
                }
                (ticket, bucket)
            }
        };
        let swept = bucket.is_swept();
        let mut wake_buf: Vec<RoutedWake> = Vec::new();
        let mut snap_buf: Vec<Option<i64>> = Vec::new();
        // A token a futile claim could not hand off under the monitor
        // lock (token traffic belongs on waiter threads, off-lock): it
        // is forwarded right after the loop-top relay releases the
        // lock, with the matching in-flight claim retired then.
        let mut carried: Option<SweepToken> = None;

        // Loop invariant at the top: the monitor lock is held and the
        // waiter is enqueued in its bucket.
        loop {
            // Pass the baton before blocking (§4.2's relay-on-wait):
            // publish this occupancy's mutations and announce the
            // routed wakes, delivered below outside the lock.
            // Unconditional, unlike the condvar loop's: here the relay is
            // also what publishes the snapshot the lock-free self-checks
            // below read and what the routed wakes are drained after.
            let wake_epoch = {
                let inner = self.inner_mut();
                inner.relay(monitor);
                inner.flush_tally(monitor);
                inner.mgr.drain_routed_wakes(&mut wake_buf)
            };
            monitor.owner.store(0, Ordering::Relaxed);
            drop(self.inner.take());
            monitor.deliver_routed_wakes(&wake_buf, wake_epoch);
            if let Some(t) = carried.take() {
                // The futile claim's token, handed off now that the
                // lock is released; the in-flight claim covered its
                // bucket across the gap.
                t.forward(&wake, &stats.counters);
                wake.end_claim(gate, bucket);
            }

            // Park + self-service re-checks + token forwarding, no
            // monitor lock held.
            let mut timed_out = false;
            let mut token: Option<SweepToken> = None;
            loop {
                let await_timer = stats.phases.start(Phase::Await);
                let outcome = park.park(deadline);
                await_timer.finish();
                match outcome {
                    ParkOutcome::TimedOut => {
                        timed_out = true;
                        break;
                    }
                    ParkOutcome::Woken { epoch } => {
                        stats.counters.record_wakeup();
                        let recheck_timer = stats.phases.start(Phase::ParkRecheck);
                        stats.counters.record_waiter_self_check();
                        let snap_epoch = monitor
                            .ring
                            .read_latest_into(&stats.counters, &mut snap_buf);
                        let verdict = snapshot_verdict(&pred, snap_epoch, &snap_buf);
                        recheck_timer.finish();
                        telemetry::record(
                            telemetry::EventKind::SelfCheck,
                            matches!(verdict, Verdict::MayHold) as u64,
                            snap_epoch.unwrap_or(0),
                        );
                        match verdict {
                            Verdict::False { epoch: seen } => {
                                stats.counters.record_false_wakeup();
                                park.observed(seen);
                                if swept {
                                    // The wake we consumed belongs to
                                    // the bucket: hand it to the next
                                    // unobserved peer. The checked cut
                                    // subsumes the token's stamp.
                                    let mut t = SweepToken::new(gate, bucket, epoch);
                                    t.raise(seen);
                                    t.forward(&wake, &stats.counters);
                                }
                            }
                            Verdict::MayHold => {
                                if swept {
                                    token = Some(SweepToken::new(gate, bucket, epoch));
                                }
                                break;
                            }
                        }
                    }
                }
            }

            // Claim: leave the bucket under the gate's lock, drain any
            // residual token (it belongs to the bucket), then confirm
            // against the live state under the monitor lock. A swept
            // leaver registers as an in-flight claimer *atomically with
            // the dequeue*, so the no-lost-token audit keeps seeing the
            // bucket as covered while any token travels with us.
            wake.dequeue(ticket, swept);
            if swept {
                if let Some(residual) = park.take_pending() {
                    match &mut token {
                        Some(t) => t.raise(residual),
                        None => token = Some(SweepToken::new(gate, bucket, residual)),
                    }
                }
            }
            if timed_out {
                // A cancelling leaver has no claim to make on the
                // token's behalf: hand any residual token back to the
                // bucket now, before touching the monitor lock at all
                // (the timeout confirm below then runs token-free; if
                // it happens to find the predicate true, the already
                // forwarded token simply woke a peer early).
                if let Some(t) = token.take() {
                    t.forward(&wake, &stats.counters);
                }
            }
            let lock_timer = stats.phases.start(Phase::Lock);
            self.inner = Some(monitor.inner.lock());
            lock_timer.finish();
            monitor.owner.store(thread_id::current(), Ordering::Relaxed);

            let holds = self.inner_mut().eval_entry(monitor, pid);
            if holds {
                let inner = self.inner_mut();
                inner.mgr.consume_signal(pid, stats);
                // The baton rule, waiter-side: re-inject the token at
                // monitor exit so the next bucket peer (same compiled
                // predicate, possibly still true) can confirm against
                // the post-claim state. The announcement covers the
                // bucket for the validator across this occupancy; it
                // takes over from our in-flight claim, which retires.
                if let (true, Some(_)) = (swept, token) {
                    inner.mgr.note_reinject(gate, bucket);
                }
                if swept {
                    wake.end_claim(gate, bucket);
                }
                inner.dirty = false;
                inner.signaled = false;
                return true;
            }

            if timed_out {
                let inner = self.inner_mut();
                inner.mgr.tally.timeouts += 1;
                let _ = inner.mgr.on_timeout(pid, stats);
                inner.dirty = false;
                // The residual token (if any) was already forwarded
                // before the lock was taken; only the claim remains.
                if swept {
                    wake.end_claim(gate, bucket);
                }
                return false;
            }

            // Futile claim: another claimer barged in and falsified the
            // condition first. Re-enqueue under the monitor lock
            // (publishers cannot miss us) and mark this waiter observed
            // at the current epoch (the confirm just read the live
            // state, at least as new as any published cut). The token
            // is *carried*, not forwarded here: the handoff is a gate
            // lock + futex wake that belongs off the monitor lock, so
            // it runs right after the loop-top relay releases it — the
            // still-open in-flight claim keeps the bucket covered until
            // then.
            let epoch_now = {
                let inner = self.inner_mut();
                inner.mgr.tally.futile_wakeups += 1;
                inner.mgr.mark_futile(pid, stats);
                inner.dirty = false;
                inner.mgr.current_epoch()
            };
            ticket = wake.enqueue(gate, bucket, Arc::clone(&park), pid);
            if let Some(mut t) = token {
                park.observed(epoch_now.max(t.epoch()));
                t.raise(epoch_now);
                carried = Some(t);
            } else if swept {
                // No token travelled with us: nothing to hand off, the
                // claim retires immediately (gate lock only).
                wake.end_claim(gate, bucket);
            }
        }
    }

    fn exit(&mut self) {
        if self.elided {
            return self.exit_elided();
        }
        // Tracked writes of this occupancy must reach the manager
        // before the exit relay diffs.
        self.flush_tracked();
        let Some(mut inner) = self.inner.take() else {
            return;
        };
        // Adopt any published flat-combining occupancies first: their
        // mutations fold into this exit's single relay pass below.
        self.monitor.combine_published(&mut inner);
        // The relay signaling rule on exit (§4.2), for an occupancy that
        // owes it: one that mutated the state (itself or through an
        // adopted op) or holds the baton.
        inner.relay_if_owed(self.monitor);
        // Routed mode: the relay only announced its wakes; perform the
        // unparks after the lock is released so the token handoffs
        // never extend the signaler's critical section. The drained
        // wake list lives in a thread-local scratch buffer, so
        // steady-state exits allocate nothing.
        thread_local! {
            static ROUTED_SCRATCH: std::cell::RefCell<Vec<RoutedWake>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let mut wake_epoch = 0;
        let has_routed = self.monitor.config.signal_mode() == SignalMode::Routed
            && ROUTED_SCRATCH.with(|buf| {
                let mut wakes = buf.borrow_mut();
                wake_epoch = inner.mgr.drain_routed_wakes(&mut wakes);
                !wakes.is_empty()
            });
        inner.flush_tally(self.monitor);
        self.monitor.owner.store(0, Ordering::Relaxed);
        drop(inner);
        // Presence must outlive the mutex hold (a fast CAS sneaking in
        // between would alias the payload); it may end before the wake
        // delivery, which only touches the gates.
        self.monitor.unlock_slow();
        if has_routed {
            ROUTED_SCRATCH.with(|buf| {
                self.monitor.deliver_routed_wakes(&buf.borrow(), wake_epoch);
            });
        }
        if let Some(started) = self.started {
            self.monitor.stats.enter_exit.record(started.elapsed());
        }
        telemetry::context_exit(self.tctx.take());
    }

    /// Exit for an occupancy still on the elided lane: no relay and no
    /// snapshot publish — `try_acquire_fast` succeeded at presence 0,
    /// blocked waiters hold presence for their whole wait, and no
    /// thread can register as a waiter mid-occupancy (registration
    /// requires being inside), so there is provably nobody to signal.
    /// Mutations noted by tracked flushes or adopted ops persist in the
    /// condition manager and are diffed by the next slow-lane relay.
    fn exit_elided(&mut self) {
        let monitor = self.monitor;
        // Name this occupancy's tracked writes while the accessors
        // still route through the elided raw pointer.
        self.flush_tracked();
        {
            let inner = unsafe { &mut *monitor.inner.data_ptr() };
            monitor.combine_published(inner);
            if monitor.config.validates_relay() {
                inner.mgr.audit_fast_exit();
                telemetry::record(telemetry::EventKind::FastExitAudit, 0, 0);
            }
            // What an elided occupancy counts (predicate evaluations of
            // `holds` and of a `wait` that found its condition true).
            inner.flush_tally(monitor);
        }
        self.elided = false;
        // Clear ownership before opening the lane: a successor's fast
        // acquire must never have its own owner stamp clobbered by us.
        monitor.owner.store(0, Ordering::Relaxed);
        monitor.word.release_fast();
        if let Some(started) = self.started {
            monitor.stats.enter_exit.record(started.elapsed());
        }
        telemetry::context_exit(self.tctx.take());
    }
}

impl<'m, S> MonitorGuard<'m, S> {
    /// The paper's `waituntil(P)` as a **future**: registers the caller
    /// as an async waiter of `cond` under this guard's lock hold and
    /// returns a future resolving to a *fresh* guard whose occupancy
    /// observed the predicate true. Available on guards whose lifetime
    /// is pinned to the monitor borrow — inside
    /// [`Monitor::enter_async`] / [`Monitor::enter_async_tracked`]
    /// closures (a plain [`Monitor::enter`] guard's opaque lifetime
    /// cannot escape its closure, which is exactly the misuse the
    /// signature forbids).
    ///
    /// Each poll runs the parked waiter's self-service protocol without
    /// a thread: consume the waker slot's token, self-check against the
    /// lock-free snapshot ring, and take the monitor lock only on a
    /// maybe-true verdict — a decidable-false verdict forwards the
    /// sweep token to the next bucket peer and re-registers the waker
    /// without touching any monitor state. Dropping the pending future
    /// cancels the wait (deregisters the bucket entry, forwards any
    /// held token).
    ///
    /// # Panics
    ///
    /// Panics when `cond` was compiled by a different monitor, or when
    /// the monitor is not in [`SignalMode::Routed`] — async waiters are
    /// bucket entries of the routed wake subsystem.
    pub fn wait_async(&mut self, cond: &Cond<S>) -> crate::asynch::WaitAsync<'m, S> {
        crate::asynch::WaitAsync::new(self.register_async(cond))
    }

    /// [`MonitorGuard::wait_async`] with a deadline: resolves to
    /// `Some(guard)` when the condition held within `timeout`, `None`
    /// when the deadline elapsed first. A pending wake token beats an
    /// elapsed deadline, matching [`MonitorGuard::wait_timeout`].
    ///
    /// # Panics
    ///
    /// As [`MonitorGuard::wait_async`].
    pub fn wait_async_timeout(
        &mut self,
        cond: &Cond<S>,
        timeout: Duration,
    ) -> crate::asynch::WaitTimeoutAsync<'m, S> {
        crate::asynch::WaitTimeoutAsync::new(self.register_async(cond), Instant::now() + timeout)
    }

    /// Registration, under this guard's lock hold: intern the waiter on
    /// the compiled entry, enqueue a task-backed bucket entry, and
    /// capture everything the future's polls need. The relay this
    /// registration owes (§4.2's relay-on-wait baton pass) runs at the
    /// enclosing occupancy's normal exit.
    fn register_async(&mut self, cond: &Cond<S>) -> AsyncWaitCore<'m, S> {
        let monitor = self.monitor;
        assert_eq!(
            cond.owner(),
            monitor.token,
            "waited on a Cond compiled by a different monitor"
        );
        assert_eq!(
            monitor.config.signal_mode(),
            SignalMode::Routed,
            "wait_async requires SignalMode::Routed (async waiters are routed bucket entries)"
        );
        let stats = &monitor.stats;
        // Async waiters live on the mutex protocol like any blocked
        // waiter; an elided registrar moves over first.
        self.downgrade_if_elided();
        // This occupancy's writes must reach the manager before the
        // registration-time evaluation below (and before the enclosing
        // exit's relay diffs).
        self.flush_tracked();
        let inner = self.inner_mut();
        inner.mgr.tally.waits += 1;
        let pid = inner
            .mgr
            .register_waiter_slot(cond.slot(), cond.predicate_arc(), stats);
        let (wake, pred, gate) = {
            let inner = self.inner();
            (
                inner.mgr.wake_lot(),
                inner.mgr.entry_pred_arc(pid),
                inner.mgr.park_gate(pid),
            )
        };
        let wait_id = if telemetry::enabled() {
            telemetry::next_wait_id()
        } else {
            0
        };
        let wslot = Arc::new(WakerSlot::new());
        wslot.set_trace_id(wait_id);
        let bucket = BucketKey::Slot(cond.slot());
        let ticket = wake.enqueue(gate, bucket, Arc::clone(&wslot), pid);
        // Fig. 6's "if P is false ..." check, inverted: a registration
        // that finds the predicate already true self-arms the slot, so
        // the future's first poll claims immediately instead of waiting
        // for a relay that may owe this entry nothing (no mutation need
        // ever happen). A racing claimer is harmless — the claim
        // re-confirms under the lock and goes futile if beaten.
        if self.inner_mut().eval(monitor, cond.predicate()) {
            let epoch = self.inner().mgr.current_epoch();
            wslot.self_arm(epoch);
        }
        if monitor.config.fast_path_enabled() {
            // The pending future holds one slow-lane presence unit for
            // its whole life — blocked waiters keep presence, so elided
            // exits keep proving nobody is owed a relay. The unit
            // transfers to the resolved guard (whose exit releases it);
            // timeout and cancellation release it directly.
            monitor.word.join_slow();
        }
        telemetry::record(
            telemetry::EventKind::WaitRegistered,
            u64::from(cond.slot()),
            (wait_id << 1) | 1,
        );
        let started = stats.phases.is_enabled().then(Instant::now);
        AsyncWaitCore {
            monitor,
            wake,
            wslot,
            pred,
            pid,
            gate,
            bucket,
            ticket: Some(ticket),
            drain: self.drain,
            started,
            wait_id,
            wake_buf: Vec::new(),
            snap_buf: Vec::new(),
            done: false,
        }
    }
}

/// The engine of one pending `wait_async`: the registration state plus
/// the poll/timeout/cancel protocol. It lives inside the returned
/// future (`WaitAsync` / `WaitTimeoutAsync` in [`crate::asynch`]); the
/// implementation sits here, next to `wait_routed`, because a poll is
/// exactly one turn of the routed wait loop with the park replaced by
/// `Poll::Pending` — the two must stay in lockstep.
pub(crate) struct AsyncWaitCore<'m, S> {
    monitor: &'m Monitor<S>,
    wake: Arc<WakeLot>,
    wslot: Arc<WakerSlot>,
    pred: Arc<Predicate<S>>,
    pid: PredId,
    gate: usize,
    /// Always `BucketKey::Slot(..)` — async waits require a compiled
    /// [`Cond`], so the entry is always swept (never broadcast-only).
    bucket: BucketKey,
    /// The bucket position while enqueued; `None` mid-claim (the entry
    /// left its bucket as an in-flight claimer) and after completion.
    ticket: Option<WakeTicket>,
    drain: Option<DrainFn<S>>,
    /// Registration timestamp for the `wait` latency histogram; `None`
    /// when phase timing is off.
    started: Option<Instant>,
    /// Flight-recorder wait id (0 when tracing was off at
    /// registration); pairs the `WaitResolved` event the claim/timeout
    /// paths record with the registration's `WaitRegistered`.
    wait_id: u64,
    wake_buf: Vec<RoutedWake>,
    snap_buf: Vec<Option<i64>>,
    /// Completed (claimed, timed out, or cancelled): every resource —
    /// ticket, claim, presence unit, manager registration — is settled.
    done: bool,
}

impl<S> std::fmt::Debug for AsyncWaitCore<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncWaitCore")
            .field("gate", &self.gate)
            .field("bucket", &self.bucket)
            .field("enqueued", &self.ticket.is_some())
            .field("done", &self.done)
            .finish()
    }
}

impl<'m, S> AsyncWaitCore<'m, S> {
    /// One turn of the routed wait loop (see `wait_routed`): consume
    /// the slot's token or suspend; on a token, self-check against the
    /// ring; forward on decidable-false, claim under the monitor lock
    /// on maybe-true. A futile claim re-enqueues, relays the baton it
    /// briefly held, and tries the next token.
    ///
    /// # Panics
    ///
    /// Panics when polled after completion, or when polled by a thread
    /// currently holding this monitor — the claim would self-deadlock
    /// on the monitor mutex (never `await` a monitor's wait future from
    /// inside one of its occupancies).
    pub(crate) fn poll_claim(&mut self, cx: &mut Context<'_>) -> Poll<MonitorGuard<'m, S>> {
        assert!(!self.done, "polled a completed wait_async future");
        let monitor = self.monitor;
        let me = thread_id::current();
        assert_ne!(
            monitor.owner.load(Ordering::Relaxed),
            me,
            "polled a wait_async future while holding its monitor"
        );
        let stats = &monitor.stats;
        loop {
            let Some(epoch) = self.wslot.poll_token(cx.waker()) else {
                return Poll::Pending;
            };
            stats.counters.record_wakeup();
            let recheck_timer = stats.phases.start(Phase::ParkRecheck);
            stats.counters.record_waiter_self_check();
            let snap_epoch = monitor
                .ring
                .read_latest_into(&stats.counters, &mut self.snap_buf);
            let verdict = snapshot_verdict(&self.pred, snap_epoch, &self.snap_buf);
            recheck_timer.finish();
            // Executor threads have no monitor context in TLS, so the
            // poll events attribute explicitly.
            telemetry::record_for(
                monitor.token,
                telemetry::EventKind::SelfCheck,
                matches!(verdict, Verdict::MayHold) as u64,
                snap_epoch.unwrap_or(0),
            );
            telemetry::record_for(
                monitor.token,
                telemetry::EventKind::AsyncPoll,
                matches!(verdict, Verdict::MayHold) as u64,
                snap_epoch.unwrap_or(0),
            );
            if let Verdict::False { epoch: seen } = verdict {
                // Still false at the newest published cut: forward the
                // bucket's token to the next unobserved peer and stay
                // suspended (the waker re-registered in `poll_token`).
                // No monitor state is touched.
                stats.counters.record_false_wakeup();
                self.wslot.observed(seen);
                let mut t = SweepToken::new(self.gate, self.bucket, epoch);
                t.raise(seen);
                t.forward(&self.wake, &stats.counters);
                continue;
            }
            // MayHold: leave the bucket as an in-flight claimer (the
            // dequeue registers the claim atomically, so the audit
            // never sees a coverage gap), drain any residual token, and
            // confirm against the live state under the monitor lock.
            let mut token = SweepToken::new(self.gate, self.bucket, epoch);
            let ticket = self.ticket.take().expect("claiming without a ticket");
            self.wake.dequeue(ticket, true);
            if let Some(residual) = self.wslot.take_pending() {
                token.raise(residual);
            }
            let lock_timer = stats.phases.start(Phase::Lock);
            let mut inner = monitor.inner.lock();
            lock_timer.finish();
            monitor.owner.store(me, Ordering::Relaxed);

            let holds = inner.eval_entry(monitor, self.pid);
            if holds {
                inner.mgr.consume_signal(self.pid, stats);
                // The baton rule, task-side: re-inject the token at the
                // resolved guard's exit so the next bucket peer can
                // confirm against the post-claim state. The
                // announcement takes over from our in-flight claim.
                inner.mgr.note_reinject(self.gate, self.bucket);
                self.wake.end_claim(self.gate, self.bucket);
                inner.dirty = false;
                inner.signaled = false;
                return Poll::Ready(self.finish_claim(inner));
            }

            // Futile claim: a barger falsified the condition first.
            // Re-enqueue under the monitor lock (publishers cannot miss
            // us), mark observed at the live epoch, then mirror the
            // sync loop-top: relay the baton, release the lock, deliver
            // the announced wakes, and hand the token off outside the
            // lock (the still-open claim covers the bucket until then).
            let epoch_now = {
                inner.mgr.tally.futile_wakeups += 1;
                inner.mgr.mark_futile(self.pid, stats);
                inner.dirty = false;
                inner.mgr.current_epoch()
            };
            self.ticket =
                Some(
                    self.wake
                        .enqueue(self.gate, self.bucket, Arc::clone(&self.wslot), self.pid),
                );
            self.wslot.observed(epoch_now.max(token.epoch()));
            token.raise(epoch_now);
            // Unconditional, like `wait_routed`'s loop-top relay and for
            // the same reasons.
            inner.relay(monitor);
            inner.flush_tally(monitor);
            let wake_epoch = inner.mgr.drain_routed_wakes(&mut self.wake_buf);
            monitor.owner.store(0, Ordering::Relaxed);
            drop(inner);
            monitor.deliver_routed_wakes(&self.wake_buf, wake_epoch);
            token.forward(&self.wake, &stats.counters);
            self.wake.end_claim(self.gate, self.bucket);
        }
    }

    /// [`AsyncWaitCore::poll_claim`] with a deadline: a pending token
    /// is always tried first (it beats an elapsed deadline), then the
    /// deadline is checked, then — once — the process-wide timer is
    /// armed to interrupt this slot at the deadline.
    pub(crate) fn poll_claim_deadline(
        &mut self,
        cx: &mut Context<'_>,
        deadline: Instant,
        timer_armed: &mut bool,
    ) -> Poll<Option<MonitorGuard<'m, S>>> {
        if let Poll::Ready(guard) = self.poll_claim(cx) {
            return Poll::Ready(Some(guard));
        }
        if Instant::now() >= deadline {
            return Poll::Ready(self.finish_timeout());
        }
        if !*timer_armed {
            *timer_armed = true;
            crate::asynch::timer::schedule(deadline, Arc::clone(&self.wslot));
        }
        Poll::Pending
    }

    /// Completes a claim: settle the wait-latency stat and build the
    /// guard the future resolves to. The registration's presence unit
    /// transfers to the guard — its exit runs the normal slow-lane
    /// release, balancing the `join_slow` taken at registration.
    fn finish_claim(&mut self, inner: MutexGuard<'m, Inner<S>>) -> MonitorGuard<'m, S> {
        self.done = true;
        let monitor = self.monitor;
        let elapsed_ns = self.started.take().map_or(0, |started| {
            let elapsed = started.elapsed();
            monitor.stats.wait.record(elapsed);
            elapsed.as_nanos() as u64
        });
        // Executor threads have no monitor context in TLS, so the
        // resolve attributes explicitly, like the poll events.
        telemetry::record_for(
            monitor.token,
            telemetry::EventKind::WaitResolved,
            self.wait_id,
            (elapsed_ns << 1) | 1,
        );
        let started = monitor.stats.timing_enabled().then(Instant::now);
        let tctx = telemetry::context_enter(monitor.token);
        MonitorGuard {
            monitor,
            inner: Some(inner),
            started,
            elided: false,
            drain: self.drain,
            tctx,
        }
    }

    /// The deadline elapsed with no claim: deregister exactly as the
    /// thread-backed timed wait does — dequeue as an in-flight claimer,
    /// hand any residual token back to the bucket *before* touching the
    /// monitor lock, then confirm once under it (the predicate may have
    /// just turned true; a token-free success needs no re-injection).
    fn finish_timeout(&mut self) -> Option<MonitorGuard<'m, S>> {
        let monitor = self.monitor;
        let stats = &monitor.stats;
        let ticket = self.ticket.take().expect("timing out without a ticket");
        self.wake.dequeue(ticket, true);
        if let Some(residual) = self.wslot.take_pending() {
            SweepToken::new(self.gate, self.bucket, residual).forward(&self.wake, &stats.counters);
        }
        let lock_timer = stats.phases.start(Phase::Lock);
        let mut inner = monitor.inner.lock();
        lock_timer.finish();
        monitor.owner.store(thread_id::current(), Ordering::Relaxed);

        let holds = inner.eval_entry(monitor, self.pid);
        if holds {
            inner.mgr.consume_signal(self.pid, stats);
            self.wake.end_claim(self.gate, self.bucket);
            inner.dirty = false;
            inner.signaled = false;
            return Some(self.finish_claim(inner));
        }
        inner.mgr.tally.timeouts += 1;
        let _ = inner.mgr.on_timeout(self.pid, stats);
        inner.dirty = false;
        self.wake.end_claim(self.gate, self.bucket);
        inner.flush_tally(monitor);
        monitor.owner.store(0, Ordering::Relaxed);
        drop(inner);
        self.done = true;
        let elapsed_ns = self.started.take().map_or(0, |started| {
            let elapsed = started.elapsed();
            stats.wait.record(elapsed);
            elapsed.as_nanos() as u64
        });
        telemetry::record_for(
            monitor.token,
            telemetry::EventKind::WaitResolved,
            self.wait_id,
            elapsed_ns << 1,
        );
        if monitor.config.fast_path_enabled() {
            monitor.word.leave_slow();
        }
        None
    }

    /// Cancellation: the future was dropped while pending. Mirrors the
    /// timeout path's resource discipline — dequeue as an in-flight
    /// claimer (the bucket stays covered for the no-lost-token audit
    /// across the whole teardown), forward any residual token to the
    /// bucket before touching the monitor lock, then deregister from
    /// the manager under it and release the presence unit. No-op after
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics when the dropping thread holds this monitor (the
    /// deregistration would self-deadlock). During an unwind the panic
    /// is suppressed and the registration leaks instead: the open claim
    /// keeps the audit sound, and masking the original panic would be
    /// worse than the leak.
    pub(crate) fn cancel(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let monitor = self.monitor;
        let stats = &monitor.stats;
        let ticket = self.ticket.take().expect("cancelling without a ticket");
        self.wake.dequeue(ticket, true);
        if let Some(residual) = self.wslot.take_pending() {
            SweepToken::new(self.gate, self.bucket, residual).forward(&self.wake, &stats.counters);
        }
        if monitor.owner.load(Ordering::Relaxed) == thread_id::current() {
            if std::thread::panicking() {
                return;
            }
            panic!("dropped a pending wait_async future while holding its monitor");
        }
        let mut inner = monitor.inner.lock();
        let _ = inner.mgr.on_timeout(self.pid, stats);
        self.wake.end_claim(self.gate, self.bucket);
        inner.flush_tally(monitor);
        drop(inner);
        if monitor.config.fast_path_enabled() {
            monitor.word.leave_slow();
        }
    }
}

impl<S> Drop for MonitorGuard<'_, S> {
    fn drop(&mut self) {
        self.exit();
    }
}

// A monitor is shared between threads; the state never leaves the mutex.
// These bounds follow from the field types, spelled out for clarity.
#[allow(dead_code)]
fn _assert_send_sync<S: Send>() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<Monitor<S>>();
    is_send_sync::<Arc<Condvar>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignalMode;
    use crate::tracked::{Tracked, TrackedCell};
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    struct Counter {
        value: i64,
    }

    fn value_expr(monitor: &Monitor<Counter>) -> ExprHandle<Counter> {
        monitor.register_expr("value", |s| s.value)
    }

    #[test]
    fn wait_returns_immediately_when_true() {
        let m = Monitor::new(Counter { value: 5 });
        let v = value_expr(&m);
        let at_least_five = m.compile(v.ge(5));
        m.enter(|g| g.wait(&at_least_five));
        let snap = m.stats_snapshot();
        assert_eq!(snap.counters.waits, 0);
        assert_eq!(snap.counters.wakeups, 0);
    }

    #[test]
    fn waiter_is_woken_by_state_change() {
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let v = value_expr(&m);
        let at_least_three = m.compile(v.ge(3));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| {
                g.wait(&at_least_three);
                g.state().value
            })
        });
        // Give the waiter time to block, then satisfy the predicate.
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 3);
        assert_eq!(waiter.join().unwrap(), 3);
        let snap = m.stats_snapshot();
        assert_eq!(snap.counters.signals, 1);
        assert_eq!(snap.counters.broadcasts, 0, "AutoSynch never broadcasts");
    }

    #[test]
    fn closure_predicates_work_via_none_tag() {
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let divisible = m.compile(|s: &Counter| s.value % 7 == 0 && s.value > 0);
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| g.wait(&divisible));
        });
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 14);
        waiter.join().unwrap();
    }

    #[test]
    fn relay_chains_through_multiple_waiters() {
        // Producer satisfies A; A's action satisfies B; B's satisfies C.
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let v = value_expr(&m);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for stage in 1..=3 {
            let m = Arc::clone(&m);
            let order = Arc::clone(&order);
            let cond = m.compile(v.ge(stage));
            handles.push(thread::spawn(move || {
                m.enter(|g| {
                    g.wait(&cond);
                    g.state_mut().value += 1; // unlocks the next stage
                                              // Record while still inside the monitor: the chain
                                              // order is the monitor-transit order, and recording
                                              // after release would race with the next stage.
                    order.lock().push(stage);
                });
            }));
        }
        thread::sleep(Duration::from_millis(30));
        m.with(|s| s.value = 1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(&*order.lock(), &[1, 2, 3]);
    }

    #[test]
    fn many_waiters_same_predicate_all_proceed() {
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            let done = Arc::clone(&done);
            let positive = positive.clone();
            handles.push(thread::spawn(move || {
                m.enter(|g| {
                    g.wait(&positive);
                    g.state_mut().value += 1;
                });
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        thread::sleep(Duration::from_millis(30));
        m.with(|s| s.value = 1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(m.with(|s| s.value), 9);
    }

    #[test]
    fn timeout_expires_when_never_satisfied() {
        let m = Monitor::new(Counter { value: 0 });
        let v = value_expr(&m);
        let unreachable = m.compile(v.ge(10));
        let start = Instant::now();
        let ok = m.enter(|g| g.wait_timeout(&unreachable, Duration::from_millis(50)));
        assert!(!ok);
        assert!(start.elapsed() >= Duration::from_millis(45));
        let snap = m.stats_snapshot();
        assert_eq!(snap.counters.timeouts, 1);
        // The monitor is clean afterwards: no leaked waiters or tags.
        let counts = m.counts();
        assert_eq!(
            (counts.waiting, counts.signaled, counts.live_tags),
            (0, 0, 0)
        );
    }

    #[test]
    fn timeout_succeeds_when_satisfied_in_time() {
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let m2 = Arc::clone(&m);
        let waiter =
            thread::spawn(move || m2.enter(|g| g.wait_timeout(&positive, Duration::from_secs(5))));
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 1);
        assert!(waiter.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "re-entrantly")]
    fn reentrant_enter_panics() {
        let m = Monitor::new(Counter { value: 0 });
        m.enter(|_| {
            m.enter(|_| {});
        });
    }

    #[test]
    #[should_panic(expected = "compile called from inside")]
    fn compile_inside_the_monitor_panics() {
        let m = Monitor::new(Counter { value: 0 });
        let v = value_expr(&m);
        m.enter(|_| {
            let _ = m.compile(v.ge(1));
        });
    }

    #[test]
    #[should_panic(expected = "different monitor")]
    fn waiting_on_a_foreign_cond_panics() {
        let a = Monitor::new(Counter { value: 0 });
        let b = Monitor::new(Counter { value: 0 });
        let v = value_expr(&a);
        let foreign = a.compile(v.ge(1));
        b.enter(|g| g.wait(&foreign));
    }

    #[test]
    fn compile_interns_by_structural_key() {
        let m = Monitor::new(Counter { value: 0 });
        let v = value_expr(&m);
        let a = m.compile(v.ge(5));
        let b = m.compile(v.ge(5));
        assert_eq!(a.slot(), b.slot(), "key-equal conditions share a slot");
        let c = m.compile(v.ge(6));
        assert_ne!(a.slot(), c.slot());
        let counts = m.counts();
        assert_eq!(counts.compiled, 2);
        assert_eq!(counts.entries, 2, "one persistent entry per slot");
    }

    #[test]
    fn transient_and_compiled_waits_share_one_entry() {
        // The per-call transient path interns through the same predicate
        // table the compiled path pins its entries in: no duplicate
        // entry, no duplicate condvar. (Timed waits on a false predicate
        // force a real registration on both paths.)
        let m = Monitor::new(Counter { value: 1 });
        let v = value_expr(&m);
        m.enter(|g| {
            assert!(!g.wait_transient_timeout(v.gt(5), Duration::from_millis(10)));
        });
        let entries_before = m.counts().entries;
        assert_eq!(entries_before, 1, "the transient wait registered one entry");
        let cond = m.compile(v.gt(5));
        assert_eq!(
            m.counts().entries,
            entries_before,
            "compile reused the transient entry"
        );
        assert!(!m.enter(|g| g.wait_timeout(&cond, Duration::from_millis(10))));
        assert_eq!(m.counts().entries, entries_before);
    }

    #[test]
    fn panic_in_enter_releases_and_relays() {
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| g.wait(&positive));
        });
        thread::sleep(Duration::from_millis(20));
        let m3 = Arc::clone(&m);
        let panicker = thread::spawn(move || {
            m3.enter(|g| {
                g.state_mut().value = 1;
                panic!("boom");
            });
        });
        assert!(panicker.join().is_err());
        // The waiter must still be released by the exit relay of the
        // panicking thread.
        waiter.join().unwrap();
    }

    fn mode_behaves_identically(mode: SignalMode) {
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(mode).validate_relay(true),
        ));
        assert_eq!(m.config().signal_mode(), mode);
        let v = value_expr(&m);
        let at_least_two = m.compile(v.ge(2));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| {
                g.wait(&at_least_two);
                g.state().value
            })
        });
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 2);
        assert_eq!(waiter.join().unwrap(), 2);
        assert!(m.is_quiescent());
        assert_eq!(m.stats_snapshot().counters.broadcasts, 0);
    }

    #[test]
    fn untagged_mode_behaves_identically() {
        mode_behaves_identically(SignalMode::Untagged);
    }

    #[test]
    fn change_driven_mode_behaves_identically() {
        mode_behaves_identically(SignalMode::ChangeDriven);
    }

    fn relay_chain(config: MonitorConfig) {
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            config.validate_relay(true),
        ));
        let v = value_expr(&m);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for stage in 1..=3 {
            let m = Arc::clone(&m);
            let order = Arc::clone(&order);
            let cond = m.compile(v.ge(stage));
            handles.push(thread::spawn(move || {
                m.enter(|g| {
                    g.wait(&cond);
                    g.state_mut().value += 1;
                    order.lock().push(stage); // in-monitor: transit order
                });
            }));
        }
        thread::sleep(Duration::from_millis(30));
        m.with(|s| s.value = 1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(&*order.lock(), &[1, 2, 3]);
    }

    #[test]
    fn change_driven_relay_chains_through_multiple_waiters() {
        relay_chain(MonitorConfig::preset(SignalMode::ChangeDriven));
    }

    #[test]
    fn routed_relay_chains_through_multiple_waiters() {
        relay_chain(MonitorConfig::preset(SignalMode::Routed).shards(3));
    }

    #[test]
    fn routed_mode_behaves_identically() {
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        ));
        assert_eq!(m.config().signal_mode(), SignalMode::Routed);
        let v = value_expr(&m);
        let at_least_two = m.compile(v.ge(2));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| {
                g.wait(&at_least_two);
                g.state().value
            })
        });
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 2);
        assert_eq!(waiter.join().unwrap(), 2);
        assert!(m.is_quiescent());
        let snap = m.stats_snapshot();
        assert_eq!(snap.counters.broadcasts, 0);
        assert_eq!(snap.counters.signals, 0, "a routed signaler only unparks");
        assert!(snap.counters.waiter_self_checks >= 1);
        assert!(snap.counters.routed_unparks >= 1, "the wake was targeted");
        assert_eq!(m.parked_waiters(), 0, "claimed waiters leave the buckets");
    }

    #[test]
    fn routed_eq_conditions_get_single_targeted_unparks() {
        // The fig11 microcosm: three waiters on turn==1/2/3. Every
        // published turn value must wake at most the one matching
        // bucket — never the whole gate — so total unparks stay near
        // the number of handoffs where a gate broadcast would wake
        // every waiter each time.
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        ));
        let v = value_expr(&m);
        let mut handles = Vec::new();
        for stage in 1..=3 {
            let m = Arc::clone(&m);
            let cond = m.compile(v.eq(stage));
            handles.push(thread::spawn(move || {
                m.enter(|g| {
                    g.wait(&cond);
                    g.state_mut().value += 1; // hands the turn onward
                });
            }));
        }
        thread::sleep(Duration::from_millis(30));
        m.with(|s| s.value = 1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.with(|s| s.value), 4);
        let snap = m.stats_snapshot();
        assert!(
            snap.counters.eq_routed_wakes >= 1,
            "equivalence conditions must route through the eq index ({snap:?})"
        );
        // Three handoffs; each wakes one bucket head plus at most a
        // couple of re-injections/forwards — nowhere near the 3-per-
        // publish broadcast herd.
        assert!(
            snap.counters.unparks <= 8,
            "wakes must be targeted, got {} unparks",
            snap.counters.unparks
        );
        assert!(m.is_quiescent());
    }

    #[test]
    fn routed_token_sweep_serves_shared_buckets() {
        // Several waiters share one compiled condition (one bucket).
        // The publish wakes only the bucket head; claimers re-inject
        // the baton at exit, so every peer still proceeds.
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        ));
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let m = Arc::clone(&m);
            let done = Arc::clone(&done);
            let positive = positive.clone();
            handles.push(thread::spawn(move || {
                m.enter(|g| {
                    g.wait(&positive);
                });
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        thread::sleep(Duration::from_millis(30));
        m.with(|s| s.value = 1);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 6);
        let snap = m.stats_snapshot();
        assert!(
            snap.counters.token_forwards >= 1,
            "claimers must re-inject the baton for their bucket peers ({snap:?})"
        );
        assert!(m.is_quiescent());
    }

    #[test]
    fn routed_timeout_expires_and_cleans_up() {
        let m = Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        );
        let v = value_expr(&m);
        let unreachable = m.compile(v.ge(10));
        let start = Instant::now();
        let ok = m.enter(|g| g.wait_timeout(&unreachable, Duration::from_millis(50)));
        assert!(!ok);
        assert!(start.elapsed() >= Duration::from_millis(45));
        assert_eq!(m.stats_snapshot().counters.timeouts, 1);
        assert!(m.is_quiescent());
        assert_eq!(m.parked_waiters(), 0);
    }

    #[test]
    fn routed_closure_predicates_use_the_global_gate_broadcast() {
        // Opaque predicates route to the global gate, whose wake stays
        // the conservative broadcast; their self-checks cannot decide,
        // so every wake confirms under the monitor lock.
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        ));
        let divisible = m.compile(|s: &Counter| s.value % 7 == 0 && s.value > 0);
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| g.wait(&divisible));
        });
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 14);
        waiter.join().unwrap();
        assert!(m.is_quiescent());
    }

    #[test]
    fn routed_transient_waiters_ride_the_broadcast_bucket() {
        // wait_transient conditions have no slot: they park in the
        // broadcast bucket and the gate-affected broadcast must still
        // wake them (the documented fallback — never stranded).
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        ));
        let v = value_expr(&m);
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter(|g| {
                g.wait_transient(v.ge(3));
                g.state().value
            })
        });
        thread::sleep(Duration::from_millis(20));
        for k in 1..=3 {
            m.with(|s| s.value = k);
        }
        assert_eq!(waiter.join().unwrap(), 3);
        assert!(m.is_quiescent());
        assert_eq!(m.parked_waiters(), 0);
    }

    #[test]
    fn routed_false_wakeups_stay_lock_free() {
        // Two transient waiters on disjoint predicates over one
        // expression share the gate's broadcast bucket: every publish
        // wakes both, but the waiter whose predicate the snapshot rules
        // out re-parks without the lock — visible as false_wakeups
        // without futile_wakeups.
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        ));
        let v = value_expr(&m);
        let m2 = Arc::clone(&m);
        let far = thread::spawn(move || m2.enter(|g| g.wait_transient(v.ge(100))));
        let m3 = Arc::clone(&m);
        let near = thread::spawn(move || m3.enter(|g| g.wait_transient(v.ge(3))));
        thread::sleep(Duration::from_millis(30));
        for k in 1..=3 {
            m.with(|s| s.value = k);
        }
        near.join().unwrap();
        let snap = m.stats_snapshot();
        assert!(
            snap.counters.false_wakeups >= 1,
            "the far waiter's self-checks must have ruled its predicate out \
             ({} false wakeups)",
            snap.counters.false_wakeups
        );
        assert_eq!(
            snap.counters.futile_wakeups, 0,
            "snapshot-false wakeups must never reach the monitor lock"
        );
        m.with(|s| s.value = 100);
        far.join().unwrap();
        assert!(m.is_quiescent());
    }

    #[test]
    fn routed_timeout_succeeds_when_satisfied_in_time() {
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed),
        ));
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let m2 = Arc::clone(&m);
        let waiter =
            thread::spawn(move || m2.enter(|g| g.wait_timeout(&positive, Duration::from_secs(5))));
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 1);
        assert!(waiter.join().unwrap());
        assert!(m.is_quiescent());
    }

    struct Pair {
        x: Tracked<i64>,
        y: Tracked<i64>,
    }

    impl TrackedState for Pair {
        fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
            f(&mut self.x);
            f(&mut self.y);
        }
    }

    fn tracked_pair(
        config: MonitorConfig,
    ) -> (Arc<Monitor<Pair>>, ExprHandle<Pair>, ExprHandle<Pair>) {
        let m = Arc::new(Monitor::with_config(
            Pair {
                x: Tracked::new(0),
                y: Tracked::new(0),
            },
            config.validate_relay(true),
        ));
        let x = m.register_expr("x", |s: &Pair| *s.x.get());
        let y = m.register_expr("y", |s: &Pair| *s.y.get());
        m.bind(|s| &mut s.x, &[x]);
        m.bind(|s| &mut s.y, &[y]);
        (m, x, y)
    }

    #[test]
    fn tracked_writes_narrow_the_diff() {
        let (m, x, y) = tracked_pair(MonitorConfig::preset(SignalMode::ChangeDriven));
        let x_cond = m.compile(x.ge(5));
        let y_cond = m.compile(y.ge(5));
        // Two pinned waiters keep both expressions in the dependency
        // set; x's waiter is released at the end.
        let m2 = Arc::clone(&m);
        let wx = thread::spawn(move || m2.enter_tracked(|g| g.wait(&x_cond)));
        let m3 = Arc::clone(&m);
        let y_cond2 = y_cond.clone();
        let wy = thread::spawn(move || m3.enter_tracked(|g| g.wait(&y_cond2)));
        thread::sleep(Duration::from_millis(30));
        let before = m.stats_snapshot().counters;
        // Tracked writes touch only x: the diff must skip y — without
        // the caller naming anything.
        for _ in 0..10 {
            m.enter_tracked(|g| {
                *g.state_mut().x += 0; // mutated but value unchanged
            });
        }
        let diff = m.stats_snapshot().counters.since(&before);
        assert_eq!(diff.named_mutations, 10, "every write was auto-named");
        assert!(
            diff.expr_evals <= 12,
            "tracked diffs must evaluate only x (+slack for waiter \
             registration races), got {} expr evals",
            diff.expr_evals
        );
        m.enter_tracked(|g| *g.state_mut().x = 5);
        wx.join().unwrap();
        m.with_tracked(|s| *s.y = 5);
        wy.join().unwrap();
        assert!(m.is_quiescent());
    }

    #[test]
    fn tracked_writes_wake_parked_waiters() {
        let (m, x, _y) = tracked_pair(MonitorConfig::preset(SignalMode::Routed));
        let x_cond = m.compile(x.ge(1));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            m2.enter_tracked(|g| {
                g.wait(&x_cond);
                *g.state().x.get()
            })
        });
        thread::sleep(Duration::from_millis(20));
        m.with_tracked(|s| *s.x = 1);
        assert_eq!(waiter.join().unwrap(), 1);
        assert!(m.is_quiescent());
        assert!(m.stats_snapshot().counters.named_mutations >= 1);
    }

    #[test]
    fn unbound_tracked_writes_fall_back_to_blanket_mutations() {
        // A dirty cell with no bound expressions must not vanish from
        // the diff: the occupancy downgrades to a blanket mutation and
        // the waiter still wakes.
        struct Loose {
            v: Tracked<i64>,
        }
        impl TrackedState for Loose {
            fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
                f(&mut self.v);
            }
        }
        let m = Arc::new(Monitor::with_config(
            Loose { v: Tracked::new(0) },
            MonitorConfig::preset(SignalMode::ChangeDriven).validate_relay(true),
        ));
        let v = m.register_expr("v", |s: &Loose| *s.v.get());
        // Deliberately NOT bound to the cell.
        let positive = m.compile(v.ge(1));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.enter_tracked(|g| g.wait(&positive)));
        thread::sleep(Duration::from_millis(20));
        m.with_tracked(|s| *s.v = 1);
        waiter.join().unwrap();
        assert!(m.is_quiescent());
        assert_eq!(
            m.stats_snapshot().counters.named_mutations,
            0,
            "unbound writes must not claim the named-mutation contract"
        );
    }

    #[test]
    fn state_mut_touching_names_per_write() {
        // The dynamic naming entry point (the DSL runtime's path).
        struct Raw {
            x: i64,
            y: i64,
        }
        let m = Arc::new(Monitor::with_config(
            Raw { x: 0, y: 0 },
            MonitorConfig::preset(SignalMode::ChangeDriven).validate_relay(true),
        ));
        let x = m.register_expr("x", |s: &Raw| s.x);
        let y = m.register_expr("y", |s: &Raw| s.y);
        assert_eq!(m.lookup_expr("y"), Some(y));
        let x_cond = m.compile(x.ge(5));
        let y_cond = m.compile(y.ge(5));
        let m2 = Arc::clone(&m);
        let wx = thread::spawn(move || m2.enter(|g| g.wait(&x_cond)));
        let m3 = Arc::clone(&m);
        let wy = thread::spawn(move || m3.enter(|g| g.wait(&y_cond)));
        thread::sleep(Duration::from_millis(30));
        let before = m.stats_snapshot().counters;
        for _ in 0..10 {
            m.enter(|g| {
                g.state_mut_touching(&[x.id()]).x += 0;
            });
        }
        let diff = m.stats_snapshot().counters.since(&before);
        assert_eq!(diff.named_mutations, 10);
        assert!(diff.expr_evals <= 12, "got {} expr evals", diff.expr_evals);
        m.enter(|g| g.state_mut_touching(&[x.id()]).x = 5);
        wx.join().unwrap();
        m.enter(|g| g.state_mut_touching(&[y.id()]).y = 5);
        wy.join().unwrap();
        assert!(m.is_quiescent());
    }

    #[test]
    fn latest_expr_snapshot_reads_without_the_monitor_lock() {
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed),
        ));
        let v = value_expr(&m);
        let at_least_five = m.compile(v.ge(5));
        assert_eq!(m.latest_expr_snapshot(), None, "nothing published yet");
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.enter(|g| g.wait(&at_least_five)));
        thread::sleep(Duration::from_millis(20));
        for k in 1..=4 {
            m.with(|s| s.value = k);
        }
        // The waiter still waits (4 < 5), so `value` has an active
        // dependent and every diff published it. The ring read holds
        // the last consistent cut — readable while this thread occupies
        // the monitor, because it never touches the lock.
        m.enter(|g| {
            let _ = g.state();
            let (epoch, values) = m.latest_expr_snapshot().expect("diffs have been published");
            assert!(epoch >= 1);
            assert_eq!(values[v.id().index()], Some(4));
        });
        m.with(|s| s.value = 5);
        waiter.join().unwrap();
    }

    #[test]
    fn tagged_mode_publishes_no_snapshots() {
        let m = Monitor::new(Counter { value: 3 });
        let v = value_expr(&m);
        let cond = m.compile(v.ge(3));
        m.enter(|g| g.wait(&cond));
        assert_eq!(m.latest_expr_snapshot(), None);
    }

    #[test]
    fn change_driven_skips_relays_on_read_only_traffic() {
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::ChangeDriven),
        ));
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.enter(|g| g.wait(&positive)));
        while m.counts().waiting == 0 {
            thread::yield_now();
        }
        // Read-only occupancies past a parked waiter owe no relay: none
        // runs, so nothing is diffed or evaluated on their account.
        let before = m.stats_snapshot().counters;
        for _ in 0..10 {
            m.enter(|g| {
                let _ = g.state().value;
            });
        }
        let diff = m.stats_snapshot().counters.since(&before);
        assert_eq!(
            (diff.relay_calls, diff.expr_evals, diff.pred_evals),
            (0, 0, 0)
        );
        m.with(|s| s.value = 1);
        waiter.join().unwrap();
    }

    #[test]
    fn stats_futile_wakeups_stay_zero_without_barging_conflicts() {
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let v = value_expr(&m);
        let exactly_one = m.compile(v.eq(1));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.enter(|g| g.wait(&exactly_one)));
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 1);
        waiter.join().unwrap();
        // Relay only signals threads whose predicate is true, and nobody
        // else runs: the wakeup cannot be futile.
        assert_eq!(m.stats_snapshot().counters.futile_wakeups, 0);
    }

    #[test]
    fn compiled_entry_is_reused_by_transient_waits() {
        // A compiled condition's persistent entry is the same table row
        // a later transient wait on the same predicate interns into.
        let m = Monitor::new(Counter { value: 1 });
        let v = value_expr(&m);
        let _pinned = m.compile(v.gt(0));
        let entries_before = m.counts().entries;
        m.enter(|g| g.wait_transient(v.gt(0)));
        assert_eq!(m.counts().entries, entries_before, "no duplicate entry");
    }

    #[test]
    fn uncontended_entries_take_the_fast_lane() {
        let m = Monitor::new(Counter { value: 0 });
        for _ in 0..10 {
            m.with(|s| s.value += 1);
        }
        m.enter(|g| g.state_mut().value += 1);
        let snap = m.stats_snapshot().counters;
        assert_eq!(snap.enters, 11);
        assert_eq!(
            snap.fast_path_enters, 11,
            "a quiescent monitor never touches the mutex"
        );
        assert_eq!(snap.signals, 0);
        assert_eq!(m.with(|s| s.value), 11);
    }

    #[test]
    fn fast_path_off_is_mutex_only() {
        let m = Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::default().fast_path(false),
        );
        for _ in 0..5 {
            m.with(|s| s.value += 1);
        }
        let snap = m.stats_snapshot().counters;
        assert_eq!(snap.enters, 5);
        assert_eq!(snap.fast_path_enters, 0, "the ablation never elides");
        assert_eq!(snap.fc_publishes, 0);
    }

    #[test]
    fn elided_mutations_reach_the_next_relay() {
        // A mutation made over the elided lane must not be lost: the
        // next slow-lane relay's change-driven diff has to see it. The
        // armed validator cross-checks every relay against a full scan.
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::ChangeDriven).validate_relay(true),
        ));
        let v = value_expr(&m);
        let done = m.compile(v.ge(3));
        m.with(|s| s.value = 2); // elided: no relay, mutation noted
        assert!(m.stats_snapshot().counters.fast_path_enters >= 1);
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.enter(|g| g.wait(&done)));
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value += 1); // slow (the waiter holds presence)
        waiter.join().unwrap();
        assert!(m.is_quiescent());
    }

    #[test]
    fn a_clean_blocker_behind_an_elided_mutation_still_diffs() {
        // The snapshot diff calls an expression unchanged when it reads
        // what the previous diff read. A write over the elided lane is
        // announced but not diffed, so a waiter that registers after it
        // found its predicate false against a state no diff has seen: if
        // it blocked without relaying, a later write back to the cached
        // value would look like no change and the waiter would sleep
        // through its wakeup. The armed validator turns that into a
        // panic in the writer.
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::ChangeDriven).validate_relay(true),
        ));
        let v = value_expr(&m);
        let is_one = m.compile(v.eq(1));
        let wait_for_one = |m: &Arc<Monitor<Counter>>| {
            let (m2, cond) = (Arc::clone(m), is_one.clone());
            let waiter = thread::spawn(move || m2.enter(|g| g.wait(&cond)));
            while m.counts().waiting == 0 {
                thread::yield_now();
            }
            waiter
        };
        // One diff caches `value == 1`, and its waiter leaves.
        let waiter = wait_for_one(&m);
        m.with(|s| s.value = 1);
        waiter.join().unwrap();
        // Elided: nobody waits, so nothing relays and nothing diffs.
        let elided = m.stats_snapshot().counters.fast_path_enters;
        m.with(|s| s.value = 7);
        assert_eq!(m.stats_snapshot().counters.fast_path_enters, elided + 1);
        // A clean blocker, then a write back to the cached value.
        let waiter = wait_for_one(&m);
        m.with(|s| s.value = 1);
        waiter.join().unwrap();
        assert!(m.is_quiescent());
    }

    /// Parks a waiter on `cond` by hand — registered with the manager,
    /// no thread behind it — so a test decides when it resumes.
    fn park_by_hand(m: &Monitor<Counter>, cond: &Cond<Counter>) -> PredId {
        let mut inner = m.inner.lock();
        inner
            .mgr
            .register_waiter_slot(cond.slot(), cond.predicate_arc(), &m.stats)
    }

    /// The signaled hand-parked waiter `pid` resumes, finds its predicate
    /// true and leaves without writing: the wait loop's steps after a
    /// wakeup, then a real guard's exit.
    fn resume_and_leave(m: &Monitor<Counter>, pid: PredId) {
        let mut inner = m.inner.lock();
        assert!(inner.eval_entry(m, pid));
        inner.mgr.consume_signal(pid, &m.stats);
        inner.dirty = false;
        inner.signaled = true;
        drop(MonitorGuard {
            monitor: m,
            inner: Some(inner),
            started: None,
            elided: false,
            drain: None,
            tctx: None,
        });
    }

    /// Two hand-parked waiters made true by one write; a relay signals
    /// one, so exactly one holds the baton. Returns them in signaling
    /// order.
    fn two_true_waiters_one_baton(
        m: &Monitor<Counter>,
        v: ExprHandle<Counter>,
    ) -> (PredId, PredId) {
        let first = park_by_hand(m, &m.compile(v.ge(5)));
        let second = park_by_hand(m, &m.compile(v.ge(7)));
        m.with(|s| s.value = 10);
        let counts = m.counts();
        assert_eq!((counts.signaled, counts.waiting), (1, 1));
        assert_eq!(m.stats_snapshot().counters.signals, 1);
        (first, second)
    }

    // The mutex lane only: the hand-parked waiters hold no presence on
    // the monitor word, and the elided lane would skip every relay.
    fn mutex_only_validated() -> MonitorConfig {
        MonitorConfig::new().fast_path(false).validate_relay(true)
    }

    #[test]
    fn clean_blocker_hands_out_no_second_baton() {
        let m = Monitor::with_config(Counter { value: 0 }, mutex_only_validated());
        let v = value_expr(&m);
        let (first, second) = two_true_waiters_one_baton(&m, v);
        let never = m.compile(v.ge(100));
        // A third thread enters, reads, and blocks on a false condition.
        // It owes no relay; were it to run one it would find the second
        // waiter true and wake it for a slot the first has yet to leave.
        m.enter(|g| {
            assert_eq!(g.state().value, 10);
            assert!(!g.wait_timeout(&never, Duration::from_millis(2)));
        });
        let counts = m.counts();
        assert_eq!((counts.signaled, counts.waiting), (1, 1));
        assert_eq!(m.stats_snapshot().counters.signals, 1);
        // The first waiter leaves: the baton it holds is the second signal.
        resume_and_leave(&m, first);
        let counts = m.counts();
        assert_eq!((counts.signaled, counts.waiting), (1, 0));
        assert_eq!(m.stats_snapshot().counters.signals, 2);
        resume_and_leave(&m, second);
        assert!(m.is_quiescent());
        assert_eq!(m.stats_snapshot().counters.signals, 2);
    }

    #[test]
    fn a_blocker_that_wrote_still_relays() {
        let m = Monitor::with_config(Counter { value: 0 }, mutex_only_validated());
        let v = value_expr(&m);
        let (first, second) = two_true_waiters_one_baton(&m, v);
        let never = m.compile(v.ge(100));
        // The mirror: the blocker called `state_mut` first, so it owes a
        // relay before it blocks — which finds the second waiter.
        m.enter(|g| {
            g.state_mut().value = 11;
            assert!(!g.wait_timeout(&never, Duration::from_millis(2)));
        });
        let counts = m.counts();
        assert_eq!((counts.signaled, counts.waiting), (2, 0));
        assert_eq!(m.stats_snapshot().counters.signals, 2);
        resume_and_leave(&m, first);
        resume_and_leave(&m, second);
        assert!(m.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "re-entrantly")]
    fn reentrant_with_panics() {
        let m = Monitor::new(Counter { value: 0 });
        m.enter(|_| {
            m.with(|s| s.value += 1);
        });
    }

    #[test]
    fn quiescence_is_reported() {
        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        assert!(m.is_quiescent());
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.enter(|g| g.wait(&positive)));
        thread::sleep(Duration::from_millis(20));
        assert!(!m.is_quiescent(), "a registered waiter shows up");
        m.with(|s| s.value = 1);
        waiter.join().unwrap();
        assert!(m.is_quiescent());
    }

    #[test]
    fn into_inner_returns_the_state() {
        let m = Monitor::new(Counter { value: 9 });
        m.with(|s| s.value += 1);
        assert_eq!(m.into_inner().value, 10);
    }

    #[test]
    fn holds_is_a_pure_check() {
        let m = Monitor::new(Counter { value: 3 });
        let v = value_expr(&m);
        m.enter(|g| {
            assert!(g.holds(v.ge(3)));
            assert!(!g.holds(v.ge(4)));
        });
        // Nothing was registered.
        let counts = m.counts();
        assert_eq!((counts.entries, counts.waiting), (0, 0));
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let m = Monitor::new(Counter { value: 0 });
        assert!(format!("{m:?}").contains("Monitor"));
        m.enter(|g| {
            assert!(format!("{g:?}").contains("held"));
        });
    }

    #[test]
    fn drain_trace_attributes_events_to_the_right_monitor() {
        use crate::telemetry::EventKind;
        // The recorder is process-global: serialize against the other
        // enable-toggling telemetry tests.
        let _guard = crate::telemetry::test_lock();
        crate::telemetry::set_enabled(true);

        let m = Arc::new(Monitor::new(Counter { value: 0 }));
        let other = Monitor::new(Counter { value: 0 });
        let v = value_expr(&m);
        let positive = m.compile(v.ge(1));
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || m2.enter(|g| g.wait(&positive)));
        thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value = 1);
        waiter.join().unwrap();
        other.with(|s| s.value = 7); // traffic on a different monitor

        let events = m.drain_trace();
        crate::telemetry::set_enabled(false);

        assert!(!events.is_empty(), "an enabled run records events");
        assert!(
            events.iter().all(|e| e.monitor != 0),
            "every event carries a monitor token"
        );
        assert!(
            events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "drained events are time-ordered"
        );
        // Both the waiter and the mutator entered this monitor.
        let enters = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::EnterElided | EventKind::EnterSlow | EventKind::EnterCombined
                )
            })
            .count();
        assert!(enters >= 2, "expected at least two enters, got {enters}");
        assert!(
            events.iter().any(|e| e.kind == EventKind::WaitRegistered),
            "the wait registration was recorded"
        );
        // The `other` monitor's traffic was filtered out (drained and
        // discarded), so a fresh drain has nothing left for it.
        assert!(other.drain_trace().is_empty());
    }
}
