//! The flight recorder: lock-free, per-thread event tracing for the
//! monitor runtime.
//!
//! Counters ([`crate::stats`]) answer *how many*; the flight recorder
//! answers *what happened, in what order, on which thread* — which
//! enter lane an occupancy took, which relay pass woke which waiter,
//! what each parked self-check concluded. Every event is stamped with a
//! process-wide monotonic nanosecond clock plus monitor, thread, and
//! two event-specific operands, and lands in the recording thread's own
//! fixed-capacity overwrite-oldest ring (`ring.rs`) — no locks, no
//! allocation, no backpressure on the hot path. The per-thread capacity
//! defaults to 1024 events and is configurable via the
//! `AUTOSYNCH_RING_CAP` environment variable or [`set_ring_capacity`];
//! overwritten events are counted and surfaced on every drain so
//! downstream consumers (notably the [`span`] stitcher) can flag
//! truncated causal chains instead of inventing attributions.
//!
//! **Disabled cost.** Recording is off by default; every instrumented
//! site guards with [`enabled`], a single `Relaxed` load of one global
//! `AtomicBool`, so the monitor's fast paths pay one predictable branch
//! when tracing is off. Enable programmatically with [`set_enabled`] or
//! via `AUTOSYNCH_TRACE=1` through the benchmark harness's
//! `Mechanism::monitor_config`.
//!
//! **Attribution.** Deep layers (parking, wake routing, the condition
//! manager) record from inside an occupancy whose monitor identity they
//! don't carry; the recorder keeps a thread-local *current monitor*
//! token maintained by the enter/exit paths, so their events attribute
//! correctly without widening any internal signatures. See DESIGN.md's
//! "Telemetry soundness" section for why none of this can perturb relay
//! ordering.
//!
//! Drain with [`drain_all`] (everything) or
//! [`Monitor::drain_trace`](crate::Monitor::drain_trace) (one
//! monitor's view); the bench crate renders drained events as Chrome
//! trace-event JSON loadable in Perfetto. The [`span`] module stitches
//! drained streams back into causal per-wait spans with typed phase
//! attribution.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod ring;
pub mod span;

use ring::ThreadRing;

/// The event vocabulary. `a`/`b` operand meanings are per-kind and
/// documented on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u32)]
pub enum EventKind {
    /// Enter took the CAS lock-elision lane. `a`/`b` unused.
    EnterElided = 0,
    /// Enter took the mutex slow lane. `a`/`b` unused.
    EnterSlow = 1,
    /// A contended `with` occupancy was adopted and run by the lock
    /// holder via the flat-combining slab. `a`/`b` unused.
    EnterCombined = 2,
    /// A slow-lane thread blocked waiting for the fast-path word to
    /// clear. `a` = spin iterations burned before blocking.
    GateWait = 3,
    /// A waiter registered with the condition manager and is about to
    /// block. `a` = compiled `Cond` slot (`u64::MAX` for transient
    /// predicates). `b` = `wait_id << 1 | task`, where `wait_id` is the
    /// process-unique id of this wait ([`next_wait_id`]; 0 when tracing
    /// was off at registration) and `task` is 1 for a task-backed
    /// (`wait_async`) registration, 0 for a thread-backed one. The
    /// matching [`EventKind::WaitResolved`] closes the span.
    WaitRegistered = 4,
    /// A waiter committed to blocking: a routed waiter on its
    /// park slot, or a condvar-mode waiter on its entry's condition
    /// variable. `a` = wake epoch already observed at park time (0 in
    /// condvar mode, which has no published epochs). `b` = the wait id
    /// of the blocking wait (0 when unknown).
    Park = 5,
    /// A park slot was unparked. Recorded on the *signaler's* thread.
    /// `a` = published wake epoch. `b` = the wait id of the targeted
    /// waiter (0 when the slot carries none) — the cross-thread edge
    /// the span stitcher uses to split blocked time from the
    /// relay-to-wake gap.
    Unpark = 6,
    /// A woken waiter re-checked its own predicate: a routed waiter
    /// against the lock-free snapshot ring, or a condvar-mode
    /// waiter against the live state under the monitor lock. `a` = 1
    /// if the predicate may hold (the waiter proceeds to claim), 0 for
    /// a false/futile wakeup. `b` = snapshot epoch checked against (0
    /// for an under-lock check, which reads the live state).
    SelfCheck = 7,
    /// One relay-signaling pass completed. `a` = predicate evaluations
    /// spent, `b` = probes/relays skipped by tagging, change tracking
    /// and ladders combined.
    RelayPass = 8,
    /// A sweep token was forwarded to the next waiter in the bucket.
    /// `a` = gate, `b` = wake epoch carried.
    TokenForward = 9,
    /// A threshold ladder pruned provably-false rungs during a routed
    /// relay. `a` = rungs skipped.
    LadderSkip = 10,
    /// The lock holder adopted one published flat-combining occupancy.
    /// `a` = the publisher's slab slot.
    FcAdopt = 11,
    /// A fast-path (elided) exit ran the validate-relay audit and owed
    /// no relay. `a`/`b` unused.
    FastExitAudit = 12,
    /// An async wait future's poll ran the lock-free self-check
    /// against the snapshot ring. `a` = 1 if the predicate may hold
    /// (the poll proceeds to claim under the lock), 0 for a
    /// decidable-false verdict (the waker re-registers without
    /// touching the lock). `b` = snapshot epoch checked against.
    AsyncPoll = 13,
    /// A routed wake or token forward landed on a task-backed bucket
    /// entry and invoked its `Waker` off-lock. Recorded on the
    /// signaler's thread. `a` = published wake epoch. `b` = the wait id
    /// of the targeted task's wait (0 when the slot carries none).
    WakerWake = 14,
    /// A registered wait returned (claimed, timed out, or — condvar
    /// mode — woke holding). Closes the span opened by the matching
    /// [`EventKind::WaitRegistered`]. `a` = wait id (pairs with the
    /// registration's `b >> 1`). `b` = `elapsed_ns << 1 | satisfied`,
    /// where `elapsed_ns` is the waiter-clock latency the `wait`
    /// histogram recorded (0 when phase timing was off) and `satisfied`
    /// is 0 for a timeout.
    WaitResolved = 15,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 16] = [
        EventKind::EnterElided,
        EventKind::EnterSlow,
        EventKind::EnterCombined,
        EventKind::GateWait,
        EventKind::WaitRegistered,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::SelfCheck,
        EventKind::RelayPass,
        EventKind::TokenForward,
        EventKind::LadderSkip,
        EventKind::FcAdopt,
        EventKind::FastExitAudit,
        EventKind::AsyncPoll,
        EventKind::WakerWake,
        EventKind::WaitResolved,
    ];

    /// Stable snake_case name (the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EnterElided => "enter_elided",
            EventKind::EnterSlow => "enter_slow",
            EventKind::EnterCombined => "enter_combined",
            EventKind::GateWait => "gate_wait",
            EventKind::WaitRegistered => "wait_registered",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::SelfCheck => "self_check",
            EventKind::RelayPass => "relay_pass",
            EventKind::TokenForward => "token_forward",
            EventKind::LadderSkip => "ladder_skip",
            EventKind::FcAdopt => "fc_adopt",
            EventKind::FastExitAudit => "fast_exit_audit",
            EventKind::AsyncPoll => "async_poll",
            EventKind::WakerWake => "waker_wake",
            EventKind::WaitResolved => "wait_resolved",
        }
    }

    /// Decodes a stored discriminant; `None` for garbage (a torn slot
    /// that slipped through is dropped, never mislabeled).
    pub fn from_raw(raw: u64) -> Option<EventKind> {
        EventKind::ALL.get(raw as usize).copied()
    }
}

/// One drained flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process-wide trace epoch (monotonic).
    pub t_ns: u64,
    /// The monitor token the event occurred under (`0` when recorded
    /// outside any monitor occupancy).
    pub monitor: u64,
    /// Stable per-thread trace id.
    pub thread: u64,
    /// What happened.
    pub kind: EventKind,
    /// First per-kind operand (see [`EventKind`]).
    pub a: u64,
    /// Second per-kind operand (see [`EventKind`]).
    pub b: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static NEXT_WAIT: AtomicU64 = AtomicU64::new(1);
static DROPPED_TOTAL: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
    static CTX: Cell<u64> = const { Cell::new(0) };
}

/// Whether the flight recorder is on — one `Relaxed` load; this is the
/// entire disabled-path cost at every instrumented site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the flight recorder on or off process-wide. Events recorded
/// before enabling are not retroactively produced; events already in
/// the rings survive disabling and remain drainable.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the per-thread ring capacity (events retained before
/// overwrite-oldest) for rings created *after* this call; existing
/// rings keep their capacity. Overrides `AUTOSYNCH_RING_CAP`. Values
/// below a small floor are clamped. Harnesses tracing long sections
/// raise this before spawning their worker threads so the span
/// stitcher sees whole causal chains instead of truncated tails.
pub fn set_ring_capacity(cap: usize) {
    ring::set_capacity_override(cap);
}

/// Allocates a process-unique wait id (never 0) — the identity that
/// links one wait's [`EventKind::WaitRegistered`], its cross-thread
/// wake deliveries, and its [`EventKind::WaitResolved`].
pub fn next_wait_id() -> u64 {
    NEXT_WAIT.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since the first clock read of the process — one shared
/// monotonic epoch so events from different threads order correctly.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records an event attributed to the thread's current monitor context
/// (`0` outside any occupancy). No-op unless [`enabled`].
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    if enabled() {
        let monitor = CTX.try_with(Cell::get).unwrap_or(0);
        record_at(monitor, kind, a, b);
    }
}

/// Records an event attributed to an explicit monitor token — for
/// sites that know their monitor but run outside the thread's context
/// window (e.g. a combined occupancy completing on the publisher's
/// behalf). No-op unless [`enabled`].
#[inline]
pub fn record_for(monitor: u64, kind: EventKind, a: u64, b: u64) {
    if enabled() {
        record_at(monitor, kind, a, b);
    }
}

#[inline(never)]
fn record_at(monitor: u64, kind: EventKind, a: u64, b: u64) {
    let t_ns = now_ns();
    // try_with: a thread recording during its own TLS teardown drops
    // the event instead of panicking.
    let _ = RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(ThreadRing::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
            REGISTRY
                .lock()
                .expect("telemetry registry poisoned")
                .push(Arc::clone(&ring));
            ring
        });
        ring.push(t_ns, monitor, kind, a, b);
    });
}

/// Opens a monitor-context window for the calling thread: subsequent
/// [`record`] calls attribute to `token` until the matching
/// [`context_exit`]. Returns the previous token to restore (so nested
/// monitors unwind correctly), or `None` when tracing is disabled —
/// the enter/exit paths then skip the TLS traffic entirely.
#[inline]
pub(crate) fn context_enter(token: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    CTX.try_with(|c| c.replace(token)).ok()
}

/// Closes a context window opened by [`context_enter`].
#[inline]
pub(crate) fn context_exit(prev: Option<u64>) {
    if let Some(prev) = prev {
        let _ = CTX.try_with(|c| c.set(prev));
    }
}

/// One [`drain_all`] result: the surviving events plus how many were
/// lost to overwrite-oldest since the previous drain.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// Every event recorded since the previous drain that survived in
    /// its ring, sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events overwritten before this drain could read them (summed
    /// across all thread rings). Nonzero means `events` has holes: the
    /// span stitcher will report truncated/orphaned spans, and
    /// reconciliation against `MonitorStats.wait` is off the table for
    /// this window. Raise the ring capacity ([`set_ring_capacity`] /
    /// `AUTOSYNCH_RING_CAP`) or drain more often.
    pub dropped: u64,
}

/// Drains every thread's ring: all events recorded since the previous
/// drain (bounded per thread by the ring capacity — older events were
/// overwritten, and counted in [`Drained::dropped`]), sorted by
/// timestamp. Rings of threads that have since exited are drained one
/// final time and then dropped from the registry, so long-lived
/// processes spawning many short-lived threads don't accumulate dead
/// rings.
pub fn drain_all() -> Drained {
    let mut registry = REGISTRY.lock().expect("telemetry registry poisoned");
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in registry.iter() {
        dropped += ring.drain_into(&mut events);
    }
    // A dead thread's TLS handle is gone, leaving the registry's as the
    // only strong reference.
    registry.retain(|ring| Arc::strong_count(ring) > 1);
    drop(registry);
    events.sort_by_key(|e| e.t_ns);
    DROPPED_TOTAL.fetch_add(dropped, Ordering::Relaxed);
    Drained { events, dropped }
}

/// Total events lost to ring overwrite across every drain so far — the
/// process-lifetime companion of the per-drain [`Drained::dropped`].
pub fn dropped_total() -> u64 {
    DROPPED_TOTAL.load(Ordering::Relaxed)
}

/// Serializes tests that toggle the process-wide recorder, so a test
/// flipping [`set_enabled`] cannot drop a concurrent test's events.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide state shared by every test in
    // the binary, so each test holds the test lock and filters on its
    // own marker operands rather than asserting on totals.

    #[test]
    fn disabled_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        record(EventKind::Park, 0xDEAD_0001, 0);
        assert!(!drain_all()
            .events
            .iter()
            .any(|e| e.kind == EventKind::Park && e.a == 0xDEAD_0001));
    }

    #[test]
    fn enabled_roundtrip_attributes_context() {
        let _g = test_lock();
        set_enabled(true);
        let prev = context_enter(42).expect("enabled");
        record(EventKind::SelfCheck, 0xDEAD_0002, 9);
        context_exit(Some(prev));
        record_for(77, EventKind::RelayPass, 0xDEAD_0003, 0);
        set_enabled(false);
        let events = drain_all().events;
        let in_ctx = events
            .iter()
            .find(|e| e.a == 0xDEAD_0002)
            .expect("context event drained");
        assert_eq!(in_ctx.monitor, 42);
        assert_eq!(in_ctx.kind, EventKind::SelfCheck);
        assert_eq!(in_ctx.b, 9);
        assert!(in_ctx.thread > 0);
        let explicit = events
            .iter()
            .find(|e| e.a == 0xDEAD_0003)
            .expect("explicit event drained");
        assert_eq!(explicit.monitor, 77);
    }

    #[test]
    fn drain_is_consuming_and_sorted() {
        let _g = test_lock();
        set_enabled(true);
        for i in 0..10u64 {
            record(EventKind::Unpark, 0xDEAD_0004, i);
        }
        set_enabled(false);
        let events: Vec<_> = drain_all()
            .events
            .into_iter()
            .filter(|e| e.a == 0xDEAD_0004)
            .collect();
        assert_eq!(events.len(), 10);
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(!drain_all().events.iter().any(|e| e.a == 0xDEAD_0004));
    }

    #[test]
    fn cross_thread_events_carry_distinct_thread_ids() {
        let _g = test_lock();
        set_enabled(true);
        record(EventKind::GateWait, 0xDEAD_0005, 0);
        std::thread::spawn(|| record(EventKind::GateWait, 0xDEAD_0006, 0))
            .join()
            .unwrap();
        set_enabled(false);
        let events = drain_all().events;
        let here = events.iter().find(|e| e.a == 0xDEAD_0005).unwrap().thread;
        let there = events.iter().find(|e| e.a == 0xDEAD_0006).unwrap().thread;
        assert_ne!(here, there);
    }

    #[test]
    fn kind_names_and_raw_roundtrip() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_raw(kind as u64), Some(kind));
        }
        assert_eq!(EventKind::from_raw(999), None);
    }
}
