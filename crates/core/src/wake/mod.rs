//! Targeted wake routing (`SignalMode::Routed`): slot-ordered token
//! sweeps and eq-index-directed unparks.
//!
//! Letting waiters self-check against the snapshot ring gets the
//! signaler off the hot path; broadcasting per-gate wakes to them
//! would cost a self-check herd — on fig11's round robin every exit
//! would wake all N parked waiters so that exactly one can proceed.
//! This module targets the wakes instead, built on the observation
//! that a compiled condition is a *stable identity for a waiting
//! population*: every parked waiter of a `Cond` shares
//! one pinned predicate-table entry, one gate, and now one **bucket**.
//!
//! Three mechanisms, in escalating precision:
//!
//! 1. **Slot-ordered gate queues** ([`slot_queue`]) — each gate's wait
//!    queue is bucketed by `Cond` slot, so a wake announcement names
//!    slots, not gates. Slotless (transient) waiters keep a broadcast
//!    bucket; the global gate keeps its conservative full broadcast.
//! 2. **Per-slot token sweeps** ([`token`]) — a bucket wake unparks
//!    only the first unobserved waiter; a false self-check forwards the
//!    token, a futile claim forwards it, a successful claimer
//!    re-injects it at monitor exit. The signaler's critical section
//!    stays index-probe-free — it only *announces*; all token traffic runs on waiter threads after the
//!    monitor lock is released.
//! 3. **Eq-index-directed unparks** ([`route`]) — for
//!    equivalence-shaped compiled conditions the relay maps the freshly
//!    published value straight to the single slot whose waiters can
//!    have flipped, turning the fig11 wake herd into one unpark.
//!
//! PR 6 closes the three precision seams that remained:
//!
//! 4. **Threshold ladders** ([`ladder`]) — `expr >= k` slots register
//!    as ordered rungs per expression; a published value wakes only the
//!    crossed-rung prefix and the provably-false remainder is counted
//!    as `ladder_skips`, turning fig14's threshold herd into a range
//!    scan.
//! 5. **Transient-bucket LRU** ([`slot_queue`]) — a bounded cache
//!    (`transient_bucket_cap`) graduates repeating-but-uncompiled
//!    `wait_transient` keys off the per-gate broadcast bucket into
//!    swept per-predicate buckets; eviction only touches idle buckets,
//!    so no graduated waiter is ever stranded.
//! 6. **Per-bucket sweep cursors** ([`slot_queue`], [`token`]) — each
//!    bucket remembers where the current epoch's sweep stopped, so a
//!    forwarded token resumes from the last unobserved position instead
//!    of re-scanning observed waiters: O(bucket²) worth of redundant
//!    scanning per epoch becomes O(bucket).
//!
//! The no-lost-token argument lives in `DESIGN.md` ("Wake routing
//! soundness"); the manager's `check_wake_routing` validator re-proves
//! it after every routed relay when `validate_relay` is armed.
//!
//! PR 9 generalizes the bucket *entry* itself: a [`Waiter`] is either a
//! thread's park token or an async task's waker slot
//! ([`crate::asynch`]), so routed unparks and token forwards deliver
//! `Waker::wake()` off-lock exactly where thread unparks are delivered
//! — nothing in the token discipline changes, only the blocking
//! primitive behind `unpark`.

pub(crate) mod ladder;
pub(crate) mod route;
pub(crate) mod slot_queue;
pub(crate) mod token;

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use autosynch_metrics::counters::SyncCounters;

use crate::asynch::WakerSlot;
use crate::eq_index::PredId;
use crate::parking::locks::ShardLock;
use crate::parking::park::ParkSlot;

pub(crate) use route::{RoutedWake, SlotRoute, WakeRouter};
pub(crate) use slot_queue::BucketKey;
pub(crate) use token::SweepToken;

use slot_queue::SlotQueue;

use crate::config::MonitorConfig;

/// A waiter's position in a gate's bucketed queue, held for the
/// lifetime of one wait and needed to claim or cancel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WakeTicket {
    gate: u32,
    node: u32,
}

/// A bucket entry's blocking primitive: a parked OS thread or a pending
/// async task. The token-sweep discipline (targeting by observed epoch,
/// coverage for the no-lost-token audit, coalesced epoch-stamped wakes)
/// is identical across the two — only what `unpark` does differs: set a
/// park token and `notify` the thread, or set the same token and invoke
/// the task's registered `Waker` off-lock.
#[derive(Debug, Clone)]
pub(crate) enum Waiter {
    /// A thread blocked on a [`ParkSlot`].
    Thread(Arc<ParkSlot>),
    /// A task whose wake is a `Waker::wake()` call via a [`WakerSlot`].
    Task(Arc<WakerSlot>),
}

impl Waiter {
    /// Publishes a wake stamped `epoch`: unparks the thread or wakes
    /// the task (both off-lock, both coalescing into the max epoch).
    pub(crate) fn unpark(&self, epoch: u64) {
        match self {
            Waiter::Thread(park) => park.unpark(epoch),
            Waiter::Task(slot) => slot.unpark(epoch),
        }
    }

    /// The newest epoch this waiter's self-checks have observed (the
    /// sweep's targeting rule skips it for older epochs).
    pub(crate) fn observed_epoch(&self) -> u64 {
        match self {
            Waiter::Thread(park) => park.observed_epoch(),
            Waiter::Task(slot) => slot.observed_epoch(),
        }
    }

    /// Whether this waiter covers its bucket for the no-lost-token
    /// audit (holds a pending token, or is awake / about to poll).
    pub(crate) fn covered(&self) -> bool {
        match self {
            Waiter::Thread(park) => park.covered(),
            Waiter::Task(slot) => slot.covered(),
        }
    }
}

impl From<Arc<ParkSlot>> for Waiter {
    fn from(park: Arc<ParkSlot>) -> Self {
        Waiter::Thread(park)
    }
}

impl From<Arc<WakerSlot>> for Waiter {
    fn from(slot: Arc<WakerSlot>) -> Self {
        Waiter::Task(slot)
    }
}

/// One per-shard gate: the shard's lock, its slot-bucketed wait queue,
/// and the lock-free mirrors the relay reads without taking the lock.
#[derive(Debug, Default)]
struct WakeGate {
    queue: ShardLock<SlotQueue>,
    /// Lock-free mirror of the queue length, so a relay can skip empty
    /// gates without taking their locks.
    len: AtomicUsize,
    /// Lock-free mirror of the transient bucket's length: transient
    /// broadcasts are announced only when slotless waiters exist.
    transient_len: AtomicUsize,
    /// Wake deliveries stashed under the monitor lock but not yet
    /// performed (the announce/deliver split): a nonzero
    /// count covers the gate's waiters for the protocol validator.
    pending_deliveries: AtomicU32,
}

/// The monitor-wide routed-wake structure: one gate per shard slot
/// (data shards first, global gate last), mirroring the condition
/// manager's shard layout.
#[derive(Debug)]
pub(crate) struct WakeLot {
    gates: Vec<WakeGate>,
    /// Per-gate capacity of the graduated transient-bucket LRU
    /// ([`MonitorConfig::transient_bucket_cap`]); `0` disables
    /// graduation.
    transient_cap: usize,
    /// Whether token sweeps resume from per-bucket cursors
    /// ([`MonitorConfig::sweep_cursors`]).
    sweep_cursors: bool,
}

impl Default for WakeLot {
    fn default() -> Self {
        Self::new(0)
    }
}

impl WakeLot {
    /// Creates a lot with `gates` gates (0 for modes without routing)
    /// and the default knobs of [`MonitorConfig`].
    pub(crate) fn new(gates: usize) -> Self {
        let defaults = MonitorConfig::default();
        Self::with_config(
            gates,
            defaults.transient_bucket_capacity(),
            defaults.sweep_cursors_enabled(),
        )
    }

    /// Creates a lot with explicit LRU capacity and cursor knobs.
    pub(crate) fn with_config(gates: usize, transient_cap: usize, sweep_cursors: bool) -> Self {
        WakeLot {
            gates: (0..gates).map(|_| WakeGate::default()).collect(),
            transient_cap,
            sweep_cursors,
        }
    }

    /// Number of gates (shard slots).
    pub(crate) fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Enqueues a waiter on `gate` in `bucket`. Callers hold the
    /// monitor lock, so enqueue serializes with every publish — a
    /// waiter is either in its bucket before a relay announces, or it
    /// registered against the already-mutated state.
    pub(crate) fn enqueue(
        &self,
        gate: usize,
        bucket: BucketKey,
        waiter: impl Into<Waiter>,
        pid: PredId,
    ) -> WakeTicket {
        let g = &self.gates[gate];
        let node = g.queue.lock().push_back(bucket, waiter, pid);
        g.len.fetch_add(1, Ordering::Relaxed);
        if !matches!(bucket, BucketKey::Slot(_)) {
            // The transient mirror counts *all* slotless waiters —
            // broadcast-bucket and graduated alike — so the relay's
            // "announce a transient wake" condition is unchanged by
            // graduation.
            g.transient_len.fetch_add(1, Ordering::Relaxed);
        }
        WakeTicket {
            gate: gate as u32,
            node,
        }
    }

    /// Enqueues a slotless waiter of `pid` on `gate`, running the
    /// graduated-bucket admission first (see
    /// [`SlotQueue::admit_transient`]) under the same gate-lock hold as
    /// the enqueue, so admission and membership cannot race. Returns
    /// the ticket, the bucket the waiter actually parked in (callers
    /// need it for the token discipline), and whether admission was an
    /// LRU hit.
    pub(crate) fn enqueue_transient(
        &self,
        gate: usize,
        waiter: impl Into<Waiter>,
        pid: PredId,
    ) -> (WakeTicket, BucketKey, bool) {
        let g = &self.gates[gate];
        let (bucket, hit, node) = {
            let mut queue = g.queue.lock();
            let (bucket, hit) = queue.admit_transient(pid, self.transient_cap);
            (bucket, hit, queue.push_back(bucket, waiter, pid))
        };
        g.len.fetch_add(1, Ordering::Relaxed);
        g.transient_len.fetch_add(1, Ordering::Relaxed);
        (
            WakeTicket {
                gate: gate as u32,
                node,
            },
            bucket,
            hit,
        )
    }

    /// Removes a waiter from its bucket (claim or cancel). Takes only
    /// the gate's lock; the bucket is read from the node itself, so the
    /// length mirrors cannot desync from the queue's own membership
    /// record. With `claim`, the removal atomically registers the
    /// leaver as an in-flight claimer of its bucket — it stays visible
    /// to the no-lost-token audit as the bucket's coverage until the
    /// matching [`WakeLot::end_claim`].
    pub(crate) fn dequeue(&self, ticket: WakeTicket, claim: bool) {
        let g = &self.gates[ticket.gate as usize];
        let bucket = g.queue.lock().remove(ticket.node, claim);
        g.len.fetch_sub(1, Ordering::Relaxed);
        if !matches!(bucket, BucketKey::Slot(_)) {
            g.transient_len.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Whether `gate` has any enqueued waiter, without taking its lock.
    pub(crate) fn has_waiters(&self, gate: usize) -> bool {
        self.gates[gate].len.load(Ordering::Relaxed) > 0
    }

    /// Whether `gate` has any transient (slotless) waiter, without
    /// taking its lock.
    pub(crate) fn has_transient(&self, gate: usize) -> bool {
        self.gates[gate].transient_len.load(Ordering::Relaxed) > 0
    }

    /// Announces (under the monitor lock) that a wake touching `gate`
    /// will be delivered once the signaler has released the lock; the
    /// announcement covers the gate's waiters for the validator until
    /// [`WakeLot::deliver`] retires it.
    pub(crate) fn announce(&self, gate: usize) {
        self.gates[gate]
            .pending_deliveries
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Delivers one previously announced wake, stamping `epoch`, then
    /// retires the announcement. Called **without** the monitor lock.
    pub(crate) fn deliver(&self, wake: RoutedWake, epoch: u64, counters: &SyncCounters) {
        let gate = match wake {
            RoutedWake::Gate(g) | RoutedWake::Transient(g) => g,
            RoutedWake::Bucket { gate, .. } | RoutedWake::Reinject { gate, .. } => gate,
        } as usize;
        match wake {
            RoutedWake::Gate(_) => {
                let woken = self.gates[gate].queue.lock().wake_all(epoch);
                counters.record_unparks(woken as u64);
            }
            RoutedWake::Transient(_) => {
                // Broadcast the slotless herd, then start a one-unpark
                // token sweep in each graduated bucket — graduated
                // waiters keep the targeted discipline even on the
                // conservative transient path.
                let mut queue = self.gates[gate].queue.lock();
                let woken = queue.wake_transient(epoch);
                counters.record_unparks(woken as u64);
                for pid in queue.pred_bucket_keys() {
                    let adv = queue.wake_next(BucketKey::Pred(pid), epoch, self.sweep_cursors);
                    if adv.woken {
                        counters.record_unpark();
                        counters.record_routed_unpark();
                    }
                    if adv.resumed {
                        counters.record_cursor_resume();
                    }
                }
            }
            RoutedWake::Bucket { slot, .. } => {
                self.wake_next(gate, BucketKey::Slot(slot), epoch, counters);
            }
            RoutedWake::Reinject { bucket, .. } => {
                // The baton handoff the claimer owed its bucket —
                // counted only when a peer actually receives it.
                if self.wake_next(gate, bucket, epoch, counters) {
                    counters.record_token_forward();
                }
            }
        }
        self.gates[gate]
            .pending_deliveries
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Retires an in-flight claim recorded by a claiming
    /// [`WakeLot::dequeue`]; call only after the token's next home is
    /// settled (re-injection announced, token forwarded, or sweep
    /// provably complete).
    pub(crate) fn end_claim(&self, gate: usize, bucket: BucketKey) {
        self.gates[gate].queue.lock().end_claim(bucket);
    }

    /// Unparks the first waiter of `bucket` that has not observed
    /// `epoch` (the sweep's targeting rule). Returns whether anyone was
    /// woken. Used for both sweep starts (via [`WakeLot::deliver`]) and
    /// waiter-side forwards (via [`SweepToken::forward`]), which skip
    /// the announcement bookkeeping because they run to completion on
    /// the calling thread.
    pub(crate) fn wake_next(
        &self,
        gate: usize,
        bucket: BucketKey,
        epoch: u64,
        counters: &SyncCounters,
    ) -> bool {
        let adv = self.gates[gate]
            .queue
            .lock()
            .wake_next(bucket, epoch, self.sweep_cursors);
        if adv.woken {
            counters.record_unpark();
            counters.record_routed_unpark();
        }
        if adv.resumed {
            counters.record_cursor_resume();
        }
        adv.woken
    }

    /// Total waiters enqueued across all gates.
    pub(crate) fn queued_total(&self) -> usize {
        self.gates.iter().map(|g| g.queue.lock().len()).sum()
    }

    /// The no-lost-token audit: returns the gate index of an enqueued
    /// waiter of `pid` that is parked bare — no pending unpark token,
    /// not covered by an in-flight sweep in its bucket (a covered
    /// bucket peer), and no undelivered wake announced for its gate.
    /// `None` when every such waiter is covered. Called by the protocol
    /// validator for entries whose predicate is currently true.
    pub(crate) fn uncovered(&self, pid: PredId) -> Option<usize> {
        for (gate_idx, gate) in self.gates.iter().enumerate() {
            if gate.pending_deliveries.load(Ordering::Relaxed) > 0 {
                continue; // a wake touching this gate is in flight
            }
            let queue = gate.queue.lock();
            // A pid's waiters can span several buckets of one gate (a
            // compiled Cond population in its slot bucket plus
            // transient waiters of the same interned predicate): every
            // bucket holding a bare waiter must be audited, not just
            // the first one found.
            let mut bare_buckets: Vec<BucketKey> = Vec::new();
            queue.for_each(|waiter, node_pid, bucket| {
                if node_pid == pid && !waiter.covered() && !bare_buckets.contains(&bucket) {
                    bare_buckets.push(bucket);
                }
            });
            // A covered bucket peer is an in-flight sweep: it will
            // reach this waiter (forward) or end the need for it
            // (claim + re-inject / newer publish).
            if bare_buckets
                .iter()
                .any(|&bucket| !queue.bucket_covered(bucket))
            {
                return Some(gate_idx);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parking::park::ParkOutcome;
    use crate::slab::Slab;

    #[test]
    fn bucket_delivery_unparks_one_waiter_and_gate_delivery_all() {
        let mut slab: Slab<u8> = Slab::new();
        let pid = slab.insert(0);
        let lot = WakeLot::new(2);
        let parks: Vec<Arc<ParkSlot>> = (0..3).map(|_| Arc::new(ParkSlot::new())).collect();
        let tickets: Vec<WakeTicket> = parks
            .iter()
            .map(|p| lot.enqueue(1, BucketKey::Slot(4), Arc::clone(p), pid))
            .collect();
        let counters = SyncCounters::new();
        lot.announce(1);
        lot.deliver(RoutedWake::Bucket { gate: 1, slot: 4 }, 9, &counters);
        assert_eq!(parks[0].park(None), ParkOutcome::Woken { epoch: 9 });
        let snap = counters.snapshot();
        assert_eq!(snap.unparks, 1, "a bucket wake unparks exactly one");
        assert_eq!(snap.routed_unparks, 1);
        lot.announce(1);
        lot.deliver(RoutedWake::Gate(1), 10, &counters);
        assert_eq!(counters.snapshot().unparks, 4, "gate broadcast woke all 3");
        for (park, ticket) in parks.iter().zip(tickets) {
            assert_eq!(park.park(None), ParkOutcome::Woken { epoch: 10 });
            lot.dequeue(ticket, false);
        }
        assert_eq!(lot.queued_total(), 0);
    }

    #[test]
    fn transient_delivery_leaves_slot_buckets_asleep() {
        let mut slab: Slab<u8> = Slab::new();
        let pid = slab.insert(0);
        let lot = WakeLot::new(1);
        let slotted = Arc::new(ParkSlot::new());
        let transient = Arc::new(ParkSlot::new());
        let ts = lot.enqueue(0, BucketKey::Slot(0), Arc::clone(&slotted), pid);
        let tt = lot.enqueue(0, BucketKey::Transient, Arc::clone(&transient), pid);
        assert!(lot.has_transient(0));
        let counters = SyncCounters::new();
        lot.announce(0);
        lot.deliver(RoutedWake::Transient(0), 2, &counters);
        assert_eq!(transient.park(None), ParkOutcome::Woken { epoch: 2 });
        assert!(!slotted.covered() || slotted.take_pending().is_none());
        lot.dequeue(tt, false);
        assert!(!lot.has_transient(0));
        assert!(lot.has_waiters(0));
        lot.dequeue(ts, false);
        assert!(!lot.has_waiters(0));
    }

    #[test]
    fn uncovered_is_bucket_aware() {
        let mut slab: Slab<u8> = Slab::new();
        let pid = slab.insert(0);
        let lot = WakeLot::new(1);
        let a = Arc::new(ParkSlot::new());
        let b = Arc::new(ParkSlot::new());
        let ta = lot.enqueue(0, BucketKey::Slot(0), Arc::clone(&a), pid);
        let tb = lot.enqueue(0, BucketKey::Slot(0), Arc::clone(&b), pid);
        // Both awake: covered.
        assert_eq!(lot.uncovered(pid), None);
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let ha = std::thread::spawn(move || a2.park(None));
        let hb = std::thread::spawn(move || b2.park(None));
        std::thread::sleep(std::time::Duration::from_millis(30));
        // Both parked bare: uncovered.
        assert_eq!(lot.uncovered(pid), Some(0));
        // A token in the bucket covers the whole bucket (in-flight
        // sweep).
        let counters = SyncCounters::new();
        assert!(lot.wake_next(0, BucketKey::Slot(0), 3, &counters));
        assert_eq!(lot.uncovered(pid), None);
        ha.join().unwrap();
        a.observed(3);
        // `a` is awake again (covered peer) even before forwarding.
        assert_eq!(lot.uncovered(pid), None);
        assert!(lot.wake_next(0, BucketKey::Slot(0), 3, &counters));
        hb.join().unwrap();
        lot.dequeue(ta, false);
        lot.dequeue(tb, false);
    }

    #[test]
    fn pending_announcements_cover_the_gate() {
        let mut slab: Slab<u8> = Slab::new();
        let pid = slab.insert(0);
        let lot = WakeLot::new(1);
        let park = Arc::new(ParkSlot::new());
        let ticket = lot.enqueue(0, BucketKey::Slot(1), Arc::clone(&park), pid);
        let p2 = Arc::clone(&park);
        let h = std::thread::spawn(move || p2.park(None));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(lot.uncovered(pid), Some(0));
        lot.announce(0);
        assert_eq!(lot.uncovered(pid), None, "announced wake covers");
        let counters = SyncCounters::new();
        lot.deliver(RoutedWake::Bucket { gate: 0, slot: 1 }, 1, &counters);
        h.join().unwrap();
        lot.dequeue(ticket, false);
    }
}
