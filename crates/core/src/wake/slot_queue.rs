//! The slot-bucketed wait queue: one FIFO bucket per compiled-`Cond`
//! slot, a bounded LRU of graduated per-predicate buckets for
//! repeating transient waiters, plus a broadcast bucket for the rest.
//!
//! Waiters stay linked for the whole park/re-check loop (the
//! no-lost-wakeup mechanics of [`ParkSlot`](crate::parking::ParkSlot)),
//! and membership is keyed by the waiter's compiled-condition slot so a
//! wake can name a *bucket* instead of the whole gate:
//!
//! * [`SlotQueue::wake_next`] starts or continues a **token sweep**: it
//!   unparks the first bucket waiter that has not yet observed the
//!   sweep's epoch (one waiter, not the herd). Coalescing in the park
//!   token makes re-targeting an already-pending waiter free.
//! * [`SlotQueue::admit_transient`] is the slotless waiter's admission
//!   gate: a `wait_transient` predicate whose interned entry already
//!   owns (or can still be granted) a **graduated bucket** in the
//!   gate's bounded LRU parks there and joins the token-sweep
//!   discipline; only the overflow falls back to the broadcast bucket.
//!   Eviction touches idle buckets exclusively — an occupied bucket
//!   (linked waiters or an in-flight claimer) is pinned, so an evicted
//!   key's waiters cannot exist and nobody strands.
//! * [`SlotQueue::wake_transient`] broadcasts the transient bucket —
//!   waiters who stayed slotless have no bucket identity, so they get
//!   a gate-wide broadcast (documented on
//!   `MonitorGuard::wait_transient`). The caller additionally sweeps
//!   each non-empty graduated bucket (one unpark, not the herd).
//!
//! Each bucket also keeps a **sweep cursor**: the position and epoch of
//! the last [`SlotQueue::wake_next`], so a token forward at the same
//! epoch resumes where the sweep left off instead of rescanning the
//! FIFO head — a full sweep drops from O(bucket²) worst case to
//! O(bucket) total. Skipping the prefix is sound because every node
//! before the cursor was observed at the sweep's epoch when the cursor
//! passed it (observed epochs are monotonic), and a waiter enqueued
//! *after* the sweep began evaluated its predicate under the monitor
//! lock at a cut at least as new as the epoch's publish, so it needs no
//! wake for that epoch; any newer epoch resets the scan to the head.
//! * [`SlotQueue::wake_all`] broadcasts everything — the global gate's
//!   conservative wake, and the routed fallback wherever slot precision
//!   has nothing to offer.
//!
//! Nodes live in a free-listed slab exactly like the flat queue's, so
//! steady-state enqueue/dequeue allocates nothing once the buckets
//! exist; a bucket is created on first use and retained (slots are
//! pinned for the monitor's lifetime, so the set of buckets is small
//! and stable).

use std::collections::HashMap;

use super::Waiter;
use crate::eq_index::PredId;

const NIL: u32 = u32::MAX;

/// Which bucket of a gate's queue a waiter parks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BucketKey {
    /// The waiter waits on the compiled condition pinned at this slot.
    Slot(u32),
    /// The waiter is slotless but its interned predicate graduated into
    /// the gate's bounded LRU of per-predicate buckets: it is swept by
    /// tokens exactly like a slot bucket.
    Pred(PredId),
    /// The waiter has no pinned slot and no graduated bucket (transient
    /// / per-call analysis): it is woken by gate-level broadcasts only.
    Transient,
}

impl BucketKey {
    /// Whether waiters of this bucket run the token-sweep discipline
    /// (targeted wakes, forwards, baton re-injection) rather than the
    /// broadcast fallback.
    pub(crate) fn is_swept(self) -> bool {
        !matches!(self, BucketKey::Transient)
    }
}

#[derive(Debug)]
struct Node {
    /// The waiter's blocking primitive — a thread's park token or an
    /// async task's waker slot; `None` marks a free node.
    waiter: Option<Waiter>,
    /// The predicate entry the waiter is registered under.
    pid: PredId,
    /// The bucket this node is linked into.
    bucket: BucketKey,
    prev: u32,
    next: u32,
}

/// One FIFO bucket: head/tail of an intrusive list through the node
/// slab, plus the in-flight claimer count — waiters that left the
/// bucket carrying its sweep token to go confirm under the monitor
/// lock. An in-flight claimer *is* the bucket's coverage: it will
/// re-inject the token at exit (claim success), forward it after
/// re-enqueueing (futile claim), or forward it on cancellation, so the
/// no-lost-token audit must count it even though it is not linked.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    len: u32,
    inflight: u32,
    /// The sweep cursor: the node the last [`SlotQueue::wake_next`] at
    /// `cursor_epoch` stopped on (the waiter it unparked, or `NIL` when
    /// the sweep ran off the tail). Valid only while the queried epoch
    /// equals `cursor_epoch`; a newer epoch resets the scan to `head`.
    cursor: u32,
    /// The epoch `cursor` belongs to. `0` is never a real publish
    /// epoch, so the default invalidates the cursor.
    cursor_epoch: u64,
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            head: NIL,
            tail: NIL,
            len: 0,
            inflight: 0,
            cursor: NIL,
            cursor_epoch: 0,
        }
    }
}

/// The outcome of one [`SlotQueue::wake_next`] advance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepAdvance {
    /// Whether a waiter was unparked (`false` retires the sweep).
    pub(crate) woken: bool,
    /// Whether the scan resumed from a saved mid-bucket cursor instead
    /// of the FIFO head (the O(1) fast path the `cursor_resumes`
    /// counter reports).
    pub(crate) resumed: bool,
}

/// A slot-bucketed wait queue over a shared node slab. See the module
/// docs.
#[derive(Debug)]
pub(crate) struct SlotQueue {
    nodes: Vec<Node>,
    /// Head of the free list (threaded through `next`).
    free: u32,
    buckets: HashMap<u32, Bucket>,
    /// Graduated per-predicate buckets for repeating transient waiters,
    /// bounded by the admission LRU below.
    pred_buckets: HashMap<PredId, Bucket>,
    /// Admission recency, least-recently-admitted first. Eviction scans
    /// from the front and only ever takes an *idle* bucket (no linked
    /// waiters, no in-flight claimer) — occupied buckets are pinned, so
    /// an evicted key can have no waiters left to strand.
    pred_lru: Vec<PredId>,
    transient: Bucket,
    len: usize,
}

impl Default for SlotQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl SlotQueue {
    pub(crate) fn new() -> Self {
        SlotQueue {
            nodes: Vec::new(),
            free: NIL,
            buckets: HashMap::new(),
            pred_buckets: HashMap::new(),
            pred_lru: Vec::new(),
            transient: Bucket::default(),
            len: 0,
        }
    }

    /// Total enqueued waiters across all buckets.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Enqueued waiters in the transient (slotless) bucket.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn transient_len(&self) -> usize {
        self.transient.len as usize
    }

    /// Enqueued waiters in `bucket`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn bucket_len(&self, bucket: BucketKey) -> usize {
        self.bucket(bucket).map_or(0, |b| b.len as usize)
    }

    fn bucket_mut(&mut self, key: BucketKey) -> &mut Bucket {
        match key {
            BucketKey::Transient => &mut self.transient,
            BucketKey::Slot(slot) => self.buckets.entry(slot).or_default(),
            BucketKey::Pred(pid) => self.pred_buckets.entry(pid).or_default(),
        }
    }

    fn bucket(&self, key: BucketKey) -> Option<&Bucket> {
        match key {
            BucketKey::Transient => Some(&self.transient),
            BucketKey::Slot(slot) => self.buckets.get(&slot),
            BucketKey::Pred(pid) => self.pred_buckets.get(&pid),
        }
    }

    /// The slotless admission gate: picks the bucket a transient waiter
    /// of `pid` parks in, maintaining the graduated-bucket LRU of
    /// capacity `cap`. Returns the bucket key plus whether this was a
    /// cache *hit* (the predicate had already graduated). A miss
    /// graduates the predicate when the LRU has room or an idle bucket
    /// can be evicted; otherwise the waiter falls back to the broadcast
    /// bucket. Occupied buckets (linked waiters or in-flight claimers)
    /// are never evicted, so graduation can only be denied — never
    /// revoked under a waiter.
    pub(crate) fn admit_transient(&mut self, pid: PredId, cap: usize) -> (BucketKey, bool) {
        if cap == 0 {
            return (BucketKey::Transient, false);
        }
        if self.pred_buckets.contains_key(&pid) {
            // Hit: refresh recency.
            if let Some(pos) = self.pred_lru.iter().position(|&p| p == pid) {
                self.pred_lru.remove(pos);
                self.pred_lru.push(pid);
            }
            return (BucketKey::Pred(pid), true);
        }
        if self.pred_buckets.len() >= cap {
            let evictable = self.pred_lru.iter().position(|p| {
                self.pred_buckets
                    .get(p)
                    .is_some_and(|b| b.len == 0 && b.inflight == 0)
            });
            let Some(pos) = evictable else {
                return (BucketKey::Transient, false);
            };
            let victim = self.pred_lru.remove(pos);
            self.pred_buckets.remove(&victim);
        }
        self.pred_buckets.insert(pid, Bucket::default());
        self.pred_lru.push(pid);
        (BucketKey::Pred(pid), false)
    }

    /// The keys of every non-empty graduated bucket (a transient
    /// delivery sweeps each one alongside the broadcast).
    pub(crate) fn pred_bucket_keys(&self) -> Vec<PredId> {
        self.pred_buckets
            .iter()
            .filter(|(_, b)| b.len > 0)
            .map(|(&pid, _)| pid)
            .collect()
    }

    /// Appends a waiter to `bucket`; returns its node index (stable
    /// until the matching [`SlotQueue::remove`]).
    pub(crate) fn push_back(
        &mut self,
        bucket: BucketKey,
        waiter: impl Into<Waiter>,
        pid: PredId,
    ) -> u32 {
        let waiter = waiter.into();
        let idx = match self.free {
            NIL => {
                self.nodes.push(Node {
                    waiter: None,
                    pid,
                    bucket,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
            idx => {
                self.free = self.nodes[idx as usize].next;
                idx
            }
        };
        let tail = self.bucket_mut(bucket).tail;
        let node = &mut self.nodes[idx as usize];
        node.waiter = Some(waiter);
        node.pid = pid;
        node.bucket = bucket;
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.bucket_mut(bucket).head = idx,
            tail => self.nodes[tail as usize].next = idx,
        }
        let b = self.bucket_mut(bucket);
        b.tail = idx;
        b.len += 1;
        self.len += 1;
        idx
    }

    /// Unlinks the node at `idx` from its bucket and recycles it,
    /// returning the bucket it was linked into (the authoritative
    /// membership record — callers must not track it separately). With
    /// `claim`, atomically registers the leaver as an in-flight claimer
    /// of its bucket under the same lock hold, so the no-lost-token
    /// audit never observes a gap between "left the bucket" and
    /// "counted as claiming".
    ///
    /// # Panics
    ///
    /// Panics when `idx` does not name an enqueued node — a
    /// double-remove, which only the owning waiter can cause.
    pub(crate) fn remove(&mut self, idx: u32, claim: bool) -> BucketKey {
        let (bucket, prev, next) = {
            let node = &mut self.nodes[idx as usize];
            assert!(node.waiter.is_some(), "removing a free slot-queue node");
            node.waiter = None;
            (node.bucket, node.prev, node.next)
        };
        match prev {
            NIL => self.bucket_mut(bucket).head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.bucket_mut(bucket).tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
        let b = self.bucket_mut(bucket);
        b.len -= 1;
        if claim {
            b.inflight += 1;
        }
        if b.cursor == idx {
            // The sweep cursor pointed at the leaver: advance it to the
            // successor so a same-epoch resume cannot land on a free
            // node (and cannot skip anyone — everything before `next`
            // was already observed when the cursor passed it).
            b.cursor = next;
        }
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = self.free;
        self.free = idx;
        self.len -= 1;
        bucket
    }

    /// The token sweep's targeting rule: unparks the first waiter of
    /// `bucket` (FIFO order) whose re-checks have **not** yet observed
    /// `epoch`, stamping the token with `epoch`. Returns whether a
    /// waiter was unparked — a dead advance ends the sweep (every
    /// bucket waiter has already observed this epoch, i.e. self-checked
    /// a cut at least as new — sweep termination is guaranteed because
    /// each false self-check marks its waiter observed before
    /// forwarding, so the unobserved population strictly shrinks).
    ///
    /// With `use_cursor`, a sweep whose epoch matches the bucket's
    /// saved cursor resumes from the cursor instead of rescanning the
    /// head: the cursor only ever sits past nodes that were observed at
    /// this epoch when it passed them (observed epochs are monotonic,
    /// so they still are), and waiters enqueued behind the cursor after
    /// the sweep began registered under the monitor lock at a cut at
    /// least as new as this epoch's publish — neither can be owed this
    /// epoch's wake. A different epoch (newer *or* older, e.g. a stale
    /// re-injection racing a fresh publish) scans from the head; only
    /// an equal-or-newer sweep overwrites the saved cursor.
    pub(crate) fn wake_next(
        &mut self,
        bucket: BucketKey,
        epoch: u64,
        use_cursor: bool,
    ) -> SweepAdvance {
        let Some(b) = self.bucket(bucket) else {
            return SweepAdvance {
                woken: false,
                resumed: false,
            };
        };
        let resumed = use_cursor && b.cursor_epoch == epoch && b.cursor != b.head;
        let mut cursor = if use_cursor && b.cursor_epoch == epoch {
            b.cursor
        } else {
            b.head
        };
        let mut woken = false;
        while cursor != NIL {
            let node = &self.nodes[cursor as usize];
            let waiter = node.waiter.as_ref().expect("linked node must be occupied");
            if waiter.observed_epoch() < epoch {
                waiter.unpark(epoch);
                woken = true;
                break;
            }
            cursor = node.next;
        }
        if use_cursor && epoch >= self.bucket(bucket).expect("bucket exists").cursor_epoch {
            let b = self.bucket_mut(bucket);
            b.cursor = cursor;
            b.cursor_epoch = epoch;
        }
        SweepAdvance { woken, resumed }
    }

    /// Unparks every waiter of the transient bucket, stamping `epoch`.
    /// Returns how many tokens were handed out.
    pub(crate) fn wake_transient(&self, epoch: u64) -> usize {
        self.wake_bucket_all(&self.transient, epoch)
    }

    fn wake_bucket_all(&self, bucket: &Bucket, epoch: u64) -> usize {
        let mut cursor = bucket.head;
        let mut woken = 0;
        while cursor != NIL {
            let node = &self.nodes[cursor as usize];
            let waiter = node.waiter.as_ref().expect("linked node must be occupied");
            waiter.unpark(epoch);
            woken += 1;
            cursor = node.next;
        }
        woken
    }

    /// Unparks every enqueued waiter (all slot buckets, all graduated
    /// buckets, plus the transient bucket), stamping `epoch` — the
    /// global gate's conservative broadcast. Returns how many tokens
    /// were handed out.
    pub(crate) fn wake_all(&self, epoch: u64) -> usize {
        let mut woken = self.wake_bucket_all(&self.transient, epoch);
        for bucket in self.buckets.values() {
            woken += self.wake_bucket_all(bucket, epoch);
        }
        for bucket in self.pred_buckets.values() {
            woken += self.wake_bucket_all(bucket, epoch);
        }
        woken
    }

    /// Visits every enqueued waiter (any bucket order; FIFO within a
    /// bucket).
    pub(crate) fn for_each(&self, mut f: impl FnMut(&Waiter, PredId, BucketKey)) {
        let mut visit = |b: &Bucket| {
            let mut cursor = b.head;
            while cursor != NIL {
                let node = &self.nodes[cursor as usize];
                let waiter = node.waiter.as_ref().expect("linked node must be occupied");
                f(waiter, node.pid, node.bucket);
                cursor = node.next;
            }
        };
        visit(&self.transient);
        for bucket in self.buckets.values() {
            visit(bucket);
        }
        for bucket in self.pred_buckets.values() {
            visit(bucket);
        }
    }

    /// Retires an in-flight claim recorded by a claiming
    /// [`SlotQueue::remove`].
    pub(crate) fn end_claim(&mut self, bucket: BucketKey) {
        let b = self.bucket_mut(bucket);
        debug_assert!(b.inflight > 0, "unbalanced end_claim");
        b.inflight = b.inflight.saturating_sub(1);
    }

    /// Whether any waiter of `bucket` is covered (holds a pending token
    /// or is awake) or a token-carrying claimer of the bucket is in
    /// flight. The no-lost-token audit treats a covered bucket peer as
    /// coverage for the whole bucket: an in-flight sweep reaches every
    /// still-false waiter, and a claimer re-injects the baton at exit.
    pub(crate) fn bucket_covered(&self, bucket: BucketKey) -> bool {
        let Some(b) = self.bucket(bucket) else {
            return false;
        };
        if b.inflight > 0 {
            return true;
        }
        let mut cursor = b.head;
        while cursor != NIL {
            let node = &self.nodes[cursor as usize];
            let waiter = node.waiter.as_ref().expect("linked node must be occupied");
            if waiter.covered() {
                return true;
            }
            cursor = node.next;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::parking::park::{ParkOutcome, ParkSlot};
    use crate::slab::Slab;

    fn pid(slab: &mut Slab<u8>) -> PredId {
        slab.insert(0)
    }

    #[test]
    fn buckets_are_independent_fifos() {
        let mut slab = Slab::new();
        let p = pid(&mut slab);
        let mut q = SlotQueue::new();
        let a = q.push_back(BucketKey::Slot(0), Arc::new(ParkSlot::new()), p);
        let b = q.push_back(BucketKey::Slot(1), Arc::new(ParkSlot::new()), p);
        let c = q.push_back(BucketKey::Slot(0), Arc::new(ParkSlot::new()), p);
        let t = q.push_back(BucketKey::Transient, Arc::new(ParkSlot::new()), p);
        assert_eq!(q.len(), 4);
        assert_eq!(q.bucket_len(BucketKey::Slot(0)), 2);
        assert_eq!(q.bucket_len(BucketKey::Slot(1)), 1);
        assert_eq!(q.transient_len(), 1);
        q.remove(a, false);
        assert_eq!(q.bucket_len(BucketKey::Slot(0)), 1);
        q.remove(c, false);
        q.remove(b, false);
        q.remove(t, false);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn wake_next_targets_the_first_unobserved_waiter() {
        for use_cursor in [false, true] {
            let mut slab = Slab::new();
            let p = pid(&mut slab);
            let mut q = SlotQueue::new();
            let parks: Vec<Arc<ParkSlot>> = (0..3).map(|_| Arc::new(ParkSlot::new())).collect();
            for park in &parks {
                q.push_back(BucketKey::Slot(7), Arc::clone(park), p);
            }
            // The head has already observed epoch 5: the sweep must skip
            // it and wake the second waiter.
            parks[0].observed(5);
            assert!(q.wake_next(BucketKey::Slot(7), 5, use_cursor).woken);
            assert_eq!(parks[1].park(None), ParkOutcome::Woken { epoch: 5 });
            // Marking the second observed moves the sweep to the third.
            parks[1].observed(5);
            let adv = q.wake_next(BucketKey::Slot(7), 5, use_cursor);
            assert!(adv.woken);
            assert_eq!(adv.resumed, use_cursor, "same-epoch forward resumes");
            assert_eq!(parks[2].park(None), ParkOutcome::Woken { epoch: 5 });
            parks[2].observed(5);
            // Everyone observed: the sweep dies.
            assert!(!q.wake_next(BucketKey::Slot(7), 5, use_cursor).woken);
            // A newer epoch restarts from the head.
            let adv = q.wake_next(BucketKey::Slot(7), 6, use_cursor);
            assert!(adv.woken);
            assert!(!adv.resumed, "a newer epoch rescans the head");
            assert_eq!(parks[0].park(None), ParkOutcome::Woken { epoch: 6 });
            // Empty/unknown buckets are a clean no-op.
            assert!(!q.wake_next(BucketKey::Slot(99), 1, use_cursor).woken);
        }
    }

    #[test]
    fn cursor_survives_removal_of_the_node_it_points_at() {
        let mut slab = Slab::new();
        let p = pid(&mut slab);
        let mut q = SlotQueue::new();
        let parks: Vec<Arc<ParkSlot>> = (0..3).map(|_| Arc::new(ParkSlot::new())).collect();
        let nodes: Vec<u32> = parks
            .iter()
            .map(|park| q.push_back(BucketKey::Slot(1), Arc::clone(park), p))
            .collect();
        // Sweep at epoch 4 stops on the head (unparked, cursor = head).
        assert!(q.wake_next(BucketKey::Slot(1), 4, true).woken);
        // The head claims and leaves: the cursor must follow to its
        // successor, not dangle on the freed node.
        q.remove(nodes[0], true);
        let adv = q.wake_next(BucketKey::Slot(1), 4, true);
        assert!(adv.woken);
        assert_eq!(parks[1].park(None), ParkOutcome::Woken { epoch: 4 });
        parks[1].observed(4);
        assert!(q.wake_next(BucketKey::Slot(1), 4, true).woken);
        assert_eq!(parks[2].park(None), ParkOutcome::Woken { epoch: 4 });
        parks[2].observed(4);
        assert!(!q.wake_next(BucketKey::Slot(1), 4, true).woken);
        q.end_claim(BucketKey::Slot(1));
        q.remove(nodes[1], false);
        q.remove(nodes[2], false);
    }

    #[test]
    fn a_late_enqueue_is_not_owed_the_completed_epochs_wake() {
        let mut slab = Slab::new();
        let p = pid(&mut slab);
        let mut q = SlotQueue::new();
        let early = Arc::new(ParkSlot::new());
        q.push_back(BucketKey::Slot(0), Arc::clone(&early), p);
        early.observed(7);
        // The epoch-7 sweep runs off the tail: cursor parks at NIL.
        assert!(!q.wake_next(BucketKey::Slot(0), 7, true).woken);
        // A waiter arriving afterwards registered against state at
        // least as new as epoch 7's publish, so the dead sweep stays
        // dead (head-scan agrees: an epoch-8 wake still reaches it).
        let late = Arc::new(ParkSlot::new());
        q.push_back(BucketKey::Slot(0), Arc::clone(&late), p);
        let adv = q.wake_next(BucketKey::Slot(0), 7, true);
        assert!(!adv.woken);
        assert!(adv.resumed, "the O(1) dead-sweep fast path");
        // A newer epoch rescans the head: FIFO targeting reaches the
        // early waiter first (observed 7 < 8), whose false self-check
        // forwards on to the late one.
        assert!(q.wake_next(BucketKey::Slot(0), 8, true).woken);
        assert_eq!(early.park(None), ParkOutcome::Woken { epoch: 8 });
        early.observed(8);
        assert!(q.wake_next(BucketKey::Slot(0), 8, true).woken);
        assert_eq!(late.park(None), ParkOutcome::Woken { epoch: 8 });
    }

    #[test]
    fn admit_transient_graduates_hits_and_caps_the_lru() {
        let mut slab = Slab::new();
        let (a, b, c) = (pid(&mut slab), pid(&mut slab), pid(&mut slab));
        let mut q = SlotQueue::new();
        // Cap 0 disables graduation outright.
        assert_eq!(q.admit_transient(a, 0), (BucketKey::Transient, false));
        // First sight is a miss that graduates; the second is a hit.
        assert_eq!(q.admit_transient(a, 2), (BucketKey::Pred(a), false));
        assert_eq!(q.admit_transient(a, 2), (BucketKey::Pred(a), true));
        assert_eq!(q.admit_transient(b, 2), (BucketKey::Pred(b), false));
        // A fresh hit on `a` makes `b` the least recently used entry,
        // so `c`'s admission (both buckets idle, cap reached) evicts
        // `b` and leaves `a` graduated.
        assert_eq!(q.admit_transient(a, 2), (BucketKey::Pred(a), true));
        assert_eq!(q.admit_transient(c, 2), (BucketKey::Pred(c), false));
        assert_eq!(
            q.admit_transient(a, 2),
            (BucketKey::Pred(a), true),
            "the refreshed key survived"
        );
        assert_eq!(
            q.admit_transient(b, 2),
            (BucketKey::Pred(b), false),
            "the least-recent key was evicted"
        );
    }

    #[test]
    fn occupied_buckets_are_never_evicted() {
        let mut slab = Slab::new();
        let (a, b) = (pid(&mut slab), pid(&mut slab));
        let mut q = SlotQueue::new();
        let (key_a, _) = q.admit_transient(a, 1);
        let node = q.push_back(key_a, Arc::new(ParkSlot::new()), a);
        // `a`'s bucket is occupied and the cap is 1: `b` must fall back
        // to the broadcast bucket instead of evicting it.
        assert_eq!(q.admit_transient(b, 1), (BucketKey::Transient, false));
        // An in-flight claimer pins the bucket just the same.
        q.remove(node, true);
        assert_eq!(q.admit_transient(b, 1), (BucketKey::Transient, false));
        q.end_claim(key_a);
        // Fully idle: now `b` can take the slot over — and idle buckets
        // keep churning freely, so `a` can immediately take it back.
        assert_eq!(q.admit_transient(b, 1), (BucketKey::Pred(b), false));
        assert_eq!(q.admit_transient(a, 1), (BucketKey::Pred(a), false));
    }

    #[test]
    fn wake_all_covers_every_bucket_and_wake_transient_only_its_own() {
        let mut slab = Slab::new();
        let p = pid(&mut slab);
        let mut q = SlotQueue::new();
        let s0 = Arc::new(ParkSlot::new());
        let s1 = Arc::new(ParkSlot::new());
        let tr = Arc::new(ParkSlot::new());
        q.push_back(BucketKey::Slot(0), Arc::clone(&s0), p);
        q.push_back(BucketKey::Slot(1), Arc::clone(&s1), p);
        q.push_back(BucketKey::Transient, Arc::clone(&tr), p);
        assert_eq!(q.wake_transient(3), 1);
        assert_eq!(tr.park(None), ParkOutcome::Woken { epoch: 3 });
        assert_eq!(q.wake_all(4), 3);
        assert_eq!(s0.park(None), ParkOutcome::Woken { epoch: 4 });
        assert_eq!(s1.park(None), ParkOutcome::Woken { epoch: 4 });
        assert_eq!(tr.park(None), ParkOutcome::Woken { epoch: 4 });
    }

    #[test]
    fn bucket_covered_sees_pending_tokens_and_awake_waiters() {
        let mut slab = Slab::new();
        let p = pid(&mut slab);
        let mut q = SlotQueue::new();
        let park = Arc::new(ParkSlot::new());
        q.push_back(BucketKey::Slot(2), Arc::clone(&park), p);
        // Not yet parked: awake, hence covered.
        assert!(q.bucket_covered(BucketKey::Slot(2)));
        assert!(!q.bucket_covered(BucketKey::Slot(3)), "empty bucket bare");
        let p2 = Arc::clone(&park);
        let t = std::thread::spawn(move || p2.park(None));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!q.bucket_covered(BucketKey::Slot(2)), "parked, no token");
        park.unpark(1);
        assert!(q.bucket_covered(BucketKey::Slot(2)), "token pending");
        t.join().unwrap();
    }

    #[test]
    fn removed_nodes_recycle_across_buckets() {
        let mut slab = Slab::new();
        let p = pid(&mut slab);
        let mut q = SlotQueue::new();
        let a = q.push_back(BucketKey::Slot(0), Arc::new(ParkSlot::new()), p);
        q.remove(a, false);
        let b = q.push_back(BucketKey::Transient, Arc::new(ParkSlot::new()), p);
        assert_eq!(a, b, "free-listed node is reused");
        q.remove(b, false);
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "free slot-queue node")]
    fn double_remove_panics() {
        let mut slab = Slab::new();
        let p = pid(&mut slab);
        let mut q = SlotQueue::new();
        let a = q.push_back(BucketKey::Slot(0), Arc::new(ParkSlot::new()), p);
        q.remove(a, false);
        q.remove(a, false);
    }
}
