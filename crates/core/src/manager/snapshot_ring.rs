//! A fixed-size, seqlock-style ring of expression-value snapshots.
//!
//! The change-driven diff produces, once per mutated occupancy, the
//! value of every live shared expression. Before this ring existed that
//! snapshot was only reachable under the monitor lock; the ring
//! publishes each diff into a lock-free structure so observers
//! (diagnostics, tests, dashboards) can read the latest expression
//! values **without acquiring the monitor lock** and therefore without
//! perturbing the relay hot path they are observing.
//!
//! ## Protocol
//!
//! The ring is single-writer (the diff runs under the monitor lock,
//! which serializes writers), multi-reader. Each slot is guarded by a
//! sequence counter: even = stable, odd = mid-write. The writer bumps
//! the sequence to odd, publishes the payload through relaxed atomic
//! stores fenced by a release fence, and bumps the sequence to the next
//! even value with a release store; `head` then names the slot. A
//! reader loads the slot's sequence (acquire), copies the payload with
//! relaxed loads, issues an acquire fence, and re-loads the sequence: a
//! torn read — the writer advanced mid-copy — shows up as a sequence
//! mismatch (or an odd value) and the reader retries on the new head
//! slot, counting a `ring_retries` tick. Because every payload cell is
//! an atomic, a torn read is *stale or retried*, never undefined
//! behaviour; the validate-retry loop means a successful return is
//! always an untorn snapshot. With `SLOTS` slots a reader only retries
//! when the writer laps the whole ring during one copy, so retries are
//! rare even under heavy publishing.
//!
//! ## Capacity
//!
//! Lock-free readers preclude growing a slot's payload in place, so
//! every slot is sized at construction ([`SnapshotRing::EXPR_CAPACITY`]
//! expressions by default — far above any workload in this repository).
//! A monitor that registers more expressions than that marks its
//! publishes as overflowed and readers get `None`; the relay itself is
//! unaffected (it reads the writer-side cache, not the ring).

use std::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

use autosynch_metrics::counters::SyncCounters;

/// Number of slots in the ring. A reader must race a full lap of
/// publishes during one copy before it retries.
const SLOTS: usize = 4;

/// Sentinel head value before the first publish.
const EMPTY: usize = usize::MAX;

struct Slot {
    /// Seqlock guard: even = stable, odd = being written.
    seq: AtomicU64,
    /// The diff epoch this snapshot belongs to (monotonic).
    epoch: AtomicU64,
    /// Number of meaningful entries in `values`/`present`.
    len: AtomicUsize,
    /// The monitor outgrew the slot capacity; the payload is partial.
    overflow: AtomicBool,
    /// Whether the expression at each index has ever been diffed.
    present: Box<[AtomicBool]>,
    /// The last diffed value of the expression at each index.
    values: Box<[AtomicI64]>,
}

impl Slot {
    fn with_capacity(capacity: usize) -> Self {
        Slot {
            seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            overflow: AtomicBool::new(false),
            present: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            values: (0..capacity).map(|_| AtomicI64::new(0)).collect(),
        }
    }
}

/// The published snapshot ring. See the module docs for the protocol.
pub(crate) struct SnapshotRing {
    slots: [Slot; SLOTS],
    /// Index of the most recently published slot, or [`EMPTY`].
    head: AtomicUsize,
}

impl std::fmt::Debug for SnapshotRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotRing")
            .field("slots", &SLOTS)
            .field("head", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl SnapshotRing {
    /// Per-slot expression capacity.
    pub(crate) const EXPR_CAPACITY: usize = 256;

    pub(crate) fn new() -> Self {
        SnapshotRing {
            slots: std::array::from_fn(|_| Slot::with_capacity(Self::EXPR_CAPACITY)),
            head: AtomicUsize::new(EMPTY),
        }
    }

    /// Publishes one diff snapshot. Single writer only — callers hold
    /// the monitor lock, which serializes publishes.
    ///
    /// `values[i]` is `Some(v)` when expression `i` was evaluated **by
    /// this diff** (callers pass `None` for slots last refreshed at an
    /// older epoch). Restricting a snapshot to one epoch makes every
    /// published value set a *consistent cut*: all `Some` values were
    /// read from the monitor state under a single lock hold, so
    /// cross-expression invariants (`level + free == cap`) hold within
    /// one snapshot — the property the ring's consistency test checks.
    pub(crate) fn publish(&self, epoch: u64, values: &[Option<i64>]) {
        let head = self.head.load(Ordering::Relaxed);
        let next = if head == EMPTY { 0 } else { (head + 1) % SLOTS };
        let slot = &self.slots[next];

        // Seqlock write side (the crossbeam recipe): odd sequence, then
        // a release fence so the payload stores cannot be observed
        // before the odd mark, then payload, then the even sequence
        // with release ordering.
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);

        let overflow = values.len() > slot.values.len();
        let len = values.len().min(slot.values.len());
        slot.epoch.store(epoch, Ordering::Relaxed);
        slot.len.store(len, Ordering::Relaxed);
        slot.overflow.store(overflow, Ordering::Relaxed);
        for (idx, value) in values.iter().take(len).enumerate() {
            match value {
                Some(v) => {
                    slot.values[idx].store(*v, Ordering::Relaxed);
                    slot.present[idx].store(true, Ordering::Relaxed);
                }
                None => slot.present[idx].store(false, Ordering::Relaxed),
            }
        }

        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
        self.head.store(next, Ordering::Release);
    }

    /// Reads the latest published snapshot without any lock. Returns
    /// the diff epoch and the per-expression values (`None` for
    /// expressions never diffed), or `None` when nothing has been
    /// published yet, the ring overflowed, or the writer kept lapping
    /// the reader. Validation retries are counted in
    /// `counters.ring_retries`.
    pub(crate) fn read_latest(&self, counters: &SyncCounters) -> Option<(u64, Vec<Option<i64>>)> {
        let mut values = Vec::new();
        self.read_latest_into(counters, &mut values)
            .map(|epoch| (epoch, values))
    }

    /// Allocation-free variant of [`SnapshotRing::read_latest`]: copies
    /// the latest snapshot into `values` (cleared first, capacity
    /// reused) and returns its epoch. Routed-mode waiters call this in
    /// their re-check loop, so steady-state self-checks allocate
    /// nothing.
    pub(crate) fn read_latest_into(
        &self,
        counters: &SyncCounters,
        values: &mut Vec<Option<i64>>,
    ) -> Option<u64> {
        // With SLOTS slots a retry needs the writer to lap the ring
        // mid-copy; a handful of attempts is plenty.
        for _ in 0..64 {
            values.clear();
            let head = self.head.load(Ordering::Acquire);
            if head == EMPTY {
                return None;
            }
            let slot = &self.slots[head];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before & 1 == 1 {
                counters.record_ring_retry();
                std::hint::spin_loop();
                continue;
            }

            let epoch = slot.epoch.load(Ordering::Relaxed);
            let len = slot.len.load(Ordering::Relaxed);
            let overflow = slot.overflow.load(Ordering::Relaxed);
            values.reserve(len.min(slot.values.len()));
            for idx in 0..len.min(slot.values.len()) {
                values.push(if slot.present[idx].load(Ordering::Relaxed) {
                    Some(slot.values[idx].load(Ordering::Relaxed))
                } else {
                    None
                });
            }

            // Seqlock read validation: if the sequence moved, a writer
            // overlapped the copy — discard and retry.
            fence(Ordering::Acquire);
            let seq_after = slot.seq.load(Ordering::Relaxed);
            if seq_before != seq_after {
                counters.record_ring_retry();
                continue;
            }
            if overflow {
                return None;
            }
            return Some(epoch);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool as StdAtomicBool;
    use std::sync::Arc;

    #[test]
    fn empty_ring_reads_none() {
        let ring = SnapshotRing::new();
        let counters = SyncCounters::new();
        assert_eq!(ring.read_latest(&counters), None);
        assert_eq!(counters.snapshot().ring_retries, 0);
    }

    #[test]
    fn publish_then_read_roundtrips() {
        let ring = SnapshotRing::new();
        let counters = SyncCounters::new();
        ring.publish(7, &[Some(10), None, Some(-3)]);
        let (epoch, values) = ring.read_latest(&counters).expect("published");
        assert_eq!(epoch, 7);
        assert_eq!(values, vec![Some(10), None, Some(-3)]);
    }

    #[test]
    fn newer_publish_wins() {
        let ring = SnapshotRing::new();
        let counters = SyncCounters::new();
        for epoch in 1..=10u64 {
            ring.publish(epoch, &[Some(epoch as i64)]);
        }
        let (epoch, values) = ring.read_latest(&counters).expect("published");
        assert_eq!(epoch, 10);
        assert_eq!(values, vec![Some(10)]);
    }

    #[test]
    fn oversized_snapshot_reports_overflow_as_none() {
        let ring = SnapshotRing::new();
        let counters = SyncCounters::new();
        let big = vec![Some(1i64); SnapshotRing::EXPR_CAPACITY + 1];
        ring.publish(1, &big);
        assert_eq!(ring.read_latest(&counters), None);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_snapshots() {
        // The writer publishes internally-consistent snapshots (every
        // value equals the epoch); a torn read would mix values from
        // two publishes. Readers validate every successful read.
        let ring = Arc::new(SnapshotRing::new());
        let stop = Arc::new(StdAtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let counters = SyncCounters::new();
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if let Some((epoch, values)) = ring.read_latest(&counters) {
                            assert!(epoch >= seen, "epochs regressed: {epoch} < {seen}");
                            seen = epoch;
                            for v in &values {
                                assert_eq!(
                                    *v,
                                    Some(epoch as i64),
                                    "torn snapshot: {values:?} at epoch {epoch}"
                                );
                            }
                        }
                    }
                    counters.snapshot().ring_retries
                })
            })
            .collect();
        for epoch in 1..=50_000u64 {
            ring.publish(epoch, &[Some(epoch as i64); 8]);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
    }
}
