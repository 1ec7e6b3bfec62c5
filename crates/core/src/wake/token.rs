//! The sweep token: the routed mode's waiter-side relay baton.
//!
//! Where a gate broadcast would let the whole herd self-check, the
//! routed mode circulates **one token per bucket wake**:
//! the signaler unparks only the bucket head, and responsibility for
//! the wake then travels waiter-to-waiter —
//!
//! * a waiter whose lock-free self-check decides *false* marks itself
//!   observed at the checked epoch and **forwards** the token to the
//!   next unobserved waiter of its bucket (no lock beyond the gate's);
//! * a waiter whose claim proves *futile* (another claimer falsified
//!   the predicate first) re-enqueues, marks itself observed at the
//!   manager's current epoch, and forwards likewise;
//! * a waiter that **claims** successfully carries the token into the
//!   monitor and re-injects it at exit (the paper's `signaled` baton
//!   rule, executed waiter-side): same-bucket peers wait on the same
//!   compiled predicate, which may still be true after the claimer's
//!   occupancy, and the re-injection is what lets the next of them
//!   proceed without any further signaler action;
//! * a waiter that leaves its bucket for any other reason (timeout)
//!   must [drain](crate::parking::park::ParkSlot::take_pending) its
//!   park slot and forward any residual token — a token that landed
//!   between its last park and the dequeue belongs to the bucket, not
//!   to the leaver.
//!
//! Termination: every forward targets a waiter with a strictly older
//! observed epoch and every visited waiter marks itself observed
//! before forwarding, so the unobserved population of a bucket shrinks
//! with each hop and a sweep makes at most `bucket_len` hops. A token
//! with no unobserved target simply dies — by then every bucket waiter
//! has self-checked a cut at least as new as the token's, so nobody
//! slept through the wake it announced.

use autosynch_metrics::counters::SyncCounters;

use super::slot_queue::BucketKey;
use super::WakeLot;

/// A held sweep token: which bucket's wake this waiter is currently
/// responsible for, and the epoch the sweep was started for. Carried by
/// a routed waiter from the moment it consumes an unpark until it
/// forwards, re-injects or retires the token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepToken {
    gate: u32,
    bucket: BucketKey,
    epoch: u64,
}

impl SweepToken {
    /// A token for `bucket` of `gate`, stamped with the waking epoch.
    pub(crate) fn new(gate: usize, bucket: BucketKey, epoch: u64) -> Self {
        SweepToken {
            gate: gate as u32,
            bucket,
            epoch,
        }
    }

    /// The sweep's epoch stamp.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raises the token's epoch (a waiter that self-checked a newer cut
    /// than the token's stamp forwards at the newer epoch — the
    /// stronger sweep subsumes the older one).
    pub(crate) fn raise(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
        }
    }

    /// Hands the token to the next unobserved waiter of its bucket.
    /// Returns `true` when a successor was unparked; `false` retires
    /// the token (sweep complete — retirements are not counted as
    /// forwards). Takes only the gate's lock.
    pub(crate) fn forward(self, lot: &WakeLot, counters: &SyncCounters) -> bool {
        let woken = lot.wake_next(self.gate as usize, self.bucket, self.epoch, counters);
        if woken {
            counters.record_token_forward();
            crate::telemetry::record(
                crate::telemetry::EventKind::TokenForward,
                self.gate as u64,
                self.epoch,
            );
        }
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parking::park::{ParkOutcome, ParkSlot};
    use crate::slab::Slab;
    use std::sync::Arc;

    #[test]
    fn forward_walks_the_bucket_and_then_retires() {
        let mut slab: Slab<u8> = Slab::new();
        let pid = slab.insert(0);
        let lot = WakeLot::new(2);
        let parks: Vec<Arc<ParkSlot>> = (0..2).map(|_| Arc::new(ParkSlot::new())).collect();
        for park in &parks {
            lot.enqueue(1, BucketKey::Slot(3), Arc::clone(park), pid);
        }
        let counters = SyncCounters::new();
        let token = SweepToken::new(1, BucketKey::Slot(3), 9);
        assert_eq!(token.epoch(), 9);
        // First hop reaches the head; after both observe, the token dies.
        assert!(token.forward(&lot, &counters));
        assert_eq!(parks[0].park(None), ParkOutcome::Woken { epoch: 9 });
        parks[0].observed(9);
        assert!(token.forward(&lot, &counters));
        parks[1].observed(9);
        assert!(!token.forward(&lot, &counters), "sweep complete");
        assert_eq!(
            counters.snapshot().token_forwards,
            2,
            "retirements are not handoffs"
        );
        assert_eq!(counters.snapshot().routed_unparks, 2);
    }

    #[test]
    fn raise_keeps_the_newest_epoch() {
        let mut token = SweepToken::new(0, BucketKey::Transient, 4);
        token.raise(2);
        assert_eq!(token.epoch(), 4);
        token.raise(11);
        assert_eq!(token.epoch(), 11);
    }
}
