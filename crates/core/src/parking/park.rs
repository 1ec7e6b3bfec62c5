//! Per-waiter park/unpark tokens with epoch-stamped wakeups.
//!
//! A [`ParkSlot`] is one waiter's private parking spot: a tiny
//! mutex-plus-condvar pair that never touches the monitor lock. The
//! protocol is the classic token handoff hardened against every
//! ordering the queue allows:
//!
//! * **No lost wakeup before sleeping.** `unpark` sets a sticky
//!   `pending` flag; `park` consumes the flag *before* blocking, so an
//!   unpark that lands between "decide to sleep" and "actually asleep"
//!   turns the park into an immediate return.
//! * **No lost wakeup while re-checking.** A routed waiter stays in
//!   its gate's wait queue while it runs a lock-free snapshot
//!   re-check. If a signaler publishes a newer epoch mid-check, its
//!   queue wake sets `pending` again and the waiter's next `park`
//!   returns immediately with the newer epoch — the re-check loop can
//!   never sleep through a publish.
//! * **Epoch stamps.** Every unpark carries the diff epoch that caused
//!   it; `wake_epoch` keeps the maximum, so a waiter always learns the
//!   *newest* epoch covering its coalesced wakeups, and the protocol
//!   validator can ask whether a slot is covered for the epoch a relay
//!   just published.
//!
//! Spurious condvar wakeups (possible under the std-backed shim) are
//! absorbed inside [`ParkSlot::park`]: without a pending token the
//! waiter goes straight back to sleep, so spuriousness never surfaces
//! as a self-check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

/// Why [`ParkSlot::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// An unpark was consumed; `epoch` is the newest diff epoch stamped
    /// onto it (0 when the unpark carried no epoch yet).
    Woken {
        /// The newest epoch covering the coalesced unparks.
        epoch: u64,
    },
    /// The deadline elapsed with no unpark pending.
    TimedOut,
}

#[derive(Debug, Default)]
struct ParkState {
    /// An unpark arrived and has not been consumed by a `park`.
    pending: bool,
    /// The waiter is blocked (or committed to blocking) in `park`.
    parked: bool,
    /// Newest epoch stamped by any unpark.
    wake_epoch: u64,
    /// Newest published epoch the waiter's re-check has evaluated.
    observed: u64,
}

/// One waiter's parking token. See the module docs for the protocol.
#[derive(Debug, Default)]
pub(crate) struct ParkSlot {
    state: Mutex<ParkState>,
    cv: Condvar,
    /// The flight-recorder wait id of the wait blocking on this slot
    /// (0 when tracing was off at registration). Stamped into the
    /// `Park`/`Unpark` events so the span stitcher can match a
    /// signaler-side unpark to the waiter-side span it woke.
    trace_id: AtomicU64,
}

impl ParkSlot {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Tags the slot with its wait's flight-recorder id; subsequent
    /// `Park`/`Unpark` events carry it in their `b` operand.
    pub(crate) fn set_trace_id(&self, wait_id: u64) {
        self.trace_id.store(wait_id, Ordering::Relaxed);
    }

    /// Blocks until an unpark token is available (or `deadline`
    /// passes), consuming it. Returns immediately when a token is
    /// already pending.
    pub(crate) fn park(&self, deadline: Option<Instant>) -> ParkOutcome {
        let mut state = self.state.lock();
        let mut committed = false;
        loop {
            if state.pending {
                state.pending = false;
                state.parked = false;
                return ParkOutcome::Woken {
                    epoch: state.wake_epoch,
                };
            }
            state.parked = true;
            if !committed {
                // One event per park call, even across spurious condvar
                // wakeups; `a` is the newest epoch this waiter has
                // already re-checked, so a trace shows what cut it went
                // to sleep believing in.
                committed = true;
                crate::telemetry::record(
                    crate::telemetry::EventKind::Park,
                    state.observed,
                    self.trace_id.load(Ordering::Relaxed),
                );
            }
            match deadline {
                None => self.cv.wait(&mut state),
                Some(deadline) => {
                    if self.cv.wait_until(&mut state, deadline).timed_out() && !state.pending {
                        state.parked = false;
                        return ParkOutcome::TimedOut;
                    }
                }
            }
        }
    }

    /// Hands the waiter a wake token stamped with the publishing
    /// epoch. Tokens coalesce: several unparks before one park collapse
    /// into a single wake carrying the newest epoch.
    pub(crate) fn unpark(&self, epoch: u64) {
        crate::telemetry::record(
            crate::telemetry::EventKind::Unpark,
            epoch,
            self.trace_id.load(Ordering::Relaxed),
        );
        let mut state = self.state.lock();
        state.pending = true;
        if epoch > state.wake_epoch {
            state.wake_epoch = epoch;
        }
        drop(state);
        self.cv.notify_one();
    }

    /// Records that the waiter's re-check evaluated the snapshot of
    /// `epoch` (diagnostics for the protocol validator and tests).
    pub(crate) fn observed(&self, epoch: u64) {
        let mut state = self.state.lock();
        if epoch > state.observed {
            state.observed = epoch;
        }
    }

    /// The newest epoch this waiter's re-check has evaluated. The
    /// routed token sweep targets the first bucket waiter whose
    /// observed epoch is older than the sweep's.
    pub(crate) fn observed_epoch(&self) -> u64 {
        self.state.lock().observed
    }

    /// Atomically consumes a pending-but-unconsumed unpark token,
    /// returning its stamped epoch. A routed waiter drains this right
    /// after leaving its bucket: a token that landed between its last
    /// park and the dequeue is a *bucket* resource (the sweep targeted
    /// this waiter on the bucket's behalf), so the leaver must forward
    /// it rather than absorb it.
    pub(crate) fn take_pending(&self) -> Option<u64> {
        let mut state = self.state.lock();
        if state.pending {
            state.pending = false;
            Some(state.wake_epoch)
        } else {
            None
        }
    }

    /// Whether the waiter cannot sleep through a wakeup right now: it
    /// either holds a pending unpark token or is awake (and will
    /// re-check before parking, consuming any token published
    /// meanwhile). The no-lost-wakeup validator checks this for every
    /// enqueued waiter whose predicate is true.
    pub(crate) fn covered(&self) -> bool {
        let state = self.state.lock();
        state.pending || !state.parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn unpark_before_park_returns_immediately() {
        let slot = ParkSlot::new();
        slot.unpark(7);
        assert_eq!(slot.park(None), ParkOutcome::Woken { epoch: 7 });
        assert!(slot.covered(), "awake waiters are covered");
    }

    #[test]
    fn coalesced_unparks_keep_the_newest_epoch() {
        let slot = ParkSlot::new();
        slot.unpark(3);
        slot.unpark(9);
        slot.unpark(5);
        assert_eq!(slot.park(None), ParkOutcome::Woken { epoch: 9 });
    }

    #[test]
    fn park_blocks_until_unparked() {
        let slot = Arc::new(ParkSlot::new());
        let slot2 = Arc::clone(&slot);
        let waiter = std::thread::spawn(move || slot2.park(None));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!slot.covered(), "a parked waiter with no token is bare");
        slot.unpark(1);
        assert_eq!(waiter.join().unwrap(), ParkOutcome::Woken { epoch: 1 });
    }

    #[test]
    fn park_times_out_without_a_token() {
        let slot = ParkSlot::new();
        let start = Instant::now();
        let outcome = slot.park(Some(Instant::now() + Duration::from_millis(40)));
        assert_eq!(outcome, ParkOutcome::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(35));
    }

    #[test]
    fn pending_token_beats_an_elapsed_deadline() {
        let slot = ParkSlot::new();
        slot.unpark(2);
        // Deadline already in the past: the token must still win.
        let outcome = slot.park(Some(Instant::now() - Duration::from_millis(1)));
        assert_eq!(outcome, ParkOutcome::Woken { epoch: 2 });
    }

    #[test]
    fn observed_epochs_are_monotonic() {
        let slot = ParkSlot::new();
        slot.observed(4);
        slot.observed(2);
        assert_eq!(slot.observed_epoch(), 4);
    }

    #[test]
    fn take_pending_consumes_exactly_one_token() {
        let slot = ParkSlot::new();
        assert_eq!(slot.take_pending(), None);
        slot.unpark(6);
        assert_eq!(slot.take_pending(), Some(6));
        assert_eq!(slot.take_pending(), None, "token was consumed");
        // A drained slot parks normally afterwards.
        slot.unpark(7);
        assert_eq!(slot.park(None), ParkOutcome::Woken { epoch: 7 });
    }
}
