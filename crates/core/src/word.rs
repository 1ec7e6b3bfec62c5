//! The packed monitor word backing the uncontended enter/exit fast path.
//!
//! A single `AtomicU64` per monitor encodes everything the CAS
//! lock-elision lane needs to know before touching the mutex:
//!
//! ```text
//! bit 63 ........ 32 | 31 ............. 1 | 0
//!   fast-epoch (32)  |   presence (31)    | OCCUPIED
//! ```
//!
//! * **OCCUPIED** (bit 0) — set while a thread holds the monitor through
//!   the elided lane (no mutex held). The elided holder has exclusive
//!   access to `Inner<S>` by protocol, not by lock.
//! * **presence** (bits 1–31) — the number of threads currently inside
//!   the *slow-lane* protocol: every mutex-path occupancy holds one
//!   presence unit from enter to exit, **including while blocked in a
//!   wait** (condvar or routed). Because registered waiters
//!   keep their presence unit, `presence == 0` certifies that no waiter
//!   exists and no relay work can be pending — the quiescence the fast
//!   lane requires.
//! * **fast-epoch** (bits 32–63) — incremented on every successful
//!   elided acquisition. Purely observational (stats, tests, debugging);
//!   it wraps freely and never participates in the protocol itself.
//!
//! The elision protocol:
//!
//! * Fast enter: one-shot CAS from a fully quiescent word
//!   (`presence == 0 && !OCCUPIED`) to `OCCUPIED` with the epoch bumped.
//!   Any other state falls through to the mutex path.
//! * Slow enter: `join_slow` (presence += 1), then `await_fast_clear`
//!   (spin, then park on the gate while OCCUPIED is set), then lock the
//!   mutex. Once a slow enterer holds a presence unit and has observed
//!   `OCCUPIED == 0`, no fast acquisition can succeed again until it
//!   leaves — so locking the mutex afterwards cannot race an elided
//!   holder.
//! * Fast exit: clear OCCUPIED; if any presence units arrived while we
//!   held the word, wake the gate so spinners stop parking.
//! * Slow exit: drop the mutex guard first, then `leave_slow`
//!   (presence -= 1, `Release`) — the ordering makes every
//!   mutex-protected write visible to the next successful fast CAS,
//!   which loads with `Acquire`.
//!
//! Threads that re-lock the mutex mid-occupancy (condvar wake, routed
//! claim) still hold their presence unit, so they never
//! need to consult the word again: an elided holder cannot coexist with
//! them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Bit 0: set while an elided (mutex-free) holder occupies the monitor.
pub(crate) const OCCUPIED: u64 = 1;
/// First bit of the presence field.
pub(crate) const PRESENCE_SHIFT: u32 = 1;
/// Width of the presence field in bits.
pub(crate) const PRESENCE_BITS: u32 = 31;
/// One presence unit (the slow-lane enter/exit increment).
pub(crate) const PRESENCE_ONE: u64 = 1 << PRESENCE_SHIFT;
/// Mask selecting the presence field.
pub(crate) const PRESENCE_MASK: u64 = ((1u64 << PRESENCE_BITS) - 1) << PRESENCE_SHIFT;
/// First bit of the fast-epoch field.
pub(crate) const EPOCH_SHIFT: u32 = 32;
/// One epoch tick (added on each successful elided acquisition).
pub(crate) const EPOCH_ONE: u64 = 1 << EPOCH_SHIFT;
/// Mask selecting the fast-epoch field.
pub(crate) const EPOCH_MASK: u64 = !(OCCUPIED | PRESENCE_MASK);

// Lock the layout at compile time: the three fields must tile the u64
// exactly, with the unoccupied-and-unattended state being the all-zero
// niche the fast CAS targets. Future field additions that break any of
// these stop the build instead of silently corrupting the protocol.
const _: () = {
    assert!(OCCUPIED == 1, "OCCUPIED must be the lowest bit");
    assert!(
        PRESENCE_SHIFT == 1,
        "presence must sit directly above OCCUPIED"
    );
    assert!(
        PRESENCE_MASK == 0x0000_0000_FFFF_FFFE,
        "presence occupies bits 1..=31"
    );
    assert!(
        EPOCH_MASK == 0xFFFF_FFFF_0000_0000,
        "epoch occupies bits 32..=63"
    );
    assert!(
        OCCUPIED & PRESENCE_MASK == 0 && OCCUPIED & EPOCH_MASK == 0,
        "fields must not overlap"
    );
    assert!(PRESENCE_MASK & EPOCH_MASK == 0, "fields must not overlap");
    assert!(
        OCCUPIED | PRESENCE_MASK | EPOCH_MASK == u64::MAX,
        "fields must tile the whole word"
    );
    assert!(
        PRESENCE_ONE == 2 && EPOCH_ONE == 1 << 32,
        "field increments must match the shifts"
    );
    // The quiescent niche: epoch bits alone never block a fast CAS,
    // which compares only OCCUPIED | PRESENCE_MASK.
    assert!(!(EPOCH_MASK) & EPOCH_ONE == 0);
};

/// How many times a slow enterer spins on OCCUPIED before parking on
/// the gate. Elided occupancies are short (no waits are possible inside
/// them), so a brief spin usually avoids the syscall.
const FAST_CLEAR_SPINS: u32 = 64;

/// The per-monitor elision word plus the gate slow enterers park on
/// while an elided holder is inside.
pub(crate) struct MonitorWord {
    word: AtomicU64,
    gate: Mutex<()>,
    gate_cv: Condvar,
}

impl MonitorWord {
    /// A fresh, fully quiescent word.
    pub(crate) fn new() -> Self {
        MonitorWord {
            word: AtomicU64::new(0),
            gate: Mutex::new(()),
            gate_cv: Condvar::new(),
        }
    }

    /// One-shot attempt to acquire the elided lane. Succeeds only from a
    /// fully quiescent word (no holder, no slow-lane presence); bumps the
    /// fast epoch as it takes the OCCUPIED bit.
    pub(crate) fn try_acquire_fast(&self) -> bool {
        let w = self.word.load(Ordering::Relaxed);
        if w & (OCCUPIED | PRESENCE_MASK) != 0 {
            return false;
        }
        self.word
            .compare_exchange(
                w,
                w.wrapping_add(EPOCH_ONE) | OCCUPIED,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Release the elided lane. If slow enterers accumulated presence
    /// while we held the word they may be parked on the gate — wake them.
    pub(crate) fn release_fast(&self) {
        let prev = self.word.fetch_and(!OCCUPIED, Ordering::Release);
        debug_assert!(
            prev & OCCUPIED != 0,
            "release_fast without holding OCCUPIED"
        );
        if prev & PRESENCE_MASK != 0 {
            // Taking the gate lock orders this notify against any enterer
            // that checked OCCUPIED under the same lock (no lost wakeups).
            drop(self.gate.lock().unwrap_or_else(|p| p.into_inner()));
            self.gate_cv.notify_all();
        }
    }

    /// Enter the slow-lane protocol: take one presence unit. Must be
    /// paired with [`leave_slow`](Self::leave_slow) after the occupancy
    /// fully ends (including any waits).
    pub(crate) fn join_slow(&self) {
        let prev = self.word.fetch_add(PRESENCE_ONE, Ordering::AcqRel);
        debug_assert!(
            (prev & PRESENCE_MASK) != PRESENCE_MASK,
            "slow-lane presence overflow (2^31 concurrent occupancies)"
        );
    }

    /// Leave the slow-lane protocol. Call only after every reference into
    /// the mutex-protected state is dropped: the `Release` here is what
    /// publishes the occupancy's writes to the next fast-lane CAS.
    pub(crate) fn leave_slow(&self) {
        let prev = self.word.fetch_sub(PRESENCE_ONE, Ordering::AcqRel);
        debug_assert!(prev & PRESENCE_MASK != 0, "leave_slow without presence");
    }

    /// Block until no elided holder occupies the monitor. Caller must
    /// already hold a presence unit, which guarantees that once OCCUPIED
    /// reads clear it stays clear until the caller leaves.
    pub(crate) fn await_fast_clear(&self) {
        for _ in 0..FAST_CLEAR_SPINS {
            if self.word.load(Ordering::Acquire) & OCCUPIED == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        // Spins exhausted: this enterer is about to block on the gate
        // behind an elided holder — the contention signature the flight
        // recorder exists to surface.
        crate::telemetry::record(
            crate::telemetry::EventKind::GateWait,
            FAST_CLEAR_SPINS as u64,
            0,
        );
        let mut gate = self.gate.lock().unwrap_or_else(|p| p.into_inner());
        while self.word.load(Ordering::Acquire) & OCCUPIED != 0 {
            gate = self.gate_cv.wait(gate).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Number of elided acquisitions so far (wrapping, observational).
    #[cfg(test)]
    pub(crate) fn fast_epochs(&self) -> u64 {
        self.word.load(Ordering::Relaxed) >> EPOCH_SHIFT
    }

    /// Current slow-lane presence count (observational).
    #[cfg(test)]
    pub(crate) fn presence(&self) -> u64 {
        (self.word.load(Ordering::Relaxed) & PRESENCE_MASK) >> PRESENCE_SHIFT
    }

    /// Whether an elided holder currently occupies the monitor
    /// (observational; racy by nature).
    #[cfg(test)]
    pub(crate) fn is_fast_held(&self) -> bool {
        self.word.load(Ordering::Relaxed) & OCCUPIED != 0
    }
}

impl std::fmt::Debug for MonitorWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = self.word.load(Ordering::Relaxed);
        f.debug_struct("MonitorWord")
            .field("occupied", &(w & OCCUPIED != 0))
            .field("presence", &((w & PRESENCE_MASK) >> PRESENCE_SHIFT))
            .field("fast_epochs", &(w >> EPOCH_SHIFT))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn layout_is_locked() {
        // Runtime mirror of the const assertions, so a failure names the
        // field instead of aborting the build anonymously.
        assert_eq!(OCCUPIED, 1);
        assert_eq!(PRESENCE_MASK, 0x0000_0000_FFFF_FFFE);
        assert_eq!(EPOCH_MASK, 0xFFFF_FFFF_0000_0000);
        assert_eq!(OCCUPIED | PRESENCE_MASK | EPOCH_MASK, u64::MAX);
        assert_eq!(PRESENCE_ONE, 1 << PRESENCE_SHIFT);
        assert_eq!(EPOCH_ONE, 1 << EPOCH_SHIFT);
        // The quiescent state the fast CAS targets is all-zero in the
        // protocol fields regardless of accumulated epoch ticks.
        let w = MonitorWord::new();
        assert!(!w.is_fast_held());
        assert_eq!(w.presence(), 0);
    }

    #[test]
    fn fast_acquire_bumps_epoch_and_excludes() {
        let w = MonitorWord::new();
        assert!(w.try_acquire_fast());
        assert!(w.is_fast_held());
        assert_eq!(w.fast_epochs(), 1);
        assert!(!w.try_acquire_fast(), "reacquire while held must fail");
        w.release_fast();
        assert!(!w.is_fast_held());
        assert!(w.try_acquire_fast());
        assert_eq!(w.fast_epochs(), 2);
        w.release_fast();
    }

    #[test]
    fn presence_blocks_fast_acquire() {
        let w = MonitorWord::new();
        w.join_slow();
        assert!(!w.try_acquire_fast(), "presence must block elision");
        w.join_slow();
        w.leave_slow();
        assert!(!w.try_acquire_fast());
        w.leave_slow();
        assert!(w.try_acquire_fast());
        w.release_fast();
    }

    #[test]
    fn slow_enterers_park_until_fast_release() {
        let w = Arc::new(MonitorWord::new());
        assert!(w.try_acquire_fast());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    w.join_slow();
                    w.await_fast_clear();
                    w.leave_slow();
                })
            })
            .collect();
        // Let the enterers reach the gate, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.release_fast();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(w.presence(), 0);
        assert!(w.try_acquire_fast(), "word must return to quiescence");
        w.release_fast();
    }
}
