//! Waiter-side parking primitives shared by the routed wake gates and
//! the async waiters.
//!
//! AutoSynch's pitch is taking predicate work off the signaler's
//! critical path. The routed mode moves the re-check to the waiter,
//! Expresso-style (Ferles et al., PLDI 2018): a waiter parks on a
//! private [park token](park), every wakeup runs a lock-free
//! [re-check](recheck) against the snapshot ring, a decidable `false`
//! re-parks without taking *any* lock, and only a maybe-true verdict
//! goes on to claim under the monitor lock. The wait queues that hold
//! the tokens live in [`crate::wake`], each behind a contention-counting
//! [gate lock](locks).
//!
//! The no-lost-wakeup argument lives in `DESIGN.md` ("Wake routing
//! soundness"); its load-bearing mechanics are that waiters stay
//! enqueued while re-checking and that unpark tokens are sticky and
//! epoch-stamped (see [`park`]).

pub(crate) mod locks;
pub(crate) mod park;
pub(crate) mod recheck;

pub(crate) use park::{ParkOutcome, ParkSlot};
pub(crate) use recheck::{snapshot_verdict, Verdict};
