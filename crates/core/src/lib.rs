//! # AutoSynch: an automatic-signal monitor based on predicate tagging
//!
//! A Rust implementation of the monitor runtime from *"AutoSynch: An
//! Automatic-Signal Monitor Based on Predicate Tagging"* (Hung & Garg,
//! PLDI 2013). Threads synchronize by writing `waituntil(predicate)` —
//! there are **no condition variables and no `signal`/`signalAll` calls**
//! in user code; the runtime decides whom to wake.
//!
//! ## The three ideas (and where they live)
//!
//! * **Globalization** (§4.1) — predicates are built from registered
//!   *shared expressions* compared against plain integers; any
//!   thread-local inputs are captured as those integers at construction
//!   time, so any thread can evaluate any waiting condition. See
//!   [`Monitor::register_expr`] and the `autosynch-predicate` crate.
//! * **Relay invariance** (§4.2) — whenever a thread exits the monitor
//!   or blocks, the runtime signals at most *one* waiting thread whose
//!   predicate is true ([`manager`]). `signalAll` does not exist in this
//!   code path; the `broadcasts` counter of an AutoSynch monitor is
//!   always zero.
//! * **Predicate tagging** (§4.3) — waiting predicates are indexed by
//!   per-conjunction tags: an O(1) hash probe for `expr == k` conditions
//!   ([`eq_index`]), ordered heaps walked weakest-first for `expr op k`
//!   thresholds ([`threshold_index`], the Fig. 4 algorithm), and an
//!   exhaustive list for everything else.
//!
//! ## Comparison mechanisms
//!
//! The paper's evaluation compares four monitors; all four live here with
//! identical instrumentation:
//!
//! | Mechanism | Type |
//! |-----------|------|
//! | explicit-signal | [`explicit::ExplicitMonitor`] |
//! | baseline (single condvar + signalAll) | [`baseline::BaselineMonitor`] |
//! | AutoSynch-T (relay, no tags) | [`Monitor`] with `preset(SignalMode::Untagged)` |
//! | AutoSynch (full) | [`Monitor`] with defaults |
//! | AutoSynch-CD (tags + expression versioning) | [`Monitor`] with `preset(SignalMode::ChangeDriven)` |
//! | AutoSynch-Route (waiter-side self-checks + slot-targeted unparks) | [`Monitor`] with `preset(SignalMode::Routed)` |
//!
//! All four automatic variants share one constructor,
//! [`config::MonitorConfig::preset`].
//!
//! AutoSynch-CD is this reproduction's extension beyond the paper: the
//! condition manager snapshots shared-expression values, diffs them at
//! relay time, and probes only predicates whose dependency sets
//! intersect the changed expressions — relays on unmutated state are
//! skipped outright. AutoSynch-Route builds on its diff: the expression
//! space is partitioned by dependency footprint into gates, and
//! waiters park themselves on per-gate queues bucketed by
//! compiled-`Cond` slot; a signaler's exit only publishes the diff
//! epoch into a lock-free snapshot ring readable without the monitor
//! lock ([`Monitor::latest_expr_snapshot`]) and announces slot-targeted
//! wakes (delivered after
//! releasing the lock), and each waiter re-checks its own predicate
//! against the ring — predicate work leaves the signaler's critical
//! section entirely. Each bucket wake is a waiter-forwarded token
//! sweep instead of a broadcast, and equivalence-shaped conditions
//! (`turn == id`) get value-directed single unparks through an
//! eq-route index — the fig11 self-check herd becomes one targeted
//! wake.
//! [`tracked::Tracked`] state cells (with
//! [`Monitor::enter_tracked`]) name the touched expressions on every
//! write automatically, so diffs evaluate only those — the v2
//! replacement of the retired `enter_mutating` slice contract. On top
//! of all four modes sits the uncontended fast path: a packed monitor
//! word lets a quiescent monitor be entered by a single CAS and exited
//! by a single atomic AND (skipping mutex, relay and snapshot publish,
//! all provably unnecessary when nobody is present), and contended
//! enterers hand their occupancy to the current lock holder through a
//! flat-combining slab. See `DESIGN.md` for the soundness arguments.
//!
//! A fifth monitor, [`kessels::KesselsMonitor`], implements the
//! *restricted* automatic-signal design of Kessels (CACM 1977, the
//! paper's reference \[16\]): waiting conditions are a fixed pre-declared
//! set of shared predicates. It is the literature baseline for the
//! §4.1 argument that globalization is what makes unrestricted
//! `waituntil` affordable.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
//! use autosynch::Monitor;
//!
//! // The parameterized bounded buffer of Fig. 1 — the problem whose
//! // explicit-signal version is stuck with signalAll.
//! struct Buffer { data: Tracked<Vec<u64>>, cap: usize }
//! impl TrackedState for Buffer {
//!     fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
//!         f(&mut self.data);
//!     }
//! }
//!
//! let m = Arc::new(Monitor::new(Buffer { data: Tracked::new(Vec::new()), cap: 16 }));
//! let count = m.register_expr("count", |b| b.data.len() as i64);
//! let free = m.register_expr("free", |b| (b.cap - b.data.len()) as i64);
//! m.bind(|b| &mut b.data, &[count, free]); // writes to `data` name both
//!
//! // Compile once, wait many: the DNF/tag/key analysis never re-runs.
//! let has_room = m.compile(free.ge(3));
//! let has_items = m.compile(count.ge(3));
//!
//! let producer = {
//!     let m = Arc::clone(&m);
//!     let has_room = has_room.clone();
//!     std::thread::spawn(move || {
//!         let items = [1u64, 2, 3];
//!         m.enter_tracked(|g| {
//!             g.wait(&has_room); // waituntil!
//!             g.state_mut().data.extend_from_slice(&items);
//!         });
//!     })
//! };
//!
//! let taken = m.enter_tracked(|g| {
//!     g.wait(&has_items);
//!     g.state_mut().data.drain(..3).collect::<Vec<_>>()
//! });
//! producer.join().unwrap();
//! assert_eq!(taken, vec![1, 2, 3]);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asynch;
pub mod baseline;
pub mod config;
pub(crate) mod dense;
pub mod eq_index;
pub mod explicit;
pub(crate) mod fc;
pub mod indexed_heap;
pub mod kessels;
pub mod manager;
pub mod monitor;
pub(crate) mod parking;
pub mod slab;
pub mod stats;
pub mod telemetry;
pub mod threshold_index;
pub mod tracked;
pub(crate) mod wake;
pub(crate) mod word;

pub use asynch::{WaitAsync, WaitTimeoutAsync};
pub use baseline::BaselineMonitor;
pub use config::{MonitorConfig, SignalMode, ThresholdIndexKind};
pub use explicit::{CondId, ExplicitMonitor};
pub use kessels::{KesselsCond, KesselsMonitor};
pub use monitor::{Cond, ManagerCounts, Monitor, MonitorGuard};
pub use stats::{HoldSnapshot, HoldTimes, MonitorStats, StatsSnapshot};
pub use telemetry::{EventKind, TraceEvent};
pub use tracked::{Tracked, TrackedCell, TrackedState};

// Re-export the predicate vocabulary so `use autosynch::*` users can
// build conditions without naming the analysis crate.
pub use autosynch_predicate::ast::BoolExpr;
pub use autosynch_predicate::expr::{ExprHandle, ExprId, ExprTable};
pub use autosynch_predicate::predicate::{IntoPredicate, Predicate};
pub use autosynch_predicate::tag::Tag;
