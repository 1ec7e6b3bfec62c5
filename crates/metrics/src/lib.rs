//! Instrumentation substrate for the AutoSynch reproduction.
//!
//! The PLDI'13 paper evaluates signaling mechanisms along three observable
//! axes:
//!
//! * **Runtime** of saturation tests (Figs. 8–14) — measured by the harness
//!   with a wall clock; nothing to do here.
//! * **Context switches** (Fig. 15) — every voluntary context switch of a
//!   monitor thread corresponds to one return from `Condvar::wait`, so this
//!   crate counts *wakeups* and classifies them as productive or futile
//!   (woke up, predicate still false, went back to sleep). On Linux the
//!   [`ctx`] module can additionally sample the kernel's
//!   `voluntary_ctxt_switches` counter for calibration.
//! * **CPU-usage breakdown** (Table 1) — the paper used the YourKit
//!   profiler to attribute time to `await`, `lock`, `relaySignal` and tag
//!   management. The [`phase`] module reproduces that attribution with
//!   per-phase wall-clock accumulators maintained by the monitor runtime.
//!
//! The types here are deliberately free of any locking: everything is a
//! relaxed atomic counter, cheap enough to stay enabled in benchmarks, and
//! the crate has no dependencies outside `std`.
//!
//! # Examples
//!
//! ```
//! use autosynch_metrics::counters::SyncCounters;
//!
//! let counters = SyncCounters::default();
//! counters.record_signal();
//! counters.record_wakeup();
//! let snap = counters.snapshot();
//! assert_eq!(snap.signals, 1);
//! assert_eq!(snap.wakeups, 1);
//! assert_eq!(snap.futile_wakeups, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod ctx;
pub mod hist;
pub mod phase;
pub mod report;

pub use counters::{CounterSnapshot, SyncCounters};
pub use hist::{HistSnapshot, LogLinearHist};
pub use phase::{Phase, PhaseSnapshot, PhaseTimes};
pub use report::Table;
