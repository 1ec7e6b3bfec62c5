//! Facade crate for the AutoSynch (PLDI 2013) reproduction.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests read naturally:
//!
//! * [`autosynch`] — the automatic-signal monitor runtime (globalization,
//!   relay invariance, predicate tagging) plus the explicit-signal and
//!   baseline comparison monitors.
//! * [`predicate`] — the predicate algebra: shared expressions, DNF,
//!   tags, structural keys, linear canonicalization.
//! * [`dsl`] — the textual `waituntil` compiler (the preprocessor
//!   analog) and [`dsl::DslMonitor`].
//! * [`problems`] — the paper's seven evaluation workloads plus seven
//!   extensions (five classics, the many-queue `sharded_queues`
//!   workload, and the wake-storm routing showcase), under every
//!   mechanism with the saturation harness.
//! * [`metrics`] — counters, phase timing (Table 1) and context-switch
//!   sampling (Fig. 15).
//!
//! See `README.md` for the tour and `DESIGN.md` for the paper-to-code
//! map.

pub use autosynch;
pub use autosynch_dsl as dsl;
pub use autosynch_metrics as metrics;
pub use autosynch_predicate as predicate;
pub use autosynch_problems as problems;
