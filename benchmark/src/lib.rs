//! The repository's benchmark: five saturation workloads on CPU-pinned
//! threads, measured end to end against the explicit-signal yardstick
//! and, in a separate traced run, decomposed per op from the outside.
//! See `README.md` for the metric tables and the placement rule.

pub mod compare;
pub mod harness;
pub mod json;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
