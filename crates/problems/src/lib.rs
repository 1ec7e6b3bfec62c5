//! The seven conditional-synchronization problems of the AutoSynch
//! evaluation (§6.3), each implemented under all four signaling
//! mechanisms with identical instrumentation, plus the saturation-test
//! harness that regenerates the paper's figures.
//!
//! | Module | Paper problem | Predicate class | Figure |
//! |--------|---------------|-----------------|--------|
//! | [`bounded_buffer`] | bounded buffer | shared thresholds | Fig. 8 |
//! | [`h2o`] | H2O | shared thresholds | Fig. 9 |
//! | [`sleeping_barber`] | sleeping barber | shared | Fig. 10 |
//! | [`round_robin`] | round-robin access | complex equivalence | Fig. 11, Table 1 |
//! | [`readers_writers`] | ticketed readers/writers | complex equivalence + shared | Fig. 12 |
//! | [`dining`] | dining philosophers | per-thread shared expression | Fig. 13 |
//! | [`param_bounded_buffer`] | parameterized bounded buffer | complex thresholds, explicit needs `signalAll` | Figs. 14–15 |
//!
//! Five further classics beyond the paper's seven exercise predicate
//! shapes the evaluation set leaves out (documented as extensions):
//!
//! | Module | Problem | Predicate class |
//! |--------|---------|-----------------|
//! | [`cigarette_smokers`] | Patil's cigarette smokers | shared equivalence, 4 keys on one expression |
//! | [`unisex_bathroom`] | Andrews' unisex bathroom | equivalence ∧ threshold conjunction |
//! | [`group_mutex`] | Joung's group mutual exclusion (paper ref \[15\]) | disjunction of equivalences, one globalized |
//! | [`one_lane_bridge`] | Magee/Kramer one-lane bridge | disjunction with a mixed equivalence ∧ threshold conjunction |
//! | [`cyclic_barrier`] | cyclic barrier | globalized threshold; explicit **must** `signalAll` |
//!
//! A thirteenth workload, [`sharded_queues`] (N independent bounded
//! queues behind one monitor, disequality predicates), is a many-queue
//! `None`-tag workload: its waiting conditions give the tag index
//! nothing to prune, so only the change-driven filter and the routed
//! mode's per-gate wakes keep a relay from scanning every queue.
//!
//! A fourteenth, [`wake_storm`] (K hot expressions × N waiters each,
//! channels advancing out of phase), is the showcase for targeted wake
//! routing: gate-broadcast wakes would pay an `O(K · N)` self-check
//! herd per wave of advances, while the routed mode's eq-index maps
//! each published value to the single slot that can proceed.
//!
//! The Kessels restricted monitor (paper ref \[16\]) additionally runs
//! the bounded buffer ([`bounded_buffer::run_kessels`]) where its fixed
//! condition set suffices, and round-robin
//! ([`round_robin::run_kessels`]) where expressing `turn == id` takes
//! one declared condition per thread — the §3 workaround whose O(N)
//! relay scan the `ablation_restricted_round_robin` bench measures.
//!
//! Every driver runs as a *saturation test* (§6.1: no work inside or
//! outside the monitor) and verifies its problem-specific invariants —
//! item conservation, stoichiometry, mutual exclusion, neighbour
//! exclusion — so the same code doubles as the correctness suite for the
//! monitor runtime.
//!
//! # Examples
//!
//! ```
//! use autosynch_problems::mechanism::Mechanism;
//! use autosynch_problems::bounded_buffer::{self, BoundedBufferConfig};
//!
//! let report = bounded_buffer::run(
//!     Mechanism::AutoSynch,
//!     BoundedBufferConfig { producers: 2, consumers: 2, ops_per_thread: 100, capacity: 8 },
//! );
//! assert_eq!(report.stats.counters.broadcasts, 0); // never signalAll
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asynch;
pub mod bounded_buffer;
pub mod cigarette_smokers;
pub mod cyclic_barrier;
pub mod dining;
pub mod group_mutex;
pub mod h2o;
pub mod mechanism;
pub mod one_lane_bridge;
pub mod param_bounded_buffer;
pub mod readers_writers;
pub mod round_robin;
pub mod sharded_queues;
pub mod sleeping_barber;
pub mod unisex_bathroom;
pub mod wake_storm;

pub use mechanism::{Mechanism, RunReport};
