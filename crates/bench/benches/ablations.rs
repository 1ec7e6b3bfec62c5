//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **Threshold index**: the paper's heap with the Fig. 4
//!   poll/backup/reinsert search vs. a plain ordered map walked
//!   weakest-first. Run on the threshold-heavy parameterized bounded
//!   buffer.
//! * **Predicate-table dedup**: syntax-equivalent predicates share one
//!   condition variable (§5.2); measured against a workload where many
//!   threads wait on the same condition.
//! * **Restricted vs full automatic signaling**: Kessels' fixed-set
//!   monitor (paper ref [16]) vs the unrestricted `waituntil` on the
//!   one problem class both can express — shared-predicate bounded
//!   buffer — measuring what the generality costs when it isn't needed.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use autosynch::config::{MonitorConfig, SignalMode, ThresholdIndexKind};
use autosynch::monitor::Monitor;
use autosynch_problems::mechanism::{timed_run, Mechanism};

struct Counter {
    value: i64,
}

/// Threshold-heavy churn: half the threads wait on distinct `>=` keys,
/// half keep bumping the counter, under the given config.
fn threshold_churn(config: MonitorConfig, waiters: usize, rounds: usize) {
    let monitor = Arc::new(Monitor::with_config(Counter { value: 0 }, config));
    let value = monitor.register_expr("value", |s: &Counter| s.value);
    timed_run(waiters + 1, |i| {
        if i == 0 {
            // The driver: raise the water level until everyone is done.
            for _ in 0..(waiters * rounds) {
                monitor.with(|s| s.value += 1);
            }
            // Release anyone still waiting at the top.
            monitor.with(|s| s.value += i64::MAX / 2);
        } else {
            for round in 0..rounds {
                let key = ((i * rounds + round) % (waiters * rounds / 2 + 1)) as i64;
                monitor.enter(|g| g.wait_transient(value.ge(key)));
            }
        }
    });
}

fn bench_threshold_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_threshold_index");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    for (label, kind) in [
        ("paper_heap", ThresholdIndexKind::PaperHeap),
        ("ordered_map", ThresholdIndexKind::OrderedMap),
    ] {
        group.bench_function(BenchmarkId::new(label, "16w_x64"), |b| {
            b.iter(|| {
                threshold_churn(MonitorConfig::new().threshold_index(kind), 16, 64);
            })
        });
    }
    group.finish();
}

/// Many threads waiting on the *same* globalized predicate: dedup makes
/// them share one entry and one condvar.
fn same_predicate_herd(inactive_cap: usize, waiters: usize, rounds: usize) {
    let config = MonitorConfig::new().inactive_cap(inactive_cap);
    let monitor = Arc::new(Monitor::with_config(Counter { value: 0 }, config));
    let value = monitor.register_expr("value", |s: &Counter| s.value);
    timed_run(waiters + 1, |i| {
        if i == 0 {
            for _ in 0..(waiters * rounds) {
                monitor.with(|s| s.value += 1);
            }
        } else {
            for round in 0..rounds {
                let goal = ((round + 1) * waiters) as i64;
                monitor.enter(|g| g.wait_transient(value.ge(goal)));
            }
        }
    });
}

fn bench_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_inactive_cache");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    // inactive_cap 0 evicts entries the moment they idle, forcing
    // re-interning; the default keeps them warm for reuse.
    for (label, cap) in [("evict_immediately", 0usize), ("keep_64", 64)] {
        group.bench_function(BenchmarkId::new(label, "8w_x200"), |b| {
            b.iter(|| same_predicate_herd(cap, 8, 200))
        });
    }
    group.finish();
}

/// The plain bounded buffer under a given monitor flavor — the common
/// ground between the restricted and full designs.
mod flavors {
    use super::*;
    use autosynch::kessels::KesselsMonitor;

    pub struct Buf {
        pub count: i64,
        pub cap: i64,
    }

    pub fn kessels_buffer(pairs: usize, ops: usize) {
        let mut monitor = KesselsMonitor::new(Buf { count: 0, cap: 8 });
        let not_full = monitor.declare("not_full", |b: &Buf| b.count < b.cap);
        let not_empty = monitor.declare("not_empty", |b: &Buf| b.count > 0);
        let monitor = Arc::new(monitor);
        timed_run(pairs * 2, |i| {
            if i % 2 == 0 {
                for _ in 0..ops {
                    monitor.enter(|g| {
                        g.wait(not_full);
                        g.state_mut().count += 1;
                    });
                }
            } else {
                for _ in 0..ops {
                    monitor.enter(|g| {
                        g.wait(not_empty);
                        g.state_mut().count -= 1;
                    });
                }
            }
        });
    }

    pub fn autosynch_buffer(config: MonitorConfig, pairs: usize, ops: usize) {
        let monitor = Arc::new(Monitor::with_config(Buf { count: 0, cap: 8 }, config));
        let count = monitor.register_expr("count", |b: &Buf| b.count);
        let not_full = monitor.compile(count.lt(8));
        let not_empty = monitor.compile(count.gt(0));
        timed_run(pairs * 2, |i| {
            if i % 2 == 0 {
                for _ in 0..ops {
                    monitor.enter(|g| {
                        g.wait(&not_full);
                        g.state_mut().count += 1;
                    });
                }
            } else {
                for _ in 0..ops {
                    monitor.enter(|g| {
                        g.wait(&not_empty);
                        g.state_mut().count -= 1;
                    });
                }
            }
        });
    }
}

fn bench_restricted_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_restricted_vs_full");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function(BenchmarkId::new("kessels", "4pairs_x300"), |b| {
        b.iter(|| flavors::kessels_buffer(4, 300))
    });
    group.bench_function(BenchmarkId::new("autosynch", "4pairs_x300"), |b| {
        b.iter(|| flavors::autosynch_buffer(MonitorConfig::new(), 4, 300))
    });
    group.bench_function(BenchmarkId::new("autosynch_t", "4pairs_x300"), |b| {
        b.iter(|| flavors::autosynch_buffer(MonitorConfig::preset(SignalMode::Untagged), 4, 300))
    });
    group.finish();
}

/// The restricted model on a *complex-predicate* problem: Kessels
/// expresses `turn == id` only as one declared condition per thread, so
/// its relay scan is O(N) — the Fig. 11 degradation — while the full
/// monitor's equivalence probe stays O(1).
fn bench_restricted_round_robin(c: &mut Criterion) {
    use autosynch_problems::round_robin::{self, RoundRobinConfig};
    let mut group = c.benchmark_group("ablation_restricted_round_robin");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    for threads in [4usize, 16, 32] {
        let config = RoundRobinConfig {
            threads,
            rounds: (1_024 / threads).max(8),
        };
        group.bench_with_input(BenchmarkId::new("kessels", threads), &config, |b, &cfg| {
            b.iter(|| round_robin::run_kessels(cfg))
        });
        group.bench_with_input(
            BenchmarkId::new("autosynch", threads),
            &config,
            |b, &cfg| b.iter(|| round_robin::run(Mechanism::AutoSynch, cfg)),
        );
    }
    group.finish();
}

/// The change-driven relay (`autosynch_cd`) against the paper-default
/// tagged mode on the two workloads the ISSUE singles out: the Fig. 14
/// parameterized bounded buffer (threshold-heavy, every occupancy
/// mutates) and the Fig. 11 round robin (equivalence-heavy, long waiter
/// queues). The matching counter series lives in `reproduce -- relay`.
fn bench_change_driven(c: &mut Criterion) {
    use autosynch_problems::param_bounded_buffer::{self, ParamBoundedBufferConfig};
    use autosynch_problems::round_robin::{self, RoundRobinConfig};

    let mut group = c.benchmark_group("ablation_change_driven");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));

    for mechanism in [Mechanism::AutoSynch, Mechanism::AutoSynchCD] {
        group.bench_with_input(
            BenchmarkId::new("fig14", mechanism.label()),
            &mechanism,
            |b, &m| {
                b.iter(|| {
                    param_bounded_buffer::run(
                        m,
                        ParamBoundedBufferConfig {
                            consumers: 8,
                            takes_per_consumer: 100,
                            max_items: 64,
                            capacity: 128,
                            seed: 7,
                        },
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fig11", mechanism.label()),
            &mechanism,
            |b, &m| {
                b.iter(|| {
                    round_robin::run(
                        m,
                        RoundRobinConfig {
                            threads: 16,
                            rounds: 64,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_threshold_index,
    bench_dedup,
    bench_restricted_vs_full,
    bench_restricted_round_robin,
    bench_change_driven
);
criterion_main!(benches);
