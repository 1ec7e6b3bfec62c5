//! Criterion benches for the extension workloads (beyond the paper's
//! seven problems). Several echo the paper's structural claims on new
//! ground:
//!
//! * `ext_barrier` — the cyclic barrier is a second `signalAll`-bound
//!   problem (cf. Fig. 14): the explicit broadcast wakes all parties at
//!   once, AutoSynch relays them one by one.
//! * `ext_smokers` — the cigarette smokers put four equivalence keys on
//!   one shared expression, the pure equivalence-hash-probe case.
//!
//! The bridge/bathroom/forum groups measure the mixed-shape predicates
//! (conjunctions and disjunctions) under drain/refill churn, and
//! `ext_wake_storm` contrasts explicit signals and tagged relays with
//! routed eq-directed unparks on K out-of-phase round-robin channels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use autosynch_problems::mechanism::Mechanism;
use autosynch_problems::{
    cigarette_smokers, cyclic_barrier, group_mutex, one_lane_bridge, sharded_queues,
    unisex_bathroom, wake_storm,
};

fn bench_sharded_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_sharded_queues");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &queues in &[4usize, 16] {
        let config = sharded_queues::ShardedQueuesConfig {
            queues,
            ops_per_queue: (4_096 / queues).max(32),
            capacity: 4,
        };
        for mechanism in [
            Mechanism::Explicit,
            Mechanism::AutoSynch,
            Mechanism::AutoSynchCD,
        ] {
            group.bench_with_input(
                BenchmarkId::new(mechanism.label(), queues),
                &config,
                |b, &config| b.iter(|| sharded_queues::run(mechanism, config)),
            );
        }
    }
    group.finish();
}

fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_barrier");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &parties in &[2usize, 8, 32] {
        let config = cyclic_barrier::BarrierConfig {
            parties,
            generations: (2_048 / parties).max(16),
        };
        for mechanism in [Mechanism::Explicit, Mechanism::AutoSynch] {
            group.bench_with_input(
                BenchmarkId::new(mechanism.label(), parties),
                &config,
                |b, &config| b.iter(|| cyclic_barrier::run(mechanism, config)),
            );
        }
    }
    group.finish();
}

fn bench_smokers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_smokers");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    let config = cigarette_smokers::SmokersConfig {
        rounds: 600,
        seed: 0x5EED,
    };
    for mechanism in Mechanism::ALL {
        group.bench_with_input(
            BenchmarkId::new(mechanism.label(), "600rounds"),
            &config,
            |b, &config| b.iter(|| cigarette_smokers::run(mechanism, config)),
        );
    }
    group.finish();
}

fn bench_bridge(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_bridge");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &per_direction in &[2usize, 8] {
        let config = one_lane_bridge::BridgeConfig {
            per_direction,
            crossings: (1_024 / per_direction).max(32),
            capacity: 3,
        };
        for mechanism in [Mechanism::Explicit, Mechanism::AutoSynch] {
            group.bench_with_input(
                BenchmarkId::new(mechanism.label(), per_direction * 2),
                &config,
                |b, &config| b.iter(|| one_lane_bridge::run(mechanism, config)),
            );
        }
    }
    group.finish();
}

fn bench_bathroom(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_bathroom");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    let config = unisex_bathroom::BathroomConfig {
        per_gender: 6,
        visits: 120,
        capacity: 3,
    };
    for mechanism in [Mechanism::Explicit, Mechanism::AutoSynch] {
        group.bench_with_input(
            BenchmarkId::new(mechanism.label(), "6per_gender"),
            &config,
            |b, &config| b.iter(|| unisex_bathroom::run(mechanism, config)),
        );
    }
    group.finish();
}

fn bench_group_mutex(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_group_mutex");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &forums in &[2usize, 4, 8] {
        let config = group_mutex::GroupMutexConfig {
            threads: 16,
            forums,
            sessions: 64,
        };
        for mechanism in [Mechanism::Explicit, Mechanism::AutoSynch] {
            group.bench_with_input(
                BenchmarkId::new(mechanism.label(), forums),
                &config,
                |b, &config| b.iter(|| group_mutex::run(mechanism, config)),
            );
        }
    }
    group.finish();
}

fn bench_wake_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_wake_storm");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &channels in &[2usize, 6] {
        let config = wake_storm::WakeStormConfig {
            channels,
            waiters: 4,
            rounds: (2_048 / (channels * 4)).max(16),
        };
        for mechanism in [
            Mechanism::Explicit,
            Mechanism::AutoSynch,
            Mechanism::AutoSynchRoute,
        ] {
            group.bench_with_input(
                BenchmarkId::new(mechanism.label(), channels),
                &config,
                |b, &config| b.iter(|| wake_storm::run(mechanism, config)),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_barrier,
    bench_smokers,
    bench_bridge,
    bench_bathroom,
    bench_group_mutex,
    bench_sharded_queues,
    bench_wake_storm
);
criterion_main!(benches);
