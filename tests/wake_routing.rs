//! Targeted wake routing (`SignalMode::Routed`) equivalence and
//! protocol checks.
//!
//! The mode must reach the same wait/wake outcomes as tagged AutoSynch
//! on every workload — same invariants, zero broadcasts, zero protocol
//! violations with the no-lost-token validator armed — while the
//! signaler never evaluates a waiter's predicate (that work shows up
//! as `waiter_self_checks` on the waiter side) and wakes are
//! slot-targeted token sweeps instead of gate broadcasts (visible as
//! `routed_unparks` / `token_forwards` / `eq_routed_wakes` on the
//! counters).
//!
//! Covers: validated equivalence across gate counts, a route-vs-tagged
//! sweep over every workload, global-gate fallback for cross-shard
//! predicates, named-mutation diff narrowing, a park/unpark lost-wakeup
//! stress that wraps the snapshot ring many times under concurrent
//! writers, torn-read freedom of lock-free snapshot reads under load,
//! the fig11 acceptance assertion (unparks per relay ≈ 1), a
//! transient-waiter stranding regression (the documented
//! `wait_transient` broadcast-bucket fallback), and no-lost-token
//! proptests over randomized park/sweep/claim/timeout interleavings.

use std::sync::Arc;

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::Monitor;
use autosynch_repro::problems::mechanism::Mechanism;
use autosynch_repro::problems::{
    bounded_buffer, cigarette_smokers, cyclic_barrier, dining, group_mutex, h2o, one_lane_bridge,
    param_bounded_buffer, readers_writers, round_robin, sharded_queues, sleeping_barber,
    unisex_bathroom, wake_storm,
};
use proptest::prelude::*;

/// A deterministic bounded-buffer schedule run under one validated
/// config; returns the final level. Producers use compiled conditions
/// (slot buckets), consumers the per-call shim (transient bucket), so
/// both routed populations interleave in every gate.
fn validated_bounded_buffer(config: MonitorConfig, pairs: usize, ops: usize) -> i64 {
    struct Buf {
        level: i64,
        cap: i64,
    }
    let monitor = Arc::new(Monitor::with_config(
        Buf { level: 0, cap: 8 },
        config.validate_relay(true),
    ));
    let level = monitor.register_expr("level", |b: &Buf| b.level);
    let free = monitor.register_expr("free", |b: &Buf| b.cap - b.level);

    std::thread::scope(|scope| {
        for i in 0..pairs {
            let put = 1 + (i as i64 % 3);
            let has_room = monitor.compile(free.ge(put));
            let producer_monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                for _ in 0..ops {
                    producer_monitor.enter(|g| {
                        g.wait(&has_room);
                        g.state_mut().level += put;
                    });
                }
            });
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                let take = 1 + (i as i64 % 3);
                for _ in 0..ops {
                    monitor.enter(|g| {
                        g.wait_transient(level.ge(take));
                        g.state_mut().level -= take;
                    });
                }
            });
        }
    });

    let level = monitor.with(|b| b.level);
    assert!(monitor.is_quiescent(), "leaked waiters or signals");
    assert_eq!(monitor.parked_waiters(), 0, "leaked bucketed waiters");
    assert_eq!(monitor.stats_snapshot().counters.broadcasts, 0);
    level
}

#[test]
fn validated_bounded_buffer_matches_scan_mode_across_shard_widths() {
    // validate_relay panics on any routing-registration or
    // no-lost-token violation, so completing the run in routed mode
    // *is* the zero-violations assertion; the final levels must agree
    // with the scan-based reference — across shard widths 1..8,
    // including the degenerate single data shard.
    for shards in 1..=8usize {
        let routed_level = validated_bounded_buffer(
            MonitorConfig::preset(SignalMode::Routed).shards(shards),
            4,
            150,
        );
        assert_eq!(routed_level, 0, "shards({shards}) run did not balance");
    }
    assert_eq!(
        validated_bounded_buffer(MonitorConfig::preset(SignalMode::Untagged), 4, 150),
        0
    );
}

#[test]
fn validated_eq_round_robin_across_shard_widths() {
    // The eq-route showcase under the armed validator: every advance
    // must wake someone (or the validator/hang catches it) and the
    // registration audit re-derives each slot's eq key per relay.
    struct Turn {
        turn: i64,
    }
    for shards in [1, 2, 3, 8] {
        let monitor = Arc::new(Monitor::with_config(
            Turn { turn: 0 },
            MonitorConfig::preset(SignalMode::Routed)
                .shards(shards)
                .validate_relay(true),
        ));
        let turn = monitor.register_expr("turn", |s: &Turn| s.turn);
        const N: usize = 6;
        const ROUNDS: usize = 60;
        std::thread::scope(|scope| {
            for id in 0..N as i64 {
                let monitor = Arc::clone(&monitor);
                let my_turn = monitor.compile(turn.eq(id));
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        monitor.enter(|g| {
                            g.wait(&my_turn);
                            g.state_mut().turn = (g.state().turn + 1) % N as i64;
                        });
                    }
                });
            }
        });
        assert!(monitor.is_quiescent());
        let snap = monitor.stats_snapshot();
        assert_eq!(snap.counters.broadcasts, 0);
        assert!(
            snap.counters.eq_routed_wakes > 0,
            "shards({shards}): eq conditions must route through the eq index"
        );
    }
}

// --- route-vs-tagged equivalence across all 14 workloads ---------------
//
// Every problem's `run` asserts its own invariants (item conservation,
// stoichiometry, mutual exclusion, ...) and panics on violation, so
// completing each run under AutoSynch-Route with zero broadcasts is
// the equivalence assertion; tagged AutoSynch runs the identical
// config as the reference.

fn route_tagged(run: impl Fn(Mechanism) -> autosynch_repro::problems::RunReport) {
    for mechanism in [Mechanism::AutoSynchRoute, Mechanism::AutoSynch] {
        let report = run(mechanism);
        assert_eq!(
            report.stats.counters.broadcasts, 0,
            "{mechanism} must never signalAll"
        );
        if mechanism == Mechanism::AutoSynchRoute {
            assert_eq!(
                report.stats.counters.signals, 0,
                "a routed signaler never picks a winner; it only unparks"
            );
        }
    }
}

#[test]
fn workload01_bounded_buffer() {
    route_tagged(|m| {
        bounded_buffer::run(
            m,
            bounded_buffer::BoundedBufferConfig {
                producers: 4,
                consumers: 4,
                ops_per_thread: 250,
                capacity: 8,
            },
        )
    });
}

#[test]
fn workload02_h2o() {
    route_tagged(|m| {
        h2o::run(
            m,
            h2o::H2oConfig {
                h_threads: 6,
                events_per_h: 160,
            },
        )
    });
}

#[test]
fn workload03_sleeping_barber() {
    route_tagged(|m| {
        sleeping_barber::run(
            m,
            sleeping_barber::SleepingBarberConfig {
                customers: 6,
                visits_per_customer: 120,
                chairs: 4,
            },
        )
        .report
    });
}

#[test]
fn workload04_round_robin() {
    route_tagged(|m| {
        round_robin::run(
            m,
            round_robin::RoundRobinConfig {
                threads: 8,
                rounds: 100,
            },
        )
    });
}

#[test]
fn workload05_readers_writers() {
    route_tagged(|m| {
        readers_writers::run(
            m,
            readers_writers::ReadersWritersConfig {
                writers: 3,
                readers: 9,
                ops_per_thread: 90,
            },
        )
    });
}

#[test]
fn workload06_dining() {
    route_tagged(|m| {
        dining::run(
            m,
            dining::DiningConfig {
                philosophers: 7,
                meals_per_philosopher: 90,
            },
        )
    });
}

#[test]
fn workload07_param_bounded_buffer() {
    route_tagged(|m| {
        param_bounded_buffer::run(
            m,
            param_bounded_buffer::ParamBoundedBufferConfig {
                consumers: 4,
                takes_per_consumer: 70,
                max_items: 64,
                capacity: 128,
                seed: 13,
            },
        )
    });
}

#[test]
fn workload08_cigarette_smokers() {
    route_tagged(|m| {
        cigarette_smokers::run(
            m,
            cigarette_smokers::SmokersConfig {
                rounds: 200,
                seed: 42,
            },
        )
    });
}

#[test]
fn workload09_unisex_bathroom() {
    route_tagged(|m| {
        unisex_bathroom::run(
            m,
            unisex_bathroom::BathroomConfig {
                per_gender: 4,
                visits: 100,
                capacity: 3,
            },
        )
    });
}

#[test]
fn workload10_group_mutex() {
    route_tagged(|m| {
        group_mutex::run(
            m,
            group_mutex::GroupMutexConfig {
                threads: 9,
                forums: 3,
                sessions: 100,
            },
        )
    });
}

#[test]
fn workload11_one_lane_bridge() {
    route_tagged(|m| {
        one_lane_bridge::run(
            m,
            one_lane_bridge::BridgeConfig {
                per_direction: 4,
                crossings: 100,
                capacity: 3,
            },
        )
    });
}

#[test]
fn workload12_cyclic_barrier() {
    route_tagged(|m| {
        cyclic_barrier::run(
            m,
            cyclic_barrier::BarrierConfig {
                parties: 8,
                generations: 100,
            },
        )
    });
}

#[test]
fn workload13_sharded_queues() {
    route_tagged(|m| {
        sharded_queues::run(
            m,
            sharded_queues::ShardedQueuesConfig {
                queues: 6,
                ops_per_queue: 160,
                capacity: 2,
            },
        )
    });
}

#[test]
fn workload14_wake_storm() {
    route_tagged(|m| {
        wake_storm::run(
            m,
            wake_storm::WakeStormConfig {
                channels: 4,
                waiters: 4,
                rounds: 60,
            },
        )
    });
}

// --- the acceptance criteria -------------------------------------------

#[test]
fn fig11_routed_unparks_are_targeted() {
    // The headline acceptance: routed wakes on fig11 are ~1 per
    // handoff — each advance eq-routes to the one slot whose turn came
    // — where a gate broadcast would wake ~N waiters per relay.
    let config = round_robin::RoundRobinConfig {
        threads: 12,
        rounds: 150,
    };
    let routed = round_robin::run(Mechanism::AutoSynchRoute, config);
    let c = routed.stats.counters;
    assert!(c.relay_calls > 0);
    let routed_rate = c.unparks as f64 / c.relay_calls as f64;
    assert!(
        routed_rate <= 1.2,
        "routed unparks per relay must be ~1, got {routed_rate:.2}"
    );
    assert!(
        c.eq_routed_wakes > 0,
        "fig11's turn == id conditions must ride the eq route"
    );
}

#[test]
fn routed_counters_surface_on_the_headline_workloads() {
    // The wake work must appear as targeted-unpark traffic: nonzero
    // routed_unparks on fig11 and the wake storm, zero signals (a
    // routed signaler never picks a winner), zero broadcasts.
    let reports = [
        (
            "fig11_round_robin",
            round_robin::run(
                Mechanism::AutoSynchRoute,
                round_robin::RoundRobinConfig {
                    threads: 8,
                    rounds: 100,
                },
            ),
        ),
        (
            "ext_wake_storm",
            wake_storm::run(
                Mechanism::AutoSynchRoute,
                wake_storm::WakeStormConfig {
                    channels: 4,
                    waiters: 4,
                    rounds: 60,
                },
            ),
        ),
    ];
    for (workload, report) in reports {
        let c = report.stats.counters;
        assert!(
            c.routed_unparks > 0,
            "{workload}: wakes must be slot-targeted ({c:?})"
        );
        assert!(
            c.eq_routed_wakes > 0,
            "{workload}: equivalence shapes must use the eq route ({c:?})"
        );
        assert_eq!(c.signals, 0, "{workload}: no per-winner signals");
        assert_eq!(c.broadcasts, 0, "{workload}: no signalAll");
    }
}

#[test]
fn validated_cross_shard_predicates_use_the_global_gate() {
    // Ticketed readers/writers: the writer predicate
    // `writer == 0 && readers == 0` spans two expressions and (for most
    // shard counts) parks on the global gate — the monitor-lock
    // fallback workout.
    struct Room {
        readers: i64,
        writer: i64,
        stop: i64,
    }
    // Pick a shard count that provably separates the two expressions
    // (ids 0 and 1), so the writer conjunction must route to the
    // global gate.
    use autosynch_repro::predicate::deps::expr_shard;
    use autosynch_repro::predicate::expr::ExprId;
    let separating = (2..64)
        .find(|&n| expr_shard(ExprId::from_raw(0), n) != expr_shard(ExprId::from_raw(1), n))
        .expect("some shard count separates two exprs");
    let monitor = Arc::new(Monitor::with_config(
        Room {
            readers: 0,
            writer: 0,
            stop: 0,
        },
        MonitorConfig::preset(SignalMode::Routed)
            .shards(separating)
            .validate_relay(true),
    ));
    let writer = monitor.register_expr("writer", |r: &Room| r.writer);
    let readers = monitor.register_expr("readers", |r: &Room| r.readers);
    let stop = monitor.register_expr("stop", |r: &Room| r.stop);

    const WRITERS: usize = 3;
    const READERS: usize = 9;
    const OPS: usize = 120;
    let total_reads = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        // A pinned waiter whose first conjunction spans both separated
        // expressions: its registration is a *guaranteed* global-gate
        // (cross-shard) parking, however fast the workload races.
        let pin = {
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                let spanning = monitor.compile(writer.eq(5).and(readers.eq(5)).or(stop.eq(1)));
                monitor.enter(|g| {
                    g.wait(&spanning);
                });
            })
        };
        let mut handles = Vec::new();
        for _ in 0..WRITERS {
            let monitor = Arc::clone(&monitor);
            handles.push(scope.spawn(move || {
                let idle = monitor.compile(writer.eq(0).and(readers.eq(0)));
                for _ in 0..OPS {
                    monitor.enter(|g| {
                        g.wait(&idle);
                        g.state_mut().writer = 1;
                    });
                    monitor.with(|r| r.writer = 0);
                }
            }));
        }
        for _ in 0..READERS {
            let monitor = Arc::clone(&monitor);
            let total_reads = &total_reads;
            handles.push(scope.spawn(move || {
                let no_writer = monitor.compile(writer.eq(0));
                for _ in 0..OPS {
                    monitor.enter(|g| {
                        g.wait(&no_writer);
                        g.state_mut().readers += 1;
                    });
                    total_reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    monitor.with(|r| r.readers -= 1);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        monitor.with(|r| r.stop = 1); // release the pinned waiter
        pin.join().unwrap();
    });
    assert!(monitor.is_quiescent());
    assert_eq!(
        total_reads.load(std::sync::atomic::Ordering::Relaxed),
        (READERS * OPS) as u64
    );
    let snap = monitor.stats_snapshot();
    assert_eq!(snap.counters.broadcasts, 0);
    assert!(
        snap.counters.cross_shard_preds > 0,
        "the pinned spanning conjunction must have parked on the global gate"
    );
}

#[test]
fn named_mutations_narrow_the_parked_diff() {
    // sharded_queues uses tracked cells: under Route the per-exit diff
    // must evaluate only the touched queue's two expressions, so total
    // expr_evals stay near two per operation and named_mutations
    // counts every operation.
    let config = sharded_queues::ShardedQueuesConfig {
        queues: 8,
        ops_per_queue: 200,
        capacity: 2,
    };
    let routed = sharded_queues::run(Mechanism::AutoSynchRoute, config);
    let c = routed.stats.counters;
    let ops = (config.queues * config.ops_per_queue * 2) as u64;
    assert!(
        c.named_mutations >= ops,
        "every put/take is a named occupancy: {} < {ops}",
        c.named_mutations
    );
    // Each mutated diff evaluates ~2 named expressions instead of all
    // 16 live ones; allow generous slack for registration-time evals
    // and gap re-evaluations.
    assert!(
        c.expr_evals < ops * 6,
        "named diffs should evaluate ~2 exprs per op, got {} for {ops} ops",
        c.expr_evals
    );
}

// --- lost-wakeup stress with ring wraparound ---------------------------

#[test]
fn park_unpark_survives_ring_wraparound_under_concurrent_writers() {
    // The snapshot ring has 4 slots; thousands of publishes wrap it
    // hundreds of times while parked waiters run self-checks against
    // whatever the latest slot says. A waiter that trusted a torn or
    // stale read and slept through its wakeup would hang this test; the
    // armed validator additionally panics on any bare parked waiter
    // whose predicate is true and no token or announcement covers.
    struct Buf {
        level: i64,
        cap: i64,
        stop: i64,
    }
    let monitor = Arc::new(Monitor::with_config(
        Buf {
            level: 0,
            cap: 3,
            stop: 0,
        },
        MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
    ));
    let level = monitor.register_expr("level", |b: &Buf| b.level);
    let free = monitor.register_expr("free", |b: &Buf| b.cap - b.level);
    let stop_e = monitor.register_expr("stop", |b: &Buf| b.stop);

    const PAIRS: usize = 3;
    const OPS: usize = 2_000;
    std::thread::scope(|scope| {
        // A long-lived parked waiter whose predicate stays false for
        // the whole run: its self-checks keep reading the wrapping
        // ring, and it must still wake for the final mutation.
        let pin = {
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                let released = monitor.compile(stop_e.eq(1));
                monitor.enter(|g| {
                    g.wait(&released);
                });
            })
        };
        let mut handles = Vec::new();
        for _ in 0..PAIRS {
            let producer = Arc::clone(&monitor);
            handles.push(scope.spawn(move || {
                let room = producer.compile(free.ge(1));
                for _ in 0..OPS {
                    producer.enter(|g| {
                        g.wait(&room);
                        g.state_mut().level += 1;
                    });
                }
            }));
            let consumer = Arc::clone(&monitor);
            handles.push(scope.spawn(move || {
                let stocked = consumer.compile(level.ge(1));
                for _ in 0..OPS {
                    consumer.enter(|g| {
                        g.wait(&stocked);
                        g.state_mut().level -= 1;
                    });
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        // Only now release the pin waiter: it sat parked through every
        // ring wraparound of the run.
        monitor.with(|b| b.stop = 1);
        pin.join().unwrap();
    });
    assert_eq!(monitor.with(|b| b.level), 0);
    assert!(monitor.is_quiescent());
    assert_eq!(monitor.parked_waiters(), 0);
    let snap = monitor.stats_snapshot();
    assert!(
        snap.counters.waiter_self_checks > 0,
        "the stress must exercise self-checks"
    );
}

// --- lock-free snapshot ring -------------------------------------------

#[test]
fn snapshot_ring_reads_are_consistent_under_load() {
    // A producer/consumer pair hammers the monitor while samplers read
    // the published expression snapshot lock-free. A published
    // snapshot's `Some` values form a consistent cut (all evaluated
    // under one lock hold), so `level + free == cap` whenever both are
    // present — a torn or epoch-mixed read would break the sum. A
    // "pin" waiter whose predicate carries a `{level, free}`
    // conjunction keeps both expressions in the diff's dependency set
    // for the whole run, so nearly every snapshot carries both.
    struct Buf {
        level: i64,
        cap: i64,
        stop: i64,
    }
    let monitor = Arc::new(Monitor::with_config(
        Buf {
            level: 0,
            cap: 4,
            stop: 0,
        },
        MonitorConfig::preset(SignalMode::Routed),
    ));
    let level = monitor.register_expr("level", |b: &Buf| b.level);
    let free = monitor.register_expr("free", |b: &Buf| b.cap - b.level);
    let stop_e = monitor.register_expr("stop", |b: &Buf| b.stop);
    let stop = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        {
            // Pin waiter: conjunction 2 (`level >= 100 && free >= 100`)
            // is never true but keeps {level, free} live dependencies;
            // conjunction 1 releases it at shutdown.
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                let pin = monitor.compile(stop_e.eq(1).or(level.ge(100).and(free.ge(100))));
                monitor.enter(|g| {
                    g.wait(&pin);
                });
            });
        }
        for _ in 0..2 {
            let monitor = Arc::clone(&monitor);
            let stop = &stop;
            scope.spawn(move || {
                let mut observed = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if let Some((_, values)) = monitor.latest_expr_snapshot() {
                        if let (Some(l), Some(f)) =
                            (values[level.id().index()], values[free.id().index()])
                        {
                            assert_eq!(l + f, 4, "torn snapshot: level {l} + free {f} != cap");
                            observed += 1;
                        }
                    }
                    std::hint::spin_loop();
                }
                assert!(observed > 0, "sampler never saw a published snapshot");
            });
        }
        let producer = Arc::clone(&monitor);
        let consumer = Arc::clone(&monitor);
        let p = scope.spawn(move || {
            let room = producer.compile(free.ge(1));
            for _ in 0..3_000 {
                producer.enter(|g| {
                    g.wait(&room);
                    g.state_mut().level += 1;
                });
            }
        });
        let c = scope.spawn(move || {
            let stocked = consumer.compile(level.ge(1));
            for _ in 0..3_000 {
                consumer.enter(|g| {
                    g.wait(&stocked);
                    g.state_mut().level -= 1;
                });
            }
        });
        p.join().unwrap();
        c.join().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        monitor.with(|b| b.stop = 1); // release the pin waiter
    });
    assert!(monitor.is_quiescent());
}

// --- transient fallback: never stranded --------------------------------

#[test]
fn transient_waiters_are_never_stranded_under_routing() {
    // wait_transient conditions have no slot, hence no bucket identity:
    // the documented fallback parks them in the gate's broadcast bucket
    // and wakes them on every gate-affecting mutation. A stranded
    // transient waiter would hang this test; the armed validator
    // additionally panics on any bare parked waiter whose predicate is
    // true. Compiled waiters on the *same expressions* run concurrently
    // so both populations share gates throughout.
    struct S {
        a: i64,
        b: i64,
    }
    let monitor = Arc::new(Monitor::with_config(
        S { a: 0, b: 0 },
        MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
    ));
    let a = monitor.register_expr("a", |s: &S| s.a);
    let b = monitor.register_expr("b", |s: &S| s.b);
    const ROUNDS: i64 = 120;
    std::thread::scope(|scope| {
        // Transient waiter: fresh key every round — the exact shape the
        // compile table must not pin, riding the broadcast bucket.
        {
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                for k in 1..=ROUNDS {
                    monitor.enter(|g| {
                        g.wait_transient(a.ge(k));
                        g.state_mut().b += 1;
                    });
                }
            });
        }
        // Compiled waiter on the sibling expression, sharing gates.
        {
            let monitor = Arc::clone(&monitor);
            let caught_up = monitor.compile(b.ge(ROUNDS));
            scope.spawn(move || {
                monitor.enter(|g| g.wait(&caught_up));
            });
        }
        // Driver: advances `a` one step per transient wake-up.
        let monitor = Arc::clone(&monitor);
        scope.spawn(move || {
            for k in 1..=ROUNDS {
                loop {
                    let done = monitor.with(|s| {
                        if s.b >= k - 1 {
                            s.a = k;
                            true
                        } else {
                            false
                        }
                    });
                    if done {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    });
    assert_eq!(monitor.with(|s| s.b), ROUNDS);
    assert!(monitor.is_quiescent());
    assert_eq!(monitor.parked_waiters(), 0);
}

#[test]
fn lru_eviction_churn_never_strands_graduated_transients() {
    // The eviction regression for the bounded transient-bucket LRU:
    // the mixed workload's transient consumers repeat three distinct
    // predicates (`level >= 1..=3`), so under `transient_bucket_cap(1)`
    // every graduation evicts the previous tenant, and under cap 0
    // nothing ever graduates at all. The contract under test: only an
    // *idle* bucket is ever evicted (occupied or in-flight-covered
    // buckets are pinned), and an evicted key's next admission falls
    // back to the broadcast bucket — so no waiter strands, whichever
    // side of an eviction it lands on. A stranded waiter hangs the
    // run; the armed validator panics on any parked waiter whose
    // predicate is true.
    for cap in [0, 1, 2] {
        let level = validated_bounded_buffer(
            MonitorConfig::preset(SignalMode::Routed).transient_bucket_cap(cap),
            4,
            120,
        );
        assert_eq!(level, 0, "transient_bucket_cap({cap}) run did not balance");
    }
}

#[test]
fn repeat_transient_predicates_graduate_to_swept_buckets() {
    // A transient predicate with a stable structural key must stop
    // herd-riding the broadcast bucket after its first admission: the
    // second `wait_transient(n >= 5)` is an LRU hit and parks in a
    // swept per-predicate bucket, surfacing as `transient_cache_hits`.
    struct S {
        n: i64,
    }
    let monitor = Arc::new(Monitor::with_config(
        S { n: 0 },
        MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
    ));
    let n = monitor.register_expr("n", |s: &S| s.n);
    const ROUNDS: usize = 40;
    std::thread::scope(|scope| {
        {
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    monitor.enter(|g| {
                        // Same structural key every round — the
                        // repeating-but-uncompiled shape.
                        g.wait_transient(n.ge(5));
                        g.state_mut().n -= 5;
                    });
                }
            });
        }
        let monitor = Arc::clone(&monitor);
        let drained = monitor.compile(n.le(0));
        scope.spawn(move || {
            for _ in 0..ROUNDS {
                monitor.enter(|g| {
                    g.wait(&drained);
                    g.state_mut().n += 5;
                });
            }
        });
    });
    assert_eq!(monitor.with(|s| s.n), 0);
    assert!(monitor.is_quiescent());
    assert_eq!(monitor.parked_waiters(), 0);
    let c = monitor.stats_snapshot().counters;
    assert!(
        c.transient_cache_hits > 0,
        "a repeating transient key must graduate off the broadcast bucket ({c:?})"
    );
}

// --- proptests: the no-lost-token invariant ----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Randomized producer/consumer batch sizes under the armed
    // validator: any lost token hangs (caught by the harness timeout)
    // or panics in the wake-routing checker; any accounting error
    // shows up as a nonzero final level. Mixed compiled + transient
    // waiters exercise bucket sweeps and broadcast-bucket wakes in the
    // same interleavings.
    #[test]
    fn randomized_workloads_never_lose_tokens(
        pairs in 1usize..=4,
        ops in 1usize..=50,
        shards in 1usize..=8,
    ) {
        let level = validated_bounded_buffer(
            MonitorConfig::preset(SignalMode::Routed).shards(shards),
            pairs,
            ops,
        );
        prop_assert_eq!(level, 0);
    }

    // Timed waits racing sweeps and claims: deadlines force the
    // cancel-dequeue path (which must forward residual tokens instead
    // of absorbing them) to interleave with publishes, forwards and
    // re-injections. The run must neither hang nor leak queue nodes,
    // whatever wins each race.
    #[test]
    fn randomized_timeouts_race_token_sweeps_cleanly(timeout_ms in 0u64..=6) {
        struct Counter { value: i64 }
        let m = Arc::new(Monitor::with_config(
            Counter { value: 0 },
            MonitorConfig::preset(SignalMode::Routed).validate_relay(true),
        ));
        let v = m.register_expr("value", |s: &Counter| s.value);
        // One compiled condition per threshold so several timed waiters
        // share slot buckets (sweep targets) across rounds.
        let conds: Vec<_> = (1..=10i64).map(|k| m.compile(v.ge(k))).collect();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let m = Arc::clone(&m);
                let conds = conds.clone();
                scope.spawn(move || {
                    for cond in &conds {
                        m.enter(|g| {
                            g.wait_timeout(
                                cond,
                                std::time::Duration::from_millis(timeout_ms),
                            );
                        });
                    }
                });
            }
            let m = Arc::clone(&m);
            scope.spawn(move || {
                for _ in 0..10 {
                    m.with(|s| s.value += 1);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        });
        prop_assert!(m.is_quiescent());
        prop_assert_eq!(m.parked_waiters(), 0);
    }
}
