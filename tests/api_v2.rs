//! v2 API equivalence suite: compiled conditions (`Monitor::compile` /
//! `MonitorGuard::wait`) and tracked mutations must be *observationally
//! identical* to the per-call transient path (`wait_transient`) — same
//! analysis artifacts byte-for-byte, same counters on deterministic
//! schedules, same workload outcomes across every signaling mode —
//! while making the named-mutation diffs the default on all 13
//! workloads.

use std::sync::Arc;

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch_repro::autosynch::Monitor;
use autosynch_repro::predicate::ast::BoolExpr;
use autosynch_repro::predicate::atom::{CmpAtom, CmpOp};
use autosynch_repro::predicate::cond::CondTable;
use autosynch_repro::predicate::expr::{ExprId, ExprTable};
use autosynch_repro::predicate::predicate::Predicate;
use autosynch_repro::problems::mechanism::Mechanism;
use autosynch_repro::problems::{
    bounded_buffer, cigarette_smokers, cyclic_barrier, dining, group_mutex, h2o, one_lane_bridge,
    param_bounded_buffer, readers_writers, round_robin, sharded_queues, sleeping_barber,
    unisex_bathroom,
};
use proptest::prelude::*;

// --- the compile path preserves the per-wait analysis ---------------------

type State = [i64; 3];

fn table() -> ExprTable<State> {
    let mut t = ExprTable::new();
    t.register("v0", |s: &State| s[0]);
    t.register("v1", |s: &State| s[1]);
    t.register("v2", |s: &State| s[2]);
    t
}

fn arb_atom() -> impl Strategy<Value = CmpAtom> {
    (
        0u32..3,
        prop::sample::select(CmpOp::ALL.to_vec()),
        -4i64..=4,
    )
        .prop_map(|(var, op, key)| CmpAtom::new(ExprId::from_raw(var), op, key))
}

fn arb_expr() -> impl Strategy<Value = BoolExpr<State>> {
    let leaf = prop_oneof![
        4 => arb_atom().prop_map(BoolExpr::Cmp),
        1 => any::<bool>().prop_map(BoolExpr::Const),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| e.not()),
            prop::collection::vec(inner.clone(), 1..4).prop_map(BoolExpr::And),
            prop::collection::vec(inner, 1..4).prop_map(BoolExpr::Or),
        ]
    })
}

proptest! {
    // Interning an arbitrary condition through a `CondTable` yields
    // exactly the analysis the per-wait path computes: identical tags,
    // dependency sets, structural keys, shard routes for every
    // partition width, and identical evaluation on sampled states.
    #[test]
    fn compiled_conditions_match_the_per_wait_analysis(
        expr in arb_expr(),
        states in prop::collection::vec(prop::array::uniform3(-5i64..=5), 2..5),
    ) {
        if Predicate::try_from_expr(expr.clone()).is_err() {
            // DNF overflow fails both paths identically.
            prop_assert!(Predicate::try_from_expr(expr.clone()).is_err());
            return;
        }
        let direct = Predicate::try_from_expr(expr.clone()).expect("checked above");
        let mut conds = CondTable::new();
        let (slot_a, interned) = conds.intern(
            Predicate::try_from_expr(expr.clone()).expect("same input, same result"),
        );
        // Byte-identical artifacts.
        prop_assert_eq!(interned.tags(), direct.tags());
        prop_assert_eq!(interned.conj_deps(), direct.conj_deps());
        prop_assert_eq!(interned.key(), direct.key());
        // Identical shard routing at every partition width.
        for shards in [1usize, 2, 3, 8] {
            let direct_routes: Vec<_> =
                direct.conj_deps().iter().map(|d| d.route(shards)).collect();
            let interned_routes: Vec<_> =
                interned.conj_deps().iter().map(|d| d.route(shards)).collect();
            prop_assert_eq!(direct_routes, interned_routes);
        }
        // Identical semantics.
        let t = table();
        for state in &states {
            prop_assert_eq!(interned.eval(state, &t), direct.eval(state, &t));
        }
        // Re-compiling interns to the same slot (keyed predicates).
        if direct.key().is_some() {
            let (slot_b, again) = conds.intern(
                Predicate::try_from_expr(expr).expect("same input, same result"),
            );
            prop_assert_eq!(slot_a, slot_b);
            prop_assert!(Arc::ptr_eq(&interned, &again));
        }
    }
}

// --- deterministic schedules: transient and compiled count identically ----

struct Buf {
    queue: Tracked<Vec<u64>>,
    cap: usize,
}

impl TrackedState for Buf {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.queue);
    }
}

fn buf_monitor(mode: SignalMode) -> Monitor<Buf> {
    let monitor = Monitor::with_config(
        Buf {
            queue: Tracked::new(Vec::new()),
            cap: 4,
        },
        MonitorConfig::preset(mode).validate_relay(true),
    );
    let count = monitor.register_expr("count", |b| b.queue.len() as i64);
    let free = monitor.register_expr("free", |b| (b.cap - b.queue.len()) as i64);
    monitor.bind(|b| &mut b.queue, &[count, free]);
    monitor
}

/// The single-threaded schedule both wait styles run: already-true
/// waits, mutations, read-only occupancies, and one expired timed wait
/// (the only real registration). Deterministic by construction — no
/// concurrency, so every counter increment is reproducible.
const OPS: usize = 8;

fn run_transient(mode: SignalMode) -> autosynch_repro::metrics::counters::CounterSnapshot {
    let m = buf_monitor(mode);
    let count = m.lookup_expr("count").expect("registered");
    let free = m.lookup_expr("free").expect("registered");
    for k in 0..OPS {
        m.enter(|g| {
            g.wait_transient(free.gt(0));
            g.state_mut().queue.push(k as u64);
        });
        m.enter(|g| {
            g.wait_transient(count.gt(0));
            g.state_mut().queue.pop();
        });
        m.enter(|g| {
            let _ = g.state().queue.len(); // read-only occupancy
        });
    }
    m.enter(|g| {
        assert!(!g.wait_transient_timeout(count.ge(100), std::time::Duration::from_millis(5)));
    });
    assert!(m.is_quiescent());
    m.stats_snapshot().counters
}

fn run_v2(mode: SignalMode) -> autosynch_repro::metrics::counters::CounterSnapshot {
    let m = buf_monitor(mode);
    let count = m.lookup_expr("count").expect("registered");
    let free = m.lookup_expr("free").expect("registered");
    let not_full = m.compile(free.gt(0));
    let not_empty = m.compile(count.gt(0));
    let never = m.compile(count.ge(100));
    for k in 0..OPS {
        m.enter_tracked(|g| {
            g.wait(&not_full);
            g.state_mut().queue.push(k as u64);
        });
        m.enter_tracked(|g| {
            g.wait(&not_empty);
            g.state_mut().queue.pop();
        });
        m.enter_tracked(|g| {
            let _ = g.state().queue.len(); // read-only occupancy
        });
    }
    m.enter_tracked(|g| {
        assert!(!g.wait_timeout(&never, std::time::Duration::from_millis(5)));
    });
    assert!(m.is_quiescent());
    m.stats_snapshot().counters
}

#[test]
fn deterministic_schedules_count_identically_across_wait_styles() {
    for mode in [
        SignalMode::Tagged,
        SignalMode::Untagged,
        SignalMode::ChangeDriven,
    ] {
        let transient = run_transient(mode);
        let v2 = run_v2(mode);
        // The tracked writes auto-name their mutations — that counter
        // (and only that counter) is *supposed* to differ.
        let mut v2_masked = v2;
        v2_masked.named_mutations = transient.named_mutations;
        assert_eq!(
            transient, v2_masked,
            "{mode:?}: transient and compiled counters diverged\n transient: {transient:?}\n v2: {v2:?}"
        );
        match mode {
            SignalMode::ChangeDriven => {
                assert!(
                    v2.named_mutations > 0,
                    "{mode:?}: tracked writes must register as named mutations"
                );
                assert_eq!(
                    transient.named_mutations, 0,
                    "untracked entries never name anything"
                );
            }
            // The scan/tag modes ignore mutation naming entirely, but
            // the tracked flush still records the contract.
            _ => assert!(v2.named_mutations > 0),
        }
    }
}

// --- all 13 workloads on the v2 API, named mutations everywhere -----------

fn assert_v2_counters(
    workload: &str,
    run: impl Fn(Mechanism) -> autosynch_repro::problems::RunReport,
) {
    for mechanism in [
        Mechanism::AutoSynch,
        Mechanism::AutoSynchCD,
        Mechanism::AutoSynchRoute,
    ] {
        // Every runner asserts its own workload invariants (item
        // conservation, ordering, stoichiometry) — completing the run
        // under a given mechanism *is* the outcome-equivalence check.
        let report = run(mechanism);
        let c = report.stats.counters;
        assert_eq!(c.broadcasts, 0, "{workload}/{mechanism}: no signalAll");
        match mechanism {
            Mechanism::AutoSynchCD | Mechanism::AutoSynchRoute => {
                assert!(
                    c.named_mutations > 0,
                    "{workload}/{mechanism}: v2 writes must name their mutations \
                     (got {} named out of {} enters)",
                    c.named_mutations,
                    c.enters,
                );
            }
            _ => {}
        }
    }
}

#[test]
fn workload01_bounded_buffer_names_mutations() {
    assert_v2_counters("bounded_buffer", |m| {
        bounded_buffer::run(
            m,
            bounded_buffer::BoundedBufferConfig {
                producers: 3,
                consumers: 3,
                ops_per_thread: 150,
                capacity: 4,
            },
        )
    });
}

#[test]
fn workload02_h2o_names_mutations() {
    assert_v2_counters("h2o", |m| {
        h2o::run(
            m,
            h2o::H2oConfig {
                h_threads: 4,
                events_per_h: 100,
            },
        )
    });
}

#[test]
fn workload03_sleeping_barber_names_mutations() {
    assert_v2_counters("sleeping_barber", |m| {
        sleeping_barber::run(
            m,
            sleeping_barber::SleepingBarberConfig {
                customers: 4,
                visits_per_customer: 80,
                chairs: 3,
            },
        )
        .report
    });
}

#[test]
fn workload04_round_robin_names_mutations() {
    assert_v2_counters("round_robin", |m| {
        round_robin::run(
            m,
            round_robin::RoundRobinConfig {
                threads: 6,
                rounds: 60,
            },
        )
    });
}

#[test]
fn workload05_readers_writers_names_mutations() {
    assert_v2_counters("readers_writers", |m| {
        readers_writers::run(
            m,
            readers_writers::ReadersWritersConfig {
                writers: 2,
                readers: 6,
                ops_per_thread: 60,
            },
        )
    });
}

#[test]
fn workload06_dining_names_mutations() {
    assert_v2_counters("dining", |m| {
        dining::run(
            m,
            dining::DiningConfig {
                philosophers: 5,
                meals_per_philosopher: 60,
            },
        )
    });
}

#[test]
fn workload07_param_bounded_buffer_names_mutations() {
    assert_v2_counters("param_bounded_buffer", |m| {
        param_bounded_buffer::run(
            m,
            param_bounded_buffer::ParamBoundedBufferConfig {
                consumers: 3,
                takes_per_consumer: 40,
                max_items: 16,
                capacity: 32,
                seed: 7,
            },
        )
    });
}

#[test]
fn workload08_cigarette_smokers_names_mutations() {
    assert_v2_counters("cigarette_smokers", |m| {
        cigarette_smokers::run(
            m,
            cigarette_smokers::SmokersConfig {
                rounds: 120,
                seed: 5,
            },
        )
    });
}

#[test]
fn workload09_unisex_bathroom_names_mutations() {
    assert_v2_counters("unisex_bathroom", |m| {
        unisex_bathroom::run(
            m,
            unisex_bathroom::BathroomConfig {
                per_gender: 4,
                visits: 60,
                capacity: 3,
            },
        )
    });
}

#[test]
fn workload10_group_mutex_names_mutations() {
    assert_v2_counters("group_mutex", |m| {
        group_mutex::run(
            m,
            group_mutex::GroupMutexConfig {
                threads: 6,
                forums: 3,
                sessions: 60,
            },
        )
    });
}

#[test]
fn workload11_one_lane_bridge_names_mutations() {
    assert_v2_counters("one_lane_bridge", |m| {
        one_lane_bridge::run(
            m,
            one_lane_bridge::BridgeConfig {
                per_direction: 4,
                crossings: 60,
                capacity: 3,
            },
        )
    });
}

#[test]
fn workload12_cyclic_barrier_names_mutations() {
    assert_v2_counters("cyclic_barrier", |m| {
        cyclic_barrier::run(
            m,
            cyclic_barrier::BarrierConfig {
                parties: 4,
                generations: 60,
            },
        )
    });
}

#[test]
fn workload13_sharded_queues_names_mutations() {
    assert_v2_counters("sharded_queues", |m| {
        sharded_queues::run(
            m,
            sharded_queues::ShardedQueuesConfig {
                queues: 4,
                ops_per_queue: 100,
                capacity: 2,
            },
        )
    });
}
