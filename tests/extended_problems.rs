//! Cross-mechanism equivalence for the five extension workloads
//! (beyond the paper's seven): every mechanism satisfies the same
//! problem invariants, AutoSynch never broadcasts, and the workloads
//! that force `signalAll` on the explicit monitor demonstrably
//! broadcast there.

use autosynch_repro::problems::mechanism::Mechanism;
use autosynch_repro::problems::{
    cigarette_smokers, cyclic_barrier, group_mutex, one_lane_bridge, unisex_bathroom,
};

fn all_reports(run: impl Fn(Mechanism) -> autosynch_repro::problems::RunReport) {
    for mechanism in Mechanism::ALL {
        let report = run(mechanism);
        match mechanism {
            Mechanism::AutoSynch
            | Mechanism::AutoSynchT
            | Mechanism::AutoSynchCD
            | Mechanism::AutoSynchRoute => {
                assert_eq!(
                    report.stats.counters.broadcasts, 0,
                    "{mechanism} must never signalAll"
                );
            }
            Mechanism::Baseline => {
                assert_eq!(
                    report.stats.counters.signals, 0,
                    "the baseline only broadcasts"
                );
            }
            Mechanism::Explicit => {}
        }
    }
}

#[test]
fn cigarette_smokers_all_mechanisms() {
    all_reports(|m| {
        cigarette_smokers::run(
            m,
            cigarette_smokers::SmokersConfig {
                rounds: 240,
                seed: 42,
            },
        )
    });
}

#[test]
fn unisex_bathroom_all_mechanisms() {
    all_reports(|m| {
        unisex_bathroom::run(
            m,
            unisex_bathroom::BathroomConfig {
                per_gender: 4,
                visits: 120,
                capacity: 3,
            },
        )
    });
}

#[test]
fn group_mutex_all_mechanisms() {
    all_reports(|m| {
        group_mutex::run(
            m,
            group_mutex::GroupMutexConfig {
                threads: 9,
                forums: 3,
                sessions: 120,
            },
        )
    });
}

#[test]
fn one_lane_bridge_all_mechanisms() {
    all_reports(|m| {
        one_lane_bridge::run(
            m,
            one_lane_bridge::BridgeConfig {
                per_direction: 4,
                crossings: 120,
                capacity: 3,
            },
        )
    });
}

#[test]
fn cyclic_barrier_all_mechanisms() {
    all_reports(|m| {
        cyclic_barrier::run(
            m,
            cyclic_barrier::BarrierConfig {
                parties: 8,
                generations: 120,
            },
        )
    });
}

#[test]
fn barrier_is_a_signal_all_problem_for_explicit_only() {
    // The §3 argument on a second workload family: the last arrival
    // must release *all* waiters, so the explicit barrier broadcasts
    // once per generation; AutoSynch replaces the broadcast with a
    // relay chain of targeted signals.
    let config = cyclic_barrier::BarrierConfig {
        parties: 8,
        generations: 150,
    };
    let explicit = cyclic_barrier::run(Mechanism::Explicit, config);
    assert!(
        explicit.stats.counters.broadcasts >= 150,
        "one signalAll per generation, got {}",
        explicit.stats.counters.broadcasts
    );
    let auto = cyclic_barrier::run(Mechanism::AutoSynch, config);
    assert_eq!(auto.stats.counters.broadcasts, 0);
    assert!(
        auto.stats.counters.signals >= 150 * (8 - 1),
        "the relay chain signals each waiter once per generation"
    );
}

#[test]
fn bridge_and_bathroom_drains_broadcast_on_explicit_only() {
    let bridge_cfg = one_lane_bridge::BridgeConfig {
        per_direction: 4,
        crossings: 150,
        capacity: 2,
    };
    let explicit = one_lane_bridge::run(Mechanism::Explicit, bridge_cfg);
    assert!(explicit.stats.counters.broadcasts > 0);
    let auto = one_lane_bridge::run(Mechanism::AutoSynch, bridge_cfg);
    assert_eq!(auto.stats.counters.broadcasts, 0);

    let bath_cfg = unisex_bathroom::BathroomConfig {
        per_gender: 4,
        visits: 150,
        capacity: 2,
    };
    let explicit = unisex_bathroom::run(Mechanism::Explicit, bath_cfg);
    assert!(explicit.stats.counters.broadcasts > 0);
    let auto = unisex_bathroom::run(Mechanism::AutoSynch, bath_cfg);
    assert_eq!(auto.stats.counters.broadcasts, 0);
}

#[test]
fn equivalence_tagging_prunes_smokers_relays() {
    // Four equivalence keys over one shared expression: the tagged
    // relay probes the hash table instead of scanning every predicate.
    let config = cigarette_smokers::SmokersConfig {
        rounds: 400,
        seed: 5,
    };
    let tagged = cigarette_smokers::run(Mechanism::AutoSynch, config);
    let scanned = cigarette_smokers::run(Mechanism::AutoSynchT, config);
    assert!(
        scanned.stats.counters.pred_evals > tagged.stats.counters.pred_evals,
        "scan evals {} vs tagged evals {}",
        scanned.stats.counters.pred_evals,
        tagged.stats.counters.pred_evals,
    );
}
