//! Property tests for the monitor runtime's data structures and for the
//! monitor itself under randomized schedules.

use std::sync::Arc;

use autosynch::config::{MonitorConfig, SignalMode, ThresholdIndexKind};
use autosynch::indexed_heap::IndexedHeap;
use autosynch::monitor::Monitor;
use autosynch::slab::Slab;
use proptest::prelude::*;

// --- IndexedHeap against a model multiset ---------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(i32),
    RemoveNth(usize),
    Pop,
}

fn arb_heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => (-50i32..=50).prop_map(HeapOp::Insert),
            1 => (0usize..8).prop_map(HeapOp::RemoveNth),
            1 => Just(HeapOp::Pop),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_heap_matches_sorted_model(ops in arb_heap_ops()) {
        let mut heap = IndexedHeap::new();
        let mut live: Vec<(autosynch::indexed_heap::NodeId, i32)> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Insert(k) => {
                    let id = heap.insert(k, ());
                    live.push((id, k));
                }
                HeapOp::RemoveNth(n) => {
                    if !live.is_empty() {
                        let (id, expected) = live.swap_remove(n % live.len());
                        let (k, ()) = heap.remove(id);
                        prop_assert_eq!(k, expected);
                    }
                }
                HeapOp::Pop => {
                    let model_min = live.iter().map(|&(_, k)| k).min();
                    // Track identity via peek: with duplicate keys the
                    // heap may pop a different node than a key-based
                    // model lookup would pick.
                    match heap.peek().map(|(id, &k, _)| (id, k)) {
                        None => prop_assert_eq!(model_min, None),
                        Some((id, k)) => {
                            prop_assert_eq!(Some(k), model_min);
                            heap.remove(id);
                            let pos = live
                                .iter()
                                .position(|&(lid, _)| lid == id)
                                .expect("model has the popped node");
                            live.swap_remove(pos);
                        }
                    }
                }
            }
            // Peek always agrees with the model minimum.
            prop_assert_eq!(
                heap.peek().map(|(_, &k, _)| k),
                live.iter().map(|&(_, k)| k).min()
            );
            prop_assert_eq!(heap.len(), live.len());
        }
    }

    #[test]
    fn slab_matches_map_model(ops in prop::collection::vec((any::<bool>(), 0usize..16), 1..200)) {
        let mut slab = Slab::new();
        let mut model: Vec<(autosynch::slab::SlabKey, usize)> = Vec::new();
        let mut next_value = 0usize;
        for (insert, pick) in ops {
            if insert || model.is_empty() {
                let key = slab.insert(next_value);
                model.push((key, next_value));
                next_value += 1;
            } else {
                let (key, expected) = model.swap_remove(pick % model.len());
                prop_assert_eq!(slab.remove(key), expected);
            }
            for &(key, value) in &model {
                prop_assert_eq!(slab.get(key), Some(&value));
            }
            prop_assert_eq!(slab.len(), model.len());
        }
    }
}

// --- Monitor under randomized producer/consumer schedules -----------------

/// A randomized bounded-counter schedule: producers add random amounts,
/// consumers demand random thresholds. Checked invariants: termination
/// (join within the harness timeout), conservation, and zero broadcasts.
fn run_schedule(
    mode: SignalMode,
    index: ThresholdIndexKind,
    validate: bool,
    adds: &[i64],
    demands: &[i64],
) {
    struct Pool {
        level: i64,
    }
    let total: i64 = adds.iter().sum();
    let config = MonitorConfig::new()
        .mode(mode)
        .threshold_index(index)
        .validate_relay(validate);
    let monitor = Arc::new(Monitor::with_config(Pool { level: 0 }, config));
    let level = monitor.register_expr("level", |p: &Pool| p.level);

    std::thread::scope(|scope| {
        for &demand in demands {
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                monitor.enter(|g| {
                    // Demands are calibrated to be satisfiable: each is
                    // at most the eventual total level. The thresholds
                    // are randomized one-shots — transient territory.
                    g.wait_transient(level.ge(demand.min(total)));
                });
            });
        }
        for &add in adds {
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                monitor.with(|p| p.level += add);
            });
        }
    });

    assert_eq!(monitor.with(|p| p.level), total);
    let snap = monitor.stats_snapshot();
    assert_eq!(snap.counters.broadcasts, 0);
    let counts = monitor.counts();
    assert_eq!(
        (counts.waiting, counts.signaled, counts.live_tags),
        (0, 0, 0),
        "clean shutdown"
    );
}

proptest! {
    // Thread-spawning cases are expensive; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_threshold_schedules_terminate_cleanly(
        adds in prop::collection::vec(1i64..=10, 1..8),
        demands in prop::collection::vec(0i64..=40, 1..8),
        mode in prop::sample::select(vec![
            SignalMode::Tagged,
            SignalMode::Untagged,
            SignalMode::ChangeDriven,
        ]),
        heap in any::<bool>(),
        validate in any::<bool>(),
    ) {
        let index = if heap {
            ThresholdIndexKind::PaperHeap
        } else {
            ThresholdIndexKind::OrderedMap
        };
        run_schedule(mode, index, validate, &adds, &demands);
    }

    #[test]
    fn randomized_equivalence_schedules_terminate_cleanly(
        seed_targets in prop::collection::vec(0i64..=6, 1..8),
        mode in prop::sample::select(vec![
            SignalMode::Tagged,
            SignalMode::Untagged,
            SignalMode::ChangeDriven,
        ]),
    ) {
        // Waiters on `level == k` for k in 0..=max; a driver keeps
        // cycling the level through every key until all waiters have
        // been released (each pass can release at least one waiter per
        // visited key, so the driver terminates).
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Pool { level: i64 }
        let config = MonitorConfig::new().mode(mode);
        let monitor = Arc::new(Monitor::with_config(Pool { level: -1 }, config));
        let level = monitor.register_expr("level", |p: &Pool| p.level);
        let max = *seed_targets.iter().max().expect("non-empty");
        let released = AtomicUsize::new(0);
        let waiters = seed_targets.len();

        std::thread::scope(|scope| {
            for &target in &seed_targets {
                let monitor = Arc::clone(&monitor);
                let released = &released;
                scope.spawn(move || {
                    monitor.enter(|g| g.wait_transient(level.eq(target)));
                    released.fetch_add(1, Ordering::SeqCst);
                });
            }
            let monitor = Arc::clone(&monitor);
            let released = &released;
            scope.spawn(move || {
                while released.load(Ordering::SeqCst) < waiters {
                    for step in 0..=max {
                        monitor.with(move |p| p.level = step);
                    }
                    std::thread::yield_now();
                }
            });
        });
        let counts = monitor.counts();
        prop_assert_eq!((counts.waiting, counts.signaled, counts.live_tags), (0, 0, 0));
        prop_assert_eq!(monitor.stats_snapshot().counters.broadcasts, 0);
    }
}
