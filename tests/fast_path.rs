//! Uncontended fast-path (CAS lock elision) and flat-combining relay
//! integration suite.
//!
//! The two-lane enter/exit protocol must be *observationally invisible*:
//! every workload reaches byte-identical outcomes with the fast path on
//! and off, across every signaling mode, with the relay-invariance
//! validator armed (which additionally audits every elided exit for a
//! stranded waiting-true predicate). On top of invisibility, the lanes
//! must actually engage: uncontended entries elide the mutex, and
//! contended `with` occupancies get adopted by the holder's combining
//! exit instead of convoying on the lock.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::Monitor;

struct Buf {
    level: i64,
    cap: i64,
    put: u64,
    taken: u64,
}

/// A producer/consumer schedule whose outcome is deterministic however
/// the scheduler interleaves it: fixed per-thread op counts conserve
/// items exactly. Returns `(put, taken, level)`.
fn buffer_outcome(mode: SignalMode, fast: bool) -> (u64, u64, i64) {
    const PAIRS: usize = 3;
    const OPS: usize = 150;
    let monitor = Arc::new(Monitor::with_config(
        Buf {
            level: 0,
            cap: 4,
            put: 0,
            taken: 0,
        },
        MonitorConfig::preset(mode)
            .fast_path(fast)
            .validate_relay(true),
    ));
    let level = monitor.register_expr("level", |b: &Buf| b.level);
    let free = monitor.register_expr("free", |b: &Buf| b.cap - b.level);

    std::thread::scope(|scope| {
        for _ in 0..PAIRS {
            let producer = Arc::clone(&monitor);
            scope.spawn(move || {
                let room = producer.compile(free.ge(1));
                for _ in 0..OPS {
                    producer.enter(|g| {
                        g.wait(&room);
                        let s = g.state_mut();
                        s.level += 1;
                        s.put += 1;
                    });
                }
            });
            let consumer = Arc::clone(&monitor);
            scope.spawn(move || {
                let stocked = consumer.compile(level.ge(1));
                for _ in 0..OPS {
                    consumer.enter(|g| {
                        g.wait(&stocked);
                        let s = g.state_mut();
                        s.level -= 1;
                        s.taken += 1;
                    });
                }
            });
        }
        // Interleave whole-occupancy `with` mutations so elided and
        // combined occupancies race the waiters' slow lane too.
        let pulse = Arc::clone(&monitor);
        scope.spawn(move || {
            for _ in 0..200 {
                pulse.with(|s| s.put += 0);
            }
        });
    });

    let outcome = monitor.with(|s| (s.put, s.taken, s.level));
    assert!(monitor.is_quiescent(), "leaked waiters or signals");
    assert_eq!(monitor.stats_snapshot().counters.broadcasts, 0);
    outcome
}

#[test]
fn outcomes_are_identical_with_and_without_the_fast_path() {
    for mode in [
        SignalMode::Tagged,
        SignalMode::Untagged,
        SignalMode::ChangeDriven,
        SignalMode::Routed,
    ] {
        let fast = buffer_outcome(mode, true);
        let slow = buffer_outcome(mode, false);
        assert_eq!(
            fast, slow,
            "{mode:?}: fast-path outcome diverged from the mutex-only ablation"
        );
        assert_eq!(fast, (450, 450, 0), "{mode:?}: items not conserved");
    }
}

#[test]
fn uncontended_withs_elide_the_mutex() {
    struct V {
        value: i64,
    }
    let m = Monitor::new(V { value: 0 });
    let _ = m.register_expr("value", |s: &V| s.value);
    for _ in 0..100 {
        m.with(|s| s.value += 1);
    }
    assert_eq!(m.with(|s| s.value), 100);
    let c = m.stats_snapshot().counters;
    assert!(
        c.fast_path_enters >= 100,
        "single-threaded withs must take the CAS lane, got {} of {} enters",
        c.fast_path_enters,
        c.enters,
    );
    assert_eq!(c.fc_publishes, 0, "nothing to combine without contention");
    assert_eq!(c.signals, 0);
}

#[test]
fn contended_withs_are_combined_by_the_occupants_exit() {
    // One occupant holds the monitor while four `with` callers publish
    // their occupancies into the combining slab; the occupant's exit
    // must adopt them (one relay pass for the lot), and every increment
    // must land exactly once whichever lane ran it.
    const PUBLISHERS: i64 = 4;
    struct V {
        value: i64,
    }
    let m = Arc::new(Monitor::with_config(
        V { value: 0 },
        MonitorConfig::default().validate_relay(true),
    ));
    let _ = m.register_expr("value", |s: &V| s.value);

    std::thread::scope(|scope| {
        let holder = Arc::clone(&m);
        let inner_m = Arc::clone(&m);
        scope.spawn(move || {
            holder.enter(|g| {
                assert_eq!(g.state().value, 0, "the holder entered first");
                // Hold the occupancy until all four publications are
                // visible (the counter is cumulative and monotone), so
                // the exit below deterministically has ops to adopt.
                let deadline = Instant::now() + Duration::from_secs(10);
                while inner_m.stats_snapshot().counters.fc_publishes < PUBLISHERS as u64 {
                    assert!(
                        Instant::now() < deadline,
                        "contended withs never reached the publication slab"
                    );
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        });
        // Give the holder a head start so the CAS lane is taken.
        std::thread::sleep(Duration::from_millis(10));
        for k in 1..=PUBLISHERS {
            let m = Arc::clone(&m);
            scope.spawn(move || {
                m.with(move |s| s.value += k);
            });
        }
    });

    assert_eq!(
        m.with(|s| s.value),
        (1..=PUBLISHERS).sum::<i64>(),
        "combined and withdrawn occupancies must each run exactly once"
    );
    let c = m.stats_snapshot().counters;
    assert!(
        c.fc_publishes >= PUBLISHERS as u64,
        "every contended with must have published, got {}",
        c.fc_publishes
    );
    assert!(
        c.combined_exits >= 1,
        "the holder's exit must have adopted published ops ({c:?})"
    );
    assert!(m.is_quiescent());
}

#[test]
fn elided_occupancies_still_wake_later_slow_waiters() {
    // An elided mutation leaves no waiters behind by protocol (presence
    // was zero), but its effects must be visible to the next slow-path
    // relay: a waiter arriving after elided increments must see their
    // sum and wake on the next mutation.
    struct V {
        value: i64,
    }
    let m = Arc::new(Monitor::with_config(
        V { value: 0 },
        MonitorConfig::default().validate_relay(true),
    ));
    let value = m.register_expr("value", |s: &V| s.value);
    for _ in 0..10 {
        m.with(|s| s.value += 1); // all elided: no waiters exist yet
    }
    std::thread::scope(|scope| {
        let waiter = Arc::clone(&m);
        let h = scope.spawn(move || {
            waiter.enter(|g| {
                g.wait_transient(value.ge(11));
                g.state().value
            })
        });
        std::thread::sleep(Duration::from_millis(20));
        m.with(|s| s.value += 1); // slow or elided; either must relay/route
        assert!(h.join().unwrap() >= 11);
    });
    assert!(m.is_quiescent());
    assert!(m.stats_snapshot().counters.fast_path_enters >= 10);
}
