//! Edge-case integration tests for the monitor runtime: one signal per
//! relay, panic safety across all three monitor types, mixed tag classes under
//! one roof, and expression registration after startup.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use autosynch::baseline::BaselineMonitor;
use autosynch::config::MonitorConfig;
use autosynch::explicit::ExplicitMonitor;
use autosynch::monitor::Monitor;

struct Counter {
    value: i64,
}

#[test]
fn relay_width_one_is_strictly_sequential() {
    // Two waiters on thresholds that one update satisfies at once. The
    // paper's relay signals one thread per call: the first relay wakes
    // one; the second waiter is woken by the first one's exit relay.
    let monitor = Arc::new(Monitor::new(Counter { value: 0 }));
    let value = monitor.register_expr("value", |s| s.value);
    let handles: Vec<_> = [5i64, 7]
        .into_iter()
        .map(|k| {
            let monitor = Arc::clone(&monitor);
            thread::spawn(move || {
                monitor.enter(|g| g.wait_transient(value.ge(k)));
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(30));
    monitor.with(|s| s.value = 10);
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = monitor.stats_snapshot();
    assert_eq!(snap.counters.signals, 2);
    assert!(snap.counters.relay_hits >= 2, "two separate relay hits");
}

#[test]
fn explicit_monitor_panic_releases_lock() {
    let monitor = Arc::new(ExplicitMonitor::new(0i64));
    let m2 = Arc::clone(&monitor);
    let panicker = thread::spawn(move || {
        m2.enter(|g| {
            *g.state_mut() = 1;
            panic!("boom");
        });
    });
    assert!(panicker.join().is_err());
    // The lock must be free again.
    assert_eq!(monitor.enter(|g| *g.state()), 1);
}

#[test]
fn baseline_monitor_panic_still_broadcasts_dirty_state() {
    let monitor = Arc::new(BaselineMonitor::new(0i64));
    let m2 = Arc::clone(&monitor);
    let waiter = thread::spawn(move || {
        m2.enter(|g| g.wait_until(|v| *v > 0));
    });
    thread::sleep(Duration::from_millis(20));
    let m3 = Arc::clone(&monitor);
    let panicker = thread::spawn(move || {
        m3.enter(|g| {
            *g.state_mut() = 1;
            panic!("boom");
        });
    });
    assert!(panicker.join().is_err());
    // The waiter must still be released by the exit broadcast of the
    // panicking occupant.
    waiter.join().unwrap();
}

#[test]
fn mixed_tag_classes_in_one_monitor() {
    // Equivalence, threshold-min, threshold-max, not-equal (None tag)
    // and a custom closure all waiting simultaneously; one driver walks
    // the value so each becomes true at a different moment.
    use autosynch::{IntoPredicate, Predicate};
    let monitor = Arc::new(Monitor::new(Counter { value: 100 }));
    let value = monitor.register_expr("value", |s| s.value);
    let released = Arc::new(AtomicUsize::new(0));

    let preds: Vec<Predicate<Counter>> = vec![
        value.eq(42).into_predicate(),
        value.ge(90).into_predicate(),
        value.le(10).into_predicate(),
        value.ne(100).into_predicate(),
        Predicate::custom("divisible-by-7", |s: &Counter| {
            s.value != 100 && s.value % 7 == 0
        }),
    ];

    let handles: Vec<_> = preds
        .into_iter()
        .map(|pred| {
            let monitor = Arc::clone(&monitor);
            let released = Arc::clone(&released);
            thread::spawn(move || {
                monitor.enter(|g| g.wait_transient(pred));
                released.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(30));

    // Walk: 91 (≥90), 42 (==42, ≠100, %7), 7 (...), 3 (≤10).
    for v in [91i64, 42, 7, 3] {
        monitor.with(move |s| s.value = v);
        thread::sleep(Duration::from_millis(10));
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while released.load(Ordering::SeqCst) < 5 && Instant::now() < deadline {
        monitor.with(|s| s.value = if s.value == 3 { 42 } else { 3 });
        thread::sleep(Duration::from_millis(2));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(monitor.stats_snapshot().counters.broadcasts, 0);
}

#[test]
fn expressions_can_be_registered_while_running() {
    let monitor = Arc::new(Monitor::new(Counter { value: 0 }));
    let first = monitor.register_expr("value", |s| s.value);
    let m2 = Arc::clone(&monitor);
    let waiter = thread::spawn(move || {
        m2.enter(|g| g.wait_transient(first.ge(1)));
    });
    thread::sleep(Duration::from_millis(10));
    // Late registration must not disturb the running waiter.
    let doubled = monitor.register_expr("value*2", |s| s.value * 2);
    let m3 = Arc::clone(&monitor);
    let second = thread::spawn(move || {
        m3.enter(|g| g.wait_transient(doubled.ge(4)));
    });
    thread::sleep(Duration::from_millis(10));
    monitor.with(|s| s.value = 2);
    waiter.join().unwrap();
    second.join().unwrap();
}

#[test]
fn wait_transient_timeout_zero_is_a_nonblocking_check() {
    let monitor = Monitor::new(Counter { value: 0 });
    let value = monitor.register_expr("value", |s| s.value);
    let start = Instant::now();
    let ok = monitor.enter(|g| g.wait_transient_timeout(value.ge(1), Duration::ZERO));
    assert!(!ok);
    assert!(start.elapsed() < Duration::from_secs(1));
    monitor.with(|s| s.value = 1);
    assert!(monitor.enter(|g| g.wait_transient_timeout(value.ge(1), Duration::ZERO)));
}

/// An occupancy that consumed a relay signal but never mutated must
/// still relay on exit. The consumed signal is the relay baton;
/// absorbing it would strand the second waiter below even though its
/// predicate is true.
#[test]
fn signaled_reader_passes_the_baton() {
    let monitor = Arc::new(Monitor::new(Counter { value: 0 }));
    let value = monitor.register_expr("value", |s| s.value);

    // Two distinct threshold predicates, both satisfied by one write.
    let handles: Vec<_> = [5i64, 7]
        .into_iter()
        .map(|k| {
            let monitor = Arc::clone(&monitor);
            thread::spawn(move || {
                // Pure readers: wait, observe, exit without state_mut.
                monitor.enter(|g| {
                    g.wait_transient(value.ge(k));
                    assert!(g.state().value >= k);
                });
            })
        })
        .collect();

    // Both must be parked before the single dirty exit relays.
    let deadline = Instant::now() + Duration::from_secs(10);
    while monitor.counts().waiting < 2 {
        assert!(Instant::now() < deadline, "waiters failed to park");
        thread::sleep(Duration::from_millis(1));
    }

    // One mutating exit relays to exactly one waiter (width 1). The
    // woken reader exits cleanly; its exit must wake the other.
    monitor.with(|s| s.value = 10);

    let deadline = Instant::now() + Duration::from_secs(10);
    for handle in handles {
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "reader stranded: consumed signal was not relayed on clean exit"
            );
            thread::sleep(Duration::from_millis(2));
        }
        handle.join().unwrap();
    }
}

/// The complementary check: an occupancy that neither mutated nor
/// consumed a signal owes no relay and runs none, while one that called
/// `state_mut` does.
#[test]
fn unsignaled_reader_skips_relay() {
    // fast_path(false) pins the slow (mutex) lane: this test asserts
    // relay policy on slow-path exits, and an elided uncontended enter
    // would legitimately skip the relay either way.
    let monitor = Monitor::with_config(Counter { value: 0 }, MonitorConfig::new().fast_path(false));
    let relay_calls = || monitor.stats_snapshot().counters.relay_calls;
    let before = relay_calls();
    monitor.enter(|g| {
        assert_eq!(g.state().value, 0);
    });
    assert_eq!(relay_calls(), before);
    monitor.enter(|g| {
        g.state_mut().value = 1;
    });
    assert_eq!(relay_calls(), before + 1);
}

#[test]
fn hundreds_of_sequential_waits_do_not_leak_entries() {
    let config = MonitorConfig::new().inactive_cap(16);
    let monitor = Arc::new(Monitor::with_config(Counter { value: 0 }, config));
    let value = monitor.register_expr("value", |s| s.value);
    for round in 0..300i64 {
        let m2 = Arc::clone(&monitor);
        let waiter = thread::spawn(move || {
            m2.enter(|g| g.wait_transient(value.ge(round + 1)));
        });
        monitor.with(move |s| s.value = round + 1);
        waiter.join().unwrap();
    }
    let counts = monitor.counts();
    assert_eq!(
        (counts.waiting, counts.signaled, counts.live_tags),
        (0, 0, 0)
    );
    assert!(
        counts.entries <= 17,
        "inactive cap must bound entries, got {}",
        counts.entries
    );
}
