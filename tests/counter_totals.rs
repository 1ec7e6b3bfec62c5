//! Counter totals are part of the contract.
//!
//! The relay tallies its per-candidate counts in plain integers and adds
//! them to the shared counters once per pass. That may change *when* a
//! count lands, never what it totals: one scripted run per mode, and the
//! whole [`CounterSnapshot`] must equal the values read from the
//! per-event (`fetch_add(1)` per candidate) implementation.
//!
//! The script is driven by one thread. Where a relay *hit* needs someone
//! to signal, helper threads park on a condition first; the driver waits
//! until they are blocked, and after a hit touches the monitor again only
//! once the woken chain has been joined — so exactly one thread is ever
//! runnable inside the monitor and every count is determined.

use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch_repro::autosynch::{Cond, Monitor};
use autosynch_repro::metrics::counters::CounterSnapshot;

struct St {
    x: Tracked<i64>,
    y: Tracked<i64>,
    z: Tracked<i64>,
    /// Bound to no expression: a write is a blanket mutation.
    unbound: Tracked<i64>,
    /// Outside every cell: reachable only through blanket `with`/`enter`.
    plain: i64,
}

impl TrackedState for St {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.x);
        f(&mut self.y);
        f(&mut self.z);
        f(&mut self.unbound);
    }
}

type M = Arc<Monitor<St>>;

const MISS: Duration = Duration::from_millis(3);

/// Parks a helper on `cond`; once woken it runs `then` inside the same
/// occupancy. Returns after the helper is blocked.
fn park(m: &M, cond: &Cond<St>, then: fn(&mut St)) -> JoinHandle<()> {
    let waits = m.stats().counters.snapshot().waits;
    let waiting = m.counts().waiting;
    let (monitor, cond) = (Arc::clone(m), cond.clone());
    let helper = thread::spawn(move || {
        monitor.enter_tracked(|g| {
            g.wait(&cond);
            then(g.state_mut());
        });
    });
    // First the lock-free counter (the helper is past its enter, so the
    // poll below cannot push it off the elided lane), then the manager's
    // own count, which queues on the mutex until the helper has blocked.
    while m.stats().counters.snapshot().waits == waits {
        thread::yield_now();
    }
    while m.counts().waiting == waiting {
        thread::yield_now();
    }
    helper
}

fn script(mode: SignalMode) -> CounterSnapshot {
    let m: M = Arc::new(Monitor::with_config(
        St {
            x: Tracked::new(0),
            y: Tracked::new(0),
            z: Tracked::new(0),
            unbound: Tracked::new(0),
            plain: 0,
        },
        MonitorConfig::preset(mode),
    ));

    // Register and compile.
    let x = m.register_expr("x", |s: &St| *s.x);
    let y = m.register_expr("y", |s: &St| *s.y);
    let z = m.register_expr("z", |s: &St| *s.z);
    m.bind(|s| &mut s.x, &[x]);
    m.bind(|s| &mut s.y, &[y]);
    m.bind(|s| &mut s.z, &[z]);
    let x_is_5 = m.compile(x.eq(5));
    let x_is_7 = m.compile(x.eq(7));
    let y_ge_10 = m.compile(y.ge(10));
    let y_lt_0 = m.compile(y.lt(0));
    let x5_and_y3 = m.compile(x.eq(5).and(y.ge(3)));
    let x9_or_y100 = m.compile(x.eq(9).or(y.ge(100)));
    let x7_and_y50 = m.compile(x.eq(7).and(y.ge(50)));
    let y0_and_zneg = m.compile(y.ge(0).and(z.lt(0)));
    let z_sevens = m.compile(|s: &St| *s.z > 0 && *s.z % 7 == 0);
    let z_big = m.compile(|s: &St| *s.z > 1000);
    assert_eq!(m.compile(x.eq(5)).slot(), x_is_5.slot(), "interned");

    // Nobody waits: elided occupancies, named and blanket.
    m.with_tracked(|s| *s.x = 1);
    m.with(|s| s.plain += 1);
    m.enter(|g| assert!(g.holds(x.ge(1))));
    let x_is_1 = m.compile(x.eq(1));
    m.enter_tracked(|g| g.wait(&x_is_1)); // true at entry

    // Timed waits that miss, behind every kind of mutation.
    m.enter_tracked(|g| {
        *g.state_mut().y = 2; // named
        assert!(!g.wait_timeout(&x_is_5, MISS));
    });
    m.enter(|g| {
        g.state_mut().plain += 1; // blanket
        assert!(!g.wait_timeout(&y_ge_10, MISS));
    });
    m.enter_tracked(|g| assert!(!g.wait_timeout(&z_sevens, MISS))); // clean
    m.enter_tracked(|g| {
        *g.state_mut().unbound = 1; // unbound cell: blanket
        assert!(!g.wait_transient_timeout(x.eq(11), MISS));
    });
    m.enter(|g| {
        *g.state_mut_touching(&[z.id()]).z = 3; // named by hand
        assert!(!g.wait_timeout(&x9_or_y100, MISS));
        assert!(!g.wait_timeout(&x5_and_y3, MISS));
    });

    // A relay chain: every exit hits the next waiter.
    //   x = 5 wakes `x == 5`, which sets y = 10;
    //   that wakes `x == 5 && y >= 3`, which sets z = 14;
    //   that exit finds `y >= 10`, whose clean exit finds the closure.
    let chain = [
        park(&m, &x_is_5, |s| *s.y = 10),
        park(&m, &y_ge_10, |_| {}),
        park(&m, &z_sevens, |_| {}),
        park(&m, &x5_and_y3, |s| *s.z = 14),
    ];
    m.with_tracked(|s| *s.x = 5);
    for helper in chain {
        helper.join().unwrap();
    }
    assert!(m.is_quiescent());

    // Bystanders: parked waiters whose conditions stay false while the
    // driver writes around them — every probe misses.
    let bystanders = [
        park(&m, &x_is_7, |_| {}),
        park(&m, &y_lt_0, |_| {}),
        park(&m, &z_big, |_| {}),
        park(&m, &x9_or_y100, |_| {}),
    ];
    for round in 0..5 {
        m.with_tracked(|s| *s.x = 20 + round);
        m.with_tracked(|s| *s.y = 30 + round);
        m.with_tracked(|s| *s.z = 40 + round);
        m.with_tracked(|s| *s.unbound += 1);
        m.with(|s| s.plain += 1);
        m.enter(|_| {}); // clean exit
        m.enter_tracked(|g| {
            let s = g.state_mut();
            *s.x += 100;
            *s.y += 10;
        });
    }
    // Release them one exit at a time.
    let [b_x, b_y, b_z, b_or] = bystanders;
    m.with_tracked(|s| *s.x = 7);
    b_x.join().unwrap();
    // Tags that are true over conjunctions that are not: the tagged
    // probe evaluates them on every exit, the change-driven one skips
    // them while none of their inputs moved.
    let b_and = park(&m, &x7_and_y50, |_| {});
    let b_thr = park(&m, &y0_and_zneg, |_| {});
    for round in 0..3 {
        m.with_tracked(|s| *s.z = 50 + round);
        m.with_tracked(|s| *s.x = 7); // written, not changed
    }
    m.with_tracked(|s| *s.y = 50);
    b_and.join().unwrap();
    m.with_tracked(|s| *s.z = -1);
    b_thr.join().unwrap();
    m.enter_tracked(|g| *g.state_mut().y = -1);
    b_y.join().unwrap();
    m.with_tracked(|s| *s.z = 1001);
    b_z.join().unwrap();
    m.with_tracked(|s| *s.y = 100);
    b_or.join().unwrap();
    assert!(m.is_quiescent());

    m.stats_snapshot().counters
}

/// What both modes count alike: the script's occupancies, waits and
/// hits. `fc_publishes` is the one total that moved on purpose: the
/// per-event implementation read 37 here, because every `with` that
/// found waiters parked published its occupancy to a combiner that did
/// not exist and withdrew it again; such a caller now takes the slow
/// lane directly.
fn common() -> CounterSnapshot {
    CounterSnapshot {
        enters: 67,
        waits: 16,
        signals: 10,
        wakeups: 16,
        timeouts: 6,
        tag_inserts: 18,
        tag_removes: 18,
        relay_calls: 79,
        relay_hits: 10,
        named_mutations: 38,
        fast_path_enters: 11,
        fc_publishes: 0,
        ..CounterSnapshot::default()
    }
}

#[test]
fn tagged_totals_match_the_per_event_counts() {
    let expected = CounterSnapshot {
        pred_evals: 112,
        expr_evals: 129,
        ..common()
    };
    assert_eq!(script(SignalMode::Tagged), expected);
}

#[test]
fn change_driven_totals_match_the_per_event_counts() {
    let expected = CounterSnapshot {
        pred_evals: 88,
        expr_evals: 69,
        relay_skips: 22,
        probes_skipped: 9,
        unchanged_exprs: 78,
        ..common()
    };
    assert_eq!(script(SignalMode::ChangeDriven), expected);
}
