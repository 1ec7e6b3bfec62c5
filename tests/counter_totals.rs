//! Counter totals are part of the contract.
//!
//! An occupancy counts in plain integers and flushes them to the shared
//! counters where it gives up the monitor's exclusion. That may change
//! *when* a count lands, never what it totals: one scripted run per mode,
//! and the whole [`CounterSnapshot`] must equal the values read from the
//! per-event (`fetch_add(1)` per candidate) implementation — less
//! exactly what the relay passes that are no longer run used to count
//! (see [`VOID_PASSES`]); every other field is byte-identical.
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

/// The relay passes of the script that the per-event implementation ran
/// and that are not run any more, because the occupancy owed none — it
/// had neither mutated the state nor consumed a signal:
///
/// * 7 around the timed waits that miss: the exit after each of the five
///   occupancies (a timeout leaves nothing owed), the clean occupancy's
///   going-to-wait pass, and the pass before the *second* wait of the
///   hand-named occupancy (its first wait's relay had settled the write);
/// * 4 + 4 + 2 going-to-wait passes of the parking helpers (`park`): each
///   enters, finds its condition false and blocks;
/// * 5 exits of the bystander rounds' `m.enter(|_| {})`.
const VOID_PASSES: u64 = 7 + 4 + 4 + 2 + 5;

/// What both modes count alike: the script's occupancies, waits and
/// hits. `fc_publishes` is the one total that moved on purpose in PR 12:
/// the per-event implementation read 37 here, because every `with` that
/// found waiters parked published its occupancy to a combiner that did
/// not exist and withdrew it again; such a caller now takes the slow
/// lane directly. `relay_calls` read 79 with the void passes.
fn common() -> CounterSnapshot {
    CounterSnapshot {
        enters: 67,
        waits: 16,
        signals: 10,
        wakeups: 16,
        timeouts: 6,
        tag_inserts: 18,
        tag_removes: 18,
        relay_calls: 79 - VOID_PASSES,
        relay_hits: 10,
        named_mutations: 38,
        fast_path_enters: 11,
        fc_publishes: 0,
        ..CounterSnapshot::default()
    }
}

/// A void pass of the tagged relay still searched: it evaluated every
/// expression with a live tag once and every candidate a true tag (or no
/// tag) led to. Per void pass, as (expression, predicate) evaluations:
///
/// * timed waits — only the blocker itself is registered: the closure
///   waiter probes itself (0, 1), the `x == 5 && y >= 3` waiter reads
///   `x` and finds no candidate (1, 0), the five exits find nobody;
/// * chain helpers, parking one after another on `x == 5`, `y >= 10`,
///   the closure, `x == 5 && y >= 3`: (1, 0), (2, 0), (2, 1), (2, 1);
/// * bystanders, on `x == 7`, `y < 0`, the closure, `x == 9 || y >= 100`:
///   (1, 0), (2, 0), (2, 1), (2, 1);
/// * the five clean exits past them: (2, 1) each — `x`, `y`, the closure;
/// * the last two helpers park while `x == 7` and then `y >= 0` are true
///   tags over false conjunctions: (2, 2), then (2, 3).
const VOID_TAGGED_EXPR_EVALS: u64 = 1 + (1 + 2 + 2 + 2) + (1 + 2 + 2 + 2) + 5 * 2 + (2 + 2);
const VOID_TAGGED_PRED_EVALS: u64 = 1 + (1 + 1) + (1 + 1) + 5 + (2 + 3);

#[test]
fn tagged_totals_match_the_per_event_counts() {
    let expected = CounterSnapshot {
        pred_evals: 112 - VOID_TAGGED_PRED_EVALS,
        expr_evals: 129 - VOID_TAGGED_EXPR_EVALS,
        ..common()
    };
    assert_eq!(script(SignalMode::Tagged), expected);
}

/// The change-driven relay already skipped every one of the void passes
/// in the manager (unmutated state, every waiter known false), counting
/// a `relay_skip` and evaluating nothing: its skips fall by exactly the
/// void passes — to none — and its evaluation counts do not move.
#[test]
fn change_driven_totals_match_the_per_event_counts() {
    let expected = CounterSnapshot {
        pred_evals: 88,
        expr_evals: 69,
        relay_skips: 22 - VOID_PASSES,
        probes_skipped: 9,
        unchanged_exprs: 78,
        ..common()
    };
    assert_eq!(script(SignalMode::ChangeDriven), expected);
}
