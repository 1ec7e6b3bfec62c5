//! The paper's relay-cost claims (§4.3, Figs. 3–4) as exact counter laws.
//!
//! An equivalence-tagged relay costs one lookup plus the evaluation of
//! the hit, whatever the number of waiters; AutoSynch-T (`Untagged`)
//! scans every waiter. Both are pinned here on the eq ring (Fig. 11's
//! shape): `n` helpers park on `turn == i` and each, once woken, writes
//! `turn = i + 1`; one driver writes around them and then closes the
//! ring by writing `turn = 0` and waiting on `turn == n`.
//!
//! The script is driven by one thread in the style of
//! `tests/counter_totals.rs`: the driver parks each helper and waits
//! until it is blocked, and during the ring exactly one thread is
//! runnable inside the monitor at a time — so every count is
//! determined, and each phase's whole [`CounterSnapshot`] delta is
//! pinned, not bounded. A change that moves one of these numbers must
//! say why here, with the arithmetic.

use std::sync::Arc;
use std::thread::{self, JoinHandle};

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch_repro::autosynch::{Cond, Monitor};
use autosynch_repro::metrics::counters::CounterSnapshot;

/// The ring sizes every law is checked at.
const SIZES: [u64; 3] = [2, 8, 32];

/// Writes that make no waiter true, one occupancy each.
const MISSES: u64 = 4;

struct St {
    turn: Tracked<i64>,
}

impl TrackedState for St {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.turn);
    }
}

type M = Arc<Monitor<St>>;

/// Parks a helper on `cond`; once woken it writes `turn = next` inside
/// the same occupancy. Returns after the helper is blocked.
fn park(m: &M, cond: &Cond<St>, next: i64) -> JoinHandle<()> {
    let waits = m.stats().counters.snapshot().waits;
    let waiting = m.counts().waiting;
    let (monitor, cond) = (Arc::clone(m), cond.clone());
    let helper = thread::spawn(move || {
        monitor.enter_tracked(|g| {
            g.wait(&cond);
            *g.state_mut().turn = next;
        });
    });
    // The lock-free counter first, then the manager's count, which
    // queues on the mutex until the helper has blocked.
    while m.stats().counters.snapshot().waits == waits {
        thread::yield_now();
    }
    while m.counts().waiting == waiting {
        thread::yield_now();
    }
    helper
}

/// The counter deltas of the script's two measured phases.
struct Phases {
    /// [`MISSES`] writes while all `n` helpers are parked on false
    /// conditions.
    miss: CounterSnapshot,
    /// The driver's `turn = 0` through the last helper's hand-back.
    ring: CounterSnapshot,
}

fn script(mode: SignalMode, n: u64) -> Phases {
    let m: M = Arc::new(Monitor::with_config(
        St {
            turn: Tracked::new(-1),
        },
        MonitorConfig::preset(mode),
    ));
    let turn = m.register_expr("turn", |s: &St| *s.turn);
    m.bind(|s| &mut s.turn, &[turn]);
    let conds: Vec<_> = (0..=n as i64).map(|i| m.compile(turn.eq(i))).collect();
    let helpers: Vec<_> = (0..n as i64)
        .map(|i| park(&m, &conds[i as usize], i + 1))
        .collect();

    let parked = m.stats_snapshot().counters;
    for k in 0..MISSES as i64 {
        m.with_tracked(|s| *s.turn = -2 - k);
    }
    let missed = m.stats_snapshot().counters;

    m.enter_tracked(|g| {
        *g.state_mut().turn = 0;
        g.wait(&conds[n as usize]);
    });
    for helper in helpers {
        helper.join().unwrap();
    }
    assert!(m.is_quiescent());
    Phases {
        miss: missed.since(&parked),
        ring: m.stats_snapshot().counters.since(&missed),
    }
}

/// What every mode counts alike in the miss phase: [`MISSES`]
/// occupancies, each a named write of `turn` that owes exactly one
/// relay, none of which finds a true waiter. The all-parked helpers
/// keep the driver off the elided lane.
fn miss_common() -> CounterSnapshot {
    CounterSnapshot {
        enters: MISSES,
        named_mutations: MISSES,
        relay_calls: MISSES,
        ..CounterSnapshot::default()
    }
}

/// The tagged relay's laws, the same for `Tagged` and `ChangeDriven`.
///
/// Miss phase, per relay: 1 expression evaluation and 0 predicate
/// evaluations. `Tagged` evaluates `turn` once for its eq lookup; the
/// change-driven diff evaluates it once and the lookup reads the
/// snapshot. The written value keys no waiter, so no predicate runs.
///
/// Ring phase, with `ops = n + 1` writes of `turn` (the driver's and
/// each helper's), each in its own occupancy:
///
/// * `relay_calls = ops + 1`: one relay per op, where the occupancy
///   gives up the monitor (the driver's at its wait, each helper's at
///   its exit), plus the driver's closing exit, which owes one for the
///   signal it consumed;
/// * `relay_hits = signals = wakeups = ops`: each op's relay finds the
///   next waiter under the written value, and the last helper's finds
///   the driver's `turn == n`; the closing relay finds nobody;
/// * `expr_evals = ops`: 1 per hit relay (`turn`, as above); the closing
///   relay has no live tag and evaluates nothing;
/// * `pred_evals = 2 * ops + 1`: per hit, 1 by the relayer and 1 by the
///   woken waiter's re-check, plus the driver's own check on entry to
///   its wait;
/// * `enters = waits = tag_inserts = 1`: the driver's enter and its wait
///   (the helpers entered and registered before the phase);
///   `tag_removes = ops`: every woken waiter retires its entry;
///   `named_mutations = ops`.
///
/// So per op 1 relay, and per hit relay 1 expression and 1 predicate
/// evaluation, at every `n`.
fn tagged_law(n: u64) -> Phases {
    let ops = n + 1;
    Phases {
        miss: CounterSnapshot {
            expr_evals: MISSES,
            ..miss_common()
        },
        ring: CounterSnapshot {
            enters: 1,
            waits: 1,
            signals: ops,
            wakeups: ops,
            pred_evals: 2 * ops + 1,
            expr_evals: ops,
            tag_inserts: 1,
            tag_removes: ops,
            relay_calls: ops + 1,
            relay_hits: ops,
            named_mutations: ops,
            ..CounterSnapshot::default()
        },
    }
}

fn assert_tagged_law(mode: SignalMode) {
    for n in SIZES {
        let got = script(mode, n);
        let want = tagged_law(n);
        assert_eq!(got.miss, want.miss, "{mode:?} miss phase, n = {n}");
        assert_eq!(got.ring, want.ring, "{mode:?} ring phase, n = {n}");
    }
}

#[test]
fn tagged_eq_ring_costs_one_lookup_and_one_hit_at_every_size() {
    assert_tagged_law(SignalMode::Tagged);
}

/// Every write in the script changes `turn`, so the change-driven diff
/// skips nothing and its laws are the tagged ones exactly:
/// `relay_skips`, `probes_skipped` and `unchanged_exprs` stay 0.
#[test]
fn change_driven_eq_ring_costs_one_lookup_and_one_hit_at_every_size() {
    assert_tagged_law(SignalMode::ChangeDriven);
}

/// AutoSynch-T has no tags: an all-miss relay evaluates every parked
/// waiter's predicate once — exactly `n` per relay, `MISSES * n` in the
/// phase — and evaluates no shared expression on its own.
#[test]
fn untagged_all_miss_relay_evaluates_every_waiter() {
    for n in SIZES {
        let got = script(SignalMode::Untagged, n).miss;
        let want = CounterSnapshot {
            pred_evals: MISSES * n,
            ..miss_common()
        };
        assert_eq!(got, want, "Untagged miss phase, n = {n}");
    }
}
