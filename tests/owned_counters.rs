//! Owned counters lose no update.
//!
//! An automatic-signal monitor counts what happens under its exclusion in
//! plain integers and flushes them with a load and a store
//! (`SyncCounters::flush`). That is exact only while every write to such a
//! field goes through the flush, under the exclusion: a `fetch_add` left
//! on an owned field, or a flush from a thread that does not hold the
//! monitor, silently drops counts under contention. Here eight workers and
//! a pump hammer one monitor with every kind of occupancy, each thread
//! keeps its own plain count of what it did, and at quiescence the shared
//! totals must match to the unit.
//!
//! Three kinds of ground truth, none of which reads the counters:
//!
//! * per-thread sums — `enters`, `named_mutations`, `waits` (a `holds`
//!   in the same occupancy says whether the wait will block), `timeouts`
//!   (a timed wait that returns `false`);
//! * identities — every return from a block is a wakeup, followed by the
//!   wait's end or one futile re-block, so `wakeups == waits +
//!   futile_wakeups`; tags go in and out in pairs;
//! * closure calls — every condition here is one atom over one shared
//!   expression (or one closure), and both bump a test-side counter when
//!   called: each counted predicate evaluation and each counted expression
//!   evaluation is exactly one such call, on the wait path and in the
//!   relay alike, so `pred_evals + expr_evals` equals the number of calls.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch_repro::autosynch::{Cond, Monitor};

struct St {
    x: Tracked<i64>,
}

impl TrackedState for St {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.x);
    }
}

/// What one thread did, counted by the thread itself.
#[derive(Default)]
struct Mine {
    enters: u64,
    named_mutations: u64,
    waits: u64,
    timeouts: u64,
}

const WORKERS: usize = 8;
const ROUNDS: usize = 600;
const RESIDUES: i64 = 4;
const PATIENCE: Duration = Duration::from_millis(2);

fn stress(mode: SignalMode) {
    let calls = Arc::new(AtomicU64::new(0));
    let m = Arc::new(Monitor::with_config(
        St { x: Tracked::new(0) },
        MonitorConfig::preset(mode),
    ));
    let x = {
        let calls = Arc::clone(&calls);
        m.register_expr("x", move |s: &St| {
            calls.fetch_add(1, Ordering::Relaxed);
            *s.x
        })
    };
    let x_mod = {
        let calls = Arc::clone(&calls);
        m.register_expr("x mod", move |s: &St| {
            calls.fetch_add(1, Ordering::Relaxed);
            *s.x % RESIDUES
        })
    };
    m.bind(|s| &mut s.x, &[x, x_mod]);
    let residue_is: Vec<Cond<St>> = (0..RESIDUES).map(|r| m.compile(x_mod.eq(r))).collect();
    let divides = |calls: &Arc<AtomicU64>| {
        let calls = Arc::clone(calls);
        move |s: &St| {
            calls.fetch_add(1, Ordering::Relaxed);
            *s.x % 3 == 0
        }
    };
    let by_three = m.compile(divides(&calls));

    // The pump keeps `x` rising until every worker is done, so an untimed
    // wait for a larger `x` always ends.
    let done = Arc::new(AtomicBool::new(false));
    let pump = {
        let (m, done) = (Arc::clone(&m), Arc::clone(&done));
        thread::spawn(move || {
            let mut mine = Mine::default();
            while !done.load(Ordering::Relaxed) {
                m.with_tracked(|s| *s.x += 1);
                mine.enters += 1;
                mine.named_mutations += 1;
                thread::yield_now();
            }
            mine
        })
    };
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let m = Arc::clone(&m);
            let residue_is = residue_is.clone();
            let by_three = by_three.clone();
            let divides = divides(&calls);
            thread::spawn(move || {
                let mut mine = Mine::default();
                for round in 0..ROUNDS {
                    mine.enters += 1;
                    match (round + w) % 6 {
                        0 => {
                            m.with_tracked(|s| *s.x += 1);
                            mine.named_mutations += 1;
                        }
                        1 => m.enter(|g| {
                            let _ = *g.state().x;
                        }),
                        // A compiled threshold, untimed: the pump gets there.
                        2 => {
                            let seen = m.enter(|g| *g.state().x);
                            mine.enters += 1;
                            let further = m.compile(x.ge(seen + 2));
                            m.enter_tracked(|g| {
                                mine.waits += u64::from(!g.holds(x.ge(seen + 2)));
                                g.wait(&further);
                            });
                        }
                        // A compiled equivalence, timed: true one write in
                        // `RESIDUES`, and gone again by the time a woken
                        // waiter is back inside, as often as not.
                        3 => {
                            let r = (round as i64) % RESIDUES;
                            m.enter_tracked(|g| {
                                mine.waits += u64::from(!g.holds(x_mod.eq(r)));
                                let held = g.wait_timeout(&residue_is[r as usize], PATIENCE);
                                mine.timeouts += u64::from(!held);
                            });
                        }
                        // The same, transient, after a write of its own.
                        4 => {
                            let r = (round as i64 + 1) % RESIDUES;
                            m.enter_tracked(|g| {
                                *g.state_mut().x += 1;
                                mine.waits += u64::from(!g.holds(x_mod.eq(r)));
                                let held = g.wait_transient_timeout(x_mod.eq(r), PATIENCE);
                                mine.timeouts += u64::from(!held);
                            });
                            mine.named_mutations += 1;
                        }
                        // A compiled closure, timed.
                        _ => m.enter(|g| {
                            mine.waits += u64::from(!g.holds(divides.clone()));
                            let held = g.wait_timeout(&by_three, PATIENCE);
                            mine.timeouts += u64::from(!held);
                        }),
                    }
                }
                mine
            })
        })
        .collect();

    let mut sum = Mine::default();
    let mut add = |mine: Mine| {
        sum.enters += mine.enters;
        sum.named_mutations += mine.named_mutations;
        sum.waits += mine.waits;
        sum.timeouts += mine.timeouts;
    };
    for worker in workers {
        add(worker.join().unwrap());
    }
    done.store(true, Ordering::Relaxed);
    add(pump.join().unwrap());

    assert!(m.is_quiescent());
    let c = m.stats_snapshot().counters;
    assert!(c.waits > 0 && c.signals > 0, "the mix blocked nobody: {c}");
    assert_eq!(
        (c.enters, c.named_mutations, c.waits, c.timeouts),
        (sum.enters, sum.named_mutations, sum.waits, sum.timeouts),
        "{mode:?}: per-thread sums"
    );
    assert_eq!(c.wakeups, c.waits + c.futile_wakeups, "{mode:?}: {c}");
    assert_eq!(c.tag_inserts, c.tag_removes, "{mode:?}");
    assert_eq!(
        c.pred_evals + c.expr_evals,
        calls.load(Ordering::Relaxed),
        "{mode:?}: every counted evaluation is one closure call"
    );
}

#[test]
fn tagged_owned_counters_match_what_the_threads_did() {
    stress(SignalMode::Tagged);
}

#[test]
fn change_driven_owned_counters_match_what_the_threads_did() {
    stress(SignalMode::ChangeDriven);
}

/// `SyncCounters` keeps six per-event `record_*` methods that `fetch_add`
/// on owned fields, for the explicit-signal mechanisms (explicit,
/// baseline, Kessels), which keep no tally and own their counters
/// outright. A call to one of them from the automatic monitor's side
/// would mix the two kinds of write on one field and lose updates only
/// under contention, so the rule is checked where it can be checked
/// exactly: in the source.
#[test]
fn the_automatic_monitor_never_bumps_an_owned_counter_per_event() {
    const PER_EVENT: [&str; 6] = [
        "record_wait(",
        "record_signal(",
        "record_futile_wakeup(",
        "record_timeout(",
        "record_pred_eval(",
        "record_relay_call(",
    ];
    // The explicit-signal mechanisms, and the stats module all mechanisms
    // share (its unit tests drive a bare `MonitorStats`).
    const EXEMPT: [&str; 4] = ["explicit.rs", "baseline.rs", "kessels.rs", "stats.rs"];

    fn scan(dir: &std::path::Path, top: bool, scanned: &mut usize) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            if path.is_dir() {
                scan(&path, false, scanned);
            } else if name.ends_with(".rs") && !(top && EXEMPT.contains(&name.as_str())) {
                let source = std::fs::read_to_string(&path).unwrap();
                for method in PER_EVENT {
                    assert!(
                        !source.contains(method),
                        "{} calls SyncCounters::{method}..): count it in the occupancy tally instead",
                        path.display(),
                    );
                }
                *scanned += 1;
            }
        }
    }
    let mut scanned = 0;
    let core = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    scan(&core, true, &mut scanned);
    assert!(
        scanned > 20,
        "scanned only {scanned} files under {}",
        core.display()
    );
}
