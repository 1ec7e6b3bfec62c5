//! The wake storm on targeted wake routing — gate broadcasts vs
//! eq-directed unparks, side by side, both under `SignalMode::Routed`.
//!
//! `K` independent round-robin channels live in one `Monitor`; waiter
//! `j` of channel `k` blocks until `chan_k == j` and then advances the
//! channel. All channels progress out of phase. Written as opaque
//! closures, the conditions have no analyzable dependencies, so they
//! park on the global gate and every advance broadcasts it: the `N - 1`
//! wrong-turn waiters of the advanced channel *and* every waiter of the
//! other channels all wake, cannot decide the closure from the
//! snapshot ring, confirm under the monitor lock, and go back to sleep
//! — the `O(K · N)` herd.
//!
//! Compiled as the equivalence predicate `chan_k == j`, the same
//! workload rides the eq-route index: the relay maps each freshly
//! published `chan_k` value straight to the one compiled condition
//! whose waiter can proceed, and unparks only that bucket. The printout
//! compares the two runs' `unparks`, `waiter_self_checks` and
//! `futile_wakeups` at identical workload outcomes.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example wake_storm
//! ```

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch_repro::autosynch::Monitor;

const CHANNELS: usize = 6;
const WAITERS: usize = 6;
const ROUNDS: usize = 400;

struct Storm {
    chans: Vec<Tracked<i64>>,
}

impl TrackedState for Storm {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        for chan in &mut self.chans {
            f(chan);
        }
    }
}

fn run(
    opaque: bool,
) -> (
    std::time::Duration,
    autosynch_repro::metrics::counters::CounterSnapshot,
) {
    let monitor = Arc::new(Monitor::with_config(
        Storm {
            chans: (0..CHANNELS).map(|_| Tracked::new(0)).collect(),
        },
        MonitorConfig::preset(SignalMode::Routed),
    ));
    let mut conds = Vec::with_capacity(CHANNELS * WAITERS);
    for k in 0..CHANNELS {
        let chan = monitor.register_expr(format!("chan_{k}"), move |s: &Storm| *s.chans[k]);
        monitor.bind(|s| &mut s.chans[k], &[chan]);
        for j in 0..WAITERS as i64 {
            conds.push(if opaque {
                monitor.compile(move |s: &Storm| *s.chans[k] == j)
            } else {
                monitor.compile(chan.eq(j))
            });
        }
    }
    let start = Instant::now();
    thread::scope(|scope| {
        for k in 0..CHANNELS {
            for j in 0..WAITERS {
                let monitor = Arc::clone(&monitor);
                let my_turn = conds[k * WAITERS + j].clone();
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        monitor.enter_tracked(|g| {
                            g.wait(&my_turn);
                            let s = g.state_mut();
                            *s.chans[k] = (*s.chans[k] + 1) % WAITERS as i64;
                        });
                    }
                });
            }
        }
    });
    let elapsed = start.elapsed();
    assert!(monitor.is_quiescent(), "leaked waiters or signals");
    let counters = monitor.stats_snapshot().counters;
    assert_eq!(counters.broadcasts, 0);
    (elapsed, counters)
}

fn main() {
    println!(
        "wake storm: {CHANNELS} channels x {WAITERS} waiters x {ROUNDS} rounds \
         ({} threads)",
        CHANNELS * WAITERS
    );
    let (herd_time, herd) = run(true);
    let (route_time, route) = run(false);
    println!("                      opaque closures   compiled chan == j");
    println!(
        "  elapsed             {:>15.3}s  {:>17.3}s",
        herd_time.as_secs_f64(),
        route_time.as_secs_f64()
    );
    println!(
        "  unparks             {:>16}  {:>18}",
        herd.unparks, route.unparks
    );
    println!(
        "  waiter_self_checks  {:>16}  {:>18}",
        herd.waiter_self_checks, route.waiter_self_checks
    );
    println!(
        "  futile_wakeups      {:>16}  {:>18}",
        herd.futile_wakeups, route.futile_wakeups
    );
    println!(
        "  eq_routed_wakes     {:>16}  {:>18}",
        herd.eq_routed_wakes, route.eq_routed_wakes
    );
    println!(
        "  token_forwards      {:>16}  {:>18}",
        herd.token_forwards, route.token_forwards
    );
    assert!(
        route.waiter_self_checks < herd.waiter_self_checks,
        "eq routing must cut the self-check herd"
    );
    assert!(
        route.eq_routed_wakes > 0,
        "eq conditions must use the route"
    );
    println!("ok: identical outcomes, routed wakes are targeted");
}
