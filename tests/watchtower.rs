//! Span-stitcher soundness: every workload × automatic mode stitched
//! from live flight-recorder drains, synthetic-stream proptests, and
//! the ring-overwrite loss-accounting regression.
//!
//! The stitcher (`telemetry::span`) rebuilds each wait's causal chain
//! from the drained event stream. Its contract has two halves:
//!
//! * **Partition exactness** — a complete span's typed phase
//!   attributions are a partition of its bracket: they are
//!   non-negative and sum *exactly* to `span_ns()`, on every stream.
//! * **Loss honesty** — when the overwrite-oldest rings lose events,
//!   the stitcher reports truncated stubs, open waits and orphans; it
//!   never fabricates an attribution from a partial chain.
//!
//! Reconciliation ties the stitched totals back to an independent
//! sensor: `WaitResolved` carries the same waiter-clock nanoseconds the
//! `wait` histogram recorded, so with zero drops the stitched
//! `measured_ns` total equals `stats.wait.nanos` exactly.

use std::sync::Mutex;

use autosynch_repro::autosynch::telemetry::span::{stitch, StitchReport};
use autosynch_repro::autosynch::{telemetry, EventKind, TraceEvent};
use autosynch_repro::problems::bounded_buffer::{self, BoundedBufferConfig};
use autosynch_repro::problems::cigarette_smokers::{self, SmokersConfig};
use autosynch_repro::problems::cyclic_barrier::{self, BarrierConfig};
use autosynch_repro::problems::dining::{self, DiningConfig};
use autosynch_repro::problems::group_mutex::{self, GroupMutexConfig};
use autosynch_repro::problems::h2o::{self, H2oConfig};
use autosynch_repro::problems::mechanism::{Mechanism, RunReport};
use autosynch_repro::problems::one_lane_bridge::{self, BridgeConfig};
use autosynch_repro::problems::param_bounded_buffer::{self, ParamBoundedBufferConfig};
use autosynch_repro::problems::readers_writers::{self, ReadersWritersConfig};
use autosynch_repro::problems::round_robin::{self, RoundRobinConfig};
use autosynch_repro::problems::sharded_queues::{self, ShardedQueuesConfig};
use autosynch_repro::problems::sleeping_barber::{self, SleepingBarberConfig};
use autosynch_repro::problems::unisex_bathroom::{self, BathroomConfig};
use autosynch_repro::problems::wake_storm::{self, WakeStormConfig};
use proptest::prelude::*;

/// The flight recorder is process-global: every test that records or
/// drains serializes on this lock and drains both sides of its run.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every complete span's phases partition its bracket exactly.
fn assert_partition(report: &StitchReport, label: &str) {
    for span in &report.spans {
        let sum: u64 = span.phases.iter().sum();
        if span.truncated {
            assert_eq!(
                sum, 0,
                "{label}: a truncated stub must carry no attributions"
            );
        } else {
            assert_eq!(
                sum,
                span.span_ns(),
                "{label}: phase attributions must sum exactly to the span bracket"
            );
            assert!(span.end_ns >= span.start_ns, "{label}: inverted bracket");
        }
    }
}

/// Runs `f` traced, drains, stitches, and asserts the soundness
/// contract. With zero ring drops the stitch must be complete (no
/// stubs, no opens, no orphans) and the stitched waiter-clock total
/// must equal the `wait` histogram's nanoseconds exactly.
fn check_traced(label: &str, f: impl FnOnce() -> RunReport) {
    drop(telemetry::drain_all());
    let report = f();
    let drained = telemetry::drain_all();
    let stitched = stitch(&drained.events);
    assert_partition(&stitched, label);
    if drained.dropped == 0 {
        assert_eq!(stitched.truncated(), 0, "{label}: no drops, no stubs");
        assert_eq!(stitched.open_waits, 0, "{label}: no drops, no open waits");
        assert_eq!(stitched.orphan_events, 0, "{label}: no drops, no orphans");
        assert_eq!(
            stitched.measured_total_ns(),
            report.stats.wait.nanos,
            "{label}: stitched waiter-clock total must reconcile with the wait stat"
        );
        if report.stats.wait.holds > 0 {
            let complete = stitched.spans.len() - stitched.truncated();
            assert_eq!(
                complete as u64, report.stats.wait.holds,
                "{label}: one complete span per recorded wait"
            );
        }
    }
}

/// Every workload in the crate × every automatic mode: stitched phase
/// attributions are exact partitions, and (timed drivers) the
/// measured totals reconcile against `MonitorStats.wait`.
#[test]
fn stitched_spans_partition_exactly_across_workloads_and_modes() {
    let _guard = telemetry_lock();
    let was_on = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::set_ring_capacity(1 << 15);
    for mechanism in Mechanism::AUTOMATIC {
        let label = |w: &str| format!("{w}/{}", mechanism.label());
        check_traced(&label("bounded_buffer"), || {
            bounded_buffer::run(
                mechanism,
                BoundedBufferConfig {
                    producers: 2,
                    consumers: 2,
                    ops_per_thread: 24,
                    capacity: 4,
                },
            )
        });
        check_traced(&label("param_bounded_buffer"), || {
            param_bounded_buffer::run_timed(
                mechanism,
                ParamBoundedBufferConfig {
                    consumers: 2,
                    takes_per_consumer: 16,
                    max_items: 16,
                    capacity: 32,
                    seed: 7,
                },
            )
        });
        check_traced(&label("round_robin"), || {
            round_robin::run_timed(
                mechanism,
                RoundRobinConfig {
                    threads: 4,
                    rounds: 16,
                },
            )
        });
        check_traced(&label("readers_writers"), || {
            readers_writers::run(
                mechanism,
                ReadersWritersConfig {
                    writers: 2,
                    readers: 2,
                    ops_per_thread: 16,
                },
            )
        });
        check_traced(&label("dining"), || {
            dining::run(
                mechanism,
                DiningConfig {
                    philosophers: 5,
                    meals_per_philosopher: 8,
                },
            )
        });
        check_traced(&label("h2o"), || {
            h2o::run(
                mechanism,
                H2oConfig {
                    h_threads: 4,
                    events_per_h: 8,
                },
            )
        });
        check_traced(&label("cyclic_barrier"), || {
            cyclic_barrier::run(
                mechanism,
                BarrierConfig {
                    parties: 4,
                    generations: 8,
                },
            )
        });
        check_traced(&label("sleeping_barber"), || {
            sleeping_barber::run(
                mechanism,
                SleepingBarberConfig {
                    customers: 4,
                    visits_per_customer: 8,
                    chairs: 2,
                },
            )
            .report
        });
        check_traced(&label("sharded_queues"), || {
            sharded_queues::run_timed(
                mechanism,
                ShardedQueuesConfig {
                    queues: 2,
                    ops_per_queue: 16,
                    capacity: 4,
                },
            )
        });
        check_traced(&label("wake_storm"), || {
            wake_storm::run_timed(
                mechanism,
                WakeStormConfig {
                    channels: 2,
                    waiters: 2,
                    rounds: 8,
                },
            )
        });
        check_traced(&label("cigarette_smokers"), || {
            cigarette_smokers::run(
                mechanism,
                SmokersConfig {
                    rounds: 16,
                    seed: 11,
                },
            )
        });
        check_traced(&label("group_mutex"), || {
            group_mutex::run(
                mechanism,
                GroupMutexConfig {
                    threads: 4,
                    forums: 2,
                    sessions: 8,
                },
            )
        });
        check_traced(&label("one_lane_bridge"), || {
            one_lane_bridge::run(
                mechanism,
                BridgeConfig {
                    per_direction: 2,
                    crossings: 8,
                    capacity: 2,
                },
            )
        });
        check_traced(&label("unisex_bathroom"), || {
            unisex_bathroom::run(
                mechanism,
                BathroomConfig {
                    per_gender: 2,
                    visits: 8,
                    capacity: 2,
                },
            )
        });
    }
    telemetry::set_enabled(was_on);
}

/// Rings sized far below a run's event volume: the drain must count
/// the loss and the stitcher must degrade to truncation flags and
/// orphan counts — with every surviving complete span still an exact
/// partition, never a fabricated attribution.
#[test]
fn overwritten_rings_truncate_and_orphan_never_fabricate() {
    let _guard = telemetry_lock();
    let was_on = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::set_ring_capacity(35);
    drop(telemetry::drain_all());
    round_robin::run(
        Mechanism::AutoSynchRoute,
        RoundRobinConfig {
            threads: 4,
            rounds: 64,
        },
    );
    let drained = telemetry::drain_all();
    telemetry::set_enabled(was_on);
    assert!(
        drained.dropped > 0,
        "35-slot rings must overflow under 64 rounds x 4 threads"
    );
    // The live run promises the count and the partition, nothing about
    // *where* each ring's overwrite cut lands: a round's events per
    // thread are only partly its wait chain, and when all four cuts
    // fall outside the chains the survivors are whole chains and the
    // stitcher, rightly, has nothing to flag.
    let report = stitch(&drained.events);
    assert_partition(&report, "overwritten rings");

    // "Loss must surface" is asserted where the cut is chosen: chop the
    // stream just past a registration whose resolve survives — the
    // stitcher must degrade that wait to a truncated stub (or
    // orphans/opens), never attribute from the partial chain. The live
    // stream may offer no such registration, so a built one is chopped
    // the same way every time.
    let cut = drained.events.iter().position(|e| {
        e.kind == EventKind::WaitRegistered
            && drained.events.iter().any(|r| {
                r.kind == EventKind::WaitResolved && r.thread == e.thread && r.a == e.b >> 1
            })
    });
    let live = cut.map(|cut| ("chopped live stream", drained.events[cut + 1..].to_vec()));
    let built = ("chopped built stream", wait_stream(2, true, 5).split_off(1));
    for (label, severed) in live.into_iter().chain([built]) {
        let partial = stitch(&severed);
        assert_partition(&partial, label);
        assert!(
            partial.truncated() > 0 || partial.open_waits > 0 || partial.orphan_events > 0,
            "{label}: a severed registration must surface as a stub, open or orphan"
        );
    }
}

/// A structured single-wait stream builder for the proptests: one
/// registration, `parks` park/self-check cycles (each optionally woken
/// cross-thread), one resolve.
fn wait_stream(parks: u64, woken: bool, gap: u64) -> Vec<TraceEvent> {
    let mk = |t_ns, thread, kind, a, b| TraceEvent {
        t_ns,
        monitor: 1,
        thread,
        kind,
        a,
        b,
    };
    let gap = gap.max(1);
    let mut t = 10;
    let mut events = vec![mk(t, 0, EventKind::WaitRegistered, u64::MAX, 7 << 1)];
    for i in 0..parks {
        t += gap;
        events.push(mk(t, 0, EventKind::Park, 0, 7));
        if woken {
            t += gap;
            events.push(mk(t, 9, EventKind::Unpark, 1, 7));
        }
        t += gap;
        let may_hold = u64::from(i + 1 == parks);
        events.push(mk(t, 0, EventKind::SelfCheck, may_hold, 0));
    }
    t += gap;
    let elapsed = t - 10;
    events.push(mk(t, 0, EventKind::WaitResolved, 7, (elapsed << 1) | 1));
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Arbitrary event soup — any kinds, any operands, any interleaving
    // — must stitch without panicking, and whatever spans come out
    // must obey the partition contract.
    #[test]
    fn arbitrary_streams_stitch_to_exact_partitions(
        raw in proptest::collection::vec(
            (0u64..2_000, 0u64..3, 0usize..16, 0u64..64, 0u64..256),
            0..120,
        ),
    ) {
        let mut events: Vec<TraceEvent> = raw
            .into_iter()
            .map(|(t_ns, thread, kind, a, b)| TraceEvent {
                t_ns,
                monitor: 1 + thread % 2,
                thread,
                kind: EventKind::ALL[kind],
                a,
                b,
            })
            .collect();
        events.sort_by_key(|e| e.t_ns);
        let report = stitch(&events);
        for span in &report.spans {
            let sum: u64 = span.phases.iter().sum();
            if span.truncated {
                prop_assert_eq!(sum, 0);
            } else {
                prop_assert_eq!(sum, span.span_ns());
                prop_assert!(span.end_ns >= span.start_ns);
            }
        }
    }

    // Well-formed single-wait chains with randomized park cycles, wake
    // deliveries and spacing: exactly one complete span, fully
    // attributed, nothing orphaned.
    #[test]
    fn structured_wait_chains_close_into_one_attributed_span(
        parks in 0u64..6,
        woken in proptest::arbitrary::any::<bool>(),
        gap in 1u64..500,
    ) {
        let events = wait_stream(parks, woken, gap);
        let report = stitch(&events);
        prop_assert_eq!(report.spans.len(), 1);
        prop_assert_eq!(report.open_waits, 0);
        prop_assert_eq!(report.orphan_events, 0);
        let span = &report.spans[0];
        prop_assert!(!span.truncated);
        prop_assert!(span.satisfied);
        let sum: u64 = span.phases.iter().sum();
        prop_assert_eq!(sum, span.span_ns());
        prop_assert_eq!(span.measured_ns, span.span_ns());
    }
}
