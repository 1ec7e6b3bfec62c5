//! Change-driven relay (`autosynch_cd`) equivalence and accounting.
//!
//! The mode must be *observationally identical* to the scan-based
//! AutoSynch-T and tagged modes — same outcomes, zero broadcasts, zero
//! relay-invariance violations with the Def. 4 validator armed — while
//! doing strictly less evaluation work on the paper's Fig. 14 workload.

use std::sync::Arc;

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::Monitor;
use autosynch_repro::problems::mechanism::Mechanism;
use autosynch_repro::problems::{param_bounded_buffer, readers_writers};

/// A deterministic bounded-buffer schedule run under one validated
/// config; returns the drain order checksum and the final level.
fn validated_bounded_buffer(config: MonitorConfig) -> (u64, i64) {
    struct Buf {
        level: i64,
        cap: i64,
        checksum: u64,
    }
    let monitor = Arc::new(Monitor::with_config(
        Buf {
            level: 0,
            cap: 8,
            checksum: 0,
        },
        config.validate_relay(true),
    ));
    let level = monitor.register_expr("level", |b: &Buf| b.level);
    let free = monitor.register_expr("free", |b: &Buf| b.cap - b.level);

    const PAIRS: usize = 4;
    const OPS: usize = 200;
    std::thread::scope(|scope| {
        for i in 0..PAIRS {
            let producer_monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                let put = 1 + (i as i64 % 3);
                let room = producer_monitor.compile(free.ge(put));
                for _ in 0..OPS {
                    producer_monitor.enter(|g| {
                        g.wait(&room);
                        g.state_mut().level += put;
                    });
                }
            });
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                let take = 1 + (i as i64 % 3);
                let stocked = monitor.compile(level.ge(take));
                for round in 0..OPS {
                    monitor.enter(|g| {
                        g.wait(&stocked);
                        let s = g.state_mut();
                        s.level -= take;
                        s.checksum = s
                            .checksum
                            .wrapping_mul(31)
                            .wrapping_add((round as u64) ^ take as u64);
                    });
                }
            });
        }
    });

    let (checksum, level) = monitor.with(|b| (b.checksum, b.level));
    assert!(monitor.is_quiescent(), "leaked waiters or signals");
    assert_eq!(monitor.stats_snapshot().counters.broadcasts, 0);
    (checksum, level)
}

#[test]
fn validated_bounded_buffer_matches_scan_mode() {
    // validate_relay panics on any Def. 4 violation, so completing the
    // run in change-driven mode *is* the zero-violations assertion; the
    // final levels must agree with the scan-based reference.
    let (_, cd_level) = validated_bounded_buffer(MonitorConfig::preset(SignalMode::ChangeDriven));
    let (_, t_level) = validated_bounded_buffer(MonitorConfig::preset(SignalMode::Untagged));
    assert_eq!(cd_level, 0);
    assert_eq!(t_level, 0);
}

/// Ticketed readers/writers under a validated config: writers bump a
/// version; readers require their ticket. Returns total reads observed.
fn validated_readers_writers(config: MonitorConfig) -> u64 {
    struct Room {
        readers: i64,
        writer: i64,
    }
    let monitor = Arc::new(Monitor::with_config(
        Room {
            readers: 0,
            writer: 0,
        },
        config.validate_relay(true),
    ));
    let writer = monitor.register_expr("writer", |r: &Room| r.writer);
    let readers = monitor.register_expr("readers", |r: &Room| r.readers);

    const WRITERS: usize = 3;
    const READERS: usize = 9;
    const OPS: usize = 120;
    let total_reads = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let monitor = Arc::clone(&monitor);
            scope.spawn(move || {
                let idle = monitor.compile(writer.eq(0).and(readers.eq(0)));
                for _ in 0..OPS {
                    monitor.enter(|g| {
                        g.wait(&idle);
                        g.state_mut().writer = 1;
                    });
                    monitor.with(|r| r.writer = 0);
                }
            });
        }
        for _ in 0..READERS {
            let monitor = Arc::clone(&monitor);
            let total_reads = &total_reads;
            scope.spawn(move || {
                let no_writer = monitor.compile(writer.eq(0));
                for _ in 0..OPS {
                    monitor.enter(|g| {
                        g.wait(&no_writer);
                        g.state_mut().readers += 1;
                    });
                    total_reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    monitor.with(|r| r.readers -= 1);
                }
            });
        }
    });
    assert!(monitor.is_quiescent());
    assert_eq!(monitor.stats_snapshot().counters.broadcasts, 0);
    total_reads.load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn validated_readers_writers_matches_scan_mode() {
    let cd = validated_readers_writers(MonitorConfig::preset(SignalMode::ChangeDriven));
    let t = validated_readers_writers(MonitorConfig::preset(SignalMode::Untagged));
    assert_eq!(cd, 9 * 120);
    assert_eq!(t, 9 * 120);
}

#[test]
fn change_driven_param_buffer_balances() {
    // The Fig. 14 workload completes with identical item accounting
    // (run() panics internally on checksum mismatch) and no broadcasts.
    let report = param_bounded_buffer::run(
        Mechanism::AutoSynchCD,
        param_bounded_buffer::ParamBoundedBufferConfig {
            consumers: 6,
            takes_per_consumer: 100,
            max_items: 64,
            capacity: 128,
            seed: 23,
        },
    );
    assert_eq!(report.stats.counters.broadcasts, 0);
}

#[test]
fn change_driven_readers_writers_problem_balances() {
    readers_writers::run(
        Mechanism::AutoSynchCD,
        readers_writers::ReadersWritersConfig {
            writers: 3,
            readers: 9,
            ops_per_thread: 100,
        },
    );
}

#[test]
fn change_driven_beats_tagged_on_fig14_eval_counts() {
    // On the parameterized bounded buffer `autosynch_cd` does strictly
    // less evaluation work than the default tagged mode over the same
    // completed workload.
    //
    // Where the edge comes from, now that neither mode runs a relay for
    // an occupancy that owes none (DESIGN.md "When a relay is owed"): a
    // relay owed by a mutation costs both modes one evaluation per live
    // expression, and a relay owed only by the baton — a futile wakeup
    // going back to sleep — costs the tagged search one evaluation per
    // expression it probes and the change-driven relay none, since it
    // reuses the snapshot of the last diff. So the change-driven mode
    // saves about one expression evaluation per futile wakeup (~450 of
    // ~3100 per run) and nothing on predicate evaluations, which both
    // modes spend on the same waiters. Before the owed-relay rule the
    // tagged mode also paid a full search on every clean going-to-wait,
    // which made the gap 15 % of all work; it is now ~5 %, inside the
    // ±4 % a single run moves with the thread schedule. Summing RUNS
    // runs per mode shrinks that noise by √RUNS and leaves the
    // comparison the same meaning it had.
    const RUNS: usize = 20;
    let config = param_bounded_buffer::ParamBoundedBufferConfig {
        consumers: 8,
        takes_per_consumer: 150,
        max_items: 64,
        capacity: 128,
        seed: 0x5EED,
    };
    // (expr_evals, pred_evals) summed over the runs, the modes
    // interleaved so a load change on the box hits both alike.
    let mut tagged = (0u64, 0u64);
    let mut cd = (0u64, 0u64);
    for _ in 0..RUNS {
        for (mechanism, sum) in [
            (Mechanism::AutoSynch, &mut tagged),
            (Mechanism::AutoSynchCD, &mut cd),
        ] {
            let counters = param_bounded_buffer::run(mechanism, config).stats.counters;
            assert_eq!(counters.broadcasts, 0);
            sum.0 += counters.expr_evals;
            sum.1 += counters.pred_evals;
        }
    }

    assert!(
        cd.0 + cd.1 < tagged.0 + tagged.1,
        "change-driven work {} (expr {} + pred {}) must undercut tagged {} (expr {} + pred {})",
        cd.0 + cd.1,
        cd.0,
        cd.1,
        tagged.0 + tagged.1,
        tagged.0,
        tagged.1,
    );
    assert!(
        cd.0 < tagged.0,
        "snapshot reuse must cut expression evaluations: {} vs {}",
        cd.0,
        tagged.0,
    );
    // The two modes wake and re-check the same waiters: predicate
    // evaluations run level (measured 0.98–1.03 over 20 runs), so the
    // edge above is the snapshot's and not a shifted cost.
    assert!(
        cd.1 * 100 <= tagged.1 * 105 && tagged.1 * 100 <= cd.1 * 105,
        "predicate evaluations must stay within 5 % of each other: cd {} vs tagged {}",
        cd.1,
        tagged.1,
    );
}
