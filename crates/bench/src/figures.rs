//! One runner per paper figure/table, shared by the Criterion benches
//! and the `reproduce` binary.
//!
//! Each `figN` function performs the full x-axis sweep for its figure
//! and returns an aligned text table whose columns are the paper's
//! legend entries and whose cells are runtime seconds (or counts, for
//! Fig. 15 and Table 1).

use std::sync::Arc;

use autosynch::Monitor;
use autosynch_metrics::phase::Phase;
use autosynch_metrics::report::{kilo, secs, Table};
use autosynch_problems::asynch::{self, AsyncQueuesConfig, AsyncStormConfig};
use autosynch_problems::bounded_buffer::{self, BoundedBufferConfig};
use autosynch_problems::cyclic_barrier::{self, BarrierConfig};
use autosynch_problems::dining::{self, DiningConfig};
use autosynch_problems::h2o::{self, H2oConfig};
use autosynch_problems::mechanism::{timed_run, Mechanism, RunReport};
use autosynch_problems::param_bounded_buffer::{self, ParamBoundedBufferConfig};
use autosynch_problems::readers_writers::{self, ReadersWritersConfig};
use autosynch_problems::round_robin::{self, RoundRobinConfig};
use autosynch_problems::sharded_queues::{self, ShardedQueuesConfig};
use autosynch_problems::sleeping_barber::{self, SleepingBarberConfig};
use autosynch_problems::wake_storm::{self, WakeStormConfig};

use crate::sweep;

fn runtime_row(x_label: String, reports: &[RunReport]) -> Vec<String> {
    let mut row = vec![x_label];
    row.extend(reports.iter().map(|r| secs(r.elapsed)));
    row
}

fn header(x: &str, mechanisms: &[Mechanism]) -> Vec<String> {
    let mut columns = vec![x.to_owned()];
    columns.extend(mechanisms.iter().map(|m| m.label().to_owned()));
    columns
}

/// Fig. 8: bounded buffer, runtime vs #producers (= #consumers).
pub fn fig8() -> Table {
    let mechanisms = Mechanism::ALL;
    let mut table = Table::new(header("producers/consumers", &mechanisms));
    for n in sweep::thread_grid() {
        let pairs = (n / 2).max(1);
        let config = BoundedBufferConfig {
            producers: pairs,
            consumers: pairs,
            ops_per_thread: sweep::ops_per_thread(pairs * 2),
            capacity: 16,
        };
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| bounded_buffer::run(m, config))
            .collect();
        table.row(runtime_row(n.to_string(), &reports));
    }
    table
}

/// Fig. 9: H2O, runtime vs #H-atom threads (one O thread).
pub fn fig9() -> Table {
    let mechanisms = Mechanism::ALL;
    let mut table = Table::new(header("H-atoms", &mechanisms));
    for n in sweep::thread_grid() {
        let h_threads = n.max(2);
        let mut events = sweep::ops_per_thread(h_threads);
        if (h_threads * events) % 2 == 1 {
            events += 1; // stoichiometry needs an even total
        }
        let config = H2oConfig {
            h_threads,
            events_per_h: events,
        };
        let reports: Vec<RunReport> = mechanisms.iter().map(|&m| h2o::run(m, config)).collect();
        table.row(runtime_row(h_threads.to_string(), &reports));
    }
    table
}

/// Fig. 10: sleeping barber, runtime vs #customers.
pub fn fig10() -> Table {
    let mechanisms = Mechanism::ALL;
    let mut table = Table::new(header("customers", &mechanisms));
    for n in sweep::thread_grid() {
        let config = SleepingBarberConfig {
            customers: n,
            visits_per_customer: sweep::ops_per_thread(n),
            chairs: 8,
        };
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| sleeping_barber::run(m, config).report)
            .collect();
        table.row(runtime_row(n.to_string(), &reports));
    }
    table
}

/// Fig. 11: round-robin access pattern, runtime vs #threads (explicit,
/// AutoSynch-T, AutoSynch — the baseline is off the chart in the paper).
pub fn fig11() -> Table {
    let mechanisms = Mechanism::WITHOUT_BASELINE;
    let mut table = Table::new(header("threads", &mechanisms));
    for n in sweep::thread_grid() {
        let config = RoundRobinConfig {
            threads: n,
            rounds: sweep::ops_per_thread(n),
        };
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| round_robin::run(m, config))
            .collect();
        table.row(runtime_row(n.to_string(), &reports));
    }
    table
}

/// Fig. 12: ticketed readers/writers, runtime vs writers/readers pairs.
pub fn fig12() -> Table {
    let mechanisms = Mechanism::WITHOUT_BASELINE;
    let mut table = Table::new(header("writers/readers", &mechanisms));
    for (writers, readers) in sweep::rw_grid() {
        let config = ReadersWritersConfig {
            writers,
            readers,
            ops_per_thread: sweep::ops_per_thread(writers + readers),
        };
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| readers_writers::run(m, config))
            .collect();
        table.row(runtime_row(format!("{writers}/{readers}"), &reports));
    }
    table
}

/// Fig. 13: dining philosophers, runtime vs #philosophers.
pub fn fig13() -> Table {
    let mechanisms = Mechanism::WITHOUT_BASELINE;
    let mut table = Table::new(header("philosophers", &mechanisms));
    for n in sweep::thread_grid() {
        let philosophers = n.max(2);
        let config = DiningConfig {
            philosophers,
            meals_per_philosopher: sweep::ops_per_thread(philosophers),
        };
        let reports: Vec<RunReport> = mechanisms.iter().map(|&m| dining::run(m, config)).collect();
        table.row(runtime_row(philosophers.to_string(), &reports));
    }
    table
}

fn fig14_config(consumers: usize) -> ParamBoundedBufferConfig {
    ParamBoundedBufferConfig {
        consumers,
        takes_per_consumer: (sweep::ops_budget() / 8 / consumers).max(4),
        max_items: 128,
        capacity: 256,
        seed: 0x5EED,
    }
}

/// Fig. 14: parameterized bounded buffer, runtime vs #consumers
/// (explicit vs AutoSynch).
pub fn fig14() -> Table {
    let mechanisms = [Mechanism::Explicit, Mechanism::AutoSynch];
    let mut table = Table::new(header("consumers", &mechanisms));
    for n in sweep::thread_grid() {
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| param_bounded_buffer::run(m, fig14_config(n)))
            .collect();
        table.row(runtime_row(n.to_string(), &reports));
    }
    table
}

/// Fig. 15: context switches for the Fig. 14 runs, in thousands.
///
/// Primary metric: wakeups (every return from a blocked wait is one
/// voluntary context switch). The kernel's process-wide voluntary
/// counter is shown alongside when `/proc` is available.
pub fn fig15() -> Table {
    let mut table = Table::with_columns(&[
        "consumers",
        "explicit (K wakeups)",
        "AutoSynch (K wakeups)",
        "explicit (K kernel)",
        "AutoSynch (K kernel)",
    ]);
    for n in sweep::thread_grid() {
        let explicit = param_bounded_buffer::run(Mechanism::Explicit, fig14_config(n));
        let auto = param_bounded_buffer::run(Mechanism::AutoSynch, fig14_config(n));
        let kernel = |r: &RunReport| {
            r.ctx
                .map(|c| kilo(c.voluntary))
                .unwrap_or_else(|| "n/a".into())
        };
        table.row(vec![
            n.to_string(),
            kilo(explicit.stats.counters.wakeups),
            kilo(auto.stats.counters.wakeups),
            kernel(&explicit),
            kernel(&auto),
        ]);
    }
    table
}

/// Supplement to Fig. 8: the signaling counters behind the curves.
/// `parking_lot`'s wait morphing mutes the *runtime* cost of the
/// baseline's broadcasts on this problem; the counters show the
/// mechanism anyway (broadcasts instead of signals, far more futile
/// wakeups).
pub fn fig8_counters() -> Table {
    let mut table = Table::with_columns(&[
        "mechanism",
        "signals",
        "signalAll",
        "wakeups",
        "futile",
        "futile%",
    ]);
    let pairs = if sweep::full_scale() { 64 } else { 16 };
    let config = BoundedBufferConfig {
        producers: pairs,
        consumers: pairs,
        ops_per_thread: sweep::ops_per_thread(pairs * 2),
        capacity: 16,
    };
    for mechanism in Mechanism::ALL {
        let report = bounded_buffer::run(mechanism, config);
        let c = report.stats.counters;
        table.row(vec![
            mechanism.label().to_owned(),
            c.signals.to_string(),
            c.broadcasts.to_string(),
            c.wakeups.to_string(),
            c.futile_wakeups.to_string(),
            format!("{:.1}", c.futile_ratio() * 100.0),
        ]);
    }
    table
}

/// Table 1: CPU-usage breakdown for the round-robin pattern at 128
/// threads (or the largest grid point in quick mode).
pub fn table1() -> Table {
    let threads = if sweep::full_scale() { 128 } else { 32 };
    // 4x the figure budget: the AutoSynch-T relay scan is O(waiters)
    // per call, so longer runs sharpen the contrast the paper measured
    // over multi-minute profiles.
    let config = RoundRobinConfig {
        threads,
        rounds: sweep::ops_per_thread(threads) * 4,
    };
    let mut table = Table::with_columns(&[
        "mechanism",
        "await(ms)",
        "%",
        "lock(ms)",
        "%",
        "relaySignal(ms)",
        "%",
        "tagMgr(ms)",
        "%",
        "others(ms)",
        "total(ms)",
    ]);
    for mechanism in Mechanism::WITHOUT_BASELINE {
        let report = round_robin::run_timed(mechanism, config);
        let phases = report.stats.phases;
        let ms = |p: Phase| format!("{:.1}", phases.nanos(p) as f64 / 1e6);
        let pct = |p: Phase| format!("{:.2}", phases.share(p) * 100.0);
        table.row(vec![
            mechanism.label().to_owned(),
            ms(Phase::Await),
            pct(Phase::Await),
            ms(Phase::Lock),
            pct(Phase::Lock),
            ms(Phase::RelaySignal),
            pct(Phase::RelaySignal),
            ms(Phase::TagManager),
            pct(Phase::TagManager),
            ms(Phase::Other),
            format!("{:.1}", phases.total_nanos() as f64 / 1e6),
        ]);
    }
    table
}

/// Extension: relay-cost accounting across every mechanism (including
/// the change-driven and routed extensions) on the Fig. 14
/// parameterized bounded buffer, the Fig. 11 round robin, and the
/// many-queue `sharded_queues` workload. Besides the text table, the
/// series is written to `BENCH_relay.json` so later optimization PRs
/// have a machine-readable perf trajectory to diff against.
pub fn relay_cost() -> Table {
    let mut table = Table::with_columns(&[
        "workload",
        "mechanism",
        "elapsed(s)",
        "expr_evals",
        "pred_evals",
        "probes_skipped",
        "relay_skips",
        "unchanged_exprs",
        "relay_calls",
        "signals",
        "wakeups",
    ]);
    let consumers = if sweep::full_scale() { 64 } else { 16 };
    let rr_threads = if sweep::full_scale() { 64 } else { 16 };
    let rr_config = RoundRobinConfig {
        threads: rr_threads,
        rounds: sweep::ops_per_thread(rr_threads),
    };
    let mut entries = String::new();
    let mut record = |workload: &str, report: &RunReport| {
        let c = report.stats.counters;
        table.row(vec![
            workload.to_owned(),
            report.mechanism.label().to_owned(),
            secs(report.elapsed),
            c.expr_evals.to_string(),
            c.pred_evals.to_string(),
            c.probes_skipped.to_string(),
            c.relay_skips.to_string(),
            c.unchanged_exprs.to_string(),
            c.relay_calls.to_string(),
            c.signals.to_string(),
            c.wakeups.to_string(),
        ]);
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"mechanism\": \"{}\", \
             \"elapsed_s\": {:.6}, \"expr_evals\": {}, \"pred_evals\": {}, \
             \"probes_skipped\": {}, \"relay_skips\": {}, \
             \"unchanged_exprs\": {}, \"relay_calls\": {}, \"signals\": {}, \
             \"wakeups\": {}, \"futile_wakeups\": {}, \"broadcasts\": {}}}",
            report.mechanism.label(),
            report.elapsed.as_secs_f64(),
            c.expr_evals,
            c.pred_evals,
            c.probes_skipped,
            c.relay_skips,
            c.unchanged_exprs,
            c.relay_calls,
            c.signals,
            c.wakeups,
            c.futile_wakeups,
            c.broadcasts,
        ));
    };
    for mechanism in Mechanism::ALL {
        let report = param_bounded_buffer::run(mechanism, fig14_config(consumers));
        record("fig14_param_bounded_buffer", &report);
    }
    for mechanism in Mechanism::ALL {
        let report = round_robin::run(mechanism, rr_config);
        record("fig11_round_robin", &report);
    }
    for mechanism in Mechanism::ALL {
        let report = sharded_queues::run(mechanism, shard_queues_config(consumers / 2));
        record("ext_sharded_queues", &report);
    }
    let json = format!("{{\n  \"benchmarks\": [\n{entries}\n  ]\n}}\n");
    let path = "BENCH_relay.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("   [relay-cost series written to {path}]"),
        Err(err) => eprintln!("   [failed to write {path}: {err}]"),
    }
    table
}

/// A mixed compiled/transient bounded buffer: producers wait on
/// compiled `free >= put` conditions (slot buckets, ladder rungs),
/// consumers on per-call `wait_transient(level >= take)` predicates
/// with only three distinct take shapes — the repeating-but-uncompiled
/// pattern the bounded transient LRU graduates off the per-gate
/// broadcast bucket (visible as `transient_cache_hits` under Route).
fn transient_mix_run(mechanism: Mechanism, pairs: usize, ops: usize) -> RunReport {
    struct Buf {
        level: i64,
        cap: i64,
    }
    let config = mechanism
        .monitor_config()
        .expect("transient mix runs automatic mechanisms only");
    let monitor = Arc::new(Monitor::with_config(Buf { level: 0, cap: 8 }, config));
    let level = monitor.register_expr("level", |b: &Buf| b.level);
    let free = monitor.register_expr("free", |b: &Buf| b.cap - b.level);
    let (elapsed, ctx) = timed_run(pairs * 2, |i| {
        let amount = 1 + ((i / 2) as i64 % 3);
        if i % 2 == 0 {
            let has_room = monitor.compile(free.ge(amount));
            for _ in 0..ops {
                monitor.enter(|g| {
                    g.wait(&has_room);
                    g.state_mut().level += amount;
                });
            }
        } else {
            for _ in 0..ops {
                monitor.enter(|g| {
                    g.wait_transient(level.ge(amount));
                    g.state_mut().level -= amount;
                });
            }
        }
    });
    assert_eq!(
        monitor.with(|b| b.level),
        0,
        "transient mix did not balance"
    );
    RunReport {
        mechanism,
        threads: pairs * 2,
        elapsed,
        stats: monitor.stats_snapshot(),
        ctx,
    }
}

/// Extension: wake precision — routed (vs change-driven for context) on the
/// four workloads spanning the tag families: fig11's
/// round robin (N waiters, one hot equivalence expression), the wake
/// storm (K hot expressions × N waiters, adversarial signal order),
/// fig14's parameterized bounded buffer (threshold-shaped `count >=
/// num` conditions — the ladder's target), and the many-queue
/// workload (None-tagged footprints), plus a bespoke
/// compiled/transient mix for the LRU graduation path. Records
/// per-relay unparks, waiter self-checks, end-to-end time and the
/// precision counters (`ladder_skips`, `cursor_resumes`,
/// `transient_cache_hits`); the routed rows should show `unparks/relay
/// ≈ 1` on fig11 (one targeted unpark per handoff, not a per-gate
/// herd) and ladder skips on fig14, where eq-only routing would
/// herd-wake every rung. The series is written to `BENCH_wake.json`;
/// CI asserts the fig11 and fig14 bars.
pub fn wake_routing() -> Table {
    let mut table = Table::with_columns(&[
        "workload",
        "mechanism",
        "elapsed(s)",
        "unparks",
        "unparks/relay",
        "self_checks",
        "false_wakeups",
        "eq_routed",
        "token_fwds",
        "routed_unparks",
        "ladder_skips",
        "cursor_resumes",
        "transient_hits",
    ]);
    let mechanisms = [Mechanism::AutoSynchCD, Mechanism::AutoSynchRoute];
    let rr_threads = if sweep::full_scale() { 64 } else { 16 };
    let rr_config = RoundRobinConfig {
        threads: rr_threads,
        rounds: sweep::ops_per_thread(rr_threads),
    };
    let storm_config = wake_storm_config();
    let mut entries = String::new();
    let mut record = |workload: &str, report: &RunReport| {
        let c = report.stats.counters;
        let per_relay = if c.relay_calls == 0 {
            0.0
        } else {
            c.unparks as f64 / c.relay_calls as f64
        };
        table.row(vec![
            workload.to_owned(),
            report.mechanism.label().to_owned(),
            secs(report.elapsed),
            c.unparks.to_string(),
            format!("{per_relay:.3}"),
            c.waiter_self_checks.to_string(),
            c.false_wakeups.to_string(),
            c.eq_routed_wakes.to_string(),
            c.token_forwards.to_string(),
            c.routed_unparks.to_string(),
            c.ladder_skips.to_string(),
            c.cursor_resumes.to_string(),
            c.transient_cache_hits.to_string(),
        ]);
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"mechanism\": \"{}\", \
             \"elapsed_s\": {:.6}, \"relay_calls\": {}, \"unparks\": {}, \
             \"unparks_per_relay\": {per_relay:.4}, \"waiter_self_checks\": {}, \
             \"false_wakeups\": {}, \"futile_wakeups\": {}, \
             \"eq_routed_wakes\": {}, \"token_forwards\": {}, \
             \"routed_unparks\": {}, \"ladder_skips\": {}, \
             \"cursor_resumes\": {}, \"transient_cache_hits\": {}, \
             \"wakeups\": {}, \"broadcasts\": {}}}",
            report.mechanism.label(),
            report.elapsed.as_secs_f64(),
            c.relay_calls,
            c.unparks,
            c.waiter_self_checks,
            c.false_wakeups,
            c.futile_wakeups,
            c.eq_routed_wakes,
            c.token_forwards,
            c.routed_unparks,
            c.ladder_skips,
            c.cursor_resumes,
            c.transient_cache_hits,
            c.wakeups,
            c.broadcasts,
        ));
    };
    for mechanism in mechanisms {
        let report = round_robin::run_timed(mechanism, rr_config);
        record("fig11_round_robin", &report);
    }
    for mechanism in mechanisms {
        let report = wake_storm::run_timed(mechanism, storm_config);
        record("ext_wake_storm", &report);
    }
    let consumers = if sweep::full_scale() { 64 } else { 16 };
    for mechanism in mechanisms {
        let report = param_bounded_buffer::run_timed(mechanism, fig14_config(consumers));
        record("fig14_param_bounded_buffer", &report);
    }
    for mechanism in mechanisms {
        let report = sharded_queues::run_timed(mechanism, shard_queues_config(consumers / 2));
        record("ext_sharded_queues", &report);
    }
    let mix_pairs = if sweep::full_scale() { 8 } else { 4 };
    let mix_ops = (sweep::ops_budget() / 16 / mix_pairs).max(64);
    for mechanism in mechanisms {
        let report = transient_mix_run(mechanism, mix_pairs, mix_ops);
        record("ext_transient_mix", &report);
    }
    let json = format!("{{\n  \"benchmarks\": [\n{entries}\n  ]\n}}\n");
    let path = "BENCH_wake.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("   [wake-routing series written to {path}]"),
        Err(err) => eprintln!("   [failed to write {path}: {err}]"),
    }
    table
}

fn wake_storm_config() -> WakeStormConfig {
    let (channels, waiters) = if sweep::full_scale() { (8, 8) } else { (4, 4) };
    WakeStormConfig {
        channels,
        waiters,
        rounds: (sweep::ops_budget() / 8 / (channels * waiters)).max(16),
    }
}

/// Extension: the wake storm end to end — K independent round-robin
/// channels behind one monitor, runtime vs channel count. The
/// automatic family's interesting contrast is the condvar relay modes
/// (a signaler-side probe per advance) vs Route (eq-directed single
/// unparks).
pub fn ext_wake_storm() -> Table {
    let mechanisms = Mechanism::WITHOUT_BASELINE;
    let mut table = Table::new(header("channels", &mechanisms));
    for n in sweep::thread_grid() {
        let channels = (n / 4).clamp(2, 16);
        let config = WakeStormConfig {
            channels,
            waiters: 4,
            rounds: (sweep::ops_budget() / 8 / (channels * 4)).max(8),
        };
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| wake_storm::run(m, config))
            .collect();
        table.row(runtime_row(channels.to_string(), &reports));
    }
    table
}

/// Extension: the v2 API's compile-once-wait-many cost accounting plus
/// the uncontended fast-path latency rows.
///
/// Measurements written to `BENCH_api.json`:
///
/// * **Per-wait setup** — a single-threaded saturation loop of waits on
///   an already-true condition, so the measured cost is exactly the
///   wait-path overhead: a transient wait re-runs the predicate
///   analysis (DNF conversion, tagging, dependency extraction, key
///   computation, table hashing) on every call, while a compiled
///   [`Cond`](autosynch::Cond) wait does none of it. The compiled
///   number must be strictly below per-call on every shape — CI asserts
///   it for the fig11 and fig14 shapes.
/// * **End-to-end delta** — the same concurrent workload shape run
///   per-call vs compiled vs compiled-with-the-fast-path-off (fig11
///   round robin: per-thread equivalence conditions; fig14
///   parameterized buffer: bounded threshold keys; sharded queues:
///   disequality conditions + tracked writes), at identical outcomes.
///   CI asserts the fast path never slows the contended e2e shapes
///   beyond noise.
/// * **Enter/exit latency** — an uncontended single-thread row and a
///   contended multi-thread row, fast path on vs the mutex-only
///   ablation (`AUTOSYNCH_NO_FAST_PATH=1` spelled as a config knob).
///   The `setup(ns/wait)` column carries the mean enter→exit occupancy
///   latency from the `enter_exit` stat; CI asserts the uncontended
///   fast row elides (`fast_path_enters > 0`) and undercuts the
///   ablation.
pub fn api_cost() -> Table {
    use autosynch::config::MonitorConfig;
    use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
    use autosynch::Monitor;
    use std::sync::Arc;
    use std::time::Instant;

    let mut table = Table::with_columns(&[
        "workload",
        "api",
        "setup(ns/wait)",
        "elapsed(s)",
        "waits",
        "signals",
        "named_muts",
    ]);
    let mut entries = String::new();
    let mut record = |workload: &str,
                      api: &str,
                      setup_ns: f64,
                      elapsed_s: f64,
                      c: &autosynch_metrics::counters::CounterSnapshot| {
        table.row(vec![
            workload.to_owned(),
            api.to_owned(),
            format!("{setup_ns:.1}"),
            format!("{elapsed_s:.6}"),
            c.waits.to_string(),
            c.signals.to_string(),
            c.named_mutations.to_string(),
        ]);
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"api\": \"{api}\", \
             \"setup_ns_per_wait\": {setup_ns:.2}, \"elapsed_s\": {elapsed_s:.6}, \
             \"waits\": {}, \"signals\": {}, \"wakeups\": {}, \
             \"named_mutations\": {}, \"broadcasts\": {}, \
             \"fast_path_enters\": {}, \"combined_exits\": {}}}",
            c.waits,
            c.signals,
            c.wakeups,
            c.named_mutations,
            c.broadcasts,
            c.fast_path_enters,
            c.combined_exits,
        ));
    };

    struct One {
        v: Tracked<i64>,
    }
    impl TrackedState for One {
        fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
            f(&mut self.v);
        }
    }

    // --- per-wait setup: always-true waits, single thread -----------------
    let setup_iters: u32 = if sweep::full_scale() { 200_000 } else { 40_000 };
    // One representative condition shape per workload family: fig11's
    // equivalence (`turn == id`), fig14's threshold (`count >= n`), and
    // the sharded queues' disequality (`items != 0`).
    use autosynch_predicate::atom::CmpOp;
    let shapes: [(&str, CmpOp); 3] = [
        ("fig11_round_robin", CmpOp::Eq),
        ("fig14_param_bounded_buffer", CmpOp::Ge),
        ("ext_sharded_queues", CmpOp::Ne),
    ];
    for (workload, op) in shapes {
        let m = Monitor::new(One { v: Tracked::new(7) });
        let v = m.register_expr("v", |s: &One| *s.v.get());
        m.bind(|s| &mut s.v, &[v]);
        // `7 op key` chosen true for each op so the wait never blocks.
        let key = match op {
            CmpOp::Eq => 7,
            _ => 0, // 7 >= 0 and 7 != 0 both hold
        };
        // Per-call: the analysis re-runs inside every single wait call.
        let start = Instant::now();
        for _ in 0..setup_iters {
            m.enter(|g| g.wait_transient(v.cmp(op, key)));
        }
        let percall_ns = start.elapsed().as_nanos() as f64 / f64::from(setup_iters);
        let percall_counters = m.stats_snapshot().counters;
        record(
            workload,
            "transient_percall_setup",
            percall_ns,
            0.0,
            &percall_counters,
        );

        // v2: compiled once, the loop only evaluates.
        let m = Monitor::new(One { v: Tracked::new(7) });
        let v = m.register_expr("v", |s: &One| *s.v.get());
        m.bind(|s| &mut s.v, &[v]);
        let cond = m.compile(v.cmp(op, key));
        let start = Instant::now();
        for _ in 0..setup_iters {
            m.enter(|g| g.wait(&cond));
        }
        let v2_ns = start.elapsed().as_nanos() as f64 / f64::from(setup_iters);
        let v2_counters = m.stats_snapshot().counters;
        record(workload, "v2_compiled_setup", v2_ns, 0.0, &v2_counters);
    }

    // --- end-to-end: fig11 shape, v1 shim vs v2 compiled ------------------
    struct Turn {
        turn: Tracked<i64>,
    }
    impl TrackedState for Turn {
        fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
            f(&mut self.turn);
        }
    }
    let threads = if sweep::full_scale() { 16 } else { 8 };
    let rounds = sweep::ops_per_thread(threads);
    for api in ["transient_percall", "v2_compiled", "v2_mutex_only"] {
        let m = Arc::new(Monitor::with_config(
            Turn {
                turn: Tracked::new(0),
            },
            MonitorConfig::default().fast_path(api != "v2_mutex_only"),
        ));
        let turn = m.register_expr("turn", |s: &Turn| *s.turn.get());
        m.bind(|s| &mut s.turn, &[turn]);
        let conds: Vec<_> = (0..threads as i64)
            .map(|id| m.compile(turn.eq(id)))
            .collect();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for id in 0..threads as i64 {
                let m = Arc::clone(&m);
                let cond = conds[id as usize].clone();
                scope.spawn(move || {
                    for _ in 0..rounds {
                        m.enter_tracked(|g| {
                            if api == "transient_percall" {
                                g.wait_transient(turn.eq(id));
                            } else {
                                g.wait(&cond);
                            }
                            let t = g.state_mut();
                            *t.turn = (*t.turn + 1).rem_euclid(threads as i64);
                        });
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        record(
            "fig11_round_robin",
            api,
            0.0,
            elapsed,
            &m.stats_snapshot().counters,
        );
    }

    // --- end-to-end: fig14 shape (threshold keys) and sharded queues ------
    // The migrated problem drivers *are* the v2 implementation; their
    // counters show named mutations on every run.
    let consumers = if sweep::full_scale() { 32 } else { 8 };
    let report = param_bounded_buffer::run(Mechanism::AutoSynch, fig14_config(consumers));
    record(
        "fig14_param_bounded_buffer",
        "v2_compiled",
        0.0,
        report.elapsed.as_secs_f64(),
        &report.stats.counters,
    );
    // The same fig14 run under the mutex-only ablation: the problem
    // driver builds its config through `Mechanism::monitor_config`,
    // which reads the ablation env flag.
    std::env::set_var("AUTOSYNCH_NO_FAST_PATH", "1");
    let report = param_bounded_buffer::run(Mechanism::AutoSynch, fig14_config(consumers));
    std::env::remove_var("AUTOSYNCH_NO_FAST_PATH");
    record(
        "fig14_param_bounded_buffer",
        "v2_mutex_only",
        0.0,
        report.elapsed.as_secs_f64(),
        &report.stats.counters,
    );
    let report = sharded_queues::run(Mechanism::AutoSynchCD, shard_queues_config(consumers / 2));
    record(
        "ext_sharded_queues",
        "v2_compiled",
        0.0,
        report.elapsed.as_secs_f64(),
        &report.stats.counters,
    );

    // --- enter/exit latency: the uncontended fast lane vs the ablation ----
    // Single thread, mutation-only occupancies: on the fast lane every
    // one of these is a CAS enter + atomic-AND exit; the ablation pays
    // the mutex and the relay decision. `setup(ns/wait)` carries the
    // mean enter→exit occupancy latency from the `enter_exit` stat.
    let lat_iters: u32 = if sweep::full_scale() { 400_000 } else { 80_000 };
    for (api, fast) in [("fast_path", true), ("mutex_only", false)] {
        let m = Monitor::with_config(
            One { v: Tracked::new(0) },
            MonitorConfig::default().fast_path(fast).timing(true),
        );
        let v = m.register_expr("v", |s: &One| *s.v.get());
        m.bind(|s| &mut s.v, &[v]);
        let start = Instant::now();
        for _ in 0..lat_iters {
            m.with_tracked(|s| *s.v += 1);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let snap = m.stats_snapshot();
        assert_eq!(m.with_tracked(|s| *s.v), i64::from(lat_iters));
        record(
            "uncontended_enter_exit",
            api,
            snap.enter_exit.mean_nanos(),
            elapsed,
            &snap.counters,
        );
    }
    // Contended: every thread hammers whole-occupancy mutations, the
    // shape where contended `with` calls publish into the combining
    // slab instead of convoying on the mutex.
    let lat_threads = if sweep::full_scale() { 16 } else { 8 };
    let per_thread = sweep::ops_per_thread(lat_threads) as i64;
    for (api, fast) in [("fast_path", true), ("mutex_only", false)] {
        let m = Arc::new(Monitor::with_config(
            One { v: Tracked::new(0) },
            MonitorConfig::default().fast_path(fast).timing(true),
        ));
        let v = m.register_expr("v", |s: &One| *s.v.get());
        m.bind(|s| &mut s.v, &[v]);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..lat_threads {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        m.with_tracked(|s| *s.v += 1);
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let snap = m.stats_snapshot();
        assert_eq!(
            m.with_tracked(|s| *s.v),
            per_thread * lat_threads as i64,
            "combined and elided occupancies must not lose increments"
        );
        record(
            "contended_enter_exit",
            api,
            snap.enter_exit.mean_nanos(),
            elapsed,
            &snap.counters,
        );
    }

    let json = format!("{{\n  \"benchmarks\": [\n{entries}\n  ]\n}}\n");
    let path = "BENCH_api.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("   [api-cost series written to {path}]"),
        Err(err) => eprintln!("   [failed to write {path}: {err}]"),
    }
    table
}

fn shard_queues_config(queues: usize) -> ShardedQueuesConfig {
    let queues = queues.max(2);
    ShardedQueuesConfig {
        queues,
        ops_per_queue: (sweep::ops_budget() / 4 / queues).max(8),
        capacity: 4,
    }
}

/// Extension: N independent work queues behind one monitor, runtime vs
/// queue count. The interesting comparison is within the automatic
/// family: the disequality predicates tag as `None`, so no tag index
/// prunes the relay search — the change-driven filter and the routed
/// mode's per-gate wakes are what keep it from scanning every queue.
pub fn ext_sharded_queues() -> Table {
    let mechanisms = Mechanism::WITHOUT_BASELINE;
    let mut table = Table::new(header("queues", &mechanisms));
    for n in sweep::thread_grid() {
        let config = shard_queues_config((n / 2).max(2));
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| sharded_queues::run(m, config))
            .collect();
        table.row(runtime_row(config.queues.to_string(), &reports));
    }
    table
}

fn barrier_config(parties: usize) -> BarrierConfig {
    BarrierConfig {
        parties,
        generations: (sweep::ops_budget() / 4 / parties).max(8),
    }
}

/// Extension: cyclic barrier, runtime vs parties — a second
/// `signalAll`-bound family beyond Fig. 14. The explicit release is one
/// broadcast per generation; AutoSynch turns it into a relay chain of
/// targeted signals.
pub fn ext_barrier() -> Table {
    let mechanisms = [Mechanism::Explicit, Mechanism::AutoSynch];
    let mut table = Table::new(header("parties", &mechanisms));
    for n in sweep::thread_grid() {
        let parties = n.max(2);
        let reports: Vec<RunReport> = mechanisms
            .iter()
            .map(|&m| cyclic_barrier::run(m, barrier_config(parties)))
            .collect();
        table.row(runtime_row(parties.to_string(), &reports));
    }
    table
}

/// Extension supplement: the signaling counters behind the barrier
/// curves at the largest grid point — explicit broadcasts once per
/// generation; AutoSynch signals each waiter individually and never
/// broadcasts.
pub fn ext_barrier_counters() -> Table {
    let mut table = Table::with_columns(&[
        "mechanism",
        "signals",
        "signalAll",
        "wakeups",
        "futile",
        "futile%",
    ]);
    let parties = if sweep::full_scale() { 64 } else { 16 };
    for mechanism in Mechanism::ALL {
        let report = cyclic_barrier::run(mechanism, barrier_config(parties));
        let c = report.stats.counters;
        table.row(vec![
            mechanism.label().to_owned(),
            c.signals.to_string(),
            c.broadcasts.to_string(),
            c.wakeups.to_string(),
            c.futile_wakeups.to_string(),
            format!("{:.1}", c.futile_ratio() * 100.0),
        ]);
    }
    table
}

/// Extension: the observability harness — wait-latency percentiles per
/// mode, a flight-recorder trace capture, and the telemetry no-harm
/// row.
///
/// Three artifacts per run:
///
/// * **`BENCH_obs.json` percentile rows** — three contention shapes
///   (fig11 round robin, fig14 parameterized buffer, the wake storm)
///   under every automatic mode with timing on; each row carries the
///   registration→return wait-latency p50/p90/p99/p999 from the
///   log-linear histogram (upper bucket bounds: never under-reported,
///   at most ~3.1% over) plus the mean. This is the tail-latency view
///   the mean-based figures can't show — two modes can share a mean
///   while one of them collapses the p999.
/// * **`TRACE_obs.json`** — a deterministic flight-recorder capture
///   (recording force-enabled around three small shaped runs, prior
///   state restored) written as Chrome trace-event JSON, loadable
///   as-is in Perfetto or `chrome://tracing`.
/// * **No-harm row** — the api table's uncontended enter/exit loop
///   re-run with the recorder force-*disabled*: CI diffs its mean
///   elided latency against `BENCH_api.json`'s `fast_path` row, the
///   check that a disabled recorder costs the hot path nothing beyond
///   one relaxed load.
pub fn obs() -> Table {
    use autosynch::config::MonitorConfig;
    use autosynch::telemetry;
    use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
    use std::time::Instant;

    let mut table = Table::with_columns(&[
        "workload",
        "mechanism",
        "p50(ns)",
        "p90(ns)",
        "p99(ns)",
        "p999(ns)",
        "mean(ns)",
        "waits",
    ]);
    let mut entries = String::new();
    let mut record = |workload: &str, mechanism: &str, report: &RunReport| {
        let w = report.stats.wait;
        table.row(vec![
            workload.to_owned(),
            mechanism.to_owned(),
            w.p50.to_string(),
            w.p90.to_string(),
            w.p99.to_string(),
            w.p999.to_string(),
            format!("{:.1}", w.mean_nanos()),
            w.holds.to_string(),
        ]);
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"mechanism\": \"{mechanism}\", \
             \"wait_p50_ns\": {}, \"wait_p90_ns\": {}, \"wait_p99_ns\": {}, \
             \"wait_p999_ns\": {}, \"wait_mean_ns\": {:.2}, \"waits\": {}, \
             \"elapsed_s\": {:.6}}}",
            w.p50,
            w.p90,
            w.p99,
            w.p999,
            w.mean_nanos(),
            w.holds,
            report.elapsed.as_secs_f64(),
        ));
    };

    // --- wait-latency percentiles: three shapes x every automatic mode ----
    let rr_threads = if sweep::full_scale() { 16 } else { 8 };
    let rr_config = RoundRobinConfig {
        threads: rr_threads,
        rounds: sweep::ops_per_thread(rr_threads),
    };
    let consumers = if sweep::full_scale() { 16 } else { 8 };
    for mechanism in Mechanism::AUTOMATIC {
        let report = round_robin::run_timed(mechanism, rr_config);
        record("fig11_round_robin", mechanism.label(), &report);
    }
    for mechanism in Mechanism::AUTOMATIC {
        let report = param_bounded_buffer::run_timed(mechanism, fig14_config(consumers));
        record("fig14_param_bounded_buffer", mechanism.label(), &report);
    }
    for mechanism in Mechanism::AUTOMATIC {
        let report = wake_storm::run_timed(mechanism, wake_storm_config());
        record("ext_wake_storm", mechanism.label(), &report);
    }

    // --- flight-recorder capture -----------------------------------------
    struct One {
        v: Tracked<i64>,
    }
    impl TrackedState for One {
        fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
            f(&mut self.v);
        }
    }
    let was_on = telemetry::enabled();
    telemetry::set_enabled(true);
    drop(telemetry::drain_all()); // discard events from the runs above
    {
        // Elided enters: a quiescent single-thread mutation loop.
        let m = Monitor::new(One { v: Tracked::new(0) });
        let v = m.register_expr("v", |s: &One| *s.v.get());
        m.bind(|s| &mut s.v, &[v]);
        for _ in 0..256 {
            m.with_tracked(|s| *s.v += 1);
        }
        // Combined/slow enters and gate waits: contended mutations.
        let m = Arc::new(Monitor::new(One { v: Tracked::new(0) }));
        let v = m.register_expr("v", |s: &One| *s.v.get());
        m.bind(|s| &mut s.v, &[v]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..256 {
                        m.with_tracked(|s| *s.v += 1);
                    }
                });
            }
        });
    }
    // Parks, self-checks, token sweeps, relay passes: a small shaped
    // run through the routed mode.
    let small_rr = RoundRobinConfig {
        threads: 4,
        rounds: 32,
    };
    round_robin::run(Mechanism::AutoSynchRoute, small_rr);
    let events = telemetry::drain_all().events;
    telemetry::set_enabled(was_on);
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind.name()).collect();
    let trace_path = "TRACE_obs.json";
    match crate::trace::write_chrome_trace(trace_path, &events) {
        Ok(()) => println!(
            "   [flight-recorder trace written to {trace_path}: {} events, {} kinds]",
            events.len(),
            kinds.len()
        ),
        Err(err) => eprintln!("   [failed to write {trace_path}: {err}]"),
    }

    // --- no-harm: the api uncontended loop with the recorder off ---------
    let lat_iters: u32 = if sweep::full_scale() { 400_000 } else { 80_000 };
    let was_on = telemetry::enabled();
    telemetry::set_enabled(false);
    let m = Monitor::with_config(
        One { v: Tracked::new(0) },
        MonitorConfig::default().fast_path(true).timing(true),
    );
    let v = m.register_expr("v", |s: &One| *s.v.get());
    m.bind(|s| &mut s.v, &[v]);
    let start = Instant::now();
    for _ in 0..lat_iters {
        m.with_tracked(|s| *s.v += 1);
    }
    let elapsed = start.elapsed().as_secs_f64();
    telemetry::set_enabled(was_on);
    let snap = m.stats_snapshot();
    assert_eq!(m.with_tracked(|s| *s.v), i64::from(lat_iters));
    assert!(
        snap.counters.fast_path_enters > 0,
        "the no-harm loop must take the elided lane"
    );
    table.row(vec![
        "uncontended_enter_exit".to_owned(),
        "telemetry_off".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        format!("{:.1}", snap.enter_exit.mean_nanos()),
        "0".to_owned(),
    ]);
    entries.push_str(&format!(
        ",\n    {{\"workload\": \"uncontended_enter_exit\", \
         \"mechanism\": \"telemetry_off\", \
         \"enter_exit_mean_ns\": {:.2}, \"fast_path_enters\": {}, \
         \"elapsed_s\": {elapsed:.6}}}",
        snap.enter_exit.mean_nanos(),
        snap.counters.fast_path_enters,
    ));

    let json = format!("{{\n  \"benchmarks\": [\n{entries}\n  ]\n}}\n");
    let path = "BENCH_obs.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("   [observability series written to {path}]"),
        Err(err) => eprintln!("   [failed to write {path}: {err}]"),
    }
    table
}

/// Extension: the async waiter front-end — the 100k-waiter scale proof
/// plus async-vs-threaded equivalence rows, all under
/// `AutoSynch-Route` (async waiters are routed bucket entries).
///
/// Three artifacts per run:
///
/// * **The scale proof** — the wake storm driven by `wait_async`
///   futures on the miniexec shim with registration hold-off: every
///   channel starts at `-1` so no predicate is true, a kicker releases
///   them only once **all 100,000+ waiters are registered at once**
///   (`peak_waiters` is the count observed at release), and the row
///   records the registration→claim wait-latency p50/p90/p99/p999.
///   Thread-backed waiters cannot reach this point — 10⁵ stacks don't
///   fit; 10⁵ bucket entries and wakers do.
/// * **Equivalence rows** — the wake storm, the Fig. 11 round-robin
///   shape, and the sharded queues each run twice at equal operation
///   counts: task-backed (`-async` rows) and thread-backed. Both
///   complete the identical pass/item totals (asserted inside the
///   drivers) with zero broadcasts.
/// * **`TRACE_async.json`** — a flight-recorder capture of a small
///   async storm (recording force-enabled, prior state restored), so
///   the `async_poll` and `waker_wake` event kinds can be asserted
///   downstream.
pub fn async_waiters() -> Table {
    use autosynch::telemetry;

    let mut table = Table::with_columns(&[
        "workload",
        "mechanism",
        "waiters",
        "peak",
        "p50(ns)",
        "p99(ns)",
        "p999(ns)",
        "waits",
        "false",
        "elapsed(s)",
    ]);
    let mut entries = String::new();
    let mut record = |workload: &str,
                      mechanism: &str,
                      waiters: usize,
                      peak: usize,
                      stats: &autosynch::StatsSnapshot,
                      elapsed: std::time::Duration| {
        let w = stats.wait;
        let c = stats.counters;
        table.row(vec![
            workload.to_owned(),
            mechanism.to_owned(),
            waiters.to_string(),
            peak.to_string(),
            w.p50.to_string(),
            w.p99.to_string(),
            w.p999.to_string(),
            w.holds.to_string(),
            c.false_wakeups.to_string(),
            secs(elapsed),
        ]);
        if !entries.is_empty() {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"mechanism\": \"{mechanism}\", \
             \"waiters\": {waiters}, \"peak_waiters\": {peak}, \
             \"wait_p50_ns\": {}, \"wait_p90_ns\": {}, \"wait_p99_ns\": {}, \
             \"wait_p999_ns\": {}, \"waits\": {}, \"false_wakeups\": {}, \
             \"broadcasts\": {}, \"elapsed_s\": {:.6}}}",
            w.p50,
            w.p90,
            w.p99,
            w.p999,
            w.holds,
            c.false_wakeups,
            c.broadcasts,
            elapsed.as_secs_f64(),
        ));
    };

    // --- the 100k-waiter scale proof (full size even in quick mode:
    // the point IS the scale) --------------------------------------------
    let (channels, per_channel) = (4, 25_000);
    let report = asynch::run_storm(AsyncStormConfig {
        channels,
        waiters: per_channel,
        rounds: 1,
        workers: asynch::default_workers(),
        holdoff: true,
        timed: true,
    });
    record(
        "ext_wake_storm_async",
        "AutoSynch-Route-async",
        report.waiters,
        report.peak_waiters,
        &report.stats,
        report.elapsed,
    );

    // --- async vs threaded at equal operation counts ---------------------
    let storm_cfg = wake_storm_config();
    let a = asynch::run_storm(AsyncStormConfig {
        channels: storm_cfg.channels,
        waiters: storm_cfg.waiters,
        rounds: storm_cfg.rounds,
        workers: asynch::default_workers(),
        holdoff: false,
        timed: true,
    });
    record(
        "ext_wake_storm_eq",
        "AutoSynch-Route-async",
        a.waiters,
        a.peak_waiters,
        &a.stats,
        a.elapsed,
    );
    let t = wake_storm::run_timed(Mechanism::AutoSynchRoute, storm_cfg);
    record(
        "ext_wake_storm_eq",
        "AutoSynch-Route",
        t.threads,
        0,
        &t.stats,
        t.elapsed,
    );

    let rr_threads = 8;
    let rr_rounds = sweep::ops_per_thread(rr_threads);
    let a = asynch::run_storm(AsyncStormConfig {
        channels: 1,
        waiters: rr_threads,
        rounds: rr_rounds,
        workers: asynch::default_workers(),
        holdoff: false,
        timed: true,
    });
    record(
        "fig11_round_robin_eq",
        "AutoSynch-Route-async",
        a.waiters,
        a.peak_waiters,
        &a.stats,
        a.elapsed,
    );
    let t = round_robin::run_timed(
        Mechanism::AutoSynchRoute,
        RoundRobinConfig {
            threads: rr_threads,
            rounds: rr_rounds,
        },
    );
    record(
        "fig11_round_robin_eq",
        "AutoSynch-Route",
        t.threads,
        0,
        &t.stats,
        t.elapsed,
    );

    let queues = 4;
    let items = (sweep::ops_budget() / 8 / queues).max(64);
    let a = asynch::run_queues(AsyncQueuesConfig {
        queues,
        capacity: 4,
        items: items as u64,
        workers: asynch::default_workers(),
        timed: true,
    });
    record(
        "ext_sharded_queues_eq",
        "AutoSynch-Route-async",
        queues * 2,
        0,
        &a.stats,
        a.elapsed,
    );
    let t = sharded_queues::run_timed(
        Mechanism::AutoSynchRoute,
        ShardedQueuesConfig {
            queues,
            ops_per_queue: items,
            capacity: 4,
        },
    );
    record(
        "ext_sharded_queues_eq",
        "AutoSynch-Route",
        t.threads,
        0,
        &t.stats,
        t.elapsed,
    );

    // --- flight-recorder capture of the async protocol -------------------
    let was_on = telemetry::enabled();
    telemetry::set_enabled(true);
    drop(telemetry::drain_all()); // discard events from the runs above
    asynch::run_storm(AsyncStormConfig {
        channels: 2,
        waiters: 4,
        rounds: 16,
        workers: 2,
        holdoff: false,
        timed: false,
    });
    let events = telemetry::drain_all().events;
    telemetry::set_enabled(was_on);
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind.name()).collect();
    let trace_path = "TRACE_async.json";
    match crate::trace::write_chrome_trace(trace_path, &events) {
        Ok(()) => println!(
            "   [async flight-recorder trace written to {trace_path}: {} events, {} kinds]",
            events.len(),
            kinds.len()
        ),
        Err(err) => eprintln!("   [failed to write {trace_path}: {err}]"),
    }

    let json = format!("{{\n  \"benchmarks\": [\n{entries}\n  ]\n}}\n");
    let path = "BENCH_async.json";
    match std::fs::write(path, json) {
        Ok(()) => println!("   [async waiter series written to {path}]"),
        Err(err) => eprintln!("   [failed to write {path}: {err}]"),
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // The figure sweeps are exercised end-to-end by the reproduce
    // binary; here we only smoke-test the cheapest figure wiring with a
    // tiny budget to keep the unit suite fast.
    #[test]
    fn fig14_config_scales_with_consumers() {
        let small = fig14_config(2);
        let large = fig14_config(64);
        assert!(small.takes_per_consumer >= large.takes_per_consumer);
        assert_eq!(small.capacity, 256);
    }

    #[test]
    fn header_layout() {
        let h = header("threads", &Mechanism::WITHOUT_BASELINE);
        assert_eq!(h.len(), 1 + Mechanism::WITHOUT_BASELINE.len());
        assert_eq!(h[0], "threads");
        assert_eq!(h[3], "AutoSynch");
        assert_eq!(h[5], "AutoSynch-Route");
    }

    #[test]
    fn shard_queues_config_scales_with_queues() {
        let small = shard_queues_config(2);
        let large = shard_queues_config(32);
        assert!(small.ops_per_queue >= large.ops_per_queue);
        assert!(large.queues >= 32);
    }
}
