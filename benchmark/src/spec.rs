//! The benchmark's contract: workloads, metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root is this module
//! printed (`spec` subcommand); a test holds the two together.

use crate::json::Json;
use crate::workloads::{CellKind, Workload, MECHANISMS};

/// What `--seconds` the driver passes: the timed phases of one run add
/// up to about this on the reference box.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
        Metric {
            name: name.into(),
            unit,
            better,
            bound: None,
        }
    }

    fn bounded(mut self, bound: f64) -> Metric {
        self.bound = Some(bound);
        self
    }
}

/// One line on why the workload is in the benchmark.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::Ring => {
            "Fig. 11: 32 threads, one CPU, waituntil(turn == i); every op blocks and every relay is an \
             eq-tag hit, so relay, wake delivery and wait-loop cost show at full share"
        }
        Workload::Pbb => {
            "Figs. 14/15: 1 producer + 64 consumers on threshold tags over 256 keys; several waiters \
             true at once, explicit must signalAll; the one workload where relay choice matters"
        }
        Workload::Bystanders => {
            "1 writer + 64 parked waiters (eq, threshold, untagged) whose conditions stay false: every \
             probe misses; a hit-path gain that taxes misses shows here"
        }
        Workload::Contend2 => {
            "2 threads on 2 CPUs, nobody blocks on a condition: mutex hand-off, failed lane CAS, flat \
             combining and shared counter lines; relay and wake do no work"
        }
        Workload::Quiet => {
            "contend2's op mix on 1 thread: elided CAS lane, tracked drain, true-at-entry wait; the \
             no-change control for every relay, wake or contention change"
        }
    }
}

/// Bound on throughput, its ratios and CPU per op. One bound per metric
/// covers all workloads, so it is the one the only parallel workload,
/// `contend2`, needs.
const RATE_BOUND: f64 = 0.10;

pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut metrics = vec![Metric::new("setup_s", "s", Lower).bounded(0.25)];
    for m in MECHANISMS {
        metrics.push(
            Metric::new(format!("ops_per_s.{}", m.name()), "op/s", Higher).bounded(RATE_BOUND),
        );
    }
    for m in &MECHANISMS[1..] {
        metrics.push(
            Metric::new(format!("slowdown.{}", m.name()), "ratio", Lower).bounded(RATE_BOUND),
        );
    }
    metrics.push(Metric::new("cpu_us_per_op.tagged", "us", Lower).bounded(RATE_BOUND));
    metrics.push(Metric::new("peak_rss_mb", "MB", Lower).bounded(0.10));
    metrics
}

pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let all = MECHANISMS.map(CellKind::name);
    let automatic = &all[1..];
    let mut metrics = Vec::new();
    let mut family = |stem: &str, unit: &'static str, better: Better, mechanisms: &[&str]| {
        for m in mechanisms {
            metrics.push(Metric::new(format!("{stem}.{m}"), unit, better));
        }
    };
    family("monitor.acquire_ns", "ns", Lower, &all);
    family("monitor.wait_ns", "ns", Lower, &all);
    family("monitor.release_ns", "ns", Lower, &all);
    family("workload.body_ns", "ns", Lower, &all);
    family("wake.latency_p50_us", "us", Lower, &all);
    family("wake.latency_p99_us", "us", Lower, &all);
    family("wake.blocked_share", "ratio", Lower, &all);
    family("monitor.wakeups_per_op", "1/op", Lower, &all);
    family("wake.yield", "ratio", Higher, &all);
    family("manager.pred_evals_per_op", "1/op", Lower, automatic);
    family("manager.relay_calls_per_op", "1/op", Lower, automatic);
    family("monitor.fast_path_share", "ratio", Higher, automatic);
    family("os.ctx_voluntary_per_op", "1/op", Lower, &all);
    family("os.ctx_involuntary_per_op", "1/op", Lower, &all);
    family("os.cpu_us_per_op", "us", Lower, &all);
    family("harness.trace_overhead_pct", "%", Lower, &all);
    for (name, unit) in [
        ("os.floor_ns_per_op", "ns"),
        ("os.clock_read_ns", "ns"),
        ("telemetry.recorder_on_slowdown.tagged", "ratio"),
        ("telemetry.timing_on_slowdown.tagged", "ratio"),
        ("predicate.compile_us_per_cond", "us"),
        ("monitor.construct_us", "us"),
        ("harness.spawn_pin_us_per_thread", "us"),
    ] {
        metrics.push(Metric::new(name, unit, Lower));
    }
    metrics
}

fn metric_json(m: &Metric) -> Json {
    let better = match m.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut pairs = vec![
        ("name", Json::Str(m.name.clone())),
        ("unit", Json::Str(m.unit.into())),
        ("better", Json::Str(better.into())),
    ];
    if let Some(bound) = m.bound {
        pairs.push(("bound", Json::Num(bound)));
    }
    Json::obj(pairs)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(why(*w).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 10);
        assert_eq!(layers.len(), 68);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        for m in e2e.iter().chain(&layers) {
            assert!(well_formed(&m.name, 64, "_.-"), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 78, "a metric name is used twice");
        assert!(e2e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(layers.iter().all(|m| m.bound.is_none()));
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for w in Workload::ALL {
            let why = why(w);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: {}",
                w.name(),
                why.len()
            );
        }
        assert!(benchmark_json().pretty().len() < 64 * 1024);
    }
}
