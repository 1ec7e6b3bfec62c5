//! One run of one workload: the rounds of cells, and the metrics made
//! from them. The untraced run yields the end-to-end metrics; the traced
//! run yields the per-layer metrics and the trace file.

use std::path::PathBuf;
use std::time::Duration;

use autosynch::telemetry;

use crate::harness::{run_cell, CellResult};
use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::sys::{self, Cpus};
use crate::trace::{chrome_events, write_chrome_trace, Ledger, SEGMENTS};
use crate::workloads::{self, CellKind, Workload, MECHANISMS, ROUNDS};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// The timed phases of an untraced run add up to about this on the
    /// reference box; cell sizes scale with it.
    pub seconds: f64,
    pub trace: bool,
    /// Where `TRACE_<workload>.json` goes.
    pub out_dir: PathBuf,
    /// A cell without a completed op for this long is abandoned.
    pub stall: Duration,
}

/// A metric's value over the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The median.
    pub value: f64,
    pub min: f64,
    /// Median absolute deviation.
    pub mad: f64,
    pub n: usize,
}

impl Stat {
    fn of(series: &[f64]) -> Stat {
        Stat {
            value: stats::median(series),
            min: stats::min(series),
            mad: stats::mad(series),
            n: series.len(),
        }
    }
}

#[derive(Debug)]
pub struct Report {
    pub options: Options,
    pub attempted: u64,
    pub failed: u64,
    /// In the order of [`spec::end_to_end`] or [`spec::per_layer`].
    pub metrics: Vec<(spec::Metric, Stat)>,
    /// Everything else worth keeping: environment, cells, shape checks.
    pub detail: Json,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one object the contract asks for on the last line.
    pub fn contract_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(m, s)| {
            let value = Json::obj([
                ("value", Json::Num(s.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), value)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full report: what `compare` reads.
    pub fn full_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(m, s)| {
            let mut pairs = vec![
                ("value", Json::Num(s.value)),
                ("unit", Json::Str(m.unit.into())),
                ("min", Json::Num(s.min)),
                ("mad", Json::Num(s.mad)),
                ("n", Json::Num(s.n as f64)),
            ];
            if let Some(bound) = m.bound {
                pairs.push(("bound", Json::Num(bound)));
            }
            (m.name.clone(), Json::obj(pairs))
        });
        Json::obj([
            ("workload", Json::Str(self.options.workload.name().into())),
            ("seed", Json::Num(self.options.seed as f64)),
            ("seconds", Json::Num(self.options.seconds)),
            ("trace", Json::Bool(self.options.trace)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("metrics", Json::obj(metrics)),
            ("detail", self.detail.clone()),
        ])
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn cell_json(kind: CellKind, round: usize, traced: bool, c: &CellResult) -> Json {
    Json::obj([
        ("mechanism", Json::Str(kind.name().into())),
        ("round", Json::Num(round as f64)),
        ("traced", Json::Bool(traced)),
        ("ops", Json::Num(c.attempted as f64)),
        ("failed", Json::Num(c.failed as f64)),
        ("abandoned", Json::Bool(c.abandoned)),
        ("wall_s", Json::Num(c.wall_ns as f64 / 1e9)),
        ("ns_per_op", Json::Num(c.ns_per_op())),
        ("setup_ms", Json::Num(c.setup.total_ns as f64 / 1e6)),
        ("cpu_s", Json::Num(c.usage.cpu_ns as f64 / 1e9)),
        ("ctx_voluntary", Json::Num(c.usage.voluntary as f64)),
        ("ctx_involuntary", Json::Num(c.usage.involuntary as f64)),
    ])
}

struct Runner<'a> {
    options: &'a Options,
    cpus: Cpus,
    /// Taken before the first cell: the load average is the machine's,
    /// not this run's.
    environment: Json,
    attempted: u64,
    failed: u64,
    cells: Vec<Json>,
    /// Chrome trace events of the traced cells.
    events: Vec<Json>,
}

/// What a cell's process is told, and all it is told.
#[derive(Debug, Clone, Copy)]
pub struct CellOrder {
    pub workload: Workload,
    pub kind: CellKind,
    pub ops: u64,
    pub seed: u64,
    pub traced: bool,
    pub stall: Duration,
    pub cpus: Cpus,
}

impl CellOrder {
    fn to_args(self) -> Vec<String> {
        vec![
            "cell".to_owned(),
            self.workload.name().to_owned(),
            self.kind.name().to_owned(),
            self.ops.to_string(),
            self.seed.to_string(),
            (self.traced as u8).to_string(),
            self.stall.as_millis().to_string(),
            self.cpus.harness.to_string(),
            self.cpus.worker.to_string(),
        ]
    }

    /// The inverse of `to_args`, less the leading `cell`.
    pub fn from_args(args: &[String]) -> Option<CellOrder> {
        let [workload, kind, ops, seed, traced, stall_ms, harness, worker] = args else {
            return None;
        };
        Some(CellOrder {
            workload: Workload::from_name(workload)?,
            kind: CellKind::ALL.into_iter().find(|k| k.name() == kind)?,
            ops: ops.parse().ok()?,
            seed: seed.parse().ok()?,
            traced: traced == "1",
            stall: Duration::from_millis(stall_ms.parse().ok()?),
            cpus: Cpus {
                harness: harness.parse().ok()?,
                worker: worker.parse().ok()?,
            },
        })
    }

    /// Runs the cell in this process and returns what its process
    /// prints: the result and, if traced, the trace events.
    pub fn execute(self) -> Json {
        sys::pin_to(self.cpus.harness);
        if self.kind == CellKind::TaggedRecorder {
            telemetry::set_enabled(true);
        }
        let build = || workloads::build(self.workload, self.kind, self.ops, self.seed, self.cpus);
        let result = run_cell(build, self.cpus, self.traced, self.stall);
        let label = format!("{}.{}", self.workload.name(), self.kind.name());
        let pid = MECHANISMS
            .iter()
            .position(|m| *m == self.kind)
            .unwrap_or(MECHANISMS.len());
        let events = if self.traced {
            chrome_events(&label, pid, &result.records)
        } else {
            Vec::new()
        };
        Json::obj([("result", result.to_json()), ("events", Json::Arr(events))])
    }

    /// Runs the cell in a process of its own: every cell starts from the
    /// same heap, the same thread stacks and the same predictor state,
    /// whatever ran before it, and a cell that stalls takes its stuck
    /// threads with it.
    fn spawn(self) -> Result<(CellResult, Vec<Json>), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let output = std::process::Command::new(exe)
            .args(self.to_args())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let json =
            Json::parse(stdout.trim()).map_err(|e| format!("exit {}: {e}", output.status))?;
        let result = json.get("result").and_then(CellResult::from_json);
        let events = json
            .get("events")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        Ok((
            result.ok_or("no result in the cell's output")?,
            events.to_vec(),
        ))
    }
}

impl Runner<'_> {
    fn cell(&mut self, kind: CellKind, round: usize, traced: bool) -> CellResult {
        let o = self.options;
        let order = CellOrder {
            workload: o.workload,
            kind,
            ops: workloads::cell_ops(o.workload, kind, o.seconds),
            seed: o.seed,
            traced,
            stall: o.stall,
            cpus: self.cpus,
        };
        let result = match order.spawn() {
            Ok((result, events)) => {
                self.events.extend(events);
                result
            }
            Err(e) => {
                eprintln!("  {}.{} was lost: {e}", o.workload.name(), kind.name());
                CellResult::lost(order.ops)
            }
        };
        self.attempted += result.attempted;
        self.failed += result.failed;
        self.cells.push(cell_json(kind, round, traced, &result));
        eprintln!(
            "  {:>10}.{:<15} round {round}{} {:>9} ops  {:>10.1} ns/op  setup {:>6.2} ms{}",
            o.workload.name(),
            kind.name(),
            if traced { " traced" } else { "" },
            result.attempted,
            result.ns_per_op(),
            result.setup.total_ns as f64 / 1e6,
            if result.abandoned { "  ABANDONED" } else { "" },
        );
        result
    }

    /// One round: the four mechanisms on fresh instances, starting from
    /// a different one each round so that none always runs first.
    fn round(&mut self, round: usize, traced: bool) -> [CellResult; 4] {
        let mut results: [Option<CellResult>; 4] = [None, None, None, None];
        for i in 0..MECHANISMS.len() {
            let slot = (i + round) % MECHANISMS.len();
            results[slot] = Some(self.cell(MECHANISMS[slot], round, traced));
        }
        results.map(|r| r.expect("every mechanism ran"))
    }

    fn report(
        self,
        metrics: Vec<(spec::Metric, Stat)>,
        extra: Vec<(&'static str, Json)>,
    ) -> Report {
        let o = self.options;
        let ops_per_cell = MECHANISMS.iter().map(|m| {
            (
                m.name(),
                Json::Num(workloads::cell_ops(o.workload, *m, o.seconds) as f64),
            )
        });
        let mut detail = vec![
            ("environment", self.environment),
            ("ops_per_cell", Json::obj(ops_per_cell)),
            ("cells", Json::Arr(self.cells)),
        ];
        detail.extend(extra);
        Report {
            options: o.clone(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            detail: Json::obj(detail),
        }
    }
}

/// The paper's shape where the workload has one (printed, not gating).
fn paper_shape(workload: Workload, slowdown_tagged: f64) -> Option<Json> {
    let (claim, holds) = match workload {
        Workload::Ring => (
            "1.0 < slowdown.tagged < 2.6 (Fig. 11)",
            slowdown_tagged > 1.0 && slowdown_tagged < 2.6,
        ),
        Workload::Pbb => ("slowdown.tagged < 1 (Fig. 14)", slowdown_tagged < 1.0),
        _ => return None,
    };
    eprintln!(
        "  paper shape: {claim}: {} (slowdown.tagged = {slowdown_tagged:.3})",
        if holds { "holds" } else { "DOES NOT HOLD" }
    );
    Some(Json::obj([
        ("claim", Json::Str(claim.into())),
        ("holds", Json::Bool(holds)),
    ]))
}

/// Splits `stem.mechanism` into the stem and the mechanism's index in
/// [`MECHANISMS`]; a name without a mechanism is its own stem.
fn split_metric(name: &str) -> (&str, usize) {
    name.rsplit_once('.')
        .and_then(|(stem, mech)| Some((stem, MECHANISMS.iter().position(|m| m.name() == mech)?)))
        .unwrap_or((name, 0))
}

fn end_to_end(mut runner: Runner<'_>) -> Report {
    let rounds: Vec<[CellResult; 4]> = (0..ROUNDS).map(|r| runner.round(r, false)).collect();
    let series =
        |f: &dyn Fn(&[CellResult; 4]) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let metrics: Vec<(spec::Metric, Stat)> = spec::end_to_end()
        .into_iter()
        .map(|metric| {
            let (stem, i) = split_metric(&metric.name);
            let values = match stem {
                "setup_s" => {
                    series(&|r| r.iter().map(|c| c.setup.total_ns).sum::<u64>() as f64 / 1e9)
                }
                "ops_per_s" => series(&|r| r[i].ops_per_s()),
                // Paired within the round: both cells saw the same
                // machine state.
                "slowdown" => series(&|r| ratio(r[0].ops_per_s(), r[i].ops_per_s())),
                "cpu_us_per_op" => {
                    series(&|r| ratio(r[i].usage.cpu_ns as f64 / 1e3, r[i].attempted as f64))
                }
                // The highest reading over all cells; there is one per
                // run, so it has no spread of its own.
                "peak_rss_mb" => vec![rounds
                    .iter()
                    .flatten()
                    .map(|c| c.peak_rss_mb)
                    .fold(0.0, f64::max)],
                other => panic!("no value for end-to-end metric {other}"),
            };
            (metric, Stat::of(&values))
        })
        .collect();
    let slowdown_tagged = metrics
        .iter()
        .find(|(m, _)| m.name == "slowdown.tagged")
        .map_or(0.0, |(_, s)| s.value);
    let shape = paper_shape(runner.options.workload, slowdown_tagged);
    runner.report(
        metrics,
        shape.map(|s| ("paper_shape", s)).into_iter().collect(),
    )
}

fn per_layer(mut runner: Runner<'_>) -> Report {
    let plain = runner.round(0, false);
    let traced = runner.round(1, true);
    let bare = runner.cell(CellKind::Bare, 2, false);
    let recorder = runner.cell(CellKind::TaggedRecorder, 2, false);
    let timing = runner.cell(CellKind::TaggedTiming, 2, false);

    let ledgers: Vec<Ledger> = traced.iter().map(|c| c.ledger).collect();
    let tagged = &plain[1];
    let metrics: Vec<(spec::Metric, Stat)> = spec::per_layer()
        .into_iter()
        .map(|metric| {
            let (stem, i) = split_metric(&metric.name);
            let (cell, ledger) = (&plain[i], &ledgers[i]);
            let counters = cell.counters.unwrap_or_default();
            let per_op = |count: u64| ratio(count as f64, cell.attempted as f64);
            let value = match stem {
                "monitor.acquire_ns" => ledger.segment_ns[0],
                "monitor.wait_ns" => ledger.segment_ns[1],
                "workload.body_ns" => ledger.segment_ns[2],
                "monitor.release_ns" => ledger.segment_ns[3],
                "wake.latency_p50_us" => ledger.wake_p50_us,
                "wake.latency_p99_us" => ledger.wake_p99_us,
                "wake.blocked_share" => ledger.blocked_share,
                "monitor.wakeups_per_op" => per_op(counters.wakeups),
                // Each op that blocked ends with exactly one productive
                // wakeup; every other wakeup was wasted. No wakeups,
                // none wasted.
                "wake.yield" if counters.wakeups == 0 => 1.0,
                "wake.yield" => (counters.waits as f64 / counters.wakeups as f64).min(1.0),
                "manager.pred_evals_per_op" => per_op(counters.pred_evals),
                "manager.relay_calls_per_op" => per_op(counters.relay_calls),
                "monitor.fast_path_share" => {
                    ratio(counters.fast_path_enters as f64, counters.enters as f64)
                }
                "os.ctx_voluntary_per_op" => per_op(cell.usage.voluntary),
                "os.ctx_involuntary_per_op" => per_op(cell.usage.involuntary),
                "os.cpu_us_per_op" => per_op(cell.usage.cpu_ns) / 1e3,
                "harness.trace_overhead_pct" => {
                    (ratio(traced[i].ns_per_op(), cell.ns_per_op()) - 1.0) * 100.0
                }
                "os.floor_ns_per_op" => bare.ns_per_op(),
                "os.clock_read_ns" => sys::clock_read_ns(),
                "telemetry.recorder_on_slowdown" => ratio(recorder.ns_per_op(), tagged.ns_per_op()),
                "telemetry.timing_on_slowdown" => ratio(timing.ns_per_op(), tagged.ns_per_op()),
                "predicate.compile_us_per_cond" => ratio(
                    tagged.setup.compile_ns as f64 / 1e3,
                    tagged.setup.conds as f64,
                ),
                "monitor.construct_us" => tagged.setup.construct_ns as f64 / 1e3,
                "harness.spawn_pin_us_per_thread" => ratio(
                    tagged.setup.spawn_pin_ns as f64 / 1e3,
                    tagged.setup.threads as f64,
                ),
                other => panic!("no value for per-layer metric {other}"),
            };
            (metric, Stat::of(&[value]))
        })
        .collect();

    let o = runner.options;
    let ledger_json = MECHANISMS.iter().zip(&ledgers).map(|(m, l)| {
        let mut pairs = vec![
            ("ops_traced", Json::Num(l.ops as f64)),
            ("wakes", Json::Num(l.wakes as f64)),
        ];
        pairs.extend(
            SEGMENTS
                .iter()
                .zip(l.segment_ns)
                .map(|(s, ns)| (*s, Json::Num(ns))),
        );
        pairs.push(("op_ns", Json::Num(l.segment_ns.iter().sum())));
        (m.name(), Json::obj(pairs))
    });
    let path = o.out_dir.join(format!("TRACE_{}.json", o.workload.name()));
    let mut extra = vec![("ledger", Json::obj(ledger_json))];
    match write_chrome_trace(&path, &runner.events) {
        Ok(()) => extra.push(("trace_file", Json::Str(path.display().to_string()))),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
    runner.report(metrics, extra)
}

/// Runs the workload once: every cell in a process of its own, this one
/// only waiting for them.
pub fn run(options: &Options, cpus: Cpus) -> Report {
    let environment = sys::environment(cpus);
    eprintln!(
        "  {} seed {} seconds {} trace {}: {environment}",
        options.workload.name(),
        options.seed,
        options.seconds,
        options.trace
    );
    let runner = Runner {
        options,
        cpus,
        environment,
        attempted: 0,
        failed: 0,
        cells: Vec::new(),
        events: Vec::new(),
    };
    if options.trace {
        per_layer(runner)
    } else {
        end_to_end(runner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_order_survives_the_trip_between_processes() {
        let order = CellOrder {
            workload: Workload::Pbb,
            kind: CellKind::TaggedTiming,
            ops: 12_345,
            seed: u64::MAX,
            traced: true,
            stall: Duration::from_millis(250),
            cpus: Cpus {
                harness: 0,
                worker: 3,
            },
        };
        let args = order.to_args();
        assert_eq!(args[0], "cell");
        let back = CellOrder::from_args(&args[1..]).unwrap();
        assert_eq!(format!("{back:?}"), format!("{order:?}"));
        assert!(CellOrder::from_args(&args[2..]).is_none());
    }

    #[test]
    fn metric_names_split_into_stem_and_mechanism() {
        assert_eq!(split_metric("ops_per_s.cd"), ("ops_per_s", 2));
        assert_eq!(
            split_metric("telemetry.timing_on_slowdown.tagged"),
            ("telemetry.timing_on_slowdown", 1)
        );
        assert_eq!(
            split_metric("os.floor_ns_per_op"),
            ("os.floor_ns_per_op", 0)
        );
        assert_eq!(split_metric("setup_s"), ("setup_s", 0));
    }
}
