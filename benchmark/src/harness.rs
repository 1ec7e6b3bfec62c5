//! One cell: a fresh instance, fresh pinned threads, an untimed warm-up,
//! then the timed op sequence — under a progress watchdog, so a lost
//! wakeup ends as a count of failed ops and not as a hang.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use autosynch_metrics::counters::CounterSnapshot;

use crate::json::Json;
use crate::sys::{self, now_ns, pin_to, Cpus, Rusage};
use crate::trace::{Ledger, Off, OpRecord, ThreadTrace, Tracer, FILE_OPS_PER_CELL};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Timed,
}

/// One workload under one mechanism, built and ready to run.
pub trait Instance: Send + Sync {
    fn threads(&self) -> usize;

    /// Thread 0 runs on the harness CPU instead of the worker CPU. Only
    /// a workload in which nobody blocks on a condition may ask for
    /// this: a wake across CPUs does not repeat between invocations.
    fn two_cpus(&self) -> bool {
        false
    }

    /// Workers run under `SCHED_BATCH`, so that a woken thread runs when
    /// its waker blocks and not in the middle of the waker's release.
    /// For workloads in which every worker blocks every few ops: there
    /// wakeup preemption adds a context switch per op and makes the
    /// explicit `pbb` cell bistable (README, "Placement"). Not for a
    /// worker that never blocks: the threads it wakes would then wait
    /// for the timer tick.
    fn no_wakeup_preemption(&self) -> bool {
        false
    }

    /// Ops all threads together attempt in `phase`.
    fn ops(&self, phase: Phase) -> u64;

    /// Trace one op in this many: 1, or [`SPARSE_SAMPLING`] where the op
    /// is under a microsecond.
    fn sample_every(&self) -> u64 {
        1
    }

    /// Runs the calling thread's ops of `phase`, in order.
    fn run(&self, phase: Phase, ctx: &mut ThreadCtx<'_>);

    /// The monitor's counters, if the mechanism keeps any.
    fn counters(&self) -> Option<CounterSnapshot>;

    /// Checks the outputs once every thread has ended; returns how many
    /// ops they show to have failed. `patience` bounds any waiting this
    /// needs.
    fn finish(&self, patience: Duration) -> u64;
}

/// One op in 17 is traced where five clock reads would be most of the
/// op. A prime, not 16: the sub-microsecond workloads cycle short
/// patterns (4 cells, 20 ops), and a stride that shares a factor with
/// the pattern length traces only some of its positions — 16 never saw
/// a single wait on `quiet`.
pub const SPARSE_SAMPLING: u64 = 17;

/// An op written once for the traced and the untraced run. Returns
/// whether the op's own output check passed.
pub trait Op {
    fn op<T: Tracer>(&self, tid: usize, seq: u64, tracer: &mut T) -> bool;
}

#[repr(align(128))]
#[derive(Debug, Default)]
struct Padded(AtomicU64);

/// What a worker thread carries through its ops.
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    pub tid: usize,
    pub trace: Option<ThreadTrace>,
    pub failed: u64,
    done: u64,
    /// Published after every op for the watchdog; on its own cache line
    /// and written by this thread only, so it stays a local store.
    progress: &'a AtomicU64,
}

impl ThreadCtx<'_> {
    #[inline(always)]
    fn completed(&mut self, passed: bool) {
        self.failed += !passed as u64;
        self.done += 1;
        self.progress.store(self.done, Ordering::Relaxed);
    }
}

/// Runs ops `seqs` of `work` on the calling thread.
pub fn drive<W: Op>(work: &W, ctx: &mut ThreadCtx<'_>, seqs: Range<u64>) {
    match ctx.trace.take() {
        None => {
            for seq in seqs {
                let passed = work.op(ctx.tid, seq, &mut Off);
                ctx.completed(passed);
            }
        }
        Some(mut trace) => {
            for seq in seqs {
                let passed = if seq % trace.every == 0 {
                    work.op(ctx.tid, seq, &mut trace)
                } else {
                    work.op(ctx.tid, seq, &mut Off)
                };
                ctx.completed(passed);
            }
            ctx.trace = Some(trace);
        }
    }
}

/// The gates between set-up, warm-up and the timed phase. Workers block
/// on the condvar; the harness never blocks without a timeout.
struct Shared {
    opened: Mutex<u32>,
    cv: Condvar,
    arrivals: AtomicUsize,
    ended_at: AtomicU64,
    progress: Vec<Padded>,
    harness: Thread,
}

impl Shared {
    fn arrive(&self) {
        self.arrivals.fetch_add(1, Ordering::Release);
        self.harness.unpark();
    }

    fn arrive_and_wait(&self, gate: u32) {
        self.arrive();
        let mut opened = self
            .opened
            .lock()
            .expect("no holder of the gate lock panics");
        while *opened < gate {
            opened = self
                .cv
                .wait(opened)
                .expect("no holder of the gate lock panics");
        }
    }

    fn open(&self, gate: u32) {
        *self
            .opened
            .lock()
            .expect("no holder of the gate lock panics") = gate;
        self.cv.notify_all();
    }

    fn ops_done(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Parks the harness until `arrivals` workers have arrived, or gives
    /// up once nothing has moved for `stall`.
    fn await_arrivals(&self, arrivals: usize, stall: Duration) -> bool {
        let mut seen = (0, 0);
        let mut moved = Instant::now();
        loop {
            let arrived = self.arrivals.load(Ordering::Acquire);
            if arrived >= arrivals {
                return true;
            }
            let now = (arrived, self.ops_done());
            if now != seen {
                seen = now;
                moved = Instant::now();
            } else if moved.elapsed() >= stall {
                return false;
            }
            thread::park_timeout(stall.min(Duration::from_millis(50)));
        }
    }
}

/// What a cell's set-up cost, by part.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Build → every thread pinned and at the first gate.
    pub total_ns: u64,
    pub construct_ns: u64,
    pub compile_ns: u64,
    pub conds: u64,
    pub spawn_pin_ns: u64,
    pub threads: u64,
}

/// A built instance and what building it cost.
pub struct Built {
    pub instance: Arc<dyn Instance>,
    /// Monitor constructor, `register_expr`, `bind`.
    pub construct_ns: u64,
    /// Every `compile` call together.
    pub compile_ns: u64,
    pub conds: u64,
}

#[derive(Debug, Default)]
pub struct CellResult {
    pub attempted: u64,
    pub failed: u64,
    /// The watchdog gave the cell up.
    pub abandoned: bool,
    /// Gate opened → last worker's last op returned.
    pub wall_ns: u64,
    pub setup: Setup,
    pub usage: Rusage,
    /// `VmHWM` of the cell's process when its timed phase ended.
    pub peak_rss_mb: f64,
    /// Counters moved by the timed phase.
    pub counters: Option<Counts>,
    /// Per-op means over every traced op.
    pub ledger: Ledger,
    /// The earliest traced ops, for the trace file. They stay in the
    /// process that ran the cell: [`CellResult::to_json`] leaves them out.
    pub records: Vec<OpRecord>,
}

/// The monitor counters the per-layer metrics are made from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub enters: u64,
    pub fast_path_enters: u64,
    /// Waits that found their condition false, i.e. ops that blocked.
    pub waits: u64,
    pub wakeups: u64,
    pub pred_evals: u64,
    pub relay_calls: u64,
}

impl From<CounterSnapshot> for Counts {
    fn from(c: CounterSnapshot) -> Counts {
        Counts {
            enters: c.enters,
            fast_path_enters: c.fast_path_enters,
            waits: c.waits,
            wakeups: c.wakeups,
            pred_evals: c.pred_evals,
            relay_calls: c.relay_calls,
        }
    }
}

impl CellResult {
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.attempted.max(1) as f64
    }

    /// A cell nothing is known about except that it did not end well:
    /// every op it was to attempt counts as failed.
    pub fn lost(attempted: u64) -> CellResult {
        CellResult {
            attempted,
            failed: attempted.max(1),
            abandoned: true,
            ..CellResult::default()
        }
    }

    /// The result as the cell's process hands it to the run's process.
    pub fn to_json(&self) -> Json {
        let numbers =
            |values: &[u64]| Json::Arr(values.iter().map(|v| Json::Num(*v as f64)).collect());
        let (s, u, l) = (&self.setup, &self.usage, &self.ledger);
        let mut ledger = vec![
            l.ops as f64,
            l.blocked_share,
            l.wakes as f64,
            l.wake_p50_us,
            l.wake_p99_us,
        ];
        ledger.extend(l.segment_ns);
        Json::obj([
            ("abandoned", Json::Bool(self.abandoned)),
            (
                "totals",
                numbers(&[self.attempted, self.failed, self.wall_ns]),
            ),
            (
                "setup",
                numbers(&[
                    s.total_ns,
                    s.construct_ns,
                    s.compile_ns,
                    s.conds,
                    s.spawn_pin_ns,
                    s.threads,
                ]),
            ),
            ("usage", numbers(&[u.cpu_ns, u.voluntary, u.involuntary])),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            (
                "counters",
                self.counters.map_or(Json::Null, |c| {
                    numbers(&[
                        c.enters,
                        c.fast_path_enters,
                        c.waits,
                        c.wakeups,
                        c.pred_evals,
                        c.relay_calls,
                    ])
                }),
            ),
            (
                "ledger",
                Json::Arr(ledger.into_iter().map(Json::Num).collect()),
            ),
        ])
    }

    /// The inverse of [`CellResult::to_json`]; `None` for anything else.
    pub fn from_json(json: &Json) -> Option<CellResult> {
        let floats = |key: &str, len: usize| -> Option<Vec<f64>> {
            let values: Vec<f64> = json
                .get(key)?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            (values.len() == len).then_some(values)
        };
        let whole = |key: &str, len: usize| {
            Some(
                floats(key, len)?
                    .into_iter()
                    .map(|v| v as u64)
                    .collect::<Vec<_>>(),
            )
        };
        let (totals, s, u, l) = (
            whole("totals", 3)?,
            whole("setup", 6)?,
            whole("usage", 3)?,
            floats("ledger", 9)?,
        );
        Some(CellResult {
            attempted: totals[0],
            failed: totals[1],
            abandoned: json.get("abandoned")? == &Json::Bool(true),
            wall_ns: totals[2],
            setup: Setup {
                total_ns: s[0],
                construct_ns: s[1],
                compile_ns: s[2],
                conds: s[3],
                spawn_pin_ns: s[4],
                threads: s[5],
            },
            usage: Rusage {
                cpu_ns: u[0],
                voluntary: u[1],
                involuntary: u[2],
            },
            peak_rss_mb: json.get("peak_rss_mb")?.as_f64()?,
            counters: whole("counters", 6).map(|c| Counts {
                enters: c[0],
                fast_path_enters: c[1],
                waits: c[2],
                wakeups: c[3],
                pred_evals: c[4],
                relay_calls: c[5],
            }),
            ledger: Ledger {
                ops: l[0] as u64,
                blocked_share: l[1],
                wakes: l[2] as u64,
                wake_p50_us: l[3],
                wake_p99_us: l[4],
                segment_ns: [l[5], l[6], l[7], l[8]],
            },
            records: Vec::new(),
        })
    }
}

/// Builds an instance with `build` and runs it as one cell. Must be
/// called from the (pinned) harness thread. A run gives every cell a
/// process of its own, so that each starts from the same heap and the
/// same predictor state whatever ran before it (README, "Placement"). `stall` is how long the
/// cell may go without completing an op before it is abandoned.
pub fn run_cell(
    build: impl FnOnce() -> Built,
    cpus: Cpus,
    traced: bool,
    stall: Duration,
) -> CellResult {
    let setup_started = now_ns();
    let built = build();
    let inst = built.instance;
    let threads = inst.threads();
    let shared = Arc::new(Shared {
        opened: Mutex::new(0),
        cv: Condvar::new(),
        arrivals: AtomicUsize::new(0),
        ended_at: AtomicU64::new(0),
        progress: (0..threads).map(|_| Padded::default()).collect(),
        harness: thread::current(),
    });

    let spawn_started = now_ns();
    let workers: Vec<JoinHandle<(u64, Option<ThreadTrace>)>> = (0..threads)
        .map(|tid| {
            let inst = Arc::clone(&inst);
            let shared = Arc::clone(&shared);
            let cpu = if tid == 0 && inst.two_cpus() {
                cpus.harness
            } else {
                cpus.worker
            };
            thread::spawn(move || {
                pin_to(cpu);
                if inst.no_wakeup_preemption() {
                    sys::no_wakeup_preemption();
                }
                let mut trace = traced.then(|| {
                    let share = inst.ops(Phase::Timed) / inst.threads() as u64 + 1;
                    ThreadTrace::new(tid, share, inst.sample_every())
                });
                let mut ctx = ThreadCtx {
                    tid,
                    trace: None,
                    failed: 0,
                    done: 0,
                    progress: &shared.progress[tid].0,
                };
                shared.arrive_and_wait(1);
                inst.run(Phase::Warmup, &mut ctx);
                ctx.trace = trace.take();
                shared.arrive_and_wait(2);
                inst.run(Phase::Timed, &mut ctx);
                shared.ended_at.fetch_max(now_ns(), Ordering::Relaxed);
                shared.arrive();
                (ctx.failed, ctx.trace)
            })
        })
        .collect();

    let mut result = CellResult {
        attempted: inst.ops(Phase::Timed),
        ..CellResult::default()
    };
    let abandon = |mut result: CellResult, warmup_ops: u64| {
        // The stuck threads stay blocked and are left behind; the
        // process exit reaps them.
        let done = shared.ops_done().saturating_sub(warmup_ops);
        result.failed = result.attempted.saturating_sub(done).max(1);
        result.abandoned = true;
        result
    };

    if !shared.await_arrivals(threads, stall) {
        return abandon(result, 0);
    }
    let at_gate = now_ns();
    result.setup = Setup {
        total_ns: at_gate - setup_started,
        construct_ns: built.construct_ns,
        compile_ns: built.compile_ns,
        conds: built.conds,
        spawn_pin_ns: at_gate - spawn_started,
        threads: threads as u64,
    };

    shared.open(1);
    if !shared.await_arrivals(2 * threads, stall) {
        return abandon(result, 0);
    }
    let warmup_ops = shared.ops_done();
    let counters_before = inst.counters();
    let usage_before = Rusage::now();
    let started = now_ns();
    shared.open(2);
    if !shared.await_arrivals(3 * threads, stall) {
        return abandon(result, warmup_ops);
    }
    result.wall_ns = shared
        .ended_at
        .load(Ordering::Relaxed)
        .saturating_sub(started);
    result.usage = Rusage::now().since(&usage_before);
    result.peak_rss_mb = sys::peak_rss_mb();
    result.counters = inst
        .counters()
        .zip(counters_before)
        .map(|(after, before)| after.since(&before).into());

    for worker in workers {
        let (failed, trace) = worker.join().expect("a worker thread panicked");
        result.failed += failed;
        result
            .records
            .extend(trace.into_iter().flat_map(|t| t.records));
    }
    result.ledger = Ledger::of(&result.records);
    result.records.sort_by_key(|r| r.t[0]);
    result.records.truncate(FILE_OPS_PER_CELL);
    result.records.shrink_to_fit();
    result.failed += inst.finish(stall);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_survives_the_trip_between_processes() {
        let result = CellResult {
            attempted: 1000,
            failed: 3,
            abandoned: true,
            wall_ns: 123_456_789,
            setup: Setup {
                total_ns: 6,
                construct_ns: 5,
                compile_ns: 4,
                conds: 3,
                spawn_pin_ns: 2,
                threads: 1,
            },
            usage: Rusage {
                cpu_ns: 7,
                voluntary: 8,
                involuntary: 9,
            },
            peak_rss_mb: 1.25,
            counters: Some(Counts {
                enters: 10,
                fast_path_enters: 11,
                waits: 12,
                wakeups: 13,
                pred_evals: 14,
                relay_calls: 15,
            }),
            ledger: Ledger {
                ops: 16,
                segment_ns: [1.5, 2.5, 3.5, 4.5],
                blocked_share: 0.5,
                wakes: 17,
                wake_p50_us: 18.5,
                wake_p99_us: 19.5,
            },
            records: Vec::new(),
        };
        let json = Json::parse(&result.to_json().to_string()).unwrap();
        assert_eq!(
            format!("{:?}", CellResult::from_json(&json).unwrap()),
            format!("{result:?}")
        );

        let bare = CellResult::default();
        let back = CellResult::from_json(&bare.to_json()).unwrap();
        assert!(back.counters.is_none() && !back.abandoned);
        assert!(CellResult::from_json(&Json::obj([("totals", Json::Arr(vec![]))])).is_none());
    }
}
