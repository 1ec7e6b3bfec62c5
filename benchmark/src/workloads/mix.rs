//! `quiet` and `contend2` — one op mix, run by one thread on one CPU or
//! by two threads on two CPUs, on a monitor that carries 16 compiled
//! conditions and never a waiter. A seeded pattern mixes `enter` reads,
//! `with_tracked` writes and `enter_tracked` + `wait(&c)` with `c`
//! already true. Nobody ever blocks on a condition, so relay and wake
//! do no work: `quiet` isolates the elided lane, the tracked-mutation
//! drain and the true-at-entry wait; `contend2` adds what only real
//! parallelism shows — mutex hand-off, failed lane CAS, flat combining,
//! shared counter lines. Their ops are the same; their spans compare
//! one to one.
//!
//! `contend2` is not a saturation test: each of its threads does
//! [`THINK_ITERS`] steps of thread-local work after every op. Two
//! threads hammering one lock with nothing in between fall into convoy
//! regimes that last seconds and differ by a quarter in throughput (the
//! same cell read 160 to 216 ns/op within one minute). With the monitor
//! busy a tenth to a fifth of the time the threads still collide in one
//! op in forty (`monitor.fast_path_share` 0.97), every op finds the
//! monitor's cache lines on the other CPU, and the cell repeats.
//!
//! Every write does `a += d; b -= d`, so `a + b == 0` whenever the
//! monitor is free (each read checks it), and the final state is the
//! same whatever the interleaving.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use autosynch::{
    Cond, CondId, ExplicitMonitor, Monitor, MonitorConfig, Tracked, TrackedCell, TrackedState,
};
use autosynch_metrics::counters::CounterSnapshot;

use super::{timed, warmup_ops, CellKind, PerPhase, Rng};
use crate::harness::{drive, Built, Instance, Op, Phase, ThreadCtx, SPARSE_SAMPLING};
use crate::trace::{Marks, Stamp, Tracer};

/// Ops in the pattern. Short on purpose: the kind of an op is a branch,
/// and a 4096-long random pattern left the predictor in one of several
/// stable states per cell — the 31 ns explicit op read 30.6 or 34.5.
const PATTERN: usize = 20;
/// Xorshift steps of thread-local work after each `contend2` op, about
/// 0.6 µs on the reference box.
pub const THINK_ITERS: u64 = 300;
pub const CONDS: usize = 16;
/// The always-true thresholds `a >= -1 - j` the waits cycle through.
const TRUE_CONDS: usize = CONDS / 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `enter`, read `a + b`.
    Read,
    /// `with_tracked`, write.
    Write,
    /// `enter_tracked`, wait on a condition that holds, write.
    WaitThenWrite,
}

#[derive(Debug)]
struct Plan {
    /// One seeded pattern per thread, cycled: the kind and the delta
    /// (`1..=100`) of each op.
    patterns: Vec<Vec<(Kind, i64)>>,
    /// Ops per thread.
    ops: PerPhase<u64>,
}

impl Plan {
    fn new(ops: u64, seed: u64, threads: usize) -> Plan {
        let mut rng = Rng::new(seed);
        let patterns = (0..threads)
            .map(|_| {
                // Half reads, three tenths writes, two tenths waits, in
                // an order and with deltas drawn from the seed.
                let mut kinds: Vec<Kind> = (0..PATTERN)
                    .map(|i| match i % 10 {
                        0..=4 => Kind::Read,
                        5..=7 => Kind::Write,
                        _ => Kind::WaitThenWrite,
                    })
                    .collect();
                for i in (1..PATTERN).rev() {
                    kinds.swap(i, rng.below(i as u64 + 1) as usize);
                }
                kinds
                    .into_iter()
                    .map(|k| (k, rng.below(100) as i64 + 1))
                    .collect()
            })
            .collect();
        let per_thread = (ops / threads as u64).max(1);
        Plan {
            patterns,
            ops: PerPhase([warmup_ops(per_thread).max(1), per_thread]),
        }
    }

    fn op(&self, tid: usize, seq: u64) -> (Kind, i64) {
        self.patterns[tid][seq as usize % PATTERN]
    }

    /// `(a, writes)` after both phases of every thread, by a sequential
    /// replay; `b` is `-a`.
    fn model(&self) -> (i64, u64) {
        let mut a = 0;
        let mut writes = 0;
        for tid in 0..self.patterns.len() {
            for ops in self.ops.0 {
                for seq in 0..ops {
                    let (kind, delta) = self.op(tid, seq);
                    if kind != Kind::Read {
                        a += delta;
                        writes += 1;
                    }
                }
            }
        }
        (a, writes)
    }
}

/// Failed ops the final state shows, against the sequential model.
pub fn check(model: (i64, u64), a: i64, b: i64, writes: u64) -> u64 {
    (a != model.0) as u64 + (b != -model.0) as u64 + model.1.abs_diff(writes)
}

#[derive(Debug, Default)]
struct State<C> {
    a: C,
    b: C,
    writes: u64,
    stamp: Stamp,
}

impl TrackedState for State<Tracked<i64>> {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.a);
        f(&mut self.b);
    }
}

trait Backend: Send + Sync {
    /// Returns `a + b`.
    fn read<T: Tracer>(&self, seq: u64, tr: &mut T) -> i64;
    fn write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T);
    fn wait_then_write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T);
    /// Final `(a, b, writes)`.
    fn outcome(&self) -> (i64, i64, u64);
    fn counters(&self) -> Option<CounterSnapshot>;
}

struct Mix<B> {
    plan: Plan,
    backend: B,
}

/// Thread-local work outside the monitor and outside the op's spans.
fn think(seed: u64) {
    let mut x = seed | 1;
    for _ in 0..THINK_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
}

impl<B: Backend> Op for Mix<B> {
    fn op<T: Tracer>(&self, tid: usize, seq: u64, tr: &mut T) -> bool {
        let passed = match self.plan.op(tid, seq) {
            (Kind::Read, _) => self.backend.read(seq, tr) == 0,
            (Kind::Write, delta) => {
                self.backend.write(delta, seq, tr);
                true
            }
            (Kind::WaitThenWrite, delta) => {
                self.backend.wait_then_write(delta, seq, tr);
                true
            }
        };
        if self.two_cpus() {
            think(seq);
        }
        passed
    }
}

impl<B: Backend> Instance for Mix<B> {
    fn threads(&self) -> usize {
        self.plan.patterns.len()
    }

    fn two_cpus(&self) -> bool {
        self.threads() == 2
    }

    fn ops(&self, phase: Phase) -> u64 {
        self.plan.ops.get(phase) * self.threads() as u64
    }

    fn sample_every(&self) -> u64 {
        SPARSE_SAMPLING
    }

    fn run(&self, phase: Phase, ctx: &mut ThreadCtx<'_>) {
        drive(self, ctx, 0..*self.plan.ops.get(phase));
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        self.backend.counters()
    }

    fn finish(&self, _: Duration) -> u64 {
        let (a, b, writes) = self.backend.outcome();
        check(self.plan.model(), a, b, writes)
    }
}

/// The write all three implementations share, with its marks.
fn write_body<T: Tracer>(
    (a, b, writes, stamp): (&mut i64, &mut i64, &mut u64, &mut Stamp),
    delta: i64,
    seq: u64,
    (entered, waited): (u64, u64),
    tr: &T,
) -> Marks {
    *a += delta;
    *b -= delta;
    *writes += 1;
    let body_end = tr.now();
    if let Some(s) = tr.stamp(seq, body_end) {
        *stamp = s;
    }
    Marks {
        entered,
        waited,
        body_end,
        ..Marks::default()
    }
}

fn read_marks<T: Tracer>(entered: u64, tr: &T) -> Marks {
    Marks {
        entered,
        waited: entered,
        body_end: tr.now(),
        ..Marks::default()
    }
}

type AutoState = State<Tracked<i64>>;

struct Auto {
    monitor: Monitor<AutoState>,
    conds: Vec<Cond<AutoState>>,
}

impl Backend for Auto {
    fn read<T: Tracer>(&self, seq: u64, tr: &mut T) -> i64 {
        let called = tr.now();
        let (sum, marks) = self.monitor.enter(|g| {
            let entered = tr.now();
            let s = g.state();
            (*s.a + *s.b, read_marks(entered, tr))
        });
        tr.finish("read", seq, called, marks);
        sum
    }

    fn write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T) {
        let called = tr.now();
        let tracer = &*tr;
        let marks = self.monitor.with_tracked(|s| {
            let entered = tracer.now();
            let cells = (&mut *s.a, &mut *s.b, &mut s.writes, &mut s.stamp);
            write_body(cells, delta, seq, (entered, entered), tracer)
        });
        tr.finish("write", seq, called, marks);
    }

    fn wait_then_write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T) {
        let called = tr.now();
        let marks = self.monitor.enter_tracked(|g| {
            let entered = tr.now();
            g.wait(&self.conds[seq as usize % TRUE_CONDS]);
            let waited = tr.now();
            let s = g.state_mut();
            let cells = (&mut *s.a, &mut *s.b, &mut s.writes, &mut s.stamp);
            write_body(cells, delta, seq, (entered, waited), tr)
        });
        tr.finish("wait_then_write", seq, called, marks);
    }

    fn outcome(&self) -> (i64, i64, u64) {
        self.monitor
            .enter(|g| (*g.state().a, *g.state().b, g.state().writes))
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }
}

/// No signal anywhere: the programmer knows nobody waits.
struct Explicit {
    monitor: ExplicitMonitor<State<i64>>,
    cond: CondId,
}

impl Backend for Explicit {
    fn read<T: Tracer>(&self, seq: u64, tr: &mut T) -> i64 {
        let called = tr.now();
        let (sum, marks) = self.monitor.enter(|g| {
            let entered = tr.now();
            let s = g.state();
            (s.a + s.b, read_marks(entered, tr))
        });
        tr.finish("read", seq, called, marks);
        sum
    }

    fn write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T) {
        let called = tr.now();
        let marks = self.monitor.enter(|g| {
            let entered = tr.now();
            let s = g.state_mut();
            let cells = (&mut s.a, &mut s.b, &mut s.writes, &mut s.stamp);
            write_body(cells, delta, seq, (entered, entered), tr)
        });
        tr.finish("write", seq, called, marks);
    }

    fn wait_then_write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T) {
        let floor = -1 - (seq % TRUE_CONDS as u64) as i64;
        let called = tr.now();
        let marks = self.monitor.enter(|g| {
            let entered = tr.now();
            g.wait_while(self.cond, |s| s.a < floor);
            let waited = tr.now();
            let s = g.state_mut();
            let cells = (&mut s.a, &mut s.b, &mut s.writes, &mut s.stamp);
            write_body(cells, delta, seq, (entered, waited), tr)
        });
        tr.finish("wait_then_write", seq, called, marks);
    }

    fn outcome(&self) -> (i64, i64, u64) {
        self.monitor
            .enter(|g| (g.state().a, g.state().b, g.state().writes))
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }
}

struct Bare {
    state: Mutex<State<i64>>,
}

impl Backend for Bare {
    fn read<T: Tracer>(&self, seq: u64, tr: &mut T) -> i64 {
        let called = tr.now();
        let s = self.state.lock().expect("no op panics under the lock");
        let entered = tr.now();
        let sum = s.a + s.b;
        let marks = read_marks(entered, tr);
        drop(s);
        tr.finish("read", seq, called, marks);
        sum
    }

    fn write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T) {
        let called = tr.now();
        let mut guard = self.state.lock().expect("no op panics under the lock");
        let entered = tr.now();
        let s = &mut *guard;
        let cells = (&mut s.a, &mut s.b, &mut s.writes, &mut s.stamp);
        let marks = write_body(cells, delta, seq, (entered, entered), tr);
        drop(guard);
        tr.finish("write", seq, called, marks);
    }

    fn wait_then_write<T: Tracer>(&self, delta: i64, seq: u64, tr: &mut T) {
        // The skeleton of a wait whose condition holds is its one check.
        let floor = -1 - (seq % TRUE_CONDS as u64) as i64;
        let called = tr.now();
        let mut guard = self.state.lock().expect("no op panics under the lock");
        let entered = tr.now();
        assert!(guard.a >= floor, "the mix never blocks");
        let waited = tr.now();
        let s = &mut *guard;
        let cells = (&mut s.a, &mut s.b, &mut s.writes, &mut s.stamp);
        let marks = write_body(cells, delta, seq, (entered, waited), tr);
        drop(guard);
        tr.finish("wait_then_write", seq, called, marks);
    }

    fn outcome(&self) -> (i64, i64, u64) {
        let s = self.state.lock().expect("no op panics under the lock");
        (s.a, s.b, s.writes)
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        None
    }
}

pub fn build(
    kind: CellKind,
    config: Option<MonitorConfig>,
    ops: u64,
    seed: u64,
    threads: usize,
) -> Built {
    let plan = Plan::new(ops, seed, threads);
    if let Some(config) = config {
        let ((monitor, a, b), construct_ns) = timed(|| {
            let monitor = Monitor::with_config(AutoState::default(), config);
            let a = monitor.register_expr("a", |s: &AutoState| *s.a);
            let b = monitor.register_expr("b", |s: &AutoState| *s.b);
            monitor.bind(|s| &mut s.a, &[a]);
            monitor.bind(|s| &mut s.b, &[b]);
            (monitor, a, b)
        });
        // `a` only grows from 0 and `b` only falls: the thresholds on
        // `a` always hold, the equivalences on `b` never do.
        let (conds, compile_ns) = timed(|| {
            let on_a = (0..TRUE_CONDS as i64).map(|j| monitor.compile(a.ge(-1 - j)));
            let on_b = (0..(CONDS - TRUE_CONDS) as i64).map(|j| monitor.compile(b.eq(1 + j)));
            on_a.chain(on_b).collect()
        });
        return Built {
            instance: Arc::new(Mix {
                plan,
                backend: Auto { monitor, conds },
            }),
            construct_ns,
            compile_ns,
            conds: CONDS as u64,
        };
    }
    let (instance, construct_ns): (Arc<dyn Instance>, u64) = match kind {
        CellKind::Bare => timed(|| {
            let backend = Bare {
                state: Mutex::new(State::default()),
            };
            Arc::new(Mix { plan, backend }) as Arc<dyn Instance>
        }),
        _ => timed(|| {
            let mut monitor = ExplicitMonitor::new(State::default());
            let cond = monitor.add_condition();
            let backend = Explicit { monitor, cond };
            Arc::new(Mix { plan, backend }) as Arc<dyn Instance>
        }),
    };
    Built {
        instance,
        construct_ns,
        compile_ns: 0,
        conds: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pattern_is_seeded_and_holds_all_three_kinds() {
        let plan = Plan::new(100_000, 11, 2);
        let again = Plan::new(100_000, 11, 2);
        assert_eq!(plan.patterns, again.patterns);
        assert_ne!(plan.patterns[0], plan.patterns[1]);
        for kind in [Kind::Read, Kind::Write, Kind::WaitThenWrite] {
            assert!(plan.patterns[0].iter().any(|(k, _)| *k == kind));
        }
        let (a, writes) = plan.model();
        assert!(a >= writes as i64 && writes > 0);
    }

    #[test]
    fn sparse_sampling_reaches_every_position_of_the_pattern() {
        let mut seen = [false; PATTERN];
        for seq in (0..PATTERN as u64 * SPARSE_SAMPLING).step_by(SPARSE_SAMPLING as usize) {
            seen[seq as usize % PATTERN] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
