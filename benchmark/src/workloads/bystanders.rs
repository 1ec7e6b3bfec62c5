//! `bystanders` — one writer and 64 parked waiters on one CPU whose
//! conditions stay false for the whole timed phase: 24 equivalence
//! conditions on `x`, 24 thresholds on `y`, 16 untaggable (custom
//! closure) conditions on `z`, and a fourth cell `u` nobody reads. The
//! writer cycles writes over `x, y, z, u` that change every value and
//! satisfy nobody. The same relay as `ring` and `pbb`, used the other
//! way round: every probe misses, and the waiters' presence forces the
//! slow lane. The explicit version is lock / write / unlock — the
//! programmer knows no signal is due.
//!
//! The waiters belong to the instance, not to the harness: they park
//! during set-up and are released, one condition at a time, by the
//! output check after timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use autosynch::{
    BoolExpr, Cond, CondId, ExplicitMonitor, Monitor, MonitorConfig, Tracked, TrackedCell,
    TrackedState,
};
use autosynch_metrics::counters::CounterSnapshot;

use super::{timed, warmup_ops, CellKind, PerPhase, Rng};
use crate::harness::{drive, Built, Instance, Op, Phase, ThreadCtx, SPARSE_SAMPLING};
use crate::sys::{pin_to, Cpus};
use crate::trace::{Marks, Stamp, Tracer};

pub const EQ_WAITERS: usize = 24;
pub const THRESHOLD_WAITERS: usize = 24;
pub const UNTAGGED_WAITERS: usize = 16;
pub const WAITERS: usize = EQ_WAITERS + THRESHOLD_WAITERS + UNTAGGED_WAITERS;
const CELLS: usize = 4;
const STEPS: usize = 4096;
/// The writer keeps every cell in `0..RANGE`; every waiter's condition
/// needs a value outside it.
const RANGE: i64 = 1000;
const THRESHOLD_BASE: i64 = 1_000_000;

/// Always differs from `old`, always inside `0..RANGE`.
fn next_value(old: i64, step: u16) -> i64 {
    (old + 1 + step as i64) % RANGE
}

#[derive(Debug)]
struct Plan {
    /// Seeded steps in `0..RANGE - 1`, cycled.
    steps: Vec<u16>,
    ops: PerPhase<u64>,
}

impl Plan {
    fn new(ops: u64, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        Plan {
            steps: (0..STEPS)
                .map(|_| rng.below(RANGE as u64 - 1) as u16)
                .collect(),
            ops: PerPhase([warmup_ops(ops).max(1), ops.max(1)]),
        }
    }

    /// Op `seq` of a phase writes `cell` by `step`.
    fn write(&self, seq: u64) -> (usize, u16) {
        (
            (seq % CELLS as u64) as usize,
            self.steps[seq as usize % STEPS],
        )
    }

    /// The cells after both phases, by a sequential replay.
    fn model(&self) -> [i64; CELLS] {
        let mut cells = [0; CELLS];
        for ops in self.ops.0 {
            for seq in 0..ops {
                let (cell, step) = self.write(seq);
                cells[cell] = next_value(cells[cell], step);
            }
        }
        cells
    }
}

/// What the output check saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub cells: [i64; CELLS],
    /// Waiters parked when timing began.
    pub parked: usize,
    /// Waiters whose wait had returned before the release began.
    pub returned_early: usize,
    /// Waiters that returned once released.
    pub released: usize,
}

/// Failed ops: wrong final values, waiters that were not parked, any
/// wait that returned during timing, any waiter still stuck after its
/// release. A waiter that is woken, finds its condition false and parks
/// again has not failed — `Routed` does that by design — it shows in
/// `monitor.wakeups_per_op`, not here.
pub fn check(model: [i64; CELLS], outcome: &Outcome) -> u64 {
    let wrong_cells = model
        .iter()
        .zip(&outcome.cells)
        .filter(|(m, c)| m != c)
        .count();
    (wrong_cells
        + (WAITERS - outcome.parked.min(WAITERS))
        + outcome.returned_early
        + (WAITERS - outcome.released.min(WAITERS))) as u64
}

#[derive(Debug, Default)]
struct State<C> {
    cells: [C; CELLS],
    /// Explicit and bare waiters wait for this.
    done: bool,
    stamp: Stamp,
}

impl TrackedState for State<Tracked<i64>> {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        for cell in &mut self.cells {
            f(cell);
        }
    }
}

/// The parked population, shared by the three implementations.
#[derive(Default)]
struct Bystanders {
    parked: AtomicUsize,
    released: AtomicUsize,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Waits until `counter` reaches `target`; false if it has not within
/// `patience`.
fn wait_for(counter: &AtomicUsize, target: usize, patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    while counter.load(Ordering::Acquire) < target {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_micros(50));
    }
    true
}

trait Backend: Send + Sync + 'static {
    fn write<T: Tracer>(&self, cell: usize, step: u16, seq: u64, tr: &mut T);
    /// Blocks waiter `i` until its release; bumps `parked` under the
    /// monitor right before blocking.
    fn park(&self, i: usize, parked: &AtomicUsize);
    fn cells(&self) -> [i64; CELLS];
    /// Performs release step `step` (0, 1, …) and returns how many
    /// waiters must have returned before the next step may be taken;
    /// `None` once there are no more steps.
    fn release(&self, step: usize) -> Option<usize>;
    fn counters(&self) -> Option<CounterSnapshot>;
}

/// The writer's ops and the crowd that stands by.
struct Scene<B> {
    plan: Plan,
    backend: Arc<B>,
    crowd: Arc<Bystanders>,
}

impl<B: Backend> Scene<B> {
    /// Spawns the waiters on the worker CPU and waits until all stand
    /// inside their wait.
    fn new(plan: Plan, backend: B, cpu: usize) -> Scene<B> {
        let backend = Arc::new(backend);
        let crowd = Arc::new(Bystanders::default());
        let threads = (0..WAITERS)
            .map(|i| {
                let backend = Arc::clone(&backend);
                let crowd = Arc::clone(&crowd);
                thread::spawn(move || {
                    pin_to(cpu);
                    backend.park(i, &crowd.parked);
                    crowd.released.fetch_add(1, Ordering::Release);
                })
            })
            .collect();
        *crowd
            .threads
            .lock()
            .expect("nobody panics holding this lock") = threads;
        wait_for(&crowd.parked, WAITERS, Duration::from_secs(10));
        Scene {
            plan,
            backend,
            crowd,
        }
    }
}

impl<B: Backend> Op for Scene<B> {
    fn op<T: Tracer>(&self, _tid: usize, seq: u64, tr: &mut T) -> bool {
        let (cell, step) = self.plan.write(seq);
        self.backend.write(cell, step, seq, tr);
        true
    }
}

impl<B: Backend> Instance for Scene<B> {
    fn threads(&self) -> usize {
        1
    }

    fn ops(&self, phase: Phase) -> u64 {
        *self.plan.ops.get(phase)
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

    fn finish(&self, patience: Duration) -> u64 {
        let crowd = &self.crowd;
        let cells = self.backend.cells();
        let parked = crowd.parked.load(Ordering::Acquire);
        let returned_early = crowd.released.load(Ordering::Acquire);
        let mut step = 0;
        while let Some(expected) = self.backend.release(step) {
            if !wait_for(&crowd.released, expected, patience) {
                break;
            }
            step += 1;
        }
        let released = crowd.released.load(Ordering::Acquire);
        if released == WAITERS {
            for t in crowd
                .threads
                .lock()
                .expect("nobody panics holding this lock")
                .drain(..)
            {
                t.join().expect("a bystander panicked");
            }
        }
        let outcome = Outcome {
            cells,
            parked,
            returned_early,
            released,
        };
        check(self.plan.model(), &outcome)
    }
}

/// Write `cell`, stamp, return the marks: the one body all three
/// implementations share. There is no wait in this op, so `waited`
/// equals `entered`.
fn write_body<T: Tracer>(cell: &mut i64, stamp: &mut Stamp, step: u16, seq: u64, tr: &T) -> Marks {
    let entered = tr.now();
    *cell = next_value(*cell, step);
    let body_end = tr.now();
    if let Some(s) = tr.stamp(seq, body_end) {
        *stamp = s;
    }
    Marks {
        entered,
        waited: entered,
        body_end,
        ..Marks::default()
    }
}

type AutoState = State<Tracked<i64>>;

struct Auto {
    monitor: Monitor<AutoState>,
    conds: Vec<Cond<AutoState>>,
}

impl Backend for Auto {
    fn write<T: Tracer>(&self, cell: usize, step: u16, seq: u64, tr: &mut T) {
        let called = tr.now();
        let tracer = &*tr;
        let marks = self
            .monitor
            .with_tracked(|s| write_body(&mut s.cells[cell], &mut s.stamp, step, seq, tracer));
        tr.finish("write", seq, called, marks);
    }

    fn park(&self, i: usize, parked: &AtomicUsize) {
        self.monitor.enter_tracked(|g| {
            parked.fetch_add(1, Ordering::Release);
            g.wait(&self.conds[i]);
        });
    }

    fn cells(&self) -> [i64; CELLS] {
        self.monitor
            .enter(|g| g.state().cells.each_ref().map(|c| **c))
    }

    fn release(&self, step: usize) -> Option<usize> {
        // Equivalence waiters have distinct keys: one write each, and
        // the waiter must be through before `x` moves on. One write
        // frees all thresholds, one more all untagged conditions; the
        // relay chain hands the monitor from one to the next.
        let (cell, value, expected) = match step {
            s if s < EQ_WAITERS => (0, -(s as i64 + 1), s + 1),
            s if s == EQ_WAITERS => (1, i64::MAX / 2, EQ_WAITERS + THRESHOLD_WAITERS),
            s if s == EQ_WAITERS + 1 => (2, i64::MIN / 2, WAITERS),
            _ => return None,
        };
        self.monitor.with_tracked(|s| *s.cells[cell] = value);
        Some(expected)
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }
}

struct Explicit {
    monitor: ExplicitMonitor<State<i64>>,
    /// One condition variable per group of waiters.
    groups: [CondId; 3],
}

fn group_of(i: usize) -> usize {
    (i >= EQ_WAITERS) as usize + (i >= EQ_WAITERS + THRESHOLD_WAITERS) as usize
}

impl Backend for Explicit {
    fn write<T: Tracer>(&self, cell: usize, step: u16, seq: u64, tr: &mut T) {
        let called = tr.now();
        let marks = self.monitor.enter(|g| {
            let s = g.state_mut();
            write_body(&mut s.cells[cell], &mut s.stamp, step, seq, tr)
        });
        tr.finish("write", seq, called, marks);
    }

    fn park(&self, i: usize, parked: &AtomicUsize) {
        self.monitor.enter(|g| {
            parked.fetch_add(1, Ordering::Release);
            g.wait_while(self.groups[group_of(i)], |s| !s.done);
        });
    }

    fn cells(&self) -> [i64; CELLS] {
        self.monitor.enter(|g| g.state().cells)
    }

    fn release(&self, step: usize) -> Option<usize> {
        (step == 0).then(|| {
            self.monitor.enter(|g| {
                g.state_mut().done = true;
                for group in self.groups {
                    g.signal_all(group);
                }
            });
            WAITERS
        })
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }
}

struct Bare {
    state: Mutex<State<i64>>,
    released: Condvar,
}

impl Backend for Bare {
    fn write<T: Tracer>(&self, cell: usize, step: u16, seq: u64, tr: &mut T) {
        let called = tr.now();
        let mut guard = self.state.lock().expect("no op panics under the lock");
        let s = &mut *guard;
        let marks = write_body(&mut s.cells[cell], &mut s.stamp, step, seq, tr);
        drop(guard);
        tr.finish("write", seq, called, marks);
    }

    fn park(&self, _: usize, parked: &AtomicUsize) {
        let mut s = self.state.lock().expect("no op panics under the lock");
        parked.fetch_add(1, Ordering::Release);
        while !s.done {
            s = self.released.wait(s).expect("no op panics under the lock");
        }
    }

    fn cells(&self) -> [i64; CELLS] {
        self.state
            .lock()
            .expect("no op panics under the lock")
            .cells
    }

    fn release(&self, step: usize) -> Option<usize> {
        (step == 0).then(|| {
            self.state.lock().expect("no op panics under the lock").done = true;
            self.released.notify_all();
            WAITERS
        })
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
    cpus: Cpus,
) -> Built {
    let plan = Plan::new(ops, seed);
    let cpu = cpus.worker;
    if let Some(config) = config {
        let ((monitor, exprs), construct_ns) = timed(|| {
            let monitor = Monitor::with_config(AutoState::default(), config);
            // `u`, cell 3, feeds no expression.
            let exprs: [_; 3] = std::array::from_fn(|cell| {
                let expr = monitor
                    .register_expr(["x", "y", "z"][cell], move |s: &AutoState| *s.cells[cell]);
                monitor.bind(move |s| &mut s.cells[cell], &[expr]);
                expr
            });
            (monitor, exprs)
        });
        let (conds, compile_ns) = timed(|| {
            let [x, y, _] = exprs;
            let eq = (0..EQ_WAITERS as i64).map(|i| monitor.compile(x.eq(-(i + 1))));
            let threshold =
                (0..THRESHOLD_WAITERS as i64).map(|i| monitor.compile(y.ge(THRESHOLD_BASE + i)));
            let untagged = (0..UNTAGGED_WAITERS as i64).map(|i| {
                let below = -(i + 1);
                monitor.compile(BoolExpr::custom(
                    format!("z<{below}"),
                    move |s: &AutoState| *s.cells[2] < below,
                ))
            });
            eq.chain(threshold).chain(untagged).collect::<Vec<_>>()
        });
        return Built {
            instance: Arc::new(Scene::new(plan, Auto { monitor, conds }, cpu)),
            construct_ns,
            compile_ns,
            conds: WAITERS as u64,
        };
    }
    let (instance, construct_ns): (Arc<dyn Instance>, u64) = match kind {
        CellKind::Bare => {
            let (backend, ns) = timed(|| Bare {
                state: Mutex::new(State::default()),
                released: Condvar::new(),
            });
            (Arc::new(Scene::new(plan, backend, cpu)), ns)
        }
        _ => {
            let (backend, ns) = timed(|| {
                let mut monitor = ExplicitMonitor::new(State::default());
                let groups = [(); 3].map(|()| monitor.add_condition());
                Explicit { monitor, groups }
            });
            (Arc::new(Scene::new(plan, backend, cpu)), ns)
        }
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
    fn writes_always_change_the_cell_and_stay_in_range() {
        let plan = Plan::new(10_000, 3);
        let mut cells = [0; CELLS];
        for seq in 0..10_000 {
            let (cell, step) = plan.write(seq);
            let new = next_value(cells[cell], step);
            assert_ne!(new, cells[cell]);
            assert!((0..RANGE).contains(&new));
            cells[cell] = new;
        }
    }

    #[test]
    fn groups_follow_the_waiter_layout() {
        assert_eq!(group_of(0), 0);
        assert_eq!(group_of(EQ_WAITERS), 1);
        assert_eq!(group_of(WAITERS - 1), 2);
    }
}
