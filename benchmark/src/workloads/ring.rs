//! `ring` — the paper's Fig. 11 round-robin: 32 threads on one CPU,
//! thread *i* does `waituntil(turn == i); turn = next(i)`. Every op
//! blocks and every relay is an equivalence-tag hit, so the op *is* the
//! serial chain release → wake → reacquire. The seed picks the cyclic
//! order in which the threads (and so the tag keys) are visited.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use autosynch::{
    Cond, CondId, ExplicitMonitor, Monitor, MonitorConfig, Tracked, TrackedCell, TrackedState,
};
use autosynch_metrics::counters::CounterSnapshot;

use super::{timed, warmup_ops, CellKind, PerPhase, Rng};
use crate::harness::{drive, Built, Instance, Op, Phase, ThreadCtx};
use crate::trace::{Marks, Stamp, Tracer};

pub const THREADS: usize = 32;

/// The seeded part: who follows whom, and how many passes each thread
/// makes per phase.
#[derive(Debug)]
struct Plan {
    next: Vec<i64>,
    first: i64,
    passes: PerPhase<u64>,
}

impl Plan {
    fn new(ops: u64, seed: u64) -> Plan {
        let mut order: Vec<i64> = (0..THREADS as i64).collect();
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut next = vec![0; THREADS];
        for (j, &tid) in order.iter().enumerate() {
            next[tid as usize] = order[(j + 1) % THREADS];
        }
        let timed = (ops / THREADS as u64).max(1);
        Plan {
            next,
            first: order[0],
            passes: PerPhase([warmup_ops(timed).max(1), timed]),
        }
    }

    fn ops(&self, phase: Phase) -> u64 {
        self.passes.get(phase) * THREADS as u64
    }

    fn expected_passes(&self) -> u64 {
        self.ops(Phase::Warmup) + self.ops(Phase::Timed)
    }
}

/// Failed ops the final state shows: passes missing or in excess, and
/// passes made out of turn.
pub fn check(expected_passes: u64, passes: u64, out_of_turn: u64) -> u64 {
    expected_passes.abs_diff(passes) + out_of_turn
}

#[derive(Debug, Default)]
struct State<Turn> {
    turn: Turn,
    passes: u64,
    out_of_turn: u64,
    stamp: Stamp,
}

impl TrackedState for State<Tracked<i64>> {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.turn);
    }
}

/// What the three implementations differ in besides the op itself.
trait Backend: Op + Send + Sync {
    fn plan(&self) -> &Plan;
    fn counters(&self) -> Option<CounterSnapshot>;
    /// Final `(passes, out_of_turn)`.
    fn outcome(&self) -> (u64, u64);
}

struct Ring<B>(B);

impl<B: Backend> Instance for Ring<B> {
    fn threads(&self) -> usize {
        THREADS
    }

    fn no_wakeup_preemption(&self) -> bool {
        true
    }

    fn ops(&self, phase: Phase) -> u64 {
        self.0.plan().ops(phase)
    }

    fn run(&self, phase: Phase, ctx: &mut ThreadCtx<'_>) {
        drive(&self.0, ctx, 0..*self.0.plan().passes.get(phase));
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        self.0.counters()
    }

    fn finish(&self, _: Duration) -> u64 {
        let (passes, out_of_turn) = self.0.outcome();
        check(self.0.plan().expected_passes(), passes, out_of_turn)
    }
}

struct AutoRing {
    plan: Plan,
    monitor: Monitor<State<Tracked<i64>>>,
    my_turn: Vec<Cond<State<Tracked<i64>>>>,
}

impl Op for AutoRing {
    fn op<T: Tracer>(&self, tid: usize, seq: u64, tr: &mut T) -> bool {
        let me = tid as i64;
        let next = self.plan.next[tid];
        let called = tr.now();
        let marks = self.monitor.enter_tracked(|g| {
            let entered = tr.now();
            let blocked = T::ON && *g.state().turn != me;
            g.wait(&self.my_turn[tid]); // waituntil(turn == me)
            let waited = tr.now();
            let s = g.state_mut();
            let cause = s.stamp;
            s.out_of_turn += (*s.turn != me) as u64;
            *s.turn = next;
            s.passes += 1;
            let body_end = tr.now();
            if let Some(stamp) = tr.stamp(seq, body_end) {
                s.stamp = stamp;
            }
            Marks {
                entered,
                waited,
                body_end,
                blocked,
                cause,
            }
        });
        tr.finish("pass", seq, called, marks);
        true
    }
}

impl Backend for AutoRing {
    fn plan(&self) -> &Plan {
        &self.plan
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }

    fn outcome(&self) -> (u64, u64) {
        self.monitor
            .enter(|g| (g.state().passes, g.state().out_of_turn))
    }
}

/// One condition variable per thread; the leaver signals its successor.
struct ExplicitRing {
    plan: Plan,
    monitor: ExplicitMonitor<State<i64>>,
    conds: Vec<CondId>,
}

impl Op for ExplicitRing {
    fn op<T: Tracer>(&self, tid: usize, seq: u64, tr: &mut T) -> bool {
        let me = tid as i64;
        let next = self.plan.next[tid];
        let called = tr.now();
        let marks = self.monitor.enter(|g| {
            let entered = tr.now();
            let blocked = T::ON && g.state().turn != me;
            g.wait_while(self.conds[tid], |s| s.turn != me);
            let waited = tr.now();
            let s = g.state_mut();
            let cause = s.stamp;
            s.out_of_turn += (s.turn != me) as u64;
            s.turn = next;
            s.passes += 1;
            let body_end = tr.now();
            if let Some(stamp) = tr.stamp(seq, body_end) {
                s.stamp = stamp;
            }
            // The hand-placed signal is this mechanism's relay: it
            // belongs to `release`, after the body end.
            g.signal(self.conds[next as usize]);
            Marks {
                entered,
                waited,
                body_end,
                blocked,
                cause,
            }
        });
        tr.finish("pass", seq, called, marks);
        true
    }
}

impl Backend for ExplicitRing {
    fn plan(&self) -> &Plan {
        &self.plan
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        Some(self.monitor.stats_snapshot().counters)
    }

    fn outcome(&self) -> (u64, u64) {
        self.monitor
            .enter(|g| (g.state().passes, g.state().out_of_turn))
    }
}

struct BareRing {
    plan: Plan,
    state: Mutex<State<i64>>,
    conds: Vec<Condvar>,
}

impl Op for BareRing {
    fn op<T: Tracer>(&self, tid: usize, seq: u64, tr: &mut T) -> bool {
        let me = tid as i64;
        let next = self.plan.next[tid];
        let called = tr.now();
        let mut s = self.state.lock().expect("no op panics under the lock");
        let entered = tr.now();
        let blocked = T::ON && s.turn != me;
        while s.turn != me {
            s = self.conds[tid]
                .wait(s)
                .expect("no op panics under the lock");
        }
        let waited = tr.now();
        let cause = s.stamp;
        s.out_of_turn += (s.turn != me) as u64;
        s.turn = next;
        s.passes += 1;
        let body_end = tr.now();
        if let Some(stamp) = tr.stamp(seq, body_end) {
            s.stamp = stamp;
        }
        self.conds[next as usize].notify_one();
        drop(s);
        let marks = Marks {
            entered,
            waited,
            body_end,
            blocked,
            cause,
        };
        tr.finish("pass", seq, called, marks);
        true
    }
}

impl Backend for BareRing {
    fn plan(&self) -> &Plan {
        &self.plan
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        None
    }

    fn outcome(&self) -> (u64, u64) {
        let s = self.state.lock().expect("no op panics under the lock");
        (s.passes, s.out_of_turn)
    }
}

pub fn build(kind: CellKind, config: Option<MonitorConfig>, ops: u64, seed: u64) -> Built {
    let plan = Plan::new(ops, seed);
    let first = plan.first;
    let conds = THREADS as u64;
    if let Some(config) = config {
        let (monitor, construct_ns) = timed(|| {
            let state = State {
                turn: Tracked::new(first),
                ..State::default()
            };
            let monitor = Monitor::with_config(state, config);
            let turn = monitor.register_expr("turn", |s| *s.turn);
            monitor.bind(|s| &mut s.turn, &[turn]);
            (monitor, turn)
        });
        let (monitor, turn) = monitor;
        let (my_turn, compile_ns) = timed(|| {
            (0..THREADS as i64)
                .map(|id| monitor.compile(turn.eq(id)))
                .collect()
        });
        return Built {
            instance: Arc::new(Ring(AutoRing {
                plan,
                monitor,
                my_turn,
            })),
            construct_ns,
            compile_ns,
            conds,
        };
    }
    let state = State {
        turn: first,
        ..State::default()
    };
    let (instance, construct_ns): (Arc<dyn Instance>, u64) = match kind {
        CellKind::Bare => timed(|| {
            Arc::new(Ring(BareRing {
                plan,
                state: Mutex::new(state),
                conds: (0..THREADS).map(|_| Condvar::new()).collect(),
            })) as Arc<dyn Instance>
        }),
        _ => timed(|| {
            let mut monitor = ExplicitMonitor::new(state);
            let conds = monitor.add_conditions(THREADS);
            Arc::new(Ring(ExplicitRing {
                plan,
                monitor,
                conds,
            })) as Arc<dyn Instance>
        }),
    };
    Built {
        instance,
        construct_ns,
        compile_ns: 0,
        conds: 0,
    }
}
