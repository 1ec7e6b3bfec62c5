//! The slow lane allocates nothing once it is warm.
//!
//! A counting global allocator with per-thread tallies brackets the two
//! shapes the benchmark's relay workloads have: a writer whose exits
//! relay past parked waiters that stay false (`bystanders`: every probe
//! misses), and an equivalence ping-pong where every op registers,
//! blocks, is hit and deactivates its tag (`ring`). After warm-up —
//! scratch buffers sized, index slots grown, thread-locals initialised —
//! neither may call the allocator again, in `Tagged` or `ChangeDriven`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread;

use autosynch_repro::autosynch::config::{MonitorConfig, SignalMode};
use autosynch_repro::autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch_repro::autosynch::{BoolExpr, Monitor};

thread_local! {
    /// Calls this thread made to `alloc`, `alloc_zeroed` or `realloc`.
    /// `const`-initialised and without a destructor, so reading it from
    /// inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const MODES: [SignalMode; 2] = [SignalMode::Tagged, SignalMode::ChangeDriven];
const WARM_UP: i64 = 500;
const MEASURED: i64 = 10_000;

struct Cells {
    x: Tracked<i64>,
    y: Tracked<i64>,
    z: Tracked<i64>,
}

impl TrackedState for Cells {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.x);
        f(&mut self.y);
        f(&mut self.z);
    }
}

#[test]
fn writes_past_parked_false_waiters_do_not_allocate() {
    for mode in MODES {
        let monitor = Arc::new(Monitor::with_config(
            Cells {
                x: Tracked::new(0),
                y: Tracked::new(0),
                z: Tracked::new(0),
            },
            MonitorConfig::preset(mode),
        ));
        let x = monitor.register_expr("x", |s: &Cells| *s.x);
        let y = monitor.register_expr("y", |s: &Cells| *s.y);
        let z = monitor.register_expr("z", |s: &Cells| *s.z);
        monitor.bind(|s| &mut s.x, &[x]);
        monitor.bind(|s| &mut s.y, &[y]);
        monitor.bind(|s| &mut s.z, &[z]);
        // Two waiters of each tag class, every condition out of the
        // writer's reach until `RELEASE`.
        const RELEASE: i64 = -1;
        let conds = [
            monitor.compile(x.eq(RELEASE)),
            monitor.compile(x.eq(RELEASE).and(y.lt(0))),
            monitor.compile(y.le(RELEASE)),
            monitor.compile(y.lt(RELEASE + 1)),
            monitor.compile(BoolExpr::custom("z<0", |s: &Cells| *s.z < 0)),
            monitor.compile(BoolExpr::custom("z==-1", |s: &Cells| *s.z == RELEASE)),
        ];
        let waiters: Vec<_> = conds
            .into_iter()
            .map(|cond| {
                let monitor = Arc::clone(&monitor);
                thread::spawn(move || monitor.enter_tracked(|g| g.wait(&cond)))
            })
            .collect();
        while monitor.counts().waiting < waiters.len() {
            thread::yield_now();
        }

        let write = |i: i64| {
            monitor.with_tracked(|s| match i % 3 {
                0 => *s.x = i,
                1 => *s.y = i,
                _ => *s.z = i,
            })
        };
        (0..WARM_UP).for_each(write);
        let before = allocations();
        (WARM_UP..WARM_UP + MEASURED).for_each(write);
        let allocated = allocations() - before;

        monitor.with_tracked(|s| {
            *s.x = RELEASE;
            *s.y = RELEASE;
            *s.z = RELEASE;
        });
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(
            allocated, 0,
            "{mode:?}: {MEASURED} writes past parked waiters allocated {allocated} times"
        );
    }
}

struct Turn {
    turn: Tracked<i64>,
}

impl TrackedState for Turn {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.turn);
    }
}

#[test]
fn an_equivalence_ping_pong_does_not_allocate() {
    for mode in MODES {
        let monitor = Arc::new(Monitor::with_config(
            Turn {
                turn: Tracked::new(0),
            },
            MonitorConfig::preset(mode),
        ));
        let turn = monitor.register_expr("turn", |s: &Turn| *s.turn);
        monitor.bind(|s| &mut s.turn, &[turn]);
        let players: Vec<_> = (0..2i64)
            .map(|me| {
                let monitor = Arc::clone(&monitor);
                let my_turn = monitor.compile(turn.eq(me));
                thread::spawn(move || {
                    let pass = || {
                        monitor.enter_tracked(|g| {
                            g.wait(&my_turn); // waituntil(turn == me)
                            *g.state_mut().turn = 1 - me;
                        })
                    };
                    (0..WARM_UP).for_each(|_| pass());
                    let before = allocations();
                    (0..MEASURED).for_each(|_| pass());
                    allocations() - before
                })
            })
            .collect();
        for (me, player) in players.into_iter().enumerate() {
            let allocated = player.join().unwrap();
            assert_eq!(
                allocated, 0,
                "{mode:?}: player {me} allocated {allocated} times in {MEASURED} passes"
            );
        }
        assert!(monitor.is_quiescent());
    }
}
