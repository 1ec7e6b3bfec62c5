//! The output checks can fail: each checker is fed a corrupted result,
//! and the harness a cell that stalls, and every one of them must end
//! as failed ops — not as a pass, and not as a hang.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autosynch_benchmark::harness::{drive, run_cell, Built, Instance, Op, Phase, ThreadCtx};
use autosynch_benchmark::sys::Cpus;
use autosynch_benchmark::trace::Tracer;
use autosynch_benchmark::workloads::{bystanders, mix, pbb, ring};
use autosynch_metrics::counters::CounterSnapshot;

#[test]
fn ring_checker_counts_lost_extra_and_out_of_turn_passes() {
    assert_eq!(ring::check(3200, 3200, 0), 0);
    assert_eq!(ring::check(3200, 3199, 0), 1);
    assert_eq!(ring::check(3200, 3202, 0), 2);
    assert_eq!(ring::check(3200, 3200, 5), 5);
}

#[test]
fn pbb_checker_counts_lost_items_and_a_wrong_checksum() {
    let sum = |n: u64| n * (n + 1) / 2;
    assert_eq!(pbb::check(1000, 1000, sum(1000)), 0);
    assert!(
        pbb::check(1000, 999, sum(1000) - 1000) > 0,
        "an item was lost"
    );
    assert!(
        pbb::check(1000, 1001, sum(1000) + 7) > 0,
        "an item was taken twice"
    );
    assert!(
        pbb::check(1000, 1000, sum(1000) + 1) > 0,
        "an item was swapped for another"
    );
}

#[test]
fn bystanders_checker_counts_wrong_cells_early_returns_and_stuck_waiters() {
    let good = bystanders::Outcome {
        cells: [1, 2, 3, 4],
        parked: bystanders::WAITERS,
        returned_early: 0,
        released: bystanders::WAITERS,
    };
    assert_eq!(bystanders::check([1, 2, 3, 4], &good), 0);
    assert_eq!(
        bystanders::check([1, 2, 3, 5], &good),
        1,
        "a write was lost"
    );
    let early = bystanders::Outcome {
        returned_early: 2,
        ..good
    };
    assert_eq!(
        bystanders::check([1, 2, 3, 4], &early),
        2,
        "a wait returned on a false condition"
    );
    let stuck = bystanders::Outcome {
        released: bystanders::WAITERS - 3,
        ..good
    };
    assert_eq!(
        bystanders::check([1, 2, 3, 4], &stuck),
        3,
        "a release was lost"
    );
    let late = bystanders::Outcome { parked: 60, ..good };
    assert_eq!(
        bystanders::check([1, 2, 3, 4], &late),
        4,
        "timing began before all were parked"
    );
}

#[test]
fn mix_checker_compares_against_the_sequential_model() {
    assert_eq!(mix::check((500, 10), 500, -500, 10), 0);
    assert!(
        mix::check((500, 10), 499, -500, 10) > 0,
        "an update to a was lost"
    );
    assert!(
        mix::check((500, 10), 500, -499, 10) > 0,
        "a and b came apart"
    );
    assert_eq!(
        mix::check((500, 10), 500, -500, 8),
        2,
        "two writes never ran"
    );
}

/// Two threads of ten ops each. Thread 1 fails the output check of one
/// op and, if `stalls`, never returns from its fourth.
struct Faulty {
    stalls: bool,
}

impl Op for Faulty {
    fn op<T: Tracer>(&self, tid: usize, seq: u64, _: &mut T) -> bool {
        if self.stalls && tid == 1 && seq == 3 {
            loop {
                std::thread::park();
            }
        }
        !(tid == 1 && seq == 1)
    }
}

impl Instance for Faulty {
    fn threads(&self) -> usize {
        2
    }

    fn ops(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Warmup => 0,
            Phase::Timed => 20,
        }
    }

    fn run(&self, phase: Phase, ctx: &mut ThreadCtx<'_>) {
        drive(self, ctx, 0..self.ops(phase) / 2);
    }

    fn counters(&self) -> Option<CounterSnapshot> {
        None
    }

    fn finish(&self, _: Duration) -> u64 {
        0
    }
}

fn run_faulty(stalls: bool, stall: Duration) -> autosynch_benchmark::harness::CellResult {
    let build = || Built {
        instance: Arc::new(Faulty { stalls }),
        construct_ns: 0,
        compile_ns: 0,
        conds: 0,
    };
    run_cell(build, Cpus::detect().expect("two CPUs"), false, stall)
}

#[test]
fn an_op_that_fails_its_check_is_counted() {
    let result = run_faulty(false, Duration::from_secs(10));
    assert!(!result.abandoned);
    assert_eq!((result.attempted, result.failed), (20, 1));
}

#[test]
fn a_stalled_cell_is_abandoned_and_its_outstanding_ops_fail() {
    let started = Instant::now();
    let result = run_faulty(true, Duration::from_millis(200));
    assert!(result.abandoned);
    // Thread 0 finished its ten, thread 1 three: seven never completed.
    assert_eq!((result.attempted, result.failed), (20, 7));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the watchdog is what ended the cell"
    );
}
