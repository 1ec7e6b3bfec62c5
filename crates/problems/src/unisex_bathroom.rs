//! The unisex bathroom problem (Andrews) — an extension workload whose
//! waiting condition is a **conjunction of an equivalence and a
//! threshold atom**, exercising Fig. 3's tag-priority rule (the
//! equivalence conjunct wins the tag).
//!
//! A bathroom with `capacity` stalls is shared by men and women under
//! two rules: both genders never occupy it simultaneously, and at most
//! `capacity` people are inside. A man waits on
//! `waituntil(women == 0 && men < capacity)`; a woman symmetrically.
//! The explicit version cannot know how many of the opposite gender can
//! enter when the room drains — up to `capacity` — so it reaches for
//! `signalAll`, the §3 pathology, while AutoSynch relays one thread at
//! a time and each admitted occupant's entry relays the next.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// The two genders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gender {
    /// Uses the `men` counter.
    Man,
    /// Uses the `women` counter.
    Woman,
}

/// Bathroom state shared by every implementation.
#[derive(Debug, Default)]
pub struct BathroomState {
    men: Tracked<i64>,
    women: Tracked<i64>,
    served: u64,
    /// Peak simultaneous occupancy, for the capacity invariant.
    peak: i64,
    /// Set if both genders were ever observed inside at once.
    violation: bool,
}

impl TrackedState for BathroomState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.men);
        f(&mut self.women);
    }
}

impl BathroomState {
    fn admit(&mut self, gender: Gender) {
        match gender {
            Gender::Man => *self.men += 1,
            Gender::Woman => *self.women += 1,
        }
        if *self.men > 0 && *self.women > 0 {
            self.violation = true;
        }
        self.peak = self.peak.max(*self.men + *self.women);
    }

    fn release(&mut self, gender: Gender) {
        match gender {
            Gender::Man => *self.men -= 1,
            Gender::Woman => *self.women -= 1,
        }
        self.served += 1;
    }
}

/// Outcome snapshot used by the invariant checks.
#[derive(Debug, Clone, Copy)]
pub struct BathroomOutcome {
    /// Completed visits.
    pub served: u64,
    /// Peak simultaneous occupancy.
    pub peak: i64,
    /// Whether both genders ever overlapped.
    pub violation: bool,
}

/// The bathroom operations.
pub trait Bathroom: Send + Sync {
    /// Blocks until `gender` may enter, then occupies a stall.
    fn enter(&self, gender: Gender);
    /// Leaves the bathroom.
    fn exit(&self, gender: Gender);
    /// Final outcome for invariant checking.
    fn outcome(&self) -> BathroomOutcome;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal bathroom: a condvar per gender; the drain (last one
/// out) must `signal_all` the opposite queue because it cannot know how
/// many will fit.
#[derive(Debug)]
pub struct ExplicitBathroom {
    monitor: ExplicitMonitor<BathroomState>,
    men_cv: CondId,
    women_cv: CondId,
    capacity: i64,
}

impl ExplicitBathroom {
    /// Creates a bathroom with `capacity` stalls.
    pub fn new(capacity: i64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        let mut monitor = ExplicitMonitor::new(BathroomState::default());
        let men_cv = monitor.add_condition();
        let women_cv = monitor.add_condition();
        ExplicitBathroom {
            monitor,
            men_cv,
            women_cv,
            capacity,
        }
    }
}

impl Bathroom for ExplicitBathroom {
    fn enter(&self, gender: Gender) {
        let cap = self.capacity;
        self.monitor.enter(|g| {
            match gender {
                Gender::Man => g.wait_while(self.men_cv, move |s| *s.women > 0 || *s.men >= cap),
                Gender::Woman => {
                    g.wait_while(self.women_cv, move |s| *s.men > 0 || *s.women >= cap)
                }
            }
            g.state_mut().admit(gender);
            // A freed-up stall may admit one more of the same gender.
            match gender {
                Gender::Man => g.signal(self.men_cv),
                Gender::Woman => g.signal(self.women_cv),
            }
        });
    }

    fn exit(&self, gender: Gender) {
        self.monitor.enter(|g| {
            g.state_mut().release(gender);
            let state = g.state();
            let drained = *state.men == 0 && *state.women == 0;
            match gender {
                Gender::Man => {
                    if drained {
                        // Unknown how many women fit: broadcast (§3).
                        g.signal_all(self.women_cv);
                    }
                    g.signal(self.men_cv);
                }
                Gender::Woman => {
                    if drained {
                        g.signal_all(self.men_cv);
                    }
                    g.signal(self.women_cv);
                }
            }
        });
    }

    fn outcome(&self) -> BathroomOutcome {
        self.monitor.enter(|g| BathroomOutcome {
            served: g.state().served,
            peak: g.state().peak,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline bathroom: a single condvar, broadcast on every change.
#[derive(Debug)]
pub struct BaselineBathroom {
    monitor: BaselineMonitor<BathroomState>,
    capacity: i64,
}

impl BaselineBathroom {
    /// Creates a bathroom with `capacity` stalls.
    pub fn new(capacity: i64) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        BaselineBathroom {
            monitor: BaselineMonitor::new(BathroomState::default()),
            capacity,
        }
    }
}

impl Bathroom for BaselineBathroom {
    fn enter(&self, gender: Gender) {
        let cap = self.capacity;
        self.monitor.enter(|g| {
            match gender {
                Gender::Man => g.wait_until(move |s: &BathroomState| *s.women == 0 && *s.men < cap),
                Gender::Woman => {
                    g.wait_until(move |s: &BathroomState| *s.men == 0 && *s.women < cap)
                }
            }
            g.state_mut().admit(gender);
        });
    }

    fn exit(&self, gender: Gender) {
        self.monitor.enter(|g| g.state_mut().release(gender));
    }

    fn outcome(&self) -> BathroomOutcome {
        self.monitor.enter(|g| BathroomOutcome {
            served: g.state().served,
            peak: g.state().peak,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch bathroom: `waituntil(women == 0 && men < cap)` — the
/// equivalence conjunct takes the tag per Fig. 3's priority rule.
#[derive(Debug)]
pub struct AutoSynchBathroom {
    monitor: Monitor<BathroomState>,
    man_may_enter: Cond<BathroomState>,
    woman_may_enter: Cond<BathroomState>,
}

impl AutoSynchBathroom {
    /// Creates a bathroom with `capacity` stalls under the mechanism's
    /// monitor configuration; both admission conditions compile once.
    pub fn new(capacity: i64, mechanism: Mechanism) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchBathroom requires an automatic mechanism");
        let monitor = Monitor::with_config(BathroomState::default(), config);
        let men = monitor.register_expr("men", |s| *s.men);
        let women = monitor.register_expr("women", |s| *s.women);
        monitor.bind(|s| &mut s.men, &[men]);
        monitor.bind(|s| &mut s.women, &[women]);
        let man_may_enter = monitor.compile(women.eq(0).and(men.lt(capacity)));
        let woman_may_enter = monitor.compile(men.eq(0).and(women.lt(capacity)));
        AutoSynchBathroom {
            monitor,
            man_may_enter,
            woman_may_enter,
        }
    }
}

impl Bathroom for AutoSynchBathroom {
    fn enter(&self, gender: Gender) {
        self.monitor.enter_tracked(|g| {
            match gender {
                Gender::Man => g.wait(&self.man_may_enter),
                Gender::Woman => g.wait(&self.woman_may_enter),
            }
            g.state_mut().admit(gender);
        });
    }

    fn exit(&self, gender: Gender) {
        self.monitor
            .enter_tracked(|g| g.state_mut().release(gender));
    }

    fn outcome(&self) -> BathroomOutcome {
        self.monitor.enter(|g| BathroomOutcome {
            served: g.state().served,
            peak: g.state().peak,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_bathroom(mechanism: Mechanism, capacity: i64) -> Arc<dyn Bathroom> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitBathroom::new(capacity)),
        Mechanism::Baseline => Arc::new(BaselineBathroom::new(capacity)),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchBathroom::new(capacity, mechanism)),
    }
}

/// Parameters of a bathroom run.
#[derive(Debug, Clone, Copy)]
pub struct BathroomConfig {
    /// Threads per gender.
    pub per_gender: usize,
    /// Visits per thread.
    pub visits: usize,
    /// Stalls.
    pub capacity: i64,
}

impl Default for BathroomConfig {
    fn default() -> Self {
        BathroomConfig {
            per_gender: 4,
            visits: 200,
            capacity: 3,
        }
    }
}

/// Runs the saturation test and checks mutual exclusion of genders and
/// the capacity bound.
///
/// # Panics
///
/// Panics when the visit count is wrong, the genders ever overlapped,
/// or occupancy exceeded capacity.
pub fn run(mechanism: Mechanism, config: BathroomConfig) -> RunReport {
    let bathroom = make_bathroom(mechanism, config.capacity);
    let threads = config.per_gender * 2;

    let (elapsed, ctx) = timed_run(threads, |i| {
        let gender = if i % 2 == 0 {
            Gender::Man
        } else {
            Gender::Woman
        };
        for _ in 0..config.visits {
            bathroom.enter(gender);
            bathroom.exit(gender);
        }
    });

    let outcome = bathroom.outcome();
    assert_eq!(
        outcome.served,
        (threads * config.visits) as u64,
        "{mechanism}: visit count mismatch"
    );
    assert!(
        !outcome.violation,
        "{mechanism}: both genders were inside simultaneously"
    );
    assert!(
        outcome.peak <= config.capacity,
        "{mechanism}: occupancy {} exceeded capacity {}",
        outcome.peak,
        config.capacity
    );

    RunReport {
        mechanism,
        threads,
        elapsed,
        stats: bathroom.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            BathroomConfig {
                per_gender: 3,
                visits: 80,
                capacity: 2,
            },
        )
    }

    #[test]
    fn all_mechanisms_respect_the_invariants() {
        for mechanism in Mechanism::ALL {
            small(mechanism);
        }
    }

    #[test]
    fn autosynch_never_broadcasts_but_explicit_does() {
        let auto = small(Mechanism::AutoSynch);
        assert_eq!(auto.stats.counters.broadcasts, 0);
        let explicit = small(Mechanism::Explicit);
        assert!(
            explicit.stats.counters.broadcasts > 0,
            "the explicit drain path must have broadcast at least once"
        );
    }

    #[test]
    fn capacity_one_serializes_everyone() {
        let report = run(
            Mechanism::AutoSynch,
            BathroomConfig {
                per_gender: 3,
                visits: 50,
                capacity: 1,
            },
        );
        assert_eq!(report.threads, 6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = AutoSynchBathroom::new(0, Mechanism::AutoSynch);
    }

    #[test]
    fn single_gender_run_reaches_capacity() {
        // Only men: the capacity threshold is the binding constraint.
        let bathroom = make_bathroom(Mechanism::AutoSynch, 2);
        let (_, _) = timed_run(4, |_| {
            for _ in 0..50 {
                bathroom.enter(Gender::Man);
                bathroom.exit(Gender::Man);
            }
        });
        let outcome = bathroom.outcome();
        assert_eq!(outcome.served, 200);
        assert!(outcome.peak <= 2);
        assert!(!outcome.violation);
    }
}
