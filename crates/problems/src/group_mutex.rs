//! Group mutual exclusion (Joung, PODC'98 — reference \[15\] of the
//! paper) — an extension workload whose waiting condition is a
//! **disjunction**, exercising multi-conjunction DNF predicates: the
//! two conjunctions of one `waituntil` carry *different* tags.
//!
//! Threads attend *forums*. Any number of threads may be in the same
//! forum simultaneously, but two different forums must never overlap —
//! mutual exclusion between groups, concurrency within a group. A
//! thread headed for forum `f` waits on
//! `waituntil(inside == 0 || active_forum == f)`: the first conjunction
//! is a shared equivalence (`inside == 0`), the second a globalized
//! equivalence (`active_forum == f` with thread-local `f`). The
//! explicit version must broadcast every forum's condition variable
//! when the room drains because it cannot know which forum should go
//! next.

use std::sync::Arc;

use autosynch::baseline::BaselineMonitor;
use autosynch::explicit::{CondId, ExplicitMonitor};
use autosynch::monitor::Monitor;
use autosynch::stats::StatsSnapshot;
use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
use autosynch::Cond;

use crate::mechanism::{timed_run, Mechanism, RunReport};

/// No forum active.
pub const NO_FORUM: i64 = -1;

/// Forum-room state shared by every implementation.
#[derive(Debug)]
pub struct ForumState {
    active_forum: Tracked<i64>,
    inside: Tracked<i64>,
    sessions: u64,
    /// Peak simultaneous attendance of any single forum — evidence of
    /// within-group concurrency.
    peak_inside: i64,
    /// Set if two forums ever overlapped.
    violation: bool,
}

impl Default for ForumState {
    fn default() -> Self {
        ForumState {
            active_forum: Tracked::new(NO_FORUM),
            inside: Tracked::new(0),
            sessions: 0,
            peak_inside: 0,
            violation: false,
        }
    }
}

impl TrackedState for ForumState {
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
        f(&mut self.active_forum);
        f(&mut self.inside);
    }
}

impl ForumState {
    fn admit(&mut self, forum: i64) {
        if *self.inside > 0 && *self.active_forum != forum {
            self.violation = true;
        }
        *self.active_forum = forum;
        *self.inside += 1;
        self.peak_inside = self.peak_inside.max(*self.inside);
    }

    fn release(&mut self) {
        *self.inside -= 1;
        self.sessions += 1;
        if *self.inside == 0 {
            *self.active_forum = NO_FORUM;
        }
    }
}

/// Outcome snapshot used by the invariant checks.
#[derive(Debug, Clone, Copy)]
pub struct ForumOutcome {
    /// Completed sessions.
    pub sessions: u64,
    /// Peak simultaneous attendance.
    pub peak_inside: i64,
    /// Whether two forums ever overlapped.
    pub violation: bool,
}

/// The forum-room operations.
pub trait ForumRoom: Send + Sync {
    /// Blocks until forum `f` may convene (room empty or already on
    /// `f`), then joins it.
    fn attend(&self, forum: i64);
    /// Leaves the forum; the last one out vacates the room.
    fn leave(&self);
    /// Final outcome for invariant checking.
    fn outcome(&self) -> ForumOutcome;
    /// Instrumentation snapshot.
    fn stats(&self) -> StatsSnapshot;
}

/// Explicit-signal forum room: one condvar per forum. The drain path
/// broadcasts **every** forum's condvar — the §3 problem: the leaver
/// cannot know which forum's turn it is.
#[derive(Debug)]
pub struct ExplicitForumRoom {
    monitor: ExplicitMonitor<ForumState>,
    forum_cv: Vec<CondId>,
}

impl ExplicitForumRoom {
    /// Creates a room for `forums` distinct forums.
    pub fn new(forums: usize) -> Self {
        assert!(forums >= 1, "need at least one forum");
        let mut monitor = ExplicitMonitor::new(ForumState::default());
        let forum_cv = monitor.add_conditions(forums);
        ExplicitForumRoom { monitor, forum_cv }
    }
}

impl ForumRoom for ExplicitForumRoom {
    fn attend(&self, forum: i64) {
        let cv = self.forum_cv[forum as usize];
        self.monitor.enter(|g| {
            g.wait_while(cv, move |s| *s.inside > 0 && *s.active_forum != forum);
            g.state_mut().admit(forum);
            // Same-forum colleagues can pile in behind us.
            g.signal(cv);
        });
    }

    fn leave(&self) {
        self.monitor.enter(|g| {
            g.state_mut().release();
            if *g.state().inside == 0 {
                // Whose turn? Unknown — wake every forum (signalAll ×F).
                for &cv in &self.forum_cv {
                    g.signal_all(cv);
                }
            }
        });
    }

    fn outcome(&self) -> ForumOutcome {
        self.monitor.enter(|g| ForumOutcome {
            sessions: g.state().sessions,
            peak_inside: g.state().peak_inside,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Baseline forum room: single condvar, broadcast on every change.
#[derive(Debug)]
pub struct BaselineForumRoom {
    monitor: BaselineMonitor<ForumState>,
}

impl BaselineForumRoom {
    /// Creates the room.
    pub fn new() -> Self {
        BaselineForumRoom {
            monitor: BaselineMonitor::new(ForumState::default()),
        }
    }
}

impl Default for BaselineForumRoom {
    fn default() -> Self {
        Self::new()
    }
}

impl ForumRoom for BaselineForumRoom {
    fn attend(&self, forum: i64) {
        self.monitor.enter(|g| {
            g.wait_until(move |s: &ForumState| *s.inside == 0 || *s.active_forum == forum);
            g.state_mut().admit(forum);
        });
    }

    fn leave(&self) {
        self.monitor.enter(|g| g.state_mut().release());
    }

    fn outcome(&self) -> ForumOutcome {
        self.monitor.enter(|g| ForumOutcome {
            sessions: g.state().sessions,
            peak_inside: g.state().peak_inside,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// AutoSynch forum room:
/// `waituntil(inside == 0 || active_forum == f)` — a two-conjunction
/// DNF where each conjunction gets its own equivalence tag.
#[derive(Debug)]
pub struct AutoSynchForumRoom {
    monitor: Monitor<ForumState>,
    /// `inside == 0 || active_forum == f`, compiled once per forum.
    may_attend: Vec<Cond<ForumState>>,
}

impl AutoSynchForumRoom {
    /// Creates the room for `forums` distinct forums under the
    /// mechanism's monitor configuration.
    pub fn new(forums: usize, mechanism: Mechanism) -> Self {
        let config = mechanism
            .monitor_config()
            .expect("AutoSynchForumRoom requires an automatic mechanism");
        let monitor = Monitor::with_config(ForumState::default(), config);
        let inside = monitor.register_expr("inside", |s| *s.inside);
        let active_forum = monitor.register_expr("active_forum", |s| *s.active_forum);
        monitor.bind(|s| &mut s.inside, &[inside]);
        monitor.bind(|s| &mut s.active_forum, &[active_forum]);
        let may_attend = (0..forums as i64)
            .map(|forum| monitor.compile(inside.eq(0).or(active_forum.eq(forum))))
            .collect();
        AutoSynchForumRoom {
            monitor,
            may_attend,
        }
    }
}

impl ForumRoom for AutoSynchForumRoom {
    fn attend(&self, forum: i64) {
        self.monitor.enter_tracked(|g| {
            g.wait(&self.may_attend[forum as usize]);
            g.state_mut().admit(forum);
        });
    }

    fn leave(&self) {
        self.monitor.enter_tracked(|g| g.state_mut().release());
    }

    fn outcome(&self) -> ForumOutcome {
        self.monitor.enter(|g| ForumOutcome {
            sessions: g.state().sessions,
            peak_inside: g.state().peak_inside,
            violation: g.state().violation,
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }
}

/// Instantiates the implementation for `mechanism`.
pub fn make_room(mechanism: Mechanism, forums: usize) -> Arc<dyn ForumRoom> {
    match mechanism {
        Mechanism::Explicit => Arc::new(ExplicitForumRoom::new(forums)),
        Mechanism::Baseline => Arc::new(BaselineForumRoom::new()),
        Mechanism::AutoSynchT
        | Mechanism::AutoSynch
        | Mechanism::AutoSynchCD
        | Mechanism::AutoSynchRoute => Arc::new(AutoSynchForumRoom::new(forums, mechanism)),
    }
}

/// Parameters of a group-mutex run.
#[derive(Debug, Clone, Copy)]
pub struct GroupMutexConfig {
    /// Total threads; thread `i` attends forum `i % forums`.
    pub threads: usize,
    /// Distinct forums.
    pub forums: usize,
    /// Sessions per thread.
    pub sessions: usize,
}

impl Default for GroupMutexConfig {
    fn default() -> Self {
        GroupMutexConfig {
            threads: 8,
            forums: 3,
            sessions: 200,
        }
    }
}

/// Runs the saturation test and checks group mutual exclusion.
///
/// # Panics
///
/// Panics when the session count is wrong or two forums ever
/// overlapped.
pub fn run(mechanism: Mechanism, config: GroupMutexConfig) -> RunReport {
    assert!(config.forums >= 1, "need at least one forum");
    let room = make_room(mechanism, config.forums);

    let (elapsed, ctx) = timed_run(config.threads, |i| {
        let forum = (i % config.forums) as i64;
        for _ in 0..config.sessions {
            room.attend(forum);
            room.leave();
        }
    });

    let outcome = room.outcome();
    assert_eq!(
        outcome.sessions,
        (config.threads * config.sessions) as u64,
        "{mechanism}: session count mismatch"
    );
    assert!(
        !outcome.violation,
        "{mechanism}: two forums overlapped in the room"
    );

    RunReport {
        mechanism,
        threads: config.threads,
        elapsed,
        stats: room.stats(),
        ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mechanism: Mechanism) -> RunReport {
        run(
            mechanism,
            GroupMutexConfig {
                threads: 6,
                forums: 3,
                sessions: 80,
            },
        )
    }

    #[test]
    fn all_mechanisms_respect_group_exclusion() {
        for mechanism in Mechanism::ALL {
            small(mechanism);
        }
    }

    #[test]
    fn autosynch_never_broadcasts() {
        let report = small(Mechanism::AutoSynch);
        assert_eq!(report.stats.counters.broadcasts, 0);
    }

    #[test]
    fn single_forum_allows_full_concurrency() {
        // Everyone in the same forum: nobody should ever need to wait
        // once the room is claimed, and attendance can stack.
        let room = make_room(Mechanism::AutoSynch, 1);
        let (_, _) = timed_run(4, |_| {
            for _ in 0..100 {
                room.attend(0);
                room.leave();
            }
        });
        let outcome = room.outcome();
        assert_eq!(outcome.sessions, 400);
        assert!(!outcome.violation);
    }

    #[test]
    fn forum_contention_still_makes_progress() {
        // More forums than threads-per-forum: heavy drain/refill churn.
        let report = run(
            Mechanism::AutoSynch,
            GroupMutexConfig {
                threads: 8,
                forums: 8,
                sessions: 60,
            },
        );
        assert_eq!(report.threads, 8);
    }

    #[test]
    #[should_panic(expected = "at least one forum")]
    fn zero_forums_is_rejected() {
        let _ = run(
            Mechanism::AutoSynch,
            GroupMutexConfig {
                threads: 2,
                forums: 0,
                sessions: 1,
            },
        );
    }
}
