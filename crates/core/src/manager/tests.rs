use super::*;
use autosynch_predicate::expr::ExprHandle;
use autosynch_predicate::predicate::IntoPredicate;

struct St {
    count: i64,
}

/// The shared counters once what `mgr` has counted is flushed to them —
/// the monitor's step wherever an occupant gives up its exclusion.
fn counted<S>(
    mgr: &mut ConditionManager<S>,
    stats: &MonitorStats,
) -> autosynch_metrics::counters::CounterSnapshot {
    stats.counters.flush(&mut mgr.tally);
    stats.counters.snapshot()
}

fn setup() -> (
    ExprTable<St>,
    ExprHandle<St>,
    ConditionManager<St>,
    Arc<MonitorStats>,
) {
    let mut exprs = ExprTable::new();
    let count = exprs.register("count", |s: &St| s.count);
    let mgr = ConditionManager::new(MonitorConfig::default());
    (exprs, count, mgr, MonitorStats::new(false))
}

#[test]
fn dedupe_maps_equivalent_predicates_to_one_entry() {
    let (_, count, mut mgr, stats) = setup();
    let a = mgr.register_waiter(count.ge(48).into_predicate(), &stats);
    let b = mgr.register_waiter(count.ge(48).into_predicate(), &stats);
    assert_eq!(a, b);
    assert_eq!(mgr.entry_count(), 1);
    assert_eq!(mgr.waiting_count(), 2);
    let c = mgr.register_waiter(count.ge(32).into_predicate(), &stats);
    assert_ne!(a, c);
    assert_eq!(mgr.entry_count(), 2);
}

#[test]
fn keyless_customs_get_distinct_entries() {
    let (_, _, mut mgr, stats) = setup();
    let a = mgr.register_waiter(Predicate::custom("c", |s: &St| s.count > 0), &stats);
    let b = mgr.register_waiter(Predicate::custom("c", |s: &St| s.count > 0), &stats);
    assert_ne!(a, b);
}

#[test]
fn relay_finds_true_threshold_predicate() {
    let (exprs, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    // Not yet true.
    assert_eq!(mgr.relay_signal(&St { count: 9 }, &exprs, &stats), None);
    // Now true: exactly this entry is signaled.
    assert_eq!(
        mgr.relay_signal(&St { count: 10 }, &exprs, &stats),
        Some(pid)
    );
    assert_eq!(mgr.waiting_count(), 0);
    assert_eq!(mgr.signaled_count(), 1);
    // Tags are gone: a second relay finds nothing even though the
    // predicate is still true (the thread has already been signaled).
    assert_eq!(mgr.relay_signal(&St { count: 10 }, &exprs, &stats), None);
}

#[test]
fn relay_prefers_equivalence_over_threshold_over_none() {
    let (exprs, count, mut mgr, stats) = setup();
    let none = mgr.register_waiter(count.ne(0).into_predicate(), &stats);
    let thr = mgr.register_waiter(count.ge(1).into_predicate(), &stats);
    let eq = mgr.register_waiter(count.eq(5).into_predicate(), &stats);
    let _ = none;
    let _ = thr;
    // All three true at count=5; the equivalence-tagged entry wins.
    assert_eq!(mgr.relay_signal(&St { count: 5 }, &exprs, &stats), Some(eq));
}

#[test]
fn validated_relay_accepts_a_correct_search() {
    let config = MonitorConfig::new().validate_relay(true);
    let mut exprs = ExprTable::new();
    let count = exprs.register("count", |s: &St| s.count);
    let mut mgr = ConditionManager::new(config);
    let stats = MonitorStats::new(false);
    // Mixed tag classes, all probed through their indexes; the
    // post-relay exhaustive check must agree with every outcome.
    let _eq = mgr.register_waiter(count.eq(5).into_predicate(), &stats);
    let _thr = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    let _none = mgr.register_waiter(count.ne(0).into_predicate(), &stats);
    assert_eq!(mgr.relay_signal(&St { count: 0 }, &exprs, &stats), None);
    assert!(mgr.relay_signal(&St { count: 5 }, &exprs, &stats).is_some());
    assert!(mgr
        .relay_signal(&St { count: 12 }, &exprs, &stats)
        .is_some());
    assert!(mgr.relay_signal(&St { count: 3 }, &exprs, &stats).is_some());
    assert_eq!(mgr.waiting_count(), 0);
}

#[test]
#[should_panic(expected = "relay invariance violated")]
fn validated_relay_catches_a_missed_waiter() {
    // A non-deterministic predicate breaks the system's assumption
    // that predicates are pure functions of the state: it reads
    // false when the relay search evaluates it and true when the
    // validator re-checks. The validator must flag the miss.
    use std::sync::atomic::{AtomicBool, Ordering};
    let config = MonitorConfig::new().validate_relay(true);
    let exprs: ExprTable<St> = ExprTable::new();
    let mut mgr = ConditionManager::new(config);
    let stats = MonitorStats::new(false);
    let flip = AtomicBool::new(false);
    let pid = mgr.register_waiter(
        Predicate::custom("flip-flop", move |_: &St| {
            flip.fetch_xor(true, Ordering::Relaxed)
        }),
        &stats,
    );
    let _ = pid;
    let _ = mgr.relay_signal(&St { count: 0 }, &exprs, &stats);
}

#[test]
fn relay_falls_back_to_none_tags() {
    let (exprs, _, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(Predicate::custom("odd", |s: &St| s.count % 2 == 1), &stats);
    assert_eq!(mgr.relay_signal(&St { count: 2 }, &exprs, &stats), None);
    assert_eq!(
        mgr.relay_signal(&St { count: 3 }, &exprs, &stats),
        Some(pid)
    );
}

#[test]
fn untagged_mode_scans_linearly() {
    let (exprs, count, _, _) = setup();
    let mut mgr = ConditionManager::new(MonitorConfig::preset(SignalMode::Untagged));
    let stats = MonitorStats::new(false);
    let before = counted(&mut mgr, &stats);
    let _a = mgr.register_waiter(count.eq(100).into_predicate(), &stats);
    let b = mgr.register_waiter(count.ge(1).into_predicate(), &stats);
    let hit = mgr.relay_signal(&St { count: 1 }, &exprs, &stats);
    assert_eq!(hit, Some(b));
    // The scan evaluated entry `a`'s whole predicate too.
    let after = counted(&mut mgr, &stats).since(&before);
    assert!(after.pred_evals >= 2);
    assert_eq!(after.expr_evals, 0, "untagged mode does no expr caching");
}

#[test]
fn futile_wakeup_reactivates_tags() {
    let (exprs, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    assert_eq!(mgr.live_tag_count(), 1);
    mgr.relay_signal(&St { count: 10 }, &exprs, &stats);
    assert_eq!(mgr.live_tag_count(), 0, "no unsignaled waiters left");
    // The woken thread finds the predicate false again (barging).
    mgr.mark_futile(pid, &stats);
    assert_eq!(mgr.live_tag_count(), 1);
    assert_eq!(mgr.waiting_count(), 1);
    assert_eq!(mgr.signaled_count(), 0);
}

#[test]
fn spurious_futile_wakeup_is_a_noop() {
    // A std-backed condvar may wake a thread that was never
    // signaled; with no token outstanding the entry must not move.
    let (_, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    assert_eq!((mgr.waiting_count(), mgr.signaled_count()), (1, 0));
    mgr.mark_futile(pid, &stats);
    assert_eq!((mgr.waiting_count(), mgr.signaled_count()), (1, 0));
    assert_eq!(mgr.live_tag_count(), 1, "tags stay live");
}

#[test]
fn spurious_wakeup_with_true_predicate_consumes_from_waiting() {
    // A spuriously woken thread that finds its predicate true
    // proceeds; its unit leaves `waiting` and the tags retire.
    let (_, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    mgr.consume_signal(pid, &stats);
    assert_eq!((mgr.waiting_count(), mgr.signaled_count()), (0, 0));
    assert_eq!(mgr.live_tag_count(), 0);
    assert_eq!(mgr.inactive_count(), 1);
}

#[test]
fn absorbed_signal_then_true_peer_stays_consistent() {
    // W1 and W2 wait on one entry; one signal is sent; a spurious
    // wakeup absorbs it futilely; the true-predicate peer must then
    // consume from `waiting` without underflow.
    let (exprs, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(1).into_predicate(), &stats);
    mgr.register_waiter(count.ge(1).into_predicate(), &stats);
    mgr.relay_signal(&St { count: 1 }, &exprs, &stats);
    assert_eq!((mgr.waiting_count(), mgr.signaled_count()), (1, 1));
    mgr.mark_futile(pid, &stats); // absorbs the token
    assert_eq!((mgr.waiting_count(), mgr.signaled_count()), (2, 0));
    mgr.consume_signal(pid, &stats); // peer proceeds anyway
    assert_eq!((mgr.waiting_count(), mgr.signaled_count()), (1, 0));
    assert_eq!(mgr.live_tag_count(), 1);
}

#[test]
fn consume_signal_retires_entry_to_inactive() {
    let (exprs, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    mgr.relay_signal(&St { count: 10 }, &exprs, &stats);
    mgr.consume_signal(pid, &stats);
    assert_eq!(mgr.waiting_count(), 0);
    assert_eq!(mgr.signaled_count(), 0);
    assert_eq!(mgr.inactive_count(), 1);
    assert_eq!(mgr.entry_count(), 1, "inactive entries are kept for reuse");
    // Reuse removes it from the inactive list.
    let again = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    assert_eq!(again, pid);
    assert_eq!(mgr.inactive_count(), 0);
}

#[test]
fn inactive_list_evicts_beyond_cap() {
    let (exprs, count, _, _) = setup();
    let mut mgr = ConditionManager::new(MonitorConfig::new().inactive_cap(2));
    let stats = MonitorStats::new(false);
    for k in 0..5 {
        let pid = mgr.register_waiter(count.ge(100 + k).into_predicate(), &stats);
        mgr.relay_signal(&St { count: 200 }, &exprs, &stats);
        mgr.consume_signal(pid, &stats);
    }
    assert_eq!(mgr.inactive_count(), 2);
    assert_eq!(mgr.entry_count(), 2);
}

#[test]
fn persistent_predicates_survive_eviction() {
    let (exprs, count, _, _) = setup();
    let mut mgr = ConditionManager::new(MonitorConfig::new().inactive_cap(0));
    let stats = MonitorStats::new(false);
    let shared = mgr.register_persistent(count.gt(0).into_predicate());
    // A complex predicate retires and is evicted immediately (cap 0).
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    mgr.relay_signal(&St { count: 10 }, &exprs, &stats);
    mgr.consume_signal(pid, &stats);
    assert_eq!(mgr.entry_count(), 1, "only the persistent entry remains");
    // The persistent one still interns to the same id.
    let w = mgr.register_waiter(count.gt(0).into_predicate(), &stats);
    assert_eq!(w, shared);
}

#[test]
fn timeout_of_unsignaled_waiter_deactivates() {
    let (_, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    let consumed = mgr.on_timeout(pid, &stats);
    assert!(!consumed);
    assert_eq!(mgr.waiting_count(), 0);
    assert_eq!(mgr.live_tag_count(), 0);
    assert_eq!(mgr.inactive_count(), 1);
}

#[test]
fn timeout_after_signal_consumes_and_requests_relay() {
    let (exprs, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    mgr.relay_signal(&St { count: 10 }, &exprs, &stats);
    let consumed = mgr.on_timeout(pid, &stats);
    assert!(consumed, "the orphaned signal must be passed onward");
    assert_eq!(mgr.signaled_count(), 0);
}

#[test]
fn multiple_waiters_one_entry_signal_one_at_a_time() {
    let (exprs, count, mut mgr, stats) = setup();
    let pid = mgr.register_waiter(count.ge(1).into_predicate(), &stats);
    let pid2 = mgr.register_waiter(count.ge(1).into_predicate(), &stats);
    assert_eq!(pid, pid2);
    assert_eq!(mgr.waiting_count(), 2);
    assert_eq!(
        mgr.relay_signal(&St { count: 1 }, &exprs, &stats),
        Some(pid)
    );
    assert_eq!(mgr.waiting_count(), 1);
    assert_eq!(mgr.live_tag_count(), 1, "tags stay while waiters remain");
    assert_eq!(
        mgr.relay_signal(&St { count: 1 }, &exprs, &stats),
        Some(pid)
    );
    assert_eq!(mgr.waiting_count(), 0);
    assert_eq!(mgr.live_tag_count(), 0);
}

// --- change-driven relay ---------------------------------------------
//
// Contract note: these tests drive the manager directly, so they must
// call `note_mutation` whenever they hand `relay_signal` a state that
// differs from the previous call's — exactly what `Monitor::state_mut`
// does in the integrated runtime.

fn cd_setup() -> (
    ExprTable<St>,
    ExprHandle<St>,
    ConditionManager<St>,
    Arc<MonitorStats>,
) {
    let mut exprs = ExprTable::new();
    let count = exprs.register("count", |s: &St| s.count);
    let mgr =
        ConditionManager::new(MonitorConfig::preset(SignalMode::ChangeDriven).validate_relay(true));
    (exprs, count, mgr, MonitorStats::new(false))
}

#[test]
fn change_driven_finds_true_threshold_predicate() {
    let (exprs, count, mut mgr, stats) = cd_setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    assert_eq!(mgr.relay_signal(&St { count: 9 }, &exprs, &stats), None);
    mgr.note_mutation();
    assert_eq!(
        mgr.relay_signal(&St { count: 10 }, &exprs, &stats),
        Some(pid)
    );
}

#[test]
fn change_driven_skips_relay_on_unchanged_state() {
    let (exprs, count, mut mgr, stats) = cd_setup();
    mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    let state = St { count: 3 };
    assert_eq!(mgr.relay_signal(&state, &exprs, &stats), None);
    let before = counted(&mut mgr, &stats);
    // No mutation announced: the second and third relays are skipped
    // without evaluating anything.
    assert_eq!(mgr.relay_signal(&state, &exprs, &stats), None);
    assert_eq!(mgr.relay_signal(&state, &exprs, &stats), None);
    let diff = counted(&mut mgr, &stats).since(&before);
    assert_eq!(diff.relay_skips, 2);
    assert_eq!(diff.expr_evals, 0);
    assert_eq!(diff.pred_evals, 0);
}

#[test]
fn change_driven_skips_probes_for_unchanged_dependencies() {
    let mut exprs = ExprTable::new();
    let a = exprs.register("a", |s: &St2| s.a);
    let b = exprs.register("b", |s: &St2| s.b);
    let mut mgr: ConditionManager<St2> =
        ConditionManager::new(MonitorConfig::preset(SignalMode::ChangeDriven).validate_relay(true));
    let stats = MonitorStats::new(false);
    // Waiter 1 depends on `a` alone; waiter 2 depends on `b` alone,
    // with a tag (`b <= 100`) that stays true so the heap walk always
    // reaches its candidate — the dependency filter must reject it.
    mgr.register_waiter(a.ge(10).into_predicate(), &stats);
    mgr.register_waiter(b.le(100).and(b.ge(10)).into_predicate(), &stats);
    assert_eq!(mgr.relay_signal(&St2 { a: 0, b: 0 }, &exprs, &stats), None);
    mgr.note_mutation();
    let before = counted(&mut mgr, &stats);
    // `a` changes but stays below threshold; `b` is untouched.
    assert_eq!(mgr.relay_signal(&St2 { a: 5, b: 0 }, &exprs, &stats), None);
    let diff = counted(&mut mgr, &stats).since(&before);
    assert_eq!(diff.expr_evals, 2, "both live exprs diffed once");
    assert_eq!(diff.unchanged_exprs, 1, "b matched the snapshot");
    assert_eq!(
        diff.pred_evals, 0,
        "a's tag is false; b's candidate skipped"
    );
    assert_eq!(diff.probes_skipped, 1, "b's candidate skipped by deps");
}

struct St2 {
    a: i64,
    b: i64,
}

#[test]
fn change_driven_none_tags_probe_by_dependency() {
    let (exprs, count, mut mgr, stats) = cd_setup();
    // `count != 0` tags as None but depends only on `count`.
    let pid = mgr.register_waiter(count.ne(0).into_predicate(), &stats);
    assert_eq!(mgr.relay_signal(&St { count: 0 }, &exprs, &stats), None);
    mgr.note_mutation();
    assert_eq!(
        mgr.relay_signal(&St { count: 7 }, &exprs, &stats),
        Some(pid)
    );
}

#[test]
fn change_driven_opaque_predicates_always_probe() {
    let (exprs, _, mut mgr, stats) = cd_setup();
    let pid = mgr.register_waiter(Predicate::custom("odd", |s: &St| s.count % 2 == 1), &stats);
    assert_eq!(mgr.relay_signal(&St { count: 2 }, &exprs, &stats), None);
    mgr.note_mutation();
    assert_eq!(
        mgr.relay_signal(&St { count: 3 }, &exprs, &stats),
        Some(pid)
    );
    assert_eq!(mgr.live_tag_count(), 0);
}

#[test]
fn change_driven_probe_all_catches_leftover_true_waiters() {
    // Two waiters become true on one mutation; the relay signals only
    // the first. The follow-up relay runs on unmutated state and must
    // still find the second (the probe-all path).
    let (exprs, count, mut mgr, stats) = cd_setup();
    let first = mgr.register_waiter(count.ge(1).into_predicate(), &stats);
    let second = mgr.register_waiter(count.ge(2).into_predicate(), &stats);
    mgr.note_mutation();
    let state = St { count: 5 };
    let hit1 = mgr.relay_signal(&state, &exprs, &stats);
    let hit2 = mgr.relay_signal(&state, &exprs, &stats);
    let mut signaled = [hit1.unwrap(), hit2.unwrap()];
    signaled.sort();
    let mut expected = [first, second];
    expected.sort();
    assert_eq!(signaled, expected);
    // Both signaled: a third relay finds nothing and re-arms the skip.
    assert_eq!(mgr.relay_signal(&state, &exprs, &stats), None);
    let before = counted(&mut mgr, &stats);
    assert_eq!(mgr.relay_signal(&state, &exprs, &stats), None);
    assert_eq!(counted(&mut mgr, &stats).since(&before).relay_skips, 1);
}

#[test]
fn change_driven_equivalence_probe_uses_snapshot_values() {
    let (exprs, count, mut mgr, stats) = cd_setup();
    let pid = mgr.register_waiter(count.eq(5).into_predicate(), &stats);
    assert_eq!(mgr.relay_signal(&St { count: 1 }, &exprs, &stats), None);
    mgr.note_mutation();
    assert_eq!(
        mgr.relay_signal(&St { count: 5 }, &exprs, &stats),
        Some(pid)
    );
    assert_eq!(mgr.waiting_count(), 0);
}

#[test]
fn change_driven_cleans_up_indexes_on_deactivation() {
    let (exprs, count, mut mgr, stats) = cd_setup();
    let pid = mgr.register_waiter(count.ne(0).into_predicate(), &stats);
    assert_eq!(mgr.live_tag_count(), 1);
    mgr.note_mutation();
    assert_eq!(
        mgr.relay_signal(&St { count: 2 }, &exprs, &stats),
        Some(pid)
    );
    mgr.consume_signal(pid, &stats);
    assert_eq!(mgr.live_tag_count(), 0);
    assert_eq!(mgr.waiting_count(), 0);
    assert_eq!(mgr.signaled_count(), 0);
}

#[test]
fn change_driven_futile_wakeup_reactivates() {
    let (exprs, count, mut mgr, stats) = cd_setup();
    let pid = mgr.register_waiter(count.ge(10).into_predicate(), &stats);
    mgr.note_mutation();
    mgr.relay_signal(&St { count: 10 }, &exprs, &stats);
    // Barged: the predicate is false again when the thread wakes.
    mgr.note_mutation();
    mgr.mark_futile(pid, &stats);
    assert_eq!(mgr.live_tag_count(), 1);
    mgr.note_mutation();
    assert_eq!(
        mgr.relay_signal(&St { count: 12 }, &exprs, &stats),
        Some(pid)
    );
}

#[test]
fn change_driven_opaque_eq_tagged_conjunction_wakes_on_untracked_mutation() {
    // An opaque conjunction carrying an Equivalence tag lives in the
    // eq_index, not the opaque_list. A mutation touching only untracked
    // state changes no expression value, so the changed-set filter must
    // still let the candidate through (opaque dependencies intersect
    // everything) — skipping it would strand the waiter (the armed
    // Def. 4 validator turns the lost wakeup into a panic).
    use autosynch_predicate::ast::BoolExpr;
    struct Flagged {
        x: i64,
        flag: bool,
    }
    let mut exprs = ExprTable::new();
    let x = exprs.register("x", |s: &Flagged| s.x);
    let mut mgr: ConditionManager<Flagged> =
        ConditionManager::new(MonitorConfig::preset(SignalMode::ChangeDriven).validate_relay(true));
    let stats = MonitorStats::new(false);
    let pred = x
        .eq(5)
        .and(BoolExpr::custom("flag", |s: &Flagged| s.flag))
        .into_predicate();
    let pid = mgr.register_waiter(pred, &stats);
    // x == 5 already, flag false: the relay runs dry and earns its
    // all_false certificate.
    let mut state = Flagged { x: 5, flag: false };
    assert_eq!(mgr.relay_signal(&state, &exprs, &stats), None);
    // The mutation flips only the untracked flag — no expression value
    // moves — yet the waiter must be found.
    state.flag = true;
    mgr.note_mutation();
    assert_eq!(mgr.relay_signal(&state, &exprs, &stats), Some(pid));
}

#[test]
fn expr_is_evaluated_once_per_relay() {
    let (exprs, count, mut mgr, stats) = setup();
    // Two equivalence tags and a threshold tag on the same expr.
    mgr.register_waiter(count.eq(3).into_predicate(), &stats);
    mgr.register_waiter(count.eq(4).into_predicate(), &stats);
    mgr.register_waiter(count.ge(100).into_predicate(), &stats);
    let before = counted(&mut mgr, &stats);
    mgr.relay_signal(&St { count: 0 }, &exprs, &stats);
    let diff = counted(&mut mgr, &stats).since(&before);
    assert_eq!(diff.expr_evals, 1, "value cache collapses expr evals");
}

// --- routed mode: helpers ---------------------------------------------
//
// Same contract note as the change-driven tests: `note_mutation` must
// precede any `relay_signal` whose state differs from the previous
// call's.

fn gate_setup(
    config: MonitorConfig,
) -> (
    ExprTable<StN>,
    Vec<ExprHandle<StN>>,
    ConditionManager<StN>,
    Arc<MonitorStats>,
) {
    let mut exprs = ExprTable::new();
    let handles = (0..4)
        .map(|i| exprs.register(format!("v{i}"), move |s: &StN| s.values[i]))
        .collect();
    let mgr = ConditionManager::new(config.validate_relay(true));
    (exprs, handles, mgr, MonitorStats::new(false))
}

#[derive(Default)]
struct StN {
    values: [i64; 4],
}

/// Two expression handles guaranteed to live on different data gates
/// (exists for any gate count ≥ 2 among four registered exprs — the
/// FNV key spreads adjacent ids; asserted rather than assumed).
fn separated_pair(
    handles: &[ExprHandle<StN>],
    mgr: &ConditionManager<StN>,
) -> (ExprHandle<StN>, ExprHandle<StN>) {
    let first = handles[0];
    let other = handles[1..]
        .iter()
        .find(|h| mgr.router.shard_of_expr(h.id()) != mgr.router.shard_of_expr(first.id()))
        .copied()
        .expect("no expr pair separated by the router; add more handles");
    (first, other)
}

#[test]
fn routed_diff_publishes_to_the_ring() {
    let (exprs, handles, mut mgr, stats) = gate_setup(MonitorConfig::preset(SignalMode::Routed));
    let v = handles[0];
    mgr.register_waiter(v.ge(10).into_predicate(), &stats);
    let ring = mgr.ring();
    assert!(ring.read_latest(&stats.counters).is_none(), "no diff yet");
    let mut state = StN::default();
    state.values[0] = 7;
    mgr.note_mutation();
    mgr.relay_signal(&state, &exprs, &stats);
    let (epoch, values) = ring
        .read_latest(&stats.counters)
        .expect("diff published a snapshot");
    assert!(epoch >= 1);
    assert_eq!(values[v.id().index()], Some(7));
}

// --- routed mode: gates and validator ---------------------------------

#[test]
fn routed_routes_confined_and_spanning_predicates_to_their_gates() {
    let (_, handles, mut mgr, stats) = gate_setup(MonitorConfig::preset(SignalMode::Routed));
    let (a, b) = separated_pair(&handles, &mgr);
    let confined = mgr.register_waiter(a.ge(10).into_predicate(), &stats);
    assert_eq!(
        mgr.park_gate(confined),
        mgr.router.shard_of_expr(a.id()),
        "a confined predicate parks on its dependency's data gate"
    );
    let spanning = mgr.register_waiter(a.ge(1).and(b.ge(1)).into_predicate(), &stats);
    assert_eq!(mgr.park_gate(spanning), mgr.router.global());
    let opaque = mgr.register_waiter(Predicate::custom("c", |s: &StN| s.values[2] > 0), &stats);
    assert_eq!(mgr.park_gate(opaque), mgr.router.global());
    assert_eq!(
        counted(&mut mgr, &stats).cross_shard_preds,
        2,
        "spanning and opaque conjunctions count as cross-shard"
    );
}

#[test]
fn routed_unmutated_relay_skips_and_wakes_no_one() {
    let (exprs, handles, mut mgr, stats) = gate_setup(MonitorConfig::preset(SignalMode::Routed));
    mgr.register_waiter(handles[0].ge(10).into_predicate(), &stats);
    mgr.note_mutation();
    let state = StN::default();
    mgr.relay_signal(&state, &exprs, &stats);
    let mut wakes = Vec::new();
    mgr.drain_routed_wakes(&mut wakes);
    let before = counted(&mut mgr, &stats);
    mgr.relay_signal(&state, &exprs, &stats);
    mgr.drain_routed_wakes(&mut wakes);
    assert!(wakes.is_empty());
    let diff = counted(&mut mgr, &stats).since(&before);
    assert_eq!(diff.relay_skips, 1);
    assert_eq!(diff.expr_evals, 0);
}

#[test]
#[should_panic(expected = "wake routing violated")]
fn routed_validator_catches_a_lost_token() {
    // Forge the bug the validator exists for: a waiter parked on the
    // WRONG gate. The relay announces wakes only where its diff says
    // they are due, so the mis-parked waiter sleeps through a mutation
    // that made its predicate true — and the armed validator must
    // catch it at that very relay. (The parked helper thread is
    // intentionally leaked; the panic is the test's success.)
    let (exprs, handles, mut mgr, stats) = gate_setup(MonitorConfig::preset(SignalMode::Routed));
    let (a, b) = separated_pair(&handles, &mgr);
    let pid = mgr.register_waiter(a.ge(10).into_predicate(), &stats);
    let wrong_gate = mgr.router.shard_of_expr(b.id());
    let slot = Arc::new(crate::parking::ParkSlot::new());
    mgr.wake_lot()
        .enqueue(wrong_gate, BucketKey::Slot(0), Arc::clone(&slot), pid);
    let parked = Arc::clone(&slot);
    std::thread::spawn(move || {
        let _ = parked.park(None);
    });
    // Wait until the helper is actually parked (bare, no token).
    while slot.covered() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut state = StN::default();
    state.values[a.id().index()] = 10;
    mgr.note_mutation();
    mgr.relay_signal(&state, &exprs, &stats); // must panic
}

// --- named mutations ---------------------------------------------------

#[test]
fn named_mutation_diff_evaluates_only_the_touched_expressions() {
    let (exprs, handles, mut mgr, stats) = gate_setup(MonitorConfig::preset(SignalMode::Routed));
    let (a, b) = separated_pair(&handles, &mgr);
    mgr.register_waiter(a.ge(10).into_predicate(), &stats);
    mgr.register_waiter(b.ge(10).into_predicate(), &stats);
    // Baseline blanket diff evaluates both dependencies.
    mgr.note_mutation();
    let state = StN::default();
    mgr.relay_signal(&state, &exprs, &stats);
    let before = counted(&mut mgr, &stats);
    // A named mutation touching only `a` carries `b` forward.
    mgr.note_mutation_named(&[a.id()]);
    mgr.relay_signal(&state, &exprs, &stats);
    let diff = counted(&mut mgr, &stats).since(&before);
    assert_eq!(diff.expr_evals, 1, "only the named dependency is evaluated");
    assert!(
        diff.unchanged_exprs >= 1,
        "the other slot is carried forward"
    );
    // The carried-forward value still publishes into the ring as part
    // of the new epoch's consistent cut.
    let (_, values) = mgr.ring().read_latest(&stats.counters).expect("published");
    assert_eq!(values[b.id().index()], Some(0));
}

#[test]
fn blanket_mutation_poisons_a_named_window() {
    let (exprs, handles, mut mgr, stats) = gate_setup(MonitorConfig::preset(SignalMode::Routed));
    let (a, b) = separated_pair(&handles, &mgr);
    mgr.register_waiter(a.ge(10).into_predicate(), &stats);
    mgr.register_waiter(b.ge(10).into_predicate(), &stats);
    mgr.note_mutation();
    let state = StN::default();
    mgr.relay_signal(&state, &exprs, &stats);
    let before = counted(&mut mgr, &stats);
    // Named then blanket within one window: the diff must evaluate
    // everything (the blanket write may have touched any expression).
    mgr.note_mutation_named(&[a.id()]);
    mgr.note_mutation();
    mgr.relay_signal(&state, &exprs, &stats);
    let diff = counted(&mut mgr, &stats).since(&before);
    assert_eq!(diff.expr_evals, 2, "the blanket mutation re-evaluates all");
}
