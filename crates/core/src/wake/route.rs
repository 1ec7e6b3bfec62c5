//! Wake routing: mapping a relay's changed-expression set to the slot
//! buckets whose waiters can have flipped.
//!
//! The router is the signaler-side half of the routed mode's bargain.
//! A relay that only had gate-granular knowledge ("some owned
//! expression changed") would have to wake whole gates. Compiled
//! conditions give the relay a stable identity per waiting population —
//! the `Cond` slot — and the router indexes those identities two ways:
//!
//! * **Equivalence routes** ([`Predicate::eq_route`]): a slot whose
//!   truth is a function of one eq-tagged expression is registered
//!   under `(expr, key)`. When the diff publishes a new value `v` of
//!   `expr`, the *only* eq-routed slot of that expression whose
//!   predicate can have become true is the one registered under
//!   `(expr, v)` — every other key's predicate is provably false at
//!   the published cut. One hash probe, one bucket, one unpark: the
//!   fig11 `turn == id` herd collapses to a single targeted wake.
//! * **Threshold routes** ([`Predicate::threshold_route`]): a slot
//!   whose truth is a function of one threshold-tagged expression is
//!   registered on that expression's **ladder**
//!   ([`super::ladder::ThresholdLadder`]) — an ordered rung structure
//!   ranked by condition strength. A published value crosses a prefix
//!   of the rungs and provably falsifies the rest, so the relay wakes
//!   only the crossed rungs' buckets (the fig14 `count >= num` shape)
//!   and counts the pruned remainder as `ladder_skips`.
//! * **Dependency routes**: every other data-gate slot is registered
//!   under each expression its predicate reads; a changed expression
//!   sweeps all slots registered under it. Still bucket-granular (a
//!   token sweep per bucket, not a gate broadcast), just without the
//!   value-directed pruning.
//!
//! Slots whose conjunctions route to the **global gate** (cross-shard,
//! opaque, dependency-free) are registered as global and left to the
//! gate's broadcast — the router never needs to reason
//! about them, which is exactly what makes the data-gate registrations
//! complete: a data-gate slot's dependencies are confined to its shard
//! (re-proved by the route validator), so registering its dependency
//! set registers every expression whose change can flip it.

use std::collections::HashMap;

use autosynch_predicate::expr::ExprId;
use autosynch_predicate::predicate::Predicate;
use autosynch_predicate::tag::ThresholdOp;

use super::ladder::ThresholdLadder;

/// One announced-but-undelivered routed wake. The relay announces under
/// the monitor lock; the monitor drains and delivers after releasing it
/// (the announce/deliver split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoutedWake {
    /// Broadcast every waiter of the gate (the global gate's
    /// conservative wake — its waiters may depend on anything).
    Gate(u32),
    /// Broadcast only the gate's transient bucket: slotless (per-call /
    /// `wait_transient`) waiters get a gate-wide broadcast because they
    /// have no stable bucket identity.
    Transient(u32),
    /// Start a token sweep of one slot bucket: unpark the first waiter
    /// that has not observed the delivery epoch.
    Bucket {
        /// The gate whose queue holds the bucket.
        gate: u32,
        /// The compiled-condition slot naming the bucket.
        slot: u32,
    },
    /// Re-inject a claimed token into its bucket at the claimer's
    /// monitor exit (the `signaled` baton rule, waiter-side): wake the
    /// next unobserved waiter, who confirms against the post-claim
    /// state.
    Reinject {
        /// The gate whose queue holds the bucket.
        gate: u32,
        /// The swept bucket the token belongs to: a compiled-condition
        /// slot bucket, or a graduated transient (per-predicate)
        /// bucket.
        bucket: super::BucketKey,
    },
}

/// How a slot is registered with the router (kept for symmetric
/// unregistration and for the `check_wake_routing` audit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SlotRoute {
    /// Value-directed: the slot's predicate is an equivalence shape
    /// over `expr` with this key.
    Eq {
        /// The eq-tagged expression.
        expr: ExprId,
        /// The globalized comparison constant.
        key: i64,
    },
    /// Order-directed: the slot's predicate is a threshold shape over
    /// `expr`, registered at the ladder rung `(key, op)` and swept only
    /// when a published value crosses the rung.
    Threshold {
        /// The threshold-tagged expression.
        expr: ExprId,
        /// The globalized comparison constant.
        key: i64,
        /// The comparison operator (decides the ladder side and the
        /// rung's strictness rank).
        op: ThresholdOp,
    },
    /// Change-directed: the slot is swept whenever any of these
    /// expressions changes.
    Deps(Vec<ExprId>),
    /// The slot's waiters park on the global gate; its wakes ride the
    /// gate broadcast and the router keeps no index entries.
    Global,
}

/// The routed mode's slot index. Lives inside the condition manager
/// (mutations happen under the monitor lock, queries during the relay).
#[derive(Debug, Default)]
pub(crate) struct WakeRouter {
    /// `(expr, key)` → eq-routed slots (slot, gate). Distinct compiled
    /// conditions may share a key pair only through distinct slots
    /// (e.g. `x == 5` and `x == 5 && x > 3`), so the bucket is a list.
    eq: HashMap<ExprId, HashMap<i64, Vec<(u32, u32)>>>,
    /// Expression → dependency-routed slots (slot, gate).
    by_expr: HashMap<ExprId, Vec<(u32, u32)>>,
    /// The per-expression rung index for threshold-routed slots.
    ladder: ThresholdLadder,
    /// Live registrations by slot, for unregistration and the audit.
    registered: HashMap<u32, SlotRoute>,
}

impl WakeRouter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Classifies `pred` for wake routing: the eq route when the
    /// predicate has one, the dependency set otherwise, `Global` when
    /// the waiters park on the global gate.
    pub(crate) fn classify<S>(pred: &Predicate<S>, gate: usize, global: usize) -> SlotRoute {
        if gate == global {
            return SlotRoute::Global;
        }
        if let Some((expr, key)) = pred.eq_route() {
            return SlotRoute::Eq { expr, key };
        }
        if let Some((expr, key, op)) = pred.threshold_route() {
            return SlotRoute::Threshold { expr, key, op };
        }
        let mut deps: Vec<ExprId> = pred
            .conj_deps()
            .iter()
            .flat_map(|d| d.exprs().iter().copied())
            .collect();
        deps.sort_unstable();
        deps.dedup();
        SlotRoute::Deps(deps)
    }

    /// Registers `slot` (whose waiters park on `gate`) under `route`.
    /// Idempotent per activation cycle: re-registering a live slot is a
    /// no-op, mirroring the tag activation it rides on.
    pub(crate) fn register(&mut self, slot: u32, gate: usize, route: SlotRoute) {
        if self.registered.contains_key(&slot) {
            return;
        }
        let gate = gate as u32;
        match &route {
            SlotRoute::Eq { expr, key } => {
                self.eq
                    .entry(*expr)
                    .or_default()
                    .entry(*key)
                    .or_default()
                    .push((slot, gate));
            }
            SlotRoute::Threshold { expr, key, op } => {
                self.ladder.insert(*expr, *key, *op, slot, gate);
            }
            SlotRoute::Deps(deps) => {
                for &expr in deps {
                    self.by_expr.entry(expr).or_default().push((slot, gate));
                }
            }
            SlotRoute::Global => {}
        }
        self.registered.insert(slot, route);
    }

    /// Unregisters `slot`, dropping its index entries.
    pub(crate) fn unregister(&mut self, slot: u32) {
        let Some(route) = self.registered.remove(&slot) else {
            return;
        };
        match route {
            SlotRoute::Eq { expr, key } => {
                if let Some(by_key) = self.eq.get_mut(&expr) {
                    if let Some(bucket) = by_key.get_mut(&key) {
                        bucket.retain(|&(s, _)| s != slot);
                        if bucket.is_empty() {
                            by_key.remove(&key);
                        }
                    }
                    if by_key.is_empty() {
                        self.eq.remove(&expr);
                    }
                }
            }
            SlotRoute::Threshold { expr, key, op } => {
                self.ladder.remove(expr, key, op, slot);
            }
            SlotRoute::Deps(deps) => {
                for expr in deps {
                    if let Some(bucket) = self.by_expr.get_mut(&expr) {
                        bucket.retain(|&(s, _)| s != slot);
                        if bucket.is_empty() {
                            self.by_expr.remove(&expr);
                        }
                    }
                }
            }
            SlotRoute::Global => {}
        }
    }

    /// The eq-routed slots whose predicate can be true while `expr`
    /// equals `value` — the O(1) value-directed probe.
    pub(crate) fn eq_slots(&self, expr: ExprId, value: i64) -> &[(u32, u32)] {
        self.eq
            .get(&expr)
            .and_then(|by_key| by_key.get(&value))
            .map_or(&[], Vec::as_slice)
    }

    /// Whether `expr` carries any eq-routed registration (changed
    /// eq-routed expressions whose new value matches no key wake
    /// nothing — the provably-false prune).
    pub(crate) fn has_eq(&self, expr: ExprId) -> bool {
        self.eq.contains_key(&expr)
    }

    /// The dependency-routed slots registered under `expr`.
    pub(crate) fn dep_slots(&self, expr: ExprId) -> &[(u32, u32)] {
        self.by_expr.get(&expr).map_or(&[], Vec::as_slice)
    }

    /// Whether `expr` carries any threshold-routed rung.
    pub(crate) fn has_ladder(&self, expr: ExprId) -> bool {
        self.ladder.has(expr)
    }

    /// Visits every threshold-routed `(slot, gate)` whose rung the
    /// published `value` of `expr` crosses; returns the number of rungs
    /// provably false at the cut (the `ladder_skips`). An unknown value
    /// conservatively visits every rung.
    pub(crate) fn ladder_probe(
        &self,
        expr: ExprId,
        value: Option<i64>,
        f: impl FnMut(u32, u32),
    ) -> u64 {
        self.ladder.probe(expr, value, f)
    }

    /// How many times `slot` sits at the rung `expr op key` — the
    /// `check_wake_routing` audit: a live threshold registration must
    /// be present exactly once.
    pub(crate) fn ladder_count_of(
        &self,
        expr: ExprId,
        key: i64,
        op: ThresholdOp,
        slot: u32,
    ) -> usize {
        self.ladder.count_of(expr, key, op, slot)
    }

    /// The live registration of `slot`, for the audit.
    pub(crate) fn registration(&self, slot: u32) -> Option<&SlotRoute> {
        self.registered.get(&slot)
    }

    /// Number of live registrations (tests/diagnostics).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.registered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosynch_predicate::expr::ExprTable;

    struct S {
        x: i64,
        y: i64,
    }

    fn preds() -> (Predicate<S>, Predicate<S>, Predicate<S>) {
        let mut t = ExprTable::new();
        let x = t.register("x", |s: &S| s.x);
        let y = t.register("y", |s: &S| s.y);
        let eq = Predicate::try_from_expr(x.eq(5)).unwrap();
        let dep = Predicate::try_from_expr(x.ge(1).and(y.ge(1))).unwrap();
        let opaque = Predicate::custom("c", |s: &S| s.x > 0);
        (eq, dep, opaque)
    }

    #[test]
    fn classification_covers_the_three_regimes() {
        let (eq, dep, opaque) = preds();
        assert_eq!(
            WakeRouter::classify(&eq, 0, 4),
            SlotRoute::Eq {
                expr: ExprId::from_raw(0),
                key: 5
            }
        );
        assert_eq!(
            WakeRouter::classify(&dep, 1, 4),
            SlotRoute::Deps(vec![ExprId::from_raw(0), ExprId::from_raw(1)])
        );
        assert_eq!(WakeRouter::classify(&opaque, 4, 4), SlotRoute::Global);
        // Any predicate parked on the global gate is global, shape
        // notwithstanding.
        assert_eq!(WakeRouter::classify(&eq, 4, 4), SlotRoute::Global);
    }

    #[test]
    fn eq_probe_is_value_directed() {
        let (eq, _, _) = preds();
        let mut router = WakeRouter::new();
        let route = WakeRouter::classify(&eq, 2, 4);
        router.register(7, 2, route);
        let x = ExprId::from_raw(0);
        assert!(router.has_eq(x));
        assert_eq!(router.eq_slots(x, 5), &[(7, 2)]);
        assert!(router.eq_slots(x, 6).is_empty(), "wrong value wakes none");
        assert!(router.dep_slots(x).is_empty());
        router.unregister(7);
        assert!(!router.has_eq(x));
        assert_eq!(router.len(), 0);
    }

    #[test]
    fn dep_probe_lists_the_slot_under_every_dependency() {
        let (_, dep, _) = preds();
        let mut router = WakeRouter::new();
        router.register(3, 1, WakeRouter::classify(&dep, 1, 4));
        assert_eq!(router.dep_slots(ExprId::from_raw(0)), &[(3, 1)]);
        assert_eq!(router.dep_slots(ExprId::from_raw(1)), &[(3, 1)]);
        // Registration is idempotent while live.
        router.register(3, 1, WakeRouter::classify(&dep, 1, 4));
        assert_eq!(router.dep_slots(ExprId::from_raw(0)), &[(3, 1)]);
        router.unregister(3);
        assert!(router.dep_slots(ExprId::from_raw(0)).is_empty());
    }

    #[test]
    fn threshold_classification_registers_a_ladder_rung() {
        let mut t = ExprTable::new();
        let x = t.register("x", |s: &S| s.x);
        let ge = Predicate::try_from_expr(x.ge(3)).unwrap();
        let expr = ExprId::from_raw(0);
        let route = WakeRouter::classify(&ge, 1, 4);
        let SlotRoute::Threshold { op, .. } = route else {
            panic!("single-dep threshold shape must classify as Threshold, got {route:?}");
        };
        assert_eq!(
            route,
            SlotRoute::Threshold { expr, key: 3, op },
            "rung carries the globalized key"
        );
        let mut router = WakeRouter::new();
        router.register(5, 1, route);
        assert!(router.has_ladder(expr));
        assert_eq!(router.ladder_count_of(expr, 3, op, 5), 1);
        // Registration is idempotent while live — no double rung.
        router.register(5, 1, WakeRouter::classify(&ge, 1, 4));
        assert_eq!(router.ladder_count_of(expr, 3, op, 5), 1);
        // A value below the rung skips it; at or above crosses it.
        let mut woken = Vec::new();
        assert_eq!(
            router.ladder_probe(expr, Some(2), |s, g| woken.push((s, g))),
            1
        );
        assert!(woken.is_empty());
        assert_eq!(
            router.ladder_probe(expr, Some(3), |s, g| woken.push((s, g))),
            0
        );
        assert_eq!(woken, vec![(5, 1)]);
        router.unregister(5);
        assert!(!router.has_ladder(expr));
        assert_eq!(router.len(), 0);
    }

    #[test]
    fn global_slots_keep_no_index_entries() {
        let (_, _, opaque) = preds();
        let mut router = WakeRouter::new();
        router.register(9, 4, WakeRouter::classify(&opaque, 4, 4));
        assert_eq!(router.registration(9), Some(&SlotRoute::Global));
        assert_eq!(router.len(), 1);
        router.unregister(9);
        assert_eq!(router.len(), 0);
        // Unregistering twice is a no-op.
        router.unregister(9);
    }
}
