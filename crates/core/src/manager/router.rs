//! Deterministic conjunction → gate assignment for the `Routed` mode.
//!
//! The router is a thin policy wrapper over the predicate crate's stable
//! routing key ([`autosynch_predicate::deps::expr_shard`]): a data gate
//! owns every expression whose key hashes into it, and a conjunction
//! lives on the data gate that owns *all* of its dependencies. A
//! conjunction that cannot be confined to one data gate — opaque,
//! dependency-free, or spanning several — is assigned to the **global
//! gate**, the extra trailing partition every mutation wakes.
//!
//! Soundness (see `DESIGN.md`, "Gate partition"): Def. 4 of the paper
//! constrains *which* waiter may be woken (one whose predicate is
//! true), not where it waits, so any total, deterministic partition
//! preserves relay invariance as long as each gate's skip decision is
//! sound. Confinement gives exactly that: a data-gate conjunction can
//! only flip false→true when one of its dependencies changes, and all
//! of its dependencies are owned by its own gate, so "no owned
//! expression changed" implies "no waiter on this gate flipped".

use autosynch_predicate::deps::{expr_shard, ConjDeps};
use autosynch_predicate::expr::ExprId;

/// Assigns conjunctions and expressions to gates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateRouter {
    data_shards: usize,
}

impl GateRouter {
    /// A router over `data_shards` partitions (plus the implicit global
    /// gate at index `data_shards`).
    ///
    /// # Panics
    ///
    /// Panics when `data_shards` is zero.
    pub(super) fn new(data_shards: usize) -> Self {
        assert!(data_shards >= 1, "need at least one data shard");
        GateRouter { data_shards }
    }

    /// Index of the global gate: one past the data gates.
    pub(super) fn global(&self) -> usize {
        self.data_shards
    }

    /// Total gate count including the global gate.
    pub(super) fn shard_count(&self) -> usize {
        self.data_shards + 1
    }

    /// The gate a conjunction lives on — total and deterministic:
    /// confined conjunctions go to the data gate owning their
    /// dependency set, everything else to the global gate.
    pub(super) fn route(&self, deps: &ConjDeps) -> usize {
        deps.route(self.data_shards).unwrap_or(self.data_shards)
    }

    /// The data gate owning `expr` (where its changes are announced).
    pub(super) fn shard_of_expr(&self, expr: ExprId) -> usize {
        expr_shard(expr, self.data_shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosynch_predicate::ast::BoolExpr;
    use autosynch_predicate::atom::{CmpAtom, CmpOp};
    use autosynch_predicate::deps::conj_deps;
    use autosynch_predicate::dnf::to_dnf_with_limit;
    use proptest::prelude::*;

    #[test]
    fn global_is_one_past_data_shards() {
        let r = GateRouter::new(4);
        assert_eq!(r.global(), 4);
        assert_eq!(r.shard_count(), 5);
    }

    #[test]
    fn expr_routing_is_within_data_shards() {
        let r = GateRouter::new(3);
        for raw in 0..64u32 {
            let sid = r.shard_of_expr(ExprId::from_raw(raw));
            assert!(sid < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_data_shards_panics() {
        let _ = GateRouter::new(0);
    }

    /// Shared state for generated predicates: eight integer variables.
    type State = [i64; 8];

    fn arb_atom() -> impl Strategy<Value = CmpAtom> {
        (
            0u32..8,
            prop::sample::select(CmpOp::ALL.to_vec()),
            -4i64..=4,
        )
            .prop_map(|(var, op, key)| CmpAtom::new(ExprId::from_raw(var), op, key))
    }

    fn arb_expr() -> impl Strategy<Value = BoolExpr<State>> {
        let leaf = prop_oneof![
            4 => arb_atom().prop_map(BoolExpr::Cmp),
            1 => any::<bool>().prop_map(BoolExpr::Const),
        ];
        leaf.prop_recursive(4, 24, 4, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| e.not()),
                prop::collection::vec(inner.clone(), 1..4).prop_map(BoolExpr::And),
                prop::collection::vec(inner, 1..4).prop_map(BoolExpr::Or),
            ]
        })
    }

    // The partition must be **total** (every conjunction of every DNF
    // routes somewhere: a data gate or the global gate) and
    // **deterministic** (re-routing yields the same answer); data-gate
    // assignments must be *confined* (every dependency owned by the
    // gate), and cross-shard, opaque, or dependency-free conjunctions
    // must route to the global gate.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn router_partition_is_total_and_deterministic(
            expr in arb_expr(),
            shards in 1usize..=9,
        ) {
            let router = GateRouter::new(shards);
            let dnf = to_dnf_with_limit(&expr, 1 << 16).unwrap();
            for deps in &conj_deps(&dnf) {
                let first = router.route(deps);
                // Determinism: the route is a pure function of the deps.
                prop_assert_eq!(first, router.route(deps));
                prop_assert!(first < router.shard_count());
                if first == router.global() {
                    // Global routes: opaque, empty, or spanning.
                    let spans = deps.exprs().iter().any(|&e| {
                        router.shard_of_expr(e) != router.shard_of_expr(deps.exprs()[0])
                    });
                    prop_assert!(
                        deps.is_opaque() || deps.exprs().is_empty() || spans,
                        "confined transparent conjunction routed to global"
                    );
                } else {
                    // Confinement for data-gate routes.
                    prop_assert!(!deps.is_opaque());
                    prop_assert!(!deps.exprs().is_empty());
                    for &e in deps.exprs() {
                        prop_assert_eq!(router.shard_of_expr(e), first);
                    }
                }
            }
        }

        #[test]
        fn single_shard_routing_is_all_or_global(expr in arb_expr()) {
            // One data gate: every transparent non-empty conjunction
            // routes to gate 0, everything else to the global gate.
            let router = GateRouter::new(1);
            let dnf = to_dnf_with_limit(&expr, 1 << 16).unwrap();
            for deps in &conj_deps(&dnf) {
                if router.route(deps) == 0 {
                    prop_assert!(!deps.is_opaque() && !deps.exprs().is_empty());
                } else {
                    prop_assert_eq!(router.route(deps), router.global());
                    prop_assert!(deps.is_opaque() || deps.exprs().is_empty());
                }
            }
        }
    }
}
