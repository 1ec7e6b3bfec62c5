//! The equivalence-tag index (§4.3.2, "Equivalence tag signaling").
//!
//! "For each unique shared expression of an equivalence tag, we create a
//! hash table, where the value of the local expression is used as the key.
//! By using this hash table and evaluating the shared expression at
//! runtime, we can find a tag that is true in O(1) time if there is any."
//!
//! The index therefore maps `ExprId → (key → [(predicate, conjunction)])`.
//! Several predicates sharing the conjunct `x == 5` share the bucket — the
//! paper's shared tags.
//!
//! The outer level is a `Vec` indexed by [`ExprId::index`] (expression ids
//! are dense) with a sorted list of the expressions that currently carry a
//! tag; the inner level hashes the `i64` key through the crate's integer
//! hasher. A per-expression table outlives its last tag, and a
//! bucket holding one conjunction stores it inline, so a tag that comes and
//! goes with every wait (`waituntil(turn == me)`) costs no allocation.

use std::collections::hash_map::Entry;

use autosynch_predicate::expr::ExprId;

use crate::dense::{slot_mut, IntMap, LiveExprs};
use crate::slab::SlabKey;

/// Identifier of a predicate entry in the condition manager.
pub type PredId = SlabKey;

/// One tagged conjunction: which predicate, which of its conjunctions.
pub type TaggedConj = (PredId, u32);

/// The conjunctions sharing one tag, in insertion order. Most tags are
/// carried by a single conjunction, which is stored inline.
#[derive(Debug, Clone)]
pub(crate) enum Conjs {
    One(TaggedConj),
    Many(Vec<TaggedConj>),
}

impl Conjs {
    pub(crate) fn push(&mut self, entry: TaggedConj) {
        match self {
            Conjs::One(first) => *self = Conjs::Many(vec![*first, entry]),
            Conjs::Many(entries) => entries.push(entry),
        }
    }

    /// Removes `entry` if present (`swap_remove` order, as a `Vec` bucket
    /// would) and reports whether the list is now empty.
    pub(crate) fn remove(&mut self, entry: TaggedConj) -> bool {
        match self {
            Conjs::One(only) => *only == entry,
            Conjs::Many(entries) => {
                if let Some(pos) = entries.iter().position(|&e| e == entry) {
                    entries.swap_remove(pos);
                }
                entries.is_empty()
            }
        }
    }

    pub(crate) fn as_slice(&self) -> &[TaggedConj] {
        match self {
            Conjs::One(only) => std::slice::from_ref(only),
            Conjs::Many(entries) => entries,
        }
    }
}

/// Hash index over equivalence tags.
#[derive(Debug, Default)]
pub struct EqIndex {
    /// Bucket table per expression, indexed by `ExprId::index()` and
    /// grown on insert (expressions may be registered late).
    by_expr: Vec<IntMap<i64, Conjs>>,
    /// The expressions whose table is non-empty.
    live: LiveExprs,
}

impl EqIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the equivalence tag `(expr == key)` for a conjunction.
    pub fn insert(&mut self, expr: ExprId, key: i64, entry: TaggedConj) {
        let buckets = slot_mut(&mut self.by_expr, expr, IntMap::default);
        if buckets.is_empty() {
            self.live.insert(expr);
        }
        match buckets.entry(key) {
            Entry::Occupied(bucket) => bucket.into_mut().push(entry),
            Entry::Vacant(slot) => {
                slot.insert(Conjs::One(entry));
            }
        }
    }

    /// Unregisters a previously inserted tag. Empty buckets are dropped,
    /// and an expression whose last bucket went leaves
    /// [`EqIndex::live_exprs`], so the relay only evaluates expressions
    /// that still carry a tag.
    pub fn remove(&mut self, expr: ExprId, key: i64, entry: TaggedConj) {
        let Some(buckets) = self.by_expr.get_mut(expr.index()) else {
            return;
        };
        let Some(bucket) = buckets.get_mut(&key) else {
            return;
        };
        if bucket.remove(entry) {
            buckets.remove(&key);
            if buckets.is_empty() {
                self.live.remove(expr);
            }
        }
    }

    /// The candidates whose tag is true given `value` of `expr` — the
    /// O(1) probe.
    pub fn candidates(&self, expr: ExprId, value: i64) -> &[TaggedConj] {
        self.by_expr
            .get(expr.index())
            .and_then(|buckets| buckets.get(&value))
            .map_or(&[], Conjs::as_slice)
    }

    /// Expressions that currently carry at least one equivalence tag, in
    /// `ExprId` order. The relay evaluates each of these once per call.
    pub fn live_exprs(&self) -> &[ExprId] {
        self.live.as_slice()
    }

    /// Total number of registered tags (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.by_expr
            .iter()
            .flat_map(|buckets| buckets.values())
            .map(|bucket| bucket.as_slice().len())
            .sum()
    }

    /// Whether no tags are registered.
    pub fn is_empty(&self) -> bool {
        self.live.as_slice().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::Slab;

    fn pid(n: usize) -> PredId {
        // Fabricate distinct slab keys through a real slab.
        let mut slab = Slab::new();
        let mut last = slab.insert(());
        for _ in 0..n {
            last = slab.insert(());
        }
        last
    }

    #[test]
    fn probe_finds_only_matching_key() {
        let mut idx = EqIndex::new();
        let e = ExprId::from_raw(0);
        let (p1, p2) = (pid(0), pid(1));
        idx.insert(e, 3, (p1, 0));
        idx.insert(e, 8, (p2, 0));
        assert_eq!(idx.candidates(e, 8), &[(p2, 0)]);
        assert_eq!(idx.candidates(e, 3), &[(p1, 0)]);
        assert!(idx.candidates(e, 5).is_empty());
        assert!(idx.candidates(ExprId::from_raw(9), 8).is_empty());
    }

    #[test]
    fn shared_tags_accumulate_in_one_bucket() {
        // (x = 5) && (z <= 4) and (x = 5) && (y >= 4) share the x==5 tag.
        let mut idx = EqIndex::new();
        let e = ExprId::from_raw(1);
        idx.insert(e, 5, (pid(0), 0));
        idx.insert(e, 5, (pid(1), 0));
        assert_eq!(idx.candidates(e, 5).len(), 2);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn remove_cleans_empty_buckets_and_exprs() {
        let mut idx = EqIndex::new();
        let e = ExprId::from_raw(0);
        let p = pid(0);
        idx.insert(e, 7, (p, 0));
        assert_eq!(idx.live_exprs(), &[e]);
        idx.remove(e, 7, (p, 0));
        assert!(idx.is_empty());
        assert!(idx.live_exprs().is_empty());
        assert!(idx.candidates(e, 7).is_empty());
        // The emptied table is reused, not rebuilt.
        idx.insert(e, 8, (p, 0));
        assert_eq!(idx.live_exprs(), &[e]);
        assert_eq!(idx.candidates(e, 8), &[(p, 0)]);
    }

    #[test]
    fn remove_is_precise() {
        let mut idx = EqIndex::new();
        let e = ExprId::from_raw(0);
        let p = pid(0);
        idx.insert(e, 7, (p, 0));
        idx.insert(e, 7, (p, 1));
        idx.remove(e, 7, (p, 0));
        assert_eq!(idx.candidates(e, 7), &[(p, 1)]);
        idx.remove(e, 7, (p, 1));
        assert!(idx.is_empty());
    }

    #[test]
    fn removing_missing_entries_is_a_noop() {
        let mut idx = EqIndex::new();
        let e = ExprId::from_raw(0);
        idx.remove(e, 1, (pid(0), 0));
        idx.insert(e, 1, (pid(0), 0));
        idx.remove(e, 2, (pid(0), 0)); // wrong key
        idx.remove(e, 1, (pid(1), 0)); // wrong pred
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn exprs_lists_distinct_expressions() {
        let mut idx = EqIndex::new();
        idx.insert(ExprId::from_raw(1), 1, (pid(1), 0));
        idx.insert(ExprId::from_raw(0), 1, (pid(0), 0));
        idx.insert(ExprId::from_raw(0), 2, (pid(2), 0));
        assert_eq!(
            idx.live_exprs(),
            &[ExprId::from_raw(0), ExprId::from_raw(1)]
        );
    }
}
