//! The threshold-tag index (§4.3.2, "Threshold tag signaling") and the
//! search of Fig. 4.
//!
//! Per shared expression the paper keeps a **min-heap** for `{>, >=}` tags
//! and a **max-heap** for `{<, <=}` tags, ordered so the *weakest*
//! condition sits at the root: if the root tag is false every descendant
//! is false too, and the whole side is pruned with one comparison. At
//! equal keys the inclusive operator (`>=`/`<=`) is weaker and sorts
//! first.
//!
//! The search is Fig. 4 verbatim: peek the root; while the root tag is
//! true, evaluate the predicates carrying it; if none is signalable, poll
//! the node to a backup list and look at the new root; finally reinsert
//! the backups.
//!
//! Both sides are realized over one min-[`IndexedHeap`] by mapping
//! `(key, strictness)` to a *rank*: `2·key + strict` on the min side and
//! `−2·key + strict` on the max side, so ascending rank always means
//! weakest-to-strongest. An ordered-map variant
//! ([`ThresholdIndexKind::OrderedMap`]) exists as an ablation — it walks
//! the same ranks in order without the backup dance.
//!
//! The two sides of every expression sit in a `Vec` indexed by
//! [`ExprId::index`], next to a sorted list of the expressions that carry
//! a tag. A side outlives its last tag and the backup list is part of it,
//! so neither a tag that comes and goes with every wait nor a search that
//! polls allocates once the structures have reached their working size.

use std::collections::btree_map::{BTreeMap, Entry};

use autosynch_predicate::expr::ExprId;
use autosynch_predicate::tag::ThresholdOp;

use crate::config::ThresholdIndexKind;
use crate::dense::{slot_mut, IntMap, LiveExprs};
use crate::eq_index::{Conjs, TaggedConj};
use crate::indexed_heap::{IndexedHeap, NodeId};

/// Which heap a tag belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SideKind {
    /// `{>, >=}` — weakest condition has the smallest key.
    Min,
    /// `{<, <=}` — weakest condition has the largest key.
    Max,
}

impl SideKind {
    /// Search order, and a side's position in its expression's pair.
    const BOTH: [SideKind; 2] = [SideKind::Min, SideKind::Max];

    fn of(op: ThresholdOp) -> SideKind {
        if op.is_min_side() {
            SideKind::Min
        } else {
            SideKind::Max
        }
    }

    /// Heap rank: ascending rank = weakest condition first.
    fn rank(self, key: i64, inclusive: bool) -> i128 {
        let strict = i128::from(!inclusive);
        match self {
            SideKind::Min => 2 * i128::from(key) + strict,
            SideKind::Max => -2 * i128::from(key) + strict,
        }
    }

    /// Whether the tag `expr op key` is true for the current `value` of
    /// the expression.
    fn tag_true(self, value: i64, key: i64, inclusive: bool) -> bool {
        match (self, inclusive) {
            (SideKind::Min, true) => value >= key,
            (SideKind::Min, false) => value > key,
            (SideKind::Max, true) => value <= key,
            (SideKind::Max, false) => value < key,
        }
    }
}

/// One distinct threshold tag with the conjunctions that carry it.
#[derive(Debug, Clone)]
struct Bucket {
    key: i64,
    inclusive: bool,
    entries: Conjs,
}

/// One side (min or max) for one shared expression.
enum SideStore {
    Heap {
        heap: IndexedHeap<i128, Bucket>,
        nodes: IntMap<i128, NodeId>,
        /// Fig. 4's backup list: empty between searches, kept for its
        /// capacity.
        backup: Vec<(i128, Bucket)>,
    },
    Map(BTreeMap<i128, Bucket>),
}

impl std::fmt::Debug for SideStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SideStore::Heap { heap, .. } => write!(f, "Heap(len={})", heap.len()),
            SideStore::Map(map) => write!(f, "Map(len={})", map.len()),
        }
    }
}

impl SideStore {
    fn new(kind: ThresholdIndexKind) -> Self {
        match kind {
            ThresholdIndexKind::PaperHeap => SideStore::Heap {
                heap: IndexedHeap::new(),
                nodes: IntMap::default(),
                backup: Vec::new(),
            },
            ThresholdIndexKind::OrderedMap => SideStore::Map(BTreeMap::new()),
        }
    }

    fn insert(&mut self, side: SideKind, key: i64, inclusive: bool, entry: TaggedConj) {
        let rank = side.rank(key, inclusive);
        match self {
            SideStore::Heap { heap, nodes, .. } => {
                if let Some(&id) = nodes.get(&rank) {
                    heap.value_mut(id).entries.push(entry);
                } else {
                    let id = heap.insert(
                        rank,
                        Bucket {
                            key,
                            inclusive,
                            entries: Conjs::One(entry),
                        },
                    );
                    nodes.insert(rank, id);
                }
            }
            SideStore::Map(map) => match map.entry(rank) {
                Entry::Occupied(bucket) => bucket.into_mut().entries.push(entry),
                Entry::Vacant(slot) => {
                    slot.insert(Bucket {
                        key,
                        inclusive,
                        entries: Conjs::One(entry),
                    });
                }
            },
        }
    }

    fn remove(&mut self, side: SideKind, key: i64, inclusive: bool, entry: TaggedConj) {
        let rank = side.rank(key, inclusive);
        match self {
            SideStore::Heap { heap, nodes, .. } => {
                let Some(&id) = nodes.get(&rank) else { return };
                if heap.value_mut(id).entries.remove(entry) {
                    heap.remove(id);
                    nodes.remove(&rank);
                }
            }
            SideStore::Map(map) => {
                if let Some(bucket) = map.get_mut(&rank) {
                    if bucket.entries.remove(entry) {
                        map.remove(&rank);
                    }
                }
            }
        }
    }

    /// Fig. 4: walk tags from weakest to strongest while they are true,
    /// evaluating candidate conjunctions through `check`; stop at the
    /// first false tag.
    fn search(
        &mut self,
        side: SideKind,
        value: i64,
        check: &mut dyn FnMut(TaggedConj) -> bool,
    ) -> Option<TaggedConj> {
        match self {
            SideStore::Heap {
                heap,
                nodes,
                backup,
            } => {
                let mut found = None;
                // "tag t = heap.peek(); while t is true ..."
                while let Some((id, _, bucket)) = heap.peek() {
                    if !side.tag_true(value, bucket.key, bucket.inclusive) {
                        break;
                    }
                    let entries = bucket.entries.as_slice();
                    if let Some(hit) = entries.iter().copied().find(|&e| check(e)) {
                        found = Some(hit);
                        break;
                    }
                    // "backup.insert(heap.poll())"
                    let (rank, bucket) = heap.remove(id);
                    nodes.remove(&rank);
                    backup.push((rank, bucket));
                }
                // "foreach b in backup: heap.add(b)"
                for (rank, bucket) in backup.drain(..) {
                    let id = heap.insert(rank, bucket);
                    nodes.insert(rank, id);
                }
                found
            }
            SideStore::Map(map) => {
                for bucket in map.values() {
                    if !side.tag_true(value, bucket.key, bucket.inclusive) {
                        break;
                    }
                    let entries = bucket.entries.as_slice();
                    if let Some(hit) = entries.iter().copied().find(|&e| check(e)) {
                        return Some(hit);
                    }
                }
                None
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            SideStore::Heap { heap, .. } => heap
                .iter()
                .map(|(_, _, b)| b.entries.as_slice().len())
                .sum(),
            SideStore::Map(map) => map.values().map(|b| b.entries.as_slice().len()).sum(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            SideStore::Heap { heap, .. } => heap.is_empty(),
            SideStore::Map(map) => map.is_empty(),
        }
    }
}

/// The full threshold index: both sides for every shared expression.
#[derive(Debug)]
pub struct ThresholdIndex {
    kind: ThresholdIndexKind,
    /// `[min side, max side]` per expression, indexed by
    /// `ExprId::index()` and grown on insert (expressions may be
    /// registered late).
    sides: Vec<[SideStore; 2]>,
    /// The expressions with a tag on either side.
    live: LiveExprs,
}

impl ThresholdIndex {
    /// Creates an empty index of the given implementation kind.
    pub fn new(kind: ThresholdIndexKind) -> Self {
        ThresholdIndex {
            kind,
            sides: Vec::new(),
            live: LiveExprs::default(),
        }
    }

    /// Registers the threshold tag `(expr op key)` for a conjunction.
    pub fn insert(&mut self, expr: ExprId, key: i64, op: ThresholdOp, entry: TaggedConj) {
        let kind = self.kind;
        let pair = slot_mut(&mut self.sides, expr, || {
            [SideStore::new(kind), SideStore::new(kind)]
        });
        if pair.iter().all(SideStore::is_empty) {
            self.live.insert(expr);
        }
        let side = SideKind::of(op);
        pair[side as usize].insert(side, key, op.is_inclusive(), entry);
    }

    /// Unregisters a previously inserted tag. An expression whose last
    /// tag went leaves [`ThresholdIndex::live_exprs`].
    pub fn remove(&mut self, expr: ExprId, key: i64, op: ThresholdOp, entry: TaggedConj) {
        let Some(pair) = self.sides.get_mut(expr.index()) else {
            return;
        };
        let side = SideKind::of(op);
        pair[side as usize].remove(side, key, op.is_inclusive(), entry);
        if pair.iter().all(SideStore::is_empty) {
            self.live.remove(expr);
        }
    }

    /// Expressions that currently carry at least one threshold tag, in
    /// `ExprId` order. A search never changes this list, so the relay
    /// may walk it by position while it searches.
    pub fn live_exprs(&self) -> &[ExprId] {
        self.live.as_slice()
    }

    /// Runs the Fig. 4 search over both sides of `expr` given its current
    /// `value`. `check` evaluates a candidate conjunction; the first
    /// signalable candidate is returned.
    pub fn search(
        &mut self,
        expr: ExprId,
        value: i64,
        check: &mut dyn FnMut(TaggedConj) -> bool,
    ) -> Option<TaggedConj> {
        let pair = self.sides.get_mut(expr.index())?;
        SideKind::BOTH
            .into_iter()
            .find_map(|side| pair[side as usize].search(side, value, check))
    }

    /// Total number of registered tags.
    pub fn len(&self) -> usize {
        self.sides.iter().flatten().map(SideStore::len).sum()
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

    fn pids(n: usize) -> Vec<TaggedConj> {
        let mut slab = Slab::new();
        (0..n).map(|_| (slab.insert(()), 0u32)).collect()
    }

    fn index(kind: ThresholdIndexKind) -> ThresholdIndex {
        ThresholdIndex::new(kind)
    }

    fn both_kinds(test: impl Fn(ThresholdIndexKind)) {
        test(ThresholdIndexKind::PaperHeap);
        test(ThresholdIndexKind::OrderedMap);
    }

    #[test]
    fn min_side_prunes_when_root_false() {
        both_kinds(|kind| {
            // Tags: x >= 5 and x > 7 (paper's Q1, Q2 example).
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(2);
            idx.insert(e, 5, ThresholdOp::Ge, ps[0]);
            idx.insert(e, 7, ThresholdOp::Gt, ps[1]);

            // x = 3: root (>=5) false → nothing checked at all.
            let mut checked = Vec::new();
            let hit = idx.search(e, 3, &mut |c| {
                checked.push(c);
                false
            });
            assert_eq!(hit, None);
            assert!(checked.is_empty(), "root-false must prune everything");
        });
    }

    #[test]
    fn paper_q1_q2_walkthrough() {
        both_kinds(|kind| {
            // x = 9: Q1 (>=5) true but its predicate false; Q2 (>7) true
            // and its predicate true → signal P2, Q1 reinserted.
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(2);
            idx.insert(e, 5, ThresholdOp::Ge, ps[0]); // P1's tag Q1
            idx.insert(e, 7, ThresholdOp::Gt, ps[1]); // P2's tag Q2

            let p2 = ps[1];
            let hit = idx.search(e, 9, &mut |c| c == p2);
            assert_eq!(hit, Some(p2));

            // Q1 must be back in the structure: a later search where P1's
            // predicate is true finds it.
            let p1 = ps[0];
            let hit = idx.search(e, 9, &mut |c| c == p1);
            assert_eq!(hit, Some(p1));
        });
    }

    #[test]
    fn inclusive_sorts_before_strict_at_equal_keys() {
        both_kinds(|kind| {
            // x > 3 and x >= 3: at x == 3 only >= is true; the search must
            // probe >= (the weaker root) and stop before > .
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(2);
            idx.insert(e, 3, ThresholdOp::Gt, ps[0]);
            idx.insert(e, 3, ThresholdOp::Ge, ps[1]);
            let mut checked = Vec::new();
            let hit = idx.search(e, 3, &mut |c| {
                checked.push(c);
                true
            });
            assert_eq!(hit, Some(ps[1]));
            assert_eq!(
                checked,
                vec![ps[1]],
                "strict tag must not be probed at x==3"
            );
        });
    }

    #[test]
    fn max_side_mirrors_min_side() {
        both_kinds(|kind| {
            // Tags: x <= 3 (weaker) and x < 2 (stronger).
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(2);
            idx.insert(e, 2, ThresholdOp::Lt, ps[0]);
            idx.insert(e, 3, ThresholdOp::Le, ps[1]);

            // x = 4: both false, nothing probed.
            let mut count = 0;
            assert_eq!(
                idx.search(e, 4, &mut |_| {
                    count += 1;
                    false
                }),
                None
            );
            assert_eq!(count, 0);

            // x = 3: only <=3 true.
            let mut checked = Vec::new();
            idx.search(e, 3, &mut |c| {
                checked.push(c);
                false
            });
            assert_eq!(checked, vec![ps[1]]);

            // x = 1: both true; weakest (<=3) probed first.
            let mut checked = Vec::new();
            idx.search(e, 1, &mut |c| {
                checked.push(c);
                false
            });
            assert_eq!(checked, vec![ps[1], ps[0]]);
        });
    }

    #[test]
    fn shared_tags_bucket_together() {
        both_kinds(|kind| {
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(3);
            for &p in &ps {
                idx.insert(e, 10, ThresholdOp::Ge, p);
            }
            assert_eq!(idx.len(), 3);
            let mut checked = Vec::new();
            idx.search(e, 10, &mut |c| {
                checked.push(c);
                false
            });
            assert_eq!(checked.len(), 3);
        });
    }

    #[test]
    fn remove_clears_empty_structures() {
        both_kinds(|kind| {
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(2);
            idx.insert(e, 5, ThresholdOp::Ge, ps[0]);
            idx.insert(e, 5, ThresholdOp::Le, ps[1]);
            assert_eq!(idx.live_exprs(), &[e]);
            idx.remove(e, 5, ThresholdOp::Ge, ps[0]);
            assert_eq!(idx.live_exprs(), &[e], "the max side still has a tag");
            idx.remove(e, 5, ThresholdOp::Le, ps[1]);
            assert!(idx.is_empty());
            assert!(idx.live_exprs().is_empty());
            // The emptied sides are reused, not rebuilt.
            idx.insert(e, 6, ThresholdOp::Ge, ps[0]);
            assert_eq!(idx.live_exprs(), &[e]);
            assert_eq!(idx.search(e, 6, &mut |_| true), Some(ps[0]));
        });
    }

    #[test]
    fn search_respects_check_veto_then_continues() {
        both_kinds(|kind| {
            // Both tags true; the weakest's predicates all false → poll,
            // check next; the paper's backup/reinsert path.
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(2);
            idx.insert(e, 1, ThresholdOp::Ge, ps[0]);
            idx.insert(e, 2, ThresholdOp::Ge, ps[1]);
            let veto = ps[0];
            let hit = idx.search(e, 5, &mut |c| c != veto);
            assert_eq!(hit, Some(ps[1]));
            // Both still present afterwards.
            assert_eq!(idx.len(), 2);
            let hit = idx.search(e, 5, &mut |_| true);
            assert_eq!(hit, Some(ps[0]), "weakest probed first again");
        });
    }

    #[test]
    fn distinct_exprs_are_independent() {
        both_kinds(|kind| {
            let mut idx = index(kind);
            let (e0, e1) = (ExprId::from_raw(0), ExprId::from_raw(1));
            let ps = pids(2);
            idx.insert(e1, 5, ThresholdOp::Ge, ps[1]);
            idx.insert(e0, 5, ThresholdOp::Ge, ps[0]);
            assert_eq!(idx.live_exprs(), &[e0, e1]);
            let hit = idx.search(e1, 9, &mut |_| true);
            assert_eq!(hit, Some(ps[1]));
        });
    }

    #[test]
    fn extreme_keys_do_not_overflow_ranks() {
        both_kinds(|kind| {
            let mut idx = index(kind);
            let e = ExprId::from_raw(0);
            let ps = pids(2);
            idx.insert(e, i64::MAX, ThresholdOp::Ge, ps[0]);
            idx.insert(e, i64::MIN, ThresholdOp::Ge, ps[1]);
            // value = i64::MAX satisfies both; weakest (i64::MIN) first.
            let mut checked = Vec::new();
            idx.search(e, i64::MAX, &mut |c| {
                checked.push(c);
                false
            });
            assert_eq!(checked, vec![ps[1], ps[0]]);
        });
    }
}
