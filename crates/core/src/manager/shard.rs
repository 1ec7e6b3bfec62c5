//! The condition manager's tag index: the equivalence hash table,
//! threshold heaps and `None` lists the `Tagged` and `ChangeDriven`
//! relays search, plus the relay bookkeeping flags.
//!
//! The flags carry the soundness state of the change-driven skip:
//!
//! * [`Shard::all_false`] — every candidate was false at its last
//!   resolution and none of the index's dependency expressions has
//!   changed since; the relay may be skipped outright.
//! * [`Shard::probe_all`] — the previous relay stopped at a hit and
//!   left the index partially searched; the next probe must ignore the
//!   changed-set filter because true-but-unsignaled waiters may hide
//!   behind unchanged dependencies.

use autosynch_metrics::counters::OccupancyTally;
use autosynch_predicate::expr::{ExprId, ExprTable};

use crate::dense::slot_mut;
use crate::eq_index::{EqIndex, PredId, TaggedConj};
use crate::slab::Slab;
use crate::threshold_index::ThresholdIndex;

use super::PredEntry;

/// The predicate table's tag indexes.
pub(crate) struct Shard {
    /// Equivalence tags: O(1) hash probe per live expression.
    pub(super) eq_index: EqIndex,
    /// Threshold tags: the Fig. 4 heaps.
    pub(super) thresholds: ThresholdIndex,
    /// `None` tags, exhaustive list (Tagged mode only).
    pub(super) none_list: Vec<TaggedConj>,
    /// `None` tags with transparent dependencies, listed under each
    /// dependency expression (ChangeDriven mode): indexed by
    /// `ExprId::index()`, grown on insert.
    pub(super) none_index: Vec<Vec<TaggedConj>>,
    /// `None` tags with opaque or empty dependency sets: probed on every
    /// non-skipped visit (ChangeDriven mode).
    pub(super) opaque_list: Vec<TaggedConj>,
    /// Live `None` tags, counting each conjunction once
    /// (the index above lists one under every dependency).
    pub(super) none_count: usize,
    /// Every candidate was false at its last resolution and no owned
    /// dependency changed since — the relay may be skipped.
    pub(super) all_false: bool,
    /// The index was left partially searched; the next probe must ignore
    /// the changed-set filter.
    pub(super) probe_all: bool,
}

impl Shard {
    pub(super) fn new(kind: crate::config::ThresholdIndexKind) -> Self {
        Shard {
            eq_index: EqIndex::new(),
            thresholds: ThresholdIndex::new(kind),
            none_list: Vec::new(),
            none_index: Vec::new(),
            opaque_list: Vec::new(),
            none_count: 0,
            all_false: false,
            probe_all: false,
        }
    }

    /// Live tags (each conjunction counted once).
    pub(super) fn live_tag_count(&self) -> usize {
        self.eq_index.len() + self.thresholds.len() + self.none_list.len() + self.none_count
    }

    /// Lists a transparent `None`-tagged conjunction under one of its
    /// dependencies.
    pub(super) fn none_index_insert(&mut self, expr: ExprId, entry: TaggedConj) {
        slot_mut(&mut self.none_index, expr, Vec::new).push(entry);
    }

    /// Undoes [`Shard::none_index_insert`]. The per-expression list
    /// stays, empty, for the next conjunction to reuse.
    pub(super) fn none_index_remove(&mut self, expr: ExprId, entry: TaggedConj) {
        if let Some(candidates) = self.none_index.get_mut(expr.index()) {
            if let Some(pos) = candidates.iter().position(|&e| e == entry) {
                candidates.swap_remove(pos);
            }
        }
    }

    /// The relay search: probe the equivalence hash tables,
    /// then the threshold heaps (Fig. 4), then the `None` tags; the first
    /// candidate whose conjunction is true is returned.
    ///
    /// With `changed == None` every candidate a true tag leads to is
    /// evaluated — AutoSynch proper (`Tagged`), and a change-driven probe
    /// that may not trust its filter (`probe_all`). With a
    /// changed-expression bitmap, every candidate whose dependency set
    /// misses it is skipped: its conjunction was false at its last
    /// resolution and none of its inputs moved since.
    ///
    /// Expression values come from `cache`, evaluated at most once per
    /// cache epoch: the `Tagged` relay opens an epoch per search, the
    /// change-driven relays one per diff, so their expressions are
    /// evaluated once per occupancy rather than once per relay. Nothing
    /// here allocates or touches a shared counter; the counts go to
    /// `tally`.
    pub(super) fn probe<S>(
        &mut self,
        entries: &Slab<PredEntry<S>>,
        state: &S,
        exprs: &ExprTable<S>,
        cache: &mut ValueCache,
        changed: Option<&[bool]>,
        tally: &mut OccupancyTally,
    ) -> Option<PredId> {
        // Evaluates one candidate a true tag (or no tag) led to.
        let check = |(pid, conj): TaggedConj, tally: &mut OccupancyTally| -> bool {
            let pred = &entries[pid].pred;
            if let Some(changed) = changed {
                if !pred.conj_deps()[conj as usize].intersects(changed) {
                    tally.probes_skipped += 1;
                    return false;
                }
            }
            tally.pred_evals += 1;
            pred.eval_conjunction(conj as usize, state, exprs)
        };

        // 1. Equivalence tags: O(1) hash probe per live expression.
        for &expr in self.eq_index.live_exprs() {
            let v = cache.value_of(expr, state, exprs, tally);
            for &candidate in self.eq_index.candidates(expr, v) {
                if check(candidate, tally) {
                    return Some(candidate.0);
                }
            }
        }

        // 2. Threshold tags: the Fig. 4 heap walk per live expression.
        // The walk mutates the heaps but never the live list, which is
        // therefore read by position.
        for i in 0..self.thresholds.live_exprs().len() {
            let expr = self.thresholds.live_exprs()[i];
            let v = cache.value_of(expr, state, exprs, tally);
            let hit = self
                .thresholds
                .search(expr, v, &mut |candidate| check(candidate, tally));
            if let Some((pid, _)) = hit {
                return Some(pid);
            }
        }

        // 3. None tags without a usable dependency set — all of them in
        // `Tagged` mode, the opaque ones otherwise: always evaluated.
        for &(pid, conj) in self.none_list.iter().chain(&self.opaque_list) {
            tally.pred_evals += 1;
            if entries[pid]
                .pred
                .eval_conjunction(conj as usize, state, exprs)
            {
                return Some(pid);
            }
        }

        // 4. Transparent None tags via the per-expression candidate
        // lists. Each candidate is listed under every dependency;
        // probing it only under its first (changed) dependency visits it
        // once — that is dedup, not a skip.
        for (idx, candidates) in self.none_index.iter().enumerate() {
            // Like `ConjDeps::intersects`: an expression the bitmap does
            // not cover yet counts as changed.
            if changed.is_some_and(|changed| !changed.get(idx).copied().unwrap_or(true)) {
                continue;
            }
            let expr = ExprId::from_raw(idx as u32);
            for &(pid, conj) in candidates {
                let pred = &entries[pid].pred;
                let deps = &pred.conj_deps()[conj as usize];
                let first = match changed {
                    None => deps.exprs().first().copied(),
                    Some(changed) => deps.first_changed(changed),
                };
                if first != Some(expr) {
                    continue;
                }
                tally.pred_evals += 1;
                if pred.eval_conjunction(conj as usize, state, exprs) {
                    return Some(pid);
                }
            }
        }
        None
    }
}

/// The last evaluated value of every shared expression, stamped with the
/// epoch it was evaluated in — the relay's one value store, sized to the
/// `ExprTable` and grown only when that grows.
///
/// The change-driven modes keep their diff snapshot here: the diff opens
/// an epoch and refreshes every expression with an active dependent, so
/// a probe finds its values already current; the fallback covers
/// expressions registered since, which are evaluated against the same
/// (unmutated-since-diff) state and stamped into the current epoch. The
/// `Tagged` mode has no diff and opens an epoch per search, which makes
/// the same store its "each shared expression at most once per relay"
/// memo.
#[derive(Debug, Default)]
pub(super) struct ValueCache {
    pub(super) values: Vec<Option<i64>>,
    /// The epoch each slot was last evaluated (or carried forward) in.
    pub(super) epochs: Vec<u64>,
    pub(super) epoch: u64,
}

impl ValueCache {
    /// Grows the store to cover `len` expressions.
    pub(super) fn cover(&mut self, len: usize) {
        if self.values.len() < len {
            self.values.resize(len, None);
            self.epochs.resize(len, 0);
        }
    }

    fn value_of<S>(
        &mut self,
        id: ExprId,
        state: &S,
        exprs: &ExprTable<S>,
        tally: &mut OccupancyTally,
    ) -> i64 {
        let idx = id.index();
        self.cover(idx + 1);
        match (self.epochs[idx] == self.epoch, self.values[idx]) {
            (true, Some(v)) => v,
            _ => {
                tally.expr_evals += 1;
                let v = exprs.eval(id, state);
                self.values[idx] = Some(v);
                self.epochs[idx] = self.epoch;
                v
            }
        }
    }
}
