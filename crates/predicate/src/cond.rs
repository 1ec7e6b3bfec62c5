//! Compiled conditions: analyze once, wait many.
//!
//! The paper's pitch is that `waituntil(pred)` can match hand-written
//! signaling because the runtime pre-analyzes predicates (globalization
//! §4.1, tagging §4.3). A [`Cond`] is that pre-analysis *reified*: the
//! DNF conversion, tag assignment, dependency extraction and key
//! computation run exactly once, at compile time, and every subsequent
//! wait reuses the shared [`Predicate`] by `Arc` — no per-wait
//! allocation, normalization or hashing.
//!
//! A [`CondTable`] interns compiled conditions by their structural
//! [`PredKey`], so syntax-equivalent conditions compiled at different
//! call sites share one slot (and, in the monitor runtime, one
//! predicate-table entry and condition variable). Keyless conditions —
//! those containing an un-keyed custom closure — cannot be canonicalized
//! and always receive a fresh slot.
//!
//! Soundness of the interning: two conditions share a slot **only** when
//! their [`PredKey`]s are equal, and a `PredKey` is the canonical
//! (sorted, globalized) form of the whole DNF — equal keys mean
//! syntax-equivalent predicates, which the paper already treats as one
//! waiting condition (§5.2). Interning therefore can never alias two
//! semantically distinct predicates.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::key::PredKey;
use crate::predicate::Predicate;

/// A compiled waiting condition over monitor state `S`.
///
/// Produced by the monitor runtime's `compile` (which interns it into
/// the monitor's [`CondTable`]); cheap to clone (two machine words plus
/// an `Arc` bump) and reusable from any thread. The `slot` indexes the
/// owning table; the `owner` token identifies the monitor that compiled
/// it, so waits can reject conditions compiled by a different monitor.
/// `W` is the compiling runtime's wake handle (see [`Cond::wake`]); this
/// crate never looks inside it.
///
/// # Examples
///
/// ```
/// use autosynch_predicate::cond::CondTable;
/// use autosynch_predicate::expr::ExprTable;
/// use autosynch_predicate::predicate::Predicate;
///
/// struct S { count: i64 }
/// let mut exprs = ExprTable::new();
/// let count = exprs.register("count", |s: &S| s.count);
///
/// let mut table = CondTable::new();
/// let (slot_a, _) = table.intern(Predicate::try_from_expr(count.ge(3)).unwrap());
/// let (slot_b, _) = table.intern(Predicate::try_from_expr(count.ge(3)).unwrap());
/// assert_eq!(slot_a, slot_b, "syntax-equivalent conditions share a slot");
/// ```
pub struct Cond<S, W = ()> {
    pred: Arc<Predicate<S>>,
    slot: u32,
    owner: u64,
    wake: W,
}

impl<S, W> Cond<S, W> {
    /// Packages a compiled predicate. Intended for the monitor runtime;
    /// `slot` must come from the owning [`CondTable`] and `owner` from
    /// the compiling monitor, or waits on the handle will be rejected.
    /// `wake` is whatever the runtime wants at hand on every wait
    /// without a table lookup — the monitor stores the condition
    /// variable its waiters block on.
    pub fn new(pred: Arc<Predicate<S>>, slot: u32, owner: u64, wake: W) -> Self {
        Cond {
            pred,
            slot,
            owner,
            wake,
        }
    }

    /// The runtime's per-condition wake handle.
    pub fn wake(&self) -> &W {
        &self.wake
    }

    /// The compiled predicate (DNF + tags + deps + key, all shared).
    pub fn predicate(&self) -> &Predicate<S> {
        &self.pred
    }

    /// The shared predicate, by reference-counted handle.
    pub fn predicate_arc(&self) -> &Arc<Predicate<S>> {
        &self.pred
    }

    /// The slot in the owning [`CondTable`].
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The compiling monitor's identity token.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// The slot's equivalence route, when the compiled condition's truth
    /// is a function of one eq-tagged shared expression (see
    /// [`Predicate::eq_route`]): the wake-routing metadata a routed
    /// monitor uses to map a published value straight to this slot's
    /// waiting population.
    pub fn eq_route(&self) -> Option<(crate::expr::ExprId, i64)> {
        self.pred.eq_route()
    }
}

impl<S, W: Clone> Clone for Cond<S, W> {
    fn clone(&self) -> Self {
        Cond {
            pred: Arc::clone(&self.pred),
            slot: self.slot,
            owner: self.owner,
            wake: self.wake.clone(),
        }
    }
}

impl<S, W> fmt::Debug for Cond<S, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cond")
            .field("slot", &self.slot)
            .field("pred", &self.pred)
            .finish()
    }
}

impl<S, W> fmt::Display for Cond<S, W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)
    }
}

/// An interning table of compiled conditions, keyed by structural
/// [`PredKey`].
///
/// Slots are dense `u32` indexes handed out in interning order; a slot,
/// once issued, is never invalidated (compiled conditions are pinned for
/// the table's lifetime — that is what makes the wait path allocation-
/// and lookup-free).
pub struct CondTable<S> {
    by_key: HashMap<PredKey, u32>,
    preds: Vec<Arc<Predicate<S>>>,
}

impl<S> Default for CondTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> fmt::Debug for CondTable<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CondTable")
            .field("conds", &self.preds.len())
            .field("keyed", &self.by_key.len())
            .finish()
    }
}

impl<S> CondTable<S> {
    /// Creates an empty table.
    pub fn new() -> Self {
        CondTable {
            by_key: HashMap::new(),
            preds: Vec::new(),
        }
    }

    /// Interns an analyzed predicate: returns the existing slot for a
    /// syntax-equivalent (equal-[`PredKey`]) condition, or allocates a
    /// fresh one. Keyless predicates always allocate.
    ///
    /// Returns the slot and the shared predicate stored there — on a
    /// hit, that is the *first* compiled instance, so repeated compiles
    /// of the same condition share one allocation.
    pub fn intern(&mut self, pred: Predicate<S>) -> (u32, Arc<Predicate<S>>) {
        if let Some(key) = pred.key() {
            if let Some(&slot) = self.by_key.get(key) {
                return (slot, Arc::clone(&self.preds[slot as usize]));
            }
        }
        let slot = u32::try_from(self.preds.len()).expect("more than u32::MAX compiled conditions");
        if let Some(key) = pred.key().cloned() {
            self.by_key.insert(key, slot);
        }
        let arc = Arc::new(pred);
        self.preds.push(Arc::clone(&arc));
        (slot, arc)
    }

    /// The predicate interned at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not issued by this table.
    pub fn get(&self, slot: u32) -> &Arc<Predicate<S>> {
        &self.preds[slot as usize]
    }

    /// The slot a key-equal condition is interned at, if any.
    pub fn lookup(&self, key: &PredKey) -> Option<u32> {
        self.by_key.get(key).copied()
    }

    /// Number of interned conditions.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether no conditions are interned.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprTable;

    struct S {
        count: i64,
    }

    fn count() -> crate::expr::ExprHandle<S> {
        let mut t = ExprTable::new();
        t.register("count", |s: &S| s.count)
    }

    #[test]
    fn interning_dedupes_by_key() {
        let count = count();
        let mut table = CondTable::new();
        let (a, pa) = table.intern(Predicate::try_from_expr(count.ge(5)).unwrap());
        let (b, pb) = table.intern(Predicate::try_from_expr(count.ge(5)).unwrap());
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&pa, &pb), "hits share the first compile");
        assert_eq!(table.len(), 1);
        // A different key gets a different slot.
        let (c, _) = table.intern(Predicate::try_from_expr(count.ge(6)).unwrap());
        assert_ne!(a, c);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn keyless_conditions_always_allocate() {
        let mut table = CondTable::new();
        let (a, _) = table.intern(Predicate::<S>::custom("odd", |s| s.count % 2 == 1));
        let (b, _) = table.intern(Predicate::<S>::custom("odd", |s| s.count % 2 == 1));
        assert_ne!(a, b, "closures cannot be canonicalized");
    }

    #[test]
    fn interning_preserves_the_analysis_byte_for_byte() {
        let count = count();
        let expr = count.ge(10).or(count.eq(0));
        let direct = Predicate::try_from_expr(expr.clone()).unwrap();
        let mut table = CondTable::new();
        let (_, first) = table.intern(Predicate::try_from_expr(expr.clone()).unwrap());
        let (_, interned) = table.intern(Predicate::try_from_expr(expr).unwrap());
        assert!(Arc::ptr_eq(&first, &interned));
        assert_eq!(interned.tags(), direct.tags());
        assert_eq!(interned.conj_deps(), direct.conj_deps());
        assert_eq!(interned.key(), direct.key());
    }

    #[test]
    fn lookup_and_get_roundtrip() {
        let count = count();
        let pred = Predicate::try_from_expr(count.lt(3)).unwrap();
        let key = pred.key().cloned().unwrap();
        let mut table = CondTable::new();
        assert!(table.is_empty());
        assert_eq!(table.lookup(&key), None);
        let (slot, arc) = table.intern(pred);
        assert_eq!(table.lookup(&key), Some(slot));
        assert!(Arc::ptr_eq(table.get(slot), &arc));
    }

    #[test]
    fn cond_eq_route_mirrors_the_predicate() {
        let count = count();
        let mut table = CondTable::new();
        let (slot, arc) = table.intern(Predicate::try_from_expr(count.eq(9)).unwrap());
        let cond = Cond::new(arc, slot, 1, ());
        assert_eq!(cond.eq_route(), Some((count.id(), 9)));
        let (slot, arc) = table.intern(Predicate::try_from_expr(count.ge(9)).unwrap());
        assert_eq!(Cond::new(arc, slot, 1, ()).eq_route(), None);
    }

    #[test]
    fn cond_handle_accessors() {
        let count = count();
        let mut table = CondTable::new();
        let (slot, arc) = table.intern(Predicate::try_from_expr(count.ge(1)).unwrap());
        let cond = Cond::new(arc, slot, 7, ());
        assert_eq!(cond.slot(), slot);
        assert_eq!(cond.owner(), 7);
        assert_eq!(cond.clone().to_string(), "e0 >= 1");
        assert!(format!("{cond:?}").contains("Cond"));
        assert!(cond.predicate().key().is_some());
        assert!(Arc::ptr_eq(cond.predicate_arc(), table.get(slot)));
    }
}
