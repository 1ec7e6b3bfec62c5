//! Shared expressions over the monitor state.
//!
//! A *shared expression* (Def. 5 of the paper) is an integer-valued
//! function of shared variables only. The runtime evaluates shared
//! expressions while holding the monitor lock, so a plain `Fn(&S) -> i64`
//! is the natural representation; an [`ExprTable`] interns them and hands
//! out cheap copyable [`ExprHandle`]s that predicates refer to by
//! [`ExprId`].
//!
//! Booleans are encoded as `0`/`1` so that flag conditions (`done == 1`)
//! participate in equivalence tagging.

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::ast::BoolExpr;
use crate::atom::{CmpAtom, CmpOp};

/// Identifier of a registered shared expression.
///
/// Ids are indexes into the owning [`ExprTable`]; they are only meaningful
/// together with the table that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

impl ExprId {
    /// Builds an id from a raw index. Intended for code that constructs
    /// expression tables itself (e.g. the DSL compiler); pairing an id
    /// with a table it did not come from evaluates the wrong expression.
    pub fn from_raw(index: u32) -> Self {
        ExprId(index)
    }

    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The function type stored for each shared expression.
pub type ExprFn<S> = Arc<dyn Fn(&S) -> i64 + Send + Sync>;

struct ExprEntry<S> {
    name: String,
    f: ExprFn<S>,
}

/// Registry of shared expressions for one monitor state type `S`.
///
/// # Examples
///
/// ```
/// use autosynch_predicate::expr::ExprTable;
///
/// struct State { x: i64, y: i64 }
/// let mut t = ExprTable::new();
/// let diff = t.register("x-y", |s: &State| s.x - s.y);
/// assert_eq!(t.eval(diff.id(), &State { x: 7, y: 3 }), 4);
/// assert_eq!(t.name(diff.id()), "x-y");
/// ```
pub struct ExprTable<S> {
    entries: Vec<ExprEntry<S>>,
}

impl<S> fmt::Debug for ExprTable<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExprTable")
            .field(
                "exprs",
                &self
                    .entries
                    .iter()
                    .map(|e| e.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

// Manual impl: `S` need not be `Clone` — a copy shares the closures.
impl<S> Clone for ExprTable<S> {
    fn clone(&self) -> Self {
        ExprTable {
            entries: self
                .entries
                .iter()
                .map(|e| ExprEntry {
                    name: e.name.clone(),
                    f: Arc::clone(&e.f),
                })
                .collect(),
        }
    }
}

impl<S> Default for ExprTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> ExprTable<S> {
    /// Creates an empty table.
    pub fn new() -> Self {
        ExprTable {
            entries: Vec::new(),
        }
    }

    /// Registers a shared expression under `name` and returns its handle.
    ///
    /// Names are labels for diagnostics and for [`ExprTable::lookup`]-based
    /// deduplication; registering the same name twice creates two distinct
    /// expressions unless [`ExprTable::register_or_get`] is used.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&S) -> i64 + Send + Sync + 'static,
    ) -> ExprHandle<S> {
        let id = ExprId(u32::try_from(self.entries.len()).expect("more than u32::MAX expressions"));
        self.entries.push(ExprEntry {
            name: name.into(),
            f: Arc::new(f),
        });
        ExprHandle::new(id)
    }

    /// Returns the handle registered under `name`, or registers `f` under
    /// that name. This is how the DSL compiler interns canonicalized
    /// shared expressions.
    pub fn register_or_get(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&S) -> i64 + Send + Sync + 'static,
    ) -> ExprHandle<S> {
        let name = name.into();
        match self.lookup(&name) {
            Some(handle) => handle,
            None => self.register(name, f),
        }
    }

    /// Finds a previously registered expression by name.
    pub fn lookup(&self, name: &str) -> Option<ExprHandle<S>> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|i| ExprHandle::new(ExprId(i as u32)))
    }

    /// Evaluates expression `id` against `state`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn eval(&self, id: ExprId, state: &S) -> i64 {
        (self.entries[id.index()].f)(state)
    }

    /// The diagnostic name of expression `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn name(&self, id: ExprId) -> &str {
        &self.entries[id.index()].name
    }

    /// Number of registered expressions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no expressions are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, name)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, &str)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (ExprId(i as u32), e.name.as_str()))
    }
}

/// A copyable handle to a registered shared expression, with comparison
/// builders that produce predicate ASTs.
///
/// The integer arguments of the builders are the *globalized* values of
/// thread-local variables (Def. 2): `count.ge(num)` snapshots `num` at the
/// moment the predicate is built, exactly like the paper's preprocessor
/// snapshots locals immediately before `waituntil`.
pub struct ExprHandle<S> {
    id: ExprId,
    _state: PhantomData<fn(&S) -> i64>,
}

impl<S> ExprHandle<S> {
    /// Wraps an id. See [`ExprId::from_raw`] for the pairing caveat.
    pub fn new(id: ExprId) -> Self {
        ExprHandle {
            id,
            _state: PhantomData,
        }
    }

    /// The underlying id.
    pub fn id(self) -> ExprId {
        self.id
    }

    /// Builds the comparison atom `self op key`.
    pub fn cmp(self, op: CmpOp, key: i64) -> BoolExpr<S> {
        BoolExpr::Cmp(CmpAtom::new(self.id, op, key))
    }

    /// `expr == key` — an equivalence predicate (Def. 6).
    pub fn eq(self, key: i64) -> BoolExpr<S> {
        self.cmp(CmpOp::Eq, key)
    }

    /// `expr != key` — tags as `None` (see Fig. 7's `x ≠ 9` entries).
    pub fn ne(self, key: i64) -> BoolExpr<S> {
        self.cmp(CmpOp::Ne, key)
    }

    /// `expr < key` — a threshold predicate (Def. 7).
    pub fn lt(self, key: i64) -> BoolExpr<S> {
        self.cmp(CmpOp::Lt, key)
    }

    /// `expr <= key` — a threshold predicate (Def. 7).
    pub fn le(self, key: i64) -> BoolExpr<S> {
        self.cmp(CmpOp::Le, key)
    }

    /// `expr > key` — a threshold predicate (Def. 7).
    pub fn gt(self, key: i64) -> BoolExpr<S> {
        self.cmp(CmpOp::Gt, key)
    }

    /// `expr >= key` — a threshold predicate (Def. 7).
    pub fn ge(self, key: i64) -> BoolExpr<S> {
        self.cmp(CmpOp::Ge, key)
    }
}

// Manual impls: `S` need not be Clone/Copy/Debug for handles to be.
impl<S> Clone for ExprHandle<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for ExprHandle<S> {}

impl<S> fmt::Debug for ExprHandle<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ExprHandle").field(&self.id).finish()
    }
}

impl<S> PartialEq for ExprHandle<S> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<S> Eq for ExprHandle<S> {}

#[cfg(test)]
mod tests {
    use super::*;

    struct State {
        x: i64,
        y: i64,
    }

    #[test]
    fn register_and_eval() {
        let mut t = ExprTable::new();
        let x = t.register("x", |s: &State| s.x);
        let sum = t.register("x+y", |s: &State| s.x + s.y);
        let s = State { x: 2, y: 40 };
        assert_eq!(t.eval(x.id(), &s), 2);
        assert_eq!(t.eval(sum.id(), &s), 42);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn lookup_by_name() {
        let mut t = ExprTable::new();
        let x = t.register("x", |s: &State| s.x);
        assert_eq!(t.lookup("x"), Some(x));
        assert_eq!(t.lookup("nope"), None);
    }

    #[test]
    fn register_or_get_dedupes() {
        let mut t = ExprTable::new();
        let a = t.register_or_get("x", |s: &State| s.x);
        let b = t.register_or_get("x", |s: &State| s.x + 1);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        // The first closure won.
        assert_eq!(t.eval(a.id(), &State { x: 5, y: 0 }), 5);
    }

    #[test]
    fn a_clone_shares_the_closures_and_not_later_registrations() {
        let mut t = ExprTable::new();
        let x = t.register("x", |s: &State| s.x);
        let copy = t.clone();
        t.register("y", |s: &State| s.y);
        assert_eq!(copy.len(), 1);
        assert_eq!(copy.eval(x.id(), &State { x: 9, y: 0 }), 9);
        assert_eq!(copy.lookup("x"), Some(x));
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut t = ExprTable::new();
        t.register("a", |s: &State| s.x);
        t.register("b", |s: &State| s.y);
        let names: Vec<_> = t.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn handles_are_copy_and_comparable() {
        let mut t = ExprTable::new();
        let x = t.register("x", |s: &State| s.x);
        let x2 = x; // Copy
        assert_eq!(x, x2);
        assert_eq!(format!("{:?}", x), "ExprHandle(ExprId(0))");
    }

    #[test]
    fn expr_id_roundtrip() {
        let id = ExprId::from_raw(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "e7");
    }

    #[test]
    #[should_panic]
    fn eval_with_foreign_id_panics() {
        let t: ExprTable<State> = ExprTable::new();
        t.eval(ExprId::from_raw(0), &State { x: 0, y: 0 });
    }

    #[test]
    fn debug_lists_names() {
        let mut t = ExprTable::new();
        t.register("count", |s: &State| s.x);
        assert!(format!("{t:?}").contains("count"));
    }
}
