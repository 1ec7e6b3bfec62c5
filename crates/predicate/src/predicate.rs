//! The packaged `waituntil` condition: DNF + tags + structural key.
//!
//! A [`Predicate`] is what the monitor runtime stores and indexes. It is
//! created once per `waituntil` (the preprocessing step of Fig. 6),
//! carries its conjunction tags, and can be evaluated by **any** thread
//! because globalization has already replaced thread-local variables with
//! constants.

use std::fmt;

use crate::ast::BoolExpr;
use crate::deps::{conj_deps, ConjDeps};
use crate::dnf::{to_dnf, to_dnf_with_limit, Dnf, DnfOverflow};
use crate::expr::ExprTable;
use crate::key::{pred_key, PredKey};
use crate::tag::{assign_tags, Tag, ThresholdOp};

/// A fully analyzed waiting condition over monitor state `S`.
///
/// # Examples
///
/// ```
/// use autosynch_predicate::expr::ExprTable;
/// use autosynch_predicate::predicate::Predicate;
///
/// struct S { count: i64 }
/// let mut t = ExprTable::new();
/// let count = t.register("count", |s: &S| s.count);
///
/// let p = Predicate::try_from_expr(count.ge(32).or(count.eq(0))).unwrap();
/// assert_eq!(p.tags().len(), 2);
/// assert!(p.eval(&S { count: 40 }, &t));
/// assert!(p.eval(&S { count: 0 }, &t));
/// assert!(!p.eval(&S { count: 7 }, &t));
/// ```
pub struct Predicate<S> {
    dnf: Dnf<S>,
    tags: Vec<Tag>,
    deps: Vec<ConjDeps>,
    key: Option<PredKey>,
    source: Option<String>,
}

impl<S> Predicate<S> {
    /// Analyzes a boolean AST: DNF conversion, tagging, key computation.
    ///
    /// # Errors
    ///
    /// Returns [`DnfOverflow`] when the condition's DNF exceeds the
    /// default conjunction limit.
    pub fn try_from_expr(expr: BoolExpr<S>) -> Result<Self, DnfOverflow> {
        let source = format!("{expr}");
        let dnf = to_dnf(&expr)?;
        Ok(Self::from_dnf_with_source(dnf, Some(source)))
    }

    /// Like [`Predicate::try_from_expr`] with an explicit conjunction
    /// limit.
    ///
    /// # Errors
    ///
    /// Returns [`DnfOverflow`] when the condition's DNF exceeds `limit`.
    pub fn try_from_expr_with_limit(expr: BoolExpr<S>, limit: usize) -> Result<Self, DnfOverflow> {
        let source = format!("{expr}");
        let dnf = to_dnf_with_limit(&expr, limit)?;
        Ok(Self::from_dnf_with_source(dnf, Some(source)))
    }

    /// Packages an existing DNF (used by the DSL compiler, which builds
    /// DNFs directly).
    pub fn from_dnf(dnf: Dnf<S>) -> Self {
        Self::from_dnf_with_source(dnf, None)
    }

    fn from_dnf_with_source(dnf: Dnf<S>, source: Option<String>) -> Self {
        let tags = assign_tags(&dnf);
        let deps = conj_deps(&dnf);
        let key = pred_key(&dnf);
        Predicate {
            dnf,
            tags,
            deps,
            key,
            source,
        }
    }

    /// Wraps an opaque closure as a single-`None`-tag predicate.
    pub fn custom(name: impl Into<String>, f: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        Self::try_from_expr(BoolExpr::custom(name, f))
            .expect("a single literal cannot overflow the DNF limit")
    }

    /// The always-true predicate.
    pub fn always() -> Self {
        Self::try_from_expr(BoolExpr::always()).expect("constant cannot overflow")
    }

    /// The always-false predicate.
    pub fn never() -> Self {
        Self::try_from_expr(BoolExpr::never()).expect("constant cannot overflow")
    }

    /// The normalized condition.
    pub fn dnf(&self) -> &Dnf<S> {
        &self.dnf
    }

    /// One tag per conjunction, aligned with `self.dnf().conjunctions()`.
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// One dependency set per conjunction, aligned with
    /// `self.dnf().conjunctions()` (and therefore with
    /// [`Predicate::tags`]). The change-driven relay uses these to probe
    /// only conjunctions whose inputs changed since the last relay.
    pub fn conj_deps(&self) -> &[ConjDeps] {
        &self.deps
    }

    /// The structural key, or `None` when the predicate contains a keyless
    /// custom closure.
    pub fn key(&self) -> Option<&PredKey> {
        self.key.as_ref()
    }

    /// The equivalence route of this predicate, when its truth is a
    /// function of **one** shared expression compared by an equivalence
    /// tag: `Some((expr, key))` iff the DNF has exactly one conjunction,
    /// that conjunction carries `Tag::Equivalence { expr, key }`, it is
    /// not opaque, and `expr` is its sole dependency.
    ///
    /// Under those conditions the predicate can only be true while
    /// `expr == key`, and it can only *flip* when `expr` changes — so a
    /// wake router may map a freshly published value of `expr` directly
    /// to the one waiting population whose predicate can have become
    /// true (the fig11 `turn == id` shape). Any other structure returns
    /// `None` and must be woken through the dependency route.
    pub fn eq_route(&self) -> Option<(crate::expr::ExprId, i64)> {
        if self.deps.len() != 1 {
            return None;
        }
        let deps = &self.deps[0];
        if deps.is_opaque() {
            return None;
        }
        match self.tags[0] {
            Tag::Equivalence { expr, key } if deps.exprs() == [expr] => Some((expr, key)),
            _ => None,
        }
    }

    /// The threshold route of this predicate, when its truth is a
    /// function of **one** shared expression compared by a threshold
    /// tag: `Some((expr, key, op))` iff the DNF has exactly one
    /// conjunction, that conjunction carries
    /// `Tag::Threshold { expr, key, op }`, it is not opaque, and `expr`
    /// is its sole dependency.
    ///
    /// The ordered cousin of [`Predicate::eq_route`]: under those
    /// conditions the predicate is true exactly while `expr op key`
    /// holds, and it can only flip when `expr` changes — so a wake
    /// router may order all such predicates of one expression by key
    /// strength (a *ladder*) and, given a freshly published value, wake
    /// only the rungs the value actually crosses (the fig14
    /// `count >= num` shape). Any other structure returns `None` and
    /// must be woken through the dependency route.
    pub fn threshold_route(&self) -> Option<(crate::expr::ExprId, i64, ThresholdOp)> {
        if self.deps.len() != 1 {
            return None;
        }
        let deps = &self.deps[0];
        if deps.is_opaque() {
            return None;
        }
        match self.tags[0] {
            Tag::Threshold { expr, key, op } if deps.exprs() == [expr] => Some((expr, key, op)),
            _ => None,
        }
    }

    /// The pre-normalization source text, when built from an AST.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Evaluates the predicate (the whole disjunction).
    pub fn eval(&self, state: &S, exprs: &ExprTable<S>) -> bool {
        self.dnf.eval(state, exprs)
    }

    /// Three-valued evaluation against a published expression snapshot
    /// (`values` indexed by [`crate::expr::ExprId::index`], `None` for
    /// expressions the snapshot does not carry): `Some(true)` /
    /// `Some(false)` when the snapshot decides the predicate, `None`
    /// when it cannot (opaque literals or missing values). Routed-mode
    /// waiters use this for their lock-free self-checks; a `None`
    /// verdict falls back to evaluation under the monitor lock.
    pub fn eval_snapshot(&self, values: &[Option<i64>]) -> Option<bool> {
        self.dnf.eval_snapshot(values)
    }

    /// Evaluates conjunction `index` only. Signaling uses this: a true
    /// conjunction suffices to make the predicate true.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn eval_conjunction(&self, index: usize, state: &S, exprs: &ExprTable<S>) -> bool {
        self.dnf.conjunctions()[index].eval(state, exprs)
    }

    /// Whether the predicate is the constant `true`.
    pub fn is_trivially_true(&self) -> bool {
        self.dnf.is_trivially_true()
    }

    /// Whether the predicate is the constant `false`.
    pub fn is_trivially_false(&self) -> bool {
        self.dnf.is_trivially_false()
    }
}

impl<S> Clone for Predicate<S> {
    fn clone(&self) -> Self {
        Predicate {
            dnf: self.dnf.clone(),
            tags: self.tags.clone(),
            deps: self.deps.clone(),
            key: self.key.clone(),
            source: self.source.clone(),
        }
    }
}

impl<S> fmt::Debug for Predicate<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Predicate")
            .field("dnf", &self.dnf)
            .field("tags", &self.tags)
            .finish()
    }
}

impl<S> fmt::Display for Predicate<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Some(src) => f.write_str(src),
            None => write!(f, "{}", self.dnf),
        }
    }
}

/// Conversion into a [`Predicate`], implemented for ASTs, predicates and
/// plain closures so `wait_transient` accepts all three.
///
/// # Panics
///
/// The [`BoolExpr`] implementation panics on [`DnfOverflow`]; use
/// [`Predicate::try_from_expr`] directly to handle enormous conditions
/// gracefully.
pub trait IntoPredicate<S> {
    /// Performs the conversion.
    fn into_predicate(self) -> Predicate<S>;
}

impl<S> IntoPredicate<S> for Predicate<S> {
    fn into_predicate(self) -> Predicate<S> {
        self
    }
}

impl<S> IntoPredicate<S> for BoolExpr<S> {
    fn into_predicate(self) -> Predicate<S> {
        Predicate::try_from_expr(self).expect("waituntil condition exceeded the DNF limit")
    }
}

impl<S, F> IntoPredicate<S> for F
where
    F: Fn(&S) -> bool + Send + Sync + 'static,
{
    fn into_predicate(self) -> Predicate<S> {
        Predicate::custom("<closure>", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprHandle;
    use crate::tag::ThresholdOp;

    struct S {
        count: i64,
    }

    fn setup() -> (ExprTable<S>, ExprHandle<S>) {
        let mut t = ExprTable::new();
        let count = t.register("count", |s: &S| s.count);
        (t, count)
    }

    #[test]
    fn bounded_buffer_predicates() {
        // The two shared predicates of Fig. 1's classic variant.
        let (t, count) = setup();
        let not_empty = Predicate::try_from_expr(count.gt(0)).unwrap();
        let not_full = Predicate::try_from_expr(count.lt(64)).unwrap();
        assert!(not_empty.eval(&S { count: 1 }, &t));
        assert!(!not_empty.eval(&S { count: 0 }, &t));
        assert!(not_full.eval(&S { count: 63 }, &t));
        assert!(!not_full.eval(&S { count: 64 }, &t));
        assert_eq!(
            not_empty.tags(),
            &[Tag::Threshold {
                expr: count.id(),
                key: 0,
                op: ThresholdOp::Gt
            }]
        );
    }

    #[test]
    fn eval_conjunction_is_per_disjunct() {
        let (t, count) = setup();
        let p = Predicate::try_from_expr(count.eq(0).or(count.ge(10))).unwrap();
        let s = S { count: 12 };
        let per_conj: Vec<bool> = (0..p.dnf().len())
            .map(|i| p.eval_conjunction(i, &s, &t))
            .collect();
        assert_eq!(per_conj, [false, true]);
    }

    #[test]
    fn constants() {
        let (t, _) = setup();
        assert!(Predicate::<S>::always().eval(&S { count: 0 }, &t));
        assert!(Predicate::<S>::always().is_trivially_true());
        assert!(!Predicate::<S>::never().eval(&S { count: 0 }, &t));
        assert!(Predicate::<S>::never().is_trivially_false());
    }

    #[test]
    fn key_matches_for_syntax_equivalent() {
        let (_, count) = setup();
        let a = Predicate::try_from_expr(count.ge(48)).unwrap();
        let b = Predicate::try_from_expr(count.ge(48)).unwrap();
        assert_eq!(a.key(), b.key());
        assert!(a.key().is_some());
    }

    #[test]
    fn eq_route_covers_exactly_the_single_equivalence_shape() {
        let (_, count) = setup();
        // The fig11 shape: one conjunction, one eq literal, one dep.
        let p = Predicate::try_from_expr(count.eq(5)).unwrap();
        assert_eq!(p.eq_route(), Some((count.id(), 5)));
        // Extra literals on the same expression keep the route (truth is
        // still a function of `count` alone, gated by the eq tag).
        let p = Predicate::try_from_expr(count.eq(5).and(count.gt(3))).unwrap();
        assert_eq!(p.eq_route(), Some((count.id(), 5)));
        // Disjunctions, thresholds, second dependencies and opaque
        // literals all lose it.
        assert_eq!(
            Predicate::try_from_expr(count.eq(5).or(count.eq(7)))
                .unwrap()
                .eq_route(),
            None
        );
        assert_eq!(
            Predicate::try_from_expr(count.ge(5)).unwrap().eq_route(),
            None
        );
        let mut t = ExprTable::new();
        let a = t.register("a", |s: &S| s.count);
        let b = t.register("b", |s: &S| -s.count);
        assert_eq!(
            Predicate::try_from_expr(a.eq(5).and(b.ge(0)))
                .unwrap()
                .eq_route(),
            None,
            "a second dependency defeats the route"
        );
        let opaque = a.eq(5).and(crate::ast::BoolExpr::custom("odd", |s: &S| {
            s.count % 2 == 1
        }));
        assert_eq!(
            Predicate::try_from_expr(opaque).unwrap().eq_route(),
            None,
            "opaque literals defeat the route"
        );
        assert_eq!(Predicate::<S>::custom("c", |_| true).eq_route(), None);
    }

    #[test]
    fn custom_predicate_has_no_key_and_none_tag() {
        let p = Predicate::<S>::custom("odd", |s| s.count % 2 == 1);
        assert!(p.key().is_none());
        assert_eq!(p.tags(), &[Tag::None]);
    }

    #[test]
    fn into_predicate_for_closures() {
        let (t, _) = setup();
        fn take<S, P: IntoPredicate<S>>(p: P) -> Predicate<S> {
            p.into_predicate()
        }
        let p = take(|s: &S| s.count > 3);
        assert!(p.eval(&S { count: 4 }, &t));
        assert!(!p.eval(&S { count: 3 }, &t));
    }

    #[test]
    fn into_predicate_for_ast_and_self() {
        let (t, count) = setup();
        fn take<S, P: IntoPredicate<S>>(p: P) -> Predicate<S> {
            p.into_predicate()
        }
        let from_ast = take(count.ge(5));
        assert!(from_ast.eval(&S { count: 5 }, &t));
        let again = take(from_ast.clone());
        assert_eq!(again.key(), from_ast.key());
    }

    #[test]
    fn eval_snapshot_is_three_valued() {
        let (_, count) = setup();
        let p = Predicate::try_from_expr(count.ge(10).or(count.eq(0))).unwrap();
        // Decidable both ways from a full snapshot.
        assert_eq!(p.eval_snapshot(&[Some(12)]), Some(true));
        assert_eq!(p.eval_snapshot(&[Some(0)]), Some(true));
        assert_eq!(p.eval_snapshot(&[Some(5)]), Some(false));
        // A missing value leaves the predicate undecided...
        assert_eq!(p.eval_snapshot(&[None]), None);
        assert_eq!(p.eval_snapshot(&[]), None);
        // ...unless some other conjunction already decides it true.
        let q = Predicate::try_from_expr(count.ge(10)).unwrap();
        assert_eq!(q.eval_snapshot(&[None]), None);
    }

    #[test]
    fn eval_snapshot_escalates_on_opaque_literals() {
        let (_, count) = setup();
        // `count >= 3 && odd(s)`: a decidably-false comparison still
        // short-circuits; otherwise the closure blocks a verdict.
        let p = Predicate::try_from_expr(
            count
                .ge(3)
                .and(BoolExpr::custom("odd", |s: &S| s.count % 2 == 1)),
        )
        .unwrap();
        assert_eq!(p.eval_snapshot(&[Some(1)]), Some(false));
        assert_eq!(p.eval_snapshot(&[Some(7)]), None);
        // Constants stay decidable.
        assert_eq!(Predicate::<S>::always().eval_snapshot(&[]), Some(true));
        assert_eq!(Predicate::<S>::never().eval_snapshot(&[]), Some(false));
    }

    #[test]
    fn display_prefers_source() {
        let (_, count) = setup();
        let p = Predicate::try_from_expr(count.ge(5)).unwrap();
        assert_eq!(p.to_string(), "e0 >= 5");
        let d = Predicate::from_dnf(p.dnf().clone());
        assert!(d.to_string().contains("e0 >= 5"));
    }

    #[test]
    fn overflow_limit_is_propagated() {
        let (_, count) = setup();
        let mut e = count.eq(0).or(count.eq(1));
        let base = e.clone();
        for _ in 0..11 {
            e = e.and(base.clone());
        }
        assert!(Predicate::try_from_expr_with_limit(e, 8).is_err());
    }
}
