//! Tracked mutations: state cells whose writes name the touched shared
//! expressions automatically.
//!
//! A manually named-mutation contract (a caller-supplied `&[ExprId]`,
//! as `MonitorGuard::state_mut_touching` still offers) makes the
//! change-driven snapshot diff precise — but only for callers
//! disciplined enough to enumerate every touched expression on every
//! entry, and a single forgotten id is a lost wakeup. A [`Tracked`] cell
//! inverts the contract: the *cell* knows which shared expressions read
//! it (bound once at setup), every mutable access marks the cell dirty,
//! and the monitor drains the dirty set into the diff right before each
//! relay. Writes cannot under-report: the only way to mutate the value
//! inside a `Tracked` is through an accessor that sets the dirty flag,
//! and a dirty cell with no bound expressions poisons the occupancy to a
//! blanket mutation rather than silently reporting nothing.
//!
//! A state type opts in by implementing [`TrackedState`] — a plain trait
//! (no derive machinery) that visits each cell:
//!
//! ```
//! use autosynch::tracked::{Tracked, TrackedCell, TrackedState};
//!
//! struct Buffer {
//!     items: Tracked<Vec<u64>>,
//!     capacity: usize, // read-only: no expression ever changes with it
//! }
//!
//! impl TrackedState for Buffer {
//!     fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
//!         f(&mut self.items);
//!     }
//! }
//! ```
//!
//! With `Monitor::enter_tracked`, every occupancy's writes are named
//! automatically — the precise diffs of the `ChangeDriven` and `Routed`
//! modes become the default on every workload instead of an
//! opt-in for careful callers.

use std::fmt;
use std::ops::{Deref, DerefMut};

use autosynch_predicate::expr::ExprId;

/// A monitor-state cell that records when it is written.
///
/// The cell owns a value of type `T`, the list of shared-expression ids
/// whose values depend on it ([`Tracked::bind`]), and a dirty flag set
/// by every mutable access ([`DerefMut`], [`Tracked::set`],
/// [`Tracked::update`], …). The monitor drains the flag at relay time
/// via [`TrackedCell::drain_touched`].
pub struct Tracked<T> {
    value: T,
    deps: Vec<ExprId>,
    dirty: bool,
}

impl<T> Tracked<T> {
    /// Wraps a value in an unbound, clean cell.
    pub fn new(value: T) -> Self {
        Tracked {
            value,
            deps: Vec::new(),
            dirty: false,
        }
    }

    /// Declares that shared expression `id` reads this cell. An
    /// expression reading several cells must be bound to each of them;
    /// a cell read by several expressions is bound to all of them.
    /// Duplicate binds are ignored.
    ///
    /// Binding normally happens at setup time, right after
    /// `Monitor::register_expr` (see `Monitor::bind`).
    pub fn bind(&mut self, id: ExprId) {
        if !self.deps.contains(&id) {
            self.deps.push(id);
        }
    }

    /// The shared expressions bound to this cell.
    pub fn bound(&self) -> &[ExprId] {
        &self.deps
    }

    /// Shared access to the value (never marks the cell dirty).
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Replaces the value, marking the cell dirty.
    pub fn set(&mut self, value: T) {
        self.dirty = true;
        self.value = value;
    }

    /// Replaces the value and returns the previous one, marking the
    /// cell dirty.
    pub fn replace(&mut self, value: T) -> T {
        self.dirty = true;
        std::mem::replace(&mut self.value, value)
    }

    /// Runs `f` with mutable access to the value, marking the cell
    /// dirty.
    pub fn update<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        self.dirty = true;
        f(&mut self.value)
    }

    /// Unwraps the cell.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T: Default> Default for Tracked<T> {
    fn default() -> Self {
        Tracked::new(T::default())
    }
}

impl<T> Deref for Tracked<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for Tracked<T> {
    /// Mutable access marks the cell dirty — this is what makes
    /// under-reporting impossible: there is no path to `&mut T` that
    /// skips the flag.
    fn deref_mut(&mut self) -> &mut T {
        self.dirty = true;
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Tracked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracked")
            .field("value", &self.value)
            .field("deps", &self.deps)
            .field("dirty", &self.dirty)
            .finish()
    }
}

/// The object-safe face of a [`Tracked`] cell, visited by
/// [`TrackedState::for_each_cell`].
pub trait TrackedCell {
    /// Drains the cell's dirty flag into `sink`: a clean cell reports
    /// nothing; a dirty cell reports its bound expressions (or poisons
    /// the sink to a blanket mutation when it has none — an unbound
    /// write must never be silently dropped).
    fn drain_touched(&mut self, sink: &mut MutationSink);
}

impl<T> TrackedCell for Tracked<T> {
    fn drain_touched(&mut self, sink: &mut MutationSink) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        if self.deps.is_empty() {
            sink.poison();
        } else {
            for &id in &self.deps {
                sink.push(id);
            }
        }
    }
}

/// Monitor state whose expression-feeding fields live in [`Tracked`]
/// cells.
///
/// The contract: **every** field that any registered shared expression
/// (or waiting closure) reads must be inside a cell visited by
/// [`TrackedState::for_each_cell`]. Fields outside cells may only hold
/// configuration or data no waiting condition depends on. The runtime
/// enforces the conservative direction automatically — an occupancy
/// that mutated the state without dirtying any cell is treated as a
/// blanket mutation.
pub trait TrackedState {
    /// Visits every tracked cell of the state exactly once.
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell));
}

/// Accumulates the touched-expression set of one occupancy while the
/// monitor drains [`Tracked`] cells. Reused across occupancies, so
/// steady-state tracked mutations allocate nothing.
#[derive(Debug, Default)]
pub struct MutationSink {
    touched: Vec<ExprId>,
    blanket: bool,
}

impl MutationSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the sink for a new occupancy.
    pub fn reset(&mut self) {
        self.touched.clear();
        self.blanket = false;
    }

    /// Records a touched expression (deduplicated).
    pub fn push(&mut self, id: ExprId) {
        if !self.touched.contains(&id) {
            self.touched.push(id);
        }
    }

    /// Downgrades the occupancy to a blanket mutation (a dirty cell
    /// with no bound expressions — the runtime must assume anything
    /// changed).
    pub fn poison(&mut self) {
        self.blanket = true;
    }

    /// The touched expressions recorded so far.
    pub fn touched(&self) -> &[ExprId] {
        &self.touched
    }

    /// Whether the occupancy was downgraded to a blanket mutation.
    pub fn is_blanket(&self) -> bool {
        self.blanket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_mark_dirty_and_drain_reports_deps() {
        let mut cell = Tracked::new(0i64);
        cell.bind(ExprId::from_raw(3));
        cell.bind(ExprId::from_raw(5));
        cell.bind(ExprId::from_raw(3)); // duplicate ignored
        assert_eq!(cell.bound().len(), 2);

        let mut sink = MutationSink::new();
        cell.drain_touched(&mut sink);
        assert!(sink.touched().is_empty(), "clean cell reports nothing");

        *cell += 7; // DerefMut
        assert_eq!(*cell.get(), 7);
        cell.drain_touched(&mut sink);
        assert_eq!(
            sink.touched(),
            &[ExprId::from_raw(3), ExprId::from_raw(5)],
            "dirty cell reports every bound expression"
        );
        assert!(!sink.is_blanket());

        // Draining cleared the flag.
        sink.reset();
        cell.drain_touched(&mut sink);
        assert!(sink.touched().is_empty());
    }

    #[test]
    fn unbound_writes_poison_the_sink() {
        let mut cell = Tracked::new(vec![1, 2]);
        cell.update(|v| v.push(3));
        let mut sink = MutationSink::new();
        cell.drain_touched(&mut sink);
        assert!(sink.is_blanket(), "unbound dirty cell must not vanish");
    }

    #[test]
    fn accessors_cover_set_replace_update_into_inner() {
        let mut cell = Tracked::<i64>::default();
        cell.set(4);
        assert_eq!(cell.replace(9), 4);
        assert_eq!(cell.update(|v| *v * 2), 18);
        assert_eq!(*cell, 9);
        assert_eq!(cell.into_inner(), 9);
    }

    #[test]
    fn shared_access_stays_clean() {
        let mut cell = Tracked::new(41i64);
        cell.bind(ExprId::from_raw(0));
        let _ = *cell; // Deref
        let _ = cell.get();
        let mut sink = MutationSink::new();
        cell.drain_touched(&mut sink);
        assert!(sink.touched().is_empty() && !sink.is_blanket());
        assert!(format!("{cell:?}").contains("Tracked"));
    }

    #[test]
    fn sink_dedupes_and_resets() {
        let mut sink = MutationSink::new();
        sink.push(ExprId::from_raw(1));
        sink.push(ExprId::from_raw(1));
        assert_eq!(sink.touched().len(), 1);
        sink.poison();
        assert!(sink.is_blanket());
        sink.reset();
        assert!(sink.touched().is_empty() && !sink.is_blanket());
    }

    #[test]
    fn trait_object_state_visits_cells() {
        struct Pair {
            a: Tracked<i64>,
            b: Tracked<i64>,
        }
        impl TrackedState for Pair {
            fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut dyn TrackedCell)) {
                f(&mut self.a);
                f(&mut self.b);
            }
        }
        let mut pair = Pair {
            a: Tracked::new(0),
            b: Tracked::new(0),
        };
        pair.a.bind(ExprId::from_raw(0));
        pair.b.bind(ExprId::from_raw(1));
        *pair.b = 5;
        let mut sink = MutationSink::new();
        pair.for_each_cell(&mut |cell| cell.drain_touched(&mut sink));
        assert_eq!(sink.touched(), &[ExprId::from_raw(1)]);
    }
}
