//! `DslMonitor`: an AutoSynch monitor driven by textual `waituntil`
//! conditions.
//!
//! This is the end-to-end analog of an `AutoSynch class`: the schema
//! plays the role of the class's shared fields, `enter` is a synchronized
//! member function, and `wait_until("count >= num", &[("num", 48)])` is
//! `waituntil(count >= num)` with the local `num` globalized at call
//! time. Parsed conditions are cached per source string — the
//! "preprocessing once" of the paper — and shared expressions are
//! interned into the underlying monitor's expression table.
//!
//! v2 integration: every keyed lowered condition is compiled into the
//! monitor's interned [`Cond`] table on first use and reused by key
//! afterwards, and every variable write names exactly the shared
//! expressions that read its slot (recorded during lowering) — the DSL
//! gets compiled conditions and tracked mutations without user
//! annotations.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use autosynch::config::MonitorConfig;
use autosynch::monitor::{Monitor, MonitorGuard};
use autosynch::stats::StatsSnapshot;
use autosynch::Cond;
use autosynch_predicate::expr::{ExprHandle, ExprId};
use autosynch_predicate::key::PredKey;
use autosynch_predicate::predicate::Predicate;
use parking_lot::{Mutex, RwLock};

use crate::ast::Expr;
use crate::error::DslError;
use crate::lower::{lower, SharedExprSink};
use crate::parser::parse;
use crate::schema::{Env, Schema};

/// A monitor whose waiting conditions are source text over a schema of
/// named integer variables.
///
/// # Examples
///
/// ```
/// use autosynch_dsl::monitor::DslMonitor;
/// use autosynch_dsl::schema::Schema;
///
/// // The bounded buffer, DSL-style.
/// let m = DslMonitor::new(Schema::new(&["count", "cap"]));
/// m.enter(|g| g.set("cap", 16));
/// m.enter(|g| {
///     g.wait_until("count < cap", &[]).unwrap();
///     let c = g.get("count");
///     g.set("count", c + 1);
/// });
/// assert_eq!(m.enter(|g| g.get("count")), 1);
/// ```
pub struct DslMonitor {
    monitor: Monitor<Env>,
    schema: Arc<Schema>,
    templates: Mutex<HashMap<String, Arc<Expr>>>,
    /// Compiled-condition cache keyed by structural [`PredKey`]: a
    /// repeated `waituntil` (same source shape, same globalized locals)
    /// waits on its pinned [`Cond`] instead of re-registering.
    conds: Mutex<HashMap<PredKey, Cond<Env>>>,
    /// Slot → shared expressions that read it, recorded at interning
    /// time from the lowering's exact term lists. Writes to a slot name
    /// precisely these expressions (the v2 tracked-mutation contract).
    slot_deps: RwLock<Vec<Vec<ExprId>>>,
}

impl std::fmt::Debug for DslMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DslMonitor")
            .field("schema", &self.schema)
            .finish()
    }
}

impl DslMonitor {
    /// Upper bound on pinned compiled conditions: beyond this many
    /// distinct keys, further `waituntil`s register transiently
    /// (per-wait analysis, LRU-evictable) instead of pinning — so
    /// one-shot key streams (tickets, generations) cannot leak
    /// persistent entries through the DSL.
    pub const COND_CACHE_CAP: usize = 256;

    /// Creates a monitor with all shared variables zeroed.
    pub fn new(schema: Schema) -> Self {
        Self::with_config(schema, MonitorConfig::default())
    }

    /// Creates a monitor with an explicit runtime configuration.
    pub fn with_config(schema: Schema, config: MonitorConfig) -> Self {
        let env = schema.env();
        let slots = schema.len();
        DslMonitor {
            monitor: Monitor::with_config(env, config),
            schema: Arc::new(schema),
            templates: Mutex::new(HashMap::new()),
            conds: Mutex::new(HashMap::new()),
            slot_deps: RwLock::new(vec![Vec::new(); slots]),
        }
    }

    /// The variable schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying automatic-signal monitor (stats, configuration).
    pub fn monitor(&self) -> &Monitor<Env> {
        &self.monitor
    }

    /// A snapshot of the monitor's instrumentation.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.monitor.stats_snapshot()
    }

    /// Compiles `source` with the given local bindings into a predicate —
    /// parse results are cached per source string.
    ///
    /// # Errors
    ///
    /// Any [`DslError`] from lexing through lowering.
    pub fn compile(
        &self,
        source: &str,
        locals: &[(&str, i64)],
    ) -> Result<Predicate<Env>, DslError> {
        let ast = {
            let mut cache = self.templates.lock();
            match cache.get(source) {
                Some(ast) => Arc::clone(ast),
                None => {
                    let ast = Arc::new(parse(source)?);
                    cache.insert(source.to_owned(), Arc::clone(&ast));
                    ast
                }
            }
        };
        let bound: HashMap<String, i64> = locals
            .iter()
            .map(|(name, value)| ((*name).to_owned(), *value))
            .collect();
        lower(&ast, &self.schema, &bound, self)
    }

    /// Compiles an already parsed condition (the class interpreter's
    /// path — it holds ASTs, not source strings).
    ///
    /// # Errors
    ///
    /// Any [`DslError`] from checking or lowering.
    pub fn compile_ast(
        &self,
        ast: &crate::ast::Expr,
        locals: &HashMap<String, i64>,
    ) -> Result<Predicate<Env>, DslError> {
        lower(ast, &self.schema, locals, self)
    }

    /// Enters the monitor and runs `f` under mutual exclusion.
    pub fn enter<R>(&self, f: impl FnOnce(&mut DslGuard<'_, '_>) -> R) -> R {
        self.monitor.enter(|guard| {
            let mut g = DslGuard { owner: self, guard };
            f(&mut g)
        })
    }

    fn slot(&self, name: &str) -> usize {
        self.schema
            .slot(name)
            .unwrap_or_else(|| panic!("`{name}` is not a shared variable of this monitor"))
    }
}

impl SharedExprSink for DslMonitor {
    fn intern(
        &self,
        name: &str,
        f: Box<dyn Fn(&Env) -> i64 + Send + Sync>,
        reads: &[usize],
    ) -> ExprHandle<Env> {
        let handle = self
            .monitor
            .register_expr_or_get(name, move |env: &Env| f(env));
        let mut deps = self.slot_deps.write();
        for &slot in reads {
            if slot < deps.len() && !deps[slot].contains(&handle.id()) {
                deps[slot].push(handle.id());
            }
        }
        handle
    }
}

/// The in-monitor view for [`DslMonitor::enter`] closures.
pub struct DslGuard<'a, 'b> {
    owner: &'b DslMonitor,
    guard: &'b mut MonitorGuard<'a, Env>,
}

impl std::fmt::Debug for DslGuard<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DslGuard").finish_non_exhaustive()
    }
}

impl DslGuard<'_, '_> {
    /// Reads shared variable `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the schema.
    pub fn get(&self, name: &str) -> i64 {
        self.guard.state().get(self.owner.slot(name))
    }

    /// Writes shared variable `name`. The write **names** exactly the
    /// shared expressions reading this slot (recorded at lowering
    /// time), so the change-driven diff stays precise without any
    /// caller annotation.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the schema.
    pub fn set(&mut self, name: &str, value: i64) {
        let slot = self.owner.slot(name);
        self.set_slot(slot, value);
    }

    /// Adds `delta` to shared variable `name` and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the schema.
    pub fn add(&mut self, name: &str, delta: i64) -> i64 {
        let slot = self.owner.slot(name);
        let new = self.get_slot(slot).wrapping_add(delta);
        self.set_slot(slot, new);
        new
    }

    /// `waituntil(source)` with `locals` as the globalization snapshot.
    /// Keyed conditions compile through the monitor's interned
    /// condition table (one compiled `Cond` per distinct structural
    /// key, reused forever after); keyless ones fall back to a
    /// transient per-wait registration.
    ///
    /// # Errors
    ///
    /// Compilation errors are returned before any waiting happens.
    pub fn wait_until(&mut self, source: &str, locals: &[(&str, i64)]) -> Result<(), DslError> {
        let pred = self.owner.compile(source, locals)?;
        self.wait_until_compiled(pred);
        Ok(())
    }

    /// Resolves a lowered predicate to a cached compiled condition, or
    /// hands it back for a transient wait when it cannot (keyless
    /// closures) or should not (cache full) be pinned.
    ///
    /// The cap matters: compiled conditions are pinned for the
    /// monitor's lifetime, and DSL locals can be one-shot (ticket
    /// numbers). Bounding the cache keeps the compiled fast path for
    /// the first [`DslMonitor::COND_CACHE_CAP`] distinct condition
    /// shapes — every realistic repeating workload — while unbounded
    /// key streams degrade to the per-wait, LRU-evictable path instead
    /// of leaking persistent entries.
    fn resolve_cond(&mut self, pred: Predicate<Env>) -> Result<Cond<Env>, Predicate<Env>> {
        let Some(key) = pred.key().cloned() else {
            return Err(pred);
        };
        {
            let conds = self.owner.conds.lock();
            if let Some(cond) = conds.get(&key) {
                return Ok(cond.clone());
            }
            if conds.len() >= DslMonitor::COND_CACHE_CAP {
                return Err(pred);
            }
        }
        let cond = self.guard.compile(pred);
        self.owner.conds.lock().insert(key, cond.clone());
        Ok(cond)
    }

    /// `waituntil` on a pre-lowered predicate (the class interpreter's
    /// path): waits on the interned compiled condition, falling back to
    /// a transient registration for keyless predicates or once the
    /// compiled cache is full.
    pub fn wait_until_compiled(&mut self, pred: Predicate<Env>) {
        match self.resolve_cond(pred) {
            Ok(cond) => self.guard.wait(&cond),
            Err(pred) => self.guard.wait_transient(pred),
        }
    }

    /// Reads a shared variable by slot (class interpreter fast path).
    pub fn get_slot(&self, slot: usize) -> i64 {
        self.guard.state().get(slot)
    }

    /// Writes a shared variable by slot (class interpreter fast path),
    /// naming the expressions that read the slot.
    pub fn set_slot(&mut self, slot: usize, value: i64) {
        let deps = self.owner.slot_deps.read();
        let touched: &[ExprId] = deps.get(slot).map_or(&[], |v| v.as_slice());
        self.guard.state_mut_touching(touched).set(slot, value);
    }

    /// Runs `f` with the raw environment (read-only).
    pub fn with_env<R>(&self, f: impl FnOnce(&Env) -> R) -> R {
        f(self.guard.state())
    }

    /// Timed `waituntil`; `Ok(true)` when the condition held in time.
    ///
    /// # Errors
    ///
    /// Compilation errors are returned before any waiting happens.
    pub fn wait_until_timeout(
        &mut self,
        source: &str,
        locals: &[(&str, i64)],
        timeout: Duration,
    ) -> Result<bool, DslError> {
        let pred = self.owner.compile(source, locals)?;
        Ok(match self.resolve_cond(pred) {
            Ok(cond) => self.guard.wait_timeout(&cond, timeout),
            Err(pred) => self.guard.wait_transient_timeout(pred, timeout),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn set_get_add() {
        let m = DslMonitor::new(Schema::new(&["x"]));
        m.enter(|g| {
            g.set("x", 5);
            assert_eq!(g.get("x"), 5);
            assert_eq!(g.add("x", 3), 8);
        });
        assert_eq!(m.enter(|g| g.get("x")), 8);
    }

    #[test]
    fn wait_until_blocks_and_wakes() {
        let m = Arc::new(DslMonitor::new(Schema::new(&["count"])));
        let m2 = Arc::clone(&m);
        let consumer = thread::spawn(move || {
            m2.enter(|g| {
                g.wait_until("count >= num", &[("num", 3)]).unwrap();
                g.add("count", -3)
            })
        });
        thread::sleep(Duration::from_millis(20));
        for _ in 0..3 {
            m.enter(|g| {
                g.add("count", 1);
            });
        }
        assert_eq!(consumer.join().unwrap(), 0);
        let snap = m.stats_snapshot();
        assert_eq!(snap.counters.broadcasts, 0);
        assert!(snap.counters.signals >= 1);
    }

    #[test]
    fn compile_errors_are_reported_not_panicked() {
        let m = DslMonitor::new(Schema::new(&["count"]));
        let err = m.enter(|g| g.wait_until("count >= ", &[]).unwrap_err());
        assert!(matches!(err, DslError::UnexpectedToken { .. }));
        let err = m.enter(|g| g.wait_until("count >= zzz", &[]).unwrap_err());
        assert!(matches!(err, DslError::UnknownVariable { .. }));
    }

    #[test]
    fn timeout_variant() {
        let m = DslMonitor::new(Schema::new(&["count"]));
        let ok = m
            .enter(|g| g.wait_until_timeout("count >= 1", &[], Duration::from_millis(30)))
            .unwrap();
        assert!(!ok);
        m.enter(|g| g.set("count", 1));
        let ok = m
            .enter(|g| g.wait_until_timeout("count >= 1", &[], Duration::from_millis(30)))
            .unwrap();
        assert!(ok);
    }

    #[test]
    fn cond_cache_is_capped_so_one_shot_keys_cannot_pin_unboundedly() {
        // Ticket-style conditions (a fresh globalized key per wait)
        // must not grow the pinned compiled-condition table without
        // bound: beyond the cap, waits fall back to the transient,
        // LRU-evictable path and still work.
        let m = DslMonitor::new(Schema::new(&["count"]));
        m.enter(|g| g.set("count", 1_000_000));
        let overshoot = DslMonitor::COND_CACHE_CAP + 50;
        for ticket in 0..overshoot as i64 {
            // Always true, so nothing blocks; resolution still runs.
            m.enter(|g| g.wait_until("count >= t", &[("t", ticket)]).unwrap());
        }
        assert_eq!(m.conds.lock().len(), DslMonitor::COND_CACHE_CAP);
        let counts = m.monitor().counts();
        assert_eq!(counts.compiled, DslMonitor::COND_CACHE_CAP);
        // Waits beyond the cap still behave (transient path).
        m.enter(|g| g.wait_until("count >= t", &[("t", 5)]).unwrap());
    }

    #[test]
    fn template_cache_parses_once() {
        let m = DslMonitor::new(Schema::new(&["count"]));
        m.enter(|g| g.set("count", 10));
        for n in 0..5 {
            m.enter(|g| g.wait_until("count >= num", &[("num", n)]).unwrap());
        }
        assert_eq!(m.templates.lock().len(), 1);
    }

    #[test]
    fn distinct_locals_create_distinct_predicates_one_expr() {
        let m = DslMonitor::new(Schema::new(&["count"]));
        m.enter(|g| g.set("count", 100));
        m.enter(|g| g.wait_until("count >= num", &[("num", 1)]).unwrap());
        m.enter(|g| g.wait_until("count >= num", &[("num", 2)]).unwrap());
        // One interned shared expression ("count"), two predicates.
        let counts = m.monitor().counts();
        assert!(counts.entries <= 2, "entries = {}", counts.entries);
        assert_eq!(counts.compiled, 2, "one compiled cond per distinct key");
    }

    #[test]
    #[should_panic(expected = "not a shared variable")]
    fn unknown_get_panics() {
        let m = DslMonitor::new(Schema::new(&["x"]));
        m.enter(|g| g.get("y"));
    }

    #[test]
    fn concurrent_producers_consumers_dsl_end_to_end() {
        let m = Arc::new(DslMonitor::new(Schema::new(&["count", "cap"])));
        m.enter(|g| g.set("cap", 4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let producer = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                let m = producer;
                for _ in 0..50 {
                    m.enter(|g| {
                        g.wait_until("count < cap", &[]).unwrap();
                        g.add("count", 1);
                    });
                }
            }));
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    m.enter(|g| {
                        g.wait_until("count > 0", &[]).unwrap();
                        g.add("count", -1);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.enter(|g| g.get("count")), 0);
    }
}
