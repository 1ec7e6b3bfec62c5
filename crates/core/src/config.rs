//! Monitor configuration: signaling mode, instrumentation, ablations.

/// Which automatic-signaling strategy the condition manager uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalMode {
    /// Full AutoSynch: predicate tags prune the search for a signalable
    /// thread (§4.3).
    Tagged,
    /// AutoSynch-T from the evaluation (§6.2): relay signaling without
    /// tags — every active predicate is evaluated in turn.
    Untagged,
    /// Change-driven AutoSynch (`autosynch_cd`, an extension beyond the
    /// paper): predicate tags *plus* expression versioning. The manager
    /// keeps a snapshot of every live shared-expression value, diffs it
    /// against fresh evaluations when the state was mutated, and probes
    /// only conjunctions whose dependency sets intersect the changed
    /// set; relays on unmutated state with no leftover-true waiters are
    /// skipped outright. Each expression is evaluated at most once per
    /// *occupancy* instead of once per relay.
    ChangeDriven,
    /// Routed-wake AutoSynch (an extension beyond the paper): the
    /// predicate work leaves the signaler's critical path. Waiters park
    /// themselves on per-gate wait queues (one gate per dependency
    /// shard, cross-shard/opaque conditions on a global gate) that are
    /// **bucketed by compiled-`Cond` slot**; a signaler's exit diffs the
    /// expression snapshot, publishes the new epoch into the lock-free
    /// ring and announces *slot-targeted* wakes. Unparked waiters
    /// re-check their own predicate against the ring snapshot **without
    /// any lock** and re-park when it is still false; only a maybe-true
    /// verdict takes the monitor lock to confirm-and-claim (the
    /// monitor-lock confirm is also the fallback for opaque conditions
    /// the snapshot cannot decide). Three mechanisms, in escalating
    /// precision: (1) a wake names slot buckets, not gates; (2) each
    /// bucket wake is a **token sweep** — only the bucket head is
    /// unparked, a waiter whose snapshot self-check comes back false
    /// forwards the token to the next unobserved waiter, and a claimer
    /// re-injects the baton at monitor exit (the paper's `signaled`
    /// rule, executed waiter-side); (3) for equivalence-shaped compiled
    /// conditions (`turn == id`) the relay maps the freshly published
    /// value through an eq-route index straight to the single slot
    /// whose waiters can have flipped — one unpark instead of a wake
    /// herd. Transient (uncompiled) waiters fall back to a per-gate
    /// broadcast bucket, and cross-shard/opaque conditions to the
    /// global gate's broadcast bucket.
    Routed,
}

/// Which data structure backs the threshold-tag index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdIndexKind {
    /// The paper's heaps with the Fig. 4 peek/poll/backup/reinsert search.
    PaperHeap,
    /// An ordered map walked from the weakest key — an ablation showing
    /// the algorithmic content of Fig. 4 is ordered traversal, not the
    /// heap itself.
    OrderedMap,
}

/// Configuration for [`crate::monitor::Monitor`].
///
/// The defaults reproduce the paper's AutoSynch; the other knobs exist for
/// the AutoSynch-T comparison and the ablation benchmarks.
///
/// # Examples
///
/// ```
/// use autosynch::config::{MonitorConfig, SignalMode};
///
/// let autosynch_t = MonitorConfig::new().mode(SignalMode::Untagged);
/// assert_eq!(autosynch_t.signal_mode(), SignalMode::Untagged);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    mode: SignalMode,
    timing: bool,
    inactive_cap: usize,
    threshold_index: ThresholdIndexKind,
    validate_relay: bool,
    shards: usize,
    transient_bucket_cap: usize,
    sweep_cursors: bool,
    fast_path: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            mode: SignalMode::Tagged,
            timing: false,
            inactive_cap: 64,
            threshold_index: ThresholdIndexKind::PaperHeap,
            validate_relay: false,
            shards: 8,
            transient_bucket_cap: 16,
            sweep_cursors: true,
            fast_path: true,
        }
    }
}

impl MonitorConfig {
    /// The paper-default configuration (tagged, heap index, inactive
    /// list capped at 64).
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical constructor: the paper-default configuration with
    /// the given signaling mode. Every knob besides the mode keeps its
    /// paper default, so `preset(a)` vs `preset(b)` comparisons isolate
    /// the signaling machinery. (The retired v1 per-mode constructors
    /// were all shorthands for this one entry point.)
    ///
    /// ```
    /// use autosynch::config::{MonitorConfig, SignalMode};
    ///
    /// let routed = MonitorConfig::preset(SignalMode::Routed).shards(4);
    /// assert_eq!(routed.signal_mode(), SignalMode::Routed);
    /// ```
    pub fn preset(mode: SignalMode) -> Self {
        Self::new().mode(mode)
    }

    /// Sets the signaling mode.
    pub fn mode(mut self, mode: SignalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables per-phase timing (Table 1). Off by default so runtime
    /// figures are not distorted by clock reads.
    pub fn timing(mut self, on: bool) -> Self {
        self.timing = on;
        self
    }

    /// Caps the inactive-predicate LRU (§5.2: "when the length of the
    /// inactive list exceeds some predefined threshold, we remove the
    /// oldest predicates").
    pub fn inactive_cap(mut self, cap: usize) -> Self {
        self.inactive_cap = cap;
        self
    }

    /// Selects the threshold-index implementation.
    pub fn threshold_index(mut self, kind: ThresholdIndexKind) -> Self {
        self.threshold_index = kind;
        self
    }

    /// How many data gates the routed mode partitions the expression
    /// space into (the global gate for cross-shard and opaque conditions
    /// is extra). Ignored by the other modes.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero (the router needs at least one
    /// partition).
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "shard count must be at least 1");
        self.shards = n;
        self
    }

    /// Caps the per-gate LRU of graduated transient buckets (routed
    /// mode). A repeating-but-uncompiled `wait_transient` predicate
    /// graduates off the gate's broadcast bucket into a per-predicate
    /// bucket with the full token-sweep discipline, up to this many
    /// buckets per gate; beyond the cap (and with every cached bucket
    /// occupied), new transient predicates fall back to the broadcast
    /// bucket — they herd-wake but can never strand. `0` disables
    /// graduation entirely, restoring the PR 5 broadcast-only
    /// behaviour. Ignored by the other modes.
    pub fn transient_bucket_cap(mut self, cap: usize) -> Self {
        self.transient_bucket_cap = cap;
        self
    }

    /// Whether routed-mode token sweeps keep a per-bucket cursor so a
    /// forward resumes from the last unobserved position instead of
    /// rescanning the bucket's FIFO head (a full sweep drops from
    /// O(bucket²) worst case to O(bucket) total). `false` is the
    /// head-scan ablation, kept for the cursor-vs-head-scan
    /// equivalence tests. Ignored by the other modes.
    pub fn sweep_cursors(mut self, on: bool) -> Self {
        self.sweep_cursors = on;
        self
    }

    /// Whether the uncontended enter/exit fast path is armed: a packed
    /// monitor word checked before the mutex lets a quiescent monitor
    /// (no occupant, no waiter, nobody mid-entry) be entered by one CAS
    /// and exited by one atomic AND, and lets contended enterers hand
    /// their whole occupancy to the current lock holder through the
    /// flat-combining slab instead of queueing on the mutex. `false` is
    /// the mutex-only ablation (`AUTOSYNCH_NO_FAST_PATH=1` in the
    /// reproduce harness); the relay machinery is unaffected either way
    /// because the fast lane is only taken when no relay can be owed.
    pub fn fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// The configured signaling mode.
    pub fn signal_mode(&self) -> SignalMode {
        self.mode
    }

    /// The configured data-gate count (routed mode only).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Whether per-phase timing is enabled.
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// The inactive-list capacity.
    pub fn inactive_capacity(&self) -> usize {
        self.inactive_cap
    }

    /// The configured threshold-index kind.
    pub fn threshold_index_kind(&self) -> ThresholdIndexKind {
        self.threshold_index
    }

    /// Enables the relay-invariance validator (Def. 4 / Prop. 2): after
    /// every relay call the manager exhaustively re-evaluates every
    /// waiting predicate against the live state and panics if one is
    /// true while no thread is signaled — i.e., if the tag indexes ever
    /// miss a signalable thread. This is a ground-truth differential
    /// check of the whole §4.3 machinery (hash probe, threshold heaps,
    /// `None` scan); it makes every relay O(waiting predicates), so it
    /// is for tests only.
    pub fn validate_relay(mut self, on: bool) -> Self {
        self.validate_relay = on;
        self
    }

    /// Whether the relay-invariance validator is enabled.
    pub fn validates_relay(&self) -> bool {
        self.validate_relay
    }

    /// The per-gate graduated-transient-bucket capacity (routed mode).
    pub fn transient_bucket_capacity(&self) -> usize {
        self.transient_bucket_cap
    }

    /// Whether routed-mode token sweeps use per-bucket cursors.
    pub fn sweep_cursors_enabled(&self) -> bool {
        self.sweep_cursors
    }

    /// Whether the uncontended enter/exit fast path is armed.
    pub fn fast_path_enabled(&self) -> bool {
        self.fast_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = MonitorConfig::default();
        assert_eq!(c.signal_mode(), SignalMode::Tagged);
        assert!(!c.timing_enabled());
        assert_eq!(c.inactive_capacity(), 64);
        assert_eq!(c.threshold_index_kind(), ThresholdIndexKind::PaperHeap);
        assert_eq!(c.transient_bucket_capacity(), 16);
        assert!(c.sweep_cursors_enabled());
        assert!(c.fast_path_enabled());
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = MonitorConfig::new()
            .mode(SignalMode::Untagged)
            .timing(true)
            .inactive_cap(8)
            .threshold_index(ThresholdIndexKind::OrderedMap)
            .validate_relay(true)
            .transient_bucket_cap(3)
            .sweep_cursors(false)
            .fast_path(false);
        assert_eq!(c.signal_mode(), SignalMode::Untagged);
        assert!(c.timing_enabled());
        assert_eq!(c.inactive_capacity(), 8);
        assert_eq!(c.threshold_index_kind(), ThresholdIndexKind::OrderedMap);
        assert!(c.validates_relay());
        assert_eq!(c.transient_bucket_capacity(), 3);
        assert!(!c.sweep_cursors_enabled());
        assert!(!c.fast_path_enabled());
    }

    #[test]
    fn validation_is_off_by_default() {
        assert!(!MonitorConfig::default().validates_relay());
    }

    #[test]
    fn preset_sets_only_the_mode() {
        for mode in [
            SignalMode::Tagged,
            SignalMode::Untagged,
            SignalMode::ChangeDriven,
            SignalMode::Routed,
        ] {
            let c = MonitorConfig::preset(mode);
            assert_eq!(c.signal_mode(), mode);
            assert_eq!(c.inactive_capacity(), 64);
            assert_eq!(c.shard_count(), 8);
            assert_eq!(c.transient_bucket_capacity(), 16);
            assert!(c.sweep_cursors_enabled());
            assert!(c.fast_path_enabled());
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shards_panics() {
        let _ = MonitorConfig::new().shards(0);
    }
}
