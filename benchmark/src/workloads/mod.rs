//! The five workloads, each written three times against the public
//! surface only: on [`autosynch::Monitor`] (one implementation for the
//! three automatic mechanisms, which differ in their
//! [`MonitorConfig`] alone), on [`autosynch::ExplicitMonitor`] with
//! hand-placed signals, and on bare `std::sync::{Mutex, Condvar}` as the
//! floor below the program.

pub mod bystanders;
pub mod mix;
pub mod pbb;
pub mod ring;

use autosynch::{MonitorConfig, SignalMode};

use crate::harness::{Built, Phase};
use crate::sys::Cpus;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ring,
    Pbb,
    Bystanders,
    Contend2,
    Quiet,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Ring,
        Workload::Pbb,
        Workload::Bystanders,
        Workload::Contend2,
        Workload::Quiet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ring => "ring",
            Workload::Pbb => "pbb",
            Workload::Bystanders => "bystanders",
            Workload::Contend2 => "contend2",
            Workload::Quiet => "quiet",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a cell runs the workload on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    Explicit,
    Tagged,
    Cd,
    Route,
    /// `std` mutex and condvars, no instrumentation (traced run only).
    Bare,
    /// `Tagged` with the flight recorder on (traced run only).
    TaggedRecorder,
    /// `Tagged` with `MonitorConfig::timing(true)` (traced run only).
    TaggedTiming,
}

/// The four mechanisms every workload compares, yardstick first.
pub const MECHANISMS: [CellKind; 4] = [
    CellKind::Explicit,
    CellKind::Tagged,
    CellKind::Cd,
    CellKind::Route,
];

impl CellKind {
    pub const ALL: [CellKind; 7] = [
        CellKind::Explicit,
        CellKind::Tagged,
        CellKind::Cd,
        CellKind::Route,
        CellKind::Bare,
        CellKind::TaggedRecorder,
        CellKind::TaggedTiming,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CellKind::Explicit => "explicit",
            CellKind::Tagged => "tagged",
            CellKind::Cd => "cd",
            CellKind::Route => "route",
            CellKind::Bare => "bare",
            CellKind::TaggedRecorder => "tagged+recorder",
            CellKind::TaggedTiming => "tagged+timing",
        }
    }

    /// The monitor configuration of an automatic mechanism.
    fn config(self) -> Option<MonitorConfig> {
        match self {
            CellKind::Explicit | CellKind::Bare => None,
            CellKind::Tagged | CellKind::TaggedRecorder => Some(MonitorConfig::default()),
            CellKind::TaggedTiming => Some(MonitorConfig::default().timing(true)),
            CellKind::Cd => Some(MonitorConfig::preset(SignalMode::ChangeDriven)),
            CellKind::Route => Some(MonitorConfig::preset(SignalMode::Routed)),
        }
    }

    /// The column of [`reference_ops_per_s`] this cell is sized by.
    fn sizing_column(self) -> usize {
        match self {
            CellKind::Explicit => 0,
            CellKind::Tagged | CellKind::TaggedRecorder | CellKind::TaggedTiming => 1,
            CellKind::Cd => 2,
            CellKind::Route => 3,
            CellKind::Bare => 4,
        }
    }
}

/// Cells in an untraced run: [`ROUNDS`] rounds of the four mechanisms.
pub const ROUNDS: usize = 15;
pub const CELLS_PER_RUN: u64 = (ROUNDS * MECHANISMS.len()) as u64;

/// Ops per second each cell reached on the reference box (2 vCPU Xeon
/// 2.6 GHz, see README), rounded. They size the cells and nothing else:
/// a cell attempts `rate × seconds / CELLS_PER_RUN` ops, so that a run
/// measures for about `--seconds` there. They are constants of the
/// benchmark, the same on every commit — a faster program finishes its
/// cells sooner, it is not given more ops. Columns: explicit, tagged,
/// cd, route, bare.
fn reference_ops_per_s(workload: Workload) -> [u64; 5] {
    match workload {
        Workload::Ring => [600_000, 425_000, 430_000, 345_000, 630_000],
        Workload::Pbb => [90_000, 405_000, 420_000, 46_000, 90_000],
        Workload::Bystanders => [29_000_000, 2_000_000, 2_100_000, 270_000, 58_000_000],
        Workload::Contend2 => [2_950_000, 2_680_000, 2_620_000, 2_650_000, 3_280_000],
        Workload::Quiet => [30_000_000, 19_000_000, 19_000_000, 19_000_000, 60_000_000],
    }
}

/// Ops the timed phase of one cell attempts for a run of `seconds`.
pub fn cell_ops(workload: Workload, kind: CellKind, seconds: f64) -> u64 {
    let rate = reference_ops_per_s(workload)[kind.sizing_column()];
    (rate as f64 * seconds / CELLS_PER_RUN as f64) as u64
}

/// Ops of the untimed warm-up before a timed phase of `timed` ops: 2 %.
pub fn warmup_ops(timed: u64) -> u64 {
    timed / 50
}

/// Builds `workload` on `kind`, sized for `ops` timed ops.
pub fn build(workload: Workload, kind: CellKind, ops: u64, seed: u64, cpus: Cpus) -> Built {
    let config = kind.config();
    match workload {
        Workload::Ring => ring::build(kind, config, ops, seed),
        Workload::Pbb => pbb::build(kind, config, ops, seed),
        Workload::Bystanders => bystanders::build(kind, config, ops, seed, cpus),
        Workload::Contend2 => mix::build(kind, config, ops, seed, 2),
        Workload::Quiet => mix::build(kind, config, ops, seed, 1),
    }
}

/// A per-phase pair, indexed by [`Phase`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PerPhase<T>(pub [T; 2]);

impl<T> PerPhase<T> {
    pub fn get(&self, phase: Phase) -> &T {
        &self.0[phase as usize]
    }
}

/// splitmix64: the workload inputs are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these `n` is below 2⁻⁵⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nanoseconds `f` took, with its result.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = crate::sys::now_ns();
    let r = f();
    (r, crate::sys::now_ns() - start)
}
