//! The benchmark's own spans, taken from outside the program.
//!
//! Every op is five clock reads around one public call:
//!
//! ```text
//! call ──acquire── closure entry ──wait── wait returned ──body── body end ──release── call returned
//! ```
//!
//! The four segments share their end points, so they tile the `op` span
//! to the nanosecond. The workload state carries a [`Stamp`] written by
//! the last mutator at its body end; a waiter that blocked reads it when
//! its wait returns, which names the op that woke it and gives the wake
//! latency (causing body end → waiter running again).
//!
//! Ops are generic over [`Tracer`]: with [`Off`] every clock read and
//! record compiles to nothing, so the untraced run executes the same op
//! code with no instrumentation left in it.

use std::io::Write;

use crate::json::Json;
use crate::stats;
use crate::sys::now_ns;

/// Who last changed the workload state, and when its body ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stamp {
    pub tid: u16,
    pub seq: u32,
    /// [`now_ns`] at the mutator's body end; 0 for "nobody yet".
    pub at: u64,
}

/// What an op's closure hands back to its caller: the three inner
/// boundaries and what the waiter saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Marks {
    pub entered: u64,
    pub waited: u64,
    pub body_end: u64,
    /// The op's own condition was false when it called `wait`.
    pub blocked: bool,
    /// The state's stamp when `wait` returned.
    pub cause: Stamp,
}

/// One traced op. `t` holds the five boundaries in order.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub tid: u16,
    pub kind: &'static str,
    pub seq: u32,
    pub t: [u64; 5],
    pub blocked: bool,
    pub cause: Stamp,
}

pub const SEGMENTS: [&str; 4] = ["acquire", "wait", "body", "release"];

impl OpRecord {
    pub fn segment_ns(&self, i: usize) -> u64 {
        self.t[i + 1] - self.t[i]
    }

    /// Causing body end → this waiter running again; `None` unless the
    /// op blocked and somebody had stamped the state.
    pub fn wake_latency_ns(&self) -> Option<u64> {
        (self.blocked && self.cause.at != 0).then(|| self.t[2].saturating_sub(self.cause.at))
    }
}

/// `Sync` because an op's closure may cross to a combining thread.
pub trait Tracer: Sync {
    const ON: bool;
    fn now(&self) -> u64;
    /// Reads the clock for the op's end and files the record.
    fn finish(&mut self, kind: &'static str, seq: u64, called: u64, marks: Marks);

    /// The stamp a mutator leaves at its body end (nothing when off).
    fn stamp(&self, seq: u64, body_end: u64) -> Option<Stamp>;
}

/// The untraced run: no clock reads, no records, no stamps.
#[derive(Debug, Clone, Copy)]
pub struct Off;

impl Tracer for Off {
    const ON: bool = false;

    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn finish(&mut self, _: &'static str, _: u64, _: u64, _: Marks) {}

    #[inline(always)]
    fn stamp(&self, _: u64, _: u64) -> Option<Stamp> {
        None
    }
}

/// One thread's spans, kept in memory until the cell ends.
#[derive(Debug)]
pub struct ThreadTrace {
    tid: u16,
    /// Trace one op in this many (ops under a microsecond would
    /// otherwise be mostly clock reads).
    pub every: u64,
    pub records: Vec<OpRecord>,
}

impl ThreadTrace {
    pub fn new(tid: usize, ops: u64, every: u64) -> Self {
        ThreadTrace {
            tid: tid as u16,
            every,
            // Sized up front: no reallocation inside the timed section.
            records: Vec::with_capacity((ops / every + 1) as usize),
        }
    }
}

impl Tracer for ThreadTrace {
    const ON: bool = true;

    #[inline(always)]
    fn now(&self) -> u64 {
        now_ns()
    }

    #[inline]
    fn finish(&mut self, kind: &'static str, seq: u64, called: u64, m: Marks) {
        let returned = now_ns();
        self.records.push(OpRecord {
            tid: self.tid,
            kind,
            seq: seq as u32,
            t: [called, m.entered, m.waited, m.body_end, returned],
            blocked: m.blocked,
            cause: m.cause,
        });
    }

    #[inline(always)]
    fn stamp(&self, seq: u64, body_end: u64) -> Option<Stamp> {
        Some(Stamp {
            tid: self.tid,
            seq: seq as u32,
            at: body_end,
        })
    }
}

/// Per-op means of one traced cell, and its wake-latency distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    pub ops: u64,
    /// Mean nanoseconds per op in [`SEGMENTS`] order; their sum is the
    /// mean op span.
    pub segment_ns: [f64; 4],
    pub blocked_share: f64,
    pub wakes: u64,
    pub wake_p50_us: f64,
    pub wake_p99_us: f64,
}

impl Ledger {
    pub fn of(records: &[OpRecord]) -> Ledger {
        if records.is_empty() {
            return Ledger::default();
        }
        let n = records.len() as f64;
        let mut segment_ns = [0.0; 4];
        for (i, total) in segment_ns.iter_mut().enumerate() {
            *total = records.iter().map(|r| r.segment_ns(i)).sum::<u64>() as f64 / n;
        }
        let wakes: Vec<f64> = records
            .iter()
            .filter_map(|r| r.wake_latency_ns())
            .map(|ns| ns as f64 / 1e3)
            .collect();
        Ledger {
            ops: records.len() as u64,
            segment_ns,
            blocked_share: records.iter().filter(|r| r.blocked).count() as f64 / n,
            wakes: wakes.len() as u64,
            wake_p50_us: stats::percentile(&wakes, 50.0),
            wake_p99_us: stats::percentile(&wakes, 99.0),
        }
    }
}

/// Ops kept per cell for the file: the earliest ones. The ledger is
/// computed over every record; the file is a window a viewer can still
/// load.
pub const FILE_OPS_PER_CELL: usize = 2048;

fn micros(ns: u64) -> Json {
    // Three decimals of a microsecond are whole nanoseconds.
    Json::Num(ns as f64 / 1e3)
}

/// Chrome trace events (`chrome://tracing`, Perfetto) for one cell: a
/// process named `label`, one `op` span per record and its four
/// children.
pub fn chrome_events(label: &str, pid: usize, records: &[OpRecord]) -> Vec<Json> {
    let pid = Json::Num(pid as f64);
    let mut events = vec![Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", pid.clone()),
        ("args", Json::obj([("name", Json::Str(label.into()))])),
    ])];
    for r in records {
        let id = format!("t{}.s{}", r.tid, r.seq);
        let mut args = vec![
            ("id", Json::Str(id.clone())),
            ("kind", Json::Str(r.kind.into())),
            ("blocked", Json::Bool(r.blocked)),
        ];
        if let Some(ns) = r.wake_latency_ns() {
            let cause = format!("t{}.s{}", r.cause.tid, r.cause.seq);
            args.push(("caused_by", Json::Str(cause)));
            args.push(("wake_latency_us", micros(ns)));
        }
        let span = |name: &str, from: u64, to: u64, args: Json| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("cat", Json::Str(label.into())),
                ("ph", Json::Str("X".into())),
                ("pid", pid.clone()),
                ("tid", Json::Num(r.tid as f64)),
                ("ts", micros(from)),
                ("dur", micros(to - from)),
                ("args", args),
            ])
        };
        events.push(span("op", r.t[0], r.t[4], Json::obj(args)));
        for (i, name) in SEGMENTS.iter().enumerate() {
            let args = Json::obj([("id", Json::Str(id.clone()))]);
            events.push(span(name, r.t[i], r.t[i + 1], args));
        }
    }
    events
}

/// Writes `events` as one Chrome trace file.
///
/// # Errors
///
/// Any I/O error from creating or writing `path`.
pub fn write_chrome_trace(path: &std::path::Path, events: &[Json]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\": [")?;
    for (i, event) in events.iter().enumerate() {
        write!(out, "{}\n{event}", if i == 0 { "" } else { "," })?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: [u64; 5], blocked: bool, cause_at: u64) -> OpRecord {
        OpRecord {
            tid: 1,
            kind: "pass",
            seq: 7,
            t,
            blocked,
            cause: Stamp {
                tid: 0,
                seq: 6,
                at: cause_at,
            },
        }
    }

    #[test]
    fn segments_tile_the_op_and_wakes_need_a_block_and_a_stamp() {
        let r = record([10, 14, 50, 53, 60], true, 30);
        assert_eq!((0..4).map(|i| r.segment_ns(i)).sum::<u64>(), 50);
        assert_eq!(r.wake_latency_ns(), Some(20));
        assert_eq!(
            record([10, 14, 50, 53, 60], false, 30).wake_latency_ns(),
            None
        );
        assert_eq!(
            record([10, 14, 50, 53, 60], true, 0).wake_latency_ns(),
            None
        );
    }

    #[test]
    fn ledger_means_sum_to_the_mean_op() {
        let l = Ledger::of(&[
            record([0, 1, 3, 6, 10], true, 1),
            record([10, 13, 13, 14, 20], false, 0),
        ]);
        assert_eq!(l.ops, 2);
        assert_eq!(l.segment_ns, [2.0, 1.0, 2.0, 5.0]);
        assert_eq!(l.segment_ns.iter().sum::<f64>(), 10.0);
        assert_eq!(l.blocked_share, 0.5);
        assert_eq!(l.wakes, 1);
        assert_eq!(l.wake_p50_us, 0.002);
    }
}
