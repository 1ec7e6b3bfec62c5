//! Chrome-trace-event export for the flight recorder.
//!
//! Serializes [`TraceEvent`]s drained from the monitor runtime's
//! telemetry rings into the Chrome trace-event JSON object format, the
//! lingua franca of timeline viewers: the output loads directly into
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping:
//!
//! * each raw event becomes an **instant** event (`"ph": "i"`, thread
//!   scope) named after its [`EventKind`](autosynch::EventKind);
//! * the monitor token becomes the `pid`, so multi-monitor traces
//!   group by monitor;
//! * the recorder's stable thread id becomes the `tid`;
//! * the nanosecond timestamp becomes fractional microseconds (the
//!   trace format's unit), preserving full resolution;
//! * the kind-specific operands ride along as `args.a` / `args.b`.

use autosynch::TraceEvent;

/// Integer nanoseconds as the trace format's fractional microseconds.
/// Splitting by hand: formatting `t_ns as f64 / 1000.0` would round
/// once past 2^53 ns, this never does.
fn us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

fn instant(e: &TraceEvent) -> String {
    format!(
        "    {{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
         \"ts\": {}, \"pid\": {}, \"tid\": {}, \
         \"args\": {{\"a\": {}, \"b\": {}}}}}",
        e.kind.name(),
        us(e.t_ns),
        e.monitor,
        e.thread,
        e.a,
        e.b,
    )
}

/// Renders `events` as a Chrome trace-event JSON document.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let lines: Vec<String> = events.iter().map(instant).collect();
    format!(
        "{{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    )
}

/// Writes `events` to `path` as a Chrome trace-event JSON file.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_chrome_trace(path: &str, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosynch::EventKind;

    fn event(t_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t_ns,
            monitor: 3,
            thread: 9,
            kind,
            a: 1,
            b: 2,
        }
    }

    #[test]
    fn empty_trace_is_a_valid_document() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\": [\n\n  ]"));
        assert!(json.contains("\"displayTimeUnit\": \"ns\""));
    }

    #[test]
    fn events_carry_names_ids_and_fractional_microseconds() {
        let json = chrome_trace_json(&[
            event(1_234_567, EventKind::EnterElided),
            event(1_234_568, EventKind::RelayPass),
        ]);
        assert!(json.contains("\"name\": \"enter_elided\""));
        assert!(json.contains("\"name\": \"relay_pass\""));
        // 1_234_567 ns = 1234.567 us, at full resolution.
        assert!(json.contains("\"ts\": 1234.567"));
        assert!(json.contains("\"ts\": 1234.568"));
        assert!(json.contains("\"pid\": 3"));
        assert!(json.contains("\"tid\": 9"));
        assert!(json.contains("\"args\": {\"a\": 1, \"b\": 2}"));
        assert_eq!(json.matches("\"ph\": \"i\"").count(), 2);
    }

    #[test]
    fn async_waiter_kinds_serialize_by_name() {
        // PR 9's two kinds: poll-side self-check verdicts and
        // waker-slot wake deliveries must land in traces like any
        // thread-side event.
        let json = chrome_trace_json(&[
            event(10, EventKind::AsyncPoll),
            event(20, EventKind::WakerWake),
        ]);
        assert!(json.contains("\"name\": \"async_poll\""));
        assert!(json.contains("\"name\": \"waker_wake\""));
    }

    #[test]
    fn sub_microsecond_timestamps_keep_leading_zeros() {
        let json = chrome_trace_json(&[event(42, EventKind::Park)]);
        assert!(json.contains("\"ts\": 0.042"), "42ns is 0.042us: {json}");
    }
}
