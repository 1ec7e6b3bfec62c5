//! Every workload at 1/200 size through the real binary, untraced and
//! traced: the printed names are `BENCHMARK.json`'s, and the trace file
//! loads and tiles.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use autosynch_benchmark::json::Json;
use autosynch_benchmark::spec;
use autosynch_benchmark::trace::SEGMENTS;

const BINARY: &str = env!("CARGO_BIN_EXE_autosynch-benchmark");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `section`, in file order.
fn declared(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    let metrics = benchmark
        .get(section)
        .and_then(Json::as_arr)
        .expect(section);
    metrics
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns the last line of its output, parsed.
fn run(workload: &str, trace: &[&str], out_dir: &Path) -> Json {
    let seconds = spec::RUN_SECONDS as f64 / 200.0;
    let output = Command::new(BINARY)
        .args(["run", "--workload", workload, "--seed", "5"])
        .args(["--seconds", &seconds.to_string()])
        .args(trace)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} {trace:?} exited {}: {stderr}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stderr}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    result
}

/// `(name, unit)` of every metric the run printed, in print order.
fn printed(result: &Json) -> Vec<(String, String)> {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?}"
            );
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_owned(),
            )
        })
        .collect()
}

fn nanos(micros: &Json) -> i64 {
    (micros.as_f64().expect("a number") * 1e3).round() as i64
}

/// Every `op` span of the trace file is tiled by its four children.
fn assert_trace_tiles(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let trace = Json::parse(&text).expect("the trace file is JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    /// `(name, start ns, duration ns)`.
    type Span = (String, i64, i64);
    // (pid, tid, span id) → the op span and its children.
    let mut spans: HashMap<(i64, i64, String), Vec<Span>> = HashMap::new();
    for e in events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
    {
        let number = |key| e.get(key).and_then(Json::as_f64).expect(key) as i64;
        let id = e
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_str)
            .expect("span id");
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_owned();
        let span = (
            name,
            nanos(e.get("ts").expect("ts")),
            nanos(e.get("dur").expect("dur")),
        );
        spans
            .entry((number("pid"), number("tid"), id.to_owned()))
            .or_default()
            .push(span);
    }
    assert!(!spans.is_empty(), "{} holds no spans", path.display());
    for (key, spans) in &spans {
        let find = |name: &str| {
            let mut hits = spans.iter().filter(|(n, _, _)| n == name);
            let hit = hits
                .next()
                .unwrap_or_else(|| panic!("{key:?} has no {name} span"));
            assert!(hits.next().is_none(), "{key:?} has two {name} spans");
            (hit.1, hit.2)
        };
        let (op_start, op_ns) = find("op");
        let mut at = op_start;
        for segment in SEGMENTS {
            let (start, ns) = find(segment);
            assert_eq!(
                start, at,
                "{key:?}: {segment} does not start where the last span ended"
            );
            at += ns;
        }
        assert_eq!(
            at - op_start,
            op_ns,
            "{key:?}: the four segments do not sum to the op"
        );
    }
}

#[test]
fn benchmark_json_is_the_spec_printed() {
    assert_eq!(
        benchmark_json(),
        spec::benchmark_json(),
        "regenerate with `benchmark spec > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let benchmark = benchmark_json();
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 5);
    for workload in workloads {
        let name = workload.get("name").and_then(Json::as_str).expect("name");
        assert_eq!(
            printed(&run(name, &["--trace", "0"], &out_dir)),
            end_to_end,
            "{name}"
        );
        let trace_file = out_dir.join(format!("TRACE_{name}.json"));
        let _ = std::fs::remove_file(&trace_file);
        assert_eq!(
            printed(&run(name, &["--trace"], &out_dir)),
            per_layer,
            "{name} traced"
        );
        assert_trace_tiles(&trace_file);
    }
}
