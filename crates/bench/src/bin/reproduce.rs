//! Regenerates every figure and table of the AutoSynch paper as text
//! series.
//!
//! ```text
//! cargo run --release -p autosynch-bench --bin reproduce -- all
//! cargo run --release -p autosynch-bench --bin reproduce -- fig14 fig15
//! AUTOSYNCH_FULL=1 cargo run --release -p autosynch-bench --bin reproduce -- all
//! ```
//!
//! Cells are runtime seconds unless the figure says otherwise. The
//! paper's absolute numbers came from a 16-socket Xeon with multi-second
//! runs; the comparison target here is each curve's *shape*.

use std::time::Instant;

use autosynch_bench::figures;
use autosynch_bench::sweep;
use autosynch_metrics::report::Table;

struct Experiment {
    id: &'static str,
    title: &'static str,
    expectation: &'static str,
    run: fn() -> Table,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig8",
        title: "Fig. 8 — bounded buffer (runtime, seconds)",
        expectation: "baseline slowest; explicit ≈ AutoSynch-T ≈ AutoSynch",
        run: figures::fig8,
    },
    Experiment {
        id: "fig8x",
        title: "Fig. 8 supplement — signaling counters, bounded buffer",
        expectation: "baseline: zero signals, all broadcasts, high futile ratio",
        run: figures::fig8_counters,
    },
    Experiment {
        id: "fig9",
        title: "Fig. 9 — H2O (runtime, seconds)",
        expectation: "baseline slowest; the other three comparable",
        run: figures::fig9,
    },
    Experiment {
        id: "fig10",
        title: "Fig. 10 — sleeping barber (runtime, seconds)",
        expectation: "all four comparable (broadcasts are not wasted here)",
        run: figures::fig10,
    },
    Experiment {
        id: "fig11",
        title: "Fig. 11 — round-robin access pattern (runtime, seconds)",
        expectation: "explicit flat; AutoSynch within ~1.2-2.6x; AutoSynch-T grows with threads",
        run: figures::fig11,
    },
    Experiment {
        id: "fig12",
        title: "Fig. 12 — readers/writers (runtime, seconds)",
        expectation: "explicit flat; AutoSynch close; AutoSynch-T degrades as threads grow",
        run: figures::fig12,
    },
    Experiment {
        id: "fig13",
        title: "Fig. 13 — dining philosophers (runtime, seconds)",
        expectation: "explicit does not outrun the automatic monitors by much",
        run: figures::fig13,
    },
    Experiment {
        id: "fig14",
        title: "Fig. 14 — parameterized bounded buffer (runtime, seconds)",
        expectation: "explicit degrades with consumers; AutoSynch flat and far faster at scale",
        run: figures::fig14,
    },
    Experiment {
        id: "fig15",
        title: "Fig. 15 — context switches for the Fig. 14 runs (thousands)",
        expectation: "explicit grows into the millions; AutoSynch stays in the thousands",
        run: figures::fig15,
    },
    Experiment {
        id: "table1",
        title: "Table 1 — CPU-usage breakdown, round-robin",
        expectation: "tagging cuts relaySignal time ~95% for a small tagMgr cost",
        run: figures::table1,
    },
    Experiment {
        id: "relay",
        title: "Extension — relay-cost accounting incl. change-driven and routed modes",
        expectation: "relay, probe and wakeup counts per mechanism at equal outcomes; emits BENCH_relay.json",
        run: figures::relay_cost,
    },
    Experiment {
        id: "wake",
        title: "Extension — wake precision: routed unparks and self-checks (change-driven for context)",
        expectation: "AutoSynch-Route: ~1 unpark/relay on fig11, ladder skips on fig14, transient cache hits on the mix; emits BENCH_wake.json",
        run: figures::wake_routing,
    },
    Experiment {
        id: "extstorm",
        title: "Extension — wake storm: K hot expressions x N waiters (runtime, seconds)",
        expectation: "adversarial signal order; eq-routed wakes unpark only the next waiter of each channel",
        run: figures::ext_wake_storm,
    },
    Experiment {
        id: "api",
        title: "Extension — v2 API cost: compile-once Cond waits vs per-call analysis",
        expectation: "v2 per-wait setup strictly below v1 on every shape; emits BENCH_api.json",
        run: figures::api_cost,
    },
    Experiment {
        id: "extshardq",
        title: "Extension — sharded queues: N independent queues, one monitor (runtime, seconds)",
        expectation: "disequality (None-tag) predicates: no tag index prunes the relay search",
        run: figures::ext_sharded_queues,
    },
    Experiment {
        id: "extbarrier",
        title: "Extension — cyclic barrier (runtime, seconds)",
        expectation: "a second signalAll-bound family: explicit broadcasts per generation, AutoSynch relays",
        run: figures::ext_barrier,
    },
    Experiment {
        id: "extbarrierx",
        title: "Extension supplement — barrier signaling counters",
        expectation: "explicit: one signalAll per generation; AutoSynch: zero broadcasts",
        run: figures::ext_barrier_counters,
    },
    Experiment {
        id: "obs",
        title: "Extension — observability: wait-latency percentiles + flight recorder",
        expectation: "finite p999 per mode on every shape; trace captures >= 6 event kinds; \
                      telemetry-off elided latency matches the api fast_path row",
        run: figures::obs,
    },
    Experiment {
        id: "async",
        title: "Extension — async waiters: 100k-waiter scale proof + thread equivalence",
        expectation: "100,000+ concurrent wait_async registrations at the hold-off release \
                      with finite wait percentiles; async == threaded outcomes at equal ops",
        run: figures::async_waiters,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        let mut chosen = Vec::new();
        for arg in &args {
            match EXPERIMENTS.iter().find(|e| e.id == arg) {
                Some(e) => chosen.push(e),
                None => {
                    eprintln!(
                        "unknown experiment `{arg}`; available: {} all",
                        EXPERIMENTS
                            .iter()
                            .map(|e| e.id)
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                    std::process::exit(2);
                }
            }
        }
        chosen
    };

    println!(
        "AutoSynch reproduction — {} mode (ops budget {} per point{})",
        if sweep::full_scale() {
            "FULL paper-grid"
        } else {
            "quick"
        },
        sweep::ops_budget(),
        if sweep::full_scale() {
            ""
        } else {
            "; set AUTOSYNCH_FULL=1 for the 2..256 grid"
        }
    );
    println!();

    for experiment in selected {
        let started = Instant::now();
        let table = (experiment.run)();
        println!("## {}", experiment.title);
        println!("   paper shape: {}", experiment.expectation);
        println!();
        print!("{table}");
        println!("   [swept in {:.1}s]", started.elapsed().as_secs_f64());
        println!();
    }
}
