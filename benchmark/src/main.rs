//! `run`, `compare` and `spec`. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use autosynch_benchmark::compare::compare;
use autosynch_benchmark::run::{run, CellOrder, Options};
use autosynch_benchmark::spec;
use autosynch_benchmark::sys::Cpus;
use autosynch_benchmark::workloads::Workload;

const USAGE: &str = "usage:
  benchmark run --workload <ring|pbb|bystanders|contend2|quiet> --seed <n>
                [--seconds <s>] [--trace [0|1]] [--out-dir <dir>]
  benchmark compare <base> <new>     files of concatenated `run` output
  benchmark spec                     prints BENCHMARK.json";

/// The watchdog's patience: a cell without a completed op for this long
/// is abandoned and its outstanding ops count as failed.
const STALL: Duration = Duration::from_secs(10);

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            // A bare `--trace` means on; the driver passes `--trace 0|1`.
            trace = match args.next_if(|v| *v == "0" || *v == "1") {
                Some(v) => v == "1",
                None => true,
            };
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {value}: must be in (0, 60]"));
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out_dir,
        stall: STALL,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|options| {
            let cpus = Cpus::detect()?;
            let report = run(&options, cpus);
            println!("{}", report.full_line());
            println!("{}", report.contract_line());
            // 3: the run completed and printed, but an output check
            // failed or the watchdog abandoned a cell.
            Ok(if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            })
        }),
        // Internal: what `run` starts once per cell.
        Some("cell") => CellOrder::from_args(&args[1..])
            .ok_or_else(|| "cell: malformed order".to_owned())
            .map(|order| {
                println!("{}", order.execute());
                ExitCode::SUCCESS
            }),
        Some("compare") if args.len() == 3 => {
            let read =
                |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
            read(&args[1]).and_then(|base| {
                let comparison = compare(&base, &read(&args[2])?)?;
                print!("{}", comparison.table);
                Ok(if comparison.passed() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                })
            })
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
