//! The PRAN benchmark: one process per workload.
//!
//! ```text
//! pran-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--out DIR]
//! pran-benchmark --print-benchmark-json
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calib;
mod catalog;
mod common;
mod host;
mod inputs;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Map, Value};

use common::{Ctx, Extra, Tally};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: pran-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out DIR] | --print-benchmark-json";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2026,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut seconds_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--print-benchmark-json" => return Ok(None),
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    if args.quick && !seconds_given {
        // One rep of everything: the time bound never asks for a second.
        args.seconds = 0.0;
    }
    if !catalog::WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of: {}\n{USAGE}",
            names.join(", ")
        ));
    }
    Ok(Some(args))
}

/// A metric value as JSON: as measured, with all its digits; a reading
/// that is not a number (an idle layer's 0/0) reads 0.
fn number(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// Merge `section` into `<out>/<workload>.json` under `key`.
fn write_section(out: &Path, workload: &str, key: &str, section: Value) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let path = out.join(format!("{workload}.json"));
    let mut doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| match v {
            Value::Object(map) => Some(map),
            _ => None,
        })
        .unwrap_or_default();
    doc.insert("workload".to_string(), json!(workload));
    doc.insert(
        "host".to_string(),
        json!({
            "nproc": host::nproc(),
            "cpu_model": host::cpu_model(),
            "workers": common::WORKERS,
            "rustc": std::env::var("PRAN_BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string()),
            "commit": std::env::var("PRAN_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        }),
    );
    doc.insert(key.to_string(), section);
    std::fs::write(path, Value::Object(doc).to_json_string_pretty() + "\n")
}

/// Everything one run reports.
struct Outcome {
    /// Contract metrics in catalog order: name, value, unit.
    metrics: Vec<(&'static str, f64, &'static str)>,
    extras: Vec<Extra>,
    /// Work rate of every rep (untraced runs), for the noise study.
    rates: Vec<f64>,
    tally: Tally,
    spans: Vec<spans::Span>,
}

fn run(args: &Args, ctx: &Ctx) -> Outcome {
    if args.trace {
        let traced = workloads::traced(&args.workload, ctx).expect("workload name was checked");
        let metrics = catalog::PER_LAYER
            .iter()
            .map(|l| {
                let value = traced.layers.get(l.name).copied().unwrap_or(0.0);
                (l.name, number(value), l.unit)
            })
            .collect();
        Outcome {
            metrics,
            extras: vec![("spans", traced.spans.len() as f64, "count")],
            rates: Vec::new(),
            tally: traced.tally,
            spans: traced.spans,
        }
    } else {
        let others = host::OtherCpu::start();
        let run = workloads::untraced(&args.workload, ctx).expect("workload name was checked");
        let other_cpu_pct = others.percent();
        let (p50, tail, tail_p) = stats::median_and_tail(&run.op_ms);
        let mut extras = run.extras;
        extras.push(("op_ms_tail", tail, "ms"));
        extras.push(("op_tail_percentile", tail_p, "p"));
        extras.push(("op_samples", run.op_ms.len() as f64, "count"));
        extras.push(("work_per_s_raw", stats::median(&run.raw_rates), "1/s"));
        extras.push(("op_ms_p50_raw", stats::median(&run.raw_op_ms), "ms"));
        extras.push(("setup_s_raw", stats::median(&run.raw_setup_s), "s"));
        extras.push(("host_level_p50", stats::median(&run.levels), "ratio"));
        extras.push(("other_cpu_pct", other_cpu_pct, "%"));
        let metrics = catalog::END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "work_per_s" => stats::median(&run.rates),
                    "op_ms_p50" => p50,
                    "setup_s" => stats::median(&run.setup_s),
                    "peak_rss_mb" => host::peak_rss_mb(),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m.name, number(value), m.unit)
            })
            .collect();
        Outcome {
            metrics,
            extras,
            rates: run.rates,
            tally: run.tally,
            spans: Vec::new(),
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        started,
    };
    let outcome = run(&args, &ctx);
    let Outcome {
        metrics,
        extras,
        rates,
        tally,
        spans,
    } = &outcome;

    println!(
        "# {} seed {} seconds {} trace {} quick {} workers {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        common::WORKERS,
        host::nproc()
    );
    for (name, value, unit) in metrics.iter().chain(extras.iter()) {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!("{:<34} {:>18}", "ops", tally.ops);
    println!("{:<34} {:>18}", "failed_ops", tally.failed);
    for reason in &tally.reasons {
        println!("FAILED: {reason}");
    }

    let mut by_name = Map::new();
    for (name, value, unit) in metrics {
        by_name.insert(name.to_string(), json!({"value": *value, "unit": *unit}));
    }
    let result = json!({
        "correct": tally.failed == 0,
        "attempted": tally.ops.max(1),
        "failed": tally.failed,
        "metrics": Value::Object(by_name),
    });

    if let Some(out) = &args.out {
        let mut section = Map::new();
        section.insert("seed".to_string(), json!(args.seed));
        section.insert("seconds".to_string(), json!(args.seconds));
        section.insert("quick".to_string(), json!(args.quick));
        section.insert("result".to_string(), result.clone());
        let mut shown = Map::new();
        for (name, value, unit) in extras {
            shown.insert(
                name.to_string(),
                json!({"value": number(*value), "unit": *unit}),
            );
        }
        section.insert("extras".to_string(), Value::Object(shown));
        if !args.trace {
            section.insert("rep_rates".to_string(), json!(rates));
        }
        let key = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        let written = write_section(out, &args.workload, key, Value::Object(section)).and_then(
            |()| match args.trace {
                true => {
                    spans::write_jsonl(&out.join(format!("{}.trace.jsonl", args.workload)), spans)
                }
                false => Ok(()),
            },
        );
        if let Err(e) = written {
            eprintln!("cannot write under {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }

    println!("{}", result.to_json_string());
    ExitCode::SUCCESS
}
