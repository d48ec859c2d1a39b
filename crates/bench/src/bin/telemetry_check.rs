//! Validate telemetry artifacts against their schemas.
//!
//! ```text
//! telemetry_check <artifact>... [--require-subframes]
//! ```
//!
//! Two artifact families, dispatched by extension:
//!
//! * `*.jsonl` — exporter traces: every line must conform to the event
//!   schema (all kinds, including `chaos.violation`, `insight.alert` and
//!   `insight.burn_alert`);
//!   with `--require-subframes`, at least one validated trace must carry
//!   `subframe` events to reconstruct a latency breakdown from.
//! * `*.json` — structured documents: a first read of the `schema` tag
//!   alone picks the type, then the whole document is read through it
//!   and its `check` — the types the emitters write:
//!   - `pran-recorder/1` — `pran_obs::RecorderDump` (records within
//!     capacity, strictly increasing epochs);
//!   - `pran-slo/1` — `pran_obs::SloDoc`;
//!   - `pran-topk/1` — `pran_obs::TopkDoc`;
//!   - `pran-bench/1` — `bench::Envelope` (what its sections claim is
//!     held by the exit code of the binary that wrote it).
//!
//!   A field of the wrong type or missing fails with its path.
//!
//! Exits non-zero when any file is missing or violates its schema. CI's
//! `results` job runs this over the three committed traces and the E16
//! recorder dump, and the four hostile fixtures (which must fail); the
//! `soak-smoke` job over a live `/slo`, `/topk` and triggered dump.

use bench::{Envelope, REPORT_SCHEMA};
use pran_obs::{RecorderDump, SloDoc, TopkDoc, RECORDER_SCHEMA, SLO_SCHEMA, TOPK_SCHEMA};
use pran_telemetry::export::{breakdown_from_jsonl, breakdown_table, validate_jsonl};
use serde::Deserialize;

/// The one field every structured document has: read first, to pick the
/// type the whole document is read as.
#[derive(Deserialize)]
struct Tagged {
    schema: String,
}

/// `text` read as a `T` and held to its `check`.
fn read<T: Deserialize>(text: &str, check: fn(&T) -> Result<(), String>) -> Result<(), String> {
    check(&serde_json::from_str(text).map_err(|e| e.to_string())?)
}

/// Validate a structured `.json` artifact through the type its `schema`
/// tag names. Returns a one-line summary.
fn validate_json_doc(text: &str) -> Result<String, String> {
    let Tagged { schema } = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let what = match schema.as_str() {
        RECORDER_SCHEMA => read(text, RecorderDump::check).map(|()| "flight-recorder dump"),
        SLO_SCHEMA => read(text, SloDoc::check).map(|()| "SLO burn state"),
        TOPK_SCHEMA => read(text, TopkDoc::check).map(|()| "top-k attribution"),
        REPORT_SCHEMA => read(text, Envelope::check).map(|()| "bench envelope"),
        other => Err(format!("unknown schema tag {other:?}")),
    }?;
    Ok(format!("{what} ({schema})"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_subframes = args.iter().any(|a| a == "--require-subframes");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        eprintln!("usage: telemetry_check <trace.jsonl | doc.json>... [--require-subframes]");
        std::process::exit(2);
    }

    let mut subframe_tasks = 0u64;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("telemetry_check: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };

        if path.ends_with(".json") {
            match validate_json_doc(&text) {
                Ok(summary) => {
                    println!("{path}: {summary}");
                    continue;
                }
                Err(e) => {
                    eprintln!("telemetry_check: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }

        match validate_jsonl(&text) {
            Ok(n) => println!("{path}: {n} events, schema ok"),
            Err(e) => {
                eprintln!("telemetry_check: {path}: {e}");
                std::process::exit(1);
            }
        }

        match breakdown_from_jsonl(&text) {
            Ok(b) if b.tasks > 0 => {
                subframe_tasks += b.tasks;
                println!("subframe latency breakdown ({} tasks):", b.tasks);
                print!("{}", breakdown_table(&b));
            }
            Ok(_) => println!("(no subframe events; breakdown skipped)"),
            Err(e) => {
                eprintln!("telemetry_check: {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if require_subframes && subframe_tasks == 0 {
        eprintln!("telemetry_check: no subframe events in any validated trace");
        std::process::exit(1);
    }
    println!(
        "telemetry_check: {} file(s) ok, {} subframe task(s)",
        paths.len(),
        subframe_tasks
    );
}
