//! Validate telemetry artifacts against their schemas.
//!
//! ```text
//! telemetry_check <artifact>... [--require-subframes]
//! ```
//!
//! Two artifact families, dispatched by extension:
//!
//! * `*.jsonl` — exporter traces: every line must conform to the event
//!   schema (all kinds, including `chaos.violation` and `insight.alert`);
//!   with `--require-subframes`, at least one validated trace must carry
//!   `subframe` events to reconstruct a latency breakdown from.
//! * `*.json` — structured documents, dispatched by their `schema` tag:
//!   `pran-recorder/1` flight-recorder dumps (ring shape, capacity bound,
//!   strictly increasing record epochs) and `pran-bench/1` envelopes
//!   (an `experiment` name and a `results` object; what a document
//!   claims is held by the exit code of the binary that wrote it).
//!
//! Exits non-zero when any file is missing or violates its schema. CI's
//! `results` job runs this over the three committed traces, the E16
//! recorder dump and the hostile fixture (which must fail).

use pran_telemetry::export::{breakdown_from_jsonl, breakdown_table, validate_jsonl};

/// Validate a structured `.json` artifact by its `schema` tag. Returns a
/// one-line summary.
fn validate_json_doc(path: &str, text: &str) -> Result<String, String> {
    let doc: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = doc["schema"].as_str().ok_or("no `schema` tag")?.to_string();
    match schema.as_str() {
        "pran-recorder/1" => {
            let n = pran_obs::validate_dump(&doc)?;
            Ok(format!("flight-recorder dump, {n} record(s)"))
        }
        "pran-bench/1" => {
            let experiment = doc["experiment"]
                .as_str()
                .ok_or("pran-bench/1 document without `experiment`")?
                .to_string();
            match &doc["results"] {
                serde_json::Value::Object(_) => Ok(format!("bench envelope ({experiment})")),
                _ => Err("pran-bench/1 document without a `results` object".to_string()),
            }
        }
        other => Err(format!("unknown schema tag {other:?} in {path}")),
    }
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
            match validate_json_doc(path, &text) {
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
