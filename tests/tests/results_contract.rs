//! The results contract: every committed `results/<name>.json` holds
//! only what a seeded run repeats, so it can be held to the byte
//! (`bash run_experiments.sh && git diff --exit-code -- results
//! ':(exclude)results/*.host.json'`). Wall-clock readings belong in
//! `results/<name>.host.json`, written beside it by `bench::Report::host`.

use serde_json::Value;

/// Substrings that name a wall-clock reading.
const WALL_NAMES: [&str; 7] = [
    "wall",
    "_per_sec",
    "ns_per_task",
    "time_us",
    "overhead_pct",
    "scrape_latency",
    "payload_bytes",
];

/// Collect the path of every key under `value` named like a wall reading.
fn wall_keys(value: &Value, path: &str, found: &mut Vec<String>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map.iter() {
                let child_path = format!("{path}.{key}");
                if WALL_NAMES.iter().any(|w| key.contains(w)) {
                    found.push(child_path.clone());
                }
                wall_keys(child, &child_path, found);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                wall_keys(child, &format!("{path}[{i}]"), found);
            }
        }
        _ => {}
    }
}

#[test]
fn committed_results_are_tagged_and_carry_no_wall_clock_reading() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");
    let mut problems = Vec::new();
    let mut checked = 0usize;
    for entry in std::fs::read_dir(dir).expect("results/ is committed") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".json") || name.ends_with(".host.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("results file reads");
        let doc: Value = serde_json::from_str(&text).expect("results file parses");
        match doc.get("schema").and_then(Value::as_str) {
            Some("pran-bench/1" | "pran-recorder/1") => {}
            tag => problems.push(format!("{name}: schema tag {tag:?}")),
        }
        wall_keys(&doc, &name, &mut problems);
        checked += 1;
    }
    assert!(checked >= 21, "only {checked} result documents found");
    assert!(
        problems.is_empty(),
        "results/*.json must repeat to the byte; move these to Report::host:\n{}",
        problems.join("\n")
    );
}
