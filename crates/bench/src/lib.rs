//! Shared experiment-harness utilities: machine-readable result emission
//! and its one printed form.
//!
//! Every `e*` binary writes its results as JSON under `results/` so
//! EXPERIMENTS.md can cite exact numbers, and prints those same sections
//! (see [`Report::save`]): what a run shows is what it saved.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use serde_json::{Map, Value};

mod envelope;

pub use envelope::{Envelope, REPORT_SCHEMA};

/// Write `value` pretty-printed to `<dir>/<file>`.
fn write_results(dir: &Path, file: &str, value: &Envelope) {
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write results file");
    println!("[results written to {}]", path.display());
}

/// Builder for an experiment's machine-readable result documents, each
/// an [`Envelope`].
///
/// The results are split by what they are. [`Report::section`] takes
/// what a seeded run repeats — counts, ratios, simulated-clock times —
/// and goes to `results/<name>.json`, which must regenerate to the
/// committed bytes (`git diff --exit-code -- results` after a sweep is
/// the whole check). [`Report::host`] takes what this host's clock read
/// — walls, ns/task, tasks/s, solve times, anything derived from them —
/// and goes to `results/<name>.host.json` in the same envelope; that
/// file changes run to run and is excluded from the diff.
///
/// [`Report::save`] also drains any telemetry captured during the run into
/// `results/<name>.trace.jsonl` (see [`telemetry::flush_artifacts`]).
pub struct Report {
    name: String,
    meta: Map,
    results: Map,
    host: Map,
}

impl Report {
    /// Start a report for experiment `name` (the `results/<name>.json` stem).
    pub fn new(name: &str) -> Self {
        Report {
            name: name.to_string(),
            meta: Map::new(),
            results: Map::new(),
            host: Map::new(),
        }
    }

    /// Stamp one workload/config metadata entry (cells, seeds, cores, …).
    pub fn meta(mut self, key: &str, value: Value) -> Self {
        self.meta.insert(key.to_string(), value);
        self
    }

    /// Add a named result section that a seeded run repeats exactly.
    pub fn section(mut self, key: &str, value: Value) -> Self {
        self.results.insert(key.to_string(), value);
        self
    }

    /// Add a named section of wall-clock readings (or values derived
    /// from them); it is written to `results/<name>.host.json` only.
    pub fn host(mut self, key: &str, value: Value) -> Self {
        self.host.insert(key.to_string(), value);
        self
    }

    /// The envelope around one of the two result maps.
    fn envelope(&self, results: &Map) -> Envelope {
        Envelope {
            experiment: self.name.clone(),
            schema: REPORT_SCHEMA.to_string(),
            meta: self.meta.clone(),
            results: results.clone(),
        }
    }

    /// Print every section, seeded ones first and host ones after; write
    /// `results/<name>.json`, `results/<name>.host.json` when any
    /// [`Report::host`] section was added; and flush telemetry artifacts
    /// (`results/` is relative to the workspace root when run via
    /// `cargo run -p bench`).
    ///
    /// The printout is rendered from the saved values themselves, so it
    /// shows exactly what the documents hold: an array of objects is one
    /// table (keys as columns, in document order), an object is
    /// `key: value` lines, anything else is one line; every cell is the
    /// value's compact JSON text, strings unquoted.
    pub fn save(self) {
        println!("\n{}", self.render());
        self.write_to(Path::new("results"));
        telemetry::flush_artifacts(&self.name);
    }

    /// What [`Report::save`] prints: one block per section, blank-line
    /// separated.
    fn render(&self) -> String {
        let mut out = String::new();
        for (sections, suffix) in [(&self.results, ""), (&self.host, " (host)")] {
            for (key, value) in sections.iter() {
                render_section(&mut out, &format!("{key}{suffix}"), value);
            }
        }
        out
    }

    fn write_to(&self, dir: &Path) {
        let seeded = self.envelope(&self.results);
        write_results(dir, &format!("{}.json", self.name), &seeded);
        if !self.host.is_empty() {
            let host = self.envelope(&self.host);
            write_results(dir, &format!("{}.host.json", self.name), &host);
        }
    }
}

/// One printed cell: the value's compact JSON text, strings unquoted.
fn cell(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        other => other.to_json_string(),
    }
}

/// Append section `label` to `out` in the shape [`Report::save`] documents.
fn render_section(out: &mut String, label: &str, value: &Value) {
    if !out.is_empty() {
        out.push('\n');
    }
    let rows: Option<Vec<&Map>> = match value.as_array() {
        Some(items) if !items.is_empty() => items.iter().map(Value::as_object).collect(),
        _ => None,
    };
    if let Some(rows) = rows {
        let mut columns: Vec<&str> = Vec::new();
        for key in rows.iter().flat_map(|row| row.keys()) {
            if !columns.contains(&key.as_str()) {
                columns.push(key);
            }
        }
        let mut lines = vec![columns.iter().map(|c| c.to_string()).collect::<Vec<_>>()];
        lines.extend(rows.iter().map(|row| {
            let at = |c: &&str| row.get(c).map_or_else(String::new, cell);
            columns.iter().map(at).collect()
        }));
        let widths: Vec<usize> = (0..columns.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let _ = writeln!(out, "== {label} ==");
        for (i, line) in lines.iter().enumerate() {
            let padded: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "| {} |", padded.join(" | "));
            if i == 0 {
                let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
                let _ = writeln!(out, "|-{}-|", rule.join("-|-"));
            }
        }
    } else if let Some(fields) = value.as_object() {
        let _ = writeln!(out, "== {label} ==");
        for (key, field) in fields.iter() {
            let _ = writeln!(out, "{key}: {}", cell(field));
        }
    } else {
        let _ = writeln!(out, "{label}: {}", cell(value));
    }
}

/// Telemetry wiring for bench binaries: env-driven activation and
/// end-of-run artifact export.
pub mod telemetry {
    use std::path::PathBuf;

    use pran_telemetry::{export, metrics, trace, TelemetryConfig};

    /// Configure the global tracer from the `PRAN_TELEMETRY` environment
    /// variable (`off` | `sim` | `full`; anything else means off) and
    /// reset the metrics registry. Returns the applied configuration so
    /// binaries can stamp it into their report metadata.
    pub fn init_from_env() -> TelemetryConfig {
        let cfg = match std::env::var("PRAN_TELEMETRY").as_deref() {
            Ok("sim") => TelemetryConfig::sim(),
            Ok("full") => TelemetryConfig::full(),
            _ => TelemetryConfig::disabled(),
        };
        pran_telemetry::configure(cfg);
        metrics::global().clear();
        cfg
    }

    /// Drain captured telemetry into `results/<name>.trace.jsonl` and
    /// print the metrics summary table. Returns the trace path, or `None`
    /// when nothing was captured (telemetry off).
    pub fn flush_artifacts(name: &str) -> Option<PathBuf> {
        let events = trace::drain();
        let snapshot = metrics::global().snapshot();
        if events.is_empty() && snapshot.instruments.is_empty() {
            return None;
        }
        if !snapshot.instruments.is_empty() {
            println!("\n== telemetry: metrics ==");
            print!("{}", export::summary_table(&snapshot));
        }
        if events.is_empty() {
            return None;
        }
        let breakdown = export::subframe_breakdown(&events);
        if breakdown.tasks > 0 {
            println!("\n== telemetry: per-subframe latency breakdown ==");
            print!("{}", export::breakdown_table(&breakdown));
        }
        let path = PathBuf::from("results").join(format!("{name}.trace.jsonl"));
        std::fs::create_dir_all("results").expect("create results dir");
        let lines = export::write_jsonl(&path, &events).expect("write trace");
        println!("[trace: {lines} events written to {}]", path.display());
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_prints_each_saved_section_in_its_shape() {
        let report = Report::new("unit")
            .section(
                "rows",
                serde_json::json!([
                    {"cell": "a", "load": {"ul": 1, "dl": 0.5}, "ok": true},
                    {"cell": "bb", "ok": false}
                ]),
            )
            .section("counts", serde_json::json!({"tasks": 12, "label": "x"}))
            .section("gain", serde_json::json!(1.25))
            .host("timing", serde_json::json!({"wall_ms": 3.5}));
        let printed = report.render();
        assert_eq!(printed, report.render(), "printing twice is byte-stable");
        assert_eq!(
            printed,
            "== rows ==\n\
             | cell |              load |    ok |\n\
             |------|-------------------|-------|\n\
             |    a | {\"ul\":1,\"dl\":0.5} |  true |\n\
             |   bb |                   | false |\n\
             \n\
             == counts ==\n\
             tasks: 12\n\
             label: x\n\
             \n\
             gain: 1.25\n\
             \n\
             == timing (host) ==\n\
             wall_ms: 3.5\n"
        );
    }

    #[test]
    fn seeded_and_host_sections_save_to_disjoint_byte_stable_envelopes() {
        let dir = std::env::temp_dir().join(format!("pran_bench_report_{}", std::process::id()));
        let report = Report::new("unit")
            .meta("seed", serde_json::json!(7))
            .section(
                "counts",
                serde_json::json!({"tasks_total": 12, "miss_ratio": 0.25}),
            )
            .host("timing", serde_json::json!({"wall_ms": 3.5}));
        let read = |file: &str| fs::read_to_string(dir.join(file)).expect("document written");

        report.write_to(&dir);
        let (seeded, host) = (read("unit.json"), read("unit.host.json"));
        report.write_to(&dir);
        assert_eq!(seeded, read("unit.json"), "saving twice is byte-stable");
        assert_eq!(host, read("unit.host.json"), "saving twice is byte-stable");
        fs::remove_dir_all(&dir).expect("remove scratch dir");

        let parse = |text: &str| serde_json::from_str::<Envelope>(text).expect("parses");
        let (seeded, host) = (parse(&seeded), parse(&host));
        for doc in [&seeded, &host] {
            assert_eq!(doc.check(), Ok(()));
            assert_eq!(doc.experiment, "unit");
            assert_eq!(doc.meta.get("seed").and_then(|v| v.as_u64()), Some(7));
        }
        let keys = |doc: &Envelope| -> Vec<String> { doc.results.keys().cloned().collect() };
        assert_eq!(keys(&seeded), ["counts"]);
        assert_eq!(keys(&host), ["timing"]);
    }
}
