//! Shared experiment-harness utilities: aligned table printing and
//! machine-readable result emission.
//!
//! Every `e*` binary prints a human-readable table **and** writes the same
//! data as JSON under `results/` so EXPERIMENTS.md can cite exact numbers.

use std::fmt::Display;
use std::fs;
use std::path::Path;

mod envelope;

pub use envelope::{Envelope, REPORT_SCHEMA};

/// A simple aligned text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Display>(&mut self, cells: &[S]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", joined.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

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
    meta: serde_json::Map,
    results: serde_json::Map,
    host: serde_json::Map,
}

impl Report {
    /// Start a report for experiment `name` (the `results/<name>.json` stem).
    pub fn new(name: &str) -> Self {
        Report {
            name: name.to_string(),
            meta: serde_json::Map::new(),
            results: serde_json::Map::new(),
            host: serde_json::Map::new(),
        }
    }

    /// Stamp one workload/config metadata entry (cells, seeds, cores, …).
    pub fn meta(mut self, key: &str, value: serde_json::Value) -> Self {
        self.meta.insert(key.to_string(), value);
        self
    }

    /// Add a named result section that a seeded run repeats exactly.
    pub fn section(mut self, key: &str, value: serde_json::Value) -> Self {
        self.results.insert(key.to_string(), value);
        self
    }

    /// Add a named section of wall-clock readings (or values derived
    /// from them); it is written to `results/<name>.host.json` only.
    pub fn host(mut self, key: &str, value: serde_json::Value) -> Self {
        self.host.insert(key.to_string(), value);
        self
    }

    /// The envelope around one of the two result maps.
    fn envelope(&self, results: &serde_json::Map) -> Envelope {
        Envelope {
            experiment: self.name.clone(),
            schema: REPORT_SCHEMA.to_string(),
            meta: self.meta.clone(),
            results: results.clone(),
        }
    }

    /// Write `results/<name>.json`, `results/<name>.host.json` when any
    /// [`Report::host`] section was added, and flush telemetry artifacts
    /// (`results/` is relative to the workspace root when run via
    /// `cargo run -p bench`).
    pub fn save(self) {
        println!();
        self.write_to(Path::new("results"));
        telemetry::flush_artifacts(&self.name);
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

/// Format a `std::time::Duration` in engineering style.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
