//! Bench regression gate: diff two `pran-bench/1` envelopes with
//! per-metric relative tolerances and produce a machine-readable
//! verdict.
//!
//! Every numeric leaf under an envelope's `results` subtree becomes a
//! flattened metric path (`parallel.miss_ratio`,
//! `latency.p99_us`, …). Paths are classified by name into miss-ratio
//! metrics (default tolerance 10 % relative), latency metrics (15 %
//! relative), throughput metrics (10 % relative, *lower*-is-worse — the
//! ratcheting tasks-per-second floor) or informational metrics (tracked,
//! never gated). Miss-ratio and latency gates fire on increases past the
//! tolerance; throughput gates fire on decreases, so performance wins
//! committed to the baseline can never silently regress.

use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The schema identifier expected in gated envelopes.
pub const BENCH_SCHEMA: &str = "pran-bench/1";
/// The schema identifier stamped into gate verdicts.
pub const GATE_SCHEMA: &str = "pran-gate/1";

/// Per-class tolerances: a candidate regresses when it exceeds the
/// baseline by more than `max(relative · |baseline|, absolute)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Relative tolerance for miss-ratio-class metrics.
    pub miss_ratio_rel: f64,
    /// Absolute floor for miss-ratio-class metrics (soaks up noise
    /// around zero baselines).
    pub miss_ratio_abs: f64,
    /// Relative tolerance for latency-class metrics.
    pub latency_rel: f64,
    /// Absolute floor for latency-class metrics, in the metric's own
    /// units (microseconds for the `_us` quantiles).
    pub latency_abs: f64,
    /// Relative tolerance for throughput-class metrics: the candidate
    /// regresses when it drops more than this fraction *below* the
    /// baseline (lower-is-worse, unlike every other gated class).
    pub throughput_rel: f64,
    /// Absolute tolerance, in percentage points, for overhead-class
    /// metrics (`*overhead_pct*`): telemetry overhead is a noisy
    /// wall-clock ratio, so it is gated on absolute drift rather than
    /// relative change.
    pub overhead_abs_pts: f64,
}

impl Default for GateConfig {
    /// CI defaults: fail on >10 % miss-ratio or >15 % latency-quantile
    /// regression, with small absolute floors so zero-baseline metrics
    /// don't trip on dust.
    fn default() -> Self {
        GateConfig {
            miss_ratio_rel: 0.10,
            miss_ratio_abs: 0.005,
            latency_rel: 0.15,
            latency_abs: 50.0,
            throughput_rel: 0.10,
            overhead_abs_pts: 10.0,
        }
    }
}

/// How a metric path is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Miss/loss/violation ratios and counts: higher is worse.
    MissRatio,
    /// Latency and outage quantiles: higher is worse.
    Latency,
    /// Task throughput (tasks/second): *lower* is worse. The ratcheting
    /// floor — once a speedup lands in the committed baseline, dropping
    /// more than the tolerance below it fails the gate.
    Throughput,
    /// Self-measured overhead percentages (`telemetry_overhead_pct`):
    /// higher is worse, gated on absolute percentage-point drift.
    Overhead,
    /// Counts a seeded run repeats to the last unit (`steals`): any
    /// change, up or down, is a regression.
    Exact,
    /// Everything else: reported but never a regression.
    Info,
}

impl MetricClass {
    /// Stable label for verdict output.
    pub fn label(self) -> &'static str {
        match self {
            MetricClass::MissRatio => "miss_ratio",
            MetricClass::Latency => "latency",
            MetricClass::Throughput => "throughput",
            MetricClass::Overhead => "overhead",
            MetricClass::Exact => "exact",
            MetricClass::Info => "info",
        }
    }
}

/// Classify a flattened metric path by name.
pub fn classify(path: &str) -> MetricClass {
    let lower = path.to_ascii_lowercase();
    // Overhead first: `telemetry_overhead_pct` would otherwise never be
    // gated (no miss/latency/throughput key matches it), and it needs
    // its own absolute-drift tolerance.
    if lower.contains("overhead_pct") {
        return MetricClass::Overhead;
    }
    // Host wall-clock measurements (soak `wall_mean_us`, `scrape_p99_us`)
    // vary with the runner and must stay informational even though their
    // names contain latency keys.
    const INFO_KEYS: [&str; 2] = ["wall", "scrape"];
    if INFO_KEYS.iter().any(|k| lower.contains(k)) {
        return MetricClass::Info;
    }
    const MISS_KEYS: [&str; 5] = ["miss_ratio", "misses", "missed", "lost", "violations"];
    if MISS_KEYS.iter().any(|k| lower.contains(k)) {
        return MetricClass::MissRatio;
    }
    const LATENCY_KEYS: [&str; 9] = [
        "p50", "p90", "p95", "p99", "latency", "outage", "mean_us", "max_us", "dur_us",
    ];
    if LATENCY_KEYS.iter().any(|k| lower.contains(k)) {
        return MetricClass::Latency;
    }
    // `ns_per_task` stays Info: it is the reciprocal of `tasks_per_sec`,
    // and gating both would double-count one measurement.
    const THROUGHPUT_KEYS: [&str; 2] = ["tasks_per_sec", "throughput"];
    if THROUGHPUT_KEYS.iter().any(|k| lower.contains(k)) {
        return MetricClass::Throughput;
    }
    // The parallel executor schedules in virtual time, so its steal
    // count is a function of the task set.
    if lower.ends_with("steals") {
        return MetricClass::Exact;
    }
    MetricClass::Info
}

/// The verdict for one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Within,
    /// Better than baseline by more than the tolerance.
    Improved,
    /// Worse than baseline by more than the tolerance.
    Regressed,
    /// Present in the baseline, absent from the candidate.
    Missing,
}

impl Verdict {
    /// Stable label for verdict output.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Missing => "missing",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Flattened path under `results`.
    pub path: String,
    /// How the metric was gated.
    pub class: MetricClass,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value (0 when [`Verdict::Missing`]).
    pub candidate: f64,
    /// Relative change `(candidate − baseline) / |baseline|`, absent
    /// for zero baselines.
    pub rel_change: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The result of gating one candidate envelope against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Experiment name shared by both envelopes.
    pub experiment: String,
    /// Every compared metric, in path order.
    pub diffs: Vec<MetricDiff>,
    /// Metric paths present only in the candidate (new metrics are
    /// allowed, just surfaced).
    pub added: Vec<String>,
}

impl GateReport {
    /// Metrics that regressed (or went missing).
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.diffs
            .iter()
            .filter(|d| matches!(d.verdict, Verdict::Regressed | Verdict::Missing))
            .collect()
    }

    /// Whether the candidate passes the gate.
    pub fn ok(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Machine-readable verdict (`pran-gate/1`).
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("schema".into(), Value::String(GATE_SCHEMA.into()));
        obj.insert("experiment".into(), Value::String(self.experiment.clone()));
        obj.insert("ok".into(), Value::Bool(self.ok()));
        obj.insert(
            "compared".into(),
            Value::Number(Number::U64(self.diffs.len() as u64)),
        );
        let diffs: Vec<Value> = self
            .diffs
            .iter()
            .map(|d| {
                let mut m = Map::new();
                m.insert("path".into(), Value::String(d.path.clone()));
                m.insert("class".into(), Value::String(d.class.label().into()));
                m.insert("baseline".into(), Value::Number(Number::F64(d.baseline)));
                m.insert("candidate".into(), Value::Number(Number::F64(d.candidate)));
                if let Some(rel) = d.rel_change {
                    m.insert("rel_change".into(), Value::Number(Number::F64(rel)));
                }
                m.insert("verdict".into(), Value::String(d.verdict.label().into()));
                Value::Object(m)
            })
            .collect();
        obj.insert("diffs".into(), Value::Array(diffs));
        obj.insert(
            "added".into(),
            Value::Array(self.added.iter().cloned().map(Value::String).collect()),
        );
        Value::Object(obj)
    }

    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let regressions = self.regressions();
        let _ = writeln!(
            out,
            "== bench gate: {} — {} ({} metrics, {} regressions) ==",
            self.experiment,
            if self.ok() { "PASS" } else { "FAIL" },
            self.diffs.len(),
            regressions.len(),
        );
        for d in &self.diffs {
            if d.verdict == Verdict::Within {
                continue;
            }
            let rel = d
                .rel_change
                .map(|r| format!("{:+.1}%", r * 100.0))
                .unwrap_or_else(|| "n/a".to_string());
            let _ = writeln!(
                out,
                "  {:<10} {:<40} {} -> {} ({rel})",
                d.verdict.label(),
                d.path,
                d.baseline,
                d.candidate,
            );
        }
        for path in &self.added {
            let _ = writeln!(out, "  added      {path}");
        }
        out
    }
}

fn flatten_into(prefix: &str, value: &Value, out: &mut BTreeMap<String, f64>) {
    match value {
        Value::Number(_) => {
            if let Some(v) = value.as_f64() {
                out.insert(prefix.to_string(), v);
            }
        }
        Value::Object(map) => {
            for (key, child) in map.iter() {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten_into(&path, child, out);
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten_into(&format!("{prefix}[{i}]"), child, out);
            }
        }
        // Strings, bools, nulls: not gateable.
        _ => {}
    }
}

/// Flatten an envelope's `results` subtree into `path → value` pairs.
pub fn flatten_results(envelope: &Value) -> Result<BTreeMap<String, f64>, String> {
    let results = envelope
        .get("results")
        .ok_or("envelope has no `results` object")?;
    let mut out = BTreeMap::new();
    flatten_into("", results, &mut out);
    Ok(out)
}

fn check_envelope(envelope: &Value, role: &str) -> Result<String, String> {
    match envelope.get("schema").and_then(Value::as_str) {
        Some(BENCH_SCHEMA) => {}
        Some(other) => return Err(format!("{role}: unsupported schema {other:?}")),
        None => {
            return Err(format!(
                "{role}: missing `schema` (not a pran-bench envelope)"
            ))
        }
    }
    envelope
        .get("experiment")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{role}: missing string `experiment`"))
}

/// Gate a candidate `pran-bench/1` envelope against a baseline.
///
/// Both values must be full envelopes of the same experiment. Returns
/// the per-metric diff report; regressions are increases beyond the
/// [`GateConfig`] tolerance in miss-ratio- or latency-class metrics,
/// plus baseline metrics the candidate dropped.
pub fn compare_envelopes(
    baseline: &Value,
    candidate: &Value,
    config: &GateConfig,
) -> Result<GateReport, String> {
    let base_name = check_envelope(baseline, "baseline")?;
    let cand_name = check_envelope(candidate, "candidate")?;
    if base_name != cand_name {
        return Err(format!(
            "experiment mismatch: baseline {base_name:?} vs candidate {cand_name:?}"
        ));
    }
    let base = flatten_results(baseline)?;
    let cand = flatten_results(candidate)?;

    let mut diffs = Vec::new();
    for (path, &baseline_value) in &base {
        let class = classify(path);
        let Some(&candidate_value) = cand.get(path) else {
            diffs.push(MetricDiff {
                path: path.clone(),
                class,
                baseline: baseline_value,
                candidate: 0.0,
                rel_change: None,
                verdict: Verdict::Missing,
            });
            continue;
        };
        let delta = candidate_value - baseline_value;
        let rel_change = if baseline_value != 0.0 {
            Some(delta / baseline_value.abs())
        } else {
            None
        };
        let tolerance = match class {
            MetricClass::MissRatio => {
                (config.miss_ratio_rel * baseline_value.abs()).max(config.miss_ratio_abs)
            }
            MetricClass::Latency => {
                (config.latency_rel * baseline_value.abs()).max(config.latency_abs)
            }
            MetricClass::Throughput => config.throughput_rel * baseline_value.abs(),
            MetricClass::Overhead => config.overhead_abs_pts,
            MetricClass::Exact => 0.0,
            MetricClass::Info => f64::INFINITY,
        };
        // Throughput is the one lower-is-worse class: a drop past the
        // tolerance regresses, a gain improves. An exact count has no
        // better direction.
        let (worse, better) = match class {
            MetricClass::Throughput => (-delta, delta),
            MetricClass::Exact => (delta.abs(), 0.0),
            _ => (delta, -delta),
        };
        let verdict = if worse > tolerance {
            Verdict::Regressed
        } else if better > tolerance {
            Verdict::Improved
        } else {
            Verdict::Within
        };
        diffs.push(MetricDiff {
            path: path.clone(),
            class,
            baseline: baseline_value,
            candidate: candidate_value,
            rel_change,
            verdict,
        });
    }
    let added = cand
        .keys()
        .filter(|path| !base.contains_key(*path))
        .cloned()
        .collect();
    Ok(GateReport {
        experiment: base_name,
        diffs,
        added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(experiment: &str, results: Value) -> Value {
        let mut obj = Map::new();
        obj.insert("experiment".into(), Value::String(experiment.into()));
        obj.insert("schema".into(), Value::String(BENCH_SCHEMA.into()));
        obj.insert("meta".into(), Value::Object(Map::new()));
        obj.insert("results".into(), results);
        Value::Object(obj)
    }

    fn results(miss: f64, p99: f64) -> Value {
        serde_json::from_str(&format!(
            "{{\"pool\":{{\"miss_ratio\":{miss},\"latency\":{{\"p99_us\":{p99}}}}},\
              \"meta_note\":{{\"servers\":8}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("pool.miss_ratio"), MetricClass::MissRatio);
        assert_eq!(classify("parallel.deadline_misses"), MetricClass::MissRatio);
        assert_eq!(classify("reports_lost"), MetricClass::MissRatio);
        assert_eq!(classify("latency.p99_us"), MetricClass::Latency);
        assert_eq!(classify("outage.mean_us"), MetricClass::Latency);
        assert_eq!(classify("headline.tasks_per_sec"), MetricClass::Throughput);
        assert_eq!(classify("shard.throughput"), MetricClass::Throughput);
        assert_eq!(classify("headline.ns_per_task"), MetricClass::Info);
        assert_eq!(classify("servers_used"), MetricClass::Info);
        assert_eq!(classify("executors[1].steals"), MetricClass::Exact);
        // Overhead percentages get their own absolute-drift class.
        assert_eq!(
            classify("overhead.telemetry_overhead_pct"),
            MetricClass::Overhead
        );
        // Host wall/scrape timings stay Info even with latency-looking
        // suffixes — they track the runner, not the simulated system.
        assert_eq!(classify("phases.execute_wall_p99_us"), MetricClass::Info);
        assert_eq!(classify("scrape.latency_mean_us"), MetricClass::Info);
        assert_eq!(classify("sustained.wall_ms"), MetricClass::Info);
    }

    #[test]
    fn exact_counts_regress_on_any_change() {
        let steals = |v: u64| {
            envelope(
                "e8",
                serde_json::from_str(&format!("{{\"executors\":[{{\"steals\":{v}}}]}}")).unwrap(),
            )
        };
        let gate = |candidate: u64| {
            let report =
                compare_envelopes(&steals(1_000), &steals(candidate), &GateConfig::default());
            report.unwrap().diffs[0].verdict
        };
        assert_eq!(gate(1_000), Verdict::Within);
        assert_eq!(gate(1_001), Verdict::Regressed);
        assert_eq!(gate(999), Verdict::Regressed);
    }

    #[test]
    fn overhead_gates_on_absolute_point_drift() {
        let ov = |v: f64| {
            envelope(
                "e16",
                serde_json::from_str(&format!(
                    "{{\"overhead\":{{\"telemetry_overhead_pct\":{v}}}}}"
                ))
                .unwrap(),
            )
        };
        let cfg = GateConfig::default();
        let base = ov(4.0);
        // +8 points: inside the 10-point absolute band (even though it
        // is a 3× relative increase).
        assert!(compare_envelopes(&base, &ov(12.0), &cfg).unwrap().ok());
        // +15 points: a real overhead regression.
        let report = compare_envelopes(&base, &ov(19.0), &cfg).unwrap();
        assert!(!report.ok());
        assert_eq!(report.regressions()[0].class, MetricClass::Overhead);
        // Negative overhead (timer noise at tiny scales) never trips.
        assert!(compare_envelopes(&base, &ov(-3.0), &cfg).unwrap().ok());
    }

    #[test]
    fn identical_envelopes_pass() {
        let a = envelope("e6", results(0.02, 1900.0));
        let report = compare_envelopes(&a, &a, &GateConfig::default()).unwrap();
        assert!(report.ok());
        assert!(report.regressions().is_empty());
        assert_eq!(report.diffs.len(), 3);
        assert!(report.diffs.iter().all(|d| d.verdict == Verdict::Within));
        let json = report.to_json();
        assert_eq!(json.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            json.get("schema").and_then(Value::as_str),
            Some(GATE_SCHEMA)
        );
    }

    #[test]
    fn miss_ratio_regression_fails() {
        let base = envelope("e6", results(0.05, 1900.0));
        // +40 % miss ratio: well past the 10 % relative tolerance.
        let cand = envelope("e6", results(0.07, 1900.0));
        let report = compare_envelopes(&base, &cand, &GateConfig::default()).unwrap();
        assert!(!report.ok());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "pool.miss_ratio");
        assert_eq!(regs[0].class, MetricClass::MissRatio);
        assert!(regs[0].rel_change.unwrap() > 0.10);
        assert!(report.summary().contains("FAIL"));
    }

    #[test]
    fn latency_tolerance_is_fifteen_percent() {
        let base = envelope("e6", results(0.0, 1000.0));
        let within = envelope("e6", results(0.0, 1100.0));
        let beyond = envelope("e6", results(0.0, 1200.0));
        let cfg = GateConfig::default();
        assert!(compare_envelopes(&base, &within, &cfg).unwrap().ok());
        assert!(!compare_envelopes(&base, &beyond, &cfg).unwrap().ok());
    }

    #[test]
    fn zero_baseline_uses_absolute_floor() {
        let base = envelope("e6", results(0.0, 1000.0));
        // A 0.004 absolute bump on a zero baseline stays under the
        // 0.005 floor; 0.04 does not.
        let dust = envelope("e6", results(0.004, 1000.0));
        let real = envelope("e6", results(0.04, 1000.0));
        let cfg = GateConfig::default();
        assert!(compare_envelopes(&base, &dust, &cfg).unwrap().ok());
        assert!(!compare_envelopes(&base, &real, &cfg).unwrap().ok());
    }

    #[test]
    fn improvements_and_info_changes_pass() {
        let base = envelope("e6", results(0.05, 2000.0));
        // Better miss ratio and latency; the info-class `servers`
        // metric moves arbitrarily (8 → 64) without tripping the gate.
        let cand = envelope(
            "e6",
            serde_json::from_str(
                "{\"pool\":{\"miss_ratio\":0.01,\"latency\":{\"p99_us\":1000.0}},\
                  \"meta_note\":{\"servers\":64}}",
            )
            .unwrap(),
        );
        let report = compare_envelopes(&base, &cand, &GateConfig::default()).unwrap();
        assert!(report.ok());
        assert!(report.diffs.iter().any(|d| d.verdict == Verdict::Improved));
    }

    #[test]
    fn missing_metric_is_a_regression_and_added_is_surfaced() {
        let base = envelope("e6", results(0.0, 1000.0));
        let cand = envelope(
            "e6",
            serde_json::from_str("{\"pool\":{\"miss_ratio\":0.0},\"fresh\":1}").unwrap(),
        );
        let report = compare_envelopes(&base, &cand, &GateConfig::default()).unwrap();
        assert!(!report.ok());
        assert!(report
            .regressions()
            .iter()
            .any(|d| d.verdict == Verdict::Missing));
        assert_eq!(report.added, vec!["fresh".to_string()]);
    }

    #[test]
    fn throughput_floor_gates_drops_not_gains() {
        let tput = |v: f64| {
            envelope(
                "e15",
                serde_json::from_str(&format!("{{\"headline\":{{\"tasks_per_sec\":{v}}}}}"))
                    .unwrap(),
            )
        };
        let cfg = GateConfig::default();
        let base = tput(5.0e6);
        // 8 % drop: within the 10 % floor.
        let report = compare_envelopes(&base, &tput(4.6e6), &cfg).unwrap();
        assert!(report.ok());
        assert!(report.diffs.iter().all(|d| d.verdict == Verdict::Within));
        // 20 % drop: regressed — the direction is inverted vs latency.
        let report = compare_envelopes(&base, &tput(4.0e6), &cfg).unwrap();
        assert!(!report.ok());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "headline.tasks_per_sec");
        assert_eq!(regs[0].class, MetricClass::Throughput);
        // 2× speedup: improved, never a regression. The next baseline
        // commit ratchets the floor up to the new value.
        let report = compare_envelopes(&base, &tput(1.0e7), &cfg).unwrap();
        assert!(report.ok());
        assert!(report.diffs.iter().any(|d| d.verdict == Verdict::Improved));
    }

    #[test]
    fn envelope_checks() {
        let good = envelope("e6", results(0.0, 1.0));
        let mut obj = Map::new();
        obj.insert("experiment".into(), Value::String("e6".into()));
        obj.insert("schema".into(), Value::String("pran-bench/9".into()));
        obj.insert("results".into(), results(0.0, 1.0));
        let bad_schema = Value::Object(obj);
        assert!(compare_envelopes(&bad_schema, &good, &GateConfig::default()).is_err());
        let other = envelope("e7", results(0.0, 1.0));
        assert!(compare_envelopes(&good, &other, &GateConfig::default()).is_err());
    }
}
