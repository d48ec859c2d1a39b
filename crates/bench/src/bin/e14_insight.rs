//! E14 — the insight pipeline under injected chaos: does the online SLO
//! monitor see what the post-hoc chaos invariants prove?
//!
//! The chaos harness gives ground truth: `run_scenario` checks every
//! epoch against the safety envelope and reports violations after the
//! fact. The `pran-insight` SLO monitor rides inside the same data
//! plane and raises edge-triggered alerts *during* the run. This
//! experiment measures how well the online signal predicts the offline
//! verdict:
//!
//! - **Phase 1 (clean)** — sampled fault schedules at stock bounds must
//!   produce zero invariant violations; any SLO alerts raised are the
//!   monitor's false-alarm envelope under tolerable faults.
//! - **Phase 2 (stressed)** — the outage bound, which the chaos
//!   invariant and the SLO monitor both read, is tightened to 10 ms, well
//!   below the 50 ms failover price, so every crash outage is at once a violation
//!   and an alertable breach — while the bound stays *nonzero* so the
//!   monitor's trigger/clear ratios act on a real base in the sweep below.
//!   Server capacity is also tightened so placement spreads across the
//!   pool and crashes actually displace cells in the data plane.
//!   Per-scenario agreement yields a confusion matrix and alert
//!   precision/recall.
//! - **Traced demo** — one stressed scenario reruns with simulated-clock
//!   tracing on: `insight.alert` and `chaos.violation` events land in
//!   `results/e14_insight.trace.jsonl` (validated against the exporter
//!   schema) and the metrics registry renders in OpenMetrics text.
//!
//! Exit status is non-zero on phase-1 violations, a stressed phase with
//! no true positives, or an invalid trace.

use std::process::ExitCode;
use std::time::Duration;

use bench::Report;
use pran::SystemConfig;
use pran_chaos::{run_scenario, sample_scenario, ExploreConfig, InvariantKind};
use pran_insight::SloMetric;

fn main() -> ExitCode {
    let scenarios = 24usize;
    let seed = 0xE14u64;

    println!("E14: online SLO alerts vs chaos ground truth ({scenarios} scenarios)\n");
    let cfg = ExploreConfig::default_eval(scenarios, seed);
    let mut sys = SystemConfig::default_eval(cfg.servers);
    // Chaos schedules inject fronthaul transport loss by design; lost
    // reports are the fault being studied, not an SLO incident, so that
    // objective is waived for this experiment.
    sys.slo.reports_lost_max = u64::MAX;

    // --- phase 1: stock bounds — zero violations, alerts are noise ---
    println!("== phase 1: stock bounds (outage ≤ 200 ms, miss ratio ≤ 1%) ==");
    let mut clean_violations = 0usize;
    let mut clean_alert_scenarios = 0usize;
    let mut clean_alerts_by_metric = vec![0usize; SloMetric::all().len()];
    for index in 0..scenarios {
        let scenario = sample_scenario(&cfg, index);
        let report = run_scenario(&scenario, &sys).expect("sampled schedule runs");
        clean_violations += report.violations.len();
        if !report.alerts.is_empty() {
            clean_alert_scenarios += 1;
        }
        for alert in &report.alerts {
            for (i, m) in SloMetric::all().into_iter().enumerate() {
                if alert.metric == m {
                    clean_alerts_by_metric[i] += 1;
                }
            }
        }
    }
    let phase1_ok = clean_violations == 0;
    println!(
        "{scenarios} scenarios: {clean_violations} invariant violations, \
         {clean_alert_scenarios} scenarios raised SLO alerts"
    );

    // --- phase 2: 10 ms outage tolerance, invariant and monitor alike ---
    // Below the 50 ms failover price, so any crash that displaces a cell
    // both violates the invariant and breaches the SLO — but nonzero, so
    // `trigger_ratio`/`clear_ratio` scale a real threshold instead of
    // degenerating to "any sample at all" (a zero bound pinned the old
    // sweep: every knob combination saw the same alert set).
    const STRESS_BOUND: Duration = Duration::from_millis(10);
    println!("\n== phase 2: outage bound 10 ms — alert vs violation agreement ==");
    let mut tight = sys.clone();
    tight.slo.outage_p99_max = STRESS_BOUND;
    // At the stock 400 GOPS the data-plane pool packs every cell onto
    // one server, so crashes of the other seven displace nothing, record
    // no outage samples, and leave the online monitor structurally blind
    // (recall was capped at 0.400). 100 GOPS forces placement to spread,
    // making most crashes hit a hosting server in *both* planes; the
    // residual misses are genuine control-vs-data placement divergence,
    // which is the gap this experiment is supposed to measure.
    tight.pool.capacity_gops = 100.0;
    let (mut tp, mut fp, mut fneg, mut tn) = (0usize, 0usize, 0usize, 0usize);
    let mut traced_index = None;
    for index in 0..scenarios {
        let scenario = sample_scenario(&cfg, index);
        let report = run_scenario(&scenario, &tight).expect("sampled schedule runs");
        let violated = report
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::OutageExceeded);
        let alerted = report
            .alerts
            .iter()
            .any(|a| a.metric == SloMetric::OutageP99);
        match (violated, alerted) {
            (true, true) => {
                tp += 1;
                traced_index.get_or_insert(index);
            }
            (false, true) => fp += 1,
            (true, false) => fneg += 1,
            (false, false) => tn += 1,
        }
    }
    let precision = (tp + fp > 0).then(|| tp as f64 / (tp + fp) as f64);
    let recall = (tp + fneg > 0).then(|| tp as f64 / (tp + fneg) as f64);
    println!(
        "{scenarios} scenarios: {tp} alerted and violated, {fp} alerted only, {fneg} violated only"
    );
    let phase2_ok = tp > 0;

    // --- sensitivity sweep: hysteresis ratios ---
    // The monitor judges each epoch's raw value: the trigger ratio scales
    // the threshold a value must pass to alert, and the clear ratio the
    // level it must fall to before the metric re-arms, so the sweep maps
    // how those two knobs trade recall against false alarms.
    //
    // 0.400 is the historical regression floor: stock recall back when
    // the stressed phase ran at 400 GOPS (all cells packed on one
    // server, so most crashes were invisible to the data plane), the
    // outage bound was zero (ratio knobs inert), and the pool
    // simulator recorded no outage samples for stranded
    // (displaced-but-unreplaced) cells. The sweep records whether the
    // best combination still clears that floor.
    const BASELINE_RECALL: f64 = 0.400;
    println!("\n== sensitivity sweep: trigger/clear ratios ==");
    let mut sweep_rows = Vec::new();
    let mut best_recall = 0.0f64;
    for (trigger_ratio, clear_ratio) in [
        (1.0, 1.0),  // stock (the phase-2 confusion matrix above)
        (0.5, 0.25), // hair trigger
        (2.0, 0.5),  // damping: threshold 20 ms, still < failover price
        (10.0, 0.5), // threshold 100 ms > the 50 ms failover price:
                     // only stranded cells (outage runs to the next
                     // epoch) can trip it. Zero recall here means the
                     // repack re-placed every displaced cell in these
                     // schedules — and proves the ratio knob actually
                     // moves the operating point (it was inert when
                     // the bound was zero).
    ] {
        let mut swept = tight.clone();
        swept.slo.trigger_ratio = trigger_ratio;
        swept.slo.clear_ratio = clear_ratio;
        let (mut s_tp, mut s_fp, mut s_fn) = (0usize, 0usize, 0usize);
        for index in 0..scenarios {
            let scenario = sample_scenario(&cfg, index);
            let report = run_scenario(&scenario, &swept).expect("swept schedule runs");
            let violated = report
                .violations
                .iter()
                .any(|v| v.kind == InvariantKind::OutageExceeded);
            let alerted = report
                .alerts
                .iter()
                .any(|a| a.metric == SloMetric::OutageP99);
            match (violated, alerted) {
                (true, true) => s_tp += 1,
                (false, true) => s_fp += 1,
                (true, false) => s_fn += 1,
                (false, false) => {}
            }
        }
        let s_recall = if s_tp + s_fn > 0 {
            s_tp as f64 / (s_tp + s_fn) as f64
        } else {
            0.0
        };
        best_recall = best_recall.max(s_recall);
        sweep_rows.push(serde_json::json!({
            "trigger_ratio": trigger_ratio,
            "clear_ratio": clear_ratio,
            "true_positives": s_tp,
            "false_positives": s_fp,
            "false_negatives": s_fn,
            "recall": s_recall,
        }));
    }
    println!(
        "best sweep recall {best_recall:.3} vs {BASELINE_RECALL:.3} stock baseline \
         (improved: {})",
        best_recall > BASELINE_RECALL
    );

    // --- traced demo: one stressed scenario with telemetry on ---
    let Some(index) = traced_index else {
        eprintln!("no scenario was both violated and alerted — sampler drifted?");
        return ExitCode::FAILURE;
    };
    println!("\n== traced demo: scenario {index} with sim tracing on ==");
    pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
    pran_telemetry::metrics::global().clear();
    let scenario = sample_scenario(&cfg, index);
    let traced = run_scenario(&scenario, &tight).expect("traced schedule runs");
    println!(
        "{} violation(s), {} alert(s) — first alert: {} at epoch {}",
        traced.violations.len(),
        traced.alerts.len(),
        traced
            .alerts
            .first()
            .map(|a| a.metric.label())
            .unwrap_or("-"),
        traced.alerts.first().map(|a| a.epoch).unwrap_or(0),
    );
    let snapshot = pran_telemetry::metrics::global().snapshot();
    let openmetrics = pran_insight::openmetrics::render(&snapshot);
    println!("\n-- OpenMetrics exposition (first lines) --");
    for line in openmetrics.lines().take(8) {
        println!("{line}");
    }
    println!("... ({} lines total)", openmetrics.lines().count());

    Report::new("e14_insight")
        .meta("scenarios", serde_json::json!(scenarios))
        .meta("seed", serde_json::json!(seed))
        .meta("cells", serde_json::json!(cfg.cells))
        .meta("servers", serde_json::json!(cfg.servers))
        .meta("horizon_s", serde_json::json!(cfg.horizon.as_secs()))
        .section(
            "clean",
            serde_json::json!({
                "chaos_violations": clean_violations,
                "scenarios_with_alerts": clean_alert_scenarios,
                "alerts_by_metric": SloMetric::all()
                    .into_iter()
                    .enumerate()
                    .map(|(i, m)| {
                        serde_json::json!({"metric": m.label(), "count": clean_alerts_by_metric[i]})
                    })
                    .collect::<Vec<_>>(),
            }),
        )
        .section(
            "stressed",
            serde_json::json!({
                "true_positives": tp,
                "false_positives": fp,
                "false_negatives": fneg,
                "true_negatives": tn,
                "precision": precision,
                "recall": recall,
            }),
        )
        .section(
            "sensitivity_sweep",
            serde_json::json!({
                "baseline_recall": BASELINE_RECALL,
                "best_recall": best_recall,
                "recall_improved": best_recall > BASELINE_RECALL,
                "grid": sweep_rows,
            }),
        )
        .section(
            "traced_demo",
            serde_json::json!({
                "scenario": index,
                "violations": traced.violations.len(),
                "alerts": traced.alerts.len(),
                "openmetrics_lines": openmetrics.lines().count(),
            }),
        )
        .save();

    // The flushed trace must conform to the exporter schema, including
    // its `chaos.violation` and `insight.alert` events.
    let path = "results/e14_insight.trace.jsonl";
    let text = std::fs::read_to_string(path).expect("traced run must write a trace");
    match pran_telemetry::export::validate_jsonl(&text) {
        Ok(n) => println!("[trace validated: {n} events conform to the exporter schema]"),
        Err(e) => {
            eprintln!("trace validation failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let has_alert = text.contains("\"name\":\"insight.alert\"");
    let has_violation = text.contains("\"name\":\"chaos.violation\"");
    println!("[trace carries insight.alert: {has_alert}, chaos.violation: {has_violation}]");

    if phase1_ok && phase2_ok && has_alert && has_violation {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "E14 FAILED: phase1_ok={phase1_ok} phase2_ok={phase2_ok} \
             has_alert={has_alert} has_violation={has_violation}"
        );
        ExitCode::FAILURE
    }
}
