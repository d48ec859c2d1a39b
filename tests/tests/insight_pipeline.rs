//! The insight pipeline end to end: record (telemetry) → analyze
//! (`pran-insight`).
//!
//! Critical-path attribution of every missed deadline in a seeded E6 run
//! must sum to the measured subframe latency within 1 µs.

use std::sync::Mutex;
use std::time::Duration;

use pran_insight::slo::SloMetric;
use pran_insight::spans::{attribution_table, critical_paths, DEFAULT_BUDGET_US};
use pran_sched::realtime::workload::{generate, TaskSetConfig};
use pran_sched::realtime::{ParallelConfig, ParallelExecutor};
use pran_telemetry::export::{self, parse_jsonl};
use pran_telemetry::{Subframe, TelemetryConfig};

/// The tracer is process-global; tests that reconfigure it must not
/// interleave.
static TRACER: Mutex<()> = Mutex::new(());

/// Trace the workload of `e6_deadlines --sample` (same generator, same
/// seed) through `executor`, check every missed subframe's critical path
/// partitions its measured latency exactly, and return the per-stage
/// totals in `STAGE_NAMES` order.
fn exact_attribution_totals(executor: ParallelConfig) -> [(&'static str, u64); 4] {
    let _guard = TRACER.lock().unwrap();
    pran_telemetry::configure(TelemetryConfig::sim());
    let mut cfg = TaskSetConfig::default_eval(8, 100, 4, 0.9);
    cfg.seed = 0xE6;
    let set = generate(&cfg);
    let out = ParallelExecutor::new(executor).execute(&set.tasks);
    let events = pran_telemetry::trace::drain();
    pran_telemetry::disable();
    assert!(out.miss_ratio() > 0.0, "the seeded run must miss deadlines");

    // Analyze through the exported artifact, exactly as the CLI does.
    let jsonl = export::to_jsonl(&events);
    let parsed = parse_jsonl(&jsonl).expect("exported trace parses back");
    let paths = critical_paths(&parsed, DEFAULT_BUDGET_US);

    // Every missed subframe in the trace gets a critical path.
    let misses = parsed
        .iter()
        .filter_map(|e| Subframe::decode(e)?.ok())
        .filter(Subframe::missed)
        .count();
    assert!(misses > 0);
    assert_eq!(paths.len(), misses);

    for p in &paths {
        // The four stages partition [arrival, finish]: contiguous, in
        // order, and their sum equals the measured latency within 1 µs
        // (exactly, in fact — everything is integer microseconds).
        assert_eq!(p.stages.len(), 4);
        assert_eq!(p.stages[0].from_us, p.arrival_us);
        for w in p.stages.windows(2) {
            assert_eq!(w[0].to_us, w[1].from_us, "stages must be contiguous");
        }
        assert_eq!(p.stages.last().unwrap().to_us, p.finish_us);
        let attributed = p.attributed_us();
        assert!(
            attributed.abs_diff(p.latency_us) <= 1,
            "attribution {attributed} µs must match latency {} µs",
            p.latency_us
        );
        assert_eq!(attributed, p.latency_us);
        assert!(p.finish_us > p.deadline_us);
        assert_eq!(p.overshoot_us, p.finish_us - p.deadline_us);
    }

    // Aggregate attribution is consistent with the per-path sums.
    let totals = pran_insight::spans::attribution_totals(&paths);
    let total_attributed: u64 = totals.iter().map(|(_, us)| us).sum();
    let total_latency: u64 = paths.iter().map(|p| p.latency_us).sum();
    assert_eq!(total_attributed, total_latency);
    totals
}

#[test]
fn critical_path_attribution_is_exact_for_the_seeded_e6_run() {
    let totals = exact_attribution_totals(ParallelConfig {
        cores: 4,
        batch: 1,
        steal: false,
    });
    assert_eq!(totals[2], ("steal", 0), "a pinned run steals nothing");
}

#[test]
fn critical_path_attribution_is_exact_with_stealing_on() {
    // Tasks behind the first of a stolen 4-task batch wait out their
    // predecessors on the thief: that wait is the steal stage.
    let totals = exact_attribution_totals(ParallelConfig::default_eval());
    assert_eq!(totals[2].0, "steal");
    assert!(totals[2].1 > 0, "no missed task sat in a stolen batch");
}

/// The record the read-side copies used to disagree on (it finishes
/// before its release): it passed validation, then overflowed the queue
/// stage — a debug-build panic, an 18-quintillion-µs stage in release.
/// CI runs `telemetry_check` on the same fixture expecting a failure.
#[test]
fn hostile_subframe_is_rejected_and_never_attributed() {
    let text = include_str!("../fixtures/hostile_subframe.jsonl");
    let err = export::validate_jsonl(text).expect_err("the hostile line must not validate");
    assert!(err.starts_with("line 1:"), "{err}");
    assert!(export::breakdown_from_jsonl(text).is_err());
    let parsed = parse_jsonl(text).expect("the line itself is well-formed");
    let paths = critical_paths(&parsed, DEFAULT_BUDGET_US);
    assert!(paths.is_empty());
    assert!(attribution_table(&paths).contains("no deadline misses"));
}

#[test]
fn chaos_harness_surfaces_slo_alerts_alongside_violations() {
    let _guard = TRACER.lock().unwrap();
    pran_telemetry::disable();
    // One stressed scenario: zero outage tolerance, the one bound the
    // chaos invariant and the SLO monitor both read, so a crash that
    // charges any outage is a violation the monitor must also alert on.
    let cfg = pran_chaos::ExploreConfig::default_eval(24, 0xE14);
    let mut sys = pran::SystemConfig::default_eval(cfg.servers);
    sys.slo.reports_lost_max = u64::MAX;
    sys.slo.outage_p99_max = Duration::ZERO;
    let reports: Vec<_> = (0..cfg.schedules)
        .map(|i| pran_chaos::run_scenario(&pran_chaos::sample_scenario(&cfg, i), &sys).unwrap())
        .collect();
    let alerted: Vec<_> = reports
        .iter()
        .filter(|r| r.alerts.iter().any(|a| a.metric == SloMetric::OutageP99))
        .collect();
    assert!(
        !alerted.is_empty(),
        "some sampled schedule must raise an online outage alert"
    );
    // Every online outage alert corresponds to a proven invariant
    // violation — the monitor's precision on this seeded sweep is 1.
    for report in &alerted {
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == pran_chaos::InvariantKind::OutageExceeded),
            "an outage alert without an outage violation is a false positive"
        );
        let alert = report
            .alerts
            .iter()
            .find(|a| a.metric == SloMetric::OutageP99)
            .unwrap();
        assert!(alert.value > 0.0);
        assert_eq!(alert.threshold, 0.0);
    }
}
