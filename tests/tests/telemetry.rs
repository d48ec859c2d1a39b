//! Cross-crate telemetry integration: a pooled simulation traced under the
//! simulated clock must export deterministically, and the export must
//! reconstruct the per-subframe latency breakdown. Gauges and traces
//! carry the epoch's own values and its 0-based index.

use std::time::Duration;

use pran_integration_tests::lock_tracer;

use pran::{Controller, SystemConfig};
use pran_sched::realtime::ParallelConfig;
use pran_sim::{FailureSpec, PoolConfig, PoolSimulator};
use pran_telemetry::metrics::InstrumentValue;
use pran_telemetry::{export, TelemetryConfig, TraceEvent};
use pran_traces::{generate, TraceConfig};

/// Run a small pooled simulation with sim-clock tracing on and return the
/// captured events. The parallel executor emits its `rt.steal` and
/// `subframe` events in schedule order from the calling thread, so
/// same-seed runs must trace identically, stealing or not.
fn traced_pool_run(steal: bool) -> Vec<TraceEvent> {
    pran_telemetry::configure(TelemetryConfig::sim());
    let mut tcfg = TraceConfig::default_day(10, 77);
    tcfg.duration_seconds = 2.0 * 3600.0;
    tcfg.step_seconds = 600.0;
    let trace = generate(&tcfg);
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 4;
    cfg.parallel = Some(ParallelConfig {
        cores: 4,
        batch: 1,
        steal,
    });
    let mut sim = PoolSimulator::new(trace, cfg);
    let report = sim.run();
    assert!(report.metrics.tasks_total > 0, "simulation must do work");
    pran_telemetry::trace::drain()
}

#[test]
fn identical_runs_export_byte_identical_traces() {
    let _guard = lock_tracer();
    for steal in [false, true] {
        let a = export::to_jsonl(&traced_pool_run(steal));
        let b = export::to_jsonl(&traced_pool_run(steal));
        assert!(!a.is_empty(), "trace must capture events");
        assert_eq!(a.contains("rt.steal"), steal, "steal events iff stealing");
        assert_eq!(a, b, "same-seed runs must trace byte-identically");
    }
    pran_telemetry::disable();
}

#[test]
fn trace_round_trips_through_jsonl_and_reconstructs_breakdown() {
    let _guard = lock_tracer();
    let events = traced_pool_run(false);
    pran_telemetry::disable();
    let jsonl = export::to_jsonl(&events);
    let lines = export::validate_jsonl(&jsonl).expect("exported trace must validate");
    assert_eq!(lines, events.len());

    // The breakdown rebuilt from the serialized form must agree with the
    // one computed from the in-memory events.
    let direct = export::subframe_breakdown(&events);
    let rebuilt = export::breakdown_from_jsonl(&jsonl).expect("breakdown from jsonl");
    assert!(direct.tasks > 0, "pool run must emit subframe events");
    assert_eq!(direct.tasks, rebuilt.tasks);
    assert_eq!(direct.misses, rebuilt.misses);
    assert_eq!(direct.queue, rebuilt.queue);
    assert_eq!(direct.service, rebuilt.service);
    assert_eq!(direct.slack, rebuilt.slack);

    // Sanity on the reconstruction itself: every on-time task has slack
    // within the 2 ms HARQ compute budget.
    assert_eq!(direct.queue.count(), direct.tasks);
    assert!(direct.slack.max() <= Duration::from_millis(2));
}

#[test]
fn disabled_telemetry_captures_nothing_from_a_pool_run() {
    let _guard = lock_tracer();
    pran_telemetry::configure(TelemetryConfig::disabled());
    let mut tcfg = TraceConfig::default_day(5, 7);
    tcfg.duration_seconds = 3600.0;
    tcfg.step_seconds = 600.0;
    let mut sim = PoolSimulator::new(generate(&tcfg), PoolConfig::default_eval(4));
    let _ = sim.run();
    assert!(pran_telemetry::trace::drain().is_empty());
}

#[test]
fn pool_gauges_carry_the_last_epochs_own_values() {
    let _guard = lock_tracer();
    pran_telemetry::configure(TelemetryConfig::sim());
    let registry = pran_telemetry::metrics::global();
    registry.clear();
    let mut tcfg = TraceConfig::default_day(24, 4);
    tcfg.duration_seconds = 2.0 * 3600.0;
    tcfg.step_seconds = 120.0;
    let mut cfg = PoolConfig::default_eval(2);
    cfg.server_capacity_gops = 600.0;
    cfg.epoch_steps = 2;
    let mut sim = PoolSimulator::new(generate(&tcfg), cfg);
    // Server 1 of 2 is down when epoch 2 is placed: a lossy epoch, then
    // clean ones to the end of the run.
    sim.inject_failure(FailureSpec {
        server: 1,
        at: Duration::from_secs(300),
        recover_after: Some(Duration::from_secs(400)),
    });
    let report = sim.run();
    pran_telemetry::disable();
    pran_telemetry::trace::drain();
    assert!(report.metrics.tasks_lost > 0, "the failure must lose tasks");
    let gauge = |name: &str| {
        let snapshot = registry.snapshot();
        match snapshot.instruments.iter().find(|i| i.name == name) {
            Some(i) => match i.value {
                InstrumentValue::Gauge(g) => g,
                _ => panic!("{name} is not a gauge"),
            },
            None => panic!("no {name} gauge"),
        }
    };
    assert_eq!(gauge("pool.miss_ratio"), 0.0, "the last epoch's ratio");
    assert_eq!(gauge("pool.reports_lost"), 0.0);
    registry.clear();
}

#[test]
fn controller_traces_the_epoch_index() {
    let _guard = lock_tracer();
    pran_telemetry::configure(TelemetryConfig::sim());
    let mut ctl = Controller::new(SystemConfig::default_eval(2));
    let cell = ctl.register_cell();
    ctl.report_load(cell, 0.5).expect("registered");
    let reports: Vec<u64> = (0..2)
        .map(|t| ctl.run_epoch(Duration::from_secs(60 * t)).epoch)
        .collect();
    pran_telemetry::disable();
    let traced: Vec<u64> = pran_telemetry::trace::drain()
        .iter()
        .filter(|e| e.name == "ctrl.epoch")
        .filter_map(|e| e.field_u64("epoch"))
        .collect();
    assert_eq!(traced, [0, 1], "the 0-based index");
    assert_eq!(reports, [1, 2], "the count");
}
