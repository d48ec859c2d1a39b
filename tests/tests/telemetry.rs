//! Cross-crate telemetry integration: a pooled simulation traced under the
//! simulated clock must export deterministically, and the export must
//! reconstruct the per-subframe latency breakdown.

use std::sync::Mutex;
use std::time::Duration;

use pran_sched::realtime::ParallelConfig;
use pran_sim::{PoolConfig, PoolSimulator};
use pran_telemetry::{export, TelemetryConfig, TraceEvent};
use pran_traces::{generate, TraceConfig};

/// The tracer is process-global; tests that reconfigure it must not
/// interleave.
static TRACER: Mutex<()> = Mutex::new(());

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
    let _guard = TRACER.lock().unwrap();
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
    let _guard = TRACER.lock().unwrap();
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
    let _guard = TRACER.lock().unwrap();
    pran_telemetry::configure(TelemetryConfig::disabled());
    let mut tcfg = TraceConfig::default_day(5, 7);
    tcfg.duration_seconds = 3600.0;
    tcfg.step_seconds = 600.0;
    let mut sim = PoolSimulator::new(generate(&tcfg), PoolConfig::default_eval(4));
    let _ = sim.run();
    assert!(pran_telemetry::trace::drain().is_empty());
}
