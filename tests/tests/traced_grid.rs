//! Grid dispatch with the buffered tracer on.
//!
//! An ideal fronthaul with no executor takes the grid path
//! (`realtime::dispatch_grid`) whether or not the tracer is on; traced,
//! the grid emits each task's `subframe` event itself, in the order
//! `simulate_into` emits the expanded batch's. The tests crate's oracle
//! (`pran_integration_tests::reference`, run through
//! `PoolSimulator::run_with`) expands every task and dispatches through
//! `simulate`, so the two must drain the same event sequence and report
//! the same metrics — on a healthy pool and on an overloaded one whose
//! TTIs carry core clocks over, replay TTI 0 and miss.
//!
//! The tracer is process-global, so this binary holds one test.

use pran_integration_tests::reference;
use pran_sim::{PoolConfig, PoolSimulator, SimReport};
use pran_telemetry::{Subframe, TelemetryConfig, TraceEvent};
use pran_traces::{generate, Trace, TraceConfig};

fn trace(cells: usize, seed: u64) -> Trace {
    let mut cfg = TraceConfig::default_day(cells, seed);
    cfg.duration_seconds = 2.0 * 3600.0;
    cfg.step_seconds = 120.0;
    generate(&cfg)
}

/// One traced run, the hot path or the oracle: its report and the
/// events it left in the tracer.
fn traced(cfg: &PoolConfig, reference: bool) -> (SimReport, Vec<TraceEvent>) {
    pran_telemetry::configure(TelemetryConfig::sim());
    let mut sim = PoolSimulator::new(trace(40, 42), cfg.clone());
    let report = if reference {
        reference::run(&mut sim)
    } else {
        sim.run()
    };
    (report, pran_telemetry::trace::drain())
}

#[test]
fn traced_grid_emits_what_the_expanded_batch_emits() {
    for (headroom, ttis) in [(1.1, 4), (0.3, 7)] {
        let mut cfg = PoolConfig::default_eval(6);
        cfg.headroom = headroom;
        cfg.ttis_per_step = ttis;
        let label = format!("headroom {headroom}, {ttis} TTIs per step");
        let (grid, grid_events) = traced(&cfg, false);
        let (reference, reference_events) = traced(&cfg, true);
        assert_eq!(
            serde_json::to_string(&grid).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "{label}: reports disagree"
        );
        let subframes = grid_events
            .iter()
            .filter(|e| Subframe::decode(*e).is_some())
            .count() as u64;
        let metrics = &grid.metrics;
        assert_eq!(
            subframes,
            metrics.tasks_total - metrics.tasks_lost,
            "{label}: one subframe event per executed task"
        );
        assert_eq!(
            metrics.deadline_misses > 0,
            headroom < 1.0,
            "{label}: misses only when overloaded"
        );
        let first_difference =
            (grid_events.iter().zip(&reference_events)).position(|(a, b)| a != b);
        assert!(
            grid_events.len() == reference_events.len() && first_difference.is_none(),
            "{label}: {} events against {}, first difference at {first_difference:?}",
            grid_events.len(),
            reference_events.len()
        );
    }
    pran_telemetry::disable();
}
