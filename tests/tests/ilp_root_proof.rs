//! How far the exact placer's proof before the LP reaches, read from the
//! `sched.ilp` span each `ilp::solve` emits. A bound that silently stops
//! closing roots leaves every answer as it was, so only the span's pivot
//! count shows it. This binary holds one test: no other solve may land in
//! the tracer while it records.

use pran_integration_tests::{library_instance, library_limits, lock_tracer, LIBRARY_SIZE};
use pran_sched::placement::ilp;
use pran_telemetry::TelemetryConfig;

/// Every library root but instance 16's is closed without a pivot;
/// instance 16's optimum is one server below first fit's, so its search
/// runs on LPs.
#[test]
fn the_bound_closes_every_library_root_first_fit_meets() {
    let _guard = lock_tracer();
    pran_telemetry::configure(TelemetryConfig::full());
    for i in 0..LIBRARY_SIZE {
        ilp::solve(&library_instance(i), &library_limits());
    }
    let events = pran_telemetry::trace::drain();
    pran_telemetry::disable();
    let pivots: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "sched.ilp")
        .map(|e| e.field_u64("lp_iterations").expect("pivot count"))
        .collect();
    assert_eq!(pivots.len(), LIBRARY_SIZE);
    let closed: Vec<usize> = (0..LIBRARY_SIZE).filter(|&i| pivots[i] == 0).collect();
    assert_eq!(
        closed.len(),
        LIBRARY_SIZE - 1,
        "closed before the LP: {closed:?}"
    );
    assert!(pivots[16] > 0, "instance 16: {} pivots", pivots[16]);
}
