//! How far the exact placer's proof before the model reaches, read from
//! the `sched.ilp` span each `ilp::solve` emits. A bound that silently
//! stops closing roots, or a proof that starts building the model again,
//! leaves every answer as it was, so only the span's pivot count and its
//! presolve fields (present only where a model was presolved) show it.
//! Every test here holds the tracer lock across its solves: no other
//! solve may land in the tracer while one records.

use pran_integration_tests::{library_instance, library_limits, lock_tracer, LIBRARY_SIZE};
use pran_sched::placement::ilp;
use pran_telemetry::trace::MAX_FIELDS;
use pran_telemetry::TelemetryConfig;

/// Every library root but instance 16's is closed without a pivot and
/// without a model; instance 16's optimum is one server below first
/// fit's, so its search builds the model and runs on LPs.
#[test]
fn the_bound_closes_every_library_root_first_fit_meets() {
    let _guard = lock_tracer();
    pran_telemetry::configure(TelemetryConfig::full());
    for i in 0..LIBRARY_SIZE {
        ilp::solve(&library_instance(i), &library_limits());
    }
    let events = pran_telemetry::trace::drain();
    pran_telemetry::disable();
    let solves: Vec<(u64, bool)> = events
        .iter()
        .filter(|e| e.name == "sched.ilp")
        .map(|e| {
            let pivots = e.field_u64("lp_iterations").expect("pivot count");
            (pivots, e.field_u64("presolve_vars_fixed").is_some())
        })
        .collect();
    assert_eq!(solves.len(), LIBRARY_SIZE);
    let closed: Vec<usize> = (0..LIBRARY_SIZE).filter(|&i| solves[i].0 == 0).collect();
    assert_eq!(
        closed.len(),
        LIBRARY_SIZE - 1,
        "closed before the LP: {closed:?}"
    );
    let modelled: Vec<usize> = (0..LIBRARY_SIZE).filter(|&i| solves[i].1).collect();
    assert_eq!(modelled, [16], "solves that built a model");
    assert!(solves[16].0 > 0, "instance 16: {} pivots", solves[16].0);
}

/// A solve that builds the model and holds an incumbent fills every field
/// an event has (`dur_us`, six solve fields, three presolve counts, the
/// bound and the gap), so one more field would cost it the last: the
/// span must still carry `gap`.
#[test]
fn a_model_solving_span_still_carries_its_gap() {
    let _guard = lock_tracer();
    pran_telemetry::configure(TelemetryConfig::full());
    let solved = ilp::solve(&library_instance(16), &library_limits());
    assert!(
        solved.optimal && solved.presolve.is_some(),
        "a proven model solve"
    );
    let events = pran_telemetry::trace::drain();
    pran_telemetry::disable();
    let span = events
        .iter()
        .find(|e| e.name == "sched.ilp")
        .expect("the solve emits its span");
    assert_eq!(span.fields().len(), MAX_FIELDS);
    assert!(span.field("best_bound").is_some());
    assert_eq!(span.field("gap"), Some(0.0.into()), "proven optimal");
}
