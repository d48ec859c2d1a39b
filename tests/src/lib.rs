//! Integration test support crate (tests live in `tests/tests/`).

pub mod reference;

use std::sync::{Mutex, MutexGuard, PoisonError};

use pran_ilp::BnbConfig;
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::PlacementInstance;
use pran_traces::{generate, TraceConfig};

/// Serialize the tests of one binary that configure, arm or drain the
/// process-global tracer and live sinks. A test that fails while holding
/// the lock poisons it; the next one takes it anyway, so one failure
/// shows as one failure, not as every later test's `PoisonError`.
pub fn lock_tracer() -> MutexGuard<'static, ()> {
    static TRACER: Mutex<()> = Mutex::new(());
    TRACER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `fixtures/controller_snapshot_v1.json` as the controller writes it
/// back today: its config carries eight sections `SystemConfig` no longer
/// has (`pool.cores`, `scheduler`, `parallel`, `telemetry`, `metro`, and
/// the simulator's failover price `chaos`, split plan `split` and
/// accelerator profile `accel`) and five `SloPolicy` fields
/// (`slo.ewma_alpha` and the four burn-rate knobs, now constants of
/// `SloMonitor`), all read by nothing, which the reader steps over and
/// the writer leaves out. Everything else is the fixture's bytes.
pub fn v1_snapshot_written_back() -> String {
    let mut text = include_str!("../fixtures/controller_snapshot_v1.json")
        .trim_end()
        .to_string();
    for unread in [
        r#""cores":8,"#,
        r#""scheduler":"GlobalEdf","parallel":{"cores":8,"batch":4,"steal":true},"#,
        r#""telemetry":{"enabled":false,"clock":"SimOnly","buffer_events":8192},"#,
        r#""metro":null,"#,
        r#""ewma_alpha":0.3,"#,
        r#","burn_fast_epochs":5,"burn_slow_epochs":60,"burn_page_factor":10.0,"burn_ticket_factor":2.0"#,
        concat!(
            r#""chaos":{"outage_bound":{"secs":0,"nanos":200000000},"miss_ratio_bound":0.01,"#,
            r#""detection_delay":{"secs":0,"nanos":20000000},"#,
            r#""replan_overhead":{"secs":0,"nanos":5000000},"#,
            r#""migration_time_per_cell":{"secs":0,"nanos":25000000}},"#,
        ),
        r#","split":"Full","accel":null"#,
    ] {
        assert!(text.contains(unread), "the fixture moved: {unread}");
        text = text.replacen(unread, "", 1);
    }
    text
}

/// Instance `i` of the benchmark's `placement_exact` library, built as
/// `benchmark/src/inputs.rs` builds it: ten cells of trace seed
/// `2_026_000 + i` at hour 20 on ten 400-GOPS servers.
pub fn library_instance(i: usize) -> PlacementInstance {
    let mut cfg = TraceConfig::default_day(10, 2_026_000 + i as u64);
    cfg.step_seconds = 3600.0;
    let trace = generate(&cfg);
    let conv = GopsConverter::default_eval();
    let demands: Vec<f64> = trace.samples[20].iter().map(|&u| conv.gops(u)).collect();
    PlacementInstance::uniform(&demands, demands.len(), 400.0)
}

/// Instances in [`library_instance`]'s library.
pub const LIBRARY_SIZE: usize = 40;

/// The benchmark's node limit.
pub fn library_limits() -> BnbConfig {
    BnbConfig {
        max_nodes: 3_000,
        time_limit: std::time::Duration::from_secs(3600),
        ..BnbConfig::default()
    }
}
