//! Metro-scale determinism: the merged report and the telemetry export
//! are pure functions of the root seed — independent of how many worker
//! threads ran the shards, including a crew that splits them unevenly.

use pran_integration_tests::lock_tracer;
use pran_sched::placement::WarmConfig;
use pran_sim::{MetroConfig, MetroSimulator, PoolConfig};
use pran_telemetry::export::to_jsonl;
use pran_telemetry::TelemetryConfig;
use pran_traces::TraceConfig;

/// A small-but-real metro: 72 cells in 8 shards, 2 simulated hours.
fn metro(workers: usize) -> MetroSimulator {
    let config = MetroConfig {
        cells: 72,
        shards: 8,
        workers,
        servers_per_shard: 5,
        seed: 2026,
    };
    let mut pool = PoolConfig::default_eval(config.servers_per_shard);
    pool.warm = Some(WarmConfig::default_eval());
    let mut trace = TraceConfig::default_day(config.cells, config.seed);
    trace.duration_seconds = 2.0 * 3600.0;
    trace.step_seconds = 120.0;
    MetroSimulator::with_pool(config, pool, trace).unwrap()
}

/// Run with tracing on; return (serialized report, canonical JSONL export).
fn traced_run(workers: usize) -> (String, String) {
    pran_telemetry::configure(TelemetryConfig::sim());
    let report = metro(workers).run();
    let events = pran_telemetry::trace::drain();
    pran_telemetry::disable();
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (json, to_jsonl(&events))
}

#[test]
fn merged_report_and_export_identical_across_worker_counts() {
    let _g = lock_tracer();
    let (report_1, export_1) = traced_run(1);
    assert!(!export_1.is_empty(), "tracing must have captured events");
    // 3 workers split the 8 shards unevenly, so which worker steps which
    // shard, and in what order shards finish, varies run to run.
    for workers in [2usize, 3, 8] {
        let (report, export) = traced_run(workers);
        assert_eq!(
            report_1, report,
            "1 vs {workers} workers: merged report differs"
        );
        assert_eq!(
            export_1, export,
            "1 vs {workers} workers: telemetry export differs"
        );
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity that the byte-compare above is not vacuous: a different root
    // seed must change the merged metrics.
    let _g = lock_tracer();
    let sim_a = metro(4);
    let a = sim_a.run();
    let config_b = MetroConfig {
        seed: 999,
        ..sim_a.config()
    };
    let mut pool = PoolConfig::default_eval(config_b.servers_per_shard);
    pool.warm = Some(WarmConfig::default_eval());
    let mut trace = TraceConfig::default_day(config_b.cells, config_b.seed);
    trace.duration_seconds = 2.0 * 3600.0;
    trace.step_seconds = 120.0;
    let b = MetroSimulator::with_pool(config_b, pool, trace)
        .unwrap()
        .run();
    assert_ne!(
        a.metrics.demand_gops, b.metrics.demand_gops,
        "seed change must move the demand series"
    );
}

#[test]
fn shard_labels_cover_every_event() {
    let _g = lock_tracer();
    pran_telemetry::configure(TelemetryConfig::sim());
    metro(3).run();
    let events = pran_telemetry::trace::drain();
    pran_telemetry::disable();
    assert!(!events.is_empty());
    for e in &events {
        let shard = e
            .field_u64("shard")
            .unwrap_or_else(|| panic!("event {} missing shard label", e.name));
        assert!(shard < 8, "shard label {shard} out of range");
    }
}
