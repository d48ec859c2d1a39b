//! Cross-crate chaos scenarios: the DSL, the injectors, the invariant
//! checker and the shared simulation clock working together end to end.

use std::time::Duration;

use pran::SystemConfig;
use pran_chaos::{replay, run_scenario, ChaosEvent, InvariantKind, Scenario, TimedEvent};

fn sys() -> SystemConfig {
    SystemConfig::default_eval(8)
}

fn composed() -> Scenario {
    Scenario {
        name: "composed".into(),
        seed: 17,
        cells: 6,
        servers: 8,
        horizon: Duration::from_secs(600),
        events: vec![
            TimedEvent {
                at: Duration::from_secs(60),
                event: ChaosEvent::LinkDegrade {
                    drop_prob: 0.15,
                    max_jitter: Duration::from_micros(60),
                    bucket_capacity: 0,
                    refill_per_interval: 0,
                    refill_interval: Duration::ZERO,
                },
            },
            TimedEvent {
                at: Duration::from_secs(120),
                event: ChaosEvent::ServerCrash { server: 2 },
            },
            TimedEvent {
                at: Duration::from_secs(200),
                event: ChaosEvent::FlashCrowd {
                    x_m: 5_000.0,
                    y_m: 5_000.0,
                    radius_m: 2_000.0,
                    duration: Duration::from_secs(120),
                    boost: 0.2,
                },
            },
            TimedEvent {
                at: Duration::from_secs(300),
                event: ChaosEvent::ServerRecover { server: 2 },
            },
            TimedEvent {
                at: Duration::from_secs(360),
                event: ChaosEvent::LinkRestore,
            },
            TimedEvent {
                at: Duration::from_secs(480),
                event: ChaosEvent::SnapshotRestore { corrupt: false },
            },
        ],
    }
}

#[test]
fn composed_faults_stay_inside_the_envelope() {
    let report = run_scenario(&composed(), &sys()).expect("scenario runs");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.failovers, 1, "the crash was handled");
    assert!(
        report.metrics.reports_lost > 0,
        "the lossy window reached the data plane"
    );
    assert!(
        report.max_outage <= sys().slo.outage_p99_max,
        "failover outage {:?} within bound",
        report.max_outage
    );
}

#[test]
fn scenario_artifacts_replay_bit_for_bit() {
    let scenario = composed();
    let json = scenario.to_json();
    let (parsed, first) = replay(&json, &sys()).expect("artifact replays");
    let (_, second) = replay(&json, &sys()).expect("artifact replays again");
    assert_eq!(parsed, scenario, "JSON round-trip is the identity");
    assert_eq!(first.violations, second.violations);
    assert_eq!(first.reports_dropped, second.reports_dropped);
    assert_eq!(first.metrics, second.metrics);
}

#[test]
fn rate_limited_fronthaul_ticks_on_simulated_time() {
    // Regression for the shared-tick bugfix: a 1-token bucket refilling
    // every 2 ms (2 TTIs) must pass exactly every other report on the
    // data plane, because refills are a function of *simulated* time at
    // the instant each report crosses the link — not of how the caller
    // batches its calls.
    let mut scenario = composed();
    scenario.events = vec![TimedEvent {
        at: Duration::ZERO,
        event: ChaosEvent::LinkDegrade {
            drop_prob: 0.0,
            max_jitter: Duration::ZERO,
            bucket_capacity: 1,
            refill_per_interval: 1,
            refill_interval: Duration::from_millis(2),
        },
    }];
    let report = run_scenario(&scenario, &sys()).expect("scenario runs");
    let m = &report.metrics;
    assert!(m.tasks_total > 0);
    assert_eq!(
        m.reports_lost * 2,
        m.tasks_total,
        "1 token / 2 TTIs passes exactly half of the per-TTI reports \
         ({} lost of {})",
        m.reports_lost,
        m.tasks_total
    );
    // Transport loss is intentional chaos, not a deadline violation.
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::MissRatioExceeded),
        "violations: {:?}",
        report.violations
    );
}
