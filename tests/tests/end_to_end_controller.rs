//! End-to-end controller scenarios: a day of telemetry, consolidation at
//! night, failures at noon — the whole control loop across crates.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pran::apps::{ConsolidationApp, FailoverApp, LoadBalancerApp, SpectrumApp};
use pran::{Controller, SystemConfig};
use pran_traces::{generate, TraceConfig};

/// Drive a controller with trace-derived telemetry for a range of steps.
fn drive(
    ctl: &mut Controller,
    trace: &pran_traces::Trace,
    cells: &[usize],
    steps: std::ops::Range<usize>,
) -> Vec<pran::EpochReport> {
    let mut reports = Vec::new();
    for t in steps {
        for (&cell, &util) in cells.iter().zip(&trace.samples[t]) {
            ctl.report_load(cell, util).expect("registered");
        }
        reports.push(ctl.run_epoch(Duration::from_secs_f64(t as f64 * trace.step_seconds)));
    }
    reports
}

fn day_trace(cells: usize) -> pran_traces::Trace {
    let mut cfg = TraceConfig::default_day(cells, 1234);
    cfg.step_seconds = 900.0; // 15-minute steps: 96 epochs/day
    generate(&cfg)
}

#[test]
fn full_day_places_everyone_with_bounded_churn() {
    let trace = day_trace(16);
    let mut ctl = Controller::new(SystemConfig::default_eval(12));
    ctl.install_app(Box::new(FailoverApp::new()));
    let cells: Vec<usize> = (0..16).map(|_| ctl.register_cell()).collect();

    let reports = drive(&mut ctl, &trace, &cells, 0..trace.num_steps());
    for r in &reports {
        assert_eq!(r.unplaced, 0, "epoch {}: cells unplaced", r.epoch);
    }
    // Churn after the first epoch should be a small fraction of cells.
    let churn: usize = reports[1..].iter().map(|r| r.migrations).sum();
    let per_epoch = churn as f64 / (reports.len() - 1) as f64;
    assert!(
        per_epoch < 4.0,
        "mean churn {per_epoch} cells/epoch too high"
    );
}

#[test]
fn pool_usage_follows_the_diurnal_curve() {
    let trace = day_trace(20);
    let mut ctl = Controller::new(SystemConfig::default_eval(16));
    let cells: Vec<usize> = (0..20).map(|_| ctl.register_cell()).collect();

    let reports = drive(&mut ctl, &trace, &cells, 0..trace.num_steps());
    // Servers used at the nightly minimum (~04:00, step 16) must be lower
    // than at the evening peak (~20:30, step 82).
    let night = reports[16].servers_used;
    let evening = reports[82].servers_used;
    assert!(
        evening > night,
        "evening {evening} should exceed night {night}"
    );
}

#[test]
fn consolidation_shrinks_the_night_pool() {
    let trace = day_trace(20);
    // Without consolidation.
    let mut plain = Controller::new(SystemConfig::default_eval(16));
    let cells: Vec<usize> = (0..20).map(|_| plain.register_cell()).collect();
    let plain_reports = drive(&mut plain, &trace, &cells, 0..30);

    // With consolidation (drains cold servers).
    let mut consolidated = Controller::new(SystemConfig::default_eval(16));
    consolidated.install_app(Box::new(ConsolidationApp::new(0.45, 0.85)));
    let cells2: Vec<usize> = (0..20).map(|_| consolidated.register_cell()).collect();
    let cons_reports = drive(&mut consolidated, &trace, &cells2, 0..30);

    // At night (steps 8..30 ≈ 02:00-07:30) the consolidated pool should
    // not use more servers, and typically fewer.
    let plain_night: usize = plain_reports[8..].iter().map(|r| r.servers_used).sum();
    let cons_night: usize = cons_reports[8..].iter().map(|r| r.servers_used).sum();
    assert!(
        cons_night <= plain_night,
        "consolidation made things worse: {cons_night} vs {plain_night}"
    );
    // Everyone still served.
    assert!(cons_reports.iter().all(|r| r.unplaced == 0));
}

#[test]
fn failure_recovery_with_and_without_the_app() {
    let mut base = SystemConfig::default_eval(8);
    base.headroom = 1.05;

    // Shared setup closure.
    let setup = |with_app: bool| {
        let mut ctl = Controller::new(base.clone());
        if with_app {
            ctl.install_app(Box::new(FailoverApp::new()));
        }
        let cells: Vec<usize> = (0..10).map(|_| ctl.register_cell()).collect();
        for &c in &cells {
            ctl.report_load(c, 0.45).unwrap();
        }
        ctl.run_epoch(Duration::from_secs(60));
        ctl
    };

    // Without the app: displaced cells wait for the next epoch.
    let mut without = setup(false);
    let victim = without.placement().assignment[0].unwrap();
    let rep = without
        .server_failed(victim, Duration::from_secs(61))
        .unwrap();
    assert!(!rep.displaced.is_empty());
    assert_eq!(rep.replaced, 0);

    // With the app: immediate recovery.
    let mut with = setup(true);
    let victim = with.placement().assignment[0].unwrap();
    let rep = with.server_failed(victim, Duration::from_secs(61)).unwrap();
    assert_eq!(
        rep.replaced,
        rep.displaced.len(),
        "failover app must re-place everything"
    );
    // And the resulting placement avoids the dead server.
    assert!(with
        .placement()
        .assignment
        .iter()
        .all(|a| *a != Some(victim)));
}

#[test]
fn spectrum_app_degrades_gracefully_under_overload() {
    // A pool too small for everyone at full tilt.
    let mut cfg = SystemConfig::default_eval(2);
    cfg.headroom = 1.0;
    let mut ctl = Controller::new(cfg);
    ctl.install_app(Box::new(SpectrumApp::new(25, 0.95)));
    let cells: Vec<usize> = (0..5).map(|_| ctl.register_cell()).collect();
    for &c in &cells {
        ctl.report_load(c, 1.0).unwrap();
    }
    let first = ctl.run_epoch(Duration::from_secs(60));
    assert!(first.unplaced > 0, "overload expected");
    assert!(first.actions_applied > 0, "spectrum caps should apply");

    // Caps lower predicted demand; subsequent epochs admit more cells.
    for &c in &cells {
        ctl.report_load(c, 1.0).unwrap();
    }
    let second = ctl.run_epoch(Duration::from_secs(120));
    assert!(
        second.unplaced < first.unplaced,
        "caps should admit more cells: {} vs {}",
        second.unplaced,
        first.unplaced
    );
}

#[test]
fn load_balancer_keeps_hotspots_in_check() {
    let mut ctl = Controller::new(SystemConfig::default_eval(6));
    ctl.install_app(Box::new(LoadBalancerApp::new(0.85)));
    let cells: Vec<usize> = (0..8).map(|_| ctl.register_cell()).collect();
    // Uneven loads.
    let loads = [0.9, 0.9, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1];
    for (&c, &l) in cells.iter().zip(&loads) {
        ctl.report_load(c, l).unwrap();
    }
    for step in 1..=6 {
        ctl.run_epoch(Duration::from_secs(step * 60));
    }
    let view = ctl.view();
    let hottest = view.hottest_server().unwrap().utilization();
    assert!(hottest <= 1.0, "hotspot never exceeds capacity: {hottest}");
}

/// Counts the failures it hears of and caps cell 0 at one PRB more than
/// that count each epoch, so its hidden state shows in the snapshot.
#[derive(Clone, Default)]
struct FailureTally {
    failures: u32,
}

impl pran::ControlApp for FailureTally {
    fn on_epoch(&mut self, _view: &pran::PoolView) -> Vec<pran::Action> {
        vec![pran::Action::CapPrbs {
            cell: 0,
            prbs: 1 + self.failures,
        }]
    }
    fn on_server_failed(&mut self, _server: usize, _view: &pran::PoolView) -> Vec<pran::Action> {
        self.failures += 1;
        Vec::new()
    }
}

fn snapshot_json(ctl: &Controller) -> String {
    serde_json::to_string(&ctl.snapshot()).expect("snapshot serializes")
}

/// Reports, an epoch, a failure, an epoch and a recovery at step `t`.
fn busy_step(ctl: &mut Controller, t: u64, down: usize) {
    for c in 0..6 {
        ctl.report_load(c, 0.2 + 0.05 * ((c as u64 + t) % 5) as f64)
            .unwrap();
    }
    ctl.run_epoch(Duration::from_secs(60 * t));
    ctl.server_failed(down, Duration::from_secs(60 * t + 1))
        .unwrap();
    ctl.run_epoch(Duration::from_secs(60 * t + 2));
    ctl.server_recovered(down, Duration::from_secs(60 * t + 3))
        .unwrap();
}

#[test]
fn a_cloned_controller_is_a_deep_fork() {
    let mut original = Controller::new(SystemConfig::default_eval(4));
    original.install_app(Box::new(FailoverApp::new()));
    original.install_app(Box::new(FailureTally::default()));
    for _ in 0..6 {
        original.register_cell();
    }
    busy_step(&mut original, 1, 0);

    // Driven alike, the fork and the original stay byte-equal.
    let mut fork = original.clone();
    for t in 2..5 {
        busy_step(&mut original, t, t as usize % 4);
        busy_step(&mut fork, t, t as usize % 4);
        assert_eq!(snapshot_json(&fork), snapshot_json(&original), "step {t}");
    }

    // Driven alone, the fork moves and the original does not: its
    // controller state, its counters and its apps' hidden state (the
    // tally's cap on cell 0) are its own.
    let frozen = snapshot_json(&original);
    let stats = original.stats();
    busy_step(&mut fork, 5, 1);
    assert_ne!(snapshot_json(&fork), frozen);
    assert_eq!(fork.stats().failovers, stats.failovers + 1);
    assert_eq!(original.stats(), stats);
    assert_eq!(snapshot_json(&original), frozen);
    original.run_epoch(Duration::from_secs(60 * 5));
    fork.run_epoch(Duration::from_secs(60 * 5 + 4));
    assert_eq!(original.view().cells[0].prb_cap, Some(1 + 4));
    assert_eq!(fork.view().cells[0].prb_cap, Some(1 + 5));
}

/// Counts how often the controller asks it, and asks for nothing.
#[derive(Clone, Default)]
struct HookCounter {
    epochs: Arc<AtomicU32>,
    failures: Arc<AtomicU32>,
}

impl pran::ControlApp for HookCounter {
    fn on_epoch(&mut self, _view: &pran::PoolView) -> Vec<pran::Action> {
        self.epochs.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }
    fn on_server_failed(&mut self, _server: usize, _view: &pran::PoolView) -> Vec<pran::Action> {
        self.failures.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }
}

/// Registers 50 cells and deregisters one, runs three epochs around a
/// failure, a recovery, a drain and an activation. Apps are installed
/// before registration when `early`, after it otherwise.
fn hook_walk(counter: &HookCounter, early: bool) -> Controller {
    let mut ctl = Controller::new(SystemConfig::default_eval(12));
    let install = |ctl: &mut Controller| {
        ctl.install_app(Box::new(counter.clone()));
        ctl.install_app(Box::new(FailoverApp::new()));
        ctl.install_app(Box::new(LoadBalancerApp::new(0.85)));
    };
    if early {
        install(&mut ctl);
    }
    for c in 0..50 {
        let id = ctl.register_cell();
        ctl.report_load(id, 0.1 + 0.8 * ((c * 7) % 10) as f64 / 10.0)
            .unwrap();
    }
    ctl.deregister_cell(17).unwrap();
    if !early {
        install(&mut ctl);
    }
    ctl.run_epoch(Duration::from_secs(60));
    let victim = ctl.placement().assignment[0].expect("cell 0 placed");
    ctl.server_failed(victim, Duration::from_secs(61)).unwrap();
    ctl.run_epoch(Duration::from_secs(120));
    ctl.server_recovered(victim, Duration::from_secs(121))
        .unwrap();
    let drained = ctl.placement().assignment[1].expect("cell 1 placed");
    ctl.apply_action(pran::Action::Drain { server: drained })
        .unwrap();
    ctl.apply_action(pran::Action::Activate { server: drained })
        .unwrap();
    ctl.run_epoch(Duration::from_secs(180));
    ctl
}

/// Apps are asked once per epoch and once per failure, and never on
/// registration, deregistration, recovery, drain or activation: apps
/// installed before the cells registered see the same calls and leave
/// the same controller as apps installed after.
#[test]
fn apps_are_asked_once_per_epoch_and_once_per_failure() {
    let early = HookCounter::default();
    let ctl = hook_walk(&early, true);
    assert_eq!(early.epochs.load(Ordering::Relaxed), 3);
    assert_eq!(early.failures.load(Ordering::Relaxed), 1);

    let late = HookCounter::default();
    let twin = hook_walk(&late, false);
    assert_eq!(late.epochs.load(Ordering::Relaxed), 3);
    assert_eq!(late.failures.load(Ordering::Relaxed), 1);
    assert_eq!(snapshot_json(&ctl), snapshot_json(&twin));
}

#[test]
fn actions_are_validated_not_trusted() {
    #[derive(Clone)]
    struct RogueApp;
    impl pran::ControlApp for RogueApp {
        fn on_epoch(&mut self, _view: &pran::PoolView) -> Vec<pran::Action> {
            vec![
                pran::Action::Migrate { cell: 999, to: 0 },
                pran::Action::CapPrbs {
                    cell: 0,
                    prbs: 10_000,
                },
                pran::Action::Drain { server: 999 },
            ]
        }
    }
    let mut ctl = Controller::new(SystemConfig::default_eval(2));
    ctl.install_app(Box::new(RogueApp));
    let c = ctl.register_cell();
    ctl.report_load(c, 0.3).unwrap();
    let report = ctl.run_epoch(Duration::from_secs(60));
    assert_eq!(report.actions_applied, 0);
    assert_eq!(report.actions_rejected, 3);
    assert_eq!(report.unplaced, 0, "rogue app cannot break placement");
}

#[test]
fn snapshot_round_trips_through_serde_and_restores_identically() {
    let trace = day_trace(8);
    let mut ctl = Controller::new(SystemConfig::default_eval(6));
    ctl.install_app(Box::new(FailoverApp::new()));
    let cells: Vec<usize> = (0..8).map(|_| ctl.register_cell()).collect();
    drive(&mut ctl, &trace, &cells, 0..12);

    let json = serde_json::to_string(&ctl.snapshot()).expect("snapshot serializes");
    let snap: pran::Snapshot = serde_json::from_str(&json).expect("snapshot parses");
    let restored = Controller::try_restore(snap).expect("intact snapshot restores");
    assert_eq!(restored.view(), ctl.view(), "restore reproduces the view");
    assert_eq!(restored.placement(), ctl.placement());
    assert_eq!(restored.stats().epochs, ctl.stats().epochs);
}

#[test]
fn try_restore_rejects_truncated_placement() {
    let mut ctl = Controller::new(SystemConfig::default_eval(6));
    ctl.install_app(Box::new(FailoverApp::new()));
    for i in 0..4 {
        ctl.register_cell();
        ctl.report_load(i, 0.5).unwrap();
    }
    ctl.run_epoch(Duration::from_secs(60));

    // Corrupt the serialized form: drop the last placement entry so the
    // placement no longer covers every cell.
    let mut value = serde_json::to_value(ctl.snapshot()).expect("snapshot serializes");
    match &mut value {
        serde_json::Value::Object(map) => match map.remove("placement") {
            Some(serde_json::Value::Array(mut placement)) => {
                placement.pop().expect("placement is non-empty");
                map.insert("placement".to_string(), serde_json::Value::Array(placement));
            }
            other => panic!("placement should be an array, got {other:?}"),
        },
        other => panic!("snapshot should be an object, got {other:?}"),
    }
    let snap: pran::Snapshot = serde_json::from_value(value).expect("still parses");
    match Controller::try_restore(snap) {
        Err(pran::SnapshotError::PlacementCellMismatch { placement, cells }) => {
            assert_eq!(placement, 3);
            assert_eq!(cells, 4);
        }
        Err(other) => panic!("expected PlacementCellMismatch, got {other:?}"),
        Ok(_) => panic!("truncated placement must be rejected"),
    }
}

#[test]
fn try_restore_rejects_out_of_range_server_index() {
    let mut ctl = Controller::new(SystemConfig::default_eval(6));
    ctl.install_app(Box::new(FailoverApp::new()));
    for i in 0..4 {
        ctl.register_cell();
        ctl.report_load(i, 0.5).unwrap();
    }
    ctl.run_epoch(Duration::from_secs(60));

    // Point a placement entry at a server the pool does not have. The
    // snapshot still parses; the consistency check must catch it.
    let mut value = serde_json::to_value(ctl.snapshot()).expect("snapshot serializes");
    match &mut value {
        serde_json::Value::Object(map) => match map.remove("placement") {
            Some(serde_json::Value::Array(mut placement)) => {
                placement[0] = serde_json::Value::Number(serde_json::Number::U64(999));
                map.insert("placement".to_string(), serde_json::Value::Array(placement));
            }
            other => panic!("placement should be an array, got {other:?}"),
        },
        other => panic!("snapshot should be an object, got {other:?}"),
    }
    let snap: pran::Snapshot = serde_json::from_value(value).expect("still parses");
    match Controller::try_restore(snap) {
        Err(pran::SnapshotError::ServerIndexOutOfRange {
            cell,
            server,
            servers,
        }) => {
            assert_eq!(cell, 0);
            assert_eq!(server, 999);
            assert_eq!(servers, 6);
        }
        Err(other) => panic!("expected ServerIndexOutOfRange, got {other:?}"),
        Ok(_) => panic!("out-of-range server index must be rejected"),
    }
}
