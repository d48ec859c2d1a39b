//! Injectors: driving scenario events into the running system.
//!
//! [`run_scenario`] is the harness: it compiles a [`Scenario`] into a
//! seeded load trace, drives a control plane (controller + failover app +
//! per-cell fronthaul links) from one `pran-sim` event clock, calling
//! `Controller::server_failed` / `server_recovered` and degrading or
//! restoring the links as each event's kind says, replays the trace and
//! its crashes ([`failure_specs`]) through a data plane
//! (`PoolSimulator`), and evaluates the [`InvariantChecker`] every epoch.

use std::time::Duration;

use pran::apps::FailoverApp;
use pran::{Controller, Snapshot, SystemConfig};
use pran_fronthaul::fault::{FaultConfig, FaultInjector};
use pran_insight::slo::Alert;
use pran_sim::engine::{Engine, SimTime};
use pran_sim::pool::{FailureSpec, LinkFault, PoolConfig, PoolSimulator};
use pran_sim::PoolMetrics;
use pran_traces::{generate, TraceConfig};
use serde_json::{Number, Value};

use crate::invariants::{InvariantChecker, InvariantKind, Violation};
use crate::scenario::{ChaosEvent, Scenario, ScenarioError};

/// Salt separating the fronthaul RNG stream from the trace stream.
const LINK_SEED_SALT: u64 = 0x6c69_6e6b_7365_6564;

/// Compile a scenario's crash/recover pairs into data-plane
/// [`FailureSpec`]s (each crash matched with the next recovery of the
/// same server, if any). Silent variants are *physical* events, so the
/// data plane treats them exactly like their loud counterparts; the
/// notify-only variants are control-plane messages and are ignored here.
pub fn failure_specs(scenario: &Scenario) -> Vec<FailureSpec> {
    let evs = scenario.sorted_events();
    let mut specs = Vec::new();
    for (i, te) in evs.iter().enumerate() {
        let server = match te.event {
            ChaosEvent::ServerCrash { server } | ChaosEvent::ServerCrashSilent { server } => server,
            _ => continue,
        };
        let recover_after = evs[i + 1..].iter().find_map(|later| match later.event {
            ChaosEvent::ServerRecover { server: s }
            | ChaosEvent::ServerRecoverSilent { server: s }
                if s == server =>
            {
                Some(later.at - te.at)
            }
            _ => None,
        });
        specs.push(FailureSpec {
            server,
            at: te.at,
            recover_after,
        });
    }
    specs
}

/// The control plane's per-cell fronthaul links.
///
/// `None` links model ideal fronthaul; a `LinkDegrade` event swaps in one
/// seeded [`FaultInjector`] per cell (seed `base + cell`, so loss streams
/// are independent but reproducible), and `LinkRestore` swaps them out.
/// Injector clocks advance on simulated time via
/// [`FaultInjector::advance_to`] — the shared tick that keeps fronthaul
/// queues in lockstep with engine-scheduled failures.
#[derive(Debug)]
struct LinkBank {
    cells: usize,
    seed: u64,
    links: Option<Vec<FaultInjector>>,
}

impl LinkBank {
    /// A bank of `cells` ideal links.
    fn new(cells: usize, seed: u64) -> Self {
        LinkBank {
            cells,
            seed,
            links: None,
        }
    }

    /// Swap in one fresh seeded injector per cell running `config`.
    fn degrade(&mut self, config: FaultConfig) {
        let seed = self.seed;
        self.links = Some(
            (0..self.cells)
                .map(|c| FaultInjector::new(config, seed.wrapping_add(c as u64)))
                .collect(),
        );
    }

    /// Return every cell to an ideal link.
    fn restore(&mut self) {
        self.links = None;
    }

    /// Pass one uplink report through cell `cell`'s link at simulated
    /// time `at`; returns whether it survived.
    fn deliver_report(&mut self, cell: usize, at: Duration) -> bool {
        match &mut self.links {
            None => true,
            Some(links) => {
                let link = &mut links[cell];
                link.advance_to(at);
                // A 16-byte report, drawn rather than built.
                link.deliver(16).is_some()
            }
        }
    }
}

/// Damage a serialized snapshot: point the first placement entry at a
/// server index far out of range. The result still parses as a
/// `Snapshot`, so the rejection must come from
/// `Controller::try_restore`'s consistency checks — exactly the contract
/// the restore-fidelity invariant verifies.
fn corrupt_snapshot_value(value: &mut Value) {
    if let Value::Object(map) = value {
        let mut placement = match map.remove("placement") {
            Some(Value::Array(p)) => p,
            other => {
                // Unexpected shape: put it back untouched.
                if let Some(v) = other {
                    map.insert("placement".to_string(), v);
                }
                return;
            }
        };
        if placement.is_empty() {
            placement.push(Value::Null);
        }
        placement[0] = Value::Number(Number::U64(u64::from(u32::MAX)));
        map.insert("placement".to_string(), Value::Array(placement));
    }
}

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// Invariant violations, in detection order.
    pub violations: Vec<Violation>,
    /// Control-plane placement epochs executed.
    pub epochs: u64,
    /// Server failures handled by the controller.
    pub failovers: u64,
    /// Cells displaced across all failovers.
    pub displaced_cells: u64,
    /// Uplink load reports lost to fronthaul faults on the control plane.
    pub reports_dropped: u64,
    /// Largest per-cell outage charged during the run.
    pub max_outage: Duration,
    /// Data-plane metrics from the `PoolSimulator` pass.
    pub metrics: PoolMetrics,
    /// SLO alerts the online `pran-insight` monitor raised during the
    /// data-plane pass, in epoch order.
    pub alerts: Vec<Alert>,
}

impl HarnessReport {
    /// Whether the run stayed inside the safety envelope.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count per invariant kind (all kinds, stable order).
    pub fn violations_by_kind(&self) -> Vec<(&'static str, usize)> {
        InvariantKind::all()
            .into_iter()
            .map(|k| {
                (
                    k.label(),
                    self.violations.iter().filter(|v| v.kind == k).count(),
                )
            })
            .collect()
    }
}

/// Events on the harness's simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HarnessEvent {
    /// A placement epoch boundary.
    Epoch,
    /// Index into the sorted scenario schedule.
    Fault(usize),
}

/// Next epoch boundary strictly after `now`, clamped to the horizon.
fn next_epoch_after(now: Duration, epoch: Duration, horizon: Duration) -> Duration {
    let k = (now.as_nanos() / epoch.as_nanos() + 1) as u32;
    epoch.saturating_mul(k).min(horizon)
}

/// Run one scenario end to end and return its verdict.
///
/// Both planes consume the same seeded trace. The control plane drives a
/// [`Controller`] (+ [`FailoverApp`]) and a bank of per-cell links from a
/// `pran-sim` [`Engine`]: uplink reports cross the faulty links each
/// epoch, crashes/recoveries hit the controller mid-epoch, snapshot
/// drills capture/corrupt/restore, and the invariant checker scores
/// every epoch boundary. The data plane replays the trace through
/// [`PoolSimulator`] (crash schedule from [`failure_specs`], fronthaul
/// from the scenario's first `LinkDegrade` for the whole run) to measure
/// the deadline-miss ratio under per-TTI execution.
///
/// Stale-view events split the two planes: `ServerCrashSilent` /
/// `ServerRecoverSilent` change *physical* liveness only, while the
/// matching notify events deliver the (delayed) news to the controller.
/// The harness tracks physical truth alongside the controller's belief
/// and flags a `PlacementValid` violation whenever an epoch leaves a cell
/// on a server that is physically dead but still believed alive.
pub fn run_scenario(
    scenario: &Scenario,
    sys: &SystemConfig,
) -> Result<HarnessReport, ScenarioError> {
    scenario.validate()?;
    let span = pran_telemetry::trace::span("chaos.scenario");

    // Shared substrate: the seeded trace with flash crowds compiled in.
    // Peak utilization capped at 0.9 — the safety envelope the paper
    // claim E13 checks is "no violations at util ≤ 0.9".
    let mut tc = TraceConfig::default_day(scenario.cells, scenario.seed);
    tc.duration_seconds = scenario.horizon.as_secs_f64().max(tc.step_seconds);
    tc.peak_utilization = (0.4, 0.9);
    tc.flash_crowds = scenario.flash_crowds();
    let trace = generate(&tc);
    let last_step = trace.num_steps() - 1;

    // Control plane.
    let mut sys = sys.clone();
    sys.pool.servers = scenario.servers;
    let bounds = sys.chaos;
    let epoch_len = sys.epoch;
    let horizon = scenario.horizon;
    let mut ctl = Controller::new(sys.clone());
    ctl.install_app(Box::new(FailoverApp::new()));
    for _ in 0..scenario.cells {
        ctl.register_cell();
    }
    let mut bank = LinkBank::new(scenario.cells, scenario.seed ^ LINK_SEED_SALT);
    let mut checker = InvariantChecker::new(bounds);

    let schedule = scenario.sorted_events();
    let mut engine: Engine<HarnessEvent> = Engine::new();
    let mut k = 0u32;
    loop {
        let t = epoch_len.saturating_mul(k);
        if t > horizon {
            break;
        }
        engine.schedule(SimTime::from_duration(t), HarnessEvent::Epoch);
        k += 1;
    }
    for (i, te) in schedule.iter().enumerate() {
        engine.schedule(SimTime::from_duration(te.at), HarnessEvent::Fault(i));
    }

    let mut epochs = 0u64;
    let mut failovers = 0u64;
    let mut displaced_cells = 0u64;
    let mut reports_dropped = 0u64;
    let mut max_outage = Duration::ZERO;
    // Physical server liveness, which silent events can decouple from the
    // controller's belief.
    let mut truth = vec![true; scenario.servers];

    while let Some((t, ev)) = engine.next() {
        let now = t.to_duration();
        match ev {
            HarnessEvent::Epoch => {
                let step = ((now.as_secs_f64() / trace.step_seconds) as usize).min(last_step);
                for cell in 0..scenario.cells {
                    if bank.deliver_report(cell, now) {
                        // A dropped report leaves the controller on its
                        // sliding-window history — stale but safe.
                        let _ = ctl.report_load(cell, trace.samples[step][cell]);
                    } else {
                        reports_dropped += 1;
                    }
                }
                ctl.run_epoch(now);
                epochs += 1;
                let view = ctl.view();
                checker.check_view(now, &view);
                // The stale-view hazard: the epoch left a cell on a server
                // that is physically dead but still believed alive, so the
                // believed-liveness check above cannot see it.
                for cell in &view.cells {
                    if let Some(s) = cell.server {
                        if !truth[s] && view.servers[s].alive {
                            checker.flag(
                                InvariantKind::PlacementValid,
                                now,
                                format!(
                                    "cell {} placed on silently-failed server {s} (stale view)",
                                    cell.id
                                ),
                            );
                        }
                    }
                }
            }
            HarnessEvent::Fault(i) => {
                let te = &schedule[i];
                match te.event {
                    ChaosEvent::ServerCrash { server }
                    | ChaosEvent::ServerNotifyCrash { server } => {
                        if let ChaosEvent::ServerCrash { .. } = te.event {
                            truth[server] = false;
                        }
                        let hosted: Vec<usize> = ctl
                            .placement()
                            .assignment
                            .iter()
                            .enumerate()
                            .filter_map(|(c, a)| (*a == Some(server)).then_some(c))
                            .collect();
                        if ctl.server_failed(server, now).is_ok() {
                            failovers += 1;
                            displaced_cells += hosted.len() as u64;
                            // Cells the failover app re-placed pay the
                            // detection + replan + migration price; the
                            // rest wait for the next placement epoch.
                            let repair_at = next_epoch_after(now, epoch_len, horizon);
                            for &cell in &hosted {
                                let outage = if ctl.placement().assignment[cell].is_some() {
                                    bounds.failover_outage()
                                } else {
                                    bounds.failover_outage() + repair_at.saturating_sub(now)
                                };
                                max_outage = max_outage.max(outage);
                                checker.check_outage(now, cell, outage);
                            }
                        }
                    }
                    ChaosEvent::ServerCrashSilent { server } => {
                        // Physical death only; the controller learns
                        // nothing until a notify event (failure_specs
                        // already feeds the data plane).
                        truth[server] = false;
                    }
                    ChaosEvent::ServerRecover { server } => {
                        truth[server] = true;
                        let _ = ctl.server_recovered(server, now);
                    }
                    ChaosEvent::ServerRecoverSilent { server } => {
                        truth[server] = true;
                    }
                    ChaosEvent::ServerNotifyRecover { server } => {
                        let _ = ctl.server_recovered(server, now);
                    }
                    ChaosEvent::LinkDegrade { .. } => {
                        bank.degrade(te.event.fault_config().expect("a LinkDegrade event"));
                    }
                    ChaosEvent::LinkRestore => bank.restore(),
                    // Flash crowds act through the trace itself.
                    ChaosEvent::FlashCrowd { .. } => {}
                    ChaosEvent::SnapshotRestore { corrupt } => {
                        snapshot_drill(&mut ctl, now, corrupt, &mut checker);
                    }
                }
            }
        }
    }

    // Data plane: per-TTI execution under the same trace and crashes.
    let mut pool_cfg = PoolConfig::default_eval(scenario.servers);
    pool_cfg.server_capacity_gops = sys.pool.capacity_gops;
    pool_cfg.headroom = sys.headroom;
    pool_cfg.detection_delay = bounds.detection_delay;
    pool_cfg.replan_overhead = bounds.replan_overhead;
    pool_cfg.migration_time_per_cell = bounds.migration_time_per_cell;
    pool_cfg.bandwidth = sys.bandwidth;
    pool_cfg.antennas = sys.antennas;
    pool_cfg.mcs = sys.mcs;
    pool_cfg.epoch_steps = ((epoch_len.as_secs_f64() / trace.step_seconds).round() as usize).max(1);
    pool_cfg.slo = Some(sys.slo);
    pool_cfg.split_plan = sys.split.clone();
    pool_cfg.accel = sys.accel;
    pool_cfg.fronthaul = scenario
        .events
        .iter()
        .find_map(|te| te.event.fault_config())
        .map(|config| LinkFault {
            config,
            seed: scenario.seed ^ LINK_SEED_SALT,
        });
    let mut sim = PoolSimulator::new(trace, pool_cfg);
    for spec in failure_specs(scenario) {
        sim.inject_failure(spec);
    }
    let sim_report = sim.run();
    checker.check_miss_ratio(horizon, &sim_report.metrics);

    let violations = checker.into_violations();
    span.finish_with(&[
        ("events", schedule.len().into()),
        ("violations", violations.len().into()),
    ]);
    Ok(HarnessReport {
        violations,
        epochs,
        failovers,
        displaced_cells,
        reports_dropped,
        max_outage,
        metrics: sim_report.metrics,
        alerts: sim_report.alerts,
    })
}

fn snapshot_drill(
    ctl: &mut Controller,
    now: Duration,
    corrupt: bool,
    checker: &mut InvariantChecker,
) {
    let before = ctl.view();
    let mut value = serde_json::to_value(ctl.snapshot()).expect("snapshot serializes");
    if corrupt {
        corrupt_snapshot_value(&mut value);
    }
    match serde_json::from_value::<Snapshot>(value) {
        Ok(snap) => match Controller::try_restore(snap) {
            Ok(mut restored) => {
                checker.check_restore(now, corrupt, &before, Ok(&restored.view()));
                if !corrupt {
                    // Continue the run on the restored control plane:
                    // apps are code, not state — reinstall.
                    restored.install_app(Box::new(FailoverApp::new()));
                    *ctl = restored;
                }
            }
            Err(e) => checker.check_restore(now, corrupt, &before, Err(&e)),
        },
        // A corruption caught at parse time also honours the contract.
        Err(_) if corrupt => {}
        Err(e) => checker.flag(
            InvariantKind::RestoreFidelity,
            now,
            format!("intact snapshot failed to re-parse: {e}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TimedEvent;

    fn base_scenario() -> Scenario {
        Scenario {
            name: "test".into(),
            seed: 5,
            cells: 6,
            servers: 8,
            horizon: Duration::from_secs(600),
            events: Vec::new(),
        }
    }

    #[test]
    fn quiet_scenario_stays_clean() {
        let report = run_scenario(&base_scenario(), &SystemConfig::default_eval(8)).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.epochs, 11, "epochs at 0, 60, ..., 600 s");
        assert_eq!(report.failovers, 0);
        assert!(report.metrics.tasks_total > 0);
    }

    #[test]
    fn crash_recover_and_degrade_compose_cleanly() {
        let mut s = base_scenario();
        s.events = vec![
            TimedEvent {
                at: Duration::from_secs(120),
                event: ChaosEvent::ServerCrash { server: 1 },
            },
            TimedEvent {
                at: Duration::from_secs(300),
                event: ChaosEvent::ServerRecover { server: 1 },
            },
            TimedEvent {
                at: Duration::from_secs(60),
                event: ChaosEvent::LinkDegrade {
                    drop_prob: 0.2,
                    max_jitter: Duration::from_micros(50),
                    bucket_capacity: 0,
                    refill_per_interval: 0,
                    refill_interval: Duration::ZERO,
                },
            },
            TimedEvent {
                at: Duration::from_secs(480),
                event: ChaosEvent::SnapshotRestore { corrupt: false },
            },
        ];
        let report = run_scenario(&s, &SystemConfig::default_eval(8)).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.failovers, 1);
        assert!(
            report.metrics.reports_lost > 0,
            "data plane saw the lossy links"
        );
        assert!(report.max_outage <= Duration::from_millis(200));
    }

    #[test]
    fn corrupt_snapshot_is_rejected_not_fatal() {
        let mut s = base_scenario();
        s.events = vec![TimedEvent {
            at: Duration::from_secs(180),
            event: ChaosEvent::SnapshotRestore { corrupt: true },
        }];
        let report = run_scenario(&s, &SystemConfig::default_eval(8)).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn outage_bound_zero_makes_any_crash_a_violation() {
        let mut s = base_scenario();
        s.events = vec![TimedEvent {
            at: Duration::from_secs(120),
            event: ChaosEvent::ServerCrash { server: 0 },
        }];
        let mut sys = SystemConfig::default_eval(8);
        sys.chaos.outage_bound = Duration::ZERO;
        let report = run_scenario(&s, &sys).unwrap();
        // Server 0 hosts at least one of 6 best-fit-placed cells.
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::OutageExceeded));
    }

    #[test]
    fn silent_crash_flags_stale_placement_at_next_epoch() {
        let mut s = base_scenario();
        s.events = vec![TimedEvent {
            at: Duration::from_secs(90),
            event: ChaosEvent::ServerCrashSilent { server: 0 },
        }];
        let report = run_scenario(&s, &SystemConfig::default_eval(8)).unwrap();
        // Server 0 hosts at least one best-fit-placed cell; with the crash
        // silent, every later epoch keeps cells on the believed-alive
        // corpse and the truth-vs-belief check must catch it.
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::PlacementValid && v.detail.contains("stale view")));
        assert_eq!(report.failovers, 0, "the controller was never told");
    }

    #[test]
    fn notified_crash_behaves_like_a_loud_one() {
        let mut s = base_scenario();
        s.events = vec![
            TimedEvent {
                at: Duration::from_secs(90),
                event: ChaosEvent::ServerCrashSilent { server: 1 },
            },
            TimedEvent {
                at: Duration::from_secs(100),
                event: ChaosEvent::ServerNotifyCrash { server: 1 },
            },
        ];
        let report = run_scenario(&s, &SystemConfig::default_eval(8)).unwrap();
        assert_eq!(report.failovers, 1, "notification reached the controller");
        // Between notification (100 s) and the next epoch (120 s) the
        // failover app has already moved the cells, so no epoch ever sees
        // a stale placement.
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn silent_pairs_reach_the_data_plane_as_failure_specs() {
        let mut s = base_scenario();
        s.events = vec![
            TimedEvent {
                at: Duration::from_secs(100),
                event: ChaosEvent::ServerCrashSilent { server: 2 },
            },
            TimedEvent {
                at: Duration::from_secs(220),
                event: ChaosEvent::ServerRecoverSilent { server: 2 },
            },
        ];
        let specs = failure_specs(&s);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].server, 2);
        assert_eq!(specs[0].recover_after, Some(Duration::from_secs(120)));
    }

    #[test]
    fn runs_are_deterministic() {
        let mut s = base_scenario();
        s.events = vec![
            TimedEvent {
                at: Duration::from_secs(90),
                event: ChaosEvent::ServerCrash { server: 2 },
            },
            TimedEvent {
                at: Duration::from_secs(200),
                event: ChaosEvent::LinkDegrade {
                    drop_prob: 0.15,
                    max_jitter: Duration::from_micros(40),
                    bucket_capacity: 4,
                    refill_per_interval: 1,
                    refill_interval: Duration::from_millis(1),
                },
            },
        ];
        let sys = SystemConfig::default_eval(8);
        let a = run_scenario(&s, &sys).unwrap();
        let b = run_scenario(&s, &sys).unwrap();
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.reports_dropped, b.reports_dropped);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn failure_specs_pair_crash_with_next_recovery() {
        let mut s = base_scenario();
        s.events = vec![
            TimedEvent {
                at: Duration::from_secs(100),
                event: ChaosEvent::ServerCrash { server: 3 },
            },
            TimedEvent {
                at: Duration::from_secs(50),
                event: ChaosEvent::ServerCrash { server: 1 },
            },
            TimedEvent {
                at: Duration::from_secs(250),
                event: ChaosEvent::ServerRecover { server: 3 },
            },
        ];
        let specs = failure_specs(&s);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].server, 1);
        assert_eq!(specs[0].recover_after, None);
        assert_eq!(specs[1].server, 3);
        assert_eq!(specs[1].recover_after, Some(Duration::from_secs(150)));
    }

    #[test]
    fn link_bank_degrades_and_restores() {
        let mut bank = LinkBank::new(4, 9);
        assert!(bank.links.is_none());
        assert!(bank.deliver_report(0, Duration::ZERO), "ideal link");
        bank.degrade(FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::clean()
        });
        assert!(bank.links.is_some());
        assert!(
            !bank.deliver_report(0, Duration::from_secs(1)),
            "100 % loss"
        );
        bank.restore();
        assert!(bank.links.is_none());
        assert!(bank.deliver_report(0, Duration::from_secs(3)));
    }
}
