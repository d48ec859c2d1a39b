//! Injectors: driving scenario events into the running system.
//!
//! [`run_scenario`] is the harness: it compiles a [`Scenario`] into a
//! seeded load trace, drives a control plane (controller + failover app +
//! per-cell fronthaul links) through an epoch loop, calling
//! `Controller::server_failed` / `server_recovered` and degrading or
//! restoring the links as each event's kind says, replays the trace and
//! its crashes ([`failure_specs`]) through a data plane
//! (`PoolSimulator`), and evaluates the [`InvariantChecker`] every epoch
//! against the physical server liveness it tracks beside the
//! controller's belief. The checker and the intact snapshot drill
//! ([`restore_drill`]) are the ones `pran-mc`'s explorer runs too.

use std::time::Duration;

use pran::apps::FailoverApp;
use pran::{Controller, Snapshot, SystemConfig};
use pran_fronthaul::fault::{FaultConfig, FaultInjector};
use pran_insight::slo::Alert;
use pran_sim::pool::{
    next_epoch_after, whole_micros, FailoverTiming, FailureSpec, LinkFault, PoolConfig,
    PoolSimulator,
};
use pran_sim::PoolMetrics;
use pran_traces::{generate, TraceConfig};
use serde_json::{Number, Value};

use crate::invariants::{restore_drill, InvariantChecker, InvariantKind, Violation};
use crate::scenario::{ChaosEvent, Scenario, ScenarioError, TimedEvent};

/// Salt separating the fronthaul RNG stream from the trace stream.
const LINK_SEED_SALT: u64 = 0x6c69_6e6b_7365_6564;

/// The outage a failover charges each cell it re-places: the control
/// plane here, the data plane (`PoolConfig::failover`) and `pran-mc`'s
/// model all charge this one price.
pub fn failover_price() -> Duration {
    FailoverTiming::default_eval().outage()
}

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
/// seeded link per cell ([`FaultInjector::for_cell`], so loss streams are
/// independent but reproducible), and `LinkRestore` swaps them out.
/// Injector clocks advance on simulated time via
/// [`FaultInjector::advance_to`] — the shared tick that keeps fronthaul
/// queues in lockstep with the epochs and faults around them.
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
        self.links = Some(
            (0..self.cells)
                .map(|c| FaultInjector::for_cell(config, self.seed, c))
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
                link.deliver().is_some()
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

/// Run one scenario end to end and return its verdict, or the
/// [`ScenarioError`] that makes it unrunnable: the scenario does not
/// validate, or `sys.epoch` is zero.
///
/// Both planes consume the same seeded trace. The control plane drives a
/// [`Controller`] (+ [`FailoverApp`]) and a bank of per-cell links
/// through one loop over the epoch starts, `sys.epoch` apart up to the
/// horizon, on whole microseconds: uplink reports cross the faulty links
/// each epoch and the invariant checker scores it. Before each epoch the
/// faults due before its microsecond apply in schedule order (one at the
/// epoch's own microsecond comes after it, and the faults after the last
/// epoch after that): crashes/recoveries hit the controller mid-epoch,
/// snapshot drills capture/corrupt/restore ([`restore_drill`] for an
/// intact one). The data plane replays the trace through
/// [`PoolSimulator`] (crash schedule from [`failure_specs`], fronthaul
/// from the scenario's first `LinkDegrade` for the whole run) to measure
/// the deadline-miss ratio under per-TTI execution.
///
/// Stale-view events split the two planes: `ServerCrashSilent` /
/// `ServerRecoverSilent` change *physical* liveness only, while the
/// matching notify events deliver the (delayed) news to the controller.
/// The harness tracks physical truth alongside the controller's belief
/// and hands both to [`InvariantChecker::check_view`], which flags a
/// stale-view `PlacementValid` violation whenever an epoch leaves a cell
/// on a server that is physically dead but still believed alive.
pub fn run_scenario(
    scenario: &Scenario,
    sys: &SystemConfig,
) -> Result<HarnessReport, ScenarioError> {
    scenario.validate()?;
    if sys.epoch.is_zero() {
        return Err(ScenarioError::ZeroEpoch);
    }
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
    let price = failover_price();
    let epoch_len = sys.epoch;
    let horizon = scenario.horizon;
    let mut ctl = Controller::new(sys.clone());
    ctl.install_app(Box::new(FailoverApp::new()));
    for _ in 0..scenario.cells {
        ctl.register_cell();
    }
    let mut bank = LinkBank::new(scenario.cells, scenario.seed ^ LINK_SEED_SALT);
    let mut checker = InvariantChecker::new(sys.slo);

    let schedule = scenario.sorted_events();
    let mut faults = schedule.iter().peekable();
    let mut epochs = 0u64;
    let mut failovers = 0u64;
    let mut displaced_cells = 0u64;
    let mut reports_dropped = 0u64;
    let mut max_outage = Duration::ZERO;
    // Physical server liveness, which silent events can decouple from the
    // controller's belief.
    let mut truth = vec![true; scenario.servers];

    // Every epoch start up to the horizon, in whole microseconds, then
    // `None`: after the last epoch, every fault left is due.
    let epoch_starts = (0u32..)
        .map(|k| epoch_len.saturating_mul(k))
        .take_while(|&t| t <= horizon)
        .map(|t| Some(whole_micros(t)))
        .chain([None]);
    for epoch_us in epoch_starts {
        // A fault at an epoch's own microsecond comes after that epoch.
        let due = |te: &&TimedEvent| epoch_us.is_none_or(|t| whole_micros(te.at) < t);
        while let Some(te) = faults.next_if(due) {
            let now = Duration::from_micros(whole_micros(te.at));
            match te.event {
                ChaosEvent::ServerCrash { server } | ChaosEvent::ServerNotifyCrash { server } => {
                    if let ChaosEvent::ServerCrash { .. } = te.event {
                        truth[server] = false;
                    }
                    if let Ok(report) = ctl.server_failed(server, now) {
                        failovers += 1;
                        displaced_cells += report.displaced.len() as u64;
                        // Cells the failover app re-placed pay the
                        // detection + replan + migration price; the rest
                        // wait for the next placement epoch.
                        let repair_at = next_epoch_after(now, epoch_len).min(horizon);
                        for &cell in &report.displaced {
                            let outage = if ctl.placement().assignment[cell].is_some() {
                                price
                            } else {
                                price + repair_at.saturating_sub(now)
                            };
                            max_outage = max_outage.max(outage);
                            checker.check_outage(now, cell, outage);
                        }
                    }
                }
                ChaosEvent::ServerCrashSilent { server } => {
                    // Physical death only; the controller learns nothing
                    // until a notify event (failure_specs already feeds
                    // the data plane).
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
                // Continue the run on the restored control plane.
                ChaosEvent::SnapshotRestore { corrupt: false } => match restore_drill(&ctl) {
                    Ok(restored) => ctl = restored,
                    Err(e) => checker.flag(InvariantKind::RestoreFidelity, now, e),
                },
                ChaosEvent::SnapshotRestore { corrupt: true } => {
                    corrupt_drill(&ctl, now, &mut checker);
                }
            }
        }
        let Some(t) = epoch_us else { break };
        let now = Duration::from_micros(t);
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
        checker.check_view(now, &ctl.view(), &truth);
    }

    // Data plane: per-TTI execution under the same trace and crashes.
    let mut pool_cfg = PoolConfig::default_eval(scenario.servers);
    pool_cfg.server_capacity_gops = sys.pool.capacity_gops;
    pool_cfg.headroom = sys.headroom;
    pool_cfg.bandwidth = sys.bandwidth;
    pool_cfg.antennas = sys.antennas;
    pool_cfg.mcs = sys.mcs;
    pool_cfg.epoch_steps = ((epoch_len.as_secs_f64() / trace.step_seconds).round() as usize).max(1);
    pool_cfg.slo = Some(sys.slo);
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

    let violations: Vec<Violation> = checker.take_violations().collect();
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

/// The corrupt half of a snapshot drill: a snapshot damaged in flight
/// must be refused, at parse time or by `Controller::try_restore`. The
/// run continues on `ctl` either way.
fn corrupt_drill(ctl: &Controller, now: Duration, checker: &mut InvariantChecker) {
    let mut value = serde_json::to_value(ctl.snapshot()).expect("snapshot serializes");
    corrupt_snapshot_value(&mut value);
    let accepted = serde_json::from_value::<Snapshot>(value)
        .is_ok_and(|snap| Controller::try_restore(snap).is_ok());
    if accepted {
        checker.flag(
            InvariantKind::RestoreFidelity,
            now,
            "corrupt snapshot accepted by try_restore".into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_failover_price_is_50_ms_within_the_outage_bound() {
        assert_eq!(failover_price(), Duration::from_millis(50));
        assert!(failover_price() <= pran_insight::SloPolicy::default_eval().outage_p99_max);
    }

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
        sys.slo.outage_p99_max = Duration::ZERO;
        let report = run_scenario(&s, &sys).unwrap();
        // Server 0 hosts at least one of 6 best-fit-placed cells.
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::OutageExceeded));
    }

    #[test]
    fn a_zero_epoch_is_refused_before_the_clock_starts() {
        let mut sys = SystemConfig::default_eval(8);
        sys.epoch = Duration::ZERO;
        let err = run_scenario(&base_scenario(), &sys).unwrap_err();
        assert_eq!(err, ScenarioError::ZeroEpoch);
        assert_eq!(err.to_string(), "system placement epoch must be positive");
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

    // The order of faults against epochs, on whole microseconds. Epochs
    // fall every 60 s; a silent crash of server 0 at 90 s leaves cells on
    // it that the epoch at 120 s flags as a stale view, unless the
    // controller has heard of the crash by then.

    fn ev(at: Duration, event: ChaosEvent) -> TimedEvent {
        TimedEvent { at, event }
    }

    /// When the run flagged a stale view, each time once.
    fn stale_view_at(report: &HarnessReport) -> Vec<Duration> {
        let mut at: Vec<Duration> = report
            .violations
            .iter()
            .filter(|v| v.detail.contains("stale view"))
            .map(|v| v.at)
            .collect();
        at.dedup();
        at
    }

    #[test]
    fn a_crash_at_an_epochs_microsecond_reaches_the_controller_after_that_epoch() {
        let mut sys = SystemConfig::default_eval(8);
        sys.slo.outage_p99_max = Duration::ZERO;
        let crashed_at = |at: Duration| {
            let mut s = base_scenario();
            s.events = vec![
                ev(
                    Duration::from_secs(90),
                    ChaosEvent::ServerCrashSilent { server: 0 },
                ),
                ev(at, ChaosEvent::ServerCrash { server: 0 }),
            ];
            run_scenario(&s, &sys).unwrap()
        };
        let epoch = Duration::from_secs(120);
        for at in [epoch, epoch + Duration::from_nanos(400)] {
            let report = crashed_at(at);
            assert_eq!(stale_view_at(&report), [epoch], "crash at {at:?}");
            assert_eq!(report.failovers, 1);
            // The crash is charged at its whole microsecond.
            let outages: Vec<Duration> = report
                .violations
                .iter()
                .filter(|v| v.kind == InvariantKind::OutageExceeded)
                .map(|v| v.at)
                .collect();
            assert!(!outages.is_empty() && outages.iter().all(|&t| t == epoch));
        }
        let report = crashed_at(epoch - Duration::from_micros(1));
        assert!(stale_view_at(&report).is_empty(), "1 µs earlier: before");
        // Epoch 0 places the cells the crash at 0 µs then displaces.
        let mut s = base_scenario();
        s.events = vec![ev(Duration::ZERO, ChaosEvent::ServerCrash { server: 0 })];
        let report = run_scenario(&s, &sys).unwrap();
        assert!(report.displaced_cells > 0);
    }

    #[test]
    fn faults_in_one_microsecond_apply_in_schedule_order() {
        let crash = |at| ev(at, ChaosEvent::ServerCrashSilent { server: 0 });
        let recover = |at| ev(at, ChaosEvent::ServerRecoverSilent { server: 0 });
        let t = Duration::from_secs(90);
        let (early, late) = (t + Duration::from_nanos(100), t + Duration::from_nanos(600));
        // Last applied wins: a crash last leaves the server dead at 120 s.
        let cases = [
            (vec![crash(early), recover(late)], false),
            (vec![recover(early), crash(late)], true),
            (vec![crash(t), recover(t)], false),
            (vec![recover(t), crash(t)], true),
        ];
        for (events, dead) in cases {
            let mut s = base_scenario();
            s.events = events.clone();
            let report = run_scenario(&s, &SystemConfig::default_eval(8)).unwrap();
            assert_eq!(!stale_view_at(&report).is_empty(), dead, "{events:?}");
        }
    }

    #[test]
    fn a_crash_after_the_last_epoch_fails_over_with_the_wait_clamped_to_the_horizon() {
        // Epochs at 0, 60, ..., 600 s of a 630 s horizon. One server: the
        // crash strands every cell it hosts until the run ends.
        let mut s = base_scenario();
        s.servers = 1;
        s.horizon = Duration::from_secs(630);
        s.events = vec![ev(
            Duration::from_secs(615),
            ChaosEvent::ServerCrash { server: 0 },
        )];
        let sys = SystemConfig::default_eval(8);
        let report = run_scenario(&s, &sys).unwrap();
        assert_eq!(report.epochs, 11);
        assert_eq!(report.failovers, 1);
        assert!(report.displaced_cells > 0);
        assert_eq!(
            report.max_outage,
            failover_price() + Duration::from_secs(15)
        );
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
