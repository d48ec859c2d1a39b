//! Turning abstract counterexamples into replayable chaos scenarios.
//!
//! A violation found by the explorer is a *schedule* — a list of
//! abstract operations. This module compiles that schedule into a
//! [`pran_chaos::Scenario`]: silent-crash / notify events for the stale
//! semantics, loud crashes for linearizable, snapshot drills for
//! drills, with every event timed to land strictly between the epoch
//! boundaries `run_scenario` drives itself. The scenario is serialized
//! to JSON and re-parsed before running — the artifact a human gets is
//! bit-for-bit the artifact the reproduction ran.
//!
//! One abstraction gap is unavoidable: `run_scenario` feeds cell load
//! from its seeded trace, so `Report` operations (and the churn
//! operations the harness has no events for) are dropped — demand comes
//! from the trace instead, and the harness's placement may pack cells
//! onto different servers than the abstract path did. To absorb that,
//! [`emit_reproducing`] searches over server relabellings of the
//! emitted scenario (the deployment is symmetric, so relabelling is
//! behaviour-preserving at the scenario level) and returns the first
//! one whose concrete replay reproduces the violated invariant kind.

use pran_chaos::{run_scenario, ChaosEvent, HarnessReport, Scenario, TimedEvent};

use crate::explore::{permutations, McViolation};
use crate::model::{Model, Operation};
use crate::view::ViewSemantics;

/// Fixed seed for emitted scenarios: reproduction must not depend on
/// which seed a given run happened to use.
const COUNTEREXAMPLE_SEED: u64 = 0xE17;

/// Compile an abstract schedule into a chaos scenario.
///
/// The i-th operation with `j` epochs before it is timed at
/// `j·epoch + (i+1)·gap` with `gap = epoch / (len + 2)`, which keeps
/// every event strictly inside its epoch interval, in schedule order,
/// and never colliding with an epoch boundary. `Epoch` operations emit
/// no event — `run_scenario` runs an epoch at every boundary on its
/// own — they only advance `j`.
pub fn to_scenario(model: &Model, path: &[Operation], name: &str) -> Scenario {
    let cfg = model.config();
    let stale = matches!(cfg.semantics, ViewSemantics::Stale { .. });
    let epoch = cfg.sys.epoch;
    let gap = epoch / (path.len() as u32 + 2);
    let mut events = Vec::new();
    let mut epochs_before = 0u32;
    // Walk the model alongside the path: a Deliver's meaning (crash or
    // recovery, of which server) lives in the abstract pending queue.
    let mut state = model.initial_state();
    for (i, &op) in path.iter().enumerate() {
        let at = epoch * epochs_before + gap * (i as u32 + 1);
        let event = match op {
            Operation::Epoch => {
                epochs_before += 1;
                None
            }
            Operation::Fail { server } => Some(if stale {
                ChaosEvent::ServerCrashSilent { server }
            } else {
                ChaosEvent::ServerCrash { server }
            }),
            Operation::Recover { server } => Some(if stale {
                ChaosEvent::ServerRecoverSilent { server }
            } else {
                ChaosEvent::ServerRecover { server }
            }),
            Operation::Deliver => {
                let notice = state.pending.front().copied().expect("Deliver on a path");
                Some(if notice.up {
                    ChaosEvent::ServerNotifyRecover {
                        server: notice.server,
                    }
                } else {
                    ChaosEvent::ServerNotifyCrash {
                        server: notice.server,
                    }
                })
            }
            Operation::Drill => Some(ChaosEvent::SnapshotRestore { corrupt: false }),
            // Demand and membership come from the harness's trace; these
            // have no scenario-level representation.
            Operation::Report { .. } | Operation::Register | Operation::Deregister { .. } => None,
        };
        if let Some(event) = event {
            events.push(TimedEvent { at, event });
        }
        state = model.apply(&state, op).next;
    }
    let horizon = epoch * (epochs_before + 1);
    Scenario {
        name: name.to_string(),
        seed: COUNTEREXAMPLE_SEED,
        cells: cfg.cells,
        servers: cfg.servers,
        horizon,
        events,
    }
}

/// Relabel every server index in a scenario through `perm`.
fn permute_servers(scenario: &Scenario, perm: &[usize]) -> Scenario {
    let mut out = scenario.clone();
    for te in &mut out.events {
        let renamed = match te.event {
            ChaosEvent::ServerCrash { server } => ChaosEvent::ServerCrash {
                server: perm[server],
            },
            ChaosEvent::ServerRecover { server } => ChaosEvent::ServerRecover {
                server: perm[server],
            },
            ChaosEvent::ServerCrashSilent { server } => ChaosEvent::ServerCrashSilent {
                server: perm[server],
            },
            ChaosEvent::ServerNotifyCrash { server } => ChaosEvent::ServerNotifyCrash {
                server: perm[server],
            },
            ChaosEvent::ServerRecoverSilent { server } => ChaosEvent::ServerRecoverSilent {
                server: perm[server],
            },
            ChaosEvent::ServerNotifyRecover { server } => ChaosEvent::ServerNotifyRecover {
                server: perm[server],
            },
            ref other => other.clone(),
        };
        te.event = renamed;
    }
    out
}

/// A reproduced counterexample: the scenario JSON that was actually run
/// and the harness report agreeing with the abstract verdict.
#[derive(Debug)]
pub struct Reproduction {
    /// The scenario (post-relabelling) whose replay reproduced the
    /// violation.
    pub scenario: Scenario,
    /// Its JSON serialization — the shareable artifact; the report came
    /// from running exactly this text after a parse round-trip.
    pub json: String,
    /// The concrete harness verdict.
    pub report: HarnessReport,
}

/// Compile `violation`'s schedule to a scenario and find a server
/// relabelling whose *concrete* replay through
/// [`pran_chaos::run_scenario`] reproduces the same invariant kind.
/// Every candidate is serialized to JSON and re-parsed before running.
pub fn emit_reproducing(model: &Model, violation: &McViolation) -> Result<Reproduction, String> {
    let name = format!("mc-counterexample-{}", violation.kind.label());
    let base = to_scenario(model, &violation.path, &name);
    let mut last_report = None;
    for perm in permutations(model.config().servers) {
        let candidate = permute_servers(&base, &perm);
        let json = serde_json::to_string_pretty(&candidate)
            .map_err(|e| format!("counterexample failed to serialize: {e}"))?;
        let parsed: Scenario = serde_json::from_str(&json)
            .map_err(|e| format!("counterexample JSON failed to re-parse: {e}"))?;
        let report = run_scenario(&parsed, &model.config().sys)
            .map_err(|e| format!("emitted scenario was rejected by the harness: {e}"))?;
        if report.violations.iter().any(|v| v.kind == violation.kind) {
            return Ok(Reproduction {
                scenario: parsed,
                json,
                report,
            });
        }
        last_report = Some(report);
    }
    Err(format!(
        "no server relabelling of {name} reproduced {:?} (last report: {:?})",
        violation.kind,
        last_report.map(|r| r.violations)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::model::McConfig;
    use pran_chaos::InvariantKind;

    #[test]
    fn events_land_between_epoch_boundaries_in_order() {
        let model = Model::new(McConfig::headline_stale(2));
        let path = vec![
            Operation::Epoch,
            Operation::Fail { server: 1 },
            Operation::Drill,
            Operation::Epoch,
            Operation::Deliver,
        ];
        let s = to_scenario(&model, &path, "t");
        s.validate().expect("emitted scenarios must validate");
        let epoch = model.config().sys.epoch;
        assert_eq!(s.events.len(), 3); // fail, drill, deliver
        assert!(s.events[0].at > epoch && s.events[0].at < epoch * 2);
        assert!(s.events[1].at > s.events[0].at && s.events[1].at < epoch * 2);
        assert!(s.events[2].at > epoch * 2, "post-second-epoch");
        assert_eq!(
            s.events[0].event,
            ChaosEvent::ServerCrashSilent { server: 1 }
        );
        assert_eq!(
            s.events[2].event,
            ChaosEvent::ServerNotifyCrash { server: 1 }
        );
        assert!(s.horizon >= s.events[2].at);
    }

    #[test]
    fn linearizable_paths_emit_loud_crashes() {
        let model = Model::new(McConfig::headline());
        let path = vec![
            Operation::Epoch,
            Operation::Fail { server: 0 },
            Operation::Recover { server: 0 },
        ];
        let s = to_scenario(&model, &path, "t");
        assert_eq!(s.events[0].event, ChaosEvent::ServerCrash { server: 0 });
        assert_eq!(s.events[1].event, ChaosEvent::ServerRecover { server: 0 });
    }

    #[test]
    fn stale_counterexample_round_trips_to_a_concrete_violation() {
        // The end-to-end acceptance property: explore under stale views,
        // take the minimal counterexample, compile it to scenario JSON,
        // and reproduce the same invariant kind in the concrete harness.
        let model = Model::new(McConfig {
            depth: 4,
            ..McConfig::headline_stale(2)
        });
        let report = explore(&model);
        let violation = report
            .violations
            .iter()
            .find(|v| v.kind == InvariantKind::PlacementValid)
            .expect("stale views must produce a stale-placement violation");
        let repro = emit_reproducing(&model, violation).expect("must reproduce concretely");
        // One checker judges both: the abstract violation reads word for
        // word as one the harness reports.
        let details: Vec<&str> = repro
            .report
            .violations
            .iter()
            .map(|v| v.detail.as_str())
            .collect();
        assert!(
            details.contains(&violation.detail.as_str()),
            "{:?} not among {details:?}",
            violation.detail
        );
        assert!(repro.json.contains("ServerCrashSilent"));
    }
}
