//! The scenario DSL: a serde-loadable, timed fault schedule.
//!
//! A [`Scenario`] is the unit of chaos: a named, seeded description of a
//! deployment (cells, servers, horizon) plus a list of [`TimedEvent`]s
//! composing every fault class the workspace models — server
//! crash/recovery (`pran-sim::pool`), fronthaul degradation
//! (`pran-fronthaul::fault`), flash-crowd load spikes (`pran-traces`) and
//! mid-run controller snapshot/restore (`pran::Controller`). Scenarios
//! round-trip through JSON, which is what makes a shrunk failing schedule
//! a durable artifact: the explorer writes it, a bug report quotes it,
//! and [`crate::explore::replay`] re-runs it bit-for-bit.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use pran_fronthaul::fault::FaultConfig;
use pran_traces::{FlashCrowd, Point};

/// One fault class at one instant. Every variant maps onto an existing
/// subsystem's fault surface; the DSL adds composition and timing only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChaosEvent {
    /// Kill a server (`pran::Controller::server_failed` on the control
    /// plane, a `pran-sim` `FailureSpec` on the data plane).
    ServerCrash {
        /// The server to kill.
        server: usize,
    },
    /// Bring a crashed server back (`Controller::server_recovered`).
    ServerRecover {
        /// The server to revive.
        server: usize,
    },
    /// Kill a server on the data plane *without* telling the controller —
    /// the stale-view failure mode a distributed deployment hits when the
    /// liveness monitor lags. The controller keeps believing the server is
    /// alive until a matching [`ChaosEvent::ServerNotifyCrash`] delivers
    /// the notification.
    ServerCrashSilent {
        /// The server that physically dies.
        server: usize,
    },
    /// Deliver a delayed crash notification to the controller
    /// (`Controller::server_failed`) for a server that already died via
    /// [`ChaosEvent::ServerCrashSilent`].
    ServerNotifyCrash {
        /// The server the controller now learns is dead.
        server: usize,
    },
    /// Physically revive a server without telling the controller (the
    /// recovery-side stale view: the controller keeps routing around a
    /// server that is actually back).
    ServerRecoverSilent {
        /// The server that physically comes back.
        server: usize,
    },
    /// Deliver a delayed recovery notification to the controller
    /// (`Controller::server_recovered`).
    ServerNotifyRecover {
        /// The server the controller now learns is back.
        server: usize,
    },
    /// Degrade every cell's fronthaul link from this instant on
    /// (loss / jitter / token-bucket rate limit, per
    /// `pran-fronthaul::fault::FaultConfig`).
    LinkDegrade {
        /// Probability of dropping an uplink report, in `[0, 1]`.
        drop_prob: f64,
        /// Maximum extra queueing jitter per delivered report.
        max_jitter: Duration,
        /// Token-bucket capacity in reports (0 disables rate limiting).
        bucket_capacity: u32,
        /// Tokens added per refill.
        refill_per_interval: u32,
        /// Simulated-time spacing of refills (the shared-tick clock).
        refill_interval: Duration,
    },
    /// Restore clean fronthaul links.
    LinkRestore,
    /// A flash crowd: localized load spike compiled into the trace
    /// (`pran-traces::FlashCrowd`) starting at this event's time.
    FlashCrowd {
        /// Epicenter east coordinate, meters.
        x_m: f64,
        /// Epicenter north coordinate, meters.
        y_m: f64,
        /// Decay radius in meters.
        radius_m: f64,
        /// How long the crowd lasts.
        duration: Duration,
        /// Peak added utilization at the epicenter, in `[0, 1]`.
        boost: f64,
    },
    /// Snapshot the controller, serialize, (optionally corrupt,) and
    /// restore — the controller-failover drill. With `corrupt` the
    /// snapshot's placement is damaged in flight and
    /// `Controller::try_restore` must reject it.
    SnapshotRestore {
        /// Damage the serialized snapshot before restoring.
        corrupt: bool,
    },
}

impl ChaosEvent {
    /// Stable label for telemetry and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosEvent::ServerCrash { .. } => "server_crash",
            ChaosEvent::ServerRecover { .. } => "server_recover",
            ChaosEvent::ServerCrashSilent { .. } => "server_crash_silent",
            ChaosEvent::ServerNotifyCrash { .. } => "server_notify_crash",
            ChaosEvent::ServerRecoverSilent { .. } => "server_recover_silent",
            ChaosEvent::ServerNotifyRecover { .. } => "server_notify_recover",
            ChaosEvent::LinkDegrade { .. } => "link_degrade",
            ChaosEvent::LinkRestore => "link_restore",
            ChaosEvent::FlashCrowd { .. } => "flash_crowd",
            ChaosEvent::SnapshotRestore { .. } => "snapshot_restore",
        }
    }

    /// The fronthaul fault parameters of a `LinkDegrade`, if that is what
    /// this event is.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        match *self {
            ChaosEvent::LinkDegrade {
                drop_prob,
                max_jitter,
                bucket_capacity,
                refill_per_interval,
                refill_interval,
            } => Some(FaultConfig {
                drop_prob,
                max_jitter,
                bucket_capacity,
                refill_per_interval,
                refill_interval,
            }),
            _ => None,
        }
    }
}

/// An event pinned to a simulated instant (relative to scenario start).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// When the event fires.
    pub at: Duration,
    /// What happens.
    pub event: ChaosEvent,
}

/// A complete chaos scenario: deployment shape, seed, horizon, schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name (carried into reports).
    pub name: String,
    /// Seed for the load trace and every derived RNG stream — two runs of
    /// the same scenario are bit-identical.
    pub seed: u64,
    /// Cells in the deployment.
    pub cells: usize,
    /// Servers in the pool.
    pub servers: usize,
    /// Simulated run length.
    pub horizon: Duration,
    /// The fault schedule. Order is not significant; events are sorted by
    /// time (stable) before injection.
    pub events: Vec<TimedEvent>,
}

impl Scenario {
    /// A quiet scenario: no faults, just the seeded load trace.
    pub fn baseline(name: &str, seed: u64, cells: usize, servers: usize) -> Self {
        Scenario {
            name: name.to_string(),
            seed,
            cells,
            servers,
            horizon: Duration::from_secs(600),
            events: Vec::new(),
        }
    }

    /// Structural validation: indices in range, probabilities in `[0, 1]`,
    /// events inside the horizon.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.cells == 0 {
            return Err(ScenarioError::NoCells);
        }
        if self.servers == 0 {
            return Err(ScenarioError::NoServers);
        }
        if self.horizon.is_zero() {
            return Err(ScenarioError::ZeroHorizon);
        }
        for (i, te) in self.events.iter().enumerate() {
            if te.at > self.horizon {
                return Err(ScenarioError::EventPastHorizon {
                    index: i,
                    label: te.event.label(),
                    at: te.at,
                    horizon: self.horizon,
                });
            }
            match &te.event {
                ChaosEvent::ServerCrash { server }
                | ChaosEvent::ServerRecover { server }
                | ChaosEvent::ServerCrashSilent { server }
                | ChaosEvent::ServerNotifyCrash { server }
                | ChaosEvent::ServerRecoverSilent { server }
                | ChaosEvent::ServerNotifyRecover { server } => {
                    if *server >= self.servers {
                        return Err(ScenarioError::ServerOutOfRange {
                            index: i,
                            server: *server,
                            servers: self.servers,
                        });
                    }
                }
                ChaosEvent::LinkDegrade { drop_prob, .. } => {
                    if !(0.0..=1.0).contains(drop_prob) {
                        return Err(ScenarioError::ProbabilityOutOfRange {
                            index: i,
                            field: "drop_prob",
                            value: *drop_prob,
                        });
                    }
                }
                ChaosEvent::FlashCrowd {
                    boost, radius_m, ..
                } => {
                    if !(0.0..=1.0).contains(boost) {
                        return Err(ScenarioError::ProbabilityOutOfRange {
                            index: i,
                            field: "boost",
                            value: *boost,
                        });
                    }
                    // NaN-safe: a NaN radius fails `<= 0.0`, so check it
                    // explicitly rather than negating a partial comparison.
                    if *radius_m <= 0.0 || radius_m.is_nan() {
                        return Err(ScenarioError::NonPositiveRadius {
                            index: i,
                            radius_m: *radius_m,
                        });
                    }
                }
                ChaosEvent::LinkRestore | ChaosEvent::SnapshotRestore { .. } => {}
            }
        }
        Ok(())
    }

    /// Events sorted by time (stable: ties keep schedule order).
    pub fn sorted_events(&self) -> Vec<TimedEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// The scenario's flash crowds as `pran-traces` events, for compiling
    /// into the load trace at generation time.
    pub fn flash_crowds(&self) -> Vec<FlashCrowd> {
        self.events
            .iter()
            .filter_map(|te| match te.event {
                ChaosEvent::FlashCrowd {
                    x_m,
                    y_m,
                    radius_m,
                    duration,
                    boost,
                } => Some(FlashCrowd {
                    epicenter: Point { x: x_m, y: y_m },
                    radius_m,
                    start_s: te.at.as_secs_f64(),
                    duration_s: duration.as_secs_f64(),
                    boost,
                }),
                _ => None,
            })
            .collect()
    }

    /// Serialize to pretty JSON (the replay artifact format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serializes")
    }

    /// Parse a scenario from JSON and validate it. Malformed JSON and
    /// structurally invalid scenarios both come back as a typed
    /// [`ScenarioError`], never a panic.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let s: Scenario =
            serde_json::from_str(json).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        s.validate()?;
        Ok(s)
    }
}

/// Why a [`Scenario`] was rejected — by JSON parsing, by
/// [`Scenario::validate`], or by [`run_scenario`](crate::run_scenario)
/// for a system it cannot run on. The `Display` phrasing matches the
/// historical string errors, which replay artifacts and tests match on.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The JSON did not parse into a [`Scenario`].
    Parse(String),
    /// `cells == 0`.
    NoCells,
    /// `servers == 0`.
    NoServers,
    /// The horizon is zero.
    ZeroHorizon,
    /// The system's placement epoch is zero, so the harness's epoch
    /// clock would never advance.
    ZeroEpoch,
    /// An event fires after the scenario ends.
    EventPastHorizon {
        /// Position in the schedule.
        index: usize,
        /// The event's [`ChaosEvent::label`].
        label: &'static str,
        /// When the event fires.
        at: Duration,
        /// The scenario horizon it overshoots.
        horizon: Duration,
    },
    /// A crash/recover event names a server outside the pool.
    ServerOutOfRange {
        /// Position in the schedule.
        index: usize,
        /// The out-of-range server id.
        server: usize,
        /// Servers actually in the pool.
        servers: usize,
    },
    /// A probability field (`drop_prob`, `boost`) is outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Position in the schedule.
        index: usize,
        /// Which field is bad.
        field: &'static str,
        /// The offending value (NaN included).
        value: f64,
    },
    /// A flash crowd's decay radius is not positive (NaN included).
    NonPositiveRadius {
        /// Position in the schedule.
        index: usize,
        /// The offending radius.
        radius_m: f64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::NoCells => write!(f, "scenario needs at least one cell"),
            ScenarioError::NoServers => write!(f, "scenario needs at least one server"),
            ScenarioError::ZeroHorizon => write!(f, "scenario horizon must be positive"),
            ScenarioError::ZeroEpoch => write!(f, "system placement epoch must be positive"),
            ScenarioError::EventPastHorizon {
                index,
                label,
                at,
                horizon,
            } => write!(
                f,
                "event {index} ({label}) at {at:?} is past the horizon {horizon:?}"
            ),
            ScenarioError::ServerOutOfRange {
                index,
                server,
                servers,
            } => write!(
                f,
                "event {index}: server {server} out of range (pool has {servers})"
            ),
            ScenarioError::ProbabilityOutOfRange {
                index,
                field,
                value,
            } => write!(f, "event {index}: {field} {value} outside [0, 1]"),
            ScenarioError::NonPositiveRadius { index, radius_m } => {
                write!(f, "event {index}: radius {radius_m} must be positive")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            name: "crash-then-degrade".into(),
            seed: 42,
            cells: 6,
            servers: 8,
            horizon: Duration::from_secs(600),
            events: vec![
                TimedEvent {
                    at: Duration::from_secs(120),
                    event: ChaosEvent::ServerCrash { server: 2 },
                },
                TimedEvent {
                    at: Duration::from_secs(300),
                    event: ChaosEvent::ServerRecover { server: 2 },
                },
                TimedEvent {
                    at: Duration::from_secs(60),
                    event: ChaosEvent::LinkDegrade {
                        drop_prob: 0.1,
                        max_jitter: Duration::from_micros(80),
                        bucket_capacity: 0,
                        refill_per_interval: 0,
                        refill_interval: Duration::ZERO,
                    },
                },
                TimedEvent {
                    at: Duration::from_secs(200),
                    event: ChaosEvent::FlashCrowd {
                        x_m: 5_000.0,
                        y_m: 5_000.0,
                        radius_m: 2_000.0,
                        duration: Duration::from_secs(120),
                        boost: 0.3,
                    },
                },
                TimedEvent {
                    at: Duration::from_secs(400),
                    event: ChaosEvent::SnapshotRestore { corrupt: false },
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let s = sample();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sorted_events_order_by_time() {
        let evs = sample().sorted_events();
        for w in evs.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert_eq!(evs[0].event.label(), "link_degrade");
    }

    #[test]
    fn validate_rejects_bad_scenarios() {
        let mut s = sample();
        s.events[0].event = ChaosEvent::ServerCrash { server: 99 };
        let err = s.validate().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::ServerOutOfRange {
                index: 0,
                server: 99,
                servers: 8
            }
        );
        assert!(err.to_string().contains("out of range"));

        let mut s = sample();
        s.events[0].at = Duration::from_secs(601);
        let err = s.validate().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::EventPastHorizon { index: 0, .. }
        ));
        assert!(err.to_string().contains("past the horizon"));

        let mut s = sample();
        s.events[2].event = ChaosEvent::LinkDegrade {
            drop_prob: 1.5,
            max_jitter: Duration::ZERO,
            bucket_capacity: 0,
            refill_per_interval: 0,
            refill_interval: Duration::ZERO,
        };
        let err = s.validate().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::ProbabilityOutOfRange {
                field: "drop_prob",
                ..
            }
        ));
        assert!(err.to_string().contains("drop_prob"));

        let mut s = sample();
        s.servers = 0;
        assert_eq!(s.validate(), Err(ScenarioError::NoServers));
        let mut s = sample();
        s.cells = 0;
        assert_eq!(s.validate(), Err(ScenarioError::NoCells));
        let mut s = sample();
        s.horizon = Duration::ZERO;
        // Every event is now past the zero horizon too, but the horizon
        // check comes first.
        assert_eq!(s.validate(), Err(ScenarioError::ZeroHorizon));
    }

    #[test]
    fn validate_rejects_nan_fields() {
        let mut s = sample();
        s.events[3].event = ChaosEvent::FlashCrowd {
            x_m: 0.0,
            y_m: 0.0,
            radius_m: f64::NAN,
            duration: Duration::from_secs(60),
            boost: 0.2,
        };
        assert!(matches!(
            s.validate().unwrap_err(),
            ScenarioError::NonPositiveRadius { index: 3, .. }
        ));

        let mut s = sample();
        s.events[3].event = ChaosEvent::FlashCrowd {
            x_m: 0.0,
            y_m: 0.0,
            radius_m: 100.0,
            duration: Duration::from_secs(60),
            boost: f64::NAN,
        };
        assert!(matches!(
            s.validate().unwrap_err(),
            ScenarioError::ProbabilityOutOfRange { field: "boost", .. }
        ));
    }

    #[test]
    fn malformed_json_is_a_typed_parse_error() {
        for bad in [
            "",
            "{",
            "null",
            "[1, 2, 3]",
            r#"{"name": "x"}"#,
            r#"{"name": "x", "seed": -1, "cells": 1, "servers": 1, "horizon": {"secs": 1, "nanos": 0}, "events": []}"#,
        ] {
            match Scenario::from_json(bad) {
                Err(ScenarioError::Parse(_)) => {}
                other => panic!("{bad:?} must be a parse error, got {other:?}"),
            }
        }
        // Well-formed JSON that fails *validation* is not a parse error.
        let mut s = sample();
        s.cells = 0;
        assert_eq!(
            Scenario::from_json(&s.to_json()),
            Err(ScenarioError::NoCells)
        );
    }

    #[test]
    fn stale_view_events_round_trip_and_validate() {
        let mut s = sample();
        s.events = vec![
            TimedEvent {
                at: Duration::from_secs(90),
                event: ChaosEvent::ServerCrashSilent { server: 1 },
            },
            TimedEvent {
                at: Duration::from_secs(150),
                event: ChaosEvent::ServerNotifyCrash { server: 1 },
            },
            TimedEvent {
                at: Duration::from_secs(200),
                event: ChaosEvent::ServerRecoverSilent { server: 1 },
            },
            TimedEvent {
                at: Duration::from_secs(260),
                event: ChaosEvent::ServerNotifyRecover { server: 1 },
            },
        ];
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.events[0].event.label(), "server_crash_silent");
        assert_eq!(s.events[1].event.label(), "server_notify_crash");
        assert_eq!(s.events[2].event.label(), "server_recover_silent");
        assert_eq!(s.events[3].event.label(), "server_notify_recover");

        // Out-of-range servers are rejected for every stale-view variant.
        for event in [
            ChaosEvent::ServerCrashSilent { server: 99 },
            ChaosEvent::ServerNotifyCrash { server: 99 },
            ChaosEvent::ServerRecoverSilent { server: 99 },
            ChaosEvent::ServerNotifyRecover { server: 99 },
        ] {
            let mut bad = s.clone();
            bad.events[0].event = event;
            assert!(matches!(
                bad.validate().unwrap_err(),
                ScenarioError::ServerOutOfRange {
                    index: 0,
                    server: 99,
                    ..
                }
            ));
        }
    }

    #[test]
    fn flash_crowds_compile_to_trace_events() {
        let crowds = sample().flash_crowds();
        assert_eq!(crowds.len(), 1);
        assert_eq!(crowds[0].start_s, 200.0);
        assert_eq!(crowds[0].duration_s, 120.0);
        assert_eq!(crowds[0].boost, 0.3);
    }

    #[test]
    fn link_degrade_maps_onto_fault_config() {
        let s = sample();
        let cfg = s.events[2].event.fault_config().unwrap();
        assert_eq!(cfg.drop_prob, 0.1);
        assert_eq!(cfg.max_jitter, Duration::from_micros(80));
        assert!(s.events[0].event.fault_config().is_none());
    }
}
