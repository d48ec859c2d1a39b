//! Seeded schedule exploration and failing-schedule shrinking.
//!
//! [`explore`] samples fault schedules from a ChaCha stream (one
//! independent, reproducible stream per schedule index) and runs each
//! through [`run_scenario`]. When a schedule violates an invariant,
//! [`shrink`] delta-debugs it down to a minimal reproducer: the smallest
//! event subset that still triggers a violation of the same
//! [`InvariantKind`]. Because scenarios round-trip through JSON
//! ([`Scenario::to_json`] / [`replay`]), the shrunk schedule is a durable
//! artifact — CI can re-run it bit-for-bit and diff the verdict.

use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use pran::SystemConfig;

use crate::inject::{run_scenario, HarnessReport};
use crate::invariants::InvariantKind;
use crate::scenario::{ChaosEvent, Scenario, ScenarioError, TimedEvent};

/// Why an exploration sweep or a replay failed to run — as opposed to
/// running and finding violations, which is a successful outcome. Follows
/// the typed-error convention of `ScenarioError`/`PoolConfigError`.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// A sampled schedule failed scenario validation (a sampler bug, since
    /// [`sample_scenario`] is supposed to emit only valid scenarios).
    Schedule {
        /// Index of the offending schedule in the sweep.
        index: usize,
        /// What was wrong with it.
        source: ScenarioError,
    },
    /// A replay artifact failed to parse or validate.
    Artifact(ScenarioError),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Schedule { index, source } => {
                write!(f, "sampled schedule {index} is invalid: {source}")
            }
            ExploreError::Artifact(source) => write!(f, "{source}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Schedule { source, .. } | ExploreError::Artifact(source) => Some(source),
        }
    }
}

/// Stream-splitting constant (golden-ratio increment, as in SplitMix64):
/// schedule `i` draws from an RNG seeded `seed + i·PHI`, so schedules are
/// independent but individually re-derivable.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Exploration shape: how many schedules, over what deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Number of schedules to sample and run.
    pub schedules: usize,
    /// Master seed; every schedule derives its own stream from it.
    pub seed: u64,
    /// Cells in the sampled deployments.
    pub cells: usize,
    /// Servers in the sampled deployments.
    pub servers: usize,
    /// Simulated horizon per schedule.
    pub horizon: Duration,
    /// Ceiling on primary events per schedule (paired recoveries and
    /// link restores ride along on top).
    pub max_events: usize,
}

impl ExploreConfig {
    /// Evaluation defaults: 6 cells on 8 servers for 600 s.
    ///
    /// The shape is chosen so the envelope is *meant* to hold: at the
    /// 0.9 utilization cap a cell can demand most of one 400-GOPS
    /// server, and the sampler injects at most two concurrent crashes,
    /// leaving ≥ 6 live servers for 6 cells.
    pub fn default_eval(schedules: usize, seed: u64) -> Self {
        ExploreConfig {
            schedules,
            seed,
            cells: 6,
            servers: 8,
            horizon: Duration::from_secs(600),
            max_events: 6,
        }
    }
}

/// One schedule that violated the envelope.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index of the schedule in the exploration run.
    pub index: usize,
    /// The failing scenario (pre-shrink).
    pub scenario: Scenario,
    /// Its run report, violations included.
    pub report: HarnessReport,
}

/// Outcome of an exploration sweep.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Schedules run.
    pub runs: usize,
    /// Schedules that violated at least one invariant.
    pub failures: Vec<Failure>,
}

impl ExploreReport {
    /// Whether every schedule stayed inside the envelope.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total violations per invariant kind across all failures
    /// (all kinds, stable order).
    pub fn violations_by_kind(&self) -> Vec<(&'static str, usize)> {
        InvariantKind::all()
            .into_iter()
            .map(|k| {
                (
                    k.label(),
                    self.failures
                        .iter()
                        .flat_map(|f| &f.report.violations)
                        .filter(|v| v.kind == k)
                        .count(),
                )
            })
            .collect()
    }
}

/// Sample schedule `index` of an exploration deterministically.
///
/// The event mix leans on crashes (the paper's headline fault) but keeps
/// at most two unrecovered crashes per schedule so the deployment stays
/// solvable; link degradation, flash crowds and snapshot drills fill the
/// rest. Two calls with equal `(cfg, index)` return identical scenarios.
pub fn sample_scenario(cfg: &ExploreConfig, index: usize) -> Scenario {
    assert!(
        cfg.horizon >= Duration::from_secs(120),
        "sampler needs ≥ 120 s of horizon"
    );
    let mut rng =
        ChaCha20Rng::seed_from_u64(cfg.seed.wrapping_add(PHI.wrapping_mul(index as u64 + 1)));
    let horizon_s = cfg.horizon.as_secs();
    let mut events = Vec::new();
    let mut crashes = 0usize;
    let mut last_crashed = usize::MAX;
    let n = rng.gen_range(2..=cfg.max_events.max(2));
    for _ in 0..n {
        let at = Duration::from_secs(rng.gen_range(30..horizon_s - 60));
        let roll: f64 = rng.gen();
        if roll < 0.35 && crashes < 2 {
            let mut server = rng.gen_range(0..cfg.servers);
            if server == last_crashed {
                server = (server + 1) % cfg.servers;
            }
            last_crashed = server;
            crashes += 1;
            events.push(TimedEvent {
                at,
                event: ChaosEvent::ServerCrash { server },
            });
            if rng.gen_bool(0.6) {
                let back = (at + Duration::from_secs(rng.gen_range(60..180))).min(cfg.horizon);
                events.push(TimedEvent {
                    at: back,
                    event: ChaosEvent::ServerRecover { server },
                });
                crashes -= 1;
            }
        } else if roll < 0.55 {
            let rate_limited = rng.gen_bool(0.3);
            events.push(TimedEvent {
                at,
                event: ChaosEvent::LinkDegrade {
                    drop_prob: rng.gen_range(0.05..0.3),
                    max_jitter: Duration::from_micros(rng.gen_range(20..100)),
                    bucket_capacity: if rate_limited { rng.gen_range(2..8) } else { 0 },
                    refill_per_interval: if rate_limited { rng.gen_range(1..3) } else { 0 },
                    refill_interval: if rate_limited {
                        Duration::from_millis(rng.gen_range(1..5))
                    } else {
                        Duration::ZERO
                    },
                },
            });
            if rng.gen_bool(0.5) {
                let back = (at + Duration::from_secs(rng.gen_range(60..180))).min(cfg.horizon);
                events.push(TimedEvent {
                    at: back,
                    event: ChaosEvent::LinkRestore,
                });
            }
        } else if roll < 0.75 {
            events.push(TimedEvent {
                at,
                event: ChaosEvent::FlashCrowd {
                    x_m: rng.gen_range(0.0..10_000.0),
                    y_m: rng.gen_range(0.0..10_000.0),
                    radius_m: rng.gen_range(1_000.0..3_000.0),
                    duration: Duration::from_secs(rng.gen_range(60..180)),
                    boost: rng.gen_range(0.1..0.3),
                },
            });
        } else {
            events.push(TimedEvent {
                at,
                event: ChaosEvent::SnapshotRestore {
                    corrupt: rng.gen_bool(0.3),
                },
            });
        }
    }
    Scenario {
        name: format!("explore-{index}"),
        seed: rng.gen(),
        cells: cfg.cells,
        servers: cfg.servers,
        horizon: cfg.horizon,
        events,
    }
}

/// Run `cfg.schedules` sampled schedules and collect the failures.
pub fn explore(cfg: &ExploreConfig, sys: &SystemConfig) -> Result<ExploreReport, ExploreError> {
    let mut failures = Vec::new();
    for index in 0..cfg.schedules {
        let scenario = sample_scenario(cfg, index);
        let report = run_scenario(&scenario, sys)
            .map_err(|source| ExploreError::Schedule { index, source })?;
        if !report.ok() {
            failures.push(Failure {
                index,
                scenario,
                report,
            });
        }
    }
    Ok(ExploreReport {
        runs: cfg.schedules,
        failures,
    })
}

/// Whether the scenario still violates invariant `kind`.
fn fails_with(scenario: &Scenario, sys: &SystemConfig, kind: InvariantKind) -> bool {
    run_scenario(scenario, sys)
        .map(|r| r.violations.iter().any(|v| v.kind == kind))
        .unwrap_or(false)
}

/// Shrink a failing schedule to a minimal reproducer.
///
/// Classic ddmin over the event list: repeatedly drop chunks of
/// decreasing size, keeping any reduction that still reproduces a
/// violation of `kind` (the "same failure" test). The result is
/// 1-minimal — removing any single remaining event loses the violation —
/// and, like every scenario, replays deterministically.
pub fn shrink(scenario: &Scenario, sys: &SystemConfig, kind: InvariantKind) -> Scenario {
    let with_events = |events: Vec<TimedEvent>| Scenario {
        name: format!("{}-shrunk", scenario.name),
        events,
        ..scenario.clone()
    };
    let mut events = scenario.sorted_events();
    let mut chunk = events.len();
    while chunk > 0 && !events.is_empty() {
        let mut removed = false;
        let mut i = 0;
        while i < events.len() {
            let end = (i + chunk).min(events.len());
            let candidate: Vec<TimedEvent> =
                events[..i].iter().chain(&events[end..]).cloned().collect();
            if fails_with(&with_events(candidate.clone()), sys, kind) {
                events = candidate;
                removed = true;
                // Same index now holds the next chunk; do not advance.
            } else {
                i = end;
            }
        }
        if chunk == 1 && !removed {
            break;
        }
        chunk = if removed {
            chunk.min(events.len().max(1))
        } else {
            chunk / 2
        };
    }
    with_events(events)
}

/// Parse a scenario artifact and re-run it.
///
/// This is the CI determinism check: two replays of the same JSON must
/// produce identical violation lists.
pub fn replay(json: &str, sys: &SystemConfig) -> Result<(Scenario, HarnessReport), ExploreError> {
    let scenario = Scenario::from_json(json).map_err(ExploreError::Artifact)?;
    let report = run_scenario(&scenario, sys).map_err(ExploreError::Artifact)?;
    Ok((scenario, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_index_dependent() {
        let cfg = ExploreConfig::default_eval(10, 42);
        let a = sample_scenario(&cfg, 3);
        let b = sample_scenario(&cfg, 3);
        assert_eq!(a, b);
        let c = sample_scenario(&cfg, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn sampled_scenarios_validate() {
        let cfg = ExploreConfig::default_eval(10, 7);
        for i in 0..20 {
            let s = sample_scenario(&cfg, i);
            s.validate().unwrap_or_else(|e| panic!("schedule {i}: {e}"));
            assert!(!s.events.is_empty());
            let crashes = s
                .events
                .iter()
                .filter(|te| matches!(te.event, ChaosEvent::ServerCrash { .. }))
                .count();
            let recovers = s
                .events
                .iter()
                .filter(|te| matches!(te.event, ChaosEvent::ServerRecover { .. }))
                .count();
            assert!(
                crashes - recovers.min(crashes) <= 2,
                "schedule {i} over-crashes"
            );
        }
    }

    #[test]
    fn exploration_at_sane_bounds_stays_clean() {
        let cfg = ExploreConfig::default_eval(4, 11);
        let sys = SystemConfig::default_eval(cfg.servers);
        let report = explore(&cfg, &sys).unwrap();
        assert_eq!(report.runs, 4);
        assert!(
            report.ok(),
            "unexpected violations: {:?}",
            report
                .failures
                .iter()
                .map(|f| (&f.scenario.name, &f.report.violations))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn shrink_reduces_to_the_crash_alone() {
        // Crash at 120 s plus three red herrings. With the outage bound
        // at zero, only the crash can trip OutageExceeded.
        let scenario = Scenario {
            name: "noisy".into(),
            seed: 5,
            cells: 6,
            servers: 8,
            horizon: Duration::from_secs(600),
            events: vec![
                TimedEvent {
                    at: Duration::from_secs(60),
                    event: ChaosEvent::FlashCrowd {
                        x_m: 5_000.0,
                        y_m: 5_000.0,
                        radius_m: 2_000.0,
                        duration: Duration::from_secs(120),
                        boost: 0.2,
                    },
                },
                TimedEvent {
                    at: Duration::from_secs(120),
                    event: ChaosEvent::ServerCrash { server: 0 },
                },
                TimedEvent {
                    at: Duration::from_secs(240),
                    event: ChaosEvent::SnapshotRestore { corrupt: false },
                },
                TimedEvent {
                    at: Duration::from_secs(300),
                    event: ChaosEvent::ServerRecover { server: 0 },
                },
            ],
        };
        let mut sys = SystemConfig::default_eval(8);
        sys.slo.outage_p99_max = Duration::ZERO;
        assert!(fails_with(&scenario, &sys, InvariantKind::OutageExceeded));

        let minimal = shrink(&scenario, &sys, InvariantKind::OutageExceeded);
        assert_eq!(minimal.events.len(), 1, "events: {:?}", minimal.events);
        assert!(matches!(
            minimal.events[0].event,
            ChaosEvent::ServerCrash { server: 0 }
        ));

        // The shrunk schedule is a durable, deterministic artifact.
        let json = minimal.to_json();
        let (parsed, first) = replay(&json, &sys).unwrap();
        let (_, second) = replay(&json, &sys).unwrap();
        assert_eq!(parsed, minimal);
        assert_eq!(first.violations, second.violations);
        assert!(first
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::OutageExceeded));
    }

    #[test]
    fn replay_errors_are_typed() {
        let sys = SystemConfig::default_eval(8);
        let err = replay("{", &sys).unwrap_err();
        assert!(matches!(
            err,
            ExploreError::Artifact(ScenarioError::Parse(_))
        ));

        let mut invalid = Scenario::baseline("bad", 1, 6, 8);
        invalid.cells = 0;
        let err = replay(&invalid.to_json(), &sys).unwrap_err();
        assert_eq!(err, ExploreError::Artifact(ScenarioError::NoCells));
        assert_eq!(err.to_string(), "scenario needs at least one cell");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn shrink_keeps_a_schedule_that_cannot_shrink() {
        let scenario = Scenario {
            name: "lone-crash".into(),
            seed: 9,
            cells: 6,
            servers: 8,
            horizon: Duration::from_secs(600),
            events: vec![TimedEvent {
                at: Duration::from_secs(120),
                event: ChaosEvent::ServerCrash { server: 0 },
            }],
        };
        let mut sys = SystemConfig::default_eval(8);
        sys.slo.outage_p99_max = Duration::ZERO;
        let minimal = shrink(&scenario, &sys, InvariantKind::OutageExceeded);
        assert_eq!(minimal.events.len(), 1);
    }
}
