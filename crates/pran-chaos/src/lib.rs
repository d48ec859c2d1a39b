//! Deterministic chaos engineering for the PRAN stack.
//!
//! PRAN's central claim is that a pooled, software RAN can absorb
//! failures — server crashes, degraded fronthaul, load spikes, controller
//! restarts — without violating its real-time and placement contracts.
//! This crate turns that claim into an executable test surface:
//!
//! - [`scenario`] — a serde-loadable DSL describing a timed fault
//!   schedule over a deployment ([`Scenario`], [`ChaosEvent`]);
//! - [`inject`] — the [`run_scenario`] harness that drives events
//!   through the control plane (`pran::Controller`), the data plane
//!   (`pran_sim::PoolSimulator`) and the fronthaul fault injectors on
//!   one shared simulated clock;
//! - [`invariants`] — the safety envelope ([`InvariantChecker`]),
//!   evaluated every epoch: placement validity against a physical truth
//!   the caller passes in, capacity, outage and deadline-miss bounds,
//!   and snapshot/restore fidelity ([`restore_drill`]). `pran-mc`'s
//!   exhaustive explorer runs the same checker and drill, so the two
//!   tools judge one envelope and word each violation alike;
//! - [`mod@explore`] — seeded schedule sampling plus ddmin
//!   [`shrink`]ing of failing schedules to minimal,
//!   JSON-round-trippable reproducers.
//!
//! Everything is deterministic by construction: scenarios carry their
//! seed, RNG streams are ChaCha, and the harness is one loop over epoch
//! starts on whole microseconds — so any violation found by exploration
//! replays bit-for-bit from its JSON artifact (see experiment E13,
//! `bench/src/bin/e13_chaos.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod inject;
pub mod invariants;
pub mod scenario;

pub use explore::{
    explore, replay, sample_scenario, shrink, ExploreConfig, ExploreError, ExploreReport, Failure,
};
pub use inject::{failover_price, failure_specs, run_scenario, HarnessReport};
pub use invariants::{restore_drill, InvariantChecker, InvariantKind, Violation};
pub use scenario::{ChaosEvent, Scenario, ScenarioError, TimedEvent};
