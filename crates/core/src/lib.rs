//! # `pran` — Programmable Radio Access Networks
//!
//! A reconstruction of the PRAN system (HotNets 2014): base-station
//! baseband processing lifted onto a pool of commodity servers behind
//! packetized fronthaul, with a logically centralized, *programmable*
//! control plane deciding — at two timescales — where every cell's
//! processing runs and how pool resources are shared.
//!
//! This crate is the public face of the workspace:
//!
//! * [`Controller`] — centralized state, telemetry ingestion, per-epoch
//!   placement, action validation;
//! * [`api`] — the northbound contract: [`api::PoolView`] snapshots in,
//!   [`api::Action`]s out, [`api::ControlApp`] as the extension point;
//! * [`apps`] — built-in policies: fast failover, consolidation, hot-spot
//!   balancing, spectrum-based graceful degradation;
//! * re-exported substrates: [`phy`] (LTE model + DSP kernels),
//!   [`fronthaul`] (CPRI/splits/framing/latency budgets), [`traces`]
//!   (synthetic load), [`sched`] (placement ILP + heuristics, real-time
//!   scheduling), [`ilp`] (the LP/ILP solver).
//!
//! The pool simulator the controller is evaluated against is a crate of
//! its own, `pran-sim`, with its own configuration; this one's
//! [`SystemConfig`] describes the controller alone.
//!
//! ## Quickstart
//!
//! ```
//! use std::time::Duration;
//! use pran::{Controller, SystemConfig};
//! use pran::apps::FailoverApp;
//!
//! // A pool of 4 servers, default radio parameters.
//! let mut ctl = Controller::new(SystemConfig::default_eval(4));
//! ctl.install_app(Box::new(FailoverApp::new()));
//!
//! // Register cells and feed load telemetry.
//! let cells: Vec<usize> = (0..6).map(|_| ctl.register_cell()).collect();
//! for &c in &cells {
//!     ctl.report_load(c, 0.5).unwrap();
//! }
//!
//! // One placement epoch: every cell lands on a server.
//! let report = ctl.run_epoch(Duration::from_secs(60));
//! assert_eq!(report.unplaced, 0);
//!
//! // Kill the server hosting cell 0 — the failover app re-places its
//! // cells immediately, without waiting for the next epoch.
//! let victim = ctl.placement().assignment[0].unwrap();
//! let failure = ctl.server_failed(victim, Duration::from_secs(61)).unwrap();
//! assert_eq!(failure.replaced, failure.displaced.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod apps;
pub mod config;
pub mod controller;

pub use api::{Action, ActionError, CellView, CloneApp, ControlApp, PoolView, ServerView};
pub use config::{PoolSpec, SystemConfig};
pub use controller::{
    Controller, ControllerStats, EpochReport, FailureReport, Snapshot, SnapshotError,
    PREDICT_WINDOW,
};

pub use pran_fronthaul as fronthaul;
pub use pran_ilp as ilp;
pub use pran_phy as phy;
pub use pran_sched as sched;
pub use pran_traces as traces;
