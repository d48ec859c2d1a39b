//! `pran-fronthaul` — the transport segment between front-end radios and
//! the processing pool.
//!
//! PRAN replaces dedicated CPRI links with a shared fronthaul network, and
//! argues for a *partial* PHY split (FFT at the front-end) so fronthaul
//! bandwidth scales with load instead of antennas. This crate models that
//! segment; it sizes and delays frames but never encodes them:
//!
//! * [`cpri`] — the constant-bit-rate CPRI baseline (line rates, options);
//! * [`split`] — functional splits: bandwidth as a function of load and
//!   the latency each split tolerates (experiment E7's subject);
//! * [`budget`] — latency budgeting: propagation + serialization +
//!   switching vs the HARQ deadline, yielding per-(cell, site) compute
//!   budgets for the placement problem;
//! * [`topology`] — front-ends, sites and the reachability matrix the
//!   budgets induce;
//! * [`fault`] — one seeded link per cell, drawing each uplink frame's
//!   fate (rate-limited, dropped, or delivered after a jitter) for the
//!   pool simulator and the chaos harness; no frame is built.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod cpri;
pub mod fault;
pub mod split;
pub mod topology;

pub use budget::{FronthaulPath, FIBER_SPEED_M_S};
pub use cpri::CpriOption;
pub use fault::{FaultConfig, FaultInjector};
pub use split::FunctionalSplit;
pub use topology::{edge_regional, FrontEnd, Reachability, Site, Topology};
