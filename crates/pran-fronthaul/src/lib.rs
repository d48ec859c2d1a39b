//! `pran-fronthaul` — the transport segment between front-end radios and
//! the processing pool.
//!
//! PRAN replaces dedicated CPRI links with packetized fronthaul over
//! commodity switches, and argues for a *partial* PHY split (FFT at the
//! front-end) so fronthaul bandwidth scales with load instead of antennas.
//! This crate models and implements that segment:
//!
//! * [`cpri`] — the constant-bit-rate CPRI baseline (line rates, options);
//! * [`split`] — functional splits: bandwidth as a function of load and
//!   the latency each split tolerates (experiment E7's subject);
//! * [`packet`] — a real wire format: framing, fragmentation, reassembly;
//! * [`budget`] — latency budgeting: propagation + serialization +
//!   switching vs the HARQ deadline, yielding per-(cell, site) compute
//!   budgets for the placement problem;
//! * [`fault`] — deterministic loss/corruption/jitter/rate-limit injection
//!   for tests and examples.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod cpri;
pub mod fault;
pub mod packet;
pub mod split;
pub mod topology;

pub use budget::{FronthaulPath, FIBER_SPEED_M_S};
pub use cpri::{CpriConfig, CpriOption, LineCoding};
pub use fault::{FaultConfig, FaultInjector, FaultStats, JitterQueue, Outcome};
pub use packet::{
    fragment, Assembled, DecodeError, Frame, FrameKind, Reassembler, HEADER_LEN, MAGIC,
};
pub use split::FunctionalSplit;
pub use topology::{edge_regional, FrontEnd, Reachability, Site, Topology};
