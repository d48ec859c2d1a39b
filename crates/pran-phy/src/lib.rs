//! `pran-phy` — the LTE PHY/MAC substrate PRAN's data plane processes.
//!
//! PRAN lifts baseband processing off proprietary base-station hardware and
//! onto pooled commodity servers. Everything that pooling decision needs to
//! know about the radio stack lives here:
//!
//! * [`frame`] — LTE numerology: TTIs, PRB grids, HARQ deadlines;
//! * [`mcs`] — modulation-and-coding schemes and transport-block sizing;
//! * [`compute`] — the per-stage GOPS cost model (what a cell-subframe
//!   *costs*, as a function of PRBs, MCS, antennas and layers);
//! * [`kernels`] — real DSP implementations (turbo codec, FFT, QAM, CRC,
//!   rate matching, scrambling) used by the processing-time benchmarks;
//! * [`pipeline`] — an executable uplink subframe chaining the kernels
//!   end-to-end with per-stage timing.
//!
//! The analytic model and the executable kernels deliberately describe the
//! same pipeline: experiments use the model for scale (hundreds of cells ×
//! hours) and the kernels for ground truth (one subframe, measured).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compute;
pub mod frame;
pub mod kernels;
pub mod mcs;
pub mod pipeline;

pub use compute::{CellWorkload, ComputeModel, FunctionalSplit, Stage, StageCost, SubframeCost};
pub use frame::{
    AntennaConfig, Bandwidth, Direction, PrbAllocation, Tti, COMPUTE_DEADLINE, HARQ_DEADLINE,
    TTI as TTI_DURATION,
};
pub use mcs::{Mcs, Modulation};
