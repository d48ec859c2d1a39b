//! `pran-sched` — PRAN's two-timescale resource manager.
//!
//! The controller makes two kinds of decisions at two cadences:
//!
//! * **Coarse (seconds–minutes)** — [`placement`]: which pool server owns
//!   each cell's baseband processing. Exact solutions come from the
//!   bin-packing ILP ([`placement::ilp`], backed by `pran-ilp`), production
//!   decisions from decreasing-fit heuristics
//!   ([`placement::heuristics`]), epoch-to-epoch churn is bounded by
//!   incremental repacking ([`placement::migration`]), and pool sizing for
//!   the multiplexing experiment lives in [`placement::dimensioning`].
//!   Demand forecasts feeding all of this come from [`predict`].
//! * **Fine (per-TTI)** — [`realtime`]: scheduling subframe tasks with HARQ
//!   deadlines on pool cores (global EDF vs FIFO vs partitioned), with one
//!   greedy dispatcher ([`realtime::simulate_into`]) plus the pool
//!   server's N-core executor ([`realtime::parallel`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod placement;
pub mod predict;
pub mod realtime;

pub use placement::heuristics::{place, Heuristic, HeuristicResult};
pub use placement::{CellDemand, Placement, PlacementError, PlacementInstance, ServerSpec};
pub use predict::{evaluate, Ewma, HoltLinear, Predictor, SlidingMax};
pub use realtime::{simulate, Policy, RtTask};
