//! `pran-traces` — synthetic per-cell load traces.
//!
//! PRAN's evaluation relied on operator traces that are proprietary; this
//! crate is the documented substitute (see DESIGN.md). It generates per-cell
//! PRB-utilization time series whose *variability structure* — diurnal
//! class rhythms, imperfect inter-cell correlation, short-timescale
//! burstiness, flash crowds — is exactly what the multiplexing-gain and
//! placement experiments consume:
//!
//! * [`diurnal`] — per-class 24 h envelopes (office vs residential vs
//!   transport vs entertainment);
//! * [`trace`] — the [`Trace`] container plus the pooling statistics
//!   (sum-of-peaks, peak-of-sum, multiplexing gain) and JSON/CSV I/O;
//! * [`generator`] — the envelope scaled by a shared regional factor plus
//!   AR(1) per-cell noise (the burstiness), with reproducible seeding and
//!   flash-crowd injection;
//! * [`stream`] — the incremental twin of [`generate`], yielding rows one
//!   step at a time (bit-exact) for resident soak services.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diurnal;
pub mod generator;
pub mod stream;
pub mod trace;

pub use diurnal::{CellClass, DiurnalProfile};
pub use generator::{generate, ClassMix, FlashCrowd, TraceConfig};
pub use stream::TraceStream;
pub use trace::{pearson, CellMeta, Point, Trace};
