//! `pran-obs` — the live observability plane for a resident PRAN soak.
//!
//! `pran-telemetry` records, `pran-insight` explains; this crate makes a
//! *running* deployment observable from the outside while it keeps
//! running:
//!
//! - [`recorder`] — a flight recorder: fixed-capacity, allocation-free
//!   ring of per-epoch records, cut into a [`RecorderDump`]
//!   (`pran-recorder/1`) when an SLO alert or safety violation fires;
//! - [`docs`] — the [`SloDoc`] (`pran-slo/1`) and [`TopkDoc`]
//!   (`pran-topk/1`) documents;
//! - [`phases`] — self-profiling of the epoch loop
//!   (ingest / dispatch / execute / merge / telemetry wall-clock
//!   histograms);
//! - [`http`] — a dependency-free scrape endpoint over `std::net`:
//!   `GET /metrics` (OpenMetrics, `# EOF`-terminated), `/healthz`,
//!   `/recorder`, `/slo` and `/topk`, answering from immutable per-epoch
//!   snapshots so scrapers never block the simulation;
//! - [`soak`] — the runner wiring a
//!   [`ResidentMetro`](pran_sim::ResidentMetro) into all of the above,
//!   one epoch at a time.
//!
//! Each JSON document is one derived type: the emitter serializes it,
//! its `Default` is the placeholder served before the first epoch, and
//! `telemetry_check` reads it back and calls its `check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod docs;
pub mod http;
pub mod phases;
pub mod recorder;
pub mod soak;

pub use docs::{SloDoc, TopkDoc, SLO_SCHEMA, TOPK_SCHEMA};
pub use http::{http_get, ObsServer, Published};
pub use phases::{Phase, PhaseProfiler};
pub use recorder::{FlightRecorder, RecorderDump, RECORDER_SCHEMA};
pub use soak::{SoakConfig, SoakEpoch, SoakRunner};
