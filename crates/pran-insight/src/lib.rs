//! `pran-insight`: turning recorded PRAN telemetry into answers.
//!
//! `pran-telemetry` records what happened; this crate explains it:
//!
//! - [`spans`] — the post-hoc reference: attribute every missed
//!   subframe deadline's 2 ms budget to fronthaul vs queue vs steal vs
//!   compute, exactly, from raw events or from exported JSONL parsed
//!   back by `pran_telemetry::export::parse_jsonl`.
//! - [`live`] — the streaming counterpart of [`spans`]: fold executed
//!   subframes — where a pool shard finishes them, or decoded from
//!   events — into mergeable quantile sketches (`pran-telemetry`'s one
//!   histogram at 8 sub-buckets) and per-cell critical-path blame (no
//!   JSONL round trip, zero allocation in steady state).
//! - [`slo`] — the one online SLO monitor, which both pool drivers and
//!   the controller feed per epoch: edge-triggered threshold alerts on
//!   miss ratio, utilization, outage, lost reports and unplaced cells,
//!   multi-window multi-burn-rate alerting over the miss-ratio error
//!   budget, and the epoch's safety-envelope violation, its alerts
//!   emitted as `insight.alert` / `insight.burn_alert` telemetry events.
//! - [`openmetrics`] — render any metrics registry snapshot in
//!   OpenMetrics text exposition format for external scrapers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod openmetrics;
pub mod slo;
pub mod spans;

pub use live::{LiveFold, LogSketch, MetroFold};
pub use slo::{
    Alert, BurnAlert, BurnSeverity, BurnState, EpochSample, EpochVerdict, SloMetric, SloMonitor,
    SloPolicy,
};
pub use spans::{critical_paths, CriticalPath, DEFAULT_BUDGET_US};
