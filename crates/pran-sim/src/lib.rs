//! `pran-sim` — epoch-stepped simulation of a PRAN deployment.
//!
//! Ties the substrates together: load traces (`pran-traces`) become
//! per-cell compute demand (`pran-phy`), the controller's placement and
//! real-time scheduling decisions come from `pran-sched`, and this crate
//! advances simulated time, injects server failures, and collects the
//! metrics the evaluation reports.
//!
//! One pool's behaviour is one state machine, [`PoolShard`], and
//! everything that simulates pools is a driver of it:
//!
//! * [`metrics`] — counters and log-scale latency histograms, JSON-able;
//! * [`pool`] — the pool configuration, the [`PoolShard`] state machine
//!   (`place` / `execute` / `handle_crashes`, which fails and revives
//!   servers on the shard's schedule, a list sorted by whole
//!   microseconds) and its single-pool driver
//!   [`PoolSimulator`]: an epoch loop over a materialized trace;
//! * [`metro`] — metro-scale sharded runs: 10,000+ cells partitioned into
//!   per-pool shards and merged deterministically. There is one shard
//!   driver — a [`PoolShard`] fed by a streamed trace, stepped one epoch
//!   at a time, crashes included, on a shared worker crew — and a batch
//!   [`MetroSimulator::run`] steps it to the trace horizon;
//! * [`service`] — the **resident** metro: the same shards stepped one
//!   epoch per call, for long-lived soak services that publish per-epoch
//!   metrics while the simulation keeps running.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod metro;
pub mod pool;
pub mod service;

pub use metrics::{LogHistogram, PoolMetrics};
pub use metro::{MetroConfig, MetroConfigError, MetroError, MetroReport, MetroSimulator};
pub use pool::{
    FailoverRecord, FailoverTiming, FailureSpec, LinkFault, PoolAccel, PoolConfig, PoolConfigError,
    PoolShard, PoolSimulator, SimReport, SplitPlan,
};
pub use service::{EpochRecord, EpochStatus, ResidentMetro};
