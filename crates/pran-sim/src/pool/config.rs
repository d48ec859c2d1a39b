//! Pool configuration: what a pool is made of ([`PoolConfig`], its
//! [`SplitPlan`], [`PoolAccel`], [`LinkFault`] and [`FailoverTiming`]
//! parts) and the typed reasons a configuration cannot drive a
//! simulation ([`PoolConfigError`]).

use std::time::Duration;

use pran_fronthaul::fault::FaultConfig;
use pran_insight::slo::SloPolicy;
use pran_phy::compute::FunctionalSplit;
use pran_phy::frame::{AntennaConfig, Bandwidth};
use pran_phy::mcs::Mcs;
use pran_sched::placement::warm::WarmConfig;
use pran_sched::placement::{Accelerator, ServerSpec};
use pran_sched::realtime::ParallelConfig;
use serde::{Deserialize, Serialize};

#[cfg(doc)]
use {
    super::{PoolShard, PoolSimulator, SimReport},
    pran_fronthaul::fault::FaultInjector,
    pran_insight::slo::SloMonitor,
    pran_phy::compute::ComputeModel,
    pran_sched::placement::{migration::incremental_repack, warm::WarmPlacer},
    pran_sched::realtime::{simulate_into, ParallelExecutor},
};

/// Cores per server when no executor is configured. 4 × 100 GOPS on the
/// default 400-GOPS server: a cell-subframe task is atomic in this model,
/// so one core must clear a full-load uplink subframe (~160 GOPS·ms)
/// within the 2 ms budget — cores must be ≥ 80 GOPS.
pub(super) const ANALYTIC_CORES: usize = 4;

/// Which functional split each cell of a pool runs (ROADMAP item 4).
///
/// The split decides how much of the baseband chain is centralized:
/// [`FunctionalSplit::Full`] pools everything (maximum statistical
/// multiplexing, IQ-like fronthaul), higher splits leave front-end
/// stages at the cell site, shrinking both the pool's GOPS demand
/// ([`ComputeModel::pooled_gops`]) and the per-TTI fronthaul payload
/// ([`FunctionalSplit::fronthaul_bytes_per_tti`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SplitPlan {
    /// Every cell runs the same split (the default is `Full`, the
    /// pre-split simulator's behaviour).
    Uniform(FunctionalSplit),
    /// Cell `c` runs `plan[c]`; the vector length must equal the trace's
    /// cell count ([`PoolSimulator::try_new`] rejects mismatches).
    PerCell(Vec<FunctionalSplit>),
}

impl Default for SplitPlan {
    fn default() -> Self {
        SplitPlan::Uniform(FunctionalSplit::Full)
    }
}

impl SplitPlan {
    /// The split cell `cell` runs under this plan.
    #[inline]
    pub fn split_for(&self, cell: usize) -> FunctionalSplit {
        match self {
            SplitPlan::Uniform(s) => *s,
            SplitPlan::PerCell(v) => v[cell],
        }
    }
}

// Configs serialize a uniform plan as the bare split tag (`"Full"`) and
// a per-cell plan as an array of tags; `null`/missing reads as the
// pre-split default so configs written before splits existed still
// parse. Unknown tags are rejected by `FunctionalSplit`'s own decoder.
impl Serialize for SplitPlan {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        match self {
            SplitPlan::Uniform(s) => s.serialize(sink),
            SplitPlan::PerCell(v) => v.serialize(sink),
        }
    }
}

impl Deserialize for SplitPlan {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        match r.kind()? {
            "null" => r.null().map(|_| SplitPlan::default()),
            "string" => Deserialize::read(r).map(SplitPlan::Uniform),
            "array" => Deserialize::read(r).map(SplitPlan::PerCell),
            _ => Err(r.expected("a split tag or an array of split tags")),
        }
    }
}

/// Accelerated-server provisioning for a pool: the leading
/// `round(servers × fraction)` servers carry the one turbo-decode
/// accelerator profile, [`Accelerator::default_eval`], whose capacity is
/// accounted separately from general GOPS by the placement stack, and
/// whose speedup shortens the decode share of service times on those
/// servers. Configs that still carry the profile's two old keys
/// (`decode_capacity_gops`, `decode_speedup`) read, the keys skipped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolAccel {
    /// Fraction of the pool's servers fitted with accelerators, in
    /// `[0, 1]`; servers `0..round(servers × fraction)` are accelerated.
    pub fraction: f64,
}

impl PoolAccel {
    /// Evaluation defaults: half the pool accelerated.
    pub fn default_eval() -> Self {
        PoolAccel { fraction: 0.5 }
    }
}

/// The price of a failover: what each displaced cell a repack re-places
/// is charged as its outage. The pool ([`PoolShard::fail_server`]), the
/// chaos harness's control plane and `pran-mc`'s model all charge
/// [`outage`](Self::outage).
///
/// Configs that still carry the two old keys `replan_overhead` and
/// `migration_time_per_cell` read, the keys skipped: those prices are
/// now the constants below.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailoverTiming {
    /// Failure detection delay (heartbeat timeout).
    pub detection_delay: Duration,
}

/// Controller replanning overhead per failover.
const REPLAN_OVERHEAD: Duration = Duration::from_millis(5);

/// State-transfer time per migrated cell.
const MIGRATION_TIME_PER_CELL: Duration = Duration::from_millis(25);

impl FailoverTiming {
    /// Evaluation defaults, the E8 timing model: 20 ms detection plus
    /// 5 ms replan plus 25 ms migration.
    pub fn default_eval() -> Self {
        FailoverTiming {
            detection_delay: Duration::from_millis(20),
        }
    }

    /// Outage charged to one displaced cell the failover re-places:
    /// detection + replan + one migration.
    pub fn outage(&self) -> Duration {
        self.detection_delay + REPLAN_OVERHEAD + MIGRATION_TIME_PER_CELL
    }
}

/// Static configuration of a pool simulation.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of servers in the pool.
    pub servers: usize,
    /// Capacity of each server in GOPS, split evenly over its
    /// [`server_cores`](Self::server_cores).
    pub server_capacity_gops: f64,
    /// When set, subframe execution per server runs through the
    /// work-stealing [`ParallelExecutor`] on `cores` cores and steal
    /// metrics are recorded; when `None`, every server dispatches its
    /// tasks by global EDF ([`simulate_into`]) on four cores.
    pub parallel: Option<ParallelConfig>,
    /// Trace steps per placement epoch.
    pub epoch_steps: usize,
    /// TTIs sampled (and fully simulated) per trace step.
    pub ttis_per_step: usize,
    /// Headroom multiplier applied to predicted demand when placing.
    pub headroom: f64,
    /// The failover price each re-placed cell is charged.
    pub failover: FailoverTiming,
    /// Radio configuration used to convert utilization into compute.
    pub bandwidth: Bandwidth,
    /// Antenna configuration of all cells.
    pub antennas: AntennaConfig,
    /// Assumed traffic-weighted MCS.
    pub mcs: Mcs,
    /// Optional per-cell fronthaul fault model applied to uplink subframe
    /// transport (`None` = ideal fronthaul, the pre-existing behaviour).
    pub fronthaul: Option<LinkFault>,
    /// When set, an online [`SloMonitor`] observes the pool once per
    /// epoch (cumulative miss ratio, demand/capacity utilization, outage
    /// p99, lost reports) and its alerts land in
    /// [`SimReport::alerts`] — plus `insight.alert` trace events when
    /// telemetry is on.
    pub slo: Option<SloPolicy>,
    /// When set, epoch placement runs through the warm-start
    /// [`WarmPlacer`] (hysteresis-banded bookings, repack work
    /// proportional to band-crossing cells) instead of a full
    /// [`incremental_repack`] against fresh demands. `None` preserves the
    /// pre-existing cold-path behaviour.
    pub warm: Option<WarmConfig>,
    /// Per-cell functional splits (`Uniform(Full)` = the pre-split
    /// behaviour: every stage pooled, fixed 32-byte fronthaul frames).
    pub split_plan: SplitPlan,
    /// Heterogeneous-server profile: when set, the leading fraction of
    /// servers carry turbo-decode accelerators and the placement stack
    /// steers decode-heavy cells toward them. `None` = homogeneous pool,
    /// byte-identical to the pre-accelerator simulator.
    pub accel: Option<PoolAccel>,
}

/// Per-cell fronthaul degradation for a pool run.
///
/// Each cell gets its own link, [`FaultInjector::for_cell`] (stream
/// `seed + cell`), so loss streams are independent across cells yet fully
/// reproducible. Injector token buckets advance on the simulation clock
/// ([`FaultInjector::advance_to`] at each task's absolute release
/// instant), not on call counts, keeping fronthaul queues in lockstep
/// with the engine-scheduled failure and recovery events when scenarios
/// compose both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Fault parameters shared by every cell's link.
    pub config: FaultConfig,
    /// Base RNG seed; cell `c` draws from stream `seed + c`.
    pub seed: u64,
}

impl PoolConfig {
    /// Evaluation defaults for a pool serving ~tens of cells.
    pub fn default_eval(servers: usize) -> Self {
        PoolConfig {
            servers,
            server_capacity_gops: 400.0,
            parallel: None,
            epoch_steps: 10,
            ttis_per_step: 4,
            headroom: 1.1,
            failover: FailoverTiming::default_eval(),
            bandwidth: Bandwidth::Mhz20,
            antennas: AntennaConfig::pran_default(),
            mcs: Mcs::new(20),
            fronthaul: None,
            slo: None,
            warm: None,
            split_plan: SplitPlan::default(),
            accel: None,
        }
    }

    /// Cores per server in force: the executor's `parallel.cores` when it
    /// is configured, else 4. Per-core GOPS (server capacity / cores) and
    /// the dispatcher both read this one count.
    pub fn server_cores(&self) -> usize {
        self.parallel.map_or(ANALYTIC_CORES, |p| p.cores)
    }

    /// How many servers carry an accelerator (ids `0..accel_servers()`).
    pub fn accel_servers(&self) -> usize {
        match &self.accel {
            Some(a) => ((self.servers as f64) * a.fraction).round() as usize,
            None => 0,
        }
    }

    /// Whether server `id` carries an accelerator under this config.
    pub fn server_is_accelerated(&self, id: usize) -> bool {
        id < self.accel_servers()
    }

    /// The placement-stack spec of server `id`: pool-wide capacity and
    /// unit cost, plus [`Accelerator::default_eval`] on accelerated servers.
    pub fn server_spec(&self, id: usize) -> ServerSpec {
        ServerSpec {
            id,
            capacity_gops: self.server_capacity_gops,
            cost: 1.0,
            accelerator: self
                .server_is_accelerated(id)
                .then(Accelerator::default_eval),
        }
    }

    /// Specs of every server in the pool, in id order.
    pub fn server_specs(&self) -> Vec<ServerSpec> {
        (0..self.servers).map(|id| self.server_spec(id)).collect()
    }

    /// Structural validation of the knobs that would otherwise surface as
    /// divide-by-zero, empty-histogram or deep-in-the-run panics:
    /// zero counts, non-finite or non-positive capacities and headroom,
    /// nonsensical parallel-executor shapes, and a fronthaul drop
    /// probability that is no probability.
    pub fn validate(&self) -> Result<(), PoolConfigError> {
        if self.servers == 0 {
            return Err(PoolConfigError::NoServers);
        }
        if !self.server_capacity_gops.is_finite() || self.server_capacity_gops <= 0.0 {
            return Err(PoolConfigError::BadCapacity(self.server_capacity_gops));
        }
        if self.epoch_steps == 0 {
            return Err(PoolConfigError::NoEpochSteps);
        }
        if self.ttis_per_step == 0 {
            return Err(PoolConfigError::NoTtisPerStep);
        }
        if !self.headroom.is_finite() || self.headroom <= 0.0 {
            return Err(PoolConfigError::BadHeadroom(self.headroom));
        }
        if let Some(p) = &self.parallel {
            if p.cores == 0 {
                return Err(PoolConfigError::ParallelZeroCores);
            }
            if p.batch == 0 {
                return Err(PoolConfigError::ParallelNoBatch);
            }
        }
        if let Some(w) = &self.warm {
            if w.validate().is_err() {
                return Err(PoolConfigError::BadWarmBand(w.band));
            }
        }
        if let Some(a) = &self.accel {
            if !a.fraction.is_finite() || !(0.0..=1.0).contains(&a.fraction) {
                return Err(PoolConfigError::BadAccelFraction(a.fraction));
            }
        }
        if let Some(lf) = &self.fronthaul {
            if !(0.0..=1.0).contains(&lf.config.drop_prob) {
                return Err(PoolConfigError::BadDropProb(lf.config.drop_prob));
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate) plus the checks that need the number
    /// of cells the pool will serve: at least one, and a per-cell split
    /// plan covering exactly that many. Every pool shard — single pool
    /// or metro, batch or resident — is built behind this one gate.
    pub(crate) fn validate_for(&self, cells: usize) -> Result<(), PoolConfigError> {
        self.validate()?;
        if cells == 0 {
            return Err(PoolConfigError::NoCells);
        }
        if let SplitPlan::PerCell(plan) = &self.split_plan {
            if plan.len() != cells {
                return Err(PoolConfigError::SplitPlanLength {
                    plan: plan.len(),
                    cells,
                });
            }
        }
        Ok(())
    }

    /// The trace-step rule every pool driver is gated by, for a trace of
    /// `steps` steps `step_seconds` apart. The event clock runs on
    /// `Duration`s: an epoch must span a nonzero one (a failure divides
    /// by it), and every epoch start must convert (negative, NaN and
    /// infinite steps do not). Needs a nonzero `epoch_steps`, which
    /// [`validate`](Self::validate) checks first.
    pub(crate) fn validate_steps(
        &self,
        step_seconds: f64,
        steps: usize,
    ) -> Result<(), PoolConfigError> {
        let epochs = steps.div_ceil(self.epoch_steps);
        let epoch = Duration::try_from_secs_f64(self.epoch_steps as f64 * step_seconds);
        let run = Duration::try_from_secs_f64(
            epochs.saturating_mul(self.epoch_steps) as f64 * step_seconds,
        );
        if !epoch.is_ok_and(|e| !e.is_zero()) || run.is_err() {
            return Err(PoolConfigError::BadStepSeconds(step_seconds));
        }
        Ok(())
    }
}

/// Why a [`PoolConfig`] (or the trace paired with it) cannot drive a
/// simulation. Returned by [`PoolSimulator::try_new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolConfigError {
    /// `servers == 0`: nothing to place on.
    NoServers,
    /// The trace has no cells, so the run would produce empty histograms.
    NoCells,
    /// Server capacity is non-finite or not positive.
    BadCapacity(f64),
    /// `epoch_steps == 0`: the epoch grid is undefined.
    NoEpochSteps,
    /// `ttis_per_step == 0`: no tasks would ever be generated.
    NoTtisPerStep,
    /// Headroom multiplier is non-finite or not positive.
    BadHeadroom(f64),
    /// Parallel executor configured with zero cores: per-core GOPS would
    /// divide by zero.
    ParallelZeroCores,
    /// Parallel executor configured with a zero batch size.
    ParallelNoBatch,
    /// Warm-start hysteresis band is negative, NaN or infinite.
    BadWarmBand(f64),
    /// Accelerated-server fraction is outside `[0, 1]` or non-finite.
    BadAccelFraction(f64),
    /// The fronthaul link's drop probability is outside `[0, 1]` or NaN.
    BadDropProb(f64),
    /// The trace's `step_seconds` is zero, negative, NaN or infinite, or
    /// too small or too large for an epoch to span a nonzero
    /// [`Duration`] and the run to fit in one.
    BadStepSeconds(f64),
    /// A trace template's `duration_seconds` is zero, negative, NaN or
    /// infinite.
    BadDurationSeconds(f64),
    /// A per-cell split plan does not cover exactly the trace's cells.
    SplitPlanLength {
        /// Cells the plan covers.
        plan: usize,
        /// Cells the trace actually has.
        cells: usize,
    },
}

impl std::fmt::Display for PoolConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolConfigError::NoServers => write!(f, "pool needs at least one server"),
            PoolConfigError::NoCells => write!(f, "trace has no cells"),
            PoolConfigError::BadCapacity(c) => {
                write!(f, "server capacity {c} GOPS must be finite and positive")
            }
            PoolConfigError::NoEpochSteps => write!(f, "epoch_steps must be at least 1"),
            PoolConfigError::NoTtisPerStep => write!(f, "ttis_per_step must be at least 1"),
            PoolConfigError::BadHeadroom(h) => {
                write!(f, "headroom {h} must be finite and positive")
            }
            // Phrasing matches `ParallelConfig::validate`'s panics, which
            // existing tests match on.
            PoolConfigError::ParallelZeroCores => write!(f, "need at least one core"),
            PoolConfigError::ParallelNoBatch => write!(f, "batch must be at least 1"),
            PoolConfigError::BadWarmBand(b) => {
                write!(f, "warm-start hysteresis band {b} must be finite and ≥ 0")
            }
            PoolConfigError::BadAccelFraction(x) => {
                write!(f, "accelerated-server fraction {x} must be within [0, 1]")
            }
            PoolConfigError::BadDropProb(p) => {
                write!(f, "fronthaul drop probability {p} must be within [0, 1]")
            }
            PoolConfigError::BadStepSeconds(s) => {
                write!(f, "trace step {s} s must be finite and positive")
            }
            PoolConfigError::BadDurationSeconds(d) => {
                write!(f, "trace duration {d} s must be finite and positive")
            }
            PoolConfigError::SplitPlanLength { plan, cells } => {
                write!(
                    f,
                    "per-cell split plan covers {plan} cells but the trace has {cells}"
                )
            }
        }
    }
}

impl std::error::Error for PoolConfigError {}
