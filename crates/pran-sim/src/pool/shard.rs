//! The pool-shard state machine: what persists across the epochs of one
//! pool, and the transitions the simulator has.
//!
//! A [`PoolShard`] owns a pool's configuration, placement and (optional)
//! warm placer, server liveness and its crash schedule, the per-cell
//! fronthaul fault injectors, the scratch of the per-TTI hot loop and —
//! once the live insight plane has been armed — its part of that plane's
//! fold. Every driver steps an epoch the same way: [`PoolShard::place`],
//! [`PoolShard::execute`], then [`PoolShard::handle_crashes`] for the
//! failures and recoveries due before the next epoch starts. The
//! single-pool [`PoolSimulator`](super::PoolSimulator) and the metro's
//! shard driver (`metro.rs`, under both
//! [`MetroSimulator`](crate::MetroSimulator) and
//! [`ResidentMetro`](crate::ResidentMetro)) call these, so an epoch and a
//! crash mean the same thing under either.

use std::time::Duration;

use pran_fronthaul::fault::FaultInjector;
use pran_insight::live::LiveFold;
use pran_phy::compute::{CellWorkload, ComputeModel, FunctionalSplit};
use pran_phy::frame::{Direction, COMPUTE_DEADLINE, TTI};
use pran_sched::placement::migration::incremental_repack;
use pran_sched::placement::warm::WarmPlacer;
use pran_sched::placement::{Accelerator, Allowed, CellDemand, Placement, PlacementInstance};
use pran_sched::realtime::{
    dispatch_grid, simulate_into, BatchOutcome, GridOutcome, ParallelExecutor, ParallelOutcome,
    ParallelScratch, Policy, SimScratch, TaskBatch, TtiGrid,
};
use pran_telemetry::LogHistogram;

use super::config::{PoolConfig, PoolConfigError, ANALYTIC_CORES};
use super::FailureSpec;
use crate::metrics::PoolMetrics;

/// `d` in whole microseconds, truncated and saturating at `u64::MAX`: the
/// clock epochs, crashes and SLO samples are compared on.
pub fn whole_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// When trace step `step` starts, in [`whole_micros`].
pub(crate) fn step_start(step: usize, step_seconds: f64) -> u64 {
    whole_micros(Duration::from_secs_f64(step as f64 * step_seconds))
}

/// The first epoch boundary strictly after `now`, epochs `epoch` long
/// from time zero: when a cell a failure strands is placed again. A
/// boundary past the end of `Duration` saturates to `Duration::MAX`.
pub fn next_epoch_after(now: Duration, epoch: Duration) -> Duration {
    const NANOS: u128 = 1_000_000_000;
    // At most `Duration::MAX` plus one epoch: far inside a `u128`.
    let next = (now.as_nanos() / epoch.as_nanos() + 1) * epoch.as_nanos();
    u64::try_from(next / NANOS).map_or(Duration::MAX, |secs| {
        Duration::new(secs, (next % NANOS) as u32)
    })
}

/// An entry of a shard's crash schedule.
#[derive(Debug, Clone, Copy)]
enum Crash {
    /// The server fails, and returns this long after if it was alive.
    Fail(usize, Option<Duration>),
    /// The server returns.
    Recover(usize),
}

/// Service seconds of one pooled cell-subframe on a server: every pooled
/// GOP on general cores for plain servers, the turbo-decode share at
/// [`Accelerator::default_eval`]'s `decode_speedup` on accelerated ones.
/// On a plain server this is the exact pre-split expression
/// (`gops × 1e-3 / core_gops`), which keeps homogeneous pools
/// bit-identical.
fn service_seconds(
    model: &ComputeModel,
    w: &CellWorkload,
    accelerated: bool,
    core_gops: f64,
) -> f64 {
    if accelerated {
        let speedup = Accelerator::default_eval().decode_speedup;
        let pooled = model.pooled_gops(w);
        let decode = model.pooled_decode_gops(w);
        (pooled - decode) * 1e-3 / core_gops + decode * 1e-3 / (core_gops * speedup)
    } else {
        model.pooled_gops(w) * 1e-3 / core_gops
    }
}

/// The uplink workload of a cell using `prbs_used` PRBs under `split`,
/// on the pool's radio configuration.
fn uplink_workload(cfg: &PoolConfig, prbs_used: u32, split: FunctionalSplit) -> CellWorkload {
    CellWorkload {
        bandwidth: cfg.bandwidth,
        antennas: cfg.antennas,
        prbs_used,
        mcs: cfg.mcs,
        direction: Direction::Uplink,
        split,
    }
}

/// A table with one row per split (in [`FunctionalSplit::all`] order)
/// and one entry per PRB count `0..=prbs`.
fn by_split_and_prb<T>(cfg: &PoolConfig, f: impl Fn(FunctionalSplit, u32) -> T) -> Vec<Vec<T>> {
    FunctionalSplit::all()
        .iter()
        .map(|&split| (0..=cfg.bandwidth.prbs()).map(|p| f(split, p)).collect())
        .collect()
}

/// Which cells each server runs in one [`PoolShard::execute`] call: a
/// server → cells index (compressed rows) over the placement and
/// liveness as they are when the call starts, rebuilt in place every
/// call.
struct ServerCells {
    /// Server `s`'s entries are `start[s]..start[s + 1]`.
    start: Vec<u32>,
    /// Every placed cell on a live server, grouped by server, each group
    /// in cell order.
    cell: Vec<u32>,
    /// Servers with at least one entry, ascending.
    busy: Vec<u32>,
}

impl ServerCells {
    /// An empty index sized for `cells` cells on `servers` servers, so
    /// that no rebuild allocates.
    fn new(cells: usize, servers: usize) -> Self {
        ServerCells {
            start: Vec::with_capacity(servers + 1),
            cell: Vec::with_capacity(cells),
            busy: Vec::with_capacity(servers),
        }
    }

    /// Index `assignment` over the servers `alive` marks; returns how many
    /// cells it leaves out, unplaced or on a dead server.
    fn rebuild(&mut self, assignment: &[Option<usize>], alive: &[bool]) -> usize {
        let on_live = |c: usize| assignment[c].filter(|&s| alive[s]);
        // Count each server's cells at `start[s]`, turn the counts into
        // group ends, then fill from the last cell back, moving each
        // server's end down to its start: groups in cell order.
        self.start.clear();
        self.start.resize(alive.len() + 1, 0);
        let mut lost = 0;
        for c in 0..assignment.len() {
            match on_live(c) {
                Some(s) => self.start[s] += 1,
                None => lost += 1,
            }
        }
        let mut end = 0;
        for n in &mut self.start {
            end += *n;
            *n = end;
        }
        self.cell.clear();
        self.cell.resize(end as usize, 0);
        for c in (0..assignment.len()).rev() {
            if let Some(s) = on_live(c) {
                self.start[s] -= 1;
                self.cell[self.start[s] as usize] = c as u32;
            }
        }
        self.busy.clear();
        let servers = 0..alive.len() as u32;
        let start = &self.start;
        self.busy
            .extend(servers.filter(|&s| start[s as usize] < start[s as usize + 1]));
        lost
    }

    /// Server `s`'s cells, in cell order.
    fn of(&self, s: u32) -> &[u32] {
        &self.cell[self.start[s as usize] as usize..self.start[s as usize + 1] as usize]
    }
}

/// Per-µs sample counts of one metric below [`DenseFold::LEN`] µs, and
/// the values they were counted for: the storage a [`Tally`] counts into,
/// all zero between [`PoolShard::execute`] calls. Only a grid-path shard
/// builds it: there a call repeats each value many times, and replayed
/// TTIs come with a multiplicity. The batch and executor paths record
/// one sample at a time, spread by jitter, and counting them measured
/// slower than recording them (`execute` 15 % slower on a 63-cell link
/// shard), so they record straight into the tally's histogram.
#[derive(Default)]
struct DenseFold {
    /// `counts[us]`: samples of `us` µs in the open tally.
    counts: Vec<u64>,
    /// Every `us` whose count is not zero, in the order first counted.
    touched: Vec<u32>,
}

impl DenseFold {
    /// One past the HARQ compute budget in µs: every slack and every
    /// response that meets its deadline falls below it.
    const LEN: usize = COMPUTE_DEADLINE.as_micros() as usize + 1;

    /// A zeroed table.
    fn new() -> Self {
        DenseFold {
            counts: vec![0; Self::LEN],
            touched: Vec::with_capacity(Self::LEN),
        }
    }

    /// Start one call's tally.
    fn tally(&mut self) -> Tally<'_> {
        Tally {
            fold: self,
            direct: LogHistogram::new(),
        }
    }
}

/// One [`PoolShard::execute`] call's samples of one metric, counted per
/// whole µs into a [`DenseFold`] and flushed into a [`LogHistogram`] once
/// at the end of the call, with one [`LogHistogram::record_us_n`] per
/// value the call touched. Every field of a histogram is a sum, a
/// minimum or a maximum over its samples, so the flushed state,
/// serialized bytes included, is the one per-sample records leave.
struct Tally<'a> {
    fold: &'a mut DenseFold,
    /// Samples past the table: those of [`DenseFold::LEN`] µs or more,
    /// and every sample of the batch and executor paths.
    direct: LogHistogram,
}

impl Tally<'_> {
    /// Count `n ≥ 1` samples of `us` µs.
    #[inline]
    fn record_n(&mut self, us: u64, n: u64) {
        debug_assert!(n > 0, "a value is touched by a sample");
        match self.fold.counts.get_mut(us as usize) {
            Some(count) => {
                if *count == 0 {
                    self.fold.touched.push(us as u32);
                }
                *count += n;
            }
            None => self.direct.record_us_n(us, n),
        }
    }

    /// Record every sample of the call into `hist`, leaving the fold's
    /// counts all zero.
    fn flush(self, hist: &mut LogHistogram) {
        let DenseFold { counts, touched } = self.fold;
        for &us in touched.iter() {
            hist.record_us_n(us.into(), std::mem::take(&mut counts[us as usize]));
        }
        touched.clear();
        hist.merge(&self.direct);
    }
}

/// Reusable scratch of [`PoolShard::execute`].
///
/// The scratch of a server-major walk over a per-call server → cells
/// index, one reused batch, dense fold. One instance lives as long as its
/// shard, and every call reuses its buffers: the index ([`ServerCells`])
/// rebuilt per call, one task batch refilled for each server that holds
/// cells, the schedulers' scratch and a [`DenseFold`] per sample
/// histogram. Task times
/// live as flat `u64` nanosecond columns ([`TaskBatch`]), so the
/// per-task steady state performs zero heap allocations.
struct HotBuffers {
    /// Which cells each server runs this call.
    index: ServerCells,
    /// Service time of each of the current server's cells, ns, in cell
    /// order: the grid path's one row per cell.
    service: Vec<u64>,
    /// The current server's SoA task queue, one row per task.
    batch: TaskBatch,
    /// Analytic-scheduler scratch: admission order, packed dispatch words
    /// and core clocks.
    scratch: SimScratch,
    /// Analytic-scheduler output columns.
    outcome: BatchOutcome,
    /// Grid-dispatch responses, one server at a time.
    grid: GridOutcome,
    /// Parallel executor built once per shard (`parallel` configs only).
    executor: Option<ParallelExecutor>,
    /// Parallel-executor scratch: batch queues and simulated cores.
    par_scratch: ParallelScratch,
    /// Reusable parallel outcome (records + busy columns).
    par_out: ParallelOutcome,
    /// Release and deadline of TTI `t` within a step, nanoseconds,
    /// checked once.
    tti: TtiGrid,
    /// Service time by (server class, split, PRB count), flattened as
    /// `class × 3 + split` rows of `prbs + 1` entries. `cell_gops` depends
    /// on utilization only through `round(prbs × util)`
    /// ([`CellWorkload::at_utilization`]), so the whole compute-model walk
    /// plus the `Duration` conversion collapses into one table lookup per
    /// cell-step. Class 0 is a plain server (every pooled GOP runs on
    /// general cores), class 1 — built only when the pool has accelerated
    /// servers — runs the turbo-decode share at the accelerator's speedup.
    /// The (plain, `Full`) row is built with the exact pre-split reference
    /// expression, so default-config results stay bit-equal.
    service_ns: Vec<Vec<u64>>,
    /// Fronthaul payload bytes by (split, PRB count) — the
    /// [`FunctionalSplit::fronthaul_bytes_per_tti`] mapping, tabled so the
    /// faulty-fronthaul path stays allocation-free.
    bytes_by_prb: Vec<Vec<usize>>,
    /// Servers `0..accel_servers` use the accelerated service rows.
    accel_servers: usize,
    /// Response and slack samples, flushed into `PoolMetrics` per call.
    response: DenseFold,
    slack: DenseFold,
    /// Every `(server, batch)` the last call handed to `simulate_into`,
    /// in order.
    #[cfg(test)]
    handed: Vec<(usize, TaskBatch)>,
}

impl HotBuffers {
    fn new(cfg: &PoolConfig, model: &ComputeModel, cells: usize) -> Self {
        let core_gops = cfg.server_capacity_gops / cfg.server_cores() as f64;
        let accel_servers = cfg.accel_servers();
        let classes = if accel_servers > 0 { 2 } else { 1 };
        let mut service_ns = Vec::with_capacity(classes * 3);
        for class in 0..classes {
            service_ns.extend(by_split_and_prb(cfg, |split, prbs_used| {
                let w = uplink_workload(cfg, prbs_used, split);
                let secs = service_seconds(model, &w, class == 1, core_gops);
                Duration::from_secs_f64(secs).as_nanos() as u64
            }));
        }
        let ttis = 0..cfg.ttis_per_step as u32;
        let release: Vec<u64> = ttis.clone().map(|t| (TTI * t).as_nanos() as u64).collect();
        let deadline: Vec<u64> = ttis
            .map(|t| (TTI * t + COMPUTE_DEADLINE).as_nanos() as u64)
            .collect();
        let on_grid = cfg.fronthaul.is_none() && cfg.parallel.is_none();
        let fold = || {
            if on_grid {
                DenseFold::new()
            } else {
                DenseFold::default()
            }
        };
        HotBuffers {
            index: ServerCells::new(cells, cfg.servers),
            service: Vec::with_capacity(cells),
            batch: TaskBatch::new(),
            scratch: SimScratch::new(),
            outcome: BatchOutcome::new(),
            grid: GridOutcome::new(),
            executor: cfg.parallel.map(ParallelExecutor::new),
            par_scratch: ParallelScratch::default(),
            par_out: ParallelOutcome::default(),
            tti: TtiGrid::new(&release, &deadline),
            service_ns,
            bytes_by_prb: by_split_and_prb(cfg, |split, p| {
                split.fronthaul_bytes_per_tti(p, cfg.bandwidth.prbs())
            }),
            accel_servers,
            response: fold(),
            slack: fold(),
            #[cfg(test)]
            handed: Vec::new(),
        }
    }
}

/// Predicted pooled uplink GOPS (and turbo-decode share) indexed by
/// (split, PRB count). `pooled_gops` depends on utilization only through
/// `round(prbs × util)`, so one compute-model walk per (split, PRB) pair
/// serves every (epoch × cell) demand prediction. The `Full` row's
/// entries are the exact f64s the pre-split `cell_gops` walk returned
/// ([`ComputeModel::pooled_subframe_cost`] retains every stage in
/// pipeline order under `Full`), so default-config demands are bit-equal
/// to the pre-split simulator's.
struct DemandTables {
    /// Pooled GOPS by (split index, PRB count).
    gops: Vec<Vec<f64>>,
    /// Pooled turbo-decode GOPS by (split index, PRB count). All-zero
    /// when the pool has no accelerators: decode is then ordinary general
    /// compute, and a hard 0.0 keeps demands — and everything downstream
    /// in the placement stack — bitwise identical to the
    /// pre-accelerator simulator.
    decode: Vec<Vec<f64>>,
}

impl DemandTables {
    fn new(cfg: &PoolConfig, model: &ComputeModel) -> Self {
        let gops_by = |gops_of: fn(&ComputeModel, &CellWorkload) -> f64| {
            by_split_and_prb(cfg, |split, p| {
                gops_of(model, &uplink_workload(cfg, p, split))
            })
        };
        DemandTables {
            gops: gops_by(ComputeModel::pooled_gops),
            decode: match cfg.accel {
                Some(_) => gops_by(ComputeModel::pooled_decode_gops),
                None => gops_by(|_, _| 0.0),
            },
        }
    }
}

/// One recorded failover.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FailoverRecord {
    /// The failed server.
    pub server: usize,
    /// Cells displaced by the failure.
    pub displaced: usize,
    /// Cells successfully re-placed immediately.
    pub replaced: usize,
    /// Outage experienced by each re-placed cell.
    pub outage: Duration,
}

/// What one [`PoolShard::place`] decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placed {
    /// Cells moved between servers by this re-placement.
    pub migrations: usize,
    /// Servers the new placement uses.
    pub servers_used: usize,
    /// Total predicted demand placed against, GOPS (headroom included).
    pub demand_gops: f64,
    /// Cells the placer re-considered (every cell on the cold path, only
    /// band-crossing ones on the warm path).
    pub dirty: usize,
    /// Cells the new placement leaves without a server.
    pub unplaced: usize,
}

/// The state of one pool across epochs (see the module docs).
pub struct PoolShard {
    cfg: PoolConfig,
    hot: HotBuffers,
    tables: DemandTables,
    placement: Placement,
    /// `Some` when the config asks for warm-start placement.
    warm: Option<WarmPlacer>,
    alive: Vec<bool>,
    /// Failures and recoveries not yet handled, in [`whole_micros`]: by
    /// due time, then in the order they were scheduled.
    crashes: Vec<(u64, Crash)>,
    /// When the last handled crash was due; no failure goes before it.
    crash_clock: u64,
    /// One record per handled server failure, in order.
    failovers: Vec<FailoverRecord>,
    /// One link per cell ([`FaultInjector::for_cell`]); empty under an
    /// ideal fronthaul.
    links: Vec<FaultInjector>,
    /// This shard's part of the live insight plane, over its own cell
    /// and server ids: built by the first [`execute`](Self::execute) that
    /// finds `pran_telemetry::live` armed, fed by every armed one since.
    live: Option<Box<LiveFold>>,
}

impl PoolShard {
    /// A pool of `cells` cells, every server alive and no cell placed.
    /// Rejects what [`PoolSimulator::try_new`](super::PoolSimulator::try_new)
    /// rejects: an invalid config, zero cells, or a per-cell split plan
    /// that does not cover exactly `cells`.
    pub fn try_new(cfg: PoolConfig, cells: usize) -> Result<Self, PoolConfigError> {
        cfg.validate_for(cells)?;
        let model = ComputeModel::calibrated();
        Ok(PoolShard {
            hot: HotBuffers::new(&cfg, &model, cells),
            tables: DemandTables::new(&cfg, &model),
            placement: Placement::empty(cells),
            warm: cfg.warm.map(WarmPlacer::new),
            alive: vec![true; cfg.servers],
            crashes: Vec::new(),
            crash_clock: 0,
            failovers: Vec::new(),
            links: match &cfg.fronthaul {
                Some(lf) => (0..cells)
                    .map(|c| FaultInjector::for_cell(lf.config, lf.seed, c))
                    .collect(),
                None => Vec::new(),
            },
            live: None,
            cfg,
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Current cell → server assignment (`None` = unplaced).
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.placement.assignment
    }

    /// Liveness of every server, in id order.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// One record per server failure handled so far, in order.
    pub fn failovers(&self) -> &[FailoverRecord] {
        &self.failovers
    }

    /// What the live insight plane has folded of this shard's executed
    /// subframes, in its local cell and server ids; `None` until an
    /// [`execute`](Self::execute) has run with `pran_telemetry::live`
    /// armed.
    pub fn live_fold(&self) -> Option<&LiveFold> {
        self.live.as_deref()
    }

    /// Liveness, writable: flipping a server here re-places nothing —
    /// cells on a dead server lose their tasks until the next
    /// [`place`](Self::place). [`fail_server`](Self::fail_server) is the
    /// transition that also re-places.
    pub fn alive_mut(&mut self) -> &mut [bool] {
        &mut self.alive
    }

    /// Placement demands, headroom applied, when cell `c` runs at
    /// utilization `util_of(c)`.
    fn demands(&self, util_of: impl Fn(usize) -> f64) -> Vec<CellDemand> {
        let (cfg, tables) = (&self.cfg, &self.tables);
        (0..self.placement.assignment.len())
            .map(|cell| {
                let prb = cfg.bandwidth.prbs_at(util_of(cell)) as usize;
                let split = cfg.split_plan.split_for(cell).index();
                CellDemand {
                    id: cell,
                    gops: tables.gops[split][prb] * cfg.headroom,
                    decode_gops: tables.decode[split][prb] * cfg.headroom,
                }
            })
            .collect()
    }

    /// Re-solve placement for `demands` over the live servers — the one
    /// place the placement stack is invoked. Returns the solved instance
    /// with the number of migrations and of cells re-considered.
    fn solve(&mut self, demands: Vec<CellDemand>) -> (PlacementInstance, usize, usize) {
        let instance = PlacementInstance {
            cells: demands,
            servers: self.cfg.server_specs(),
            // One shared liveness mask — not a per-cell matrix of `alive`
            // clones (O(cells × servers) churn).
            allowed: Allowed::Uniform(self.alive.clone()),
        };
        let (placement, plan, dirty) = match self.warm.as_mut() {
            Some(w) => {
                let (p, plan, stats) = w.epoch(&instance);
                (p, plan, stats.dirty)
            }
            None => {
                let (p, plan) = incremental_repack(&instance, &self.placement);
                // The cold path re-considers every cell.
                (p, plan, instance.cells.len())
            }
        };
        self.placement = placement;
        (instance, plan.len(), dirty)
    }

    /// Epoch transition: predict each cell's demand as its peak
    /// utilization over `rows` (the epoch's trace steps) with headroom —
    /// an oracle-with-margin predictor; `pran-sched::predict` provides
    /// online alternatives benched separately — and re-place every cell.
    /// Counts the epoch, its migrations, servers used and demand into
    /// `metrics`.
    pub fn place(&mut self, rows: &[Vec<f64>], metrics: &mut PoolMetrics) -> Placed {
        let demands = self.demands(|c| rows.iter().map(|r| r[c]).fold(0.0f64, f64::max));
        let (instance, migrations, dirty) = self.solve(demands);
        let placed = Placed {
            migrations,
            servers_used: instance.servers_used(&self.placement),
            demand_gops: instance.total_gops(),
            dirty,
            unplaced: self.placement.assignment.len() - self.placement.placed(),
        };
        metrics.migrations += migrations as u64;
        metrics.epochs += 1;
        metrics.servers_used.push(placed.servers_used);
        metrics.demand_gops.push(placed.demand_gops);
        placed
    }

    /// Failure transition: mark `server` dead, displace its cells and
    /// immediately re-place at the loads in `row` (the current trace
    /// step). Each re-placed cell records the failover price
    /// ([`FailoverTiming::outage`](super::FailoverTiming::outage)) as its
    /// outage; cells the repack could not re-place stay dark until the
    /// next [`place`](Self::place), and [`handle_crashes`](Self::handle_crashes),
    /// which knows when that is, records their wait. `None` when the
    /// server was already dead.
    pub fn fail_server(
        &mut self,
        server: usize,
        row: &[f64],
        metrics: &mut PoolMetrics,
    ) -> Option<FailoverRecord> {
        if !std::mem::replace(&mut self.alive[server], false) {
            return None;
        }
        let displaced: Vec<usize> = (0..self.placement.assignment.len())
            .filter(|&c| self.placement.assignment[c] == Some(server))
            .collect();
        for &c in &displaced {
            self.placement.assignment[c] = None;
        }
        let (_, migrations, _) = self.solve(self.demands(|c| row[c]));
        metrics.migrations += migrations as u64;
        let replaced = displaced
            .iter()
            .filter(|&&c| self.placement.assignment[c].is_some())
            .count();
        let outage = self.cfg.failover.outage();
        for _ in 0..replaced {
            metrics.outages.record(outage);
        }
        Some(FailoverRecord {
            server,
            displaced: displaced.len(),
            replaced,
            outage,
        })
    }

    /// Put a server failure, and its recovery, on this shard's crash
    /// schedule, for [`handle_crashes`](Self::handle_crashes).
    ///
    /// # Panics
    /// Panics when the pool has no such server, or when a crash already
    /// handled came after `spec.at`.
    pub fn schedule_failure(&mut self, spec: FailureSpec) {
        assert!(spec.server < self.cfg.servers, "no such server");
        let at = whole_micros(spec.at);
        assert!(at >= self.crash_clock, "cannot schedule into the past");
        self.schedule(at, Crash::Fail(spec.server, spec.recover_after));
    }

    /// Put `crash` on the schedule at `at`, after every entry due then or
    /// earlier.
    fn schedule(&mut self, at: u64, crash: Crash) {
        let i = self.crashes.partition_point(|&(t, _)| t <= at);
        self.crashes.insert(i, (at, crash));
    }

    /// Crash transition: handle every scheduled failure and recovery due
    /// before trace step `until` starts (`None`: every one left), in due
    /// order on whole microseconds ([`FailureSpec`] has the tie rules).
    /// A driver calls it after each epoch's [`execute`](Self::execute)
    /// with `until` the next epoch's first step, so a crash at an epoch's
    /// exact start comes after that epoch's execute; `rows` are the epoch
    /// it still holds, from step `first_step`, `step_seconds` apart.
    ///
    /// A failure goes through [`fail_server`](Self::fail_server) at the
    /// row of the step it falls in (clamped to `rows`), is recorded in
    /// [`failovers`](Self::failovers) and emits `pool.fail`; each cell it
    /// strands records the failover price plus the wait until the next
    /// epoch boundary, and a recovery is scheduled only when the server
    /// was alive. A recovery revives the server (the next `place` uses
    /// it) and emits `pool.recover`. With nothing scheduled this is one
    /// empty-queue check.
    pub fn handle_crashes(
        &mut self,
        until: Option<usize>,
        rows: &[Vec<f64>],
        first_step: usize,
        step_seconds: f64,
        metrics: &mut PoolMetrics,
    ) {
        let due = |t: u64| until.is_none_or(|step| t < step_start(step, step_seconds));
        while self.crashes.first().is_some_and(|&(t, _)| due(t)) {
            let (now, crash) = self.crashes.remove(0);
            self.crash_clock = now;
            let (server, recover_after) = match crash {
                Crash::Fail(server, recover_after) => (server, recover_after),
                Crash::Recover(server) => {
                    self.alive[server] = true;
                    let fields = [("server", server.into())];
                    pran_telemetry::trace::sim_event("pool.recover", now, &fields);
                    continue;
                }
            };
            // Re-place at the loads of the step the crash falls in.
            let now_d = Duration::from_micros(now);
            let step = (now_d.as_secs_f64() / step_seconds) as usize;
            let row = &rows[step.clamp(first_step, first_step + rows.len() - 1) - first_step];
            let Some(record) = self.fail_server(server, row, metrics) else {
                continue;
            };
            // Cells the repack could not re-place stay dark until the next
            // epoch boundary re-solves placement; their outage is the
            // failover price plus that wait. Without these samples the
            // outage histogram — and the online SLO monitor reading it — is
            // blind to exactly the failures that hurt most.
            let epoch_len = Duration::from_secs_f64(self.cfg.epoch_steps as f64 * step_seconds);
            let wait = next_epoch_after(now_d, epoch_len).saturating_sub(now_d);
            let stranded = (record.displaced - record.replaced) as u64;
            let outage_us = (record.outage + wait).as_micros() as u64;
            metrics.outages.record_us_n(outage_us, stranded);
            self.failovers.push(record);
            pran_telemetry::trace::sim_event(
                "pool.fail",
                now,
                &[
                    ("server", server.into()),
                    ("displaced", record.displaced.into()),
                    ("replaced", record.replaced.into()),
                    ("outage_us", (record.outage.as_micros() as u64).into()),
                ],
            );
            if let Some(delay) = recover_after {
                let back = now.saturating_add(whole_micros(delay));
                self.schedule(back, Crash::Recover(server));
            }
        }
    }

    /// Execute transition: simulate the sampled TTIs of `rows`
    /// (consecutive trace steps from absolute index `first_step`,
    /// `step_seconds` apart) under the current placement, accumulating
    /// into `metrics`. The index, the batch, scheduler scratch and the
    /// parallel executor are all reused, and a link's frames are drawn
    /// ([`FaultInjector::deliver`]) rather than built, so the steady
    /// state allocates nothing
    /// (`tests/tests/zero_alloc.rs`); arithmetic is `u64` nanoseconds,
    /// isomorphic to the `Duration` math of the tests crate's oracle
    /// (`tests/src/reference.rs`, which shares no code with this one;
    /// `tests/tests/pool_differential.rs` holds the two to equal bytes
    /// through [`PoolSimulator::run_with`](super::PoolSimulator::run_with)).
    ///
    /// The sweep is a server-major walk over a per-call server → cells
    /// index, one reused batch and a dense fold. The call first indexes
    /// each server's cells from the placement and liveness as they are now
    /// (`ServerCells`); a cell that is unplaced or on a dead server loses
    /// its tasks every step. Each step then visits only the servers that
    /// hold cells, in ascending order, and for each builds one reused
    /// batch from its cells in cell order, down one of three paths picked
    /// by the links and the executor alone:
    ///
    /// * **grid** — ideal fronthaul and no executor: every release sits on
    ///   the step's TTI grid, so the server's cells give one service time
    ///   each and [`dispatch_grid`] makes EDF's assignment TTI by TTI; a
    ///   TTI that replays TTI 0 is folded with TTI 0's records, once, with
    ///   their multiplicity;
    /// * **batch** — jittered or lossy links (releases leave the grid):
    ///   one row per delivered task through [`simulate_into`], released
    ///   at its TTI plus the whole nanoseconds of jitter `deliver` drew.
    ///   The rows are TTI-major (each TTI's cells in cell order, then the
    ///   next TTI's), so the server's deadlines never decrease and EDF's
    ///   priority positions in `simulate_into` are the rows. Each link still
    ///   draws its own TTIs in order, so every seeded stream is unchanged,
    ///   and EDF gives each task the answer the cell-major rows gave it;
    /// * **executor** — `parallel` set: the rows, cell-major, go through
    ///   the shard's [`ParallelExecutor`].
    ///
    /// The grid path counts its response and slack samples per whole µs
    /// in a dense table each (a `Tally` over a `DenseFold`), the batch
    /// and executor paths record theirs into the tallies' histograms, and
    /// every path counts its misses, all flushed into `metrics` once at
    /// the end: the state per-sample records would leave.
    ///
    /// While `pran_telemetry::live` is armed, every executed task is also
    /// recorded into [`live_fold`](Self::live_fold) — cell, server and
    /// the µs record the schedulers' `subframe` event carries, straight
    /// from the outcome columns (one branch per server-step when not).
    /// The fold is order-independent, so arming it changes no path. The
    /// tracer picks no path either: with it on, the grid emits each task's
    /// `subframe` event from the loop that feeds the fold, in the order
    /// [`simulate_into`] emits the expanded batch's (cells in row order,
    /// TTIs inner). The batch path's events, like its rows, are TTI-major.
    ///
    /// Returns the peak per-server task backlog observed (the most tasks
    /// any step gave one live server) — the resident service's flight
    /// recorder exposes it as `peak_queue_depth`.
    pub fn execute(
        &mut self,
        rows: &[Vec<f64>],
        first_step: usize,
        step_seconds: f64,
        metrics: &mut PoolMetrics,
    ) -> u64 {
        let (cfg, placement, alive) = (&self.cfg, &self.placement, &self.alive[..]);
        let links = &mut self.links[..];
        let ttis = cfg.ttis_per_step;
        let HotBuffers {
            index,
            service,
            batch,
            scratch,
            outcome,
            grid,
            executor,
            par_scratch,
            par_out,
            tti,
            service_ns,
            bytes_by_prb,
            accel_servers,
            response,
            slack,
            #[cfg(test)]
            handed,
        } = &mut self.hot;
        let accel_servers = *accel_servers;
        #[cfg(test)]
        handed.clear();
        let mut live = if pran_telemetry::live::armed() {
            Some(&mut **self.live.get_or_insert_with(|| {
                let budget_us = COMPUTE_DEADLINE.as_micros() as u64;
                let cells = placement.assignment.len();
                Box::new(LiveFold::new(cells, cfg.servers, budget_us))
            }))
        } else {
            None
        };
        let lost_cells = index.rebuild(&placement.assignment, alive);
        let linked = !links.is_empty();
        let on_grid = !linked && executor.is_none();
        let (mut response, mut slack) = (response.tally(), slack.tally());
        // A link whose bucket refills on the clock; on any other,
        // `advance_to` does nothing.
        let clocked = cfg
            .fronthaul
            .is_some_and(|lf| !lf.config.refill_interval.is_zero());
        let traced = pran_telemetry::enabled();
        let (release_ns, deadline_ns) = (tti.release_ns(), tti.deadline_ns());
        let cores = cfg.server_cores();
        let mut peak_depth = 0u64;
        let mut misses = 0u64;
        for (offset, row) in rows.iter().enumerate() {
            let step = first_step + offset;
            metrics.tasks_total += (row.len() * ttis) as u64;
            metrics.tasks_lost += (lost_cells * ttis) as u64;
            let step_start = Duration::from_secs_f64(step as f64 * step_seconds);
            for &s in &index.busy {
                let cells = index.of(s);
                let s = s as usize;
                let class = usize::from(s < accel_servers);
                // One table lookup per cell replaces the compute-model walk.
                service.clear();
                for &cell in cells {
                    let prb = cfg.bandwidth.prbs_at(row[cell as usize]) as usize;
                    let split = cfg.split_plan.split_for(cell as usize).index();
                    service.push(service_ns[class * 3 + split][prb]);
                    if linked {
                        let frame_len = bytes_by_prb[split][prb];
                        metrics.fronthaul_bytes += (frame_len * ttis) as u64;
                    }
                }
                if on_grid {
                    peak_depth = peak_depth.max((cells.len() * ttis) as u64);
                    // No executor, so the server has the analytic core
                    // count.
                    dispatch_grid::<ANALYTIC_CORES>(service, tti, grid);
                    let budget = tti.budget_ns();
                    for (responses, n) in grid.blocks() {
                        for &response_ns in responses {
                            response.record_n(response_ns / 1_000, n);
                            if response_ns > budget {
                                misses += n;
                            } else {
                                slack.record_n((budget - response_ns) / 1_000, n);
                            }
                        }
                    }
                    if traced || live.is_some() {
                        for (c, (&cell, &service)) in cells.iter().zip(&*service).enumerate() {
                            for t in 0..ttis {
                                let task = grid.subframe(tti, t, c, cell, service);
                                if traced {
                                    task.emit(Some(Policy::GlobalEdf.label()));
                                }
                                if let Some(fold) = live.as_deref_mut() {
                                    fold.record(cell as usize, Some(s), &task);
                                }
                            }
                        }
                    }
                    continue;
                }
                // The subframe reports cross each cell's fronthaul link
                // first. Cell-major under the executor, the order its
                // batches follow; TTI-major otherwise, so that the
                // server's deadlines never decrease and `simulate_into`'s
                // EDF ranks no rows. Either way each link draws its TTIs
                // in order, and its bucket refills on absolute simulated
                // time.
                batch.clear();
                let mut deliver = |batch: &mut TaskBatch, t: usize, k: usize| {
                    let cell = cells[k];
                    let link = &mut links[cell as usize];
                    if clocked {
                        link.advance_to(step_start + TTI * t as u32);
                    }
                    match link.deliver() {
                        // Jitter delays arrival but the HARQ deadline
                        // stays pinned to the TTI, so jitter eats compute
                        // slack.
                        Some(extra_ns) => {
                            batch.push(cell, release_ns[t] + extra_ns, deadline_ns[t], service[k])
                        }
                        None => {
                            metrics.tasks_lost += 1;
                            metrics.reports_lost += 1;
                        }
                    }
                };
                match executor.as_ref() {
                    Some(ex) => {
                        for (k, &cell) in cells.iter().enumerate() {
                            if linked {
                                (0..ttis).for_each(|t| deliver(batch, t, k));
                            } else {
                                // Ideal fronthaul: releases are the fixed
                                // TTI grid, pushed as one run of columns.
                                batch.push_run(cell, release_ns, deadline_ns, service[k]);
                            }
                        }
                        peak_depth = peak_depth.max(batch.len() as u64);
                        if batch.is_empty() {
                            continue;
                        }
                        ex.execute_batch_into(batch, par_scratch, par_out);
                        metrics.steals += par_out.steals;
                        for (r, &release_ns) in par_out.tasks.iter().zip(&batch.release_ns) {
                            // Both ends in the executor's whole-µs
                            // domain, where a task never finishes before
                            // its (truncated) release.
                            let finish_us = r.finish.as_micros() as u64;
                            response.direct.record_us(finish_us - release_ns / 1_000);
                            misses += u64::from(r.missed);
                            if r.slack_us >= 0 {
                                slack.direct.record_us(r.slack_us as u64);
                            }
                        }
                        if let Some(fold) = live.as_deref_mut() {
                            for &(thief, at_us) in par_scratch.steals() {
                                fold.steal(thief, at_us);
                            }
                            for id in 0..batch.len() {
                                let task = par_out.subframe(batch, id);
                                fold.record(batch.cell[id] as usize, Some(s), &task);
                            }
                        }
                    }
                    None => {
                        for t in 0..ttis {
                            (0..cells.len()).for_each(|k| deliver(batch, t, k));
                        }
                        peak_depth = peak_depth.max(batch.len() as u64);
                        if batch.is_empty() {
                            continue;
                        }
                        debug_assert!(
                            batch.deadline_ns.is_sorted(),
                            "a jittered step's rows are TTI-major"
                        );
                        #[cfg(test)]
                        handed.push((s, batch.clone()));
                        simulate_into(batch, cores, Policy::GlobalEdf, scratch, outcome);
                        for i in 0..batch.len() {
                            let finish_ns = outcome.finish_ns[i];
                            let response_ns = finish_ns - batch.release_ns[i];
                            response.direct.record_us(response_ns / 1_000);
                            if outcome.missed[i] {
                                misses += 1;
                            } else {
                                let slack_ns = batch.deadline_ns[i] - finish_ns;
                                slack.direct.record_us(slack_ns / 1_000);
                            }
                        }
                        if let Some(fold) = live.as_deref_mut() {
                            for i in 0..batch.len() {
                                let task = outcome.subframe(batch, i);
                                fold.record(batch.cell[i] as usize, Some(s), &task);
                            }
                        }
                    }
                }
            }
        }
        response.flush(&mut metrics.response_times);
        slack.flush(&mut metrics.deadline_slack);
        metrics.deadline_misses += misses;
        if let Some(fold) = live {
            // One `execute` is one shard-epoch of records.
            fold.settle();
        }
        peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::LinkFault;
    use pran_fronthaul::fault::FaultConfig;
    use pran_traces::{generate, TraceConfig};

    /// The boundary is strictly after `now`, or `Duration::MAX`, however
    /// far in `now` is: the epoch index is not cut to 32 bits.
    #[test]
    fn the_next_epoch_boundary_never_wraps() {
        let epoch = Duration::from_secs(1_200);
        assert_eq!(next_epoch_after(Duration::ZERO, epoch), epoch);
        assert_eq!(next_epoch_after(epoch, epoch), 2 * epoch);
        assert_eq!(
            next_epoch_after(epoch - Duration::from_nanos(1), epoch),
            epoch
        );
        // 32-bit index arithmetic gave 0 here.
        let past_u32 = epoch * u32::MAX + Duration::from_secs(5);
        assert_eq!(
            next_epoch_after(past_u32, epoch),
            Duration::from_secs(1_200 * (u64::from(u32::MAX) + 1))
        );
        // And 2,984,861,809,200 s here, long before `now`.
        let end_of_micros = Duration::from_micros(u64::MAX);
        let next = next_epoch_after(end_of_micros, epoch);
        assert!(
            next > end_of_micros && next - end_of_micros <= epoch,
            "{next:?}"
        );
        assert_eq!(next.as_nanos() % epoch.as_nanos(), 0);
        // No boundary after this one fits in a `Duration`.
        assert_eq!(next_epoch_after(Duration::MAX, epoch), Duration::MAX);
    }

    /// The three ways a server-step runs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Path {
        /// Ideal fronthaul, no executor.
        Grid,
        /// `metro_degraded`'s links, no executor.
        Link,
        /// `metro_degraded`'s links under a four-core executor.
        Executor,
    }

    /// A 40-cell shard on 3 servers, placed for ten busy-hour steps at
    /// half their demand, so that servers overload and tasks miss, run
    /// down `path`; returns the steps with their length.
    fn shard_on(path: Path) -> (PoolShard, Vec<Vec<f64>>, f64) {
        let mut trace_cfg = TraceConfig::default_day(40, 11);
        trace_cfg.duration_seconds = 20.0 * 3600.0;
        trace_cfg.step_seconds = 600.0;
        let trace = generate(&trace_cfg);
        let mut cfg = PoolConfig::default_eval(3);
        cfg.headroom = 0.5;
        if path != Path::Grid {
            cfg.fronthaul = Some(LinkFault {
                config: FaultConfig {
                    drop_prob: 0.01,
                    max_jitter: Duration::from_micros(800),
                    ..FaultConfig::clean()
                },
                seed: 2026,
            });
        }
        if path == Path::Executor {
            cfg.parallel = Some(pran_sched::realtime::ParallelConfig {
                cores: 4,
                batch: 4,
                steal: false,
            });
        }
        let mut shard = PoolShard::try_new(cfg, trace.num_cells()).expect("valid pool");
        let rows = trace.samples[110..120].to_vec();
        shard.place(&rows, &mut PoolMetrics::default());
        (shard, rows, trace.step_seconds)
    }

    /// Every server batch a jittered step hands `simulate_into` is
    /// TTI-major, so its deadlines never decrease and EDF's priority
    /// positions are the rows: a row order that had to be ranked again
    /// would still give the same answers, only slower, and fail here.
    #[test]
    fn jittered_steps_hand_edf_deadline_ordered_rows() {
        let (mut shard, rows, step_seconds) = shard_on(Path::Link);
        let mut metrics = PoolMetrics::default();
        let mut mixed = 0;
        for step in 0..10 {
            shard.execute(&rows[step..step + 1], step, step_seconds, &mut metrics);
            assert!(!shard.hot.handed.is_empty(), "step {step}");
            for (_, batch) in &shard.hot.handed {
                assert!(batch.deadline_ns.is_sorted(), "step {step}");
                let cells = batch.cell.iter().filter(|&&c| c != batch.cell[0]).count();
                mixed += usize::from(
                    cells > 0 && batch.deadline_ns[0] < batch.deadline_ns[batch.len() - 1],
                );
            }
        }
        assert!(mixed > 10, "{mixed} batches with several cells and TTIs");
        assert!(metrics.reports_lost > 0 && metrics.tasks_total > 0);
    }

    /// `execute` records a jittered step TTI-major. The live fold does not
    /// depend on that: one shard-epoch's records folded in that order and
    /// in cell order give equal folds and equal serialized bytes.
    #[test]
    fn live_fold_is_the_same_in_either_record_order() {
        let (mut shard, rows, step_seconds) = shard_on(Path::Link);
        let mut metrics = PoolMetrics::default();
        shard.execute(&rows[..1], 0, step_seconds, &mut metrics);
        let (mut scratch, mut outcome) = (SimScratch::new(), BatchOutcome::new());
        let mut records = Vec::new();
        for (s, batch) in &shard.hot.handed {
            simulate_into(
                batch,
                ANALYTIC_CORES,
                Policy::GlobalEdf,
                &mut scratch,
                &mut outcome,
            );
            for i in 0..batch.len() {
                records.push((batch.cell[i] as usize, *s, outcome.subframe(batch, i)));
            }
        }
        let fold = |records: &[(usize, usize, pran_telemetry::Subframe)]| {
            let budget_us = COMPUTE_DEADLINE.as_micros() as u64;
            let mut fold = LiveFold::new(rows[0].len(), shard.cfg.servers, budget_us);
            for (cell, server, task) in records {
                fold.record(*cell, Some(*server), task);
            }
            fold.settle();
            fold
        };
        let tti_major = fold(&records);
        records.sort_by_key(|&(cell, ..)| cell);
        let cell_major = fold(&records);
        assert!(tti_major.misses() > 0, "the step must miss deadlines");
        assert_eq!(tti_major, cell_major);
        assert_eq!(
            serde_json::to_string(&tti_major).unwrap(),
            serde_json::to_string(&cell_major).unwrap()
        );
    }

    /// A server killed through `alive_mut` between `place` and `execute`
    /// keeps its cells in the placement; `execute` must count their tasks
    /// lost every step without drawing their links (so no report of
    /// theirs is lost), and leave the server out of the peak depth. Each
    /// live cell's draws are replayed on a fresh link to know the drops.
    #[test]
    fn a_server_killed_before_execute_loses_its_cells_without_drawing_them() {
        for path in [Path::Grid, Path::Link, Path::Executor] {
            let (mut shard, rows, step_seconds) = shard_on(path);
            let servers = shard.cfg.servers;
            let ttis = shard.cfg.ttis_per_step;
            let assignment = shard.assignment().to_vec();
            let holds = |s| assignment.iter().filter(|&&a| a == Some(s)).count();
            let dead = (0..servers)
                .max_by_key(|&s| (holds(s), servers - s))
                .unwrap();
            let busiest_live = (0..servers).filter(|&s| s != dead).map(holds).max();
            assert!(
                holds(dead) > busiest_live.unwrap(),
                "{path:?}: {assignment:?}"
            );
            shard.alive_mut()[dead] = false;

            let links = shard.cfg.fronthaul;
            let fresh = |c: usize| {
                let lf = links.expect("a linked path");
                FaultInjector::for_cell(lf.config, lf.seed, c)
            };
            let mut replay: Vec<_> = (0..assignment.len())
                .map(|c| (path != Path::Grid).then(|| fresh(c)))
                .collect();
            let (mut drops, mut peak) = (0u64, 0u64);
            for _ in &rows {
                let mut depth = vec![0u64; servers];
                for (c, &a) in assignment.iter().enumerate() {
                    let Some(s) = a.filter(|&s| s != dead) else {
                        continue;
                    };
                    for _ in 0..ttis {
                        match replay[c].as_mut().map(FaultInjector::deliver) {
                            Some(None) => drops += 1,
                            _ => depth[s] += 1,
                        }
                    }
                }
                peak = peak.max(depth.into_iter().max().unwrap());
            }

            let mut metrics = PoolMetrics::default();
            let depth = shard.execute(&rows, 0, step_seconds, &mut metrics);
            let steps = rows.len() as u64;
            let dark = assignment.iter().filter(|a| a.is_none_or(|s| s == dead));
            let dark = dark.count() as u64;
            assert_eq!(metrics.tasks_total, steps * (40 * ttis) as u64, "{path:?}");
            assert_eq!(
                metrics.tasks_lost,
                steps * dark * ttis as u64 + drops,
                "{path:?}"
            );
            assert_eq!(metrics.reports_lost, drops, "{path:?}");
            assert_eq!(depth, peak, "{path:?}");
            assert!(depth < (holds(dead) * ttis) as u64, "{path:?}");
            if path != Path::Grid {
                assert!(drops > 0, "{path:?}: the links must drop reports");
                for c in (0..assignment.len()).filter(|&c| assignment[c] == Some(dead)) {
                    let mut untouched = fresh(c);
                    for _ in 0..64 {
                        let drawn = shard.links[c].deliver();
                        assert_eq!(drawn, untouched.deliver(), "{path:?}, cell {c}");
                    }
                }
            }
        }
    }

    /// Calls reuse the index, the batch and the tables: after one call no
    /// buffer moves or grows, on any path, whether later calls are one
    /// step long (as in `tests/tests/zero_alloc.rs`) or many.
    #[test]
    fn calls_reuse_the_index_the_batch_and_the_tables() {
        fn buffers(hot: &HotBuffers) -> Vec<(usize, usize)> {
            let at = |p: *const u8, capacity| (p as usize, capacity);
            let (index, batch) = (&hot.index, &hot.batch);
            let mut all = vec![
                at(index.start.as_ptr().cast(), index.start.capacity()),
                at(index.cell.as_ptr().cast(), index.cell.capacity()),
                at(index.busy.as_ptr().cast(), index.busy.capacity()),
                at(hot.service.as_ptr().cast(), hot.service.capacity()),
                at(batch.cell.as_ptr().cast(), batch.cell.capacity()),
                at(
                    batch.release_ns.as_ptr().cast(),
                    batch.release_ns.capacity(),
                ),
                at(
                    batch.deadline_ns.as_ptr().cast(),
                    batch.deadline_ns.capacity(),
                ),
                at(
                    batch.service_ns.as_ptr().cast(),
                    batch.service_ns.capacity(),
                ),
            ];
            for fold in [&hot.response, &hot.slack] {
                all.push(at(fold.counts.as_ptr().cast(), fold.counts.capacity()));
                all.push(at(fold.touched.as_ptr().cast(), fold.touched.capacity()));
            }
            all
        }
        for path in [Path::Grid, Path::Link, Path::Executor] {
            let (mut shard, rows, step_seconds) = shard_on(path);
            let epoch: Vec<Vec<f64>> = rows.iter().cycle().take(60).cloned().collect();
            let mut metrics = PoolMetrics::default();
            shard.execute(&epoch, 0, step_seconds, &mut metrics);
            // Only the grid path counts into tables.
            let tables = [&shard.hot.response, &shard.hot.slack].map(|f| f.counts.len());
            let expected = if path == Path::Grid {
                DenseFold::LEN
            } else {
                0
            };
            assert_eq!(tables, [expected; 2], "{path:?}");
            let warm = buffers(&shard.hot);
            for call in 1..20 {
                let steps = if call % 2 == 0 {
                    &epoch[..1]
                } else {
                    &epoch[..]
                };
                shard.execute(steps, call * epoch.len(), step_seconds, &mut metrics);
                assert_eq!(buffers(&shard.hot), warm, "{path:?}, call {call}");
            }
            assert!(metrics.response_times.count() > 0, "{path:?}");
        }
    }

    proptest::proptest! {
        /// Samples counted in a [`DenseFold`] and flushed — over several
        /// calls, with multiplicities above 1 and values on both sides of
        /// the table — leave the state and the bytes per-sample records
        /// leave.
        #[test]
        fn a_flushed_dense_fold_equals_per_sample_records(
            calls in proptest::collection::vec(
                proptest::collection::vec((0..2 * DenseFold::LEN as u64, 1..5u64), 0..200),
                1..5,
            ),
            far in proptest::collection::vec((DenseFold::LEN as u64..1 << 40, 1..5u64), 0..4),
        ) {
            let (mut fold, mut flushed, mut direct) =
                (DenseFold::new(), LogHistogram::new(), LogHistogram::new());
            for samples in &calls {
                let mut tally = fold.tally();
                for &(us, n) in samples.iter().chain(&far) {
                    tally.record_n(us, n);
                    direct.record_us_n(us, n);
                }
                tally.flush(&mut flushed);
                proptest::prop_assert_eq!(&flushed, &direct);
                proptest::prop_assert_eq!(
                    serde_json::to_string(&flushed).unwrap(),
                    serde_json::to_string(&direct).unwrap()
                );
                proptest::prop_assert!(fold.touched.is_empty());
                proptest::prop_assert!(fold.counts.iter().all(|&n| n == 0));
            }
        }
    }
}
