//! The pool-shard state machine: what persists across the epochs of one
//! pool, and the three transitions the simulator has.
//!
//! A [`PoolShard`] owns a pool's configuration, placement and (optional)
//! warm placer, server liveness, the per-cell fronthaul fault injectors,
//! the scratch of the per-TTI hot loop and — once the live insight plane
//! has been armed — its part of that plane's fold. It moves only through
//! [`PoolShard::place`], [`PoolShard::execute`] and
//! [`PoolShard::fail_server`]; the single-pool
//! [`PoolSimulator`](super::PoolSimulator) and the metro's one shard
//! driver (`metro.rs`, under both [`MetroSimulator`](crate::MetroSimulator)
//! and [`ResidentMetro`](crate::ResidentMetro)) call these and nothing
//! else, so an epoch means the same thing under either.

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
    ParallelScratch, Policy, SimScratch, TaskBatch,
};
use pran_telemetry::LogHistogram;

use super::config::{PoolConfig, PoolConfigError, ANALYTIC_CORES};
use crate::metrics::PoolMetrics;

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

/// Reusable scratch of [`PoolShard::execute`].
///
/// One instance lives as long as its shard; every trace step reuses its
/// buffers instead of reallocating per-server task vectors and scheduler
/// state (the seed path's dominant cost at metro scale). Task times live
/// as flat `u64` nanosecond columns ([`TaskBatch`]), so the per-task
/// steady state performs zero heap allocations.
struct HotBuffers {
    /// Per-server SoA task queues, cleared (capacity kept) every step:
    /// one row per task, or on the grid path one row per cell (its TTI-0
    /// task).
    batches: Vec<TaskBatch>,
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
    /// Release offset of TTI `t` within a step, nanoseconds.
    tti_release_ns: Vec<u64>,
    /// Deadline offset of TTI `t` within a step, nanoseconds.
    tti_deadline_ns: Vec<u64>,
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
    /// `f64::from(bandwidth.prbs())`, the `at_utilization` scale factor.
    prbs_f: f64,
}

impl HotBuffers {
    fn new(cfg: &PoolConfig, model: &ComputeModel) -> Self {
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
        HotBuffers {
            batches: (0..cfg.servers).map(|_| TaskBatch::new()).collect(),
            scratch: SimScratch::new(),
            outcome: BatchOutcome::new(),
            grid: GridOutcome::new(),
            executor: cfg.parallel.map(ParallelExecutor::new),
            par_scratch: ParallelScratch::default(),
            par_out: ParallelOutcome::default(),
            tti_release_ns: (0..cfg.ttis_per_step)
                .map(|t| (TTI * t as u32).as_nanos() as u64)
                .collect(),
            tti_deadline_ns: (0..cfg.ttis_per_step)
                .map(|t| (TTI * t as u32 + COMPUTE_DEADLINE).as_nanos() as u64)
                .collect(),
            service_ns,
            bytes_by_prb: by_split_and_prb(cfg, |split, p| {
                split.fronthaul_bytes_per_tti(p, cfg.bandwidth.prbs())
            }),
            accel_servers,
            prbs_f: f64::from(cfg.bandwidth.prbs()),
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
            hot: HotBuffers::new(&cfg, &model),
            tables: DemandTables::new(&cfg, &model),
            placement: Placement::empty(cells),
            warm: cfg.warm.map(WarmPlacer::new),
            alive: vec![true; cfg.servers],
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
                let prb = (self.hot.prbs_f * util_of(cell).clamp(0.0, 1.0)).round() as usize;
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
    /// outage; cells the repack could not
    /// re-place stay dark until the next [`place`](Self::place), which
    /// only the caller can time. `None` when the server was already dead.
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

    /// Execute transition: simulate the sampled TTIs of `rows`
    /// (consecutive trace steps from absolute index `first_step`,
    /// `step_seconds` apart) under the current placement, accumulating
    /// into `metrics`. Task queues, scheduler scratch and the parallel
    /// executor are all reused, and a link's frames are drawn
    /// ([`FaultInjector::deliver`]) rather than built, so the steady
    /// state allocates nothing
    /// (`tests/tests/zero_alloc.rs`); arithmetic is `u64` nanoseconds,
    /// isomorphic to the `Duration` math of the tests crate's oracle
    /// (`tests/src/reference.rs`, which shares no code with this one;
    /// `tests/tests/pool_differential.rs` holds the two to equal bytes
    /// through [`PoolSimulator::run_with`](super::PoolSimulator::run_with)).
    ///
    /// Each server-step takes one of three paths, picked by the links and
    /// the executor alone:
    ///
    /// * **grid** — ideal fronthaul and no executor: every release sits on
    ///   the step's TTI grid, so each server's batch holds one row per
    ///   cell and [`dispatch_grid`] makes EDF's assignment TTI by TTI; a
    ///   TTI that replays TTI 0 is folded with TTI 0's records, once, with
    ///   their multiplicity;
    /// * **batch** — jittered or lossy links (releases leave the grid):
    ///   one row per delivered task through [`simulate_into`], released
    ///   at its TTI plus the whole nanoseconds of jitter `deliver` drew;
    /// * **executor** — `parallel` set: the rows go through the shard's
    ///   [`ParallelExecutor`].
    ///
    /// Every path folds its response and slack samples and its misses
    /// into a stack [`LogHistogram`] each and a counter, merged into
    /// `metrics` once at the end: the state per-sample records would
    /// leave.
    ///
    /// While `pran_telemetry::live` is armed, every executed task is also
    /// recorded into [`live_fold`](Self::live_fold) — cell, server and
    /// the µs record the schedulers' `subframe` event carries, straight
    /// from the outcome columns (one branch per server-step when not).
    /// The fold is order-independent, so arming it changes no path. The
    /// tracer picks no path either: with it on, the grid emits each task's
    /// `subframe` event from the loop that feeds the fold, in the order
    /// [`simulate_into`] emits the expanded batch's (cells in row order,
    /// TTIs inner).
    ///
    /// Returns the peak per-server task backlog observed (the most tasks
    /// any step gave one server) — the resident service's flight recorder
    /// exposes it as `peak_queue_depth`.
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
            batches,
            scratch,
            outcome,
            grid,
            executor,
            par_scratch,
            par_out,
            tti_release_ns,
            tti_deadline_ns,
            service_ns,
            bytes_by_prb,
            accel_servers,
            prbs_f,
        } = &mut self.hot;
        let prbs_f = *prbs_f;
        let accel_servers = *accel_servers;
        let mut live = if pran_telemetry::live::armed() {
            Some(&mut **self.live.get_or_insert_with(|| {
                let budget_us = COMPUTE_DEADLINE.as_micros() as u64;
                let cells = placement.assignment.len();
                Box::new(LiveFold::new(cells, cfg.servers, budget_us))
            }))
        } else {
            None
        };
        let on_grid = links.is_empty() && executor.is_none();
        // A link whose bucket refills on the clock; on any other,
        // `advance_to` does nothing.
        let clocked = cfg
            .fronthaul
            .is_some_and(|lf| !lf.config.refill_interval.is_zero());
        let traced = pran_telemetry::enabled();
        let tasks_per_row = if on_grid { ttis as u64 } else { 1 };
        let cores = cfg.server_cores();
        let mut peak_depth = 0u64;
        // Every arm folds its samples here, merged into `metrics` once.
        let (mut response, mut slack) = (LogHistogram::new(), LogHistogram::new());
        let mut misses = 0u64;
        for (offset, row) in rows.iter().enumerate() {
            let step = first_step + offset;
            for b in batches.iter_mut() {
                b.clear();
            }
            metrics.tasks_total += (row.len() * ttis) as u64;
            let step_start = Duration::from_secs_f64(step as f64 * step_seconds);
            for (cell, &util) in row.iter().enumerate() {
                let s = match placement.assignment[cell] {
                    Some(s) if alive[s] => s,
                    _ => {
                        metrics.tasks_lost += ttis as u64;
                        continue;
                    }
                };
                // One table lookup replaces the compute-model walk.
                let prb = (prbs_f * util.clamp(0.0, 1.0)).round() as usize;
                let class = usize::from(s < accel_servers);
                let split = cfg.split_plan.split_for(cell).index();
                let service_ns = service_ns[class * 3 + split][prb];
                let batch = &mut batches[s];
                if on_grid {
                    // One row per cell, its TTI-0 task: `dispatch_grid`
                    // walks the rest of the grid.
                    batch.push(
                        cell as u32,
                        tti_release_ns[0],
                        tti_deadline_ns[0],
                        service_ns,
                    );
                    continue;
                }
                if links.is_empty() {
                    // Ideal fronthaul under an executor: releases are the
                    // fixed TTI grid, pushed as one run of four columns.
                    batch.push_run(cell as u32, tti_release_ns, tti_deadline_ns, service_ns);
                    continue;
                }
                // The subframe report crosses the cell's fronthaul link
                // first; its bucket refills on absolute simulated time.
                let frame_len = bytes_by_prb[split][prb];
                let link = &mut links[cell];
                metrics.fronthaul_bytes += (frame_len * ttis) as u64;
                for tti in 0..ttis {
                    if clocked {
                        link.advance_to(step_start + TTI * tti as u32);
                    }
                    match link.deliver() {
                        // Jitter delays arrival but the HARQ deadline
                        // stays pinned to the TTI, so jitter eats
                        // compute slack.
                        Some(extra_ns) => batch.push(
                            cell as u32,
                            tti_release_ns[tti] + extra_ns,
                            tti_deadline_ns[tti],
                            service_ns,
                        ),
                        None => {
                            metrics.tasks_lost += 1;
                            metrics.reports_lost += 1;
                        }
                    }
                }
            }
            for (s, batch) in batches.iter().enumerate() {
                peak_depth = peak_depth.max(batch.len() as u64 * tasks_per_row);
                if batch.is_empty() || !alive[s] {
                    continue;
                }
                match executor.as_ref() {
                    Some(ex) => {
                        ex.execute_batch_into(batch, par_scratch, par_out);
                        metrics.steals += par_out.steals;
                        for (r, &release_ns) in par_out.tasks.iter().zip(&batch.release_ns) {
                            // Both ends in the executor's whole-µs
                            // domain, where a task never finishes before
                            // its (truncated) release.
                            response.record_us(r.finish.as_micros() as u64 - release_ns / 1_000);
                            misses += u64::from(r.missed);
                            if r.slack_us >= 0 {
                                slack.record_us(r.slack_us as u64);
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
                    None if on_grid => {
                        // No executor, so the server has the analytic core
                        // count.
                        let service = &batch.service_ns;
                        dispatch_grid::<ANALYTIC_CORES>(
                            service,
                            tti_release_ns,
                            tti_deadline_ns,
                            grid,
                        );
                        let budget = grid.budget_ns();
                        for (responses, n) in grid.blocks() {
                            for &response_ns in responses {
                                response.record_us_n(response_ns / 1_000, n);
                                if response_ns > budget {
                                    misses += n;
                                } else {
                                    slack.record_us_n((budget - response_ns) / 1_000, n);
                                }
                            }
                        }
                        if traced || live.is_some() {
                            let cells = batch.cell.iter().zip(service);
                            for (c, (&cell, &service)) in cells.enumerate() {
                                for t in 0..ttis {
                                    let task = grid.subframe(t, c, cell, service);
                                    if traced {
                                        task.emit(Some(Policy::GlobalEdf.label()));
                                    }
                                    if let Some(fold) = live.as_deref_mut() {
                                        fold.record(cell as usize, Some(s), &task);
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        simulate_into(batch, cores, Policy::GlobalEdf, scratch, outcome);
                        for i in 0..batch.len() {
                            let finish_ns = outcome.finish_ns[i];
                            response.record_us((finish_ns - batch.release_ns[i]) / 1_000);
                            if outcome.missed[i] {
                                misses += 1;
                            } else {
                                slack.record_us((batch.deadline_ns[i] - finish_ns) / 1_000);
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
        metrics.response_times.merge(&response);
        metrics.deadline_slack.merge(&slack);
        metrics.deadline_misses += misses;
        if let Some(fold) = live {
            // One `execute` is one shard-epoch of records.
            fold.settle();
        }
        peak_depth
    }
}
