//! Metro-scale sharded simulation: a city of pools in one process.
//!
//! PRAN's statistical-multiplexing argument only bites at scale — the gap
//! between "peak of the sum" and "sum of the peaks" grows with the number
//! of cells pooled — but one pool runs tens of cells. The
//! [`MetroSimulator`] partitions a 10,000+ cell metro into per-pool
//! *shards* and merges their metrics into one [`MetroReport`].
//!
//! There is one shard driver, `ResidentShard`: a [`PoolShard`] fed by a
//! [`TraceStream`], stepped one epoch at a time ("stream `epoch_steps`
//! rows, `place`, `execute`, `handle_crashes`" — the epoch
//! [`PoolSimulator`](crate::PoolSimulator) steps over a materialized
//! trace), so a shard holds one epoch of rows, never its whole day. A
//! shard's crash schedule is its pool's: empty unless a failure is put on
//! it, since [`MetroConfig`] schedules none yet, and a crash past the
//! last epoch's end is never due. A batch [`MetroSimulator::run`] steps
//! each shard to the trace horizon; the resident
//! [`ResidentMetro`](crate::ResidentMetro) steps every shard one epoch
//! per call. Both hand shards to the same worker crew.
//!
//! # Determinism
//!
//! The merged output is a pure function of [`MetroConfig`]:
//!
//! * every shard's trace seed is derived from the root seed with a
//!   splitmix64 mix ([`MetroConfig::shard_seed`]) — stable regardless of
//!   which worker runs the shard;
//! * each shard is stepped on one thread at a time and is deterministic,
//!   so its metrics depend only on its seed and cell count;
//! * shard metrics are merged in shard-index order after all workers
//!   join, never in completion order (and [`PoolMetrics::merge`] is
//!   commutative anyway);
//! * telemetry events are stamped with a per-shard label
//!   ([`pran_telemetry::trace::set_shard`]) and canonicalized into
//!   shard-sorted order after the join, so a drained trace export is
//!   byte-identical across worker counts (`tests/tests/metro_determinism.rs`
//!   proves all of this).

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use pran_traces::{TraceConfig, TraceStream};
use serde::{Deserialize, Serialize};

use crate::metrics::PoolMetrics;
use crate::pool::{PoolConfig, PoolConfigError, PoolShard, SplitPlan};

/// Shape of a metro-scale run: cell count, shard partition, worker crew
/// and the root seed every shard seed is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetroConfig {
    /// Total cells across the metro.
    pub cells: usize,
    /// Number of per-pool shards the cells are partitioned into.
    pub shards: usize,
    /// OS worker threads running shards (a worker picks up the next
    /// unstarted shard; more workers than shards just idle).
    pub workers: usize,
    /// Servers provisioned in each shard's pool.
    pub servers_per_shard: usize,
    /// Root seed; shard `s` simulates with [`MetroConfig::shard_seed`]`(s)`.
    pub seed: u64,
}

impl MetroConfig {
    /// Evaluation defaults for a metro of `cells` cells in `shards`
    /// pools: up to 8 workers and one server per two cells of the largest
    /// shard (ample for the default diurnal trace at 10 % headroom).
    pub fn default_eval(cells: usize, shards: usize) -> Self {
        let max_shard_cells = cells.div_ceil(shards.max(1));
        MetroConfig {
            cells,
            shards,
            workers: shards.clamp(1, 8),
            servers_per_shard: max_shard_cells.div_ceil(2).max(1),
            seed: 1,
        }
    }

    /// Reject degenerate shapes with a typed error.
    pub fn validate(&self) -> Result<(), MetroConfigError> {
        if self.cells == 0 {
            return Err(MetroConfigError::NoCells);
        }
        if self.shards == 0 {
            return Err(MetroConfigError::NoShards);
        }
        if self.workers == 0 {
            return Err(MetroConfigError::NoWorkers);
        }
        if self.servers_per_shard == 0 {
            return Err(MetroConfigError::NoServers);
        }
        if self.shards > self.cells {
            return Err(MetroConfigError::MoreShardsThanCells {
                shards: self.shards,
                cells: self.cells,
            });
        }
        Ok(())
    }

    /// Cells in shard `shard` (balanced partition: the first
    /// `cells % shards` shards get one extra cell).
    pub fn shard_cells(&self, shard: usize) -> usize {
        let base = self.cells / self.shards;
        let extra = self.cells % self.shards;
        base + usize::from(shard < extra)
    }

    /// The seed shard `shard` simulates with: a splitmix64 mix of the
    /// root seed and the shard index, so shard streams are decorrelated
    /// yet fully determined by (`seed`, `shard`) — never by scheduling.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Why a [`MetroConfig`] cannot drive a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetroConfigError {
    /// `cells == 0`.
    NoCells,
    /// `shards == 0`.
    NoShards,
    /// `workers == 0`.
    NoWorkers,
    /// `servers_per_shard == 0`.
    NoServers,
    /// More shards than cells: some shards would be empty.
    MoreShardsThanCells {
        /// Configured shard count.
        shards: usize,
        /// Configured cell count.
        cells: usize,
    },
}

impl std::fmt::Display for MetroConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetroConfigError::NoCells => write!(f, "metro needs at least one cell"),
            MetroConfigError::NoShards => write!(f, "metro needs at least one shard"),
            MetroConfigError::NoWorkers => write!(f, "metro needs at least one worker thread"),
            MetroConfigError::NoServers => {
                write!(f, "each shard needs at least one server")
            }
            MetroConfigError::MoreShardsThanCells { shards, cells } => {
                write!(f, "{shards} shards over {cells} cells leaves empty shards")
            }
        }
    }
}

impl std::error::Error for MetroConfigError {}

/// One shard's outcome within a metro run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Cells this shard simulated.
    pub cells: usize,
    /// Seed the shard ran with (for standalone reproduction).
    pub seed: u64,
    /// The shard's metrics over the whole run.
    pub metrics: PoolMetrics,
}

/// Merged output of a metro run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetroReport {
    /// Metro-wide metrics: counters summed, histograms merged, per-epoch
    /// series added element-wise across shards (see [`PoolMetrics::merge`]).
    pub metrics: PoolMetrics,
    /// Per-shard reports, in shard-index order.
    pub shards: Vec<ShardReport>,
}

impl MetroReport {
    /// Sum over shards of each shard's peak epoch demand — the capacity a
    /// deployment would provision if every shard dimensioned for its own
    /// peak.
    pub fn sum_of_shard_peaks(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.metrics.demand_gops.iter().copied().fold(0.0f64, f64::max))
            .sum()
    }

    /// Peak over epochs of the metro-wide total demand — what one fully
    /// pooled deployment would provision.
    pub fn peak_of_total(&self) -> f64 {
        self.metrics
            .demand_gops
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
    }

    /// Statistical-multiplexing gain forfeited by sharding: sum of shard
    /// peaks over the peak of the metro total (≥ 1; 1.0 at one shard).
    pub fn sharding_gain(&self) -> f64 {
        let peak = self.peak_of_total();
        if peak <= 0.0 {
            1.0
        } else {
            self.sum_of_shard_peaks() / peak
        }
    }
}

/// The sharded metro simulator (see the module docs).
pub struct MetroSimulator {
    config: MetroConfig,
    pool: PoolConfig,
    trace: TraceConfig,
}

impl MetroSimulator {
    /// Build a metro run with the evaluation pool defaults: each shard
    /// gets `servers_per_shard` servers, warm-start placement enabled,
    /// and a diurnal [`TraceConfig::default_day`] trace cut to the
    /// shard's cell count and seed.
    pub fn try_new(config: MetroConfig) -> Result<Self, MetroError> {
        let mut pool = PoolConfig::default_eval(config.servers_per_shard.max(1));
        pool.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        let trace = TraceConfig::default_day(config.cells.max(1), config.seed);
        Self::with_pool(config, pool, trace)
    }

    /// Build a metro run over an explicit per-shard pool configuration
    /// and trace template (the template's `num_cells` and `seed` are
    /// overridden per shard; `fronthaul.seed`, when set, is re-derived
    /// per shard so fault streams stay independent across shards).
    pub fn with_pool(
        config: MetroConfig,
        pool: PoolConfig,
        trace: TraceConfig,
    ) -> Result<Self, MetroError> {
        validate(&config, &pool, &trace)?;
        Ok(MetroSimulator {
            config,
            pool,
            trace,
        })
    }

    /// The metro configuration.
    pub fn config(&self) -> MetroConfig {
        self.config
    }

    /// Step every shard through the whole trace and merge: each worker
    /// claims a shard, builds it, steps it epoch by epoch to the horizon
    /// (the last epoch takes whatever rows are left) and appends every
    /// epoch into the shard's total; the totals merge in shard-index
    /// order.
    pub fn run(&self) -> MetroReport {
        let config = &self.config;
        let steps = self.trace.num_steps();
        let mut totals = vec![PoolMetrics::default(); config.shards];
        for_each_shard(&mut totals, config.workers, |s, total| {
            let (pool, trace) = shard_configs(config, &self.pool, &self.trace, s);
            let mut shard = ResidentShard::new(s as u64, pool, &trace);
            while shard.stream.step_index() < steps {
                shard.step_epoch(steps - shard.stream.step_index());
                total.append_epoch(&shard.scratch);
            }
        });

        // One canonical event order regardless of worker count: sort
        // (stably) by shard label.
        if pran_telemetry::enabled() {
            pran_telemetry::trace::canonicalize_by_shard();
        }

        let mut metrics = PoolMetrics::default();
        let shards = totals
            .into_iter()
            .enumerate()
            .map(|(shard, total)| {
                metrics.merge(&total);
                ShardReport {
                    shard,
                    cells: config.shard_cells(shard),
                    seed: config.shard_seed(shard),
                    metrics: total,
                }
            })
            .collect();
        MetroReport { metrics, shards }
    }
}

/// The worker crew every metro driver runs on: `work(index, shard)` for
/// each of `shards` on up to `workers` scoped threads, each taking the
/// next unclaimed shard in index order (inline when one worker suffices).
pub(crate) fn for_each_shard<S: Send>(
    shards: &mut [S],
    workers: usize,
    work: impl Fn(usize, &mut S) + Sync,
) {
    let workers = workers.min(shards.len());
    if workers <= 1 {
        shards.iter_mut().enumerate().for_each(|(i, s)| work(i, s));
        return;
    }
    let next = Mutex::new(shards.iter_mut().enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                    let claimed = next.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((i, shard)) = claimed else { break };
                    work(i, shard);
                }
                // Flush this thread's buffer *inside* the closure:
                // `thread::scope` waits for closures, not thread-local
                // destructors, so an exit-time flush could land after the
                // caller canonicalizes or drains the trace.
                pran_telemetry::trace::flush();
            });
        }
    });
}

/// One epoch's deterministic outputs and phase stamps of a shard's step.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardDelta {
    pub(crate) peak_queue_depth: u64,
    pub(crate) unplaced: u64,
    pub(crate) ingest_ns: u64,
    pub(crate) dispatch_ns: u64,
    pub(crate) execute_ns: u64,
}

/// One metro shard: a pool, the trace stream feeding it, and this
/// epoch's rows, metrics and phase stamps.
pub(crate) struct ResidentShard {
    /// Metro-wide shard index: telemetry shard context (the stamp on
    /// this shard's events, and the live ring they are routed to).
    shard_id: u64,
    pub(crate) pool: PoolShard,
    pub(crate) stream: TraceStream,
    /// The current epoch's rows (`epoch_steps` buffers, reused).
    rows: Vec<Vec<f64>>,
    /// Epoch-local metrics, reset at the top of every step.
    pub(crate) scratch: PoolMetrics,
    pub(crate) delta: ShardDelta,
}

impl ResidentShard {
    /// Shard `shard_id` over its (already cut) pool and trace
    /// configuration, which [`validate`] has passed.
    pub(crate) fn new(shard_id: u64, cfg: PoolConfig, trace_cfg: &TraceConfig) -> Self {
        let stream = TraceStream::new(trace_cfg);
        let num_cells = stream.num_cells();
        ResidentShard {
            shard_id,
            rows: (0..cfg.epoch_steps)
                .map(|_| Vec::with_capacity(num_cells))
                .collect(),
            pool: PoolShard::try_new(cfg, num_cells).expect("validated by the metro gate"),
            stream,
            scratch: PoolMetrics::default(),
            delta: ShardDelta::default(),
        }
    }

    /// Step one epoch of at most `max_steps` rows (`epoch_steps` unless
    /// the horizon is nearer): stream them, (re)place, execute, then
    /// handle the pool's crashes due before the next epoch starts. Runs
    /// under this shard's telemetry context, so both the buffered trace
    /// and the live ring see shard-stamped, shard-routed events.
    pub(crate) fn step_epoch(&mut self, max_steps: usize) {
        pran_telemetry::trace::set_shard(Some(self.shard_id));
        self.scratch.reset();
        let steps = max_steps.min(self.rows.len());
        let rows = &mut self.rows[..steps];

        let t0 = Instant::now();
        let (first_step, step_seconds) = (self.stream.step_index(), self.stream.step_seconds());
        for row in rows.iter_mut() {
            self.stream.next_step_into(row);
        }
        let t1 = Instant::now();
        let placed = self.pool.place(rows, &mut self.scratch);
        let t2 = Instant::now();
        let pool = &mut self.pool;
        self.delta.peak_queue_depth =
            pool.execute(rows, first_step, step_seconds, &mut self.scratch);
        let t3 = Instant::now();
        let until = Some(first_step + steps);
        pool.handle_crashes(until, rows, first_step, step_seconds, &mut self.scratch);

        self.delta.unplaced = placed.unplaced as u64;
        self.delta.ingest_ns = (t1 - t0).as_nanos() as u64;
        self.delta.dispatch_ns = (t2 - t1).as_nanos() as u64;
        self.delta.execute_ns = (t3 - t2).as_nanos() as u64;
        pran_telemetry::trace::set_shard(None);
    }
}

/// The gate in front of every metro, batch or resident: a sound shape,
/// a pool template that can serve it, and a trace template every shard's
/// [`TraceStream`] and pool can run — a finite, positive duration and the
/// step [`PoolSimulator::try_new`](crate::PoolSimulator::try_new) admits.
/// A per-cell split plan is metro-global (each shard gets its slice), so
/// it must cover every cell.
pub(crate) fn validate(
    config: &MetroConfig,
    pool: &PoolConfig,
    trace: &TraceConfig,
) -> Result<(), MetroError> {
    config.validate().map_err(MetroError::Metro)?;
    pool.validate_for(config.cells).map_err(MetroError::Pool)?;
    let duration = trace.duration_seconds;
    if !duration.is_finite() || duration <= 0.0 {
        return Err(MetroError::Pool(PoolConfigError::BadDurationSeconds(
            duration,
        )));
    }
    pool.validate_steps(trace.step_seconds, trace.num_steps())
        .map_err(MetroError::Pool)
}

/// Shard `shard`'s pool and trace configuration, for every driver: the
/// trace cut to the shard's cell count and seed, the fronthaul fault seed
/// re-derived from it (else cell `c` of every shard replays one loss
/// sequence), a per-cell split plan sliced to the shard's cells (shards
/// partition the metro's cells in shard-major order).
pub(crate) fn shard_configs(
    config: &MetroConfig,
    pool: &PoolConfig,
    trace: &TraceConfig,
    shard: usize,
) -> (PoolConfig, TraceConfig) {
    let mut trace_cfg = trace.clone();
    trace_cfg.num_cells = config.shard_cells(shard);
    trace_cfg.seed = config.shard_seed(shard);
    let mut pool_cfg = pool.clone();
    if let Some(lf) = pool_cfg.fronthaul.as_mut() {
        lf.seed ^= trace_cfg.seed;
    }
    if let SplitPlan::PerCell(plan) = &pool.split_plan {
        let offset: usize = (0..shard).map(|s| config.shard_cells(s)).sum();
        pool_cfg.split_plan =
            SplitPlan::PerCell(plan[offset..offset + trace_cfg.num_cells].to_vec());
    }
    (pool_cfg, trace_cfg)
}

/// Why a [`MetroSimulator`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetroError {
    /// The metro shape is degenerate.
    Metro(MetroConfigError),
    /// The per-shard pool configuration is invalid.
    Pool(PoolConfigError),
}

impl std::fmt::Display for MetroError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetroError::Metro(e) => write!(f, "{e}"),
            MetroError::Pool(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MetroError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_metro(cells: usize, shards: usize) -> MetroSimulator {
        let mut cfg = MetroConfig::default_eval(cells, shards);
        cfg.seed = 42;
        let mut sim = MetroSimulator::try_new(cfg).unwrap();
        // Keep unit tests quick: 2 simulated hours.
        sim.trace.duration_seconds = 2.0 * 3600.0;
        sim.trace.step_seconds = 120.0;
        sim
    }

    #[test]
    fn partition_is_balanced_and_complete() {
        let cfg = MetroConfig::default_eval(103, 8);
        let sizes: Vec<usize> = (0..8).map(|s| cfg.shard_cells(s)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }

    #[test]
    fn shard_seeds_are_stable_and_distinct() {
        let cfg = MetroConfig::default_eval(100, 8);
        let seeds: Vec<u64> = (0..8).map(|s| cfg.shard_seed(s)).collect();
        assert_eq!(seeds, (0..8).map(|s| cfg.shard_seed(s)).collect::<Vec<_>>());
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "seed collision: {seeds:?}");
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        let ok = MetroConfig::default_eval(100, 4);
        assert_eq!(ok.validate(), Ok(()));
        let mut c = ok;
        c.cells = 0;
        assert_eq!(c.validate(), Err(MetroConfigError::NoCells));
        let mut c = ok;
        c.shards = 0;
        assert_eq!(c.validate(), Err(MetroConfigError::NoShards));
        let mut c = ok;
        c.workers = 0;
        assert_eq!(c.validate(), Err(MetroConfigError::NoWorkers));
        let mut c = ok;
        c.servers_per_shard = 0;
        assert_eq!(c.validate(), Err(MetroConfigError::NoServers));
        let mut c = ok;
        c.shards = 101;
        assert!(matches!(
            c.validate(),
            Err(MetroConfigError::MoreShardsThanCells { .. })
        ));
    }

    #[test]
    fn both_drivers_reject_a_trace_no_shard_could_run() {
        // Past the gate, each of these panics in a shard's stream, in a
        // worker or at the first epoch, or (an infinite or 1e300 s step)
        // runs zero tasks.
        let config = MetroConfig::default_eval(8, 2);
        let pool = PoolConfig::default_eval(4);
        let build = |trace: &TraceConfig| {
            let batch = MetroSimulator::with_pool(config, pool.clone(), trace.clone()).err();
            let resident =
                crate::ResidentMetro::with_pool(config, pool.clone(), trace.clone()).err();
            (batch, resident)
        };
        let bits = |e: Option<MetroError>| match e {
            Some(MetroError::Pool(PoolConfigError::BadStepSeconds(s))) => {
                Some(("step", s.to_bits()))
            }
            Some(MetroError::Pool(PoolConfigError::BadDurationSeconds(d))) => {
                Some(("duration", d.to_bits()))
            }
            _ => None,
        };
        for step in [f64::NAN, 0.0, -60.0, f64::INFINITY, 1e300] {
            let mut trace = TraceConfig::default_day(8, 1);
            trace.step_seconds = step;
            let (batch, resident) = build(&trace);
            let want = Some(("step", step.to_bits()));
            assert_eq!(bits(batch), want, "batch, step {step}");
            assert_eq!(bits(resident), want, "resident, step {step}");
        }
        for duration in [f64::NAN, 0.0, -3600.0, f64::INFINITY] {
            let mut trace = TraceConfig::default_day(8, 1);
            trace.duration_seconds = duration;
            let (batch, resident) = build(&trace);
            let want = Some(("duration", duration.to_bits()));
            assert_eq!(bits(batch), want, "batch, duration {duration}");
            assert_eq!(bits(resident), want, "resident, duration {duration}");
        }
        let (batch, resident) = build(&TraceConfig::default_day(8, 1));
        assert!(batch.is_none() && resident.is_none());
    }

    #[test]
    fn merged_totals_equal_shard_sums() {
        let sim = small_metro(60, 4);
        let report = sim.run();
        assert_eq!(report.shards.len(), 4);
        let task_sum: u64 = report.shards.iter().map(|s| s.metrics.tasks_total).sum();
        assert_eq!(report.metrics.tasks_total, task_sum);
        assert!(task_sum > 0);
        let cells: usize = report.shards.iter().map(|s| s.cells).sum();
        assert_eq!(cells, 60);
        // Element-wise servers_used sum at epoch 0.
        let used0: usize = report
            .shards
            .iter()
            .map(|s| s.metrics.servers_used[0])
            .sum();
        assert_eq!(report.metrics.servers_used[0], used0);
    }

    #[test]
    fn a_metro_shard_fails_over_as_the_pool_simulator_does() {
        // One crash path: the same schedule on a streamed shard and on a
        // `PoolSimulator` over the same rows gives the same failovers and
        // metrics. Server 0 fails at epoch 1's exact start and returns;
        // server 1 fails mid-epoch for good.
        let mut trace = TraceConfig::default_day(16, 7);
        trace.duration_seconds = 2.0 * 3600.0;
        trace.step_seconds = 120.0;
        let pool = PoolConfig::default_eval(8);
        let mut sim = crate::PoolSimulator::new(pran_traces::generate(&trace), pool.clone());
        let mut shard = ResidentShard::new(0, pool, &trace);
        for (server, at, back) in [(0, 1200.0, Some(1000)), (1, 3000.5, None)] {
            let spec = crate::FailureSpec {
                server,
                at: std::time::Duration::from_secs_f64(at),
                recover_after: back.map(std::time::Duration::from_secs),
            };
            sim.inject_failure(spec);
            shard.pool.schedule_failure(spec);
        }
        let report = sim.run();
        let (steps, mut total) = (trace.num_steps(), PoolMetrics::default());
        while shard.stream.step_index() < steps {
            shard.step_epoch(steps - shard.stream.step_index());
            total.append_epoch(&shard.scratch);
        }
        assert_eq!(report.failovers.len(), 2);
        assert!(report.failovers.iter().all(|f| f.displaced > 0));
        assert_eq!(shard.pool.failovers(), report.failovers);
        assert_eq!(total, report.metrics);
    }

    #[test]
    fn sharding_gain_is_at_least_one() {
        let report = small_metro(60, 4).run();
        assert!(
            report.sharding_gain() >= 1.0 - 1e-12,
            "{}",
            report.sharding_gain()
        );
        assert!(report.peak_of_total() > 0.0);
    }
}
