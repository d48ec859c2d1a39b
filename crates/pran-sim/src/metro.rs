//! Metro-scale sharded simulation: a city of pools in one process.
//!
//! PRAN's statistical-multiplexing argument only bites at scale — the gap
//! between "peak of the sum" and "sum of the peaks" grows with the number
//! of cells pooled — but one [`PoolSimulator`] runs a single pool over
//! tens of cells. The [`MetroSimulator`] partitions a 10,000+ cell metro
//! into per-pool *shards*, runs each shard's full pool simulation
//! (placement epochs, per-TTI tasks, failures, fronthaul faults) on a
//! small crew of OS worker threads, and merges the per-shard
//! [`SimReport`]s into one [`MetroReport`].
//!
//! # Determinism
//!
//! The merged output is a pure function of [`MetroConfig`]:
//!
//! * every shard's trace seed is derived from the root seed with a
//!   splitmix64 mix ([`MetroConfig::shard_seed`]) — stable regardless of
//!   which worker runs the shard or in what order;
//! * each shard's simulation is single-threaded and deterministic, so its
//!   `SimReport` depends only on its seed and cell count;
//! * merging folds shard reports in shard-index order after all workers
//!   join, never in completion order (and [`PoolMetrics::merge`] is
//!   commutative anyway);
//! * telemetry events are stamped with a per-shard label
//!   ([`pran_telemetry::trace::set_shard`]) and canonicalized into
//!   shard-sorted order after the join, so a drained trace export is
//!   byte-identical across 1, 2 or 8 workers and any shard execution
//!   order (`tests/tests/metro_determinism.rs` proves all of this).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use pran_traces::{generate, TraceConfig};
use serde::{Deserialize, Serialize};

use crate::metrics::PoolMetrics;
use crate::pool::{PoolConfig, PoolConfigError, PoolSimulator, SimReport, SplitPlan};

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
    /// The shard's full pool report.
    pub report: SimReport,
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
            .map(|s| {
                s.report
                    .metrics
                    .demand_gops
                    .iter()
                    .copied()
                    .fold(0.0f64, f64::max)
            })
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
        validate(&config, &pool)?;
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

    /// Run every shard (in index order hand-out) and merge.
    pub fn run(&self) -> MetroReport {
        let order: Vec<usize> = (0..self.config.shards).collect();
        self.run_ordered(&order)
    }

    /// Run every shard through [`PoolSimulator::run_reference`] — the
    /// seed-faithful allocating epoch path — and merge. The differential
    /// oracle for [`MetroSimulator::run`]: merged reports must be
    /// byte-identical across the two paths and any worker count.
    pub fn run_reference(&self) -> MetroReport {
        let order: Vec<usize> = (0..self.config.shards).collect();
        self.run_ordered_impl(&order, true)
    }

    /// Run with an explicit shard hand-out order — a determinism test
    /// hook: any permutation of `0..shards` must produce the same merged
    /// report and telemetry export.
    ///
    /// # Panics
    /// Panics when `order` is not a permutation of `0..shards`.
    pub fn run_ordered(&self, order: &[usize]) -> MetroReport {
        self.run_ordered_impl(order, false)
    }

    fn run_ordered_impl(&self, order: &[usize], reference: bool) -> MetroReport {
        let shards = self.config.shards;
        {
            let mut seen = vec![false; shards];
            assert_eq!(order.len(), shards, "order must cover every shard");
            for &s in order {
                assert!(s < shards && !seen[s], "order must be a permutation");
                seen[s] = true;
            }
        }

        let slots: Vec<OnceLock<ShardReport>> = (0..shards).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = self.config.workers.min(shards);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&shard) = order.get(i) else { break };
                        let report = self.run_shard(shard, reference);
                        slots[shard].set(report).expect("one worker per shard");
                    }
                    // Flush this thread's buffer *inside* the closure:
                    // `thread::scope` waits for closures, not thread-local
                    // destructors, so an exit-time flush could race the
                    // post-run canonicalize and lose this worker's events.
                    pran_telemetry::trace::flush();
                });
            }
        });

        // One canonical event order regardless of worker count or
        // hand-out order: sort (stably) by shard label.
        if pran_telemetry::enabled() {
            pran_telemetry::trace::canonicalize_by_shard();
        }

        let mut metrics = PoolMetrics::default();
        let mut reports = Vec::with_capacity(shards);
        for slot in slots {
            let shard_report = slot.into_inner().expect("every shard ran");
            metrics.merge(&shard_report.report.metrics);
            reports.push(shard_report);
        }
        MetroReport {
            metrics,
            shards: reports,
        }
    }

    /// Run one shard's pool simulation on the calling thread.
    fn run_shard(&self, shard: usize, reference: bool) -> ShardReport {
        let (pool_cfg, trace_cfg) = shard_configs(&self.config, &self.pool, &self.trace, shard);
        pran_telemetry::trace::set_shard(Some(shard as u64));
        let trace = generate(&trace_cfg);
        let mut pool = PoolSimulator::new(trace, pool_cfg);
        let report = if reference {
            pool.run_reference()
        } else {
            pool.run()
        };
        pran_telemetry::trace::set_shard(None);
        ShardReport {
            shard,
            cells: trace_cfg.num_cells,
            seed: trace_cfg.seed,
            report,
        }
    }
}

/// The gate in front of every metro, batch or resident: a sound shape,
/// and a pool template that can serve it. A per-cell split plan is
/// metro-global (each shard gets its slice), so it must cover every cell.
pub(crate) fn validate(config: &MetroConfig, pool: &PoolConfig) -> Result<(), MetroError> {
    config.validate().map_err(MetroError::Metro)?;
    pool.validate_for(config.cells).map_err(MetroError::Pool)
}

/// Shard `shard`'s pool and trace configuration, for either driver: the
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
    fn merged_totals_equal_shard_sums() {
        let sim = small_metro(60, 4);
        let report = sim.run();
        assert_eq!(report.shards.len(), 4);
        let task_sum: u64 = report
            .shards
            .iter()
            .map(|s| s.report.metrics.tasks_total)
            .sum();
        assert_eq!(report.metrics.tasks_total, task_sum);
        assert!(task_sum > 0);
        let cells: usize = report.shards.iter().map(|s| s.cells).sum();
        assert_eq!(cells, 60);
        // Element-wise servers_used sum at epoch 0.
        let used0: usize = report
            .shards
            .iter()
            .map(|s| s.report.metrics.servers_used[0])
            .sum();
        assert_eq!(report.metrics.servers_used[0], used0);
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

    #[test]
    #[should_panic(expected = "permutation")]
    fn run_ordered_rejects_bad_orders() {
        let sim = small_metro(20, 4);
        sim.run_ordered(&[0, 1, 2, 2]);
    }
}
