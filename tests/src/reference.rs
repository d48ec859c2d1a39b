//! The seed's allocating executor: the differential oracle for
//! `PoolShard::execute`.
//!
//! The seed's per-step-allocating, `Duration`-typed execution of an
//! epoch's sampled TTIs, kept so `tests/pool_differential.rs` and
//! `tests/traced_grid.rs` have something independent to compare the hot
//! loop against: the two must produce byte-identical reports. It is
//! written against `pran-sim`'s public API alone and shares no code with
//! the hot loop: service times come from the compute model and
//! [`Accelerator::default_eval`] here, fronthaul offers are whole frames
//! through this oracle's own [`FaultInjector::offer`]s (where the hot loop
//! draws its links' fates with `deliver`), and per-server grouping and
//! the response and slack arithmetic are its own; dispatch goes through
//! the same schedulers as the hot loop, on fresh buffers. Placement and
//! failover are not duplicated — the oracle executes against the shard
//! [`PoolSimulator::run_with`] hands it, reading
//! [`PoolShard::config`], [`PoolShard::assignment`] and
//! [`PoolShard::alive`].

use std::time::Duration;

use bytes::Bytes;
use pran_fronthaul::fault::{FaultInjector, Outcome};
use pran_phy::compute::{CellWorkload, ComputeModel};
use pran_phy::frame::{Direction, COMPUTE_DEADLINE, TTI};
use pran_sched::placement::Accelerator;
use pran_sched::realtime::{simulate, ParallelExecutor, Policy, RtTask};
use pran_sim::metro::ShardReport;
use pran_sim::{
    MetroConfig, MetroReport, PoolConfig, PoolMetrics, PoolShard, PoolSimulator, SimReport,
    SplitPlan,
};
use pran_traces::{generate, TraceConfig};

/// Uplink subframe report one cell pushes per TTI over its fronthaul
/// link. Splits ship a *prefix* of this static frame
/// (`FunctionalSplit::fronthaul_bytes_per_tti` bytes); under `Full` the
/// prefix is the whole 32-byte frame — exactly the pre-split payload.
static UPLINK_FRAME: [u8; 32] = [0u8; 32];

/// `sim` run to completion with every epoch executed by the oracle.
pub fn run(sim: &mut PoolSimulator) -> SimReport {
    let mut oracle = None;
    sim.run_with(|shard, rows, first_step, step_seconds, metrics| {
        let oracle = oracle.get_or_insert_with(|| Reference::new(shard));
        oracle.execute(shard, rows, first_step, step_seconds, metrics);
    })
}

/// A metro of `config` over the per-shard `pool` and `trace` templates,
/// every shard run through [`run`] over its materialized trace, merged
/// in shard order: what `MetroSimulator::run` must report, byte for byte.
/// Each shard's configuration is cut as the metro documents it — the
/// trace to the shard's cells and seed, the fronthaul seed xor the trace
/// seed, a per-cell split plan sliced to the shard's cells.
pub fn run_metro(config: MetroConfig, pool: &PoolConfig, trace: &TraceConfig) -> MetroReport {
    let mut metrics = PoolMetrics::default();
    let mut shards = Vec::with_capacity(config.shards);
    let mut first_cell = 0;
    for shard in 0..config.shards {
        let (cells, seed) = (config.shard_cells(shard), config.shard_seed(shard));
        let mut trace = trace.clone();
        trace.num_cells = cells;
        trace.seed = seed;
        let mut pool = pool.clone();
        if let Some(lf) = pool.fronthaul.as_mut() {
            lf.seed ^= seed;
        }
        if let SplitPlan::PerCell(plan) = &pool.split_plan {
            pool.split_plan = SplitPlan::PerCell(plan[first_cell..first_cell + cells].to_vec());
        }
        first_cell += cells;
        let report = run(&mut PoolSimulator::new(generate(&trace), pool));
        metrics.merge(&report.metrics);
        shards.push(ShardReport {
            shard,
            cells,
            seed,
            metrics: report.metrics,
        });
    }
    MetroReport { metrics, shards }
}

/// The oracle's state across one run: its own fault injector per cell.
struct Reference {
    /// One injector per cell, seeded `seed + cell` as the shard seeds its
    /// own; empty under an ideal fronthaul. A run through the oracle never
    /// draws the shard's links, so the two streams stay in step.
    links: Vec<FaultInjector>,
}

impl Reference {
    fn new(shard: &PoolShard) -> Self {
        let cells = shard.assignment().len();
        Reference {
            links: match &shard.config().fronthaul {
                Some(lf) => (0..cells)
                    .map(|c| FaultInjector::new(lf.config, lf.seed.wrapping_add(c as u64)))
                    .collect(),
                None => Vec::new(),
            },
        }
    }

    /// `PoolShard::execute`, the seed-faithful way: same arguments, same
    /// effect on `metrics`, through freshly allocated per-server task
    /// vectors and the allocating schedulers.
    fn execute(
        &mut self,
        shard: &PoolShard,
        rows: &[Vec<f64>],
        first_step: usize,
        step_seconds: f64,
        metrics: &mut PoolMetrics,
    ) {
        let (cfg, assignment, alive) = (shard.config(), shard.assignment(), shard.alive());
        let model = ComputeModel::calibrated();
        let cores = cfg.server_cores();
        let core_gops = cfg.server_capacity_gops / cores as f64;
        for (offset, row) in rows.iter().enumerate() {
            let step_start = Duration::from_secs_f64((first_step + offset) as f64 * step_seconds);
            // Tasks lost: cells unplaced or on a dead server.
            // Group tasks per server.
            let mut per_server: Vec<Vec<RtTask>> = vec![Vec::new(); cfg.servers];
            let mut next_id = vec![0usize; cfg.servers];
            for (cell, &util) in row.iter().enumerate() {
                let w = CellWorkload {
                    bandwidth: cfg.bandwidth,
                    antennas: cfg.antennas,
                    prbs_used: 0,
                    mcs: cfg.mcs,
                    direction: Direction::Uplink,
                    split: cfg.split_plan.split_for(cell),
                }
                .at_utilization(util);
                let frame_len = w
                    .split
                    .fronthaul_bytes_per_tti(w.prbs_used, cfg.bandwidth.prbs());
                let service_on =
                    |s: usize| service(&model, &w, cfg.server_is_accelerated(s), core_gops);
                for tti in 0..cfg.ttis_per_step {
                    metrics.tasks_total += 1;
                    match assignment[cell] {
                        Some(s) if alive[s] => {
                            let base = TTI * tti as u32;
                            let mut release = base;
                            if !self.links.is_empty() {
                                // The subframe report crosses the cell's
                                // fronthaul link first; its bucket refills
                                // on absolute simulated time.
                                let link = &mut self.links[cell];
                                link.advance_to(step_start + base);
                                metrics.fronthaul_bytes += frame_len as u64;
                                match link.offer(Bytes::from_static(&UPLINK_FRAME[..frame_len])) {
                                    Outcome::Delivered { extra_delay, .. } => {
                                        // Jitter delays arrival but the HARQ
                                        // deadline stays pinned to the TTI,
                                        // so jitter eats compute slack.
                                        release += extra_delay;
                                    }
                                    Outcome::Dropped | Outcome::RateLimited => {
                                        metrics.tasks_lost += 1;
                                        metrics.reports_lost += 1;
                                        continue;
                                    }
                                }
                            }
                            let id = next_id[s];
                            next_id[s] += 1;
                            per_server[s].push(RtTask {
                                id,
                                cell,
                                release,
                                deadline: base + COMPUTE_DEADLINE,
                                service: service_on(s),
                            });
                        }
                        _ => metrics.tasks_lost += 1,
                    }
                }
            }
            for (s, tasks) in per_server.iter().enumerate() {
                if tasks.is_empty() || !alive[s] {
                    continue;
                }
                match &cfg.parallel {
                    Some(p) => {
                        let out = ParallelExecutor::new(*p).execute(tasks);
                        metrics.deadline_misses += out.misses() as u64;
                        metrics.steals += out.steals;
                        for r in &out.tasks {
                            // The executor reads releases truncated to
                            // whole µs; so does the response time.
                            let release_us = tasks[r.id].release.as_micros() as u64;
                            metrics
                                .response_times
                                .record(r.finish - Duration::from_micros(release_us));
                            if r.slack_us >= 0 {
                                metrics
                                    .deadline_slack
                                    .record(Duration::from_micros(r.slack_us as u64));
                            }
                        }
                    }
                    None => {
                        let out = simulate(tasks, cores, Policy::GlobalEdf);
                        metrics.deadline_misses += out.misses() as u64;
                        for t in tasks {
                            let finish = Duration::from_nanos(out.finish_ns[t.id]);
                            metrics
                                .response_times
                                .record(finish.saturating_sub(t.release));
                            // On-time tasks contribute their remaining
                            // budget.
                            if !out.missed[t.id] {
                                metrics.deadline_slack.record(t.deadline - finish);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Service time of one pooled cell-subframe on a server: every pooled
/// GOP on general cores for plain servers; accelerated ones run the
/// turbo-decode share at [`Accelerator::default_eval`]'s speedup.
fn service(model: &ComputeModel, w: &CellWorkload, accelerated: bool, core_gops: f64) -> Duration {
    let pooled = model.pooled_gops(w);
    let secs = if accelerated {
        let decode = model.pooled_decode_gops(w);
        let speedup = Accelerator::default_eval().decode_speedup;
        (pooled - decode) * 1e-3 / core_gops + decode * 1e-3 / (core_gops * speedup)
    } else {
        pooled * 1e-3 / core_gops
    };
    Duration::from_secs_f64(secs)
}
