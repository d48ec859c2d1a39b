//! The allocating reference oracle for [`PoolShard::execute`].
//!
//! The seed's per-step-allocating, `Duration`-typed execution of an
//! epoch's sampled TTIs, kept so `tests/tests/pool_differential.rs` has
//! something independent to compare the hot loop against: the two must
//! produce byte-identical reports. What it keeps independent is the task
//! building — service times, fronthaul offers (whole frames through
//! `FaultInjector::offer`, where the hot loop draws their fates with
//! `deliver`), per-server grouping and
//! the response and slack arithmetic; dispatch goes through the same
//! schedulers as the hot loop, on fresh buffers. Placement and failover
//! are not duplicated — the oracle runs against the same [`PoolShard`]
//! state.

use std::time::Duration;

use bytes::Bytes;
use pran_fronthaul::fault::Outcome;
use pran_phy::compute::ComputeModel;
use pran_phy::frame::{COMPUTE_DEADLINE, TTI};
use pran_sched::realtime::{simulate, ParallelExecutor, Policy, RtTask};

use super::shard::{service_seconds, uplink_workload, PoolShard};
use crate::metrics::PoolMetrics;

/// Uplink subframe report one cell pushes per TTI over its fronthaul
/// link. Splits ship a *prefix* of this static frame
/// (`FunctionalSplit::fronthaul_bytes_per_tti` bytes); under `Full` the
/// prefix is the whole 32-byte frame — exactly the pre-split payload.
static UPLINK_FRAME: [u8; 32] = [0u8; 32];

impl PoolShard {
    /// [`execute`](PoolShard::execute), the seed-faithful way: same
    /// arguments, same effect on `metrics`, through freshly allocated
    /// per-server task vectors and the allocating schedulers.
    pub(super) fn execute_reference(
        &mut self,
        rows: &[Vec<f64>],
        first_step: usize,
        step_seconds: f64,
        metrics: &mut PoolMetrics,
    ) {
        let cfg = &self.cfg;
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
                let w =
                    uplink_workload(cfg, 0, cfg.split_plan.split_for(cell)).at_utilization(util);
                let frame_len = w
                    .split
                    .fronthaul_bytes_per_tti(w.prbs_used, cfg.bandwidth.prbs());
                // Service depends on the hosting server's class: plain
                // servers run every pooled GOP on general cores, the
                // accelerated ones run the decode share at the
                // accelerator's speedup.
                let service_on = |s: usize| {
                    Duration::from_secs_f64(service_seconds(
                        &model,
                        &w,
                        cfg.server_is_accelerated(s),
                        core_gops,
                    ))
                };
                for tti in 0..cfg.ttis_per_step {
                    metrics.tasks_total += 1;
                    match self.placement.assignment[cell] {
                        Some(s) if self.alive[s] => {
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
                if tasks.is_empty() || !self.alive[s] {
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
                            // budget — previously only the parallel branch
                            // recorded slack, leaving the histogram
                            // silently empty under the analytic model.
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
