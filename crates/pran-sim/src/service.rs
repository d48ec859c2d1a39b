//! Resident (long-running) metro simulation for soak services.
//!
//! The batch [`MetroSimulator::run`](crate::MetroSimulator::run) steps
//! every shard to the trace horizon and returns one merged report. A
//! *resident* deployment steps the same shards — the metro's one shard
//! driver, a [`PoolShard`](crate::PoolShard) fed by a
//! [`TraceStream`](pran_traces::TraceStream) — one epoch per call, on the
//! same worker crew, with per-epoch metrics published to scrapers while
//! the simulation keeps running indefinitely. The SLO monitor judges each
//! epoch on the sample [`PoolSimulator`](crate::PoolSimulator) builds
//! too: a metro with no server alive has no utilization, so it cannot
//! clear a utilization breach.
//!
//! Per-epoch metrics are merged across shards and appended into a
//! cumulative [`PoolMetrics`] that is **byte-identical** to what a batch
//! run over the same configuration produces — `tests/soak_service.rs`
//! pins this, on the default metro and on uneven, faulted, split,
//! cold-placed shards.
//!
//! Per epoch the caller gets an [`EpochStatus`]: a compact, fully
//! deterministic [`EpochRecord`] (what the flight recorder rings), any SLO
//! [`Alert`]s raised, and wall-clock phase timings
//! (ingest / dispatch / execute / merge) for self-profiling.

use std::time::Instant;

use pran_insight::live::MetroFold;
use pran_insight::slo::{Alert, BurnAlert, SloMonitor, SloPolicy};
use pran_traces::TraceConfig;
use serde::{Deserialize, Serialize};

use crate::metrics::PoolMetrics;
use crate::metro::{self, MetroConfig, MetroError, ResidentShard};
use crate::pool::{epoch_sample, step_start, PoolConfig};

/// One epoch's deterministic summary — the flight recorder's ring element.
///
/// Every field is a pure function of the simulation configuration (no
/// wall-clock timings, no host state), so recorder dumps are byte-identical
/// across worker counts and runs; `tests/soak_service.rs` pins 1-worker vs
/// 8-worker dumps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based, monotonically increasing over the soak).
    pub epoch: u64,
    /// Simulated-clock timestamp of the epoch start, microseconds.
    pub at_us: u64,
    /// Subframe tasks generated this epoch (all shards).
    pub tasks: u64,
    /// Deadline misses this epoch.
    pub misses: u64,
    /// Tasks lost this epoch (dead/unplaced servers + fronthaul drops).
    pub lost: u64,
    /// Fronthaul-dropped uplink reports this epoch.
    pub reports_lost: u64,
    /// Epoch-local miss ratio (misses + lost over tasks).
    pub miss_ratio: f64,
    /// Cumulative miss ratio since the soak started.
    pub cum_miss_ratio: f64,
    /// p99 of this epoch's positive deadline slack, microseconds (0 when
    /// no task finished on time — e.g. every task lost).
    pub slack_p99_us: u64,
    /// Peak per-server task backlog in any single step of the epoch.
    pub peak_queue_depth: u64,
    /// Servers the placement actually used (all shards).
    pub servers_used: u64,
    /// Servers alive across the metro.
    pub alive_servers: u64,
    /// Liveness bitmask of the first ≤ 64 servers, shard-major order
    /// (bit *i* set = server *i* alive); wider pools truncate.
    pub alive_mask: u64,
    /// Placed demand over alive capacity (0 when no server is alive).
    pub utilization: f64,
    /// Cells the placement left unserved this epoch.
    pub unplaced: u64,
    /// Bitmask of [`SloMetric`](pran_insight::SloMetric)s that raised an
    /// alert this epoch (bit = position in
    /// [`SloMetric::all`](pran_insight::SloMetric::all)).
    pub alert_mask: u32,
    /// Whether this epoch breached the chaos-aligned safety envelope
    /// (epoch-local miss ratio or unplaced cells past the SLO policy
    /// bounds), independent of the monitor's edge-trigger state; false
    /// when no policy is set.
    pub violation: bool,
    /// Error-budget burn rate over the fast window after this epoch
    /// (1.0 = burning at exactly the sustainable rate).
    pub burn_fast: f64,
    /// Error-budget burn rate over the slow window after this epoch.
    pub burn_slow: f64,
    /// Burn-rate severity currently firing (0 = none, 1 = ticket,
    /// 2 = page) — level-style state, unlike the edge-triggered alert.
    /// The three burn fields are 0 when no policy is set.
    pub burn_severity: u32,
}

/// What [`ResidentMetro::step_epoch`] hands back: the deterministic record,
/// the alerts it raised, and the wall-clock self-profile of the epoch.
#[derive(Debug, Clone)]
pub struct EpochStatus {
    /// The deterministic epoch summary (rung into the flight recorder).
    pub record: EpochRecord,
    /// SLO alerts the monitor raised this epoch (edge-triggered).
    pub alerts: Vec<Alert>,
    /// Burn-rate alert raised this epoch, if a multi-window rule
    /// started firing (edge-triggered per severity).
    pub burn_alert: Option<BurnAlert>,
    /// Wall-clock nanoseconds streaming this epoch's trace rows (summed
    /// across shards).
    pub ingest_ns: u64,
    /// Wall-clock nanoseconds predicting demand and (re)placing cells.
    pub dispatch_ns: u64,
    /// Wall-clock nanoseconds executing the per-TTI task simulation.
    pub execute_ns: u64,
    /// Wall-clock nanoseconds merging shard metrics and folding the
    /// cumulative state.
    pub merge_ns: u64,
}

/// The resident metro simulator: every shard of a [`MetroConfig`] stepped
/// one epoch at a time, with cumulative metrics that match the batch
/// [`MetroSimulator::run`](crate::MetroSimulator::run) byte for byte.
pub struct ResidentMetro {
    config: MetroConfig,
    shards: Vec<ResidentShard>,
    epoch: u64,
    epoch_steps: usize,
    step_seconds: f64,
    /// Cumulative metrics over the whole soak.
    cum: PoolMetrics,
    /// Reused epoch-merge scratch.
    em: PoolMetrics,
    /// Judges every epoch against [`PoolConfig::slo`] (`None`: nothing
    /// is judged).
    monitor: Option<SloMonitor>,
}

impl ResidentMetro {
    /// Build with the evaluation defaults of
    /// [`MetroSimulator::try_new`](crate::MetroSimulator::try_new): warm
    /// placement, a diurnal day trace per shard, and the online SLO
    /// monitor armed with [`SloPolicy::default_eval`].
    pub fn try_new(config: MetroConfig) -> Result<Self, MetroError> {
        let mut pool = PoolConfig::default_eval(config.servers_per_shard.max(1));
        pool.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        pool.slo = Some(SloPolicy::default_eval());
        let trace = TraceConfig::default_day(config.cells.max(1), config.seed);
        Self::with_pool(config, pool, trace)
    }

    /// Build over an explicit per-shard pool configuration and trace
    /// template, validated and cut per shard exactly as
    /// [`MetroSimulator::with_pool`](crate::MetroSimulator::with_pool)
    /// does.
    pub fn with_pool(
        config: MetroConfig,
        pool: PoolConfig,
        trace: TraceConfig,
    ) -> Result<Self, MetroError> {
        metro::validate(&config, &pool, &trace)?;
        let monitor = pool.slo.map(SloMonitor::new);
        let shards = (0..config.shards)
            .map(|s| {
                let (pool_cfg, trace_cfg) = metro::shard_configs(&config, &pool, &trace, s);
                ResidentShard::new(s as u64, pool_cfg, &trace_cfg)
            })
            .collect();
        Ok(ResidentMetro {
            config,
            epoch: 0,
            epoch_steps: pool.epoch_steps,
            step_seconds: trace.step_seconds,
            shards,
            cum: PoolMetrics::default(),
            em: PoolMetrics::default(),
            monitor,
        })
    }

    /// The metro configuration.
    pub fn config(&self) -> MetroConfig {
        self.config
    }

    /// Epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative metrics since the soak started — byte-identical to a
    /// batch metro run over the same number of epochs.
    pub fn cumulative(&self) -> &PoolMetrics {
        &self.cum
    }

    /// The SLO policy every epoch is judged against (thresholds, burn
    /// objective, safety bounds); `None` when nothing is judged.
    pub fn policy(&self) -> Option<&SloPolicy> {
        self.monitor.as_ref().map(SloMonitor::policy)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cells hosted by one shard.
    pub fn shard_cells(&self, shard: usize) -> usize {
        self.shards[shard].stream.num_cells()
    }

    /// Cells across the whole metro.
    pub fn total_cells(&self) -> usize {
        self.shards.iter().map(|sh| sh.stream.num_cells()).sum()
    }

    /// Servers across the whole metro.
    pub fn total_servers(&self) -> usize {
        self.shards.iter().map(|sh| sh.pool.config().servers).sum()
    }

    /// `(cell_offset, server_offset)` of one shard in the metro-global
    /// id spaces (shard-major, matching `alive_mask` bit order).
    pub fn shard_offsets(&self, shard: usize) -> (usize, usize) {
        let mut cells = 0;
        let mut servers = 0;
        for sh in &self.shards[..shard] {
            cells += sh.stream.num_cells();
            servers += sh.pool.config().servers;
        }
        (cells, servers)
    }

    /// One shard's current cell → local-server placement.
    pub fn shard_assignment(&self, shard: usize) -> &[Option<usize>] {
        self.shards[shard].pool.assignment()
    }

    /// The metro-wide live insight view: each shard's own fold of the
    /// subframes it executed, side by side in shard order (global ids as
    /// in [`shard_offsets`](Self::shard_offsets)). `None` until every
    /// shard has stepped an epoch with `pran_telemetry::live` armed.
    pub fn live_fold(&self) -> Option<MetroFold<'_>> {
        let parts = self.shards.iter().map(|sh| sh.pool.live_fold());
        parts.collect::<Option<Vec<_>>>().map(MetroFold::new)
    }

    /// Kill the first `n` currently-alive servers of `shard` (a forced
    /// degradation hook for alert/recorder testing: the next epoch's
    /// placement loses their capacity, and displaced demand that no longer
    /// fits turns into lost tasks and unplaced cells). Returns how many
    /// servers were actually killed.
    pub fn kill_servers(&mut self, shard: usize, n: usize) -> usize {
        let Some(sh) = self.shards.get_mut(shard) else {
            return 0;
        };
        let doomed = sh.pool.alive_mut().iter_mut().filter(|a| **a).take(n);
        doomed.map(|a| *a = false).count()
    }

    /// Revive every server in every shard.
    pub fn revive_all(&mut self) {
        for sh in self.shards.iter_mut() {
            sh.pool.alive_mut().fill(true);
        }
    }

    /// Step every shard one epoch (in parallel across up to
    /// `config.workers` threads), merge in shard-index order, fold the
    /// cumulative state, and feed the SLO monitor.
    pub fn step_epoch(&mut self) -> EpochStatus {
        let epoch_steps = self.epoch_steps;
        metro::for_each_shard(&mut self.shards, self.config.workers, |_, sh| {
            sh.step_epoch(epoch_steps)
        });

        // Merge phase: fold shard scratches in shard-index order (the
        // batch metro's merge discipline), then append the merged epoch
        // to the cumulative state.
        let m0 = Instant::now();
        self.em.reset();
        let mut ingest_ns = 0u64;
        let mut dispatch_ns = 0u64;
        let mut execute_ns = 0u64;
        let mut peak_queue_depth = 0u64;
        let mut unplaced = 0u64;
        let mut alive_servers = 0u64;
        let mut alive_mask = 0u64;
        let mut mask_bit = 0u32;
        for sh in &self.shards {
            self.em.merge(&sh.scratch);
            ingest_ns += sh.delta.ingest_ns;
            dispatch_ns += sh.delta.dispatch_ns;
            execute_ns += sh.delta.execute_ns;
            peak_queue_depth = peak_queue_depth.max(sh.delta.peak_queue_depth);
            unplaced += sh.delta.unplaced;
            for &a in sh.pool.alive() {
                if a {
                    alive_servers += 1;
                    if mask_bit < 64 {
                        alive_mask |= 1u64 << mask_bit;
                    }
                }
                mask_bit = mask_bit.saturating_add(1);
            }
        }
        self.cum.append_epoch(&self.em);
        let em = &self.em;

        let epoch = self.epoch;
        self.epoch += 1;
        let at_us = step_start(epoch as usize * self.epoch_steps, self.step_seconds);
        let alive_capacity = self
            .shards
            .first()
            .map(|sh| sh.pool.config().server_capacity_gops)
            .unwrap_or(0.0)
            * alive_servers as f64;
        let slack_p99_us = em
            .deadline_slack
            .try_quantile(0.99)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let miss_ratio = em.miss_ratio();
        let merge_ns = m0.elapsed().as_nanos() as u64;

        // Telemetry / SLO phase: the monitor judges the epoch's own
        // values, so a resident soak alerts on what just happened, not on
        // the diluted lifetime average.
        let outage_p99 = self.cum.outages.try_quantile(0.99);
        let sample = epoch_sample(epoch, at_us, em, alive_capacity, outage_p99, unplaced);
        let (alerts, verdict) = match self.monitor.as_mut() {
            Some(monitor) => {
                let verdict = monitor.observe_epoch(&sample);
                (monitor.take_alerts(), verdict)
            }
            None => Default::default(),
        };
        let burn = verdict.burn.unwrap_or_default();
        let record = EpochRecord {
            epoch,
            at_us,
            tasks: em.tasks_total,
            misses: em.deadline_misses,
            lost: em.tasks_lost,
            reports_lost: em.reports_lost,
            miss_ratio,
            cum_miss_ratio: self.cum.miss_ratio(),
            slack_p99_us,
            peak_queue_depth,
            servers_used: em.servers_used.first().copied().unwrap_or(0) as u64,
            alive_servers,
            alive_mask,
            utilization: sample.utilization.unwrap_or(0.0),
            unplaced,
            alert_mask: alerts
                .iter()
                .fold(0, |mask, a| mask | 1 << a.metric.index()),
            violation: verdict.violation,
            burn_fast: burn.burn_fast,
            burn_slow: burn.burn_slow,
            burn_severity: burn.severity_code(),
        };

        EpochStatus {
            record,
            alerts,
            burn_alert: verdict.burn_alert,
            ingest_ns,
            dispatch_ns,
            execute_ns,
            merge_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_resident(cells: usize, shards: usize) -> ResidentMetro {
        judged_by(cells, shards, Some(SloPolicy::default_eval()))
    }

    fn judged_by(cells: usize, shards: usize, slo: Option<SloPolicy>) -> ResidentMetro {
        let mut cfg = MetroConfig::default_eval(cells, shards);
        cfg.seed = 42;
        let mut pool = PoolConfig::default_eval(cfg.servers_per_shard.max(1));
        pool.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        pool.slo = slo;
        let mut trace = TraceConfig::default_day(cells, cfg.seed);
        trace.duration_seconds = 2.0 * 3600.0;
        trace.step_seconds = 120.0;
        ResidentMetro::with_pool(cfg, pool, trace).unwrap()
    }

    #[test]
    fn epochs_advance_and_accumulate() {
        let mut m = small_resident(24, 2);
        let s0 = m.step_epoch();
        assert_eq!(s0.record.epoch, 0);
        assert!(s0.record.tasks > 0);
        let s1 = m.step_epoch();
        assert_eq!(s1.record.epoch, 1);
        assert_eq!(m.epoch(), 2);
        assert_eq!(
            m.cumulative().tasks_total,
            s0.record.tasks + s1.record.tasks
        );
        assert_eq!(m.cumulative().epochs, 2);
        assert_eq!(m.cumulative().servers_used.len(), 2);
    }

    #[test]
    fn records_are_deterministic_across_worker_counts() {
        let mut one = small_resident(24, 2);
        one.config.workers = 1;
        let mut eight = small_resident(24, 2);
        eight.config.workers = 8;
        for _ in 0..5 {
            let a = one.step_epoch().record;
            let b = eight.step_epoch().record;
            assert_eq!(a, b);
        }
        assert_eq!(one.cumulative(), eight.cumulative());
    }

    #[test]
    fn killing_all_servers_forces_losses_and_a_violation() {
        let mut m = small_resident(24, 2);
        let healthy = m.step_epoch();
        assert!(!healthy.record.violation);
        assert_eq!(healthy.record.lost, 0);
        let servers = m.shards[0].pool.config().servers;
        assert_eq!(m.kill_servers(0, servers), servers);
        let degraded = m.step_epoch();
        assert!(degraded.record.lost > 0, "dead shard must lose tasks");
        assert!(degraded.record.violation);
        assert!(degraded.record.unplaced > 0);
        assert!(
            degraded.record.alert_mask != 0,
            "the SLO monitor must raise at least one alert"
        );
        assert!(degraded.record.alive_servers < healthy.record.alive_servers);
        m.revive_all();
        let recovered = m.step_epoch();
        assert_eq!(recovered.record.alive_servers, healthy.record.alive_servers);
    }

    #[test]
    fn a_dead_metro_does_not_clear_a_utilization_breach() {
        use pran_insight::SloMetric;
        let utilization_alerts = |s: &EpochStatus| {
            let alerts = s.alerts.iter();
            alerts
                .filter(|a| a.metric == SloMetric::PoolUtilization)
                .count()
        };
        let mut m = small_resident(24, 2);
        let servers = m.shards[0].pool.config().servers;
        let one_left = |m: &mut ResidentMetro| {
            m.kill_servers(0, servers);
            m.kill_servers(1, servers - 1);
        };
        m.step_epoch();
        one_left(&mut m);
        let breached = m.step_epoch();
        assert_eq!(utilization_alerts(&breached), 1, "{:?}", breached.record);
        m.kill_servers(1, 1);
        let dead = m.step_epoch();
        assert_eq!(dead.record.alive_servers, 0);
        assert_eq!(dead.record.utilization, 0.0, "the record keeps its 0");
        m.revive_all();
        one_left(&mut m);
        let again = m.step_epoch();
        assert!(again.record.utilization > 0.95, "{:?}", again.record);
        assert_eq!(utilization_alerts(&again), 0, "the breach never cleared");
    }

    #[test]
    fn sustained_outage_raises_burn_alerts_healthy_run_does_not() {
        let mut healthy = small_resident(24, 2);
        for _ in 0..30 {
            let s = healthy.step_epoch();
            assert!(s.burn_alert.is_none(), "healthy soak must not burn-alert");
            assert_eq!(s.record.burn_severity, 0);
        }

        let mut m = small_resident(24, 2);
        for _ in 0..3 {
            assert!(m.step_epoch().burn_alert.is_none());
        }
        let servers = m.shards[0].pool.config().servers;
        m.kill_servers(0, servers);
        m.kill_servers(1, servers);
        let mut severities = Vec::new();
        let mut saw_state = 0;
        for _ in 0..30 {
            let s = m.step_epoch();
            if let Some(a) = s.burn_alert {
                severities.push(a.severity);
                assert!(a.burn_fast >= a.factor && a.burn_slow >= a.factor);
            }
            saw_state = saw_state.max(s.record.burn_severity);
        }
        use pran_insight::slo::BurnSeverity;
        assert!(
            severities.contains(&BurnSeverity::Ticket),
            "sustained outage must at least ticket: {severities:?}"
        );
        assert_eq!(
            saw_state,
            severities.iter().map(|s| s.code()).max().unwrap()
        );
    }

    #[test]
    fn without_a_policy_nothing_is_judged() {
        // The outage that alerts, violates and burns under the default
        // policy above: with no policy, every epoch passes unjudged.
        let mut m = judged_by(24, 2, None);
        assert_eq!(m.policy(), None);
        m.step_epoch();
        let servers = m.shards[0].pool.config().servers;
        m.kill_servers(0, servers);
        m.kill_servers(1, servers);
        for _ in 0..30 {
            let s = m.step_epoch();
            assert!(s.record.lost > 0, "a dead metro loses tasks");
            assert!(s.alerts.is_empty() && s.burn_alert.is_none());
            let r = s.record;
            assert_eq!((r.alert_mask, r.burn_severity), (0, 0));
            assert_eq!((r.burn_fast, r.burn_slow), (0.0, 0.0));
            assert!(!r.violation);
        }
    }

    #[test]
    fn shard_offsets_partition_the_metro() {
        let m = small_resident(25, 3);
        assert_eq!(m.shard_count(), 3);
        let mut cells = 0;
        let mut servers = 0;
        for s in 0..3 {
            assert_eq!(m.shard_offsets(s), (cells, servers));
            cells += m.shard_cells(s);
            servers += m.shards[s].pool.config().servers;
            assert_eq!(m.shard_assignment(s).len(), m.shard_cells(s));
        }
        assert_eq!(cells, m.total_cells());
        assert_eq!(servers, m.total_servers());
        assert_eq!(m.total_cells(), 25, "uneven split must cover every cell");
    }
}
