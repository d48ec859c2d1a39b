//! The pool simulator: traces in, deadline/miss/migration metrics out.
//!
//! One pool's behaviour is one state machine, [`PoolShard`] (`shard.rs`):
//! each placement epoch it (re)packs cells onto live servers (warm-start
//! or incremental repack — bounded churn), then samples TTIs from every
//! trace step, generates per-cell uplink tasks from the PHY compute model
//! and runs each server's tasks by global EDF, or through the configured
//! parallel executor; a server failure displaces cells and failover is
//! measured as the per-cell outage between failure and re-placement.
//! `config.rs` says what a pool is made of.
//!
//! [`PoolSimulator`] is the single-pool driver: it walks a materialized
//! [`Trace`] on a discrete-event [`Engine`], turning epoch boundaries and
//! scheduled [`FailureSpec`]s into shard transitions, and adds telemetry
//! events, health gauges and the cumulative SLO monitor. Its one test
//! seam, [`PoolSimulator::run_with`], takes the execute transition as an
//! argument: the differential tests pass the seed's allocating executor,
//! which lives in the tests crate (`tests/src/reference.rs`). Metro
//! shards are driven by [`crate::metro`]'s one shard driver instead,
//! which streams its rows.

use std::time::Duration;

use pran_insight::slo::{Alert, EpochSample, SloMonitor};
use pran_traces::Trace;

use crate::engine::{Engine, SimTime};
use crate::metrics::PoolMetrics;

mod config;
mod shard;

pub use config::{FailoverTiming, LinkFault, PoolAccel, PoolConfig, PoolConfigError, SplitPlan};
pub use shard::{FailoverRecord, Placed, PoolShard};

/// A scheduled server failure (and optional recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSpec {
    /// Which server fails.
    pub server: usize,
    /// When the server dies, relative to trace start.
    pub at: Duration,
    /// How long until it returns (`None` = never).
    pub recover_after: Option<Duration>,
}

/// Events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    EpochStart(usize),
    ServerFail(usize, Option<Duration>),
    ServerRecover(usize),
}

/// The batch simulator: one pool over one materialized trace.
pub struct PoolSimulator {
    trace: Trace,
    config: PoolConfig,
    failures: Vec<FailureSpec>,
}

/// Full output of a run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimReport {
    /// Aggregate counters and histograms.
    pub metrics: PoolMetrics,
    /// One record per handled server failure.
    pub failovers: Vec<FailoverRecord>,
    /// SLO alerts raised by the per-epoch monitor (empty unless
    /// [`PoolConfig::slo`] is set).
    pub alerts: Vec<Alert>,
}

impl PoolSimulator {
    /// Build a simulator over a trace, rejecting configurations that
    /// would otherwise panic mid-run (zero servers/cells/cores, zero
    /// epoch or TTI counts, non-positive capacity or headroom, a trace
    /// step that is not a positive number of seconds) with a typed
    /// [`PoolConfigError`].
    pub fn try_new(trace: Trace, config: PoolConfig) -> Result<Self, PoolConfigError> {
        config.validate_for(trace.num_cells())?;
        config.validate_steps(trace.step_seconds, trace.num_steps())?;
        Ok(PoolSimulator {
            trace,
            config,
            failures: Vec::new(),
        })
    }

    /// Build a simulator over a trace.
    ///
    /// # Panics
    /// Panics when the configuration is invalid; see
    /// [`PoolSimulator::try_new`] for the checked variant.
    pub fn new(trace: Trace, config: PoolConfig) -> Self {
        match Self::try_new(trace, config) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Schedule a server failure.
    pub fn inject_failure(&mut self, spec: FailureSpec) {
        assert!(spec.server < self.config.servers, "no such server");
        self.failures.push(spec);
    }

    /// Run to completion (zero-allocation epoch hot path).
    pub fn run(&mut self) -> SimReport {
        self.run_with(|shard, rows, first_step, step_seconds, metrics| {
            shard.execute(rows, first_step, step_seconds, metrics);
        })
    }

    /// Run to completion with `execute` as every epoch's execute
    /// transition, called with [`PoolShard::execute`]'s arguments after
    /// the epoch's [`place`](PoolShard::place): the same event loop,
    /// placement, failover and telemetry around it. [`run`](Self::run)
    /// is this over `PoolShard::execute`; the differential tests pass an
    /// independent executor and compare the reports' bytes.
    pub fn run_with(
        &mut self,
        mut execute: impl FnMut(&mut PoolShard, &[Vec<f64>], usize, f64, &mut PoolMetrics),
    ) -> SimReport {
        let cfg = &self.config;
        let step_seconds = self.trace.step_seconds;
        let total_steps = self.trace.num_steps();
        let num_epochs = total_steps.div_ceil(cfg.epoch_steps);

        let mut engine: Engine<Event> = Engine::new();
        for e in 0..num_epochs {
            let at = Duration::from_secs_f64(e as f64 * cfg.epoch_steps as f64 * step_seconds);
            engine.schedule(SimTime::from_duration(at), Event::EpochStart(e));
        }
        for f in &self.failures {
            engine.schedule(
                SimTime::from_duration(f.at),
                Event::ServerFail(f.server, f.recover_after),
            );
        }

        // A fresh shard per run, so a simulator can be run again.
        let mut shard = PoolShard::try_new(cfg.clone(), self.trace.num_cells())
            .expect("validated at construction");
        let mut metrics = PoolMetrics::default();
        let mut failovers = Vec::new();
        let mut slo_monitor = cfg.slo.map(SloMonitor::new);

        while let Some((now, event)) = engine.next() {
            let now_us = now.to_duration().as_micros() as u64;
            match event {
                Event::EpochStart(e) => {
                    let first = e * cfg.epoch_steps;
                    let last = ((e + 1) * cfg.epoch_steps).min(total_steps);
                    let rows = &self.trace.samples[first..last];

                    let placed = shard.place(rows, &mut metrics);
                    pran_telemetry::trace::sim_event(
                        "pool.epoch",
                        now_us,
                        &[
                            ("epoch", (e as u64).into()),
                            ("migrations", placed.migrations.into()),
                            ("servers_used", placed.servers_used.into()),
                            ("demand_gops", placed.demand_gops.into()),
                            ("dirty", placed.dirty.into()),
                        ],
                    );

                    // Simulate sampled TTIs of every step in the epoch.
                    execute(&mut shard, rows, first, step_seconds, &mut metrics);

                    // Per-epoch health observation: publish gauges for
                    // scrapers and feed the online SLO monitor. Miss
                    // ratio and lost reports are cumulative over the run.
                    let alive_capacity = shard.alive().iter().filter(|a| **a).count() as f64
                        * cfg.server_capacity_gops;
                    let utilization =
                        (alive_capacity > 0.0).then(|| placed.demand_gops / alive_capacity);
                    let outage_p99 = metrics.outages.try_quantile(0.99);
                    if pran_telemetry::enabled() {
                        let registry = pran_telemetry::metrics::global();
                        registry.gauge("pool.miss_ratio", &[], metrics.miss_ratio());
                        if let Some(u) = utilization {
                            registry.gauge("pool.utilization", &[], u);
                        }
                        registry.gauge("pool.reports_lost", &[], metrics.reports_lost as f64);
                        if let Some(p99) = outage_p99 {
                            registry.gauge("pool.outage_p99_us", &[], p99.as_micros() as f64);
                        }
                    }
                    if let Some(monitor) = slo_monitor.as_mut() {
                        monitor.observe_epoch(&EpochSample {
                            epoch: e as u64,
                            at_us: now_us,
                            miss_ratio: Some(metrics.miss_ratio()),
                            utilization,
                            outage_p99,
                            reports_lost: Some(metrics.reports_lost),
                            unplaced: None,
                        });
                    }
                }
                Event::ServerFail(s, recover_after) => {
                    // Re-place at the loads of the current trace step.
                    let now_d = now.to_duration();
                    let step = ((now_d.as_secs_f64() / step_seconds) as usize).min(total_steps - 1);
                    let Some(record) =
                        shard.fail_server(s, &self.trace.samples[step], &mut metrics)
                    else {
                        continue;
                    };
                    // Cells the repack could not re-place stay dark until
                    // the next epoch re-solves placement; their outage is
                    // the failover price plus that wait. Without these
                    // samples the outage histogram — and the online SLO
                    // monitor reading it — is blind to exactly the
                    // failures that hurt most.
                    let stranded = record.displaced - record.replaced;
                    if stranded > 0 {
                        let epoch_len =
                            Duration::from_secs_f64(cfg.epoch_steps as f64 * step_seconds);
                        let next_epoch = {
                            let k = (now_d.as_nanos() / epoch_len.as_nanos() + 1) as u32;
                            epoch_len.saturating_mul(k)
                        };
                        let stranded_outage = record.outage + next_epoch.saturating_sub(now_d);
                        for _ in 0..stranded {
                            metrics.outages.record(stranded_outage);
                        }
                    }
                    failovers.push(record);
                    pran_telemetry::trace::sim_event(
                        "pool.fail",
                        now_us,
                        &[
                            ("server", s.into()),
                            ("displaced", record.displaced.into()),
                            ("replaced", record.replaced.into()),
                            ("outage_us", (record.outage.as_micros() as u64).into()),
                        ],
                    );
                    if let Some(delay) = recover_after {
                        engine.schedule_in(delay, Event::ServerRecover(s));
                    }
                }
                Event::ServerRecover(s) => {
                    shard.alive_mut()[s] = true;
                    pran_telemetry::trace::sim_event(
                        "pool.recover",
                        now_us,
                        &[("server", s.into())],
                    );
                }
            }
        }

        let alerts = match slo_monitor.as_mut() {
            Some(monitor) => monitor.take_alerts(),
            None => Vec::new(),
        };
        SimReport {
            metrics,
            failovers,
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pran_fronthaul::fault::FaultConfig;
    use pran_insight::slo::SloPolicy;
    use pran_phy::frame::TTI;
    use pran_sched::realtime::ParallelConfig;
    use pran_traces::{generate, TraceConfig};

    fn small_trace(cells: usize, seed: u64) -> Trace {
        let mut cfg = TraceConfig::default_day(cells, seed);
        cfg.duration_seconds = 2.0 * 3600.0; // 2 h
        cfg.step_seconds = 120.0;
        generate(&cfg)
    }

    fn sim(cells: usize, servers: usize, seed: u64) -> PoolSimulator {
        PoolSimulator::new(small_trace(cells, seed), PoolConfig::default_eval(servers))
    }

    #[test]
    fn healthy_pool_meets_deadlines() {
        let mut s = sim(12, 10, 1);
        let report = s.run();
        assert!(report.metrics.tasks_total > 0);
        assert_eq!(
            report.metrics.tasks_lost, 0,
            "ample pool must place all cells"
        );
        assert!(
            report.metrics.miss_ratio() < 0.01,
            "miss ratio {} in a healthy pool",
            report.metrics.miss_ratio()
        );
        assert!(report.failovers.is_empty());
    }

    #[test]
    fn servers_used_tracks_demand() {
        let mut s = sim(20, 12, 2);
        let report = s.run();
        let m = &report.metrics;
        assert_eq!(m.epochs as usize, m.servers_used.len());
        // Pooled usage must never exceed the pool, and should vary with the
        // diurnal demand (unless demand is flat).
        assert!(m.peak_servers() <= 12);
        assert!(m.mean_servers() >= 1.0);
    }

    #[test]
    fn failure_displaces_and_recovers() {
        let mut s = sim(12, 10, 3);
        s.inject_failure(FailureSpec {
            server: 0,
            at: Duration::from_secs(1800),
            recover_after: Some(Duration::from_secs(600)),
        });
        let report = s.run();
        assert_eq!(report.failovers.len(), 1);
        let f = &report.failovers[0];
        assert_eq!(f.server, 0);
        assert_eq!(
            f.displaced, f.replaced,
            "spare capacity must absorb the failure"
        );
        if f.displaced > 0 {
            // One sample per displaced cell (all replaced here).
            assert_eq!(report.metrics.outages.count(), f.displaced as u64);
            // Outage = detection + replan + migration.
            assert_eq!(f.outage, Duration::from_millis(50));
        }
    }

    #[test]
    fn failure_without_capacity_loses_tasks() {
        // 2 servers, kill one, demand needs both → losses.
        let trace = small_trace(16, 4);
        let mut cfg = PoolConfig::default_eval(2);
        cfg.server_capacity_gops = 600.0;
        let mut s = PoolSimulator::new(trace, cfg);
        s.inject_failure(FailureSpec {
            server: 1,
            at: Duration::from_secs(600),
            recover_after: None,
        });
        let report = s.run();
        assert!(
            report.metrics.tasks_lost > 0,
            "halving an adequate pool must strand some cells"
        );
    }

    #[test]
    fn stranded_cells_record_epoch_wait_outages() {
        // Kill one of two servers with capacity tight enough that the
        // repack cannot re-place every displaced cell. The stranded
        // (displaced-but-unreplaced) cells must show up in the outage
        // histogram: one sample per displaced cell, and the stranded
        // ones carry the wait until the next epoch re-solve on top of
        // the 50ms failover price.
        let trace = small_trace(16, 4);
        let mut cfg = PoolConfig::default_eval(2);
        cfg.server_capacity_gops = 320.0;
        let mut s = PoolSimulator::new(trace, cfg);
        s.inject_failure(FailureSpec {
            server: 1,
            at: Duration::from_secs(600),
            recover_after: None,
        });
        let report = s.run();
        assert_eq!(report.failovers.len(), 1);
        let f = &report.failovers[0];
        assert!(
            f.displaced > f.replaced,
            "displaced {} vs replaced {}: this scenario must leave cells unreplaced",
            f.displaced,
            f.replaced
        );
        assert_eq!(report.metrics.outages.count(), f.displaced as u64);
        let worst = report
            .metrics
            .outages
            .try_quantile(1.0)
            .expect("displaced cells recorded outages");
        assert!(
            worst > Duration::from_millis(50),
            "stranded outage {worst:?} must exceed the bare failover price"
        );
    }

    #[test]
    fn double_failure_of_same_server_ignored() {
        let mut s = sim(8, 6, 5);
        s.inject_failure(FailureSpec {
            server: 1,
            at: Duration::from_secs(60),
            recover_after: None,
        });
        s.inject_failure(FailureSpec {
            server: 1,
            at: Duration::from_secs(120),
            recover_after: None,
        });
        let report = s.run();
        assert_eq!(report.failovers.len(), 1);
    }

    #[test]
    fn migrations_bounded_by_stability() {
        let mut s = sim(15, 10, 6);
        let report = s.run();
        // Incremental repack must not reshuffle everything every epoch.
        let per_epoch = report.metrics.migrations as f64 / report.metrics.epochs as f64;
        assert!(
            per_epoch < 15.0 / 2.0,
            "churn per epoch {per_epoch} too high"
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let run = |seed| {
            let mut s = sim(10, 8, seed);
            let r = s.run();
            (
                r.metrics.tasks_total,
                r.metrics.deadline_misses,
                r.metrics.migrations,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic(expected = "no such server")]
    fn failure_validates_server_index() {
        let mut s = sim(4, 2, 8);
        s.inject_failure(FailureSpec {
            server: 5,
            at: Duration::ZERO,
            recover_after: None,
        });
    }

    #[test]
    fn parallel_executor_path_meets_deadlines_and_records_slack() {
        // batch = 1: a batch is the steal/dispatch unit, so batching
        // consecutive TTIs of one cell serializes them on one core —
        // fatal when service (~1.6 ms) exceeds the 1 ms TTI spacing.
        // E6 sweeps that tradeoff; here we want the healthy baseline.
        let mut cfg = PoolConfig::default_eval(10);
        cfg.parallel = Some(ParallelConfig {
            cores: 4,
            batch: 1,
            steal: true,
        });
        let mut s = PoolSimulator::new(small_trace(12, 1), cfg);
        let report = s.run();
        let m = &report.metrics;
        assert!(m.tasks_total > 0);
        assert!(
            m.miss_ratio() < 0.01,
            "parallel pool miss ratio {} in a healthy pool",
            m.miss_ratio()
        );
        // Every on-time task contributes a slack sample.
        assert_eq!(
            m.deadline_slack.count() + m.deadline_misses,
            m.tasks_total - m.tasks_lost,
            "slack samples + misses must cover all executed tasks"
        );
        assert!(m.deadline_slack.mean() > Duration::ZERO);
    }

    #[test]
    fn parallel_path_deterministic_without_stealing() {
        let run = || {
            let mut cfg = PoolConfig::default_eval(8);
            cfg.parallel = Some(ParallelConfig {
                cores: 4,
                batch: 4,
                steal: false,
            });
            let mut s = PoolSimulator::new(small_trace(10, 7), cfg);
            let r = s.run();
            (
                r.metrics.deadline_misses,
                r.metrics.steals,
                r.metrics.deadline_slack.count(),
            )
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.1, 0, "no stealing when disabled");
    }

    #[test]
    fn parallel_cores_override_core_capacity() {
        // On the same 400-GOPS servers an 8-core executor model halves
        // per-core GOPS against a 4-core one, so every subframe runs
        // twice as long. Four cells never release more subframes in one
        // TTI than there are cores, and stealing spreads a cell's
        // back-to-back subframes, so a task rarely queues and the median
        // response — about one service time — doubles too.
        let p50 = |cores| {
            let mut cfg = PoolConfig::default_eval(10);
            cfg.parallel = Some(ParallelConfig {
                cores,
                batch: 1,
                steal: true,
            });
            let report = PoolSimulator::new(small_trace(4, 2), cfg).run();
            report.metrics.response_times.quantile(0.5).as_secs_f64()
        };
        let ratio = p50(8) / p50(4);
        assert!(
            (1.8..=2.2).contains(&ratio),
            "8-core p50 response is {ratio}× the 4-core one"
        );
    }

    #[test]
    fn fronthaul_loss_strands_tasks_deterministically() {
        let run = || {
            let mut cfg = PoolConfig::default_eval(10);
            cfg.fronthaul = Some(LinkFault {
                config: FaultConfig {
                    drop_prob: 0.2,
                    ..FaultConfig::clean()
                },
                seed: 11,
            });
            let mut s = PoolSimulator::new(small_trace(12, 1), cfg);
            let r = s.run();
            (
                r.metrics.tasks_total,
                r.metrics.tasks_lost,
                r.metrics.reports_lost,
            )
        };
        let (total, lost, reports) = run();
        assert!(reports > 0, "20 % drop must lose some reports");
        assert_eq!(lost, reports, "only fronthaul losses in a healthy pool");
        let frac = reports as f64 / total as f64;
        assert!((frac - 0.2).abs() < 0.05, "loss fraction {frac}");
        assert_eq!(run(), (total, lost, reports), "seeded faults replay");
    }

    #[test]
    fn fronthaul_rate_limit_refills_on_sim_time() {
        // The lockstep regression for the composed path: bucket refills
        // must land at simulated-time multiples of refill_interval, so a
        // 1-token bucket refilled every 2 TTIs passes every other TTI of a
        // step regardless of how the epoch loop batches its calls.
        let mut cfg = PoolConfig::default_eval(10);
        cfg.fronthaul = Some(LinkFault {
            config: FaultConfig {
                bucket_capacity: 1,
                refill_per_interval: 1,
                refill_interval: TTI * 2,
                ..FaultConfig::clean()
            },
            seed: 5,
        });
        let mut s = PoolSimulator::new(small_trace(6, 2), cfg);
        let r = s.run();
        let m = &r.metrics;
        // 4 TTIs per step at 1 ms spacing, refill every 2 ms: TTI 0 spends
        // the initial/carried token, TTI 2 the refilled one; TTIs 1 and 3
        // are rate-limited. Exactly half the reports survive.
        assert_eq!(
            m.reports_lost * 2,
            m.tasks_total,
            "time-based refill must pass every other TTI (lost {} of {})",
            m.reports_lost,
            m.tasks_total
        );
    }

    #[test]
    fn fronthaul_jitter_shifts_release_not_deadline() {
        let mut cfg = PoolConfig::default_eval(10);
        cfg.fronthaul = Some(LinkFault {
            config: FaultConfig {
                max_jitter: Duration::from_micros(100),
                ..FaultConfig::clean()
            },
            seed: 9,
        });
        let mut s = PoolSimulator::new(small_trace(12, 3), cfg);
        let r = s.run();
        let m = &r.metrics;
        assert_eq!(m.tasks_lost, 0, "jitter alone loses nothing");
        assert_eq!(m.reports_lost, 0);
        assert!(
            m.miss_ratio() < 0.01,
            "100 µs of jitter fits the 2 ms budget, ratio {}",
            m.miss_ratio()
        );
        assert_eq!(
            m.response_times.count(),
            m.tasks_total,
            "every delivered task still scores a response time"
        );
    }

    #[test]
    fn healthy_pool_with_slo_monitor_stays_quiet() {
        let trace = small_trace(12, 1);
        let mut cfg = PoolConfig::default_eval(10);
        cfg.slo = Some(SloPolicy::default_eval());
        let mut s = PoolSimulator::new(trace, cfg);
        let report = s.run();
        assert!(
            report.alerts.is_empty(),
            "healthy pool raised {:?}",
            report.alerts
        );
    }

    #[test]
    fn starved_pool_raises_miss_ratio_alert() {
        use pran_insight::SloMetric;
        // The capacity-loss scenario: kill one of two servers so tasks
        // are lost; the cumulative miss ratio crosses 1 % and the
        // monitor alerts exactly once (edge-triggered).
        let trace = small_trace(16, 4);
        let mut cfg = PoolConfig::default_eval(2);
        cfg.server_capacity_gops = 600.0;
        cfg.slo = Some(SloPolicy::default_eval());
        let mut s = PoolSimulator::new(trace, cfg);
        s.inject_failure(FailureSpec {
            server: 1,
            at: Duration::from_secs(600),
            recover_after: None,
        });
        let report = s.run();
        assert!(report.metrics.miss_ratio() > 0.01);
        let miss_alerts: Vec<_> = report
            .alerts
            .iter()
            .filter(|a| a.metric == SloMetric::MissRatio)
            .collect();
        assert_eq!(miss_alerts.len(), 1, "alerts: {:?}", report.alerts);
        assert!(miss_alerts[0].value > 0.01);
        assert!((miss_alerts[0].threshold - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn parallel_config_validated_at_construction() {
        let mut cfg = PoolConfig::default_eval(2);
        cfg.parallel = Some(ParallelConfig {
            cores: 0,
            batch: 1,
            steal: true,
        });
        PoolSimulator::new(small_trace(4, 3), cfg);
    }

    #[test]
    fn warm_start_matches_cold_outcomes_on_healthy_pool() {
        let cold = sim(12, 10, 1).run();
        let mut cfg = PoolConfig::default_eval(10);
        cfg.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        let warm = PoolSimulator::new(small_trace(12, 1), cfg).run();
        assert_eq!(warm.metrics.tasks_total, cold.metrics.tasks_total);
        assert_eq!(warm.metrics.tasks_lost, 0, "warm path must place all cells");
        assert!(warm.metrics.miss_ratio() < 0.01);
        // Hysteresis suppresses in-band churn: warm migrations must not
        // exceed the cold path's, which re-decides every cell each epoch.
        assert!(
            warm.metrics.migrations <= cold.metrics.migrations,
            "warm churn {} vs cold {}",
            warm.metrics.migrations,
            cold.metrics.migrations
        );
    }

    #[test]
    fn warm_start_survives_failover() {
        let mut cfg = PoolConfig::default_eval(10);
        cfg.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        let mut s = PoolSimulator::new(small_trace(12, 3), cfg);
        s.inject_failure(FailureSpec {
            server: 0,
            at: Duration::from_secs(1800),
            recover_after: Some(Duration::from_secs(600)),
        });
        let report = s.run();
        assert_eq!(report.failovers.len(), 1);
        let f = &report.failovers[0];
        assert_eq!(f.displaced, f.replaced, "spares must absorb the failure");
    }

    // Satellite: zero counts must surface as typed errors at
    // construction, not divide-by-zero / empty-histogram panics mid-run.

    #[test]
    fn try_new_rejects_zero_servers() {
        let err = PoolSimulator::try_new(small_trace(4, 1), PoolConfig::default_eval(0));
        assert_eq!(err.err(), Some(PoolConfigError::NoServers));
    }

    #[test]
    fn try_new_rejects_empty_trace() {
        let trace = Trace {
            step_seconds: 60.0,
            samples: vec![],
            cells: vec![],
        };
        let err = PoolSimulator::try_new(trace, PoolConfig::default_eval(2));
        assert_eq!(err.err(), Some(PoolConfigError::NoCells));
    }

    #[test]
    fn try_new_rejects_degenerate_counts_and_values() {
        type Case = (Box<dyn Fn(&mut PoolConfig)>, PoolConfigError);
        let cases: Vec<Case> = vec![
            (
                Box::new(|c: &mut PoolConfig| {
                    c.parallel = Some(ParallelConfig {
                        cores: 0,
                        batch: 1,
                        steal: false,
                    })
                }),
                PoolConfigError::ParallelZeroCores,
            ),
            (
                Box::new(|c: &mut PoolConfig| c.epoch_steps = 0),
                PoolConfigError::NoEpochSteps,
            ),
            (
                Box::new(|c: &mut PoolConfig| c.ttis_per_step = 0),
                PoolConfigError::NoTtisPerStep,
            ),
            (
                Box::new(|c: &mut PoolConfig| c.server_capacity_gops = 0.0),
                PoolConfigError::BadCapacity(0.0),
            ),
            (
                Box::new(|c: &mut PoolConfig| c.server_capacity_gops = f64::NAN),
                PoolConfigError::BadCapacity(f64::NAN),
            ),
            (
                Box::new(|c: &mut PoolConfig| c.headroom = 0.0),
                PoolConfigError::BadHeadroom(0.0),
            ),
            (
                Box::new(|c: &mut PoolConfig| {
                    c.parallel = Some(ParallelConfig {
                        cores: 1,
                        batch: 0,
                        steal: false,
                    })
                }),
                PoolConfigError::ParallelNoBatch,
            ),
            (
                Box::new(|c: &mut PoolConfig| {
                    c.warm = Some(pran_sched::placement::WarmConfig { band: -1.0 })
                }),
                PoolConfigError::BadWarmBand(-1.0),
            ),
        ];
        for (mutate, expected) in cases {
            let mut cfg = PoolConfig::default_eval(2);
            mutate(&mut cfg);
            let got = PoolSimulator::try_new(small_trace(4, 1), cfg).err();
            // NaN != NaN, so compare debug strings for the NaN case.
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", Some(expected)),
                "mutation must be rejected"
            );
        }
    }

    #[test]
    fn try_new_rejects_a_step_that_is_not_a_positive_duration() {
        for step in [0.0, -120.0, f64::NAN, f64::INFINITY] {
            let mut trace = small_trace(4, 1);
            trace.step_seconds = step;
            let got = PoolSimulator::try_new(trace, PoolConfig::default_eval(2)).err();
            assert!(
                matches!(got, Some(PoolConfigError::BadStepSeconds(s)) if s.to_bits() == step.to_bits()),
                "step {step}: {got:?}"
            );
        }
        let err = PoolConfigError::BadStepSeconds(0.0);
        assert_eq!(
            err.to_string(),
            "trace step 0 s must be finite and positive"
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn new_panics_on_zero_servers() {
        PoolSimulator::new(small_trace(4, 1), PoolConfig::default_eval(0));
    }
}
