//! The soak runner: a resident metro wired into the observability plane.
//!
//! [`SoakRunner`] owns one [`ResidentMetro`] plus the full observability
//! stack — a metrics [`Registry`], a [`FlightRecorder`] of
//! [`EpochRecord`]s, a [`PhaseProfiler`], and optionally an [`ObsServer`]
//! scrape endpoint. Each [`SoakRunner::run_epoch`]:
//!
//! 1. steps the metro one epoch (ingest/dispatch/execute/merge, timed by
//!    the service itself);
//! 2. pushes the epoch's deterministic record into the flight recorder
//!    (allocation-free);
//! 3. updates the registry (counters, per-epoch gauges, phase
//!    histograms) and publishes an immutable snapshot to the scrape
//!    endpoint;
//! 4. when the SLO monitor raised an alert — or a chaos-style safety
//!    violation rose — cuts a [`RecorderDump`] of the recorder ring and
//!    writes it to a JSON file so the incident's immediate history
//!    survives the soak.
//!
//! The whole step-3/4 block is timed as the *telemetry* phase, which is
//! what E16's `telemetry_overhead_pct` gate measures.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pran_insight::live::MetroFold;
use pran_sim::service::{EpochRecord, EpochStatus, ResidentMetro};
use pran_telemetry::trace::TraceEvent;
use pran_telemetry::Registry;

use crate::docs::{SloDoc, TopkDoc};
use crate::http::{ObsServer, Published};
use crate::phases::{Phase, PhaseProfiler};
use crate::recorder::{FlightRecorder, RecorderDump};

/// Soak-specific knobs (the metro shape lives in the [`ResidentMetro`]).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Flight-recorder ring capacity (last K epochs).
    pub recorder_capacity: usize,
    /// Where triggered recorder dumps are written (`None` = keep dumps
    /// in memory only, see [`SoakRunner::last_dump`]).
    pub dump_dir: Option<PathBuf>,
    /// Dump filename prefix: `{prefix}_recorder_e{epoch}.json`.
    pub dump_prefix: String,
    /// Arm the in-process live insight plane ([`pran_telemetry::live`]):
    /// every shard folds the subframes it executes into its own
    /// streaming attribution state, and the shards' folds side by side
    /// ([`MetroFold`]) feed the `/topk` endpoint and live gauges. The
    /// switch is process-global, so only one live-insight runner should
    /// exist at a time (the soak binary and E18 each run exactly one).
    pub live_insight: bool,
    /// Per-shard live ring capacity in events. Subframes never enter
    /// the ring; it carries the few control-plane events an epoch
    /// records (alerts, violations), drained every epoch, and counts a
    /// drop for each one past this bound.
    pub live_ring_capacity: usize,
}

/// How many worst cells / links / servers `/topk` reports.
const TOPK: usize = 10;

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            recorder_capacity: 256,
            dump_dir: None,
            dump_prefix: "soak".to_string(),
            live_insight: false,
            live_ring_capacity: 1 << 16,
        }
    }
}

/// What one soak epoch produced beyond the service's own status.
#[derive(Debug, Clone)]
pub struct SoakEpoch {
    /// The service's epoch status (record, alerts, phase timings).
    pub status: EpochStatus,
    /// Path of the recorder dump this epoch triggered, if any.
    pub dumped: Option<PathBuf>,
}

/// The runner's side of the armed live insight plane: the drain
/// scratch of the event rings (sized once, so the per-epoch drain is
/// allocation-free) and how many events have come through them.
struct LiveRings {
    scratch: Vec<TraceEvent>,
    events: u64,
}

/// A resident metro plus its observability plane.
pub struct SoakRunner {
    metro: ResidentMetro,
    cfg: SoakConfig,
    recorder: FlightRecorder<EpochRecord>,
    profiler: PhaseProfiler,
    registry: Registry,
    server: Option<ObsServer>,
    live: Option<LiveRings>,
    prev_violation: bool,
    prev_telemetry_ns: u64,
    /// The most recent triggered dump (document + path, path `None` when
    /// `dump_dir` is unset).
    last_dump: Option<(RecorderDump, Option<PathBuf>)>,
    dumps_written: u64,
}

impl SoakRunner {
    /// Wrap a resident metro in the observability plane. When
    /// [`SoakConfig::live_insight`] is set this arms the process-global
    /// live plane (disarmed again on drop).
    pub fn new(metro: ResidentMetro, cfg: SoakConfig) -> Self {
        let recorder = FlightRecorder::new(cfg.recorder_capacity);
        let live = cfg.live_insight.then(|| {
            pran_telemetry::live::arm(metro.shard_count(), cfg.live_ring_capacity);
            LiveRings {
                scratch: Vec::with_capacity(cfg.live_ring_capacity),
                events: 0,
            }
        });
        SoakRunner {
            metro,
            cfg,
            recorder,
            profiler: PhaseProfiler::new(),
            registry: Registry::new(),
            server: None,
            live,
            prev_violation: false,
            prev_telemetry_ns: 0,
            last_dump: None,
            dumps_written: 0,
        }
    }

    /// Attach a scrape endpoint bound at `addr` (port 0 for ephemeral).
    pub fn serve(&mut self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let server = ObsServer::bind(addr)?;
        let bound = server.addr();
        self.server = Some(server);
        Ok(bound)
    }

    /// The resident metro (for fault injection: `kill_servers`, …).
    pub fn metro_mut(&mut self) -> &mut ResidentMetro {
        &mut self.metro
    }

    /// The resident metro.
    pub fn metro(&self) -> &ResidentMetro {
        &self.metro
    }

    /// The soak's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder<EpochRecord> {
        &self.recorder
    }

    /// The phase profiler.
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// The most recent triggered dump document (and its file path when
    /// `dump_dir` was configured).
    pub fn last_dump(&self) -> Option<&(RecorderDump, Option<PathBuf>)> {
        self.last_dump.as_ref()
    }

    /// Triggered dumps so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps_written
    }

    /// The metro-wide live attribution view, when
    /// [`SoakConfig::live_insight`] is armed and an epoch has run.
    pub fn live_fold(&self) -> Option<MetroFold<'_>> {
        self.live.as_ref().and_then(|_| self.metro.live_fold())
    }

    /// Step one epoch through the full observability pipeline.
    pub fn run_epoch(&mut self) -> SoakEpoch {
        let status = self.metro.step_epoch();
        let telemetry_start = Instant::now();
        let rec = status.record;

        // Flight recorder: allocation-free ring push.
        self.recorder.push(rec);

        // Live insight: the shards folded their subframes as they
        // executed them, so nothing is left to do per task. Empty the
        // event rings (the workers have joined, so they are quiescent)
        // to keep their drop counter honest.
        if let Some(live) = self.live.as_mut() {
            for s in 0..self.metro.shard_count() {
                live.scratch.clear();
                live.events += pran_telemetry::live::drain_shard_into(s, &mut live.scratch) as u64;
            }
        }
        let live = self.live.as_ref().and_then(|rings| {
            let fold = self.metro.live_fold()?;
            Some((fold, rings.events))
        });

        // Phase profile: the service timed its own four phases; the
        // telemetry phase is timed around this whole block.
        self.profiler.record_ns(Phase::Ingest, status.ingest_ns);
        self.profiler.record_ns(Phase::Dispatch, status.dispatch_ns);
        self.profiler.record_ns(Phase::Execute, status.execute_ns);
        self.profiler.record_ns(Phase::Merge, status.merge_ns);

        // Registry: monotonic counters + per-epoch gauges.
        let r = &self.registry;
        r.inc("soak.epochs", &[], 1);
        r.inc("soak.tasks", &[], rec.tasks);
        r.inc("soak.misses", &[], rec.misses);
        r.inc("soak.lost", &[], rec.lost);
        r.inc("soak.reports_lost", &[], rec.reports_lost);
        r.inc("soak.alerts", &[], status.alerts.len() as u64);
        r.gauge("soak.epoch", &[], rec.epoch as f64);
        r.gauge("soak.miss_ratio", &[], rec.miss_ratio);
        r.gauge("soak.cum_miss_ratio", &[], rec.cum_miss_ratio);
        r.gauge("soak.utilization", &[], rec.utilization);
        r.gauge("soak.slack_p99_us", &[], rec.slack_p99_us as f64);
        r.gauge("soak.peak_queue_depth", &[], rec.peak_queue_depth as f64);
        r.gauge("soak.servers_used", &[], rec.servers_used as f64);
        r.gauge("soak.alive_servers", &[], rec.alive_servers as f64);
        r.gauge("soak.unplaced", &[], rec.unplaced as f64);
        r.gauge("soak.burn_fast", &[], rec.burn_fast);
        r.gauge("soak.burn_slow", &[], rec.burn_slow);
        r.gauge("soak.burn_severity", &[], rec.burn_severity as f64);
        if status.burn_alert.is_some() {
            r.inc("soak.burn_alerts", &[], 1);
        }
        if let Some((fold, ring_events)) = &live {
            r.gauge(
                "soak.live_events",
                &[],
                (fold.events() + ring_events) as f64,
            );
            r.gauge("soak.live_misses", &[], fold.misses() as f64);
            r.gauge(
                "soak.live_dropped",
                &[],
                pran_telemetry::live::dropped() as f64,
            );
        }
        let phase_ns = [
            ("ingest", status.ingest_ns),
            ("dispatch", status.dispatch_ns),
            ("execute", status.execute_ns),
            ("merge", status.merge_ns),
            // The telemetry phase is still running — publish the previous
            // epoch's measurement (one-epoch lag, zero on the first).
            ("telemetry", self.prev_telemetry_ns),
        ];
        for (name, ns) in phase_ns {
            r.observe(
                "soak.phase_wall",
                &[("phase", name)],
                std::time::Duration::from_nanos(ns),
            );
        }

        // Triggered dump: on any SLO alert, or on a rising safety
        // violation (level → edge so a sustained breach dumps once).
        let reason = if !status.alerts.is_empty() {
            Some("slo-alert")
        } else if rec.violation && !self.prev_violation {
            Some("violation")
        } else {
            None
        };
        self.prev_violation = rec.violation;
        let mut dumped = None;
        if let Some(reason) = reason {
            let doc = RecorderDump::new(&self.recorder, reason, rec.epoch);
            let path = self.cfg.dump_dir.as_ref().map(|dir| {
                dir.join(format!(
                    "{}_recorder_e{}.json",
                    self.cfg.dump_prefix, rec.epoch
                ))
            });
            if let Some(p) = &path {
                if let Some(parent) = p.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                let text = serde_json::to_string_pretty(&doc).expect("dump serializes");
                if std::fs::write(p, text).is_ok() {
                    self.dumps_written += 1;
                    dumped = Some(p.clone());
                }
            } else {
                self.dumps_written += 1;
            }
            r.inc("soak.recorder_dumps", &[], 1);
            self.last_dump = Some((doc, path));
        }

        // Publish: immutable snapshot swap; scrapers render off-thread.
        if let Some(server) = &self.server {
            let topk = match &live {
                Some((fold, ring_events)) => TopkDoc::new(
                    fold,
                    *ring_events,
                    pran_telemetry::live::dropped(),
                    rec.epoch,
                    TOPK,
                ),
                // Live insight off: serve the empty document rather than
                // dropping the route.
                None => TopkDoc::default(),
            };
            server.publish(Published {
                epoch: rec.epoch + 1,
                snapshot: Arc::new(r.snapshot()),
                recorder: Arc::new(RecorderDump::new(&self.recorder, "scrape", rec.epoch)),
                // No policy, nothing judged: serve the empty document,
                // as `/topk` does with live insight off.
                slo: Arc::new(match self.metro.policy() {
                    Some(policy) => SloDoc::new(&rec, policy),
                    None => SloDoc::default(),
                }),
                topk: Arc::new(topk),
            });
        }

        let telemetry_ns = telemetry_start.elapsed().as_nanos() as u64;
        self.profiler.record_ns(Phase::Telemetry, telemetry_ns);
        self.prev_telemetry_ns = telemetry_ns;

        SoakEpoch { status, dumped }
    }
}

impl Drop for SoakRunner {
    fn drop(&mut self) {
        // The live switch is process-global: disarm it when the runner
        // that armed it goes away, so shards stepped later stop folding.
        if self.live.is_some() {
            pran_telemetry::live::disarm();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_get;
    use pran_sim::{MetroConfig, ResidentMetro};

    fn small_runner() -> SoakRunner {
        let metro = ResidentMetro::try_new(MetroConfig::default_eval(16, 2)).unwrap();
        SoakRunner::new(
            metro,
            SoakConfig {
                recorder_capacity: 8,
                dump_dir: None,
                dump_prefix: "test".to_string(),
                ..SoakConfig::default()
            },
        )
    }

    #[test]
    fn epochs_flow_through_recorder_registry_and_endpoint() {
        let mut runner = small_runner();
        let addr = runner.serve("127.0.0.1:0").unwrap();
        for _ in 0..3 {
            runner.run_epoch();
        }
        assert_eq!(runner.recorder().len(), 3);
        let (code, metrics) = http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(metrics.contains("soak_epochs_total 3"), "{metrics}");
        assert!(metrics.contains("soak_phase_wall"), "{metrics}");
        assert!(metrics.ends_with("# EOF\n"));
        let (_, rec) = http_get(addr, "/recorder").unwrap();
        let doc: RecorderDump = serde_json::from_str(&rec).unwrap();
        assert_eq!(doc.check(), Ok(()));
        assert_eq!(doc.records.len(), 3);
    }

    #[test]
    fn forced_degradation_triggers_a_dump_matching_the_registry() {
        let mut runner = small_runner();
        runner.run_epoch();
        assert!(runner.last_dump().is_none());
        let servers = {
            let m = runner.metro();
            m.config().servers_per_shard
        };
        runner.metro_mut().kill_servers(0, servers);
        let epoch = runner.run_epoch();
        assert!(
            !epoch.status.alerts.is_empty() || epoch.status.record.violation,
            "killing a whole shard must alert"
        );
        let (doc, path) = runner.last_dump().expect("a dump must be cut");
        assert!(path.is_none(), "no dump_dir configured");
        assert_eq!(doc.check(), Ok(()));
        assert!(doc.records.len() >= 2);
        // The dump's last record is the epoch the registry currently shows.
        let last = doc.records.last().unwrap();
        let snap = runner.registry().snapshot();
        let gauge = |name: &str| -> f64 {
            snap.instruments
                .iter()
                .find_map(|i| match (&i.name, &i.value) {
                    (n, pran_telemetry::metrics::InstrumentValue::Gauge(g)) if n == name => {
                        Some(*g)
                    }
                    _ => None,
                })
                .unwrap_or_else(|| panic!("gauge {name} missing"))
        };
        assert_eq!(last.miss_ratio, gauge("soak.miss_ratio"));
        assert_eq!(last.epoch as f64, gauge("soak.epoch"));
        assert_eq!(last.alive_servers as f64, gauge("soak.alive_servers"));
    }

    #[test]
    fn slo_endpoint_tracks_burn_state_and_dumps_carry_it() {
        let mut runner = small_runner();
        let addr = runner.serve("127.0.0.1:0").unwrap();
        runner.run_epoch();
        // Healthy epoch: /slo serves the policy knobs and a quiet state.
        let (code, body) = http_get(addr, "/slo").unwrap();
        assert_eq!(code, 200);
        let doc: SloDoc = serde_json::from_str(&body).unwrap();
        assert_eq!(doc.check(), Ok(()));
        assert_eq!(doc.objective, 0.01);
        assert_eq!(doc.windows.fast_epochs, 5);
        assert_eq!(doc.windows.slow_epochs, 60);
        assert_eq!(doc.severity, "none");

        // Kill everything: the burn rate climbs and severity escalates.
        let servers = runner.metro().config().servers_per_shard;
        let shards = runner.metro().config().shards;
        for s in 0..shards {
            runner.metro_mut().kill_servers(s, servers);
        }
        let mut severity = String::new();
        for _ in 0..30 {
            runner.run_epoch();
            let (_, body) = http_get(addr, "/slo").unwrap();
            let doc: SloDoc = serde_json::from_str(&body).unwrap();
            severity = doc.severity;
            if severity != "none" {
                assert!(doc.burn_fast >= 2.0);
                break;
            }
        }
        assert_ne!(
            severity, "none",
            "sustained outage must raise burn severity"
        );

        // The triggered dump's records carry the burn state, so a
        // post-incident read of the flight recorder sees the burn ramp.
        let (doc, _) = runner.last_dump().expect("outage must have dumped");
        let last = doc.records.last().unwrap();
        assert!(last.burn_fast > 0.0);
    }

    #[test]
    fn live_insight_feeds_the_topk_endpoint() {
        // Arms the process-global live switch; another test's runner
        // dropping mid-way would disarm it, so every assertion here is a
        // lower bound or a schema check.
        //
        // Deadline misses need *executed-late* tasks (a dead server's
        // demand is lost, not late): 2 ms of fronthaul jitter against the
        // 2 ms compute budget makes a fraction of releases eat their whole
        // slack, which is exactly the fronthaul-stage blame `/topk` ranks.
        let mc = MetroConfig::default_eval(16, 2);
        let mut pool = pran_sim::PoolConfig::default_eval(mc.servers_per_shard);
        pool.fronthaul = Some(pran_sim::LinkFault {
            config: pran_fronthaul::fault::FaultConfig {
                max_jitter: std::time::Duration::from_millis(2),
                ..pran_fronthaul::fault::FaultConfig::clean()
            },
            seed: 5,
        });
        let trace = pran_traces::TraceConfig::default_day(mc.cells, mc.seed);
        let metro = ResidentMetro::with_pool(mc, pool, trace).unwrap();
        let mut runner = SoakRunner::new(
            metro,
            SoakConfig {
                recorder_capacity: 8,
                dump_dir: None,
                dump_prefix: "live".to_string(),
                live_insight: true,
                ..SoakConfig::default()
            },
        );
        let addr = runner.serve("127.0.0.1:0").unwrap();
        for _ in 0..3 {
            runner.run_epoch();
        }
        let fold = runner.live_fold().expect("live insight armed");
        assert!(fold.tasks() > 0, "live fold must have consumed subframes");
        assert!(fold.misses() > 0, "a killed shard must miss deadlines");

        let (code, body) = http_get(addr, "/topk").unwrap();
        assert_eq!(code, 200);
        let doc: TopkDoc = serde_json::from_str(&body).unwrap();
        assert_eq!(doc.check(), Ok(()));
        assert!(doc.tasks > 0);
        assert!(doc.misses > 0);
        let worst = doc.cells.first().expect("missed deadlines must rank cells");
        assert!(worst.blame_us > 0);
        assert!(worst.misses > 0);
        // Servers rank by sojourn p99 over *all* tasks, so the healthy
        // shard alone guarantees entries.
        assert!(!doc.servers.is_empty(), "folded tasks must rank servers");
        // Jitter is fronthaul-stage blame.
        assert!(doc.totals.fronthaul > 0);
        // This pool sets no SLO policy: `/slo` serves the empty document.
        let (_, body) = http_get(addr, "/slo").unwrap();
        assert_eq!(
            serde_json::from_str::<SloDoc>(&body).unwrap(),
            SloDoc::default()
        );
    }

    #[test]
    fn sustained_violation_dumps_once_on_the_rising_edge() {
        let mut runner = small_runner();
        let servers = runner.metro().config().servers_per_shard;
        let shards = runner.metro().config().shards;
        for s in 0..shards {
            runner.metro_mut().kill_servers(s, servers);
        }
        let mut dumps = 0;
        for _ in 0..5 {
            runner.run_epoch();
            dumps = runner.dumps_written();
        }
        // Alerts are edge-triggered and the violation edge fires once; a
        // 5-epoch sustained breach must not dump 5 times.
        assert!(dumps >= 1, "the breach must dump at least once");
        assert!(dumps <= 2, "sustained breach must not dump every epoch");
    }
}
