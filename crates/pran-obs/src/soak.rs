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
//!    violation rose — dumps the recorder ring to a JSON file so the
//!    incident's immediate history survives the soak.
//!
//! The whole step-3/4 block is timed as the *telemetry* phase, which is
//! what E16's `telemetry_overhead_pct` gate measures.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pran_insight::live::MetroFold;
use pran_insight::slo::SloPolicy;
use pran_sim::service::{EpochRecord, EpochStatus, ResidentMetro};
use pran_telemetry::trace::TraceEvent;
use pran_telemetry::Registry;
use serde::Serialize;

use crate::http::{ObsServer, Published};
use crate::phases::{Phase, PhaseProfiler};
use crate::recorder::FlightRecorder;

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
    /// How many worst cells / links / servers `/topk` reports.
    pub topk: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            recorder_capacity: 256,
            dump_dir: None,
            dump_prefix: "soak".to_string(),
            live_insight: false,
            live_ring_capacity: 1 << 16,
            topk: 10,
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
    last_dump: Option<(serde::Value, Option<PathBuf>)>,
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
    pub fn last_dump(&self) -> Option<&(serde::Value, Option<PathBuf>)> {
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
            let doc = self.recorder.dump(reason, rec.epoch);
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
                if std::fs::write(p, doc.to_json_string_pretty()).is_ok() {
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
                Some((fold, ring_events)) => {
                    Arc::new(build_topk_doc(fold, *ring_events, rec.epoch, self.cfg.topk))
                }
                // Live insight off: serve the valid empty document (epoch
                // 0, empty rankings) rather than dropping the route.
                None => Arc::clone(&Published::empty().topk),
            };
            server.publish(Published {
                epoch: rec.epoch + 1,
                snapshot: Arc::new(r.snapshot()),
                recorder: Arc::new(self.recorder.dump("scrape", rec.epoch)),
                slo: Arc::new(build_slo_doc(&rec, self.metro.policy())),
                topk,
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

/// Render the `/slo` document (`pran-slo/1`): the most recent epoch's
/// burn-rate state next to the policy knobs it was judged against.
fn build_slo_doc(rec: &EpochRecord, policy: &SloPolicy) -> serde::Value {
    let severity = match rec.burn_severity {
        2 => "page",
        1 => "ticket",
        _ => "none",
    };
    let mut windows = serde::Map::new();
    windows.insert(
        "fast_epochs".to_string(),
        policy.burn_fast_epochs.to_json_value(),
    );
    windows.insert(
        "slow_epochs".to_string(),
        policy.burn_slow_epochs.to_json_value(),
    );
    let mut factors = serde::Map::new();
    factors.insert("page".to_string(), policy.burn_page_factor.to_json_value());
    factors.insert(
        "ticket".to_string(),
        policy.burn_ticket_factor.to_json_value(),
    );
    let mut m = serde::Map::new();
    m.insert("schema".to_string(), "pran-slo/1".to_json_value());
    m.insert("epoch".to_string(), rec.epoch.to_json_value());
    m.insert(
        "objective".to_string(),
        policy.miss_ratio_max.to_json_value(),
    );
    m.insert("windows".to_string(), serde::Value::Object(windows));
    m.insert("factors".to_string(), serde::Value::Object(factors));
    m.insert("burn_fast".to_string(), rec.burn_fast.to_json_value());
    m.insert("burn_slow".to_string(), rec.burn_slow.to_json_value());
    m.insert("severity".to_string(), severity.to_json_value());
    m.insert("page".to_string(), (rec.burn_severity == 2).to_json_value());
    m.insert(
        "ticket".to_string(),
        (rec.burn_severity >= 1).to_json_value(),
    );
    m.insert("miss_ratio".to_string(), rec.miss_ratio.to_json_value());
    m.insert(
        "cum_miss_ratio".to_string(),
        rec.cum_miss_ratio.to_json_value(),
    );
    m.insert("violation".to_string(), rec.violation.to_json_value());
    serde::Value::Object(m)
}

/// Render the `/topk` document (`pran-topk/1`): worst-K cells by total
/// attributed blame, worst fronthaul links (fronthaul-stage blame per
/// cell), and slowest servers by sojourn p99, from the shards' folds.
///
/// `tasks` is every subframe a shard executed (the registry's
/// `soak.tasks − soak.lost`: the fold sits in the execute loop, so it
/// cannot miss one). `events` is every record the live plane consumed:
/// those tasks, the steals noted beside them, and the `ring_events`
/// drained from the control-plane event rings. `dropped` counts ring
/// overflows only — events past `live_ring_capacity` in one epoch;
/// subframes never enter a ring and cannot be dropped.
fn build_topk_doc(fold: &MetroFold<'_>, ring_events: u64, epoch: u64, k: usize) -> serde::Value {
    let entry = |keys: [&str; 3], t: (usize, u64, u64)| -> serde::Value {
        let mut m = serde::Map::new();
        m.insert(keys[0].to_string(), (t.0 as u64).to_json_value());
        m.insert(keys[1].to_string(), t.1.to_json_value());
        m.insert(keys[2].to_string(), t.2.to_json_value());
        serde::Value::Object(m)
    };
    let cells = fold
        .top_cells(k, None)
        .into_iter()
        .map(|t| entry(["cell", "blame_us", "misses"], t))
        .collect();
    let links = fold
        .top_cells(k, Some(0))
        .into_iter()
        .map(|t| entry(["cell", "fronthaul_us", "misses"], t))
        .collect();
    let servers = fold
        .top_servers(k)
        .into_iter()
        .map(|t| entry(["server", "p99_us", "tasks"], t))
        .collect();
    let mut totals = serde::Map::new();
    for (name, us) in fold.totals() {
        totals.insert(name.to_string(), us.to_json_value());
    }
    let mut m = serde::Map::new();
    m.insert("schema".to_string(), "pran-topk/1".to_json_value());
    m.insert("epoch".to_string(), epoch.to_json_value());
    m.insert("k".to_string(), (k as u64).to_json_value());
    m.insert("tasks".to_string(), fold.tasks().to_json_value());
    m.insert("misses".to_string(), fold.misses().to_json_value());
    m.insert(
        "events".to_string(),
        (fold.events() + ring_events).to_json_value(),
    );
    m.insert(
        "dropped".to_string(),
        pran_telemetry::live::dropped().to_json_value(),
    );
    m.insert("totals".to_string(), serde::Value::Object(totals));
    m.insert("cells".to_string(), serde::Value::Array(cells));
    m.insert("links".to_string(), serde::Value::Array(links));
    m.insert("servers".to_string(), serde::Value::Array(servers));
    serde::Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::http_get;
    use crate::recorder::validate_dump;
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
        let doc: serde::Value = serde_json::from_str(&rec).unwrap();
        assert_eq!(validate_dump(&doc), Ok(3));
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
        let n = validate_dump(doc).unwrap();
        assert!(n >= 2);
        // The dump's last record is the epoch the registry currently shows.
        let records = match &doc["records"] {
            serde::Value::Array(a) => a,
            _ => panic!("records array"),
        };
        let last = records.last().unwrap();
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
        assert_eq!(
            last["miss_ratio"].as_f64().unwrap(),
            gauge("soak.miss_ratio")
        );
        assert_eq!(last["epoch"].as_u64().unwrap() as f64, gauge("soak.epoch"));
        assert_eq!(
            last["alive_servers"].as_f64().unwrap(),
            gauge("soak.alive_servers")
        );
    }

    #[test]
    fn slo_endpoint_tracks_burn_state_and_dumps_carry_it() {
        let mut runner = small_runner();
        let addr = runner.serve("127.0.0.1:0").unwrap();
        runner.run_epoch();
        // Healthy epoch: /slo serves the policy knobs and a quiet state.
        let (code, body) = http_get(addr, "/slo").unwrap();
        assert_eq!(code, 200);
        let doc: serde::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(doc["schema"].as_str(), Some("pran-slo/1"));
        assert_eq!(doc["objective"].as_f64(), Some(0.01));
        let windows = &doc["windows"];
        assert_eq!(windows["fast_epochs"].as_u64(), Some(5));
        assert_eq!(windows["slow_epochs"].as_u64(), Some(60));
        assert_eq!(doc["severity"].as_str(), Some("none"));

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
            let doc: serde::Value = serde_json::from_str(&body).unwrap();
            severity = doc["severity"].as_str().unwrap().to_string();
            if severity != "none" {
                assert!(doc["burn_fast"].as_f64().unwrap() >= 2.0);
                break;
            }
        }
        assert_ne!(
            severity, "none",
            "sustained outage must raise burn severity"
        );

        // The triggered dump's records carry the burn state fields, so a
        // post-incident read of the flight recorder sees the burn ramp.
        let (doc, _) = runner.last_dump().expect("outage must have dumped");
        let records = match &doc["records"] {
            serde::Value::Array(a) => a,
            _ => panic!("records array"),
        };
        let last = records.last().unwrap();
        assert!(last["burn_fast"].as_f64().is_some());
        assert!(last["burn_slow"].as_f64().is_some());
        assert!(last["burn_severity"].as_u64().is_some());
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
        let doc: serde::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(doc["schema"].as_str(), Some("pran-topk/1"));
        assert!(doc["tasks"].as_u64().unwrap() > 0);
        assert!(doc["misses"].as_u64().unwrap() > 0);
        let cells = match &doc["cells"] {
            serde::Value::Array(a) => a,
            _ => panic!("cells array"),
        };
        assert!(!cells.is_empty(), "missed deadlines must rank cells");
        let worst = &cells[0];
        assert!(worst["blame_us"].as_u64().unwrap() > 0);
        assert!(worst["misses"].as_u64().unwrap() > 0);
        // Servers rank by sojourn p99 over *all* tasks, so the healthy
        // shard alone guarantees entries.
        let srv = match &doc["servers"] {
            serde::Value::Array(a) => a,
            _ => panic!("servers array"),
        };
        assert!(!srv.is_empty(), "folded tasks must rank servers");
        // Totals carry all four stages by name.
        let totals = &doc["totals"];
        for stage in ["fronthaul", "queue", "steal", "compute"] {
            assert!(totals[stage].as_u64().is_some(), "{stage}");
        }
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
