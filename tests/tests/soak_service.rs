//! Integration tests for the live observability plane (ISSUE 7
//! tentpole): the resident soak service, its flight recorder, and the
//! scrape endpoint — all checked against the batch simulator as the
//! source of truth.

use std::time::Duration;

use pran_fronthaul::fault::FaultConfig;
use pran_insight::SloPolicy;
use pran_obs::{http_get, RecorderDump, SloDoc, SoakConfig, SoakRunner, TopkDoc};
use pran_phy::FunctionalSplit;
use pran_sched::placement::WarmConfig;
use pran_sim::{
    LinkFault, MetroConfig, MetroSimulator, PoolAccel, PoolConfig, ResidentMetro, SplitPlan,
};
use pran_traces::TraceConfig;

const CELLS: usize = 24;
const SHARDS: usize = 2;
const SEED: u64 = 77;

fn resident(workers: usize) -> ResidentMetro {
    let mut config = MetroConfig::default_eval(CELLS, SHARDS);
    config.seed = SEED;
    config.workers = workers;
    ResidentMetro::try_new(config).expect("config validates")
}

fn runner(workers: usize, capacity: usize) -> SoakRunner {
    SoakRunner::new(
        resident(workers),
        SoakConfig {
            recorder_capacity: capacity,
            dump_dir: None,
            dump_prefix: "itest".to_string(),
            ..SoakConfig::default()
        },
    )
}

/// Resident cumulative metrics over N epochs must equal a batch
/// `MetroSimulator::run` over the identical workload, byte for byte —
/// same streams, same placement decisions, same execution.
fn assert_resident_equals_batch(config: MetroConfig, pool: PoolConfig, mut trace: TraceConfig) {
    let epochs = 6u64;
    let mut service =
        ResidentMetro::with_pool(config, pool.clone(), trace.clone()).expect("resident validates");
    for _ in 0..epochs {
        service.step_epoch();
    }

    trace.duration_seconds = epochs as f64 * pool.epoch_steps as f64 * trace.step_seconds;
    let batch = MetroSimulator::with_pool(config, pool, trace).expect("batch validates");
    let report = batch.run();

    assert_eq!(service.cumulative(), &report.metrics);
    assert!(report.metrics.tasks_total > 0);
}

#[test]
fn resident_cumulative_equals_batch_metro() {
    // The evaluation defaults (what `ResidentMetro::try_new` builds).
    let mut config = MetroConfig::default_eval(CELLS, SHARDS);
    config.seed = SEED;
    let mut pool = PoolConfig::default_eval(config.servers_per_shard);
    pool.warm = Some(WarmConfig::default_eval());
    pool.slo = Some(SloPolicy::default_eval());
    assert_resident_equals_batch(config, pool, TraceConfig::default_day(CELLS, SEED));

    // The hard input: uneven shards, lossy jittery links, per-cell splits,
    // accelerated servers and cold placement — where per-shard seed and
    // plan-slice derivation and the cold repack (which, unlike the warm
    // placer, reads the previous epoch's placement) could diverge.
    let cells = 25;
    let mut config = MetroConfig::default_eval(cells, 3);
    config.seed = SEED;
    let mut pool = PoolConfig::default_eval(config.servers_per_shard);
    pool.fronthaul = Some(LinkFault {
        config: FaultConfig {
            drop_prob: 0.01,
            max_jitter: Duration::from_micros(800),
            ..FaultConfig::clean()
        },
        seed: 5,
    });
    pool.split_plan =
        SplitPlan::PerCell((0..cells).map(|c| FunctionalSplit::all()[c % 3]).collect());
    pool.accel = Some(PoolAccel::default_eval());
    assert_eq!(pool.warm, None, "the cold path is the one under test");
    assert_resident_equals_batch(config, pool, TraceConfig::default_day(cells, SEED));
}

/// Capacity K fed K+7 epochs dumps exactly the last K, in epoch order.
#[test]
fn recorder_wraparound_keeps_exactly_last_k() {
    let k = 5usize;
    let mut r = runner(1, k);
    let total = k as u64 + 7;
    for _ in 0..total {
        r.run_epoch();
    }
    let doc = RecorderDump::new(r.recorder(), "test", total - 1);
    assert_eq!(doc.check(), Ok(()));
    let epochs: Vec<u64> = doc.records.iter().map(|rec| rec.epoch).collect();
    let want: Vec<u64> = (total - k as u64..total).collect();
    assert_eq!(epochs, want, "dump must hold exactly the last {k} epochs");
}

/// The dump is a pure function of the simulation: 1 worker and 8 workers
/// must produce byte-identical dump documents.
#[test]
fn recorder_dumps_are_byte_identical_across_worker_counts() {
    let mut one = runner(1, 8);
    let mut eight = runner(8, 8);
    for _ in 0..12 {
        one.run_epoch();
        eight.run_epoch();
    }
    let dump = |r: &SoakRunner| {
        serde_json::to_string_pretty(&RecorderDump::new(r.recorder(), "workers", 11)).unwrap()
    };
    let (a, b) = (dump(&one), dump(&eight));
    assert_eq!(a, b, "dumps must not depend on the worker count");
}

/// The scrape endpoint serves `# EOF`-terminated OpenMetrics and the
/// epoch counter advances between scrapes.
#[test]
fn scrape_endpoint_serves_openmetrics_with_advancing_epochs() {
    let mut r = runner(1, 16);
    let addr = r.serve("127.0.0.1:0").expect("ephemeral bind");
    r.run_epoch();
    let (code, first) = http_get(addr, "/metrics").expect("scrape 1");
    assert_eq!(code, 200);
    assert!(first.ends_with("# EOF\n"), "{first}");
    assert!(first.contains("soak_epochs_total 1"), "{first}");

    r.run_epoch();
    r.run_epoch();
    let (_, second) = http_get(addr, "/metrics").expect("scrape 2");
    assert!(second.contains("soak_epochs_total 3"), "{second}");

    let (code, health) = http_get(addr, "/healthz").expect("healthz");
    assert_eq!(code, 200);
    assert!(health.contains("epoch 3"), "{health}");
}

/// Every key path of a JSON document, through nested objects.
fn key_paths(doc: &serde_json::Value, prefix: &str, out: &mut Vec<String>) {
    if let Some(map) = doc.as_object() {
        for (key, child) in map.iter() {
            let path = format!("{prefix}.{key}");
            key_paths(child, &path, out);
            out.push(path);
        }
    }
    out.sort();
}

/// `GET path` as the key paths of its JSON body, which must read back as
/// the route's type and pass its check.
fn served_keys(addr: std::net::SocketAddr, path: &str) -> Vec<String> {
    let (code, body) = http_get(addr, path).expect("scrape");
    assert_eq!(code, 200, "{path}");
    let checked = match path {
        "/recorder" => serde_json::from_str::<RecorderDump>(&body).map(|d| d.check()),
        "/slo" => serde_json::from_str::<SloDoc>(&body).map(|d| d.check()),
        _ => serde_json::from_str::<TopkDoc>(&body).map(|d| d.check()),
    };
    assert_eq!(checked.expect("reads as its type"), Ok(()), "{path}");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("JSON body");
    let mut keys = Vec::new();
    key_paths(&doc, "", &mut keys);
    keys
}

/// A route serves one shape: what a scraper that races the first epoch
/// gets is its type, with every key of what it gets after one, and
/// `/topk` is the same with live insight off.
#[test]
fn placeholders_have_the_published_documents_keys() {
    let mut live = SoakRunner::new(
        resident(1),
        SoakConfig {
            live_insight: true,
            ..SoakConfig::default()
        },
    );
    let mut quiet = runner(1, 4);
    let live_addr = live.serve("127.0.0.1:0").expect("bind");
    let quiet_addr = quiet.serve("127.0.0.1:0").expect("bind");
    let routes = ["/recorder", "/slo", "/topk"];
    let before: Vec<_> = routes.iter().map(|p| served_keys(live_addr, p)).collect();
    let quiet_before = served_keys(quiet_addr, "/topk");
    live.run_epoch();
    quiet.run_epoch();
    for (path, before) in routes.iter().zip(before) {
        assert_eq!(before, served_keys(live_addr, path), "{path}");
    }
    let topk = served_keys(live_addr, "/topk");
    assert_eq!(
        quiet_before, topk,
        "/topk before an epoch, live insight off"
    );
    assert_eq!(
        served_keys(quiet_addr, "/topk"),
        topk,
        "/topk, live insight off"
    );
}

/// A forced SLO alert cuts a dump file whose last record matches the
/// registry gauges for the same epoch.
#[test]
fn forced_alert_dump_file_matches_registry() {
    let dir = std::env::temp_dir().join(format!("pran_soak_test_{}", std::process::id()));
    let mut r = SoakRunner::new(
        resident(1),
        SoakConfig {
            recorder_capacity: 16,
            dump_dir: Some(dir.clone()),
            dump_prefix: "forced".to_string(),
            ..SoakConfig::default()
        },
    );
    r.run_epoch();
    let all = r.metro().config().servers_per_shard;
    r.metro_mut().kill_servers(0, all);
    let out = r.run_epoch();
    let path = out.dumped.expect("killing a shard must dump");
    assert!(
        !out.status.alerts.is_empty(),
        "the dump must ride an SLO alert"
    );

    let text = std::fs::read_to_string(&path).expect("dump file exists");
    let doc: RecorderDump = serde_json::from_str(&text).expect("dump reads");
    assert_eq!(doc.check(), Ok(()));
    let last = doc.records.last().expect("dump holds records");

    let snap = r.registry().snapshot();
    let gauge = |name: &str| -> f64 {
        snap.instruments
            .iter()
            .find_map(|i| match &i.value {
                pran_telemetry::metrics::InstrumentValue::Gauge(g) if i.name == name => Some(*g),
                _ => None,
            })
            .unwrap_or_else(|| panic!("gauge {name} missing"))
    };
    for (field, value, metric) in [
        ("epoch", last.epoch as f64, "soak.epoch"),
        ("miss_ratio", last.miss_ratio, "soak.miss_ratio"),
        ("utilization", last.utilization, "soak.utilization"),
        (
            "alive_servers",
            last.alive_servers as f64,
            "soak.alive_servers",
        ),
        ("unplaced", last.unplaced as f64, "soak.unplaced"),
    ] {
        assert_eq!(
            value,
            gauge(metric),
            "dump field {field} must match registry gauge {metric}"
        );
    }

    // The published /recorder document agrees with the on-disk dump's
    // records (reason differs: scrape vs slo-alert).
    let addr = r.serve("127.0.0.1:0").expect("bind");
    // Re-publish by stepping once more; recorder gained one record.
    r.run_epoch();
    let (code, body) = http_get(addr, "/recorder").expect("recorder route");
    assert_eq!(code, 200);
    let live: RecorderDump = serde_json::from_str(&body).expect("recorder json");
    assert_eq!(live.check(), Ok(()));
    assert_eq!(live.records[..doc.records.len()], doc.records);

    let _ = std::fs::remove_dir_all(&dir);
}
