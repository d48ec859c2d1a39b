//! E16 — the live observability plane under load: resident soak
//! throughput, scrape latency, self-profiled epoch phases, measured
//! telemetry overhead, and an alert-triggered flight-recorder dump.
//!
//! Five phases:
//!
//! 1. **Sustained** — a metro-scale [`SoakRunner`] (scrape endpoint
//!    attached, flight recorder armed) steps N epochs at full speed
//!    against streamed traces; a batch [`MetroSimulator`] run over the
//!    *identical* workload provides both the throughput reference and a
//!    hard differential check: the resident cumulative metrics must equal
//!    the batch metrics exactly.
//! 2. **Scrape** — `GET /metrics` latency over the populated registry
//!    (served from the immutable published snapshot), plus `# EOF`
//!    conformance.
//! 3. **Phases** — where an epoch's wall time goes
//!    (ingest/dispatch/execute/merge/telemetry), from the soak's own
//!    phase profiler.
//! 4. **Overhead** — the same resident workload with the observability
//!    plane attached vs bare metro stepping; the measured
//!    `telemetry_overhead_pct` (signed, minimum of nine alternating
//!    rounds) is reported, not gated: a wall-clock ceiling within host
//!    noise stopped the sweep once per PR. Also walls by
//!    `PRAN_TELEMETRY` level (off/sim/full).
//! 5. **Alert** — servers of shard 0 are killed mid-soak; the SLO alert
//!    must cut a `pran-recorder/1` dump whose last record matches the
//!    scraped registry gauges exactly.
//!
//! Every wall-clock reading (throughput, scrape latency and payload,
//! phase timers, the overhead arm) goes to `results/e16_soak.host.json`;
//! `results/e16_soak.json` keeps what the seeded run repeats.
//!
//! Exit status is non-zero if the differential check fails, the scrape
//! is not `# EOF`-terminated, no alert/dump fires, or the dump disagrees
//! with the registry.

use std::process::ExitCode;
use std::time::Instant;

use bench::Report;
use pran_obs::{http_get, Phase, RecorderDump, SoakConfig, SoakRunner};
use pran_sim::{MetroConfig, MetroSimulator, ResidentMetro};
use pran_traces::TraceConfig;

fn resident(cells: usize, shards: usize, seed: u64) -> ResidentMetro {
    let mut config = MetroConfig::default_eval(cells, shards);
    config.seed = seed;
    ResidentMetro::try_new(config).expect("metro config validates")
}

/// Step a bare resident metro `epochs` times, calling `after_epoch`
/// after each, returning wall seconds.
fn bare_wall(
    cells: usize,
    shards: usize,
    seed: u64,
    epochs: u64,
    mut after_epoch: impl FnMut(),
) -> f64 {
    let mut metro = resident(cells, shards, seed);
    let start = Instant::now();
    for _ in 0..epochs {
        metro.step_epoch();
        after_epoch();
    }
    start.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    let applied = bench::telemetry::init_from_env();

    let cells = 10_000usize;
    let shards = 8usize;
    let epochs = 40u64;
    let seed = 2026u64;

    println!("E16: live observability plane ({cells} cells / {shards} shards, {epochs} epochs)\n");

    // --- phase 1: sustained resident throughput, endpoint attached ---
    println!("== sustained: resident soak at full speed, /metrics attached ==");
    let mut runner = SoakRunner::new(
        resident(cells, shards, seed),
        SoakConfig {
            recorder_capacity: 256,
            dump_dir: None,
            dump_prefix: "e16".to_string(),
            ..SoakConfig::default()
        },
    );
    let addr = runner.serve("127.0.0.1:0").expect("bind ephemeral port");
    let start = Instant::now();
    let mut midrun_eof = false;
    for e in 0..epochs {
        runner.run_epoch();
        if e == epochs / 2 {
            // Prove the endpoint serves while the soak is under load.
            if let Ok((200, body)) = http_get(addr, "/metrics") {
                midrun_eof = body.ends_with("# EOF\n");
            }
        }
    }
    let soak_wall = start.elapsed().as_secs_f64();
    let cum = runner.metro().cumulative().clone();
    let tasks_per_sec = cum.tasks_total as f64 / soak_wall.max(1e-9);

    // The batch reference over the identical workload: same pool config
    // (metro defaults + warm), same per-shard streams, duration clipped
    // to exactly `epochs` epochs.
    let mut config = MetroConfig::default_eval(cells, shards);
    config.seed = seed;
    let mut pool = pran_sim::PoolConfig::default_eval(config.servers_per_shard.max(1));
    pool.warm = Some(pran_sched::placement::WarmConfig::default_eval());
    pool.slo = Some(pran_insight::SloPolicy::default_eval());
    let mut trace = TraceConfig::default_day(cells.max(1), seed);
    trace.duration_seconds = epochs as f64 * pool.epoch_steps as f64 * trace.step_seconds;
    let batch = MetroSimulator::with_pool(config, pool, trace).expect("batch config validates");
    let batch_start = Instant::now();
    let batch_report = batch.run();
    let batch_wall = batch_start.elapsed().as_secs_f64();
    let batch_tasks_per_sec = batch_report.metrics.tasks_total as f64 / batch_wall.max(1e-9);
    let differential_ok = cum == batch_report.metrics;
    let resident_vs_batch = tasks_per_sec / batch_tasks_per_sec.max(1e-9);

    println!(
        "differential (resident cum == batch metrics): {differential_ok}; \
         resident/batch throughput ratio {resident_vs_batch:.3}; \
         mid-run scrape EOF-terminated: {midrun_eof}"
    );

    // --- phase 2: scrape latency over the populated registry ---
    println!("\n== scrape: GET /metrics latency ==");
    let scrapes = 50usize;
    let mut scrape_us = Vec::with_capacity(scrapes);
    let mut metrics_bytes = 0usize;
    let mut eof_ok = midrun_eof;
    for _ in 0..scrapes {
        let t0 = Instant::now();
        let (code, body) = http_get(addr, "/metrics").expect("scrape");
        scrape_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(code, 200);
        metrics_bytes = body.len();
        eof_ok &= body.ends_with("# EOF\n");
    }
    let scrape_mean_us = scrape_us.iter().sum::<f64>() / scrapes as f64;
    let scrape_max_us = scrape_us.iter().fold(0.0f64, |a, &b| a.max(b));

    // --- phase 3: self-profiled epoch phases (where an epoch's wall
    // time goes; saved as the `phases` host section) ---
    let total_us = runner.profiler().total_us().max(1);
    let phase_rows: Vec<serde_json::Value> = Phase::ALL
        .into_iter()
        .map(|phase| {
            let h = runner.profiler().histogram(phase);
            serde_json::json!({
                "phase": phase.name(),
                "wall_p50_us": h.quantile(0.50).as_micros() as u64,
                "wall_p99_us": h.quantile(0.99).as_micros() as u64,
                "wall_share_pct": 100.0 * h.sum().as_micros() as f64 / total_us as f64,
            })
        })
        .collect();

    // --- phase 4: measured observability overhead ---
    println!("\n== overhead: observability plane on vs off ==");
    let (o_cells, o_shards, o_epochs) = (cells / 5, shards.min(4), epochs.min(24));
    // Nine alternating rounds, minimum of each side: the two walls are
    // tens of milliseconds, and on a shared host one sample of either
    // moves by more than the plane costs. Signed: a negative reading
    // says the difference is below what this arm resolves, and must
    // not read as a measured zero.
    let obs_wall = || {
        let mut obs_runner = SoakRunner::new(
            resident(o_cells, o_shards, seed),
            SoakConfig {
                recorder_capacity: 256,
                dump_dir: None,
                dump_prefix: "e16".to_string(),
                ..SoakConfig::default()
            },
        );
        let obs_addr = obs_runner
            .serve("127.0.0.1:0")
            .expect("bind ephemeral port");
        let t0 = Instant::now();
        for _ in 0..o_epochs {
            obs_runner.run_epoch();
        }
        let wall = t0.elapsed().as_secs_f64();
        let _ = http_get(obs_addr, "/healthz");
        wall
    };
    let _ = bare_wall(o_cells, o_shards, seed, 2, || {});
    let (mut wall_bare, mut wall_obs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..9 {
        wall_bare = wall_bare.min(bare_wall(o_cells, o_shards, seed, o_epochs, || {}));
        wall_obs = wall_obs.min(obs_wall());
    }
    let telemetry_overhead_pct = 100.0 * (wall_obs - wall_bare) / wall_bare.max(1e-9);
    println!(
        "{o_cells} cells / {o_shards} shards / {o_epochs} epochs: \
         bare {:.0} ms, with obs {:.0} ms -> overhead {telemetry_overhead_pct:.2}%",
        wall_bare * 1e3,
        wall_obs * 1e3
    );
    // Trace-level overhead by PRAN_TELEMETRY setting.
    // Each epoch's events are drained, as an exporter of a resident
    // trace must: left in the sink, the arm's two million 512-byte
    // records grow it to 1 GB, and whichever level ran first paid to
    // fault that in (`sim` once read 6.8 s beside `full`'s 1.7 s for
    // that reason alone).
    let mut level_rows = Vec::new();
    for (level, cfg) in [
        ("off", pran_telemetry::TelemetryConfig::disabled()),
        ("sim", pran_telemetry::TelemetryConfig::sim()),
        ("full", pran_telemetry::TelemetryConfig::full()),
    ] {
        pran_telemetry::configure(cfg);
        let wall = bare_wall(o_cells, o_shards, seed, o_epochs, || {
            std::hint::black_box(pran_telemetry::trace::drain());
        });
        println!("PRAN_TELEMETRY={level}: {:.0} ms", wall * 1e3);
        level_rows.push(serde_json::json!({
            "level": level,
            "wall_ms": wall * 1e3,
        }));
    }
    pran_telemetry::configure(applied);

    // --- phase 5: forced alert -> flight-recorder dump ---
    println!("\n== alert: forced degradation cuts a recorder dump ==");
    let mut alert_runner = SoakRunner::new(
        resident(64, 2, seed),
        SoakConfig {
            recorder_capacity: 32,
            dump_dir: Some("results".into()),
            dump_prefix: "e16_soak".to_string(),
            ..SoakConfig::default()
        },
    );
    let fail_epoch = 3u64;
    let mut dump_path = None;
    let mut alert_epoch = None;
    for e in 0..8u64 {
        if e == fail_epoch {
            let all = alert_runner.metro().config().servers_per_shard;
            let killed = alert_runner.metro_mut().kill_servers(0, all);
            println!("epoch {e}: killed {killed} server(s) in shard 0");
        }
        let out = alert_runner.run_epoch();
        if let Some(p) = out.dumped {
            alert_epoch = Some(out.status.record.epoch);
            dump_path = Some(p);
            // Stop at the dump so the registry still shows the dumped
            // epoch — the match below compares the two.
            break;
        }
    }
    let mut dump_ok = false;
    let mut dump_records = 0usize;
    let mut dump_matches_registry = false;
    match &dump_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).expect("read dump");
            let doc: RecorderDump = serde_json::from_str(&text).expect("dump reads");
            match doc.check() {
                Ok(()) => {
                    dump_records = doc.records.len();
                    dump_ok = true;
                }
                Err(e) => eprintln!("dump schema invalid: {e}"),
            }
            // The dump's last record must agree with the scraped registry:
            // both describe the epoch the alert fired in.
            let snap = alert_runner.registry().snapshot();
            let gauge = |name: &str| -> Option<f64> {
                snap.instruments.iter().find_map(|i| match &i.value {
                    pran_telemetry::metrics::InstrumentValue::Gauge(g) if i.name == name => {
                        Some(*g)
                    }
                    _ => None,
                })
            };
            if let Some(last) = doc.records.last() {
                dump_matches_registry = [
                    (last.epoch as f64, "soak.epoch"),
                    (last.miss_ratio, "soak.miss_ratio"),
                    (last.cum_miss_ratio, "soak.cum_miss_ratio"),
                    (last.utilization, "soak.utilization"),
                    (last.alive_servers as f64, "soak.alive_servers"),
                    (last.unplaced as f64, "soak.unplaced"),
                ]
                .iter()
                .all(|&(value, gauge_name)| gauge(gauge_name) == Some(value));
            }
            println!(
                "dump {} -> {} record(s), schema ok: {dump_ok}, matches registry: {dump_matches_registry}",
                path.display(),
                dump_records
            );
        }
        None => eprintln!("no recorder dump was cut"),
    }

    Report::new("e16_soak")
        .meta("cells", serde_json::json!(cells))
        .meta("shards", serde_json::json!(shards))
        .meta("epochs", serde_json::json!(epochs))
        .meta("seed", serde_json::json!(seed))
        .meta("overhead_cells", serde_json::json!(o_cells))
        .meta("overhead_epochs", serde_json::json!(o_epochs))
        .section(
            "sustained",
            serde_json::json!({
                "epochs": cum.epochs,
                "tasks_total": cum.tasks_total,
                "miss_ratio": cum.miss_ratio(),
                "differential_ok": differential_ok,
            }),
        )
        .section(
            "scrape",
            serde_json::json!({
                "scrapes": scrapes,
                "eof_ok": eof_ok,
            }),
        )
        .section(
            "alert",
            serde_json::json!({
                "fail_epoch": fail_epoch,
                "alert_epoch": alert_epoch,
                "dump_records": dump_records,
                "dump_schema_ok": dump_ok,
                "dump_matches_registry": dump_matches_registry,
            }),
        )
        .host(
            "sustained",
            serde_json::json!({
                "wall_s": soak_wall,
                "batch_wall_s": batch_wall,
                "tasks_per_sec": tasks_per_sec,
                "batch_wall_tasks_per_sec": batch_tasks_per_sec,
                "resident_vs_batch_wall_ratio": resident_vs_batch,
            }),
        )
        .host(
            "scrape",
            serde_json::json!({
                "scrape_latency_mean_us": scrape_mean_us,
                "scrape_latency_max_us": scrape_max_us,
                // Varies with the digits of the phase timers it renders.
                "scrape_payload_bytes": metrics_bytes,
            }),
        )
        .host("phases", serde_json::Value::Array(phase_rows))
        .host(
            "overhead",
            serde_json::json!({
                "bare_wall_ms": wall_bare * 1e3,
                "obs_wall_ms": wall_obs * 1e3,
                "telemetry_overhead_pct": telemetry_overhead_pct,
                "by_level": level_rows,
            }),
        )
        .save();

    let ok = differential_ok && eof_ok && dump_ok && dump_matches_registry;
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "E16 FAILED: differential_ok={differential_ok} eof_ok={eof_ok} \
             dump_ok={dump_ok} dump_matches_registry={dump_matches_registry}"
        );
        ExitCode::FAILURE
    }
}
