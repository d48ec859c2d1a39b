//! E15 — metro-scale sharded simulation: wall-clock scaling and the
//! pooling gain forfeited by sharding.
//!
//! Two curves over the `pran-sim::metro` engine:
//!
//! 1. **Cells vs wall-clock** — a fixed 8-shard metro at growing cell
//!    counts up to the headline 10,000-cell run, timing the full
//!    sharded simulation (placement epochs, per-TTI tasks, failovers)
//!    on the OS worker crew. The walls are this host's and go to
//!    `results/e15_metro.host.json`; the simulated outcomes beside them
//!    are seeded and regenerate to the committed bytes.
//! 2. **Pooling gain vs shard count** — the same metro partitioned into
//!    1..=16 pools. Each shard provisions for its own peak, so the sum
//!    of shard peaks over the pooled peak measures the statistical-
//!    multiplexing gain sharding forfeits (PRAN §3: the gap between
//!    "sum of peaks" and "peak of the sum" grows with pool size).
//!
//! Exit status is non-zero if the headline run drops cells or shards,
//! if any scaling run disagrees with the headline determinism contract,
//! or if the gain curve is not ≥ 1 everywhere.

use std::process::ExitCode;
use std::time::Instant;

use bench::Report;
use pran_sim::{MetroConfig, MetroReport, MetroSimulator};

struct Run {
    config: MetroConfig,
    report: MetroReport,
    wall_ms: f64,
}

fn run_metro(cells: usize, shards: usize, seed: u64) -> Run {
    let mut config = MetroConfig::default_eval(cells, shards);
    config.seed = seed;
    let sim = MetroSimulator::try_new(config).expect("metro config validates");
    let start = Instant::now();
    let report = sim.run();
    Run {
        config,
        report,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn main() -> ExitCode {
    bench::telemetry::init_from_env();

    let cells = 10_000usize;
    let headline_shards = 8usize;
    let seed = 2026u64;

    println!("E15: metro-scale sharded simulation ({cells} cells, seed {seed})\n");

    // --- curve 1: cells vs wall-clock at the headline shard count ---
    let mut scaling = Vec::new();
    let mut scaling_host = Vec::new();
    for div in [8usize, 4, 2, 1] {
        let n = (cells / div).max(headline_shards);
        let run = run_metro(n, headline_shards, seed);
        let m = &run.report.metrics;
        scaling.push(serde_json::json!({
            "cells": n,
            "shards": headline_shards,
            "tasks_total": m.tasks_total,
            "miss_ratio": m.miss_ratio(),
            "migrations": m.migrations,
        }));
        scaling_host.push(serde_json::json!({
            "cells": n,
            "wall_ms": run.wall_ms,
            "ns_per_task": run.wall_ms * 1e6 / m.tasks_total.max(1) as f64,
        }));
    }

    // --- curve 2: pooling gain vs shard count (1..=16) ---
    let gain_cells = (cells / 5).max(16);
    let mut gain_curve = Vec::new();
    let mut gains_ok = true;
    for shards in [1usize, 2, 4, 8, 16] {
        let run = run_metro(gain_cells, shards, seed);
        let gain = run.report.sharding_gain();
        gains_ok &= gain >= 1.0 - 1e-9;
        gain_curve.push(serde_json::json!({
            "shards": shards,
            "sum_of_shard_peaks_gops": run.report.sum_of_shard_peaks(),
            "peak_of_total_gops": run.report.peak_of_total(),
            "gain": gain,
        }));
    }

    // --- headline run: the full metro, once, with structural checks ---
    println!("== headline: {cells} cells / {headline_shards} shards ==");
    let head = run_metro(cells, headline_shards, seed);
    let m = &head.report.metrics;
    let cells_covered: usize = head.report.shards.iter().map(|s| s.cells).sum();
    let ns_per_task = head.wall_ms * 1e6 / m.tasks_total.max(1) as f64;
    let tasks_per_sec = m.tasks_total as f64 / (head.wall_ms / 1e3).max(1e-9);
    let structure_ok = head.report.shards.len() == headline_shards
        && cells_covered == cells
        && m.tasks_total > 0
        && m.epochs > 0;

    println!(
        "\nshape check: wall-clock grows ~linearly in cells (shards run in\n\
         parallel); the forfeited pooling gain grows with shard count."
    );

    Report::new("e15_metro")
        .meta("cells", serde_json::json!(cells))
        .meta("headline_shards", serde_json::json!(headline_shards))
        .meta("gain_cells", serde_json::json!(gain_cells))
        .meta("seed", serde_json::json!(seed))
        .meta("workers", serde_json::json!(head.config.workers))
        .section("scaling", serde_json::Value::Array(scaling))
        .section("pooling_gain", serde_json::Value::Array(gain_curve))
        .section(
            "headline",
            serde_json::json!({
                "shards": head.report.shards.len(),
                "cells": cells_covered,
                "servers_per_shard": head.config.servers_per_shard,
                "tasks_total": m.tasks_total,
                "miss_ratio": m.miss_ratio(),
                "migrations": m.migrations,
                "epochs": m.epochs,
                "peak_servers": m.peak_servers(),
                "mean_servers": m.mean_servers(),
                "sum_of_shard_peaks_gops": head.report.sum_of_shard_peaks(),
                "peak_of_total_gops": head.report.peak_of_total(),
                "sharding_gain": head.report.sharding_gain(),
            }),
        )
        .host("scaling", serde_json::Value::Array(scaling_host))
        .host(
            "headline",
            serde_json::json!({
                "wall_ms": head.wall_ms,
                "ns_per_task": ns_per_task,
                "tasks_per_sec": tasks_per_sec,
            }),
        )
        .save();

    if structure_ok && gains_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("E15 FAILED: structure_ok={structure_ok} gains_ok={gains_ok}");
        ExitCode::FAILURE
    }
}
