//! E4 / Fig 4 — statistical multiplexing gain of the compute pool.
//!
//! The paper's headline economic claim: a shared pool provisioned for the
//! *peak of the sum* needs far fewer servers than per-cell hardware sized
//! for the *sum of the peaks*, and the saving grows with pool size. This
//! binary sweeps deployment sizes, dimensions both strategies over 24-hour
//! traces, and reports savings (expected band: ~30–60 % at city scale).

use bench::Report;
use pran_sched::placement::dimensioning::{
    dedicated_servers, pooled_servers, pooling_saving, GopsConverter,
};
use pran_traces::{generate, TraceConfig};

fn main() {
    bench::telemetry::init_from_env();
    let conv = GopsConverter::default_eval();
    let capacity = 400.0;
    let seeds = [11u64, 22, 33];

    println!("E4: pooled vs dedicated provisioning ({capacity} GOPS servers, 24 h traces)");
    let mut json_rows = Vec::new();

    for &cells in &[10usize, 20, 50, 100, 200] {
        // Average across seeds for stability.
        let mut ded_sum = 0usize;
        let mut pool_sum = 0usize;
        let mut gain_sum = 0.0;
        for &seed in &seeds {
            let mut cfg = TraceConfig::default_day(cells, seed);
            cfg.step_seconds = 300.0; // 5-min steps keep the sweep fast
            let trace = generate(&cfg);
            ded_sum += dedicated_servers(&trace, &conv, capacity).servers;
            pool_sum += pooled_servers(&trace, &conv, capacity).servers;
            gain_sum += trace.multiplexing_gain();
        }
        let n = seeds.len() as f64;
        let ded = ded_sum as f64 / n;
        let pool = pool_sum as f64 / n;
        json_rows.push(serde_json::json!({
            "cells": cells,
            "dedicated_servers": ded,
            "pooled_servers": pool,
            "saving": 1.0 - pool / ded,
            "mux_gain": gain_sum / n,
        }));
    }

    // Shape assertions mirrored in EXPERIMENTS.md.
    let first = &json_rows[0];
    let last = &json_rows[json_rows.len() - 1];
    println!(
        "shape check: saving grows with scale ({:.0}% at {} cells → {:.0}% at {} cells)",
        first["saving"].as_f64().unwrap() * 100.0,
        first["cells"],
        last["saving"].as_f64().unwrap() * 100.0,
        last["cells"],
    );

    // Sensitivity (50 cells): stronger shared regional shocks → more
    // correlated peaks → smaller pooling gain.
    let mut json_sens = Vec::new();
    for &sigma in &[0.0f64, 0.08, 0.2, 0.4] {
        let mut cfg = TraceConfig::default_day(50, 99);
        cfg.step_seconds = 300.0;
        cfg.regional_sigma = sigma;
        let trace = generate(&cfg);
        let ded = dedicated_servers(&trace, &conv, capacity);
        let pool = pooled_servers(&trace, &conv, capacity);
        let saving = pooling_saving(&ded, &pool);
        json_sens.push(serde_json::json!({ "regional_sigma": sigma, "saving": saving }));
    }

    Report::new("e4_multiplexing")
        .meta("server_capacity_gops", serde_json::json!(capacity))
        .meta("seeds", serde_json::json!(seeds.to_vec()))
        .section("sweep", serde_json::json!(json_rows))
        .section("correlation_sensitivity", serde_json::json!(json_sens))
        .save();
}
