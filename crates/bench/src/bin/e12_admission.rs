//! E12 (extension) — admission maximization under overload: exact vs greedy.
//!
//! The calibration band's literal claim, transplanted to PRAN's compute
//! pool: when demand exceeds the pool, choose which cells to serve. The
//! exact solver (warm-started branch & bound over the admission ILP) is
//! compared with the weight-density greedy across overload factors;
//! expected shape: the greedy stays within a few percent of optimal
//! admitted weight (paper analog: ≤ ~6 %) at a tiny fraction of the solve
//! time (analog: ~98 % reduction).

use std::time::{Duration, Instant};

use bench::Report;
use pran_sched::placement::admission::{admit_exact, admit_greedy, AdmissionRequest};
use pran_sched::placement::dimensioning::GopsConverter;
use pran_traces::{generate, TraceConfig};

fn main() {
    bench::telemetry::init_from_env();
    let servers = 4;
    let capacity = 400.0;
    println!("E12: admission under overload ({servers} × {capacity} GOPS pool; 1.1×–2.5× offered)");

    let mut json_rows = Vec::new();
    let mut host_rows = Vec::new();

    for cells in [14usize, 18, 24, 32] {
        // Demands from the trace generator's evening peak; weights mix two
        // priority classes (the eMBB/mMTC flavour: some cells carry
        // premium traffic).
        let mut cfg = TraceConfig::default_day(cells, 5_000 + cells as u64);
        cfg.step_seconds = 3600.0;
        let trace = generate(&cfg);
        let conv = GopsConverter::default_eval();
        let requests: Vec<AdmissionRequest> = trace.samples[20]
            .iter()
            .enumerate()
            .map(|(id, &u)| AdmissionRequest {
                id,
                gops: conv.gops(u),
                weight: if id % 3 == 0 { 2.0 } else { 1.0 },
            })
            .collect();
        let offered: f64 = requests.iter().map(|r| r.gops).sum();

        let t0 = Instant::now();
        let greedy = admit_greedy(&requests, servers, capacity);
        let greedy_time = t0.elapsed().max(Duration::from_nanos(100));

        let t0 = Instant::now();
        // A budget no row reaches (each is proven at the root), so the
        // outcome repeats on any host.
        let exact = admit_exact(&requests, servers, capacity, Duration::from_secs(3600));
        let exact_time = t0.elapsed();

        let gap = (exact.weight - greedy.weight) / exact.weight.max(1e-9);
        json_rows.push(serde_json::json!({
            "cells": cells,
            "offered_gops": offered,
            "exact_weight": exact.weight,
            "exact_optimal": exact.optimal,
            "greedy_weight": greedy.weight,
            "gap": gap,
        }));
        host_rows.push(serde_json::json!({
            "cells": cells,
            "exact_time_us": exact_time.as_micros() as u64,
            "greedy_time_us": greedy_time.as_micros() as u64,
        }));
    }

    let worst = json_rows
        .iter()
        .map(|r| r["gap"].as_f64().unwrap())
        .fold(0.0f64, f64::max);
    println!(
        "shape check: worst greedy gap {:.1}% (calibration band analog: ≤ ~6%);\n\
         greedy runs orders of magnitude faster — the two-timescale trade again.",
        worst * 100.0
    );

    Report::new("e12_admission")
        .meta("servers", serde_json::json!(servers))
        .meta("server_capacity_gops", serde_json::json!(capacity))
        .section("rows", serde_json::json!(json_rows))
        .host("rows", serde_json::json!(host_rows))
        .save();
}
