//! E5 / Fig 5 + Table 2 — exact ILP vs heuristic placement.
//!
//! The calibration band's centerpiece: the placement ILP (branch & bound
//! over our own simplex) against first/best-fit-decreasing. Reproduced
//! shapes: the heuristics stay within a few percent of the exact server
//! count while cutting solve time by ≳98 % — the trade that justifies the
//! paper's two-timescale decomposition.
//!
//! Branch and bound is cut by its node budget only, never by a clock, so
//! `ilp_nodes` and every server count repeat on any host; solve times
//! and the time cut go to `results/e5_ilp_vs_heuristic.host.json`.

use std::time::{Duration, Instant};

use bench::Report;
use pran_ilp::BnbConfig;
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::{ilp, PlacementInstance};
use pran_traces::{generate, TraceConfig};

/// Build a realistic epoch instance from a trace step.
fn instance(cells: usize, seed: u64, hour: f64) -> PlacementInstance {
    let mut cfg = TraceConfig::default_day(cells, seed);
    cfg.step_seconds = 3600.0;
    let trace = generate(&cfg);
    let step = (hour as usize).min(trace.num_steps() - 1);
    let conv = GopsConverter::default_eval();
    let demands: Vec<f64> = trace.samples[step].iter().map(|&u| conv.gops(u)).collect();
    PlacementInstance::uniform(&demands, cells, 400.0)
}

/// Node budget of every exact solve; no row comes near it.
const BNB_MAX_NODES: usize = 20_000;

fn main() {
    bench::telemetry::init_from_env();
    println!("E5: exact (branch & bound) vs heuristic placement");
    let bnb = BnbConfig {
        max_nodes: BNB_MAX_NODES,
        // Far beyond any instance here: the node budget is the only cut.
        time_limit: Duration::from_secs(3600),
        ..BnbConfig::default()
    };

    let mut json_rows = Vec::new();
    let mut host_rows = Vec::new();

    for &(cells, hour, regime) in &[
        (6usize, 4.0, "night"),
        (6, 20.0, "peak"),
        (10, 4.0, "night"),
        (10, 20.0, "peak"),
        (14, 12.0, "midday"),
        (14, 20.0, "peak"),
        (18, 20.0, "peak"),
        (22, 20.0, "peak"),
        (26, 20.0, "peak"),
        (30, 20.0, "peak"),
    ] {
        let inst = instance(cells, 1000 + cells as u64, hour);

        let t0 = Instant::now();
        let ffd = place(&inst, Heuristic::FirstFitDecreasing);
        let ffd_time = t0.elapsed().max(Duration::from_nanos(100));
        let bfd = place(&inst, Heuristic::BestFitDecreasing);

        let exact = ilp::solve(&inst, &bnb);
        let (ilp_srv, ilp_time, optimal) = match &exact.placement {
            Some(p) => (inst.servers_used(p), exact.elapsed, exact.optimal),
            None => {
                println!("  ({cells} cells {regime}: ILP found no incumbent within limits)");
                continue;
            }
        };
        let ffd_srv = inst.servers_used(&ffd.placement);
        let bfd_srv = inst.servers_used(&bfd.placement);
        let gap = (ffd_srv.min(bfd_srv) as f64 - ilp_srv as f64) / ilp_srv as f64;
        let cut = 1.0 - ffd_time.as_secs_f64() / ilp_time.as_secs_f64();
        json_rows.push(serde_json::json!({
            "cells": cells,
            "regime": regime,
            "ilp_servers": ilp_srv,
            "ilp_optimal": optimal,
            "ffd_servers": ffd_srv,
            "bfd_servers": bfd_srv,
            "gap": gap,
            "ilp_nodes": exact.nodes,
            "presolve_vars_fixed": exact.presolve.map(|p| p.vars_fixed),
        }));
        host_rows.push(serde_json::json!({
            "cells": cells,
            "regime": regime,
            "ilp_time_us": ilp_time.as_micros() as u64,
            "ffd_time_us": ffd_time.as_micros() as u64,
            "time_cut": cut,
        }));
    }

    let worst_gap = json_rows
        .iter()
        .map(|r| r["gap"].as_f64().unwrap())
        .fold(0.0f64, f64::max);
    let min_cut = host_rows
        .iter()
        .map(|r| r["time_cut"].as_f64().unwrap())
        .fold(1.0f64, f64::min);
    println!(
        "shape check: worst heuristic gap {:.0}% (paper band: ≤ ~6%); \
         minimum solve-time cut {:.2}% (paper: up to 98%)",
        worst_gap * 100.0,
        min_cut * 100.0
    );

    Report::new("e5_ilp_vs_heuristic")
        .meta("bnb_max_nodes", serde_json::json!(BNB_MAX_NODES))
        .section("rows", serde_json::json!(json_rows))
        .host("rows", serde_json::json!(host_rows))
        .save();
}
