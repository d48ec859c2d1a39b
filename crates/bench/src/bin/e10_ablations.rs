//! E10 (extension) — ablations of the design choices DESIGN.md calls out.
//!
//! Four knobs, each isolated:
//!  1. ILP symmetry breaking (y-ordering rows and dropped symmetric
//!     `x` copies on uniform pools);
//!  2. ILP warm start (FFD incumbent seeding);
//!  3. per-cell fronthaul spread (what separates EDF from FIFO);
//!  4. incremental repack vs full re-solve (placement churn).

use std::time::Duration;

use bench::Report;
use pran_ilp::BnbConfig;
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::ilp::{solve_with, SolveOptions};
use pran_sched::placement::migration::{diff, incremental_repack};
use pran_sched::placement::PlacementInstance;
use pran_sched::realtime::workload::{generate as gen_tasks, TaskSetConfig};
use pran_sched::realtime::{simulate, Policy};
use pran_traces::{generate, TraceConfig};

fn instance(cells: usize, seed: u64, step: usize) -> PlacementInstance {
    let mut cfg = TraceConfig::default_day(cells, seed);
    cfg.step_seconds = 3600.0;
    let trace = generate(&cfg);
    let conv = GopsConverter::default_eval();
    let demands: Vec<f64> = trace.samples[step].iter().map(|&u| conv.gops(u)).collect();
    PlacementInstance::uniform(&demands, cells, 400.0)
}

fn main() {
    bench::telemetry::init_from_env();
    println!("E10: ablations");
    let mut report = Report::new("e10_ablations");

    // ---- 1+2: ILP accelerations (10-cell peak instances, 10k-node cap) ----
    // Two ten-cell peak instances: a typical one, where the FFD start is
    // proven at the root and the switches only show without it, and the
    // tight one of the benchmark library (Σg/G = 2.994 against FFD's 4),
    // where the model's pattern row says at the root that no three-server
    // packing exists, so the switches only show in how fast a search
    // without the start finds a four-server one.
    let cfg = BnbConfig {
        max_nodes: 10_000,
        // Far beyond any arm here: the node cap is the only cut.
        time_limit: Duration::from_secs(3600),
        ..BnbConfig::default()
    };
    for (key, seed) in [
        ("ilp_accelerations", 4242),
        ("ilp_accelerations_tight", 2_026_013),
    ] {
        let inst = instance(10, seed, 20);
        let mut rows = Vec::new();
        let mut host_rows = Vec::new();
        for &(sym, warm) in &[(true, true), (true, false), (false, true), (false, false)] {
            let r = solve_with(
                &inst,
                &cfg,
                SolveOptions {
                    symmetry_breaking: sym,
                    warm_start: warm,
                },
            );
            let servers = r
                .placement
                .as_ref()
                .map(|p| inst.servers_used(p).to_string())
                .unwrap_or_else(|| "-".into());
            rows.push(serde_json::json!({
                "symmetry": sym, "warm_start": warm, "nodes": r.nodes,
                "servers": servers, "optimal": r.optimal,
            }));
            host_rows.push(serde_json::json!({
                "symmetry": sym, "warm_start": warm,
                "time_us": r.elapsed.as_micros() as u64,
            }));
        }
        report = report
            .section(key, serde_json::json!(rows))
            .host(key, serde_json::json!(host_rows));
    }

    // ---- 3: fronthaul spread (per-cell deadline heterogeneity) ----
    // With zero spread every task shares one relative deadline, so EDF
    // degenerates to FIFO — heterogeneous fronthaul is what EDF exploits.
    let mut rows = Vec::new();
    for &spread_us in &[0u64, 300] {
        for &util in &[0.95f64, 1.0] {
            let mut cfg = TaskSetConfig::default_eval(12, 300, 4, util);
            cfg.fronthaul_spread = Duration::from_micros(spread_us);
            cfg.seed = 0xAB1;
            let set = gen_tasks(&cfg);
            let edf = simulate(&set.tasks, 4, Policy::GlobalEdf).miss_ratio();
            let fifo = simulate(&set.tasks, 4, Policy::GlobalFifo).miss_ratio();
            rows.push(serde_json::json!({
                "spread_us": spread_us, "util": util, "edf": edf, "fifo": fifo,
            }));
        }
    }
    report = report.section("fronthaul_spread", serde_json::json!(rows));

    // ---- 4: incremental repack vs full FFD re-solve ----
    let mut cfg = TraceConfig::default_day(20, 77);
    cfg.step_seconds = 900.0;
    let trace = generate(&cfg);
    let conv = GopsConverter::default_eval();
    let mk_inst = |step: usize| {
        let demands: Vec<f64> = trace.samples[step]
            .iter()
            .map(|&u| conv.gops(u) * 1.1)
            .collect();
        PlacementInstance::uniform(&demands, 20, 400.0)
    };
    let mut inc_placement = place(&mk_inst(0), Heuristic::FirstFitDecreasing).placement;
    let mut full_prev = inc_placement.clone();
    let mut inc_moves = 0usize;
    let mut full_moves = 0usize;
    let mut inc_servers = 0usize;
    let mut full_servers = 0usize;
    let steps = trace.num_steps();
    for step in 1..steps {
        let inst = mk_inst(step);
        let (next, plan) = incremental_repack(&inst, &inc_placement);
        inc_moves += plan.len();
        inc_servers += inst.servers_used(&next);
        inc_placement = next;

        let full = place(&inst, Heuristic::FirstFitDecreasing).placement;
        full_moves += diff(&full_prev, &full).len();
        full_servers += inst.servers_used(&full);
        full_prev = full;
    }
    let inc_rate = inc_moves as f64 / (steps - 1) as f64;
    let full_rate = full_moves as f64 / (steps - 1) as f64;
    println!(
        "repack vs re-solve: re-solving churns {:.0}× more cells; the incremental path\n\
         pays ~{:.1} extra servers of fragmentation for that stability — headroom the\n\
         consolidation app reclaims when it matters",
        full_rate / inc_rate.max(1e-9),
        (inc_servers as f64 - full_servers as f64) / (steps - 1) as f64
    );
    report
        .section(
            "repack_vs_resolve",
            serde_json::json!({
                "incremental_moves_per_epoch": inc_rate,
                "full_moves_per_epoch": full_rate,
                "incremental_mean_servers": inc_servers as f64 / (steps - 1) as f64,
                "full_mean_servers": full_servers as f64 / (steps - 1) as f64,
            }),
        )
        .save();
}
