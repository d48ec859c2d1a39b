//! E11 (extension) — where can the pool live, and what does it cost?
//!
//! A two-tier deployment: a small, expensive edge site 5 km from the cells
//! and a large, cheap regional datacenter 80 km away. The functional split
//! decides which cells may be served from the regional site (latency
//! tolerance), and the cost-aware placement then chooses. Reproduced
//! shape: low splits pin everything to the edge (high cost, admission
//! pressure); the transport-block split unlocks the regional site and the
//! deployment cost collapses — PRAN's "centralize as much as latency
//! allows" argument, quantified.

use std::time::Duration;

use bench::Report;
use pran_fronthaul::{edge_regional, FunctionalSplit};
use pran_ilp::BnbConfig;
use pran_sched::placement::admission::{admit_greedy, AdmissionRequest};
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::{ilp, Allowed, CellDemand, PlacementInstance, ProductMask, ServerSpec};
use pran_traces::{generate, TraceConfig};

fn main() {
    bench::telemetry::init_from_env();
    let cells = 12;
    // Per-cell demand at the evening peak.
    let mut tcfg = TraceConfig::default_day(cells, 1111);
    tcfg.step_seconds = 3600.0;
    let trace = generate(&tcfg);
    let conv = GopsConverter::default_eval();
    let demands: Vec<f64> = trace.samples[20].iter().map(|&u| conv.gops(u)).collect();
    let total: f64 = demands.iter().sum();

    println!(
        "E11: two-tier deployment (edge: 2 servers @ cost 3; regional 80 km: 12 @ cost 1)\n\
         {cells} cells, {total:.0} GOPS aggregate demand at the evening peak"
    );

    let mut json_rows = Vec::new();
    for split in FunctionalSplit::all() {
        let topo = edge_regional(cells, 1000.0, 2, 12, 80.0, split);
        // Service time of a peak subframe on one core (100 GOPS).
        let service = Duration::from_micros(1600);
        let reach = topo.reachability(service);
        let specs = topo.server_specs();
        let instance = PlacementInstance {
            cells: demands
                .iter()
                .enumerate()
                .map(|(id, &gops)| CellDemand::flat(id, gops))
                .collect(),
            servers: specs
                .iter()
                .enumerate()
                .map(|(id, &(capacity_gops, cost))| ServerSpec::plain(id, capacity_gops, cost))
                .collect(),
            allowed: Allowed::Product(Box::new(ProductMask {
                cells: vec![true; cells],
                servers: vec![true; specs.len()],
                reach: Some(reach),
            })),
        };

        // Cost-aware exact placement with a warm start; fall back to
        // admission control when the reachable pool cannot fit everyone.
        let exact = ilp::solve(
            &instance,
            &BnbConfig {
                max_nodes: 20_000,
                // Far beyond any split here: the node cap is the only cut.
                time_limit: Duration::from_secs(3600),
                ..BnbConfig::default()
            },
        );
        let (placement, admitted) = match exact.placement {
            Some(p) => (p, cells),
            None => {
                // Reachability-constrained admission: only edge servers are
                // usable by everyone, so admit into the edge tier.
                let edge_servers = topo.sites[0].servers;
                let requests: Vec<AdmissionRequest> = demands
                    .iter()
                    .enumerate()
                    .map(|(id, &gops)| AdmissionRequest {
                        id,
                        gops,
                        weight: 1.0,
                    })
                    .collect();
                let outcome =
                    admit_greedy(&requests, edge_servers, topo.sites[0].server_capacity_gops);
                let count = outcome.count();
                (outcome.placement, count)
            }
        };

        let edge_server_count = topo.sites[0].servers;
        let mut on_edge = 0usize;
        let mut on_regional = 0usize;
        for a in placement.assignment.iter().flatten() {
            if *a < edge_server_count {
                on_edge += 1;
            } else {
                on_regional += 1;
            }
        }
        json_rows.push(serde_json::json!({
            "split": split.label(),
            "admitted": admitted,
            "on_edge": on_edge,
            "on_regional": on_regional,
            "cost": instance.cost(&placement),
        }));
    }

    println!(
        "shape check: latency-tolerant splits shift cells to the cheap regional\n\
         site (cost drops several-fold); latency-bound splits are stuck at the\n\
         edge and, when the edge tier is too small, shed cells via admission."
    );

    Report::new("e11_deployment")
        .meta("cells", serde_json::json!(cells))
        .meta("seed", serde_json::json!(1111))
        .section("rows", serde_json::json!(json_rows))
        .save();
}
