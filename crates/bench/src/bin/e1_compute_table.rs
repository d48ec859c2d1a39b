//! E1 / Table 1 — per-subframe baseband compute budget by pipeline stage.
//!
//! Reconstructs the paper's compute-breakdown table: GOPS per stage for a
//! fully loaded 20 MHz, 4-antenna, 2-layer cell, uplink and downlink, plus
//! an MCS sweep showing how the bit-domain stages (decode/encode) scale
//! while the sample-domain stages stay flat. The headline shape: **turbo
//! decoding dominates uplink** (≈half the budget at full load).

use bench::Report;
use pran_phy::compute::{CellWorkload, ComputeModel, Stage};
use pran_phy::frame::Direction;
use pran_phy::mcs::Mcs;

fn main() {
    bench::telemetry::init_from_env();
    let model = ComputeModel::calibrated();

    println!("E1: per-subframe compute budget (GOPS), 20 MHz / 4 ant / 2 layers, full load");

    let mut json_stages = Vec::new();
    for direction in Direction::both() {
        let cost = model.subframe_cost(&CellWorkload::full_load(direction));
        println!("{direction}: total {:.1} GOPS", cost.total_gops());
        for s in &cost.stages {
            json_stages.push(serde_json::json!({
                "direction": direction.to_string(),
                "stage": s.stage.label(),
                "gops": s.gops,
                "share": cost.stage_share(s.stage),
            }));
        }
    }

    // MCS sweep (uplink, 100 PRB): decode scales, FFT does not.
    let mut json_sweep = Vec::new();
    for idx in [0u8, 5, 10, 15, 20, 24, 28] {
        let w = CellWorkload {
            mcs: Mcs::new(idx),
            ..CellWorkload::full_load(Direction::Uplink)
        };
        let cost = model.subframe_cost(&w);
        json_sweep.push(serde_json::json!({
            "mcs": idx,
            "total_gops": cost.total_gops(),
            "decode_gops": cost.stage_gops(Stage::TurboDecode),
            "decode_share": cost.stage_share(Stage::TurboDecode),
        }));
    }

    // Cross-check against the closed-form aggregate from the literature.
    let lit = ComputeModel::literature_aggregate_gops(4.0, 6.0, 0.95, 2.0, 100.0);
    let ours = model.cell_gops(&CellWorkload::full_load(Direction::Uplink));
    println!(
        "cross-check: literature aggregate formula gives {lit:.0} GOPS; \
         this model's UL total is {ours:.0} GOPS (same order, finer structure)"
    );

    Report::new("e1_compute_table")
        .meta("bandwidth_mhz", serde_json::json!(20))
        .meta("antennas", serde_json::json!("4x2"))
        .section("stages", serde_json::json!(json_stages))
        .section("mcs_sweep", serde_json::json!(json_sweep))
        .save();
}
