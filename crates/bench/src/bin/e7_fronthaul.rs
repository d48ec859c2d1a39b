//! E7 / Fig 7 — fronthaul bandwidth vs functional split.
//!
//! CPRI ships antennas × sample-rate forever; PRAN's partial PHY split
//! ships what the load needs. Reproduced shapes: per-cell fronthaul drops
//! several-fold moving from time-domain I/Q to the frequency-domain split,
//! becomes load-proportional, and higher splits trade poolable compute for
//! further reduction.

use bench::Report;
use pran_fronthaul::{cpri, FunctionalSplit};
use pran_phy::frame::{AntennaConfig, Bandwidth};
use pran_phy::mcs::Mcs;

fn main() {
    bench::telemetry::init_from_env();
    let bw = Bandwidth::Mhz20;
    let mcs = Mcs::new(20);
    println!(
        "E7: fronthaul bandwidth per functional split ({bw}, MCS {})",
        mcs.index()
    );

    // Antenna sweep at full load.
    let mut json_ant = Vec::new();
    for antennas in [1u32, 2, 4, 8] {
        let ant = AntennaConfig::new(antennas, antennas.min(2));
        let rates: Vec<f64> = FunctionalSplit::all()
            .iter()
            .map(|s| s.bandwidth_bps(bw, ant, 1.0, mcs))
            .collect();
        json_ant.push(serde_json::json!({
            "antennas": antennas,
            "iq_bps": rates[0],
            "freq_domain_bps": rates[1],
            "soft_bits_bps": rates[2],
            "transport_blocks_bps": rates[3],
        }));
    }

    // Load sweep at 4 antennas — the load-proportionality figure.
    let ant = AntennaConfig::pran_default();
    let mut json_load = Vec::new();
    for &load in &[0.05f64, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let rates: Vec<f64> = FunctionalSplit::all()
            .iter()
            .map(|s| s.bandwidth_bps(bw, ant, load, mcs))
            .collect();
        json_load.push(serde_json::json!({
            "load": load,
            "rates_bps": rates,
        }));
    }

    // Pool-level aggregate: 50 cells at a daily-mean load of ~35 %.
    let cells = 50;
    let mean_load = 0.35;
    let mut json_pool = Vec::new();
    for split in FunctionalSplit::all() {
        json_pool.push(serde_json::json!({
            "split": split.label(),
            "aggregate_bps": split.bandwidth_bps(bw, ant, mean_load, mcs) * cells as f64,
            "pooled_compute_fraction": split.pooled_compute_fraction(),
        }));
    }

    // CPRI option requirement per antenna count (context row).
    println!(
        "context: 4-antenna CPRI needs {:?}; the frequency-domain split fits the\n\
         same cell into ~1/4 of a 10 GbE at full load and scales down with load.",
        cpri::required_option(bw, 4).expect("within options")
    );

    Report::new("e7_fronthaul")
        .meta("bandwidth", serde_json::json!(bw.to_string()))
        .meta("mcs", serde_json::json!(mcs.index()))
        .section("antenna_sweep", serde_json::json!(json_ant))
        .section("load_sweep", serde_json::json!(json_load))
        .section("pool_aggregate", serde_json::json!(json_pool))
        .save();
}
