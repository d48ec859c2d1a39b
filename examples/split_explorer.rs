//! Split explorer: fronthaul bandwidth / latency / pooling trade-offs.
//!
//! PRAN's fronthaul argument in one table: shipping raw I/Q (CPRI) costs
//! antennas × sample-rate regardless of load, while a partial PHY split
//! (FFT at the front-end) scales with *used* PRBs — at the price of a
//! little compute that can no longer be pooled. This example sweeps the
//! functional splits over antenna counts and load levels and prints the
//! required bandwidth, the latency each split tolerates, and the reach
//! (max fiber km) that tolerance buys.
//!
//! ```sh
//! cargo run --example split_explorer [bandwidth: 5|10|20]
//! ```

use std::time::Duration;

use pran::fronthaul::{cpri, FronthaulPath, FunctionalSplit};
use pran::phy::frame::{AntennaConfig, Bandwidth};
use pran::phy::mcs::Mcs;

fn main() {
    let bw = match std::env::args().nth(1).as_deref() {
        Some("5") => Bandwidth::Mhz5,
        Some("10") => Bandwidth::Mhz10,
        _ => Bandwidth::Mhz20,
    };
    let mcs = Mcs::new(20);
    println!("carrier: {bw}, MCS {} ({})", mcs.index(), mcs.modulation());

    // CPRI reference rates per option.
    println!("\n== CPRI line rates (load-independent) ==");
    println!("{:>9} | {:>12} | option", "antennas", "rate");
    for antennas in [1u32, 2, 4, 8] {
        let rate = cpri::line_rate_bps(bw, antennas);
        let opt = cpri::required_option(bw, antennas)
            .map(|o| format!("{o:?}"))
            .unwrap_or_else(|| "beyond option 10".into());
        println!("{antennas:>9} | {:>9.3} Gb/s | {opt}", rate / 1e9);
    }

    // Split comparison across load.
    println!("\n== one-way fronthaul bandwidth per split (Gb/s), 4 antennas ==");
    let ant = AntennaConfig::new(4, 2);
    print!("{:>18} |", "split");
    for load in [10, 30, 50, 80, 100] {
        print!(" {load:>5}% |");
    }
    println!(" latency req | pooled compute");
    for split in FunctionalSplit::all() {
        print!("{:>18} |", split.label());
        for load in [0.1, 0.3, 0.5, 0.8, 1.0] {
            let bps = split.bandwidth_bps(bw, ant, load, mcs);
            print!(" {:>6.3} |", bps / 1e9);
        }
        println!(
            " {:>9?} | {:>4.0}%",
            split.max_one_way_latency(),
            split.pooled_compute_fraction() * 100.0
        );
    }

    // How far can the pool be per split, leaving a 1.5 ms compute budget?
    println!("\n== pool reach at a 1.5 ms compute budget (metro path) ==");
    let path = FronthaulPath::metro(0.0);
    let budget = Duration::from_micros(1500);
    for split in FunctionalSplit::all() {
        // Burst per TTI ≈ bandwidth × 1 ms.
        let bytes = (split.bandwidth_bps(bw, ant, 1.0, mcs) * 1e-3 / 8.0) as usize;
        let harq_reach = path.max_distance_for_budget(bytes, budget);
        // The split's own jitter tolerance may bind first.
        let latency_reach = split.max_one_way_latency().as_secs_f64() * 2.0e8;
        let reach = harq_reach.min(latency_reach);
        println!(
            "{:>18}: {:>6.1} km (HARQ allows {:.1}, split tolerance allows {:.1})",
            split.label(),
            reach / 1000.0,
            harq_reach / 1000.0,
            latency_reach / 1000.0
        );
    }

    println!("\ntakeaway: the frequency-domain split keeps ~90% of compute");
    println!("poolable while cutting fronthaul several-fold vs CPRI — and");
    println!("load-dependence means a quiet cell costs almost nothing.");
}
