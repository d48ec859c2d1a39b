//! Flash crowd: a stadium event hits four cells at 19:00 — watch the pool
//! absorb it.
//!
//! The paper's motivating scenario for pooling: dedicated per-cell hardware
//! must be sized for this spike *at every cell*; the pool only needs the
//! spike's *aggregate*. The example generates a 24-hour city trace with an
//! evening flash crowd, simulates the pool, and prints the server-usage
//! timeline plus the dedicated-vs-pooled provisioning comparison.
//!
//! ```sh
//! cargo run --example flash_crowd [num_cells] [seed]
//! ```

use std::time::Duration;

use pran::sched::placement::dimensioning::{
    dedicated_servers, pooled_servers, pooling_saving, GopsConverter,
};
use pran::traces::{generate, FlashCrowd, Point, TraceConfig};
use pran_sim::{PoolConfig, PoolSimulator};

fn main() {
    let mut args = std::env::args().skip(1);
    let num_cells: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    // A day in the city, one-minute resolution, with a stadium event:
    // 19:00–22:00, epicentre in the north-east, +60 % utilization at peak.
    let mut cfg = TraceConfig::default_day(num_cells, seed);
    cfg.flash_crowds.push(FlashCrowd {
        epicenter: Point {
            x: 7_500.0,
            y: 7_500.0,
        },
        radius_m: 2_500.0,
        start_s: 19.0 * 3600.0,
        duration_s: 3.0 * 3600.0,
        boost: 0.6,
    });
    let trace = generate(&cfg);
    println!(
        "generated {} cells × {} steps (step {}s), multiplexing gain {:.2}×",
        trace.num_cells(),
        trace.num_steps(),
        trace.step_seconds,
        trace.multiplexing_gain()
    );

    // Dimensioning: dedicated per-cell peak vs shared pool.
    let conv = GopsConverter::default_eval();
    let capacity = 400.0;
    let dedicated = dedicated_servers(&trace, &conv, capacity);
    let pooled = pooled_servers(&trace, &conv, capacity);
    println!("\n== provisioning (servers of {capacity} GOPS) ==");
    println!("  dedicated (per-cell peaks): {}", dedicated.servers);
    println!("  pooled    (shared pool):    {}", pooled.servers);
    println!(
        "  saving: {:.0}%",
        pooling_saving(&dedicated, &pooled) * 100.0
    );

    // Simulate the pool through the day with a few spare servers.
    let pool_size = pooled.servers + 2;
    let mut sim_cfg = PoolConfig::default_eval(pool_size);
    sim_cfg.epoch_steps = 15; // 15-minute epochs
    let mut sim = PoolSimulator::new(trace, sim_cfg);
    let report = sim.run();
    let m = &report.metrics;

    println!("\n== simulated day on a {pool_size}-server pool ==");
    println!(
        "  tasks {}  miss ratio {:.4}%  migrations {}",
        m.tasks_total,
        m.miss_ratio() * 100.0,
        m.migrations
    );
    println!(
        "  response time: mean {:?}  p99 {:?}",
        m.response_times.mean(),
        m.response_times.quantile(0.99)
    );

    // Server-usage timeline (one char per epoch, scaled 0-9).
    println!("\n== servers in use per epoch (00:00 → 24:00) ==");
    let line: String = m
        .servers_used
        .iter()
        .map(|&s| char::from_digit(s.min(9) as u32, 10).unwrap())
        .collect();
    println!("  {line}");
    let peak_epoch = m
        .servers_used
        .iter()
        .enumerate()
        .max_by_key(|(_, &s)| s)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let minutes = peak_epoch * 15;
    println!(
        "  peak {} servers at ~{:02}:{:02} (evening peak + flash crowd)",
        m.peak_servers(),
        minutes / 60,
        minutes % 60
    );
    let _ = Duration::ZERO;
}
