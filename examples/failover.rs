//! Failover: kill servers mid-day and measure recovery.
//!
//! Demonstrates PRAN's fast-failover claim end-to-end: a server dies, the
//! controller's centralized state makes re-placement a pure control-plane
//! operation, and the per-cell outage is detection + replan + migration —
//! tens of milliseconds, not the minutes a hardware RMA would take. The
//! example also runs *real* turbo decodes through the parallel subframe
//! executor on a pool shrunk by one core to show the compute-side effect.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use std::time::{Duration, Instant};

use pran::phy::kernels::{turbo_decode, turbo_encode, QppInterleaver, SoftCodeword};
use pran::sched::realtime::{ParallelConfig, ParallelExecutor, RtTask};
use pran::sim::{FailureSpec, PoolConfig, PoolSimulator};
use pran::traces::{generate, TraceConfig};

fn main() {
    // ---- Part 1: simulated pool with injected failures ----
    let mut cfg = TraceConfig::default_day(24, 7);
    cfg.duration_seconds = 6.0 * 3600.0; // 6 busy hours
    cfg.step_seconds = 60.0;
    let trace = generate(&cfg);

    let mut pool_cfg = PoolConfig::default_eval(10);
    pool_cfg.epoch_steps = 10;
    let mut sim = PoolSimulator::new(trace, pool_cfg);

    // Two failures: one with recovery, one permanent.
    sim.inject_failure(FailureSpec {
        server: 2,
        at: Duration::from_secs(2 * 3600),
        recover_after: Some(Duration::from_secs(1800)),
    });
    sim.inject_failure(FailureSpec {
        server: 5,
        at: Duration::from_secs(4 * 3600),
        recover_after: None,
    });

    let report = sim.run();
    println!("== simulated failover ==");
    for f in &report.failovers {
        println!(
            "  server {} failed: {} cells displaced, {} re-placed, outage {:?} each",
            f.server, f.displaced, f.replaced, f.outage
        );
    }
    let m = &report.metrics;
    println!(
        "  day summary: {} tasks, {} lost to dead servers, miss ratio {:.4}%",
        m.tasks_total,
        m.tasks_lost,
        m.miss_ratio() * 100.0
    );
    if m.outages.count() > 0 {
        println!(
            "  outage distribution: mean {:?}, max {:?} over {} cell-outages",
            m.outages.mean(),
            m.outages.max(),
            m.outages.count()
        );
    }

    // ---- Part 2: real decode jobs on a shrinking pool of cores ----
    println!("\n== real turbo decodes under core loss ==");
    let k = 2048;
    let n_jobs = 64usize;
    let interleaver = QppInterleaver::for_block_size(k).expect("supported size");
    let message: Vec<u8> = (0..k).map(|i| ((i * 37) % 2) as u8).collect();
    let soft = SoftCodeword::from_codeword(&turbo_encode(&message), 3.0);

    // Calibrate one decode on this machine (the kernels are unoptimized
    // reference implementations — see DESIGN.md scale note — so deadlines
    // are set relative to measured speed, not LTE wall-clock).
    let service = {
        let start = Instant::now();
        let out = turbo_decode(&soft, &interleaver, 5);
        assert_eq!(out.bits, message);
        start.elapsed()
    };
    // The executor schedules on simulated cores, so the comparison holds
    // whatever this host's core count: the deadline sits between the full
    // and degraded batch completion times, and losing a core turns a clean
    // batch into misses.
    let (full, degraded) = (4usize, 3usize);
    let deadline = service.mul_f64(n_jobs as f64 / (degraded as f64 + 0.5));
    println!("  single decode (K={k}): {service:?}; batch deadline {deadline:?}");

    let tasks: Vec<RtTask> = (0..n_jobs)
        .map(|id| RtTask {
            id,
            cell: id,
            release: Duration::ZERO,
            deadline,
            service,
        })
        .collect();
    for cores in [full, degraded] {
        let exec = ParallelExecutor::new(ParallelConfig {
            cores,
            batch: 1,
            steal: true,
        });
        let start = Instant::now();
        let out = exec.execute_with(&tasks, |_| {
            let decoded = turbo_decode(&soft, &interleaver, 5);
            assert_eq!(decoded.bits, message, "decode corrupted");
        });
        println!(
            "  {cores} cores: {n_jobs} decodes, modeled makespan {:?} (wall {:?}), \
             {} deadline misses",
            out.makespan,
            start.elapsed(),
            out.misses()
        );
    }
    println!("\n(losing a core stretches the batch past the deadline —");
    println!(" exactly the capacity the placement layer must restore by");
    println!(" re-placing the failed server's cells)");
}
