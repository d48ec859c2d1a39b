//! E2 / Fig 2 — measured per-subframe processing time vs PRBs and MCS.
//!
//! Runs the *real* kernel pipeline (FFT → channel est → equalize → demod →
//! turbo decode → CRC) and reports wall-clock per stage. Reproduced shapes:
//! processing time grows ~linearly in allocated PRBs, steps up with MCS
//! (more bits → more decode), and turbo decoding is the dominant stage.
//!
//! Absolute numbers are this machine's (unoptimized reference kernels, one
//! core); the paper's testbed numbers differ by a constant factor — see
//! DESIGN.md's substitution table. They are the kernel-timing record and
//! go to `results/e2_proc_time.host.json`, as does the parallel-decode
//! table (its modeled schedule is built from a measured service time);
//! `results/e2_proc_time.json` keeps the sweep grid and the CRC outcomes.

use bench::Report;
use pran_phy::compute::Stage;
use pran_phy::frame::Bandwidth;
use pran_phy::kernels::turbo::{turbo_decode, turbo_encode, QppInterleaver, SoftCodeword};
use pran_phy::mcs::Mcs;
use pran_phy::pipeline::{run_uplink_subframe, PipelineConfig};
use pran_sched::realtime::{ParallelConfig, ParallelExecutor, RtTask};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn main() {
    bench::telemetry::init_from_env();
    let cfg = PipelineConfig {
        bandwidth: Bandwidth::Mhz20,
        code_block_bits: 1024,
        decoder_iterations: 5,
        noise_sigma: 0.04,
        c_init: 0xE2,
    };
    let mut rng = SmallRng::seed_from_u64(2);
    let reps = 3;

    println!("E2: measured uplink subframe processing time (this machine)");

    // --- sweep PRBs at fixed MCS 16 ---
    let mut json_prbs = Vec::new();
    let mut host_prbs = Vec::new();
    for prbs in [10u32, 25, 50, 75, 100] {
        let mut total = Duration::ZERO;
        let mut decode = Duration::ZERO;
        let mut ok = true;
        for _ in 0..reps {
            let run = run_uplink_subframe(prbs, Mcs::new(16), &cfg, &mut rng);
            ok &= run.crc_ok;
            total += run.total();
            decode += run.stage(Stage::TurboDecode);
        }
        let (total, decode) = (total / reps, decode / reps);
        json_prbs.push(serde_json::json!({
            "prbs": prbs,
            "crc_ok": ok,
        }));
        host_prbs.push(serde_json::json!({
            "prbs": prbs,
            "total_us": total.as_micros() as u64,
            "decode_us": decode.as_micros() as u64,
            "decode_share": decode.as_secs_f64() / total.as_secs_f64(),
        }));
    }

    // --- sweep MCS at fixed 50 PRBs ---
    let mut json_mcs = Vec::new();
    let mut host_mcs = Vec::new();
    for idx in [4u8, 10, 16, 22, 28] {
        let mut total = Duration::ZERO;
        let mut decode = Duration::ZERO;
        let mut info = 0usize;
        let mut ok = true;
        for _ in 0..reps {
            let run = run_uplink_subframe(50, Mcs::new(idx), &cfg, &mut rng);
            ok &= run.crc_ok;
            total += run.total();
            decode += run.stage(Stage::TurboDecode);
            info = run.info_bits;
        }
        json_mcs.push(serde_json::json!({
            "mcs": idx,
            "info_bits": info,
            "crc_ok": ok,
        }));
        host_mcs.push(serde_json::json!({
            "mcs": idx,
            "total_us": (total / reps).as_micros() as u64,
            "decode_us": (decode / reps).as_micros() as u64,
        }));
    }

    // Linearity check (the paper's modeling assumption).
    let t10 = host_prbs[0]["total_us"].as_u64().unwrap() as f64;
    let t100 = host_prbs[4]["total_us"].as_u64().unwrap() as f64;
    println!(
        "linearity: 10→100 PRB scales total by {:.1}× (model predicts ≈10× for \
         bit-dominated pipelines; FFT's full-band floor keeps it below 10×)",
        t100 / t10
    );

    // --- batched turbo decodes through the parallel subframe executor ---
    //
    // The multicore leg of E2: the dominant stage (turbo decode) run as a
    // batch of real code blocks through `ParallelExecutor::execute_with`.
    // The executor's virtual per-core clocks give a *modeled* makespan for
    // N simulated cores regardless of how many physical cores this host
    // has, while the payloads really decode — so wall-clock is reported as
    // context, and the scaling claim is on the modeled schedule.
    let k = 1024usize;
    let msg: Vec<u8> = (0..k).map(|i| ((i * 31) % 2) as u8).collect();
    let cw = turbo_encode(&msg);
    let il = QppInterleaver::for_block_size(k).unwrap();
    let soft = SoftCodeword::from_codeword(&cw, 2.0);
    // Calibrate one decode so modeled service time matches this machine.
    let iters = 5usize;
    let service = {
        let start = Instant::now();
        for _ in 0..3 {
            std::hint::black_box(turbo_decode(&soft, &il, iters));
        }
        start.elapsed() / 3
    };
    let blocks = 64usize;
    let cells = 8usize;
    let tasks: Vec<RtTask> = (0..blocks)
        .map(|i| {
            let release = Duration::from_millis((i / cells) as u64);
            RtTask {
                id: i,
                cell: i % cells,
                release,
                deadline: release + Duration::from_millis(2),
                service,
            }
        })
        .collect();
    let mut json_par = Vec::new();
    let mut base = Duration::ZERO;
    for &cores in &[1usize, 2, 4] {
        let exec = ParallelExecutor::new(ParallelConfig {
            cores,
            batch: 4,
            steal: true,
        });
        let start = Instant::now();
        let out = exec.execute_with(&tasks, |_task: &RtTask| {
            std::hint::black_box(turbo_decode(&soft, &il, iters));
        });
        let wall = start.elapsed();
        if cores == 1 {
            base = out.makespan;
        }
        json_par.push(serde_json::json!({
            "cores": cores,
            "modeled_makespan_us": out.makespan.as_micros() as u64,
            "modeled_speedup": base.as_secs_f64() / out.makespan.as_secs_f64(),
            "wall_us": wall.as_micros() as u64,
            "steals": out.steals,
            "misses": out.misses(),
        }));
    }
    println!(
        "parallel decode: {blocks} K={k} blocks, {cells} cells, service {service:?} each; \
         modeled speedup tracks simulated cores — wall-clock tracks this host's physical cores"
    );

    Report::new("e2_proc_time")
        .meta("code_block_bits", serde_json::json!(1024))
        .meta("decoder_iterations", serde_json::json!(5))
        .meta("reps", serde_json::json!(reps))
        .section("vs_prbs", serde_json::json!(json_prbs))
        .section("vs_mcs", serde_json::json!(json_mcs))
        .host("vs_prbs", serde_json::json!(host_prbs))
        .host("vs_mcs", serde_json::json!(host_mcs))
        .host("parallel_decode", serde_json::json!(json_par))
        .save();
}
