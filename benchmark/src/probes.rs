//! Probes: tight loops over one public function with workload-shaped
//! inputs, for layers whose cost per call is too small to span.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pran_fronthaul::fault::{FaultConfig, FaultInjector};
use pran_insight::live::LogSketch;
use pran_obs::FlightRecorder;
use pran_phy::{CellWorkload, ComputeModel, Direction};
use pran_sched::realtime::{
    simulate_into, BatchOutcome, ParallelConfig, ParallelExecutor, ParallelOutcome, SimScratch,
    TaskBatch,
};
use pran_sched::{Policy, RtTask};
use pran_sim::EpochRecord;

use crate::inputs::SplitMix64;

/// How long each probe loops.
const PROBE: Duration = Duration::from_millis(60);

/// Nanoseconds per call of `body`, called in chunks of `chunk` until
/// [`PROBE`] has passed.
fn ns_per_call(chunk: usize, mut body: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    while started.elapsed() < PROBE {
        for _ in 0..chunk {
            body();
        }
        calls += chunk;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

const MS: u64 = 1_000_000;

/// One server-step of the metro pool: `cells` cells × 4 TTIs on a 1 ms
/// grid with a 2 ms compute budget; `jitter_ns` delays each release
/// (deadlines stay pinned to the grid, as in `pran-sim::pool`).
fn server_step(cells: u32, jitter_ns: u64) -> TaskBatch {
    let mut rng = SplitMix64::new(12);
    let mut batch = TaskBatch::new();
    for cell in 0..cells {
        let service = 300_000 + 60_000 * u64::from(cell);
        for tti in 0..4 {
            let delay = if jitter_ns == 0 {
                0
            } else {
                rng.next_u64() % jitter_ns
            };
            batch.push(cell, tti * MS + delay, tti * MS + 2 * MS, service);
        }
    }
    batch
}

/// `simulate_into` under `GlobalEdf` on 4 cores, per task. Without jitter
/// every deadline offset is equal and dispatch takes the heap-free FIFO
/// path; with 800 µs jitter the offsets differ and it takes the heaps.
pub fn edf_ns_per_task(jittered: bool) -> f64 {
    let batch = server_step(6, if jittered { 800_000 } else { 0 });
    let mut scratch = SimScratch::new();
    let mut out = BatchOutcome::new();
    let per_call = ns_per_call(256, || {
        simulate_into(
            black_box(&batch),
            4,
            Policy::GlobalEdf,
            &mut scratch,
            &mut out,
        );
        black_box(out.makespan_ns);
    });
    per_call / batch.len() as f64
}

/// `ParallelExecutor::execute_into` on a 40-task batch, microseconds per
/// call (each call spawns `cores` OS threads).
pub fn parallel_us_per_call(config: ParallelConfig) -> f64 {
    let batch = server_step(10, 0);
    let tasks: Vec<RtTask> = (0..batch.len())
        .map(|i| RtTask {
            id: i,
            cell: batch.cell[i] as usize,
            release: Duration::from_nanos(batch.release_ns[i]),
            deadline: Duration::from_nanos(batch.deadline_ns[i]),
            service: Duration::from_nanos(batch.service_ns[i]),
        })
        .collect();
    let executor = ParallelExecutor::new(config);
    let mut out = ParallelOutcome {
        tasks: Vec::new(),
        core_busy: Vec::new(),
        makespan: Duration::ZERO,
        steals: 0,
    };
    ns_per_call(8, || {
        executor.execute_into(black_box(&tasks), &mut out);
        black_box(out.steals);
    }) / 1e3
}

/// `FaultInjector::advance_to` + `offer` of one 32-byte uplink frame.
pub fn fronthaul_offer_ns(config: FaultConfig) -> f64 {
    static FRAME: [u8; 32] = [0xA5; 32];
    let mut link = FaultInjector::new(config, 12);
    let mut now = Duration::ZERO;
    ns_per_call(1024, || {
        now += Duration::from_millis(1);
        link.advance_to(now);
        black_box(link.offer(Bytes::from_static(&FRAME)));
    })
}

/// `ComputeModel::cell_gops(at_utilization(u))`, the call the controller
/// makes at least twice per cell per epoch.
pub fn cell_gops_ns() -> f64 {
    let model = ComputeModel::calibrated();
    let base = CellWorkload::full_load(Direction::Uplink);
    let mut u = 0.0f64;
    ns_per_call(1024, || {
        u = (u + 0.013) % 1.0;
        black_box(model.cell_gops(&black_box(base).at_utilization(u)));
    })
}

/// `LogSketch::record_us` over latencies spread across the buckets.
pub fn sketch_record_ns() -> f64 {
    let mut sketch = LogSketch::new();
    let mut us = 1u64;
    ns_per_call(1024, || {
        us = us % 5_000 + 37;
        sketch.record_us(black_box(us));
    })
}

/// `LogSketch::merge` of one populated sketch into another.
pub fn sketch_merge_ns() -> f64 {
    let mut a = LogSketch::new();
    let mut b = LogSketch::new();
    for us in 1..4_000u64 {
        a.record_us(us);
        b.record_us(us * 3);
    }
    ns_per_call(256, || a.merge(black_box(&b)))
}

/// `FlightRecorder::push` of one epoch record into a full 256-slot ring.
pub fn recorder_push_ns(record: EpochRecord) -> f64 {
    let mut ring = FlightRecorder::new(256);
    ns_per_call(1024, || ring.push(black_box(record)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_batches_take_the_dispatch_path_they_are_named_for() {
        // Uniform `deadline − release` ⇒ FIFO-equivalent EDF; jitter
        // breaks the uniformity.
        let offsets = |b: &TaskBatch| -> Vec<u64> {
            (0..b.len())
                .map(|i| b.deadline_ns[i] - b.release_ns[i])
                .collect()
        };
        let clean = offsets(&server_step(6, 0));
        assert!(clean.iter().all(|&o| o == clean[0]));
        let jittered = offsets(&server_step(6, 800_000));
        assert!(jittered.iter().any(|&o| o != jittered[0]));
        assert_eq!(server_step(10, 0).len(), 40);
    }
}
