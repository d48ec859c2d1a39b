//! `metro_clean`, `metro_degraded`, `pool_parallel`: whole-day runs of
//! the sharded metro simulator. One op is one `MetroSimulator::run()`.
//!
//! The traced run decomposes the same work twice, from outside:
//!
//! * **batch** — the bench's own two threads drive, per shard,
//!   `pran_traces::generate` → `PoolSimulator::new` → `run`, then
//!   `PoolMetrics::merge` in shard order, with a span round each call
//!   (what `MetroSimulator::run` does, which the merged metrics prove);
//! * **resident** — the identical configuration stepped through
//!   `ResidentMetro::step_epoch` (byte-equal to batch), whose
//!   `EpochStatus` carries the ingest / dispatch / execute / merge split.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pran_sim::{MetroReport, MetroSimulator, PoolMetrics, PoolSimulator, ResidentMetro, SplitPlan};
use pran_traces::generate;

use super::phases::{report_counts, Phases};
use crate::calib::HostLevel;
use crate::common::{Ctx, Tally, Traced, Untraced, WORKERS};
use crate::inputs::{metro, MetroInputs, MetroKind};
use crate::probes;
use crate::spans::{durations_ns, total_ns, Tracer};
use crate::stats::median;

fn simulator(kind: MetroKind, inputs: &MetroInputs) -> MetroSimulator {
    match kind {
        // The north-star path is built the way users build it.
        MetroKind::Clean => MetroSimulator::try_new(inputs.config),
        _ => MetroSimulator::with_pool(inputs.config, inputs.pool.clone(), inputs.trace.clone()),
    }
    .expect("benchmark metro configuration validates")
}

/// Build the full-size simulator after one reduced-size warm-up run.
fn set_up(kind: MetroKind, ctx: &Ctx) -> (MetroInputs, MetroSimulator) {
    let mut warm = metro(kind, ctx.seed, ctx.div() * 8);
    if kind == MetroKind::Parallel {
        // Thread creation has no cache to warm, and its cost settles per
        // process on one of two levels a factor of two apart: a warm-up
        // through the executor made `setup_s` a second, bimodal
        // `work_per_s`. The reduced-size day runs on the serial executor.
        warm.pool.parallel = None;
    }
    std::hint::black_box(simulator(kind, &warm).run());
    let inputs = metro(kind, ctx.seed, ctx.div());
    let sim = simulator(kind, &inputs);
    (inputs, sim)
}

/// A report covers every cell and shard and generates exactly
/// `cells × steps × ttis_per_step` tasks.
fn check_report(tally: &mut Tally, inputs: &MetroInputs, report: &MetroReport) {
    let covered: usize = report.shards.iter().map(|s| s.cells).sum();
    let ok = report.shards.len() == inputs.config.shards
        && covered == inputs.config.cells
        && report.metrics.tasks_total == inputs.expected_tasks();
    tally.op(ok, || {
        format!(
            "metro report covers {} shards / {covered} cells / {} tasks, expected {} / {} / {}",
            report.shards.len(),
            report.metrics.tasks_total,
            inputs.config.shards,
            inputs.config.cells,
            inputs.expected_tasks()
        )
    });
}

/// The untraced run: set up, then `run()` until the time is spent.
pub fn untraced(kind: MetroKind, ctx: &Ctx) -> Untraced {
    let mut out = Untraced::default();
    let (inputs, sim) = ctx.set_up(&mut out, || set_up(kind, ctx));

    let mut host = HostLevel::new(&[WORKERS]);
    let timed = Instant::now();
    let mut first: Option<PoolMetrics> = None;
    loop {
        let (report, wall) = host.time(|| sim.run());
        out.rep(report.metrics.tasks_total as f64, wall);
        check_report(&mut out.tally, &inputs, &report);
        match &first {
            None => first = Some(report.metrics),
            // The simulator is deterministic: every rep repeats the first.
            Some(m) => out.tally.op(*m == report.metrics, || {
                "a rep's metrics differ from the first rep's".to_string()
            }),
        }
        if ctx.spent(timed, 1.0) {
            break;
        }
    }
    out.levels = host.levels;
    out.extras
        .push(("tasks_per_s", median(&out.rates), "tasks/s"));
    out.extras.push(("reps", out.rates.len() as f64, "count"));
    out
}

/// One batch pass driven from the bench's own threads, a span round each
/// call into a layer. Returns the merged metrics.
fn batch_decomposed(inputs: &MetroInputs, tracer: &Tracer, rep: u64) -> PoolMetrics {
    let shards = inputs.config.shards;
    let root = tracer.begin("metro.run", None, rep);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<PoolMetrics>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..inputs.config.workers.min(shards) {
            scope.spawn(|| loop {
                let shard = next.fetch_add(1, Ordering::SeqCst);
                if shard >= shards {
                    break;
                }
                // What `MetroSimulator::run_shard` does for this shard.
                let cells = inputs.config.shard_cells(shard);
                let seed = inputs.config.shard_seed(shard);
                let mut trace_cfg = inputs.trace.clone();
                trace_cfg.num_cells = cells;
                trace_cfg.seed = seed;
                let trace = tracer.span("traces.generate", root.id(), rep, || generate(&trace_cfg));
                let mut pool_cfg = inputs.pool.clone();
                if let Some(lf) = pool_cfg.fronthaul.as_mut() {
                    lf.seed ^= seed;
                }
                if let SplitPlan::PerCell(plan) = &inputs.pool.split_plan {
                    let offset: usize = (0..shard).map(|s| inputs.config.shard_cells(s)).sum();
                    pool_cfg.split_plan = SplitPlan::PerCell(plan[offset..offset + cells].to_vec());
                }
                let mut pool = tracer.span("sim.pool_new", root.id(), rep, || {
                    PoolSimulator::new(trace, pool_cfg)
                });
                let report = tracer.span("sim.pool_run", root.id(), rep, || pool.run());
                *slots[shard].lock().expect("slot lock") = Some(report.metrics);
            });
        }
    });
    let merged = tracer.span("sim.merge", root.id(), rep, || {
        let mut merged = PoolMetrics::default();
        for slot in &slots {
            let shard = slot.lock().expect("slot lock");
            merged.merge(shard.as_ref().expect("every shard ran"));
        }
        merged
    });
    tracer.end(root);
    merged
}

/// The traced run: reference reps, the batch decomposition, the resident
/// re-drive, and the probes of the layers this workload leans on.
pub fn traced(kind: MetroKind, ctx: &Ctx) -> Traced {
    let mut out = Traced::default();
    let (inputs, sim) = set_up(kind, ctx);
    let tracer = Tracer::enabled();

    // Untraced reference: what the spans' cost is measured against.
    let mut reference_s = Vec::new();
    let started = Instant::now();
    let reference = loop {
        let t = Instant::now();
        let report = sim.run();
        reference_s.push(t.elapsed().as_secs_f64());
        if ctx.spent(started, 0.25) {
            break report;
        }
    };
    check_report(&mut out.tally, &inputs, &reference);
    let reps = reference_s.len();

    // Batch decomposition, as many reps as the reference ran.
    let mut traced_s = Vec::new();
    for rep in 0..reps {
        let t = Instant::now();
        let merged = batch_decomposed(&inputs, &tracer, rep as u64);
        traced_s.push(t.elapsed().as_secs_f64());
        out.tally.op(merged == reference.metrics, || {
            "batch decomposition disagrees with MetroSimulator::run".to_string()
        });
    }
    let spans = tracer.snapshot();
    let per_rep = |name: &str| total_ns(&spans, name) / reps as f64 / 1e6;
    out.set("traces.generate_ms", per_rep("traces.generate"));
    let runs = durations_ns(&spans, "sim.pool_run");
    let imbalance: Vec<f64> = runs
        .chunks(inputs.config.shards)
        .map(|rep| {
            let mean = rep.iter().sum::<f64>() / rep.len() as f64;
            rep.iter().copied().fold(0.0, f64::max) / mean
        })
        .collect();
    out.set("sim.shard_imbalance", median(&imbalance));
    let batch_s = median(&reference_s);
    out.set(
        "bench.trace_overhead_pct",
        100.0 * (median(&traced_s) - batch_s) / batch_s,
    );

    // Resident re-drive of the identical configuration: the phase split.
    let mut resident =
        ResidentMetro::with_pool(inputs.config, inputs.pool.clone(), inputs.trace.clone())
            .expect("benchmark metro configuration validates");
    let epochs = inputs.epochs();
    let mut phases = Phases::default();
    let mut stepped = 0usize;
    let started = Instant::now();
    while stepped < epochs && (stepped < 8 || !ctx.spent(started, 0.3)) {
        let status = tracer.span("sim.step_epoch", None, stepped as u64, || {
            resident.step_epoch()
        });
        phases.add(&status);
        stepped += 1;
    }
    let resident_s = started.elapsed().as_secs_f64();
    if stepped == epochs {
        out.tally
            .op(*resident.cumulative() == reference.metrics, || {
                "resident re-drive disagrees with MetroSimulator::run".to_string()
            });
    }
    let spans = tracer.snapshot();
    // Phase sums are scaled to the whole day when the re-drive was cut
    // short, so they stay comparable with the batch spans.
    let day = epochs as f64 / stepped as f64;
    phases.report(
        &mut out,
        day,
        inputs.config.workers,
        total_ns(&spans, "sim.step_epoch"),
        per_rep("sim.merge"),
    );
    out.set("sim.resident_vs_batch_ratio", resident_s * day / batch_s);

    match kind {
        MetroKind::Clean => out.set("realtime.fifo_ns_per_task", probes::edf_ns_per_task(false)),
        MetroKind::Degraded => {
            out.set("realtime.heap_ns_per_task", probes::edf_ns_per_task(true));
            let fault = inputs.pool.fronthaul.expect("degraded has a link fault");
            out.set(
                "fronthaul.offer_ns",
                probes::fronthaul_offer_ns(fault.config),
            );
        }
        MetroKind::Parallel => out.set(
            "realtime.parallel_us_per_call",
            probes::parallel_us_per_call(inputs.pool.parallel.expect("parallel executor set")),
        ),
    }

    report_counts(&mut out, &reference.metrics);
    out.set("sim.sharding_gain", reference.sharding_gain());
    out.spans = spans;
    out
}
