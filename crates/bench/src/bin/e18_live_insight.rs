//! E18 — the live insight plane end to end: multi-window burn-rate
//! alerting scored against chaos ground truth, the streaming
//! attribution fold proven equal to the post-hoc pipeline, and the
//! measured cost of keeping the plane armed.
//!
//! Three phases:
//!
//! 1. **Alerting** — seeded resident-metro scenarios in three classes:
//!    healthy (no fault), blip (a whole shard dies for one epoch, then
//!    revives) and sustained (the shard stays dead). Ground truth per
//!    scenario is the chaos-aligned safety envelope — did any epoch
//!    record a `violation`? The prediction is whether a multi-window
//!    burn-rate alert fired. The confusion matrix is held: precision
//!    must be exactly 1.000 (both windows must agree before paging, so
//!    a blip can never fire) and recall must clear the floor — blips
//!    are the *designed* false negatives, the price of page-worthiness.
//! 2. **Differential** — a fronthaul-jittered soak runs with both the
//!    buffered tracer and the live plane on; per shard, the buffered
//!    events are exported to JSONL, parsed back and run through the
//!    post-hoc reference (`spans::critical_paths`), and the per-cell
//!    blame, per-cell misses, stage totals and miss count of the
//!    shards' own folds (`MetroFold`) must equal the sums over those
//!    paths; the fold state must also serialize byte-identically across
//!    1 vs 8 worker crews. The buffered trace is flushed to
//!    `results/e18_live_insight.trace.jsonl` and schema-validated.
//! 3. **Overhead** — the identical soak workload three ways: live
//!    plane off, armed, and the post-hoc round trip it replaces
//!    (buffered sim tracer drained and `spans`-analyzed each epoch).
//!    The cost is measured against *off*: `telemetry_overhead_pct`
//!    (armed vs off, signed) is reported, and the amortized per-task
//!    attribution cost has a constant ceiling. The whole section is
//!    wall-clock and goes to `results/e18_live_insight.host.json`.
//!
//! Exit status is non-zero if precision dips below 1, recall misses the
//! floor, any live-vs-post-hoc comparison diverges, the trace fails
//! validation, or the armed plane costs more than the per-task ceiling.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::Report;
use pran_fronthaul::fault::FaultConfig;
use pran_insight::spans::{self, DEFAULT_BUDGET_US, STAGE_NAMES};
use pran_obs::{SoakConfig, SoakRunner};
use pran_sim::{LinkFault, MetroConfig, PoolConfig, ResidentMetro};
use pran_telemetry::export::{events_from_trace, parse_jsonl, to_jsonl};
use pran_telemetry::trace::TraceEvent;
use pran_traces::TraceConfig;

/// Recall floor for the alerting confusion matrix. With the default
/// class mix (7 healthy / 3 blip / 10 sustained per 20 scenarios) the
/// alerter's designed recall is 10/13 ≈ 0.769: sustained breaches all
/// page, blips are deliberately ignored.
const RECALL_FLOOR: f64 = 0.765;

/// Gate on the armed live plane's amortized cost per subframe task,
/// against the same soak with it off: two sketch increments and a
/// deadline compare in the shard's metrics loop measure ≈ 10 ns beside
/// a ≈ 100 ns/task jittered kernel; the ceiling leaves room for host
/// noise on a 0.1 s wall, not for an event per task (≈ 250 ns).
const ATTRIBUTION_NS_PER_TASK_MAX: f64 = 60.0;

/// Epoch the fault lands in (blip + sustained classes).
const FAIL_EPOCH: u64 = 6;

/// Epochs each alerting scenario runs.
const HORIZON: u64 = 24;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Class {
    Healthy,
    Blip,
    Sustained,
}

impl Class {
    /// Deterministic class mix: 7 healthy, 3 blip, 10 sustained per 20.
    fn of(index: usize) -> Self {
        match index % 20 {
            0..=6 => Class::Healthy,
            7..=9 => Class::Blip,
            _ => Class::Sustained,
        }
    }
}

fn resident(cells: usize, shards: usize, seed: u64) -> ResidentMetro {
    let mut config = MetroConfig::default_eval(cells, shards);
    config.seed = seed;
    ResidentMetro::try_new(config).expect("metro config validates")
}

/// A metro whose fronthaul jitter eats the compute budget on a fraction
/// of tasks: deadline misses from *executed* tasks, which is what the
/// attribution plane explains stage by stage.
fn jittery(cells: usize, shards: usize, workers: usize, seed: u64) -> ResidentMetro {
    let mut mc = MetroConfig::default_eval(cells, shards);
    mc.seed = seed;
    mc.workers = workers;
    let mut pool = PoolConfig::default_eval(mc.servers_per_shard);
    pool.fronthaul = Some(LinkFault {
        config: FaultConfig {
            max_jitter: Duration::from_millis(2),
            ..FaultConfig::clean()
        },
        seed: 5,
    });
    let trace = TraceConfig::default_day(mc.cells, mc.seed);
    ResidentMetro::with_pool(mc, pool, trace).expect("jittered metro validates")
}

fn main() -> ExitCode {
    let applied = bench::telemetry::init_from_env();

    let scenarios = 40usize;
    let seed = 2026u64;

    println!("E18: live insight plane ({scenarios} alerting scenarios, seed {seed})\n");

    // --- phase 1: burn-rate alerting vs chaos ground truth ---
    println!("== alerting: multi-window burn rules vs the safety envelope ==");
    let (mut tp, mut fp, mut fneg, mut tn) = (0u64, 0u64, 0u64, 0u64);
    let mut pages = 0u64;
    let mut tickets = 0u64;
    let mut detection_epochs = Vec::new();
    for i in 0..scenarios {
        let class = Class::of(i);
        let mut metro = resident(64, 2, seed.wrapping_add(i as u64));
        let mut truth = false;
        let mut first_alert: Option<u64> = None;
        for epoch in 0..HORIZON {
            if class != Class::Healthy && epoch == FAIL_EPOCH {
                let all = metro.config().servers_per_shard;
                metro.kill_servers(0, all);
            }
            if class == Class::Blip && epoch == FAIL_EPOCH + 1 {
                metro.revive_all();
            }
            let status = metro.step_epoch();
            truth |= status.record.violation;
            if let Some(alert) = &status.burn_alert {
                first_alert.get_or_insert(status.record.epoch);
                match alert.severity {
                    pran_insight::BurnSeverity::Page => pages += 1,
                    pran_insight::BurnSeverity::Ticket => tickets += 1,
                }
            }
        }
        match (truth, first_alert.is_some()) {
            (true, true) => {
                tp += 1;
                detection_epochs.push(first_alert.unwrap().saturating_sub(FAIL_EPOCH) as f64);
            }
            (false, true) => fp += 1,
            (true, false) => fneg += 1,
            (false, false) => tn += 1,
        }
    }
    let precision = if tp + fp > 0 {
        tp as f64 / (tp + fp) as f64
    } else {
        1.0
    };
    let recall = if tp + fneg > 0 {
        tp as f64 / (tp + fneg) as f64
    } else {
        0.0
    };
    let mean_detection = if detection_epochs.is_empty() {
        0.0
    } else {
        detection_epochs.iter().sum::<f64>() / detection_epochs.len() as f64
    };
    let precision_ok = (precision - 1.0).abs() < f64::EPSILON;
    let recall_ok = recall > RECALL_FLOOR;
    println!(
        "tp {tp} fp {fp} fn {fneg} tn {tn} -> precision {precision:.3} \
         (must be 1.000: {precision_ok}), recall {recall:.3} \
         (floor {RECALL_FLOOR}: {recall_ok}); {pages} page(s), {tickets} ticket(s), \
         mean detection {mean_detection:.1} epoch(s) after the fault"
    );

    // --- phase 2: live attribution == post-hoc, over a jittered soak ---
    println!("\n== differential: streaming fold vs post-hoc pipeline ==");
    pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
    pran_telemetry::metrics::global().clear();
    let metro = jittery(16, 2, 2, seed);
    let shards = metro.shard_count();
    let diff_epochs = 4u64;
    let mut runner = SoakRunner::new(
        metro,
        SoakConfig {
            live_insight: true,
            ..SoakConfig::default()
        },
    );
    let mut buffered: Vec<TraceEvent> = Vec::new();
    for _ in 0..diff_epochs {
        runner.run_epoch();
        buffered.append(&mut pran_telemetry::trace::drain());
    }
    pran_telemetry::configure(applied);

    let fold = runner.live_fold().expect("live insight armed");
    let mut cell_blame = vec![[0u64; 4]; fold.cell_count()];
    let mut cell_misses = vec![0u64; fold.cell_count()];
    let mut paths_compared = 0usize;
    let mut posthoc_totals = [0u64; 4];
    for shard in 0..shards {
        let shard_events: Vec<TraceEvent> = buffered
            .iter()
            .filter(|e| e.field_u64("shard").unwrap_or(0) == shard as u64)
            .copied()
            .collect();
        // Through the wire format: the reference sees what an operator
        // reading the exported artifact would.
        let parsed = parse_jsonl(&to_jsonl(&shard_events)).expect("exported trace parses back");
        let posthoc = spans::critical_paths(&parsed, DEFAULT_BUDGET_US);
        let (cell_offset, _) = runner.metro().shard_offsets(shard);
        for path in &posthoc {
            let cell = cell_offset + path.cell as usize;
            for (slot, stage) in cell_blame[cell].iter_mut().zip(STAGE_NAMES) {
                *slot += path.stage_us(stage);
            }
            cell_misses[cell] += 1;
        }
        paths_compared += posthoc.len();
        for (slot, (_, us)) in posthoc_totals
            .iter_mut()
            .zip(spans::attribution_totals(&posthoc))
        {
            *slot += us;
        }
    }
    let cells_equal = (0..fold.cell_count()).all(|cell| {
        fold.cell_blame(cell) == cell_blame[cell] && fold.cell_misses(cell) == cell_misses[cell]
    }) && fold.misses() == paths_compared as u64;
    let totals_equal = fold
        .totals()
        .iter()
        .zip(posthoc_totals.iter())
        .all(|((_, live_us), posthoc_us)| live_us == posthoc_us);
    let live_posthoc_equal = cells_equal && totals_equal && paths_compared > 0 && fold.misses() > 0;
    println!(
        "{} folded record(s), {} task(s), {} miss(es); {paths_compared} critical \
         path(s) compared across {shards} shard(s) after a JSONL round trip: \
         per-cell blame and misses equal {cells_equal}, stage totals equal {totals_equal}",
        fold.events(),
        fold.tasks(),
        fold.misses(),
    );
    let fold_totals: Vec<serde_json::Value> = fold
        .totals()
        .iter()
        .map(|(name, us)| serde_json::json!({"stage": *name, "blame_us": *us}))
        .collect();
    let (fold_tasks, fold_misses, fold_events) = (fold.tasks(), fold.misses(), fold.events());

    // Worker invariance: identical metros on 1- vs 8-worker crews must
    // fold to byte-identical serialized state.
    let fold_states: Vec<String> = [1usize, 8]
        .into_iter()
        .map(|workers| {
            let mut r = SoakRunner::new(
                jittery(16, 2, workers, seed),
                SoakConfig {
                    live_insight: true,
                    ..SoakConfig::default()
                },
            );
            for _ in 0..3 {
                r.run_epoch();
            }
            serde_json::to_string(&r.live_fold().expect("live insight armed"))
                .expect("fold serializes")
        })
        .collect();
    let worker_invariant = fold_states[0] == fold_states[1];
    println!("fold state 1-worker == 8-worker: {worker_invariant}");

    // The buffered trace doubles as a schema-conformance artifact.
    std::fs::create_dir_all("results").expect("create results dir");
    let trace_path = "results/e18_live_insight.trace.jsonl";
    let trace_lines =
        pran_telemetry::export::write_jsonl(trace_path, &buffered).expect("write trace");
    let trace_ok = match pran_telemetry::export::validate_jsonl(
        &std::fs::read_to_string(trace_path).expect("read trace back"),
    ) {
        Ok(n) => {
            println!("[trace validated: {n} events conform to the exporter schema]");
            true
        }
        Err(e) => {
            eprintln!("trace schema invalid: {e}");
            false
        }
    };

    // --- phase 3: measured cost of the armed live plane ---
    println!("\n== overhead: live plane off vs armed vs the post-hoc round trip ==");
    let (o_cells, o_shards, o_epochs) = (2_000usize, 4usize, 16u64);
    let mut o_tasks = 0u64;
    // One wall sample per mode: `live` arms the plane (every shard folds
    // what it executes); `posthoc` instead runs the pipeline the live
    // plane replaces — buffered sim tracer, drained each epoch and
    // analyzed per shard with the batch `spans` code (generous to
    // post-hoc: a real deployment also pays the JSONL round trip).
    let mut soak_wall = |live: bool, posthoc: bool| -> f64 {
        if posthoc {
            pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
            let _ = pran_telemetry::trace::drain();
        }
        let mut r = SoakRunner::new(
            jittery(o_cells, o_shards, 2, seed),
            SoakConfig {
                live_insight: live,
                ..SoakConfig::default()
            },
        );
        let t0 = Instant::now();
        for _ in 0..o_epochs {
            r.run_epoch();
            if posthoc {
                let epoch_events = pran_telemetry::trace::drain();
                for shard in 0..o_shards {
                    let shard_events: Vec<TraceEvent> = epoch_events
                        .iter()
                        .filter(|e| e.field_u64("shard").unwrap_or(0) == shard as u64)
                        .copied()
                        .collect();
                    let owned = events_from_trace(&shard_events);
                    let paths = spans::critical_paths(&owned, DEFAULT_BUDGET_US);
                    std::hint::black_box(spans::attribution_totals(&paths));
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        if posthoc {
            pran_telemetry::configure(applied);
        }
        o_tasks = r.metro().cumulative().tasks_total;
        wall
    };
    // Warm-up: page in the workload once.
    let _ = soak_wall(false, false);
    // Minimum over rounds, the modes alternating inside a round: wall
    // ratios on shared runners are noisy, the minimum is the stable
    // estimator of the true cost, and a slow stretch of the host then
    // falls on every mode alike. Off and armed differ by a few
    // milliseconds, so they get nine rounds; the post-hoc round trip is
    // twenty times either and is only reported, so three.
    let mut walls = [f64::INFINITY; 3];
    for round in 0..9 {
        let modes = [(false, false), (true, false), (false, true)];
        for (wall, (live, posthoc)) in walls.iter_mut().zip(modes) {
            if !posthoc || round < 3 {
                *wall = wall.min(soak_wall(live, posthoc));
            }
        }
    }
    let [wall_off, wall_live, wall_posthoc] = walls;
    // Everything is measured against *off* and signed:
    // `telemetry_overhead_pct` is what arming the live plane adds to the
    // soak, `attribution_ns_per_task` the same difference per task
    // (the transferable number: the percentage depends on how heavy the
    // kernel beside it is, and swung +10…+58 across runs on one host, so
    // only the per-task cost is held to a ceiling). The post-hoc pipeline
    // the plane replaces is reported beside them.
    let telemetry_overhead_pct = 100.0 * (wall_live - wall_off) / wall_off.max(1e-9);
    let posthoc_vs_off_pct = 100.0 * (wall_posthoc - wall_off) / wall_off.max(1e-9);
    let attribution_ns_per_task = (wall_live - wall_off) * 1e9 / o_tasks.max(1) as f64;
    let live_vs_posthoc = wall_live / wall_posthoc.max(1e-9);
    let overhead_ok = attribution_ns_per_task <= ATTRIBUTION_NS_PER_TASK_MAX;
    println!(
        "{o_cells} cells / {o_shards} shards / {o_epochs} epochs ({o_tasks} tasks), min of 9 / 9 / 3:\n\
         off {:.0} ms, armed {:.0} ms ({telemetry_overhead_pct:+.1}%, \
         {attribution_ns_per_task:.1} ns/task), post-hoc round trip {:.0} ms \
         ({posthoc_vs_off_pct:+.1}%, armed/post-hoc {live_vs_posthoc:.3})\n\
         -> ceiling ≤ {ATTRIBUTION_NS_PER_TASK_MAX} ns/task: {overhead_ok}",
        wall_off * 1e3,
        wall_live * 1e3,
        wall_posthoc * 1e3
    );

    Report::new("e18_live_insight")
        .meta("scenarios", serde_json::json!(scenarios))
        .meta("seed", serde_json::json!(seed))
        .meta("horizon_epochs", serde_json::json!(HORIZON))
        .meta("recall_floor", serde_json::json!(RECALL_FLOOR))
        .section(
            "alerting",
            serde_json::json!({
                "scenarios": scenarios,
                "fail_epoch": FAIL_EPOCH,
                "true_positives": tp,
                "false_positives": fp,
                "false_negatives": fneg,
                "true_negatives": tn,
                "precision": precision,
                "recall": recall,
                "pages": pages,
                "tickets": tickets,
                "mean_detection_epochs": mean_detection,
                "precision_ok": precision_ok,
                "recall_ok": recall_ok,
            }),
        )
        .section(
            "differential",
            serde_json::json!({
                "epochs": diff_epochs,
                "shards": shards,
                "paths_compared": paths_compared,
                "fold_events": fold_events,
                "fold_tasks": fold_tasks,
                "fold_misses": fold_misses,
                "totals": fold_totals,
                "live_posthoc_equal": live_posthoc_equal,
                "worker_invariant": worker_invariant,
                "trace_lines": trace_lines,
                "trace_ok": trace_ok,
            }),
        )
        .section(
            "overhead",
            serde_json::json!({
                "cells": o_cells,
                "shards": o_shards,
                "epochs": o_epochs,
                "tasks": o_tasks,
            }),
        )
        .host(
            "overhead",
            serde_json::json!({
                "tap_off_wall_ms": wall_off * 1e3,
                "tap_armed_wall_ms": wall_live * 1e3,
                "posthoc_wall_ms": wall_posthoc * 1e3,
                "telemetry_overhead_pct": telemetry_overhead_pct,
                "posthoc_vs_off_pct": posthoc_vs_off_pct,
                "attribution_ns_per_task": attribution_ns_per_task,
                "attribution_ns_per_task_max": ATTRIBUTION_NS_PER_TASK_MAX,
                "live_vs_posthoc_ratio": live_vs_posthoc,
            }),
        )
        .save();

    let ok = precision_ok
        && recall_ok
        && live_posthoc_equal
        && worker_invariant
        && trace_ok
        && overhead_ok;
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "E18 FAILED: precision_ok={precision_ok} recall_ok={recall_ok} \
             live_posthoc_equal={live_posthoc_equal} worker_invariant={worker_invariant} \
             trace_ok={trace_ok} overhead_ok={overhead_ok}"
        );
        ExitCode::FAILURE
    }
}
