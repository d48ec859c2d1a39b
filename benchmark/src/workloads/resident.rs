//! `resident_live`: the operator's view. A `SoakRunner` over a resident
//! metro with the live tap, SLO monitor, flight recorder and scrape
//! endpoint attached, driven closed-loop by one client: after each
//! `run_epoch` the bench thread GETs `/metrics`, `/slo`, `/topk` and
//! `/recorder` over loopback before stepping the next epoch. One op is
//! one epoch; every scrape is an op too. A rep is one simulated day
//! (144 epochs).

use std::net::SocketAddr;
use std::time::Instant;

use pran_insight::live::LiveFold;
use pran_insight::openmetrics;
use pran_insight::spans::DEFAULT_BUDGET_US;
use pran_obs::{http_get, Phase, SoakConfig, SoakRunner};
use pran_sim::{MetroSimulator, PoolMetrics, ResidentMetro};
use pran_telemetry::trace::TraceEvent;

use super::phases::{report_counts, Phases};
use crate::calib::{HostLevel, Timed};
use crate::common::{Ctx, Tally, Traced, Untraced, WORKERS};
use crate::inputs::{resident, MetroInputs};
use crate::probes;
use crate::spans::{total_ns, Tracer};
use crate::stats::{median, median_and_tail};

/// The routes the closed-loop client scrapes after every epoch.
const ENDPOINTS: [&str; 4] = ["/metrics", "/slo", "/topk", "/recorder"];

/// Epochs between host-level samples in the untraced run (≈ 100 ms).
const LEVEL_EVERY: usize = 3;

/// Per-shard live ring capacity (the `SoakConfig` default): above the
/// 30,000 events a 750-cell shard emits per epoch, so nothing drops.
const RING: usize = 1 << 16;

fn metro_of(inputs: &MetroInputs) -> ResidentMetro {
    ResidentMetro::with_pool(inputs.config, inputs.pool.clone(), inputs.trace.clone())
        .expect("benchmark metro configuration validates")
}

fn soak_runner(inputs: &MetroInputs, live_insight: bool) -> (SoakRunner, SocketAddr) {
    let mut runner = SoakRunner::new(
        metro_of(inputs),
        SoakConfig {
            live_insight,
            live_ring_capacity: RING,
            ..SoakConfig::default()
        },
    );
    let addr = runner
        .serve("127.0.0.1:0")
        .expect("bind a loopback scrape port");
    (runner, addr)
}

/// Scrape latencies per endpoint, microseconds, and the `/metrics` size.
#[derive(Default)]
struct Scrapes {
    us: [Vec<f64>; 4],
    metrics_bytes: usize,
}

impl Scrapes {
    /// GET every endpoint once; each is an op that must answer `200`
    /// (and `/metrics` must end `# EOF`).
    fn round(&mut self, addr: SocketAddr, tally: &mut Tally) {
        for (i, path) in ENDPOINTS.iter().enumerate() {
            let t = Instant::now();
            let got = http_get(addr, path);
            self.us[i].push(t.elapsed().as_secs_f64() * 1e6);
            let ok = match &got {
                Ok((200, body)) if i == 0 => {
                    self.metrics_bytes = body.len();
                    body.ends_with("# EOF\n")
                }
                Ok((code, _)) => *code == 200,
                Err(_) => false,
            };
            tally.op(ok, || {
                format!("GET {path}: {:?}", got.map(|(code, _)| code))
            });
        }
    }
}

/// Epochs in one rep: one simulated day.
fn rep_epochs(inputs: &MetroInputs, ctx: &Ctx) -> usize {
    inputs.epochs() / ctx.div()
}

/// One reduced-size warm-up soak, then the full-size inputs. Only one
/// live-insight runner may exist at a time (the tap is process-global),
/// so the warm-up runner is dropped before the caller builds its own.
fn set_up(ctx: &Ctx) -> MetroInputs {
    let warm = resident(ctx.seed, ctx.div() * 8);
    let (mut small, addr) = soak_runner(&warm, true);
    drive(
        &mut small,
        addr,
        4,
        &mut Scrapes::default(),
        &mut Tally::default(),
    );
    drop(small);
    resident(ctx.seed, ctx.div())
}

/// Drive `epochs` epochs with the closed-loop scraper; returns the wall
/// seconds and the latency of every epoch, milliseconds.
fn drive(
    soak: &mut SoakRunner,
    addr: SocketAddr,
    epochs: usize,
    scrapes: &mut Scrapes,
    tally: &mut Tally,
) -> (f64, Vec<f64>) {
    let started = Instant::now();
    let mut epoch_ms = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let t = Instant::now();
        soak.run_epoch();
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.ops += 1;
        scrapes.round(addr, tally);
    }
    (started.elapsed().as_secs_f64(), epoch_ms)
}

/// The untraced run.
pub fn untraced(ctx: &Ctx) -> Untraced {
    let mut out = Untraced::default();
    let (inputs, (mut soak, addr)) = ctx.set_up(&mut out, || {
        let inputs = set_up(ctx);
        let soak = soak_runner(&inputs, true);
        (inputs, soak)
    });
    let epochs = rep_epochs(&inputs, ctx);

    let mut scrapes = Scrapes::default();
    let mut checkpoint: Option<PoolMetrics> = None;
    let timed = Instant::now();
    // One rate sample per eighth of a day (scrapes included): the median
    // over them shrugs off a slow phase of the host that a mean over
    // whole days would not. Inside a segment the host level is sampled
    // every few epochs and the epochs' timings divided by it.
    let segment = epochs / 8;
    // An epoch is half parallel (the shards' step) and half serial
    // (merge, drain, fold, publish, scrapes, on this thread alone).
    let mut host = HostLevel::new(&[1, WORKERS]);
    loop {
        for _ in 0..8 {
            let tasks_before = soak.metro().cumulative().tasks_total;
            let mut wall = Timed::default();
            let mut done = 0;
            while done < segment {
                let chunk = LEVEL_EVERY.min(segment - done);
                let scraped = scrapes.us[0].len();
                let ((_, epoch_ms), interval) =
                    host.time(|| drive(&mut soak, addr, chunk, &mut scrapes, &mut out.tally));
                wall += interval;
                for ms in epoch_ms {
                    out.op(interval.part(ms / 1e3));
                }
                for us in scrapes
                    .us
                    .iter_mut()
                    .flat_map(|route| &mut route[scraped..])
                {
                    *us = interval.part(*us / 1e6).cal_s * 1e6;
                }
                done += chunk;
            }
            let tasks = soak.metro().cumulative().tasks_total - tasks_before;
            out.rate(tasks as f64, wall);
        }
        checkpoint.get_or_insert_with(|| soak.metro().cumulative().clone());
        if ctx.spent(timed, 1.0) {
            break;
        }
    }
    out.levels = host.levels;
    let dropped = pran_telemetry::live::dropped();
    out.tally.op(dropped == 0, || {
        format!("live tap dropped {dropped} events")
    });

    // Outside the timed region: the resident cumulative metrics after
    // the first day must equal a batch run of the same configuration.
    let mut trace = inputs.trace.clone();
    trace.duration_seconds =
        (segment * 8 * inputs.pool.epoch_steps) as f64 * inputs.trace.step_seconds;
    let batch = MetroSimulator::with_pool(inputs.config, inputs.pool.clone(), trace)
        .expect("benchmark metro configuration validates")
        .run();
    out.tally
        .op(checkpoint.as_ref() == Some(&batch.metrics), || {
            "resident cumulative metrics differ from the batch run".to_string()
        });

    let (epoch_p50, epoch_tail, epoch_p) = median_and_tail(&out.op_ms);
    let (scrape_p50, scrape_tail, scrape_p) = median_and_tail(&scrapes.us[0]);
    out.extras.extend([
        ("tasks_per_s", median(&out.rates), "tasks/s"),
        ("service_epoch_ms_p50", epoch_p50, "ms"),
        ("service_epoch_ms_tail", epoch_tail, "ms"),
        ("service_epoch_tail_percentile", epoch_p, "p"),
        ("scrape_us_p50", scrape_p50, "us"),
        ("scrape_us_tail", scrape_tail, "us"),
        ("scrape_tail_percentile", scrape_p, "p"),
        ("epochs", out.op_ms.len() as f64, "count"),
    ]);
    out
}

/// `SoakRunner::run_epoch`'s simulation and live-insight steps rebuilt
/// from their public parts — `live::arm`, `ResidentMetro::step_epoch`,
/// `drain_shard_into`, `LiveFold::fold_shard` — with a span round each.
fn decomposed(inputs: &MetroInputs, tracer: &Tracer, epochs: usize) -> (f64, Phases, u64) {
    let mut metro = metro_of(inputs);
    pran_telemetry::live::arm(metro.shard_count(), RING);
    let mut fold = LiveFold::new(
        metro.total_cells(),
        metro.total_servers(),
        DEFAULT_BUDGET_US,
    );
    let mut scratch: Vec<TraceEvent> = Vec::with_capacity(RING);
    let mut phases = Phases::default();
    let started = Instant::now();
    for epoch in 0..epochs as u64 {
        let root = tracer.begin("soak.epoch", None, epoch);
        let status = tracer.span("sim.step_epoch", root.id(), epoch, || metro.step_epoch());
        for shard in 0..metro.shard_count() {
            scratch.clear();
            tracer.span("telemetry.drain", root.id(), epoch, || {
                pran_telemetry::live::drain_shard_into(shard, &mut scratch)
            });
            let (cell_off, server_off) = metro.shard_offsets(shard);
            tracer.span("insight.fold", root.id(), epoch, || {
                fold.fold_shard(
                    &scratch,
                    cell_off,
                    server_off,
                    metro.shard_assignment(shard),
                )
            });
        }
        tracer.end(root);
        phases.add(&status);
    }
    let wall = started.elapsed().as_secs_f64();
    pran_telemetry::live::disarm();
    (wall, phases, fold.events())
}

/// The traced run: an armed and an unarmed soak (their difference is the
/// tap), the decomposition with spans off and on (their difference is
/// the tracing overhead), and the probes.
pub fn traced(ctx: &Ctx) -> Traced {
    let mut out = Traced::default();
    let inputs = set_up(ctx);
    let epochs = rep_epochs(&inputs, ctx) / 2;
    let tracer = Tracer::enabled();

    // Armed soak: scrape latencies, the soak's own telemetry phase, the
    // populated registry, and the exact-repeat counts.
    let (mut armed, addr) = soak_runner(&inputs, true);
    let mut scrapes = Scrapes::default();
    let (armed_s, epoch_ms) = drive(&mut armed, addr, epochs, &mut scrapes, &mut out.tally);
    let cum = armed.metro().cumulative().clone();
    let dropped = pran_telemetry::live::dropped();
    out.set(
        "obs.telemetry_phase_ms_p50",
        armed
            .profiler()
            .histogram(Phase::Telemetry)
            .quantile(0.5)
            .as_secs_f64()
            * 1e3,
    );
    for op in 0..50 {
        let snapshot = tracer.span("telemetry.registry_snapshot", None, op, || {
            armed.registry().snapshot()
        });
        let text = tracer.span("insight.render", None, op, || {
            openmetrics::render(&snapshot)
        });
        std::hint::black_box(text);
    }
    let last_record = armed.recorder().snapshot().last().copied();
    drop(armed);

    // Unarmed soak of the same epochs: what the tap costs.
    let (mut unarmed, addr) = soak_runner(&inputs, false);
    let mut unarmed_scrapes = Scrapes::default();
    let (unarmed_s, _) = drive(
        &mut unarmed,
        addr,
        epochs,
        &mut unarmed_scrapes,
        &mut out.tally,
    );
    drop(unarmed);
    out.set(
        "telemetry.tap_ns_per_task",
        (armed_s - unarmed_s) * 1e9 / cum.tasks_total as f64,
    );

    // The decomposition, spans off then on.
    let (off_s, ..) = decomposed(&inputs, &Tracer::disabled(), epochs);
    let (on_s, phases, events) = decomposed(&inputs, &tracer, epochs);
    out.set("bench.trace_overhead_pct", 100.0 * (on_s - off_s) / off_s);
    out.tally.op(phases.tasks == cum.tasks_total, || {
        "decomposed soak generated a different task count".to_string()
    });

    let spans = tracer.snapshot();
    phases.report(
        &mut out,
        1.0,
        inputs.config.workers,
        total_ns(&spans, "sim.step_epoch"),
        0.0,
    );
    out.set(
        "telemetry.drain_ms",
        total_ns(&spans, "telemetry.drain") / 1e6,
    );
    out.set(
        "insight.fold_ns_per_event",
        total_ns(&spans, "insight.fold") / events as f64,
    );
    out.set(
        "telemetry.registry_snapshot_us",
        total_ns(&spans, "telemetry.registry_snapshot") / 50.0 / 1e3,
    );
    out.set(
        "insight.render_us",
        total_ns(&spans, "insight.render") / 50.0 / 1e3,
    );

    let (epoch_p50, epoch_tail, _) = median_and_tail(&epoch_ms);
    let (scrape_p50, scrape_tail, _) = median_and_tail(&scrapes.us[0]);
    out.set("service_epoch_ms_p50", epoch_p50);
    out.set("service_epoch_ms_tail", epoch_tail);
    out.set("scrape_us_p50", scrape_p50);
    out.set("scrape_us_tail", scrape_tail);
    out.set("obs.scrape_slo_us_p50", median(&scrapes.us[1]));
    out.set("obs.scrape_topk_us_p50", median(&scrapes.us[2]));
    out.set("obs.scrape_recorder_us_p50", median(&scrapes.us[3]));
    out.set("obs.metrics_payload_bytes", scrapes.metrics_bytes as f64);

    out.set("insight.sketch_record_ns", probes::sketch_record_ns());
    out.set("insight.sketch_merge_ns", probes::sketch_merge_ns());
    if let Some(record) = last_record {
        out.set("obs.recorder_push_ns", probes::recorder_push_ns(record));
    }

    report_counts(&mut out, &cum);
    out.set("telemetry.live_dropped", dropped as f64);
    out.tally.op(dropped == 0, || {
        format!("live tap dropped {dropped} events")
    });
    out.spans = spans;
    out
}
