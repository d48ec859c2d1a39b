//! `control_day`: the control plane alone. A `Controller` with the warm
//! placer, `FailoverApp` and `LoadBalancerApp::new(0.85)` is driven
//! through a seeded day: per step every cell reports its load and
//! `run_epoch` re-solves; every 8th step server `(7·step) mod servers`
//! fails and three steps later recovers. One op is one `run_epoch`
//! (a failover is an op too). No per-TTI simulation runs, so sim-layer
//! work cannot mask placement and instance-building cost.
//!
//! A rep is one whole day (480 three-minute steps, see
//! `inputs::CONTROL_STEP_SECONDS`); the controller carries on into the
//! next day, over the same rows, for the next rep.

use std::time::{Duration, Instant};

use pran::apps::{FailoverApp, LoadBalancerApp};
use pran::{Controller, Snapshot};
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::migration::incremental_repack;
use pran_sched::placement::{Allowed, CellDemand, PlacementInstance, ServerSpec, WarmPlacer};

use crate::calib::{HostLevel, Timed};
use crate::common::{Ctx, Tally, Traced, Untraced};
use crate::inputs::{control, ControlInputs};
use crate::probes;
use crate::spans::{durations_ns, total_ns, Tracer};
use crate::stats::{median, median_and_tail};

/// Steps between injected server failures.
const FAIL_EVERY: usize = 8;
/// Steps a failed server stays down.
const DOWN_FOR: usize = 3;
/// Steps between host-level samples in the untraced run (≈ 60 ms).
const LEVEL_EVERY: usize = 6;

/// A controller with its cells registered and the two apps installed.
/// Cells register first: with apps installed every registration would
/// rebuild the whole pool view for them, a quadratic set-up no workload
/// step pays.
fn controller(inputs: &ControlInputs) -> Controller {
    let mut ctl = Controller::new(inputs.system.clone());
    for _ in 0..inputs.cells {
        ctl.register_cell();
    }
    ctl.install_app(Box::new(FailoverApp::new()));
    ctl.install_app(Box::new(LoadBalancerApp::new(0.85)));
    ctl
}

/// Latencies and counts of the steps driven so far.
#[derive(Default)]
struct Driven {
    epoch_ms: Vec<f64>,
    failover_ms: Vec<f64>,
    /// Host seconds inside controller calls (reports, epochs, failures,
    /// recoveries) — the benchmark's own validation is not in it.
    busy_s: f64,
    unplaced_max: usize,
}

/// The day's driver: owns the controller and the liveness it injected.
struct Day<'a> {
    inputs: &'a ControlInputs,
    ctl: Controller,
    alive: Vec<bool>,
    step: usize,
}

impl<'a> Day<'a> {
    fn new(inputs: &'a ControlInputs) -> Self {
        Day {
            ctl: controller(inputs),
            alive: vec![true; inputs.system.pool.servers],
            step: 0,
            inputs,
        }
    }

    /// The instance the current placement must satisfy: predicted demand
    /// per cell, the pool's servers, and only alive servers allowed.
    fn instance(&self) -> PlacementInstance {
        let pool = &self.inputs.system.pool;
        PlacementInstance {
            cells: (0..self.inputs.cells)
                .map(|c| CellDemand::flat(c, self.ctl.predicted_gops(c)))
                .collect(),
            servers: (0..pool.servers)
                .map(|id| ServerSpec::plain(id, pool.capacity_gops, pool.server_cost))
                .collect(),
            allowed: Allowed::Uniform(self.alive.clone()),
        }
    }

    /// Drive one step; spans go to `tracer`, timings to `driven`.
    fn step(&mut self, tracer: &Tracer, driven: &mut Driven, tally: &mut Tally) {
        let step = self.step;
        let servers = self.alive.len();
        let op = step as u64;
        let inputs = self.inputs;
        let now = Duration::from_secs_f64(inputs.trace.step_seconds * step as f64);
        let row = &inputs.trace.samples[step % inputs.trace.num_steps()];
        let root = tracer.begin("ctrl.step", None, op);

        let t = Instant::now();
        let reported = tracer.span("ctrl.report_load", root.id(), op, || {
            row.iter()
                .enumerate()
                .all(|(cell, &u)| self.ctl.report_load(cell, u).is_ok())
        });
        let t_epoch = Instant::now();
        let report = tracer.span("ctrl.run_epoch", root.id(), op, || self.ctl.run_epoch(now));
        let epoch_s = t_epoch.elapsed().as_secs_f64();
        driven.busy_s += t.elapsed().as_secs_f64();
        driven.epoch_ms.push(epoch_s * 1e3);
        driven.unplaced_max = driven.unplaced_max.max(report.unplaced);

        // Every post-epoch placement validates against alive servers.
        let valid = self.instance().validate(self.ctl.placement());
        tally.op(reported && valid.is_ok(), || {
            format!("step {step}: reports ok {reported}, placement {valid:?}")
        });

        let t = Instant::now();
        if step.is_multiple_of(FAIL_EVERY) {
            let server = (7 * step) % servers;
            let t_fail = Instant::now();
            let failed = tracer.span("ctrl.server_failed", root.id(), op, || {
                self.ctl.server_failed(server, now)
            });
            driven
                .failover_ms
                .push(t_fail.elapsed().as_secs_f64() * 1e3);
            self.alive[server] = false;
            tally.op(
                failed
                    .as_ref()
                    .is_ok_and(|f| f.replaced == f.displaced.len()),
                || format!("step {step}: failover of server {server}: {failed:?}"),
            );
        }
        if step % FAIL_EVERY == DOWN_FOR {
            let server = (7 * (step - DOWN_FOR)) % servers;
            let recovered = self.ctl.server_recovered(server, now);
            self.alive[server] = true;
            tally.op(recovered.is_ok(), || {
                format!("step {step}: recovery of server {server}: {recovered:?}")
            });
        }
        driven.busy_s += t.elapsed().as_secs_f64();
        tracer.end(root);
        self.step += 1;
    }
}

/// A reduced-size controller driven a few steps, then the full inputs.
fn set_up(ctx: &Ctx) -> ControlInputs {
    let warm = control(ctx.seed, ctx.div() * 8);
    let mut day = Day::new(&warm);
    let (mut driven, mut sink) = (Driven::default(), Tally::default());
    for _ in 0..16 {
        day.step(&Tracer::disabled(), &mut driven, &mut sink);
    }
    control(ctx.seed, ctx.div())
}

/// The untraced run.
pub fn untraced(ctx: &Ctx) -> Untraced {
    let mut out = Untraced::default();
    let inputs = ctx.set_up(&mut out, || set_up(ctx));
    let mut day = Day::new(&inputs);
    let tracer = Tracer::disabled();
    let mut driven = Driven::default();

    // One rate sample per eighth of a day: every run covers whole days,
    // so it always sees the same segments, and the median over them
    // shrugs off a slow phase of the host that a two-day mean would not.
    // Inside a segment the host level is sampled every few steps and the
    // steps' timings divided by it.
    let segment = inputs.trace.num_steps() / 8;
    let mut host = HostLevel::new(&[1]);
    let timed = Instant::now();
    loop {
        for _ in 0..8 {
            let mut busy = Timed::default();
            let mut done = 0;
            while done < segment {
                let steps = LEVEL_EVERY.min(segment - done);
                let (epochs, failovers) = (driven.epoch_ms.len(), driven.failover_ms.len());
                let busy_before = driven.busy_s;
                let ((), interval) = host.time(|| {
                    for _ in 0..steps {
                        day.step(&tracer, &mut driven, &mut out.tally);
                    }
                });
                busy += interval.part(driven.busy_s - busy_before);
                for ms in &mut driven.epoch_ms[epochs..] {
                    let epoch = interval.part(*ms / 1e3);
                    out.op(epoch);
                    *ms = epoch.cal_s * 1e3;
                }
                for ms in &mut driven.failover_ms[failovers..] {
                    *ms = interval.part(*ms / 1e3).cal_s * 1e3;
                }
                done += steps;
            }
            out.rate(segment as f64, busy);
        }
        if ctx.spent(timed, 1.0) {
            break;
        }
    }
    out.levels = host.levels;
    let (epoch_p50, epoch_tail, epoch_p) = median_and_tail(&driven.epoch_ms);
    let (fail_p50, fail_tail, fail_p) = median_and_tail(&driven.failover_ms);
    out.extras.extend([
        ("ctrl_steps_per_s", median(&out.rates), "1/s"),
        ("ctrl_epoch_ms_p50", epoch_p50, "ms"),
        ("ctrl_epoch_ms_tail", epoch_tail, "ms"),
        ("ctrl_epoch_tail_percentile", epoch_p, "p"),
        ("failover_ms_p50", fail_p50, "ms"),
        ("failover_ms_tail", fail_tail, "ms"),
        ("failover_tail_percentile", fail_p, "p"),
        ("steps", driven.epoch_ms.len() as f64, "count"),
        ("unplaced_max", driven.unplaced_max as f64, "count"),
    ]);
    out
}

/// The traced run: the first half of the day with spans off, the same
/// half on a fresh controller with spans on plus, every 10th step, the
/// placement layer's own entry points on an instance rebuilt from the
/// controller's predicted demand.
pub fn traced(ctx: &Ctx) -> Traced {
    let mut out = Traced::default();
    let inputs = set_up(ctx);
    let steps = inputs.trace.num_steps() / 2;

    let off = Tracer::disabled();
    let mut day = Day::new(&inputs);
    let mut untraced = Driven::default();
    let t = Instant::now();
    for _ in 0..steps {
        day.step(&off, &mut untraced, &mut out.tally);
    }
    let off_s = t.elapsed().as_secs_f64();

    let tracer = Tracer::enabled();
    let mut day = Day::new(&inputs);
    let mut driven = Driven::default();
    let mut shadow = WarmPlacer::new(inputs.system.warm.expect("control_day places warm"));
    let mut on_s = 0.0;
    for step in 0..steps {
        let t = Instant::now();
        day.step(&tracer, &mut driven, &mut out.tally);
        on_s += t.elapsed().as_secs_f64();
        let op = step as u64;
        if step.is_multiple_of(10) {
            // The controller's own instance shape: a cells × servers
            // matrix of allowed pairs (its cost is `ctrl.residual`).
            let mut instance = day.instance();
            instance.allowed = vec![day.alive.clone(); inputs.cells].into();
            shadow.adopt(day.ctl.placement());
            tracer.span("placement.warm_epoch", None, op, || shadow.epoch(&instance));
            tracer.span("placement.cold_repack", None, op, || {
                incremental_repack(&instance, day.ctl.placement())
            });
            tracer.span("placement.bfd", None, op, || {
                place(&instance, Heuristic::BestFitDecreasing)
            });
            tracer.span("ctrl.view", None, op, || day.ctl.view());
        }
        if step.is_multiple_of(60) {
            let restored = tracer.span("ctrl.snapshot_roundtrip", None, op, || {
                let text = serde_json::to_string(&day.ctl.snapshot()).expect("snapshot serializes");
                serde_json::from_str::<Snapshot>(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|s| Controller::try_restore(s).map_err(|e| e.to_string()))
            });
            out.tally.op(
                restored
                    .as_ref()
                    .is_ok_and(|c| c.placement() == day.ctl.placement()),
                || format!("step {step}: snapshot round trip: {:?}", restored.err()),
            );
        }
    }
    out.set("bench.trace_overhead_pct", 100.0 * (on_s - off_s) / off_s);

    let spans = tracer.snapshot();
    let p50_ms = |name: &str| median(&durations_ns(&spans, name)) / 1e6;
    let warm_p50 = p50_ms("placement.warm_epoch");
    out.set("placement.warm_epoch_ms_p50", warm_p50);
    out.set(
        "placement.cold_repack_ms_p50",
        p50_ms("placement.cold_repack"),
    );
    out.set("placement.bfd_ms_p50", p50_ms("placement.bfd"));
    out.set("ctrl.view_ms", p50_ms("ctrl.view"));
    out.set(
        "ctrl.snapshot_roundtrip_ms",
        p50_ms("ctrl.snapshot_roundtrip"),
    );
    out.set(
        "ctrl.report_load_ns",
        total_ns(&spans, "ctrl.report_load") / (steps * inputs.cells) as f64,
    );
    out.set("ctrl.residual_ms_p50", median(&driven.epoch_ms) - warm_p50);
    // The user-visible latencies come from the spans-off pass.
    let (epoch_p50, epoch_tail, _) = median_and_tail(&untraced.epoch_ms);
    let (fail_p50, fail_tail, _) = median_and_tail(&untraced.failover_ms);
    out.set("ctrl_epoch_ms_p50", epoch_p50);
    out.set("ctrl_epoch_ms_tail", epoch_tail);
    out.set("failover_ms_p50", fail_p50);
    out.set("failover_ms_tail", fail_tail);
    out.set("phy.cell_gops_ns", probes::cell_gops_ns());
    out.set("ctrl.migrations", day.ctl.stats().migrations as f64);
    out.set("ctrl.unplaced_max", driven.unplaced_max as f64);
    out.spans = spans;
    out
}
