//! `mc_explore`: exhaustive model checking of the control plane.
//! `pran_mc::explore` at 4 cells / 3 servers / depth 8 with every
//! discovered state replayed against the concrete controller, once under
//! linearizable views and once under `Stale{k: 2}`. One op is one
//! `explore`; a rep is the pair (≈ 42 k unique states).

use std::time::Instant;

use pran_mc::{explore, Conformance, McReport, Model};

use crate::calib::{HostLevel, Timed};
use crate::common::{Ctx, Tally, Traced, Untraced};
use crate::inputs::mc;
use crate::spans::{total_ns, Tracer};
use crate::stats::median;

/// Both models of a run.
fn models(ctx: &Ctx, conformance: Conformance) -> [Model; 2] {
    mc(ctx.quick, conformance).map(Model::new)
}

/// Explore both models, a host-level sample round each exploration.
/// Linearizable views must violate nothing, and no replayed state may
/// diverge from the concrete controller under either. Returns the
/// reports and the seconds inside the two `explore` calls.
fn rep(
    models: &[Model; 2],
    tracer: &Tracer,
    op: u64,
    host: &mut HostLevel,
    tally: &mut Tally,
) -> ([McReport; 2], Timed) {
    let [lin, stale] = models;
    let (lin, mut wall) =
        host.time(|| tracer.span("mc.explore_linearizable", None, op, || explore(lin)));
    let (stale, stale_wall) =
        host.time(|| tracer.span("mc.explore_stale", None, op, || explore(stale)));
    wall += stale_wall;
    tally.op(
        lin.total_violations() == 0 && lin.conformance_failures.is_empty(),
        || {
            format!(
                "linearizable: {} violations, {} conformance failures",
                lin.total_violations(),
                lin.conformance_failures.len()
            )
        },
    );
    tally.op(stale.conformance_failures.is_empty(), || {
        format!(
            "stale: {} conformance failures",
            stale.conformance_failures.len()
        )
    });
    ([lin, stale], wall)
}

fn states(reports: &[McReport; 2]) -> usize {
    reports.iter().map(|r| r.states).sum()
}

/// Build the models after a reduced-depth warm-up exploration.
fn set_up(ctx: &Ctx) -> [Model; 2] {
    let warm = mc(true, Conformance::Every).map(Model::new);
    rep(
        &warm,
        &Tracer::disabled(),
        0,
        &mut HostLevel::new(&[1]),
        &mut Tally::default(),
    );
    models(ctx, Conformance::Every)
}

/// The untraced run.
pub fn untraced(ctx: &Ctx) -> Untraced {
    let mut out = Untraced::default();
    let models = ctx.set_up(&mut out, || set_up(ctx));
    let mut host = HostLevel::new(&[1]);
    let tracer = Tracer::disabled();

    let timed = Instant::now();
    let mut first: Option<usize> = None;
    loop {
        let (reports, wall) = rep(&models, &tracer, 0, &mut host, &mut out.tally);
        out.rep(states(&reports) as f64, wall);
        let found = *first.get_or_insert(states(&reports));
        out.tally.op(found == states(&reports), || {
            format!("a rep found {} states, the first {found}", states(&reports))
        });
        if ctx.spent(timed, 1.0) {
            break;
        }
    }
    out.levels = host.levels;
    out.extras.extend([
        ("mc_states_per_s", median(&out.rates), "states/s"),
        ("reps", out.rates.len() as f64, "count"),
        ("states_per_rep", first.unwrap_or(0) as f64, "count"),
    ]);
    out
}

/// The traced run: two reps (one in `--quick`) with spans off, as many
/// with spans on, as many with conformance replay off (its share of the
/// wall is the difference).
pub fn traced(ctx: &Ctx) -> Traced {
    let mut out = Traced::default();
    let every = set_up(ctx);
    let mut host = HostLevel::new(&[1]);
    let unchecked = models(ctx, Conformance::Off);
    let off = Tracer::disabled();
    let tracer = Tracer::enabled();

    let reps = if ctx.quick { 1 } else { 2 };
    // Calibrated seconds: the three timings are compared with each other.
    let mut timed = |models: &[Model; 2], tracer: &Tracer, tally: &mut Tally| {
        let mut walls = Vec::new();
        let mut last = None;
        for op in 0..reps {
            let (reports, wall) = rep(models, tracer, op, &mut host, tally);
            last = Some(reports);
            walls.push(wall.cal_s);
        }
        (median(&walls), last.expect("at least one rep ran"))
    };
    let (off_s, _) = timed(&every, &off, &mut out.tally);
    let (on_s, reports) = timed(&every, &tracer, &mut out.tally);
    let (unchecked_s, _) = timed(&unchecked, &off, &mut out.tally);

    let spans = tracer.snapshot();
    let explore_s =
        (total_ns(&spans, "mc.explore_linearizable") + total_ns(&spans, "mc.explore_stale")) / 1e9;
    let transitions: usize = reports.iter().map(|r| r.transitions).sum();
    let dedup_hits: usize = reports.iter().map(|r| r.dedup_hits).sum();
    out.set("bench.trace_overhead_pct", 100.0 * (on_s - off_s) / off_s);
    // The spans cover every traced rep; `transitions` is one rep's.
    out.set(
        "mc.transitions_per_s",
        (reps as usize * transitions) as f64 / explore_s,
    );
    out.set("mc.conformance_share", 1.0 - unchecked_s / off_s);
    out.set("mc.states", states(&reports) as f64);
    out.set("mc.transitions", transitions as f64);
    out.set(
        "mc.dedup_ratio",
        dedup_hits as f64 / transitions.max(1) as f64,
    );
    out.spans = spans;
    out
}
