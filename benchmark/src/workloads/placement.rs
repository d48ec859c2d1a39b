//! `placement_exact`: the paper's second leg. A fixed library of forty
//! ten-cell peak-hour instances, permuted by `--seed`, solved exactly by
//! `pran_sched::placement::ilp::solve` under a node limit (never a time
//! limit, so the work is deterministic). One op is one solve; the timed
//! unit is one pass over the batch, because per-instance times are
//! bimodal (≈ 0.3 ms when the root proves optimality, ≈ 350 ms when the
//! node limit stops the search) and only the batch is a stable number.

use std::time::Instant;

use pran_ilp::{solve_ilp, BnbConfig, IlpStatus};
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::{ilp, PlacementInstance};

use crate::calib::{HostLevel, Timed};
use crate::common::{Ctx, Tally, Traced, Untraced};
use crate::inputs::{placement, placement_limits};
use crate::spans::{total_ns, Tracer};
use crate::stats::median;

/// Exact-repeat counts of one pass.
#[derive(Debug, Default, PartialEq, Eq)]
struct PassCounts {
    nodes: usize,
    optimal: usize,
}

/// Solve every instance once, timing each solve with a host-level sample
/// either side (a hard instance is a third of a second, long enough for
/// the host to change speed under a whole pass). Each incumbent must
/// validate, use no more servers than first-fit-decreasing (it is
/// warm-started from FFD) and no fewer than the instance's lower bound.
/// Returns the pass's counts and the seconds inside `ilp::solve`.
fn pass(
    batch: &[PlacementInstance],
    limits: &BnbConfig,
    host: &mut HostLevel,
    tally: &mut Tally,
) -> (PassCounts, Timed) {
    let mut counts = PassCounts::default();
    let mut total = Timed::default();
    for (i, instance) in batch.iter().enumerate() {
        let (solved, timed) = host.time(|| ilp::solve(instance, limits));
        total += timed;
        counts.nodes += solved.nodes;
        counts.optimal += usize::from(solved.optimal);
        let ffd = place(instance, Heuristic::FirstFitDecreasing);
        let ffd_servers = instance.servers_used(&ffd.placement);
        let ok = solved.placement.as_ref().is_some_and(|p| {
            let used = instance.servers_used(p);
            instance.validate(p).is_ok()
                && used <= ffd_servers
                && used >= instance.lower_bound_servers()
        });
        tally.op(ok, || {
            format!(
                "instance {i}: incumbent {:?}, FFD uses {ffd_servers}, lower bound {}",
                solved.placement.as_ref().map(|p| instance.servers_used(p)),
                instance.lower_bound_servers()
            )
        });
    }
    (counts, total)
}

/// Generate the batch and its limits after a reduced-size warm-up pass
/// (an eighth of the instances under an eighth of the node limit).
fn set_up(ctx: &Ctx) -> (Vec<PlacementInstance>, BnbConfig) {
    let warm = placement(ctx.seed, ctx.div() * 8);
    pass(
        &warm,
        &placement_limits(ctx.div() * 8),
        &mut HostLevel::new(&[1]),
        &mut Tally::default(),
    );
    (placement(ctx.seed, ctx.div()), placement_limits(ctx.div()))
}

/// The untraced run.
pub fn untraced(ctx: &Ctx) -> Untraced {
    let mut out = Untraced::default();
    let (batch, limits) = ctx.set_up(&mut out, || set_up(ctx));
    let mut host = HostLevel::new(&[1]);

    let timed = Instant::now();
    let mut first: Option<PassCounts> = None;
    loop {
        let (counts, wall) = pass(&batch, &limits, &mut host, &mut out.tally);
        out.rep(batch.len() as f64, wall);
        match &first {
            None => first = Some(counts),
            Some(f) => out.tally.op(*f == counts, || {
                format!("a pass explored {counts:?}, the first {f:?}")
            }),
        }
        if ctx.spent(timed, 1.0) {
            break;
        }
    }
    out.levels = host.levels;
    out.extras.extend([
        ("ilp_solves_per_s", median(&out.rates), "1/s"),
        ("passes", out.rates.len() as f64, "count"),
        (
            "nodes_per_pass",
            first.map_or(0.0, |c| c.nodes as f64),
            "count",
        ),
    ]);
    out
}

/// The traced run: one untraced pass, then one pass that takes
/// `ilp::solve` apart — `build_model`, the FFD warm start, `solve_ilp` —
/// with a span round each, which also exposes the pivot count.
pub fn traced(ctx: &Ctx) -> Traced {
    let mut out = Traced::default();
    let (batch, limits) = set_up(ctx);
    let mut host = HostLevel::new(&[1]);

    let t = Instant::now();
    let (reference, _) = pass(&batch, &limits, &mut host, &mut out.tally);
    let off_s = t.elapsed().as_secs_f64();

    let tracer = Tracer::enabled();
    let (mut nodes, mut pivots, mut optimal) = (0usize, 0usize, 0usize);
    let t = Instant::now();
    for (i, instance) in batch.iter().enumerate() {
        let op = i as u64;
        let root = tracer.begin("ilp.solve", None, op);
        let (model, x, y) = tracer.span("ilp.build_model", root.id(), op, || {
            ilp::build_model(instance)
        });
        let mut config = limits.clone();
        let seed = tracer.span("placement.ffd", root.id(), op, || {
            place(instance, Heuristic::FirstFitDecreasing)
        });
        if seed.complete() {
            let mut values = vec![0.0; model.num_vars()];
            for (cell, assigned) in seed.placement.assignment.iter().enumerate() {
                if let Some(s) = *assigned {
                    if let Some(v) = x[cell][s] {
                        values[v.index()] = 1.0;
                    }
                    values[y[s].index()] = 1.0;
                }
            }
            config.initial = Some(values);
        }
        let result = tracer.span("ilp.branch_bound", root.id(), op, || {
            solve_ilp(&model, &config)
        });
        tracer.end(root);
        nodes += result.stats.nodes;
        pivots += result.stats.lp_iterations;
        optimal += usize::from(result.status == IlpStatus::Optimal);
    }
    let on_s = t.elapsed().as_secs_f64();
    out.tally
        .op(reference == PassCounts { nodes, optimal }, || {
            format!("decomposed pass explored {nodes} nodes, ilp::solve {reference:?}")
        });

    let spans = tracer.snapshot();
    let search_s = total_ns(&spans, "ilp.branch_bound") / 1e9;
    out.set("bench.trace_overhead_pct", 100.0 * (on_s - off_s) / off_s);
    out.set("ilp.nodes_per_s", nodes as f64 / search_s);
    out.set("ilp.pivots_per_s", pivots as f64 / search_s);
    out.set(
        "ilp.build_model_ms",
        total_ns(&spans, "ilp.build_model") / 1e6,
    );
    out.set("ilp.nodes", nodes as f64);
    out.set("ilp.lp_iterations", pivots as f64);
    out.set("ilp.optimal_share", optimal as f64 / batch.len() as f64);
    out.spans = spans;
    out
}
