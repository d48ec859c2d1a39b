//! Exact placement via the in-repo ILP solver.
//!
//! The formulation is the bin-packing-with-conflicts ILP:
//!
//! ```text
//! min  Σ_s cost_s · y_s
//! s.t. Σ_s x_{c,s} = 1                      ∀ cell c (allowed servers only)
//!      Σ_c g_c · x_{c,s} ≤ G_s · y_s        ∀ server s
//!      x, y ∈ {0,1}
//! ```
//!
//! The capacity row already couples `x` and `y` linearly, so the model has
//! no bilinear term.
//!
//! Its LP bound is the continuous one, `Σg/G`, which rounds up to
//! `⌈Σg/G⌉` while the answer is often one server more; only a search
//! could close that gap. On a uniform pool (servers of one capacity and
//! cost, none accelerated, no mask) the model closes it at the root where
//! the Gilmore–Gomory pattern bound does, with one more row:
//!
//! ```text
//!      Σ_s y_s ≥ k                          k = pattern bound
//! ```
//!
//! - **Gate.** The bound is computed only when first-fit decreasing uses
//!   more servers than Martello–Toth L2, and the row is added only when
//!   `k > ⌈Σg/G⌉`, so every other model is the one without it. L2 is a
//!   gate and never the row's `k`: its compares take `G` as exact, so
//!   under the fit tolerance it can exceed the servers a packing needs.
//! - **Certificate.** `k` is [`pattern_bound`]: row generation on the
//!   pattern LP's dual, priced by an exact knapsack whose fit is never
//!   stricter than this model's capacity row — it admits a server load
//!   up to `G · (1 + FIT_TOLERANCE) + INCUMBENT_TOL`, past both
//!   [`ServerSpec::fits`] and the absolute slack branch and bound accepts
//!   a row with. Each round's duals `π` give `k = ⌈Σπ / max_p π·p −
//!   1e-9⌉` with the knapsack's exact `max_p`, so any `π`, one cut short
//!   by the round cap included, gives a valid `k`
//!   ([`pran_ilp::knapsack::binpack_lower_bound_patterns`]).
//! - **Proof before the model.** On a uniform pool the solve has a lower
//!   bound on the cost, `cost · max(L1, k)`, with L1
//!   [`PlacementInstance::lower_bound_servers`] and `k` the pattern bound
//!   where the gate computed it. The bound holds for every placement the
//!   search accepts because each cell sits on an open server, loaded to
//!   at most `G · (1 + FIT_TOLERANCE)`; a cell of at most
//!   [`INCUMBENT_TOL`] GOPS could sit on a closed one within a capacity
//!   row's slack, so an instance with one gets no bound. Where first fit
//!   decreasing's start meets it under branch and bound's own prune test
//!   ([`pran_ilp::prunes`]), and the start is one branch and bound
//!   certainly accepts (no server loaded past `G`), the solve returns
//!   that start as branch and bound would: optimal, one node, no pivots,
//!   the model's objective at the start. No model, presolve or simplex is
//!   built. Every other solve builds the model and searches it with
//!   [`solve_ilp`] from the same start; a start the bound meets but that
//!   loads a server within the fit tolerance past `G` is left to the
//!   root LP. On `placement_exact`'s forty-instance library the bound
//!   proves every instance but 16, whose optimum (3) is one server below
//!   first fit's, and none of the 39 builds a model.

use std::cell::OnceCell;
use std::time::{Duration, Instant};

use pran_ilp::knapsack::{
    binpack_lower_bound_l1, binpack_lower_bound_l2, binpack_lower_bound_patterns,
};
use pran_ilp::{
    prunes, solve_ilp, BnbConfig, Cmp, IlpStatus, LinExpr, Model, PresolveStats, Sense, VarId,
    INCUMBENT_TOL,
};

use super::heuristics::{decreasing_order, place, Heuristic, HeuristicResult};
use super::{Allowed, Placement, PlacementInstance, ServerSpec};

/// Outcome of an exact placement solve.
#[derive(Debug, Clone)]
pub struct IlpPlacement {
    /// The placement, if a feasible one was found.
    pub placement: Option<Placement>,
    /// Whether it is proven optimal.
    pub optimal: bool,
    /// Objective value (total cost of used servers).
    pub cost: Option<f64>,
    /// Branch-and-bound nodes explored. A root closed by the cost bound
    /// before any model (module docs, "Proof before the model") counts as
    /// one, as a root its LP closes does.
    pub nodes: usize,
    /// Simplex pivots over the search's node LPs: 0 where the cost bound
    /// proved first fit before any model.
    pub lp_iterations: usize,
    /// Wall-clock time of the whole call: the pattern gate, first fit
    /// decreasing and, where one is built, the model, its presolve and
    /// the search.
    pub elapsed: Duration,
    /// Presolve reductions performed before the search; `None` where no
    /// presolve ran: first fit decreasing's placement was proven optimal
    /// before a model was built, or there was no cell to place.
    pub presolve: Option<PresolveStats>,
}

/// Solver switches, exposed so the ablation experiment can isolate the
/// effect of each acceleration (both default to on).
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Within each run of interchangeable servers, add `y_s ≥ y_{s+1}`
    /// rows and drop the symmetric copies of `x` (see [`build_model`]).
    pub symmetry_breaking: bool,
    /// Seed the incumbent from a first-fit-decreasing placement.
    pub warm_start: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            symmetry_breaking: true,
            warm_start: true,
        }
    }
}

/// Build the ILP model for an instance. Returns the model plus the
/// variable grids `x[cell][server]` and `y[server]`.
///
/// `x[c][s]` is `None` where the pair is disallowed and, under symmetry
/// breaking, for the symmetric copies the model drops: within a run of
/// interchangeable servers the cell of rank `r` — its position, among the
/// cells allowed on the run, in the heuristics' decreasing-demand order —
/// gets a variable on the run's first `r + 1` servers only. Any packing
/// relabels a run's servers by first appearance along that order into
/// this form, so the optimum is unchanged, and first-fit decreasing opens
/// a run's servers in index order, so its placement is always
/// expressible. A caller-supplied [`BnbConfig::initial`] must be
/// canonical in the same sense: a cell sitting on a `None` has no
/// variable to set and the start is rejected as infeasible.
pub fn build_model(instance: &PlacementInstance) -> (Model, Vec<Vec<Option<VarId>>>, Vec<VarId>) {
    build_model_with(instance, SolveOptions::default())
}

/// Whether servers `a` and `b` can be swapped in any placement: same
/// capacity, cost and accelerator profile (a plain and an accelerated
/// server never are), and every cell allowed on both or on neither.
fn interchangeable(instance: &PlacementInstance, a: usize, b: usize) -> bool {
    let (sa, sb) = (&instance.servers[a], &instance.servers[b]);
    sa.capacity_gops == sb.capacity_gops
        && sa.cost == sb.cost
        && sa.accelerator == sb.accelerator
        && (0..instance.cells.len()).all(|c| instance.is_allowed(c, a) == instance.is_allowed(c, b))
}

/// The servers' one capacity when the pool is uniform: one capacity and
/// cost, no accelerator, no mask.
fn uniform_capacity(instance: &PlacementInstance) -> Option<f64> {
    let server = instance.servers.first()?;
    let uniform = matches!(instance.allowed, Allowed::All)
        && server.accelerator.is_none()
        && (1..instance.servers.len()).all(|s| interchangeable(instance, 0, s));
    uniform.then_some(server.capacity_gops)
}

/// The pattern bound on the servers any placement of `instance` uses, on
/// a uniform pool; `None` on any other (see the module docs). A server's
/// pattern fits when its cells' demands sum to at most `G · (1 +
/// FIT_TOLERANCE) + INCUMBENT_TOL`, no stricter than
/// [`ServerSpec::fits`] or the model's capacity row.
pub fn pattern_bound(instance: &PlacementInstance) -> Option<usize> {
    let capacity = uniform_capacity(instance)?;
    let limit = capacity * (1.0 + ServerSpec::FIT_TOLERANCE) + INCUMBENT_TOL;
    Some(binpack_lower_bound_patterns(&demands(instance), limit))
}

/// The cells' demands, as a plain server carries them.
fn demands(instance: &PlacementInstance) -> Vec<f64> {
    instance.cells.iter().map(|c| c.gops).collect()
}

/// First-fit decreasing's placement of `instance`, run the first time a
/// solve asks: the pattern gate and the warm start share it.
fn first_fit<'a>(
    instance: &PlacementInstance,
    ffd: &'a OnceCell<HeuristicResult>,
) -> &'a HeuristicResult {
    ffd.get_or_init(|| place(instance, Heuristic::FirstFitDecreasing))
}

/// The pattern bound where the module docs' gate computes it.
fn pattern_gate(instance: &PlacementInstance, ffd: &OnceCell<HeuristicResult>) -> Option<usize> {
    let capacity = uniform_capacity(instance)?;
    let ffd = first_fit(instance, ffd);
    let gap = ffd.complete()
        && instance.servers_used(&ffd.placement)
            > binpack_lower_bound_l2(&demands(instance), capacity);
    gap.then(|| pattern_bound(instance)).flatten()
}

/// The lower bound [`solve`] proves first fit decreasing optimal with: on
/// the cost of every placement the search accepts (module docs, "Proof
/// before the model"), `cost · max(L1, k)` on a uniform pool of
/// non-negative cost whose every cell needs more than [`INCUMBENT_TOL`]
/// GOPS, −∞ on any other. `k` is the pattern bound where the gate
/// computes it.
pub fn root_bound(instance: &PlacementInstance) -> f64 {
    cost_bound(instance, pattern_gate(instance, &OnceCell::new()))
}

/// [`root_bound`], given the gate's pattern bound `k`.
fn cost_bound(instance: &PlacementInstance, k: Option<usize>) -> f64 {
    let Some(server) = instance.servers.first() else {
        return f64::NEG_INFINITY;
    };
    let bounded = uniform_capacity(instance).is_some()
        && server.cost >= 0.0
        && instance.cells.iter().all(|c| c.gops > INCUMBENT_TOL);
    if !bounded {
        return f64::NEG_INFINITY;
    }
    server.cost * instance.lower_bound_servers().max(k.unwrap_or(0)) as f64
}

/// [`build_model`] with explicit options.
pub fn build_model_with(
    instance: &PlacementInstance,
    options: SolveOptions,
) -> (Model, Vec<Vec<Option<VarId>>>, Vec<VarId>) {
    build(instance, options, pattern_gate(instance, &OnceCell::new()))
}

/// [`build_model_with`], given the gate's pattern bound `k`
/// ([`pattern_gate`]).
fn build(
    instance: &PlacementInstance,
    options: SolveOptions,
    k: Option<usize>,
) -> (Model, Vec<Vec<Option<VarId>>>, Vec<VarId>) {
    let mut m = Model::new();
    let servers = instance.servers.len();
    let y: Vec<VarId> = instance.servers.iter().map(|_| m.binary()).collect();

    // `run_start[s]`: first server of the run of interchangeable servers
    // `s` belongs to (itself when symmetry breaking is off).
    let mut run_start: Vec<usize> = (0..servers).collect();
    for s in (1..servers).take_while(|_| options.symmetry_breaking) {
        if interchangeable(instance, s - 1, s) {
            run_start[s] = run_start[s - 1];
        }
    }
    // Cells take their variables in decreasing-demand order; `ranked[g]`
    // counts the cells allowed on the run starting at `g`, up to and
    // including the one at hand.
    let mut x: Vec<Vec<Option<VarId>>> = vec![vec![None; servers]; instance.cells.len()];
    let mut ranked = vec![0usize; servers];
    for c in decreasing_order(instance) {
        let row = instance.allowed.row(c);
        for s in (0..servers).filter(|&s| row.allows(s)) {
            let g = run_start[s];
            if s == g {
                ranked[g] += 1;
            }
            if s - g < ranked[g] {
                x[c][s] = Some(m.binary());
            }
        }
    }

    // Each cell on exactly one (allowed) server.
    for row in &x {
        m.add_constraint(LinExpr::sum(row.iter().flatten().copied()), Cmp::Eq, 1.0);
    }

    // Capacity coupling. The per-(cell, server) coefficient is the
    // *general-core* load the cell would put on that server — the full
    // demand on plain servers, demand minus the decode share on
    // accelerated ones (the accelerator absorbs it; see
    // `ServerSpec::load_of`).
    for (s, server) in instance.servers.iter().enumerate() {
        let mut expr = LinExpr::new();
        for (c, row) in x.iter().enumerate() {
            if let Some(v) = row[s] {
                expr.add_term(v, server.load_of(&instance.cells[c]).general);
            }
        }
        expr.add_term(y[s], -server.capacity_gops);
        m.add_constraint(expr, Cmp::Le, 0.0);
    }

    // Decode-capacity coupling for accelerated servers: the decode shares
    // landing on a server must fit its accelerator.
    for (s, server) in instance.servers.iter().enumerate() {
        let Some(acc) = server.accelerator else {
            continue;
        };
        let mut expr = LinExpr::new();
        let mut any = false;
        for (c, row) in x.iter().enumerate() {
            if let Some(v) = row[s] {
                let decode = instance.cells[c].decode_gops;
                if decode != 0.0 {
                    expr.add_term(v, decode);
                    any = true;
                }
            }
        }
        if any {
            expr.add_term(y[s], -acc.decode_capacity_gops);
            m.add_constraint(expr, Cmp::Le, 0.0);
        }
    }

    // Within a run, servers open in index order: y_s ≥ y_{s+1}. The
    // first-appearance relabelling above leaves a run's unused servers at
    // its end, so the rows hold beside the dropped variables.
    for s in (0..servers).filter(|&s| run_start[s] != s) {
        m.add_constraint(LinExpr::from(y[s]) - y[s - 1], Cmp::Le, 0.0);
    }

    // The pattern bound, where it beats the LP's own (module docs). Only
    // a uniform pool has one, so server 0's capacity is every server's.
    let lp_bound = || binpack_lower_bound_l1(&demands(instance), instance.servers[0].capacity_gops);
    if let Some(k) = k.filter(|&k| k > lp_bound()) {
        m.add_constraint(LinExpr::sum(y.iter().copied()), Cmp::Ge, k as f64);
    }

    // Objective: weighted server count.
    m.set_objective(
        Sense::Minimize,
        LinExpr::weighted_sum(
            y.iter()
                .copied()
                .zip(instance.servers.iter().map(|s| s.cost)),
        ),
    );
    (m, x, y)
}

/// Solve the placement exactly (up to the given limits).
///
/// The branch & bound is warm-started from a first-fit-decreasing
/// placement when one exists, so an incumbent is always available and the
/// search spends its budget *proving* optimality or beating the heuristic.
pub fn solve(instance: &PlacementInstance, config: &BnbConfig) -> IlpPlacement {
    solve_with(instance, config, SolveOptions::default())
}

/// What one solve found, by branch and bound or by the proof before the
/// model: what [`IlpPlacement`] and the `sched.ilp` span report.
struct Outcome {
    placement: Option<Placement>,
    optimal: bool,
    cost: Option<f64>,
    nodes: usize,
    lp_iterations: usize,
    warm_start_accepted: bool,
    best_bound: f64,
    gap: Option<f64>,
    presolve: Option<PresolveStats>,
}

/// [`solve`] with explicit ablation options.
pub fn solve_with(
    instance: &PlacementInstance,
    config: &BnbConfig,
    options: SolveOptions,
) -> IlpPlacement {
    let start = Instant::now();
    if instance.cells.is_empty() {
        return IlpPlacement {
            placement: Some(Placement::empty(0)),
            optimal: true,
            cost: Some(0.0),
            nodes: 0,
            lp_iterations: 0,
            elapsed: start.elapsed(),
            presolve: None,
        };
    }
    let solve_span = pran_telemetry::trace::span("sched.ilp");
    let ffd = OnceCell::new();
    let k = pattern_gate(instance, &ffd);
    let bound = cost_bound(instance, k);
    let outcome = match proven_first_fit(instance, config, options, &ffd, bound) {
        Some(cost) => Outcome {
            placement: ffd.into_inner().map(|seed| seed.placement),
            optimal: true,
            cost: Some(cost),
            nodes: 1,
            lp_iterations: 0,
            warm_start_accepted: true,
            best_bound: cost,
            gap: Some(0.0),
            presolve: None,
        },
        None => search(instance, config, options, &ffd, k),
    };
    let elapsed = start.elapsed();
    if pran_telemetry::enabled() {
        let registry = pran_telemetry::metrics::global();
        registry.inc("sched.ilp.solves", &[], 1);
        registry.inc("sched.ilp.nodes", &[], outcome.nodes as u64);
        registry.inc("sched.ilp.lp_iterations", &[], outcome.lp_iterations as u64);
        registry.observe("sched.ilp.solve_time", &[], elapsed);
        let root_proved = outcome.optimal && outcome.nodes == 1;
        registry.inc("sched.ilp.root_proved", &[], u64::from(root_proved));
        registry.inc(
            "sched.ilp.warm_start_accepted",
            &[],
            u64::from(outcome.warm_start_accepted),
        );
        let mut fields = vec![
            ("cells", instance.cells.len().into()),
            ("nodes", outcome.nodes.into()),
            ("lp_iterations", outcome.lp_iterations.into()),
            ("optimal", outcome.optimal.into()),
            ("root_proved", root_proved.into()),
            ("warm_start_accepted", outcome.warm_start_accepted.into()),
        ];
        // Presolve counts exist only where a model was presolved, as bound
        // and gap only beside an incumbent (the bound is NaN without
        // one); the gauges then keep the last solve that had one.
        if let Some(presolve) = outcome.presolve {
            fields.extend([
                ("presolve_rows_removed", presolve.rows_removed.into()),
                (
                    "presolve_bounds_tightened",
                    presolve.bounds_tightened.into(),
                ),
                ("presolve_vars_fixed", presolve.vars_fixed.into()),
            ]);
        }
        if let Some(gap) = outcome.gap {
            registry.gauge("sched.ilp.best_bound", &[], outcome.best_bound);
            registry.gauge("sched.ilp.gap", &[], gap);
            fields.push(("best_bound", outcome.best_bound.into()));
            fields.push(("gap", gap.into()));
        }
        solve_span.finish_with(&fields);
    }
    IlpPlacement {
        placement: outcome.placement,
        optimal: outcome.optimal,
        cost: outcome.cost,
        nodes: outcome.nodes,
        lp_iterations: outcome.lp_iterations,
        elapsed,
        presolve: outcome.presolve,
    }
}

/// First fit decreasing's cost, where branch and bound would close the
/// root on that start (module docs, "Proof before the model"); `None`
/// elsewhere. The caller left the warm start on and gave no start of its
/// own, and the node budget admits the root. The pool is uniform and
/// first fit places every cell with no server loaded past `G`, so the
/// start passes the model's feasibility check, whose capacity rows admit
/// `min(INCUMBENT_TOL, INCUMBENT_REL_TOL · G)` past `G` where
/// [`ServerSpec::fits`] admits `G · FIT_TOLERANCE`: a server within that
/// tolerance is left to the model. The cost is the model's objective at
/// the start, `Σ_s cost_s · y_s` summed in server order as
/// [`Model::eval_objective`] sums it, and `bound` must prune it under
/// branch and bound's own test, [`prunes`].
fn proven_first_fit(
    instance: &PlacementInstance,
    config: &BnbConfig,
    options: SolveOptions,
    ffd: &OnceCell<HeuristicResult>,
    bound: f64,
) -> Option<f64> {
    if config.initial.is_some() || !options.warm_start || config.max_nodes == 0 {
        return None;
    }
    let capacity = uniform_capacity(instance)?;
    let seed = first_fit(instance, ffd);
    if !seed.complete() {
        return None;
    }
    // Per server: its load and its `y` in the start.
    let mut servers = vec![(0.0, 0.0); instance.servers.len()];
    for (cell, assigned) in seed.placement.assignment.iter().enumerate() {
        let (load, open) = &mut servers[assigned.expect("complete")];
        *load += instance.cells[cell].gops;
        *open = 1.0;
    }
    if servers.iter().any(|&(load, _)| load > capacity) {
        return None;
    }
    let cost = 0.0
        + servers
            .iter()
            .zip(&instance.servers)
            .map(|(&(_, open), server)| server.cost * open)
            .sum::<f64>();
    // `Σ cost · y` over binaries is an integer at every integer point
    // where the one cost is an integer.
    let integral_objective = instance.servers[0].cost.fract() == 0.0;
    prunes(bound, cost, integral_objective).then_some(cost)
}

/// The solve on the model: build it, seed first fit decreasing's start
/// unless told otherwise, and search.
fn search(
    instance: &PlacementInstance,
    config: &BnbConfig,
    options: SolveOptions,
    ffd: &OnceCell<HeuristicResult>,
    k: Option<usize>,
) -> Outcome {
    let (model, x, y) = build(instance, options, k);
    let mut config = config.clone();
    if config.initial.is_none() && options.warm_start {
        let seed = first_fit(instance, ffd);
        if seed.complete() {
            let mut values = vec![0.0; model.num_vars()];
            for (cell, assigned) in seed.placement.assignment.iter().enumerate() {
                if let Some(s) = assigned {
                    if let Some(v) = x[cell][*s] {
                        values[v.index()] = 1.0;
                    }
                    values[y[*s].index()] = 1.0;
                }
            }
            config.initial = Some(values);
        }
    }
    let result = solve_ilp(&model, &config);
    let placement = result.solution.as_ref().map(|sol| {
        let assignment = x
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .find_map(|(s, v)| v.filter(|&v| sol.is_set(v)).map(|_| s))
            })
            .collect();
        Placement { assignment }
    });
    Outcome {
        placement,
        optimal: result.status == IlpStatus::Optimal,
        cost: result.solution.as_ref().map(|s| s.objective),
        nodes: result.stats.nodes,
        lp_iterations: result.stats.lp_iterations,
        warm_start_accepted: result.stats.warm_start_accepted,
        best_bound: result.stats.best_bound,
        gap: result.stats.gap(),
        presolve: Some(result.stats.presolve),
    }
}

/// Solve with default branch-and-bound limits.
pub fn solve_default(instance: &PlacementInstance) -> IlpPlacement {
    solve(instance, &BnbConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::heuristics::{place, Heuristic};

    #[test]
    fn exact_matches_hand_solution() {
        // 7,6,3,2,2 into capacity-10 servers → optimal is 2 servers.
        let inst = PlacementInstance::uniform(&[7.0, 6.0, 3.0, 2.0, 2.0], 5, 10.0);
        let r = solve_default(&inst);
        assert!(r.optimal);
        let p = r.placement.unwrap();
        assert!(inst.validate(&p).is_ok());
        assert_eq!(inst.servers_used(&p), 2);
        assert_eq!(r.cost, Some(2.0));
    }

    #[test]
    fn infeasible_when_demand_exceeds_pool() {
        let inst = PlacementInstance::uniform(&[90.0, 90.0, 90.0], 2, 100.0);
        let r = solve_default(&inst);
        assert!(r.placement.is_none());
    }

    #[test]
    fn respects_fronthaul_matrix() {
        let mut inst = PlacementInstance::uniform(&[50.0, 50.0], 2, 100.0);
        inst.allowed = vec![vec![false, true], vec![true, true]].into();
        let r = solve_default(&inst);
        let p = r.placement.unwrap();
        assert_eq!(p.assignment[0], Some(1));
        assert!(inst.validate(&p).is_ok());
        // Both cells share server 1: the servers differ in who may use
        // them, so no y₁ ≤ y₀ row may force server 0 open beside it.
        assert_eq!(r.cost, Some(1.0));
    }

    #[test]
    fn ilp_beats_ffd_on_adversarial_instance() {
        // The classic FFD-suboptimal family at small scale, C = 100:
        // demands 2×51, 2×27, 2×26, 4×23.
        // OPT = 3: {51,26,23} ×2 and {27,27,23,23}.
        // FFD = 4: {51,27}, {51,27}, {26,26,23,23}, {23,23}.
        let demands = [51.0, 51.0, 27.0, 27.0, 26.0, 26.0, 23.0, 23.0, 23.0, 23.0];
        let inst = PlacementInstance::uniform(&demands, 6, 100.0);
        let ffd = place(&inst, Heuristic::FirstFitDecreasing);
        assert_eq!(
            inst.servers_used(&ffd.placement),
            4,
            "FFD should pack into 4"
        );
        let ilp = solve_default(&inst);
        assert!(ilp.optimal, "instance should solve to optimality");
        let p = ilp.placement.unwrap();
        assert!(inst.validate(&p).is_ok());
        assert_eq!(inst.servers_used(&p), 3, "exact optimum is 3 servers");
    }

    #[test]
    fn ilp_places_what_greedy_cannot() {
        // Fronthaul conflicts trap the greedy: cell 0 (60 GOPS) may use
        // either server, cell 1 (60 GOPS) only server 0. Greedy puts
        // cell 0 on server 0 first and strands cell 1; the ILP sees the
        // coupling and swaps them.
        let mut inst = PlacementInstance::uniform(&[60.0, 60.0], 2, 100.0);
        inst.servers[1].capacity_gops = 60.0;
        inst.allowed = vec![vec![true, true], vec![true, false]].into();
        let ffd = place(&inst, Heuristic::FirstFitDecreasing);
        assert!(!ffd.complete(), "greedy should strand cell 1");
        let ilp = solve_default(&inst);
        let p = ilp.placement.expect("ILP must find the feasible swap");
        assert!(inst.validate(&p).is_ok());
        assert_eq!(p.assignment[0], Some(1));
        assert_eq!(p.assignment[1], Some(0));
    }

    #[test]
    fn heterogeneous_costs_prefer_cheap_servers() {
        let mut inst = PlacementInstance::uniform(&[40.0, 40.0], 3, 100.0);
        inst.servers[0].cost = 10.0;
        inst.servers[1].cost = 1.0;
        inst.servers[2].cost = 1.0;
        let r = solve_default(&inst);
        let p = r.placement.unwrap();
        // Optimal: both cells on one cheap server, cost 1.
        assert_eq!(r.cost, Some(1.0));
        assert!(p.assignment.iter().all(|a| *a == Some(1) || *a == Some(2)));
    }

    #[test]
    fn decode_capacity_row_blocks_accelerator_overload() {
        use crate::placement::{Accelerator, CellDemand};
        // Two cells of 60 GOPS each, 30 of it decode. One accelerated
        // server whose cores could take both cells' general share, but
        // whose accelerator only fits one decode share — the ILP must
        // spill to the second (plain) server.
        let mut inst = PlacementInstance::uniform(&[60.0, 60.0], 2, 100.0);
        inst.cells[0] = CellDemand {
            id: 0,
            gops: 60.0,
            decode_gops: 30.0,
        };
        inst.cells[1] = CellDemand {
            id: 1,
            gops: 60.0,
            decode_gops: 30.0,
        };
        inst.servers[0].accelerator = Some(Accelerator {
            decode_capacity_gops: 40.0,
            decode_speedup: 4.0,
        });
        let r = solve_default(&inst);
        let p = r.placement.expect("feasible: one cell per server");
        assert!(inst.validate(&p).is_ok());
        assert_ne!(p.assignment[0], p.assignment[1]);
    }

    #[test]
    fn accelerated_server_effective_capacity_packs_more() {
        use crate::placement::{Accelerator, CellDemand};
        // Each cell is 60 GOPS with 20 decode. A plain 100-GOPS server
        // holds one; an accelerated one holds both (2×40 general on
        // cores, 2×20 decode on the accelerator).
        let mut inst = PlacementInstance::uniform(&[60.0, 60.0], 2, 100.0);
        for c in 0..2 {
            inst.cells[c] = CellDemand {
                id: c,
                gops: 60.0,
                decode_gops: 20.0,
            };
        }
        inst.servers[0].accelerator = Some(Accelerator {
            decode_capacity_gops: 80.0,
            decode_speedup: 4.0,
        });
        // Core load 2 × 40 fits one server's 100 GOPS: the bound says so.
        assert_eq!(inst.lower_bound_servers(), 1);
        let r = solve_default(&inst);
        assert!(r.optimal);
        let p = r.placement.unwrap();
        assert!(inst.validate(&p).is_ok());
        assert_eq!(inst.servers_used(&p), 1, "accelerator absorbs decode");
        assert_eq!(p.assignment[0], Some(0));
        assert_eq!(p.assignment[1], Some(0));
    }

    #[test]
    fn symmetry_breaking_distinguishes_accelerated_servers() {
        use crate::placement::{Accelerator, CellDemand};
        // Server 0 plain, server 1 accelerated, same capacity/cost. If
        // symmetry breaking wrongly merged them, y1 ≤ y0 would forbid
        // the only feasible solution (decode cell alone on server 1).
        let mut inst = PlacementInstance::uniform(&[95.0], 2, 100.0);
        inst.cells[0] = CellDemand {
            id: 0,
            gops: 95.0,
            decode_gops: 40.0,
        };
        inst.servers[0].capacity_gops = 60.0;
        inst.servers[1].capacity_gops = 60.0;
        inst.servers[0].cost = 1.0;
        inst.servers[1].cost = 1.0;
        inst.servers[1].accelerator = Some(Accelerator {
            decode_capacity_gops: 50.0,
            decode_speedup: 4.0,
        });
        let r = solve_default(&inst);
        let p = r.placement.expect("only the accelerated server fits");
        assert!(inst.validate(&p).is_ok());
        assert_eq!(p.assignment[0], Some(1));
    }

    #[test]
    fn empty_instance_trivially_optimal() {
        let inst = PlacementInstance::uniform(&[], 2, 100.0);
        let r = solve_default(&inst);
        assert!(r.optimal);
        assert_eq!(r.cost, Some(0.0));
    }

    #[test]
    fn node_limit_still_returns_feasible_if_found() {
        let demands: Vec<f64> = (0..14).map(|i| 20.0 + (i as f64 * 13.7) % 45.0).collect();
        let inst = PlacementInstance::uniform(&demands, 14, 100.0);
        let r = solve(
            &inst,
            &BnbConfig {
                max_nodes: 50,
                ..BnbConfig::default()
            },
        );
        if let Some(p) = &r.placement {
            assert!(inst.validate(p).is_ok());
        }
    }
}
