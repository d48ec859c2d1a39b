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

use std::time::Duration;

use pran_ilp::{solve_ilp, BnbConfig, Cmp, IlpStatus, LinExpr, Model, PresolveStats, Sense, VarId};

use super::heuristics::decreasing_order;
use super::{Placement, PlacementInstance};

/// Outcome of an exact placement solve.
#[derive(Debug, Clone)]
pub struct IlpPlacement {
    /// The placement, if a feasible one was found.
    pub placement: Option<Placement>,
    /// Whether it is proven optimal.
    pub optimal: bool,
    /// Objective value (total cost of used servers).
    pub cost: Option<f64>,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Presolve reductions performed before the search.
    pub presolve: PresolveStats,
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

/// [`build_model`] with explicit options.
pub fn build_model_with(
    instance: &PlacementInstance,
    options: SolveOptions,
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

/// [`solve`] with explicit ablation options.
pub fn solve_with(
    instance: &PlacementInstance,
    config: &BnbConfig,
    options: SolveOptions,
) -> IlpPlacement {
    if instance.cells.is_empty() {
        return IlpPlacement {
            placement: Some(Placement::empty(0)),
            optimal: true,
            cost: Some(0.0),
            nodes: 0,
            elapsed: Duration::ZERO,
            presolve: PresolveStats::default(),
        };
    }
    let solve_span = pran_telemetry::trace::span("sched.ilp");
    let (model, x, y) = build_model_with(instance, options);
    let mut config = config.clone();
    if config.initial.is_none() && options.warm_start {
        let seed = crate::placement::heuristics::place(
            instance,
            crate::placement::heuristics::Heuristic::FirstFitDecreasing,
        );
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
    if pran_telemetry::enabled() {
        let registry = pran_telemetry::metrics::global();
        registry.inc("sched.ilp.solves", &[], 1);
        registry.inc("sched.ilp.nodes", &[], result.stats.nodes as u64);
        registry.inc(
            "sched.ilp.lp_iterations",
            &[],
            result.stats.lp_iterations as u64,
        );
        registry.observe("sched.ilp.solve_time", &[], result.stats.elapsed);
        // Bound and gap exist only beside an incumbent (the bound is NaN
        // without one); the gauges then keep the last solve that had one.
        let gap = result.stats.gap();
        let root_proved = result.status == IlpStatus::Optimal && result.stats.nodes == 1;
        let warm_start_accepted = result.stats.warm_start_accepted;
        registry.inc("sched.ilp.root_proved", &[], u64::from(root_proved));
        registry.inc(
            "sched.ilp.warm_start_accepted",
            &[],
            u64::from(warm_start_accepted),
        );
        let mut fields = vec![
            ("cells", instance.cells.len().into()),
            ("nodes", result.stats.nodes.into()),
            ("lp_iterations", result.stats.lp_iterations.into()),
            ("optimal", (result.status == IlpStatus::Optimal).into()),
            ("root_proved", root_proved.into()),
            ("warm_start_accepted", warm_start_accepted.into()),
            (
                "presolve_rows_removed",
                result.stats.presolve.rows_removed.into(),
            ),
            (
                "presolve_bounds_tightened",
                result.stats.presolve.bounds_tightened.into(),
            ),
            (
                "presolve_vars_fixed",
                result.stats.presolve.vars_fixed.into(),
            ),
        ];
        if let Some(gap) = gap {
            registry.gauge("sched.ilp.best_bound", &[], result.stats.best_bound);
            registry.gauge("sched.ilp.gap", &[], gap);
            fields.push(("best_bound", result.stats.best_bound.into()));
            fields.push(("gap", gap.into()));
        }
        solve_span.finish_with(&fields);
    }
    IlpPlacement {
        placement,
        optimal: result.status == IlpStatus::Optimal,
        cost: result.solution.as_ref().map(|s| s.objective),
        nodes: result.stats.nodes,
        elapsed: result.stats.elapsed,
        presolve: result.stats.presolve,
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
