//! Proof layer of the exact placer: a brute-force oracle, the warm
//! start's expressibility, warm-versus-cold node LPs, and the node-count
//! ratchet on the benchmark's instance library.

use pran_ilp::{
    presolve, solve_ilp, solve_lp, BnbConfig, IlpStatus, Model, Presolved, Simplex, Violation,
};
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::ilp::{self, SolveOptions};
use pran_sched::placement::{Accelerator, CellDemand, Placement, PlacementInstance};
use pran_traces::{generate, TraceConfig};
use proptest::prelude::*;

/// Cheapest valid placement by enumeration of every cell → server map.
fn enumerated_optimum(inst: &PlacementInstance) -> Option<f64> {
    let (cells, servers) = (inst.cells.len(), inst.servers.len());
    let mut best: Option<f64> = None;
    let mut digits = vec![0usize; cells];
    loop {
        let p = Placement {
            assignment: digits.iter().map(|&s| Some(s)).collect(),
        };
        if inst.validate(&p).is_ok() {
            let cost = inst.cost(&p);
            best = Some(best.map_or(cost, |b: f64| b.min(cost)));
        }
        let Some(c) = (0..cells).find(|&c| digits[c] + 1 < servers) else {
            return best;
        };
        digits[..c].fill(0);
        digits[c] += 1;
    }
}

/// `ilp::solve_with` proves the enumerated optimum with the symmetry
/// restriction on and off.
fn assert_matches_oracle(inst: &PlacementInstance) -> Result<(), TestCaseError> {
    let oracle = enumerated_optimum(inst);
    for symmetry_breaking in [true, false] {
        let solved = ilp::solve_with(
            inst,
            &BnbConfig::default(),
            SolveOptions {
                symmetry_breaking,
                warm_start: true,
            },
        );
        match oracle {
            None => prop_assert!(solved.placement.is_none(), "oracle: infeasible"),
            Some(cost) => {
                prop_assert!(solved.optimal, "symmetry {symmetry_breaking}: not proven");
                let p = solved.placement.as_ref().expect("proven means placed");
                prop_assert!(inst.validate(p).is_ok());
                let got = solved.cost.expect("placed means priced");
                prop_assert!(
                    (got - cost).abs() < 1e-9 && (inst.cost(p) - cost).abs() < 1e-9,
                    "symmetry {symmetry_breaking}: ilp {got}, oracle {cost}"
                );
            }
        }
    }
    Ok(())
}

/// Two runs of interchangeable servers: the first half big, the second
/// half small at `small_cost` (a fractional one switches bound rounding
/// off).
fn grouped(demands: &[f64], small_cost: f64) -> PlacementInstance {
    let mut inst = PlacementInstance::uniform(demands, demands.len(), 400.0);
    for s in demands.len() / 2..demands.len() {
        inst.servers[s].capacity_gops = 250.0;
        inst.servers[s].cost = small_cost;
    }
    inst
}

fn demands(cells: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(30.0f64..240.0, cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracle_uniform(d in demands(2..7)) {
        assert_matches_oracle(&PlacementInstance::uniform(&d, d.len(), 400.0))?;
    }

    #[test]
    fn oracle_two_capacity_groups(d in demands(2..7), fractional in any::<bool>()) {
        assert_matches_oracle(&grouped(&d, if fractional { 0.6 } else { 1.0 }))?;
    }

    #[test]
    fn oracle_one_accelerated_server(
        d in demands(2..7),
        shares in proptest::collection::vec(0.0f64..0.5, 6),
        accelerated in 0usize..6,
    ) {
        let mut inst = PlacementInstance::uniform(&d, d.len(), 300.0);
        for (c, cell) in inst.cells.iter_mut().enumerate() {
            *cell = CellDemand { id: c, gops: d[c], decode_gops: d[c] * shares[c] };
        }
        inst.servers[accelerated % d.len()].accelerator = Some(Accelerator::default_eval());
        assert_matches_oracle(&inst)?;
    }

    #[test]
    fn oracle_masked_allowed(
        d in demands(2..7),
        bits in proptest::collection::vec(any::<bool>(), 36),
        homes in proptest::collection::vec(0usize..6, 6),
    ) {
        let n = d.len();
        let mut inst = PlacementInstance::uniform(&d, n, 400.0);
        // A random mask in which every cell keeps at least one server.
        let mask: Vec<Vec<bool>> = (0..n)
            .map(|c| (0..n).map(|s| bits[c * 6 + s] || s == homes[c] % n).collect())
            .collect();
        inst.allowed = mask.into();
        assert_matches_oracle(&inst)?;
    }

    /// First-fit decreasing always lands on variables the restricted
    /// model kept, and branch and bound takes it as its incumbent before
    /// the first node.
    #[test]
    fn ffd_start_is_expressible_and_accepted(
        d in demands(2..15),
        shape in 0usize..3,
    ) {
        let inst = match shape {
            0 => PlacementInstance::uniform(&d, d.len(), 400.0),
            1 => grouped(&d, 1.0),
            _ => grouped(&d, 0.6),
        };
        let seed = place(&inst, Heuristic::FirstFitDecreasing);
        prop_assume!(seed.complete());
        let (model, x, y) = ilp::build_model(&inst);
        let mut initial = vec![0.0; model.num_vars()];
        for (cell, assigned) in seed.placement.assignment.iter().enumerate() {
            let s = assigned.expect("complete");
            let v = x[cell][s];
            prop_assert!(v.is_some(), "cell {cell} on server {s}: variable dropped");
            initial[v.expect("checked").index()] = 1.0;
            initial[y[s].index()] = 1.0;
        }
        let stopped = solve_ilp(
            &model,
            &BnbConfig { max_nodes: 0, initial: Some(initial), ..BnbConfig::default() },
        );
        prop_assert!(stopped.stats.warm_start_accepted);
        prop_assert_eq!(stopped.stats.nodes, 0);
        prop_assert_eq!(stopped.stats.incumbent, Some(inst.cost(&seed.placement)));
    }
}

/// Instance `i` of the benchmark's `placement_exact` library, built as
/// `benchmark/src/inputs.rs` builds it: ten cells of trace seed
/// `2_026_000 + i` at hour 20 on ten 400-GOPS servers.
fn library_instance(i: usize) -> PlacementInstance {
    let mut cfg = TraceConfig::default_day(10, 2_026_000 + i as u64);
    cfg.step_seconds = 3600.0;
    let trace = generate(&cfg);
    let conv = GopsConverter::default_eval();
    let demands: Vec<f64> = trace.samples[20].iter().map(|&u| conv.gops(u)).collect();
    PlacementInstance::uniform(&demands, demands.len(), 400.0)
}

const LIBRARY_SIZE: usize = 40;

/// The benchmark's node limit.
fn library_limits() -> BnbConfig {
    BnbConfig {
        max_nodes: 3_000,
        time_limit: std::time::Duration::from_secs(3600),
        ..BnbConfig::default()
    }
}

#[test]
fn library_is_proven_within_the_node_limit() {
    let mut nodes = 0;
    for i in 0..LIBRARY_SIZE {
        let inst = library_instance(i);
        let solved = ilp::solve(&inst, &library_limits());
        assert!(
            solved.optimal,
            "instance {i}: {} nodes, no proof",
            solved.nodes
        );
        nodes += solved.nodes;
        let used = inst.servers_used(solved.placement.as_ref().expect("proven"));
        let ffd = inst.servers_used(&place(&inst, Heuristic::FirstFitDecreasing).placement);
        match i {
            // Σg/G = 2.994: no three-server packing exists, and only a
            // search shows it.
            13 => assert_eq!((used, ffd), (4, 4)),
            // The one instance where the search beats the heuristic.
            16 => assert_eq!((used, ffd), (3, 4)),
            _ => assert!(used <= ffd),
        }
    }
    assert!(nodes <= 1_000, "library took {nodes} nodes");
}

/// Depth-first most-fractional search over `model` on one warm
/// [`Simplex`], as `solve_ilp` drives its own (bound overrides swapped in
/// per node, pruning at `cutoff`), checking every node LP against a cold
/// `solve_lp` of the same bounds. Returns the nodes visited.
fn warm_equals_cold_along_a_search(model: &Model, cutoff: f64, max_nodes: usize) -> usize {
    let integral = model.integral_vars();
    let mut warm = Simplex::new(model);
    let mut scratch = model.clone();
    let mut stack = vec![Vec::new()];
    let mut nodes = 0;
    while let Some(bounds) = stack.pop() {
        if nodes == max_nodes {
            break;
        }
        nodes += 1;
        for &v in &integral {
            let var = model.var(v);
            warm.set_bounds(v, var.lower, var.upper);
            scratch.set_bounds(v, var.lower, var.upper);
        }
        for &(v, lo, hi) in &bounds {
            warm.set_bounds(v, lo, hi);
            scratch.set_bounds(v, lo, hi);
        }
        let (w, c) = (warm.solve(), solve_lp(&scratch));
        assert_eq!(w.status, c.status, "node {nodes}: {bounds:?}");
        let Some(sol) = w.solution else {
            continue;
        };
        let cold = c.solution.expect("same status").objective;
        assert!(
            (sol.objective - cold).abs() <= 1e-7,
            "node {nodes}: warm {} vs cold {cold}",
            sol.objective
        );
        // The warm point satisfies the relaxation: nothing but
        // integrality may be violated.
        let broken = scratch.check(&sol.values, 1e-6);
        assert!(
            broken
                .iter()
                .all(|v| matches!(v, Violation::Integrality { .. })),
            "node {nodes}: {broken:?}"
        );
        if (sol.objective - 1e-6).ceil() >= cutoff {
            continue;
        }
        let half_dist = |x: f64| (0.5 - (x - x.floor())).abs();
        let branch = integral
            .iter()
            .map(|&v| (v, sol.values[v.index()]))
            .filter(|&(_, x)| (x - x.round()).abs() > 1e-6)
            .min_by(|a, b| half_dist(a.1).total_cmp(&half_dist(b.1)));
        if let Some((v, x)) = branch {
            let mut down = bounds.clone();
            down.push((v, 0.0, x.floor()));
            let mut up = bounds;
            up.push((v, x.floor() + 1.0, 1.0));
            stack.push(down);
            stack.push(up);
        }
    }
    nodes
}

#[test]
fn warm_node_lps_equal_cold_solves_on_the_library() {
    let mut nodes = 0;
    for i in 0..LIBRARY_SIZE {
        let inst = library_instance(i);
        let (model, _, _) = ilp::build_model(&inst);
        let Presolved::Reduced { model, .. } = presolve(&model) else {
            panic!("instance {i}: presolve calls it infeasible");
        };
        let ffd = inst.servers_used(&place(&inst, Heuristic::FirstFitDecreasing).placement);
        nodes += warm_equals_cold_along_a_search(&model, ffd as f64, 1_500);
    }
    // Instance 13 alone needs several hundred nodes: the check is not
    // forty root LPs.
    assert!(nodes > 400, "only {nodes} node LPs compared");
}

#[test]
fn a_start_on_a_dropped_variable_is_rejected_visibly() {
    // Two equal cells on two interchangeable servers: cell 0 may only
    // use server 0, so a start that puts it on server 1 has no variable.
    let inst = PlacementInstance::uniform(&[100.0, 100.0], 2, 400.0);
    let (model, x, y) = ilp::build_model(&inst);
    assert!(x[0][1].is_none() && x[1][1].is_some());
    let mut initial = vec![0.0; model.num_vars()];
    initial[y[1].index()] = 1.0;
    initial[x[1][1].expect("kept").index()] = 1.0;
    let r = solve_ilp(
        &model,
        &BnbConfig {
            initial: Some(initial),
            ..BnbConfig::default()
        },
    );
    assert!(!r.stats.warm_start_accepted);
    assert_eq!(r.status, IlpStatus::Optimal);
    assert_eq!(r.solution.expect("solved").objective, 1.0);
}
