//! Proof layer of the exact placer: a brute-force oracle, the warm
//! start's expressibility, warm-versus-cold node LPs, the node-count
//! ratchet on the benchmark's instance library, that library's search
//! pinned bit for bit, and `ilp::solve`'s answers held to that search,
//! or to first fit's where its cost bound proves it before any model.

use pran_ilp::{
    presolve, prunes, solve_ilp, solve_lp, BnbConfig, IlpStatus, LpStatus, Model, Presolved,
    Simplex, VarId, Violation, INCUMBENT_TOL,
};
use pran_integration_tests::{library_instance, library_limits, LIBRARY_SIZE};
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::ilp::{self, SolveOptions};
use pran_sched::placement::{
    Accelerator, Allowed, CellDemand, Placement, PlacementInstance, ServerSpec,
};
use pran_traces::{generate, TraceConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cheapest valid placement by enumeration of every cell → server map.
/// On a pool of identical servers with no mask a relabelling of servers
/// changes neither a placement's cost nor its validity, so there only the
/// first-appearance labellings are visited (a cell takes at most one
/// server past those its predecessors opened).
fn enumerated_optimum(inst: &PlacementInstance) -> Option<f64> {
    let spec = |s: &ServerSpec| ServerSpec { id: 0, ..*s };
    let identical = matches!(inst.allowed, Allowed::All)
        && inst
            .servers
            .iter()
            .all(|s| spec(s) == spec(&inst.servers[0]));
    let mut best = None;
    let mut assignment = vec![None; inst.cells.len()];
    enumerate_from(inst, identical, 0, &mut assignment, &mut best);
    best
}

/// Place cells `c..` every way [`enumerated_optimum`] visits, below the
/// servers in `assignment[..c]`.
fn enumerate_from(
    inst: &PlacementInstance,
    identical: bool,
    c: usize,
    assignment: &mut Vec<Option<usize>>,
    best: &mut Option<f64>,
) {
    if c == assignment.len() {
        let p = Placement {
            assignment: assignment.clone(),
        };
        if inst.validate(&p).is_ok() {
            let cost = inst.cost(&p);
            *best = Some(best.map_or(cost, |b: f64| b.min(cost)));
        }
        return;
    }
    let servers = if identical {
        let opened = assignment[..c].iter().flatten().max().map_or(0, |&s| s + 1);
        (opened + 1).min(inst.servers.len())
    } else {
        inst.servers.len()
    };
    for s in 0..servers {
        assignment[c] = Some(s);
        enumerate_from(inst, identical, c + 1, assignment, best);
    }
}

/// `ilp::solve_with` proves the enumerated optimum with the symmetry
/// restriction and the warm start each on and off, and on a uniform pool
/// the pattern bound does not exceed it.
fn assert_matches_oracle(inst: &PlacementInstance) -> Result<(), TestCaseError> {
    let oracle = enumerated_optimum(inst);
    if let (Some(bound), Some(cost)) = (ilp::pattern_bound(inst), oracle) {
        prop_assert!(
            bound as f64 <= cost,
            "pattern bound {bound} over the optimum {cost}"
        );
    }
    for (symmetry_breaking, warm_start) in
        [(true, true), (false, true), (true, false), (false, false)]
    {
        let options = SolveOptions {
            symmetry_breaking,
            warm_start,
        };
        let solved = ilp::solve_with(inst, &BnbConfig::default(), options);
        match oracle {
            None => prop_assert!(solved.placement.is_none(), "oracle: infeasible"),
            Some(cost) => {
                prop_assert!(solved.optimal, "{options:?}: not proven");
                let p = solved.placement.as_ref().expect("proven means placed");
                prop_assert!(inst.validate(p).is_ok(), "{options:?}: invalid placement");
                let got = solved.cost.expect("placed means priced");
                prop_assert!(
                    (got - cost).abs() < 1e-9 && (inst.cost(p) - cost).abs() < 1e-9,
                    "{options:?}: ilp {got}, oracle {cost}"
                );
            }
        }
    }
    assert_decomposes(inst, &BnbConfig::default(), "oracle");
    Ok(())
}

/// `ilp::solve` beside the search it may skip, taken apart as the
/// benchmark's traced pass takes it: `build_model`, the FFD start,
/// `solve_ilp`. Placement, cost bits and proof agree, and so do the
/// presolve stats where `ilp::solve` built a model (where it proved the
/// start first it ran no presolve and reports none); so do the node
/// counts, unless `ilp::solve` closed the root with its cost bound where
/// the LP would have searched, which is what this returns.
fn assert_decomposes(inst: &PlacementInstance, limits: &BnbConfig, label: &str) -> bool {
    let solved = ilp::solve(inst, limits);
    let (model, x, y) = ilp::build_model(inst);
    let complete = place(inst, Heuristic::FirstFitDecreasing).complete();
    let config = BnbConfig {
        initial: complete.then(|| ffd_start(inst, &model, &x, &y)),
        ..limits.clone()
    };
    let searched = solve_ilp(&model, &config);
    let placement = searched.solution.as_ref().map(|sol| {
        x.iter()
            .map(|row| row.iter().position(|v| v.is_some_and(|v| sol.is_set(v))))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        solved.placement.map(|p| p.assignment),
        placement,
        "{label}: placement"
    );
    assert_eq!(
        solved.cost.map(f64::to_bits),
        searched.solution.map(|s| s.objective.to_bits()),
        "{label}: cost"
    );
    let proven = searched.status == IlpStatus::Optimal;
    assert_eq!(solved.optimal, proven, "{label}: proof");
    if let Some(presolve) = solved.presolve {
        assert_eq!(presolve, searched.stats.presolve, "{label}: presolve");
    }
    let skipped = solved.nodes != searched.stats.nodes;
    assert!(
        !skipped || solved.nodes == 1,
        "{label}: {} nodes, the LP search {}",
        solved.nodes,
        searched.stats.nodes
    );
    skipped
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

    /// The server bound counts core and whole demand apart on a pool with
    /// accelerators, and never asks for more servers than the
    /// enumerated optimum uses (every server costs 1).
    #[test]
    fn lower_bound_holds_on_accelerated_pools(
        d in demands(2..7),
        shares in proptest::collection::vec(0.0f64..=1.0, 6),
        accelerated in proptest::collection::vec(any::<bool>(), 6),
        decode_capacity in 20.0f64..300.0,
    ) {
        let mut inst = PlacementInstance::uniform(&d, d.len(), 300.0);
        for (c, cell) in inst.cells.iter_mut().enumerate() {
            *cell = CellDemand { id: c, gops: d[c], decode_gops: d[c] * shares[c] };
        }
        for (s, server) in inst.servers.iter_mut().enumerate() {
            if accelerated[s] {
                server.accelerator = Some(Accelerator { decode_capacity_gops: decode_capacity, decode_speedup: 4.0 });
            }
        }
        if let Some(optimum) = enumerated_optimum(&inst) {
            prop_assert!(
                inst.lower_bound_servers() as f64 <= optimum,
                "bound {} over the optimum {optimum}",
                inst.lower_bound_servers()
            );
        }
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
        for (cell, assigned) in seed.placement.assignment.iter().enumerate() {
            let s = assigned.expect("complete");
            prop_assert!(x[cell][s].is_some(), "cell {cell} on server {s}: variable dropped");
        }
        let initial = ffd_start(&inst, &model, &x, &y);
        let stopped = solve_ilp(
            &model,
            &BnbConfig { max_nodes: 0, initial: Some(initial), ..BnbConfig::default() },
        );
        prop_assert!(stopped.stats.warm_start_accepted);
        prop_assert_eq!(stopped.stats.nodes, 0);
        prop_assert_eq!(stopped.stats.incumbent, Some(inst.cost(&seed.placement)));
    }
}

/// The tight family: `cells` demands drawn at 15–45 % of a 400-GOPS
/// server, scaled so Σg/G = k − 0.02 (`k` the unscaled Σg/G rounded), on
/// k + 3 servers. The continuous bound says k; packings mostly need
/// k + 1.
fn tight_instance(cells: usize, seed: u64) -> PlacementInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let raw: Vec<f64> = (0..cells)
        .map(|_| rng.gen_range(0.15..0.45) * 400.0)
        .collect();
    let load = raw.iter().sum::<f64>() / 400.0;
    let k = load.round().max(1.0);
    let demands: Vec<f64> = raw.iter().map(|g| g * (k - 0.02) / load).collect();
    PlacementInstance::uniform(&demands, k as usize + 3, 400.0)
}

/// Two 250-GOPS cells, each beside one of two cells that bring their
/// server to exactly `400 + excess`, on four 400-GOPS servers: two
/// servers hold them only if a server takes that load, three otherwise.
fn boundary_instance(excess: f64) -> PlacementInstance {
    let beside = (400.0 + excess) - 250.0;
    assert_eq!(250.0 + beside, 400.0 + excess, "the pair sums exactly");
    PlacementInstance::uniform(&[250.0, beside, 250.0, beside], 4, 400.0)
}

/// The oracle on seeded uniform instances of 4–10 cells, tight and loose
/// (on several tight ones the model carries the pattern row), and on four
/// at the fit boundary: a pair that sums to exactly `capacity · (1 +
/// FIT_TOLERANCE)` (it fits, so two servers do), and pairs past it by
/// 5e-7 and 8e-7 — inside the absolute slack `INCUMBENT_TOL`, outside the
/// relative one a capacity row is held to — and just past the absolute
/// slack (none fits, so three servers are needed).
#[test]
fn oracle_seeded_uniform_and_fit_boundary() {
    let mut rng = SmallRng::seed_from_u64(0x9a77);
    let mut instances = Vec::new();
    for cells in 4..=10 {
        for seed in 0..3 {
            instances.push(tight_instance(cells, seed));
        }
        let loose: Vec<f64> = (0..cells).map(|_| rng.gen_range(30.0..240.0)).collect();
        instances.push(PlacementInstance::uniform(&loose, cells, 400.0));
    }
    let at_tolerance = 400.0 * ServerSpec::FIT_TOLERANCE;
    let past = [5e-7, 8e-7, 1.01 * INCUMBENT_TOL];
    instances.push(boundary_instance(at_tolerance));
    instances.extend(past.map(boundary_instance));
    for (i, inst) in instances.iter().enumerate() {
        assert_matches_oracle(inst).unwrap_or_else(|e| panic!("instance {i}: {e:?}"));
    }
    let boundary = |excess| enumerated_optimum(&boundary_instance(excess));
    assert_eq!(boundary(at_tolerance), Some(2.0));
    assert_eq!(past.map(boundary), [Some(3.0); 3]);
    let cut = instances
        .iter()
        .filter(|inst| ilp::pattern_bound(inst) > Some(inst.lower_bound_servers()))
        .count();
    assert!(cut >= 5, "only {cut} instances beat the continuous bound");
}

/// Tight instances past ten cells whose pattern bound meets best-fit
/// decreasing's count are proven at the root. Without the pattern row
/// none of these is proven within 20,000 nodes.
#[test]
fn tight_instances_past_ten_cells_are_proven_at_the_root() {
    for (cells, seed) in [(20, 9), (20, 12), (30, 4)] {
        let inst = tight_instance(cells, seed);
        let bfd = inst.servers_used(&place(&inst, Heuristic::BestFitDecreasing).placement);
        assert_eq!(
            ilp::pattern_bound(&inst),
            Some(bfd),
            "{cells} cells, seed {seed}"
        );
        assert_eq!(bfd, inst.lower_bound_servers() + 1);
        let solved = ilp::solve(
            &inst,
            &BnbConfig {
                max_nodes: 20_000,
                ..BnbConfig::default()
            },
        );
        let used = solved.placement.as_ref().map(|p| inst.servers_used(p));
        assert_eq!(
            (solved.optimal, solved.nodes, used),
            (true, 1, Some(bfd)),
            "{cells} cells, seed {seed}"
        );
    }
}

/// `e5_ilp_vs_heuristic`'s ten instances, built as it builds them.
fn e5_instances() -> Vec<PlacementInstance> {
    let rows = [
        (6, 4),
        (6, 20),
        (10, 4),
        (10, 20),
        (14, 12),
        (14, 20),
        (18, 20),
        (22, 20),
        (26, 20),
        (30, 20),
    ];
    let conv = GopsConverter::default_eval();
    rows.map(|(cells, hour)| {
        let mut cfg = TraceConfig::default_day(cells, 1000 + cells as u64);
        cfg.step_seconds = 3600.0;
        let trace = generate(&cfg);
        let step = hour.min(trace.num_steps() - 1);
        let demands: Vec<f64> = trace.samples[step].iter().map(|&u| conv.gops(u)).collect();
        PlacementInstance::uniform(&demands, cells, 400.0)
    })
    .into()
}

/// The exact placer answers as the LP search does on the benchmark's
/// library and E5's rows, where every root the bound closes the LP
/// closes too; the oracle tests hold it on their instances as well
/// ([`assert_matches_oracle`]).
#[test]
fn exact_placer_answers_as_the_lp_search_does() {
    for i in 0..LIBRARY_SIZE {
        let label = format!("library {i}");
        assert!(!assert_decomposes(
            &library_instance(i),
            &library_limits(),
            &label
        ));
    }
    let e5 = BnbConfig {
        max_nodes: 20_000,
        ..library_limits()
    };
    for (row, inst) in e5_instances().iter().enumerate() {
        assert!(!assert_decomposes(inst, &e5, &format!("E5 row {row}")));
    }
}

/// [`exact_placer_answers_as_the_lp_search_does`] on the tight family,
/// with the searches cut short at a few nodes: past ten cells most of
/// them are not proven within thousands, and a cut search is compared
/// all the same. Most of the time here is the pattern bound at 50 and 60
/// cells, computed once by each side.
#[test]
fn exact_placer_answers_as_the_lp_search_does_on_tight_instances() {
    let short = BnbConfig {
        max_nodes: 6,
        ..library_limits()
    };
    for cells in (10..=60).step_by(10) {
        for seed in 1..=12 {
            let label = format!("tight {cells} cells, seed {seed}");
            assert!(!assert_decomposes(
                &tight_instance(cells, seed),
                &short,
                &label
            ));
        }
    }
}

/// Nine equal cells with Σg/G = 2 + 5e-7: the LP's bound, 2.0000005,
/// rounds to 2 under the integrality slack, so the LP search branches
/// (some 250 nodes) to prove the three servers first fit uses; L1,
/// three, proves them before any LP.
#[test]
fn the_cost_bound_closes_a_root_the_lp_rounds_down() {
    let inst = PlacementInstance::uniform(&[800.0002 / 9.0; 9], 3, 400.0);
    let load = inst.total_gops() / 400.0;
    assert!(load > 2.0 && load <= 2.0 + 1e-6, "Σg/G = {load}");
    assert_eq!(inst.lower_bound_servers(), 3);
    assert!(assert_decomposes(
        &inst,
        &BnbConfig::default(),
        "constructed"
    ));
    let solved = ilp::solve_default(&inst);
    assert_eq!((solved.optimal, solved.nodes), (true, 1));
    assert_eq!(solved.cost, Some(3.0));
}

/// `pairs` copies of two cells that load one server to exactly `load`
/// (the larger, `0.6 · capacity`, alone fills more than half a server),
/// on one server per cell.
fn paired_instance(capacity: f64, load: f64, pairs: usize) -> PlacementInstance {
    let big = 0.6 * capacity;
    let small = load - big;
    assert_eq!(big + small, load, "the pair sums exactly");
    let demands: Vec<f64> = [big, small].repeat(pairs);
    PlacementInstance::uniform(&demands, demands.len(), capacity)
}

/// Uniform instances around the proof before the model: seeded demands
/// on 4–30 cells at capacities from 1 to 10⁴ GOPS (a capacity row's
/// slack is `1e-9 · G` below 1,000 GOPS and `1e-6` above), pairs of
/// cells that load servers to exactly `G`, to `G · (1 + FIT_TOLERANCE)`
/// and one ulp either side of it; some seeded pools and every paired one
/// also at a non-integral cost.
fn proof_instances() -> Vec<PlacementInstance> {
    let mut rng = SmallRng::seed_from_u64(0x61_b0d);
    let seeded = |rng: &mut SmallRng| {
        let cells = rng.gen_range(4..=30);
        let capacity = 10f64.powf(rng.gen_range(0.0..=4.0));
        let demands: Vec<f64> = (0..cells)
            .map(|_| rng.gen_range(0.05..0.6) * capacity)
            .collect();
        PlacementInstance::uniform(&demands, cells, capacity)
    };
    // The same pool at a cost that switches bound rounding off.
    let fractional = |mut inst: PlacementInstance| {
        for server in &mut inst.servers {
            server.cost = 0.6;
        }
        inst
    };
    let mut instances: Vec<PlacementInstance> = (0..48).map(|_| seeded(&mut rng)).collect();
    instances.extend((0..8).map(|_| fractional(seeded(&mut rng))));
    for capacity in [1.0, 7.0, 400.0, 999.0, 1_001.0, 2_500.0, 10_000.0] {
        let at = capacity * (1.0 + ServerSpec::FIT_TOLERANCE);
        for load in [capacity, at.next_down(), at, at.next_up()] {
            for pairs in [2, 15] {
                let paired = paired_instance(capacity, load, pairs);
                instances.push(fractional(paired.clone()));
                instances.push(paired);
            }
        }
    }
    instances
}

/// The proof before the model is first fit's, and the search decides
/// the rest: on each of [`proof_instances`], where `ilp::solve` builds
/// no model it returns first fit decreasing's placement, optimal, at one
/// node and no pivot, its cost the model's objective at the FFD start bit
/// for bit and pruned by [`ilp::root_bound`] under `prunes`. That is
/// exactly where the warm start is on, the node budget admits the root,
/// first fit places every cell with no server past `G`, and the bound
/// meets its cost. Everywhere else `ilp::solve` equals `build_model`, the
/// FFD start and `solve_ilp` in placement, cost bits, proof, nodes, pivots
/// and presolve. Where the bound meets a start that loads a server within
/// the fit tolerance past `G`, the root LP closes it. Searches are cut at
/// a few nodes, as on the tight family; each instance is solved again
/// under a budget of none, which proves nothing, and with the warm start
/// off.
#[test]
fn the_proof_before_the_model_is_first_fits_and_the_search_decides_the_rest() {
    let short = BnbConfig {
        max_nodes: 6,
        ..library_limits()
    };
    // A node budget of zero explores nothing, the root included.
    let none = BnbConfig {
        max_nodes: 0,
        ..library_limits()
    };
    let cold = SolveOptions {
        warm_start: false,
        ..SolveOptions::default()
    };
    let (mut skipped, mut fractional_skipped, mut left_to_the_model) = (0, 0, 0);
    let instances = proof_instances();
    let runs = instances.iter().enumerate().flat_map(|(i, inst)| {
        [
            (i, inst, &short, SolveOptions::default()),
            (i, inst, &none, SolveOptions::default()),
            (i, inst, &short, cold),
        ]
    });
    for (i, inst, limits, options) in runs {
        let label = format!("instance {i}, {} nodes, {options:?}", limits.max_nodes);
        let solved = ilp::solve_with(inst, limits, options);
        let (model, x, y) = ilp::build_model(inst);
        let seed = place(inst, Heuristic::FirstFitDecreasing);
        let start = seed.complete().then(|| ffd_start(inst, &model, &x, &y));
        let capacity = inst.servers[0].capacity_gops;
        let within = seed.complete()
            && inst
                .server_loads(&seed.placement)
                .iter()
                .all(|&load| load <= capacity);
        let integral = inst.servers[0].cost.fract() == 0.0;
        let met = start.as_ref().is_some_and(|start| {
            prunes(ilp::root_bound(inst), model.eval_objective(start), integral)
        });
        let proven = options.warm_start && limits.max_nodes > 0 && met;
        let no_model = solved.presolve.is_none();
        assert_eq!(
            no_model,
            proven && within,
            "{label}: bound met {met}, within G {within}"
        );
        if limits.max_nodes == 0 {
            assert_eq!((solved.optimal, solved.nodes), (false, 0), "{label}");
        }
        if no_model {
            assert_eq!(solved.placement, Some(seed.placement), "{label}: placement");
            let cost = start.map(|start| model.eval_objective(&start).to_bits());
            assert_eq!(solved.cost.map(f64::to_bits), cost, "{label}: cost");
            assert!(solved.optimal, "{label}: proof");
            assert_eq!((solved.nodes, solved.lp_iterations), (1, 0), "{label}");
            skipped += 1;
            fractional_skipped += usize::from(!integral);
            continue;
        }
        let config = BnbConfig {
            initial: start.filter(|_| options.warm_start),
            ..limits.clone()
        };
        let searched = solve_ilp(&model, &config);
        let placement = searched.solution.as_ref().map(|sol| {
            x.iter()
                .map(|row| row.iter().position(|v| v.is_some_and(|v| sol.is_set(v))))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            solved.placement.map(|p| p.assignment),
            placement,
            "{label}: placement"
        );
        assert_eq!(
            solved.cost.map(f64::to_bits),
            searched.solution.map(|s| s.objective.to_bits()),
            "{label}: cost"
        );
        let optimal = searched.status == IlpStatus::Optimal;
        assert_eq!(solved.optimal, optimal, "{label}: proof");
        assert_eq!(
            (solved.nodes, solved.lp_iterations),
            (searched.stats.nodes, searched.stats.lp_iterations),
            "{label}: nodes and pivots"
        );
        assert_eq!(solved.presolve, Some(searched.stats.presolve), "{label}");
        if proven && searched.stats.warm_start_accepted {
            assert_eq!((solved.optimal, solved.nodes), (true, 1), "{label}: root");
            left_to_the_model += 1;
        }
    }
    // Every pair loaded to exactly `G` skips the model; past `G` the model
    // takes a start the bound meets only below 1,000 GOPS.
    assert_eq!(
        (skipped, fractional_skipped, left_to_the_model),
        (81, 22, 12)
    );
}

/// The first-fit-decreasing placement of `inst` as a start for `model`,
/// set as `ilp::solve` sets it.
fn ffd_start(
    inst: &PlacementInstance,
    model: &Model,
    x: &[Vec<Option<VarId>>],
    y: &[VarId],
) -> Vec<f64> {
    let seed = place(inst, Heuristic::FirstFitDecreasing);
    let mut initial = vec![0.0; model.num_vars()];
    for (cell, assigned) in seed.placement.assignment.iter().enumerate() {
        if let Some(s) = *assigned {
            if let Some(v) = x[cell][s] {
                initial[v.index()] = 1.0;
            }
            initial[y[s].index()] = 1.0;
        }
    }
    initial
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
            // Σg/G = 2.994 and L2 = 3, but no three-server packing
            // exists: the pattern bound says so at the root.
            13 => assert_eq!((used, ffd, solved.nodes), (4, 4, 1)),
            // The one instance where the search beats the heuristic.
            16 => assert_eq!((used, ffd), (3, 4)),
            _ => assert!(used <= ffd),
        }
    }
    assert!(nodes <= 102, "library took {nodes} nodes");
}

/// An FNV hash over every library instance's answer from `ilp::solve`
/// under the benchmark's limits: each cell's server (`u64::MAX` when
/// unplaced), then the cost's bits. Recorded before the pattern row
/// existed: a bound may shorten a proof, never change an answer.
const PINNED_ANSWERS: u64 = 0x4360_e88c_7d8b_e22c;

#[test]
fn library_answers_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in 0..LIBRARY_SIZE {
        let solved = ilp::solve(&library_instance(i), &library_limits());
        let placement = solved.placement.expect("every library instance is placed");
        hash = placement
            .assignment
            .iter()
            .fold(hash, |h, s| fnv(h, s.map_or(u64::MAX, |s| s as u64)));
        hash = fnv(hash, solved.cost.expect("placed means priced").to_bits());
    }
    assert_eq!(hash, PINNED_ANSWERS, "{hash:#018x}");
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
    // Instance 16 alone needs several hundred nodes (its cutoff stays at
    // FFD's 4 while the optimum is 3): the check is not forty root LPs.
    assert!(nodes > 400, "only {nodes} node LPs compared");
}

/// FNV-1a, one 64-bit word at a time.
fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The depth-first search of [`warm_equals_cold_along_a_search`] on one
/// warm [`Simplex`], folding every node LP's status, pivot count,
/// objective bits and value bits into one hash.
fn node_lp_hash(model: &Model, cutoff: f64, max_nodes: usize) -> u64 {
    let integral = model.integral_vars();
    let mut lp = Simplex::new(model);
    let mut stack = vec![Vec::new()];
    let (mut nodes, mut hash) = (0, 0xcbf2_9ce4_8422_2325);
    while let Some(bounds) = stack.pop() {
        if nodes == max_nodes {
            break;
        }
        nodes += 1;
        for &v in &integral {
            let var = model.var(v);
            lp.set_bounds(v, var.lower, var.upper);
        }
        for &(v, lo, hi) in &bounds {
            lp.set_bounds(v, lo, hi);
        }
        let solved = lp.solve();
        let status = match solved.status {
            LpStatus::Optimal => 0,
            LpStatus::Infeasible => 1,
            LpStatus::Unbounded => 2,
            LpStatus::IterationLimit => 3,
        };
        hash = fnv(fnv(hash, status), solved.iterations as u64);
        let Some(sol) = solved.solution else {
            continue;
        };
        hash = fnv(hash, sol.objective.to_bits());
        hash = sol.values.iter().fold(hash, |h, x| fnv(h, x.to_bits()));
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
    hash
}

/// `(nodes, lp_iterations, node LP hash)` of each library instance,
/// recorded before the solver's per-node work was cut down (instance 13
/// since the pattern row proves it at the root). Every pivot, branch and
/// value bit of the search must stay as it was: a snapped incumbent would
/// hide LP-level drift, the hash does not.
const PINNED_SEARCH: [(usize, usize, u64); LIBRARY_SIZE] = [
    (1, 34, 0x64c754a54114ccc6),
    (1, 36, 0xdb579373959d6518),
    (1, 30, 0x21c2c889d9fb2d3a),
    (1, 36, 0x09def51cacaf1f3a),
    (1, 29, 0x08da76682971324e),
    (1, 35, 0x6376c7a9f23bf071),
    (1, 32, 0xa64e8ac7d9e40df9),
    (1, 30, 0xa46629cdf3eb4d43),
    (1, 37, 0xc9377a9d29dd0b20),
    (1, 32, 0xd6e44dd591e19e17),
    (1, 32, 0x60b9cd5ac32b633e),
    (1, 35, 0x228ffec5a30f8c95),
    (1, 31, 0x66e9dd4e83fce1e0),
    (1, 22, 0x25fe985325d91e00),
    (1, 35, 0x00c0796ecb674e93),
    (1, 34, 0x60241bc9c83f9357),
    (63, 241, 0xc4bb0d009cc65a43),
    (1, 29, 0x7b13763900ef690d),
    (1, 34, 0x52ea53c42ef8d8eb),
    (1, 30, 0xd21eac89da312e18),
    (1, 37, 0x8a00c7782d7fc135),
    (1, 26, 0xebfcb6e4abb3e5f0),
    (1, 31, 0x10256a459c70824f),
    (1, 27, 0xe63cb0d26881625e),
    (1, 32, 0x08900165443ebd05),
    (1, 30, 0x522cbc0557890d26),
    (1, 32, 0xebac8c4c8cd3160b),
    (1, 29, 0x162883be450007a8),
    (1, 32, 0x5cada5511b3dac18),
    (1, 28, 0x5e41cfc8a934ac52),
    (1, 31, 0x5525fff728a151b2),
    (1, 30, 0xd52ca5f2140c866c),
    (1, 31, 0x68e6f6c9eb5b34a0),
    (1, 27, 0x158c23794c598cf8),
    (1, 33, 0x5e93526aafedda7c),
    (1, 33, 0xcd4c9a9f4453d3fc),
    (1, 33, 0x64864bce87c4d598),
    (1, 33, 0x4fa5f9fda955c632),
    (1, 29, 0xb551df400b4baf2c),
    (1, 37, 0xf71b5548938caa89),
];

#[test]
fn library_search_is_pinned_bit_for_bit() {
    let mut found = Vec::new();
    for i in 0..LIBRARY_SIZE {
        let inst = library_instance(i);
        let (model, x, y) = ilp::build_model(&inst);
        let config = BnbConfig {
            initial: Some(ffd_start(&inst, &model, &x, &y)),
            ..library_limits()
        };
        let solved = solve_ilp(&model, &config);
        assert_eq!(
            solved.stats.nodes,
            ilp::solve(&inst, &library_limits()).nodes,
            "instance {i}: the decomposed solve is not ilp::solve"
        );
        let Presolved::Reduced { model, .. } = presolve(&model) else {
            panic!("instance {i}: presolve calls it infeasible");
        };
        let ffd = inst.servers_used(&place(&inst, Heuristic::FirstFitDecreasing).placement);
        found.push((
            solved.stats.nodes,
            solved.stats.lp_iterations,
            node_lp_hash(&model, ffd as f64, 1_500),
        ));
    }
    assert_eq!(found, PINNED_SEARCH);
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
