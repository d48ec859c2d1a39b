//! Property tests for the LP/ILP solvers.
//!
//! Strategy: generate small random programs whose structure guarantees a
//! checkable ground truth —
//! * random-coefficient LPs over a box are compared against their own
//!   feasibility report and (for pure-binary programs) brute force;
//! * knapsack ILPs are compared against the exact DP oracle.

use proptest::prelude::*;

use pran_ilp::knapsack::{knapsack_exact, Item};
use pran_ilp::{
    presolve, solve_ilp, solve_lp, BnbConfig, Cmp, IlpStatus, LinExpr, LpStatus, Model, Presolved,
    Sense,
};

/// A random ≤-constrained LP over box-bounded variables is always feasible
/// (the lower-bound corner satisfies Σaᵢxᵢ ≤ b when b is chosen above the
/// corner activity), so the solver must return Optimal and the solution
/// must verify.
fn box_lp_strategy() -> impl Strategy<Value = (Model, usize)> {
    (2usize..6, 1usize..5).prop_flat_map(|(nvars, ncons)| {
        let coefs = proptest::collection::vec(-5.0f64..5.0, nvars * ncons);
        let slack = proptest::collection::vec(0.0f64..10.0, ncons);
        let obj = proptest::collection::vec(-3.0f64..3.0, nvars);
        (Just(nvars), Just(ncons), coefs, slack, obj).prop_map(
            |(nvars, ncons, coefs, slack, obj)| {
                let mut m = Model::new();
                let vars: Vec<_> = (0..nvars).map(|_| m.continuous(0.0, 4.0)).collect();
                for k in 0..ncons {
                    let row = &coefs[k * nvars..(k + 1) * nvars];
                    let expr = LinExpr::weighted_sum(vars.iter().copied().zip(row.iter().copied()));
                    // Corner activity at x = 0 is 0; make rhs ≥ slack so the
                    // origin is feasible.
                    m.add_constraint(expr, Cmp::Le, slack[k]);
                }
                m.set_objective(
                    Sense::Maximize,
                    LinExpr::weighted_sum(vars.iter().copied().zip(obj.iter().copied())),
                );
                (m, nvars)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_solutions_are_feasible_and_optimal_status((m, _n) in box_lp_strategy()) {
        let r = solve_lp(&m);
        prop_assert_eq!(r.status, LpStatus::Optimal);
        let s = r.solution.unwrap();
        prop_assert!(m.is_feasible(&s.values, 1e-6),
            "infeasible LP answer: {:?}", m.check(&s.values, 1e-6));
    }

    #[test]
    fn ilp_binary_matches_brute_force(
        nvars in 2usize..5,
        coefs in proptest::collection::vec(-4.0f64..4.0, 4),
        weights in proptest::collection::vec(0.5f64..4.0, 4),
        cap_frac in 0.2f64..0.9,
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..nvars).map(|_| m.binary()).collect();
        let w = &weights[..nvars];
        let c = &coefs[..nvars];
        let cap = w.iter().sum::<f64>() * cap_frac;
        m.add_constraint(
            LinExpr::weighted_sum(vars.iter().copied().zip(w.iter().copied())),
            Cmp::Le,
            cap,
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum(vars.iter().copied().zip(c.iter().copied())),
        );
        let r = solve_ilp(&m, &BnbConfig::default());
        prop_assert_eq!(r.status, IlpStatus::Optimal);
        let got = r.solution.unwrap();
        prop_assert!(m.is_feasible(&got.values, 1e-6));

        // Brute force over all 2^n assignments.
        let mut best = f64::NEG_INFINITY;
        for bits in 0u32..(1 << nvars) {
            let x: Vec<f64> = (0..nvars).map(|i| ((bits >> i) & 1) as f64).collect();
            let wt: f64 = x.iter().zip(w).map(|(xi, wi)| xi * wi).sum();
            if wt <= cap + 1e-9 {
                let val: f64 = x.iter().zip(c).map(|(xi, ci)| xi * ci).sum();
                best = best.max(val);
            }
        }
        prop_assert!((got.objective - best).abs() < 1e-6,
            "bnb={} brute={}", got.objective, best);
    }

    #[test]
    fn ilp_knapsack_matches_dp_oracle(
        n in 1usize..8,
        weights in proptest::collection::vec(1u64..9, 8),
        values in proptest::collection::vec(1.0f64..20.0, 8),
        cap in 5u64..25,
    ) {
        let items: Vec<Item> = (0..n)
            .map(|i| Item { weight: weights[i], value: values[i] })
            .collect();
        let (_, dp_best) = knapsack_exact(&items, cap);

        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.binary()).collect();
        m.add_constraint(
            LinExpr::weighted_sum(
                vars.iter().copied().zip(items.iter().map(|it| it.weight as f64)),
            ),
            Cmp::Le,
            cap as f64,
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum(
                vars.iter().copied().zip(items.iter().map(|it| it.value)),
            ),
        );
        let r = solve_ilp(&m, &BnbConfig::default());
        prop_assert_eq!(r.status, IlpStatus::Optimal);
        prop_assert!((r.solution.unwrap().objective - dp_best).abs() < 1e-6);
    }

    #[test]
    fn lp_bound_dominates_ilp_optimum(
        n in 2usize..6,
        weights in proptest::collection::vec(1.0f64..5.0, 6),
        values in proptest::collection::vec(1.0f64..10.0, 6),
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.binary()).collect();
        let cap = weights[..n].iter().sum::<f64>() * 0.5;
        m.add_constraint(
            LinExpr::weighted_sum(vars.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            cap,
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum(vars.iter().copied().zip(values.iter().copied())),
        );
        let lp = solve_lp(&m);
        let ilp = solve_ilp(&m, &BnbConfig::default());
        prop_assert_eq!(lp.status, LpStatus::Optimal);
        prop_assert_eq!(ilp.status, IlpStatus::Optimal);
        // Relaxation bound must be ≥ integer optimum for maximization.
        prop_assert!(
            lp.solution.unwrap().objective >= ilp.solution.unwrap().objective - 1e-6
        );
    }

    #[test]
    fn compact_preserves_evaluation(
        terms in proptest::collection::vec((0usize..5, -10.0f64..10.0), 0..12),
        constant in -5.0f64..5.0,
        point in proptest::collection::vec(-3.0f64..3.0, 5),
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..5).map(|_| m.continuous(-10.0, 10.0)).collect();
        let mut e = LinExpr::constant_expr(constant);
        for (vi, c) in terms {
            e.add_term(vars[vi], c);
        }
        let raw = e.eval(&point);
        let compacted = e.compact().eval(&point);
        prop_assert!((raw - compacted).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 2-variable LPs can be verified geometrically: the optimum over a
    /// polygon is attained at a vertex, and every vertex is an intersection
    /// of two active constraints (or box edges). Enumerate them all and
    /// compare with the simplex.
    #[test]
    fn simplex_matches_vertex_enumeration_2d(
        rows in proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0, 1.0f64..10.0), 1..6),
        cx in -2.0f64..2.0,
        cy in -2.0f64..2.0,
    ) {
        let mut m = Model::new();
        let x = m.continuous(0.0, 10.0);
        let y = m.continuous(0.0, 10.0);
        for &(a, b, c) in &rows {
            m.add_constraint(
                LinExpr::weighted_sum([(x, a), (y, b)]),
                Cmp::Le,
                c,
            );
        }
        m.set_objective(Sense::Maximize, LinExpr::weighted_sum([(x, cx), (y, cy)]));
        let r = solve_lp(&m);
        // rhs > 0 with the origin inside → always feasible, never unbounded
        // (box bounds).
        prop_assert_eq!(r.status, LpStatus::Optimal);
        let got = r.solution.unwrap().objective;

        // Enumerate candidate vertices: intersections of every pair of
        // lines drawn from {constraints} ∪ {box edges}.
        let mut lines: Vec<(f64, f64, f64)> = rows.clone();
        lines.push((1.0, 0.0, 0.0));   // x = 0  (as 1x + 0y = 0 boundary)
        lines.push((1.0, 0.0, 10.0));  // x = 10
        lines.push((0.0, 1.0, 0.0));   // y = 0
        lines.push((0.0, 1.0, 10.0));  // y = 10
        let feasible = |px: f64, py: f64| {
            (0.0 - 1e-7..=10.0 + 1e-7).contains(&px)
                && (0.0 - 1e-7..=10.0 + 1e-7).contains(&py)
                && rows.iter().all(|&(a, b, c)| a * px + b * py <= c + 1e-6)
        };
        let mut best = f64::NEG_INFINITY;
        for i in 0..lines.len() {
            for j in (i + 1)..lines.len() {
                let (a1, b1, c1) = lines[i];
                let (a2, b2, c2) = lines[j];
                let det = a1 * b2 - a2 * b1;
                if det.abs() < 1e-9 {
                    continue;
                }
                let px = (c1 * b2 - c2 * b1) / det;
                let py = (a1 * c2 - a2 * c1) / det;
                if feasible(px, py) {
                    best = best.max(cx * px + cy * py);
                }
            }
        }
        // The origin is always feasible too.
        best = best.max(0.0);
        prop_assert!((got - best).abs() < 1e-5, "simplex {got} vs vertices {best}");
    }

    /// Warm starts never change the optimum, only the path to it.
    #[test]
    fn warm_start_is_semantically_invisible(
        weights in proptest::collection::vec(1.0f64..6.0, 5),
        values in proptest::collection::vec(1.0f64..10.0, 5),
        cap_frac in 0.3f64..0.8,
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..5).map(|_| m.binary()).collect();
        let cap = weights.iter().sum::<f64>() * cap_frac;
        m.add_constraint(
            LinExpr::weighted_sum(vars.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            cap,
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum(vars.iter().copied().zip(values.iter().copied())),
        );
        let cold = solve_ilp(&m, &BnbConfig::default());
        // Warm-start from the all-zero (always feasible) point.
        let warm = solve_ilp(
            &m,
            &BnbConfig { initial: Some(vec![0.0; m.num_vars()]), ..BnbConfig::default() },
        );
        prop_assert_eq!(cold.status, IlpStatus::Optimal);
        prop_assert_eq!(warm.status, IlpStatus::Optimal);
        let co = cold.solution.unwrap().objective;
        let wo = warm.solution.unwrap().objective;
        prop_assert!((co - wo).abs() < 1e-9, "cold {co} vs warm {wo}");
    }
}

/// A knapsack (`Maximize`, `≤`) or a cover (`Minimize`, `≥`) over binaries
/// with the given objective coefficients, plus an optional continuous
/// `z ∈ [0, 0.7]` entering the objective with coefficient `1`.
fn packing(sense: Sense, weights: &[f64], costs: &[f64], continuous: bool) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..weights.len()).map(|_| m.binary()).collect();
    let total: f64 = weights.iter().sum();
    m.add_constraint(
        LinExpr::weighted_sum(vars.iter().copied().zip(weights.iter().copied())),
        if sense == Sense::Maximize {
            Cmp::Le
        } else {
            Cmp::Ge
        },
        total * 0.45,
    );
    let mut objective = LinExpr::weighted_sum(vars.iter().copied().zip(costs.iter().copied()));
    if continuous {
        let z = m.continuous(0.0, 0.7);
        // Worth having in either sense: z = 0.7 when maximizing, and a
        // cover must pay 0.7 − z for it when minimizing.
        objective = if sense == Sense::Maximize {
            objective + z
        } else {
            objective - z + 0.7
        };
    }
    m.set_objective(sense, objective);
    m
}

/// Value of the relaxation branch and bound starts from: the presolved
/// model's (presolve may fix an item that cannot fit).
fn root_lp(m: &Model) -> f64 {
    let Presolved::Reduced { model, .. } = presolve(m) else {
        panic!("feasible by construction");
    };
    solve_lp(&model).solution.unwrap().objective
}

/// The bound branch and bound holds after the root alone, or `None` when
/// the root closed the search.
fn root_bound(m: &Model) -> Option<f64> {
    let r = solve_ilp(
        m,
        &BnbConfig {
            max_nodes: 1,
            ..BnbConfig::default()
        },
    );
    (r.stats.nodes == 1 && r.status != IlpStatus::Optimal).then_some(r.stats.best_bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With integer costs on binaries the root bound is the LP value
    /// rounded toward the feasible side: down for `Maximize`, up for
    /// `Minimize`, and never past the integer optimum.
    #[test]
    fn integral_objective_rounds_the_root_bound(
        weights in proptest::collection::vec(1.0f64..9.0, 3..8),
        costs in proptest::collection::vec(1u32..12, 8),
        maximize in any::<bool>(),
    ) {
        let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
        let costs: Vec<f64> = costs[..weights.len()].iter().map(|&c| f64::from(c)).collect();
        let m = packing(sense, &weights, &costs, false);
        let lp = root_lp(&m);
        let optimum = solve_ilp(&m, &BnbConfig::default()).solution.unwrap().objective;
        if let Some(bound) = root_bound(&m) {
            if maximize {
                prop_assert_eq!(bound, (lp + 1e-6).floor());
                prop_assert!(bound >= optimum);
            } else {
                prop_assert_eq!(bound, (lp - 1e-6).ceil());
                prop_assert!(bound <= optimum);
            }
        }
    }

    /// One fractional coefficient, or one continuous variable in the
    /// objective, and the root bound is the LP value as it is.
    #[test]
    fn rounding_never_fires_on_a_fractional_objective(
        weights in proptest::collection::vec(1.0f64..9.0, 3..8),
        costs in proptest::collection::vec(1u32..12, 8),
        maximize in any::<bool>(),
        continuous in any::<bool>(),
    ) {
        let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
        let mut costs: Vec<f64> = costs[..weights.len()].iter().map(|&c| f64::from(c)).collect();
        if !continuous {
            costs[0] += 0.5;
        }
        let m = packing(sense, &weights, &costs, continuous);
        let lp = root_lp(&m);
        if let Some(bound) = root_bound(&m) {
            prop_assert!((bound - lp).abs() < 1e-9, "bound {bound}, LP {lp}");
        }
    }
}
