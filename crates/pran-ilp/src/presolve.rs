//! Presolve: cheap model reductions before the solver sees the problem.
//!
//! Three classic passes, iterated to a fixed point:
//!
//! 1. **Singleton rows** — a constraint with one variable is just a bound;
//!    fold it into the variable and drop the row.
//! 2. **Bound tightening** — for each `≤` row, a variable's coefficient and
//!    the other variables' extreme activities imply a tighter bound.
//! 3. **Fixed-variable detection** — `lower == upper` (after integrality
//!    rounding) pins the variable.
//!
//! Reductions preserve the feasible set exactly, so `presolve` never
//! changes the optimum — only the search effort. Infeasibility discovered
//! here short-circuits the solver entirely.

use crate::model::{Cmp, Model, VarId};

/// Outcome of a presolve pass.
#[derive(Debug, Clone)]
pub enum Presolved {
    /// The reduced model plus reduction statistics.
    Reduced {
        /// The reduced (equivalent) model.
        model: Model,
        /// Statistics of what was removed/tightened.
        stats: PresolveStats,
    },
    /// Presolve proved the model infeasible.
    Infeasible,
}

/// What presolve accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Singleton rows folded into bounds.
    pub rows_removed: usize,
    /// Variable bounds tightened.
    pub bounds_tightened: usize,
    /// Variables fixed to a single value.
    pub vars_fixed: usize,
    /// Fixed-point iterations performed.
    pub iterations: usize,
}

const TOL: f64 = 1e-9;

/// Round up to an integer, snapping near-integers to their value.
fn int_ceil(x: f64) -> f64 {
    if (x - x.round()).abs() < TOL {
        x.round()
    } else {
        x.ceil()
    }
}

/// Round down to an integer, snapping near-integers to their value.
fn int_floor(x: f64) -> f64 {
    if (x - x.round()).abs() < TOL {
        x.round()
    } else {
        x.floor()
    }
}

/// Run presolve on a model.
///
/// The reduced model keeps every variable under its id and the surviving
/// rows in their order. A model's rows are compact (see
/// [`Model::add_constraint`]), so presolve reads their terms as stored; the
/// first pass copies only the rows it keeps, and later passes drop rows in
/// place.
pub fn presolve(model: &Model) -> Presolved {
    let mut m = Model {
        vars: model.vars.clone(),
        constraints: Vec::new(),
        objective: model.objective.clone(),
        sense: model.sense,
    };
    let mut stats = PresolveStats::default();

    loop {
        stats.iterations += 1;
        let mut changed = false;

        // Pass 1: fold singleton rows into variable bounds. Updates are
        // collected first (the constraint iteration borrows the model).
        let first = stats.iterations == 1;
        let rows = if first {
            &model.constraints
        } else {
            &m.constraints
        };
        let mut keep = Vec::with_capacity(rows.len());
        let mut singleton_updates: Vec<(VarId, f64, f64)> = Vec::new();
        for c in rows {
            match *c.expr.terms() {
                [] => {
                    // Constant row: either trivially true or infeasible.
                    let ok = match c.cmp {
                        Cmp::Le => 0.0 <= c.rhs + TOL,
                        Cmp::Ge => 0.0 >= c.rhs - TOL,
                        Cmp::Eq => c.rhs.abs() <= TOL,
                    };
                    if !ok {
                        return Presolved::Infeasible;
                    }
                    stats.rows_removed += 1;
                    changed = true;
                    keep.push(false);
                }
                [(v, a)] => {
                    let var = m.var(v);
                    let (mut lo, mut hi) = (var.lower, var.upper);
                    let bound = c.rhs / a;
                    match (c.cmp, a > 0.0) {
                        (Cmp::Le, true) | (Cmp::Ge, false) => hi = hi.min(bound),
                        (Cmp::Le, false) | (Cmp::Ge, true) => lo = lo.max(bound),
                        (Cmp::Eq, _) => {
                            lo = lo.max(bound);
                            hi = hi.min(bound);
                        }
                    }
                    if var.kind.is_integral() {
                        lo = int_ceil(lo);
                        hi = int_floor(hi);
                    }
                    if lo > hi + TOL {
                        return Presolved::Infeasible;
                    }
                    if (lo - var.lower).abs() > TOL || (hi - var.upper).abs() > TOL {
                        stats.bounds_tightened += 1;
                    }
                    singleton_updates.push((v, lo, hi.max(lo)));
                    stats.rows_removed += 1;
                    changed = true;
                    keep.push(false);
                }
                _ => keep.push(true),
            }
        }
        for (v, lo, hi) in singleton_updates {
            // Intersect with any earlier update to the same variable.
            let var = m.var(v);
            let lo = lo.max(var.lower);
            let hi = hi.min(var.upper);
            if lo > hi + TOL {
                return Presolved::Infeasible;
            }
            m.set_bounds(v, lo, hi.max(lo));
        }
        let mut kept = keep.into_iter();
        if first {
            m.constraints = model
                .constraints
                .iter()
                .filter(|_| kept.next() == Some(true))
                .cloned()
                .collect();
        } else if changed {
            m.constraints.retain(|_| kept.next() == Some(true));
        }

        // Pass 2: bound tightening from ≤-rows.
        let mut tighten: Vec<(VarId, f64, f64)> = Vec::new();
        for c in m.constraints() {
            if c.cmp != Cmp::Le {
                continue;
            }
            // Minimum possible activity of all terms.
            let min_activity: f64 = c
                .expr
                .terms()
                .iter()
                .map(|&(v, a)| {
                    let var = m.var(v);
                    if a >= 0.0 {
                        a * var.lower
                    } else {
                        a * var.upper
                    }
                })
                .sum();
            if !min_activity.is_finite() {
                continue;
            }
            for &(v, a) in c.expr.terms() {
                if a.abs() < TOL {
                    continue;
                }
                let var = m.var(v);
                let own_min = if a >= 0.0 {
                    a * var.lower
                } else {
                    a * var.upper
                };
                let slack = c.rhs - (min_activity - own_min);
                if a > 0.0 {
                    let implied_hi = slack / a;
                    let implied_hi = if var.kind.is_integral() {
                        int_floor(implied_hi)
                    } else {
                        implied_hi
                    };
                    if implied_hi < var.upper - TOL {
                        tighten.push((v, var.lower, implied_hi));
                    }
                } else {
                    let implied_lo = slack / a;
                    let implied_lo = if var.kind.is_integral() {
                        int_ceil(implied_lo)
                    } else {
                        implied_lo
                    };
                    if implied_lo > var.lower + TOL {
                        tighten.push((v, implied_lo, var.upper));
                    }
                }
            }
        }
        for (v, lo, hi) in tighten {
            let var = m.var(v);
            let lo = lo.max(var.lower);
            let hi = hi.min(var.upper);
            if lo > hi + TOL {
                return Presolved::Infeasible;
            }
            m.set_bounds(v, lo, hi.max(lo));
            stats.bounds_tightened += 1;
            changed = true;
        }

        if !changed || stats.iterations >= 10 {
            break;
        }
    }

    // Final fixed-variable count (informational).
    stats.vars_fixed = (0..m.num_vars())
        .filter(|&i| {
            let v = m.var(VarId(i));
            (v.upper - v.lower).abs() <= TOL
        })
        .count();

    Presolved::Reduced { model: m, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::{solve_ilp_default, IlpStatus};
    use crate::model::{LinExpr, Sense};

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 100.0);
        m.add_constraint(LinExpr::from(x), Cmp::Le, 7.0);
        m.add_constraint(LinExpr::term(x, 2.0), Cmp::Ge, 4.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        match presolve(&m) {
            Presolved::Reduced { model, stats } => {
                assert_eq!(model.num_constraints(), 0);
                assert_eq!(stats.rows_removed, 2);
                let v = model.var(x);
                assert_eq!(v.lower, 2.0);
                assert_eq!(v.upper, 7.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn conflicting_singletons_prove_infeasibility() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 100.0);
        m.add_constraint(LinExpr::from(x), Cmp::Le, 3.0);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 5.0);
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn constant_rows_checked() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 1.0);
        // x - x <= -1 → 0 <= -1: infeasible.
        m.add_constraint(LinExpr::from(x) - x, Cmp::Le, -1.0);
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn integer_singletons_round_inward() {
        let mut m = Model::new();
        let n = m.integer(0.0, 50.0);
        m.add_constraint(LinExpr::term(n, 2.0), Cmp::Le, 9.0); // n ≤ 4.5 → 4
        match presolve(&m) {
            Presolved::Reduced { model, .. } => {
                assert_eq!(model.var(n).upper, 4.0);
            }
            _ => panic!("feasible"),
        }
    }

    #[test]
    fn bound_tightening_from_multi_var_rows() {
        // 2x + 3y ≤ 12 with x,y ∈ [0,10] implies x ≤ 6, y ≤ 4.
        let mut m = Model::new();
        let x = m.continuous(0.0, 10.0);
        let y = m.continuous(0.0, 10.0);
        m.add_constraint(LinExpr::weighted_sum([(x, 2.0), (y, 3.0)]), Cmp::Le, 12.0);
        match presolve(&m) {
            Presolved::Reduced { model, stats } => {
                assert_eq!(model.var(x).upper, 6.0);
                assert_eq!(model.var(y).upper, 4.0);
                assert!(stats.bounds_tightened >= 2);
            }
            _ => panic!("feasible"),
        }
    }

    #[test]
    fn presolve_preserves_the_optimum() {
        // Knapsack with a redundant singleton and a tightenable row.
        let mut m = Model::new();
        let a = m.binary();
        let b = m.binary();
        let c = m.integer(0.0, 100.0);
        m.add_constraint(
            LinExpr::weighted_sum([(a, 3.0), (b, 4.0), (c, 2.0)]),
            Cmp::Le,
            9.0,
        );
        m.add_constraint(LinExpr::from(c), Cmp::Le, 2.0);
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum([(a, 5.0), (b, 4.0), (c, 3.0)]),
        );
        let direct = solve_ilp_default(&m);
        let Presolved::Reduced { model, stats } = presolve(&m) else {
            panic!("feasible");
        };
        let reduced = solve_ilp_default(&model);
        assert_eq!(direct.status, IlpStatus::Optimal);
        assert_eq!(reduced.status, IlpStatus::Optimal);
        assert!(
            (direct.solution.unwrap().objective - reduced.solution.unwrap().objective).abs() < 1e-9
        );
        assert!(stats.rows_removed >= 1);
        // c's bound tightened: cap row with a=b=0 allows c ≤ 4; the
        // singleton says ≤ 2.
        assert!(model.var(c).upper <= 2.0);
    }

    #[test]
    fn fixed_variables_counted() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 10.0);
        let _y = m.continuous(0.0, 10.0);
        m.add_constraint(LinExpr::from(x), Cmp::Eq, 3.0);
        match presolve(&m) {
            Presolved::Reduced { model, stats } => {
                assert_eq!(stats.vars_fixed, 1);
                assert_eq!(model.var(x).lower, 3.0);
                assert_eq!(model.var(x).upper, 3.0);
            }
            _ => panic!("feasible"),
        }
    }

    #[test]
    fn fixed_point_terminates() {
        // A chain of couplings that needs multiple iterations.
        let mut m = Model::new();
        let x = m.continuous(0.0, 100.0);
        let y = m.continuous(0.0, 100.0);
        let z = m.continuous(0.0, 100.0);
        m.add_constraint(LinExpr::from(x), Cmp::Le, 10.0);
        m.add_constraint(LinExpr::weighted_sum([(y, 1.0), (x, -1.0)]), Cmp::Le, 0.0);
        m.add_constraint(LinExpr::weighted_sum([(z, 1.0), (y, -1.0)]), Cmp::Le, 0.0);
        match presolve(&m) {
            Presolved::Reduced { model, stats } => {
                assert!(stats.iterations <= 10);
                // y ≤ x ≤ 10 propagates (x's bound folds in, then rows
                // tighten y and z).
                assert!(model.var(y).upper <= 10.0 + 1e-9);
                assert!(model.var(z).upper <= 10.0 + 1e-9);
            }
            _ => panic!("feasible"),
        }
    }
}
