//! Dense bounded-variable simplex for the LP relaxation of a [`Model`].
//!
//! Every model variable is one column with its own `[lower, upper]`
//! (either end may be infinite) and every constraint row gets one logical
//! column: `a·x + s = b` with `s ≥ 0` for `≤`, `s ≤ 0` for `≥` and `s = 0`
//! for `=`. A nonbasic column sits at its lower *or* its upper bound (a
//! free one at 0), so a bound is never a row: the tableau of a placement
//! model is as tall as its assignment, capacity and symmetry rows.
//!
//! [`Simplex`] keeps its tableau and basis between solves. After
//! [`Simplex::set_bounds`] the old basis still prices out dual feasible
//! whenever the moved columns are boxed (branch and bound's binaries
//! are), so [`Simplex::solve`] re-optimises a branch with a few dual
//! pivots. The same `solve` run on the slack basis is the cold solve
//! behind [`solve_lp`]: dual simplex when the slack basis is dual
//! feasible, otherwise a dual pass with the costs ignored to reach a
//! feasible basis and primal simplex from there. Pricing is Dantzig /
//! largest infeasibility with a Bland's-rule fallback against cycling.
//!
//! A re-solve pays for its pivots and little else. The pass that seats
//! the nonbasic columns also lists them with their values, and every
//! row's basic value is summed over that list, in column order from the
//! `-0.0` that `Iterator::sum` starts at. The dual ratio test walks the
//! leaving row as a slice, and its movability test has no branch. A
//! pivot carries the basic values along in its elimination pass. Branch
//! and bound reads the optimal point where it lies; only
//! [`Simplex::solve`] copies it out. Each of these keeps the arithmetic
//! and the tie rules of the plain loops, so every pivot and every bit
//! of every value is what those loops give (`tests/ilp_exact.rs` pins
//! them on the benchmark's instance library).

use crate::model::{Cmp, LinExpr, Model, Sense, Solution, VarId};

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration cap was hit (should not happen with Bland's rule; kept
    /// as a defensive terminal state rather than a panic).
    IterationLimit,
}

/// Result of [`solve_lp`] or one [`Simplex::solve`].
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Terminal status.
    pub status: LpStatus,
    /// Present iff `status == Optimal`.
    pub solution: Option<Solution>,
    /// Simplex pivots (and bound flips) this solve performed.
    pub iterations: usize,
}

const PIVOT_EPS: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;

/// Pivots after which the next solve rebuilds the tableau from the model
/// and starts cold, so rounding error cannot pile up over a long search.
const REFRESH_PIVOTS: usize = 2_000;

#[cfg(test)]
thread_local! {
    /// Test-only override of the per-solve iteration cap.
    static ITERATION_CAP: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with every solve on this thread capped at `cap` iterations.
#[cfg(test)]
pub(crate) fn with_iteration_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    ITERATION_CAP.with(|c| c.set(Some(cap)));
    let out = f();
    ITERATION_CAP.with(|c| c.set(None));
    out
}

/// Where a column currently is. The discriminant holds the directions a
/// nonbasic column may move from there (bit 0 up, bit 1 down; see
/// [`Simplex::moves`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Seat {
    Basic = 0,
    /// Nonbasic at its lower bound.
    Lower = UP,
    /// Nonbasic at its upper bound.
    Upper = DOWN,
    /// Nonbasic at 0, with neither bound finite.
    Free = UP | DOWN,
}

const UP: u8 = 1;
const DOWN: u8 = 2;

/// Solve the LP relaxation of `model` (integrality is ignored).
pub fn solve_lp(model: &Model) -> LpResult {
    Simplex::new(model).solve()
}

/// The LP relaxation of one model, re-solvable under changing variable
/// bounds from the basis the previous solve ended on.
#[derive(Debug)]
pub struct Simplex {
    rows: usize,
    /// Model variables; columns `[structural, cols)` are the logicals.
    structural: usize,
    cols: usize,
    /// `[A | I | b]` as the model states it, row-major with `cols + 1`
    /// entries a row; what a refresh starts again from.
    origin: Vec<f64>,
    /// `B⁻¹·[A | I | b]` for the current basis, same layout.
    tab: Vec<f64>,
    /// Cost per column in minimization form (logicals cost nothing).
    cost: Vec<f64>,
    /// Reduced cost per column for the current basis.
    reduced: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Basic column of each row.
    basis: Vec<usize>,
    seat: Vec<Seat>,
    /// Value of each row's basic column.
    beta: Vec<f64>,
    /// The model's objective, for reporting in its own sense.
    objective: LinExpr,
    pivots_since_refresh: usize,
    /// Iterations of the solve in progress.
    iterations: usize,
    pivot_row: Vec<f64>,
    /// The nonbasic columns and the values they sit at, in column order,
    /// as the last solve started.
    nonbasic: Vec<(usize, f64)>,
    /// The last optimal point, one value per model variable, and its
    /// objective in the model's sense.
    values: Vec<f64>,
    objective_value: f64,
}

impl Simplex {
    /// Set up the relaxation of `model` on its slack basis.
    pub fn new(model: &Model) -> Self {
        let structural = model.num_vars();
        let rows = model.num_constraints();
        let cols = structural + rows;
        let stride = cols + 1;
        let mut origin = vec![0.0; rows * stride];
        let mut lower: Vec<f64> = model.vars().iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = model.vars().iter().map(|v| v.upper).collect();
        for (i, c) in model.constraints().iter().enumerate() {
            let row = &mut origin[i * stride..(i + 1) * stride];
            for &(var, a) in c.expr.terms() {
                row[var.index()] += a;
            }
            row[structural + i] = 1.0;
            row[cols] = c.rhs;
            let (lo, hi) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(hi);
        }
        let sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost = vec![0.0; cols];
        for &(var, c) in model.objective().terms() {
            cost[var.index()] += sign * c;
        }
        let mut simplex = Simplex {
            rows,
            structural,
            cols,
            tab: Vec::new(),
            origin,
            reduced: Vec::new(),
            cost,
            lower,
            upper,
            basis: Vec::new(),
            seat: Vec::new(),
            beta: vec![0.0; rows],
            objective: model.objective().clone(),
            pivots_since_refresh: 0,
            iterations: 0,
            pivot_row: vec![0.0; stride],
            nonbasic: Vec::with_capacity(cols),
            values: vec![0.0; structural],
            objective_value: 0.0,
        };
        simplex.refresh();
        simplex
    }

    /// Replace one model variable's bounds; the next [`Simplex::solve`]
    /// re-optimises from the current basis.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        self.lower[var.index()] = lower;
        self.upper[var.index()] = upper;
    }

    /// Back to the slack basis on the tableau as the model states it.
    fn refresh(&mut self) {
        self.tab.clone_from(&self.origin);
        self.reduced.clone_from(&self.cost);
        self.basis = (self.structural..self.cols).collect();
        self.seat = vec![Seat::Lower; self.cols];
        self.seat[self.structural..].fill(Seat::Basic);
        self.pivots_since_refresh = 0;
    }

    /// Optimise under the current bounds.
    pub fn solve(&mut self) -> LpResult {
        let (status, iterations) = self.optimise();
        LpResult {
            status,
            solution: (status == LpStatus::Optimal).then(|| Solution {
                values: self.values.clone(),
                objective: self.objective_value,
            }),
            iterations,
        }
    }

    /// [`Simplex::solve`] without copying the point out: the status and
    /// the iterations taken; an optimal point stays in [`Simplex::point`].
    pub(crate) fn optimise(&mut self) -> (LpStatus, usize) {
        self.iterations = 0;
        if self.lower.iter().zip(&self.upper).any(|(lo, hi)| lo > hi) {
            return (LpStatus::Infeasible, 0);
        }
        if self.pivots_since_refresh > REFRESH_PIVOTS {
            self.refresh();
        }
        // Seat every nonbasic column on a bound it has: a boxed one on
        // the bound its reduced cost asks for, where it is if that is
        // either. The nonbasic columns and their values are listed on the
        // way, in column order, for `recompute_beta`.
        let mut dual_feasible = true;
        self.nonbasic.clear();
        for j in 0..self.cols {
            if self.seat[j] == Seat::Basic {
                continue;
            }
            let d = self.reduced[j];
            self.seat[j] = match (self.lower[j].is_finite(), self.upper[j].is_finite()) {
                (true, true) if d < -FEAS_TOL => Seat::Upper,
                (true, true) if d > FEAS_TOL || self.seat[j] != Seat::Upper => Seat::Lower,
                (true, true) | (false, true) => Seat::Upper,
                (true, false) => Seat::Lower,
                (false, false) => Seat::Free,
            };
            dual_feasible &= self.lower[j] == self.upper[j]
                || match self.seat[j] {
                    Seat::Lower => d >= -FEAS_TOL,
                    Seat::Upper => d <= FEAS_TOL,
                    _ => d.abs() <= FEAS_TOL,
                };
            self.nonbasic.push((j, self.value(j)));
        }
        self.recompute_beta();

        let status = if dual_feasible {
            self.dual(true)
        } else {
            match self.dual(false) {
                LpStatus::Optimal => self.primal(),
                other => other,
            }
        };
        if status == LpStatus::Optimal {
            for j in 0..self.structural {
                self.values[j] = self.value(j);
            }
            for (row, &b) in self.basis.iter().enumerate() {
                if b < self.structural {
                    self.values[b] = self.beta[row];
                }
            }
            self.objective_value = self.objective.eval(&self.values);
        }
        (status, self.iterations)
    }

    /// The point the last optimal solve ended on, indexed by variable,
    /// and its objective in the model's sense.
    pub(crate) fn point(&self) -> (&[f64], f64) {
        (&self.values, self.objective_value)
    }

    /// The value a nonbasic column sits at.
    fn value(&self, col: usize) -> f64 {
        match self.seat[col] {
            Seat::Lower => self.lower[col],
            Seat::Upper => self.upper[col],
            Seat::Basic | Seat::Free => 0.0,
        }
    }

    fn at(&self, row: usize, col: usize) -> f64 {
        self.tab[row * (self.cols + 1) + col]
    }

    /// `beta = B⁻¹b − Σ_nonbasic B⁻¹a_j · value_j`, each row's sum taken
    /// over `nonbasic` (column order), not over every column filtered by
    /// its seat again for every row.
    fn recompute_beta(&mut self) {
        // Column by column, so that the rows' sums, each in the order and
        // from the `-0.0` start of `Iterator::sum`, advance side by side
        // instead of each addition waiting on the one before.
        let stride = self.cols + 1;
        self.beta.fill(-0.0);
        for &(col, x) in &self.nonbasic {
            for (moved, tab_row) in self.beta.iter_mut().zip(self.tab.chunks_exact(stride)) {
                *moved += tab_row[col] * x;
            }
        }
        for (beta, tab_row) in self.beta.iter_mut().zip(self.tab.chunks_exact(stride)) {
            *beta = tab_row[self.cols] - *beta;
        }
    }

    /// The directions (`UP`, `DOWN`) a column may move from where it
    /// sits: none for a basic or a fixed one. A seat on a bound has that
    /// bound finite, so only a free column has no finite bound to compare.
    fn moves(&self, col: usize) -> u8 {
        let fixed = self.lower[col] == self.upper[col] && self.lower[col].is_finite();
        self.seat[col] as u8 & if fixed { 0 } else { UP | DOWN }
    }

    /// Iterations one phase may take before Bland's rule, and before
    /// giving up.
    fn budgets(&self) -> (usize, usize) {
        let dantzig = 2_000 + 40 * (self.rows + self.cols);
        let hard = 10 * dantzig + 100_000;
        #[cfg(test)]
        let hard = ITERATION_CAP.with(|c| c.get()).unwrap_or(hard);
        (dantzig, hard)
    }

    /// Dual simplex: pivot primal infeasibilities away while the reduced
    /// costs stay dual feasible. With `priced` off the costs are ignored
    /// (every basis is dual feasible for a zero objective), which makes
    /// this the search for a first feasible basis. `Optimal` means primal
    /// feasible.
    fn dual(&mut self, priced: bool) -> LpStatus {
        let (dantzig, hard) = self.budgets();
        let start = self.iterations;
        loop {
            // Every pass that does not return is one `advance`.
            let local = self.iterations - start;
            let bland = local > dantzig;

            // Leaving row: the largest bound violation (Bland: the
            // violated basic column of smallest index).
            let mut leave: Option<(usize, f64)> = None;
            for (row, &b) in self.basis.iter().enumerate() {
                let gap = (self.lower[b] - self.beta[row]).max(self.beta[row] - self.upper[b]);
                if gap > FEAS_TOL
                    && leave.is_none_or(|(lrow, lgap)| {
                        if bland {
                            b < self.basis[lrow]
                        } else {
                            gap > lgap
                        }
                    })
                {
                    leave = Some((row, gap));
                }
            }
            let Some((row, _)) = leave else {
                return LpStatus::Optimal;
            };
            if local >= hard {
                return LpStatus::IterationLimit;
            }
            let leaving = self.basis[row];
            let below = self.beta[row] < self.lower[leaving];

            // Entering column: among those that move the row toward its
            // bound, the smallest |d_j / a_rj|; ties to the larger pivot
            // (Bland: to the smallest index). The row is walked as a slice
            // and the test has no branch of its own: most entries fail it,
            // in no order a branch predictor could learn.
            let mut enter: Option<(usize, f64, f64)> = None;
            let stride = self.cols + 1;
            for (col, &a) in self.tab[row * stride..][..self.cols].iter().enumerate() {
                let toward = if below { -a } else { a };
                let moves = self.moves(col);
                if !((moves & UP != 0) & (toward > PIVOT_EPS)
                    | (moves & DOWN != 0) & (toward < -PIVOT_EPS))
                {
                    continue;
                }
                let ratio = if priced {
                    self.reduced[col].abs() / a.abs()
                } else {
                    0.0
                };
                let better = enter.is_none_or(|(_, best, best_a)| {
                    ratio < best - PIVOT_EPS
                        || (!bland && ratio <= best + PIVOT_EPS && a.abs() > best_a)
                });
                if better {
                    enter = Some((col, ratio, a.abs()));
                }
            }
            let Some((col, _, _)) = enter else {
                return LpStatus::Infeasible;
            };

            let target = if below {
                self.lower[leaving]
            } else {
                self.upper[leaving]
            };
            let step = (self.beta[row] - target) / self.at(row, col);
            self.advance(col, step, Some(row));
            self.seat[leaving] = if below { Seat::Lower } else { Seat::Upper };
        }
    }

    /// Primal simplex from a primal feasible basis.
    fn primal(&mut self) -> LpStatus {
        let (dantzig, hard) = self.budgets();
        let start = self.iterations;
        loop {
            // Every pass that does not return is one `advance`.
            let local = self.iterations - start;
            let bland = local > dantzig;

            // Entering column: the largest reduced cost it can act on
            // (Bland: the first).
            let mut enter: Option<(usize, f64)> = None;
            for col in 0..self.cols {
                let moves = self.moves(col);
                let d = self.reduced[col];
                if ((moves & UP != 0 && d < -FEAS_TOL) || (moves & DOWN != 0 && d > FEAS_TOL))
                    && enter.is_none_or(|(_, best)| !bland && d.abs() > best)
                {
                    enter = Some((col, d.abs()));
                }
            }
            let Some((col, _)) = enter else {
                return LpStatus::Optimal;
            };
            if local >= hard {
                return LpStatus::IterationLimit;
            }
            let dir = if self.reduced[col] < 0.0 { 1.0 } else { -1.0 };

            // Ratio test: the entering column's own range, then every
            // basic column's bound in the direction it moves; ties to the
            // smallest basic index.
            let mut theta = self.upper[col] - self.lower[col];
            let mut leave: Option<(usize, Seat)> = None;
            for (row, &b) in self.basis.iter().enumerate() {
                let a = self.at(row, col) * dir;
                let (room, seat) = if a > PIVOT_EPS {
                    ((self.beta[row] - self.lower[b]) / a, Seat::Lower)
                } else if a < -PIVOT_EPS {
                    ((self.upper[b] - self.beta[row]) / -a, Seat::Upper)
                } else {
                    continue;
                };
                let room = room.max(0.0);
                if room < theta - PIVOT_EPS
                    || (room <= theta + PIVOT_EPS
                        && leave.is_some_and(|(lrow, _)| b < self.basis[lrow]))
                {
                    theta = room;
                    leave = Some((row, seat));
                }
            }
            if theta.is_infinite() {
                return LpStatus::Unbounded;
            }
            match leave {
                Some((row, seat)) => {
                    let leaving = self.basis[row];
                    self.advance(col, dir * theta, Some(row));
                    self.seat[leaving] = seat;
                }
                None => {
                    // The entering column reaches its own other bound.
                    self.advance(col, dir * theta, None);
                    self.seat[col] = if dir > 0.0 { Seat::Upper } else { Seat::Lower };
                }
            }
        }
    }

    /// Move nonbasic `col` by `step`, carrying the basic values along,
    /// and pivot it into `row` if one is given (the caller seats the
    /// column that leaves).
    fn advance(&mut self, col: usize, step: f64, row: Option<usize>) {
        let stride = self.cols + 1;
        self.iterations += 1;
        let Some(row) = row else {
            for (tab_row, beta) in self.tab.chunks_exact(stride).zip(&mut self.beta) {
                *beta -= tab_row[col] * step;
            }
            return;
        };

        let inv = 1.0 / self.tab[row * stride + col];
        debug_assert!(inv.is_finite(), "pivot on a zero element");
        for (p, v) in self.pivot_row.iter_mut().zip(&self.tab[row * stride..]) {
            *p = v * inv;
        }
        // One pass carries each other row's basic value along and
        // eliminates the column from it; the pivot row's value is the
        // entering column's.
        let entering = self.value(col) + step;
        let rows = self.tab.chunks_exact_mut(stride).zip(&mut self.beta);
        for (r, (tab_row, beta)) in rows.enumerate() {
            if r == row {
                tab_row.copy_from_slice(&self.pivot_row);
                *beta = entering;
                continue;
            }
            let factor = tab_row[col];
            *beta -= factor * step;
            if factor != 0.0 {
                for (v, p) in tab_row.iter_mut().zip(&self.pivot_row) {
                    *v -= factor * p;
                }
                tab_row[col] = 0.0;
            }
        }
        let factor = self.reduced[col];
        if factor != 0.0 {
            for (d, p) in self.reduced.iter_mut().zip(&self.pivot_row) {
                *d -= factor * p;
            }
            self.reduced[col] = 0.0;
        }
        self.basis[row] = col;
        self.seat[col] = Seat::Basic;
        self.pivots_since_refresh += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr, Model, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 → x=2, y=6, obj=36.
        let mut m = Model::new();
        let x = m.continuous(0.0, f64::INFINITY);
        let y = m.continuous(0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x), Cmp::Le, 4.0);
        m.add_constraint(LinExpr::term(y, 2.0), Cmp::Le, 12.0);
        m.add_constraint(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(
            Sense::Maximize,
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
        );
        let r = solve_lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        let s = r.solution.unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 → x=10? No: y free to 0,
        // cheaper to use x? cost x =2 < 3 → x=10,y=0? but x>=2 ok. obj=20.
        let mut m = Model::new();
        let x = m.continuous(0.0, f64::INFINITY);
        let y = m.continuous(0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Ge, 10.0);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 2.0);
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(x, 2.0) + LinExpr::term(y, 3.0),
        );
        let r = solve_lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.solution.unwrap().objective, 20.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 4, x - y == 1 → x=2, y=1, obj=3.
        let mut m = Model::new();
        let x = m.continuous(0.0, f64::INFINITY);
        let y = m.continuous(0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(y, 2.0), Cmp::Eq, 4.0);
        m.add_constraint(LinExpr::from(x) - y, Cmp::Eq, 1.0);
        m.set_objective(Sense::Minimize, LinExpr::from(x) + y);
        let r = solve_lp(&m);
        let s = r.solution.unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 1.0);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 2.0);
        assert_eq!(solve_lp(&m).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.continuous(0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        assert_eq!(solve_lp(&m).status, LpStatus::Unbounded);
    }

    #[test]
    fn respects_variable_upper_bounds() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 3.5);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let r = solve_lp(&m);
        assert_close(r.solution.unwrap().objective, 3.5);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x+y with x in [2,10], y in [-3, 5], x+y >= 1 → x=2, y=-3? sum
        // -1 < 1 violates; so optimum x=2,y=-1 (sum 1) obj=1... cheaper to
        // raise y (cost equal) → any point on x+y=1 with x>=2, y>=-3; obj 1.
        let mut m = Model::new();
        let x = m.continuous(2.0, 10.0);
        let y = m.continuous(-3.0, 5.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Ge, 1.0);
        m.set_objective(Sense::Minimize, LinExpr::from(x) + y);
        let r = solve_lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.solution.unwrap().objective, 1.0);
    }

    #[test]
    fn negative_lower_bound_reached() {
        let mut m = Model::new();
        let y = m.continuous(-3.0, 5.0);
        m.set_objective(Sense::Minimize, LinExpr::from(y));
        let r = solve_lp(&m);
        assert_close(r.solution.unwrap().objective, -3.0);
    }

    #[test]
    fn free_variable_split() {
        // min |no| — just: min x s.t. x >= -7.5 with x free via constraint.
        let mut m = Model::new();
        let x = m.continuous(f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, -7.5);
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let r = solve_lp(&m);
        assert_close(r.solution.unwrap().value(x), -7.5);
    }

    #[test]
    fn upper_bound_only_variable() {
        let mut m = Model::new();
        let x = m.continuous(f64::NEG_INFINITY, 4.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let r = solve_lp(&m);
        assert_close(r.solution.unwrap().value(x), 4.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-flavoured degenerate system; mostly checks no cycling.
        let mut m = Model::new();
        let n = 6;
        let xs: Vec<_> = (0..n).map(|_| m.continuous(0.0, f64::INFINITY)).collect();
        for i in 0..n {
            let mut e = LinExpr::new();
            for (j, &xj) in xs.iter().enumerate().take(i) {
                e.add_term(xj, 2.0f64.powi((i - j) as i32 + 1));
            }
            e.add_term(xs[i], 1.0);
            m.add_constraint(e, Cmp::Le, 5.0f64.powi(i as i32 + 1));
        }
        let mut obj = LinExpr::new();
        for (j, &xj) in xs.iter().enumerate() {
            obj.add_term(xj, 2.0f64.powi((n - 1 - j) as i32));
        }
        m.set_objective(Sense::Maximize, obj);
        let r = solve_lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        // Known optimum of Klee-Minty: 5^n.
        assert_close(r.solution.unwrap().objective, 5.0f64.powi(n as i32));
    }

    #[test]
    fn redundant_equality_rows_are_dropped() {
        // x + y == 2 stated twice; still solvable.
        let mut m = Model::new();
        let x = m.continuous(0.0, f64::INFINITY);
        let y = m.continuous(0.0, f64::INFINITY);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Eq, 2.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Eq, 2.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let r = solve_lp(&m);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.solution.unwrap().value(x), 2.0);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 10.0);
        let y = m.continuous(0.0, 10.0);
        m.add_constraint(LinExpr::from(x) + LinExpr::term(y, 3.0), Cmp::Le, 12.0);
        m.add_constraint(LinExpr::term(x, 2.0) + y, Cmp::Ge, 3.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x) + y);
        let r = solve_lp(&m);
        let s = r.solution.unwrap();
        assert!(m.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // -x <= -3  ⇔  x >= 3.
        let mut m = Model::new();
        let x = m.continuous(0.0, 10.0);
        m.add_constraint(LinExpr::term(x, -1.0), Cmp::Le, -3.0);
        m.set_objective(Sense::Minimize, LinExpr::from(x));
        let r = solve_lp(&m);
        assert_close(r.solution.unwrap().value(x), 3.0);
    }

    #[test]
    fn objective_constant_carried_through() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 2.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x) + 100.0);
        let r = solve_lp(&m);
        assert_close(r.solution.unwrap().objective, 102.0);
    }

    /// max 5a + 4b + 3c over the unit box, 2a + 3b + c ≤ 3.5, a + b ≥ 0.5.
    fn boxed() -> (Model, [crate::model::VarId; 3]) {
        let mut m = Model::new();
        let a = m.continuous(0.0, 1.0);
        let b = m.continuous(0.0, 1.0);
        let c = m.continuous(0.0, 1.0);
        m.add_constraint(
            LinExpr::weighted_sum([(a, 2.0), (b, 3.0), (c, 1.0)]),
            Cmp::Le,
            3.5,
        );
        m.add_constraint(LinExpr::from(a) + b, Cmp::Ge, 0.5);
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum([(a, 5.0), (b, 4.0), (c, 3.0)]),
        );
        (m, [a, b, c])
    }

    #[test]
    fn finite_bounds_are_not_rows() {
        let (m, _) = boxed();
        let s = Simplex::new(&m);
        assert_eq!((s.rows, s.cols), (2, 5));
    }

    #[test]
    fn a_bound_change_reoptimises_to_the_cold_answer() {
        let (mut m, vars) = boxed();
        let mut warm = Simplex::new(&m);
        assert_close(warm.solve().solution.unwrap().objective, 8.0 + 4.0 / 6.0);
        // Walk through fixings, a relaxation back and an empty row set.
        let steps = [
            (0, 0.0, 0.0),
            (1, 1.0, 1.0),
            (2, 0.0, 0.25),
            (0, 0.0, 1.0),
            (1, 0.0, 0.0),
            (0, 0.0, 0.2),
        ];
        for (i, lo, hi) in steps {
            m.set_bounds(vars[i], lo, hi);
            warm.set_bounds(vars[i], lo, hi);
            let (w, c) = (warm.solve(), solve_lp(&m));
            assert_eq!(w.status, c.status, "after {i} in [{lo}, {hi}]");
            if let (Some(w), Some(c)) = (w.solution, c.solution) {
                assert_close(w.objective, c.objective);
                assert!(m.is_feasible(&w.values, 1e-6));
            }
        }
        // a ≤ 0.2 with b = 0 breaks a + b ≥ 0.5.
        assert_eq!(warm.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn a_long_run_refreshes_and_stays_exact() {
        let (mut m, vars) = boxed();
        let mut warm = Simplex::new(&m);
        let mut refreshed = false;
        for k in 0..4 * REFRESH_PIVOTS {
            let (i, hi) = (k % 3, if (k / 3) % 2 == 0 { 0.0 } else { 1.0 });
            m.set_bounds(vars[i], 0.0, hi);
            warm.set_bounds(vars[i], 0.0, hi);
            let before = warm.pivots_since_refresh;
            let (w, c) = (warm.solve(), solve_lp(&m));
            refreshed |= warm.pivots_since_refresh < before;
            assert_eq!(w.status, c.status, "step {k}");
            if let (Some(w), Some(c)) = (w.solution, c.solution) {
                assert_close(w.objective, c.objective);
            }
        }
        assert!(refreshed, "the run must outlast one refresh");
    }

    #[test]
    fn iteration_cap_reports_the_limit() {
        let (m, _) = boxed();
        let capped = with_iteration_cap(0, || solve_lp(&m));
        assert_eq!(capped.status, LpStatus::IterationLimit);
        assert!(capped.solution.is_none());
    }
}
