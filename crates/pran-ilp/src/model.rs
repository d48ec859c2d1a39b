//! Mixed-integer linear program modeling layer.
//!
//! A [`Model`] is an ordered collection of decision [`Variable`]s, linear
//! [`Constraint`]s and one linear objective. It is deliberately dense and
//! index-based: variables are addressed by [`VarId`] (a plain index), which
//! keeps the solver code free of hash-map lookups and makes solutions
//! trivially addressable as `Vec<f64>`.
//!
//! The layer performs no solving itself — see [`crate::simplex`] for the LP
//! relaxation solver and [`crate::branch_bound`] for the integer solver.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Handle to a decision variable inside one [`Model`].
///
/// Ids are only meaningful for the model that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint inside one [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Raw index of the constraint inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Integrality class of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Shorthand for an integer variable with bounds `[0, 1]`.
    Binary,
}

impl VarKind {
    /// Whether the variable must take an integral value.
    pub fn is_integral(self) -> bool {
        !matches!(self, VarKind::Continuous)
    }
}

/// A decision variable: kind and bounds. Variables and constraints carry
/// no names; violations and solutions address them by id.
#[derive(Debug, Clone, Copy)]
pub struct Variable {
    /// Integrality class.
    pub kind: VarKind,
    /// Lower bound; `f64::NEG_INFINITY` when unbounded below.
    pub lower: f64,
    /// Upper bound; `f64::INFINITY` when unbounded above.
    pub upper: f64,
}

/// Comparison operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
        })
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    /// Minimize the objective.
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A linear expression `Σ coefᵢ·xᵢ + constant`.
///
/// Terms are kept unsorted and may contain duplicate variables; they are
/// merged by [`LinExpr::compact`], which [`Model::add_constraint`] and
/// [`Model::set_objective`] call, so a model's rows and objective are
/// always compact. Expressions compose with `+`, `-` and scalar `*`, and
/// a bare [`VarId`] converts into an expression:
///
/// ```
/// use pran_ilp::{Model, LinExpr, VarKind};
/// let mut m = Model::new();
/// let x = m.add_var(VarKind::Continuous, 0.0, 10.0);
/// let y = m.add_var(VarKind::Continuous, 0.0, 10.0);
/// let e: LinExpr = LinExpr::from(x) * 2.0 + y - 1.0;
/// assert_eq!(e.coefficient(x), 2.0);
/// assert_eq!(e.constant(), -1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (`0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant_expr(value: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// A single-term expression `coef · var`.
    pub fn term(var: VarId, coef: f64) -> Self {
        LinExpr {
            terms: vec![(var, coef)],
            constant: 0.0,
        }
    }

    /// Sum of `1.0 · v` over the given variables.
    pub fn sum<I: IntoIterator<Item = VarId>>(vars: I) -> Self {
        LinExpr {
            terms: vars.into_iter().map(|v| (v, 1.0)).collect(),
            constant: 0.0,
        }
    }

    /// Weighted sum `Σ coefᵢ · varᵢ`.
    pub fn weighted_sum<I: IntoIterator<Item = (VarId, f64)>>(pairs: I) -> Self {
        LinExpr {
            terms: pairs.into_iter().collect(),
            constant: 0.0,
        }
    }

    /// Append `coef · var` to this expression (builder style).
    pub fn add_term(&mut self, var: VarId, coef: f64) -> &mut Self {
        self.terms.push((var, coef));
        self
    }

    /// The additive constant of the expression.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Total coefficient of `var` (summing duplicate terms).
    pub fn coefficient(&self, var: VarId) -> f64 {
        self.terms
            .iter()
            .filter(|(v, _)| *v == var)
            .map(|(_, c)| c)
            .sum()
    }

    /// Raw (possibly duplicated) terms.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Sort the terms by variable, merge duplicates (summed in the order
    /// they were added) and drop zero coefficients.
    pub fn compact(mut self) -> LinExpr {
        self.terms.sort_by_key(|(v, _)| *v);
        self.terms.dedup_by(|(v, c), (kept, sum)| {
            let same = v == kept;
            if same {
                *sum += *c;
            }
            same
        });
        self.terms.retain(|(_, c)| *c != 0.0);
        self
    }

    /// Evaluate the expression against a full assignment (indexed by `VarId`).
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * values[v.0]).sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: VarId) -> LinExpr {
        self.terms.push((rhs, 1.0));
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: VarId) -> LinExpr {
        self.terms.push((rhs, -1.0));
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

/// A linear constraint `expr (cmp) rhs`.
///
/// The expression is compacted and its constant folded into `rhs` at
/// construction, so `expr.constant() == 0` always holds for stored
/// constraints.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Left-hand side (constant always folded out).
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// One feasibility violation found by [`Model::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Variable out of its `[lower, upper]` range.
    Bound {
        /// Offending variable.
        var: VarId,
        /// Its value.
        value: f64,
    },
    /// Integer/binary variable with a fractional value.
    Integrality {
        /// Offending variable.
        var: VarId,
        /// Its value.
        value: f64,
    },
    /// Constraint not satisfied; `activity` is the evaluated lhs.
    Constraint {
        /// Violated constraint.
        constraint: ConstraintId,
        /// Evaluated left-hand side.
        activity: f64,
        /// Required right-hand side.
        rhs: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Bound { var, value } => {
                write!(f, "variable #{} = {value} violates its bounds", var.0)
            }
            Violation::Integrality { var, value } => {
                write!(f, "variable #{} = {value} is not integral", var.0)
            }
            Violation::Constraint {
                constraint,
                activity,
                rhs,
            } => write!(
                f,
                "constraint #{} violated: activity {activity} vs rhs {rhs}",
                constraint.0
            ),
        }
    }
}

/// A complete assignment of values to a model's variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value per variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Objective value under the model's stated [`Sense`].
    pub objective: f64,
}

impl Solution {
    /// Value of one variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// Value of one variable rounded to the nearest integer.
    pub fn value_int(&self, var: VarId) -> i64 {
        self.values[var.0].round() as i64
    }

    /// Whether a binary/integer variable rounds to a nonzero value.
    pub fn is_set(&self, var: VarId) -> bool {
        self.values[var.0].round() != 0.0
    }
}

/// A mixed-integer linear program.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Sense,
}

impl Model {
    /// Create an empty model with a minimization objective of `0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with explicit kind and bounds.
    ///
    /// # Panics
    /// Panics if `lower > upper` or either bound is NaN — that is a modeling
    /// bug, not a runtime condition.
    pub fn add_var(&mut self, kind: VarKind, lower: f64, upper: f64) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        let (lower, upper) = match kind {
            VarKind::Binary => (0.0, 1.0),
            _ => (lower, upper),
        };
        self.vars.push(Variable { kind, lower, upper });
        VarId(self.vars.len() - 1)
    }

    /// Add a binary (0/1) variable.
    pub fn binary(&mut self) -> VarId {
        self.add_var(VarKind::Binary, 0.0, 1.0)
    }

    /// Add a bounded integer variable.
    pub fn integer(&mut self, lower: f64, upper: f64) -> VarId {
        self.add_var(VarKind::Integer, lower, upper)
    }

    /// Add a bounded continuous variable.
    pub fn continuous(&mut self, lower: f64, upper: f64) -> VarId {
        self.add_var(VarKind::Continuous, lower, upper)
    }

    /// Add the constraint `expr (cmp) rhs`.
    ///
    /// The expression's constant is folded into the right-hand side.
    pub fn add_constraint(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) -> ConstraintId {
        let mut expr = expr.compact();
        let rhs = rhs - expr.constant;
        expr.constant = 0.0;
        self.constraints.push(Constraint { expr, cmp, rhs });
        ConstraintId(self.constraints.len() - 1)
    }

    /// Set the objective.
    pub fn set_objective(&mut self, sense: Sense, expr: LinExpr) {
        self.sense = sense;
        self.objective = expr.compact();
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// All variables, indexed by [`VarId`].
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// One variable.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// All constraints, indexed by [`ConstraintId`].
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Ids of the variables that must be integral.
    pub fn integral_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind.is_integral())
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Replace a variable's bounds in place (presolve tightens them so).
    ///
    /// # Panics
    /// Panics if the new interval is empty.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(lower <= upper, "set_bounds would create an empty domain");
        self.vars[var.0].lower = lower;
        self.vars[var.0].upper = upper;
    }

    /// Evaluate the objective for an assignment.
    pub fn eval_objective(&self, values: &[f64]) -> f64 {
        self.objective.eval(values)
    }

    /// Check an assignment against bounds, integrality and all constraints.
    ///
    /// Returns every violation found (empty means feasible within `tol`).
    pub fn check(&self, values: &[f64], tol: f64) -> Vec<Violation> {
        let mut out = Vec::new();
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lower - tol || x > v.upper + tol {
                out.push(Violation::Bound {
                    var: VarId(i),
                    value: x,
                });
            }
            if v.kind.is_integral() && (x - x.round()).abs() > tol {
                out.push(Violation::Integrality {
                    var: VarId(i),
                    value: x,
                });
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            let activity = c.expr.eval(values);
            let ok = match c.cmp {
                Cmp::Le => activity <= c.rhs + tol,
                Cmp::Ge => activity >= c.rhs - tol,
                Cmp::Eq => (activity - c.rhs).abs() <= tol,
            };
            if !ok {
                out.push(Violation::Constraint {
                    constraint: ConstraintId(i),
                    activity,
                    rhs: c.rhs,
                });
            }
        }
        out
    }

    /// True if the assignment satisfies everything within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        self.check(values, tol).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_ops_compose() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 1.0);
        let y = m.continuous(0.0, 1.0);
        let e = (LinExpr::from(x) * 3.0 + y - 2.0) + LinExpr::term(x, -1.0);
        let e = e.compact();
        assert_eq!(e.coefficient(x), 2.0);
        assert_eq!(e.coefficient(y), 1.0);
        assert_eq!(e.constant(), -2.0);
    }

    #[test]
    fn compact_merges_and_drops_zeros() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 1.0);
        let e = (LinExpr::term(x, 1.5) + LinExpr::term(x, -1.5)).compact();
        assert!(e.terms().is_empty());
    }

    #[test]
    fn constraint_folds_constant_into_rhs() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 10.0);
        let c = m.add_constraint(LinExpr::from(x) + 3.0, Cmp::Le, 5.0);
        let stored = &m.constraints()[c.index()];
        assert_eq!(stored.rhs, 2.0);
        assert_eq!(stored.expr.constant(), 0.0);
    }

    #[test]
    fn binary_forces_unit_bounds() {
        let mut m = Model::new();
        let b = m.add_var(VarKind::Binary, -5.0, 5.0);
        assert_eq!(m.var(b).lower, 0.0);
        assert_eq!(m.var(b).upper, 1.0);
    }

    #[test]
    fn check_detects_all_violation_kinds() {
        let mut m = Model::new();
        let x = m.integer(0.0, 2.0);
        let y = m.continuous(0.0, 1.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Le, 1.0);
        // x fractional and constraint violated and y out of bounds.
        let viols = m.check(&[1.5, 2.0], 1e-9);
        assert_eq!(viols.len(), 3);
        assert!(m.is_feasible(&[1.0, 0.0], 1e-9));
    }

    #[test]
    fn sum_and_weighted_sum() {
        let mut m = Model::new();
        let a = m.binary();
        let b = m.binary();
        let s = LinExpr::sum([a, b]);
        assert_eq!(s.eval(&[1.0, 1.0]), 2.0);
        let w = LinExpr::weighted_sum([(a, 2.0), (b, -1.0)]);
        assert_eq!(w.eval(&[1.0, 1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn bad_bounds_panic() {
        let mut m = Model::new();
        m.continuous(1.0, 0.0);
    }

    #[test]
    fn eval_objective_respects_constant() {
        let mut m = Model::new();
        let x = m.continuous(0.0, 10.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x) * 2.0 + 5.0);
        assert_eq!(m.eval_objective(&[3.0]), 11.0);
    }
}
