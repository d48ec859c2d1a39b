//! Branch & bound over LP relaxations — the integer solver behind the
//! "Optimal" placement results.
//!
//! Best-bound-first search; branching on the most fractional integral
//! variable; nodes are pruned against the incumbent with a relative gap
//! tolerance. When the objective can only take integer values on integer
//! points, every LP bound is rounded to the next integer first, so an
//! incumbent of 4 servers is proven by a relaxation worth 3.2. One
//! [`Simplex`] lives through the search: a node is its bound changes
//! applied to the tableau the previous node ended on, re-optimised by
//! dual pivots from that basis.
//!
//! A caller that has proven a bound on the objective
//! ([`solve_ilp_bounded`]) hands it to the root. When the warm start
//! meets it under the test every node is pruned by ([`prunes`]), the root
//! is closed before any LP: the start comes back `Optimal`, one node, no
//! pivots, and no [`Simplex`] is built. Bin packing is the case in point,
//! where first fit often uses exactly the servers a counting bound asks
//! for; the exact placer asks [`prunes`] itself before it builds a model
//! at all.
//!
//! A node pays only for its LP. It is one `Change`, a variable's new
//! bounds linked to the change above it, so a child copies no path. Before
//! its LP, only the variables the previous node overrode go back to their
//! model bounds, and its own path is applied root first. The LP's point
//! is read in place. Open nodes are keyed and pushed as always (bound,
//! then depth), so equal nodes pop in the same order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::model::{Model, Sense, Solution, VarId};
use crate::simplex::{LpStatus, Simplex};

/// Tunables for [`solve_ilp`]. The defaults suit PRAN-scale instances.
#[derive(Debug, Clone)]
pub struct BnbConfig {
    /// Stop after exploring this many nodes.
    pub max_nodes: usize,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Optional warm-start assignment (full values vector). If feasible
    /// and integral, it seeds the incumbent so pruning starts immediately —
    /// the standard trick for bin-packing-shaped models whose LP bounds
    /// are weak.
    pub initial: Option<Vec<f64>>,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            max_nodes: 200_000,
            time_limit: Duration::from_secs(120),
            initial: None,
        }
    }
}

/// |x − round(x)| at or below this counts as integral.
const INT_TOL: f64 = 1e-6;

/// The search ends when the relative incumbent/bound gap falls to this.
const GAP_TOL: f64 = 1e-9;

/// Absolute slack of the check ([`Model::is_feasible_relative`]) every
/// incumbent passes, the warm start included: a row may be violated by at
/// most this much.
pub const INCUMBENT_TOL: f64 = 1e-6;

/// Relative slack of the incumbent check: a row may be violated by at
/// most this fraction of its largest coefficient. On a placement's
/// capacity row that is the overfill `ServerSpec::fits` admits, where
/// [`INCUMBENT_TOL`] alone admits 2.5 times as much at 400 GOPS, and
/// the search would prove placements a fit test refuses.
pub const INCUMBENT_REL_TOL: f64 = 1e-9;

/// Terminal status of an integer solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpStatus {
    /// Incumbent proved optimal (within the relative gap `GAP_TOL`, 1e-9).
    Optimal,
    /// A feasible incumbent exists but limits stopped the proof of
    /// optimality; see [`BnbStats::gap`].
    Feasible,
    /// No integer-feasible point exists.
    Infeasible,
    /// The LP relaxation is unbounded (so the ILP is unbounded or
    /// infeasible; we do not distinguish).
    Unbounded,
    /// Limits hit before any incumbent was found.
    LimitReached,
}

/// Search statistics for one [`solve_ilp`] call.
#[derive(Debug, Clone)]
pub struct BnbStats {
    /// Nodes whose LP relaxation was solved, plus a root closed by the
    /// caller's bound ([`solve_ilp_bounded`]), which counts as one.
    pub nodes: usize,
    /// Total simplex pivots across all node LPs.
    pub lp_iterations: usize,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// Best proven bound on the optimum (in the model's sense).
    pub best_bound: f64,
    /// Incumbent objective, if any.
    pub incumbent: Option<f64>,
    /// Whether [`BnbConfig::initial`] was given and seeded the incumbent
    /// (a start that fails the feasibility or integrality check is
    /// dropped, and this is where that shows).
    pub warm_start_accepted: bool,
    /// What presolve accomplished before the search started.
    pub presolve: crate::presolve::PresolveStats,
}

impl BnbStats {
    /// Relative optimality gap `|incumbent − bound| / max(1, |incumbent|)`;
    /// `None` without an incumbent.
    pub fn gap(&self) -> Option<f64> {
        self.incumbent
            .map(|inc| (inc - self.best_bound).abs() / inc.abs().max(1.0))
    }
}

/// Result of [`solve_ilp`].
#[derive(Debug, Clone)]
pub struct IlpResult {
    /// Terminal status.
    pub status: IlpStatus,
    /// Best integer-feasible solution found, if any.
    pub solution: Option<Solution>,
    /// Search statistics.
    pub stats: BnbStats,
}

/// One branching decision: `var` held to `[lower, upper]` below the
/// decision `parent` (`None` at the root's children).
struct Change {
    parent: Option<usize>,
    var: VarId,
    lower: f64,
    upper: f64,
}

/// One open node.
struct Node {
    /// The decision that made it, an index into the search's changes; the
    /// chain of parents from there holds every bound override of the
    /// branch path, deepest first. `None` for the root.
    change: Option<usize>,
    /// LP bound of the parent (minimization-normalized); used as priority.
    bound: f64,
    depth: usize,
}

/// Max-heap keyed on the *best* (lowest, in minimization form) bound.
struct Prioritized(Node);

impl PartialEq for Prioritized {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound
    }
}
impl Eq for Prioritized {}
impl PartialOrd for Prioritized {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Prioritized {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower bound first (BinaryHeap is a max-heap → reverse), deeper
        // node first on ties so incumbents appear early.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.depth.cmp(&other.0.depth))
    }
}

/// Solve the mixed-integer program exactly (up to the configured limits).
///
/// The model is presolved first (singleton folding, bound tightening);
/// presolve-detected infeasibility short-circuits the search. Variables
/// are preserved 1:1, so solutions come back in the original model's
/// indexing and are re-validated against the original constraints.
pub fn solve_ilp(model: &Model, config: &BnbConfig) -> IlpResult {
    let unknown = match model.sense() {
        Sense::Minimize => f64::NEG_INFINITY,
        Sense::Maximize => f64::INFINITY,
    };
    solve_ilp_bounded(model, config, unknown)
}

/// [`solve_ilp`], given `root_bound`: no point the incumbent check
/// accepts has an objective better than it (below it when minimising,
/// above it when maximising). An infinite bound that says nothing is
/// [`solve_ilp`] itself.
///
/// The bound is the root's: the root is pruned by it as any node is by
/// its parent's. So when the warm start is accepted and meets the bound,
/// the start is returned `Optimal` with one node, no pivots and no
/// [`Simplex`] built; otherwise the search runs as [`solve_ilp`]'s, pivot
/// for pivot. A bound that is not valid proves a start that is not
/// optimal.
///
/// A caller that can price its start without a model may ask [`prunes`]
/// first and skip the model where the root would close: the exact placer
/// does, and hands this function the same bound for every solve that
/// still builds one.
pub fn solve_ilp_bounded(model: &Model, config: &BnbConfig, root_bound: f64) -> IlpResult {
    let start = Instant::now();
    let reduced;
    let presolve_stats;
    let model = match crate::presolve::presolve(model) {
        crate::presolve::Presolved::Infeasible => {
            return IlpResult {
                status: IlpStatus::Infeasible,
                solution: None,
                stats: BnbStats {
                    nodes: 0,
                    lp_iterations: 0,
                    elapsed: start.elapsed(),
                    best_bound: f64::NAN,
                    incumbent: None,
                    warm_start_accepted: false,
                    presolve: crate::presolve::PresolveStats::default(),
                },
            }
        }
        crate::presolve::Presolved::Reduced { model: m, stats } => {
            reduced = m;
            presolve_stats = stats;
            &reduced
        }
    };
    // Normalize to minimization internally: `norm_obj = sign * objective`.
    let sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let mut stats = BnbStats {
        nodes: 0,
        lp_iterations: 0,
        elapsed: Duration::ZERO,
        best_bound: f64::NEG_INFINITY,
        incumbent: None,
        warm_start_accepted: false,
        presolve: presolve_stats,
    };

    let mut incumbent: Option<Solution> = None;
    let mut incumbent_norm = f64::INFINITY;
    // Warm start: accept the caller's solution if it checks out.
    if let Some(values) = &config.initial {
        if values.len() == model.num_vars()
            && model.is_feasible_relative(values, INCUMBENT_TOL, INCUMBENT_REL_TOL)
        {
            let integral = model
                .integral_vars()
                .iter()
                .all(|v| (values[v.index()] - values[v.index()].round()).abs() <= INT_TOL);
            if integral {
                let objective = model.eval_objective(values);
                incumbent_norm = sign * objective;
                stats.incumbent = Some(objective);
                stats.warm_start_accepted = true;
                incumbent = Some(Solution {
                    values: values.clone(),
                    objective,
                });
            }
        }
    }
    // An objective that is an integer on every integer point lets each LP
    // bound move up to the next integer before it is compared or queued.
    let integral_objective = objective_is_integral(model);
    let mut open = BinaryHeap::new();
    open.push(Prioritized(Node {
        change: None,
        bound: tighten(sign * root_bound, integral_objective),
        depth: 0,
    }));
    let mut changes: Vec<Change> = Vec::new();
    // The changes of the node being solved, deepest first, and the
    // variables the LP holds off their model bounds.
    let mut path: Vec<usize> = Vec::new();
    let mut overridden: Vec<VarId> = Vec::new();

    // Built by the first node that needs an LP.
    let mut lp: Option<Simplex> = None;
    let integral = model.integral_vars();
    let mut root_status: Option<IlpStatus> = None;
    // The search is a proof only if every node was resolved: a node the
    // limits or the LP's iteration cap left open keeps its parent's bound
    // in the final `best_bound`.
    let mut exhausted = true;
    let mut unresolved_bound = f64::INFINITY;

    while let Some(Prioritized(node)) = open.pop() {
        if stats.nodes >= config.max_nodes || start.elapsed() > config.time_limit {
            // Return the node to the frontier so its bound is counted when
            // the final best-bound/gap is computed below.
            exhausted = false;
            open.push(Prioritized(node));
            break;
        }
        // Prune against incumbent. A root closed by the caller's bound
        // counts as one node, as a root its LP closes does. A queued
        // bound is tightened already, and tightening it again is a no-op.
        if prunes(node.bound, incumbent_norm, integral_objective) {
            stats.nodes += usize::from(node.change.is_none());
            continue;
        }
        // Every decision above this node was its ancestors' own, checked
        // before they were solved: only the newest can be empty.
        if node
            .change
            .is_some_and(|c| changes[c].lower > changes[c].upper)
        {
            continue; // empty domain: infeasible branch
        }

        // Swap the previous node's bound overrides for this node's,
        // applied root first so the deepest one of a variable wins.
        let lp = lp.get_or_insert_with(|| Simplex::new(model));
        for v in overridden.drain(..) {
            let var = model.var(v);
            lp.set_bounds(v, var.lower, var.upper);
        }
        path.clear();
        path.extend(std::iter::successors(node.change, |&c| changes[c].parent));
        for &c in path.iter().rev() {
            let Change {
                var, lower, upper, ..
            } = changes[c];
            lp.set_bounds(var, lower, upper);
            overridden.push(var);
        }

        let (status, iterations) = lp.optimise();
        stats.nodes += 1;
        stats.lp_iterations += iterations;

        match status {
            LpStatus::Infeasible => {
                if stats.nodes == 1 {
                    root_status = Some(IlpStatus::Infeasible);
                }
                continue;
            }
            LpStatus::Unbounded => {
                if stats.nodes == 1 {
                    root_status = Some(IlpStatus::Unbounded);
                }
                continue;
            }
            LpStatus::IterationLimit => {
                exhausted = false;
                unresolved_bound = unresolved_bound.min(node.bound);
                continue;
            }
            LpStatus::Optimal => {}
        }
        let (values, lp_objective) = lp.point();
        if prunes(sign * lp_objective, incumbent_norm, integral_objective) {
            continue;
        }
        let node_norm = tighten(sign * lp_objective, integral_objective);

        // The deepest override of `v` on this node's path, else its model
        // bounds.
        let domain = |v: VarId| {
            path.iter()
                .map(|&c| &changes[c])
                .find(|c| c.var == v)
                .map_or_else(
                    || (model.var(v).lower, model.var(v).upper),
                    |c| (c.lower, c.upper),
                )
        };
        // The integral variable closest to half-way between integers
        // (the first of them on a tie).
        let half_dist = |x: f64| (0.5 - (x - x.floor())).abs();
        let mut branch_var = integral
            .iter()
            .map(|&v| (v, values[v.index()]))
            .filter(|&(_, x)| (x - x.round()).abs() > INT_TOL)
            .min_by(|a, b| half_dist(a.1).total_cmp(&half_dist(b.1)));

        if branch_var.is_none() {
            // Integral: snap the integral variables exactly and re-check
            // the rows before taking it as an incumbent.
            let mut snapped = values.to_vec();
            for &v in &integral {
                snapped[v.index()] = snapped[v.index()].round();
            }
            if model.is_feasible_relative(&snapped, INCUMBENT_TOL, INCUMBENT_REL_TOL) {
                let objective = model.eval_objective(&snapped);
                let norm = sign * objective;
                if norm < incumbent_norm {
                    incumbent_norm = norm;
                    incumbent = Some(Solution {
                        values: snapped,
                        objective,
                    });
                    stats.incumbent = Some(objective);
                }
                continue;
            }
            // Snapping broke a row, so the point is no integer solution:
            // branch on the variable farthest from its rounding among
            // those strictly inside their domain (each child's domain is
            // then smaller). With none, the node is dropped.
            let off = |x: f64| (x - x.round()).abs();
            branch_var = integral
                .iter()
                .map(|&v| (v, values[v.index()]))
                .filter(|&(v, x)| {
                    let (lo, hi) = domain(v);
                    off(x) > 0.0 && lo < x && x < hi
                })
                .max_by(|a, b| off(a.1).total_cmp(&off(b.1)));
        }
        let Some((v, x)) = branch_var else {
            continue;
        };
        let floor = x.floor();
        let (cur_lo, cur_hi) = domain(v);
        // Down child: x ≤ floor; up child: x ≥ floor + 1.
        for (lower, upper) in [
            (cur_lo, floor.min(cur_hi)),
            ((floor + 1.0).max(cur_lo), cur_hi),
        ] {
            changes.push(Change {
                parent: node.change,
                var: v,
                lower,
                upper,
            });
            open.push(Prioritized(Node {
                change: Some(changes.len() - 1),
                bound: node_norm,
                depth: node.depth + 1,
            }));
        }
    }

    stats.elapsed = start.elapsed();

    // Final bound: if search exhausted, bound equals incumbent (proof of
    // optimality); otherwise the minimum over the nodes left open or
    // unresolved.
    let open_best = open
        .into_iter()
        .map(|p| p.0.bound)
        .fold(f64::INFINITY, f64::min);
    let bound_norm = if exhausted {
        incumbent_norm
    } else {
        open_best.min(unresolved_bound).min(incumbent_norm)
    };
    stats.best_bound = if bound_norm.is_finite() {
        sign * bound_norm
    } else {
        f64::NAN
    };

    let status = match (&incumbent, exhausted) {
        (Some(_), true) => IlpStatus::Optimal,
        (Some(_), false) => {
            let gap = stats.gap().unwrap_or(f64::INFINITY);
            if gap <= GAP_TOL {
                IlpStatus::Optimal
            } else {
                IlpStatus::Feasible
            }
        }
        (None, true) => root_status.unwrap_or(IlpStatus::Infeasible),
        (None, false) => IlpStatus::LimitReached,
    };

    IlpResult {
        status,
        solution: incumbent,
        stats,
    }
}

/// Solve with default configuration.
pub fn solve_ilp_default(model: &Model) -> IlpResult {
    solve_ilp(model, &BnbConfig::default())
}

/// Whether a node whose relaxation is bounded by `bound` can hold nothing
/// better than an incumbent of objective `incumbent`, both
/// minimization-normalized: the search's one prune test, for the root
/// under the caller's bound as for every node under its LP's. Where the
/// objective is an integer at every integer point (`integral_objective`)
/// the bound first moves up to the next integer, within `1e-6`; the
/// bound then prunes when it is within the relative gap `GAP_TOL` (1e-9)
/// of the incumbent.
///
/// A caller that proves the root closed without a model (the exact
/// placer does, with first fit decreasing's cost) asks this test, so it
/// closes exactly the roots the search would.
pub fn prunes(bound: f64, incumbent: f64, integral_objective: bool) -> bool {
    tighten(bound, integral_objective) >= incumbent - GAP_TOL * incumbent.abs().max(1.0)
}

/// A bound moved up to the next integer where the objective is integral
/// (see [`prunes`]). Idempotent: a tightened bound tightens to itself.
fn tighten(bound: f64, integral_objective: bool) -> f64 {
    if integral_objective {
        (bound - INT_TOL).ceil()
    } else {
        bound
    }
}

/// Whether the objective is an integer at every integer-feasible point:
/// integer coefficients on integral variables only, integer constant.
fn objective_is_integral(model: &Model) -> bool {
    let objective = model.objective();
    objective.constant().fract() == 0.0
        && objective
            .terms()
            .iter()
            .all(|&(v, c)| c == 0.0 || (c.fract() == 0.0 && model.var(v).kind.is_integral()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LinExpr, Model, Sense, VarKind};

    fn cfg() -> BnbConfig {
        BnbConfig::default()
    }

    #[test]
    fn knapsack_small_exact() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 → a+c (w=5, v=17)?
        // options: a+b w7 no; b+c w6 v20 ✓ best.
        let mut m = Model::new();
        let a = m.binary();
        let b = m.binary();
        let c = m.binary();
        m.add_constraint(
            LinExpr::weighted_sum([(a, 3.0), (b, 4.0), (c, 2.0)]),
            Cmp::Le,
            6.0,
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum([(a, 10.0), (b, 13.0), (c, 7.0)]),
        );
        let r = solve_ilp(&m, &cfg());
        assert_eq!(r.status, IlpStatus::Optimal);
        let s = r.solution.unwrap();
        assert_eq!(s.objective.round() as i64, 20);
        assert!(!s.is_set(a) && s.is_set(b) && s.is_set(c));
    }

    #[test]
    fn integer_rounding_differs_from_lp() {
        // max x + y s.t. 2x + 2y <= 5, integers → LP gives 2.5, ILP 2.
        let mut m = Model::new();
        let x = m.integer(0.0, 10.0);
        let y = m.integer(0.0, 10.0);
        m.add_constraint(LinExpr::term(x, 2.0) + LinExpr::term(y, 2.0), Cmp::Le, 5.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x) + y);
        let r = solve_ilp(&m, &cfg());
        assert_eq!(r.status, IlpStatus::Optimal);
        assert_eq!(r.solution.unwrap().objective.round() as i64, 2);
    }

    #[test]
    fn infeasible_integer_program() {
        // 0.4 <= x <= 0.6, x integer → infeasible.
        let mut m = Model::new();
        let x = m.add_var(VarKind::Integer, 0.0, 1.0);
        m.add_constraint(LinExpr::from(x), Cmp::Ge, 0.4);
        m.add_constraint(LinExpr::from(x), Cmp::Le, 0.6);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let r = solve_ilp(&m, &cfg());
        assert_eq!(r.status, IlpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected_at_root() {
        let mut m = Model::new();
        let x = m.integer(0.0, f64::INFINITY);
        m.set_objective(Sense::Maximize, LinExpr::from(x));
        let r = solve_ilp(&m, &cfg());
        assert_eq!(r.status, IlpStatus::Unbounded);
    }

    #[test]
    fn minimization_sense() {
        // min 3x + 2y s.t. x + y >= 3, integers in [0,5] → (0,3) cost 6.
        let mut m = Model::new();
        let x = m.integer(0.0, 5.0);
        let y = m.integer(0.0, 5.0);
        m.add_constraint(LinExpr::from(x) + y, Cmp::Ge, 3.0);
        m.set_objective(
            Sense::Minimize,
            LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0),
        );
        let r = solve_ilp(&m, &cfg());
        assert_eq!(r.status, IlpStatus::Optimal);
        let s = r.solution.unwrap();
        assert_eq!(s.objective.round() as i64, 6);
        assert_eq!(s.value_int(y), 3);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 5b + y s.t. y <= 4.3, y <= 10(1-b)+4.3... simpler:
        // max 5b + y, y + 3b <= 6, y in [0, 4.3] cont, b binary.
        // b=1 → y<=3 → 8; b=0 → y<=4.3 → 4.3. Optimum 8.
        let mut m = Model::new();
        let b = m.binary();
        let y = m.continuous(0.0, 4.3);
        m.add_constraint(LinExpr::from(y) + LinExpr::term(b, 3.0), Cmp::Le, 6.0);
        m.set_objective(Sense::Maximize, LinExpr::term(b, 5.0) + y);
        let r = solve_ilp(&m, &cfg());
        let s = r.solution.unwrap();
        assert!((s.objective - 8.0).abs() < 1e-6);
        assert!(s.is_set(b));
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn gap_reported_on_node_limit() {
        // A knapsack big enough to need >1 node, with max_nodes=1.
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|_| m.binary()).collect();
        let weights: Vec<f64> = (0..12).map(|i| 3.0 + (i as f64 * 1.7) % 5.0).collect();
        let values: Vec<f64> = (0..12).map(|i| 4.0 + (i as f64 * 2.3) % 7.0).collect();
        m.add_constraint(
            LinExpr::weighted_sum(vars.iter().copied().zip(weights.iter().copied())),
            Cmp::Le,
            20.0,
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum(vars.iter().copied().zip(values.iter().copied())),
        );
        let full = solve_ilp(&m, &cfg());
        assert_eq!(full.status, IlpStatus::Optimal);
        let limited = solve_ilp(
            &m,
            &BnbConfig {
                max_nodes: 2,
                ..BnbConfig::default()
            },
        );
        assert!(matches!(
            limited.status,
            IlpStatus::Feasible | IlpStatus::LimitReached | IlpStatus::Optimal
        ));
        if limited.status == IlpStatus::Feasible {
            assert!(limited.stats.gap().unwrap() > 0.0);
        }
    }

    #[test]
    fn a_node_the_lp_gave_up_on_is_not_a_proof() {
        // max 10x + y1 + y2, 2y1 + 2y2 − 2x ≤ 1.2, x integer in [0, 1.5].
        // The root sits on its bounds (x = 1.5, no pivot); the x ≤ 1
        // child needs one, and x ≥ 2 is empty. Optimum: x = 1, one y: 11.
        let mut m = Model::new();
        let x = m.integer(0.0, 1.5);
        let y1 = m.binary();
        let y2 = m.binary();
        m.add_constraint(
            LinExpr::weighted_sum([(y1, 2.0), (y2, 2.0), (x, -2.0)]),
            Cmp::Le,
            1.2,
        );
        m.set_objective(
            Sense::Maximize,
            LinExpr::weighted_sum([(x, 10.0), (y1, 1.0), (y2, 1.0)]),
        );
        let start = BnbConfig {
            initial: Some(vec![0.0; 3]),
            ..cfg()
        };
        let full = solve_ilp(&m, &start);
        assert_eq!(full.status, IlpStatus::Optimal);
        assert_eq!(full.solution.unwrap().objective, 11.0);

        // No pivots allowed: the child is left unresolved, so the all-zero
        // start is an incumbent, not an optimum, and the child's parent
        // bound is what is proven.
        let capped = crate::simplex::with_iteration_cap(0, || solve_ilp(&m, &start));
        assert_eq!(capped.stats.nodes, 2);
        assert_eq!(capped.status, IlpStatus::Feasible);
        assert_eq!(capped.stats.incumbent, Some(0.0));
        assert_eq!(capped.stats.best_bound, 17.0);
        assert_eq!(capped.stats.gap(), Some(17.0));
    }

    #[test]
    fn solution_feasibility_always_holds() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..8).map(|_| m.binary()).collect();
        for k in 0..4 {
            let e = LinExpr::weighted_sum(
                vars.iter()
                    .copied()
                    .enumerate()
                    .map(|(i, v)| (v, ((i + k) % 3 + 1) as f64)),
            );
            m.add_constraint(e, Cmp::Le, 5.0);
        }
        m.set_objective(Sense::Maximize, LinExpr::sum(vars.iter().copied()));
        let r = solve_ilp(&m, &cfg());
        assert_eq!(r.status, IlpStatus::Optimal);
        let s = r.solution.unwrap();
        assert!(m.is_feasible(&s.values, 1e-6));
    }

    /// Three items of 0.6 into unit bins: `min Σ y` over an assignment,
    /// and a start that opens one bin per item.
    fn three_bins() -> (Model, Vec<f64>) {
        let mut m = Model::new();
        let y: Vec<_> = (0..3).map(|_| m.binary()).collect();
        let x: Vec<Vec<_>> = (0..3)
            .map(|_| (0..3).map(|_| m.binary()).collect())
            .collect();
        for row in &x {
            m.add_constraint(LinExpr::sum(row.iter().copied()), Cmp::Eq, 1.0);
        }
        for (s, &ys) in y.iter().enumerate() {
            let load = LinExpr::weighted_sum(x.iter().map(|row| (row[s], 0.6)));
            m.add_constraint(load - LinExpr::term(ys, 1.0), Cmp::Le, 0.0);
        }
        m.set_objective(Sense::Minimize, LinExpr::sum(y.iter().copied()));
        let mut start = vec![0.0; m.num_vars()];
        for (i, row) in x.iter().enumerate() {
            start[y[i].index()] = 1.0;
            start[row[i].index()] = 1.0;
        }
        (m, start)
    }

    #[test]
    fn a_bound_the_start_meets_closes_the_root_without_an_lp() {
        let (m, start) = three_bins();
        let config = BnbConfig {
            initial: Some(start.clone()),
            ..cfg()
        };
        // The LP says 1.8 bins, so it must search to prove the start's 3.
        let searched = solve_ilp(&m, &config);
        assert_eq!(searched.status, IlpStatus::Optimal);
        assert!(searched.stats.nodes > 1);
        // No two items share a bin: 3 is a bound, and the start meets it.
        let closed = solve_ilp_bounded(&m, &config, 3.0);
        assert_eq!(closed.status, IlpStatus::Optimal);
        assert_eq!((closed.stats.nodes, closed.stats.lp_iterations), (1, 0));
        assert_eq!(closed.stats.best_bound, 3.0);
        assert_eq!(closed.stats.gap(), Some(0.0));
        let solution = closed.solution.expect("the start");
        assert_eq!(solution.values, start);
        assert_eq!(
            solution.objective.to_bits(),
            searched.solution.expect("solved").objective.to_bits()
        );
        // A node limit of zero explores nothing, the root included, but
        // the root's bound is still what is proven.
        let stopped = solve_ilp_bounded(
            &m,
            &BnbConfig {
                max_nodes: 0,
                ..config
            },
            3.0,
        );
        assert_eq!(stopped.stats.nodes, 0);
        assert_eq!(stopped.stats.best_bound, 3.0);
        assert_eq!(stopped.status, IlpStatus::Optimal);
    }

    #[test]
    fn a_bound_short_of_the_start_leaves_the_search_as_it_was() {
        let (m, start) = three_bins();
        let config = BnbConfig {
            initial: Some(start),
            ..cfg()
        };
        // A bound below the start's 3, and one with no start to meet,
        // change no pivot.
        for (bound, initial) in [(2.0, config.initial.clone()), (3.0, None)] {
            let config = BnbConfig { initial, ..cfg() };
            let searched = solve_ilp(&m, &config);
            let r = solve_ilp_bounded(&m, &config, bound);
            assert_eq!(r.status, IlpStatus::Optimal);
            assert_eq!(r.stats.nodes, searched.stats.nodes, "bound {bound}");
            assert_eq!(r.stats.lp_iterations, searched.stats.lp_iterations);
            assert_eq!(
                r.solution.expect("solved").values,
                searched.solution.unwrap().values
            );
        }
    }

    #[test]
    fn a_maximisation_bound_is_an_upper_bound() {
        // max x + y s.t. 2x + 2y <= 5: the start (2, 0) meets the bound 2.
        let mut m = Model::new();
        let x = m.integer(0.0, 10.0);
        let y = m.integer(0.0, 10.0);
        m.add_constraint(LinExpr::term(x, 2.0) + LinExpr::term(y, 2.0), Cmp::Le, 5.0);
        m.set_objective(Sense::Maximize, LinExpr::from(x) + y);
        let config = BnbConfig {
            initial: Some(vec![2.0, 0.0]),
            ..cfg()
        };
        let closed = solve_ilp_bounded(&m, &config, 2.0);
        assert_eq!((closed.stats.nodes, closed.stats.lp_iterations), (1, 0));
        assert_eq!(closed.status, IlpStatus::Optimal);
        assert_eq!(closed.stats.best_bound, 2.0);
        // An upper bound of 3 does not meet the start's 2: the LP decides.
        let open = solve_ilp_bounded(&m, &config, 3.0);
        assert!(open.stats.lp_iterations > 0);
        assert_eq!(open.solution.expect("solved").objective, 2.0);
    }

    #[test]
    fn equality_coupled_binaries() {
        // exactly-one constraints (assignment flavour).
        let mut m = Model::new();
        let n = 4;
        let x: Vec<Vec<_>> = (0..n)
            .map(|_| (0..n).map(|_| m.binary()).collect())
            .collect();
        #[allow(clippy::needless_range_loop)] // `i` picks a row of `x` *and* a column
        for i in 0..n {
            m.add_constraint(LinExpr::sum(x[i].iter().copied()), Cmp::Eq, 1.0);
            m.add_constraint(LinExpr::sum((0..n).map(|r| x[r][i])), Cmp::Eq, 1.0);
        }
        // Cost matrix with known optimal assignment (diagonal cheap).
        let mut obj = LinExpr::new();
        for (i, row) in x.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                obj.add_term(v, if i == j { 1.0 } else { 10.0 });
            }
        }
        m.set_objective(Sense::Minimize, obj);
        let r = solve_ilp(&m, &cfg());
        assert_eq!(r.status, IlpStatus::Optimal);
        assert_eq!(r.solution.unwrap().objective.round() as i64, n as i64);
    }
}
