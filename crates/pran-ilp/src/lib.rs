//! `pran-ilp` — a self-contained linear & integer programming toolkit.
//!
//! PRAN's control plane decides *where* each cell's baseband processing
//! runs. The exact form of that decision is an integer linear program; the
//! original work used a commercial solver, which has no equivalent in the
//! offline Rust ecosystem, so this crate implements the full stack in-repo:
//!
//! * [`model`] — index-based MILP modeling layer ([`Model`], [`LinExpr`]);
//! * [`simplex`] — dense bounded-variable simplex (dual and primal) for LP
//!   relaxations, re-solvable from its last basis;
//! * [`branch_bound`] — best-bound branch & bound for the integer problem,
//!   one warm simplex through the search;
//! * [`mod@presolve`] — singleton-row folding, bound tightening, fixed-var
//!   detection (fixed-point, optimum-preserving);
//! * [`knapsack`] — an exact real-weight knapsack and bin-packing lower
//!   bounds, the pattern bound priced by that knapsack (the placement
//!   problem's combinatorial core).
//!
//! # Quick example
//!
//! ```
//! use pran_ilp::{Model, LinExpr, Cmp, Sense, solve_ilp_default, IlpStatus};
//!
//! // max 10a + 13b + 7c  s.t.  3a + 4b + 2c ≤ 6,  a,b,c ∈ {0,1}
//! let mut m = Model::new();
//! let a = m.binary();
//! let b = m.binary();
//! let c = m.binary();
//! m.add_constraint(LinExpr::weighted_sum([(a, 3.0), (b, 4.0), (c, 2.0)]), Cmp::Le, 6.0);
//! m.set_objective(Sense::Maximize, LinExpr::weighted_sum([(a, 10.0), (b, 13.0), (c, 7.0)]));
//! let r = solve_ilp_default(&m);
//! assert_eq!(r.status, IlpStatus::Optimal);
//! assert_eq!(r.solution.unwrap().objective.round(), 20.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch_bound;
pub mod knapsack;
pub mod model;
pub mod presolve;
pub mod simplex;

pub use branch_bound::{
    prunes, solve_ilp, solve_ilp_default, BnbConfig, BnbStats, IlpResult, IlpStatus,
    INCUMBENT_REL_TOL, INCUMBENT_TOL,
};
pub use model::{
    Cmp, Constraint, ConstraintId, LinExpr, Model, Sense, Solution, VarId, VarKind, Variable,
    Violation,
};
pub use presolve::{presolve, PresolveStats, Presolved};
pub use simplex::{solve_lp, LpResult, LpStatus, Simplex};
