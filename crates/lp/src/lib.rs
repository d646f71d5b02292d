//! # tempart-lp
//!
//! A self-contained sparse linear-programming and 0-1 mixed-integer
//! programming solver, built for the `tempart` reproduction of Kaul &
//! Vemuri (DATE 1998). The paper solved its models with the public-domain
//! `lp_solve`; this crate plays that role, and additionally exposes the
//! branching hooks (per-variable priorities and preferred directions) that
//! the paper's §8 variable-selection heuristic requires.
//!
//! ## Components
//!
//! * [`Problem`] — model builder: bounded continuous/binary variables,
//!   linear constraints, minimization objective.
//! * Bounded-variable **revised primal simplex** with devex pricing,
//!   incrementally updated reduced costs, hypersparse FTRAN/BTRAN over a
//!   Markowitz-ordered sparse LU factorization of the basis with
//!   Forrest–Tomlin updates, and an artificial-variable phase 1.
//! * **Dual simplex** with the bound-flipping ratio test for warm-started
//!   re-solves after bound changes — the workhorse of branch-and-bound node
//!   evaluation.
//! * [`BranchAndBound`] — depth-first 0-1 branch and bound with pluggable
//!   [`BranchingRule`]s: most-fractional, lowest-index (a deterministic
//!   stand-in for an unguided solver default), and priority-ordered with
//!   preferred directions (the paper's heuristic).
//! * [`write_lp_format`] / [`write_mps`] — exports for external solvers.
//!
//! ## Example
//!
//! Maximize `x + 2y` s.t. `x + y ≤ 1.5` with binaries — i.e. minimize the
//! negated objective:
//!
//! ```
//! use tempart_lp::{Problem, VarKind, Sense, BranchAndBound, MipStatus};
//!
//! # fn main() -> Result<(), tempart_lp::LpError> {
//! let mut p = Problem::new("demo");
//! let x = p.add_var("x", VarKind::Binary, -1.0)?;
//! let y = p.add_var("y", VarKind::Binary, -2.0)?;
//! p.add_constraint("cap", [(x, 1.0), (y, 1.0)], Sense::Le, 1.5)?;
//! let out = BranchAndBound::new(&p).solve()?;
//! assert_eq!(out.status, MipStatus::Optimal);
//! assert!((out.objective - (-2.0)).abs() < 1e-6); // y=1, x=0
//! # Ok(())
//! # }
//! ```

mod branch;
mod cuts;
mod faults;
mod ft;
mod internal;
mod mps;
mod options;
mod parallel;
mod problem;
mod profile;
mod progress;
mod propagate;
mod pseudocost;
#[cfg(feature = "race-model")]
pub mod race_models;
mod rendezvous;
mod simplex;
mod sparse;
pub mod stats;
mod status;
mod tol;
mod worksteal;
mod write;

pub use branch::{
    BranchAndBound, BranchDirection, BranchingRule, FirstIndexRule, MipSolution, MipStats,
    MostFractionalRule, PriorityRule,
};
pub use cuts::{
    apply_pool, separate_clique_cuts, separate_cover_cuts, separate_cuts, Cut, CutPool,
};
pub use faults::{Budget, BudgetExceeded, FaultPlan, FaultSite};
pub use mps::write_mps;
pub use options::{Branching, LpOptions, MipOptions};
pub use problem::{LpError, Problem, RowId, RowView, Sense, VarId, VarKind};
pub use profile::{ContentionProfile, ScaleProfile, SimplexProfile};
pub use progress::Progress;
pub use propagate::{Propagation, Propagator};
pub use pseudocost::PseudoCost;
pub use simplex::{solve_lp, LpOutcome};
pub use sparse::CscMatrix;
pub use stats::JsonObject;
pub use status::{LpStatus, MipStatus};
pub use write::write_lp_format;
