//! Solver options.

use std::sync::Arc;

use crate::faults::{Budget, FaultPlan};
use crate::progress::Progress;

/// Branching-variable selection strategy for branch and bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Branching {
    /// The caller-supplied static rule (the paper's §8 guided rule, the
    /// unguided first-index rule, or most-fractional diving). This is the
    /// pinned legacy path: its node sequence is golden-tested, so it is the
    /// default.
    #[default]
    Rule,
    /// Pseudo-cost branching with reliability initialization: per-variable
    /// up/down objective-degradation estimates learned from the search,
    /// bootstrapped by strong-branching probes at the root until a variable
    /// has enough observations to be trusted. Falls back to the static rule
    /// while no history exists. See `crates/lp/src/pseudocost.rs`.
    Pseudocost,
}

impl Branching {
    /// Stable lower-case name (CLI flag values, JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Branching::Rule => "rule",
            Branching::Pseudocost => "pseudocost",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "rule" => Some(Branching::Rule),
            "pseudocost" => Some(Branching::Pseudocost),
            _ => None,
        }
    }
}

impl std::fmt::Display for Branching {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Options for a single LP solve.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual (reduced-cost / optimality) tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Hard iteration cap across both phases.
    pub max_iterations: usize,
    /// Scale of the update-count backstop of the refactorization schedule:
    /// the Forrest–Tomlin factors are rebuilt after at most four times this
    /// many updates, even when fill-in and stability would let them run on.
    /// The cold retry ladder lowers it per rung.
    pub refactor_every: usize,
    /// Wall-clock limit in seconds for one solve (`f64::INFINITY` to
    /// disable); exceeding it raises [`LpError::Timeout`](crate::LpError).
    pub time_limit_secs: f64,
    /// Iteration cap for a *warm-started dual* solve; a degenerate dual that
    /// exceeds it is abandoned in favour of a cold primal solve.
    pub dual_iteration_cap: usize,
    /// Collect per-phase wall-clock timers (pricing/ftran/btran/ratio-test/
    /// refactor) into the [`SimplexProfile`](crate::SimplexProfile). Counters
    /// (iterations, bound flips, devex resets, refactorizations) are always
    /// collected; the timers cost a few `Instant::now` calls per iteration,
    /// so they are opt-in.
    pub profile: bool,
    /// Scripted fault-injection plan (see [`FaultPlan`]). `None` — the
    /// default — leaves every injection site inert; tests set it to
    /// exercise the recovery paths deterministically.
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared solve budget (see [`Budget`]). Branch and bound attaches one
    /// so the pivot loop honours the whole-solve deadline, node cap, and
    /// LP-iteration cap mid-LP; `None` (the default for standalone LP
    /// solves) checks only [`LpOptions::time_limit_secs`].
    pub budget: Option<Arc<Budget>>,
}

impl Default for LpOptions {
    fn default() -> Self {
        Self {
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            pivot_tol: 1e-8,
            max_iterations: 200_000,
            refactor_every: 64,
            time_limit_secs: f64::INFINITY,
            dual_iteration_cap: 2_000,
            profile: false,
            faults: None,
            budget: None,
        }
    }
}

/// Options for a branch-and-bound solve.
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// LP options for node relaxations.
    pub lp: LpOptions,
    /// Integrality tolerance: a value within this distance of an integer is
    /// considered integral.
    pub int_tol: f64,
    /// Maximum number of branch-and-bound nodes.
    pub max_nodes: usize,
    /// Wall-clock time limit in seconds (`f64::INFINITY` to disable).
    pub time_limit_secs: f64,
    /// Total simplex-pivot budget across every node LP (`usize::MAX` to
    /// disable) — a deterministic work limit where wall clocks are not.
    /// Exhausting it stops the search like a time limit
    /// ([`MipStatus::TimeLimit`](crate::MipStatus)) with the best
    /// incumbent found so far.
    pub max_lp_iterations: usize,
    /// If true, the objective is known to take integer values at integer
    /// points, enabling the stronger bound `ceil(lp_bound)` for pruning.
    pub objective_is_integral: bool,
    /// Absolute optimality gap at which a node is pruned against the
    /// incumbent.
    pub abs_gap: f64,
    /// A known-feasible starting point (full variable assignment). Checked
    /// against every constraint and the integrality of binaries before use;
    /// an invalid point is silently ignored.
    pub initial_incumbent: Option<Vec<f64>>,
    /// Worker threads for the tree search. `1` (the default) runs the exact
    /// serial algorithm with deterministic node counts; `0` means one worker
    /// per available CPU. Any thread count returns the same proven optimal
    /// objective — only node/steal counts and the incumbent's tie-broken
    /// argmin may vary above one thread.
    pub threads: usize,
    /// Cut-and-branch: separate lifted cover and clique cuts from fractional
    /// LP points at the root (multi-round, with shallow probe dives) and
    /// solve the search over the cut-strengthened problem. Off by default —
    /// the features-off path is bit-identical to the golden pins.
    pub cuts: bool,
    /// Node presolve: min-activity bound propagation before each node LP,
    /// fixing binaries and detecting infeasibility without a simplex solve.
    /// Off by default.
    pub propagate: bool,
    /// Branching-variable selection (see [`Branching`]). The default
    /// [`Branching::Rule`] is the pinned static-rule path.
    pub branching: Branching,
    /// Live-progress board (see [`Progress`]): the search publishes
    /// validated incumbents and the root-relaxation bound so an external
    /// observer (the `tempart-server` event streamer) can poll a running
    /// solve lock-free. `None` (the default) keeps every publication site
    /// dead — required for the bit-identical golden pins.
    pub progress: Option<Arc<Progress>>,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self {
            lp: LpOptions::default(),
            int_tol: 1e-6,
            max_nodes: 5_000_000,
            time_limit_secs: f64::INFINITY,
            max_lp_iterations: usize::MAX,
            objective_is_integral: false,
            abs_gap: 1e-9,
            initial_incumbent: None,
            threads: 1,
            cuts: false,
            propagate: false,
            branching: Branching::Rule,
            progress: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let lp = LpOptions::default();
        assert!(lp.feas_tol > 0.0 && lp.feas_tol < 1e-4);
        assert!(lp.refactor_every >= 8);
        assert!(!lp.profile, "timers are opt-in");
        let mip = MipOptions::default();
        assert!(mip.int_tol >= lp.feas_tol);
        assert!(!mip.objective_is_integral);
        assert!(mip.time_limit_secs.is_infinite());
        assert_eq!(mip.max_lp_iterations, usize::MAX, "pivot budget off");
        assert_eq!(mip.threads, 1, "serial by default");
        assert!(
            !mip.cuts && !mip.propagate,
            "the scale features are opt-in — the pins depend on it"
        );
        assert_eq!(mip.branching, Branching::Rule, "pinned static rule");
        assert!(
            lp.faults.is_none() && lp.budget.is_none() && mip.progress.is_none(),
            "inert by default"
        );
    }

    #[test]
    fn branching_names_roundtrip() {
        for b in [Branching::Rule, Branching::Pseudocost] {
            assert_eq!(Branching::parse(b.as_str()), Some(b));
            assert_eq!(Branching::parse(&b.as_str().to_uppercase()), Some(b));
            assert_eq!(format!("{b}"), b.as_str());
        }
        assert_eq!(Branching::parse("strong"), None);
    }
}
