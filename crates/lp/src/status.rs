//! Termination statuses.

use std::fmt;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// Proven optimal.
    Optimal,
    /// Proven primal infeasible.
    Infeasible,
    /// Proven unbounded below.
    Unbounded,
    /// Stopped at [`LpOptions::max_iterations`](crate::LpOptions) before a
    /// proof. The outcome has no answer, only the work done so far.
    IterationLimit,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::IterationLimit => "iteration limit",
        })
    }
}

/// Outcome of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MipStatus {
    /// Proven optimal integer solution.
    Optimal,
    /// Proven integer infeasible.
    Infeasible,
    /// Stopped at the node limit; the reported incumbent (if any) is feasible
    /// but not proven optimal.
    NodeLimit,
    /// Stopped at a time or work (LP-iteration) limit; ditto.
    TimeLimit,
    /// A node relaxation was proven unbounded below, so the integer model
    /// is unbounded (or mis-modelled with free continuous variables) — a
    /// truthful terminal status, not an error.
    Unbounded,
}

impl MipStatus {
    /// Whether a feasible solution may accompany this status.
    pub fn may_have_solution(self) -> bool {
        !matches!(self, MipStatus::Infeasible | MipStatus::Unbounded)
    }

    /// Stable kebab-case name (CLI/JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            MipStatus::Optimal => "optimal",
            MipStatus::Infeasible => "infeasible",
            MipStatus::NodeLimit => "node-limit",
            MipStatus::TimeLimit => "time-limit",
            MipStatus::Unbounded => "unbounded",
        }
    }
}

impl fmt::Display for MipStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MipStatus::Optimal => "optimal",
            MipStatus::Infeasible => "infeasible",
            MipStatus::NodeLimit => "node limit",
            MipStatus::TimeLimit => "time limit",
            MipStatus::Unbounded => "unbounded",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
        assert_eq!(MipStatus::TimeLimit.to_string(), "time limit");
        assert_eq!(MipStatus::Unbounded.to_string(), "unbounded");
    }

    #[test]
    fn as_str_is_kebab_case() {
        for s in [
            MipStatus::Optimal,
            MipStatus::Infeasible,
            MipStatus::NodeLimit,
            MipStatus::TimeLimit,
            MipStatus::Unbounded,
        ] {
            assert!(!s.as_str().contains(' '), "{s:?}");
        }
        assert_eq!(MipStatus::TimeLimit.as_str(), "time-limit");
        assert_eq!(MipStatus::Unbounded.as_str(), "unbounded");
    }

    #[test]
    fn may_have_solution() {
        assert!(MipStatus::Optimal.may_have_solution());
        assert!(MipStatus::NodeLimit.may_have_solution());
        assert!(MipStatus::TimeLimit.may_have_solution());
        assert!(!MipStatus::Infeasible.may_have_solution());
        assert!(!MipStatus::Unbounded.may_have_solution());
    }
}
