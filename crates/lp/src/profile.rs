//! Solver profiling: per-phase counters and timers for the simplex engine.
//!
//! A [`SimplexProfile`] is accumulated inside every LP solve and carried out
//! on [`LpOutcome`](crate::LpOutcome); branch-and-bound merges the per-node
//! profiles into [`MipStats`](crate::MipStats) (serial and parallel alike),
//! where the CLI's `--stats` flag, the bench rows and `perfbench --trace 1`
//! read them through the stats schema ([`crate::stats`]): each field is
//! declared with its schema name below. Counters are always collected; the
//! wall-clock section timers are gated behind
//! [`LpOptions::profile`](crate::LpOptions::profile) because they cost a
//! few `Instant::now` calls per iteration.

use std::time::Instant;

use crate::stats::{Stat, ToStat};

/// Defines a profile whose every field is a stat: the struct, `absorb`
/// (fields add) and `stats` (each field under its stats-schema name, in
/// declaration order; `f64` fields are seconds, reported in
/// milliseconds).
macro_rules! profile {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[doc = $doc:literal])* $field:ident: $ty:ty => $stat:literal,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl $name {
            /// Merges another profile into this one (every field adds).
            pub fn absorb(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }

            /// Every field under its stats-schema name ([`crate::stats`]).
            pub fn stats(&self) -> Vec<Stat> {
                vec![$(($stat, self.$field.to_stat()),)*]
            }
        }
    };
}

profile! {
/// Counters and timers of one or more simplex solves.
///
/// Section timers (`*_secs`) are zero unless the solve ran with
/// [`LpOptions::profile`](crate::LpOptions::profile) set; everything else is
/// always collected.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimplexProfile {
    /// LP solves merged into this profile.
    solves: usize => "lp_solves",
    /// Primal pivots (phases 1 and 2).
    primal_iterations: usize => "primal_iterations",
    /// Dual pivots (warm restarts).
    dual_iterations: usize => "dual_iterations",
    /// Nonbasic bound flips: primal entering-variable flips plus the dual
    /// long-step (bound-flipping ratio test) flips, each of which replaces a
    /// full pivot.
    bound_flips: usize => "bound_flips",
    /// Devex reference-framework resets (weights drifted too far).
    devex_resets: usize => "devex_resets",
    /// Basis refactorizations.
    refactors: usize => "refactors",
    /// Warm dual solves abandoned for a cold primal solve (degenerate dual
    /// exceeded its cap, vanished-bound mismatch, or a numerical failure).
    warm_fallbacks: usize => "warm_fallbacks",
    /// Retry-ladder rungs climbed after a numerical failure (tighter
    /// refactorization, Bland pricing, bound perturbation) before a node
    /// LP succeeded.
    retries: usize => "retries",
    /// Total wall-clock seconds inside LP solves (always measured).
    lp_secs: f64 => "lp_ms",
    /// Entering/leaving selection and reduced-cost maintenance.
    pricing_secs: f64 => "pricing_ms",
    /// Forward solves `B w = a_q` (`L`, row etas, `U`).
    ftran_secs: f64 => "ftran_ms",
    /// Backward solves `Bᵀ y = c` (`Uᵀ`, row etas, `Lᵀ`).
    btran_secs: f64 => "btran_ms",
    /// Primal and dual ratio tests (incl. bound-flip breakpoint walks).
    ratio_secs: f64 => "ratio_ms",
    /// Basis factorization time: periodic refactorizations *and* the
    /// initial factorization of every solve.
    refactor_secs: f64 => "refactor_ms",
    /// Forrest–Tomlin basis updates of the `U` factor.
    update_secs: f64 => "update_ms",
    /// Everything else inside a solve that is measured but fits no kernel
    /// bucket: crash-basis setup, `x_B` recomputes, phase-1 objective
    /// checks, and solution extraction. Together with the kernel buckets
    /// this makes the per-phase timers sum to within a few percent of
    /// [`lp_secs`](Self::lp_secs).
    other_secs: f64 => "other_ms",
}
}

impl SimplexProfile {
    /// Total simplex pivots.
    pub fn iterations(&self) -> usize {
        self.primal_iterations + self.dual_iterations
    }

    /// Sum of the per-phase section timers (zero when profiling was off).
    pub fn timed_secs(&self) -> f64 {
        self.pricing_secs
            + self.ftran_secs
            + self.btran_secs
            + self.ratio_secs
            + self.refactor_secs
            + self.update_secs
            + self.other_secs
    }
}

profile! {
/// Contention counters of the parallel search layer.
///
/// All zeros for the serial solver. For the parallel solver these expose
/// how often the work-stealing scheduler left the uncontended fast path:
/// the hot path (a worker dispatching its own node and warm-starting from
/// its parent) takes no global lock, so on a tree deep enough to keep every
/// worker busy these counters stay near zero relative to `nodes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionProfile {
    /// Nodes a worker took from another worker's deque.
    steals: usize => "steals",
    /// Steal attempts that found the victim's deque momentarily locked by
    /// its owner or another thief (the thief moved on to the next victim).
    steal_failures: usize => "steal_failures",
    /// Node solves that materialized a working basis from a parent snapshot
    /// still shared with an unexplored sibling — the copy-on-write clone
    /// point. Dispatch itself never deep-clones a snapshot.
    cow_clones: usize => "cow_clones",
    /// Seqlock acquisition retries while installing a new incumbent
    /// (two workers raced to publish improvements at the same instant).
    incumbent_retries: usize => "incumbent_retries",
    /// Times a worker's own-deque `try_lock` missed (a thief held the lock)
    /// and the owner had to block — the only blocking a busy worker can do.
    lock_waits: usize => "lock_waits",
}
}

profile! {
/// Counters of the scale layer (cut separation, node propagation, and
/// pseudo-cost branching).
///
/// All zeros when the features are off — the features-off search leaves
/// this untouched, which the golden pins rely on. Merged into
/// [`MipStats`](crate::MipStats) like the other profiles and printed
/// through the stats schema ([`crate::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleProfile {
    /// Cuts separated (violated cover/clique inequalities generated).
    cuts_separated: usize => "cuts_separated",
    /// Cuts applied to the working problem (in the pool at the final round).
    cuts_applied: usize => "cuts_applied",
    /// Cuts evicted from the pool for inactivity (eligible to re-separate).
    cuts_evicted: usize => "cuts_evicted",
    /// Separation rounds run (root rounds plus shallow probe dives).
    cut_rounds: usize => "cut_rounds",
    /// Binary variables fixed by node bound propagation.
    propagation_fixings: usize => "propagation_fixings",
    /// Nodes proven infeasible by propagation alone (no LP solved).
    propagation_infeasible: usize => "propagation_infeasible",
    /// Pseudo-cost observations recorded (child-LP objective gains).
    pseudocost_updates: usize => "pseudocost_updates",
    /// Strong-branching probe LPs solved for reliability initialization.
    strong_branch_solves: usize => "strong_branch_solves",
}
}

/// Starts a section timer when profiling is enabled (else free).
pub(crate) fn tick(enabled: bool) -> Option<Instant> {
    if enabled {
        Some(Instant::now())
    } else {
        None
    }
}

/// Stops a [`tick`] timer into an accumulator.
pub(crate) fn tock(start: Option<Instant>, acc: &mut f64) {
    if let Some(t) = start {
        *acc += t.elapsed().as_secs_f64();
    }
}

/// Ends the section started at `mark` into `acc` and starts the next one
/// at the same instant, so back-to-back sections of a pivot loop leave no
/// untimed gap between them and cost one clock read each.
pub(crate) fn lap(mark: &mut Option<Instant>, acc: &mut f64) {
    if let Some(t) = mark {
        let now = Instant::now();
        *acc += (now - *t).as_secs_f64();
        *t = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_counters_and_timers() {
        let mut a = SimplexProfile {
            solves: 1,
            primal_iterations: 10,
            dual_iterations: 5,
            bound_flips: 3,
            devex_resets: 1,
            refactors: 2,
            warm_fallbacks: 1,
            retries: 2,
            lp_secs: 0.5,
            pricing_secs: 0.1,
            ftran_secs: 0.2,
            btran_secs: 0.05,
            ratio_secs: 0.03,
            refactor_secs: 0.02,
            update_secs: 0.01,
            other_secs: 0.04,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.solves, 2);
        assert_eq!(a.iterations(), 30);
        assert_eq!(a.bound_flips, 6);
        assert_eq!(a.warm_fallbacks, 2);
        assert_eq!(a.retries, 4);
        assert!((a.lp_secs - 1.0).abs() < 1e-12);
        assert!((a.ftran_secs - 0.4).abs() < 1e-12);
        assert!((a.update_secs - 0.02).abs() < 1e-12);
        assert!((a.timed_secs() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn contention_absorb_and_report() {
        let mut a = ContentionProfile {
            steals: 2,
            steal_failures: 1,
            cow_clones: 5,
            incumbent_retries: 0,
            lock_waits: 1,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.steals, 4);
        assert_eq!(a.cow_clones, 10);
        assert_eq!(a.lock_waits, 2);
        let r = a.stats();
        assert!(r.contains(&("steals", 4.0)), "{r:?}");
        assert!(r.contains(&("steal_failures", 2.0)), "{r:?}");
        assert!(r.contains(&("cow_clones", 10.0)), "{r:?}");
    }

    #[test]
    fn scale_absorb_and_report() {
        let mut a = ScaleProfile {
            cuts_separated: 3,
            cuts_applied: 2,
            cuts_evicted: 1,
            cut_rounds: 2,
            propagation_fixings: 7,
            propagation_infeasible: 1,
            pseudocost_updates: 9,
            strong_branch_solves: 4,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.cuts_separated, 6);
        assert_eq!(a.propagation_fixings, 14);
        assert_eq!(a.strong_branch_solves, 8);
        let r = a.stats();
        assert!(r.contains(&("cuts_separated", 6.0)), "{r:?}");
        assert!(r.contains(&("cut_rounds", 4.0)), "{r:?}");
        assert!(r.contains(&("propagation_fixings", 14.0)), "{r:?}");
        assert!(r.contains(&("pseudocost_updates", 18.0)), "{r:?}");
    }

    #[test]
    fn tick_tock_disabled_is_free() {
        let mut acc = 0.0;
        tock(tick(false), &mut acc);
        assert_eq!(acc, 0.0);
        tock(tick(true), &mut acc);
        assert!(acc >= 0.0);
        let mut mark = tick(false);
        lap(&mut mark, &mut acc);
        assert!(mark.is_none());
    }

    #[test]
    fn lap_restarts_the_section_at_its_end() {
        let (mut a, mut b) = (0.0, 0.0);
        let start = tick(true);
        let mut mark = start;
        lap(&mut mark, &mut a);
        lap(&mut mark, &mut b);
        let total = start.map_or(0.0, |t| (mark.unwrap_or(t) - t).as_secs_f64());
        assert!(
            (a + b - total).abs() < 1e-12,
            "laps tile the interval without gaps"
        );
    }
}
