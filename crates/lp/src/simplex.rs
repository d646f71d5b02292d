//! Bounded-variable revised simplex: primal (two-phase, artificial cold
//! start) and dual (warm restarts after bound changes in branch-and-bound).
//!
//! The basis is kept as Forrest–Tomlin-updated LU factors over a
//! Markowitz-ordered refactorization ([`crate::ft::FtFactors`]). They are
//! rebuilt when the stored fill doubles, when an update fails the
//! stability test, or after `4 ×` [`LpOptions::refactor_every`] updates.
//!
//! One engine runs both directions: the primal keeps its reduced costs
//! incrementally and prices by devex, the dual uses the bound-flipping
//! ratio test, and both use hypersparse FTRAN/BTRAN.
//!
//! Style note: the numerical kernels iterate dense work arrays by index on
//! purpose (several arrays are updated in lockstep); the iterator forms
//! clippy suggests would obscure the mathematics.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use crate::ft::{FtFactors, LuScratch};
use crate::internal::CoreLp;
use crate::options::LpOptions;
use crate::problem::{LpError, Problem};
use crate::profile::{lap, tick, tock, SimplexProfile};
use crate::status::LpStatus;
use crate::tol::{is_neg_infinite, is_nonzero, is_pos_infinite, is_zero};

/// Nonbasic/basic status of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VStat {
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic, held at value 0.
    Free,
}

/// A snapshot of a simplex basis, used to warm-start node LPs in
/// branch-and-bound.
#[derive(Debug, Clone)]
pub(crate) struct BasisSnapshot {
    pub basic: Vec<usize>,
    pub stat: Vec<VStat>,
}

/// Result of solving over a [`CoreLp`] (internal column space).
#[derive(Debug, Clone)]
pub(crate) struct CoreOutcome {
    pub status: LpStatus,
    /// Values for every column (structurals, slacks, artificials).
    pub x: Vec<f64>,
    /// Phase-2 objective value (meaningless unless `status == Optimal`).
    pub objective: f64,
    /// Dual values per row (`y = B⁻ᵀ c_B` at the final basis).
    pub duals: Vec<f64>,
    pub snapshot: BasisSnapshot,
    pub iterations: usize,
    pub profile: SimplexProfile,
}

/// Why a warm-started dual solve could not be used.
#[derive(Debug)]
pub(crate) enum WarmFail {
    /// The starting basis is not dual feasible (or too ill-conditioned);
    /// fall back to a cold solve.
    NotDualFeasible,
    /// A hard error (iteration limit, singular basis).
    Error(LpError),
}

/// Dynamic refactorization: rebuild once the factors hold this many times
/// the nonzeros they started with. Below it, an aging factorization is
/// still cheaper to apply than a rebuild is to run.
const DYNAMIC_FILL_LIMIT: f64 = 2.0;

/// Dynamic refactorization: hard cap on recorded updates, as a multiple of
/// [`LpOptions::refactor_every`], so slowly-filling factorizations still
/// retire before roundoff accumulates.
const DYNAMIC_UPDATE_CAP: usize = 4;

/// Preallocated per-solve work vectors, so no simplex iteration allocates.
///
/// Length-`m` buffers (`w`, `rho`, `y`, `rhs`) and their pattern lists must
/// be returned to all-zero / cleared between uses; `mask` (length `m`) and
/// `amask` (length `n`) are membership masks that every user resets before
/// releasing. `alpha` is lazily zeroed via `touched`, so it may hold stale
/// values at untouched positions.
#[derive(Default)]
struct Scratch {
    /// FTRAN column and its nonzero pattern.
    w: Vec<f64>,
    wpat: Vec<usize>,
    /// BTRAN row `ρ = B⁻ᵀ e_r` and its nonzero pattern.
    rho: Vec<f64>,
    rpat: Vec<usize>,
    /// Membership mask in row/basis-position space (length `m`).
    mask: Vec<bool>,
    /// Dual vector workspace for `Bᵀ y = c_B`.
    y: Vec<f64>,
    /// Right-hand-side accumulator (xb recompute, dual bound-flip batch).
    rhs: Vec<f64>,
    rhs_pat: Vec<usize>,
    /// Reduced costs (length `n`).
    d: Vec<f64>,
    /// Pivot row `αᵀ = ρᵀ A` (length `n`), lazily reset via `touched`.
    alpha: Vec<f64>,
    amask: Vec<bool>,
    touched: Vec<usize>,
    /// Devex reference weights (length `n`).
    devex: Vec<f64>,
    /// Dual ratio-test breakpoints `(|d_j/α_j|, j)`.
    breakpoints: Vec<(f64, usize)>,
    /// Columns flipped by the current bound-flipping ratio test pass.
    flips: Vec<usize>,
    lu: LuScratch,
}

impl Scratch {
    fn ensure(&mut self, m: usize, n: usize) {
        self.w.resize(m, 0.0);
        self.rho.resize(m, 0.0);
        self.y.resize(m, 0.0);
        self.rhs.resize(m, 0.0);
        self.mask.resize(m, false);
        self.d.resize(n, 0.0);
        self.alpha.resize(n, 0.0);
        self.amask.resize(n, false);
        self.devex.resize(n, 0.0);
    }
}

struct Simplex<'a> {
    core: &'a CoreLp,
    opts: &'a LpOptions,
    lower: Vec<f64>,
    upper: Vec<f64>,
    stat: Vec<VStat>,
    basic: Vec<usize>,
    basis: FtFactors,
    /// Values of basic variables, indexed by basis position.
    xb: Vec<f64>,
    iterations: usize,
    degen_streak: usize,
    /// Wall-clock deadline; exceeded ⇒ [`LpError::Timeout`].
    deadline: Option<Instant>,
    scratch: Scratch,
    profile: SimplexProfile,
    /// Section timers enabled ([`LpOptions::profile`]).
    timers: bool,
    /// Bland's smallest-index rule instead of devex pricing. Only the
    /// cycling-proof rungs of the cold retry ladder ([`solve_core_cold`])
    /// set it.
    bland: bool,
}

impl<'a> Simplex<'a> {
    /// Value a nonbasic column rests at.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.stat[j] {
            VStat::AtLower => self.lower[j],
            VStat::AtUpper => self.upper[j],
            VStat::Free => 0.0,
            VStat::Basic => unreachable!("nonbasic_value on basic column"),
        }
    }

    /// Checks the wall-clock deadline, the shared solve budget, and the
    /// scripted clock-skew fault (all sampled every 32 iterations).
    fn hit_deadline(&self) -> bool {
        if !self.iterations.is_multiple_of(32) {
            return false;
        }
        if let Some(faults) = &self.opts.faults {
            if faults.trip(crate::faults::FaultSite::ClockSkew) {
                return true;
            }
        }
        if let Some(budget) = &self.opts.budget {
            if budget.should_stop(self.iterations) {
                return true;
            }
        }
        match self.deadline {
            // audit: allow(nondet) — wall-clock deadline is the documented
            // anytime limit; it changes *when* we stop, never *what* we pivot.
            Some(d) => Instant::now() > d,
            None => false,
        }
    }

    /// Hypersparse FTRAN: `pattern` holds the nonzeros of `buf` on entry and
    /// a superset of the nonzeros (no duplicates) on exit. Falls back to the
    /// dense solve when the rhs is already dense-ish. Associated functions
    /// (not methods) so call sites can borrow `self.scratch` buffers
    /// disjointly.
    fn ftran_sparse(
        basis: &FtFactors,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        lsc: &mut LuScratch,
    ) {
        let m = buf.len();
        if pattern.len() * 4 > m {
            basis.ftran(buf);
            pattern.clear();
            pattern.extend((0..m).filter(|&i| is_nonzero(buf[i])));
        } else {
            basis.ftran_sparse(buf, pattern, lsc);
        }
    }

    /// Hypersparse BTRAN, mirror of [`ftran_sparse`](Self::ftran_sparse).
    fn btran_sparse(
        basis: &FtFactors,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        lsc: &mut LuScratch,
    ) {
        let m = buf.len();
        if pattern.len() * 4 > m {
            basis.btran(buf);
            pattern.clear();
            pattern.extend((0..m).filter(|&i| is_nonzero(buf[i])));
        } else {
            basis.btran_sparse(buf, pattern, lsc);
        }
    }

    /// Recomputes `xb` from scratch: `x_B = B⁻¹ (b − N x_N)`.
    fn recompute_xb(&mut self) {
        let m = self.core.m;
        self.scratch.rhs.copy_from_slice(&self.core.b);
        for j in 0..self.core.n {
            if self.stat[j] != VStat::Basic {
                let v = self.nonbasic_value(j);
                if is_nonzero(v) {
                    self.core.a.col_axpy(j, -v, &mut self.scratch.rhs);
                }
            }
        }
        debug_assert_eq!(self.scratch.rhs.len(), m);
        self.basis.ftran(&mut self.scratch.rhs);
        self.xb.copy_from_slice(&self.scratch.rhs);
        self.scratch.rhs.fill(0.0);
    }

    fn refactor(&mut self) -> Result<(), LpError> {
        let t = tick(self.timers);
        inject_singular(self.opts)?;
        self.basis =
            FtFactors::factorize_markowitz(&self.core.a, &self.basic, self.opts.pivot_tol)?;
        self.recompute_xb();
        self.profile.refactors += 1;
        tock(t, &mut self.profile.refactor_secs);
        Ok(())
    }

    /// Whether the factors are due for a rebuild: on measured fill-in growth
    /// ([`DYNAMIC_FILL_LIMIT`]) or at the update-count backstop
    /// ([`DYNAMIC_UPDATE_CAP`]). The stability half of the schedule is the
    /// Forrest–Tomlin pivot test itself, whose rejection refactorizes
    /// immediately in [`update_basis`](Self::update_basis).
    fn should_refactor(&self) -> bool {
        self.basis.fill_ratio() > DYNAMIC_FILL_LIMIT
            || self.basis.updates_len() >= DYNAMIC_UPDATE_CAP * self.opts.refactor_every
    }

    /// Reduced costs `d_j = c_j − y·a_j` for all columns (basic ones ≈ 0),
    /// written into `d` (any length; resized to `n`). Uses `scratch.y`, so
    /// `d` must not alias it.
    fn reduced_costs_into(&mut self, costs: &[f64], d: &mut Vec<f64>) {
        let t = tick(self.timers);
        d.resize(self.core.n, 0.0);
        self.scratch.y.fill(0.0);
        for (pos, &col) in self.basic.iter().enumerate() {
            self.scratch.y[pos] = costs[col];
        }
        self.basis.btran(&mut self.scratch.y);
        tock(t, &mut self.profile.btran_secs);
        let t = tick(self.timers);
        for j in 0..self.core.n {
            d[j] = if self.stat[j] == VStat::Basic {
                0.0
            } else {
                costs[j] - self.core.a.col_dot(j, &self.scratch.y)
            };
        }
        tock(t, &mut self.profile.pricing_secs);
    }

    /// Objective value of the current (possibly mid-pivot) iterate.
    fn current_objective(&self, costs: &[f64]) -> f64 {
        let mut obj = 0.0;
        for j in 0..self.core.n {
            if self.stat[j] != VStat::Basic && is_nonzero(costs[j]) {
                obj += costs[j] * self.nonbasic_value(j);
            }
        }
        for (pos, &col) in self.basic.iter().enumerate() {
            if is_nonzero(costs[col]) {
                obj += costs[col] * self.xb[pos];
            }
        }
        obj
    }

    /// Records the pivot at basis position `r` (FTRAN column `w` with its
    /// sorted nonzero pattern `wpat`) as a Forrest–Tomlin update of the
    /// factors. An update rejected as numerically unsafe refactorizes
    /// immediately — `basic[r]`/`stat`/`xb` must already describe the
    /// post-pivot basis when this is called.
    fn update_basis(&mut self, r: usize, w: &[f64], wpat: &[usize]) -> Result<(), LpError> {
        let t = tick(self.timers);
        let accepted = self.basis.update(r, w, Some(wpat), self.opts.pivot_tol);
        tock(t, &mut self.profile.update_secs);
        if !accepted {
            self.refactor()?;
        }
        Ok(())
    }

    /// Devex (max `d_j²/w_j`) or Bland (smallest index) pricing over
    /// incrementally maintained reduced costs.
    fn price(&self, d: &[f64], bland: bool) -> Option<usize> {
        let tol = self.opts.opt_tol;
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.core.n {
            if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let viol = match self.stat[j] {
                VStat::AtLower => (-d[j] - tol).max(0.0),
                VStat::AtUpper => (d[j] - tol).max(0.0),
                VStat::Free => (d[j].abs() - tol).max(0.0),
                VStat::Basic => 0.0,
            };
            if viol > 0.0 {
                if bland {
                    return Some(j);
                }
                let score = d[j] * d[j] / self.scratch.devex[j].max(1.0);
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((j, score));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// One primal phase with cost vector `costs`. Returns `Optimal` or
    /// `Unbounded`. When `stop_at` is set, the phase also ends (reported as
    /// `Optimal`) once the objective reaches that value — used to cut phase 1
    /// short at zero infeasibility instead of stalling on degenerate pivots.
    ///
    /// * Reduced costs are updated from the pivot row `αᵀ = ρᵀ A` after each
    ///   pivot (`d'_j = d_j − θ·α_j`), with full recomputes from `Bᵀy = c_B`
    ///   only at refactorizations and once to confirm apparent optimality;
    /// * devex reference weights steer the entering choice (Bland's rule
    ///   under long degenerate streaks and on the retry ladder's Bland rungs);
    /// * FTRAN/BTRAN are hypersparse (pattern-tracked) and the ratio test
    ///   and basics update only touch the column's nonzeros.
    fn primal(&mut self, costs: &[f64], stop_at: Option<f64>) -> Result<LpStatus, LpError> {
        let mut d = std::mem::take(&mut self.scratch.d);
        self.reduced_costs_into(costs, &mut d);
        self.scratch.devex.fill(1.0);
        let res = self.primal_inner(costs, stop_at, &mut d);
        self.scratch.d = d;
        res
    }

    fn primal_inner(
        &mut self,
        costs: &[f64],
        stop_at: Option<f64>,
        d: &mut Vec<f64>,
    ) -> Result<LpStatus, LpError> {
        let ptol = self.opts.pivot_tol;
        // `d` is exact right after a full recompute; incremental updates
        // drift, so apparent optimality under a stale `d` is confirmed by
        // one full recompute before returning.
        let mut fresh = true;
        loop {
            // Section timer, lapped into one bucket after another; calls
            // that time themselves (refactor, full pricing, basis update)
            // restart it.
            let mut mark = tick(self.timers);
            if self.iterations >= self.opts.max_iterations {
                return Err(LpError::IterationLimit);
            }
            if self.hit_deadline() {
                return Err(LpError::Timeout);
            }
            if self.should_refactor() {
                self.refactor()?;
                self.reduced_costs_into(costs, d);
                fresh = true;
                mark = tick(self.timers);
            }
            if let Some(target) = stop_at {
                let reached = self.current_objective(costs) <= target + self.opts.feas_tol;
                lap(&mut mark, &mut self.profile.other_secs);
                if reached {
                    return Ok(LpStatus::Optimal);
                }
            }
            let bland = self.bland || self.degen_streak > 40;
            let entering = self.price(d, bland);
            lap(&mut mark, &mut self.profile.pricing_secs);
            let Some(q) = entering else {
                if fresh {
                    return Ok(LpStatus::Optimal);
                }
                self.reduced_costs_into(costs, d);
                fresh = true;
                continue;
            };
            let dir = match self.stat[q] {
                VStat::AtLower => 1.0,
                VStat::AtUpper => -1.0,
                VStat::Free => {
                    if d[q] < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VStat::Basic => unreachable!(),
            };
            // Hypersparse FTRAN of the entering column.
            let mut w = std::mem::take(&mut self.scratch.w);
            let mut wpat = std::mem::take(&mut self.scratch.wpat);
            wpat.clear();
            for (r, v) in self.core.a.col(q) {
                w[r] = v;
                wpat.push(r);
            }
            Self::ftran_sparse(&self.basis, &mut w, &mut wpat, &mut self.scratch.lu);
            // Ascending pattern: the ratio test tie-breaking then matches a
            // dense scan.
            wpat.sort_unstable();
            lap(&mut mark, &mut self.profile.ftran_secs);
            // Ratio test over the column's nonzeros.
            let gap = self.upper[q] - self.lower[q];
            let mut t_best = if gap.is_finite() { gap } else { f64::INFINITY };
            let mut leave: Option<(usize, VStat)> = None; // (basis pos, bound hit)
            let mut leave_piv = 0.0f64;
            for &i in &wpat {
                let wi = w[i];
                if wi.abs() <= ptol {
                    continue;
                }
                let bcol = self.basic[i];
                let delta = dir * wi; // x_B[i] moves by −t·delta
                let (t_i, hit) = if delta > 0.0 {
                    let lo = self.lower[bcol];
                    if is_neg_infinite(lo) {
                        continue;
                    }
                    (((self.xb[i] - lo) / delta).max(0.0), VStat::AtLower)
                } else {
                    let hi = self.upper[bcol];
                    if is_pos_infinite(hi) {
                        continue;
                    }
                    (((self.xb[i] - hi) / delta).max(0.0), VStat::AtUpper)
                };
                let better = if bland {
                    t_i < t_best - 1e-12
                        || (t_i < t_best + 1e-12
                            && leave.is_none_or(|(li, _)| bcol < self.basic[li]))
                } else {
                    t_i < t_best - 1e-12 || (t_i < t_best + 1e-12 && wi.abs() > leave_piv.abs())
                };
                if better {
                    t_best = t_i;
                    leave = Some((i, hit));
                    leave_piv = wi;
                }
            }
            lap(&mut mark, &mut self.profile.ratio_secs);
            if t_best.is_infinite() {
                for &i in &wpat {
                    w[i] = 0.0;
                }
                self.scratch.w = w;
                self.scratch.wpat = wpat;
                return Ok(LpStatus::Unbounded);
            }
            self.iterations += 1;
            self.profile.primal_iterations += 1;
            if t_best <= 1e-10 {
                self.degen_streak += 1;
            } else {
                self.degen_streak = 0;
            }
            let t = t_best;
            for &i in &wpat {
                if is_nonzero(w[i]) {
                    self.xb[i] -= t * dir * w[i];
                }
            }
            lap(&mut mark, &mut self.profile.other_secs);
            match leave {
                None => {
                    // Bound flip of the entering variable: the basis (and
                    // hence `d` and the devex weights) is unchanged.
                    self.stat[q] = match self.stat[q] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        s => s,
                    };
                    self.profile.bound_flips += 1;
                }
                Some((r, hit)) => {
                    // Pivot row w.r.t. the *pre-pivot* basis, for the d and
                    // devex updates.
                    self.scratch.rho[r] = 1.0;
                    self.scratch.rpat.clear();
                    self.scratch.rpat.push(r);
                    Self::btran_sparse(
                        &self.basis,
                        &mut self.scratch.rho,
                        &mut self.scratch.rpat,
                        &mut self.scratch.lu,
                    );
                    self.form_pivot_row();
                    lap(&mut mark, &mut self.profile.btran_secs);
                    let alpha_q = if self.scratch.amask[q] {
                        self.scratch.alpha[q]
                    } else {
                        0.0
                    };
                    let entering_value = self.nonbasic_value(q) + t * dir;
                    let leaving_col = self.basic[r];
                    self.stat[leaving_col] = if self.lower[leaving_col] == self.upper[leaving_col] {
                        VStat::AtLower
                    } else {
                        hit
                    };
                    self.stat[q] = VStat::Basic;
                    self.basic[r] = q;
                    self.xb[r] = entering_value;
                    lap(&mut mark, &mut self.profile.other_secs);
                    self.update_basis(r, &w, &wpat)?;
                    mark = tick(self.timers);
                    if alpha_q.abs() <= ptol {
                        // FTRAN and BTRAN disagree about the pivot; a full
                        // recompute is safer than an incremental update.
                        self.reduced_costs_into(costs, d);
                        fresh = true;
                        mark = tick(self.timers);
                    } else {
                        let theta = d[q] / alpha_q;
                        let wq = self.scratch.devex[q].max(1.0);
                        let mut wmax = 0.0f64;
                        {
                            let s = &mut self.scratch;
                            for &j in &s.touched {
                                if self.stat[j] == VStat::Basic {
                                    continue;
                                }
                                let aj = s.alpha[j];
                                if is_nonzero(aj) {
                                    d[j] -= theta * aj;
                                    let cand = (aj / alpha_q) * (aj / alpha_q) * wq;
                                    if cand > s.devex[j] {
                                        s.devex[j] = cand;
                                    }
                                    if s.devex[j] > wmax {
                                        wmax = s.devex[j];
                                    }
                                }
                            }
                        }
                        d[leaving_col] = -theta;
                        d[q] = 0.0;
                        let wl = (wq / (alpha_q * alpha_q)).max(1.0);
                        self.scratch.devex[leaving_col] = wl;
                        if wl.max(wmax) > 1e9 {
                            // Reference framework drifted: restart it.
                            self.scratch.devex.fill(1.0);
                            self.profile.devex_resets += 1;
                        }
                        fresh = false;
                    }
                    self.clear_alpha();
                    lap(&mut mark, &mut self.profile.pricing_secs);
                }
            }
            for &i in &wpat {
                w[i] = 0.0;
            }
            self.scratch.w = w;
            self.scratch.wpat = wpat;
            lap(&mut mark, &mut self.profile.other_secs);
        }
    }

    /// Checks dual feasibility of the starting basis against `d`.
    fn start_is_dual_feasible(&self, d: &[f64]) -> bool {
        let dual_tol = self.opts.opt_tol * 100.0;
        for j in 0..self.core.n {
            if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let bad = match self.stat[j] {
                VStat::AtLower => d[j] < -dual_tol,
                VStat::AtUpper => d[j] > dual_tol,
                VStat::Free => d[j].abs() > dual_tol,
                VStat::Basic => false,
            };
            if bad {
                return false;
            }
        }
        true
    }

    /// Dual simplex with the bound-flipping (long-step) ratio test and
    /// hypersparse solves, for warm restarts after bound changes: restores
    /// primal feasibility while keeping dual feasibility. Requires a
    /// dual-feasible starting basis.
    ///
    /// Breakpoints of the piecewise-linear dual objective are walked in
    /// ascending ratio order; a *boxed* column whose flip keeps the dual
    /// slope positive flips lower↔upper (absorbed into one batched FTRAN)
    /// instead of terminating the step, so one dual iteration can do the
    /// work of many — particularly effective on 0-1 models where most
    /// columns are boxed.
    fn dual(&mut self, costs: &[f64]) -> Result<LpStatus, WarmFail> {
        let mut d = std::mem::take(&mut self.scratch.d);
        let res = self.dual_inner(costs, &mut d);
        self.scratch.d = d;
        res
    }

    fn dual_inner(&mut self, costs: &[f64], d: &mut Vec<f64>) -> Result<LpStatus, WarmFail> {
        self.reduced_costs_into(costs, d);
        if !self.start_is_dual_feasible(d) {
            return Err(WarmFail::NotDualFeasible);
        }
        let ptol = self.opts.pivot_tol;
        let ftol = self.opts.feas_tol;
        loop {
            // Lapped section timer, as in the primal loop.
            let mut mark = tick(self.timers);
            if self.iterations >= self.opts.max_iterations {
                return Err(WarmFail::Error(LpError::IterationLimit));
            }
            if self.iterations >= self.opts.dual_iteration_cap {
                // Degenerate grind: let the caller fall back to a cold solve.
                return Err(WarmFail::NotDualFeasible);
            }
            if self.hit_deadline() {
                return Err(WarmFail::Error(LpError::Timeout));
            }
            if self.should_refactor() {
                self.refactor().map_err(WarmFail::Error)?;
                self.reduced_costs_into(costs, d);
                mark = tick(self.timers);
            }
            // Leaving: most violated basic.
            let mut leave: Option<(usize, f64, bool)> = None;
            for i in 0..self.core.m {
                let col = self.basic[i];
                let below = self.lower[col] - self.xb[i];
                let above = self.xb[i] - self.upper[col];
                let (viol, low) = if below > above {
                    (below, true)
                } else {
                    (above, false)
                };
                if viol > ftol && leave.is_none_or(|(_, v, _)| viol > v) {
                    leave = Some((i, viol, low));
                }
            }
            lap(&mut mark, &mut self.profile.pricing_secs);
            let Some((r, viol, low_viol)) = leave else {
                return Ok(LpStatus::Optimal);
            };
            // ρ = B⁻ᵀ e_r (hypersparse) and the pivot row αᵀ = ρᵀ A.
            self.scratch.rho[r] = 1.0;
            self.scratch.rpat.clear();
            self.scratch.rpat.push(r);
            Self::btran_sparse(
                &self.basis,
                &mut self.scratch.rho,
                &mut self.scratch.rpat,
                &mut self.scratch.lu,
            );
            self.form_pivot_row();
            lap(&mut mark, &mut self.profile.btran_secs);
            // Bound-flipping ratio test: collect breakpoints, walk them in
            // ascending ratio order flipping boxed columns while the slope
            // stays positive.
            {
                let s = &mut self.scratch;
                s.breakpoints.clear();
                for &j in &s.touched {
                    if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                        continue;
                    }
                    let aj = s.alpha[j];
                    if aj.abs() <= ptol {
                        continue;
                    }
                    let eligible = if low_viol {
                        // x_Br must increase.
                        match self.stat[j] {
                            VStat::AtLower => aj < 0.0,
                            VStat::AtUpper => aj > 0.0,
                            VStat::Free => true,
                            VStat::Basic => false,
                        }
                    } else {
                        // x_Br must decrease.
                        match self.stat[j] {
                            VStat::AtLower => aj > 0.0,
                            VStat::AtUpper => aj < 0.0,
                            VStat::Free => true,
                            VStat::Basic => false,
                        }
                    };
                    if eligible {
                        s.breakpoints.push(((d[j] / aj).abs(), j));
                    }
                }
                s.breakpoints
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            let mut chosen: Option<(f64, usize)> = None;
            {
                let s = &mut self.scratch;
                s.flips.clear();
                // Walk the sorted breakpoints while flipping keeps the
                // remaining violation clearly positive (at `slope − reduce
                // ≈ 0` roundoff must not turn a degenerate final pivot into
                // a flip — exhausting the breakpoints would fabricate an
                // infeasibility certificate). `stop` is the first
                // breakpoint the dual step cannot pass.
                let mut slope = viol;
                let mut stop = s.breakpoints.len();
                for (bi, &(_, j)) in s.breakpoints.iter().enumerate() {
                    let gap = self.upper[j] - self.lower[j];
                    let reduce = s.alpha[j].abs() * gap;
                    if gap.is_finite() && slope - reduce > ftol {
                        slope -= reduce;
                    } else {
                        stop = bi;
                        break;
                    }
                }
                if stop < s.breakpoints.len() {
                    // Pivot tie-break among breakpoints within 1e-12 of the
                    // stopping ratio: prefer a slack/artificial entering
                    // column over a structural one, then the largest |α|.
                    // Degenerate ties resolved toward a tiny pivot element
                    // stall the dual in roundoff, and keeping structural 0-1
                    // columns *nonbasic* parks them on integral bounds — the
                    // branch-and-bound tree shrinks measurably when the
                    // relaxation vertex carries fewer fractional binaries.
                    let (stop_ratio, mut best_j) = s.breakpoints[stop];
                    let tie = stop_ratio + 1e-12;
                    let ns = self.core.num_structs;
                    for &(ratio, j) in &s.breakpoints[stop + 1..] {
                        if ratio > tie {
                            break;
                        }
                        if (j >= ns, s.alpha[j].abs()) > (best_j >= ns, s.alpha[best_j].abs()) {
                            best_j = j;
                        }
                    }
                    let theta_abs = stop_ratio;
                    chosen = Some((theta_abs, best_j));
                    // Keep only the *mandatory* flips: columns whose
                    // breakpoint the dual step strictly passes, so their
                    // reduced cost really changes sign. A breakpoint at (or
                    // within tolerance of) the step itself ends with d ≈ 0
                    // and must keep its bound — flipping it gains nothing
                    // dual-wise but perturbs x_B, and on degenerate (θ ≈ 0)
                    // steps that churn cycles the same columns forever.
                    let cut = theta_abs - 1e-9 * (1.0 + theta_abs);
                    for &(ratio, j) in &s.breakpoints[..stop] {
                        if ratio < cut && j != best_j {
                            s.flips.push(j);
                        }
                    }
                }
            }
            lap(&mut mark, &mut self.profile.ratio_secs);
            let Some((_, q)) = chosen else {
                // Every breakpoint flips and infeasibility remains: the dual
                // is unbounded along this row ⇒ the primal is infeasible.
                self.clear_alpha();
                return Ok(LpStatus::Infeasible);
            };
            let alpha_q = self.scratch.alpha[q];
            // FTRAN of the entering column, before any state is mutated, so
            // an untrustworthy pivot can retry after a refactorization.
            let mut w = std::mem::take(&mut self.scratch.w);
            let mut wpat = std::mem::take(&mut self.scratch.wpat);
            wpat.clear();
            for (row, v) in self.core.a.col(q) {
                w[row] = v;
                wpat.push(row);
            }
            Self::ftran_sparse(&self.basis, &mut w, &mut wpat, &mut self.scratch.lu);
            wpat.sort_unstable();
            lap(&mut mark, &mut self.profile.ftran_secs);
            let wr = w[r];
            if wr.abs() <= ptol {
                for &i in &wpat {
                    w[i] = 0.0;
                }
                self.scratch.w = w;
                self.scratch.wpat = wpat;
                self.clear_alpha();
                if self.basis.updates_len() == 0 {
                    return Err(WarmFail::NotDualFeasible);
                }
                self.refactor().map_err(WarmFail::Error)?;
                self.reduced_costs_into(costs, d);
                continue;
            }
            self.iterations += 1;
            self.profile.dual_iterations += 1;
            // Apply the accumulated bound flips: their combined effect on
            // x_B is one batched FTRAN of Σ Δx_j·a_j.
            if !self.scratch.flips.is_empty() {
                {
                    let core = self.core;
                    let s = &mut self.scratch;
                    s.rhs_pat.clear();
                    for fi in 0..s.flips.len() {
                        let j = s.flips[fi];
                        let (delta, flipped) = match self.stat[j] {
                            VStat::AtLower => (self.upper[j] - self.lower[j], VStat::AtUpper),
                            VStat::AtUpper => (self.lower[j] - self.upper[j], VStat::AtLower),
                            _ => unreachable!("only boxed nonbasic columns flip"),
                        };
                        self.stat[j] = flipped;
                        for (row, v) in core.a.col(j) {
                            if !s.mask[row] {
                                s.mask[row] = true;
                                s.rhs_pat.push(row);
                            }
                            s.rhs[row] += delta * v;
                        }
                    }
                    for &row in &s.rhs_pat {
                        s.mask[row] = false;
                    }
                }
                Self::ftran_sparse(
                    &self.basis,
                    &mut self.scratch.rhs,
                    &mut self.scratch.rhs_pat,
                    &mut self.scratch.lu,
                );
                {
                    let s = &mut self.scratch;
                    for &i in &s.rhs_pat {
                        if is_nonzero(s.rhs[i]) {
                            self.xb[i] -= s.rhs[i];
                        }
                        s.rhs[i] = 0.0;
                    }
                    s.rhs_pat.clear();
                    self.profile.bound_flips += s.flips.len();
                }
                lap(&mut mark, &mut self.profile.ftran_secs);
            }
            // Pivot, against the post-flip basic values.
            let target = if low_viol {
                self.lower[self.basic[r]]
            } else {
                self.upper[self.basic[r]]
            };
            let t = (self.xb[r] - target) / wr;
            for &i in &wpat {
                if is_nonzero(w[i]) {
                    self.xb[i] -= t * w[i];
                }
            }
            let entering_value = self.nonbasic_value(q) + t;
            let leaving_col = self.basic[r];
            // A leaving fixed column (l == u) rests at its (single) bound.
            self.stat[leaving_col] =
                if low_viol || self.lower[leaving_col] == self.upper[leaving_col] {
                    VStat::AtLower
                } else {
                    VStat::AtUpper
                };
            self.stat[q] = VStat::Basic;
            self.basic[r] = q;
            self.xb[r] = entering_value;
            lap(&mut mark, &mut self.profile.other_secs);
            self.update_basis(r, &w, &wpat).map_err(WarmFail::Error)?;
            mark = tick(self.timers);
            for &i in &wpat {
                w[i] = 0.0;
            }
            self.scratch.w = w;
            self.scratch.wpat = wpat;
            // Incremental d update from the pivot row. Flipped columns are
            // updated by the same formula: passing their breakpoint flips
            // the sign of their reduced cost, which their new bound status
            // makes dual feasible.
            let theta = d[q] / alpha_q;
            if is_nonzero(theta) {
                let s = &self.scratch;
                for &j in &s.touched {
                    if is_nonzero(s.alpha[j]) && self.stat[j] != VStat::Basic {
                        d[j] -= theta * s.alpha[j];
                    }
                }
            }
            d[q] = 0.0;
            d[leaving_col] = -theta;
            self.clear_alpha();
            lap(&mut mark, &mut self.profile.pricing_secs);
        }
    }

    /// Forms the pivot row `αᵀ = ρᵀ A` from the nonzeros of `scratch.rho`
    /// in time proportional to the row nonzeros of `A` met, accumulating
    /// into `scratch.alpha`/`touched` (lazily zeroed via `amask`), then
    /// clears `rho`/`rpat`. Release with [`clear_alpha`](Self::clear_alpha).
    fn form_pivot_row(&mut self) {
        let core = self.core;
        let s = &mut self.scratch;
        debug_assert!(s.touched.is_empty(), "pivot row not released");
        for &i in &s.rpat {
            let ri = s.rho[i];
            if is_zero(ri) {
                continue;
            }
            for (j, v) in core.rows_of_a.row(i) {
                if !s.amask[j] {
                    s.amask[j] = true;
                    s.alpha[j] = 0.0;
                    s.touched.push(j);
                }
                s.alpha[j] += ri * v;
            }
        }
        for &i in &s.rpat {
            s.rho[i] = 0.0;
        }
        s.rpat.clear();
    }

    /// Releases the pivot row built by [`form_pivot_row`](Self::form_pivot_row).
    fn clear_alpha(&mut self) {
        let s = &mut self.scratch;
        for &j in &s.touched {
            s.amask[j] = false;
        }
        s.touched.clear();
    }

    /// Dual values `y = B⁻ᵀ c_B` in original row space, computed in
    /// `scratch.y` and cloned once for the outcome.
    fn duals(&mut self, costs: &[f64]) -> Vec<f64> {
        let t = tick(self.timers);
        self.scratch.y.fill(0.0);
        for (pos, &col) in self.basic.iter().enumerate() {
            self.scratch.y[pos] = costs[col];
        }
        self.basis.btran(&mut self.scratch.y);
        let y = self.scratch.y.clone();
        tock(t, &mut self.profile.btran_secs);
        y
    }

    /// Extracts the full solution vector.
    fn extract_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.core.n];
        for j in 0..self.core.n {
            if self.stat[j] != VStat::Basic {
                x[j] = self.nonbasic_value(j);
            }
        }
        for (pos, &col) in self.basic.iter().enumerate() {
            x[col] = self.xb[pos];
        }
        x
    }

    fn snapshot(&self) -> BasisSnapshot {
        BasisSnapshot {
            basic: self.basic.clone(),
            stat: self.stat.clone(),
        }
    }

    /// The outcome of a cold solve stopped at its pivot cap: no answer,
    /// but the work done since `t0`, profile included.
    fn capped(&self, t0: Instant) -> CoreOutcome {
        let mut profile = self.profile;
        profile.solves = 1;
        profile.lp_secs = t0.elapsed().as_secs_f64();
        CoreOutcome {
            status: LpStatus::IterationLimit,
            x: self.extract_x(),
            objective: f64::NAN,
            duals: vec![0.0; self.core.m],
            snapshot: self.snapshot(),
            iterations: self.iterations,
            profile,
        }
    }
}

fn deadline_from(opts: &LpOptions) -> Option<Instant> {
    if opts.time_limit_secs.is_finite() {
        // audit: allow(nondet) — anchors the user-requested wall-clock limit;
        // pivot selection never reads it.
        Some(Instant::now() + std::time::Duration::from_secs_f64(opts.time_limit_secs.max(0.0)))
    } else {
        None
    }
}

/// Scripted [`FaultSite::SingularBasis`](crate::FaultSite) injection (inert
/// without a fault plan).
fn inject_singular(opts: &LpOptions) -> Result<(), LpError> {
    if let Some(faults) = &opts.faults {
        if faults.trip(crate::faults::FaultSite::SingularBasis) {
            return Err(LpError::SingularBasis);
        }
    }
    Ok(())
}

/// Scripted [`FaultSite::IterationCap`](crate::FaultSite) injection (inert
/// without a fault plan).
fn inject_itercap(opts: &LpOptions) -> Result<(), LpError> {
    if let Some(faults) = &opts.faults {
        if faults.trip(crate::faults::FaultSite::IterationCap) {
            return Err(LpError::IterationLimit);
        }
    }
    Ok(())
}

/// Deterministic outward bound relaxation for the final retry rung. Every
/// finite bound moves at most ~1.4e-9 *away* from the domain — far below
/// the 1e-6 branch-and-bound integrality tolerance — so the feasible
/// region only grows and the perturbed optimum remains a valid relaxation
/// bound for pruning.
fn perturbed_bounds(lower: &[f64], upper: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut lo = lower.to_vec();
    let mut up = upper.to_vec();
    for (j, v) in lo.iter_mut().enumerate() {
        if v.is_finite() {
            *v -= 1e-10 * (1.0 + (j % 13) as f64);
        }
    }
    for (j, v) in up.iter_mut().enumerate() {
        if v.is_finite() {
            *v += 1e-10 * (1.0 + ((j + 5) % 13) as f64);
        }
    }
    (lo, up)
}

/// Cold two-phase primal solve with a numerical retry ladder. A recoverable
/// failure — a singular basis (update drift making a refactorization
/// fail) or a stalled solve hitting the iteration limit — is retried: first
/// with more frequent refactorization and a tighter pivot tolerance, then
/// with cycling-proof Bland pricing, and finally with a tiny deterministic
/// outward bound perturbation (see [`perturbed_bounds`]). Each rung changes
/// the pivot sequence, which in practice escapes the degenerate corner that
/// produced the failure. Rungs climbed before success are counted in
/// [`SimplexProfile::retries`]; a clean first-rung solve is bit-identical
/// to a ladder-free solve.
pub(crate) fn solve_core_cold(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    opts: &LpOptions,
) -> Result<CoreOutcome, LpError> {
    // (refactor_every, pivot_tol, bland, perturb) per rung.
    let ladder: [(usize, f64, bool, bool); 5] = [
        (opts.refactor_every, opts.pivot_tol, false, false),
        (16, opts.pivot_tol, false, false),
        (4, 1e-11, false, false),
        (8, opts.pivot_tol, true, false),
        (4, 1e-11, true, true),
    ];
    let mut last = Err(LpError::SingularBasis);
    for (rung, (refactor_every, pivot_tol, bland, perturb)) in ladder.into_iter().enumerate() {
        let mut o = opts.clone();
        o.refactor_every = refactor_every;
        o.pivot_tol = pivot_tol;
        let attempt = if perturb {
            let (lo, up) = perturbed_bounds(lower, upper);
            solve_core_cold_once(core, &lo, &up, &o, bland)
        } else {
            solve_core_cold_once(core, lower, upper, &o, bland)
        };
        match attempt {
            Ok(mut out) => {
                out.profile.retries += rung;
                if out.status != LpStatus::IterationLimit {
                    return Ok(out);
                }
                last = Ok(out);
            }
            Err(e @ (LpError::SingularBasis | LpError::IterationLimit)) => last = Err(e),
            other => return other,
        }
    }
    last
}

/// A node LP that stopped at its pivot cap (on every rung of the ladder)
/// has no answer to branch on: report it as [`LpError::IterationLimit`].
fn uncapped(out: CoreOutcome) -> Result<CoreOutcome, LpError> {
    if out.status == LpStatus::IterationLimit {
        Err(LpError::IterationLimit)
    } else {
        Ok(out)
    }
}

/// One branch-and-bound node relaxation with the full recovery ladder:
/// a warm dual start when a snapshot is available, a cold fallback when
/// the warm solve is abandoned (dual-infeasible start, degenerate dual
/// exceeding its cap, or a recoverable numerical failure), and the cold
/// retry ladder of [`solve_core_cold`] underneath. The returned flag
/// reports whether the node fell back to a cold solve; fallbacks are
/// counted in [`SimplexProfile::warm_fallbacks`].
pub(crate) fn solve_node_resilient(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    warm: Option<&BasisSnapshot>,
    opts: &LpOptions,
) -> Result<(CoreOutcome, bool), LpError> {
    if let Some(snapshot) = warm {
        match solve_core_warm(core, lower, upper, snapshot, opts) {
            Ok(out) => return Ok((out, false)),
            Err(WarmFail::NotDualFeasible)
            | Err(WarmFail::Error(LpError::SingularBasis))
            | Err(WarmFail::Error(LpError::IterationLimit)) => {
                let mut out = solve_core_cold(core, lower, upper, opts).and_then(uncapped)?;
                out.profile.warm_fallbacks += 1;
                return Ok((out, true));
            }
            Err(WarmFail::Error(e)) => return Err(e),
        }
    }
    Ok((
        solve_core_cold(core, lower, upper, opts).and_then(uncapped)?,
        false,
    ))
}

fn solve_core_cold_once(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    opts: &LpOptions,
    bland: bool,
) -> Result<CoreOutcome, LpError> {
    inject_itercap(opts)?;
    // audit: allow(nondet) — profiling timer only (reported in SimplexProfile).
    let t0 = Instant::now();
    let tsetup = tick(opts.profile);
    let m = core.m;
    let n = core.n;
    let mut lower = lower.to_vec();
    let mut upper = upper.to_vec();
    // Initial nonbasic statuses for non-artificial columns.
    let mut stat = vec![VStat::AtLower; n];
    for j in 0..core.num_structs + m {
        stat[j] = if lower[j].is_finite() {
            if upper[j].is_finite() && upper[j].abs() < lower[j].abs() {
                VStat::AtUpper
            } else {
                VStat::AtLower
            }
        } else if upper[j].is_finite() {
            VStat::AtUpper
        } else {
            VStat::Free
        };
    }
    // Residuals with all *structural* columns at their initial values.
    let mut resid = core.b.clone();
    for j in 0..core.num_structs {
        let v = match stat[j] {
            VStat::AtLower => lower[j],
            VStat::AtUpper => upper[j],
            _ => 0.0,
        };
        if is_nonzero(v) {
            core.a.col_axpy(j, -v, &mut resid);
        }
    }
    // Slack crash basis: whenever the row residual fits inside the slack's
    // bounds, the slack absorbs it and the row starts feasible with no
    // artificial work. Otherwise the slack rests at its nearest bound and
    // the artificial carries the (small) remainder into phase 1. Both
    // choices keep the starting basis an identity matrix.
    let mut phase1_cost = vec![0.0; n];
    let mut basic = Vec::with_capacity(m);
    let mut xb0 = Vec::with_capacity(m);
    for r in 0..m {
        let scol = core.slack_col(r);
        let acol = core.artificial_col(r);
        let res = resid[r];
        if res >= lower[scol] && res <= upper[scol] {
            stat[scol] = VStat::Basic;
            basic.push(scol);
            xb0.push(res);
            lower[acol] = 0.0;
            upper[acol] = 0.0;
            stat[acol] = VStat::AtLower;
        } else {
            let sval = res.clamp(lower[scol], upper[scol]);
            debug_assert!(sval.is_finite(), "slack bound clamp must be finite");
            stat[scol] = if sval == lower[scol] {
                VStat::AtLower
            } else {
                VStat::AtUpper
            };
            let rem = res - sval;
            lower[acol] = rem.min(0.0);
            upper[acol] = rem.max(0.0);
            phase1_cost[acol] = if rem > 0.0 {
                1.0
            } else if rem < 0.0 {
                -1.0
            } else {
                0.0
            };
            stat[acol] = VStat::Basic;
            basic.push(acol);
            xb0.push(rem);
        }
    }
    let mut setup_secs = 0.0;
    tock(tsetup, &mut setup_secs);
    inject_singular(opts)?;
    let tfac = tick(opts.profile);
    let basis = FtFactors::factorize_markowitz(&core.a, &basic, opts.pivot_tol)?;
    let mut initial_factorize_secs = 0.0;
    tock(tfac, &mut initial_factorize_secs);
    let mut scratch = Scratch::default();
    scratch.ensure(m, n);
    let mut sx = Simplex {
        core,
        opts,
        lower,
        upper,
        stat,
        basic,
        basis,
        xb: xb0,
        iterations: 0,
        degen_streak: 0,
        deadline: deadline_from(opts),
        scratch,
        profile: SimplexProfile::default(),
        timers: opts.profile,
        bland,
    };
    sx.profile.other_secs += setup_secs;
    sx.profile.refactor_secs += initial_factorize_secs;
    // Phase 1: drive the total artificial infeasibility to zero, stopping
    // the moment it reaches zero (degenerate pivots at the optimum would
    // otherwise stall).
    let p1 = match sx.primal(&phase1_cost, Some(0.0)) {
        Err(LpError::IterationLimit) => return Ok(sx.capped(t0)),
        p1 => p1?,
    };
    debug_assert_ne!(p1, LpStatus::Unbounded, "phase 1 is bounded below by 0");
    // Sum |artificial| over basic positions directly (artificials occupy
    // the trailing column range), then the nonbasic remainder — no
    // per-column basis search, no panic on a corrupted basis.
    let art0 = core.artificial_col(0);
    let mut infeas: f64 = sx
        .basic
        .iter()
        .zip(&sx.xb)
        .filter(|&(&col, _)| col >= art0)
        .map(|(_, &v)| v.abs())
        .sum();
    for r in 0..m {
        let col = core.artificial_col(r);
        if sx.stat[col] != VStat::Basic {
            infeas += sx.nonbasic_value(col).abs();
        }
    }
    let scale = 1.0 + core.b.iter().map(|v| v.abs()).sum::<f64>();
    if infeas > opts.feas_tol * scale {
        let mut profile = sx.profile;
        profile.solves = 1;
        profile.lp_secs = t0.elapsed().as_secs_f64();
        return Ok(CoreOutcome {
            status: LpStatus::Infeasible,
            x: sx.extract_x(),
            objective: f64::INFINITY,
            duals: vec![0.0; core.m],
            snapshot: sx.snapshot(),
            iterations: sx.iterations,
            profile,
        });
    }
    // Fix artificials at zero for phase 2.
    let tmid = tick(sx.timers);
    for r in 0..m {
        let col = core.artificial_col(r);
        sx.lower[col] = 0.0;
        sx.upper[col] = 0.0;
        if sx.stat[col] != VStat::Basic {
            sx.stat[col] = VStat::AtLower;
        }
    }
    sx.recompute_xb();
    tock(tmid, &mut sx.profile.other_secs);
    let status = match sx.primal(&core.c, None) {
        Err(LpError::IterationLimit) => return Ok(sx.capped(t0)),
        status => status?,
    };
    let tout = tick(sx.timers);
    let x = sx.extract_x();
    let objective = core.c.iter().zip(&x).map(|(c, v)| c * v).sum();
    tock(tout, &mut sx.profile.other_secs);
    let duals = sx.duals(&core.c);
    let mut profile = sx.profile;
    profile.solves = 1;
    profile.lp_secs = t0.elapsed().as_secs_f64();
    Ok(CoreOutcome {
        status,
        x,
        objective,
        duals,
        snapshot: sx.snapshot(),
        iterations: sx.iterations,
        profile,
    })
}

/// Warm-started dual solve from a basis snapshot after bound changes.
pub(crate) fn solve_core_warm(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    snapshot: &BasisSnapshot,
    opts: &LpOptions,
) -> Result<CoreOutcome, WarmFail> {
    let mut stat = snapshot.stat.clone();
    // Nonbasic variables whose bound vanished or moved keep their side; a
    // collapsed domain forces AtLower (== AtUpper).
    for (j, s) in stat.iter_mut().enumerate() {
        if *s == VStat::Basic {
            continue;
        }
        *s = match *s {
            VStat::AtLower if lower[j].is_finite() => VStat::AtLower,
            VStat::AtUpper if upper[j].is_finite() => VStat::AtUpper,
            VStat::Free => VStat::Free,
            _ => {
                if lower[j].is_finite() {
                    VStat::AtLower
                } else if upper[j].is_finite() {
                    VStat::AtUpper
                } else {
                    VStat::Free
                }
            }
        };
    }
    // audit: allow(nondet) — profiling timer only (reported in SimplexProfile).
    let t0 = Instant::now();
    inject_itercap(opts).map_err(WarmFail::Error)?;
    inject_singular(opts).map_err(WarmFail::Error)?;
    let tfac = tick(opts.profile);
    let basis = FtFactors::factorize_markowitz(&core.a, &snapshot.basic, opts.pivot_tol)
        .map_err(WarmFail::Error)?;
    let mut initial_factorize_secs = 0.0;
    tock(tfac, &mut initial_factorize_secs);
    let mut scratch = Scratch::default();
    scratch.ensure(core.m, core.n);
    let mut sx = Simplex {
        core,
        opts,
        lower: lower.to_vec(),
        upper: upper.to_vec(),
        stat,
        basic: snapshot.basic.clone(),
        basis,
        xb: vec![0.0; core.m],
        iterations: 0,
        degen_streak: 0,
        deadline: deadline_from(opts),
        scratch,
        profile: SimplexProfile::default(),
        timers: opts.profile,
        bland: false,
    };
    sx.profile.refactor_secs += initial_factorize_secs;
    let tmid = tick(sx.timers);
    sx.recompute_xb();
    tock(tmid, &mut sx.profile.other_secs);
    let status = sx.dual(&core.c)?;
    let tout = tick(sx.timers);
    let x = sx.extract_x();
    let objective = core.c.iter().zip(&x).map(|(c, v)| c * v).sum();
    tock(tout, &mut sx.profile.other_secs);
    let duals = sx.duals(&core.c);
    let mut profile = sx.profile;
    profile.solves = 1;
    profile.lp_secs = t0.elapsed().as_secs_f64();
    Ok(CoreOutcome {
        status,
        x,
        objective,
        duals,
        snapshot: sx.snapshot(),
        iterations: sx.iterations,
        profile,
    })
}

/// Outcome of [`solve_lp`].
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// Termination status.
    pub status: LpStatus,
    /// Values of the problem's variables (empty unless optimal).
    pub x: Vec<f64>,
    /// Objective value (`+∞` if infeasible, `−∞` if unbounded, NaN when
    /// stopped at the iteration limit).
    pub objective: f64,
    /// Dual value (shadow price `∂obj/∂rhs`) per constraint row; empty
    /// unless optimal. For `min` problems a binding `≤` row has a
    /// non-positive dual and a binding `≥` row a non-negative one.
    pub duals: Vec<f64>,
    /// Reduced cost per variable (`c_j − y·a_j`); zero for basic variables.
    /// Empty unless optimal.
    pub reduced_costs: Vec<f64>,
    /// Simplex iterations across both phases.
    pub iterations: usize,
    /// Per-phase counters (and, with [`LpOptions::profile`], section
    /// timers) of the solve, also when it stopped at the iteration limit.
    pub profile: SimplexProfile,
}

impl LpOutcome {
    /// The outcome, or [`LpError::IterationLimit`] when the solve stopped
    /// at its pivot cap: for callers that treat a capped solve as a failed
    /// one.
    ///
    /// # Errors
    ///
    /// [`LpError::IterationLimit`] for a [`LpStatus::IterationLimit`]
    /// outcome.
    pub fn finished(self) -> Result<LpOutcome, LpError> {
        if self.status == LpStatus::IterationLimit {
            Err(LpError::IterationLimit)
        } else {
            Ok(self)
        }
    }
}

/// Solves the LP relaxation of `problem` (binaries relaxed to `[0, 1]`).
///
/// A solve that does not converge within [`LpOptions::max_iterations`]
/// (on every rung of the retry ladder) returns status
/// [`LpStatus::IterationLimit`] with the profile of its last attempt;
/// [`LpOutcome::finished`] maps it to an error.
///
/// # Errors
///
/// * [`LpError::SingularBasis`] — basis factorization failed irrecoverably.
/// * [`LpError::IterationLimit`] — a scripted `itercap` fault fired on the
///   last rung of the retry ladder.
///
/// # Examples
///
/// ```
/// use tempart_lp::{Problem, VarKind, Sense, solve_lp, LpOptions, LpStatus};
///
/// # fn main() -> Result<(), tempart_lp::LpError> {
/// let mut p = Problem::new("lp");
/// let x = p.add_var("x", VarKind::Continuous, -1.0)?; // maximize x
/// p.add_constraint("c", [(x, 2.0)], Sense::Le, 3.0)?;
/// let out = solve_lp(&p, &LpOptions::default())?;
/// assert_eq!(out.status, LpStatus::Optimal);
/// assert!((out.x[0] - 1.5).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
pub fn solve_lp(problem: &Problem, opts: &LpOptions) -> Result<LpOutcome, LpError> {
    let core = CoreLp::from_problem(problem);
    let out = solve_core_cold(&core, &core.lower, &core.upper, opts)?;
    let x = out.x[..core.num_structs].to_vec();
    let (duals, reduced_costs) = if out.status == LpStatus::Optimal {
        let rc: Vec<f64> = (0..core.num_structs)
            .map(|j| core.c[j] - core.a.col_dot(j, &out.duals))
            .collect();
        (out.duals.clone(), rc)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(LpOutcome {
        status: out.status,
        x,
        objective: match out.status {
            LpStatus::Optimal => out.objective,
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::Unbounded => f64::NEG_INFINITY,
            LpStatus::IterationLimit => f64::NAN,
        },
        duals,
        reduced_costs,
        iterations: out.iterations,
        profile: out.profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Sense, VarKind};

    fn opts() -> LpOptions {
        LpOptions::default()
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3  (minimize negation)
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, -3.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, -2.0).unwrap();
        p.add_constraint("c1", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0)
            .unwrap();
        p.set_bounds(x, 0.0, 2.0).unwrap();
        p.set_bounds(y, 0.0, 3.0).unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(
            (out.objective - (-10.0)).abs() < 1e-7,
            "obj={}",
            out.objective
        );
        assert!((out.x[0] - 2.0).abs() < 1e-7);
        assert!((out.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn capped_solve_keeps_its_profile() {
        // max Σ x_j over the chain x_j + x_{j+1} ≤ 1: several pivots to the
        // optimum, so a cap of 2 stops every rung of the retry ladder.
        let mut p = Problem::new("chain");
        let xs: Vec<_> = (0..10)
            .map(|j| {
                p.add_var(format!("x{j}"), VarKind::Continuous, -1.0)
                    .unwrap()
            })
            .collect();
        for (j, w) in xs.windows(2).enumerate() {
            p.add_constraint(format!("c{j}"), [(w[0], 1.0), (w[1], 1.0)], Sense::Le, 1.0)
                .unwrap();
        }
        let cap = 2;
        let capped = LpOptions {
            max_iterations: cap,
            profile: true,
            ..opts()
        };
        let out = solve_lp(&p, &capped).unwrap();
        assert_eq!(out.status, LpStatus::IterationLimit);
        assert!(out.objective.is_nan());
        assert_eq!(out.iterations, cap);
        assert_eq!(out.profile.iterations(), cap);
        assert_eq!(out.profile.retries, 4, "every ladder rung hit the cap");
        assert!(out.profile.timed_secs() > 0.0);
        assert!(out.profile.lp_secs > 0.0);
        assert!(matches!(out.finished(), Err(LpError::IterationLimit)));
        let full = solve_lp(&p, &opts()).unwrap().finished().unwrap();
        assert_eq!(full.status, LpStatus::Optimal);
        assert!(full.iterations > cap);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + 2y = 4, x - y >= -1, x,y >= 0
        // Optimum: intersection? Try y as large as possible: x = 4-2y >= 0,
        // x - y = 4 - 3y >= -1 → y <= 5/3; obj = 4 - y minimized at y = 5/3:
        // obj = 7/3, x = 2/3.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 1.0).unwrap();
        p.add_constraint("eq", [(x, 1.0), (y, 2.0)], Sense::Eq, 4.0)
            .unwrap();
        p.add_constraint("ge", [(x, 1.0), (y, -1.0)], Sense::Ge, -1.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(
            (out.objective - 7.0 / 3.0).abs() < 1e-7,
            "obj={}",
            out.objective
        );
        assert!((out.x[0] - 2.0 / 3.0).abs() < 1e-7);
        assert!((out.x[1] - 5.0 / 3.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        p.add_constraint("a", [(x, 1.0)], Sense::Ge, 5.0).unwrap();
        p.add_constraint("b", [(x, 1.0)], Sense::Le, 1.0).unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, -1.0).unwrap(); // max x
        p.add_constraint("a", [(x, -1.0)], Sense::Le, 0.0).unwrap(); // -x <= 0
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -3 (bound), x + y >= -1, y <= 2.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 0.0).unwrap();
        p.set_bounds(x, -3.0, f64::INFINITY).unwrap();
        p.set_bounds(y, 0.0, 2.0).unwrap();
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Ge, -1.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.x[0] - (-3.0)).abs() < 1e-7, "x={}", out.x[0]);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= y - 2, y = 1, x free → x = -1.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 0.0).unwrap();
        p.set_bounds(x, f64::NEG_INFINITY, f64::INFINITY).unwrap();
        p.add_constraint("c", [(x, 1.0), (y, -1.0)], Sense::Ge, -2.0)
            .unwrap();
        p.add_constraint("e", [(y, 1.0)], Sense::Eq, 1.0).unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.x[0] - (-1.0)).abs() < 1e-7, "x={}", out.x[0]);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, -1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, -1.0).unwrap();
        for k in 1..=6 {
            let kf = k as f64;
            p.add_constraint(format!("c{k}"), [(x, kf), (y, kf)], Sense::Le, 2.0 * kf)
                .unwrap();
        }
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - (-2.0)).abs() < 1e-7);
    }

    #[test]
    fn warm_start_dual_matches_cold() {
        // LP relaxation of a small knapsack; then fix a variable's bounds and
        // compare dual-warm vs cold-solved results.
        let mut p = Problem::new("t");
        let xs: Vec<_> = (0..4)
            .map(|i| {
                p.add_var(format!("x{i}"), VarKind::Binary, -((i + 1) as f64))
                    .unwrap()
            })
            .collect();
        p.add_constraint(
            "cap",
            xs.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            2.5,
        )
        .unwrap();
        let core = CoreLp::from_problem(&p);
        let root = solve_core_cold(&core, &core.lower, &core.upper, &opts()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        // Fix x3 = 0 (the most valuable one).
        let mut lo = core.lower.clone();
        let mut hi = core.upper.clone();
        hi[3] = 0.0;
        let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts()).unwrap();
        let cold = solve_core_cold(&core, &lo, &hi, &opts()).unwrap();
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        // Fix x3 = 1 instead.
        lo[3] = 1.0;
        hi[3] = 1.0;
        let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts()).unwrap();
        let cold = solve_core_cold(&core, &lo, &hi, &opts()).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn warm_start_with_collapsed_domains() {
        // Fix several variables to each bound after the root solve; the
        // warm dual must agree with cold solves in every case.
        let mut p = Problem::new("t");
        let vars: Vec<_> = (0..5)
            .map(|i| {
                p.add_var(format!("x{i}"), VarKind::Binary, (i as f64) - 2.0)
                    .unwrap()
            })
            .collect();
        p.add_constraint(
            "mix",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, if i % 2 == 0 { 1.0 } else { -1.0 }))
                .collect::<Vec<_>>(),
            Sense::Le,
            1.5,
        )
        .unwrap();
        p.add_constraint(
            "ge",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Ge,
            1.0,
        )
        .unwrap();
        let core = CoreLp::from_problem(&p);
        let root = solve_core_cold(&core, &core.lower, &core.upper, &opts()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        for fix_mask in 0..8u32 {
            let mut lo = core.lower.clone();
            let mut hi = core.upper.clone();
            for bit in 0..3 {
                let val = f64::from(fix_mask >> bit & 1);
                lo[bit] = val;
                hi[bit] = val;
            }
            let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts());
            let cold = solve_core_cold(&core, &lo, &hi, &opts()).unwrap();
            match warm {
                Ok(w) => {
                    assert_eq!(w.status, cold.status, "mask {fix_mask}");
                    if w.status == LpStatus::Optimal {
                        assert!(
                            (w.objective - cold.objective).abs() < 1e-6,
                            "mask {fix_mask}: warm {} cold {}",
                            w.objective,
                            cold.objective
                        );
                    }
                }
                Err(WarmFail::NotDualFeasible) => { /* cold fallback path */ }
                Err(WarmFail::Error(e)) => panic!("mask {fix_mask}: {e}"),
            }
        }
    }

    #[test]
    fn warm_start_detects_infeasible_node() {
        // x0 + x1 >= 2 with both fixed to 0 is infeasible.
        let mut p = Problem::new("t");
        let a = p.add_var("a", VarKind::Binary, 1.0).unwrap();
        let b = p.add_var("b", VarKind::Binary, 1.0).unwrap();
        p.add_constraint("c", [(a, 1.0), (b, 1.0)], Sense::Ge, 2.0)
            .unwrap();
        let core = CoreLp::from_problem(&p);
        let root = solve_core_cold(&core, &core.lower, &core.upper, &opts()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        let lo = core.lower.clone();
        let mut hi = core.upper.clone();
        hi[0] = 0.0;
        hi[1] = 0.0;
        let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts()).unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn duals_and_reduced_costs_satisfy_complementary_slackness() {
        // min -3x - 2y s.t. x + y <= 4 (binding), x <= 3 (binding),
        // y <= 10 (slack): optimum x = 3, y = 1, obj = -11.
        let mut p = Problem::new("duals");
        let x = p.add_var("x", VarKind::Continuous, -3.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, -2.0).unwrap();
        let r0 = p
            .add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0)
            .unwrap();
        let r1 = p
            .add_constraint("capx", [(x, 1.0)], Sense::Le, 3.0)
            .unwrap();
        let r2 = p
            .add_constraint("capy", [(y, 1.0)], Sense::Le, 10.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective + 11.0).abs() < 1e-7);
        // Shadow prices: relaxing `sum` by 1 gains 2 (more y), relaxing
        // `capx` gains 1 (swap y for x); `capy` is slack ⇒ dual 0.
        assert!(
            (out.duals[r0.index()] + 2.0).abs() < 1e-6,
            "{:?}",
            out.duals
        );
        assert!((out.duals[r1.index()] + 1.0).abs() < 1e-6);
        assert!(out.duals[r2.index()].abs() < 1e-9);
        // Strong duality: y·b == objective.
        let yb: f64 = out.duals[r0.index()] * 4.0
            + out.duals[r1.index()] * 3.0
            + out.duals[r2.index()] * 10.0;
        assert!((yb - out.objective).abs() < 1e-6);
        // Both variables are basic at the optimum ⇒ zero reduced costs.
        assert!(out.reduced_costs[x.index()].abs() < 1e-6);
        assert!(out.reduced_costs[y.index()].abs() < 1e-6);
    }

    #[test]
    fn reduced_cost_nonzero_only_at_bounds() {
        // min x + y s.t. x + y >= 1, x in [0,1], y in [0,1]: many optima;
        // the solver lands on a vertex. Any variable strictly inside its
        // bounds must have zero reduced cost.
        let mut p = Problem::new("rc");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        p.set_bounds(x, 0.0, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 2.0).unwrap();
        p.set_bounds(y, 0.0, 1.0).unwrap();
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Ge, 1.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 1.0).abs() < 1e-7); // x = 1, y = 0
        for (j, &v) in out.x.iter().enumerate() {
            let (lo, hi) = p.var_bounds(crate::VarId(j));
            if v > lo + 1e-7 && v < hi - 1e-7 {
                assert!(out.reduced_costs[j].abs() < 1e-6, "interior var {j}");
            }
        }
    }

    #[test]
    fn zero_time_budget_times_out() {
        // A generously-sized random LP with a zero wall-clock budget must
        // report Timeout instead of running.
        let mut p = Problem::new("t");
        let vars: Vec<_> = (0..40)
            .map(|i| {
                let v = p
                    .add_var(format!("x{i}"), VarKind::Continuous, -((i % 7) as f64))
                    .unwrap();
                p.set_bounds(v, 0.0, 1.0).unwrap();
                v
            })
            .collect();
        for r in 0..30 {
            let coeffs: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + r) % 5) as f64 - 2.0))
                .collect();
            p.add_constraint(format!("r{r}"), coeffs, Sense::Le, 1.0)
                .unwrap();
        }
        let mut o = opts();
        o.time_limit_secs = 0.0;
        assert_eq!(solve_lp(&p, &o).unwrap_err(), LpError::Timeout);
    }

    #[test]
    fn pseudo_random_lps_agree_with_enumeration() {
        // Tiny LPs over the unit box with random costs/rows: compare the
        // simplex optimum against brute-force vertex enumeration done by
        // checking all 2^n bound patterns and all constraint intersections is
        // overkill; instead validate feasibility + objective not worse than
        // any box corner that satisfies the constraints.
        let mut seed = 12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for trial in 0..30 {
            let n = 3 + (trial % 3);
            let mut p = Problem::new("rnd");
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    let v = p
                        .add_var(format!("x{i}"), VarKind::Continuous, next())
                        .unwrap();
                    p.set_bounds(v, 0.0, 1.0).unwrap();
                    v
                })
                .collect();
            for r in 0..3 {
                let coeffs: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
                p.add_constraint(format!("r{r}"), coeffs, Sense::Le, 0.5 + next().abs())
                    .unwrap();
            }
            let out = solve_lp(&p, &opts()).unwrap();
            assert_eq!(out.status, LpStatus::Optimal, "trial {trial}");
            // Solution must satisfy constraints.
            assert_eq!(p.first_violated(&out.x, 1e-6), None, "trial {trial}");
            // Objective must beat every feasible box corner.
            for mask in 0..(1u32 << n) {
                let corner: Vec<f64> = (0..n)
                    .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect();
                if p.first_violated(&corner, 1e-9).is_none() {
                    let cobj = p.objective_value(&corner);
                    assert!(
                        out.objective <= cobj + 1e-6,
                        "trial {trial}: simplex {} worse than corner {:?} = {}",
                        out.objective,
                        corner,
                        cobj
                    );
                }
            }
        }
    }

    /// Differential check of the warm dual: after a cold solve, each bound
    /// tightening must warm-resolve under the bound-flipping dual to the
    /// same status/objective as a cold primal solve of the tightened LP.
    #[test]
    fn warm_dual_bfrt_matches_cold_primal() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..400 {
            let mut p = Problem::new("warm");
            let nv = 3 + (next() % 6) as usize;
            let nc = 2 + (next() % 5) as usize;
            let vars: Vec<_> = (0..nv)
                .map(|i| {
                    let c = (next() % 1000) as f64 / 100.0 - 5.0;
                    p.add_var(format!("x{i}"), VarKind::Binary, c).unwrap()
                })
                .collect();
            for r in 0..nc {
                let mut coeffs = Vec::new();
                for &v in &vars {
                    if next() % 3 != 0 {
                        coeffs.push((v, (next() % 9) as f64 - 4.0));
                    }
                }
                let coeffs = if coeffs.is_empty() {
                    vec![(vars[0], 1.0)]
                } else {
                    coeffs
                };
                let sense = match next() % 4 {
                    0 => Sense::Ge,
                    1 => Sense::Eq,
                    _ => Sense::Le,
                };
                let rhs = (next() % 9) as f64 - 3.0;
                p.add_constraint(format!("c{r}"), coeffs, sense, rhs)
                    .unwrap();
            }
            let core = CoreLp::from_problem(&p);
            let base = match solve_core_cold(&core, &core.lower, &core.upper, &opts()) {
                Ok(out) if out.status == LpStatus::Optimal => out,
                _ => continue,
            };
            // Tighten each binary to each side in turn and warm-resolve.
            for j in 0..core.num_structs {
                for fixed in [0.0, 1.0] {
                    let mut lower = core.lower.clone();
                    let mut upper = core.upper.clone();
                    lower[j] = fixed;
                    upper[j] = fixed;
                    let cold = solve_core_cold(&core, &lower, &upper, &opts());
                    let warm = solve_core_warm(&core, &lower, &upper, &base.snapshot, &opts());
                    let cold = cold.unwrap_or_else(|e| panic!("trial {trial} cold: {e}"));
                    let Ok(warm) = warm else {
                        // A warm failure falls back to a cold solve in B&B;
                        // only compare completed warm solves.
                        continue;
                    };
                    assert_eq!(
                        cold.status, warm.status,
                        "trial {trial} fix x{j}={fixed}: cold {:?} vs bfrt {:?}",
                        cold.status, warm.status
                    );
                    if cold.status == LpStatus::Optimal {
                        assert!(
                            (cold.objective - warm.objective).abs() <= 1e-6,
                            "trial {trial} fix x{j}={fixed}: cold obj {} vs bfrt obj {}",
                            cold.objective,
                            warm.objective
                        );
                    }
                }
            }
        }
    }
}
