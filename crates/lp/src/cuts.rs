//! Cutting-plane separation: lifted cover and clique cuts from fractional
//! LP points, managed by a cut pool with age-based eviction.
//!
//! The engine is *cut-and-branch*: cuts are separated in a multi-round loop
//! at the root (plus shallow probe dives that fix one fractional binary each
//! way and separate from the child LP points), collected in a [`CutPool`],
//! and the surviving pool is appended to a clone of the problem **before**
//! the tree search starts. The search itself never changes dimensions, so
//! warm-started bases and the work-stealing parallel driver are untouched.
//!
//! Both families are separated from the *original* rows only and are valid
//! for every 0-1 point satisfying those rows — adding them globally (even
//! when found at a probe-dive point) cannot cut off any integer solution.
//! The proptest suite enforces exactly that: a cut violated by the known
//! integer optimum is an immediate failure.
//!
//! * **Lifted cover cuts.** For a knapsack-form row `Σ aⱼ xⱼ ≤ b` (negative
//!   coefficients complemented away), a cover `C` with `Σ_{C} aⱼ > b`
//!   yields `Σ_{C} xⱼ ≤ |C| − 1`, extended (lifted with coefficient 1) by
//!   every variable whose coefficient is at least the largest in the cover.
//! * **Clique cuts.** From pairwise conflicts `aᵢ + aⱼ > b` of all-binary
//!   rows, a clique `Q` in the conflict graph yields `Σ_{Q} xⱼ ≤ 1`.

use std::collections::BTreeSet;

use crate::branch::is_fractional;
use crate::problem::{Problem, Sense, VarId, VarKind};

/// One separated cut: `Σ coeffs ≤ rhs` over the problem's variables.
///
/// Cuts never introduce variables, so appending them to a [`Problem`]
/// changes the row set only — solution vectors keep their meaning.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    /// `(variable, coefficient)` terms, sorted by variable index.
    pub coeffs: Vec<(VarId, f64)>,
    /// Right-hand side of the `≤` inequality.
    pub rhs: f64,
    /// Family tag (`cover` / `clique`), used in row names and reports.
    pub family: &'static str,
}

impl Cut {
    /// Left-hand-side activity at a point.
    pub fn activity(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(v, c)| c * x[v.index()]).sum()
    }

    /// Violation at a point (positive means the point is cut off).
    pub fn violation(&self, x: &[f64]) -> f64 {
        self.activity(x) - self.rhs
    }

    /// Canonical dedup key (coefficients are small integers by
    /// construction, so exact formatting is stable).
    fn key(&self) -> String {
        let mut s = String::new();
        for &(v, c) in &self.coeffs {
            s.push_str(&format!("{}:{:.0};", v.index(), c));
        }
        s.push_str(&format!("<={:.0}", self.rhs));
        s
    }
}

/// Separates violated lifted cover cuts from `problem`'s rows at the
/// fractional point `x` (`x.len() == problem.num_vars()`).
///
/// Only rows whose support is entirely binary participate; `≥` rows are
/// normalized to `≤` by negation and negative coefficients are complemented
/// (`xⱼ → 1 − xⱼ`), which preserves validity for every 0-1 point of the row.
pub fn separate_cover_cuts(problem: &Problem, x: &[f64], min_violation: f64) -> Vec<Cut> {
    let mut cuts = Vec::new();
    for row in &problem.rows {
        let (coeffs, rhs) = match row.sense {
            Sense::Le => (row.coeffs.clone(), row.rhs),
            Sense::Ge => (row.coeffs.iter().map(|&(v, c)| (v, -c)).collect(), -row.rhs),
            // An equality is both `≤` and `≥`; covering only its `≤` face
            // keeps the separation cheap and still valid.
            Sense::Eq => (row.coeffs.clone(), row.rhs),
        };
        if coeffs.len() < 2
            || !coeffs
                .iter()
                .all(|&(v, _)| problem.var_kind(v) == VarKind::Binary)
        {
            continue;
        }
        // Complement negatives into knapsack form: a_j < 0 becomes the
        // complemented variable with weight -a_j and the rhs absorbs a_j.
        let mut items: Vec<(VarId, f64, bool)> = Vec::with_capacity(coeffs.len());
        let mut b = rhs;
        for &(v, a) in &coeffs {
            if a > 0.0 {
                items.push((v, a, false));
            } else if a < 0.0 {
                items.push((v, -a, true));
                b -= a;
            }
        }
        if items.len() < 2 || b <= 0.0 {
            continue;
        }
        // Greedy cover: take items by complemented LP value descending (the
        // most "used" items first) until the weights exceed b.
        let val = |v: VarId, comp: bool| -> f64 {
            let xv = x[v.index()].clamp(0.0, 1.0);
            if comp {
                1.0 - xv
            } else {
                xv
            }
        };
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&i, &j| {
            val(items[j].0, items[j].2)
                .total_cmp(&val(items[i].0, items[i].2))
                .then(items[i].0.index().cmp(&items[j].0.index()))
        });
        let mut cover: Vec<usize> = Vec::new();
        let mut weight = 0.0;
        for &i in &order {
            cover.push(i);
            weight += items[i].1;
            if weight > b + 1e-9 {
                break;
            }
        }
        if weight <= b + 1e-9 || cover.len() < 2 {
            continue; // no cover exists (or it is the trivial full row)
        }
        // Lift by extension: any variable at least as heavy as the heaviest
        // cover member can join the left-hand side with coefficient 1.
        let max_w = cover.iter().map(|&i| items[i].1).fold(0.0, f64::max);
        let in_cover: BTreeSet<usize> = cover.iter().copied().collect();
        let mut members: Vec<usize> = cover.clone();
        for (i, item) in items.iter().enumerate() {
            if !in_cover.contains(&i) && item.1 >= max_w - 1e-9 {
                members.push(i);
            }
        }
        // Σ members ≤ |cover| − 1, de-complementing back to original vars:
        // a complemented member contributes (1 − x_j), i.e. −x_j on the
        // left and −1 off the rhs.
        let mut terms: Vec<(VarId, f64)> = Vec::with_capacity(members.len());
        let mut cut_rhs = cover.len() as f64 - 1.0;
        for &i in &members {
            let (v, _, comp) = items[i];
            if comp {
                terms.push((v, -1.0));
                cut_rhs -= 1.0;
            } else {
                terms.push((v, 1.0));
            }
        }
        terms.sort_by_key(|&(v, _)| v.index());
        let cut = Cut {
            coeffs: terms,
            rhs: cut_rhs,
            family: "cover",
        };
        if cut.violation(x) > min_violation {
            cuts.push(cut);
        }
    }
    cuts
}

/// Separates violated clique cuts at `x` from the conflict graph of
/// `problem`'s all-binary, all-positive `≤` rows: variables `i`, `j`
/// conflict when `aᵢ + aⱼ > b`, so at most one member of any clique can be 1.
pub fn separate_clique_cuts(problem: &Problem, x: &[f64], min_violation: f64) -> Vec<Cut> {
    // Conflict adjacency over variable indices (BTree keeps iteration
    // deterministic — this feeds branching decisions downstream).
    let mut adj: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut nodes: BTreeSet<usize> = BTreeSet::new();
    for row in &problem.rows {
        if row.sense != Sense::Le || row.coeffs.len() < 2 {
            continue;
        }
        let all_pos_binary = row
            .coeffs
            .iter()
            .all(|&(v, c)| c > 0.0 && problem.var_kind(v) == VarKind::Binary);
        if !all_pos_binary {
            continue;
        }
        for (i, &(vi, ai)) in row.coeffs.iter().enumerate() {
            for &(vj, aj) in &row.coeffs[i + 1..] {
                if ai + aj > row.rhs + 1e-9 {
                    let (a, b) = if vi.index() < vj.index() {
                        (vi.index(), vj.index())
                    } else {
                        (vj.index(), vi.index())
                    };
                    adj.insert((a, b));
                    adj.insert((b, a));
                    nodes.insert(a);
                    nodes.insert(b);
                }
            }
        }
    }
    if nodes.is_empty() {
        return Vec::new();
    }
    // Greedy cliques grown from each fractional seed by LP value descending.
    let mut order: Vec<usize> = nodes.iter().copied().collect();
    order.sort_by(|&i, &j| x[j].total_cmp(&x[i]).then(i.cmp(&j)));
    let mut cuts = Vec::new();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for &seed in &order {
        if used.contains(&seed) || x[seed] <= 1e-6 {
            continue;
        }
        let mut clique = vec![seed];
        for &cand in &order {
            if cand == seed || used.contains(&cand) {
                continue;
            }
            if clique.iter().all(|&m| adj.contains(&(m, cand))) {
                clique.push(cand);
            }
        }
        if clique.len() < 2 {
            continue;
        }
        clique.sort_unstable();
        let cut = Cut {
            coeffs: clique.iter().map(|&i| (VarId(i), 1.0)).collect(),
            rhs: 1.0,
            family: "clique",
        };
        if cut.violation(x) > min_violation {
            used.extend(clique.iter().copied());
            cuts.push(cut);
        }
    }
    cuts
}

/// A managed cut pool: deduplicates incoming cuts, tracks each cut's
/// activity at the most recent LP point, and evicts cuts that have been
/// slack for [`CutPool::max_age`] consecutive rounds. Evicted cuts leave
/// the dedup set, so a later round may legitimately re-separate them
/// (activity-based re-separation).
#[derive(Debug)]
pub struct CutPool {
    entries: Vec<PoolEntry>,
    seen: BTreeSet<String>,
    max_age: usize,
    /// Lifetime eviction count (survives the evicted entries).
    evicted: usize,
}

#[derive(Debug)]
struct PoolEntry {
    cut: Cut,
    key: String,
    /// Consecutive rounds this cut was slack at the LP optimum.
    age: usize,
}

impl CutPool {
    /// Creates an empty pool evicting cuts slack for `max_age` rounds.
    pub fn new(max_age: usize) -> Self {
        Self {
            entries: Vec::new(),
            seen: BTreeSet::new(),
            max_age: max_age.max(1),
            evicted: 0,
        }
    }

    /// Adds a cut unless an identical one is (still) pooled. Returns
    /// whether the cut was new.
    pub fn add(&mut self, cut: Cut) -> bool {
        let key = cut.key();
        if !self.seen.insert(key.clone()) {
            return false;
        }
        self.entries.push(PoolEntry { cut, key, age: 0 });
        true
    }

    /// Updates ages from the latest LP point (tight cuts rejuvenate, slack
    /// cuts age) and evicts everything at `max_age`. Returns the number
    /// evicted this round.
    pub fn note_activity_and_evict(&mut self, x: &[f64], tol: f64) -> usize {
        for e in &mut self.entries {
            if e.cut.violation(x).abs() <= tol {
                e.age = 0; // tight (active) at this optimum
            } else {
                e.age += 1;
            }
        }
        let before = self.entries.len();
        let max_age = self.max_age;
        let seen = &mut self.seen;
        self.entries.retain(|e| {
            let keep = e.age < max_age;
            if !keep {
                seen.remove(&e.key);
            }
            keep
        });
        let gone = before - self.entries.len();
        self.evicted += gone;
        gone
    }

    /// Cuts currently pooled.
    pub fn cuts(&self) -> impl Iterator<Item = &Cut> {
        self.entries.iter().map(|e| &e.cut)
    }

    /// Number of cuts currently pooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime eviction count.
    pub fn evicted(&self) -> usize {
        self.evicted
    }
}

/// Separates both families at `x` against `problem`'s original rows.
pub fn separate_cuts(problem: &Problem, x: &[f64], min_violation: f64) -> Vec<Cut> {
    let mut cuts = separate_cover_cuts(problem, x, min_violation);
    cuts.extend(separate_clique_cuts(problem, x, min_violation));
    cuts
}

/// Appends every pooled cut to a clone of `problem` (rows only — the
/// variable set, and hence every solution vector, is unchanged).
///
/// # Errors
///
/// Propagates [`LpError`](crate::LpError) from `add_constraint` (cannot
/// happen for the finite ±1 coefficients the separators emit).
pub fn apply_pool(problem: &Problem, pool: &CutPool) -> Result<Problem, crate::LpError> {
    let mut strengthened = problem.clone();
    for (i, cut) in pool.cuts().enumerate() {
        strengthened.add_constraint(
            format!("{}_{i}", cut.family),
            cut.coeffs.iter().copied(),
            Sense::Le,
            cut.rhs,
        )?;
    }
    Ok(strengthened)
}

/// Whether any binary of `problem` is fractional at `x`.
pub(crate) fn any_fractional(problem: &Problem, x: &[f64], int_tol: f64) -> bool {
    problem
        .var_ids()
        .any(|v| problem.var_kind(v) == VarKind::Binary && is_fractional(x[v.index()], int_tol))
}

/// Maximum root separation rounds; each round costs one LP resolve.
const MAX_ROUNDS: usize = 8;
/// Rounds a cut may stay slack at the LP optimum before eviction.
const MAX_AGE: usize = 3;
/// Minimum violation for a cut to enter the pool.
const MIN_VIOLATION: f64 = 1e-4;
/// Iteration cap on each shallow probe-dive LP.
const PROBE_ITER_CAP: usize = 2_000;

/// What the root cut loop produced.
pub(crate) struct CutLoopResult {
    /// The problem strengthened by the surviving pool (identical variable
    /// set; extra `≤` rows only).
    pub(crate) problem: Problem,
    /// Simplex iterations spent by the loop (root resolves + probe dives).
    pub(crate) lp_iterations: usize,
}

/// Multi-round root separation with shallow probe dives.
///
/// Each round solves the current strengthened LP, ages/evicts the pool at
/// the new optimum, separates fresh cuts from the **original** rows, and
/// rebuilds. After the rounds converge (or cap out), one probe dive fixes
/// the most fractional binary each way and separates from the child LP
/// points — emulating shallow-node separation while staying globally valid.
///
/// Best-effort by design: any LP failure ends the loop with whatever pool
/// exists; the `budget` is threaded into every LP so a wall-clock or pivot
/// limit cannot be blown inside separation.
pub(crate) fn root_cut_loop(
    problem: &Problem,
    lp_opts: &crate::options::LpOptions,
    int_tol: f64,
    budget: &std::sync::Arc<crate::faults::Budget>,
    scale: &mut crate::profile::ScaleProfile,
) -> Result<CutLoopResult, crate::LpError> {
    use crate::simplex::{solve_lp, LpOutcome};
    use crate::status::LpStatus;

    let mut opts = lp_opts.clone();
    opts.budget = Some(std::sync::Arc::clone(budget));
    let mut pool = CutPool::new(MAX_AGE);
    let mut current = problem.clone();
    let mut root_x: Option<Vec<f64>> = None;
    let mut iters = 0usize;

    for _ in 0..MAX_ROUNDS {
        let out = match solve_lp(&current, &opts).and_then(LpOutcome::finished) {
            Ok(o) => o,
            Err(_) => break, // budget/numerics: keep what we have
        };
        iters += out.iterations;
        if out.status != LpStatus::Optimal {
            root_x = None;
            break;
        }
        root_x = Some(out.x.clone());
        if !any_fractional(problem, &out.x, int_tol) {
            break; // integral root optimum: cutting is pointless
        }
        scale.cut_rounds += 1;
        let evicted = pool.note_activity_and_evict(&out.x, int_tol);
        scale.cuts_evicted += evicted;
        let mut added = 0usize;
        for cut in separate_cuts(problem, &out.x, MIN_VIOLATION) {
            scale.cuts_separated += 1;
            if pool.add(cut) {
                added += 1;
            }
        }
        if added == 0 && evicted == 0 {
            break; // converged: nothing new to add, nothing removed
        }
        current = apply_pool(problem, &pool)?;
    }

    // Shallow probe dives: both children of the most fractional binary.
    if let Some(x) = root_x.clone() {
        if any_fractional(problem, &x, int_tol) {
            let probe_var = problem
                .var_ids()
                .filter(|&v| {
                    problem.var_kind(v) == VarKind::Binary && is_fractional(x[v.index()], int_tol)
                })
                .map(|v| (v, (x[v.index()].clamp(0.0, 1.0).fract() - 0.5).abs()))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())))
                .map(|(v, _)| v);
            if let Some(v) = probe_var {
                let mut probe_opts = opts.clone();
                probe_opts.max_iterations = probe_opts.max_iterations.min(PROBE_ITER_CAP);
                let mut added = 0usize;
                for val in [0.0, 1.0] {
                    let mut child = current.clone();
                    if child.set_bounds(v, val, val).is_err() {
                        continue;
                    }
                    let Ok(out) = solve_lp(&child, &probe_opts).and_then(LpOutcome::finished)
                    else {
                        continue;
                    };
                    iters += out.iterations;
                    if out.status != LpStatus::Optimal {
                        continue;
                    }
                    // The child point is local, but the cuts come from the
                    // original rows — globally valid by construction.
                    for cut in separate_cuts(problem, &out.x, MIN_VIOLATION) {
                        scale.cuts_separated += 1;
                        if pool.add(cut) {
                            added += 1;
                        }
                    }
                }
                if added > 0 {
                    current = apply_pool(problem, &pool)?;
                    // Re-solve over the final pool; its pivots are charged
                    // to the root work like every other loop LP.
                    if let Ok(out) = solve_lp(&current, &opts).and_then(LpOutcome::finished) {
                        iters += out.iterations;
                    }
                }
            }
        }
    }

    scale.cuts_applied += pool.len();
    Ok(CutLoopResult {
        problem: current,
        lp_iterations: iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::LpOptions;
    use crate::simplex::solve_lp;
    use crate::status::LpStatus;

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Problem {
        let mut p = Problem::new("knap");
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| p.add_var(format!("x{i}"), VarKind::Binary, -v).unwrap())
            .collect();
        p.add_constraint(
            "cap",
            vars.iter()
                .zip(weights)
                .map(|(&v, &w)| (v, w))
                .collect::<Vec<_>>(),
            Sense::Le,
            cap,
        )
        .unwrap();
        p
    }

    /// Every 0-1 point feasible for `p` must satisfy every cut in `cuts`.
    fn assert_cuts_valid(p: &Problem, cuts: &[Cut]) {
        let n = p.num_vars();
        assert!(n <= 16);
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> = (0..n)
                .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                .collect();
            if p.first_violated(&x, 1e-9).is_some() {
                continue;
            }
            for cut in cuts {
                assert!(
                    cut.violation(&x) <= 1e-9,
                    "{} cut {cut:?} slices off feasible point {x:?}",
                    cut.family
                );
            }
        }
    }

    #[test]
    fn cover_cut_separates_fractional_knapsack_point() {
        // LP optimum of this knapsack is fractional; the cover cut family
        // must find a violated, globally valid inequality there.
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let out = solve_lp(&p, &LpOptions::default()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        let cuts = separate_cover_cuts(&p, &out.x, 1e-6);
        assert!(!cuts.is_empty(), "fractional point must yield a cover cut");
        for cut in &cuts {
            assert!(cut.violation(&out.x) > 1e-6);
        }
        assert_cuts_valid(&p, &cuts);
    }

    #[test]
    fn clique_cut_from_pairwise_conflicts() {
        // x0 + x1 ≤ 1, x0 + x2 ≤ 1, x1 + x2 ≤ 1 pairwise — the LP point
        // (0.5, 0.5, 0.5) satisfies each pair but violates the clique
        // x0 + x1 + x2 ≤ 1.
        let mut p = Problem::new("tri");
        let v: Vec<_> = (0..3)
            .map(|i| p.add_var(format!("x{i}"), VarKind::Binary, -1.0).unwrap())
            .collect();
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            p.add_constraint(
                format!("c{i}{j}"),
                [(v[i], 1.0), (v[j], 1.0)],
                Sense::Le,
                1.0,
            )
            .unwrap();
        }
        let x = vec![0.5, 0.5, 0.5];
        let cuts = separate_clique_cuts(&p, &x, 1e-6);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].coeffs.len(), 3);
        assert!((cuts[0].violation(&x) - 0.5).abs() < 1e-9);
        assert_cuts_valid(&p, &cuts);
    }

    #[test]
    fn cover_cuts_handle_negative_coefficients() {
        // 3x0 − 2x1 + 3x2 ≤ 2 complements x1; the complemented knapsack is
        // 3x0 + 2(1−x1) + 3x2 ≤ 4. Validity must survive de-complementing.
        let mut p = Problem::new("neg");
        let v: Vec<_> = (0..3)
            .map(|i| p.add_var(format!("x{i}"), VarKind::Binary, -1.0).unwrap())
            .collect();
        p.add_constraint(
            "r",
            [(v[0], 3.0), (v[1], -2.0), (v[2], 3.0)],
            Sense::Le,
            2.0,
        )
        .unwrap();
        let out = solve_lp(&p, &LpOptions::default()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        let cuts = separate_cover_cuts(&p, &out.x, 1e-6);
        assert_cuts_valid(&p, &cuts);
    }

    #[test]
    fn pool_dedups_ages_and_readmits() {
        let cut = Cut {
            coeffs: vec![(VarId(0), 1.0), (VarId(1), 1.0)],
            rhs: 1.0,
            family: "cover",
        };
        let mut pool = CutPool::new(2);
        assert!(pool.add(cut.clone()));
        assert!(!pool.add(cut.clone()), "identical cut must dedup");
        assert_eq!(pool.len(), 1);
        // Slack point ages the cut twice → evicted at max_age 2.
        let slack = vec![0.0, 0.0];
        assert_eq!(pool.note_activity_and_evict(&slack, 1e-6), 0);
        assert_eq!(pool.note_activity_and_evict(&slack, 1e-6), 1);
        assert!(pool.is_empty());
        assert_eq!(pool.evicted(), 1);
        // Eviction frees the dedup key: re-separation is allowed.
        assert!(pool.add(cut.clone()), "evicted cut must be re-admittable");
        // A tight point rejuvenates: the cut survives arbitrary rounds.
        let tight = vec![1.0, 0.0];
        for _ in 0..5 {
            assert_eq!(pool.note_activity_and_evict(&tight, 1e-6), 0);
        }
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn apply_pool_keeps_variables_and_adds_rows() {
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let out = solve_lp(&p, &LpOptions::default()).unwrap();
        let mut pool = CutPool::new(3);
        for cut in separate_cuts(&p, &out.x, 1e-6) {
            pool.add(cut);
        }
        assert!(!pool.is_empty());
        let strengthened = apply_pool(&p, &pool).unwrap();
        assert_eq!(strengthened.num_vars(), p.num_vars());
        assert_eq!(strengthened.num_rows(), p.num_rows() + pool.len());
        // The strengthened LP bound is no weaker (minimization: no lower).
        let cut_out = solve_lp(&strengthened, &LpOptions::default()).unwrap();
        assert_eq!(cut_out.status, LpStatus::Optimal);
        assert!(cut_out.objective >= out.objective - 1e-9);
    }
}
