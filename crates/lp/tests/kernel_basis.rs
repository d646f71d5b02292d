//! Basis-kernel integration tests: the Forrest–Tomlin representations and
//! refactorization schedules must agree with the legacy eta file through
//! the public API, and the per-phase profile timers must account for the
//! solve wall clock.

use proptest::prelude::*;
use tempart_lp::{
    solve_lp, BasisUpdate, BranchAndBound, LpOptions, LpStatus, MipOptions, MipStatus, Pricing,
    Problem, RefactorSchedule, Sense, SimplexProfile, VarKind,
};

/// Exhaustive 0-1 reference optimum.
fn brute_force(p: &Problem) -> Option<f64> {
    let n = p.num_vars();
    let mut best: Option<f64> = None;
    for mask in 0..(1u32 << n) {
        let x: Vec<f64> = (0..n)
            .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
            .collect();
        if p.first_violated(&x, 1e-9).is_none() {
            let obj = p.objective_value(&x);
            if best.is_none_or(|b| obj < b) {
                best = Some(obj);
            }
        }
    }
    best
}

#[derive(Debug, Clone)]
struct RandomMip {
    n: usize,
    obj: Vec<i32>,
    rows: Vec<(Vec<i32>, u8, i32)>,
}

fn random_mip() -> impl Strategy<Value = RandomMip> {
    (2usize..=7).prop_flat_map(|n| {
        let obj = prop::collection::vec(-5i32..=5, n);
        let row = (prop::collection::vec(-3i32..=3, n), 0u8..=2, -4i32..=6);
        let rows = prop::collection::vec(row, 1..=4);
        (Just(n), obj, rows).prop_map(|(n, obj, rows)| RandomMip { n, obj, rows })
    })
}

fn build(mip: &RandomMip) -> Problem {
    let mut p = Problem::new("prop");
    let vars: Vec<_> = (0..mip.n)
        .map(|i| {
            p.add_var(format!("x{i}"), VarKind::Binary, f64::from(mip.obj[i]))
                .expect("finite objective")
        })
        .collect();
    for (ri, (coeffs, sense, rhs)) in mip.rows.iter().enumerate() {
        let sense = match sense % 3 {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        p.add_constraint(
            format!("r{ri}"),
            vars.iter()
                .zip(coeffs)
                .map(|(&v, &c)| (v, f64::from(c)))
                .collect::<Vec<_>>(),
            sense,
            f64::from(*rhs),
        )
        .expect("valid constraint");
    }
    p
}

/// The basis representation × schedule combinations that must all agree
/// with the legacy default. `refactor_every = 2` forces frequent
/// refactorizations (and FT update chains spanning them) even on tiny
/// instances.
const COMBOS: [(BasisUpdate, RefactorSchedule); 2] = [
    (BasisUpdate::FtMarkowitz, RefactorSchedule::Fixed),
    (BasisUpdate::FtMarkowitz, RefactorSchedule::Dynamic),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every basis representation and refactorization schedule proves the
    /// same LP relaxation as the legacy eta file, under both pricing
    /// engines.
    #[test]
    fn basis_kernels_agree_on_lp_objective(mip in random_mip()) {
        let p = build(&mip);
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            let base_opts = LpOptions { pricing, ..LpOptions::default() };
            let base = solve_lp(&p, &base_opts).expect("eta lp");
            for (basis_update, refactor) in COMBOS {
                let opts = LpOptions {
                    pricing,
                    basis_update,
                    refactor,
                    refactor_every: 2,
                    ..LpOptions::default()
                };
                let out = solve_lp(&p, &opts).expect("ft lp");
                prop_assert_eq!(out.status, base.status,
                    "{} / {} / {}", pricing, basis_update, refactor);
                if base.status == LpStatus::Optimal {
                    prop_assert!((out.objective - base.objective).abs() < 1e-6,
                        "{} / {} / {}: got {} want {}",
                        pricing, basis_update, refactor, out.objective, base.objective);
                    prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
                }
            }
        }
    }

    /// Full branch-and-bound (cold primal + warm dual restarts) proves the
    /// brute-force 0-1 optimum under every basis kernel.
    #[test]
    fn basis_kernels_agree_on_mip_objective(mip in random_mip()) {
        let p = build(&mip);
        let reference = brute_force(&p);
        for (basis_update, refactor) in COMBOS {
            let mut opts = MipOptions::default();
            opts.lp.basis_update = basis_update;
            opts.lp.refactor = refactor;
            opts.lp.refactor_every = 2;
            let out = BranchAndBound::new(&p)
                .options(opts)
                .solve()
                .expect("solver must not error");
            match reference {
                Some(bobj) => {
                    prop_assert_eq!(out.status, MipStatus::Optimal,
                        "{} / {}", basis_update, refactor);
                    prop_assert!((out.objective - bobj).abs() < 1e-5,
                        "{} / {}: got {} want {}", basis_update, refactor, out.objective, bobj);
                    prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
                }
                None => prop_assert_eq!(out.status, MipStatus::Infeasible,
                    "{} / {}", basis_update, refactor),
            }
        }
    }
}

/// A deterministic dense-ish LP big enough for the section timers to
/// accumulate measurable time: a capacitated assignment-like model with
/// `rows × cols` arcs.
fn timing_problem(rows: usize, cols: usize) -> Problem {
    let mut p = Problem::new("timing");
    let mut arcs = Vec::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        // SplitMix64 step: deterministic, dependency-free coefficients.
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) % 1000
    };
    for i in 0..rows {
        for j in 0..cols {
            let cost = 1.0 + (next() as f64) / 100.0;
            let v = p
                .add_var(format!("a{i}_{j}"), VarKind::Continuous, cost)
                .expect("var");
            p.set_bounds(v, 0.0, 4.0).expect("bounds");
            arcs.push((i, j, v));
        }
    }
    for i in 0..rows {
        let terms: Vec<_> = arcs
            .iter()
            .filter(|&&(r, _, _)| r == i)
            .map(|&(_, _, v)| (v, 1.0))
            .collect();
        p.add_constraint(format!("supply{i}"), terms, Sense::Eq, cols as f64)
            .expect("row");
    }
    for j in 0..cols {
        let terms: Vec<_> = arcs
            .iter()
            .filter(|&&(_, c, _)| c == j)
            .map(|&(_, _, v)| (v, 1.0))
            .collect();
        p.add_constraint(format!("demand{j}"), terms, Sense::Eq, rows as f64)
            .expect("row");
    }
    p
}

/// Satellite check: with profiling on, the per-phase section timers sum to
/// within 5% of the measured LP wall clock — no untimed hot path remains.
#[test]
fn profile_sections_account_for_lp_time() {
    let p = timing_problem(24, 24);
    for (basis_update, refactor) in [
        (BasisUpdate::Eta, RefactorSchedule::Fixed),
        (BasisUpdate::FtMarkowitz, RefactorSchedule::Dynamic),
    ] {
        let opts = LpOptions {
            profile: true,
            basis_update,
            refactor,
            ..LpOptions::default()
        };
        let mut total = SimplexProfile::default();
        // Accumulate enough wall clock that timer granularity is noise.
        while total.lp_secs < 0.25 {
            let out = solve_lp(&p, &opts).expect("lp solve");
            assert_eq!(out.status, LpStatus::Optimal);
            total.absorb(&out.profile);
        }
        let coverage = total.timed_secs() / total.lp_secs;
        assert!(
            (0.95..=1.01).contains(&coverage),
            "{basis_update}/{refactor}: section timers cover {:.1}% of lp time \
             (pricing {:.1} ftran {:.1} btran {:.1} ratio {:.1} refactor {:.1} \
             update {:.1} other {:.1} vs lp {:.1} ms)",
            coverage * 100.0,
            total.pricing_secs * 1e3,
            total.ftran_secs * 1e3,
            total.btran_secs * 1e3,
            total.ratio_secs * 1e3,
            total.refactor_secs * 1e3,
            total.update_secs * 1e3,
            total.other_secs * 1e3,
            total.lp_secs * 1e3,
        );
    }
}
