//! Regenerates the paper's tables and the extension studies.
//!
//! ```text
//! cargo run --release -p tempart-bench --bin tables -- <experiment> [--limit SECS] [--threads T]
//! ```
//!
//! Experiments: `table1`, `table2`, `table3`, `table4`, `ablation`,
//! `simulate`, `parallel`, `kernel`, `resilience`,
//! `scale`, `service`, `all` (plus `scale-smoke` and `kernel-smoke`, the
//! budgeted CI variants of `scale` and `kernel`). The `service` experiment drives the solve server's
//! load-generator sweep (`service-bench` in the server crate) and writes
//! `BENCH_service.json`. The `race` experiment (requires `--features
//! race`) explores the lock-free-core models under full DPOR and writes
//! `BENCH_race.json`; it is not part of `all`.
//! The default
//! per-row time limit is 600 s (the paper cut Table 1 off at 7200 s on a
//! 175 MHz UltraSparc; modern hardware needs far less to show the same
//! contrast). The `resilience` experiment sweeps deterministic work
//! budgets over the graph-1 workhorse and records the anytime
//! gap-vs-deadline curve to `BENCH_resilience.json`.
//!
//! `--threads T` runs every table row on `T` branch-and-bound workers
//! (`0` = one per CPU; default `1`, the faithful serial solver). The
//! `parallel` experiment ignores it and sweeps its own thread counts over
//! the work-stealing scheduler, writing the measurements — per-node
//! wall-clock, per-worker busy time, and the contention counters — plus a
//! pinned acceptance bar to `BENCH_parallel.json`. The `kernel` experiment
//! measures the Forrest–Tomlin/Markowitz basis kernel on an equivalence
//! tier, the flagship row, and the `--scale` replicated instances (LP
//! µs/pivot against instance size), and writes `BENCH_kernel.json`.

//!
//! Every `BENCH_*.json` file is a JSON array with one compact object per
//! line. A row names its instance and configuration, then prints the
//! solver stats through the shared schema (`tempart_lp::stats`), so a
//! name such as `nodes` or `ftran_ms` means the same quantity in every
//! file, in `tempart --json` and in the server's `Result` frame. An
//! acceptance bar is a row `{"acceptance":name,…,"pass":bool}`.
//!
//! The exit code is non-zero when an experiment name is unknown, an
//! acceptance bar fails, a `BENCH_*.json` file cannot be written, the
//! `service-bench` child fails, or `race` runs without its feature.

use std::process::ExitCode;

use tempart_bench::report::{format_table, Artifact};
use tempart_bench::{
    build_model, date98_device, date98_instance, host_cpus, run_row, ExperimentRow, RowConfig,
};
use tempart_core::{CutSet, IlpModel, Linearization, ModelConfig, RuleKind, SolveOptions};
use tempart_lp::stats::ms;
use tempart_lp::{solve_lp, Branching, JsonObject, LpOptions, LpStatus, MipOptions};
use tempart_sim::{execute, naive_partitioning};

/// The experiments `all` runs, in order (`race` needs its feature and is
/// not part of it).
const ALL: &str =
    "table1 table2 table3 table4 ablation simulate parallel kernel resilience scale service";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut limit = 600.0f64;
    let mut threads = 1usize;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--limit" {
            limit = it
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--limit takes seconds");
        } else if a == "--threads" {
            threads = it
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--threads takes a worker count (0 = all CPUs)");
        } else {
            experiments.push(a);
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    let failed = experiments
        .iter()
        .filter(|e| {
            run(e, limit, threads)
                .map_err(|why| eprintln!("error: {why}"))
                .is_err()
        })
        .count();
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(experiment: &str, limit: f64, threads: usize) -> Result<(), String> {
    match experiment {
        "table1" => table1(limit, threads),
        "table2" => table2(limit, threads),
        "table3" => table3(limit, threads),
        "table4" => table4(limit, threads),
        "ablation" => ablation(limit, threads),
        "simulate" => simulate(threads),
        "parallel" => return parallel(limit),
        "kernel" => return kernel(limit, false),
        "kernel-smoke" => return kernel(limit, true),
        "resilience" => return resilience(limit),
        "scale" => return scale(limit, false),
        "scale-smoke" => return scale(limit, true),
        "service" => return service(limit),
        "race" => return race(),
        "all" => {
            let errors: Vec<String> = ALL
                .split_whitespace()
                .filter_map(|e| run(e, limit, threads).err())
                .collect();
            return if errors.is_empty() {
                Ok(())
            } else {
                Err(errors.join("; "))
            };
        }
        other => {
            return Err(format!(
                "unknown experiment `{other}` (try {}, kernel-smoke, scale-smoke, race, all)",
                ALL.replace(' ', ", ")
            ))
        }
    }
    Ok(())
}

/// Rounds to three decimals (µs on a ms value, ns on a µs value).
fn r3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// The fastest of `reps` runs of `cfg` (wall-clock noise on sub-second
/// solves is real); failed runs are reported and skipped.
fn best_of(reps: usize, cfg: &RowConfig, label: &str) -> Option<ExperimentRow> {
    (0..reps)
        .filter_map(|_| {
            run_row(cfg)
                .map_err(|e| eprintln!("{label} x{} failed: {e}", cfg.threads))
                .ok()
        })
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
}

/// A graph-1 (`2+2+1`) row of the tightened model.
fn g1(n: u32, l: u32, rule: RuleKind, limit: f64) -> RowConfig {
    RowConfig::paper(1, (2, 2, 1), ModelConfig::tightened(n, l), rule, limit)
}

/// `(graph, A+M+S, N, L)` of one paper-table row.
type Case = (usize, (u32, u32, u32), u32, u32);

/// The four preliminary rows of the paper's Tables 1 and 2.
const PRELIMINARY: [Case; 4] = [
    (1, (2, 2, 1), 3, 1),
    (1, (2, 2, 1), 2, 2),
    (1, (2, 2, 1), 2, 3),
    (3, (2, 2, 2), 3, 1),
];

/// Solves `cases` under one model variant and rule, then prints the
/// paper-style and Markdown tables.
fn run_and_print(
    title: &str,
    cases: &[Case],
    config: impl Fn(u32, u32) -> ModelConfig,
    rule: RuleKind,
    seed_incumbent: bool,
    limit: f64,
    threads: usize,
) {
    let mut results = Vec::new();
    for &(g, ams, n, l) in cases {
        let cfg = RowConfig {
            seed_incumbent,
            threads,
            ..RowConfig::paper(g, ams, config(n, l), rule, limit)
        };
        match run_row(&cfg) {
            Ok(r) => results.push(r),
            Err(e) => eprintln!("row failed: {e}"),
        }
    }
    println!("{}", format_table(title, &results, limit));
}

/// The four preliminary rows, solved with the *basic* model — Fortet
/// product linearization, per-product `w` (4)–(5), no cuts — and the
/// unguided lowest-index rule: the paper's Table 1 setup, where three of
/// four rows blew the 7200 s budget before the §4/§6 improvements.
fn table1(limit: f64, threads: usize) {
    run_and_print(
        "Table 1: basic formulation, unguided branching",
        &PRELIMINARY,
        |n, l| ModelConfig::basic(n, l).with_linearization(Linearization::Fortet),
        RuleKind::FirstIndex,
        false,
        limit,
        threads,
    );
}

/// Same rows with the tightened constraints (Glover + cuts (28)-(30),(32) +
/// aggregated (31)), still unguided — the paper's Table 2.
fn table2(limit: f64, threads: usize) {
    run_and_print(
        "Table 2: tightened constraints, unguided branching",
        &PRELIMINARY,
        ModelConfig::tightened,
        RuleKind::FirstIndex,
        false,
        limit,
        threads,
    );
}

/// Latency/partition trade-off on graph 1 (paper Table 3): tightened model
/// with the §8 guided rule.
fn table3(limit: f64, threads: usize) {
    run_and_print(
        "Table 3: latency/partition trade-off on graph 1 (guided)",
        &[
            (1, (2, 2, 1), 3, 0),
            (1, (2, 2, 1), 3, 1),
            (1, (2, 2, 1), 2, 2),
            (1, (2, 2, 1), 2, 3),
        ],
        ModelConfig::tightened,
        RuleKind::Paper,
        false,
        limit,
        threads,
    );
}

/// All six graphs with the published (N, A+M+S, L) parameters (paper
/// Table 4): tightened model + guided rule.
fn table4(limit: f64, threads: usize) {
    // The paper's graphs and device are unpublished; these rows keep the
    // published N and A+M+S and re-fit L per substitute graph (smallest L at
    // which the instance is decidable — EXPERIMENTS.md "Deviations"). The
    // graph-4 N=3 row sits exactly on the feasibility boundary: the most
    // expensive, most interesting solve of the set.
    run_and_print(
        "Table 4: temporal partitioning results (guided)",
        &[
            (1, (2, 2, 1), 3, 1),
            (2, (3, 2, 2), 4, 5),
            (3, (2, 2, 2), 3, 5),
            (4, (2, 2, 2), 2, 6),
            (4, (2, 2, 2), 3, 5),
            (5, (2, 2, 2), 3, 6),
            (5, (2, 2, 2), 2, 6),
            (6, (2, 2, 2), 2, 13),
            (6, (2, 2, 2), 3, 13),
        ],
        ModelConfig::tightened,
        RuleKind::Paper,
        true,
        limit,
        threads,
    );
}

/// Ablation of the paper's design choices on the Table 3 workhorse
/// (graph 1, N=3, L=1): linearization method, cut families, branching rule.
fn ablation(limit: f64, threads: usize) {
    println!("Ablation: graph 1, N=3, L=1 (time limit {limit:.0} s per cell)");
    println!(
        "{:<34} {:>9} {:>9} {:>8} {:>8}",
        "variant", "time(s)", "feasible", "cost", "nodes"
    );
    let base = ModelConfig::tightened(3, 1);
    let without = |drop: fn(&mut CutSet)| {
        let mut cuts = CutSet::ALL;
        drop(&mut cuts);
        base.clone().with_cuts(cuts)
    };
    let fortet = base.clone().with_linearization(Linearization::Fortet);
    let (paper, seeded) = (RuleKind::Paper, true);
    let variants: [(&str, ModelConfig, RuleKind, bool); 10] = [
        ("tightened + paper rule", base.clone(), paper, false),
        ("tightened + paper + incumbent", base.clone(), paper, seeded),
        (
            "tightened + first-index",
            base.clone(),
            RuleKind::FirstIndex,
            false,
        ),
        (
            "tightened + most-fractional",
            base.clone(),
            RuleKind::MostFractional,
            false,
        ),
        ("fortet products + paper rule", fortet, paper, false),
        (
            "basic (no cuts) + paper rule",
            ModelConfig::basic(3, 1),
            paper,
            false,
        ),
        (
            "no producer cut (28)",
            without(|c| c.producer_after = false),
            paper,
            false,
        ),
        (
            "no consumer cut (29)",
            without(|c| c.consumer_before = false),
            paper,
            false,
        ),
        (
            "no same-partition cut (30)",
            without(|c| c.same_partition = false),
            paper,
            false,
        ),
        (
            "no usage-link cut (32)",
            without(|c| c.usage_link = false),
            paper,
            false,
        ),
    ];
    for (name, config, rule, seed_incumbent) in variants {
        let cfg = RowConfig {
            seed_incumbent,
            threads,
            ..RowConfig::paper(1, (2, 2, 1), config, rule, limit)
        };
        match run_row(&cfg) {
            Ok(r) => println!(
                "{:<34} {:>9} {:>9} {:>8} {:>8}",
                name,
                r.runtime_display(limit),
                r.feasible_display(),
                r.cost.map_or("-".to_string(), |c| c.to_string()),
                r.stats.nodes
            ),
            Err(e) => println!("{name:<34} ERROR {e}"),
        }
    }
    println!();
}
/// End-to-end execution study: ILP-optimal vs bandwidth-oblivious naive
/// partitioning, total cycles including reconfiguration and staging.
fn simulate(threads: usize) {
    println!("Simulation: ILP vs naive partitioning (total execution cycles)");
    // Per-graph (N, L) settings at which the instance is decidable (see
    // EXPERIMENTS.md "Deviations").
    for (g, ams, n, l, budget) in [
        (1usize, (2u32, 2u32, 1u32), 3u32, 1u32, 120.0f64),
        (2, (3, 2, 2), 4, 5, 120.0),
        (3, (2, 2, 2), 3, 5, 120.0),
        (4, (2, 2, 2), 3, 5, 300.0),
    ] {
        let device = date98_device();
        let Ok(inst) = date98_instance(g, ams.0, ams.1, ams.2, device) else {
            continue;
        };
        let config = ModelConfig::tightened(n, l);
        let Ok(model) = IlpModel::build(inst.clone(), config.clone()) else {
            continue;
        };
        let mip = MipOptions {
            time_limit_secs: budget,
            threads,
            ..MipOptions::default()
        };
        let Ok(out) = model.solve(&SolveOptions {
            mip,
            rule: RuleKind::Paper,
            seed_incumbent: true,
        }) else {
            continue;
        };
        let Some(ilp) = out.solution else {
            println!("graph {g}, n {n}, l {l}: no solution within {budget:.0} s");
            continue;
        };
        let ri = execute(&inst, &ilp).total_cycles();
        let naive = naive_partitioning(&inst, &config)
            .map(|nv| (nv.communication_cost(), execute(&inst, &nv).total_cycles()));
        let saved = naive.map_or(f64::NAN, |(_, rn)| {
            r3(100.0 * (1.0 - ri as f64 / rn.max(1) as f64))
        });
        // A `null` naive cost: the bandwidth-oblivious packer cannot even
        // fit the horizon.
        let mut o = JsonObject::new();
        o.uint("graph", g as u64)
            .uint("n", n.into())
            .uint("l", l.into())
            .uint("ilp_cost", ilp.communication_cost())
            .opt_uint("naive_cost", naive.map(|(c, _)| c))
            .uint("ilp_cycles", ri)
            .opt_uint("naive_cycles", naive.map(|(_, rn)| rn))
            .num("saved_pct", saved);
        println!(
            "{}",
            o.text("graph n l ilp_cost naive_cost ilp_cycles naive_cycles saved_pct")
        );
    }
    println!();
}

/// Parallel-search speedup study: the heaviest decidable serial rows,
/// re-solved at 1, 2, and 4 branch-and-bound workers on the work-stealing
/// scheduler. Each cell is the best of three runs (wall-clock noise on
/// sub-second solves is real); the serial baseline is the exact
/// deterministic solver the tables use.
///
/// The headline per-node metric is `node_wall_us` — wall-clock per node,
/// which is flat in thread count at fixed per-node cost and *drops* with
/// effective parallelism (LP time summed across workers, `lp_ms`, grows
/// with thread count even when nothing regressed: it is total CPU work).
/// Contention
/// counters and per-worker busy time go into `BENCH_parallel.json`
/// alongside the timings, and the host CPU count is recorded because it
/// caps the measured speedup: on a host with fewer than 4 CPUs the
/// acceptance bar is per-node wall overhead within 10% of serial, on a
/// ≥4-core host it is ≥2× wall-clock speedup at 4 threads on g1-N3-L1.
fn parallel(limit: f64) -> Result<(), String> {
    const THREADS: [usize; 3] = [1, 2, 4];
    const REPS: usize = 3;
    // (label, rule). The guided rows are the unseeded Table 3 workhorses;
    // the unguided row is the Table 2 flagship — ~8.9k cheap nodes, the
    // tree shape where node-level parallelism pays most.
    let cases: [(&str, u32, u32, RuleKind); 3] = [
        ("g1-N3-L1", 3, 1, RuleKind::Paper),
        ("g1-N2-L2", 2, 2, RuleKind::Paper),
        ("g1-N3-L1-unguided", 3, 1, RuleKind::FirstIndex),
    ];
    let host_cpus = host_cpus();
    println!(
        "Parallel branch and bound: wall-clock speedup over the serial solver \
         (host has {host_cpus} CPUs; speedup is capped by the host core count)"
    );
    let mut art = Artifact::default();
    // (threads, wall_ms, node_wall_us) of the flagship, for the bar.
    let mut flagship: Vec<(usize, f64, f64)> = Vec::new();
    for (label, n, l, rule) in cases {
        let mut serial_ms = None;
        for threads in THREADS {
            let cfg = RowConfig {
                threads,
                ..g1(n, l, rule, limit)
            };
            let Some(row) = best_of(REPS, &cfg, label) else {
                continue;
            };
            let wall_ms = row.seconds * 1e3;
            if threads == 1 {
                serial_ms = Some(wall_ms);
            }
            let speedup = serial_ms.map(|s| s / wall_ms);
            if label == "g1-N3-L1" {
                flagship.push((threads, wall_ms, row.node_wall_us()));
            }
            let busy_ms: Vec<f64> = row
                .stats
                .per_worker_busy_secs
                .iter()
                .map(|&s| ms(s))
                .collect();
            let mut o = JsonObject::new();
            o.str("instance", label).uint("threads", threads as u64);
            row.write_json(&mut o);
            o.num("node_wall_us", r3(row.node_wall_us()))
                .nums("worker_busy_ms", &busy_ms)
                .num("speedup", speedup.map_or(f64::NAN, r3));
            art.row(
                &o, "instance threads wall_ms nodes cost speedup node_wall_us steals cow_clones lock_waits",
            );
        }
    }
    // The bar on the flagship guided row: ≥2× speedup at 4 threads on a
    // ≥4-core host; on smaller hosts parallelism cannot pay, so the bar is
    // scheduler overhead — wall clock per node at 4 threads within 10% of
    // serial.
    let at = |t: usize| flagship.iter().find(|&&(th, _, _)| th == t);
    match (at(1), at(4)) {
        (Some(&(_, s_ms, s_nwu)), Some(&(_, p_ms, p_nwu))) => {
            let (criterion, value, pass) = if host_cpus >= 4 {
                ("speedup_at_4_threads_ge_2", s_ms / p_ms, s_ms / p_ms >= 2.0)
            } else {
                (
                    "node_wall_overhead_at_4_threads_le_1.10",
                    p_nwu / s_nwu,
                    p_nwu / s_nwu <= 1.10,
                )
            };
            art.bar(
                criterion,
                pass,
                JsonObject::new()
                    .str("instance", "g1-N3-L1")
                    .uint("host_cpus", host_cpus as u64)
                    .num("value", r3(value)),
            );
        }
        _ => art.bar("missing-flagship-rows", false, &JsonObject::new()),
    }
    let written = art.write("BENCH_parallel.json");
    println!();
    written
}

/// LP scaling study (DESIGN.md §5h): the Forrest–Tomlin basis kernel over
/// Markowitz refactorizations, on three tiers:
///
/// 1. *Equivalence*: every decidable Table 4 row (all six paper graphs),
///    solved guided and seeded. The bar is that each row proves its pinned
///    optimum — 13 on g1-N3-L1, 0 on the others.
/// 2. *Flagship*: the Table 2 unguided workhorse end-to-end, best of
///    two runs, with per-phase LP timers. The bar is the proven optimum
///    13.
/// 3. *Scaled*: externally timed, profiled root-LP solves at a fixed pivot
///    cap on the replicate-and-chain instances, including the ≥500-op
///    `g1x23` row: µs/pivot against instance size. A capped solve still
///    reports its simplex profile, so every row carries the same bucket
///    fields. The bar is that the `g1x4` root LP converges under the cap
///    to its optimum 0 (the doubled-chain MIPs themselves are undecidable
///    in any reasonable budget).
///
/// Every row stamps `host_cpus` and the instance size (`ops`, `rows`,
/// `cols`, `nnz`) so artifacts measured on different hosts stay
/// comparable. Results go to stdout and `BENCH_kernel.json`.
/// `kernel-smoke` is the budgeted CI variant: the g1 row only on the
/// equivalence tier, single reps, the smaller scaled row only, and a
/// separate gitignored artifact (`BENCH_kernel_smoke.json`) so local
/// `verify.sh` runs never clobber the committed full-budget one.
fn kernel(limit: f64, smoke: bool) -> Result<(), String> {
    let host_cpus = host_cpus();
    let mut art = Artifact::default();
    println!(
        "Kernel study: Forrest–Tomlin/Markowitz LP scaling{}",
        if smoke { " (smoke)" } else { "" }
    );
    let echo = "tier instance wall_ms nodes lp_iterations refactors cost";

    // Tier 1 — equivalence: the decidable Table 4 row of every paper graph
    // (graph 4's N3 L5 boundary row is undecidable in the budget; its N2 L6
    // row is the decidable stand-in), with its pinned optimum.
    type EqCase = (&'static str, usize, (u32, u32, u32), u32, u32, u64);
    const EQ_CASES: [EqCase; 6] = [
        ("g1-N3-L1", 1, (2, 2, 1), 3, 1, 13),
        ("g2-N4-L5", 2, (3, 2, 2), 4, 5, 0),
        ("g3-N3-L5", 3, (2, 2, 2), 3, 5, 0),
        ("g4-N2-L6", 4, (2, 2, 2), 2, 6, 0),
        ("g5-N3-L6", 5, (2, 2, 2), 3, 6, 0),
        ("g6-N2-L13", 6, (2, 2, 2), 2, 13, 0),
    ];
    let eq_cases: &[EqCase] = if smoke { &EQ_CASES[..1] } else { &EQ_CASES };
    let mut eq_pass = true;
    for &(label, g, ams, n, l, pinned) in eq_cases {
        let cfg = RowConfig {
            seed_incumbent: true,
            profile: true,
            ..RowConfig::paper(g, ams, ModelConfig::tightened(n, l), RuleKind::Paper, limit)
        };
        let row = match run_row(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("kernel equivalence {label} failed: {e}");
                eq_pass = false;
                continue;
            }
        };
        let proven = row
            .cost
            .filter(|_| !row.timed_out && row.feasible == Some(true));
        if proven != Some(pinned) {
            eq_pass = false;
            eprintln!("kernel equivalence {label}: proved {proven:?}, pinned {pinned}");
        }
        let mut o = JsonObject::new();
        o.str("tier", "equivalence")
            .str("instance", label)
            .bool("optimal", proven.is_some())
            .uint("pinned_cost", pinned);
        row.write_json(&mut o);
        art.row(&o, echo);
    }
    art.bar(
        "equivalence_rows_prove_pinned_optima",
        eq_pass,
        JsonObject::new().uint("instances", eq_cases.len() as u64),
    );

    // Tier 2 — flagship end-to-end (Table 2 unguided workhorse).
    let reps = if smoke { 1 } else { 2 };
    let cfg = RowConfig {
        profile: true,
        ..g1(3, 1, RuleKind::FirstIndex, limit)
    };
    let flagship = best_of(reps, &cfg, "kernel flagship");
    if let Some(row) = &flagship {
        let mut o = JsonObject::new();
        o.str("tier", "flagship")
            .str("instance", "g1-N3-L1-unguided");
        row.write_json(&mut o);
        art.row(&o, echo);
    }
    let flagship_cost = flagship
        .as_ref()
        .and_then(|r| r.cost.filter(|_| !r.timed_out));
    art.bar(
        "flagship_proves_cost_13",
        flagship_cost == Some(13),
        JsonObject::new()
            .str("instance", "g1-N3-L1-unguided")
            .opt_uint("cost", flagship_cost),
    );

    // Tier 3 — scaled root-LP tier: profiled solve_lp at a fixed pivot
    // cap, timed externally (hitting the cap is the expected termination
    // on g1x23).
    type ScaledCase = (&'static str, usize, u32, u32, usize);
    let scaled_cases: &[ScaledCase] = if smoke {
        &[("g1x4-N3-L6", 4, 3, 6, 1_500)]
    } else {
        &[
            ("g1x4-N3-L6", 4, 3, 6, 3_000),
            ("g1x23-N3-L2", 23, 3, 2, 3_000),
        ]
    };
    for &(label, k, n, l, cap) in scaled_cases {
        let cfg = RowConfig {
            scale: k,
            ..g1(n, l, RuleKind::Paper, limit)
        };
        let (model, _, ops, nnz) = match build_model(&cfg) {
            Ok(built) => built,
            Err(e) => {
                eprintln!("kernel scaled {label}: model failed: {e}");
                continue;
            }
        };
        let size = model.stats();
        let opts = LpOptions {
            max_iterations: cap,
            profile: true,
            ..LpOptions::default()
        };
        let mut best: Option<(f64, tempart_lp::LpOutcome)> = None;
        for _ in 0..reps {
            let started = std::time::Instant::now();
            match solve_lp(model.problem(), &opts) {
                Ok(out) => {
                    let wall = started.elapsed().as_secs_f64();
                    if best.as_ref().is_none_or(|b| wall < b.0) {
                        best = Some((wall, out));
                    }
                }
                Err(e) => eprintln!("kernel scaled {label} failed: {e}"),
            }
        }
        let objective = best
            .as_ref()
            .filter(|(_, out)| out.status == LpStatus::Optimal)
            .map(|(_, out)| out.objective);
        if let Some((wall, out)) = &best {
            let us_per_pivot = wall * 1e6 / out.iterations.max(1) as f64;
            let mut o = JsonObject::new();
            o.str("tier", "scaled")
                .str("instance", label)
                .uint("pivot_cap", cap as u64)
                .uint("pivots", out.iterations as u64)
                .num("wall_ms", ms(*wall))
                .num("us_per_pivot", r3(us_per_pivot))
                .num("objective", objective.unwrap_or(f64::NAN))
                .uint("host_cpus", host_cpus as u64)
                .uint("ops", ops as u64)
                .uint("rows", size.num_constraints as u64)
                .uint("cols", size.num_vars as u64)
                .uint("nnz", nnz as u64)
                .stats(out.profile.stats());
            art.row(
                &o,
                "tier instance pivots wall_ms us_per_pivot objective retries lp_ms",
            );
        }
        if label == "g1x4-N3-L6" {
            art.bar(
                "scaled_root_lp_converges_to_0",
                objective.is_some_and(|o| o.abs() <= 1e-6),
                JsonObject::new()
                    .str("instance", label)
                    .uint("pivot_cap", cap as u64)
                    .num("objective", objective.unwrap_or(f64::NAN)),
            );
        }
    }
    // The smoke run writes its own (gitignored) artifact so a local
    // `verify.sh` pass never clobbers the committed full-budget one.
    let written = art.write(if smoke {
        "BENCH_kernel_smoke.json"
    } else {
        "BENCH_kernel.json"
    });
    println!();
    written
}

/// Anytime-resilience study: the Table 3 workhorse (graph 1, N=3, L=1,
/// guided) solved under a sweep of deterministic simplex-pivot budgets —
/// the reproducible stand-in for a wall-clock deadline — seeded and
/// unseeded. Each point records the termination status, the solution
/// source (`exact` incumbent vs the Figure-2 `heuristic` degradation), the
/// cost, and the proven gap, tracing the gap-vs-deadline curve from "no
/// time at all" down to the proven optimum. The full serial solve takes
/// ~8.3k pivots, so the sweep brackets that. Results go to stdout and
/// `BENCH_resilience.json`.
fn resilience(limit: f64) -> Result<(), String> {
    const BUDGETS: [usize; 6] = [50, 500, 2_000, 5_000, 9_000, usize::MAX];
    println!("Resilience: anytime gap vs deterministic pivot budget (g1, N=3, L=1, guided)");
    let mut art = Artifact::default();
    for seed_incumbent in [false, true] {
        for budget in BUDGETS {
            let (model, ..) = build_model(&g1(3, 1, RuleKind::Paper, limit))
                .map_err(|e| format!("resilience: cannot build g1-N3-L1: {e}"))?;
            let mip = MipOptions {
                time_limit_secs: limit,
                max_lp_iterations: budget,
                threads: 1,
                ..MipOptions::default()
            };
            let started = std::time::Instant::now();
            let out = match model.solve(&SolveOptions {
                mip,
                rule: RuleKind::Paper,
                seed_incumbent,
            }) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("resilience: budget {budget} failed: {e}");
                    continue;
                }
            };
            let wall = started.elapsed().as_secs_f64();
            let budget = (budget != usize::MAX).then_some(budget as u64);
            let cost = out.solution.as_ref().map(|s| s.communication_cost());
            let mut o = JsonObject::new();
            o.str("instance", "g1-N3-L1")
                .opt_uint("lp_budget", budget)
                .bool("seeded", seed_incumbent)
                .str("status", out.status.as_str())
                .str("source", out.source.as_str())
                .opt_uint("cost", cost)
                .num("objective", out.objective)
                .num("gap", out.gap)
                .num("best_bound", out.best_bound)
                .num("wall_ms", ms(wall))
                .stats(out.stats.stats());
            art.row(
                &o,
                "lp_budget seeded status source cost gap nodes lp_iterations",
            );
        }
    }
    let written = art.write("BENCH_resilience.json");
    println!();
    written
}

/// Scale-layer study: the flagship unguided row (graph 1, N=3, L=1,
/// first-index rule, unseeded — the ~8.9k-node tree the scale layer
/// exists to shrink) re-solved under each scale feature alone and
/// under the full stack. Every variant must prove the same optimum
/// (cost 13); the headline acceptance bar is the full stack exploring at
/// most 70% of the baseline's nodes. `smoke` runs only the baseline and
/// the full stack (the budgeted CI variant). Results go to stdout and
/// `BENCH_scale.json`.
fn scale(limit: f64, smoke: bool) -> Result<(), String> {
    type Variant = (&'static str, bool, bool, Branching);
    let all: [Variant; 5] = [
        ("baseline", false, false, Branching::Rule),
        ("cuts", true, false, Branching::Rule),
        ("propagate", false, true, Branching::Rule),
        ("pseudocost", false, false, Branching::Pseudocost),
        ("full-stack", true, true, Branching::Pseudocost),
    ];
    println!(
        "Scale layer: g1-N3-L1 unguided under the scale stack{}",
        if smoke { " (smoke)" } else { "" }
    );
    let mut art = Artifact::default();
    let mut baseline: Option<(usize, Option<u64>)> = None;
    let mut full: Option<(usize, Option<u64>)> = None;
    for (name, cuts, propagate, branching) in all {
        if smoke && name != "baseline" && name != "full-stack" {
            continue;
        }
        let cfg = RowConfig {
            cuts,
            propagate,
            branching,
            ..g1(3, 1, RuleKind::FirstIndex, limit)
        };
        let row = match run_row(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scale {name} failed: {e}");
                continue;
            }
        };
        if name == "baseline" {
            baseline = Some((row.stats.nodes, row.cost));
        }
        if name == "full-stack" {
            full = Some((row.stats.nodes, row.cost));
        }
        let vs_base = baseline
            .filter(|&(b, _)| b > 0)
            .map(|(b, _)| row.stats.nodes as f64 / b as f64);
        let mut o = JsonObject::new();
        o.str("variant", name)
            .str("instance", "g1-N3-L1-unguided")
            .bool("cuts", cuts)
            .bool("propagate", propagate)
            .str("branching", branching.as_str())
            .num("nodes_vs_baseline", vs_base.map_or(f64::NAN, r3));
        row.write_json(&mut o);
        art.row(
            &o, "variant wall_ms nodes lp_iterations cost cuts_applied propagation_fixings strong_branch_solves nodes_vs_baseline",
        );
    }
    // The bar: the full stack proves the same optimum (cost 13) in at most
    // 70% of the baseline's nodes.
    match (baseline, full) {
        (Some((base_nodes, base_cost)), Some((full_nodes, full_cost))) if base_nodes > 0 => {
            let ratio = full_nodes as f64 / base_nodes as f64;
            art.bar(
                "full_stack_nodes_le_0.70_of_baseline_at_cost_13",
                base_cost == Some(13) && full_cost == Some(13) && ratio <= 0.70,
                JsonObject::new()
                    .str("instance", "g1-N3-L1-unguided")
                    .uint("baseline_nodes", base_nodes as u64)
                    .uint("full_stack_nodes", full_nodes as u64)
                    .num("node_ratio", r3(ratio))
                    .opt_uint("baseline_cost", base_cost)
                    .opt_uint("full_stack_cost", full_cost),
            );
        }
        _ => art.bar("missing-scale-rows", false, &JsonObject::new()),
    }
    let written = art.write("BENCH_scale.json");
    println!();
    written
}

/// Service-layer study: delegates to the `service-bench` load generator in
/// the server crate, which sweeps concurrent clients over a live
/// `tempart-server` (mixed warm/deadline workload, shed probe) and writes
/// `BENCH_service.json` with pinned acceptance bars. It runs as a
/// subprocess because the audit tool's default feature already closes the
/// package chain audit → bench, so this crate can depend on neither cli
/// nor server.
fn service(limit: f64) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = std::process::Command::new(cargo)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "tempart-server",
            "--bin",
            "service-bench",
            "--",
            "--limit",
        ])
        .arg(limit.to_string())
        .status();
    println!();
    match status {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => Err(format!("service-bench failed: {s}")),
        Err(e) => Err(format!("cannot launch service-bench: {e}")),
    }
}

/// Model-checker exploration statistics: run every lp scenario under full
/// DPOR, print the per-primitive schedule/prune/depth numbers, and write
/// `BENCH_race.json`. The pinned acceptance bar — the reason this is a
/// bench experiment and not only a test — is that full DPOR on the
/// seqlock incumbent model *terminates* within the schedule budget with
/// zero truncated runs: the state space of the production primitive stays
/// finite and coverable as the code evolves.
#[cfg(feature = "race")]
fn race() -> Result<(), String> {
    use tempart_lp::race_models;
    use tempart_race::explore::{Config, Report};

    type Scenario = (&'static str, fn(Config) -> Report);
    let scenarios: [Scenario; 4] = [
        ("deque_no_lost_items", race_models::deque_no_lost_items),
        ("seqlock_keeps_minimum", race_models::seqlock_keeps_minimum),
        ("rendezvous_terminates", race_models::rendezvous_terminates),
        (
            "proof_incomplete_join_edge",
            race_models::proof_incomplete_join_edge,
        ),
    ];
    println!("race: full-DPOR exploration of the lock-free core models");
    let mut art = Artifact::default();
    let mut unclean = Vec::new();
    for (name, f) in scenarios {
        let start = std::time::Instant::now();
        let r = f(Config::full());
        let secs = start.elapsed().as_secs_f64();
        let clean = r.violation.is_none() && r.truncated == 0 && !r.exhausted;
        if let Some(v) = &r.violation {
            eprintln!("race: {name}: VIOLATION: {v}");
        }
        art.row(
            JsonObject::new()
                .str("model", name)
                .str("mode", "full-dpor")
                .uint("schedules", r.schedules as u64)
                .uint("pruned", r.pruned as u64)
                .uint("truncated", r.truncated as u64)
                .uint("transitions", r.transitions as u64)
                .uint("max_depth", r.max_depth as u64)
                .num("wall_ms", ms(secs))
                .bool("exhausted", r.exhausted)
                .bool("clean", clean),
            "model schedules pruned truncated max_depth exhausted clean",
        );
        if !clean {
            unclean.push(name);
        }
    }
    art.bar(
        "full_dpor_covers_every_model",
        unclean.is_empty(),
        JsonObject::new().uint("models", scenarios.len() as u64),
    );
    let written = art.write("BENCH_race.json");
    println!();
    written
}

#[cfg(not(feature = "race"))]
fn race() -> Result<(), String> {
    Err("the `race` experiment needs the model-checker build:\n  \
         cargo run --release -p tempart-bench --features race --bin tables -- race"
        .to_string())
}
