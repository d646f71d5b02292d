//! `tempart` — command-line temporal partitioning and synthesis.
//!
//! ```text
//! tempart solve <spec.json> [--partitions N] [--latency L] [--time-limit SECS]
//!               [--node-limit N] [--threads T]
//!               [--cuts] [--propagate] [--branching rule|pseudocost]
//!               [--scale K] [--faults PLAN] [--stats] [--certify] [--json]
//! tempart estimate <spec.json>
//! tempart simulate <spec.json> [--partitions N] [--latency L] [--threads T]
//! tempart dot <spec.json> [--scale K]
//! tempart export <spec.json> [--partitions N] [--latency L] [--format lp|mps]
//! tempart example
//! ```
//!
//! `--threads T` runs the branch-and-bound node search on `T` worker
//! threads (`0` = one per CPU) over a work-stealing scheduler. The default
//! `1` is the exact serial solver with deterministic node counts; any `T`
//! proves the same optimum. Multi-worker runs print per-worker node counts
//! and the scheduler's contention counters (steals, lock waits,
//! copy-on-write basis clones, incumbent-exchange retries).
//!
//! `--time-limit SECS` (alias `--limit`) and `--node-limit N` bound the
//! search with anytime semantics: on expiry the best feasible answer found
//! so far is reported together with its proven optimality gap, and when the
//! search has no incumbent yet the Figure-2 list-scheduling heuristic
//! solution is reported instead (`source: heuristic`). `--json` prints a
//! one-line machine-readable summary instead of the human-readable
//! report: `status`, `gap`, `source`, `objective`, then every solver stat
//! of the shared schema (`nodes` first; see `tempart_lp::stats`).
//!
//! `--faults PLAN` injects deterministic solver faults
//! (`site@occurrence[,...]`, sites `singular|itercap|panic|skew`) to
//! exercise the resilience layer; see `tempart-lp`'s fault-plan grammar.
//!
//! `--certify` re-verifies the solver's claim after the solve with
//! `tempart-audit`'s exact certificate checker: the incumbent's feasibility
//! and objective are recomputed in exact arithmetic, and the reported
//! status/bound pair is checked for consistency. A rejected certificate is
//! a hard error (nonzero exit), independent of the float simplex's own
//! account of the solve.
//!
//! `--stats` enables the solver profiling layer and prints the same
//! schema after the solve, one line per group (search, simplex,
//! contention, scale), with the per-phase simplex timers filled in.
//!
//! `--scale K` replicates the specification's task graph `K` times,
//! chaining each copy's sink tasks to the next copy's sources
//! (deterministic — no randomness), before solving. This grows a small
//! specification into a kernel-sized stress instance; see the `kernel`
//! bench experiment.
//!
//! The scale layer is opt-in and off by default (the defaults preserve the
//! pinned node counts bit for bit): `--cuts` runs root cover/clique cut
//! separation (cut-and-branch), `--propagate` turns on node bound
//! propagation, and `--branching pseudocost` switches variable selection to
//! pseudo-cost branching with strong-branching reliability initialization.
//! Every combination proves the same optimum; the scale counters (cuts,
//! fixings, pseudo-cost updates) are part of the `--stats`/`--json`
//! schema.
//!
//! * `solve` — run the full Figure-2 pipeline and print the optimal
//!   partitioning, schedule, and solver statistics.
//! * `estimate` — print the mobility analysis and the heuristic
//!   partition-count estimate without solving.
//! * `simulate` — solve, then replay the result on the device timing model.
//! * `dot` — emit a Graphviz rendering of the specification.
//! * `export` — build the ILP and dump it in CPLEX-LP or MPS format for an
//!   external solver.
//! * `example` — print a template specification to start from.

use std::process::ExitCode;

use tempart_cli::SpecFile;
use tempart_core::{
    IlpModel, ModelConfig, PartitionerOptions, RuleKind, SolutionSource, SolveOptions,
    TemporalPartitioner,
};
use tempart_graph::{scale_task_graph, task_graph_to_dot};
use tempart_hls::{estimate_partitions, render_gantt, Mobility};
use tempart_lp::stats::text;
use tempart_lp::{Branching, FaultPlan, JsonObject, MipOptions, MipStats, MipStatus};
use tempart_sim::execute;

/// Graceful Ctrl-C (`solve`/`simulate` only): the first SIGINT trips the
/// solve [`Budget`](tempart_lp::Budget)'s cooperative stop flag, so the
/// search stops at its next check and reports the best incumbent + valid
/// bound with a truthful `time-limit` status; a second SIGINT restores the
/// default disposition (terminate). The handler itself only stores a flag
/// (async-signal-safe); a monitor thread does the talking.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use tempart_lp::Budget;

    // hb: seqcst-store -> seqcst-load (INTERRUPTED) — set from an async
    // signal handler, polled by the watcher thread; the strongest ordering
    // is the conservative choice for the one flag a handler may touch.
    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        // libc is always linked; declaring `signal` directly avoids a
        // dependency the offline build could not fetch anyway.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    pub fn install(budget: Arc<Budget>) {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
        std::thread::spawn(move || loop {
            if INTERRUPTED.load(Ordering::SeqCst) {
                eprintln!(
                    "interrupted: stopping cooperatively — reporting the best \
                     incumbent and proven bound (Ctrl-C again to abort hard)"
                );
                budget.request_stop();
                unsafe {
                    signal(SIGINT, SIG_DFL);
                }
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }
}

struct Args {
    command: String,
    spec_path: Option<String>,
    partitions: Option<u32>,
    latency: Option<u32>,
    limit: f64,
    node_limit: usize,
    faults: Option<String>,
    json: bool,
    format: String,
    threads: usize,
    stats: bool,
    certify: bool,
    cuts: bool,
    propagate: bool,
    branching: Branching,
    scale: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        spec_path: None,
        partitions: None,
        latency: None,
        limit: 600.0,
        node_limit: usize::MAX,
        faults: None,
        json: false,
        format: "lp".to_string(),
        threads: 1,
        stats: false,
        certify: false,
        cuts: false,
        propagate: false,
        branching: Branching::default(),
        scale: 1,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--partitions" | "-n" => {
                args.partitions = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--partitions takes a number")?,
                )
            }
            "--latency" | "-l" => {
                args.latency = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--latency takes a number")?,
                )
            }
            "--limit" | "--time-limit" => {
                args.limit = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--time-limit takes seconds")?
            }
            "--node-limit" => {
                args.node_limit = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--node-limit takes a node count")?
            }
            "--faults" => {
                args.faults = Some(it.next().ok_or("--faults takes a fault plan")?);
            }
            "--json" => args.json = true,
            "--format" => {
                args.format = it.next().ok_or("--format takes lp or mps")?;
            }
            "--threads" | "-j" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads takes a worker count (0 = all CPUs)")?
            }
            "--stats" => args.stats = true,
            "--certify" => args.certify = true,
            "--cuts" => args.cuts = true,
            "--propagate" => args.propagate = true,
            "--branching" => {
                args.branching = it
                    .next()
                    .as_deref()
                    .and_then(Branching::parse)
                    .ok_or("--branching takes rule or pseudocost")?
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k >= 1)
                    .ok_or("--scale takes a replication factor >= 1")?
            }
            other if args.spec_path.is_none() && !other.starts_with('-') => {
                args.spec_path = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

/// One-line machine-readable solve summary (`--json`): the answer, then
/// every solver stat of the shared schema. Non-finite numbers become
/// `null` — JSON has no Infinity literal.
fn json_summary(
    status: MipStatus,
    gap: f64,
    source: SolutionSource,
    objective: f64,
    stats: &MipStats,
) -> String {
    JsonObject::new()
        .str("status", status.as_str())
        .num("gap", gap)
        .str("source", source.as_str())
        .num("objective", objective)
        .stats(stats.stats())
        .finish()
}

/// The `--stats` block: one line per schema group.
fn stats_block(stats: &MipStats) -> String {
    stats
        .stat_groups()
        .iter()
        .map(|(group, s)| format!("{group}: {}", text(s)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Re-verifies a solver claim with the exact certificate checker
/// (`--certify`). Returns the human-readable OK line; a rejected
/// certificate is an error.
fn certify_claim(
    problem: &tempart_lp::Problem,
    x: &[f64],
    objective: f64,
    best_bound: f64,
    status: MipStatus,
) -> Result<String, String> {
    let cert = tempart_audit::certify::Certificate {
        x: x.to_vec(),
        objective,
        best_bound,
        status,
        objective_is_integral: true,
    };
    let rep = tempart_audit::certify::certify(
        problem,
        &cert,
        &tempart_audit::certify::CertifyOptions::default(),
    )
    .map_err(|e| format!("certificate REJECTED: {e}"))?;
    Ok(format!(
        "certificate: OK — exact objective {}, {} vars, {} rows verified",
        rep.exact_objective, rep.vars_checked, rep.rows_checked
    ))
}

fn load(path: &Option<String>) -> Result<SpecFile, String> {
    let path = path.as_ref().ok_or("missing <spec.json> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    SpecFile::from_json(&text).map_err(|e| e.to_string())
}

/// Applies `--scale K`: replicate-and-chain the instance's task graph `K`
/// times (deterministic; `K = 1` is the identity).
fn apply_scale(
    inst: tempart_core::Instance,
    scale: usize,
) -> Result<tempart_core::Instance, String> {
    if scale <= 1 {
        return Ok(inst);
    }
    let graph = scale_task_graph(inst.graph(), scale).map_err(|e| e.to_string())?;
    tempart_core::Instance::new(graph, inst.fus().clone(), inst.device().clone())
        .map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "example" => {
            println!("{}", SpecFile::example().to_json());
            Ok(())
        }
        "dot" => {
            let spec = load(&args.spec_path)?;
            let inst = apply_scale(
                spec.build_instance().map_err(|e| e.to_string())?,
                args.scale,
            )?;
            println!("{}", task_graph_to_dot(inst.graph()));
            Ok(())
        }
        "export" => {
            let spec = load(&args.spec_path)?;
            let inst = spec.build_instance().map_err(|e| e.to_string())?;
            let config =
                ModelConfig::tightened(args.partitions.unwrap_or(2), args.latency.unwrap_or(0));
            let model = IlpModel::build(inst, config).map_err(|e| e.to_string())?;
            match args.format.as_str() {
                "lp" => println!("{}", tempart_lp::write_lp_format(model.problem())),
                "mps" => println!("{}", tempart_lp::write_mps(model.problem())),
                other => return Err(format!("unknown format `{other}` (lp or mps)")),
            }
            Ok(())
        }
        "estimate" => {
            let spec = load(&args.spec_path)?;
            let inst = spec.build_instance().map_err(|e| e.to_string())?;
            let mob = Mobility::compute(inst.graph());
            println!("specification: {}", inst.graph());
            let stats = inst.graph().stats();
            let kinds: Vec<String> = stats
                .kind_histogram
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|&(k, n)| format!("{n} {k}"))
                .collect();
            println!(
                "shape: task depth {}, largest task {} ops, kinds: {}",
                stats.task_depth,
                stats.max_task_ops,
                kinds.join(", ")
            );
            println!("critical path: {} control steps", mob.critical_path_len());
            let est = estimate_partitions(inst.graph(), inst.fus().library(), inst.device())
                .map_err(|e| e.to_string())?;
            println!(
                "estimated partitions (upper bound N): {}",
                est.num_partitions
            );
            for (p, seg) in est.segments.iter().enumerate() {
                let names: Vec<&str> = seg.iter().map(|&t| inst.graph().task(t).name()).collect();
                println!("  segment {}: {}", p + 1, names.join(", "));
            }
            Ok(())
        }
        "solve" | "simulate" => {
            let spec = load(&args.spec_path)?;
            let inst = apply_scale(
                spec.build_instance().map_err(|e| e.to_string())?,
                args.scale,
            )?;
            let mut mip = MipOptions {
                time_limit_secs: args.limit,
                max_nodes: args.node_limit,
                threads: args.threads,
                cuts: args.cuts,
                propagate: args.propagate,
                branching: args.branching,
                ..MipOptions::default()
            };
            mip.lp.profile = args.stats;
            if let Some(plan) = &args.faults {
                mip.lp.faults = Some(std::sync::Arc::new(FaultPlan::parse(plan)?));
            }
            // Pre-build the whole-command budget and attach it so every
            // search layer (serial, work-stealing) shares its cooperative
            // stop flag; Ctrl-C trips it for a graceful
            // anytime exit. On an automatic latency sweep the budget — and
            // hence `--time-limit` — now covers the whole sweep rather
            // than each attempt separately.
            let budget = std::sync::Arc::new(tempart_lp::Budget::new(
                args.limit,
                args.node_limit,
                usize::MAX,
            ));
            mip.lp.budget = Some(std::sync::Arc::clone(&budget));
            #[cfg(unix)]
            sigint::install(budget);
            #[cfg(not(unix))]
            drop(budget);
            let solve = SolveOptions {
                mip,
                rule: RuleKind::Paper,
                seed_incumbent: true,
            };
            // Side notes go to stderr under `--json`, keeping stdout pure
            // JSON.
            let note = |line: &str| {
                if args.json {
                    eprintln!("{line}");
                } else {
                    println!("{line}");
                }
            };
            let (solution, config) = match (args.partitions, args.latency) {
                (Some(n), l) => {
                    let config = ModelConfig::tightened(n, l.unwrap_or(0));
                    let model =
                        IlpModel::build(inst.clone(), config.clone()).map_err(|e| e.to_string())?;
                    if !args.json {
                        println!("model: {}", model.stats());
                    }
                    let out = model.solve(&solve).map_err(|e| e.to_string())?;
                    if args.certify {
                        note(&certify_claim(
                            model.problem(),
                            &out.raw_x,
                            out.objective,
                            out.best_bound,
                            out.status,
                        )?);
                    }
                    if args.json {
                        let summary = json_summary(
                            out.status,
                            out.gap,
                            out.source,
                            out.objective,
                            &out.stats,
                        );
                        println!("{summary}");
                        return Ok(());
                    }
                    println!(
                        "status: {}; {} nodes, {} LP iterations, {:.2}s",
                        out.status.as_str(),
                        out.stats.nodes,
                        out.stats.lp_iterations,
                        out.stats.seconds
                    );
                    if out.status != MipStatus::Optimal && out.solution.is_some() {
                        println!(
                            "anytime: source {}, gap {}",
                            out.source.as_str(),
                            if out.gap.is_finite() {
                                format!("{:.6}", out.gap)
                            } else {
                                "unbounded".to_string()
                            }
                        );
                    }
                    if out.stats.per_worker_nodes.len() > 1 {
                        println!(
                            "workers: {:?} nodes; {}",
                            out.stats.per_worker_nodes,
                            text(&out.stats.contention.stats())
                        );
                    }
                    if args.stats {
                        println!("{}", stats_block(&out.stats));
                    }
                    (out.solution.ok_or("no feasible partitioning")?, config)
                }
                (None, l) => {
                    let result = TemporalPartitioner::new(
                        inst.graph().clone(),
                        inst.fus().clone(),
                        inst.device().clone(),
                    )
                    .options(PartitionerOptions {
                        config: None,
                        solve,
                        max_latency_relaxation: l.or(Some(3)),
                    })
                    .run()
                    .map_err(|e| e.to_string())?;
                    if args.certify {
                        // The sweep's winning model is rebuilt from its
                        // settled config; model building is deterministic,
                        // so the Problem matches the raw incumbent.
                        let model = IlpModel::build(inst.clone(), result.config().clone())
                            .map_err(|e| e.to_string())?;
                        note(&certify_claim(
                            model.problem(),
                            result.raw_x(),
                            result.objective(),
                            result.best_bound(),
                            result.status(),
                        )?);
                    }
                    if args.json {
                        println!(
                            "{}",
                            json_summary(
                                result.status(),
                                result.gap(),
                                result.source(),
                                result.solution().communication_cost() as f64,
                                result.mip_stats(),
                            )
                        );
                        return Ok(());
                    }
                    println!(
                        "auto: N = {}, L = {}; model {}; {} nodes",
                        result.config().num_partitions,
                        result.config().latency_relaxation,
                        result.model_stats(),
                        result.mip_stats().nodes
                    );
                    if result.status() != MipStatus::Optimal {
                        println!(
                            "anytime: status {}, source {}",
                            result.status().as_str(),
                            result.source().as_str()
                        );
                    }
                    if args.stats {
                        println!("{}", stats_block(result.mip_stats()));
                    }
                    let cfg = result.config().clone();
                    (result.solution().clone(), cfg)
                }
            };
            println!("{solution}");
            // Gantt chart with reconfiguration boundaries (first step of
            // every partition after the first).
            let firsts: Vec<u32>;
            {
                use std::collections::BTreeMap;
                let mut first_step: BTreeMap<u32, u32> = BTreeMap::new();
                for op in inst.graph().ops() {
                    if let Some(a) = solution.schedule().get(op.id()) {
                        let p = solution.partition_of(op.task()).0;
                        let e = first_step.entry(p).or_insert(u32::MAX);
                        *e = (*e).min(a.step.0);
                    }
                }
                firsts = first_step.values().skip(1).copied().collect();
            }
            println!(
                "{}",
                render_gantt(inst.graph(), inst.fus(), solution.schedule(), &firsts)
            );
            let regs = tempart_core::registers::register_demand(&inst, &solution);
            println!(
                "register demand per partition: {:?} (peak {})",
                regs.demand,
                regs.peak()
            );
            if args.command == "simulate" {
                let report = execute(&inst, &solution);
                println!("simulation:");
                for e in &report.trace {
                    println!("  {e}");
                }
                println!(
                    "total {} cycles ({} compute, {} reconfig, {} memory; {:.1}% overhead)",
                    report.total_cycles(),
                    report.compute_cycles,
                    report.reconfig_cycles,
                    report.memory_cycles,
                    report.overhead_fraction() * 100.0
                );
            }
            let _ = config;
            Ok(())
        }
        other => Err(format!(
            "unknown command `{other}` (try solve, estimate, simulate, dot, export, example)"
        )),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: tempart <solve|estimate|simulate|dot|example> [spec.json] [--partitions N] [--latency L] [--time-limit SECS] [--node-limit N] [--threads T] [--cuts] [--propagate] [--branching rule|pseudocost] [--scale K] [--faults PLAN] [--stats] [--certify] [--json]");
            ExitCode::FAILURE
        }
    }
}
