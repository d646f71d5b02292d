//! Experiment runner: builds and solves one table row.

use std::time::Instant;

use tempart_core::{CoreError, IlpModel, ModelConfig, RuleKind, SolveOptions};
use tempart_graph::FpgaDevice;
use tempart_lp::stats::ms;
use tempart_lp::{Branching, JsonObject, MipOptions, MipStats, MipStatus};

use crate::graphs::{date98_instance, date98_scaled_instance};

/// Configuration of one experiment row.
#[derive(Debug, Clone)]
pub struct RowConfig {
    /// Paper graph number (1-based).
    pub graph_no: usize,
    /// Exploration set: (adders, multipliers, subtracters).
    pub ams: (u32, u32, u32),
    /// Formulation variant, partitions `N`, latency relaxation `L`.
    pub config: ModelConfig,
    /// Branching rule.
    pub rule: RuleKind,
    /// Wall-clock limit in seconds (like the paper's >7200 cutoffs).
    pub time_limit_secs: f64,
    /// Target device.
    pub device: FpgaDevice,
    /// Whether to seed the search with the constructive incumbent. The
    /// paper's experiments had no such warm start, so the faithful Table 1–3
    /// reproductions run unseeded; Table 4 and the extension studies use the
    /// modern default.
    pub seed_incumbent: bool,
    /// Branch-and-bound worker threads (`1` = exact serial solver with
    /// deterministic node counts, `0` = one per CPU). The faithful table
    /// reproductions run serial; the `parallel` experiment sweeps this.
    pub threads: usize,
    /// Enable the per-phase simplex section timers (counters are collected
    /// regardless).
    pub profile: bool,
    /// Root cover/clique cut separation (cut-and-branch). Off for the
    /// faithful table reproductions — the golden node counts depend on it;
    /// the `scale` experiment sets this.
    pub cuts: bool,
    /// Node bound propagation before each LP solve. Off for the faithful
    /// tables; `scale` sets it.
    pub propagate: bool,
    /// Variable-selection engine: the static rule (pinned default) or
    /// pseudo-cost branching with reliability initialization.
    pub branching: Branching,
    /// Instance replication factor: `1` solves the paper graph itself, `k >
    /// 1` the deterministic replicate-and-chain scaled instance
    /// ([`date98_scaled_instance`]) — the kernel tier where basis
    /// maintenance dominates.
    pub scale: usize,
}

impl RowConfig {
    /// A faithful serial row: the date98 device, unseeded, one worker, no
    /// profiling, the scale layer off, the paper graph itself. Studies
    /// change the fields they sweep with struct-update syntax.
    pub fn paper(
        graph_no: usize,
        ams: (u32, u32, u32),
        config: ModelConfig,
        rule: RuleKind,
        time_limit_secs: f64,
    ) -> Self {
        RowConfig {
            graph_no,
            ams,
            config,
            rule,
            time_limit_secs,
            device: crate::graphs::date98_device(),
            seed_incumbent: false,
            threads: 1,
            profile: false,
            cuts: false,
            propagate: false,
            branching: Branching::Rule,
            scale: 1,
        }
    }
}

/// Result of one experiment row, mirroring the paper's table columns.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Paper graph number.
    pub graph_no: usize,
    /// Task count of the graph.
    pub tasks: usize,
    /// Operation count of the graph.
    pub opers: usize,
    /// Partitions `N`.
    pub n: u32,
    /// Exploration set.
    pub ams: (u32, u32, u32),
    /// Latency relaxation `L`.
    pub l: u32,
    /// Variable count (paper column `Var`).
    pub vars: usize,
    /// Constraint count (paper column `Const`).
    pub consts: usize,
    /// Constraint-matrix nonzeros — the size axis the kernel study's
    /// per-iteration costs scale with.
    pub nnz: usize,
    /// Wall-clock seconds for the solve.
    pub seconds: f64,
    /// Whether the time limit cut the run short.
    pub timed_out: bool,
    /// Proven feasibility (`None` when the limit struck before a proof or
    /// incumbent).
    pub feasible: Option<bool>,
    /// Optimal (or best incumbent) communication cost.
    pub cost: Option<u64>,
    /// Partitions actually used by the reported solution.
    pub partitions_used: Option<u32>,
    /// Branching rule used.
    pub rule: RuleKind,
    /// Full solver statistics: nodes and pivots, the merged simplex profile
    /// (timers populated only when [`RowConfig::profile`] was set), the
    /// parallel scheduler's contention counters, and per-worker
    /// node/busy-time vectors.
    pub stats: MipStats,
}

impl ExperimentRow {
    /// The paper prints `>limit` for timed-out rows; this renders the
    /// runtime column accordingly.
    pub fn runtime_display(&self, limit: f64) -> String {
        if self.timed_out {
            format!(">{limit:.0}")
        } else {
            format!("{:.2}", self.seconds)
        }
    }

    /// Wall-clock microseconds per branch-and-bound node — the per-node
    /// cost a caller actually pays. Thread-invariant at fixed per-node cost
    /// on a single CPU, and *drops* with effective parallelism, making it
    /// the right axis for speedup comparisons.
    pub fn node_wall_us(&self) -> f64 {
        self.seconds * 1e6 / self.stats.nodes.max(1) as f64
    }

    /// Appends the row's measurements to a `BENCH_*.json` row: wall clock,
    /// cost, host and instance size, then every solver stat of the shared
    /// schema ([`MipStats::stats`]).
    pub fn write_json(&self, o: &mut JsonObject) {
        o.num("wall_ms", ms(self.seconds))
            .opt_uint("cost", self.cost)
            .uint("host_cpus", host_cpus() as u64)
            .uint("ops", self.opers as u64)
            .uint("rows", self.consts as u64)
            .uint("cols", self.vars as u64)
            .uint("nnz", self.nnz as u64)
            .stats(self.stats.stats());
    }

    /// `Yes`/`No`/`?` feasibility column.
    pub fn feasible_display(&self) -> &'static str {
        match self.feasible {
            Some(true) => "Yes",
            Some(false) => "No",
            None => "?",
        }
    }
}

/// CPUs available to this process: it caps any parallel speedup, so every
/// bench row records it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Builds a row's instance and model: the model, the graph's task and
/// operation counts, and the constraint-matrix nonzeros.
///
/// # Errors
///
/// Propagates instance and model-building errors.
pub fn build_model(cfg: &RowConfig) -> Result<(IlpModel, usize, usize, usize), CoreError> {
    let (a, m, s) = cfg.ams;
    let instance = if cfg.scale > 1 {
        date98_scaled_instance(cfg.graph_no, cfg.scale, a, m, s, cfg.device.clone())?
    } else {
        date98_instance(cfg.graph_no, a, m, s, cfg.device.clone())?
    };
    let (tasks, opers) = (instance.graph().num_tasks(), instance.graph().num_ops());
    let model = IlpModel::build(instance, cfg.config.clone())?;
    let nnz = model
        .problem()
        .rows_for_export()
        .map(|r| r.coeffs.len())
        .sum();
    Ok((model, tasks, opers, nnz))
}

/// Builds and solves one row.
///
/// # Errors
///
/// Propagates model-building and solver errors; a time limit is *not* an
/// error (reported via [`ExperimentRow::timed_out`]).
pub fn run_row(cfg: &RowConfig) -> Result<ExperimentRow, CoreError> {
    let (model, tasks, opers, nnz) = build_model(cfg)?;
    let stats = model.stats().clone();
    let mut mip = MipOptions {
        time_limit_secs: cfg.time_limit_secs,
        threads: cfg.threads,
        cuts: cfg.cuts,
        propagate: cfg.propagate,
        branching: cfg.branching,
        ..MipOptions::default()
    };
    mip.lp.profile = cfg.profile;
    let started = Instant::now();
    let out = model.solve(&SolveOptions {
        mip,
        rule: cfg.rule,
        seed_incumbent: cfg.seed_incumbent,
    })?;
    let seconds = started.elapsed().as_secs_f64();
    let timed_out = matches!(out.status, MipStatus::TimeLimit | MipStatus::NodeLimit);
    let (feasible, cost) = match out.status {
        MipStatus::Optimal => (
            Some(true),
            Some(
                out.solution
                    .as_ref()
                    .expect("optimal has solution")
                    .communication_cost(),
            ),
        ),
        MipStatus::Infeasible => (Some(false), None),
        _ => (
            out.solution.is_some().then_some(true),
            out.solution.as_ref().map(|s| s.communication_cost()),
        ),
    };
    let partitions_used = out.solution.as_ref().map(|s| s.partitions_used());
    Ok(ExperimentRow {
        graph_no: cfg.graph_no,
        tasks,
        opers,
        n: cfg.config.num_partitions,
        ams: cfg.ams,
        l: cfg.config.latency_relaxation,
        vars: stats.num_vars,
        consts: stats.num_constraints,
        nnz,
        seconds,
        timed_out,
        feasible,
        cost,
        partitions_used,
        rule: cfg.rule,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_runs_graph1() {
        // Small time budget: this is a smoke test of the row plumbing, not a
        // benchmark; debug-mode solves of graph 1 can take a while.
        let row = run_row(&RowConfig {
            seed_incumbent: true,
            ..RowConfig::paper(
                1,
                (2, 2, 1),
                ModelConfig::tightened(2, 3),
                RuleKind::Paper,
                10.0,
            )
        })
        .unwrap();
        assert_eq!(row.tasks, 5);
        assert_eq!(row.opers, 22);
        assert!(row.vars > 0 && row.consts > 0);
        assert!(row.stats.nodes >= 1);
        if !row.timed_out {
            assert!(row.feasible.is_some());
        }
        assert!(!row.runtime_display(120.0).is_empty());
        assert!(!row.feasible_display().is_empty());
        let mut o = JsonObject::new();
        row.write_json(&mut o);
        let json = o.finish();
        assert!(json.starts_with("{\"wall_ms\":"), "{json}");
        assert!(
            json.contains(&format!(",\"nodes\":{},", row.stats.nodes)),
            "{json}"
        );
    }
}
