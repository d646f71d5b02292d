//! The batch workloads, `search` and `root-lp`: a fixed work set solved
//! through the public API, pass after pass, one answer at a time.

use std::time::Instant;

use tempart_core::{
    CoreError, IlpModel, ModelConfig, PartitionerOptions, RuleKind, SolveOptions,
    TemporalPartitioner,
};
use tempart_hls::estimate_partitions;
use tempart_lp::{solve_lp, LpOptions, MipOptions, MipStats, MipStatus};

use crate::spec::{Job, Mode};
use crate::trace::Tracer;

/// What one solve claimed.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The configuration answered (`N`, `L`): the requested one, or the one
    /// the auto pipeline settled on.
    pub n: u32,
    pub l: u32,
    pub status: MipStatus,
    pub cost: Option<u64>,
    pub objective: f64,
    pub best_bound: f64,
    /// The incumbent in the model's variable order (empty without one).
    pub x: Vec<f64>,
}

impl Claim {
    /// Whether the answer carries a proof: optimal, or infeasible at its
    /// configuration.
    pub fn proven(&self) -> bool {
        matches!(self.status, MipStatus::Optimal | MipStatus::Infeasible)
    }
}

/// The result of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Solved(Claim),
    /// The auto pipeline found no partition within its latency sweep.
    NoPartition,
    Error(String),
}

/// Layer counters of one answer (summed over an auto sweep's steps).
#[derive(Debug, Clone)]
pub struct Work {
    pub mip: MipStats,
    pub rows: usize,
    pub nnz: usize,
    /// Each step's timed simplex profile was present (not discarded).
    pub profiled: bool,
}

impl Default for Work {
    /// No work yet, and so no missing profile.
    fn default() -> Self {
        Work {
            mip: MipStats::default(),
            rows: 0,
            nnz: 0,
            profiled: true,
        }
    }
}

impl Work {
    /// Adds one solve of `model`.
    fn add(&mut self, stats: &MipStats, model: &IlpModel) {
        self.absorb(&Work {
            mip: stats.clone(),
            rows: model.stats().num_constraints,
            nnz: model
                .problem()
                .rows_for_export()
                .map(|r| r.coeffs.len())
                .sum(),
            profiled: stats.simplex.lp_secs == 0.0 || stats.simplex.timed_secs() > 0.0,
        });
    }

    /// Adds another answer's work.
    pub fn absorb(&mut self, other: &Work) {
        self.mip.nodes += other.mip.nodes;
        self.mip.lp_iterations += other.mip.lp_iterations;
        self.mip.seconds += other.mip.seconds;
        self.mip.simplex.absorb(&other.mip.simplex);
        self.rows += other.rows;
        self.nnz += other.nnz;
        self.profiled &= other.profiled;
    }
}

/// One answer as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Index of the job in the work set.
    pub job: usize,
    /// Wall time of the call, s.
    pub secs: f64,
    pub outcome: Outcome,
}

fn solve_options(max_nodes: usize, profile: bool) -> SolveOptions {
    let mut mip = MipOptions {
        max_nodes,
        threads: 1,
        ..MipOptions::default()
    };
    mip.lp.profile = profile;
    SolveOptions {
        mip,
        rule: RuleKind::Paper,
        seed_incumbent: true,
    }
}

fn claim(n: u32, l: u32, out: &tempart_core::SolveOutcome) -> Claim {
    Claim {
        n,
        l,
        status: out.status,
        cost: out.solution.as_ref().map(|s| s.communication_cost()),
        objective: out.objective,
        best_bound: out.best_bound,
        x: out.raw_x.clone(),
    }
}

fn error(e: impl std::fmt::Display) -> Outcome {
    Outcome::Error(e.to_string())
}

/// Solves one job the way a library user would: `IlpModel` for a fixed
/// configuration, `TemporalPartitioner` for the auto pipeline.
pub fn solve(job: &Job) -> Outcome {
    let instance = match job.spec.build_instance() {
        Ok(i) => i,
        Err(e) => return error(e),
    };
    match job.mode {
        Mode::Fixed { n, l, max_nodes } => {
            let model = match IlpModel::build(instance, ModelConfig::tightened(n, l)) {
                Ok(m) => m,
                Err(e) => return error(e),
            };
            match model.solve(&solve_options(max_nodes, false)) {
                Ok(out) => Outcome::Solved(claim(n, l, &out)),
                Err(e) => error(e),
            }
        }
        Mode::Auto { max_nodes } => {
            let run = TemporalPartitioner::new(
                instance.graph().clone(),
                instance.fus().clone(),
                instance.device().clone(),
            )
            .options(PartitionerOptions {
                config: None,
                solve: solve_options(max_nodes, false),
                max_latency_relaxation: None,
            })
            .run();
            match run {
                Ok(r) => Outcome::Solved(Claim {
                    n: r.config().num_partitions,
                    l: r.config().latency_relaxation,
                    status: r.status(),
                    cost: Some(r.solution().communication_cost()),
                    objective: r.objective(),
                    best_bound: r.best_bound(),
                    x: r.raw_x().to_vec(),
                }),
                Err(CoreError::InvalidConfig(_)) => Outcome::NoPartition,
                Err(e) => error(e),
            }
        }
    }
}

/// Upper end of the auto pipeline's latency sweep (its default).
const MAX_AUTO_L: u32 = 3;

/// [`solve`] with a span around every call into a layer and the simplex
/// section timers on. The auto pipeline is spelled out step by step
/// (estimate, then build and solve per latency relaxation, exactly as
/// `TemporalPartitioner::run` does) so each step gets its own span; the
/// caller checks that both paths give the same answer. After the answer
/// span closes, an `lp.root` span times one cold `solve_lp` on the root
/// relaxation of the answered model.
pub fn solve_traced(job: &Job, id: usize, t: &mut Tracer) -> (Outcome, Work) {
    let mut work = Work::default();
    t.begin("answer", id);
    let instance = match t.span("cli.load", id, || job.spec.build_instance()) {
        Ok(i) => i,
        Err(e) => {
            t.end();
            return (error(e), work);
        }
    };
    let (n, sweep, max_nodes) = match job.mode {
        Mode::Fixed { n, l, max_nodes } => (n, l..=l, max_nodes),
        Mode::Auto { max_nodes } => {
            let est = t.span("hls.estimate", id, || {
                estimate_partitions(
                    instance.graph(),
                    instance.fus().library(),
                    instance.device(),
                )
            });
            match est {
                Ok(e) => (e.num_partitions, 0..=MAX_AUTO_L, max_nodes),
                Err(e) => {
                    t.end();
                    return (error(e), work);
                }
            }
        }
    };
    let options = solve_options(max_nodes, true);
    let mut steps = Vec::new();
    for l in sweep {
        let built = t.span("core.build", id, || {
            IlpModel::build(instance.clone(), ModelConfig::tightened(n, l))
        });
        let model = match built {
            Ok(m) => m,
            Err(e) => {
                t.end();
                return (error(e), work);
            }
        };
        let out = match t.span("core.solve", id, || model.solve(&options)) {
            Ok(out) => out,
            Err(e) => {
                t.end();
                return (error(e), work);
            }
        };
        let found = out.solution.is_some();
        steps.push((claim(n, l, &out), model, out.stats));
        if found {
            break;
        }
    }
    t.end();
    for (_, model, stats) in &steps {
        work.add(stats, model);
    }
    let Some((c, model, _)) = steps.pop() else {
        return (error("empty latency sweep"), work);
    };
    t.span("lp.root", id, || {
        let _ = solve_lp(
            model.problem(),
            &LpOptions {
                profile: true,
                ..LpOptions::default()
            },
        );
    });
    let outcome = match (job.mode, c.cost) {
        (Mode::Auto { .. }, None) => Outcome::NoPartition,
        _ => Outcome::Solved(c),
    };
    (outcome, work)
}

/// Answers of the timed phase.
pub struct Timed {
    pub answers: Vec<Answer>,
    /// Whole passes completed.
    pub passes: usize,
}

/// Solves the work set pass after pass until `seconds` have elapsed,
/// always finishing at least one whole pass (`max_passes` caps it).
pub fn run_timed(jobs: &[Job], seconds: f64, max_passes: usize) -> Timed {
    let started = Instant::now();
    let mut answers = Vec::new();
    let mut passes = 0;
    'outer: while passes < max_passes {
        for (i, job) in jobs.iter().enumerate() {
            let t0 = Instant::now();
            let outcome = std::hint::black_box(solve(std::hint::black_box(job)));
            answers.push(Answer {
                job: i,
                secs: t0.elapsed().as_secs_f64(),
                outcome,
            });
            if passes > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'outer;
            }
        }
        passes += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Timed { answers, passes }
}
