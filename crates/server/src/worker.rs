//! The worker pool: executes queued jobs with panic isolation.
//!
//! Each worker loops popping jobs until the queue closes. A job runs under
//! `catch_unwind`; a caught panic requeues the job once (front of the
//! line — its budget is already burning) and a second panic produces a
//! truthful `failed` terminal status. Either way the connection gets
//! exactly one `result` frame and the accounting never orphans a job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tempart_audit::certify::{certify, Certificate, CertifyOptions};
use tempart_cli::proto::{Response, SolveSummary};
use tempart_core::{
    IlpModel, ModelConfig, PartitionerOptions, RuleKind, SolveOptions, TemporalPartitioner,
};
use tempart_lp::{FaultSite, MipOptions, MipStats, MipStatus, Problem};

use crate::cache::CacheEntry;
use crate::queue::Job;
use crate::Inner;

/// Worker main loop. Exits when the queue closes and drains.
pub(crate) fn run(inner: Arc<Inner>) {
    while let Some(mut job) = inner.queue.pop() {
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(&inner, &job)));
        match outcome {
            Ok(summary) => deliver(&inner, &job, summary),
            Err(_) => {
                inner.stats.note_panic();
                if job.requeued {
                    // Second crash: a truthful terminal failure.
                    let summary = SolveSummary {
                        seconds: job.submitted.elapsed().as_secs_f64(),
                        ..failed_summary(&job)
                    };
                    deliver(&inner, &job, summary);
                } else {
                    job.requeued = true;
                    inner.stats.note_requeue();
                    inner.queue.push_front(job);
                }
            }
        }
    }
}

/// The summary of a job that produced no answer (yet): `failed`, with
/// every solver stat at zero.
fn failed_summary(job: &Job) -> SolveSummary {
    SolveSummary {
        status: "failed".to_string(),
        source: "none".to_string(),
        cache: "uncached".to_string(),
        requeued: job.requeued,
        stats: schema_stats(&MipStats::default()),
        ..SolveSummary::default()
    }
}

/// A solve's stats in the shared schema, as the `Result` frame carries
/// them.
fn schema_stats(stats: &MipStats) -> Vec<(String, f64)> {
    stats
        .stats()
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

/// Terminal bookkeeping: unregister the budget, count the outcome, and
/// send the result frame (best effort — the client may be gone, but the
/// job still terminated truthfully).
fn deliver(inner: &Inner, job: &Job, summary: SolveSummary) {
    inner.unregister(job.id);
    inner.stats.note_cache(&summary.cache);
    if summary.status == "failed" {
        inner.stats.note_failed();
    } else {
        inner.stats.note_completed();
    }
    let _ = job.tx.send(Response::Result {
        job: job.id,
        summary,
    });
}

/// Re-verifies a cached warm start against the freshly built model with
/// the exact certificate checker: feasibility and the claimed objective
/// are recomputed in exact arithmetic. Anything less than a full pass
/// means the entry cannot seed the solve.
fn warm_start_is_valid(problem: &Problem, entry: &CacheEntry) -> bool {
    let cert = Certificate {
        x: entry.x.clone(),
        objective: entry.objective,
        best_bound: entry.objective,
        status: MipStatus::Optimal,
        objective_is_integral: true,
    };
    certify(problem, &cert, &CertifyOptions::default()).is_ok()
}

/// Assembles the solver options an admitted job runs under. The budget
/// created at admission rides in via `lp.budget`, so the simplex pivot
/// loop enforces the deadline and a drain can stop the job mid-solve.
fn mip_options(inner: &Inner, job: &Job) -> MipOptions {
    let mut mip = MipOptions {
        time_limit_secs: job.time_limit_secs,
        max_nodes: job.node_limit,
        max_lp_iterations: job.pivot_limit,
        threads: job.threads,
        cuts: job.params.cuts,
        propagate: job.params.propagate,
        branching: job.branching,
        progress: Some(Arc::clone(&job.progress)),
        ..MipOptions::default()
    };
    mip.lp.faults = inner.config.faults.clone();
    mip.lp.budget = Some(Arc::clone(&job.budget));
    mip
}

/// Runs one job to a terminal summary. Panics (injected via the chaos
/// plan's `panic` site or real) are caught by [`run`].
fn execute(inner: &Inner, job: &Job) -> SolveSummary {
    if inner.trip(FaultSite::WorkerPanic) {
        // audit: allow(no-panic) — scripted chaos injection; the pool's
        // catch_unwind isolation and requeue-once recovery are the code
        // under test.
        panic!("injected worker panic (chaos plan)");
    }

    let mut summary = failed_summary(job);

    // Admission already validated the spec; a failure here is a truthful
    // `failed`, never a panic.
    let instance = match job.spec.build_instance() {
        Ok(i) => i,
        Err(_) => {
            summary.seconds = job.submitted.elapsed().as_secs_f64();
            return summary;
        }
    };

    let mut mip = mip_options(inner, job);
    match job.params.config {
        Some((n, l)) => {
            let config = ModelConfig::tightened(n, l);
            let model = match IlpModel::build(instance, config) {
                Ok(m) => m,
                Err(_) => {
                    summary.status = "infeasible-config".to_string();
                    summary.seconds = job.submitted.elapsed().as_secs_f64();
                    return summary;
                }
            };
            if job.params.warm_start {
                summary.cache = "miss".to_string();
                if let Some(key) = &job.fingerprint {
                    if let Some(entry) = inner.cache.lookup(key) {
                        if warm_start_is_valid(model.problem(), &entry) {
                            mip.initial_incumbent = Some(entry.x);
                            summary.cache = "hit".to_string();
                        } else {
                            // Stale or poisoned: evict and solve cold.
                            inner.cache.invalidate(key);
                            summary.cache = "stale".to_string();
                        }
                    }
                }
            }
            let solve = SolveOptions {
                mip,
                rule: RuleKind::Paper,
                seed_incumbent: true,
            };
            if let Ok(out) = model.solve(&solve) {
                summary.status = out.status.as_str().to_string();
                summary.objective = out.solution.is_some().then_some(out.objective);
                summary.best_bound = out.best_bound.is_finite().then_some(out.best_bound);
                summary.cost = out.solution.as_ref().map(|s| s.communication_cost());
                summary.nodes = out.stats.nodes as u64;
                summary.lp_iterations = out.stats.lp_iterations as u64;
                summary.stats = schema_stats(&out.stats);
                summary.source = out.source.as_str().to_string();
                if out.status == MipStatus::Optimal && !out.raw_x.is_empty() {
                    if let Some(key) = &job.fingerprint {
                        let poison = inner.trip(FaultSite::CachePoison);
                        inner
                            .cache
                            .store(key, out.raw_x.clone(), out.objective, poison);
                    }
                }
            }
        }
        None => {
            // Automatic estimate + latency sweep: no stable fingerprint,
            // so the cache is never consulted (`uncached`).
            let solve = SolveOptions {
                mip,
                rule: RuleKind::Paper,
                seed_incumbent: true,
            };
            let result = TemporalPartitioner::new(
                instance.graph().clone(),
                instance.fus().clone(),
                instance.device().clone(),
            )
            .options(PartitionerOptions {
                config: None,
                solve,
                max_latency_relaxation: Some(3),
            })
            .run();
            if let Ok(r) = result {
                summary.status = r.status().as_str().to_string();
                summary.objective = Some(r.objective()).filter(|v| v.is_finite());
                summary.best_bound = Some(r.best_bound()).filter(|v| v.is_finite());
                summary.cost = Some(r.solution().communication_cost());
                summary.nodes = r.mip_stats().nodes as u64;
                summary.lp_iterations = r.mip_stats().lp_iterations as u64;
                summary.stats = schema_stats(r.mip_stats());
                summary.source = r.source().as_str().to_string();
            }
        }
    }
    summary.seconds = job.submitted.elapsed().as_secs_f64();
    summary
}
