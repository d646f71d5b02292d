//! Output checks: every answer is verified before any metric is trusted.
//!
//! * Pinned rows must give their published answers (g1 costs 13/5/0,
//!   g1-N3-L0 infeasible, Table-4 rows cost 0).
//! * Every returned incumbent is certified exactly by
//!   `tempart_audit::certify` against a freshly built model.
//! * No returned cost may exceed the naive packer's
//!   (`tempart_sim::naive_partitioning`) wherever that packing is feasible
//!   for the answered configuration.
//! * Repeated answers to the same job must agree exactly.

use tempart_audit::certify::{certify, Certificate, CertifyOptions};
use tempart_core::{IlpModel, ModelConfig};
use tempart_lp::MipStatus;
use tempart_sim::naive_partitioning;

use crate::batch::{Answer, Claim, Outcome};
use crate::spec::{Expect, Job};
use crate::trace::Tracer;

/// Checks one job's first answer in full. `None` means it passed.
pub fn check_claim(job: &Job, outcome: &Outcome, id: usize, t: &mut Tracer) -> Option<String> {
    let c = match outcome {
        Outcome::Error(e) => return Some(format!("error: {e}")),
        Outcome::NoPartition => {
            return (job.expect != Expect::Unpinned)
                .then(|| "pinned row found no partition".to_string())
        }
        Outcome::Solved(c) => c,
    };
    match job.expect {
        Expect::Cost(want) if c.status != MipStatus::Optimal || c.cost != Some(want) => {
            return Some(format!(
                "expected optimal cost {want}, got {} {:?}",
                c.status, c.cost
            ))
        }
        Expect::Infeasible if c.status != MipStatus::Infeasible => {
            return Some(format!("expected infeasible, got {}", c.status))
        }
        _ => {}
    }
    let instance = match job.spec.build_instance() {
        Ok(i) => i,
        Err(e) => return Some(format!("spec no longer loads: {e}")),
    };
    let config = ModelConfig::tightened(c.n, c.l);
    if !c.x.is_empty() {
        let model = match IlpModel::build(instance.clone(), config.clone()) {
            Ok(m) => m,
            Err(e) => return Some(format!("model no longer builds: {e}")),
        };
        let verdict = t.span("audit.certify", id, || certify_claim(&model, c));
        if let Err(e) = verdict {
            return Some(format!("certificate rejected: {e}"));
        }
    }
    if let Some(cost) = c.cost {
        let naive = t.span("sim.naive", id, || {
            naive_partitioning(&instance, &config)
                .filter(|s| s.validate(&instance, &config).is_ok())
        });
        if let Some(naive) = naive {
            if cost > naive.communication_cost() {
                return Some(format!(
                    "cost {cost} exceeds the naive packer's {}",
                    naive.communication_cost()
                ));
            }
        }
    }
    None
}

fn certify_claim(model: &IlpModel, c: &Claim) -> Result<(), String> {
    let cert = Certificate {
        x: c.x.clone(),
        objective: c.objective,
        best_bound: c.best_bound,
        status: c.status,
        objective_is_integral: true,
    };
    certify(model.problem(), &cert, &CertifyOptions::default())
        .map(|_| ())
        .map_err(|e| format!("{e:?}"))
}

/// Checks every answer: the first answer of each job in full, the rest for
/// exact agreement with it. Returns one verdict per answer (`None` = ok).
pub fn check_answers(jobs: &[Job], answers: &[Answer], t: &mut Tracer) -> Vec<Option<String>> {
    let mut first: Vec<Option<(usize, Option<String>)>> = vec![None; jobs.len()];
    answers
        .iter()
        .enumerate()
        .map(|(i, a)| match &first[a.job] {
            None => {
                let verdict = check_claim(&jobs[a.job], &a.outcome, i, t);
                first[a.job] = Some((i, verdict.clone()));
                verdict
            }
            Some((f, verdict)) => {
                if answers[*f].outcome != a.outcome {
                    Some(format!("answer differs from the job's first answer #{f}"))
                } else {
                    verdict.clone()
                }
            }
        })
        .collect()
}
