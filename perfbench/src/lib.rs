//! # tempart-perfbench
//!
//! One benchmark for the whole solve path: four workloads (`search`,
//! `root-lp`, `service`, `service-cold`) run against the public API, every
//! answer is checked, and the run prints its end-to-end metrics (untraced
//! run) or its per-layer metrics (traced run), each with its unit. See
//! `README.md` in this directory for why each workload exists and which
//! layer metric should move which end-to-end metric.

pub mod batch;
pub mod check;
pub mod report;
pub mod service;
pub mod spec;
pub mod trace;

use std::time::Instant;

use tempart_lp::MipOptions;

use batch::{Answer, Outcome, Work};
use report::{median, peak_rss_mb, percentile, Metrics};
use spec::{Job, Mode};
use trace::{Summary, Tracer};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Search,
    RootLp,
    Service,
    ServiceCold,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "search" => Some(Workload::Search),
            "root-lp" => Some(Workload::RootLp),
            "service" => Some(Workload::Service),
            "service-cold" => Some(Workload::ServiceCold),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Workload::Search => "search",
            Workload::RootLp => "root-lp",
            Workload::Service => "service",
            Workload::ServiceCold => "service-cold",
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// A tiny work set for smoke tests (same code paths, same metrics).
    pub smoke: bool,
}

/// What a run measured and whether its answers held up.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Human-readable lines (one per failed answer, plus notes).
    pub notes: Vec<String>,
    /// The span file of a traced run.
    pub trace_json: Option<String>,
}

/// Set-up repetitions per run; `setup_s` is their median. Generating a
/// batch work set takes well under a millisecond, so many repetitions keep
/// one interrupted repetition from moving the median.
const SETUP_REPS: usize = 25;
const SERVICE_SETUP_REPS: usize = 3;

fn batch_jobs(cfg: &Config) -> Vec<Job> {
    match (cfg.workload, cfg.smoke) {
        (Workload::Search, false) => spec::search_jobs(cfg.seed, spec::SEARCH_DRAWN),
        (Workload::Search, true) => spec::search_jobs(cfg.seed, 2),
        (Workload::RootLp, false) => spec::root_lp_jobs(cfg.seed, spec::ROOT_DRAWN_PER_ROW),
        (Workload::RootLp, true) => {
            let mut jobs = spec::root_lp_jobs(cfg.seed, 1);
            jobs.retain(|j| j.label.starts_with("g2") || j.label.starts_with("g3"));
            jobs
        }
        (Workload::Service | Workload::ServiceCold, _) => {
            unreachable!("the service workloads have no batch work set")
        }
    }
}

/// Runs one workload as configured.
///
/// # Errors
///
/// A set-up failure (the server did not start, a warm-up solve failed):
/// there is no result to report.
pub fn run(cfg: &Config) -> Result<RunReport, String> {
    match cfg.workload {
        Workload::Service | Workload::ServiceCold => run_service(cfg),
        _ => Ok(run_batch(cfg)),
    }
}

/// Per-layer measurements of a traced run. Layers a workload does not
/// exercise keep their zero.
#[derive(Debug, Default)]
struct Layers {
    work: Work,
    spans: Summary,
    cost_sum: f64,
    gap_sum: f64,
    generate_ms: f64,
    overhead_pct: f64,
    accept_ms: f64,
    result_ms: f64,
    job_ms: f64,
    wire_ms: f64,
    hit_ms: f64,
    miss_ms: f64,
    cache_hit_frac: f64,
    shed: f64,
    requeues: f64,
    encode_us: f64,
    decode_us: f64,
}

impl Layers {
    fn add(&mut self, w: &Work, outcome: &Outcome) {
        self.work.absorb(w);
        if let Outcome::Solved(c) = outcome {
            self.cost_sum += c.cost.unwrap_or(0) as f64;
            if c.cost.is_some() && c.best_bound.is_finite() {
                self.gap_sum += (c.objective - c.best_bound).max(0.0);
            }
        }
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.spans.total_ms.get(name).copied().unwrap_or(0.0)
    }

    fn metrics(&self) -> Metrics {
        let mip = &self.work.mip;
        let p = &mip.simplex;
        let bb_ms = mip.seconds * 1e3;
        let simplex_ms = p.lp_secs * 1e3;
        let mut m = Metrics::default();
        m.push(
            "lp.us_per_pivot",
            simplex_ms * 1e3 / mip.lp_iterations.max(1) as f64,
            "us",
        );
        // A discarded profile leaves the buckets absent, never zero.
        if self.work.profiled {
            m.push("lp.pricing_ms", p.pricing_secs * 1e3, "ms");
            m.push("lp.ftran_ms", p.ftran_secs * 1e3, "ms");
            m.push("lp.btran_ms", p.btran_secs * 1e3, "ms");
            m.push("lp.ratio_ms", p.ratio_secs * 1e3, "ms");
            m.push("lp.refactor_ms", p.refactor_secs * 1e3, "ms");
            m.push("lp.update_ms", p.update_secs * 1e3, "ms");
            m.push("lp.other_ms", p.other_secs * 1e3, "ms");
        }
        m.push("lp.root_ms", self.span_ms("lp.root"), "ms");
        m.push("lp.nodes", mip.nodes as f64, "count");
        m.push("lp.pivots", mip.lp_iterations as f64, "count");
        m.push("lp.refactors", p.refactors as f64, "count");
        m.push("lp.bb_ms", bb_ms, "ms");
        m.push("lp.simplex_ms", simplex_ms, "ms");
        m.push("lp.node_overhead_ms", bb_ms - simplex_ms, "ms");
        let solve_ms = self.span_ms("core.solve");
        m.push("core.build_ms", self.span_ms("core.build"), "ms");
        m.push("core.rows", self.work.rows as f64, "count");
        m.push("core.nnz", self.work.nnz as f64, "count");
        m.push("core.solve_ms", solve_ms, "ms");
        m.push("core.solve_other_ms", solve_ms - bb_ms, "ms");
        m.push("core.cost_sum", self.cost_sum, "count");
        m.push("core.gap_sum", self.gap_sum, "count");
        m.push("hls.estimate_ms", self.span_ms("hls.estimate"), "ms");
        m.push("graph.generate_ms", self.generate_ms, "ms");
        m.push("audit.certify_ms", self.span_ms("audit.certify"), "ms");
        m.push("server.accept_ms", self.accept_ms, "ms");
        m.push("server.result_ms", self.result_ms, "ms");
        m.push("server.job_ms", self.job_ms, "ms");
        m.push("server.wire_ms", self.wire_ms, "ms");
        m.push("server.hit_ms", self.hit_ms, "ms");
        m.push("server.miss_ms", self.miss_ms, "ms");
        m.push("server.cache_hit_frac", self.cache_hit_frac, "ratio");
        m.push("server.shed", self.shed, "count");
        m.push("server.requeues", self.requeues, "count");
        m.push("cli.encode_us", self.encode_us, "us");
        m.push("cli.decode_us", self.decode_us, "us");
        m.push("trace.overhead_pct", self.overhead_pct, "%");
        m.push(
            "trace.coverage_min_pct",
            self.spans.min_coverage * 100.0,
            "%",
        );
        m
    }
}

fn end_to_end(setup_s: f64, answers_per_s: f64, latencies_ms: &[f64], proven_frac: f64) -> Metrics {
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("answers_per_s", answers_per_s, "1/s");
    m.push("latency_p50_ms", percentile(latencies_ms, 0.5), "ms");
    m.push("latency_p99_ms", percentile(latencies_ms, 0.99), "ms");
    m.push("proven_frac", proven_frac, "ratio");
    m.push("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

fn proven(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Solved(c) if c.proven())
}

/// Turns per-answer verdicts into (failed count, notes).
fn tally(labels: impl Fn(usize) -> String, verdicts: &[Option<String>]) -> (usize, Vec<String>) {
    let notes: Vec<String> = verdicts
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.as_ref().map(|why| format!("FAIL {}: {why}", labels(i))))
        .collect();
    (notes.len(), notes)
}

fn run_batch(cfg: &Config) -> RunReport {
    // Set-up is generating the work set; do it several times.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        jobs = std::hint::black_box(batch_jobs(cfg));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    if cfg.trace {
        traced_batch(cfg, &jobs, setup_s)
    } else {
        timed_batch(cfg, &jobs, setup_s)
    }
}

/// The untraced batch run: end-to-end metrics.
fn timed_batch(cfg: &Config, jobs: &[Job], setup_s: f64) -> RunReport {
    let mut off = Tracer::new(false, Instant::now());
    let timed = batch::run_timed(jobs, cfg.seconds, usize::MAX);
    let verdicts = check::check_answers(jobs, &timed.answers, &mut off);
    let label = |i: usize| jobs[timed.answers[i].job].label.clone();
    let (failed, mut notes) = tally(label, &verdicts);
    // Throughput of one pass of the fixed work set, from each job's median
    // time over its repeats in the run. The work is deterministic, so the
    // repeats differ only by the host's speed, which drifts in spells of
    // seconds to minutes; the median spans those spells, where the fastest
    // repeat lands on whichever quiet moment a run happened to catch. The
    // result does not depend on where the window cut the last pass.
    let mut per_job = Vec::with_capacity(jobs.len());
    let mut proven_n = 0;
    for (j, job) in jobs.iter().enumerate() {
        let mine: Vec<&Answer> = timed.answers.iter().filter(|a| a.job == j).collect();
        let times: Vec<f64> = mine.iter().map(|a| a.secs).collect();
        let secs = median(&times);
        per_job.push(secs);
        proven_n += usize::from(proven(&mine[0].outcome));
        let answer = match &mine[0].outcome {
            Outcome::Solved(c) => format!("N{}-L{} {} cost {:?}", c.n, c.l, c.status, c.cost),
            other => format!("{other:?}"),
        };
        notes.push(format!(
            "job {:<18} {:>10.3} ms median of {} | {answer}",
            job.label,
            secs * 1e3,
            times.len()
        ));
    }
    let pass_secs: f64 = per_job.iter().sum();
    let latencies: Vec<f64> = per_job.iter().map(|s| s * 1e3).collect();
    let attempted = timed.answers.len();
    notes.push(format!(
        "{} answers over {} whole passes of {} jobs",
        attempted,
        timed.passes,
        jobs.len()
    ));
    RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics: end_to_end(
            setup_s,
            jobs.len() as f64 / pass_secs,
            &latencies,
            proven_n as f64 / jobs.len() as f64,
        ),
        notes,
        trace_json: None,
    }
}

/// The traced batch run: one untraced pass as the overhead baseline, then
/// one traced pass of the same work set; per-layer metrics.
fn traced_batch(cfg: &Config, jobs: &[Job], setup_s: f64) -> RunReport {
    let plain = batch::run_timed(jobs, 0.0, 1);
    let epoch = Instant::now();
    let mut t = Tracer::new(true, epoch);
    let mut answers = Vec::with_capacity(jobs.len());
    let mut verdicts = Vec::with_capacity(jobs.len());
    let mut layers = Layers {
        generate_ms: setup_s * 1e3,
        ..Layers::default()
    };
    for (i, job) in jobs.iter().enumerate() {
        let t0 = Instant::now();
        let (outcome, work) = batch::solve_traced(job, i, &mut t);
        let secs = t0.elapsed().as_secs_f64();
        layers.add(&work, &outcome);
        verdicts.push((plain.answers[i].outcome != outcome).then(|| {
            "traced step-by-step pipeline disagrees with the untraced answer".to_string()
        }));
        answers.push(Answer {
            job: i,
            secs,
            outcome,
        });
    }
    for (v, c) in verdicts
        .iter_mut()
        .zip(check::check_answers(jobs, &answers, &mut t))
    {
        *v = v.take().or(c);
    }
    let spans = t.into_spans();
    layers.spans = trace::summarize(&spans);
    let traced_secs = layers.span_ms("answer") / 1e3;
    let plain_secs: f64 = plain.answers.iter().map(|a| a.secs).sum();
    layers.overhead_pct = (traced_secs / plain_secs - 1.0) * 100.0;
    let (failed, notes) = tally(|i| jobs[answers[i].job].label.clone(), &verdicts);
    RunReport {
        correct: failed == 0,
        attempted: answers.len(),
        failed,
        metrics: layers.metrics(),
        notes,
        trace_json: Some(trace::to_json(
            &report::stamp(cfg.workload.as_str(), cfg.seed, true),
            &spans,
            &layers.spans,
        )),
    }
}

/// The reference job for a service spec: the configuration every request
/// asks for, with the server's default node budget.
fn reference_job(spec: &tempart_cli::SpecFile) -> Job {
    let (n, l) = spec::SERVICE_CONFIG;
    Job {
        label: spec.name.clone(),
        spec: spec.clone(),
        mode: Mode::Fixed {
            n,
            l,
            max_nodes: MipOptions::default().max_nodes,
        },
        expect: spec::Expect::Unpinned,
    }
}

/// Whether a service answer agrees with the in-process reference solve.
fn service_verdict(ex: &service::Exchange, reference: &Outcome) -> Option<String> {
    let agrees = match reference {
        Outcome::Solved(c) => ex.status == c.status.as_str() && ex.cost == c.cost,
        Outcome::Error(_) => ex.status == "infeasible-config",
        Outcome::NoPartition => false,
    };
    (!agrees).then(|| {
        format!(
            "service said {} {:?}, reference {reference:?}",
            ex.status, ex.cost
        )
    })
}

fn run_service(cfg: &Config) -> Result<RunReport, String> {
    let hot = if cfg.smoke { 2 } else { service::HOT_POOL };
    let mix = match cfg.workload {
        Workload::ServiceCold => service::Mix::Cold,
        _ => service::Mix::Mixed,
    };
    // Set up several times; every server but the last is drained again.
    let mut setups = Vec::with_capacity(SERVICE_SETUP_REPS);
    let mut svc: Option<service::Service> = None;
    for _ in 0..SERVICE_SETUP_REPS {
        if let Some(old) = svc.take() {
            old.server.shutdown();
        }
        let t0 = Instant::now();
        svc = Some(service::set_up(cfg.seed, hot, mix)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let svc = svc.expect("SERVICE_SETUP_REPS > 0");
    let epoch = Instant::now();
    let windows: Vec<service::Window> = if cfg.trace {
        vec![
            service::drive(&svc, cfg.seed, 0, cfg.seconds / 2.0, false, epoch)?,
            service::drive(&svc, cfg.seed, 1, cfg.seconds / 2.0, true, epoch)?,
        ]
    } else {
        vec![service::drive(
            &svc,
            cfg.seed,
            0,
            cfg.seconds,
            false,
            epoch,
        )?]
    };
    let final_stats = svc.server.shutdown();

    // Reference solves of every distinct spec, after the timed section.
    let mut t = Tracer::new(cfg.trace, epoch);
    let mut layers = Layers::default();
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut reference_id = 0;
    let mut references = |specs: &[tempart_cli::SpecFile], t: &mut Tracer, layers: &mut Layers| {
        specs
            .iter()
            .map(|s| {
                let job = reference_job(s);
                reference_id += 1;
                if t.enabled() {
                    let (outcome, work) = batch::solve_traced(&job, reference_id, t);
                    layers.add(&work, &outcome);
                    outcome
                } else {
                    batch::solve(&job)
                }
            })
            .collect::<Vec<Outcome>>()
    };
    let pool_refs = references(&svc.pool, &mut t, &mut layers);
    if cfg.trace {
        // The cache-hit path certifies the cached optimum before reuse:
        // time that check on each hot spec.
        for (i, (s, r)) in svc.pool[..svc.hot].iter().zip(&pool_refs).enumerate() {
            if let Some(why) = check::check_claim(&reference_job(s), r, i, &mut t) {
                failed += 1;
                notes.push(format!("FAIL reference {}: {why}", s.name));
            }
        }
    }
    let mut attempted = 0;
    let mut proven_n = 0;
    for w in &windows {
        let fresh_refs = references(&w.fresh, &mut t, &mut layers);
        for ex in &w.exchanges {
            attempted += 1;
            proven_n += usize::from(ex.proven());
            let reference = pool_refs
                .get(ex.spec)
                .unwrap_or_else(|| &fresh_refs[ex.spec - svc.pool.len()]);
            if let Some(why) = service_verdict(ex, reference) {
                failed += 1;
                notes.push(format!("FAIL spec {}: {why}", ex.spec));
            }
        }
    }
    if final_stats.orphaned() != 0 {
        failed += 1;
        notes.push(format!(
            "FAIL server orphaned {} jobs",
            final_stats.orphaned()
        ));
    }
    let spans = trace::concat(
        windows
            .iter()
            .map(|w| w.spans.clone())
            .chain([t.into_spans()]),
    );

    let timed = windows.last().expect("at least one window");
    let ms = |f: fn(&service::Exchange) -> f64| -> Vec<f64> {
        timed.exchanges.iter().map(|e| f(e) * 1e3).collect()
    };
    let latencies = ms(|e| e.latency);
    let rate = |w: &service::Window| w.exchanges.len() as f64 / w.wall;
    notes.push(format!(
        "{} answers in the last window ({:.1} s); {} fresh specs",
        timed.exchanges.len(),
        timed.wall,
        timed.fresh.len()
    ));
    let metrics = if cfg.trace {
        layers.spans = trace::summarize(&spans);
        layers.overhead_pct = (rate(&windows[0]) / rate(timed) - 1.0) * 100.0;
        layers.accept_ms = median(&ms(|e| e.accept));
        layers.result_ms = median(&ms(|e| e.result));
        layers.job_ms = median(&ms(|e| e.job));
        layers.wire_ms = median(&ms(|e| e.latency - e.job));
        // A disposition the workload never produces (no hits on
        // `service-cold`) reports 0, like any layer it does not exercise.
        let by_cache = |c: &str| -> f64 {
            let ms: Vec<f64> = timed
                .exchanges
                .iter()
                .filter(|e| e.cache == c)
                .map(|e| e.latency * 1e3)
                .collect();
            if ms.is_empty() {
                0.0
            } else {
                median(&ms)
            }
        };
        layers.hit_ms = by_cache("hit");
        layers.miss_ms = by_cache("miss");
        let (a, b) = (&timed.stats_after, &timed.stats_before);
        let hits = a.cache_hits - b.cache_hits;
        let lookups = hits + (a.cache_misses - b.cache_misses) + (a.cache_stale - b.cache_stale);
        layers.cache_hit_frac = hits as f64 / lookups.max(1) as f64;
        layers.shed = (a.shed - b.shed) as f64;
        layers.requeues = (a.requeues - b.requeues) as f64;
        layers.encode_us = median(&ms(|e| e.encode)) * 1e3;
        layers.decode_us = median(&ms(|e| e.decode)) * 1e3;
        let t0 = Instant::now();
        std::hint::black_box(service::spec_pool(cfg.seed, hot, mix));
        layers.generate_ms = t0.elapsed().as_secs_f64() * 1e3;
        layers.metrics()
    } else {
        end_to_end(
            setup_s,
            rate(timed),
            &latencies,
            proven_n as f64 / attempted.max(1) as f64,
        )
    };
    Ok(RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        trace_json: cfg.trace.then(|| {
            trace::to_json(
                &report::stamp(cfg.workload.as_str(), cfg.seed, true),
                &spans,
                &layers.spans,
            )
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use batch::Claim;
    use tempart_lp::MipStatus;

    #[test]
    fn service_answers_must_match_the_reference_solve() {
        let reference = Outcome::Solved(Claim {
            n: 2,
            l: 3,
            status: MipStatus::Optimal,
            cost: Some(0),
            objective: 0.0,
            best_bound: 0.0,
            x: vec![1.0],
        });
        let mut ex = service::Exchange {
            spec: 0,
            latency: 0.09,
            accept: 0.09,
            result: 0.0,
            encode: 0.0,
            decode: 0.0,
            job: 0.01,
            status: "optimal".into(),
            cost: Some(0),
            cache: "hit".into(),
        };
        assert_eq!(service_verdict(&ex, &reference), None);
        ex.cost = Some(1);
        assert!(service_verdict(&ex, &reference).is_some());
        ex.cost = Some(0);
        ex.status = "time-limit".into();
        assert!(service_verdict(&ex, &reference).is_some());
    }
}
