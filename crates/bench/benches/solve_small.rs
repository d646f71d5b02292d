//! Criterion bench: full branch-and-bound solves of graph 1 — the Table 3
//! rows as statistically sampled benchmarks (the larger graphs live in the
//! `tables` binary because their runtimes do not suit criterion sampling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tempart_bench::{date98_device, date98_instance};
use tempart_core::{IlpModel, ModelConfig, RuleKind, SolveOptions};
use tempart_lp::MipOptions;

fn bench_graph1_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_graph1");
    group.sample_size(10);
    for (n, l) in [(3u32, 0u32), (3, 1), (2, 2), (2, 3)] {
        let instance = date98_instance(1, 2, 2, 1, date98_device()).expect("instance");
        let model = IlpModel::build(instance, ModelConfig::tightened(n, l)).expect("build");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("N{n}-L{l}")),
            &model,
            |b, model| {
                b.iter(|| {
                    let mip = MipOptions {
                        time_limit_secs: 120.0,
                        ..MipOptions::default()
                    };
                    model
                        .solve(&SolveOptions {
                            mip,
                            rule: RuleKind::Paper,
                            seed_incumbent: true,
                        })
                        .expect("solve")
                        .stats
                        .nodes
                })
            },
        );
    }
    group.finish();
}

fn bench_rule_comparison(c: &mut Criterion) {
    // The §8 ablation as a sampled benchmark: guided vs unguided branching
    // on the same model. Uses the (N=2, L=3) row where all three rules stay
    // within criterion-friendly runtimes; the full contrast on the harder
    // (3, 1) row lives in `tables -- ablation`.
    let mut group = c.benchmark_group("branching_rules_g1");
    group.sample_size(10);
    for rule in [
        RuleKind::Paper,
        RuleKind::FirstIndex,
        RuleKind::MostFractional,
    ] {
        let instance = date98_instance(1, 2, 2, 1, date98_device()).expect("instance");
        let model = IlpModel::build(instance, ModelConfig::tightened(2, 3)).expect("build");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rule}")),
            &(model, rule),
            |b, (model, rule)| {
                b.iter(|| {
                    let mip = MipOptions {
                        time_limit_secs: 120.0,
                        ..MipOptions::default()
                    };
                    model
                        .solve(&SolveOptions {
                            mip,
                            rule: *rule,
                            seed_incumbent: true,
                        })
                        .expect("solve")
                        .stats
                        .nodes
                })
            },
        );
    }
    group.finish();
}

fn bench_parallel_speedup(c: &mut Criterion) {
    // Serial vs fully parallel node search on the Table 3 workhorse row
    // (graph 1, N=3, L=1 — 271 serial nodes unseeded). The `tables --
    // parallel` experiment sweeps intermediate thread counts; this group
    // keeps the two endpoints under criterion sampling.
    let max_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut group = c.benchmark_group("parallel_speedup_g1_N3_L1");
    group.sample_size(10);
    for threads in [1usize, max_threads] {
        let instance = date98_instance(1, 2, 2, 1, date98_device()).expect("instance");
        let model = IlpModel::build(instance, ModelConfig::tightened(3, 1)).expect("build");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}threads")),
            &model,
            |b, model| {
                b.iter(|| {
                    let mip = MipOptions {
                        time_limit_secs: 120.0,
                        threads,
                        ..MipOptions::default()
                    };
                    model
                        .solve(&SolveOptions {
                            mip,
                            rule: RuleKind::Paper,
                            seed_incumbent: false,
                        })
                        .expect("solve")
                        .stats
                        .nodes
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_graph1_rows,
    bench_rule_comparison,
    bench_parallel_speedup
);
criterion_main!(benches);
