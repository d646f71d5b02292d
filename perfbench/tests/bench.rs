//! The benchmark's own tests. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use tempart_perfbench::batch::{run_timed, Outcome};
use tempart_perfbench::check::check_answers;
use tempart_perfbench::spec::search_jobs;
use tempart_perfbench::trace::Tracer;
use tempart_perfbench::{run, Config, Workload};

const WORKLOADS: [&str; 4] = ["search", "root-lp", "service", "service-cold"];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |chunk: &str, key: &str| {
        let at = chunk.find(&format!("\"{key}\"")).expect("key present");
        chunk[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

fn smoke_run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tempart-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", trace, "--smoke"])
        .args([
            "--out",
            concat!(env!("CARGO_TARGET_TMPDIR"), "/perfbench-out"),
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace={trace}:\n{stdout}");
    stdout
}

#[test]
fn smoke_run_prints_every_declared_metric_with_its_unit() {
    for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} lists metrics");
        for workload in WORKLOADS {
            let stdout = smoke_run(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true"), "{last}");
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
                let tail = &last[at + entry.len()..];
                let value = &tail[..tail.find(',').expect("value then unit")];
                assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
                assert!(
                    tail.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} lacks unit {unit}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(name.as_str()) && l.ends_with(unit.as_str())),
                    "{workload}: no text line for {name}"
                );
            }
        }
    }
}

#[test]
fn output_check_rejects_planted_wrong_answers() {
    let jobs = search_jobs(3, 2);
    let timed = run_timed(&jobs, 0.0, 1);
    let mut off = Tracer::new(false, std::time::Instant::now());
    let verdicts = check_answers(&jobs, &timed.answers, &mut off);
    assert!(verdicts.iter().all(Option::is_none), "{verdicts:?}");

    let pinned = jobs
        .iter()
        .position(|j| j.label == "g1-N3-L1")
        .expect("pinned row");
    let drawn = jobs
        .iter()
        .position(|j| j.label == "drawn-00")
        .expect("drawn spec");
    let mut answers = timed.answers.clone();
    // A pinned row off by one, and a drawn spec claiming a better
    // objective than its incumbent has.
    for a in &mut answers {
        if let Outcome::Solved(c) = &mut a.outcome {
            if a.job == pinned {
                c.cost = c.cost.map(|v| v - 1);
            } else if a.job == drawn {
                c.objective -= 1.0;
            }
        }
    }
    let verdicts = check_answers(&jobs, &answers, &mut off);
    for (a, v) in answers.iter().zip(&verdicts) {
        assert_eq!(
            v.is_some(),
            a.job == pinned || a.job == drawn,
            "{}: {v:?}",
            jobs[a.job].label
        );
    }
}

#[test]
fn batch_counters_repeat_exactly_for_one_seed() {
    for workload in [Workload::Search, Workload::RootLp] {
        let cfg = Config {
            workload,
            seed: 11,
            seconds: 0.5,
            trace: true,
            smoke: true,
        };
        let (a, b) = (run(&cfg).expect("runs"), run(&cfg).expect("runs"));
        assert!(a.correct && b.correct, "{:?} {:?}", a.notes, b.notes);
        for name in [
            "lp.nodes",
            "lp.pivots",
            "lp.refactors",
            "core.cost_sum",
            "core.rows",
        ] {
            let (x, y) = (a.metrics.get(name), b.metrics.get(name));
            assert!(
                x.is_some_and(|v| v > 0.0) || name == "core.cost_sum",
                "{name}: {x:?}"
            );
            assert_eq!(x, y, "{workload:?} {name}");
        }
    }
}

#[test]
fn traced_answers_are_covered_by_their_layer_spans() {
    for workload in [
        Workload::Search,
        Workload::RootLp,
        Workload::Service,
        Workload::ServiceCold,
    ] {
        let report = run(&Config {
            workload,
            seed: 5,
            seconds: 1.0,
            trace: true,
            smoke: true,
        })
        .expect("runs");
        let coverage = report
            .metrics
            .get("trace.coverage_min_pct")
            .expect("reported");
        assert!(coverage >= 95.0, "{workload:?}: {coverage}%");
    }
}

#[test]
fn cold_service_requests_all_miss_the_cache() {
    let report = run(&Config {
        workload: Workload::ServiceCold,
        seed: 5,
        seconds: 1.0,
        trace: true,
        smoke: true,
    })
    .expect("runs");
    assert!(report.correct, "{:?}", report.notes);
    assert_eq!(report.metrics.get("server.cache_hit_frac"), Some(0.0));
    assert_eq!(report.metrics.get("server.hit_ms"), Some(0.0));
    assert!(report
        .metrics
        .get("server.miss_ms")
        .is_some_and(|v| v > 0.0));
}
