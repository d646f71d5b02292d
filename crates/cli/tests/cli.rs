//! End-to-end tests of the `tempart` binary.

use std::process::Command;

fn tempart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tempart"))
}

fn example_spec_path() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tempart-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // One file per test (the test harness names each test's thread): tests
    // run in parallel, and a shared file could be read mid-rewrite.
    let test = std::thread::current()
        .name()
        .unwrap_or("main")
        .replace("::", "-");
    let path = dir.join(format!("example-{test}.json"));
    let out = tempart().arg("example").output().expect("run example");
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).expect("write spec");
    path
}

#[test]
fn example_emits_valid_spec() {
    let out = tempart().arg("example").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    let spec = tempart_cli::SpecFile::from_json(&text).expect("parses");
    assert_eq!(spec.name, "dsp-block");
}

#[test]
fn solve_pipeline_via_binary() {
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "2", "--latency", "1", "--limit", "120"])
        .output()
        .expect("run solve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("status: optimal"), "{stdout}");
    assert!(stdout.contains("communication cost") || stdout.contains("temporal partitioning"));
    assert!(stdout.contains("register demand"));
}

#[test]
fn solve_json_summary_via_binary() {
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "2", "--latency", "1", "--json"])
        .output()
        .expect("run solve --json");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    for key in [
        "\"status\":\"optimal\"",
        "\"gap\":0",
        "\"source\":\"exact\"",
        "\"objective\":0",
        "\"nodes\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

#[test]
fn solve_faulted_expired_limit_still_reports_answer() {
    // A fault plan plus an already-expired deadline: the anytime contract
    // must still exit 0 with a feasible answer and a reported source.
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args([
            "--partitions",
            "2",
            "--latency",
            "1",
            "--faults",
            "singular@1,skew@1",
            "--json",
        ])
        .output()
        .expect("run solve --faults");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.contains("\"status\":"), "{line}");
    assert!(line.contains("\"source\":"), "{line}");
}

#[test]
fn solve_scale_flags_prove_the_same_optimum() {
    // Every scale feature on at once: the answer must match the default
    // features-off run (same status, same objective).
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args([
            "--partitions",
            "2",
            "--latency",
            "1",
            "--cuts",
            "--propagate",
            "--branching",
            "pseudocost",
            "--json",
        ])
        .output()
        .expect("run solve with scale flags");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.contains("\"status\":\"optimal\""), "{line}");
    assert!(line.contains("\"objective\":0"), "{line}");

    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "2", "--branching", "strongest"])
        .output()
        .expect("run solve with bad branching");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--branching takes rule or pseudocost"),
        "{stderr}"
    );

    // Retired solver paths are refused by the parser, not silently ignored.
    for (flags, message) in [
        (&["--portfolio"][..], "unexpected argument `--portfolio`"),
        (&["--rins"][..], "unexpected argument `--rins`"),
        (
            &["--pricing", "bland"][..],
            "unexpected argument `--pricing`",
        ),
        (
            &["--pricing", "devex"][..],
            "unexpected argument `--pricing`",
        ),
        (
            &["--refactor", "dynamic"][..],
            "unexpected argument `--refactor`",
        ),
        (
            &["--basis-update", "ft-markowitz"][..],
            "unexpected argument `--basis-update`",
        ),
    ] {
        let out = tempart()
            .arg("solve")
            .arg(&spec)
            .args(["--partitions", "2"])
            .args(flags)
            .output()
            .expect("run solve with a retired flag");
        assert!(!out.status.success(), "{flags:?} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
    }
}

#[test]
fn estimate_reports_segments() {
    let spec = example_spec_path();
    let out = tempart().arg("estimate").arg(&spec).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("critical path"));
    assert!(stdout.contains("segment 1"));
}

#[test]
fn dot_emits_graphviz() {
    let spec = example_spec_path();
    let out = tempart().arg("dot").arg(&spec).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph"));
}

#[test]
fn export_emits_lp_and_mps() {
    let spec = example_spec_path();
    for (fmt, marker) in [("lp", "Minimize"), ("mps", "ENDATA")] {
        let out = tempart()
            .arg("export")
            .arg(&spec)
            .args(["--partitions", "2", "--latency", "1", "--format", fmt])
            .output()
            .expect("run export");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(marker),
            "format {fmt}: {}",
            &stdout[..200.min(stdout.len())]
        );
    }
}

#[test]
fn bad_usage_fails_with_message() {
    let out = tempart().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));

    let out = tempart().arg("solve").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"));
}
