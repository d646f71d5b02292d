//! The `tables` binary reports failure through its exit code.

use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run tables")
}

#[test]
fn unknown_experiment_fails() {
    let out = tables(&["no-such-experiment"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment `no-such-experiment`"),
        "{stderr}"
    );
}

#[cfg(not(feature = "race"))]
#[test]
fn race_without_its_feature_fails() {
    let out = tables(&["race"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--features race"));
}
