//! `perfbench` — one run of one workload.
//!
//! ```text
//! perfbench --workload search|root-lp|service|service-cold --seed N --seconds S --trace 0|1
//!           [--smoke] [--out DIR]
//! ```
//!
//! Prints the host stamp, one line per metric (`name value unit`), notes
//! on any failed answer, and as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. A traced run also
//! writes its spans to `DIR/trace-<workload>-<seed>.json` (default
//! `perfbench/out`). Exits 1 when any answer fails the output check and 2
//! on a usage or set-up error (no result line).

use std::process::ExitCode;

use tempart_perfbench::{report, run, Config, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload search|root-lp|service|service-cold --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = String::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--out" => out = value,
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    };
    println!("# {}", report::stamp(workload.as_str(), seed, trace));
    let result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &result.notes {
        println!("# {note}");
    }
    for m in &result.metrics.0 {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !trace {
        let failed_frac = result.failed as f64 / result.attempted.max(1) as f64;
        println!("{:<24} {:>16.6} ratio", "failed_frac", failed_frac);
    }
    if let Some(json) = &result.trace_json {
        let path = format!("{out}/trace-{}-{seed}.json", workload.as_str());
        let written = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!(
        "{}",
        report::result_json(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
