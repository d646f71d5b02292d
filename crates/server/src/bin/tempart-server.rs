//! `tempart-server` — run the solve service until a wire `shutdown`.
//!
//! ```text
//! tempart-server [--addr HOST:PORT] [--workers N] [--queue N]
//!                [--max-time SECS] [--default-time SECS]
//!                [--max-threads N] [--cache N] [--faults PLAN]
//! ```
//!
//! Prints `listening on <addr>` once bound (with `--addr 127.0.0.1:0` the
//! OS-assigned port appears here — scripts scrape it), then blocks until a
//! client sends `shutdown`. The graceful drain finishes every in-flight
//! job on the anytime path and prints a final accounting line (every
//! service counter, `orphaned` last); the exit code is 0 only when no
//! accepted job was orphaned.
//!
//! `--faults PLAN` scripts the deterministic chaos plan (see
//! `tempart-lp`'s grammar; service sites: `slowclient`, `tornframe`,
//! `disconnect`, `panic`, `cachepoison`).

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use tempart_lp::FaultPlan;
use tempart_server::ServerConfig;

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut take = |what: &str| it.next().ok_or(format!("{what} takes a value"));
        match a.as_str() {
            "--addr" => config.addr = take("--addr")?,
            "--workers" => {
                config.workers = take("--workers")?
                    .parse()
                    .map_err(|_| "--workers takes a count")?
            }
            "--queue" => {
                config.queue_capacity = take("--queue")?
                    .parse()
                    .map_err(|_| "--queue takes a depth")?
            }
            "--max-time" => {
                config.max_time_limit_secs = take("--max-time")?
                    .parse()
                    .map_err(|_| "--max-time takes seconds")?
            }
            "--default-time" => {
                config.default_time_limit_secs = take("--default-time")?
                    .parse()
                    .map_err(|_| "--default-time takes seconds")?
            }
            "--max-threads" => {
                config.max_threads = take("--max-threads")?
                    .parse()
                    .map_err(|_| "--max-threads takes a count")?
            }
            "--cache" => {
                config.cache_capacity = take("--cache")?
                    .parse()
                    .map_err(|_| "--cache takes an entry count")?
            }
            "--faults" => {
                config.faults = Some(Arc::new(FaultPlan::parse(&take("--faults")?)?));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if config.workers == 0 {
        return Err(
            "--workers must be at least 1 (a workerless server never finishes a job)".to_string(),
        );
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tempart-server [--addr HOST:PORT] [--workers N] [--queue N] \
                 [--max-time SECS] [--default-time SECS] [--max-threads N] [--cache N] \
                 [--faults PLAN]"
            );
            return ExitCode::FAILURE;
        }
    };
    let handle = match tempart_server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    let stats = handle.join();
    println!("drained: {}", tempart_lp::stats::text(&stats.stats()));
    if stats.orphaned() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
