//! One stats schema: the same seeded g1-N3-L1 solve reports the same
//! stats keys, in the same order, through `tempart --json`, the server's
//! `Result` frame and a `tables` row — and the same deterministic counters.

use std::net::TcpStream;
use std::process::Command;

use tempart_bench::{date98_device, date98_instance, run_row, RowConfig};
use tempart_cli::json::{self, Value};
use tempart_cli::proto::{read_frame, write_frame, Request, SolveParams};
use tempart_cli::SpecFile;
use tempart_core::{ModelConfig, RuleKind};
use tempart_lp::stats::Stat;
use tempart_lp::{JsonObject, MipStats};
use tempart_server::{start, ServerConfig, StatsSnapshot};

/// The names of a field list, checked for duplicates.
fn unique_names(stats: &[Stat]) -> Vec<String> {
    let names: Vec<String> = stats.iter().map(|&(n, _)| n.to_string()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name appears twice: {names:?}");
    names
}

/// The keys of a JSON object that belong to `schema`, in order, and its
/// `(nodes, lp_iterations)`.
fn schema_part(obj: &Value, schema: &[String]) -> (Vec<String>, (u64, u64)) {
    let Value::Obj(fields) = obj else {
        panic!("expected an object, got {obj:?}")
    };
    let keys = fields.iter().map(|(k, _)| k.clone());
    let get = |name| obj.get(name).and_then(Value::as_u64).expect(name);
    (
        keys.filter(|k| schema.contains(k)).collect(),
        (get("nodes"), get("lp_iterations")),
    )
}

#[test]
fn g1_solve_reports_one_schema_everywhere() {
    let schema = unique_names(&MipStats::default().stats());
    unique_names(&StatsSnapshot::default().stats());
    let instance = date98_instance(1, 2, 2, 1, date98_device()).expect("graph 1 builds");
    let spec = SpecFile::from_instance("date98-graph1", &instance);

    // `tempart --json`, through the binary: the answer keys, then exactly
    // the schema.
    let path = std::env::temp_dir().join(format!("tempart-schema-{}.json", std::process::id()));
    std::fs::write(&path, spec.to_json()).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_tempart"))
        .arg("solve")
        .arg(&path)
        .args(["--partitions", "3", "--latency", "1", "--json"])
        .output()
        .expect("run tempart");
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("one JSON line");
    let Value::Obj(fields) = &cli else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys[..4], ["status", "gap", "source", "objective"]);
    assert_eq!(keys[4..], schema);
    let (cli_keys, cli_counts) = schema_part(&cli, &schema);

    // The `Result` frame of an in-process server: a `stats` object beside
    // the frame's own keys.
    let server = start(ServerConfig {
        max_time_limit_secs: 600.0,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let params = SolveParams {
        config: Some((3, 1)),
        time_limit_secs: Some(600.0),
        ..SolveParams::default()
    };
    let request = Request::Solve { spec, params };
    write_frame(&mut stream, &request.to_json()).expect("send");
    let frame = loop {
        let text = read_frame(&mut stream).expect("read").expect("frame");
        let v = json::parse(&text).expect("frame parses");
        if v.get("type").and_then(Value::as_str) == Some("result") {
            break v;
        }
    };
    drop(stream);
    assert_eq!(server.shutdown().orphaned(), 0);
    for key in "type job status objective best_bound cost nodes lp_iterations source cache \
                requeued seconds"
        .split_whitespace()
    {
        assert!(frame.get(key).is_some(), "Result frame lost `{key}`");
    }
    let (frame_keys, frame_counts) = schema_part(frame.get("stats").expect("stats"), &schema);

    // A `tables` row of the same solve.
    let row = run_row(&RowConfig {
        seed_incumbent: true,
        ..RowConfig::paper(
            1,
            (2, 2, 1),
            ModelConfig::tightened(3, 1),
            RuleKind::Paper,
            600.0,
        )
    })
    .expect("row solves");
    let mut o = JsonObject::new();
    row.write_json(&mut o);
    let (row_keys, row_counts) = schema_part(&json::parse(&o.finish()).expect("row"), &schema);

    assert_eq!(cli_keys, schema);
    assert_eq!(frame_keys, schema);
    assert_eq!(row_keys, schema);
    assert_eq!(cli_counts, (269, 8_285), "the seeded g1-N3-L1 pin");
    assert_eq!(frame_counts, cli_counts);
    assert_eq!(row_counts, cli_counts);
}
