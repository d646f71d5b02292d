//! Workload inputs: the pinned paper rows plus seed-drawn specifications.
//!
//! Every input is a [`SpecFile`], the same JSON specification the CLI
//! reads and the server receives, so the solver only ever sees generated
//! specifications. The same `--seed` always yields the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempart_bench::paper_graph;
use tempart_cli::{DeviceSpec, EdgeSpec, FuSpec, SpecFile, TaskSpec};
use tempart_graph::TaskGraph;

/// Node budget of every seed-drawn `search` MIP. Graph-1-shaped specs need
/// hundreds of nodes to prove optimality, so each answer spends exactly
/// this many nodes in the latency step that finds a partition.
pub const SEARCH_NODE_BUDGET: usize = 100;
/// Node budget of the pinned Table-3 rows: ample for the 585-node g1-N3-L1
/// proof, so these rows always end proven.
pub const PINNED_NODE_BUDGET: usize = 5_000;
/// Seed-drawn `search` specifications per pass.
pub const SEARCH_DRAWN: usize = 8;
/// Seed-drawn copies of each small `root-lp` configuration per pass.
pub const ROOT_DRAWN_PER_ROW: usize = 1;

/// How one job is solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `tempart solve --partitions n --latency l --node-limit max_nodes`.
    Fixed { n: u32, l: u32, max_nodes: usize },
    /// The Figure-2 pipeline: estimate `N`, sweep `L` from 0 to 3.
    Auto { max_nodes: usize },
}

/// The answer a pinned row must give.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// Proven optimal at this communication cost.
    Cost(u64),
    /// Proven infeasible at the configuration.
    Infeasible,
    /// A seed-drawn spec: checked by certificate and the naive packer only.
    Unpinned,
}

/// One unit of batch work.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable label, e.g. `g1-N3-L1` or `drawn-07`.
    pub label: String,
    pub spec: SpecFile,
    pub mode: Mode,
    pub expect: Expect,
}

/// Converts a task graph plus an exploration set into a wire
/// specification on the paper's device.
pub fn to_spec(name: &str, g: &TaskGraph, ams: (u32, u32, u32)) -> SpecFile {
    let tasks = g
        .tasks()
        .iter()
        .map(|t| {
            let ids = t.ops();
            let local = |op| {
                ids.iter()
                    .position(|&o| o == op)
                    .expect("op belongs to its task")
            };
            TaskSpec {
                name: t.name().to_string(),
                ops: ids
                    .iter()
                    .map(|&o| g.op(o).kind().mnemonic().to_string())
                    .collect(),
                deps: t
                    .op_graph()
                    .edges()
                    .iter()
                    .map(|&(a, b)| [local(a), local(b)])
                    .collect(),
            }
        })
        .collect();
    let edges = g
        .task_edges()
        .iter()
        .map(|e| EdgeSpec {
            from: g.task(e.from).name().to_string(),
            to: g.task(e.to).name().to_string(),
            bandwidth: e.bandwidth.units(),
        })
        .collect();
    let fu = |type_name: &str, count| FuSpec {
        type_name: type_name.into(),
        count,
    };
    SpecFile {
        name: name.to_string(),
        tasks,
        edges,
        fus: vec![fu("add16", ams.0), fu("mul8", ams.1), fu("sub16", ams.2)],
        device: DeviceSpec {
            name: "date98".into(),
            capacity: 100,
            scratch_memory: 2048,
            alpha: 0.7,
            reconfig_cycles: 164_000,
            memory_word_cycles: 1,
        },
    }
}

/// `base` with every task-edge bandwidth redrawn from the paper
/// generator's range `1..=8`: the same model structure (rows, columns,
/// nonzeros) with a seed-drawn objective.
fn redraw_bandwidths(base: &SpecFile, name: String, rng: &mut StdRng) -> SpecFile {
    let mut spec = base.clone();
    spec.name = name;
    for e in &mut spec.edges {
        e.bandwidth = rng.gen_range(1..=8u64);
    }
    spec
}

/// Graph 1 with the `2+2+1` exploration set (Table 3).
fn g1_spec() -> SpecFile {
    to_spec("date98-graph1", &paper_graph(1), (2, 2, 1))
}

/// Places the pinned jobs at even strides among the drawn ones, so any
/// prefix of a pass has the pass's mix.
fn interleave(pinned: Vec<Job>, drawn: Vec<Job>) -> Vec<Job> {
    let stride = drawn.len() / pinned.len().max(1) + 1;
    let mut out = Vec::with_capacity(pinned.len() + drawn.len());
    let mut pinned = pinned.into_iter();
    for (i, job) in drawn.into_iter().enumerate() {
        if i % stride == 0 {
            out.extend(pinned.next());
        }
        out.push(job);
    }
    out.extend(pinned);
    out
}

/// The `search` work set: the four Table-3 rows on graph 1 and
/// `drawn` graph-1-shaped specs with seed-drawn bandwidths, the latter
/// through the Figure-2 auto pipeline under [`SEARCH_NODE_BUDGET`].
pub fn search_jobs(seed: u64, drawn: usize) -> Vec<Job> {
    let base = g1_spec();
    let pinned = [
        (3, 0, Expect::Infeasible),
        (3, 1, Expect::Cost(13)),
        (2, 2, Expect::Cost(5)),
        (2, 3, Expect::Cost(0)),
    ]
    .into_iter()
    .map(|(n, l, expect)| Job {
        label: format!("g1-N{n}-L{l}"),
        spec: base.clone(),
        mode: Mode::Fixed {
            n,
            l,
            max_nodes: PINNED_NODE_BUDGET,
        },
        expect,
    })
    .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let drawn = (0..drawn)
        .map(|i| {
            let label = format!("drawn-{i:02}");
            Job {
                spec: redraw_bandwidths(&base, format!("g1-{label}"), &mut rng),
                label,
                mode: Mode::Auto {
                    max_nodes: SEARCH_NODE_BUDGET,
                },
                expect: Expect::Unpinned,
            }
        })
        .collect();
    interleave(pinned, drawn)
}

/// A table row: (graph, A+M+S, N, L).
pub type Row = (usize, (u32, u32, u32), u32, u32);

/// The Table-4 rows of the `root-lp` workload.
pub const TABLE4_ROWS: [Row; 7] = [
    (2, (3, 2, 2), 4, 5),
    (3, (2, 2, 2), 3, 5),
    (4, (2, 2, 2), 2, 6),
    (5, (2, 2, 2), 3, 6),
    (5, (2, 2, 2), 2, 6),
    (6, (2, 2, 2), 2, 13),
    (6, (2, 2, 2), 3, 13),
];

/// The `root-lp` work set: the seven Table-4 rows (cost 0 at the root)
/// and `per_row` seed-drawn copies of each graph-2..5 row with redrawn
/// bandwidths, all under a 1-node budget. Graph 6 (26k rows) appears only
/// pinned: one redrawn copy's cold LP ranges 2.7-5.3 s with its objective
/// and would dominate the seed-to-seed spread.
pub fn root_lp_jobs(seed: u64, per_row: usize) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pinned = Vec::new();
    let mut drawn = Vec::new();
    for (g, ams, n, l) in TABLE4_ROWS {
        let label = format!("g{g}-N{n}-L{l}");
        let base = to_spec(&format!("date98-graph{g}"), &paper_graph(g), ams);
        let mode = Mode::Fixed { n, l, max_nodes: 1 };
        if g < 6 {
            for k in 0..per_row {
                let name = format!("{label}-drawn-{k}");
                drawn.push(Job {
                    spec: redraw_bandwidths(&base, name.clone(), &mut rng),
                    label: name,
                    mode,
                    expect: Expect::Unpinned,
                });
            }
        }
        pinned.push(Job {
            label,
            spec: base,
            mode,
            expect: Expect::Cost(0),
        });
    }
    interleave(pinned, drawn)
}

/// Configuration every `service` request asks for: graph 1's `(2, 3)`
/// row, which any bandwidth assignment solves at the root (cost 0), so each
/// solve takes milliseconds and the request path around it dominates.
pub const SERVICE_CONFIG: (u32, u32) = (2, 3);

/// A fresh `service` specification: graph 1 with seed-drawn bandwidths.
/// Each draw has its own cache fingerprint. (Random 5-task topologies at a
/// fixed configuration put 10-20% of solves past the server's 5 s default
/// deadline, which would make the workload measure the deadline instead.)
pub fn service_spec(name: String, rng: &mut StdRng) -> SpecFile {
    redraw_bandwidths(&g1_spec(), name, rng)
}
