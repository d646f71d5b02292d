//! Property-based optimality certification: random tiny specifications are
//! solved by the ILP and cross-checked against the exhaustive oracle, under
//! random device pressure.

use proptest::prelude::*;
use tempart::core::{brute, IlpModel, Instance, ModelConfig, SolveOptions};
use tempart::graph::{
    Bandwidth, ComponentLibrary, FpgaDevice, FunctionGenerators, OpKind, TaskGraphBuilder,
};
use tempart::lp::{Branching, MipStatus};

#[derive(Debug, Clone)]
struct SpecShape {
    /// Per task: op kinds (1..=2 ops).
    tasks: Vec<Vec<u8>>,
    /// Chain edges: bandwidth of `t(i) → t(i+1)`.
    bandwidths: Vec<u8>,
    /// Extra skip edge `t0 → t2` bandwidth (0 = absent).
    skip_bw: u8,
    /// Device: capacity index into a fixed menu.
    device_sel: u8,
}

fn shape() -> impl Strategy<Value = SpecShape> {
    let task = prop::collection::vec(0u8..3, 1..=2);
    (
        prop::collection::vec(task, 2..=3),
        prop::collection::vec(1u8..=6, 2),
        0u8..=6,
        0u8..4,
    )
        .prop_map(|(tasks, bandwidths, skip_bw, device_sel)| SpecShape {
            tasks,
            bandwidths,
            skip_bw,
            device_sel,
        })
}

fn build(shape: &SpecShape) -> Instance {
    let mut b = TaskGraphBuilder::new("prop");
    let mut ids = Vec::new();
    for (ti, kinds) in shape.tasks.iter().enumerate() {
        let t = b.task(format!("t{ti}"));
        ids.push(t);
        let mut prev = None;
        for &k in kinds {
            let kind = match k {
                0 => OpKind::Add,
                1 => OpKind::Mul,
                _ => OpKind::Sub,
            };
            let op = b.op(t, kind).unwrap();
            if let Some(p) = prev {
                b.op_edge(p, op).unwrap();
            }
            prev = Some(op);
        }
    }
    for i in 1..ids.len() {
        b.task_edge(
            ids[i - 1],
            ids[i],
            Bandwidth::new(u64::from(shape.bandwidths[i - 1])),
        )
        .unwrap();
    }
    if shape.skip_bw > 0 && ids.len() >= 3 {
        b.task_edge(ids[0], ids[2], Bandwidth::new(u64::from(shape.skip_bw)))
            .unwrap();
    }
    let lib = ComponentLibrary::date98_default();
    let fus = lib
        .exploration_set(&[("add16", 1), ("mul8", 1), ("sub16", 1)])
        .unwrap();
    let (capacity, scratch) = match shape.device_sel {
        0 => (800, 2048), // roomy
        1 => (95, 2048),  // area-tight
        2 => (95, 5),     // memory-tight
        _ => (75, 2048),  // very tight: at most one big unit per segment
    };
    let dev = FpgaDevice::builder("prop")
        .capacity(FunctionGenerators::new(capacity))
        .scratch_memory(Bandwidth::new(scratch))
        .alpha(0.7)
        .build()
        .unwrap();
    Instance::new(b.build().unwrap(), fus, dev).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ILP optimum equals the exhaustive optimum (or both report
    /// infeasibility), and every returned solution passes semantic
    /// validation.
    #[test]
    fn ilp_is_exactly_optimal(shape in shape()) {
        let inst = build(&shape);
        let config = ModelConfig::tightened(2, 1);
        let model = IlpModel::build(inst.clone(), config.clone()).expect("build");
        let out = model.solve(&SolveOptions::default()).expect("solve");
        let oracle = brute::brute_force_optimum(&inst, &config);
        match oracle {
            Some((_, cost)) => {
                prop_assert_eq!(out.status, MipStatus::Optimal);
                let sol = out.solution.expect("optimal has solution");
                prop_assert_eq!(sol.communication_cost(), cost,
                    "ILP {} vs oracle {}", sol.communication_cost(), cost);
                sol.validate(&inst, &config).expect("semantic validation");
            }
            None => prop_assert_eq!(out.status, MipStatus::Infeasible),
        }
    }

    /// The multi-threaded tree search proves exactly the oracle optimum as
    /// well — the parallel solver's determinism contract on real models.
    #[test]
    fn parallel_ilp_matches_oracle(shape in shape()) {
        let inst = build(&shape);
        let config = ModelConfig::tightened(2, 1);
        let model = IlpModel::build(inst.clone(), config.clone()).expect("build");
        let oracle = brute::brute_force_optimum(&inst, &config);
        for threads in [2usize, 4] {
            let mut opts = SolveOptions::default();
            opts.mip.threads = threads;
            let out = model.solve(&opts).expect("solve");
            match &oracle {
                Some((_, cost)) => {
                    prop_assert_eq!(out.status, MipStatus::Optimal, "threads {}", threads);
                    let sol = out.solution.expect("optimal has solution");
                    prop_assert_eq!(sol.communication_cost(), *cost,
                        "threads {}: ILP {} vs oracle {}",
                        threads, sol.communication_cost(), cost);
                    sol.validate(&inst, &config).expect("semantic validation");
                }
                None => prop_assert_eq!(out.status, MipStatus::Infeasible, "threads {}", threads),
            }
        }
    }

    /// The scale stack — root cover/clique cuts, node bound propagation and
    /// pseudo-cost branching — proves exactly the oracle optimum on real
    /// models too: cuts may only remove fractional points, propagation may
    /// only fix what the bounds force, and branching order never moves
    /// the optimum.
    #[test]
    fn scale_stack_ilp_matches_oracle(shape in shape()) {
        let inst = build(&shape);
        let config = ModelConfig::tightened(2, 1);
        let model = IlpModel::build(inst.clone(), config.clone()).expect("build");
        let oracle = brute::brute_force_optimum(&inst, &config);
        let mut opts = SolveOptions::default();
        opts.mip.cuts = true;
        opts.mip.propagate = true;
        opts.mip.branching = Branching::Pseudocost;
        let out = model.solve(&opts).expect("solve");
        match &oracle {
            Some((_, cost)) => {
                prop_assert_eq!(out.status, MipStatus::Optimal);
                let sol = out.solution.expect("optimal has solution");
                prop_assert_eq!(sol.communication_cost(), *cost,
                    "scale-stack ILP {} vs oracle {}", sol.communication_cost(), cost);
                sol.validate(&inst, &config).expect("semantic validation");
            }
            None => prop_assert_eq!(out.status, MipStatus::Infeasible),
        }
    }
}
