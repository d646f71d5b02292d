//! # tempart-cli
//!
//! JSON specification format and loader for the `tempart` command-line
//! frontend. A specification file bundles the task graph, the
//! functional-unit exploration set, and the target device:
//!
//! ```json
//! {
//!   "name": "dsp-block",
//!   "tasks": [
//!     { "name": "fir", "ops": ["mul", "mul", "add"], "deps": [[0, 2], [1, 2]] },
//!     { "name": "post", "ops": ["sub"] }
//!   ],
//!   "edges": [ { "from": "fir", "to": "post", "bandwidth": 8 } ],
//!   "fus": [ { "type": "add16", "count": 1 }, { "type": "mul8", "count": 2 },
//!            { "type": "sub16", "count": 1 } ],
//!   "device": {
//!     "name": "xc4010",
//!     "capacity": 800,
//!     "scratch_memory": 2048,
//!     "alpha": 0.7,
//!     "reconfig_cycles": 164000,
//!     "memory_word_cycles": 1
//!   }
//! }
//! ```
//!
//! `ops` entries are operation-kind mnemonics (`add`, `sub`, `mul`, `cmp`,
//! `log`); `deps` are intra-task `[from_index, to_index]` pairs; `fus` types
//! come from the built-in DATE-98 component library
//! ([`ComponentLibrary::date98_default`]).
//!
//! [`ComponentLibrary::date98_default`]: tempart_graph::ComponentLibrary::date98_default

use std::fmt;

use tempart_core::Instance;
use tempart_graph::{
    Bandwidth, ComponentLibrary, FpgaDevice, FunctionGenerators, OpKind, TaskGraphBuilder,
};

pub mod json;
pub mod proto;

use json::Value;
use tempart_lp::stats::{write_escaped, write_num};

/// One task: named, with operation mnemonics and intra-task dependencies.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Task name (unique within the file).
    pub name: String,
    /// Operation kinds, by mnemonic: `add`, `sub`, `mul`, `cmp`, `log`.
    pub ops: Vec<String>,
    /// Intra-task dependencies as `[from_index, to_index]` pairs
    /// (defaults to none).
    pub deps: Vec<[usize; 2]>,
}

/// One inter-task edge.
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    /// Producing task name.
    pub from: String,
    /// Consuming task name.
    pub to: String,
    /// Data words staged if the endpoint tasks are split.
    pub bandwidth: u64,
}

/// One functional-unit class in the exploration set.
#[derive(Debug, Clone)]
pub struct FuSpec {
    /// Library type name (e.g. `add16`, `mul8`, `sub16`, `cmp16`, `alu16`) —
    /// the `type` key in JSON.
    pub type_name: String,
    /// Instance count.
    pub count: u32,
}

/// Device parameters.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Device name.
    pub name: String,
    /// Resource capacity `C` in function generators.
    pub capacity: u32,
    /// Scratch memory `M_s` in data words.
    pub scratch_memory: u64,
    /// Logic-optimization factor `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Reconfiguration latency in cycles (simulator only; defaults to the
    /// XC6200 figure of 164 000).
    pub reconfig_cycles: u64,
    /// Per-word scratch access latency in cycles (simulator only; defaults
    /// to 1).
    pub memory_word_cycles: u64,
}

/// A complete specification file.
#[derive(Debug, Clone)]
pub struct SpecFile {
    /// Specification name.
    pub name: String,
    /// Tasks in any topological-friendly order.
    pub tasks: Vec<TaskSpec>,
    /// Inter-task edges (defaults to none).
    pub edges: Vec<EdgeSpec>,
    /// Functional-unit exploration set.
    pub fus: Vec<FuSpec>,
    /// Target device.
    pub device: DeviceSpec,
}

/// Errors raised while loading a specification.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadError {
    /// JSON syntax or shape error.
    Json(String),
    /// Unknown operation mnemonic.
    UnknownOpKind(String),
    /// A `deps` or `edges` entry referenced something undefined.
    UnknownReference(String),
    /// Graph/library construction failed (cycles, coverage, bounds…).
    Graph(tempart_graph::GraphError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Json(e) => write!(f, "invalid JSON: {e}"),
            LoadError::UnknownOpKind(k) => write!(
                f,
                "unknown operation kind `{k}` (expected add, sub, mul, cmp or log)"
            ),
            LoadError::UnknownReference(what) => write!(f, "unknown reference: {what}"),
            LoadError::Graph(e) => write!(f, "specification error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tempart_graph::GraphError> for LoadError {
    fn from(e: tempart_graph::GraphError) -> Self {
        LoadError::Graph(e)
    }
}

fn parse_kind(s: &str) -> Result<OpKind, LoadError> {
    match s {
        "add" => Ok(OpKind::Add),
        "sub" => Ok(OpKind::Sub),
        "mul" => Ok(OpKind::Mul),
        "cmp" => Ok(OpKind::Cmp),
        "log" => Ok(OpKind::Logic),
        other => Err(LoadError::UnknownOpKind(other.to_string())),
    }
}

fn jerr(msg: impl Into<String>) -> LoadError {
    LoadError::Json(msg.into())
}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, LoadError> {
    v.get(key)
        .ok_or_else(|| jerr(format!("missing field `{key}` in {ctx}")))
}

fn str_field(v: &Value, key: &str, ctx: &str) -> Result<String, LoadError> {
    field(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| jerr(format!("field `{key}` in {ctx} must be a string")))
}

fn u64_field(v: &Value, key: &str, ctx: &str) -> Result<u64, LoadError> {
    field(v, key, ctx)?.as_u64().ok_or_else(|| {
        jerr(format!(
            "field `{key}` in {ctx} must be a non-negative integer"
        ))
    })
}

fn f64_field(v: &Value, key: &str, ctx: &str) -> Result<f64, LoadError> {
    field(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| jerr(format!("field `{key}` in {ctx} must be a number")))
}

fn arr_field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a [Value], LoadError> {
    field(v, key, ctx)?
        .as_arr()
        .ok_or_else(|| jerr(format!("field `{key}` in {ctx} must be an array")))
}

/// A `u64` field that may be absent, taking `default` then.
fn opt_u64_field(v: &Value, key: &str, ctx: &str, default: u64) -> Result<u64, LoadError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f.as_u64().ok_or_else(|| {
            jerr(format!(
                "field `{key}` in {ctx} must be a non-negative integer"
            ))
        }),
    }
}

impl TaskSpec {
    fn from_value(v: &Value) -> Result<Self, LoadError> {
        let name = str_field(v, "name", "task")?;
        let ctx = format!("task `{name}`");
        let ops = arr_field(v, "ops", &ctx)?
            .iter()
            .map(|o| {
                o.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| jerr(format!("`ops` entries in {ctx} must be strings")))
            })
            .collect::<Result<_, _>>()?;
        let deps = match v.get("deps") {
            None => Vec::new(),
            Some(d) => d
                .as_arr()
                .ok_or_else(|| jerr(format!("`deps` in {ctx} must be an array")))?
                .iter()
                .map(|pair| {
                    let pair = pair.as_arr().unwrap_or(&[]);
                    match pair {
                        [a, b] => match (a.as_u64(), b.as_u64()) {
                            (Some(a), Some(b)) => Ok([a as usize, b as usize]),
                            _ => Err(jerr(format!("`deps` indices in {ctx} must be integers"))),
                        },
                        _ => Err(jerr(format!(
                            "`deps` entries in {ctx} must be [from, to] pairs"
                        ))),
                    }
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(TaskSpec { name, ops, deps })
    }
}

impl EdgeSpec {
    fn from_value(v: &Value) -> Result<Self, LoadError> {
        Ok(EdgeSpec {
            from: str_field(v, "from", "edge")?,
            to: str_field(v, "to", "edge")?,
            bandwidth: u64_field(v, "bandwidth", "edge")?,
        })
    }
}

impl FuSpec {
    fn from_value(v: &Value) -> Result<Self, LoadError> {
        let count = u64_field(v, "count", "fu")?;
        Ok(FuSpec {
            type_name: str_field(v, "type", "fu")?,
            count: u32::try_from(count).map_err(|_| jerr("fu `count` out of range"))?,
        })
    }
}

impl DeviceSpec {
    fn from_value(v: &Value) -> Result<Self, LoadError> {
        let capacity = u64_field(v, "capacity", "device")?;
        Ok(DeviceSpec {
            name: str_field(v, "name", "device")?,
            capacity: u32::try_from(capacity)
                .map_err(|_| jerr("device `capacity` out of range"))?,
            scratch_memory: u64_field(v, "scratch_memory", "device")?,
            alpha: f64_field(v, "alpha", "device")?,
            reconfig_cycles: opt_u64_field(v, "reconfig_cycles", "device", 164_000)?,
            memory_word_cycles: opt_u64_field(v, "memory_word_cycles", "device", 1)?,
        })
    }
}

impl SpecFile {
    /// Parses a specification from JSON text.
    ///
    /// # Errors
    ///
    /// [`LoadError::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, LoadError> {
        let v = json::parse(text).map_err(LoadError::Json)?;
        Self::from_value(&v)
    }

    /// Parses a specification from an already-parsed JSON value (e.g. a
    /// `spec` field embedded in a `tempart-server` protocol frame).
    ///
    /// # Errors
    ///
    /// [`LoadError::Json`] on shape errors.
    pub fn from_value(v: &Value) -> Result<Self, LoadError> {
        if !matches!(v, Value::Obj(_)) {
            return Err(jerr("specification must be a JSON object"));
        }
        let tasks = arr_field(v, "tasks", "specification")?
            .iter()
            .map(TaskSpec::from_value)
            .collect::<Result<_, _>>()?;
        let edges = match v.get("edges") {
            None => Vec::new(),
            Some(e) => e
                .as_arr()
                .ok_or_else(|| jerr("`edges` must be an array"))?
                .iter()
                .map(EdgeSpec::from_value)
                .collect::<Result<_, _>>()?,
        };
        let fus = arr_field(v, "fus", "specification")?
            .iter()
            .map(FuSpec::from_value)
            .collect::<Result<_, _>>()?;
        Ok(SpecFile {
            name: str_field(v, "name", "specification")?,
            tasks,
            edges,
            fus,
            device: DeviceSpec::from_value(field(v, "device", "specification")?)?,
        })
    }

    /// Serializes back to pretty JSON (two-space indent, key order as
    /// documented in the crate docs).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n  \"name\": ");
        write_escaped(&mut o, &self.name);
        o.push_str(",\n  \"tasks\": [");
        for (i, t) in self.tasks.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    {\n      \"name\": ");
            write_escaped(&mut o, &t.name);
            o.push_str(",\n      \"ops\": [");
            for (j, op) in t.ops.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                write_escaped(&mut o, op);
            }
            o.push_str("],\n      \"deps\": [");
            for (j, [a, b]) in t.deps.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                o.push_str(&format!("[{a}, {b}]"));
            }
            o.push_str("]\n    }");
        }
        o.push_str("\n  ],\n  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    { \"from\": ");
            write_escaped(&mut o, &e.from);
            o.push_str(", \"to\": ");
            write_escaped(&mut o, &e.to);
            o.push_str(&format!(", \"bandwidth\": {} }}", e.bandwidth));
        }
        o.push_str("\n  ],\n  \"fus\": [");
        for (i, f) in self.fus.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("    { \"type\": ");
            write_escaped(&mut o, &f.type_name);
            o.push_str(&format!(", \"count\": {} }}", f.count));
        }
        o.push_str("\n  ],\n  \"device\": {\n    \"name\": ");
        write_escaped(&mut o, &self.device.name);
        o.push_str(&format!(",\n    \"capacity\": {}", self.device.capacity));
        o.push_str(&format!(
            ",\n    \"scratch_memory\": {}",
            self.device.scratch_memory
        ));
        o.push_str(",\n    \"alpha\": ");
        write_num(&mut o, self.device.alpha);
        o.push_str(&format!(
            ",\n    \"reconfig_cycles\": {}",
            self.device.reconfig_cycles
        ));
        o.push_str(&format!(
            ",\n    \"memory_word_cycles\": {}\n  }}\n}}",
            self.device.memory_word_cycles
        ));
        o
    }

    /// Builds the [`Instance`] this file describes.
    ///
    /// # Errors
    ///
    /// * [`LoadError::UnknownOpKind`] / [`LoadError::UnknownReference`] —
    ///   bad mnemonics or names.
    /// * [`LoadError::Graph`] — structural problems (cycles, empty tasks,
    ///   kind coverage, device bounds).
    pub fn build_instance(&self) -> Result<Instance, LoadError> {
        let mut b = TaskGraphBuilder::new(self.name.clone());
        let mut task_ids = Vec::with_capacity(self.tasks.len());
        let mut op_ids = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            let t = b.task(task.name.clone());
            task_ids.push(t);
            let mut ids = Vec::with_capacity(task.ops.len());
            for (oi, kind) in task.ops.iter().enumerate() {
                let kind = parse_kind(kind)?;
                ids.push(b.named_op(t, kind, format!("{}#{}", task.name, oi))?);
            }
            for &[from, to] in &task.deps {
                let f = *ids.get(from).ok_or_else(|| {
                    LoadError::UnknownReference(format!("{}.deps op {from}", task.name))
                })?;
                let tto = *ids.get(to).ok_or_else(|| {
                    LoadError::UnknownReference(format!("{}.deps op {to}", task.name))
                })?;
                b.op_edge(f, tto)?;
            }
            op_ids.push(ids);
        }
        let find_task = |name: &str| {
            self.tasks
                .iter()
                .position(|t| t.name == name)
                .map(|i| task_ids[i])
                .ok_or_else(|| LoadError::UnknownReference(format!("task `{name}`")))
        };
        for e in &self.edges {
            b.task_edge(
                find_task(&e.from)?,
                find_task(&e.to)?,
                Bandwidth::new(e.bandwidth),
            )?;
        }
        let graph = b.build()?;
        let lib = ComponentLibrary::date98_default();
        let counts: Vec<(&str, u32)> = self
            .fus
            .iter()
            .map(|f| (f.type_name.as_str(), f.count))
            .collect();
        let fus = lib
            .exploration_set(&counts)
            .map_err(|_| LoadError::UnknownReference("functional-unit type".into()))?;
        let device = FpgaDevice::builder(self.device.name.clone())
            .capacity(FunctionGenerators::new(self.device.capacity))
            .scratch_memory(Bandwidth::new(self.device.scratch_memory))
            .alpha(self.device.alpha)
            .reconfig_cycles(self.device.reconfig_cycles)
            .memory_word_cycles(self.device.memory_word_cycles)
            .build()?;
        Ok(Instance::new(graph, fus, device)?)
    }

    /// The specification of an existing instance (its graph, exploration
    /// set and device), so any generated instance can be saved as a spec
    /// file or sent to the server. [`SpecFile::build_instance`] rebuilds
    /// the same model from it.
    pub fn from_instance(name: impl Into<String>, instance: &Instance) -> Self {
        let g = instance.graph();
        let tasks = g
            .tasks()
            .iter()
            .map(|t| {
                let ids = t.ops();
                let local = |op| ids.iter().position(|&o| o == op).unwrap_or(usize::MAX);
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
        let lib = instance.fus().library();
        let mut fus: Vec<FuSpec> = Vec::new();
        for fu in instance.fus().instances() {
            let type_name = lib.ty(fu.ty()).map_or("?", |t| t.name());
            match fus.iter_mut().find(|f| f.type_name == type_name) {
                Some(f) => f.count += 1,
                None => fus.push(FuSpec {
                    type_name: type_name.to_string(),
                    count: 1,
                }),
            }
        }
        let d = instance.device();
        SpecFile {
            name: name.into(),
            tasks,
            edges,
            fus,
            device: DeviceSpec {
                name: d.name().to_string(),
                capacity: d.capacity().0,
                scratch_memory: d.scratch_memory().units(),
                alpha: d.alpha().value(),
                reconfig_cycles: d.reconfig_cycles(),
                memory_word_cycles: d.memory_word_cycles(),
            },
        }
    }

    /// A small, fully populated example (the crate-docs specification).
    pub fn example() -> Self {
        SpecFile {
            name: "dsp-block".into(),
            tasks: vec![
                TaskSpec {
                    name: "fir".into(),
                    ops: vec!["mul".into(), "mul".into(), "add".into()],
                    deps: vec![[0, 2], [1, 2]],
                },
                TaskSpec {
                    name: "post".into(),
                    ops: vec!["sub".into()],
                    deps: vec![],
                },
            ],
            edges: vec![EdgeSpec {
                from: "fir".into(),
                to: "post".into(),
                bandwidth: 8,
            }],
            fus: vec![
                FuSpec {
                    type_name: "add16".into(),
                    count: 1,
                },
                FuSpec {
                    type_name: "mul8".into(),
                    count: 2,
                },
                FuSpec {
                    type_name: "sub16".into(),
                    count: 1,
                },
            ],
            device: DeviceSpec {
                name: "xc4010".into(),
                capacity: 800,
                scratch_memory: 2048,
                alpha: 0.7,
                reconfig_cycles: 164_000,
                memory_word_cycles: 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_roundtrips_and_builds() {
        let spec = SpecFile::example();
        let json = spec.to_json();
        let back = SpecFile::from_json(&json).unwrap();
        let inst = back.build_instance().unwrap();
        assert_eq!(inst.graph().num_tasks(), 2);
        assert_eq!(inst.graph().num_ops(), 4);
        assert_eq!(inst.fus().num_instances(), 4);
        assert_eq!(inst.device().capacity().count(), 800);
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut spec = SpecFile::example();
        spec.tasks[0].ops[0] = "div".into();
        assert!(matches!(
            spec.build_instance(),
            Err(LoadError::UnknownOpKind(_))
        ));
    }

    #[test]
    fn unknown_task_reference_rejected() {
        let mut spec = SpecFile::example();
        spec.edges[0].to = "ghost".into();
        assert!(matches!(
            spec.build_instance(),
            Err(LoadError::UnknownReference(_))
        ));
    }

    #[test]
    fn bad_dep_index_rejected() {
        let mut spec = SpecFile::example();
        spec.tasks[0].deps.push([0, 99]);
        assert!(matches!(
            spec.build_instance(),
            Err(LoadError::UnknownReference(_))
        ));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            SpecFile::from_json("{ not json"),
            Err(LoadError::Json(_))
        ));
    }

    #[test]
    fn defaults_fill_in() {
        let json = r#"{
            "name": "min",
            "tasks": [{ "name": "t", "ops": ["add"] }],
            "fus": [{ "type": "add16", "count": 1 }],
            "device": { "name": "d", "capacity": 100, "scratch_memory": 10, "alpha": 0.7 }
        }"#;
        let spec = SpecFile::from_json(json).unwrap();
        assert_eq!(spec.device.reconfig_cycles, 164_000);
        assert_eq!(spec.device.memory_word_cycles, 1);
        assert!(spec.edges.is_empty());
        spec.build_instance().unwrap();
    }

    #[test]
    fn from_instance_round_trips_the_example() {
        let spec = SpecFile::example();
        let instance = spec.build_instance().unwrap();
        let back = SpecFile::from_instance(spec.name.clone(), &instance);
        assert_eq!(back.to_json(), spec.to_json());
    }
}
