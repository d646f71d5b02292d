//! The solver stats schema and the one JSON writer that prints it.
//!
//! Every counter and timer the solver reports has one name:
//! [`MipStats::stats`] lists the search counters defined here, then the
//! [`SimplexProfile`](crate::SimplexProfile),
//! [`ContentionProfile`](crate::ContentionProfile) and
//! [`ScaleProfile`](crate::ScaleProfile) fields, each named next to its
//! field in `profile.rs`. `tempart --json`/`--stats`, the server's `Result`
//! frame and every `BENCH_*.json` row print these lists through
//! [`JsonObject`] (or [`text`] for humans). Names ending in `_ms` are
//! milliseconds rounded to the microsecond; the rest are counts.

use std::fmt::Write as _;

use crate::branch::MipStats;

/// One named stat. Counts are exact in `f64` below 2^53.
pub type Stat = (&'static str, f64);

/// Seconds to milliseconds, rounded to the microsecond.
pub fn ms(secs: f64) -> f64 {
    (secs * 1e6).round() / 1e3
}

impl MipStats {
    /// The whole schema in labelled groups: the search counters, then the
    /// simplex, contention and scale profiles.
    pub fn stat_groups(&self) -> [(&'static str, Vec<Stat>); 4] {
        let search = vec![
            ("nodes", self.nodes as f64),
            ("lp_iterations", self.lp_iterations as f64),
            ("pruned_by_bound", self.pruned_by_bound as f64),
            ("pruned_infeasible", self.pruned_infeasible as f64),
            ("incumbent_updates", self.incumbent_updates as f64),
            ("workers", self.per_worker_nodes.len() as f64),
            ("search_ms", ms(self.seconds)),
        ];
        [
            ("search", search),
            ("simplex", self.simplex.stats()),
            ("contention", self.contention.stats()),
            ("scale", self.scale.stats()),
        ]
    }

    /// Every stat of the schema, in order (the groups of
    /// [`MipStats::stat_groups`] concatenated).
    pub fn stats(&self) -> Vec<Stat> {
        self.stat_groups()
            .into_iter()
            .flat_map(|(_, stats)| stats)
            .collect()
    }
}

/// A profile field as a stat: counts as they are, seconds in
/// milliseconds.
pub(crate) trait ToStat {
    fn to_stat(self) -> f64;
}

impl ToStat for usize {
    fn to_stat(self) -> f64 {
        self as f64
    }
}

impl ToStat for f64 {
    fn to_stat(self) -> f64 {
        ms(self)
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a number in its shortest round-trip form (`13`, `0.5`); a
/// non-finite value becomes `null`, as JSON has no NaN or infinity.
pub fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A compact JSON object under construction (`{"key":value,...}`, no
/// whitespace). Keys are written in call order.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    /// `(key, value as JSON text)` pairs.
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn put(&mut self, key: &str, json: String) -> &mut Self {
        self.fields.push((key.to_string(), json));
        self
    }

    /// A string value.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let mut json = String::new();
        write_escaped(&mut json, v);
        self.put(key, json)
    }

    /// A number (`null` when not finite).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let mut json = String::new();
        write_num(&mut json, v);
        self.put(key, json)
    }

    /// An unsigned integer.
    pub fn uint(&mut self, key: &str, v: u64) -> &mut Self {
        self.put(key, v.to_string())
    }

    /// An unsigned integer, or `null`.
    pub fn opt_uint(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        self.put(key, v.map_or("null".to_string(), |v| v.to_string()))
    }

    /// `true` or `false`.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.put(key, v.to_string())
    }

    /// An array of numbers.
    pub fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let mut json = String::from("[");
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            write_num(&mut json, v);
        }
        json.push(']');
        self.put(key, json)
    }

    /// A value that is already JSON text (a nested object or array).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.put(key, json.to_string())
    }

    /// Every field of `other`, in its order.
    pub fn append(&mut self, other: &JsonObject) -> &mut Self {
        self.fields.extend(other.fields.iter().cloned());
        self
    }

    /// One number per stat, keyed by its schema name.
    pub fn stats<'a>(&mut self, stats: impl IntoIterator<Item = (&'a str, f64)>) -> &mut Self {
        for (name, v) in stats {
            self.num(name, v);
        }
        self
    }

    /// The object as JSON text.
    pub fn finish(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, json)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, key);
            out.push(':');
            out.push_str(json);
        }
        out.push('}');
        out
    }

    /// The space-separated `keys` as `key value` pairs for a console line
    /// (strings unquoted, absent keys skipped).
    pub fn text(&self, keys: &str) -> String {
        let pairs: Vec<String> = keys
            .split_whitespace()
            .filter_map(|k| self.fields.iter().find(|(f, _)| f == k))
            .map(|(k, v)| format!("{k} {}", v.trim_matches('"')))
            .collect();
        pairs.join(", ")
    }
}

/// Renders stats for humans: `name value` pairs, comma separated.
pub fn text(stats: &[Stat]) -> String {
    let names: Vec<&str> = stats.iter().map(|&(name, _)| name).collect();
    JsonObject::new()
        .stats(stats.iter().copied())
        .text(&names.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_carry_the_profile_values() {
        let mut s = MipStats {
            nodes: 269,
            lp_iterations: 8_285,
            seconds: 0.25,
            ..MipStats::default()
        };
        s.simplex.refactors = 74;
        s.simplex.ftran_secs = 0.001_234_56;
        s.contention.steals = 4;
        s.scale.cut_rounds = 2;
        let get = |name: &str| s.stats().into_iter().find(|&(n, _)| n == name).unwrap().1;
        assert_eq!(get("nodes"), 269.0);
        assert_eq!(get("refactors"), 74.0);
        assert_eq!(get("ftran_ms"), 1.235, "ms rounded to the microsecond");
        assert_eq!(get("search_ms"), 250.0);
        assert_eq!(get("steals"), 4.0);
        assert_eq!(get("cut_rounds"), 2.0);
        assert!(text(&s.stats()).starts_with("nodes 269, lp_iterations 8285, "));
    }

    #[test]
    fn object_writer_is_compact_and_escaped() {
        let mut o = JsonObject::new();
        o.str("s", "a\"b\n")
            .num("gap", 0.0)
            .num("objective", 13.0)
            .num("inf", f64::INFINITY)
            .uint("n", 7)
            .opt_uint("cost", None)
            .bool("pass", true)
            .nums("busy", &[1.5, 2.0])
            .raw("nested", "{}")
            .stats([("ftran_ms", 0.25)]);
        assert_eq!(
            o.finish(),
            r#"{"s":"a\"b\n","gap":0,"objective":13,"inf":null,"n":7,"cost":null,"pass":true,"busy":[1.5,2],"nested":{},"ftran_ms":0.25}"#
        );
        assert_eq!(o.text("s n absent pass"), "s a\\\"b\\n, n 7, pass true");
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
