//! Plain-text table formatting in the paper's style, and the
//! `BENCH_*.json` artifact writer.

use tempart_lp::JsonObject;

use crate::runner::ExperimentRow;

/// The rows of one `BENCH_*.json` file and the verdicts of its
/// acceptance bars.
#[derive(Debug, Default)]
pub struct Artifact {
    rows: Vec<String>,
    failed: Vec<String>,
}

impl Artifact {
    /// Adds a measurement row and prints its space-separated `echo` keys
    /// to stdout.
    pub fn row(&mut self, row: &JsonObject, echo: &str) {
        if !echo.is_empty() {
            println!("{}", row.text(echo));
        }
        self.rows.push(row.finish());
    }

    /// Records an acceptance bar: prints `acceptance [PASS|FAIL]: name`
    /// with its evidence, and adds the row `{"acceptance":name,…,"pass":pass}`.
    pub fn bar(&mut self, name: &str, pass: bool, evidence: &JsonObject) {
        let verdict = if pass { "PASS" } else { "FAIL" };
        println!("acceptance [{verdict}]: {name} {}", evidence.finish());
        let mut o = JsonObject::new();
        o.str("acceptance", name)
            .append(evidence)
            .bool("pass", pass);
        self.row(&o, "");
        if !pass {
            self.failed.push(name.to_string());
        }
    }

    /// Writes the rows as a JSON array, one compact object per line, via
    /// `path.tmp` renamed into place, so an interrupted run never leaves a
    /// truncated artifact.
    ///
    /// # Errors
    ///
    /// The file cannot be written, or an acceptance bar failed.
    pub fn write(&self, path: &str) -> Result<(), String> {
        let json = format!("[\n{}\n]\n", self.rows.join(",\n"));
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, json)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} ({} rows)", self.rows.len());
        if self.failed.is_empty() {
            Ok(())
        } else {
            Err(format!("{path}: failed {}", self.failed.join(", ")))
        }
    }
}

/// Renders rows in the layout of the paper's Tables 1–4: a Markdown
/// table under its title, ready to paste into EXPERIMENTS.md.
pub fn format_table(title: &str, rows: &[ExperimentRow], limit: f64) -> String {
    let mut out = format!(
        "{title}\n\n| Graph | Tasks | Opers | N | A+M+S | L | Var | Const | RunTime (s) \
         | Feasible | Cost | Used | Nodes | Rule |\n|{}\n",
        "---|".repeat(14)
    );
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    for r in rows {
        let (a, m, s) = r.ams;
        out.push_str(&format!(
            "| {} | {} | {} | {} | {a}+{m}+{s} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.graph_no,
            r.tasks,
            r.opers,
            r.n,
            r.l,
            r.vars,
            r.consts,
            r.runtime_display(limit),
            r.feasible_display(),
            opt(r.cost),
            opt(r.partitions_used.map(u64::from)),
            r.stats.nodes,
            r.rule,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_core::RuleKind;
    use tempart_lp::MipStats;

    fn sample_row() -> ExperimentRow {
        ExperimentRow {
            graph_no: 1,
            tasks: 5,
            opers: 22,
            n: 3,
            ams: (2, 2, 1),
            l: 1,
            vars: 230,
            consts: 656,
            nnz: 2816,
            seconds: 8.96,
            timed_out: false,
            feasible: Some(true),
            cost: Some(12),
            partitions_used: Some(3),
            stats: MipStats::default(),
            rule: RuleKind::Paper,
        }
    }

    #[test]
    fn text_table_contains_columns() {
        let s = format_table("Table X", &[sample_row()], 7200.0);
        assert!(s.contains("Table X"));
        assert!(s.contains("2+2+1"));
        assert!(s.contains("8.96"));
        assert!(s.contains("Yes"));
    }

    #[test]
    fn artifact_reports_failed_bars_after_writing() {
        let dir = std::env::temp_dir().join(format!("tempart-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_x.json").to_string_lossy().into_owned();
        let mut art = Artifact::default();
        art.row(JsonObject::new().uint("nodes", 3), "nodes");
        art.bar("ok", true, JsonObject::new().uint("value", 1));
        assert!(art.write(&path).is_ok());
        art.bar("bad", false, &JsonObject::new());
        let err = art.write(&path).unwrap_err();
        assert!(err.contains("bad"), "{err}");
        let text = std::fs::read_to_string(&path).unwrap();
        let want = r#"[
{"nodes":3},
{"acceptance":"ok","value":1,"pass":true},
{"acceptance":"bad","pass":false}
]
"#;
        assert_eq!(text, want);
        assert!(art.write("/nonexistent-dir/BENCH_x.json").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn markdown_table_renders() {
        let mut r = sample_row();
        r.timed_out = true;
        let s = format_table("Table X", &[r], 7200.0);
        assert!(s.contains("\n| Graph | Tasks"));
        assert!(s.contains(">7200"));
    }
}
