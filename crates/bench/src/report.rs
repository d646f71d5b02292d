//! Plain-text table formatting in the paper's style.

use crate::runner::ExperimentRow;

/// Renders rows in the layout of the paper's Tables 1–4.
pub fn format_table(title: &str, rows: &[ExperimentRow], limit: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<6} {:>5} {:>5} {:>2} {:>6} {:>2} {:>6} {:>7} {:>9} {:>8} {:>6} {:>4} {:>8} {}\n",
        "Graph",
        "Tasks",
        "Opers",
        "N",
        "A+M+S",
        "L",
        "Var",
        "Const",
        "RunTime",
        "Feasible",
        "Cost",
        "Used",
        "Nodes",
        "Rule"
    ));
    for r in rows {
        let (a, m, s) = r.ams;
        out.push_str(&format!(
            "{:<6} {:>5} {:>5} {:>2} {:>6} {:>2} {:>6} {:>7} {:>9} {:>8} {:>6} {:>4} {:>8} {}\n",
            r.graph_no,
            r.tasks,
            r.opers,
            r.n,
            format!("{a}+{m}+{s}"),
            r.l,
            r.vars,
            r.consts,
            r.runtime_display(limit),
            r.feasible_display(),
            r.cost.map_or("-".to_string(), |c| c.to_string()),
            r.partitions_used.map_or("-".to_string(), |u| u.to_string()),
            r.nodes,
            r.rule,
        ));
    }
    out
}

/// Renders rows as a Markdown table (for EXPERIMENTS.md).
pub fn format_markdown(rows: &[ExperimentRow], limit: f64) -> String {
    let mut out = String::new();
    out.push_str(
        "| Graph | N | A+M+S | L | Var | Const | RunTime (s) | Feasible | Cost | Used | Nodes |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let (a, m, s) = r.ams;
        out.push_str(&format!(
            "| {} | {} | {a}+{m}+{s} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.graph_no,
            r.n,
            r.l,
            r.vars,
            r.consts,
            r.runtime_display(limit),
            r.feasible_display(),
            r.cost.map_or("-".to_string(), |c| c.to_string()),
            r.partitions_used.map_or("-".to_string(), |u| u.to_string()),
            r.nodes,
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
            nodes: 42,
            lp_iterations: 1000,
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
    fn markdown_table_renders() {
        let mut r = sample_row();
        r.timed_out = true;
        let s = format_markdown(&[r], 7200.0);
        assert!(s.starts_with("| Graph"));
        assert!(s.contains(">7200"));
    }
}
