//! Machine-readable JSON output, through the workspace's one compact JSON
//! writer (`tempart_lp::JsonObject`).

use tempart_lp::JsonObject;

use crate::lints::Finding;

/// Serializes lint findings as a one-line JSON report:
/// `{"findings":[{"lint":…,"path":…,"line":N,"message":…,"suppressed":bool},…],"total":N,"unsuppressed":N}`.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            JsonObject::new()
                .str("lint", f.lint.as_str())
                .str("path", &f.path)
                .uint("line", f.line.into())
                .str("message", &f.message)
                .bool("suppressed", f.suppressed)
                .finish()
        })
        .collect();
    let unsuppressed = findings.iter().filter(|f| !f.suppressed).count();
    let mut out = JsonObject::new()
        .raw("findings", &format!("[{}]", rows.join(",")))
        .uint("total", findings.len() as u64)
        .uint("unsuppressed", unsuppressed as u64)
        .finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Lint;

    #[test]
    fn shape_and_escaping() {
        let findings = vec![Finding {
            lint: Lint::FloatEq,
            path: "crates/lp/src/a.rs".into(),
            line: 7,
            message: "exact `==` on \"x\"".into(),
            suppressed: false,
        }];
        let j = findings_to_json(&findings);
        assert!(j.contains(r#""lint":"float-eq""#), "{j}");
        assert!(j.contains(r#""line":7"#), "{j}");
        assert!(j.contains(r#"\"x\""#), "{j}");
        assert!(j.contains(r#""unsuppressed":1"#), "{j}");
        let empty = findings_to_json(&[]);
        assert!(empty.contains(r#""findings":[]"#), "{empty}");
        assert!(empty.contains(r#""total":0"#), "{empty}");
    }
}
