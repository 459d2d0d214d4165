//! Report renderers: human text and machine JSON.
//!
//! Both are deterministic — violations are sorted before
//! rendering, nothing host- or time-dependent is emitted — so two runs
//! over the same tree produce byte-identical output (CI diffs the two).

use crate::Violation;

/// Sort for stable output: file, then line, then rule id, then message.
pub fn sort_violations(violations: &mut [Violation]) {
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule.id(), &a.message).cmp(&(&b.file, b.line, b.rule.id(), &b.message))
    });
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Human-readable report: one line per finding, then a summary line.
pub fn render_text(violations: &[Violation]) -> String {
    let mut out = String::new();
    for v in violations {
        out.push_str(&format!("{v}\n"));
    }
    if violations.is_empty() {
        out.push_str("simlint: workspace clean\n");
    } else {
        out.push_str(&format!("simlint: {} violation(s)\n", violations.len()));
    }
    out
}

/// Machine-readable JSON: `{"version":2,"clean":…,"violations":[…]}`.
pub fn render_json(violations: &[Violation]) -> String {
    let mut out = String::new();
    out.push_str("{\"version\":2");
    out.push_str(&format!(",\"clean\":{}", violations.is_empty()));
    out.push_str(",\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&v.file),
            v.line,
            v.rule.id(),
            json_escape(&v.message)
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn violations() -> Vec<Violation> {
        vec![Violation {
            file: "crates/a.rs".into(),
            line: 3,
            rule: Rule::SharedMut,
            message: "a \"quoted\" message".into(),
        }]
    }

    #[test]
    fn sort_is_total_and_stable() {
        let mk = |file: &str, line, rule| Violation {
            file: file.into(),
            line,
            rule,
            message: "m".into(),
        };
        let mut vs = vec![
            mk("b.rs", 1, Rule::Determinism),
            mk("a.rs", 9, Rule::UnitSafety),
            mk("a.rs", 9, Rule::SharedMut),
            mk("a.rs", 2, Rule::UnitSafety),
        ];
        sort_violations(&mut vs);
        let key: Vec<(&str, usize, &str)> =
            vs.iter().map(|v| (v.file.as_str(), v.line, v.rule.id())).collect();
        assert_eq!(
            key,
            vec![
                ("a.rs", 2, "unit_safety"),
                ("a.rs", 9, "shared_mut"),
                ("a.rs", 9, "unit_safety"),
                ("b.rs", 1, "determinism"),
            ]
        );
    }

    #[test]
    fn json_escapes_and_is_deterministic() {
        let v = violations();
        let a = render_json(&v);
        let b = render_json(&v);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"clean\":false"));
    }

    #[test]
    fn clean_outcome_renders_clean() {
        assert!(render_text(&[]).contains("workspace clean"));
        assert!(render_json(&[]).contains("\"clean\":true"));
    }
}
