//! SARIF 2.1.0 output for `gnt-lint --format=sarif`.
//!
//! Emits one run with the full [`REGISTRY`] as the
//! rule table and one result per diagnostic. Blame/why-not trails
//! ([`Diagnostic::related`]) become `relatedLocations`, so code-scanning
//! UIs render the derivation chain as clickable secondary spans. The
//! writer is hand-rolled like the JSON renderer — the workspace carries
//! no serialization dependency.

use crate::diag::{json_escape, Diagnostic, Severity, REGISTRY};
use gnt_ir::Span;
use std::fmt::Write as _;

fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let upto = &src[..offset.min(src.len())];
    let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = upto.len() - upto.rfind('\n').map_or(0, |i| i + 1) + 1;
    (line, col)
}

fn write_region(out: &mut String, span: Span, src: &str) {
    let (sl, sc) = line_col(src, span.start as usize);
    let (el, ec) = line_col(src, span.end as usize);
    let _ = write!(
        out,
        "\"region\":{{\"startLine\":{sl},\"startColumn\":{sc},\
         \"endLine\":{el},\"endColumn\":{ec},\
         \"charOffset\":{},\"charLength\":{}}}",
        span.start,
        span.end - span.start
    );
}

fn write_physical_location(out: &mut String, file: &str, span: Option<Span>, src: &str) {
    let _ = write!(
        out,
        "\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}}",
        json_escape(file)
    );
    if let Some(span) = span {
        out.push(',');
        write_region(out, span, src);
    }
    out.push('}');
}

fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

/// Renders all diagnostics as a SARIF 2.1.0 log (one run, rules from the
/// registry, derivation trails as `relatedLocations`).
pub fn render_sarif(diags: &[Diagnostic], file: &str, src: &str) -> String {
    render_sarif_batch(&[(diags, file, src)])
}

/// Multi-file variant of [`render_sarif`]: still one run (one tool, one
/// rule table), with every entry's results in entry order, each anchored
/// to its own artifact — what `gnt-lint` emits for a batch.
pub fn render_sarif_batch(entries: &[(&[Diagnostic], &str, &str)]) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"gnt-lint\",\
         \"informationUri\":\"https://dl.acm.org/doi/10.1145/178243.178245\",\
         \"rules\":[",
    );
    for (i, info) in REGISTRY.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
             \"fullDescription\":{{\"text\":\"{}\"}},\
             \"defaultConfiguration\":{{\"level\":\"{}\"}},\
             \"properties\":{{\"family\":\"{}\"}}}}",
            info.code,
            json_escape(info.title),
            json_escape(info.reference),
            level(info.severity),
            info.family,
        );
    }
    out.push_str("]}},\"results\":[");
    let all = entries
        .iter()
        .flat_map(|&(diags, file, src)| diags.iter().map(move |d| (d, file, src)));
    for (i, (d, file, src)) in all.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = REGISTRY
            .iter()
            .position(|info| info.code == d.code)
            .expect("every emitted code is registered");
        // Fold free-form notes into the message text: SARIF has no
        // unlocated note concept.
        let mut message = d.message.clone();
        for note in &d.notes {
            message.push_str("\nnote: ");
            message.push_str(note);
        }
        let _ = write!(
            out,
            "{{\"ruleId\":\"{}\",\"ruleIndex\":{rule_index},\"level\":\"{}\",\
             \"message\":{{\"text\":\"{}\"}},\"locations\":[{{",
            d.code,
            level(d.severity),
            json_escape(&message),
        );
        write_physical_location(&mut out, file, d.primary_span, src);
        out.push_str("}]");
        if !d.related.is_empty() {
            out.push_str(",\"relatedLocations\":[");
            for (j, r) in d.related.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"message\":{{\"text\":\"{}\"}},",
                    json_escape(&r.message)
                );
                write_physical_location(&mut out, file, r.span, src);
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push_str("]}]}");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    #[test]
    fn sarif_log_has_rules_results_and_related_locations() {
        let src = "a = 1\nb = 2\n";
        let d = Diagnostic::error("GNT003", "produced but never consumed")
            .with_span(Span::new(0, 5))
            .note("free-form note")
            .because("because: produced here", None);
        let mut d = d;
        d.related[0].span = Some(Span::new(6, 11));
        let log = render_sarif(&[d], "t.minif", src);
        assert!(log.contains("\"version\":\"2.1.0\""), "{log}");
        assert!(
            log.contains("\"id\":\"GNT030\""),
            "rules cover GNT03x: {log}"
        );
        assert!(log.contains("\"ruleId\":\"GNT003\""), "{log}");
        assert!(log.contains("\\nnote: free-form note"), "{log}");
        assert!(log.contains("\"relatedLocations\""), "{log}");
        assert!(
            log.contains("\"startLine\":2,\"startColumn\":1"),
            "related span located: {log}"
        );
        // Every emitted result level is a legal SARIF level.
        assert!(log.contains("\"level\":\"error\""), "{log}");
    }

    #[test]
    fn empty_report_is_still_a_valid_log_shell() {
        let log = render_sarif(&[], "t.minif", "");
        assert!(log.contains("\"results\":[]"), "{log}");
        assert!(log.ends_with("}\n"), "{log}");
    }
}
