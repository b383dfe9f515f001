//! The machine-readable lint report (`mptcp-lint-report/v2`) and its
//! schema validator.
//!
//! Mirrors the run-report discipline from the bench harness: every CI run
//! writes `results/lint_report.json`, and the same binary re-reads and
//! validates it, so schema drift fails in the change that introduces it.
//! Suppressed findings are included with their reasons — the report is the
//! audit trail for every `allow` in the tree.
//!
//! Beside the findings, a report carries `rule_counts` (per-rule
//! suppressed/unsuppressed tallies), `hot_paths` (the call-graph-derived
//! R5 hot-path file set), and `roots` (the reachability root patterns
//! plus the root functions actually matched). The document is a
//! [`json::Json`], so its keys are written sorted, like every other
//! report in the workspace.
//!
//! Shape (all top-level fields required):
//!
//! ```json
//! {
//!   "schema": "mptcp-lint-report/v2",
//!   "root": ".",
//!   "files_scanned": 152,
//!   "rules": [ { "id": "R1", "name": "wall-clock", "summary": "…" } ],
//!   "findings": [
//!     { "rule": "R1", "file": "crates/netsim/src/profile.rs", "line": 65,
//!       "col": 25, "message": "…", "suppressed": true, "reason": "…" }
//!   ],
//!   "rule_counts": { "R1": { "suppressed": 4, "unsuppressed": 0 }, … },
//!   "hot_paths": [ "crates/eventsim/src/queue.rs", … ],
//!   "roots": { "patterns": [ "EventQueue::pop*", … ],
//!              "matched": [ "crates/eventsim/src/queue.rs: EventQueue::pop", … ] },
//!   "summary": { "suppressed": 28, "unsuppressed": 0 }
//! }
//! ```

use json::Json;

use crate::rules::{META_RULES, RULES};
use crate::LintRun;

/// Version tag carried in every report's `schema` field.
pub const SCHEMA: &str = "mptcp-lint-report/v2";

/// Build the report document.
pub fn to_json(root: &str, run: &LintRun) -> Json {
    let strings =
        |items: &[String]| Json::Array(items.iter().map(|p| Json::from(p.as_str())).collect());
    let rules = RULES
        .iter()
        .chain(META_RULES)
        .map(|r| {
            Json::object([
                ("id", Json::from(r.id)),
                ("name", Json::from(r.name)),
                ("summary", Json::from(r.summary)),
            ])
        })
        .collect();
    let entries = run
        .findings
        .iter()
        .map(|f| {
            Json::object([
                ("rule", Json::from(f.rule)),
                ("file", Json::from(f.file.as_str())),
                ("line", Json::Number(f.line.into())),
                ("col", Json::Number(f.col.into())),
                ("message", Json::from(f.message.as_str())),
                ("suppressed", Json::from(f.suppressed.is_some())),
                (
                    "reason",
                    f.suppressed.as_deref().map_or(Json::Null, Json::from),
                ),
            ])
        })
        .collect();
    let rule_counts = RULES.iter().chain(META_RULES).map(|r| {
        let (mut sup, mut unsup) = (0usize, 0usize);
        for f in run.findings.iter().filter(|f| f.rule == r.id) {
            if f.suppressed.is_some() {
                sup += 1;
            } else {
                unsup += 1;
            }
        }
        (
            r.id,
            Json::object([
                ("suppressed", Json::from(sup)),
                ("unsuppressed", Json::from(unsup)),
            ]),
        )
    });
    let suppressed = run
        .findings
        .iter()
        .filter(|f| f.suppressed.is_some())
        .count();
    Json::object([
        ("schema", Json::from(SCHEMA)),
        ("root", Json::from(root)),
        ("files_scanned", Json::from(run.files_scanned)),
        ("rules", Json::Array(rules)),
        ("findings", Json::Array(entries)),
        ("rule_counts", Json::object(rule_counts)),
        ("hot_paths", strings(&run.hot_paths)),
        (
            "roots",
            Json::object([
                ("patterns", strings(&run.roots)),
                ("matched", strings(&run.matched_roots)),
            ]),
        ),
        (
            "summary",
            Json::object([
                ("suppressed", Json::from(suppressed)),
                ("unsuppressed", Json::from(run.findings.len() - suppressed)),
            ]),
        ),
    ])
}

/// Validate a parsed report against `mptcp-lint-report/v2`.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = field_str(doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    field_str(doc, "root")?;
    field_count(doc, "files_scanned")?;

    let known_ids: Vec<&str> = RULES.iter().chain(META_RULES).map(|r| r.id).collect();
    let rules = doc
        .get("rules")
        .and_then(Json::as_array)
        .ok_or("missing `rules` array")?;
    for (i, rule) in rules.iter().enumerate() {
        for key in ["id", "name", "summary"] {
            field_str(rule, key).map_err(|e| format!("rules[{i}]: {e}"))?;
        }
    }

    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("missing `findings` array")?;
    let mut suppressed = 0usize;
    let mut per_rule: Vec<(&str, usize, usize)> = Vec::new();
    for (i, f) in findings.iter().enumerate() {
        let at = |e: String| format!("findings[{i}]: {e}");
        let rule = field_str(f, "rule").map_err(at)?;
        if !known_ids.contains(&rule) {
            return Err(format!("findings[{i}]: unknown rule {rule:?}"));
        }
        field_str(f, "file").map_err(at)?;
        field_count(f, "line").map_err(at)?;
        field_count(f, "col").map_err(at)?;
        field_str(f, "message").map_err(at)?;
        let is_suppressed = f
            .get("suppressed")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("findings[{i}]: `suppressed` must be a bool"))?;
        match (is_suppressed, f.get("reason")) {
            (true, Some(Json::String(reason))) if !reason.trim().is_empty() => suppressed += 1,
            (true, _) => {
                return Err(format!(
                    "findings[{i}]: suppressed finding must carry a non-empty `reason`"
                ))
            }
            (false, Some(Json::Null)) => {}
            (false, _) => {
                return Err(format!(
                    "findings[{i}]: unsuppressed finding must have null `reason`"
                ))
            }
        }
        match per_rule.iter_mut().find(|(r, _, _)| *r == rule) {
            Some(entry) => {
                if is_suppressed {
                    entry.1 += 1;
                } else {
                    entry.2 += 1;
                }
            }
            None => per_rule.push((
                rule,
                usize::from(is_suppressed),
                usize::from(!is_suppressed),
            )),
        }
    }

    let counts = doc
        .get("rule_counts")
        .and_then(Json::as_object)
        .ok_or("missing `rule_counts` object")?;
    for (id, entry) in counts {
        if !known_ids.contains(&id.as_str()) {
            return Err(format!("rule_counts: unknown rule {id:?}"));
        }
        let sup = field_count(entry, "suppressed").map_err(|e| format!("rule_counts.{id}: {e}"))?;
        let unsup =
            field_count(entry, "unsuppressed").map_err(|e| format!("rule_counts.{id}: {e}"))?;
        let (actual_sup, actual_unsup) = per_rule
            .iter()
            .find(|(r, _, _)| *r == id)
            .map(|(_, s, u)| (*s, *u))
            .unwrap_or((0, 0));
        if sup != actual_sup || unsup != actual_unsup {
            return Err(format!(
                "rule_counts.{id} ({sup}/{unsup}) disagrees with the findings array \
                 ({actual_sup}/{actual_unsup})"
            ));
        }
    }
    for (rule, _, _) in &per_rule {
        if !counts.contains_key(*rule) {
            return Err(format!("rule_counts: missing entry for rule {rule:?}"));
        }
    }
    let hot = doc
        .get("hot_paths")
        .and_then(Json::as_array)
        .ok_or("missing `hot_paths` array")?;
    for (i, p) in hot.iter().enumerate() {
        if p.as_str().is_none() {
            return Err(format!("hot_paths[{i}]: must be a string"));
        }
    }
    let roots = doc.get("roots").ok_or("missing `roots`")?;
    for key in ["patterns", "matched"] {
        let arr = roots
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("roots: missing `{key}` array"))?;
        for (i, p) in arr.iter().enumerate() {
            if p.as_str().is_none() {
                return Err(format!("roots.{key}[{i}]: must be a string"));
            }
        }
    }

    let summary = doc.get("summary").ok_or("missing `summary`")?;
    let said_suppressed =
        field_count(summary, "suppressed").map_err(|e| format!("summary: {e}"))?;
    let said_unsuppressed =
        field_count(summary, "unsuppressed").map_err(|e| format!("summary: {e}"))?;
    if said_suppressed != suppressed || said_unsuppressed != findings.len() - suppressed {
        return Err(format!(
            "summary ({said_suppressed} suppressed / {said_unsuppressed} unsuppressed) \
             disagrees with the findings array ({} / {})",
            suppressed,
            findings.len() - suppressed
        ));
    }
    Ok(())
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn field_count(doc: &Json, key: &str) -> Result<usize, String> {
    let n = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("field `{key}` must be a non-negative integer"));
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;
    use json::parse;

    fn sample() -> LintRun {
        LintRun {
            files_scanned: 140,
            findings: vec![
                Finding {
                    rule: "R1",
                    file: "crates/netsim/src/profile.rs".into(),
                    line: 65,
                    col: 25,
                    message: "wall-clock".into(),
                    suppressed: Some("profiling is the point".into()),
                },
                Finding {
                    rule: "R2",
                    file: "crates/tcpsim/src/source.rs".into(),
                    line: 73,
                    col: 14,
                    message: "unordered".into(),
                    suppressed: None,
                },
            ],
            hot_paths: vec!["crates/eventsim/src/queue.rs".into()],
            roots: vec!["EventQueue::pop*".into()],
            matched_roots: vec!["crates/eventsim/src/queue.rs: EventQueue::pop".into()],
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let doc = to_json(".", &sample());
        let text = doc.render_pretty();
        let back = parse(&text).expect("report parses");
        validate(&back).expect("report validates");
    }

    #[test]
    fn validator_rejects_wrong_schema_and_lying_summary() {
        let doc = to_json(".", &sample());
        let mut text = doc.render_pretty();
        text = text.replace("mptcp-lint-report/v2", "mptcp-lint-report/v0");
        assert!(validate(&parse(&text).unwrap())
            .unwrap_err()
            .contains("schema"));

        let text = to_json(".", &sample())
            .render_pretty()
            .replace("\"unsuppressed\": 1", "\"unsuppressed\": 0");
        assert!(validate(&parse(&text).unwrap()).is_err());

        let text = to_json(".", &sample())
            .render_pretty()
            .replace("\"files_scanned\": 140", "\"files_scanned\": -140");
        assert!(validate(&parse(&text).unwrap())
            .unwrap_err()
            .contains("files_scanned"));
    }

    #[test]
    fn validator_requires_reasons_on_suppressed_findings() {
        let text = to_json(".", &sample())
            .render_pretty()
            .replace("\"profiling is the point\"", "\"\"");
        assert!(validate(&parse(&text).unwrap())
            .unwrap_err()
            .contains("non-empty `reason`"));
    }

    #[test]
    fn validator_checks_v2_rule_counts_against_findings() {
        // Lying per-rule tally: R1 claims no suppressed finding.
        let text = to_json(".", &sample()).render_pretty().replacen(
            "\"suppressed\": 1",
            "\"suppressed\": 0",
            1,
        );
        let err = validate(&parse(&text).unwrap()).unwrap_err();
        assert!(
            err.contains("rule_counts") || err.contains("disagrees"),
            "{err}"
        );
    }

    #[test]
    fn validator_rejects_v1_reports() {
        // v1 had no rule_counts/hot_paths/roots; nothing writes it any more.
        let v1 = r#"{
            "schema": "mptcp-lint-report/v1",
            "root": ".",
            "files_scanned": 1,
            "rules": [{"id": "R1", "name": "wall-clock", "summary": "s"}],
            "findings": [],
            "summary": {"suppressed": 0, "unsuppressed": 0}
        }"#;
        let err = validate(&parse(v1).unwrap()).unwrap_err();
        assert!(err.contains("mptcp-lint-report/v1"), "{err}");
        // Relabelled v2, the same document still misses the v2 fields.
        let err = validate(&parse(&v1.replace("/v1", "/v2")).unwrap()).unwrap_err();
        assert!(err.contains("rule_counts"), "{err}");
    }
}
