//! Chaos-repro pages: a `ChaosCase` file (plus its recorded trace, when
//! present) rendered as a fault-plan schedule and a full timeline.
//!
//! The case file is plain JSON (`chaos::ChaosCase::to_json`); this module
//! reads it structurally so the dependency order stays `chaos → viz`, not
//! the other way around. Clause time windows mirror `chaos::Clause::end_s`
//! exactly — the acceptance test in `tests/viz_timeline.rs` holds the two
//! implementations together by comparing rendered windows against the
//! lowered `FaultPlan`.

use std::fmt::Write as _;

use json::Json;

use crate::page::page;
use crate::render::{meta_line, timeline_body};
use crate::svg::{esc, fmt2, Svg};
use crate::timeline::Timeline;

/// One clause projected onto the time axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseWindow {
    /// Clause kind label (`outage`, `blackout`, ...).
    pub kind: String,
    /// Affected path index; `None` means both paths (blackout).
    pub path: Option<u8>,
    /// Window start, nanoseconds.
    pub from_ns: u64,
    /// Window end, nanoseconds (`== from_ns` for instant steps).
    pub to_ns: u64,
}

fn ns(s: f64) -> u64 {
    (s * 1e9).round() as u64
}

fn f(clause: &Json, key: &str) -> Result<f64, String> {
    clause
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("clause field {key:?} missing or not a number"))
}

/// Project every clause of a case document onto the time axis. Mirrors
/// `chaos::Clause::end_s`.
pub fn clause_windows(case: &Json) -> Result<Vec<ClauseWindow>, String> {
    let clauses = case
        .get("clauses")
        .and_then(Json::as_array)
        .ok_or("case has no clauses array")?;
    let mut out = Vec::with_capacity(clauses.len());
    for c in clauses {
        let kind = c
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("clause without kind")?;
        let path = || -> Result<u8, String> { Ok(f(c, "path")? as u8) };
        let w = match kind {
            "outage" | "loss_burst" => ClauseWindow {
                kind: kind.to_string(),
                path: Some(path()?),
                from_ns: ns(f(c, "from_s")?),
                to_ns: ns(f(c, "from_s")? + f(c, "dur_s")?),
            },
            "blackout" => ClauseWindow {
                kind: kind.to_string(),
                path: None,
                from_ns: ns(f(c, "from_s")?),
                to_ns: ns(f(c, "from_s")? + f(c, "dur_s")?),
            },
            "flap" => {
                let cycle = f(c, "down_s")? + f(c, "up_s")?;
                ClauseWindow {
                    kind: kind.to_string(),
                    path: Some(path()?),
                    from_ns: ns(f(c, "from_s")?),
                    to_ns: ns(f(c, "from_s")? + cycle * f(c, "cycles")?),
                }
            }
            "rate_step" | "latency_step" => ClauseWindow {
                kind: kind.to_string(),
                path: Some(path()?),
                from_ns: ns(f(c, "at_s")?),
                to_ns: ns(f(c, "at_s")?),
            },
            "handover" => ClauseWindow {
                kind: kind.to_string(),
                path: Some(path()?),
                from_ns: ns(f(c, "at_s")?),
                to_ns: ns(f(c, "at_s")? + 2.0 * f(c, "dur_s")?),
            },
            other => return Err(format!("unknown clause kind {other:?}")),
        };
        out.push(w);
    }
    Ok(out)
}

/// The fault-plan schedule chart: one lane per path, clause windows shaded
/// with machine-checkable `data-*` attributes.
fn plan_svg(windows: &[ClauseWindow], horizon_ns: u64) -> String {
    const LEFT: f64 = 60.0;
    const PLOT_W: f64 = 888.0;
    const LANE_H: f64 = 26.0;
    let h = 2.0 * LANE_H + 24.0;
    let mut svg = Svg::new(960.0, h, "chart");
    let span = horizon_ns.max(1) as f64;
    let x = |t: u64| LEFT + t as f64 / span * PLOT_W;
    for p in 0..2u8 {
        let top = p as f64 * LANE_H + 4.0;
        svg.text(2.0, top + 14.0, "lane-title", &format!("path {p}"));
        svg.line(
            LEFT,
            top + LANE_H - 6.0,
            LEFT + PLOT_W,
            top + LANE_H - 6.0,
            "axis",
            "",
        );
        for w in windows {
            if w.path.is_some() && w.path != Some(p) {
                continue;
            }
            let attrs =
                format!(
                "data-clause-kind=\"{}\" data-path=\"{}\" data-from-ns=\"{}\" data-to-ns=\"{}\"",
                esc(&w.kind),
                w.path.map(|p| p.to_string()).unwrap_or_else(|| "both".to_string()),
                w.from_ns,
                w.to_ns
            );
            let class = format!("clause-{}", w.kind);
            if w.from_ns == w.to_ns {
                svg.rect(x(w.from_ns) - 1.0, top, 2.0, LANE_H - 8.0, &class, &attrs);
            } else {
                svg.rect(
                    x(w.from_ns),
                    top,
                    x(w.to_ns) - x(w.from_ns),
                    LANE_H - 8.0,
                    &class,
                    &attrs,
                );
            }
        }
    }
    for i in 0..=5u64 {
        let t = horizon_ns.max(1) * i / 5;
        svg.text(
            x(t) - 10.0,
            h - 8.0,
            "tick",
            &format!("{}s", fmt2(t as f64 / 1e9)),
        );
    }
    svg.finish()
}

/// Render a chaos repro page: the case summary, the clause schedule, and —
/// when the recorded trace is provided — the full timeline below it.
pub fn render_chaos_html(
    title: &str,
    case: &Json,
    trace_jsonl: Option<&str>,
) -> Result<String, String> {
    let windows = clause_windows(case)?;
    let horizon_s = case
        .get("horizon_s")
        .and_then(Json::as_f64)
        .ok_or("case has no horizon_s")?;
    let mut body = String::new();
    let _ = writeln!(body, "<h1>{}</h1>", esc(title));

    let g = |k: &str| {
        case.get(k)
            .map(|v| match v {
                Json::String(s) => s.clone(),
                other => other.render(),
            })
            .unwrap_or_default()
    };
    let seed = {
        let hex = g("seed_hex");
        if hex.is_empty() {
            g("seed")
        } else {
            hex
        }
    };
    let _ = writeln!(
        body,
        "<p class=\"meta\">seed {} &middot; algorithm {} &middot; rates {} Mb/s &middot; delays {} ms &middot; horizon {} s &middot; {} clause(s)</p>",
        esc(&seed),
        esc(&g("algorithm")),
        esc(&g("rate_mbps")),
        esc(&g("delay_ms")),
        fmt2(horizon_s),
        windows.len()
    );

    body.push_str("<h2>fault schedule</h2>\n");
    body.push_str(&plan_svg(&windows, ns(horizon_s)));
    body.push_str("<table><tr><th class=\"l\">kind</th><th class=\"l\">path</th><th>from (s)</th><th>to (s)</th></tr>\n");
    for w in &windows {
        let _ = writeln!(
            body,
            "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td>{}</td><td>{}</td></tr>",
            esc(&w.kind),
            w.path
                .map(|p| p.to_string())
                .unwrap_or_else(|| "both".to_string()),
            fmt2(w.from_ns as f64 / 1e9),
            fmt2(w.to_ns as f64 / 1e9)
        );
    }
    body.push_str("</table>\n");

    match trace_jsonl {
        Some(text) => {
            let tl = Timeline::from_jsonl(text).map_err(|e| e.to_string())?;
            body.push_str("<h2>recorded timeline</h2>\n");
            body.push_str(&meta_line(&tl));
            body.push_str(&timeline_body(&tl));
        }
        None => {
            body.push_str(
                "<p class=\"meta\">no recorded trace alongside this case; \
                 replay it with the chaos CLI to produce one</p>\n",
            );
        }
    }
    Ok(page(title, &body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::parse;

    fn case_doc() -> Json {
        parse(
            r#"{
  "seed_hex": "0000000000000007", "algorithm": "lia",
  "rate_mbps": [8.0, 6.0], "delay_ms": [40.0, 20.0], "horizon_s": 30.0,
  "clauses": [
    {"kind": "outage", "path": 0, "from_s": 4.0, "dur_s": 18.0},
    {"kind": "rate_step", "path": 1, "at_s": 10.0, "rate_mbps": 2.0},
    {"kind": "blackout", "from_s": 25.0, "dur_s": 2.0}
  ]
}"#,
        )
        .unwrap()
    }

    #[test]
    fn clause_windows_mirror_clause_semantics() {
        let w = clause_windows(&case_doc()).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(
            w[0],
            ClauseWindow {
                kind: "outage".to_string(),
                path: Some(0),
                from_ns: 4_000_000_000,
                to_ns: 22_000_000_000,
            }
        );
        assert_eq!(w[1].from_ns, w[1].to_ns, "steps are instants");
        assert_eq!(w[2].path, None, "blackout affects both paths");
    }

    #[test]
    fn page_exposes_clause_windows_as_data_attributes() {
        let html = render_chaos_html("repro", &case_doc(), None).unwrap();
        assert!(html.contains(
            "data-clause-kind=\"outage\" data-path=\"0\" data-from-ns=\"4000000000\" data-to-ns=\"22000000000\""
        ));
        assert!(html.contains("data-path=\"both\""));
        assert!(html.contains("no recorded trace"));
    }

    #[test]
    fn page_embeds_a_trace_timeline_when_given_one() {
        let jsonl = "{\"t_ns\":4000000000,\"ev\":\"fault\",\"queue\":0,\"action\":\"link_down\"}\n\
                     {\"t_ns\":22000000000,\"ev\":\"fault\",\"queue\":0,\"action\":\"link_up\"}\n";
        let html = render_chaos_html("repro", &case_doc(), Some(jsonl)).unwrap();
        assert!(html.contains("recorded timeline"));
        assert!(html.contains(
            "data-action=\"link_down\" data-from-ns=\"4000000000\" data-to-ns=\"22000000000\""
        ));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_chaos_html("r", &case_doc(), None).unwrap();
        let b = render_chaos_html("r", &case_doc(), None).unwrap();
        assert_eq!(a, b);
    }
}
