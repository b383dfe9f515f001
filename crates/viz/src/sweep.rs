//! Sweep explorer: `mptcp-sweep-report/v1` → comparison pages.
//!
//! The index page charts every metric across all parameter points (mean
//! with a ci95 whisker per point) and links one detail page per point with
//! the full per-metric statistics and the per-seed determinism digests.
//!
//! Rendering is a pure function of the sweep document, so the emitted bytes
//! are identical across reruns and across `--jobs` settings (point pages
//! are rendered in parallel but joined in point order).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use json::Json;

use crate::page::page;
use crate::svg::{esc, fmt2, Svg};

/// One metric's summary at one sweep point (the `metrics.<name>` object).
#[derive(Debug, Clone, Copy)]
struct Stat {
    n: f64,
    mean: f64,
    std: f64,
    min: f64,
    max: f64,
    ci95: f64,
}

/// One sweep point plus everything its detail page needs.
#[derive(Debug, Clone)]
struct Point {
    key: String,
    scenario: String,
    params: Vec<(String, String)>,
    seeds: Vec<u64>,
    failed_seeds: Vec<u64>,
    digests: Vec<String>,
    metrics: BTreeMap<String, Stat>,
}

fn stat_of(j: &Json) -> Option<Stat> {
    Some(Stat {
        n: j.get("n")?.as_f64()?,
        mean: j.get("mean")?.as_f64()?,
        std: j.get("std")?.as_f64()?,
        min: j.get("min")?.as_f64()?,
        max: j.get("max")?.as_f64()?,
        ci95: j.get("ci95")?.as_f64()?,
    })
}

fn render_value(v: &Json) -> String {
    match v {
        Json::String(s) => s.clone(),
        other => other.render(),
    }
}

/// Stable file name for a point page: sanitized key plus an FNV suffix so
/// distinct keys can never collide after sanitization.
pub fn point_file_name(key: &str) -> String {
    let mut slug = String::with_capacity(key.len());
    for c in key.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c);
        } else if !slug.ends_with('-') {
            slug.push('-');
        }
    }
    let slug = slug.trim_matches('-');
    let mut d = trace::Digest64::new();
    d.update(key.as_bytes());
    format!("point-{}-{:08x}.html", slug, d.finish() as u32)
}

fn parse_points(doc: &Json) -> Result<Vec<Point>, String> {
    let points = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or("sweep document has no points array")?;
    let mut out = Vec::with_capacity(points.len());
    for p in points {
        let key = p
            .get("point")
            .and_then(Json::as_str)
            .ok_or("point without a key")?
            .to_string();
        let scenario = p
            .get("scenario")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let params = p
            .get("params")
            .and_then(Json::as_object)
            .map(|m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), render_value(v)))
                    .collect()
            })
            .unwrap_or_default();
        let seeds_of = |field: &str| -> Vec<u64> {
            p.get(field)
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_f64)
                        .map(|v| v as u64)
                        .collect()
                })
                .unwrap_or_default()
        };
        let digests = p
            .get("digests")
            .and_then(Json::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let metrics = p
            .get("metrics")
            .and_then(Json::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| stat_of(v).map(|s| (k.clone(), s)))
                    .collect()
            })
            .unwrap_or_default();
        out.push(Point {
            key,
            scenario,
            params,
            seeds: seeds_of("seeds"),
            failed_seeds: seeds_of("failed_seeds"),
            digests,
            metrics,
        });
    }
    Ok(out)
}

/// Horizontal mean±ci95 comparison chart for one metric across all points.
fn metric_chart(metric: &str, points: &[Point]) -> String {
    let rows: Vec<(&str, Stat)> = points
        .iter()
        .filter_map(|p| p.metrics.get(metric).map(|s| (p.key.as_str(), *s)))
        .collect();
    let x_max = rows
        .iter()
        .map(|(_, s)| (s.mean + s.ci95).abs().max(s.max.abs()))
        .fold(f64::MIN_POSITIVE, f64::max)
        * 1.1;
    const ROW_H: f64 = 18.0;
    const LEFT: f64 = 300.0;
    const PLOT_W: f64 = 560.0;
    let h = rows.len() as f64 * ROW_H + 24.0;
    let mut svg = Svg::new(900.0, h, "chart");
    let x = |v: f64| LEFT + (v.max(0.0) / x_max) * PLOT_W;
    svg.line(LEFT, 2.0, LEFT, h - 20.0, "axis", "");
    svg.line(LEFT, h - 20.0, LEFT + PLOT_W, h - 20.0, "axis", "");
    for i in 0..=4u32 {
        let v = x_max * i as f64 / 4.0;
        svg.text(x(v) - 8.0, h - 8.0, "tick", &fmt2(v));
    }
    for (i, (key, s)) in rows.iter().enumerate() {
        let y = i as f64 * ROW_H + 4.0;
        svg.text(2.0, y + 10.0, "tick", key);
        svg.rect(
            LEFT,
            y + 2.0,
            x(s.mean) - LEFT,
            ROW_H - 6.0,
            "bar",
            &format!("data-point=\"{}\" data-mean=\"{}\"", esc(key), fmt2(s.mean)),
        );
        let cy = y + ROW_H / 2.0 - 1.0;
        let (lo, hi) = (x((s.mean - s.ci95).max(0.0)), x(s.mean + s.ci95));
        svg.line(lo, cy, hi, cy, "ci", "");
        svg.line(lo, cy - 3.0, lo, cy + 3.0, "ci", "");
        svg.line(hi, cy - 3.0, hi, cy + 3.0, "ci", "");
    }
    svg.finish()
}

fn index_page(doc: &Json, points: &[Point]) -> String {
    let manifest = doc.get("manifest");
    let run_id = manifest
        .and_then(|m| m.get("id"))
        .and_then(Json::as_str)
        .unwrap_or("sweep");
    let scale = manifest
        .and_then(|m| m.get("scale"))
        .and_then(Json::as_str)
        .unwrap_or("");
    let jobs = doc.get("jobs");
    let jn = |k: &str| {
        jobs.and_then(|j| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut body = String::new();
    let _ = writeln!(body, "<h1>sweep {}</h1>", esc(run_id));
    let _ = writeln!(
        body,
        "<p class=\"meta\">scale {} &middot; jobs: {} done, {} failed, {} abandoned, {} total</p>",
        esc(scale),
        jn("done"),
        jn("failed"),
        jn("abandoned"),
        jn("total")
    );
    let mut metric_names: Vec<&str> = points
        .iter()
        .flat_map(|p| p.metrics.keys().map(String::as_str))
        .collect();
    metric_names.sort_unstable();
    metric_names.dedup();
    for metric in metric_names {
        let _ = writeln!(body, "<h2>{} (mean &plusmn; ci95)</h2>", esc(metric));
        body.push_str(&metric_chart(metric, points));
    }
    body.push_str("<h2>points</h2>\n<table><tr><th class=\"l\">point</th><th class=\"l\">scenario</th><th>seeds</th><th>failed</th><th class=\"l\">detail</th></tr>\n");
    for p in points {
        let file = point_file_name(&p.key);
        let _ = writeln!(
            body,
            "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td>{}</td><td>{}</td><td class=\"l\"><a href=\"{}\">{}</a></td></tr>",
            esc(&p.key),
            esc(&p.scenario),
            p.seeds.len(),
            p.failed_seeds.len(),
            esc(&file),
            esc(&file)
        );
    }
    body.push_str("</table>\n");
    page(&format!("sweep {run_id}"), &body)
}

fn point_page(p: &Point) -> String {
    let mut body = String::new();
    let _ = writeln!(body, "<h1>{}</h1>", esc(&p.key));
    let _ = writeln!(
        body,
        "<p class=\"meta\">scenario {} &middot; {} seed(s), {} failed &middot; <a href=\"index.html\">back to sweep</a></p>",
        esc(&p.scenario),
        p.seeds.len(),
        p.failed_seeds.len()
    );
    if !p.params.is_empty() {
        body.push_str("<h2>parameters</h2>\n<table><tr><th class=\"l\">param</th><th class=\"l\">value</th></tr>\n");
        for (k, v) in &p.params {
            let _ = writeln!(
                body,
                "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td></tr>",
                esc(k),
                esc(v)
            );
        }
        body.push_str("</table>\n");
    }
    body.push_str("<h2>metrics</h2>\n<table><tr><th class=\"l\">metric</th><th>n</th><th>mean</th><th>ci95</th><th>std</th><th>min</th><th>max</th></tr>\n");
    for (name, s) in &p.metrics {
        let _ = writeln!(
            body,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(name),
            s.n,
            fmt2(s.mean),
            fmt2(s.ci95),
            fmt2(s.std),
            fmt2(s.min),
            fmt2(s.max)
        );
    }
    body.push_str("</table>\n");
    if !p.digests.is_empty() {
        body.push_str("<h2>trace digests (determinism witnesses)</h2>\n<table><tr><th>seed</th><th class=\"l\">digest</th></tr>\n");
        for (i, d) in p.digests.iter().enumerate() {
            let seed = p
                .seeds
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".to_string());
            let _ = writeln!(
                body,
                "<tr><td>{}</td><td class=\"l\">{}</td></tr>",
                esc(&seed),
                esc(d)
            );
        }
        body.push_str("</table>\n");
    }
    page(&p.key, &body)
}

/// Render the sweep explorer: `("index.html", …)` plus one page per point,
/// in point order. `jobs` only parallelizes point-page rendering — the
/// returned pages are byte-identical for any value.
pub fn sweep_pages(doc: &Json, jobs: usize) -> Result<Vec<(String, String)>, String> {
    let points = parse_points(doc)?;
    let mut pages = Vec::with_capacity(points.len() + 1);
    pages.push(("index.html".to_string(), index_page(doc, &points)));

    let n = points.len();
    let slots: Vec<Mutex<Option<String>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "renders independent point pages across workers; each page lands in its point's slot, so the output is byte-identical for any worker count"
    )]
    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1).min(n.max(1)) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                *slots[k].lock().expect("point slot poisoned") = Some(point_page(&points[k]));
            });
        }
    });
    for (i, slot) in slots.into_iter().enumerate() {
        let html = slot
            .into_inner()
            .expect("point slot poisoned")
            .expect("worker exited without rendering its point");
        pages.push((point_file_name(&points[i].key), html));
    }
    Ok(pages)
}

/// Load `sweep.json` from an orchestra run directory and render the
/// explorer pages.
pub fn render_run_dir(
    run_dir: &std::path::Path,
    jobs: usize,
) -> Result<Vec<(String, String)>, String> {
    let sweep_path = run_dir.join("sweep.json");
    let text = std::fs::read_to_string(&sweep_path)
        .map_err(|e| format!("cannot read {}: {e}", sweep_path.display()))?;
    let doc =
        json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", sweep_path.display()))?;
    sweep_pages(&doc, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::parse;

    fn sample_doc() -> Json {
        parse(
            r#"{
  "schema": "mptcp-sweep-report/v1",
  "manifest": {"id": "demo", "scale": "quick", "seeds": [1, 2]},
  "jobs": {"done": 4, "failed": 0, "abandoned": 0, "total": 4},
  "job_index": [
    {"job": "smoke?a=1#seed=1", "report": "jobs/r1.json", "status": "done", "attempts": 1},
    {"job": "smoke?a=1#seed=2", "report": "jobs/r2.json", "status": "done", "attempts": 1}
  ],
  "points": [
    {
      "point": "smoke?a=1", "scenario": "smoke",
      "params": {"a": 1}, "seeds": [1, 2], "failed_seeds": [],
      "digests": ["aa", "bb"],
      "metrics": {"goodput": {"n": 2, "mean": 5.0, "std": 0.5, "min": 4.5, "max": 5.5, "ci95": 1.0}}
    },
    {
      "point": "smoke?a=2", "scenario": "smoke",
      "params": {"a": 2}, "seeds": [1, 2], "failed_seeds": [],
      "digests": ["cc", "dd"],
      "metrics": {"goodput": {"n": 2, "mean": 7.0, "std": 0.5, "min": 6.5, "max": 7.5, "ci95": 1.0}}
    }
  ]
}"#,
        )
        .unwrap()
    }

    #[test]
    fn pages_are_byte_identical_across_jobs_settings() {
        let doc = sample_doc();
        let solo = sweep_pages(&doc, 1).unwrap();
        let parallel = sweep_pages(&doc, 4).unwrap();
        assert_eq!(solo, parallel);
        assert_eq!(solo.len(), 3, "index + 2 point pages");
        assert_eq!(solo[0].0, "index.html");
    }

    #[test]
    fn index_links_point_pages_and_charts_metrics() {
        let pages = sweep_pages(&sample_doc(), 1).unwrap();
        let index = &pages[0].1;
        assert!(index.contains("goodput"));
        assert!(index.contains(&point_file_name("smoke?a=1")));
        assert!(index.contains("data-mean=\"5.00\""));
        assert!(index.contains("data-mean=\"7.00\""));
    }

    #[test]
    fn file_names_are_stable_and_collision_resistant() {
        assert_eq!(point_file_name("a?b=1"), point_file_name("a?b=1"));
        assert_ne!(point_file_name("a?b=1"), point_file_name("a-b-1"));
        let name = point_file_name("smoke?algorithm=lia&c1_over_c2=0.8");
        assert!(name.starts_with("point-smoke-algorithm-lia"), "{name}");
        assert!(name.ends_with(".html"));
    }
}
