//! Cross-seed aggregation: the `mptcp-sweep-report/v1` document.
//!
//! After every job has a terminal journal entry, the sweep groups jobs by
//! parameter point, computes per-metric statistics across the point's
//! completed seeds with [`metrics::Summary`] (n, mean, sample stddev,
//! min/max, 95% CI), and records every job's outcome in a flat `job_index`.
//! Everything is ordered by key — points by point key, jobs by job key,
//! metrics by name — so the document's bytes are a pure function of the
//! manifest and the job outcomes, never of worker count or completion
//! order. `bench::report::validate_sweep` checks the result (CI runs it via
//! `validate_report --strict`).

use std::collections::BTreeMap;

use json::Json;
use metrics::Summary;

use crate::manifest::{Job, Manifest};
use crate::rundir::JournalEntry;

fn stats_json(values: &[f64]) -> Json {
    let s = Summary::of(values);
    Json::object([
        ("n", Json::from(s.n as u64)),
        ("mean", Json::from(s.mean)),
        ("std", Json::from(s.std)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("ci95", Json::from(s.ci95)),
    ])
}

/// Build the sweep document. `results` must hold a terminal entry for every
/// job in `jobs` (the orchestrator guarantees this after the pool drains);
/// a missing entry is a bug and panics. `abandoned` is the pool's
/// abandoned-thread tally (timed-out attempts whose threads were detached).
pub fn build_sweep(
    manifest: &Manifest,
    jobs: &[Job],
    results: &BTreeMap<String, JournalEntry>,
    abandoned: usize,
) -> Json {
    // Group by parameter point, keeping each point's jobs in expansion
    // (manifest seed) order.
    let mut points: BTreeMap<&str, Vec<&Job>> = BTreeMap::new();
    for job in jobs {
        points.entry(&job.point_key).or_default().push(job);
    }
    let mut point_docs = Vec::new();
    for (point_key, point_jobs) in &points {
        let mut seeds = Vec::new();
        let mut failed_seeds = Vec::new();
        let mut digests = Vec::new();
        let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for job in point_jobs {
            let entry = results
                .get(&job.key)
                .unwrap_or_else(|| panic!("no terminal result for job {:?}", job.key));
            if entry.is_done() {
                seeds.push(Json::from(job.manifest_seed));
                digests.push(Json::from(entry.digest.as_str()));
                for (name, value) in &entry.metrics {
                    series.entry(name).or_default().push(*value);
                }
            } else {
                failed_seeds.push(Json::from(job.manifest_seed));
            }
        }
        let metrics: BTreeMap<String, Json> = series
            .iter()
            .map(|(name, values)| (name.to_string(), stats_json(values)))
            .collect();
        point_docs.push(Json::object([
            ("point", Json::from(*point_key)),
            ("scenario", Json::from(point_jobs[0].scenario.as_str())),
            ("params", Json::Object(point_jobs[0].params.clone())),
            ("seeds", Json::Array(seeds)),
            ("failed_seeds", Json::Array(failed_seeds)),
            ("metrics", Json::Object(metrics)),
            ("digests", Json::Array(digests)),
        ]));
    }

    // Flat per-job index, sorted by key.
    let mut sorted: Vec<&Job> = jobs.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut index = Vec::new();
    let mut done = 0u64;
    let mut failed = 0u64;
    for job in sorted {
        let entry = results
            .get(&job.key)
            .unwrap_or_else(|| panic!("no terminal result for job {:?}", job.key));
        let mut doc = BTreeMap::from([
            ("job".to_string(), Json::from(job.key.as_str())),
            ("status".to_string(), Json::from(entry.status.as_str())),
            ("attempts".to_string(), Json::from(entry.attempts as u64)),
        ]);
        if entry.is_done() {
            done += 1;
            doc.insert("digest".to_string(), Json::from(entry.digest.as_str()));
            doc.insert("report".to_string(), Json::from(entry.report.as_str()));
        } else {
            failed += 1;
            doc.insert("error".to_string(), Json::from(entry.error.as_str()));
        }
        index.push(Json::Object(doc));
    }

    Json::object([
        ("schema", Json::from(bench::report::SWEEP_SCHEMA)),
        (
            "manifest",
            Json::object([
                ("id", Json::from(manifest.id.as_str())),
                ("scale", Json::from(manifest.scale.name())),
                (
                    "seeds",
                    Json::Array(manifest.seeds.iter().map(|&s| Json::from(s)).collect()),
                ),
            ]),
        ),
        (
            "jobs",
            Json::object([
                ("total", Json::from(done + failed)),
                ("done", Json::from(done)),
                ("failed", Json::from(failed)),
                ("abandoned", Json::from(abandoned as u64)),
            ]),
        ),
        ("points", Json::Array(point_docs)),
        ("job_index", Json::Array(index)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::jobs::JobOutput;

    fn manifest() -> Manifest {
        let text = r#"{
          "schema": "mptcp-manifest/v1", "id": "s", "scale": "quick",
          "seeds": [1, 2],
          "scenarios": [{ "name": "smoke", "grid": { "algorithm": ["lia", "olia"] } }]
        }"#;
        Manifest::parse(&json::parse(text).unwrap()).unwrap()
    }

    fn output(v: f64) -> JobOutput {
        JobOutput {
            metrics: BTreeMap::from([("m".to_string(), v)]),
            digest: format!("{:016x}", (v * 1e6) as u64),
            trace_events: 1,
            events: 2,
            sim_s: 3.0,
        }
    }

    #[test]
    fn sweep_aggregates_per_point_and_validates() {
        let m = manifest();
        let jobs = m.expand(None).unwrap();
        assert_eq!(jobs.len(), 4);
        let mut results = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let entry = if job.key.contains("olia") && job.manifest_seed == 2 {
                JournalEntry::failed(job, 3, "panicked: boom".to_string())
            } else {
                JournalEntry::done(job, 1, &output(i as f64), format!("jobs/{i}.json"))
            };
            results.insert(job.key.clone(), entry);
        }
        let doc = build_sweep(&m, &jobs, &results, 1);
        bench::report::validate_sweep(&doc).expect("sweep must validate");

        let points = doc.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 2);
        // The lia point has both seeds; mean of m over seeds 1,2.
        let lia = &points[0];
        assert_eq!(
            lia.get("point").unwrap().as_str().unwrap(),
            "smoke?algorithm=lia"
        );
        let stats = lia.get("metrics").unwrap().get("m").unwrap();
        assert_eq!(stats.get("n").unwrap().as_f64(), Some(2.0));
        assert_eq!(stats.get("mean").unwrap().as_f64(), Some(0.5));
        // The olia point lost seed 2.
        let olia = &points[1];
        assert_eq!(olia.get("seeds").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(
            olia.get("failed_seeds").unwrap().as_array().unwrap().len(),
            1
        );
        let counts = doc.get("jobs").unwrap();
        assert_eq!(counts.get("done").unwrap().as_f64(), Some(3.0));
        assert_eq!(counts.get("failed").unwrap().as_f64(), Some(1.0));
        assert_eq!(counts.get("abandoned").unwrap().as_f64(), Some(1.0));
        // Byte-stable under identical inputs.
        assert_eq!(
            doc.render_pretty(),
            build_sweep(&m, &jobs, &results, 1).render_pretty()
        );
    }
}
