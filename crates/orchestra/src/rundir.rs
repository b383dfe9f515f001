//! Checkpointed run directories: `results/orchestra/<run-id>/`.
//!
//! Layout:
//!
//! ```text
//! results/orchestra/<run-id>/
//!   manifest.json    frozen input manifest — authoritative on resume
//!   journal.jsonl    append-only: one line per finished job attempt-group
//!   jobs/<stem>.json one mptcp-run-report/v1 per completed job
//!   sweep.json       mptcp-sweep-report/v1 cross-seed aggregation
//! ```
//!
//! The journal is the resume point: every finished job (done *or* failed)
//! appends one self-contained line with its metrics and trace digest. A
//! resumed run re-expands the frozen manifest, skips every job whose latest
//! journal status is `done`, re-runs the rest, and rebuilds `sweep.json`
//! from the merged picture — so an interrupted-then-resumed run emits the
//! same bytes as an uninterrupted one. Journal line *order* is completion
//! order (scheduling-dependent and intentionally not compared); all
//! deterministic artifacts are keyed by job, not by position.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use bench::jobs::JobOutput;
use bench::json::Json;

use crate::manifest::{file_stem, Job, Manifest};

/// One journal line: everything the sweep needs to know about a finished
/// job, so resume never has to re-parse per-job reports.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Job key.
    pub job: String,
    /// `"done"` or `"failed"`.
    pub status: String,
    /// Attempts made.
    pub attempts: u32,
    /// Trace digest (16 hex chars, or `"-"` when capture was off; empty
    /// for failed jobs).
    pub digest: String,
    /// Scalar metrics of a done job.
    pub metrics: BTreeMap<String, f64>,
    /// Events the digest sink absorbed.
    pub trace_events: u64,
    /// Events the simulation dispatched.
    pub events: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Failure cause (empty for done jobs).
    pub error: String,
    /// Run-dir-relative report path (empty for failed jobs).
    pub report: String,
}

impl JournalEntry {
    /// Entry for a completed job.
    pub fn done(job: &Job, attempts: u32, out: &JobOutput, report: String) -> JournalEntry {
        JournalEntry {
            job: job.key.clone(),
            status: "done".to_string(),
            attempts,
            digest: out.digest.clone(),
            metrics: out.metrics.clone(),
            trace_events: out.trace_events,
            events: out.events,
            sim_s: out.sim_s,
            error: String::new(),
            report,
        }
    }

    /// Entry for a job whose attempts were exhausted.
    pub fn failed(job: &Job, attempts: u32, error: String) -> JournalEntry {
        JournalEntry {
            job: job.key.clone(),
            status: "failed".to_string(),
            attempts,
            digest: String::new(),
            metrics: BTreeMap::new(),
            trace_events: 0,
            events: 0,
            sim_s: 0.0,
            error,
            report: String::new(),
        }
    }

    /// Whether this job needs no re-run on resume.
    pub fn is_done(&self) -> bool {
        self.status == "done"
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("job", Json::from(self.job.as_str())),
            ("status", Json::from(self.status.as_str())),
            ("attempts", Json::from(self.attempts as u64)),
            ("digest", Json::from(self.digest.as_str())),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("trace_events", Json::from(self.trace_events)),
            ("events", Json::from(self.events)),
            ("sim_s", Json::from(self.sim_s)),
            ("error", Json::from(self.error.as_str())),
            ("report", Json::from(self.report.as_str())),
        ])
    }

    fn from_json(doc: &Json) -> Result<JournalEntry, String> {
        let text = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("journal entry missing {key:?}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("journal entry missing {key:?}"))
        };
        let status = text("status")?;
        if status != "done" && status != "failed" {
            return Err(format!("journal entry has unknown status {status:?}"));
        }
        let mut metrics = BTreeMap::new();
        for (k, v) in doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("journal entry missing \"metrics\"")?
        {
            metrics.insert(
                k.clone(),
                v.as_f64()
                    .ok_or_else(|| format!("journal metric {k:?} not a number"))?,
            );
        }
        Ok(JournalEntry {
            job: text("job")?,
            status,
            attempts: num("attempts")? as u32,
            digest: text("digest")?,
            metrics,
            trace_events: num("trace_events")? as u64,
            events: num("events")? as u64,
            sim_s: num("sim_s")?,
            error: text("error")?,
            report: text("report")?,
        })
    }
}

/// A handle on one run directory.
#[derive(Debug)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Create `out_root/run_id` for a fresh run and freeze its manifest.
    /// Refuses a directory that already holds a manifest — that is a
    /// previous run; resume it or pick another `--run-id`.
    pub fn create(out_root: &Path, run_id: &str, manifest: &Manifest) -> Result<RunDir, String> {
        let root = out_root.join(run_id);
        if root.join("manifest.json").exists() {
            return Err(format!(
                "run directory {} already exists — use --resume {run_id} or a fresh --run-id",
                root.display()
            ));
        }
        fs::create_dir_all(root.join("jobs"))
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let path = root.join("manifest.json");
        fs::write(&path, manifest.to_json().render_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(RunDir { root })
    }

    /// Open an existing run directory for resume.
    pub fn open(out_root: &Path, run_id: &str) -> Result<RunDir, String> {
        let root = out_root.join(run_id);
        if !root.join("manifest.json").exists() {
            return Err(format!(
                "{} has no manifest.json — not a run directory",
                root.display()
            ));
        }
        fs::create_dir_all(root.join("jobs"))
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(RunDir { root })
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The frozen manifest this run executes.
    pub fn manifest(&self) -> Result<Manifest, String> {
        Manifest::from_file(&self.root.join("manifest.json"))
    }

    /// Latest journal state: job key → last entry (a resumed run's re-run
    /// appends a newer line that supersedes an older `failed` one). Partial
    /// trailing lines — the interruption case — are skipped.
    pub fn journal(&self) -> Result<BTreeMap<String, JournalEntry>, String> {
        let path = self.root.join("journal.jsonl");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let mut latest = BTreeMap::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(doc) = bench::json::parse(line) else {
                continue; // torn final write from an interrupted run
            };
            let entry = JournalEntry::from_json(&doc)?;
            latest.insert(entry.job.clone(), entry);
        }
        Ok(latest)
    }

    /// Append one journal line (callers serialize; the pool's `on_complete`
    /// runs under a lock).
    pub fn append(&self, entry: &JournalEntry) -> Result<(), String> {
        let path = self.root.join("journal.jsonl");
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        f.write_all((entry.to_json().render() + "\n").as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))
    }

    /// Write the per-job `mptcp-run-report/v1` under `jobs/`, returning the
    /// run-dir-relative path. The report is a pure function of the job and
    /// its output — wall-clock profile fields are zeroed so the bytes are
    /// identical across worker counts and resumes.
    pub fn write_job_report(
        &self,
        manifest: &Manifest,
        job: &Job,
        out: &JobOutput,
    ) -> Result<String, String> {
        let stem = file_stem(&job.key);
        let doc = job_report(manifest, job, out, &stem);
        debug_assert!(
            bench::report::validate(&doc).is_ok(),
            "self-produced job report invalid: {:?}",
            bench::report::validate(&doc)
        );
        let rel = format!("jobs/{stem}.json");
        let path = self.root.join(&rel);
        fs::write(&path, doc.render_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(rel)
    }

    /// Write `sweep.json`.
    pub fn write_sweep(&self, doc: &Json) -> Result<PathBuf, String> {
        let path = self.root.join("sweep.json");
        fs::write(&path, doc.render_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Assemble a job's `mptcp-run-report/v1`. Profile wall-clock fields are
/// deliberately zero (see [`RunDir::write_job_report`]); `events` and
/// `sim_s` are simulation-deterministic and kept.
fn job_report(manifest: &Manifest, job: &Job, out: &JobOutput, stem: &str) -> Json {
    let mut params: BTreeMap<String, Json> = job.params.clone();
    params.insert("scenario".to_string(), Json::from(job.scenario.as_str()));
    params.insert("manifest_seed".to_string(), Json::from(job.manifest_seed));
    // The derived seed is a full 64-bit hash; JSON numbers are doubles, so
    // carry it as hex text.
    params.insert(
        "seed_hex".to_string(),
        Json::from(format!("{:016x}", job.seed)),
    );
    params.insert("scale".to_string(), Json::from(manifest.scale.name()));
    params.insert("trace_digest".to_string(), Json::from(out.digest.as_str()));
    let metrics: BTreeMap<String, Json> = out
        .metrics
        .iter()
        .map(|(k, v)| (k.clone(), Json::from(*v)))
        .collect();
    Json::object([
        ("schema", Json::from(bench::report::SCHEMA)),
        ("name", Json::from(stem)),
        ("params", Json::Object(params)),
        ("metrics", Json::Object(metrics)),
        ("tables", Json::Object(BTreeMap::new())),
        (
            "profile",
            bench::report::timeless_profile(out.events, out.sim_s),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/orchestra-unit")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_manifest() -> Manifest {
        let text = r#"{
          "schema": "mptcp-manifest/v1", "id": "t", "scale": "quick",
          "seeds": [1],
          "scenarios": [{ "name": "smoke", "grid": { "algorithm": ["lia"] } }]
        }"#;
        Manifest::parse(&bench::json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn journal_round_trips_and_latest_entry_wins() {
        let out_root = tmp("journal_roundtrip");
        let m = demo_manifest();
        let dir = RunDir::create(&out_root, "r1", &m).unwrap();
        let job = &m.expand(None).unwrap()[0];
        dir.append(&JournalEntry::failed(job, 2, "panicked: boom".to_string()))
            .unwrap();
        let output = JobOutput {
            metrics: BTreeMap::from([("m".to_string(), 1.5)]),
            digest: "00112233aabbccdd".to_string(),
            trace_events: 10,
            events: 20,
            sim_s: 3.0,
        };
        dir.append(&JournalEntry::done(
            job,
            1,
            &output,
            "jobs/x.json".to_string(),
        ))
        .unwrap();
        let latest = dir.journal().unwrap();
        assert_eq!(latest.len(), 1);
        let e = &latest[&job.key];
        assert!(e.is_done());
        assert_eq!(e.metrics["m"], 1.5);
        assert_eq!(e.digest, "00112233aabbccdd");
        assert_eq!(e.report, "jobs/x.json");
        // A torn trailing line (interrupted write) is ignored.
        let path = dir.root().join("journal.jsonl");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":\"trunc").unwrap();
        drop(f);
        assert_eq!(dir.journal().unwrap().len(), 1);
    }

    #[test]
    fn create_refuses_existing_run_and_open_requires_one() {
        let out_root = tmp("create_refuses");
        let m = demo_manifest();
        RunDir::create(&out_root, "r1", &m).unwrap();
        let err = RunDir::create(&out_root, "r1", &m).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        assert!(RunDir::open(&out_root, "r1").is_ok());
        assert!(RunDir::open(&out_root, "r2").is_err());
        // The frozen manifest expands identically to the original.
        let dir = RunDir::open(&out_root, "r1").unwrap();
        let frozen = dir.manifest().unwrap();
        assert_eq!(
            frozen.expand(None).unwrap()[0].seed,
            m.expand(None).unwrap()[0].seed
        );
    }

    #[test]
    fn job_reports_validate_and_are_deterministic() {
        let out_root = tmp("job_reports");
        let m = demo_manifest();
        let dir = RunDir::create(&out_root, "r1", &m).unwrap();
        let job = &m.expand(None).unwrap()[0];
        let output = JobOutput {
            metrics: BTreeMap::from([("m".to_string(), 2.0)]),
            digest: "0011223344556677".to_string(),
            trace_events: 5,
            events: 9,
            sim_s: 3.0,
        };
        let rel = dir.write_job_report(&m, job, &output).unwrap();
        let first = fs::read(dir.root().join(&rel)).unwrap();
        let rel2 = dir.write_job_report(&m, job, &output).unwrap();
        assert_eq!(rel, rel2);
        assert_eq!(first, fs::read(dir.root().join(&rel)).unwrap());
        let doc = bench::json::parse(std::str::from_utf8(&first).unwrap()).unwrap();
        bench::report::validate(&doc).unwrap();
        assert_eq!(
            doc.get("params").unwrap().get("scenario").unwrap().as_str(),
            Some("smoke")
        );
    }
}
