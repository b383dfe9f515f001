//! The orchestrator's core contract: worker count is invisible in the
//! results. The same manifest must produce byte-identical `sweep.json` and
//! per-job report files — including per-job trace digests — under
//! `--jobs 1`, `--jobs 4`, and `--jobs 8`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use orchestra::manifest::Manifest;
use orchestra::rundir::RunDir;
use orchestra::{run, RunOpts};

fn out_root(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn manifest() -> Manifest {
    let text = r#"{
      "schema": "mptcp-manifest/v1",
      "id": "determinism",
      "scale": "quick",
      "seeds": [1, 2],
      "scenarios": [
        { "name": "smoke", "grid": { "algorithm": ["lia", "olia"], "c1_over_c2": [0.8] } }
      ]
    }"#;
    Manifest::parse(&json::parse(text).unwrap()).unwrap()
}

/// Run the manifest with the given worker count; return the sweep bytes
/// and every per-job report keyed by file name.
fn run_with_workers(root: &Path, workers: usize) -> (Vec<u8>, BTreeMap<String, Vec<u8>>) {
    let dir = RunDir::create(root, &format!("w{workers}"), &manifest()).unwrap();
    let opts = RunOpts {
        workers,
        ..RunOpts::default()
    };
    let summary = run(&dir, &opts).unwrap();
    assert_eq!(summary.total, 4);
    assert_eq!(summary.failed, 0, "failed: {:?}", summary.failed_jobs);
    let sweep = fs::read(dir.root().join("sweep.json")).unwrap();
    let mut jobs = BTreeMap::new();
    for entry in fs::read_dir(dir.root().join("jobs")).unwrap() {
        let path = entry.unwrap().path();
        jobs.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            fs::read(&path).unwrap(),
        );
    }
    (sweep, jobs)
}

#[test]
fn worker_count_never_changes_report_bytes() {
    let root = out_root("worker_count");
    let (sweep1, jobs1) = run_with_workers(&root, 1);
    let (sweep4, jobs4) = run_with_workers(&root, 4);
    let (sweep8, jobs8) = run_with_workers(&root, 8);

    assert_eq!(sweep1, sweep4, "--jobs 4 changed sweep.json bytes");
    assert_eq!(sweep1, sweep8, "--jobs 8 changed sweep.json bytes");
    assert_eq!(jobs1.len(), 4);
    assert_eq!(jobs1, jobs4, "--jobs 4 changed per-job reports");
    assert_eq!(jobs1, jobs8, "--jobs 8 changed per-job reports");

    // The sweep validates, and every job carries a real trace digest — the
    // byte-identity above therefore covers the full event stream of every
    // simulation, not just the final metrics.
    let doc = json::parse(std::str::from_utf8(&sweep1).unwrap()).unwrap();
    bench::report::validate_sweep(&doc).unwrap();
    let index = doc.get("job_index").unwrap().as_array().unwrap();
    assert_eq!(index.len(), 4);
    for entry in index {
        let digest = entry.get("digest").unwrap().as_str().unwrap();
        assert_eq!(digest.len(), 16, "digest {digest:?} not 16 hex chars");
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
    }
    // Distinct seeds produce distinct traces (the witness is not a
    // constant).
    let digests: std::collections::BTreeSet<&str> = index
        .iter()
        .map(|e| e.get("digest").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(digests.len(), 4, "all four jobs should trace differently");
}

#[test]
fn per_job_reports_validate_against_run_report_schema() {
    let root = out_root("job_schema");
    let (_, jobs) = run_with_workers(&root, 2);
    for (name, bytes) in &jobs {
        let doc = json::parse(std::str::from_utf8(bytes).unwrap()).unwrap();
        bench::report::validate(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Wall-clock profile fields must be zeroed — any nonzero value
        // would leak scheduling into bytes that must stay deterministic.
        let profile = doc.get("profile").unwrap();
        assert_eq!(profile.get("wall_s").unwrap().as_f64(), Some(0.0));
        assert!(profile.get("events").unwrap().as_f64().unwrap() > 0.0);
        assert!(profile.get("sim_s").unwrap().as_f64().unwrap() > 0.0);
    }
}
