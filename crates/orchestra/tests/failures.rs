//! Failure isolation through the full orchestrator path: a panicking or
//! hanging job is retried up to the bound, recorded `failed` in the
//! journal, job index, and exit accounting — and its siblings finish
//! normally with a sweep that still validates.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bench::jobs::JobOutput;
use orchestra::manifest::Manifest;
use orchestra::pool::Runner;
use orchestra::rundir::RunDir;
use orchestra::{run, run_with, RunOpts};

fn out_root(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn manifest(id: &str) -> Manifest {
    let text = format!(
        r#"{{
          "schema": "mptcp-manifest/v1",
          "id": "{id}",
          "scale": "quick",
          "seeds": [1, 2],
          "scenarios": [
            {{ "name": "smoke", "grid": {{ "algorithm": ["lia", "olia"] }} }}
          ]
        }}"#
    );
    Manifest::parse(&json::parse(&text).unwrap()).unwrap()
}

fn ok_output() -> JobOutput {
    JobOutput {
        metrics: BTreeMap::from([("m".to_string(), 1.0)]),
        digest: "0123456789abcdef".to_string(),
        trace_events: 1,
        events: 2,
        sim_s: 3.0,
    }
}

fn sweep(dir: &RunDir) -> json::Json {
    let text = fs::read_to_string(dir.root().join("sweep.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    bench::report::validate_sweep(&doc).expect("sweep with failures must still validate");
    doc
}

fn index_entry<'a>(doc: &'a json::Json, needle: &str) -> &'a json::Json {
    doc.get("job_index")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|e| e.get("job").unwrap().as_str().unwrap().contains(needle))
        .unwrap()
}

#[test]
fn panicking_job_is_retried_to_the_bound_then_recorded_failed() {
    let root = out_root("panic_isolation");
    let dir = RunDir::create(&root, "r", &manifest("panic")).unwrap();
    let runner: Runner = Arc::new(|job| {
        if job.key.contains("olia") && job.manifest_seed == 2 {
            panic!("injected failure");
        }
        ok_output()
    });
    let opts = RunOpts {
        workers: 2,
        retries: 2,
        ..RunOpts::default()
    };
    let summary = run_with(&dir, &opts, &runner).unwrap();
    assert_eq!(summary.total, 4);
    assert_eq!(summary.done, 3, "siblings must finish");
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.failed_jobs.len(), 1);
    assert!(summary.failed_jobs[0].contains("olia"));

    let doc = sweep(&dir);
    let failed = index_entry(&doc, "algorithm=olia#seed=2");
    assert_eq!(failed.get("status").unwrap().as_str(), Some("failed"));
    assert_eq!(
        failed.get("attempts").unwrap().as_f64(),
        Some(3.0),
        "retries=2 means exactly 3 attempts"
    );
    let error = failed.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("panicked: injected failure"), "{error}");
    // The healthy sibling seed of the same point survived.
    let ok = index_entry(&doc, "algorithm=olia#seed=1");
    assert_eq!(ok.get("status").unwrap().as_str(), Some("done"));
}

#[test]
fn hanging_job_times_out_and_siblings_complete() {
    let root = out_root("timeout_isolation");
    let dir = RunDir::create(&root, "r", &manifest("hang")).unwrap();
    let runner: Runner = Arc::new(|job| {
        if job.key.contains("=lia#") {
            // lia jobs hang far past the timeout; the attempt thread is
            // abandoned and its result discarded.
            std::thread::sleep(Duration::from_secs(30));
        }
        ok_output()
    });
    let opts = RunOpts {
        workers: 2,
        retries: 1,
        timeout: Duration::from_millis(150),
        ..RunOpts::default()
    };
    let summary = run_with(&dir, &opts, &runner).unwrap();
    assert_eq!(summary.total, 4);
    assert_eq!(summary.done, 2);
    assert_eq!(summary.failed, 2, "both lia jobs hang");

    let doc = sweep(&dir);
    let failed = index_entry(&doc, "algorithm=lia#seed=1");
    assert_eq!(failed.get("status").unwrap().as_str(), Some("failed"));
    assert_eq!(failed.get("attempts").unwrap().as_f64(), Some(2.0));
    assert!(failed
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("timed out"));
    assert_eq!(
        index_entry(&doc, "algorithm=olia#seed=1")
            .get("status")
            .unwrap()
            .as_str(),
        Some("done")
    );
}

#[test]
fn bad_parameter_fails_through_the_real_registry_runner() {
    let root = out_root("registry_failure");
    let text = r#"{
      "schema": "mptcp-manifest/v1",
      "id": "badparam",
      "scale": "quick",
      "seeds": [1],
      "scenarios": [
        { "name": "smoke", "grid": { "algorithm": ["olia", "no-such-algorithm"] } }
      ]
    }"#;
    let m = Manifest::parse(&json::parse(text).unwrap()).unwrap();
    let dir = RunDir::create(&root, "r", &m).unwrap();
    let opts = RunOpts {
        workers: 2,
        retries: 0,
        ..RunOpts::default()
    };
    let summary = run(&dir, &opts).unwrap();
    assert_eq!((summary.total, summary.done, summary.failed), (2, 1, 1));

    let doc = sweep(&dir);
    let failed = index_entry(&doc, "no-such-algorithm");
    assert_eq!(failed.get("attempts").unwrap().as_f64(), Some(1.0));
    let error = failed.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("not a known algorithm"), "{error}");
    // And the failed point aggregates to zero completed seeds without
    // breaking the sweep schema.
    let points = doc.get("points").unwrap().as_array().unwrap();
    let bad_point = points
        .iter()
        .find(|p| {
            p.get("point")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("no-such")
        })
        .unwrap();
    assert!(bad_point
        .get("seeds")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    assert_eq!(
        bad_point
            .get("failed_seeds")
            .unwrap()
            .as_array()
            .unwrap()
            .len(),
        1
    );
}
