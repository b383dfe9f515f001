//! Resume contract: a run interrupted after some jobs and resumed must end
//! with byte-identical artifacts to a run that was never interrupted, and
//! must actually skip the journaled-done jobs.

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
      "id": "resume",
      "scale": "quick",
      "seeds": [1, 2],
      "scenarios": [
        { "name": "smoke", "grid": { "algorithm": ["lia", "olia"], "c1_over_c2": [1.2] } }
      ]
    }"#;
    Manifest::parse(&json::parse(text).unwrap()).unwrap()
}

fn job_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(root.join("jobs"))
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&path).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn interrupted_then_resumed_run_matches_uninterrupted() {
    let root = out_root("resume_matches");
    let opts = RunOpts {
        workers: 2,
        ..RunOpts::default()
    };

    // Reference: one uninterrupted run.
    let ref_dir = RunDir::create(&root, "uninterrupted", &manifest()).unwrap();
    let ref_summary = run(&ref_dir, &opts).unwrap();
    assert_eq!((ref_summary.total, ref_summary.failed), (4, 0));

    // Interrupted run: complete everything, then rewind the journal to its
    // first two lines and delete the downstream artifacts — exactly the
    // state a kill leaves behind (journal lines are appended+flushed as
    // each job finishes; sweep.json only exists after all of them).
    let dir = RunDir::create(&root, "interrupted", &manifest()).unwrap();
    run(&dir, &opts).unwrap();
    let journal_path = dir.root().join("journal.jsonl");
    let journal = fs::read_to_string(&journal_path).unwrap();
    let kept: Vec<&str> = journal.lines().take(2).collect();
    assert_eq!(kept.len(), 2, "expected >= 2 journal lines");
    fs::write(&journal_path, kept.join("\n") + "\n").unwrap();
    fs::remove_file(dir.root().join("sweep.json")).unwrap();

    // Resume through a freshly opened handle (as the CLI's --resume does).
    let resumed = RunDir::open(&root, "interrupted").unwrap();
    let summary = run(&resumed, &opts).unwrap();
    assert_eq!(summary.total, 4);
    assert_eq!(summary.skipped, 2, "two journaled jobs must be skipped");
    assert_eq!(summary.failed, 0);

    assert_eq!(
        fs::read(ref_dir.root().join("sweep.json")).unwrap(),
        fs::read(dir.root().join("sweep.json")).unwrap(),
        "resumed sweep.json differs from uninterrupted run"
    );
    assert_eq!(
        job_files(ref_dir.root()),
        job_files(dir.root()),
        "resumed per-job reports differ from uninterrupted run"
    );
}

#[test]
fn fully_complete_run_resumes_as_a_no_op() {
    let root = out_root("resume_noop");
    let opts = RunOpts::default();
    let dir = RunDir::create(&root, "r", &manifest()).unwrap();
    run(&dir, &opts).unwrap();
    let sweep_before = fs::read(dir.root().join("sweep.json")).unwrap();

    let summary = run(&RunDir::open(&root, "r").unwrap(), &opts).unwrap();
    assert_eq!(summary.skipped, 4, "everything was already done");
    assert_eq!(summary.failed, 0);
    assert_eq!(
        sweep_before,
        fs::read(dir.root().join("sweep.json")).unwrap()
    );
}
