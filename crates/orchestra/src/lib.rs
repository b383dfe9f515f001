#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Parallel deterministic experiment orchestrator.
//!
//! The paper's evaluation is a grid: scenarios × parameter points × seeds.
//! Each cell is one single-threaded, bit-deterministic simulation — which
//! makes the grid embarrassingly parallel *if* nothing about scheduling
//! leaks into the results. This crate is that harness:
//!
//! * [`manifest`] — the JSON job manifest, its expansion into a flat job
//!   list, and the FNV-derived per-job seeds (stable across worker count,
//!   scheduling, and resume);
//! * [`pool`] — the fixed-size worker pool with per-job timeout, bounded
//!   retries, and panic isolation;
//! * [`rundir`] — the checkpointed `results/orchestra/<run-id>/` layout
//!   whose append-only journal makes interrupted runs resumable;
//! * [`sweep`] — cross-seed aggregation into a schema-validated
//!   `mptcp-sweep-report/v1`.
//!
//! The determinism contract, tested end to end: the same manifest produces
//! byte-identical `sweep.json` and per-job reports whether run with 1 or 8
//! workers, interrupted and resumed or not. Only `journal.jsonl` line
//! order (completion order) and anything wall-clock is scheduling-
//! dependent, and neither feeds the reports.

pub mod manifest;
pub mod pool;
pub mod rundir;
pub mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bench::jobs::JobCtx;

use manifest::Job;
use pool::{JobResult, Outcome, PoolCfg, Runner};
use rundir::{JournalEntry, RunDir};

/// Options for one orchestrated run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Worker threads.
    pub workers: usize,
    /// Per-attempt timeout.
    pub timeout: Duration,
    /// Retries after a first failed attempt.
    pub retries: u32,
    /// Only run jobs of this scenario.
    pub filter: Option<String>,
    /// Capture per-job trace digests (the determinism witness). On by
    /// default; turning it off trades the witness for speed.
    pub digest: bool,
    /// Print per-job progress lines to stderr.
    pub verbose: bool,
    /// Render the sweep explorer (`index.html` + per-point pages) into the
    /// run directory after `sweep.json` is written.
    pub viz: bool,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts {
            workers: 1,
            timeout: Duration::from_secs(600),
            retries: 1,
            filter: None,
            digest: true,
            verbose: false,
            viz: false,
        }
    }
}

/// What a finished (or partially failed) run looks like.
#[derive(Debug)]
pub struct RunSummary {
    /// Jobs in the (filtered) expansion.
    pub total: usize,
    /// Jobs completed, including ones skipped via the journal.
    pub done: usize,
    /// Jobs whose retries were exhausted.
    pub failed: usize,
    /// Jobs skipped because the journal already had them done.
    pub skipped: usize,
    /// Attempt threads abandoned to timeouts (also in `sweep.json` as
    /// `jobs.abandoned`).
    pub abandoned: usize,
    /// Keys of the failed jobs, sorted.
    pub failed_jobs: Vec<String>,
    /// Where `sweep.json` was written.
    pub sweep_path: PathBuf,
}

/// Scenario lookup across every registry the orchestrator can drive: the
/// paper scenarios in [`bench::jobs::REGISTRY`] plus the chaos crate's
/// `fuzz` job kind ([`chaos::scenario::SCENARIOS`]).
pub fn find_scenario(name: &str) -> Option<&'static bench::jobs::ScenarioDef> {
    bench::jobs::find(name).or_else(|| chaos::scenario::find(name))
}

/// Every scenario name [`find_scenario`] resolves, in listing order.
pub fn scenario_defs() -> impl Iterator<Item = &'static bench::jobs::ScenarioDef> {
    bench::jobs::REGISTRY
        .iter()
        .chain(chaos::scenario::SCENARIOS.iter())
}

/// The production runner: dispatch a job into the combined scenario
/// registry ([`find_scenario`]).
pub fn registry_runner(quick: bool, digest: bool) -> Runner {
    Arc::new(move |job: &Job| {
        let def = find_scenario(&job.scenario)
            .unwrap_or_else(|| panic!("unknown scenario {:?}", job.scenario));
        let ctx = JobCtx {
            seed: job.seed,
            quick,
            digest,
            params: job.params.clone(),
        };
        (def.run)(&ctx)
    })
}

/// Execute (or resume) the run directory's frozen manifest with the
/// standard registry runner.
pub fn run(dir: &RunDir, opts: &RunOpts) -> Result<RunSummary, String> {
    let manifest = dir.manifest()?;
    let runner = registry_runner(manifest.scale.is_quick(), opts.digest);
    run_with(dir, opts, &runner)
}

/// [`run`] with an injected job body — the test hook for misbehaving jobs.
pub fn run_with(dir: &RunDir, opts: &RunOpts, runner: &Runner) -> Result<RunSummary, String> {
    let manifest = dir.manifest()?;
    let jobs = manifest.expand(opts.filter.as_deref())?;

    // Resume: the latest journal state decides what still runs.
    let journal = dir.journal()?;
    let mut pending = Vec::new();
    let mut skipped = 0usize;
    for job in &jobs {
        if journal.get(&job.key).is_some_and(JournalEntry::is_done) {
            skipped += 1;
        } else {
            pending.push(job.clone());
        }
    }

    let cfg = PoolCfg {
        workers: opts.workers.max(1),
        timeout: opts.timeout,
        retries: opts.retries,
        ..PoolCfg::default()
    };
    // The journal (and stderr) are shared across workers; one lock
    // serializes both so lines never interleave.
    let io_state: Mutex<Option<String>> = Mutex::new(None);
    let on_complete = |_i: usize, job: &Job, result: &JobResult| {
        let mut io_error = io_state.lock().expect("journal lock poisoned");
        let entry = match &result.outcome {
            Outcome::Done(out) => match dir.write_job_report(&manifest, job, out) {
                Ok(rel) => JournalEntry::done(job, result.attempts, out, rel),
                Err(e) => {
                    io_error.get_or_insert(e);
                    return;
                }
            },
            Outcome::Failed { error } => JournalEntry::failed(job, result.attempts, error.clone()),
        };
        if opts.verbose {
            let note = match &result.outcome {
                Outcome::Done(_) => "done".to_string(),
                Outcome::Failed { error } => format!("FAILED ({error})"),
            };
            eprintln!(
                "orchestra: {} {note} [attempts {}]",
                job.key, result.attempts
            );
        }
        if let Err(e) = dir.append(&entry) {
            io_error.get_or_insert(e);
        }
    };
    let (results, stats) = pool::run_pool(&pending, &cfg, runner, &on_complete);
    if let Some(e) = io_state.into_inner().expect("journal lock poisoned") {
        return Err(e);
    }

    // Merge journal-skipped and fresh results into the terminal picture.
    let mut terminal: BTreeMap<String, JournalEntry> = BTreeMap::new();
    for job in &jobs {
        if let Some(entry) = journal.get(&job.key) {
            if entry.is_done() {
                terminal.insert(job.key.clone(), entry.clone());
            }
        }
    }
    for (job, result) in pending.iter().zip(&results) {
        let entry = match &result.outcome {
            Outcome::Done(out) => JournalEntry::done(
                job,
                result.attempts,
                out,
                format!("jobs/{}.json", bench::jobs::file_stem(&job.key)),
            ),
            Outcome::Failed { error } => JournalEntry::failed(job, result.attempts, error.clone()),
        };
        terminal.insert(job.key.clone(), entry);
    }

    let doc = sweep::build_sweep(&manifest, &jobs, &terminal, stats.abandoned);
    bench::report::validate_sweep(&doc)
        .map_err(|e| format!("self-produced sweep report invalid: {e}"))?;
    let sweep_path = dir.write_sweep(&doc)?;

    if opts.viz {
        // Page bytes are independent of worker count; reusing the pool
        // width only parallelizes the rendering.
        for (name, html) in viz::render_run_dir(dir.root(), opts.workers)? {
            let path = dir.root().join(&name);
            std::fs::write(&path, html)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }

    let mut failed_jobs: Vec<String> = terminal
        .values()
        .filter(|e| !e.is_done())
        .map(|e| e.job.clone())
        .collect();
    failed_jobs.sort();
    let failed = failed_jobs.len();
    Ok(RunSummary {
        total: jobs.len(),
        done: jobs.len() - failed,
        failed,
        skipped,
        abandoned: stats.abandoned,
        failed_jobs,
        sweep_path,
    })
}
