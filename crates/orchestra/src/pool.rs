//! The fixed-size worker pool that fans jobs out across OS threads.
//!
//! Each *simulation* stays single-threaded and deterministic; the pool only
//! decides which jobs run concurrently. Workers pull the next job index
//! from a shared atomic counter, so any worker count processes the same job
//! list — results land in a slot-per-job vector, making the merge order a
//! property of the job list, never of scheduling.
//!
//! One job attempt = one freshly spawned thread running the job body under
//! `catch_unwind`, reporting back over a channel the worker waits on with a
//! timeout:
//!
//! * a **panic** (bad parameter, scenario bug) is caught and converted to
//!   an attempt failure — the worker, its siblings, and the run survive;
//! * a **timeout** (hung or runaway job) abandons the attempt thread (it is
//!   detached; its eventual result is discarded with the channel) and
//!   counts as an attempt failure;
//! * attempt failures retry up to the configured bound, after which the job
//!   is recorded `failed` with the last error. Other jobs are unaffected.
//!
//! Abandoned threads are *bounded*: every abandonment is tallied in a
//! run-wide ledger, a still-running abandoned thread counts as **live**
//! until its body returns, and once `abandon_cap` threads are live further
//! attempts fail fast instead of spawning — a manifest full of hung jobs
//! degrades into fast failures rather than an unbounded pile of zombie
//! threads. The total is reported in `sweep.json` (`jobs.abandoned`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use bench::jobs::JobOutput;

use crate::manifest::Job;

/// The job body the pool runs: maps a job to its output, panicking on
/// invalid input. The production runner dispatches into
/// [`bench::jobs::REGISTRY`]; tests inject misbehaving runners.
pub type Runner = Arc<dyn Fn(&Job) -> JobOutput + Send + Sync>;

/// Pool shape and per-job failure policy.
#[derive(Debug, Clone, Copy)]
pub struct PoolCfg {
    /// Concurrent workers (>= 1; each runs one job at a time).
    pub workers: usize,
    /// Per-attempt wall-clock budget.
    pub timeout: Duration,
    /// Retries after the first failed attempt (`retries = 2` means up to 3
    /// attempts).
    pub retries: u32,
    /// Most timed-out attempt threads allowed to stay live at once; at the
    /// cap, new attempts fail fast instead of spawning.
    pub abandon_cap: usize,
}

impl Default for PoolCfg {
    fn default() -> PoolCfg {
        PoolCfg {
            workers: 1,
            timeout: Duration::from_secs(600),
            retries: 1,
            abandon_cap: 8,
        }
    }
}

/// Run-wide accounting the pool returns next to the per-job results.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Attempt threads abandoned to a timeout over the whole run (whether
    /// or not they have finished since).
    pub abandoned: usize,
}

/// Attempt-thread lifecycle, shared between the waiting worker and the
/// detached attempt thread. Exactly one side wins the `RUNNING` slot:
/// the worker (timeout → `ABANDONED`, ledger incremented) or the thread
/// body (return → `DONE`). A thread that finds itself `ABANDONED` on exit
/// releases its live-ledger slot.
const RUNNING: u8 = 0;
const ABANDONED: u8 = 1;
const DONE: u8 = 2;

/// Tracks abandoned attempt threads across one `run_pool` call. The live
/// counter is behind an `Arc` because the detached threads that decrement
/// it outlive the pool's stack frame.
#[derive(Debug, Default)]
struct AbandonLedger {
    /// Abandoned threads whose bodies have not returned yet.
    live: Arc<AtomicUsize>,
    /// All abandonments, monotone (what `sweep.json` reports).
    total: AtomicUsize,
}

impl AbandonLedger {
    fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    fn abandon(&self) {
        self.live.fetch_add(1, Ordering::SeqCst);
        self.total.fetch_add(1, Ordering::SeqCst);
    }
}

/// How one job ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The job body returned.
    Done(JobOutput),
    /// Every attempt panicked or timed out; the last error is kept.
    Failed {
        /// Human-readable cause (`panicked: ...` / `timed out after ...`).
        error: String,
    },
}

/// One job's result after retries.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Attempts actually made (1..=retries+1).
    pub attempts: u32,
    /// Terminal outcome.
    pub outcome: Outcome,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `job` once on its own thread, waiting at most `timeout`. Fails fast
/// (without spawning) while `cfg.abandon_cap` abandoned threads are live.
fn attempt(
    runner: &Runner,
    job: &Job,
    cfg: &PoolCfg,
    ledger: &AbandonLedger,
) -> Result<JobOutput, String> {
    let live = ledger.live();
    if live >= cfg.abandon_cap {
        return Err(format!(
            "abandoned-thread cap reached ({live} live, cap {}): failing fast \
             without an attempt",
            cfg.abandon_cap
        ));
    }
    let (tx, rx) = mpsc::channel();
    let runner = Arc::clone(runner);
    let job = job.clone();
    let state = Arc::new(AtomicU8::new(RUNNING));
    let thread_state = Arc::clone(&state);
    let live_for_thread = Arc::clone(&ledger.live);
    #[expect(
        clippy::disallowed_methods,
        reason = "one attempt per thread so a hung job can be timed out; its result returns to the worker that owns the job's slot"
    )]
    thread::Builder::new()
        .name("orchestra-job".to_string())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| runner(&job)));
            // The receiver is gone after a timeout; a late result is
            // dropped with the channel.
            let _ = tx.send(result.map_err(panic_message));
            if thread_state.swap(DONE, Ordering::SeqCst) == ABANDONED {
                live_for_thread.fetch_sub(1, Ordering::SeqCst);
            }
        })
        .expect("spawn job attempt thread");
    match rx.recv_timeout(cfg.timeout) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(msg)) => Err(format!("panicked: {msg}")),
        Err(RecvTimeoutError::Timeout) => {
            // Claim the RUNNING slot; if the body finished in the race
            // window the thread is already gone and nothing leaks.
            if state
                .compare_exchange(RUNNING, ABANDONED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                ledger.abandon();
            }
            Err(format!("timed out after {:.1}s", cfg.timeout.as_secs_f64()))
        }
        Err(RecvTimeoutError::Disconnected) => {
            Err("job thread vanished without reporting".to_string())
        }
    }
}

fn run_one(runner: &Runner, job: &Job, cfg: &PoolCfg, ledger: &AbandonLedger) -> JobResult {
    let max_attempts = cfg.retries + 1;
    let mut last_error = String::new();
    for n in 1..=max_attempts {
        match attempt(runner, job, cfg, ledger) {
            Ok(out) => {
                return JobResult {
                    attempts: n,
                    outcome: Outcome::Done(out),
                }
            }
            Err(e) => last_error = e,
        }
    }
    JobResult {
        attempts: max_attempts,
        outcome: Outcome::Failed { error: last_error },
    }
}

/// Fan `jobs` over `cfg.workers` threads. `on_complete` fires once per job
/// as it finishes (journal appends, progress) — callers needing exclusive
/// state must lock inside it. The returned vector is indexed like `jobs`,
/// so the merge order is scheduling-independent; [`PoolStats`] carries the
/// run-wide abandonment tally.
pub fn run_pool(
    jobs: &[Job],
    cfg: &PoolCfg,
    runner: &Runner,
    on_complete: &(dyn Fn(usize, &Job, &JobResult) + Sync),
) -> (Vec<JobResult>, PoolStats) {
    assert!(cfg.workers >= 1, "pool needs at least one worker");
    let next = AtomicUsize::new(0);
    let ledger = AbandonLedger::default();
    let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "fans independent jobs across workers; each result lands in its job's slot, so scheduling cannot reach the merge order"
    )]
    thread::scope(|scope| {
        for _ in 0..cfg.workers.min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let result = run_one(runner, job, cfg, &ledger);
                on_complete(i, job, &result);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without filling its slot")
        })
        .collect();
    let stats = PoolStats {
        abandoned: ledger.total.load(Ordering::SeqCst),
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn job(key: &str) -> Job {
        Job {
            key: key.to_string(),
            point_key: key.to_string(),
            scenario: "test".to_string(),
            params: BTreeMap::new(),
            manifest_seed: 1,
            seed: 1,
        }
    }

    fn ok_output(tag: f64) -> JobOutput {
        JobOutput {
            metrics: BTreeMap::from([("tag".to_string(), tag)]),
            digest: "-".to_string(),
            trace_events: 0,
            events: 1,
            sim_s: 0.0,
        }
    }

    #[test]
    fn results_keep_job_order_regardless_of_workers() {
        let jobs: Vec<Job> = (0..9).map(|i| job(&format!("j{i}"))).collect();
        let runner: Runner = Arc::new(|j: &Job| {
            let i: f64 = j.key[1..].parse().unwrap();
            // Stagger so completion order scrambles under concurrency.
            thread::sleep(Duration::from_millis(20 - 2 * i as u64));
            ok_output(i)
        });
        for workers in [1, 4] {
            let cfg = PoolCfg {
                workers,
                ..PoolCfg::default()
            };
            let (results, stats) = run_pool(&jobs, &cfg, &runner, &|_, _, _| {});
            for (i, r) in results.iter().enumerate() {
                match &r.outcome {
                    Outcome::Done(out) => assert_eq!(out.metrics["tag"], i as f64),
                    Outcome::Failed { error } => panic!("job {i} failed: {error}"),
                }
            }
            assert_eq!(stats.abandoned, 0, "no job timed out");
        }
    }

    #[test]
    fn panicking_job_is_retried_then_failed_without_hurting_siblings() {
        let jobs = vec![job("good"), job("bad"), job("also-good")];
        let runner: Runner = Arc::new(|j: &Job| {
            if j.key == "bad" {
                panic!("boom at {}", j.key);
            }
            ok_output(0.0)
        });
        let cfg = PoolCfg {
            workers: 2,
            retries: 2,
            ..PoolCfg::default()
        };
        let completions = Mutex::new(Vec::new());
        let (results, _) = run_pool(&jobs, &cfg, &runner, &|i, _, _| {
            completions.lock().unwrap().push(i);
        });
        assert!(matches!(results[0].outcome, Outcome::Done(_)));
        assert!(matches!(results[2].outcome, Outcome::Done(_)));
        match &results[1].outcome {
            Outcome::Failed { error } => {
                assert!(error.contains("panicked: boom at bad"), "{error}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(results[1].attempts, 3, "retries exhausted");
        assert_eq!(completions.lock().unwrap().len(), 3);
    }

    #[test]
    fn hung_job_times_out_and_is_recorded_failed() {
        let jobs = vec![job("hang"), job("fine")];
        let runner: Runner = Arc::new(|j: &Job| {
            if j.key == "hang" {
                thread::sleep(Duration::from_secs(30));
            }
            ok_output(1.0)
        });
        let cfg = PoolCfg {
            workers: 2,
            timeout: Duration::from_millis(100),
            retries: 1,
            ..PoolCfg::default()
        };
        let (results, stats) = run_pool(&jobs, &cfg, &runner, &|_, _, _| {});
        match &results[0].outcome {
            Outcome::Failed { error } => assert!(error.contains("timed out"), "{error}"),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(results[0].attempts, 2);
        assert!(matches!(results[1].outcome, Outcome::Done(_)));
        assert_eq!(stats.abandoned, 2, "both attempts were abandoned");
    }

    #[test]
    fn abandoned_threads_are_capped_and_counted() {
        // Five jobs that hang far past the timeout, one worker, no
        // retries, cap 2: the first two jobs each abandon a thread, the
        // remaining three fail fast at the cap without spawning. The
        // ledger therefore reports exactly 2 abandonments.
        let jobs: Vec<Job> = (0..5).map(|i| job(&format!("hang{i}"))).collect();
        let runner: Runner = Arc::new(|_: &Job| {
            thread::sleep(Duration::from_secs(30));
            ok_output(0.0)
        });
        let cfg = PoolCfg {
            workers: 1,
            timeout: Duration::from_millis(50),
            retries: 0,
            abandon_cap: 2,
        };
        let (results, stats) = run_pool(&jobs, &cfg, &runner, &|_, _, _| {});
        assert_eq!(stats.abandoned, 2, "cap must bound live zombies");
        let errors: Vec<&str> = results
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Failed { error } => error.as_str(),
                other => panic!("expected failure, got {other:?}"),
            })
            .collect();
        assert!(errors[0].contains("timed out"), "{}", errors[0]);
        assert!(errors[1].contains("timed out"), "{}", errors[1]);
        for e in &errors[2..] {
            assert!(e.contains("abandoned-thread cap reached"), "{e}");
        }
    }
}
