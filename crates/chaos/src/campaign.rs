//! N-iteration fuzz campaigns with parallel workers.
//!
//! A campaign maps iteration index `i` to a case seed (FNV-1a of the
//! campaign seed and `i`), generates and executes each case, and shrinks
//! every failure to a minimal repro. Execution is embarrassingly parallel
//! — each iteration is a pure function of its index — so workers only
//! decide *wall-clock* order: results land in per-iteration slots and are
//! folded in index order, making the campaign result (and its report
//! bytes) identical for `--jobs 1` and `--jobs 4`.
//!
//! Early stop (`stop_on_first`) works block-wise: iterations run in fixed
//! blocks, each block is scanned in index order, and the campaign stops at
//! the first violating index — the same index regardless of worker count,
//! because block boundaries are fixed and later blocks are never consulted
//! once an earlier violation exists.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use tcpsim::TcpConfig;
use trace::Digest64;

use crate::case::ChaosCase;
use crate::gen::generate;
use crate::run::{run_case_with, Verdict};
use crate::shrink::{shrink, Shrunk};

/// Campaign shape. `tcp` is the configuration under test (the injected-bug
/// harness swaps in a deliberately broken one).
#[derive(Debug, Clone, Copy)]
pub struct CampaignCfg {
    /// Campaign seed; iteration seeds derive from it.
    pub seed: u64,
    /// Iterations to run (the search budget).
    pub iterations: usize,
    /// Parallel workers (≥ 1). Never affects results, only wall-clock.
    pub jobs: usize,
    /// Stop at the first violating iteration (after shrinking it).
    pub stop_on_first: bool,
    /// TCP configuration every case runs under.
    pub tcp: TcpConfig,
}

impl Default for CampaignCfg {
    fn default() -> CampaignCfg {
        CampaignCfg {
            seed: 0,
            iterations: 200,
            jobs: 1,
            stop_on_first: false,
            tcp: TcpConfig::default(),
        }
    }
}

/// One shrunk failure, ready to be written as a repro artifact.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Which iteration found it.
    pub iteration: usize,
    /// The minimal case.
    pub shrunk: Shrunk,
}

/// What a campaign found.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Iterations requested.
    pub requested: usize,
    /// Iterations actually executed (< requested only with early stop).
    pub run: usize,
    /// Shrunk failures, in iteration order.
    pub repros: Vec<Repro>,
    /// FNV-1a over every executed iteration's trace digest, in index order
    /// — one hex string witnessing the whole campaign's determinism.
    pub campaign_digest: String,
    /// Sum of events dispatched across iterations.
    pub total_events: u64,
    /// Sum of simulated seconds across iterations.
    pub total_sim_s: f64,
}

impl CampaignResult {
    /// True when every iteration passed every oracle.
    pub fn clean(&self) -> bool {
        self.repros.is_empty()
    }
}

/// The seed iteration `i` of campaign `seed` fuzzes with.
pub fn case_seed(seed: u64, i: u64) -> u64 {
    let mut d = Digest64::new();
    d.update(&seed.to_le_bytes());
    d.update(&i.to_le_bytes());
    d.finish()
}

/// Execute iterations `[start, end)` with `jobs` workers; results indexed
/// by `i - start`.
fn run_block(cfg: &CampaignCfg, start: usize, end: usize) -> Vec<(ChaosCase, Verdict)> {
    let n = end - start;
    let slots: Vec<Mutex<Option<(ChaosCase, Verdict)>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "fans independent single-threaded fuzz cases across workers; each verdict lands in its iteration's slot, so scheduling cannot reach the outcome"
    )]
    thread::scope(|scope| {
        for _ in 0..cfg.jobs.max(1).min(n) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let case = generate(case_seed(cfg.seed, (start + k) as u64));
                let verdict = run_case_with(&case, cfg.tcp);
                *slots[k].lock().expect("iteration slot poisoned") = Some((case, verdict));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("iteration slot poisoned")
                .expect("worker exited without filling its slot")
        })
        .collect()
}

/// Run the campaign. Deterministic in `cfg` (workers never change the
/// outcome); shrinking happens on the calling thread, in iteration order.
pub fn run_campaign(cfg: &CampaignCfg) -> CampaignResult {
    let block_len = cfg.jobs.max(1) * 8;
    let mut digest = Digest64::new();
    let mut repros = Vec::new();
    let mut run = 0;
    let mut total_events = 0;
    let mut total_sim_s = 0.0;
    'blocks: for start in (0..cfg.iterations).step_by(block_len) {
        let end = (start + block_len).min(cfg.iterations);
        let results = run_block(cfg, start, end);
        for (k, (case, verdict)) in results.into_iter().enumerate() {
            run += 1;
            digest.update(verdict.digest.as_bytes());
            total_events += verdict.events;
            total_sim_s += verdict.sim_s;
            if !verdict.ok() {
                let shrunk =
                    shrink(&case, cfg.tcp).expect("verdict had violations but shrink found none");
                repros.push(Repro {
                    iteration: start + k,
                    shrunk,
                });
                if cfg.stop_on_first {
                    break 'blocks;
                }
            }
        }
    }
    CampaignResult {
        requested: cfg.iterations,
        run,
        repros,
        campaign_digest: format!("{:016x}", digest.finish()),
        total_events,
        total_sim_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::SimDuration;

    #[test]
    fn campaign_results_are_independent_of_worker_count() {
        let mut base = CampaignCfg {
            seed: 99,
            iterations: 12,
            ..CampaignCfg::default()
        };
        let solo = run_campaign(&base);
        base.jobs = 4;
        let parallel = run_campaign(&base);
        assert_eq!(solo.campaign_digest, parallel.campaign_digest);
        assert_eq!(solo.run, parallel.run);
        assert_eq!(solo.total_events, parallel.total_events);
        assert_eq!(solo.repros.len(), parallel.repros.len());
    }

    /// Acceptance criteria: a deliberately injected bug (re-probe cap
    /// raised past the 8 s spec) is found within a ≤ 500-iteration budget,
    /// shrinks to ≤ 3 clauses, and the minimal repro replays to the same
    /// violation with a byte-identical trace digest.
    #[test]
    fn injected_probe_cap_bug_is_found_and_shrunk() {
        let tcp = TcpConfig {
            reprobe_max: SimDuration::from_secs(16),
            ..TcpConfig::default()
        };
        let cfg = CampaignCfg {
            seed: 1,
            iterations: 500,
            jobs: 4,
            stop_on_first: true,
            tcp,
        };
        let res = run_campaign(&cfg);
        assert!(
            !res.clean(),
            "campaign missed the injected bug in {} iterations",
            res.run
        );
        assert!(res.run <= 500);
        let repro = &res.repros[0];
        assert!(
            repro.shrunk.case.clauses.len() <= 3,
            "repro not minimal: {:?}",
            repro.shrunk.case.clauses
        );
        assert_eq!(
            repro.shrunk.verdict.category(),
            Some("re-probe backoff exceeds cap")
        );
        // Replay the minimal repro twice: same violation, identical digest.
        let a = run_case_with(&repro.shrunk.case, tcp);
        let b = run_case_with(&repro.shrunk.case, tcp);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, repro.shrunk.verdict.digest);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.category(), Some("re-probe backoff exceeds cap"));
        // And on the fixed (default) configuration the repro is green.
        let fixed = run_case_with(&repro.shrunk.case, TcpConfig::default());
        assert!(fixed.ok(), "{:?}", fixed.violations);
    }
}
