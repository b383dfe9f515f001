//! The orchestra-facing `fuzz` job kind.
//!
//! Exposes fuzz campaigns as a [`bench::jobs::ScenarioDef`] so manifests
//! can sweep them like any other scenario (`scenario = "fuzz"` with an
//! `iterations` axis, seeds fanned out by the orchestrator). One job = one
//! single-worker campaign at the job's derived seed; the job *fails*
//! (panics, which the pool records) when the campaign finds a violation,
//! so a sweep's `failed` count is the number of seeds that surfaced a bug.

use std::collections::BTreeMap;

use bench::jobs::{JobCtx, JobOutput, ScenarioDef};
use json::Json;
use tcpsim::TcpConfig;

use crate::campaign::{run_campaign, CampaignCfg};

fn fuzz_job(ctx: &JobCtx) -> JobOutput {
    let iterations = ctx.usize("iterations", if ctx.quick { 25 } else { 200 });
    let cfg = CampaignCfg {
        seed: ctx.seed,
        iterations,
        // One worker: the pool already runs many jobs concurrently, and a
        // single-threaded campaign keeps the job body deterministic even
        // under the pool's timeout/retry machinery.
        jobs: 1,
        stop_on_first: false,
        tcp: TcpConfig::default(),
    };
    let res = run_campaign(&cfg);
    if !res.clean() {
        let first = &res.repros[0];
        panic!(
            "fuzz campaign seed {:#018x} found {} violating case(s); first at \
             iteration {}: {} (minimal case: {})",
            cfg.seed,
            res.repros.len(),
            first.iteration,
            first.shrunk.verdict.violations[0].what,
            first.shrunk.case.to_json().render(),
        );
    }
    JobOutput {
        metrics: BTreeMap::from([
            ("iterations".to_string(), res.run as f64),
            ("violations".to_string(), res.repros.len() as f64),
            ("events".to_string(), res.total_events as f64),
        ]),
        digest: res.campaign_digest,
        trace_events: 0,
        events: res.total_events,
        sim_s: res.total_sim_s,
    }
}

fn fuzz_grid(quick: bool) -> Vec<(String, Vec<Json>)> {
    let iterations = if quick { 25.0 } else { 200.0 };
    vec![("iterations".to_string(), vec![Json::Number(iterations)])]
}

/// Chaos scenarios an orchestra manifest may name, alongside
/// [`bench::jobs::REGISTRY`].
pub const SCENARIOS: &[ScenarioDef] = &[ScenarioDef {
    name: "fuzz",
    summary: "seeded fault-schedule fuzz campaign: N generated chaos cases under the \
              invariant oracles; fails on any violation",
    run: fuzz_job,
    grid: fuzz_grid,
}];

/// Look up a chaos scenario by name.
pub fn find(name: &str) -> Option<&'static ScenarioDef> {
    SCENARIOS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_job_runs_clean_on_the_fixed_tree() {
        let mut ctx = JobCtx::new(12, true);
        ctx.params
            .insert("iterations".to_string(), Json::Number(4.0));
        let out = fuzz_job(&ctx);
        assert_eq!(out.metrics["violations"], 0.0);
        assert_eq!(out.metrics["iterations"], 4.0);
        assert!(out.events > 0);
        // Deterministic across invocations.
        assert_eq!(out.digest, fuzz_job(&ctx).digest);
    }

    #[test]
    fn registry_lookup_finds_fuzz() {
        assert!(find("fuzz").is_some());
        assert!(find("nope").is_none());
    }
}
