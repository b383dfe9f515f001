//! The `mptcp-chaos-report/v1` artifact.
//!
//! One campaign produces one JSON document: campaign identity (seed,
//! budget), a summary (iterations run, violations, the campaign-wide
//! determinism digest), and one entry per shrunk repro — each carrying the
//! full replayable minimal case, the invariant verdict, and the trace
//! digest a replay must reproduce byte-for-byte. Validated by
//! [`bench::report::validate_chaos`] (and `validate_report --strict`).

use bench::json::Json;
use bench::report::CHAOS_SCHEMA;

use crate::campaign::{CampaignCfg, CampaignResult};

/// Render the campaign artifact. Byte-stable: every field derives from the
/// (deterministic) campaign result, never from wall-clock or environment.
pub fn report_json(cfg: &CampaignCfg, res: &CampaignResult) -> Json {
    let repros: Vec<Json> = res
        .repros
        .iter()
        .map(|r| {
            let first = &r.shrunk.verdict.violations[0];
            Json::object([
                ("iteration", Json::Number(r.iteration as f64)),
                ("case", r.shrunk.case.to_json()),
                // Rendered by the campaign runner next to this report.
                (
                    "timeline",
                    Json::String(format!("repro_{:016x}_i{}.html", cfg.seed, r.iteration)),
                ),
                ("clauses", Json::Number(r.shrunk.case.clauses.len() as f64)),
                (
                    "original_clauses",
                    Json::Number(r.shrunk.original_clauses as f64),
                ),
                (
                    "shrink_executions",
                    Json::Number(r.shrunk.executions as f64),
                ),
                (
                    "trace_digest",
                    Json::String(r.shrunk.verdict.digest.clone()),
                ),
                (
                    "violation",
                    Json::object([
                        ("t_ns", Json::Number(first.t.as_nanos() as f64)),
                        ("what", Json::String(first.what.clone())),
                    ]),
                ),
                (
                    "violations",
                    Json::Number(r.shrunk.verdict.violations.len() as f64),
                ),
            ])
        })
        .collect();
    Json::object([
        ("schema", Json::String(CHAOS_SCHEMA.to_string())),
        (
            "campaign",
            Json::object([
                ("seed_hex", Json::String(format!("{:016x}", cfg.seed))),
                ("iterations", Json::Number(cfg.iterations as f64)),
                ("jobs", Json::Number(cfg.jobs as f64)),
                ("stop_on_first", Json::Bool(cfg.stop_on_first)),
            ]),
        ),
        (
            "summary",
            Json::object([
                ("run", Json::Number(res.run as f64)),
                ("violating", Json::Number(res.repros.len() as f64)),
                ("clean", Json::Number((res.run - res.repros.len()) as f64)),
                ("campaign_digest", Json::String(res.campaign_digest.clone())),
                ("events", Json::Number(res.total_events as f64)),
                ("sim_s", Json::Number(res.total_sim_s)),
            ]),
        ),
        ("repros", Json::Array(repros)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    #[test]
    fn clean_campaign_report_validates_and_is_byte_stable() {
        let cfg = CampaignCfg {
            seed: 5,
            iterations: 4,
            ..CampaignCfg::default()
        };
        let res = run_campaign(&cfg);
        let doc = report_json(&cfg, &res);
        bench::report::validate_chaos(&doc).expect("chaos report must validate");
        let again = report_json(&cfg, &run_campaign(&cfg));
        assert_eq!(doc.render_pretty(), again.render_pretty());
    }

    #[test]
    fn violating_campaign_report_validates() {
        use eventsim::SimDuration;
        let tcp = tcpsim::TcpConfig {
            reprobe_max: SimDuration::from_secs(16),
            ..tcpsim::TcpConfig::default()
        };
        let cfg = CampaignCfg {
            seed: 1,
            iterations: 100,
            jobs: 2,
            stop_on_first: true,
            tcp,
        };
        let res = run_campaign(&cfg);
        assert!(!res.clean(), "expected the injected bug to surface");
        let doc = report_json(&cfg, &res);
        bench::report::validate_chaos(&doc).expect("chaos report must validate");
        let repro = doc.get("repros").unwrap().as_array().unwrap();
        assert!(!repro.is_empty());
        assert!(repro[0].get("case").is_some());
    }
}
