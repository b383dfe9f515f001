//! End-to-end shape tests: the paper's headline comparisons hold in
//! CI-scale packet-level runs of the actual scenario topologies.

use std::collections::BTreeMap;

use bench::{jobs, measure, RunCfg};
use metrics::Summary;
use mpsim_core::Algorithm;
use topo::{ScenarioAParams, ScenarioCParams};

/// Scenario A at N1/N2 = 2, C1/C2 = 1.
fn scenario_a(alg: Algorithm) -> BTreeMap<String, Summary> {
    let key = format!("scenario_a?algorithm={}&c1_over_c2=1&ratio=2", alg.name());
    let params = ScenarioAParams::paper(20, 1.0, alg);
    measure(&key, jobs::scenario_a, &params, &cfg())
}

/// Scenario C at N1 = `n1` multipath users against N2 = 10, C1/C2 = 2.
fn scenario_c(n1: usize, alg: Algorithm) -> BTreeMap<String, Summary> {
    let ratio = n1 as f64 / 10.0;
    let key = format!(
        "scenario_c?algorithm={}&c1_over_c2=2&ratio={ratio}",
        alg.name()
    );
    let params = ScenarioCParams::paper(n1, 2.0, alg);
    measure(&key, jobs::scenario_c, &params, &cfg())
}

fn cfg() -> RunCfg {
    RunCfg {
        warmup_s: 15.0,
        measure_s: 20.0,
        jitter_s: 2.0,
        replications: 1,
        seed: 21,
    }
}

/// Problem P1 in Scenario A: LIA hurts type2 users; OLIA recovers most of
/// the loss and reduces p2.
#[test]
fn scenario_a_olia_recovers_type2() {
    let lia = scenario_a(Algorithm::Lia);
    let olia = scenario_a(Algorithm::Olia);
    assert!(
        olia["type2_norm"].mean > lia["type2_norm"].mean + 0.03,
        "OLIA type2 {} must clearly beat LIA {}",
        olia["type2_norm"].mean,
        lia["type2_norm"].mean
    );
    assert!(
        olia["p2"].mean < lia["p2"].mean,
        "OLIA must reduce shared-AP congestion ({} vs {})",
        olia["p2"].mean,
        lia["p2"].mean
    );
    // No cost to type1 (both capped by the server).
    assert!((olia["type1_norm"].mean - lia["type1_norm"].mean).abs() < 0.1);
}

/// Problem P2 in Scenario C: with C1/C2 = 2 a fair multipath user should
/// leave AP2 alone; OLIA's single-path users do clearly better than LIA's.
#[test]
fn scenario_c_olia_less_aggressive() {
    let lia = scenario_c(20, Algorithm::Lia);
    let olia = scenario_c(20, Algorithm::Olia);
    assert!(
        olia["single_norm"].mean > lia["single_norm"].mean + 0.03,
        "OLIA single-path {} must clearly beat LIA {}",
        olia["single_norm"].mean,
        lia["single_norm"].mean
    );
    assert!(olia["p2"].mean < lia["p2"].mean);
}

/// The measured LIA scenario A point sits near its fixed-point prediction.
#[test]
fn scenario_a_matches_theory() {
    let m = scenario_a(Algorithm::Lia);
    let th = fluid::scenario_a::lia(&fluid::scenario_a::ScenarioAInputs::paper(2.0, 1.0));
    assert!(
        (m["type2_norm"].mean - th.type2_norm).abs() < 0.15,
        "sim {} vs theory {}",
        m["type2_norm"].mean,
        th.type2_norm
    );
    assert!(
        (m["p2"].mean - th.p2).abs() < 0.6 * th.p2,
        "p2 sim {} vs theory {}",
        m["p2"].mean,
        th.p2
    );
}

/// Uncoupled subflows are the most aggressive against TCP users — the ε = 2
/// end of the spectrum (§II).
#[test]
fn uncoupled_is_most_aggressive() {
    let unc = scenario_c(10, Algorithm::Uncoupled);
    let olia = scenario_c(10, Algorithm::Olia);
    assert!(
        unc["single_norm"].mean < olia["single_norm"].mean,
        "uncoupled must squeeze TCP users harder than OLIA ({} vs {})",
        unc["single_norm"].mean,
        olia["single_norm"].mean
    );
}
