//! Problem P2 live: Scenario C (§III-C) at CI scale, LIA vs OLIA.
//!
//! N1 multipath users (AP1 + AP2) share AP2 with N2 regular TCP users.
//! With C1/C2 = 2 a fair multipath user should barely touch AP2 — LIA
//! doesn't oblige; OLIA does.
//!
//! ```text
//! cargo run --release --example scenario_c_fairness
//! ```

use bench::{jobs, measure, RunCfg};
use mpsim_core::Algorithm;
use topo::ScenarioCParams;

fn main() {
    let cfg = RunCfg {
        warmup_s: 20.0,
        measure_s: 30.0,
        jitter_s: 2.0,
        replications: 2,
        seed: 7,
    };
    println!("Scenario C: N1=20 multipath vs N2=10 TCP users, C1/C2 = 2\n");
    println!(
        "{:<10} {:>18} {:>18} {:>10}",
        "algorithm", "TCP users (y/C2)", "multipath norm", "p2"
    );
    for alg in [Algorithm::Lia, Algorithm::Olia] {
        let key = format!("scenario_c?algorithm={}&c1_over_c2=2&ratio=2", alg.name());
        let params = ScenarioCParams::paper(20, 2.0, alg);
        let m = measure(&key, jobs::scenario_c, &params, &cfg);
        println!(
            "{:<10} {:>18.3} {:>18.3} {:>10.4}",
            alg.name(),
            m["single_norm"].mean,
            m["multipath_norm"].mean,
            m["p2"].mean
        );
    }
    let th = fluid::scenario_c::optimal_with_probing(&fluid::scenario_c::ScenarioCInputs::paper(
        2.0, 2.0,
    ));
    println!(
        "{:<10} {:>18.3} {:>18.3} {:>10}",
        "optimum",
        th.single_norm,
        th.multipath_norm,
        th.p2.map(|p| format!("{p:.4}")).unwrap_or_default()
    );
    println!(
        "\nOLIA's TCP users sit much closer to the probing-cost optimum, and the\n\
         shared AP's loss probability drops accordingly (problem P2 mitigated)."
    );
}
