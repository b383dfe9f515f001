//! Scenario B (§III-B): Figures 4(a)/(b) and 17, Tables I and II.
//!
//! Fig. 4, analytic sweep over CX/CT: normalized group throughputs
//! (N·rate/CT) for Red users on a single path and after upgrading to
//! multipath, under LIA (4a) and under the optimum with probing cost (4b).
//! With LIA the upgrade hurts *everyone* for every CX/CT — problem P1.
//! Fig. 17: the optimum at RTT = 100 ms and 25 ms; the minimum probing
//! traffic is one MSS per RTT per path, so the 25 ms curves sit lower.
//!
//! Tables I/II, measured at CX = 27, CT = 36 Mb/s with 15 + 15 users:
//! per-user rates and the aggregate before and after the Red users upgrade
//! to MPTCP. Every point of the `scenario_b` registry grid is simulated
//! once, by the body the orchestra job runs. `REPRO_QUICK=1` shortens the
//! runs.

use std::collections::BTreeMap;

use bench::jobs;
use bench::report::RunReport;
use bench::table::{f3, pm_of, Column, TableSpec};
use bench::{RunCfg, Sweep};
use fluid::scenario_b::{self as analysis, ScenarioBInputs, ScenarioBPrediction};
use metrics::Summary;

/// One CX/CT value and the predictions with the Red users on one path and
/// on two.
type Row = (f64, ScenarioBPrediction, ScenarioBPrediction);

/// The groups' normalized throughputs of Figs. 4 and 17, then Fig. 4's
/// Blue drop.
const GROUPS: &[Column<Row>] = &[
    ("CX/CT", |r| f3(r.0)),
    ("blue (red single)", |r| f3(r.1.blue_norm)),
    ("red (red single)", |r| f3(r.1.red_norm)),
    ("blue (red mptcp)", |r| f3(r.2.blue_norm)),
    ("red (red mptcp)", |r| f3(r.2.red_norm)),
    ("blue drop %", |r| {
        f3((1.0 - r.2.blue_norm / r.1.blue_norm) * 100.0)
    }),
];

const FIG4A: TableSpec<Row> = TableSpec {
    title: "Fig 4(a): LIA — normalized throughputs vs CX/CT",
    csv: "fig4a_scenario_b_lia",
    columns: GROUPS,
};

const FIG4B: TableSpec<Row> = TableSpec {
    title: "Fig 4(b): optimum with probing cost",
    csv: "fig4b_scenario_b_optimal",
    columns: GROUPS,
};

const FIG17_RTT100: TableSpec<Row> = TableSpec {
    title: "Fig 17: optimum with probing, RTT = 100 ms",
    csv: "fig17_probing_rtt100",
    columns: GROUPS.split_at(5).0,
};

const FIG17_RTT25: TableSpec<Row> = TableSpec {
    title: "Fig 17: optimum with probing, RTT = 25 ms",
    csv: "fig17_probing_rtt25",
    columns: GROUPS.split_at(5).0,
};

/// The Red users' setting, its measurement and the paper's rates.
type Measured = (&'static str, BTreeMap<String, Summary>, &'static str);

const RATES: &[Column<Measured>] = &[
    ("Red users", |r| r.0.to_string()),
    ("Blue rate/user", |r| pm_of(&r.1, "blue_mbps")),
    ("Red rate/user", |r| pm_of(&r.1, "red_mbps")),
    ("Aggregate", |r| pm_of(&r.1, "aggregate_mbps")),
    ("paper", |r| r.2.to_string()),
];

const TABLE1: TableSpec<Measured> = TableSpec {
    title: "Table I (LIA)",
    csv: "table1_scenario_b_lia",
    columns: RATES,
};

const TABLE2: TableSpec<Measured> = TableSpec {
    title: "Table II (OLIA)",
    csv: "table2_scenario_b_olia",
    columns: RATES,
};

type Prediction = fn(&ScenarioBInputs) -> ScenarioBPrediction;

/// Red single-path and multipath predictions over CX/CT ∈ {0.15, 0.30, …,
/// 1.5}, at RTT `rtt_ms` (the paper's default when `None`).
fn cx_sweep(single: Prediction, multi: Prediction, rtt_ms: Option<f64>) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut x = 0.15;
    while x <= 1.5 + 1e-9 {
        let mut inputs = ScenarioBInputs::paper(x);
        if let Some(rtt_ms) = rtt_ms {
            inputs.rtt_s = rtt_ms / 1e3;
        }
        rows.push((x, single(&inputs), multi(&inputs)));
        x += 0.15;
    }
    rows
}

fn main() {
    let cfg = RunCfg::from_env();
    let mut report = RunReport::start("scenario_b");
    report.cfg(&cfg);
    println!(
        "Scenario B (Figs. 4, 17, Tables I/II) — CX=27, CT=36 Mb/s, 15+15 users; {} replications\n",
        cfg.replications
    );
    let (lia_single, lia_multi) = (analysis::lia_red_single, analysis::lia_red_multipath);
    let (opt_single, opt_multi) = (
        analysis::optimal_red_single,
        analysis::optimal_red_multipath,
    );
    FIG4A.emit(&cx_sweep(lia_single, lia_multi, None), &mut report);
    FIG4B.emit(&cx_sweep(opt_single, opt_multi, None), &mut report);
    FIG17_RTT100.emit(&cx_sweep(opt_single, opt_multi, Some(100.0)), &mut report);
    FIG17_RTT25.emit(&cx_sweep(opt_single, opt_multi, Some(25.0)), &mut report);

    let mut sweep = Sweep::new(cfg);
    sweep.add("scenario_b", jobs::scenario_b_params, jobs::scenario_b);
    let mut drops = Vec::new();
    for (alg, spec, paper) in [
        (
            "lia",
            TABLE1,
            ["2.5 / 1.5 / 59.8", "2.0 / 1.4 / 52.0", "13%"],
        ),
        (
            "olia",
            TABLE2,
            ["2.2 / 1.8 / 59.3", "2.2 / 1.7 / 57.8", "3.5%"],
        ),
    ] {
        let at =
            |multi: bool| sweep.at(&[("algorithm", alg.into()), ("red_multipath", multi.into())]);
        let (single, multi) = (at(false), at(true));
        let drop = (1.0 - multi["aggregate_mbps"].mean / single["aggregate_mbps"].mean) * 100.0;
        report.metric(&format!("{alg}.aggregate_drop_pct"), drop);
        drops.push(format!(
            "{}% with {} (paper: {})",
            f3(drop),
            alg.to_uppercase(),
            paper[2]
        ));
        let rows = [
            ("single-path", single, paper[0]),
            ("multipath", multi, paper[1]),
        ];
        spec.emit(&rows, &mut report);
    }
    report.write_or_warn();
    println!("Aggregate drop from the upgrade: {}", drops.join(", "));
    println!(
        "Paper shape: under LIA the upgrade costs the Blue users up to ~21% (peak near\n\
         CX/CT ≈ 0.75); under the optimum the loss is the ~3% probing overhead, which is\n\
         4× larger at RTT 25 ms than at 100 ms."
    );
}
