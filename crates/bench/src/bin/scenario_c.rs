//! Scenario C (§III-C): Figures 5(b)/(c)/(d), 11 and 12, and the ε-family
//! ablation.
//!
//! Fig. 5(b): analytic sweep over C1/C2 at N1 = N2 — LIA vs the optimum
//! with probing cost. Figs. 5(c)/(d): LIA measured over N1/N2 for
//! C1/C2 ∈ {1, 2}, with the AP2 loss probability. Figs. 11/12: with OLIA,
//! multipath users send only the probe over AP2, so single-path users
//! recover up to 2× their LIA rate and p2 grows far less with N1/N2.
//!
//! The ε-family table runs the design spectrum of §II at N1 = N2 = 10,
//! C1/C2 = 2: fully coupled (ε = 0, also "OLIA without α"), LIA (ε = 1),
//! uncoupled Reno per subflow (ε = 2), the related-work baselines EWTCP and
//! semi-coupled, OLIA, and the simulated probing-cost optimum. Expected for
//! the single-path users: uncoupled (worst) < LIA < fully-coupled ≈ OLIA.
//!
//! Every point of the `scenario_c` and `ablation_epsilon` registry grids is
//! simulated once (the two share LIA and OLIA at N1/N2 = 1, C1/C2 = 2), by
//! the body the orchestra jobs run. `REPRO_QUICK=1` shortens the runs.

use std::collections::BTreeMap;

use bench::jobs;
use bench::report::RunReport;
use bench::table::{f3, f4, pm_of, TableSpec};
use bench::{Point, RunCfg, Sweep};
use fluid::scenario_c::{self as analysis, ScenarioCPrediction};
use json::Json;
use metrics::Summary;

/// Both algorithms' measurements and the analysis at one grid point.
type Row = Point<ScenarioCPrediction>;

/// A loss probability the analysis may leave undefined.
fn p2(p: Option<f64>) -> String {
    p.map(f4).unwrap_or_else(|| "-".into())
}

/// One C1/C2 value of the Fig. 5(b) sweep: LIA and the optimum at N1 = N2.
const FIG5B: TableSpec<(f64, ScenarioCPrediction, ScenarioCPrediction)> = TableSpec {
    title: "Fig 5(b): analytic, N1 = N2",
    csv: "fig5b_scenario_c_analytic",
    columns: &[
        ("C1/C2", |r| f3(r.0)),
        ("multipath LIA", |r| f3(r.1.multipath_norm)),
        ("single LIA", |r| f3(r.1.single_norm)),
        ("multipath optimum", |r| f3(r.2.multipath_norm)),
        ("single optimum", |r| f3(r.2.single_norm)),
    ],
};

const FIG5C: TableSpec<Row> = TableSpec {
    title: "Fig 5(c): measured normalized throughputs (LIA)",
    csv: "fig5c_scenario_c_measured",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("multipath sim", |p| pm_of(&p.lia, "multipath_norm")),
        ("multipath theory", |p| f3(p.theory.multipath_norm)),
        ("single sim", |p| pm_of(&p.lia, "single_norm")),
        ("single theory", |p| f3(p.theory.single_norm)),
        ("single optimum", |p| f3(p.optimum.single_norm)),
    ],
};

const FIG5D: TableSpec<Row> = TableSpec {
    title: "Fig 5(d): loss probability p2 at AP2 (LIA)",
    csv: "fig5d_scenario_c_loss",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("p2 sim", |p| f4(p.lia["p2"].mean)),
        ("p2 theory", |p| p2(p.theory.p2)),
        ("p1 sim", |p| f4(p.lia["p1"].mean)),
    ],
};

const FIG11: TableSpec<Row> = TableSpec {
    title: "Fig 11: normalized throughputs",
    csv: "fig11_scenario_c_olia_throughput",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("single LIA", |p| pm_of(&p.lia, "single_norm")),
        ("single OLIA", |p| pm_of(&p.olia, "single_norm")),
        ("single optimum", |p| f3(p.optimum.single_norm)),
        ("multi LIA", |p| f3(p.lia["multipath_norm"].mean)),
        ("multi OLIA", |p| f3(p.olia["multipath_norm"].mean)),
    ],
};

const FIG12: TableSpec<Row> = TableSpec {
    title: "Fig 12: loss probability p2 at AP2",
    csv: "fig12_scenario_c_olia_loss",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("p2 LIA", |p| f4(p.lia["p2"].mean)),
        ("p2 OLIA", |p| f4(p.olia["p2"].mean)),
        ("p2 optimum", |p| p2(p.optimum.p2)),
    ],
};

/// One algorithm of the ε family and its measurement.
const FAMILY: TableSpec<(BTreeMap<String, Json>, BTreeMap<String, Summary>)> = TableSpec {
    title: "Scenario C across the algorithm family",
    csv: "ablation_epsilon_family",
    columns: &[
        ("algorithm", |r| {
            r.0["algorithm"].as_str().unwrap_or("?").to_string()
        }),
        ("single-path norm", |r| pm_of(&r.1, "single_norm")),
        ("multipath norm", |r| pm_of(&r.1, "multipath_norm")),
        ("p2", |r| f4(r.1["p2"].mean)),
        ("p1", |r| f4(r.1["p1"].mean)),
    ],
};

fn main() {
    let cfg = RunCfg::from_env();
    let mut report = RunReport::start("scenario_c");
    report.cfg(&cfg);
    println!(
        "Scenario C (Figs. 5, 11, 12, ε family) — {} replications\n",
        cfg.replications
    );
    let mut fig5b = Vec::new();
    let mut g = 0.1;
    while g <= 1.5 + 1e-9 {
        let inputs = analysis::ScenarioCInputs::paper(1.0, g);
        fig5b.push((
            g,
            analysis::lia(&inputs),
            analysis::optimal_with_probing(&inputs),
        ));
        g += 0.1;
    }

    let mut sweep = Sweep::new(cfg);
    let grid = sweep.add("scenario_c", jobs::scenario_c_params, jobs::scenario_c);
    let family = sweep.add(
        "ablation_epsilon",
        jobs::scenario_c_params,
        jobs::scenario_c,
    );
    let points = sweep.points(&grid, |ratio, c| {
        let inputs = analysis::ScenarioCInputs::paper(ratio, c);
        (
            analysis::lia(&inputs),
            analysis::optimal_with_probing(&inputs),
        )
    });

    FIG5B.emit(&fig5b, &mut report);
    for spec in [FIG5C, FIG5D, FIG11, FIG12] {
        spec.emit(&points, &mut report);
    }
    FAMILY.emit(&sweep.measured(&family), &mut report);
    report.write_or_warn();
    println!(
        "Paper shape: above C1/C2 = 1/(2+N1/N2), LIA's multipath users keep taking AP2\n\
         capacity a fair allocation would leave to TCP users (problem P2), and p2 rises\n\
         steeply with N1/N2. OLIA's single-path users reach up to 2× their LIA rates and\n\
         its p2 stays well below LIA's. Across the ε family, uncoupled grabs the most from\n\
         the TCP users; OLIA leaves AP2 nearly untouched while still filling AP1."
    );
}
