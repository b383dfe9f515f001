//! Scenario A (§III-A): Figures 1(b)/(c), 9 and 10.
//!
//! Figs. 1(b)/(c), LIA: normalized type1/type2 throughputs and the
//! shared-AP loss probability p2 — measured, predicted by the fixed-point
//! analysis (Appendix A), and bounded by the optimum with probing cost.
//! Figs. 9/10: with OLIA, type2 users recover (up to 2× the LIA rate) at no
//! cost to type1, and p2 stays near its no-multipath level.
//!
//! Every point of the `scenario_a` registry grid (N1/N2 ∈ {1,2,3},
//! C1/C2 ∈ {0.75,1,1.5}, LIA and OLIA) is simulated once, by the body the
//! orchestra job runs. `REPRO_QUICK=1` shortens the runs.

use bench::jobs;
use bench::report::RunReport;
use bench::table::{f3, f4, pm_of, TableSpec};
use bench::{Point, RunCfg, Sweep};
use fluid::scenario_a::{self as analysis, ScenarioAPrediction};

/// Both algorithms' measurements and the analysis at one grid point.
type Row = Point<ScenarioAPrediction>;

const FIG1B: TableSpec<Row> = TableSpec {
    title: "Fig 1(b): normalized throughput",
    csv: "fig1b_scenario_a_throughput",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("type1 sim", |p| pm_of(&p.lia, "type1_norm")),
        ("type1 theory", |p| f3(p.theory.type1_norm)),
        ("type2 sim", |p| pm_of(&p.lia, "type2_norm")),
        ("type2 theory", |p| f3(p.theory.type2_norm)),
        ("type2 optimum", |p| f3(p.optimum.type2_norm)),
    ],
};

const FIG1C: TableSpec<Row> = TableSpec {
    title: "Fig 1(c): loss probability p2 at the shared AP",
    csv: "fig1c_scenario_a_loss",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("p2 sim", |p| f4(p.lia["p2"].mean)),
        ("p2 theory", |p| f4(p.theory.p2)),
        ("p1 sim", |p| f4(p.lia["p1"].mean)),
        ("p1 theory", |p| f4(p.theory.p1)),
    ],
};

const FIG9: TableSpec<Row> = TableSpec {
    title: "Fig 9: normalized type2 throughput",
    csv: "fig9_scenario_a_olia_throughput",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("type2 LIA", |p| pm_of(&p.lia, "type2_norm")),
        ("type2 OLIA", |p| pm_of(&p.olia, "type2_norm")),
        ("optimum", |p| f3(p.optimum.type2_norm)),
        ("type1 LIA", |p| f3(p.lia["type1_norm"].mean)),
        ("type1 OLIA", |p| f3(p.olia["type1_norm"].mean)),
    ],
};

const FIG10: TableSpec<Row> = TableSpec {
    title: "Fig 10: loss probability p2 at the shared AP",
    csv: "fig10_scenario_a_olia_loss",
    columns: &[
        ("N1/N2", |p| f3(p.ratio)),
        ("C1/C2", |p| f3(p.c)),
        ("p2 LIA", |p| f4(p.lia["p2"].mean)),
        ("p2 OLIA", |p| f4(p.olia["p2"].mean)),
        ("p2 optimum", |p| f4(p.optimum.p2)),
    ],
};

fn main() {
    let cfg = RunCfg::from_env();
    let mut report = RunReport::start("scenario_a");
    report.cfg(&cfg);
    println!(
        "Scenario A (Figs. 1, 9, 10) — LIA and OLIA; {} replications of {}s+{}s each\n",
        cfg.replications, cfg.warmup_s, cfg.measure_s
    );
    let mut sweep = Sweep::new(cfg);
    let grid = sweep.add("scenario_a", jobs::scenario_a_params, jobs::scenario_a);
    let points = sweep.points(&grid, |ratio, c| {
        let inputs = analysis::ScenarioAInputs::paper(ratio, c);
        (
            analysis::lia(&inputs),
            analysis::optimal_with_probing(&inputs),
        )
    });
    for spec in [FIG1B, FIG1C, FIG9, FIG10] {
        spec.emit(&points, &mut report);
    }
    report.write_or_warn();
    println!(
        "Paper shape: under LIA type1 stays at 1.0 (capped by the server); type2 falls\n\
         ~30% at N1=N2 and 50-60% at N1=3N2; p2 grows with N1/N2. OLIA's type2 rates\n\
         approach the probing-cost optimum (up to 2× LIA's) at no cost to type1, and\n\
         its p2 stays well below LIA's."
    );
}
