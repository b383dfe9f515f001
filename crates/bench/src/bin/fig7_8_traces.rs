//! Figures 7 and 8: window and α evolution for a two-path flow.
//!
//! Symmetric case (Fig. 7): each path shared with 5 TCP flows — OLIA uses
//! both paths, like LIA, with no flapping. Asymmetric case (Fig. 8): path 2
//! shared with 10 TCP flows — OLIA parks the congested subflow at 1 MSS
//! while LIA keeps significant traffic there.
//!
//! Prints summary statistics and writes the full traces as CSV under
//! `results/` for plotting.

use bench::report::RunReport;
use bench::table::{f3, Table};
use bench::traces;
use mpsim_core::Algorithm;

fn dump_traces(name: &str, r: &traces::TraceResult) {
    let mut t = bench::table::Table::new(name, &["t_s", "w1", "w2", "a1", "a2"]);
    // Align on subflow-0 window samples; α samples use the same clock.
    let lookup = |series: &[(f64, f64)], t: f64| -> f64 {
        match series.binary_search_by(|&(ts, _)| ts.total_cmp(&t)) {
            Ok(i) => series[i].1,
            Err(0) => 0.0,
            Err(i) => series[i - 1].1,
        }
    };
    for &(ts, w1) in &r.cwnd[0] {
        t.row(&[
            f3(ts),
            f3(w1),
            f3(lookup(&r.cwnd[1], ts)),
            f3(lookup(&r.alpha[0], ts)),
            f3(lookup(&r.alpha[1], ts)),
        ]);
    }
    t.write_csv(name);
}

fn main() {
    let secs = if std::env::var_os("REPRO_QUICK").is_some() {
        60.0
    } else {
        120.0
    };
    let mut report = RunReport::start("fig7_8_traces");
    report.param("secs", secs);
    report.param("seed", 42u64);
    let mut summary = Table::new(
        "Figs 7/8: two-bottleneck window behaviour",
        &[
            "case",
            "algorithm",
            "mean w1",
            "mean w2",
            "w2 at floor %",
            "goodput Mb/s",
        ],
    );
    for (case, n2) in [("symmetric (5/5)", 5usize), ("asymmetric (5/10)", 10)] {
        for alg in [Algorithm::Olia, Algorithm::Lia] {
            let r = traces::run(10.0, 5, n2, alg, secs, 42);
            summary.row(&[
                case.into(),
                alg.name().into(),
                f3(r.mean_cwnd[0]),
                f3(r.mean_cwnd[1]),
                f3(r.frac_at_floor[1] * 100.0),
                f3(r.goodput_mbps),
            ]);
            let tag = format!(
                "fig{}_trace_{}",
                if n2 == 5 { "7" } else { "8" },
                alg.name()
            );
            dump_traces(&tag, &r);
        }
    }
    summary.print();
    summary.write_csv("fig7_8_summary");
    report.table(&summary);
    report.write_or_warn();
    println!(
        "Paper shape: symmetric case — both algorithms keep both windows open (no\n\
         flapping; OLIA's α ≈ 0). Asymmetric case — OLIA's congested-path window sits\n\
         at 1 MSS most of the time (brief α-driven probes), while LIA maintains a\n\
         significant window there. This run reproduces the symmetric case only: in\n\
         the asymmetric case OLIA's congested window averages 0.75–0.8× LIA's and\n\
         is at ≤1.5 MSS only 4–5% of the time (\"w2 at floor %\"), not most of it.\n\
         Full traces: results/fig7_trace_*.csv, results/fig8_trace_*.csv."
    );
}
