//! Ablation: RTT heterogeneity (Remark 3 of §V-B).
//!
//! The paper notes that TCP-compatible algorithms inherit TCP's RTT bias,
//! and that LIA/OLIA *compensate for different RTTs* in their increase
//! terms. A two-path user over two identical 10 Mb/s bottlenecks (each
//! shared with 3 TCP flows at that path's RTT), but with one-way
//! propagation 20 ms vs 80 ms. Uncoupled Reno takes TCP's share of each
//! path (tilted toward the short RTT, less than ∝ 1/rtt); the coupled
//! algorithms' allocations reflect their design (OLIA concentrates on the
//! path with the higher TCP rate — the short-RTT one — per Theorem 1).

use bench::report::RunReport;
use bench::table::{f3, Table};
use eventsim::{SimDuration, SimRng, SimTime};
use mpsim_core::Algorithm;
use netsim::{route, QueueConfig, Simulation};
use tcpsim::{Connection, ConnectionSpec, PathSpec};
use topo::stagger_starts;

/// Returns (fast-path Mb/s, slow-path Mb/s, total) for the multipath user.
fn run(alg: Algorithm, secs: f64) -> (f64, f64, f64) {
    let mut sim = Simulation::new(37);
    let mk = |sim: &mut Simulation, one_way_ms: u64| {
        (
            sim.add_queue(QueueConfig::red_paper(
                10e6,
                SimDuration::from_millis(one_way_ms),
            )),
            sim.add_queue(QueueConfig::drop_tail(
                10e9,
                SimDuration::from_millis(one_way_ms),
                1_000_000,
            )),
        )
    };
    let (fast_f, fast_r) = mk(&mut sim, 20);
    let (slow_f, slow_r) = mk(&mut sim, 80);
    let mptcp = ConnectionSpec::new(alg)
        .with_path(PathSpec::new(route(&[fast_f]), route(&[fast_r])))
        .with_path(PathSpec::new(route(&[slow_f]), route(&[slow_r])))
        .install(&mut sim, 0);
    let mut conns: Vec<Connection> = vec![mptcp.clone()];
    for i in 0..3 {
        conns.push(
            ConnectionSpec::new(Algorithm::Reno)
                .with_path(PathSpec::new(route(&[fast_f]), route(&[fast_r])))
                .install(&mut sim, 1 + i),
        );
        conns.push(
            ConnectionSpec::new(Algorithm::Reno)
                .with_path(PathSpec::new(route(&[slow_f]), route(&[slow_r])))
                .install(&mut sim, 10 + i),
        );
    }
    let mut rng = SimRng::seed_from_u64(37);
    stagger_starts(&mut sim, &conns, SimDuration::from_secs(1), &mut rng);
    sim.run_until(SimTime::from_secs_f64(secs / 3.0));
    mptcp.handle.reset(sim.now());
    sim.run_until(SimTime::from_secs_f64(secs));
    let fast = mptcp.handle.subflow_mbps(0, sim.now());
    let slow = mptcp.handle.subflow_mbps(1, sim.now());
    (fast, slow, fast + slow)
}

fn main() {
    let secs = if std::env::var_os("REPRO_QUICK").is_some() {
        60.0
    } else {
        150.0
    };
    let mut report = RunReport::start("ablation_rtt_compensation");
    report.param("secs", secs);
    report.param("seed", 37u64);
    let mut t = Table::new(
        "RTT heterogeneity: 40 ms-RTT path vs 160 ms-RTT path (Mb/s)",
        &[
            "algorithm",
            "fast path",
            "slow path",
            "total",
            "fast share %",
        ],
    );
    for alg in [Algorithm::Uncoupled, Algorithm::Lia, Algorithm::Olia] {
        let (fast, slow, total) = run(alg, secs);
        t.row(&[
            alg.name().into(),
            f3(fast),
            f3(slow),
            f3(total),
            f3(fast / total * 100.0),
        ]);
    }
    t.print();
    t.write_csv("ablation_rtt_compensation");
    report.table(&t);
    report.write_or_warn();
    println!(
        "Reading: the three algorithms pursue different objectives under RTT\n\
         heterogeneity (Remark 3). Uncoupled Reno takes a TCP-fair share of *each*\n\
         path, biased toward the fast one as plain TCP is (57% of its rate in the\n\
         tracked paper-scale table). LIA couples via loss, w_r ∝ 1/p_r: its rate\n\
         splits near evenly (51% on the fast path; 44% in the quick run), so the\n\
         slow path holds 4–5× the window of the fast one. OLIA ranks paths by the\n\
         TCP rate √(2/p)/rtt — the fast path wins despite its higher loss — and\n\
         concentrates there (83% of its rate), as Theorem 1 predicts for\n\
         heterogeneous RTTs."
    );
}
