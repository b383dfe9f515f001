//! Robustness experiment: core-link failures in the FatTree.
//!
//! The reliability motivation behind multipath (Scenario B's "Blue users use
//! multi-homing ... to increase their reliability") at data-center scale:
//! run the Fig. 13 permutation workload, then fail 5% of the core link
//! directions mid-run. A cross-pod path needs four distinct core-adjacent
//! queues alive (data up/down + ACK up/down), so even 5% queue failures
//! kill ≈19% of *paths*: a single-path TCP flow on one of them stalls
//! outright, while an MPTCP connection with several subflows almost surely
//! keeps an alive path and shifts its window there.
//!
//! A second set of scenarios drives the path manager directly on a two-path
//! dumbbell with scripted chaos plans — link flapping, degradation (rate
//! collapse + loss burst), and a full partition of one path — and reports
//! goodput during the fault, goodput after repair, and how long the failed
//! subflow took to rejoin after the repair (the §VII re-probe machinery).

use bench::fattree::dc_config;
use bench::report::RunReport;
use bench::table::{f3, Table};
use eventsim::{SimDuration, SimRng, SimTime};
use mpsim_core::Algorithm;
use netsim::{route, FaultAction, FaultPlan, QueueConfig, QueueId, Simulation};
use tcpsim::{ConnectionSpec, PathSpec};
use topo::{FatTree, FatTreeConfig};
use workload::permutation_traffic;

/// Returns (aggregate % of optimal before failures, after failures).
fn run(k: usize, algorithm: Algorithm, subflows: usize, secs: f64, seed: u64) -> (f64, f64) {
    let mut sim = Simulation::new(seed);
    let ft = FatTree::build(&mut sim, k, &FatTreeConfig::default());
    let n = ft.num_hosts();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xD0C5);
    let perm = permutation_traffic(&mut rng, n);
    let cfg = dc_config();
    let conns: Vec<_> = (0..n)
        .map(|h| {
            ft.connect(
                &mut sim, h, perm[h], algorithm, subflows, None, cfg, &mut rng, h as u64,
            )
        })
        .collect();
    for c in &conns {
        let jitter = SimDuration::from_secs_f64(rng.f64() * 0.2);
        sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
    }
    // Healthy window.
    sim.run_until(SimTime::from_secs_f64(secs / 3.0));
    for c in &conns {
        c.handle.reset(sim.now());
    }
    sim.run_until(SimTime::from_secs_f64(secs * 2.0 / 3.0));
    let now = sim.now();
    let before = conns
        .iter()
        .map(|c| c.handle.goodput_mbps(now))
        .sum::<f64>()
        / n as f64;

    // Fail 5% of the unidirectional core queues, sampled independently
    // (as real fabric failures are).
    for q in ft.core_queues().filter(|_| rng.chance(0.05)) {
        sim.set_queue_down(q, true);
    }
    // Grace period for loss detection, then measure the degraded window.
    sim.run_until(SimTime::from_secs_f64(secs * 2.0 / 3.0 + 2.0));
    for c in &conns {
        c.handle.reset(sim.now());
    }
    sim.run_until(SimTime::from_secs_f64(secs + 2.0));
    let now = sim.now();
    let after = conns
        .iter()
        .map(|c| c.handle.goodput_mbps(now))
        .sum::<f64>()
        / n as f64;
    (before, after)
}

/// One direction of a paper-style 10 Mb/s, 40 ms access link (RED forward
/// queue, fat reverse queue for ACKs).
fn link(sim: &mut Simulation) -> (QueueId, QueueId) {
    (
        sim.add_queue(QueueConfig::red_paper(10e6, SimDuration::from_millis(40))),
        sim.add_queue(QueueConfig::drop_tail(
            10e9,
            SimDuration::from_millis(40),
            100_000,
        )),
    )
}

struct FaultOutcome {
    /// Connection goodput while the fault is active, Mb/s.
    during: f64,
    /// Connection goodput after the repair, Mb/s.
    after: f64,
    /// Seconds from repair until path 0 rejoined (None: the subflow was
    /// never declared Failed, or it already recovered before the repair).
    recovery: Option<f64>,
    /// Failed transitions / re-probe packets on path 0.
    failures: u64,
    reprobes: u64,
}

/// A two-path connection with a scripted fault on path 0 active during
/// `[fault_start, fault_end]`; measures until `measure_until`.
fn run_fault_scenario(
    alg: Algorithm,
    fault_start: f64,
    fault_end: f64,
    measure_until: f64,
    plan: impl FnOnce(QueueId, QueueId) -> FaultPlan,
    seed: u64,
) -> FaultOutcome {
    let mut sim = Simulation::new(seed);
    let (f1, r1) = link(&mut sim);
    let (f2, r2) = link(&mut sim);
    let conn = ConnectionSpec::new(alg)
        .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
        .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
        .install(&mut sim, 0);
    sim.start_endpoint_at(conn.source, SimTime::ZERO);
    sim.install_fault_plan(plan(f1, r1));

    sim.run_until(SimTime::from_secs_f64(fault_start));
    conn.handle.reset(sim.now());
    sim.run_until(SimTime::from_secs_f64(fault_end));
    let during = conn.handle.goodput_mbps(sim.now());
    conn.handle.reset(sim.now());
    sim.run_until(SimTime::from_secs_f64(measure_until));
    let after = conn.handle.goodput_mbps(sim.now());

    let repair = SimTime::from_secs_f64(fault_end);
    let recovery = conn
        .handle
        .last_recovered_at(0)
        .filter(|&t| t >= repair)
        .map(|t| t.saturating_since(repair).as_secs_f64());
    let (failures, reprobes) = conn.handle.failure_counts(0);
    FaultOutcome {
        during,
        after,
        recovery,
        failures,
        reprobes,
    }
}

fn fault_scenarios(report: &mut RunReport) {
    println!("\nChaos plans on a two-path dumbbell (10 Mb/s + 40 ms per path, fault on path 0)\n");
    let mut t = Table::new(
        "connection goodput Mb/s; recovery = path-0 rejoin lag after repair",
        &[
            "scenario",
            "algorithm",
            "during fault",
            "after repair",
            "recovery s",
            "failures",
            "reprobes",
        ],
    );
    for (name, alg) in [("LIA ×2", Algorithm::Lia), ("OLIA ×2", Algorithm::Olia)] {
        // Flap: three 4 s outages separated by 2 s of calm; last repair at
        // t=31 s.
        let o = run_fault_scenario(
            alg,
            15.0,
            31.0,
            46.0,
            |f1, _| {
                FaultPlan::new().flap(
                    f1,
                    SimTime::from_secs_f64(15.0),
                    SimDuration::from_secs(4),
                    SimDuration::from_secs(2),
                    3,
                )
            },
            21,
        );
        push_row(&mut t, "flap (3× 4s down / 2s up)", name, &o);

        // Degrade: path 0 collapses to 0.5 Mb/s with a 10% loss burst for
        // 16 s, then both are lifted.
        let o = run_fault_scenario(
            alg,
            15.0,
            31.0,
            46.0,
            |f1, _| {
                FaultPlan::new()
                    .at(
                        SimTime::from_secs_f64(15.0),
                        FaultAction::SetRate {
                            queue: f1,
                            rate_bps: 0.5e6,
                        },
                    )
                    .at(
                        SimTime::from_secs_f64(15.0),
                        FaultAction::LossBurst {
                            queue: f1,
                            p: 0.1,
                            duration: SimDuration::from_secs(16),
                        },
                    )
                    .at(
                        SimTime::from_secs_f64(31.0),
                        FaultAction::SetRate {
                            queue: f1,
                            rate_bps: 10e6,
                        },
                    )
                    .at(
                        SimTime::from_secs_f64(31.0),
                        FaultAction::ClearImpairments(f1),
                    )
            },
            22,
        );
        push_row(&mut t, "degrade (0.5 Mb/s + 10% loss)", name, &o);

        // Partition: both directions of path 0 die for 16 s — even ACKs for
        // old data cannot get back.
        let o = run_fault_scenario(
            alg,
            15.0,
            31.0,
            46.0,
            |f1, r1| {
                FaultPlan::new()
                    .down_between(
                        f1,
                        SimTime::from_secs_f64(15.0),
                        SimTime::from_secs_f64(31.0),
                    )
                    .down_between(
                        r1,
                        SimTime::from_secs_f64(15.0),
                        SimTime::from_secs_f64(31.0),
                    )
            },
            23,
        );
        push_row(&mut t, "partition (fwd + rev down)", name, &o);
    }
    t.print();
    t.write_csv("dc_robustness_faults");
    report.table(&t);
    println!(
        "Reading: during a hard fault the survivor path carries the connection at\n\
         its full share; the failed subflow is declared dead after a handful of\n\
         consecutive RTOs and re-probed on a capped exponential schedule, so the\n\
         rejoin lag after repair is bounded by the probe cap (8 s) rather than by\n\
         classic RTO backoff (minutes). Degradation without an outage keeps the\n\
         path technically alive — the coupling just moves traffic off it, and no\n\
         Failed transition is needed."
    );
}

fn push_row(t: &mut Table, scenario: &str, alg: &str, o: &FaultOutcome) {
    t.row(&[
        scenario.into(),
        alg.into(),
        f3(o.during),
        f3(o.after),
        o.recovery.map_or_else(|| "-".into(), f3),
        o.failures.to_string(),
        o.reprobes.to_string(),
    ]);
}

fn main() {
    let quick = std::env::var_os("REPRO_QUICK").is_some();
    let (k, secs) = if quick { (4, 12.0) } else { (8, 18.0) };
    let mut report = RunReport::start("dc_robustness");
    report.param("k", k as u64);
    report.param("secs", secs);
    report.param("seed", 3u64);
    println!("FatTree core-link failures (5% of core queue directions die mid-run) — k={k}\n");
    let mut t = Table::new(
        "aggregate per-host goodput, % of line rate",
        &[
            "long flows",
            "before failures",
            "after failures",
            "retained %",
        ],
    );
    for (name, alg, nsub) in [
        ("TCP", Algorithm::Reno, 1),
        ("MPTCP-LIA ×4", Algorithm::Lia, 4),
        ("MPTCP-OLIA ×4", Algorithm::Olia, 4),
    ] {
        let (before, after) = run(k, alg, nsub, secs, 3);
        t.row(&[
            name.into(),
            f3(before),
            f3(after),
            f3(after / before * 100.0),
        ]);
    }
    t.print();
    t.write_csv("dc_robustness");
    report.table(&t);
    println!(
        "Reading: at paper scale (k=8) 12 of the 256 core queue directions fail,\n\
         and every row keeps 91–93% of its goodput (TCP 91.4%, LIA 91.5%, OLIA\n\
         92.8%): in aggregate, single-path TCP loses no larger share than MPTCP.\n\
         MPTCP's gain is absolute: its degraded goodput (75% of line rate) stays\n\
         above TCP's healthy 49%. At quick scale (k=4) the 5% draw fails none of\n\
         the 32 queue directions, so both windows are healthy and every row keeps\n\
         ~100%."
    );
    fault_scenarios(&mut report);
    report.write_or_warn();
}
