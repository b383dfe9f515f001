//! The three MPTCP design goals (RFC 6356, §I of the paper), checked on the
//! packet level for both LIA and OLIA — Corollary 2 says OLIA satisfies all
//! three.

use eventsim::{SimDuration, SimTime};
use mpsim_core::Algorithm;
use netsim::{route, QueueConfig, QueueId, Simulation};
use tcpsim::{Connection, ConnectionSpec, PathSpec};

fn red(sim: &mut Simulation, mbps: f64) -> QueueId {
    sim.add_queue(QueueConfig::red_paper(
        mbps * 1e6,
        SimDuration::from_millis(40),
    ))
}

fn rev(sim: &mut Simulation) -> QueueId {
    sim.add_queue(QueueConfig::drop_tail(
        1e9,
        SimDuration::from_millis(40),
        100_000,
    ))
}

fn measure(sim: &mut Simulation, conns: &[Connection], warm: f64, end: f64) {
    for c in conns {
        sim.start_endpoint_at(c.source, SimTime::ZERO);
    }
    sim.run_until(SimTime::from_secs_f64(warm));
    for c in conns {
        c.handle.reset(sim.now());
    }
    sim.run_until(SimTime::from_secs_f64(end));
}

/// Goal 1 (improve throughput): a multipath user across two bottlenecks,
/// each shared with TCP flows, performs at least as well as a TCP user on
/// the best path.
#[test]
fn goal1_improve_throughput() {
    for alg in [Algorithm::Lia, Algorithm::Olia] {
        // MPTCP run.
        let mut sim = Simulation::new(11);
        let l1 = red(&mut sim, 8.0);
        let l2 = red(&mut sim, 8.0);
        let rv = rev(&mut sim);
        let mptcp = ConnectionSpec::new(alg)
            .with_path(PathSpec::new(route(&[l1]), route(&[rv])))
            .with_path(PathSpec::new(route(&[l2]), route(&[rv])))
            .install(&mut sim, 0);
        let mut conns = vec![mptcp.clone()];
        for i in 0..3 {
            conns.push(
                ConnectionSpec::new(Algorithm::Reno)
                    .with_path(PathSpec::new(route(&[l1]), route(&[rv])))
                    .install(&mut sim, 1 + i),
            );
            conns.push(
                ConnectionSpec::new(Algorithm::Reno)
                    .with_path(PathSpec::new(route(&[l2]), route(&[rv])))
                    .install(&mut sim, 10 + i),
            );
        }
        measure(&mut sim, &conns, 25.0, 75.0);
        let mptcp_rate = mptcp.handle.goodput_mbps(sim.now());

        // Baseline: identical network, the multipath user replaced by one
        // TCP user on path 1.
        let mut sim2 = Simulation::new(11);
        let l1b = red(&mut sim2, 8.0);
        let l2b = red(&mut sim2, 8.0);
        let rvb = rev(&mut sim2);
        let tcp = ConnectionSpec::new(Algorithm::Reno)
            .with_path(PathSpec::new(route(&[l1b]), route(&[rvb])))
            .install(&mut sim2, 0);
        let mut conns2 = vec![tcp.clone()];
        for i in 0..3 {
            conns2.push(
                ConnectionSpec::new(Algorithm::Reno)
                    .with_path(PathSpec::new(route(&[l1b]), route(&[rvb])))
                    .install(&mut sim2, 1 + i),
            );
            conns2.push(
                ConnectionSpec::new(Algorithm::Reno)
                    .with_path(PathSpec::new(route(&[l2b]), route(&[rvb])))
                    .install(&mut sim2, 10 + i),
            );
        }
        measure(&mut sim2, &conns2, 25.0, 75.0);
        let tcp_rate = tcp.handle.goodput_mbps(sim2.now());

        assert!(
            mptcp_rate > 0.8 * tcp_rate,
            "{alg:?}: multipath {mptcp_rate:.2} Mb/s must be at least ~best-path \
             TCP {tcp_rate:.2} Mb/s"
        );
    }
}

/// Goal 2 (do no harm): both subflows through one bottleneck shared with
/// TCP flows — the multipath user must not take more than a TCP user would.
#[test]
fn goal2_do_no_harm() {
    for alg in [Algorithm::Lia, Algorithm::Olia] {
        let mut sim = Simulation::new(13);
        let l = red(&mut sim, 10.0);
        let rv = rev(&mut sim);
        let mptcp = ConnectionSpec::new(alg)
            .with_path(PathSpec::new(route(&[l]), route(&[rv])))
            .with_path(PathSpec::new(route(&[l]), route(&[rv])))
            .install(&mut sim, 0);
        let mut conns = vec![mptcp.clone()];
        let mut tcps = Vec::new();
        for i in 0..4 {
            let c = ConnectionSpec::new(Algorithm::Reno)
                .with_path(PathSpec::new(route(&[l]), route(&[rv])))
                .install(&mut sim, 1 + i);
            conns.push(c.clone());
            tcps.push(c);
        }
        measure(&mut sim, &conns, 25.0, 75.0);
        let mptcp_rate = mptcp.handle.goodput_mbps(sim.now());
        let tcp_mean = tcps
            .iter()
            .map(|c| c.handle.goodput_mbps(sim.now()))
            .sum::<f64>()
            / tcps.len() as f64;
        assert!(
            mptcp_rate < 1.35 * tcp_mean,
            "{alg:?}: multipath {mptcp_rate:.2} Mb/s must not beat a TCP share \
             {tcp_mean:.2} Mb/s at a shared bottleneck"
        );
    }
}

/// Goal 3 (balance congestion): OLIA moves traffic off the more-congested
/// path decisively; its loss probability at the hotter bottleneck stays
/// below LIA's.
#[test]
fn goal3_balance_congestion() {
    let run = |alg: Algorithm| {
        let mut sim = Simulation::new(17);
        let cool = red(&mut sim, 8.0);
        let hot = red(&mut sim, 8.0);
        let rv = rev(&mut sim);
        let mptcp = ConnectionSpec::new(alg)
            .with_path(PathSpec::new(route(&[cool]), route(&[rv])))
            .with_path(PathSpec::new(route(&[hot]), route(&[rv])))
            .install(&mut sim, 0);
        let mut conns = vec![mptcp.clone()];
        for i in 0..6 {
            conns.push(
                ConnectionSpec::new(Algorithm::Reno)
                    .with_path(PathSpec::new(route(&[hot]), route(&[rv])))
                    .install(&mut sim, 1 + i),
            );
        }
        measure(&mut sim, &conns, 25.0, 75.0);
        let hot_rate = mptcp.handle.subflow_mbps(1, sim.now());
        (sim.queue_stats(hot).loss_probability(), hot_rate)
    };
    let (p_lia, hot_lia) = run(Algorithm::Lia);
    let (p_olia, hot_olia) = run(Algorithm::Olia);
    // The discriminating signal: OLIA sends clearly less over the congested
    // path than LIA does.
    assert!(
        hot_olia < 0.8 * hot_lia,
        "OLIA's hot-path rate {hot_olia:.3} Mb/s must undercut LIA's {hot_lia:.3}"
    );
    // Loss probability is dominated by the 6 TCP flows, so allow noise, but
    // OLIA must not make congestion materially worse.
    assert!(
        p_olia <= 1.15 * p_lia,
        "OLIA must not congest the hot link materially more than LIA \
         ({p_olia} vs {p_lia})"
    );
}

/// Regression for the duplicate-retransmission trap (ROADMAP item 1): on the
/// goal-3 topology, LIA at seed 9 once locked its cool subflow into fast
/// retransmits of segments the sink already held, logging 838 loss
/// responses against 333 drops on its link. The cool link carries only that
/// subflow, so each loss response must answer a drop there.
#[test]
fn cool_subflow_responds_only_to_its_drops() {
    let mut sim = Simulation::new(9);
    let cool = red(&mut sim, 8.0);
    let hot = red(&mut sim, 8.0);
    let rv = rev(&mut sim);
    let mptcp = ConnectionSpec::new(Algorithm::Lia)
        .with_path(PathSpec::new(route(&[cool]), route(&[rv])))
        .with_path(PathSpec::new(route(&[hot]), route(&[rv])))
        .install(&mut sim, 0);
    let mut conns = vec![mptcp.clone()];
    for i in 0..6 {
        conns.push(
            ConnectionSpec::new(Algorithm::Reno)
                .with_path(PathSpec::new(route(&[hot]), route(&[rv])))
                .install(&mut sim, 1 + i),
        );
    }
    measure(&mut sim, &conns, 25.0, 75.0);
    let responses = u64::from(mptcp.handle.read(|s| s.subflows[0].loss_events));
    let drops = sim.queue_stats(cool).dropped;
    assert!(
        responses <= drops,
        "cool subflow logged {responses} loss responses against {drops} drops on its link"
    );
}
