//! Declarative connection construction.

use mpsim_core::Algorithm;
use netsim::{EndpointId, Route, Simulation};

use crate::sink::TcpSink;
use crate::source::TcpSource;
use crate::stats::{FlowHandle, TcpConfig};

/// One path of a connection: a forward (data) route and a reverse (ACK)
/// route.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Queues the data packets traverse.
    pub fwd: Route,
    /// Queues the ACKs traverse.
    pub rev: Route,
}

impl PathSpec {
    /// Construct a path from its two routes.
    pub fn new(fwd: Route, rev: Route) -> PathSpec {
        PathSpec { fwd, rev }
    }
}

/// Everything needed to instantiate one (MP)TCP connection.
#[derive(Debug, Clone)]
pub struct ConnectionSpec {
    /// Which congestion-control algorithm couples the subflows.
    pub algorithm: Algorithm,
    /// The connection's paths (one = regular TCP behaviourally).
    pub paths: Vec<PathSpec>,
    /// Flow size in packets (`None` = long-lived bulk flow).
    pub size_packets: Option<u64>,
    /// TCP parameters.
    pub config: TcpConfig,
}

/// The installed connection: endpoint ids plus the observation handle.
///
/// The source must still be started (`Simulation::start_endpoint_at`) —
/// experiments randomize start times, as the testbed did ("the flows are
/// initiated in the random order").
#[derive(Debug, Clone)]
pub struct Connection {
    /// The sending endpoint (start this).
    pub source: EndpointId,
    /// The receiving endpoint.
    pub sink: EndpointId,
    /// Shared statistics handle.
    pub handle: FlowHandle,
}

impl ConnectionSpec {
    /// A spec with default TCP configuration and no paths yet.
    pub fn new(algorithm: Algorithm) -> ConnectionSpec {
        ConnectionSpec {
            algorithm,
            paths: Vec::new(),
            size_packets: None,
            config: TcpConfig::default(),
        }
    }

    /// Append one path.
    pub fn with_path(mut self, path: PathSpec) -> ConnectionSpec {
        self.paths.push(path);
        self
    }

    /// Append several paths.
    pub fn with_paths(mut self, paths: impl IntoIterator<Item = PathSpec>) -> ConnectionSpec {
        self.paths.extend(paths);
        self
    }

    /// Make the flow finite: `n` MSS-sized packets.
    pub fn with_size_packets(mut self, n: u64) -> ConnectionSpec {
        self.size_packets = Some(n);
        self
    }

    /// Replace the TCP configuration.
    pub fn with_config(mut self, config: TcpConfig) -> ConnectionSpec {
        self.config = config;
        self
    }

    /// Enable the §VII path-pruning extension: bad subflows leave the
    /// established set for `cooldown`, eliminating even probe traffic.
    pub fn with_path_pruning(mut self, cooldown: eventsim::SimDuration) -> ConnectionSpec {
        self.config.prune_paths = true;
        self.config.prune_cooldown = cooldown;
        self
    }

    /// Enable per-subflow window traces, plus α traces for multipath OLIA.
    pub fn with_trace(mut self) -> ConnectionSpec {
        self.config.trace = true;
        self
    }

    /// Instantiate the source and sink endpoints in `sim`.
    ///
    /// Applies the paper's §IV-B modification for OLIA: with multiple
    /// established paths, the initial slow-start threshold is 1 MSS, so
    /// multipath OLIA subflows enter congestion avoidance immediately and
    /// avoid blasting congested paths during slow start.
    pub fn install(&self, sim: &mut Simulation, conn_id: u64) -> Connection {
        assert!(!self.paths.is_empty(), "connection spec has no paths");
        let mut config = self.config;
        if self.algorithm == Algorithm::Olia && self.paths.len() > 1 {
            // §IV-B: with multiple established paths the initial ssthresh is
            // 1 MSS (no initial slow-start blast on a possibly-congested
            // path), and the *minimum* ssthresh after losses is 1 MSS
            // instead of TCP's 2 (handled by the source's `min_ssthresh`).
            // Slow start above that, e.g. after an RTO at a healthy window,
            // stays standard — that is what keeps OLIA as responsive as LIA.
            config.init_ssthresh = 1.0;
        }
        let source_id = sim.reserve_endpoint();
        let sink_id = sim.reserve_endpoint();
        let handle = FlowHandle::new(config.mss, self.paths.len());
        let fwd: Vec<Route> = self.paths.iter().map(|p| p.fwd).collect();
        let rev: Vec<Route> = self.paths.iter().map(|p| p.rev).collect();
        sim.install_endpoint(
            source_id,
            Box::new(TcpSource::new(
                sink_id,
                conn_id,
                config,
                self.algorithm.build(),
                fwd,
                self.size_packets,
                handle.clone(),
            )),
        );
        sim.install_endpoint(
            sink_id,
            Box::new(TcpSink::with_delayed_acks(
                source_id,
                conn_id,
                config.ack_size,
                config.ack_every,
                rev,
                handle.clone(),
            )),
        );
        Connection {
            source: source_id,
            sink: sink_id,
            handle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::{SimDuration, SimTime};
    use netsim::{route, QueueConfig, QueueId};

    /// A symmetric dumbbell: one bottleneck queue per direction.
    fn dumbbell(
        sim: &mut Simulation,
        rate_bps: f64,
        one_way: SimDuration,
        limit: usize,
    ) -> (QueueId, QueueId) {
        let fwd = sim.add_queue(QueueConfig::drop_tail(rate_bps, one_way, limit));
        let rev = sim.add_queue(QueueConfig::drop_tail(rate_bps, one_way, limit));
        (fwd, rev)
    }

    fn single_flow(algorithm: Algorithm, rate_bps: f64, secs: f64, limit: usize) -> (f64, u64) {
        let mut sim = Simulation::new(3);
        let (fwd, rev) = dumbbell(&mut sim, rate_bps, SimDuration::from_millis(40), limit);
        let conn = ConnectionSpec::new(algorithm)
            .with_path(PathSpec::new(route(&[fwd]), route(&[rev])))
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(secs));
        (
            conn.handle.goodput_mbps(sim.now()),
            conn.handle.loss_events(),
        )
    }

    #[test]
    fn reno_fills_an_uncongested_pipe() {
        // 10 Mb/s, large buffer: a single Reno flow should reach near link
        // rate once the window grows (goodput counts payload only).
        let (goodput, _) = single_flow(Algorithm::Reno, 10e6, 20.0, 200);
        assert!(goodput > 8.0, "goodput {goodput} Mb/s");
    }

    #[test]
    fn reno_recovers_from_buffer_overflow_losses() {
        // Small buffer forces periodic drops: the flow must keep delivering
        // (fast retransmit working), with at least one loss event.
        let (goodput, losses) = single_flow(Algorithm::Reno, 10e6, 20.0, 16);
        assert!(goodput > 6.0, "goodput {goodput} Mb/s");
        assert!(losses > 0, "expected losses with a 16-packet buffer");
    }

    #[test]
    fn finite_flow_completes_and_records_fct() {
        let mut sim = Simulation::new(5);
        let (fwd, rev) = dumbbell(&mut sim, 100e6, SimDuration::from_millis(1), 100);
        // 70 kB ≈ 47 packets: the short-flow size of §VI-B.2.
        let conn = ConnectionSpec::new(Algorithm::Reno)
            .with_path(PathSpec::new(route(&[fwd]), route(&[rev])))
            .with_size_packets(47)
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(10.0));
        let fct = conn.handle.completion_time().expect("flow must complete");
        assert!(fct > 0.0 && fct < 2.0, "fct {fct}");
        assert_eq!(conn.handle.read(|s| s.delivered_packets), 47);
        // After completion the simulation drains: no events left.
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn two_subflows_share_two_paths() {
        // MPTCP over two disjoint 10 Mb/s paths should beat one path's rate.
        let mut sim = Simulation::new(9);
        let (f1, r1) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 100);
        let (f2, r2) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 100);
        let conn = ConnectionSpec::new(Algorithm::Olia)
            .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
            .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(30.0));
        let goodput = conn.handle.goodput_mbps(sim.now());
        assert!(goodput > 12.0, "two-path OLIA goodput {goodput} Mb/s");
    }

    #[test]
    fn olia_multipath_gets_ssthresh_one() {
        // §IV-B: multipath OLIA starts in congestion avoidance; a fresh
        // single-path flow keeps the configured threshold. Observable: the
        // multipath OLIA connection's early window stays small while a
        // Reno flow slow-starts exponentially. We proxy-check via the
        // effective config application: install succeeded and the window
        // after one RTT differs between the two setups.
        let mut sim = Simulation::new(2);
        let (f1, r1) = dumbbell(&mut sim, 100e6, SimDuration::from_millis(50), 1000);
        let (f2, r2) = dumbbell(&mut sim, 100e6, SimDuration::from_millis(50), 1000);
        let olia = ConnectionSpec::new(Algorithm::Olia)
            .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
            .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
            .install(&mut sim, 0);
        let (f3, r3) = dumbbell(&mut sim, 100e6, SimDuration::from_millis(50), 1000);
        let reno = ConnectionSpec::new(Algorithm::Reno)
            .with_path(PathSpec::new(route(&[f3]), route(&[r3])))
            .install(&mut sim, 1);
        sim.start_endpoint_at(olia.source, SimTime::ZERO);
        sim.start_endpoint_at(reno.source, SimTime::ZERO);
        // ~6 RTTs.
        sim.run_until(SimTime::from_secs_f64(0.65));
        let w_olia: f64 = olia
            .handle
            .read(|s| s.subflows.iter().map(|f| f.cwnd).sum());
        let w_reno: f64 = reno.handle.read(|s| s.subflows[0].cwnd);
        assert!(
            w_reno > 2.0 * w_olia,
            "slow-starting Reno ({w_reno}) should outgrow CA-from-start OLIA ({w_olia})"
        );
    }

    #[test]
    fn lia_vs_reno_same_single_path_behaviour() {
        // On a single path LIA's increase reduces to 1/w, so goodput should
        // be close to Reno's under identical conditions.
        let (g_lia, _) = single_flow(Algorithm::Lia, 10e6, 20.0, 60);
        let (g_reno, _) = single_flow(Algorithm::Reno, 10e6, 20.0, 60);
        assert!(
            (g_lia - g_reno).abs() < 0.15 * g_reno,
            "lia {g_lia} vs reno {g_reno}"
        );
    }

    #[test]
    fn tracing_records_window_series() {
        let mut sim = Simulation::new(4);
        let (fwd, rev) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 60);
        let conn = ConnectionSpec::new(Algorithm::Reno)
            .with_path(PathSpec::new(route(&[fwd]), route(&[rev])))
            .with_trace()
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(5.0));
        let trace = conn.handle.cwnd_trace(0);
        assert!(trace.len() > 10, "expected many window samples");
        assert!(trace.iter().all(|&(_, w)| w >= 1.0));
    }

    #[test]
    fn only_olia_traces_alpha() {
        // α is OLIA's term: a traced two-path LIA connection records window
        // samples on both subflows and no α samples; OLIA records both.
        let traced = |algorithm: Algorithm| {
            let mut sim = Simulation::new(6);
            let (f1, r1) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 60);
            let (f2, r2) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 60);
            let conn = ConnectionSpec::new(algorithm)
                .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
                .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
                .with_trace()
                .install(&mut sim, 0);
            sim.start_endpoint_at(conn.source, SimTime::ZERO);
            sim.run_until(SimTime::from_secs_f64(5.0));
            let h = &conn.handle;
            assert!(h.cwnd_trace(0).len() > 10 && h.cwnd_trace(1).len() > 10);
            (h.alpha_trace(0).len(), h.alpha_trace(1).len())
        };
        assert_eq!(traced(Algorithm::Lia), (0, 0));
        let (a0, a1) = traced(Algorithm::Olia);
        assert!(a0 > 10 && a1 > 10, "OLIA α samples: {a0}, {a1}");
    }

    #[test]
    fn pruning_drops_probe_traffic_on_a_dead_path() {
        // Path 2 loses a third of all packets: with pruning the subflow
        // should spend most of its time out of the established set, cutting
        // its traffic well below the always-probing baseline.
        let run = |prune: bool| {
            let mut sim = Simulation::new(15);
            let (f1, r1) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 100);
            let f2 = sim.add_queue(QueueConfig::bernoulli(
                10e6,
                SimDuration::from_millis(40),
                0.33,
                100,
            ));
            let r2 = sim.add_queue(QueueConfig::drop_tail(
                10e6,
                SimDuration::from_millis(40),
                100,
            ));
            let mut spec = ConnectionSpec::new(Algorithm::Olia)
                .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
                .with_path(PathSpec::new(route(&[f2]), route(&[r2])));
            if prune {
                spec = spec.with_path_pruning(SimDuration::from_secs(10));
            }
            let conn = spec.install(&mut sim, 0);
            sim.start_endpoint_at(conn.source, SimTime::ZERO);
            sim.run_until(SimTime::from_secs_f64(20.0));
            conn.handle.reset(sim.now());
            sim.run_until(SimTime::from_secs_f64(80.0));
            (
                conn.handle.read(|s| s.subflows[1].acked_packets),
                conn.handle.goodput_mbps(sim.now()),
            )
        };
        let (bad_path_unpruned, total_unpruned) = run(false);
        let (bad_path_pruned, total_pruned) = run(true);
        assert!(
            (bad_path_pruned as f64) < 0.7 * bad_path_unpruned as f64 + 1.0,
            "pruning must cut dead-path traffic: {bad_path_pruned} vs {bad_path_unpruned}"
        );
        // And the good path keeps delivering.
        assert!(
            total_pruned > 0.8 * total_unpruned,
            "{total_pruned} vs {total_unpruned}"
        );
    }

    #[test]
    fn pruned_path_reactivates_after_cooldown() {
        // With a short cooldown the subflow must keep cycling: pruned, then
        // probing again — observable as nonzero traffic on the bad path
        // across a long run even though pruning is on.
        let mut sim = Simulation::new(16);
        let (f1, r1) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 100);
        let f2 = sim.add_queue(QueueConfig::bernoulli(
            10e6,
            SimDuration::from_millis(40),
            0.33,
            100,
        ));
        let r2 = sim.add_queue(QueueConfig::drop_tail(
            10e6,
            SimDuration::from_millis(40),
            100,
        ));
        let conn = ConnectionSpec::new(Algorithm::Olia)
            .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
            .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
            .with_path_pruning(SimDuration::from_secs(2))
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(30.0));
        let mid = conn.handle.read(|s| s.subflows[1].acked_packets);
        sim.run_until(SimTime::from_secs_f64(60.0));
        let end = conn.handle.read(|s| s.subflows[1].acked_packets);
        assert!(
            end > mid,
            "re-probing must keep some packets flowing on the bad path"
        );
    }

    #[test]
    fn dsn_reassembly_completes_for_finite_multipath_flow() {
        // Every packet of a finite 2-path flow must eventually reach the
        // application in connection order, even across retransmissions.
        let mut sim = Simulation::new(21);
        let (f1, r1) = dumbbell(&mut sim, 5e6, SimDuration::from_millis(10), 20);
        let (f2, r2) = dumbbell(&mut sim, 5e6, SimDuration::from_millis(60), 20);
        let conn = ConnectionSpec::new(Algorithm::Olia)
            .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
            .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
            .with_size_packets(500)
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(60.0));
        assert!(conn.handle.completion_time().is_some(), "flow must finish");
        let (app, high_water) = conn.handle.app_delivery();
        assert_eq!(app, 500, "application must receive every packet in order");
        assert!(
            high_water > 0,
            "RTT-asymmetric paths must have exercised the reorder buffer"
        );
    }

    #[test]
    fn app_delivery_lags_subflow_delivery_under_asymmetry() {
        // Mid-transfer, connection-order delivery trails the per-subflow
        // in-order total whenever the slow path holds back the stream.
        let mut sim = Simulation::new(22);
        let (f1, r1) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(5), 100);
        let (f2, r2) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(80), 100);
        let conn = ConnectionSpec::new(Algorithm::Olia)
            .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
            .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(20.0));
        let (app, _) = conn.handle.app_delivery();
        let delivered = conn.handle.read(|s| s.delivered_packets);
        assert!(app <= delivered);
        assert!(app > 0, "application must make progress");
    }

    #[test]
    #[should_panic(expected = "no paths")]
    fn empty_spec_panics() {
        let mut sim = Simulation::new(0);
        ConnectionSpec::new(Algorithm::Reno).install(&mut sim, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(11);
            let (fwd, rev) = dumbbell(&mut sim, 10e6, SimDuration::from_millis(40), 30);
            let conn = ConnectionSpec::new(Algorithm::Olia)
                .with_path(PathSpec::new(route(&[fwd]), route(&[rev])))
                .install(&mut sim, 0);
            sim.start_endpoint_at(conn.source, SimTime::ZERO);
            sim.run_until(SimTime::from_secs_f64(10.0));
            conn.handle.read(|s| s.delivered_packets)
        };
        assert_eq!(run(), run());
    }
}
