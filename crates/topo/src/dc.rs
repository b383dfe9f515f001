//! The k-ary FatTree data center of §VI-B (Figs. 13/14, Table III).
//!
//! Structure for even `k`: `k` pods, each with `k/2` edge switches and `k/2`
//! aggregation switches; each edge switch serves `k/2` hosts; `(k/2)²` core
//! switches. `k = 8` gives the paper's 128 hosts and 80 switches.
//!
//! Every link direction is one `netsim` queue. A path between hosts in
//! different pods is determined by the pair `(j, c)`: the aggregation index
//! inside the pod and the core switch within that aggregation group —
//! `(k/2)²` distinct core paths per host pair, which is what MPTCP's
//! subflows spread over (per-subflow ECMP).
//!
//! # Streamed build
//!
//! The build is *lazy*: [`FatTree::build`] reserves three contiguous queue
//! blocks (host tier, edge↔aggregation tier, aggregation↔core tier) without
//! constructing a single queue — `3k³/2` queues at k=32 is ~50k, and a
//! permutation workload touches only the paths actually routed over. Queue
//! ids are assigned arithmetically within each block, in exactly the order
//! the old eager loop assigned them, so lazy and eager builds produce
//! byte-identical trace digests. The `FatTree` value itself shrinks from
//! O(k³) id tables to four words.

use eventsim::{SimDuration, SimRng};
use mpsim_core::Algorithm;
use netsim::{route, QueueConfig, QueueId, Route, Simulation};
use tcpsim::{Connection, ConnectionSpec, PathSpec, TcpConfig};

/// A built FatTree: dimensions plus arithmetic id/path enumeration.
#[derive(Debug, Clone, Copy)]
pub struct FatTree {
    k: usize,
    /// First id of the host-tier block: `host_up(h) = host_base + 2h`,
    /// `host_down(h) = host_base + 2h + 1`.
    host_base: QueueId,
    /// First id of the edge↔agg block: per edge switch `e`, `k/2` up queues
    /// then `k/2` down queues.
    edge_base: QueueId,
    /// First id of the agg↔core block: per pod, `(k/2)²` up queues
    /// (aggregation-major) then `(k/2)²` down queues.
    pod_base: QueueId,
}

/// Configuration of the FatTree links.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeConfig {
    /// Host link rate, bits/s (the paper: 100 Mb/s).
    pub rate_bps: f64,
    /// Per-queue propagation delay.
    pub latency: SimDuration,
    /// Drop-tail buffer, packets (htsim-style: 100).
    pub buffer_pkts: usize,
    /// Oversubscription factor: edge→agg and agg→core links run at
    /// `rate/oversub` (1 = non-oversubscribed; 4 = the paper's 4:1 short-flow
    /// scenario).
    pub oversubscription: f64,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig {
            rate_bps: 100e6,
            latency: SimDuration::from_micros(20),
            buffer_pkts: 100,
            oversubscription: 1.0,
        }
    }
}

impl FatTree {
    /// Build a `k`-ary FatTree (`k` even, ≥ 4) inside `sim`.
    ///
    /// Streamed: reserves the three tier blocks without constructing any
    /// queue; each queue materializes on the first packet (or fault) that
    /// touches it. Use [`build_eager`](Self::build_eager) to force full
    /// construction up front.
    pub fn build(sim: &mut Simulation, k: usize, cfg: &FatTreeConfig) -> FatTree {
        assert!(
            k >= 4 && k.is_multiple_of(2),
            "k must be even and ≥ 4, got {k}"
        );
        let half = k / 2;
        let hosts = k * half * half;
        let edges = k * half;
        let core_rate = cfg.rate_bps / cfg.oversubscription;
        let host_cfg = QueueConfig::drop_tail(cfg.rate_bps, cfg.latency, cfg.buffer_pkts);
        let core_cfg = QueueConfig::drop_tail(core_rate, cfg.latency, cfg.buffer_pkts);
        // Id layout replicates the old eager construction order exactly
        // (digest-compatible): per host up then down; per edge switch k/2
        // ups then k/2 downs; per pod (k/2)² ups then (k/2)² downs.
        let host_base = sim.reserve_queue_block(2 * hosts, host_cfg);
        let edge_base = sim.reserve_queue_block(edges * k, core_cfg);
        let pod_base = sim.reserve_queue_block(2 * k * half * half, core_cfg);
        FatTree {
            k,
            host_base,
            edge_base,
            pod_base,
        }
    }

    /// Build with every queue constructed immediately (the pre-streaming
    /// behavior). Ids, routes, and trace digests are identical to
    /// [`build`](Self::build); only construction timing differs.
    pub fn build_eager(sim: &mut Simulation, k: usize, cfg: &FatTreeConfig) -> FatTree {
        let ft = FatTree::build(sim, k, cfg);
        sim.materialize_queues();
        ft
    }

    /// Number of hosts (`k³/4`).
    pub fn num_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Number of switches (`5k²/4` — the paper's 80 for k=8).
    pub fn num_switches(&self) -> usize {
        self.k * self.k + self.k * self.k / 4
    }

    /// Total queues across the three tier blocks (`3k³/2`).
    pub fn num_queues(&self) -> usize {
        3 * self.k * self.k * self.k / 2
    }

    /// Host `h`'s uplink queue (host → edge switch).
    pub fn host_up(&self, host: usize) -> QueueId {
        debug_assert!(host < self.num_hosts());
        self.host_base.offset(2 * host)
    }

    /// Host `h`'s downlink queue (edge switch → host).
    pub fn host_down(&self, host: usize) -> QueueId {
        debug_assert!(host < self.num_hosts());
        self.host_base.offset(2 * host + 1)
    }

    fn edge_agg_up(&self, edge: usize, j: usize) -> QueueId {
        self.edge_base.offset(edge * self.k + j)
    }

    fn agg_edge_down(&self, edge: usize, j: usize) -> QueueId {
        self.edge_base.offset(edge * self.k + self.half() + j)
    }

    fn agg_core_up(&self, pod: usize, j: usize, c: usize) -> QueueId {
        let half = self.half();
        self.pod_base.offset(pod * 2 * half * half + j * half + c)
    }

    fn core_agg_down(&self, pod: usize, j: usize, c: usize) -> QueueId {
        let half = self.half();
        self.pod_base
            .offset(pod * 2 * half * half + half * half + j * half + c)
    }

    /// All aggregation→core and core→aggregation queues — the network core,
    /// whose mean utilization Table III reports. Arithmetic iterator: no
    /// O(k³) id vector is materialized (the block is contiguous).
    pub fn core_queues(&self) -> impl Iterator<Item = QueueId> + use<> {
        let n = 2 * self.k * self.half() * self.half();
        let base = self.pod_base;
        (0..n).map(move |i| base.offset(i))
    }

    /// All host access queues (ups and downs interleaved, in host order),
    /// for utilization accounting. Arithmetic iterator, like
    /// [`core_queues`](Self::core_queues).
    pub fn host_queues(&self) -> impl Iterator<Item = QueueId> + use<> {
        let n = 2 * self.num_hosts();
        let base = self.host_base;
        (0..n).map(move |i| base.offset(i))
    }

    fn half(&self) -> usize {
        self.k / 2
    }

    fn pod_of(&self, host: usize) -> usize {
        host / (self.half() * self.half())
    }

    fn edge_of(&self, host: usize) -> usize {
        host / self.half()
    }

    /// Number of distinct paths between two hosts: 1 same-edge, `k/2`
    /// same-pod, `(k/2)²` cross-pod.
    pub fn num_paths(&self, src: usize, dst: usize) -> usize {
        assert_ne!(src, dst, "src == dst");
        if self.edge_of(src) == self.edge_of(dst) {
            1
        } else if self.pod_of(src) == self.pod_of(dst) {
            self.half()
        } else {
            self.half() * self.half()
        }
    }

    /// The `choice`-th forward/reverse route pair between `src` and `dst`.
    ///
    /// For cross-pod pairs, `choice = j·(k/2) + c` selects aggregation `j`
    /// and core `c`; the reverse route mirrors the same switches.
    pub fn route_pair(&self, src: usize, dst: usize, choice: usize) -> (Route, Route) {
        assert!(
            choice < self.num_paths(src, dst),
            "path choice out of range"
        );
        let (se, de) = (self.edge_of(src), self.edge_of(dst));
        let (sp, dp) = (self.pod_of(src), self.pod_of(dst));
        let half = self.half();
        if se == de {
            return (
                route(&[self.host_up(src), self.host_down(dst)]),
                route(&[self.host_up(dst), self.host_down(src)]),
            );
        }
        if sp == dp {
            let j = choice;
            let fwd = route(&[
                self.host_up(src),
                self.edge_agg_up(se, j),
                self.agg_edge_down(de, j),
                self.host_down(dst),
            ]);
            let rev = route(&[
                self.host_up(dst),
                self.edge_agg_up(de, j),
                self.agg_edge_down(se, j),
                self.host_down(src),
            ]);
            return (fwd, rev);
        }
        let (j, c) = (choice / half, choice % half);
        let fwd = route(&[
            self.host_up(src),
            self.edge_agg_up(se, j),
            self.agg_core_up(sp, j, c),
            self.core_agg_down(dp, j, c),
            self.agg_edge_down(de, j),
            self.host_down(dst),
        ]);
        let rev = route(&[
            self.host_up(dst),
            self.edge_agg_up(de, j),
            self.agg_core_up(dp, j, c),
            self.core_agg_down(sp, j, c),
            self.agg_edge_down(se, j),
            self.host_down(src),
        ]);
        (fwd, rev)
    }

    /// Sample `n` distinct path choices (without replacement where
    /// possible), as MPTCP's per-subflow ECMP does.
    pub fn sample_paths(
        &self,
        src: usize,
        dst: usize,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<(Route, Route)> {
        let total = self.num_paths(src, dst);
        let mut choices: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut choices);
        (0..n)
            .map(|i| {
                // With replacement once distinct paths run out.
                let c = if i < total {
                    choices[i]
                } else {
                    choices[rng.below(total)]
                };
                self.route_pair(src, dst, c)
            })
            .collect()
    }

    /// Install a connection from `src` to `dst` with `subflows` subflows on
    /// randomly sampled distinct paths.
    #[expect(
        clippy::too_many_arguments,
        reason = "the endpoints, algorithm, size, config, RNG and id of one connection are all independent"
    )]
    pub fn connect(
        &self,
        sim: &mut Simulation,
        src: usize,
        dst: usize,
        algorithm: Algorithm,
        subflows: usize,
        size_packets: Option<u64>,
        config: TcpConfig,
        rng: &mut SimRng,
        conn_id: u64,
    ) -> Connection {
        assert!(subflows >= 1, "need at least one subflow");
        let paths = self.sample_paths(src, dst, subflows, rng);
        let mut spec = ConnectionSpec::new(algorithm).with_config(config);
        for (fwd, rev) in paths {
            spec = spec.with_path(PathSpec::new(fwd, rev));
        }
        if let Some(n) = size_packets {
            spec = spec.with_size_packets(n);
        }
        let conn = spec.install(sim, conn_id);
        // Re-derive event/arena/timer capacity from the grown endpoint set;
        // incremental calls only reserve the delta.
        sim.preallocate();
        conn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::SimTime;
    use proptest::prelude::*;

    fn tree(k: usize) -> (Simulation, FatTree) {
        let mut sim = Simulation::new(1);
        let ft = FatTree::build(&mut sim, k, &FatTreeConfig::default());
        (sim, ft)
    }

    #[test]
    fn paper_dimensions_k8() {
        let (sim, ft) = tree(8);
        assert_eq!(ft.num_hosts(), 128);
        assert_eq!(ft.num_switches(), 80);
        assert_eq!(ft.num_queues(), 768);
        assert_eq!(sim.queue_count(), 768);
    }

    #[test]
    fn build_is_lazy_and_eager_build_is_not() {
        let (sim, _) = tree(8);
        assert_eq!(
            sim.queues_materialized(),
            0,
            "streamed build constructs nothing"
        );
        let mut sim2 = Simulation::new(1);
        let _ = FatTree::build_eager(&mut sim2, 8, &FatTreeConfig::default());
        assert_eq!(sim2.queues_materialized(), 768);
    }

    #[test]
    fn path_counts() {
        let (_, ft) = tree(4);
        // k=4: 16 hosts, 2 hosts/edge, 4 hosts/pod.
        assert_eq!(ft.num_paths(0, 1), 1); // same edge
        assert_eq!(ft.num_paths(0, 2), 2); // same pod, different edge
        assert_eq!(ft.num_paths(0, 4), 4); // cross-pod
    }

    #[test]
    fn routes_have_expected_lengths() {
        let (_, ft) = tree(4);
        let (f, r) = ft.route_pair(0, 1, 0);
        assert_eq!((f.len(), r.len()), (2, 2));
        let (f, r) = ft.route_pair(0, 2, 1);
        assert_eq!((f.len(), r.len()), (4, 4));
        let (f, r) = ft.route_pair(0, 5, 3);
        assert_eq!((f.len(), r.len()), (6, 6));
    }

    #[test]
    fn queue_ids_match_the_legacy_eager_layout() {
        // The arithmetic id scheme must reproduce the old table-driven
        // construction order exactly: per host up/down interleaved, then
        // per edge switch k/2 ups + k/2 downs, then per pod (k/2)² ups +
        // (k/2)² downs. Trace digests depend on these ids.
        let (_, ft) = tree(4);
        assert_eq!(ft.host_up(0).index(), 0);
        assert_eq!(ft.host_down(0).index(), 1);
        assert_eq!(ft.host_up(15).index(), 30);
        assert_eq!(ft.host_down(15).index(), 31);
        // Edge tier starts right after 2·16 host queues.
        assert_eq!(ft.edge_agg_up(0, 0).index(), 32);
        assert_eq!(ft.edge_agg_up(0, 1).index(), 33);
        assert_eq!(ft.agg_edge_down(0, 0).index(), 34);
        assert_eq!(ft.edge_agg_up(1, 0).index(), 36);
        // Pod tier after 8 edges × 4 queues.
        assert_eq!(ft.agg_core_up(0, 0, 0).index(), 64);
        assert_eq!(ft.agg_core_up(0, 1, 0).index(), 66);
        assert_eq!(ft.core_agg_down(0, 0, 0).index(), 68);
        assert_eq!(ft.agg_core_up(1, 0, 0).index(), 72);
        assert_eq!(ft.num_queues(), 96);
    }

    #[test]
    fn cross_pod_choices_are_distinct() {
        let (_, ft) = tree(4);
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..ft.num_paths(0, 15) {
            let (f, _) = ft.route_pair(0, 15, c);
            assert!(seen.insert(f.to_vec()), "duplicate path for choice {c}");
        }
    }

    #[test]
    fn sample_paths_without_replacement_first() {
        let (_, ft) = tree(4);
        let mut rng = SimRng::seed_from_u64(3);
        let paths = ft.sample_paths(0, 5, 4, &mut rng);
        let mut set = std::collections::BTreeSet::new();
        for (f, _) in &paths {
            assert!(set.insert(f.to_vec()), "distinct while available");
        }
        // Requesting more than available falls back to reuse but still works.
        let more = ft.sample_paths(0, 1, 3, &mut rng);
        assert_eq!(more.len(), 3);
    }

    #[test]
    fn core_and_host_iterators_cover_their_blocks() {
        let (_, ft) = tree(4);
        let core: Vec<_> = ft.core_queues().collect();
        assert_eq!(core.len(), 2 * 4 * 2 * 2);
        assert_eq!(core[0], ft.agg_core_up(0, 0, 0));
        assert_eq!(*core.last().unwrap(), ft.core_agg_down(3, 1, 1));
        let hostq: Vec<_> = ft.host_queues().collect();
        assert_eq!(hostq.len(), 32);
        assert_eq!(hostq[0], ft.host_up(0));
        assert_eq!(hostq[1], ft.host_down(0));
    }

    #[test]
    fn end_to_end_flow_crosses_the_tree() {
        let mut sim = Simulation::new(5);
        let ft = FatTree::build(&mut sim, 4, &FatTreeConfig::default());
        let mut rng = SimRng::seed_from_u64(1);
        let conn = ft.connect(
            &mut sim,
            0,
            4,
            Algorithm::Olia,
            4,
            None,
            TcpConfig::default(),
            &mut rng,
            0,
        );
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(3.0));
        // A lone 4-subflow flow across the fabric should approach the host
        // link rate (100 Mb/s).
        let goodput = conn.handle.goodput_mbps(sim.now());
        assert!(goodput > 60.0, "goodput {goodput} Mb/s");
        // Queues materialize as a prefix up to the highest id touched; a
        // flow into pod 1 never touches pods 2-3's aggregation/core queues.
        assert!(sim.queues_materialized() < sim.queue_count());
    }

    #[test]
    fn lazy_and_eager_fattree_runs_are_identical() {
        let run = |eager: bool| {
            let mut sim = Simulation::new(5);
            let cfg = FatTreeConfig::default();
            let ft = if eager {
                FatTree::build_eager(&mut sim, 4, &cfg)
            } else {
                FatTree::build(&mut sim, 4, &cfg)
            };
            let mut rng = SimRng::seed_from_u64(1);
            let conn = ft.connect(
                &mut sim,
                0,
                15,
                Algorithm::Olia,
                4,
                None,
                TcpConfig::default(),
                &mut rng,
                0,
            );
            sim.start_endpoint_at(conn.source, SimTime::ZERO);
            sim.run_until(SimTime::from_secs_f64(2.0));
            let stats: Vec<_> = ft.core_queues().map(|q| sim.queue_stats(q)).collect();
            (conn.handle.goodput_mbps(sim.now()), stats)
        };
        let (g_lazy, s_lazy) = run(false);
        let (g_eager, s_eager) = run(true);
        assert_eq!(g_lazy.to_bits(), g_eager.to_bits());
        assert_eq!(s_lazy, s_eager);
    }

    #[test]
    fn oversubscription_reduces_core_capacity() {
        let mut sim = Simulation::new(5);
        let cfg = FatTreeConfig {
            oversubscription: 4.0,
            ..FatTreeConfig::default()
        };
        let ft = FatTree::build(&mut sim, 4, &cfg);
        let mut rng = SimRng::seed_from_u64(1);
        let conn = ft.connect(
            &mut sim,
            0,
            15,
            Algorithm::Reno,
            1,
            None,
            TcpConfig::default(),
            &mut rng,
            0,
        );
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(3.0));
        let goodput = conn.handle.goodput_mbps(sim.now());
        // Single path capped by the 25 Mb/s core links.
        assert!(goodput < 26.0, "goodput {goodput} Mb/s");
        assert!(goodput > 15.0, "goodput {goodput} Mb/s");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_rejected() {
        let mut sim = Simulation::new(0);
        FatTree::build(&mut sim, 5, &FatTreeConfig::default());
    }

    proptest! {
        /// Forward and reverse routes always start at the right host links
        /// and are symmetric in length.
        #[test]
        fn prop_route_endpoints(src in 0usize..16, dst in 0usize..16) {
            prop_assume!(src != dst);
            let (_, ft) = tree(4);
            for c in 0..ft.num_paths(src, dst) {
                let (f, r) = ft.route_pair(src, dst, c);
                prop_assert_eq!(f.len(), r.len());
                prop_assert_eq!(f.hop(0), ft.host_up(src));
                prop_assert_eq!(f.last().unwrap(), ft.host_down(dst));
                prop_assert_eq!(r.hop(0), ft.host_up(dst));
                prop_assert_eq!(r.last().unwrap(), ft.host_down(src));
            }
        }
    }
}
