//! Flow-level k-ary FatTree: the §VI-B topology at population scale.
//!
//! Link ids mirror `topo::FatTree`'s queue layout (per host up/down, per
//! edge switch k/2 ups then k/2 downs, per pod (k/2)² ups then (k/2)²
//! downs), so a route here crosses the same sequence of capacity
//! constraints as the packet backend's forward route. Only forward links
//! are modeled: ACK-path congestion is outside the flow model's fidelity
//! boundary.

use eventsim::{SimDuration, SimRng, SimTime};
use fluid::rates::RateRule;
use metrics::jain_index;
use mpsim_core::Algorithm;
use trace::{DigestSink, Tracer};
use workload::{heavytail_churn_plan, permutation_traffic, HeavyTailMix};

use crate::net::{FlowNet, LinkId};
use crate::sim::{FlowId, FlowPath, FlowSim, FlowSimConfig, FlowSpec};

/// FatTree build parameters (flow-level twin of `topo::FatTreeConfig`).
#[derive(Debug, Clone, Copy)]
pub struct FlowFatTreeConfig {
    /// Host line rate, Mb/s.
    pub rate_mbps: f64,
    /// Core links run at `rate / oversubscription`.
    pub oversubscription: f64,
    /// Path round-trip time (the packet backend's data-center RTT scale).
    pub rtt: SimDuration,
}

impl Default for FlowFatTreeConfig {
    fn default() -> Self {
        FlowFatTreeConfig {
            rate_mbps: 100.0,
            oversubscription: 1.0,
            rtt: SimDuration::from_millis(2),
        }
    }
}

/// A built flow-level FatTree (capacity table + id arithmetic).
#[derive(Debug, Clone, Copy)]
pub struct FlowFatTree {
    k: usize,
    host_base: u32,
    edge_base: u32,
    pod_base: u32,
    rtt: SimDuration,
}

impl FlowFatTree {
    /// Add a `k`-ary FatTree's links to `net` (`k` even, ≥ 4).
    pub fn build(net: &mut FlowNet, k: usize, cfg: &FlowFatTreeConfig) -> FlowFatTree {
        assert!(
            k >= 4 && k.is_multiple_of(2),
            "k must be even and ≥ 4, got {k}"
        );
        let half = k / 2;
        let hosts = k * half * half;
        let edges = k * half;
        let core_rate = cfg.rate_mbps / cfg.oversubscription;
        let host_base = net.add_link_block_mbps(2 * hosts, cfg.rate_mbps);
        let edge_base = net.add_link_block_mbps(edges * k, core_rate);
        let pod_base = net.add_link_block_mbps(2 * k * half * half, core_rate);
        FlowFatTree {
            k,
            host_base: host_base.0,
            edge_base: edge_base.0,
            pod_base: pod_base.0,
            rtt: cfg.rtt,
        }
    }

    /// Number of hosts (`k³/4`).
    pub fn num_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
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

    #[expect(
        clippy::cast_possible_truncation,
        reason = "`base + off` is a link of a block `build` added, whose ids `FlowNet::add_link_pps` bounds to u32"
    )]
    fn link(base: u32, off: usize) -> LinkId {
        LinkId(base + off as u32)
    }

    fn host_up(&self, host: usize) -> LinkId {
        Self::link(self.host_base, 2 * host)
    }

    fn host_down(&self, host: usize) -> LinkId {
        Self::link(self.host_base, 2 * host + 1)
    }

    fn edge_agg_up(&self, edge: usize, j: usize) -> LinkId {
        Self::link(self.edge_base, edge * self.k + j)
    }

    fn agg_edge_down(&self, edge: usize, j: usize) -> LinkId {
        Self::link(self.edge_base, edge * self.k + self.half() + j)
    }

    fn agg_core_up(&self, pod: usize, j: usize, c: usize) -> LinkId {
        let half = self.half();
        Self::link(self.pod_base, pod * 2 * half * half + j * half + c)
    }

    fn core_agg_down(&self, pod: usize, j: usize, c: usize) -> LinkId {
        let half = self.half();
        Self::link(
            self.pod_base,
            pod * 2 * half * half + half * half + j * half + c,
        )
    }

    /// Number of distinct forward paths between two hosts.
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

    /// The `choice`-th forward route from `src` to `dst` (same selection
    /// arithmetic as the packet backend's `route_pair`).
    pub fn route(&self, src: usize, dst: usize, choice: usize) -> Vec<LinkId> {
        assert!(
            choice < self.num_paths(src, dst),
            "path choice out of range"
        );
        let (se, de) = (self.edge_of(src), self.edge_of(dst));
        let (sp, dp) = (self.pod_of(src), self.pod_of(dst));
        let half = self.half();
        if se == de {
            return vec![self.host_up(src), self.host_down(dst)];
        }
        if sp == dp {
            let j = choice;
            return vec![
                self.host_up(src),
                self.edge_agg_up(se, j),
                self.agg_edge_down(de, j),
                self.host_down(dst),
            ];
        }
        let (j, c) = (choice / half, choice % half);
        vec![
            self.host_up(src),
            self.edge_agg_up(se, j),
            self.agg_core_up(sp, j, c),
            self.core_agg_down(dp, j, c),
            self.agg_edge_down(de, j),
            self.host_down(dst),
        ]
    }

    /// Sample `n` distinct path choices (with replacement once distinct
    /// paths run out), as MPTCP's per-subflow ECMP does.
    pub fn sample_routes(
        &self,
        src: usize,
        dst: usize,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<Vec<LinkId>> {
        let total = self.num_paths(src, dst);
        let mut choices: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut choices);
        (0..n)
            .map(|i| {
                let c = if i < total {
                    choices[i]
                } else {
                    choices[rng.below(total)]
                };
                self.route(src, dst, c)
            })
            .collect()
    }

    /// Install a connection from `src` to `dst` with `subflows` subflows
    /// on sampled paths. The flow is not started.
    #[expect(
        clippy::too_many_arguments,
        reason = "the flow-level twin of topo's FatTree::connect: endpoints, algorithm, size, RNG and id are all independent"
    )]
    pub fn connect(
        &self,
        sim: &mut FlowSim,
        src: usize,
        dst: usize,
        algorithm: Algorithm,
        subflows: usize,
        size_pkts: Option<u64>,
        rng: &mut SimRng,
        conn: u64,
    ) -> FlowId {
        assert!(subflows >= 1, "need at least one subflow");
        let paths = self
            .sample_routes(src, dst, subflows, rng)
            .into_iter()
            .map(|links| FlowPath {
                links,
                rtt: self.rtt,
            })
            .collect();
        sim.add_flow(FlowSpec {
            conn,
            rule: RateRule::from_algorithm(algorithm),
            paths,
            size_pkts,
        })
    }
}

/// One flow-level Fig. 13 measurement point.
#[derive(Debug, Clone)]
pub struct FlowPermutationResult {
    /// Aggregate goodput as a percentage of all-hosts-at-line-rate.
    pub throughput_pct: f64,
    /// Jain fairness over per-flow goodput percentages.
    pub jain: f64,
    /// FNV-1a digest of the run's trace (determinism witness).
    pub digest: u64,
    /// Trace events folded into the digest.
    pub trace_events: u64,
}

/// Flow-level permutation experiment: every host sends one long-lived
/// flow to a distinct host. Mirrors the packet harness's protocol — same
/// workload RNG stream (`seed ^ 0xFA77`), same 0.2 s start jitter, warmup
/// for the first third of `dur`, measure over the rest.
pub fn permutation(
    k: usize,
    algorithm: Algorithm,
    subflows: usize,
    dur: SimDuration,
    seed: u64,
    ftcfg: &FlowFatTreeConfig,
    simcfg: FlowSimConfig,
) -> FlowPermutationResult {
    let mut net = FlowNet::new();
    let ft = FlowFatTree::build(&mut net, k, ftcfg);
    let n = ft.num_hosts();
    let mut sim = FlowSim::new(net, simcfg);
    let (tracer, sink) = Tracer::to_sink(DigestSink::new());
    sim.set_tracer(tracer);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xFA77);
    let perm = permutation_traffic(&mut rng, n);
    let flows: Vec<FlowId> = (0..n)
        .map(|h| {
            ft.connect(
                &mut sim, h, perm[h], algorithm, subflows, None, &mut rng, h as u64,
            )
        })
        .collect();
    for &f in &flows {
        let jitter = SimDuration::from_secs_f64(rng.f64() * 0.2);
        sim.start_at(f, SimTime::ZERO + jitter);
    }
    let warmup_end = SimTime::ZERO + SimDuration::from_secs_f64(dur.as_secs_f64() / 3.0);
    sim.run_until(warmup_end);
    let marks = crate::scenarios::snapshot_delivered(&sim, &flows);
    sim.run_until(SimTime::ZERO + dur);
    let window = dur.as_secs_f64() - dur.as_secs_f64() / 3.0;
    let line_rate_mbps = ftcfg.rate_mbps;
    let pct: Vec<f64> = flows
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let pps = (sim.delivered_pkts(f) - marks[i]).max(0.0) / window;
            crate::net::pps_to_mbps(pps) / line_rate_mbps * 100.0
        })
        .collect();
    let total = pct.iter().sum::<f64>() / n as f64;
    let jain = jain_index(&pct);
    let s = sink.borrow();
    FlowPermutationResult {
        throughput_pct: total,
        jain,
        digest: s.digest(),
        trace_events: s.events(),
    }
}

/// Parameters of the population-scale churn experiment.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// FatTree arity.
    pub k: usize,
    /// Long-lived resident connections installed up front (the measured
    /// concurrent population).
    pub resident: usize,
    /// Rate-coupling algorithm for every connection.
    pub algorithm: Algorithm,
    /// Subflows per connection.
    pub subflows: usize,
    /// Mean per-host gap between churn arrivals.
    pub mean_gap: SimDuration,
    /// Simulated horizon; churn arrivals stop here.
    pub horizon: SimDuration,
    /// Workload seed.
    pub seed: u64,
}

/// Outcome of a [`heavytail_churn`] run.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Long-lived connections installed.
    pub resident: usize,
    /// Finite churn flows planned (Poisson arrivals, heavy-tailed sizes).
    pub planned_churn: usize,
    /// Flows that began sending.
    pub started: u64,
    /// Finite flows that delivered their full size.
    pub completed: u64,
    /// High-water mark of concurrently active flows.
    pub peak_active: usize,
    /// Events plus completions processed.
    pub events: u64,
    /// Allocator recomputes performed.
    pub recomputes: u64,
    /// FNV-1a digest of the run's trace (completions; plus rate updates
    /// when the config traces them).
    pub digest: u64,
    /// Trace events folded into the digest.
    pub trace_events: u64,
}

/// The population-scale experiment the packet backend cannot run: install
/// the [`install_churn`] workload and run it to the horizon.
pub fn heavytail_churn(
    p: &ChurnParams,
    ftcfg: &FlowFatTreeConfig,
    simcfg: FlowSimConfig,
) -> ChurnResult {
    let mut net = FlowNet::new();
    let ft = FlowFatTree::build(&mut net, p.k, ftcfg);
    let mut sim = FlowSim::new(net, simcfg);
    let (tracer, sink) = Tracer::to_sink(DigestSink::new());
    sim.set_tracer(tracer);
    let planned_churn = install_churn(&mut sim, &ft, p);
    sim.run_until(SimTime::ZERO + p.horizon);
    let s = sink.borrow();
    ChurnResult {
        resident: p.resident,
        planned_churn,
        started: sim.started_flows(),
        completed: sim.completed_flows(),
        peak_active: sim.peak_active(),
        events: sim.events_processed(),
        recomputes: sim.recomputes(),
        digest: s.digest(),
        trace_events: s.events(),
    }
}

/// Install the churn experiment's workload on `sim` without running it:
/// `resident` long-lived MPTCP connections over repeated permutation
/// patterns, then Poisson churn with `workload::HeavyTailMix` sizes up to
/// the horizon, all drawn from one RNG stream seeded `p.seed ^ 0x5CA1E`.
/// Returns the number of churn flows planned.
pub fn install_churn(sim: &mut FlowSim, ft: &FlowFatTree, p: &ChurnParams) -> usize {
    let hosts = ft.num_hosts();
    assert!(hosts >= 2, "need at least two hosts");
    let mut rng = SimRng::seed_from_u64(p.seed ^ 0x5CA1E);

    // Resident population: repeated random permutations until the target,
    // starts jittered across the first simulated second.
    let mut conn = 0u64;
    let mut resident = 0usize;
    while resident < p.resident {
        let perm = permutation_traffic(&mut rng, hosts);
        for (h, &dst) in perm.iter().enumerate() {
            if resident >= p.resident {
                break;
            }
            let f = ft.connect(sim, h, dst, p.algorithm, p.subflows, None, &mut rng, conn);
            let jitter = SimDuration::from_secs_f64(rng.f64());
            sim.start_at(f, SimTime::ZERO + jitter);
            conn += 1;
            resident += 1;
        }
    }

    // Churn overlay: every host emits heavy-tailed finite flows to a fixed
    // far-away destination at Poisson instants.
    let senders: Vec<usize> = (0..hosts).collect();
    let dests: Vec<usize> = (0..hosts).map(|h| (h + hosts / 2) % hosts).collect();
    let plan = heavytail_churn_plan(
        &mut rng,
        &senders,
        &dests,
        &HeavyTailMix::default(),
        p.mean_gap.as_secs_f64(),
        p.horizon.as_secs_f64(),
    );
    for spec in &plan {
        let f = ft.connect(
            sim,
            spec.src,
            spec.dst,
            p.algorithm,
            p.subflows,
            Some(spec.size_packets),
            &mut rng,
            conn,
        );
        sim.start_at(f, SimTime::ZERO + SimDuration::from_secs_f64(spec.start_s));
        conn += 1;
    }
    plan.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_mirror_the_packet_id_arithmetic() {
        let mut net = FlowNet::new();
        let ft = FlowFatTree::build(&mut net, 4, &FlowFatTreeConfig::default());
        assert_eq!(ft.num_hosts(), 16);
        // 3k³/2 links for k=4: 96.
        assert_eq!(net.len(), 96);
        // Same-edge pair: exactly host up + host down.
        let r = ft.route(0, 1, 0);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].index(), 0); // host 0 up
        assert_eq!(r[1].index(), 3); // host 1 down
                                     // Cross-pod pair: 6 hops, (k/2)² = 4 choices.
        assert_eq!(ft.num_paths(0, 15), 4);
        let r = ft.route(0, 15, 3);
        assert_eq!(r.len(), 6);
        // Distinct choices use distinct core links.
        let a = ft.route(0, 15, 0);
        let b = ft.route(0, 15, 1);
        assert_ne!(a[2], b[2], "different aggregation/core choice");
    }

    #[test]
    fn permutation_is_deterministic_and_fair() {
        let cfg = FlowFatTreeConfig::default();
        let run = || {
            permutation(
                4,
                Algorithm::Olia,
                2,
                SimDuration::from_secs(6),
                11,
                &cfg,
                FlowSimConfig::default(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.digest, b.digest, "same seed, same digest");
        assert_eq!(a.trace_events, b.trace_events);
        assert!(a.throughput_pct > 20.0, "got {:.1}%", a.throughput_pct);
        assert!(a.throughput_pct <= 100.0 + 1e-9);
        assert!(a.jain > 0.5 && a.jain <= 1.0 + 1e-9, "jain {:.3}", a.jain);
    }

    #[test]
    fn churn_conserves_flows() {
        let p = ChurnParams {
            k: 4,
            resident: 32,
            algorithm: Algorithm::Olia,
            subflows: 2,
            mean_gap: SimDuration::from_millis(500),
            horizon: SimDuration::from_secs(4),
            seed: 3,
        };
        let cfg = FlowFatTreeConfig::default();
        let r = heavytail_churn(&p, &cfg, FlowSimConfig::large_scale());
        assert_eq!(r.resident, 32);
        assert!(r.planned_churn > 0);
        assert_eq!(r.started, (r.resident + r.planned_churn) as u64);
        // Only finite churn flows can complete.
        assert!(r.completed <= r.planned_churn as u64);
        // Most short flows should finish within the horizon.
        assert!(
            r.completed * 2 >= r.planned_churn as u64,
            "completed {} of {}",
            r.completed,
            r.planned_churn
        );
        assert!(r.peak_active >= r.resident);
        assert!(r.recomputes > 0 && r.events > 0);
        // Determinism at scale settings too.
        let r2 = heavytail_churn(&p, &cfg, FlowSimConfig::large_scale());
        assert_eq!(r.digest, r2.digest);
    }
}
