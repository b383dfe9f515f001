//! FatTree data-center experiments (§VI-B): permutation throughput
//! (Fig. 13) and the dynamic short-flow setting (Fig. 14 / Table III).

use eventsim::{SimDuration, SimRng, SimTime};
use metrics::{jain_index, Histogram};
use mpsim_core::Algorithm;
use netsim::Simulation;
use tcpsim::{Connection, TcpConfig};
use topo::{FatTree, FatTreeConfig};
use workload::{
    heavytail_churn_plan, long_short_split, permutation_traffic, short_flow_plan, HeavyTailMix,
    SHORT_FLOW_MEAN_GAP_S,
};

/// TCP parameters for the data-center runs: data-center-ish RTO floor (the
/// testbed values of §III would dwarf sub-millisecond fabric RTTs).
pub fn dc_config() -> TcpConfig {
    TcpConfig {
        min_rto: SimDuration::from_millis(200),
        initial_rto: SimDuration::from_millis(250),
        initial_rtt: 0.002,
        ..TcpConfig::default()
    }
}

/// One Fig. 13 measurement point.
#[derive(Debug, Clone)]
pub struct PermutationResult {
    /// Aggregate goodput as a percentage of the all-hosts-at-line-rate
    /// optimum.
    pub throughput_pct: f64,
    /// Per-flow goodput (% of host line rate), ranked ascending —
    /// Fig. 13(b).
    pub ranked_pct: Vec<f64>,
    /// Jain fairness over per-flow goodputs.
    pub jain: f64,
}

/// The `MPTCP_TRACE` label of one [`permutation`] run: the parameters that
/// vary between runs, so each run of one process writes its own file.
pub(crate) fn permutation_label(k: usize, algorithm: Algorithm, subflows: usize) -> String {
    format!(
        "fattree_permutation-k-{k}-{}-subflows-{subflows}",
        algorithm.name()
    )
}

/// Run the §VI-B.1 permutation experiment: every host sends one long-lived
/// flow to a distinct host using `algorithm` with `subflows` subflows.
pub fn permutation(
    k: usize,
    algorithm: Algorithm,
    subflows: usize,
    secs: f64,
    seed: u64,
) -> PermutationResult {
    let mut sim = Simulation::new(seed);
    let label = permutation_label(k, algorithm, subflows);
    let _trace = crate::tracing::attach_from_env(&mut sim, &label, seed);
    permutation_in(&mut sim, k, algorithm, subflows, secs, seed)
}

/// [`permutation`] on a caller-provided simulation, so orchestrated jobs can
/// attach their own tracer (digest capture) before the topology is built.
/// `seed` only salts the workload RNG; the event-loop RNG is the one `sim`
/// was constructed with.
pub fn permutation_in(
    sim: &mut Simulation,
    k: usize,
    algorithm: Algorithm,
    subflows: usize,
    secs: f64,
    seed: u64,
) -> PermutationResult {
    let ft = FatTree::build(sim, k, &FatTreeConfig::default());
    let n = ft.num_hosts();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xFA77);
    let perm = permutation_traffic(&mut rng, n);
    let cfg = dc_config();
    let conns: Vec<Connection> = (0..n)
        .map(|h| {
            ft.connect(
                sim, h, perm[h], algorithm, subflows, None, cfg, &mut rng, h as u64,
            )
        })
        .collect();
    for c in &conns {
        let jitter = SimDuration::from_secs_f64(rng.f64() * 0.2);
        sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
    }
    // Warmup the first third, measure the rest.
    sim.run_until(SimTime::from_secs_f64(secs / 3.0));
    for c in &conns {
        c.handle.reset(sim.now());
    }
    sim.run_until(SimTime::from_secs_f64(secs));
    let now = sim.now();
    let line_rate_mbps = 100.0;
    let mut pct: Vec<f64> = conns
        .iter()
        .map(|c| c.handle.goodput_mbps(now) / line_rate_mbps * 100.0)
        .collect();
    let total: f64 = pct.iter().sum::<f64>() / n as f64;
    let jain = jain_index(&pct);
    pct.sort_by(f64::total_cmp);
    PermutationResult {
        throughput_pct: total,
        ranked_pct: pct,
        jain,
    }
}

/// The long-flow side of the §VI-B.2 dynamic experiment.
#[derive(Debug, Clone, Copy)]
pub enum LongFlows {
    /// Regular TCP (one subflow, random path).
    Tcp,
    /// MPTCP with the given algorithm and subflow count (the paper: 8).
    Mptcp(Algorithm, usize),
}

/// Results of the short-flow experiment (Fig. 14 / Table III).
#[derive(Debug, Clone)]
pub struct ShortFlowResult {
    /// Mean short-flow completion time, milliseconds.
    pub mean_fct_ms: f64,
    /// Standard deviation of completion times, milliseconds.
    pub std_fct_ms: f64,
    /// Mean utilization across the network-core links.
    pub core_utilization: f64,
    /// `(fct_ms_bin_center, density)` PDF points — Fig. 14.
    pub pdf: Vec<(f64, f64)>,
    /// Completed / planned short flows.
    pub completed: usize,
    /// Planned short flows.
    pub planned: usize,
}

/// The `MPTCP_TRACE` label of one [`short_flows`] run (see
/// [`permutation_label`]).
pub(crate) fn short_flows_label(k: usize, long: LongFlows) -> String {
    match long {
        LongFlows::Tcp => format!("fattree_shortflows-k-{k}-long-tcp"),
        LongFlows::Mptcp(alg, n) => {
            format!("fattree_shortflows-k-{k}-long-{}-subflows-{n}", alg.name())
        }
    }
}

/// Run the §VI-B.2 dynamic experiment on a 4:1 oversubscribed `k`-ary
/// FatTree: one-third of hosts send long-lived flows (per `long`), the rest
/// send 70 kB Poisson short flows over regular TCP.
pub fn short_flows(k: usize, long: LongFlows, horizon_s: f64, seed: u64) -> ShortFlowResult {
    let mut sim = Simulation::new(seed);
    let _trace = crate::tracing::attach_from_env(&mut sim, &short_flows_label(k, long), seed);
    short_flows_in(&mut sim, k, long, horizon_s, seed)
}

/// [`short_flows`] on a caller-provided simulation (see [`permutation_in`]).
pub fn short_flows_in(
    sim: &mut Simulation,
    k: usize,
    long: LongFlows,
    horizon_s: f64,
    seed: u64,
) -> ShortFlowResult {
    let ftcfg = FatTreeConfig {
        oversubscription: 4.0,
        ..FatTreeConfig::default()
    };
    let ft = FatTree::build(sim, k, &ftcfg);
    let n = ft.num_hosts();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x54F1);
    let perm = permutation_traffic(&mut rng, n);
    let (long_hosts, short_hosts) = long_short_split(n);
    let cfg = dc_config();

    // Long-lived flows.
    let long_conns: Vec<Connection> = long_hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            let (alg, nsub) = match long {
                LongFlows::Tcp => (Algorithm::Reno, 1),
                LongFlows::Mptcp(a, s) => (a, s),
            };
            ft.connect(sim, h, perm[h], alg, nsub, None, cfg, &mut rng, i as u64)
        })
        .collect();
    for c in &long_conns {
        let jitter = SimDuration::from_secs_f64(rng.f64() * 0.5);
        sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
    }

    // Short flows: planned up front, installed as individual connections.
    let dests: Vec<usize> = short_hosts.iter().map(|&h| perm[h]).collect();
    let plan = short_flow_plan(&mut rng, &short_hosts, &dests, horizon_s);
    let warmup_s = 2.0;
    let short_conns: Vec<(f64, Connection)> = plan
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let conn = ft.connect(
                sim,
                f.src,
                f.dst,
                Algorithm::Reno,
                1,
                Some(f.size_packets),
                cfg,
                &mut rng,
                10_000 + i as u64,
            );
            let at = SimTime::from_secs_f64(warmup_s + f.start_s);
            sim.start_endpoint_at(conn.source, at);
            (f.start_s, conn)
        })
        .collect();

    // Warmup (long flows reach equilibrium), then measure core utilization
    // over the short-flow window.
    sim.run_until(SimTime::from_secs_f64(warmup_s));
    sim.reset_queue_stats();
    let end_s = warmup_s + horizon_s + 3.0; // grace period for stragglers
    sim.run_until(SimTime::from_secs_f64(end_s));

    let mut hist = Histogram::new(10.0, 60); // 10 ms bins to 600 ms
    let mut fcts = Vec::new();
    for (_, conn) in &short_conns {
        if let Some(fct) = conn.handle.completion_time() {
            let ms = fct * 1e3;
            hist.record(ms);
            fcts.push(ms);
        }
    }
    let elapsed_ns = (sim.now() - SimTime::from_secs_f64(warmup_s)).as_nanos();
    let (core_count, core_sum) = ft
        .core_queues()
        .map(|q| sim.queue_stats(q).utilization(elapsed_ns))
        .fold((0usize, 0.0f64), |(n, s), u| (n + 1, s + u));
    let core_utilization = core_sum / core_count as f64;
    ShortFlowResult {
        mean_fct_ms: hist.mean(),
        std_fct_ms: hist.std(),
        core_utilization,
        pdf: hist.pdf(),
        completed: fcts.len(),
        planned: plan.len(),
    }
}

/// Results of the sustained-churn experiment: heavy-tailed flow sizes,
/// Poisson arrivals, and completed connections *retired* as the run
/// progresses, so connection state is destroyed as well as created.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Mean flow completion time over retired flows, milliseconds.
    pub mean_fct_ms: f64,
    /// Flows completed and retired.
    pub completed: usize,
    /// Flows planned.
    pub planned: usize,
    /// Peak concurrently-installed churn connections.
    pub peak_live: usize,
    /// Endpoint-table slots at the end of the run. With retirement and slot
    /// recycling this plateaus near the peak concurrent population instead
    /// of growing with the total flow count — the churn invariant the
    /// recycle tests pin down.
    pub endpoint_slots: usize,
    /// Long-lived background connections (never retired).
    pub long_flows: usize,
    /// Endpoints still installed when the run ended: the long flows plus
    /// any churn flow that never completed. After full retirement this is
    /// exactly `2 × (long_flows + planned − completed)`.
    pub live_at_end: usize,
    /// Ring-pool counters over the run (recycled vs fresh ring requests).
    pub pool: tcpsim::pool::PoolStats,
}

/// Heavy-tailed churn on a 4:1 oversubscribed `k`-ary FatTree: one-third of
/// hosts run long-lived background flows (per `long`), the rest emit
/// Pareto/lognormal-sized flows at Poisson instants. Unlike
/// [`short_flows_in`] — which installs every planned flow up front and keeps
/// them to the end — this driver steps the run in epochs, installing flows
/// as their start times approach and retiring connections once they have
/// been complete for a grace period. Endpoint slots and ring buffers are
/// recycled, so memory follows the *concurrent* population, not the total.
pub fn heavytail_churn_in(
    sim: &mut Simulation,
    k: usize,
    long: LongFlows,
    horizon_s: f64,
    seed: u64,
) -> ChurnResult {
    /// Install/retire cadence. Coarse enough that the event loop dominates,
    /// fine enough that the live set tracks the Poisson arrivals.
    const EPOCH_S: f64 = 0.25;
    /// A completed connection lingers this long before retirement so
    /// stragglers (a duplicate data packet still queued, its re-ACK) drain
    /// to the still-installed endpoints rather than a recycled slot. One
    /// epoch is orders of magnitude above the fabric RTT.
    const RETIRE_GRACE_S: f64 = EPOCH_S;

    let ftcfg = FatTreeConfig {
        oversubscription: 4.0,
        ..FatTreeConfig::default()
    };
    let ft = FatTree::build(sim, k, &ftcfg);
    let n = ft.num_hosts();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC4A2);
    let perm = permutation_traffic(&mut rng, n);
    let (long_hosts, short_hosts) = long_short_split(n);
    let cfg = dc_config();

    // Topology-derived pool prewarm: each churn sender keeps roughly one
    // flow in flight (mean gap 200 ms ≫ the mice's completion times), and a
    // source + sink pair holds two rings. 64 slots covers the in-flight
    // window of everything but the largest elephants.
    tcpsim::pool::prewarm(2 * short_hosts.len(), 64);

    let long_conns: Vec<Connection> = long_hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            let (alg, nsub) = match long {
                LongFlows::Tcp => (Algorithm::Reno, 1),
                LongFlows::Mptcp(a, s) => (a, s),
            };
            ft.connect(sim, h, perm[h], alg, nsub, None, cfg, &mut rng, i as u64)
        })
        .collect();
    for c in &long_conns {
        let jitter = SimDuration::from_secs_f64(rng.f64() * 0.5);
        sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
    }

    let dests: Vec<usize> = short_hosts.iter().map(|&h| perm[h]).collect();
    let mix = HeavyTailMix::default();
    let plan = heavytail_churn_plan(
        &mut rng,
        &short_hosts,
        &dests,
        &mix,
        SHORT_FLOW_MEAN_GAP_S,
        horizon_s,
    );

    let warmup_s = 2.0;
    sim.run_until(SimTime::from_secs_f64(warmup_s));

    let mut next = 0; // first plan entry not yet installed (plan is sorted)
    let mut live: Vec<Connection> = Vec::new();
    let mut fcts: Vec<f64> = Vec::new();
    let mut peak_live = 0;
    let end_s = warmup_s + horizon_s + 3.0; // grace period for stragglers
    let mut t = warmup_s;
    while t < end_s {
        t = (t + EPOCH_S).min(end_s);
        // Install the flows that start within this epoch. Reusing slots
        // retired in earlier epochs keeps the endpoint table at its plateau.
        while next < plan.len() && warmup_s + plan[next].start_s < t {
            let f = &plan[next];
            let conn = ft.connect(
                sim,
                f.src,
                f.dst,
                Algorithm::Reno,
                1,
                Some(f.size_packets),
                cfg,
                &mut rng,
                10_000 + next as u64,
            );
            sim.start_endpoint_at(conn.source, SimTime::from_secs_f64(warmup_s + f.start_s));
            live.push(conn);
            next += 1;
        }
        peak_live = peak_live.max(live.len());
        sim.run_until(SimTime::from_secs_f64(t));
        // Retire connections that completed at least a grace period ago;
        // dropping the returned endpoints sends their rings back to the pool.
        let now = sim.now();
        let mut keep = Vec::with_capacity(live.len());
        for c in live.drain(..) {
            let quiescent = c
                .handle
                .read(|s| s.completed_at)
                .is_some_and(|at| now.saturating_since(at).as_secs_f64() >= RETIRE_GRACE_S);
            if quiescent {
                if let Some(fct) = c.handle.completion_time() {
                    fcts.push(fct * 1e3);
                }
                drop(sim.retire_endpoint(c.source));
                drop(sim.retire_endpoint(c.sink));
            } else {
                keep.push(c);
            }
        }
        live = keep;
    }

    let mean_fct_ms = if fcts.is_empty() {
        0.0
    } else {
        fcts.iter().sum::<f64>() / fcts.len() as f64
    };
    ChurnResult {
        mean_fct_ms,
        completed: fcts.len(),
        planned: plan.len(),
        peak_live,
        endpoint_slots: sim.endpoint_slots(),
        long_flows: long_conns.len(),
        live_at_end: sim.live_endpoints(),
        pool: tcpsim::pool::stats(),
    }
}
