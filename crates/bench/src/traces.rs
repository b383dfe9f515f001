//! Window and α traces of the two-bottleneck example (Figs. 7–8).

use eventsim::{SimDuration, SimRng, SimTime};
use mpsim_core::Algorithm;
use netsim::Simulation;
use tcpsim::{Connection, TcpConfig};
use topo::{stagger_starts, TwoBottleneck, TwoBottleneckParams};

/// The recorded traces plus the derived quantities the paper discusses.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// `(t, w)` samples for subflow 0 and 1.
    pub cwnd: [Vec<(f64, f64)>; 2],
    /// `(t, α)` samples for subflow 0 and 1 (empty for non-OLIA).
    pub alpha: [Vec<(f64, f64)>; 2],
    /// Time-average window per subflow over the trace.
    pub mean_cwnd: [f64; 2],
    /// Fraction of time each subflow's window sat at ≤ 1.5 MSS — OLIA keeps
    /// the congested path there "most of the time" (§IV-C).
    pub frac_at_floor: [f64; 2],
    /// Goodput of the multipath user, Mb/s.
    pub goodput_mbps: f64,
}

/// Run the two-bottleneck scenario for `secs` simulated seconds with window
/// tracing on the multipath user.
pub fn run(
    c_mbps: f64,
    n1: usize,
    n2: usize,
    algorithm: Algorithm,
    secs: f64,
    seed: u64,
) -> TraceResult {
    let config = TcpConfig {
        trace: true,
        ..TcpConfig::default()
    };
    let params = TwoBottleneckParams {
        c_mbps,
        n1,
        n2,
        algorithm,
        config,
    };
    let mut sim = Simulation::new(seed);
    let _trace = crate::tracing::attach_from_env(&mut sim, "two_bottleneck", seed);
    let s = TwoBottleneck::build(&mut sim, &params);
    let all: Vec<Connection> = std::iter::once(s.multipath.clone())
        .chain(s.tcp1.iter().cloned())
        .chain(s.tcp2.iter().cloned())
        .collect();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7777);
    stagger_starts(&mut sim, &all, SimDuration::from_secs(2), &mut rng);
    // Reset the goodput window after the first quarter (startup transient);
    // the traces themselves record the whole run.
    sim.run_until(SimTime::from_secs_f64(secs * 0.25));
    s.multipath.handle.reset(sim.now());
    sim.run_until(SimTime::from_secs_f64(secs));

    let h = &s.multipath.handle;
    let series = |pts: &[(f64, f64)]| {
        let mut ts = metrics::TimeSeries::new();
        for &(t, v) in pts {
            ts.push(SimTime::from_secs_f64(t), v);
        }
        ts
    };
    let cwnd = [h.cwnd_trace(0), h.cwnd_trace(1)];
    let alpha = [h.alpha_trace(0), h.alpha_trace(1)];
    let mean_cwnd = [
        series(&cwnd[0]).time_average().unwrap_or(0.0),
        series(&cwnd[1]).time_average().unwrap_or(0.0),
    ];
    let frac_at_floor = [
        series(&cwnd[0]).fraction_at_or_below(1.5).unwrap_or(0.0),
        series(&cwnd[1]).fraction_at_or_below(1.5).unwrap_or(0.0),
    ];
    let goodput = h.goodput_mbps(sim.now());
    TraceResult {
        cwnd,
        alpha,
        mean_cwnd,
        frac_at_floor,
        goodput_mbps: goodput,
    }
}
