//! The three pinned workloads and one repetition ("rep") of each: set-up
//! from an empty simulation, the run to the horizon, and the checks and
//! counters read afterwards.
//!
//! A rep runs either plain (the end-to-end measurement) or traced, with
//! every transport endpoint and trace sink wrapped and the event loop
//! stepped in short slices, each one a span (see [`crate::spans`]). Both
//! kinds can trace into a [`DigestSink`] instead of the workload's own sink;
//! that pass is never timed and proves the run's behaviour.

use std::cell::RefCell;
use std::rc::Rc;

use bench::fattree::dc_config;
use eventsim::{SimDuration, SimRng, SimTime};
use flowsim::fattree::FlowFatTree;
use flowsim::{FlowFatTreeConfig, FlowNet, FlowSim, FlowSimConfig};
use mpsim_core::Algorithm;
use netsim::{FaultPlan, QueueId, Simulation};
use tcpsim::Connection;
use topo::{stagger_starts, FatTree, FatTreeConfig, ScenarioC, ScenarioCParams};
use trace::{DigestSink, FlightRecorder, SharedSink, Tracer};
use workload::{heavytail_churn_plan, permutation_traffic, HeavyTailMix};

use crate::alloc::{live_bytes, peak_bytes, reset_peak};
use crate::spans::{Kind, SharedSpans, Stopwatch, TimedEndpoint, TimedSink};

/// The seed the digests were pinned for when none is given.
pub const DEFAULT_SEED: u64 = 8;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// k=8 FatTree permutation, 128 OLIA connections × 4 subflows.
    PacketFattree,
    /// Paper Scenario C (LIA, then OLIA) with AP1 flapping and a flight
    /// recorder attached.
    PacketScencFaults,
    /// Flow-level k=16 FatTree, resident OLIA population under churn.
    FlowChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PacketFattree,
        Workload::PacketScencFaults,
        Workload::FlowChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PacketFattree => "packet_fattree",
            Workload::PacketScencFaults => "packet_scenc_faults",
            Workload::FlowChurn => "flow_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall seconds of one measured rep on the host the benchmark was tuned
    /// on (a shared 2-vCPU x86-64 VM). It only sizes runs: a run of `s`
    /// seconds makes `s / nominal_rep_s` reps whatever the code's speed, so
    /// a parent and a change are measured with the same estimator.
    pub fn nominal_rep_s(self) -> f64 {
        match self {
            Workload::PacketFattree => 2.0,
            Workload::PacketScencFaults => 0.4,
            Workload::FlowChurn => 2.4,
        }
    }

    /// Set-up-only passes made before each measured rep, each one a
    /// `setup_s` sample: a few tens of milliseconds' worth.
    pub fn setups_per_rep(self) -> usize {
        match self {
            Workload::PacketFattree => 100,
            Workload::PacketScencFaults => 200,
            Workload::FlowChurn => 2,
        }
    }
}

// --- packet_fattree -------------------------------------------------------

const FATTREE_K: usize = 8;
const FATTREE_SUBFLOWS: usize = 4;
/// Simulated horizon; starts are jittered over its first quarter.
const FATTREE_HORIZON_S: f64 = 0.5;

// --- packet_scenc_faults --------------------------------------------------

const SCENC_N1: usize = 10;
const SCENC_C1_OVER_C2: f64 = 1.0;
/// Simulated horizon per algorithm.
const SCENC_HORIZON_S: f64 = 100.0;
/// Starts are staggered over this window, as the paper's testbed did.
const SCENC_STAGGER: SimDuration = SimDuration::from_secs(2);
/// AP1 flaps: down for 2 s every 10 s from t = 20 s, until the horizon.
const SCENC_FLAP_FROM_S: f64 = 20.0;
const SCENC_FLAP_DOWN: SimDuration = SimDuration::from_secs(2);
const SCENC_FLAP_UP: SimDuration = SimDuration::from_secs(8);
const SCENC_FLAP_CYCLES: usize = 8;
/// The flight recorder's ring, as chaos campaigns size it.
const SCENC_RECORDER: usize = 1 << 20;
const SCENC_ALGORITHMS: [Algorithm; 2] = [Algorithm::Lia, Algorithm::Olia];

// --- flow_churn -----------------------------------------------------------

const CHURN_K: usize = 16;
const CHURN_RESIDENT: usize = 20_000;
const CHURN_SUBFLOWS: usize = 2;
/// Mean per-host gap between churn arrivals.
const CHURN_MEAN_GAP_S: f64 = 0.05;
/// Simulated horizon. Resident starts are jittered over the first second,
/// so the run covers the population's ramp to about three quarters of
/// [`CHURN_RESIDENT`], which is what the recompute scaling exponent is
/// fitted over.
const CHURN_HORIZON_S: f64 = 0.75;

/// Sim-time slice a traced packet run is stepped in.
const NET_SLICE: SimDuration = SimDuration::from_millis(10);
/// Sim-time slice a traced flow run is stepped in: a fifth of the
/// allocator's 25 ms recompute gap, so a slice holds at most one recompute.
const FLOW_SLICE: SimDuration = SimDuration::from_millis(5);

/// How a rep is observed.
pub enum Probe {
    /// No wrappers; one `run_until` call to the horizon.
    Plain,
    /// Wrapped endpoints and sinks, sliced run, all spans into these.
    Traced(SharedSpans),
}

/// Where a rep's trace events go.
pub enum Sink {
    /// The workload's own choice: none, or the flight recorder.
    Own,
    /// Everything into one digest, in place of the workload's sink.
    Digest(Rc<RefCell<DigestSink>>),
}

/// Set-up cost, split by the layer whose API was called.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Empty simulation to first event, wall seconds.
    pub total_s: f64,
    pub topo_s: f64,
    pub plan_s: f64,
    /// Transport connection (packet) or flow (flow) installation.
    pub install_s: f64,
    pub topo_bytes: i64,
    pub install_bytes: i64,
    /// Connections or flows installed.
    pub installed: usize,
}

/// One flow-run slice of a traced rep.
#[derive(Debug, Clone, Copy)]
pub struct FlowSlice {
    pub wall_ns: u64,
    /// Whether the allocator recomputed inside the slice.
    pub recomputed: bool,
    /// Active flows × subflows per flow at the end of the slice.
    pub subflows: usize,
}

/// Everything one rep leaves behind.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup: Setup,
    /// Wall seconds of the run phase.
    pub run_s: f64,
    pub sim_s: f64,
    /// Live-heap high water over set-up and run.
    pub peak_live_bytes: i64,
    /// Events dispatched (summed over the rep's simulations).
    pub events: u64,
    /// Failed end-of-run checks.
    pub errors: Vec<String>,
    pub peak_heap: usize,
    pub peak_timers: usize,
    pub stale_timer_drains: u64,
    pub peak_arena: usize,
    pub arena_inserts: u64,
    pub arrived: u64,
    pub dropped: u64,
    pub recomputes: u64,
    pub completed: u64,
    pub flow_slices: Vec<FlowSlice>,
}

/// Add the wall time and heap growth of `f` to a setup phase.
fn phase<T>(secs: &mut f64, bytes: &mut i64, f: impl FnOnce() -> T) -> T {
    let live = live_bytes();
    let t = Stopwatch::start();
    let out = f();
    *secs += t.secs();
    *bytes += live_bytes() - live;
    out
}

/// The tracer a simulation of this rep emits through, if any.
fn tracer(own: Option<SharedSink>, sink: &Sink, probe: &Probe) -> Tracer {
    let inner = match sink {
        Sink::Own => own,
        Sink::Digest(d) => Some(d.clone() as SharedSink),
    };
    match (inner, probe) {
        (None, _) => Tracer::disabled(),
        (Some(s), Probe::Plain) => Tracer::enabled(s),
        (Some(inner), Probe::Traced(spans)) => Tracer::enabled(Rc::new(RefCell::new(TimedSink {
            inner,
            spans: spans.clone(),
        }))),
    }
}

/// One rep of `w` on `seed`. With `setup_only` the simulation is dropped
/// right after set-up, and only [`Outcome::setup`] is filled in.
pub fn rep(w: Workload, seed: u64, probe: &Probe, sink: &Sink, setup_only: bool) -> Outcome {
    // Thread-local route interning and the connection-state pool would
    // otherwise carry the previous rep's state into this one's set-up time
    // and byte counts.
    netsim::routes::clear();
    tcpsim::pool::clear();
    let live0 = live_bytes();
    reset_peak();
    let mut out = Outcome::default();
    match w {
        Workload::PacketFattree => {
            packet_case(&mut out, seed, None, probe, sink, setup_only, |sim, s| {
                fattree_setup(sim, seed, s)
            });
        }
        Workload::PacketScencFaults => {
            for alg in SCENC_ALGORITHMS {
                let recorder: SharedSink =
                    Rc::new(RefCell::new(FlightRecorder::new(SCENC_RECORDER)));
                packet_case(
                    &mut out,
                    seed,
                    Some(recorder),
                    probe,
                    sink,
                    setup_only,
                    |sim, s| scenc_setup(sim, seed, alg, s),
                );
            }
        }
        Workload::FlowChurn => flow_rep(&mut out, seed, probe, sink, setup_only),
    }
    out.peak_live_bytes = peak_bytes() - live0;
    out
}

/// A built packet simulation, ready for its first event.
struct PacketCase {
    conns: Vec<Connection>,
    horizon: SimTime,
    /// Queue 0 of the simulation: every queue id is an offset from it.
    first_queue: QueueId,
}

/// Set up one packet simulation with `build`, run it to its horizon and
/// fold its counters into `out`.
fn packet_case(
    out: &mut Outcome,
    seed: u64,
    own_sink: Option<SharedSink>,
    probe: &Probe,
    sink: &Sink,
    setup_only: bool,
    build: impl FnOnce(&mut Simulation, &mut Setup) -> PacketCase,
) {
    let t0 = Stopwatch::start();
    let mut sim = Simulation::new(seed);
    sim.set_tracer(tracer(own_sink, sink, probe));
    let case = build(&mut sim, &mut out.setup);
    out.setup.total_s += t0.secs();
    if setup_only {
        return;
    }

    let wall_s = match probe {
        Probe::Plain => {
            let t = Stopwatch::start();
            sim.run_until(case.horizon);
            t.secs()
        }
        Probe::Traced(spans) => {
            for c in &case.conns {
                for id in [c.source, c.sink] {
                    let inner = sim.retire_endpoint(id);
                    // Retired ids are reused last-in first-out, so the
                    // wrapper takes over the very same id.
                    let again = sim.reserve_endpoint();
                    assert_eq!(again, id, "endpoint id not reused");
                    let spans = spans.clone();
                    sim.install_endpoint(id, Box::new(TimedEndpoint { inner, spans }));
                }
            }
            let t = Stopwatch::start();
            let mut now = sim.now();
            while now < case.horizon {
                now = (now + NET_SLICE).min(case.horizon);
                spans.borrow_mut().enter(Kind::NetSlice);
                sim.run_until(now);
                spans.borrow_mut().exit();
            }
            t.secs()
        }
    };
    out.run_s += wall_s;
    out.sim_s += case.horizon.as_secs_f64();
    out.events += sim.events_processed();

    if let Err(e) = sim.check_packet_conservation() {
        out.errors.push(format!("packet conservation: {e}"));
    }
    let ls = sim.loop_stats();
    out.peak_heap = out.peak_heap.max(ls.peak_heap);
    out.peak_timers = out.peak_timers.max(ls.peak_timers);
    out.peak_arena = out.peak_arena.max(ls.peak_arena);
    out.stale_timer_drains += ls.stale_timer_drains;
    out.arena_inserts += ls.arena_inserts;
    assert_eq!(case.first_queue.index(), 0, "first queue is not queue 0");
    for i in 0..sim.queue_count() {
        let q = sim.queue_stats(case.first_queue.offset(i));
        out.arrived += q.arrived;
        out.dropped += q.dropped;
    }
}

fn fattree_setup(sim: &mut Simulation, seed: u64, s: &mut Setup) -> PacketCase {
    let ft = phase(&mut s.topo_s, &mut s.topo_bytes, || {
        FatTree::build(sim, FATTREE_K, &FatTreeConfig::default())
    });
    let hosts = ft.num_hosts();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5CA1E);
    let mut plan_bytes = 0; // not reported: plans are transient
    let perm = phase(&mut s.plan_s, &mut plan_bytes, || {
        permutation_traffic(&mut rng, hosts)
    });
    let cfg = dc_config();
    let conns = phase(&mut s.install_s, &mut s.install_bytes, || {
        let conns: Vec<Connection> = (0..hosts)
            .map(|h| {
                ft.connect(
                    sim,
                    h,
                    perm[h],
                    Algorithm::Olia,
                    FATTREE_SUBFLOWS,
                    None,
                    cfg,
                    &mut rng,
                    h as u64,
                )
            })
            .collect();
        for c in &conns {
            let jitter = SimDuration::from_secs_f64(rng.f64() * FATTREE_HORIZON_S * 0.25);
            sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
        }
        conns
    });
    s.installed += conns.len();
    PacketCase {
        conns,
        horizon: SimTime::from_secs_f64(FATTREE_HORIZON_S),
        first_queue: ft.host_up(0),
    }
}

fn scenc_setup(sim: &mut Simulation, seed: u64, alg: Algorithm, s: &mut Setup) -> PacketCase {
    let params = ScenarioCParams::paper(SCENC_N1, SCENC_C1_OVER_C2, alg);
    // The scenario builder installs the connections as well, so on this
    // workload their cost is part of the topology phase.
    let sc = phase(&mut s.topo_s, &mut s.topo_bytes, || {
        ScenarioC::build(sim, &params)
    });
    let mut plan_bytes = 0; // not reported: plans are transient
    let plan = phase(&mut s.plan_s, &mut plan_bytes, || {
        FaultPlan::new().flap(
            sc.ap1,
            SimTime::from_secs_f64(SCENC_FLAP_FROM_S),
            SCENC_FLAP_DOWN,
            SCENC_FLAP_UP,
            SCENC_FLAP_CYCLES,
        )
    });
    let conns: Vec<Connection> = sc.multipath.iter().chain(&sc.single).cloned().collect();
    phase(&mut s.install_s, &mut s.install_bytes, || {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC3C3);
        stagger_starts(sim, &conns, SCENC_STAGGER, &mut rng);
        sim.install_fault_plan(plan);
    });
    s.installed += conns.len();
    PacketCase {
        conns,
        horizon: SimTime::from_secs_f64(SCENC_HORIZON_S),
        first_queue: sc.ap1,
    }
}

fn flow_rep(out: &mut Outcome, seed: u64, probe: &Probe, sink: &Sink, setup_only: bool) {
    let s = &mut out.setup;
    let t0 = Stopwatch::start();
    let (ft, net) = phase(&mut s.topo_s, &mut s.topo_bytes, || {
        let mut net = FlowNet::new();
        let ft = FlowFatTree::build(&mut net, CHURN_K, &FlowFatTreeConfig::default());
        (ft, net)
    });
    let hosts = ft.num_hosts();
    let mut sim = FlowSim::new(net, FlowSimConfig::large_scale());
    sim.set_tracer(tracer(None, sink, probe));

    // The install protocol of `flowsim::fattree::heavytail_churn`, spelled
    // out so each call can be charged to its layer: resident flows over
    // repeated permutations, starts jittered across the first second, then
    // a heavy-tailed Poisson churn overlay.
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5CA1E);
    let mut plan_bytes = 0; // not reported: plans are transient
    let mut conn = 0u64;
    while (conn as usize) < CHURN_RESIDENT {
        let perm = phase(&mut s.plan_s, &mut plan_bytes, || {
            permutation_traffic(&mut rng, hosts)
        });
        for (h, &dst) in perm.iter().enumerate().take(CHURN_RESIDENT - conn as usize) {
            phase(&mut s.install_s, &mut s.install_bytes, || {
                let f = ft.connect(
                    &mut sim,
                    h,
                    dst,
                    Algorithm::Olia,
                    CHURN_SUBFLOWS,
                    None,
                    &mut rng,
                    conn,
                );
                let jitter = SimDuration::from_secs_f64(rng.f64());
                sim.start_at(f, SimTime::ZERO + jitter);
            });
            conn += 1;
        }
    }
    let senders: Vec<usize> = (0..hosts).collect();
    let dests: Vec<usize> = (0..hosts).map(|h| (h + hosts / 2) % hosts).collect();
    let plan = phase(&mut s.plan_s, &mut plan_bytes, || {
        heavytail_churn_plan(
            &mut rng,
            &senders,
            &dests,
            &HeavyTailMix::default(),
            CHURN_MEAN_GAP_S,
            CHURN_HORIZON_S,
        )
    });
    phase(&mut s.install_s, &mut s.install_bytes, || {
        for spec in &plan {
            let f = ft.connect(
                &mut sim,
                spec.src,
                spec.dst,
                Algorithm::Olia,
                CHURN_SUBFLOWS,
                Some(spec.size_packets),
                &mut rng,
                conn,
            );
            sim.start_at(f, SimTime::ZERO + SimDuration::from_secs_f64(spec.start_s));
            conn += 1;
        }
    });
    s.installed += conn as usize;
    s.total_s += t0.secs();
    if setup_only {
        return;
    }

    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(CHURN_HORIZON_S);
    let t = Stopwatch::start();
    match probe {
        Probe::Plain => sim.run_until(horizon),
        Probe::Traced(spans) => {
            let mut now = sim.now();
            while now < horizon {
                now = (now + FLOW_SLICE).min(horizon);
                let before = sim.recomputes();
                spans.borrow_mut().enter(Kind::FlowSlice);
                sim.run_until(now);
                let wall_ns = spans.borrow_mut().exit();
                out.flow_slices.push(FlowSlice {
                    wall_ns,
                    recomputed: sim.recomputes() > before,
                    subflows: sim.active_flows() * CHURN_SUBFLOWS,
                });
            }
        }
    }
    out.run_s += t.secs();
    out.sim_s += CHURN_HORIZON_S;
    out.events += sim.events_processed();
    out.recomputes += sim.recomputes();
    out.completed += sim.completed_flows();
    if sim.started_flows() == 0 {
        out.errors.push("no flow started".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Spans;

    /// A tiny packet workload: k=4 FatTree, 16 OLIA connections × 2
    /// subflows, 20 ms.
    fn tiny(sim: &mut Simulation, _: &mut Setup) -> PacketCase {
        let ft = FatTree::build(sim, 4, &FatTreeConfig::default());
        let mut rng = SimRng::seed_from_u64(3);
        let perm = permutation_traffic(&mut rng, ft.num_hosts());
        let conns: Vec<Connection> = (0..ft.num_hosts())
            .map(|h| {
                let cfg = dc_config();
                ft.connect(
                    sim,
                    h,
                    perm[h],
                    Algorithm::Olia,
                    2,
                    None,
                    cfg,
                    &mut rng,
                    h as u64,
                )
            })
            .collect();
        for c in &conns {
            sim.start_endpoint_at(c.source, SimTime::ZERO);
        }
        PacketCase {
            conns,
            horizon: SimTime::from_secs_f64(0.02),
            first_queue: ft.host_up(0),
        }
    }

    /// Run [`tiny`] into a digest and a flight recorder at once; returns
    /// both fingerprints and the outcome.
    fn fingerprints(probe: &Probe) -> (u64, u64, Outcome) {
        let digest = Rc::new(RefCell::new(DigestSink::new()));
        let recorder = Rc::new(RefCell::new(FlightRecorder::new(1 << 16)));
        let mut out = Outcome::default();
        // The recorder rides as the workload's own sink; the digest
        // replaces it, so run twice: once per sink.
        packet_case(
            &mut out,
            5,
            None,
            probe,
            &Sink::Digest(digest.clone()),
            false,
            tiny,
        );
        let mut again = Outcome::default();
        let own: SharedSink = recorder.clone();
        packet_case(&mut again, 5, Some(own), probe, &Sink::Own, false, tiny);
        assert_eq!(out.events, again.events);
        let dump = recorder.borrow().dump_jsonl();
        let d = digest.borrow().digest();
        (d, trace::Digest64::of(dump.as_bytes()), out)
    }

    #[test]
    fn wrappers_and_slicing_are_digest_neutral() {
        let (plain_digest, plain_tail, plain) = fingerprints(&Probe::Plain);
        let spans = Spans::shared();
        let (traced_digest, traced_tail, traced) = fingerprints(&Probe::Traced(spans.clone()));
        assert!(plain.errors.is_empty() && traced.errors.is_empty());
        assert!(
            plain.events > 1000,
            "tiny workload too small: {}",
            plain.events
        );
        assert_eq!(plain.events, traced.events);
        assert_eq!(
            plain_digest, traced_digest,
            "digest sink wrapper changed behaviour"
        );
        assert_eq!(
            plain_tail, traced_tail,
            "recorder wrapper changed behaviour"
        );

        // The wrappers saw the work: callbacks and records were timed, and
        // the layers' self times partition the run slices exactly.
        let s = spans.borrow();
        assert!(s.totals(Kind::Packet).count > 0 && s.totals(Kind::Record).count > 0);
        assert_eq!(
            s.totals(Kind::Start).count,
            2 * 16,
            "16 sources started, twice"
        );
        let selves: u64 = Kind::ALL.iter().map(|&k| s.totals(k).self_ns).sum();
        assert_eq!(selves, s.totals(Kind::NetSlice).total_ns);
    }
}
