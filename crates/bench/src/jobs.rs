//! The paper's experiments as *callable jobs* for the `orchestra`
//! experiment orchestrator, and the one definition of each testbed
//! measurement.
//!
//! The orchestrator wants the atom of an experiment matrix — **one
//! scenario at one parameter point at one seed, as a single deterministic
//! simulation** — so it can shard the full grid across a worker pool. This
//! module is that hook: a registry of [`ScenarioDef`]s, each pairing a run
//! function (`fn(&JobCtx) -> JobOutput`) with the default paper parameter
//! grid the figures use.
//!
//! Scenarios A, B and C keep one packet-level body each ([`scenario_a`],
//! [`scenario_b`], [`scenario_c`]): their registry jobs run it once at the
//! job's seed, and the `scenario_a`/`scenario_b`/`scenario_c` binaries run
//! it at every point of the same grids through [`crate::measure`], which
//! replicates it over seeds. A figure table and an orchestra sweep of one
//! point therefore run the same code.
//!
//! Contracts every job keeps:
//!
//! * **Single-threaded and deterministic** — a job builds one
//!   [`Simulation`] seeded with `ctx.seed` and never spawns threads or
//!   reads the environment; two runs of the same `(scenario, params, seed)`
//!   are bit-identical.
//! * **Self-witnessing** — unless `ctx.digest` is off, the run is traced
//!   into a [`DigestSink`], so the returned [`JobOutput::digest`] proves
//!   (byte-exactly) that scheduling, worker count, and sibling jobs did not
//!   change behaviour.
//! * **Panic-is-failure** — jobs validate parameters with `panic!`; the
//!   orchestrator's worker pool isolates the panic and records the job as
//!   failed without taking down the run.

use std::collections::BTreeMap;

use eventsim::{SimDuration, SimRng};
use flowsim::fattree as flow_fattree;
use flowsim::scenarios::{self as flow_scenarios, measure_two_class, TwoClass};
use flowsim::{FlowFatTreeConfig, FlowSimConfig};
use mpsim_core::Algorithm;
use netsim::Simulation;
use tcpsim::Connection;
use topo::{ScenarioA, ScenarioAParams, ScenarioB, ScenarioBParams, ScenarioC, ScenarioCParams};
use trace::{Digest64, DigestSink, Tracer};

use crate::fattree::{self, LongFlows};
use crate::{mean_goodput_mbps, warmup_and_measure, RunCfg};
use json::Json;

/// Which simulation engine executes a job. The packet backend
/// (`netsim`/`tcpsim`) is the fidelity reference; the flow backend
/// (`flowsim`) trades packet dynamics for rate dynamics and scales to
/// 10⁵–10⁶ concurrent connections. Scenario jobs that support both emit
/// **identical metric keys** from either, so a manifest can sweep the
/// `backend` axis and compare columns directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Per-packet discrete-event simulation (default).
    Packet,
    /// Flow-level fair-share rate allocation.
    Flow,
}

/// Everything one job run may depend on: the derived seed, the scale, and
/// the scenario parameters from the manifest's grid point.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// Simulation seed (already derived by the orchestrator; jobs use it
    /// verbatim).
    pub seed: u64,
    /// Quick (CI) scale vs full paper scale — selects measurement windows.
    pub quick: bool,
    /// Whether to capture the per-job trace digest (costs JSONL
    /// serialization of every event; off for pure-throughput runs).
    pub digest: bool,
    /// The parameter point, keyed by grid axis name.
    pub params: BTreeMap<String, Json>,
}

impl JobCtx {
    /// A context with every axis at its default.
    pub fn new(seed: u64, quick: bool) -> JobCtx {
        JobCtx {
            seed,
            quick,
            digest: true,
            params: BTreeMap::new(),
        }
    }

    /// Numeric parameter, or `default` when absent. Panics (fails the job)
    /// when present but not a number.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        match self.params.get(key) {
            None => default,
            Some(v) => v
                .as_f64()
                .unwrap_or_else(|| panic!("job param {key:?} must be a number, got {v:?}")),
        }
    }

    /// Integer parameter, or `default` when absent. Panics on non-integer
    /// or negative values.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        let v = self.f64(key, default as f64);
        if v < 0.0 || v.fract() != 0.0 {
            panic!("job param {key:?} must be a non-negative integer, got {v}");
        }
        v as usize
    }

    /// Boolean parameter, or `default` when absent.
    pub fn bool(&self, key: &str, default: bool) -> bool {
        match self.params.get(key) {
            None => default,
            Some(v) => v
                .as_bool()
                .unwrap_or_else(|| panic!("job param {key:?} must be a boolean, got {v:?}")),
        }
    }

    /// String parameter, or `default` when absent.
    pub fn str(&self, key: &str, default: &str) -> String {
        match self.params.get(key) {
            None => default.to_string(),
            Some(v) => v
                .as_str()
                .unwrap_or_else(|| panic!("job param {key:?} must be a string, got {v:?}"))
                .to_string(),
        }
    }

    /// The `algorithm` parameter parsed via [`Algorithm::from_name`]
    /// (default `lia`). An unknown name panics, which the pool records as a
    /// failed job rather than silently running the wrong algorithm.
    pub fn algorithm(&self) -> Algorithm {
        let name = self.str("algorithm", "lia");
        Algorithm::from_name(&name)
            .unwrap_or_else(|| panic!("job param algorithm={name:?} is not a known algorithm"))
    }

    /// The `backend` parameter (`"packet"` | `"flow"`, default packet).
    /// Any other value panics, failing the job, so a typo in a manifest
    /// cannot silently fall back to the wrong engine.
    pub fn backend(&self) -> Backend {
        let name = self.str("backend", "packet");
        match name.as_str() {
            "packet" => Backend::Packet,
            "flow" => Backend::Flow,
            _ => panic!("job param backend={name:?} must be \"packet\" or \"flow\""),
        }
    }

    /// The measurement windows for this scale, as a single replication at
    /// this job's seed.
    fn cfg(&self) -> RunCfg {
        let mut cfg = if self.quick {
            RunCfg::quick()
        } else {
            RunCfg::paper()
        };
        cfg.replications = 1;
        cfg.seed = self.seed;
        cfg
    }
}

/// What one job leaves behind: scalar metrics plus the determinism witness.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Scalar result metrics, keyed by name.
    pub metrics: BTreeMap<String, f64>,
    /// FNV-1a digest (16 hex chars) of the full JSONL trace, or `"-"` when
    /// digest capture was disabled.
    pub digest: String,
    /// Events absorbed by the digest sink (0 when disabled).
    pub trace_events: u64,
    /// Events dispatched by the simulation's event loop.
    pub events: u64,
    /// Simulated seconds covered by the run.
    pub sim_s: f64,
}

/// One registered scenario: a name, a one-line summary, the run function,
/// and the default paper grid (axis name → values) at each scale.
pub struct ScenarioDef {
    /// Stable scenario name used in manifests and job keys.
    pub name: &'static str,
    /// One-line description for `orchestra --list`.
    pub summary: &'static str,
    /// The job body.
    pub run: fn(&JobCtx) -> JobOutput,
    /// Default parameter grid (the paper's sweep) for the given scale.
    pub grid: fn(quick: bool) -> Vec<(String, Vec<Json>)>,
}

impl std::fmt::Debug for ScenarioDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioDef")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish()
    }
}

/// Build one seeded simulation, attach the digest sink per `ctx`, run
/// `body`, and package its metrics with the witness.
fn instrumented(
    ctx: &JobCtx,
    body: impl FnOnce(&mut Simulation) -> BTreeMap<String, f64>,
) -> JobOutput {
    let mut sim = Simulation::new(ctx.seed);
    let sink = if ctx.digest {
        let (tracer, sink) = Tracer::to_sink(DigestSink::new());
        sim.set_tracer(tracer);
        Some(sink)
    } else {
        None
    };
    let metrics = body(&mut sim);
    let (digest, trace_events) = match &sink {
        Some(s) => {
            let s = s.borrow();
            (s.hex(), s.events())
        }
        None => ("-".to_string(), 0),
    };
    JobOutput {
        metrics,
        digest,
        trace_events,
        events: sim.events_processed(),
        sim_s: sim.now().as_secs_f64(),
    }
}

/// Flow-backend twin of [`instrumented`] for the two-class scenarios: run
/// the warmup/measure protocol on a built [`TwoClass`] and package the
/// class means (plus whatever extra metrics `extra` reads off the finished
/// sim) with the digest witness.
fn flow_two_class(
    ctx: &JobCtx,
    mut tc: TwoClass,
    extra: impl FnOnce(&TwoClass, f64, f64) -> BTreeMap<String, f64>,
) -> JobOutput {
    let cfg = ctx.cfg();
    let sink = if ctx.digest {
        let (tracer, sink) = Tracer::to_sink(DigestSink::new());
        tc.sim.set_tracer(tracer);
        Some(sink)
    } else {
        None
    };
    let (g1, g2) = measure_two_class(
        &mut tc,
        SimDuration::from_secs_f64(cfg.warmup_s),
        SimDuration::from_secs_f64(cfg.measure_s),
        SimDuration::from_secs_f64(cfg.jitter_s),
        ctx.seed,
    );
    let metrics = extra(&tc, g1, g2);
    let (digest, trace_events) = match &sink {
        Some(s) => {
            let s = s.borrow();
            (s.hex(), s.events())
        }
        None => ("-".to_string(), 0),
    };
    JobOutput {
        metrics,
        digest,
        trace_events,
        events: tc.sim.events_processed(),
        sim_s: tc.sim.now().as_secs_f64(),
    }
}

fn nums(values: &[f64]) -> Vec<Json> {
    values.iter().map(|&v| Json::from(v)).collect()
}

fn algs(values: &[Algorithm]) -> Vec<Json> {
    values.iter().map(|a| Json::from(a.name())).collect()
}

// ---------------------------------------------------------------------------
// Scenario A (Figs. 1, 9, 10)
// ---------------------------------------------------------------------------

/// Scenario A's packet-level body: build the network on `sim`, run `cfg`'s
/// warm-up/measure protocol with start jitter drawn from `seed`, and read
/// the normalized class throughputs and both bottlenecks' loss.
pub fn scenario_a(
    sim: &mut Simulation,
    params: &ScenarioAParams,
    cfg: &RunCfg,
    seed: u64,
) -> BTreeMap<String, f64> {
    let s = ScenarioA::build(sim, params);
    let all: Vec<Connection> = s.type1.iter().chain(s.type2.iter()).cloned().collect();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xA5A5);
    let end = warmup_and_measure(sim, &all, cfg, &mut rng);
    BTreeMap::from([
        (
            "type1_norm".to_string(),
            mean_goodput_mbps(&s.type1, end) / params.c1_mbps,
        ),
        (
            "type2_norm".to_string(),
            mean_goodput_mbps(&s.type2, end) / params.c2_mbps,
        ),
        ("p1".to_string(), sim.queue_stats(s.r1).loss_probability()),
        ("p2".to_string(), sim.queue_stats(s.r2).loss_probability()),
    ])
}

/// Scenario A at `ctx`'s point: N1 = 10 × `ratio` type1 users against
/// N2 = 10, at C1/C2 = `c1_over_c2`.
pub fn scenario_a_params(ctx: &JobCtx) -> ScenarioAParams {
    let ratio = ctx.f64("ratio", 1.0);
    let c = ctx.f64("c1_over_c2", 1.0);
    ScenarioAParams::paper((10.0 * ratio) as usize, c, ctx.algorithm())
}

fn scenario_a_job(ctx: &JobCtx) -> JobOutput {
    let params = scenario_a_params(ctx);
    if ctx.backend() == Backend::Flow {
        let tc = flow_scenarios::scenario_a(
            params.n1,
            params.n2,
            params.c1_mbps,
            params.c2_mbps,
            ctx.algorithm(),
            FlowSimConfig::default(),
        );
        return flow_two_class(ctx, tc, |tc, g1, g2| {
            BTreeMap::from([
                ("type1_norm".to_string(), g1 / params.c1_mbps),
                ("type2_norm".to_string(), g2 / params.c2_mbps),
                ("p1".to_string(), tc.sim.link_loss(tc.link1)),
                ("p2".to_string(), tc.sim.link_loss(tc.link2)),
            ])
        });
    }
    instrumented(ctx, |sim| scenario_a(sim, &params, &ctx.cfg(), ctx.seed))
}

fn scenario_a_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[Algorithm::Lia, Algorithm::Olia]),
        ),
        ("backend".to_string(), vec![Json::from("packet")]),
        ("c1_over_c2".to_string(), nums(&[0.75, 1.0, 1.5])),
        ("ratio".to_string(), nums(&[1.0, 2.0, 3.0])),
    ]
}

// ---------------------------------------------------------------------------
// Scenario B (Tables I/II, Fig. 4)
// ---------------------------------------------------------------------------

/// Scenario B's packet-level body, as [`scenario_a`]: per-user Blue and Red
/// rates, their aggregate, and the loss at ISPs X and T.
pub fn scenario_b(
    sim: &mut Simulation,
    params: &ScenarioBParams,
    cfg: &RunCfg,
    seed: u64,
) -> BTreeMap<String, f64> {
    let s = ScenarioB::build(sim, params);
    let all: Vec<Connection> = s.blue.iter().chain(s.red.iter()).cloned().collect();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xB4B4);
    let end = warmup_and_measure(sim, &all, cfg, &mut rng);
    let blue = mean_goodput_mbps(&s.blue, end);
    let red = mean_goodput_mbps(&s.red, end);
    BTreeMap::from([
        ("blue_mbps".to_string(), blue),
        ("red_mbps".to_string(), red),
        (
            "aggregate_mbps".to_string(),
            blue * s.blue.len() as f64 + red * s.red.len() as f64,
        ),
        ("p_x".to_string(), sim.queue_stats(s.x).loss_probability()),
        ("p_t".to_string(), sim.queue_stats(s.t).loss_probability()),
    ])
}

/// Scenario B at `ctx`'s point: the paper's 15 + 15 users, with the Red
/// users on one path or, with `red_multipath`, on two.
pub fn scenario_b_params(ctx: &JobCtx) -> ScenarioBParams {
    ScenarioBParams::paper(ctx.bool("red_multipath", false), ctx.algorithm())
}

fn scenario_b_job(ctx: &JobCtx) -> JobOutput {
    let params = scenario_b_params(ctx);
    if ctx.backend() == Backend::Flow {
        let tc = flow_scenarios::scenario_b(
            params.nb,
            params.nr,
            params.red_multipath,
            ctx.algorithm(),
            FlowSimConfig::default(),
        );
        let (nb, nr) = (params.nb as f64, params.nr as f64);
        return flow_two_class(ctx, tc, move |tc, blue, red| {
            BTreeMap::from([
                ("blue_mbps".to_string(), blue),
                ("red_mbps".to_string(), red),
                ("aggregate_mbps".to_string(), blue * nb + red * nr),
                ("p_x".to_string(), tc.sim.link_loss(tc.link1)),
                ("p_t".to_string(), tc.sim.link_loss(tc.link2)),
            ])
        });
    }
    instrumented(ctx, |sim| scenario_b(sim, &params, &ctx.cfg(), ctx.seed))
}

fn scenario_b_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[Algorithm::Lia, Algorithm::Olia]),
        ),
        ("backend".to_string(), vec![Json::from("packet")]),
        (
            "red_multipath".to_string(),
            vec![Json::from(false), Json::from(true)],
        ),
    ]
}

// ---------------------------------------------------------------------------
// Scenario C (Figs. 5, 11, 12) — also the ε-family ablation
// ---------------------------------------------------------------------------

/// Scenario C's packet-level body, as [`scenario_a`]: the normalized
/// multipath and single-path throughputs and the loss at both APs.
pub fn scenario_c(
    sim: &mut Simulation,
    params: &ScenarioCParams,
    cfg: &RunCfg,
    seed: u64,
) -> BTreeMap<String, f64> {
    let s = ScenarioC::build(sim, params);
    let all: Vec<Connection> = s.multipath.iter().chain(s.single.iter()).cloned().collect();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC3C3);
    let end = warmup_and_measure(sim, &all, cfg, &mut rng);
    BTreeMap::from([
        (
            "multipath_norm".to_string(),
            mean_goodput_mbps(&s.multipath, end) / params.c1_mbps,
        ),
        (
            "single_norm".to_string(),
            mean_goodput_mbps(&s.single, end) / params.c2_mbps,
        ),
        ("p1".to_string(), sim.queue_stats(s.ap1).loss_probability()),
        ("p2".to_string(), sim.queue_stats(s.ap2).loss_probability()),
    ])
}

/// Scenario C at `ctx`'s point: N1 = 10 × `ratio` multipath users against
/// N2 = 10, at C1/C2 = `c1_over_c2`.
pub fn scenario_c_params(ctx: &JobCtx) -> ScenarioCParams {
    let ratio = ctx.f64("ratio", 1.0);
    let c = ctx.f64("c1_over_c2", 1.0);
    ScenarioCParams::paper((10.0 * ratio) as usize, c, ctx.algorithm())
}

fn scenario_c_job(ctx: &JobCtx) -> JobOutput {
    let params = scenario_c_params(ctx);
    if ctx.backend() == Backend::Flow {
        let tc = flow_scenarios::scenario_c(
            params.n1,
            params.n2,
            params.c1_mbps,
            params.c2_mbps,
            ctx.algorithm(),
            FlowSimConfig::default(),
        );
        return flow_two_class(ctx, tc, |tc, g1, g2| {
            BTreeMap::from([
                ("multipath_norm".to_string(), g1 / params.c1_mbps),
                ("single_norm".to_string(), g2 / params.c2_mbps),
                ("p1".to_string(), tc.sim.link_loss(tc.link1)),
                ("p2".to_string(), tc.sim.link_loss(tc.link2)),
            ])
        });
    }
    instrumented(ctx, |sim| scenario_c(sim, &params, &ctx.cfg(), ctx.seed))
}

/// Figs. 5(c,d), 11 and 12: N1 ∈ {5, 10, 20, 30} multipath users against
/// N2 = 10 single-path users, at C1/C2 ∈ {1, 2}.
fn scenario_c_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[Algorithm::Lia, Algorithm::Olia]),
        ),
        ("backend".to_string(), vec![Json::from("packet")]),
        ("c1_over_c2".to_string(), nums(&[1.0, 2.0])),
        ("ratio".to_string(), nums(&[0.5, 1.0, 2.0, 3.0])),
    ]
}

/// The ε-family ablation (the `scenario_c` binary's last table): Scenario C at
/// N1 = N2 = 10, C1/C2 = 2, across the coupling spectrum of §II, the
/// related-work baselines and the probing-cost oracle.
fn epsilon_family_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[
                Algorithm::Uncoupled,
                Algorithm::Ewtcp,
                Algorithm::SemiCoupled,
                Algorithm::Lia,
                Algorithm::FullyCoupled,
                Algorithm::Olia,
                Algorithm::OptimumProbe,
            ]),
        ),
        ("c1_over_c2".to_string(), nums(&[2.0])),
        ("ratio".to_string(), nums(&[1.0])),
    ]
}

// ---------------------------------------------------------------------------
// FatTree (Figs. 13, 14 / Table III)
// ---------------------------------------------------------------------------

fn fattree_permutation_job(ctx: &JobCtx) -> JobOutput {
    let k = ctx.usize("k", if ctx.quick { 4 } else { 8 });
    let subflows = ctx.usize("subflows", 4);
    let secs = ctx.f64("secs", if ctx.quick { 4.0 } else { 15.0 });
    let algorithm = ctx.algorithm();
    if ctx.backend() == Backend::Flow {
        let r = flow_fattree::permutation(
            k,
            algorithm,
            subflows,
            SimDuration::from_secs_f64(secs),
            ctx.seed,
            &FlowFatTreeConfig::default(),
            FlowSimConfig::default(),
        );
        return JobOutput {
            metrics: BTreeMap::from([
                ("throughput_pct".to_string(), r.throughput_pct),
                ("jain".to_string(), r.jain),
            ]),
            // The flow harness always digests its own trace; honor the
            // ctx.digest contract when packaging the witness.
            digest: if ctx.digest {
                format!("{:016x}", r.digest)
            } else {
                "-".to_string()
            },
            trace_events: if ctx.digest { r.trace_events } else { 0 },
            events: r.trace_events,
            sim_s: secs,
        };
    }
    instrumented(ctx, |sim| {
        let r = fattree::permutation_in(sim, k, algorithm, subflows, secs, ctx.seed);
        BTreeMap::from([
            ("throughput_pct".to_string(), r.throughput_pct),
            ("jain".to_string(), r.jain),
        ])
    })
}

fn fattree_permutation_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[Algorithm::Lia, Algorithm::Olia]),
        ),
        ("backend".to_string(), vec![Json::from("packet")]),
        ("subflows".to_string(), nums(&[2.0, 4.0, 8.0])),
    ]
}

fn fattree_shortflows_job(ctx: &JobCtx) -> JobOutput {
    let k = ctx.usize("k", 4);
    let horizon_s = ctx.f64("horizon_s", if ctx.quick { 2.0 } else { 5.0 });
    let long = match ctx.str("long", "tcp").as_str() {
        "tcp" => LongFlows::Tcp,
        name => LongFlows::Mptcp(
            Algorithm::from_name(name)
                .unwrap_or_else(|| panic!("job param long={name:?} is not tcp or an algorithm")),
            ctx.usize("subflows", 8),
        ),
    };
    instrumented(ctx, |sim| {
        let r = fattree::short_flows_in(sim, k, long, horizon_s, ctx.seed);
        BTreeMap::from([
            ("mean_fct_ms".to_string(), r.mean_fct_ms),
            ("std_fct_ms".to_string(), r.std_fct_ms),
            ("core_utilization".to_string(), r.core_utilization),
            ("completed".to_string(), r.completed as f64),
            ("planned".to_string(), r.planned as f64),
        ])
    })
}

fn fattree_shortflows_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![(
        "long".to_string(),
        vec![Json::from("tcp"), Json::from("lia"), Json::from("olia")],
    )]
}

// ---------------------------------------------------------------------------
// Production-scale FatTree (`perf`'s k16_perm regime, as orchestrated jobs)
// ---------------------------------------------------------------------------

/// The k=16 permutation point: 1024 hosts, the scale the arena/pool work
/// targets. Same body as [`fattree_permutation_job`] but with production
/// defaults, so manifests can sweep the big fabric without repeating the
/// parameters at every grid point.
fn fattree_k16_permutation_job(ctx: &JobCtx) -> JobOutput {
    let k = ctx.usize("k", 16);
    let subflows = ctx.usize("subflows", 4);
    let secs = ctx.f64("secs", if ctx.quick { 0.2 } else { 2.0 });
    let algorithm = ctx.algorithm();
    instrumented(ctx, |sim| {
        let r = fattree::permutation_in(sim, k, algorithm, subflows, secs, ctx.seed);
        BTreeMap::from([
            ("throughput_pct".to_string(), r.throughput_pct),
            ("jain".to_string(), r.jain),
        ])
    })
}

fn fattree_k16_permutation_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[Algorithm::Lia, Algorithm::Olia]),
        ),
        ("subflows".to_string(), nums(&[2.0, 4.0])),
    ]
}

/// Sustained churn with heavy-tailed flow sizes: connections are retired as
/// they complete, exercising endpoint-slot recycling and the tcpsim ring
/// pool. The slot plateau and pool recycle counters are reported as metrics
/// so an orchestrated sweep can watch the churn invariants, not just FCTs.
fn fattree_heavytail_job(ctx: &JobCtx) -> JobOutput {
    let k = ctx.usize("k", if ctx.quick { 4 } else { 8 });
    let horizon_s = ctx.f64("horizon_s", if ctx.quick { 2.0 } else { 5.0 });
    let long = match ctx.str("long", "tcp").as_str() {
        "tcp" => LongFlows::Tcp,
        name => LongFlows::Mptcp(
            Algorithm::from_name(name)
                .unwrap_or_else(|| panic!("job param long={name:?} is not tcp or an algorithm")),
            ctx.usize("subflows", 8),
        ),
    };
    instrumented(ctx, |sim| {
        let r = fattree::heavytail_churn_in(sim, k, long, horizon_s, ctx.seed);
        BTreeMap::from([
            ("mean_fct_ms".to_string(), r.mean_fct_ms),
            ("completed".to_string(), r.completed as f64),
            ("planned".to_string(), r.planned as f64),
            ("peak_live".to_string(), r.peak_live as f64),
            ("endpoint_slots".to_string(), r.endpoint_slots as f64),
            ("long_flows".to_string(), r.long_flows as f64),
            ("live_at_end".to_string(), r.live_at_end as f64),
            ("pool_recycled".to_string(), r.pool.recycled as f64),
            ("pool_fresh".to_string(), r.pool.fresh as f64),
        ])
    })
}

fn fattree_heavytail_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![(
        "long".to_string(),
        vec![Json::from("tcp"), Json::from("lia"), Json::from("olia")],
    )]
}

// ---------------------------------------------------------------------------
// Population-scale churn — flow backend only
// ---------------------------------------------------------------------------

/// Heavy-tailed Poisson churn over a resident MPTCP population on a
/// FatTree, at scales the packet backend cannot reach (10⁵–10⁶ concurrent
/// connections at full scale). Flow backend only: the job panics on
/// `backend=packet` rather than silently running a packet experiment five
/// orders of magnitude too small.
fn flowscale_churn_job(ctx: &JobCtx) -> JobOutput {
    if ctx.backend() != Backend::Flow {
        panic!("flowscale_churn runs only on backend=\"flow\"");
    }
    let k = ctx.usize("k", if ctx.quick { 4 } else { 16 });
    let resident = ctx.usize("resident", if ctx.quick { 64 } else { 100_000 });
    let subflows = ctx.usize("subflows", 2);
    let horizon_s = ctx.f64("horizon_s", if ctx.quick { 3.0 } else { 2.0 });
    let mean_gap_ms = ctx.f64("mean_gap_ms", if ctx.quick { 400.0 } else { 50.0 });
    let r = flow_fattree::heavytail_churn(
        &flow_fattree::ChurnParams {
            k,
            resident,
            algorithm: ctx.algorithm(),
            subflows,
            mean_gap: SimDuration::from_secs_f64(mean_gap_ms / 1e3),
            horizon: SimDuration::from_secs_f64(horizon_s),
            seed: ctx.seed,
        },
        &FlowFatTreeConfig::default(),
        FlowSimConfig::large_scale(),
    );
    JobOutput {
        metrics: BTreeMap::from([
            ("resident".to_string(), r.resident as f64),
            ("planned_churn".to_string(), r.planned_churn as f64),
            ("started".to_string(), r.started as f64),
            ("completed".to_string(), r.completed as f64),
            ("peak_active".to_string(), r.peak_active as f64),
            ("recomputes".to_string(), r.recomputes as f64),
        ]),
        digest: if ctx.digest {
            format!("{:016x}", r.digest)
        } else {
            "-".to_string()
        },
        trace_events: if ctx.digest { r.trace_events } else { 0 },
        events: r.events,
        sim_s: horizon_s,
    }
}

fn flowscale_churn_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[Algorithm::Lia, Algorithm::Olia]),
        ),
        ("backend".to_string(), vec![Json::from("flow")]),
    ]
}

// ---------------------------------------------------------------------------
// Smoke — a deliberately tiny scenario for orchestrator CI and tests
// ---------------------------------------------------------------------------

/// Scenario C's body on N2 = 2 unit-rate single-path users and a 1 s + 2 s
/// run, so a whole grid finishes in well under a second.
fn smoke_job(ctx: &JobCtx) -> JobOutput {
    let params = ScenarioCParams {
        n1: ctx.usize("n1", 2),
        n2: 2,
        c1_mbps: ctx.f64("c1_over_c2", 1.0),
        c2_mbps: 1.0,
        algorithm: ctx.algorithm(),
        config: tcpsim::TcpConfig::default(),
    };
    let cfg = RunCfg {
        warmup_s: 1.0,
        measure_s: 2.0,
        jitter_s: 0.5,
        replications: 1,
        seed: ctx.seed,
    };
    instrumented(ctx, |sim| scenario_c(sim, &params, &cfg, ctx.seed))
}

fn smoke_grid(_quick: bool) -> Vec<(String, Vec<Json>)> {
    vec![
        (
            "algorithm".to_string(),
            algs(&[Algorithm::Lia, Algorithm::Olia]),
        ),
        ("c1_over_c2".to_string(), nums(&[0.8, 1.2])),
    ]
}

/// Every scenario the orchestrator can run, in manifest order.
pub const REGISTRY: &[ScenarioDef] = &[
    ScenarioDef {
        name: "scenario_a",
        summary: "Scenario A normalized throughputs and AP loss (Figs. 1, 9, 10)",
        run: scenario_a_job,
        grid: scenario_a_grid,
    },
    ScenarioDef {
        name: "scenario_b",
        summary: "Scenario B per-user rates and ISP loss (Tables I/II, Fig. 4)",
        run: scenario_b_job,
        grid: scenario_b_grid,
    },
    ScenarioDef {
        name: "scenario_c",
        summary: "Scenario C multipath vs single-path split (Figs. 5, 11, 12)",
        run: scenario_c_job,
        grid: scenario_c_grid,
    },
    ScenarioDef {
        name: "fattree_permutation",
        summary: "FatTree permutation throughput and fairness (Fig. 13)",
        run: fattree_permutation_job,
        grid: fattree_permutation_grid,
    },
    ScenarioDef {
        name: "fattree_shortflows",
        summary: "FatTree short-flow completion times (Fig. 14 / Table III)",
        run: fattree_shortflows_job,
        grid: fattree_shortflows_grid,
    },
    ScenarioDef {
        name: "fattree_k16_permutation",
        summary: "FatTree permutation at production scale (k=16, 1024 hosts)",
        run: fattree_k16_permutation_job,
        grid: fattree_k16_permutation_grid,
    },
    ScenarioDef {
        name: "fattree_shortflows_heavytail",
        summary: "FatTree heavy-tailed churn with endpoint retirement and ring recycling",
        run: fattree_heavytail_job,
        grid: fattree_heavytail_grid,
    },
    ScenarioDef {
        name: "flowscale_churn",
        summary: "population-scale Poisson churn on the flow backend (10⁵+ connections)",
        run: flowscale_churn_job,
        grid: flowscale_churn_grid,
    },
    ScenarioDef {
        name: "ablation_epsilon",
        summary: "Scenario C across the ε coupling family (ablation)",
        run: scenario_c_job,
        grid: epsilon_family_grid,
    },
    ScenarioDef {
        name: "smoke",
        summary: "tiny Scenario C slice (~3 simulated seconds) for orchestrator CI",
        run: smoke_job,
        grid: smoke_grid,
    },
];

/// Look a scenario up by its manifest name.
pub fn find(name: &str) -> Option<&'static ScenarioDef> {
    REGISTRY.iter().find(|d| d.name == name)
}

/// The points of a parameter grid: the cartesian product of its axes, the
/// first axis varying slowest and each axis's values in listed order.
pub fn points(axes: &[(String, Vec<Json>)]) -> Vec<BTreeMap<String, Json>> {
    let mut points = vec![BTreeMap::new()];
    for (axis, values) in axes {
        let mut next = Vec::with_capacity(points.len() * values.len());
        for point in &points {
            for v in values {
                let mut p = point.clone();
                p.insert(axis.clone(), v.clone());
                next.push(p);
            }
        }
        points = next;
    }
    points
}

/// `scenario?axis=value&...` with axes in sorted order; string values are
/// embedded raw (no quotes), everything else in JSON spelling. Orchestra
/// keys its jobs and sweep points by it, and [`crate::measure`] names its
/// trace files after it.
pub fn point_key(scenario: &str, params: &BTreeMap<String, Json>) -> String {
    if params.is_empty() {
        return scenario.to_string();
    }
    let parts: Vec<String> = params
        .iter()
        .map(|(k, v)| match v {
            Json::String(s) => format!("{k}={s}"),
            other => format!("{k}={}", other.render()),
        })
        .collect();
    format!("{scenario}?{}", parts.join("&"))
}

/// A filesystem-safe stem for a key: the key with non-`[A-Za-z0-9._-]`
/// bytes folded to `-`, truncated, plus a short hash of the full key so
/// distinct keys never collide.
pub fn file_stem(key: &str) -> String {
    let mut s: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    s.truncate(80);
    format!("{s}-{:08x}", Digest64::of(key.as_bytes()) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_findable() {
        for (i, d) in REGISTRY.iter().enumerate() {
            assert!(find(d.name).is_some(), "{} not findable", d.name);
            assert!(
                REGISTRY[..i].iter().all(|e| e.name != d.name),
                "duplicate scenario name {}",
                d.name
            );
            let grid = (d.grid)(true);
            assert!(
                grid.iter().all(|(_, values)| !values.is_empty()),
                "{}: empty grid axis",
                d.name
            );
        }
    }

    #[test]
    fn scenario_c_grids_are_the_figures_grids() {
        let grid = |name: &str| (find(name).expect("registered").grid)(false);
        let axis = |name: &str, values: Vec<Json>| (name.to_string(), values);
        // Figs. 5(c,d), 11 and 12: N1 = 10 × ratio ∈ {5, 10, 20, 30}
        // against N2 = 10, at C1/C2 ∈ {1, 2}, LIA against OLIA.
        assert_eq!(
            grid("scenario_c"),
            vec![
                axis("algorithm", algs(&[Algorithm::Lia, Algorithm::Olia])),
                axis("backend", vec![Json::from("packet")]),
                axis("c1_over_c2", nums(&[1.0, 2.0])),
                axis("ratio", nums(&[0.5, 1.0, 2.0, 3.0])),
            ]
        );
        // EXPERIMENTS.md's ε-family row (`ablation_epsilon_family`):
        // Scenario C at N1 = N2 = 10, C1/C2 = 2, over seven algorithms.
        let family = [
            Algorithm::Uncoupled,
            Algorithm::Ewtcp,
            Algorithm::SemiCoupled,
            Algorithm::Lia,
            Algorithm::FullyCoupled,
            Algorithm::Olia,
            Algorithm::OptimumProbe,
        ];
        assert_eq!(
            grid("ablation_epsilon"),
            vec![
                axis("algorithm", algs(&family)),
                axis("c1_over_c2", nums(&[2.0])),
                axis("ratio", nums(&[1.0])),
            ]
        );
        // ...and it runs Scenario C (cheap on the flow backend).
        let mut ctx = JobCtx::new(11, true);
        ctx.params.insert("backend".to_string(), Json::from("flow"));
        let out = (find("ablation_epsilon").unwrap().run)(&ctx);
        assert_eq!(
            out.metrics.keys().collect::<Vec<_>>(),
            vec!["multipath_norm", "p1", "p2", "single_norm"],
        );
    }

    #[test]
    fn scenario_c_job_and_measure_return_the_same_metrics() {
        // The registry job (digest sink on) and `crate::measure` run one
        // body, so at one seed an orchestra sweep and a figure table agree,
        // and the digest sink does not change the results.
        let mut ctx = JobCtx::new(5, true);
        for (axis, value) in [
            ("algorithm", Json::from("olia")),
            ("c1_over_c2", Json::from(1.0)),
            ("ratio", Json::from(0.5)),
        ] {
            ctx.params.insert(axis.to_string(), value);
        }
        let job = scenario_c_job(&ctx);
        assert_ne!(job.digest, "-");
        let key = point_key("scenario_c", &ctx.params);
        let measured = crate::measure(&key, scenario_c, &scenario_c_params(&ctx), &ctx.cfg());
        let means: BTreeMap<String, f64> = measured
            .iter()
            .map(|(k, s)| {
                assert_eq!(s.n, 1);
                (k.clone(), s.mean)
            })
            .collect();
        assert_eq!(job.metrics, means);
    }

    #[test]
    fn smoke_job_is_deterministic_and_seed_sensitive() {
        let mut ctx = JobCtx::new(11, true);
        ctx.params
            .insert("algorithm".to_string(), Json::from("olia"));
        let a = smoke_job(&ctx);
        let b = smoke_job(&ctx);
        assert_eq!(a.digest, b.digest, "same seed must be byte-identical");
        assert_eq!(a.metrics, b.metrics);
        assert!(a.trace_events > 0, "digest pass saw no events");
        assert!(a.events > 0);
        assert!((a.sim_s - 3.0).abs() < 1e-9, "smoke runs 3 simulated secs");

        let mut other = ctx.clone();
        other.seed = 12;
        let c = smoke_job(&other);
        assert_ne!(a.digest, c.digest, "different seed, different trace");
    }

    #[test]
    fn digest_capture_can_be_disabled() {
        let mut ctx = JobCtx::new(11, true);
        ctx.digest = false;
        let out = smoke_job(&ctx);
        assert_eq!(out.digest, "-");
        assert_eq!(out.trace_events, 0);
        assert!(out.events > 0);
    }

    #[test]
    fn heavytail_churn_retires_and_recycles() {
        let ctx = JobCtx::new(7, true);
        let out = fattree_heavytail_job(&ctx);
        let m = &out.metrics;
        assert!(m["completed"] > 0.0, "no churn flow completed: {m:?}");
        // The endpoint table must plateau near the concurrent population,
        // not grow to two endpoints per planned flow.
        assert!(
            m["endpoint_slots"] < 2.0 * m["planned"],
            "slots did not plateau: {m:?}"
        );
        assert!(m["pool_recycled"] > 0.0, "ring pool never recycled: {m:?}");
        // Every completed flow was retired: the live population is back to
        // the long-flow baseline plus the stragglers that never finished.
        assert_eq!(
            m["live_at_end"],
            2.0 * (m["long_flows"] + m["planned"] - m["completed"]),
            "retirement left endpoints installed: {m:?}"
        );

        // A second run on this thread starts from a pool populated by the
        // first run's retirements. Recycled capacity must be invisible:
        // byte-identical trace.
        let again = fattree_heavytail_job(&ctx);
        assert_eq!(out.digest, again.digest, "ring recycling changed the trace");
    }

    #[test]
    #[should_panic(expected = "not a known algorithm")]
    fn unknown_algorithm_fails_the_job() {
        let mut ctx = JobCtx::new(1, true);
        ctx.params
            .insert("algorithm".to_string(), Json::from("bogus"));
        smoke_job(&ctx);
    }

    #[test]
    fn flow_backend_emits_packet_metric_keys() {
        // The backend axis only works if both engines emit the same
        // columns; check scenario C's key set (cheap at flow level even
        // in debug builds — rates, not packets).
        let mut ctx = JobCtx::new(11, true);
        ctx.params.insert("backend".to_string(), Json::from("flow"));
        let flow = scenario_c_job(&ctx);
        assert_eq!(
            flow.metrics.keys().collect::<Vec<_>>(),
            vec!["multipath_norm", "p1", "p2", "single_norm"],
        );
        assert!(flow.trace_events > 0, "flow digest saw no events");
        assert_ne!(flow.digest, "-");

        // Deterministic: same (params, seed) twice is byte-identical.
        let again = scenario_c_job(&ctx);
        assert_eq!(flow.digest, again.digest);
        assert_eq!(flow.metrics, again.metrics);
    }

    #[test]
    fn file_stems_are_safe_and_distinct() {
        let a = file_stem("smoke?algorithm=lia&c1_over_c2=0.8#seed=1");
        let b = file_stem("smoke?algorithm=lia&c1_over_c2=0.8#seed=2");
        assert_ne!(a, b);
        assert!(a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'));
        // Long keys truncate but stay distinct via the hash suffix.
        let long1 = file_stem(&format!("x?p={}#seed=1", "y".repeat(200)));
        let long2 = file_stem(&format!("x?p={}#seed=2", "y".repeat(200)));
        assert_ne!(long1, long2);
        assert!(long1.len() < 100);
    }

    #[test]
    fn backend_defaults_to_packet() {
        assert_eq!(JobCtx::new(1, true).backend(), Backend::Packet);
    }

    #[test]
    #[should_panic(expected = "must be \"packet\" or \"flow\"")]
    fn unknown_backend_fails_the_job() {
        let mut ctx = JobCtx::new(1, true);
        ctx.params
            .insert("backend".to_string(), Json::from("hybrid"));
        ctx.backend();
    }

    #[test]
    #[should_panic(expected = "only on backend=\"flow\"")]
    fn flowscale_churn_rejects_the_packet_backend() {
        flowscale_churn_job(&JobCtx::new(1, true));
    }

    #[test]
    fn flowscale_churn_quick_runs_and_recycles() {
        let mut ctx = JobCtx::new(9, true);
        ctx.params.insert("backend".to_string(), Json::from("flow"));
        let out = flowscale_churn_job(&ctx);
        let m = &out.metrics;
        assert!(m["completed"] > 0.0, "no churn flow completed: {m:?}");
        assert!(m["peak_active"] >= m["resident"], "churn never overlapped");
        assert!(m["recomputes"] > 0.0);
        let again = flowscale_churn_job(&ctx);
        assert_eq!(out.digest, again.digest, "churn job must be deterministic");
    }
}
