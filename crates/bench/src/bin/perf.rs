//! Tracked perf harness: one scenario table, one pass loop, one check.
//!
//! The table ([`SCENARIOS`]) covers three regimes:
//!
//! * event-loop cost on small pinned packet scenarios: `scenario_b` (the
//!   paper's Scenario B at quick scale), `fattree` (a k = 4 Fig. 13 slice)
//!   and `flap` (the dc_robustness two-path dumbbell with a scripted link
//!   flap);
//! * packet-level scale: `k8_perm` / `k16_perm` permutation traffic (bytes
//!   per connection, peak live bytes, route-arena occupancy) and
//!   `build.k8` / `build.k16` / `build.k32`, the lazy topology build alone;
//! * flow-level scale: `flow_check` (k = 8, 2 000 resident flows) and
//!   `flow_100k` (k = 16, 10⁵ resident flows) under heavy-tailed churn, as
//!   installed by `flowsim::fattree::install_churn`.
//!
//! Every scenario runs [`PASSES`] untraced perf passes and one traced
//! digest pass. Each pass starts from an empty route arena and ring pool
//! and snapshots a counting allocator at the phase boundaries the scenario
//! marks (topology built, workload installed, run finished). Timings come
//! from the fastest pass and every other figure from the last one, so
//! counts and bytes repeat exactly from run to run. The digest pass folds
//! the full JSONL trace into an FNV-1a digest: the behaviour contract that
//! an optimization must leave byte-identical.
//!
//! Usage:
//!
//! ```text
//! perf                                  # run, write results/perf.json
//! perf --out BENCH_perf.json --baseline-from old.json
//! perf --check BENCH_perf.json          # digests + byte budgets only
//! ```
//!
//! The report follows the `mptcp-run-report/v2` schema (`validate_report`
//! accepts it): figures are `metrics.<scenario>.<figure>`, goldens are
//! `params.digest.<scenario>`. `--baseline-from` copies an earlier
//! report's metrics in as `baseline.*` and derives `speedup.<scenario>`
//! (events/sec ratio) and `shrink.<scenario>` (install-bytes ratio).
//! `--check` is timing-free: it re-runs the checked scenarios and fails if
//! a digest drifted or an install-bytes figure exceeds [`SLACK`] times its
//! recorded budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use bench::fattree::dc_config;
use bench::json::{parse, Json};
use bench::report::RunReport;
use eventsim::{SimDuration, SimRng, SimTime};
use flowsim::fattree::{install_churn, ChurnParams, FlowFatTree};
use flowsim::{FlowFatTreeConfig, FlowNet, FlowSim, FlowSimConfig};
use mpsim_core::Algorithm;
use netsim::profile::RunProfile;
use netsim::{route, FaultPlan, QueueConfig, Simulation};
use tcpsim::{Connection, ConnectionSpec, PathSpec, TcpConfig};
use topo::{FatTree, FatTreeConfig, ScenarioB, ScenarioBParams};
use trace::{DigestSink, Tracer};
use workload::permutation_traffic;

/// Counting allocator: allocations and bytes requested (cumulative), plus
/// live bytes (alloc adds, dealloc subtracts) and their high-water mark, so
/// a pass's phases can be attributed by snapshot deltas.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Count one (re)allocation requesting `size` bytes that moves the live
/// total by `delta`.
fn count(size: usize, delta: i64) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    track(delta);
}

fn track(delta: i64) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    if delta > 0 {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: delegates directly to `System`; the counters are relaxed atomics
// with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: same pointer/layout contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: same pointer/layout contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Untraced perf passes per scenario. Timings come from the fastest pass;
/// counts and bytes from the last, after the first has paid for one-time
/// thread-local state such as tcpsim's interned configs.
const PASSES: usize = 3;

/// `--check` tolerates this much growth over a recorded install-bytes
/// budget. Allocation sizes are deterministic, so the slack only absorbs
/// standard-library differences across toolchain versions.
const SLACK: f64 = 1.25;

/// One row of the scenario table.
struct Scenario {
    name: &'static str,
    seed: u64,
    /// Simulated horizon, seconds (0 for the build-only rows).
    horizon_s: f64,
    workload: Workload,
    /// `--check` re-verifies this row's digest, and its install-bytes
    /// budget when the workload has one.
    checked: bool,
}

/// What a row runs.
enum Workload {
    /// A small hand-built packet scenario: the function installs it on a
    /// fresh simulation seeded with the row's seed.
    Loop(fn(&mut Simulation, u64)),
    /// Permutation traffic on a k-ary packet FatTree: every host opens one
    /// long-lived OLIA connection with `subflows` subflows to a distinct
    /// host, starts jittered over the first quarter of the horizon.
    Perm { k: usize, subflows: usize },
    /// The k-ary packet FatTree's build alone; carries no traffic.
    Build { k: usize },
    /// Flow-level FatTree: `resident` long-lived OLIA flows plus Poisson
    /// heavy-tailed churn, one arrival per host every `mean_gap_ms` on
    /// average.
    Churn {
        k: usize,
        resident: usize,
        subflows: usize,
        mean_gap_ms: u64,
    },
}

use Workload::{Build, Churn, Loop, Perm};

impl Workload {
    /// Whether a run emits a trace, and so has a digest.
    fn traced(&self) -> bool {
        !matches!(self, Build { .. })
    }

    /// The install-bytes figure `--check` holds to a budget.
    fn budget(&self) -> Option<&'static str> {
        match self {
            Perm { .. } => Some("bytes_per_conn"),
            Churn { .. } => Some("bytes_per_flow"),
            Loop(_) | Build { .. } => None,
        }
    }
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "scenario_b",
        seed: 1,
        horizon_s: 10.0,
        workload: Loop(scenario_b),
        checked: true,
    },
    Scenario {
        name: "fattree",
        seed: 5,
        horizon_s: 2.0,
        workload: Loop(fattree),
        checked: true,
    },
    Scenario {
        name: "flap",
        seed: 21,
        horizon_s: 46.0,
        workload: Loop(flap),
        checked: true,
    },
    Scenario {
        name: "k8_perm",
        seed: 8,
        horizon_s: 0.5,
        workload: Perm { k: 8, subflows: 4 },
        checked: false,
    },
    Scenario {
        name: "k16_perm",
        seed: 16,
        horizon_s: 0.2,
        workload: Perm { k: 16, subflows: 4 },
        checked: true,
    },
    Scenario {
        name: "build.k8",
        seed: 0xB11D ^ 8,
        horizon_s: 0.0,
        workload: Build { k: 8 },
        checked: false,
    },
    Scenario {
        name: "build.k16",
        seed: 0xB11D ^ 16,
        horizon_s: 0.0,
        workload: Build { k: 16 },
        checked: false,
    },
    Scenario {
        name: "build.k32",
        seed: 0xB11D ^ 32,
        horizon_s: 0.0,
        workload: Build { k: 32 },
        checked: false,
    },
    Scenario {
        name: "flow_check",
        seed: 7,
        horizon_s: 2.0,
        workload: Churn {
            k: 8,
            resident: 2_000,
            subflows: 2,
            mean_gap_ms: 50,
        },
        checked: true,
    },
    Scenario {
        name: "flow_100k",
        seed: 16,
        horizon_s: 2.0,
        workload: Churn {
            k: 16,
            resident: 100_000,
            subflows: 2,
            mean_gap_ms: 50,
        },
        checked: false,
    },
];

/// Scenario B at quick scale: the paper's 15+15-user ISP topology, LIA,
/// starts staggered over the first 2 s.
fn scenario_b(sim: &mut Simulation, seed: u64) {
    let s = ScenarioB::build(sim, &ScenarioBParams::paper(false, Algorithm::Lia));
    let all: Vec<_> = s.blue.iter().chain(s.red.iter()).cloned().collect();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xB4B4);
    topo::stagger_starts(sim, &all, SimDuration::from_secs(2), &mut rng);
}

/// Fig. 13 FatTree slice: k = 4, OLIA with 4 subflows, permutation
/// traffic, every connection starting at 0.
fn fattree(sim: &mut Simulation, seed: u64) {
    let ft = FatTree::build(sim, 4, &FatTreeConfig::default());
    let mut rng = SimRng::seed_from_u64(seed);
    let dsts = permutation_traffic(&mut rng, ft.num_hosts());
    let conns: Vec<_> = (0..ft.num_hosts())
        .map(|h| {
            let cfg = TcpConfig::default();
            ft.connect(
                sim,
                h,
                dsts[h],
                Algorithm::Olia,
                4,
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
}

/// dc_robustness flap: a two-path OLIA dumbbell of 10 Mb/s, 40 ms access
/// links (RED forward queue, fat reverse queue) where path 0 flaps three
/// times (4 s down / 2 s up) from 15 s on. Exercises the RTO/backoff,
/// path-manager and re-probe timer machinery.
fn flap(sim: &mut Simulation, _seed: u64) {
    let mut path = || {
        let fwd = sim.add_queue(QueueConfig::red_paper(10e6, SimDuration::from_millis(40)));
        let rev = QueueConfig::drop_tail(10e9, SimDuration::from_millis(40), 100_000);
        (fwd, sim.add_queue(rev))
    };
    let (f1, r1) = path();
    let (f2, r2) = path();
    let conn = ConnectionSpec::new(Algorithm::Olia)
        .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
        .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
        .install(sim, 0);
    sim.start_endpoint_at(conn.source, SimTime::ZERO);
    let (down, up) = (SimDuration::from_secs(4), SimDuration::from_secs(2));
    sim.install_fault_plan(FaultPlan::new().flap(f1, SimTime::from_secs_f64(15.0), down, up, 3));
}

/// The allocator counters at one instant.
#[derive(Clone, Copy)]
struct Snapshot {
    allocs: u64,
    alloc_bytes: u64,
    live: i64,
    peak: i64,
}

impl Snapshot {
    fn now() -> Snapshot {
        Snapshot {
            allocs: ALLOCS.load(Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Relaxed),
            live: LIVE.load(Relaxed),
            peak: PEAK.load(Relaxed),
        }
    }
}

/// Phase boundaries of one pass: allocator snapshots and wall times. A
/// phase the scenario never marks keeps the pass-start snapshot.
struct Meter {
    clock: RunProfile,
    start: Snapshot,
    built: Snapshot,
    installed: Snapshot,
    ran: Snapshot,
    build_wall_s: f64,
    run_wall_s: f64,
}

impl Meter {
    /// Open a pass on an empty route arena and ring pool, so no earlier
    /// pass's interned routes or recycled rings subsidize this one (or are
    /// charged to it). Clearing invalidates route handles, which is safe
    /// because every pass drops its simulation before returning.
    fn start() -> Meter {
        netsim::routes::clear();
        tcpsim::pool::clear();
        PEAK.store(LIVE.load(Relaxed), Relaxed);
        let start = Snapshot::now();
        Meter {
            clock: RunProfile::start(),
            start,
            built: start,
            installed: start,
            ran: start,
            build_wall_s: 0.0,
            run_wall_s: 0.0,
        }
    }

    /// The topology is built.
    fn built(&mut self) {
        self.build_wall_s = self.clock.finish().wall_s;
        self.built = Snapshot::now();
    }

    /// The workload is installed and scheduled.
    fn installed(&mut self) {
        self.installed = Snapshot::now();
    }

    /// Run (and time) the run phase.
    fn run(&mut self, run: impl FnOnce()) {
        let clock = RunProfile::start();
        run();
        self.run_wall_s = clock.finish().wall_s;
        self.ran = Snapshot::now();
    }

    fn topo_bytes(&self) -> f64 {
        (self.built.live - self.start.live) as f64
    }

    fn install_bytes(&self) -> f64 {
        (self.installed.live - self.built.live) as f64
    }

    fn peak_live_bytes(&self) -> f64 {
        (self.ran.peak - self.start.live) as f64
    }

    /// `count` per wall second of the run phase.
    fn rate(&self, count: f64) -> f64 {
        count / self.run_wall_s.max(1e-9)
    }
}

/// One pass's figures: `exact` counts and bytes, identical on every run of
/// the same build, and machine-dependent `timing`.
#[derive(Default)]
struct Metrics {
    exact: Vec<(&'static str, f64)>,
    timing: Vec<(&'static str, f64)>,
}

impl Metrics {
    fn get(&self, key: &str) -> Option<f64> {
        let mut all = self.exact.iter().chain(&self.timing);
        all.find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// One pass of `s` with `tracer` attached.
fn pass(s: &Scenario, tracer: &Tracer) -> Metrics {
    let mut m = Meter::start();
    let run_for = SimDuration::from_secs_f64(s.horizon_s);
    let horizon = SimTime::ZERO + run_for;
    match s.workload {
        Loop(install) => {
            let mut sim = Simulation::new(s.seed);
            sim.set_tracer(tracer.clone());
            install(&mut sim, s.seed);
            m.run(|| sim.run_until(horizon));
            let l = sim.loop_stats();
            let events = sim.events_processed() as f64;
            Metrics {
                exact: vec![
                    ("events", events),
                    ("allocs", (m.ran.allocs - m.start.allocs) as f64),
                    (
                        "alloc_bytes",
                        (m.ran.alloc_bytes - m.start.alloc_bytes) as f64,
                    ),
                    ("peak_heap", l.peak_heap as f64),
                    ("peak_arena", l.peak_arena as f64),
                    ("arena_live_end", l.arena_live as f64),
                    ("arena_inserts", l.arena_inserts as f64),
                    ("peak_timers", l.peak_timers as f64),
                    ("stale_timer_drains", l.stale_timer_drains as f64),
                ],
                timing: vec![
                    ("events_per_sec", m.rate(events)),
                    ("sim_wall_ratio", m.rate(s.horizon_s)),
                    ("wall_s", m.run_wall_s),
                ],
            }
        }
        Perm { k, subflows } => {
            let mut sim = Simulation::new(s.seed);
            sim.set_tracer(tracer.clone());
            let ft = FatTree::build(&mut sim, k, &FatTreeConfig::default());
            m.built();
            let mut rng = SimRng::seed_from_u64(s.seed ^ 0x5CA1E);
            let dsts = permutation_traffic(&mut rng, ft.num_hosts());
            let cfg = dc_config();
            let conns: Vec<Connection> = (0..ft.num_hosts())
                .map(|h| {
                    let algo = Algorithm::Olia;
                    ft.connect(
                        &mut sim, h, dsts[h], algo, subflows, None, cfg, &mut rng, h as u64,
                    )
                })
                .collect();
            for c in &conns {
                let jitter = SimDuration::from_secs_f64(rng.f64() * s.horizon_s * 0.25);
                sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
            }
            m.installed();
            let (routes, route_hops) = netsim::routes::store_stats();
            m.run(|| sim.run_until(horizon));
            let delivered: u64 = conns
                .iter()
                .map(|c| c.handle.read(|f| f.delivered_packets))
                .sum();
            let n = conns.len() as f64;
            let l = sim.loop_stats();
            let events = sim.events_processed() as f64;
            Metrics {
                exact: vec![
                    ("conns", n),
                    ("events", events),
                    ("topo_bytes", m.topo_bytes()),
                    ("bytes_per_conn", m.install_bytes() / n),
                    (
                        "peak_bytes_per_conn",
                        (m.peak_live_bytes() - m.topo_bytes()) / n,
                    ),
                    ("peak_live_bytes", m.peak_live_bytes()),
                    ("delivered", delivered as f64),
                    ("routes", routes as f64),
                    ("route_hops", route_hops as f64),
                    ("peak_heap", l.peak_heap as f64),
                    ("peak_arena", l.peak_arena as f64),
                    ("peak_timers", l.peak_timers as f64),
                ],
                timing: vec![
                    ("events_per_sec", m.rate(events)),
                    ("wall_s", m.run_wall_s),
                    ("build_wall_s", m.build_wall_s),
                ],
            }
        }
        Build { k } => {
            let mut sim = Simulation::new(s.seed);
            let ft = FatTree::build(&mut sim, k, &FatTreeConfig::default());
            m.built();
            std::hint::black_box(&ft);
            Metrics {
                // An eager build would materialize 2 queues per host plus 2
                // per edge-agg and agg-core link: 3k³/2.
                exact: vec![
                    ("queues", (3 * k * k * k / 2) as f64),
                    ("topo_bytes", m.topo_bytes()),
                ],
                timing: vec![("build_wall_s", m.build_wall_s)],
            }
        }
        Churn {
            k,
            resident,
            subflows,
            mean_gap_ms,
        } => {
            let mut net = FlowNet::new();
            let ft = FlowFatTree::build(&mut net, k, &FlowFatTreeConfig::default());
            let mut sim = FlowSim::new(net, FlowSimConfig::large_scale());
            sim.set_tracer(tracer.clone());
            m.built();
            let p = ChurnParams {
                k,
                resident,
                algorithm: Algorithm::Olia,
                subflows,
                mean_gap: SimDuration::from_millis(mean_gap_ms),
                horizon: run_for,
                seed: s.seed,
            };
            let planned_churn = install_churn(&mut sim, &ft, &p);
            m.installed();
            m.run(|| sim.run_until(horizon));
            let flows = (resident + planned_churn) as f64;
            let events = sim.events_processed() as f64;
            Metrics {
                exact: vec![
                    ("flows", flows),
                    ("resident", resident as f64),
                    ("planned_churn", planned_churn as f64),
                    ("events", events),
                    ("recomputes", sim.recomputes() as f64),
                    ("started", sim.started_flows() as f64),
                    ("completed", sim.completed_flows() as f64),
                    ("peak_active", sim.peak_active() as f64),
                    ("topo_bytes", m.topo_bytes()),
                    ("bytes_per_flow", m.install_bytes() / flows),
                    ("peak_live_bytes", m.peak_live_bytes()),
                ],
                timing: vec![("events_per_sec", m.rate(events)), ("wall_s", m.run_wall_s)],
            }
        }
    }
}

/// [`PASSES`] untraced passes: timings from the fastest, everything else
/// from the last.
fn measure(s: &Scenario) -> Metrics {
    let mut fastest = (f64::INFINITY, Vec::new());
    let mut last = Metrics::default();
    for _ in 0..PASSES {
        let clock = RunProfile::start();
        last = pass(s, &Tracer::disabled());
        let wall_s = clock.finish().wall_s;
        if wall_s < fastest.0 {
            fastest = (wall_s, last.timing.clone());
        }
    }
    last.timing = fastest.1;
    last
}

/// Traced pass: the full JSONL trace folded into FNV-1a (byte-for-byte
/// what a `JsonlSink` would have written, see `trace::DigestSink`), as
/// `(hex digest, trace bytes)`.
fn digest(s: &Scenario) -> (String, u64) {
    let (tracer, sink) = Tracer::to_sink(DigestSink::new());
    pass(s, &tracer);
    drop(tracer);
    let sink = sink.borrow();
    (sink.hex(), sink.bytes())
}

/// Compare one re-measured scenario with the tracked report `doc`: the
/// digest must equal `params.digest.<name>`, and a measured install-bytes
/// figure `(key, value)` must stay within [`SLACK`] times
/// `metrics.<name>.<key>`. Returns one message per failure; an empty list
/// passes.
fn verdict(doc: &Json, name: &str, digest: &str, bytes: Option<(&str, f64)>) -> Vec<String> {
    let mut failures = Vec::new();
    let golden = doc
        .get("params")
        .and_then(|p| p.get(&format!("digest.{name}")));
    match golden.and_then(Json::as_str) {
        Some(golden) if golden == digest => {}
        Some(golden) => failures.push(format!(
            "digest {name}: computed {digest} != golden {golden}, behaviour changed"
        )),
        None => failures.push(format!("no params.digest.{name} golden")),
    }
    if let Some((key, value)) = bytes {
        let key = format!("{name}.{key}");
        match doc
            .get("metrics")
            .and_then(|m| m.get(&key))
            .and_then(Json::as_f64)
        {
            Some(budget) if value <= budget * SLACK => {}
            Some(budget) => failures.push(format!(
                "{key}: {value:.1} exceeds {SLACK} x budget {budget:.1}, memory regressed"
            )),
            None => failures.push(format!("no metrics.{key} budget")),
        }
    }
    failures
}

/// Read and parse the report at `path`.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `--check`: re-run every checked scenario against the goldens and
/// budgets recorded in the report at `path`. Returns the exit code.
fn check(path: &str) -> i32 {
    let doc = match load(path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perf: {e}");
            return 1;
        }
    };
    let mut failed = 0;
    for s in SCENARIOS.iter().filter(|s| s.checked) {
        let bytes = s.workload.budget().map(|key| {
            let m = pass(s, &Tracer::disabled());
            let value = m.get(key).expect("a budgeted workload reports its figure");
            (key, value)
        });
        let (hex, _) = digest(s);
        let failures = verdict(&doc, s.name, &hex, bytes);
        if failures.is_empty() {
            let budget = bytes.map(|(key, v)| format!(", {key} {v:.1}"));
            println!("{}: digest {hex}{} OK", s.name, budget.unwrap_or_default());
        } else {
            failed += 1;
            for f in &failures {
                eprintln!("perf: {f}");
            }
        }
    }
    if failed == 0 {
        println!("perf: every checked scenario matches {path}");
        0
    } else {
        eprintln!("perf: {failed} scenario(s) fail against {path}");
        1
    }
}

/// Copy an earlier report's own metrics in as `baseline.*` and derive
/// `speedup.<name>` (events/sec now over then) and `shrink.<name>`
/// (install bytes then over now) for the scenarios both reports have.
fn merge_baseline(report: &mut RunReport, measured: &[(&Scenario, Metrics)], path: &str) {
    let doc = load(path).unwrap_or_else(|e| panic!("baseline: {e}"));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_else(|| panic!("baseline {path} has no metrics object"));
    for (k, v) in metrics {
        let derived = ["baseline.", "speedup.", "shrink."];
        if derived.iter().any(|p| k.starts_with(p)) {
            continue; // don't chain baselines of baselines
        }
        if let Some(x) = v.as_f64() {
            report.metric(&format!("baseline.{k}"), x);
        }
    }
    let positive = |v: Option<f64>| v.filter(|x| *x > 0.0);
    for (s, m) in measured {
        let then = |key: &str| positive(metrics.get(&format!("{}.{key}", s.name))?.as_f64());
        let now = |key: &str| positive(m.get(key));
        if let (Some(a), Some(b)) = (then("events_per_sec"), now("events_per_sec")) {
            report.metric(&format!("speedup.{}", s.name), b / a);
        }
        if let Some(key) = s.workload.budget() {
            if let (Some(a), Some(b)) = (then(key), now(key)) {
                report.metric(&format!("shrink.{}", s.name), a / b);
            }
        }
    }
    report.param("baseline_from", path);
}

fn main() {
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next(),
            "--baseline-from" => baseline = args.next(),
            "--check" => {
                let Some(path) = args.next() else {
                    eprintln!("perf: --check needs a report path");
                    std::process::exit(2);
                };
                std::process::exit(check(&path));
            }
            other => {
                eprintln!("perf: unknown argument {other:?}");
                eprintln!("usage: perf [--out FILE] [--baseline-from REPORT] [--check REPORT]");
                std::process::exit(2);
            }
        }
    }

    let mut report = RunReport::start("perf");
    report.param("perf_passes", PASSES as u64);
    println!(
        "{:<12} {:>10} {:>12} {:>8} {:>10} {:>12} {:>10}",
        "scenario", "events", "events/sec", "B/unit", "topo B", "peak live B", "wall s"
    );
    let mut measured = Vec::new();
    for s in SCENARIOS {
        let m = measure(s);
        let cell = |v: Option<f64>, digits: usize| match v {
            Some(v) => format!("{v:.digits$}"),
            None => "-".to_string(),
        };
        let wall = m.get("wall_s").or(m.get("build_wall_s")).unwrap_or(0.0);
        println!(
            "{:<12} {:>10} {:>12} {:>8} {:>10} {:>12} {wall:>10.2e}",
            s.name,
            cell(m.get("events"), 0),
            cell(m.get("events_per_sec"), 0),
            cell(s.workload.budget().and_then(|k| m.get(k)), 1),
            cell(m.get("topo_bytes"), 0),
            cell(m.get("peak_live_bytes"), 0),
        );
        for (k, v) in m.exact.iter().chain(&m.timing) {
            report.metric(&format!("{}.{k}", s.name), *v);
        }
        report.param(&format!("{}.seed", s.name), s.seed);
        report.param(&format!("{}.horizon_s", s.name), s.horizon_s);
        measured.push((s, m));
    }

    for s in SCENARIOS.iter().filter(|s| s.workload.traced()) {
        let (hex, bytes) = digest(s);
        eprintln!("digest {}: {hex} ({bytes} trace bytes)", s.name);
        report.param(&format!("digest.{}", s.name), hex);
        report.param(&format!("trace_bytes.{}", s.name), bytes);
    }
    if let Some(path) = &baseline {
        merge_baseline(&mut report, &measured, path);
    }

    match out {
        Some(path) => {
            let doc = report.finish();
            if let Err(e) = bench::report::validate(&doc) {
                eprintln!("perf: produced report fails validation: {e}");
                std::process::exit(1);
            }
            std::fs::write(&path, doc.render_pretty() + "\n")
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("perf report: {path}");
        }
        None => report.write_or_warn(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "00000000000000aa";

    #[test]
    fn verdict_fails_every_broken_contract_and_passes_a_kept_one() {
        let doc = parse(
            r#"{"params": {"digest.s": "00000000000000aa"},
                "metrics": {"s.bytes_per_conn": 100}}"#,
        )
        .unwrap();
        let budget = |value| Some(("bytes_per_conn", value));
        assert!(verdict(&doc, "s", GOLDEN, None).is_empty());
        assert!(verdict(&doc, "s", GOLDEN, budget(125.0)).is_empty());
        // Wrong digest, missing golden, over budget, missing budget.
        assert_eq!(verdict(&doc, "s", "00000000000000ab", None).len(), 1);
        assert_eq!(verdict(&doc, "t", GOLDEN, None).len(), 1);
        assert_eq!(verdict(&doc, "s", GOLDEN, budget(125.5)).len(), 1);
        let unbudgeted = Some(("bytes_per_flow", 1.0));
        assert_eq!(verdict(&doc, "s", GOLDEN, unbudgeted).len(), 1);
    }

    #[test]
    fn tracked_report_pins_every_scenario() {
        let doc = parse(include_str!("../../../../BENCH_perf.json")).unwrap();
        for s in SCENARIOS {
            let digest = doc
                .get("params")
                .and_then(|p| p.get(&format!("digest.{}", s.name)));
            assert_eq!(digest.is_some(), s.workload.traced(), "digest.{}", s.name);
            if let Some(key) = s.workload.budget().filter(|_| s.checked) {
                let key = format!("{}.{key}", s.name);
                let budget = doc.get("metrics").and_then(|m| m.get(&key));
                assert!(budget.and_then(Json::as_f64).is_some(), "no budget {key}");
            }
        }
    }
}
