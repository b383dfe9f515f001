//! Tracked perf record: one scenario table, one check.
//!
//! The table ([`SCENARIOS`]) covers three regimes:
//!
//! * the event loop on small pinned packet scenarios: `scenario_b` (the
//!   paper's Scenario B at quick scale), `fattree` (a k = 4 Fig. 13 slice)
//!   and `flap` (the dc_robustness two-path dumbbell with a scripted link
//!   flap);
//! * packet-level scale: `k8_perm` / `k16_perm` permutation traffic (bytes
//!   of the lazy topology build, bytes per connection, peak live bytes,
//!   route-arena occupancy);
//! * flow-level scale: `flow_check` (k = 8, 2 000 resident flows) and
//!   `flow_100k` (k = 16, 10⁵ resident flows) under heavy-tailed churn, as
//!   installed by `flowsim::fattree::install_churn`.
//!
//! Every row runs one traced digest pass, then one untraced counting pass.
//! Each pass starts from an empty route arena and ring pool and snapshots a
//! counting allocator at the phase boundaries the scenario marks (topology
//! built, workload installed, run finished). The digest pass folds the full
//! JSONL trace into an FNV-1a digest: the behaviour contract that an
//! optimization must leave byte-identical. It also pays for one-time
//! thread-local state such as tcpsim's interned configs, so the counting
//! pass's counts and bytes repeat exactly from run to run.
//!
//! Nothing here is timed; the repository benchmark (`perfbench/`) owns
//! wall-clock figures. The report's profile carries zero wall-clock fields
//! ([`RunReport::finish_timeless`]), so the tracked record changes only
//! when behaviour or memory does.
//!
//! Usage:
//!
//! ```text
//! perf --out BENCH_perf.json      # run every row, write the record
//! perf --check BENCH_perf.json    # checked rows: digests + byte budgets
//! ```
//!
//! The report follows the `mptcp-run-report/v2` schema (`validate_report`
//! accepts it): figures are `metrics.<scenario>.<figure>`, goldens are
//! `params.digest.<scenario>`. `--check` re-runs the checked scenarios and
//! fails if a digest drifted or an install-bytes figure exceeds [`SLACK`]
//! times its recorded budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use bench::fattree::dc_config;
use bench::report::RunReport;
use eventsim::{SimDuration, SimRng, SimTime};
use flowsim::fattree::{install_churn, ChurnParams, FlowFatTree};
use flowsim::{FlowFatTreeConfig, FlowNet, FlowSim, FlowSimConfig};
use json::{parse, Json};
use mpsim_core::Algorithm;
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

/// `--check` tolerates this much growth over a recorded install-bytes
/// budget. Allocation sizes are deterministic, so the slack only absorbs
/// standard-library differences across toolchain versions.
const SLACK: f64 = 1.25;

/// One row of the scenario table.
struct Scenario {
    name: &'static str,
    seed: u64,
    /// Simulated horizon, seconds.
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

use Workload::{Churn, Loop, Perm};

impl Workload {
    /// The install-bytes figure `--check` holds to a budget.
    fn budget(&self) -> Option<&'static str> {
        match self {
            Perm { .. } => Some("bytes_per_conn"),
            Churn { .. } => Some("bytes_per_flow"),
            Loop(_) => None,
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

/// Allocator snapshots at the phase boundaries of one pass. A phase the
/// scenario never marks keeps the pass-start snapshot.
struct Meter {
    start: Snapshot,
    built: Snapshot,
    installed: Snapshot,
    ran: Snapshot,
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
            start,
            built: start,
            installed: start,
            ran: start,
        }
    }

    /// The topology is built.
    fn built(&mut self) {
        self.built = Snapshot::now();
    }

    /// The workload is installed and scheduled.
    fn installed(&mut self) {
        self.installed = Snapshot::now();
    }

    /// The run has reached its horizon.
    fn ran(&mut self) {
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
}

/// One pass's figures: counts and bytes, identical on every run of the
/// same build.
type Figures = Vec<(&'static str, f64)>;

/// One pass of `s` with `tracer` attached.
fn pass(s: &Scenario, tracer: &Tracer) -> Figures {
    let mut m = Meter::start();
    let run_for = SimDuration::from_secs_f64(s.horizon_s);
    let horizon = SimTime::ZERO + run_for;
    match s.workload {
        Loop(install) => {
            let mut sim = Simulation::new(s.seed);
            sim.set_tracer(tracer.clone());
            install(&mut sim, s.seed);
            sim.run_until(horizon);
            m.ran();
            let l = sim.loop_stats();
            vec![
                ("events", sim.events_processed() as f64),
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
            ]
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
            sim.run_until(horizon);
            m.ran();
            let delivered: u64 = conns
                .iter()
                .map(|c| c.handle.read(|f| f.delivered_packets))
                .sum();
            let n = conns.len() as f64;
            let l = sim.loop_stats();
            vec![
                ("conns", n),
                ("events", sim.events_processed() as f64),
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
            ]
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
            sim.run_until(horizon);
            m.ran();
            let flows = (resident + planned_churn) as f64;
            vec![
                ("flows", flows),
                ("resident", resident as f64),
                ("planned_churn", planned_churn as f64),
                ("events", sim.events_processed() as f64),
                ("recomputes", sim.recomputes() as f64),
                ("started", sim.started_flows() as f64),
                ("completed", sim.completed_flows() as f64),
                ("peak_active", sim.peak_active() as f64),
                ("topo_bytes", m.topo_bytes()),
                ("bytes_per_flow", m.install_bytes() / flows),
                ("peak_live_bytes", m.peak_live_bytes()),
            ]
        }
    }
}

/// One row's record: the hex digest and byte length of its full JSONL
/// trace (byte-for-byte what a `JsonlSink` would have written, see
/// `trace::DigestSink`), and the figures of the untraced counting pass
/// that follows the traced one.
struct Measured {
    digest: String,
    trace_bytes: u64,
    figures: Figures,
}

/// Run `s`'s traced digest pass, then its untraced counting pass.
fn measure(s: &Scenario) -> Measured {
    let (digest, trace_bytes) = {
        let (tracer, sink) = Tracer::to_sink(DigestSink::new());
        pass(s, &tracer);
        drop(tracer);
        let sink = sink.borrow();
        (sink.hex(), sink.bytes())
    };
    Measured {
        digest,
        trace_bytes,
        figures: pass(s, &Tracer::disabled()),
    }
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

/// `--check`: re-run every checked scenario against the goldens and
/// budgets recorded in the report at `path`. Returns the exit code.
fn check(path: &str) -> i32 {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let doc = match text.and_then(|t| parse(&t).map_err(|e| format!("cannot parse {path}: {e}"))) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perf: {e}");
            return 1;
        }
    };
    let mut failed = 0;
    for s in SCENARIOS.iter().filter(|s| s.checked) {
        let m = measure(s);
        let bytes = s.workload.budget().map(|key| {
            let figure = m.figures.iter().find(|(k, _)| *k == key);
            (
                key,
                figure.expect("a budgeted workload reports its figure").1,
            )
        });
        let failures = verdict(&doc, s.name, &m.digest, bytes);
        if failures.is_empty() {
            let budget = bytes.map(|(key, v)| format!(", {key} {v:.1}"));
            let budget = budget.unwrap_or_default();
            println!("{}: digest {}{budget} OK", s.name, m.digest);
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

/// `--out`: run every scenario and write the record to `path`. Returns the
/// exit code.
fn record(path: &str) -> i32 {
    let mut report = RunReport::start("perf");
    for s in SCENARIOS {
        let m = measure(s);
        println!(
            "{}: digest {} ({} trace bytes)",
            s.name, m.digest, m.trace_bytes
        );
        for &(k, v) in &m.figures {
            report.metric(&format!("{}.{k}", s.name), v);
        }
        report.param(&format!("{}.seed", s.name), s.seed);
        report.param(&format!("{}.horizon_s", s.name), s.horizon_s);
        report.param(&format!("digest.{}", s.name), m.digest);
        report.param(&format!("trace_bytes.{}", s.name), m.trace_bytes);
    }
    let doc = report.finish_timeless();
    if let Err(e) = bench::report::validate(&doc) {
        eprintln!("perf: produced report fails validation: {e}");
        return 1;
    }
    match std::fs::write(path, doc.render_pretty() + "\n") {
        Ok(()) => {
            println!("perf report: {path}");
            0
        }
        Err(e) => {
            eprintln!("perf: cannot write {path}: {e}");
            1
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let code = match (args.next().as_deref(), args.next(), args.next()) {
        (Some("--out"), Some(path), None) => record(&path),
        (Some("--check"), Some(path), None) => check(&path),
        _ => {
            eprintln!("usage: perf --out FILE | perf --check REPORT");
            2
        }
    };
    std::process::exit(code);
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
        let params = doc.get("params").and_then(Json::as_object).unwrap();
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        for s in SCENARIOS {
            let digest = format!("digest.{}", s.name);
            assert!(params.contains_key(&digest), "no {digest}");
            if let Some(key) = s.workload.budget().filter(|_| s.checked) {
                let key = format!("{}.{key}", s.name);
                let budget = metrics.get(&key).and_then(Json::as_f64);
                assert!(budget.is_some(), "no budget {key}");
            }
        }
        // The record holds only the behaviour contract: no timing (the
        // `wall_s` suffix also covers `build_wall_s`), nothing merged from
        // another run, and no metric of a row the table no longer has.
        let derived = ["baseline.", "speedup.", "shrink."];
        let timing = ["wall_s", "events_per_sec", "sim_wall_ratio"];
        for key in metrics.keys() {
            assert!(!derived.iter().any(|p| key.starts_with(p)), "{key}");
            assert!(!timing.iter().any(|t| key.ends_with(t)), "{key}");
            let row = key.split_once('.').map(|(row, _)| row);
            assert!(SCENARIOS.iter().any(|s| Some(s.name) == row), "{key}");
        }
        for key in ["perf_passes", "baseline_from"] {
            assert!(!params.contains_key(key), "param {key}");
        }
        let profile = doc.get("profile").unwrap();
        assert_eq!(profile.get("wall_s").and_then(Json::as_f64), Some(0.0));
    }
}
