//! Regression pin for the `HashMap` → `BTreeMap` migrations done for the
//! simlint R2 (unordered-collection) audit.
//!
//! The `dsn_map` in `tcpsim::source` was a `HashMap` keyed by subflow
//! sequence number; it is only ever used point-wise (entry / remove), never
//! iterated, so replacing it with a `BTreeMap` must leave every run
//! byte-identical. This test pins the full-trace digest of a two-path OLIA
//! run (RED bottlenecks, a mid-run outage, and a loss burst — the same
//! scenario the observability suite uses) so any behavioural drift from a
//! collection swap shows up as a digest mismatch, not as a silent change in
//! the paper's numbers.

use std::rc::Rc;

use eventsim::{SimDuration, SimTime};
use mpsim_core::Algorithm;
use netsim::{route, FaultAction, FaultPlan, QueueConfig, Simulation};
use tcpsim::{ConnectionSpec, PathSpec};
use trace::{Digest64, JsonlSink, Tracer};

/// Digest of the serialized JSONL trace for one seeded run.
fn trace_digest(seed: u64) -> (u64, u64) {
    let mut sim = Simulation::new(seed);
    let (tracer, sink) = Tracer::to_sink(JsonlSink::new(Vec::new()));
    sim.set_tracer(tracer);
    let mk = |sim: &mut Simulation| {
        (
            sim.add_queue(QueueConfig::red_paper(10e6, SimDuration::from_millis(40))),
            sim.add_queue(QueueConfig::drop_tail(
                10e9,
                SimDuration::from_millis(40),
                100_000,
            )),
        )
    };
    let (f1, r1) = mk(&mut sim);
    let (f2, r2) = mk(&mut sim);
    let conn = ConnectionSpec::new(Algorithm::Olia)
        .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
        .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
        .install(&mut sim, 0);
    sim.start_endpoint_at(conn.source, SimTime::ZERO);
    sim.install_fault_plan(
        FaultPlan::new()
            .down_between(f1, SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(5.0))
            .at(
                SimTime::from_secs_f64(6.0),
                FaultAction::LossBurst {
                    queue: f2,
                    p: 0.05,
                    duration: SimDuration::from_secs(1),
                },
            ),
    );
    sim.run_until(SimTime::from_secs_f64(8.0));
    drop(sim);
    let jsonl = Rc::try_unwrap(sink)
        .expect("sink uniquely owned")
        .into_inner();
    let lines = jsonl.lines();
    let bytes = jsonl.into_inner();
    (Digest64::of(&bytes), lines)
}

/// Golden digest captured on the pre-migration tree (dsn_map still a
/// `HashMap`). The BTreeMap-backed source must reproduce it exactly.
#[test]
fn dsn_map_migration_preserves_trace_digest() {
    let (digest, lines) = trace_digest(23);
    assert!(lines > 1_000, "trace suspiciously small: {lines} lines");
    println!("GOLDEN digest=0x{digest:016x} lines={lines}");
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "seed-23 trace digest drifted: a collection migration changed behaviour"
    );
}

/// Captured from the seed tree before the R2 migrations; recaptured when
/// the trace vocabulary grew (rtt_sample events, qlen on dequeue) — the
/// stream's byte content changed deliberately, its ordering did not.
const GOLDEN_DIGEST: u64 = 0x7187_b539_9b5e_f26a;

// ---------------------------------------------------------------------------
// Scale-architecture differentials: the route interner, the connection-state
// ring pool, and the lazy topology build are all *representation* changes and
// must leave traces byte-identical. Each scenario below pins a golden digest
// (the interner/pool/lazy-build-era perf harness verified these equal the
// pre-arena tree at full horizon) so future arena work that perturbs
// behaviour fails here, close to the cause, instead of in the paper numbers.
// ---------------------------------------------------------------------------

use eventsim::SimRng;
use topo::{FatTree, FatTreeConfig, ScenarioB, ScenarioBParams};
use trace::DigestSink;

/// Digest one seeded Scenario B run (red upgraded to multipath — both ISPs'
/// bottlenecks exercised, 30 OLIA connections through the interner).
fn scenario_b_digest(seed: u64) -> (String, u64) {
    let mut sim = Simulation::new(seed);
    let (tracer, sink) = Tracer::to_sink(DigestSink::new());
    sim.set_tracer(tracer);
    let s = ScenarioB::build(&mut sim, &ScenarioBParams::paper(true, Algorithm::Olia));
    let mut rng = SimRng::seed_from_u64(seed ^ 0xB4B4);
    for c in s.blue.iter().chain(s.red.iter()) {
        let jitter = SimDuration::from_secs_f64(rng.f64() * 0.5);
        sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
    }
    sim.run_until(SimTime::from_secs_f64(3.0));
    let s = sink.borrow();
    (s.hex(), s.events())
}

#[test]
fn scenario_b_trace_digest_pinned() {
    let (digest, events) = scenario_b_digest(42);
    assert!(events > 10_000, "trace suspiciously small: {events} events");
    println!("SCENARIO_B digest={digest} events={events}");
    assert_eq!(
        digest, SCENARIO_B_DIGEST,
        "scenario_b trace drifted: an arena/pool representation change altered behaviour"
    );
}

const SCENARIO_B_DIGEST: &str = "f6ecd1d6158f14df";

/// Digest one seeded k=8 FatTree permutation slice — the `perf` harness's
/// `k8_perm` recipe (OLIA ×4 subflows, every host sending) at a short
/// horizon so the differential stays cheap enough for the debug test
/// profile.
fn fattree_digest(k: usize, secs: f64, seed: u64, eager: bool) -> (String, u64) {
    let mut sim = Simulation::new(seed);
    let (tracer, sink) = Tracer::to_sink(DigestSink::new());
    sim.set_tracer(tracer);
    let cfg = FatTreeConfig::default();
    let ft = if eager {
        FatTree::build_eager(&mut sim, k, &cfg)
    } else {
        FatTree::build(&mut sim, k, &cfg)
    };
    let n = ft.num_hosts();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5CA1E);
    let perm = workload::permutation_traffic(&mut rng, n);
    let tcp = bench::fattree::dc_config();
    let conns: Vec<_> = (0..n)
        .map(|h| {
            ft.connect(
                &mut sim,
                h,
                perm[h],
                Algorithm::Olia,
                4,
                None,
                tcp,
                &mut rng,
                h as u64,
            )
        })
        .collect();
    for c in &conns {
        let jitter = SimDuration::from_secs_f64(rng.f64() * secs * 0.25);
        sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
    }
    sim.run_until(SimTime::from_secs_f64(secs));
    let s = sink.borrow();
    (s.hex(), s.events())
}

#[test]
fn fattree_k8_trace_digest_pinned() {
    let (digest, events) = fattree_digest(8, 0.05, 8, false);
    assert!(
        events > 100_000,
        "trace suspiciously small: {events} events"
    );
    println!("FATTREE_K8 digest={digest} events={events}");
    assert_eq!(
        digest, FATTREE_K8_DIGEST,
        "k=8 fattree trace drifted: an arena/pool representation change altered behaviour"
    );
}

const FATTREE_K8_DIGEST: &str = "adaff755d7967403";

/// The lazy (streamed) topology build must be invisible: materializing
/// queues on first touch instead of eagerly cannot change a single event.
#[test]
fn fattree_lazy_and_eager_builds_trace_identically() {
    let lazy = fattree_digest(4, 0.3, 17, false);
    let eager = fattree_digest(4, 0.3, 17, true);
    assert!(
        lazy.1 > 10_000,
        "trace suspiciously small: {} events",
        lazy.1
    );
    assert_eq!(lazy, eager, "lazy queue materialization changed the trace");
}
