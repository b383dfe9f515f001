//! Observability end-to-end: trace determinism, trace-driven invariant
//! checking on live runs, and run-report schema round-trips.

use std::cell::RefCell;
use std::rc::Rc;

use eventsim::{SimDuration, SimTime};
use mpsim_core::Algorithm;
use netsim::{route, FaultAction, FaultPlan, QueueConfig, Simulation};
use tcpsim::{Connection, ConnectionSpec, PathSpec};
use trace::{Digest64, InvariantChecker, JsonlSink, RingSink, TraceFilter, Tracer};

/// A two-path OLIA connection over RED bottlenecks with a mid-run outage
/// and loss burst — exercises enqueue/dequeue/drop, cwnd, RTO, subflow
/// state, fault, and delivery events.
fn build(sim: &mut Simulation) -> Connection {
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
    let (f1, r1) = mk(sim);
    let (f2, r2) = mk(sim);
    let conn = ConnectionSpec::new(Algorithm::Olia)
        .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
        .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
        .install(sim, 0);
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
    conn
}

/// Run the scenario with a JSONL sink attached and return the FNV digest of
/// the serialized trace plus the line count.
fn trace_digest(seed: u64) -> (u64, u64) {
    let mut sim = Simulation::new(seed);
    let (tracer, sink) = Tracer::to_sink(JsonlSink::new(Vec::new()));
    sim.set_tracer(tracer);
    let _conn = build(&mut sim);
    sim.run_until(SimTime::from_secs_f64(8.0));
    drop(sim); // release the simulator's handle on the sink
    let jsonl = Rc::try_unwrap(sink)
        .expect("sink uniquely owned")
        .into_inner();
    let lines = jsonl.lines();
    let bytes = jsonl.into_inner();
    (Digest64::of(&bytes), lines)
}

#[test]
fn same_seed_gives_byte_identical_jsonl_trace() {
    let (a, lines_a) = trace_digest(11);
    let (b, lines_b) = trace_digest(11);
    assert_eq!(a, b, "same seed must serialize to identical bytes");
    assert_eq!(lines_a, lines_b);
    assert!(lines_a > 1_000, "trace suspiciously small: {lines_a} lines");
}

#[test]
fn different_seed_gives_different_trace() {
    let (a, _) = trace_digest(11);
    let (b, _) = trace_digest(12);
    assert_ne!(a, b, "RED randomness must show up in the trace");
}

#[test]
fn invariants_hold_on_a_live_faulted_run() {
    let mut sim = Simulation::new(7);
    let (tracer, checker) = Tracer::to_sink(InvariantChecker::new(1.0));
    sim.set_tracer(tracer);
    let conn = build(&mut sim);
    sim.run_until(SimTime::from_secs_f64(8.0));
    assert!(
        conn.handle.read(|st| st.delivered_packets) > 0,
        "scenario produced no traffic"
    );
    let checker = checker.borrow();
    assert!(checker.events_seen() > 1_000);
    assert!(checker.ok(), "violations: {:?}", checker.violations());
}

#[test]
fn ring_replay_through_checker_matches_live_checking() {
    let mut sim = Simulation::new(7);
    let (tracer, ring) = Tracer::to_sink(RingSink::new(usize::MAX >> 1));
    sim.set_tracer(tracer);
    let _conn = build(&mut sim);
    sim.run_until(SimTime::from_secs_f64(4.0));
    let ring = ring.borrow();
    assert_eq!(ring.evicted(), 0, "ring must have kept the whole run");
    let replayed = InvariantChecker::new(1.0).check_all(ring.events());
    assert!(replayed.ok(), "violations: {:?}", replayed.violations());
    assert_eq!(replayed.events_seen(), ring.recorded());
}

#[test]
fn conn_filter_restricts_trace_to_one_connection() {
    let mut sim = Simulation::new(9);
    let sink = Rc::new(RefCell::new(RingSink::new(usize::MAX >> 1)));
    sim.set_tracer(Tracer::enabled(sink.clone()).with_filter(TraceFilter::all().conns(&[1])));
    let q = sim.add_queue(QueueConfig::red_paper(10e6, SimDuration::from_millis(40)));
    let rev = sim.add_queue(QueueConfig::drop_tail(
        10e9,
        SimDuration::from_millis(40),
        100_000,
    ));
    for tag in 0..3u64 {
        let c = ConnectionSpec::new(Algorithm::Reno)
            .with_path(PathSpec::new(route(&[q]), route(&[rev])))
            .install(&mut sim, tag);
        sim.start_endpoint_at(c.source, SimTime::ZERO);
    }
    sim.run_until(SimTime::from_secs_f64(2.0));
    let ring = sink.borrow();
    assert!(ring.recorded() > 0, "filtered trace is empty");
    for (_, ev) in ring.events() {
        if let Some(conn) = ev.conn() {
            assert_eq!(conn, 1, "foreign connection leaked through: {ev:?}");
        }
    }
}

#[test]
fn run_reports_round_trip_through_the_validator() {
    use bench::json::parse;
    use bench::report::{validate, RunReport};
    use bench::table::Table;

    let mut sim = Simulation::new(3);
    let mut report = RunReport::start("observability_integration");
    report.param("seed", 3u64);
    let conn = build(&mut sim);
    sim.run_until(SimTime::from_secs_f64(2.0));
    report.metric(
        "delivered_packets",
        conn.handle.read(|st| st.delivered_packets) as f64,
    );
    let mut t = Table::new("goodput", &["conn", "Mb/s"]);
    t.row(&[
        "0".into(),
        format!("{:.3}", conn.handle.goodput_mbps(sim.now())),
    ]);
    report.table(&t);

    let doc = report.finish();
    validate(&doc).expect("fresh report must validate");
    let reparsed = parse(&doc.render_pretty()).unwrap();
    validate(&reparsed).expect("report must survive a serialize/parse round trip");
    // The profiling tally is per thread, so the window holds exactly this
    // simulation's events, whatever other test threads run meanwhile.
    let profile = reparsed.get("profile").unwrap();
    assert_eq!(
        profile.get("events").unwrap().as_f64().unwrap(),
        sim.events_processed() as f64,
    );
    assert_eq!(profile.get("sim_s").unwrap().as_f64(), Some(2.0));
    assert!(profile.get("sim_wall_ratio").unwrap().as_f64().unwrap() > 0.0);
}
