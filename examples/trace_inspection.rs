//! Structured tracing: attach a ring sink to a live simulation, inspect the
//! recorded events, and replay them through the invariant checker.
//!
//! ```text
//! cargo run --release --example trace_inspection
//! ```
//!
//! For full-trace capture to disk, the bench binaries honor `MPTCP_TRACE`
//! (see EXPERIMENTS.md) — this example shows the in-memory path instead:
//! no files, bounded memory, post-mortem access to the tail of the run.

use std::collections::BTreeMap;

use eventsim::{SimDuration, SimTime};
use mpsim_core::Algorithm;
use netsim::{route, FaultPlan, QueueConfig, QueueId, Simulation};
use tcpsim::{ConnectionSpec, PathSpec};
use trace::{InvariantChecker, RingSink, TraceEvent, Tracer};

/// One 10 Mb/s RED bottleneck plus a fast reverse path.
fn bottleneck_pair(sim: &mut Simulation) -> (QueueId, QueueId) {
    let fwd = sim.add_queue(QueueConfig::red_paper(10e6, SimDuration::from_millis(40)));
    let rev = sim.add_queue(QueueConfig::drop_tail(
        10e9,
        SimDuration::from_millis(40),
        100_000,
    ));
    (fwd, rev)
}

fn main() {
    let mut sim = Simulation::new(42);
    // Keep the most recent 200k events; older ones are evicted, counted.
    let (tracer, ring) = Tracer::to_sink(RingSink::new(200_000));
    sim.set_tracer(tracer);

    let (f1, r1) = bottleneck_pair(&mut sim);
    let (f2, r2) = bottleneck_pair(&mut sim);
    let conn = ConnectionSpec::new(Algorithm::Olia)
        .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
        .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
        .install(&mut sim, 0);
    sim.start_endpoint_at(conn.source, SimTime::ZERO);
    // An outage on path 0 makes the trace interesting: RTOs, a Failed
    // transition, re-probes, and the recovery.
    sim.install_fault_plan(FaultPlan::new().down_between(
        f1,
        SimTime::from_secs_f64(10.0),
        SimTime::from_secs_f64(20.0),
    ));
    sim.run_until(SimTime::from_secs_f64(30.0));

    let ring = ring.borrow();
    println!(
        "recorded {} events ({} evicted, {} retained)\n",
        ring.recorded(),
        ring.evicted(),
        ring.len()
    );

    // Tally by event kind.
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, ev) in ring.events() {
        *counts.entry(ev.kind()).or_insert(0) += 1;
    }
    println!("event mix:");
    for (name, n) in &counts {
        println!("  {name:<12} {n}");
    }

    // The interesting lines: every subflow state transition, verbatim JSONL.
    println!("\nsubflow lifecycle (as JSONL):");
    for (t, ev) in ring.events() {
        if matches!(
            ev,
            TraceEvent::SubflowState { .. } | TraceEvent::Probe { .. }
        ) {
            println!("  {}", ev.to_jsonl(t));
        }
    }

    // Replay the whole retained trace through the invariant checker.
    let chk = InvariantChecker::new(1.0).check_all(ring.events());
    println!(
        "\ninvariants over {} events: {}",
        chk.events_seen(),
        if chk.ok() {
            "all hold".to_string()
        } else {
            format!(
                "{} violations: {:?}",
                chk.violations().len(),
                chk.violations()
            )
        }
    );
    println!(
        "delivered {} packets; goodput {:.2} Mb/s",
        conn.handle.read(|st| st.delivered_packets),
        conn.handle.goodput_mbps(sim.now())
    );
}
