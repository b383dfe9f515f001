//! Case execution: build the topology, install the plan, run under the
//! full oracle stack, and return a verdict.
//!
//! The run is a pure function of (case, TCP config): the simulation is
//! seeded from the case, every oracle observes the same trace stream that
//! feeds the FNV digest, and the digest doubles as the byte-determinism
//! witness a minimal repro must reproduce exactly on replay.

use eventsim::{SimDuration, SimTime};
use mpsim_core::Algorithm;
use netsim::{route, QueueConfig, Simulation};
use tcpsim::{ConnectionSpec, PathSpec, TcpConfig};
use trace::{
    DigestSink, FaultOracle, FlightRecorder, InvariantChecker, TraceSink, Tracer, Violation,
};

use crate::case::ChaosCase;

/// The paper-spec cap on the re-probe interval (1 s doubling to 8 s). The
/// oracle pins the *spec*, not the run's configuration — a config whose
/// `reprobe_max` drifts past this is exactly the kind of bug the fuzzer
/// must catch.
pub const ORACLE_PROBE_CAP: SimDuration = SimDuration::from_secs(8);
/// How long a connection may stay silent after all paths are restored
/// before the liveness oracle calls it stuck. Covers the worst-case probe
/// gap (8 s) plus recovery ramp.
pub const LIVENESS_GRACE: SimDuration = SimDuration::from_secs(10);
/// The sim is driven in slices of this length so the event loop's progress
/// can be audited between slices.
const SLICE: SimDuration = SimDuration::from_secs(1);
/// More dispatched events than this inside one slice means the loop is
/// spinning without advancing useful work — the livelock oracle trips.
/// Generous: a clean two-path run at these rates dispatches ~10^5 events
/// per simulated second.
const SLICE_EVENT_BUDGET: u64 = 20_000_000;
/// Flight-recorder ring length. A typical case traces well under 10^4
/// events per simulated second, so this retains a whole default-horizon
/// run — repro timelines show every fault window and state band, not just
/// a tail. The ring allocates lazily, so clean short runs stay cheap.
const RECORDER_CAPACITY: usize = 1 << 20;

/// Everything one case execution is judged on.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// All oracle violations, in observation order (trace oracles first,
    /// then end-of-run liveness / conservation / livelock findings).
    pub violations: Vec<Violation>,
    /// FNV-1a digest of the full JSONL trace (16 hex chars) — the replay
    /// witness.
    pub digest: String,
    /// Events absorbed by the trace sink.
    pub trace_events: u64,
    /// Events dispatched by the simulation loop.
    pub events: u64,
    /// Simulated seconds actually covered.
    pub sim_s: f64,
    /// In-order packets delivered to the application.
    pub delivered: u64,
    /// The flight recorder's tail — the last events before the end of the
    /// run, in JSONL form — kept only when a violation fired (clean runs
    /// drop it to keep verdicts cheap to hold in campaign memory).
    pub tail_jsonl: Option<String>,
    /// True when the recorder's ring wrapped, i.e. `tail_jsonl` is a
    /// suffix of the full trace rather than all of it.
    pub tail_truncated: bool,
}

impl Verdict {
    /// True when every oracle stayed quiet.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation's coarse category: everything before the first
    /// `:` in its description (e.g. `"re-probe backoff exceeds cap"`). The
    /// shrinker preserves this, not the full message, so shrunk repros may
    /// move the violation in time but never change what is wrong.
    pub fn category(&self) -> Option<&str> {
        self.violations
            .first()
            .map(|v| v.what.split(':').next().unwrap_or(&v.what))
    }
}

/// The composite sink every chaos run traces into: digest + the two
/// oracle layers, all fed from one stream.
struct OracleSink {
    digest: DigestSink,
    invariants: InvariantChecker,
    faults: FaultOracle,
    recorder: FlightRecorder,
}

impl TraceSink for OracleSink {
    fn record(&mut self, t: SimTime, ev: &trace::TraceEvent) {
        self.digest.record(t, ev);
        self.invariants.record(t, ev);
        self.faults.record(t, ev);
        self.recorder.record(t, ev);
    }
}

/// Execute `case` under the default TCP configuration.
pub fn run_case(case: &ChaosCase) -> Verdict {
    run_case_with(case, TcpConfig::default())
}

/// Execute `case` with an explicit TCP configuration (the knob the
/// injected-bug acceptance tests turn: e.g. a `reprobe_max` past the spec
/// cap must be caught by the oracle, not inherited by it).
pub fn run_case_with(case: &ChaosCase, tcp: TcpConfig) -> Verdict {
    let alg = Algorithm::from_name(&case.algorithm)
        .unwrap_or_else(|| panic!("unknown algorithm {:?} in chaos case", case.algorithm));
    let mut sim = Simulation::new(case.seed);
    let (tracer, sink) = Tracer::to_sink(OracleSink {
        digest: DigestSink::new(),
        invariants: InvariantChecker::new(1.0),
        faults: FaultOracle::new(ORACLE_PROBE_CAP, LIVENESS_GRACE),
        recorder: FlightRecorder::new(RECORDER_CAPACITY),
    });
    sim.set_tracer(tracer);

    let link = |sim: &mut Simulation, p: usize| {
        let delay = SimDuration::from_millis_f64(case.delay_ms[p]);
        let fwd = sim.add_queue(QueueConfig::red_paper(case.rate_mbps[p] * 1e6, delay));
        let rev = sim.add_queue(QueueConfig::drop_tail(10e9, delay, 100_000));
        (fwd, rev)
    };
    let (f0, r0) = link(&mut sim, 0);
    let (f1, r1) = link(&mut sim, 1);
    let fwd_ids = [f0, f1];
    let paths = vec![
        PathSpec::new(route(&[f0]), route(&[r0])),
        PathSpec::new(route(&[f1]), route(&[r1])),
    ];
    let conn = ConnectionSpec::new(alg)
        .with_paths(paths)
        .with_config(tcp)
        .install(&mut sim, 0);
    sim.start_endpoint_at(conn.source, SimTime::ZERO);

    let plan = case
        .plan(fwd_ids)
        .unwrap_or_else(|e| panic!("chaos case lowered to an invalid plan: {e}"));
    sim.install_fault_plan(plan);

    // Drive in slices, auditing the event loop's appetite between them: a
    // slice that burns through the budget without reaching its target time
    // is a livelock, reported as a violation instead of hanging the fuzzer.
    let horizon = SimTime::from_secs_f64(case.horizon_s);
    let mut livelock = None;
    let mut t = SimTime::ZERO;
    while t < horizon {
        t = (t + SLICE).min(horizon);
        let before = sim.events_processed();
        sim.run_until(t);
        let dispatched = sim.events_processed() - before;
        if dispatched > SLICE_EVENT_BUDGET {
            livelock = Some(Violation {
                t: sim.now(),
                what: format!(
                    "event-loop livelock: {dispatched} events dispatched inside one \
                     {SLICE} slice (budget {SLICE_EVENT_BUDGET})"
                ),
            });
            break;
        }
    }

    let end = sim.now();
    let conservation = sim.check_packet_conservation().err();
    let delivered = conn.handle.read(|st| st.delivered_packets);
    let events = sim.events_processed();
    drop(sim); // release the tracer's sink handle

    let mut sink = std::rc::Rc::try_unwrap(sink)
        .unwrap_or_else(|_| panic!("oracle sink still shared after run"))
        .into_inner();
    sink.faults.finish(end);

    let mut violations: Vec<Violation> = Vec::new();
    violations.extend(sink.invariants.violations().iter().cloned());
    violations.extend(sink.faults.violations().iter().cloned());
    if let Some(e) = conservation {
        violations.push(Violation {
            t: end,
            what: format!("packet conservation broken: {e}"),
        });
    }
    violations.extend(livelock);
    violations.sort_by(|a, b| a.t.cmp(&b.t).then_with(|| a.what.cmp(&b.what)));

    let tail_truncated = sink.recorder.truncated() > 0;
    let tail_jsonl = if violations.is_empty() {
        None
    } else {
        Some(sink.recorder.dump_jsonl())
    };

    Verdict {
        violations,
        digest: sink.digest.hex(),
        trace_events: sink.digest.events(),
        events,
        sim_s: end.as_secs_f64(),
        delivered,
        tail_jsonl,
        tail_truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Clause;

    fn quiet_case() -> ChaosCase {
        ChaosCase {
            seed: 42,
            algorithm: "olia".to_string(),
            rate_mbps: [8.0, 8.0],
            delay_ms: [40.0, 40.0],
            horizon_s: 20.0,
            clauses: vec![Clause::Outage {
                path: 0,
                from_s: 4.0,
                dur_s: 3.0,
            }],
        }
    }

    #[test]
    fn clean_case_produces_no_violations() {
        let v = run_case(&quiet_case());
        assert!(v.ok(), "{:?}", v.violations);
        assert!(v.delivered > 0, "no traffic delivered");
        assert!(v.trace_events > 0, "tracer not attached");
    }

    #[test]
    fn replay_is_byte_deterministic() {
        let a = run_case(&quiet_case());
        let b = run_case(&quiet_case());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn raised_reprobe_cap_is_caught_by_the_oracle() {
        // The acceptance-criteria bug, injected via configuration: the
        // implementation doubles probes up to reprobe_max = 16 s, while the
        // spec (and the oracle) cap at 8 s. A long outage must trip it.
        let case = ChaosCase {
            seed: 7,
            algorithm: "lia".to_string(),
            rate_mbps: [8.0, 8.0],
            delay_ms: [40.0, 40.0],
            horizon_s: 30.0,
            clauses: vec![Clause::Outage {
                path: 0,
                from_s: 4.0,
                dur_s: 18.0,
            }],
        };
        let tcp = TcpConfig {
            reprobe_max: SimDuration::from_secs(16),
            ..TcpConfig::default()
        };
        let v = run_case_with(&case, tcp);
        assert!(!v.ok(), "oracle missed the raised probe cap");
        assert_eq!(v.category(), Some("re-probe backoff exceeds cap"));
        // A violating verdict carries the flight recorder's tail, parseable
        // back into events for timeline rendering.
        let tail = v.tail_jsonl.as_deref().expect("violating run has no tail");
        let mut events = 0u64;
        for line in tail.lines() {
            trace::TraceEvent::from_jsonl(line).expect("unparseable tail line");
            events += 1;
        }
        assert!(events > 0, "empty flight-recorder tail");
        // The same case is clean on the spec-conformant config.
        let clean = run_case(&case);
        assert!(clean.ok());
        assert!(clean.tail_jsonl.is_none(), "clean runs keep no tail");
    }

    #[test]
    fn total_blackout_recovery_is_clean() {
        for alg in ["lia", "olia"] {
            let case = ChaosCase {
                seed: 11,
                algorithm: alg.to_string(),
                rate_mbps: [8.0, 6.0],
                delay_ms: [40.0, 20.0],
                horizon_s: 40.0,
                clauses: vec![Clause::Blackout {
                    from_s: 8.0,
                    dur_s: 10.0,
                }],
            };
            let v = run_case(&case);
            assert!(v.ok(), "{alg}: {:?}", v.violations);
        }
    }
}
