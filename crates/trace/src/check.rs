//! Trace-driven invariant checking.
//!
//! An [`InvariantChecker`] is itself a [`TraceSink`], so it can be attached
//! to a live simulation (optionally behind a fan-out with a JSONL sink) or
//! replayed over a recorded ring buffer. It verifies transport invariants
//! that hold for every correct run regardless of topology or seed:
//!
//! 1. **Cwnd floor** — a subflow's congestion window never falls below the
//!    probing floor (1 MSS): RTO backoff, OLIA decreases, and recovery
//!    deflation all clamp there.
//! 2. **Delivered-bytes conservation** — per connection, in-order packets
//!    delivered at the sink never exceed packets successfully dequeued from
//!    the network (each delivery is backed by a real transmission; only
//!    non-monotonicity in cumulative counters or phantom deliveries can
//!    violate this).
//! 3. **Monotone delivery** — per (conn, subflow), the cumulative delivered
//!    counter never decreases.

use std::collections::BTreeMap;

use eventsim::SimTime;

use crate::event::{PacketKindLabel, TraceEvent};
use crate::sink::TraceSink;

/// One invariant violation, with the simulation time it was observed at.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// When the offending event was recorded.
    pub t: SimTime,
    /// Human-readable description of what was violated.
    pub what: String,
}

/// Streaming checker over a trace (see module docs for the invariants).
#[derive(Debug, Default)]
pub struct InvariantChecker {
    /// Probing floor in MSS; cwnd below this is a violation.
    floor: f64,
    /// Data packets dequeued anywhere in the network, per conn.
    dequeued_data: BTreeMap<u64, u64>,
    /// Cumulative in-order delivered, per (conn, subflow).
    delivered: BTreeMap<(u64, u16), u64>,
    /// Newly-delivered sum per conn (conservation check).
    delivered_total: BTreeMap<u64, u64>,
    violations: Vec<Violation>,
    events_seen: u64,
}

impl InvariantChecker {
    /// Checker with the given cwnd floor (the simulator's probing floor is
    /// 1 MSS).
    pub fn new(floor_mss: f64) -> Self {
        InvariantChecker {
            floor: floor_mss,
            ..Default::default()
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Events inspected.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Convenience: replay a recorded event stream through the checker.
    pub fn check_all(mut self, events: impl IntoIterator<Item = (SimTime, TraceEvent)>) -> Self {
        for (t, ev) in events {
            self.record(t, &ev);
        }
        self
    }

    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, t: SimTime, what: String) {
        self.violations.push(Violation { t, what });
    }
}

impl TraceSink for InvariantChecker {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.events_seen += 1;
        match ev {
            // Allow a hair of float slack: cwnd arithmetic is f64.
            TraceEvent::Cwnd {
                conn,
                subflow,
                cwnd,
                ..
            } if *cwnd < self.floor - 1e-9 => {
                let floor = self.floor;
                self.violate(
                    t,
                    format!(
                        "cwnd below probing floor: conn {conn} subflow {subflow} \
                         cwnd {cwnd} < {floor}"
                    ),
                );
            }
            TraceEvent::Dequeue {
                conn,
                kind: PacketKindLabel::Data,
                ..
            } => {
                *self.dequeued_data.entry(*conn).or_insert(0) += 1;
            }
            TraceEvent::Deliver {
                conn,
                subflow,
                newly,
                total,
            } => {
                let cum_entry = self.delivered.entry((*conn, *subflow)).or_insert(0);
                let cum = *cum_entry;
                *cum_entry = cum.max(*total);
                if *total < cum {
                    self.violate(
                        t,
                        format!(
                            "delivered counter went backwards: conn {conn} subflow {subflow} \
                             {total} < {cum}"
                        ),
                    );
                }
                let sum_entry = self.delivered_total.entry(*conn).or_insert(0);
                *sum_entry += *newly;
                let sum = *sum_entry;
                let sent = self.dequeued_data.get(conn).copied().unwrap_or(0);
                if sum > sent {
                    self.violate(
                        t,
                        format!(
                            "delivery conservation broken: conn {conn} delivered {sum} \
                             packets but only {sent} data packets were dequeued"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CwndReason;

    fn cwnd(conn: u64, v: f64) -> TraceEvent {
        TraceEvent::Cwnd {
            conn,
            subflow: 0,
            cwnd: v,
            ssthresh: 2.0,
            reason: CwndReason::Rto,
        }
    }

    fn deq(conn: u64) -> TraceEvent {
        TraceEvent::Dequeue {
            queue: 0,
            conn,
            subflow: 0,
            kind: PacketKindLabel::Data,
            seq: 0,
            size: 1500,
            qlen: 0,
        }
    }

    fn deliver(conn: u64, newly: u64, total: u64) -> TraceEvent {
        TraceEvent::Deliver {
            conn,
            subflow: 0,
            newly,
            total,
        }
    }

    #[test]
    fn clean_stream_passes() {
        let t = SimTime::ZERO;
        let stream = vec![
            (t, cwnd(1, 10.0)),
            (t, deq(1)),
            (t, deq(1)),
            (t, deliver(1, 1, 1)),
            (t, deliver(1, 1, 2)),
            (t, cwnd(1, 1.0)),
        ];
        let chk = InvariantChecker::new(1.0).check_all(stream);
        assert!(chk.ok(), "{:?}", chk.violations());
        assert_eq!(chk.events_seen(), 6);
    }

    #[test]
    fn cwnd_below_floor_is_flagged() {
        let stream = vec![(SimTime::from_nanos(3), cwnd(1, 0.5))];
        let chk = InvariantChecker::new(1.0).check_all(stream);
        assert_eq!(chk.violations().len(), 1);
        assert!(chk.violations()[0].what.contains("probing floor"));
    }

    #[test]
    fn phantom_delivery_is_flagged() {
        // Deliver without any dequeued data packet.
        let stream = vec![(SimTime::ZERO, deliver(2, 1, 1))];
        let chk = InvariantChecker::new(1.0).check_all(stream);
        assert!(!chk.ok());
        assert!(chk.violations()[0].what.contains("conservation"));
    }

    #[test]
    fn backwards_delivery_counter_is_flagged() {
        let stream = vec![
            (SimTime::ZERO, deq(1)),
            (SimTime::ZERO, deq(1)),
            (SimTime::ZERO, deliver(1, 2, 2)),
            (SimTime::ZERO, deliver(1, 0, 1)),
        ];
        let chk = InvariantChecker::new(1.0).check_all(stream);
        assert!(!chk.ok());
        assert!(chk.violations()[0].what.contains("backwards"));
    }

    #[test]
    fn ack_dequeues_do_not_count_as_data() {
        let stream = vec![
            (
                SimTime::ZERO,
                TraceEvent::Dequeue {
                    queue: 0,
                    conn: 1,
                    subflow: 0,
                    kind: PacketKindLabel::Ack,
                    seq: 0,
                    size: 40,
                    qlen: 0,
                },
            ),
            (SimTime::ZERO, deliver(1, 1, 1)),
        ];
        let chk = InvariantChecker::new(1.0).check_all(stream);
        assert!(!chk.ok(), "ACK dequeue must not license a data delivery");
    }
}
