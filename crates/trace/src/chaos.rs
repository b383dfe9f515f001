//! Fault-aware trace oracles for chaos fuzzing.
//!
//! [`FaultOracle`] extends [`crate::InvariantChecker`]'s topology-agnostic
//! invariants with properties that only make sense *under faults* — the
//! oracle layer the `chaos` fuzzer attaches to every generated run:
//!
//! 1. **Subflow state-machine legality** — health transitions follow the
//!    path manager's machine: `Active → PotentiallyFailed` (RTO backoff
//!    passes the PF threshold), `{Active, PotentiallyFailed} → Failed`
//!    (fail threshold), `Failed → Active` (probe answered), plus the
//!    pruning overlay (`* → Pruned → Active`). Anything else — e.g.
//!    `Failed → PotentiallyFailed` — is a violation. One transition is
//!    legitimately silent on the wire (`PotentiallyFailed → Active`, an
//!    advancing ACK clears PF without a trace event), so continuity
//!    tracking allows exactly that gap and flags any other.
//! 2. **Re-probe backoff cap** — every [`TraceEvent::Probe`] announces its
//!    next interval; it must respect the configured cap (the paper-text
//!    schedule is 1 s doubling to 8 s). Probes must also only be sent while
//!    the subflow is `Failed`.
//! 3. **Cwnd/ssthresh domain** — both finite, ssthresh strictly positive
//!    (the floor itself is [`crate::InvariantChecker`]'s job).
//! 4. **Liveness** — once every fault-plan-touched queue is back up, the
//!    connection must deliver in-order data again within a grace period.
//!    Checked by [`FaultOracle::finish`] at end of run: a bulk transfer
//!    that stays silent for longer than the grace after full restoration is
//!    a stuck connection.

use std::collections::BTreeMap;

use eventsim::{SimDuration, SimTime};

use crate::check::Violation;
use crate::event::{SubflowState, TraceEvent};
use crate::sink::TraceSink;

/// Streaming fault-robustness oracle (see module docs). Compose it with an
/// [`crate::InvariantChecker`] to get the full chaos oracle set.
#[derive(Debug)]
pub struct FaultOracle {
    /// Upper bound on the announced next re-probe interval.
    probe_cap: SimDuration,
    /// How long after full restoration a silent connection counts as stuck.
    grace: SimDuration,
    /// Link state per fault-touched queue (`true` = down).
    down: BTreeMap<u32, bool>,
    /// Last instant at which every tracked queue was up.
    last_all_up: SimTime,
    /// Last traced health per (conn, subflow); absent = `Active`.
    state: BTreeMap<(u64, u16), SubflowState>,
    /// Last in-order delivery instant, any connection.
    last_deliver: Option<SimTime>,
    violations: Vec<Violation>,
    events_seen: u64,
}

/// Is `from -> to` a legal path-manager transition?
fn legal(from: SubflowState, to: SubflowState) -> bool {
    use SubflowState::{Active, Failed, PotentiallyFailed, Pruned};
    matches!(
        (from, to),
        (Active, PotentiallyFailed)
            | (PotentiallyFailed, Failed)
            | (Active, Failed)
            | (Failed, Active)
            | (Active, Pruned)
            | (PotentiallyFailed, Pruned)
            | (Failed, Pruned)
            | (Pruned, Active)
    )
}

impl FaultOracle {
    /// Oracle with the given probe-interval cap and post-restoration
    /// liveness grace.
    pub fn new(probe_cap: SimDuration, grace: SimDuration) -> Self {
        FaultOracle {
            probe_cap,
            grace,
            down: BTreeMap::new(),
            last_all_up: SimTime::ZERO,
            state: BTreeMap::new(),
            last_deliver: None,
            violations: Vec::new(),
            events_seen: 0,
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

    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Convenience: replay a recorded event stream through the oracle.
    pub fn check_all(mut self, events: impl IntoIterator<Item = (SimTime, TraceEvent)>) -> Self {
        for (t, ev) in events {
            self.record(t, &ev);
        }
        self
    }

    fn violate(&mut self, t: SimTime, what: String) {
        self.violations.push(Violation { t, what });
    }

    /// End-of-run liveness check: call once with the final sim time. If
    /// every fault-touched queue is up and the connection has been silent
    /// (no in-order delivery) for longer than the grace since the later of
    /// restoration and its own last delivery, the connection is stuck.
    pub fn finish(&mut self, end: SimTime) {
        if self.down.values().any(|&d| d) {
            return; // a path is still down; liveness is not owed
        }
        let idle_since = match self.last_deliver {
            Some(d) => d.max(self.last_all_up),
            None => self.last_all_up,
        };
        let silent = end.saturating_since(idle_since);
        if silent > self.grace {
            let grace = self.grace;
            self.violate(
                end,
                format!(
                    "stuck connection: no in-order delivery for {silent} after all \
                     paths restored (grace {grace})"
                ),
            );
        }
    }
}

impl TraceSink for FaultOracle {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.events_seen += 1;
        match ev {
            TraceEvent::Fault { queue, action } => match *action {
                "link_down" => {
                    self.down.insert(*queue, true);
                }
                "link_up" => {
                    self.down.insert(*queue, false);
                    if !self.down.values().any(|&d| d) {
                        self.last_all_up = t;
                    }
                }
                _ => {}
            },
            TraceEvent::Deliver { .. } => {
                self.last_deliver = Some(t);
            }
            TraceEvent::Cwnd {
                conn,
                subflow,
                cwnd,
                ssthresh,
                ..
            } if !cwnd.is_finite() || !ssthresh.is_finite() || *ssthresh <= 0.0 => {
                self.violate(
                    t,
                    format!(
                        "cwnd/ssthresh domain violation: conn {conn} subflow {subflow} \
                         cwnd {cwnd} ssthresh {ssthresh}"
                    ),
                );
            }
            TraceEvent::SubflowState {
                conn,
                subflow,
                from,
                to,
            } => {
                let key = (*conn, *subflow);
                let tracked = self
                    .state
                    .get(&key)
                    .copied()
                    .unwrap_or(SubflowState::Active);
                // The only legitimately untraced transition is the
                // advancing-ACK clear of PotentiallyFailed.
                let continuous = tracked == *from
                    || (tracked == SubflowState::PotentiallyFailed
                        && *from == SubflowState::Active);
                if !continuous {
                    self.violate(
                        t,
                        format!(
                            "subflow state discontinuity: conn {conn} subflow {subflow} \
                             transition claims from={} but last traced state was {}",
                            from.label(),
                            tracked.label()
                        ),
                    );
                }
                if !legal(*from, *to) {
                    self.violate(
                        t,
                        format!(
                            "illegal subflow transition: conn {conn} subflow {subflow} \
                             {} -> {}",
                            from.label(),
                            to.label()
                        ),
                    );
                }
                self.state.insert(key, *to);
            }
            TraceEvent::Probe {
                conn,
                subflow,
                next_interval_ns,
                ..
            } => {
                let cap = self.probe_cap.as_nanos();
                if *next_interval_ns > cap {
                    self.violate(
                        t,
                        format!(
                            "re-probe backoff exceeds cap: conn {conn} subflow {subflow} \
                             next interval {next_interval_ns} ns > cap {cap} ns"
                        ),
                    );
                }
                let tracked = self
                    .state
                    .get(&(*conn, *subflow))
                    .copied()
                    .unwrap_or(SubflowState::Active);
                if tracked != SubflowState::Failed {
                    self.violate(
                        t,
                        format!(
                            "probe on a non-failed subflow: conn {conn} subflow {subflow} \
                             state {}",
                            tracked.label()
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

    fn oracle() -> FaultOracle {
        FaultOracle::new(SimDuration::from_secs(8), SimDuration::from_secs(10))
    }

    fn trans(from: SubflowState, to: SubflowState) -> TraceEvent {
        TraceEvent::SubflowState {
            conn: 0,
            subflow: 0,
            from,
            to,
        }
    }

    fn probe(next_interval_ns: u64) -> TraceEvent {
        TraceEvent::Probe {
            conn: 0,
            subflow: 0,
            seq: 7,
            next_interval_ns,
        }
    }

    #[test]
    fn legal_failure_cycle_passes() {
        use SubflowState::{Active, Failed, PotentiallyFailed};
        let t = SimTime::from_secs_f64(1.0);
        let stream = vec![
            (t, trans(Active, PotentiallyFailed)),
            (t, trans(PotentiallyFailed, Failed)),
            (t, probe(2_000_000_000)),
            (t, probe(8_000_000_000)),
            (t, trans(Failed, Active)),
            (
                t,
                TraceEvent::Deliver {
                    conn: 0,
                    subflow: 0,
                    newly: 1,
                    total: 1,
                },
            ),
        ];
        let mut chk = oracle().check_all(stream);
        chk.finish(SimTime::from_secs_f64(5.0));
        assert!(chk.ok(), "{:?}", chk.violations());
    }

    #[test]
    fn silent_pf_restore_is_tolerated() {
        use SubflowState::{Active, PotentiallyFailed};
        // A -> PF, then the silent PF -> A restore, then A -> PF again:
        // the second event claims from=active while we tracked PF.
        let t = SimTime::ZERO;
        let stream = vec![
            (t, trans(Active, PotentiallyFailed)),
            (t, trans(Active, PotentiallyFailed)),
        ];
        let chk = oracle().check_all(stream);
        assert!(chk.ok(), "{:?}", chk.violations());
    }

    #[test]
    fn illegal_transition_is_flagged() {
        use SubflowState::{Active, Failed, PotentiallyFailed};
        let t = SimTime::ZERO;
        let stream = vec![
            (t, trans(Active, Failed)),
            (t, trans(Failed, PotentiallyFailed)),
        ];
        let chk = oracle().check_all(stream);
        assert_eq!(chk.violations().len(), 1);
        assert!(chk.violations()[0]
            .what
            .contains("illegal subflow transition"));
    }

    #[test]
    fn state_discontinuity_is_flagged() {
        use SubflowState::{Active, Failed};
        // from=failed without any traced transition into failed.
        let stream = vec![(SimTime::ZERO, trans(Failed, Active))];
        let chk = oracle().check_all(stream);
        assert!(!chk.ok());
        assert!(chk.violations()[0].what.contains("discontinuity"));
    }

    #[test]
    fn probe_cap_violation_is_flagged() {
        use SubflowState::{Active, Failed};
        let t = SimTime::ZERO;
        let stream = vec![(t, trans(Active, Failed)), (t, probe(16_000_000_000))];
        let chk = oracle().check_all(stream);
        assert_eq!(chk.violations().len(), 1);
        assert!(chk.violations()[0].what.contains("exceeds cap"));
    }

    #[test]
    fn probe_on_live_subflow_is_flagged() {
        let stream = vec![(SimTime::ZERO, probe(1_000_000_000))];
        let chk = oracle().check_all(stream);
        assert!(!chk.ok());
        assert!(chk.violations()[0].what.contains("non-failed"));
    }

    #[test]
    fn nan_cwnd_is_flagged() {
        let stream = vec![(
            SimTime::ZERO,
            TraceEvent::Cwnd {
                conn: 0,
                subflow: 0,
                cwnd: f64::NAN,
                ssthresh: 2.0,
                reason: crate::event::CwndReason::Rto,
            },
        )];
        let chk = oracle().check_all(stream);
        assert!(!chk.ok());
        assert!(chk.violations()[0].what.contains("domain"));
    }

    #[test]
    fn stuck_connection_is_flagged_after_grace() {
        let t = SimTime::from_secs_f64(1.0);
        let stream = vec![
            (
                t,
                TraceEvent::Deliver {
                    conn: 0,
                    subflow: 0,
                    newly: 1,
                    total: 1,
                },
            ),
            (
                SimTime::from_secs_f64(2.0),
                TraceEvent::Fault {
                    queue: 0,
                    action: "link_down",
                },
            ),
            (
                SimTime::from_secs_f64(3.0),
                TraceEvent::Fault {
                    queue: 0,
                    action: "link_up",
                },
            ),
        ];
        let mut chk = oracle().check_all(stream);
        // Restored at t=3, silent until t=20 > 3 + 10s grace: stuck.
        chk.finish(SimTime::from_secs_f64(20.0));
        assert!(!chk.ok());
        assert!(chk.violations()[0].what.contains("stuck connection"));
    }

    #[test]
    fn liveness_not_owed_while_a_path_is_down() {
        let stream = vec![(
            SimTime::from_secs_f64(2.0),
            TraceEvent::Fault {
                queue: 0,
                action: "link_down",
            },
        )];
        let mut chk = oracle().check_all(stream);
        chk.finish(SimTime::from_secs_f64(60.0));
        assert!(chk.ok(), "{:?}", chk.violations());
    }

    #[test]
    fn recent_delivery_satisfies_liveness() {
        let stream = vec![(
            SimTime::from_secs_f64(19.0),
            TraceEvent::Deliver {
                conn: 0,
                subflow: 0,
                newly: 1,
                total: 1,
            },
        )];
        let mut chk = oracle().check_all(stream);
        chk.finish(SimTime::from_secs_f64(20.0));
        assert!(chk.ok(), "{:?}", chk.violations());
    }
}
