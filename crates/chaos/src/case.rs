//! The fuzzer's grammar: a serializable chaos *case*.
//!
//! A [`ChaosCase`] is the unit the fuzzer generates, executes, shrinks, and
//! checks in as a regression fixture: scenario knobs (algorithm, per-path
//! rates and delays, sim horizon) plus a list of [`Clause`]s — high-level
//! fault idioms (outages, correlated blackouts, flaps, loss bursts,
//! rate/latency steps, handovers) that lower to a validated
//! [`netsim::FaultPlan`] once queue ids are known. Clauses are
//! queue-agnostic so a case round-trips through JSON and replays on a
//! freshly built topology.
//!
//! Shrinking relies on one structural property: the generator emits
//! non-overlapping down windows per path, and *removing* clauses can never
//! introduce an overlap, so every subset of a valid case is valid.

use std::collections::BTreeMap;

use eventsim::{SimDuration, SimTime};
use json::Json;
use netsim::{FaultAction, FaultPlan, QueueId};

/// One high-level fault idiom. Times are in seconds from sim start; `path`
/// indexes the case's two paths (0 or 1).
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// One path's forward link down for `dur_s` starting at `from_s`.
    Outage {
        /// Which path fails.
        path: u8,
        /// Outage start, seconds.
        from_s: f64,
        /// Outage length, seconds.
        dur_s: f64,
    },
    /// Correlated total blackout: both forward links down simultaneously.
    Blackout {
        /// Blackout start, seconds.
        from_s: f64,
        /// Blackout length, seconds.
        dur_s: f64,
    },
    /// Rapid down/up cycling of one path's forward link.
    Flap {
        /// Which path flaps.
        path: u8,
        /// First down edge, seconds.
        from_s: f64,
        /// Down phase length, seconds.
        down_s: f64,
        /// Up phase length, seconds.
        up_s: f64,
        /// Full down/up cycles.
        cycles: u8,
    },
    /// Bursty random loss on one path's forward link.
    LossBurst {
        /// Which path is impaired.
        path: u8,
        /// Burst start, seconds.
        from_s: f64,
        /// Per-packet drop probability during the burst.
        p: f64,
        /// Burst length, seconds.
        dur_s: f64,
    },
    /// Permanent capacity change of one path's forward link.
    RateStep {
        /// Which path is retimed.
        path: u8,
        /// When, seconds.
        at_s: f64,
        /// New rate, Mb/s.
        rate_mbps: f64,
    },
    /// Permanent propagation-delay change of one path's forward link.
    LatencyStep {
        /// Which path is retimed.
        path: u8,
        /// When, seconds.
        at_s: f64,
        /// New one-way delay, milliseconds.
        delay_ms: f64,
    },
    /// WiFi↔cellular-shaped handover on one path: the link's rate degrades
    /// at `at_s` (fading), the link breaks at `at_s + dur_s`, and at
    /// `at_s + 2·dur_s` it comes back at its base rate.
    Handover {
        /// Which path hands over.
        path: u8,
        /// Fading onset, seconds.
        at_s: f64,
        /// Fading length = break length, seconds.
        dur_s: f64,
        /// Degraded rate during fading, Mb/s.
        degrade_mbps: f64,
    },
}

fn num(v: f64) -> Json {
    Json::Number(v)
}

fn get_f64(m: &BTreeMap<String, Json>, key: &str) -> Result<f64, String> {
    m.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("clause field {key:?} missing or not a number"))
}

fn get_path(m: &BTreeMap<String, Json>) -> Result<u8, String> {
    let p = get_f64(m, "path")?;
    if p == 0.0 || p == 1.0 {
        Ok(p as u8)
    } else {
        Err(format!("clause field \"path\" must be 0 or 1, got {p}"))
    }
}

impl Clause {
    /// Stable kind label (the `kind` field in JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            Clause::Outage { .. } => "outage",
            Clause::Blackout { .. } => "blackout",
            Clause::Flap { .. } => "flap",
            Clause::LossBurst { .. } => "loss_burst",
            Clause::RateStep { .. } => "rate_step",
            Clause::LatencyStep { .. } => "latency_step",
            Clause::Handover { .. } => "handover",
        }
    }

    /// When the clause's last scheduled action fires, seconds.
    pub fn end_s(&self) -> f64 {
        match *self {
            Clause::Outage { from_s, dur_s, .. } => from_s + dur_s,
            Clause::Blackout { from_s, dur_s } => from_s + dur_s,
            Clause::Flap {
                from_s,
                down_s,
                up_s,
                cycles,
                ..
            } => from_s + (down_s + up_s) * cycles as f64,
            Clause::LossBurst { from_s, dur_s, .. } => from_s + dur_s,
            Clause::RateStep { at_s, .. } => at_s,
            Clause::LatencyStep { at_s, .. } => at_s,
            Clause::Handover { at_s, dur_s, .. } => at_s + 2.0 * dur_s,
        }
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut m: Vec<(&str, Json)> = vec![("kind", Json::String(self.kind().to_string()))];
        match *self {
            Clause::Outage {
                path,
                from_s,
                dur_s,
            } => {
                m.push(("path", num(path as f64)));
                m.push(("from_s", num(from_s)));
                m.push(("dur_s", num(dur_s)));
            }
            Clause::Blackout { from_s, dur_s } => {
                m.push(("from_s", num(from_s)));
                m.push(("dur_s", num(dur_s)));
            }
            Clause::Flap {
                path,
                from_s,
                down_s,
                up_s,
                cycles,
            } => {
                m.push(("path", num(path as f64)));
                m.push(("from_s", num(from_s)));
                m.push(("down_s", num(down_s)));
                m.push(("up_s", num(up_s)));
                m.push(("cycles", num(cycles as f64)));
            }
            Clause::LossBurst {
                path,
                from_s,
                p,
                dur_s,
            } => {
                m.push(("path", num(path as f64)));
                m.push(("from_s", num(from_s)));
                m.push(("p", num(p)));
                m.push(("dur_s", num(dur_s)));
            }
            Clause::RateStep {
                path,
                at_s,
                rate_mbps,
            } => {
                m.push(("path", num(path as f64)));
                m.push(("at_s", num(at_s)));
                m.push(("rate_mbps", num(rate_mbps)));
            }
            Clause::LatencyStep {
                path,
                at_s,
                delay_ms,
            } => {
                m.push(("path", num(path as f64)));
                m.push(("at_s", num(at_s)));
                m.push(("delay_ms", num(delay_ms)));
            }
            Clause::Handover {
                path,
                at_s,
                dur_s,
                degrade_mbps,
            } => {
                m.push(("path", num(path as f64)));
                m.push(("at_s", num(at_s)));
                m.push(("dur_s", num(dur_s)));
                m.push(("degrade_mbps", num(degrade_mbps)));
            }
        }
        Json::object(m)
    }

    /// Parse a clause from its JSON object form.
    pub fn from_json(v: &Json) -> Result<Clause, String> {
        let m = v.as_object().ok_or("clause must be a JSON object")?;
        let kind = m
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("clause is missing its \"kind\"")?;
        match kind {
            "outage" => Ok(Clause::Outage {
                path: get_path(m)?,
                from_s: get_f64(m, "from_s")?,
                dur_s: get_f64(m, "dur_s")?,
            }),
            "blackout" => Ok(Clause::Blackout {
                from_s: get_f64(m, "from_s")?,
                dur_s: get_f64(m, "dur_s")?,
            }),
            "flap" => Ok(Clause::Flap {
                path: get_path(m)?,
                from_s: get_f64(m, "from_s")?,
                down_s: get_f64(m, "down_s")?,
                up_s: get_f64(m, "up_s")?,
                cycles: get_f64(m, "cycles")? as u8,
            }),
            "loss_burst" => Ok(Clause::LossBurst {
                path: get_path(m)?,
                from_s: get_f64(m, "from_s")?,
                p: get_f64(m, "p")?,
                dur_s: get_f64(m, "dur_s")?,
            }),
            "rate_step" => Ok(Clause::RateStep {
                path: get_path(m)?,
                at_s: get_f64(m, "at_s")?,
                rate_mbps: get_f64(m, "rate_mbps")?,
            }),
            "latency_step" => Ok(Clause::LatencyStep {
                path: get_path(m)?,
                at_s: get_f64(m, "at_s")?,
                delay_ms: get_f64(m, "delay_ms")?,
            }),
            "handover" => Ok(Clause::Handover {
                path: get_path(m)?,
                at_s: get_f64(m, "at_s")?,
                dur_s: get_f64(m, "dur_s")?,
                degrade_mbps: get_f64(m, "degrade_mbps")?,
            }),
            other => Err(format!("unknown clause kind {other:?}")),
        }
    }

    /// Lower the clause to fault-plan actions against the two forward
    /// queues. `base_rate_bps` is each path's configured capacity (handover
    /// restores it after the break).
    pub fn actions(
        &self,
        fwd: [QueueId; 2],
        base_rate_bps: [f64; 2],
    ) -> Vec<(SimTime, FaultAction)> {
        let t = SimTime::from_secs_f64;
        let q = |p: u8| fwd[p as usize];
        match *self {
            Clause::Outage {
                path,
                from_s,
                dur_s,
            } => vec![
                (t(from_s), FaultAction::LinkDown(q(path))),
                (t(from_s + dur_s), FaultAction::LinkUp(q(path))),
            ],
            Clause::Blackout { from_s, dur_s } => vec![
                (t(from_s), FaultAction::LinkDown(q(0))),
                (t(from_s), FaultAction::LinkDown(q(1))),
                (t(from_s + dur_s), FaultAction::LinkUp(q(0))),
                (t(from_s + dur_s), FaultAction::LinkUp(q(1))),
            ],
            Clause::Flap {
                path,
                from_s,
                down_s,
                up_s,
                cycles,
            } => {
                let mut acts = Vec::new();
                let mut at = from_s;
                for _ in 0..cycles {
                    acts.push((t(at), FaultAction::LinkDown(q(path))));
                    acts.push((t(at + down_s), FaultAction::LinkUp(q(path))));
                    at += down_s + up_s;
                }
                acts
            }
            Clause::LossBurst {
                path,
                from_s,
                p,
                dur_s,
            } => vec![(
                t(from_s),
                FaultAction::LossBurst {
                    queue: q(path),
                    p,
                    duration: SimDuration::from_secs_f64(dur_s),
                },
            )],
            Clause::RateStep {
                path,
                at_s,
                rate_mbps,
            } => vec![(
                t(at_s),
                FaultAction::SetRate {
                    queue: q(path),
                    rate_bps: rate_mbps * 1e6,
                },
            )],
            Clause::LatencyStep {
                path,
                at_s,
                delay_ms,
            } => vec![(
                t(at_s),
                FaultAction::SetLatency {
                    queue: q(path),
                    latency: SimDuration::from_millis_f64(delay_ms),
                },
            )],
            Clause::Handover {
                path,
                at_s,
                dur_s,
                degrade_mbps,
            } => vec![
                (
                    t(at_s),
                    FaultAction::SetRate {
                        queue: q(path),
                        rate_bps: degrade_mbps * 1e6,
                    },
                ),
                (t(at_s + dur_s), FaultAction::LinkDown(q(path))),
                (t(at_s + 2.0 * dur_s), FaultAction::LinkUp(q(path))),
                (
                    t(at_s + 2.0 * dur_s),
                    FaultAction::SetRate {
                        queue: q(path),
                        rate_bps: base_rate_bps[path as usize],
                    },
                ),
            ],
        }
    }
}

/// One generated fuzz case: scenario knobs plus the fault clauses. The
/// whole case (including its seed) round-trips through JSON, so a minimal
/// repro replays bit-for-bit anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCase {
    /// Simulation seed (drives RED, impairment draws, everything).
    pub seed: u64,
    /// Coupled congestion control: `"lia"` or `"olia"`.
    pub algorithm: String,
    /// Forward capacity per path, Mb/s.
    pub rate_mbps: [f64; 2],
    /// Forward one-way delay per path, milliseconds.
    pub delay_ms: [f64; 2],
    /// How long the sim runs, seconds.
    pub horizon_s: f64,
    /// The fault schedule.
    pub clauses: Vec<Clause>,
}

impl ChaosCase {
    /// Serialize the full case (replayable minimal-repro form).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("seed_hex", Json::String(format!("{:016x}", self.seed))),
            ("algorithm", Json::String(self.algorithm.clone())),
            (
                "rate_mbps",
                Json::Array(self.rate_mbps.iter().map(|&r| Json::Number(r)).collect()),
            ),
            (
                "delay_ms",
                Json::Array(self.delay_ms.iter().map(|&d| Json::Number(d)).collect()),
            ),
            ("horizon_s", Json::Number(self.horizon_s)),
            (
                "clauses",
                Json::Array(self.clauses.iter().map(Clause::to_json).collect()),
            ),
        ])
    }

    /// Parse a case from its JSON form.
    pub fn from_json(v: &Json) -> Result<ChaosCase, String> {
        let m = v.as_object().ok_or("case must be a JSON object")?;
        let seed_hex = m
            .get("seed_hex")
            .and_then(Json::as_str)
            .ok_or("case is missing \"seed_hex\"")?;
        let seed = u64::from_str_radix(seed_hex, 16)
            .map_err(|e| format!("bad seed_hex {seed_hex:?}: {e}"))?;
        let algorithm = m
            .get("algorithm")
            .and_then(Json::as_str)
            .ok_or("case is missing \"algorithm\"")?
            .to_string();
        let pair = |key: &str| -> Result<[f64; 2], String> {
            let arr = m
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("case field {key:?} missing or not an array"))?;
            match arr {
                [a, b] => match (a.as_f64(), b.as_f64()) {
                    (Some(a), Some(b)) => Ok([a, b]),
                    _ => Err(format!("case field {key:?} must hold two numbers")),
                },
                _ => Err(format!("case field {key:?} must hold two numbers")),
            }
        };
        let horizon_s = m
            .get("horizon_s")
            .and_then(Json::as_f64)
            .ok_or("case is missing \"horizon_s\"")?;
        let clauses = m
            .get("clauses")
            .and_then(Json::as_array)
            .ok_or("case is missing \"clauses\"")?
            .iter()
            .map(Clause::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChaosCase {
            seed,
            algorithm,
            rate_mbps: pair("rate_mbps")?,
            delay_ms: pair("delay_ms")?,
            horizon_s,
            clauses,
        })
    }

    /// Lower every clause to a single [`FaultPlan`] against the two forward
    /// queues. The plan is validated — a case whose clauses compose into
    /// overlapping down windows is a generator bug, caught here.
    pub fn plan(&self, fwd: [QueueId; 2]) -> Result<FaultPlan, String> {
        let base = [self.rate_mbps[0] * 1e6, self.rate_mbps[1] * 1e6];
        let mut plan = FaultPlan::new();
        for c in &self.clauses {
            for (t, a) in c.actions(fwd, base) {
                plan = plan.at(t, a);
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fwd_ids() -> [QueueId; 2] {
        let mut sim = netsim::Simulation::new(1);
        let mk = |sim: &mut netsim::Simulation| {
            sim.add_queue(netsim::QueueConfig::drop_tail(
                1e6,
                eventsim::SimDuration::from_millis(1),
                10,
            ))
        };
        [mk(&mut sim), mk(&mut sim)]
    }

    fn sample() -> ChaosCase {
        ChaosCase {
            seed: 0xdead_beef_0102_0304,
            algorithm: "olia".to_string(),
            rate_mbps: [8.0, 4.0],
            delay_ms: [40.0, 80.0],
            horizon_s: 30.0,
            clauses: vec![
                Clause::Outage {
                    path: 0,
                    from_s: 5.0,
                    dur_s: 3.0,
                },
                Clause::Blackout {
                    from_s: 12.0,
                    dur_s: 2.0,
                },
                Clause::LossBurst {
                    path: 1,
                    from_s: 2.0,
                    p: 0.2,
                    dur_s: 1.5,
                },
                Clause::Handover {
                    path: 1,
                    at_s: 18.0,
                    dur_s: 2.0,
                    degrade_mbps: 1.0,
                },
                Clause::RateStep {
                    path: 0,
                    at_s: 25.0,
                    rate_mbps: 6.0,
                },
                Clause::LatencyStep {
                    path: 0,
                    at_s: 26.0,
                    delay_ms: 15.0,
                },
                Clause::Flap {
                    path: 0,
                    from_s: 9.0,
                    down_s: 0.5,
                    up_s: 0.5,
                    cycles: 2,
                },
            ],
        }
    }

    #[test]
    fn case_json_round_trips() {
        let case = sample();
        let json = case.to_json();
        let back = ChaosCase::from_json(&json).expect("round trip");
        assert_eq!(case, back);
        // And the rendered bytes are stable across render/parse/render.
        let rendered = json.render_pretty();
        let reparsed = json::parse(&rendered).expect("parse rendered case");
        assert_eq!(rendered, reparsed.render_pretty());
    }

    #[test]
    fn sample_case_lowers_to_valid_plan() {
        let case = sample();
        let plan = case.plan(fwd_ids()).expect("valid plan");
        // outage 2 + blackout 4 + burst 1 + handover 4 + rate 1 + latency 1
        // + flap 4 actions.
        assert_eq!(plan.len(), 17);
    }

    #[test]
    fn overlapping_clause_composition_is_rejected() {
        let mut case = sample();
        case.clauses.push(Clause::Outage {
            path: 0,
            from_s: 5.5,
            dur_s: 1.0,
        });
        let err = case.plan(fwd_ids()).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
    }

    #[test]
    fn subset_of_valid_case_stays_valid() {
        // The shrinker's structural assumption: dropping any clause from a
        // valid case keeps the plan valid.
        let case = sample();
        for skip in 0..case.clauses.len() {
            let mut sub = case.clone();
            sub.clauses.remove(skip);
            assert!(
                sub.plan(fwd_ids()).is_ok(),
                "removing clause {skip} broke validity"
            );
        }
    }
}
