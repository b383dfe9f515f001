//! JSON-described custom scenarios.
//!
//! A scenario file declares named links, groups of connections over them,
//! and the measurement windows; [`run_scenario`] builds it in the simulator
//! and returns per-group goodputs and per-link statistics. This is the
//! general-purpose front door for experiments the paper didn't run — see
//! `scenarios/*.json` at the repository root for examples and the
//! `repro_run` binary for the CLI.
//!
//! ```json
//! {
//!   "seed": 1,
//!   "warmup_s": 10.0,
//!   "measure_s": 30.0,
//!   "jitter_s": 1.0,
//!   "links": [
//!     { "name": "ap", "rate_mbps": 10.0, "latency_ms": 10.0,
//!       "queue": { "kind": "red_paper" } },
//!     { "name": "rev", "rate_mbps": 10000.0, "latency_ms": 40.0,
//!       "queue": { "kind": "drop_tail", "limit": 100000 } }
//!   ],
//!   "flows": [
//!     { "name": "mptcp", "algorithm": "olia", "count": 2,
//!       "paths": [ { "fwd": ["ap"], "rev": ["rev"] } ] }
//!   ]
//! }
//! ```

use std::collections::BTreeMap;

use eventsim::{SimDuration, SimRng, SimTime};
use metrics::Registry;
use mpsim_core::Algorithm;
use netsim::{route, QueueConfig, QueueId, RedParams, Simulation};
use tcpsim::{Connection, ConnectionSpec, PathSpec};
use topo::stagger_starts;

use json::Json;

/// Queue discipline selection in a scenario file.
#[derive(Debug, Clone)]
pub enum QueueSpec {
    /// The paper's capacity-scaled averaged-RED profile.
    RedPaper,
    /// Explicit RED parameters.
    Red {
        /// No drops below this length (packets).
        min_th: f64,
        /// `max_p` is reached here.
        max_th: f64,
        /// Drop probability at `max_th`.
        max_p: f64,
        /// Hard cap (packets).
        limit: usize,
        /// EWMA weight (0 = instantaneous).
        ewma_weight: f64,
    },
    /// Drop-tail with the given packet cap.
    DropTail {
        /// Buffer capacity in packets.
        limit: usize,
    },
    /// Fixed independent loss probability.
    Bernoulli {
        /// Per-packet drop probability.
        p: f64,
        /// Buffer capacity in packets.
        limit: usize,
    },
}

/// One named link (one direction).
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Name referenced by flow paths.
    pub name: String,
    /// Rate in Mb/s.
    pub rate_mbps: f64,
    /// Propagation latency in milliseconds.
    pub latency_ms: f64,
    /// Drop discipline.
    pub queue: QueueSpec,
}

/// A path named by the links it traverses.
#[derive(Debug, Clone)]
pub struct PathSpecNames {
    /// Forward (data) links, in order.
    pub fwd: Vec<String>,
    /// Reverse (ACK) links, in order.
    pub rev: Vec<String>,
}

/// A group of identical connections.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Group name for the report.
    pub name: String,
    /// Algorithm name (`olia`, `lia`, `reno`, ...).
    pub algorithm: String,
    /// How many identical connections to create.
    pub count: usize,
    /// The paths every connection in the group uses.
    pub paths: Vec<PathSpecNames>,
    /// Finite flow size in packets (absent = long-lived).
    pub size_packets: Option<u64>,
    /// Enable the §VII path-pruning extension with this cooldown (seconds).
    pub prune_cooldown_s: Option<f64>,
}

/// A whole scenario file.
#[derive(Debug, Clone)]
pub struct ScenarioFile {
    /// RNG seed (determinism!).
    pub seed: u64,
    /// Warmup seconds discarded before measuring.
    pub warmup_s: f64,
    /// Measured seconds.
    pub measure_s: f64,
    /// Start jitter window, seconds.
    pub jitter_s: f64,
    /// The links.
    pub links: Vec<LinkSpec>,
    /// The flow groups.
    pub flows: Vec<FlowSpec>,
}

// ---- JSON field extraction (hand-rolled: see the `json` crate) -----------

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("scenario parse error: {ctx}: missing field {key:?}"))
}

fn num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    field(obj, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("scenario parse error: {ctx}: field {key:?} must be a number"))
}

fn num_or(obj: &Json, key: &str, ctx: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("scenario parse error: {ctx}: field {key:?} must be a number")),
    }
}

fn string(obj: &Json, key: &str, ctx: &str) -> Result<String, String> {
    field(obj, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("scenario parse error: {ctx}: field {key:?} must be a string"))
}

fn string_list(v: &Json, ctx: &str) -> Result<Vec<String>, String> {
    v.as_array()
        .ok_or_else(|| format!("scenario parse error: {ctx}: expected an array of strings"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("scenario parse error: {ctx}: expected a string"))
        })
        .collect()
}

fn items<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], String> {
    field(obj, key, ctx)?
        .as_array()
        .ok_or_else(|| format!("scenario parse error: {ctx}: field {key:?} must be an array"))
}

fn queue_spec(v: &Json, ctx: &str) -> Result<QueueSpec, String> {
    let kind = string(v, "kind", ctx)?;
    match kind.as_str() {
        "red_paper" => Ok(QueueSpec::RedPaper),
        "red" => Ok(QueueSpec::Red {
            min_th: num(v, "min_th", ctx)?,
            max_th: num(v, "max_th", ctx)?,
            max_p: num(v, "max_p", ctx)?,
            limit: num(v, "limit", ctx)? as usize,
            ewma_weight: num_or(v, "ewma_weight", ctx, 0.0)?,
        }),
        "drop_tail" => Ok(QueueSpec::DropTail {
            limit: num(v, "limit", ctx)? as usize,
        }),
        "bernoulli" => Ok(QueueSpec::Bernoulli {
            p: num(v, "p", ctx)?,
            limit: num(v, "limit", ctx)? as usize,
        }),
        other => Err(format!(
            "scenario parse error: {ctx}: unknown queue kind {other:?}"
        )),
    }
}

/// Per-group result.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Group name.
    pub name: String,
    /// Goodput of each connection, Mb/s.
    pub goodputs_mbps: Vec<f64>,
    /// Completion times (seconds) of finished finite flows.
    pub completion_times_s: Vec<f64>,
}

/// Per-link result.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Link name.
    pub name: String,
    /// Loss probability over the measurement window.
    pub loss_probability: f64,
    /// Utilization over the measurement window.
    pub utilization: f64,
}

/// The scenario outcome.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// One entry per flow group.
    pub groups: Vec<GroupReport>,
    /// One entry per link.
    pub links: Vec<LinkReport>,
    /// Every counter and gauge of the run under stable dotted names
    /// (`queue.<link>.dropped`, `flow.<group>.<i>.goodput_mbps`, ...),
    /// ready to snapshot into a machine-readable run report.
    pub registry: Registry,
    /// Simulation events dispatched over the whole run.
    pub events_processed: u64,
    /// Simulated seconds covered (warmup + measurement).
    pub sim_end: SimTime,
}

/// Parse a scenario from JSON text.
pub fn parse_scenario(json: &str) -> Result<ScenarioFile, String> {
    let doc = json::parse(json).map_err(|e| format!("scenario parse error: {e}"))?;
    let links = items(&doc, "links", "scenario")?
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let ctx = format!("links[{i}]");
            Ok(LinkSpec {
                name: string(l, "name", &ctx)?,
                rate_mbps: num(l, "rate_mbps", &ctx)?,
                latency_ms: num(l, "latency_ms", &ctx)?,
                queue: queue_spec(field(l, "queue", &ctx)?, &ctx)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let flows = items(&doc, "flows", "scenario")?
        .iter()
        .enumerate()
        .map(|(i, fl)| {
            let ctx = format!("flows[{i}]");
            let paths = items(fl, "paths", &ctx)?
                .iter()
                .map(|p| {
                    Ok(PathSpecNames {
                        fwd: string_list(field(p, "fwd", &ctx)?, &ctx)?,
                        rev: string_list(field(p, "rev", &ctx)?, &ctx)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(FlowSpec {
                name: string(fl, "name", &ctx)?,
                algorithm: string(fl, "algorithm", &ctx)?,
                count: num_or(fl, "count", &ctx, 1.0)? as usize,
                paths,
                size_packets: fl
                    .get("size_packets")
                    .and_then(Json::as_f64)
                    .map(|n| n as u64),
                prune_cooldown_s: fl.get("prune_cooldown_s").and_then(Json::as_f64),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ScenarioFile {
        seed: num_or(&doc, "seed", "scenario", 1.0)? as u64,
        warmup_s: num(&doc, "warmup_s", "scenario")?,
        measure_s: num(&doc, "measure_s", "scenario")?,
        jitter_s: num_or(&doc, "jitter_s", "scenario", 0.0)?,
        links,
        flows,
    })
}

/// Build and run a parsed scenario.
///
/// Returns an error for dangling link names, unknown algorithms, or empty
/// path lists — everything else panics only on programmer error.
pub fn run_scenario(spec: &ScenarioFile) -> Result<ScenarioReport, String> {
    let mut sim = Simulation::new(spec.seed);
    let _trace = crate::tracing::attach_from_env(&mut sim, "custom", spec.seed);
    // BTreeMap, not HashMap: only keyed lookups today, but a sorted map
    // keeps any future iteration (e.g. error listings) deterministic.
    let mut by_name: BTreeMap<&str, QueueId> = BTreeMap::new();
    for link in &spec.links {
        if link.rate_mbps <= 0.0 {
            return Err(format!("link {}: rate must be positive", link.name));
        }
        let rate = link.rate_mbps * 1e6;
        let latency = SimDuration::from_secs_f64(link.latency_ms / 1e3);
        let config = match &link.queue {
            QueueSpec::RedPaper => QueueConfig::red_paper(rate, latency),
            QueueSpec::Red {
                min_th,
                max_th,
                max_p,
                limit,
                ewma_weight,
            } => QueueConfig::red(
                rate,
                latency,
                RedParams {
                    min_th: *min_th,
                    max_th: *max_th,
                    max_p: *max_p,
                    limit: *limit,
                    ewma_weight: *ewma_weight,
                },
            ),
            QueueSpec::DropTail { limit } => QueueConfig::drop_tail(rate, latency, *limit),
            QueueSpec::Bernoulli { p, limit } => QueueConfig::bernoulli(rate, latency, *p, *limit),
        };
        let id = sim.add_queue(config);
        if by_name.insert(link.name.as_str(), id).is_some() {
            return Err(format!("duplicate link name {:?}", link.name));
        }
    }

    let resolve = |names: &[String]| -> Result<Vec<QueueId>, String> {
        names
            .iter()
            .map(|n| {
                by_name
                    .get(n.as_str())
                    .copied()
                    .ok_or_else(|| format!("unknown link {n:?}"))
            })
            .collect()
    };

    let mut groups: Vec<(String, Vec<Connection>)> = Vec::new();
    let mut conn_id = 0;
    for flow in &spec.flows {
        let algorithm = Algorithm::from_name(&flow.algorithm)
            .ok_or_else(|| format!("unknown algorithm {:?}", flow.algorithm))?;
        if flow.paths.is_empty() {
            return Err(format!("flow {:?} has no paths", flow.name));
        }
        let mut conns = Vec::with_capacity(flow.count);
        for _ in 0..flow.count.max(1) {
            let mut cspec = ConnectionSpec::new(algorithm);
            for p in &flow.paths {
                cspec = cspec.with_path(PathSpec::new(
                    route(&resolve(&p.fwd)?),
                    route(&resolve(&p.rev)?),
                ));
            }
            if let Some(n) = flow.size_packets {
                cspec = cspec.with_size_packets(n);
            }
            if let Some(cd) = flow.prune_cooldown_s {
                cspec = cspec.with_path_pruning(SimDuration::from_secs_f64(cd));
            }
            conns.push(cspec.install(&mut sim, conn_id));
            conn_id += 1;
        }
        groups.push((flow.name.clone(), conns));
    }

    let all: Vec<Connection> = groups.iter().flat_map(|(_, c)| c.iter().cloned()).collect();
    let mut rng = SimRng::seed_from_u64(spec.seed ^ 0xCF61);
    stagger_starts(
        &mut sim,
        &all,
        SimDuration::from_secs_f64(spec.jitter_s),
        &mut rng,
    );
    let warm = SimTime::from_secs_f64(spec.warmup_s);
    sim.run_until(warm);
    sim.reset_queue_stats();
    for c in &all {
        c.handle.reset(sim.now());
    }
    let end = SimTime::from_secs_f64(spec.warmup_s + spec.measure_s);
    sim.run_until(end);

    let elapsed_ns = (end - warm).as_nanos();
    let mut registry = Registry::new();
    let group_reports: Vec<GroupReport> = groups
        .iter()
        .map(|(name, conns)| GroupReport {
            name: name.clone(),
            goodputs_mbps: conns.iter().map(|c| c.handle.goodput_mbps(end)).collect(),
            completion_times_s: conns
                .iter()
                .filter_map(|c| c.handle.completion_time())
                .collect(),
        })
        .collect();
    for g in &group_reports {
        for (i, &mbps) in g.goodputs_mbps.iter().enumerate() {
            registry.set_gauge(&format!("flow.{}.{i}.goodput_mbps", g.name), mbps);
        }
        for &fct in &g.completion_times_s {
            registry
                .histogram(&format!("flow.{}.fct_s", g.name), 0.25, 400)
                .record(fct);
        }
    }
    let link_reports: Vec<LinkReport> = spec
        .links
        .iter()
        .map(|l| {
            let stats = sim.queue_stats(by_name[l.name.as_str()]);
            let q = format!("queue.{}", l.name);
            registry.inc(&format!("{q}.arrived"), stats.arrived);
            registry.inc(&format!("{q}.dropped"), stats.dropped);
            registry.inc(&format!("{q}.dropped_down"), stats.dropped_down);
            registry.inc(&format!("{q}.marked"), stats.marked);
            registry.inc(&format!("{q}.forwarded"), stats.forwarded);
            registry.set_gauge(&format!("{q}.loss_probability"), stats.loss_probability());
            registry.set_gauge(&format!("{q}.utilization"), stats.utilization(elapsed_ns));
            LinkReport {
                name: l.name.clone(),
                loss_probability: stats.loss_probability(),
                utilization: stats.utilization(elapsed_ns),
            }
        })
        .collect();
    Ok(ScenarioReport {
        groups: group_reports,
        links: link_reports,
        registry,
        events_processed: sim.events_processed(),
        sim_end: end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"{
        "seed": 4,
        "warmup_s": 5.0,
        "measure_s": 15.0,
        "jitter_s": 1.0,
        "links": [
            { "name": "ap", "rate_mbps": 10.0, "latency_ms": 10.0,
              "queue": { "kind": "red_paper" } },
            { "name": "back", "rate_mbps": 10.0, "latency_ms": 10.0,
              "queue": { "kind": "drop_tail", "limit": 100 } },
            { "name": "rev", "rate_mbps": 10000.0, "latency_ms": 40.0,
              "queue": { "kind": "drop_tail", "limit": 100000 } }
        ],
        "flows": [
            { "name": "mptcp", "algorithm": "olia", "count": 2,
              "paths": [ { "fwd": ["ap"], "rev": ["rev"] },
                          { "fwd": ["back"], "rev": ["rev"] } ] },
            { "name": "tcp", "algorithm": "reno",
              "paths": [ { "fwd": ["ap"], "rev": ["rev"] } ] }
        ]
    }"#;

    #[test]
    fn parses_and_runs_demo() {
        let spec = parse_scenario(DEMO).expect("parse");
        assert_eq!(spec.links.len(), 3);
        assert_eq!(spec.flows[0].count, 2);
        let report = run_scenario(&spec).expect("run");
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.groups[0].goodputs_mbps.len(), 2);
        // Everyone delivers something over 15 measured seconds.
        for g in &report.groups {
            for &r in &g.goodputs_mbps {
                assert!(r > 0.5, "group {} rate {r}", g.name);
            }
        }
        // The shared AP is busy.
        assert!(report.links[0].utilization > 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = parse_scenario(DEMO).unwrap();
        let a = run_scenario(&spec).unwrap();
        let b = run_scenario(&spec).unwrap();
        assert_eq!(a.groups[0].goodputs_mbps, b.groups[0].goodputs_mbps);
    }

    #[test]
    fn unknown_link_rejected() {
        let bad = DEMO.replace("\"fwd\": [\"back\"]", "\"fwd\": [\"nope\"]");
        let spec = parse_scenario(&bad).unwrap();
        let err = run_scenario(&spec).unwrap_err();
        assert!(err.contains("unknown link"), "{err}");
    }

    #[test]
    fn unknown_algorithm_rejected() {
        let bad = DEMO.replace("\"reno\"", "\"warp-speed\"");
        let spec = parse_scenario(&bad).unwrap();
        assert!(run_scenario(&spec)
            .unwrap_err()
            .contains("unknown algorithm"));
    }

    #[test]
    fn duplicate_link_rejected() {
        let bad = DEMO.replace("\"name\": \"back\"", "\"name\": \"ap\"");
        let spec = parse_scenario(&bad).unwrap();
        assert!(run_scenario(&spec).unwrap_err().contains("duplicate link"));
    }

    #[test]
    fn garbage_json_is_an_error() {
        assert!(parse_scenario("{ nope").is_err());
    }

    #[test]
    fn finite_flows_report_completions() {
        let spec = parse_scenario(
            r#"{
            "warmup_s": 0.0, "measure_s": 20.0,
            "links": [
                { "name": "l", "rate_mbps": 50.0, "latency_ms": 5.0,
                  "queue": { "kind": "drop_tail", "limit": 200 } },
                { "name": "r", "rate_mbps": 50.0, "latency_ms": 5.0,
                  "queue": { "kind": "drop_tail", "limit": 200 } }
            ],
            "flows": [
                { "name": "short", "algorithm": "reno", "count": 3,
                  "size_packets": 47,
                  "paths": [ { "fwd": ["l"], "rev": ["r"] } ] }
            ]
        }"#,
        )
        .unwrap();
        let report = run_scenario(&spec).unwrap();
        assert_eq!(report.groups[0].completion_times_s.len(), 3);
    }
}
