//! The benchmark's metric registry. `BENCHMARK.json` at the repository root
//! is its single source: every metric a run prints, its unit, which
//! direction is better and, for the end-to-end metrics, the bound. The file
//! is compiled in and parsed on first use. The one thing it cannot hold is
//! which end-to-end metric on which workload each per-layer metric should
//! move; that map is [`MOVES`], and a test keeps its names equal to the
//! file's.

use std::sync::OnceLock;

use bench::json::Json;

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric of the traced run.
pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// `BENCHMARK.json`, parsed.
pub struct Registry {
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
    /// Seconds one run measures for when `--seconds` is not given.
    pub run_seconds: f64,
}

const FILE: &str = include_str!("../../BENCHMARK.json");

fn parse(text: &str) -> Result<Registry, String> {
    let doc = bench::json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("no {key} array"))
    };
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("a metric has no {key}"))
    };
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(EndToEnd {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: field(m, "better")?,
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end-to-end metric has no bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|m| {
            Ok(PerLayer {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: field(m, "better")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("no run_seconds")?;
    Ok(Registry {
        end_to_end,
        per_layer,
        run_seconds,
    })
}

/// The registry. `BENCHMARK.json` is compiled in and checked by the tests
/// below, so a parse failure here is a bug.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| parse(FILE).expect("BENCHMARK.json is well formed"))
}

const SETUP_ALL: &str = "setup_s on every workload";
const SPEED_PACKET: &str = "sim_s_per_wall_s on packet_fattree and packet_scenc_faults";
const SPEED_FATTREE: &str = "sim_s_per_wall_s on packet_fattree";
const SPEED_SCENC: &str = "sim_s_per_wall_s on packet_scenc_faults, little on packet_fattree";
const SPEED_TRACE: &str = "sim_s_per_wall_s on packet_scenc_faults only";
const SPEED_FLOW: &str = "sim_s_per_wall_s on flow_churn only";
const MEMORY: &str = "peak_live_bytes";

/// For each per-layer metric, the end-to-end metric and workloads it
/// should move.
pub const MOVES: [(&str, &str); 39] = [
    ("topo.build_s", SETUP_ALL),
    ("workload.plan_s", SETUP_ALL),
    ("tcpsim.install_s", SETUP_ALL),
    ("flowsim.install_s", "setup_s on flow_churn only"),
    ("tcpsim.bytes_per_conn", "peak_live_bytes on packet_fattree"),
    ("flowsim.bytes_per_flow", "peak_live_bytes on flow_churn"),
    ("topo.bytes", MEMORY),
    ("tcpsim.callbacks", SPEED_SCENC),
    ("tcpsim.on_packet", SPEED_SCENC),
    ("tcpsim.on_timer", SPEED_SCENC),
    ("tcpsim.self_s", SPEED_SCENC),
    ("tcpsim.ns_per_callback", SPEED_SCENC),
    ("netsim.run_s", SPEED_FATTREE),
    ("netsim.self_s", SPEED_FATTREE),
    ("netsim.events", SPEED_FATTREE),
    ("netsim.events_per_s", SPEED_FATTREE),
    ("netsim.ns_per_event_self", SPEED_FATTREE),
    ("netsim.drop_ratio", SPEED_FATTREE),
    ("netsim.peak_arena", SPEED_FATTREE),
    ("netsim.arena_inserts", SPEED_FATTREE),
    ("eventsim.peak_heap", SPEED_PACKET),
    ("eventsim.peak_timers", SPEED_PACKET),
    ("eventsim.stale_timer_drains", SPEED_PACKET),
    ("eventsim.stale_ratio", SPEED_PACKET),
    ("trace.records", SPEED_TRACE),
    ("trace.record_s", SPEED_TRACE),
    ("trace.ns_per_record", SPEED_TRACE),
    ("flowsim.run_s", SPEED_FLOW),
    ("flowsim.events", SPEED_FLOW),
    ("flowsim.events_per_s", SPEED_FLOW),
    ("flowsim.recomputes", SPEED_FLOW),
    ("flowsim.recompute_ms_p50", SPEED_FLOW),
    ("flowsim.recompute_ms_tail", SPEED_FLOW),
    ("flowsim.pump_s", SPEED_FLOW),
    ("flowsim.recompute_ns_per_subflow", SPEED_FLOW),
    ("flowsim.recompute_scaling_exp", SPEED_FLOW),
    ("flowsim.completed", SPEED_FLOW),
    (
        "harness.overhead",
        "nothing: the cost of the benchmark's own wrappers",
    ),
    (
        "harness.clock_ns",
        "nothing: the resolution span times are quantised to",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// The workload names `BENCHMARK.json` lists, in file order.
    fn workloads() -> Vec<String> {
        let doc = bench::json::parse(FILE).unwrap();
        let list = doc.get("workloads").and_then(Json::as_array).unwrap();
        list.iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_parses_and_names_the_workloads() {
        let r = registry();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads(), names);
        assert!(r.run_seconds >= 1.0);
        assert!(r.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(r
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let better = |b: &str| b == "higher" || b == "lower";
        assert!(r.end_to_end.iter().all(|m| better(&m.better)));
        assert!(r.per_layer.iter().all(|m| better(&m.better)));
    }

    #[test]
    fn every_per_layer_metric_says_what_it_moves() {
        let file: Vec<&str> = registry()
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let moves: Vec<&str> = MOVES.iter().map(|m| m.0).collect();
        assert_eq!(file, moves, "MOVES must list BENCHMARK.json's per_layer");
    }

    #[test]
    fn names_are_unique() {
        let r = registry();
        let workloads = workloads();
        let mut names: Vec<&str> = workloads.iter().map(String::as_str).collect();
        names.extend(r.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(r.per_layer.iter().map(|m| m.name.as_str()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
    }

    #[test]
    fn a_malformed_file_is_an_error() {
        assert!(parse("{}").is_err());
        assert!(parse(r#"{"end_to_end": [{"name": "x"}], "per_layer": []}"#).is_err());
    }
}
