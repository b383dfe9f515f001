//! Machine-readable run reports.
//!
//! Every experiment binary ends by writing `results/<name>.json` through a
//! [`RunReport`]: what was run (scenario parameters, seed), what came out
//! (scalar metrics, the same tables the binary prints), and how fast the
//! simulator went (wall time, events processed, events/sec, sim-time to
//! wall-time ratio). The format is versioned ([`SCHEMA`]) and checked by
//! [`validate`], which CI runs against freshly produced reports — this is
//! the perf trajectory the `BENCH_*.json` files track across PRs.
//!
//! Shape of a report (all five top-level sections are required):
//!
//! ```json
//! {
//!   "schema": "mptcp-run-report/v2",
//!   "name": "scenario_a",
//!   "params": { "replications": 5, "seed": 1 },
//!   "metrics": { "flow.0.goodput.mbps": 3.2 },
//!   "tables": { "flow groups": [ { "group": "mptcp", "mean Mb/s": 4.1 } ] },
//!   "profile": { "wall_s": 1.2, "events": 410000, "events_per_sec": 3.4e5,
//!                "sim_s": 45.0, "sim_wall_ratio": 37.5,
//!                "percentiles": { "fct_s": { "p50": 1.1, "p95": 2.0, "p99": 2.4 } } }
//! }
//! ```
//!
//! v2 added the optional `profile.percentiles` section — tail percentiles
//! of every histogram snapshot into the report (the sweep explorer's
//! per-point pages surface them). Every report in the tree, orchestra's
//! per-job reports among them, is written as v2, and [`validate`] accepts
//! only v2.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use eventsim::SimTime;
use metrics::Registry;
use netsim::profile::RunProfile;

use crate::table::Table;
use json::Json;

/// Version tag every report carries in its `schema` field.
pub const SCHEMA: &str = "mptcp-run-report/v2";

/// Version tag of the cross-seed sweep reports `orchestra` emits (see
/// [`validate_sweep`]).
pub const SWEEP_SCHEMA: &str = "mptcp-sweep-report/v1";

/// Version tag of the chaos-fuzzing campaign reports the `chaos` crate
/// emits (see [`validate_chaos`]).
pub const CHAOS_SCHEMA: &str = "mptcp-chaos-report/v1";

/// Accumulates one experiment run's parameters and results, then writes the
/// machine-readable summary (module docs) to `results/`.
///
/// Construct with [`RunReport::start`] *before* the simulations run: that
/// opens the profiling window the final report's `profile` section closes.
#[derive(Debug)]
pub struct RunReport {
    name: String,
    params: BTreeMap<String, Json>,
    metrics: BTreeMap<String, f64>,
    tables: BTreeMap<String, Json>,
    percentiles: BTreeMap<String, [f64; 3]>,
    profile: RunProfile,
}

impl RunReport {
    /// Begin a report named `name` (also the output file stem) and open its
    /// profiling window.
    pub fn start(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            params: BTreeMap::new(),
            metrics: BTreeMap::new(),
            tables: BTreeMap::new(),
            percentiles: BTreeMap::new(),
            profile: RunProfile::start(),
        }
    }

    /// Record one scenario parameter (seed, replication count, flag, ...).
    pub fn param(&mut self, key: &str, value: impl Into<Json>) {
        self.params.insert(key.to_string(), value.into());
    }

    /// Record one scalar result metric.
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key.to_string(), value);
    }

    /// Record the standard measurement-window parameters every figure
    /// binary shares.
    pub fn cfg(&mut self, cfg: &crate::RunCfg) {
        self.param("warmup_s", cfg.warmup_s);
        self.param("measure_s", cfg.measure_s);
        self.param("jitter_s", cfg.jitter_s);
        self.param("replications", cfg.replications as u64);
        self.param("seed", cfg.seed);
    }

    /// Snapshot a whole [`Registry`] into the metrics section, prefixing
    /// every flattened name with `prefix.` (or nothing when empty).
    pub fn registry(&mut self, prefix: &str, registry: &Registry, now: SimTime) {
        for (name, value) in registry.snapshot(now) {
            let key = if prefix.is_empty() {
                name
            } else {
                format!("{prefix}.{name}")
            };
            self.metrics.insert(key, value);
        }
        // Histograms additionally export their tail percentiles into the
        // profile section (v2), where sweep tooling picks them up.
        for (name, h) in registry.histograms() {
            if h.total() == 0 {
                continue;
            }
            let key = if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            };
            self.percentiles
                .insert(key, [h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)]);
        }
    }

    /// Embed a results table (the same one the binary prints), keyed by its
    /// title. Numeric-looking cells become JSON numbers.
    pub fn table(&mut self, table: &Table) {
        self.tables
            .insert(table.title().to_string(), table.to_json());
    }

    /// Close the profiling window and assemble the report document.
    pub fn finish(&self) -> Json {
        let p = self.profile.finish();
        self.document(Json::object([
            ("wall_s", Json::from(p.wall_s)),
            ("events", Json::from(p.events)),
            ("events_per_sec", Json::from(p.events_per_sec())),
            ("sim_s", Json::from(p.sim_ns as f64 / 1e9)),
            ("sim_wall_ratio", Json::from(p.sim_wall_ratio())),
        ]))
    }

    /// [`finish`](RunReport::finish) with a [`timeless_profile`], so the
    /// document is a pure function of what ran: a tracked report's bytes
    /// then change only when behaviour does.
    pub fn finish_timeless(&self) -> Json {
        let p = self.profile.finish();
        self.document(timeless_profile(p.events, p.sim_ns as f64 / 1e9))
    }

    /// The report document around `profile`, an object to which the
    /// histogram percentiles are added.
    fn document(&self, mut profile: Json) -> Json {
        if !self.percentiles.is_empty() {
            let pcts: BTreeMap<String, Json> = self
                .percentiles
                .iter()
                .map(|(name, [p50, p95, p99])| {
                    (
                        name.clone(),
                        Json::object([
                            ("p50", Json::from(*p50)),
                            ("p95", Json::from(*p95)),
                            ("p99", Json::from(*p99)),
                        ]),
                    )
                })
                .collect();
            if let Json::Object(fields) = &mut profile {
                fields.insert("percentiles".to_string(), Json::Object(pcts));
            }
        }
        Json::object([
            ("schema", Json::from(SCHEMA)),
            ("name", Json::from(self.name.clone())),
            ("params", Json::Object(self.params.clone())),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("tables", Json::Object(self.tables.clone())),
            ("profile", profile),
        ])
    }

    /// Finish and write `results/<name>.json` (pretty, trailing newline).
    pub fn write(&self) -> io::Result<PathBuf> {
        let doc = self.finish();
        debug_assert!(validate(&doc).is_ok(), "self-produced report invalid");
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, doc.render_pretty() + "\n")?;
        Ok(path)
    }

    /// [`write`](RunReport::write), reporting the outcome on stderr instead
    /// of propagating it — experiment binaries should still print their
    /// tables even when `results/` is unwritable.
    pub fn write_or_warn(&self) {
        match self.write() {
            Ok(path) => eprintln!("run report: {}", path.display()),
            Err(e) => eprintln!("run report: cannot write results/{}.json: {e}", self.name),
        }
    }
}

/// A report `profile` whose wall-clock fields (`wall_s`, `events_per_sec`,
/// `sim_wall_ratio`) are zero, keeping the simulation-deterministic
/// `events` and `sim_s`, so the report's bytes do not depend on the host,
/// its load or the worker count.
pub fn timeless_profile(events: u64, sim_s: f64) -> Json {
    Json::object([
        ("wall_s", Json::from(0.0)),
        ("events", Json::from(events)),
        ("events_per_sec", Json::from(0.0)),
        ("sim_s", Json::from(sim_s)),
        ("sim_wall_ratio", Json::from(0.0)),
    ])
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("missing required field {key:?}"))
}

fn require_number(obj: &Json, section: &str, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{section}.{key} must be a number"))
}

/// Validate a parsed document against the run-report schema.
///
/// Checks the version tag, the presence and JSON types of every section,
/// that metrics are numeric, that tables are arrays of objects holding only
/// scalars, and that the profile carries all five measurements with sane
/// signs. Returns the first problem found.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.as_object().is_none() {
        return Err("report must be a JSON object".to_string());
    }
    match require(doc, "schema")?.as_str() {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema {other:?} (expected {SCHEMA:?})")),
        None => return Err("schema must be a string".to_string()),
    }
    if require(doc, "name")?.as_str().is_none_or(str::is_empty) {
        return Err("name must be a non-empty string".to_string());
    }
    let params = require(doc, "params")?;
    if params.as_object().is_none() {
        return Err("params must be an object".to_string());
    }
    // Reports may record which simulation engine produced them; when they
    // do, the value must name a real backend so `--strict` scans catch a
    // mislabeled run instead of filing it under a phantom engine.
    if let Some(backend) = params.get("backend") {
        if !matches!(backend.as_str(), Some("packet") | Some("flow")) {
            return Err(format!(
                "params.backend must be \"packet\" or \"flow\", got {backend:?}"
            ));
        }
    }
    let metrics = require(doc, "metrics")?
        .as_object()
        .ok_or("metrics must be an object")?;
    for (k, v) in metrics {
        if v.as_f64().is_none() {
            return Err(format!("metrics.{k} must be a number"));
        }
    }
    let tables = require(doc, "tables")?
        .as_object()
        .ok_or("tables must be an object")?;
    for (name, rows) in tables {
        let rows = rows
            .as_array()
            .ok_or_else(|| format!("tables.{name:?} must be an array"))?;
        for row in rows {
            let cells = row
                .as_object()
                .ok_or_else(|| format!("tables.{name:?} rows must be objects"))?;
            for (col, cell) in cells {
                if cell.as_f64().is_none() && cell.as_str().is_none() {
                    return Err(format!(
                        "tables.{name:?} cell {col:?} must be a number or string"
                    ));
                }
            }
        }
    }
    let profile = require(doc, "profile")?;
    if profile.as_object().is_none() {
        return Err("profile must be an object".to_string());
    }
    for key in [
        "wall_s",
        "events",
        "events_per_sec",
        "sim_s",
        "sim_wall_ratio",
    ] {
        if require_number(profile, "profile", key)? < 0.0 {
            return Err(format!("profile.{key} must be non-negative"));
        }
    }
    let events = require_number(profile, "profile", "events")?;
    if events.fract() != 0.0 {
        return Err("profile.events must be an integer".to_string());
    }
    if let Some(pcts) = profile.get("percentiles") {
        let pcts = pcts
            .as_object()
            .ok_or("profile.percentiles must be an object")?;
        for (name, entry) in pcts {
            let ctx = format!("profile.percentiles.{name}");
            let q = |key: &str| require_number(entry, &ctx, key);
            let (p50, p95, p99) = (q("p50")?, q("p95")?, q("p99")?);
            if !(p50 <= p95 && p95 <= p99) {
                return Err(format!("{ctx}: quantiles must satisfy p50 <= p95 <= p99"));
            }
        }
    }
    Ok(())
}

fn require_count(obj: &Json, section: &str, key: &str) -> Result<f64, String> {
    let n = require_number(obj, section, key)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{section}.{key} must be a non-negative integer"));
    }
    Ok(n)
}

/// Validate a parsed document against the sweep-report schema
/// ([`SWEEP_SCHEMA`]) that the `orchestra` runner writes as
/// `results/orchestra/<run-id>/sweep.json`.
///
/// A sweep report carries the manifest identity, job accounting
/// (`total == done + failed`, plus the pool's abandoned-thread tally),
/// one entry per parameter point with
/// cross-seed statistics (`n`/`mean`/`std`/`min`/`max`/`ci95` per metric)
/// plus the per-seed trace digests, and a `job_index` of every job's
/// outcome. Returns the first problem found.
pub fn validate_sweep(doc: &Json) -> Result<(), String> {
    if doc.as_object().is_none() {
        return Err("sweep report must be a JSON object".to_string());
    }
    match require(doc, "schema")?.as_str() {
        Some(SWEEP_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "unknown schema {other:?} (expected {SWEEP_SCHEMA:?})"
            ))
        }
        None => return Err("schema must be a string".to_string()),
    }
    let manifest = require(doc, "manifest")?;
    if manifest.as_object().is_none() {
        return Err("manifest must be an object".to_string());
    }
    if manifest
        .get("id")
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("manifest.id must be a non-empty string".to_string());
    }
    if manifest.get("scale").and_then(Json::as_str).is_none() {
        return Err("manifest.scale must be a string".to_string());
    }
    let seeds = manifest
        .get("seeds")
        .and_then(Json::as_array)
        .ok_or("manifest.seeds must be an array")?;
    if seeds.is_empty() || seeds.iter().any(|s| s.as_f64().is_none()) {
        return Err("manifest.seeds must be a non-empty array of numbers".to_string());
    }
    let jobs = require(doc, "jobs")?;
    if jobs.as_object().is_none() {
        return Err("jobs must be an object".to_string());
    }
    let total = require_count(jobs, "jobs", "total")?;
    let done = require_count(jobs, "jobs", "done")?;
    let failed = require_count(jobs, "jobs", "failed")?;
    if done + failed != total {
        return Err("jobs.total must equal jobs.done + jobs.failed".to_string());
    }
    require_count(jobs, "jobs", "abandoned")?;
    let points = require(doc, "points")?
        .as_array()
        .ok_or("points must be an array")?;
    for (i, point) in points.iter().enumerate() {
        let ctx = format!("points[{i}]");
        if point
            .get("scenario")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{ctx}.scenario must be a non-empty string"));
        }
        if point.get("params").and_then(Json::as_object).is_none() {
            return Err(format!("{ctx}.params must be an object"));
        }
        let pt_seeds = point
            .get("seeds")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{ctx}.seeds must be an array"))?;
        if pt_seeds.iter().any(|s| s.as_f64().is_none()) {
            return Err(format!("{ctx}.seeds must hold numbers"));
        }
        let metrics = point
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{ctx}.metrics must be an object"))?;
        for (name, stats) in metrics {
            let sctx = format!("{ctx}.metrics.{name}");
            if stats.as_object().is_none() {
                return Err(format!("{sctx} must be a stats object"));
            }
            let n = require_count(stats, &sctx, "n")?;
            if n < 1.0 {
                return Err(format!("{sctx}.n must be >= 1"));
            }
            for key in ["mean", "std", "min", "max", "ci95"] {
                require_number(stats, &sctx, key)?;
            }
        }
        let digests = point
            .get("digests")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{ctx}.digests must be an array"))?;
        if digests.iter().any(|d| d.as_str().is_none()) {
            return Err(format!("{ctx}.digests must hold strings"));
        }
    }
    let index = require(doc, "job_index")?
        .as_array()
        .ok_or("job_index must be an array")?;
    if index.len() as f64 != total {
        return Err("job_index length must equal jobs.total".to_string());
    }
    for (i, entry) in index.iter().enumerate() {
        let ctx = format!("job_index[{i}]");
        if entry
            .get("job")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{ctx}.job must be a non-empty string"));
        }
        let status = entry
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}.status must be a string"))?;
        let attempts = require_count(entry, &ctx, "attempts")?;
        if attempts < 1.0 {
            return Err(format!("{ctx}.attempts must be >= 1"));
        }
        match status {
            "done" => {
                if entry.get("report").and_then(Json::as_str).is_none() {
                    return Err(format!("{ctx}.report must be a string for done jobs"));
                }
            }
            "failed" => {
                if entry.get("error").and_then(Json::as_str).is_none() {
                    return Err(format!("{ctx}.error must be a string for failed jobs"));
                }
            }
            other => {
                return Err(format!(
                    "{ctx}.status must be \"done\" or \"failed\", got {other:?}"
                ))
            }
        }
    }
    Ok(())
}

/// Validate a parsed document against the chaos-campaign schema
/// ([`CHAOS_SCHEMA`]) that the `chaos` binary writes under
/// `results/chaos/`.
///
/// A chaos report carries the campaign identity (seed, budget), a summary
/// whose counts must reconcile (`run == violating + clean`) with the
/// campaign-wide determinism digest, and one entry per shrunk repro — each
/// holding a replayable minimal case, the trace digest a replay must
/// reproduce, and the first invariant violation. Returns the first problem
/// found.
pub fn validate_chaos(doc: &Json) -> Result<(), String> {
    if doc.as_object().is_none() {
        return Err("chaos report must be a JSON object".to_string());
    }
    match require(doc, "schema")?.as_str() {
        Some(CHAOS_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "unknown schema {other:?} (expected {CHAOS_SCHEMA:?})"
            ))
        }
        None => return Err("schema must be a string".to_string()),
    }
    let campaign = require(doc, "campaign")?;
    if campaign.as_object().is_none() {
        return Err("campaign must be an object".to_string());
    }
    if campaign
        .get("seed_hex")
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("campaign.seed_hex must be a non-empty string".to_string());
    }
    require_count(campaign, "campaign", "iterations")?;
    require_count(campaign, "campaign", "jobs")?;
    if campaign
        .get("stop_on_first")
        .and_then(Json::as_bool)
        .is_none()
    {
        return Err("campaign.stop_on_first must be a boolean".to_string());
    }
    let summary = require(doc, "summary")?;
    if summary.as_object().is_none() {
        return Err("summary must be an object".to_string());
    }
    let run = require_count(summary, "summary", "run")?;
    let violating = require_count(summary, "summary", "violating")?;
    let clean = require_count(summary, "summary", "clean")?;
    if violating + clean != run {
        return Err("summary.run must equal summary.violating + summary.clean".to_string());
    }
    if summary
        .get("campaign_digest")
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("summary.campaign_digest must be a non-empty string".to_string());
    }
    require_count(summary, "summary", "events")?;
    if require_number(summary, "summary", "sim_s")? < 0.0 {
        return Err("summary.sim_s must be non-negative".to_string());
    }
    let repros = require(doc, "repros")?
        .as_array()
        .ok_or("repros must be an array")?;
    if repros.len() as f64 != violating {
        return Err("repros length must equal summary.violating".to_string());
    }
    for (i, repro) in repros.iter().enumerate() {
        let ctx = format!("repros[{i}]");
        require_count(repro, &ctx, "iteration")?;
        let case = repro
            .get("case")
            .ok_or_else(|| format!("{ctx}.case is required"))?;
        if case.as_object().is_none() {
            return Err(format!("{ctx}.case must be an object"));
        }
        if case
            .get("seed_hex")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{ctx}.case.seed_hex must be a non-empty string"));
        }
        if case
            .get("algorithm")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{ctx}.case.algorithm must be a non-empty string"));
        }
        let cctx = format!("{ctx}.case");
        if require_number(case, &cctx, "horizon_s")? <= 0.0 {
            return Err(format!("{cctx}.horizon_s must be positive"));
        }
        let case_clauses = case
            .get("clauses")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{cctx}.clauses must be an array"))?;
        let clauses = require_count(repro, &ctx, "clauses")?;
        if case_clauses.len() as f64 != clauses {
            return Err(format!("{ctx}.clauses must match the case's clause count"));
        }
        let original = require_count(repro, &ctx, "original_clauses")?;
        if original < clauses {
            return Err(format!(
                "{ctx}.original_clauses must be >= {ctx}.clauses (shrinking never grows)"
            ));
        }
        require_count(repro, &ctx, "shrink_executions")?;
        if repro
            .get("trace_digest")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{ctx}.trace_digest must be a non-empty string"));
        }
        let violation = repro
            .get("violation")
            .ok_or_else(|| format!("{ctx}.violation is required"))?;
        if violation.as_object().is_none() {
            return Err(format!("{ctx}.violation must be an object"));
        }
        let vctx = format!("{ctx}.violation");
        require_count(violation, &vctx, "t_ns")?;
        if violation
            .get("what")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("{vctx}.what must be a non-empty string"));
        }
        if require_count(repro, &ctx, "violations")? < 1.0 {
            return Err(format!("{ctx}.violations must be >= 1"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::parse;

    #[test]
    fn produced_reports_validate() {
        let mut r = RunReport::start("unit_test_run");
        r.param("seed", 7u64);
        r.param("algorithm", "olia");
        r.metric("goodput.mbps", 3.25);
        let mut t = Table::new("demo", &["flow", "Mb/s"]);
        t.row(&["mptcp".into(), "4.2".into()]);
        r.table(&t);
        let doc = r.finish();
        validate(&doc).expect("fresh report must validate");
        // And survives a serialize/parse round trip.
        let reparsed = parse(&doc.render_pretty()).unwrap();
        validate(&reparsed).unwrap();
        assert_eq!(
            reparsed.get("name").unwrap().as_str(),
            Some("unit_test_run")
        );
        let profile = reparsed.get("profile").unwrap();
        assert!(profile.get("wall_s").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn registry_snapshot_lands_in_metrics() {
        let mut reg = Registry::new();
        reg.inc("queue.ap.dropped", 3);
        reg.set_gauge("flow.0.goodput_mbps", 2.5);
        let mut r = RunReport::start("unit_test_registry");
        r.registry("", &reg, SimTime::ZERO);
        r.registry("rep0", &reg, SimTime::ZERO);
        let doc = r.finish();
        validate(&doc).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("queue.ap.dropped").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            metrics.get("rep0.flow.0.goodput_mbps").unwrap().as_f64(),
            Some(2.5)
        );
    }

    #[test]
    fn histogram_percentiles_land_in_profile() {
        let mut reg = Registry::new();
        for v in [1.0, 2.0, 3.0, 4.0, 50.0] {
            reg.histogram("fct_s", 0.5, 200).record(v);
        }
        reg.inc("drops", 1); // non-histograms must not produce entries
        let mut r = RunReport::start("unit_test_percentiles");
        r.registry("", &reg, SimTime::ZERO);
        let doc = r.finish();
        validate(&doc).expect("v2 report with percentiles must validate");
        let pcts = doc
            .get("profile")
            .and_then(|p| p.get("percentiles"))
            .expect("profile.percentiles missing");
        let fct = pcts.get("fct_s").expect("fct_s percentiles missing");
        let p50 = fct.get("p50").unwrap().as_f64().unwrap();
        let p99 = fct.get("p99").unwrap().as_f64().unwrap();
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(pcts.get("drops").is_none());

        // The timeless profile keeps them and zeroes only the wall clock.
        let timeless = r.finish_timeless();
        validate(&timeless).unwrap();
        let profile = timeless.get("profile").unwrap();
        assert_eq!(profile.get("percentiles"), Some(pcts));
        for key in ["wall_s", "events_per_sec", "sim_wall_ratio"] {
            assert_eq!(profile.get(key).and_then(Json::as_f64), Some(0.0), "{key}");
        }

        // A registry without histogram samples adds no percentiles section.
        let mut r = RunReport::start("unit_test_no_percentiles");
        let mut empty = Registry::new();
        empty.inc("drops", 1);
        r.registry("", &empty, SimTime::ZERO);
        let doc = r.finish();
        validate(&doc).unwrap();
        assert!(doc.get("profile").unwrap().get("percentiles").is_none());
    }

    #[test]
    fn only_the_written_schema_version_validates() {
        let v2 = r#"{"schema":"mptcp-run-report/v2","name":"x","params":{},"metrics":{},
            "tables":{},"profile":{"wall_s":0,"events":0,"events_per_sec":0,"sim_s":0,"sim_wall_ratio":0}}"#;
        validate(&parse(v2).unwrap()).expect("v2 must validate");
        let v1 = v2.replace("/v2", "/v1");
        let err = validate(&parse(&v1).unwrap()).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn disordered_percentiles_rejected() {
        let bad = r#"{"schema":"mptcp-run-report/v2","name":"x","params":{},"metrics":{},
            "tables":{},"profile":{"wall_s":0,"events":0,"events_per_sec":0,"sim_s":0,"sim_wall_ratio":0,
            "percentiles":{"fct_s":{"p50":5.0,"p95":2.0,"p99":9.0}}}}"#;
        let err = validate(&parse(bad).unwrap()).unwrap_err();
        assert!(err.contains("p50 <= p95"), "{err}");
        let missing = r#"{"schema":"mptcp-run-report/v2","name":"x","params":{},"metrics":{},
            "tables":{},"profile":{"wall_s":0,"events":0,"events_per_sec":0,"sim_s":0,"sim_wall_ratio":0,
            "percentiles":{"fct_s":{"p50":1.0}}}}"#;
        let err = validate(&parse(missing).unwrap()).unwrap_err();
        assert!(err.contains("p95"), "{err}");
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let good = RunReport::start("x").finish();
        validate(&good).unwrap();

        let cases = [
            (r#"{"schema":"bogus/v9"}"#, "unknown schema"),
            (r#"{"name":"x"}"#, "missing required field \"schema\""),
            (
                r#"{"schema":"mptcp-run-report/v2","name":"","params":{},"metrics":{},"tables":{},"profile":{}}"#,
                "non-empty",
            ),
            (
                r#"{"schema":"mptcp-run-report/v2","name":"x","params":{},"metrics":{"m":"nope"},"tables":{},"profile":{}}"#,
                "metrics.m",
            ),
            (
                r#"{"schema":"mptcp-run-report/v2","name":"x","params":{},"metrics":{},"tables":{"t":{}},"profile":{}}"#,
                "must be an array",
            ),
            (
                r#"{"schema":"mptcp-run-report/v2","name":"x","params":{},"metrics":{},"tables":{},"profile":{"wall_s":0.1}}"#,
                "profile.events",
            ),
            (
                r#"{"schema":"mptcp-run-report/v2","name":"x","params":{"backend":"hybrid"},"metrics":{},"tables":{},"profile":{}}"#,
                "params.backend",
            ),
            (
                r#"{"schema":"mptcp-run-report/v2","name":"x","params":{"backend":1},"metrics":{},"tables":{},"profile":{}}"#,
                "params.backend",
            ),
            ("[1,2]", "must be a JSON object"),
        ];
        for (text, needle) in cases {
            let err = validate(&parse(text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn validation_accepts_flow_backend_reports() {
        let mut r = RunReport::start("flowscale_churn");
        r.param("backend", Json::from("flow"));
        validate(&r.finish()).unwrap();
        let mut r = RunReport::start("scenario_a");
        r.param("backend", Json::from("packet"));
        validate(&r.finish()).unwrap();
    }

    fn sweep_doc() -> String {
        r#"{
          "schema": "mptcp-sweep-report/v1",
          "manifest": {"id": "ci_quick", "scale": "quick", "seeds": [1, 2]},
          "jobs": {"total": 3, "done": 2, "failed": 1, "abandoned": 0},
          "points": [
            {
              "scenario": "smoke",
              "params": {"algorithm": "lia"},
              "seeds": [1, 2],
              "metrics": {
                "goodput.mbps": {"n": 2, "mean": 3.0, "std": 0.1,
                                 "min": 2.9, "max": 3.1, "ci95": 0.14}
              },
              "digests": ["0011223344556677", "8899aabbccddeeff"]
            }
          ],
          "job_index": [
            {"job": "smoke?algorithm=lia#seed=1", "status": "done",
             "attempts": 1, "report": "jobs/a.json", "digest": "0011223344556677"},
            {"job": "smoke?algorithm=lia#seed=2", "status": "done",
             "attempts": 2, "report": "jobs/b.json", "digest": "8899aabbccddeeff"},
            {"job": "smoke?algorithm=bogus#seed=1", "status": "failed",
             "attempts": 3, "error": "panicked: unknown algorithm"}
          ]
        }"#
        .to_string()
    }

    #[test]
    fn sweep_validation_accepts_well_formed_report() {
        validate_sweep(&parse(&sweep_doc()).unwrap()).unwrap();
    }

    #[test]
    fn sweep_validation_rejects_malformed_reports() {
        let base = sweep_doc();
        let cases = [
            (
                base.replace("mptcp-sweep-report/v1", "bogus/v9"),
                "unknown schema",
            ),
            (
                base.replace(r#""id": "ci_quick""#, r#""id": """#),
                "manifest.id",
            ),
            (
                base.replace(r#""total": 3"#, r#""total": 4"#),
                "jobs.done + jobs.failed",
            ),
            (base.replace(r#""n": 2"#, r#""n": 0"#), "n must be >= 1"),
            (base.replace(r#", "abandoned": 0"#, ""), "jobs.abandoned"),
            (
                base.replace(r#""std": 0.1"#, r#""std": "x""#),
                "std must be a number",
            ),
            (
                base.replace(r#""status": "failed""#, r#""status": "exploded""#),
                "status must be",
            ),
            (
                base.replace(
                    r#""error": "panicked: unknown algorithm""#,
                    r#""note": "x""#,
                ),
                "error must be a string",
            ),
            (
                base.replace(r#""attempts": 1,"#, r#""attempts": 0,"#),
                "attempts must be >= 1",
            ),
        ];
        for (text, needle) in cases {
            let err = validate_sweep(&parse(&text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{needle} not in {err}");
        }
        // Dropping a job_index entry breaks the total invariant.
        let doc = parse(&sweep_doc()).unwrap();
        let mut obj = doc.as_object().unwrap().clone();
        let trimmed: Vec<Json> = obj["job_index"].as_array().unwrap()[..2].to_vec();
        obj.insert("job_index".into(), Json::Array(trimmed));
        let err = validate_sweep(&Json::Object(obj)).unwrap_err();
        assert!(err.contains("job_index length"), "{err}");
    }

    fn chaos_doc() -> String {
        r#"{
          "schema": "mptcp-chaos-report/v1",
          "campaign": {"seed_hex": "0000000000000001", "iterations": 500,
                       "jobs": 4, "stop_on_first": true},
          "summary": {"run": 24, "violating": 1, "clean": 23,
                      "campaign_digest": "00aabbccddeeff11",
                      "events": 123456, "sim_s": 840.5},
          "repros": [
            {
              "iteration": 23,
              "case": {"seed_hex": "deadbeefdeadbeef", "algorithm": "lia",
                       "rate_mbps": [8, 8], "delay_ms": [20, 40],
                       "horizon_s": 30.0,
                       "clauses": [{"kind": "outage", "path": 0,
                                    "from_s": 4.0, "dur_s": 18.0}]},
              "clauses": 1,
              "original_clauses": 3,
              "shrink_executions": 9,
              "trace_digest": "1122334455667788",
              "violation": {"t_ns": 19000000000,
                            "what": "re-probe backoff exceeds cap: 16s > 8s"},
              "violations": 2
            }
          ]
        }"#
        .to_string()
    }

    #[test]
    fn chaos_validation_accepts_well_formed_report() {
        validate_chaos(&parse(&chaos_doc()).unwrap()).unwrap();
    }

    #[test]
    fn chaos_validation_rejects_malformed_reports() {
        let base = chaos_doc();
        let cases = [
            (
                base.replace("mptcp-chaos-report/v1", "bogus/v9"),
                "unknown schema",
            ),
            (
                base.replace(r#""seed_hex": "0000000000000001""#, r#""seed_hex": """#),
                "campaign.seed_hex",
            ),
            (
                base.replace(r#""run": 24"#, r#""run": 25"#),
                "summary.violating + summary.clean",
            ),
            (
                base.replace(r#""violating": 1"#, r#""violating": 0"#),
                "summary.violating",
            ),
            (
                base.replace(r#""stop_on_first": true"#, r#""stop_on_first": 1"#),
                "stop_on_first must be a boolean",
            ),
            (
                base.replace(
                    r#""trace_digest": "1122334455667788""#,
                    r#""trace_digest": """#,
                ),
                "trace_digest",
            ),
            (
                base.replace(r#""original_clauses": 3"#, r#""original_clauses": 0"#),
                "shrinking never grows",
            ),
            (
                base.replace(r#""violations": 2"#, r#""violations": 0"#),
                "violations must be >= 1",
            ),
            (
                base.replace(r#""horizon_s": 30.0"#, r#""horizon_s": 0"#),
                "horizon_s must be positive",
            ),
        ];
        for (text, needle) in cases {
            let err = validate_chaos(&parse(&text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{needle} not in {err}");
        }
    }

    #[test]
    fn negative_profile_values_rejected() {
        let text = r#"{"schema":"mptcp-run-report/v2","name":"x","params":{},
            "metrics":{},"tables":{},
            "profile":{"wall_s":-1,"events":0,"events_per_sec":0,"sim_s":0,"sim_wall_ratio":0}}"#;
        assert!(validate(&parse(text).unwrap())
            .unwrap_err()
            .contains("wall_s"));
    }
}
