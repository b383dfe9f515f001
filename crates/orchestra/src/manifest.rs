//! Job manifests: what to run, at which parameter points, over which seeds.
//!
//! A manifest is a small JSON document ([`MANIFEST_SCHEMA`]) naming
//! scenarios from the [`bench::jobs`] registry, optionally overriding their
//! parameter grids, and listing the seeds every point is replicated over:
//!
//! ```json
//! {
//!   "schema": "mptcp-manifest/v1",
//!   "id": "ci_quick",
//!   "scale": "quick",
//!   "seeds": [1, 2],
//!   "scenarios": [
//!     { "name": "smoke" },
//!     { "name": "smoke", "grid": { "algorithm": ["olia"], "n1": [3] } }
//!   ]
//! }
//! ```
//!
//! [`Manifest::expand`] turns this into the flat job list: the cartesian
//! product of each scenario's grid axes (axes sorted by name, values in
//! listed order), crossed with the seed list. Expansion is a pure function
//! of the manifest — the job list, the job *keys*, and the derived
//! simulation seeds never depend on worker count, scheduling, or wall
//! clock, which is what makes `--jobs 8` byte-identical to `--jobs 1` and
//! lets an interrupted run resume against the frozen manifest in its run
//! directory.
//!
//! Per-job seeds are derived by [`Manifest::derive_seed`]: an FNV-1a hash
//! (via [`trace::Digest64`]) of `manifest id + "\0" + job key`. Two jobs
//! never share a seed unless the manifest itself collides, and renumbering
//! or reordering unrelated jobs cannot shift anyone else's seed.

use std::collections::{BTreeMap, BTreeSet};

use bench::jobs::point_key;
use json::Json;
use trace::Digest64;

/// Version tag of manifest documents (also embedded in the frozen copy the
/// run directory keeps).
pub const MANIFEST_SCHEMA: &str = "mptcp-manifest/v1";

/// Grid-axis names the orchestrator itself writes into per-job reports;
/// manifests may not use them as parameter axes.
const RESERVED_AXES: &[&str] = &["scenario", "seed", "manifest_seed", "scale", "trace_digest"];

/// Measurement scale, selecting each scenario's quick (CI) or full (paper)
/// windows and default grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-scale windows.
    Quick,
    /// Full paper-scale windows.
    Full,
}

impl Scale {
    /// The manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Parse the manifest spelling.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Whether this is the quick scale (the flag jobs receive).
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }
}

/// One scenario selection in a manifest: the registry name plus an optional
/// grid override (axis name → values). Without an override the scenario's
/// default paper grid for the manifest's scale is swept.
#[derive(Debug, Clone)]
pub struct ScenarioEntry {
    /// Name in [`bench::jobs::REGISTRY`].
    pub name: String,
    /// Grid override; `None` means the registry default.
    pub grid: Option<Vec<(String, Vec<Json>)>>,
}

/// A parsed, validated job manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Stable identifier; salts every derived seed and names the default
    /// run directory.
    pub id: String,
    /// Measurement scale.
    pub scale: Scale,
    /// Seeds every parameter point is replicated over.
    pub seeds: Vec<u64>,
    /// The scenarios to sweep, in manifest order.
    pub entries: Vec<ScenarioEntry>,
}

/// One expanded job: a single (scenario, parameter point, seed) simulation.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable key `scenario?axis=value&...#seed=N` (axes sorted by name);
    /// names the job in the journal, the job index, and its report file.
    pub key: String,
    /// The key minus the `#seed=` suffix — all seeds of one parameter point
    /// share it, and the sweep aggregates over it.
    pub point_key: String,
    /// Registry scenario name.
    pub scenario: String,
    /// The parameter point.
    pub params: BTreeMap<String, Json>,
    /// The manifest seed this job replicates (small, human-chosen).
    pub manifest_seed: u64,
    /// The derived simulation seed (full 64-bit, manifest-stable).
    pub seed: u64,
}

fn grid_from_json(name: &str, grid: &Json) -> Result<Vec<(String, Vec<Json>)>, String> {
    let obj = grid
        .as_object()
        .ok_or_else(|| format!("scenarios[{name}].grid must be an object"))?;
    let mut axes = Vec::new();
    for (axis, values) in obj {
        if RESERVED_AXES.contains(&axis.as_str()) {
            return Err(format!(
                "scenarios[{name}].grid axis {axis:?} is reserved by the orchestrator"
            ));
        }
        let values = values
            .as_array()
            .ok_or_else(|| format!("scenarios[{name}].grid.{axis} must be an array"))?;
        if values.is_empty() {
            return Err(format!("scenarios[{name}].grid.{axis} must not be empty"));
        }
        for v in values {
            if v.as_f64().is_none() && v.as_str().is_none() && v.as_bool().is_none() {
                return Err(format!(
                    "scenarios[{name}].grid.{axis} values must be scalars, got {v:?}"
                ));
            }
            // The backend axis selects the simulation engine; catch typos
            // at parse time instead of failing every expanded job.
            if axis == "backend" && !matches!(v.as_str(), Some("packet") | Some("flow")) {
                return Err(format!(
                    "scenarios[{name}].grid.backend values must be \"packet\" or \"flow\", got {v:?}"
                ));
            }
        }
        axes.push((axis.clone(), values.to_vec()));
    }
    Ok(axes)
}

impl Manifest {
    /// Parse and validate a manifest document.
    pub fn parse(doc: &Json) -> Result<Manifest, String> {
        if doc.as_object().is_none() {
            return Err("manifest must be a JSON object".to_string());
        }
        match doc.get("schema").and_then(Json::as_str) {
            Some(MANIFEST_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "unknown manifest schema {other:?} (expected {MANIFEST_SCHEMA:?})"
                ))
            }
            None => return Err("manifest.schema must be a string".to_string()),
        }
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or("manifest.id must be a non-empty string")?
            .to_string();
        let scale = doc
            .get("scale")
            .and_then(Json::as_str)
            .and_then(Scale::parse)
            .ok_or("manifest.scale must be \"quick\" or \"full\"")?;
        let seeds_json = doc
            .get("seeds")
            .and_then(Json::as_array)
            .ok_or("manifest.seeds must be an array")?;
        if seeds_json.is_empty() {
            return Err("manifest.seeds must not be empty".to_string());
        }
        let mut seeds = Vec::new();
        for s in seeds_json {
            let v = s.as_f64().ok_or("manifest.seeds must hold numbers")?;
            if v < 0.0 || v.fract() != 0.0 || v >= 9.0e15 {
                return Err(format!(
                    "manifest seed {v} is not a small non-negative integer"
                ));
            }
            seeds.push(v as u64);
        }
        if seeds.iter().collect::<BTreeSet<_>>().len() != seeds.len() {
            return Err("manifest.seeds must be distinct".to_string());
        }
        let scenarios = doc
            .get("scenarios")
            .and_then(Json::as_array)
            .ok_or("manifest.scenarios must be an array")?;
        if scenarios.is_empty() {
            return Err("manifest.scenarios must not be empty".to_string());
        }
        let mut entries = Vec::new();
        for s in scenarios {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .filter(|n| !n.is_empty())
                .ok_or("scenarios[].name must be a non-empty string")?
                .to_string();
            if crate::find_scenario(&name).is_none() {
                let known: Vec<&str> = crate::scenario_defs().map(|d| d.name).collect();
                return Err(format!(
                    "unknown scenario {name:?} (known: {})",
                    known.join(", ")
                ));
            }
            let grid = match s.get("grid") {
                None => None,
                Some(g) => Some(grid_from_json(&name, g)?),
            };
            entries.push(ScenarioEntry { name, grid });
        }
        Ok(Manifest {
            id,
            scale,
            seeds,
            entries,
        })
    }

    /// Parse a manifest from a file on disk.
    pub fn from_file(path: &std::path::Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc =
            json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
        Manifest::parse(&doc)
    }

    /// Render back to the document form (the frozen `manifest.json` a run
    /// directory keeps; reparsing it yields an equal manifest).
    pub fn to_json(&self) -> Json {
        let scenarios: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                let mut obj = BTreeMap::new();
                obj.insert("name".to_string(), Json::from(e.name.as_str()));
                if let Some(grid) = &e.grid {
                    obj.insert(
                        "grid".to_string(),
                        Json::Object(
                            grid.iter()
                                .map(|(axis, values)| (axis.clone(), Json::Array(values.clone())))
                                .collect(),
                        ),
                    );
                }
                Json::Object(obj)
            })
            .collect();
        Json::object([
            ("schema", Json::from(MANIFEST_SCHEMA)),
            ("id", Json::from(self.id.as_str())),
            ("scale", Json::from(self.scale.name())),
            (
                "seeds",
                Json::Array(self.seeds.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("scenarios", Json::Array(scenarios)),
        ])
    }

    /// Derive the simulation seed for a job key: FNV-1a over
    /// `id + "\0" + key`. Stable across worker counts, scheduling, resume,
    /// and unrelated manifest edits.
    pub fn derive_seed(&self, key: &str) -> u64 {
        let mut d = Digest64::new();
        d.update(self.id.as_bytes());
        d.update(b"\0");
        d.update(key.as_bytes());
        d.finish()
    }

    /// Expand into the flat job list (see module docs for ordering).
    /// `filter` keeps only scenarios whose name equals it. Duplicate job
    /// keys (two entries producing the same point) are an error.
    pub fn expand(&self, filter: Option<&str>) -> Result<Vec<Job>, String> {
        let mut jobs = Vec::new();
        let mut seen = BTreeSet::new();
        for entry in &self.entries {
            if filter.is_some_and(|f| f != entry.name) {
                continue;
            }
            let def = crate::find_scenario(&entry.name)
                .ok_or_else(|| format!("unknown scenario {:?}", entry.name))?;
            let mut axes = match &entry.grid {
                Some(grid) => grid.clone(),
                None => (def.grid)(self.scale.is_quick()),
            };
            axes.sort_by(|a, b| a.0.cmp(&b.0));
            for (axis, _) in &axes {
                if RESERVED_AXES.contains(&axis.as_str()) {
                    return Err(format!(
                        "scenario {:?}: grid axis {axis:?} is reserved",
                        entry.name
                    ));
                }
            }
            for params in bench::jobs::points(&axes) {
                let point_key = point_key(&entry.name, &params);
                for &manifest_seed in &self.seeds {
                    let key = format!("{point_key}#seed={manifest_seed}");
                    if !seen.insert(key.clone()) {
                        return Err(format!("duplicate job {key:?} — overlapping grids?"));
                    }
                    let seed = self.derive_seed(&key);
                    jobs.push(Job {
                        key,
                        point_key: point_key.clone(),
                        scenario: entry.name.clone(),
                        params: params.clone(),
                        manifest_seed,
                        seed,
                    });
                }
            }
        }
        if jobs.is_empty() {
            return Err(match filter {
                Some(f) => format!("no jobs: filter {f:?} matches no manifest scenario"),
                None => "no jobs: manifest expands to an empty grid".to_string(),
            });
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::parse;

    fn demo() -> Manifest {
        let text = r#"{
          "schema": "mptcp-manifest/v1",
          "id": "demo",
          "scale": "quick",
          "seeds": [1, 2],
          "scenarios": [
            { "name": "smoke", "grid": { "algorithm": ["lia", "olia"], "c1_over_c2": [0.8] } }
          ]
        }"#;
        Manifest::parse(&parse(text).unwrap()).unwrap()
    }

    #[test]
    fn expansion_is_deterministic_and_ordered() {
        let m = demo();
        let jobs = m.expand(None).unwrap();
        assert_eq!(jobs.len(), 4);
        let keys: Vec<&str> = jobs.iter().map(|j| j.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "smoke?algorithm=lia&c1_over_c2=0.8#seed=1",
                "smoke?algorithm=lia&c1_over_c2=0.8#seed=2",
                "smoke?algorithm=olia&c1_over_c2=0.8#seed=1",
                "smoke?algorithm=olia&c1_over_c2=0.8#seed=2",
            ]
        );
        assert_eq!(jobs[0].point_key, jobs[1].point_key);
        assert_ne!(jobs[0].seed, jobs[1].seed);
        // Same manifest, same derived seeds — and they differ under another
        // manifest id (the id salts the hash).
        let again = m.expand(None).unwrap();
        assert_eq!(jobs[0].seed, again[0].seed);
        let mut other = m.clone();
        other.id = "demo2".to_string();
        assert_ne!(jobs[0].seed, other.expand(None).unwrap()[0].seed);
    }

    #[test]
    fn default_grid_comes_from_the_registry() {
        let text = r#"{
          "schema": "mptcp-manifest/v1", "id": "d", "scale": "quick",
          "seeds": [7], "scenarios": [{ "name": "smoke" }]
        }"#;
        let m = Manifest::parse(&parse(text).unwrap()).unwrap();
        // smoke's default grid is 2 algorithms x 2 capacity ratios.
        assert_eq!(m.expand(None).unwrap().len(), 4);
        assert!(m.expand(Some("smoke")).is_ok());
        assert!(m.expand(Some("scenario_a")).is_err());
    }

    #[test]
    fn round_trips_through_json() {
        let m = demo();
        let again = Manifest::parse(&m.to_json()).unwrap();
        let a = m.expand(None).unwrap();
        let b = again.expand(None).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.seed, y.seed);
        }
    }

    #[test]
    fn rejects_malformed_manifests() {
        let cases = [
            (r#"{"id":"x"}"#, "schema"),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"","scale":"quick","seeds":[1],"scenarios":[{"name":"smoke"}]}"#,
                "id",
            ),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"x","scale":"slow","seeds":[1],"scenarios":[{"name":"smoke"}]}"#,
                "scale",
            ),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"x","scale":"quick","seeds":[1,1],"scenarios":[{"name":"smoke"}]}"#,
                "distinct",
            ),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"x","scale":"quick","seeds":[1],"scenarios":[{"name":"nope"}]}"#,
                "unknown scenario",
            ),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"x","scale":"quick","seeds":[1],"scenarios":[{"name":"smoke","grid":{"seed":[1]}}]}"#,
                "reserved",
            ),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"x","scale":"quick","seeds":[1],"scenarios":[{"name":"smoke","grid":{"n1":[]}}]}"#,
                "empty",
            ),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"x","scale":"quick","seeds":[1],"scenarios":[{"name":"smoke","grid":{"backend":["hybrid"]}}]}"#,
                "backend",
            ),
            (
                r#"{"schema":"mptcp-manifest/v1","id":"x","scale":"quick","seeds":[1],"scenarios":[{"name":"smoke","grid":{"backend":[1]}}]}"#,
                "backend",
            ),
        ];
        for (text, needle) in cases {
            let err = Manifest::parse(&parse(text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{needle:?} not in {err:?}");
        }
    }
}
