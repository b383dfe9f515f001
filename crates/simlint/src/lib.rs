#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `simlint` — project-specific determinism & sim-correctness static
//! analysis for the MPTCP/OLIA reproduction.
//!
//! Every result this repository publishes (LIA vs OLIA fairness, Figs
//! 1–17) rests on the simulator being bit-deterministic for a given seed.
//! The trace-digest tests catch a nondeterminism *after* it ships; this
//! tool rejects the hazard classes before they reach an event loop. It
//! depends on no simulator crate — a hand-rolled lexer ([`lexer`]), a
//! recursive-descent parser over it ([`ast`]), a call graph ([`graph`]),
//! and a tiny TOML-subset parser ([`config`]) — and writes its report with
//! the workspace's [`json`] crate, which depends on nothing, because it
//! gates the rest of the workspace and must build offline from a bare
//! toolchain.
//!
//! The rules (R1–R11) are documented in [`rules`] and in DESIGN.md's
//! "Static analysis & determinism rules" section. The workspace pass is
//! two-phase: first every file under the event-loop universe is parsed
//! and the R5 hot-path set is *derived* by call-graph reachability from
//! declared roots ([`graph::HOT_ROOT_PATTERNS`]), unioned with the
//! configured seed prefixes; then every file is linted against that set.
//! Suppression is explicit and auditable: inline
//! `// simlint: allow(<rule>) <reason>` comments for single sites, a
//! checked-in `simlint.toml` ([`config`]) for path-level exemptions, and
//! every suppression must carry a written reason. Meta-rules A1–A3 audit
//! the suppressions themselves (A3 flags stale `simlint.toml` entries
//! and hot-path seeds the graph can no longer justify). Findings are
//! emitted human-readable and as a machine-readable JSON report
//! ([`report`], schema `mptcp-lint-report/v2`).

pub mod ast;
pub mod config;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use config::Config;
use rules::{Finding, LintContext};

/// Everything one linting pass produced.
#[derive(Debug)]
pub struct LintRun {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings across the workspace, suppressed ones included,
    /// ordered by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// The derived R5 hot-path file set (call-graph reachability unioned
    /// with configured seeds), sorted.
    pub hot_paths: Vec<String>,
    /// The call-graph root patterns reachability was seeded from.
    pub roots: Vec<String>,
    /// Root functions actually matched, as `file: Owner::name`, sorted.
    pub matched_roots: Vec<String>,
}

impl LintRun {
    /// Findings not covered by any allow — these fail the gate.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Baseline keys for the CI lint-diff gate: one `"<rule> <file>
    /// <count>"` line per (rule, file) pair over *all* findings
    /// (suppressed included, so an allow cannot hide a newly-introduced
    /// violation from the diff), sorted.
    pub fn baseline_keys(&self) -> Vec<String> {
        let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for f in &self.findings {
            *counts.entry((f.rule, f.file.as_str())).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|((rule, file), n)| format!("{rule} {file} {n}"))
            .collect()
    }
}

/// Load `<root>/simlint.toml` (empty config if absent) and lint every
/// `.rs` file under `root`: parse the event-loop universe, derive the
/// hot-path set by call-graph reachability, lint each file against it,
/// then audit the config itself (A3).
pub fn lint_workspace(root: &Path) -> Result<LintRun, String> {
    let config_path = root.join("simlint.toml");
    let config_present = config_path.exists();
    let config = if config_present {
        let text = fs::read_to_string(&config_path)
            .map_err(|e| format!("{}: {e}", config_path.display()))?;
        config::parse(&text).map_err(|e| format!("simlint.toml: {e}"))?
    } else {
        Config::default()
    };
    lint_workspace_with(root, &config, config_present)
}

/// [`lint_workspace`] with an injected config instead of the on-disk
/// `simlint.toml`. `audit_config` controls whether the A3 staleness audit
/// runs — it should whenever the config represents a real file someone
/// could edit. This is how the gate tests prove every config entry is
/// load-bearing: drop one entry and the findings it covered resurface.
pub fn lint_workspace_with(
    root: &Path,
    config: &Config,
    audit_config: bool,
) -> Result<LintRun, String> {
    let files = walk::rust_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;

    // Pass 1: read everything once; parse the call-graph universe.
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    let mut parsed: Vec<graph::ParsedFile> = Vec::new();
    for path in &files {
        let rel = walk::relative(root, path);
        let source = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if graph::GRAPH_UNIVERSE_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p))
        {
            parsed.push(graph::ParsedFile {
                rel: rel.clone(),
                ast: ast::parse(&lexer::lex(&source)),
            });
        }
        sources.push((rel, source));
    }

    let hot = graph::derive_hot_paths(&parsed);
    let mut hot_files: BTreeSet<String> = hot.files.clone();
    for (rel, _) in &sources {
        if config.hotpath.seeds.iter().any(|s| rel.starts_with(s)) {
            hot_files.insert(rel.clone());
        }
    }
    let hot_paths: Vec<String> = hot_files.iter().cloned().collect();
    let ctx = LintContext::with_hot_files(hot_files);

    // Pass 2: lint each file against the derived hot set.
    let mut findings = Vec::new();
    for (rel, source) in &sources {
        findings.extend(rules::lint_source_with(rel, source, config, &ctx));
    }

    // A3: the config must stay load-bearing. A hot-path seed the graph
    // can no longer reach, an allow whose path matches no scanned file,
    // or an allow whose rules never fire under its path, is stale. Only
    // an actual simlint.toml is audited — built-in defaults are not
    // entries anyone can remove.
    let config_line = |line: usize| -> u32 { u32::try_from(line).unwrap_or(0).max(1) };
    let seed_issues = if audit_config {
        graph::audit_seeds(&config.hotpath.seeds, &parsed, &hot)
    } else {
        Vec::new()
    };
    for issue in seed_issues {
        let message = match &issue.problem {
            graph::SeedProblem::NoSuchFile => format!(
                "hot-path seed \"{}\" matches no scanned file — remove it",
                issue.seed
            ),
            graph::SeedProblem::Unreachable(file) => format!(
                "hot-path seed \"{}\": `{file}` is no longer reachable from any call-graph \
                 root — the seed is stale (or a root pattern is missing)",
                issue.seed
            ),
        };
        findings.push(Finding {
            rule: "A3",
            file: "simlint.toml".to_string(),
            line: config_line(config.hotpath.line),
            col: 1,
            message,
            suppressed: None,
        });
    }
    let audited_allows = if audit_config {
        &config.allows[..]
    } else {
        &[]
    };
    for allow in audited_allows {
        if !sources.iter().any(|(rel, _)| rel.starts_with(&allow.path)) {
            findings.push(Finding {
                rule: "A3",
                file: "simlint.toml".to_string(),
                line: config_line(allow.line),
                col: 1,
                message: format!(
                    "[[allow]] path \"{}\" matches no scanned file — remove the entry",
                    allow.path
                ),
                suppressed: None,
            });
            continue;
        }
        let fires = findings
            .iter()
            .any(|f| f.file.starts_with(&allow.path) && allow.rules.iter().any(|r| r == f.rule));
        if !fires {
            findings.push(Finding {
                rule: "A3",
                file: "simlint.toml".to_string(),
                line: config_line(allow.line),
                col: 1,
                message: format!(
                    "[[allow]] for {} under \"{}\" suppresses nothing — the rule no longer \
                     fires there; remove the entry",
                    allow.rules.join(", "),
                    allow.path
                ),
                suppressed: None,
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(LintRun {
        files_scanned: files.len(),
        findings,
        hot_paths,
        roots: hot.roots,
        matched_roots: hot.matched_roots,
    })
}
