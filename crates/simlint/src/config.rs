//! The checked-in `simlint.toml`: path-level allows and the hot-path seed
//! list.
//!
//! Inline `// simlint: allow(..)` comments suppress a single line; some
//! exemptions are a property of a whole file or directory (`eventsim`'s
//! `time.rs` *is* the unit boundary the R8/R9 conversions belong to), and
//! those belong in one auditable place rather than sprinkled through the
//! code. The format is a tiny TOML subset — exactly these shapes:
//!
//! ```toml
//! [[allow]]
//! path = "crates/eventsim/src/time.rs" # workspace-relative prefix
//! rules = ["R8", "R9"]                 # rule ids this entry suppresses
//! reason = "why this is legitimate"    # required, non-empty
//!
//! [hotpath]
//! seeds = ["crates/eventsim/src/"]     # R5 hot-path fallback seeds; the
//!                                      # call graph derives the real set
//! ```
//!
//! `[[allow]]` entries must stay load-bearing: the A3 audit flags any
//! whose path matches no scanned file or whose rules no longer fire under
//! it.
//!
//! The parser is line-based and strict: unknown keys, unknown sections,
//! missing fields, or an empty reason are hard errors, so the allow-list
//! cannot rot silently.

use crate::rules::{HOT_PATH_PREFIXES, RULES};

/// One `[[allow]]` entry: suppress `rules` for every file whose
/// workspace-relative path starts with `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAllow {
    /// Workspace-relative path prefix (forward slashes).
    pub path: String,
    /// Rule ids (`"R1"` … `"R11"`) suppressed under the prefix.
    pub rules: Vec<String>,
    /// Written justification (required, non-empty).
    pub reason: String,
    /// 1-based line of the section header in `simlint.toml` (0 for
    /// entries built in code).
    pub line: usize,
}

/// The `[hotpath]` section: seed prefixes unioned into the derived R5
/// hot-path set (and audited for reachability by A3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotpath {
    /// Path prefixes seeding the hot set.
    pub seeds: Vec<String>,
    /// 1-based line of the `[hotpath]` header (0 for the built-in
    /// default).
    pub line: usize,
}

/// Parsed configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Path-level allow entries, in file order.
    pub allows: Vec<PathAllow>,
    /// Hot-path seeds (defaults to [`HOT_PATH_PREFIXES`]).
    pub hotpath: Hotpath,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            allows: Vec::new(),
            hotpath: Hotpath {
                seeds: HOT_PATH_PREFIXES.iter().map(|p| p.to_string()).collect(),
                line: 0,
            },
        }
    }
}

impl Config {
    /// The allow entry suppressing `rule` for `rel_path`, if any.
    pub fn path_allow(&self, rel_path: &str, rule: &str) -> Option<&PathAllow> {
        self.allows
            .iter()
            .find(|a| rel_path.starts_with(&a.path) && a.rules.iter().any(|r| r == rule))
    }
}

/// Parse `simlint.toml` text. Errors carry 1-based line numbers.
pub fn parse(text: &str) -> Result<Config, String> {
    let mut config = Config::default();
    let mut current: Option<Section> = None;
    let mut saw_hotpath = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" || line == "[hotpath]" {
            if let Some(section) = current.take() {
                section.finish(&mut config)?;
            }
            current = Some(match line {
                "[[allow]]" => Section::Allow(PartialAllow::new(lineno)),
                _ => {
                    if saw_hotpath {
                        return Err(format!("line {lineno}: duplicate [hotpath] section"));
                    }
                    saw_hotpath = true;
                    Section::Hotpath {
                        start_line: lineno,
                        seeds: None,
                    }
                }
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {lineno}: unknown section {line:?}"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let section = current
            .as_mut()
            .ok_or_else(|| format!("line {lineno}: key outside a section"))?;
        let (key, value) = (key.trim(), value.trim());
        match section {
            Section::Allow(entry) => match key {
                "path" => entry.path = Some(parse_string(value, lineno)?),
                "reason" => entry.reason = Some(parse_string(value, lineno)?),
                "rules" => entry.rules = Some(parse_string_array(value, lineno)?),
                other => return Err(format!("line {lineno}: unknown key {other:?}")),
            },
            Section::Hotpath { seeds, .. } => match key {
                "seeds" => *seeds = Some(parse_string_array(value, lineno)?),
                other => return Err(format!("line {lineno}: unknown key {other:?} in [hotpath]")),
            },
        }
    }
    if let Some(section) = current.take() {
        section.finish(&mut config)?;
    }
    Ok(config)
}

/// Drop a trailing `# …` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string"))?;
    if inner.contains('"') || inner.contains('\\') {
        return Err(format!(
            "line {lineno}: escapes are not supported in this TOML subset"
        ));
    }
    Ok(inner.to_string())
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected an array like [\"R1\"]"))?;
    let mut items = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        items.push(parse_string(piece, lineno)?);
    }
    if items.is_empty() {
        return Err(format!("line {lineno}: array must not be empty"));
    }
    Ok(items)
}

/// A section mid-parse.
enum Section {
    Allow(PartialAllow),
    Hotpath {
        start_line: usize,
        seeds: Option<Vec<String>>,
    },
}

impl Section {
    fn finish(self, config: &mut Config) -> Result<(), String> {
        match self {
            Section::Allow(partial) => config.allows.push(partial.finish()?),
            Section::Hotpath { start_line, seeds } => {
                let seeds = seeds
                    .ok_or_else(|| format!("[hotpath] at line {start_line}: missing `seeds`"))?;
                config.hotpath = Hotpath {
                    seeds,
                    line: start_line,
                };
            }
        }
        Ok(())
    }
}

/// An `[[allow]]` section mid-parse.
struct PartialAllow {
    start_line: usize,
    path: Option<String>,
    rules: Option<Vec<String>>,
    reason: Option<String>,
}

impl PartialAllow {
    fn new(start_line: usize) -> Self {
        PartialAllow {
            start_line,
            path: None,
            rules: None,
            reason: None,
        }
    }

    fn finish(self) -> Result<PathAllow, String> {
        let at = self.start_line;
        let path = self
            .path
            .ok_or_else(|| format!("[[allow]] at line {at}: missing `path`"))?;
        let rules = self
            .rules
            .ok_or_else(|| format!("[[allow]] at line {at}: missing `rules`"))?;
        let reason = self
            .reason
            .ok_or_else(|| format!("[[allow]] at line {at}: missing `reason`"))?;
        if reason.trim().is_empty() {
            return Err(format!(
                "[[allow]] at line {at}: reason must be a written justification"
            ));
        }
        for rule in &rules {
            if !RULES.iter().any(|r| r.id == rule) {
                return Err(format!("[[allow]] at line {at}: unknown rule {rule:?}"));
            }
        }
        Ok(PathAllow {
            path,
            rules,
            reason,
            line: at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_entry() {
        let cfg = parse(
            "# header comment\n\n[[allow]]\npath = \"compat/criterion\" # trailing\nrules = [\"R1\", \"R5\"]\nreason = \"stand-in measures wall-clock by design\"\n",
        )
        .expect("valid config");
        assert_eq!(cfg.allows.len(), 1);
        let a = &cfg.allows[0];
        assert_eq!(a.path, "compat/criterion");
        assert_eq!(a.rules, vec!["R1", "R5"]);
        assert_eq!(a.line, 3);
        assert!(cfg
            .path_allow("compat/criterion/src/lib.rs", "R1")
            .is_some());
        assert!(cfg
            .path_allow("compat/criterion/src/lib.rs", "R2")
            .is_none());
        assert!(cfg.path_allow("crates/netsim/src/sim.rs", "R1").is_none());
    }

    #[test]
    fn missing_reason_is_an_error() {
        let err = parse("[[allow]]\npath = \"x\"\nrules = [\"R1\"]\n").unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");
        let err =
            parse("[[allow]]\npath = \"x\"\nrules = [\"R1\"]\nreason = \"  \"\n").unwrap_err();
        assert!(err.contains("written justification"), "{err}");
    }

    #[test]
    fn unknown_rule_and_key_are_errors() {
        let err =
            parse("[[allow]]\npath = \"x\"\nrules = [\"R99\"]\nreason = \"r\"\n").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        let err = parse("[[allow]]\nfrob = \"x\"\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn keys_outside_a_section_are_errors() {
        let err = parse("path = \"x\"\n").unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn hotpath_overrides_default_seeds() {
        let default = Config::default();
        assert_eq!(
            default.hotpath.seeds,
            HOT_PATH_PREFIXES
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
        );
        let cfg = parse("[hotpath]\nseeds = [\"crates/eventsim/src/\"]\n").expect("valid config");
        assert_eq!(cfg.hotpath.seeds, vec!["crates/eventsim/src/"]);
        assert_eq!(cfg.hotpath.line, 1);
        let err = parse("[hotpath]\nseeds = [\"a\"]\n[hotpath]\nseeds = [\"b\"]\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = parse("[hotpath]\n").unwrap_err();
        assert!(err.contains("missing `seeds`"), "{err}");
    }
}
