#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

//! The `simlint` CLI — the workspace's determinism gate.
//!
//! ```text
//! simlint [--root DIR] [--json FILE] [--all] [--quiet]
//!         [--baseline FILE] [--write-baseline FILE]       lint the workspace
//! simlint --hot-paths [--root DIR]                        print the derived hot set
//! simlint --validate FILE...                              check lint reports
//! simlint --list-rules                                    print the rule table
//! ```
//!
//! `--baseline FILE` compares this run's finding keys (`<rule> <file>
//! <count>` lines, suppressed findings included) against a checked-in
//! baseline: a new key or a count increase fails the run; disappeared
//! keys pass with a note to refresh. `--write-baseline FILE` writes the
//! current keys.
//!
//! Exit codes: 0 — clean (or all findings suppressed with reasons);
//! 1 — at least one unsuppressed finding, a baseline regression, or an
//! invalid report under `--validate`; 2 — usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::report;
use simlint::rules::{Finding, META_RULES, RULES};

struct Options {
    root: PathBuf,
    json_out: Option<PathBuf>,
    show_all: bool,
    quiet: bool,
    validate: Vec<PathBuf>,
    list_rules: bool,
    hot_paths: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simlint [--root DIR] [--json FILE] [--all] [--quiet]\n\
         \u{20}             [--baseline FILE] [--write-baseline FILE]\n\
         \u{20}      simlint --hot-paths [--root DIR]\n\
         \u{20}      simlint --validate FILE...\n\
         \u{20}      simlint --list-rules"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json_out: None,
        show_all: false,
        quiet: false,
        validate: Vec::new(),
        list_rules: false,
        hot_paths: false,
        baseline: None,
        write_baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = args.next().map(PathBuf::from).ok_or_else(usage)?,
            "--json" => opts.json_out = Some(args.next().map(PathBuf::from).ok_or_else(usage)?),
            "--all" => opts.show_all = true,
            "--quiet" => opts.quiet = true,
            "--list-rules" => opts.list_rules = true,
            "--hot-paths" => opts.hot_paths = true,
            "--baseline" => opts.baseline = Some(args.next().map(PathBuf::from).ok_or_else(usage)?),
            "--write-baseline" => {
                opts.write_baseline = Some(args.next().map(PathBuf::from).ok_or_else(usage)?)
            }
            "--validate" => {
                opts.validate = args.by_ref().map(PathBuf::from).collect();
                if opts.validate.is_empty() {
                    return Err(usage());
                }
            }
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

fn print_finding(f: &Finding) {
    let name = RULES
        .iter()
        .chain(META_RULES)
        .find(|r| r.id == f.rule)
        .map(|r| r.name)
        .unwrap_or("?");
    match &f.suppressed {
        None => println!(
            "{}:{}:{}: {} {}: {}",
            f.file, f.line, f.col, f.rule, name, f.message
        ),
        Some(reason) => println!(
            "{}:{}:{}: {} {} (suppressed: {})",
            f.file, f.line, f.col, f.rule, name, reason
        ),
    }
}

/// Parse baseline text into `(rule, file, count)` entries; `#` starts a
/// comment.
fn parse_baseline(text: &str) -> Vec<(String, String, usize)> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next()) {
            if let Ok(count) = count.parse() {
                entries.push((rule.to_string(), file.to_string(), count));
            }
        }
    }
    entries
}

/// Diff current keys against the baseline. Returns regression messages;
/// empty means pass. Disappeared keys are reported via `gone`.
fn diff_baseline(
    baseline: &[(String, String, usize)],
    current: &[String],
) -> (Vec<String>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut gone = Vec::new();
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for key in current {
        let mut parts = key.split_whitespace();
        let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let count: usize = count.parse().unwrap_or(0);
        seen.push((rule, file));
        match baseline
            .iter()
            .find(|(r, f, _)| r == rule && f == file)
            .map(|(_, _, n)| *n)
        {
            None => regressions.push(format!("new finding key: {rule} {file} ({count})")),
            Some(base) if count > base => regressions.push(format!(
                "{rule} {file}: {count} finding(s), baseline allows {base}"
            )),
            Some(_) => {}
        }
    }
    for (rule, file, _) in baseline {
        if !seen.iter().any(|(r, f)| r == rule && f == file) {
            gone.push(format!("{rule} {file}"));
        }
    }
    (regressions, gone)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    if opts.list_rules {
        for r in RULES.iter().chain(META_RULES) {
            println!("{}  {:22} {}", r.id, r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    if !opts.validate.is_empty() {
        let mut failed = false;
        for path in &opts.validate {
            let outcome = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read: {e}"))
                .and_then(|text| json::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
                .and_then(|doc| report::validate(&doc));
            match outcome {
                Ok(()) => println!("ok      {}", path.display()),
                Err(e) => {
                    println!("INVALID {}: {e}", path.display());
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let run = match simlint::lint_workspace(&opts.root) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.hot_paths {
        println!("# call-graph roots:");
        for r in &run.roots {
            println!("#   {r}");
        }
        println!("# matched root functions:");
        for r in &run.matched_roots {
            println!("#   {r}");
        }
        for p in &run.hot_paths {
            println!("{p}");
        }
        return ExitCode::SUCCESS;
    }

    if !opts.quiet {
        for f in &run.findings {
            if f.suppressed.is_none() || opts.show_all {
                print_finding(f);
            }
        }
    }

    if let Some(path) = &opts.json_out {
        let doc = report::to_json(&opts.root.to_string_lossy(), &run);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(path, doc.render_pretty() + "\n") {
            eprintln!("simlint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if let Some(path) = &opts.write_baseline {
        let mut text = String::from(
            "# simlint lint-diff baseline: one `<rule> <file> <count>` line per\n\
             # finding key, suppressed findings included. Refresh deliberately with\n\
             # `simlint --root . --write-baseline tests/lint_baseline.txt` after\n\
             # reviewing the diff; ci.sh fails on any key not listed here.\n",
        );
        for key in run.baseline_keys() {
            text.push_str(&key);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("simlint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("simlint: baseline written to {}", path.display());
    }

    let mut baseline_failed = false;
    if let Some(path) = &opts.baseline {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let (regressions, gone) =
                    diff_baseline(&parse_baseline(&text), &run.baseline_keys());
                for r in &regressions {
                    println!("simlint: baseline: {r}");
                }
                for g in &gone {
                    println!(
                        "simlint: baseline: NOTE: key {g} no longer fires — refresh the baseline"
                    );
                }
                baseline_failed = !regressions.is_empty();
            }
            Err(e) => {
                eprintln!("simlint: reading baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let unsuppressed = run.unsuppressed().count();
    let suppressed = run.findings.len() - unsuppressed;
    println!(
        "simlint: {} files scanned, {} finding(s): {} suppressed with reasons, {} unsuppressed",
        run.files_scanned,
        run.findings.len(),
        suppressed,
        unsuppressed
    );
    if unsuppressed > 0 || baseline_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
