//! `validate_report` — check run-report JSON files against the schema.
//!
//! ```text
//! cargo run --release -p bench --bin validate_report -- results/*.json
//! cargo run --release -p bench --bin validate_report -- --strict results/
//! ```
//!
//! Arguments may be report files or directories; a directory is scanned
//! (non-recursively, sorted) for `*.json` files. Exit status:
//!
//! * `0` — every report found parses and validates (see [`bench::report`]).
//!   With no reports found this is still `0`, but a warning is printed:
//!   "nothing to validate" and "everything valid" are different outcomes,
//!   and a glob that silently matched nothing has masked real schema drift
//!   before.
//! * `1` — at least one report is invalid, or no reports were found and
//!   `--strict` was given (CI passes `--strict` so an empty results
//!   directory fails the gate instead of vacuously passing it).
//! * `2` — usage or I/O error.

use bench::report::{validate, validate_chaos, validate_sweep, CHAOS_SCHEMA, SWEEP_SCHEMA};
use json::parse;

fn main() {
    let mut strict = false;
    let mut args: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--strict" => strict = true,
            "--help" | "-h" => {
                eprintln!("usage: validate_report [--strict] <report.json | dir>...");
                std::process::exit(2);
            }
            _ => args.push(a),
        }
    }
    if args.is_empty() {
        eprintln!("usage: validate_report [--strict] <report.json | dir>...");
        std::process::exit(2);
    }

    // Expand directory arguments into their *.json files, sorted so the
    // output (and any first-failure) is deterministic.
    let mut files: Vec<String> = Vec::new();
    for arg in &args {
        let path = std::path::Path::new(arg);
        if path.is_dir() {
            let entries = match std::fs::read_dir(path) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("validate_report: cannot read directory {arg}: {e}");
                    std::process::exit(2);
                }
            };
            let mut found: Vec<String> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
                .map(|p| p.to_string_lossy().into_owned())
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(arg.clone());
        }
    }

    if files.is_empty() {
        eprintln!(
            "validate_report: WARNING: no report files found in: {}",
            args.join(", ")
        );
        std::process::exit(if strict { 1 } else { 0 });
    }

    let mut failed = false;
    let mut checked = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                println!("INVALID {path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match parse(&text) {
            Ok(doc) => doc,
            Err(e) => {
                println!("INVALID {path}: invalid JSON: {e}");
                failed = true;
                continue;
            }
        };
        // An orchestra run directory holds the frozen input manifest, which
        // is an input, not a report — skip exactly that schema so directory
        // scans stay usable. Anything else unknown is still an error.
        let schema = doc.get("schema").and_then(|s| s.as_str());
        if schema == Some("mptcp-manifest/v1") {
            println!("skip    {path} (mptcp-manifest/v1 — orchestra input, not a report)");
            continue;
        }
        checked += 1;
        // Sweep reports (orchestra's cross-seed aggregation) and chaos
        // campaign reports have their own schemas; everything else must be
        // a plain run report.
        let result = if schema == Some(SWEEP_SCHEMA) {
            validate_sweep(&doc)
        } else if schema == Some(CHAOS_SCHEMA) {
            validate_chaos(&doc)
        } else {
            validate(&doc)
        };
        match result {
            Ok(()) => println!("ok      {path}"),
            Err(e) => {
                println!("INVALID {path}: {e}");
                failed = true;
            }
        }
    }
    println!(
        "validate_report: {checked} report(s) checked{}",
        if failed {
            ", FAILURES above"
        } else {
            ", all valid"
        }
    );
    std::process::exit(if failed { 1 } else { 0 });
}
