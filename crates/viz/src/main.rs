//! `viz` — render workspace artifacts into self-contained HTML.
//!
//! Subcommands:
//!
//! - `viz trace <events.jsonl> [--out FILE]` — timeline page from a trace
//!   JSONL stream (full runs or flight-recorder tails).
//! - `viz sweep <run-dir> [--jobs N] [--out-dir DIR]` — explorer pages
//!   from an orchestra run directory containing `sweep.json`.
//! - `viz chaos <repro.json> [--out FILE]` — fault-plan schedule from a
//!   chaos repro case; embeds `<stem>.trace.jsonl` when present.
//!
//! Output defaults next to the input (`<stem>.html`, or `<run-dir>/` for
//! sweeps). Exit code 0 on success, 2 on usage or input errors.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use viz::timeline::Timeline;

const USAGE: &str = "usage:
  viz trace <events.jsonl> [--out FILE]
  viz sweep <run-dir> [--jobs N] [--out-dir DIR]
  viz chaos <repro.json> [--out FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace") => cmd_trace(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("viz: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Split `args` into one required positional plus the value of `flag`.
fn positional_and_flag(args: &[String], flag: &str) -> Result<(PathBuf, Option<String>), String> {
    let mut input = None;
    let mut value = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            value = Some(
                it.next()
                    .ok_or_else(|| format!("{flag} requires a value"))?
                    .clone(),
            );
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}\n{USAGE}"));
        } else if input.is_none() {
            input = Some(PathBuf::from(a));
        } else {
            return Err(format!("unexpected argument {a}\n{USAGE}"));
        }
    }
    Ok((
        input.ok_or_else(|| format!("missing input path\n{USAGE}"))?,
        value,
    ))
}

fn default_out(input: &Path) -> PathBuf {
    input.with_extension("html")
}

fn write_page(path: &Path, html: &str) -> Result<(), String> {
    std::fs::write(path, html).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (input, out) = positional_and_flag(args, "--out")?;
    let text = std::fs::read_to_string(&input)
        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let tl = Timeline::from_jsonl(&text).map_err(|e| format!("{}: {e}", input.display()))?;
    let title = input
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let html = viz::render_timeline_html(&title, &tl);
    let out = out
        .map(PathBuf::from)
        .unwrap_or_else(|| default_out(&input));
    write_page(&out, &html)
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let mut run_dir = None;
    let mut out_dir = None;
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs requires a value")?
                    .parse()
                    .map_err(|_| "--jobs requires an integer".to_string())?;
            }
            "--out-dir" => {
                out_dir = Some(PathBuf::from(
                    it.next().ok_or("--out-dir requires a value")?,
                ));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            other => {
                if run_dir.is_some() {
                    return Err(format!("unexpected argument {other}\n{USAGE}"));
                }
                run_dir = Some(PathBuf::from(other));
            }
        }
    }
    let run_dir = run_dir.ok_or_else(|| format!("missing run directory\n{USAGE}"))?;
    let out_dir = out_dir.unwrap_or_else(|| run_dir.clone());
    let pages = viz::render_run_dir(&run_dir, jobs)?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    for (name, html) in &pages {
        write_page(&out_dir.join(name), html)?;
    }
    Ok(())
}

fn cmd_chaos(args: &[String]) -> Result<(), String> {
    let (input, out) = positional_and_flag(args, "--out")?;
    let text = std::fs::read_to_string(&input)
        .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    let case = json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", input.display()))?;
    // The chaos runner writes the recorded trace alongside the case file.
    let trace_path = input.with_extension("trace.jsonl");
    let trace_text = std::fs::read_to_string(&trace_path).ok();
    let title = input
        .file_stem()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "chaos repro".to_string());
    let html = viz::render_chaos_html(&title, &case, trace_text.as_deref())?;
    let out = out
        .map(PathBuf::from)
        .unwrap_or_else(|| default_out(&input));
    write_page(&out, &html)
}
