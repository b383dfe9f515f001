//! `chaos` — drive fuzz campaigns and replay minimal repros.
//!
//! ```text
//! chaos campaign --seed 1 --iterations 200 --jobs 4 --out results/chaos
//! chaos replay tests/fixtures/chaos/reprobe_cap.json
//! ```
//!
//! `campaign` runs an N-iteration fault-schedule search and writes one
//! `mptcp-chaos-report/v1` artifact (plus one replayable case file per
//! shrunk repro) under `--out`. `replay` re-executes a case file twice and
//! checks the two runs byte-identical before reporting the verdict.
//!
//! Exit status: `0` — campaign clean / replay green; `1` — violations
//! found (the report is still written); `2` — usage or I/O error.
//!
//! Everything here is deterministic: output paths derive from the campaign
//! seed, report bytes from the campaign result — never from wall-clock,
//! environment, or thread scheduling (`--jobs` changes wall-time only).

use std::process::ExitCode;

use chaos::{report_json, run_case_with, shrink, CampaignCfg, ChaosCase};
use eventsim::SimDuration;
use json::parse;
use tcpsim::TcpConfig;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos campaign [--seed N] [--iterations N] [--jobs N] \
         [--stop-on-first] [--reprobe-max-s N] [--out DIR]\n\
         \x20      chaos replay [--reprobe-max-s N] <case.json>..."
    );
    ExitCode::from(2)
}

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    // Accept both decimal and the 16-hex form reports print seeds in.
    let parsed = v
        .strip_prefix("0x")
        .map(|h| u64::from_str_radix(h, 16))
        .unwrap_or_else(|| v.parse());
    parsed.map_err(|e| format!("{flag}: bad number {v:?}: {e}"))
}

/// The TCP configuration under test. `--reprobe-max-s` deliberately breaks
/// the re-probe cap so docs and CI can demonstrate the campaign *finding*
/// a planted bug; everything else stays at defaults.
fn tcp_config(reprobe_max_s: Option<u64>) -> TcpConfig {
    let mut tcp = TcpConfig::default();
    if let Some(s) = reprobe_max_s {
        tcp.reprobe_max = SimDuration::from_secs(s);
    }
    tcp
}

fn campaign(args: &mut std::vec::IntoIter<String>) -> Result<ExitCode, String> {
    let mut cfg = CampaignCfg::default();
    let mut out = "results/chaos".to_string();
    let mut reprobe_max_s = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => cfg.seed = parse_u64("--seed", args.next())?,
            "--iterations" => cfg.iterations = parse_u64("--iterations", args.next())? as usize,
            "--jobs" => cfg.jobs = parse_u64("--jobs", args.next())?.max(1) as usize,
            "--stop-on-first" => cfg.stop_on_first = true,
            "--reprobe-max-s" => reprobe_max_s = Some(parse_u64("--reprobe-max-s", args.next())?),
            "--out" => out = args.next().ok_or("--out needs a value")?,
            other => return Err(format!("unknown campaign flag {other:?}")),
        }
    }
    cfg.tcp = tcp_config(reprobe_max_s);
    let res = chaos::run_campaign(&cfg);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let report_path = format!("{out}/campaign_{:016x}.json", cfg.seed);
    let doc = report_json(&cfg, &res);
    std::fs::write(&report_path, doc.render_pretty() + "\n")
        .map_err(|e| format!("cannot write {report_path}: {e}"))?;
    for repro in &res.repros {
        let stem = format!("{out}/repro_{:016x}_i{}", cfg.seed, repro.iteration);
        let case_path = format!("{stem}.json");
        std::fs::write(
            &case_path,
            repro.shrunk.case.to_json().render_pretty() + "\n",
        )
        .map_err(|e| format!("cannot write {case_path}: {e}"))?;
        // Flight-recorder tail + rendered timeline, so every repro ships
        // with visual evidence of what the fault schedule did to the run.
        let tail = repro.shrunk.verdict.tail_jsonl.as_deref();
        if let Some(tail) = tail {
            let trace_path = format!("{stem}.trace.jsonl");
            std::fs::write(&trace_path, tail)
                .map_err(|e| format!("cannot write {trace_path}: {e}"))?;
        }
        let title = format!("repro_{:016x}_i{}", cfg.seed, repro.iteration);
        let html = viz::render_chaos_html(&title, &repro.shrunk.case.to_json(), tail)
            .map_err(|e| format!("cannot render {stem}.html: {e}"))?;
        std::fs::write(format!("{stem}.html"), html)
            .map_err(|e| format!("cannot write {stem}.html: {e}"))?;
    }
    println!(
        "chaos campaign seed {:016x}: {} iteration(s), {} violating, digest {}",
        cfg.seed,
        res.run,
        res.repros.len(),
        res.campaign_digest
    );
    for repro in &res.repros {
        let v = &repro.shrunk.verdict.violations[0];
        println!(
            "  iteration {}: {} (shrunk {} -> {} clause(s), {} execution(s))",
            repro.iteration,
            v.what,
            repro.shrunk.original_clauses,
            repro.shrunk.case.clauses.len(),
            repro.shrunk.executions
        );
    }
    println!("report: {report_path}");
    Ok(if res.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn replay(args: &mut std::vec::IntoIter<String>) -> Result<ExitCode, String> {
    let mut reprobe_max_s = None;
    let mut paths = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reprobe-max-s" => reprobe_max_s = Some(parse_u64("--reprobe-max-s", args.next())?),
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return Err("replay needs at least one case file".to_string());
    }
    let tcp = tcp_config(reprobe_max_s);
    let mut dirty = false;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        let case = ChaosCase::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        let first = run_case_with(&case, tcp);
        let second = run_case_with(&case, tcp);
        if first.digest != second.digest || first.violations != second.violations {
            return Err(format!(
                "{path}: replay is non-deterministic ({} vs {})",
                first.digest, second.digest
            ));
        }
        if first.ok() {
            println!("green   {path} (digest {})", first.digest);
        } else {
            dirty = true;
            println!(
                "VIOLATE {path} (digest {}): {}",
                first.digest, first.violations[0].what
            );
            for v in &first.violations {
                println!("        t={:?}: {}", v.t, v.what);
            }
            if let Some(minimal) = shrink(&case, tcp) {
                if minimal.case.clauses.len() < case.clauses.len() {
                    println!(
                        "        (shrinks further: {} -> {} clause(s))",
                        case.clauses.len(),
                        minimal.case.clauses.len()
                    );
                }
            }
        }
    }
    Ok(if dirty {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    let verb = match args.next() {
        Some(v) => v,
        None => return usage(),
    };
    let result = match verb.as_str() {
        "campaign" => campaign(&mut args),
        "replay" => replay(&mut args),
        "--help" | "-h" | "help" => return usage(),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("chaos: {e}");
            ExitCode::from(2)
        }
    }
}
