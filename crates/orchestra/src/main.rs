//! `orchestra` — run a manifest's (scenario × parameters × seed) job grid
//! across a worker pool, deterministically.
//!
//! ```text
//! orchestra --manifest manifests/ci_quick.json --jobs 4
//! orchestra --resume ci_quick-quick          # skip journaled-done jobs
//! orchestra --list                           # registered scenarios
//! ```
//!
//! Exit status: `0` all jobs done, `1` at least one job failed (or an
//! orchestrator error), `2` usage error. Results land in
//! `<out-root>/<run-id>/` (see [`orchestra::rundir`]): per-job
//! `mptcp-run-report/v2` files, the append-only journal, and the
//! cross-seed `sweep.json` — all byte-identical for any `--jobs` value.

use std::path::PathBuf;
use std::time::Duration;

use orchestra::manifest::{Manifest, Scale};
use orchestra::rundir::RunDir;
use orchestra::{run, RunOpts};

const USAGE: &str = "\
usage: orchestra --manifest <file> [options]
       orchestra --resume <run-id> [options]
       orchestra --list

options:
  --jobs N        worker threads (default: available parallelism)
  --run-id ID     run directory name (default: <manifest-id>-<scale>)
  --out-root DIR  parent of run directories (default: results/orchestra)
  --filter NAME   only run jobs of one scenario
  --quick         force quick scale regardless of the manifest
  --timeout-s S   per-attempt wall-clock budget, seconds (default: 600)
  --retries N     retries after a failed attempt (default: 1)
  --no-digest     skip per-job trace digest capture
  --viz           render the sweep explorer HTML into the run directory
  --quiet         no per-job progress lines";

struct Cli {
    manifest: Option<PathBuf>,
    resume: Option<String>,
    list: bool,
    run_id: Option<String>,
    out_root: PathBuf,
    quick: bool,
    opts: RunOpts,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("orchestra: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        manifest: None,
        resume: None,
        list: false,
        run_id: None,
        out_root: PathBuf::from("results/orchestra"),
        quick: false,
        opts: RunOpts {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            verbose: true,
            ..RunOpts::default()
        },
    };
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--manifest" => cli.manifest = Some(PathBuf::from(value("--manifest", &mut args))),
            "--resume" => cli.resume = Some(value("--resume", &mut args)),
            "--list" => cli.list = true,
            "--run-id" => cli.run_id = Some(value("--run-id", &mut args)),
            "--out-root" => cli.out_root = PathBuf::from(value("--out-root", &mut args)),
            "--filter" => cli.opts.filter = Some(value("--filter", &mut args)),
            "--quick" => cli.quick = true,
            "--no-digest" => cli.opts.digest = false,
            "--viz" => cli.opts.viz = true,
            "--quiet" => cli.opts.verbose = false,
            "--jobs" => {
                cli.opts.workers = value("--jobs", &mut args)
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--jobs needs a positive integer"))
            }
            "--timeout-s" => {
                let s: f64 = value("--timeout-s", &mut args)
                    .parse()
                    .ok()
                    .filter(|&s| s > 0.0)
                    .unwrap_or_else(|| usage_error("--timeout-s needs a positive number"));
                cli.opts.timeout = Duration::from_secs_f64(s);
            }
            "--retries" => {
                cli.opts.retries = value("--retries", &mut args)
                    .parse()
                    .unwrap_or_else(|_| usage_error("--retries needs a non-negative integer"))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    cli
}

fn list_scenarios() {
    println!("registered scenarios:");
    for def in orchestra::scenario_defs() {
        println!("  {:<22} {}", def.name, def.summary);
    }
}

/// Keep worker-job panics quiet: the pool catches them and records the
/// job as failed with the message; the default hook's stderr backtrace
/// would interleave with progress output.
fn silence_job_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("orchestra-job") {
            return;
        }
        previous(info);
    }));
}

fn main() {
    let cli = parse_cli();
    if cli.list {
        list_scenarios();
        return;
    }

    let dir = match (&cli.manifest, &cli.resume) {
        (Some(_), Some(_)) => usage_error("--manifest and --resume are mutually exclusive"),
        (None, None) => usage_error("need --manifest, --resume, or --list"),
        (Some(path), None) => {
            let mut manifest = match Manifest::from_file(path) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("orchestra: {e}");
                    std::process::exit(1);
                }
            };
            if cli.quick {
                manifest.scale = Scale::Quick;
            }
            let run_id = cli
                .run_id
                .clone()
                .unwrap_or_else(|| format!("{}-{}", manifest.id, manifest.scale.name()));
            match RunDir::create(&cli.out_root, &run_id, &manifest) {
                Ok(dir) => dir,
                Err(e) => {
                    eprintln!("orchestra: {e}");
                    std::process::exit(1);
                }
            }
        }
        (None, Some(run_id)) => match RunDir::open(&cli.out_root, run_id) {
            Ok(dir) => dir,
            Err(e) => {
                eprintln!("orchestra: {e}");
                std::process::exit(1);
            }
        },
    };

    silence_job_panics();
    #[expect(
        clippy::disallowed_types,
        reason = "orchestrator wall-clock summary is diagnostic only; nothing feeds back into reports"
    )]
    let started = std::time::Instant::now();
    match run(&dir, &cli.opts) {
        Ok(summary) => {
            let elapsed = started.elapsed().as_secs_f64();
            let ran = summary.total - summary.skipped;
            eprintln!(
                "orchestra: {} job(s) — {} done ({} resumed from journal), {} failed \
                 — {ran} ran in {elapsed:.1}s on {} worker(s)",
                summary.total, summary.done, summary.skipped, summary.failed, cli.opts.workers,
            );
            for key in &summary.failed_jobs {
                eprintln!("orchestra: FAILED {key}");
            }
            eprintln!("orchestra: sweep report: {}", summary.sweep_path.display());
            if summary.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("orchestra: {e}");
            std::process::exit(1);
        }
    }
}
