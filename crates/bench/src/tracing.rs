//! Environment-driven trace capture for experiment binaries.
//!
//! The binaries' simulations — [`crate::measure`]'s replications,
//! `repro_run`'s custom scenarios, the Fig. 7/8 traces and the FatTree
//! experiments — call [`attach_from_env`] right after construction.
//! Registry jobs (which trace into their own digest sink) and `perf` do
//! not. With no environment configuration this is a no-op and the
//! simulation keeps its zero-overhead disabled tracer; setting
//! `MPTCP_TRACE` attaches a buffered JSONL sink so those binaries dump a
//! structured trace without code changes:
//!
//! ```text
//! MPTCP_TRACE=1 cargo run --release -p bench --bin scenario_a
//! MPTCP_TRACE=results/mytrace ./target/release/repro_run scenarios/two_ap.json
//! ```
//!
//! * `MPTCP_TRACE` — `1`/`true` for the default `results/trace` prefix, or
//!   an explicit path prefix. Each simulation writes
//!   `<prefix>.<label>.seed<seed>.jsonl` (replications run in parallel and
//!   must not share a file). [`crate::measure`]'s label is the
//!   [`crate::jobs::file_stem`] of its point's key, so every grid point of
//!   a sweep keeps its own files.
//! * `MPTCP_TRACE_CONNS` — comma-separated connection tags to keep
//!   (default: all).
//! * `MPTCP_TRACE_QUEUES` — comma-separated queue indices to keep
//!   (default: all).
//! * `MPTCP_TRACE_QUEUE_RANGES` — comma-separated `first:len` blocks of
//!   contiguous queue ids to keep. Topology builders allocate queue blocks
//!   contiguously, so one range covers a whole tier of a large fabric
//!   (e.g. every core queue of a k=32 FatTree) without enumerating ids.
//!
//! The returned [`TraceGuard`] flushes the file when dropped; bind it with
//! `let _trace = ...` so it lives until the run completes.

use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;

use netsim::Simulation;
use trace::{JsonlSink, TraceFilter, Tracer};

/// Keeps the JSONL sink alive for the duration of a traced run and flushes
/// it on drop (reporting the file and line count on stderr).
pub struct TraceGuard {
    sink: Rc<RefCell<JsonlSink<BufWriter<File>>>>,
    path: PathBuf,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let mut sink = self.sink.borrow_mut();
        match trace::TraceSink::flush(&mut *sink) {
            Ok(()) => eprintln!("trace: {} ({} events)", self.path.display(), sink.lines()),
            Err(e) => eprintln!("trace: cannot flush {}: {e}", self.path.display()),
        }
    }
}

fn parse_list<T: std::str::FromStr>(var: &str) -> Vec<T> {
    std::env::var(var)
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_default()
}

/// The filter described by `MPTCP_TRACE_CONNS` / `MPTCP_TRACE_QUEUES` /
/// `MPTCP_TRACE_QUEUE_RANGES` (pass-everything when none is set).
pub fn filter_from_env() -> TraceFilter {
    let mut f = TraceFilter::all()
        .conns(&parse_list::<u64>("MPTCP_TRACE_CONNS"))
        .queues(&parse_list::<u32>("MPTCP_TRACE_QUEUES"));
    if let Ok(ranges) = std::env::var("MPTCP_TRACE_QUEUE_RANGES") {
        for spec in ranges.split(',') {
            if let Some((first, len)) = spec.trim().split_once(':') {
                if let (Ok(first), Ok(len)) = (first.parse(), len.parse()) {
                    f = f.queue_range(first, len);
                }
            }
        }
    }
    f
}

/// The trace file of one simulation: `<prefix>.<label>.seed<seed>.jsonl`.
fn trace_path(prefix: &str, label: &str, seed: u64) -> PathBuf {
    PathBuf::from(format!("{prefix}.{label}.seed{seed}.jsonl"))
}

/// If `MPTCP_TRACE` is set, attach a filtered JSONL sink to `sim` writing
/// `<prefix>.<label>.seed<seed>.jsonl` and return the guard that flushes
/// it; otherwise leave the simulation's tracer disabled and return `None`.
///
/// Failures to create the file are reported on stderr and disable tracing
/// for this run rather than aborting the experiment.
pub fn attach_from_env(sim: &mut Simulation, label: &str, seed: u64) -> Option<TraceGuard> {
    let raw = std::env::var("MPTCP_TRACE").ok()?;
    if raw.is_empty() || raw == "0" {
        return None;
    }
    let prefix = if raw == "1" || raw.eq_ignore_ascii_case("true") {
        "results/trace".to_string()
    } else {
        raw
    };
    let path = trace_path(&prefix, label, seed);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let file = match File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "trace: cannot create {}: {e}; tracing disabled",
                path.display()
            );
            return None;
        }
    };
    let (tracer, sink) = Tracer::to_sink(JsonlSink::new(BufWriter::new(file)));
    sim.set_tracer(tracer.with_filter(filter_from_env()));
    Some(TraceGuard { sink, path })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment-variable driven behavior is covered indirectly (tests
    // must not mutate the process environment: replications and other tests
    // share it across threads). The pure pieces are testable directly.

    #[test]
    fn default_filter_admits_everything() {
        // With neither env var set in the test environment this is the
        // pass-everything filter; if a caller exported filters, it still
        // composes without panicking.
        let f = filter_from_env();
        let ev = trace::TraceEvent::Fault {
            queue: 0,
            action: "link_down",
        };
        if std::env::var_os("MPTCP_TRACE_QUEUES").is_none() {
            assert!(f.admits(&ev));
        }
    }

    #[test]
    fn two_grid_points_at_one_seed_trace_to_two_files() {
        use crate::jobs::{file_stem, find, point_key, points};
        let grid = (find("scenario_a").expect("registered").grid)(true);
        let paths: Vec<PathBuf> = points(&grid)
            .iter()
            .map(|p| trace_path("t", &file_stem(&point_key("scenario_a", p)), 1))
            .collect();
        assert_eq!(paths.len(), 18);
        for (i, path) in paths.iter().enumerate() {
            assert!(!paths[..i].contains(path), "{} repeats", path.display());
        }
        let first = paths[0].to_str().unwrap();
        assert!(
            first.starts_with("t.scenario_a-algorithm-lia-backend-packet-c1_over_c2-0.75-ratio-1-"),
            "{first}"
        );
        assert!(first.ends_with(".seed1.jsonl"), "{first}");
    }

    #[test]
    fn guard_flushes_to_named_file() {
        let dir = std::env::temp_dir().join("mptcp_trace_guard_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("t.jsonl");
        let (tracer, sink) =
            Tracer::to_sink(JsonlSink::new(BufWriter::new(File::create(&path).unwrap())));
        tracer.emit(eventsim::SimTime::ZERO, || trace::TraceEvent::Fault {
            queue: 1,
            action: "link_down",
        });
        drop(TraceGuard {
            sink,
            path: path.clone(),
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ev\":\"fault\""), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
