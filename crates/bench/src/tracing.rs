//! Environment-driven trace capture for experiment binaries.
//!
//! The binaries' simulations — [`crate::measure`]'s replications, the
//! Fig. 7/8 traces and the FatTree experiments — call [`attach_from_env`]
//! right after construction. Registry jobs (which trace into their own
//! digest sink) and `perf` do not. With no environment configuration this
//! is a no-op and the simulation keeps its zero-overhead disabled tracer;
//! setting `MPTCP_TRACE` attaches a buffered JSONL sink so those binaries
//! dump a structured trace without code changes:
//!
//! ```text
//! MPTCP_TRACE=1 cargo run --release -p bench --bin scenario_a
//! MPTCP_TRACE=results/mytrace MPTCP_TRACE_CONNS=0 ./target/release/fig7_8_traces
//! ```
//!
//! * `MPTCP_TRACE` — `1`/`true` for the default `results/trace` prefix, or
//!   an explicit path prefix. Each simulation writes
//!   `<prefix>.<label>.seed<seed>.jsonl`, where the label names the run's
//!   parameters, so runs in one process (and replications, which run in
//!   parallel) never share a file. [`crate::measure`]'s label is the
//!   [`crate::jobs::file_stem`] of its point's key, so every grid point of
//!   a sweep keeps its own files. The Fig. 7/8 runs' labels name n1, n2
//!   and the algorithm, e.g. `two_bottleneck-n1-5-n2-10-olia`; the FatTree
//!   runs' name k and the algorithm and subflows or the long-flow kind.
//! * `MPTCP_TRACE_CONNS` — comma-separated connection tags to keep
//!   (default: all).
//! * `MPTCP_TRACE_QUEUES` — comma-separated queue indices to keep
//!   (default: all).
//! * `MPTCP_TRACE_QUEUE_RANGES` — comma-separated `first:len` blocks of
//!   contiguous queue ids to keep. Topology builders allocate queue blocks
//!   contiguously, so one range covers a whole tier of a large fabric
//!   (e.g. every core queue of a k=32 FatTree) without enumerating ids.
//!
//! An empty filter variable is the same as an unset one. A malformed entry
//! (`MPTCP_TRACE_CONNS=0,x`, or an empty block `7:0`) is named on stderr and
//! disables tracing for the run: dropping it would trace more than was asked
//! for, and a list left empty would trace everything.
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

/// The entries of `value`, the comma-separated list in `var`; an error
/// names the variable and the first malformed entry.
fn parse_list<T: std::str::FromStr>(var: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(|entry| {
            let entry = entry.trim();
            entry
                .parse()
                .map_err(|_| format!("{var}: malformed entry {entry:?}"))
        })
        .collect()
}

/// The filter described by the `MPTCP_TRACE_CONNS`, `MPTCP_TRACE_QUEUES`
/// and `MPTCP_TRACE_QUEUE_RANGES` values (`None` or empty when unset):
/// pass-everything when all three are, an error naming the first malformed
/// entry otherwise (module docs).
fn filter_from(
    conns: Option<&str>,
    queues: Option<&str>,
    queue_ranges: Option<&str>,
) -> Result<TraceFilter, String> {
    let [conns, queues, queue_ranges] =
        [conns, queues, queue_ranges].map(|value| value.filter(|v| !v.is_empty()));
    let mut f = TraceFilter::all();
    if let Some(conns) = conns {
        f = f.conns(&parse_list("MPTCP_TRACE_CONNS", conns)?);
    }
    if let Some(queues) = queues {
        f = f.queues(&parse_list("MPTCP_TRACE_QUEUES", queues)?);
    }
    if let Some(ranges) = queue_ranges {
        for entry in ranges.split(',').map(str::trim) {
            let block = entry
                .split_once(':')
                .and_then(|(first, len)| Some((first.parse().ok()?, len.parse().ok()?)));
            match block {
                Some((first, len)) if len > 0 => f = f.queue_range(first, len),
                _ => {
                    return Err(format!(
                        "MPTCP_TRACE_QUEUE_RANGES: malformed entry {entry:?} (expected first:len, len >= 1)"
                    ))
                }
            }
        }
    }
    Ok(f)
}

/// The trace file of one simulation: `<prefix>.<label>.seed<seed>.jsonl`.
fn trace_path(prefix: &str, label: &str, seed: u64) -> PathBuf {
    PathBuf::from(format!("{prefix}.{label}.seed{seed}.jsonl"))
}

/// If `MPTCP_TRACE` is set, attach a filtered JSONL sink to `sim` writing
/// `<prefix>.<label>.seed<seed>.jsonl` and return the guard that flushes
/// it; otherwise leave the simulation's tracer disabled and return `None`.
///
/// A malformed filter variable or a failure to create the file is
/// reported on stderr and disables tracing for this run rather than
/// aborting the experiment.
pub fn attach_from_env(sim: &mut Simulation, label: &str, seed: u64) -> Option<TraceGuard> {
    let raw = std::env::var("MPTCP_TRACE").ok()?;
    if raw.is_empty() || raw == "0" {
        return None;
    }
    let var = |name: &str| std::env::var(name).ok();
    let filter = match filter_from(
        var("MPTCP_TRACE_CONNS").as_deref(),
        var("MPTCP_TRACE_QUEUES").as_deref(),
        var("MPTCP_TRACE_QUEUE_RANGES").as_deref(),
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace: {e}; tracing disabled");
            return None;
        }
    };
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
    sim.set_tracer(tracer.with_filter(filter));
    Some(TraceGuard { sink, path })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests must not mutate the process environment (replications and
    // other tests share it across threads), so they drive the pure
    // `filter_from` directly.

    fn rto(conn: u64) -> trace::TraceEvent {
        trace::TraceEvent::RtoFire {
            conn,
            subflow: 0,
            backoff: 1,
            rto_ns: 1,
        }
    }

    fn fault(queue: u32) -> trace::TraceEvent {
        trace::TraceEvent::Fault {
            queue,
            action: "link_down",
        }
    }

    #[test]
    fn unset_or_empty_variables_admit_everything() {
        assert!(filter_from(None, None, None).unwrap().is_all());
        assert!(filter_from(Some(""), Some(""), Some("")).unwrap().is_all());
    }

    #[test]
    fn well_formed_lists_restrict_the_filter() {
        let f = filter_from(Some("0, 3"), Some("2"), Some("10:4,20:1")).unwrap();
        assert!(f.admits(&rto(0)) && f.admits(&rto(3)));
        assert!(!f.admits(&rto(1)));
        for q in [2, 10, 13, 20] {
            assert!(f.admits(&fault(q)), "queue {q}");
        }
        for q in [0, 9, 14, 21] {
            assert!(!f.admits(&fault(q)), "queue {q}");
        }
    }

    #[test]
    fn a_malformed_entry_is_named_with_its_variable() {
        let cases = [
            ((Some("0,x"), None, None), "MPTCP_TRACE_CONNS", "\"x\""),
            // The letter O, not zero: dropping it would leave an empty list,
            // which admits every connection.
            ((Some("O"), None, None), "MPTCP_TRACE_CONNS", "\"O\""),
            ((Some("0,"), None, None), "MPTCP_TRACE_CONNS", "\"\""),
            ((None, Some("1,-2"), None), "MPTCP_TRACE_QUEUES", "\"-2\""),
            (
                (None, None, Some("10:4,7")),
                "MPTCP_TRACE_QUEUE_RANGES",
                "\"7\"",
            ),
            (
                (None, None, Some("a:4")),
                "MPTCP_TRACE_QUEUE_RANGES",
                "\"a:4\"",
            ),
            (
                (None, None, Some("7:0")),
                "MPTCP_TRACE_QUEUE_RANGES",
                "\"7:0\"",
            ),
        ];
        for ((conns, queues, ranges), var, entry) in cases {
            let err = filter_from(conns, queues, ranges).unwrap_err();
            assert!(err.starts_with(var), "{err}");
            assert!(err.contains(entry), "{err}");
        }
    }

    #[test]
    fn two_grid_points_at_one_seed_trace_to_two_files() {
        use crate::fattree::{permutation_label, short_flows_label, LongFlows};
        use crate::jobs::{file_stem, find, point_key, points};
        use crate::traces::trace_label;
        use mpsim_core::Algorithm::{Lia, Olia, Reno};
        let grid = (find("scenario_a").expect("registered").grid)(true);
        let mut labels: Vec<String> = points(&grid)
            .iter()
            .map(|p| file_stem(&point_key("scenario_a", p)))
            .collect();
        assert_eq!(labels.len(), 18);
        // The runs `fig7_8_traces`, `fig13_fattree` (quick scale) and
        // `fig14_table3_shortflows` make in one process, each at one seed.
        for n2 in [5, 10] {
            for alg in [Olia, Lia] {
                labels.push(trace_label(5, n2, alg));
            }
        }
        for subflows in [2, 4, 8] {
            for alg in [Lia, Olia] {
                labels.push(permutation_label(4, alg, subflows));
            }
        }
        labels.push(permutation_label(4, Reno, 1));
        for long in [
            LongFlows::Mptcp(Lia, 8),
            LongFlows::Mptcp(Olia, 8),
            LongFlows::Tcp,
        ] {
            labels.push(short_flows_label(4, long));
        }
        let paths: Vec<PathBuf> = labels.iter().map(|l| trace_path("t", l, 1)).collect();
        assert_eq!(paths.len(), 32);
        for (i, path) in paths.iter().enumerate() {
            assert!(!paths[..i].contains(path), "{} repeats", path.display());
        }
        let first = paths[0].to_str().unwrap();
        assert!(
            first.starts_with("t.scenario_a-algorithm-lia-backend-packet-c1_over_c2-0.75-ratio-1-"),
            "{first}"
        );
        assert!(first.ends_with(".seed1.jsonl"), "{first}");
        assert_eq!(
            paths[20],
            PathBuf::from("t.two_bottleneck-n1-5-n2-10-olia.seed1.jsonl")
        );
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
