//! Flight recorder: a bounded tail of recent events for post-mortem dumps.
//!
//! Chaos runs and acceptance benches cannot afford to stream full JSONL
//! traces for every iteration (a campaign executes thousands), but when an
//! [`InvariantChecker`](crate::InvariantChecker) or
//! [`FaultOracle`](crate::FaultOracle) fires, the bytes *leading up to* the
//! violation are exactly what a human needs. The [`FlightRecorder`] is a
//! [`RingSink`] wearing a crash-dump API: it rides along as one more sink,
//! costs O(capacity) memory (~11.5 packed bytes per event), and on failure
//! its retained tail can be dumped as replayable JSONL (and rendered to a
//! timeline by the `viz` crate).
//!
//! Determinism: the dump is a pure function of the recorded events — no
//! wall-clock, hostnames, or paths inside the bytes — so repro dumps are
//! byte-identical across machines and reruns.

use std::io::{self, Write as _};

use eventsim::SimTime;

use crate::event::TraceEvent;
use crate::ring::RingSink;
use crate::sink::TraceSink;

/// Default tail length. Big enough to span several RTO/backoff cycles of a
/// two-path run (the common repro shape), small enough that a campaign can
/// carry one per in-flight iteration.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Bytes [`FlightRecorder::dump_jsonl`] reserves per retained record. A
/// Scenario C tail averages ~109 B a line and its longest kind (`cwnd`)
/// ~121 B, so a dump of such a run never regrows and copies its string.
pub const DUMP_BYTES_PER_RECORD: usize = 128;

/// A bounded ring of the most recent trace events, dumpable as JSONL.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: RingSink,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: RingSink::new(capacity),
        }
    }

    /// Total events offered (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events that fell off the front of the ring. Nonzero means the dump
    /// is a *tail*, not the whole run — callers should surface this.
    pub fn truncated(&self) -> u64 {
        self.ring.evicted()
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained tail, oldest first, decoded as the iterator goes.
    pub fn events(&self) -> impl Iterator<Item = (SimTime, TraceEvent)> + '_ {
        self.ring.events()
    }

    /// Serialize the retained tail as JSONL (one event per line, trailing
    /// newline after each). Byte-stable: identical tails dump identically,
    /// and every line parses back via [`TraceEvent::from_jsonl`].
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * DUMP_BYTES_PER_RECORD);
        for (t, ev) in self.ring.events() {
            out.push_str(&ev.to_jsonl(t));
            out.push('\n');
        }
        out
    }

    /// Write the retained tail to `path` as a JSONL file.
    pub fn dump_to(&self, path: &std::path::Path) -> io::Result<()> {
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        for (t, ev) in self.ring.events() {
            f.write_all(ev.to_jsonl(t).as_bytes())?;
            f.write_all(b"\n")?;
        }
        f.flush()
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.ring.record(t, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(i: u64) -> TraceEvent {
        TraceEvent::Deliver {
            conn: 0,
            subflow: 0,
            newly: 1,
            total: i,
        }
    }

    #[test]
    fn dump_is_the_tail_and_round_trips() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(SimTime::from_nanos(i * 10), &deliver(i));
        }
        assert_eq!(fr.recorded(), 5);
        assert_eq!(fr.truncated(), 2);
        assert_eq!(fr.len(), 3);
        let dump = fr.dump_jsonl();
        let parsed: Vec<_> = dump
            .lines()
            .map(|l| TraceEvent::from_jsonl(l).expect("dump line must parse"))
            .collect();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].0, SimTime::from_nanos(20), "oldest retained");
        assert_eq!(parsed[2].1, deliver(4));
    }

    #[test]
    fn dump_is_byte_stable() {
        let mk = || {
            let mut fr = FlightRecorder::default();
            for i in 0..100 {
                fr.record(SimTime::from_nanos(i), &deliver(i));
            }
            fr.dump_jsonl()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn dump_to_writes_parseable_jsonl() {
        let mut fr = FlightRecorder::new(8);
        fr.record(SimTime::from_nanos(7), &deliver(1));
        let dir = std::env::temp_dir().join("trace_recorder_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.jsonl");
        fr.dump_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, fr.dump_jsonl());
        std::fs::remove_file(&path).ok();
    }
}
