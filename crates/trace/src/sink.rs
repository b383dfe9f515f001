//! Pluggable trace sinks and the `Tracer` handle the simulator emits through.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use eventsim::SimTime;

use crate::event::TraceEvent;

/// Destination for trace events.
///
/// Contract: `record` is called in non-decreasing `t` order within one
/// simulation; sinks must not reorder events. A sink may drop events (the
/// ring buffer does, oldest-first) but must account for them. `flush` is
/// called at end of run and must push any buffered bytes to the underlying
/// writer.
pub trait TraceSink {
    /// Accept one event stamped with its simulation time.
    fn record(&mut self, t: SimTime, ev: &TraceEvent);
    /// Flush buffered output, if any.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything. Exists so code can hold a sink unconditionally;
/// normally `Tracer::disabled()` avoids even constructing events.
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _t: SimTime, _ev: &TraceEvent) {}
}

/// Streams events as JSON Lines to any `Write` (file, `Vec<u8>`, ...).
///
/// One event per line, stable field order (see [`TraceEvent::to_jsonl`]),
/// so identical runs produce byte-identical output.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. Callers that target files should pass a
    /// `BufWriter<File>`; the sink writes one line per event.
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0 }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Recover the writer (flushing is the caller's job via `flush`).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        // I/O errors are remembered by the writer; tracing must not panic
        // mid-simulation, and `flush` surfaces persistent failures.
        let line = ev.to_jsonl(t);
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.write_all(b"\n");
        self.lines += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Folds every event's byte-stable JSONL serialization (plus the trailing
/// newline, exactly what [`JsonlSink`] would write) into an FNV-1a
/// [`Digest64`](crate::Digest64) without storing anything.
///
/// This is the determinism witness the orchestrator and the perf harness
/// share: two runs produce the same digest iff their full traces are
/// byte-identical, at a fraction of the memory and I/O cost of writing the
/// trace out.
#[derive(Debug, Default)]
pub struct DigestSink {
    digest: crate::Digest64,
    events: u64,
    bytes: u64,
}

impl DigestSink {
    /// Fresh digest at the FNV offset basis, zero events absorbed.
    pub fn new() -> Self {
        DigestSink::default()
    }

    /// The digest over everything absorbed so far.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// The digest as the 16-char lowercase hex string reports carry.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.digest.finish())
    }

    /// Events absorbed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Serialized trace bytes absorbed (JSONL lines + newlines).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl TraceSink for DigestSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        let line = ev.to_jsonl(t);
        self.digest.update(line.as_bytes());
        self.digest.update(b"\n");
        self.events += 1;
        self.bytes += line.len() as u64 + 1;
    }
}

/// Event filter applied before a sink sees anything.
///
/// Empty allow-lists mean "allow all" on that axis; the two axes compose
/// conjunctively. Events that carry no queue (e.g. `Cwnd`) pass the queue
/// filter, and vice versa, so filtering on one axis never hides the other
/// axis's events.
///
/// The filter sits on the per-event hot path, so membership is O(log n):
/// connection tags are a sorted deduped list, and queues are kept as sorted
/// coalesced `[start, end)` ranges. Ranges matter at scale — topology
/// builders hand out contiguous queue-id blocks, so "every host queue of a
/// k=32 FatTree" is one range entry via [`queue_range`](Self::queue_range),
/// not 8192 list entries.
#[derive(Debug, Default, Clone)]
pub struct TraceFilter {
    /// Sorted, deduped.
    conns: Vec<u64>,
    /// Sorted, coalesced, half-open `[start, end)` — never empty ranges.
    queues: Vec<(u32, u32)>,
}

impl TraceFilter {
    /// Pass-everything filter.
    pub fn all() -> Self {
        TraceFilter::default()
    }

    /// Restrict to the given connection tags (additive across calls).
    pub fn conns(mut self, conns: &[u64]) -> Self {
        self.conns.extend_from_slice(conns);
        self.conns.sort_unstable();
        self.conns.dedup();
        self
    }

    /// Restrict to the given queue indices (additive across calls).
    pub fn queues(mut self, queues: &[u32]) -> Self {
        self.queues
            .extend(queues.iter().map(|&q| (q, q.saturating_add(1))));
        self.normalize_queues();
        self
    }

    /// Restrict to the contiguous queue block `first..first + len`
    /// (additive across calls). O(1) membership regardless of `len` —
    /// the way to admit a whole tier of a large fabric.
    pub fn queue_range(mut self, first: u32, len: usize) -> Self {
        let end = u64::from(first) + len as u64;
        let end = u32::try_from(end).unwrap_or(u32::MAX);
        if end > first {
            self.queues.push((first, end));
            self.normalize_queues();
        }
        self
    }

    /// Sort ranges and merge overlapping or adjacent ones, so `admits` can
    /// binary-search on the start and check a single range.
    fn normalize_queues(&mut self) {
        self.queues.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.queues.len());
        for &(start, end) in &self.queues {
            match merged.last_mut() {
                Some((_, prev_end)) if start <= *prev_end => *prev_end = (*prev_end).max(end),
                _ => merged.push((start, end)),
            }
        }
        self.queues = merged;
    }

    /// Is `q` inside one of the allowed ranges?
    fn admits_queue(&self, q: u32) -> bool {
        // Index of the first range starting above q; the candidate is the
        // one before it.
        let i = self.queues.partition_point(|&(start, _)| start <= q);
        i > 0 && q < self.queues[i - 1].1
    }

    /// Does `ev` pass the filter?
    pub fn admits(&self, ev: &TraceEvent) -> bool {
        if !self.conns.is_empty() {
            if let Some(c) = ev.conn() {
                if self.conns.binary_search(&c).is_err() {
                    return false;
                }
            }
        }
        if !self.queues.is_empty() {
            if let Some(q) = ev.queue() {
                if !self.admits_queue(q) {
                    return false;
                }
            }
        }
        true
    }

    /// True when the filter admits everything.
    pub fn is_all(&self) -> bool {
        self.conns.is_empty() && self.queues.is_empty()
    }
}

/// Shared handle to one sink, cheap to clone into every simulator layer.
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// The emission handle threaded through the simulator.
///
/// `Tracer::disabled()` is the default everywhere: `emit` then reduces to a
/// single branch on an `Option` discriminant and the event-constructing
/// closure is never evaluated, which is what keeps the disabled overhead
/// near zero.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<SharedSink>,
    filter: TraceFilter,
}

impl Tracer {
    /// A tracer that drops everything without constructing events.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer forwarding every event to `sink`.
    pub fn enabled(sink: SharedSink) -> Self {
        Tracer {
            sink: Some(sink),
            filter: TraceFilter::all(),
        }
    }

    /// Convenience: wrap a concrete sink in the shared handle.
    pub fn to_sink<S: TraceSink + 'static>(sink: S) -> (Self, Rc<RefCell<S>>) {
        let shared = Rc::new(RefCell::new(sink));
        (Tracer::enabled(shared.clone()), shared)
    }

    /// Apply an event filter in front of the sink.
    pub fn with_filter(mut self, filter: TraceFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Is a sink attached? (Lets callers skip expensive pre-computation.)
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit an event. The closure runs only when a sink is attached, so a
    /// disabled tracer costs one branch and no event construction.
    #[inline]
    pub fn emit(&self, t: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            let ev = make();
            if self.filter.admits(&ev) {
                sink.borrow_mut().record(t, &ev);
            }
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) -> io::Result<()> {
        match &self.sink {
            Some(sink) => sink.borrow_mut().flush(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("filter", &self.filter)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, PacketKindLabel};
    use crate::ring::RingSink;

    fn enq(queue: u32, conn: u64, seq: u64) -> TraceEvent {
        TraceEvent::Enqueue {
            queue,
            conn,
            subflow: 0,
            kind: PacketKindLabel::Data,
            seq,
            size: 1500,
            qlen: 1,
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(SimTime::from_nanos(5), &enq(1, 2, 3));
        sink.record(
            SimTime::from_nanos(6),
            &TraceEvent::Drop {
                queue: 1,
                conn: 2,
                subflow: 0,
                kind: PacketKindLabel::Data,
                seq: 4,
                reason: DropReason::Tail,
            },
        );
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t_ns\":5,"));
        assert!(lines[1].contains("\"reason\":\"tail\""));
    }

    #[test]
    fn filter_axes_compose_and_ignore_missing_fields() {
        let f = TraceFilter::all().conns(&[7]).queues(&[3]);
        assert!(f.admits(&enq(3, 7, 0)));
        assert!(!f.admits(&enq(3, 8, 0)), "wrong conn");
        assert!(!f.admits(&enq(4, 7, 0)), "wrong queue");
        // Cwnd has no queue: must pass a queue filter.
        let cwnd = TraceEvent::Cwnd {
            conn: 7,
            subflow: 0,
            cwnd: 1.0,
            ssthresh: 2.0,
            reason: crate::event::CwndReason::Ack,
        };
        assert!(f.admits(&cwnd));
        // Fault has no conn: must pass a conn filter.
        let fault = TraceEvent::Fault {
            queue: 3,
            action: "link_down",
        };
        assert!(f.admits(&fault));
        assert!(!f.admits(&TraceEvent::Fault {
            queue: 9,
            action: "link_down",
        }));
    }

    #[test]
    fn queue_ranges_admit_blocks_and_coalesce() {
        // A block of 8192 "host queues" plus a spot list: two range entries.
        let f = TraceFilter::all()
            .queue_range(1000, 8192)
            .queues(&[9192, 9193, 500]);
        assert!(f.admits(&enq(1000, 1, 0)));
        assert!(f.admits(&enq(9191, 1, 0)), "last queue of the block");
        assert!(f.admits(&enq(9192, 1, 0)), "adjacent singleton coalesces");
        assert!(f.admits(&enq(9193, 1, 0)));
        assert!(f.admits(&enq(500, 1, 0)));
        assert!(!f.admits(&enq(999, 1, 0)), "below the block");
        assert!(!f.admits(&enq(9194, 1, 0)), "above the block");
        assert!(!f.admits(&enq(501, 1, 0)));

        // Overlapping ranges merge; empty ranges are dropped.
        let g = TraceFilter::all()
            .queue_range(10, 5)
            .queue_range(12, 10)
            .queue_range(40, 0);
        assert!(g.admits(&enq(21, 1, 0)));
        assert!(!g.admits(&enq(22, 1, 0)));
        assert!(!g.admits(&enq(40, 1, 0)), "empty range admits nothing");
        assert!(!g.is_all());
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let tracer = Tracer::disabled();
        let mut built = false;
        tracer.emit(SimTime::ZERO, || {
            built = true;
            enq(0, 0, 0)
        });
        assert!(!built, "closure must not run when disabled");
        assert!(!tracer.is_enabled());
        tracer.flush().unwrap();
    }

    #[test]
    fn enabled_tracer_routes_through_filter_to_sink() {
        let (tracer, ring) = Tracer::to_sink(RingSink::new(16));
        let tracer = tracer.with_filter(TraceFilter::all().conns(&[1]));
        tracer.emit(SimTime::ZERO, || enq(0, 1, 0));
        tracer.emit(SimTime::ZERO, || enq(0, 2, 0));
        assert_eq!(ring.borrow().len(), 1);
    }

    #[test]
    fn digest_sink_matches_jsonl_byte_stream() {
        let events = [enq(0, 1, 0), enq(1, 2, 3)];
        let mut jsonl = JsonlSink::new(Vec::<u8>::new());
        let mut digest = DigestSink::new();
        for (i, ev) in events.iter().enumerate() {
            let t = SimTime::from_nanos(i as u64);
            jsonl.record(t, ev);
            digest.record(t, ev);
        }
        let bytes = jsonl.into_inner();
        assert_eq!(digest.digest(), crate::Digest64::of(&bytes));
        assert_eq!(digest.bytes(), bytes.len() as u64);
        assert_eq!(digest.events(), 2);
        assert_eq!(digest.hex(), format!("{:016x}", digest.digest()));
    }
}
