//! Nested wall-clock spans, recorded from outside the simulator crates.
//!
//! A traced run wraps each layer's public entry points: the event loop's
//! `run_until` (one span per sim-time slice), every transport callback (a
//! pass-through [`Endpoint`] installed in place of the real one) and every
//! trace record (a pass-through [`TraceSink`]). Spans nest on a stack, so a
//! record made inside a callback is that callback's child, and a callback
//! is the child of the slice that dispatched it. A span's self time is its
//! duration minus the time its children cover.
//!
//! Spans are folded into per-kind totals as they close; nothing per span is
//! kept, so a traced run's memory does not grow with its length.

use std::cell::RefCell;
use std::rc::Rc;

use eventsim::SimTime;
use netsim::profile::RunProfile;
use netsim::{Endpoint, NetCtx, Packet};
use trace::{SharedSink, TraceEvent, TraceSink};

/// A started wall-clock stopwatch: the benchmark's only clock. It reads
/// the clock through `netsim::profile`, the workspace's audited wall-clock
/// boundary, so no simulation code here touches wall time directly.
#[derive(Debug, Clone)]
pub struct Stopwatch(RunProfile);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(RunProfile::start())
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.finish().wall_s
    }

    /// Nanoseconds since the start.
    pub fn ns(&self) -> u64 {
        (self.secs() * 1e9).round() as u64
    }
}

/// What a span covers. Each kind belongs to one layer (crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `netsim::Simulation::run_until` over one slice.
    NetSlice,
    /// `flowsim::FlowSim::run_until` over one slice.
    FlowSlice,
    /// `Endpoint::start` of a transport endpoint.
    Start,
    /// `Endpoint::on_packet` of a transport endpoint.
    Packet,
    /// `Endpoint::on_timer` of a transport endpoint.
    Timer,
    /// `TraceSink::record`.
    Record,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::NetSlice,
        Kind::FlowSlice,
        Kind::Start,
        Kind::Packet,
        Kind::Timer,
        Kind::Record,
    ];
}

const KINDS: usize = Kind::ALL.len();

/// Per-kind totals of closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of span durations minus their children's, nanoseconds.
    pub self_ns: u64,
}

struct Open {
    kind: Kind,
    start: u64,
    child_ns: u64,
}

/// The span stack and the per-kind totals of every closed span.
pub struct Spans {
    origin: Stopwatch,
    stack: Vec<Open>,
    totals: [Totals; KINDS],
}

/// Handle shared by every wrapper of one traced run.
pub type SharedSpans = Rc<RefCell<Spans>>;

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Stopwatch::start(),
            stack: Vec::new(),
            totals: [Totals::default(); KINDS],
        }
    }
}

impl Spans {
    pub fn shared() -> SharedSpans {
        Rc::new(RefCell::new(Spans::default()))
    }

    fn now_ns(&self) -> u64 {
        self.origin.ns()
    }

    /// Open a span of `kind` now.
    pub fn enter(&mut self, kind: Kind) {
        let t = self.now_ns();
        self.enter_at(kind, t);
    }

    /// Close the innermost span now; returns its duration in nanoseconds.
    pub fn exit(&mut self) -> u64 {
        let t = self.now_ns();
        self.exit_at(t)
    }

    /// Open a span of `kind` at `t` nanoseconds.
    pub fn enter_at(&mut self, kind: Kind, t: u64) {
        self.stack.push(Open {
            kind,
            start: t,
            child_ns: 0,
        });
    }

    /// Close the innermost span at `t` nanoseconds; returns its duration.
    ///
    /// # Panics
    ///
    /// If no span is open: enter and exit calls are paired by construction
    /// in every wrapper, so an unmatched exit is a bug in this benchmark.
    pub fn exit_at(&mut self, t: u64) -> u64 {
        let open = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = t.saturating_sub(open.start);
        let tot = &mut self.totals[open.kind as usize];
        tot.count += 1;
        tot.total_ns += dur;
        tot.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        dur
    }

    /// Totals of the closed spans of `kind`.
    pub fn totals(&self, kind: Kind) -> Totals {
        self.totals[kind as usize]
    }
}

/// Pass-through endpoint: times each callback of the endpoint it wraps.
pub struct TimedEndpoint {
    pub inner: Box<dyn Endpoint>,
    pub spans: SharedSpans,
}

impl TimedEndpoint {
    fn timed(&mut self, kind: Kind, f: impl FnOnce(&mut dyn Endpoint)) {
        self.spans.borrow_mut().enter(kind);
        f(self.inner.as_mut());
        self.spans.borrow_mut().exit();
    }
}

impl Endpoint for TimedEndpoint {
    fn start(&mut self, ctx: &mut NetCtx<'_>) {
        self.timed(Kind::Start, |ep| ep.start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
        self.timed(Kind::Packet, |ep| ep.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        self.timed(Kind::Timer, |ep| ep.on_timer(ctx, token));
    }
}

/// Pass-through trace sink: times each record of the sink it wraps.
pub struct TimedSink {
    pub inner: SharedSink,
    pub spans: SharedSpans,
}

impl TraceSink for TimedSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.spans.borrow_mut().enter(Kind::Record);
        self.inner.borrow_mut().record(t, ev);
        self.spans.borrow_mut().exit();
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.borrow_mut().flush()
    }
}

/// Smallest nonzero step between two successive clock readings, in
/// nanoseconds: the resolution every span time is quantised to.
pub fn clock_resolution_ns() -> u64 {
    let origin = Stopwatch::start();
    let mut best = u64::MAX;
    let mut last = origin.ns();
    for _ in 0..10_000 {
        let t = origin.ns();
        if t > last {
            best = best.min(t - last);
        }
        last = t;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::default();
        // slice [0, 100) ⊃ packet [10, 60) ⊃ record [20, 25);
        // slice ⊃ record [70, 80) outside any callback.
        s.enter_at(Kind::NetSlice, 0);
        s.enter_at(Kind::Packet, 10);
        s.enter_at(Kind::Record, 20);
        assert_eq!(s.exit_at(25), 5);
        assert_eq!(s.exit_at(60), 50);
        s.enter_at(Kind::Record, 70);
        s.exit_at(80);
        assert_eq!(s.exit_at(100), 100);

        let slice = s.totals(Kind::NetSlice);
        let packet = s.totals(Kind::Packet);
        let record = s.totals(Kind::Record);
        assert_eq!(
            slice,
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            packet,
            Totals {
                count: 1,
                total_ns: 50,
                self_ns: 45
            }
        );
        assert_eq!(
            record,
            Totals {
                count: 2,
                total_ns: 15,
                self_ns: 15
            }
        );
        // The layers' self times partition the outermost span exactly.
        assert_eq!(
            slice.self_ns + packet.self_ns + record.self_ns,
            slice.total_ns
        );
    }

    #[test]
    fn sibling_spans_accumulate() {
        let mut s = Spans::default();
        s.enter_at(Kind::FlowSlice, 0);
        s.exit_at(7);
        s.enter_at(Kind::FlowSlice, 10);
        s.exit_at(13);
        assert_eq!(
            s.totals(Kind::FlowSlice),
            Totals {
                count: 2,
                total_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(s.totals(Kind::Timer), Totals::default());
    }

    #[test]
    #[should_panic(expected = "without a matching enter")]
    fn unmatched_exit_panics() {
        Spans::default().exit_at(1);
    }
}
