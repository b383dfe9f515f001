//! The flow-level discrete-event loop.
//!
//! Events are sparse: flow starts, scheduled capacity changes (faults and
//! repairs), allocator recomputes, and predicted flow completions. Between
//! consecutive recomputes every rate is constant, so delivered packets
//! accrue lazily — a flow's progress is a closed-form function of time
//! until the next allocation changes it.
//!
//! Recomputation is *coalesced*: state changes mark the allocation dirty
//! and schedule one recompute at most every [`FlowSimConfig::recompute_gap`]
//! of simulated time. With the gap at zero (validation runs) every event
//! triggers an exact reallocation; population-scale runs batch the churn of
//! many arrivals/completions into one allocator pass.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use eventsim::{EventQueue, SimDuration, SimTime};
use fluid::rates::RateRule;
use trace::{TraceEvent, Tracer};

use crate::alloc::{self, AllocScratch};
use crate::net::{FlowNet, LinkId};

/// Maximum subflows per connection (bounds the allocator's stack buffers).
pub const MAX_SUBFLOWS: usize = 16;

/// Ignore completion horizons beyond this many seconds of simulated time;
/// a later recompute will reschedule them with fresher rates.
const MAX_COMPLETION_HORIZON_S: f64 = 1e7;

/// Residual packets below which a flow counts as finished (absorbs
/// nanosecond quantization of predicted completion times).
const COMPLETION_EPS_PKTS: f64 = 1e-6;

/// One subflow: a static route and its round-trip time.
#[derive(Debug, Clone)]
pub struct FlowPath {
    /// Links crossed, in order.
    pub links: Vec<LinkId>,
    /// Path round-trip time (sets the `1/√p`-equilibrium scale).
    pub rtt: SimDuration,
}

/// A connection to install: one rate per path, coupled by `rule`.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Connection id carried into trace events.
    pub conn: u64,
    /// Rate-coupling rule (from [`RateRule::from_algorithm`]).
    pub rule: RateRule,
    /// One entry per subflow.
    pub paths: Vec<FlowPath>,
    /// Finite size in MSS packets, or `None` for a long-lived flow.
    pub size_pkts: Option<u64>,
}

/// Handle to an installed flow. Slots are recycled after completion; the
/// generation makes stale handles detectable instead of silently aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowId {
    slot: u32,
    gen: u32,
}

/// Per-flow state. A slot owns two boxed slices regardless of subflow
/// count: `hops` holds each path's end offset into the link list, then the
/// links of every path in order; `per_path` holds the RTTs, then the rates.
#[derive(Debug)]
pub(crate) struct FlowSlot {
    pub(crate) conn: u64,
    pub(crate) rule: RateRule,
    hops: Box<[u32]>,
    per_path: Box<[f64]>,
    pub(crate) goodput: f64,
    size: f64,
    remaining: f64,
    delivered: f64,
    accrued_at: SimTime,
    active: bool,
    gen: u32,
    active_pos: u32,
}

impl FlowSlot {
    /// A stopped flow for `spec` over `net`, its rates at zero, accruing
    /// from `now`. Each box is allocated once at its exact size.
    pub(crate) fn new(spec: &FlowSpec, net: &FlowNet, now: SimTime) -> FlowSlot {
        let n = spec.paths.len();
        assert!(
            (1..=MAX_SUBFLOWS).contains(&n),
            "flow needs 1..={MAX_SUBFLOWS} paths, got {n}"
        );
        let nlinks: usize = spec.paths.iter().map(|p| p.links.len()).sum();
        let mut hops = Vec::with_capacity(n + nlinks);
        let mut per_path = Vec::with_capacity(2 * n);
        let mut end = 0;
        for p in &spec.paths {
            assert!(!p.links.is_empty(), "a path must cross at least one link");
            assert!(p.rtt > SimDuration::ZERO, "rtt must be positive");
            end += p.links.len();
            #[expect(
                clippy::expect_used,
                reason = "capacity invariant: a u32 hop table cannot overflow before memory does"
            )]
            hops.push(u32::try_from(end).expect("path table overflow"));
            per_path.push(p.rtt.as_secs_f64());
        }
        for p in &spec.paths {
            for &l in &p.links {
                assert!(net.contains(l), "unknown link {}", l.index());
                hops.push(l.0);
            }
        }
        per_path.resize(2 * n, 0.0);
        let (size, remaining) = match spec.size_pkts {
            Some(pkts) => {
                assert!(pkts > 0, "finite flows must carry at least one packet");
                (pkts as f64, pkts as f64)
            }
            None => (f64::INFINITY, f64::INFINITY),
        };
        FlowSlot {
            conn: spec.conn,
            rule: spec.rule,
            hops: hops.into_boxed_slice(),
            per_path: per_path.into_boxed_slice(),
            goodput: 0.0,
            size,
            remaining,
            delivered: 0.0,
            accrued_at: now,
            active: false,
            gen: 0,
            active_pos: 0,
        }
    }

    /// Number of subflows.
    #[inline]
    pub(crate) fn num_paths(&self) -> usize {
        self.per_path.len() / 2
    }

    /// Each path's end offset into the link list, and the link list: path
    /// `r`'s links run from the previous path's end (0 for the first) to
    /// its own.
    #[inline]
    pub(crate) fn hops(&self) -> (&[u32], &[u32]) {
        self.hops.split_at(self.num_paths())
    }

    /// Per-path RTTs (seconds) and rates (pkts/s).
    #[inline]
    pub(crate) fn rtts_rates(&self) -> (&[f64], &[f64]) {
        self.per_path.split_at(self.num_paths())
    }

    /// Per-path RTTs, and the rates to write.
    #[inline]
    pub(crate) fn rtts_rates_mut(&mut self) -> (&[f64], &mut [f64]) {
        let (rtts, rates) = self.per_path.split_at_mut(self.num_paths());
        (rtts, rates)
    }
}

/// Scheduled state changes (completions live in their own heap).
#[derive(Debug, Clone, Copy)]
enum Ev {
    Start(u32),
    /// Link index and the new capacity, pkts/s.
    Capacity(u32, f64),
    Recompute,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FlowSimConfig {
    /// Price-clearing sweeps per allocator recompute. Validation runs
    /// afford tens; population-scale runs use a handful and rely on the
    /// warm start carried between recomputes.
    pub sweeps: usize,
    /// Minimum simulated time between allocator recomputes. Zero means
    /// recompute on every state change (exact, for validation).
    pub recompute_gap: SimDuration,
    /// Emit a `Cwnd` trace event per subflow per recompute (rate · rtt as
    /// the equivalent window). Completions are always traced.
    pub trace_rates: bool,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            sweeps: 50,
            recompute_gap: SimDuration::ZERO,
            trace_rates: true,
        }
    }
}

impl FlowSimConfig {
    /// Settings for population-scale churn runs: coalesced recomputes,
    /// cheap allocator sweeps, completion-only tracing.
    pub fn large_scale() -> FlowSimConfig {
        FlowSimConfig {
            sweeps: 6,
            recompute_gap: SimDuration::from_millis(25),
            trace_rates: false,
        }
    }
}

/// The flow-level simulation: a [`FlowNet`], a flow table, and the event
/// loop driving allocator recomputes.
pub struct FlowSim {
    net: FlowNet,
    cfg: FlowSimConfig,
    flows: Vec<FlowSlot>,
    free: Vec<u32>,
    active: Vec<u32>,
    events: EventQueue<Ev>,
    completions: BinaryHeap<Reverse<(SimTime, u32, u32)>>,
    now: SimTime,
    dirty: bool,
    recompute_pending: bool,
    last_recompute: SimTime,
    scratch: AllocScratch,
    link_loss: Vec<f64>,
    finished_scratch: Vec<u32>,
    tracer: Tracer,
    events_processed: u64,
    recomputes: u64,
    started: u64,
    completed: u64,
    peak_active: usize,
}

impl FlowSim {
    /// Build a simulation over `net` (the capacity table is owned from
    /// here on; mid-run changes go through [`schedule_capacity`]).
    ///
    /// [`schedule_capacity`]: FlowSim::schedule_capacity
    pub fn new(net: FlowNet, cfg: FlowSimConfig) -> FlowSim {
        assert!(cfg.sweeps > 0, "allocator needs at least one sweep");
        let nlinks = net.len();
        FlowSim {
            net,
            cfg,
            flows: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            events: EventQueue::new(),
            completions: BinaryHeap::new(),
            now: SimTime::ZERO,
            dirty: false,
            recompute_pending: false,
            last_recompute: SimTime::ZERO,
            scratch: AllocScratch::default(),
            link_loss: vec![0.0; nlinks],
            finished_scratch: Vec::new(),
            tracer: Tracer::disabled(),
            events_processed: 0,
            recomputes: 0,
            started: 0,
            completed: 0,
            peak_active: 0,
        }
    }

    /// Route trace events (completions, and rate updates when configured)
    /// through `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Install a flow; it sends nothing until [`start_at`](FlowSim::start_at).
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let slot = FlowSlot::new(&spec, &self.net, self.now);
        match self.free.pop() {
            Some(i) => {
                let gen = self.flows[i as usize].gen.wrapping_add(1);
                self.flows[i as usize] = FlowSlot { gen, ..slot };
                FlowId { slot: i, gen }
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "capacity invariant: a u32 flow table cannot overflow before memory does"
                )]
                let i = u32::try_from(self.flows.len()).expect("flow table overflow");
                self.flows.push(slot);
                FlowId { slot: i, gen: 0 }
            }
        }
    }

    /// Schedule `flow` to begin sending at `t` (must not be in the past).
    pub fn start_at(&mut self, flow: FlowId, t: SimTime) {
        assert!(t >= self.now, "cannot start a flow in the past");
        let f = self.slot(flow);
        assert!(!f.active, "flow already started");
        self.events.schedule(t, Ev::Start(flow.slot));
    }

    /// Schedule link `l` to change capacity to `mbps` at `t` — the
    /// flow-level form of a fault (0.0) or repair.
    pub fn schedule_capacity(&mut self, l: LinkId, t: SimTime, mbps: f64) {
        assert!(t >= self.now, "cannot change capacity in the past");
        assert!(self.net.contains(l), "unknown link {}", l.index());
        let pps = crate::net::mbps_to_pps(mbps);
        self.events.schedule(t, Ev::Capacity(l.0, pps));
    }

    /// Advance simulated time to `until`, processing every event and
    /// completion in order.
    pub fn run_until(&mut self, until: SimTime) {
        assert!(until >= self.now, "time runs forward");
        loop {
            let next_done = self.peek_completion();
            let next_ev = self.events.peek_time();
            // Completions run before same-time events so a recompute at t
            // sees the post-completion population.
            let take_completion = match (next_done, next_ev) {
                (Some(cd), Some(ce)) => cd <= ce,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_completion {
                let t = match next_done {
                    Some(t) => t,
                    None => break,
                };
                if t > until {
                    break;
                }
                self.now = t;
                if let Some(Reverse((_, fi, _))) = self.completions.pop() {
                    self.events_processed += 1;
                    self.complete(fi, t);
                }
            } else {
                let t = match next_ev {
                    Some(t) => t,
                    None => break,
                };
                if t > until {
                    break;
                }
                self.now = t;
                if let Some((_, ev)) = self.events.pop() {
                    self.events_processed += 1;
                    self.handle(ev, t);
                }
            }
        }
        self.now = until;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Packets delivered by `flow` so far (lazy accrual to `now`).
    pub fn delivered_pkts(&self, flow: FlowId) -> f64 {
        let f = self.slot(flow);
        if !f.active {
            return f.delivered;
        }
        let dt = self.now.saturating_since(f.accrued_at).as_secs_f64();
        let d = f.delivered + f.goodput * dt;
        if f.size.is_finite() {
            d.min(f.size)
        } else {
            d
        }
    }

    /// Loss probability of link `l` at the last recompute.
    pub fn link_loss(&self, l: LinkId) -> f64 {
        self.link_loss[l.index()]
    }

    /// Events plus completions processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Allocator recomputes performed so far.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Flows that have started sending.
    pub fn started_flows(&self) -> u64 {
        self.started
    }

    /// Finite flows that have delivered their full size.
    pub fn completed_flows(&self) -> u64 {
        self.completed
    }

    /// Number of currently-active flows.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// High-water mark of concurrently active flows.
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    fn slot(&self, flow: FlowId) -> &FlowSlot {
        let f = &self.flows[flow.slot as usize];
        assert_eq!(f.gen, flow.gen, "stale FlowId: slot was recycled");
        f
    }

    /// Earliest still-valid completion time (drops stale entries).
    fn peek_completion(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, fi, gen))) = self.completions.peek() {
            let f = &self.flows[fi as usize];
            if f.active && f.gen == gen {
                return Some(t);
            }
            self.completions.pop();
        }
        None
    }

    fn handle(&mut self, ev: Ev, t: SimTime) {
        match ev {
            Ev::Start(fi) => {
                #[expect(
                    clippy::expect_used,
                    reason = "capacity invariant: the active set is bounded by the u32-indexed flow table"
                )]
                let pos = u32::try_from(self.active.len()).expect("active table overflow");
                let f = &mut self.flows[fi as usize];
                f.active = true;
                f.accrued_at = t;
                f.active_pos = pos;
                // Start from the probing floor on every path.
                let (rtts, rates) = f.rtts_rates_mut();
                for (x, rtt) in rates.iter_mut().zip(rtts) {
                    *x = 1.0 / rtt;
                }
                self.active.push(fi);
                self.started += 1;
                self.peak_active = self.peak_active.max(self.active.len());
                self.mark_dirty(t);
            }
            Ev::Capacity(l, pps) => {
                self.net.set_capacity_pps(LinkId(l), pps);
                self.mark_dirty(t);
            }
            Ev::Recompute => {
                self.recompute_pending = false;
                if self.dirty {
                    self.do_recompute(t);
                }
            }
        }
    }

    fn mark_dirty(&mut self, t: SimTime) {
        self.dirty = true;
        if !self.recompute_pending {
            let due = (self.last_recompute + self.cfg.recompute_gap).max(t);
            self.events.schedule(due, Ev::Recompute);
            self.recompute_pending = true;
        }
    }

    /// Retire `fi` at `t`: credit the full size, free the slot, trace the
    /// delivery.
    fn complete(&mut self, fi: u32, t: SimTime) {
        let f = &mut self.flows[fi as usize];
        debug_assert!(f.active && f.size.is_finite());
        f.delivered = f.size;
        f.remaining = 0.0;
        f.accrued_at = t;
        f.active = false;
        let pos = f.active_pos as usize;
        let conn = f.conn;
        let size = f.size;
        self.active.swap_remove(pos);
        if let Some(&moved) = self.active.get(pos) {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`pos` indexes the active table, whose every push checks its index against u32"
            )]
            let pos = pos as u32;
            self.flows[moved as usize].active_pos = pos;
        }
        self.free.push(fi);
        self.completed += 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a finite flow's size is its u64 packet count stored as f64 (`FlowSlot::new`): integral, so the cast drops no fraction"
        )]
        let total = size as u64;
        self.tracer.emit(t, || TraceEvent::Deliver {
            conn,
            subflow: 0,
            newly: total,
            total,
        });
        self.mark_dirty(t);
    }

    /// The allocator pass: settle accrued deliveries, retire flows that
    /// finished in the interim, re-run the fair-share allocation, trace,
    /// and rebuild the completion schedule.
    fn do_recompute(&mut self, t: SimTime) {
        // 1. Settle lazy accounting up to t.
        self.finished_scratch.clear();
        for i in 0..self.active.len() {
            let fi = self.active[i];
            let f = &mut self.flows[fi as usize];
            let dt = t.saturating_since(f.accrued_at).as_secs_f64();
            let got = f.goodput * dt;
            f.accrued_at = t;
            if f.size.is_finite() {
                let got = got.min(f.remaining);
                f.delivered += got;
                f.remaining -= got;
                if f.remaining <= COMPLETION_EPS_PKTS {
                    self.finished_scratch.push(fi);
                }
            } else {
                f.delivered += got;
            }
        }
        let finished = std::mem::take(&mut self.finished_scratch);
        for &fi in &finished {
            self.complete(fi, t);
        }
        self.finished_scratch = finished;
        self.dirty = false;

        // 2. Reallocate.
        alloc::recompute(
            self.net.caps(),
            self.cfg.sweeps,
            &mut self.flows,
            &self.active,
            &mut self.scratch,
            &mut self.link_loss,
        );
        self.recomputes += 1;

        // 3. Trace rate updates (equivalent window = rate · rtt).
        if self.cfg.trace_rates && self.tracer.is_enabled() {
            for &fi in &self.active {
                let f = &self.flows[fi as usize];
                let (rtts, rates) = f.rtts_rates();
                for r in 0..f.num_paths() {
                    self.tracer.emit(t, || TraceEvent::Cwnd {
                        conn: f.conn,
                        subflow: u16::try_from(r).unwrap_or(u16::MAX),
                        cwnd: rates[r] * rtts[r],
                        ssthresh: 0.0,
                        reason: trace::CwndReason::Ack,
                    });
                }
            }
        }

        // 4. Rebuild the completion schedule under the new rates.
        self.completions.clear();
        for &fi in &self.active {
            let f = &self.flows[fi as usize];
            if !f.size.is_finite() || f.goodput <= 0.0 {
                continue;
            }
            let secs = f.remaining / f.goodput;
            if secs < MAX_COMPLETION_HORIZON_S {
                let finish = t + SimDuration::from_secs_f64(secs);
                self.completions.push(Reverse((finish, fi, f.gen)));
            }
        }
        self.last_recompute = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One slot per installed flow, resident for the whole run: the two
    /// boxes keep it at 96 bytes, with its RTTs, rates and links behind.
    #[test]
    fn flow_slot_stays_lean() {
        assert_eq!(std::mem::size_of::<FlowSlot>(), 96);
    }
}
