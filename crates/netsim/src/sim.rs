//! The simulation driver: event dispatch, queue service, endpoint callbacks.

use eventsim::{EventQueue, SimDuration, SimRng, SimTime, TimerHandle, TimerSlab};
use trace::{TraceEvent, Tracer};

use crate::arena::{PacketArena, PacketRef};
use crate::fault::{FaultAction, FaultPlan};
use crate::ids::{EndpointId, QueueId};
use crate::packet::Packet;
use crate::queue::{Queue, QueueConfig, QueueStats, QueueTable};

/// Internal event vocabulary of the network simulation.
///
/// `Service` and `Arrival` events are scheduled a fixed delay ahead (a
/// service time, a link latency, or zero for direct delivery), so they wait
/// in the queue's event lanes; `Start` and `Fault` events wait in its event
/// heap. Kept to 16 bytes: every pending entry is this payload plus its key
/// (8 bytes of steps in a lane, for a 24-byte entry; 16 bytes in a heap), so
/// its size directly multiplies the hot loop's memory traffic. Packets
/// travel as arena refs ([`PacketRef`], 8 bytes) rather than by value (~100
/// bytes), and the rare fault actions are boxed. Timers wait in the queue's
/// timer lanes (or, past the lane cap, its timer heap) as bare 8-byte
/// [`TimerHandle`]s, 16 bytes a lane entry, and become [`NetEvent::Timer`]
/// only when they pop.
#[derive(Debug)]
enum NetEvent {
    /// The head packet of a queue finished serializing.
    Service(QueueId),
    /// A packet arrives at its next hop (queue or destination endpoint).
    Arrival(PacketRef),
    /// An endpoint's `start` hook fires.
    Start(EndpointId),
    /// An endpoint timer fires; the slab maps the handle back to
    /// `(endpoint, token)` — or to nothing, if it was cancelled.
    Timer(TimerHandle),
    /// A scheduled fault-plan action fires (boxed: fault actions are rare
    /// and would otherwise double the event size).
    Fault(Box<FaultAction>),
}

impl From<TimerHandle> for NetEvent {
    fn from(h: TimerHandle) -> NetEvent {
        NetEvent::Timer(h)
    }
}

/// The event queue: link events in its event lanes, start and fault events
/// in its event heap, armed timers (live or cancelled) in its timer lanes,
/// or its timer heap when no timer lane takes them.
type NetQueue = EventQueue<NetEvent, TimerHandle>;

/// A traffic source or sink attached to the simulation.
///
/// Endpoints are driven entirely by callbacks; they interact with the
/// network through the [`NetCtx`] passed to each callback. Callbacks are
/// never reentrant: anything an endpoint sends or schedules is processed
/// after the callback returns.
pub trait Endpoint {
    /// Called once when the endpoint's start event fires (see
    /// [`Simulation::start_endpoint`] / [`Simulation::start_endpoint_at`]).
    fn start(&mut self, ctx: &mut NetCtx<'_>);

    /// A packet addressed to this endpoint completed its route.
    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet);

    /// A timer scheduled via [`NetCtx::schedule_in`] fired.
    ///
    /// Only live timers are dispatched: a timer cancelled through
    /// [`NetCtx::cancel_timer`] is drained inside the event loop and never
    /// reaches the endpoint, so token-versioning schemes to ignore stale
    /// fires are unnecessary.
    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64);
}

/// The capabilities an endpoint callback has: read the clock, send packets,
/// arm timers, draw randomness.
pub struct NetCtx<'a> {
    me: EndpointId,
    now: SimTime,
    queues: &'a mut QueueTable,
    events: &'a mut NetQueue,
    arena: &'a mut PacketArena,
    timers: &'a mut TimerSlab<(EndpointId, u64)>,
    rng: &'a mut SimRng,
    tracer: &'a Tracer,
}

impl NetCtx<'_> {
    /// The endpoint being called back.
    pub fn me(&self) -> EndpointId {
        self.me
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Inject a packet into the network at the first hop of its route.
    ///
    /// A packet with an empty route is delivered directly to its
    /// destination endpoint (still via the event loop, so callbacks never
    /// nest).
    pub fn send(&mut self, pkt: Packet) {
        let direct = pkt.at_destination();
        let r = self.arena.insert(pkt);
        if direct {
            self.events
                .schedule_after(SimDuration::ZERO, NetEvent::Arrival(r));
        } else {
            enqueue(
                self.queues,
                self.events,
                self.arena,
                self.now,
                self.rng,
                self.tracer,
                r,
            );
        }
    }

    /// Arm a timer for this endpoint, `delay` from now, carrying `token`.
    ///
    /// The returned handle can cancel the timer via
    /// [`cancel_timer`](Self::cancel_timer); once the timer fires (or is
    /// cancelled) the handle goes stale and cancelling it is a no-op.
    pub fn schedule_in(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        let h = self.timers.arm((self.me, token));
        self.events.schedule_timer_after(delay, h);
        h
    }

    /// Cancel a timer armed with [`schedule_in`](Self::schedule_in). Returns
    /// whether the timer was still live. The dead timer-heap entry is
    /// drained inside the event loop; the endpoint never sees it.
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        self.timers.cancel(h).is_some()
    }

    /// The simulation's RNG (deterministic per seed).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Instantaneous length (packets) of a queue — used by monitoring
    /// endpoints that sample queue occupancy. A reserved-but-untouched
    /// queue is empty by construction.
    pub fn queue_len(&self, q: QueueId) -> usize {
        self.queues.get(q.index()).map_or(0, Queue::len)
    }

    /// The simulation's tracer, so transport endpoints can emit their own
    /// events (cwnd changes, RTO fires, health transitions).
    pub fn tracer(&self) -> &Tracer {
        self.tracer
    }
}

/// Admit the packet behind `r` to the queue at its current hop and kick
/// service if idle. On drop the arena slot is freed immediately.
fn enqueue(
    queues: &mut QueueTable,
    events: &mut NetQueue,
    arena: &mut PacketArena,
    now: SimTime,
    rng: &mut SimRng,
    tracer: &Tracer,
    r: PacketRef,
) {
    // Snapshot identity up front: the admission decision and the (lazy)
    // trace closures below need only these copies, not the arena entry.
    let (qid, conn, subflow, kind, seq, size) = {
        let pkt = arena.get(r);
        let Some(qid) = pkt.next_queue() else {
            // Route-end is checked by the deliver/forward split in dispatch;
            // a packet here always has a next hop.
            panic!("enqueue past end of route");
        };
        (qid, pkt.conn, pkt.subflow, pkt.kind, pkt.seq, pkt.size)
    };
    let q = queues.get_mut(qid.index());
    match q.try_enqueue(r, now, rng) {
        Ok(()) => {
            tracer.emit(now, || TraceEvent::Enqueue {
                queue: qid.index() as u32,
                conn,
                subflow,
                kind: kind.into(),
                seq,
                size,
                qlen: q.len() as u32,
            });
            if !q.busy {
                // Idle queue: the packet just admitted *is* the head, so its
                // size (already snapshotted) prices the service time.
                q.busy = true;
                q.service_start = now;
                let st = q.config.service_time(size);
                events.schedule_after(st, NetEvent::Service(qid));
            }
        }
        Err(reason) => {
            tracer.emit(now, || TraceEvent::Drop {
                queue: qid.index() as u32,
                conn,
                subflow,
                kind: kind.into(),
                seq,
                reason,
            });
            arena.remove(r);
        }
    }
}

/// One endpoint slot: reserved, installed, or retired.
///
/// `Vacant` covers both "reserved, not yet installed" and "temporarily
/// detached while its own callback runs" — dispatching to either is a bug
/// and panics. `Retired` slots swallow stray events silently: a retired
/// connection's last stragglers (a late ACK, a lazily-drained heap entry)
/// are expected and must not abort a churn workload.
enum EndpointSlot {
    Vacant,
    Installed(Box<dyn Endpoint>),
    Retired,
}

/// The network simulation: queues, endpoints, and the event loop.
pub struct Simulation {
    queues: QueueTable,
    endpoints: Vec<EndpointSlot>,
    /// Retired endpoint ids available for reuse (LIFO), so sustained churn
    /// recycles slots instead of growing `endpoints` without bound.
    free_endpoints: Vec<u32>,
    events: NetQueue,
    arena: PacketArena,
    timers: TimerSlab<(EndpointId, u64)>,
    rng: SimRng,
    tracer: Tracer,
    events_processed: u64,
}

/// Occupancy counters of the event-loop internals, for the perf harness and
/// capacity-planning diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Most pending events the event queue ever held at once, counting every
    /// delay lane of either kind and both heaps: link, start and fault events
    /// and armed timers, cancelled ones included until they drain.
    pub peak_heap: usize,
    /// Most packets ever in flight (arena occupancy) at once.
    pub peak_arena: usize,
    /// Packets in flight right now (should be 0 at quiescence — anything
    /// else is a leak; see [`Simulation::check_packet_conservation`]).
    pub arena_live: usize,
    /// Total packets ever admitted to the arena.
    pub arena_inserts: u64,
    /// Timers currently armed.
    pub live_timers: usize,
    /// Most timers ever armed at once.
    pub peak_timers: usize,
    /// Cancelled timers whose dead heap entries were lazily drained.
    pub stale_timer_drains: u64,
}

impl Simulation {
    /// A fresh simulation with the given RNG seed (tracing disabled).
    pub fn new(seed: u64) -> Simulation {
        Simulation {
            queues: QueueTable::new(),
            endpoints: Vec::new(),
            free_endpoints: Vec::new(),
            events: EventQueue::new(),
            arena: PacketArena::new(),
            timers: TimerSlab::new(),
            rng: SimRng::seed_from_u64(seed),
            tracer: Tracer::disabled(),
            events_processed: 0,
        }
    }

    /// Pre-size the event queue's event heap, packet arena, timer slab, and
    /// this thread's route arena from the topology installed so far, so
    /// large runs don't grow them incrementally mid-loop. Topology builders
    /// call this once construction is complete; calling it is never
    /// required for correctness.
    pub fn preallocate(&mut self) {
        let endpoints = self.endpoints.len();
        // Right-sized from measurement (see BENCH_perf.json): the event
        // queue and packet arena grow to workload-dependent peaks during the
        // run regardless of what is reserved here, so big speculative
        // reserves only bloat setup memory — at k=16 the old
        // `endpoints*8 + queues*2` heuristic charged ~6 KB per connection
        // before the first packet moved, and its non-power-of-two base made
        // the heap's later growth doublings land ~1.8× past the actual
        // peak. Reserve the modest, predictable part: start events and a
        // little slack (power-of-two so doublings stay aligned) in the
        // queue's event heap, and two timer-slab slots per endpoint (the
        // measured k=8 peak is 512 live timers for 256 endpoints: one RTO
        // per subflow). In-flight link events live in the queue's event
        // lanes, and armed timers, cancelled ones included until they drain,
        // in its timer lanes (at k=8 the minimum-RTO lane peaks near 161k
        // entries of 16 bytes); both grow on demand.
        let ev = (endpoints / 4 + 64).next_power_of_two();
        self.events.reserve(ev);
        self.arena.reserve(endpoints / 4 + 64);
        self.timers.reserve(endpoints * 2 + 16);
        // Routes are interned per-thread: up to 4 subflows × 2 directions
        // per endpoint pair, ≤ 6 hops each (the FatTree cross-pod maximum:
        // host + edge→agg + agg→core + core→agg + agg→edge + host).
        crate::routes::reserve(endpoints * 4, endpoints * 4 * 6);
    }

    /// Attach (or replace) the tracer every layer of this simulation emits
    /// through. Pass `Tracer::disabled()` to turn tracing back off.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Events this simulation has dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Add a queue; returns its id for use in routes.
    pub fn add_queue(&mut self, config: QueueConfig) -> QueueId {
        QueueId(self.queues.push(config))
    }

    /// Reserve a contiguous block of `count` queues sharing `config`
    /// *without constructing them*; returns the first id of the block
    /// (ids are `first..first+count`, assigned arithmetically).
    ///
    /// Queues materialize on first mutable touch — a packet admitted, a
    /// fault applied, a rate changed. Construction is allocation-free and
    /// draws no randomness, so lazy and eager builds are behaviorally
    /// identical (byte-identical trace digests); shared accessors like
    /// [`queue_stats`](Self::queue_stats) report untouched queues as
    /// empty/default, which is what they are.
    pub fn reserve_queue_block(&mut self, count: usize, config: QueueConfig) -> QueueId {
        QueueId(self.queues.reserve_block(count, config))
    }

    /// Construct every reserved-but-unmaterialized queue now (the eager
    /// path: differential tests and before/after comparisons of the
    /// streamed topology build).
    pub fn materialize_queues(&mut self) {
        self.queues.flush();
    }

    /// Total queues, including reserved-but-unmaterialized ones.
    pub fn queue_count(&self) -> usize {
        self.queues.total()
    }

    /// Queues actually constructed so far (diagnostics: how lazy a
    /// streamed topology build stayed).
    pub fn queues_materialized(&self) -> usize {
        self.queues.materialized_count()
    }

    /// Add an endpoint; returns its id.
    pub fn add_endpoint(&mut self, ep: Box<dyn Endpoint>) -> EndpointId {
        let id = self.reserve_endpoint();
        self.install_endpoint(id, ep);
        id
    }

    /// Reserve an endpoint id without installing the endpoint yet.
    ///
    /// Needed when two endpoints reference each other (a source needs its
    /// sink's id and vice versa). Retired slots are recycled LIFO, so churn
    /// workloads reuse ids instead of growing the table without bound.
    pub fn reserve_endpoint(&mut self) -> EndpointId {
        if let Some(i) = self.free_endpoints.pop() {
            self.endpoints[i as usize] = EndpointSlot::Vacant;
            return EndpointId(i);
        }
        // simlint: allow(R5) setup-time capacity guard, runs before the event loop starts
        let id = EndpointId(u32::try_from(self.endpoints.len()).expect("too many endpoints"));
        self.endpoints.push(EndpointSlot::Vacant);
        id
    }

    /// Install an endpoint into a reserved slot.
    ///
    /// Panics if the slot is already occupied or retired.
    pub fn install_endpoint(&mut self, id: EndpointId, ep: Box<dyn Endpoint>) {
        let slot = &mut self.endpoints[id.index()];
        match slot {
            EndpointSlot::Vacant => *slot = EndpointSlot::Installed(ep),
            EndpointSlot::Installed(_) => panic!("endpoint {id} installed twice"),
            EndpointSlot::Retired => panic!("endpoint {id} is retired; reserve a fresh id"),
        }
    }

    /// Retire an endpoint: detach it (returned for final-stat harvesting)
    /// and mark its slot so stray events still addressed to it — a late
    /// ACK in flight, a cancelled timer's heap entry — are dropped
    /// silently instead of panicking. The id becomes reusable via
    /// [`reserve_endpoint`](Self::reserve_endpoint).
    ///
    /// Callers should retire only quiescent endpoints (completed flows past
    /// a grace period): a stray event addressed to a *reused* id is
    /// delivered to the new occupant.
    pub fn retire_endpoint(&mut self, id: EndpointId) -> Box<dyn Endpoint> {
        let slot = &mut self.endpoints[id.index()];
        match std::mem::replace(slot, EndpointSlot::Retired) {
            EndpointSlot::Installed(ep) => {
                self.free_endpoints.push(id.0);
                ep
            }
            EndpointSlot::Vacant => panic!("endpoint {id} not installed"),
            EndpointSlot::Retired => panic!("endpoint {id} retired twice"),
        }
    }

    /// Endpoints currently installed (excludes reserved/retired slots).
    pub fn live_endpoints(&self) -> usize {
        self.endpoints
            .iter()
            .filter(|s| matches!(s, EndpointSlot::Installed(_)))
            .count()
    }

    /// Capacity of the endpoint table (installed + reserved + retired):
    /// under churn with recycling this should plateau at the peak
    /// concurrent population, not grow with total flows started.
    pub fn endpoint_slots(&self) -> usize {
        self.endpoints.len()
    }

    /// Schedule an endpoint's `start` hook at the current simulation time.
    pub fn start_endpoint(&mut self, ep: EndpointId) {
        self.events.schedule(self.events.now(), NetEvent::Start(ep));
    }

    /// Schedule an endpoint's `start` hook at an absolute time.
    pub fn start_endpoint_at(&mut self, ep: EndpointId, at: SimTime) {
        self.events.schedule(at, NetEvent::Start(ep));
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Run the event loop until the clock would pass `until` (events at
    /// exactly `until` are processed) or no events remain. Either way the
    /// clock ends exactly at `until` (if it isn't already past it), so
    /// post-run bookkeeping — stat resets, goodput windows — anchors to the
    /// requested horizon and not to whenever the last event happened to
    /// fire.
    pub fn run_until(&mut self, until: SimTime) {
        let started_at = self.events.now();
        let mut dispatched: u64 = 0;
        while let Some((now, ev)) = self.events.pop_at_or_before(until) {
            self.dispatch(now, ev);
            dispatched += 1;
        }
        if self.events.now() < until {
            self.events.advance_to(until);
        }
        self.events_processed += dispatched;
        // Feed this thread's profiling tally (events/sec, sim/wall ratio)
        // — see `profile`.
        crate::profile::add(
            dispatched,
            self.events.now().saturating_since(started_at).as_nanos(),
        );
    }

    fn dispatch(&mut self, now: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::Service(qid) => {
                let qi = qid.index();
                // A service completion implies the queue was enqueued into,
                // so it is materialized; get_mut's branch never fires here.
                // Resolve the head once; its snapshot feeds the byte
                // counters, the (lazy) trace closure, and the hop advance.
                let Some(&head) = self.queues.get_mut(qi).buf.front() else {
                    panic!("service completion on empty queue");
                };
                let (conn, subflow, kind, seq, size) = {
                    let pkt = self.arena.get(head);
                    (pkt.conn, pkt.subflow, pkt.kind, pkt.seq, pkt.size)
                };
                let q = self.queues.get_mut(qi);
                let r = q.complete_service(size);
                debug_assert_eq!(r, head);
                self.tracer.emit(now, || TraceEvent::Dequeue {
                    queue: qid.index() as u32,
                    conn,
                    subflow,
                    kind: kind.into(),
                    seq,
                    size,
                    qlen: q.buf.len() as u32,
                });
                // Busy time accrues at completion (not when service was
                // scheduled) so it survives mid-run rate changes and is
                // clipped correctly by mid-service stat resets.
                q.stats.busy_ns += now.saturating_since(q.service_start).as_nanos();
                let latency = q.config.latency;
                let impair = q.impair;
                if let Some(&next) = q.buf.front() {
                    let st = q.config.service_time(self.arena.get(next).size);
                    q.service_start = now;
                    self.events.schedule_after(st, NetEvent::Service(qid));
                } else {
                    q.busy = false;
                }
                self.arena.get_mut(r).hop += 1;
                let mut delay = latency;
                if impair.reorder_p > 0.0 && self.rng.chance(impair.reorder_p) {
                    delay += impair.reorder_extra;
                }
                if impair.duplicate_p > 0.0 && self.rng.chance(impair.duplicate_p) {
                    // The duplicate takes the base latency, so a reordered
                    // original arrives after its own copy.
                    let copy = self.arena.get(r).clone();
                    let dup = self.arena.insert(copy);
                    self.events.schedule_after(latency, NetEvent::Arrival(dup));
                }
                self.events.schedule_after(delay, NetEvent::Arrival(r));
            }
            NetEvent::Arrival(r) => {
                if self.arena.get(r).at_destination() {
                    let pkt = self.arena.remove(r);
                    let dst = pkt.dst;
                    self.with_endpoint(dst, now, |ep, ctx| ep.on_packet(ctx, pkt));
                } else {
                    enqueue(
                        &mut self.queues,
                        &mut self.events,
                        &mut self.arena,
                        now,
                        &mut self.rng,
                        &self.tracer,
                        r,
                    );
                }
            }
            NetEvent::Start(id) => {
                self.with_endpoint(id, now, |ep, ctx| ep.start(ctx));
            }
            NetEvent::Timer(h) => {
                // A cancelled timer's dead heap entry drains here, without
                // dispatching — the endpoint only ever sees live timers.
                if let Some((ep, token)) = self.timers.claim(h) {
                    self.with_endpoint(ep, now, |e, ctx| e.on_timer(ctx, token));
                }
            }
            NetEvent::Fault(action) => self.apply_fault(now, *action),
        }
    }

    /// Apply one fault action immediately (also the executor for scheduled
    /// [`FaultPlan`] entries).
    fn apply_fault(&mut self, now: SimTime, action: FaultAction) {
        self.tracer.emit(now, || TraceEvent::Fault {
            queue: action.queue().index() as u32,
            action: action.label(),
        });
        match action {
            FaultAction::LinkDown(q) => self.set_queue_down(q, true),
            FaultAction::LinkUp(q) => self.set_queue_down(q, false),
            FaultAction::SetRate { queue, rate_bps } => self.set_queue_rate(queue, rate_bps),
            FaultAction::SetLatency { queue, latency } => self.set_queue_latency(queue, latency),
            FaultAction::LossBurst { queue, p, duration } => {
                assert!((0.0..=1.0).contains(&p), "loss probability out of range");
                let q = self.queues.get_mut(queue.index());
                q.impair.loss_p = p;
                q.impair.loss_until = now + duration;
            }
            FaultAction::SetDuplication { queue, p } => {
                assert!(
                    (0.0..=1.0).contains(&p),
                    "duplication probability out of range"
                );
                self.queues.get_mut(queue.index()).impair.duplicate_p = p;
            }
            FaultAction::SetReordering { queue, p, extra } => {
                assert!((0.0..=1.0).contains(&p), "reorder probability out of range");
                let q = self.queues.get_mut(queue.index());
                q.impair.reorder_p = p;
                q.impair.reorder_extra = extra;
            }
            FaultAction::ClearImpairments(queue) => {
                self.queues.get_mut(queue.index()).impair = crate::queue::Impairment::NONE;
            }
        }
    }

    /// Temporarily detach an endpoint so it can receive `&mut self` and a
    /// context borrowing the rest of the simulation. Events addressed to a
    /// retired slot are dropped silently (expected stragglers under churn).
    fn with_endpoint(
        &mut self,
        id: EndpointId,
        now: SimTime,
        f: impl FnOnce(&mut dyn Endpoint, &mut NetCtx<'_>),
    ) {
        let slot = &mut self.endpoints[id.index()];
        let mut ep = match std::mem::replace(slot, EndpointSlot::Vacant) {
            EndpointSlot::Installed(ep) => ep,
            EndpointSlot::Retired => {
                *slot = EndpointSlot::Retired;
                return;
            }
            EndpointSlot::Vacant => panic!("endpoint {id} reserved but never installed"),
        };
        {
            let mut ctx = NetCtx {
                me: id,
                now,
                queues: &mut self.queues,
                events: &mut self.events,
                arena: &mut self.arena,
                timers: &mut self.timers,
                rng: &mut self.rng,
                tracer: &self.tracer,
            };
            f(ep.as_mut(), &mut ctx);
        }
        self.endpoints[id.index()] = EndpointSlot::Installed(ep);
    }

    /// Counters for one queue (default — all zero — for a reserved queue
    /// nothing has touched yet).
    pub fn queue_stats(&self, q: QueueId) -> QueueStats {
        self.queues
            .get(q.index())
            .map_or_else(QueueStats::default, |q| q.stats)
    }

    /// Instantaneous length (packets) of one queue.
    pub fn queue_len(&self, q: QueueId) -> usize {
        self.queues.get(q.index()).map_or(0, Queue::len)
    }

    /// Administratively fail or restore a link: a down queue drops every
    /// arrival (failure injection for robustness experiments). Packets
    /// already buffered still drain.
    pub fn set_queue_down(&mut self, q: QueueId, down: bool) {
        self.queues.get_mut(q.index()).down = down;
    }

    /// Whether a queue is administratively down.
    pub fn queue_is_down(&self, q: QueueId) -> bool {
        self.queues.get(q.index()).is_some_and(|q| q.down)
    }

    /// Change a queue's service rate mid-run. Packets whose serialization
    /// already started finish at the old rate; everything after serializes
    /// at the new one. Drop-discipline parameters are not rescaled.
    pub fn set_queue_rate(&mut self, q: QueueId, rate_bps: f64) {
        assert!(rate_bps > 0.0, "rate must be positive");
        self.queues.get_mut(q.index()).config.rate_bps = rate_bps;
    }

    /// Change a queue's propagation latency mid-run. Applies to packets
    /// completing serialization from now on; packets already propagating
    /// keep their departure-time delay.
    pub fn set_queue_latency(&mut self, q: QueueId, latency: SimDuration) {
        self.queues.get_mut(q.index()).config.latency = latency;
    }

    /// Install a [`FaultPlan`]: every action is scheduled as an event inside
    /// the simulation loop (actions dated in the past fire immediately at
    /// the current time, in plan order).
    ///
    /// # Panics
    ///
    /// If [`FaultPlan::validate`] rejects the plan (overlapping down/up
    /// windows, out-of-domain parameters, zero-duration bursts).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        let now = self.events.now();
        for (t, action) in plan.into_sorted() {
            self.events
                .schedule(t.max(now), NetEvent::Fault(Box::new(action)));
        }
    }

    /// Apply one [`FaultAction`] right now, outside any plan.
    pub fn inject_fault(&mut self, action: FaultAction) {
        let now = self.events.now();
        self.apply_fault(now, action);
    }

    /// Reset the counters of every queue (discard warmup transients). The
    /// buffered packets themselves are untouched. A packet mid-serialization
    /// only contributes its post-reset share to `busy_ns`.
    pub fn reset_queue_stats(&mut self) {
        let now = self.events.now();
        // Unmaterialized queues already have default stats: skip them.
        for q in self.queues.iter_materialized_mut() {
            q.stats.reset();
            if q.busy {
                q.service_start = now;
            }
        }
    }

    /// Immutable access to an installed endpoint, downcast by the caller.
    ///
    /// Panics if the endpoint is currently detached (i.e. called from inside
    /// its own callback) or was never installed.
    pub fn endpoint(&self, id: EndpointId) -> &dyn Endpoint {
        match &self.endpoints[id.index()] {
            EndpointSlot::Installed(ep) => ep.as_ref(),
            _ => panic!("endpoint {id} not installed"),
        }
    }

    /// Mutable access to an installed endpoint.
    pub fn endpoint_mut(&mut self, id: EndpointId) -> &mut (dyn Endpoint + 'static) {
        match &mut self.endpoints[id.index()] {
            EndpointSlot::Installed(ep) => ep.as_mut(),
            _ => panic!("endpoint {id} not installed"),
        }
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Occupancy counters of the event-loop internals (heap high-water,
    /// arena occupancy, timer-slab state).
    pub fn loop_stats(&self) -> LoopStats {
        LoopStats {
            peak_heap: self.events.high_water(),
            peak_arena: self.arena.peak(),
            arena_live: self.arena.live(),
            arena_inserts: self.arena.inserts(),
            live_timers: self.timers.live(),
            peak_timers: self.timers.peak(),
            stale_timer_drains: self.timers.stale_drains(),
        }
    }

    /// Packet-conservation / arena-leak check.
    ///
    /// Two identities must hold at any instant the event loop is not
    /// mid-dispatch:
    ///
    /// 1. per queue, `arrived − dropped − forwarded` equals the buffered
    ///    count (every offered packet is dropped, buffered, or forwarded);
    /// 2. arena occupancy equals buffered packets + pending `Arrival`
    ///    events (every in-flight packet is either in a buffer or
    ///    propagating).
    ///
    /// Identity 1 is stated over [`QueueStats`] counters, so it only holds
    /// if stats were not reset while packets were buffered
    /// ([`reset_queue_stats`](Self::reset_queue_stats) keeps the buffer);
    /// identity 2 holds unconditionally. Tests and the perf harness call
    /// this at quiescence, where `arena_live == 0` additionally proves no
    /// slot leaked.
    pub fn check_packet_conservation(&self) -> Result<(), String> {
        let mut buffered = 0usize;
        // The materialized queues form a prefix of the id space; pending
        // ones were never touched and hold no packets or counters.
        for (i, q) in self.queues.iter_materialized().enumerate() {
            let s = q.stats;
            let expect = s
                .arrived
                .checked_sub(s.dropped + s.forwarded)
                .ok_or_else(|| format!("queue {i}: counters exceed arrivals: {s:?}"))?;
            if expect != q.buf.len() as u64 {
                return Err(format!(
                    "queue {i}: arrived - dropped - forwarded = {expect} but {} buffered",
                    q.buf.len()
                ));
            }
            buffered += q.buf.len();
        }
        let propagating = self
            .events
            .iter()
            .filter(|e| matches!(e, NetEvent::Arrival(_)))
            .count();
        let live = self.arena.live();
        if live != buffered + propagating {
            return Err(format!(
                "arena leak: {live} live packets vs {buffered} buffered + {propagating} propagating"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::routes::{route, Route};
    use eventsim::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// ACK arrivals as `(time, cumulative ack)`, shared with the test.
    type AckLog = Rc<RefCell<Vec<(SimTime, u64)>>>;

    /// Sends `n` data packets at start; records ACK arrival times.
    struct Src {
        dst: EndpointId,
        fwd: Route,
        n: u64,
        acks: AckLog,
    }
    /// Echoes every data packet as an ACK on the reverse route.
    struct Echo {
        rev: Route,
        received: Vec<u64>,
    }

    impl Endpoint for Src {
        fn start(&mut self, ctx: &mut NetCtx<'_>) {
            for i in 0..self.n {
                let mut p = Packet::data(ctx.me(), self.dst, 1, 0, i, 1500, self.fwd);
                p.ts_echo = ctx.now();
                ctx.send(p);
            }
        }
        fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
            assert_eq!(pkt.kind, PacketKind::Ack);
            self.acks.borrow_mut().push((ctx.now(), pkt.ack));
        }
        fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
    }

    impl Endpoint for Echo {
        fn start(&mut self, _: &mut NetCtx<'_>) {}
        fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
            self.received.push(pkt.seq);
            let ack = Packet::ack(
                ctx.me(),
                pkt.src,
                pkt.conn,
                pkt.subflow,
                pkt.seq,
                pkt.seq + 1,
                40,
                self.rev,
            );
            ctx.send(ack);
        }
        fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
    }

    fn echo_setup(n: u64, seed: u64) -> (Simulation, EndpointId, EndpointId, QueueId, QueueId) {
        echo_setup_logged(n, seed, AckLog::default())
    }

    /// [`echo_setup`], with the source's ACK arrivals recorded into `acks`.
    fn echo_setup_logged(
        n: u64,
        seed: u64,
        acks: AckLog,
    ) -> (Simulation, EndpointId, EndpointId, QueueId, QueueId) {
        let mut sim = Simulation::new(seed);
        // 10 Mb/s, 10 ms each way.
        let fwd_q = sim.add_queue(QueueConfig::drop_tail(
            10_000_000.0,
            SimDuration::from_millis(10),
            1000,
        ));
        let rev_q = sim.add_queue(QueueConfig::drop_tail(
            10_000_000.0,
            SimDuration::from_millis(10),
            1000,
        ));
        let src_id = sim.reserve_endpoint();
        let dst_id = sim.reserve_endpoint();
        sim.install_endpoint(
            src_id,
            Box::new(Src {
                dst: dst_id,
                fwd: route(&[fwd_q]),
                n,
                acks,
            }),
        );
        sim.install_endpoint(
            dst_id,
            Box::new(Echo {
                rev: route(&[rev_q]),
                received: Vec::new(),
            }),
        );
        sim.start_endpoint(src_id);
        (sim, src_id, dst_id, fwd_q, rev_q)
    }

    #[test]
    fn queue_entry_payloads_keep_their_sizes() {
        // The event heap's and event lanes' payload is a `NetEvent`, the
        // timer lanes' and timer heap's a bare handle; the memory figures in
        // BENCH_perf.json rest on both, and endpoints keep
        // `Option<TimerHandle>` fields at no extra cost.
        assert_eq!(std::mem::size_of::<NetEvent>(), 16);
        assert_eq!(std::mem::size_of::<TimerHandle>(), 8);
        assert_eq!(std::mem::size_of::<Option<TimerHandle>>(), 8);
    }

    #[test]
    fn echo_round_trip_timing() {
        let acks = AckLog::default();
        let (mut sim, _src, _dst, fwd, _rev) = echo_setup_logged(1, 1, acks.clone());
        sim.run_until(SimTime::from_secs_f64(1.0));
        let stats = sim.queue_stats(fwd);
        assert_eq!(stats.forwarded, 1);
        // RTT = data serialization (1.2 ms) + 10 ms + ack serialization
        // (0.032 ms) + 10 ms = 21.232 ms.
        assert_eq!(*acks.borrow(), vec![(SimTime::from_nanos(21_232_000), 1)]);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn pipeline_serialization_is_back_to_back() {
        // n packets through one queue: last forwarded at n * 1.2 ms, so total
        // busy time is exactly n * service_time.
        let (mut sim, _, _, fwd, _) = echo_setup(10, 1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let stats = sim.queue_stats(fwd);
        assert_eq!(stats.forwarded, 10);
        assert_eq!(stats.busy_ns, 10 * 1_200_000);
        assert_eq!(stats.forwarded_bytes, 15_000);
    }

    #[test]
    fn determinism_same_seed_same_everything() {
        let run = |seed| {
            let (mut sim, _, _, fwd, rev) = echo_setup(50, seed);
            sim.run_until(SimTime::from_secs_f64(2.0));
            (sim.queue_stats(fwd), sim.queue_stats(rev))
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let (mut sim, _, _, fwd, _) = echo_setup(10, 1);
        // Stop before even the first serialization completes.
        sim.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(sim.queue_stats(fwd).forwarded, 0);
        assert!(sim.pending_events() > 0);
        // Continue: everything drains.
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.queue_stats(fwd).forwarded, 10);
    }

    #[test]
    fn empty_route_packets_deliver_locally() {
        struct Sender {
            dst: EndpointId,
        }
        struct Sink {
            got: u64,
        }
        impl Endpoint for Sender {
            fn start(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.send(Packet::data(ctx.me(), self.dst, 0, 0, 0, 100, route(&[])));
            }
            fn on_packet(&mut self, _: &mut NetCtx<'_>, _: Packet) {}
            fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
        }
        impl Endpoint for Sink {
            fn start(&mut self, _: &mut NetCtx<'_>) {}
            fn on_packet(&mut self, _: &mut NetCtx<'_>, _: Packet) {
                self.got += 1;
            }
            fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
        }
        let mut sim = Simulation::new(0);
        let dst = sim.reserve_endpoint();
        let src = sim.add_endpoint(Box::new(Sender { dst }));
        sim.install_endpoint(dst, Box::new(Sink { got: 0 }));
        sim.start_endpoint(src);
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        struct TimerEp {
            fired: Rc<RefCell<Vec<(SimTime, u64)>>>,
        }
        impl Endpoint for TimerEp {
            fn start(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.schedule_in(SimDuration::from_millis(20), 2);
                ctx.schedule_in(SimDuration::from_millis(10), 1);
                ctx.schedule_in(SimDuration::from_millis(30), 3);
            }
            fn on_packet(&mut self, _: &mut NetCtx<'_>, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
                self.fired.borrow_mut().push((ctx.now(), token));
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(0);
        let ep = sim.add_endpoint(Box::new(TimerEp {
            fired: fired.clone(),
        }));
        sim.start_endpoint(ep);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
        assert_eq!(*fired.borrow(), vec![(ms(10), 1), (ms(20), 2), (ms(30), 3)]);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct CancelEp {
            fired: Rc<RefCell<Vec<u64>>>,
            pending: Option<eventsim::TimerHandle>,
        }
        impl Endpoint for CancelEp {
            fn start(&mut self, ctx: &mut NetCtx<'_>) {
                // Arm two; cancel the first from the second's callback — the
                // first is later, so the cancel lands while it is pending.
                self.pending = Some(ctx.schedule_in(SimDuration::from_millis(20), 1));
                ctx.schedule_in(SimDuration::from_millis(10), 2);
            }
            fn on_packet(&mut self, _: &mut NetCtx<'_>, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
                self.fired.borrow_mut().push(token);
                if let Some(h) = self.pending.take() {
                    assert!(ctx.cancel_timer(h), "timer 1 should still be live");
                    assert!(!ctx.cancel_timer(h), "double-cancel is a no-op");
                }
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(0);
        let ep = sim.add_endpoint(Box::new(CancelEp {
            fired: fired.clone(),
            pending: None,
        }));
        sim.start_endpoint(ep);
        sim.run_until(SimTime::from_secs_f64(1.0));
        // Token 1 was cancelled: its dead heap entry drained without a
        // callback, and the drain is counted.
        assert_eq!(*fired.borrow(), vec![2]);
        assert_eq!(sim.loop_stats().stale_timer_drains, 1);
        assert_eq!(sim.loop_stats().live_timers, 0);
    }

    #[test]
    fn conservation_holds_at_quiescence_and_catches_leaks() {
        let (mut sim, _, _, fwd, _) = echo_setup(20, 1);
        sim.run_until(SimTime::from_secs_f64(0.01));
        // Mid-run: buffered + propagating must still account for every
        // arena entry.
        sim.check_packet_conservation().unwrap();
        sim.run_until(SimTime::from_secs_f64(2.0));
        sim.check_packet_conservation().unwrap();
        let ls = sim.loop_stats();
        assert_eq!(ls.arena_live, 0, "all packets delivered or dropped");
        assert!(ls.peak_arena > 0 && ls.peak_heap > 0);
        assert_eq!(ls.arena_inserts, 40, "20 data + 20 ACKs");
        // Forge a leak: doctor the stats so the identity breaks.
        sim.queues.get_mut(fwd.index()).stats.arrived += 1;
        assert!(sim.check_packet_conservation().is_err());
    }

    #[test]
    fn dropped_packets_free_their_arena_slots() {
        let (mut sim, _, _, fwd, _) = echo_setup(5, 1);
        sim.set_queue_down(fwd, true);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.queue_stats(fwd).dropped, 5);
        sim.check_packet_conservation().unwrap();
        assert_eq!(sim.loop_stats().arena_live, 0);
    }

    #[test]
    fn preallocate_is_behavior_neutral() {
        let run = |prealloc: bool| {
            let (mut sim, _, _, fwd, rev) = echo_setup(50, 9);
            if prealloc {
                sim.preallocate();
            }
            sim.run_until(SimTime::from_secs_f64(2.0));
            (sim.queue_stats(fwd), sim.queue_stats(rev))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn queue_blocks_materialize_lazily_on_first_touch() {
        let cfg = QueueConfig::drop_tail(10_000_000.0, SimDuration::from_millis(10), 1000);
        let mut sim = Simulation::new(1);
        let base = sim.reserve_queue_block(3, cfg);
        assert_eq!(sim.queue_count(), 3);
        assert_eq!(sim.queues_materialized(), 0);
        let q1 = QueueId(base.0 + 1);
        // Shared accessors see untouched queues as empty/default without
        // materializing anything.
        assert_eq!(sim.queue_stats(q1), QueueStats::default());
        assert_eq!(sim.queue_len(q1), 0);
        assert!(!sim.queue_is_down(q1));
        assert_eq!(sim.queues_materialized(), 0);
        // First mutable touch materializes exactly the prefix 0..=1.
        sim.set_queue_down(q1, true);
        assert_eq!(sim.queues_materialized(), 2);
        assert!(sim.queue_is_down(q1));
        assert!(!sim.queue_is_down(base));
        // An eager add after a pending block flushes it (dense ids).
        let q3 = sim.add_queue(cfg);
        assert_eq!(q3.index(), 3);
        assert_eq!(sim.queues_materialized(), 4);
    }

    #[test]
    fn lazy_and_eager_queue_builds_behave_identically() {
        let run = |lazy: bool| {
            let cfg = QueueConfig::drop_tail(10_000_000.0, SimDuration::from_millis(10), 1000);
            let mut sim = Simulation::new(3);
            let (fwd, rev) = if lazy {
                let base = sim.reserve_queue_block(2, cfg);
                (base, QueueId(base.0 + 1))
            } else {
                (sim.add_queue(cfg), sim.add_queue(cfg))
            };
            let src_id = sim.reserve_endpoint();
            let dst_id = sim.reserve_endpoint();
            sim.install_endpoint(
                src_id,
                Box::new(Src {
                    dst: dst_id,
                    fwd: route(&[fwd]),
                    n: 25,
                    acks: AckLog::default(),
                }),
            );
            sim.install_endpoint(
                dst_id,
                Box::new(Echo {
                    rev: route(&[rev]),
                    received: Vec::new(),
                }),
            );
            sim.start_endpoint(src_id);
            sim.run_until(SimTime::from_secs_f64(2.0));
            (sim.queue_stats(fwd), sim.queue_stats(rev))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn retire_endpoint_recycles_ids_and_drops_stray_events() {
        let (mut sim, src, dst, fwd, _) = echo_setup(3, 1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.live_endpoints(), 2);
        let _harvested = sim.retire_endpoint(dst);
        assert_eq!(sim.live_endpoints(), 1);
        // Traffic still addressed to the retired sink is dropped silently
        // (and its arena slots are freed on delivery as usual).
        sim.start_endpoint(src);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sim.queue_stats(fwd).forwarded, 6);
        sim.check_packet_conservation().unwrap();
        assert_eq!(sim.loop_stats().arena_live, 0);
        // The id is recycled LIFO: the slot table does not grow.
        let slots = sim.endpoint_slots();
        let again = sim.reserve_endpoint();
        assert_eq!(again, dst);
        assert_eq!(sim.endpoint_slots(), slots);
    }

    #[test]
    #[should_panic(expected = "retired twice")]
    fn double_retire_panics() {
        let (mut sim, _, dst, _, _) = echo_setup(1, 1);
        let _ = sim.retire_endpoint(dst);
        let _ = sim.retire_endpoint(dst);
    }

    #[test]
    #[should_panic(expected = "never installed")]
    fn reserved_but_uninstalled_endpoint_panics_on_dispatch() {
        let mut sim = Simulation::new(0);
        let ep = sim.reserve_endpoint();
        sim.start_endpoint(ep);
        sim.run_until(SimTime::from_secs_f64(1.0));
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        struct Nop;
        impl Endpoint for Nop {
            fn start(&mut self, _: &mut NetCtx<'_>) {}
            fn on_packet(&mut self, _: &mut NetCtx<'_>, _: Packet) {}
            fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
        }
        let mut sim = Simulation::new(0);
        let ep = sim.add_endpoint(Box::new(Nop));
        sim.install_endpoint(ep, Box::new(Nop));
    }

    #[test]
    fn reset_queue_stats_clears_counters() {
        let (mut sim, _, _, fwd, _) = echo_setup(5, 1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert!(sim.queue_stats(fwd).forwarded > 0);
        sim.reset_queue_stats();
        assert_eq!(sim.queue_stats(fwd), QueueStats::default());
    }

    #[test]
    fn busy_time_survives_mid_run_rate_change() {
        // 10 packets at 10 Mb/s (1.2 ms each), then the link degrades to
        // 1 Mb/s (12 ms each) and 10 more go through: utilization math must
        // reflect the real serving time under both rates.
        let (mut sim, src, _, fwd, _) = echo_setup(10, 1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.queue_stats(fwd).busy_ns, 10 * 1_200_000);
        sim.inject_fault(FaultAction::SetRate {
            queue: fwd,
            rate_bps: 1_000_000.0,
        });
        // Re-drive the source by scheduling its start hook again.
        sim.start_endpoint(src);
        sim.run_until(SimTime::from_secs_f64(3.0));
        let stats = sim.queue_stats(fwd);
        assert_eq!(stats.forwarded, 20);
        assert_eq!(stats.busy_ns, 10 * 1_200_000 + 10 * 12_000_000);
    }

    #[test]
    fn reset_clips_in_flight_service_busy_time() {
        // Reset stats halfway through the first packet's 1.2 ms
        // serialization: only the remaining 0.6 ms may count as busy.
        let (mut sim, _, _, fwd, _) = echo_setup(1, 1);
        sim.run_until(SimTime::from_nanos(600_000));
        sim.reset_queue_stats();
        sim.run_until(SimTime::from_secs_f64(1.0));
        let stats = sim.queue_stats(fwd);
        assert_eq!(stats.forwarded, 1);
        assert_eq!(stats.busy_ns, 600_000);
    }

    #[test]
    fn fault_plan_downs_and_restores_on_schedule() {
        // Three bursts of traffic: before, during, and after a scheduled
        // outage of the forward link.
        let (mut sim, src, _, fwd, _) = echo_setup(5, 1);
        sim.install_fault_plan(FaultPlan::new().down_between(
            fwd,
            SimTime::from_secs_f64(1.0),
            SimTime::from_secs_f64(2.0),
        ));
        sim.run_until(SimTime::from_secs_f64(0.5));
        assert!(!sim.queue_is_down(fwd));
        assert_eq!(sim.queue_stats(fwd).forwarded, 5);
        // Mid-outage burst: all administratively dropped.
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert!(sim.queue_is_down(fwd));
        sim.start_endpoint(src);
        sim.run_until(SimTime::from_secs_f64(1.9));
        let mid = sim.queue_stats(fwd);
        assert_eq!(mid.forwarded, 5);
        assert_eq!(mid.dropped_down, 5);
        // Post-restore burst goes through.
        sim.run_until(SimTime::from_secs_f64(2.5));
        assert!(!sim.queue_is_down(fwd));
        sim.start_endpoint(src);
        sim.run_until(SimTime::from_secs_f64(3.5));
        let end = sim.queue_stats(fwd);
        assert_eq!(end.forwarded, 10);
        assert_eq!(end.dropped_down, 5);
    }

    #[test]
    fn duplication_impairment_delivers_copies() {
        let (mut sim, _, _, fwd, rev) = echo_setup(20, 1);
        sim.inject_fault(FaultAction::SetDuplication { queue: fwd, p: 1.0 });
        sim.run_until(SimTime::from_secs_f64(2.0));
        // Every data packet arrives twice, so the echo sink ACKs 40 times.
        assert_eq!(sim.queue_stats(fwd).forwarded, 20);
        assert_eq!(sim.queue_stats(rev).arrived, 40);
    }

    #[test]
    fn reordering_impairment_inverts_arrival_order() {
        // Two packets; the first is delayed by more than the second's
        // serialization+latency, so the sink sees them out of order.
        struct Sink {
            got: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl Endpoint for Sink {
            fn start(&mut self, _: &mut NetCtx<'_>) {}
            fn on_packet(&mut self, _: &mut NetCtx<'_>, pkt: Packet) {
                self.got.borrow_mut().push(pkt.seq);
            }
            fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
        }
        struct TwoShot {
            dst: EndpointId,
            fwd: Route,
        }
        impl Endpoint for TwoShot {
            fn start(&mut self, ctx: &mut NetCtx<'_>) {
                for i in 0..2 {
                    ctx.send(Packet::data(ctx.me(), self.dst, 0, 0, i, 1500, self.fwd));
                }
            }
            fn on_packet(&mut self, _: &mut NetCtx<'_>, _: Packet) {}
            fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
        }
        let mut sim = Simulation::new(5);
        let q = sim.add_queue(QueueConfig::drop_tail(
            10_000_000.0,
            SimDuration::from_millis(1),
            100,
        ));
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let dst = sim.reserve_endpoint();
        let src = sim.add_endpoint(Box::new(TwoShot {
            dst,
            fwd: route(&[q]),
        }));
        sim.install_endpoint(dst, Box::new(Sink { got: got.clone() }));
        // Delay *every* departure by 50 ms except: flip reordering off after
        // the first packet leaves, so only packet 0 is delayed.
        sim.inject_fault(FaultAction::SetReordering {
            queue: q,
            p: 1.0,
            extra: SimDuration::from_millis(50),
        });
        sim.start_endpoint(src);
        // First service completes at 1.2 ms; clear just after.
        sim.install_fault_plan(FaultPlan::new().at(
            SimTime::from_nanos(1_300_000),
            FaultAction::ClearImpairments(q),
        ));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(*got.borrow(), vec![1, 0]);
    }

    #[test]
    fn latency_change_applies_to_later_departures() {
        let (mut sim, src, _, fwd, _) = echo_setup(1, 1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        sim.inject_fault(FaultAction::SetLatency {
            queue: fwd,
            latency: SimDuration::from_millis(100),
        });
        sim.start_endpoint(src);
        let before = sim.now();
        sim.run_until(SimTime::from_secs_f64(2.0));
        // Everything drains; the new latency held (sanity: events done well
        // after serialization + 100 ms, not the old 10 ms).
        assert_eq!(sim.pending_events(), 0);
        assert!(sim.now() >= before + SimDuration::from_millis(100));
    }

    #[test]
    fn tracer_sees_enqueue_dequeue_and_fault_events() {
        use trace::{RingSink, Tracer};
        let (mut sim, _, _, fwd, _) = echo_setup(3, 1);
        let (tracer, ring) = Tracer::to_sink(RingSink::new(1024));
        sim.set_tracer(tracer);
        sim.inject_fault(FaultAction::SetDuplication { queue: fwd, p: 0.0 });
        sim.run_until(SimTime::from_secs_f64(1.0));
        let ring = ring.borrow();
        let mut enq = 0;
        let mut deq = 0;
        let mut fault = 0;
        for (_, ev) in ring.events() {
            match ev {
                trace::TraceEvent::Enqueue { .. } => enq += 1,
                trace::TraceEvent::Dequeue { .. } => deq += 1,
                trace::TraceEvent::Fault { queue, action } => {
                    assert_eq!(*queue, fwd.index() as u32);
                    assert_eq!(*action, "set_duplication");
                    fault += 1;
                }
                _ => {}
            }
        }
        // 3 data + 3 ACK packets, each enqueued and dequeued once.
        assert_eq!(enq, 6);
        assert_eq!(deq, 6);
        assert_eq!(fault, 1);
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn tracer_records_drop_reasons() {
        use trace::{DropReason, RingSink, Tracer};
        let (mut sim, _, _, fwd, _) = echo_setup(5, 1);
        let (tracer, ring) = Tracer::to_sink(RingSink::new(64));
        sim.set_tracer(tracer);
        sim.set_queue_down(fwd, true);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let ring = ring.borrow();
        let drops: Vec<_> = ring
            .events()
            .filter_map(|(_, ev)| match ev {
                trace::TraceEvent::Drop { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(drops.len(), 5);
        assert!(drops.iter().all(|r| *r == DropReason::AdminDown));
        assert_eq!(sim.queue_stats(fwd).dropped_down, 5);
    }

    #[test]
    fn fault_plan_determinism_with_impairments() {
        let run = |seed| {
            let (mut sim, _, _, fwd, rev) = echo_setup(50, seed);
            sim.install_fault_plan(
                FaultPlan::new()
                    .at(
                        SimTime::from_secs_f64(0.005),
                        FaultAction::LossBurst {
                            queue: fwd,
                            p: 0.5,
                            duration: SimDuration::from_millis(20),
                        },
                    )
                    .at(
                        SimTime::from_secs_f64(0.010),
                        FaultAction::SetDuplication { queue: fwd, p: 0.3 },
                    ),
            );
            sim.run_until(SimTime::from_secs_f64(2.0));
            (sim.queue_stats(fwd), sim.queue_stats(rev))
        };
        assert_eq!(run(7), run(7));
    }
}
