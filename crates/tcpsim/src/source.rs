//! The sending endpoint: windows, retransmission, and the coupled
//! congestion-control loop.

use std::collections::VecDeque;
use std::rc::Rc;

use eventsim::{SimDuration, TimerHandle};
use mpsim_core::{alpha_for, Algorithm, MultipathCc, PathView};
use netsim::{Endpoint, EndpointId, NetCtx, Packet, PacketKind, Route};
use trace::{CwndReason, SubflowState, TraceEvent};

use crate::rtt::{RtoBounds, RttEstimator};
use crate::stats::{intern_config, FlowHandle, PathHealth, TcpConfig};

/// The trace-layer label for a path-manager health state.
fn health_state(h: PathHealth) -> SubflowState {
    match h {
        PathHealth::Active => SubflowState::Active,
        PathHealth::PotentiallyFailed => SubflowState::PotentiallyFailed,
        PathHealth::Failed => SubflowState::Failed,
    }
}

/// Sentinel for [`Subflow::recover`]: not in fast recovery. A real recovery
/// point is a sequence number, which never reaches `u64::MAX`.
const NO_RECOVERY: u64 = u64::MAX;

/// Sentinel for [`TcpSource::remaining`] / [`TcpSource::size`]: an unlimited
/// bulk flow. A real flow size is a packet count far below `u64::MAX`.
const UNLIMITED: u64 = u64::MAX;

/// One subflow's transmission state.
#[derive(Debug)]
struct Subflow {
    fwd: Route,
    cwnd: f64,
    ssthresh: f64,
    /// NewReno loss-recovery state: [`NO_RECOVERY`] in normal operation
    /// (slow start or congestion avoidance); otherwise the highest sequence
    /// outstanding when the loss was detected — fast recovery ends when the
    /// cumulative ACK reaches it. A bare `u64` instead of an enum: the
    /// tag + padding would double the field across every subflow in the
    /// fabric.
    recover: u64,
    /// Next sequence number to send (rolled back to `cum_ack` on RTO for
    /// go-back-N retransmission).
    next_seq: u64,
    /// Highest sequence ever sent + 1; sequences below this are
    /// retransmissions and do not consume new data.
    max_sent: u64,
    /// All sequences below this are cumulatively ACKed.
    cum_ack: u64,
    dup_acks: u32,
    rtt: RttEstimator,
    /// RTO backoff exponent (reset on any advancing ACK).
    backoff: u32,
    /// Live RTO timer, if armed. Cancellation goes through the simulator's
    /// generational timer slab ([`NetCtx::cancel_timer`]); a cancelled timer
    /// never reaches `on_timer`, so there is no staleness version to check.
    rto_timer: Option<TimerHandle>,
    /// Live re-probe timer while `Failed` (cancelled when an advancing ACK
    /// restores the path).
    probe_timer: Option<TimerHandle>,
    /// ℓ₁: packets ACKed between the last two losses (§IV-B).
    ell1: f64,
    /// ℓ₂: packets ACKed since the last loss.
    ell2: f64,
    /// Whether this subflow is part of the established set. Pruned subflows
    /// (the §VII "discard bad paths" extension) neither send nor count in
    /// the coupling until their cooldown expires.
    active: bool,
    /// Path-manager classification (multipath connections only): consecutive
    /// RTOs degrade Active → PotentiallyFailed → Failed; any advancing ACK
    /// restores Active.
    health: PathHealth,
    /// Doublings applied to `TcpConfig::reprobe_initial` for the next
    /// re-probe while `Failed` (one per unanswered probe; the computed
    /// interval caps at `TcpConfig::reprobe_max`). A counter instead of the
    /// interval itself: one byte of padding versus a `SimDuration` field.
    reprobe_doublings: u8,
    /// MPTCP data-sequence mapping: subflow seq → connection-level DSN.
    /// See [`DsnWindow`].
    dsn: DsnWindow,
}

/// MPTCP data-sequence mappings for the in-flight window of one subflow.
///
/// Replaces the former per-sequence `BTreeMap`: mappings are created in
/// sequence order (new data is only ever sent at the high-water mark) and
/// released in sequence order (cumulative ACKs), so the live set is always
/// the contiguous window `[base, base + dsns.len())` and a ring buffer gives
/// O(1) lookups with no per-packet node allocation. Retransmissions index
/// into the window and reuse the original DSN, exactly as the map did.
#[derive(Debug, Default)]
struct DsnWindow {
    /// Lowest subflow sequence with a live mapping (== `cum_ack` after GC).
    base: u64,
    /// DSNs for sequences `base..base + dsns.len()`, in order.
    dsns: VecDeque<u64>,
}

impl DsnWindow {
    /// An empty window whose ring comes from the [`crate::pool`], so churned
    /// connections reuse retired predecessors' capacity instead of re-growing
    /// from zero.
    fn pooled() -> DsnWindow {
        DsnWindow {
            base: 0,
            dsns: crate::pool::take_dsn_ring(),
        }
    }

    /// The DSN for `seq`, assigning (and consuming) `next_dsn` if this is
    /// the first transmission of `seq`.
    fn map(&mut self, seq: u64, next_dsn: &mut u64) -> u64 {
        debug_assert!(seq >= self.base, "transmit below the ACKed window");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "an offset above the ACKed base is bounded by the data in flight, far below u32::MAX"
        )]
        let off = (seq - self.base) as usize;
        if off == self.dsns.len() {
            let d = *next_dsn;
            *next_dsn += 1;
            self.dsns.push_back(d);
            d
        } else {
            // Out-of-range (a transmit above the send window) is a bug and
            // panics via the index, same as a map lookup miss would.
            self.dsns[off]
        }
    }

    /// Release every mapping below the cumulative ACK `ack`.
    fn release_below(&mut self, ack: u64) {
        while self.base < ack {
            if self.dsns.pop_front().is_none() {
                // Window already empty (idle-probe ACK): jump the base.
                self.base = ack;
                return;
            }
            self.base += 1;
        }
    }
}

impl Subflow {
    fn inflight(&self) -> u64 {
        self.next_seq - self.cum_ack
    }

    /// The fast-recovery point, if this subflow is in recovery.
    fn recovery(&self) -> Option<u64> {
        (self.recover != NO_RECOVERY).then_some(self.recover)
    }

    /// ℓ_r = max(ℓ₁, ℓ₂).
    fn ell(&self) -> f64 {
        self.ell1.max(self.ell2)
    }

    /// Record a loss event for the ℓ counters.
    fn ell_loss(&mut self) {
        self.ell1 = self.ell2;
        self.ell2 = 0.0;
    }
}

/// The source half of a (MP)TCP connection: one or more subflows whose
/// congestion-avoidance increases are coupled through a `mpsim_core`
/// algorithm.
pub struct TcpSource {
    dst: EndpointId,
    conn: u64,
    /// Interned: thousands of connections share a handful of configs, so
    /// each source holds 8 bytes instead of an inline copy.
    cfg: Rc<TcpConfig>,
    /// RTO clamps pre-derived from the config (hot-path convenience).
    bounds: RtoBounds,
    cc: Box<dyn MultipathCc>,
    subflows: Vec<Subflow>,
    /// New data packets still to be sent ([`UNLIMITED`] = bulk transfer).
    remaining: u64,
    /// Total size in packets for completion detection ([`UNLIMITED`] = a
    /// long-lived flow that never completes).
    size: u64,
    total_acked: u64,
    /// Next connection-level data-sequence number to assign.
    next_dsn: u64,
    /// Reusable [`PathView`] buffer for the per-ACK congestion-control
    /// calls, so the hot path allocates nothing (see [`Self::refresh_views`]).
    scratch_views: Vec<PathView>,
    handle: FlowHandle,
}

/// RTO-expiry token for subflow `idx`.
///
/// With cancellable timer handles a timer that reaches `on_timer` is live by
/// construction — invalidated timers are cancelled at the source, not
/// filtered at the sink — so tokens no longer carry a staleness version.
/// The top two bits name the timer kind, the low bits the subflow.
fn timer_token(idx: usize) -> u64 {
    idx as u64
}

/// Token marking a prune-cooldown expiry for a subflow.
fn prune_token(idx: usize) -> u64 {
    (1 << 63) | idx as u64
}

fn is_prune_token(token: u64) -> bool {
    token >> 63 == 1
}

/// Token marking a re-probe of a failed subflow.
fn probe_token(idx: usize) -> u64 {
    (1 << 62) | idx as u64
}

fn is_probe_token(token: u64) -> bool {
    (token >> 62) & 0b11 == 0b01
}

/// Subflow `idx` as the packets' and trace events' `u16` subflow field.
#[expect(
    clippy::cast_possible_truncation,
    reason = "TcpSource::new bounds a connection's subflows to u16"
)]
fn wire_subflow(idx: usize) -> u16 {
    idx as u16
}

/// The subflow index carried in any token kind.
fn decode_idx(token: u64) -> usize {
    (token & !(0b11 << 62)) as usize
}

impl TcpSource {
    /// A source for `conn` sending to `dst` over the given per-subflow
    /// forward routes, using congestion controller `cc`.
    ///
    /// `size_packets = None` is a long-lived bulk flow; `Some(n)` sends `n`
    /// MSS-sized packets and records the completion time in the handle.
    pub fn new(
        dst: EndpointId,
        conn: u64,
        cfg: TcpConfig,
        cc: Box<dyn MultipathCc>,
        fwd_routes: Vec<Route>,
        size_packets: Option<u64>,
        handle: FlowHandle,
    ) -> TcpSource {
        assert!(!fwd_routes.is_empty(), "connection needs at least one path");
        assert!(
            fwd_routes.len() <= usize::from(u16::MAX),
            "a subflow index must fit the packets' u16 subflow field"
        );
        let cfg = intern_config(&cfg);
        let bounds = RtoBounds::new(cfg.min_rto, cfg.max_rto, cfg.initial_rto);
        let subflows = fwd_routes
            .into_iter()
            .map(|fwd| Subflow {
                fwd,
                cwnd: cfg.initial_cwnd,
                ssthresh: cfg.init_ssthresh,
                recover: NO_RECOVERY,
                next_seq: 0,
                max_sent: 0,
                cum_ack: 0,
                dup_acks: 0,
                rtt: RttEstimator::new(),
                backoff: 0,
                rto_timer: None,
                probe_timer: None,
                ell1: 0.0,
                ell2: 0.0,
                active: true,
                health: PathHealth::Active,
                reprobe_doublings: 0,
                dsn: DsnWindow::pooled(),
            })
            .collect();
        TcpSource {
            dst,
            conn,
            cfg,
            bounds,
            cc,
            subflows,
            remaining: size_packets.unwrap_or(UNLIMITED),
            size: size_packets.unwrap_or(UNLIMITED),
            total_acked: 0,
            next_dsn: 0,
            scratch_views: Vec::new(),
            handle,
        }
    }

    /// Snapshot the subflows for the congestion-control algorithm.
    fn path_views(&self) -> Vec<PathView> {
        self.subflows
            .iter()
            .map(|s| PathView {
                cwnd: s.cwnd,
                rtt: s.rtt.srtt_or(self.cfg.initial_rtt),
                ell: s.ell(),
                // Failed paths leave the established set: the coupling
                // (α weights, ∑w/rtt, |R_u|) must not see a dead path.
                established: s.active && s.health != PathHealth::Failed,
            })
            .collect()
    }

    /// Refresh `scratch_views` from the subflows: the allocation-free
    /// equivalent of [`Self::path_views`] for the per-ACK hot path (the
    /// buffer's capacity is reused across calls).
    fn refresh_views(&mut self) {
        let initial_rtt = self.cfg.initial_rtt;
        self.scratch_views.clear();
        self.scratch_views
            .extend(self.subflows.iter().map(|s| PathView {
                cwnd: s.cwnd,
                rtt: s.rtt.srtt_or(initial_rtt),
                ell: s.ell(),
                established: s.active && s.health != PathHealth::Failed,
            }));
    }

    /// Transmit one packet with sequence `seq` on subflow `idx`.
    ///
    /// First transmissions are assigned the next connection-level DSN;
    /// retransmissions reuse the mapping established the first time.
    fn transmit(&mut self, ctx: &mut NetCtx<'_>, idx: usize, seq: u64) {
        let next_dsn = &mut self.next_dsn;
        let sf = &mut self.subflows[idx];
        let dsn = sf.dsn.map(seq, next_dsn);
        let mut pkt = Packet::data(
            ctx.me(),
            self.dst,
            self.conn,
            wire_subflow(idx),
            seq,
            self.cfg.mss,
            sf.fwd,
        );
        pkt.dsn = dsn;
        pkt.ts_echo = ctx.now();
        ctx.send(pkt);
        self.ensure_timer(ctx, idx);
    }

    /// Send as much new data as the effective window allows on subflow `idx`.
    fn try_send(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        loop {
            let sf = &self.subflows[idx];
            if !sf.active || sf.health == PathHealth::Failed {
                return;
            }
            let inflation = if sf.recovery().is_some() {
                sf.dup_acks as f64
            } else {
                0.0
            };
            let eff = (sf.cwnd + inflation).min(self.cfg.rcv_wnd).floor();
            if (sf.inflight() as f64) >= eff {
                return;
            }
            let seq = sf.next_seq;
            // Only sends beyond the high-water mark consume new data;
            // go-back-N resends below `max_sent` are retransmissions.
            if seq >= sf.max_sent {
                // A PotentiallyFailed path may finish its retransmissions but
                // gets no new data until an ACK proves it alive again.
                if sf.health != PathHealth::Active {
                    return;
                }
                if self.remaining == 0 {
                    return;
                }
                if self.remaining != UNLIMITED {
                    self.remaining -= 1;
                }
            }
            let sf = &mut self.subflows[idx];
            sf.next_seq += 1;
            sf.max_sent = sf.max_sent.max(sf.next_seq);
            self.transmit(ctx, idx, seq);
        }
    }

    /// Arm the RTO timer if it is not already armed. Failed subflows are
    /// owned by the probe timer instead — probes must not re-arm the RTO.
    fn ensure_timer(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        let sf = &mut self.subflows[idx];
        if sf.rto_timer.is_some() || sf.health == PathHealth::Failed {
            return;
        }
        let rto = sf.rto_with_backoff(&self.bounds);
        sf.rto_timer = Some(ctx.schedule_in(rto, timer_token(idx)));
    }

    /// Cancel any outstanding RTO timer and re-arm if data is in flight.
    fn restart_timer(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        let sf = &mut self.subflows[idx];
        if let Some(h) = sf.rto_timer.take() {
            ctx.cancel_timer(h);
        }
        if sf.inflight() > 0 && sf.active && sf.health != PathHealth::Failed {
            let rto = sf.rto_with_backoff(&self.bounds);
            sf.rto_timer = Some(ctx.schedule_in(rto, timer_token(idx)));
        }
    }

    /// Apply the congestion-avoidance / slow-start increase for `newly`
    /// ACKed packets on subflow `idx`.
    fn apply_increase(&mut self, idx: usize, newly: u64) {
        for _ in 0..newly {
            let sf = &self.subflows[idx];
            if sf.cwnd < sf.ssthresh {
                // Slow start: +1 MSS per MSS ACKed.
                self.subflows[idx].cwnd += 1.0;
            } else {
                self.refresh_views();
                let inc = self.cc.on_ack(&self.scratch_views, idx);
                self.subflows[idx].cwnd += inc;
            }
            let sf = &mut self.subflows[idx];
            sf.cwnd = sf.cwnd.clamp(1.0, self.cfg.rcv_wnd);
        }
    }

    /// Window reduction shared by fast retransmit and RTO.
    fn reduce_on_loss(&mut self, idx: usize) -> f64 {
        self.refresh_views();
        // §IV-B: minimum ssthresh of 1 MSS with multiple established paths,
        // 2 MSS (as in regular TCP) for single-path flows. The subflow count
        // is fixed at construction, so this needs no stored field.
        let min_ssthresh = if self.subflows.len() > 1 { 1.0 } else { 2.0 };
        let new_cwnd = self.cc.on_loss(&self.scratch_views, idx).max(min_ssthresh);
        self.subflows[idx].ell_loss();
        new_cwnd
    }

    /// §VII extension: after a loss, drop a subflow from the established set
    /// when its inter-loss distance is a tiny fraction of the best
    /// subflow's. The subflow re-probes after the cooldown.
    fn maybe_prune(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        if !self.cfg.prune_paths {
            return;
        }
        let active = self.subflows.iter().filter(|s| s.active).count();
        if active <= 1 || !self.subflows[idx].active {
            return;
        }
        let views = self.path_views();
        let quality = |v: &PathView| v.ell / (v.rtt * v.rtt);
        let best = views
            .iter()
            .filter(|v| v.established)
            .map(quality)
            .fold(0.0_f64, f64::max);
        if best <= 0.0 || quality(&views[idx]) >= self.cfg.prune_quality_ratio * best {
            return;
        }
        let prev = self.subflows[idx].health;
        self.trace_state(ctx, idx, health_state(prev), SubflowState::Pruned);
        let sf = &mut self.subflows[idx];
        sf.active = false;
        if let Some(h) = sf.rto_timer.take() {
            ctx.cancel_timer(h);
        }
        if let Some(h) = sf.probe_timer.take() {
            ctx.cancel_timer(h);
        }
        ctx.schedule_in(self.cfg.prune_cooldown, prune_token(idx));
    }

    /// A pruned subflow's cooldown expired: rejoin the established set at
    /// the probing floor and send a probe.
    fn reactivate(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        let sf = &mut self.subflows[idx];
        if sf.active {
            return;
        }
        sf.active = true;
        sf.health = PathHealth::Active;
        sf.cwnd = 1.0;
        sf.recover = NO_RECOVERY;
        sf.dup_acks = 0;
        sf.backoff = 0;
        // Go-back-N from the hole: anything that was in flight at prune
        // time is long gone.
        sf.next_seq = sf.cum_ack;
        self.trace_state(ctx, idx, SubflowState::Pruned, SubflowState::Active);
        self.trace_cwnd(ctx, idx, CwndReason::Reactivate);
        self.try_send(ctx, idx);
        self.publish(ctx, idx);
    }

    /// Emit a cwnd-change trace event for subflow `idx`.
    fn trace_cwnd(&self, ctx: &NetCtx<'_>, idx: usize, reason: CwndReason) {
        let sf = &self.subflows[idx];
        let (cwnd, ssthresh) = (sf.cwnd, sf.ssthresh);
        let conn = self.conn;
        ctx.tracer().emit(ctx.now(), || TraceEvent::Cwnd {
            conn,
            subflow: wire_subflow(idx),
            cwnd,
            ssthresh,
            reason,
        });
    }

    /// Emit a subflow reclassification trace event.
    fn trace_state(&self, ctx: &NetCtx<'_>, idx: usize, from: SubflowState, to: SubflowState) {
        let conn = self.conn;
        ctx.tracer().emit(ctx.now(), || TraceEvent::SubflowState {
            conn,
            subflow: wire_subflow(idx),
            from,
            to,
        });
    }

    /// Push the current per-subflow observables into the shared handle.
    fn publish(&self, ctx: &NetCtx<'_>, idx: usize) {
        let sf = &self.subflows[idx];
        let trace = self.cfg.trace;
        let now = ctx.now();
        // α is OLIA's own term (Eq. 6); no other algorithm has one to trace.
        let traces_alpha =
            trace && self.subflows.len() > 1 && self.cc.name() == Algorithm::Olia.name();
        let alpha = traces_alpha.then(|| alpha_for(&self.path_views(), idx));
        self.handle.update(|s| {
            let st = &mut s.subflows[idx];
            st.cwnd = sf.cwnd;
            st.srtt = sf.rtt.srtt_or(0.0);
            st.health = sf.health;
            st.backoff = sf.backoff;
            if trace {
                let tr = st.traces_mut();
                tr.cwnd.push(now, sf.cwnd);
                if let Some(a) = alpha {
                    tr.alpha.push(now, a);
                }
            }
        });
    }

    fn handle_ack(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
        let idx = pkt.subflow as usize;
        let ack = pkt.ack;
        let cum = self.subflows[idx].cum_ack;

        if ack > cum {
            let newly = ack - cum;
            let mut was_failed = false;
            {
                let sf = &mut self.subflows[idx];
                sf.dsn.release_below(ack);
                sf.cum_ack = ack;
                // A stale retransmission can ACK past a go-back-N rollback
                // point; keep next_seq ≥ cum_ack so inflight() is well-defined.
                sf.next_seq = sf.next_seq.max(ack);
                sf.backoff = 0;
                // Any advancing ACK proves the path alive: restore it.
                if sf.health != PathHealth::Active {
                    was_failed = sf.health == PathHealth::Failed;
                    sf.health = PathHealth::Active;
                    if was_failed {
                        // A probe was answered: rejoin the established set at
                        // the probing floor and kill the pending probe timer.
                        sf.cwnd = 1.0;
                        sf.recover = NO_RECOVERY;
                        sf.dup_acks = 0;
                        sf.reprobe_doublings = 0;
                        if let Some(h) = sf.probe_timer.take() {
                            ctx.cancel_timer(h);
                        }
                    }
                }
                sf.ell2 += newly as f64;
                let sample = ctx.now().saturating_since(pkt.ts_echo);
                if sample > SimDuration::ZERO {
                    sf.rtt.sample(sample);
                    let conn = self.conn;
                    ctx.tracer().emit(ctx.now(), || TraceEvent::RttSample {
                        conn,
                        subflow: wire_subflow(idx),
                        rtt_ns: sample.as_nanos(),
                        srtt_ns: SimDuration::from_secs_f64(sf.rtt.srtt_or(0.0)).as_nanos(),
                    });
                }
            }
            if was_failed {
                let now = ctx.now();
                self.handle.update(|s| {
                    s.subflows[idx].last_recovered_at = Some(now);
                });
                self.trace_state(ctx, idx, SubflowState::Failed, SubflowState::Active);
                self.trace_cwnd(ctx, idx, CwndReason::Reactivate);
            }
            self.total_acked += newly;
            self.handle
                .update(|s| s.subflows[idx].acked_packets += newly);

            let mut partial_ack = false;
            match self.subflows[idx].recovery() {
                None => {
                    self.subflows[idx].dup_acks = 0;
                    self.apply_increase(idx, newly);
                    self.trace_cwnd(ctx, idx, CwndReason::Ack);
                }
                Some(recover) => {
                    if ack >= recover {
                        // Full ACK: leave recovery, deflate to ssthresh.
                        let sf = &mut self.subflows[idx];
                        sf.recover = NO_RECOVERY;
                        sf.dup_acks = 0;
                        sf.cwnd = sf.ssthresh.max(1.0);
                        self.trace_cwnd(ctx, idx, CwndReason::RecoveryExit);
                    } else {
                        // Partial ACK (NewReno): retransmit the next hole.
                        partial_ack = true;
                        self.transmit(ctx, idx, ack);
                    }
                }
            }

            if self.size != UNLIMITED
                && self.total_acked >= self.size
                && self.handle.read(|s| s.completed_at).is_none()
            {
                let now = ctx.now();
                self.handle.update(|s| s.completed_at = Some(now));
            }

            // Partial ACKs do not restart the timer: a recovery that drags on
            // (many holes) must eventually hit the RTO and fall back to
            // go-back-N slow start, as real stacks do under heavy loss.
            if !partial_ack {
                self.restart_timer(ctx, idx);
            }
        } else {
            // Duplicate ACK. On a Failed subflow it is a straggler from
            // before the outage — the probe schedule owns recovery, so do
            // not let it trigger a fast retransmit.
            if self.subflows[idx].health == PathHealth::Failed {
                return;
            }
            // The sink echoes the arriving segment's `seq`, so `seq < ack`
            // reports a duplicate of data it already holds (RFC 2883's
            // D-SACK), not a hole. Outside recovery such an ACK must not
            // count toward fast retransmit: go-back-N's resends would
            // otherwise start recoveries for losses that never happened.
            // Inside recovery it still inflates the window, since a segment
            // did leave the network (RFC 5681 §3.2).
            let duplicate_arrival = pkt.seq < ack;
            let sf = &mut self.subflows[idx];
            if !duplicate_arrival || sf.recovery().is_some() {
                sf.dup_acks += 1;
            }
            let dup = sf.dup_acks;
            match sf.recovery() {
                None if dup == self.cfg.dupack_threshold => {
                    // Fast retransmit + enter fast recovery.
                    let recover = sf.next_seq;
                    let new_cwnd = self.reduce_on_loss(idx);
                    let sf = &mut self.subflows[idx];
                    sf.ssthresh = new_cwnd;
                    sf.cwnd = new_cwnd;
                    sf.recover = recover;
                    self.handle.update(|s| s.subflows[idx].loss_events += 1);
                    let hole = self.subflows[idx].cum_ack;
                    let conn = self.conn;
                    ctx.tracer().emit(ctx.now(), || TraceEvent::FastRetransmit {
                        conn,
                        subflow: wire_subflow(idx),
                        seq: hole,
                    });
                    self.trace_cwnd(ctx, idx, CwndReason::FastRetransmit);
                    self.transmit(ctx, idx, hole);
                    self.maybe_prune(ctx, idx);
                }
                _ => {}
            }
        }

        self.publish(ctx, idx);
        self.try_send(ctx, idx);
    }

    fn handle_timeout(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        // The fired timer was already cleared from `rto_timer` by `on_timer`.
        if !self.subflows[idx].active || self.subflows[idx].inflight() == 0 {
            return;
        }
        // The interval that just expired was armed with the old backoff.
        let expired_rto = self.subflows[idx].rto_with_backoff(&self.bounds);
        let new_cwnd = self.reduce_on_loss(idx);
        {
            let sf = &mut self.subflows[idx];
            // A repeated expiry (backoff > 0) times out a segment the timer
            // already resent; ssthresh then holds (RFC 5681 §3.1) rather
            // than falling with the 1-MSS window to the floor.
            if sf.backoff == 0 {
                sf.ssthresh = new_cwnd;
            }
            sf.cwnd = 1.0;
            sf.recover = NO_RECOVERY;
            sf.dup_acks = 0;
            sf.backoff = (sf.backoff + 1).min(10);
            // Go-back-N: resend from the hole. The receiver's cumulative
            // ACKs skip over whatever it already buffered, so only genuinely
            // lost packets cost a full retransmission.
            sf.next_seq = sf.cum_ack;
        }
        self.handle.update(|s| {
            s.subflows[idx].loss_events += 1;
            s.subflows[idx].timeouts += 1;
        });
        let (conn, backoff) = (self.conn, self.subflows[idx].backoff);
        ctx.tracer().emit(ctx.now(), || TraceEvent::RtoFire {
            conn,
            subflow: wire_subflow(idx),
            backoff,
            rto_ns: expired_rto.as_nanos(),
        });
        self.trace_cwnd(ctx, idx, CwndReason::Rto);
        // Path manager (§VII, multipath only): consecutive RTOs degrade the
        // subflow's health. Single-path connections keep plain TCP semantics
        // — there is nowhere else to send, so they just keep backing off.
        if self.subflows.len() > 1 {
            let backoff = self.subflows[idx].backoff;
            if backoff >= self.cfg.fail_rto_threshold {
                self.enter_failed(ctx, idx);
                self.publish(ctx, idx);
                return;
            }
            if backoff >= self.cfg.pf_rto_threshold {
                let prev = self.subflows[idx].health;
                self.subflows[idx].health = PathHealth::PotentiallyFailed;
                self.handle
                    .update(|s| s.subflows[idx].health = PathHealth::PotentiallyFailed);
                if prev != PathHealth::PotentiallyFailed {
                    self.trace_state(
                        ctx,
                        idx,
                        health_state(prev),
                        SubflowState::PotentiallyFailed,
                    );
                }
            }
        }
        self.maybe_prune(ctx, idx);
        self.try_send(ctx, idx);
        self.publish(ctx, idx);
    }

    /// Declare subflow `idx` dead: leave the coupled established set, cancel
    /// the RTO, and start the capped-exponential re-probe schedule.
    fn enter_failed(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        let initial = self.cfg.reprobe_initial;
        let prev = self.subflows[idx].health;
        self.trace_state(ctx, idx, health_state(prev), SubflowState::Failed);
        let sf = &mut self.subflows[idx];
        sf.health = PathHealth::Failed;
        if let Some(h) = sf.rto_timer.take() {
            ctx.cancel_timer(h);
        }
        sf.reprobe_doublings = 0;
        debug_assert!(sf.probe_timer.is_none(), "probe armed on a live path");
        sf.probe_timer = Some(ctx.schedule_in(initial, probe_token(idx)));
        self.handle.update(|s| {
            s.subflows[idx].failures += 1;
            s.subflows[idx].health = PathHealth::Failed;
        });
    }

    /// A re-probe timer fired: retransmit one packet at the hole, then
    /// schedule the next probe with the interval doubled (capped at
    /// `TcpConfig::reprobe_max`). If the path is back, the probe's ACK
    /// advances `cum_ack` and the advancing-ACK path restores the subflow.
    fn handle_probe(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        let sf = &self.subflows[idx];
        if sf.health != PathHealth::Failed {
            // Defensive: restoration cancels the probe timer, so a live
            // probe firing on a healthy path should be impossible.
            return;
        }
        let probe_seq = sf.cum_ack;
        self.transmit(ctx, idx, probe_seq);
        let max = self.cfg.reprobe_max;
        let initial = self.cfg.reprobe_initial;
        let sf = &mut self.subflows[idx];
        // Equivalent to doubling a stored interval (capped): saturating
        // arithmetic keeps initial << n monotone, and min() re-applies the
        // cap every probe.
        sf.reprobe_doublings = sf.reprobe_doublings.saturating_add(1);
        let next_interval = initial
            .saturating_mul(
                1u64.checked_shl(u32::from(sf.reprobe_doublings))
                    .unwrap_or(u64::MAX),
            )
            .min(max);
        sf.probe_timer = Some(ctx.schedule_in(next_interval, probe_token(idx)));
        self.handle.update(|s| s.subflows[idx].reprobes += 1);
        let conn = self.conn;
        ctx.tracer().emit(ctx.now(), || TraceEvent::Probe {
            conn,
            subflow: wire_subflow(idx),
            seq: probe_seq,
            next_interval_ns: next_interval.as_nanos(),
        });
    }
}

impl Subflow {
    /// The RTO with exponential backoff applied: doubles per consecutive
    /// timeout (exponent saturating at 10) and clamps at the configured
    /// `max_rto`, as real stacks do.
    fn rto_with_backoff(&self, bounds: &RtoBounds) -> SimDuration {
        self.rtt
            .rto(bounds)
            .saturating_mul(1 << self.backoff.min(10))
            .min(bounds.max_rto())
    }
}

impl Endpoint for TcpSource {
    fn start(&mut self, ctx: &mut NetCtx<'_>) {
        let now = ctx.now();
        self.handle.update(|s| s.started_at = Some(now));
        for idx in 0..self.subflows.len() {
            self.try_send(ctx, idx);
            self.publish(ctx, idx);
        }
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
        debug_assert_eq!(pkt.kind, PacketKind::Ack, "source received non-ACK");
        debug_assert_eq!(pkt.conn, self.conn, "cross-connection packet at source");
        self.handle_ack(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        // Only live timers reach this point — cancelled handles are drained
        // inside the event loop — so dispatch is on the token kind alone.
        let idx = decode_idx(token);
        if is_prune_token(token) {
            self.reactivate(ctx, idx);
        } else if is_probe_token(token) {
            self.subflows[idx].probe_timer = None;
            self.handle_probe(ctx, idx);
        } else {
            self.subflows[idx].rto_timer = None;
            self.handle_timeout(ctx, idx);
        }
    }
}

impl Drop for TcpSource {
    fn drop(&mut self) {
        // Retiring (or otherwise dropping) the source returns its DSN rings
        // to the pool for the next connection. `take` leaves an unallocated
        // deque behind, so a pooled ring is never dropped with its owner.
        for sf in &mut self.subflows {
            crate::pool::give_dsn_ring(std::mem::take(&mut sf.dsn.dsns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ConnectionSpec, PathSpec};
    use eventsim::SimTime;
    use netsim::{route, QueueConfig, Simulation};

    fn test_subflow(backoff: u32) -> Subflow {
        Subflow {
            fwd: route(&[]),
            cwnd: 1.0,
            ssthresh: 2.0,
            recover: NO_RECOVERY,
            next_seq: 0,
            max_sent: 0,
            cum_ack: 0,
            dup_acks: 0,
            rtt: RttEstimator::new(),
            backoff,
            rto_timer: None,
            probe_timer: None,
            ell1: 0.0,
            ell2: 0.0,
            active: true,
            health: PathHealth::Active,
            reprobe_doublings: 0,
            dsn: DsnWindow::default(),
        }
    }

    #[test]
    fn rto_backoff_doubles_per_consecutive_timeout() {
        // Before any RTT sample the base RTO is `initial_rto` = 1 s.
        let bounds = RtoBounds::new(
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
            SimDuration::from_secs(1),
        );
        for k in 0..6u32 {
            let sf = test_subflow(k);
            assert_eq!(
                sf.rto_with_backoff(&bounds),
                SimDuration::from_secs(1).saturating_mul(1 << k),
                "backoff exponent {k}"
            );
        }
    }

    #[test]
    fn rto_backoff_clamps_at_max_rto() {
        // 2^10 × 1 s = 1024 s would blow far past max_rto = 60 s.
        let bounds = RtoBounds::new(
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
            SimDuration::from_secs(1),
        );
        let mut sf = test_subflow(10);
        assert_eq!(sf.rto_with_backoff(&bounds), SimDuration::from_secs(60));
        // The exponent itself saturates, so even absurd counters are safe.
        sf.backoff = 40;
        assert_eq!(sf.rto_with_backoff(&bounds), SimDuration::from_secs(60));
    }

    #[test]
    fn timer_tokens_roundtrip_and_flags_are_disjoint() {
        let rto = timer_token(5);
        assert_eq!(decode_idx(rto), 5);
        assert!(!is_prune_token(rto) && !is_probe_token(rto));

        let probe = probe_token(5);
        assert_eq!(decode_idx(probe), 5);
        assert!(is_probe_token(probe) && !is_prune_token(probe));

        let prune = prune_token(5);
        assert_eq!(decode_idx(prune), 5);
        assert!(is_prune_token(prune) && !is_probe_token(prune));
    }

    #[test]
    fn dsn_window_assigns_in_order_and_reuses_on_retransmit() {
        let mut w = DsnWindow::default();
        let mut next = 0u64;
        assert_eq!(w.map(0, &mut next), 0);
        assert_eq!(w.map(1, &mut next), 1);
        assert_eq!(w.map(2, &mut next), 2);
        assert_eq!(next, 3);
        // Retransmissions reuse the original mapping without consuming DSNs.
        assert_eq!(w.map(1, &mut next), 1);
        assert_eq!(w.map(0, &mut next), 0);
        assert_eq!(next, 3);
        // A cumulative ACK releases the prefix; the rest keeps its DSNs.
        w.release_below(2);
        assert_eq!(w.map(2, &mut next), 2);
        assert_eq!(w.map(3, &mut next), 3);
        // An ACK past the whole window (idle-probe case) jumps the base, and
        // the next transmit there starts a fresh mapping.
        w.release_below(10);
        assert_eq!(w.map(10, &mut next), 4);
    }

    #[test]
    fn backoff_resets_on_advancing_ack() {
        let mut sim = Simulation::new(7);
        let fwd = sim.add_queue(QueueConfig::drop_tail(
            10e6,
            SimDuration::from_millis(10),
            100,
        ));
        let rev = sim.add_queue(QueueConfig::drop_tail(
            10e6,
            SimDuration::from_millis(10),
            100,
        ));
        let conn = ConnectionSpec::new(Algorithm::Reno)
            .with_path(PathSpec::new(route(&[fwd]), route(&[rev])))
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        sim.run_until(SimTime::from_secs_f64(1.0));

        // An outage long enough for several consecutive RTOs. Single-path
        // flows never enter the path manager, so the backoff just stacks.
        sim.set_queue_down(fwd, true);
        sim.run_until(SimTime::from_secs_f64(6.0));
        let (timeouts, backoff) = conn
            .handle
            .read(|s| (s.subflows[0].timeouts, s.subflows[0].backoff));
        assert!(timeouts >= 2, "outage must trigger RTOs, got {timeouts}");
        assert!(
            backoff >= 2,
            "consecutive RTOs must stack backoff, got {backoff}"
        );

        // Restore: the next retransmission is ACKed, which must zero the
        // backoff again.
        sim.set_queue_down(fwd, false);
        conn.handle.reset(sim.now());
        sim.run_until(SimTime::from_secs_f64(30.0));
        assert!(conn.handle.subflow_mbps(0, sim.now()) > 1.0);
        assert_eq!(
            conn.handle.read(|s| s.subflows[0].backoff),
            0,
            "an advancing ACK must reset the RTO backoff"
        );
    }

    /// Answers the source's first data packet with a scripted run of
    /// `(seq, ack)` ACKs, and ignores the rest of its data.
    struct ScriptedReceiver {
        src: EndpointId,
        rev: Route,
        script: Vec<(u64, u64)>,
    }

    impl Endpoint for ScriptedReceiver {
        fn start(&mut self, _: &mut NetCtx<'_>) {}
        fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
            for (seq, ack) in std::mem::take(&mut self.script) {
                let mut a = Packet::ack(ctx.me(), self.src, 7, 0, seq, ack, 40, self.rev);
                a.ts_echo = pkt.ts_echo;
                ctx.send(a);
            }
        }
        fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
    }

    /// Run a Reno source against a [`ScriptedReceiver`] for 100 ms, well
    /// inside the first RTO; return its loss events and the sequence
    /// numbers of its fast retransmits.
    fn run_against_script(script: Vec<(u64, u64)>) -> (u32, Vec<u64>) {
        let mut sim = Simulation::new(0);
        let (tracer, ring) = trace::Tracer::to_sink(trace::RingSink::new(1 << 12));
        sim.set_tracer(tracer);
        let link = |sim: &mut Simulation| {
            sim.add_queue(QueueConfig::drop_tail(
                1e9,
                SimDuration::from_millis(1),
                1000,
            ))
        };
        let (fwd, rev) = (link(&mut sim), link(&mut sim));
        let src = sim.reserve_endpoint();
        let dst = sim.reserve_endpoint();
        let handle = FlowHandle::new(1500, 1);
        sim.install_endpoint(
            src,
            Box::new(TcpSource::new(
                dst,
                7,
                TcpConfig::default(),
                Algorithm::Reno.build(),
                vec![route(&[fwd])],
                None,
                handle.clone(),
            )),
        );
        sim.install_endpoint(
            dst,
            Box::new(ScriptedReceiver {
                src,
                rev: route(&[rev]),
                script,
            }),
        );
        sim.start_endpoint(src);
        sim.run_until(SimTime::from_secs_f64(0.1));
        let fast_retransmits = ring
            .borrow()
            .events()
            .filter_map(|(_, ev)| match ev {
                TraceEvent::FastRetransmit { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        (handle.read(|s| s.subflows[0].loss_events), fast_retransmits)
    }

    #[test]
    fn duplicate_arrivals_do_not_start_fast_retransmit() {
        // ACK 1 for segment 0, then three D-SACKs: segment 0 arrived three
        // more times. The sink holds it already, so nothing was lost.
        let (losses, frs) = run_against_script(vec![(0, 1), (0, 1), (0, 1), (0, 1)]);
        assert_eq!(losses, 0, "duplicate arrivals counted as a loss");
        assert!(frs.is_empty(), "fast retransmit on duplicates: {frs:?}");

        // The same ACK numbers echoing arrivals above a hole at 1 do report
        // a loss: exactly one fast retransmit, of the hole.
        let (losses, frs) = run_against_script(vec![(0, 1), (2, 1), (3, 1), (4, 1)]);
        assert_eq!(losses, 1);
        assert_eq!(frs, vec![1]);
    }

    #[test]
    fn ssthresh_holds_across_repeated_timeouts_of_one_segment() {
        let mut sim = Simulation::new(7);
        let (tracer, ring) = trace::Tracer::to_sink(trace::RingSink::new(usize::MAX >> 1));
        sim.set_tracer(tracer);
        let fwd = sim.add_queue(QueueConfig::drop_tail(
            10e6,
            SimDuration::from_millis(10),
            100,
        ));
        let rev = sim.add_queue(QueueConfig::drop_tail(
            10e6,
            SimDuration::from_millis(10),
            100,
        ));
        let conn = ConnectionSpec::new(Algorithm::Reno)
            .with_path(PathSpec::new(route(&[fwd]), route(&[rev])))
            .install(&mut sim, 0);
        sim.start_endpoint_at(conn.source, SimTime::ZERO);
        let outage = SimTime::from_secs_f64(1.0);
        sim.run_until(outage);
        sim.set_queue_down(fwd, true);
        sim.run_until(SimTime::from_secs_f64(6.0));

        // RFC 5681 §3.1: only the outage's first expiry sets ssthresh from
        // the window; later expiries of the resent segment keep it.
        let ring = ring.borrow();
        let rto_ssthresh: Vec<f64> = ring
            .events()
            .filter(|(t, _)| *t >= outage)
            .filter_map(|(_, ev)| match ev {
                TraceEvent::Cwnd {
                    ssthresh,
                    reason: CwndReason::Rto,
                    ..
                } => Some(ssthresh),
                _ => None,
            })
            .collect();
        assert!(
            rto_ssthresh.len() >= 2,
            "outage must trigger repeated RTOs, got {}",
            rto_ssthresh.len()
        );
        let first = rto_ssthresh[0];
        assert!(first > 2.0, "first RTO set ssthresh at the floor: {first}");
        assert!(
            rto_ssthresh.iter().all(|&s| s == first),
            "ssthresh fell across repeated timeouts: {rto_ssthresh:?}"
        );
    }
}

#[cfg(test)]
mod size_regression {
    /// Per-subflow and per-connection state is replicated across every host
    /// in the fabric; these bounds lock in the FatTree-scale layout work
    /// (recover sentinel, NaN srtt, interned config, derived RTO bounds).
    #[test]
    fn sender_state_stays_lean() {
        assert!(std::mem::size_of::<super::Subflow>() <= 160);
        assert!(std::mem::size_of::<super::DsnWindow>() <= 40);
        assert!(std::mem::size_of::<super::TcpSource>() <= 152);
    }
}
