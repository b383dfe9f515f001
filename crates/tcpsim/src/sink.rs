//! The receiving endpoint: per-subflow in-order delivery and cumulative ACKs.

use std::collections::VecDeque;

use netsim::{Endpoint, EndpointId, NetCtx, Packet, PacketKind, Route};

use crate::stats::FlowHandle;

/// A set of sequence numbers buffered above a moving in-order point.
///
/// Replaces the former `BTreeSet<u64>`: reassembly only ever inserts above
/// the cumulative point, queries near it, and drains a contiguous run at the
/// front, so a sliding bitmap over `[base, base + bits.len())` does the job
/// in O(1) per operation with zero steady-state allocation. This matters: in
/// a multipath run the connection-level reorder buffer is touched by nearly
/// every arriving packet (DSN arrival order never matches data-sequence
/// order across subflows), and BTree node churn was the simulator's largest
/// remaining allocation source.
#[derive(Debug, Default)]
struct ReorderWindow {
    /// Sequence number of `bits[0]`. Never above the owner's in-order point.
    base: u64,
    /// Membership bits for `base..base + bits.len()`.
    bits: VecDeque<bool>,
    /// Number of set bits (the reorder-buffer occupancy). `u32`: a reorder
    /// buffer anywhere near 2³² packets would mean gigabytes of buffered
    /// data on one subflow.
    count: u32,
}

impl ReorderWindow {
    /// An empty window whose bitmap ring comes from the [`crate::pool`], so
    /// churned connections reuse retired predecessors' capacity.
    fn pooled() -> ReorderWindow {
        ReorderWindow {
            base: 0,
            bits: crate::pool::take_bitmap_ring(),
            count: 0,
        }
    }

    /// The in-order point: every value below it has been delivered. This is
    /// exactly the window base — [`drain_from`](Self::drain_from) re-syncs
    /// the base to the point it returns, and nothing else moves it — so the
    /// owner does not carry a separate `expected` field per window.
    fn expected(&self) -> u64 {
        self.base
    }

    /// Whether `v` is buffered.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an offset above the window base is bounded by the data in flight, far below u32::MAX"
    )]
    fn contains(&self, v: u64) -> bool {
        v >= self.base
            && ((v - self.base) as usize) < self.bits.len()
            && self.bits[(v - self.base) as usize]
    }

    /// Buffer `v` (idempotent). `v` must be at or above the window base.
    fn insert(&mut self, v: u64) {
        debug_assert!(v >= self.base, "insert below the reorder window");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "an offset above the window base is bounded by the data in flight, far below u32::MAX"
        )]
        let off = (v - self.base) as usize;
        if off >= self.bits.len() {
            self.bits.resize(off + 1, false);
        }
        if !self.bits[off] {
            self.bits[off] = true;
            self.count += 1;
        }
    }

    /// The in-order point advanced to `point`: drain the contiguous run of
    /// buffered values starting there and return the new in-order point.
    /// Everything below it is released (the bitmap slides forward).
    fn drain_from(&mut self, mut point: u64) -> u64 {
        while self.base < point {
            match self.bits.pop_front() {
                Some(b) => {
                    debug_assert!(!b, "delivered value still buffered");
                    self.base += 1;
                }
                None => {
                    self.base = point;
                }
            }
        }
        while self.bits.front() == Some(&true) {
            self.bits.pop_front();
            self.base += 1;
            self.count -= 1;
            point += 1;
        }
        point
    }

    /// Number of buffered values.
    fn len(&self) -> usize {
        self.count as usize
    }
}

/// Per-subflow receiver state. The next expected sequence number (everything
/// below it is delivered) is `buffered.expected()` — the reorder window's
/// base doubles as the subflow's in-order point.
#[derive(Debug)]
struct SinkSubflow {
    /// Reverse route for ACKs.
    rev: Route,
    /// Out-of-order packets held for reassembly.
    buffered: ReorderWindow,
    /// In-order packets received since the last ACK (delayed ACKs).
    unacked: u32,
}

/// The sink half of a (MP)TCP connection.
///
/// Delivers each subflow's packets in order, counts unique deliveries into
/// the shared [`FlowHandle`] (receiver goodput — what Iperf reports), and
/// returns one cumulative ACK per arriving data packet, echoing the
/// packet's timestamp for the sender's RTT estimator.
pub struct TcpSink {
    source: EndpointId,
    conn: u64,
    ack_size: u32,
    ack_every: u32,
    subflows: Vec<SinkSubflow>,
    /// Connection-level (DSN) reassembly: the MPTCP reorder buffer. Its
    /// `expected()` is the next DSN the application reads.
    app_buffered: ReorderWindow,
    handle: FlowHandle,
}

impl TcpSink {
    /// A sink for `conn`, ACKing towards `source` over the given per-subflow
    /// reverse routes.
    pub fn new(
        source: EndpointId,
        conn: u64,
        ack_size: u32,
        rev_routes: Vec<Route>,
        handle: FlowHandle,
    ) -> TcpSink {
        TcpSink::with_delayed_acks(source, conn, ack_size, 1, rev_routes, handle)
    }

    /// A sink that ACKs every `ack_every`-th in-order packet (delayed ACKs).
    ///
    /// No delayed-ACK timer is modeled: if the sender stalls below
    /// `ack_every` packets in flight, its RTO (and the immediate ACK on the
    /// retransmitted duplicate) recovers the connection — costlier than a
    /// real stack's 40–200 ms delayed-ACK timer but safe.
    pub fn with_delayed_acks(
        source: EndpointId,
        conn: u64,
        ack_size: u32,
        ack_every: u32,
        rev_routes: Vec<Route>,
        handle: FlowHandle,
    ) -> TcpSink {
        assert!(ack_every >= 1, "ack_every must be at least 1");
        TcpSink {
            source,
            conn,
            ack_size,
            ack_every,
            app_buffered: ReorderWindow::pooled(),
            subflows: rev_routes
                .into_iter()
                .map(|rev| SinkSubflow {
                    rev,
                    buffered: ReorderWindow::pooled(),
                    unacked: 0,
                })
                .collect(),
            handle,
        }
    }
}

impl Drop for TcpSink {
    fn drop(&mut self) {
        // Return the reorder bitmaps to the pool when the sink is retired.
        crate::pool::give_bitmap_ring(std::mem::take(&mut self.app_buffered.bits));
        for sf in &mut self.subflows {
            crate::pool::give_bitmap_ring(std::mem::take(&mut sf.buffered.bits));
        }
    }
}

impl Endpoint for TcpSink {
    fn start(&mut self, _: &mut NetCtx<'_>) {}

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
        debug_assert_eq!(
            pkt.kind,
            PacketKind::Data,
            "sink received a non-data packet"
        );
        debug_assert_eq!(pkt.conn, self.conn, "cross-connection packet at sink");
        let idx = pkt.subflow as usize;
        let sf = &mut self.subflows[idx];

        let before = sf.buffered.expected();
        if pkt.seq == before {
            sf.buffered.drain_from(before + 1);
        } else if pkt.seq > before {
            sf.buffered.insert(pkt.seq);
        }
        // else: duplicate of already-delivered data; re-ACK below.

        let expected = sf.buffered.expected();
        let advanced = expected - before;
        if advanced > 0 {
            self.handle.update(|s| s.delivered_packets += advanced);
            let (conn, total) = (self.conn, expected);
            ctx.tracer().emit(ctx.now(), || trace::TraceEvent::Deliver {
                conn,
                subflow: pkt.subflow,
                newly: advanced,
                total,
            });
        }

        // Connection-level (DSN) reassembly: the application reads in data-
        // sequence order across subflows; a straggling subflow head-of-line
        // blocks it (what a real MPTCP receive buffer experiences).
        let app_expected = self.app_buffered.expected();
        if pkt.dsn >= app_expected && !self.app_buffered.contains(pkt.dsn) {
            if pkt.dsn == app_expected {
                self.app_buffered.drain_from(app_expected + 1);
            } else {
                self.app_buffered.insert(pkt.dsn);
            }
            let (app, buffered) = (self.app_buffered.expected(), self.app_buffered.len() as u64);
            self.handle.update(|s| {
                s.app_delivered_packets = app;
                s.max_reorder_buffer = s.max_reorder_buffer.max(buffered);
            });
        }

        // Delayed ACKs: suppress the ACK for in-order arrivals until
        // `ack_every` of them accumulate. Out-of-order or duplicate data is
        // ACKed immediately so the sender sees dupACKs promptly (RFC 5681).
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one arrival drains at most the reorder window, bounded by the data in flight"
        )]
        if advanced > 0 {
            sf.unacked += advanced as u32;
            if sf.unacked < self.ack_every {
                return;
            }
            sf.unacked = 0;
        }

        let mut ack = Packet::ack(
            ctx.me(),
            self.source,
            self.conn,
            pkt.subflow,
            pkt.seq,
            expected,
            self.ack_size,
            sf.rev,
        );
        ack.ts_echo = pkt.ts_echo;
        ctx.send(ack);
    }

    fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::{SimDuration, SimTime};
    use netsim::{route, QueueConfig, Simulation};

    /// Injects a scripted sequence of data packets toward the sink and
    /// records the ACKs that come back.
    struct Injector {
        dst: EndpointId,
        fwd: Route,
        script: Vec<u64>,
        acks: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    }

    impl Endpoint for Injector {
        fn start(&mut self, ctx: &mut NetCtx<'_>) {
            for &seq in &self.script {
                let mut p = Packet::data(ctx.me(), self.dst, 7, 0, seq, 1500, self.fwd);
                p.ts_echo = ctx.now();
                ctx.send(p);
            }
        }
        fn on_packet(&mut self, _: &mut NetCtx<'_>, pkt: Packet) {
            assert_eq!(pkt.kind, PacketKind::Ack);
            self.acks.borrow_mut().push(pkt.ack);
        }
        fn on_timer(&mut self, _: &mut NetCtx<'_>, _: u64) {}
    }

    fn run_script_delayed(script: Vec<u64>, ack_every: u32) -> (Vec<u64>, u64) {
        run_script_inner(script, ack_every)
    }

    fn run_script(script: Vec<u64>) -> (Vec<u64>, u64) {
        run_script_inner(script, 1)
    }

    fn run_script_inner(script: Vec<u64>, ack_every: u32) -> (Vec<u64>, u64) {
        let mut sim = Simulation::new(0);
        let fwd = sim.add_queue(QueueConfig::drop_tail(
            1e9,
            SimDuration::from_millis(1),
            1000,
        ));
        let rev = sim.add_queue(QueueConfig::drop_tail(
            1e9,
            SimDuration::from_millis(1),
            1000,
        ));
        let src = sim.reserve_endpoint();
        let dst = sim.reserve_endpoint();
        let handle = FlowHandle::new(1500, 1);
        let acks = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        sim.install_endpoint(
            src,
            Box::new(Injector {
                dst,
                fwd: route(&[fwd]),
                script,
                acks: acks.clone(),
            }),
        );
        sim.install_endpoint(
            dst,
            Box::new(TcpSink::with_delayed_acks(
                src,
                7,
                40,
                ack_every,
                vec![route(&[rev])],
                handle.clone(),
            )),
        );
        sim.start_endpoint(src);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let delivered = handle.read(|s| s.delivered_packets);
        let acks = acks.borrow().clone();
        (acks, delivered)
    }

    #[test]
    fn reorder_window_matches_set_semantics() {
        let mut w = ReorderWindow::default();
        assert_eq!(w.len(), 0);
        w.insert(3);
        w.insert(5);
        w.insert(3); // idempotent
        assert_eq!(w.len(), 2);
        assert!(w.contains(3) && w.contains(5));
        assert!(!w.contains(0) && !w.contains(4) && !w.contains(6));
        // In-order point reaches 2: nothing contiguous at 2, window slides.
        assert_eq!(w.drain_from(2), 2);
        assert!(w.contains(3));
        // Point reaches 3: 3 drains, 4 is a hole, 5 stays buffered.
        assert_eq!(w.drain_from(3), 4);
        assert_eq!(w.len(), 1);
        assert!(!w.contains(3) && w.contains(5));
        // Hole filled: 4 then the buffered 5 drain together.
        assert_eq!(w.drain_from(5), 6);
        assert_eq!(w.len(), 0);
        // Draining past an empty window just slides the base.
        assert_eq!(w.drain_from(100), 100);
        w.insert(101);
        assert!(w.contains(101) && !w.contains(100));
    }

    #[test]
    fn in_order_delivery_acks_advance() {
        let (acks, delivered) = run_script(vec![0, 1, 2, 3]);
        assert_eq!(acks, vec![1, 2, 3, 4]);
        assert_eq!(delivered, 4);
    }

    #[test]
    fn gap_generates_duplicate_acks_then_jump() {
        // Packet 1 lost (never sent): 0, 2, 3 produce acks 1, 1, 1; then the
        // "retransmission" of 1 lets the cumulative ack jump to 4.
        let (acks, delivered) = run_script(vec![0, 2, 3, 1]);
        assert_eq!(acks, vec![1, 1, 1, 4]);
        assert_eq!(delivered, 4);
    }

    #[test]
    fn duplicate_data_reacked_not_recounted() {
        let (acks, delivered) = run_script(vec![0, 0, 1, 1]);
        assert_eq!(acks, vec![1, 1, 2, 2]);
        assert_eq!(delivered, 2);
    }

    #[test]
    fn interleaved_reordering() {
        let (acks, delivered) = run_script(vec![1, 0, 3, 2, 5, 4]);
        assert_eq!(acks, vec![0, 2, 2, 4, 4, 6]);
        assert_eq!(delivered, 6);
    }

    #[test]
    fn delayed_acks_halve_ack_count() {
        let (acks, delivered) = run_script_delayed(vec![0, 1, 2, 3], 2);
        assert_eq!(acks, vec![2, 4], "every second in-order packet ACKed");
        assert_eq!(delivered, 4);
    }

    #[test]
    fn delayed_acks_still_dupack_immediately() {
        // Gap at 1: packet 0 ACKed lazily... then out-of-order 2 and 3 must
        // produce immediate (duplicate) ACKs so fast retransmit still works.
        let (acks, delivered) = run_script_delayed(vec![0, 2, 3, 1], 2);
        // 0 arrives in-order (suppressed, 1 < 2 unacked); 2 and 3 are OOO →
        // immediate dupACKs of 1; then 1 fills the hole advancing by 3 ≥ 2 →
        // cumulative ACK 4.
        assert_eq!(acks, vec![1, 1, 4]);
        assert_eq!(delivered, 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ack_every_rejected() {
        let mut sim = Simulation::new(0);
        let ep = sim.reserve_endpoint();
        TcpSink::with_delayed_acks(ep, 0, 40, 0, vec![], FlowHandle::new(1500, 0));
    }
}

#[cfg(test)]
mod size_regression {
    /// Receiver state is per-subflow per-connection; the in-order point
    /// lives inside the reorder window (no duplicate `expected` fields).
    #[test]
    fn receiver_state_stays_lean() {
        assert!(std::mem::size_of::<super::SinkSubflow>() <= 64);
        assert!(std::mem::size_of::<super::ReorderWindow>() <= 48);
        assert!(std::mem::size_of::<super::TcpSink>() <= 104);
    }
}
