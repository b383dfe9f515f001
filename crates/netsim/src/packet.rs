//! Packets.
//!
//! Routes moved to [`crate::routes`]: a [`Route`] is now an 8-byte interned
//! handle, so a `Packet` is plain-old-data — no refcount traffic on the
//! per-packet clone in the duplication impairment or anywhere else.

use eventsim::SimTime;

use crate::ids::{EndpointId, QueueId};
use crate::routes::Route;

/// What a packet is, as far as the network is concerned.
///
/// The transport semantics (sequence spaces, SACK-less cumulative ACKs) live
/// in `tcpsim`; the network only needs the wire size and where to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment.
    Data,
    /// A (cumulative) acknowledgment.
    Ack,
}

impl From<PacketKind> for trace::PacketKindLabel {
    fn from(kind: PacketKind) -> trace::PacketKindLabel {
        match kind {
            PacketKind::Data => trace::PacketKindLabel::Data,
            PacketKind::Ack => trace::PacketKindLabel::Ack,
        }
    }
}

/// A simulated packet.
///
/// `conn`/`subflow` identify the transport connection and subflow so the
/// receiving endpoint can demultiplex; `seq`/`ack` are transport sequence
/// numbers in *packet* units (each data packet carries one MSS, as in htsim).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source endpoint (where ACKs or replies would go).
    pub src: EndpointId,
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Opaque connection tag assigned by the transport.
    pub conn: u64,
    /// Subflow index within the connection.
    pub subflow: u16,
    /// Data or ACK.
    pub kind: PacketKind,
    /// Sequence number (data: this packet's number; ack: echoed trigger).
    pub seq: u64,
    /// Data-sequence number: the packet's position in the *connection-level*
    /// byte stream (MPTCP's DSN, in packet units). Lets the receiver
    /// reassemble across subflows. 0 for ACKs and single-path flows that
    /// don't set it.
    pub dsn: u64,
    /// Cumulative ACK number (meaningful for `Ack`).
    pub ack: u64,
    /// Wire size in bytes (headers included).
    pub size: u32,
    /// Timestamp echo for RTT measurement: set by the sender on data, copied
    /// back by the receiver on the ACK.
    pub ts_echo: SimTime,
    /// The queues this packet still has to traverse (interned handle).
    pub route: Route,
    /// Index of the next hop within `route`.
    pub hop: u32,
}

impl Packet {
    /// A data packet at the start of its route.
    pub fn data(
        src: EndpointId,
        dst: EndpointId,
        conn: u64,
        subflow: u16,
        seq: u64,
        size: u32,
        route: Route,
    ) -> Packet {
        Packet {
            src,
            dst,
            conn,
            subflow,
            kind: PacketKind::Data,
            seq,
            dsn: 0,
            ack: 0,
            size,
            ts_echo: SimTime::ZERO,
            route,
            hop: 0,
        }
    }

    /// An ACK packet at the start of its route.
    #[expect(
        clippy::too_many_arguments,
        reason = "a packet header's fields, set once at construction"
    )]
    pub fn ack(
        src: EndpointId,
        dst: EndpointId,
        conn: u64,
        subflow: u16,
        seq: u64,
        ack: u64,
        size: u32,
        route: Route,
    ) -> Packet {
        Packet {
            src,
            dst,
            conn,
            subflow,
            kind: PacketKind::Ack,
            seq,
            dsn: 0,
            ack,
            size,
            ts_echo: SimTime::ZERO,
            route,
            hop: 0,
        }
    }

    /// Whether the packet has traversed its whole route and should be
    /// delivered to `dst`.
    #[inline]
    pub fn at_destination(&self) -> bool {
        // The handle carries its length inline: no route-arena lookup here.
        self.hop as usize >= self.route.len()
    }

    /// The next queue to enter, if any.
    #[inline]
    pub fn next_queue(&self) -> Option<QueueId> {
        self.route.get(self.hop as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::route;

    #[test]
    fn hop_progression() {
        let r = route(&[QueueId(0), QueueId(1)]);
        let mut p = Packet::data(EndpointId(0), EndpointId(1), 9, 2, 5, 1500, r);
        assert_eq!(p.next_queue(), Some(QueueId(0)));
        assert!(!p.at_destination());
        p.hop += 1;
        assert_eq!(p.next_queue(), Some(QueueId(1)));
        p.hop += 1;
        assert_eq!(p.next_queue(), None);
        assert!(p.at_destination());
    }

    #[test]
    fn constructors_fill_kind() {
        let r = route(&[QueueId(0)]);
        let d = Packet::data(EndpointId(0), EndpointId(1), 0, 0, 1, 1500, r);
        assert_eq!(d.kind, PacketKind::Data);
        let a = Packet::ack(EndpointId(1), EndpointId(0), 0, 0, 1, 2, 40, r);
        assert_eq!(a.kind, PacketKind::Ack);
        assert_eq!(a.ack, 2);
    }

    #[test]
    fn empty_route_is_immediately_at_destination() {
        let r = route(&[]);
        let p = Packet::data(EndpointId(0), EndpointId(1), 0, 0, 0, 100, r);
        assert!(p.at_destination());
    }

    #[test]
    fn packet_is_small() {
        // The arena stores packets by value; keep them compact. 72 bytes =
        // the 67 bytes of payload fields padded to the u64 alignment.
        assert!(std::mem::size_of::<Packet>() <= 72);
    }
}
