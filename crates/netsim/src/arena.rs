//! The packet arena: a generational slab for in-flight packets.
//!
//! A [`Packet`] is ~100 bytes (route `Rc`, two sequence spaces, timestamps).
//! Before this arena existed, every heap entry and every queue-buffer slot
//! held a packet *by value*, so each hop moved those bytes through heap
//! sift-up/down and `VecDeque` pushes several times over. Now a packet is
//! written into the arena once, at injection, and everything downstream — the
//! event heap, queue buffers — passes an 8-byte [`PacketRef`] instead. The
//! packet is mutated in place (hop increment) and moved out exactly once, at
//! delivery.
//!
//! Generations make dangling refs detectable rather than silently aliased: a
//! slot freed on deliver/drop bumps its generation, so any stale ref panics
//! on lookup instead of reading a recycled packet. Slot reuse order (LIFO
//! free list) is driven entirely by the deterministic event order, so arena
//! layout is itself deterministic — but nothing may *depend* on slot indices;
//! they are never part of event ordering.
//!
//! The arena is also the leak check: at quiescence every live entry must be
//! accounted for by a queue buffer or a pending arrival
//! ([`crate::Simulation::check_packet_conservation`]).

use crate::packet::Packet;

/// A reference to a packet stored in the [`PacketArena`]. `Copy`, 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketRef {
    slot: u32,
    gen: u32,
}

#[derive(Debug)]
struct ArenaSlot {
    gen: u32,
    pkt: Option<Packet>,
}

/// Slab of in-flight packets with generational refs and occupancy counters.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    slots: Vec<ArenaSlot>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
    inserts: u64,
}

impl PacketArena {
    pub(crate) fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Pre-size for `cap` concurrently in-flight packets.
    pub(crate) fn reserve(&mut self, cap: usize) {
        if let Some(extra) = cap.checked_sub(self.slots.len()) {
            self.slots.reserve(extra);
            self.free.reserve(extra);
        }
    }

    /// Store a packet; the ref stays valid until [`remove`](Self::remove).
    pub(crate) fn insert(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        if self.live > self.peak {
            self.peak = self.live;
        }
        self.inserts += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.pkt.is_none());
            s.pkt = Some(pkt);
            PacketRef { slot, gen: s.gen }
        } else {
            // Slab growth guard, not a hot-path invariant: 2^32 in-flight
            // packets would exhaust memory long before this trips.
            assert!(self.slots.len() < u32::MAX as usize, "packet arena full");
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the assert above bounds the arena below u32::MAX"
            )]
            let slot = self.slots.len() as u32;
            self.slots.push(ArenaSlot {
                gen: 0,
                pkt: Some(pkt),
            });
            PacketRef { slot, gen: 0 }
        }
    }

    /// Borrow the packet behind a live ref.
    ///
    /// Panics on a stale or foreign ref — that is always a lost-packet bug in
    /// the driver, never a recoverable condition.
    pub(crate) fn get(&self, r: PacketRef) -> &Packet {
        match self.slots.get(r.slot as usize) {
            Some(s) if s.gen == r.gen => match &s.pkt {
                Some(pkt) => pkt,
                None => panic!("stale packet ref (slot {} freed)", r.slot),
            },
            _ => panic!("stale packet ref (slot {} recycled)", r.slot),
        }
    }

    /// Mutably borrow the packet behind a live ref (hop increments).
    pub(crate) fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        match self.slots.get_mut(r.slot as usize) {
            Some(s) if s.gen == r.gen => match &mut s.pkt {
                Some(pkt) => pkt,
                None => panic!("stale packet ref (slot {} freed)", r.slot),
            },
            _ => panic!("stale packet ref (slot {} recycled)", r.slot),
        }
    }

    /// Move the packet out, freeing its slot (delivery or drop).
    pub(crate) fn remove(&mut self, r: PacketRef) -> Packet {
        let Some(s) = self.slots.get_mut(r.slot as usize) else {
            panic!("stale packet ref (slot {} out of range)", r.slot);
        };
        assert!(
            s.gen == r.gen,
            "stale packet ref (slot {} recycled)",
            r.slot
        );
        let Some(pkt) = s.pkt.take() else {
            panic!("stale packet ref (slot {} freed)", r.slot);
        };
        s.gen = s.gen.wrapping_add(1);
        self.free.push(r.slot);
        self.live -= 1;
        pkt
    }

    /// Packets currently in flight.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// The most packets ever in flight at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Total packets ever inserted (diagnostics).
    pub(crate) fn inserts(&self) -> u64 {
        self.inserts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EndpointId;
    use crate::routes::route;

    fn pkt(seq: u64) -> Packet {
        Packet::data(EndpointId(0), EndpointId(1), 0, 0, seq, 1500, route(&[]))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(7));
        assert_eq!(a.get(r).seq, 7);
        a.get_mut(r).hop += 1;
        let p = a.remove(r);
        assert_eq!((p.seq, p.hop), (7, 1));
        assert_eq!(a.live(), 0);
        assert_eq!(a.peak(), 1);
        assert_eq!(a.inserts(), 1);
    }

    #[test]
    fn slots_recycle_and_peak_tracks() {
        let mut a = PacketArena::new();
        let r0 = a.insert(pkt(0));
        let r1 = a.insert(pkt(1));
        assert_eq!(a.peak(), 2);
        a.remove(r0);
        let r2 = a.insert(pkt(2));
        // LIFO free list: r2 reuses r0's slot under a new generation.
        assert_eq!(r2.slot, r0.slot);
        assert_ne!(r2.gen, r0.gen);
        assert_eq!(a.get(r1).seq, 1);
        assert_eq!(a.get(r2).seq, 2);
        assert_eq!(a.peak(), 2);
        assert_eq!(a.inserts(), 3);
    }

    #[test]
    #[should_panic(expected = "stale packet ref")]
    fn stale_ref_panics_on_get() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(0));
        a.remove(r);
        let _ = a.get(r);
    }

    #[test]
    #[should_panic(expected = "stale packet ref")]
    fn recycled_ref_panics_on_remove() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(0));
        a.remove(r);
        a.insert(pkt(1)); // same slot, new generation
        let _ = a.remove(r);
    }
}
