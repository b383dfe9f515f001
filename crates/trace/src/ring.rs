//! [`RingSink`]: the most recent trace events, packed as varints.
//!
//! A record is one tag byte, the time as a LEB128 delta from the previous
//! record, then the variant's fields: integers as LEB128 varints, `f64`s
//! as their 8 raw little-endian bytes, and a `Fault` action as an index
//! into the ring's table of action labels. The tag's low nibble is the
//! variant; its high nibble carries the variant's small enums (packet
//! kind, drop or cwnd reason, from/to subflow state). The time delta wraps,
//! so a time that goes backwards (one sink shared by two simulations)
//! still round-trips.
//!
//! Records go into fixed [`CHUNK_BYTES`] chunks, never split across two.
//! Each chunk keeps its record count and the time its first delta is taken
//! from, so eviction is O(1) and decodes nothing: it counts one more
//! skipped record at the front, and drops the front chunk once all of its
//! records are skipped. The dropped chunk's buffer is kept for the next
//! chunk, so a wrapped ring stops allocating.

use std::collections::VecDeque;
use std::fmt;

use eventsim::SimTime;

use crate::event::{CwndReason, DropReason, PacketKindLabel, SubflowState, TraceEvent};
use crate::sink::TraceSink;

/// Bytes per chunk.
const CHUNK_BYTES: usize = 64 * 1024;
/// Upper bound on one encoded record: the tag, a 10-byte time delta and
/// `Enqueue`'s 38 bytes of fields (three `u64`s, three `u32`s, a `u16`),
/// rounded up. A record starts a new chunk unless this much room is left.
const MAX_RECORD: usize = 64;

// Tag low nibbles, one per variant.
const ENQUEUE: u8 = 0;
const DEQUEUE: u8 = 1;
const DROP: u8 = 2;
const DELIVER: u8 = 3;
const CWND: u8 = 4;
const RTT_SAMPLE: u8 = 5;
const RTO_FIRE: u8 = 6;
const FAST_RETRANSMIT: u8 = 7;
const SUBFLOW_STATE: u8 = 8;
const PROBE: u8 = 9;
const FAULT: u8 = 10;

// The enums in declaration order, so `value as u8` indexes them.
const KINDS: [PacketKindLabel; 2] = [PacketKindLabel::Data, PacketKindLabel::Ack];
const DROP_REASONS: [DropReason; 5] = [
    DropReason::Tail,
    DropReason::EarlyMark,
    DropReason::Bernoulli,
    DropReason::AdminDown,
    DropReason::LossBurst,
];
const CWND_REASONS: [CwndReason; 5] = [
    CwndReason::Ack,
    CwndReason::FastRetransmit,
    CwndReason::RecoveryExit,
    CwndReason::Rto,
    CwndReason::Reactivate,
];
const STATES: [SubflowState; 4] = [
    SubflowState::Active,
    SubflowState::PotentiallyFailed,
    SubflowState::Failed,
    SubflowState::Pruned,
];

/// One chunk of packed records.
struct Chunk {
    bytes: Vec<u8>,
    records: usize,
    /// Time of the record before this chunk's first one: its delta's base.
    base: u64,
}

/// Bounded in-memory ring keeping the most recent `capacity` events.
///
/// Useful for post-mortem inspection in tests and examples: run a scenario,
/// then walk `events()` without paying for file I/O during the run. Events
/// are stored losslessly as varints in 64 KiB chunks, ~11.5 bytes per
/// record on a Scenario C run against 40 for an unpacked
/// `(SimTime, TraceEvent)`; `events()` decodes them, and eviction is O(1).
pub struct RingSink {
    chunks: VecDeque<Chunk>,
    /// An emptied chunk's buffer, kept for the next chunk.
    spare: Option<Vec<u8>>,
    /// Interned `Fault` action labels; a record stores the index.
    actions: Vec<&'static str>,
    capacity: usize,
    /// Records retained.
    len: usize,
    /// Evicted records still at the start of the front chunk.
    skip: usize,
    /// Time of the last record, in nanoseconds.
    last_t: u64,
    recorded: u64,
    evicted: u64,
}

impl RingSink {
    /// A ring keeping at most `capacity` events (capacity 0 keeps none).
    /// The first chunk is allocated here, the rest as the ring fills.
    pub fn new(capacity: usize) -> Self {
        let mut chunks = VecDeque::new();
        if capacity > 0 {
            chunks.push_back(Chunk {
                bytes: Vec::with_capacity(CHUNK_BYTES),
                records: 0,
                base: 0,
            });
        }
        RingSink {
            chunks,
            spare: None,
            actions: Vec::new(),
            capacity,
            len: 0,
            skip: 0,
            last_t: 0,
            recorded: 0,
            evicted: 0,
        }
    }

    /// The retained events, oldest first, decoded as the iterator goes.
    pub fn events(&self) -> impl Iterator<Item = (SimTime, TraceEvent)> + '_ {
        Events {
            chunks: self.chunks.iter(),
            reader: Reader { bytes: &[], pos: 0 },
            prev_t: 0,
            skip: self.skip,
            remaining: self.len,
            actions: &self.actions,
        }
    }

    /// Total events offered to the sink.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted to respect the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded bytes the ring holds: the retained records, plus evicted
    /// ones still sharing the front chunk with them (under one chunk).
    pub fn retained_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.bytes.len()).sum()
    }

    /// Forget the oldest retained record without decoding it.
    fn evict_oldest(&mut self) {
        self.len -= 1;
        self.evicted += 1;
        self.skip += 1;
        let front_done = self.chunks.front().is_some_and(|c| c.records == self.skip);
        if front_done {
            if let Some(mut chunk) = self.chunks.pop_front() {
                chunk.bytes.clear();
                self.spare = Some(chunk.bytes);
            }
            self.skip = 0;
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.recorded += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.len == self.capacity {
            self.evict_oldest();
        }
        let full = self
            .chunks
            .back()
            .is_none_or(|c| c.bytes.len() + MAX_RECORD > CHUNK_BYTES);
        if full {
            let bytes = self
                .spare
                .take()
                .unwrap_or_else(|| Vec::with_capacity(CHUNK_BYTES));
            self.chunks.push_back(Chunk {
                bytes,
                records: 0,
                base: self.last_t,
            });
        }
        let Some(chunk) = self.chunks.back_mut() else {
            unreachable!("a chunk was just ensured");
        };
        let t = t.as_nanos();
        encode(
            &mut chunk.bytes,
            t.wrapping_sub(self.last_t),
            ev,
            &mut self.actions,
        );
        chunk.records += 1;
        self.last_t = t;
        self.len += 1;
    }
}

impl fmt::Debug for RingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingSink")
            .field("capacity", &self.capacity)
            .field("len", &self.len)
            .field("recorded", &self.recorded)
            .field("evicted", &self.evicted)
            .field("chunks", &self.chunks.len())
            .field("retained_bytes", &self.retained_bytes())
            .finish()
    }
}

fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8); // < 0x80 here: exact
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Append one record: tag, time delta, fields.
fn encode(out: &mut Vec<u8>, dt: u64, ev: &TraceEvent, actions: &mut Vec<&'static str>) {
    let tag = |variant: u8, extra: u8| variant | extra << 4;
    match *ev {
        TraceEvent::Enqueue {
            queue,
            conn,
            subflow,
            kind,
            seq,
            size,
            qlen,
        }
        | TraceEvent::Dequeue {
            queue,
            conn,
            subflow,
            kind,
            seq,
            size,
            qlen,
        } => {
            let variant = if matches!(ev, TraceEvent::Enqueue { .. }) {
                ENQUEUE
            } else {
                DEQUEUE
            };
            out.push(tag(variant, kind as u8));
            put_var(out, dt);
            put_var(out, queue.into());
            put_var(out, conn);
            put_var(out, subflow.into());
            put_var(out, seq);
            put_var(out, size.into());
            put_var(out, qlen.into());
        }
        TraceEvent::Drop {
            queue,
            conn,
            subflow,
            kind,
            seq,
            reason,
        } => {
            out.push(tag(DROP, kind as u8 | (reason as u8) << 1));
            put_var(out, dt);
            put_var(out, queue.into());
            put_var(out, conn);
            put_var(out, subflow.into());
            put_var(out, seq);
        }
        TraceEvent::Deliver {
            conn,
            subflow,
            newly,
            total,
        } => {
            out.push(tag(DELIVER, 0));
            put_var(out, dt);
            put_var(out, conn);
            put_var(out, subflow.into());
            put_var(out, newly);
            put_var(out, total);
        }
        TraceEvent::Cwnd {
            conn,
            subflow,
            cwnd,
            ssthresh,
            reason,
        } => {
            out.push(tag(CWND, reason as u8));
            put_var(out, dt);
            put_var(out, conn);
            put_var(out, subflow.into());
            put_f64(out, cwnd);
            put_f64(out, ssthresh);
        }
        TraceEvent::RttSample {
            conn,
            subflow,
            rtt_ns,
            srtt_ns,
        } => {
            out.push(tag(RTT_SAMPLE, 0));
            put_var(out, dt);
            put_var(out, conn);
            put_var(out, subflow.into());
            put_var(out, rtt_ns);
            put_var(out, srtt_ns);
        }
        TraceEvent::RtoFire {
            conn,
            subflow,
            backoff,
            rto_ns,
        } => {
            out.push(tag(RTO_FIRE, 0));
            put_var(out, dt);
            put_var(out, conn);
            put_var(out, subflow.into());
            put_var(out, backoff.into());
            put_var(out, rto_ns);
        }
        TraceEvent::FastRetransmit { conn, subflow, seq } => {
            out.push(tag(FAST_RETRANSMIT, 0));
            put_var(out, dt);
            put_var(out, conn);
            put_var(out, subflow.into());
            put_var(out, seq);
        }
        TraceEvent::SubflowState {
            conn,
            subflow,
            from,
            to,
        } => {
            out.push(tag(SUBFLOW_STATE, from as u8 | (to as u8) << 2));
            put_var(out, dt);
            put_var(out, conn);
            put_var(out, subflow.into());
        }
        TraceEvent::Probe {
            conn,
            subflow,
            seq,
            next_interval_ns,
        } => {
            out.push(tag(PROBE, 0));
            put_var(out, dt);
            put_var(out, conn);
            put_var(out, subflow.into());
            put_var(out, seq);
            put_var(out, next_interval_ns);
        }
        TraceEvent::Fault { queue, action } => {
            let index = match actions.iter().position(|a| *a == action) {
                Some(i) => i,
                None => {
                    actions.push(action);
                    actions.len() - 1
                }
            };
            out.push(tag(FAULT, 0));
            put_var(out, dt);
            put_var(out, queue.into());
            put_var(out, index as u64);
        }
    }
}

/// Cursor over one chunk's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn var(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.u8();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn u32(&mut self) -> u32 {
        u32::try_from(self.var()).expect("the ring encoded this field from a u32")
    }

    fn u16(&mut self) -> u16 {
        u16::try_from(self.var()).expect("the ring encoded this field from a u16")
    }

    fn f64(&mut self) -> f64 {
        let mut raw = [0; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        f64::from_bits(u64::from_le_bytes(raw))
    }

    /// Decode one record: its time delta and its event.
    fn record(&mut self, actions: &[&'static str]) -> (u64, TraceEvent) {
        let tag = self.u8();
        let extra = usize::from(tag >> 4);
        let dt = self.var();
        let ev = match tag & 0x0f {
            variant @ (ENQUEUE | DEQUEUE) => {
                let (queue, conn, subflow) = (self.u32(), self.var(), self.u16());
                let (kind, seq, size, qlen) = (KINDS[extra], self.var(), self.u32(), self.u32());
                if variant == ENQUEUE {
                    TraceEvent::Enqueue {
                        queue,
                        conn,
                        subflow,
                        kind,
                        seq,
                        size,
                        qlen,
                    }
                } else {
                    TraceEvent::Dequeue {
                        queue,
                        conn,
                        subflow,
                        kind,
                        seq,
                        size,
                        qlen,
                    }
                }
            }
            DROP => TraceEvent::Drop {
                queue: self.u32(),
                conn: self.var(),
                subflow: self.u16(),
                kind: KINDS[extra & 1],
                seq: self.var(),
                reason: DROP_REASONS[extra >> 1],
            },
            DELIVER => TraceEvent::Deliver {
                conn: self.var(),
                subflow: self.u16(),
                newly: self.var(),
                total: self.var(),
            },
            CWND => TraceEvent::Cwnd {
                conn: self.var(),
                subflow: self.u16(),
                cwnd: self.f64(),
                ssthresh: self.f64(),
                reason: CWND_REASONS[extra],
            },
            RTT_SAMPLE => TraceEvent::RttSample {
                conn: self.var(),
                subflow: self.u16(),
                rtt_ns: self.var(),
                srtt_ns: self.var(),
            },
            RTO_FIRE => TraceEvent::RtoFire {
                conn: self.var(),
                subflow: self.u16(),
                backoff: self.u32(),
                rto_ns: self.var(),
            },
            FAST_RETRANSMIT => TraceEvent::FastRetransmit {
                conn: self.var(),
                subflow: self.u16(),
                seq: self.var(),
            },
            SUBFLOW_STATE => TraceEvent::SubflowState {
                conn: self.var(),
                subflow: self.u16(),
                from: STATES[extra & 3],
                to: STATES[extra >> 2],
            },
            PROBE => TraceEvent::Probe {
                conn: self.var(),
                subflow: self.u16(),
                seq: self.var(),
                next_interval_ns: self.var(),
            },
            FAULT => TraceEvent::Fault {
                queue: self.u32(),
                action: actions[usize::try_from(self.var())
                    .expect("the ring encoded this index from a usize")],
            },
            other => unreachable!("the ring wrote no variant tag {other}"),
        };
        (dt, ev)
    }
}

/// [`RingSink::events`]: decodes chunk by chunk, skipping the evicted head
/// of the front chunk.
struct Events<'a> {
    chunks: std::collections::vec_deque::Iter<'a, Chunk>,
    reader: Reader<'a>,
    prev_t: u64,
    skip: usize,
    remaining: usize,
    actions: &'a [&'static str],
}

impl Iterator for Events<'_> {
    type Item = (SimTime, TraceEvent);

    fn next(&mut self) -> Option<(SimTime, TraceEvent)> {
        while self.remaining > 0 {
            if self.reader.pos == self.reader.bytes.len() {
                let chunk = self.chunks.next()?;
                self.reader = Reader {
                    bytes: &chunk.bytes,
                    pos: 0,
                };
                self.prev_t = chunk.base;
                continue;
            }
            let (dt, ev) = self.reader.record(self.actions);
            self.prev_t = self.prev_t.wrapping_add(dt);
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            self.remaining -= 1;
            return Some((SimTime::from_nanos(self.prev_t), ev));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::parse::FAULT_ACTIONS;
    use crate::recorder::FlightRecorder;

    /// The unpacked ring the packed one replaced: the reference it must
    /// match record for record.
    struct Reference {
        buf: VecDeque<(SimTime, TraceEvent)>,
        capacity: usize,
        recorded: u64,
        evicted: u64,
    }

    impl TraceSink for Reference {
        fn record(&mut self, t: SimTime, ev: &TraceEvent) {
            self.recorded += 1;
            if self.capacity == 0 {
                self.evicted += 1;
                return;
            }
            if self.buf.len() == self.capacity {
                self.buf.pop_front();
                self.evicted += 1;
            }
            self.buf.push_back((t, ev.clone()));
        }
    }

    /// Equality with `f64` fields compared by bits (NaN payloads, −0.0).
    fn same(a: &TraceEvent, b: &TraceEvent) -> bool {
        match (a, b) {
            (
                TraceEvent::Cwnd {
                    conn,
                    subflow,
                    cwnd,
                    ssthresh,
                    reason,
                },
                TraceEvent::Cwnd {
                    conn: conn2,
                    subflow: subflow2,
                    cwnd: cwnd2,
                    ssthresh: ssthresh2,
                    reason: reason2,
                },
            ) => {
                (conn, subflow, reason) == (conn2, subflow2, reason2)
                    && cwnd.to_bits() == cwnd2.to_bits()
                    && ssthresh.to_bits() == ssthresh2.to_bits()
            }
            _ => a == b,
        }
    }

    fn assert_agrees(ring: &RingSink, fr: &FlightRecorder, reference: &Reference) {
        assert_eq!(ring.recorded(), reference.recorded);
        assert_eq!(ring.evicted(), reference.evicted);
        assert_eq!(ring.len(), reference.buf.len());
        assert_eq!(ring.is_empty(), reference.buf.is_empty());
        assert_eq!(
            (fr.recorded(), fr.truncated(), fr.len()),
            (ring.recorded(), ring.evicted(), ring.len())
        );
        let events: Vec<_> = ring.events().collect();
        assert_eq!(events.len(), reference.buf.len());
        for (i, ((t, ev), (t2, ev2))) in events.iter().zip(&reference.buf).enumerate() {
            assert_eq!(t, t2, "record {i}: time");
            assert!(same(ev, ev2), "record {i}: {ev:?} != {ev2:?}");
        }
        let mut jsonl = String::new();
        for (t, ev) in &reference.buf {
            jsonl.push_str(&ev.to_jsonl(*t));
            jsonl.push('\n');
        }
        assert_eq!(fr.dump_jsonl(), jsonl);
    }

    /// Feed `stream` to a ring, a flight recorder and the reference, all
    /// of `capacity`; check they agree every `every` records and at the
    /// end, and return the ring.
    fn check_stream(capacity: usize, stream: &[(SimTime, TraceEvent)], every: usize) -> RingSink {
        let mut ring = RingSink::new(capacity);
        let mut fr = FlightRecorder::new(capacity);
        let mut reference = Reference {
            buf: VecDeque::new(),
            capacity,
            recorded: 0,
            evicted: 0,
        };
        for (i, (t, ev)) in stream.iter().enumerate() {
            ring.record(*t, ev);
            fr.record(*t, ev);
            reference.record(*t, ev);
            if (i + 1) % every == 0 {
                assert_agrees(&ring, &fr, &reference);
            }
        }
        assert_agrees(&ring, &fr, &reference);
        ring
    }

    /// Variant and small-enum combinations [`nth_event`] enumerates.
    const COMBOS: usize = 41;

    /// The `pick`th variant/enum combination, every field drawn from
    /// `f` (narrowed by truncation, so `u64::MAX` gives each type's
    /// maximum and `f64` fields get its bit pattern).
    fn nth_event(pick: usize, f: &mut impl FnMut() -> u64) -> TraceEvent {
        match pick {
            0..=13 => {
                let kind = KINDS[pick % 2];
                let (queue, conn, subflow) = (f() as u32, f(), f() as u16);
                match pick / 2 {
                    0 => TraceEvent::Enqueue {
                        queue,
                        conn,
                        subflow,
                        kind,
                        seq: f(),
                        size: f() as u32,
                        qlen: f() as u32,
                    },
                    1 => TraceEvent::Dequeue {
                        queue,
                        conn,
                        subflow,
                        kind,
                        seq: f(),
                        size: f() as u32,
                        qlen: f() as u32,
                    },
                    r => TraceEvent::Drop {
                        queue,
                        conn,
                        subflow,
                        kind,
                        seq: f(),
                        reason: DROP_REASONS[r - 2],
                    },
                }
            }
            14 => TraceEvent::Deliver {
                conn: f(),
                subflow: f() as u16,
                newly: f(),
                total: f(),
            },
            15..=19 => TraceEvent::Cwnd {
                conn: f(),
                subflow: f() as u16,
                cwnd: f64::from_bits(f()),
                ssthresh: f64::from_bits(f()),
                reason: CWND_REASONS[pick - 15],
            },
            20 => TraceEvent::RttSample {
                conn: f(),
                subflow: f() as u16,
                rtt_ns: f(),
                srtt_ns: f(),
            },
            21 => TraceEvent::RtoFire {
                conn: f(),
                subflow: f() as u16,
                backoff: f() as u32,
                rto_ns: f(),
            },
            22 => TraceEvent::FastRetransmit {
                conn: f(),
                subflow: f() as u16,
                seq: f(),
            },
            23 => TraceEvent::Probe {
                conn: f(),
                subflow: f() as u16,
                seq: f(),
                next_interval_ns: f(),
            },
            24..=39 => TraceEvent::SubflowState {
                conn: f(),
                subflow: f() as u16,
                from: STATES[(pick - 24) % 4],
                to: STATES[(pick - 24) / 4],
            },
            _ => TraceEvent::Fault {
                queue: f() as u32,
                action: FAULT_ACTIONS[(f() % 8) as usize],
            },
        }
    }

    fn enq(i: u64) -> TraceEvent {
        nth_event(0, &mut || i)
    }

    #[test]
    fn ring_sink_bounds_memory_and_counts_evictions() {
        let mut ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(SimTime::from_nanos(i), &enq(i));
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.evicted(), 3);
        assert_eq!(ring.len(), 2);
        let seqs: Vec<u64> = ring
            .events()
            .map(|(_, ev)| match ev {
                TraceEvent::Enqueue { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![3, 4], "keeps the most recent events");
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut ring = RingSink::new(0);
        ring.record(SimTime::ZERO, &enq(0));
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 1);
        assert_eq!(ring.evicted(), 1);
        assert_eq!(ring.retained_bytes(), 0);
    }

    #[test]
    fn enum_tables_follow_declaration_order() {
        assert!(KINDS.iter().enumerate().all(|(i, &k)| k as usize == i));
        assert!(DROP_REASONS
            .iter()
            .enumerate()
            .all(|(i, &r)| r as usize == i));
        assert!(CWND_REASONS
            .iter()
            .enumerate()
            .all(|(i, &r)| r as usize == i));
        assert!(STATES.iter().enumerate().all(|(i, &s)| s as usize == i));
    }

    #[test]
    fn every_variant_round_trips_at_boundary_values() {
        let values = [
            0,
            127,
            128,
            u64::from(u16::MAX),
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut stream = Vec::new();
        for &v in &values {
            for pick in 0..COMBOS {
                // Times cycle through the same values, so deltas also hit
                // 0, the one-byte edge and the wrap past u64::MAX.
                let t = SimTime::from_nanos(values[stream.len() % values.len()]);
                stream.push((t, nth_event(pick, &mut || v)));
            }
        }
        for (_, ev) in &stream {
            let mut one = Vec::new();
            encode(&mut one, u64::MAX, ev, &mut Vec::new());
            assert!(one.len() <= MAX_RECORD, "{ev:?} packs to {} B", one.len());
        }
        check_stream(usize::MAX, &stream, 1);
        check_stream(stream.len() / 3, &stream, 7);
    }

    #[test]
    fn cwnd_floats_round_trip_by_bits() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.5,
        ];
        let mut stream = Vec::new();
        for (i, &cwnd) in specials.iter().enumerate() {
            for &ssthresh in &specials {
                let ev = TraceEvent::Cwnd {
                    conn: i as u64,
                    subflow: 1,
                    cwnd,
                    ssthresh,
                    reason: CwndReason::Rto,
                };
                stream.push((SimTime::from_nanos(stream.len() as u64), ev));
            }
        }
        check_stream(usize::MAX, &stream, 1);
    }

    #[test]
    fn every_fault_action_label_round_trips() {
        // Labels arrive out of table order and repeat, and one is outside
        // the netsim set: the intern table holds any `&'static str`.
        let mut labels: Vec<&'static str> = FAULT_ACTIONS.iter().rev().copied().collect();
        labels.extend(FAULT_ACTIONS);
        labels.push("melt_core");
        let stream: Vec<_> = labels
            .iter()
            .enumerate()
            .map(|(i, &action)| {
                let queue = i as u32 * 1000;
                (
                    SimTime::from_nanos(i as u64),
                    TraceEvent::Fault { queue, action },
                )
            })
            .collect();
        let ring = check_stream(usize::MAX, &stream, 1);
        assert_eq!(ring.actions.len(), FAULT_ACTIONS.len() + 1);
        let got: Vec<&str> = ring
            .events()
            .map(|(_, ev)| match ev {
                TraceEvent::Fault { action, .. } => action,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, labels);
    }

    #[test]
    fn time_going_backwards_round_trips() {
        // One sink shared by two simulations: the second restarts at zero.
        let mut stream = Vec::new();
        for offset in [0, 1] {
            for i in 0..40u64 {
                let t = SimTime::from_nanos(i * 1_000_000 + offset);
                stream.push((t, nth_event(14, &mut || i)));
            }
        }
        for t in [u64::MAX, 0, 5, u64::MAX - 1, 3] {
            stream.push((SimTime::from_nanos(t), enq(t)));
        }
        check_stream(usize::MAX, &stream, 1);
        check_stream(30, &stream, 1);
    }

    #[test]
    fn small_capacities_keep_the_tail() {
        let stream: Vec<_> = (0..300u64)
            .map(|i| {
                let pick = (i as usize * 7) % COMBOS;
                (SimTime::from_nanos(i * 3), nth_event(pick, &mut || i * i))
            })
            .collect();
        for capacity in 0..=3 {
            check_stream(capacity, &stream, 1);
        }
    }

    #[test]
    fn eviction_crosses_chunk_boundaries() {
        // ~40 k records of ~10 B span several 64 KiB chunks; the ring's
        // window of 10 k spans two or more.
        let stream: Vec<_> = (0..40_000u64)
            .map(|i| {
                let pick = if i % 10 == 0 { 15 } else { (i % 2) as usize };
                let mut field = [i % 7, i % 3, 0, i].into_iter().cycle();
                let ev = nth_event(pick, &mut || field.next().unwrap_or(0));
                (SimTime::from_nanos(i * 1_000), ev)
            })
            .collect();
        let mut crossed = 0;
        let mut ring = RingSink::new(10_000);
        let mut chunks_seen = 0;
        for (t, ev) in &stream {
            ring.record(*t, ev);
            let n = ring.chunks.len();
            if n < chunks_seen {
                crossed += 1;
                assert!(ring.spare.is_some(), "an emptied chunk is kept for reuse");
            }
            chunks_seen = n;
            assert!(n <= 10_000 * MAX_RECORD / CHUNK_BYTES + 2);
        }
        assert!(crossed >= 2, "the front chunk was dropped {crossed} times");
        let ring = check_stream(10_000, &stream, 2_999);
        assert!(ring.chunks.len() >= 2);
        assert!(ring.skip > 0, "the window starts inside the front chunk");
    }

    proptest! {
        #[test]
        fn random_streams_match_the_reference(
            draws in collection::vec(any::<u64>(), 0..400),
            capacity in 0usize..64,
        ) {
            let mut state = draws.iter().fold(0x9e37_79b9_7f4a_7c15_u64, |h, &d| h ^ d);
            let mut next = move || {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut t = 0u64;
            let stream: Vec<_> = draws
                .iter()
                .map(|&d| {
                    // Mostly small steps; now and then a jump either way.
                    t = t.wrapping_add(match d % 8 {
                        0 => d,
                        1 | 2 => 0,
                        _ => d % 100_000,
                    });
                    // Field widths from 0 to 64 bits.
                    let mut field = || {
                        let r = next();
                        r >> (r % 65).min(63)
                    };
                    (SimTime::from_nanos(t), nth_event((d % COMBOS as u64) as usize, &mut field))
                })
                .collect();
            check_stream(capacity, &stream, 13);
            check_stream(usize::MAX, &stream, stream.len().max(1));
        }
    }
}
