//! The event queue: two 4-ary implicit min-heaps and up to `LANES` FIFO
//! delay lanes of each kind, all keyed on `(time, seq)` drawn from one
//! sequence counter.
//!
//! The sequence number guarantees FIFO ordering of simultaneous events, which
//! makes simulation runs bit-for-bit deterministic regardless of heap
//! internals.
//!
//! # Four sources
//!
//! [`EventQueue::schedule`] feeds the event heap,
//! [`EventQueue::schedule_after`] an event delay lane and
//! [`EventQueue::schedule_timer_after`] a timer delay lane; either falls back
//! to the heap of its kind (event or timer) when no lane takes the entry. A
//! pop takes the least key among the two heap roots and the least lane head
//! of each kind, which each kind's lanes keep cached. Keys are unique across
//! all of them (one counter), so the merged pop sequence is exactly that of
//! a single heap holding every entry: same order, same ties, same high-water
//! mark (counted over every source).
//!
//! Timers are kept apart from events because cancelled timers linger.
//! Cancellation is lazy (see [`TimerSlab`](crate::TimerSlab)), so a dead
//! timer stays pending until its time comes. In a k=8 FatTree run the
//! pending set peaks at ~162k entries, of which at most ~10³ are packet
//! events and the rest RTO timers, nearly all cancelled. Kept apart they do
//! not deepen the structures packet traffic goes through, and a timer entry
//! stores only the timer payload type (netsim's is an 8-byte handle) rather
//! than the full event type.
//!
//! # Delay lanes
//!
//! A delay lane holds entries that were all scheduled the same delay after
//! `now()`. The clock never moves back and the sequence counter only rises,
//! so each new entry's key `(now + delay, seq)` exceeds every key already in
//! its lane: the lane is sorted by construction, its head is its least key,
//! and a `VecDeque` push and pop replace a heap sift. Packet traffic is
//! almost all of this kind — a serialization ends one service time after it
//! starts, and a packet reaches its next hop one link latency after it
//! departs — and so are RTO timers, armed one RTO ahead, which is most often
//! the minimum or the initial RTO. A run has only a handful of distinct such
//! delays. A delay with no lane takes a new lane of its kind while fewer than
//! `LANES` exist, otherwise an empty one, which is re-keyed to it, and
//! otherwise goes to the heap of its kind: an unusual delay costs a heap
//! sift, never a wrong order. A push changes its kind's least lane head only
//! when it fills an empty lane, so only a pop rescans for it, and only the
//! lanes of the kind it took from: RTOs above the floor keep all `LANES`
//! timer lanes busy in Scenario C, and scanning every lane of both kinds on
//! each pop measured ~7% slower there.
//!
//! A lane stores keys as steps. It keeps the absolute keys of its head and
//! its tail, and each entry holds the time step (ns) and the seq step from
//! the entry before it as two `u32`s; a pop advances the head by the next
//! entry's steps. A lane entry is thus 8 bytes plus its payload, rounded up
//! to the payload's alignment: 16 bytes for netsim's 8-byte timer handle and
//! 24 for its 16-byte event, where a `u128` key would make both 32. At the
//! k=8 FatTree peak the minimum-RTO lane alone holds ~161k entries. A step
//! that does not fit in 32 bits (the lane's tail more than ~4.29 s of sim
//! time or 2³² schedules older than the new entry) hands the entry to the
//! heap of its kind, again a sift, never a wrong order.
//!
//! # Why not `std::collections::BinaryHeap`?
//!
//! The heaps take whatever the lanes do not: start and fault events, and
//! link events and timers past the lane cap or the 32-bit step. Three
//! deliberate layout choices buy a measurable events/sec win over the former
//! `BinaryHeap<Reverse<Entry>>`:
//!
//! * **Packed keys.** `(time, seq)` is encoded as one `u128`
//!   (`time << 64 | seq`), so an ordering decision is a single integer
//!   compare instead of a two-field lexicographic compare through `Ord`.
//!   Both fields are `u64`, so the packing is exact and preserves the total
//!   order: time majors, insertion sequence breaks ties FIFO.
//! * **Parallel arrays.** Keys and payloads live in separate `Vec`s. Sift
//!   operations compare only keys — the payload vector is untouched except
//!   for the final swaps — so the comparison loop walks a dense `u128` array
//!   with no payload bytes polluting the cache lines.
//! * **4-ary layout.** A wider node roughly halves the tree depth versus a
//!   binary heap, so pops (the expensive direction) visit half as many
//!   levels. A node's four child keys are 64 contiguous bytes, but not one
//!   cache line: a `Vec<u128>` is 16-byte aligned and node `i`'s children
//!   start at index `4i + 1`, so a sibling group usually spans two lines.
//!   Aligning every group to a line measured no gain. Sift-down picks the
//!   least of a full node's children with a two-round tournament of selects
//!   rather than a branchy scan.
//!
//! Pop order is *identical* to the previous implementation — the heap shape
//! differs, but the comparator is a total order (seq is unique), so the pop
//! sequence is fully determined regardless of internal arrangement. The
//! differential property tests in `tests/differential.rs` pin this against a
//! plain reference heap, across the heaps and the delay lanes.

use std::collections::VecDeque;

use crate::{SimDuration, SimTime};

/// A deterministic timestamped event queue: an event heap and event delay
/// lanes, and a timer heap and timer delay lanes.
///
/// Events pop in nondecreasing time order; ties are broken by scheduling
/// order, across every source. `E` is the payload of the event heap and the
/// event lanes, and what every pop returns; `T` is the payload of the timer
/// heap and the timer lanes, turned into an `E` by `E: From<T>` when it
/// pops. With the default `T = E` the timer side is just a second heap and
/// set of lanes of the same type, which a caller may leave idle.
///
/// A heap entry costs a 16-byte key plus its payload; a lane entry costs two
/// 4-byte key steps plus its payload, rounded up to the payload's alignment
/// (see the module docs).
#[derive(Debug)]
pub struct EventQueue<E, T = E> {
    events: Heap<E>,
    timers: Heap<T>,
    event_lanes: Lanes<E>,
    timer_lanes: Lanes<T>,
    pending: usize,
    seq: u64,
    now: SimTime,
    high_water: usize,
}

/// The most delay lanes a queue keeps of each kind, event and timer.
///
/// Distinct link-event delays measured per run: 3 in the benchmark's k=8
/// FatTree permutation (one propagation delay, two serialization times), 6
/// in Scenario C, up to 8 in Scenario A and 5 in Fig. 14's short-flow
/// FatTree. Timer delays measured on benchmark seed 8 (digest pass plus
/// three reps): the k=8 FatTree permutation arms 1,410,104 timers on 2
/// delays, 200 ms (the minimum RTO) and 250 ms (the initial RTO), and none
/// falls back to the timer heap; faulted Scenario C arms 837,576 timers,
/// 92% of them at its 200 ms floor, but its RTOs above the floor make 12,636
/// distinct delays in all, so 42,392 arms (5%) fall back to the timer heap.
/// Further delays reuse an empty lane or fall back to the heap of their
/// kind.
const LANES: usize = 8;

/// The delay lanes of one kind, and the least head key among them with its
/// lane's index (see the module docs).
#[derive(Debug)]
struct Lanes<P> {
    lanes: Vec<Lane<P>>,
    least: Option<(u128, usize)>,
}

/// A delay lane: entries scheduled `delay` after the then-current time, in
/// key order, with their keys stored as steps (see the module docs). `head`
/// and `tail` are the absolute keys of the first and last entries while the
/// lane is non-empty; the head entry's own steps are unused.
#[derive(Debug)]
struct Lane<P> {
    delay: SimDuration,
    head: u128,
    tail: u128,
    entries: VecDeque<LaneEntry<P>>,
}

/// A lane entry: the time step (ns) and the seq step from the previous
/// entry's key, then the payload.
type LaneEntry<P> = (u32, u32, P);

/// Where the least pending key sits.
#[derive(Debug, Clone, Copy)]
enum Source {
    Events,
    Timers,
    EventLanes,
    TimerLanes,
}

/// Heap arity: a node's four child keys are 64 contiguous bytes; see the
/// module docs.
const D: usize = 4;

fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

fn unpack_time(key: u128) -> SimTime {
    // simlint: allow(R9) exact by construction: the high 64 bits are the packed nanosecond time
    SimTime::from_nanos((key >> 64) as u64)
}

impl<E, T> Default for EventQueue<E, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, T> EventQueue<E, T> {
    /// An empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            events: Heap::new(),
            timers: Heap::new(),
            event_lanes: Lanes::new(),
            timer_lanes: Lanes::new(),
            pending: 0,
            seq: 0,
            now: SimTime::ZERO,
            high_water: 0,
        }
    }

    /// Reserve room in the event heap for at least `additional` more pending
    /// events. The timer heap and the delay lanes grow on demand.
    pub fn reserve(&mut self, additional: usize) {
        self.events.keys.reserve(additional);
        self.events.items.reserve(additional);
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Panics if `at` is in the simulated past — an event scheduled before
    /// `now()` is always a bug in the caller.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.next_key(at);
        self.events.push(key, event);
    }

    /// Schedule `event` to fire `delay` after `now()`, on the event lane for
    /// `delay` (on the event heap if no lane takes it). It pops in the same
    /// order as if it had been passed to [`schedule`](Self::schedule) with
    /// `now() + delay`; only the cost differs — an append instead of a heap
    /// sift.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let key = self.next_key(self.now + delay);
        if let Err(event) = self.event_lanes.push(delay, key, event) {
            self.events.push(key, event);
        }
    }

    /// Schedule `timer` to fire `delay` after `now()`, on the timer lane for
    /// `delay` (on the timer heap if no lane takes it). It pops as
    /// `E::from(timer)`, in the same order as if it had been passed to
    /// [`schedule`](Self::schedule) with `now() + delay`.
    pub fn schedule_timer_after(&mut self, delay: SimDuration, timer: T) {
        let key = self.next_key(self.now + delay);
        if let Err(timer) = self.timer_lanes.push(delay, key, timer) {
            self.timers.push(key, timer);
        }
    }

    /// The key for a new entry at `at`: the time plus the next sequence
    /// number, drawn from the one counter every source shares. Counts the
    /// entry as pending.
    fn next_key(&mut self, at: SimTime) -> u128 {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        self.high_water = self.high_water.max(self.pending);
        pack(at, seq)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)>
    where
        E: From<T>,
    {
        self.pop_through(u128::MAX)
    }

    /// Pop the earliest event only if it fires at or before `horizon`.
    ///
    /// Equivalent to `peek_time()` + `pop()` but finds the least key once —
    /// this is the driver-loop fast path, where every event pays the horizon
    /// check.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)>
    where
        E: From<T>,
    {
        // The largest key at `horizon`: every entry due by then is ≤ it.
        self.pop_through(pack(horizon, u64::MAX))
    }

    /// The least pending key and its source: the least of the two heap
    /// roots and the two kinds' least lane heads.
    fn earliest(&self) -> Option<(u128, Source)> {
        let mut best = self.events.root().map(|k| (k, Source::Events));
        let mut take = |key: Option<u128>, source: Source| {
            if let Some(k) = key {
                if best.is_none_or(|(b, _)| k < b) {
                    best = Some((k, source));
                }
            }
        };
        take(self.timers.root(), Source::Timers);
        take(self.event_lanes.least.map(|(k, _)| k), Source::EventLanes);
        take(self.timer_lanes.least.map(|(k, _)| k), Source::TimerLanes);
        best
    }

    /// Pop the entry with the least key across every source if that key is
    /// at most `limit`.
    fn pop_through(&mut self, limit: u128) -> Option<(SimTime, E)>
    where
        E: From<T>,
    {
        let (key, source) = self.earliest()?;
        if key > limit {
            return None;
        }
        let event = match source {
            Source::Events => self.events.pop()?,
            Source::Timers => E::from(self.timers.pop()?),
            Source::EventLanes => self.event_lanes.pop()?,
            Source::TimerLanes => E::from(self.timer_lanes.pop()?),
        };
        self.pending -= 1;
        let at = unpack_time(key);
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Advance the clock to `at` without popping anything (a driver that ran
    /// out of events before its horizon still ends *at* the horizon, so
    /// wall-clock-anchored bookkeeping — stat resets, utilization windows —
    /// sees the intended instant).
    ///
    /// Panics if `at` is before `now()`, or later than the earliest pending
    /// entry of any source (that entry would then fire in the past).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "clock must not move backwards");
        if let Some(t) = self.peek_time() {
            assert!(at <= t, "advancing past a pending event at {t}");
        }
        self.now = at;
    }

    /// Timestamp of the earliest pending event of any source, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(key, _)| unpack_time(key))
    }

    /// Number of pending events, every source.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The most pending events ever held at once, every source together
    /// (diagnostics: pre-sizing validation and the perf harness's
    /// `peak_heap` metric).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Iterate over the pending `E` payloads of the event heap and the event
    /// lanes in unspecified order; timers are not visited.
    ///
    /// For diagnostics and conservation checks only — simulation logic must
    /// never depend on this order.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        let lanes = self.event_lanes.lanes.iter().flat_map(|l| l.entries.iter());
        self.events.items.iter().chain(lanes.map(|(_, _, e)| e))
    }
}

impl<P> Lanes<P> {
    fn new() -> Self {
        Lanes {
            lanes: Vec::new(),
            least: None,
        }
    }

    /// Append `item`, keyed `key` and scheduled `delay` ahead, to the lane
    /// [`lane_for`](Self::lane_for) picks. Hands `item` back if no lane
    /// takes it.
    fn push(&mut self, delay: SimDuration, key: u128, item: P) -> Result<(), P> {
        let Some(i) = self.lane_for(delay) else {
            return Err(item);
        };
        self.lanes[i].push(key, item)?;
        // `key` is its lane's head only if the lane was empty; otherwise it
        // exceeds that head, and so the least head too.
        if self.least.is_none_or(|(k, _)| key < k) {
            self.least = Some((key, i));
        }
        Ok(())
    }

    /// Remove the least head's entry and return its payload, then rescan
    /// for the new least head.
    fn pop(&mut self) -> Option<P> {
        let (_, i) = self.least?;
        let item = self.lanes.get_mut(i)?.pop()?;
        self.least = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(j, l)| Some((l.head()?, j)))
            .min();
        Some(item)
    }

    /// The lane for entries scheduled `delay` ahead: the lane keyed to
    /// `delay`, else a new lane while fewer than `LANES` exist, else an
    /// empty lane, re-keyed to `delay`. `None` if every lane holds entries
    /// of other delays.
    fn lane_for(&mut self, delay: SimDuration) -> Option<usize> {
        if let Some(i) = self.lanes.iter().position(|l| l.delay == delay) {
            return Some(i);
        }
        if self.lanes.len() < LANES {
            self.lanes.push(Lane {
                delay,
                head: 0,
                tail: 0,
                entries: VecDeque::new(),
            });
            return Some(self.lanes.len() - 1);
        }
        let i = self.lanes.iter().position(|l| l.entries.is_empty())?;
        self.lanes[i].delay = delay;
        Some(i)
    }
}

impl<P> Lane<P> {
    /// The least key in the lane: its head's.
    fn head(&self) -> Option<u128> {
        (!self.entries.is_empty()).then_some(self.head)
    }

    /// Append `item` at `key`, which exceeds every key in the lane. A push
    /// to an empty lane re-bases its head and tail. Hands `item` back if its
    /// time or seq step from the tail does not fit in a `u32`.
    fn push(&mut self, key: u128, item: P) -> Result<(), P> {
        let (dt, dseq) = if self.entries.is_empty() {
            self.head = key;
            (0, 0)
        } else {
            // Both fields of `key` are at least the tail's (time never falls
            // and seq rises), so the difference subtracts field by field
            // with no borrow between them.
            let step = key - self.tail;
            match (
                u32::try_from(step >> 64),
                u32::try_from(step & u128::from(u64::MAX)),
            ) {
                (Ok(dt), Ok(dseq)) => (dt, dseq),
                _ => return Err(item),
            }
        };
        self.tail = key;
        self.entries.push_back((dt, dseq, item));
        Ok(())
    }

    /// Remove the head entry and return its payload, advancing the head key
    /// by the next entry's steps.
    fn pop(&mut self) -> Option<P> {
        let (_, _, item) = self.entries.pop_front()?;
        if let Some(&(dt, dseq, _)) = self.entries.front() {
            self.head += (u128::from(dt) << 64) | u128::from(dseq);
        }
        Some(item)
    }
}

/// One heap: a 4-ary implicit min-heap of packed keys, with payloads in a
/// parallel array at the same heap positions.
#[derive(Debug)]
struct Heap<P> {
    keys: Vec<u128>,
    items: Vec<P>,
}

impl<P> Heap<P> {
    fn new() -> Self {
        Heap {
            keys: Vec::new(),
            items: Vec::new(),
        }
    }

    /// The least pending key.
    fn root(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    fn push(&mut self, key: u128, item: P) {
        self.keys.push(key);
        self.items.push(item);
        self.sift_up(self.keys.len() - 1);
    }

    /// Remove the root entry and return its payload.
    fn pop(&mut self) -> Option<P> {
        let (last_key, last_item) = match (self.keys.pop(), self.items.pop()) {
            (Some(k), Some(p)) => (k, p),
            _ => return None,
        };
        if self.keys.is_empty() {
            // The popped tail *was* the root.
            return Some(last_item);
        }
        // Return the root and re-seat the old tail via one hole-style
        // sift-down — no preparatory root/tail swap.
        let item = std::mem::replace(&mut self.items[0], last_item);
        self.keys[0] = last_key;
        self.sift_down(0);
        Some(item)
    }

    /// Hole-style sift-up: find the destination with read-only compares
    /// against a register-held key, then rotate the path once. In the common
    /// DES case (a newly scheduled event lands later than most of the heap)
    /// the first loop exits immediately and nothing is written.
    fn sift_up(&mut self, from: usize) {
        let key = self.keys[from];
        let mut i = from;
        while i > 0 {
            let parent = (i - 1) / D;
            if self.keys[parent] <= key {
                break;
            }
            i = parent;
        }
        let mut j = from;
        while j != i {
            let parent = (j - 1) / D;
            self.keys[j] = self.keys[parent];
            self.items.swap(j, parent);
            j = parent;
        }
        self.keys[i] = key;
    }

    /// Hole-style sift-down: the displaced key rides in a register and is
    /// stored exactly once; each level costs one child selection plus a
    /// single key store instead of a full swap.
    fn sift_down(&mut self, start: usize) {
        let n = self.keys.len();
        let key = self.keys[start];
        let mut i = start;
        loop {
            let first = D * i + 1;
            let (min, min_key) = match self.keys.get(first..first + D) {
                // A full node: a two-round tournament of selects, which the
                // compiler can lower to conditional moves rather than a
                // data-dependent branch per child. Keys are unique, so the
                // winner does not depend on how ties would be broken.
                Some(&[k0, k1, k2, k3]) => {
                    let (a, ka) = if k1 < k0 { (1, k1) } else { (0, k0) };
                    let (b, kb) = if k3 < k2 { (3, k3) } else { (2, k2) };
                    if kb < ka {
                        (first + b, kb)
                    } else {
                        (first + a, ka)
                    }
                }
                // The partial last node: scan its one to three children.
                _ if first < n => {
                    let mut min = first;
                    let mut min_key = self.keys[first];
                    for c in first + 1..n {
                        let k = self.keys[c];
                        if k < min_key {
                            min = c;
                            min_key = k;
                        }
                    }
                    (min, min_key)
                }
                _ => break,
            };
            if key <= min_key {
                break;
            }
            self.keys[i] = min_key;
            self.items.swap(i, min);
            i = min;
        }
        self.keys[i] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<i32> = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break() {
        let mut q: EventQueue<i32> = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_nanos(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_past_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
    }

    #[test]
    fn interleaved_schedule_pop() {
        // Scheduling from within the "handler" (typical DES pattern) keeps order.
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), "a");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "a");
        q.schedule(t + SimDuration::from_nanos(1), "b");
        q.schedule(t, "same-time"); // same instant as now: allowed
        assert_eq!(q.pop().unwrap().1, "same-time");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn reserve_and_high_water() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.reserve(64);
        for i in 0..10u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        for _ in 0..4 {
            q.pop();
        }
        q.schedule(SimTime::from_nanos(100), 100);
        // Peaked at 10 pending; the later schedule only reached 7.
        assert_eq!(q.high_water(), 10);
        assert_eq!(q.iter().count(), q.len());
    }

    #[test]
    fn lanes_merge_in_schedule_order() {
        // Same-instant entries pop in scheduling order whichever heap or
        // delay lane holds them; timer payloads come out through `From`.
        let mut q: EventQueue<i64, u8> = EventQueue::new();
        let t = SimTime::from_nanos(5);
        let delay = SimDuration::from_nanos(5);
        q.schedule_timer_after(delay, 1);
        q.schedule_after(delay, -5);
        q.schedule(t, -2);
        q.schedule_timer_after(delay, 3);
        q.schedule_after(delay, -6);
        q.schedule(SimTime::from_nanos(4), -4);
        assert_eq!((q.len(), q.high_water()), (6, 6));
        assert_eq!(q.iter().count(), 4, "iter skips timers only");
        let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![-4, 1, -5, -2, 3, -6]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_and_horizon_see_the_timer_lane() {
        let mut q: EventQueue<i64, u8> = EventQueue::new();
        q.schedule(SimTime::from_nanos(20), -1);
        q.schedule_timer_after(SimDuration::from_nanos(10), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(9)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_nanos(10)),
            Some((SimTime::from_nanos(10), 1))
        );
        q.advance_to(SimTime::from_nanos(20));
        assert_eq!(
            q.pop_at_or_before(SimTime::from_nanos(20)).map(|(_, e)| e),
            Some(-1)
        );
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_past_a_pending_timer_panics() {
        let mut q: EventQueue<i64, u8> = EventQueue::new();
        q.schedule(SimTime::from_nanos(20), -1);
        q.schedule_timer_after(SimDuration::from_nanos(10), 1);
        q.advance_to(SimTime::from_nanos(11));
    }

    #[test]
    fn lane_steps_wider_than_32_bits_fall_back_to_the_heap() {
        // An event and a timer 10 s ahead at each of three instants: the
        // second pair's time step from its lane's tail is exactly u32::MAX
        // ns, so it joins the lane; the third pair's is 2^32 ns, so it goes
        // to the heap of its kind. All six pop in key order.
        let mut q: EventQueue<i64, u8> = EventQueue::new();
        let delay = SimDuration::from_secs(10);
        let wide = u64::from(u32::MAX);
        for (now, event, timer) in [(0, -1, 1), (wide, -2, 2), (2 * wide + 1, -3, 3)] {
            q.advance_to(SimTime::from_nanos(now));
            q.schedule_after(delay, event);
            q.schedule_timer_after(delay, timer);
        }
        let event_lane = q.event_lanes.lanes[0].entries.len();
        assert_eq!((event_lane, q.events.keys.len()), (2, 1));
        let timer_lane = q.timer_lanes.lanes[0].entries.len();
        assert_eq!((timer_lane, q.timers.keys.len()), (2, 1));
        let popped: Vec<(u64, i64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        let at = delay.as_nanos();
        let expected = vec![
            (at, -1),
            (at, 1),
            (at + wide, -2),
            (at + wide, 2),
            (at + 2 * wide + 1, -3),
            (at + 2 * wide + 1, 3),
        ];
        assert_eq!(popped, expected);
    }

    #[test]
    fn lane_entries_are_16_and_24_bytes() {
        // Two u32 key steps beside the payload: 16 bytes with an 8-byte
        // timer handle, 24 with a 16-byte, 8-aligned payload such as
        // netsim's event. A u128 key would make both 32.
        assert_eq!(std::mem::size_of::<LaneEntry<crate::TimerHandle>>(), 16);
        assert_eq!(std::mem::size_of::<LaneEntry<[u64; 2]>>(), 24);
    }

    #[test]
    fn max_time_events_pop_cleanly() {
        // The packed key must not overflow or wrap at the top of the time
        // range.
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(SimTime::from_nanos(u64::MAX), "end");
        q.schedule(SimTime::from_nanos(1), "start");
        assert_eq!(q.pop().unwrap().1, "start");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_nanos(u64::MAX), "end"));
    }

    proptest! {
        /// Popped timestamps are nondecreasing, and equal timestamps preserve
        /// insertion order, for arbitrary schedules.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q: EventQueue<usize> = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }
    }
}
