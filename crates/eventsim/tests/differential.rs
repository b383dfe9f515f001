//! Differential property tests: the optimized event core ([`EventQueue`]:
//! 4-ary packed-key event and timer heaps plus FIFO event and timer delay
//! lanes, and the generational [`TimerSlab`] with lazy cancellation) against
//! a deliberately naive reference implementation.
//!
//! The reference is a `std::collections::BinaryHeap` of `Reverse((time,
//! seq))` entries plus, for the timer model, a cancelled-ID set that is
//! filtered at pop — the textbook way to write a DES queue. Every interleaving
//! of schedules, cancellations, and pops must dispatch the *exact* same
//! `(time, id)` sequence from both sides, including FIFO ordering of
//! simultaneous events (within one source and across the heaps and the delay
//! lanes) and the invisibility of cancelled timers. The time range is kept
//! tiny so collisions (ties) are common rather than incidental.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use eventsim::{EventQueue, SimDuration, SimTime, TimerHandle, TimerSlab};
use proptest::prelude::*;

/// One step of the differential schedule/cancel/pop interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `dt` nanoseconds from the current clock.
    Schedule(u64),
    /// Cancel the k-th (mod live count) still-armed timer.
    Cancel(u8),
    /// Pop and dispatch the next live event from both sides.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..50).prop_map(Op::Schedule),
        2 => any::<u8>().prop_map(Op::Cancel),
        3 => Just(Op::Pop),
    ]
}

/// One step of the all-source interleaving: plain events, delay-lane events
/// and timers share the queue, and only timers can be cancelled.
#[derive(Debug, Clone)]
enum LaneOp {
    /// Schedule a plain event on the event heap, `dt` ns from now.
    Event(u64),
    /// Schedule a plain event `dt` ns from now through `schedule_after`.
    After(u64),
    /// Arm a timer `dt` ns from now through `schedule_timer_after`.
    Timer(u64),
    /// Cancel the k-th (mod live count) still-armed timer.
    Cancel(u8),
    /// Pop and dispatch the next live entry from both sides.
    Pop,
    /// Pop the next live entry due at most `dt` ns from now, from both sides.
    PopBy(u64),
}

/// The delays `LaneOp::After` and `LaneOp::Timer` draw from: more than the
/// queue's eight delay lanes of each kind, so a delay may find every lane of
/// its kind taken and need an empty one re-keyed or, failing that, the heap
/// of its kind.
const AFTER_DELAYS: [u64; 12] = [0, 1, 2, 3, 5, 7, 8, 11, 13, 16, 18, 20];

/// What the all-source queue pops: a plain event's id, or a timer's handle
/// (converted from the timer side's payload).
#[derive(Debug)]
enum Entry {
    Event(u64),
    Timer(TimerHandle),
}

impl From<TimerHandle> for Entry {
    fn from(h: TimerHandle) -> Entry {
        Entry::Timer(h)
    }
}

/// Pop the all-source side until a plain event or a live timer due at most
/// at `horizon` dispatches.
fn pop_all_sources(
    q: &mut EventQueue<Entry, TimerHandle>,
    slab: &mut TimerSlab<u64>,
    horizon: SimTime,
) -> Option<(u64, u64)> {
    while let Some((t, e)) = q.pop_at_or_before(horizon) {
        let id = match e {
            Entry::Event(id) => Some(id),
            Entry::Timer(h) => slab.claim(h),
        };
        if let Some(id) = id {
            return Some((t.as_nanos(), id));
        }
    }
    None
}

/// Pop the optimized side until a live timer dispatches: cancelled handles
/// drain silently, exactly as `netsim`'s event loop treats them.
fn pop_optimized(q: &mut EventQueue<TimerHandle>, slab: &mut TimerSlab<u64>) -> Option<(u64, u64)> {
    while let Some((t, h)) = q.pop() {
        if let Some(id) = slab.claim(h) {
            return Some((t.as_nanos(), id));
        }
    }
    None
}

/// Pop the reference side: skip entries whose ID was cancelled.
fn pop_reference(
    heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: &mut BTreeSet<u64>,
) -> Option<(u64, u64)> {
    pop_reference_by(heap, cancelled, u64::MAX)
}

/// Pop the reference side's next live entry due at most at `horizon` ns,
/// draining cancelled entries due by then.
fn pop_reference_by(
    heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>,
    cancelled: &mut BTreeSet<u64>,
    horizon: u64,
) -> Option<(u64, u64)> {
    while let Some(&Reverse((t, _seq, id))) = heap.peek() {
        if t > horizon {
            break;
        }
        heap.pop();
        if cancelled.remove(&id) {
            continue;
        }
        return Some((t, id));
    }
    None
}

proptest! {
    /// Schedules interleaved with pops (no cancellation): the 4-ary packed
    /// heap pops the identical sequence as the reference binary heap, ties
    /// included.
    #[test]
    fn pop_order_matches_reference_heap(
        ops in proptest::collection::vec(prop_oneof![
            2 => (0u64..20).prop_map(Op::Schedule),
            1 => Just(Op::Pop),
        ], 1..400),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut next_id = 0u64;
        let drive = |q: &mut EventQueue<u64>, heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>| {
            (
                q.pop().map(|(t, id)| (t.as_nanos(), id)),
                // seq doubles as the reference's FIFO tie-break.
                heap.pop().map(|Reverse((t, _seq, id))| (t, id)),
            )
        };
        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let at = q.now() + SimDuration::from_nanos(dt);
                    let id = next_id;
                    next_id += 1;
                    heap.push(Reverse((at.as_nanos(), id, id)));
                    q.schedule(at, id);
                }
                Op::Pop | Op::Cancel(_) => {
                    let (a, b) = drive(&mut q, &mut heap);
                    prop_assert_eq!(a, b);
                }
            }
        }
        loop {
            let (a, b) = drive(&mut q, &mut heap);
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Full timer model: arm / cancel / pop in arbitrary interleavings. The
    /// slab's lazy cancellation (stale handles drained at pop) must be
    /// observationally identical to the reference's cancelled-ID filter.
    #[test]
    fn timer_cancellation_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut q: EventQueue<TimerHandle> = EventQueue::new();
        let mut slab: TimerSlab<u64> = TimerSlab::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut cancelled: BTreeSet<u64> = BTreeSet::new();
        let mut live: Vec<(TimerHandle, u64)> = Vec::new();
        let mut next_id = 0u64;
        let mut ref_seq = 0u64;
        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let at = q.now() + SimDuration::from_nanos(dt);
                    let id = next_id;
                    next_id += 1;
                    let h = slab.arm(id);
                    q.schedule(at, h);
                    heap.push(Reverse((at.as_nanos(), ref_seq, id)));
                    ref_seq += 1;
                    live.push((h, id));
                }
                Op::Cancel(k) => {
                    if !live.is_empty() {
                        let (h, id) = live.remove(k as usize % live.len());
                        prop_assert_eq!(slab.cancel(h), Some(id));
                        // Double-cancel through the same handle must be inert.
                        prop_assert_eq!(slab.cancel(h), None);
                        cancelled.insert(id);
                    }
                }
                Op::Pop => {
                    let a = pop_optimized(&mut q, &mut slab);
                    let b = pop_reference(&mut heap, &mut cancelled);
                    prop_assert_eq!(a, b);
                    if let Some((_, id)) = a {
                        live.retain(|&(_, i)| i != id);
                    }
                }
            }
        }
        // Drain to empty: the tails must agree too.
        loop {
            let a = pop_optimized(&mut q, &mut slab);
            let b = pop_reference(&mut heap, &mut cancelled);
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(slab.live(), 0);
    }

    /// Events, delay-lane events and timers interleaved across every source
    /// of the queue, with same-nanosecond ties between them common and more
    /// distinct delays than delay lanes of either kind, so lanes are re-keyed
    /// and both heaps take lane overflow: the merged pop sequence, full or cut
    /// at a horizon, must be the reference heap's, which holds every entry in
    /// one heap. The queue's pending count and high-water mark must be the
    /// reference's (cancelled timers stay pending until they drain, on both
    /// sides), and `iter` must visit exactly the pending non-timer entries.
    #[test]
    fn two_lane_order_matches_reference(
        ops in proptest::collection::vec(prop_oneof![
            3 => (0u64..20).prop_map(LaneOp::Event),
            4 => (0..AFTER_DELAYS.len()).prop_map(|i| LaneOp::After(AFTER_DELAYS[i])),
            3 => (0..AFTER_DELAYS.len()).prop_map(|i| LaneOp::Timer(AFTER_DELAYS[i])),
            2 => any::<u8>().prop_map(LaneOp::Cancel),
            3 => Just(LaneOp::Pop),
            2 => (0u64..20).prop_map(LaneOp::PopBy),
        ], 1..400),
    ) {
        let mut q: EventQueue<Entry, TimerHandle> = EventQueue::new();
        let mut slab: TimerSlab<u64> = TimerSlab::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut cancelled: BTreeSet<u64> = BTreeSet::new();
        let mut timer_ids: BTreeSet<u64> = BTreeSet::new();
        let mut live: Vec<(TimerHandle, u64)> = Vec::new();
        let mut ref_peak = 0usize;
        let mut next_id = 0u64;
        for op in ops {
            match op {
                LaneOp::Event(dt) | LaneOp::After(dt) | LaneOp::Timer(dt) => {
                    let delay = SimDuration::from_nanos(dt);
                    let at = q.now() + delay;
                    let id = next_id;
                    next_id += 1;
                    match op {
                        LaneOp::Timer(_) => {
                            let h = slab.arm(id);
                            q.schedule_timer_after(delay, h);
                            live.push((h, id));
                            timer_ids.insert(id);
                        }
                        LaneOp::After(_) => q.schedule_after(delay, Entry::Event(id)),
                        _ => q.schedule(at, Entry::Event(id)),
                    }
                    // Ids are issued in scheduling order, so they double as
                    // the reference's FIFO tie-break.
                    heap.push(Reverse((at.as_nanos(), id, id)));
                    ref_peak = ref_peak.max(heap.len());
                }
                LaneOp::Cancel(k) => {
                    if !live.is_empty() {
                        let (h, id) = live.remove(k as usize % live.len());
                        prop_assert_eq!(slab.cancel(h), Some(id));
                        cancelled.insert(id);
                    }
                }
                LaneOp::Pop | LaneOp::PopBy(_) => {
                    let horizon = match op {
                        LaneOp::PopBy(dt) => q.now() + SimDuration::from_nanos(dt),
                        _ => SimTime::from_nanos(u64::MAX),
                    };
                    let a = pop_all_sources(&mut q, &mut slab, horizon);
                    let b = pop_reference_by(&mut heap, &mut cancelled, horizon.as_nanos());
                    prop_assert_eq!(a, b);
                    if let Some((_, id)) = a {
                        live.retain(|&(_, i)| i != id);
                    }
                }
            }
            prop_assert_eq!(q.len(), heap.len());
            prop_assert_eq!(q.high_water(), ref_peak);
            let ref_events = heap
                .iter()
                .filter(|Reverse((_, _, id))| !timer_ids.contains(id))
                .count();
            prop_assert_eq!(q.iter().count(), ref_events);
        }
        loop {
            let a = pop_all_sources(&mut q, &mut slab, SimTime::from_nanos(u64::MAX));
            let b = pop_reference(&mut heap, &mut cancelled);
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(q.high_water(), ref_peak);
        prop_assert_eq!(slab.live(), 0);
    }
}
