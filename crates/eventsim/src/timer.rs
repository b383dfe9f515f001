//! Cancellable timers: a generational slab with lazy queue drainage.
//!
//! The [`EventQueue`](crate::EventQueue) itself has no removal operation —
//! deleting from the middle of a heap is O(n) and would perturb the layout.
//! Instead, cancellation is **lazy**: arming a timer stores its metadata in a
//! [`TimerSlab`] and puts only the returned [`TimerHandle`] on the queue's
//! timer side, a timer delay lane or the timer heap
//! ([`EventQueue::schedule_timer_after`](crate::EventQueue::schedule_timer_after));
//! cancelling releases the slab slot (bumping its generation); when the
//! handle eventually pops, [`TimerSlab::claim`] returns `None` for it and the
//! driver drops it without dispatching. Dead entries thus cost one pop each
//! — the same count the old "version the token, ignore stale fires at the
//! endpoint" scheme paid — but they wait apart from packet traffic, so
//! however many pile up (per-ACK RTO restarts leave ~10⁵ at k=8 FatTree
//! scale) link events, which wait in the queue's event lanes and event heap,
//! never sift past them. An RTO timer's delay is most often the minimum or
//! the initial RTO, so nearly every one waits in a timer lane at 16 bytes
//! (key steps plus handle). The bookkeeping is centralized, O(1), and
//! type-checked instead of re-implemented per endpoint.
//!
//! Generations make handle reuse safe: a slot freed by cancel/claim
//! increments its generation, so a handle held past its timer's lifetime can
//! never alias a newer timer in the same slot.

use std::num::NonZeroU32;

/// A reference to an armed timer. `Copy`, 8 bytes; stays valid until the
/// timer fires or is cancelled, after which [`TimerSlab::claim`] /
/// [`TimerSlab::cancel`] return `None` for it.
///
/// The generation is `NonZeroU32`, so `Option<TimerHandle>` is also 8 bytes
/// — endpoints keep per-subflow timer fields at no extra cost (at FatTree
/// scale there are two such fields per subflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    slot: u32,
    gen: NonZeroU32,
}

/// Occupancy is encoded in the generation, not an `Option`: a handle's
/// generation matches its slot's only between `arm` and the first
/// `cancel`/`claim` (which bump it), so a matching generation proves the
/// slot is live and `meta` is just swapped out with its default. For the
/// network simulation's `M = (EndpointId, u64)` this keeps the slot at
/// 24 bytes instead of 32 — at FatTree scale the slab is sized for two
/// timers per endpoint, so the `Option` tag alone was ~8 KB per 1k hosts.
#[derive(Debug)]
struct TimerSlot<M> {
    gen: NonZeroU32,
    meta: M,
}

/// Generations start at 1 (the niche) and skip 0 when wrapping.
fn next_gen(g: NonZeroU32) -> NonZeroU32 {
    NonZeroU32::new(g.get().wrapping_add(1)).unwrap_or(NonZeroU32::MIN)
}

/// Slab of armed timers, indexed by generational [`TimerHandle`]s.
///
/// `M` is the per-timer metadata the driver needs at fire time (for the
/// network simulation: the owning endpoint and its opaque token).
#[derive(Debug)]
pub struct TimerSlab<M> {
    slots: Vec<TimerSlot<M>>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
    stale_drains: u64,
}

impl<M: Default> Default for TimerSlab<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Default> TimerSlab<M> {
    /// An empty slab.
    pub fn new() -> Self {
        TimerSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
            stale_drains: 0,
        }
    }

    /// Pre-size for `cap` concurrently armed timers.
    pub fn reserve(&mut self, cap: usize) {
        if let Some(extra) = cap.checked_sub(self.slots.len()) {
            self.slots.reserve(extra);
            self.free.reserve(extra);
        }
    }

    /// Arm a timer carrying `meta`; the returned handle cancels or claims it.
    pub fn arm(&mut self, meta: M) -> TimerHandle {
        self.live += 1;
        if self.live > self.peak {
            self.peak = self.live;
        }
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.meta = meta;
            TimerHandle { slot, gen: s.gen }
        } else {
            // Slab growth guard, not a hot-path invariant: 2^32 concurrently
            // armed timers would exhaust memory long before this trips.
            assert!(self.slots.len() < u32::MAX as usize, "timer slab full");
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the assert above bounds the slab below u32::MAX"
            )]
            let slot = self.slots.len() as u32;
            self.slots.push(TimerSlot {
                gen: NonZeroU32::MIN,
                meta,
            });
            TimerHandle {
                slot,
                gen: NonZeroU32::MIN,
            }
        }
    }

    /// Cancel an armed timer, returning its metadata; `None` if the handle
    /// is stale (already fired or already cancelled). The heap event becomes
    /// a dead entry drained at pop.
    pub fn cancel(&mut self, h: TimerHandle) -> Option<M> {
        self.release(h)
    }

    /// Consume a firing timer at pop time: metadata if the timer is still
    /// live, `None` if it was cancelled (counted in
    /// [`stale_drains`](Self::stale_drains)).
    pub fn claim(&mut self, h: TimerHandle) -> Option<M> {
        let meta = self.release(h);
        if meta.is_none() {
            self.stale_drains += 1;
        }
        meta
    }

    fn release(&mut self, h: TimerHandle) -> Option<M> {
        let s = self.slots.get_mut(h.slot as usize)?;
        if s.gen != h.gen {
            return None;
        }
        let meta = std::mem::take(&mut s.meta);
        s.gen = next_gen(s.gen);
        self.free.push(h.slot);
        self.live -= 1;
        Some(meta)
    }

    /// Timers currently armed.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The most timers ever armed at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Cancelled timers whose dead heap entries were drained via
    /// [`claim`](Self::claim).
    pub fn stale_drains(&self) -> u64 {
        self.stale_drains
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_claim_roundtrip() {
        let mut slab = TimerSlab::new();
        let h = slab.arm("rto");
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.claim(h), Some("rto"));
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.stale_drains(), 0);
    }

    #[test]
    fn cancel_makes_claim_stale() {
        let mut slab = TimerSlab::new();
        let h = slab.arm(7u64);
        assert_eq!(slab.cancel(h), Some(7));
        // The heap event eventually pops; claiming it drains a stale entry.
        assert_eq!(slab.claim(h), None);
        assert_eq!(slab.stale_drains(), 1);
        // Double-cancel is a no-op, not a drain.
        assert_eq!(slab.cancel(h), None);
        assert_eq!(slab.stale_drains(), 1);
    }

    #[test]
    fn reused_slot_does_not_alias_old_handle() {
        let mut slab = TimerSlab::new();
        let h1 = slab.arm(1u32);
        assert_eq!(slab.cancel(h1), Some(1));
        let h2 = slab.arm(2u32);
        // Same slot, new generation.
        assert_eq!(h1.slot, h2.slot);
        assert_ne!(h1.gen, h2.gen);
        assert_eq!(slab.claim(h1), None, "stale handle must not hit new timer");
        assert_eq!(slab.claim(h2), Some(2));
    }

    #[test]
    fn peak_tracks_maximum_concurrency() {
        let mut slab = TimerSlab::new();
        let hs: Vec<_> = (0..5).map(|i| slab.arm(i)).collect();
        assert_eq!(slab.peak(), 5);
        for h in hs {
            slab.cancel(h);
        }
        slab.arm(9);
        assert_eq!(slab.peak(), 5);
        assert_eq!(slab.live(), 1);
    }
}
