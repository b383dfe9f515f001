//! Interned routes: flyweight hop sequences shared by packets and subflows.
//!
//! A [`Route`] used to be an `Rc<[QueueId]>` — one refcounted allocation per
//! subflow direction, cloned into every packet. At k=32 FatTree scale
//! (8192 hosts, ≫10⁴ connections) those clones dominate per-connection
//! memory, so routes are now *interned*: the hop sequences live in one flat
//! per-thread arena and a `Route` is an 8-byte `Copy` handle (offset + len)
//! into it. Identical hop sequences dedup to the same handle, which also
//! makes derived equality content-equality.
//!
//! The store is thread-local (not global) for the same reason the old type
//! was `Rc` and not `Arc`: a [`crate::Simulation`] is single-threaded by
//! construction, and parallel drivers (orchestra workers, test threads)
//! replicate whole simulations per thread. Repeated runs of the *same*
//! topology on one thread re-intern identical hop sequences, so the arena
//! stays bounded by the set of distinct paths, not by run count.

use std::cell::RefCell;

use crate::ids::QueueId;

/// An interned route: the ordered queues a packet traverses.
///
/// 8 bytes, `Copy`, content-deduplicated — share it freely between subflows
/// and packets. Equality is content equality (interning guarantees one
/// handle per distinct hop sequence on a given thread).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Route {
    start: u32,
    len: u32,
}

/// The empty route (packets deliver directly to their destination).
pub const EMPTY_ROUTE: Route = Route { start: 0, len: 0 };

struct RouteStore {
    /// All interned hop sequences, back to back.
    hops: Vec<QueueId>,
    /// Interned routes sorted by hop-sequence content (binary-search dedup;
    /// a map keyed by boxed slices would cost more than the `Rc`s it
    /// replaces when most routes are distinct, as in permutation traffic).
    index: Vec<Route>,
}

thread_local! {
    static STORE: RefCell<RouteStore> = const {
        RefCell::new(RouteStore {
            hops: Vec::new(),
            index: Vec::new(),
        })
    };
}

/// Build (intern) a [`Route`] from a slice of queue ids.
///
/// Returns the existing handle when the same hop sequence was interned
/// before on this thread; otherwise appends the hops to the arena.
pub fn route(hops: &[QueueId]) -> Route {
    if hops.is_empty() {
        // Canonical handle: every empty route is `{start: 0, len: 0}` so
        // derived equality holds regardless of interning order.
        return EMPTY_ROUTE;
    }
    STORE.with(|cell| {
        let mut store = cell.borrow_mut();
        let RouteStore { hops: arena, index } = &mut *store;
        match index
            .binary_search_by(|r| arena[r.start as usize..(r.start + r.len) as usize].cmp(hops))
        {
            Ok(i) => index[i],
            Err(i) => {
                #[expect(
                    clippy::expect_used,
                    reason = "setup-time capacity guard, routes are interned before the event loop starts"
                )]
                let start = u32::try_from(arena.len()).expect("route arena full");
                #[expect(
                    clippy::expect_used,
                    reason = "setup-time capacity guard, routes are interned before the event loop starts"
                )]
                let len = u32::try_from(hops.len()).expect("route too long");
                arena.extend_from_slice(hops);
                let r = Route { start, len };
                index.insert(i, r);
                r
            }
        }
    })
}

/// Pre-size this thread's route arena for `routes` distinct routes totalling
/// `total_hops` hops (called by [`crate::Simulation::preallocate`] with
/// topology-derived counts so interning large topologies doesn't regrow the
/// arena repeatedly).
///
/// Ensure-total semantics: a store that already holds that much (e.g. from a
/// previous scenario on this thread) is left alone instead of being grown by
/// another `total_hops` — `Vec::reserve`'s "additional" semantics would
/// double-charge every scenario after the first.
pub fn reserve(routes: usize, total_hops: usize) {
    STORE.with(|cell| {
        let mut store = cell.borrow_mut();
        let extra = routes.saturating_sub(store.index.len());
        store.index.reserve(extra);
        let extra = total_hops.saturating_sub(store.hops.len());
        store.hops.reserve(extra);
    });
}

/// Drop every interned route on this thread and release the arena's memory.
///
/// **All outstanding [`Route`] handles on this thread are invalidated** —
/// using one afterwards yields wrong hops or a panic. Only call between
/// scenarios, after every `Simulation` (and anything else holding a
/// `Route`) has been dropped: benchmark harnesses use this so each
/// scenario's memory accounting starts from an empty arena, and soak tests
/// use it to bound arena growth across topologies.
pub fn clear() {
    STORE.with(|cell| {
        let mut store = cell.borrow_mut();
        store.hops = Vec::new();
        store.index = Vec::new();
    });
}

/// Occupancy of this thread's route arena: `(distinct routes, total hops)`.
/// Diagnostics for the perf harness and recycle tests.
pub fn store_stats() -> (usize, usize) {
    STORE.with(|cell| {
        let store = cell.borrow();
        (store.index.len(), store.hops.len())
    })
}

impl Route {
    /// Number of hops.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the route has no hops (delivery is direct).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th hop, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<QueueId> {
        if i < self.len as usize {
            Some(STORE.with(|cell| cell.borrow().hops[self.start as usize + i]))
        } else {
            None
        }
    }

    /// The `i`-th hop. Panics if out of range (mirrors slice indexing).
    #[inline]
    pub fn hop(&self, i: usize) -> QueueId {
        assert!(i < self.len as usize, "hop {i} out of range for {self:?}");
        STORE.with(|cell| cell.borrow().hops[self.start as usize + i])
    }

    /// First hop, if any.
    pub fn first(&self) -> Option<QueueId> {
        self.get(0)
    }

    /// Last hop, if any.
    pub fn last(&self) -> Option<QueueId> {
        match self.len {
            0 => None,
            n => self.get(n as usize - 1),
        }
    }

    /// Copy the hops out as a `Vec` (tests, diagnostics; not the hot path).
    pub fn to_vec(&self) -> Vec<QueueId> {
        STORE.with(|cell| {
            cell.borrow().hops[self.start as usize..(self.start + self.len) as usize].to_vec()
        })
    }

    /// Iterate the hops by value.
    pub fn iter(&self) -> impl Iterator<Item = QueueId> {
        self.to_vec().into_iter()
    }
}

impl std::fmt::Debug for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, q) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_identical_sequences() {
        let a = route(&[QueueId(10), QueueId(11)]);
        let b = route(&[QueueId(10), QueueId(11)]);
        assert_eq!(a, b);
        let c = route(&[QueueId(10), QueueId(12)]);
        assert_ne!(a, c);
    }

    #[test]
    fn accessors_mirror_slices() {
        let hops = [QueueId(3), QueueId(1), QueueId(4)];
        let r = route(&hops);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.first(), Some(QueueId(3)));
        assert_eq!(r.last(), Some(QueueId(4)));
        assert_eq!(r.get(1), Some(QueueId(1)));
        assert_eq!(r.get(3), None);
        assert_eq!(r.hop(2), QueueId(4));
        assert_eq!(r.to_vec(), hops.to_vec());
        assert_eq!(r.iter().collect::<Vec<_>>(), hops.to_vec());
    }

    #[test]
    fn empty_route_is_canonical() {
        let a = route(&[]);
        let b = route(&[]);
        assert_eq!(a, b);
        assert_eq!(EMPTY_ROUTE.len(), 0);
        assert!(a.is_empty());
        assert_eq!(a.first(), None);
        assert_eq!(a.last(), None);
    }

    #[test]
    fn debug_prints_content() {
        let r = route(&[QueueId(7)]);
        assert_eq!(format!("{r:?}"), "[q7]");
    }

    #[test]
    fn store_grows_only_on_new_content() {
        let (routes0, hops0) = store_stats();
        let r = route(&[QueueId(900), QueueId(901), QueueId(902)]);
        let (routes1, hops1) = store_stats();
        assert_eq!(routes1, routes0 + 1);
        assert_eq!(hops1, hops0 + 3);
        let r2 = route(&[QueueId(900), QueueId(901), QueueId(902)]);
        assert_eq!(r, r2);
        assert_eq!(store_stats(), (routes1, hops1));
    }
}
