//! The rate allocator: a price-clearing fluid fixed point plus a
//! progressive-filling max-min projection.
//!
//! Each recompute answers "what rate does every subflow send at now?" in
//! two stages:
//!
//! 1. **Price-clearing sweeps.** Every link carries a persistent loss
//!    *price* — its current loss probability. Each sweep sums the current
//!    rates into link loads, then scales each price by its link's
//!    utilisation `load/capacity`: overloaded links get more expensive,
//!    underloaded links decay toward the idle floor. Route losses sum the
//!    link prices, and [`fluid::rates::target_rates`] maps them to each
//!    flow's per-path equilibrium rates (Reno/LIA/OLIA/uncoupled — the
//!    same closed forms the ODE backend converges to); rates move half
//!    the way (`DAMPING`) toward the target each sweep. This tâtonnement
//!    mirrors what a drop-tail queue does in the packet backend: loss is
//!    not a fixed function of load, it is whatever value makes TCP demand
//!    meet capacity. At the fixed point every busy link sits exactly at
//!    the loss probability that clears it, which is why the per-class
//!    equilibria land on the packet simulator's numbers. This stage
//!    encodes the algorithm differences the paper is about; it is where
//!    LIA leaks onto congested paths and OLIA concentrates on the
//!    least-congested ones.
//!
//! 2. **Max-min projection.** The sweep output is a *demand* per subflow,
//!    not a feasible allocation (prices a few sweeps from convergence
//!    tolerate loads slightly above capacity). Progressive filling — grow
//!    every unfrozen subflow's rate at one common level, freezing a
//!    subflow when it reaches its demand or its tightest link saturates —
//!    projects the demands onto the capacity region. This is the
//!    dslab-style throughput model: a single water-filling pass per
//!    recompute. An indexed min-heap holds one entry per link that still
//!    carries an unfrozen subflow, keyed on the level at which it
//!    saturates. Keys are raised lazily: freezing a subflow lowers a link's
//!    key only when the link's level drops below it, and a key that reaches
//!    the top of the heap stale is raised to its link's level before the
//!    top is read again. A link leaves the heap when it saturates or its
//!    last subflow freezes. For S subflows of path length L over N links a
//!    pass costs O(S log S) for the demand sort plus O(S·L·log N) for the
//!    key moves.
//!
//! Goodput finally discounts each path's allocated rate by its route loss,
//! mirroring how the packet backend counts delivered (not sent) packets.
//!
//! A recompute first gathers the active subflows, in `active` order, into
//! a dense table: a CSR link list plus each subflow's RTT, rate, target
//! and tightest capacity. The sweeps, the fill and the goodput pass all run
//! over that table, and the allocated rates are scattered back to the flow
//! slots once at the end. A sweep runs in columns: link loads and prices,
//! then every subflow's TCP rate and probing floor, then every flow's rule
//! in place on its TCP rates, then every subflow's damped step. Each float
//! keeps the operation sequence of a sweep that finished one flow before
//! starting the next (the tests keep that sweep as the reference), so the
//! columns change speed, not results.
//!
//! Everything here is deterministic: iteration follows `active` order and
//! link index order, floats are compared with `total_cmp` or by their bits,
//! and scratch buffers are reused across recomputes so the hot path does
//! not allocate once it reaches steady state.

use std::ops::Range;

use fluid::rates::{olia_best_paths, target_rates, RateRule};

use crate::sim::{FlowSlot, MAX_SUBFLOWS};

/// Per-link price floor: where idle-link prices decay to.
const P_LINK_MIN: f64 = 1e-5;
/// Per-link price cap: where an overloaded link's price saturates (the
/// packet backend's drop-everything regime).
const P_LINK_CAP: f64 = 0.45;
/// Route-loss floor: no path ever looks loss-free (the `1/√p` equilibria
/// diverge at p = 0). Plays the role of the packet backend's
/// ambient/probing losses.
const P_FLOOR: f64 = 2e-4;
/// Route-loss ceiling, keeping equilibrium rates positive and finite when
/// many links stack up.
const P_CEILING: f64 = 0.45;
/// Fraction of the distance to the target rate moved per sweep.
const DAMPING: f64 = 0.5;
/// Probing floor as a fraction of the path's fair-TCP window: every
/// established path keeps at least `PROBE_FRAC·√(2/p)` MSS per RTT in
/// flight (and never less than one MSS per RTT). This models the residual
/// window coupled controllers hold on paths they have abandoned —
/// packet-level OLIA retains roughly a third of the fair window on its
/// non-best paths rather than draining them to zero.
const PROBE_FRAC: f64 = 1.0 / 3.0;

/// Reusable buffers for [`recompute`]; hot-path allocations amortize to
/// zero once capacities stabilize.
#[derive(Debug, Default)]
pub(crate) struct AllocScratch {
    loads: Vec<f64>,
    ploss: Vec<f64>,
    sub: Subflows,
    fill: Fill,
}

/// The active subflows of one recompute, in `active` order: active flow
/// `k` owns subflows `flow_off[k]..flow_off[k + 1]`, one per path.
#[derive(Debug, Default)]
struct Subflows {
    flow_off: Vec<u32>,
    /// Rate-coupling rule, per active flow.
    rule: Vec<RateRule>,
    // CSR subflow → links crossed.
    link_off: Vec<u32>,
    links: Vec<u32>,
    rtt: Vec<f64>,
    /// The warm start, then each sweep's rates, then the fill's demands.
    rate: Vec<f64>,
    /// Each sweep's target rate: the path's TCP rate, then its flow's rule.
    tgt: Vec<f64>,
    /// Tightest capacity along the path, pkts/s.
    min_cap: Vec<f64>,
}

impl Subflows {
    /// Rebuild the table from the flows in `active`.
    fn gather(&mut self, caps: &[f64], flows: &[FlowSlot], active: &[u32]) {
        self.flow_off.clear();
        self.rule.clear();
        self.link_off.clear();
        self.links.clear();
        self.rtt.clear();
        self.rate.clear();
        self.min_cap.clear();
        self.flow_off.push(0);
        self.link_off.push(0);
        for &fi in active {
            let f = &flows[fi as usize];
            self.rule.push(f.rule);
            let (ends, links) = f.hops();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`links` only grows in this loop, and the assert after it bounds its length to u32"
            )]
            let base = self.links.len() as u32;
            self.links.extend_from_slice(links);
            let mut start = 0;
            for &end in ends {
                self.link_off.push(base + end);
                self.min_cap
                    .push(min_cap(caps, &links[start as usize..end as usize]));
                start = end;
            }
            let (rtts, rates) = f.rtts_rates();
            self.rtt.extend_from_slice(rtts);
            self.rate.extend_from_slice(rates);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "every path crosses a link, so the subflow count is at most the link count the assert below bounds to u32"
            )]
            self.flow_off.push(self.rate.len() as u32);
        }
        // One bound for every cast above and every subflow index a recompute
        // makes: subflows never outnumber the links they cross.
        assert!(
            u32::try_from(self.links.len()).is_ok(),
            "subflow table overflow"
        );
        self.tgt.resize(self.rate.len(), 0.0);
    }

    /// Number of subflows.
    fn len(&self) -> usize {
        self.rate.len()
    }

    /// Subflow indices of active flow `k`.
    #[inline]
    fn flow(&self, k: usize) -> Range<usize> {
        self.flow_off[k] as usize..self.flow_off[k + 1] as usize
    }

    /// Link indices of subflow `j`.
    #[inline]
    fn path(&self, j: usize) -> &[u32] {
        &self.links[self.link_off[j] as usize..self.link_off[j + 1] as usize]
    }
}

/// Water-filling state of one [`max_min_fill`] pass.
#[derive(Debug, Default)]
struct Fill {
    /// The allocation; until the fill, each sweep's probing floors.
    alloc: Vec<f64>,
    frozen: Vec<bool>,
    /// Subflows in nondecreasing demand order.
    order: Vec<u32>,
    // CSR link → subflows crossing it, and the write cursor that fills it.
    link_off: Vec<u32>,
    link_sub: Vec<u32>,
    cursor: Vec<u32>,
    // Per link: capacity not yet consumed at level `lvl`, and the number of
    // unfrozen subflows crossing it.
    rem: Vec<f64>,
    nun: Vec<u32>,
    lvl: Vec<f64>,
    heap: LinkHeap,
}

/// Route loss for one path: clamped sum of link losses.
#[inline]
fn route_loss(ploss: &[f64], links: &[u32]) -> f64 {
    let mut p = 0.0;
    for &l in links {
        p += ploss[l as usize];
    }
    p.clamp(P_FLOOR, P_CEILING)
}

/// Tightest capacity along a path, packets per second.
#[inline]
fn min_cap(caps: &[f64], links: &[u32]) -> f64 {
    let mut c = f64::INFINITY;
    for &l in links {
        c = c.min(caps[l as usize]);
    }
    c
}

/// Recompute rates and goodputs for every flow in `active` (indices into
/// `flows`), against link capacities `caps` (pkts/s). `link_loss` is the
/// persistent per-link price state: read as the warm start, written back
/// with the cleared prices. `sweeps` is the number of price-clearing
/// sweeps. On return each active slot's rates hold the feasible
/// allocation and `goodput` the loss-discounted delivered rate.
pub(crate) fn recompute(
    caps: &[f64],
    sweeps: usize,
    flows: &mut [FlowSlot],
    active: &[u32],
    s: &mut AllocScratch,
    link_loss: &mut Vec<f64>,
) {
    s.begin(caps, flows, active, link_loss);
    // Stage 1: price-clearing sweeps (tâtonnement) of the fluid fixed
    // point.
    for _ in 0..sweeps {
        s.sweep(caps);
    }
    s.finish(caps, flows, active, link_loss);
}

impl AllocScratch {
    /// Gather the table and warm-start the prices from the previous
    /// recompute (idle floor for links that did not exist yet).
    fn begin(
        &mut self,
        caps: &[f64],
        flows: &[FlowSlot],
        active: &[u32],
        link_loss: &mut Vec<f64>,
    ) {
        self.sub.gather(caps, flows, active);
        self.loads.clear();
        self.loads.resize(caps.len(), 0.0);
        link_loss.resize(caps.len(), P_LINK_MIN);
        self.ploss.clear();
        self.ploss
            .extend(link_loss.iter().map(|p| p.clamp(P_LINK_MIN, P_LINK_CAP)));
    }

    /// One sweep: sum the rates into link loads, update the prices, then
    /// move every rate a step toward its flow's target, column by column.
    /// A subflow's target and floor read only the prices, so no rate
    /// update is seen before the next sweep.
    fn sweep(&mut self, caps: &[f64]) {
        self.update_prices(caps);
        let sub = &mut self.sub;
        let floor = &mut self.fill.alloc;
        floor.resize(sub.len(), 0.0);
        // Per subflow: the route loss into the target column, then from it
        // the path's TCP rate and the probing floor — a fraction of the
        // fair-TCP window at this path's loss, never below one MSS per RTT:
        // the residual rate controllers hold on paths they have abandoned.
        // The second loop only reads and writes columns, so it vectorizes.
        for j in 0..sub.len() {
            sub.tgt[j] = route_loss(&self.ploss, sub.path(j));
        }
        for ((t, lo), &rtt) in sub.tgt.iter_mut().zip(floor.iter_mut()).zip(&sub.rtt) {
            let r = (2.0 / *t).sqrt();
            *t = r / rtt;
            *lo = (PROBE_FRAC * r).max(1.0) / rtt;
        }
        // Per flow: its rule, in place on the TCP rates.
        for (k, &rule) in sub.rule.iter().enumerate() {
            let js = sub.flow(k);
            match rule {
                RateRule::Reno | RateRule::Uncoupled => {}
                RateRule::Olia => olia_best_paths(&mut sub.tgt[js]),
                RateRule::Lia => {
                    let mut p = [0.0; MAX_SUBFLOWS];
                    for (r, j) in js.clone().enumerate() {
                        p[r] = route_loss(&self.ploss, sub.path(j));
                    }
                    let n = js.len();
                    target_rates(rule, &p[..n], &sub.rtt[js.clone()], &mut sub.tgt[js]);
                }
            }
        }
        // Per subflow: the damped step toward the capped target.
        let bounds = sub.tgt.iter().zip(floor.iter()).zip(&sub.min_cap);
        for (x, ((&tgt, &lo), &cap)) in sub.rate.iter_mut().zip(bounds) {
            let want = tgt.min(cap).max(lo.min(cap));
            *x += DAMPING * (want - *x);
        }
    }

    /// Sum the current rates into link loads, in `active` order, and scale
    /// each price by `load/capacity`: overloaded links get more expensive,
    /// idle ones decay, and the fixed point is the loss probability that
    /// clears the link.
    fn update_prices(&mut self, caps: &[f64]) {
        let sub = &self.sub;
        self.loads.fill(0.0);
        for j in 0..sub.len() {
            let rate = sub.rate[j];
            for &l in sub.path(j) {
                self.loads[l as usize] += rate;
            }
        }
        for (l, &cap) in caps.iter().enumerate() {
            let util = if cap > 0.0 {
                self.loads[l] / cap
            } else {
                f64::INFINITY
            };
            self.ploss[l] = (self.ploss[l] * util).clamp(P_LINK_MIN, P_LINK_CAP);
        }
    }

    /// Stage 2, progressive-filling max-min with the sweep rates as
    /// demands; then scatter the projected rates back, derive goodputs from
    /// the cleared prices (the loss probabilities the packet backend would
    /// measure), and store the prices as the next warm start.
    fn finish(
        &mut self,
        caps: &[f64],
        flows: &mut [FlowSlot],
        active: &[u32],
        link_loss: &mut Vec<f64>,
    ) {
        let sub = &mut self.sub;
        for d in sub.rate.iter_mut() {
            *d = d.max(0.0);
        }
        max_min_fill(caps, sub, &mut self.fill);

        let alloc = &self.fill.alloc;
        for (k, &fi) in active.iter().enumerate() {
            let f = &mut flows[fi as usize];
            f.rtts_rates_mut().1.copy_from_slice(&alloc[sub.flow(k)]);
            let mut g = 0.0;
            for j in sub.flow(k) {
                let p = route_loss(&self.ploss, sub.path(j));
                g += alloc[j] * (1.0 - p);
            }
            f.goodput = g;
        }
        link_loss.clear();
        link_loss.extend_from_slice(&self.ploss);
    }
}

/// Saturation level a link would reach if all its unfrozen subflows kept
/// growing: current level plus remaining capacity spread across them.
#[inline]
fn sat_level(rem: f64, nun: u32, lvl: f64) -> f64 {
    lvl + rem.max(0.0) / nun as f64
}

/// A heap key within this relative distance below a link's saturation
/// level still stands for it.
#[inline]
fn key_tolerance(key: f64) -> f64 {
    1e-12 * key.abs().max(1.0)
}

/// Progressive filling over the subflows of `sub`, with `sub.rate` as
/// their demands: every subflow's rate rises from zero at a common level;
/// a subflow freezes when the level reaches its demand or one of its links
/// saturates. Fills `w.alloc`.
///
/// Levels are decided in nondecreasing order. Each live link sits in the
/// heap once, and the decision uses its current saturation level. Keys are
/// raised lazily: a freeze moves a link's key only when the link's level
/// drops below it, and a key that reaches the top of the heap more than
/// [`key_tolerance`] below its link's level is raised to that level before
/// the top is read again. A heap which pushed every new level and rekeyed
/// stale entries only when they surfaced would decide at the same key (the
/// two could part only if a level crept up in several steps, each inside
/// the tolerance: such a heap can decide at an intermediate level's entry
/// where this one raises the key to the final level), so links whose
/// levels tie to within rounding are decided in that heap's order. The
/// tests hold the allocation to such a heap's, bit for bit.
fn max_min_fill(caps: &[f64], sub: &Subflows, w: &mut Fill) {
    let nlinks = caps.len();
    let nsub = sub.len();
    w.alloc.clear();
    w.alloc.resize(nsub, 0.0);
    w.frozen.clear();
    w.frozen.resize(nsub, false);

    // CSR: link → subflows crossing it.
    w.link_off.clear();
    w.link_off.resize(nlinks + 1, 0);
    for &l in &sub.links {
        w.link_off[l as usize + 1] += 1;
    }
    for l in 0..nlinks {
        let carry = w.link_off[l];
        w.link_off[l + 1] += carry;
    }
    w.link_sub.clear();
    w.link_sub.resize(w.link_off[nlinks] as usize, 0);
    // Fill through a cursor copy so the offsets stay intact.
    w.cursor.clear();
    w.cursor.extend_from_slice(&w.link_off[..nlinks]);
    for j in 0..nsub {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "j < nsub, at most the link count `Subflows::gather` bounds to u32"
        )]
        let id = j as u32;
        for &l in sub.path(j) {
            let c = &mut w.cursor[l as usize];
            w.link_sub[*c as usize] = id;
            *c += 1;
        }
    }

    // Per-link water-filling state.
    w.rem.clear();
    w.rem.extend_from_slice(caps);
    w.nun.clear();
    w.nun.extend(w.link_off.windows(2).map(|o| o[1] - o[0]));
    w.lvl.clear();
    w.lvl.resize(nlinks, 0.0);
    w.heap.reset(nlinks);
    for l in 0..nlinks {
        if w.nun[l] > 0 {
            w.heap.push(l, sat_level(w.rem[l], w.nun[l], 0.0).to_bits());
        }
    }

    // Subflows in demand order.
    let demand = &sub.rate;
    w.order.clear();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "nsub is at most the link count `Subflows::gather` bounds to u32"
    )]
    w.order.extend(0..nsub as u32);
    w.order
        .sort_unstable_by(|&a, &b| demand[a as usize].total_cmp(&demand[b as usize]));

    let mut ptr = 0usize;
    loop {
        while ptr < nsub && w.frozen[w.order[ptr] as usize] {
            ptr += 1;
        }
        if ptr >= nsub {
            break;
        }
        let next_demand = demand[w.order[ptr] as usize];
        match first_saturation(w) {
            Some((sat, l)) if sat < next_demand => {
                // The link saturates first: freeze everyone crossing it.
                w.heap.remove(l);
                for i in w.link_off[l] as usize..w.link_off[l + 1] as usize {
                    let j = w.link_sub[i] as usize;
                    if !w.frozen[j] {
                        freeze(sub, w, j, sat);
                    }
                }
            }
            _ => {
                // The next demand is reached first (or no link constrains).
                let j = w.order[ptr] as usize;
                ptr += 1;
                freeze(sub, w, j, next_demand);
            }
        }
    }
}

/// The link on top of the heap and its saturation level, after raising
/// every stale key that surfaces (see [`max_min_fill`]).
fn first_saturation(w: &mut Fill) -> Option<(f64, usize)> {
    while let Some((bits, l)) = w.heap.peek() {
        let sat = sat_level(w.rem[l], w.nun[l], w.lvl[l]);
        let key = f64::from_bits(bits);
        if sat > key + key_tolerance(key) {
            w.heap.raise_top(sat.to_bits());
            continue;
        }
        return Some((sat, l));
    }
    None
}

/// Freeze subflow `j` at allocation `level`: advance each of its links'
/// consumption checkpoint to `level`, drop it from their unfrozen counts,
/// and lower the heap keys its links' levels dropped below.
fn freeze(sub: &Subflows, w: &mut Fill, j: usize, level: f64) {
    w.frozen[j] = true;
    w.alloc[j] = level;
    for &l in sub.path(j) {
        let l = l as usize;
        w.rem[l] -= w.nun[l] as f64 * (level - w.lvl[l]).max(0.0);
        w.lvl[l] = w.lvl[l].max(level);
        w.nun[l] -= 1;
        if w.nun[l] == 0 {
            w.heap.remove(l);
        } else if let Some(bits) = w.heap.key(l) {
            let sat = sat_level(w.rem[l], w.nun[l], w.lvl[l]).to_bits();
            if sat < bits {
                w.heap.lower_key(l, sat);
            }
        }
    }
}

/// Marks a link with no heap entry.
const ABSENT: u32 = u32::MAX;

/// Indexed binary min-heap of links ordered by `(key bits, link)`, the
/// order of a `BinaryHeap<Reverse<(u64, u32)>>`: at most one entry per
/// link, and a position table so a link's key moves in place.
#[derive(Debug, Default)]
struct LinkHeap {
    entries: Vec<(u64, u32)>,
    /// Heap position of each link's entry, or [`ABSENT`].
    pos: Vec<u32>,
}

impl LinkHeap {
    /// Empty the heap for a network of `nlinks` links.
    fn reset(&mut self, nlinks: usize) {
        self.entries.clear();
        self.pos.clear();
        self.pos.resize(nlinks, ABSENT);
    }

    /// Insert link `l`, which must not be in the heap.
    fn push(&mut self, l: usize, key: u64) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "`l` is a link id, which `FlowNet::add_link_pps` bounds to u32"
        )]
        self.entries.push((key, l as u32));
        self.sift_up(self.entries.len() - 1);
    }

    /// The smallest key and its link.
    fn peek(&self) -> Option<(u64, usize)> {
        self.entries.first().map(|&(key, l)| (key, l as usize))
    }

    /// Link `l`'s key, if it is in the heap.
    fn key(&self, l: usize) -> Option<u64> {
        match self.pos[l] {
            ABSENT => None,
            i => Some(self.entries[i as usize].0),
        }
    }

    /// Lower the key of link `l`, which must be in the heap, to `key`.
    fn lower_key(&mut self, l: usize, key: u64) {
        let i = self.pos[l] as usize;
        self.entries[i].0 = key;
        self.sift_up(i);
    }

    /// Raise the smallest key, which must exist, to `key`.
    fn raise_top(&mut self, key: u64) {
        self.entries[0].0 = key;
        self.sift_down(0);
    }

    /// Remove link `l` if it is in the heap.
    fn remove(&mut self, l: usize) {
        let i = std::mem::replace(&mut self.pos[l], ABSENT);
        if i == ABSENT {
            return;
        }
        let i = i as usize;
        let gone = self.entries.swap_remove(i);
        if let Some(&moved) = self.entries.get(i) {
            // The former last entry fills the hole from either side.
            if moved < gone {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    fn place(&mut self, i: usize, e: (u64, u32)) {
        self.entries[i] = e;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a heap position is below the link count, and `FlowNet::add_link_pps` bounds link ids to u32"
        )]
        let pos = i as u32;
        self.pos[e.1 as usize] = pos;
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.entries[parent];
            if p < e {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        let e = self.entries[i];
        loop {
            let mut c = 2 * i + 1;
            if c >= n {
                break;
            }
            if c + 1 < n && self.entries[c + 1] < self.entries[c] {
                c += 1;
            }
            let child = self.entries[c];
            if e < child {
                break;
            }
            self.place(i, child);
            i = c;
        }
        self.place(i, e);
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use eventsim::{SimDuration, SimRng, SimTime};

    use super::*;
    use crate::net::{FlowNet, LinkId};
    use crate::sim::{FlowPath, FlowSpec};

    /// The sweep the column passes replaced, kept as their reference: loads
    /// and prices, then one flow at a time, its
    /// route losses and floors on the stack and its targets from
    /// [`target_rates`].
    fn per_flow_sweep(s: &mut AllocScratch, caps: &[f64]) {
        let sub = &mut s.sub;
        for v in s.loads.iter_mut() {
            *v = 0.0;
        }
        for j in 0..sub.len() {
            let rate = sub.rate[j];
            for &l in sub.path(j) {
                s.loads[l as usize] += rate;
            }
        }
        for (l, &cap) in caps.iter().enumerate() {
            let util = if cap > 0.0 {
                s.loads[l] / cap
            } else {
                f64::INFINITY
            };
            s.ploss[l] = (s.ploss[l] * util).clamp(P_LINK_MIN, P_LINK_CAP);
        }
        for (k, &rule) in sub.rule.iter().enumerate() {
            let js = sub.flow(k);
            let n = js.len();
            let mut p = [0.0; MAX_SUBFLOWS];
            let mut floor = [0.0; MAX_SUBFLOWS];
            let mut tgt = [0.0; MAX_SUBFLOWS];
            for (r, j) in js.clone().enumerate() {
                p[r] = route_loss(&s.ploss, sub.path(j));
                let probe = PROBE_FRAC * (2.0 / p[r]).sqrt();
                floor[r] = probe.max(1.0) / sub.rtt[j];
            }
            target_rates(rule, &p[..n], &sub.rtt[js.clone()], &mut tgt[..n]);
            for (r, j) in js.enumerate() {
                let cap = sub.min_cap[j];
                let want = tgt[r].min(cap).max(floor[r].min(cap));
                sub.rate[j] += DAMPING * (want - sub.rate[j]);
            }
        }
    }

    /// [`recompute`] with the reference sweep.
    fn reference_recompute(
        caps: &[f64],
        sweeps: usize,
        flows: &mut [FlowSlot],
        active: &[u32],
        s: &mut AllocScratch,
        link_loss: &mut Vec<f64>,
    ) {
        s.begin(caps, flows, active, link_loss);
        for _ in 0..sweeps {
            per_flow_sweep(s, caps);
        }
        s.finish(caps, flows, active, link_loss);
    }

    /// Every active flow's rates and goodput, then the prices, as bits.
    fn outcome(flows: &[FlowSlot], active: &[u32], link_loss: &[f64]) -> Vec<u64> {
        let mut bits = Vec::new();
        for &fi in active {
            let f = &flows[fi as usize];
            bits.extend(f.rtts_rates().1.iter().map(|x| x.to_bits()));
            bits.push(f.goodput.to_bits());
        }
        bits.extend(link_loss.iter().map(|x| x.to_bits()));
        bits
    }

    #[test]
    fn column_sweeps_match_the_per_flow_sweep_bit_for_bit() {
        // All four rules and 1..=MAX_SUBFLOWS paths of 1–6 hops mixed in
        // each instance, zero-capacity links, 1–8 sweeps, warm starts
        // outside the price clamp and shorter than the link table, and
        // scratch reused across sizes.
        let rules = [
            RateRule::Reno,
            RateRule::Lia,
            RateRule::Olia,
            RateRule::Uncoupled,
        ];
        let cap_pool = [0.0, 1.0 / 3.0, 50.0, 833.0, 8561.6];
        let mut rng = SimRng::seed_from_u64(0xC01);
        let (mut s_col, mut s_ref) = (AllocScratch::default(), AllocScratch::default());
        for case in 0..2_000 {
            let mut net = FlowNet::new();
            let nlinks = 1 + rng.below(16);
            let links: Vec<LinkId> = (0..nlinks)
                .map(|_| match rng.below(3) {
                    0 => net.add_link_pps(cap_pool[rng.below(cap_pool.len())]),
                    _ => net.add_link_pps(rng.f64() * 2_000.0),
                })
                .collect();
            let sweeps = 1 + rng.below(8);
            let specs: Vec<(FlowSpec, Vec<f64>)> = (0..1 + rng.below(8))
                .map(|i| {
                    let paths: Vec<FlowPath> = (0..1 + rng.below(MAX_SUBFLOWS))
                        .map(|_| FlowPath {
                            links: (0..1 + rng.below(6))
                                .map(|_| links[rng.below(nlinks)])
                                .collect(),
                            rtt: SimDuration::from_micros(1 + rng.below(300_000) as u64),
                        })
                        .collect();
                    let warm = paths.iter().map(|_| rng.f64() * 1_000.0).collect();
                    let spec = FlowSpec {
                        conn: i as u64,
                        rule: rules[rng.below(rules.len())],
                        paths,
                        size_pkts: None,
                    };
                    (spec, warm)
                })
                .collect();
            let build = || -> Vec<FlowSlot> {
                specs
                    .iter()
                    .map(|(spec, warm)| {
                        let mut f = FlowSlot::new(spec, &net, SimTime::ZERO);
                        f.rtts_rates_mut().1.copy_from_slice(warm);
                        f
                    })
                    .collect()
            };
            let (mut flows, mut ref_flows) = (build(), build());
            let mut active: Vec<u32> = (0..specs.len() as u32).collect();
            rng.shuffle(&mut active);
            active.truncate(1 + rng.below(active.len()));
            let mut loss: Vec<f64> = (0..rng.below(nlinks + 1))
                .map(|_| rng.f64() * 0.6)
                .collect();
            let mut ref_loss = loss.clone();

            let caps = net.caps();
            recompute(caps, sweeps, &mut flows, &active, &mut s_col, &mut loss);
            reference_recompute(
                caps,
                sweeps,
                &mut ref_flows,
                &active,
                &mut s_ref,
                &mut ref_loss,
            );
            assert_eq!(
                outcome(&flows, &active, &loss),
                outcome(&ref_flows, &active, &ref_loss),
                "case {case}: {sweeps} sweeps"
            );
        }
    }

    /// Per-link state of [`lazy_fill`].
    struct LazyFill<'a> {
        sub: &'a Subflows,
        alloc: Vec<f64>,
        frozen: Vec<bool>,
        rem: Vec<f64>,
        nun: Vec<u32>,
        lvl: Vec<f64>,
        heap: BinaryHeap<Reverse<(u64, u32)>>,
    }

    impl LazyFill<'_> {
        fn freeze(&mut self, j: usize, level: f64) {
            self.frozen[j] = true;
            self.alloc[j] = level;
            for &l in self.sub.path(j) {
                let li = l as usize;
                self.rem[li] -= self.nun[li] as f64 * (level - self.lvl[li]).max(0.0);
                self.lvl[li] = self.lvl[li].max(level);
                self.nun[li] -= 1;
                if self.nun[li] > 0 {
                    let sat = sat_level(self.rem[li], self.nun[li], self.lvl[li]);
                    self.heap.push(Reverse((sat.to_bits(), l)));
                }
            }
        }
    }

    /// Reference fill: a lazy `BinaryHeap` that pushes a link's new
    /// saturation level on every freeze and, when a stale (underestimated)
    /// entry surfaces, rekeys it instead of deciding on it. The same
    /// arithmetic in the same order as [`max_min_fill`], without the
    /// indexed heap's key rule; the two must agree bit for bit.
    fn lazy_fill(caps: &[f64], sub: &Subflows) -> Vec<f64> {
        let nsub = sub.len();
        let mut crossing: Vec<Vec<usize>> = vec![Vec::new(); caps.len()];
        for j in 0..nsub {
            for &l in sub.path(j) {
                crossing[l as usize].push(j);
            }
        }
        let mut s = LazyFill {
            sub,
            alloc: vec![0.0; nsub],
            frozen: vec![false; nsub],
            rem: caps.to_vec(),
            nun: crossing.iter().map(|c| c.len() as u32).collect(),
            lvl: vec![0.0; caps.len()],
            heap: BinaryHeap::new(),
        };
        for l in 0..caps.len() {
            if s.nun[l] > 0 {
                let sat = sat_level(s.rem[l], s.nun[l], 0.0);
                s.heap.push(Reverse((sat.to_bits(), l as u32)));
            }
        }
        let demand = &sub.rate;
        let mut order: Vec<u32> = (0..nsub as u32).collect();
        order.sort_unstable_by(|&a, &b| demand[a as usize].total_cmp(&demand[b as usize]));
        let mut ptr = 0;
        loop {
            while ptr < nsub && s.frozen[order[ptr] as usize] {
                ptr += 1;
            }
            if ptr >= nsub {
                break;
            }
            let next_demand = demand[order[ptr] as usize];
            let mut top = None;
            while let Some(&Reverse((bits, l))) = s.heap.peek() {
                let li = l as usize;
                if s.nun[li] == 0 {
                    s.heap.pop();
                    continue;
                }
                let sat = sat_level(s.rem[li], s.nun[li], s.lvl[li]);
                let key = f64::from_bits(bits);
                if sat > key + key_tolerance(key) {
                    s.heap.pop();
                    s.heap.push(Reverse((sat.to_bits(), l)));
                    continue;
                }
                top = Some((sat, li));
                break;
            }
            match top {
                Some((sat, l)) if sat < next_demand => {
                    s.heap.pop();
                    for &j in &crossing[l] {
                        if !s.frozen[j] {
                            s.freeze(j, sat);
                        }
                    }
                }
                _ => {
                    let j = order[ptr] as usize;
                    ptr += 1;
                    s.freeze(j, next_demand);
                }
            }
        }
        s.alloc
    }

    /// A subflow table with one subflow per path, demanding `demands`.
    fn table(paths: &[&[u32]], demands: &[f64]) -> Subflows {
        let mut sub = Subflows::default();
        sub.link_off.push(0);
        for (path, &d) in paths.iter().zip(demands) {
            sub.links.extend_from_slice(path);
            sub.link_off.push(sub.links.len() as u32);
            sub.rate.push(d);
        }
        sub
    }

    fn fill(caps: &[f64], paths: &[&[u32]], demands: &[f64]) -> Vec<f64> {
        let mut w = Fill::default();
        max_min_fill(caps, &table(paths, demands), &mut w);
        w.alloc
    }

    #[test]
    fn maxmin_unconstrained_meets_demands() {
        let alloc = fill(&[100.0], &[&[0]], &[30.0]);
        assert!((alloc[0] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_shares_a_bottleneck_equally() {
        // Two greedy subflows on one 90-unit link: 45 each.
        let alloc = fill(&[90.0], &[&[0], &[0]], &[1000.0, 1000.0]);
        assert!((alloc[0] - 45.0).abs() < 1e-9);
        assert!((alloc[1] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_redistributes_a_small_demand() {
        // Classic water filling: demands 10/1000/1000 on a 90 link
        // → 10, 40, 40.
        let alloc = fill(&[90.0], &[&[0], &[0], &[0]], &[10.0, 1000.0, 1000.0]);
        assert!((alloc[0] - 10.0).abs() < 1e-9);
        assert!((alloc[1] - 40.0).abs() < 1e-9);
        assert!((alloc[2] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_two_links_pick_the_tighter_bottleneck() {
        // Subflow 0 crosses links 0 and 1; subflow 1 only link 1.
        // Link 1 (cap 30) saturates at level 15; link 0 (cap 100) never.
        let alloc = fill(&[100.0, 30.0], &[&[0, 1], &[1]], &[1000.0, 1000.0]);
        assert!((alloc[0] - 15.0).abs() < 1e-9);
        assert!((alloc[1] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_frees_capacity_after_a_demand_freeze() {
        // On link 1 (cap 30): subflow 1 freezes at demand 5, leaving 25 for
        // subflow 0 — which then hits link 0's share with subflow 2.
        let alloc = fill(
            &[40.0, 30.0],
            &[&[0, 1], &[1], &[0]],
            &[1000.0, 5.0, 1000.0],
        );
        assert!((alloc[1] - 5.0).abs() < 1e-9);
        // Link 0: subflows 0 and 2 split 40 → 20 each; link 1 would have
        // allowed subflow 0 up to 25, so link 0 binds.
        assert!((alloc[0] - 20.0).abs() < 1e-9);
        assert!((alloc[2] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_never_oversubscribes_any_link() {
        // Deterministic pseudo-random demand pattern over a shared chain.
        let caps = [50.0, 35.0, 80.0];
        let paths: [&[u32]; 6] = [&[0], &[0, 1], &[1, 2], &[2], &[0, 1, 2], &[1]];
        let demands = [7.0, 60.0, 13.0, 90.0, 41.0, 3.0];
        let alloc = fill(&caps, &paths, &demands);
        let mut loads = [0.0; 3];
        for (j, path) in paths.iter().enumerate() {
            assert!(alloc[j] <= demands[j] + 1e-9, "subflow {j} above demand");
            for &l in *path {
                loads[l as usize] += alloc[j];
            }
        }
        for l in 0..3 {
            assert!(loads[l] <= caps[l] + 1e-6, "link {l} oversubscribed");
        }
        // The allocation is maximal: every subflow is demand-frozen or
        // crosses a saturated link.
        for (j, path) in paths.iter().enumerate() {
            let at_demand = (alloc[j] - demands[j]).abs() < 1e-6;
            let saturated = path
                .iter()
                .any(|&l| loads[l as usize] >= caps[l as usize] - 1e-6);
            assert!(at_demand || saturated, "subflow {j} could still grow");
        }
    }

    #[test]
    fn indexed_fill_matches_the_lazy_heap_bit_for_bit() {
        // Few distinct capacities and demands, so saturation levels and
        // demands tie exactly or to within an ulp (10/3 against 20/6 after
        // partial freezes), and zero-capacity links saturate at level 0.
        let third = 10.0_f64 / 3.0;
        let cap_pool = [0.0, 1.0 / 3.0, 7.0, 10.0, 20.0, 30.0];
        let demand_pool = [
            0.0,
            third,
            third.next_down(),
            third.next_up(),
            7.0 / 3.0,
            5.0,
            1000.0,
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut rng = SimRng::seed_from_u64(0xF111);
        let mut w = Fill::default();
        for case in 0..20_000 {
            let nlinks = 2 + rng.below(10);
            let caps: Vec<f64> = (0..nlinks)
                .map(|_| cap_pool[rng.below(cap_pool.len())])
                .collect();
            let mut sub = Subflows::default();
            sub.link_off.push(0);
            for _ in 0..1 + rng.below(24) {
                let mut links: Vec<u32> = (0..nlinks as u32).collect();
                rng.shuffle(&mut links);
                let hops = 1 + rng.below(nlinks.min(4));
                sub.links.extend_from_slice(&links[..hops]);
                sub.link_off.push(sub.links.len() as u32);
                sub.rate.push(demand_pool[rng.below(demand_pool.len())]);
            }
            max_min_fill(&caps, &sub, &mut w);
            assert_eq!(
                bits(&w.alloc),
                bits(&lazy_fill(&caps, &sub)),
                "case {case}: caps {caps:?}, paths {:?} {:?}, demands {:?}",
                sub.link_off,
                sub.links,
                sub.rate
            );
        }
    }
}
