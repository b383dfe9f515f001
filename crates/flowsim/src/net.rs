//! The link-capacity table: the only topology state the flow model needs.
//!
//! A "link" here is a unidirectional capacity constraint — the flow-level
//! twin of one `netsim` queue. There is no connectivity graph: routes are
//! plain link lists carried by each flow, so any topology the packet
//! backend can express (scenarios A/B/C, FatTrees) maps onto a flat
//! capacity vector.

/// Packet payload size used for rate conversions, matching the packet
/// backend's default MSS.
pub const MSS_BYTES: f64 = 1460.0;

/// Convert a link rate in Mb/s to MSS-sized packets per second.
pub fn mbps_to_pps(mbps: f64) -> f64 {
    mbps * 1e6 / (8.0 * MSS_BYTES)
}

/// Convert packets per second back to Mb/s.
pub fn pps_to_mbps(pps: f64) -> f64 {
    pps * 8.0 * MSS_BYTES / 1e6
}

/// Identifier of one unidirectional link in a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Position in the capacity table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A capacity table: one entry per unidirectional link, in packets per
/// second. Built up-front by a scenario, then owned by the simulation
/// (capacity changes mid-run go through `FlowSim::schedule_capacity` so
/// they are ordered against flow events).
#[derive(Debug, Clone, Default)]
pub struct FlowNet {
    caps: Vec<f64>,
}

impl FlowNet {
    /// An empty network.
    pub fn new() -> FlowNet {
        FlowNet::default()
    }

    /// Add a link with capacity in packets per second.
    pub fn add_link_pps(&mut self, cap_pps: f64) -> LinkId {
        assert!(
            cap_pps.is_finite() && cap_pps >= 0.0,
            "link capacity must be finite and non-negative, got {cap_pps}"
        );
        #[expect(
            clippy::expect_used,
            reason = "capacity invariant: a u32 link table cannot overflow before memory does"
        )]
        let id = u32::try_from(self.caps.len()).expect("more than u32::MAX links");
        self.caps.push(cap_pps);
        LinkId(id)
    }

    /// Add a link with capacity in Mb/s (converted at [`MSS_BYTES`]).
    pub fn add_link_mbps(&mut self, mbps: f64) -> LinkId {
        self.add_link_pps(mbps_to_pps(mbps))
    }

    /// Reserve `n` consecutive links of equal capacity; returns the first id
    /// (the block is contiguous, so arithmetic offsets address the rest).
    pub fn add_link_block_mbps(&mut self, n: usize, mbps: f64) -> LinkId {
        let first = self.add_link_mbps(mbps);
        for _ in 1..n {
            self.add_link_mbps(mbps);
        }
        first
    }

    /// Current capacity of `l`, packets per second.
    pub fn capacity_pps(&self, l: LinkId) -> f64 {
        self.caps[l.index()]
    }

    pub(crate) fn set_capacity_pps(&mut self, l: LinkId, cap_pps: f64) {
        assert!(cap_pps.is_finite() && cap_pps >= 0.0);
        self.caps[l.index()] = cap_pps;
    }

    pub(crate) fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the network has no links yet.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Whether `l` names a link in this network.
    pub fn contains(&self, l: LinkId) -> bool {
        l.index() < self.caps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let pps = mbps_to_pps(100.0);
        assert!((pps_to_mbps(pps) - 100.0).abs() < 1e-9);
        // 100 Mb/s of 1460-byte packets ≈ 8561.6 pkts/s.
        assert!((pps - 100.0e6 / (8.0 * 1460.0)).abs() < 1e-9);
    }

    #[test]
    fn block_ids_are_contiguous() {
        let mut net = FlowNet::new();
        let a = net.add_link_block_mbps(4, 10.0);
        let b = net.add_link_mbps(1.0);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 4);
        assert_eq!(net.len(), 5);
        assert!((net.capacity_pps(LinkId(3)) - mbps_to_pps(10.0)).abs() < 1e-9);
    }
}
