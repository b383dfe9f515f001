//! Index newtypes for queues and endpoints.
//!
//! Components address each other by dense indices into the simulation's
//! arenas. Newtypes keep a `QueueId` from being used where an `EndpointId`
//! is expected.

/// Identifies a queue (a link's buffer + serializer) in a [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub(crate) u32);

/// Identifies an endpoint (traffic source or sink) in a [`crate::Simulation`].
///
/// `Default` (endpoint 0) exists only so the id can sit in vacated timer-slab
/// slots without an `Option` wrapper; it is not a meaningful endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub(crate) u32);

impl QueueId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id `delta` places after this one. Queue blocks reserved with
    /// [`crate::Simulation::reserve_queue_block`] are contiguous, so
    /// topology builders address members arithmetically from the block's
    /// first id instead of materializing id tables.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the assert bounds the sum to u32 before the cast"
    )]
    pub fn offset(self, delta: usize) -> QueueId {
        let v = self.0 as u64 + delta as u64;
        assert!(v <= u32::MAX as u64, "queue id overflow");
        QueueId(v as u32)
    }
}

impl EndpointId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for QueueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(QueueId(3).to_string(), "q3");
        assert_eq!(EndpointId(7).to_string(), "e7");
        assert_eq!(QueueId(3).index(), 3);
        assert_eq!(EndpointId(7).index(), 7);
    }
}
