#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
// Determinism rules; DESIGN.md "Static analysis & determinism rules".
// R5: no panicking extractor where the event loop can reach it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
// R9: no silently truncating cast of a time, sequence or index value.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

//! Packet-level TCP and MPTCP endpoints for the reproduction of
//! *"MPTCP is not Pareto-Optimal"* (Khalili et al., CoNEXT 2012).
//!
//! This crate stands in for the Linux MPTCP stack of the paper's testbed
//! (and for htsim's TCP model in the data-center experiments). A
//! *connection* consists of:
//!
//! * a [`TcpSource`] endpoint holding one or more **subflows**, each with its
//!   own sequence space, congestion window, RTT estimator, retransmission
//!   state, and the ℓ_r inter-loss byte counters of §IV-B;
//! * a [`TcpSink`] endpoint that delivers in-order per subflow and returns
//!   cumulative ACKs with timestamp echoes;
//! * a pluggable coupled congestion-control algorithm from `mpsim-core`
//!   (OLIA, LIA, fully-coupled, uncoupled, Reno).
//!
//! The TCP machinery is the standard Reno/NewReno loop: slow start until
//! `ssthresh`, congestion avoidance driven by the algorithm's per-ACK
//! increase, fast retransmit on three duplicate ACKs, fast recovery with
//! window inflation and partial-ACK retransmission, and RTO with exponential
//! backoff falling back to slow start. Losses always halve the window
//! ("unmodified TCP behavior in the case of a loss"). The paper's
//! OLIA-specific modification — initial `ssthresh` of 1 MSS when multiple
//! paths are established — is applied by [`ConnectionSpec`] exactly as
//! §IV-B describes.
//!
//! Experiments observe connections through shared [`FlowHandle`]s: sink-side
//! goodput (what Iperf reports), per-subflow window/α traces (Figs. 7–8),
//! and flow completion times (Fig. 14 / Table III).
//!
//! # Example: one Reno flow over a dumbbell
//!
//! ```
//! use eventsim::{SimDuration, SimTime};
//! use netsim::{QueueConfig, Simulation};
//! use tcpsim::{ConnectionSpec, PathSpec, TcpConfig};
//! use mpsim_core::Algorithm;
//!
//! let mut sim = Simulation::new(1);
//! let fwd = sim.add_queue(QueueConfig::drop_tail(
//!     10_000_000.0, SimDuration::from_millis(40), 100));
//! let rev = sim.add_queue(QueueConfig::drop_tail(
//!     10_000_000.0, SimDuration::from_millis(40), 100));
//! let spec = ConnectionSpec::new(Algorithm::Reno)
//!     .with_path(PathSpec::new(netsim::route(&[fwd]), netsim::route(&[rev])));
//! let conn = spec.install(&mut sim, 0);
//! sim.start_endpoint_at(conn.source, SimTime::ZERO);
//! sim.run_until(SimTime::from_secs_f64(5.0));
//! assert!(conn.handle.goodput_mbps(sim.now()) > 5.0);
//! let _ = TcpConfig::default();
//! ```

mod builder;
pub mod pool;
mod rtt;
mod sink;
mod source;
mod stats;

pub use builder::{Connection, ConnectionSpec, PathSpec};
pub use rtt::{RtoBounds, RttEstimator};
pub use sink::TcpSink;
pub use source::TcpSource;
pub use stats::{FlowHandle, FlowStats, PathHealth, SubflowStats, TcpConfig};
