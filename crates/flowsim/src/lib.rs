#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
// Determinism rules; DESIGN.md "Static analysis & determinism rules".
// R5: no panicking extractor where the event loop can reach it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
// R9: no silently truncating cast of a time, sequence or index value.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

//! Flow-level fair-share simulation backend.
//!
//! The packet simulator (`netsim`/`tcpsim`) models every segment, ACK, and
//! queue; it is the fidelity reference but tops out around 10³–10⁴
//! concurrent connections. This crate trades packet dynamics for *rate*
//! dynamics: each MPTCP subflow is a rate over a static route of links, and
//! a shared allocator recomputes all rates whenever the flow population or
//! the link capacities change (flow arrival, completion, fault). Between
//! events nothing happens — delivered bytes accrue linearly — so a run with
//! 10⁵–10⁶ concurrent connections costs a few thousand allocator sweeps
//! instead of billions of packet events.
//!
//! The allocator couples two ingredients:
//!
//! 1. a price-clearing fixed point of the fluid equilibrium (per-link
//!    loss prices adapt multiplicatively until demand meets capacity —
//!    the role drop-tail queues play in the packet backend — and
//!    [`fluid::rates::target_rates`] maps route losses to rates with the
//!    same closed forms the ODE backend converges to), which decides *how
//!    the algorithms differ* (LIA leaks onto congested paths, OLIA
//!    concentrates on the best); and
//! 2. a progressive-filling max-min projection with the fixed-point rates
//!    as demands, which guarantees *feasibility* — no link is ever
//!    oversubscribed, and spare capacity is water-filled fairly.
//!
//! Determinism is witnessed the same way as the packet backend: runs emit
//! [`trace::TraceEvent`]s (completions always, per-recompute rate updates
//! when [`FlowSimConfig::trace_rates`] is set) into an FNV-1a
//! [`trace::DigestSink`]; equal digests mean equal runs.
//!
//! Fidelity boundary: no slow start, no RTO, no reordering, no
//! buffer-occupancy dynamics, and ACK-path congestion is ignored. Use the
//! packet backend for transients and protocol mechanics; use this one for
//! steady-state shares and population-scale questions. The two are
//! cross-validated on scenarios A/B/C and the k=8 FatTree in
//! `tests/flow_crossval.rs` at the repo root.

pub mod alloc;
pub mod fattree;
pub mod net;
pub mod scenarios;
pub mod sim;

pub use fattree::{FlowFatTree, FlowFatTreeConfig};
pub use net::{mbps_to_pps, pps_to_mbps, FlowNet, LinkId, MSS_BYTES};
pub use sim::{FlowId, FlowPath, FlowSim, FlowSimConfig, FlowSpec, MAX_SUBFLOWS};
