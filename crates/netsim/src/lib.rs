#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
// Determinism rules; DESIGN.md "Static analysis & determinism rules".
// R5: no panicking extractor where the event loop can reach it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
// R9: no silently truncating cast of a time, sequence or index value.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

//! Packet-level network simulation substrate for the reproduction of
//! *"MPTCP is not Pareto-Optimal"* (Khalili et al., CoNEXT 2012).
//!
//! This crate plays the role of the paper's testbed plumbing (Click-emulated
//! links with RED queues) and of the htsim data-center substrate: it moves
//! packets through store-and-forward queues with configurable service rate,
//! propagation delay, and drop discipline, and delivers them to endpoints
//! (the TCP/MPTCP sources and sinks of crate `tcpsim`).
//!
//! Model (htsim-style):
//!
//! * A **route** is a sequence of [`QueueId`]s. Packets carry their route and
//!   a hop index — there is no routing table lookup on the forwarding path,
//!   matching how both the testbed (static routes) and htsim work.
//! * A **queue** serializes the head packet at `rate` bits/s, then the packet
//!   propagates for `latency` before arriving at the next hop (or at the
//!   destination endpoint after the last hop). Queues drop on enqueue:
//!   drop-tail at a packet cap, or the paper's RED profile
//!   ([`RedParams::paper_profile`], §III Testbed Setup).
//! * **Endpoints** implement [`Endpoint`] and react to packet deliveries and
//!   timers through a [`NetCtx`].
//! * **Faults** are scripted with a [`FaultPlan`] (link down/up, mid-run
//!   rate/latency changes, loss bursts, duplication, reordering) and run
//!   inside the event loop ([`Simulation::install_fault_plan`]), drawing any
//!   randomness from the simulation RNG.
//!
//! Everything is deterministic: same configuration + same seed → identical
//! event sequence (see the determinism test in `sim.rs`), fault plans
//! included.
//!
//! # Example: blast ten packets over one bottleneck
//!
//! ```
//! use netsim::{Simulation, QueueConfig, Packet, Endpoint, NetCtx, Route};
//! use eventsim::{SimDuration, SimTime};
//!
//! struct Blaster { route: Route, dst: netsim::EndpointId }
//! struct Counter;
//!
//! impl Endpoint for Blaster {
//!     fn start(&mut self, ctx: &mut NetCtx) {
//!         for i in 0..10 {
//!             ctx.send(Packet::data(ctx.me(), self.dst, 0, 0, i, 1500, self.route));
//!         }
//!     }
//!     fn on_packet(&mut self, _: &mut NetCtx, _: Packet) {}
//!     fn on_timer(&mut self, _: &mut NetCtx, _: u64) {}
//! }
//! impl Endpoint for Counter {
//!     fn start(&mut self, _: &mut NetCtx) {}
//!     fn on_packet(&mut self, _: &mut NetCtx, _: Packet) {}
//!     fn on_timer(&mut self, _: &mut NetCtx, _: u64) {}
//! }
//!
//! let mut sim = Simulation::new(42);
//! let q = sim.add_queue(QueueConfig::drop_tail(
//!     10_000_000.0, SimDuration::from_millis(10), 100));
//! let rx = sim.reserve_endpoint();
//! let route = netsim::route(&[q]);
//! let tx = sim.add_endpoint(Box::new(Blaster { route, dst: rx }));
//! sim.install_endpoint(rx, Box::new(Counter));
//! sim.start_endpoint(tx);
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! assert_eq!(sim.queue_stats(q).forwarded, 10);
//! let _ = tx;
//! ```

mod arena;
mod fault;
mod ids;
mod packet;
pub mod profile;
mod queue;
pub mod routes;
mod sim;

pub use fault::{FaultAction, FaultPlan};
pub use ids::{EndpointId, QueueId};
pub use packet::{Packet, PacketKind};
pub use queue::{Discipline, QueueConfig, QueueStats, RedParams};
pub use routes::{route, Route, EMPTY_ROUTE};
pub use sim::{Endpoint, LoopStats, NetCtx, Simulation};
