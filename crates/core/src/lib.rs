#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
// Determinism rules; DESIGN.md "Static analysis & determinism rules".
// R5: no panicking extractor where the event loop can reach it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
// R9: no silently truncating cast of a time, sequence or index value.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
// R4: no exact float comparison in congestion-control math.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

//! Multipath congestion-control algorithms from *"MPTCP is not
//! Pareto-Optimal: Performance Issues and a Possible Solution"*
//! (Khalili, Gast, Popovic, Le Boudec — CoNEXT 2012 / IEEE/ACM ToN 2013).
//!
//! This crate is the paper's primary contribution, implemented as **pure,
//! simulator-independent state machines**. An algorithm sees only a snapshot
//! of each subflow ([`PathView`]: window, smoothed RTT, the inter-loss byte
//! counter ℓ_r) and answers two questions:
//!
//! * *by how much does the window on path `r` grow for one ACK?*
//!   ([`MultipathCc::on_ack`])
//! * *what is the window after a loss on path `r`?*
//!   ([`MultipathCc::on_loss`] — every algorithm here keeps regular TCP's
//!   multiplicative decrease, per the paper)
//!
//! The same code drives the packet-level simulator (`tcpsim`), is
//! unit-tested in isolation here, and is cross-validated against the fluid
//! model (`fluid`).
//!
//! # Algorithms
//!
//! | Type | Paper role |
//! |---|---|
//! | [`Olia`] | the paper's contribution (Eq. 5–6): Kelly–Voice-derived first term + opportunistic α term |
//! | [`Lia`] | MPTCP's standard coupled algorithm (Eq. 1, RFC 6356) — shown non-Pareto-optimal |
//! | [`FullyCoupled`] | the ε=0 end of the design spectrum (§II): optimal resource pooling but flappy; also the "OLIA without α" ablation |
//! | [`Uncoupled`] | the ε=2 end: independent Reno per subflow — responsive but does not balance congestion |
//! | [`Reno`] | regular single-path TCP (the competing traffic in every scenario) |
//!
//! # Example
//!
//! ```
//! use mpsim_core::{Olia, MultipathCc, PathView};
//!
//! // Two established subflows: a good path and a congested one.
//! let paths = [
//!     PathView { cwnd: 20.0, rtt: 0.15, ell: 400.0, established: true },
//!     PathView { cwnd: 2.0,  rtt: 0.15, ell: 10.0,  established: true },
//! ];
//! let mut olia = Olia::new();
//! let inc = olia.on_ack(&paths, 0);
//! assert!(inc.is_finite());
//! // Loss halves the window, exactly like regular TCP.
//! assert_eq!(olia.on_loss(&paths, 0), 10.0);
//! ```

mod cc;
mod coupled;
pub mod formulas;
mod lia;
mod olia;
mod path;
mod probe;
mod related;
mod reno;

pub use cc::{Algorithm, MultipathCc};
pub use coupled::{FullyCoupled, Uncoupled};
pub use lia::Lia;
pub use olia::{alpha_for, alpha_values, best_paths, max_window_paths, Olia};
pub use path::PathView;
pub use probe::OptimumProbe;
pub use related::{Ewtcp, SemiCoupled};
pub use reno::Reno;
