#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
// Determinism rules; DESIGN.md "Static analysis & determinism rules".
// R5: no panicking extractor where the event loop can reach it.
#![warn(clippy::unwrap_used, clippy::expect_used)]
// R9: no silently truncating cast of a time, sequence or index value.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

//! A deterministic discrete-event simulation engine.
//!
//! This crate is the lowest substrate of the reproduction of *"MPTCP is not
//! Pareto-Optimal"* (Khalili et al., CoNEXT 2012). It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulation clock types.
//!   Integer time makes runs exactly reproducible: there is no floating-point
//!   drift in event ordering.
//! * [`EventQueue`] — a priority queue of timestamped events with **FIFO
//!   tie-breaking**: two events scheduled for the same instant fire in the
//!   order they were scheduled. This removes a classic source of
//!   non-determinism in heap-based simulators. Events and timers scheduled a
//!   fixed delay ahead ([`EventQueue::schedule_after`],
//!   [`EventQueue::schedule_timer_after`]) wait in FIFO delay lanes that
//!   need no sift at all and store each key as two 32-bit steps from the
//!   entry before; the rest wait in an event heap and a timer heap. Timers
//!   are kept apart from events, so cancelled ones awaiting drainage do not
//!   deepen the structures other events go through.
//! * [`SimRng`] — a seeded RNG wrapper so every stochastic choice in a
//!   simulation is reproducible from a single `u64` seed.
//! * [`TimerSlab`] / [`TimerHandle`] — generational cancellable timers
//!   layered over the queue's timer lanes and timer heap, with lazy drainage
//!   of cancelled entries.
//!
//! The engine is intentionally synchronous and allocation-light (in the
//! spirit of event-driven network stacks such as smoltcp): simulation is a
//! CPU-bound workload, so an async runtime would add cost without benefit.
//!
//! # Example
//!
//! ```
//! use eventsim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO, "now");
//! let (t0, e0) = q.pop().unwrap();
//! assert_eq!((t0, e0), (SimTime::ZERO, "now"));
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!(e1, "later");
//! assert_eq!(t1.as_nanos(), 5_000_000);
//! ```

mod queue;
mod rng;
mod time;
mod timer;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use timer::{TimerHandle, TimerSlab};
