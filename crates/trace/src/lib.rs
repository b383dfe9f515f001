#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Structured event tracing for the simulator.
//!
//! The paper's claims (LIA's non-Pareto-optimality, OLIA's window/α
//! dynamics) are arguments about *internal* congestion-control behavior, so
//! this crate gives every layer a first-class way to narrate itself:
//!
//! - [`TraceEvent`] — the typed vocabulary: packet enqueue/dequeue/drop with
//!   reasons, cwnd/ssthresh changes, RTO fires, fast retransmits, subflow
//!   health transitions, re-probes, fault-plan actions.
//! - [`TraceSink`] — where events go: [`NullSink`] (discard), [`RingSink`]
//!   (bounded in-memory tail, packed as varints), [`JsonlSink`] (one JSON
//!   object per line, with a byte-stable field order so same-seed runs are
//!   byte-identical),
//!   [`DigestSink`] (folds that same JSONL stream into an FNV-1a digest
//!   without storing it — the cross-worker determinism witness `orchestra`
//!   records per job).
//! - [`Tracer`] — the emission handle threaded through `netsim`/`tcpsim`.
//!   Disabled (the default) it costs one branch per site and never
//!   constructs the event; enabled it applies a [`TraceFilter`]
//!   (per-connection / per-queue allow-lists) before the sink.
//! - [`InvariantChecker`] — a sink that verifies transport invariants
//!   (cwnd ≥ probing floor, per-flow delivery conservation) over any trace.
//! - [`FaultOracle`] — fault-aware oracles for chaos fuzzing: subflow
//!   state-machine legality, re-probe backoff cap, cwnd/ssthresh domain,
//!   and post-restoration liveness.
//! - [`FlightRecorder`] — a bounded tail of recent events (a [`RingSink`]
//!   with a crash-dump API) that chaos repros and failed acceptance runs
//!   dump as replayable JSONL for the `viz` timeline renderer.
//! - [`TraceEvent::from_jsonl`] — the wire format parsed back, so every
//!   line a sink writes round-trips (exhaustively tested per variant).
//! - [`Digest64`] — FNV-1a over serialized traces for determinism tests.
//!
//! This crate depends only on `eventsim` (for `SimTime`); events carry raw
//! integer ids so the layering stays acyclic.

mod chaos;
mod check;
mod digest;
mod event;
mod parse;
mod recorder;
mod ring;
mod sink;

pub use chaos::FaultOracle;
pub use check::{InvariantChecker, Violation};
pub use digest::Digest64;
pub use event::{CwndReason, DropReason, PacketKindLabel, SubflowState, TraceEvent};
pub use parse::ParseError;
pub use recorder::{
    FlightRecorder, DEFAULT_CAPACITY as RECORDER_DEFAULT_CAPACITY,
    DUMP_BYTES_PER_RECORD as RECORDER_DUMP_BYTES_PER_RECORD,
};
pub use ring::RingSink;
pub use sink::{DigestSink, JsonlSink, NullSink, SharedSink, TraceFilter, TraceSink, Tracer};
