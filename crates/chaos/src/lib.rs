#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Chaos search: seeded fault-schedule fuzzing for the MPTCP simulator.
//!
//! Hand-written chaos scenarios only test the failures already imagined;
//! this crate turns the robustness layer into a *search*. A campaign maps
//! a seed to N [`ChaosCase`]s — grammar-composed fault schedules (outages,
//! correlated blackouts, flaps, loss bursts, rate/latency steps,
//! WiFi↔cellular-shaped handovers) plus randomized scenario knobs — runs
//! each over the netsim/tcpsim stack under a stack of oracles
//! ([`trace::InvariantChecker`] + [`trace::FaultOracle`] + packet
//! conservation + an event-loop livelock budget), and delta-debugs every
//! failure to the fewest clauses and shortest horizon that still violate,
//! byte-deterministically.
//!
//! Layout:
//! * [`case`] — the serializable case grammar and its lowering to a
//!   validated [`netsim::FaultPlan`];
//! * [`gen`] — the seeded generator (pure function of a u64);
//! * [`run`] — case execution under the oracle stack;
//! * [`shrink`](mod@shrink) — greedy ddmin to a minimal repro;
//! * [`campaign`] — parallel N-iteration campaigns (results independent of
//!   worker count);
//! * [`report`] — the `mptcp-chaos-report/v1` artifact;
//! * [`scenario`] — the orchestra-facing `fuzz` job kind.
//!
//! The `chaos` binary drives campaigns from the command line and replays
//! checked-in repro fixtures; see EXPERIMENTS.md for the runbook.

pub mod campaign;
pub mod case;
pub mod gen;
pub mod report;
pub mod run;
pub mod scenario;
pub mod shrink;

pub use campaign::{case_seed, run_campaign, CampaignCfg, CampaignResult, Repro};
pub use case::{ChaosCase, Clause};
pub use gen::generate;
pub use report::report_json;
pub use run::{run_case, run_case_with, Verdict, LIVENESS_GRACE, ORACLE_PROBE_CAP};
pub use shrink::{shrink, Shrunk};
