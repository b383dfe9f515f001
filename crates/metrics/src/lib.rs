#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Measurement utilities for the MPTCP/OLIA reproduction.
//!
//! Everything the paper reports is one of:
//!
//! * a **throughput** averaged over a measurement window after warmup
//!   (normalized throughputs in Figs. 1, 4, 5, 9, 11; Tables I/II) — read
//!   from each connection's `tcpsim::FlowHandle::goodput_mbps`, replicated
//!   over seeds and summarized here;
//! * a **loss probability** at a bottleneck (Figs. 1c, 5d, 10, 12) — computed
//!   from `netsim` queue counters, summarized here;
//! * a **time series** of windows/α values (Figs. 7, 8) — [`TimeSeries`];
//! * a **distribution** of flow completion times (Fig. 14, Table III) —
//!   [`Histogram`] + [`Summary`];
//! * a **fairness** statement (Fig. 13b) — [`jain_index`] and ranked
//!   throughput vectors.
//!
//! [`Summary`] provides mean/std and Student-t 95% confidence intervals, the
//! same presentation the paper uses ("in all cases we present 95% confidence
//! intervals").

mod histogram;
mod series;
mod summary;

pub use histogram::Histogram;
pub use series::TimeSeries;
pub use summary::{jain_index, Summary};
