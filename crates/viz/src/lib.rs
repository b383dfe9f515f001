//! Deterministic trace-to-timeline visualization.
//!
//! `viz` turns the artifacts the rest of the workspace already emits —
//! trace JSONL (`trace::TraceEvent`), sweep reports
//! (`mptcp-sweep-report/v1`), chaos repro cases — into self-contained HTML
//! pages: inline SVG, one inline stylesheet, no scripts, no external
//! assets, no wall-clock or locale leakage. The same input bytes always
//! produce the same output bytes, on any host, at any parallelism — pages
//! are artifacts in the same sense as run reports, and CI diffs them.
//!
//! Layers:
//!
//! - [`timeline`] — fold a parsed event stream into per-subflow and
//!   per-queue lanes (cwnd/ssthresh, RTT samples, state bands, queue
//!   occupancy, drop markers, fault windows).
//! - [`svg`] — fixed-precision SVG primitives ([`svg::fmt2`] pins every
//!   coordinate to two decimals).
//! - [`page`] — the shared page shell with the single inline stylesheet.
//! - [`render`] — timeline → HTML.
//! - [`sweep`] — sweep report → comparison explorer (index + per-point
//!   pages with mean±ci95 charts and determinism digests).
//! - [`chaos_page`] — chaos repro case → fault-plan schedule page,
//!   embedding the recorded timeline when a sibling trace exists.
//!
//! The `viz` binary fronts all three renderers; `orchestra --viz` and the
//! chaos campaign runner call into the library directly.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod chaos_page;
pub mod page;
pub mod render;
pub mod svg;
pub mod sweep;
pub mod timeline;

pub use chaos_page::{clause_windows, render_chaos_html, ClauseWindow};
pub use render::render_timeline_html;
pub use sweep::render_run_dir;
pub use timeline::Timeline;
