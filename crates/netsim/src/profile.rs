//! Simulator profiling counters, tallied per thread.
//!
//! A profiling window (a run report, say) spans many simulations, so the
//! events/sim-time tally lives per thread, the way `routes` keeps its
//! arena, rather than per [`crate::Simulation`]: each `run_until` adds its
//! contribution to the calling thread's tally when it returns. Work fanned
//! out to other threads (`bench::replicate`) reaches the caller's tally
//! only when the caller [`add`]s each joined worker's [`totals`], so
//! windows on concurrent test threads never see each other's events.
//! [`RunProfile`] pairs a snapshot with wall-clock time so reporters can
//! compute events/sec and the sim-time/wall-time ratio.

use std::cell::Cell;

// simlint: allow(R1) this module IS the wall-clock profiling boundary; sim logic never reads it
use std::time::Instant;

use eventsim::SimDuration;

thread_local! {
    /// This thread's `(events processed, simulated nanoseconds)`.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Add `events` and `sim_ns` to this thread's tally: the event loop calls
/// it once per `run_until`, and a caller that joined a worker thread folds
/// in that worker's [`totals`] with it.
pub fn add(events: u64, sim_ns: u64) {
    TALLY.with(|t| {
        let (e, s) = t.get();
        t.set((e + events, s + sim_ns));
    });
}

/// This thread's tally since it started: `(events_processed,
/// simulated_nanoseconds)`.
pub fn totals() -> (u64, u64) {
    TALLY.with(Cell::get)
}

/// Delta-based profiling window: construct before the work, [`finish`] it
/// after, and read events/sec + sim/wall ratio for exactly that span.
///
/// [`finish`]: RunProfile::finish
#[derive(Debug, Clone)]
pub struct RunProfile {
    start_events: u64,
    start_sim_ns: u64,
    // simlint: allow(R1) events/sec needs real time by definition; never feeds event ordering
    start_wall: Instant,
}

impl RunProfile {
    /// Open a profiling window now.
    pub fn start() -> RunProfile {
        let (e, s) = totals();
        RunProfile {
            start_events: e,
            start_sim_ns: s,
            // simlint: allow(R1) wall-clock read is the profiling measurement itself
            start_wall: Instant::now(),
        }
    }

    /// Close the window and return its measurements.
    pub fn finish(&self) -> ProfileReport {
        let (e, s) = totals();
        ProfileReport {
            events: e.saturating_sub(self.start_events),
            sim_ns: s.saturating_sub(self.start_sim_ns),
            wall_s: self.start_wall.elapsed().as_secs_f64(),
        }
    }
}

/// Measurements of one profiling window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileReport {
    /// Simulation events processed in the window (this thread's, plus
    /// any worker tallies it [`add`]ed).
    pub events: u64,
    /// Simulated nanoseconds advanced in the window (with N replications
    /// this is N × the per-run horizon).
    pub sim_ns: u64,
    /// Wall-clock seconds the window was open.
    pub wall_s: f64,
}

impl ProfileReport {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.wall_s
        }
    }

    /// Simulated seconds per wall-clock second (> 1 means faster than
    /// real time).
    pub fn sim_wall_ratio(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            SimDuration::from_nanos(self.sim_ns).as_secs_f64() / self.wall_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_only_count_the_window() {
        add(100, 1_000);
        let window = RunProfile::start();
        add(7, 500);
        let report = window.finish();
        assert_eq!((report.events, report.sim_ns), (7, 500));
        assert!(report.wall_s >= 0.0);
    }

    #[test]
    fn ratios_guard_zero_wall_time() {
        let r = ProfileReport {
            events: 10,
            sim_ns: 1_000_000_000,
            wall_s: 0.0,
        };
        assert_eq!(r.events_per_sec(), 0.0);
        assert_eq!(r.sim_wall_ratio(), 0.0);
        let r2 = ProfileReport {
            events: 10,
            sim_ns: 2_000_000_000,
            wall_s: 2.0,
        };
        assert!((r2.events_per_sec() - 5.0).abs() < 1e-12);
        assert!((r2.sim_wall_ratio() - 1.0).abs() < 1e-12);
    }
}
