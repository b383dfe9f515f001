#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Experiment harness for the reproduction of *"MPTCP is not
//! Pareto-Optimal"* (Khalili et al., CoNEXT 2012).
//!
//! Each table and figure of the paper has a binary under `src/bin/` that
//! reruns the experiment and prints the paper's rows/series; the shared
//! machinery lives here so the workspace's integration tests can reuse it:
//!
//! * [`RunCfg`] — warmup/measurement windows and replication seeds
//!   (`quick()` for CI-scale runs, `paper()` for full-length ones; the
//!   `REPRO_QUICK` environment variable switches the binaries);
//! * [`scenario_a`], [`scenario_b`], [`scenario_c`] — packet-level
//!   measurements of the three testbed scenarios;
//! * [`traces`] — the window/α time series of Figs. 7–8;
//! * [`fattree`] — the data-center experiments of Figs. 13–14/Table III;
//! * [`table`] — aligned-table printing and CSV output under `results/`;
//! * [`config`] — JSON-described custom scenarios (the `repro_run` CLI);
//! * [`jobs`] — the scenarios as single-seed callable jobs with their paper
//!   parameter grids, for the `orchestra` experiment orchestrator;
//! * [`report`] — machine-readable JSON run reports under `results/`
//!   (schema-versioned; includes events/sec and sim/wall profiling);
//! * [`tracing`] — `MPTCP_TRACE`-driven structured JSONL trace capture for
//!   any binary.

pub mod config;
pub mod fattree;
pub mod jobs;
pub mod json;
pub mod report;
pub mod scenario_a;
pub mod scenario_b;
pub mod scenario_c;
pub mod table;
pub mod traces;
pub mod tracing;

use eventsim::{SimDuration, SimRng, SimTime};
use netsim::Simulation;
use tcpsim::Connection;

/// Windows and replication for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seconds of simulated warmup discarded before measuring.
    pub warmup_s: f64,
    /// Seconds of simulated time measured.
    pub measure_s: f64,
    /// Flow start jitter window, seconds.
    pub jitter_s: f64,
    /// Independent replications (the paper took 5 measurements per point).
    pub replications: usize,
    /// Base RNG seed; replication `i` uses `seed + i`.
    pub seed: u64,
}

impl RunCfg {
    /// CI-scale: short windows, 2 replications.
    pub fn quick() -> RunCfg {
        RunCfg {
            warmup_s: 20.0,
            measure_s: 25.0,
            jitter_s: 2.0,
            replications: 2,
            seed: 1,
        }
    }

    /// Paper-scale: 120 s runs, 5 replications (§III Testbed Setup).
    pub fn paper() -> RunCfg {
        RunCfg {
            warmup_s: 40.0,
            measure_s: 80.0,
            jitter_s: 3.0,
            replications: 5,
            seed: 1,
        }
    }

    /// `paper()` unless the environment variable `REPRO_QUICK` is set.
    pub fn from_env() -> RunCfg {
        if std::env::var_os("REPRO_QUICK").is_some() {
            RunCfg::quick()
        } else {
            RunCfg::paper()
        }
    }

    /// End of the simulated run.
    pub fn end_time(&self) -> SimTime {
        SimTime::from_secs_f64(self.warmup_s + self.measure_s)
    }
}

/// Run one replication closure per seed, each on its own OS thread (a
/// `Simulation` is single-threaded internally — `Rc` handles and all — but
/// independent replications parallelize perfectly). Each worker's
/// `netsim::profile` tally is added to the caller's after the join, so a
/// [`report::RunReport`] opened on the caller counts every replication.
pub fn replicate<T: Send>(cfg: &RunCfg, run: impl Fn(u64) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.replications)
            .map(|i| {
                let run = &run;
                let seed = cfg.seed + i as u64;
                scope.spawn(move || (run(seed), netsim::profile::totals()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (out, (events, sim_ns)) = h.join().expect("replication thread panicked");
                netsim::profile::add(events, sim_ns);
                out
            })
            .collect()
    })
}

/// Start `conns` with random jitter, run warmup, reset all statistics, then
/// run the measurement window. Returns the measurement end time.
pub fn warmup_and_measure(
    sim: &mut Simulation,
    conns: &[Connection],
    cfg: &RunCfg,
    rng: &mut SimRng,
) -> SimTime {
    topo::stagger_starts(sim, conns, SimDuration::from_secs_f64(cfg.jitter_s), rng);
    let warm = SimTime::from_secs_f64(cfg.warmup_s);
    sim.run_until(warm);
    sim.reset_queue_stats();
    for c in conns {
        c.handle.reset(sim.now());
    }
    let end = cfg.end_time();
    sim.run_until(end);
    end
}

/// Mean goodput (Mb/s) across a group of connections over the measurement
/// window.
pub fn mean_goodput_mbps(conns: &[Connection], now: SimTime) -> f64 {
    assert!(!conns.is_empty(), "empty connection group");
    conns
        .iter()
        .map(|c| c.handle.goodput_mbps(now))
        .sum::<f64>()
        / conns.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::profile::RunProfile;
    use netsim::{FaultPlan, QueueConfig};

    #[test]
    fn replicate_adds_worker_tallies_to_the_caller() {
        let cfg = RunCfg {
            replications: 3,
            ..RunCfg::quick()
        };
        let window = RunProfile::start();
        let events = replicate(&cfg, |seed| {
            let mut sim = Simulation::new(seed);
            let ms = SimDuration::from_millis(seed);
            let q = sim.add_queue(QueueConfig::drop_tail(10e6, ms, 100));
            sim.install_fault_plan(FaultPlan::new().flap(q, SimTime::ZERO, ms, ms, 3));
            sim.run_until(SimTime::from_secs_f64(0.5));
            sim.events_processed()
        });
        let p = window.finish();
        assert!(events.iter().all(|&e| e > 0));
        assert_eq!(p.events, events.iter().sum::<u64>());
        assert_eq!(p.sim_ns, 3 * 500_000_000);
    }

    #[test]
    fn cfg_presets() {
        let q = RunCfg::quick();
        let p = RunCfg::paper();
        assert!(q.measure_s < p.measure_s);
        assert_eq!(p.replications, 5);
        assert_eq!(
            p.end_time(),
            SimTime::from_secs_f64(p.warmup_s + p.measure_s)
        );
    }
}
