#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! Experiment harness for the reproduction of *"MPTCP is not
//! Pareto-Optimal"* (Khalili et al., CoNEXT 2012).
//!
//! Each table and figure of the paper has a binary under `src/bin/` that
//! reruns the experiment and prints the paper's rows/series (one binary per
//! testbed scenario covers all of that scenario's figures and tables); the
//! shared machinery lives here so the workspace's integration tests can
//! reuse it:
//!
//! * [`RunCfg`] — warmup/measurement windows and replication seeds
//!   (`quick()` for CI-scale runs, `paper()` for full-length ones; the
//!   `REPRO_QUICK` environment variable switches the binaries);
//! * [`measure`] — one testbed point replicated over seeds, through the
//!   packet-level body its registry job runs, and [`Sweep`] — `measure` at
//!   every point of registry grids, read back as table rows;
//! * [`jobs`] — the scenarios as single-seed callable jobs with their paper
//!   parameter grids, for the `orchestra` experiment orchestrator, and the
//!   packet-level bodies of Scenarios A, B and C;
//! * [`traces`] — the window/α time series of Figs. 7–8;
//! * [`fattree`] — the data-center experiments of Figs. 13–14/Table III;
//! * [`table`] — aligned-table printing and CSV output under `results/`;
//! * [`report`] — machine-readable JSON run reports under `results/`
//!   (schema-versioned; includes events/sec and sim/wall profiling);
//! * [`tracing`] — `MPTCP_TRACE`-driven structured JSONL trace capture for
//!   the binaries.
//!
//! A new experiment goes into the registry: a [`jobs::ScenarioDef`] in
//! [`jobs::REGISTRY`] (a job body over one seeded simulation and its
//! parameter grid), plus a manifest under `manifests/` naming the scenario,
//! a grid and the seeds, which `orchestra` runs into a sweep report.

pub mod fattree;
pub mod jobs;
pub mod report;
pub mod table;
pub mod traces;
pub mod tracing;

/// The workspace's JSON crate under its old path: the benchmark
/// (`perfbench/`) reads its records through `bench::json`.
pub use json;

use std::collections::BTreeMap;

use eventsim::{SimDuration, SimRng, SimTime};
use jobs::JobCtx;
use json::Json;
use metrics::Summary;
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

    /// Whether the environment variable `REPRO_QUICK` asks for CI scale.
    fn quick_from_env() -> bool {
        std::env::var_os("REPRO_QUICK").is_some()
    }

    /// `paper()` unless the environment variable `REPRO_QUICK` is set.
    pub fn from_env() -> RunCfg {
        if RunCfg::quick_from_env() {
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

/// Measure one testbed point over `cfg.replications` seeds (`cfg.seed + i`):
/// each seed runs `body` on a fresh [`Simulation`] on its own OS thread (a
/// `Simulation` is single-threaded internally — `Rc` handles and all — but
/// independent replications parallelize perfectly), and each metric key the
/// body returns gets one [`Summary`] over the seeds in order.
///
/// `key` names the point, in [`jobs::point_key`] form; with `MPTCP_TRACE`
/// set, each replication traces to a file named after its
/// [`jobs::file_stem`] and seed. Each worker's `netsim::profile` tally is
/// added to the caller's after the join, so a [`report::RunReport`] opened
/// on the caller counts every replication.
pub fn measure<P: Sync>(
    key: &str,
    body: fn(&mut Simulation, &P, &RunCfg, u64) -> BTreeMap<String, f64>,
    params: &P,
    cfg: &RunCfg,
) -> BTreeMap<String, Summary> {
    let label = jobs::file_stem(key);
    #[expect(
        clippy::disallowed_methods,
        reason = "one independent simulation per replication thread; results are joined in seed order, so scheduling cannot reach them"
    )]
    let reps: Vec<BTreeMap<String, f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.replications)
            .map(|i| {
                let (seed, label) = (cfg.seed + i as u64, &label);
                scope.spawn(move || {
                    let mut sim = Simulation::new(seed);
                    let _trace = tracing::attach_from_env(&mut sim, label, seed);
                    (body(&mut sim, params, cfg, seed), netsim::profile::totals())
                })
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
    });
    let first = reps.first().expect("cfg.replications must be at least 1");
    first
        .keys()
        .map(|k| {
            let samples: Vec<f64> = reps.iter().map(|r| r[k]).collect();
            (k.clone(), Summary::of(&samples))
        })
        .collect()
}

/// Replicated measurements at the points of registry grids (see
/// [`measure`]), which the testbed binaries' tables read by axis values.
#[derive(Debug)]
pub struct Sweep {
    cfg: RunCfg,
    runs: Vec<(BTreeMap<String, Json>, BTreeMap<String, Summary>)>,
}

impl Sweep {
    /// An empty sweep measuring with `cfg`'s windows and replications.
    pub fn new(cfg: RunCfg) -> Sweep {
        Sweep {
            cfg,
            runs: Vec::new(),
        }
    }

    /// Measure `body` at every point of registry scenario `name`'s grid (at
    /// the scale `REPRO_QUICK` selects) that no earlier point covers, and
    /// return the grid. A point is covered when an earlier one has all of
    /// its axis values — the ε-family grid, say, omits `scenario_c`'s
    /// one-valued `backend` axis — so each point is simulated once.
    pub fn add<P: Sync>(
        &mut self,
        name: &str,
        params: fn(&JobCtx) -> P,
        body: fn(&mut Simulation, &P, &RunCfg, u64) -> BTreeMap<String, f64>,
    ) -> Vec<(String, Vec<Json>)> {
        let quick = RunCfg::quick_from_env();
        let grid = (jobs::find(name).expect("registered scenario").grid)(quick);
        for point in jobs::points(&grid) {
            if self.get(&point).is_none() {
                let ctx = JobCtx {
                    params: point,
                    ..JobCtx::new(self.cfg.seed, quick)
                };
                let key = jobs::point_key(name, &ctx.params);
                let m = measure(&key, body, &params(&ctx), &self.cfg);
                self.runs.push((ctx.params, m));
            }
        }
        grid
    }

    /// The measurement at the first point with all of `axes`' values.
    fn get(&self, axes: &BTreeMap<String, Json>) -> Option<&BTreeMap<String, Summary>> {
        self.runs
            .iter()
            .find(|(point, _)| axes.iter().all(|(k, v)| point.get(k) == Some(v)))
            .map(|(_, m)| m)
    }

    /// The measurement at the point with these axis values. Panics when no
    /// measured point has them.
    pub fn at(&self, axes: &[(&str, Json)]) -> BTreeMap<String, Summary> {
        let axes: BTreeMap<String, Json> = axes
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        self.get(&axes)
            .unwrap_or_else(|| panic!("no measured point at {axes:?}"))
            .clone()
    }

    /// Each point of `grid` with its measurement, in grid order.
    pub fn measured(
        &self,
        grid: &[(String, Vec<Json>)],
    ) -> Vec<(BTreeMap<String, Json>, BTreeMap<String, Summary>)> {
        jobs::points(grid)
            .into_iter()
            .map(|point| {
                let m = self.get(&point).expect("a measured grid").clone();
                (point, m)
            })
            .collect()
    }

    /// One [`Point`] per (`ratio`, `c1_over_c2`) of `grid`, `ratio` varying
    /// slowest, with `predict`'s LIA fixed point and optimum at each.
    pub fn points<P>(
        &self,
        grid: &[(String, Vec<Json>)],
        predict: fn(f64, f64) -> (P, P),
    ) -> Vec<Point<P>> {
        let values = |axis: &str| {
            grid.iter()
                .find(|(name, _)| name == axis)
                .map_or(Vec::new(), |(_, values)| values.clone())
        };
        let mut points = Vec::new();
        for ratio in values("ratio") {
            for c in values("c1_over_c2") {
                let at = |alg: &str| {
                    self.at(&[
                        ("algorithm", alg.into()),
                        ("ratio", ratio.clone()),
                        ("c1_over_c2", c.clone()),
                    ])
                };
                let (lia, olia) = (at("lia"), at("olia"));
                let (ratio, c) = (
                    ratio.as_f64().expect("numeric"),
                    c.as_f64().expect("numeric"),
                );
                let (theory, optimum) = predict(ratio, c);
                points.push(Point {
                    ratio,
                    c,
                    lia,
                    olia,
                    theory,
                    optimum,
                });
            }
        }
        points
    }
}

/// One (N1/N2, C1/C2) point of Scenario A's or C's figures: LIA's and
/// OLIA's measurements and two predictions of the analysis.
#[derive(Debug)]
pub struct Point<P> {
    /// N1/N2.
    pub ratio: f64,
    /// C1/C2.
    pub c: f64,
    /// LIA's measurement.
    pub lia: BTreeMap<String, Summary>,
    /// OLIA's measurement.
    pub olia: BTreeMap<String, Summary>,
    /// The LIA fixed point.
    pub theory: P,
    /// The optimum with probing cost.
    pub optimum: P,
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
    fn measure_summarizes_each_metric_over_the_seeds_in_order() {
        let cfg = RunCfg {
            replications: 3,
            seed: 40,
            ..RunCfg::quick()
        };
        let m = measure(
            "unit?step=2",
            |_, step: &f64, _, seed| {
                BTreeMap::from([
                    ("seed".to_string(), seed as f64),
                    ("scaled".to_string(), step * (seed - 40) as f64),
                ])
            },
            &2.0,
            &cfg,
        );
        assert_eq!(m.keys().collect::<Vec<_>>(), vec!["scaled", "seed"]);
        assert_eq!(m["seed"], Summary::of(&[40.0, 41.0, 42.0]));
        assert_eq!(m["scaled"], Summary::of(&[0.0, 2.0, 4.0]));
    }

    #[test]
    fn measure_adds_worker_tallies_to_the_caller() {
        let cfg = RunCfg {
            replications: 3,
            ..RunCfg::quick()
        };
        let window = RunProfile::start();
        let m = measure(
            "unit",
            |sim, _: &(), _, seed| {
                let ms = SimDuration::from_millis(seed);
                let q = sim.add_queue(QueueConfig::drop_tail(10e6, ms, 100));
                sim.install_fault_plan(FaultPlan::new().flap(q, SimTime::ZERO, ms, ms, 3));
                sim.run_until(SimTime::from_secs_f64(0.5));
                BTreeMap::from([("events".to_string(), sim.events_processed() as f64)])
            },
            &(),
            &cfg,
        );
        let p = window.finish();
        let events = m["events"];
        assert!(events.min > 0.0);
        assert_eq!(p.events, (events.mean * events.n as f64).round() as u64);
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
