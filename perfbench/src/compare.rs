//! `perfbench compare PARENT CHANGE`: compare two result sets measured on
//! the same machine.
//!
//! A result set is a directory holding `<workload>.jsonl`, one line per run:
//! the JSON object a run prints last. Runs of the two sets are paired by
//! line number, so alternate parent and change runs while collecting them.
//! For every (workload, metric) row the report gives each side's median and
//! quartiles, the share of pairs the change won, and a verdict against the
//! metric's bound:
//!
//! * `better`: every change run beat every parent run, or the change won
//!   at least nine pairs in ten and its median moved by more than the
//!   parent's own quartile spread;
//! * `unresolved`: either side's quartile spread exceeds the bound;
//! * `worse`: the change's median is worse by more than the bound;
//! * `same`: none of these;
//! * `invalid`: a run of either side failed a check (`correct` false or
//!   `failed` above 0), so no figure of that workload counts.
//!
//! Per-layer metrics have no bound and get no verdict unless `invalid`.
//! The exit code is 1 when any row is `worse` or `invalid`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::registry;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

/// One run's result line.
struct Run {
    /// Every check passed: `correct` true and `failed` 0.
    ok: bool,
    values: BTreeMap<String, f64>,
}

fn parse_run(line: &str) -> Result<Run, String> {
    let doc = bench::json::parse(line).map_err(|e| e.to_string())?;
    let correct = doc.get("correct").and_then(|c| c.as_bool());
    let failed = doc.get("failed").and_then(|f| f.as_f64());
    let (Some(correct), Some(failed)) = (correct, failed) else {
        return Err("no correct/failed fields".into());
    };
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("no metrics object")?;
    let values = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        ok: correct && failed == 0.0,
        values,
    })
}

/// The runs of one workload in one result set; empty when the file is
/// missing.
fn load(dir: &str, w: Workload) -> Result<Vec<Run>, String> {
    let path = Path::new(dir).join(format!("{}.jsonl", w.name()));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, line)| parse_run(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// Median and quartiles of one side.
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(xs: &[f64]) -> Side {
        let (q1, q3) = quartiles(xs);
        Side {
            median: median(xs),
            q1,
            q3,
        }
    }

    /// Quartile spread as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One comparison row.
pub struct Row {
    parent: Side,
    change: Side,
    /// Pairs the change won, and pairs compared.
    won: usize,
    pairs: usize,
    pub verdict: &'static str,
}

/// Compare `parent` and `change` runs of a metric where `better` is
/// `"higher"` or `"lower"`; `bound` is `None` for per-layer metrics.
pub fn row(parent: &[f64], change: &[f64], better: &str, bound: Option<f64>) -> Row {
    // Orient every value so that larger is better.
    let up = |x: f64| if better == "higher" { x } else { -x };
    let pairs = parent.len().min(change.len());
    let won = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| up(**c) > up(**p))
        .count();
    let (p, c) = (Side::of(parent), Side::of(change));
    let verdict = match bound {
        None => "-",
        Some(bound) => {
            let worst_change = change.iter().map(|&x| up(x)).fold(f64::INFINITY, f64::min);
            let best_parent = parent
                .iter()
                .map(|&x| up(x))
                .fold(f64::NEG_INFINITY, f64::max);
            let gain = up(c.median) - up(p.median);
            if pairs > 0 && worst_change > best_parent {
                "better"
            } else if p.spread() > bound || c.spread() > bound {
                "unresolved"
            } else if won * 10 >= pairs * 9 && pairs > 0 && gain > p.q3 - p.q1 {
                "better"
            } else if -gain > bound * p.median.abs() {
                "worse"
            } else {
                "same"
            }
        }
    };
    Row {
        parent: p,
        change: c,
        won,
        pairs,
        verdict,
    }
}

pub fn main(args: &[String]) -> i32 {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: perfbench compare PARENT_DIR CHANGE_DIR");
        return 2;
    };
    let r = registry();
    let metrics = r
        .end_to_end
        .iter()
        .map(|m| (&*m.name, &*m.better, Some(m.bound)))
        .chain(r.per_layer.iter().map(|m| (&*m.name, &*m.better, None)));
    let metrics: Vec<_> = metrics.collect();
    println!(
        "{:<20} {:<32} {:>31} {:>31} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    let mut fail = false;
    for w in Workload::ALL {
        let (parent, change) = match (load(parent_dir, w), load(change_dir, w)) {
            (Ok(p), Ok(c)) => (p, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perfbench compare: {e}");
                return 2;
            }
        };
        if parent.is_empty() || change.is_empty() {
            continue;
        }
        let valid = parent.iter().chain(&change).all(|r| r.ok);
        if !valid {
            eprintln!(
                "perfbench compare: {}: a run failed its checks, so no figure counts",
                w.name()
            );
        }
        for &(name, better, bound) in &metrics {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.values.get(name).copied())
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let mut r = row(&p, &c, better, bound);
            if !valid {
                r.verdict = "invalid";
            }
            fail |= matches!(r.verdict, "worse" | "invalid");
            let side = |s: &Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "{:<20} {:<32} {:>31} {:>31} {:>3}/{:<3}  {}",
                w.name(),
                name,
                side(&r.parent),
                side(&r.change),
                r.won,
                r.pairs,
                r.verdict
            );
        }
    }
    i32::from(fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Every change run beats every parent run.
        assert_eq!(
            row(&parent, &[110.0; 5], "higher", Some(0.1)).verdict,
            "better"
        );
        // Within the bound and not a clear win.
        let close = [100.2, 99.8, 100.1, 100.4, 99.6];
        assert_eq!(row(&parent, &close, "higher", Some(0.1)).verdict, "same");
        // Lower is better here, so a higher median past the bound is worse.
        assert_eq!(
            row(&parent, &[120.0; 5], "lower", Some(0.1)).verdict,
            "worse"
        );
        // A side whose spread exceeds the bound leaves the row unresolved.
        let wide = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            row(&parent, &wide, "higher", Some(0.1)).verdict,
            "unresolved"
        );
        assert_eq!(row(&parent, &close, "higher", None).verdict, "-");
    }

    #[test]
    fn a_failed_run_makes_its_workload_invalid() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        let (parent, change) = (dir.join("parent"), dir.join("change"));
        let line = |correct: bool, failed: u32, v: f64| {
            format!(
                r#"{{"correct": {correct}, "attempted": 5, "failed": {failed}, "metrics": {{"setup_s": {{"value": {v}, "unit": "s"}}}}}}"#
            )
        };
        let good: Vec<String> = (0..3)
            .map(|i| line(true, 0, 1.0 + f64::from(i) / 100.0))
            .collect();
        // The change is much faster, but one of its runs failed a check.
        let fast: Vec<String> = (0..3).map(|_| line(true, 0, 0.5)).collect();
        let mut bad = fast.clone();
        bad[1] = line(false, 1, 0.5);
        let file = format!("{}.jsonl", Workload::PacketFattree.name());
        for (d, lines) in [(&parent, &good), (&change, &bad)] {
            std::fs::create_dir_all(d).unwrap();
            std::fs::write(d.join(&file), lines.join("\n")).unwrap();
        }
        let args = [parent, change].map(|d| d.to_string_lossy().into_owned());
        assert_eq!(main(&args), 1, "an invalid row fails the comparison");
        let runs = load(&args[1], Workload::PacketFattree).unwrap();
        assert_eq!(
            runs.iter().map(|r| r.ok).collect::<Vec<_>>(),
            [true, false, true]
        );
        // With every check passing, the same figures are `better`.
        std::fs::write(dir.join("change").join(&file), fast.join("\n")).unwrap();
        assert_eq!(main(&args), 0);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            parse_run(r#"{"metrics": {}}"#).is_err(),
            "correct/failed are required"
        );
    }

    #[test]
    fn pairs_won_counts_strict_wins_only() {
        let r = row(&[1.0, 2.0, 3.0], &[2.0, 2.0, 1.0], "higher", None);
        assert_eq!((r.won, r.pairs), (1, 3));
        let r = row(&[1.0, 2.0, 3.0], &[2.0, 2.0, 1.0], "lower", None);
        assert_eq!((r.won, r.pairs), (1, 3));
    }
}
