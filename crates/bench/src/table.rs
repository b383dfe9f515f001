//! Aligned-table printing and CSV output for the experiment binaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use metrics::Summary;

use crate::report::RunReport;
use json::Json;

/// One column of a [`TableSpec`]: its header and its cell for a row.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// A table over rows of type `R`: its title, the CSV name it is written
/// under in `results/`, and its columns.
#[derive(Debug)]
pub struct TableSpec<R: 'static> {
    /// Title (also the key the table is embedded under in run reports).
    pub title: &'static str,
    /// CSV file stem under `results/`.
    pub csv: &'static str,
    /// Columns, in order.
    pub columns: &'static [Column<R>],
}

impl<R> TableSpec<R> {
    /// The table with one row per element of `rows`.
    pub fn table(&self, rows: &[R]) -> Table {
        let header: Vec<&str> = self.columns.iter().map(|(h, _)| *h).collect();
        let mut t = Table::new(self.title, &header);
        for r in rows {
            t.row(
                &self
                    .columns
                    .iter()
                    .map(|(_, cell)| cell(r))
                    .collect::<Vec<_>>(),
            );
        }
        t
    }

    /// Print the table over `rows`, write its CSV, and embed it in `report`.
    pub fn emit(&self, rows: &[R], report: &mut RunReport) {
        let t = self.table(rows);
        t.print();
        t.write_csv(self.csv);
        report.table(&t);
    }
}

/// A simple column-aligned table with a title, for terminal output in the
/// style of the paper's tables.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// The table's title (the key it is embedded under in run reports).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// As an array of row objects keyed by the column headers, for the
    /// machine-readable run reports. Cells that parse as numbers become
    /// JSON numbers; everything else (e.g. `"1.2 ± 0.3"`) stays a string.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::object(self.header.iter().zip(row).map(|(h, cell)| {
                    let value = match cell.parse::<f64>() {
                        Ok(n) if n.is_finite() => Json::Number(n),
                        _ => Json::String(cell.clone()),
                    };
                    (h.clone(), value)
                }))
            })
            .collect();
        Json::Array(rows)
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for i in 0..ncols {
                let _ = write!(s, "{:>w$}  ", cells[i], w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        let _ = writeln!(out, "{}", "-".repeat(total.min(100)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Write as CSV under `results/<name>.csv` (best effort; the directory
    /// is created if missing).
    pub fn write_csv(&self, name: &str) {
        let dir = Path::new("results");
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut csv = String::new();
        let esc = |s: &str| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            csv,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                csv,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        let _ = fs::write(dir.join(format!("{name}.csv")), csv);
    }
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 4 decimals (loss probabilities).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format `mean ± ci`.
pub fn pm(mean: f64, ci: f64) -> String {
    format!("{mean:.3} ± {ci:.3}")
}

/// [`pm`] of one metric's mean and 95% CI.
pub fn pm_of(m: &BTreeMap<String, Summary>, metric: &str) -> String {
    pm(m[metric].mean, m[metric].ci95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        t.row(&["10".into(), "200000".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn spec_pairs_headers_with_cells() {
        let spec: TableSpec<(u32, &str)> = TableSpec {
            title: "t",
            csv: "t",
            columns: &[("n", |r| r.0.to_string()), ("name", |r| r.1.to_string())],
        };
        let mut by_hand = Table::new("t", &["n", "name"]);
        by_hand.row(&["1".into(), "a".into()]);
        by_hand.row(&["2".into(), "b".into()]);
        assert_eq!(spec.table(&[(1, "a"), (2, "b")]).render(), by_hand.render());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f4(0.01234), "0.0123");
        assert!(pm(1.0, 0.1).contains('±'));
    }
}
