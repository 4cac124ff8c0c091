//! Plain-text table formatting for the paper's figures.
//!
//! The paper's figures are bar charts over the eight benchmarks (plus a
//! geometric mean). The `figures` binary prints the same series as aligned
//! text tables; this module holds the small formatting helpers they share so
//! every figure is rendered consistently.

use allarm_types::stats::geometric_mean;
use std::fmt::Write as _;

/// A single named series of per-benchmark values, as plotted in one of the
/// paper's bar charts.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// Series label (e.g. "speedup" or "NoC").
    pub label: String,
    /// `(benchmark, value)` pairs in figure order.
    pub values: Vec<(String, f64)>,
    /// Whether to append a geometric-mean row (the paper adds "geomean" to
    /// most figures).
    pub with_geomean: bool,
}

impl FigureSeries {
    /// Creates a series with a geometric-mean row.
    pub fn new(label: impl Into<String>) -> Self {
        FigureSeries {
            label: label.into(),
            values: Vec::new(),
            with_geomean: true,
        }
    }

    /// Creates a series without a geometric-mean row (Fig. 3d and 3g do not
    /// show one).
    pub fn without_geomean(label: impl Into<String>) -> Self {
        FigureSeries {
            with_geomean: false,
            ..FigureSeries::new(label)
        }
    }

    /// Appends one benchmark's value.
    pub fn push(&mut self, benchmark: impl Into<String>, value: f64) {
        self.values.push((benchmark.into(), value));
    }

    /// The geometric mean of the series, if it is well-defined.
    pub fn geomean(&self) -> Option<f64> {
        let vals: Vec<f64> = self.values.iter().map(|(_, v)| *v).collect();
        geometric_mean(&vals)
    }
}

/// Renders one or more series as an aligned text table with one row per
/// benchmark (and a final geomean row when requested by every series).
///
/// # Panics
///
/// Panics if the series do not all cover the same benchmarks in the same
/// order.
pub fn render_table(title: &str, series: &[FigureSeries]) -> String {
    assert!(!series.is_empty(), "a table needs at least one series");
    let benchmarks: Vec<&str> = series[0].values.iter().map(|(b, _)| b.as_str()).collect();
    for s in series {
        let names: Vec<&str> = s.values.iter().map(|(b, _)| b.as_str()).collect();
        assert_eq!(
            names, benchmarks,
            "all series must cover the same benchmarks"
        );
    }

    let name_width = benchmarks
        .iter()
        .map(|b| b.len())
        .chain(std::iter::once("geomean".len()))
        .max()
        .unwrap_or(8)
        .max(8);
    let col_width = series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(8)
        .max(10);

    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:<name_width$}", "benchmark");
    for s in series {
        let _ = write!(out, "  {:>col_width$}", s.label);
    }
    out.push('\n');

    for (row, bench) in benchmarks.iter().enumerate() {
        let _ = write!(out, "{bench:<name_width$}");
        for s in series {
            let _ = write!(out, "  {:>col_width$.3}", s.values[row].1);
        }
        out.push('\n');
    }

    if series.iter().all(|s| s.with_geomean) {
        let _ = write!(out, "{:<name_width$}", "geomean");
        for s in series {
            match s.geomean() {
                Some(g) => {
                    let _ = write!(out, "  {:>col_width$.3}", g);
                }
                None => {
                    let _ = write!(out, "  {:>col_width$}", "n/a");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a sweep table: one row per probe-filter size, one column per
/// labelled series (used for Fig. 3h and Fig. 4).
pub fn render_sweep_table(title: &str, row_labels: &[String], series: &[FigureSeries]) -> String {
    assert!(!series.is_empty(), "a table needs at least one series");
    for s in series {
        assert_eq!(
            s.values.len(),
            row_labels.len(),
            "series {} does not cover every row",
            s.label
        );
    }
    let name_width = row_labels.iter().map(|l| l.len()).max().unwrap_or(6).max(6);
    let col_width = series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(8)
        .max(10);

    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:<name_width$}", "config");
    for s in series {
        let _ = write!(out, "  {:>col_width$}", s.label);
    }
    out.push('\n');
    for (row, label) in row_labels.iter().enumerate() {
        let _ = write!(out, "{label:<name_width$}");
        for s in series {
            let _ = write!(out, "  {:>col_width$.3}", s.values[row].1);
        }
        out.push('\n');
    }
    out
}

/// Formats a probe-filter coverage in the "512kB" style the paper uses.
pub fn format_coverage(bytes: u64) -> String {
    format!("{}kB", bytes / 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_and_computes_geomean() {
        let mut s = FigureSeries::new("speedup");
        s.push("a", 1.0);
        s.push("b", 4.0);
        let g = s.geomean().unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_contains_all_rows_and_geomean() {
        let mut s = FigureSeries::new("speedup");
        s.push("barnes", 1.15);
        s.push("x264", 1.05);
        let table = render_table("Fig 3a", &[s]);
        assert!(table.contains("barnes"));
        assert!(table.contains("x264"));
        assert!(table.contains("geomean"));
        assert!(table.contains("1.150"));
    }

    #[test]
    fn table_without_geomean_omits_the_row() {
        let mut s = FigureSeries::without_geomean("messages");
        s.push("barnes", 2.4);
        let table = render_table("Fig 3d", &[s]);
        assert!(!table.contains("geomean"));
    }

    #[test]
    fn multi_series_tables_align_rows() {
        let mut a = FigureSeries::new("NoC");
        a.push("barnes", 0.92);
        let mut b = FigureSeries::new("PF");
        b.push("barnes", 0.85);
        let table = render_table("Fig 3f", &[a, b]);
        assert!(table.contains("NoC"));
        assert!(table.contains("PF"));
    }

    #[test]
    #[should_panic(expected = "same benchmarks")]
    fn mismatched_series_are_rejected() {
        let mut a = FigureSeries::new("x");
        a.push("barnes", 1.0);
        let mut b = FigureSeries::new("y");
        b.push("cholesky", 1.0);
        render_table("bad", &[a, b]);
    }

    #[test]
    fn sweep_table_renders_rows_per_size() {
        let mut s = FigureSeries::new("speedup");
        s.push("512kB", 1.0);
        s.push("256kB", 0.97);
        let table = render_sweep_table(
            "Fig 3h barnes",
            &["512kB".to_string(), "256kB".to_string()],
            &[s],
        );
        assert!(table.contains("512kB"));
        assert!(table.contains("0.970"));
    }

    #[test]
    fn coverage_formatting() {
        assert_eq!(format_coverage(512 * 1024), "512kB");
        assert_eq!(format_coverage(32 * 1024), "32kB");
    }
}
