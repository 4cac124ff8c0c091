//! Smoke tests of the figure pipeline at a tiny scale: the three figure
//! grids run through the [`BatchRunner`] into JSONL, exactly as
//! `scenario_run --output` writes it, and the `figures` renderer must turn
//! that into tables with the structural properties the paper's figures
//! rely on — or refuse a grid's output that is incomplete or malformed.

use std::sync::OnceLock;

use allarm_bench::figures::{render_figures, GridReports};
use allarm_core::{BatchResults, BatchRunner, Scenario};
use allarm_tests::shortened;
use allarm_workloads::Benchmark;

/// One figure grid's results and the JSONL `scenario_run --output` writes
/// for them.
struct GridOutput {
    results: BatchResults,
    jsonl: String,
}

/// The three figure grids' outputs, in `figures` argument order.
struct GridOutputs {
    fig3: GridOutput,
    fig3h: GridOutput,
    fig4: GridOutput,
}

fn run(scenarios: Vec<Scenario>) -> GridOutput {
    let results = BatchRunner::new()
        .run(&scenarios)
        .expect("the figure grids are valid");
    let jsonl = results
        .entries
        .iter()
        .map(|entry| entry.jsonl_line() + "\n")
        .collect();
    GridOutput { results, jsonl }
}

/// Runs the figure grids once per test binary: 1,000 accesses per thread
/// for Figs. 2–3, and 4,000 per process for Fig. 4, whose two
/// single-threaded processes need the longer trace to fill the probe
/// filter.
fn outputs() -> &'static GridOutputs {
    static OUTPUTS: OnceLock<GridOutputs> = OnceLock::new();
    OUTPUTS.get_or_init(|| GridOutputs {
        fig3: run(shortened("fig3_comparison.toml", 1_000)),
        fig3h: run(shortened("fig3h_pf_sweep.toml", 1_000)),
        fig4: run(shortened("fig4_multiprocess.toml", 4_000)),
    })
}

fn render(fig3: &str, fig3h: &str, fig4: &str) -> Result<String, String> {
    render_figures(
        &GridReports::from_jsonl("fig3.jsonl", fig3)?,
        &GridReports::from_jsonl("fig3h.jsonl", fig3h)?,
        &GridReports::from_jsonl("fig4.jsonl", fig4)?,
    )
}

fn tables() -> &'static str {
    static TABLES: OnceLock<String> = OnceLock::new();
    TABLES.get_or_init(|| {
        let out = outputs();
        render(&out.fig3.jsonl, &out.fig3h.jsonl, &out.fig4.jsonl).expect("complete grids render")
    })
}

/// One rendered table: its column header and its `(row label, values)`
/// rows.
fn table(title: &str) -> (Vec<String>, Vec<(String, Vec<f64>)>) {
    let heading = format!("# {title}");
    let mut lines = tables()
        .lines()
        .skip_while(|l| !l.starts_with(&heading))
        .skip(1)
        .take_while(|l| !l.is_empty() && !l.starts_with("# "));
    let header = lines
        .next()
        .unwrap_or_else(|| panic!("no table {title:?}"))
        .split_whitespace()
        .skip(1)
        .map(str::to_string)
        .collect();
    let rows = lines
        .map(|line| {
            let mut fields = line.split_whitespace();
            let label = fields.next().unwrap().to_string();
            let values = fields.map(|v| v.parse().unwrap()).collect();
            (label, values)
        })
        .collect();
    (header, rows)
}

/// Column `index` of `rows`, top to bottom.
fn column(rows: &[(String, Vec<f64>)], index: usize) -> Vec<f64> {
    rows.iter().map(|(_, values)| values[index]).collect()
}

#[test]
fn fig2_and_fig3_series_cover_every_benchmark() {
    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    for title in ["Fig. 2", "Fig. 3g"] {
        let (_, rows) = table(title);
        let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, names, "{title}");
        // Fractions are probabilities.
        for (bench, values) in &rows {
            assert!(
                values.iter().all(|v| (0.0..=1.0).contains(v)),
                "{title} {bench}"
            );
        }
    }
    let (_, rows) = table("Fig. 3a");
    let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels[..names.len()], names[..]);
    assert_eq!(labels.last(), Some(&"geomean"));
    assert!(column(&rows, 0).iter().all(|&speedup| speedup > 0.0));
}

#[test]
fn fig3h_sweep_produces_one_point_per_coverage() {
    let (header, rows) = table("Fig. 3h");
    assert_eq!(header, ["512kB", "256kB", "128kB"]);
    assert_eq!(rows.len(), Benchmark::ALL.len() + 1);
    for (bench, values) in &rows {
        assert_eq!(values.len(), 3, "{bench}");
    }
}

#[test]
fn fig4_sweep_baseline_degrades_monotonically_in_evictions() {
    // Both panels normalise to the baseline at 512 kB, so they compare
    // like raw eviction counts.
    let (benchmarks, baseline) = table("Fig. 4b");
    let (_, allarm) = table("Fig. 4e");
    assert_eq!(benchmarks.len(), Benchmark::MULTIPROCESS.len());
    for (i, bench) in benchmarks.iter().enumerate() {
        let base = column(&baseline, i);
        let ours = column(&allarm, i);
        for pair in base.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "{bench}: a smaller probe filter cannot evict fewer entries"
            );
        }
        // ALLARM stays (nearly) flat: it never evicts more than the baseline.
        assert!(ours.iter().zip(&base).all(|(a, b)| a <= b), "{bench}");
    }
}

#[test]
fn area_table_is_monotonic_and_matches_published_points() {
    // The area table has no column header: every line is a row.
    let rows: Vec<(&str, f64)> = tables()
        .lines()
        .skip_while(|l| !l.starts_with("# Probe-filter area"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let (label, area) = l.trim().split_once(char::is_whitespace).unwrap();
            (label, area.trim().parse().unwrap())
        })
        .collect();
    let labels: Vec<&str> = rows.iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, ["512kB", "256kB", "128kB", "64kB", "32kB"]);
    assert!(rows.windows(2).all(|pair| pair[1].1 < pair[0].1));
    assert_eq!((rows[0].1, rows[4].1), (70.89, 5.93));
}

#[test]
fn coverage_labels_match_the_paper() {
    let (_, rows) = table("Fig. 4a");
    let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["512kB", "256kB", "128kB", "64kB", "32kB"]);
}

#[test]
fn every_table_renders_once_in_paper_order() {
    let titles: Vec<&str> = tables()
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .map(|t| t.split(':').next().unwrap())
        .collect();
    let expected = [
        "Table I",
        "Fig. 2",
        "Fig. 3a",
        "Fig. 3b",
        "Fig. 3c",
        "Fig. 3d",
        "Fig. 3e",
        "Fig. 3f",
        "Fig. 3g",
        "Fig. 3h",
        "Fig. 4a",
        "Fig. 4b",
        "Fig. 4c",
        "Fig. 4d",
        "Fig. 4e",
        "Fig. 4f",
        "Probe-filter area (mm2)",
    ];
    assert_eq!(titles, expected);
}

#[test]
fn jsonl_round_trip_renders_like_the_reports_themselves() {
    let out = outputs();
    let reports = |grid: &GridOutput, name: &str| {
        GridReports::new(name, grid.results.reports().cloned()).unwrap()
    };
    let direct = render_figures(
        &reports(&out.fig3, "fig3"),
        &reports(&out.fig3h, "fig3h"),
        &reports(&out.fig4, "fig4"),
    )
    .unwrap();
    assert_eq!(direct, tables());
}

#[test]
fn a_grid_missing_a_point_is_rejected_naming_the_file_and_point() {
    let out = outputs();
    let dir = std::env::temp_dir().join(format!("allarm-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig3h.jsonl");
    // Drop the last row: x264 at 128 kB under ALLARM.
    let short: Vec<&str> = out.fig3h.jsonl.lines().collect();
    std::fs::write(&path, short[..short.len() - 1].join("\n")).unwrap();
    let path = path.to_str().unwrap();
    let fig3 = GridReports::from_jsonl("fig3.jsonl", &out.fig3.jsonl).unwrap();
    let fig4 = GridReports::from_jsonl("fig4.jsonl", &out.fig4.jsonl).unwrap();
    let err = render_figures(&fig3, &GridReports::read(path).unwrap(), &fig4).unwrap_err();
    assert!(err.contains(path), "{err}");
    assert!(
        err.contains("missing grid point x264 at 128kB under allarm"),
        "{err}"
    );

    // The Fig. 4 output passed where the Fig. 3h output belongs holds
    // none of Fig. 3h's points.
    let err = render(&out.fig3.jsonl, &out.fig4.jsonl, &out.fig4.jsonl).unwrap_err();
    assert!(err.starts_with("fig3h.jsonl: missing grid point"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_grid_with_a_stray_or_repeated_point_is_rejected() {
    let out = outputs();
    let first = out.fig4.jsonl.lines().next().unwrap();
    let repeated = format!("{}{first}\n", out.fig3.jsonl);
    let err = render(&repeated, &out.fig3h.jsonl, &out.fig4.jsonl).unwrap_err();
    assert!(
        err.starts_with("fig3.jsonl: unexpected grid point barnes-2p at 512kB under baseline"),
        "{err}"
    );
    let repeated = format!("{}{first}\n", out.fig4.jsonl);
    let err = render(&out.fig3.jsonl, &out.fig3h.jsonl, &repeated).unwrap_err();
    assert_eq!(
        err,
        "fig4.jsonl: duplicate grid point barnes-2p at 512kB under baseline"
    );
}

#[test]
fn a_malformed_line_is_rejected_naming_the_file_and_line() {
    let out = outputs();
    let mut lines: Vec<&str> = out.fig3.jsonl.lines().collect();
    lines[2] = "{\"index\":2,\"scenario\":\"cut";
    let err = GridReports::from_jsonl("fig3.jsonl", &lines.join("\n")).unwrap_err();
    assert!(err.starts_with("fig3.jsonl:3: malformed row"), "{err}");
    lines[2] = "{\"index\":2,\"scenario\":\"x\",\"report\":{\"workload\":\"barnes\"}}";
    let err = GridReports::from_jsonl("fig3.jsonl", &lines.join("\n")).unwrap_err();
    assert!(err.starts_with("fig3.jsonl:3: malformed report"), "{err}");
}
