//! Renders every table of the paper's evaluation from the reports of the
//! three figure grids.
//!
//! The `figures` binary reads the JSONL that `scenario_run --output` writes
//! for `scenarios/fig3_comparison.toml`, `fig3h_pf_sweep.toml` and
//! `fig4_multiprocess.toml`; tests build [`GridReports`] straight from a
//! `BatchRunner` run. Reports are matched to grid points by their
//! `workload`, `pf_coverage_bytes` and `policy` fields, never by line
//! order, and a grid that lacks a point the figures plot, repeats one, or
//! holds one they do not plot is an error naming the file and the point.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use allarm_core::report::{format_coverage, render_sweep_table, render_table, FigureSeries};
use allarm_core::{AllocationPolicy, Comparison, MachineConfig, SimReport};
use allarm_energy::probe_filter_area_mm2;
use allarm_types::stats::normalized;
use allarm_workloads::Benchmark;
use serde::Deserialize as _;

/// The probe-filter coverages of Fig. 3h (512 kB, 256 kB, 128 kB), swept
/// by `scenarios/fig3h_pf_sweep.toml`.
const FIG3H_COVERAGES: [u64; 3] = [512 * 1024, 256 * 1024, 128 * 1024];

/// The probe-filter coverages of Fig. 4 (512 kB down to 32 kB), swept by
/// `scenarios/fig4_multiprocess.toml`.
const FIG4_COVERAGES: [u64; 5] = [512 * 1024, 256 * 1024, 128 * 1024, 64 * 1024, 32 * 1024];

/// Where one report sits in a figure grid: its workload label (`barnes`,
/// or `barnes-2p` for the two-process runs of Fig. 4), probe-filter
/// coverage per node and policy name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct GridPoint {
    workload: String,
    pf_coverage_bytes: u64,
    policy: String,
}

impl GridPoint {
    fn new(workload: &str, pf_coverage_bytes: u64, policy: AllocationPolicy) -> Self {
        GridPoint {
            workload: workload.to_string(),
            pf_coverage_bytes,
            policy: policy.name().to_string(),
        }
    }
}

impl fmt::Display for GridPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} under {}",
            self.workload,
            format_coverage(self.pf_coverage_bytes),
            self.policy
        )
    }
}

/// The reports of one figure grid, indexed by grid point.
#[derive(Debug, Clone)]
pub struct GridReports {
    source: String,
    reports: BTreeMap<GridPoint, SimReport>,
}

impl GridReports {
    /// Indexes `reports`, which came from `source` (a file name, used in
    /// error messages).
    ///
    /// # Errors
    ///
    /// Returns an error naming `source` and the point when two reports
    /// share a grid point.
    pub fn new(
        source: impl Into<String>,
        reports: impl IntoIterator<Item = SimReport>,
    ) -> Result<Self, String> {
        let source = source.into();
        let mut indexed = BTreeMap::new();
        for report in reports {
            let point = GridPoint {
                workload: report.workload.clone(),
                pf_coverage_bytes: report.pf_coverage_bytes,
                policy: report.policy.clone(),
            };
            if indexed.contains_key(&point) {
                return Err(format!("{source}: duplicate grid point {point}"));
            }
            indexed.insert(point, report);
        }
        Ok(GridReports {
            source,
            reports: indexed,
        })
    }

    /// Parses the JSONL rows `scenario_run --output` wrote to `source`: one
    /// `{"index", "scenario", "report"}` object per line.
    ///
    /// # Errors
    ///
    /// Returns an error naming `source` and the line number for a line
    /// that is not such a row, or [`GridReports::new`]'s error.
    pub fn from_jsonl(source: impl Into<String>, text: &str) -> Result<Self, String> {
        let source = source.into();
        let mut reports = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let row: serde::Value = serde_json::from_str(line)
                .map_err(|e| format!("{source}:{}: malformed row: {e}", i + 1))?;
            let report = row
                .get("report")
                .ok_or_else(|| format!("{source}:{}: malformed row: no `report`", i + 1))
                .and_then(|r| {
                    SimReport::from_value(r)
                        .map_err(|e| format!("{source}:{}: malformed report: {e}", i + 1))
                })?;
            reports.push(report);
        }
        GridReports::new(source, reports)
    }

    /// Reads and parses the JSONL file at `path` (see
    /// [`GridReports::from_jsonl`]).
    ///
    /// # Errors
    ///
    /// Returns an error naming `path` when it cannot be read or parsed.
    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        GridReports::from_jsonl(path, &text)
    }

    /// Checks that the reports cover exactly `workloads × coverages × both
    /// policies`, so every later [`GridReports::at`] lookup succeeds.
    fn check(&self, workloads: &[String], coverages: &[u64]) -> Result<(), String> {
        let mut expected = Vec::new();
        for workload in workloads {
            for &coverage in coverages {
                for policy in AllocationPolicy::ALL {
                    expected.push(GridPoint::new(workload, coverage, policy));
                }
            }
        }
        if let Some(missing) = expected.iter().find(|p| !self.reports.contains_key(p)) {
            return Err(format!("{}: missing grid point {missing}", self.source));
        }
        if let Some(extra) = self.reports.keys().find(|p| !expected.contains(p)) {
            return Err(format!(
                "{}: unexpected grid point {extra} (is this the right grid's output?)",
                self.source
            ));
        }
        Ok(())
    }

    /// The report at one point of a grid that passed [`GridReports::check`].
    fn at(&self, workload: &str, coverage: u64, policy: AllocationPolicy) -> &SimReport {
        &self.reports[&GridPoint::new(workload, coverage, policy)]
    }
}

/// Renders Table I, Fig. 2, Figs. 3a–3h, Figs. 4a–4f and the probe-filter
/// area table, in paper order, from the reports of the Fig. 3 comparison
/// grid, the Fig. 3h probe-filter sweep and the Fig. 4 multi-process
/// sweep.
///
/// # Errors
///
/// Returns an error naming the grid's source and the point when a grid
/// lacks a point the figures plot or holds one they do not.
pub fn render_figures(
    fig3: &GridReports,
    fig3h: &GridReports,
    fig4: &GridReports,
) -> Result<String, String> {
    let mut out = render_table1(&MachineConfig::date2014());
    out.push('\n');
    render_fig2_fig3(&mut out, fig3)?;
    render_fig3h(&mut out, fig3h)?;
    render_fig4(&mut out, fig4)?;
    out.push_str("# Probe-filter area (mm2)\n");
    for coverage in FIG4_COVERAGES {
        let _ = writeln!(
            out,
            "{:>6}kB  {:>8.2}",
            coverage / 1024,
            probe_filter_area_mm2(coverage)
        );
    }
    Ok(out)
}

/// Table I: the simulated system configuration.
fn render_table1(m: &MachineConfig) -> String {
    format!(
        "# Table I: simulated system\n\
         cores                 {} @ {} GHz\n\
         block size            {} bytes\n\
         L1I / L1D             {} kB {}-way / {} kB {}-way, {} access\n\
         L2 (private, excl.)   {} kB {}-way, {} access\n\
         probe filter          tracks {} kB of cached data, {}-way, {} access\n\
         DRAM per node         {} MB, {} access\n\
         network               {}x{} mesh, {} B flits, {} B control / {} B data msgs\n\
         link                  {} GB/s, {} latency\n",
        m.num_cores,
        m.frequency_ghz,
        m.l2.line_bytes,
        m.l1i.size_bytes / 1024,
        m.l1i.ways,
        m.l1d.size_bytes / 1024,
        m.l1d.ways,
        m.l1d.access_latency,
        m.l2.size_bytes / 1024,
        m.l2.ways,
        m.l2.access_latency,
        m.probe_filter.coverage_bytes / 1024,
        m.probe_filter.ways,
        m.probe_filter.access_latency,
        m.dram.node_capacity_bytes / (1024 * 1024),
        m.dram.access_latency,
        m.noc.mesh_x,
        m.noc.mesh_y,
        m.noc.flit_bytes,
        m.noc.control_msg_bytes,
        m.noc.data_msg_bytes,
        m.noc.link_bandwidth_bytes_per_ns,
        m.noc.link_latency
    )
}

fn benchmark_names(benchmarks: &[Benchmark], suffix: &str) -> Vec<String> {
    benchmarks
        .iter()
        .map(|b| format!("{}{suffix}", b.name()))
        .collect()
}

/// Fig. 2 and Figs. 3a–3g: every benchmark under both policies at the
/// paper's probe-filter size.
fn render_fig2_fig3(out: &mut String, grid: &GridReports) -> Result<(), String> {
    let coverage = MachineConfig::date2014().probe_filter.coverage_bytes;
    grid.check(&benchmark_names(&Benchmark::ALL, ""), &[coverage])?;

    let mut fig2_local = FigureSeries::without_geomean("local");
    let mut fig2_remote = FigureSeries::without_geomean("remote");
    let mut fig3a = FigureSeries::new("speedup");
    let mut fig3b = FigureSeries::without_geomean("evictions");
    let mut fig3c = FigureSeries::new("traffic");
    let mut fig3d = FigureSeries::without_geomean("messages");
    let mut fig3e = FigureSeries::without_geomean("l2-misses");
    let mut fig3f_noc = FigureSeries::new("NoC");
    let mut fig3f_pf = FigureSeries::new("PF");
    let mut fig3g = FigureSeries::without_geomean("hidden");
    for bench in Benchmark::ALL {
        let name = bench.name();
        let cmp = Comparison::new(
            grid.at(name, coverage, AllocationPolicy::Baseline).clone(),
            grid.at(name, coverage, AllocationPolicy::Allarm).clone(),
        );
        fig2_local.push(name, cmp.baseline.local_fraction());
        fig2_remote.push(name, cmp.baseline.remote_fraction());
        fig3a.push(name, cmp.speedup());
        fig3b.push(name, cmp.normalized_evictions());
        fig3c.push(name, cmp.normalized_traffic());
        fig3d.push(name, cmp.baseline_messages_per_eviction());
        fig3e.push(name, cmp.normalized_l2_misses());
        fig3f_noc.push(name, cmp.normalized_noc_energy());
        fig3f_pf.push(name, cmp.normalized_pf_energy());
        fig3g.push(name, cmp.hidden_probe_fraction());
    }
    let tables: [(&str, Vec<FigureSeries>); 8] = [
        (
            "Fig. 2: local vs remote directory requests",
            vec![fig2_local, fig2_remote],
        ),
        ("Fig. 3a: speedup over baseline", vec![fig3a]),
        ("Fig. 3b: normalised probe-filter evictions", vec![fig3b]),
        ("Fig. 3c: normalised network traffic", vec![fig3c]),
        ("Fig. 3d: messages per probe-filter eviction", vec![fig3d]),
        ("Fig. 3e: normalised L2 misses", vec![fig3e]),
        (
            "Fig. 3f: normalised dynamic energy",
            vec![fig3f_noc, fig3f_pf],
        ),
        ("Fig. 3g: local probes off the critical path", vec![fig3g]),
    ];
    for (title, series) in &tables {
        let _ = writeln!(out, "{}", render_table(title, series));
    }
    Ok(())
}

/// Fig. 3h: ALLARM's speedup at each probe-filter size, normalised to the
/// baseline at the largest size.
fn render_fig3h(out: &mut String, grid: &GridReports) -> Result<(), String> {
    grid.check(&benchmark_names(&Benchmark::ALL, ""), &FIG3H_COVERAGES)?;
    let mut series: Vec<FigureSeries> = FIG3H_COVERAGES
        .iter()
        .map(|c| FigureSeries::new(format_coverage(*c)))
        .collect();
    for bench in Benchmark::ALL {
        let name = bench.name();
        let reference = grid
            .at(name, FIG3H_COVERAGES[0], AllocationPolicy::Baseline)
            .runtime
            .as_f64();
        for (s, &coverage) in series.iter_mut().zip(&FIG3H_COVERAGES) {
            let allarm = grid.at(name, coverage, AllocationPolicy::Allarm);
            s.push(name, reference / allarm.runtime.as_f64());
        }
    }
    let _ = writeln!(
        out,
        "{}",
        render_table("Fig. 3h: ALLARM speedup vs probe-filter size", &series)
    );
    Ok(())
}

/// Figs. 4a–4f: the two-process runs' speedup, evictions and traffic under
/// each policy as the probe filter shrinks, all normalised to the baseline
/// at the largest size.
fn render_fig4(out: &mut String, grid: &GridReports) -> Result<(), String> {
    // A two-process workload reports its benchmark's name with this suffix.
    let workloads = benchmark_names(&Benchmark::MULTIPROCESS, "-2p");
    grid.check(&workloads, &FIG4_COVERAGES)?;
    let labels: Vec<String> = FIG4_COVERAGES.iter().map(|c| format_coverage(*c)).collect();

    type Metric = fn(&SimReport, &SimReport) -> f64;
    let speedup: Metric = |p, reference| reference.runtime.as_f64() / p.runtime.as_f64();
    let evictions: Metric =
        |p, reference| normalized(p.pf_evictions as f64, reference.pf_evictions as f64);
    let traffic: Metric = |p, reference| normalized(p.noc_bytes as f64, reference.noc_bytes as f64);
    let metrics = [
        ("speedup", speedup),
        ("normalised evictions", evictions),
        ("normalised traffic", traffic),
    ];
    // Panels a–c plot the baseline, d–f ALLARM; all share one reference.
    let panels = [
        (AllocationPolicy::Baseline, "baseline"),
        (AllocationPolicy::Allarm, "ALLARM"),
    ]
    .into_iter()
    .flat_map(|policy| metrics.map(|metric| (policy, metric)));
    for (letter, ((policy, who), (what, metric))) in ('a'..='f').zip(panels) {
        let series: Vec<FigureSeries> = Benchmark::MULTIPROCESS
            .iter()
            .zip(&workloads)
            .map(|(bench, workload)| {
                let reference = grid.at(workload, FIG4_COVERAGES[0], AllocationPolicy::Baseline);
                let mut s = FigureSeries::without_geomean(bench.name());
                for (label, &coverage) in labels.iter().zip(&FIG4_COVERAGES) {
                    s.push(
                        label.clone(),
                        metric(grid.at(workload, coverage, policy), reference),
                    );
                }
                s
            })
            .collect();
        let title = format!("Fig. 4{letter}: {who} {what}");
        let _ = writeln!(out, "{}", render_sweep_table(&title, &labels, &series));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_coverage_constants_match_the_paper() {
        assert_eq!(FIG3H_COVERAGES, [524288, 262144, 131072]);
        assert_eq!(FIG4_COVERAGES.len(), 5);
        assert_eq!(FIG4_COVERAGES[4], 32 * 1024);
    }
}
