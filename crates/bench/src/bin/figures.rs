//! Prints every table of the paper's evaluation — Table I, Fig. 2, Figs.
//! 3a–3h, Figs. 4a–4f and the probe-filter area table — from the JSONL
//! that `scenario_run --output` writes for the three figure grids, given
//! in this order:
//!
//! ```text
//! for grid in fig3_comparison fig3h_pf_sweep fig4_multiprocess; do
//!     cargo run --release -p allarm-bench --bin scenario_run -- \
//!         --accesses 20000 --output $grid.jsonl scenarios/$grid.toml
//! done
//! cargo run --release -p allarm-bench --bin figures -- \
//!     fig3_comparison.jsonl fig3h_pf_sweep.jsonl fig4_multiprocess.jsonl
//! ```
//!
//! A file that lacks a grid point, repeats one, or holds a malformed line
//! is refused with an error naming the file and the point or line.

use allarm_bench::figures::{render_figures, GridReports};
use std::process::ExitCode;

const USAGE: &str = "usage: figures <fig3_comparison.jsonl> <fig3h_pf_sweep.jsonl> \
     <fig4_multiprocess.jsonl>";

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [fig3, fig3h, fig4] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rendered = GridReports::read(fig3).and_then(|fig3| {
        render_figures(&fig3, &GridReports::read(fig3h)?, &GridReports::read(fig4)?)
    });
    match rendered {
        Ok(tables) => {
            print!("{tables}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
