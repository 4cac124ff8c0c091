//! Runs a declarative scenario document: the front door of the redesigned
//! API. Accepts a single `Scenario` or a `ScenarioGrid` in TOML or JSON,
//! expands it, executes the set in parallel, and prints one summary row per
//! run (or full JSONL reports with `--json`). `--output` streams results to
//! disk as they complete — JSONL, or CSV when the path ends in `.csv` —
//! `--resume` continues an interrupted `--output` sweep by skipping the
//! grid indices already recorded in the file — after verifying the
//! recorded rows still match the batch, so resuming under different
//! settings (e.g. another `--accesses`) fails cleanly instead of mixing
//! rows — `--sim-threads` shards every run across worker threads
//! (byte-identical results; see the README's parallelism section), and
//! `--accesses` overrides the per-thread trace length (for smoke runs of
//! checked-in grids; a trace replay of any format is cut to that prefix).
//!
//! Checkpointing composes with the resume machinery: `--checkpoint-every
//! <accesses>` drops a versioned snapshot (`<output>.snap`) of the
//! in-flight run every N replayed accesses, and `--restore <snap>`
//! continues a `--resume` sweep from *inside* the interrupted row instead
//! of replaying it from scratch. Before anything is written, the
//! snapshot's resume cursor is verified against the rows actually
//! recorded in the output file, and the snapshot against its row's
//! machine, policies and workload — a stale or mismatched snapshot fails
//! (exit status 1) with the file untouched. `--verify-forks` makes
//! fork-from-warm grids (a `[warmup]` stanza) re-run every forked point
//! cold and assert the reports are identical.
//!
//! ```text
//! cargo run --release -p allarm-bench --bin scenario_run -- scenarios/fig3_comparison.toml
//! cargo run --release -p allarm-bench --bin scenario_run -- --json my_scenario.toml
//! cargo run --release -p allarm-bench --bin scenario_run -- \
//!     --sim-threads 4 --output results.csv scenarios/fig3_comparison.toml
//! cargo run --release -p allarm-bench --bin scenario_run -- \
//!     --resume --output results.jsonl scenarios/scale64_pf_sweep.toml
//! cargo run --release -p allarm-bench --bin scenario_run -- \
//!     --checkpoint-every 50000 --output results.jsonl scenarios/scale64_pf_sweep.toml
//! cargo run --release -p allarm-bench --bin scenario_run -- \
//!     --resume --restore results.jsonl.snap --output results.jsonl scenarios/scale64_pf_sweep.toml
//! ```

use allarm_core::doc::override_accesses;
use allarm_core::{
    load_scenario_doc, verify_resume_rows, BatchRunner, CsvFileSink, JsonlFileSink, JsonlSink,
    ResultSink, ResumeScan, SimSnapshot,
};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: scenario_run [--json] [--output <path>] [--resume] \
     [--sim-threads <n>] [--accesses <n>] [--checkpoint-every <n>] \
     [--restore <snap>] [--verify-forks] <scenario.toml|scenario.json>";

fn main() -> ExitCode {
    let mut json = false;
    let mut output: Option<String> = None;
    let mut resume = false;
    let mut sim_threads: Option<usize> = None;
    let mut accesses: Option<NonZeroUsize> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut restore_path: Option<String> = None;
    let mut verify_forks = false;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--resume" => resume = true,
            "--verify-forks" => verify_forks = true,
            "--checkpoint-every" => {
                match args.next().and_then(|n| n.parse().ok()).filter(|&n| n > 0) {
                    Some(n) => checkpoint_every = Some(n),
                    None => {
                        eprintln!("--checkpoint-every needs a positive access count\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--restore" => match args.next() {
                Some(p) => restore_path = Some(p),
                None => {
                    eprintln!("--restore needs a snapshot path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--output" => match args.next() {
                Some(p) => output = Some(p),
                None => {
                    eprintln!("--output needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--sim-threads" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => sim_threads = Some(n),
                None => {
                    eprintln!("--sim-threads needs a number (0 = all hardware threads)\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--accesses" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => accesses = Some(n),
                None => {
                    eprintln!("--accesses needs a positive per-thread access count\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if resume && output.is_none() {
        eprintln!("--resume needs --output (the file to continue)\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if checkpoint_every.is_some() && output.is_none() {
        eprintln!("--checkpoint-every needs --output (the snapshot lands next to it)\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if restore_path.is_some() && !(resume && output.is_some()) {
        eprintln!(
            "--restore needs --resume and --output (a snapshot continues an \
             interrupted sweep, and its cursor is checked against the recorded rows)\n{USAGE}"
        );
        return ExitCode::FAILURE;
    }

    // Format sniffing (case-insensitive .json check) and trace-path
    // resolution live in the shared loader.
    let doc = match load_scenario_doc(&path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Document-level validation catches grid-axis problems (e.g. a
    // benchmark sweep over a trace replay) that per-scenario validation
    // inside the runner cannot see.
    if let Err(e) = doc.validate() {
        eprintln!("{path}: {e}");
        return ExitCode::FAILURE;
    }

    let mut scenarios = doc.expand();
    if let Some(n) = sim_threads {
        for scenario in &mut scenarios {
            scenario.sim_threads = allarm_core::SimThreads(n);
        }
    }
    if let Some(n) = accesses {
        // Generated workloads get the new length; trace replays of every
        // format are cut to an `n`-record prefix per thread.
        override_accesses(&mut scenarios, n);
    }
    let mut runner = BatchRunner::new().with_verify_forks(verify_forks);
    if let Some(every) = checkpoint_every {
        // `--checkpoint-every` was rejected above without `--output`.
        let output = output.as_deref().expect("checked above");
        runner = runner.with_checkpoint_every(every, format!("{output}.snap"));
    }
    // A corrupt, truncated or version-skewed snapshot is refused here, before
    // the output file is even opened; the `SnapError` names the bad section.
    let restore = match &restore_path {
        Some(p) => match SimSnapshot::read_from(p) {
            Ok(snap) => {
                eprintln!(
                    "[scenario_run] restoring row {} (`{}`) from {p} at {} accesses",
                    snap.header().row_index,
                    snap.header().scenario,
                    snap.accesses_done(),
                );
                Some(Arc::new(snap))
            }
            Err(e) => {
                eprintln!("{p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    eprintln!(
        "[scenario_run] {} scenario(s) on {} threads{}",
        scenarios.len(),
        runner.num_threads(),
        match sim_threads {
            Some(n) => format!(" (x {n} intra-run)"),
            None => String::new(),
        }
    );

    if let Some(output) = output {
        return run_to_file(&runner, &scenarios, &path, &output, resume, restore);
    }

    if json {
        let mut sink = JsonlSink::new();
        if let Err(e) = runner.run_with_sink(&scenarios, &mut sink) {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
        print!("{}", sink.into_string());
        return ExitCode::SUCCESS;
    }

    let results = match runner.run(&scenarios) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<40} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "scenario", "runtime ns", "l2 misses", "pf evict", "noc bytes", "local"
    );
    for entry in &results.entries {
        println!(
            "{:<40} {:>12} {:>10} {:>10} {:>12} {:>10.3}",
            entry.scenario.name,
            entry.report.runtime.as_u64(),
            entry.report.l2_misses,
            entry.report.pf_evictions,
            entry.report.noc_bytes,
            entry.report.local_fraction(),
        );
    }
    ExitCode::SUCCESS
}

/// Streams the batch into a file-backed sink: CSV when the path ends in
/// `.csv`, JSONL otherwise. With `resume`, the partially-written output is
/// first *scanned and verified* against the batch — a file recorded under
/// different settings (an `--accesses` override, an edited document, the
/// wrong file) fails here with the output untouched — then the recorded
/// indices are skipped and new rows append after them. With `restore`, the
/// snapshot's resume cursor must additionally agree with the scan, and the
/// snapshot must fit its row's machine, policies and workload, before the
/// file is reopened: a snapshot taken after N rows only restores into a
/// file holding exactly N rows.
fn run_to_file(
    runner: &BatchRunner,
    scenarios: &[allarm_core::Scenario],
    doc_path: &str,
    output: &str,
    resume: bool,
    restore: Option<Arc<SimSnapshot>>,
) -> ExitCode {
    fn run_into<S: ResultSink>(
        created: Result<(S, BatchRunner), String>,
        finish: impl FnOnce(S) -> std::io::Result<()>,
        scenarios: &[allarm_core::Scenario],
        doc_path: &str,
        output: &str,
    ) -> Result<(), String> {
        let (mut sink, runner) = created?;
        runner
            .run_with_sink(scenarios, &mut sink)
            .map_err(|e| format!("{doc_path}: {e}"))?;
        finish(sink).map_err(|e| format!("writing {output}: {e}"))
    }

    /// Scan (read-only) → verify the recorded rows against the batch →
    /// verify the restore snapshot's cursor against the recorded rows →
    /// validate the runner (the snapshot against its row's machine,
    /// policies and workload included) → reopen for append. A verification failure leaves the output file
    /// byte-identical to how the interruption left it.
    fn resumed<S>(
        scanned: std::io::Result<ResumeScan>,
        reopen: impl FnOnce(&ResumeScan) -> std::io::Result<S>,
        runner: &BatchRunner,
        scenarios: &[allarm_core::Scenario],
        output: &str,
        restore: Option<Arc<SimSnapshot>>,
    ) -> Result<(S, BatchRunner), String> {
        let scan = scanned.map_err(|e| format!("cannot read {output}: {e}"))?;
        verify_resume_rows(scenarios, scan.rows())
            .map_err(|e| format!("cannot resume {output}: {e}"))?;
        let completed = scan.completed();
        let recorded = completed.len();
        let mut runner = runner.clone().with_completed(completed);
        if let Some(snap) = restore {
            // A snapshot without a row cursor is refused by `validate`.
            let header = snap.header();
            if header.is_batch_checkpoint() && header.row_index as usize != scan.rows().len() {
                return Err(format!(
                    "cannot restore into {output}: the snapshot was taken after {} recorded \
                     row(s) but the file holds {} — a stale snapshot or the wrong output \
                     file; nothing was written",
                    header.row_index,
                    scan.rows().len()
                ));
            }
            runner = runner.with_restore(snap);
        }
        runner
            .validate(scenarios)
            .map_err(|e| format!("cannot resume {output}: {e}; nothing was written"))?;
        if recorded > 0 {
            eprintln!(
                "[scenario_run] resuming {output}: {recorded} of {} row(s) already recorded",
                scenarios.len()
            );
        }
        let sink = reopen(&scan).map_err(|e| format!("cannot open {output}: {e}"))?;
        Ok((sink, runner))
    }

    fn fresh<S>(
        created: std::io::Result<S>,
        runner: &BatchRunner,
        output: &str,
    ) -> Result<(S, BatchRunner), String> {
        created
            .map(|s| (s, runner.clone()))
            .map_err(|e| format!("cannot open {output}: {e}"))
    }

    let result = if output.ends_with(".csv") {
        run_into(
            if resume {
                resumed(
                    CsvFileSink::scan(output),
                    |scan| CsvFileSink::resume_scanned(output, scan),
                    runner,
                    scenarios,
                    output,
                    restore,
                )
            } else {
                fresh(CsvFileSink::create(output), runner, output)
            },
            CsvFileSink::finish,
            scenarios,
            doc_path,
            output,
        )
    } else {
        run_into(
            if resume {
                resumed(
                    JsonlFileSink::scan(output),
                    |scan| JsonlFileSink::resume_scanned(output, scan),
                    runner,
                    scenarios,
                    output,
                    restore,
                )
            } else {
                fresh(JsonlFileSink::create(output), runner, output)
            },
            JsonlFileSink::finish,
            scenarios,
            doc_path,
            output,
        )
    };
    match result {
        Ok(()) => {
            eprintln!("[scenario_run] wrote {output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
