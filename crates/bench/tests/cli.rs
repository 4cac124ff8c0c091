//! The command-line front ends, driven as a user drives them: a trace-length
//! override that cannot take effect must say so (or fail), never silently
//! replay a whole trace, and `figures` must refuse incomplete input.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use allarm_bench::tracefile_source_grid;
use allarm_core::{TraceFormat, WorkloadSpec};
use allarm_workloads::tracefile::write_trace_file;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("allarm-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary).args(args).output().unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn scenario_run_rejects_a_zero_access_override() {
    // On a binary-v2 replay a zero limit means "unlimited", so `--accesses
    // 0` used to replay the whole trace and exit 0.
    let dir = temp_dir("zero");
    let output = dir.join("out.jsonl");
    let doc = scenarios_dir().join("tracefile_v2_comparison.toml");
    let out = run(
        env!("CARGO_BIN_EXE_scenario_run"),
        &[
            "--accesses",
            "0",
            "--output",
            output.to_str().unwrap(),
            doc.to_str().unwrap(),
        ],
    );
    assert!(!out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--accesses needs a positive"),
        "{}",
        stderr(&out)
    );
    assert!(!output.exists(), "nothing may run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_run_names_the_format_of_a_trace_it_cannot_shorten() {
    // A text-trace replay of the committed sample workload.
    let dir = temp_dir("text");
    let mut grid = tracefile_source_grid();
    let workload = grid.base.workload.materialize(grid.base.seed);
    write_trace_file(dir.join("sample.txt"), &workload, TraceFormat::Text).unwrap();
    grid.base.workload = WorkloadSpec::trace_file("sample.txt", TraceFormat::Text);
    let doc = dir.join("replay.toml");
    std::fs::write(&doc, grid.to_toml().unwrap()).unwrap();

    let out = run(
        env!("CARGO_BIN_EXE_scenario_run"),
        &["--accesses", "500", "--json", doc.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("--accesses 500 has no effect"), "{err}");
    assert!(err.contains("replays a text trace"), "{err}");
    assert!(!err.contains("v1 binary"), "{err}");
    // Both rows still replay the full recorded length.
    let rows = String::from_utf8(out.stdout).unwrap();
    assert_eq!(rows.lines().count(), 2);
    assert!(rows.contains(&format!("\"total_accesses\":{}", workload.total_accesses())));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_takes_exactly_the_three_grid_outputs() {
    let out = run(env!("CARGO_BIN_EXE_figures"), &["only-one.jsonl"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).starts_with("usage: figures"),
        "{}",
        stderr(&out)
    );

    let dir = temp_dir("figures");
    let empty = dir.join("fig3.jsonl");
    std::fs::write(&empty, "").unwrap();
    let empty = empty.to_str().unwrap();
    let out = run(env!("CARGO_BIN_EXE_figures"), &[empty, empty, empty]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert_eq!(
        stderr(&out).trim_end(),
        format!("{empty}: missing grid point barnes at 512kB under baseline")
    );
    std::fs::remove_dir_all(&dir).ok();
}
