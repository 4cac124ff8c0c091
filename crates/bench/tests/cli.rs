//! The command-line front ends, driven as a user drives them: a trace-length
//! override shortens a trace replay of any format (and one that cannot take
//! effect fails), a snapshot that does not fit its row is refused with the
//! output untouched, and `figures` must refuse incomplete input.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use allarm_core::{ScenarioGrid, TraceFormat, WorkloadSpec};
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
fn scenario_run_shortens_a_text_trace_replay() {
    // A text-trace replay of the committed sample workload.
    let dir = temp_dir("text");
    let source = std::fs::read_to_string(scenarios_dir().join("tracefile_source.toml")).unwrap();
    let mut grid = ScenarioGrid::from_toml(&source).unwrap();
    let workload = grid.base.workload.materialize(grid.base.seed);
    write_trace_file(dir.join("sample.txt"), &workload, TraceFormat::Text).unwrap();
    grid.base.workload = WorkloadSpec::trace_file("sample.txt", TraceFormat::Text);
    let doc = dir.join("replay.toml");
    std::fs::write(&doc, grid.to_toml().unwrap()).unwrap();
    let v2_doc = scenarios_dir().join("tracefile_v2_comparison.toml");

    let mut outputs = Vec::new();
    for doc in [&doc, &v2_doc] {
        let out = run(
            env!("CARGO_BIN_EXE_scenario_run"),
            &["--accesses", "500", "--json", doc.to_str().unwrap()],
        );
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(!stderr(&out).contains("warning"), "{}", stderr(&out));
        outputs.push(String::from_utf8(out.stdout).unwrap());
    }
    // Both rows replay the 500-record prefix of each of the two threads,
    // exactly as the streamed binary-v2 copy of the same trace does.
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0].lines().count(), 2);
    for row in outputs[0].lines() {
        assert!(row.contains("\"total_accesses\":1000,"), "{row}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints a one-row copy of `scenarios/streamcluster_comparison.toml`
/// at 2,000 accesses/thread, then restores its snapshot into an output
/// holding only the interrupted row's truncated first bytes, under
/// `--accesses restore_accesses` and with `edit` (from, to) applied to the
/// document. Returns the restore's stderr after checking it exited with
/// status exactly 1 (a panic exits 101) and left the output byte-identical.
fn refused_restore(tag: &str, restore_accesses: &str, edit: Option<(&str, &str)>) -> String {
    let dir = temp_dir(tag);
    let doc = std::fs::read_to_string(scenarios_dir().join("streamcluster_comparison.toml"))
        .unwrap()
        .replace(
            r#"policies = ["Baseline", "Allarm"]"#,
            r#"policies = ["Baseline"]"#,
        );
    assert!(doc.contains(r#"policies = ["Baseline"]"#));
    let one_row = dir.join("one.toml");
    std::fs::write(&one_row, &doc).unwrap();
    let full = dir.join("full.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_scenario_run"),
        &[
            "--accesses",
            "2000",
            "--checkpoint-every",
            "5000",
            "--output",
            full.to_str().unwrap(),
            one_row.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let snap = dir.join("full.jsonl.snap");

    let edited = dir.join("edited.toml");
    let edited_doc = match edit {
        Some((from, to)) => doc.replace(from, to),
        None => doc.clone(),
    };
    assert_eq!(
        edited_doc == doc,
        edit.is_none(),
        "the edit changed nothing"
    );
    std::fs::write(&edited, edited_doc).unwrap();
    let output = dir.join("partial.jsonl");
    let before = std::fs::read(&full).unwrap()[..30].to_vec();
    std::fs::write(&output, &before).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_scenario_run"),
        &[
            "--accesses",
            restore_accesses,
            "--resume",
            "--restore",
            snap.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
            edited.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&output).unwrap(),
        before,
        "the output was touched"
    );
    std::fs::remove_dir_all(&dir).ok();
    stderr(&out)
}

#[test]
fn scenario_run_refuses_to_restore_into_another_workload() {
    let err = refused_restore("restore-accesses", "1000", None);
    assert!(err.contains("`snapshot.workload_checksum`"), "{err}");
    assert!(err.contains("nothing was written"), "{err}");
}

#[test]
fn scenario_run_refuses_to_restore_onto_an_edited_machine() {
    let err = refused_restore(
        "restore-machine",
        "2000",
        Some(("coverage_bytes = 524288", "coverage_bytes = 262144")),
    );
    assert!(err.contains("`snapshot.config_fingerprint`"), "{err}");
    assert!(err.contains("nothing was written"), "{err}");
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
