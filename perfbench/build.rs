//! Records the host context printed with every result set: the compiler
//! that built the benchmark and, in a git checkout, the commit.

use std::path::Path;
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".to_string());
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest).join("..");
    let commit =
        output(
            Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["rev-parse", "--short=12", "HEAD"]),
        )
        .unwrap_or_else(|| "unknown".to_string());
    // Rebuild when HEAD moves, where there is a git checkout to watch.
    for watched in [".git/HEAD", ".git/index"] {
        let path = repo.join(watched);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}
