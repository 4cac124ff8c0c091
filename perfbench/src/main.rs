//! `perfbench`: runs one workload of the repository benchmark (or all of
//! them) and prints every metric by name and unit, with medians, quartiles
//! and sample counts, then one JSON result line.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```

use perfbench::bench::{self, Metric, RunResult};
use perfbench::workloads::{spec, Spec, SPECS};
use std::path::{Path, PathBuf};

struct Options {
    workloads: Vec<&'static Spec>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(if name == "all" {
                    SPECS.iter().collect()
                } else {
                    vec![spec(name).ok_or(format!("unknown workload `{name}`"))?]
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn number(metric: &Metric) -> String {
    let v = metric.summary.median;
    if metric.count {
        format!("{}", v as u64)
    } else if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_table(spec: &Spec, seed: u64, result: &RunResult) {
    let error_rate = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "# {} seed={seed}: {} of {} runs failed, error_rate={error_rate}",
        spec.name, result.failed, result.attempted
    );
    for why in result.failures.iter().take(10) {
        println!("#   failure: {why}");
    }
    if let Some(digest) = result.digest {
        println!("#   rows digest: {digest:#018x}");
    }
    if let Some(spans) = &result.spans {
        println!("#   spans: {}", spans.display());
    }
    println!(
        "{:<36} {:>6} {:>16} {:>16} {:>16} {:>4}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in &result.metrics {
        let s = m.summary;
        if m.count {
            println!(
                "{:<36} {:>6} {:>16} {:>16} {:>16} {:>4}",
                m.name, m.unit, s.median as u64, s.q1 as u64, s.q3 as u64, s.n
            );
        } else {
            println!(
                "{:<36} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>4}",
                m.name, m.unit, s.median, s.q1, s.q3, s.n
            );
        }
    }
}

fn run(options: &Options) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("scenarios").is_dir() {
        return Err(format!(
            "no scenarios/ directory under {}: run from the repository root",
            root.display()
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let spans_dir = target.join("perfbench");
    let scratch = Scratch(spans_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("creating {}: {e}", scratch.0.display()))?;

    println!(
        "# host: available_parallelism={} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    );
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for spec in &options.workloads {
        let seed = options.seed.unwrap_or(spec.default_seed);
        println!(
            "# workload {}: machine={}; policy={}; sim_threads={}; batch_threads={}; \
             accesses_per_thread={}; default_seed={}; held_out_seed={}; why: {}",
            spec.name,
            spec.machine,
            spec.policy,
            spec.sim_threads,
            spec.batch_threads,
            spec.accesses_per_thread,
            spec.default_seed,
            spec.held_out_seed,
            spec.why
        );
        let result = bench::run(
            spec,
            seed,
            options.seconds,
            options.trace,
            &root,
            Path::new(&scratch.0),
            &spans_dir,
        )?;
        print_table(spec, seed, &result);
        correct &= result.failed == 0;
        attempted += result.attempted;
        failed += result.failed;
        let prefix = if options.workloads.len() > 1 {
            format!("{}/", spec.name)
        } else {
            String::new()
        };
        metrics.extend(result.metrics.iter().map(|m| {
            format!(
                "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m),
                m.unit
            )
        }));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&options) {
        Ok(line) => {
            println!("{line}");
            // Exiting ends any run the watchdog abandoned.
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
