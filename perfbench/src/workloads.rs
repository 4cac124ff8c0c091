//! The benchmark's workloads: what each one runs, how it is set up, how one
//! measured iteration drives the simulator, and how its reports are
//! checked.
//!
//! Every workload drives the simulator through public crate APIs only, and
//! every input it feeds the simulator is generated from the run's seed.

use crate::guard::{run_guarded, Outcome};
use crate::stats::fnv1a;
use crate::tracer::Tracer;
use allarm_core::{
    load_scenario_doc, AllocationPolicy, BatchEntry, BatchRunner, JsonlFileSink, MachineConfig,
    ResultSink, Scenario, SimReport, Simulator, TraceFormat, WorkloadSpec,
};
use allarm_workloads::tracefile::write_trace_file;
use allarm_workloads::{AccessSource, Benchmark, TraceSource, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long one simulation run may take before the watchdog counts it as
/// failed. Far above any healthy run of these workloads, far below the
/// benchmark's own time limit.
pub const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// One workload's provenance: everything needed to reproduce its input and
/// configuration, and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload's name on the command line and in results.
    pub name: &'static str,
    /// The simulated machine.
    pub machine: &'static str,
    /// The allocation policy (or policies) simulated.
    pub policy: &'static str,
    /// Intra-run shard threads.
    pub sim_threads: usize,
    /// Batch worker threads (1: a single run, no batch).
    pub batch_threads: usize,
    /// Generated accesses per thread.
    pub accesses_per_thread: usize,
    /// The seed results are recorded at.
    pub default_seed: u64,
    /// A seed never used while tuning; later claims must hold on it too.
    pub held_out_seed: u64,
    /// Set-ups before each measured iteration (the median over all of a
    /// run's set-ups is `setup_s`).
    pub setup_reps: usize,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Digests of the JSONL rows recorded at the default and held-out seeds.
    pub digests: &'static [(u64, u64)],
}

/// The benchmark's workloads.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "fig3-sweep16",
        machine: "date2014 (16 cores, 1 per node, 4x4 mesh), scenarios/fig3_comparison.toml",
        policy: "baseline and allarm, 8 benchmarks",
        sim_threads: 1,
        batch_threads: 2,
        accesses_per_thread: 20_000,
        default_seed: 2014,
        held_out_seed: 7,
        setup_reps: 5,
        why: "the paper's Fig. 3 grid: the only workload with probe-filter eviction pressure \
              and ALLARM's skip path; many short runs (generation, batch, JSONL)",
        digests: &[(2014, 0x32db_453c_001c_8781), (7, 0xfb8d_45b6_2628_9f9e)],
    },
    Spec {
        name: "raytrace64-st2",
        machine: "scale64 (64 cores, 4 per node, 4x4 mesh)",
        policy: "allarm",
        sim_threads: 2,
        batch_threads: 1,
        accesses_per_thread: 40_000,
        default_seed: 2014,
        held_out_seed: 7,
        setup_reps: 1,
        why: "one long miss-heavy run at sim_threads 2: sharded kernel, barrier, directory, \
              NoC and page table carry the work",
        digests: &[(2014, 0x2e82_a5f3_170e_6b2c), (7, 0x2291_527f_fa7f_d725)],
    },
    Spec {
        name: "kvstore256-v2",
        machine: "scale256 + LLC slices on a torus, scenarios/scale256_comparison.toml",
        policy: "allarm",
        sim_threads: 2,
        batch_threads: 1,
        accesses_per_thread: 6_000,
        default_seed: 2014,
        held_out_seed: 7,
        setup_reps: 1,
        why: "streamed binary-v2 replay of the KvStore profile at 256 cores: v2 decode, LLC \
              slices, multi-word sharer sets, write-shared data",
        digests: &[(2014, 0x5620_9cc9_0be8_fdf1), (7, 0xfbf3_0615_d22f_c50e)],
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The simulator's input for a single-run workload.
#[derive(Debug, Clone)]
pub enum Input {
    /// Generated in set-up and held in memory.
    Materialized(Arc<Workload>),
    /// Recorded to a `binary-v2` trace in set-up and streamed off disk.
    Streamed(Arc<TraceSource>),
}

impl Input {
    fn source(&self) -> AccessSource<'_> {
        match self {
            Input::Materialized(w) => AccessSource::from(&**w),
            Input::Streamed(t) => AccessSource::from(&**t),
        }
    }
}

/// A workload after set-up, ready for measured iterations. One exists per
/// run, so the variants' size difference does not matter.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// A grid of scenarios run through the batch runner.
    Sweep {
        /// The expanded grid, seeded and sized for the benchmark.
        scenarios: Arc<Vec<Scenario>>,
        /// Where the JSONL rows are written.
        out: PathBuf,
    },
    /// One scenario, one simulator, one input.
    Single {
        /// The scenario that was built.
        scenario: Scenario,
        /// The built simulator.
        simulator: Arc<Simulator>,
        /// Its input.
        input: Input,
        /// The scenario whose generated workload the input holds (the
        /// scenario itself unless the input was recorded to a trace).
        generated: Scenario,
    },
}

/// What one measured iteration produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host time of the measured region.
    pub elapsed: Duration,
    /// Every report, in scenario order.
    pub reports: Vec<SimReport>,
    /// FNV-1a digest of the iteration's JSONL rows.
    pub digest: u64,
}

impl Iteration {
    /// Simulated accesses replayed in the iteration.
    pub fn accesses(&self) -> u64 {
        self.reports.iter().map(|r| r.total_accesses).sum()
    }
}

fn scenarios_dir(root: &Path) -> PathBuf {
    root.join("scenarios")
}

fn load_doc(root: &Path, file: &str) -> Result<Vec<Scenario>, String> {
    let path = scenarios_dir(root).join(file);
    let doc = load_scenario_doc(&path.to_string_lossy())?;
    Ok(doc.expand())
}

/// Sets the workload up: everything before the measured region. Spans go
/// to `tracer` (`workloads.generate`, `workloads.v2_write`,
/// `workloads.v2_open`, `core.build`).
///
/// # Errors
///
/// Returns a message when a scenario document is missing or invalid, or a
/// trace cannot be written or opened.
pub fn setup(
    spec: &Spec,
    seed: u64,
    root: &Path,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let accesses = spec.accesses_per_thread;
    match spec.name {
        "fig3-sweep16" => {
            let scenarios: Vec<Scenario> = load_doc(root, "fig3_comparison.toml")?
                .into_iter()
                .map(|s| {
                    s.with_accesses(accesses)
                        .with_seed(seed)
                        .with_sim_threads(spec.sim_threads)
                })
                .collect();
            for scenario in &scenarios {
                tracer
                    .span("core.build", 1, || scenario.build())
                    .map_err(|e| e.to_string())?;
            }
            Ok(Prepared::Sweep {
                scenarios: Arc::new(scenarios),
                out: scratch.join("fig3-sweep16.jsonl"),
            })
        }
        "raytrace64-st2" => {
            let scenario = Scenario {
                machine: MachineConfig::scale64(),
                workload: WorkloadSpec::threads(Benchmark::Raytrace, 64, accesses),
                ..Scenario::paper(Benchmark::Raytrace, AllocationPolicy::Allarm)
            }
            .with_seed(seed)
            .with_sim_threads(spec.sim_threads);
            let total = scenario.workload.total_accesses(seed)?;
            let workload = tracer.span("workloads.generate", total, || scenario.workload());
            let simulator = tracer
                .span("core.build", 1, || scenario.build())
                .map_err(|e| e.to_string())?;
            Ok(Prepared::Single {
                generated: scenario.clone(),
                scenario,
                simulator: Arc::new(simulator),
                input: Input::Materialized(Arc::new(workload)),
            })
        }
        "kvstore256-v2" => {
            let base = load_doc(root, "scale256_comparison.toml")?
                .into_iter()
                .next()
                .ok_or("scale256_comparison.toml expands to no scenario")?;
            let generated = Scenario {
                workload: WorkloadSpec::threads(Benchmark::KvStore, 256, accesses),
                ..base
            }
            .with_policy(AllocationPolicy::Allarm)
            .with_seed(seed)
            .with_sim_threads(spec.sim_threads)
            .named("kv-store/allarm");
            let total = generated.workload.total_accesses(seed)?;
            let workload = tracer.span("workloads.generate", total, || generated.workload());
            let path = scratch.join(format!("kvstore256-{seed}.btrace"));
            tracer
                .span("workloads.v2_write", total, || {
                    write_trace_file(&path, &workload, TraceFormat::BinaryV2)
                })
                .map_err(|e| format!("recording {}: {e}", path.display()))?;
            drop(workload);
            let scenario = Scenario {
                workload: WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::BinaryV2),
                ..generated.clone()
            };
            let source = tracer
                .span("workloads.v2_open", 1, || scenario.streaming_source())
                .map_err(|e| e.to_string())?
                .ok_or("the recorded trace is not streamable")?;
            let simulator = tracer
                .span("core.build", 1, || scenario.build())
                .map_err(|e| e.to_string())?;
            Ok(Prepared::Single {
                scenario,
                simulator: Arc::new(simulator),
                input: Input::Streamed(Arc::new(source)),
                generated,
            })
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// A sink that writes the JSONL file a user would get and keeps the
/// reports for checking.
struct TeeSink {
    file: JsonlFileSink,
    reports: Vec<SimReport>,
}

impl ResultSink for TeeSink {
    fn record(&mut self, entry: &BatchEntry) {
        self.file.record(entry);
        self.reports.push(entry.report.clone());
    }
}

/// The JSONL row of a single-run workload, as a batch sink would write it.
fn single_row(scenario: &Scenario, report: &SimReport) -> String {
    BatchEntry {
        index: 0,
        scenario: scenario.clone(),
        report: report.clone(),
    }
    .jsonl_line()
}

impl Prepared {
    /// Runs one measured iteration under a watchdog of `deadline`, with a
    /// span on `tracer` around each of the benchmark's calls into the
    /// simulator (none when the tracer is disabled). Untraced, a sweep runs
    /// through the batch runner. Traced, it runs its grid on
    /// `batch_threads` workers of the benchmark's own (generate serially,
    /// then build + run each point, then write the rows in order), because
    /// the batch runner has no per-point hook to hang spans on.
    pub fn run(
        &self,
        batch_threads: usize,
        deadline: Duration,
        mut tracer: Tracer,
    ) -> Outcome<Result<(Iteration, Tracer), String>> {
        match self {
            Prepared::Sweep { scenarios, out } if tracer.enabled() => {
                let (scenarios, out) = (scenarios.clone(), out.clone());
                run_guarded(deadline, move || {
                    traced_sweep(&scenarios, &out, batch_threads, tracer)
                })
            }
            Prepared::Sweep { scenarios, out } => {
                let (scenarios, out) = (scenarios.clone(), out.clone());
                run_guarded(deadline, move || {
                    let file = JsonlFileSink::create(&out).map_err(|e| e.to_string())?;
                    let mut sink = TeeSink {
                        file,
                        reports: Vec::new(),
                    };
                    let start = Instant::now();
                    BatchRunner::with_threads(batch_threads)
                        .run_with_sink(&scenarios, &mut sink)
                        .map_err(|e| e.to_string())?;
                    sink.file.finish().map_err(|e| e.to_string())?;
                    let elapsed = start.elapsed();
                    let rows = std::fs::read(&out).map_err(|e| e.to_string())?;
                    let iteration = Iteration {
                        elapsed,
                        reports: sink.reports,
                        digest: fnv1a(&rows),
                    };
                    Ok((iteration, tracer))
                })
            }
            Prepared::Single {
                scenario,
                simulator,
                input,
                ..
            } => {
                let (scenario, simulator, input) =
                    (scenario.clone(), simulator.clone(), input.clone());
                run_guarded(deadline, move || {
                    let total = input.source().total_accesses();
                    let start = Instant::now();
                    let report =
                        tracer.span("core.run", total, || simulator.run_source(input.source()));
                    let elapsed = start.elapsed();
                    let row = tracer.span("batch.jsonl", 1, || single_row(&scenario, &report));
                    let iteration = Iteration {
                        elapsed,
                        reports: vec![report],
                        digest: fnv1a(row.as_bytes()),
                    };
                    Ok((iteration, tracer))
                })
            }
        }
    }

    /// The scenarios of this workload, in row order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        match self {
            Prepared::Sweep { scenarios, .. } => scenarios.to_vec(),
            Prepared::Single { scenario, .. } => vec![scenario.clone()],
        }
    }

    /// `(total_accesses, checksum)` each report must carry, in row order,
    /// learned by generating each distinct input once more (after the
    /// measured region, so checking is never charged to it).
    pub fn expected(&self) -> Vec<(u64, u64)> {
        let mut known: Vec<(Scenario, (u64, u64))> = Vec::new();
        let mut expected = Vec::new();
        for s in self.generated() {
            let found = known
                .iter()
                .find(|(k, _)| same_input(k, &s))
                .map(|(_, e)| *e);
            let e = found.unwrap_or_else(|| match self {
                Prepared::Single {
                    input: Input::Materialized(w),
                    ..
                } => (w.total_accesses() as u64, w.checksum()),
                _ => {
                    let w = s.workload();
                    (w.total_accesses() as u64, w.checksum())
                }
            });
            known.push((s, e));
            expected.push(e);
        }
        expected
    }

    /// The scenarios whose generated workloads feed each row.
    fn generated(&self) -> Vec<Scenario> {
        match self {
            Prepared::Sweep { scenarios, .. } => scenarios.to_vec(),
            Prepared::Single { generated, .. } => vec![generated.clone()],
        }
    }

    /// The materialized workloads behind this workload's runs, one per
    /// distinct input (the per-layer replays walk these), each generated
    /// under a `workloads.generate` span.
    pub fn materialize(&self, tracer: &mut Tracer) -> Vec<(MachineConfig, Workload)> {
        let mut out: Vec<(Scenario, Workload)> = Vec::new();
        for s in self.generated() {
            if out.iter().any(|(k, _)| same_input(k, &s)) {
                continue;
            }
            let total = s.workload.total_accesses(s.seed).unwrap_or(0);
            let workload = tracer.span("workloads.generate", total, || s.workload());
            out.push((s, workload));
        }
        out.into_iter().map(|(s, w)| (s.machine, w)).collect()
    }
}

/// Whether two scenarios replay the same generated input (the batch
/// runner generates such inputs once and shares them).
fn same_input(a: &Scenario, b: &Scenario) -> bool {
    a.workload == b.workload && a.seed == b.seed
}

fn traced_sweep(
    scenarios: &[Scenario],
    out: &Path,
    batch_threads: usize,
    mut tracer: Tracer,
) -> Result<(Iteration, Tracer), String> {
    let start = Instant::now();
    tracer.enter("batch.sweep");
    // Distinct inputs are generated once, serially, in scenario order.
    let mut inputs: Vec<Arc<Workload>> = Vec::with_capacity(scenarios.len());
    for (i, s) in scenarios.iter().enumerate() {
        let shared = (0..i).find(|&j| same_input(&scenarios[j], s));
        let input = match shared {
            Some(j) => inputs[j].clone(),
            None => {
                let total = s.workload.total_accesses(s.seed)?;
                Arc::new(tracer.span("workloads.generate", total, || s.workload()))
            }
        };
        inputs.push(input);
    }

    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<SimReport>>> = Mutex::new(vec![None; scenarios.len()]);
    let workers: Vec<Tracer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..batch_threads.max(1))
            .map(|w| {
                let mut worker = tracer.for_worker(w + 1);
                let (cursor, done, inputs) = (&cursor, &done, &inputs);
                scope.spawn(move || {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            break;
                        };
                        let simulator = worker
                            .span("core.build", 1, || scenario.build())
                            .expect("validated in set-up");
                        let total = inputs[i].total_accesses() as u64;
                        let report = worker.span("core.run", total, || simulator.run(&inputs[i]));
                        done.lock().expect("no worker panics holding the lock")[i] = Some(report);
                    }
                    worker
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    for worker in workers {
        tracer.absorb(worker);
    }

    let reports: Vec<SimReport> = done
        .into_inner()
        .expect("workers are joined")
        .into_iter()
        .map(|r| r.expect("every point ran"))
        .collect();
    let mut sink = JsonlFileSink::create(out).map_err(|e| e.to_string())?;
    for (index, (scenario, report)) in scenarios.iter().zip(&reports).enumerate() {
        let entry = BatchEntry {
            index,
            scenario: scenario.clone(),
            report: report.clone(),
        };
        tracer.span("batch.jsonl", 1, || sink.record(&entry));
    }
    sink.finish().map_err(|e| e.to_string())?;
    tracer.exit(scenarios.len() as u64);
    let elapsed = start.elapsed();
    let rows = std::fs::read(out).map_err(|e| e.to_string())?;
    let iteration = Iteration {
        elapsed,
        reports,
        digest: fnv1a(&rows),
    };
    Ok((iteration, tracer))
}

/// The report invariants every run must satisfy.
///
/// # Errors
///
/// Names the first violated invariant.
pub fn check_report(report: &SimReport, expected: (u64, u64)) -> Result<(), String> {
    let (total, checksum) = expected;
    let name = format!("{}/{}", report.workload, report.policy);
    if report.l1_hits + report.l2_hits + report.l2_misses != report.total_accesses {
        return Err(format!(
            "{name}: l1_hits + l2_hits + l2_misses != total_accesses"
        ));
    }
    if report.local_requests + report.remote_requests != report.directory_requests {
        return Err(format!("{name}: local + remote != directory_requests"));
    }
    if report.total_accesses != total {
        return Err(format!(
            "{name}: replayed {} accesses, the input has {total}",
            report.total_accesses
        ));
    }
    if report.workload_checksum != checksum {
        return Err(format!(
            "{name}: workload checksum {:016x}, the input's is {checksum:016x}",
            report.workload_checksum
        ));
    }
    Ok(())
}

/// A second run of one scenario under a changed knob, for the traced
/// pass's equivalence checks and ratios: `sim_threads`, the policy, or a
/// materialized input in place of a streamed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The same input at a different `sim_threads`.
    SimThreads(usize),
    /// The same input under the baseline policy.
    Baseline,
    /// The generated workload held in memory instead of streamed.
    Materialized,
}

impl Prepared {
    /// Runs scenario `index` once more under `variant`, under the watchdog,
    /// timing the run as a `span` span on `tracer`. Returns the report, the
    /// run's host time and the tracer.
    pub fn run_variant(
        &self,
        index: usize,
        variant: Variant,
        span: &'static str,
        mut tracer: Tracer,
    ) -> Outcome<Result<(SimReport, Duration, Tracer), String>> {
        let scenario = match variant {
            Variant::SimThreads(n) => self.scenarios()[index].clone().with_sim_threads(n),
            Variant::Baseline => self.scenarios()[index]
                .clone()
                .with_policy(AllocationPolicy::Baseline),
            Variant::Materialized => self.generated()[index].clone(),
        };
        let input = match (variant, self) {
            (Variant::Materialized, _) | (_, Prepared::Sweep { .. }) => {
                Input::Materialized(Arc::new(scenario.workload()))
            }
            (_, Prepared::Single { input, .. }) => input.clone(),
        };
        run_guarded(RUN_DEADLINE, move || {
            let simulator = scenario.build().map_err(|e| e.to_string())?;
            let source = input.source();
            let start = Instant::now();
            let report = tracer.span(span, source.total_accesses(), || {
                simulator.run_source(source)
            });
            Ok((report, start.elapsed(), tracer))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_is_reachable_by_name_and_distinct() {
        for s in &SPECS {
            assert_eq!(spec(s.name).map(|f| f.name), Some(s.name));
            assert!(s.why.len() <= 200, "{}: why is too long", s.name);
            assert_ne!(s.default_seed, s.held_out_seed);
        }
        assert!(spec("nope").is_none());
    }
}
