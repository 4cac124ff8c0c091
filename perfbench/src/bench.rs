//! One benchmark run of one workload: set-up, the measured iterations, the
//! output checks, and (traced) the per-layer attribution.

use crate::components::{replay_barrier, replay_layers, replay_merge, replay_v2_codec};
use crate::guard::Outcome;
use crate::stats::{peak_rss_mib, ratio, reset_peak_rss, summarize, Summary};
use crate::tracer::Tracer;
use crate::workloads::{check_report, setup, Iteration, Prepared, Spec, Variant, RUN_DEADLINE};
use allarm_core::SimReport;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest measured iterations a run reports, however long they take.
const MIN_ITERATIONS: usize = 3;

/// Barrier crossings timed by the engine replay.
const BARRIER_WAITS: u64 = 200_000;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its samples' summary.
    pub summary: Summary,
    /// Whether it is an exact count (printed as an integer).
    pub count: bool,
}

impl Metric {
    fn real(name: &'static str, unit: &'static str, summary: Summary) -> Self {
        Metric {
            name,
            unit,
            summary,
            count: false,
        }
    }

    fn exact(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric::real(name, unit, Summary::exact(value))
    }

    fn count(name: &'static str, unit: &'static str, value: u64) -> Self {
        Metric {
            count: true,
            ..Metric::exact(name, unit, value as f64)
        }
    }
}

/// The result of one benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every metric of the run's mode, in report order.
    pub metrics: Vec<Metric>,
    /// Simulation runs attempted (one per grid point per iteration).
    pub attempted: u64,
    /// Runs that panicked, overran, errored or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Where the traced run's spans were written.
    pub spans: Option<std::path::PathBuf>,
    /// FNV-1a digest of the first measured iteration's JSONL rows.
    pub digest: Option<u64>,
}

/// Attempted and failed simulation runs, with the reasons.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// A run overran its deadline; its thread may still be running, so
    /// nothing more is measured.
    abandoned: bool,
}

impl Ledger {
    fn fail(&mut self, runs: u64, why: String) {
        self.failed += runs;
        self.failures.push(why);
    }

    /// Books one guarded run of `runs` simulations, returning its value.
    fn book<T>(&mut self, runs: u64, outcome: Outcome<Result<T, String>>) -> Option<T> {
        self.attempted += runs;
        self.abandoned |= matches!(outcome, Outcome::TimedOut);
        match outcome.into_result().and_then(|r| r) {
            Ok(value) => Some(value),
            Err(why) => {
                self.fail(runs, why);
                None
            }
        }
    }
}

/// Runs `run_once` until `budget` has passed and at least
/// [`MIN_ITERATIONS`] succeeded (or a run failed), stopping at once if a
/// run is abandoned.
///
/// # Errors
///
/// Returns the first error `run_once` returns.
fn repeat<T>(
    budget: Duration,
    ledger: &mut Ledger,
    mut run_once: impl FnMut(&mut Ledger) -> Result<Option<T>, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        if let Some(value) = run_once(ledger)? {
            out.push(value);
        }
        let elapsed = start.elapsed();
        let enough = out.len() >= MIN_ITERATIONS || ledger.failed > 0;
        if ledger.abandoned || (elapsed >= budget && enough) || elapsed >= budget * 3 {
            return Ok(out);
        }
    }
}

/// Checks every report of every iteration and the JSONL digests: against
/// the digest recorded for this seed when there is one, else against the
/// first iteration's.
fn verify(
    spec: &Spec,
    seed: u64,
    expected: &[(u64, u64)],
    iterations: &[&Iteration],
    ledger: &mut Ledger,
) {
    let rows = expected.len() as u64;
    let recorded = spec
        .digests
        .iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, d)| *d);
    let Some(reference) = recorded.or(iterations.first().map(|i| i.digest)) else {
        return;
    };
    for it in iterations {
        if it.reports.len() != expected.len() {
            ledger.fail(
                rows,
                format!("{} reports for {rows} rows", it.reports.len()),
            );
            continue;
        }
        let mut bad = 0;
        for (report, e) in it.reports.iter().zip(expected) {
            if let Err(why) = check_report(report, *e) {
                bad += 1;
                ledger.fail(0, why);
            }
        }
        if it.digest != reference {
            ledger.fail(
                0,
                format!(
                    "JSONL digest {:016x} differs from the {} digest {reference:016x}",
                    it.digest,
                    if recorded.is_some() {
                        "recorded"
                    } else {
                        "first iteration's"
                    }
                ),
            );
            bad = rows;
        }
        ledger.failed += bad;
    }
}

/// Accesses per host second of each iteration.
fn throughput(iterations: &[&Iteration]) -> Vec<f64> {
    iterations
        .iter()
        .map(|it| it.accesses() as f64 / it.elapsed.as_secs_f64())
        .collect()
}

fn summary_or_zero(values: &[f64]) -> Summary {
    if values.is_empty() {
        Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        }
    } else {
        summarize(values)
    }
}

/// One successful untraced iteration with the samples taken around it.
struct Sample {
    iteration: Iteration,
    /// Host seconds of each set-up before it.
    setup_s: Vec<f64>,
    /// Peak resident memory during it, where the platform reports it.
    rss_mib: Option<f64>,
}

/// Measures a workload untraced for `budget`, after one warm-up iteration
/// whose samples are checked but not reported (a process's first run pays
/// cold caches and first-touch page faults). Before each iteration the
/// workload is set up afresh, `spec.setup_reps` times (the previous set-up
/// dropped first), so set-up samples are spread over the run like the
/// iterations are. Reports `acc_per_s` and `peak_rss_mib` per iteration and
/// `setup_s` per set-up, every run under a watchdog of `deadline`, then the
/// output checks. A run that panics, overruns or fails a check is counted,
/// never fatal. Where the peak-memory mark cannot be reset or read,
/// `peak_rss_mib` is left out and the reason printed.
///
/// # Errors
///
/// Returns the first set-up error.
pub fn measure(
    mut prepare: impl FnMut() -> Result<Prepared, String>,
    spec: &Spec,
    seed: u64,
    budget: Duration,
    deadline: Duration,
) -> Result<RunResult, String> {
    let mut ledger = Ledger::default();
    let mut rss_unavailable: Option<String> = None;
    let mut prepared: Option<Prepared> = None;
    let mut once = |ledger: &mut Ledger| -> Result<Option<Sample>, String> {
        let mut fresh = None;
        let mut setup_s = Vec::new();
        for _ in 0..spec.setup_reps.max(1) {
            drop(prepared.take());
            drop(fresh.take());
            let start = Instant::now();
            fresh = Some(prepare()?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let p = prepared.insert(fresh.expect("at least one set-up ran"));
        if let Err(e) = reset_peak_rss() {
            rss_unavailable.get_or_insert(format!("cannot reset the peak-memory mark: {e}"));
        }
        let rows = p.scenarios().len() as u64;
        let untraced = Tracer::new(false, Instant::now());
        let Some((iteration, _)) = ledger.book(rows, p.run(spec.batch_threads, deadline, untraced))
        else {
            return Ok(None);
        };
        let rss_mib = peak_rss_mib();
        if rss_mib.is_none() {
            rss_unavailable.get_or_insert("VmHWM is not reported".to_string());
        }
        Ok(Some(Sample {
            iteration,
            setup_s,
            rss_mib,
        }))
    };
    let warm_up = once(&mut ledger)?;
    let samples = if ledger.abandoned {
        Vec::new()
    } else {
        repeat(budget, &mut ledger, &mut once)?
    };
    let checked: Vec<&Iteration> = warm_up
        .iter()
        .chain(&samples)
        .map(|s| &s.iteration)
        .collect();
    if let (Some(p), false) = (&prepared, ledger.abandoned) {
        verify(spec, seed, &p.expected(), &checked, &mut ledger);
    }
    let measured: Vec<&Iteration> = samples.iter().map(|s| &s.iteration).collect();
    let setup_s: Vec<f64> = samples.iter().flat_map(|s| s.setup_s.clone()).collect();
    let rss: Vec<f64> = samples.iter().filter_map(|s| s.rss_mib).collect();
    let mut metrics = vec![
        Metric::real("acc_per_s", "1/s", summary_or_zero(&throughput(&measured))),
        Metric::real("setup_s", "s", summary_or_zero(&setup_s)),
    ];
    match rss_unavailable {
        Some(why) => eprintln!("perfbench: {}: peak_rss_mib left out: {why}", spec.name),
        None => metrics.push(Metric::real("peak_rss_mib", "MiB", summary_or_zero(&rss))),
    }
    Ok(RunResult {
        metrics,
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        spans: None,
        digest: checked.first().map(|i| i.digest),
    })
}

/// Runs `spec` once: set-up, measured iterations for `seconds`, output
/// checks, and — with `trace` — the traced pass and the per-layer replays.
/// Scratch files go under `scratch`; the traced run's spans are written to
/// `spans_dir`.
///
/// # Errors
///
/// Returns a message when set-up fails (a missing or invalid scenario
/// document, an unwritable scratch directory) or a per-layer replay fails.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: &Path,
    scratch: &Path,
    spans_dir: &Path,
) -> Result<RunResult, String> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    if !trace {
        let prepare = || {
            setup(
                spec,
                seed,
                root,
                scratch,
                &mut Tracer::new(false, Instant::now()),
            )
        };
        return measure(prepare, spec, seed, budget, RUN_DEADLINE);
    }

    // Traced: set-up `setup_reps` times under spans, an untraced reference
    // for the tracing overhead, then the traced iterations, then single
    // runs under changed knobs, then the per-layer replays.
    let mut tracer = Tracer::new(true, Instant::now());
    let mut ledger = Ledger::default();
    let mut build_s = Vec::new();
    let mut prepared = None;
    for _ in 0..spec.setup_reps.max(1) {
        drop(prepared.take());
        let mut rep = tracer.for_worker(0);
        rep.enter("setup");
        let p = setup(spec, seed, root, scratch, &mut rep)?;
        rep.exit(1);
        build_s.push(rep.total("core.build").0.as_secs_f64());
        tracer.absorb(rep);
        prepared = Some(p);
    }
    let prepared: Prepared = prepared.expect("at least one set-up ran");
    let rows = prepared.scenarios().len() as u64;

    let reference = repeat(budget.mul_f64(0.35), &mut ledger, |ledger| {
        let untraced = Tracer::new(false, Instant::now());
        let outcome = prepared.run(spec.batch_threads, RUN_DEADLINE, untraced);
        Ok(ledger.book(rows, outcome).map(|(iteration, _)| iteration))
    })?;
    let traced = if ledger.abandoned {
        Vec::new()
    } else {
        repeat(budget.mul_f64(0.65), &mut ledger, |ledger| {
            let worker = tracer.for_worker(0);
            Ok(ledger.book(rows, prepared.run(spec.batch_threads, RUN_DEADLINE, worker)))
        })?
    };
    let (traced, tracers): (Vec<Iteration>, Vec<Tracer>) = traced.into_iter().unzip();
    let all: Vec<&Iteration> = reference.iter().chain(&traced).collect();
    if !ledger.abandoned {
        verify(spec, seed, &prepared.expected(), &all, &mut ledger);
    }
    if ledger.abandoned || traced.is_empty() {
        return Ok(RunResult {
            metrics: Vec::new(),
            attempted: ledger.attempted,
            failed: ledger.failed,
            failures: ledger.failures,
            spans: None,
            digest: all.first().map(|i| i.digest),
        });
    }

    let reports: &[SimReport] = &traced[0].reports;
    let run_s: Vec<f64> = tracers
        .iter()
        .map(|t| t.total("core.run").0.as_secs_f64())
        .collect();
    let median_run_s = summarize(&run_s).median;
    let variants = Variants::run(
        &prepared,
        spec,
        reports,
        median_run_s,
        &mut tracer,
        &mut ledger,
    );

    let mut mapped_pages = 0;
    let codec_path = scratch.join("codec.btrace");
    for (machine, workload) in prepared.materialize(&mut tracer) {
        mapped_pages += replay_layers(&machine, &workload, &mut tracer);
        replay_v2_codec(&workload, &codec_path, &mut tracer)?;
    }
    let _ = std::fs::remove_file(&codec_path);
    let rounds: u64 = reports.iter().map(|r| r.rounds_executed).sum();
    let events: u64 = reports.iter().map(|r| r.events_merged).sum();
    replay_barrier(BARRIER_WAITS, &mut tracer);
    replay_merge(
        ratio(events as f64, rounds as f64).round() as usize,
        &mut tracer,
    );

    let per_iteration = |f: &dyn Fn(&Iteration, &Tracer) -> f64| -> Summary {
        let values: Vec<f64> = traced.iter().zip(&tracers).map(|(i, t)| f(i, t)).collect();
        summarize(&values)
    };
    let sum = |f: &dyn Fn(&SimReport) -> u64| -> u64 { reports.iter().map(f).sum() };
    let allarm = |f: &dyn Fn(&SimReport) -> u64| -> u64 {
        reports.iter().filter(|r| r.policy == "allarm").map(f).sum()
    };
    let total = sum(&|r| r.total_accesses) as f64;
    let untraced = summary_or_zero(&throughput(&reference.iter().collect::<Vec<_>>())).median;
    let traced_rate = summarize(&throughput(&traced.iter().collect::<Vec<_>>())).median;
    let ns = |name: &str| tracer.ns_per_op(name);
    let batch_threads = spec.batch_threads as f64;

    let metrics = vec![
        Metric::real("core.run_s", "s", summarize(&run_s)),
        Metric::real(
            "core.ns_per_access",
            "ns",
            per_iteration(&|i, t| {
                ratio(t.total("core.run").0.as_nanos() as f64, i.accesses() as f64)
            }),
        ),
        Metric::real("core.build_s", "s", summarize(&build_s)),
        Metric::real(
            "batch.busy_frac",
            "ratio",
            per_iteration(&|i, t| {
                let busy = t.total("core.run").0 + t.total("core.build").0;
                ratio(busy.as_secs_f64(), i.elapsed.as_secs_f64() * batch_threads)
            }),
        ),
        Metric::real(
            "batch.jsonl_ns_per_row",
            "ns",
            per_iteration(&|_, t| t.ns_per_op("batch.jsonl")),
        ),
        Metric::count("kernel.rounds", "count", rounds),
        Metric::exact(
            "kernel.events_per_round",
            "ratio",
            ratio(events as f64, rounds as f64),
        ),
        Metric::exact("kernel.st2_over_st1", "ratio", variants.st2_over_st1),
        Metric::exact(
            "workloads.generate_ns_per_access",
            "ns",
            ns("workloads.generate"),
        ),
        Metric::exact(
            "workloads.v2_write_ns_per_access",
            "ns",
            ns("workloads.v2_write"),
        ),
        Metric::exact("workloads.v2_open_s", "s", ns("workloads.v2_open") * 1e-9),
        Metric::exact(
            "workloads.v2_decode_ns_per_access",
            "ns",
            ns("workloads.v2_decode"),
        ),
        Metric::exact("mem.translate_ns_per_op", "ns", ns("mem.translate")),
        Metric::exact("mem.lookup_ns_per_op", "ns", ns("mem.lookup")),
        Metric::count("mem.mapped_pages", "count", mapped_pages),
        Metric::exact("cache.private_ns_per_access", "ns", ns("cache.private")),
        Metric::exact(
            "cache.l2_miss_ratio",
            "ratio",
            ratio(sum(&|r| r.l2_misses) as f64, total),
        ),
        Metric::exact("cache.llc_ns_per_op", "ns", ns("cache.llc")),
        Metric::exact(
            "cache.llc_hit_ratio",
            "ratio",
            ratio(
                sum(&|r| r.llc_hits) as f64,
                sum(&|r| r.llc_hits + r.llc_misses) as f64,
            ),
        ),
        Metric::exact("coherence.pf_ns_per_op", "ns", ns("coherence.pf")),
        Metric::exact("coherence.sharers_ns_per_op", "ns", ns("coherence.sharers")),
        Metric::count(
            "coherence.directory_requests",
            "count",
            sum(&|r| r.directory_requests),
        ),
        Metric::exact(
            "coherence.remote_frac",
            "ratio",
            ratio(
                sum(&|r| r.remote_requests) as f64,
                sum(&|r| r.directory_requests) as f64,
            ),
        ),
        Metric::count("coherence.pf_evictions", "count", sum(&|r| r.pf_evictions)),
        Metric::exact(
            "coherence.eviction_msgs_per_eviction",
            "ratio",
            ratio(
                sum(&|r| r.eviction_messages) as f64,
                sum(&|r| r.pf_evictions) as f64,
            ),
        ),
        Metric::exact(
            "coherence.allarm_skip_frac",
            "ratio",
            ratio(
                allarm(&|r| r.allarm_allocation_skips) as f64,
                allarm(&|r| r.allarm_allocation_skips + r.pf_allocations) as f64,
            ),
        ),
        Metric::exact("noc.send_ns_per_msg", "ns", ns("noc.send")),
        Metric::exact(
            "noc.msgs_per_access",
            "ratio",
            ratio(sum(&|r| r.noc_messages) as f64, total),
        ),
        Metric::exact("engine.barrier_ns_per_wait", "ns", ns("engine.barrier")),
        Metric::exact("engine.merge_ns_per_event", "ns", ns("engine.merge")),
        Metric::count("sim.runtime_ns", "ns", sum(&|r| r.runtime.as_u64())),
        Metric::exact("sim.allarm_speedup", "ratio", variants.allarm_speedup),
        Metric::exact(
            "trace.overhead_frac",
            "ratio",
            1.0 - ratio(traced_rate, untraced),
        ),
    ];

    for t in tracers {
        tracer.absorb(t);
    }
    let spans = spans_dir.join(format!("spans-{}-{seed}.jsonl", spec.name));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    Ok(RunResult {
        metrics,
        attempted: ledger.attempted,
        failed: ledger.failed,
        failures: ledger.failures,
        spans: Some(spans),
        digest: all.first().map(|i| i.digest),
    })
}

/// The traced pass's single runs under changed knobs, with the identities
/// they must keep: `sim_threads` 1 ≡ 2, streamed ≡ materialized, and the
/// baseline policy for the speed-up.
struct Variants {
    st2_over_st1: f64,
    allarm_speedup: f64,
}

impl Variants {
    fn run(
        prepared: &Prepared,
        spec: &Spec,
        reports: &[SimReport],
        median_run_s: f64,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) -> Self {
        let mut rerun = |variant: Variant, span: &'static str, ledger: &mut Ledger| {
            if ledger.abandoned {
                return None;
            }
            let outcome = prepared.run_variant(0, variant, span, tracer.for_worker(0));
            let (report, time, worker) = ledger.book(1, outcome)?;
            tracer.absorb(worker);
            if report != reports[0] {
                ledger.fail(1, format!("{span}: report differs from the measured run's"));
                return None;
            }
            Some(time.as_secs_f64())
        };

        // sim_threads 1 against 2 on the same input. A sweep runs its first
        // point both ways; a single run compares against its traced runs.
        let st1 = rerun(Variant::SimThreads(1), "core.run_st1", ledger);
        let st2 = if spec.sim_threads == 2 {
            Some(median_run_s)
        } else {
            rerun(Variant::SimThreads(2), "core.run_st2", ledger)
        };
        let st2_over_st1 = match (st1, st2) {
            (Some(a), Some(b)) => ratio(a, b),
            _ => 0.0,
        };

        if matches!(
            prepared,
            Prepared::Single {
                input: crate::workloads::Input::Streamed(_),
                ..
            }
        ) {
            rerun(Variant::Materialized, "core.run_materialized", ledger);
        }

        // Baseline over ALLARM simulated runtime: the grid's own pairs, or
        // one baseline run of a single run's input.
        let allarm_speedup = if let Prepared::Sweep { .. } = prepared {
            let logs: Vec<f64> = reports
                .chunks(2)
                .filter(|p| p.len() == 2 && p[0].policy == "baseline" && p[1].policy == "allarm")
                .map(|p| (p[0].runtime.as_u64() as f64 / p[1].runtime.as_u64() as f64).ln())
                .collect();
            ratio(logs.iter().sum(), logs.len() as f64).exp()
        } else if ledger.abandoned {
            0.0
        } else {
            let worker = tracer.for_worker(0);
            let outcome = prepared.run_variant(0, Variant::Baseline, "core.run_baseline", worker);
            match ledger.book(1, outcome) {
                Some((baseline, _, worker)) => {
                    tracer.absorb(worker);
                    ratio(
                        baseline.runtime.as_u64() as f64,
                        reports[0].runtime.as_u64() as f64,
                    )
                }
                None => 0.0,
            }
        };
        Variants {
            st2_over_st1,
            allarm_speedup,
        }
    }
}
