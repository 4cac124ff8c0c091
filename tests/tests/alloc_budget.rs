//! The allocation budget of the simulator's steady state: once a run is
//! under way, a simulated access — its trip through the private
//! hierarchy, the home directory and back, on any core count — allocates
//! nothing on the host heap.
//!
//! A counting global allocator wraps `System`. Each case runs the same
//! machine at N and at 2N accesses per thread and counts the allocations
//! made inside `Simulator::run` / `run_source` (the workload is generated,
//! and the simulator built, outside the count). Everything a run sets up —
//! cache and probe-filter arrays, shard threads, mailboxes, trace feeds —
//! is the same in both runs and cancels, so `(a(2N) − a(N)) / extra
//! accesses` is what the steady state costs per access. It must stay
//! under [`BUDGET`]: the few allocations left are buffers (page table,
//! mailboxes, miss windows) still growing to their high-water marks.
//!
//! The allocator counts every thread, so the cases run one after another
//! inside a single test: a second test running alongside would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use allarm_core::{AllocationPolicy, Scenario};
use allarm_tests::load_grid;
use allarm_types::config::SharerTracking;
use allarm_workloads::tracefile::write_trace_file;
use allarm_workloads::{Benchmark, TraceFormat, WorkloadSpec};

/// Allocations per steady-state access a case may make.
const BUDGET: f64 = 0.001;

/// Counts every allocation (fresh, zeroed or grown) on every thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter has
// no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `scenario` cut to `accesses` per thread and returns the
/// allocations made inside the run and the accesses it replayed. A
/// `binary-v2` trace replay streams off disk, as `scenario_run` runs it.
fn counted_run(scenario: &Scenario, accesses: usize) -> (u64, u64) {
    let scenario = scenario.clone().with_accesses(accesses);
    let simulator = scenario.build().expect("the case is valid");
    let trace = scenario.streaming_source().expect("the trace opens");
    let workload = trace.is_none().then(|| scenario.workload());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let report = match (&trace, &workload) {
        (Some(trace), _) => simulator.run_source(trace.into()),
        (None, Some(workload)) => simulator.run(workload),
        (None, None) => unreachable!("a workload is materialized when nothing streams"),
    };
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    (allocations, report.total_accesses)
}

/// Allocations per access of the extra accesses a run at `2 * n` per
/// thread replays over one at `n`.
fn steady_state(scenario: &Scenario, n: usize) -> f64 {
    let (short, short_accesses) = counted_run(scenario, n);
    let (long, long_accesses) = counted_run(scenario, 2 * n);
    (long as f64 - short as f64) / (long_accesses - short_accesses) as f64
}

/// The scenario of grid document `doc` that `pick` selects.
fn point(doc: &str, pick: impl Fn(&Scenario) -> bool) -> Scenario {
    load_grid(doc)
        .expand()
        .into_iter()
        .find(pick)
        .unwrap_or_else(|| panic!("{doc} has the case's point"))
}

fn is(scenario: &Scenario, benchmark: Benchmark, policy: AllocationPolicy) -> bool {
    scenario.workload.benchmark() == Some(benchmark) && scenario.policy == policy
}

#[test]
fn steady_state_accesses_allocate_nothing() {
    let mut cases: Vec<(String, Scenario, usize)> = Vec::new();

    // 16 cores, one per node, with probe-filter evictions under the
    // baseline and the skip path under ALLARM.
    for policy in [AllocationPolicy::Baseline, AllocationPolicy::Allarm] {
        let ocean = point("fig3_comparison.toml", |s| {
            is(s, Benchmark::OceanContiguous, policy)
        });
        cases.push((format!("fig3 {}", ocean.name), ocean, 3_000));
    }

    // The same 16-core point under Hammer-style broadcast tracking.
    let mut broadcast = point("fig3_comparison.toml", |s| {
        is(s, Benchmark::OceanContiguous, AllocationPolicy::Baseline)
    });
    broadcast.machine.probe_filter.sharer_tracking = SharerTracking::HammerBroadcast;
    cases.push((
        format!("fig3 {} HammerBroadcast", broadcast.name),
        broadcast,
        3_000,
    ));

    // 64 cores, four per node, on two shard threads.
    let raytrace = point("scale64_comparison.toml", |s| {
        is(s, Benchmark::Raytrace, AllocationPolicy::Allarm)
    })
    .with_sim_threads(2);
    cases.push((format!("scale64 {} st2", raytrace.name), raytrace, 600));

    // 256 cores at the sweep's smallest probe filter: evictions of sharer
    // sets that span several words.
    let sweep = load_grid("scale256_pf_sweep.toml");
    let smallest = *sweep.pf_coverages.iter().min().expect("a coverage axis");
    let evicting = point("scale256_pf_sweep.toml", |s| {
        s.policy == AllocationPolicy::Baseline && s.machine.probe_filter.coverage_bytes == smallest
    });
    cases.push((
        format!("scale256-pf {} at {smallest} B", evicting.name),
        evicting,
        150,
    ));

    // 256 cores with LLC slices: the kv-store profile under ALLARM,
    // recorded to a binary-v2 trace and streamed back on two shard
    // threads.
    let n = 150;
    let base = point("scale256_comparison.toml", |_| true);
    let generated = Scenario {
        workload: WorkloadSpec::threads(Benchmark::KvStore, 256, 2 * n),
        ..base
    }
    .with_policy(AllocationPolicy::Allarm)
    .with_sim_threads(2)
    .named("kv-store/allarm");
    let dir = std::env::temp_dir().join(format!("allarm-alloc-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kv-store.btrace");
    write_trace_file(&path, &generated.workload(), TraceFormat::BinaryV2).unwrap();
    let streamed = Scenario {
        workload: WorkloadSpec::trace_file(path.to_string_lossy(), TraceFormat::BinaryV2),
        ..generated.clone()
    };
    cases.push((format!("scale256 {} v2 st2", generated.name), streamed, n));

    let measured: Vec<(String, f64)> = cases
        .iter()
        .map(|(name, scenario, n)| (name.clone(), steady_state(scenario, *n)))
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    for (name, per_access) in &measured {
        println!("{name}: {per_access:.5} allocations per steady-state access");
    }
    for (name, per_access) in &measured {
        assert!(
            *per_access <= BUDGET,
            "{name}: {per_access:.5} allocations per steady-state access, over the \
             {BUDGET} budget"
        );
    }
}
