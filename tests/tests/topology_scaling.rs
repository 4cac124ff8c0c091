//! Properties of the scaled machine model: the width-generic sharer
//! representation, the core ↔ node mapping, and the 64-core (16 nodes × 4
//! cores) machine end to end.
//!
//! As elsewhere in this workspace, the randomized tests use the engine's
//! own [`StreamRng`] instead of proptest (the build is offline): many
//! random operation sequences from fixed seeds, deterministic and
//! replayable by case number.

use allarm_coherence::SharerSet;
use allarm_core::{AllocationPolicy, BatchRunner, Scenario, ScenarioGrid, SimThreads};
use allarm_engine::{ShardPlan, StreamRng};
use allarm_noc::Network;
use allarm_types::config::{CoresPerNode, MachineConfig, NocConfig};
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::topology::Topology;
use allarm_types::Nanos;
use allarm_workloads::{Benchmark, WorkloadSpec};
use std::collections::HashSet;

/// Runs `body` for `cases` independent random cases, printing the failing
/// case number (replayable by seed) before propagating a panic.
fn for_cases(cases: u64, body: impl Fn(&mut StreamRng)) {
    let root = StreamRng::from_seed(0x5CA1_E064);
    for case in 0..cases {
        let mut rng = root.stream(case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "randomized case {case} failed (replay: StreamRng::from_seed(0x5CA1_E064).stream({case}))"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// The sharer set agrees with a `HashSet<CoreId>` model on every
/// insert/remove/contains/count/iter sequence, across machine widths from
/// 1 to 256 cores — covering the inline representation, the wide one, and
/// the promotion boundary at 64.
#[test]
fn sharer_set_agrees_with_a_hash_set_model_across_widths() {
    for_cases(96, |rng| {
        let width = 1 + rng.below(256);
        let mut set = SharerSet::empty();
        let mut model: HashSet<CoreId> = HashSet::new();
        let ops = 1 + rng.below(299);
        for _ in 0..ops {
            let core = CoreId::new(rng.below(width) as u16);
            if rng.chance(0.6) {
                set.insert(core);
                model.insert(core);
            } else {
                set.remove(core);
                model.remove(&core);
            }
            assert_eq!(set.contains(core), model.contains(&core));
        }
        assert_eq!(set.count() as usize, model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        // iter() yields exactly the model's members, ascending.
        let listed: Vec<CoreId> = set.iter().collect();
        let mut expected: Vec<CoreId> = model.iter().copied().collect();
        expected.sort();
        assert_eq!(listed, expected, "width {width}");
    });
}

/// Two sharer sets with the same members are equal however they were
/// built — growth past 64 cores and shrinkage back must not leak into
/// equality.
#[test]
fn sharer_set_equality_is_representation_independent() {
    for_cases(64, |rng| {
        let width = 1 + rng.below(200);
        let cores: Vec<CoreId> = (0..1 + rng.below(20))
            .map(|_| CoreId::new(rng.below(width) as u16))
            .collect();
        let direct: SharerSet = cores.iter().copied().collect();
        // The detour: visit a high core, then remove it again.
        let mut detour = SharerSet::only(CoreId::new(255));
        for &core in &cores {
            detour.insert(core);
        }
        detour.remove(CoreId::new(255));
        assert_eq!(direct == detour, !cores.contains(&CoreId::new(255)));
    });
}

/// The 256-core machine's substrate, pinned: sharer sets driven across the
/// full 0..256 core range — so every sequence exercises the multi-word
/// representation and the inline ↔ wide promotion boundary at 64 — agree
/// with a `HashSet` model.
#[test]
fn wide_sharer_and_node_sets_model_the_256_core_machine() {
    for_cases(96, |rng| {
        let mut set = SharerSet::empty();
        let mut model: HashSet<CoreId> = HashSet::new();
        let ops = 1 + rng.below(399);
        for _ in 0..ops {
            let core = CoreId::new(rng.below(256) as u16);
            if rng.chance(0.6) {
                set.insert(core);
                model.insert(core);
            } else {
                set.remove(core);
                model.remove(&core);
            }
        }
        assert_eq!(set.count() as usize, model.len());
        for probe in (0..256u16).map(CoreId::new) {
            assert_eq!(set.contains(probe), model.contains(&probe));
        }
    });
}

/// The blocked core → node mapping at `cores_per_node` ∈ {1, 2, 4}: every
/// core maps into range, node blocks are contiguous, each node's core list
/// round-trips, and the designated core is the block's first.
#[test]
fn core_to_node_mapping_is_a_contiguous_partition() {
    for cores_per_node in [1u32, 2, 4] {
        // 64 nodes × 4 cores is the scale256 machine.
        for num_nodes in [1u32, 3, 16, 64] {
            let topo = Topology::new(num_nodes, cores_per_node);
            let mut by_node: Vec<Vec<CoreId>> = vec![Vec::new(); num_nodes as usize];
            for i in 0..topo.num_cores() as u16 {
                let core = CoreId::new(i);
                let node = topo.node_of_core(core);
                by_node[node.index()].push(core);
            }
            for (n, cores) in by_node.iter().enumerate() {
                let node = NodeId::new(n as u16);
                assert_eq!(cores.len() as u32, cores_per_node);
                assert_eq!(topo.cores_of_node(node).collect::<Vec<_>>(), *cores);
                assert_eq!(topo.local_core_of(node), cores[0]);
                // Contiguity: consecutive indices.
                for pair in cores.windows(2) {
                    assert_eq!(pair[1].index(), pair[0].index() + 1);
                }
            }
        }
    }
}

/// A machine configuration's core → node fold agrees with the network it
/// builds: the identity on the flat Table I machine, contiguous pairs on a
/// machine with two cores per node.
#[test]
fn machine_configs_fold_cores_onto_their_network_nodes() {
    let table1 = MachineConfig::date2014();
    assert_eq!(table1.l1d.access_latency, Nanos::new(1));
    assert_eq!(Network::new(table1.noc).topology().num_nodes(), 16);
    let topo = table1.topology();
    for i in 0..16u16 {
        assert_eq!(topo.node_of_core(CoreId::new(i)), NodeId::new(i));
        assert_eq!(topo.local_core_of(NodeId::new(i)), CoreId::new(i));
    }

    // The four-core test machine with both cores of a pair on one node: a
    // 1x2 mesh.
    let mut folded = MachineConfig::small_test();
    folded.cores_per_node = CoresPerNode(2);
    folded.noc = NocConfig::mesh(1, 2);
    folded.validate().unwrap();
    assert_eq!(Network::new(folded.noc).topology().num_nodes(), 2);
    let topo = folded.topology();
    assert_eq!((topo.num_cores(), topo.cores_per_node()), (4, 2));
    assert_eq!(topo.node_of_core(CoreId::new(0)), NodeId::new(0));
    assert_eq!(topo.node_of_core(CoreId::new(1)), NodeId::new(0));
    assert_eq!(topo.node_of_core(CoreId::new(3)), NodeId::new(1));
    // The designated core of each node is its first.
    assert_eq!(topo.local_core_of(NodeId::new(1)), CoreId::new(2));
}

/// A machine configuration's topology and the shard plan compose: every
/// core lands on exactly one shard, via its node.
#[test]
fn shard_plan_pins_whole_nodes_with_all_their_cores() {
    let machine = MachineConfig::scale64();
    let topo = machine.topology();
    for num_shards in [1usize, 2, 4, 16] {
        let plan = ShardPlan::new(machine.num_nodes() as usize, num_shards);
        let mut shard_of_core = vec![usize::MAX; machine.num_cores as usize];
        for core in (0..machine.num_cores as u16).map(CoreId::new) {
            let node = topo.node_of_core(core);
            shard_of_core[core.index()] = plan.shard_of_node(node.index());
        }
        // Cores of one node always share a shard.
        for node in (0..machine.num_nodes() as u16).map(NodeId::new) {
            let shards: HashSet<usize> = topo
                .cores_of_node(node)
                .map(|c| shard_of_core[c.index()])
                .collect();
            assert_eq!(shards.len(), 1, "node {node} split across shards");
        }
    }
}

/// The acceptance criterion of the machine-model refactor: the 64-core
/// (16 nodes × 4 cores) scenario is byte-identical across `sim_threads`
/// ∈ {1, 2, 4}.
#[test]
fn scale64_reports_are_identical_across_sim_thread_counts() {
    let base = Scenario {
        name: "scale64/raytrace".to_string(),
        machine: MachineConfig::scale64(),
        policy: AllocationPolicy::Baseline,
        numa_policy: allarm_core::NumaPolicy::FirstTouch,
        workload: WorkloadSpec::threads(Benchmark::Raytrace, 64, 600),
        seed: 2014,
        sim_threads: SimThreads::SERIAL,
        warmup_accesses: 0,
    };
    let grid = ScenarioGrid::new(base).policies(AllocationPolicy::ALL.to_vec());
    let scenarios = grid.expand();
    let reference = BatchRunner::with_threads(1).run(&scenarios).unwrap();
    // The run exercises the hierarchical machine for real: requests reach
    // the directories and some are remote.
    assert!(reference.entries[0].report.directory_requests > 0);
    assert!(reference.entries[0].report.remote_requests > 0);
    for sim_threads in [2usize, 4] {
        let sharded: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_sim_threads(sim_threads))
            .collect();
        let result = BatchRunner::with_threads(1).run(&sharded).unwrap();
        for (a, b) in reference.entries.iter().zip(&result.entries) {
            assert_eq!(
                a.report, b.report,
                "{}: sim_threads={sim_threads} diverged",
                a.scenario.name
            );
        }
    }
}

/// With every core of a node folded onto one router, node-local traffic is
/// free: a single-node machine (all cores per one node) reports zero NoC
/// hop traffic however many cores it has.
#[test]
fn single_node_multicore_machines_have_no_inter_node_traffic() {
    let mut machine = MachineConfig::date2014();
    machine.cores_per_node = CoresPerNode(16);
    machine.noc = NocConfig::mesh(1, 1);
    let scenario = Scenario {
        name: "one-node".to_string(),
        machine,
        policy: AllocationPolicy::Baseline,
        numa_policy: allarm_core::NumaPolicy::FirstTouch,
        workload: WorkloadSpec::threads(Benchmark::Barnes, 16, 500),
        seed: 7,
        sim_threads: SimThreads::SERIAL,
        warmup_accesses: 0,
    };
    let report = scenario.run().unwrap();
    // Messages exist (coherence still happens) but none cross a link.
    assert!(report.noc_messages > 0);
    assert!(report.directory_requests > 0);
    assert_eq!(
        report.remote_requests, 0,
        "one node: every request is local"
    );
}
