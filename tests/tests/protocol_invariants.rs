//! Randomized property tests of the coherence protocol: for arbitrary
//! interleaved request sequences, the directory plus caches must preserve
//! the single-writer / multiple-reader invariant and the probe filter must
//! never lose track of a remotely cached line.
//!
//! Sequences are generated from fixed seeds with the engine's [`StreamRng`]
//! (the workspace builds offline, without proptest), so every run replays
//! the same cases.

use allarm_cache::{CoherenceState, CoreCaches, ProbeOutcome};
use allarm_coherence::{
    AllocationPolicy, CoherenceRequest, DirectoryController, RequestKind, SystemAccess,
};
use allarm_engine::StreamRng;
use allarm_mem::DramModel;
use allarm_noc::{MessageClass, Network};
use allarm_types::addr::LineAddr;
use allarm_types::config::{MachineConfig, NocConfig, ProbeFilterConfig};
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::Nanos;

/// A four-core machine whose directory for node 0 is under test.
struct TestMachine {
    caches: Vec<CoreCaches>,
    network: Network,
    dram: DramModel,
}

impl TestMachine {
    fn new() -> Self {
        let cfg = MachineConfig::small_test();
        TestMachine {
            caches: (0..4).map(|_| CoreCaches::new(&cfg.l1d, &cfg.l2)).collect(),
            network: Network::new(NocConfig::mesh(2, 2)),
            dram: DramModel::new(4, cfg.dram),
        }
    }
}

impl SystemAccess for TestMachine {
    fn probe_cache(
        &mut self,
        core: CoreId,
        line: LineAddr,
        downgrade: bool,
        invalidate: bool,
    ) -> ProbeOutcome {
        self.caches[core.index()].probe(line, downgrade, invalidate)
    }
    fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        self.network.send(src, dst, class)
    }
    fn message_latency(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        self.network.latency(src, dst, class)
    }
    fn dram_read(&mut self, node: NodeId) -> Nanos {
        self.dram.read(node)
    }
    fn dram_write(&mut self, node: NodeId) -> Nanos {
        self.dram.write(node)
    }
    fn node_of_core(&self, core: CoreId) -> NodeId {
        NodeId::new(core.raw())
    }
    fn local_core_of(&self, node: NodeId) -> CoreId {
        CoreId::new(node.raw())
    }
    fn num_cores(&self) -> usize {
        self.caches.len()
    }
    fn cache_access_latency(&self) -> Nanos {
        Nanos::new(1)
    }
}

/// One step of a generated protocol run: `core` reads or writes `line`.
#[derive(Debug, Clone, Copy)]
struct Step {
    core: u16,
    line: u64,
    write: bool,
}

/// Generates a random request sequence. All lines are homed on node 0 (they
/// index within node 0's DRAM pages), so the single directory under test
/// sees every transaction.
fn random_steps(rng: &mut StreamRng) -> Vec<Step> {
    let len = 1 + rng.below(119) as usize;
    (0..len)
        .map(|_| Step {
            core: rng.below(4) as u16,
            line: rng.below(48),
            write: rng.chance(0.5),
        })
        .collect()
}

/// Replays a request sequence through one directory, mirroring what the
/// full simulator does per access, and checks protocol invariants after
/// every step.
fn run_steps(policy: AllocationPolicy, steps: &[Step]) {
    let mut machine = TestMachine::new();
    let mut dir =
        DirectoryController::new(NodeId::new(0), &ProbeFilterConfig::new(16 * 64, 4), policy);

    for step in steps {
        let core = CoreId::new(step.core);
        let node = NodeId::new(step.core);
        let line = LineAddr::new(step.line);

        let outcome = machine.caches[core.index()].access(line, step.write);
        if let Some(kind) = RequestKind::for_access(outcome, step.write) {
            let response =
                dir.handle_request(CoherenceRequest::new(line, kind, core, node), &mut machine);
            if kind.needs_data() {
                machine.caches[core.index()].fill(line, response.fill_state);
            } else {
                machine.caches[core.index()].grant_write(line);
            }
            // A write must end with write permission.
            if step.write {
                let state = machine.caches[core.index()]
                    .state_of(line)
                    .expect("writer holds the line");
                assert!(
                    state.can_write(),
                    "writer left in non-writable state {state}"
                );
            }
        }

        // Invariant: at most one core holds a line in a writable state, and
        // if anyone holds it writable nobody else holds it at all.
        for l in 0..48u64 {
            let line = LineAddr::new(l);
            let holders: Vec<(usize, CoherenceState)> = machine
                .caches
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.state_of(line).map(|s| (i, s)))
                .collect();
            let writable = holders.iter().filter(|(_, s)| s.can_write()).count();
            assert!(
                writable <= 1,
                "line {l}: multiple writable copies: {holders:?}"
            );
            if writable == 1 {
                assert_eq!(
                    holders.len(),
                    1,
                    "line {l}: writable copy coexists with other copies: {holders:?}"
                );
            }
            let dirty = holders.iter().filter(|(_, s)| s.is_dirty()).count();
            assert!(dirty <= 1, "line {l}: multiple dirty copies: {holders:?}");

            // Every tracked entry has a sharer: an entry whose last sharer
            // leaves is freed, so the directory can tell from
            // `remove_sharer` alone whether other copies remain.
            let pf = dir.probe_filter();
            let tracked = pf.find(line);
            if let Some(slot) = tracked {
                assert!(
                    !pf.entry(slot).sharers.is_empty(),
                    "line {l}: entry without sharers"
                );
            }

            // Any line cached by a core *remote* to its home (node 0) must be
            // tracked by the probe filter — ALLARM only ever skips tracking
            // for the local core.
            for (core_idx, _) in &holders {
                if *core_idx != 0 {
                    assert!(
                        tracked.is_some(),
                        "line {l} cached by remote core {core_idx} but untracked"
                    );
                }
            }
        }
    }
}

/// Runs 48 random request sequences derived from `seed`, printing the
/// failing case index (the stream label) before a panic propagates so the
/// sequence can be replayed in isolation.
fn run_cases(seed: u64, policy: AllocationPolicy) {
    let root = StreamRng::from_seed(seed);
    for case in 0..48 {
        let steps = random_steps(&mut root.stream(case));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_steps(policy, &steps);
        }));
        if let Err(payload) = result {
            eprintln!(
                "randomized case {case} failed (replay: StreamRng::from_seed({seed:#x}).stream({case}))"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[test]
fn baseline_protocol_preserves_swmr() {
    run_cases(0xBA5E_2014, AllocationPolicy::Baseline);
}

#[test]
fn allarm_protocol_preserves_swmr() {
    run_cases(0xA11A_2014, AllocationPolicy::Allarm);
}
