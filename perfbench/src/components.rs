//! Per-layer replays: a workload's own reference streams driven through
//! each layer's public functions, outside the simulation kernel.
//!
//! Every replay records one span per layer (`layer.operation`, with the
//! operation count), so a layer's cost reads as nanoseconds per operation.
//! The replays omit the kernel's contention and orchestration, so their sum
//! is not the kernel's run time; the residual is kernel orchestration.

use crate::tracer::Tracer;
use allarm_cache::{AccessOutcome, CoherenceState, CoreCaches, LlcSlice};
use allarm_coherence::{ProbeFilter, SharerSet};
use allarm_engine::{merge_events, Keyed, MergeKey, PhaseBarrier};
use allarm_mem::{NumaAllocator, NumaPolicy};
use allarm_noc::{MessageClass, Network};
use allarm_types::addr::LineAddr;
use allarm_types::config::MachineConfig;
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::Nanos;
use allarm_workloads::tracefile::{write_trace_file, TraceFormat};
use allarm_workloads::{MemAccess, TraceSource, Workload};
use std::hint::black_box;
use std::path::Path;

/// One private-hierarchy miss of the replayed stream.
#[derive(Debug, Clone, Copy)]
struct Miss {
    core: CoreId,
    node: NodeId,
    home: NodeId,
    line: LineAddr,
    write: bool,
}

/// The workload's references in the order the kernel interleaves cores:
/// record `i` of every thread before record `i + 1` of any.
fn interleaved(workload: &Workload) -> impl Iterator<Item = (usize, MemAccess)> + '_ {
    let longest = workload
        .threads
        .iter()
        .map(|t| t.accesses.len())
        .max()
        .unwrap_or(0);
    (0..longest).flat_map(move |i| {
        workload
            .threads
            .iter()
            .enumerate()
            .filter_map(move |(t, trace)| trace.accesses.get(i).map(|a| (t, *a)))
    })
}

/// Replays `workload` through the page table, the private hierarchies, the
/// LLC slices, the probe filters, sharer sets and the network of `machine`.
/// Returns the number of pages the replay mapped.
pub fn replay_layers(machine: &MachineConfig, workload: &Workload, tracer: &mut Tracer) -> u64 {
    let per_node = machine.cores_per_node.get().max(1) as usize;
    let node_of = |core: CoreId| NodeId::new((core.index() / per_node) as u16);
    let cores: Vec<CoreId> = workload.threads.iter().map(|t| t.core).collect();
    let total = workload.total_accesses() as u64;

    // mem: first-touch translation of the interleaved stream, then the
    // read-only lookup the kernel's cores use on the warm table.
    let mut numa = NumaAllocator::new(
        machine.num_nodes() as usize,
        machine.dram,
        NumaPolicy::FirstTouch,
    );
    let mut stream: Vec<(usize, LineAddr, bool)> = Vec::with_capacity(total as usize);
    tracer.span("mem.translate", total, || {
        for (t, access) in interleaved(workload) {
            let frame = numa.translate(access.vaddr, node_of(cores[t]));
            stream.push((t, frame.line(access.vaddr), access.write));
        }
    });
    tracer.span("mem.lookup", total, || {
        for (_, access) in interleaved(workload) {
            black_box(numa.lookup(black_box(access.vaddr)));
        }
    });

    // cache: each core's private L1/L2, filling every miss.
    let mut caches: Vec<CoreCaches> = cores
        .iter()
        .map(|_| CoreCaches::new(&machine.l1d, &machine.l2))
        .collect();
    let mut misses: Vec<Miss> = Vec::new();
    tracer.span("cache.private", total, || {
        for &(t, line, write) in &stream {
            if caches[t].access(line, write) == AccessOutcome::Miss {
                let state = if write {
                    CoherenceState::Modified
                } else {
                    CoherenceState::Exclusive
                };
                caches[t].fill(line, state);
                black_box(caches[t].take_capacity_victims());
                misses.push(Miss {
                    core: cores[t],
                    node: node_of(cores[t]),
                    home: NodeId::new(0),
                    line,
                    write,
                });
            }
        }
    });
    drop(stream);
    for miss in &mut misses {
        miss.home = numa.home_of_line(miss.line);
    }
    let missed = misses.len() as u64;

    // cache: the requesting node's LLC slice, at the machine's slice
    // geometry (measured even where the machine leaves the level off).
    let mut slices: Vec<LlcSlice> = (0..machine.num_nodes())
        .map(|_| LlcSlice::new(&machine.llc))
        .collect();
    tracer.span("cache.llc", missed, || {
        for m in &misses {
            let slice = &mut slices[m.node.index()];
            if !slice.lookup(m.line) {
                slice.fill(m.line);
            }
        }
    });

    // coherence: the home node's probe filter at the machine's geometry,
    // then sharer-set maintenance at the machine's core count.
    let mut filters: Vec<ProbeFilter> = (0..machine.num_nodes())
        .map(|_| ProbeFilter::hierarchical(&machine.probe_filter, per_node as u32))
        .collect();
    tracer.span("coherence.pf", missed, || {
        for m in &misses {
            let pf = &mut filters[m.home.index()];
            if pf.lookup(m.line).is_none() {
                black_box(pf.allocate(m.line, m.core));
            }
        }
    });
    let mut sets = vec![SharerSet::empty(); 4096];
    tracer.span("coherence.sharers", missed, || {
        for m in &misses {
            let set = &mut sets[(m.line.raw() % 4096) as usize];
            if m.write {
                *set = SharerSet::only(m.core);
            } else {
                set.insert(m.core);
            }
            black_box(set.contains(m.core));
            black_box(set.iter().count());
            if set.count() > 8 {
                set.remove(m.core);
            }
        }
    });

    // noc: a request to the home node and the data reply back.
    let mut net = Network::new(machine.noc);
    tracer.span("noc.send", 2 * missed, || {
        for m in &misses {
            black_box(net.send(m.node, m.home, MessageClass::Request));
            black_box(net.send(m.home, m.node, MessageClass::Data));
        }
    });
    numa.mapped_pages() as u64
}

/// Writes `workload` as a frame-chunked `binary-v2` trace at `path`, opens
/// it, and decodes every record of every thread, one span per step.
///
/// # Errors
///
/// Returns the first I/O or trace error, as text.
pub fn replay_v2_codec(
    workload: &Workload,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let total = workload.total_accesses() as u64;
    tracer
        .span("workloads.v2_write", total, || {
            write_trace_file(path, workload, TraceFormat::BinaryV2)
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let source = tracer
        .span("workloads.v2_open", 1, || TraceSource::open(path))
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    let decoded = tracer.span("workloads.v2_decode", total, || {
        let mut decoded = 0u64;
        for (t, trace) in workload.threads.iter().enumerate() {
            let mut feed = source.open_thread(t, 0)?;
            for i in 0..trace.accesses.len() {
                if black_box(feed.try_get(i)?).is_some() {
                    decoded += 1;
                }
            }
        }
        Ok::<u64, allarm_workloads::tracefile::TraceError>(decoded)
    });
    let decoded = decoded.map_err(|e| format!("decoding {}: {e}", path.display()))?;
    if decoded != total {
        return Err(format!("v2 decode returned {decoded} of {total} records"));
    }
    Ok(())
}

/// Times `waits` crossings of a two-participant [`PhaseBarrier`], the
/// kernel's barrier at `sim_threads` 2.
pub fn replay_barrier(waits: u64, tracer: &mut Tracer) {
    let barrier = PhaseBarrier::new(2);
    tracer.span("engine.barrier", waits, || {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..waits {
                        barrier.wait();
                    }
                });
            }
        });
    });
}

/// Times [`merge_events`] on two shard batches per round, `per_round`
/// events in all, over enough rounds to merge about a million events.
pub fn replay_merge(per_round: usize, tracer: &mut Tracer) {
    let per_round = per_round.max(2);
    let rounds = (1_000_000 / per_round).max(1);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let batches: Vec<[Vec<Keyed<u64>>; 2]> = (0..rounds)
        .map(|_| {
            let mut shard = |first_actor: u32| {
                (0..per_round / 2)
                    .map(|seq| {
                        let key = MergeKey::new(
                            Nanos::new(next() % 4096),
                            first_actor + (next() % 8) as u32,
                            seq as u32,
                        );
                        Keyed::new(key, seq as u64)
                    })
                    .collect::<Vec<_>>()
            };
            [shard(0), shard(8)]
        })
        .collect();
    let events = (rounds * (per_round / 2) * 2) as u64;
    tracer.span("engine.merge", events, || {
        for pair in batches {
            black_box(merge_events(pair));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use allarm_workloads::{Benchmark, TraceGenerator};
    use std::time::Instant;

    #[test]
    fn every_layer_records_its_operations() {
        let machine = MachineConfig::small_test();
        let workload = TraceGenerator::new(4, 400, 3).generate(Benchmark::Barnes);
        let mut tracer = Tracer::new(true, Instant::now());
        let pages = replay_layers(&machine, &workload, &mut tracer);
        assert!(pages > 0);
        let total = workload.total_accesses() as u64;
        for name in ["mem.translate", "mem.lookup", "cache.private"] {
            assert_eq!(tracer.total(name).1, total, "{name}");
        }
        let (_, misses) = tracer.total("cache.llc");
        assert!(misses > 0 && misses <= total);
        assert_eq!(tracer.total("coherence.pf").1, misses);
        assert_eq!(tracer.total("noc.send").1, 2 * misses);

        let dir = std::env::temp_dir().join(format!("perfbench-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        replay_v2_codec(&workload, &dir.join("w.btrace"), &mut tracer).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(tracer.total("workloads.v2_decode").1, total);

        replay_barrier(100, &mut tracer);
        replay_merge(64, &mut tracer);
        assert_eq!(tracer.total("engine.barrier").1, 100);
        assert!(tracer.total("engine.merge").1 > 0);
    }
}
