//! End-to-end tests of the versioned snapshot subsystem: the acceptance
//! gate of the checkpoint/restore work. Checkpointing a scale64 raytrace
//! run at 25%/50%/75% and restoring must produce a final report — down to
//! the serialized JSONL bytes — identical to the uninterrupted run, at
//! every shard count (`sim_threads` ∈ {1, 2, 4}) and at both miss-window
//! settings (the serial depth-1 ablation and the default depth-8 window).
//! On top of that: snapshot bytes are canonical across shard counts, file
//! round trips survive, bit flips and version skews are refused with a
//! typed error naming the section, so are threads and replies that
//! disagree and miss windows out of issue order (resealed so every
//! checksum passes), a restore whose threads or directories do not fit
//! the workload or the machine is refused as a fork is, so is a page table
//! the allocator could not have written, and fork-from-warm resumption
//! equals a cold run.

use allarm_core::simulator::Start;
use allarm_core::snapshot::{read_header, read_section_table};
use allarm_core::{
    AllocationPolicy, MachineConfig, SimReport, SimSnapshot, SimulationBuilder, Simulator,
};
use allarm_types::config::LlcConfig;
use allarm_types::MissWindowConfig;
use allarm_workloads::{fnv1a, Benchmark, TraceGenerator, Workload, FNV1A_OFFSET};
use std::ops::{ControlFlow, Range};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("allarm-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The scale64 machine at a given miss-window depth, with a shortened
/// trace: restore correctness is a structural property of the kernel, not
/// of the trace length.
fn scale64_simulator(window: MissWindowConfig, sim_threads: usize) -> Simulator {
    let mut machine = MachineConfig::scale64();
    machine.miss_window = window;
    SimulationBuilder::new(machine)
        .policy(AllocationPolicy::Allarm)
        .sim_threads(sim_threads)
        .build()
        .expect("the 64-core machine is valid")
}

fn scale64_workload() -> Workload {
    TraceGenerator::new(64, 300, 2014).generate(Benchmark::Raytrace)
}

/// Reports are compared through their serialized form as well: the JSONL
/// row a sink would write must be byte-identical, not merely `==`.
fn jsonl(report: &SimReport) -> String {
    serde_json::to_string(report)
}

/// Replays `workload` until the access total reaches `accesses`: the
/// first checkpoint at that interval, taken by stopping there.
fn run_until(sim: &Simulator, workload: &Workload, accesses: u64) -> SimSnapshot {
    let mut taken = None;
    sim.replay(workload.into(), Start::Cold, accesses, |snap| {
        taken = Some(snap);
        ControlFlow::Break(())
    })
    .expect("a cold start checks no snapshot");
    taken.expect("the workload outlasts the target")
}

/// Replays `workload` to completion from `start`.
fn finish(sim: &Simulator, workload: &Workload, start: Start<'_>) -> SimReport {
    sim.replay(workload.into(), start, 0, |_| ControlFlow::Continue(()))
        .expect("the snapshot fits")
}

#[test]
fn restore_mid_run_is_byte_identical_at_every_shard_count_and_window() {
    let workload = scale64_workload();
    let total = workload.total_accesses() as u64;
    for window in [
        MissWindowConfig::serial(),
        MissWindowConfig::default_window(),
    ] {
        for sim_threads in [1usize, 2, 4] {
            let sim = scale64_simulator(window, sim_threads);
            let uninterrupted = sim.run(&workload);
            for quarter in [1u64, 2, 3] {
                let snap = run_until(&sim, &workload, quarter * total / 4);
                // Round-trip through the on-disk byte format before
                // resuming: the restore path is the deserialized state.
                let snap = SimSnapshot::from_bytes(&snap.to_bytes())
                    .expect("a just-written snapshot parses");
                let resumed = finish(&sim, &workload, Start::Restore(&snap));
                assert_eq!(
                    resumed, uninterrupted,
                    "depth {} x {sim_threads} shard(s), checkpoint at {quarter}/4",
                    window.depth
                );
                assert_eq!(jsonl(&resumed), jsonl(&uninterrupted));
            }
        }
    }
}

#[test]
fn snapshot_bytes_are_canonical_across_shard_counts() {
    let workload = scale64_workload();
    let target = workload.total_accesses() as u64 / 2;
    let window = MissWindowConfig::default_window();
    let reference = run_until(&scale64_simulator(window, 1), &workload, target);
    for sim_threads in [2usize, 4] {
        let snap = run_until(&scale64_simulator(window, sim_threads), &workload, target);
        assert_eq!(
            snap.to_bytes(),
            reference.to_bytes(),
            "snapshot bytes depend on sim_threads = {sim_threads}"
        );
    }
}

#[test]
fn forked_runs_equal_cold_runs() {
    // Two trace lengths of the same (benchmark, threads, seed) share an
    // exact per-thread prefix; a snapshot of the longer run taken inside
    // that prefix forks into the shorter workload.
    let host = TraceGenerator::new(4, 900, 7).generate(Benchmark::Barnes);
    let member = TraceGenerator::new(4, 600, 7).generate(Benchmark::Barnes);
    let sim = SimulationBuilder::new(MachineConfig::small_test())
        .build()
        .unwrap();
    let snap = run_until(&sim, &host, member.total_accesses() as u64 / 2);
    let forked = finish(&sim, &member, Start::Fork(&snap));
    let cold = sim.run(&member);
    assert_eq!(forked, cold);
    assert_eq!(jsonl(&forked), jsonl(&cold));
}

#[test]
fn snapshot_files_round_trip_and_corruption_is_refused_with_the_section_named() {
    let dir = temp_dir("snap");
    let workload = TraceGenerator::new(4, 800, 11).generate(Benchmark::OceanContiguous);
    let sim = SimulationBuilder::new(MachineConfig::small_test())
        .build()
        .unwrap();
    let snap = run_until(&sim, &workload, workload.total_accesses() as u64 / 2);
    let path = dir.join("mid.snap");
    snap.write_to(&path).unwrap();

    // Round trip: the file restores to the uninterrupted report, and the
    // header-only read agrees with the full parse.
    let reread = SimSnapshot::read_from(&path).unwrap();
    assert_eq!(
        finish(&sim, &workload, Start::Restore(&reread)),
        sim.run(&workload)
    );
    assert_eq!(read_header(&path).unwrap(), *reread.header());

    // A single flipped bit in a state section is refused by the full read
    // *and* the header-only read (it verifies every section's checksum),
    // with the error naming the corrupt section.
    let bytes = std::fs::read(&path).unwrap();
    let mut flipped = bytes.clone();
    let mid = flipped.len() * 3 / 5;
    flipped[mid] ^= 0x40;
    let bad = dir.join("flipped.snap");
    std::fs::write(&bad, &flipped).unwrap();
    let err = SimSnapshot::read_from(&bad).unwrap_err();
    assert!(err.section().is_some(), "untyped error: {err}");
    assert!(err.to_string().contains("section"), "{err}");
    let err = read_header(&bad).unwrap_err();
    assert!(err.section().is_some(), "untyped error: {err}");

    // A version skew is refused by name, before any section is touched.
    let mut skewed = bytes.clone();
    skewed[8] = 0x63;
    let bad = dir.join("versioned.snap");
    std::fs::write(&bad, &skewed).unwrap();
    for err in [
        SimSnapshot::read_from(&bad).unwrap_err(),
        read_header(&bad).unwrap_err(),
    ] {
        assert!(
            err.to_string().contains("unsupported snapshot version 99"),
            "{err}"
        );
    }

    // Truncation never panics and never parses.
    for cut in [3usize, 9, 40, bytes.len() - 5] {
        let bad = dir.join("cut.snap");
        std::fs::write(&bad, &bytes[..cut]).unwrap();
        assert!(SimSnapshot::read_from(&bad).is_err(), "cut at {cut} parsed");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Walks a snapshot's section frames: each section's id, the byte offset
/// of its frame (id u16, version u16, length u64, payload, checksum u64)
/// and its payload length, in file order.
fn frames(bytes: &[u8]) -> Vec<(u16, usize, usize)> {
    let count = u16::from_le_bytes([bytes[10], bytes[11]]) as usize;
    let mut pos = 12;
    (0..count)
        .map(|_| {
            let id = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            let frame = (id, pos, len);
            pos += 12 + len + 8;
            frame
        })
        .collect()
}

/// The byte offset of the *version* field of the section with `id`, or
/// None.
fn section_version_offset(bytes: &[u8], id: u16) -> Option<usize> {
    frames(bytes)
        .into_iter()
        .find(|&(sid, ..)| sid == id)
        .map(|(_, at, _)| at + 2)
}

#[test]
fn llc_section_is_present_only_when_enabled_and_skew_is_refused_by_name() {
    let workload = TraceGenerator::new(4, 800, 11).generate(Benchmark::OceanContiguous);
    let mut machine = MachineConfig::small_test();
    machine.cores_per_node = allarm_types::config::CoresPerNode(2);
    machine.noc = allarm_types::config::NocConfig::mesh(1, 2);
    let target = workload.total_accesses() as u64 / 2;

    // LLC disabled: the snapshot has no "llc" section — the bytes are the
    // exact pre-LLC format.
    let plain = run_until(
        &SimulationBuilder::new(machine).build().unwrap(),
        &workload,
        target,
    )
    .to_bytes();
    const SEC_LLC: u16 = 7;
    assert!(section_version_offset(&plain, SEC_LLC).is_none());

    // LLC enabled: the section is written, listed by the section-table
    // reader as "llc" v2 (the same version as "caches"), and the file
    // round-trips.
    machine.llc = LlcConfig::shared_slice(256 * 1024, 16);
    let snap = run_until(
        &SimulationBuilder::new(machine).build().unwrap(),
        &workload,
        target,
    );
    let dir = temp_dir("llc-snap");
    let path = dir.join("llc.snap");
    snap.write_to(&path).unwrap();
    let table = read_section_table(&path).unwrap();
    let llc_row = table
        .iter()
        .find(|s| s.id == SEC_LLC)
        .expect("LLC-enabled snapshot carries the llc section");
    assert_eq!(llc_row.name, "llc");
    assert_eq!(llc_row.version, 2);
    assert!(llc_row.len > 0);
    let caches_row = table.iter().find(|s| s.id == SEC_CACHES).unwrap();
    assert_eq!((caches_row.name, caches_row.version), ("caches", 2));
    assert!(SimSnapshot::read_from(&path).is_ok());

    // A cache section from another build is refused with the section
    // named, and the header-only read refuses identically — nothing
    // downstream of the check can be touched. That holds for a newer
    // writer (version 3) and for an older one (version 1, whose ways
    // carry an 8-byte insertion stamp that version 2 would misread).
    let bytes = std::fs::read(&path).unwrap();
    for (id, name) in [(SEC_CACHES, "caches"), (SEC_LLC, "llc")] {
        for version in [3u8, 1] {
            let mut skewed = bytes.clone();
            skewed[section_version_offset(&bytes, id).unwrap()] = version;
            let bad = dir.join(format!("{name}-v{version}.snap"));
            std::fs::write(&bad, &skewed).unwrap();
            for err in [
                SimSnapshot::read_from(&bad).unwrap_err(),
                read_header(&bad).unwrap_err(),
            ] {
                assert_eq!(err.section(), Some(name), "{err}");
                let expected = format!("unsupported section version {version}");
                assert!(err.to_string().contains(&expected), "{err}");
            }
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

const SEC_CACHES: u16 = 1;
const SEC_DIRS: u16 = 2;
const SEC_ALLOC: u16 = 3;
const SEC_CORES: u16 = 4;
const SEC_REPLIES: u16 = 5;

/// Replaces section `id`'s payload with `edit` of it and reseals the file:
/// the frame length and the FNV-1a checksum match the new payload, so only
/// the content checks can refuse it.
fn reseal(bytes: &[u8], id: u16, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = bytes[..12].to_vec();
    let mut edit = Some(edit);
    for (sid, at, len) in frames(bytes) {
        let mut payload = bytes[at + 12..at + 12 + len].to_vec();
        if sid == id {
            (edit.take().unwrap())(&mut payload);
        }
        out.extend_from_slice(&bytes[at..at + 4]); // id and version
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(FNV1A_OFFSET, &payload).to_le_bytes());
    }
    assert!(edit.is_none(), "no section {id}");
    out
}

/// One thread record of a `cores` payload: its byte offset, core, flags
/// (1 parked, 2 finished, 4 faulted) and miss-window length.
struct ThreadRecord {
    at: usize,
    core: u16,
    flags: u8,
    window: usize,
}

/// Record layout: thread u32, core u16, clock u64, flags u8, cursor u64,
/// seq u32, window length u32, then 24 bytes per window entry.
const FLAGS_AT: usize = 14;
const WINDOW_LEN_AT: usize = 27;
const WINDOW_AT: usize = 31;
const WINDOW_ENTRY: usize = 24;
/// A reply: core u16, key (time u64, actor u32, seq u32), latency u64,
/// fill state u8, carries-data u8.
const REPLY: usize = 28;

fn thread_records(bytes: &[u8]) -> Vec<ThreadRecord> {
    let (_, at, len) = frames(bytes)
        .into_iter()
        .find(|&(id, ..)| id == SEC_CORES)
        .unwrap();
    let cores = &bytes[at + 12..at + 12 + len];
    let count = u32::from_le_bytes(cores[..4].try_into().unwrap());
    let mut at = 4;
    (0..count)
        .map(|_| {
            let window = u32::from_le_bytes(
                cores[at + WINDOW_LEN_AT..at + WINDOW_AT]
                    .try_into()
                    .unwrap(),
            ) as usize;
            let record = ThreadRecord {
                at,
                core: u16::from_le_bytes([cores[at + 4], cores[at + 5]]),
                flags: cores[at + FLAGS_AT],
                window,
            };
            at += WINDOW_AT + WINDOW_ENTRY * window;
            record
        })
        .collect()
}

/// The small run the crafted snapshots below are cut from.
fn small_run() -> (Simulator, Workload) {
    let workload = TraceGenerator::new(4, 800, 11).generate(Benchmark::OceanContiguous);
    let sim = SimulationBuilder::new(MachineConfig::small_test())
        .build()
        .unwrap();
    (sim, workload)
}

/// The first of [`small_run`]'s checkpoints (one per 100 accesses) that
/// holds a thread `pick` selects, as file bytes, with that thread's record.
fn first_checkpoint_with(pick: impl Fn(&ThreadRecord) -> bool) -> (Vec<u8>, ThreadRecord) {
    let (sim, workload) = small_run();
    let mut found = None;
    sim.replay((&workload).into(), Start::Cold, 100, |snap| {
        let bytes = snap.to_bytes();
        match thread_records(&bytes).into_iter().find(&pick) {
            Some(thread) => {
                found = Some((bytes, thread));
                ControlFlow::Break(())
            }
            None => ControlFlow::Continue(()),
        }
    })
    .unwrap();
    found.expect("some checkpoint holds such a thread")
}

/// A parked thread whose window was emptied, with its replies dropped: the
/// two sections still agree one to one, but the thread is blocked on
/// nothing. That is not a state the kernel writes, so the read refuses it.
#[test]
fn a_parked_thread_with_no_pending_misses_is_refused() {
    let (bytes, thread) = first_checkpoint_with(|t| t.flags == 1 && t.window > 0);
    let (sim, workload) = small_run();
    let snap = SimSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(
        finish(&sim, &workload, Start::Restore(&snap)),
        sim.run(&workload)
    );

    let emptied = reseal(&bytes, SEC_CORES, |cores| {
        let window = thread.at + WINDOW_AT;
        cores.drain(window..window + WINDOW_ENTRY * thread.window);
        cores[thread.at + WINDOW_LEN_AT..window].copy_from_slice(&0u32.to_le_bytes());
    });
    let crafted = reseal(&emptied, SEC_REPLIES, |replies| {
        let kept: Vec<u8> = replies[4..]
            .chunks(REPLY)
            .filter(|r| u16::from_le_bytes([r[0], r[1]]) != thread.core)
            .flatten()
            .copied()
            .collect();
        *replies = ((kept.len() / REPLY) as u32).to_le_bytes().to_vec();
        replies.extend(kept);
    });
    let err = SimSnapshot::from_bytes(&crafted).unwrap_err();
    assert_eq!(err.section(), Some("cores"), "{err}");
    assert!(err.to_string().contains("parked"), "{err}");

    // The parked bit is derived from the finished and faulted bits; a
    // file that disagrees was not written by the kernel.
    let unparked = reseal(&bytes, SEC_CORES, |cores| cores[thread.at + FLAGS_AT] = 0);
    let err = SimSnapshot::from_bytes(&unparked).unwrap_err();
    assert_eq!(err.section(), Some("cores"), "{err}");
}

/// One extra reply for a finished thread: nothing waits for it, so
/// committing it would panic. The read refuses it, naming the section.
#[test]
fn a_reply_for_a_finished_thread_is_refused() {
    let (bytes, thread) = first_checkpoint_with(|t| t.flags & 2 != 0);
    assert!(SimSnapshot::from_bytes(&bytes).is_ok());

    let crafted = reseal(&bytes, SEC_REPLIES, |replies| {
        let count = u32::from_le_bytes(replies[..4].try_into().unwrap());
        replies[..4].copy_from_slice(&(count + 1).to_le_bytes());
        replies.extend(thread.core.to_le_bytes());
        replies.extend(0u64.to_le_bytes());
        replies.extend(u32::from(thread.core).to_le_bytes());
        replies.extend(0u32.to_le_bytes());
        replies.extend(1u64.to_le_bytes());
        replies.extend([3, 1]); // a Shared fill carrying data
    });
    let err = SimSnapshot::from_bytes(&crafted).unwrap_err();
    assert_eq!(err.section(), Some("replies"), "{err}");
}

/// Restores `bytes` onto [`small_run`], expecting the restore checks to
/// refuse it before anything runs.
fn refused_restore(bytes: &[u8]) -> allarm_types::ConfigError {
    let snap = SimSnapshot::from_bytes(bytes).unwrap();
    let (sim, workload) = small_run();
    sim.replay((&workload).into(), Start::Restore(&snap), 0, |_| {
        ControlFlow::Continue(())
    })
    .unwrap_err()
}

/// Two entries of one thread's miss window swapped: the replies still
/// answer the window one to one, but they commit front to back, so the
/// first commit would meet the wrong key. The read refuses it.
#[test]
fn a_miss_window_out_of_issue_order_is_refused() {
    let (bytes, thread) = first_checkpoint_with(|t| t.window >= 2);
    let crafted = reseal(&bytes, SEC_CORES, |cores| {
        let first = thread.at + WINDOW_AT;
        let (a, b) = cores[first..first + 2 * WINDOW_ENTRY].split_at_mut(WINDOW_ENTRY);
        a.swap_with_slice(b);
    });
    let err = SimSnapshot::from_bytes(&crafted).unwrap_err();
    assert_eq!(err.section(), Some("cores"), "{err}");
    assert!(err.to_string().contains("issue order"), "{err}");
}

/// A finished thread moved to another in-range core: the file is
/// consistent on its own, but the workload pins the thread elsewhere, so
/// a restore checks the pinning as a fork does.
#[test]
fn a_restore_onto_another_core_pinning_is_refused() {
    let (bytes, thread) = first_checkpoint_with(|t| t.flags & 2 != 0);
    let crafted = reseal(&bytes, SEC_CORES, |cores| {
        let other = (thread.core + 1) % 4;
        cores[thread.at + 4..thread.at + 6].copy_from_slice(&other.to_le_bytes());
    });
    let err = refused_restore(&crafted);
    assert_eq!(err.field(), "snapshot.threads", "{err}");
    assert!(err.reason().contains("pins thread"), "{err}");
}

/// One finished thread record appended: the file is consistent on its
/// own, but it has one thread more than the workload, so a restore checks
/// the thread count as a fork does.
#[test]
fn a_restore_with_an_extra_thread_is_refused() {
    let (bytes, _) = first_checkpoint_with(|t| t.flags & 2 != 0);
    let crafted = reseal(&bytes, SEC_CORES, |cores| {
        let count = u32::from_le_bytes(cores[..4].try_into().unwrap());
        cores[..4].copy_from_slice(&(count + 1).to_le_bytes());
        cores.extend(count.to_le_bytes()); // thread index
        cores.extend(0u16.to_le_bytes()); // core
        cores.extend(0u64.to_le_bytes()); // clock
        cores.push(2); // finished
        cores.extend(0u64.to_le_bytes()); // cursor
        cores.extend(0u32.to_le_bytes()); // seq
        cores.extend(0u32.to_le_bytes()); // empty window
    });
    let err = refused_restore(&crafted);
    assert_eq!(err.field(), "snapshot.threads", "{err}");
    assert!(err.reason().contains("5 threads"), "{err}");
}

/// [`small_run`]'s first checkpoint at 400 accesses, as file bytes.
fn directories_checkpoint() -> Vec<u8> {
    let (sim, workload) = small_run();
    run_until(&sim, &workload, 400).to_bytes()
}

/// One probe-filter slot of a `directories` payload: its byte range and
/// sharer count (`None` for a free slot).
struct PfSlot {
    bytes: Range<usize>,
    sharers: Option<usize>,
}

/// Node 0's probe-filter slots in a `directories` payload, and the offset
/// of their count. Node layout: busy-until u64, 14 controller counters,
/// slot count u32, tick u64, 7 filter counters, then per slot a presence
/// u8 and, when present, line u64, owner u16, stamp u64, sharer count u32
/// and one u16 per sharer.
fn node0_slots(dirs: &[u8]) -> (usize, Vec<PfSlot>) {
    let count_at = 4 + 8 + 14 * 8;
    let count = u32::from_le_bytes(dirs[count_at..count_at + 4].try_into().unwrap());
    let mut at = count_at + 4 + 8 + 7 * 8;
    let slots = (0..count)
        .map(|_| {
            let start = at;
            let sharers = (dirs[at] != 0).then(|| {
                let count_at = at + SHARER_COUNT_AT;
                u32::from_le_bytes(dirs[count_at..count_at + 4].try_into().unwrap()) as usize
            });
            at += sharers.map_or(1, |n| SHARER_COUNT_AT + 4 + 2 * n);
            PfSlot {
                bytes: start..at,
                sharers,
            }
        })
        .collect();
    (count_at, slots)
}

/// Offset of a present slot's sharer count: presence, line, owner, stamp.
const SHARER_COUNT_AT: usize = 1 + 8 + 2 + 8;

/// One probe-filter entry of node 0 given an extra sharer outside the
/// 4-core machine: the file is consistent on its own, but a restore (or a
/// fork) would track a core the machine lacks, so it is refused by name.
#[test]
fn a_directory_tracking_a_core_outside_the_machine_is_refused() {
    let bytes = directories_checkpoint();
    for stray in [4u16, 999] {
        let crafted = reseal(&bytes, SEC_DIRS, |dirs| {
            let (_, slots) = node0_slots(dirs);
            let (bytes, sharers) = slots
                .into_iter()
                .find_map(|slot| slot.sharers.map(|n| (slot.bytes, n)))
                .expect("node 0 tracks a line");
            let count_at = bytes.start + SHARER_COUNT_AT;
            dirs[count_at..count_at + 4].copy_from_slice(&(sharers as u32 + 1).to_le_bytes());
            dirs.splice(bytes.end..bytes.end, stray.to_le_bytes());
        });
        assert!(SimSnapshot::from_bytes(&crafted).is_ok());
        let err = refused_restore(&crafted);
        assert_eq!(err.field(), "snapshot.directories", "{err}");
        assert!(
            err.reason().contains(&format!("core{stray}, outside")),
            "{err}"
        );
    }
}

/// Node 0's probe filter one slot short, count and bytes: the file parses,
/// but the machine's filter has one slot more, so the restore is refused
/// by name.
#[test]
fn a_directory_with_another_slot_count_is_refused() {
    let bytes = directories_checkpoint();
    let crafted = reseal(&bytes, SEC_DIRS, |dirs| {
        let (count_at, slots) = node0_slots(dirs);
        let last = slots.last().expect("node 0 has slots").bytes.clone();
        dirs.drain(last);
        let count = slots.len() as u32 - 1;
        dirs[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    });
    assert!(SimSnapshot::from_bytes(&crafted).is_ok());
    let err = refused_restore(&crafted);
    assert_eq!(err.field(), "snapshot.directories", "{err}");
    assert!(err.reason().contains("probe-filter slots"), "{err}");
}

/// One page-table entry of an `allocator` payload, after its u64 count:
/// virtual page u64, frame u64, home u16, first toucher u16, touches u32.
/// The entries are followed by the u32 count of next-slot cursors and one
/// u64 cursor per node.
const PAGE: usize = 24;

fn page_entry(alloc: &mut [u8], i: usize) -> &mut [u8] {
    &mut alloc[8 + PAGE * i..8 + PAGE * (i + 1)]
}

/// Page entry `i`'s home node.
fn home(alloc: &mut [u8], i: usize) -> &mut [u8] {
    &mut page_entry(alloc, i)[16..18]
}

/// The offset of node `node`'s next-slot cursor, past the u32 count.
fn cursor_at(alloc: &[u8], node: usize) -> usize {
    8 + PAGE * u64::from_le_bytes(alloc[..8].try_into().unwrap()) as usize + 4 + 8 * node
}

/// A crafted page table: the refusal it must get, and the edit of an
/// `allocator` payload that crafts it.
type PageTableShape = (&'static str, fn(&mut Vec<u8>));

/// Page tables the allocator could not have written, each resealed into
/// [`small_run`]'s checkpoint at 400 accesses: the file parses, but the
/// restore would index past the machine's nodes, or replay a placement no
/// run reaches, so it is refused by name before anything runs.
#[test]
fn a_page_table_the_allocator_could_not_have_written_is_refused() {
    let bytes = directories_checkpoint();
    let (sim, workload) = small_run();
    let snap = SimSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(
        finish(&sim, &workload, Start::Restore(&snap)),
        sim.run(&workload)
    );
    let shapes: [PageTableShape; 7] = [
        ("homes the page on node999", |alloc| {
            home(alloc, 0).copy_from_slice(&999u16.to_le_bytes())
        }),
        // The cursor list one node short of the machine's four.
        ("has 3 next-slot cursors for 4 nodes", |alloc| {
            let at = cursor_at(alloc, 0);
            alloc[at - 4..at].copy_from_slice(&3u32.to_le_bytes());
            alloc.drain(at + 3 * 8..at + 4 * 8);
        }),
        // Re-homed to another node of the machine, frame unchanged.
        ("homes the page on node", |alloc| {
            let node = u16::from_le_bytes(home(alloc, 0).try_into().unwrap());
            home(alloc, 0).copy_from_slice(&((node + 1) % 4).to_le_bytes());
        }),
        ("lists the page twice", |alloc| {
            let vpage = page_entry(alloc, 0)[..8].to_vec();
            page_entry(alloc, 1)[..8].copy_from_slice(&vpage);
        }),
        // Page 1 backed by page 0's frame, homed where that frame is.
        ("maps two virtual pages to frame", |alloc| {
            let frame_and_home = page_entry(alloc, 0)[8..18].to_vec();
            page_entry(alloc, 1)[8..18].copy_from_slice(&frame_and_home);
        }),
        // Page 0's node has allocated nothing yet.
        ("has not allocated that frame", |alloc| {
            let node = u16::from_le_bytes(home(alloc, 0).try_into().unwrap());
            let at = cursor_at(alloc, usize::from(node));
            alloc[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        }),
        ("has it first touched on node999", |alloc| {
            page_entry(alloc, 0)[18..20].copy_from_slice(&999u16.to_le_bytes())
        }),
    ];
    for (reason, edit) in shapes {
        let err = refused_restore(&reseal(&bytes, SEC_ALLOC, edit));
        assert_eq!(err.field(), "snapshot.allocator", "{err}");
        assert!(err.reason().contains(reason), "{err}");
    }
}
