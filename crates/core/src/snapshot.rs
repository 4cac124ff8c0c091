//! Versioned on-disk simulator snapshots: mid-run checkpoint, restore and
//! fork-from-warm.
//!
//! A [`SimSnapshot`] is the complete frozen state of one simulation at an
//! end-of-round boundary of the sharded kernel — every cache way, probe-
//! filter slot, directory counter, page mapping, core clock, miss window
//! and in-flight reply — plus a header identifying the machine and the
//! workload it belongs to. Snapshots are **canonical**: the bytes do not
//! depend on `sim_threads`, and a snapshot taken at N workers restores
//! onto any worker count with byte-identical downstream reports.
//!
//! # On-disk format
//!
//! The same versioning discipline as the `ALLARMTR` trace format, with a
//! per-section version map so individual sections can evolve without
//! invalidating the rest:
//!
//! ```text
//! magic   8 B   b"ALLARMSN"
//! version u16   file-format version (currently 1)
//! count   u16   number of sections
//! then per section:
//!   id      u16   section identifier
//!   version u16   section version
//!   len     u64   payload length in bytes
//!   payload len B
//!   check   u64   FNV-1a of the payload
//! ```
//!
//! All integers are little-endian and fixed-width. Every reader error is a
//! typed [`SnapError`] naming the offending section; readers never panic
//! on corrupt input and never allocate more than the file could justify.
//!
//! Snapshots come from and go back into [`crate::Simulator::replay`]: its
//! checkpoint callback receives them, and [`crate::simulator::Start`]
//! resumes from one — `Restore` onto the same workload, `Fork` onto a
//! prefix-compatible one.
//!
//! # Examples
//!
//! ```
//! use std::ops::ControlFlow;
//! use allarm_core::simulator::Start;
//! use allarm_core::snapshot::SimSnapshot;
//! use allarm_core::{MachineConfig, SimulationBuilder};
//! use allarm_workloads::{Benchmark, TraceGenerator};
//!
//! let workload = TraceGenerator::new(4, 2_000, 7).generate(Benchmark::Barnes);
//! let sim = SimulationBuilder::new(MachineConfig::small_test())
//!     .build()
//!     .unwrap();
//! // Stop at the first checkpoint past 4,000 accesses, round-trip the
//! // snapshot through bytes, and finish from the restored state: the
//! // report is byte-identical to an uninterrupted run.
//! let mut taken = None;
//! sim.replay((&workload).into(), Start::Cold, 4_000, |snap| {
//!     taken = Some(snap.to_bytes());
//!     ControlFlow::Break(())
//! })
//! .unwrap();
//! let snap = SimSnapshot::from_bytes(&taken.unwrap()).unwrap();
//! let resumed = sim
//!     .replay((&workload).into(), Start::Restore(&snap), 0, |_| ControlFlow::Continue(()))
//!     .unwrap();
//! assert_eq!(resumed, sim.run(&workload));
//! ```

use std::fmt;
use std::io::Write;
use std::path::Path;

use crate::sharded::{KernelState, Pending, ThreadState, Totals};
use allarm_cache::{CoherenceState, CoreCachesState, EvictedLine, SetAssocState, WayState};
use allarm_coherence::{
    CoherenceReply, DirectoryControllerState, DirectoryNodeState, DirectoryStats, PfEntry,
    PfSlotState, PfStats, ProbeFilterState, SharerSet,
};
use allarm_engine::MergeKey;
use allarm_mem::{NumaAllocatorState, NumaStats, PageEntryState};
use allarm_noc::{MessageClass, NocStats, NocStatsExport};
use allarm_types::addr::{LineAddr, PageAddr};
use allarm_types::ids::{CoreId, NodeId};
use allarm_types::stats::Counter;
use allarm_types::Nanos;
use allarm_workloads::{fnv1a, FNV1A_OFFSET};

/// The snapshot file-format version this build reads and writes.
pub const SNAP_VERSION: u16 = 1;

/// Magic bytes opening a snapshot file.
const MAGIC: &[u8; 8] = b"ALLARMSN";

/// Section identifiers. The id is stable forever; bumping a section's
/// *version* is how its payload evolves.
const SEC_HEADER: u16 = 0;
const SEC_CACHES: u16 = 1;
const SEC_DIRS: u16 = 2;
const SEC_ALLOC: u16 = 3;
const SEC_CORES: u16 = 4;
const SEC_REPLIES: u16 = 5;
const SEC_KERNEL: u16 = 6;
/// Per-node shared LLC slice state. Written only when the machine's LLC is
/// enabled, so LLC-less snapshots stay byte-identical to the pre-LLC
/// format.
const SEC_LLC: u16 = 7;

/// Per-section payload versions this build writes (and the only ones it
/// reads).
///
/// `caches` and `llc` are at version 2: a way is 17 bytes (line, state,
/// recency stamp) since the caches dropped their FIFO insertion stamp,
/// which version 1 wrote as 8 more bytes per way. A version-1 section is
/// refused by name rather than misread.
const SECTION_VERSIONS: [(u16, u16); 8] = [
    (SEC_HEADER, 1),
    (SEC_CACHES, 2),
    (SEC_DIRS, 1),
    (SEC_ALLOC, 1),
    (SEC_CORES, 1),
    (SEC_REPLIES, 1),
    (SEC_KERNEL, 1),
    (SEC_LLC, 2),
];

/// Cap on embedded strings while parsing untrusted files.
const MAX_STRING_BYTES: u64 = 4096;

fn section_name(id: u16) -> &'static str {
    match id {
        SEC_HEADER => "header",
        SEC_CACHES => "caches",
        SEC_DIRS => "directories",
        SEC_ALLOC => "allocator",
        SEC_CORES => "cores",
        SEC_REPLIES => "replies",
        SEC_KERNEL => "kernel",
        SEC_LLC => "llc",
        _ => "unknown",
    }
}

/// A snapshot read/write failure: what went wrong and, when the failure is
/// inside a section, which section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    msg: String,
    section: Option<&'static str>,
}

impl SnapError {
    fn new(msg: impl Into<String>) -> Self {
        SnapError {
            msg: msg.into(),
            section: None,
        }
    }

    fn in_section(section: &'static str, msg: impl Into<String>) -> Self {
        SnapError {
            msg: msg.into(),
            section: Some(section),
        }
    }

    /// The section the error occurred in, if it was inside one.
    pub fn section(&self) -> Option<&'static str> {
        self.section
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.section {
            Some(section) => write!(f, "snapshot section '{section}': {}", self.msg),
            None => write!(f, "snapshot: {}", self.msg),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::new(format!("i/o error: {e}"))
    }
}

/// Fingerprint of a (machine, allocation policy, NUMA policy) triple, used
/// to refuse restoring a snapshot onto a differently-configured simulator.
/// FNV-1a over the `Debug` rendering: every field of the configuration
/// participates, and no serialisation machinery is needed.
pub(crate) fn config_fingerprint(
    config: &allarm_types::config::MachineConfig,
    policy: allarm_coherence::AllocationPolicy,
    numa_policy: allarm_mem::NumaPolicy,
) -> u64 {
    fnv1a(
        FNV1A_OFFSET,
        format!("{config:?}|{policy:?}|{numa_policy:?}").as_bytes(),
    )
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// Everything a snapshot declares about itself: enough to answer "what
/// machine, which workload, how far along" without decoding the state
/// sections. [`read_header`] returns exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapHeader {
    /// Fingerprint of the machine configuration + policies the snapshot
    /// was taken under (see the restore checks of
    /// [`crate::Simulator::replay`]).
    pub config_fingerprint: u64,
    /// Core count of the machine.
    pub num_cores: u32,
    /// Node count of the machine.
    pub num_nodes: u32,
    /// Allocation-policy name (informational; the fingerprint is the
    /// authority).
    pub policy: String,
    /// Workload name the snapshot was taken from.
    pub workload_name: String,
    /// [`allarm_workloads::Workload::checksum`] of that workload.
    pub workload_checksum: u64,
    /// Total accesses of that workload.
    pub workload_total: u64,
    /// Accesses already replayed at the snapshot point.
    pub accesses_done: u64,
    /// For batch checkpoints: the number of result rows already emitted
    /// when the snapshot was taken (`u64::MAX` = not a batch checkpoint).
    pub row_index: u64,
    /// For batch checkpoints: the scenario name being executed (empty =
    /// not a batch checkpoint).
    pub scenario: String,
}

impl SnapHeader {
    /// True if this snapshot was taken by a batch run (`scenario_run
    /// --checkpoint-every`) and carries a resume cursor.
    pub fn is_batch_checkpoint(&self) -> bool {
        self.row_index != u64::MAX
    }
}

// ---------------------------------------------------------------------------
// The snapshot
// ---------------------------------------------------------------------------

/// One simulation's complete frozen state plus its identifying header.
///
/// Handed to the checkpoint callback of [`crate::Simulator::replay`] and
/// consumed by its [`crate::simulator::Start`]; serialized with
/// [`SimSnapshot::to_bytes`] / [`SimSnapshot::write_to`] and read back with
/// [`SimSnapshot::from_bytes`] / [`SimSnapshot::read_from`].
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    header: SnapHeader,
    state: KernelState,
}

impl SimSnapshot {
    pub(crate) fn from_kernel(header: SnapHeader, state: KernelState) -> Self {
        SimSnapshot { header, state }
    }

    pub(crate) fn state(&self) -> &KernelState {
        &self.state
    }

    /// The snapshot's identifying header.
    pub fn header(&self) -> &SnapHeader {
        &self.header
    }

    /// Accesses already replayed at the snapshot point.
    pub fn accesses_done(&self) -> u64 {
        self.header.accesses_done
    }

    /// Tags the snapshot as a batch checkpoint: `row_index` result rows
    /// were already emitted for `scenario` when it was taken.
    pub fn with_row(mut self, row_index: u64, scenario: &str) -> Self {
        self.header.row_index = row_index;
        self.header.scenario = scenario.to_string();
        self
    }

    /// Serializes the snapshot into the versioned section format. The LLC
    /// section is written only when the machine has slices, so snapshots
    /// of LLC-less machines are byte-identical to the pre-LLC format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections: Vec<(u16, Vec<u8>)> = vec![
            (SEC_HEADER, encode_header(&self.header)),
            (SEC_CACHES, encode_caches(&self.state.caches)),
            (SEC_DIRS, encode_dirs(&self.state.dirs)),
            (SEC_ALLOC, encode_alloc(&self.state.allocator)),
            (SEC_CORES, encode_threads(&self.state.threads)),
            (SEC_REPLIES, encode_replies(&self.state.replies)),
            (SEC_KERNEL, encode_kernel(&self.state)),
        ];
        if !self.state.llc.is_empty() {
            sections.push((SEC_LLC, encode_llc(&self.state.llc)));
        }
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u16).to_le_bytes());
        for (id, payload) in sections {
            let version = SECTION_VERSIONS
                .iter()
                .find(|(sid, _)| *sid == id)
                .map(|(_, v)| *v)
                .expect("every written section has a declared version");
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&payload);
            out.extend_from_slice(&fnv1a(FNV1A_OFFSET, &payload).to_le_bytes());
        }
        out
    }

    /// Parses a snapshot from bytes, verifying the magic, the file and
    /// per-section versions, and every section checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] naming the offending section for unknown
    /// versions, checksum mismatches, truncation, or structurally invalid
    /// payloads. The input is never partially applied anywhere.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let sections = split_sections(bytes)?;
        let mut header = None;
        let mut caches = None;
        let mut dirs = None;
        let mut alloc = None;
        let mut threads = None;
        let mut replies = None;
        let mut kernel = None;
        let mut llc = None;
        for (id, _, payload) in &sections {
            match *id {
                SEC_HEADER => header = Some(decode_header(payload)?),
                SEC_CACHES => caches = Some(decode_caches(payload)?),
                SEC_DIRS => dirs = Some(decode_dirs(payload)?),
                SEC_ALLOC => alloc = Some(decode_alloc(payload)?),
                SEC_CORES => threads = Some(decode_threads(payload)?),
                SEC_REPLIES => replies = Some(decode_replies(payload)?),
                SEC_KERNEL => kernel = Some(decode_kernel(payload)?),
                SEC_LLC => llc = Some(decode_llc(payload)?),
                other => {
                    return Err(SnapError::new(format!(
                        "unknown section id {other} (a newer writer?)"
                    )))
                }
            }
        }
        let missing = |what: &'static str| SnapError::new(format!("missing section '{what}'"));
        let header = header.ok_or_else(|| missing("header"))?;
        let (round_horizon, totals) = kernel.ok_or_else(|| missing("kernel"))?;
        let state = KernelState {
            threads: threads.ok_or_else(|| missing("cores"))?,
            dirs: dirs.ok_or_else(|| missing("directories"))?,
            caches: caches.ok_or_else(|| missing("caches"))?,
            // Absent section == LLC disabled; the two encode identically.
            llc: llc.unwrap_or_default(),
            allocator: alloc.ok_or_else(|| missing("allocator"))?,
            replies: replies.ok_or_else(|| missing("replies"))?,
            round_horizon,
            totals,
        };
        validate_consistency(&header, &state)?;
        Ok(SimSnapshot { header, state })
    }

    /// Writes the snapshot to `path` atomically: the bytes land in a
    /// sibling `.tmp` file first and are renamed into place, so a crash
    /// mid-write never leaves a truncated snapshot under the final name.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] wrapping any I/O failure.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), SnapError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&self.to_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and fully validates a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] for unreadable files and everything
    /// [`SimSnapshot::from_bytes`] rejects.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, SnapError> {
        let bytes = std::fs::read(path)?;
        SimSnapshot::from_bytes(&bytes)
    }
}

/// Reads and validates just the header of a snapshot file: the magic, the
/// file version, every section's frame and checksum, and the header
/// payload — but no state section is decoded.
///
/// # Errors
///
/// Returns a [`SnapError`] for unreadable files, bad magic, unsupported
/// versions, or a corrupt/missing header section.
pub fn read_header(path: impl AsRef<Path>) -> Result<SnapHeader, SnapError> {
    let bytes = std::fs::read(path)?;
    let sections = split_sections(&bytes)?;
    for (id, _, payload) in &sections {
        if *id == SEC_HEADER {
            return decode_header(payload);
        }
    }
    Err(SnapError::new("missing section 'header'"))
}

/// One row of a snapshot file's section table, as reported by
/// [`read_section_table`]: enough for an inspection tool to list what the
/// file contains without decoding any state payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section identifier.
    pub id: u16,
    /// The section's human name (`"llc"`, `"caches"`, …; `"unknown"` for
    /// ids this build does not know).
    pub name: &'static str,
    /// The payload version the writer declared.
    pub version: u16,
    /// Payload length in bytes.
    pub len: u64,
}

/// Reads and validates a snapshot file's section table: every frame and
/// checksum is checked, but no state section is decoded.
///
/// # Errors
///
/// Returns a [`SnapError`] for unreadable files and everything
/// [`SimSnapshot::from_bytes`] would reject at the framing layer.
pub fn read_section_table(path: impl AsRef<Path>) -> Result<Vec<SectionInfo>, SnapError> {
    let bytes = std::fs::read(path)?;
    Ok(split_sections(&bytes)?
        .into_iter()
        .map(|(id, version, payload)| SectionInfo {
            id,
            name: section_name(id),
            version,
            len: payload.len() as u64,
        })
        .collect())
}

/// Splits a snapshot byte stream into `(id, version, payload)` sections,
/// verifying the magic, the file version, each section's declared version,
/// frame bounds and checksum.
#[allow(clippy::type_complexity)]
fn split_sections(bytes: &[u8]) -> Result<Vec<(u16, u16, Vec<u8>)>, SnapError> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(SnapError::new("file too short for a snapshot header"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::new("bad magic: not an ALLARMSN snapshot file"));
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != SNAP_VERSION {
        return Err(SnapError::new(format!(
            "unsupported snapshot version {version} (this build reads version {SNAP_VERSION})"
        )));
    }
    let count = u16::from_le_bytes([bytes[10], bytes[11]]) as usize;
    let mut pos = 12;
    let mut sections = Vec::new();
    for _ in 0..count {
        if bytes.len() - pos < 12 {
            return Err(SnapError::new("truncated section frame"));
        }
        let id = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
        let sec_version = u16::from_le_bytes([bytes[pos + 2], bytes[pos + 3]]);
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        pos += 12;
        let name = section_name(id);
        if let Some((_, expected)) = SECTION_VERSIONS.iter().find(|(sid, _)| *sid == id) {
            if sec_version != *expected {
                return Err(SnapError::in_section(
                    name,
                    format!(
                        "unsupported section version {sec_version} \
                         (this build reads version {expected})"
                    ),
                ));
            }
        }
        let len = usize::try_from(len)
            .ok()
            .filter(|l| bytes.len() - pos >= l + 8)
            .ok_or_else(|| SnapError::in_section(name, "declared length exceeds the file"))?;
        let payload = &bytes[pos..pos + len];
        pos += len;
        let check = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 8;
        if fnv1a(FNV1A_OFFSET, payload) != check {
            return Err(SnapError::in_section(
                name,
                "checksum mismatch (corrupt payload)",
            ));
        }
        if sections.iter().any(|(sid, _, _)| *sid == id) {
            return Err(SnapError::in_section(name, "duplicate section"));
        }
        sections.push((id, sec_version, payload.to_vec()));
    }
    if pos != bytes.len() {
        return Err(SnapError::new("trailing bytes after the last section"));
    }
    Ok(sections)
}

/// Cross-section sanity: the header's machine shape must match the state
/// sections, so a restore can trust either, and the threads and replies
/// must agree the way the kernel leaves them at a frozen point: a finished
/// thread has no miss window, a parked one waits on a non-empty window,
/// and every pending window entry has exactly one reply. Restoring
/// anything else would replay a different run, or panic on a reply
/// nothing waits for.
fn validate_consistency(header: &SnapHeader, state: &KernelState) -> Result<(), SnapError> {
    if state.caches.len() != header.num_cores as usize {
        return Err(SnapError::in_section(
            "caches",
            format!(
                "{} per-core entries but the header declares {} cores",
                state.caches.len(),
                header.num_cores
            ),
        ));
    }
    if state.dirs.len() != header.num_nodes as usize {
        return Err(SnapError::in_section(
            "directories",
            format!(
                "{} per-node entries but the header declares {} nodes",
                state.dirs.len(),
                header.num_nodes
            ),
        ));
    }
    if !state.llc.is_empty() && state.llc.len() != header.num_nodes as usize {
        return Err(SnapError::in_section(
            "llc",
            format!(
                "{} per-node slices but the header declares {} nodes",
                state.llc.len(),
                header.num_nodes
            ),
        ));
    }
    for (i, t) in state.threads.iter().enumerate() {
        if t.thread != i {
            return Err(SnapError::in_section(
                "cores",
                format!("thread entries out of order at index {i}"),
            ));
        }
        if t.core.index() >= header.num_cores as usize {
            return Err(SnapError::in_section(
                "cores",
                format!("thread {i} pinned to out-of-range core {}", t.core),
            ));
        }
        if (t.finished && !t.window.is_empty())
            || (parked(t.finished, t.faulted) && t.window.is_empty())
        {
            return Err(SnapError::in_section(
                "cores",
                format!(
                    "thread {i} is {} but has {} pending misses",
                    if t.finished { "finished" } else { "parked" },
                    t.window.len()
                ),
            ));
        }
    }
    let mut pending: Vec<(CoreId, MergeKey)> = state
        .threads
        .iter()
        .flat_map(|t| t.window.iter().map(|p| (t.core, p.key)))
        .collect();
    let mut replied: Vec<(CoreId, MergeKey)> =
        state.replies.iter().map(|r| (r.core, r.key)).collect();
    pending.sort_unstable();
    replied.sort_unstable();
    if pending != replied {
        return Err(SnapError::in_section(
            "replies",
            format!(
                "{} replies do not answer the threads' {} pending window entries one to one",
                replied.len(),
                pending.len()
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode helpers
// ---------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new() -> Self {
        Enc(Vec::new())
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn counter(&mut self, c: Counter) {
        self.u64(c.get());
    }
    fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// A bounds-checked little-endian reader over one section payload. Every
/// failure carries the section name.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Dec {
            buf,
            pos: 0,
            section,
        }
    }

    fn err(&self, msg: impl Into<String>) -> SnapError {
        SnapError::in_section(self.section, msg)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an element count declared as u32 and sanity-checks it against
    /// the bytes actually remaining (each element needs at least
    /// `elem_min` bytes), so a corrupt count cannot demand an absurd
    /// allocation.
    fn count32(&mut self, elem_min: usize, what: &str) -> Result<usize, SnapError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_min) > self.remaining() {
            return Err(self.err(format!(
                "{what} count {n} exceeds what the payload could hold"
            )));
        }
        Ok(n)
    }

    /// As [`Dec::count32`] for u64-declared counts.
    fn count64(&mut self, elem_min: usize, what: &str) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| self.err(format!("{what} count overflows")))?;
        if n.saturating_mul(elem_min) > self.remaining() {
            return Err(self.err(format!(
                "{what} count {n} exceeds what the payload could hold"
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapError> {
        let len = self.u64()?;
        if len > MAX_STRING_BYTES {
            return Err(self.err(format!("string of {len} bytes exceeds the cap")));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("string is not valid UTF-8"))
    }

    fn counter(&mut self) -> Result<Counter, SnapError> {
        Ok(Counter::from(self.u64()?))
    }

    fn nanos(&mut self) -> Result<Nanos, SnapError> {
        Ok(Nanos::new(self.u64()?))
    }

    fn done(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(self.err(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

fn encode_coherence_state(state: CoherenceState) -> u8 {
    match state {
        CoherenceState::Modified => 0,
        CoherenceState::Owned => 1,
        CoherenceState::Exclusive => 2,
        CoherenceState::Shared => 3,
        CoherenceState::Invalid => 4,
    }
}

fn decode_coherence_state(d: &mut Dec<'_>) -> Result<CoherenceState, SnapError> {
    match d.u8()? {
        0 => Ok(CoherenceState::Modified),
        1 => Ok(CoherenceState::Owned),
        2 => Ok(CoherenceState::Exclusive),
        3 => Ok(CoherenceState::Shared),
        4 => Ok(CoherenceState::Invalid),
        other => Err(d.err(format!("invalid coherence state {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------------

fn encode_header(h: &SnapHeader) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(h.config_fingerprint);
    e.u32(h.num_cores);
    e.u32(h.num_nodes);
    e.str(&h.policy);
    e.str(&h.workload_name);
    e.u64(h.workload_checksum);
    e.u64(h.workload_total);
    e.u64(h.accesses_done);
    e.u64(h.row_index);
    e.str(&h.scenario);
    e.finish()
}

fn decode_header(payload: &[u8]) -> Result<SnapHeader, SnapError> {
    let mut d = Dec::new(payload, "header");
    let header = SnapHeader {
        config_fingerprint: d.u64()?,
        num_cores: d.u32()?,
        num_nodes: d.u32()?,
        policy: d.str()?,
        workload_name: d.str()?,
        workload_checksum: d.u64()?,
        workload_total: d.u64()?,
        accesses_done: d.u64()?,
        row_index: d.u64()?,
        scenario: d.str()?,
    };
    d.done()?;
    Ok(header)
}

fn encode_set_assoc(e: &mut Enc, s: &SetAssocState) {
    e.u32(s.sets.len() as u32);
    e.u64(s.tick);
    e.counter(s.stats.hits);
    e.counter(s.stats.misses);
    e.counter(s.stats.evictions);
    e.counter(s.stats.invalidations);
    e.counter(s.stats.writebacks);
    for ways in &s.sets {
        e.u16(ways.len() as u16);
        for w in ways {
            e.u64(w.addr.raw());
            e.u8(encode_coherence_state(w.state));
            e.u64(w.last_touch);
        }
    }
}

fn decode_set_assoc(d: &mut Dec<'_>) -> Result<SetAssocState, SnapError> {
    let num_sets = d.count32(2, "cache set")?;
    let tick = d.u64()?;
    let stats = allarm_cache::CacheStats {
        hits: d.counter()?,
        misses: d.counter()?,
        evictions: d.counter()?,
        invalidations: d.counter()?,
        writebacks: d.counter()?,
    };
    let mut sets = Vec::with_capacity(num_sets);
    for _ in 0..num_sets {
        let ways = d.u16()? as usize;
        if ways.saturating_mul(17) > d.remaining() {
            return Err(d.err(format!("way count {ways} exceeds the payload")));
        }
        let mut set = Vec::with_capacity(ways);
        for _ in 0..ways {
            let addr = LineAddr::new(d.u64()?);
            let state = decode_coherence_state(d)?;
            set.push(WayState {
                addr,
                state,
                last_touch: d.u64()?,
            });
        }
        sets.push(set);
    }
    Ok(SetAssocState { sets, tick, stats })
}

fn encode_caches(caches: &[CoreCachesState]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(caches.len() as u32);
    for c in caches {
        encode_set_assoc(&mut e, &c.l1d);
        encode_set_assoc(&mut e, &c.l2);
        e.u32(c.pending_victims.len() as u32);
        for v in &c.pending_victims {
            e.u64(v.addr.raw());
            e.u8(encode_coherence_state(v.state));
        }
    }
    e.finish()
}

fn decode_caches(payload: &[u8]) -> Result<Vec<CoreCachesState>, SnapError> {
    let mut d = Dec::new(payload, "caches");
    let n = d.count32(2, "core")?;
    let mut caches = Vec::with_capacity(n);
    for _ in 0..n {
        let l1d = decode_set_assoc(&mut d)?;
        let l2 = decode_set_assoc(&mut d)?;
        let victims = d.count32(9, "pending victim")?;
        let mut pending_victims = Vec::with_capacity(victims);
        for _ in 0..victims {
            let addr = LineAddr::new(d.u64()?);
            let state = decode_coherence_state(&mut d)?;
            pending_victims.push(EvictedLine { addr, state });
        }
        caches.push(CoreCachesState {
            l1d,
            l2,
            pending_victims,
        });
    }
    d.done()?;
    Ok(caches)
}

fn encode_llc(slices: &[SetAssocState]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(slices.len() as u32);
    for s in slices {
        encode_set_assoc(&mut e, s);
    }
    e.finish()
}

fn decode_llc(payload: &[u8]) -> Result<Vec<SetAssocState>, SnapError> {
    let mut d = Dec::new(payload, "llc");
    let n = d.count32(2, "node slice")?;
    let mut slices = Vec::with_capacity(n);
    for _ in 0..n {
        slices.push(decode_set_assoc(&mut d)?);
    }
    d.done()?;
    Ok(slices)
}

fn encode_dirs(dirs: &[DirectoryNodeState]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(dirs.len() as u32);
    for node in dirs {
        e.u64(node.busy_until.as_u64());
        let s = &node.controller.stats;
        for c in [
            s.requests,
            s.requests_local,
            s.requests_remote,
            s.allarm_allocation_skips,
            s.pf_evictions,
            s.eviction_messages,
            s.eviction_invalidations,
            s.eviction_writebacks,
            s.local_probes,
            s.local_probe_hits,
            s.local_probes_hidden,
            s.dram_fills,
            s.cache_transfers,
            s.ownership_invalidations,
        ] {
            e.counter(c);
        }
        let pf = &node.controller.probe_filter;
        e.u32(pf.slots.len() as u32);
        e.u64(pf.tick);
        for c in [
            pf.stats.hits,
            pf.stats.misses,
            pf.stats.allocations,
            pf.stats.evictions,
            pf.stats.deallocations,
            pf.stats.array_accesses,
            pf.stats.node_vector_accesses,
        ] {
            e.counter(c);
        }
        for slot in &pf.slots {
            match slot {
                None => e.u8(0),
                Some(s) => {
                    e.u8(1);
                    e.u64(s.entry.line.raw());
                    e.u16(s.entry.owner.raw());
                    e.u64(s.last_touch);
                    e.u32(s.entry.sharers.count());
                    for core in s.entry.sharers.iter() {
                        e.u16(core.raw());
                    }
                }
            }
        }
    }
    e.finish()
}

fn decode_dirs(payload: &[u8]) -> Result<Vec<DirectoryNodeState>, SnapError> {
    let mut d = Dec::new(payload, "directories");
    let n = d.count32(8, "node")?;
    let mut dirs = Vec::with_capacity(n);
    for _ in 0..n {
        let busy_until = d.nanos()?;
        let stats = DirectoryStats {
            requests: d.counter()?,
            requests_local: d.counter()?,
            requests_remote: d.counter()?,
            allarm_allocation_skips: d.counter()?,
            pf_evictions: d.counter()?,
            eviction_messages: d.counter()?,
            eviction_invalidations: d.counter()?,
            eviction_writebacks: d.counter()?,
            local_probes: d.counter()?,
            local_probe_hits: d.counter()?,
            local_probes_hidden: d.counter()?,
            dram_fills: d.counter()?,
            cache_transfers: d.counter()?,
            ownership_invalidations: d.counter()?,
        };
        let num_slots = d.count32(1, "probe-filter slot")?;
        let tick = d.u64()?;
        let pf_stats = PfStats {
            hits: d.counter()?,
            misses: d.counter()?,
            allocations: d.counter()?,
            evictions: d.counter()?,
            deallocations: d.counter()?,
            array_accesses: d.counter()?,
            node_vector_accesses: d.counter()?,
        };
        let mut slots = Vec::with_capacity(num_slots);
        for _ in 0..num_slots {
            match d.u8()? {
                0 => slots.push(None),
                1 => {
                    let line = LineAddr::new(d.u64()?);
                    let owner = CoreId::new(d.u16()?);
                    let last_touch = d.u64()?;
                    let sharers_count = d.count32(2, "sharer")?;
                    let mut sharers = SharerSet::empty();
                    for _ in 0..sharers_count {
                        sharers.insert(CoreId::new(d.u16()?));
                    }
                    let mut entry = PfEntry::new(line, owner);
                    entry.sharers = sharers;
                    slots.push(Some(PfSlotState { entry, last_touch }));
                }
                other => return Err(d.err(format!("invalid slot presence flag {other}"))),
            }
        }
        dirs.push(DirectoryNodeState {
            controller: DirectoryControllerState {
                probe_filter: ProbeFilterState {
                    slots,
                    tick,
                    stats: pf_stats,
                },
                stats,
            },
            busy_until,
        });
    }
    d.done()?;
    Ok(dirs)
}

fn encode_alloc(a: &NumaAllocatorState) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(a.pages.len() as u64);
    for p in &a.pages {
        e.u64(p.vpage.raw());
        e.u64(p.phys_page.raw());
        e.u16(p.home.raw());
        e.u16(p.first_toucher.raw());
        e.u32(p.touches);
    }
    e.u32(a.next_slot.len() as u32);
    for slot in &a.next_slot {
        e.u64(*slot);
    }
    e.u64(a.round_robin);
    e.counter(a.stats.local_allocations);
    e.counter(a.stats.spilled_allocations);
    e.counter(a.stats.rehomed_pages);
    e.finish()
}

fn decode_alloc(payload: &[u8]) -> Result<NumaAllocatorState, SnapError> {
    let mut d = Dec::new(payload, "allocator");
    let n = d.count64(24, "page")?;
    let mut pages = Vec::with_capacity(n);
    for _ in 0..n {
        pages.push(PageEntryState {
            vpage: PageAddr::new(d.u64()?),
            phys_page: PageAddr::new(d.u64()?),
            home: NodeId::new(d.u16()?),
            first_toucher: NodeId::new(d.u16()?),
            touches: d.u32()?,
        });
    }
    let slots = d.count32(8, "node slot")?;
    let mut next_slot = Vec::with_capacity(slots);
    for _ in 0..slots {
        next_slot.push(d.u64()?);
    }
    let round_robin = d.u64()?;
    let stats = NumaStats {
        local_allocations: d.counter()?,
        spilled_allocations: d.counter()?,
        rehomed_pages: d.counter()?,
    };
    d.done()?;
    Ok(NumaAllocatorState {
        pages,
        next_slot,
        round_robin,
        stats,
    })
}

/// The thread flags' "parked" bit: set for a core blocked at the frozen
/// point, i.e. one that neither finished nor faulted (a faulted core is
/// released once its fault is applied between the phases). Derived, not
/// stored, so a file whose bit disagrees was not written by the kernel.
fn parked(finished: bool, faulted: bool) -> bool {
    !finished && !faulted
}

fn encode_threads(threads: &[ThreadState]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(threads.len() as u32);
    for t in threads {
        e.u32(t.thread as u32);
        e.u16(t.core.raw());
        e.u64(t.clock.as_u64());
        let mut flags = 0u8;
        if parked(t.finished, t.faulted) {
            flags |= 1;
        }
        if t.finished {
            flags |= 2;
        }
        if t.faulted {
            flags |= 4;
        }
        e.u8(flags);
        e.u64(t.cursor as u64);
        e.u32(t.seq);
        e.u32(t.window.len() as u32);
        for p in &t.window {
            e.u64(p.key.time.as_u64());
            e.u32(p.key.actor);
            e.u32(p.key.seq);
            e.u64(p.line.raw());
        }
    }
    e.finish()
}

fn decode_threads(payload: &[u8]) -> Result<Vec<ThreadState>, SnapError> {
    let mut d = Dec::new(payload, "cores");
    let n = d.count32(27, "thread")?;
    let mut threads = Vec::with_capacity(n);
    for _ in 0..n {
        let thread = d.u32()? as usize;
        let core = CoreId::new(d.u16()?);
        let clock = d.nanos()?;
        let flags = d.u8()?;
        let (finished, faulted) = (flags & 2 != 0, flags & 4 != 0);
        if flags & !0b111 != 0 || (flags & 1 != 0) != parked(finished, faulted) {
            return Err(d.err(format!("invalid thread flags {flags:#x}")));
        }
        let cursor = d.u64()? as usize;
        let seq = d.u32()?;
        let depth = d.count32(24, "window entry")?;
        let mut window = Vec::with_capacity(depth);
        for _ in 0..depth {
            let time = d.nanos()?;
            let actor = d.u32()?;
            let wseq = d.u32()?;
            let key = MergeKey::new(time, actor, wseq);
            // Replies commit front to back, in issue order.
            if window.last().is_some_and(|p: &Pending| p.key >= key) {
                return Err(d.err(format!("thread {thread}'s window is out of issue order")));
            }
            let line = LineAddr::new(d.u64()?);
            window.push(Pending { key, line });
        }
        threads.push(ThreadState {
            thread,
            core,
            clock,
            finished,
            faulted,
            cursor,
            seq,
            window,
        });
    }
    d.done()?;
    Ok(threads)
}

fn encode_replies(replies: &[CoherenceReply]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(replies.len() as u32);
    for r in replies {
        e.u16(r.core.raw());
        e.u64(r.key.time.as_u64());
        e.u32(r.key.actor);
        e.u32(r.key.seq);
        e.u64(r.latency.as_u64());
        e.u8(encode_coherence_state(r.fill_state));
        e.u8(u8::from(r.carries_data));
    }
    e.finish()
}

fn decode_replies(payload: &[u8]) -> Result<Vec<CoherenceReply>, SnapError> {
    let mut d = Dec::new(payload, "replies");
    let n = d.count32(28, "reply")?;
    let mut replies = Vec::with_capacity(n);
    for _ in 0..n {
        let core = CoreId::new(d.u16()?);
        let time = d.nanos()?;
        let actor = d.u32()?;
        let seq = d.u32()?;
        let latency = d.nanos()?;
        let fill_state = decode_coherence_state(&mut d)?;
        let carries_data = match d.u8()? {
            0 => false,
            1 => true,
            other => return Err(d.err(format!("invalid carries_data flag {other}"))),
        };
        replies.push(CoherenceReply {
            core,
            key: MergeKey::new(time, actor, seq),
            latency,
            fill_state,
            carries_data,
        });
    }
    d.done()?;
    Ok(replies)
}

fn encode_kernel(state: &KernelState) -> Vec<u8> {
    let mut e = Enc::new();
    // The message-class count pins the NoC array layout; a build with a
    // different class set must refuse the section rather than misalign.
    e.u32(MessageClass::ALL.len() as u32);
    let totals = &state.totals;
    e.u64(state.round_horizon.as_u64());
    e.u64(totals.accesses);
    e.u64(totals.rounds);
    e.u64(totals.events_merged);
    e.u64(u64::from(totals.max_window));
    e.u64(totals.dram_reads);
    e.u64(totals.dram_writes);
    let noc = totals.noc.export_counts();
    for i in 0..MessageClass::ALL.len() {
        e.u64(noc.messages[i]);
        e.u64(noc.bytes[i]);
        e.u64(noc.hops[i]);
    }
    e.u64(noc.flit_hops);
    e.u64(noc.local_deliveries);
    e.finish()
}

fn decode_kernel(payload: &[u8]) -> Result<(Nanos, Totals), SnapError> {
    let mut d = Dec::new(payload, "kernel");
    let classes = d.u32()? as usize;
    if classes != MessageClass::ALL.len() {
        return Err(d.err(format!(
            "{classes} message classes but this build has {}",
            MessageClass::ALL.len()
        )));
    }
    let round_horizon = d.nanos()?;
    let accesses = d.u64()?;
    let rounds = d.u64()?;
    let events_merged = d.u64()?;
    let max_window = u32::try_from(d.u64()?).map_err(|_| d.err("max window depth overflows"))?;
    let dram_reads = d.u64()?;
    let dram_writes = d.u64()?;
    let mut noc = NocStatsExport {
        messages: [0; MessageClass::ALL.len()],
        bytes: [0; MessageClass::ALL.len()],
        hops: [0; MessageClass::ALL.len()],
        flit_hops: 0,
        local_deliveries: 0,
    };
    for i in 0..MessageClass::ALL.len() {
        noc.messages[i] = d.u64()?;
        noc.bytes[i] = d.u64()?;
        noc.hops[i] = d.u64()?;
    }
    noc.flit_hops = d.u64()?;
    noc.local_deliveries = d.u64()?;
    d.done()?;
    let totals = Totals {
        accesses,
        rounds,
        events_merged,
        max_window,
        noc: NocStats::import_counts(&noc),
        dram_reads,
        dram_writes,
    };
    Ok((round_horizon, totals))
}
