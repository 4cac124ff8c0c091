//! Versioned on-disk trace files: capture and replay of memory-reference
//! streams.
//!
//! The paper's experiments replay address streams; this module lets those
//! streams come from *files* instead of the synthetic [`crate::TraceGenerator`],
//! so real captured traces (or adversarial hand-written ones) can drive the
//! coherence substrate through [`crate::WorkloadSpec::TraceFile`].
//!
//! Three codecs share one logical model (a [`TraceHeader`] plus per-thread
//! access streams):
//!
//! * **Text** (`allarm-trace v1 text`) — human-writable. A header of
//!   directive lines, then one `core r|w hexaddr` record per line. Blank
//!   lines and `#` comments are ignored after the magic line. The
//!   `checksum` directive is optional, so a hand-written trace does not
//!   need to pre-compute it (a present checksum is always verified).
//! * **Binary** (magic `ALLARMTR`, version 1) — compact. After the header,
//!   each thread's addresses are delta-encoded against the previous
//!   address and written as LEB128 varints with the read/write flag folded
//!   into the low bit, so sequential scans cost ~2 bytes per reference.
//!   The checksum is mandatory.
//! * **Binary v2** (same magic, version 2) — keeps the v1 record encoding
//!   but chunks each thread's stream into fixed-count **frames** and
//!   appends a seekable frame directory:
//!
//! ```text
//! front header (v1 fields + frame_len varint)
//! thread 0 frame 0 | thread 0 frame 1 | … | thread N frame M   (body)
//! directory: per thread, per frame {byte_len, records, first_vaddr, fnv64}
//! trailer: directory offset (u64 LE) + directory fnv64 (u64 LE) + "ALLARMIX"
//! ```
//!
//! Each frame restarts its delta chain from address zero, so any frame can
//! be decoded knowing only its bytes — which is what lets [`TraceSource`] /
//! [`FrameFeed`] replay a multi-hundred-million-access trace with one
//! frame of memory per thread, `trace_tool seek` jump mid-trace, and
//! snapshot restore reopen a trace at an arbitrary cursor.
//!
//! Text and v1 bodies decode in one sequential pass over any reader
//! ([`parse_trace`]). A v2 body has exactly one decoder, [`FrameFeed`]:
//! streaming replay pulls frames through it, and [`read_workload`]
//! materializes a v2 file by walking every thread through it, so each
//! frame is checked against its directory entry on either path.
//!
//! All headers carry the thread count, per-thread core pinning and access
//! counts, and (binary always, text optionally) a checksum of the decoded
//! stream — so [`read_header`] answers "how many cores does this trace
//! need, and is it the file I recorded?" without decoding the body (for v2,
//! without even touching the frame directory).
//!
//! The checksum is [`Workload::checksum`]: identical whether the workload
//! was generated in-process or round-tripped through any file format,
//! which is what lets a replayed trace's simulation report be byte-identical
//! to the direct run's.
//!
//! # Examples
//!
//! ```
//! use allarm_workloads::{Benchmark, TraceGenerator};
//! use allarm_workloads::tracefile::{self, TraceFormat};
//!
//! let workload = TraceGenerator::new(2, 100, 7).generate(Benchmark::Barnes);
//! let mut buf = Vec::new();
//! tracefile::write_trace(&mut buf, &workload, TraceFormat::Binary).unwrap();
//! let (header, replayed) = tracefile::parse_trace(&buf[..]).unwrap();
//! assert_eq!(replayed, workload);
//! assert_eq!(header.checksum, Some(workload.checksum()));
//! ```

use crate::trace::{fnv1a, ChecksumStream, MemAccess, ThreadTrace, Workload, FNV1A_OFFSET};
use allarm_types::ids::{CoreId, ThreadId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The unframed trace-file format version (text and v1 binary).
pub const TRACE_VERSION: u16 = 1;

/// The frame-chunked binary container version.
pub const TRACE_VERSION_V2: u16 = 2;

/// Records per frame a v2 writer uses unless told otherwise (~128 KiB of
/// encoded stream at the typical ~2 bytes/record).
pub const DEFAULT_FRAME_LEN: u64 = 1 << 16;

/// Magic bytes opening a binary trace file.
const BINARY_MAGIC: &[u8; 8] = b"ALLARMTR";

/// Magic bytes closing a v2 file (the fixed-size trailer ends with them,
/// so a truncated file is detectable before the directory is trusted).
const V2_TAIL_MAGIC: &[u8; 8] = b"ALLARMIX";

/// Size of the v2 trailer: directory offset + directory checksum + magic.
const V2_TRAILER_BYTES: u64 = 24;

/// Magic line opening a text trace file (its first 8 bytes are the sniff
/// key, so it must stay the very first line).
const TEXT_MAGIC: &str = "allarm-trace v1 text";

/// Caps on header fields while parsing untrusted files, so a corrupt
/// header cannot demand absurd allocations before the error surfaces.
const MAX_NAME_BYTES: u64 = 4096;
const MAX_THREADS: u64 = u16::MAX as u64 + 1;

/// The on-disk encoding of a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceFormat {
    /// Human-writable `core r|w hexaddr` lines.
    Text,
    /// Delta/varint-packed per-thread streams.
    Binary,
    /// Frame-chunked delta/varint streams with a seekable directory; the
    /// only format [`TraceSource`] can stream-replay with bounded memory.
    BinaryV2,
}

impl TraceFormat {
    /// Lower-case name, used in messages and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Text => "text",
            TraceFormat::Binary => "binary",
            TraceFormat::BinaryV2 => "binary-v2",
        }
    }

    /// Parses a CLI-style name (`"text"` / `"binary"` / `"binary-v2"`,
    /// case-insensitive; `"v2"` is accepted as shorthand).
    pub fn from_cli_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "text" => Some(TraceFormat::Text),
            "binary" => Some(TraceFormat::Binary),
            "binary-v2" | "binaryv2" | "v2" => Some(TraceFormat::BinaryV2),
            _ => None,
        }
    }

    /// True for the frame-chunked container, the one format that supports
    /// bounded-memory streaming replay and mid-trace seeks. (Every format
    /// supports prefix truncation; the others are truncated in memory.)
    pub fn is_streamable(self) -> bool {
        self == TraceFormat::BinaryV2
    }
}

/// One thread declared by a trace header: its identity, core pinning and
/// access count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceThread {
    /// The software thread's identity.
    pub thread: ThreadId,
    /// The core the thread is pinned to (distinct per thread).
    pub core: CoreId,
    /// Number of references this thread's stream holds.
    pub accesses: u64,
}

/// Everything a trace file declares ahead of its body. Enough to validate
/// a scenario (machine size, expected volume) without decoding a single
/// record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// The encoding the file uses.
    pub format: TraceFormat,
    /// Format version (currently always [`TRACE_VERSION`]).
    pub version: u16,
    /// Workload name, propagated into [`Workload::name`] and reports.
    pub name: String,
    /// Declared threads, in body order.
    pub threads: Vec<TraceThread>,
    /// [`Workload::checksum`] of the decoded stream. Always present in
    /// binary files; optional in (hand-written) text files.
    pub checksum: Option<u64>,
    /// Records per frame for the v2 container; `0` for unframed formats.
    pub frame_len: u64,
}

impl TraceHeader {
    /// The highest pinned core index plus one — the minimum machine size
    /// able to replay this trace.
    pub fn cores_required(&self) -> usize {
        self.threads
            .iter()
            .map(|t| t.core.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Total references across all threads.
    pub fn total_accesses(&self) -> u64 {
        self.threads.iter().map(|t| t.accesses).sum()
    }

    /// The largest single thread's reference count (the per-thread "trace
    /// length" in the sense of generated workloads).
    pub fn max_thread_accesses(&self) -> u64 {
        self.threads.iter().map(|t| t.accesses).max().unwrap_or(0)
    }

    /// Structural validation: at least one thread, and no duplicated
    /// thread ids or cores (text records are attributed by core, so a
    /// shared core would be ambiguous).
    fn validate(&self) -> Result<(), TraceError> {
        if self.threads.is_empty() {
            return Err(TraceError::new("header declares no threads"));
        }
        let mut cores: Vec<CoreId> = self.threads.iter().map(|t| t.core).collect();
        cores.sort_unstable();
        if cores.windows(2).any(|w| w[0] == w[1]) {
            return Err(TraceError::new("header pins two threads to one core"));
        }
        let mut ids: Vec<ThreadId> = self.threads.iter().map(|t| t.thread).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(TraceError::new("header declares a thread id twice"));
        }
        if self.format == TraceFormat::BinaryV2 && self.frame_len == 0 {
            return Err(TraceError::new("v2 header declares a zero frame length"));
        }
        Ok(())
    }
}

/// A malformed, truncated or checksum-failing trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    msg: String,
    /// 1-based text line the error was found on, when known.
    line: Option<usize>,
}

impl TraceError {
    fn new(msg: impl Into<String>) -> Self {
        TraceError {
            msg: msg.into(),
            line: None,
        }
    }

    fn at_line(msg: impl Into<String>, line: usize) -> Self {
        TraceError {
            msg: msg.into(),
            line: Some(line),
        }
    }

    /// The error description (without the line prefix).
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::new(format!("i/o error: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Reads and validates just the header of a trace file, sniffing the
/// format from the magic bytes. The body is not decoded (for text files,
/// not even read).
///
/// # Errors
///
/// Returns a [`TraceError`] for unreadable files, unknown magic,
/// unsupported versions, or structurally invalid headers.
pub fn read_header(path: impl AsRef<Path>) -> Result<TraceHeader, TraceError> {
    let file = std::fs::File::open(path)?;
    parse_inner(file, false).map(|(header, _)| header)
}

/// Reads, decodes and verifies a whole trace file, sniffing the format.
/// Text and v1 bodies go through [`parse_trace`]; a v2 body is decoded
/// thread by thread through [`TraceSource`] and [`FrameFeed::try_get`],
/// the decoder streaming replay uses. The decoded stream's
/// [`Workload::checksum`] is verified against the header's (when the
/// header carries one) and the per-thread counts are verified against the
/// body.
///
/// # Errors
///
/// Returns a [`TraceError`] for anything [`read_header`] rejects, plus
/// truncated or overlong bodies, malformed records, and checksum
/// mismatches (for v2, anything [`TraceSource::open`] or a frame load
/// rejects).
pub fn read_workload(path: impl AsRef<Path>) -> Result<(TraceHeader, Workload), TraceError> {
    let path = path.as_ref();
    if read_header(path)?.format != TraceFormat::BinaryV2 {
        return parse_trace(std::fs::File::open(path)?);
    }
    let source = TraceSource::open(path)?;
    let workload = source.decode()?;
    verified(source.header, workload)
}

/// [`read_workload`] over any reader, for the formats that decode in one
/// sequential pass: text and v1 binary (used by tests and in-memory
/// round-trips). A v2 body is only decoded through its frame directory,
/// which needs a file: given v2 bytes this returns an error naming
/// [`read_workload`].
///
/// # Errors
///
/// Same conditions as [`read_workload`], plus any v2 input.
pub fn parse_trace(reader: impl Read) -> Result<(TraceHeader, Workload), TraceError> {
    let (header, workload) = parse_inner(reader, true)?;
    verified(
        header,
        workload.expect("decode_body = true always yields a workload"),
    )
}

/// Checks a decoded workload against its header's checksum, if any.
fn verified(
    header: TraceHeader,
    workload: Workload,
) -> Result<(TraceHeader, Workload), TraceError> {
    if let Some(expected) = header.checksum {
        let actual = workload.checksum();
        if actual != expected {
            return Err(TraceError::new(format!(
                "checksum mismatch: header says {expected:016x}, body decodes to {actual:016x}"
            )));
        }
    }
    Ok((header, workload))
}

/// Shared reader core: sniffs the format from the first (up to) 8 bytes,
/// then parses the header and — with `decode_body` — the body. Collecting
/// the sniff prefix with a `read` loop (instead of trusting one `fill_buf`
/// call to return 8 bytes) keeps arbitrary readers — pipes, chained
/// readers — correct; for text input the prefix is chained back in front
/// of the reader.
fn parse_inner(
    mut reader: impl Read,
    decode_body: bool,
) -> Result<(TraceHeader, Option<Workload>), TraceError> {
    let mut prefix = [0u8; 8];
    let mut got = 0;
    while got < prefix.len() {
        let n = reader.read(&mut prefix[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    if got == prefix.len() && &prefix == BINARY_MAGIC {
        let mut reader = BufReader::new(reader);
        let header = read_binary_header(&mut reader)?;
        let workload = match (decode_body, header.format) {
            (false, _) => None,
            (true, TraceFormat::BinaryV2) => {
                return Err(TraceError::new(
                    "a binary-v2 body decodes through its frame directory, which needs \
                     a file — read it with `read_workload`",
                ))
            }
            (true, _) => Some(read_binary_body(&mut reader, &header)?),
        };
        return Ok((header, workload));
    }
    if got > 0 && prefix[..got] == TEXT_MAGIC.as_bytes()[..got.min(prefix.len())] {
        let mut reader = BufReader::new(std::io::Cursor::new(prefix[..got].to_vec()).chain(reader));
        let (header, next_line) = read_text_header(&mut reader)?;
        let workload = if decode_body {
            Some(read_text_body(&mut reader, &header, next_line)?)
        } else {
            None
        };
        return Ok((header, workload));
    }
    Err(TraceError::new(
        "not an ALLARM trace file (expected the `ALLARMTR` binary magic or an \
         `allarm-trace v1 text` first line)",
    ))
}

// -- text ------------------------------------------------------------------

/// Parses the text header: the magic line, then `name` / `thread` /
/// `checksum` directives up to the first record line. Returns the header
/// and the first record line (with its 1-based number), which the body
/// parser must not lose.
#[allow(clippy::type_complexity)]
fn read_text_header(
    reader: &mut BufReader<impl Read>,
) -> Result<(TraceHeader, Option<(usize, String)>), TraceError> {
    let mut lines = reader.lines().enumerate();
    let magic = match lines.next() {
        Some((_, Ok(line))) => line,
        Some((_, Err(e))) => return Err(e.into()),
        None => return Err(TraceError::new("empty trace file")),
    };
    if magic.trim_end() != TEXT_MAGIC {
        return Err(TraceError::at_line(
            format!(
                "bad magic line `{}` (expected `{TEXT_MAGIC}`)",
                magic.trim_end()
            ),
            1,
        ));
    }

    let mut name: Option<String> = None;
    let mut threads = Vec::new();
    let mut checksum: Option<u64> = None;
    let mut first_record: Option<(usize, String)> = None;
    for (index, line) in lines {
        let line = line?;
        let lineno = index + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut words = trimmed.split_whitespace();
        match words.next() {
            Some("name") => {
                let rest = trimmed["name".len()..].trim();
                if rest.is_empty() {
                    return Err(TraceError::at_line(
                        "`name` directive needs a value",
                        lineno,
                    ));
                }
                name = Some(rest.to_string());
            }
            Some("thread") => {
                let spec: Vec<&str> = words.collect();
                let parsed = match spec.as_slice() {
                    [t, "core", c, "accesses", n] => {
                        match (t.parse::<u16>(), c.parse::<u16>(), n.parse::<u64>()) {
                            (Ok(t), Ok(c), Ok(n)) => Some(TraceThread {
                                thread: ThreadId::new(t),
                                core: CoreId::new(c),
                                accesses: n,
                            }),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                match parsed {
                    Some(t) => threads.push(t),
                    None => {
                        return Err(TraceError::at_line(
                            "malformed `thread` directive (expected \
                             `thread <id> core <core> accesses <count>`)",
                            lineno,
                        ))
                    }
                }
            }
            Some("checksum") => {
                let value = words.next().and_then(|v| u64::from_str_radix(v, 16).ok());
                match value {
                    Some(v) => checksum = Some(v),
                    None => {
                        return Err(TraceError::at_line(
                            "malformed `checksum` directive (expected 16 hex digits)",
                            lineno,
                        ))
                    }
                }
            }
            Some(word) if word.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
                first_record = Some((lineno, line));
                break;
            }
            Some(word) => {
                return Err(TraceError::at_line(
                    format!("unknown header directive `{word}`"),
                    lineno,
                ))
            }
            None => unreachable!("non-empty trimmed line has a first word"),
        }
    }

    let header = TraceHeader {
        format: TraceFormat::Text,
        version: TRACE_VERSION,
        name: name.ok_or_else(|| TraceError::new("header is missing the `name` directive"))?,
        threads,
        checksum,
        frame_len: 0,
    };
    header.validate()?;
    Ok((header, first_record))
}

/// Parses `core r|w hexaddr` record lines into per-thread traces, checking
/// the final counts against the header.
fn read_text_body(
    reader: &mut BufReader<impl Read>,
    header: &TraceHeader,
    first_record: Option<(usize, String)>,
) -> Result<Workload, TraceError> {
    let mut traces: Vec<ThreadTrace> = header
        .threads
        .iter()
        .map(|t| ThreadTrace {
            thread: t.thread,
            core: t.core,
            accesses: Vec::with_capacity(usize::try_from(t.accesses).unwrap_or(0).min(1 << 20)),
        })
        .collect();
    let by_core: HashMap<CoreId, usize> = header
        .threads
        .iter()
        .enumerate()
        .map(|(i, t)| (t.core, i))
        .collect();

    let first_lineno = first_record.as_ref().map_or(0, |(n, _)| *n);
    let head = first_record.map(|(_, line)| Ok(line));
    for (offset, line) in head.into_iter().chain(reader.lines()).enumerate() {
        let line = line?;
        let lineno = first_lineno + offset;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut words = trimmed.split_whitespace();
        let core = words.next().and_then(|w| w.parse::<u16>().ok());
        let write = match words.next() {
            Some("r") => Some(false),
            Some("w") => Some(true),
            _ => None,
        };
        let addr = words.next().and_then(|w| {
            let w = w.strip_prefix("0x").unwrap_or(w);
            u64::from_str_radix(w, 16).ok()
        });
        let (Some(core), Some(write), Some(addr), None) = (core, write, addr, words.next()) else {
            return Err(TraceError::at_line(
                format!("malformed record `{trimmed}` (expected `<core> r|w <hexaddr>`)"),
                lineno,
            ));
        };
        let Some(&slot) = by_core.get(&CoreId::new(core)) else {
            return Err(TraceError::at_line(
                format!("record names core {core}, which no header thread is pinned to"),
                lineno,
            ));
        };
        traces[slot].accesses.push(MemAccess {
            vaddr: allarm_types::addr::VirtAddr::new(addr),
            write,
        });
    }

    for (trace, declared) in traces.iter().zip(&header.threads) {
        if trace.accesses.len() as u64 != declared.accesses {
            return Err(TraceError::new(format!(
                "thread {} declares {} accesses but the body holds {} — truncated \
                 or miscounted trace",
                declared.thread.raw(),
                declared.accesses,
                trace.accesses.len()
            )));
        }
    }
    Ok(Workload {
        name: header.name.clone(),
        threads: traces,
    })
}

// -- binary ----------------------------------------------------------------

/// Parses the binary header, v1 or v2 (the magic is already consumed by
/// the sniff).
fn read_binary_header(reader: &mut impl Read) -> Result<TraceHeader, TraceError> {
    let version = u16::from_le_bytes(read_array(reader, "version")?);
    if version != TRACE_VERSION && version != TRACE_VERSION_V2 {
        return Err(TraceError::new(format!(
            "unsupported trace version {version} (this build reads v{TRACE_VERSION} \
             and v{TRACE_VERSION_V2})"
        )));
    }
    let name_len = read_varint(reader, "name length")?;
    if name_len > MAX_NAME_BYTES {
        return Err(TraceError::new(format!(
            "name length {name_len} exceeds the {MAX_NAME_BYTES}-byte cap — corrupt header?"
        )));
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    reader
        .read_exact(&mut name_bytes)
        .map_err(|_| TraceError::new("truncated header: name cut short"))?;
    let name = String::from_utf8(name_bytes)
        .map_err(|_| TraceError::new("workload name is not valid UTF-8"))?;

    let thread_count = read_varint(reader, "thread count")?;
    if thread_count > MAX_THREADS {
        return Err(TraceError::new(format!(
            "thread count {thread_count} exceeds the {MAX_THREADS} cap — corrupt header?"
        )));
    }
    let mut threads = Vec::with_capacity(thread_count as usize);
    for _ in 0..thread_count {
        let thread = read_varint(reader, "thread id")?;
        let core = read_varint(reader, "core id")?;
        let accesses = read_varint(reader, "access count")?;
        let (Ok(thread), Ok(core)) = (u16::try_from(thread), u16::try_from(core)) else {
            return Err(TraceError::new(
                "thread or core id out of the u16 range — corrupt header?",
            ));
        };
        threads.push(TraceThread {
            thread: ThreadId::new(thread),
            core: CoreId::new(core),
            accesses,
        });
    }
    let checksum = u64::from_le_bytes(read_array(reader, "checksum")?);
    let frame_len = if version == TRACE_VERSION_V2 {
        read_varint(reader, "frame length")?
    } else {
        0
    };
    let header = TraceHeader {
        format: if version == TRACE_VERSION_V2 {
            TraceFormat::BinaryV2
        } else {
            TraceFormat::Binary
        },
        version,
        name,
        threads,
        checksum: Some(checksum),
        frame_len,
    };
    header.validate()?;
    Ok(header)
}

/// Decodes one delta/varint record, advancing the delta chain in `addr`.
fn decode_record(reader: &mut impl Read, addr: &mut u64) -> Result<MemAccess, TraceError> {
    let packed = read_varint_wide(reader, "trace record")?;
    let write = (packed & 1) == 1;
    let zigzagged = (packed >> 1) as u64;
    let delta = ((zigzagged >> 1) as i64) ^ -((zigzagged & 1) as i64);
    *addr = addr.wrapping_add(delta as u64);
    Ok(MemAccess {
        vaddr: allarm_types::addr::VirtAddr::new(*addr),
        write,
    })
}

/// Decodes the per-thread delta/varint streams declared by `header`.
fn read_binary_body(reader: &mut impl Read, header: &TraceHeader) -> Result<Workload, TraceError> {
    let mut traces = Vec::with_capacity(header.threads.len());
    for declared in &header.threads {
        let mut accesses =
            Vec::with_capacity(usize::try_from(declared.accesses).unwrap_or(0).min(1 << 20));
        let mut addr: u64 = 0;
        for _ in 0..declared.accesses {
            accesses.push(decode_record(reader, &mut addr)?);
        }
        traces.push(ThreadTrace {
            thread: declared.thread,
            core: declared.core,
            accesses,
        });
    }
    let mut trailing = [0u8; 1];
    if reader.read(&mut trailing)? != 0 {
        return Err(TraceError::new(
            "trailing bytes after the last declared record — header/body mismatch",
        ));
    }
    Ok(Workload {
        name: header.name.clone(),
        threads: traces,
    })
}

fn read_array<const N: usize>(reader: &mut impl Read, what: &str) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    reader
        .read_exact(&mut buf)
        .map_err(|_| TraceError::new(format!("truncated trace: {what} cut short")))?;
    Ok(buf)
}

/// Reads one LEB128 varint that must fit a `u64` (header fields).
fn read_varint(reader: &mut impl Read, what: &str) -> Result<u64, TraceError> {
    let wide = read_varint_wide(reader, what)?;
    u64::try_from(wide).map_err(|_| TraceError::new(format!("{what} overflows 64 bits")))
}

/// Reads one LEB128 varint up to 128 bits (trace records carry a zigzagged
/// 64-bit delta plus a flag bit, which can need 66 bits).
fn read_varint_wide(reader: &mut impl Read, what: &str) -> Result<u128, TraceError> {
    let mut value: u128 = 0;
    let mut shift = 0u32;
    loop {
        let [byte] = read_array::<1>(reader, what)?;
        if shift >= 128 - 7 && (byte >> (128 - shift)) != 0 {
            return Err(TraceError::new(format!("{what} varint overflows 128 bits")));
        }
        value |= u128::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift >= 128 {
            return Err(TraceError::new(format!("{what} varint is too long")));
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming (v2)
// ---------------------------------------------------------------------------

/// One frame's directory entry: where it lives, what it holds, and the
/// FNV-1a checksum of its encoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Absolute byte offset of the frame in the file.
    pub offset: u64,
    /// Encoded length in bytes.
    pub bytes: u64,
    /// Records the frame decodes to (`frame_len`, short for the last frame
    /// of a thread).
    pub records: u64,
    /// The first decoded address — directory metadata for `trace_tool
    /// seek`/`info`, verified against the decode on every frame load.
    pub first_vaddr: u64,
    /// FNV-1a of the encoded frame bytes.
    pub checksum: u64,
}

/// An opened v2 trace file: the front header plus the verified frame
/// directory, with the body left on disk. [`TraceSource::open_thread`]
/// hands out [`FrameFeed`]s that decode one frame at a time, so a
/// multi-hundred-million-access trace replays in bounded memory.
///
/// An optional per-thread record `limit` (the `--accesses` override /
/// [`crate::WorkloadSpec::TraceFile`] `limit` field) truncates every
/// thread's stream to a prefix; the effective [`TraceSource::checksum`] is
/// then recomputed over the prefix — frame by frame, never materializing —
/// so a truncated replay still reports a verifiable checksum.
#[derive(Debug)]
pub struct TraceSource {
    path: PathBuf,
    header: TraceHeader,
    frames: Vec<Vec<FrameMeta>>,
    limits: Vec<u64>,
    checksum: u64,
}

impl TraceSource {
    /// Opens a v2 trace for streaming replay: parses the front header,
    /// verifies the trailer and frame directory (offsets, counts,
    /// checksum), and leaves the body untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] for unreadable files, non-v2 formats, and
    /// any structural or checksum inconsistency in the directory.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::open_with_limit(path, 0)
    }

    /// [`TraceSource::open`] with a per-thread record cap (`0` = no cap).
    /// Every thread's stream is truncated to its first `limit` records and
    /// the effective checksum is recomputed over the prefix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceSource::open`].
    pub fn open_with_limit(path: impl AsRef<Path>, limit: u64) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let mut file = BufReader::new(std::fs::File::open(&path)?);
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)
            .map_err(|_| TraceError::new("truncated trace: magic cut short"))?;
        if &magic != BINARY_MAGIC {
            return Err(TraceError::new(format!(
                "`{}` is not a binary ALLARM trace — streaming replay needs the \
                 frame-chunked v2 container",
                path.display()
            )));
        }
        let header = read_binary_header(&mut file)?;
        if header.format != TraceFormat::BinaryV2 {
            return Err(TraceError::new(format!(
                "`{}` is a v1 binary trace; streaming replay needs the frame-chunked v2 \
                 container (re-record with `--format binary-v2` or run `trace_tool convert`)",
                path.display()
            )));
        }
        let body_start = file.stream_position()?;

        let file_len = file.get_ref().metadata()?.len();
        if file_len < body_start + V2_TRAILER_BYTES {
            return Err(TraceError::new(
                "truncated trace: no room for the v2 trailer",
            ));
        }
        file.seek(SeekFrom::End(-(V2_TRAILER_BYTES as i64)))?;
        let mut trailer = [0u8; V2_TRAILER_BYTES as usize];
        file.read_exact(&mut trailer)
            .map_err(|_| TraceError::new("truncated trace: trailer cut short"))?;
        let dir_offset = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
        let dir_checksum = u64::from_le_bytes(trailer[8..16].try_into().expect("8 bytes"));
        if &trailer[16..24] != V2_TAIL_MAGIC {
            return Err(TraceError::new(
                "missing the v2 tail magic — truncated or corrupt trace",
            ));
        }
        if dir_offset < body_start || dir_offset > file_len - V2_TRAILER_BYTES {
            return Err(TraceError::new(format!(
                "trailer points the frame directory at byte {dir_offset}, outside the \
                 body — corrupt trace"
            )));
        }

        file.seek(SeekFrom::Start(dir_offset))?;
        let mut dirbuf = vec![0u8; (file_len - V2_TRAILER_BYTES - dir_offset) as usize];
        file.read_exact(&mut dirbuf)
            .map_err(|_| TraceError::new("truncated trace: frame directory cut short"))?;
        if fnv1a(FNV1A_OFFSET, &dirbuf) != dir_checksum {
            return Err(TraceError::new(
                "frame directory checksum mismatch — corrupt trace",
            ));
        }

        let mut cursor: &[u8] = &dirbuf;
        let mut offset = body_start;
        let mut frames = Vec::with_capacity(header.threads.len());
        for declared in &header.threads {
            let count = read_varint(&mut cursor, "frame count")?;
            let expected = declared.accesses.div_ceil(header.frame_len);
            if count != expected {
                return Err(TraceError::new(format!(
                    "directory declares {count} frame(s) for thread {} but the header's \
                     {} accesses need {expected}",
                    declared.thread.raw(),
                    declared.accesses
                )));
            }
            // Every entry takes directory bytes, so a corrupt count cannot
            // size the allocation beyond the directory itself.
            let mut entries = Vec::with_capacity(count.min(cursor.len() as u64) as usize);
            let mut remaining = declared.accesses;
            for index in 0..count {
                let bytes = read_varint(&mut cursor, "frame byte length")?;
                let records = read_varint(&mut cursor, "frame record count")?;
                let first_vaddr = read_varint(&mut cursor, "frame first address")?;
                let checksum = u64::from_le_bytes(read_array(&mut cursor, "frame checksum")?);
                let expected_records = remaining.min(header.frame_len);
                if records != expected_records {
                    return Err(TraceError::new(format!(
                        "frame {index} of thread {} declares {records} record(s), \
                         expected {expected_records}",
                        declared.thread.raw()
                    )));
                }
                // A record encodes to 1 to 10 varint bytes, so this rejects
                // absurd lengths before any frame is loaded — and, since the
                // frames' bytes must fit the file, caps every frame's decode
                // buffer at the file's size.
                if records > bytes || bytes > records.saturating_mul(10) {
                    return Err(TraceError::new(format!(
                        "frame {index} of thread {} declares an impossible byte length \
                         {bytes} for {records} record(s)",
                        declared.thread.raw()
                    )));
                }
                entries.push(FrameMeta {
                    offset,
                    bytes,
                    records,
                    first_vaddr,
                    checksum,
                });
                offset += bytes;
                remaining -= records;
            }
            frames.push(entries);
        }
        if !cursor.is_empty() {
            return Err(TraceError::new(
                "trailing bytes in the frame directory — corrupt trace",
            ));
        }
        if offset != dir_offset {
            return Err(TraceError::new(format!(
                "frame byte lengths end at {offset} but the directory starts at \
                 {dir_offset} — corrupt trace"
            )));
        }

        let limits: Vec<u64> = header
            .threads
            .iter()
            .map(|t| {
                if limit == 0 {
                    t.accesses
                } else {
                    t.accesses.min(limit)
                }
            })
            .collect();
        let truncated = limits
            .iter()
            .zip(&header.threads)
            .any(|(l, t)| *l < t.accesses);
        let mut source = TraceSource {
            path,
            header,
            frames,
            limits,
            checksum: 0,
        };
        source.checksum = if truncated {
            source.prefix_checksum()?
        } else {
            source
                .header
                .checksum
                .expect("binary headers always carry a checksum")
        };
        Ok(source)
    }

    /// The file this source streams from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The parsed front header (full recorded counts, not the truncated
    /// effective ones — see [`TraceSource::threads`]).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Records per frame.
    pub fn frame_len(&self) -> u64 {
        self.header.frame_len
    }

    /// The recorded workload name.
    pub fn name(&self) -> &str {
        &self.header.name
    }

    /// The effective [`Workload::checksum`]: the header's for a full
    /// replay, recomputed over the prefix when a limit truncates it.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// The effective thread set: recorded identity and pinning with the
    /// per-thread limit applied to the access counts.
    pub fn threads(&self) -> Vec<TraceThread> {
        self.header
            .threads
            .iter()
            .zip(&self.limits)
            .map(|(t, &accesses)| TraceThread {
                thread: t.thread,
                core: t.core,
                accesses,
            })
            .collect()
    }

    /// Total effective references across all threads.
    pub fn total_accesses(&self) -> u64 {
        self.limits.iter().sum()
    }

    /// Minimum machine size able to replay this trace.
    pub fn cores_required(&self) -> usize {
        self.header.cores_required()
    }

    /// True when a record limit truncates at least one thread's stream.
    pub fn is_truncated(&self) -> bool {
        self.limits
            .iter()
            .zip(&self.header.threads)
            .any(|(l, t)| *l < t.accesses)
    }

    /// The verified frame directory of one thread (by header index).
    pub fn frames(&self, thread: usize) -> &[FrameMeta] {
        &self.frames[thread]
    }

    /// Opens an independent streaming cursor over one thread (by header
    /// index), primed at record `start` — each feed owns its own file
    /// handle, so per-shard feeds never contend.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the file cannot be reopened, `start`
    /// lies beyond the (limited) stream, or the primed frame fails its
    /// checksum.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn open_thread(&self, thread: usize, start: u64) -> Result<FrameFeed<'_>, TraceError> {
        assert!(
            thread < self.header.threads.len(),
            "thread index {thread} out of range"
        );
        let limit = self.limits[thread];
        if start > limit {
            return Err(TraceError::new(format!(
                "cannot open thread {thread} at record {start}: only {limit} record(s) \
                 are replayed"
            )));
        }
        let file = BufReader::new(std::fs::File::open(&self.path)?);
        let mut feed = FrameFeed {
            source: self,
            thread,
            file,
            limit,
            base: 0,
            buf: Vec::new(),
        };
        if start < limit {
            feed.load_frame(start / self.header.frame_len)?;
        }
        Ok(feed)
    }

    /// The truncated-prefix checksum, computed one frame at a time.
    fn prefix_checksum(&self) -> Result<u64, TraceError> {
        let mut stream = ChecksumStream::new();
        for (index, declared) in self.threads().into_iter().enumerate() {
            stream.begin_thread(declared.thread, declared.core, declared.accesses);
            self.walk_thread(index, |access| stream.access(access))?;
        }
        Ok(stream.finish())
    }

    /// Decodes every (limited) thread stream into memory — how
    /// [`read_workload`] materializes a v2 file.
    fn decode(&self) -> Result<Workload, TraceError> {
        let mut threads = Vec::with_capacity(self.limits.len());
        for (index, declared) in self.threads().into_iter().enumerate() {
            // Bounded by the file's size: `open` proved every frame holds
            // at least one byte per record.
            let mut accesses = Vec::with_capacity(usize::try_from(declared.accesses).unwrap_or(0));
            self.walk_thread(index, |access| accesses.push(access))?;
            threads.push(ThreadTrace {
                thread: declared.thread,
                core: declared.core,
                accesses,
            });
        }
        Ok(Workload {
            name: self.header.name.clone(),
            threads,
        })
    }

    /// Hands one thread's (limited) records to `visit` in order, through a
    /// [`FrameFeed`] holding one verified frame at a time.
    fn walk_thread(
        &self,
        index: usize,
        mut visit: impl FnMut(MemAccess),
    ) -> Result<(), TraceError> {
        let mut feed = self.open_thread(index, 0)?;
        for record in 0..self.limits[index] {
            visit(
                feed.try_get(record as usize)?
                    .expect("record below the limit"),
            );
        }
        Ok(())
    }
}

/// A streaming cursor over one thread of a [`TraceSource`]: holds exactly
/// one decoded frame, loading (and checksum-verifying) frames on demand as
/// the caller indexes through the stream. Indexing is random-access —
/// frame loads seek — but the simulator only ever walks forward.
#[derive(Debug)]
pub struct FrameFeed<'a> {
    source: &'a TraceSource,
    thread: usize,
    file: BufReader<std::fs::File>,
    limit: u64,
    base: usize,
    buf: Vec<MemAccess>,
}

impl FrameFeed<'_> {
    /// The record at `idx`, or `None` past the (limited) end of the
    /// stream. Mirrors `accesses.get(idx).copied()` on a materialized
    /// thread trace.
    ///
    /// # Panics
    ///
    /// Panics if a frame fails verification mid-replay (the file was
    /// validated at open, so this means on-disk corruption raced the run).
    pub fn get(&mut self, idx: usize) -> Option<MemAccess> {
        match self.try_get(idx) {
            Ok(access) => access,
            Err(e) => panic!(
                "trace `{}` thread {}: {e}",
                self.source.path.display(),
                self.thread
            ),
        }
    }

    /// [`FrameFeed::get`] surfacing frame errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the frame holding `idx` cannot be
    /// read, fails its checksum, or decodes inconsistently.
    pub fn try_get(&mut self, idx: usize) -> Result<Option<MemAccess>, TraceError> {
        if idx as u64 >= self.limit {
            return Ok(None);
        }
        if idx < self.base || idx >= self.base + self.buf.len() {
            self.load_frame(idx as u64 / self.source.header.frame_len)?;
        }
        Ok(Some(self.buf[idx - self.base]))
    }

    /// Loads and verifies one frame into the buffer.
    fn load_frame(&mut self, frame: u64) -> Result<(), TraceError> {
        let meta = *self.source.frames[self.thread]
            .get(frame as usize)
            .ok_or_else(|| TraceError::new(format!("frame {frame} out of range")))?;
        self.file.seek(SeekFrom::Start(meta.offset))?;
        let mut bytes = vec![0u8; meta.bytes as usize];
        self.file
            .read_exact(&mut bytes)
            .map_err(|_| TraceError::new(format!("frame {frame} cut short")))?;
        if fnv1a(FNV1A_OFFSET, &bytes) != meta.checksum {
            return Err(TraceError::new(format!(
                "frame {frame} failed its checksum — corrupt trace body"
            )));
        }
        let mut cursor: &[u8] = &bytes;
        let mut addr: u64 = 0;
        self.buf.clear();
        self.buf.reserve(meta.records as usize);
        for record in 0..meta.records {
            let access = decode_record(&mut cursor, &mut addr)?;
            if record == 0 && access.vaddr.raw() != meta.first_vaddr {
                return Err(TraceError::new(format!(
                    "frame {frame} decodes to first address {:#x} but the directory \
                     records {:#x}",
                    access.vaddr.raw(),
                    meta.first_vaddr
                )));
            }
            self.buf.push(access);
        }
        if !cursor.is_empty() {
            return Err(TraceError::new(format!(
                "frame {frame} holds trailing bytes past its {} record(s)",
                meta.records
            )));
        }
        self.base =
            usize::try_from(frame * self.source.header.frame_len).expect("record index fits usize");
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Header cache
// ---------------------------------------------------------------------------

/// [`read_header`] through a process-wide memo keyed by `(path, mtime,
/// len)`, so spec accessors asked repeatedly about the same trace (grid
/// expansion, validation, labelling) parse its header once. A rewritten
/// file changes its key and is re-read; errors are never cached.
///
/// # Errors
///
/// Same conditions as [`read_header`].
pub fn read_header_cached(path: impl AsRef<Path>) -> Result<TraceHeader, TraceError> {
    use std::sync::{Mutex, OnceLock};
    use std::time::SystemTime;
    type Key = (PathBuf, SystemTime, u64);
    static CACHE: OnceLock<Mutex<HashMap<Key, TraceHeader>>> = OnceLock::new();

    let path = path.as_ref();
    let meta = std::fs::metadata(path)?;
    let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
    let key = (path.to_path_buf(), modified, meta.len());
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(header) = cache.lock().expect("header cache poisoned").get(&key) {
        return Ok(header.clone());
    }
    let header = read_header(path)?;
    let mut map = cache.lock().expect("header cache poisoned");
    if map.len() >= 256 {
        map.clear();
    }
    map.insert(key, header.clone());
    Ok(header)
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Writes `workload` to `out` in the given format. The header (including
/// the [`Workload::checksum`]) is derived from the workload, so a
/// `write_trace` → [`parse_trace`] round trip reproduces the workload
/// exactly in either format.
///
/// # Errors
///
/// Returns the first I/O error, or `InvalidInput` if two threads share a
/// core (trace records are attributed by core, so the file could not be
/// decoded unambiguously).
pub fn write_trace(
    out: &mut impl Write,
    workload: &Workload,
    format: TraceFormat,
) -> std::io::Result<()> {
    let frame_len = match format {
        TraceFormat::BinaryV2 => DEFAULT_FRAME_LEN,
        _ => 0,
    };
    write_trace_framed(out, workload, format, frame_len)
}

/// [`write_trace`] with an explicit frame length for the v2 container
/// (ignored — and zero — for unframed formats). Exposed so tests and
/// `trace_tool convert --frame-len` can exercise multi-frame layouts on
/// small workloads.
///
/// # Errors
///
/// Same conditions as [`write_trace`], plus `InvalidInput` for a zero
/// frame length with [`TraceFormat::BinaryV2`].
pub fn write_trace_framed(
    out: &mut impl Write,
    workload: &Workload,
    format: TraceFormat,
    frame_len: u64,
) -> std::io::Result<()> {
    let header = TraceHeader {
        format,
        version: match format {
            TraceFormat::BinaryV2 => TRACE_VERSION_V2,
            _ => TRACE_VERSION,
        },
        name: workload.name.clone(),
        threads: workload
            .threads
            .iter()
            .map(|t| TraceThread {
                thread: t.thread,
                core: t.core,
                accesses: t.accesses.len() as u64,
            })
            .collect(),
        checksum: Some(workload.checksum()),
        frame_len,
    };
    header.validate().map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unwritable workload: {e}"),
        )
    })?;
    match format {
        TraceFormat::Text => write_text(out, workload, &header),
        TraceFormat::Binary => write_binary(out, workload, &header),
        TraceFormat::BinaryV2 => write_binary_v2(out, workload, &header),
    }
}

/// [`write_trace`] to a (created or truncated) file, buffered and flushed.
///
/// # Errors
///
/// Same conditions as [`write_trace`], plus the create itself.
pub fn write_trace_file(
    path: impl AsRef<Path>,
    workload: &Workload,
    format: TraceFormat,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_trace(&mut out, workload, format)?;
    out.flush()
}

/// [`write_trace_framed`] to a (created or truncated) file.
///
/// # Errors
///
/// Same conditions as [`write_trace_framed`], plus the create itself.
pub fn write_trace_file_framed(
    path: impl AsRef<Path>,
    workload: &Workload,
    format: TraceFormat,
    frame_len: u64,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_trace_framed(&mut out, workload, format, frame_len)?;
    out.flush()
}

fn write_text(
    out: &mut impl Write,
    workload: &Workload,
    header: &TraceHeader,
) -> std::io::Result<()> {
    writeln!(out, "{TEXT_MAGIC}")?;
    writeln!(out, "name {}", header.name)?;
    for t in &header.threads {
        writeln!(
            out,
            "thread {} core {} accesses {}",
            t.thread.raw(),
            t.core.raw(),
            t.accesses
        )?;
    }
    writeln!(
        out,
        "checksum {:016x}",
        header.checksum.expect("writer always sets it")
    )?;
    for t in &workload.threads {
        let core = t.core.raw();
        for a in &t.accesses {
            writeln!(
                out,
                "{core} {} {:x}",
                if a.write { 'w' } else { 'r' },
                a.vaddr.raw()
            )?;
        }
    }
    Ok(())
}

fn write_binary(
    out: &mut impl Write,
    workload: &Workload,
    header: &TraceHeader,
) -> std::io::Result<()> {
    out.write_all(BINARY_MAGIC)?;
    out.write_all(&TRACE_VERSION.to_le_bytes())?;
    write_varint(out, header.name.len() as u128)?;
    out.write_all(header.name.as_bytes())?;
    write_varint(out, header.threads.len() as u128)?;
    for t in &header.threads {
        write_varint(out, u128::from(t.thread.raw()))?;
        write_varint(out, u128::from(t.core.raw()))?;
        write_varint(out, u128::from(t.accesses))?;
    }
    out.write_all(
        &header
            .checksum
            .expect("writer always sets it")
            .to_le_bytes(),
    )?;
    for t in &workload.threads {
        let mut prev: u64 = 0;
        for a in &t.accesses {
            encode_record(out, *a, &mut prev)?;
        }
    }
    Ok(())
}

/// Encodes one delta/varint record against the running previous address.
fn encode_record(out: &mut impl Write, a: MemAccess, prev: &mut u64) -> std::io::Result<()> {
    let delta = a.vaddr.raw().wrapping_sub(*prev) as i64;
    *prev = a.vaddr.raw();
    let zigzagged = ((delta << 1) ^ (delta >> 63)) as u64;
    let packed = (u128::from(zigzagged) << 1) | u128::from(a.write);
    write_varint(out, packed)
}

/// Writes the frame-chunked v2 container: front header, per-thread frames
/// (each restarting the delta chain), the frame directory, and the fixed
/// trailer. Offsets are tracked by counting, so any `Write` works.
fn write_binary_v2(
    out: &mut impl Write,
    workload: &Workload,
    header: &TraceHeader,
) -> std::io::Result<()> {
    let mut head: Vec<u8> = Vec::new();
    head.extend_from_slice(BINARY_MAGIC);
    head.extend_from_slice(&TRACE_VERSION_V2.to_le_bytes());
    write_varint(&mut head, header.name.len() as u128)?;
    head.extend_from_slice(header.name.as_bytes());
    write_varint(&mut head, header.threads.len() as u128)?;
    for t in &header.threads {
        write_varint(&mut head, u128::from(t.thread.raw()))?;
        write_varint(&mut head, u128::from(t.core.raw()))?;
        write_varint(&mut head, u128::from(t.accesses))?;
    }
    head.extend_from_slice(
        &header
            .checksum
            .expect("writer always sets it")
            .to_le_bytes(),
    );
    write_varint(&mut head, u128::from(header.frame_len))?;
    out.write_all(&head)?;
    let mut offset = head.len() as u64;

    // Body: one buffered frame at a time, collecting the directory.
    let frame_records = usize::try_from(header.frame_len).expect("frame length fits usize");
    let mut directory: Vec<Vec<FrameMeta>> = Vec::with_capacity(workload.threads.len());
    let mut frame: Vec<u8> = Vec::new();
    for t in &workload.threads {
        let mut entries = Vec::new();
        for chunk in t.accesses.chunks(frame_records) {
            frame.clear();
            let mut prev: u64 = 0;
            for a in chunk {
                encode_record(&mut frame, *a, &mut prev)?;
            }
            entries.push(FrameMeta {
                offset,
                bytes: frame.len() as u64,
                records: chunk.len() as u64,
                first_vaddr: chunk[0].vaddr.raw(),
                checksum: fnv1a(FNV1A_OFFSET, &frame),
            });
            out.write_all(&frame)?;
            offset += frame.len() as u64;
        }
        directory.push(entries);
    }

    let mut dirbuf: Vec<u8> = Vec::new();
    for entries in &directory {
        write_varint(&mut dirbuf, entries.len() as u128)?;
        for e in entries {
            write_varint(&mut dirbuf, u128::from(e.bytes))?;
            write_varint(&mut dirbuf, u128::from(e.records))?;
            write_varint(&mut dirbuf, u128::from(e.first_vaddr))?;
            dirbuf.extend_from_slice(&e.checksum.to_le_bytes());
        }
    }
    out.write_all(&dirbuf)?;
    out.write_all(&offset.to_le_bytes())?;
    out.write_all(&fnv1a(FNV1A_OFFSET, &dirbuf).to_le_bytes())?;
    out.write_all(V2_TAIL_MAGIC)?;
    Ok(())
}

fn write_varint(out: &mut impl Write, mut value: u128) -> std::io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Benchmark;
    use crate::trace::TraceGenerator;

    fn sample() -> Workload {
        TraceGenerator::new(3, 400, 11).generate(Benchmark::Cholesky)
    }

    fn encode(workload: &Workload, format: TraceFormat) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, workload, format).unwrap();
        buf
    }

    /// Round-trips `workload` through `format`: in memory through
    /// [`parse_trace`] for text and v1, through a file and
    /// [`read_workload`] for v2 (tagged `tag`, so parallel tests never
    /// share a file).
    fn round_trip(workload: &Workload, format: TraceFormat, tag: &str) -> (TraceHeader, Workload) {
        if format != TraceFormat::BinaryV2 {
            return parse_trace(&encode(workload, format)[..]).unwrap();
        }
        let (dir, path) = v2_file(workload, DEFAULT_FRAME_LEN, tag);
        let decoded = read_workload(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        decoded
    }

    #[test]
    fn both_formats_round_trip_exactly() {
        let workload = sample();
        for format in [
            TraceFormat::Text,
            TraceFormat::Binary,
            TraceFormat::BinaryV2,
        ] {
            let (header, decoded) = round_trip(&workload, format, "exact");
            assert_eq!(decoded, workload, "{}", format.name());
            assert_eq!(header.format, format);
            assert_eq!(header.name, workload.name);
            assert_eq!(header.checksum, Some(workload.checksum()));
            assert_eq!(header.total_accesses() as usize, workload.total_accesses());
            assert_eq!(header.cores_required(), workload.cores_required());
        }
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let workload = sample();
        let text = encode(&workload, TraceFormat::Text).len();
        let binary = encode(&workload, TraceFormat::Binary).len();
        assert!(
            binary * 3 < text,
            "binary {binary} bytes should be well under a third of text {text}"
        );
    }

    #[test]
    fn hand_written_text_without_checksum_parses() {
        let text = "\
allarm-trace v1 text
# two cores bouncing one line
name pingpong
thread 0 core 0 accesses 2
thread 1 core 3 accesses 1

0 w 1000
3 r 0x1000
0 r 1040
";
        let (header, workload) = parse_trace(text.as_bytes()).unwrap();
        assert_eq!(header.checksum, None);
        assert_eq!(header.cores_required(), 4);
        assert_eq!(workload.name, "pingpong");
        assert_eq!(workload.threads[0].accesses.len(), 2);
        assert_eq!(workload.threads[1].accesses[0].vaddr.raw(), 0x1000);
        assert!(workload.threads[0].accesses[0].write);
        assert!(!workload.threads[0].accesses[1].write);
    }

    #[test]
    fn text_checksum_mismatch_is_detected() {
        let workload = sample();
        let text = String::from_utf8(encode(&workload, TraceFormat::Text)).unwrap();
        let tampered = text.replacen(
            &format!("checksum {:016x}", workload.checksum()),
            &format!("checksum {:016x}", workload.checksum() ^ 1),
            1,
        );
        assert_ne!(tampered, text);
        let err = parse_trace(tampered.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncated_text_body_is_detected() {
        let workload = sample();
        let text = String::from_utf8(encode(&workload, TraceFormat::Text)).unwrap();
        let truncated: String =
            text.lines()
                .take(text.lines().count() - 5)
                .fold(String::new(), |mut acc, line| {
                    acc.push_str(line);
                    acc.push('\n');
                    acc
                });
        let err = parse_trace(truncated.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn corrupt_binary_body_fails_the_checksum() {
        let workload = sample();
        let mut buf = encode(&workload, TraceFormat::Binary);
        let last = buf.len() - 1;
        buf[last] ^= 0x01; // flip the final record's write bit
        let err = parse_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncated_binary_body_is_detected() {
        let workload = sample();
        let buf = encode(&workload, TraceFormat::Binary);
        let err = parse_trace(&buf[..buf.len() - 3]).unwrap_err();
        assert!(err.to_string().contains("cut short"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(parse_trace(&b"NOTATRACE"[..]).is_err());
        assert!(parse_trace(&b""[..]).is_err());
        let err = parse_trace(&b"allarm-trace v7 text\nname x\n"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn unsupported_binary_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.extend_from_slice(&9u16.to_le_bytes());
        let err = parse_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");
    }

    #[test]
    fn duplicate_core_pinning_is_rejected() {
        let text = "\
allarm-trace v1 text
name bad
thread 0 core 0 accesses 0
thread 1 core 0 accesses 0
";
        let err = parse_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("one core"), "{err}");
        // And the writer refuses to produce such a file.
        let mut workload = sample();
        let shared = workload.threads[0].core;
        workload.threads[1].core = shared;
        let err = write_trace(&mut Vec::new(), &workload, TraceFormat::Text).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn record_for_unknown_core_is_rejected_with_its_line() {
        let text = "\
allarm-trace v1 text
name bad
thread 0 core 0 accesses 1
5 r 40
";
        let err = parse_trace(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(err.to_string().contains("core 5"), "{err}");
    }

    #[test]
    fn header_reads_do_not_need_the_body() {
        let workload = sample();
        let dir = std::env::temp_dir().join(format!("allarm-tracefile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for format in [
            TraceFormat::Text,
            TraceFormat::Binary,
            TraceFormat::BinaryV2,
        ] {
            let path = dir.join(format!("h.{}", format.name()));
            write_trace_file(&path, &workload, format).unwrap();
            let header = read_header(&path).unwrap();
            assert_eq!(header.format, format);
            assert_eq!(header.cores_required(), 3);
            assert_eq!(header.checksum, Some(workload.checksum()));
            let (_, decoded) = read_workload(&path).unwrap();
            assert_eq!(decoded, workload);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_names_round_trip() {
        for format in [
            TraceFormat::Text,
            TraceFormat::Binary,
            TraceFormat::BinaryV2,
        ] {
            assert_eq!(TraceFormat::from_cli_name(format.name()), Some(format));
        }
        assert_eq!(
            TraceFormat::from_cli_name("BINARY"),
            Some(TraceFormat::Binary)
        );
        assert_eq!(
            TraceFormat::from_cli_name("v2"),
            Some(TraceFormat::BinaryV2)
        );
        assert_eq!(TraceFormat::from_cli_name("gzip"), None);
    }

    /// A reader that yields one byte per `read` call — the worst legal
    /// short-read behaviour (pipes, chained readers).
    struct OneByte<'a>(&'a [u8]);
    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.split_first() {
                Some((&b, rest)) if !buf.is_empty() => {
                    buf[0] = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn short_reading_inputs_parse_identically() {
        let workload = sample();
        for format in [TraceFormat::Text, TraceFormat::Binary] {
            let buf = encode(&workload, format);
            let (header, decoded) = parse_trace(OneByte(&buf)).unwrap();
            assert_eq!(decoded, workload, "{}", format.name());
            assert_eq!(header.format, format);
        }
        // A v2 header still parses from a short-reading input, but its body
        // is only decoded from a file.
        let err = parse_trace(OneByte(&encode(&workload, TraceFormat::BinaryV2))).unwrap_err();
        assert!(err.to_string().contains("`read_workload`"), "{err}");
    }

    #[test]
    fn extreme_deltas_survive_the_binary_encoding() {
        let workload = Workload {
            name: "extremes".into(),
            threads: vec![ThreadTrace {
                thread: ThreadId::new(0),
                core: CoreId::new(0),
                accesses: vec![
                    MemAccess::load(u64::MAX),
                    MemAccess::store(0),
                    MemAccess::load(1 << 63),
                    MemAccess::store(u64::MAX - 1),
                ],
            }],
        };
        for format in [TraceFormat::Binary, TraceFormat::BinaryV2] {
            let (_, decoded) = round_trip(&workload, format, "extremes");
            assert_eq!(decoded, workload, "{}", format.name());
        }
    }

    /// Writes `workload` as a multi-frame v2 file in a fresh temp dir and
    /// returns `(dir, path)`; callers remove `dir` when done.
    fn v2_file(workload: &Workload, frame_len: u64, tag: &str) -> (std::path::PathBuf, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("allarm-tracefile-v2-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.btrace");
        write_trace_file_framed(&path, workload, TraceFormat::BinaryV2, frame_len).unwrap();
        (dir.clone(), path)
    }

    #[test]
    fn v2_multi_frame_layout_round_trips_and_carries_its_directory() {
        let workload = sample();
        let (dir, path) = v2_file(&workload, 64, "layout");
        let (header, decoded) = read_workload(&path).unwrap();
        assert_eq!(decoded, workload);
        assert_eq!(header.frame_len, 64);

        let source = TraceSource::open(&path).unwrap();
        assert_eq!(source.name(), workload.name);
        assert_eq!(source.checksum(), workload.checksum());
        assert_eq!(source.total_accesses(), workload.total_accesses() as u64);
        for (i, t) in workload.threads.iter().enumerate() {
            let frames = source.frames(i);
            assert_eq!(frames.len(), t.accesses.len().div_ceil(64));
            assert_eq!(
                frames.iter().map(|f| f.records).sum::<u64>(),
                t.accesses.len() as u64
            );
            assert_eq!(frames[0].first_vaddr, t.accesses[0].vaddr.raw());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_feed_seeks_into_the_middle_of_any_thread() {
        let workload = sample();
        let (dir, path) = v2_file(&workload, 32, "seek");
        let source = TraceSource::open(&path).unwrap();
        for (i, t) in workload.threads.iter().enumerate() {
            // Seek straight to a mid-trace record without decoding the
            // prefix, then walk across a frame boundary.
            let start = (t.accesses.len() / 2) as u64;
            let mut feed = source.open_thread(i, start).unwrap();
            for idx in start as usize..t.accesses.len() {
                assert_eq!(feed.get(idx), Some(t.accesses[idx]), "thread {i} idx {idx}");
            }
            assert_eq!(feed.get(t.accesses.len()), None);
            // Backward seeks work too (the feed reloads the earlier frame).
            assert_eq!(feed.get(0), Some(t.accesses[0]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_limit_truncates_and_recomputes_the_checksum() {
        let workload = sample();
        let (dir, path) = v2_file(&workload, 64, "limit");
        let limit = 100u64;
        let source = TraceSource::open_with_limit(&path, limit).unwrap();
        assert!(source.is_truncated());

        let mut truncated = workload.clone();
        for t in &mut truncated.threads {
            t.accesses.truncate(limit as usize);
        }
        assert_eq!(source.checksum(), truncated.checksum());
        assert_eq!(source.total_accesses(), truncated.total_accesses() as u64);
        let mut feed = source.open_thread(0, 0).unwrap();
        assert_eq!(
            feed.get(limit as usize - 1),
            Some(workload.threads[0].accesses[99])
        );
        assert_eq!(feed.get(limit as usize), None);

        // A limit at or above every thread's length is a no-op.
        let full = TraceSource::open_with_limit(&path, 1 << 20).unwrap();
        assert!(!full.is_truncated());
        assert_eq!(full.checksum(), workload.checksum());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_corrupt_frame_is_caught_by_both_paths() {
        let workload = sample();
        let (dir, path) = v2_file(&workload, 64, "corrupt");
        let source = TraceSource::open(&path).unwrap();
        // Flip a byte in the middle of thread 1's second frame.
        let victim = source.frames(1)[1];
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(victim.offset + victim.bytes / 2) as usize] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        // The materializing read walks the same frames and stops at it.
        let err = read_workload(&path).unwrap_err();
        assert!(
            err.to_string().contains("frame 1 failed its checksum"),
            "{err}"
        );
        // The streaming path opens fine (the directory is intact) but the
        // poisoned frame fails verification on load.
        let source = TraceSource::open(&path).unwrap();
        let mut feed = source.open_thread(1, 0).unwrap();
        assert!(feed.try_get(0).unwrap().is_some(), "frame 0 is untouched");
        let err = feed.try_get(64).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_truncated_file_is_rejected() {
        let workload = sample();
        let (dir, path) = v2_file(&workload, 64, "trunc");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        for err in [
            read_workload(&path).unwrap_err(),
            TraceSource::open(&path).unwrap_err(),
        ] {
            assert!(err.to_string().contains("tail magic"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_header_checksum_must_match_the_decoded_stream() {
        let workload = sample();
        let (dir, path) = v2_file(&workload, 64, "header-sum");
        // Every frame and the directory stay intact; only the header's
        // stream checksum lies.
        let mut bytes = std::fs::read(&path).unwrap();
        let sum = workload.checksum().to_le_bytes();
        let at = bytes.windows(8).position(|w| w == sum).unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        TraceSource::open(&path).unwrap();
        let err = read_workload(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A hand-built v2 file: one thread declaring `accesses` records in
    /// frames of `frame_len`, a directory declaring `frames` frames of which
    /// only the first, `{body.len() bytes, records}`, is present, and every
    /// checksum but the (zeroed) stream checksum consistent.
    fn raw_v2(accesses: u64, frame_len: u64, frames: u64, records: u64, body: &[u8]) -> Vec<u8> {
        let mut out = BINARY_MAGIC.to_vec();
        out.extend_from_slice(&TRACE_VERSION_V2.to_le_bytes());
        // Name "raw", one thread: id 0 on core 0.
        for v in [
            3,
            u128::from(b'r'),
            u128::from(b'a'),
            u128::from(b'w'),
            1,
            0,
            0,
        ] {
            write_varint(&mut out, v).unwrap();
        }
        write_varint(&mut out, u128::from(accesses)).unwrap();
        out.extend_from_slice(&0u64.to_le_bytes());
        write_varint(&mut out, u128::from(frame_len)).unwrap();
        let dir_offset = (out.len() + body.len()) as u64;
        out.extend_from_slice(body);
        let mut dirbuf = Vec::new();
        for v in [frames, body.len() as u64, records, 0] {
            write_varint(&mut dirbuf, u128::from(v)).unwrap();
        }
        dirbuf.extend_from_slice(&fnv1a(FNV1A_OFFSET, body).to_le_bytes());
        out.extend_from_slice(&dirbuf);
        out.extend_from_slice(&dir_offset.to_le_bytes());
        out.extend_from_slice(&fnv1a(FNV1A_OFFSET, &dirbuf).to_le_bytes());
        out.extend_from_slice(V2_TAIL_MAGIC);
        out
    }

    #[test]
    fn v2_directory_counts_beyond_the_file_are_rejected_at_open() {
        let dir = std::env::temp_dir().join(format!("allarm-tracefile-raw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("raw.btrace");
        // The builder makes loadable files: three one-byte records.
        std::fs::write(&path, raw_v2(3, 3, 1, 3, &[0, 0, 0])).unwrap();
        let source = TraceSource::open(&path).unwrap();
        assert_eq!(
            source.open_thread(0, 0).unwrap().try_get(2).unwrap(),
            Some(MemAccess::load(0))
        );

        // 2^40 records in a 3-byte frame: every record takes at least one
        // byte, so the directory lies. Header-level validation cannot see
        // it; opening (and so every decode) must refuse before a decode
        // buffer is sized from the record count.
        std::fs::write(&path, raw_v2(1 << 40, 1 << 40, 1, 1 << 40, &[0, 0, 0])).unwrap();
        read_header(&path).unwrap();
        for err in [
            TraceSource::open(&path).unwrap_err(),
            read_workload(&path).unwrap_err(),
        ] {
            assert!(err.to_string().contains("frame 0 of thread 0"), "{err}");
        }

        // 2^40 one-record frames declared in a one-entry directory: the
        // frame table is not sized from the count either.
        std::fs::write(&path, raw_v2(1 << 40, 1, 1 << 40, 1, &[0])).unwrap();
        let err = TraceSource::open(&path).unwrap_err();
        assert!(err.to_string().contains("cut short"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_files_refuse_streaming_with_a_helpful_error() {
        let workload = sample();
        let dir = std::env::temp_dir().join(format!("allarm-tracefile-v1s-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        write_trace_file(&path, &workload, TraceFormat::Binary).unwrap();
        let err = TraceSource::open(&path).unwrap_err();
        assert!(err.to_string().contains("v1 binary trace"), "{err}");
        assert!(err.to_string().contains("convert"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_header_reads_match_and_track_rewrites() {
        let workload = sample();
        let dir =
            std::env::temp_dir().join(format!("allarm-tracefile-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.btrace");
        write_trace_file(&path, &workload, TraceFormat::Binary).unwrap();
        let first = read_header_cached(&path).unwrap();
        assert_eq!(first, read_header(&path).unwrap());
        assert_eq!(first, read_header_cached(&path).unwrap());
        // Errors are not cached: a missing file stays an error, and a
        // rewritten file (different length) is re-read.
        assert!(read_header_cached(dir.join("missing.trace")).is_err());
        let mut renamed = workload.clone();
        renamed.name = "renamed-longer-name".into();
        write_trace_file(&path, &renamed, TraceFormat::Binary).unwrap();
        assert_eq!(read_header_cached(&path).unwrap().name, renamed.name);
        std::fs::remove_dir_all(&dir).ok();
    }
}
