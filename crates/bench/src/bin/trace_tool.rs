//! Records, converts and inspects on-disk trace files
//! (`allarm_workloads::tracefile`).
//!
//! `record` materializes the workload of a scenario document — the first
//! expansion point's `(workload, seed)` — and dumps it to a trace file in
//! any format, ready for replay through `WorkloadSpec::TraceFile`.
//! `convert` re-encodes an existing trace (any ALLARM format) or ingests a
//! PIN/gem5-style text dump into v1/v2. `info` prints a header summary
//! (name, threads, pinning, access counts, checksum) without decoding the
//! body — for frame-chunked `binary-v2` traces it additionally reads the
//! frame directory, still never touching the records. `seek` jumps to an
//! arbitrary record index of a v2 trace through the directory and prints a
//! window of records, decoding only the frames it lands on.
//!
//! ```text
//! cargo run --release -p allarm-bench --bin trace_tool -- \
//!     record --format binary-v2 --out sample.btrace scenarios/tracefile_source.toml
//! cargo run --release -p allarm-bench --bin trace_tool -- \
//!     convert --format binary-v2 --out sample.btrace old_v1.trace
//! cargo run --release -p allarm-bench --bin trace_tool -- info sample.btrace
//! cargo run --release -p allarm-bench --bin trace_tool -- \
//!     seek --thread 2 --start 1000000 --count 4 sample.btrace
//! ```
//!
//! Recording is deterministic (the workload is a pure function of the
//! document's spec and seed), so CI regenerates the committed sample traces
//! and diffs them byte-for-byte against the checked-in files.
//!
//! ## Foreign dump ingestion
//!
//! `convert` accepts simulator/instrumentation text dumps with one access
//! per line: `<thread> <R|W> <hexaddr>` (also `r/w`, `ld/st`,
//! `load/store`, `read/write`; `0x` prefixes optional). A two-column line
//! is thread 0, a leading instruction-pointer column (`0x...:`, as
//! pinatrace prints) is skipped, and `#`-lines are comments. Threads are
//! pinned to cores 1:1 in thread order.

use allarm_core::load_scenario_doc;
use allarm_workloads::tracefile::{self, TraceFormat, TraceSource, DEFAULT_FRAME_LEN};
use allarm_workloads::{MemAccess, ThreadTrace, Workload};
use std::io::BufRead;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_tool record [--format text|binary|binary-v2] [--frame-len <n>] \
     --out <trace-file> <scenario.toml|scenario.json>\n       \
     trace_tool convert [--format text|binary|binary-v2] [--frame-len <n>] \
     --out <trace-file> <trace-or-dump-file>\n       \
     trace_tool info <trace-file>\n       \
     trace_tool seek [--thread <t>] [--start <record>] [--count <n>] <v2-trace-file>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("convert") => convert(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("seek") => seek(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Shared flag parsing for `record` and `convert`: `--format`,
/// `--frame-len`, `--out`, and one positional input path.
struct OutputArgs {
    format: TraceFormat,
    frame_len: u64,
    out: String,
    input: String,
}

fn parse_output_args(args: &[String], default_format: TraceFormat) -> Result<OutputArgs, String> {
    let mut format = default_format;
    let mut frame_len = DEFAULT_FRAME_LEN;
    let mut out: Option<String> = None;
    let mut input: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => match iter.next().and_then(|f| TraceFormat::from_cli_name(f)) {
                Some(f) => format = f,
                None => return Err("--format needs `text`, `binary` or `binary-v2`".to_string()),
            },
            "--frame-len" => match iter.next().and_then(|n| n.parse().ok()).filter(|&n| n > 0) {
                Some(n) => frame_len = n,
                None => return Err("--frame-len needs a positive record count".to_string()),
            },
            "--out" => match iter.next() {
                Some(p) => out = Some(p.clone()),
                None => return Err("--out needs a path".to_string()),
            },
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other if input.is_none() => input = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    match (out, input) {
        (Some(out), Some(input)) => Ok(OutputArgs {
            format,
            frame_len,
            out,
            input,
        }),
        _ => Err("an input path and --out are both required".to_string()),
    }
}

fn write_out(workload: &Workload, args: &OutputArgs, did: &str) -> ExitCode {
    let result =
        tracefile::write_trace_file_framed(&args.out, workload, args.format, args.frame_len);
    if let Err(e) = result {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[trace_tool] {did} `{}` ({} thread(s), {} accesses, checksum {:016x}) to {} as {}",
        workload.name,
        workload.threads.len(),
        workload.total_accesses(),
        workload.checksum(),
        args.out,
        args.format.name(),
    );
    ExitCode::SUCCESS
}

fn record(args: &[String]) -> ExitCode {
    let args = match parse_output_args(args, TraceFormat::Binary) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match load_scenario_doc(&args.input) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scenarios = doc.expand();
    let Some(scenario) = scenarios.first() else {
        eprintln!("{}: document expands to no scenarios", args.input);
        return ExitCode::FAILURE;
    };
    if let Err(e) = scenario.validate() {
        eprintln!("{}: {e}", args.input);
        return ExitCode::FAILURE;
    }
    let workload = scenario.workload();
    write_out(&workload, &args, "recorded")
}

fn convert(args: &[String]) -> ExitCode {
    let args = match parse_output_args(args, TraceFormat::BinaryV2) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // An ALLARM trace (any format) re-encodes through the normal reader,
    // preserving name, pinning and checksum; anything else is parsed as a
    // foreign text dump.
    let workload = match tracefile::read_header(&args.input) {
        Ok(_) => match tracefile::read_workload(&args.input) {
            Ok((_, workload)) => workload,
            Err(e) => {
                eprintln!("{}: {e}", args.input);
                return ExitCode::FAILURE;
            }
        },
        Err(_) => match parse_foreign_dump(&args.input) {
            Ok(workload) => workload,
            Err(e) => {
                eprintln!("{}: {e}", args.input);
                return ExitCode::FAILURE;
            }
        },
    };
    write_out(&workload, &args, "converted")
}

/// Parses a PIN/gem5-style text dump (see the module docs for the accepted
/// shapes) into a workload named after the file stem.
fn parse_foreign_dump(path: &str) -> Result<Workload, String> {
    use allarm_types::ids::{CoreId, ThreadId};
    use std::collections::BTreeMap;

    let file = std::fs::File::open(path).map_err(|e| format!("cannot open: {e}"))?;
    let mut threads: BTreeMap<u64, Vec<MemAccess>> = BTreeMap::new();
    for (lineno, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            continue;
        }
        let mut tokens: Vec<&str> = line.split_whitespace().collect();
        // pinatrace prefixes each access with the instruction pointer
        // (`0x7f..:`); drop it.
        if tokens.len() >= 3 && tokens[0].ends_with(':') && looks_hex(tokens[0]) {
            tokens.remove(0);
        }
        let (tid, op, addr) = match tokens.as_slice() {
            [op, addr] => (0u64, *op, *addr),
            [tid, op, addr] => (
                tid.parse::<u64>()
                    .map_err(|_| format!("line {}: bad thread id `{tid}`", lineno + 1))?,
                *op,
                *addr,
            ),
            _ => {
                return Err(format!(
                    "line {}: expected `[thread] <R|W> <hexaddr>`, got `{line}`",
                    lineno + 1
                ))
            }
        };
        let write = match op.to_ascii_lowercase().as_str() {
            "r" | "ld" | "load" | "read" => false,
            "w" | "st" | "store" | "write" => true,
            other => return Err(format!("line {}: unknown op `{other}`", lineno + 1)),
        };
        let addr = addr.strip_prefix("0x").unwrap_or(addr);
        let vaddr = u64::from_str_radix(addr, 16)
            .map_err(|_| format!("line {}: bad address `{addr}`", lineno + 1))?;
        if tid >= u64::from(u16::MAX) {
            return Err(format!("line {}: thread id {tid} out of range", lineno + 1));
        }
        threads.entry(tid).or_default().push(if write {
            MemAccess::store(vaddr)
        } else {
            MemAccess::load(vaddr)
        });
    }
    if threads.is_empty() {
        return Err("no accesses found (is this a PIN/gem5-style dump?)".to_string());
    }
    let name = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    Ok(Workload {
        name,
        threads: threads
            .into_iter()
            .map(|(tid, accesses)| ThreadTrace {
                thread: ThreadId::new(tid as u16),
                core: CoreId::new(tid as u16),
                accesses,
            })
            .collect(),
    })
}

/// True if a `tok:`-style token is hex-like (an instruction pointer, not a
/// decimal thread id).
fn looks_hex(token: &str) -> bool {
    let t = token.trim_end_matches(':');
    let t = t.strip_prefix("0x").unwrap_or(t);
    !t.is_empty() && t.chars().all(|c| c.is_ascii_hexdigit())
}

fn info(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let header = match tracefile::read_header(path) {
        Ok(header) => header,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("trace:          {path}");
    println!(
        "format:         {} (v{})",
        header.format.name(),
        header.version
    );
    println!("name:           {}", header.name);
    println!("threads:        {}", header.threads.len());
    println!("cores required: {}", header.cores_required());
    println!("total accesses: {}", header.total_accesses());
    match header.checksum {
        Some(c) => println!("checksum:       {c:016x}"),
        None => println!("checksum:       (none recorded; verified against the body on replay)"),
    }
    // For the frame-chunked container, also verify and summarize the frame
    // directory — still without decoding a single record.
    let source = if header.format.is_streamable() {
        match TraceSource::open(path) {
            Ok(source) => {
                println!("frame length:   {} records", source.frame_len());
                Some(source)
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    match &source {
        Some(source) => {
            println!(
                "{:>8} {:>6} {:>12} {:>8}",
                "thread", "core", "accesses", "frames"
            );
            for (i, t) in header.threads.iter().enumerate() {
                println!(
                    "{:>8} {:>6} {:>12} {:>8}",
                    t.thread.raw(),
                    t.core.raw(),
                    t.accesses,
                    source.frames(i).len()
                );
            }
        }
        None => {
            println!("{:>8} {:>6} {:>12}", "thread", "core", "accesses");
            for t in &header.threads {
                println!(
                    "{:>8} {:>6} {:>12}",
                    t.thread.raw(),
                    t.core.raw(),
                    t.accesses
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn seek(args: &[String]) -> ExitCode {
    let mut thread = 0usize;
    let mut start = 0u64;
    let mut count = 8u64;
    let mut path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--thread" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) => thread = n,
                None => {
                    eprintln!("--thread needs an index\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--start" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) => start = n,
                None => {
                    eprintln!("--start needs a record index\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--count" => match iter.next().and_then(|n| n.parse().ok()).filter(|&n| n > 0) {
                Some(n) => count = n,
                None => {
                    eprintln!("--count needs a positive number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let source = match TraceSource::open(&path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = source.threads();
    let Some(meta) = threads.get(thread) else {
        eprintln!(
            "{path}: no thread {thread} (the trace has {})",
            threads.len()
        );
        return ExitCode::FAILURE;
    };
    if start >= meta.accesses {
        eprintln!(
            "{path}: thread {thread} has {} record(s); cannot seek to {start}",
            meta.accesses
        );
        return ExitCode::FAILURE;
    }
    let mut feed = match source.open_thread(thread, start) {
        Ok(feed) => feed,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{:>12} {:>3} {:>18}", "record", "op", "vaddr");
    for idx in start..start.saturating_add(count).min(meta.accesses) {
        match feed.try_get(idx as usize) {
            Ok(Some(access)) => println!(
                "{:>12} {:>3} {:#18x}",
                idx,
                if access.write { "W" } else { "R" },
                access.vaddr.raw()
            ),
            Ok(None) => break,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
