//! Memory-access trace generation from benchmark profiles.

use crate::profile::{Benchmark, BenchmarkProfile};
use allarm_types::addr::{VirtAddr, PAGE_BYTES};
use allarm_types::ids::{CoreId, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Byte distance between consecutive accesses in a streaming region; four
/// accesses touch a 64-byte line before moving on, modelling the spatial
/// locality of array traversals.
const STREAM_STRIDE_BYTES: u64 = 16;

/// Base virtual address of thread `t`'s private region (each thread gets a
/// 4 GiB window, far larger than any profile's footprint).
fn private_base(thread: usize) -> u64 {
    (thread as u64 + 1) << 32
}

/// Offset of the private streaming region within a thread's window.
const PRIVATE_STREAM_OFFSET: u64 = 1 << 30;

/// Offset of the private write-once initialisation region within a thread's
/// window.
const PRIVATE_INIT_OFFSET: u64 = 1 << 31;

/// Base virtual address of the process-wide shared region.
const SHARED_BASE: u64 = 0x7000_0000_0000;

/// Offset of the shared streaming region within the shared window.
const SHARED_STREAM_OFFSET: u64 = 1 << 34;

/// A single memory reference in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// The virtual address referenced.
    pub vaddr: VirtAddr,
    /// True for a store, false for a load.
    pub write: bool,
}

impl MemAccess {
    /// Creates a load access.
    pub fn load(vaddr: u64) -> Self {
        MemAccess {
            vaddr: VirtAddr::new(vaddr),
            write: false,
        }
    }

    /// Creates a store access.
    pub fn store(vaddr: u64) -> Self {
        MemAccess {
            vaddr: VirtAddr::new(vaddr),
            write: true,
        }
    }
}

/// The access trace of one software thread, plus the core it is pinned to by
/// the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The thread's identity.
    pub thread: ThreadId,
    /// The core this thread runs on for the whole simulation. (The paper
    /// does not pin threads, but its scheduler keeps them in place in the
    /// common case; a fixed placement keeps the model deterministic.)
    pub core: CoreId,
    /// The ordered sequence of memory references the thread issues.
    pub accesses: Vec<MemAccess>,
}

/// A complete multi-threaded (or multi-process) workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Human-readable name (benchmark name, possibly with a suffix).
    pub name: String,
    /// Per-thread traces.
    pub threads: Vec<ThreadTrace>,
}

impl Workload {
    /// Total number of memory references across all threads.
    pub fn total_accesses(&self) -> usize {
        self.threads.iter().map(|t| t.accesses.len()).sum()
    }

    /// A 64-bit FNV-1a checksum of the workload's replayable content: per
    /// thread, the thread id, pinned core, access count, and every
    /// `(address, write)` reference in order. The name is *not* hashed —
    /// the checksum identifies the reference stream, not its label.
    ///
    /// This is the checksum recorded in trace-file headers
    /// ([`crate::tracefile`]) and surfaced as `workload_checksum` in
    /// simulation reports, so a replayed trace is verifiable end to end.
    pub fn checksum(&self) -> u64 {
        let mut stream = ChecksumStream::new();
        for t in &self.threads {
            stream.begin_thread(t.thread, t.core, t.accesses.len() as u64);
            for a in &t.accesses {
                stream.access(*a);
            }
        }
        stream.finish()
    }

    /// The highest core index used by the workload plus one (the minimum
    /// machine size able to run it).
    pub fn cores_required(&self) -> usize {
        self.threads
            .iter()
            .map(|t| t.core.index() + 1)
            .max()
            .unwrap_or(0)
    }
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes, where every
/// [`fnv1a`] checksum starts.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a: folds `bytes` into the running `hash` (start from
/// [`FNV1A_OFFSET`]). The one byte loop behind workload checksums, the
/// binary-v2 trace's frame and directory checks and the snapshot sections'
/// integrity checks.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Incremental form of [`Workload::checksum`], for callers that stream a
/// reference trace without ever materializing it (the frame-chunked trace
/// container computes truncated-prefix checksums this way). Feeding a
/// workload thread-by-thread, access-by-access produces exactly the value
/// `Workload::checksum` returns.
#[derive(Debug, Clone)]
pub struct ChecksumStream {
    hash: u64,
}

impl ChecksumStream {
    /// Starts a fresh checksum (no threads hashed yet).
    pub fn new() -> Self {
        ChecksumStream { hash: FNV1A_OFFSET }
    }

    fn eat(&mut self, bytes: &[u8]) {
        self.hash = fnv1a(self.hash, bytes);
    }

    /// Hashes the next thread's identity, pinning and access count; must be
    /// followed by exactly `accesses` calls to [`ChecksumStream::access`].
    pub fn begin_thread(&mut self, thread: ThreadId, core: CoreId, accesses: u64) {
        self.eat(&thread.raw().to_le_bytes());
        self.eat(&core.raw().to_le_bytes());
        self.eat(&accesses.to_le_bytes());
    }

    /// Hashes one reference of the current thread.
    pub fn access(&mut self, a: MemAccess) {
        self.eat(&a.vaddr.raw().to_le_bytes());
        self.eat(&[u8::from(a.write)]);
    }

    /// Returns the finished checksum.
    pub fn finish(self) -> u64 {
        self.hash
    }
}

impl Default for ChecksumStream {
    fn default() -> Self {
        ChecksumStream::new()
    }
}

/// Generates per-thread traces from a [`BenchmarkProfile`].
///
/// # Examples
///
/// ```
/// use allarm_workloads::{Benchmark, TraceGenerator};
///
/// let gen = TraceGenerator::new(4, 1_000, 7);
/// let workload = gen.generate(Benchmark::Barnes);
/// assert_eq!(workload.threads.len(), 4);
/// assert_eq!(workload.name, "barnes");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TraceGenerator {
    num_threads: usize,
    accesses_per_thread: usize,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator for `num_threads` threads, each issuing
    /// `accesses_per_thread` references in its main phase, using `seed` for
    /// all randomness.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn new(num_threads: usize, accesses_per_thread: usize, seed: u64) -> Self {
        assert!(num_threads > 0, "a workload needs at least one thread");
        TraceGenerator {
            num_threads,
            accesses_per_thread,
            seed,
        }
    }

    /// Number of threads the generator produces.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Main-phase accesses per thread.
    pub fn accesses_per_thread(&self) -> usize {
        self.accesses_per_thread
    }

    /// Generates the workload for a named benchmark. Serving-family
    /// benchmarks ([`Benchmark::SERVING`]) route to the dedicated
    /// key-value generator; everything else walks the hot/stream regions
    /// of its profile.
    pub fn generate(&self, benchmark: Benchmark) -> Workload {
        if benchmark == Benchmark::KvStore {
            return self.generate_kv(benchmark.name(), &benchmark.profile());
        }
        self.generate_profile(benchmark.name(), &benchmark.profile())
    }

    /// Generates a workload from an arbitrary profile (used by sensitivity
    /// experiments and tests).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn generate_profile(&self, name: &str, profile: &BenchmarkProfile) -> Workload {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile for {name}: {e}"));
        let threads = (0..self.num_threads)
            .map(|t| self.generate_thread(t, profile))
            .collect();
        Workload {
            name: name.to_string(),
            threads,
        }
    }

    /// The initialisation accesses for thread `t`: one store to every shared
    /// page this thread is responsible for first-touching. Under the
    /// first-touch policy these stores determine where shared pages are
    /// homed — on node 0 for the producer/consumer profiles, spread across
    /// all nodes otherwise.
    fn init_phase(&self, thread: usize, profile: &BenchmarkProfile) -> Vec<MemAccess> {
        let shared_bytes = profile.shared_footprint_kb() * 1024;
        let shared_pages = shared_bytes.div_ceil(PAGE_BYTES);
        let mut accesses = Vec::new();
        for page in 0..shared_pages {
            let owner = if profile.shared_init_by_thread0 {
                0
            } else {
                (page as usize) % self.num_threads
            };
            if owner == thread {
                let addr = self.shared_page_addr(page, profile);
                accesses.push(MemAccess::store(addr));
            }
        }
        accesses
    }

    /// Byte address of the start of the `page`-th page of the shared
    /// footprint (hot pages first, then streaming pages).
    fn shared_page_addr(&self, page: u64, profile: &BenchmarkProfile) -> u64 {
        let hot_pages = (profile.shared_hot_kb * 1024).div_ceil(PAGE_BYTES);
        if page < hot_pages {
            SHARED_BASE + page * PAGE_BYTES
        } else {
            SHARED_BASE + SHARED_STREAM_OFFSET + (page - hot_pages) * PAGE_BYTES
        }
    }

    /// Private initialisation pass: one load per cache line of the
    /// touch-once region (each thread scanning its slice of the input
    /// data set, building its private structures). Under first-touch
    /// these lines are homed locally; in the baseline each one allocates
    /// a probe-filter entry that sits stale after the clean line is
    /// silently dropped from the cache — exactly the thread-local waste
    /// ALLARM eliminates.
    fn private_init_pass(
        &self,
        thread: usize,
        profile: &BenchmarkProfile,
        accesses: &mut Vec<MemAccess>,
    ) {
        let init_lines = (profile.private_init_kb * 1024) / allarm_types::addr::LINE_BYTES;
        let private_init_base = private_base(thread) + PRIVATE_INIT_OFFSET;
        for line in 0..init_lines {
            accesses.push(MemAccess::load(
                private_init_base + line * allarm_types::addr::LINE_BYTES,
            ));
        }
    }

    /// Seeds thread `t`'s generator (shared by both generation paths).
    fn thread_rng(&self, thread: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(thread as u64),
        )
    }

    fn generate_thread(&self, thread: usize, profile: &BenchmarkProfile) -> ThreadTrace {
        let mut rng = self.thread_rng(thread);

        let priv_hot_bytes = profile.private_hot_kb * 1024;
        let priv_stream_bytes = profile.private_stream_kb * 1024;
        let shared_hot_bytes = profile.shared_hot_kb * 1024;
        let shared_stream_bytes = profile.shared_stream_kb * 1024;

        let priv_base = private_base(thread);
        let priv_stream_base = priv_base + PRIVATE_STREAM_OFFSET;
        let shared_hot_base = SHARED_BASE;
        let shared_stream_base = SHARED_BASE + SHARED_STREAM_OFFSET;

        // Streaming cursors start at a per-thread offset so the threads do
        // not march through shared data in lockstep.
        let mut priv_stream_pos: u64 = 0;
        let mut shared_stream_pos: u64 = if shared_stream_bytes > 0 {
            (thread as u64 * shared_stream_bytes / self.num_threads as u64) / STREAM_STRIDE_BYTES
                * STREAM_STRIDE_BYTES
        } else {
            0
        };

        let mut accesses = self.init_phase(thread, profile);
        self.private_init_pass(thread, profile, &mut accesses);
        accesses.reserve(self.accesses_per_thread);

        for _ in 0..self.accesses_per_thread {
            let shared = rng.gen_bool(profile.shared_fraction);
            let write_fraction = if shared {
                profile.shared_write_fraction
            } else {
                profile.write_fraction
            };
            let vaddr = if shared {
                if shared_stream_bytes > 0 && rng.gen_bool(profile.shared_stream_fraction) {
                    let addr = shared_stream_base + shared_stream_pos;
                    shared_stream_pos =
                        (shared_stream_pos + STREAM_STRIDE_BYTES) % shared_stream_bytes;
                    addr
                } else if shared_hot_bytes > 0 {
                    shared_hot_base + align_down(rng.gen_range(0..shared_hot_bytes))
                } else {
                    shared_stream_base
                }
            } else if priv_stream_bytes > 0 && rng.gen_bool(profile.private_stream_fraction) {
                let addr = priv_stream_base + priv_stream_pos;
                priv_stream_pos = (priv_stream_pos + STREAM_STRIDE_BYTES) % priv_stream_bytes;
                addr
            } else if priv_hot_bytes > 0 {
                priv_base + align_down(rng.gen_range(0..priv_hot_bytes))
            } else {
                priv_stream_base
            };
            let write = rng.gen_bool(write_fraction);
            accesses.push(MemAccess {
                vaddr: VirtAddr::new(vaddr),
                write,
            });
        }

        ThreadTrace {
            thread: ThreadId::new(thread as u16),
            core: CoreId::new(thread as u16),
            accesses,
        }
    }

    /// Generates a serving-shaped key-value workload: every worker thread
    /// answers a stream of GET/PUT operations against one shared store.
    /// An operation probes the uniformly-hashed index (the profile's
    /// shared hot region) or touches a value record (the shared stream
    /// region); record keys are drawn Zipf-like, concentrated in a hot
    /// set that drifts through the keyspace as the trace progresses —
    /// popularity churn no region-walk profile can express, and the
    /// access pattern that keeps a directory's sharer sets both wide
    /// (everyone reads the hot keys) and unstable (the hot keys change).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn generate_kv(&self, name: &str, profile: &BenchmarkProfile) -> Workload {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile for {name}: {e}"));
        let threads = (0..self.num_threads)
            .map(|t| self.generate_kv_thread(t, profile))
            .collect();
        Workload {
            name: name.to_string(),
            threads,
        }
    }

    fn generate_kv_thread(&self, thread: usize, profile: &BenchmarkProfile) -> ThreadTrace {
        let mut rng = self.thread_rng(thread);

        let index_bytes = profile.shared_hot_kb * 1024;
        let store_bytes = profile.shared_stream_kb * 1024;
        let priv_hot_bytes = profile.private_hot_kb * 1024;
        let priv_stream_bytes = profile.private_stream_kb * 1024;
        // The hot set covers a fixed slice of the keyspace; its *position*
        // advances every KV_DRIFT_PERIOD operations. All threads follow
        // the same drift schedule — popularity is a property of the data,
        // not of the client — so the sharer set of a hot line is every
        // node right up until the line falls out of fashion.
        let hot_span = (store_bytes / 32).max(LINE_BYTES);

        let priv_base = private_base(thread);
        let priv_stream_base = priv_base + PRIVATE_STREAM_OFFSET;
        let index_base = SHARED_BASE;
        let store_base = SHARED_BASE + SHARED_STREAM_OFFSET;

        // First-touch homing works exactly as for the batch profiles: the
        // store's pages are spread across the threads (a pre-warmed cache
        // whose slabs were faulted in round-robin), and each worker builds
        // its private connection state.
        let mut accesses = self.init_phase(thread, profile);
        self.private_init_pass(thread, profile, &mut accesses);
        accesses.reserve(self.accesses_per_thread);

        let mut priv_stream_pos: u64 = 0;
        for op in 0..self.accesses_per_thread {
            let epoch = (op / KV_DRIFT_PERIOD) as u64;
            let hot_base = (epoch * KV_DRIFT_STRIDE) % store_bytes;
            let access = if rng.gen_bool(profile.shared_fraction) {
                let put = rng.gen_bool(profile.shared_write_fraction);
                let vaddr = if rng.gen_bool(profile.shared_stream_fraction) {
                    // A value record: Zipf-weighted key, usually inside
                    // the drifting hot set, wrapping at the store's end.
                    let key = if rng.gen_bool(KV_HOT_FRACTION) {
                        (hot_base + zipf_offset(&mut rng, hot_span)) % store_bytes
                    } else {
                        zipf_offset(&mut rng, store_bytes)
                    };
                    store_base + line_align(key)
                } else {
                    // An index probe: bucket hashes scatter uniformly.
                    index_base + line_align(rng.gen_range(0..index_bytes))
                };
                MemAccess {
                    vaddr: VirtAddr::new(vaddr),
                    write: put,
                }
            } else if priv_stream_bytes > 0 && rng.gen_bool(profile.private_stream_fraction) {
                // Request/response buffer fill, written as it streams.
                let addr = priv_stream_base + priv_stream_pos;
                priv_stream_pos = (priv_stream_pos + STREAM_STRIDE_BYTES) % priv_stream_bytes;
                MemAccess::store(addr)
            } else {
                // Connection scratch (parse state, per-request bookkeeping).
                MemAccess {
                    vaddr: VirtAddr::new(priv_base + align_down(rng.gen_range(0..priv_hot_bytes))),
                    write: rng.gen_bool(profile.write_fraction),
                }
            };
            accesses.push(access);
        }

        ThreadTrace {
            thread: ThreadId::new(thread as u16),
            core: CoreId::new(thread as u16),
            accesses,
        }
    }
}

/// Traffic share of the drifting hot key set in the kv generator; the
/// remainder Zipf-scans the whole keyspace (cold keys and crawlers).
const KV_HOT_FRACTION: f64 = 0.75;

/// Operations between hot-set advances in the kv generator.
const KV_DRIFT_PERIOD: usize = 4096;

/// Bytes the kv hot set advances per drift epoch.
const KV_DRIFT_STRIDE: u64 = 64 * 1024;

/// Cache-line size, re-exported locally for record alignment.
const LINE_BYTES: u64 = allarm_types::addr::LINE_BYTES;

/// A Zipf-like (log-uniform, exponent ≈ 1) byte offset in `[0, span)`:
/// offset `r` is drawn with probability ∝ 1/r, so a handful of keys at
/// the start of the span absorb most of the traffic.
fn zipf_offset(rng: &mut StdRng, span: u64) -> u64 {
    let r = (span as f64).powf(rng.gen::<f64>());
    (r as u64).clamp(1, span) - 1
}

/// Aligns a record offset down to its cache line (a GET reads the whole
/// line the record starts in).
fn line_align(offset: u64) -> u64 {
    offset / LINE_BYTES * LINE_BYTES
}

fn align_down(addr: u64) -> u64 {
    addr / STREAM_STRIDE_BYTES * STREAM_STRIDE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn quick(bench: Benchmark) -> Workload {
        TraceGenerator::new(4, 2_000, 123).generate(bench)
    }

    #[test]
    fn generates_one_trace_per_thread_on_distinct_cores() {
        let w = quick(Benchmark::Barnes);
        assert_eq!(w.threads.len(), 4);
        let cores: HashSet<CoreId> = w.threads.iter().map(|t| t.core).collect();
        assert_eq!(cores.len(), 4);
        assert_eq!(w.cores_required(), 4);
        assert!(w.total_accesses() >= 4 * 2_000);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = TraceGenerator::new(4, 500, 9).generate(Benchmark::Cholesky);
        let b = TraceGenerator::new(4, 500, 9).generate(Benchmark::Cholesky);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(2, 500, 1).generate(Benchmark::Cholesky);
        let b = TraceGenerator::new(2, 500, 2).generate(Benchmark::Cholesky);
        assert_ne!(a, b);
    }

    #[test]
    fn private_addresses_are_disjoint_between_threads() {
        let w = quick(Benchmark::OceanContiguous);
        // Any address below SHARED_BASE belongs to exactly one thread's
        // 4 GiB window.
        for t in &w.threads {
            for a in &t.accesses {
                let addr = a.vaddr.raw();
                if addr < SHARED_BASE {
                    let window = addr >> 32;
                    assert_eq!(window, t.thread.index() as u64 + 1);
                }
            }
        }
    }

    #[test]
    fn shared_accesses_exist_and_are_in_shared_window() {
        let w = quick(Benchmark::Blackscholes);
        let shared_count: usize = w
            .threads
            .iter()
            .map(|t| {
                t.accesses
                    .iter()
                    .filter(|a| a.vaddr.raw() >= SHARED_BASE)
                    .count()
            })
            .sum();
        // Blackscholes is ~78% shared; with 8000 main-phase accesses this is
        // comfortably in the thousands.
        assert!(shared_count > 4_000, "only {shared_count} shared accesses");
    }

    #[test]
    fn blackscholes_init_is_done_by_thread0_only() {
        let profile = Benchmark::Blackscholes.profile();
        let gen = TraceGenerator::new(4, 100, 5);
        let w = gen.generate(Benchmark::Blackscholes);
        let shared_pages = (profile.shared_footprint_kb() * 1024).div_ceil(PAGE_BYTES) as usize;
        let private_init_lines = (profile.private_init_kb * 1024 / 64) as usize;
        // Thread 0's trace carries all the shared init stores plus its own
        // private init pass in addition to its main phase; the other threads
        // only have their private init pass and main phase.
        assert_eq!(
            w.threads[0].accesses.len(),
            shared_pages + private_init_lines + 100
        );
        assert_eq!(w.threads[1].accesses.len(), private_init_lines + 100);
        // The first init store is a write to the shared window.
        assert!(w.threads[0].accesses[0].write);
        assert!(w.threads[0].accesses[0].vaddr.raw() >= SHARED_BASE);
    }

    #[test]
    fn spread_init_touches_every_shared_page_exactly_once() {
        let bench = Benchmark::Barnes;
        let profile = bench.profile();
        let gen = TraceGenerator::new(4, 0, 5);
        let w = gen.generate(bench);
        let shared_pages = (profile.shared_footprint_kb() * 1024).div_ceil(PAGE_BYTES);
        let mut touched: HashSet<u64> = HashSet::new();
        for t in &w.threads {
            for a in &t.accesses {
                if a.vaddr.raw() >= SHARED_BASE {
                    touched.insert(a.vaddr.page().raw());
                }
            }
        }
        assert_eq!(touched.len() as u64, shared_pages);
    }

    #[test]
    fn private_init_pass_is_one_load_per_line() {
        let bench = Benchmark::OceanContiguous;
        let profile = bench.profile();
        let w = TraceGenerator::new(2, 0, 5).generate(bench);
        let init_lines = profile.private_init_kb * 1024 / 64;
        for t in &w.threads {
            let private_init: Vec<_> = t
                .accesses
                .iter()
                .filter(|a| a.vaddr.raw() < SHARED_BASE)
                .collect();
            assert_eq!(private_init.len() as u64, init_lines);
            assert!(private_init.iter().all(|a| !a.write));
            // Every access touches a distinct cache line.
            let lines: HashSet<u64> = private_init.iter().map(|a| a.vaddr.raw() / 64).collect();
            assert_eq!(lines.len() as u64, init_lines);
        }
    }

    #[test]
    fn write_fraction_is_roughly_respected() {
        let w = TraceGenerator::new(2, 20_000, 3).generate(Benchmark::OceanContiguous);
        let profile = Benchmark::OceanContiguous.profile();
        // Skip the init stores (all writes) by looking at the second thread
        // of a spread-init profile only beyond its init accesses.
        let t = &w.threads[1];
        let init_len = t.accesses.len() - 20_000;
        let main = &t.accesses[init_len..];
        let writes = main.iter().filter(|a| a.write).count() as f64;
        let frac = writes / main.len() as f64;
        // The observed fraction blends the private and shared write
        // fractions according to the shared fraction.
        let expected = profile.shared_fraction * profile.shared_write_fraction
            + (1.0 - profile.shared_fraction) * profile.write_fraction;
        assert!(
            (frac - expected).abs() < 0.02,
            "write fraction {frac} vs expected {expected}"
        );
    }

    #[test]
    fn streaming_region_addresses_wrap_within_region() {
        let w = TraceGenerator::new(1, 50_000, 11).generate(Benchmark::X264);
        let profile = Benchmark::X264.profile();
        let stream_base = SHARED_BASE + SHARED_STREAM_OFFSET;
        let stream_bytes = profile.shared_stream_kb * 1024;
        for a in &w.threads[0].accesses {
            let addr = a.vaddr.raw();
            if addr >= stream_base {
                assert!(addr < stream_base + stream_bytes);
            }
        }
    }

    #[test]
    fn kv_store_traffic_is_skewed_shared_and_line_aligned() {
        let bench = Benchmark::KvStore;
        let profile = bench.profile();
        let w = TraceGenerator::new(4, 20_000, 17).generate(bench);
        assert_eq!(w.name, "kv-store");
        let store_base = SHARED_BASE + SHARED_STREAM_OFFSET;
        let store_bytes = profile.shared_stream_kb * 1024;
        let index_bytes = profile.shared_hot_kb * 1024;
        let t = &w.threads[1]; // thread 0 carries no extra init in spread mode
        let init_len = t.accesses.len() - 20_000;
        let main = &t.accesses[init_len..];

        // Shared fraction holds, and every shared access stays in its
        // region, aligned to a cache line (records) as advertised.
        let mut shared = 0usize;
        let mut line_counts = std::collections::HashMap::<u64, u32>::new();
        for a in main {
            let addr = a.vaddr.raw();
            if addr >= SHARED_BASE {
                shared += 1;
                if addr >= store_base {
                    assert!(addr < store_base + store_bytes);
                    assert_eq!(addr % 64, 0);
                    *line_counts.entry(addr).or_default() += 1;
                } else {
                    assert!(addr < SHARED_BASE + index_bytes);
                }
            }
        }
        let frac = shared as f64 / main.len() as f64;
        assert!((frac - profile.shared_fraction).abs() < 0.02, "{frac}");

        // Zipf skew: the busiest 1% of touched value lines absorb far
        // more than 1% of the record traffic.
        let mut counts: Vec<u32> = line_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u32 = counts.iter().sum();
        let top: u32 = counts[..counts.len().div_ceil(100)].iter().sum();
        assert!(
            f64::from(top) > 0.1 * f64::from(total),
            "top 1% of lines got {top} of {total} record accesses — not skewed"
        );
    }

    #[test]
    fn kv_hot_set_drifts_between_epochs() {
        // The hot window's span exceeds the per-epoch drift stride, so
        // neighbouring epochs overlap by design (popularity churns, it
        // does not teleport). Compare epochs far enough apart that their
        // windows cannot overlap at all.
        let bench = Benchmark::KvStore;
        let profile = bench.profile();
        let store_bytes = profile.shared_stream_kb * 1024;
        let hot_span = (store_bytes / 32).max(64);
        let distinct_epochs = 2 + (hot_span / (64 * 1024)) as usize; // far enough to clear the span
        let ops = 4096 * (distinct_epochs + 1);
        let w = TraceGenerator::new(1, ops, 23).generate(bench);
        let t = &w.threads[0];
        let main = &t.accesses[t.accesses.len() - ops..];
        let store_base = SHARED_BASE + SHARED_STREAM_OFFSET;
        let record_lines = |range: std::ops::Range<usize>| -> std::collections::HashSet<u64> {
            main[range]
                .iter()
                .filter(|a| a.vaddr.raw() >= store_base)
                .map(|a| a.vaddr.raw())
                .collect()
        };
        let early = record_lines(0..4096);
        let late = record_lines(4096 * distinct_epochs..ops);
        // The hot sets moved: most heavily-hit lines of the first epoch
        // are no longer being hit in the late epoch.
        let overlap = early.intersection(&late).count();
        assert!(
            (overlap as f64) < 0.5 * early.len() as f64,
            "hot set did not drift: {overlap} of {} early lines still hot",
            early.len()
        );
    }

    #[test]
    fn kv_generation_is_deterministic_and_seed_sensitive() {
        let a = TraceGenerator::new(2, 2_000, 5).generate(Benchmark::KvStore);
        let b = TraceGenerator::new(2, 2_000, 5).generate(Benchmark::KvStore);
        let c = TraceGenerator::new(2, 2_000, 6).generate(Benchmark::KvStore);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.threads.len(), 2);
        assert_eq!(a.cores_required(), 2);
    }

    #[test]
    fn mem_access_constructors() {
        assert!(!MemAccess::load(64).write);
        assert!(MemAccess::store(64).write);
        assert_eq!(MemAccess::load(64).vaddr.raw(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        TraceGenerator::new(0, 10, 1);
    }

    #[test]
    fn accessors() {
        let gen = TraceGenerator::new(8, 1000, 4);
        assert_eq!(gen.num_threads(), 8);
        assert_eq!(gen.accesses_per_thread(), 1000);
    }
}
