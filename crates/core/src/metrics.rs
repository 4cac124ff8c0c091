//! Simulation reports and baseline-vs-ALLARM comparisons.

use crate::batch::csv_escape;
use allarm_energy::DynamicEnergy;
use allarm_types::stats::{normalized, ratio};
use allarm_types::Nanos;
use serde::{Deserialize, Serialize};

/// Every metric the paper's figures draw on, for a single simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Allocation policy name (`"baseline"` or `"allarm"`).
    pub policy: String,
    /// Probe-filter coverage per node, in bytes.
    pub pf_coverage_bytes: u64,
    /// Simulated execution time (the makespan over all cores).
    pub runtime: Nanos,
    /// Total memory references replayed.
    pub total_accesses: u64,
    /// References that hit in an L1 data cache.
    pub l1_hits: u64,
    /// References that hit in a private L2.
    pub l2_hits: u64,
    /// References that missed the whole private hierarchy (Fig. 3e).
    pub l2_misses: u64,
    /// Requests processed by the directory controllers.
    pub directory_requests: u64,
    /// Directory requests from the directory's own affinity domain (Fig. 2).
    pub local_requests: u64,
    /// Directory requests from remote affinity domains (Fig. 2).
    pub remote_requests: u64,
    /// Probe-filter entries allocated.
    pub pf_allocations: u64,
    /// Probe-filter evictions (Fig. 3b, Fig. 4b/4e).
    pub pf_evictions: u64,
    /// Coherence messages sent processing probe-filter evictions (Fig. 3d).
    pub eviction_messages: u64,
    /// Cache copies lost to probe-filter eviction back-invalidations.
    pub eviction_invalidations: u64,
    /// Misses for which ALLARM skipped allocation.
    pub allarm_allocation_skips: u64,
    /// Total bytes moved on the on-chip network (Fig. 3c, Fig. 4c/4f).
    pub noc_bytes: u64,
    /// Total messages on the on-chip network.
    pub noc_messages: u64,
    /// DRAM line reads.
    pub dram_reads: u64,
    /// DRAM line writes.
    pub dram_writes: u64,
    /// ALLARM probes of the home node's local core (remote misses only).
    pub local_probes: u64,
    /// Local probes that found the line cached by the local core.
    pub local_probe_hits: u64,
    /// Local probes that stayed off the critical path (Fig. 3g).
    pub local_probes_hidden: u64,
    /// Read misses served by the node's shared LLC slice without a
    /// directory transaction. Zero on machines without an LLC.
    #[serde(default)]
    pub llc_hits: u64,
    /// Read misses that consulted the local slice and fell through to the
    /// home directory.
    #[serde(default)]
    pub llc_misses: u64,
    /// Clean capacity victims dropped from the LLC slices.
    #[serde(default)]
    pub llc_evictions: u64,
    /// Slice lines removed by directory-initiated invalidations (ownership
    /// transfers and probe-filter evictions).
    #[serde(default)]
    pub llc_invalidations: u64,
    /// Dynamic energy consumed by the NoC, probe filters and LLC slices
    /// (Fig. 3f reports the first two).
    pub energy: DynamicEnergy,
    /// Barrier-to-barrier rounds the sharded kernel executed. Miss-window
    /// batching exists to shrink this: the deeper the windows, the more
    /// coherence traffic each barrier crossing carries. Thread-count
    /// invariant, like every other field.
    #[serde(default)]
    pub rounds_executed: u64,
    /// Coherence events drained through the home directories, summed over
    /// rounds (requests plus eviction notices).
    #[serde(default)]
    pub events_merged: u64,
    /// Deepest in-flight miss window any core reached
    /// (≤ `miss_window.depth`).
    #[serde(default)]
    pub max_window_depth: u32,
    /// Provenance: [`allarm_workloads::Workload::checksum`] of the replayed
    /// reference stream. For a trace-file replay this equals the checksum
    /// recorded in the file's header, so an externally-sourced run is
    /// verifiable — and a replay of a recorded workload produces a report
    /// byte-identical to the direct run's.
    pub workload_checksum: u64,
}

impl SimReport {
    /// The columns of [`SimReport::csv_row`], in order (the
    /// [`crate::batch::CsvFileSink`] header).
    pub const CSV_HEADER: &'static str = "workload,policy,pf_coverage_bytes,runtime_ns,\
         total_accesses,l1_hits,l2_hits,l2_misses,directory_requests,local_requests,\
         remote_requests,pf_allocations,pf_evictions,eviction_messages,\
         eviction_invalidations,allarm_allocation_skips,noc_bytes,noc_messages,\
         dram_reads,dram_writes,local_probes,local_probe_hits,local_probes_hidden,\
         llc_hits,llc_misses,llc_evictions,llc_invalidations,\
         noc_pj,probe_filter_pj,llc_pj,rounds_executed,events_merged,max_window_depth,\
         workload_checksum";

    /// Renders the report as one flat CSV row matching
    /// [`SimReport::CSV_HEADER`]. The workload and policy names are quoted
    /// when needed: a trace replay takes its workload name from the trace
    /// header, and a text trace's `name` directive may hold commas.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:016x}",
            csv_escape(&self.workload),
            csv_escape(&self.policy),
            self.pf_coverage_bytes,
            self.runtime.as_u64(),
            self.total_accesses,
            self.l1_hits,
            self.l2_hits,
            self.l2_misses,
            self.directory_requests,
            self.local_requests,
            self.remote_requests,
            self.pf_allocations,
            self.pf_evictions,
            self.eviction_messages,
            self.eviction_invalidations,
            self.allarm_allocation_skips,
            self.noc_bytes,
            self.noc_messages,
            self.dram_reads,
            self.dram_writes,
            self.local_probes,
            self.local_probe_hits,
            self.local_probes_hidden,
            self.llc_hits,
            self.llc_misses,
            self.llc_evictions,
            self.llc_invalidations,
            self.energy.noc_pj,
            self.energy.probe_filter_pj,
            self.energy.llc_pj,
            self.rounds_executed,
            self.events_merged,
            self.max_window_depth,
            self.workload_checksum,
        )
    }

    /// Fraction of directory requests issued by the directory's local core
    /// (the quantity plotted per benchmark in Fig. 2).
    pub fn local_fraction(&self) -> f64 {
        ratio(self.local_requests, self.directory_requests)
    }

    /// Fraction of directory requests issued by remote cores.
    pub fn remote_fraction(&self) -> f64 {
        ratio(self.remote_requests, self.directory_requests)
    }

    /// Average coherence messages per probe-filter eviction (Fig. 3d).
    pub fn messages_per_eviction(&self) -> f64 {
        ratio(self.eviction_messages, self.pf_evictions)
    }

    /// Fraction of ALLARM local probes that stayed off the critical path
    /// (Fig. 3g). Zero for baseline runs, which perform no local probes.
    pub fn hidden_probe_fraction(&self) -> f64 {
        ratio(self.local_probes_hidden, self.local_probes)
    }

    /// L1 + L2 hit rate over all references.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.l1_hits + self.l2_hits, self.total_accesses)
    }

    /// L2 miss rate over all references.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.total_accesses)
    }

    /// Fraction of slice-consulting read misses served by the node's
    /// shared LLC slice. Zero on machines without an LLC.
    pub fn llc_hit_rate(&self) -> f64 {
        ratio(self.llc_hits, self.llc_hits + self.llc_misses)
    }
}

/// A baseline run and an ALLARM run of the same workload on the same
/// machine, with the derived ratios the paper plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// The baseline-policy run.
    pub baseline: SimReport,
    /// The ALLARM-policy run.
    pub allarm: SimReport,
}

impl Comparison {
    /// Creates a comparison from the two runs.
    ///
    /// # Panics
    ///
    /// Panics if the two reports are for different workloads.
    pub fn new(baseline: SimReport, allarm: SimReport) -> Self {
        assert_eq!(
            baseline.workload, allarm.workload,
            "comparison requires the same workload on both sides"
        );
        Comparison { baseline, allarm }
    }

    /// Speedup of ALLARM over the baseline (Fig. 3a): values above 1.0 mean
    /// ALLARM is faster.
    pub fn speedup(&self) -> f64 {
        if self.allarm.runtime.as_u64() == 0 {
            1.0
        } else {
            self.baseline.runtime.as_f64() / self.allarm.runtime.as_f64()
        }
    }

    /// Probe-filter evictions under ALLARM, normalised to the baseline
    /// (Fig. 3b): below 1.0 means fewer evictions.
    pub fn normalized_evictions(&self) -> f64 {
        normalized(
            self.allarm.pf_evictions as f64,
            self.baseline.pf_evictions as f64,
        )
    }

    /// Network traffic in bytes under ALLARM, normalised to the baseline
    /// (Fig. 3c).
    pub fn normalized_traffic(&self) -> f64 {
        normalized(self.allarm.noc_bytes as f64, self.baseline.noc_bytes as f64)
    }

    /// L2 misses under ALLARM, normalised to the baseline (Fig. 3e).
    pub fn normalized_l2_misses(&self) -> f64 {
        normalized(self.allarm.l2_misses as f64, self.baseline.l2_misses as f64)
    }

    /// NoC dynamic energy under ALLARM, normalised to the baseline (the
    /// "NoC" bars of Fig. 3f).
    pub fn normalized_noc_energy(&self) -> f64 {
        normalized(self.allarm.energy.noc_pj, self.baseline.energy.noc_pj)
    }

    /// Probe-filter dynamic energy under ALLARM, normalised to the baseline
    /// (the "PF" bars of Fig. 3f).
    pub fn normalized_pf_energy(&self) -> f64 {
        normalized(
            self.allarm.energy.probe_filter_pj,
            self.baseline.energy.probe_filter_pj,
        )
    }

    /// Average messages per probe-filter eviction in the baseline run
    /// (Fig. 3d is measured on the baseline system).
    pub fn baseline_messages_per_eviction(&self) -> f64 {
        self.baseline.messages_per_eviction()
    }

    /// Fraction of ALLARM remote requests whose local probe stayed off the
    /// critical path (Fig. 3g).
    pub fn hidden_probe_fraction(&self) -> f64 {
        self.allarm.hidden_probe_fraction()
    }

    /// The local-access fraction of the baseline run (Fig. 2; the paper
    /// measures it on the unmodified system).
    pub fn local_fraction(&self) -> f64 {
        self.baseline.local_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, policy: &str, runtime: u64) -> SimReport {
        SimReport {
            workload: workload.to_string(),
            policy: policy.to_string(),
            pf_coverage_bytes: 512 * 1024,
            runtime: Nanos::new(runtime),
            total_accesses: 1000,
            l1_hits: 800,
            l2_hits: 100,
            l2_misses: 100,
            directory_requests: 100,
            local_requests: 40,
            remote_requests: 60,
            pf_allocations: 90,
            pf_evictions: 50,
            eviction_messages: 150,
            eviction_invalidations: 30,
            allarm_allocation_skips: 0,
            noc_bytes: 10_000,
            noc_messages: 400,
            dram_reads: 90,
            dram_writes: 10,
            local_probes: 0,
            local_probe_hits: 0,
            local_probes_hidden: 0,
            llc_hits: 30,
            llc_misses: 70,
            llc_evictions: 5,
            llc_invalidations: 2,
            energy: DynamicEnergy {
                noc_pj: 100.0,
                probe_filter_pj: 60.0,
                llc_pj: 20.0,
            },
            rounds_executed: 12,
            events_merged: 250,
            max_window_depth: 8,
            workload_checksum: 0xdead_beef_0123_4567,
        }
    }

    #[test]
    fn csv_row_matches_header_arity_and_carries_the_checksum() {
        let r = report("barnes", "baseline", 10);
        let row = r.csv_row();
        assert_eq!(
            row.split(',').count(),
            SimReport::CSV_HEADER.split(',').count()
        );
        assert!(row.ends_with("deadbeef01234567"), "{row}");
    }

    #[test]
    fn fractions_and_rates() {
        let r = report("barnes", "baseline", 1_000_000);
        assert!((r.local_fraction() - 0.4).abs() < 1e-12);
        assert!((r.remote_fraction() - 0.6).abs() < 1e-12);
        assert!((r.messages_per_eviction() - 3.0).abs() < 1e-12);
        assert!((r.hit_rate() - 0.9).abs() < 1e-12);
        assert!((r.miss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(r.hidden_probe_fraction(), 0.0);
        assert!((r.llc_hit_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn comparison_ratios() {
        let baseline = report("barnes", "baseline", 1_000_000);
        let mut allarm = report("barnes", "allarm", 900_000);
        allarm.pf_evictions = 25;
        allarm.noc_bytes = 9_000;
        allarm.l2_misses = 90;
        allarm.energy = DynamicEnergy {
            noc_pj: 90.0,
            probe_filter_pj: 45.0,
            llc_pj: 0.0,
        };
        let cmp = Comparison::new(baseline, allarm);
        assert!((cmp.speedup() - 1.0 / 0.9).abs() < 1e-9);
        assert!((cmp.normalized_evictions() - 0.5).abs() < 1e-12);
        assert!((cmp.normalized_traffic() - 0.9).abs() < 1e-12);
        assert!((cmp.normalized_l2_misses() - 0.9).abs() < 1e-12);
        assert!((cmp.normalized_noc_energy() - 0.9).abs() < 1e-12);
        assert!((cmp.normalized_pf_energy() - 0.75).abs() < 1e-12);
        assert!((cmp.local_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same workload")]
    fn mismatched_workloads_rejected() {
        let a = report("barnes", "baseline", 10);
        let b = report("cholesky", "allarm", 10);
        Comparison::new(a, b);
    }

    #[test]
    fn zero_baseline_evictions_with_zero_allarm_is_parity() {
        let mut baseline = report("x", "baseline", 10);
        let mut allarm = report("x", "allarm", 10);
        baseline.pf_evictions = 0;
        allarm.pf_evictions = 0;
        let cmp = Comparison::new(baseline, allarm);
        assert_eq!(cmp.normalized_evictions(), 1.0);
        assert_eq!(cmp.speedup(), 1.0);
    }
}
