//! Sparse directory (probe filter), Hammer-style directory controller and the
//! ALLARM allocate-on-remote-miss policy.
//!
//! This crate contains the paper's primary contribution and the directory
//! substrate it modifies:
//!
//! * [`ProbeFilter`] — a set-associative sparse directory with 2x L2
//!   coverage, as deployed in AMD Hammer ("HT Assist") systems, its
//!   entries' sharer words sized for the machine when it is built;
//! * [`AllocationPolicy`] — when a directory request misses in the probe
//!   filter, should an entry be allocated? The [`AllocationPolicy::Baseline`]
//!   always allocates; [`AllocationPolicy::Allarm`] allocates **only on a
//!   remote miss**, which is the whole of the paper's idea;
//! * [`DirectoryController`] — the per-node controller that looks up the
//!   probe filter once per request, updating the entry through the
//!   [`PfSlot`] the lookup returns, orchestrates probes, invalidations,
//!   DRAM accesses and data returns over the [`allarm_noc::Network`], and
//!   implements the ALLARM local-probe flow (with its latency-hiding
//!   behaviour, Section II-D of the paper) when a remote miss allocates.
//!
//! The controller is decoupled from the rest of the machine through the
//! [`SystemAccess`] trait, which the full-system simulator in `allarm-core`
//! implements over its caches, network and DRAM.
//!
//! # Examples
//!
//! Constructing a probe filter and exercising the allocation policies:
//!
//! ```
//! use allarm_coherence::{AllocationPolicy, ProbeFilter};
//! use allarm_types::{config::ProbeFilterConfig, ids::{CoreId, NodeId}, addr::LineAddr};
//!
//! let mut pf = ProbeFilter::new(&ProbeFilterConfig::new(32 * 1024, 4));
//! assert!(pf.lookup(LineAddr::new(7)).is_none());
//! let (slot, _victim) = pf.allocate(LineAddr::new(7), CoreId::new(3));
//! assert_eq!(pf.lookup(LineAddr::new(7)), Some(slot));
//! assert_eq!(pf.entry(slot).owner, CoreId::new(3));
//!
//! // The ALLARM policy only allocates for remote requesters.
//! let home = NodeId::new(2);
//! assert!(!AllocationPolicy::Allarm.should_allocate(NodeId::new(2), home));
//! assert!(AllocationPolicy::Allarm.should_allocate(NodeId::new(5), home));
//! assert!(AllocationPolicy::Baseline.should_allocate(NodeId::new(2), home));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod policy;
pub mod probe_filter;
pub mod request;
pub mod shard;
pub mod sharers;

pub use controller::{
    DirectoryController, DirectoryControllerState, DirectoryResponse, DirectoryStats, SystemAccess,
};
pub use policy::AllocationPolicy;
pub use probe_filter::{
    PfEntry, PfEntryView, PfSlot, PfSlotState, PfStats, ProbeFilter, ProbeFilterState,
};
pub use request::{CoherenceRequest, RequestKind};
pub use shard::{CoherenceEvent, CoherenceOp, CoherenceReply, DirectoryNode, DirectoryNodeState};
pub use sharers::{SharerSet, SharerView};
