//! Coherence requests arriving at a home directory.

use allarm_cache::AccessOutcome;
use allarm_types::addr::LineAddr;
use allarm_types::ids::{CoreId, NodeId};
use std::fmt;

/// The kind of coherence transaction a core issues when its private
/// hierarchy cannot satisfy an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read miss: fetch a readable copy (GetS).
    GetS,
    /// Write miss: fetch an exclusive, writable copy (GetX / read-for-
    /// ownership).
    GetX,
    /// Write hit on a read-only copy: request ownership without data.
    Upgrade,
}

impl RequestKind {
    /// The request an access needs from the line's home directory, given
    /// where [`allarm_cache::CoreCaches::access`] found the line: an
    /// upgrade for a store that hit a read-only copy, nothing for any other
    /// hit, and a GetX or GetS for a store or load miss.
    pub fn for_access(outcome: AccessOutcome, write: bool) -> Option<RequestKind> {
        match outcome {
            AccessOutcome::L1Hit { upgrade } | AccessOutcome::L2Hit { upgrade } => {
                upgrade.then_some(RequestKind::Upgrade)
            }
            AccessOutcome::Miss if write => Some(RequestKind::GetX),
            AccessOutcome::Miss => Some(RequestKind::GetS),
        }
    }

    /// True if the transaction grants write permission.
    pub fn is_write(self) -> bool {
        matches!(self, RequestKind::GetX | RequestKind::Upgrade)
    }

    /// True if the requester needs the line's data delivered (an upgrade
    /// already has the data).
    pub fn needs_data(self) -> bool {
        !matches!(self, RequestKind::Upgrade)
    }

    /// Short protocol mnemonic.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::GetS => "GetS",
            RequestKind::GetX => "GetX",
            RequestKind::Upgrade => "Upg",
        }
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A request delivered to the home directory of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceRequest {
    /// The physical cache line being requested.
    pub line: LineAddr,
    /// The transaction kind.
    pub kind: RequestKind,
    /// The core issuing the request.
    pub requester: CoreId,
    /// The node the requesting core belongs to (its affinity domain).
    pub requester_node: NodeId,
}

impl CoherenceRequest {
    /// Creates a request.
    pub fn new(
        line: LineAddr,
        kind: RequestKind,
        requester: CoreId,
        requester_node: NodeId,
    ) -> Self {
        CoherenceRequest {
            line,
            kind,
            requester,
            requester_node,
        }
    }

    /// True if the requester lives in the directory's own affinity domain.
    pub fn is_local_to(&self, home: NodeId) -> bool {
        self.requester_node == home
    }
}

impl fmt::Display for CoherenceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} from {} ({})",
            self.kind, self.line, self.requester, self.requester_node
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_and_data_flags() {
        assert!(!RequestKind::GetS.is_write());
        assert!(RequestKind::GetX.is_write());
        assert!(RequestKind::Upgrade.is_write());
        assert!(RequestKind::GetS.needs_data());
        assert!(RequestKind::GetX.needs_data());
        assert!(!RequestKind::Upgrade.needs_data());
    }

    /// Every outcome × load/store maps to its request. The hierarchy's own
    /// table (`allarm_cache::hierarchy`) maps each resident state and
    /// level to its outcome.
    #[test]
    fn for_access_table() {
        use AccessOutcome::{L1Hit, L2Hit, Miss};
        use RequestKind::{GetS, GetX, Upgrade};
        // (outcome, store, request); a load never finds `upgrade` set.
        let rows = [
            (L1Hit { upgrade: false }, false, None),
            (L1Hit { upgrade: false }, true, None),
            (L1Hit { upgrade: true }, true, Some(Upgrade)),
            (L2Hit { upgrade: false }, false, None),
            (L2Hit { upgrade: false }, true, None),
            (L2Hit { upgrade: true }, true, Some(Upgrade)),
            (Miss, false, Some(GetS)),
            (Miss, true, Some(GetX)),
        ];
        for (outcome, write, request) in rows {
            assert_eq!(
                RequestKind::for_access(outcome, write),
                request,
                "{outcome:?}, store {write}"
            );
        }
    }

    #[test]
    fn locality_check() {
        let req = CoherenceRequest::new(
            LineAddr::new(10),
            RequestKind::GetS,
            CoreId::new(3),
            NodeId::new(3),
        );
        assert!(req.is_local_to(NodeId::new(3)));
        assert!(!req.is_local_to(NodeId::new(4)));
    }

    #[test]
    fn display_is_informative() {
        let req = CoherenceRequest::new(
            LineAddr::new(0xff),
            RequestKind::GetX,
            CoreId::new(1),
            NodeId::new(1),
        );
        let text = req.to_string();
        assert!(text.contains("GetX"));
        assert!(text.contains("core1"));
        assert_eq!(RequestKind::Upgrade.to_string(), "Upg");
    }
}
