//! The network façade used by the directory controller and simulator.

use crate::message::MessageClass;
use crate::stats::NocStats;
use crate::topology::Fabric;
use allarm_types::config::NocConfig;
use allarm_types::error::ConfigError;
use allarm_types::ids::NodeId;
use allarm_types::Nanos;

/// A point-to-point on-chip network with latency and traffic accounting.
///
/// Messages between a node and itself (a core talking to its own directory
/// or memory controller) traverse zero links: they cost nothing on the
/// network and add no bytes of inter-node traffic, which is exactly the
/// property ALLARM exploits for thread-local data.
///
/// # Examples
///
/// ```
/// use allarm_noc::{Network, MessageClass};
/// use allarm_types::{config::NocConfig, ids::NodeId};
///
/// let mut net = Network::new(NocConfig::mesh(2, 2));
/// let remote = net.send(NodeId::new(0), NodeId::new(3), MessageClass::Data);
/// let local = net.send(NodeId::new(1), NodeId::new(1), MessageClass::Data);
/// assert!(remote > local);
/// assert_eq!(local.as_u64(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    fabric: Fabric,
    stats: NocStats,
}

impl Network {
    /// Creates a network from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zero dimensions or concentration);
    /// [`Network::try_new`] returns the typed error instead.
    pub fn new(config: NocConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a network from its configuration, rejecting degenerate
    /// geometry with a typed error.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the fabric geometry is degenerate.
    pub fn try_new(config: NocConfig) -> Result<Self, ConfigError> {
        Ok(Network {
            fabric: Fabric::from_config(&config)?,
            config,
            stats: NocStats::new(),
        })
    }

    /// The fabric the network routes over.
    pub fn topology(&self) -> &Fabric {
        &self.fabric
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Size in bytes of a message of the given class.
    pub fn message_bytes(&self, class: MessageClass) -> u64 {
        if class.carries_data() {
            self.config.data_msg_bytes
        } else {
            self.config.control_msg_bytes
        }
    }

    /// Number of flits a message of the given class occupies.
    pub fn message_flits(&self, class: MessageClass) -> u64 {
        let bytes = self.message_bytes(class);
        bytes.div_ceil(self.config.flit_bytes)
    }

    /// Latency of a message from `src` to `dst` without recording it
    /// (useful for "what-if" critical-path calculations).
    pub fn latency(&self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        let hops = self.fabric.hops(src, dst);
        if hops == 0 {
            return Nanos::ZERO;
        }
        let bytes = self.message_bytes(class);
        // Head latency: one link traversal per hop; serialisation: the
        // message body streams over the final link at the link bandwidth.
        let head = self.config.link_latency * u64::from(hops);
        let serialisation = Nanos::new(bytes.div_ceil(self.config.link_bandwidth_bytes_per_ns));
        head + serialisation
    }

    /// Sends a message, recording its traffic, and returns its latency.
    ///
    /// Node-local messages (src == dst) cross only the local network
    /// interface: they still count toward byte traffic but traverse zero
    /// links, so they add no latency and no flit-hop (link) energy.
    pub fn send(&mut self, src: NodeId, dst: NodeId, class: MessageClass) -> Nanos {
        let hops = self.fabric.hops(src, dst);
        let bytes = self.message_bytes(class);
        let flits = self.message_flits(class);
        self.stats.record(class, bytes, hops, flits);
        self.latency(src, dst, class)
    }

    /// Sends a request/response round trip (`src -> dst -> src`), recording
    /// both messages, and returns the combined latency.
    pub fn round_trip(
        &mut self,
        src: NodeId,
        dst: NodeId,
        out_class: MessageClass,
        back_class: MessageClass,
    ) -> Nanos {
        self.send(src, dst, out_class) + self.send(dst, src, back_class)
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Resets the traffic statistics (used between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NocConfig::mesh(4, 4))
    }

    #[test]
    fn control_and_data_sizes_follow_table1() {
        let n = net();
        assert_eq!(n.message_bytes(MessageClass::Request), 8);
        assert_eq!(n.message_bytes(MessageClass::Data), 72);
        assert_eq!(n.message_flits(MessageClass::Request), 2);
        assert_eq!(n.message_flits(MessageClass::Data), 18);
    }

    #[test]
    fn latency_scales_with_hops() {
        let n = net();
        let one_hop = n.latency(NodeId::new(0), NodeId::new(1), MessageClass::Request);
        let six_hops = n.latency(NodeId::new(0), NodeId::new(15), MessageClass::Request);
        // 10 ns per hop plus 1 ns serialisation of 8 bytes at 8 B/ns.
        assert_eq!(one_hop, Nanos::new(11));
        assert_eq!(six_hops, Nanos::new(61));
    }

    #[test]
    fn data_messages_take_longer_to_serialise() {
        let n = net();
        let ctrl = n.latency(NodeId::new(0), NodeId::new(1), MessageClass::Request);
        let data = n.latency(NodeId::new(0), NodeId::new(1), MessageClass::Data);
        assert_eq!(data - ctrl, Nanos::new(8)); // 72 B vs 8 B at 8 B/ns.
    }

    #[test]
    fn local_messages_are_latency_free_but_count_bytes() {
        let mut n = net();
        let lat = n.send(NodeId::new(5), NodeId::new(5), MessageClass::Data);
        assert_eq!(lat, Nanos::ZERO);
        assert_eq!(n.stats().total_bytes(), 72);
        assert_eq!(n.stats().total_hops(), 0);
        assert_eq!(n.stats().total_flit_hops(), 0);
        assert_eq!(n.stats().total_messages(), 1);
        assert_eq!(n.stats().local_deliveries(), 1);
    }

    #[test]
    fn send_records_traffic() {
        let mut n = net();
        n.send(NodeId::new(0), NodeId::new(3), MessageClass::Request);
        n.send(NodeId::new(3), NodeId::new(0), MessageClass::Data);
        assert_eq!(n.stats().total_messages(), 2);
        assert_eq!(n.stats().total_bytes(), 8 + 72);
        assert_eq!(n.stats().bytes_of(MessageClass::Data), 72);
        assert_eq!(n.stats().hops_of(MessageClass::Request), 3);
    }

    #[test]
    fn round_trip_is_sum_of_both_directions() {
        let mut n = net();
        let rt = n.round_trip(
            NodeId::new(0),
            NodeId::new(2),
            MessageClass::Request,
            MessageClass::Data,
        );
        let expected = n.latency(NodeId::new(0), NodeId::new(2), MessageClass::Request)
            + n.latency(NodeId::new(2), NodeId::new(0), MessageClass::Data);
        assert_eq!(rt, expected);
        assert_eq!(n.stats().total_messages(), 2);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut n = net();
        n.send(NodeId::new(0), NodeId::new(1), MessageClass::Request);
        n.reset_stats();
        assert_eq!(n.stats().total_messages(), 0);
    }

    #[test]
    fn config_and_topology_accessors() {
        let n = net();
        assert_eq!(n.config().mesh_x, 4);
        assert_eq!(n.topology().num_nodes(), 16);
        assert_eq!(n.topology().name(), "mesh");
    }

    #[test]
    fn degenerate_geometry_is_a_typed_error() {
        let err = Network::try_new(NocConfig::mesh(0, 4)).unwrap_err();
        assert_eq!(err.field(), "noc.mesh");
        let err = Network::try_new(NocConfig::cmesh(4, 4, 0)).unwrap_err();
        assert_eq!(err.field(), "noc.concentration");
    }

    #[test]
    fn torus_network_shortens_edge_to_edge_latency() {
        let mesh = Network::new(NocConfig::mesh(4, 4));
        let torus = Network::new(NocConfig::torus(4, 4));
        assert_eq!(torus.topology().name(), "torus");
        // Node 0 to node 3: 3 mesh hops, 1 torus hop.
        let m = mesh.latency(NodeId::new(0), NodeId::new(3), MessageClass::Request);
        let t = torus.latency(NodeId::new(0), NodeId::new(3), MessageClass::Request);
        assert_eq!(m, Nanos::new(31));
        assert_eq!(t, Nanos::new(11));
    }

    #[test]
    fn cmesh_network_makes_same_router_traffic_free() {
        let mut n = Network::new(NocConfig::cmesh(2, 2, 4));
        assert_eq!(n.topology().num_nodes(), 16);
        // Nodes 0 and 3 share router 0: zero hops, but bytes still count.
        let lat = n.send(NodeId::new(0), NodeId::new(3), MessageClass::Data);
        assert_eq!(lat, Nanos::ZERO);
        assert_eq!(n.stats().total_bytes(), 72);
        assert_eq!(n.stats().total_hops(), 0);
    }
}
