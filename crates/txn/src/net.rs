//! The network-delay seam.
//!
//! The simulation runs every node in one process; protocol messages are
//! method calls. To keep the *relative* costs of the paper's testbed (2PC
//! round trips, propagation sends, Squall pulls), cross-node interactions
//! charge themselves a hop through a [`Network`] implementation.

use std::time::Duration;

use remus_common::{time, NodeId};

/// Charges simulated network hops.
pub trait Network: Send + Sync {
    /// One message from `from` to `to`. Local delivery must be free.
    fn hop(&self, from: NodeId, to: NodeId);
}

/// Zero-latency network for unit tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoNetwork;

impl Network for NoNetwork {
    fn hop(&self, _from: NodeId, _to: NodeId) {}
}

/// Uniform one-way latency between distinct nodes.
#[derive(Debug, Clone, Copy)]
pub struct DelayNetwork {
    latency: Duration,
}

impl DelayNetwork {
    /// A network with the given one-way latency.
    pub fn new(latency: Duration) -> Self {
        DelayNetwork { latency }
    }
}

impl Network for DelayNetwork {
    fn hop(&self, from: NodeId, to: NodeId) {
        if from != to {
            time::charge(self.latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn local_hops_are_free() {
        let net = DelayNetwork::new(Duration::from_millis(50));
        let t = Instant::now();
        net.hop(NodeId(1), NodeId(1));
        assert!(t.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn remote_hops_charge_latency() {
        let net = DelayNetwork::new(Duration::from_millis(20));
        let t = Instant::now();
        net.hop(NodeId(1), NodeId(2));
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn no_network_is_instant() {
        let t = Instant::now();
        NoNetwork.hop(NodeId(1), NodeId(2));
        assert!(t.elapsed() < Duration::from_millis(5));
    }
}
