//! On-chip interconnection network model for the FtDirCMP simulator.
//!
//! Models the network assumed by the paper's base architecture (§2): a 2D
//! mesh with dimension-ordered (XY) routing, point-to-point **ordered**
//! delivery, virtual-channel classes, finite link bandwidth with contention,
//! and per-hop router latency. An optional adaptive-routing mode provides the
//! *unordered* network of the paper's extension (§2, its reference 6).
//!
//! The network is also where transient faults live (§3 fault model): a
//! message is either delivered intact or dropped — corruption is detected by
//! a per-message CRC at the receiver and the message is discarded, which is
//! indistinguishable from a loss. [`FaultInjector`] is the one pipeline that
//! decides it (DESIGN.md §12): per message, the paper's lottery (isolated or
//! bursty losses at a rate per million messages), an exact drop schedule
//! and class targeting; per link, the **correlated** faults of a
//! [`FaultDomainConfig`] — Gilbert–Elliott channels, scheduled link flaps,
//! router brown-outs and region bursts, with adaptive routing steering
//! around hard-down links.
//!
//! The mesh is a *timing and fault oracle*, not an active component: the
//! protocol simulator calls [`Mesh::send`] and receives either the delivery
//! cycle (to schedule the arrival event) or a drop notice.
//!
//! # Example
//!
//! ```
//! use ftdircmp_noc::{Mesh, MeshConfig, RouterId, VcClass};
//! use ftdircmp_sim::{Cycle, DetRng};
//!
//! let mut mesh = Mesh::new(MeshConfig::default(), DetRng::from_seed(1));
//! let out = mesh.send(Cycle::ZERO, RouterId::new(0), RouterId::new(15), 8, VcClass::Request);
//! let at = out.delivered_at().expect("no faults configured");
//! assert!(at > Cycle::ZERO);
//! ```

mod domain;
mod fault;
mod mesh;
mod stats;
mod topology;

pub use domain::{
    link_decision, FaultConfigError, FaultDomainConfig, FaultEvent, LinkChannel, LinkChannelConfig,
    DEFAULT_DEGRADED_DROP,
};
pub use fault::{FaultConfig, FaultInjector};
pub use mesh::{Mesh, MeshConfig, RoutingMode, SendOutcome};
pub use stats::{DropCause, NocStats};
pub use topology::{Coord, Direction, LinkId, Route, RouterId, Topology};

/// Virtual-channel classes used by the coherence protocols.
///
/// DirCMP uses the first four; FtDirCMP requires **two additional virtual
/// channels** (paper §3.6) for the ownership acknowledgments and the
/// fault-recovery ping traffic, so that recovery messages can never be
/// blocked by the very traffic they are recovering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VcClass {
    /// L1→L2 / L2→memory requests (`GetS`, `GetX`, `Put`).
    Request,
    /// Directory-to-owner forwards and invalidations (`Inv`, forwarded gets).
    Forward,
    /// Data and control responses (`Data`, `DataEx`, `Ack`, `WbAck`).
    Response,
    /// Completion notifications (`Unblock`, `UnblockEx`, `WbData`, `WbNoData`).
    Unblock,
    /// FtDirCMP only: ownership acknowledgments (`AckO`, `AckBD`).
    OwnershipAck,
    /// FtDirCMP only: fault-recovery pings (`UnblockPing`, `WbPing`,
    /// `WbCancel`, `OwnershipPing`, `NackO`).
    Ping,
}

impl VcClass {
    /// All classes, in index order.
    pub const ALL: [VcClass; 6] = [
        VcClass::Request,
        VcClass::Forward,
        VcClass::Response,
        VcClass::Unblock,
        VcClass::OwnershipAck,
        VcClass::Ping,
    ];

    /// Dense index for array-backed per-class state.
    pub fn index(self) -> usize {
        match self {
            VcClass::Request => 0,
            VcClass::Forward => 1,
            VcClass::Response => 2,
            VcClass::Unblock => 3,
            VcClass::OwnershipAck => 4,
            VcClass::Ping => 5,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            VcClass::Request => "request",
            VcClass::Forward => "forward",
            VcClass::Response => "response",
            VcClass::Unblock => "unblock",
            VcClass::OwnershipAck => "ownership",
            VcClass::Ping => "ping",
        }
    }
}

impl std::fmt::Display for VcClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for c in VcClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn labels_are_nonempty_and_distinct() {
        let labels: Vec<&str> = VcClass::ALL.iter().map(|c| c.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            assert!(!a.is_empty());
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
