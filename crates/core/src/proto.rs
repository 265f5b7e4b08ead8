//! Shared plumbing between the protocol controllers and the system driver.
//!
//! Controllers are passive state machines: they receive a message, a CPU
//! operation, or a timeout, mutate their local state, and emit effects into
//! a [`Ctx`] — outgoing messages, timeout (re)arms, and core completions.
//! The system driver turns those effects into network sends and scheduled
//! events. This keeps every controller single-threaded, deterministic and
//! unit-testable in isolation.

use ftdircmp_sim::Cycle;

use crate::checker::Checker;
use crate::config::SystemConfig;
use crate::ids::{LineAddr, NodeId};
use crate::msg::Message;
use crate::stats::ProtocolStats;

/// The fault-detection timers of FtDirCMP (paper Table 3, plus the
/// backup-side lost-data timer documented in DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeoutKind {
    /// Lost request: armed at the requester when a request is issued,
    /// disarmed when it is satisfied. Fires → reissue with a new serial.
    LostRequest,
    /// Lost unblock: armed at the responder (L2/memory) when a request is
    /// answered, disarmed when the unblock/writeback arrives. Fires →
    /// `UnblockPing`/`WbPing`.
    LostUnblock,
    /// Lost backup-deletion acknowledgment: armed when an `AckO` is sent,
    /// disarmed when the `AckBD` arrives. Fires → reissue the `AckO`.
    LostAckBd,
    /// Lost data (extension): armed when a node enters backup state,
    /// disarmed when its backup is deleted. Fires → `OwnershipPing`.
    LostData,
}

impl TimeoutKind {
    /// All kinds, in report order.
    pub const ALL: [TimeoutKind; 4] = [
        TimeoutKind::LostRequest,
        TimeoutKind::LostUnblock,
        TimeoutKind::LostAckBd,
        TimeoutKind::LostData,
    ];

    /// Dense index for array-backed counters.
    pub(crate) fn index(self) -> usize {
        match self {
            TimeoutKind::LostRequest => 0,
            TimeoutKind::LostUnblock => 1,
            TimeoutKind::LostAckBd => 2,
            TimeoutKind::LostData => 3,
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            TimeoutKind::LostRequest => "lost-request",
            TimeoutKind::LostUnblock => "lost-unblock",
            TimeoutKind::LostAckBd => "lost-ackbd",
            TimeoutKind::LostData => "lost-data",
        }
    }
}

impl std::fmt::Display for TimeoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The set of transition-table facets a controller currently holds for a
/// line (`Mb`, `IM`, … at the L1), each as its state id: the state's index in
/// [`crate::transitions::ControllerTable::states`]. At most four facets can
/// coexist on one line, so the set lives on the stack — `table_facets` is
/// called once per delivered message and must not allocate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Facets {
    buf: [u8; 4],
    len: u8,
}

impl Facets {
    /// An empty facet set.
    pub(crate) const fn new() -> Self {
        Facets {
            buf: [0; 4],
            len: 0,
        }
    }

    /// Adds a facet.
    ///
    /// # Panics
    ///
    /// Panics if more than four facets are pushed.
    pub(crate) fn push(&mut self, facet: u8) {
        self.buf[self.len as usize] = facet;
        self.len += 1;
    }
}

impl std::ops::Deref for Facets {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

/// Exponential backoff for recovery retries: attempt `n` waits
/// `base << min(n, 6)` cycles. Without backoff, a detection timeout shorter
/// than the worst-case service latency livelocks: every response arrives
/// after the next reissue already bumped the serial and is discarded as
/// stale. Backoff guarantees the window eventually exceeds any finite
/// latency, making recovery convergent for *any* positive base timeout
/// (DESIGN.md §6.4).
pub(crate) fn backoff_delay(base: u64, attempt: u32) -> u64 {
    base.saturating_mul(1u64 << attempt.min(6))
}

/// A request to arm a timeout `delay` cycles from now.
///
/// Timeouts are invalidated by generation counters rather than cancelled:
/// each (node, line, kind) slot has a `gen` that the owning controller bumps
/// whenever the timer is re-armed or becomes irrelevant; a firing with a
/// stale `gen` is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimeoutReq {
    /// Node that owns the timer.
    pub(crate) node: NodeId,
    /// Line the timer guards.
    pub(crate) addr: LineAddr,
    /// Which timer.
    pub(crate) kind: TimeoutKind,
    /// Generation at arm time.
    pub(crate) gen: u64,
    /// Cycles from now until it fires.
    pub(crate) delay: u64,
}

/// An outgoing message plus the local processing latency before it enters
/// the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Outgoing {
    /// The message to send.
    pub(crate) msg: Message,
    /// Cycles of local processing before injection.
    pub(crate) delay: u64,
}

/// Notification that a core's pending memory operation finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoreCompletion {
    /// Core whose operation completed.
    pub(crate) core: u8,
    /// Line the completed operation touched.
    pub(crate) addr: LineAddr,
    /// Whether the completed operation was a store.
    pub(crate) was_store: bool,
    /// Extra cycles before the core may proceed.
    pub(crate) delay: u64,
}

/// Effect sink handed to controllers.
#[derive(Debug)]
pub(crate) struct Ctx<'a> {
    /// Current simulated time.
    pub(crate) now: Cycle,
    /// Messages to inject into the network.
    pub(crate) out: &'a mut Vec<Outgoing>,
    /// Timeouts to arm.
    pub(crate) timeouts: &'a mut Vec<TimeoutReq>,
    /// Core completions to deliver.
    pub(crate) completions: &'a mut Vec<CoreCompletion>,
    /// Protocol statistics.
    pub(crate) stats: &'a mut ProtocolStats,
    /// Global invariant checker.
    pub(crate) checker: &'a mut Checker,
    /// System configuration.
    pub(crate) config: &'a SystemConfig,
}

impl Ctx<'_> {
    /// Queues `msg` for injection after `delay` cycles of local processing.
    pub(crate) fn send(&mut self, msg: Message, delay: u64) {
        self.out.push(Outgoing { msg, delay });
    }

    /// Arms a timeout.
    pub(crate) fn arm_timeout(
        &mut self,
        node: NodeId,
        addr: LineAddr,
        kind: TimeoutKind,
        gen: u64,
        delay: u64,
    ) {
        self.timeouts.push(TimeoutReq {
            node,
            addr,
            kind,
            gen,
            delay,
        });
    }

    /// Notifies that `core`'s pending memory operation on `addr` completed.
    pub(crate) fn complete(&mut self, core: u8, addr: LineAddr, was_store: bool, delay: u64) {
        self.completions.push(CoreCompletion {
            core,
            addr,
            was_store,
            delay,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_kind_indices_dense() {
        for (i, k) in TimeoutKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn labels_distinct() {
        let labels: Vec<&str> = TimeoutKind::ALL.iter().map(|k| k.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(TimeoutKind::LostRequest.to_string(), "lost-request");
    }
}
