//! Shared harness for controller unit tests: a [`Ctx`] backed by plain
//! vectors so a single controller can be driven in isolation and its
//! emitted effects inspected.

use ftdircmp_sim::{Cycle, DetRng};

use crate::checker::Checker;
use crate::config::SystemConfig;
use crate::ids::NodeId;
use crate::msg::{Message, MsgType};
use crate::proto::{CoreCompletion, Ctx, Outgoing, TimeoutReq};
use crate::stats::ProtocolStats;

pub(crate) struct Harness {
    pub(crate) out: Vec<Outgoing>,
    pub(crate) timeouts: Vec<TimeoutReq>,
    pub(crate) completions: Vec<CoreCompletion>,
    pub(crate) stats: ProtocolStats,
    pub(crate) checker: Checker,
    pub(crate) config: SystemConfig,
    pub(crate) now: Cycle,
}

impl Harness {
    pub(crate) fn new(config: SystemConfig) -> Self {
        Harness {
            out: Vec::new(),
            timeouts: Vec::new(),
            completions: Vec::new(),
            stats: ProtocolStats::new(),
            checker: Checker::new(true),
            config,
            now: Cycle::ZERO,
        }
    }

    pub(crate) fn ft() -> Self {
        Harness::new(SystemConfig::ftdircmp())
    }

    pub(crate) fn dircmp() -> Self {
        Harness::new(SystemConfig::dircmp())
    }

    pub(crate) fn rng(&self) -> DetRng {
        DetRng::from_seed(self.config.seed)
    }

    pub(crate) fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            now: self.now,
            out: &mut self.out,
            timeouts: &mut self.timeouts,
            completions: &mut self.completions,
            stats: &mut self.stats,
            checker: &mut self.checker,
            config: &self.config,
        }
    }

    /// All messages of `mtype` emitted so far (without draining).
    pub(crate) fn sent(&self, mtype: MsgType) -> Vec<&Message> {
        self.out
            .iter()
            .filter(|o| o.msg.mtype == mtype)
            .map(|o| &o.msg)
            .collect()
    }

    /// The single message of `mtype` emitted so far.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one exists.
    pub(crate) fn sent_one(&self, mtype: MsgType) -> Message {
        let v = self.sent(mtype);
        assert_eq!(v.len(), 1, "expected exactly one {mtype}, got {}", v.len());
        v[0].clone()
    }

    /// Asserts nothing of `mtype` was sent.
    pub(crate) fn sent_none(&self, mtype: MsgType) {
        assert!(
            self.sent(mtype).is_empty(),
            "unexpected {mtype}: {:?}",
            self.sent(mtype)
        );
    }

    /// Clears emitted messages and timeouts (keeps stats/checker).
    pub(crate) fn clear(&mut self) {
        self.out.clear();
        self.timeouts.clear();
        self.completions.clear();
    }

    /// Most recently armed timeout of the given kind for `addr`, if any.
    pub(crate) fn armed(
        &self,
        node: NodeId,
        kind: crate::proto::TimeoutKind,
    ) -> Option<TimeoutReq> {
        self.timeouts
            .iter()
            .rev()
            .find(|t| t.node == node && t.kind == kind)
            .copied()
    }
}
