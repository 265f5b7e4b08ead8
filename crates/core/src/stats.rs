//! Protocol-level statistics.

use ftdircmp_noc::VcClass;
use ftdircmp_stats::{Counter, Histogram};

use crate::msg::MsgType;
use crate::proto::TimeoutKind;
use crate::transitions::{Controller, ROWS_MAX};

/// Everything the evaluation section of the paper reports, collected per
/// run: traffic by message type, miss behavior, fault-tolerance activity.
#[derive(Debug, Clone)]
pub struct ProtocolStats {
    msg_sent: Vec<Counter>,
    msg_bytes: Vec<Counter>,
    /// L1 load hits.
    pub(crate) l1_load_hits: Counter,
    /// L1 store hits.
    pub(crate) l1_store_hits: Counter,
    /// L1 load misses.
    pub(crate) l1_load_misses: Counter,
    /// L1 store misses (including upgrades).
    pub(crate) l1_store_misses: Counter,
    /// L2 hits (request satisfied without going to memory).
    pub l2_hits: Counter,
    /// L2 misses (fills from memory).
    pub l2_misses: Counter,
    /// End-to-end L1 miss latency, cycles.
    pub miss_latency: Histogram,
    /// L1 writebacks initiated.
    pub l1_writebacks: Counter,
    /// L2-to-memory writebacks initiated.
    pub(crate) l2_writebacks: Counter,
    /// Directory-initiated recalls (L2 evicting a line with L1 copies).
    pub(crate) recalls: Counter,
    /// GetS requests converted to exclusive grants by the migratory
    /// optimization.
    pub migratory_grants: Counter,
    timeouts_fired: [Counter; 4],
    /// Requests reissued after a lost-request timeout.
    pub reissues: Counter,
    /// Messages discarded because their serial number was stale (§3.5).
    pub stale_discards: Counter,
    /// Timeouts that fired although nothing was lost (detected when a
    /// stale-serial message later arrives): false positives (§3.5).
    pub false_positives: Counter,
    /// Forwards deferred because the owner was in a blocked-ownership state.
    pub(crate) deferred_forwards: Counter,
    /// Requests deferred at a busy directory line.
    pub(crate) deferred_requests: Counter,
    /// L1 MSHR occupancy sampled at each miss issue.
    pub(crate) l1_mshr_occupancy: Histogram,
    /// L2 TBE occupancy sampled at each transaction start.
    pub(crate) l2_tbe_occupancy: Histogram,
    /// The table rows applied, one bit per row of each controller's table,
    /// in [`Controller::ALL`] order (the state search reports them).
    rows_fired: [[u64; ROWS_MAX / 64]; 3],
}

impl ProtocolStats {
    /// Creates zeroed statistics.
    pub(crate) fn new() -> Self {
        ProtocolStats {
            msg_sent: vec![Counter::new(); MsgType::ALL.len()],
            msg_bytes: vec![Counter::new(); MsgType::ALL.len()],
            l1_load_hits: Counter::new(),
            l1_store_hits: Counter::new(),
            l1_load_misses: Counter::new(),
            l1_store_misses: Counter::new(),
            l2_hits: Counter::new(),
            l2_misses: Counter::new(),
            miss_latency: Histogram::new(),
            l1_writebacks: Counter::new(),
            l2_writebacks: Counter::new(),
            recalls: Counter::new(),
            migratory_grants: Counter::new(),
            timeouts_fired: [Counter::new(); 4],
            reissues: Counter::new(),
            stale_discards: Counter::new(),
            false_positives: Counter::new(),
            deferred_forwards: Counter::new(),
            deferred_requests: Counter::new(),
            l1_mshr_occupancy: Histogram::new(),
            l2_tbe_occupancy: Histogram::new(),
            rows_fired: [[0; ROWS_MAX / 64]; 3],
        }
    }

    /// Records that row `row` of `c`'s table was applied.
    #[inline]
    pub(crate) fn row_fired(&mut self, c: Controller, row: u16) {
        self.rows_fired[c as usize][usize::from(row / 64)] |= 1 << (row % 64);
    }

    /// Whether row `row` of `c`'s table was ever applied.
    pub(crate) fn fired(&self, c: Controller, row: usize) -> bool {
        self.rows_fired[c as usize][row / 64] & 1 << (row % 64) != 0
    }

    /// Records an injected message of `bytes` bytes.
    pub(crate) fn record_msg(&mut self, mtype: MsgType, bytes: u32) {
        self.msg_sent[mtype.index()].incr();
        self.msg_bytes[mtype.index()].add(u64::from(bytes));
    }

    /// Records a fired timeout.
    pub(crate) fn record_timeout(&mut self, kind: TimeoutKind) {
        self.timeouts_fired[kind.index()].incr();
    }

    /// Messages sent of a given type.
    pub fn messages(&self, mtype: MsgType) -> u64 {
        self.msg_sent[mtype.index()].get()
    }

    /// Bytes sent of a given type.
    pub(crate) fn bytes(&self, mtype: MsgType) -> u64 {
        self.msg_bytes[mtype.index()].get()
    }

    /// Total messages sent.
    pub fn total_messages(&self) -> u64 {
        self.msg_sent.iter().map(|c| c.get()).sum()
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.msg_bytes.iter().map(|c| c.get()).sum()
    }

    /// Messages aggregated by virtual-channel class (the categories of the
    /// paper's Figure 4).
    pub fn messages_by_class(&self, class: VcClass) -> u64 {
        MsgType::ALL
            .iter()
            .filter(|t| t.vc_class() == class)
            .map(|t| self.messages(*t))
            .sum()
    }

    /// Bytes aggregated by virtual-channel class.
    pub fn bytes_by_class(&self, class: VcClass) -> u64 {
        MsgType::ALL
            .iter()
            .filter(|t| t.vc_class() == class)
            .map(|t| self.bytes(*t))
            .sum()
    }

    /// Timeouts fired of a given kind.
    pub fn timeouts(&self, kind: TimeoutKind) -> u64 {
        self.timeouts_fired[kind.index()].get()
    }

    /// Total timeouts fired across kinds.
    pub fn total_timeouts(&self) -> u64 {
        self.timeouts_fired.iter().map(|c| c.get()).sum()
    }

    /// Total L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.l1_load_misses.get() + self.l1_store_misses.get()
    }

    /// Total L1 accesses.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_misses() + self.l1_load_hits.get() + self.l1_store_hits.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_counters_by_type_and_class() {
        let mut s = ProtocolStats::new();
        s.record_msg(MsgType::GetS, 8);
        s.record_msg(MsgType::GetX, 8);
        s.record_msg(MsgType::Data, 72);
        s.record_msg(MsgType::AckO, 8);
        assert_eq!(s.messages(MsgType::GetS), 1);
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.total_bytes(), 96);
        assert_eq!(s.messages_by_class(VcClass::Request), 2);
        assert_eq!(s.messages_by_class(VcClass::OwnershipAck), 1);
        assert_eq!(s.bytes_by_class(VcClass::Response), 72);
    }

    #[test]
    fn timeout_counters() {
        let mut s = ProtocolStats::new();
        s.record_timeout(TimeoutKind::LostRequest);
        s.record_timeout(TimeoutKind::LostRequest);
        s.record_timeout(TimeoutKind::LostAckBd);
        assert_eq!(s.timeouts(TimeoutKind::LostRequest), 2);
        assert_eq!(s.timeouts(TimeoutKind::LostUnblock), 0);
        assert_eq!(s.total_timeouts(), 3);
    }

    #[test]
    fn l1_aggregates() {
        let mut s = ProtocolStats::new();
        s.l1_load_hits.add(10);
        s.l1_store_hits.add(5);
        s.l1_load_misses.add(2);
        s.l1_store_misses.add(3);
        assert_eq!(s.l1_misses(), 5);
        assert_eq!(s.l1_accesses(), 20);
    }
}
