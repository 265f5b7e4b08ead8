//! Network traffic statistics.

use ftdircmp_stats::Counter;

use crate::VcClass;

/// Traffic counters collected by the mesh, broken down by virtual-channel
/// class — the raw material for the paper's Figure 4 (network overhead in
/// messages and bytes by message category).
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    messages_sent: [Counter; 6],
    bytes_sent: [Counter; 6],
    messages_dropped: [Counter; 6],
    bytes_dropped: [Counter; 6],
    local_deliveries: Counter,
    /// Dropped messages by [`DropCause`] (declaration order).
    dropped_by_cause: [Counter; 4],
}

/// Why the network lost a message: which arm of the fault pipeline
/// (DESIGN.md §12). A message lost on a link *and* picked by a message-level
/// source is counted once, under the link's cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// A message-level source: drop schedule, burst continuation or lottery.
    Injector,
    /// The route crossed a hard-down (flapping) link.
    LinkDown,
    /// A per-link Gilbert–Elliott channel (possibly event-degraded) lost it.
    Channel,
    /// Adaptive routing found no surviving minimal route.
    Unroutable,
}

impl NocStats {
    pub(crate) fn record_sent(&mut self, class: VcClass, bytes: u32) {
        self.messages_sent[class.index()].incr();
        self.bytes_sent[class.index()].add(u64::from(bytes));
    }

    pub(crate) fn record_dropped(&mut self, class: VcClass, bytes: u32, cause: DropCause) {
        self.messages_dropped[class.index()].incr();
        self.bytes_dropped[class.index()].add(u64::from(bytes));
        self.dropped_by_cause[cause as usize].incr();
    }

    pub(crate) fn record_local(&mut self) {
        self.local_deliveries.incr();
    }

    /// Messages successfully injected for `class` (delivered or in flight).
    pub fn messages(&self, class: VcClass) -> u64 {
        self.messages_sent[class.index()].get()
    }

    /// Bytes successfully injected for `class`.
    pub fn bytes(&self, class: VcClass) -> u64 {
        self.bytes_sent[class.index()].get()
    }

    /// Messages lost to transient faults for `class`.
    pub fn dropped(&self, class: VcClass) -> u64 {
        self.messages_dropped[class.index()].get()
    }

    /// Total messages across all classes (including dropped ones, which did
    /// consume network resources before being lost).
    pub fn total_messages(&self) -> u64 {
        VcClass::ALL
            .iter()
            .map(|c| self.messages(*c) + self.dropped(*c))
            .sum()
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        VcClass::ALL
            .iter()
            .map(|c| self.bytes(*c) + self.bytes_dropped[c.index()].get())
            .sum()
    }

    /// Total messages lost to faults.
    pub fn total_dropped(&self) -> u64 {
        VcClass::ALL.iter().map(|c| self.dropped(*c)).sum()
    }

    /// Same-router deliveries that bypassed the mesh.
    pub fn local_deliveries(&self) -> u64 {
        self.local_deliveries.get()
    }

    /// Messages lost to `cause`.
    pub(crate) fn dropped_by(&self, cause: DropCause) -> u64 {
        self.dropped_by_cause[cause as usize].get()
    }

    /// Messages lost crossing a hard-down (flapping) link.
    pub fn link_down_drops(&self) -> u64 {
        self.dropped_by(DropCause::LinkDown)
    }

    /// Messages lost to per-link channel state (ambient or event-degraded).
    pub fn channel_drops(&self) -> u64 {
        self.dropped_by(DropCause::Channel)
    }

    /// Messages dropped because adaptive routing found no surviving route.
    pub fn unroutable_drops(&self) -> u64 {
        self.dropped_by(DropCause::Unroutable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_class() {
        let mut s = NocStats::default();
        s.record_sent(VcClass::Request, 8);
        s.record_sent(VcClass::Request, 8);
        s.record_sent(VcClass::Response, 72);
        assert_eq!(s.messages(VcClass::Request), 2);
        assert_eq!(s.bytes(VcClass::Request), 16);
        assert_eq!(s.messages(VcClass::Response), 1);
        assert_eq!(s.bytes(VcClass::Response), 72);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 88);
    }

    #[test]
    fn drops_are_counted_separately_but_in_totals() {
        let mut s = NocStats::default();
        s.record_sent(VcClass::Unblock, 8);
        s.record_dropped(VcClass::Unblock, 8, DropCause::Injector);
        assert_eq!(s.messages(VcClass::Unblock), 1);
        assert_eq!(s.dropped(VcClass::Unblock), 1);
        assert_eq!(s.total_dropped(), 1);
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 16);
    }

    #[test]
    fn local_deliveries_tracked() {
        let mut s = NocStats::default();
        s.record_local();
        s.record_local();
        assert_eq!(s.local_deliveries(), 2);
    }

    #[test]
    fn domain_drop_causes_tracked_separately() {
        let mut s = NocStats::default();
        for cause in [
            DropCause::LinkDown,
            DropCause::LinkDown,
            DropCause::Channel,
            DropCause::Unroutable,
            DropCause::Injector,
        ] {
            s.record_dropped(VcClass::Request, 8, cause);
        }
        assert_eq!(s.link_down_drops(), 2);
        assert_eq!(s.channel_drops(), 1);
        assert_eq!(s.unroutable_drops(), 1);
        assert_eq!(s.dropped_by(DropCause::Injector), 1);
        assert_eq!(s.total_dropped(), 5);
    }
}
