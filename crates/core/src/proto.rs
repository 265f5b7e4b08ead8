//! Shared plumbing between the protocol controllers and the system driver.
//!
//! Controllers are passive state machines: they receive a message, a CPU
//! operation, or a timeout, mutate their local state, and emit effects into
//! a `Ctx` — outgoing messages, timeout (re)arms, and core completions.
//! The system driver turns those effects into network sends and scheduled
//! events. This keeps every controller single-threaded, deterministic and
//! unit-testable in isolation. Each decides what an event does by one
//! dispatch into its transition table, which is also the legality check:
//! `unexpected` reports an impossible or uncovered event.

use std::collections::VecDeque;

use ftdircmp_sim::Cycle;

use crate::checker::Checker;
use crate::config::SystemConfig;
use crate::ids::{LineAddr, NodeId};
use crate::msg::Message;
use crate::serial::SerialNum;
use crate::stats::ProtocolStats;
use crate::transitions::{ControllerTable, Dispatch, Event};

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
/// coexist on one line, so the set lives on the stack — a controller's
/// facets are taken once per delivered message and must not allocate.
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

/// Reports `event` on `addr` at `node` as a protocol violation if
/// `dispatch`, `table`'s answer at the line's `facets`, is `Impossible` or
/// `Uncovered`, and returns whether it did.
pub(crate) fn unexpected(
    dispatch: Dispatch<'_>,
    table: &ControllerTable,
    facets: &[u8],
    node: NodeId,
    addr: LineAddr,
    event: Event,
    ctx: &mut Ctx<'_>,
) -> bool {
    let bad = matches!(dispatch, Dispatch::Impossible | Dispatch::Uncovered);
    if bad {
        let what = format!("unexpected {event} in state {}", table.facet_names(facets));
        ctx.checker.protocol_error(node, addr, &what, ctx.now);
    }
    bad
}

/// Admits a request that found its home busy with the transaction of
/// `blocker` under `serial`. A request of the transaction's own kind
/// (`same_kind`, each controller's own test) from its blocker belongs to
/// it: under a new serial it is a reissue (§3.2), returned for the caller
/// to answer again; under the same serial it is a duplicate and dropped.
/// Any other request is deferred to the line's `queue`.
pub(crate) fn admit_busy<'q>(
    blocker: NodeId,
    serial: SerialNum,
    same_kind: bool,
    msg: Message,
    ctx: &mut Ctx<'_>,
    queue: impl FnOnce() -> &'q mut VecDeque<Message>,
) -> Option<Message> {
    if msg.src == blocker && same_kind {
        return (msg.serial != serial).then_some(msg);
    }
    defer_request(queue(), msg, ctx);
    None
}

/// Defers a request that found its line busy with another transaction. A
/// request from a node whose request of the same type is already queued is
/// a reissue of it (§3.5) and only refreshes the queued request's serial;
/// any other request is queued, and counted.
fn defer_request(queue: &mut VecDeque<Message>, msg: Message, ctx: &mut Ctx<'_>) {
    let same = |m: &&mut Message| m.src == msg.src && m.mtype == msg.mtype;
    if let Some(queued) = queue.iter_mut().find(same) {
        queued.serial = msg.serial;
    } else {
        queue.push_back(msg);
        ctx.stats.deferred_requests.incr();
    }
}

/// Exponential backoff for recovery retries: attempt `n` waits
/// `base << min(n, 6)` cycles. Without backoff, a detection timeout shorter
/// than the worst-case service latency livelocks: every response arrives
/// after the next reissue already bumped the serial and is discarded as
/// stale. Backoff guarantees the window eventually exceeds any finite
/// latency, making recovery convergent for *any* positive base timeout
/// (DESIGN.md §6.4).
fn backoff_delay(base: u64, attempt: u32) -> u64 {
    base.saturating_mul(1u64 << attempt.min(6))
}

/// A request to arm a timeout `delay` cycles from now, as a [`Timer`]
/// emits it.
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

/// A controller's timer bank: the node its timers belong to and the one
/// generation source all of its [`Timer`] slots draw from. One source per
/// controller, not per slot: a slot that is freed and reallocated never
/// reuses a generation a stale queued firing still carries, and two slots
/// of the same kind on one line (an L2's TBE AckBD timer and its
/// `ExtPending`) never answer each other's firings.
#[derive(Debug, Clone)]
pub(crate) struct Timers {
    node: NodeId,
    last_gen: u64,
}

impl Timers {
    /// The timer bank of `node`; generations start at 1.
    pub(crate) fn new(node: NodeId) -> Self {
        Timers { node, last_gen: 0 }
    }

    fn next_gen(&mut self) -> u64 {
        self.last_gen += 1;
        self.last_gen
    }

    /// Schedules a firing of `kind` for `addr` carrying `gen`, at the
    /// kind's base delay backed off `attempt` times. Under DirCMP it
    /// schedules nothing: its timers exist only with fault tolerance on
    /// (the tables' `ft_alloc [Timer…]`).
    fn schedule(
        &self,
        addr: LineAddr,
        kind: TimeoutKind,
        gen: u64,
        attempt: u32,
        ctx: &mut Ctx<'_>,
    ) {
        if !ctx.config.protocol.is_fault_tolerant() {
            return;
        }
        ctx.timeouts.push(TimeoutReq {
            node: self.node,
            addr,
            kind,
            gen,
            delay: backoff_delay(ctx.config.ft.timeout(kind), attempt),
        });
    }
}

/// One FtDirCMP timer slot (paper Table 3, plus the lost-data timer).
///
/// Timeouts are invalidated by generation rather than cancelled: every arm
/// and every live firing moves the slot to a fresh generation from its
/// controller's [`Timers`], and a firing whose generation no longer matches
/// is stale and ignored. A generation is only ever compared for equality.
/// `Default` is disarmed: generations start at 1, so 0 matches no firing.
///
/// Packed to 4-byte alignment, the slot is 12 bytes and its `u32` can share
/// a word with the small fields of the record holding it. The per-line
/// records live in slots that are never freed (`linetab`), so an 8-aligned
/// 16-byte timer would grow every L1 line by 24 bytes and every L2 line by
/// 32. Fields are only read by value, never borrowed.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed(4))]
pub(crate) struct Timer {
    gen: u64,
    retries: u32,
}

impl Timer {
    /// Arms the slot at `kind`'s base delay under a fresh generation, so any
    /// firing already queued for it goes stale. The retry count is kept: a
    /// slot re-armed within one transaction backs off from where it was.
    pub(crate) fn arm(
        &mut self,
        timers: &mut Timers,
        addr: LineAddr,
        kind: TimeoutKind,
        ctx: &mut Ctx<'_>,
    ) {
        self.gen = timers.next_gen();
        timers.schedule(addr, kind, self.gen, 0, ctx);
    }

    /// Matches a firing that carries `gen`. A live firing is counted in the
    /// statistics, bumps the retry count, moves the slot to a fresh
    /// generation and returns `true`; a stale one changes nothing. The
    /// caller re-arms with [`Timer::rearm`] if the recovery goes on.
    pub(crate) fn fire(
        &mut self,
        gen: u64,
        timers: &mut Timers,
        kind: TimeoutKind,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        if self.gen != gen {
            return false;
        }
        ctx.stats.record_timeout(kind);
        self.retries += 1;
        self.gen = timers.next_gen();
        true
    }

    /// Re-arms the slot after a live firing, at `kind`'s base delay backed
    /// off by the retry count.
    pub(crate) fn rearm(
        &self,
        timers: &Timers,
        addr: LineAddr,
        kind: TimeoutKind,
        ctx: &mut Ctx<'_>,
    ) {
        timers.schedule(addr, kind, self.gen, self.retries, ctx);
    }

    /// Whether a firing carrying `gen` is live for this slot.
    pub(crate) fn carries(self, gen: u64) -> bool {
        self.gen == gen
    }

    /// Disarms the slot: whatever firing is queued for it goes stale.
    pub(crate) fn disarm(&mut self) {
        self.gen = 0;
    }

    /// Live firings so far.
    pub(crate) fn retries(self) -> u32 {
        self.retries
    }
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
    pub(crate) out: &'a mut Vec<Message>,
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
    /// Queues `msg` for injection; the system charges its sender's send
    /// latency ([`SystemConfig::send_cycles`]) at injection.
    pub(crate) fn send(&mut self, msg: Message) {
        self.out.push(msg);
    }

    /// Discards a message that answers no live record of its controller,
    /// or answers one under another serial (§3.5): it is counted and
    /// changes nothing.
    pub(crate) fn stale(&mut self) {
        self.stats.stale_discards.incr();
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
    use crate::testharness::Harness;

    #[test]
    fn a_timer_goes_stale_backs_off_and_keeps_its_retries_when_re_armed() {
        let mut h = Harness::ft();
        let mut timers = Timers::new(NodeId::L2(0));
        let (addr, kind) = (LineAddr(3), TimeoutKind::LostAckBd);
        let base = h.config.ft.lost_ackbd_timeout;
        let mut t = Timer::default();
        t.arm(&mut timers, addr, kind, &mut h.ctx());
        let first = h.timeouts[0];
        assert_eq!((first.node, first.delay), (NodeId::L2(0), base));

        assert!(t.fire(first.gen, &mut timers, kind, &mut h.ctx()));
        assert!(!t.fire(first.gen, &mut timers, kind, &mut h.ctx()), "stale");
        assert_eq!(h.stats.timeouts(kind), 1, "only the live firing counts");
        t.rearm(&timers, addr, kind, &mut h.ctx());
        let second = h.timeouts[1];
        assert_ne!(second.gen, first.gen);
        assert_eq!(second.delay, base * 2);

        // Arming again starts at the base delay but keeps the retry count.
        t.arm(&mut timers, addr, kind, &mut h.ctx());
        let third = h.timeouts[2];
        assert_eq!(third.delay, base);
        assert!(!t.fire(second.gen, &mut timers, kind, &mut h.ctx()));
        assert!(t.fire(third.gen, &mut timers, kind, &mut h.ctx()));
        assert_eq!(t.retries(), 2);
        t.rearm(&timers, addr, kind, &mut h.ctx());
        let fourth = h.timeouts[3];
        assert_eq!(fourth.delay, base * 4);

        t.disarm();
        assert!(!t.fire(fourth.gen, &mut timers, kind, &mut h.ctx()));
        assert_eq!(h.stats.timeouts(kind), 2);
    }

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
